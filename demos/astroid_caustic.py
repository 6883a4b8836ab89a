"""Caustics of normal families on the Lorentz plane.

The metric normals of the Euclidean unit circle in diag(1, -1) envelope the
astroid x^(2/3) + y^(2/3) = 2^(2/3); the normals of the pseudo-circle
x^2 - y^2 = 1 all pass through the origin, so its caustic collapses to a
point.  This script draws both families and their envelopes.
"""
import numpy as np

from lorentzbilliards import billiard, output, variational
from lorentzbilliards.metric import Metric


def main():
    m = Metric.diagonal([1, -1])
    circle_b = billiard.ImplicitBoundary(
        m,
        lambda q: q[0] ** 2 + q[1] ** 2 - 1.0,
        lambda q: np.array([2.0 * q[0], 2.0 * q[1]]),
    )
    canvas = output.SvgCanvas(width=720, height=720, world=(-2.4, 2.4, -2.4, 2.4))
    canvas.circle((0, 0), 1.0, stroke="#444444")

    eps = 0.04
    pieces = []
    for k in range(4):
        ts = np.linspace(k * np.pi / 2 + eps, (k + 1) * np.pi / 2 - eps, 60)
        env = variational.envelope_of_normals(
            circle_b, lambda t: np.array([np.cos(t), np.sin(t)]), ts
        )
        pieces.append(env)
        for t in ts[::4]:
            q = np.array([np.cos(t), np.sin(t)])
            nu = billiard.normal_at(circle_b, q)
            nu = nu / np.linalg.norm(nu)
            canvas.polyline(
                [tuple(q - 2.5 * nu), tuple(q + 2.5 * nu)], stroke="#bbccdd", width=0.3
            )
    worst = 0.0
    for env in pieces:
        canvas.polyline([tuple(p) for p in env], stroke="#cc3333", width=1.4)
        worst = max(worst, max(abs(variational.astroid_residual(p, radius=2.0)) for p in env))
    canvas.save("astroid_caustic.svg")
    print(f"astroid residual on the envelope: {worst:.2e}")

    pseudo_b = billiard.ImplicitBoundary(
        m,
        lambda q: q[0] ** 2 - q[1] ** 2 - 1.0,
        lambda q: np.array([2.0 * q[0], -2.0 * q[1]]),
    )
    env = variational.envelope_of_normals(
        pseudo_b,
        lambda t: np.array([np.cosh(t), np.sinh(t)]),
        np.linspace(-1.2, 1.2, 25),
    )
    print(f"pseudo-circle caustic radius: {float(np.max(np.abs(env))):.2e} (a point)")
    print("wrote astroid_caustic.svg")


if __name__ == "__main__":
    main()
