"""Inputs, operations and correctness oracles of the benchmark workloads.

Inputs come only from the seed: every phase draws from its own stream
`default_rng([seed, phase index])`, so one phase's inputs do not depend on
another's size.  An operation times only its library calls; the oracle runs
after the clock stops.  Oracle tolerances are those of
`tests/test_acceptance.py`.  Typed stops (escaped, grazed, singular, tropic,
no chord, step underflow) are outcomes; an untyped exception or a tolerance
miss is a failure.
"""
from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from lorentzbilliards import billiard, circle, confocal, quadric_flow, revolution
from lorentzbilliards.errors import StepUnderflowError, TrajectoryStopped
from lorentzbilliards.metric import Metric

TWO_PI = 2.0 * np.pi
PHASES = ("quadric", "implicit", "circle", "points", "lines", "levels", "geodesic", "cli")

# acceptance tolerances (tests/test_acceptance.py, criteria 1, 3, 6-9)
ENERGY_TOL = 1e-12
HARMONIC_TOL = 1e-10
CIRCLE_I_TOL = 1e-8
LEVEL_TOL = 1e-10
INTEGRAL_TOL = 1e-6
CLAIRAUT_TOL = 1e-8
MERIDIAN_ANGLE_TOL = 1e-3


@dataclass
class Outcome:
    """What one operation did: timed work per key as (units, seconds),
    failed checks, summed counts, worst residuals, a digest of its result,
    and host factors per work key where the operation measured its own
    (CLI children)."""

    work: dict[str, tuple[float, float]] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    worst: dict[str, float] = field(default_factory=dict)
    digest: str = ""
    host_factors: dict[str, float] = field(default_factory=dict)

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def check(self, name: str, value: float, tol: float) -> None:
        self.worst[name] = max(self.worst.get(name, 0.0), value)
        if not value <= tol:
            self.failures.append(f"{name} {value:.3e} > {tol:.0e}")


def fingerprint(obj) -> str:
    """Stable hash of generated inputs: arrays by their bytes, functions by
    name, objects by their fields."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, functools.partial):
            feed(x.func)
            feed(x.args)
            feed(x.keywords)
        elif isinstance(x, np.ndarray):
            h.update(x.tobytes())
        elif isinstance(x, (str, int, float, np.floating, np.integer, type(None))):
            h.update(repr(x).encode())
        elif isinstance(x, (list, tuple)):
            for item in x:
                feed(item)
        elif isinstance(x, dict):
            for key in sorted(x, key=str):
                feed(key)
                feed(x[key])
        elif callable(x):
            h.update(getattr(x, "__qualname__", getattr(x, "__name__", "")).encode())
        else:
            h.update(type(x).__qualname__.encode())
            feed(vars(x))

    feed(obj)
    return h.hexdigest()[:16]


# -- geometry shared by the operations ---------------------------------------


def _random_family(rng, n, k):
    """Family with k positive signs whose poles are at least 0.05 apart
    (as in the acceptance tests)."""
    signs = (1,) * k + (-1,) * (n - k)
    while True:
        a2 = np.sort(rng.uniform(0.5, 4.0, size=n))
        if np.min(np.diff(np.sort(-np.array(signs) * a2))) > 0.05:
            return confocal.ConfocalFamily(tuple(float(a) for a in a2), signs)


def quartic_table() -> billiard.ImplicitBoundary:
    """The table x^4 + y^4 <= 1 in the plane of signature (1,1)."""
    return billiard.ImplicitBoundary(
        Metric.from_signature(1, 1),
        lambda q: q[0] ** 4 + q[1] ** 4 - 1.0,
        lambda q: np.array([4.0 * q[0] ** 3, 4.0 * q[1] ** 3]),
    )


def build_geometry(seed: int) -> dict:
    """Families, tables, quadrics and profiles used by all phases."""
    rng = np.random.default_rng([seed, len(PHASES)])
    splits = {2: (2, 1), 3: (3, 2, 1), 4: (4, 3, 2, 1)}
    return {
        "point_families": {n: [_random_family(rng, n, k) for k in ks] for n, ks in splits.items()},
        # lines need a negative sign for time- and light-like directions
        "line_families": {n: [_random_family(rng, n, k) for k in range(1, n)] for n in (3, 4)},
        "quartic": quartic_table(),
        "quadric3": quadric_flow.QuadricSurface((3.0, 2.0, 1.0), (1, 1, -1)),
        "quadric4": quadric_flow.QuadricSurface((4.0, 3.0, 2.0, 1.0), (1, 1, 1, -1)),
        "profiles": {
            "sine": revolution.sine_profile(2.0),
            "polynomial": revolution.polynomial_profile([2.0, 0.0, 0.1]),
            "cylinder": revolution.cylinder(1.0),
        },
    }


# -- operations ----------------------------------------------------------------


def billiard_op(key, boundary, start, direction, n_bounces) -> Outcome:
    out = Outcome()
    t0 = perf_counter()
    if isinstance(boundary, quadric_flow.QuadricSurface):
        traj = quadric_flow.billiard_in_quadric(boundary, start, direction, n_bounces)
        boundary = boundary.boundary()
    else:
        traj = billiard.iterate(boundary, start, direction, n_bounces)
    dt = perf_counter() - t0
    m = boundary.metric
    out.work[key] = (len(traj), dt)
    out.count("runs")
    out.count(f"stops.{traj.status}")
    out.count("bounces", len(traj))
    for r in traj.records:
        defect = abs(r.energy - m.norm2(r.incoming))
        out.check("energy", defect / billiard.reflection_scale(m, r.incoming, r.normal), ENERGY_TOL)
        if m.n == 2:
            out.check("harmonic", abs(r.harmonic), HARMONIC_TOL)
    last = traj.records[-1].point if traj.records else np.zeros(1)
    out.digest = fingerprint((traj.status, len(traj), last))
    return out


def circle_op(t1, t2, n_steps) -> Outcome:
    out = Outcome()
    t0 = perf_counter()
    try:
        chords = circle.orbit(circle.ChordCoords(t1, t2), n_steps)
    except TrajectoryStopped:
        out.work["steps"] = (0, perf_counter() - t0)
        out.count("stopped")
        out.digest = fingerprint("stopped")
        return out
    out.work["steps"] = (n_steps, perf_counter() - t0)
    vals = [circle.integral_I(c) for c in chords]
    out.check("circle_I", (max(vals) - min(vals)) / abs(vals[0]), CIRCLE_I_TOL)
    out.digest = fingerprint((chords[-1].t1, chords[-1].t2))
    return out


def point_op(family, x) -> Outcome:
    out = Outcome()
    t0 = perf_counter()
    ec = confocal.quadrics_through_point(family, x)
    out.work["points"] = (1, perf_counter() - t0)
    out.count("points")
    out.count("points.degenerate", int(ec.degenerate))
    out.count("pole_drops", sum("family pole" in note for note in ec.notes))
    if not ec.degenerate and ec.count not in confocal.expected_point_counts(family.n):
        out.count("count_violations")
        out.failures.append(f"point count {ec.count} for n={family.n}")
    out.digest = fingerprint(ec.values)
    return out


def line_op(family, base, direction) -> Outcome:
    out = Outcome()
    t0 = perf_counter()
    spec = confocal.tangent_spectrum_of_line(family, base, direction)
    out.work["lines"] = (1, perf_counter() - t0)
    out.count("lines")
    out.count("lines.degenerate", int(spec.degenerate))
    out.count("lines.infinite", int(spec.infinite))
    out.count("pole_drops", len(spec.pole_values))
    causal = family.metric.classify(direction)
    if (
        not (spec.infinite or spec.degenerate)
        and spec.count not in confocal.expected_line_counts(family.n, causal)
    ):
        out.count("count_violations")
        out.failures.append(f"line count {spec.count} for n={family.n} {causal.value}")
    out.digest = fingerprint(spec.values)
    return out


def level_op(lam, t1) -> Outcome:
    out = Outcome()
    out.count("levels")
    t0 = perf_counter()
    try:
        c = circle.point_on_level(lam, t1)
    except ValueError as exc:
        if not str(exc).startswith("no chord"):
            raise
        out.work["levels"] = (1, perf_counter() - t0)
        out.count("no_chord")
        out.digest = fingerprint("no chord")
        return out
    out.work["levels"] = (1, perf_counter() - t0)
    lev = circle.integral_level(c)
    scale = max(1.0, abs(lev.num), abs(lev.den))
    out.check("level", abs(lev.num - lam * lev.den) / scale, LEVEL_TOL)
    out.digest = fingerprint(c.t2)
    return out


def _run_geodesic(out, integrate, surface, x0, v0, length, **kwargs):
    t0 = perf_counter()
    try:
        run = integrate(surface, x0, v0, length, **kwargs)
    except StepUnderflowError:
        out.work["length"] = (0.0, perf_counter() - t0)
        out.count("underflows")
        out.digest = fingerprint("underflow")
        return None
    out.work["length"] = (run.final.t, perf_counter() - t0)
    out.count("runs")
    out.count("length", run.final.t)
    out.count("tropic", int(run.status == "tropic"))
    out.digest = fingerprint((run.status, run.final.x, run.final.v, run.final.t))
    return run


def quadric_geodesic_op(q, x0, v0, length, n_lines) -> Outcome:
    """Quadric geodesic, then the conservation of F_k and J and the
    Jacobi-Chasles spectrum of its sampled tangent lines."""
    out = Outcome()
    run = _run_geodesic(out, quadric_flow.integrate_quadric_geodesic, q, x0, v0, length)
    if run is None:
        return out
    lines = quadric_flow.geodesic_tangent_lines(run, stride=max(1, len(run.states) // n_lines))
    m = q.metric
    spectral = sum(abs(m.norm2(d)) >= 1e-6 * float(d @ d) for _, d in lines)
    t0 = perf_counter()
    spread, _ = quadric_flow.jacobi_chasles_check(q, lines, drop_self=True)
    out.work["lines"] = (spectral, perf_counter() - t0)
    if spectral:
        out.check("spectrum_spread", spread, INTEGRAL_TOL)
    s0 = run.states[0]
    f0 = quadric_flow.integrals_F(q, s0.x, s0.v)
    j0 = quadric_flow.joachimsthal(q, s0.x, s0.v)
    for s in run.states:
        out.check("F_drift", float(np.max(np.abs(quadric_flow.integrals_F(q, s.x, s.v) - f0))), INTEGRAL_TOL)
        out.check("J_drift", abs(quadric_flow.joachimsthal(q, s.x, s.v) - j0), INTEGRAL_TOL)
    return out


def revolution_geodesic_op(profiles, name, causal, x0, v0, length) -> Outcome:
    """Revolution geodesic, checked as criterion 9 checks its class:
    Clairaut drift (space-like), vanishing invariant (light-like), tropic
    stop along the meridian (time-like)."""
    out = Outcome()
    s = profiles[name]
    kwargs = {"stall_factor": 1e-6} if causal == "time" else {}
    run = _run_geodesic(out, revolution.integrate_revolution_geodesic, s, x0, v0, length, **kwargs)
    if run is None:
        return out
    if causal == "time":
        angle = revolution.meridian_angle(s, run.final.x, run.final.v)
        if run.status != "tropic":
            out.failures.append(f"time-like run ended {run.status}, not at the tropic")
        out.check("meridian_angle", angle, MERIDIAN_ANGLE_TOL)
        return out
    vals = [revolution.clairaut_invariant(s, st.x, st.v) for st in run.states]
    if causal == "light":
        out.check("clairaut", max(abs(v) for v in vals), CLAIRAUT_TOL)
    else:
        out.check("clairaut", (max(vals) - min(vals)) / max(1.0, abs(vals[0])), CLAIRAUT_TOL)
    return out


# -- input populations -----------------------------------------------------------


def quadric_rounds(rng, geo, n_rounds, long):
    """long: orbits of 200 bounces on a 2-D (1,1) table and inside a 3-D
    quadric of signs (1,1,-1).  short: 18 rays of 6 bounces from random
    phase-space points, six each for n = 2, 3, 4, random signature."""
    rounds = []
    for _ in range(n_rounds):
        if long:
            m = Metric.from_signature(1, 1)
            table = billiard.QuadricBoundary.from_semi_axes(m, [rng.uniform(1.5, 2.5), rng.uniform(0.7, 1.2)])
            q = quadric_flow.QuadricSurface(tuple(np.sort(rng.uniform(0.5, 3.0, 3))[::-1]), (1, 1, -1))
            rounds.append([
                functools.partial(billiard_op, "bounces", table, rng.uniform(-0.2, 0.2, 2), rng.normal(size=2), 200),
                functools.partial(billiard_op, "bounces", q, rng.uniform(-0.2, 0.2, 3), rng.normal(size=3), 200),
            ])
            continue
        ops = []
        for n in (2, 3, 4) * 6:
            k = int(rng.integers(1, n + 1))
            table = billiard.QuadricBoundary.from_semi_axes(
                Metric.from_signature(k, n - k), rng.uniform(0.5, 2.0, n)
            )
            ops.append(functools.partial(
                billiard_op, "bounces", table, rng.uniform(-0.2, 0.2, n), rng.normal(size=n), 6
            ))
        rounds.append(ops)
    return rounds


def implicit_rounds(rng, geo, n_rounds, long):
    """Rays inside x^4 + y^4 = 1 (bracketed next_hit): one orbit of 40
    bounces per round (long) or one of 4 bounces (short)."""
    n = 40 if long else 4
    return [
        [functools.partial(
            billiard_op, "implicit_bounces", geo["quartic"], rng.uniform(-0.3, 0.3, 2), rng.normal(size=2), n
        )]
        for _ in range(n_rounds)
    ]


def _off_singular(t, margin) -> bool:
    d = np.abs(np.mod(t, TWO_PI) - np.array([0.0, 0.5, 1.0, 1.5, 2.0]) * np.pi)
    return bool(np.min(d) >= margin)


def circle_rounds(rng, geo, n_rounds, long, margin=0.05):
    """Orbits of 1000 steps (long) or 200 on the levels lambda = +-0.5, where
    every orbit is 4-periodic, from a random start chord kept `margin` away
    from the singular angles and from zero length (as `_random_chord` in
    the acceptance tests).  Other levels pass through the four singular
    degenerate chords; a long orbit on one comes so close to them that I
    drifts by 1e-7 to 1e-6, beyond the tolerance of criterion 3."""
    n = 1000 if long else 200
    rounds = []
    for i in range(n_rounds):
        lam = 0.5 if i % 2 == 0 else -0.5
        while True:
            try:
                c = circle.point_on_level(lam, float(rng.uniform(0.0, TWO_PI)))
            except ValueError:
                continue
            gap = np.mod(c.t2 - c.t1, TWO_PI)
            if _off_singular(c.t1, margin) and _off_singular(c.t2, margin) and margin <= gap <= TWO_PI - margin:
                break
        rounds.append([functools.partial(circle_op, c.t1, c.t2, n)])
    return rounds


def point_rounds(rng, geo, n_rounds, long=False):
    """Rounds of 18 points (six each for n = 2, 3, 4) in [-3, 3]^n, each
    on a family of a random signature."""
    fams = geo["point_families"]
    return [
        [
            functools.partial(point_op, fams[n][int(rng.integers(len(fams[n])))], rng.uniform(-3, 3, n))
            for n in (2, 3, 4) for _ in range(6)
        ]
        for _ in range(n_rounds)
    ]


def _direction(rng, m, causal):
    """A direction of the requested class; space- and time-like ones are
    kept at least 1e-3 away from the light cone (as in criterion 7)."""
    if causal == "light":
        signs = np.diag(m.gram)
        d = rng.normal(size=m.n)
        pos = signs > 0
        d[~pos] *= np.sqrt(np.sum(d[pos] ** 2) / np.sum(d[~pos] ** 2))
        return d
    while True:
        d = rng.normal(size=m.n)
        q = m.norm2(d)
        if (q > 0) == (causal == "space") and abs(q) >= 1e-3 * float(d @ d):
            return d


def line_rounds(rng, geo, n_rounds, long=False):
    """Rounds of 12 lines: two each for n = 3 and 4 and space-, time- and
    light-like, base in [-2, 2]^n, on a family with both signs."""
    fams = geo["line_families"]
    rounds = []
    for _ in range(n_rounds):
        ops = []
        for n in (3, 4, 3, 4):
            for causal in ("space", "time", "light"):
                fam = fams[n][int(rng.integers(len(fams[n])))]
                ops.append(functools.partial(
                    line_op, fam, rng.uniform(-2, 2, n), _direction(rng, fam.metric, causal)
                ))
        rounds.append(ops)
    return rounds


def level_rounds(rng, geo, n_rounds, long=False):
    """Rounds of 16 (lambda, t1) cells: a 4 x 4 grid over lambda in [-1, 3]
    and t1 in [0, 2 pi), one jittered point per cell; some cells have no
    chord."""
    rounds = []
    for _ in range(n_rounds):
        lams = -1.0 + (np.arange(4) + rng.uniform(size=4))
        t1s = (np.arange(4) + rng.uniform(size=4)) * (TWO_PI / 4)
        rounds.append([functools.partial(level_op, float(lam), float(t1)) for lam in lams for t1 in t1s])
    return rounds


def _equator_state(q, phi, vz):
    """Point of the equator x3 = 0 of the 3-D quadric, unit tangent to the
    equator plus vz along x3."""
    a = np.sqrt(np.asarray(q.axes_sq))
    x = np.array([a[0] * np.cos(phi), a[1] * np.sin(phi), 0.0])
    t = np.array([-a[0] * np.sin(phi), a[1] * np.cos(phi), 0.0])
    return x, t / np.linalg.norm(t) + np.array([0.0, 0.0, vz])


def _slice_state(rng, q):
    """State of the 4-D quadric inside its Riemannian slice x4 = 0, jittered
    around a fixed one."""
    raw = np.array([1.0, 1.0, 1.0, 0.0]) + np.append(rng.uniform(-0.05, 0.05, 3), 0.0)
    x = raw / np.sqrt(float(q.coeffs @ raw**2))
    v = np.array([1.0, -1.0, 0.5, 0.0]) + np.append(rng.uniform(-0.05, 0.05, 3), 0.0)
    g = q.coeffs * x
    return x, v - (float(g @ v) / float(g @ g)) * g


def _profile_state(s, z0, phi0, v_phi, v_z):
    """Point at height z0 and angle phi0 with velocity v_phi along the
    parallel and v_z along the meridian (as in criterion 9)."""
    r = s.f(z0)
    x = np.array([r * np.cos(phi0), r * np.sin(phi0), z0])
    e_r = np.array([np.cos(phi0), np.sin(phi0), 0.0])
    e_phi = np.array([-np.sin(phi0), np.cos(phi0), 0.0])
    return x, s.df(z0) * v_z * e_r + v_phi * e_phi + np.array([0.0, 0.0, v_z])


def geodesic_rounds(rng, geo, n_rounds, long):
    """full: eight geodesics per set, each its own round (so the host
    factor is sampled around each) -- on the (1,1,-1) quadric a
    space-like equator run, a time-like and a light-like run that stop at
    the tropic, a space-like run on the 4-D quadric; on surfaces of
    revolution space-like sine and polynomial runs, a light-like cylinder
    run and a time-like sine run that stops at the tropic.
    probe: a short equator run and a short polynomial run per round."""
    q3, q4, prof = geo["quadric3"], geo["quadric4"], geo["profiles"]
    rounds = []
    for i in range(n_rounds):
        # small jitter around fixed phases: a geodesic's cost per length
        # depends on where on the surface it runs
        phi = 0.5 * np.pi * i + rng.uniform(-0.05, 0.05)
        z = rng.uniform(-0.05, 0.05)
        if not long:
            rounds.append([
                functools.partial(quadric_geodesic_op, q3, *_equator_state(q3, phi, 0.0), 1.0, 5),
                functools.partial(
                    revolution_geodesic_op, prof, "polynomial", "space",
                    *_profile_state(prof["polynomial"], z, phi, 1.0, 0.5), 1.0,
                ),
            ])
            continue
        s = prof["sine"]
        rounds.extend([op] for op in [
            functools.partial(quadric_geodesic_op, q3, *_equator_state(q3, phi, 0.0), 4.0, 10),
            functools.partial(quadric_geodesic_op, q3, *_equator_state(q3, phi + 2.0, 3.0), 4.0, 10),
            functools.partial(quadric_geodesic_op, q3, *_equator_state(q3, phi + 4.0, 1.0), 4.0, 10),
            functools.partial(quadric_geodesic_op, q4, *_slice_state(rng, q4), 4.0, 10),
            functools.partial(
                revolution_geodesic_op, prof, "sine", "space",
                *_profile_state(s, 0.5 * np.pi + 0.2 * z, phi, 1.0, 0.1), 3.0,
            ),
            functools.partial(
                revolution_geodesic_op, prof, "polynomial", "space",
                *_profile_state(prof["polynomial"], z, phi, 1.0, 0.5), 3.0,
            ),
            functools.partial(
                revolution_geodesic_op, prof, "cylinder", "light",
                *_profile_state(prof["cylinder"], z, phi, 1.0, 1.0), 3.0,
            ),
            functools.partial(
                revolution_geodesic_op, prof, "sine", "time",
                *_profile_state(s, 1.5 + 0.1 * z, phi, 0.3, 1.0), 50.0,
            ),
        ])
    return rounds


BUILDERS = {
    "quadric": quadric_rounds,
    "implicit": implicit_rounds,
    "circle": circle_rounds,
    "points": point_rounds,
    "lines": line_rounds,
    "levels": level_rounds,
    "geodesic": geodesic_rounds,
}
