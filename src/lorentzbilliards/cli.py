"""Command-line scenario runner and figure/CSV emitter.

Subcommands: billiard, circle-phase, confocal-count, geodesic, revolution,
diameters, caustic, eigen-sweep, checks.  Parameters come from flags or from
a plain-text key=value config file (`--config`), whose values become the
subcommand's defaults, so that argparse converts them and any flag given wins.
All randomized scans are driven by a fixed 64-bit seed for reproducibility.
"""
from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import billiard as _billiard
from . import circle as _circle
from . import confocal as _confocal
from . import lines as _lines
from . import output as _output
from . import quadric_flow as _qflow
from . import revolution as _revolution
from . import variational as _variational
from .errors import ConfigError, LorentzBilliardError
from .metric import Metric


def parse_config(path) -> dict[str, str]:
    """Parse a key=value config file with `#` comments.

    Duplicate keys are an error; values are returned as raw strings."""
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in values:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            values[key] = value.strip()
    return values


def _floats(text: str, kind=float) -> list:
    """Comma-separated finite numbers: the argparse type of list options."""
    try:
        out = [kind(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed number in {text!r}") from None
    if kind is float and not all(map(math.isfinite, out)):
        raise argparse.ArgumentTypeError(f"non-finite number in {text!r}")
    return out


def _ints(text: str) -> list[int]:
    return _floats(text, int)


def _config_defaults(sub: argparse.ArgumentParser, path) -> None:
    """Make the config file's values the subcommand's defaults: parsing argv
    again converts them through each option's type, and a given flag wins."""
    try:
        file_values = parse_config(path)
    except OSError as exc:
        raise ConfigError(str(exc)) from exc
    known = {a.dest for a in sub._actions}
    for key, raw in file_values.items():
        dest = key.replace("-", "_")
        if dest in known:
            sub.set_defaults(**{dest: raw})
        else:
            print(f"warning: unknown config key {key!r} ignored", file=sys.stderr)


# -- subcommand implementations ----------------------------------------------


def _cmd_billiard(args) -> int:
    metric = Metric.diagonal(args.signs)
    boundary = _billiard.QuadricBoundary.from_semi_axes(metric, args.axes)
    traj = _billiard.iterate(boundary, args.start, args.direction, args.bounces)
    n = metric.n
    header = (
        ["bounce_index"]
        + [f"x{i}" for i in range(n)]
        + [f"v{i}" for i in range(n)]
        + ["energy", "harmonic_defect"]
    )
    rows = [
        [r.index, *r.point, *r.outgoing, r.energy, r.harmonic] for r in traj.records
    ]
    _output.write_csv(args.out, header, rows)
    print(f"{len(traj)} bounces, status={traj.status} -> {args.out}")
    return 0


def _phase_levels():
    return [-0.8, -0.4, -0.15, 0.15, 0.4, 0.8, 1.5, 3.0]


def _broken_polyline(canvas, params, point, stroke: str) -> None:
    """Draw the curve s -> point(s) as polylines, broken where it has no point."""
    pts = []
    for s in params:
        try:
            pts.append(point(float(s)))
        except (ValueError, _circle.TrajectoryStopped):
            if len(pts) > 1:
                canvas.polyline(pts, stroke=stroke, width=0.8)
            pts = []
    if len(pts) > 1:
        canvas.polyline(pts, stroke=stroke, width=0.8)


def _level_point(lam: float, t1: float) -> tuple:
    c = _circle.point_on_level(lam, t1)
    return (c.t1, np.mod(c.t2, 2 * np.pi))


def _cmd_circle_phase(args) -> int:
    grid = args.grid
    ts = np.linspace(0.01, 2 * np.pi - 0.01, grid)
    rows = []
    for t1 in ts:
        for t2 in ts:
            c = _circle.ChordCoords(t1, t2)
            lev = _circle.integral_level(c)
            lam = lev.num / lev.den if lev.den != 0.0 else float("inf")
            rows.append([t1, t2, lev.num, lev.den, lam])
    _output.write_csv(args.out_csv, ["t1", "t2", "num", "den", "lambda"], rows)

    canvas = _output.SvgCanvas(world=(0.0, 2 * np.pi, 0.0, 2 * np.pi))
    for lam in _phase_levels():
        _broken_polyline(canvas, ts, lambda t1: _level_point(lam, t1), "#3366cc")
    canvas.save(args.out_svg)

    orbit_canvas = _output.SvgCanvas(world=(-1.3, 1.3, -1.3, 1.3))
    orbit_canvas.circle((0.0, 0.0), 1.0, stroke="black")
    try:
        chords = _circle.orbit(_circle.ChordCoords(0.3, 1.9), args.orbit_len)
        lam = _circle.integral_level(chords[0]).lam
        for c in chords:
            q1, q2 = c.endpoints()
            orbit_canvas.polyline([tuple(q1), tuple(q2)], stroke="#cc3333", width=0.7)
        alphas = np.linspace(0.0, 2 * np.pi, 720)
        _broken_polyline(
            orbit_canvas, alphas, lambda a: tuple(_circle.envelope_point(a, lam)), "#33aa33"
        )
    except _circle.TrajectoryStopped:
        pass
    orbit_canvas.save(args.out_orbit_svg)
    print(f"phase portrait -> {args.out_csv}, {args.out_svg}; orbit -> {args.out_orbit_svg}")
    return 0


def _cmd_confocal_count(args) -> int:
    family = _confocal.ConfocalFamily(axes_sq=tuple(args.a), signs=tuple(args.signs))
    if family.n != 2:
        raise ConfigError("the raster scan is a 2-D figure: need n = 2")
    w = args.window
    grid = args.grid
    xs = np.linspace(-w, w, grid)
    dx = xs[1] - xs[0]
    rows = []
    canvas = _output.SvgCanvas(world=(-w, w, -w, w))
    for x in xs:
        for y in xs:
            coords = _confocal.quadrics_through_point(family, [x, y])
            count = coords.count
            rows.append([x, y, count, int(coords.degenerate)])
            canvas.cell(x - 0.5 * dx, y - 0.5 * dx, dx, dx, _output.count_color(count))
    _output.write_csv(args.out_csv, ["x", "y", "count", "degenerate"], rows)
    canvas.save(args.out_svg)
    print(f"partition raster -> {args.out_csv}, {args.out_svg}")
    return 0


def _cmd_geodesic(args) -> int:
    q = _qflow.QuadricSurface(axes_sq=tuple(args.axes_sq), signs=tuple(args.signs))
    run = _qflow.integrate_quadric_geodesic(
        q, args.x0, args.v0, args.length,
        local_err=args.tol, record_every=args.record_every,
    )
    n = q.n
    header = (
        ["t"]
        + [f"x{i}" for i in range(n)]
        + [f"v{i}" for i in range(n)]
        + [f"F{i}" for i in range(n)]
        + ["J"]
    )
    rows = []
    for s in run.states:
        fk = _qflow.integrals_F(q, s.x, s.v)
        rows.append([s.t, *s.x, *s.v, *fk, _qflow.joachimsthal(q, s.x, s.v)])
    _output.write_csv(args.out, header, rows)
    print(f"{len(run.states)} states, status={run.status} -> {args.out}")
    return 0


def _cmd_revolution(args) -> int:
    # a config file's profile bypasses argparse's choices check
    if args.profile not in _revolution.PROFILES:
        raise ConfigError(f"unknown profile {args.profile!r}")
    param = {"cylinder": args.radius, "sine": args.offset, "polynomial": args.coeffs}
    surf = _revolution.PROFILES[args.profile](param[args.profile])
    run = _revolution.integrate_revolution_geodesic(
        surf, args.x0, args.v0, args.length,
        record_every=args.record_every,
    )
    rows = []
    for s in run.states:
        cr = _revolution.cross_ratio(surf, s.x, s.v)
        inv = _revolution.clairaut_invariant(surf, s.x, s.v)
        m = _revolution.angular_momentum(s.x, s.v)
        rows.append([s.t, *s.x, *s.v, cr, inv, m])
    _output.write_csv(
        args.out,
        ["t", "x", "y", "z", "vx", "vy", "vz", "cr", "invariant", "m"],
        rows,
    )
    print(f"{len(run.states)} states, status={run.status} -> {args.out}")
    return 0


def _cmd_diameters(args) -> int:
    metric = Metric.diagonal(args.signs)
    diams = _variational.find_diameters(
        metric, args.axes, n_random_starts=args.starts, seed=args.seed
    )
    n = metric.n
    header = (
        [f"x{i}" for i in range(n)]
        + [f"y{i}" for i in range(n)]
        + ["causal", "f_value"]
    )
    rows = [[*d.x, *d.y, d.causal.value, d.f_value] for d in diams]
    _output.write_csv(args.out, header, rows)
    k, l = metric.signature
    space = sum(1 for d in diams if d.f_value > 0)
    time = sum(1 for d in diams if d.f_value < 0)
    print(
        f"{len(diams)} diameters ({space} space-like >= {k}, "
        f"{time} time-like >= {l}) -> {args.out}"
    )
    return 0


def _cmd_caustic(args) -> int:
    metric = Metric.diagonal([1.0, -1.0])
    boundary = _billiard.QuadricBoundary(metric, [1.0, 1.0])
    sing = {0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi}
    ts = np.array(
        [t for t in np.linspace(0.0, 2 * np.pi, args.grid, endpoint=False)
         if min(abs(t - s) for s in sing) > 0.02]
    )
    curve = lambda t: np.array([np.cos(t), np.sin(t)])
    env = _variational.envelope_of_normals(boundary, curve, ts)
    _output.write_csv(
        args.out_csv, ["t", "x", "y"], [[t, p[0], p[1]] for t, p in zip(ts, env)]
    )
    canvas = _output.SvgCanvas(world=(-2.4, 2.4, -2.4, 2.4))
    canvas.circle((0.0, 0.0), 1.0, stroke="black")
    for t in ts[:: max(1, len(ts) // 48)]:
        q = curve(t)
        nu = _billiard.normal_at(boundary, q)
        nu = nu / max(float(np.linalg.norm(nu)), 1e-300)
        canvas.polyline(
            [tuple(q - 3.0 * nu), tuple(q + 3.0 * nu)], stroke="#bbbbbb", width=0.4
        )
    canvas.polyline([tuple(p) for p in env], stroke="#cc3333", width=1.2)
    canvas.save(args.out_svg)
    print(f"caustic -> {args.out_csv}, {args.out_svg}")
    return 0


def _cmd_eigen_sweep(args) -> int:
    r2s = np.geomspace(args.r2_min, args.r2_max, args.count)
    small, large = _lines.omega3_eigen_scaling(args.phi, r2s)
    _output.write_csv(
        args.out,
        ["r2", "pair_small", "pair_large"],
        [[r, s, l] for r, s, l in zip(r2s, small, large)],
    )
    s_small = _lines.loglog_slope(r2s, small)
    s_large = _lines.loglog_slope(r2s, large)
    print(
        f"slopes: small pair {s_small:+.4f}, large pair {s_large:+.4f} -> {args.out}"
    )
    return 0


def _cmd_checks(args) -> int:
    failures = []

    def check(name, value, tol):
        ok = value <= tol
        print(f"[{'pass' if ok else 'FAIL'}] {name}: {value:.3e} (tol {tol:.0e})")
        if not ok:
            failures.append(name)

    # reflection conserves the scalar square
    metric = Metric.from_signature(1, 1)
    boundary = _billiard.QuadricBoundary.from_semi_axes(metric, [2.0, 1.0])
    traj = _billiard.iterate(boundary, [0.1, 0.0], [0.43, 0.17], 50)
    drift = max(
        abs(r.energy - metric.norm2(r.incoming))
        / _billiard.reflection_scale(metric, r.incoming, r.normal)
        for r in traj.records
    )
    check("billiard energy drift (scaled)", drift, 1e-12)
    harm = max(abs(r.harmonic) for r in traj.records)
    check("harmonic quadruple defect", harm, 1e-10)

    # the circle-billiard integral is conserved along orbits
    chords = _circle.orbit(_circle.ChordCoords(0.3, 1.9), 50)
    i_vals = [_circle.integral_I(c) for c in chords]
    check("circle integral drift", max(i_vals) - min(i_vals), 1e-9)

    # confocal point counts over a random scan
    family = _confocal.ConfocalFamily(axes_sq=(2.0, 1.0), signs=(1, -1))
    rng = np.random.default_rng(args.seed)
    bad = 0
    for _ in range(200):
        pt = rng.uniform(-3, 3, size=2)
        coords = _confocal.quadrics_through_point(family, pt)
        if coords.degenerate:
            continue
        if coords.count not in _confocal.expected_point_counts(2):
            bad += 1
    check("confocal point-count violations", float(bad), 0.0)

    # Clairaut invariant along a geodesic
    surf = _revolution.sine_profile(2.0)
    x0 = [3.0 * np.cos(0.2), 3.0 * np.sin(0.2), 0.5 * np.pi]
    run = _revolution.integrate_revolution_geodesic(surf, x0, [0.0, 1.0, 0.3], 5.0)
    inv = [_revolution.clairaut_invariant(surf, s.x, s.v) for s in run.states]
    check("revolution invariant drift", max(inv) - min(inv), 1e-7)

    if failures:
        print(f"{len(failures)} check(s) failed", file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


# -- parser -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises every command-line mistake (a bad
    value, an unrecognized or missing argument) as `argparse.ArgumentError`
    instead of printing the usage and exiting, so `main` reports them all
    as config errors.  Subparsers inherit the class."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lorentzbilliards",
        description="Pseudo-Euclidean billiards, geodesics and confocal quadrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, seeded=False, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--config", default=None, help="key=value config file")
        if seeded:
            p.add_argument("--seed", type=int, default=20260824, help="64-bit RNG seed")
        p.set_defaults(func=func, parser=p)
        return p

    p = add("billiard", _cmd_billiard, help="iterate a billiard trajectory to CSV")
    p.add_argument("--signs", type=_floats, default="1,-1")
    p.add_argument("--axes", type=_floats, default="2,1")
    p.add_argument("--start", type=_floats, default="0.1,0")
    p.add_argument("--direction", type=_floats, default="0.43,0.17")
    p.add_argument("--bounces", type=int, default=100)
    p.add_argument("--out", default="billiard.csv")

    p = add("circle-phase", _cmd_circle_phase, help="circle-billiard phase portrait")
    p.add_argument("--grid", type=int, default=200)
    p.add_argument("--orbit-len", type=int, default=60)
    p.add_argument("--out-csv", default="circle_phase.csv")
    p.add_argument("--out-svg", default="circle_phase.svg")
    p.add_argument("--out-orbit-svg", default="circle_orbit.svg")

    p = add("confocal-count", _cmd_confocal_count, help="partition raster of member counts")
    p.add_argument("--a", type=_floats, default="2,1")
    p.add_argument("--signs", type=_ints, default="1,-1")
    p.add_argument("--window", type=float, default=3.0)
    p.add_argument("--grid", type=int, default=120)
    p.add_argument("--out-csv", default="confocal_count.csv")
    p.add_argument("--out-svg", default="confocal_count.svg")

    p = add("geodesic", _cmd_geodesic, help="quadric geodesic with first integrals")
    p.add_argument("--axes-sq", type=_floats, default="3,2,1")
    p.add_argument("--signs", type=_ints, default="1,1,-1")
    p.add_argument("--x0", type=_floats, default="1.7320508075688772,0,0")
    p.add_argument("--v0", type=_floats, default="0,1,0.2")
    p.add_argument("--length", type=float, default=10.0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--record-every", type=int, default=5)
    p.add_argument("--out", default="geodesic.csv")

    p = add("revolution", _cmd_revolution, help="geodesic on a Lorentz surface of revolution")
    p.add_argument("--profile", default="sine", choices=sorted(_revolution.PROFILES))
    p.add_argument("--offset", type=float, default=2.0)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--coeffs", type=_floats, default="2,0,0.1")
    p.add_argument("--x0", type=_floats, default="3,0,1.5707963267948966")
    p.add_argument("--v0", type=_floats, default="0,1,0.3")
    p.add_argument("--length", type=float, default=5.0)
    p.add_argument("--record-every", type=int, default=5)
    p.add_argument("--out", default="revolution.csv")

    p = add("diameters", _cmd_diameters, seeded=True, help="critical chords of an ellipsoid")
    p.add_argument("--signs", type=_ints, default="1,-1")
    p.add_argument("--axes", type=_floats, default="2,1")
    p.add_argument("--starts", type=int, default=50)
    p.add_argument("--out", default="diameters.csv")

    p = add("caustic", _cmd_caustic, help="envelope of normals of the unit circle")
    p.add_argument("--grid", type=int, default=720)
    p.add_argument("--out-csv", default="caustic.csv")
    p.add_argument("--out-svg", default="caustic.svg")

    p = add("eigen-sweep", _cmd_eigen_sweep, help="line-space 2-form eigenvalue blow-up")
    p.add_argument("--phi", type=float, default=1.0)
    p.add_argument("--r2-min", type=float, default=1.0)
    p.add_argument("--r2-max", type=float, default=1e4)
    p.add_argument("--count", type=int, default=40)
    p.add_argument("--out", default="eigen_sweep.csv")

    add("checks", _cmd_checks, seeded=True, help="run the invariant suite")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            _config_defaults(args.parser, args.config)
            args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, argparse.ArgumentError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (LorentzBilliardError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
