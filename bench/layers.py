"""Which library functions the traced run wraps, and the per-layer metrics
computed from the spans and from the operations' outcomes.

Span names are `<layer>.<function>`; a layer's self time is the summed self
time of the spans whose name starts with the layer.  `scipy.optimize.brentq`
is counted in the circle layer, since only `circle.point_on_level` calls it.
"""
from __future__ import annotations

import dataclasses

import numpy as np
import scipy.optimize

from lorentzbilliards import (
    billiard,
    circle,
    confocal,
    lines,
    metric,
    output,
    quadric_flow,
    revolution,
    surface_flow,
    variational,
)
from tracer import SpanTable, Tracer

PACKAGE = ("lorentzbilliards",)

FUNCTIONS = [
    (billiard, ["reflect", "normal_at", "is_singular", "iterate"]),
    (circle, ["circle_map", "orbit", "point_on_level"]),
    (confocal, [
        "point_polynomial", "line_tangency_polynomial", "real_roots",
        "quadrics_through_point", "tangent_spectrum_of_line",
    ]),
    (surface_flow, ["integrate_geodesic"]),
    (quadric_flow, [
        "integrate_quadric_geodesic", "integrals_F", "joachimsthal",
        "tangency_spectra", "billiard_in_quadric",
    ]),
    (revolution, ["integrate_revolution_geodesic", "clairaut_invariant"]),
    (variational, ["find_diameters", "envelope_of_normals"]),
    (lines, ["omega3_eigen_scaling"]),
    (output, ["write_csv"]),
]
METHODS = [
    ("metric", metric.Metric, ["inner", "norm2", "flat", "sharp", "classify", "decompose", "unit"]),
    ("billiard", billiard.QuadricBoundary, ["value", "gradient"]),
    ("billiard", billiard.ImplicitBoundary, ["value", "gradient"]),
    ("surface_flow", surface_flow.ImplicitSurface, ["project", "singular_measure"]),
    ("output", output.SvgCanvas, ["save"]),
]


def _boundary_kind(boundary, *args, **kwargs) -> str:
    return "quadric" if isinstance(boundary, billiard.QuadricBoundary) else "bracketed"


def _surface_kind(surface, *args, **kwargs) -> str:
    return type(surface).__module__.rsplit(".", 1)[-1]


def install(tracer: Tracer, geo: dict) -> dict:
    """Wrap the layers' public functions and methods (in every module that
    binds them) and swap the revolution profiles for counting copies.
    Returns the original profiles for `uninstall`."""
    tracer.patch_everywhere(metric.as_vector, "metric.as_vector", PACKAGE)
    tracer.patch_everywhere(metric.cross2, "metric.cross2", PACKAGE)
    tracer.patch_everywhere(billiard.next_hit, "billiard.next_hit", PACKAGE, _boundary_kind)
    tracer.patch(surface_flow.ImplicitSurface, "acceleration", "surface_flow.acceleration", _surface_kind)
    tracer.patch(scipy.optimize, "brentq", "circle.brentq")
    for module, names in FUNCTIONS:
        layer = module.__name__.rsplit(".", 1)[-1]
        for name in names:
            tracer.patch_everywhere(getattr(module, name), f"{layer}.{name}", PACKAGE)
    for layer, cls, names in METHODS:
        for name in names:
            tracer.patch(cls, name, f"{layer}.{cls.__name__}.{name}")
    sample = geo["quadric3"].surface()
    for name in ("value", "gradient", "hessian_quad"):
        tracer.patch(type(sample), name, f"quadric_flow.surface.{name}")
    profiles = geo["profiles"]
    originals = dict(profiles)
    for key, s in originals.items():
        profiles[key] = dataclasses.replace(
            s,
            f=tracer.wrap("revolution.profile", s.f),
            df=tracer.wrap("revolution.profile", s.df),
            d2f=tracer.wrap("revolution.profile", s.d2f),
        )
    return originals


def uninstall(tracer: Tracer, geo: dict, originals: dict) -> None:
    tracer.restore()
    geo["profiles"].update(originals)


def _ratio(num: float, den: float) -> float:
    if den == 0:
        raise ValueError("per-layer ratio with an empty base")
    return float(num) / float(den)


class LayerView:
    """Span queries restricted to the ops of one phase or of all phases."""

    def __init__(self, table: SpanTable, op_phase: list[str]):
        self.t = table
        # spans recorded outside any op carry op id -1, which picks the ""
        self.phase_of_span = np.asarray(op_phase + [""], dtype=object)[table.op]

    def mask(self, name: str, phase=None, under=None) -> np.ndarray:
        m = self.t.select(name)
        if phase is not None:
            m &= self.phase_of_span == phase
        if under is not None:
            m &= self.t.under(under)
        return m

    def calls(self, name, phase=None, under=None) -> int:
        return int(self.mask(name, phase, under).sum())

    def mean_us(self, name, phase=None, own=False) -> float:
        m = self.mask(name, phase)
        times = self.t.self_time if own else self.t.dur
        return _ratio(times[m].sum() * 1e6, m.sum())

    def self_s(self, prefix, phase=None) -> float:
        return float(self.t.self_time[self.mask(prefix, phase)].sum())


def metrics(view: LayerView, facts: dict, traced_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as (value, unit).  `facts[phase]` holds the
    summed counts and worst residuals of that phase's traced ops;
    `traced_s` is the wall time of all traced in-process passes."""
    c = {p: f["counts"] for p, f in facts.items()}
    worst = {p: f["worst"] for p, f in facts.items()}
    q, imp, geo = c["quadric"], c["implicit"], c["geodesic"]
    metric_calls = "metric.Metric"
    out = {}

    bounces = q["bounces"]
    out["metric.calls_per_bounce"] = (_ratio(view.calls(metric_calls, "quadric"), bounces), "count")
    out["metric.as_vector_calls_per_bounce"] = (
        _ratio(view.calls("metric.as_vector", "quadric"), bounces), "count")
    rhs = view.calls("surface_flow.acceleration", "geodesic")
    out["metric.calls_per_rhs_eval"] = (
        _ratio(view.calls(metric_calls, "geodesic", under="surface_flow.acceleration"), rhs), "count")
    out["metric.self_share"] = (_ratio(view.self_s("metric"), traced_s), "ratio")

    out["billiard.next_hit_us.quadric"] = (view.mean_us("billiard.next_hit.quadric"), "us")
    out["billiard.next_hit_us.bracketed"] = (view.mean_us("billiard.next_hit.bracketed"), "us")
    out["billiard.reflect_us"] = (view.mean_us("billiard.reflect"), "us")
    iterate_self = sum(view.self_s("billiard.iterate", p) for p in ("quadric", "implicit"))
    out["billiard.iterate_self_us_per_bounce"] = (
        _ratio(iterate_self * 1e6, bounces + imp["bounces"]), "us")
    out["billiard.boundary_evals_per_hit"] = (
        _ratio(view.calls("billiard.ImplicitBoundary.value", "implicit", under="billiard.next_hit.bracketed"),
               view.calls("billiard.next_hit.bracketed", "implicit")), "count")
    runs = q["runs"] + imp["runs"]
    out["billiard.completed_share"] = (
        _ratio(q.get("stops.ok", 0) + imp.get("stops.ok", 0), runs), "ratio")
    for stop, status in (("escaped", "escaped"), ("grazed", "grazed"), ("singular", "stopped_singular")):
        key = f"stops.{status}"
        out[f"billiard.stops.{stop}"] = (q.get(key, 0) + imp.get(key, 0), "count")

    out["circle.map_us"] = (view.mean_us("circle.circle_map"), "us")
    out["circle.point_on_level_us"] = (view.mean_us("circle.point_on_level"), "us")
    out["circle.brentq_us"] = (view.mean_us("circle.brentq"), "us")
    out["circle.level_scan_us"] = (view.mean_us("circle.point_on_level", own=True), "us")
    out["circle.no_chord_share"] = (_ratio(c["levels"].get("no_chord", 0), c["levels"]["levels"]), "ratio")

    pts, lns = c["points"], c["lines"]
    out["confocal.assembly_us.point"] = (view.mean_us("confocal.point_polynomial"), "us")
    out["confocal.assembly_us.line"] = (view.mean_us("confocal.line_tangency_polynomial"), "us")
    out["confocal.roots_us"] = (view.mean_us("confocal.real_roots"), "us")
    out["confocal.count_self_us.point"] = (view.mean_us("confocal.quadrics_through_point", own=True), "us")
    out["confocal.count_self_us.line"] = (view.mean_us("confocal.tangent_spectrum_of_line", own=True), "us")
    out["confocal.degenerate_share.point"] = (_ratio(pts.get("points.degenerate", 0), pts["points"]), "ratio")
    out["confocal.degenerate_share.line"] = (_ratio(lns.get("lines.degenerate", 0), lns["lines"]), "ratio")
    out["confocal.infinite_share.line"] = (_ratio(lns.get("lines.infinite", 0), lns["lines"]), "ratio")
    out["confocal.pole_drops"] = (pts.get("pole_drops", 0) + lns.get("pole_drops", 0), "count")
    out["confocal.count_violations"] = (
        pts.get("count_violations", 0) + lns.get("count_violations", 0), "count")

    length = geo["length"]
    projections = view.calls("surface_flow.ImplicitSurface.project", "geodesic")
    steps = view.calls("surface_flow.ImplicitSurface.project", "geodesic", under="surface_flow.integrate_geodesic") \
        - view.calls("surface_flow.integrate_geodesic", "geodesic")
    out["surface_flow.rhs_evals_per_length"] = (_ratio(rhs, length), "1/length")
    out["surface_flow.projections_per_length"] = (_ratio(projections, length), "1/length")
    out["surface_flow.singular_measure_calls_per_step"] = (
        _ratio(view.calls("surface_flow.ImplicitSurface.singular_measure", "geodesic"), steps), "count")
    out["surface_flow.rhs_us"] = (view.mean_us("surface_flow.acceleration", "geodesic"), "us")
    out["surface_flow.project_us"] = (view.mean_us("surface_flow.ImplicitSurface.project", "geodesic"), "us")
    out["surface_flow.self_share"] = (_ratio(view.self_s("surface_flow"), traced_s), "ratio")
    out["surface_flow.tropic_share"] = (_ratio(geo.get("tropic", 0), geo["runs"]), "ratio")
    out["surface_flow.underflows"] = (geo.get("underflows", 0), "count")

    gw = worst["geodesic"]
    out["quadric_flow.integrals_us"] = (view.mean_us("quadric_flow.integrals_F"), "us")
    out["quadric_flow.max_F_drift"] = (gw["F_drift"], "residual")
    out["quadric_flow.max_J_drift"] = (gw["J_drift"], "residual")
    out["quadric_flow.spectrum_spread"] = (gw["spectrum_spread"], "residual")
    out["revolution.profile_evals_per_rhs"] = (
        _ratio(view.calls("revolution.profile", "geodesic", under="surface_flow.acceleration.revolution"),
               view.calls("surface_flow.acceleration.revolution", "geodesic")), "count")
    out["revolution.max_invariant_drift"] = (gw["clairaut"], "residual")

    out["variational.diameters_s"] = (view.mean_us("variational.find_diameters", "cli") * 1e-6, "s")
    out["variational.envelope_us"] = (view.mean_us("variational.envelope_of_normals", "cli"), "us")
    out["lines.eigen_sweep_us"] = (view.mean_us("lines.omega3_eigen_scaling", "cli"), "us")
    out["output.write_s"] = (float(view.t.dur[view.mask("output", "cli")].sum()), "s")
    out["output.bytes_written"] = (c["cli"]["bytes_written"], "bytes")
    return out
