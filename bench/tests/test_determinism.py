"""The same seed gives the same inputs and the same exact counts."""
from pathlib import Path

import pytest

import harness

ROOT = Path(__file__).resolve().parents[2]
EXACT = (
    "surface_flow.rhs_evals_per_length",
    "metric.as_vector_calls_per_bounce",
    "billiard.boundary_evals_per_hit",
    "output.bytes_written",
)


@pytest.mark.parametrize("workload", ["orbits", "scan", "geodesics", "cli"])
def test_same_seed_same_inputs(workload):
    a = harness.Run(ROOT, workload, 11)
    b = harness.Run(ROOT, workload, 11)
    c = harness.Run(ROOT, workload, 12)
    assert a.input_digest() == b.input_digest()
    assert a.input_digest() != c.input_digest()


def _short_trace(seed):
    run = harness.Run(ROOT, "scan", seed)
    for phase in run.phases:
        run.phases[phase] = run.phases[phase][:1]
    run.warm_up()
    try:
        return run, run.trace()
    finally:
        run.cleanup()


def test_same_seed_same_exact_counts():
    run1, first = _short_trace(3)
    run2, second = _short_trace(3)
    assert run1.failed == 0 and run2.failed == 0, run1.failures + run2.failures
    for name in EXACT:
        assert first[name][0] == second[name][0], name
