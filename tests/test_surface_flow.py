"""The DOP853 tableau of the geodesic integrator, against the order
conditions its literals must meet."""
import numpy as np
import pytest

from lorentzbilliards import surface_flow

# the nodes c_i of Dormand-Prince 8(5,3) in closed form
_C4 = (6.0 - np.sqrt(6.0)) / 30.0
_C = [0.0, 4.0 / 9.0 * _C4, 2.0 / 3.0 * _C4, _C4, (6.0 + np.sqrt(6.0)) / 30.0, 1.0 / 3.0, 0.25,
      4.0 / 13.0, 127.0 / 195.0, 0.6, 6.0 / 7.0, 1.0]


def test_stage_rows_sum_to_the_nodes():
    rows = surface_flow._DOP_A
    assert [len(row) for row in rows] == list(range(1, 12))
    for row, c in zip(rows, _C[1:]):
        assert row.sum() == pytest.approx(c, rel=0.0, abs=1e-14)


@pytest.mark.parametrize("k", range(1, 9))
def test_weights_meet_the_quadrature_conditions(k):
    # sum_i b_i c_i^(k-1) = 1/k up to order 8
    b = surface_flow._DOP_B
    assert float(b @ np.array(_C) ** (k - 1)) == pytest.approx(1.0 / k, rel=0.0, abs=1e-14)


def test_error_weights_sum_to_zero():
    e5, e3 = surface_flow._DOP_E
    assert abs(e5.sum()) <= 1e-14
    assert abs(e3.sum()) <= 1e-14
