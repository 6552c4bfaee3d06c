"""Randomized property tests for the metric and blend invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kinlang.coupling import CouplingControl, rc_value, sc_value
from kinlang.metrics import GroundMetric

finite = st.floats(min_value=-50.0, max_value=50.0,
                   allow_nan=False, allow_infinity=False)
point = st.tuples(finite, finite)


def _metrics(spec, mc):
    return [GroundMetric.from_constants(spec, mc, k)
            for k in ("r_strong", "r_l", "r_s", "rho")]


def _dist(m, p, q):
    """Distance under ``m`` of the 1-d phase points ``p`` and ``q``."""
    return float(m.dist_zw(np.array([p[0] - q[0]]), np.array([p[1] - q[1]])))


@settings(max_examples=200, deadline=None)
@given(a=point, b=point, c=point)
def test_triangle_inequality_all_kinds(a, b, c, dw_spec, dw_constants):
    for m in _metrics(dw_spec, dw_constants):
        ab, bc, ac = _dist(m, a, b), _dist(m, b, c), _dist(m, a, c)
        scale = max(ab, bc, ac, 1.0)
        assert ac <= ab + bc + 1e-10 * scale


@settings(max_examples=200, deadline=None)
@given(a=point, b=point)
def test_symmetry_and_identity(a, b, dw_spec, dw_constants):
    for m in _metrics(dw_spec, dw_constants):
        assert _dist(m, a, a) == 0.0
        d1, d2 = _dist(m, a, b), _dist(m, b, a)
        assert abs(d1 - d2) <= 1e-12 * max(d1, 1.0)


@settings(max_examples=200, deadline=None)
@given(z=finite, w=finite)
def test_norm_equivalence_chain(z, w, dw_spec, dw_constants):
    mc = dw_constants
    zz = np.array([[z]])
    ww = np.array([[w]])
    rl = float(GroundMetric.from_constants(dw_spec, mc, "r_l").dist_zw(zz, ww)[0])
    rs = float(GroundMetric.from_constants(dw_spec, mc, "r_s").dist_zw(zz, ww)[0])
    pad = 1e-12 * max(rl, rs, 1.0)
    assert 2 * mc.eps * rl <= rs + pad
    assert mc.ratio_floor * rs <= rl + pad


@settings(max_examples=200, deadline=None)
@given(z=finite, w=finite, xi=st.floats(min_value=1e-6, max_value=1.0))
def test_blend_partition_of_unity(z, w, xi, dw_spec, dw_constants):
    control = CouplingControl(mode="reflection_mix", xi=xi)
    rc = rc_value(control, dw_spec, dw_constants, np.array([[z]]), np.array([[w]]))
    sc = sc_value(rc)
    assert 0.0 <= rc[0] <= 1.0
    assert abs(rc[0] ** 2 + sc[0] ** 2 - 1.0) <= 1e-12
