"""Polynomial arithmetic and system evaluation."""

import math

import numpy as np
import pytest

from tensorid.poly import (
    DimensionMismatchError,
    MPoly,
    PolySystem,
    monomials,
    multinomial,
)
from tensorid.waring import WaringSpec, build_system


def test_multinomial_values():
    assert multinomial((0, 0)) == 1
    assert multinomial((1, 1, 1)) == 6
    assert multinomial((7, 0, 0)) == 1
    assert multinomial((3, 2, 2)) == math.factorial(7) // (6 * 2 * 2)


def test_monomials_counts_and_order():
    mons = monomials(3, 7)
    assert len(mons) == math.comb(9, 7) == 36
    # graded-lex descending: first is x0^7, last is x2^7
    assert mons[0] == (7, 0, 0)
    assert mons[-1] == (0, 0, 7)
    assert mons == sorted(mons, reverse=True)


def test_mpoly_arithmetic_roundtrip():
    x = MPoly.variable(2, 0)
    y = MPoly.variable(2, 1)
    p = (x + 2 * y) * (x - 2 * y)
    assert p.terms == {(2, 0): 1.0 + 0j, (0, 2): -4.0 + 0j}
    q = p - p
    assert q.terms == {}


def test_mpoly_evaluate_matches_hand_value():
    x = MPoly.variable(2, 0)
    y = MPoly.variable(2, 1)
    p = 3 * x * x * y + 1.5
    val = p.evaluate([2.0, -1.0 + 1j])
    assert val == pytest.approx(3 * 4 * (-1 + 1j) + 1.5)


def test_mpoly_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        MPoly(2, {(1, 0, 0): 1.0})
    with pytest.raises(DimensionMismatchError):
        MPoly.variable(2, 0) + MPoly.variable(3, 0)


def _random_parametric_system(rng, n_unknowns=3, n_params=2, n_eqs=3, degree=3):
    """Random system linear in its parameters: each term has random unknown
    exponents and at most one parameter, to the first power."""
    polys = []
    nv = n_unknowns + n_params
    for _ in range(n_eqs):
        terms = {}
        for _ in range(6):
            pexp = [0] * n_params
            k = int(rng.integers(-1, n_params))
            if k >= 0:
                pexp[k] = 1
            mono = rng.integers(0, degree, size=n_unknowns)
            terms[tuple(int(e) for e in mono) + tuple(pexp)] = complex(
                rng.standard_normal(), rng.standard_normal()
            )
        polys.append(MPoly(nv, terms))
    return PolySystem(polys, num_unknowns=n_unknowns, num_params=n_params)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(3)
    sys_ = _random_parametric_system(rng)
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    p = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    jac = sys_.jacobian(x, p)
    h = 1e-6
    for k in range(3):
        e = np.zeros(3, dtype=complex)
        e[k] = h
        fd = (sys_.evaluate(x + e, p) - sys_.evaluate(x - e, p)) / (2 * h)
        denom = 1.0 + np.abs(jac[:, k])
        assert np.max(np.abs(fd - jac[:, k]) / denom) < 1e-5


def test_param_tangent_matches_finite_differences():
    rng = np.random.default_rng(4)
    sys_ = _random_parametric_system(rng)
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    p = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    dp = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    tang = sys_.param_tangent(x, dp)
    h = 1e-7
    fd = (sys_.evaluate(x, p + h * dp) - sys_.evaluate(x, p - h * dp)) / (2 * h)
    assert np.max(np.abs(fd - tang)) < 1e-5 * (1 + np.max(np.abs(tang)))


def test_scaled_residual_zero_at_root():
    x = MPoly.variable(1, 0)
    sys_ = PolySystem([x * x - 4.0], num_unknowns=1, num_params=0)
    assert sys_.scaled_residual([2.0]) < 1e-15
    assert sys_.scaled_residual([2.1]) > 1e-3


def test_polysystem_matches_mpoly_with_zero_and_parameter_rows():
    # unknowns x, y; parameters p, q
    x, y, p, q = (MPoly.variable(4, i) for i in range(4))
    polys = [x * x * y * p - 3.0 * y + q + 2.0, x - x, 2.0 * q, x * y]
    sys_ = PolySystem(polys, num_unknowns=2, num_params=2)
    rng = np.random.default_rng(5)
    pt = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    par = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    vals, scales, jac = sys_.full_state(pt, par)
    want = np.array([f.evaluate([*pt, *par]) for f in polys])
    assert np.allclose(vals, want, rtol=1e-14, atol=1e-14)
    # the zero row is an empty segment of every table
    assert vals[1] == 0 and scales[1] == 0
    assert np.all(jac[1] == 0)
    assert jac.shape == (4, 2)
    assert np.all(jac[2] == 0)
    h = 1e-6
    for k in range(2):
        e = np.zeros(2, dtype=complex)
        e[k] = h
        fd = (sys_.evaluate(pt + e, par) - sys_.evaluate(pt - e, par)) / (2 * h)
        assert np.max(np.abs(fd - jac[:, k])) < 1e-6 * (1 + np.max(np.abs(jac)))
    dp = np.array([1.0 - 2.0j, 0.5j])
    tang = sys_.param_tangent(pt, dp)
    assert np.allclose(tang, [pt[0] ** 2 * pt[1] * dp[0] + dp[1], 0, 2 * dp[1], 0])


def test_polysystem_rejects_nonlinear_parameters():
    x, p = MPoly.variable(2, 0), MPoly.variable(2, 1)
    with pytest.raises(ValueError, match=r"\(1, 2\)"):
        PolySystem([x * p * p - 1.0], num_unknowns=1, num_params=1)


@pytest.mark.parametrize("dnr", [(7, 2, 12), (5, 1, 3)])
def test_waring(dnr):
    """The Waring system is p - V(x), so its parameter tangent is dp exactly."""
    spec = WaringSpec(*dnr)
    sys_ = build_system(spec)
    rng = np.random.default_rng(6)
    x, _, dp = (
        rng.standard_normal(m) + 1j * rng.standard_normal(m)
        for m in (spec.num_unknowns, spec.num_coeffs, spec.num_coeffs)
    )
    assert np.array_equal(sys_.param_tangent(x, dp), dp)
