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
    polys = []
    nv = n_unknowns + n_params
    for _ in range(n_eqs):
        terms = {}
        for _ in range(6):
            expo = tuple(int(e) for e in rng.integers(0, degree, size=nv))
            terms[expo] = complex(rng.standard_normal(), rng.standard_normal())
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
    tang = sys_.param_tangent(x, p, dp)
    h = 1e-7
    fd = (sys_.evaluate(x, p + h * dp) - sys_.evaluate(x, p - h * dp)) / (2 * h)
    assert np.max(np.abs(fd - tang)) < 1e-5 * (1 + np.max(np.abs(tang)))


def test_scaled_residual_zero_at_root():
    x = MPoly.variable(1, 0)
    sys_ = PolySystem([x * x - 4.0], num_unknowns=1, num_params=0)
    assert sys_.scaled_residual([2.0]) < 1e-15
    assert sys_.scaled_residual([2.1]) > 1e-3

