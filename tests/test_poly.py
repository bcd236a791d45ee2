"""Monomial bases and system evaluation."""

import math

import numpy as np
import pytest

from tensorid.poly import (
    DimensionMismatchError,
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


def _evaluate(rows, x, p):
    """Each term row summed in Python scalars, term by term, as
    coeff * x^m * p_k; independent of the term tables."""
    out = []
    for row in rows:
        total = 0j
        for c, mono, k in row:
            term = complex(c) * (complex(p[k]) if k >= 0 else 1.0)
            for v, e in zip(x, mono):
                term *= complex(v) ** e
            total += term
        out.append(total)
    return np.array(out)


def _random_parametric_system(rng, n_unknowns=3, n_params=2, n_eqs=3, degree=3):
    """Random term rows: each term has random unknown exponents and at most
    one parameter.  Returns the PolySystem and its rows."""
    rows = []
    for _ in range(n_eqs):
        row = []
        for _ in range(6):
            k = int(rng.integers(-1, n_params))
            mono = tuple(int(e) for e in rng.integers(0, degree, size=n_unknowns))
            row.append((complex(rng.standard_normal(), rng.standard_normal()), mono, k))
        rows.append(row)
    sys_ = PolySystem(rows, num_unknowns=n_unknowns, num_params=n_params)
    return sys_, rows


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(3)
    sys_, rows = _random_parametric_system(rng)
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    p = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    vals, _, jac = sys_.full_state(x, p)
    assert np.allclose(vals, _evaluate(rows, x, p), rtol=1e-14, atol=1e-14)
    h = 1e-6
    for k in range(3):
        e = np.zeros(3, dtype=complex)
        e[k] = h
        fd = (_evaluate(rows, x + e, p) - _evaluate(rows, x - e, p)) / (2 * h)
        denom = 1.0 + np.abs(jac[:, k])
        assert np.max(np.abs(fd - jac[:, k]) / denom) < 1e-5


def test_param_tangent_matches_finite_differences():
    rng = np.random.default_rng(4)
    sys_, rows = _random_parametric_system(rng)
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    p = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    dp = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    tang = sys_.param_tangent(x, dp)
    h = 1e-7
    fd = (_evaluate(rows, x, p + h * dp) - _evaluate(rows, x, p - h * dp)) / (2 * h)
    assert np.max(np.abs(fd - tang)) < 1e-5 * (1 + np.max(np.abs(tang)))


def test_scaled_residual_zero_at_root():
    sys_ = PolySystem([[(1.0, (2,), -1), (-4.0, (0,), -1)]], num_unknowns=1, num_params=0)

    def scaled_residual(x):
        vals, scales, _ = sys_.full_state(x)
        return float(np.max(np.abs(vals) / (1.0 + scales)))

    assert scaled_residual([2.0]) < 1e-15
    assert scaled_residual([2.1]) > 1e-3


def test_polysystem_matches_scalar_sums_with_zero_and_parameter_rows():
    # unknowns x, y; parameters p, q: x^2 y p - 3 y + q + 2, 0, 2 q, x y
    rows = [
        [(1.0, (2, 1), 0), (-3.0, (0, 1), -1), (1.0, (0, 0), 1), (2.0, (0, 0), -1)],
        [],
        [(2.0, (0, 0), 1)],
        [(1.0, (1, 1), -1)],
    ]
    sys_ = PolySystem(rows, num_unknowns=2, num_params=2)
    rng = np.random.default_rng(5)
    pt = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    par = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    vals, scales, jac = sys_.full_state(pt, par)
    want = _evaluate(rows, pt, par)
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
        fd = (sys_.full_state(pt + e, par)[0] - sys_.full_state(pt - e, par)[0]) / (2 * h)
        assert np.max(np.abs(fd - jac[:, k])) < 1e-6 * (1 + np.max(np.abs(jac)))
    dp = np.array([1.0 - 2.0j, 0.5j])
    tang = sys_.param_tangent(pt, dp)
    assert np.allclose(tang, [pt[0] ** 2 * pt[1] * dp[0] + dp[1], 0, 2 * dp[1], 0])


def test_polysystem_rejects_malformed_terms():
    with pytest.raises(DimensionMismatchError, match=r"\(1, 0\) has 2 entries"):
        PolySystem([[(1.0, (1, 0), -1)]], num_unknowns=1, num_params=1)
    for k in (1, -2):
        with pytest.raises(DimensionMismatchError, match=f"parameter index {k}"):
            PolySystem([[(1.0, (1,), k)]], num_unknowns=1, num_params=1)


def test_polysystem_sorts_rows_by_exponent():
    rng = np.random.default_rng(7)
    row = [
        (complex(*rng.standard_normal(2)), mono, k)
        for mono, k in (((0, 2), 0), ((1, 1), -1), ((2, 0), 1), ((0, 0), -1), ((1, 0), 0))
    ]
    given = PolySystem([row, row[::-1]], num_unknowns=2, num_params=2)
    ordered = PolySystem([sorted(row, key=lambda t: t[1])] * 2, num_unknowns=2, num_params=2)
    x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    p, dp = (rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(2))
    vals, scales, _ = given.full_state(x, p)
    want_vals, want_scales, _ = ordered.full_state(x, p)
    assert np.array_equal(vals, want_vals) and np.array_equal(scales, want_scales)
    assert vals[0] == vals[1]
    assert np.array_equal(given.param_tangent(x, dp), ordered.param_tangent(x, dp))


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


@pytest.mark.parametrize("dnr", [(7, 2, 12), (8, 2, 15), (5, 1, 3)])
def test_waring_jacobian_closed_form(dnr):
    """Every Waring Jacobian cell is one term: with unknowns (l^i, lambda_i)
    per summand, J[alpha, lambda_i] = -mult(alpha) l_i^alpha' and
    J[alpha, l_ih] = -mult(alpha) alpha_h lambda_i l_i^(alpha' - e_h)."""
    spec = WaringSpec(*dnr)
    n = spec.n
    rng = np.random.default_rng(8)
    x, p = (
        rng.standard_normal(m) + 1j * rng.standard_normal(m)
        for m in (spec.num_unknowns, spec.num_coeffs)
    )
    _, _, jac = build_system(spec).full_state(x, p)
    want = np.zeros_like(jac)
    for a_idx, alpha in enumerate(monomials(n + 1, spec.d)):
        for i in range(spec.r):
            l, lam = x[i * (n + 1) : i * (n + 1) + n], x[i * (n + 1) + n]
            want[a_idx, i * (n + 1) + n] = -multinomial(alpha) * np.prod(l ** np.array(alpha[1:]))
            for h in range(n):
                dalpha = np.array(alpha[1:]) - np.eye(n, dtype=int)[h]
                if alpha[h + 1]:
                    want[a_idx, i * (n + 1) + h] = (
                        -multinomial(alpha) * alpha[h + 1] * lam * np.prod(l**dalpha)
                    )
    assert np.all((jac == 0) == (want == 0))
    assert np.all(np.abs(jac - want) <= 1e-13 * np.abs(want))


def _total_degree_system():
    # two quadrics in 2 unknowns, every coefficient a parameter, as
    # solve_total_degree writes them
    mons = [(2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)]
    rows = [[(1.0, m, 6 * i + k) for k, m in enumerate(mons)] for i in range(2)]
    return PolySystem(rows, num_unknowns=2, num_params=12)


def _segre_section_system():
    # the (2,2) Segre section u^T E_k v = 0, k < 4, with every entry of
    # the E_k a parameter, then the charts alpha.u = 1 and beta.v = 1,
    # which hold none
    rng = np.random.default_rng(4)
    unit = np.eye(6, dtype=int)
    rows = [
        [(1.0, tuple(unit[i] + unit[3 + j]), 9 * k + 3 * i + j) for i in range(3) for j in range(3)]
        for k in range(4)
    ]
    for first in (0, 3):
        coeffs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        rows.append([(c, tuple(unit[first + i]), -1) for i, c in enumerate(coeffs)] + [(-1.0, (0,) * 6, -1)])
    return PolySystem(rows, num_unknowns=6, num_params=36)


@pytest.mark.parametrize(
    "make",
    [lambda: build_system(WaringSpec(d=5, n=1, r=3)), _segre_section_system, _total_degree_system],
    ids=["waring(5,1,3)", "segre(2,2)", "total-degree"],
)
def test_stacked_evaluation_equals_single_calls(make):
    system = make()
    rng = np.random.default_rng(5)
    k, n, p = 4, system.num_unknowns, system.num_params
    x = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    params = rng.standard_normal((k, p)) + 1j * rng.standard_normal((k, p))
    dp = rng.standard_normal((k, p)) + 1j * rng.standard_normal((k, p))
    stack, rows = system.full_state(x, params), [system.full_state(x[i], params[i]) for i in range(k)]
    for got, want in zip(stack, zip(*rows)):
        assert np.array_equal(got, np.stack(want))
    tangent = system.param_tangent(x, dp)
    assert np.array_equal(tangent, np.stack([system.param_tangent(x[i], dp[i]) for i in range(k)]))
    one = system.full_state(x[:1], params[:1])
    for got, want in zip(one, system.full_state(x[0], params[0])):
        assert np.array_equal(got, want[None])


@pytest.mark.parametrize("shape", [(36,), (2, 36), (1, 36)], ids=["one-vector", "too-few-rows", "one-row"])
def test_a_stack_needs_one_parameter_row_per_point(shape):
    system = _segre_section_system()
    x = np.ones((3, 6), dtype=complex)
    for evaluate in (system.full_state, system.param_tangent):
        with pytest.raises(DimensionMismatchError, match="one parameter row per point"):
            evaluate(x, np.ones(shape, dtype=complex))
    # one point takes one parameter vector
    system.full_state(x[0], np.ones(36, dtype=complex))
