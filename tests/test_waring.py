"""Waring system assembly, admissibility, starts and the binary oracle."""

import json
import math

import numpy as np
import pytest

from tensorid.poly import monomials
from tensorid.waring import (
    Decomposition,
    NonGenericFormError,
    Summand,
    WaringSpec,
    build_system,
    bundled_fixture_path,
    double_point_interpolation_rank,
    is_admissible,
    load_start,
    random_real_start,
    reconstruction_error,
    sylvester_oracle,
    tensor_from_decomposition,
)


def _num_equations(spec):
    vals, _, _ = build_system(spec).full_state(
        np.zeros(spec.num_unknowns), np.zeros(spec.num_coeffs)
    )
    return vals.size


def _scaled_residual(sys_, x, p):
    vals, scales, _ = sys_.full_state(x, p)
    return float(np.max(np.abs(vals) / (1.0 + scales)))


def test_perfect_case_shapes():
    assert _num_equations(WaringSpec(7, 2, 12)) == 36
    assert _num_equations(WaringSpec(8, 2, 15)) == 45
    assert _num_equations(WaringSpec(3, 1, 2)) == 4


def test_build_system_rejects_imperfect():
    with pytest.raises(ValueError):
        build_system(WaringSpec(7, 2, 11))


def test_admissibility_known_cases():
    ok, _ = is_admissible(WaringSpec(7, 2, 12))
    assert ok
    ok, reason = is_admissible(WaringSpec(2, 2, 2))
    assert not ok and "exception" in reason.lower() or not ok
    ok, _ = is_admissible(WaringSpec(4, 2, 5))
    assert not ok


def test_interpolation_oracle_confirms_exception_list():
    # conics with 2 double points: expected rank 6 but actual rank 5
    assert double_point_interpolation_rank(2, 2, 2) < 6
    # plane quartics with 5 double points: 14 < 15
    assert double_point_interpolation_rank(4, 2, 5) == 14
    # the admissible degree-7 case imposes independent conditions
    assert double_point_interpolation_rank(7, 2, 12) == 36


def test_random_real_start_satisfies_system():
    spec = WaringSpec(7, 2, 12)
    start, tensor = random_real_start(spec, seed=3)
    sys_ = build_system(spec)
    res = _scaled_residual(sys_, start.to_vector(), np.asarray(tensor.coeffs))
    assert res < 1e-10
    assert reconstruction_error(spec, start, tensor) < 1e-10


def test_decomposition_vector_roundtrip():
    spec = WaringSpec(5, 1, 3)
    start, _ = random_real_start(spec, seed=1)
    vec = start.to_vector()
    assert vec.shape == (spec.r * (spec.n + 1),)
    back = Decomposition.from_vector(vec, spec.n)
    assert all(
        complex(a.lam) == complex(b.lam) and a.l == b.l
        for a, b in zip(start.summands, back.summands)
    )


def test_tensor_from_decomposition_matches_hand_expansion():
    # 2 * (x0 + 3 x1)^2 + (x0 - x1)^2: coefficients in graded-lex order
    spec = WaringSpec(2, 1, 2)  # not perfect, but expansion works regardless
    dec = Decomposition(
        (Summand((3.0,), 2.0 + 0j), Summand((-1.0,), 1.0 + 0j))
    )
    coeffs = tensor_from_decomposition(spec, dec).coeffs
    # basis: x0^2, x0 x1, x1^2 with multinomials folded in
    assert coeffs[0] == pytest.approx(3.0)  # 2 + 1
    assert coeffs[1] == pytest.approx(2 * (2 * 3.0) + 2 * (1 * -1.0))
    assert coeffs[2] == pytest.approx(2 * 9.0 + 1.0)


def test_fixture_loads_and_satisfies_own_form():
    spec = WaringSpec(7, 2, 12)
    start, tensor = load_start(bundled_fixture_path(), spec)
    assert start.r == 12
    sys_ = build_system(spec)
    res = _scaled_residual(sys_, start.to_vector(), np.asarray(tensor.coeffs))
    assert res < 1e-8


def test_fixture_shape_validation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{"l": [1.0, 2.0], "lambda": 1.0}] * 3))
    with pytest.raises(ValueError):
        load_start(bad, WaringSpec(7, 2, 12))


def test_sylvester_oracle_sum_of_two_cubes():
    # (x0 + x1)^3 + (x0 - x1)^3: both summand directions sit inside the
    # monic chart, at slopes +1 and -1
    spec = WaringSpec(3, 1, 2)
    dec_true = Decomposition((Summand((1.0,), 1.0 + 0j), Summand((-1.0,), 1.0 + 0j)))
    tensor = tensor_from_decomposition(spec, dec_true)
    dec = sylvester_oracle(tensor, 2)
    slopes = sorted(complex(s.l[0]).real for s in dec.summands)
    assert slopes == pytest.approx([-1.0, 1.0], abs=1e-10)
    assert reconstruction_error(spec, dec, tensor) < 1e-10


def test_sylvester_oracle_rejects_summand_at_infinity():
    # x0^3 + x1^3 decomposes as itself; the x1^3 summand has no x0 part,
    # which the monic chart cannot represent
    basis = monomials(2, 3)
    coeffs = np.zeros(4, dtype=complex)
    coeffs[basis.index((3, 0))] = 1.0
    coeffs[basis.index((0, 3))] = 1.0
    from tensorid.waring import TensorParams

    with pytest.raises(NonGenericFormError):
        sylvester_oracle(TensorParams(3, 1, coeffs), 2)


def test_sylvester_oracle_rejects_degenerate_cubic():
    # x0^2 x1 has border-rank pathology; the kernel check must fail
    basis = monomials(2, 3)
    coeffs = np.zeros(4, dtype=complex)
    coeffs[basis.index((2, 1))] = 3.0  # full coefficient of x0^2 x1
    from tensorid.waring import TensorParams

    with pytest.raises(NonGenericFormError):
        sylvester_oracle(TensorParams(3, 1, coeffs), 2)


def test_sylvester_oracle_reconstructs_random_quintics():
    spec = WaringSpec(5, 1, 3)
    for seed in range(5):
        _, tensor = random_real_start(spec, seed=seed)
        dec = sylvester_oracle(tensor, 3)
        assert reconstruction_error(spec, dec, tensor) < 1e-8


def test_decomposition_conjugate_involution():
    spec = WaringSpec(5, 1, 3)
    start, _ = random_real_start(spec, seed=9)
    twisted = Decomposition(
        tuple(Summand(tuple(v * 1j for v in s.l), s.lam) for s in start.summands)
    )
    back = twisted.conjugate().conjugate()
    assert all(
        complex(a.lam) == complex(b.lam) and a.l == b.l
        for a, b in zip(twisted.summands, back.summands)
    )


def test_build_system_evaluates_to_coefficient_mismatch():
    # equation alpha is p_alpha minus the alpha coefficient of sum_i lambda_i ell_i^d,
    # one equation per degree-d monomial in graded-lex order
    rng = np.random.default_rng(12)
    for d, n, r in ((7, 2, 12), (8, 2, 15), (5, 1, 3)):
        spec = WaringSpec(d, n, r)
        sys_ = build_system(spec)
        x = rng.standard_normal(spec.num_unknowns) + 1j * rng.standard_normal(spec.num_unknowns)
        p = rng.standard_normal(spec.num_coeffs) + 1j * rng.standard_normal(spec.num_coeffs)
        expected = p - tensor_from_decomposition(spec, Decomposition.from_vector(x, n)).coeffs
        got, _, jac = sys_.full_state(x, p)
        assert jac.shape == (spec.num_coeffs, spec.num_unknowns)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
