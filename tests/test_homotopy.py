"""Path tracking: segments, Newton refinement, total-degree solving."""

import cmath

import numpy as np
import pytest

from tensorid.homotopy import (
    PathStatus,
    SegmentHomotopy,
    SingularJacobianError,
    TrackSettings,
    _lu_solve_scaled,
    _newton,
    condition_estimate,
    newton_refine,
    solve_total_degree,
    track,
)
from tensorid.poly import MPoly, PolySystem


def _square_root_system():
    # x^2 - p: one unknown, one parameter
    x2 = [(1.0, (2,), -1), (-1.0, (0,), 0)]
    return PolySystem([x2], num_unknowns=1, num_params=1)


def test_track_follows_positive_branch():
    sys_ = _square_root_system()
    hom = SegmentHomotopy(sys_, [1.0], [4.0])
    result = track(hom, [1.0])
    assert result.status is PathStatus.SUCCESS
    assert result.endpoint[0] == pytest.approx(2.0, abs=1e-8)


def test_track_follows_negative_branch():
    sys_ = _square_root_system()
    hom = SegmentHomotopy(sys_, [1.0], [4.0])
    result = track(hom, [-1.0])
    assert result.success
    assert result.endpoint[0] == pytest.approx(-2.0, abs=1e-8)


def test_track_rejects_non_solution_start():
    sys_ = _square_root_system()
    hom = SegmentHomotopy(sys_, [1.0], [4.0])
    with pytest.raises(ValueError):
        track(hom, [0.5])


@pytest.mark.parametrize("start", [np.nan, 1e200])
def test_track_rejects_non_finite_residual_start(start):
    # x^2 - p at nan or 1e200: the scaled residual is nan
    sys_ = _square_root_system()
    hom = SegmentHomotopy(sys_, [1.0], [4.0])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="not a solution"):
            track(hom, [start])


def test_track_evaluates_each_state_once(monkeypatch):
    calls = []
    full_state = PolySystem.full_state

    def recording(self, point, params=()):
        calls.append((np.array(point), np.array(params)))
        return full_state(self, point, params)

    monkeypatch.setattr(PolySystem, "full_state", recording)
    sys_ = _square_root_system()
    result = track(SegmentHomotopy(sys_, [1.0], [4.0 + 3.0j]), [1.0])
    assert result.success
    assert len(calls) > result.steps_taken
    for (x0, p0), (x1, p1) in zip(calls, calls[1:]):
        assert not (np.array_equal(x0, x1) and np.array_equal(p0, p1))


@pytest.mark.parametrize("max_move", [None, 1e-9])
def test_newton_returns_state_at_its_point(max_move):
    # x^2 - p from 1.3 at p = 2: converges, or stops at the start when the
    # first update (about 0.12) exceeds max_move
    sys_ = _square_root_system()
    params = np.array([2.0 + 0j])
    x, res, state = _newton(sys_, params, [1.3], 1e-12, 8, max_move=max_move)
    if max_move is None:
        assert res < 1e-12
    else:
        assert x[0] == 1.3
    for got, want in zip(state, sys_.full_state(x, params)):
        assert np.array_equal(got, want)
    assert res == float(np.max(np.abs(state[0]) / (1.0 + state[1])))


def test_track_reports_divergence():
    # x * p - 1: as p -> 0 the root runs to infinity
    xp = [(1.0, (1,), 0), (-1.0, (0,), -1)]
    sys_ = PolySystem([xp], num_unknowns=1, num_params=1)
    hom = SegmentHomotopy(sys_, [1.0], [0.0])
    result = track(hom, [1.0], TrackSettings(divergence_norm=1e6))
    assert result.status in (PathStatus.DIVERGED, PathStatus.SINGULAR)


def test_gamma_requires_unit_modulus():
    sys_ = _square_root_system()
    with pytest.raises(ValueError):
        SegmentHomotopy(sys_, [1.0], [4.0], gamma=2.0)


def test_segment_endpoints_reproduced_exactly():
    sys_ = _square_root_system()
    gamma = cmath.exp(0.7j)
    hom = SegmentHomotopy(sys_, [1.0 + 2.0j], [4.0 - 1.0j], gamma=gamma)
    assert hom.params_at(0.0)[0] == gamma * (1.0 + 2.0j)
    assert hom.params_at(1.0)[0] == 4.0 - 1.0j


def test_branch_continuity_under_smaller_steps():
    sys_ = _square_root_system()
    hom = SegmentHomotopy(sys_, [1.0], [4.0 + 3.0j])
    a = track(hom, [1.0], TrackSettings())
    b = track(hom, [1.0], TrackSettings(initial_step=0.025, max_step=0.05))
    assert a.success and b.success
    assert abs(a.endpoint[0] - b.endpoint[0]) < 1e-6


def test_conjugation_equivariance():
    # real system, real parameter endpoints, conjugate gammas
    sys_ = _square_root_system()
    gamma = cmath.exp(1.1j)
    hom = SegmentHomotopy(sys_, [2.0], [5.0], gamma=gamma)
    hom_conj = SegmentHomotopy(sys_, [2.0], [5.0], gamma=gamma.conjugate())
    start = cmath.sqrt(gamma * 2.0)
    res = track(hom, [start])
    res_conj = track(hom_conj, [start.conjugate()])
    assert res.success and res_conj.success
    assert abs(res.endpoint[0].conjugate() - res_conj.endpoint[0]) < 1e-6


def test_newton_refine_sqrt2():
    x2 = [(1.0, (2,), -1), (-2.0, (0,), -1)]
    sys_ = PolySystem([x2], num_unknowns=1, num_params=0)
    point, res = newton_refine(sys_, (), [1.4], tol=1e-12, max_iters=3)
    assert point[0] == pytest.approx(np.sqrt(2.0), abs=1e-10)
    assert res < 1e-12


def test_newton_refine_fixed_point():
    x2 = [(1.0, (2,), -1), (-2.0, (0,), -1)]
    sys_ = PolySystem([x2], num_unknowns=1, num_params=0)
    exact = np.sqrt(2.0)
    point, _ = newton_refine(sys_, (), [exact], tol=1e-12, max_iters=5)
    assert abs(point[0] - exact) < 1e-14


def test_newton_refine_singular_jacobian_raises():
    x2 = [(1.0, (2,), -1)]  # x^2: Jacobian vanishes at 0
    sys_ = PolySystem([x2], num_unknowns=1, num_params=0)
    with pytest.raises(SingularJacobianError):
        newton_refine(sys_, (), [0.0], tol=1e-12, max_iters=3)


def test_solve_total_degree_univariate_roots():
    # x^3 - 1: three cube roots of unity
    p = MPoly(1, {(3,): 1.0, (0,): -1.0})
    found = solve_total_degree([p], rng=np.random.default_rng(5))
    assert len(found) == 3
    for x, res in found:
        assert abs(x[0] ** 3 - 1.0) < 1e-8
        assert res < 1e-10


def test_solve_total_degree_bivariate():
    # x^2 + y^2 - 5 = 0, x*y - 2 = 0: solutions (+-1, +-2), (+-2, +-1) with xy=2
    f1 = MPoly(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -5.0})
    f2 = MPoly(2, {(1, 1): 1.0, (0, 0): -2.0})
    found = solve_total_degree([f1, f2], rng=np.random.default_rng(1))
    assert len(found) == 4
    pts = sorted((round(x[0].real, 6), round(x[1].real, 6)) for x, _ in found)
    assert pts == [(-2.0, -1.0), (-1.0, -2.0), (1.0, 2.0), (2.0, 1.0)]


def test_solve_total_degree_salvages_double_roots():
    # (x - 1)^2: a double root; plain tracking ends singular, salvage keeps it
    p = MPoly(1, {(2,): 1.0, (1,): -2.0, (0,): 1.0})
    plain = solve_total_degree([p], rng=np.random.default_rng(2))
    salvaged = solve_total_degree([p], rng=np.random.default_rng(2), salvage_singular=True)
    assert len(plain) == 0
    assert len(salvaged) >= 1
    for x, res in salvaged:
        assert abs(x[0] - 1.0) < 1e-6
        assert res < 1e-8


def test_round_trip_permutes_solution_set():
    # x^2 - p with a complex round trip: endpoint returns to +-sqrt(p0)
    sys_ = _square_root_system()
    p0, p1 = 2.0 + 0.5j, -3.0 + 2.0j
    out = track(SegmentHomotopy(sys_, [p0], [p1]), [cmath.sqrt(p0)])
    assert out.success
    back = track(SegmentHomotopy(sys_, [p1], [p0]), out.endpoint)
    assert back.success
    root = cmath.sqrt(p0)
    d = min(abs(back.endpoint[0] - root), abs(back.endpoint[0] + root))
    assert d < 1e-6


def test_newton_refine_non_finite_jacobian_raises():
    # x^3 - 1 at 1e200: the powers overflow, so the scaled Jacobian is nan
    p = [(1.0, (3,), -1), (-1.0, (0,), -1)]
    sys_ = PolySystem([p], num_unknowns=1, num_params=0)
    with np.errstate(over="ignore", invalid="ignore"):
        _, scales, jac = sys_.full_state([1e200], ())
        assert condition_estimate(jac, scales) == np.inf
        with pytest.raises(SingularJacobianError):
            newton_refine(sys_, (), [1e200])


def test_lu_solve_rejects_non_finite_imaginary_part():
    # the solution 1e310j overflows in its imaginary part only
    out = _lu_solve_scaled(np.array([[1e-300 + 0j]]), np.array([1e10j]), np.zeros(1))
    assert out is None
    jac = np.array([[1.0, complex(0.0, np.inf)], [0.0, 1.0]])
    assert condition_estimate(jac) == np.inf
