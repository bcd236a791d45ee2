"""Path tracking: segments, Newton correction, total-degree solving."""

import cmath
import itertools

import numpy as np
import pytest

from tensorid import homotopy
from tensorid.homotopy import (
    PathStatus,
    _lu_solve_scaled,
    _newton,
    condition_estimate,
    solve_total_degree,
    track,
    track_paths,
)
from tensorid.poly import DimensionMismatchError, PolySystem


def _square_root_system():
    # x^2 - p: one unknown, one parameter
    x2 = [(1.0, (2,), -1), (-1.0, (0,), 0)]
    return PolySystem([x2], num_unknowns=1, num_params=1)


def test_track_follows_positive_branch():
    result = track(_square_root_system(), [1.0], [4.0], [1.0])
    assert result.status is PathStatus.SUCCESS
    assert result.endpoint[0] == pytest.approx(2.0, abs=1e-8)


def test_track_follows_negative_branch():
    result = track(_square_root_system(), [1.0], [4.0], [-1.0])
    assert result.success
    assert result.endpoint[0] == pytest.approx(-2.0, abs=1e-8)


def test_track_rejects_non_solution_start():
    with pytest.raises(ValueError):
        track(_square_root_system(), [1.0], [4.0], [0.5])


@pytest.mark.parametrize("start", [np.nan, 1e200])
def test_track_rejects_non_finite_residual_start(start):
    # x^2 - p at nan or 1e200: the scaled residual is nan
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="not a solution"):
            track(_square_root_system(), [1.0], [4.0], [start])


def test_track_evaluates_each_state_once(monkeypatch):
    calls = []
    full_state = PolySystem.full_state

    def recording(self, point, params=()):
        calls.append((np.array(point), np.array(params)))
        return full_state(self, point, params)

    monkeypatch.setattr(PolySystem, "full_state", recording)
    sys_ = _square_root_system()
    result = track(sys_, [1.0], [4.0 + 3.0j], [1.0])
    assert result.success
    assert len(calls) > result.steps_taken
    for (x0, p0), (x1, p1) in zip(calls, calls[1:]):
        assert not (np.array_equal(x0, x1) and np.array_equal(p0, p1))


@pytest.mark.parametrize("max_move", [None, 1e-9])
def test_newton_returns_state_at_its_point(max_move):
    # x^2 - p from 1.3 at p = 2: converges, or stops at the start when the
    # first update (about 0.12) exceeds max_move
    sys_ = _square_root_system()
    params = np.array([[2.0 + 0j]])
    move = None if max_move is None else np.array([max_move])
    x, res, state, *_ = _newton(sys_, params, [[1.3]], 1e-12, 8, max_move=move)
    if max_move is None:
        assert res[0] < 1e-12
    else:
        assert x[0, 0] == 1.3
    for got, want in zip(state, sys_.full_state(x, params)):
        assert np.array_equal(got, want)
    assert res[0] == float(np.max(np.abs(state[0][0]) / (1.0 + state[1][0])))


def test_track_reports_divergence(monkeypatch):
    # x * p - 1: as p -> 0 the root runs to infinity
    xp = [(1.0, (1,), 0), (-1.0, (0,), -1)]
    sys_ = PolySystem([xp], num_unknowns=1, num_params=1)
    monkeypatch.setattr(homotopy, "DIVERGENCE_NORM", 1e6)
    result = track(sys_, [1.0], [0.0], [1.0])
    assert result.status in (PathStatus.DIVERGED, PathStatus.SINGULAR)


def test_branch_continuity_under_smaller_steps(monkeypatch):
    sys_ = _square_root_system()
    a = track(sys_, [1.0], [4.0 + 3.0j], [1.0])
    monkeypatch.setattr(homotopy, "INITIAL_STEP", 0.025)
    monkeypatch.setattr(homotopy, "MAX_STEP", 0.05)
    b = track(sys_, [1.0], [4.0 + 3.0j], [1.0])
    assert a.success and b.success
    assert abs(a.endpoint[0] - b.endpoint[0]) < 1e-6


def test_conjugation_equivariance():
    # real system, real target, origins twisted by conjugate gammas
    sys_ = _square_root_system()
    gamma = cmath.exp(1.1j)
    start = cmath.sqrt(gamma * 2.0)
    res = track(sys_, [gamma * 2.0], [5.0], [start])
    res_conj = track(sys_, [gamma.conjugate() * 2.0], [5.0], [start.conjugate()])
    assert res.success and res_conj.success
    assert abs(res.endpoint[0].conjugate() - res_conj.endpoint[0]) < 1e-6


def test_solve_total_degree_univariate_roots():
    # x^3 - 1: three cube roots of unity
    p = {(3,): 1.0, (0,): -1.0}
    found = solve_total_degree([p], rng=np.random.default_rng(5))
    assert len(found) == 3
    for x, res in found:
        assert abs(x[0] ** 3 - 1.0) < 1e-8
        assert res < 1e-10


def test_solve_total_degree_bivariate():
    # x^2 + y^2 - 5 = 0, x*y - 2 = 0: solutions (+-1, +-2), (+-2, +-1) with xy=2
    f1 = {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -5.0}
    f2 = {(1, 1): 1.0, (0, 0): -2.0}
    found = solve_total_degree([f1, f2], rng=np.random.default_rng(1))
    assert len(found) == 4
    pts = sorted((round(x[0].real, 6), round(x[1].real, 6)) for x, _ in found)
    assert pts == [(-2.0, -1.0), (-1.0, -2.0), (1.0, 2.0), (2.0, 1.0)]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "terms",
    [{(2,): 1.0, (1,): -2.0, (0,): 1.0}, {(3,): 1.0, (2,): -3.0, (1,): 3.0, (0,): -1.0}],
    ids=["double", "triple"],
)
def test_solve_total_degree_drops_multiple_roots(terms, seed):
    # (x - 1)^2 and (x - 1)^3: whether a path stalls near the multiple
    # root or reaches t = 1 on it, Newton converges only linearly there,
    # so the root is dropped
    assert solve_total_degree([terms], rng=np.random.default_rng(seed)) == []


@pytest.mark.parametrize(
    "targets, error, match",
    [
        ([{(1, 0): 1.0}, {(1, 0, 0): 1.0}], DimensionMismatchError, r"\(1, 0, 0\) has 3 entries"),
        ([{(1, 0, 0): 1.0}, {(0, 1, 0): 1.0}], DimensionMismatchError, "n polynomials in n unknowns"),
        ([], ValueError, "square system"),
        ([{(2,): 1.0, (-1,): 1.0}], ValueError, "negative exponent"),
        ([{(2,): 0.0, (1,): 1.0, (0,): -2.0}], None, None),
        ([{(2,): 1e-15, (1,): 1.0, (0,): -2.0}], None, None),
    ],
    ids=["exponent-length", "non-square", "empty", "negative-exponent", "zero-leading", "tiny-leading"],
)
def test_solve_total_degree_checks_its_targets(monkeypatch, targets, error, match):
    if error is not None:
        with pytest.raises(error, match=match):
            solve_total_degree(targets)
        return
    # a leading coefficient of at most PRUNE_TOL is dropped, so x - 2 has
    # degree 1: one start path, to the root x = 2
    found = []
    *_, starts = _captured(monkeypatch, homotopy, lambda: found.extend(solve_total_degree(targets)))
    assert len(starts) == 1
    assert [complex(x[0]) for x, _ in found] == [pytest.approx(2.0, abs=1e-12)]


def test_round_trip_permutes_solution_set():
    # x^2 - p with a complex round trip: endpoint returns to +-sqrt(p0)
    sys_ = _square_root_system()
    p0, p1 = 2.0 + 0.5j, -3.0 + 2.0j
    out = track(sys_, [p0], [p1], [cmath.sqrt(p0)])
    assert out.success
    back = track(sys_, [p1], [p0], out.endpoint)
    assert back.success
    root = cmath.sqrt(p0)
    d = min(abs(back.endpoint[0] - root), abs(back.endpoint[0] + root))
    assert d < 1e-6


def test_condition_estimate_of_non_finite_jacobian_is_inf():
    # x^3 - 1 at 1e200: the powers overflow, so the scaled Jacobian is nan
    p = [(1.0, (3,), -1), (-1.0, (0,), -1)]
    sys_ = PolySystem([p], num_unknowns=1, num_params=0)
    with np.errstate(over="ignore", invalid="ignore"):
        _, scales, jac = sys_.full_state([1e200], ())
        assert condition_estimate(jac, scales) == np.inf


def test_lu_solve_gates_each_matrix_of_a_stack_on_its_factors():
    # the second matrix has a unit diagonal, but its second LU pivot is
    # 2^-50, a pivot ratio above 1e14; the first is well conditioned
    jac = np.array([[[2.0, 1.0], [1.0, 3.0]], [[1.0, 1.0], [1.0, 1.0 + 2.0**-50]]], dtype=complex)
    rhs = np.array([[1.0, 2.0], [1.0, 2.0]], dtype=complex)
    out, ok = _lu_solve_scaled(jac, rhs, np.zeros((2, 2)))
    assert ok == [True, False]
    assert np.allclose(out[0], np.linalg.solve(jac[0], rhs[0]), rtol=1e-15, atol=0)
    assert not out[1].any()


def test_lu_solve_rejects_non_finite_imaginary_part():
    # the solution 1e310j overflows in its imaginary part only
    out, ok = _lu_solve_scaled(np.array([[[1e-300 + 0j]]]), np.array([[1e10j]]), np.zeros((1, 1)))
    assert not ok[0] and out[0, 0] == 0
    jac = np.array([[1.0, complex(0.0, np.inf)], [0.0, 1.0]])
    with np.errstate(invalid="ignore"):  # row scaling multiplies inf by 0
        assert condition_estimate(jac, np.zeros(2)) == np.inf


def test_condition_estimate_gates_exactly_as_the_solve_does():
    # random Jacobians, ones graded from cond 1e10 to 1e17 about the 1e14
    # gate, singular ones (rank 2, a zero row) and non-finite ones, each
    # with random row scales: the estimate is above 1e14 exactly where
    # the row-scaled solve rejects the matrix
    rng = np.random.default_rng(0)
    n = 5

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    jacs = [cplx(n, n) for _ in range(4)]
    q, _ = np.linalg.qr(cplx(n, n))
    jacs += [q @ np.diag(np.logspace(0, -k, n)) @ q.conj().T for k in range(10, 18)]
    jacs += [cplx(n, 2) @ cplx(2, n), np.vstack([cplx(n - 1, n), np.zeros(n)])]
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        jac = cplx(n, n)
        jac[1, 3] = bad
        jacs.append(jac)
    scales = rng.uniform(0.0, 1e3, (len(jacs), n))
    with np.errstate(invalid="ignore"):  # row scaling multiplies inf by 0
        _, ok = _lu_solve_scaled(np.array(jacs), cplx(len(jacs), n), scales)
        for jac, row, good in zip(jacs, scales, ok):
            assert (condition_estimate(jac, row) > 1e14) is (not good)
    assert 6 <= ok.count(False) < len(jacs) - 6


def test_start_above_tolerance_is_polished_before_the_first_step(monkeypatch):
    # x^2 - p at p = 1 from x = 1 + 4.5e-10: the scaled residual, about
    # 3e-10, lies between CORRECTOR_TOL and ten times it
    sys_ = _square_root_system()
    tol, p0 = homotopy.CORRECTOR_TOL, np.array([[1.0 + 0j]])

    def residual(x):
        return homotopy._residuals(*sys_.full_state(np.array(x, dtype=complex), p0)[:2])[0]

    start = 1.0 + 4.5e-10
    assert tol < residual([[start]]) < 10.0 * tol
    predicted_from = []
    guess = homotopy._hermite_guess
    monkeypatch.setattr(homotopy, "_hermite_guess", lambda x, *a: predicted_from.append(x.copy()) or guess(x, *a))
    assert track(sys_, [1.0], [4.0], [start]).success
    assert predicted_from[0][0, 0] != start and residual(predicted_from[0]) < tol


def test_rejected_step_keeps_its_tangent(monkeypatch):
    # x^2 - p from p = 1 to just above p = -1 passes near the branch point
    # p = 0, where the corrector rejects steps; the tangent is recomputed
    # only after an accepted step, so once per accepted step.  A step is
    # accepted at TRACK_TOL inside the segment and at CORRECTOR_TOL at its
    # end, t = 1
    target = -1.0 + 1e-3j
    tangents = []
    param_tangent = PolySystem.param_tangent
    monkeypatch.setattr(
        PolySystem,
        "param_tangent",
        lambda self, point, dp: tangents.append(1) or param_tangent(self, point, dp),
    )
    corrected = []
    newton = homotopy._newton

    def recording_newton(system, params, *args, **kwargs):
        out = newton(system, params, *args, **kwargs)
        if kwargs.get("max_move") is not None:
            tol = homotopy.CORRECTOR_TOL if params[0, 0] == target else homotopy.TRACK_TOL
            corrected.append(out[1][0] < tol)
        return out

    monkeypatch.setattr(homotopy, "_newton", recording_newton)
    result = track(_square_root_system(), [1.0], [target], [1.0])
    accepted = sum(corrected)
    assert result.success
    assert len(corrected) == result.steps_taken > accepted
    assert len(tangents) == accepted


def _linear_system():
    # x - p: every path is a straight line, which the predictor lands on
    return PolySystem([[(1.0, (1,), -1), (-1.0, (0,), 0)]], num_unknowns=1, num_params=1)


@pytest.mark.parametrize(
    "system, origin, target, start, reused",
    [
        (_square_root_system(), 1.0, -1.0 + 1e-3j, 1.0 + 1e-9, True),
        (_linear_system(), 1.0, 4.0 + 3.0j, 1.0, False),
    ],
    ids=["corrected", "predicted-exactly"],
)
def test_accepted_step_tangent_calls_no_getrf(monkeypatch, system, origin, target, start, reused):
    # every getrf is a corrector iteration (the start polish's included)
    # or the fresh factorization of a point the corrector accepted
    # without iterating: the tangent at any other accepted point solves
    # with the corrector's last factorization.  The square root's
    # corrector iterates at every step, and the line's never does
    getrf = []
    real_getrf = homotopy._GETRF
    monkeypatch.setattr(homotopy, "_GETRF", lambda *a, **kw: getrf.append(1) or real_getrf(*a, **kw))
    tangents = []
    param_tangent = PolySystem.param_tangent
    monkeypatch.setattr(
        PolySystem,
        "param_tangent",
        lambda self, point, dp: tangents.append(1) or param_tangent(self, point, dp),
    )
    corrections = []  # (getrf calls, iterations, accepted short of t = 1) per corrector call
    newton = homotopy._newton

    def recording_newton(system, params, points, tol, *args, **kwargs):
        before = len(getrf)
        out = newton(system, params, points, tol, *args, **kwargs)
        onward = bool((out[1] < tol)[0] and params[0, 0] != target)
        corrections.append((len(getrf) - before, out[3][0], onward))
        return out

    monkeypatch.setattr(homotopy, "_newton", recording_newton)
    result = track(system, [origin], [target], [start])
    assert result.success
    assert all(calls == iterations for calls, iterations, _ in corrections)
    iterations = sum(iterations for _, iterations, _ in corrections)
    fresh = sum(onward and not iterations for _, iterations, onward in corrections)
    assert len(tangents) == sum(onward for *_, onward in corrections)
    assert result.newton == iterations
    assert result.factorizations == len(getrf) == iterations + fresh
    assert fresh == (0 if reused else len(tangents))


def test_step_grows_with_corrector_effort(monkeypatch):
    # x^2 - p from p = 1 to just above p = -1, past the branch point: a
    # step the corrector finishes in at most two iterations doubles h, up
    # to MAX_STEP, three multiply it by 1.25 and four by 0.9, and a
    # rejected step halves it
    target = -1.0 + 1e-3j
    growth = {0: 2.0, 1: 2.0, 2: 2.0, 3: 1.25, 4: 0.9}
    hs, steps = [], []  # steps: (h, iterations, accepted, lands at t = 1)
    guess = homotopy._hermite_guess
    monkeypatch.setattr(
        homotopy, "_hermite_guess", lambda x, back, speed, h, *a: hs.append(float(h[0])) or guess(x, back, speed, h, *a)
    )
    newton = homotopy._newton

    def recording_newton(system, params, points, tol, *args, **kwargs):
        out = newton(system, params, points, tol, *args, **kwargs)
        if kwargs.get("max_move") is not None:
            steps.append((hs[-1], out[3][0], bool((out[1] < tol)[0]), params[0, 0] == target))
        return out

    monkeypatch.setattr(homotopy, "_newton", recording_newton)
    assert track(_square_root_system(), [1.0], [target], [1.0]).success
    seen = set()
    for (h, iterations, accepted, _), (h_next, *_, last) in zip(steps, steps[1:]):
        want = min(h * growth[iterations], homotopy.MAX_STEP) if accepted else h / 2.0
        if last:  # the step to t = 1 is cut at the end of the segment
            assert h_next <= want * (1.0 + 1e-9)
        else:
            assert h_next == pytest.approx(want, rel=1e-9)
        seen.add((iterations if accepted else "rejected", want == homotopy.MAX_STEP))
    # doubling, the cap, the slower growth and the halving all occurred
    assert {(2, False), (2, True), (3, False), (4, False), ("rejected", False)} <= seen


def _cubic_samples(t):
    """x(t) and -dx/dt on a cubic curve in C^3, one cubic per coordinate."""
    c = np.array(
        [
            [1.0 + 0.5j, 2.0 - 1.0j, 0.3j, 0.2],
            [-0.5, 1.0j, -0.4 + 0.1j, 0.25j],
            [2.0j, -1.5 + 0.5j, 0.2, -0.3 + 0.1j],
        ]
    )
    x = c[:, 0] + t * (c[:, 1] + t * (c[:, 2] + t * c[:, 3]))
    dx = c[:, 1] + t * (2.0 * c[:, 2] + 3.0 * t * c[:, 3])
    return x, -dx


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_hermite_guess_extrapolates_a_cubic(s):
    # two samples of a cubic with their derivatives determine it, so the
    # guess at t + h is the cubic's value there up to rounding
    t_prev, h_prev = 0.3, 0.1
    t, h = t_prev + h_prev, s * h_prev
    x_prev, back_prev = _cubic_samples(t_prev)
    x, back = _cubic_samples(t)
    want, _ = _cubic_samples(t + h)
    got = homotopy._hermite_guess(
        x[None], back[None], np.abs(back).max(keepdims=True), np.array([h]),
        (x_prev - x)[None], back_prev[None], np.abs(back_prev).max(keepdims=True), np.array([h_prev]),
    )
    assert np.abs(got[0] - want).max() <= 1e-12 * np.abs(want).max()


def test_hermite_guess_falls_back_to_euler():
    # row 0 has no previous point; row 1's previous point is five times
    # too far, so its cubic correction (4.4) exceeds the Euler length
    # h * speed (0.22); row 2's correction (0.006) stays within it
    x, back = _cubic_samples(0.4)
    x_prev, back_prev = _cubic_samples(0.3)
    xs, backs = np.array([x] * 3), np.array([back] * 3)
    speed = np.abs(backs).max(axis=1)
    h = np.full(3, 0.1)
    step_back = np.array([x_prev - x, 5.0 * (x_prev - x), x_prev - x])
    speed_prev = np.array([np.inf, 1.0, 1.0]) * np.abs(back_prev).max()
    got = homotopy._hermite_guess(xs, backs, speed, h, step_back, np.array([back_prev] * 3), speed_prev, h)
    euler = xs - h[:, None] * backs
    assert np.array_equal(got[:2], euler[:2])
    assert not np.array_equal(got[2], euler[2])
    # one row alone gets the bits it gets in the stack
    alone = homotopy._hermite_guess(
        xs[:1], backs[:1], speed[:1], h[:1], step_back[:1], back_prev[None], speed_prev[:1], h[:1]
    )
    assert np.array_equal(alone[0], x - 0.1 * back)


def _captured(monkeypatch, module, run):
    """The (system, origin, target, starts) that ``run`` hands to
    ``module.track_and_polish``."""
    seen = []
    real = homotopy.track_and_polish

    def capture(system, origin, target, starts):
        starts = list(starts)
        seen.append((system, origin, target, starts))
        return real(system, origin, target, starts)

    monkeypatch.setattr(module, "track_and_polish", capture)
    run()
    return seen[0]


def _assert_batch_matches_solo(system, origin, target, starts):
    batch = track_paths(system, origin, target, starts)
    assert len(batch) == len(starts)
    for k, (start, got) in enumerate(zip(starts, batch)):
        alone = track(system, origin[k], target[k], start)
        assert got.status is alone.status
        assert got.steps_taken == alone.steps_taken
        assert got.final_residual == pytest.approx(alone.final_residual, rel=1e-6, abs=1e-18)
        scale = max(1.0, float(np.max(np.abs(alone.endpoint))))
        assert float(np.max(np.abs(got.endpoint - alone.endpoint))) <= 1e-12 * scale
    return batch


def _bilinear_section_homotopy(a1, a2, equations, rng):
    """A 2-homogeneous linear-product homotopy to the Segre section
    u^T E_k v = 0, E_k row k of ``equations``, with its C(a1+a2, a1)
    start roots, as (system, origin, target, starts) with one twisted
    segment for every start.

    Unknowns u (a1 + 1), then v (a2 + 1); the parameters are the entries
    of the E_k, and the random complex affine chart alpha.u = 1,
    beta.v = 1 holds none.  The start rows are rank-one products
    l_k m_k^T, and each a1-subset S of them gives the start root
    l_S.u = 0, m_rest.v = 0.
    """
    n, rows = a1 + a2 + 2, a1 + a2
    unit = np.eye(n, dtype=int)
    pairs = list(itertools.product(range(a1 + 1), range(a2 + 1)))
    terms = [
        [(1.0, tuple(unit[i] + unit[a1 + 1 + j]), k * len(pairs) + c) for c, (i, j) in enumerate(pairs)]
        for k in range(rows)
    ]

    def normal(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    alpha, beta = normal(a1 + 1), normal(a2 + 1)
    for coeffs, first in ((alpha, 0), (beta, a1 + 1)):
        terms.append([(c, tuple(unit[first + i]), -1) for i, c in enumerate(coeffs)] + [(-1.0, (0,) * n, -1)])
    system = PolySystem(terms, num_unknowns=n, num_params=rows * len(pairs))
    ell, m = normal(rows, a1 + 1), normal(rows, a2 + 1)
    starts = []
    for subset in itertools.combinations(range(rows), a1):
        rest = [k for k in range(rows) if k not in subset]
        u = np.linalg.solve(np.vstack([ell[list(subset)], alpha]), np.eye(a1 + 1)[-1])
        v = np.linalg.solve(np.vstack([m[rest], beta]), np.eye(a2 + 1)[-1])
        starts.append(np.concatenate([u, v]))
    p_start = (ell[:, :, None] * m[:, None, :]).ravel()
    gamma = np.exp(2j * np.pi * rng.random())
    shape = (len(starts), system.num_params)
    origin, target = (np.broadcast_to(p, shape) for p in (gamma * p_start, np.asarray(equations).ravel()))
    return system, origin, target, starts


def test_section_batch_matches_solo_tracks():
    # a (2,4) Segre section: 15 paths of a bilinear system in 8 unknowns
    rng = np.random.default_rng(2)
    system, origin, target, starts = _bilinear_section_homotopy(2, 4, rng.standard_normal((6, 15)), rng)
    assert len(starts) == 15
    batch = _assert_batch_matches_solo(system, origin, target, starts)
    assert all(r.success for r in batch)


def test_total_degree_batch_with_surplus_paths_matches_solo(monkeypatch):
    # x*y - 1 and x*y + x - 2: Bezout count 4, one finite root (1, 1); the
    # three surplus paths run off to infinity and end diverged.  A fifth
    # row on the same system has a segment of its own: x^2 - p and
    # y^2 - 1 with p from 1 to -1, whose path from (1, 1) meets the
    # branch point x = 0 at t = 1/2 and ends singular
    polys = [
        {(1, 1): 1.0, (0, 0): -1.0},
        {(1, 1): 1.0, (1, 0): 1.0, (0, 0): -2.0},
    ]
    system, origin, target, starts = _captured(
        monkeypatch, homotopy, lambda: solve_total_degree(polys, rng=np.random.default_rng(3))
    )
    # the parameters are the coefficients of x^2, x*y, 1 in the first
    # equation and of x*y, x, y^2, 1 in the second
    assert system.num_params == 7
    branch_start = [1.0, 0.0, -1.0, 0.0, 0.0, 1.0, -1.0]
    branch_end = [1.0, 0.0, 1.0, 0.0, 0.0, 1.0, -1.0]
    monkeypatch.setattr(homotopy, "DIVERGENCE_NORM", 1e4)
    batch = _assert_batch_matches_solo(
        system, np.vstack([origin, branch_start]), np.vstack([target, branch_end]), [*starts, np.array([1.0, 1.0])]
    )
    statuses = {r.status for r in batch}
    assert statuses == {PathStatus.SUCCESS, PathStatus.SINGULAR, PathStatus.DIVERGED}
    assert batch[-1].status is PathStatus.SINGULAR


def test_track_paths_of_no_starts():
    assert track_paths(_square_root_system(), np.empty((0, 1)), np.empty((0, 1)), []) == []


def _segments():
    """Four segments of x^2 - p, each from its own twisted origin, as
    (K, 1) origin and target rows, and a start on each; the last start is
    off by a relative 1e-8, so its residual needs the start-point
    Newton."""
    gammas = [cmath.exp(0.7j), cmath.exp(-2.1j), 1.0 + 0j, cmath.exp(2.9j)]
    p_start = [1.0 + 2.0j, -3.0 + 0.5j, 2.0 + 0j, 0.5 - 1.5j]
    p_end = [4.0 - 1.0j, 1.0 + 1.0j, -2.0 + 0.3j, 3.0 + 3.0j]
    origin = [g * p for g, p in zip(gammas, p_start)]
    starts = [[cmath.sqrt(p)] for p in origin]
    starts[-1][0] *= 1.0 + 1e-8
    return np.array(origin)[:, None], np.array(p_end)[:, None], starts


def test_per_row_segments_match_one_start_calls(monkeypatch):
    sys_ = _square_root_system()
    origin, target, starts = _segments()
    evaluated = []  # the evaluations of the start-point Newton
    newton = homotopy._newton
    full_state = PolySystem.full_state

    def recording_newton(system, params, points, *args, **kwargs):
        if kwargs.get("max_move") is not None:
            return newton(system, params, points, *args, **kwargs)
        monkeypatch.setattr(PolySystem, "full_state", recording)
        try:
            return newton(system, params, points, *args, **kwargs)
        finally:
            monkeypatch.setattr(PolySystem, "full_state", full_state)

    def recording(self, point, params=()):
        evaluated.append((np.array(point), np.array(params)))
        return full_state(self, point, params)

    monkeypatch.setattr(homotopy, "_newton", recording_newton)
    batch = track_paths(sys_, origin, target, starts)
    monkeypatch.undo()
    # every start entered the start-point Newton at its own origin, and
    # only the last, rough one iterated there
    (points, params), *iterations = evaluated
    assert np.array_equal(points, starts) and np.array_equal(params, origin)
    assert iterations
    for _, params in iterations:
        assert np.array_equal(params, origin[-1:])
    for k, (start, got) in enumerate(zip(starts, batch)):
        alone = track(sys_, origin[k], target[k], start)
        assert got.status is alone.status is PathStatus.SUCCESS
        assert got.steps_taken == alone.steps_taken
        assert got.final_residual == alone.final_residual
        assert np.array_equal(got.endpoint, alone.endpoint)


def test_step_limit_ends_a_row_at_its_last_accepted_point(monkeypatch):
    # the four segments take 12 steps each, and a fifth that ends near
    # the branch point x = 0 takes 20; a limit of 15 stops the fifth alone
    sys_ = _square_root_system()
    origin, target, starts = _segments()
    twisted = cmath.exp(0.7j) * (1.0 + 2.0j)
    origin, target = np.vstack([origin, [twisted]]), np.vstack([target, [1e-3 + 0j]])
    starts = [*starts, [cmath.sqrt(twisted)]]
    monkeypatch.setattr(homotopy, "MAX_STEPS", 15)
    batch = track_paths(sys_, origin, target, starts)
    assert [r.status for r in batch] == [PathStatus.SUCCESS] * 4 + [PathStatus.STEP_LIMIT]
    assert batch[-1].steps_taken == homotopy.MAX_STEPS

    accepted = []  # the corrector's accepted points of a one-start track
    newton = homotopy._newton

    def recording_newton(system, params, points, tol, *args, **kwargs):
        out = newton(system, params, points, tol, *args, **kwargs)
        if kwargs.get("max_move") is not None and out[1][0] < tol:
            accepted.append(out[0][0].copy())
        return out

    monkeypatch.setattr(homotopy, "_newton", recording_newton)
    for k, (start, got) in enumerate(zip(starts, batch)):
        accepted.clear()
        alone = track(sys_, origin[k], target[k], start)
        assert got.status is alone.status
        assert got.steps_taken == alone.steps_taken
        assert got.final_residual == alone.final_residual
        assert np.array_equal(got.endpoint, alone.endpoint)
        assert np.array_equal(got.endpoint, accepted[-1])


@pytest.mark.parametrize(
    "name, origin, target",
    [
        ("origin", np.ones((3, 1)), np.ones((2, 1))),
        ("origin", [1.0], np.ones((2, 1))),
        ("target", np.ones((2, 1)), np.ones((2, 2))),
        ("target", np.ones((2, 1)), np.ones(2)),
    ],
    ids=["origin-rows", "origin-shared", "target-params", "target-flat"],
)
def test_track_paths_names_a_bad_segment_shape(name, origin, target):
    # two starts of x^2 - p need (2, 1) origin and target rows
    with pytest.raises(ValueError, match=f"{name} must have shape \\(2, 1\\)"):
        track_paths(_square_root_system(), origin, target, [[1.0], [-1.0]])
