"""Predictor-corrector tracking of segment homotopies in parameter space.

A segment homotopy moves the parameters of a square PolySystem along

    p(t) = (1 - t) * gamma * p_start + t * p_end,      t in [0, 1],

with |gamma| = 1.  The tracker advances solutions with an Euler
predictor on the induced ODE  J dx/dt = -dF/dp * dp/dt  followed by a
short Newton corrector at the new t.  Step control doubles the step
after three consecutive accepted steps, halves it on corrector failure
and declares the path singular once the step falls below ``min_step``.

All residuals in this module are term-magnitude scaled: an equation's
residual is divided by one plus the sum of the absolute values of its
evaluated terms.  Linear solves row-scale by the same quantities and
use LU with partial pivoting; the pivot ratio max|U_ii| / min|U_ii|
serves as the condition estimate.
"""

import cmath
import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from .poly import MPoly, PolySystem


class SingularJacobianError(RuntimeError):
    """Jacobian too ill conditioned for a Newton step."""


class PathStatus(Enum):
    SUCCESS = "success"
    DIVERGED = "diverged"
    SINGULAR = "singular"
    STEP_LIMIT = "step_limit"


@dataclass
class TrackSettings:
    """Step-control and corrector settings for path tracking."""

    initial_step: float = 0.05
    min_step: float = 1e-7
    max_step: float = 0.1
    corrector_tol: float = 1e-10
    max_corrector_iters: int = 4
    max_steps: int = 10000
    divergence_norm: float = 1e8

    def __post_init__(self):
        if not (0 < self.min_step <= self.initial_step <= self.max_step <= 1.0):
            raise ValueError("need 0 < min_step <= initial_step <= max_step <= 1")
        if self.corrector_tol <= 0 or self.max_steps < 1:
            raise ValueError("bad tolerance or step limit")


@dataclass
class SegmentHomotopy:
    """Straight parameter segment with an optional unit-modulus twist.

    With gamma != 1 the path starts at gamma * params_start, whose
    solution set is reachable from the solutions at params_start by an
    exact rescaling whenever the system is jointly linear in parameters
    and one unknown block (the caller supplies the rescaled start).
    """

    system: PolySystem
    params_start: np.ndarray
    params_end: np.ndarray
    gamma: complex = 1.0 + 0j

    def __post_init__(self):
        self.params_start = np.asarray(self.params_start, dtype=np.complex128)
        self.params_end = np.asarray(self.params_end, dtype=np.complex128)
        if self.params_start.size != self.system.num_params:
            raise ValueError("params_start has wrong length")
        if self.params_end.size != self.system.num_params:
            raise ValueError("params_end has wrong length")
        if abs(abs(self.gamma) - 1.0) > 1e-12:
            raise ValueError("gamma must have modulus 1")

    def params_at(self, t: float) -> np.ndarray:
        return (1.0 - t) * (self.gamma * self.params_start) + t * self.params_end

    @property
    def dparams(self) -> np.ndarray:
        return self.params_end - self.gamma * self.params_start


@dataclass
class PathResult:
    status: PathStatus
    endpoint: np.ndarray
    final_residual: float
    steps_taken: int

    @property
    def success(self) -> bool:
        return self.status is PathStatus.SUCCESS


_SINGULAR_RATIO = 1e14
_GETRF, _GETRS = get_lapack_funcs(("getrf", "getrs"), dtype=np.complex128)


def _pivoted_lu(a):
    """LAPACK LU factors of a square matrix and their pivot ratio.

    Returns (lu, piv, ratio) with ratio = max|U_ii| / min|U_ii|; the
    factors are None and the ratio inf when the matrix is empty or not
    finite, or a pivot is zero.
    """
    if a.size == 0 or not np.isfinite(a).all():
        return None, None, np.inf
    lu, piv, _ = _GETRF(a)
    diag = np.abs(np.diag(lu))
    dmin = diag.min()
    if not dmin > 0.0:
        return None, None, np.inf
    return lu, piv, float(diag.max() / dmin)


def _lu_solve_scaled(jac, rhs, scales):
    """Row-scaled LU solve; returns None when the factorization looks singular."""
    weights = 1.0 / (1.0 + scales)
    lu, piv, ratio = _pivoted_lu(jac * weights[:, None])
    if ratio > _SINGULAR_RATIO:
        return None
    out, _ = _GETRS(lu, piv, rhs * weights)
    if not np.isfinite(out).all():
        return None
    return out


def condition_estimate(jac, scales=None) -> float:
    """Pivot-ratio condition estimate of a (row-scaled) Jacobian; inf
    when the scaled Jacobian is singular or not finite."""
    a = np.asarray(jac, dtype=np.complex128)
    if scales is not None:
        a = a * (1.0 / (1.0 + scales))[:, None]
    return _pivoted_lu(a)[2]


def _newton(system, params, point, tol, max_iters, max_move=None):
    """Newton iteration at fixed parameters.

    Returns (best_point, best_residual, best_state), where best_state is
    the (values, scales, jacobian) of ``system.full_state`` at
    best_point.  Stops early on tolerance, a singular linear solve, a
    residual increase past the best seen, or (when ``max_move`` is
    given) an update larger than ``max_move`` in the sup norm.  The move
    cap rejects corrector overshoots: near an ill-conditioned point the
    computed step can be orders of magnitude longer than the Newton
    basin, and applying it would land on an unrelated sheet or in a
    region where the residual explodes.
    """
    x = np.asarray(point, dtype=np.complex128).copy()
    state = system.full_state(x, params)
    res = float(np.max(np.abs(state[0]) / (1.0 + state[1])))
    best_x, best_res, best_state = x, res, state
    for _ in range(max_iters):
        if best_res < tol:
            break
        vals, scales, jac = state
        dx = _lu_solve_scaled(jac, -vals, scales)
        if dx is None:
            break
        if max_move is not None and float(np.max(np.abs(dx))) > max_move:
            break
        x = x + dx
        state = system.full_state(x, params)
        res = float(np.max(np.abs(state[0]) / (1.0 + state[1])))
        if not np.isfinite(res):
            break
        if res < best_res:
            best_x, best_res, best_state = x, res, state
        elif res > 10.0 * best_res:
            break
    return best_x, best_res, best_state


def newton_refine(system, params, point, tol=1e-10, max_iters=20):
    """Polish an approximate solution at fixed parameters.

    Args:
        system: square PolySystem.
        params: parameter values.
        point: initial approximation of the unknowns.
        tol: target scaled residual.
        max_iters: iteration cap.

    Returns:
        (point, residual): the best iterate found and its scaled
        residual, which is <= tol when the iteration converged.

    Raises:
        SingularJacobianError: if the Jacobian at the input point has a
            pivot-ratio condition estimate above 1e12.
    """
    params = np.asarray(params, dtype=np.complex128)
    x = np.asarray(point, dtype=np.complex128)
    _, scales, jac = system.full_state(x, params)
    if condition_estimate(jac, scales) > 1e12:
        raise SingularJacobianError("Jacobian numerically singular at input point")
    return _newton(system, params, x, tol, max_iters)[:2]


def track(homotopy: SegmentHomotopy, start, settings: TrackSettings | None = None) -> PathResult:
    """Track one solution of a segment homotopy from t=0 to t=1.

    Args:
        homotopy: the parameter segment to follow.
        start: solution of the system at ``params_at(0)``.
        settings: step-control settings (defaults used when omitted).

    Returns:
        PathResult with the endpoint at t=1 on success; otherwise the
        last accepted point and the reason tracking stopped.
    """
    st = settings or TrackSettings()
    sys_ = homotopy.system
    x = np.asarray(start, dtype=np.complex128).copy()
    dp = homotopy.dparams

    params0 = homotopy.params_at(0.0)
    vals, scales, jac = sys_.full_state(x, params0)
    res = float(np.max(np.abs(vals) / (1.0 + scales)))
    if not res < 10.0 * st.corrector_tol:
        x, res, (vals, scales, jac) = _newton(
            sys_, params0, x, st.corrector_tol, st.max_corrector_iters
        )
        if not res < st.corrector_tol:
            raise ValueError(f"start point is not a solution at t=0 (residual {res:.3e})")

    t = 0.0
    step = st.initial_step
    streak = 0
    steps_taken = 0
    while t < 1.0:
        if steps_taken >= st.max_steps:
            return PathResult(PathStatus.STEP_LIMIT, x, res, steps_taken)
        hitting_end = step >= (1.0 - t)
        t_next = 1.0 if hitting_end else t + step
        h = t_next - t

        # Euler predictor along the parameter velocity.
        rhs = -sys_.param_tangent(x, dp)
        dxdt = _lu_solve_scaled(jac, rhs, scales)
        if dxdt is None:
            x_pred = x
            max_move = None
        else:
            x_pred = x + h * dxdt
            # The corrector only has to undo the predictor's curvature
            # error; budget it one predictor length plus a floor, and
            # treat anything larger as a failed step so that h halves.
            max_move = h * float(np.max(np.abs(dxdt))) + 1.5e-8 * (
                1.0 + float(np.max(np.abs(x)))
            )

        params_next = homotopy.params_at(t_next)
        x_new, res_new, state_new = _newton(
            sys_,
            params_next,
            x_pred,
            st.corrector_tol,
            st.max_corrector_iters,
            max_move=max_move,
        )
        steps_taken += 1

        if res_new < st.corrector_tol:
            t = t_next
            x = x_new
            res = res_new
            if float(np.max(np.abs(x))) > st.divergence_norm:
                return PathResult(PathStatus.DIVERGED, x, res, steps_taken)
            vals, scales, jac = state_new
            streak += 1
            if streak >= 3:
                step = min(step * 2.0, st.max_step)
                streak = 0
        else:
            streak = 0
            step = h / 2.0
            if step < st.min_step:
                return PathResult(PathStatus.SINGULAR, x, res, steps_taken)

    return PathResult(PathStatus.SUCCESS, x, res, steps_taken)


def solve_total_degree(
    targets,
    settings: TrackSettings | None = None,
    rng: np.random.Generator | None = None,
    salvage_singular: bool = False,
):
    """Find isolated roots of a square system by a total-degree homotopy.

    The start system is diagonal, ``s_i * (u_i**d_i - b_i)`` with random
    complex ``b_i`` and d_i the total degree of the i-th target, so the
    prod(d_i) start roots are explicit.  Each start coefficient vector is
    already generic complex, which keeps the straight coefficient
    segment to the target off the discriminant with probability one.
    Surplus paths (targets with fewer roots than the start count)
    diverge and are dropped.

    Args:
        targets: list of MPoly, all in the same unknowns, square.
        settings: tracking settings.
        rng: randomness source for the start system.
        salvage_singular: also keep paths that stall near t=1 with a
            singular Jacobian (double roots of the target), accepting
            their polished endpoints when the residual still clears
            1e-8.  Double roots converge linearly under Newton, which
            caps the endpoint accuracy near sqrt(eps); the residual of
            such a point is quadratically small, so the looser gate
            admits exactly the near-multiple roots and nothing else.

    Returns:
        List of (endpoint, residual) pairs for every path that reached
        t=1, polished against the target system.
    """
    st = settings or TrackSettings()
    rng = rng or np.random.default_rng(0)
    n = len(targets)
    if n == 0 or any(p.num_vars != n for p in targets):
        raise ValueError("need a square system: n polynomials in n variables")
    degrees = [max(1, p.total_degree()) for p in targets]

    # Shared coefficient space: one parameter per (equation, monomial).
    supports = []
    for i, p in enumerate(targets):
        sup = set(p.terms)
        diag = tuple(degrees[i] if j == i else 0 for j in range(n))
        sup.add(diag)
        sup.add((0,) * n)
        supports.append(sorted(sup, reverse=True))
    num_params = sum(len(s) for s in supports)

    polys = []
    p_start = np.zeros(num_params, dtype=np.complex128)
    p_end = np.zeros(num_params, dtype=np.complex128)
    offset = 0
    start_axis_roots = []
    for i, p in enumerate(targets):
        scale = max(abs(c) for c in p.terms.values()) if p.terms else 1.0
        b = scale * (0.5 + rng.random()) * cmath.exp(2j * cmath.pi * rng.random())
        diag = tuple(degrees[i] if j == i else 0 for j in range(n))
        zero = (0,) * n
        terms = {}
        for k, mono in enumerate(supports[i]):
            expo = mono + tuple(
                1 if offset + k == q else 0 for q in range(num_params)
            )
            terms[expo] = 1.0
            p_end[offset + k] = p.terms.get(mono, 0j)
            if mono == diag:
                p_start[offset + k] = scale
            elif mono == zero:
                p_start[offset + k] = -b
        polys.append(MPoly(n + num_params, terms))
        root = (b / scale) ** (1.0 / degrees[i])
        start_axis_roots.append(
            [root * cmath.exp(2j * cmath.pi * k / degrees[i]) for k in range(degrees[i])]
        )
        offset += len(supports[i])

    system = PolySystem(polys, num_unknowns=n, num_params=num_params)
    hom = SegmentHomotopy(system, p_start, p_end)
    starts = (np.asarray(c, dtype=np.complex128) for c in itertools.product(*start_axis_roots))
    return track_and_polish(hom, starts, st, salvage_singular)


def track_and_polish(
    homotopy: SegmentHomotopy,
    starts,
    settings: TrackSettings | None = None,
    salvage_singular: bool = False,
):
    """Track every start to t=1 and Newton-polish each endpoint at
    ``params_end``; ``salvage_singular`` is as in ``solve_total_degree``.

    Returns the (endpoint, residual) pairs that passed polish, in start
    order.
    """
    st = settings or TrackSettings()
    system, p_end = homotopy.system, homotopy.params_end
    found = []
    for start in starts:
        result = track(homotopy, start, st)
        if result.success:
            x, res, _ = _newton(system, p_end, result.endpoint, 1e-13, 30)
            if res < st.corrector_tol:
                found.append((x, res))
        elif salvage_singular and result.status in (
            PathStatus.SINGULAR,
            PathStatus.STEP_LIMIT,
        ):
            if float(np.max(np.abs(result.endpoint))) > st.divergence_norm:
                continue
            x, res, _ = _newton(system, p_end, result.endpoint, 1e-13, 60)
            if res < 1e-8:
                found.append((x, res))
    return found
