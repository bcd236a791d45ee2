"""Predictor-corrector tracking of straight segments in parameter space.

Each path moves the parameters of a square PolySystem along its own
segment p(t) = (1 - t) * origin + t * target, t in [0, 1], given as one
parameter row per path (a caller that twists a segment by a
unit-modulus gamma passes the twisted origin).  The tracker advances
solutions along the induced ODE J dx/dt = -dF/dp * dp/dt: a cubic
Hermite predictor through the last two accepted points and their
tangents (Euler on a path's first step, or where the cubic strays
further from the Euler guess than the Euler step is long), then a short
Newton corrector at the new t.  Interior steps accept at ``TRACK_TOL``;
the start polish and every step landing at t=1 keep ``CORRECTOR_TOL``.
Step control sizes the next step from the corrector's effort: a step it
finishes in at most two iterations doubles the step, three multiply it
by 1.25 and four by 0.9 (up to ``MAX_STEP``); a rejected step halves it,
and a path whose step falls below ``MIN_STEP`` ends singular.  The
tangent at an accepted point is solved with the corrector's last
factorization, one Newton update away, so it costs a ``getrs`` and no
``getrf``; only a point the corrector accepted without iterating is
factored afresh.
``track_paths`` advances all starts in lockstep, each with its own
segment, t and step, through stacked evaluations; ``track`` is its
one-start call.

A path that reaches t=1 may still end on a singular solution, since the
predictor can carry it onto a multiple root.  ``track_and_polish``
decides that at the endpoint: it keeps a root only where Newton
converges quadratically there, that is where one more Newton step from
the polished point moves it by at most ``CORRECTOR_TOL`` relative.

All residuals in this module are term-magnitude scaled: an equation's
residual is divided by one plus the sum of the absolute values of its
evaluated terms.  Linear solves row-scale by the same quantities and
use LU with partial pivoting; the pivot ratio max|U_ii| / min|U_ii|
serves as the condition estimate.
"""

import cmath
import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from .poly import DimensionMismatchError, PolySystem


class SingularJacobianError(RuntimeError):
    """Jacobian too ill conditioned for a Newton step."""


class PathStatus(Enum):
    SUCCESS = "success"
    DIVERGED = "diverged"
    SINGULAR = "singular"
    STEP_LIMIT = "step_limit"


INITIAL_STEP = 0.05
MAX_STEP = 0.1
CORRECTOR_TOL = 1e-10
# interior steps only need to stay in the corrector's basin; the start
# and every endpoint at t=1 are held to CORRECTOR_TOL
TRACK_TOL = 1e-8
MAX_CORRECTOR_ITERS = 4
# the factor by which an accepted step grows, indexed by the corrector
# iterations it took (0 to MAX_CORRECTOR_ITERS)
STEP_GROWTH = (2.0, 2.0, 2.0, 1.25, 0.9)
DIVERGENCE_NORM = 1e8
# Coefficient-matching Jacobians of degree-7 and degree-8 forms are ill
# conditioned (condition numbers near 1e9 at generic points), so paths
# leaving a monodromy loop vertex move fast at first and the step has to
# shrink far below a generic floor before the corrector basin is
# reached; the step budget is raised to match.
MIN_STEP = 1e-13
MAX_STEPS = 200000
# solve_total_degree drops target coefficients this small
PRUNE_TOL = 1e-14


@dataclass
class PathResult:
    status: PathStatus
    endpoint: np.ndarray
    final_residual: float
    steps_taken: int
    # the path's Newton linear solves (start polish and every corrector
    # iteration) and its getrf calls: those plus the fresh tangent
    # factorizations of points accepted without iterating
    newton: int = 0
    factorizations: int = 0

    @property
    def success(self) -> bool:
        return self.status is PathStatus.SUCCESS


_SINGULAR_RATIO = 1e14
_GETRF, _GETRS = get_lapack_funcs(("getrf", "getrs"), dtype=np.complex128)


def _scaled_lu(jac, scales):
    """Row-scale each matrix of a (K, N, N) stack of Jacobians by the
    weights 1 / (1 + scales) and factor it with LAPACK getrf.

    Returns (lu, pivots, ratios, weights), where ratios[k] = max|U_ii| /
    min|U_ii| of matrix k, inf where a pivot is zero or the factors are
    not finite (as for a matrix with a non-finite entry).  Every solve and
    every condition estimate reads these ratios.
    """
    weights = 1.0 / (1.0 + scales)
    # the transposes of the row-scaled matrices, C-ordered, so that each
    # lu[i] is Fortran-ordered
    lu = np.multiply(jac.transpose(0, 2, 1), weights[:, None, :], order="C").transpose(0, 2, 1)
    pivots = [_GETRF(a, overwrite_a=True)[1] for a in lu]
    finite = np.isfinite(lu).all(axis=(1, 2)).tolist()
    ratios = []
    for i, diag in enumerate(np.abs(lu.diagonal(0, 1, 2)).tolist()):
        small = min(diag)
        ratios.append(max(diag) / small if finite[i] and small > 0.0 else math.inf)
    return lu, pivots, ratios, weights


def _factors(jac, scales):
    """The row-scaled factorization (lu, pivots, weights) of each matrix
    of a (K, N, N) stack, as a list with None where the matrix is not
    finite, has a zero pivot or a pivot ratio above 1e14.  Each matrix
    gets its own LAPACK getrf, so a path sees the pivots and the gate it
    would see alone."""
    lu, pivots, ratios, weights = _scaled_lu(jac, scales)
    return [None if ratio > _SINGULAR_RATIO else (lu[i], pivots[i], weights[i]) for i, ratio in enumerate(ratios)]


def _solve(factors, rhs):
    """Solve with a list of ``_factors``: row k of the (K, N) ``rhs`` by
    factorization k, one LAPACK getrs each.

    Returns (out, ok): the list entry ok[k] is False, with out[k] zero,
    where factors[k] is None or the solution is not finite.
    """
    out = np.zeros(rhs.shape, dtype=np.complex128)
    ok = []
    for i, factor in enumerate(factors):
        ok.append(factor is not None)
        if factor is not None:
            lu, pivots, weights = factor
            out[i] = _GETRS(lu, pivots, rhs[i] * weights)[0]
    if not np.isfinite(out).all():
        bad = ~np.isfinite(out).all(axis=1)
        out[bad] = 0.0
        ok = [good and not worse for good, worse in zip(ok, bad.tolist())]
    return out, ok


def _lu_solve_scaled(jac, rhs, scales):
    """Row-scaled LU solves of a (K, N, N) stack of Jacobians: out[k]
    solves jac[k] out[k] = rhs[k], as ``_solve`` with ``_factors``."""
    return _solve(_factors(jac, scales), rhs)


def condition_estimate(jac, scales) -> float:
    """The pivot ratio of the row-scaled (N, N) Jacobian ``jac``, the
    ratio every tracker step gates on; inf when the scaled Jacobian is
    singular, not finite or empty."""
    jac = np.asarray(jac, dtype=np.complex128)
    return _scaled_lu(jac[None], np.asarray(scales)[None])[2][0] if jac.size else math.inf


def _residuals(vals, scales):
    """Term-magnitude scaled residual of each row of a stack."""
    return np.maximum.reduce(np.abs(vals) / (1.0 + scales), axis=-1)


def _newton(system, params, points, tol, max_iters, max_move=None):
    """Newton iteration at fixed parameters for a (K, N) stack of points.

    ``params`` is the (K, P) stack of each row's parameters, ``tol`` one
    tolerance or a (K,) array of them, and ``max_move`` None or a (K,)
    array.  Returns (best_points, best_residuals, best_state, iterations,
    factors): best_state is the (values, scales, jacobian) stack of
    ``system.full_state`` at best_points, iterations[k] counts row k's
    iterations (one getrf each), and factors[k] is the ``_factors`` entry
    of its last one (None for a row that made none).  A row that ends
    below its tolerance after iterating got there on its last update, so
    its factorization is of the Jacobian one Newton update before its
    best point.

    Each row iterates as it would alone and stops on tolerance, a
    singular linear solve, a residual increase past the best seen, or
    (when ``max_move`` is given) an update larger than its ``max_move``
    in the sup norm; the rows still iterating share each evaluation.
    The move cap rejects corrector overshoots: near an ill-conditioned
    point the computed step can be orders of magnitude longer than the
    Newton basin, and applying it would land on an unrelated sheet or in
    a region where the residual explodes.
    """
    x = np.array(points, dtype=np.complex128)
    k = len(x)
    tol = np.broadcast_to(tol, (k,)).tolist()
    iterations, factors = [0] * k, [None] * k
    best = [x, *system.full_state(x, params)]
    best_res = _residuals(best[1], best[2]).tolist()
    rows = [i for i in range(k) if not best_res[i] < tol[i]]
    cur, move = best, max_move
    if len(rows) < k:
        cur, params = [a[rows] for a in best], params[rows]
        move = None if move is None else move[rows]
    for _ in range(max_iters):
        if not rows:
            break
        fac = _factors(cur[3], cur[2])
        for i, factor in zip(rows, fac):
            iterations[i] += 1
            factors[i] = factor
        dx, ok = _solve(fac, cur[1])
        if move is not None:
            far = (np.maximum.reduce(np.abs(dx), axis=1) > move).tolist()
            ok = [good and not too_far for good, too_far in zip(ok, far)]
        if not all(ok):
            rows = [i for i, go in zip(rows, ok) if go]
            if not rows:
                break
            cur, dx, params = [a[ok] for a in cur], dx[ok], params[ok]
            move = None if move is None else move[ok]
        x = cur[0] - dx
        cur = [x, *system.full_state(x, params)]
        better, keep = [], []
        for j, (i, r) in enumerate(zip(rows, _residuals(cur[1], cur[2]).tolist())):
            if r < best_res[i]:
                best_res[i] = r
                better.append(j)
            keep.append(math.isfinite(r) and not best_res[i] < tol[i] and not r > 10.0 * best_res[i])
        if len(better) == k:
            best = cur
        elif better:
            at = [rows[j] for j in better]
            for b, c in zip(best, cur):
                b[at] = c[better]
        if not all(keep):
            rows = [i for i, go in zip(rows, keep) if go]
            if not rows:
                break
            cur, params = [a[keep] for a in cur], params[keep]
            move = None if move is None else move[keep]
    return best[0], np.array(best_res), tuple(best[1:]), iterations, factors


def _hermite_guess(x, back_dt, speed, h, step_back, back_prev, speed_prev, h_prev):
    """Predicted points at t + h for a (K, N) stack of points x at t.

    Row k interpolates the cubic Hermite polynomial through its previous
    accepted point x + step_back, with derivative -back_prev, and through
    x, with derivative -back_dt, the step h_prev apart, and extrapolates
    it to t + h; with s = h / h_prev that is

        x + s^2 (3 + 2s) step_back - h s ((1 + s) back_prev + (2 + s) back_dt).

    A row gets the Euler guess x - h * back_dt instead where either
    tangent failed (``speed`` or ``speed_prev``, max |dx/dt|, is inf; a
    row without a previous point has ``speed_prev`` inf), or where the
    cubic moves the guess further from the Euler guess than the Euler
    step h * speed is long.  ``h``, ``speed``, ``speed_prev`` and
    ``h_prev`` are (K,) arrays.
    """
    hc = h[:, None]
    euler = x - hc * back_dt
    s = (h / h_prev)[:, None]
    corr = s * s * (3.0 + 2.0 * s) * step_back - hc * s * ((1.0 + s) * back_prev + (2.0 + s) * back_dt)
    cubic = (np.maximum.reduce(np.abs(corr), axis=1) <= h * speed) & np.isfinite(speed + speed_prev)
    return np.where(cubic[:, None], euler + corr, euler)


def track(system: PolySystem, origin, target, start) -> PathResult:
    """Track one solution along the segment from the (P,) parameter
    vector ``origin`` at t=0 to ``target`` at t=1; ``start`` solves the
    system at ``origin``.

    Returns a PathResult with the endpoint at t=1 on success; otherwise
    the last accepted point and the reason tracking stopped.  This is
    ``track_paths`` on one start.
    """
    return track_paths(system, np.asarray(origin)[None], np.asarray(target)[None], [start])[0]


def track_paths(system: PolySystem, origin, target, starts) -> list:
    """Track every start from t=0 to t=1 in lockstep, start k along the
    segment (1 - t) * origin[k] + t * target[k].

    ``origin`` and ``target`` are (K, P) arrays, one parameter row per
    start.  Each path keeps its own t, step, step count and status, and
    makes exactly the accept and reject decisions it makes when tracked
    alone; the live paths share each evaluation of the system and of its
    parameter tangent, as one (K, N) stack.  The predictor of each path
    is ``_hermite_guess`` from its last two accepted points; their
    tangents are computed once each, after the step that reached the
    point, with the factorization the corrector left there (a fresh one
    where the corrector did not iterate).  A rejected step keeps both
    tangents and the previous point, since the points, the Jacobian and
    the parameter velocity they came from are unchanged.  A path leaves
    the stack when it ends, and so do its segment's rows.

    Each start is first Newton-polished at its origin to ``CORRECTOR_TOL``
    (one already below it does not move).  Returns one PathResult per
    start, in start order.  Raises ValueError when ``origin`` or ``target``
    is not one parameter row per start, or a start does not polish.
    """
    starts = list(starts)
    shape = (len(starts), system.num_params)
    origin, target = (np.asarray(v, dtype=np.complex128) for v in (origin, target))
    for name, rows in (("origin", origin), ("target", target)):
        if rows.shape != shape:
            raise ValueError(f"{name} must have shape {shape}, one parameter row per start, got {rows.shape}")
    if not starts:
        return []
    k = len(starts)
    dp = target - origin

    def at(t):
        return (1.0 - t) * origin + t * target

    def factor_afresh(rows, fact, scales, jac):
        # a point accepted without a corrector iteration has no
        # factorization to solve its tangent with
        if rows:
            for j, f in zip(rows, _factors(jac[rows], scales[rows])):
                fact[j] = f
                factorizations[j] += 1

    x, res, (_, scales, jac), newton, fact = _newton(
        system, at(0.0), starts, CORRECTOR_TOL, MAX_CORRECTOR_ITERS
    )
    for r in res.tolist():
        if not r < CORRECTOR_TOL:
            raise ValueError(f"start point is not a solution at t=0 (residual {r:.3e})")
    factorizations = list(newton)
    factor_afresh([j for j in range(k) if not newton[j]], fact, scales, jac)

    results = [None] * k
    paths = list(range(k))  # the start of each live row
    t = [0.0] * k
    step = [INITIAL_STEP] * k
    steps = [0] * k
    stale = [True] * k  # the row's predictor tangent needs computing
    size = np.maximum.reduce(np.abs(x), axis=1)  # max |x| of each row
    back_dt = np.zeros_like(x)  # -dx/dt at x
    speed = np.zeros(k)  # max |dx/dt|, inf without a tangent
    # the previous accepted point, as the step back to it from x, its
    # -dx/dt and max |dx/dt|, and the step h between the two points; a
    # row without a previous point has speed_prev inf
    step_back = np.zeros_like(x)
    back_prev = np.zeros_like(x)
    speed_prev = np.full(k, np.inf)
    h_prev = np.ones(k)

    def end(j, status, point, residual):
        results[paths[j]] = PathResult(
            status, point.copy(), float(residual), steps[j], newton[j], factorizations[j]
        )

    while paths:
        t_next = [1.0 if s >= 1.0 - u else u + s for u, s in zip(t, step)]
        h = [v - u for v, u in zip(t_next, t)]
        hs = np.array(h)
        tol = np.array([CORRECTOR_TOL if u == 1.0 else TRACK_TOL for u in t_next])

        # Cubic Hermite predictor along the parameter velocity, from the
        # tangents at x and at the previous accepted point.
        fresh = [j for j, f in enumerate(stale) if f]
        if fresh:
            sel = fresh if len(fresh) < len(paths) else slice(None)
            # back is -dx/dt; rows without a tangent are zero
            back, ok = _solve([fact[j] for j in fresh], system.param_tangent(x[sel], dp[sel]))
            back_dt[sel] = back
            speed[sel] = np.maximum.reduce(np.abs(back), axis=1)
            if not all(ok):
                speed[[j for j, good in zip(fresh, ok) if not good]] = np.inf
            stale = [False] * len(paths)
        # the tangents were the factorizations' last use; free them before
        # the corrector leaves the next ones
        del fact
        # The corrector only has to undo the predictor's curvature
        # error; budget it one predictor length plus a floor, and treat
        # anything larger as a failed step so that h halves.  Without a
        # tangent the corrector starts at x, uncapped.
        x_new, res_new, state_new, iters, fact = _newton(
            system,
            at(np.array(t_next)[:, None]),
            _hermite_guess(x, back_dt, speed, hs, step_back, back_prev, speed_prev, h_prev),
            tol,
            MAX_CORRECTOR_ITERS,
            max_move=hs * speed + 1.5e-8 * (1.0 + size),
        )

        accepted = (res_new < tol).tolist()
        size_new = np.maximum.reduce(np.abs(x_new), axis=1)
        norms = size_new.tolist()
        unfactored = []
        for j, acc in enumerate(accepted):
            steps[j] += 1
            newton[j] += iters[j]
            factorizations[j] += iters[j]
            if acc:
                t[j] = t_next[j]
                stale[j] = True
                if norms[j] > DIVERGENCE_NORM:
                    end(j, PathStatus.DIVERGED, x_new[j], res_new[j])
                elif not t[j] < 1.0:
                    end(j, PathStatus.SUCCESS, x_new[j], res_new[j])
                elif not iters[j]:
                    unfactored.append(j)
                step[j] = min(step[j] * STEP_GROWTH[iters[j]], MAX_STEP)
            else:
                step[j] = h[j] / 2.0
                if step[j] < MIN_STEP:
                    end(j, PathStatus.SINGULAR, x[j], res[j])
        factor_afresh(unfactored, fact, *state_new[1:])
        if all(accepted):
            # every row is stale, so the next tangents overwrite back_dt
            # and speed whole
            step_back, h_prev = x - x_new, hs
            back_prev, back_dt, speed_prev, speed = back_dt, back_prev, speed, speed_prev
            x, res, size = x_new, res_new, size_new
        elif any(accepted):
            step_back[accepted] = x[accepted] - x_new[accepted]
            new = (back_dt, speed, hs, x_new, res_new, size_new)
            for a, b in zip((back_prev, speed_prev, h_prev, x, res, size), new):
                a[accepted] = b[accepted]

        live = []
        for j, i in enumerate(paths):
            if results[i] is None and steps[j] >= MAX_STEPS:
                end(j, PathStatus.STEP_LIMIT, x[j], res[j])
            if results[i] is None:
                live.append(j)
        if len(live) < len(paths):
            paths, t, step, steps, stale, fact, newton, factorizations = (
                [v[j] for j in live] for v in (paths, t, step, steps, stale, fact, newton, factorizations)
            )
            x, res, size, back_dt, speed = (a[live] for a in (x, res, size, back_dt, speed))
            step_back, back_prev, speed_prev, h_prev = (
                a[live] for a in (step_back, back_prev, speed_prev, h_prev)
            )
            origin, target, dp = (a[live] for a in (origin, target, dp))

    return results


def _target_terms(poly: dict, n: int) -> dict:
    """The terms of one target of ``solve_total_degree`` with |c| above
    ``PRUNE_TOL``, their exponents checked to be n non-negative integers."""
    terms = {}
    for expo, coeff in poly.items():
        if len(expo) != n:
            raise DimensionMismatchError(
                f"exponent {expo} has {len(expo)} entries, expected {n}: "
                "need n polynomials in n unknowns"
            )
        if any(e < 0 for e in expo):
            raise ValueError(f"negative exponent in {expo}")
        if abs(coeff) > PRUNE_TOL:
            terms[tuple(int(e) for e in expo)] = complex(coeff)
    return terms


def solve_total_degree(targets, rng: np.random.Generator | None = None):
    """Find isolated roots of a square system by a total-degree homotopy.

    The start system is diagonal, ``s_i * (u_i**d_i - b_i)`` with random
    complex ``b_i`` and d_i the total degree of the i-th target, so the
    prod(d_i) start roots are explicit.  Each start coefficient vector is
    already generic complex, which keeps the straight coefficient
    segment to the target off the discriminant with probability one.
    Surplus paths (targets with fewer roots than the start count)
    diverge and are dropped, and so are singular endpoints, as decided
    by ``track_and_polish``: a multiple root is not returned.

    Args:
        targets: n polynomials in n unknowns, each a dict mapping an
            exponent tuple of length n to its coefficient, e.g.
            ``{(2, 0): 1.0, (0, 1): -2.0}`` for ``x0^2 - 2*x1``.  Terms
            with |coefficient| <= ``PRUNE_TOL`` are dropped, so a zero
            leading coefficient does not raise a target's degree.
        rng: randomness source for the start system.

    Returns:
        List of (endpoint, residual) pairs for every path that reached
        t=1, polished against the target system.

    Raises:
        DimensionMismatchError: an exponent tuple whose length is not
            the number of targets.
        ValueError: no targets, or a negative exponent.
    """
    rng = rng or np.random.default_rng(0)
    n = len(targets)
    if n == 0:
        raise ValueError("need a square system: n polynomials in n unknowns")
    targets = [_target_terms(p, n) for p in targets]

    # Shared coefficient space: one parameter per (equation, monomial),
    # the monomials of a target's support with its x_i^d_i and 1.
    zero = (0,) * n
    rows, p_start, p_end, start_axis_roots = [], [], [], []
    for i, p in enumerate(targets):
        d = max([1, *map(sum, p)])
        diag = tuple(d if j == i else 0 for j in range(n))
        support = sorted({*p, diag, zero}, reverse=True)
        scale = max(map(abs, p.values())) if p else 1.0
        b = scale * (0.5 + rng.random()) * cmath.exp(2j * cmath.pi * rng.random())
        rows.append([(1.0, mono, len(p_end) + k) for k, mono in enumerate(support)])
        p_end += [p.get(mono, 0j) for mono in support]
        p_start += [scale if mono == diag else -b if mono == zero else 0j for mono in support]
        root = (b / scale) ** (1.0 / d)
        start_axis_roots.append([root * cmath.exp(2j * cmath.pi * k / d) for k in range(d)])

    system = PolySystem(rows, num_unknowns=n, num_params=len(p_end))
    starts = [np.asarray(c, dtype=np.complex128) for c in itertools.product(*start_axis_roots)]
    shape = (len(starts), len(p_end))
    origin, target = (np.broadcast_to(np.asarray(p, dtype=np.complex128), shape) for p in (p_start, p_end))
    return track_and_polish(system, origin, target, starts)


def track_and_polish(system: PolySystem, origin, target, starts):
    """Track every start to t=1 in lockstep, as ``track_paths``, and
    Newton-polish each endpoint at its own ``target`` row, as one stack.

    A path that reached t=1 ends on a regular root when its polished
    residual is below ``CORRECTOR_TOL`` and one more Newton step from
    the polished point succeeds and moves it by at most
    ``CORRECTOR_TOL`` relative (max |dx| / (1 + max |x|)), as it does
    where Newton converges quadratically.  Every other endpoint is
    singular and dropped.

    Returns the (endpoint, residual) pairs that passed polish, in start
    order.
    """
    results = track_paths(system, origin, target, starts)
    polished = []
    success = [i for i, r in enumerate(results) if r.success]
    if success:
        ends = [results[i].endpoint for i in success]
        x, res, (vals, scales, jac), *_ = _newton(system, np.asarray(target)[success], ends, 1e-13, 30)
        # one more Newton step from the polished point: at a regular root
        # it is a rounding-sized move, at a singular one it is not
        dx, ok = _lu_solve_scaled(jac, vals, scales)
        moves = np.maximum.reduce(np.abs(dx), axis=1) / (1.0 + np.maximum.reduce(np.abs(x), axis=1))
        for xi, r, good, move in zip(x, res.tolist(), ok, moves.tolist()):
            if good and move <= CORRECTOR_TOL and r < CORRECTOR_TOL:
                polished.append((xi, r))
    return polished
