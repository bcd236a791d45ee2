"""Monodromy search for all decompositions of one target form.

Starting from a single known solution of the coefficient-matching
system at base parameters p0, each loop picks two fresh random complex
parameter tuples q1, q2 and tracks every known solution along the
triangle p0 -> q1 -> q2 -> p0.  Permuted sheets of the solution variety
come back as new solutions; the loop runs until no loop has produced
anything new for a while, a requested count is reached, or a loop
budget is exhausted.

Leaving a real base point, the first leg starts from the twisted base
gamma * p0, for a random unit-modulus gamma.  The system is jointly
linear in the weights and the parameters, so scaling every lambda by
gamma turns a known solution at p0 into an exact solution at
gamma * p0, and the segment gamma*p0 -> q1 stays clear of the real
discriminant.

The default stop rule, some number of consecutive fruitless loops, fixes
before a loop runs how many more loops will run whatever they find.
Those loops run as one batch: their triangles are drawn in order, and
the registry travels around all of them as one stack, one tracker call
per leg with each row on its own loop's segment, given as its own
origin and target parameter rows.  The loops are then
settled in order, each inserting its endpoints and carrying, in one
extra stack, whatever an earlier loop of the batch found; so every loop
carries the registry it would carry alone, and the solutions, history
and lost transports are those of running the loops one at a time.
"""

import cmath
from dataclasses import dataclass

import numpy as np

from .homotopy import (
    _SINGULAR_RATIO,
    SingularJacobianError,
    _newton,
    condition_estimate,
    track_paths,
)
from .waring import Decomposition

DEDUP_TOL = 1e-6
RESIDUAL_TOL = 1e-10
LAMBDA_TOL = 1e-10
# The largest stack a batch of loops is sized to.  Every distinct stack
# size costs the evaluator a cached copy of its index tables (see
# poly._TermTable), and per-path cost stops falling beyond about 16 rows.
MAX_STACK = 16


def _has_perfect_matching(allowed: np.ndarray) -> bool:
    """Bipartite perfect matching on a boolean r x r adjacency matrix."""
    r = allowed.shape[0]
    match_of_col = [-1] * r

    def try_assign(row, seen):
        for col in range(r):
            if allowed[row, col] and not seen[col]:
                seen[col] = True
                if match_of_col[col] == -1 or try_assign(match_of_col[col], seen):
                    match_of_col[col] = row
                    return True
        return False

    for row in range(r):
        if not try_assign(row, [False] * r):
            return False
    return True


def canonical_distance(a: Decomposition, b: Decomposition) -> float:
    """Distance between decompositions modulo summand order.

    Minimum over summand pairings of the largest coordinate-wise
    distance between paired summands, computed as a bottleneck
    assignment: binary search over candidate thresholds with an
    augmenting-path matching on the r x r distance matrix.

    Coordinates u, v are compared as |u - v| / (1 + max(|u|, |v|)):
    Newton-polished endpoints of one and the same solution scatter
    proportionally to their magnitude (times the Jacobian's condition
    number), so an absolute metric would split large-weight duplicates.
    The moduli are ``np.hypot`` of the real and imaginary parts, which
    agrees with Python's complex ``abs`` bit for bit (``np.abs`` does not).
    """
    if a.r != b.r or a.n != b.n:
        raise ValueError("decompositions have different shapes")
    u = a.to_vector().reshape(a.r, 1, a.n + 1)
    v = b.to_vector().reshape(1, b.r, b.n + 1)
    d = u - v
    size = np.maximum(np.hypot(u.real, u.imag), np.hypot(v.real, v.imag))
    dist = (np.hypot(d.real, d.imag) / (1.0 + size)).max(axis=2)
    values = np.unique(dist)
    lo, hi = 0, values.size - 1
    if _has_perfect_matching(dist <= values[0]):
        return float(values[0])
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if _has_perfect_matching(dist <= values[mid]):
            hi = mid
        else:
            lo = mid
    return float(values[hi])


@dataclass
class StopPolicy:
    """When to stop looping: whichever condition is met first."""

    stable_loops: int = 8
    target_count: int | None = None
    max_loops: int = 200

    def __post_init__(self):
        if self.stable_loops < 1 or self.max_loops < 1:
            raise ValueError("stable_loops and max_loops must be positive")
        if self.target_count is not None and self.target_count < 1:
            raise ValueError("target_count must be positive")


@dataclass
class LoopSpec:
    """One triangle: two auxiliary parameter tuples and the exit twist."""

    aux_params: tuple
    gamma_out: complex


def draw_loop(rng: np.random.Generator, twist_exit: bool, sampler) -> LoopSpec:
    """Sample the random data of one loop.

    The two auxiliary instances come from sampler(rng), which must
    return a parameter tuple drawn from a continuous distribution so the
    loop vertices stay generic.
    """
    aux = [np.asarray(sampler(rng), dtype=np.complex128) for _ in range(2)]
    gamma = cmath.exp(2j * cmath.pi * rng.random()) if twist_exit else 1.0 + 0j
    return LoopSpec(tuple(aux), gamma)


class SolutionRegistry:
    """Deduplicated solutions of one coefficient-matching system.

    Every stored decomposition is Newton-polished against the base
    parameters, satisfies the system to ``RESIDUAL_TOL`` (scaled), has
    no weight of modulus below ``LAMBDA_TOL``, and sits at least
    ``DEDUP_TOL`` from every other entry in canonical distance.
    ``transports_lost`` counts the loop transports dropped because one
    of their legs failed, and ``stop_reason`` says why ``solve`` stopped:
    "stable", "target_count" or "loop_budget".
    """

    def __init__(self, system, base_params, n: int):
        self.system = system
        self.base_params = np.asarray(base_params, dtype=np.complex128)
        self.n = int(n)
        self.solutions: list = []
        self.history: list = []
        self.warning: str | None = None
        self.transports_lost = 0
        self.stop_reason: str | None = None

    def insert(self, candidate) -> bool:
        """Polish, validate and store a candidate; False on duplicate or reject."""
        if isinstance(candidate, Decomposition):
            vec = candidate.to_vector()
        else:
            vec = np.asarray(candidate, dtype=np.complex128)
        vec, res, _ = _newton(self.system, self.base_params[None], vec[None], 5e-14, 25)
        if not res[0] < RESIDUAL_TOL:
            return False
        dec = Decomposition.from_vector(vec[0], self.n)
        if any(abs(s.lam) < LAMBDA_TOL for s in dec.summands):
            return False
        for stored in self.solutions:
            if canonical_distance(dec, stored) < DEDUP_TOL:
                return False
        self.solutions.append(dec)
        return True

    def __len__(self) -> int:
        return len(self.solutions)

    def serialize(self, d: int | None = None) -> dict:
        def pair(z):
            z = complex(z)
            return [z.real, z.imag]

        sols = []
        for dec in self.solutions:
            sols.append(
                {
                    "summands": [
                        {"l": [pair(v) for v in s.l], "lambda": pair(s.lam)}
                        for s in dec.summands
                    ]
                }
            )
        r = self.solutions[0].r if self.solutions else None
        return {
            "r": r,
            "n": self.n,
            "d": d,
            "solutions": sols,
            "history": [{"loop": i, "new": k} for i, k in self.history],
            "transports_lost": self.transports_lost,
            "stop_reason": self.stop_reason,
        }


def _scale_lambdas(vec: np.ndarray, n: int, factor: complex) -> np.ndarray:
    out = vec.copy()
    out[n :: n + 1] *= factor
    return out


def _transport(registry: SolutionRegistry, loops, solutions) -> list:
    """Carry ``solutions`` around the triangle of every loop in ``loops``
    as one stack: one ``track_paths`` call per leg, each row on the
    segment of its own loop.  The transports that finish a leg go on to
    the next.

    Returns, per loop, the endpoints of the transports that came back,
    in the order of ``solutions``, and how many were lost on the way.
    """
    p0 = registry.base_params
    owner = [b for b in range(len(loops)) for _ in solutions]
    xs = [
        _scale_lambdas(dec.to_vector(), registry.n, loop.gamma_out)
        for loop in loops
        for dec in solutions
    ]
    q1, q2 = (np.array([loop.aux_params[i] for loop in loops]) for i in (0, 1))
    # the parameter rows of each loop's vertices; leg 0 leaves the
    # twisted base, where the rescaled xs are solutions
    twisted = np.array([loop.gamma_out for loop in loops])[:, None] * p0
    for origin, target in ((twisted, q1), (q1, q2), (q2, np.broadcast_to(p0, q2.shape))):
        if not xs:
            break
        rows = np.array(owner)
        results = track_paths(registry.system, origin[rows], target[rows], xs)
        xs = [r.endpoint for r in results if r.success]
        owner = [b for b, r in zip(owner, results) if r.success]
    ends = [[] for _ in loops]
    for b, x in zip(owner, xs):
        ends[b].append(x)
    return [(e, len(solutions) - len(e)) for e in ends]


def triangle_loops(registry: SolutionRegistry, loops, target_count: int | None = None) -> list:
    """Carry every stored solution around each loop's triangle, the loops
    in order; returns how many endpoints were new, per loop.

    Each loop carries the registry as it stands when the loop's turn
    comes, and inserts its endpoints in stored order.  The snapshot
    taken before the first loop travels around every triangle as one
    stack; a solution that an earlier loop of the batch inserted travels
    around a later loop's triangle in one extra stack.  A transport whose
    leg fails is dropped and counted in ``registry.transports_lost``.
    Once the registry holds ``target_count`` solutions, the remaining
    loops are dropped.
    """
    snapshot = len(registry)
    carried = _transport(registry, loops, registry.solutions[:snapshot])
    news = []
    for loop, (xs, lost) in zip(loops, carried):
        found = registry.solutions[snapshot:]
        if found:
            ((more, more_lost),) = _transport(registry, [loop], found)
            xs, lost = xs + more, lost + more_lost
        registry.transports_lost += lost
        news.append(sum(registry.insert(x) for x in xs))
        if target_count is not None and len(registry) >= target_count:
            break
    return news


def triangle_loop(registry: SolutionRegistry, loop: LoopSpec) -> int:
    """``triangle_loops`` on one loop: how many of its endpoints were new."""
    return triangle_loops(registry, [loop])[0]


def solve(
    system,
    base_params,
    start: Decomposition,
    sampler,
    policy: StopPolicy | None = None,
    seed: int = 0,
) -> SolutionRegistry:
    """Monodromy enumeration of the solutions through one start point.

    Args:
        system: coefficient-matching PolySystem.
        base_params: parameters of the target form.
        start: known decomposition at the base parameters.
        sampler: sampler(rng) for the auxiliary parameter tuples.
        policy: stop conditions (defaults: 8 fruitless loops, cap 200).
        seed: randomness for the loop instances.

    The stop rule is checked before every batch of loops.  A batch is
    as many loops as the rule will run whatever they find (the fruitless
    loops still needed, within the loop budget), at most ``MAX_STACK``
    transports in all; its loops are drawn in order and carried as one
    stack by ``triangle_loops``, with the results of running them one
    at a time.

    Returns:
        SolutionRegistry; its ``stop_reason`` says which condition ended
        the search, and its ``warning`` field is set when the loop
        budget ran out before the count stabilized.

    Raises:
        ValueError: if the start does not solve the base system.
        SingularJacobianError: if the start's Jacobian at the base
            parameters fails the tracker's 1e14 pivot-ratio gate (for
            example two equal summands); every transport would be lost.
    """
    policy = policy or StopPolicy()
    base = np.asarray(base_params, dtype=np.complex128)
    registry = SolutionRegistry(system, base, n=start.n)
    if not registry.insert(start):
        raise ValueError("start decomposition does not solve the base system")
    _, scales, jac = system.full_state(registry.solutions[0].to_vector(), base)
    ratio = condition_estimate(jac, scales)
    if not ratio <= _SINGULAR_RATIO:
        raise SingularJacobianError(
            f"start decomposition is a singular solution: its Jacobian's pivot ratio "
            f"{ratio:.1e} exceeds {_SINGULAR_RATIO:.0e}, so no path can leave it"
        )

    scale = float(np.max(np.abs(base))) if base.size else 1.0
    real_base = float(np.max(np.abs(base.imag))) <= 1e-12 * (1.0 + scale)
    rng = np.random.default_rng(seed)

    fruitless, loop_index = 0, 0
    while True:
        if policy.target_count is not None and len(registry) >= policy.target_count:
            registry.stop_reason = "target_count"
            return registry
        if fruitless >= policy.stable_loops:
            registry.stop_reason = "stable"
            return registry
        if loop_index == policy.max_loops:
            registry.stop_reason = "loop_budget"
            registry.warning = (
                f"loop budget {policy.max_loops} exhausted before {policy.stable_loops} "
                f"consecutive fruitless loops"
            )
            return registry
        # the stop rule runs at least this many more loops; they share stacks
        batch = min(
            policy.stable_loops - fruitless,
            policy.max_loops - loop_index,
            max(1, MAX_STACK // len(registry)),
        )
        loops = [draw_loop(rng, twist_exit=real_base, sampler=sampler) for _ in range(batch)]
        for new in triangle_loops(registry, loops, policy.target_count):
            registry.history.append((loop_index, new))
            loop_index += 1
            fruitless = fruitless + 1 if new == 0 else 0
