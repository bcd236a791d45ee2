"""Monodromy search for all decompositions of one target form.

The search runs on a fixed parameter graph (Duff, Hill, Jensen, Lee,
Leykin and Sommars, "Solving polynomial systems via homotopy
continuation and monodromy", IMA J. Numer. Anal. 2019).  Its three
nodes are the base parameters p0 and two random tuples q1, q2, and each
pair of nodes is joined by e edges.  Edge (u, v, gamma) is the segment
from gamma * p_u to p_v, for a random unit-modulus gamma.  The system is
jointly linear in the weights and the parameters, so scaling every
lambda by gamma turns a solution at p_u into one at gamma * p_u; the
distinct gammas make the e edges of one pair distinct paths, and the
graph holds 3e - 2 independent cycles, each a monodromy loop.

Each node keeps its own registry, a partial fiber, and each edge a
partial matching between the fibers at its ends.  Every node starts
from a known solution, a parameter-solution pair: p0 from the caller's
start, and q1 and q2 from the decompositions the sampler drew them as
images of.  A round tracks, on every edge, the points of one end that
the edge has not matched yet, from the end with more of them, and
inserts the endpoints into the far node's registry.  So each solution is
tracked along each edge once, in one direction or the other, and a
solution found at any node spreads to the others in later rounds; a
form with one decomposition is settled in one round.  A round's legs
share tracker calls of as many rows as the system's size allows (see
``_stack_rows``).  A leg that fails leaves its point unmatched on that
edge; the point it should have reached, once some other edge finds it,
is tracked back along the same edge.  A leg landing on a point its edge
matched to another has jumped paths; rounds count jumps.  Stored
entries and tracked starts solve to ``CORRECTOR_TOL``.
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .homotopy import (
    _SINGULAR_RATIO,
    CORRECTOR_TOL,
    PathStatus,
    SingularJacobianError,
    _newton,
    condition_estimate,
    track_paths,
)
from .waring import Decomposition

DEDUP_TOL = 1e-6
LAMBDA_TOL = 1e-10
# The rows a tracker call may carry at any system size (see
# _stack_rows).  Rows bound the tracker's own (K, N, N) arrays and the
# evaluator's cached copy of its index tables per distinct stack size
# (see poly._TermTable); 8 rows keep the septic run's peak RSS within
# about 1 MB of one-leg calls, where 16 rows cost about 7 MB more, and
# one call per round cost 27 MB more on degree 8.
MAX_STACK = 8
# the node pairs, in the order their edges are drawn
PAIRS = ((0, 1), (0, 2), (1, 2))


class SampledStartError(ValueError):
    """A sampled auxiliary node's own solution does not polish at its parameters."""


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
    """When to stop: whichever condition is met first.

    ``stable_loops`` sizes the parameter graph: each pair of its nodes
    is joined by the smallest e edges with 3e - 2 >= stable_loops, so
    the graph holds at least that many independent loops.
    ``max_loops`` bounds the tracking rounds.
    """

    stable_loops: int = 8
    target_count: int | None = None
    max_loops: int = 200

    def __post_init__(self):
        if self.stable_loops < 1 or self.max_loops < 1:
            raise ValueError("stable_loops and max_loops must be positive")
        if self.target_count is not None and self.target_count < 1:
            raise ValueError("target_count must be positive")


def _unit(rng: np.random.Generator) -> complex:
    return cmath.exp(2j * cmath.pi * rng.random())


class SolutionRegistry:
    """Deduplicated solutions of one coefficient-matching system.

    Every stored decomposition is Newton-polished against the base
    parameters, satisfies the system to the tracker's ``CORRECTOR_TOL``
    (scaled), has no weight of modulus below ``LAMBDA_TOL``, and sits at
    least ``DEDUP_TOL`` from every other entry in canonical distance.

    The registry that ``solve`` returns also carries the search's
    ledger: ``graph`` is the parameter graph's shape, ``history`` holds
    one record per tracking round, ``transports_lost`` counts the legs
    whose endpoint was not matched (the leg failed, or its endpoint was
    rejected), and ``stop_reason`` says why the search stopped:
    "stable", "target_count" or "loop_budget".
    """

    def __init__(self, system, base_params, n: int):
        self.system = system
        self.base_params = np.asarray(base_params, dtype=np.complex128)
        self.n = int(n)
        self.solutions: list = []
        self.last_index: int | None = None
        self.graph: dict | None = None
        self.history: list = []
        self.warning: str | None = None
        self.transports_lost = 0
        self.stop_reason: str | None = None

    def insert(self, candidate) -> bool:
        """Polish, validate and store a candidate; False on duplicate or
        reject.  ``last_index`` is then the index of the entry the
        candidate was stored as or equals, or None if it was rejected."""
        self.last_index = None
        if isinstance(candidate, Decomposition):
            vec = candidate.to_vector()
        else:
            vec = np.asarray(candidate, dtype=np.complex128)
        vec, res, *_ = _newton(self.system, self.base_params[None], vec[None], 5e-14, 25)
        if not res[0] < CORRECTOR_TOL:
            return False
        dec = Decomposition.from_vector(vec[0], self.n)
        if any(abs(s.lam) < LAMBDA_TOL for s in dec.summands):
            return False
        for k, stored in enumerate(self.solutions):
            if canonical_distance(dec, stored) < DEDUP_TOL:
                self.last_index = k
                return False
        self.last_index = len(self.solutions)
        self.solutions.append(dec)
        return True

    def __len__(self) -> int:
        return len(self.solutions)

    def serialize(self, d: int | None = None) -> dict:
        """The registry as a report section; the report's JSON hook writes its complex values."""
        sols = [
            {"summands": [{"l": list(s.l), "lambda": s.lam} for s in dec.summands]}
            for dec in self.solutions
        ]
        r = self.solutions[0].r if self.solutions else None
        return {
            "r": r,
            "n": self.n,
            "d": d,
            "solutions": sols,
            "graph": self.graph,
            "history": self.history,
            "transports_lost": self.transports_lost,
            "stop_reason": self.stop_reason,
        }


def _scale_lambdas(vec: np.ndarray, n: int, factor: complex) -> np.ndarray:
    out = vec.copy()
    out[n :: n + 1] *= factor
    return out


@dataclass
class Edge:
    """The segment from gamma * p_u to p_v, ``ends`` = (u, v), and the
    matching it has recorded: ``matched[0]`` maps point indices at u to
    indices at v and ``matched[1]`` the reverse; a point whose leg was
    lost maps to None."""

    ends: tuple
    gamma: complex
    matched: tuple = field(default_factory=lambda: ({}, {}))

    @property
    def factors(self) -> tuple:
        """(gamma, 1): a leg's start is scaled by its own end's factor and its endpoint unscaled by the far end's."""
        return (self.gamma, 1.0)


def _pending(edge: Edge, nodes) -> list:
    """The legs ``edge`` still owes, from the end with more unmatched
    points (u on a tie), as (edge, side, index): side 0 runs u -> v and
    side 1 runs v -> u."""
    waiting = [
        [i for i in range(len(nodes[end])) if i not in done]
        for end, done in zip(edge.ends, edge.matched)
    ]
    side = int(len(waiting[1]) > len(waiting[0]))
    return [(edge, side, i) for i in waiting[side]]


def _stack_rows(num_unknowns: int) -> int:
    """The most legs one tracker call carries for a system of this size:
    as many as keep the (K, N, N) stack within the cells of 8 rows at
    N = 36 (the septic), and never fewer than ``MAX_STACK``.  A binary
    form's whole round is one call; the septic and degree 8 keep 8."""
    return max(MAX_STACK, MAX_STACK * 36**2 // num_unknowns**2)


def _round(nodes, legs) -> dict:
    """Track ``legs`` in calls of at most ``_stack_rows`` rows, each row
    on its own edge, then insert every endpoint into its far node's
    registry and record the match on the edge, in leg order.

    Lost legs are added to ``nodes[0].transports_lost``.  Returns the
    round's record: legs, the rows of each tracker call (``calls``),
    legs by status, path-steps, the legs' Newton linear solves and LU
    factorizations (``PathResult.newton`` and ``factorizations``), lost
    legs, jumps (legs landing on a point the edge matched to a different
    one; a point whose own leg was lost takes none) and the new points
    per node.
    """
    system, n = nodes[0].system, nodes[0].n
    origin, target, starts = [], [], []
    for edge, side, i in legs:
        here, there = (nodes[edge.ends[s]] for s in (side, 1 - side))
        origin.append(edge.factors[side] * here.base_params)
        target.append(edge.factors[1 - side] * there.base_params)
        starts.append(_scale_lambdas(here.solutions[i].to_vector(), n, edge.factors[side]))
    stack = _stack_rows(system.num_unknowns)
    results = []
    for k in range(0, len(legs), stack):
        rows = slice(k, k + stack)
        results += track_paths(system, np.array(origin[rows]), np.array(target[rows]), starts[rows])

    record = {
        "legs": len(legs),
        "calls": [min(stack, len(legs) - k) for k in range(0, len(legs), stack)],
        "status": {s.value: 0 for s in PathStatus},
        "steps": 0,
        "newton": 0,
        "factorizations": 0,
        "lost": 0,
        "jumps": 0,
        "new": [0] * len(nodes),
    }
    for (edge, side, i), result in zip(legs, results):
        record["status"][result.status.value] += 1
        record["steps"] += result.steps_taken
        record["newton"] += result.newton
        record["factorizations"] += result.factorizations
        far = edge.ends[1 - side]
        j = None
        if result.success:
            y = _scale_lambdas(result.endpoint, n, 1 / edge.factors[1 - side])
            record["new"][far] += nodes[far].insert(y)
            j = nodes[far].last_index
        edge.matched[side][i] = j
        if j is None:
            record["lost"] += 1
        else:
            record["jumps"] += edge.matched[1 - side].setdefault(j, i) not in (i, None)
    nodes[0].transports_lost += record["lost"]
    return record


def triangle_loop(registry: SolutionRegistry, aux_params, gamma_out: complex) -> int:
    """One loop p0 -> q1 -> q2 -> p0, with (q1, q2) = ``aux_params``, as
    three single-edge rounds: every stored solution along the edge
    (p0, q1, gamma_out), then every point that reached q1 along
    (q1, q2, 1), then every point that reached q2 along (q2, p0, 1).
    Returns how many endpoints were new at p0."""
    nodes = [registry] + [SolutionRegistry(registry.system, q, registry.n) for q in aux_params]
    before = len(registry)
    for edge in (Edge((0, 1), gamma_out), Edge((1, 2), 1.0), Edge((2, 0), 1.0)):
        _round(nodes, [(edge, 0, i) for i in range(len(nodes[edge.ends[0]]))])
    return len(registry) - before


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
        sampler: sampler(rng) -> (params, start), an auxiliary parameter
            tuple and a known solution there; each auxiliary node's
            registry holds its start before the first round.
        policy: stop conditions (defaults: 4 edges per node pair, so 10
            independent loops, and at most 200 rounds).
        seed: randomness for the graph: q1, q2, then each edge's gamma,
            pair by pair in ``PAIRS`` order.

    The search runs rounds (see ``_round``) until no edge owes a leg,
    the three fibers have one size and every pair of nodes has an edge
    that matched a point ("stable"), the base fiber holds
    ``target_count`` solutions, or ``max_loops`` rounds have run
    ("loop_budget", which also sets ``warning``).  When no edge owes a
    leg but a pair of nodes differs in size, as lost legs can leave
    them, or no edge of the pair has matched a point, as when every leg
    between them was lost, a fresh edge joins that pair, and its legs
    run in the rounds that follow, within the same budget.

    Returns:
        The base node's SolutionRegistry, with the graph's shape (and
        which nodes were seeded) and one record per round.

    Raises:
        ValueError: if the start does not solve the base system.
        SampledStartError: if a sampled start does not solve the system
            at its own sampled parameters.
        SingularJacobianError: if the start's Jacobian at the base
            parameters fails the tracker's 1e14 pivot-ratio gate (for
            example two equal summands); every leg would be lost.
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

    rng = np.random.default_rng(seed)
    nodes = [registry]
    for k in (1, 2):
        params, aux_start = sampler(rng)
        nodes.append(SolutionRegistry(system, params, start.n))
        if not nodes[k].insert(aux_start):
            raise SampledStartError(
                f"the start sampled for node {k} does not solve the system at its own parameters"
            )
    e = math.ceil((policy.stable_loops + 2) / 3)  # the least e with 3e - 2 >= stable_loops
    edges = [Edge(pair, _unit(rng)) for pair in PAIRS for _ in range(e)]
    registry.graph = {"nodes": len(nodes), "seeded": [1, 2], "edges_per_pair": e, "fresh_edges": 0}
    while True:
        if policy.target_count is not None and len(registry) >= policy.target_count:
            registry.stop_reason = "target_count"
            return registry
        legs = [leg for edge in edges for leg in _pending(edge, nodes)]
        if not legs:
            joined = {edge.ends for edge in edges
                      if any(j is not None for side in edge.matched for j in side.values())}
            unsettled = [pair for pair in PAIRS
                         if pair not in joined or len(nodes[pair[0]]) != len(nodes[pair[1]])]
            if not unsettled:
                registry.stop_reason = "stable"
                return registry
        if len(registry.history) == policy.max_loops:
            registry.stop_reason = "loop_budget"
            registry.warning = (
                f"loop budget of {policy.max_loops} rounds exhausted before every edge "
                f"matched the node fibers"
            )
            return registry
        if not legs:
            fresh = [Edge(pair, _unit(rng)) for pair in unsettled]
            registry.graph["fresh_edges"] += len(fresh)
            edges += fresh
            legs = [leg for edge in fresh for leg in _pending(edge, nodes)]
        registry.history.append({"round": len(registry.history), **_round(nodes, legs)})
