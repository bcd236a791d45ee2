"""The parameter graph's rounds, the registry and the canonical metric."""

import cmath
import json

import numpy as np
import pytest

from tensorid import monodromy
from tensorid.cli import _json_default
from tensorid.homotopy import (
    PathResult,
    PathStatus,
    SingularJacobianError,
    track,
)
from tensorid.monodromy import (
    Edge,
    SampledStartError,
    SolutionRegistry,
    StopPolicy,
    canonical_distance,
    solve,
    triangle_loop,
)
from tensorid.poly import PolySystem
from tensorid.realcert import classify
from tensorid.waring import (
    Decomposition,
    Summand,
    TensorParams,
    WaringSpec,
    build_system,
    bundled_fixture_path,
    decomposition_sampler,
    enumerate_decompositions,
    load_start,
    random_real_start,
    reconstruction_error,
    sylvester_oracle,
    tensor_from_decomposition,
)


def _dec(*pairs):
    return Decomposition(tuple(Summand((complex(l),), complex(lam)) for l, lam in pairs))


def test_canonical_distance_permutation_invariant():
    a = _dec((1.0, 2.0), (3.0, -1.0), (0.5j, 4.0))
    b = Decomposition(tuple(reversed(a.summands)))
    assert canonical_distance(a, b) == 0.0


def test_canonical_distance_single_perturbation():
    # all coordinates below 1: the size normalization keeps the distance
    # within a factor 2 of the raw perturbation
    a = _dec((0.3, 0.7), (-0.2, 0.4))
    b = _dec((0.3, 0.7 + 1e-3), (-0.2, 0.4))
    d = canonical_distance(a, b)
    assert 5e-4 <= d <= 2e-3


def test_canonical_distance_shape_mismatch():
    a = _dec((1.0, 2.0))
    b = _dec((1.0, 2.0), (2.0, 1.0))
    with pytest.raises(ValueError):
        canonical_distance(a, b)


def test_canonical_distance_conjugate_detects_autoconjugacy():
    # multiset closed under conjugation but not real
    a = _dec((1j, 2.0), (-1j, 2.0))
    assert canonical_distance(a, a.conjugate()) == 0.0
    b = _dec((1j, 2.0), (0.5j, 1.0))
    assert canonical_distance(b, b.conjugate()) > 1e-3


def test_stop_policy_validation():
    with pytest.raises(ValueError):
        StopPolicy(stable_loops=0)
    with pytest.raises(ValueError):
        StopPolicy(target_count=0)


def test_registry_idempotent_and_rejects_non_solutions():
    spec = WaringSpec(3, 1, 2)
    start, tensor = random_real_start(spec, seed=2)
    sys_ = build_system(spec)
    reg = SolutionRegistry(sys_, np.asarray(tensor.coeffs), n=1)
    assert reg.insert(start)
    assert not reg.insert(start)  # duplicate
    assert len(reg) == 1
    junk = Decomposition(
        (Summand((0.123,), 1.0 + 0j), Summand((4.56,), -2.0 + 0j))
    )
    assert not reg.insert(junk)
    assert len(reg) == 1


def test_registry_serialize_shape():
    spec = WaringSpec(3, 1, 2)
    start, tensor = random_real_start(spec, seed=2)
    reg = SolutionRegistry(build_system(spec), np.asarray(tensor.coeffs), n=1)
    reg.insert(start)
    blob = reg.serialize(d=3)
    assert blob["r"] == 2 and blob["n"] == 1 and blob["d"] == 3
    assert len(blob["solutions"]) == 1
    summand = blob["solutions"][0]["summands"][0]
    (l,) = summand["l"]
    assert l == reg.solutions[0].summands[0].l[0] and isinstance(summand["lambda"], complex)
    # the report's JSON hook writes each complex value as an [re, im] pair
    assert json.loads(json.dumps(summand, default=_json_default))["l"] == [[l.real, l.imag]]
    assert blob["graph"] is None and blob["history"] == []


def test_binary_cubic_loops_find_nothing_new():
    # unique decomposition: no round adds a point at the base node
    spec = WaringSpec(3, 1, 2)
    start, tensor = random_real_start(spec, seed=4)
    reg = enumerate_decompositions(
        spec, start, tensor, policy=StopPolicy(stable_loops=5, max_loops=50), seed=4
    )
    assert len(reg) == 1
    assert all(record["new"][0] == 0 for record in reg.history)
    oracle = sylvester_oracle(tensor, 2)
    assert canonical_distance(oracle, reg.solutions[0]) < 1e-6


def test_binary_quintic_matches_oracle():
    spec = WaringSpec(5, 1, 3)
    start, tensor = random_real_start(spec, seed=7)
    reg = enumerate_decompositions(
        spec, start, tensor, policy=StopPolicy(stable_loops=5, max_loops=50), seed=7
    )
    assert len(reg) == 1
    oracle = sylvester_oracle(tensor, 3)
    assert canonical_distance(oracle, reg.solutions[0]) < 1e-6


def test_solve_seed_determinism():
    spec = WaringSpec(5, 1, 3)
    start, tensor = random_real_start(spec, seed=11)
    kw = dict(policy=StopPolicy(stable_loops=3, max_loops=20), seed=123)
    a = enumerate_decompositions(spec, start, tensor, **kw)
    b = enumerate_decompositions(spec, start, tensor, **kw)
    assert a.history == b.history
    assert len(a) == len(b)
    for da, db in zip(a.solutions, b.solutions):
        assert canonical_distance(da, db) == 0.0


def test_solve_rejects_bad_start():
    spec = WaringSpec(3, 1, 2)
    _, tensor = random_real_start(spec, seed=1)
    bad = Decomposition((Summand((1.0,), 1.0 + 0j), Summand((2.0,), 1.0 + 0j)))
    with pytest.raises(ValueError):
        solve(build_system(spec), np.asarray(tensor.coeffs), bad, decomposition_sampler(spec, bad))


def test_registry_monotone_history():
    spec = WaringSpec(5, 1, 3)
    start, tensor = random_real_start(spec, seed=5)
    reg = enumerate_decompositions(
        spec, start, tensor, policy=StopPolicy(stable_loops=3, max_loops=20), seed=5
    )
    assert all(min(record["new"]) >= 0 for record in reg.history)
    assert [record["round"] for record in reg.history] == list(range(len(reg.history)))


def test_triangle_loop_transports_all_solutions():
    spec = WaringSpec(5, 1, 3)
    start, tensor = random_real_start(spec, seed=6)
    sys_ = build_system(spec)
    base = np.asarray(tensor.coeffs)
    reg = SolutionRegistry(sys_, base, n=1)
    reg.insert(start)
    new = triangle_loop(reg, *_loop_draws(decomposition_sampler(spec, start)))
    assert new >= 0
    assert len(reg) >= 1  # the start never disappears


@pytest.mark.parametrize("value", [np.nan, 1e200])
def test_registry_rejects_non_finite_residual(value):
    spec = WaringSpec(5, 1, 3)
    start, tensor = random_real_start(spec, seed=6)
    reg = SolutionRegistry(build_system(spec), np.asarray(tensor.coeffs), n=1)
    assert reg.insert(start)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not reg.insert(np.full(spec.num_unknowns, value, dtype=complex))
    assert len(reg) == 1


def _loop_draws(sampler):
    """A triangle's two auxiliary parameter tuples and its exit twist,
    drawn from ``sampler`` and one unit-modulus gamma with seed 0."""
    rng = np.random.default_rng(0)
    aux = tuple(np.asarray(sampler(rng)[0], dtype=np.complex128) for _ in range(2))
    return aux, cmath.exp(2j * cmath.pi * rng.random())


def _quintic_registry(copies):
    """A (5,1,3) registry holding the start and ``copies - 1`` reorderings
    of its summands, so that a loop's first leg carries ``copies`` points;
    every endpoint is the one decomposition again."""
    spec = WaringSpec(5, 1, 3)
    start, tensor = random_real_start(spec, seed=6)
    base = np.asarray(tensor.coeffs)
    reg = SolutionRegistry(build_system(spec), base, n=1)
    reg.insert(start)
    summands = start.summands
    for shift in range(1, copies):
        reg.solutions.append(Decomposition(summands[shift:] + summands[:shift]))
    return reg, _loop_draws(decomposition_sampler(spec, start))


def test_triangle_loop_matches_solo_transports(monkeypatch):
    # the loop's three single-edge rounds give the endpoints that chaining
    # one-path track calls gives, bit for bit, with each vertex's
    # registry polishing and deduplicating what reaches it: the two
    # reorderings reach q1 as one point
    reg, loop = _quintic_registry(2)
    system, p0 = reg.system, reg.base_params
    (q1, q2), gamma = loop
    at_q1 = SolutionRegistry(system, q1, n=1)
    for dec in reg.solutions:
        x = dec.to_vector()
        x[1::2] *= gamma
        result = track(system, gamma * p0, q1, x)
        assert result.success
        at_q1.insert(result.endpoint)
    assert len(at_q1) == 1
    at_q2 = SolutionRegistry(system, q2, n=1)
    for dec in at_q1.solutions:
        at_q2.insert(track(system, q1, q2, dec.to_vector()).endpoint)
    solo = [track(system, q2, p0, dec.to_vector()).endpoint for dec in at_q2.solutions]

    inserted = []
    insert = reg.insert

    def recording_insert(candidate):
        inserted.append(candidate)
        return insert(candidate)

    monkeypatch.setattr(reg, "insert", recording_insert)
    assert triangle_loop(reg, *loop) == 0
    assert len(inserted) == len(solo) == 1
    assert np.array_equal(inserted[0], solo[0])
    assert reg.transports_lost == 0 and len(reg) == 2


def test_triangle_loop_counts_lost_transports(monkeypatch):
    reg, loop = _quintic_registry(2)
    stored = len(reg)

    def failing_track_paths(system, origin, target, starts):
        return [PathResult(PathStatus.SINGULAR, np.asarray(x), 1.0, 1) for x in starts]

    monkeypatch.setattr(monodromy, "track_paths", failing_track_paths)
    assert triangle_loop(reg, *loop) == 0
    assert reg.transports_lost == stored == 2
    assert reg.serialize(d=5)["transports_lost"] == stored


def test_triangle_loop_drops_a_transport_lost_mid_loop(monkeypatch):
    # both points reach q1 as one, and that one is lost on leg 1, so
    # nothing comes back home
    reg, loop = _quintic_registry(2)
    carried = []
    track_paths = monodromy.track_paths

    def leg1_loses_row0(system, origin, target, starts):
        carried.append(len(starts))
        results = track_paths(system, origin, target, starts)
        if len(carried) == 2:
            results[0] = PathResult(PathStatus.SINGULAR, results[0].endpoint, 1.0, 1)
        return results

    monkeypatch.setattr(monodromy, "track_paths", leg1_loses_row0)
    assert triangle_loop(reg, *loop) == 0
    assert carried == [2, 1]
    assert reg.transports_lost == 1
    assert len(reg) == 2


def test_solve_rejects_singular_start():
    # two equal summands: the form has the start as a solution, but a
    # singular one, so every transport would be lost
    spec = WaringSpec(5, 1, 3)
    start, _ = random_real_start(spec, seed=6)
    double = Decomposition((start.summands[0],) * 2 + start.summands[2:])
    tensor = tensor_from_decomposition(spec, double)
    with pytest.raises(SingularJacobianError, match="pivot ratio"):
        solve(build_system(spec), np.asarray(tensor.coeffs), double,
              decomposition_sampler(spec, double))


def _assert_same_run(got, want):
    assert got.serialize() == want.serialize()
    assert [d.to_vector().tobytes() for d in got.solutions] == [
        d.to_vector().tobytes() for d in want.solutions
    ]


def _square_roots(copies=1):
    """lam x^2 - a = 0, lam - b = 0 as a one-summand 'decomposition'
    (x, lam) at a complex base (a, b): jointly linear in lam and the
    parameters, like a Waring system, with two solutions x = +-sqrt(a/b),
    swapped by every loop that winds once around a = 0.  ``copies``
    independent copies, at distinct bases, make a system of 2 * copies
    unknowns whose summands are the copies.  The sampler draws random
    parameters and returns them with their root x = sqrt(a/b)."""
    rows = []
    for c in range(copies):
        x_sq_lam, lam = [0] * (2 * copies), [0] * (2 * copies)
        x_sq_lam[2 * c: 2 * c + 2] = (2, 1)
        lam[2 * c + 1] = 1
        zero = (0,) * (2 * copies)
        rows += [[(1.0, tuple(x_sq_lam), -1), (-1.0, zero, 2 * c)],
                 [(1.0, tuple(lam), -1), (-1.0, zero, 2 * c + 1)]]
    system = PolySystem(rows, num_unknowns=2 * copies, num_params=2 * copies)
    base = np.array([1.0 + 0.5j, 2.0 + 1.0j] * copies) * np.repeat(1.0 + 0.1 * np.arange(copies), 2)

    def root(params):
        a, b = params[0::2], params[1::2]
        return Decomposition(tuple(Summand((x,), lam) for x, lam in zip(np.sqrt(a / b), b)))

    def sampler(rng):
        params = rng.standard_normal(2 * copies) + 1j * rng.standard_normal(2 * copies)
        return params, root(params)

    return system, base, root(base), sampler


def test_round_counts_legs_that_jump_onto_a_matched_point(monkeypatch):
    # both roots leave p0 along one edge, and both legs are made to end
    # where the first one ends: the second leg has jumped
    system, base, start, sampler = _square_roots()
    (summand,) = start.summands
    home = SolutionRegistry(system, base, n=1)
    for sign in (1, -1):
        assert home.insert([sign * summand.l[0], summand.lam])
    far = SolutionRegistry(system, sampler(np.random.default_rng(0))[0], n=1)
    track_paths = monodromy.track_paths
    monkeypatch.setattr(
        monodromy, "track_paths",
        lambda system, origin, target, starts: [track_paths(system, origin, target, starts)[0]] * len(starts),
    )
    edge = Edge((0, 1), cmath.exp(0.3j))
    record = monodromy._round([home, far], [(edge, 0, 0), (edge, 0, 1)])
    assert record["jumps"] == 1 and record["lost"] == 0 and len(far) == 1
    assert edge.matched == ({0: 0, 1: 0}, {0: 0})
    # landing on a point whose own leg along the edge was lost is no jump
    edge = Edge((0, 1), cmath.exp(0.3j), ({}, {0: None}))
    record = monodromy._round([home, far], [(edge, 0, 0)])
    assert record["jumps"] == 0 and edge.matched == ({0: 0}, {0: None})


def _recording_track_paths(monkeypatch):
    """Record every ``track_paths`` call's results."""
    calls = []
    track_paths = monodromy.track_paths

    def recording(system, origin, target, starts):
        results = track_paths(system, origin, target, starts)
        calls.append((np.array(origin), np.array(target), results))
        return results

    monkeypatch.setattr(monodromy, "track_paths", recording)
    return calls


def test_solve_stacks_at_most_max_stack_starts(monkeypatch):
    # 18 copies of the square roots, 36 unknowns as in the septic: a
    # round of more than 8 legs is cut into calls of 8 and the rest,
    # and each round's record lists the rows of its calls
    system, base, start, sampler = _square_roots(copies=18)
    calls = _recording_track_paths(monkeypatch)
    reg = solve(system, base, start, sampler, StopPolicy(max_loops=2), seed=3)
    assert reg.stop_reason == "loop_budget"
    sizes = [len(results) for _, _, results in calls]
    assert max(sizes) == monodromy.MAX_STACK == monodromy._stack_rows(36) == 8
    assert sizes == [rows for record in reg.history for rows in record["calls"]]
    assert sum(sizes) == sum(record["legs"] for record in reg.history)
    assert reg.history[0]["legs"] == 12 and reg.history[0]["calls"] == [8, 4]


def test_stack_rows_by_system_size():
    # the septic (N = 36) and degree 8 (N = 45) keep 8 rows; a binary
    # form's round of 12 legs fits one call
    assert [monodromy._stack_rows(n) for n in (36, 45, 30, 8, 2)] == [8, 8, 11, 162, 2592]


def test_target_count_stops_after_the_round_that_reaches_it():
    system, base, start, sampler = _square_roots()
    full = solve(system, base, start, sampler, StopPolicy(), seed=4)
    first = next(k for k, record in enumerate(full.history) if record["new"][0])
    assert len(full.history) > first + 1
    got = solve(system, base, start, sampler, StopPolicy(target_count=2), seed=4)
    assert got.stop_reason == "target_count" and got.warning is None
    assert len(got) == 2
    assert got.history == full.history[: first + 1]


def test_ledger_is_deterministic_and_counts_every_leg(monkeypatch):
    # the report's per-round records repeat exactly, and their legs,
    # statuses and steps are those of the tracker's PathResults
    spec = WaringSpec(5, 1, 3)
    start, tensor = random_real_start(spec, seed=11)
    args = (spec, start, tensor)
    first = enumerate_decompositions(*args, seed=5).serialize(d=5)
    calls = _recording_track_paths(monkeypatch)
    reg = enumerate_decompositions(*args, seed=5)
    assert reg.serialize(d=5) == first
    assert first["graph"] == {"nodes": 3, "seeded": [1, 2], "edges_per_pair": 4, "fresh_edges": 0}
    results = [r for _, _, rs in calls for r in rs]
    history = first["history"]
    assert sum(record["legs"] for record in history) == len(results) == 12
    for status in PathStatus:
        assert sum(record["status"][status.value] for record in history) == sum(
            r.status is status for r in results)
    assert sum(record["steps"] for record in history) == sum(r.steps_taken for r in results)
    assert sum(record["lost"] for record in history) == first["transports_lost"] == sum(
        not r.success for r in results)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_binary_forms_match_legs_tracked_alone(d, monkeypatch):
    # the six forms of the waring-binary benchmark workload, at the
    # default stop rule: a tracker call per leg gives the registry and
    # the ledger of the stacked run, bit for bit, and no leg is lost;
    # with every node seeded, the whole search is one round of 12 legs
    # in one call of 12 rows
    spec = WaringSpec(d, 1, (d + 1) // 2)
    for i in range(2):
        form_seed = 1000 * d + i
        start, tensor = random_real_start(spec, seed=form_seed)
        args = (build_system(spec), np.asarray(tensor.coeffs), start,
                decomposition_sampler(spec, start), StopPolicy(), form_seed)
        stacked = solve(*args)
        with monkeypatch.context() as patch:
            patch.setattr(monodromy, "_stack_rows", lambda num_unknowns: 1)
            alone = solve(*args)
        assert [record["calls"] for record in alone.history] == [[1] * 12]
        alone.history[0]["calls"] = [12]
        _assert_same_run(alone, stacked)
        assert len(stacked) == 1 and stacked.stop_reason == "stable"
        assert [(record["legs"], record["calls"]) for record in stacked.history] == [(12, [12])]
        assert stacked.transports_lost == 0


def test_a_lost_leg_is_matched_from_the_other_end(monkeypatch):
    # the first leg, p0 -> q1 on the first edge, fails; another edge
    # brings the solution to q1, and a later round tracks it back along
    # the failed edge onto the start
    spec = WaringSpec(5, 1, 3)
    start, tensor = random_real_start(spec, seed=7)
    base = np.asarray(tensor.coeffs, dtype=complex)
    calls = []
    track_paths = monodromy.track_paths

    def first_leg_fails(system, origin, target, starts):
        results = track_paths(system, origin, target, starts)
        if not calls:
            results[0] = PathResult(PathStatus.SINGULAR, results[0].endpoint, 1.0, 1)
        calls.append((np.array(origin), np.array(target), results))
        return results

    monkeypatch.setattr(monodromy, "track_paths", first_leg_fails)
    reg = solve(build_system(spec), base, start, decomposition_sampler(spec, start),
                StopPolicy(), seed=7)
    assert reg.transports_lost == 1 and reg.stop_reason == "stable"
    assert len(reg) == 1
    assert canonical_distance(reg.solutions[0], sylvester_oracle(tensor, 3)) < 1e-6
    twisted_p0 = calls[0][0][0]
    gamma = twisted_p0[0] / base[0]
    back = [r for _, target, rs in calls[1:] for row, r in zip(target, rs)
            if np.array_equal(row, twisted_p0)]
    assert len(back) == 1 and back[0].success
    home = back[0].endpoint.copy()
    home[1::2] /= gamma
    assert canonical_distance(Decomposition.from_vector(home, 1), start) < 1e-6


def _binary_cubic():
    """The binary cubic of seed 4, one decomposition, as ``solve``'s
    system, base, start and sampler."""
    spec = WaringSpec(3, 1, 2)
    start, tensor = random_real_start(spec, seed=4)
    return build_system(spec), np.asarray(tensor.coeffs), start, decomposition_sampler(spec, start)


@pytest.mark.parametrize(
    "policy, reason",
    [
        (StopPolicy(stable_loops=2), "stable"),
        (StopPolicy(target_count=1), "target_count"),
        (StopPolicy(max_loops=1), "loop_budget"),
    ],
)
def test_solve_records_why_it_stopped(policy, reason):
    # the binary cubic's 2 edges per pair match every seeded node in one
    # round of 6 legs; the square roots' 12 legs of round 0 never bring
    # p0 its second root, so a budget of 1 round stops before the
    # fibers match
    problem = _square_roots if reason == "loop_budget" else _binary_cubic
    reg = solve(*problem(), policy, seed=4)
    assert reg.stop_reason == reason
    assert reg.serialize(d=3)["stop_reason"] == reason
    assert (reg.warning is not None) == (reason == "loop_budget")
    assert [record["legs"] for record in reg.history] == {
        "stable": [6], "target_count": [], "loop_budget": [12]}[reason]


def _failing(track_paths, rounds):
    """``track_paths`` with every leg of the first ``rounds`` calls lost."""
    calls = []

    def failing(system, origin, target, starts):
        calls.append(len(starts))
        results = track_paths(system, origin, target, starts)
        if len(calls) <= rounds:
            results = [PathResult(PathStatus.SINGULAR, r.endpoint, 1.0, 1) for r in results]
        return results

    return failing


def test_fresh_edges_join_fibers_of_unequal_size(monkeypatch):
    # one triangle on the square roots: every leg of round 0 is lost,
    # and after round 2 no leg is owed with fibers of sizes 2, 2 and 1;
    # one fresh edge to q2 from each other node brings q2 its second root
    system, base, start, sampler = _square_roots()
    monkeypatch.setattr(monodromy, "track_paths", _failing(monodromy.track_paths, 1))
    reg = solve(system, base, start, sampler, StopPolicy(stable_loops=1), seed=3)
    assert reg.stop_reason == "stable" and len(reg) == 2
    assert reg.graph["fresh_edges"] == 2
    assert reg.transports_lost == reg.history[0]["lost"] == 3
    sizes = [1 + sum(record["new"][k] for record in reg.history[:3]) for k in range(3)]
    assert sizes == [2, 2, 1]
    assert reg.history[3]["legs"] == 4 and reg.history[3]["new"] == [0, 0, 1]


def test_every_leg_lost_ends_at_the_loop_budget(monkeypatch):
    spec = WaringSpec(3, 1, 2)
    start, tensor = random_real_start(spec, seed=4)
    monkeypatch.setattr(monodromy, "track_paths", _failing(monodromy.track_paths, 10**6))
    reg = solve(build_system(spec), np.asarray(tensor.coeffs), start,
                decomposition_sampler(spec, start), StopPolicy(stable_loops=2, max_loops=5),
                seed=4)
    # every node keeps its seed, so the fibers have one size and no leg
    # is owed after round 1; fresh edges join the pairs that no edge has
    # joined: 3 after round 1 and 3 after round 3
    assert reg.stop_reason == "loop_budget" and reg.warning is not None
    assert len(reg.history) == 5 and len(reg) == 1
    assert reg.graph["fresh_edges"] == 6
    assert [record["legs"] for record in reg.history] == [6, 6, 3, 3, 3]
    assert reg.transports_lost == 21


def test_auxiliary_nodes_start_from_the_sampled_decompositions(monkeypatch):
    # before round 0, each auxiliary node of the septic's graph holds the
    # decomposition its sampler drew, which reconstructs its parameters
    spec = WaringSpec(7, 2, 12)
    start, tensor = load_start(str(bundled_fixture_path("deg7_rank12.json")), spec)
    sampler = decomposition_sampler(spec, start)
    rng = np.random.default_rng(0)
    drawn = [sampler(rng) for _ in range(2)]
    seen = []

    def first_round(nodes, legs):
        seen.extend(nodes)
        raise StopIteration

    monkeypatch.setattr(monodromy, "_round", first_round)
    with pytest.raises(StopIteration):
        solve(build_system(spec), np.asarray(tensor.coeffs), start, sampler, seed=0)
    for node, (params, dec) in zip(seen[1:], drawn):
        assert np.array_equal(node.base_params, params) and len(node) == 1
        assert canonical_distance(node.solutions[0], dec) < 1e-12
        assert reconstruction_error(spec, node.solutions[0], TensorParams(7, 2, params)) < 1e-12


def test_an_unsolvable_sampled_start_is_rejected():
    # a sampled start at x = 0, where the square roots' Jacobian is
    # singular, so Newton cannot polish it onto a root
    system, base, start, sampler = _square_roots()

    def singular(rng):
        params, _ = sampler(rng)
        return params, Decomposition((Summand((0j,), params[1]),))

    with pytest.raises(SampledStartError, match="node 1 does not solve"):
        solve(system, base, start, singular)


@pytest.mark.parametrize("seed", [1, 2])
def test_septic_fixture_at_more_loop_seeds(seed):
    spec = WaringSpec(7, 2, 12)
    start, tensor = load_start(str(bundled_fixture_path("deg7_rank12.json")), spec)
    reg = enumerate_decompositions(spec, start, tensor, policy=StopPolicy(stable_loops=2), seed=seed)
    assert reg.stop_reason == "stable"
    cls = classify(reg)
    assert (cls.total, cls.real_count, cls.autoconjugate_count, cls.conjugate_pair_count) == (5, 1, 2, 1)


def test_binary_septic_form_takes_fewer_path_steps(monkeypatch):
    # the form of seed 7000 at the default stop rule: its legs took 2,530
    # path-steps in all under an Euler predictor, and must take at most
    # 90% of that under the cubic Hermite one
    steps = []
    track_paths = monodromy.track_paths

    def counting(system, origin, target, starts):
        results = track_paths(system, origin, target, starts)
        steps.extend(r.steps_taken for r in results)
        return results

    monkeypatch.setattr(monodromy, "track_paths", counting)
    spec = WaringSpec(7, 1, 4)
    start, tensor = random_real_start(spec, seed=7000)
    registry = enumerate_decompositions(spec, start, tensor, seed=7000)
    assert len(registry) == 1
    assert sum(steps) <= 2277
