"""Loop orchestration, the registry and the canonical metric."""

import numpy as np
import pytest

from tensorid import monodromy
from tensorid.homotopy import (
    PathResult,
    PathStatus,
    SingularJacobianError,
    track,
)
from tensorid.monodromy import (
    SolutionRegistry,
    StopPolicy,
    canonical_distance,
    draw_loop,
    solve,
    triangle_loop,
    triangle_loops,
)
from tensorid.poly import PolySystem
from tensorid.waring import (
    Decomposition,
    Summand,
    WaringSpec,
    build_system,
    decomposition_sampler,
    enumerate_decompositions,
    random_real_start,
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
    reg.history.append((0, 1))
    blob = reg.serialize(d=3)
    assert blob["r"] == 2 and blob["n"] == 1 and blob["d"] == 3
    assert len(blob["solutions"]) == 1
    summand = blob["solutions"][0]["summands"][0]
    assert len(summand["l"]) == 1 and len(summand["l"][0]) == 2
    assert blob["history"] == [{"loop": 0, "new": 1}]


def test_draw_loop_uses_sampler_and_twist():
    rng = np.random.default_rng(0)
    calls = []

    def sampler(r):
        calls.append(1)
        return np.full(4, 2.0 + 1.0j)

    loop = draw_loop(rng, twist_exit=True, sampler=sampler)
    assert len(calls) == 2
    assert np.allclose(loop.aux_params[0], 2.0 + 1.0j)
    assert abs(abs(loop.gamma_out) - 1.0) < 1e-12
    plain = draw_loop(rng, twist_exit=False, sampler=sampler)
    assert plain.gamma_out == 1.0 + 0j


def test_binary_cubic_loops_find_nothing_new():
    # unique decomposition: every loop after the first returns 0 new
    spec = WaringSpec(3, 1, 2)
    start, tensor = random_real_start(spec, seed=4)
    reg = enumerate_decompositions(
        spec, start, tensor, policy=StopPolicy(stable_loops=5, max_loops=50), seed=4
    )
    assert len(reg) == 1
    assert all(new == 0 for _, new in reg.history)
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
    assert all(new >= 0 for _, new in reg.history)
    assert [i for i, _ in reg.history] == list(range(len(reg.history)))


def test_triangle_loop_transports_all_solutions():
    spec = WaringSpec(5, 1, 3)
    start, tensor = random_real_start(spec, seed=6)
    sys_ = build_system(spec)
    base = np.asarray(tensor.coeffs)
    reg = SolutionRegistry(sys_, base, n=1)
    reg.insert(start)
    rng = np.random.default_rng(0)
    loop = draw_loop(rng, twist_exit=True, sampler=decomposition_sampler(spec, start))
    new = triangle_loop(reg, loop)
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


def _quintic_registry(copies):
    """A (5,1,3) registry holding the start and ``copies - 1`` reorderings
    of its summands, so that a loop carries ``copies`` transports; every
    endpoint is the one decomposition again."""
    spec = WaringSpec(5, 1, 3)
    start, tensor = random_real_start(spec, seed=6)
    base = np.asarray(tensor.coeffs)
    reg = SolutionRegistry(build_system(spec), base, n=1)
    reg.insert(start)
    summands = start.summands
    for shift in range(1, copies):
        reg.solutions.append(Decomposition(summands[shift:] + summands[:shift]))
    rng = np.random.default_rng(0)
    loop = draw_loop(rng, twist_exit=True, sampler=decomposition_sampler(spec, start))
    return reg, loop


def test_triangle_loop_matches_solo_transports(monkeypatch):
    # the stacked legs give every transport the endpoint that chaining
    # one-path track calls over the same three legs gives, bit for bit;
    # leg 0 leaves the twisted base row that the loop's stack leaves from
    reg, loop = _quintic_registry(3)
    q1, q2 = loop.aux_params
    twisted = (np.array([loop.gamma_out])[:, None] * reg.base_params)[0]
    legs = ((twisted, q1), (q1, q2), (q2, reg.base_params))
    solo = []
    for dec in reg.solutions:
        x = dec.to_vector()
        x[1::2] *= loop.gamma_out
        for origin, target in legs:
            result = track(reg.system, origin, target, x)
            assert result.success
            x = result.endpoint
        solo.append(x)
    expected = SolutionRegistry(reg.system, reg.base_params, n=1)
    expected.solutions = reg.solutions[:]
    expected_new = sum(expected.insert(x) for x in solo)

    inserted = []
    insert = reg.insert

    def recording_insert(candidate):
        inserted.append(candidate)
        return insert(candidate)

    monkeypatch.setattr(reg, "insert", recording_insert)
    assert triangle_loop(reg, loop) == expected_new
    assert len(inserted) == len(solo) == 3
    for got, want in zip(inserted, solo):
        assert np.array_equal(got, want)
    assert reg.transports_lost == expected.transports_lost == 0
    assert [d.to_vector().tobytes() for d in reg.solutions] == [
        d.to_vector().tobytes() for d in expected.solutions
    ]


def test_triangle_loop_counts_lost_transports(monkeypatch):
    reg, loop = _quintic_registry(2)
    stored = len(reg)

    def failing_track_paths(system, origin, target, starts):
        return [PathResult(PathStatus.SINGULAR, np.asarray(x), 1.0, 1) for x in starts]

    monkeypatch.setattr(monodromy, "track_paths", failing_track_paths)
    assert triangle_loop(reg, loop) == 0
    assert reg.transports_lost == stored == 2
    assert reg.serialize(d=5)["transports_lost"] == stored


def test_triangle_loop_drops_a_transport_lost_mid_loop(monkeypatch):
    # row 0 fails on leg 1; row 1 finishes alone and comes back home
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
    assert triangle_loop(reg, loop) == 0
    assert carried == [2, 2, 1]
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


def _one_loop_at_a_time(system, base_params, start, sampler, policy, seed):
    """``solve`` with every loop run alone: the stop rule checked before
    each loop, and one ``triangle_loop`` per loop."""
    base = np.asarray(base_params, dtype=complex)
    registry = SolutionRegistry(system, base, n=start.n)
    assert registry.insert(start)
    real_base = float(np.max(np.abs(base.imag))) <= 1e-12 * (1.0 + float(np.max(np.abs(base))))
    rng = np.random.default_rng(seed)
    fruitless = 0
    for loop_index in range(policy.max_loops):
        if policy.target_count is not None and len(registry) >= policy.target_count:
            break
        if fruitless >= policy.stable_loops:
            break
        loop = draw_loop(rng, twist_exit=real_base, sampler=sampler)
        new = triangle_loop(registry, loop)
        registry.history.append((loop_index, new))
        fruitless = fruitless + 1 if new == 0 else 0
    return registry


def _assert_same_run(got, want):
    assert got.history == want.history
    assert got.transports_lost == want.transports_lost
    assert [d.to_vector().tobytes() for d in got.solutions] == [
        d.to_vector().tobytes() for d in want.solutions
    ]


def _square_roots():
    """x^2 - a = 0, lam - b = 0 as a one-summand 'decomposition' (x, lam)
    at a complex base (a, b): two solutions, swapped by every loop whose
    triangle winds around a = 0."""
    rows = [[(1.0, (2, 0), -1), (-1.0, (0, 0), 0)], [(1.0, (0, 1), -1), (-1.0, (0, 0), 1)]]
    system = PolySystem(rows, num_unknowns=2, num_params=2)
    base = np.array([1.0 + 0.5j, 2.0 + 1.0j])
    start = Decomposition((Summand((np.sqrt(base[0]),), base[1]),))

    def sampler(rng):
        return rng.standard_normal(2) + 1j * rng.standard_normal(2)

    return system, base, start, sampler


def _recording_track_paths(monkeypatch):
    """Record the number of starts of every ``track_paths`` call."""
    sizes = []
    track_paths = monodromy.track_paths

    def recording(system, origin, target, starts):
        sizes.append(len(starts))
        return track_paths(system, origin, target, starts)

    monkeypatch.setattr(monodromy, "track_paths", recording)
    return sizes


def test_batch_carries_what_an_earlier_loop_found(monkeypatch):
    # seed 3: the first batch is loops 0-3; loop 1 finds the second root,
    # so loops 2 and 3 carry it in one extra stack each
    system, base, start, sampler = _square_roots()
    policy = StopPolicy(stable_loops=4)
    want = _one_loop_at_a_time(system, base, start, sampler, policy, seed=3)
    sizes = _recording_track_paths(monkeypatch)
    got = solve(system, base, start, sampler, policy, seed=3)
    assert want.history == [(0, 0), (1, 1), (2, 0), (3, 0), (4, 0), (5, 0)]
    _assert_same_run(got, want)
    # legs of loops 0-3 as one stack, the extra legs of loops 2 and 3,
    # then loops 4-5 as one stack of both roots
    assert sizes == [4] * 3 + [1] * 6 + [4] * 3
    assert got.stop_reason == "stable"


def test_target_count_mid_batch_stops_at_the_same_loop():
    system, base, start, sampler = _square_roots()
    policy = StopPolicy(target_count=2)
    want = _one_loop_at_a_time(system, base, start, sampler, policy, seed=3)
    got = solve(system, base, start, sampler, policy, seed=3)
    assert want.history == [(0, 0), (1, 1)]
    _assert_same_run(got, want)
    assert got.stop_reason == "target_count" and got.warning is None


def test_a_transport_lost_mid_batch_counts_against_its_loop(monkeypatch):
    # two transports per loop; on leg 1 (q1 -> q2), the first transport
    # of the loop with the given q1 fails, in a batch and alone
    reg, _ = _quintic_registry(2)
    sampler = decomposition_sampler(WaringSpec(5, 1, 3), reg.solutions[0])
    rng = np.random.default_rng(1)
    loops = [draw_loop(rng, twist_exit=True, sampler=sampler) for _ in range(3)]
    doomed = loops[1].aux_params[0]
    track_paths = monodromy.track_paths

    def leg1_loses_one(system, origin, target, starts):
        # only leg 1 has origin rows equal to a q1
        results = track_paths(system, origin, target, starts)
        for j, q1 in enumerate(origin):
            if np.array_equal(q1, doomed):
                results[j] = PathResult(PathStatus.SINGULAR, results[j].endpoint, 1.0, 1)
                break
        return results

    monkeypatch.setattr(monodromy, "track_paths", leg1_loses_one)
    alone, _ = _quintic_registry(2)
    lost_after = []
    for loop in loops:
        triangle_loop(alone, loop)
        lost_after.append(alone.transports_lost)
    assert lost_after == [0, 1, 1]

    inserted = []
    insert = reg.insert

    def recording_insert(candidate):
        inserted.append(reg.transports_lost)
        return insert(candidate)

    monkeypatch.setattr(reg, "insert", recording_insert)
    assert triangle_loops(reg, loops) == [0, 0, 0]
    # loop 0 inserts two endpoints, loop 1 one after its loss, loop 2 two
    assert inserted == [0, 0, 1, 1, 1]
    assert reg.transports_lost == alone.transports_lost == 1
    assert [d.to_vector().tobytes() for d in reg.solutions] == [
        d.to_vector().tobytes() for d in alone.solutions
    ]


@pytest.mark.parametrize("d", [3, 5, 7])
def test_binary_forms_match_loops_run_alone(d):
    # the six forms of the waring-binary benchmark workload, at the
    # default stop rule: every loop confirms, and form 7001 loses one
    # transport
    spec = WaringSpec(d, 1, (d + 1) // 2)
    for i in range(2):
        form_seed = 1000 * d + i
        start, tensor = random_real_start(spec, seed=form_seed)
        args = (build_system(spec), np.asarray(tensor.coeffs), start,
                decomposition_sampler(spec, start), StopPolicy(), form_seed)
        got, want = solve(*args), _one_loop_at_a_time(*args)
        _assert_same_run(got, want)
        assert len(got) == 1 and len(got.history) == 8
        assert got.transports_lost == (1 if form_seed == 7001 else 0)


def test_solve_stacks_at_most_max_stack_starts(monkeypatch):
    # 20 fruitless loops to go: the first batch is cut to 16 loops of one
    # transport, and once both roots are known, to 8 loops of two
    system, base, start, sampler = _square_roots()
    sizes = _recording_track_paths(monkeypatch)
    reg = solve(system, base, start, sampler, StopPolicy(stable_loops=20), seed=3)
    assert len(reg) == 2
    assert max(sizes) == monodromy.MAX_STACK == 16
    assert sizes[:3] == [16] * 3


@pytest.mark.parametrize(
    "policy, reason",
    [
        (StopPolicy(stable_loops=2), "stable"),
        (StopPolicy(target_count=1), "target_count"),
        (StopPolicy(stable_loops=3, max_loops=2), "loop_budget"),
    ],
)
def test_solve_records_why_it_stopped(policy, reason):
    spec = WaringSpec(3, 1, 2)
    start, tensor = random_real_start(spec, seed=4)
    reg = solve(build_system(spec), np.asarray(tensor.coeffs), start,
                decomposition_sampler(spec, start), policy, seed=4)
    assert reg.stop_reason == reason
    assert reg.serialize(d=3)["stop_reason"] == reason
    assert (reg.warning is not None) == (reason == "loop_budget")
    assert len(reg.history) == {"stable": 2, "target_count": 0, "loop_budget": 2}[reason]


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
