"""Loop orchestration, the registry and the canonical metric."""

import numpy as np
import pytest

from tensorid import monodromy
from tensorid.homotopy import (
    PathResult,
    PathStatus,
    SegmentHomotopy,
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
)
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
    base = np.ones(4, dtype=complex)
    calls = []

    def sampler(r):
        calls.append(1)
        return np.full(4, 2.0 + 1.0j)

    loop = draw_loop(base, rng, twist_exit=True, sampler=sampler)
    assert len(calls) == 2
    assert np.allclose(loop.aux_params[0], 2.0 + 1.0j)
    assert abs(abs(loop.gamma_out) - 1.0) < 1e-12
    plain = draw_loop(base, rng, twist_exit=False, sampler=sampler)
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
    loop = draw_loop(base, rng, twist_exit=True, sampler=decomposition_sampler(spec, start))
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
    loop = draw_loop(base, rng, twist_exit=True, sampler=decomposition_sampler(spec, start))
    return reg, loop


def test_triangle_loop_matches_solo_transports(monkeypatch):
    # the stacked legs give every transport the endpoint that chaining
    # one-path track calls over the same three legs gives, bit for bit
    reg, loop = _quintic_registry(3)
    q1, q2 = loop.aux_params
    legs = (
        SegmentHomotopy(reg.system, reg.base_params, q1, gamma=loop.gamma_out),
        SegmentHomotopy(reg.system, q1, q2),
        SegmentHomotopy(reg.system, q2, reg.base_params),
    )
    solo = []
    for dec in reg.solutions:
        x = dec.to_vector()
        x[1::2] *= loop.gamma_out
        for leg in legs:
            result = track(leg, x, monodromy.TRACK_SETTINGS)
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

    def failing_track_paths(homotopy, starts, settings):
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

    def leg1_loses_row0(homotopy, starts, settings):
        carried.append(len(starts))
        results = track_paths(homotopy, starts, settings)
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
