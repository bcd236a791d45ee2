"""Linear sections of two-factor Segre varieties and signature search."""

import numpy as np
import pytest

from tensorid import homotopy, segre
from tensorid.elliptic import projective_distance
from tensorid.homotopy import PathStatus
from tensorid.segre import (
    DeficientSectionError,
    LinearSpace,
    SegreSpec,
    SignatureNotFoundError,
    almost_unbalanced_profile,
    degree,
    random_section_space,
    sample_segre_point,
    search_signature,
    solve_section,
    span_through_points,
)

P1xP1 = SegreSpec(dims=(1, 1))
P2xP2 = SegreSpec(dims=(2, 2))
P2xP4 = SegreSpec(dims=(2, 4))


def test_degree_is_central_binomial():
    assert degree(P1xP1) == 2
    assert degree(SegreSpec(dims=(1, 2))) == 3
    assert degree(P2xP2) == 6
    assert degree(P2xP4) == 15


def test_almost_unbalanced_profile_values():
    assert almost_unbalanced_profile(P2xP2) == {"a_q": 5, "D": 6, "parity": "odd"}
    assert almost_unbalanced_profile(P2xP4) == {"a_q": 9, "D": 15, "parity": "even"}
    assert almost_unbalanced_profile(P1xP1) == {"a_q": 2, "D": 2, "parity": "even"}


def test_spec_validation():
    with pytest.raises(ValueError):
        SegreSpec(dims=(0, 2))
    with pytest.raises(ValueError):
        SegreSpec(dims=(1, 2, 3))
    assert P2xP4.ambient_dim == 14
    assert P2xP4.variety_dim == 6


def test_linear_space_rejects_rank_deficient_rows():
    rows = np.array([[1.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        LinearSpace(equations=rows)


def test_sampled_points_are_rank_one():
    rng = np.random.default_rng(3)
    a1, a2 = P2xP4.dims
    for _ in range(5):
        x = sample_segre_point(P2xP4, rng)
        svals = np.linalg.svd(x.reshape(a1 + 1, a2 + 1), compute_uv=False)
        assert svals[1] < 1e-12 * svals[0]
        assert np.linalg.norm(x) == pytest.approx(1.0)


def test_span_contains_its_points():
    space = span_through_points(P2xP2, 5, seed=11)
    assert space.codim == P2xP2.variety_dim
    assert len(space.spanning_points) == 5
    for p in space.spanning_points:
        assert np.max(np.abs(space.equations @ p)) < 1e-10


@pytest.mark.parametrize("spec", [P2xP2, P2xP4], ids=["P2xP2", "P2xP4"])
def test_section_points_lie_on_variety_and_space(spec):
    # independent check of what an intersection point is: rank one as a
    # matrix and inside the linear space
    space = random_section_space(spec, seed=4)
    result = solve_section(spec, space, seed=4)
    a1, a2 = spec.dims
    assert len(result.points) == degree(spec)
    for p in result.points:
        svals = np.linalg.svd(
            np.asarray(p).reshape(a1 + 1, a2 + 1), compute_uv=False
        )
        assert svals[1] < 1e-8 * svals[0]
        assert np.max(np.abs(space.equations @ p)) < 1e-8


@pytest.mark.parametrize("dims", [(1, 1), (1, 2), (2, 2), (2, 4)])
def test_solve_section_tracks_one_path_per_point(monkeypatch, dims):
    # the linear-product start has exactly degree(spec) roots, and every
    # path of a generic section reaches a distinct point
    spec = SegreSpec(dims=dims)
    statuses = []
    real_track = homotopy.track

    def counting_track(*args, **kwargs):
        result = real_track(*args, **kwargs)
        statuses.append(result.status)
        return result

    monkeypatch.setattr(homotopy, "track", counting_track)
    result = solve_section(spec, random_section_space(spec, seed=2), seed=2)
    assert statuses == [PathStatus.SUCCESS] * degree(spec)
    assert len(result.points) == degree(spec)


def test_span_sections_are_fully_real():
    # spans of 5 real rank-one points cut the variety in 6 points, and
    # every one of them is real; the 5 generators reappear in the section
    for seed in (0, 1, 2):
        space = span_through_points(P2xP2, 5, seed=seed)
        result = solve_section(P2xP2, space, seed=seed)
        assert result.signature == (6, 0)
        for gen in space.spanning_points:
            assert min(
                projective_distance(gen.astype(complex), p) for p in result.points
            ) < 1e-6


def test_random_sections_have_even_nonreal_count():
    for seed in range(6):
        space = random_section_space(P2xP2, seed=seed)
        result = solve_section(P2xP2, space, seed=seed)
        assert result.real_count + result.nonreal_count == 6
        assert result.nonreal_count % 2 == 0


def test_solve_section_is_deterministic():
    space = random_section_space(P2xP2, seed=9)
    first = solve_section(P2xP2, space, seed=9)
    second = solve_section(P2xP2, space, seed=9)
    assert first.signature == second.signature
    # the metric's floor at identical inputs is sqrt(eps)
    for p, q in zip(first.points, second.points):
        assert projective_distance(p, q) < 1e-7


def test_solve_section_rejects_wrong_codimension():
    space = span_through_points(P2xP2, 5, seed=0)
    with pytest.raises(ValueError):
        solve_section(SegreSpec(dims=(1, 1)), space, seed=0)


def test_tangent_line_section_is_deficient():
    # the line x3 = 0, x1 = x2 is tangent to the rank-one quadric
    # x0*x3 = x1*x2 at [1:0:0:0]: one double point, not two
    space = LinearSpace(
        equations=np.array([[0.0, 0.0, 0.0, 1.0], [0.0, 1.0, -1.0, 0.0]])
    )
    with pytest.raises(
        DeficientSectionError,
        match=r"expected 2 section points, found 0 \(2 paths failed, 0 duplicate endpoints\)",
    ):
        solve_section(P1xP1, space, seed=0)


def test_search_signature_validates_target():
    with pytest.raises(ValueError):
        search_signature(P2xP2, (3, 2), max_attempts=1)
    with pytest.raises(ValueError):
        search_signature(P2xP2, (3, 3), max_attempts=1)


def test_search_signature_rejects_impossible_requests(monkeypatch):
    # (-1, 16) passes the degree and parity checks of (2,4) but no section
    # has a negative count; both requests fail before any section is solved
    solved = []
    monkeypatch.setattr(segre, "solve_section", lambda *args, **kwargs: solved.append(1))
    with pytest.raises(ValueError, match="non-negative"):
        search_signature(P2xP4, (-1, 16))
    with pytest.raises(ValueError, match="max_attempts"):
        search_signature(P2xP2, (6, 0), max_attempts=0)
    assert solved == []


def test_search_signature_span_strategy():
    # on P1 x P2 the span count 3 equals the section degree, so the span
    # strategy must hit (3, 0) on its first try
    spec = SegreSpec(dims=(1, 2))
    space, result = search_signature(spec, (3, 0), max_attempts=4, seed=0)
    assert result.signature == (3, 0)
    assert len(space.spanning_points) == 3


def test_search_signature_random_strategy():
    space, result = search_signature(P1xP1, (0, 2), max_attempts=30, seed=1)
    assert result.signature == (0, 2)
    p = result.points[0]
    assert min(
        projective_distance(np.conj(p), q) for q in result.points[1:]
    ) < 1e-6


def test_search_signature_exhausts_budget():
    with pytest.raises(SignatureNotFoundError) as err:
        search_signature(P2xP2, (0, 6), max_attempts=2, seed=0)
    assert err.value.attempts == 2
