"""Linear sections of two-factor Segre varieties and signature search."""

import numpy as np
import pytest

from tensorid import homotopy, segre
from tensorid.elliptic import normalize_projective, projective_distance
from tensorid.realcert import is_real_point
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_linear_space_names_non_finite_rows(bad):
    rows = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, bad, 1.0]])
    with pytest.raises(ValueError, match=r"equation rows \[2\] are not all finite"):
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


@pytest.mark.parametrize("dims", [(1, 1), (1, 2), (2, 2), (2, 4), (4, 2), (3, 3)])
def test_solve_section_tracks_no_path(monkeypatch, dims):
    # one eigenproblem gives every point of a generic section
    spec = SegreSpec(dims=dims)

    def no_tracking(*args, **kwargs):
        raise AssertionError("a section tracked a path")

    for name in ("track", "track_paths", "track_and_polish"):
        monkeypatch.setattr(homotopy, name, no_tracking)
    result = solve_section(spec, random_section_space(spec, seed=2), seed=2)
    assert len(result.points) == degree(spec)
    assert result.real_count + result.nonreal_count == degree(spec)


@pytest.mark.parametrize(
    "dims, kind, seed",
    [
        ((2, 2), "span", 124),
        ((2, 2), "span", 171),
        ((2, 4), "span", 16),
        ((2, 4), "span", 25),
        ((2, 4), "span", 111),
        ((2, 4), "span", 156),
        ((2, 4), "random", 101),
        ((2, 4), "random", 124),
        ((2, 4), "random", 155),
        ((4, 2), "span", 0),
        ((3, 3), "span", 0),
    ],
    ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else str(v),
)
def test_section_returns_every_point(dims, kind, seed):
    # a section homotopy merged two paths on the first nine of these;
    # every point comes out, and each spanning point is a real one
    spec = SegreSpec(dims=dims)
    if kind == "span":
        space = span_through_points(spec, almost_unbalanced_profile(spec)["a_q"], seed=seed)
    else:
        space = random_section_space(spec, seed=seed)
    result = solve_section(spec, space, seed=seed)
    assert len(result.points) == degree(spec)
    real = [np.asarray(p) for p in result.points[: result.real_count]]
    assert all(is_real_point(p) for p in real)
    for gen in space.spanning_points:
        # the metric's floor is sqrt(eps)
        assert min(projective_distance(gen.astype(complex), p) for p in real) < 1e-7


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
    with pytest.raises(DeficientSectionError, match=r"double point: two eigenvalues merge within 1e-06"):
        solve_section(P1xP1, space, seed=0)


@pytest.mark.parametrize(
    "equations, why",
    [
        # u0*v0 = u0*v1 = 0: the line u = [0:1] of v, all at one eigenvalue
        ([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]], "it contains a line"),
        # u0*v0 = u1*v0 = 0: the line v = [0:1] of u, an eigenvalue everywhere
        ([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]], "its eigenvalue pencil is singular"),
    ],
    ids=["line-of-v", "line-of-u"],
)
def test_section_containing_a_line_is_not_finite(equations, why):
    space = LinearSpace(equations=np.array(equations))
    with pytest.raises(DeficientSectionError, match=f"the section is not finite: {why}"):
        solve_section(P1xP1, space, seed=0)


def test_section_point_on_the_chart_hyperplane_is_an_infinite_eigenvalue():
    # solve_section first draws its orthogonal chart rotation R from the
    # seed; the point u (x) v with u orthogonal to R's first column has
    # u~_0 = 0 in the rotated coordinates u~ = R^T u
    rot = np.linalg.qr(np.random.default_rng(3).standard_normal((2, 2)))[0]
    u = np.array([-rot[1, 0], rot[0, 0]])
    other = np.outer([0.6, -1.3], [0.4, 2.2]).ravel()
    _, _, vt = np.linalg.svd(np.array([np.outer(u, [1.0, 0.5]).ravel(), other]))
    space = LinearSpace(equations=vt[2:])
    assert solve_section(P1xP1, space, seed=4).signature == (2, 0)
    with pytest.raises(DeficientSectionError, match="infinite eigenvalue"):
        solve_section(P1xP1, space, seed=3)


def test_section_not_closed_under_conjugation_is_deficient(monkeypatch):
    # one non-real point moved by 1e-3i: the count is still the degree,
    # but neither it nor its conjugate has a partner any more
    space = random_section_space(P2xP2, seed=0)
    assert solve_section(P2xP2, space, seed=0).signature == (4, 2)
    real_merge = segre.merge_section_points

    def moved(vectors):
        vectors = list(vectors)
        for k, x in enumerate(vectors):
            if not is_real_point(normalize_projective(x)):
                vectors[k] = x + 1e-3j * np.eye(len(x))[0]
                return real_merge(vectors)
        raise AssertionError("the section has no non-real point")

    monkeypatch.setattr(segre, "merge_section_points", moved)
    with pytest.raises(DeficientSectionError, match=r"^2 of 2 non-real points have no conjugate partner"):
        solve_section(P2xP2, space, seed=0)


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
