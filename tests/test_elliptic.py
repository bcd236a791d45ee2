"""Plane sections, secant lines and point types of the quadric pencil."""

import numpy as np
import pytest

from tensorid import elliptic, homotopy, segre
from tensorid.elliptic import (
    DEGENERATE,
    S1,
    S2,
    S3,
    S4,
    DegeneratePointError,
    TangentPlaneError,
    classify_point,
    construct_point_of_type,
    example_pencil,
    find_plane_with_signature,
    intersect_plane,
    normalize_projective,
    pencil_scan,
    plane_basis,
    projective_distance,
    real_representative,
    sample_real_points,
    secant_lines_through,
)
from tensorid.realcert import is_real_point


@pytest.fixture(scope="module")
def pencil():
    return example_pencil()


def test_projective_helpers():
    x = np.array([2.0, -4.0, 6.0, 0.0])
    nx = normalize_projective(x)
    assert np.max(np.abs(nx)) == pytest.approx(1.0)
    assert projective_distance(x, 3.7 * x) < 1e-12
    assert projective_distance(x, np.array([1.0, 0.0, 0.0, 0.0])) > 0.1
    assert is_real_point(normalize_projective((1 + 1j) * x))  # common phase is projectively real
    rep = real_representative((1 + 1j) * x)
    assert np.max(np.abs(rep.imag)) == 0.0


@pytest.mark.parametrize("sign", [1, -1])
def test_normalize_projective_is_not_decided_by_rounding(sign):
    # (1, +-i, 0, 0) with its second coordinate one ulp larger or smaller
    # normalizes by the first coordinate both times
    ulp = [np.nextafter(1.0, target) for target in (2.0, 0.0)]
    got = [normalize_projective([1.0, sign * 1j * m, 0.0, 0.0]) for m in ulp]
    assert [w[0] for w in got] == [1.0, 1.0]
    assert np.array_equal(got[0], [1.0, sign * 1j * ulp[0], 0.0, 0.0])


def test_merge_section_points_dedups_and_puts_real_first():
    z = np.array([1.0, 2.0 + 1.0j, 0.5])
    real = np.array([0.0, 3.0, -1.0])
    points, real_count = elliptic.merge_section_points(
        [z, real, -2.0 * real, np.conjugate(z), (1.0 + 1e-9) * z]
    )
    assert real_count == 1
    assert len(points) == 3
    assert np.allclose(points[0], real / 3.0)
    assert {tuple(np.round(p, 12)) for p in points[1:]} == {
        tuple(np.round(normalize_projective(w), 12)) for w in (z, np.conjugate(z))
    }


@pytest.mark.parametrize("partner", [None, 1e-3], ids=["missing", "moved"])
def test_merge_section_points_rejects_an_unpaired_nonreal_point(partner):
    z = np.array([1.0, 2.0 + 1.0j, 0.5])
    vectors = [z, np.array([0.0, 3.0, -1.0])]
    if partner is not None:
        vectors.append(np.conjugate(z) + partner * 1j)
    with pytest.raises(ValueError, match="not conjugation-closed"):
        elliptic.merge_section_points(vectors)


def _assert_pairs_side_by_side(points, real_count):
    assert all(is_real_point(p) for p in points[:real_count])
    nonreal = points[real_count:]
    assert len(nonreal) % 2 == 0
    for p, q in zip(nonreal[::2], nonreal[1::2]):
        assert not is_real_point(p)
        assert projective_distance(np.conj(p), q) < 1e-6


def test_merge_section_points_pairs_conjugates_side_by_side(pencil):
    # a random (2,4) section, a (0,4) plane, and two conjugate pairs whose
    # coordinate order interleaves them, one point with two coordinates
    # of equal modulus, where the chart is a tie-break
    spec = segre.SegreSpec((2, 4))
    section = segre.solve_section(spec, segre.random_section_space(spec, seed=1), seed=1)
    assert section.signature[1] > 0
    plane_points, sig = intersect_plane(pencil, np.array([0.0, 0.0, 1.0, -2.0]))
    assert sig.as_tuple() == (0, 4)
    z, w = np.array([0.5 + 0.3j, 1.0, 1.0j]), np.array([0.5 + 0.1j, 1.0, -0.2])
    firsts = [z, np.array([0.0, 3.0, -1.0]), np.conj(z), w, np.conj(w), np.array([2.0, -2.0, 1.0])]
    repeats = [2.0 * z, (1 + 1e-9) * np.conj(z), 1j * np.conj(w), -3.0 * firsts[1]]
    rng = np.random.default_rng(0)
    for first, later in ((list(section.points), []), (plane_points, []), (firsts, repeats)):
        points, real_count = elliptic.merge_section_points(first + later)
        assert len(points) == len(first)
        _assert_pairs_side_by_side(points, real_count)
        for _ in range(5):
            # every first copy still comes before its repeats
            shuffled = [first[i] for i in rng.permutation(len(first))]
            shuffled += [later[i] for i in rng.permutation(len(later))]
            again, again_real = elliptic.merge_section_points(shuffled)
            assert again_real == real_count
            assert [p.tobytes() for p in again] == [p.tobytes() for p in points]


def test_plane_basis_of_huge_coefficients():
    """Coefficients near the largest double span the plane they scale."""
    huge, unit = plane_basis([1e308, 1e308, 1, 0]), plane_basis([1, 1, 0, 0])
    assert np.allclose(huge @ huge.T, unit @ unit.T, rtol=0, atol=1e-12)


def test_curve_points_satisfy_both_quadrics(pencil):
    pts = sample_real_points(pencil, count=6, seed=3)
    assert len(pts) == 6
    for p in pts:
        assert abs(pencil.q1.evaluate(p)) < 1e-8 * (1 + np.linalg.norm(p) ** 2)
        assert abs(pencil.q2.evaluate(p)) < 1e-8 * (1 + np.linalg.norm(p) ** 2)
        assert is_real_point(normalize_projective(p))


def test_transverse_plane_signatures(pencil):
    # planes x2 = k x3 inside the pencil's symmetry: (2,2) for |k|<1,
    # (0,4) for |k|>1
    for k, expected in ((0.0, (2, 2)), (0.5, (2, 2)), (2.0, (0, 4)), (-1.5, (0, 4))):
        plane = np.array([0.0, 0.0, 1.0, -k])
        points, sig = intersect_plane(pencil, plane)
        assert sig.as_tuple() == expected
        assert len(points) == 4


def test_nonreal_points_come_in_conjugate_pairs(pencil):
    plane = np.array([0.0, 0.0, 1.0, -2.0])
    points, _ = intersect_plane(pencil, plane)
    nonreal = [p for p in points if not is_real_point(normalize_projective(p))]
    assert len(nonreal) == 4
    for p in nonreal:
        assert any(projective_distance(np.conj(p), q) < 1e-6 for q in nonreal)


def test_each_query_is_one_solve(pencil, monkeypatch):
    # plane sections and secant lines come in closed form: no query
    # reaches the path tracker
    calls = []

    def no_tracking(*args, **kwargs):
        calls.append(1)
        raise AssertionError("a plane query tracked a path")

    for name in ("track", "track_paths", "track_and_polish", "solve_total_degree"):
        monkeypatch.setattr(homotopy, name, no_tracking)
    for k in (-2.0, 0.0, 1.0, 2.0):
        elliptic.plane_record(pencil, np.array([0.0, 0.0, 1.0, -k]))
    assert len(secant_lines_through(pencil, np.array([1.0, 2.0, 3.0, 4.0]))) == 2
    assert calls == []


@pytest.mark.parametrize(
    "q1, q2, plane, detail",
    [
        # x0^2 - x1^2 vanishes on the plane x0 = x1
        (np.diag([1.0, -1.0, 0.0, 0.0]), example_pencil().q2.matrix, [1.0, -1.0, 0.0, 0.0], "lies on a quadric"),
        # two cones with the common vertex (0,0,0,1), cut by a plane through it
        (np.diag([1.0, 1.0, -1.0, 0.0]), np.diag([1.0, -2.0, 0.5, 0.0]), [1.0, 2.0, 3.0, 0.0], "is singular"),
    ],
    ids=["plane-on-quadric", "common-vertex"],
)
def test_degenerate_pencils_are_named(q1, q2, plane, detail):
    pencil = elliptic.QuadricPencil(elliptic.Quadric(q1), elliptic.Quadric(q2))
    record = elliptic.plane_record(pencil, np.array(plane))
    assert record["status"] == "degenerate"
    assert detail in record["detail"]


def test_tangent_plane_reports_double_point(pencil):
    plane = np.array([0.0, 0.0, 1.0, -1.0])
    with pytest.raises(TangentPlaneError) as err:
        intersect_plane(pencil, plane)
    dp = err.value.double_point
    target = np.array([1.0, 1.0, -1.0, -1.0])
    assert projective_distance(dp, target) < 1e-7


def _assert_on_curve(pencil, plane, points):
    for p in points:
        x = p / np.linalg.norm(p)
        for m in (pencil.q1.matrix, pencil.q2.matrix):
            assert abs(x @ m @ x) < 1e-12
        assert abs(plane @ x) < 1e-12 * np.linalg.norm(plane)


def test_plane_where_a_homotopy_lost_a_path(pencil):
    # a four-path total-degree homotopy on a random chart of this plane
    # lost one path with chart seed 0 and reported 3 points; the closed
    # form finds all four
    plane = np.random.default_rng(0).standard_normal((62, 4))[61]
    assert np.allclose(plane, [1.7607, 0.1992, -0.3820, 2.5524], atol=1e-4)
    record = elliptic.plane_record(pencil, plane)
    assert record["status"] == "transverse"
    assert record["signature"] == (2, 2)
    points = record["points"]
    assert len(points) == 4
    assert min(
        projective_distance(p, q) for i, p in enumerate(points) for q in points[:i]
    ) > 0.1
    _assert_on_curve(pencil, plane, points)


@pytest.mark.parametrize("vertex", [[0.0, 0.0, 1.0, 0.0], [-1.0, 1.0, 0.0, 0.0]])
def test_planes_through_a_cone_vertex_are_transverse(pencil, vertex):
    # the cone cuts such a plane in two lines through the vertex, and the
    # four points lie two on each
    vertex = np.array(vertex)
    rng = np.random.default_rng(4)
    for _ in range(20):
        plane = rng.standard_normal(4)
        plane -= (plane @ vertex) / (vertex @ vertex) * vertex
        points, sig = intersect_plane(pencil, plane)
        assert sig.real_count + sig.nonreal_count == len(points) == 4
        _assert_on_curve(pencil, plane, points)
        collinear = [
            np.linalg.svd(np.array([vertex, points[0], q]), compute_uv=False)[-1] < 1e-9
            for q in points[1:]
        ]
        assert sum(collinear) == 1
        rest = [q for q, c in zip(points[1:], collinear) if not c]
        assert np.linalg.svd(np.array([vertex, *rest]), compute_uv=False)[-1] < 1e-9


@pytest.mark.parametrize(
    "plane, detail",
    [
        # tangent to the cone with vertex (0,0,1,0) along the ruling
        # through (1,1,0,-1): real double points (1,1,1,-1), (1,1,-1,-1)
        ([1.0, 1.0, 0.0, 2.0], "tangent to a cone"),
        # tangent to the cone with vertex (-1,1,0,0) along the ruling
        # x2 = x3 = 0, which meets the curve in the conjugate pair (1,+-i,0,0)
        ([0.0, 0.0, 0.0, 1.0], "tangent to a cone"),
        # tangent to the cone with vertex (0,0,1,0) along a ruling that
        # touches the curve at (1,0,0,-1), and to the cone with vertex
        # (-1,1,0,0) along one that touches it at (1,1,-1,-1)
        ([1.0, -1.0, 0.0, 1.0], "four-fold contact"),
        ([1.0, 1.0, 2.0, 0.0], "four-fold contact"),
    ],
    ids=["real-contacts", "conjugate-contacts", "four-fold-a", "four-fold-b"],
)
def test_cone_tangent_planes_are_degenerate(pencil, plane, detail):
    record = elliptic.plane_record(pencil, np.array(plane))
    assert record["status"] == "degenerate"
    assert detail in record["detail"]


def test_pencil_scan_chambers(pencil):
    ks = [-2.0, -1.5, -0.9, -0.5, 0.0, 0.5, 0.9, 1.5, 2.0]
    records = pencil_scan(pencil, ks)
    assert len(records) == len(ks)
    for rec in records:
        assert rec["status"] == "transverse"
        expected = (2, 2) if abs(rec["k"]) < 1 else (0, 4)
        assert tuple(rec["signature"]) == expected
    tangent = pencil_scan(pencil, [1.0])[0]
    assert tangent["status"] == "tangent"
    assert projective_distance(
        np.asarray(tangent["double_point"]), np.array([1.0, 1.0, -1.0, -1.0])
    ) < 1e-7


def _quadric(a, b, c, d2, d3):
    """a x0^2 + 2b x0 x1 + c x1^2 + d2 x2^2 + d3 x3^2."""
    m = np.diag([a, c, d2, d3])
    m[0, 1] = m[1, 0] = b
    return elliptic.Quadric(m)


@pytest.mark.parametrize(
    "q1, q2, message",
    [
        # both restrict to multiples of (x0 - x1)^2 on the base line x2 = x3 = 0
        ((1.0, -1.0, 1.0, 1.0, -1.0), (2.0, -2.0, 2.0, -1.0, -3.0), "base line is tangent to the curve"),
        # x0^2 - x1^2 and x0^2 + x1^2 vanish at different points of it
        ((1.0, 0.0, -1.0, 1.0, -1.0), (1.0, 0.0, 1.0, -1.0, -3.0), "does not meet the curve in fixed points"),
    ],
    ids=["tangent", "not-fixed"],
)
def test_pencil_scan_rejects_its_base_line(q1, q2, message):
    pencil = elliptic.QuadricPencil(_quadric(*q1), _quadric(*q2))
    with pytest.raises(ValueError, match=message):
        pencil_scan(pencil, [0.0])


@pytest.mark.parametrize("seed", range(5))
def test_tangent_planes_of_random_pencils(seed):
    # the plane alpha grad q1(c) + beta grad q2(c) holds the tangent line
    # of the curve at the real point c, so it touches the curve there;
    # on these 15 planes the double point was within 2.1e-8 of c
    rng = np.random.default_rng(seed)
    m1, m2 = rng.standard_normal((2, 4, 4))
    pencil = elliptic.QuadricPencil(elliptic.Quadric(m1 + m1.T), elliptic.Quadric(m2 + m2.T))
    for c in sample_real_points(pencil, 3, seed=seed):
        alpha, beta = rng.standard_normal(2)
        with pytest.raises(TangentPlaneError) as err:
            intersect_plane(pencil, alpha * (pencil.q1.matrix @ c) + beta * (pencil.q2.matrix @ c))
        assert projective_distance(err.value.double_point, c) < 1e-7


def test_secant_lines_through_generic_point(pencil):
    point = construct_point_of_type(pencil, S1, seed=5)
    lines = secant_lines_through(pencil, point)
    assert len(lines) == 2
    for line in lines:
        # both contact points satisfy both quadrics
        for p in line.points:
            assert abs(pencil.q1.evaluate(p)) < 1e-7 * (1 + np.linalg.norm(p) ** 2)
            assert abs(pencil.q2.evaluate(p)) < 1e-7 * (1 + np.linalg.norm(p) ** 2)


def test_secant_rejects_point_on_curve(pencil):
    on_curve = sample_real_points(pencil, count=1, seed=8)[0]
    with pytest.raises(DegeneratePointError):
        secant_lines_through(pencil, real_representative(on_curve))


@pytest.mark.parametrize("vertex", [[0.0, 0.0, 1.0, 0.0], [-1.0, 1.0, 0.0, 0.0]])
def test_secant_rejects_cone_vertex(pencil, vertex):
    # each line of the cone through its vertex is a secant: there are
    # not two of them
    with pytest.raises(DegeneratePointError, match="vertex of a cone"):
        secant_lines_through(pencil, np.array(vertex))
    assert classify_point(pencil, np.array(vertex)) == DEGENERATE


@pytest.mark.parametrize("kind", [S1, S2, S3, S4])
def test_constructed_points_classify_correctly(pencil, kind):
    point = construct_point_of_type(pencil, kind, seed=11)
    assert classify_point(pencil, point) == kind


@pytest.mark.parametrize("kind", [S1, S2, S3, S4])
def test_classification_stable_under_perturbation(pencil, kind):
    point = construct_point_of_type(pencil, kind, seed=23)
    rng = np.random.default_rng(37)
    scale = float(np.max(np.abs(point)))
    for _ in range(10):
        jitter = rng.standard_normal(4) * 1e-4 * scale
        assert classify_point(pencil, point + jitter) == kind


def test_find_plane_with_signature(pencil):
    plane, points = find_plane_with_signature(pencil, (4, 0), seed=2)
    assert len(points) == 4
    _, sig = intersect_plane(pencil, plane)
    assert sig.as_tuple() == (4, 0)


@pytest.mark.parametrize("source", [S1, S2, S3, S4, 0, 1, 2])
def test_secant_oracle_cross_check(pencil, source):
    """Independent verification of each reported secant line: both contact
    points satisfy both quadrics (the s^2 and t^2 coefficients of the
    restricted quadric vanish, so the line meets each quadric exactly in
    the two contact points) and the external point is collinear with them.
    The points are one constructed point of each type and three random
    ones."""
    if isinstance(source, str):
        point = construct_point_of_type(pencil, source, seed=5)
    else:
        point = np.random.default_rng(source).standard_normal(4)
    lines = secant_lines_through(pencil, point)
    assert len(lines) == 2
    for line in lines:
        p, q = line.points
        scale_pq = 1 + float(np.max(np.abs(p))) * float(np.max(np.abs(q)))
        for quad in (pencil.q1, pencil.q2):
            m = quad.matrix
            bound = 1e-6 * scale_pq * float(np.max(np.abs(m)))
            assert abs(p @ m @ p) < bound
            assert abs(q @ m @ q) < bound
        # contact points are genuinely distinct (secant, not tangent)
        assert projective_distance(p, q) > 1e-3
        # the external point lies on the line through p and q
        stack = np.column_stack([p, q, point.astype(complex)])
        svals = np.linalg.svd(stack, compute_uv=False)
        assert svals[-1] < 1e-6 * svals[0]


def test_classify_degenerate_on_curve_point(pencil):
    on_curve = real_representative(sample_real_points(pencil, count=1, seed=19)[0])
    assert classify_point(pencil, on_curve) == DEGENERATE


def _tangent_line_point(pencil, seed, s):
    """The point c + s t on the tangent line of the curve at c, the first
    real curve point sampled with ``seed``; t is the unit tangent
    orthogonal to c, signed so that its largest coordinate is positive."""
    c = sample_real_points(pencil, count=3, seed=seed)[0]
    t = np.linalg.svd(np.array([pencil.q1.matrix @ c, pencil.q2.matrix @ c, c]))[2][-1]
    return c + s * t * np.sign(t[np.argmax(np.abs(t))])


def test_point_on_a_tangent_line_is_degenerate(pencil):
    # the tangent line at c is a secant through the point with a double
    # contact at c; a root finder that split that contact by about 1e-7
    # typed this point s1
    point = _tangent_line_point(pencil, seed=0, s=0.05)
    assert classify_point(pencil, point) == DEGENERATE
    with pytest.raises(DegeneratePointError, match="tangential"):
        secant_lines_through(pencil, point)


def test_random_point_type_counts(pencil):
    # counts of 2,000 standard normal points, as typed before the secant
    # solve moved onto the plane section's quadratic
    points = np.random.default_rng(0).standard_normal((2000, 4))
    tags = [classify_point(pencil, x) for x in points]
    assert {tag: tags.count(tag) for tag in (S1, S2, S3, S4, DEGENERATE)} == {
        S1: 67, S2: 585, S3: 953, S4: 395, DEGENERATE: 0
    }


def test_secant_directions_are_real_or_conjugate(pencil):
    # an s4 point's two lines are conjugates, an s1-s3 point's are real
    points = [construct_point_of_type(pencil, tag, seed=3) for tag in (S1, S2, S3, S4)]
    points += list(np.random.default_rng(5).standard_normal((200, 4)))
    seen = set()
    for point in points:
        tag = classify_point(pencil, point)
        seen.add(tag)
        d0, d1 = (ln.direction / np.linalg.norm(ln.direction) for ln in secant_lines_through(pencil, point))
        if tag == S4:
            # the sine of the angle as the residual of projecting d1 onto
            # conj(d0): ``projective_distance`` reads it through the
            # cosine, which cannot resolve a sine below sqrt(eps)
            assert np.linalg.norm(d1 - np.vdot(d0.conj(), d1) * d0.conj()) < 1e-8
        else:
            assert is_real_point(d0) and is_real_point(d1)
    assert seen == {S1, S2, S3, S4}
