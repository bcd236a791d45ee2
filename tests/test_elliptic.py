"""Plane sections, secant lines and point types of the quadric pencil."""

import numpy as np
import pytest

from tensorid import elliptic
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
    # one random complex chart per query: no coordinate chart is retried
    calls = []
    real_solve = elliptic.solve_total_degree

    def counting_solve(*args, **kwargs):
        calls.append(1)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(elliptic, "solve_total_degree", counting_solve)
    for k in (-2.0, 0.0, 2.0):
        calls.clear()
        intersect_plane(pencil, np.array([0.0, 0.0, 1.0, -k]))
        assert len(calls) == 1
    calls.clear()
    assert len(secant_lines_through(pencil, np.array([1.0, 2.0, 3.0, 4.0]))) == 2
    assert len(calls) == 1


def test_tangent_plane_reports_double_point(pencil):
    plane = np.array([0.0, 0.0, 1.0, -1.0])
    with pytest.raises(TangentPlaneError) as err:
        intersect_plane(pencil, plane)
    dp = err.value.double_point
    target = np.array([1.0, 1.0, -1.0, -1.0])
    assert projective_distance(dp, target) < 1e-6


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
    ) < 1e-6


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


def test_secant_oracle_cross_check(pencil):
    """Independent verification of each reported secant line: both contact
    points satisfy both quadrics (the s^2 and t^2 coefficients of the
    restricted quadric vanish, so the line meets each quadric exactly in
    the two contact points) and the external point is collinear with them."""
    point = construct_point_of_type(pencil, S1, seed=5)
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
