"""Secant geometry of a space curve cut out by two real quadrics.

The curve C is the intersection of two quadric surfaces in projective
3-space.  Real planes meet C in four points whose realness signature
(4,0), (2,2) or (0,4) classifies the plane; through a generic real
point P off the curve pass exactly two secant lines of C, and the
realness pattern of those lines and of their contact points splits the
real points of space into four types s1..s4.

Secant directions are found without ever solving for the two contact
parameters at the same time: a line P + t*d meets both quadrics in the
same unordered pair of points exactly when the two binary quadratics
q_j(t) = a_j t^2 + b_j t + c_j (a_j = d.Q_j.d, b_j = 2 P.Q_j.d,
c_j = P.Q_j.P) are proportional.  On one random complex chart of the
direction plane this is one cubic and one conic, six tracked paths, of
which four are the directions hitting C inside the complementary plane
(a_1 = a_2 = 0) and are discarded exactly; the contact parameters then
come from one quadratic formula per surviving direction.
"""

from dataclasses import dataclass

import numpy as np

from .homotopy import solve_total_degree
from .poly import MPoly
from .realcert import is_real_point

TANGENT_TOL = 1e-6
DEDUP_TOL = 1e-6

S1 = "s1"
S2 = "s2"
S3 = "s3"
S4 = "s4"
DEGENERATE = "degenerate"


class TangentPlaneError(RuntimeError):
    """Plane meets the curve with a double contact; carries the point."""

    def __init__(self, message, double_point=None):
        super().__init__(message)
        self.double_point = double_point


class DegeneratePlaneError(RuntimeError):
    """Plane section did not yield four isolated points."""


class DegeneratePointError(RuntimeError):
    """Base point violates the genericity assumptions of the secant solve."""


@dataclass(frozen=True)
class Quadric:
    """Real symmetric 4x4 matrix M acting as x -> x.M.x."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (4, 4) or not np.allclose(m, m.T, atol=1e-12):
            raise ValueError("expected a symmetric 4x4 real matrix")
        object.__setattr__(self, "matrix", m)

    def evaluate(self, x) -> complex:
        v = np.asarray(x, dtype=np.complex128)
        return complex(v @ self.matrix @ v)


@dataclass(frozen=True)
class QuadricPencil:
    q1: Quadric
    q2: Quadric


def example_pencil() -> QuadricPencil:
    """Bundled smooth pencil whose curve has well-studied real structure.

    q1 = x0^2 + x1^2 - x2^2 - x3^2,
    q2 = x0^2 - x0 x3 + x1^2 - x1 x3 - 2 x2^2 - 2 x3^2.
    """
    q1 = Quadric(np.diag([1.0, 1.0, -1.0, -1.0]))
    m2 = np.array(
        [
            [1.0, 0.0, 0.0, -0.5],
            [0.0, 1.0, 0.0, -0.5],
            [0.0, 0.0, -2.0, 0.0],
            [-0.5, -0.5, 0.0, -2.0],
        ]
    )
    return QuadricPencil(q1, Quadric(m2))


@dataclass(frozen=True)
class PlaneSignature:
    real_count: int
    nonreal_count: int

    def as_tuple(self) -> tuple:
        return (self.real_count, self.nonreal_count)


@dataclass(frozen=True)
class SecantLine:
    """Line P + t*d recorded by its direction and two contact parameters."""

    direction: np.ndarray
    t1: complex
    t2: complex
    points: tuple
    is_real_line: bool
    points_real: tuple


def normalize_projective(x) -> np.ndarray:
    """Scale so the coordinate of largest modulus equals one."""
    v = np.asarray(x, dtype=np.complex128).ravel()
    idx = int(np.argmax(np.abs(v)))
    if v[idx] == 0:
        raise ValueError("zero vector has no projective normalization")
    return v / v[idx]


def projective_distance(x, y) -> float:
    """Sine of the principal angle between two projective points."""
    a = np.asarray(x, dtype=np.complex128).ravel()
    b = np.asarray(y, dtype=np.complex128).ravel()
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0 or nb == 0:
        raise ValueError("zero vector")
    c = abs(np.vdot(a, b)) / (na * nb)
    return float(np.sqrt(max(0.0, 1.0 - min(1.0, c * c))))


def real_representative(x, real_tol: float = 1e-8) -> np.ndarray:
    """Real coordinate vector of a conjugation-fixed projective point."""
    w = normalize_projective(x)
    if not is_real_point(w, real_tol):
        raise ValueError("point is not real projectively")
    w = w.real
    return w / np.linalg.norm(w)


def _point_key(x) -> tuple:
    w = normalize_projective(x)
    return tuple((round(float(c.real), 9), round(float(c.imag), 9)) for c in w)


def plane_basis(plane) -> np.ndarray:
    """Orthonormal 4x3 basis of the plane a.x = 0."""
    a = np.asarray(plane, dtype=float).reshape(1, 4)
    if not np.isfinite(a).all():
        raise ValueError(f"plane coefficients {a.ravel().tolist()} are not all finite")
    scale = np.abs(a).max()
    if scale == 0 or scale * np.linalg.norm(a / scale) < 1e-12:
        raise ValueError("zero plane")
    _, _, vt = np.linalg.svd(a / scale)
    return vt[1:].T


def _conic_chart(m: np.ndarray) -> MPoly:
    """Restrict w.m.w to the affine chart w[0] = 1 of the plane."""
    return MPoly(
        2,
        {
            (0, 0): m[0, 0],
            (1, 0): 2.0 * m[0, 1],
            (0, 1): 2.0 * m[0, 2],
            (2, 0): m[1, 1],
            (1, 1): 2.0 * m[1, 2],
            (0, 2): m[2, 2],
        },
    )


def _random_unitary(rng: np.random.Generator) -> np.ndarray:
    """Q factor of a 3x3 complex Gaussian matrix."""
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return np.linalg.qr(z)[0]


def intersect_plane(
    pencil: QuadricPencil,
    plane,
    seed: int = 0,
    real_tol: float = 1e-8,
):
    """The four intersection points of a real transverse plane with the curve.

    Parametrizes the plane, restricts both quadrics to a pair of conics
    in one random complex affine chart of it and tracks the four paths
    of a diagonal total-degree start system, keeping stalled paths that
    polish to a double root.
    Points come back projectively normalized, deterministically ordered,
    real ones first.

    Returns:
        (points, PlaneSignature)

    Raises:
        TangentPlaneError: two contact points closer than 1e-6; the
            error carries the double point.
        DegeneratePlaneError: fewer than four isolated intersections.
    """
    plane = np.asarray(plane, dtype=float)
    rng = np.random.default_rng(seed)
    basis = plane_basis(plane)
    m1 = basis.T @ pencil.q1.matrix @ basis
    m2 = basis.T @ pencil.q2.matrix @ basis

    # One random complex chart of the plane: u = R w with R unitary and
    # w[0] = 1, so no intersection point lies at the chart's infinity
    # with probability one.  A double contact shows up as a missing
    # root: the two paths stall at the same limit, so the merged count
    # drops to three and the survivor is recognized by its parallel
    # conic gradients (a transverse root has independent ones).
    rot = _random_unitary(rng)
    polys = [_conic_chart(rot.T @ m @ rot) for m in (m1, m2)]
    found: list = []
    for x, _ in solve_total_degree(polys, rng, salvage_singular=True):
        p = normalize_projective(basis @ rot @ np.concatenate(([1.0 + 0j], x)))
        if all(projective_distance(p, q) >= DEDUP_TOL for q in found):
            found.append(p)

    if len(found) == 3:
        for p in found:
            u = basis.T @ p
            g1 = m1 @ u
            g2 = m2 @ u
            if np.linalg.norm(np.cross(g1, g2)) < TANGENT_TOL * (
                np.linalg.norm(g1) * np.linalg.norm(g2) + 1e-30
            ):
                raise TangentPlaneError(
                    "plane has a double contact with the curve", double_point=p
                )
    if len(found) != 4:
        raise DegeneratePlaneError(
            f"expected 4 intersection points, found {len(found)}"
        )

    real_flags = [is_real_point(p, real_tol) for p in found]
    nonreal = [p for p, f in zip(found, real_flags) if not f]
    for p in nonreal:
        partner = min(
            (projective_distance(np.conjugate(p), q) for q in nonreal), default=np.inf
        )
        if partner >= DEDUP_TOL:
            raise DegeneratePlaneError("non-real points are not conjugation-closed")
    found.sort(key=lambda p: (not is_real_point(p, real_tol), _point_key(p)))
    real_count = sum(real_flags)
    return found, PlaneSignature(real_count, 4 - real_count)


def pencil_scan(
    pencil: QuadricPencil,
    k_values,
    seed: int = 0,
    real_tol: float = 1e-8,
):
    """Signatures of the planes x2 = k*x3 for each requested k.

    The planes of this family share the base line x2 = x3 = 0, which
    must meet the curve in two fixed points: both quadrics restricted to
    the base line must be proportional binary quadratics with distinct
    roots (checked; ValueError otherwise).  Tangent members are reported
    as records with the double point instead of a signature.
    """
    r1 = np.array(
        [pencil.q1.matrix[0, 0], pencil.q1.matrix[0, 1], pencil.q1.matrix[1, 1]]
    )
    r2 = np.array(
        [pencil.q2.matrix[0, 0], pencil.q2.matrix[0, 1], pencil.q2.matrix[1, 1]]
    )
    cross = np.linalg.norm(np.cross(r1, r2))
    if cross > 1e-9 * (np.linalg.norm(r1) * np.linalg.norm(r2) + 1e-30):
        raise ValueError("base line x2=x3=0 does not meet the curve in fixed points")
    a, b, c = (r1 if np.linalg.norm(r1) >= np.linalg.norm(r2) else r2)
    if abs(b * b - a * c) < 1e-12 * (a * a + b * b + c * c):
        raise ValueError("base line is tangent to the curve")

    records = []
    for k in k_values:
        plane = np.array([0.0, 0.0, 1.0, -float(k)])
        record: dict = {"k": float(k)}
        try:
            points, sig = intersect_plane(pencil, plane, seed, real_tol)
            record["status"] = "transverse"
            record["signature"] = sig.as_tuple()
            record["points"] = points
        except TangentPlaneError as err:
            record["status"] = "tangent"
            record["double_point"] = err.double_point
        except DegeneratePlaneError as err:
            record["status"] = "degenerate"
            record["detail"] = str(err)
        records.append(record)
    return records


def secant_lines_through(
    pencil: QuadricPencil,
    point,
    seed: int = 0,
    real_tol: float = 1e-8,
):
    """The two secant lines of the curve through a generic real point.

    Returns a list of exactly two SecantLine records; the contact
    parameters of each line are ordered by (real part, imaginary part)
    and both contact points satisfy both quadrics to 1e-9 (scaled).

    Raises DegeneratePointError when the point lies on the curve, a
    contact is tangential (parameters within 1e-8), or the direction
    count is not two.
    """
    p = np.asarray(point, dtype=np.complex128).ravel()
    if p.size != 4:
        raise ValueError("expected a point of projective 3-space")
    if not np.isfinite(p).all():
        raise ValueError(
            f"point coordinates {np.ravel(point).tolist()} are not all finite"
        )
    if not is_real_point(p, real_tol):
        raise ValueError("base point must be real")
    p = np.real(normalize_projective(p))
    p = p / np.linalg.norm(p)

    q1m = pencil.q1.matrix
    q2m = pencil.q2.matrix
    s1 = float(np.linalg.norm(q1m, ord="fro"))
    s2 = float(np.linalg.norm(q2m, ord="fro"))
    c1 = float(p @ q1m @ p)
    c2 = float(p @ q2m @ p)
    if abs(c1) < 1e-10 * s1 and abs(c2) < 1e-10 * s2:
        raise DegeneratePointError("point lies on the curve")

    rng = np.random.default_rng(seed)
    lines: list = []

    def consider_direction(d: np.ndarray):
        d = normalize_projective(d)  # a real line then has real contact parameters
        a1 = complex(d @ q1m @ d)
        a2 = complex(d @ q2m @ d)
        nd2 = float(np.linalg.norm(d) ** 2)
        if abs(a1) < 1e-6 * nd2 * s1 and abs(a2) < 1e-6 * nd2 * s2:
            return  # line through the curve's trace in the complement plane
        b1 = complex(2.0 * (p @ q1m @ d))
        b2 = complex(2.0 * (p @ q2m @ d))
        if abs(a1) / s1 >= abs(a2) / s2:
            coeffs = (a1, b1, complex(c1))
        else:
            coeffs = (a2, b2, complex(c2))
        roots = np.roots(coeffs)
        if roots.size != 2:
            return
        t1, t2 = roots
        if abs(t1 - t2) < 1e-8 * (1.0 + max(abs(t1), abs(t2))):
            raise DegeneratePointError("tangential contact: the two parameters collide")
        pts = []
        for t in (t1, t2):
            x = p + t * d
            for qm, sq in ((q1m, s1), (q2m, s2)):
                res = abs(x @ qm @ x) / (float(np.linalg.norm(x)) ** 2 * sq)
                if res > 1e-9:
                    return  # not a genuine common intersection
            pts.append(normalize_projective(x))
        for existing in lines:
            if projective_distance(d, existing.direction) < DEDUP_TOL:
                return
        if (t2.real, t2.imag) < (t1.real, t1.imag):
            t1, t2 = t2, t1
            pts.reverse()
        lines.append(
            SecantLine(
                direction=d,
                t1=complex(t1),
                t2=complex(t2),
                points=tuple(pts),
                is_real_line=projective_distance(d, np.conjugate(d)) < TANGENT_TOL,
                points_real=tuple(is_real_point(x, real_tol) for x in pts),
            )
        )

    # Directions d = e3 @ (1, x) in one random complex chart of the
    # complement plane.
    e3 = plane_basis(p) @ _random_unitary(rng)
    g1 = _conic_chart(e3.T @ q1m @ e3)
    g2 = _conic_chart(e3.T @ q2m @ e3)
    w1 = 2.0 * (p @ q1m @ e3)
    w2 = 2.0 * (p @ q2m @ e3)
    lin1 = MPoly(2, {(0, 0): w1[0], (1, 0): w1[1], (0, 1): w1[2]})
    lin2 = MPoly(2, {(0, 0): w2[0], (1, 0): w2[1], (0, 1): w2[2]})
    for x, _ in solve_total_degree([g1 * lin2 - g2 * lin1, g1 * c2 - g2 * c1], rng):
        consider_direction(e3 @ np.concatenate(([1.0 + 0j], x)))

    if len(lines) != 2:
        raise DegeneratePointError(f"expected 2 secant lines, found {len(lines)}")
    lines.sort(key=lambda ln: _point_key(ln.direction))
    return lines


def classify_point(
    pencil: QuadricPencil,
    point,
    seed: int = 0,
    real_tol: float = 1e-8,
) -> str:
    """Type s1..s4 of a real point from its two secant lines.

    s1: both lines real, all four contacts real.
    s2: both lines real, one contact pair real, the other conjugate.
    s3: both lines real, both contact pairs conjugate.
    s4: the two lines themselves form a conjugate pair.
    """
    try:
        lines = secant_lines_through(pencil, point, seed, real_tol)
    except DegeneratePointError:
        return DEGENERATE
    flags = [ln.is_real_line for ln in lines]
    if all(flags):
        reals = sorted(sum(ln.points_real) for ln in lines)
        if reals == [2, 2]:
            return S1
        if reals == [0, 2]:
            return S2
        if reals == [0, 0]:
            return S3
        return DEGENERATE
    if not any(flags):
        d1, d2 = lines[0].direction, lines[1].direction
        if projective_distance(np.conjugate(d1), d2) < TANGENT_TOL:
            return S4
    return DEGENERATE


def sample_real_points(
    pencil: QuadricPencil,
    count: int,
    seed: int = 0,
    max_attempts: int = 400,
):
    """Real curve points harvested from random real plane sections."""
    rng = np.random.default_rng(seed)
    found: list = []
    for _ in range(max_attempts):
        if len(found) >= count:
            return found[:count]
        normal = rng.standard_normal(4)
        try:
            points, _ = intersect_plane(pencil, normal, seed=int(rng.integers(2**31)))
        except (TangentPlaneError, DegeneratePlaneError):
            continue
        for pt in points:
            if is_real_point(pt):
                rep = real_representative(pt)
                if all(projective_distance(rep, q) >= DEDUP_TOL for q in found):
                    found.append(rep)
    if len(found) >= count:
        return found[:count]
    raise RuntimeError(f"found only {len(found)} real curve points in {max_attempts} attempts")


def find_plane_with_signature(
    pencil: QuadricPencil,
    target: tuple,
    seed: int = 0,
    max_attempts: int = 400,
):
    """A real plane whose section has the requested realness signature.

    (4,0) planes are built through triples of sampled real curve points
    (the fourth intersection of such a plane is forced real); other
    signatures come from a seeded scan of random real planes.

    Returns (plane, points).
    """
    target = tuple(target)
    rng = np.random.default_rng(seed)
    if target == (4, 0):
        pool = sample_real_points(pencil, 8, seed=seed)
        for _ in range(max_attempts):
            idx = rng.choice(len(pool), size=3, replace=False)
            stack = np.array([pool[i] for i in idx])
            _, svals, vt = np.linalg.svd(stack)
            if svals[-1] < 1e-8:
                continue
            plane = vt[-1]
            try:
                points, sig = intersect_plane(
                    pencil, plane, seed=int(rng.integers(2**31))
                )
            except (TangentPlaneError, DegeneratePlaneError):
                continue
            if sig.as_tuple() == target:
                return plane, points
    else:
        for _ in range(max_attempts):
            plane = rng.standard_normal(4)
            try:
                points, sig = intersect_plane(
                    pencil, plane, seed=int(rng.integers(2**31))
                )
            except (TangentPlaneError, DegeneratePlaneError):
                continue
            if sig.as_tuple() == target:
                return plane, points
    raise RuntimeError(f"no plane with signature {target} in {max_attempts} attempts")


def _line_intersection(x1, x2, x3, x4) -> np.ndarray:
    """Common point of the coplanar lines span(x1,x2) and span(x3,x4)."""
    m = np.column_stack(
        [
            np.asarray(x1, dtype=np.complex128),
            np.asarray(x2, dtype=np.complex128),
            -np.asarray(x3, dtype=np.complex128),
            -np.asarray(x4, dtype=np.complex128),
        ]
    )
    _, svals, vh = np.linalg.svd(m)
    if svals[-1] > 1e-8 * svals[0]:
        raise ValueError("lines do not intersect (points not coplanar)")
    v = vh[-1].conjugate()
    return normalize_projective(
        v[0] * np.asarray(x1, dtype=np.complex128) + v[1] * np.asarray(x2, dtype=np.complex128)
    )


def _conjugate_pairs(points, tol: float = 1e-6):
    """Split section points into real ones and conjugate pairs."""
    reals = [p for p in points if is_real_point(p)]
    nonreal = [p for p in points if not is_real_point(p)]
    pairs = []
    used = set()
    for i, p in enumerate(nonreal):
        if i in used:
            continue
        for j in range(i + 1, len(nonreal)):
            if j in used:
                continue
            if projective_distance(np.conjugate(p), nonreal[j]) < tol:
                pairs.append((p, nonreal[j]))
                used.add(i)
                used.add(j)
                break
    if 2 * len(pairs) != len(nonreal):
        raise ValueError("non-real points are not conjugation-closed")
    return reals, pairs


def construct_point_of_type(
    pencil: QuadricPencil,
    tag: str,
    seed: int = 0,
) -> np.ndarray:
    """A real point engineered to have secant type ``tag``.

    s1 comes from pairing the four contacts of an all-real section
    plane; s2 from a (2,2) plane, joining the real pair and the
    conjugate pair; s3 from a (0,4) plane joining each conjugate pair;
    s4 from a (0,4) plane with the pairs joined crosswise, which makes
    the two lines conjugates of each other and their meeting point real.
    """
    if tag not in (S1, S2, S3, S4):
        raise ValueError(f"unknown type tag {tag!r}")
    for attempt in range(12):
        attempt_seed = seed + 1000 * attempt
        try:
            if tag == S1:
                _, pts = find_plane_with_signature(pencil, (4, 0), attempt_seed)
                reals, _ = _conjugate_pairs(pts)
                cand = _line_intersection(reals[0], reals[1], reals[2], reals[3])
            elif tag == S2:
                _, pts = find_plane_with_signature(pencil, (2, 2), attempt_seed)
                reals, pairs = _conjugate_pairs(pts)
                (n1, n2), = pairs
                cand = _line_intersection(reals[0], reals[1], n1, n2)
            elif tag == S3:
                _, pts = find_plane_with_signature(pencil, (0, 4), attempt_seed)
                _, pairs = _conjugate_pairs(pts)
                (a1, b1), (a2, b2) = pairs
                cand = _line_intersection(a1, b1, a2, b2)
            else:
                _, pts = find_plane_with_signature(pencil, (0, 4), attempt_seed)
                _, pairs = _conjugate_pairs(pts)
                (a1, b1), (a2, b2) = pairs
                cand = _line_intersection(a1, b2, b1, a2)
            point = real_representative(cand, real_tol=1e-6)
            if abs(pencil.q1.evaluate(point)) < 1e-10 and abs(
                pencil.q2.evaluate(point)
            ) < 1e-10:
                continue  # landed on the curve; resample
            return point
        except (ValueError, RuntimeError):
            continue
    raise RuntimeError(f"could not construct a point of type {tag}")
