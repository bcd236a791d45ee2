"""Secant geometry of a space curve cut out by two real quadrics.

The curve C is the intersection of two quadric surfaces in projective
3-space.  Real planes meet C in four points whose realness signature
(4,0), (2,2) or (0,4) classifies the plane; through a generic real
point P off the curve pass exactly two secant lines of C, and the
realness pattern of those lines and of their contact points splits the
real points of space into four types s1..s4.

Neither query tracks a path.  On a plane the two quadrics restrict to
two conics, whose pencil has a real singular member, found among its
three generalized eigenvalues: a pair of lines, real or conjugate, read
off one 3x3 symmetric eigenproblem, and each line meets the other conic
at the roots of one quadratic (Richter-Gebert, Perspectives on
Projective Geometry, ch. 11).  The quadric
Q_P = (P.Q2.P) Q1 - (P.Q1.P) Q2 of the pencil contains P, and a secant
through P meets it in three points, P and its two contacts, so it lies
on Q_P.  The two secants through P are the two lines of Q_P through P,
read off one 2x2 symmetric eigenproblem on the tangent plane of Q_P at
P.  On such a line the two quadrics are proportional, so it meets the
curve where it meets the one of Q1, Q2 that P is further from, at the
roots of the same quadratic; a double root of it (``_quadratic_roots``)
is a double contact, the one test of tangency.  A real section is closed
under conjugation: ``merge_section_points`` normalizes a section's
points as one stack, reads its dedup and its conjugation gaps off one
``projective_distances`` matrix, returns each non-real point beside its
conjugate, and rejects a section whose non-real points
``realcert.conjugate_indices`` does not pair off.  ``pencil_eig`` is the
one generalized eigensolver of ``elliptic`` and ``segre``: one LAPACK
``ggev`` call.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from .realcert import REAL_TOL, conjugate_indices, is_real_point

DEDUP_TOL = 1e-6
PLANE_ATTEMPTS = 400  # random planes drawn before a sampler gives up
# sigma2/sigma1 of a section's best singular conic below which it is a double
# line: 0.02 or more on 3,000 random planes, ~1e-5 at a four-fold contact
RANK_TWO_TOL = 1e-4

(_GGEV,) = get_lapack_funcs(("ggev",), dtype=np.float64)

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
    """A secant through a point P: its unit direction d (d.P = 0), its
    two contacts with the curve, projectively normalized, whether the
    line is real, and whether each contact is."""

    direction: np.ndarray
    points: tuple
    is_real_line: bool
    points_real: tuple


def normalize_projective(x) -> np.ndarray:
    """Scale so the first coordinate within a relative 1e-9 of the largest
    modulus equals one: rounding cannot pick among ties such as (1, i, 0, 0).
    A (K, n) stack is normalized row by row, bitwise as one row at a time;
    any other input is read as one flattened vector."""
    v = np.asarray(x, dtype=np.complex128)
    if v.ndim != 2:
        v = v.ravel()
    size = np.abs(v)
    idx = (size >= (1.0 - 1e-9) * size.max(axis=-1, keepdims=True)).argmax(axis=-1)
    pivot = v[idx] if v.ndim == 1 else v[np.arange(len(v)), idx, None]
    if not pivot.all():
        raise ValueError("zero vector has no projective normalization")
    return v / pivot


def projective_distances(a, b) -> np.ndarray:
    """Sines of the principal angles between the rows of the stacks ``a``
    and ``b`` of projective points, as a len(a) x len(b) matrix."""
    a, b = (np.atleast_2d(np.asarray(m, dtype=np.complex128)) for m in (a, b))
    na, nb = np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1)
    if not (na.all() and nb.all()):
        raise ValueError("zero vector")
    c = np.abs(a.conj() @ b.T) / np.outer(na, nb)
    return np.sqrt(np.maximum(0.0, 1.0 - np.minimum(1.0, c * c)))


def projective_distance(x, y) -> float:
    """Sine of the principal angle between two projective points."""
    return float(projective_distances(np.ravel(x), np.ravel(y))[0, 0])


def _lex_order(points, major) -> np.ndarray:
    """Indices that sort the rows of ``points`` by the ``major`` key, then
    by their coordinates rounded to 9 digits, real part before imaginary."""
    coords = np.round(np.asarray(points, dtype=np.complex128), 9).view(np.float64)
    return np.lexsort(np.vstack([coords.T[::-1], major]))


def real_representative(x, real_tol: float = REAL_TOL) -> np.ndarray:
    """Real coordinate vector of a conjugation-fixed projective point."""
    w = normalize_projective(x)
    if not is_real_point(w, real_tol):
        raise ValueError("point is not real projectively")
    w = w.real
    return w / np.linalg.norm(w)


def merge_section_points(vectors):
    """Merge the endpoints of one section solve into its points.

    The (K, n) vectors are normalized projectively in one pass; a point
    closer than ``DEDUP_TOL`` to any earlier one repeats it and is
    dropped.  Returns (points, real_count): the real points first,
    ordered by their coordinates, then the non-real ones, each followed
    by its conjugate, the pairs ordered by their first points'
    coordinates.
    Raises ValueError when the non-real points are not closed under
    conjugation.
    """
    points = normalize_projective(np.asarray(vectors, dtype=np.complex128).reshape(len(vectors), -1))
    sines = projective_distances(np.concatenate([points, points.conj()]), points)
    # a point's sine to itself is about 0, so its first sine below DEDUP_TOL
    # is its own exactly when no earlier point lies that close
    keep = np.flatnonzero((sines[: len(points)] < DEDUP_TOL).argmax(axis=1) == np.arange(len(points)))
    kept = points[keep]
    real = is_real_point(kept)
    order = keep[_lex_order(kept, ~real)]
    real_count = int(real.sum())
    nonreal = order[real_count:]
    partners = conjugate_indices(sines[len(points) + nonreal][:, nonreal], DEDUP_TOL)
    index = np.arange(len(partners))
    unpaired = int(((partners < 0) | (partners == index) | (partners[partners] != index)).sum())
    if unpaired:
        raise ValueError(f"{unpaired} of {len(partners)} non-real points have no conjugate partner: "
                         "the points are not conjugation-closed")
    first = index[index < partners]
    paired = nonreal[np.stack([first, partners[first]], axis=1).ravel()]
    return list(points[np.concatenate([order[:real_count], paired])]), real_count


def plane_basis(plane) -> np.ndarray:
    """Orthonormal 4x3 basis of the plane a.x = 0."""
    a = np.asarray(plane, dtype=float).reshape(1, 4)
    if not np.isfinite(a).all():
        raise ValueError(f"plane coefficients {a.ravel().tolist()} are not all finite")
    scale = np.abs(a).max()
    if scale == 0:
        raise ValueError("zero plane")
    _, _, vt = np.linalg.svd(a / scale)
    return vt[1:].T


def pencil_eig(a, b, vectors: bool = False):
    """Generalized eigenvalues of the real pencil (a, b), homogeneous as
    ``scipy.linalg.eig(a, b, homogeneous_eigvals=True)`` gives them: a
    (2, n) array of rows alpha and beta, with a v = (alpha / beta) b v.
    With ``vectors``, also the right eigenvectors as columns, no column
    normalized: real when every eigenvalue is, as scipy returns them, and
    otherwise complex, conjugate pairs unpacked from LAPACK's real packing.
    One LAPACK ``ggev`` call; LinAlgError when it does not converge."""
    alphar, alphai, beta, _, vr, _, info = _GGEV(a, b, compute_vl=0, compute_vr=int(vectors))
    if info:
        raise np.linalg.LinAlgError(f"generalized eig algorithm (ggev) did not converge (LAPACK info={info})")
    pairs = np.array([alphar + 1j * alphai, beta])
    if not vectors:
        return pairs
    if not alphai.any():
        return pairs, vr
    # a pair's first eigenvalue has alphai > 0; its columns j, j+1 hold the
    # real and imaginary parts of its vector, the second's is the conjugate
    first = np.flatnonzero(alphai > 0)
    vecs = vr.astype(np.complex128)
    vecs.imag[:, first] = vr[:, first + 1]
    vecs[:, first + 1] = vecs[:, first].conj()
    return pairs, vecs


def _singular_member(a: np.ndarray, b: np.ndarray):
    """The best conditioned real singular conic of the pencil of a and
    b (unit Frobenius norms) as the ``eigh`` of its unit-norm matrix,
    eigenvalues ordered by modulus.

    Each singular member is beta a - alpha b for a generalized
    eigenvalue (alpha, beta) of (a, b), and det(a + t b) is a real
    cubic, so some member is real.  A member with vertex v and nonzero
    eigenvalues |lam_1| <= |lam_2| scores |lam_1 / lam_2| (how clearly
    it is rank 2) times max(|v.a.v|, |v.b.v|), which vanishes at a
    multiple root, known only to sqrt(eps)."""
    pairs = pencil_eig(a, b)
    if (np.abs(pairs).max(axis=0) < 1e-12).any():
        raise DegeneratePlaneError("every conic of the pencil is singular on the plane")
    best, best_score = None, -1.0
    for alpha, beta in pairs.T:
        w = np.array([beta, -alpha])
        w /= w[np.argmax(np.abs(w))]  # its larger entry 1, the other r with |r| <= 1
        r = w[np.argmin(np.abs(w))]
        if abs(r.imag) > REAL_TOL * (1.0 + abs(r)):
            continue
        m = w[0].real * a + w[1].real * b
        lam, vecs = np.linalg.eigh(m / np.linalg.norm(m))
        order = np.argsort(np.abs(lam))
        lam, vecs = lam[order], vecs[:, order]
        v = vecs[:, 0]
        score = abs(lam[1] / lam[2]) * max(abs(v @ a @ v), abs(v @ b @ v))
        if score > best_score:
            best, best_score = (lam, vecs), score
    return best


def _quadratic_roots(a, b, c) -> list:
    """The roots (s, t), up to scale, of a s^2 + 2b st + c t^2: (q, a) and
    (c, q) with q = -(b + r), r = sqrt(b^2 - ac) on the branch that does
    not cancel.  Where their chordal distance 2|rq| / (|(q, a)| |(c, q)|)
    is at most ``DEDUP_TOL``, the double root (-b, a) or (c, -b) comes
    once instead, exact to rounding where each of the pair is good only
    to sqrt(eps)."""
    r = cmath.sqrt(b * b - a * c)
    q = -(b + r) if (b.conjugate() * r).real >= 0 else r - b
    if 2.0 * abs(r * q) <= DEDUP_TOL * math.hypot(abs(q), abs(a)) * math.hypot(abs(c), abs(q)):
        return [(-b, a) if abs(a) >= abs(c) else (c, -b)]
    return [(q, a), (c, q)]


def intersect_plane(pencil: QuadricPencil, plane):
    """The four intersection points of a real transverse plane with the curve.

    Restricts both quadrics to conics a and b on an orthonormal basis of
    the plane.  A real singular member of their pencil is a pair of
    lines through its vertex, real or conjugate, read off one ``eigh``;
    each line meets the one of a, b further from that member at the
    roots of one quadratic.  No path is tracked.
    Points come back projectively normalized in the order of
    ``merge_section_points``: real ones first, then each non-real one
    followed by its conjugate.

    Returns:
        (points, PlaneSignature)

    Raises:
        TangentPlaneError: three points found, one of them the double
            root of its line's quadratic; the error carries that point.
        DegeneratePlaneError: fewer than four isolated intersections,
            among them the tangent planes of the pencil's cones (two
            double roots) and planes with a four-fold contact (whose
            best singular member is within ``RANK_TWO_TOL`` of a double
            line), or non-real points that are not conjugation-closed.
    """
    basis = plane_basis(plane)
    m1, m2 = (basis.T @ q.matrix @ basis for q in (pencil.q1, pencil.q2))
    n1, n2 = np.linalg.norm(m1), np.linalg.norm(m2)
    if min(n1, n2) < 1e-12 * max(n1, n2):
        raise DegeneratePlaneError("the plane lies on a quadric of the pencil")
    a, b = m1 / n1, m2 / n2
    lam, vecs = _singular_member(a, b)
    if abs(lam[1] / lam[2]) < RANK_TWO_TOL:
        raise DegeneratePlaneError("plane has a four-fold contact with the curve")

    # On its eigenbasis the member is lam1 y1^2 + lam2 y2^2, the vertex's
    # coordinate dropped: zero on the lines through the vertex with
    # directions (sqrt(-lam2), +-sqrt(lam1)), real when the signs differ
    # and a conjugate pair when not.  Each meets the one of a, b that is
    # larger at the vertex: the member, zero there, is further from it.
    vertex = vecs[:, 0]
    other = max((a, b), key=lambda m: abs(vertex @ m @ vertex))
    y1, y2 = np.sqrt(np.array([-lam[2], lam[1]], dtype=np.complex128))

    def meet(d):
        d = d / np.linalg.norm(d)  # so that (s, t) -> s vertex + t d is an isometry
        roots = _quadratic_roots(vertex @ other @ vertex, vertex @ other @ d, d @ other @ d)
        return [basis @ (s * vertex + t * d) for s, t in roots]

    lines = [meet(y1 * vecs[:, 1] + y2 * vecs[:, 2])]
    if lam[1] * lam[2] < 0:
        lines.append(meet(y1 * vecs[:, 1] - y2 * vecs[:, 2]))
    else:
        lines.append([np.conjugate(x) for x in lines[0]])
    try:
        found, real_count = merge_section_points([x for line in lines for x in line])
    except ValueError as err:
        raise DegeneratePlaneError(str(err)) from err

    if len(found) < 4:
        # A line whose quadratic has a double root touches the curve
        # there.  Two of them make the plane tangent to a cone of the
        # pencil along the line through them.
        double = [normalize_projective(line[0]) for line in lines if len(line) == 1]
        if len(found) == 3 and double:
            raise TangentPlaneError("plane has a double contact with the curve", double_point=double[0])
        if len(found) == 2 == len(double):
            raise DegeneratePlaneError("plane touches the curve at two points: it is tangent to a cone of the pencil")
        raise DegeneratePlaneError(f"expected 4 intersection points, found {len(found)}")
    return found, PlaneSignature(real_count, 4 - real_count)


def plane_record(pencil: QuadricPencil, plane) -> dict:
    """The section of one plane as a report record: status "transverse"
    with the signature and the points, "tangent" with the double point,
    or "degenerate" with the reason."""
    try:
        points, sig = intersect_plane(pencil, plane)
    except TangentPlaneError as err:
        return {"status": "tangent", "double_point": err.double_point}
    except DegeneratePlaneError as err:
        return {"status": "degenerate", "detail": str(err)}
    return {"status": "transverse", "signature": sig.as_tuple(), "points": points}


def pencil_scan(pencil: QuadricPencil, k_values):
    """Signatures of the planes x2 = k*x3 for each requested k.

    The planes of this family share the base line x2 = x3 = 0, which
    must meet the curve in two fixed points: both quadrics restricted to
    the base line must be proportional, their ``_quadratic_roots`` two
    (checked; ValueError otherwise).  Tangent members are reported as
    records with the double point instead of a signature.
    """
    r1, r2 = (q.matrix[[0, 0, 1], [0, 1, 1]] for q in (pencil.q1, pencil.q2))
    cross = np.linalg.norm(np.cross(r1, r2))
    if cross > 1e-9 * (np.linalg.norm(r1) * np.linalg.norm(r2) + 1e-30):
        raise ValueError("base line x2=x3=0 does not meet the curve in fixed points")
    if len(_quadratic_roots(*(r1 if np.linalg.norm(r1) >= np.linalg.norm(r2) else r2))) == 1:
        raise ValueError("base line is tangent to the curve")

    return [
        {"k": float(k), **plane_record(pencil, np.array([0.0, 0.0, 1.0, -float(k)]))}
        for k in k_values
    ]


def secant_lines_through(pencil: QuadricPencil, point):
    """The two secant lines of the curve through a generic real point.

    Returns a list of exactly two SecantLine records, found in closed
    form as the lines through the point on the quadric of the pencil
    through it; each line meets the curve where it meets the quadric the
    point is further from, at the roots of one quadratic.  The lines are
    both real, or a conjugate pair with conjugate directions.

    Raises DegeneratePointError when the point lies on the curve or is
    a cone vertex of the pencil, a contact is tangential (its two
    contacts within ``DEDUP_TOL``, which ``_quadratic_roots`` returns as
    one double root), or the two lines coincide (directions within
    ``DEDUP_TOL``).
    """
    p = np.asarray(point, dtype=np.complex128).ravel()
    if p.size != 4:
        raise ValueError("expected a point of projective 3-space")
    if not np.isfinite(p).all():
        raise ValueError(
            f"point coordinates {np.ravel(point).tolist()} are not all finite"
        )
    if not is_real_point(p):
        raise ValueError("base point must be real")
    p = np.real(normalize_projective(p))
    p = p / np.linalg.norm(p)

    q1m, q2m = (q.matrix / np.linalg.norm(q.matrix) for q in (pencil.q1, pencil.q2))
    c1, c2 = p @ q1m @ p, p @ q2m @ p
    if max(abs(c1), abs(c2)) < 1e-10:
        raise DegeneratePointError("point lies on the curve")

    # A secant meets the quadric qp of the pencil through p in three
    # points, p and its two contacts, so it lies on qp: the secants are
    # the two lines of qp through p, inside its tangent plane there.  On
    # an orthonormal basis of that plane modulo p, qp is the binary form
    # lam0 y0^2 + lam1 y1^2, zero at y = (sqrt(lam1), +-sqrt(-lam0)): a
    # real pair of lines when the signs differ, and a conjugate pair
    # d = a +- ib when not.  On a line of qp the two quadrics are
    # proportional, so the contacts with the one p is further from lie
    # on both.
    qp = c2 * q1m - c1 * q2m
    normal = qp @ p
    if np.linalg.norm(normal) < 1e-10 * np.linalg.norm(qp):
        raise DegeneratePointError("point is the vertex of a cone of the pencil")
    basis = np.linalg.svd(np.array([p, normal]))[2][2:].T
    lam, vecs = np.linalg.eigh(basis.T @ qp @ basis)
    y0, y1 = np.sqrt(np.array([lam[1], -lam[0]], dtype=np.complex128))
    far = q1m if abs(c1) >= abs(c2) else q2m

    lines = []
    for d in (basis @ vecs @ [y0, sign * y1] for sign in (1.0, -1.0)):
        d = d / np.linalg.norm(d)  # so that (s, t) -> s p + t d is an isometry
        roots = _quadratic_roots(p @ far @ p, p @ far @ d, d @ far @ d)
        if len(roots) == 1:
            raise DegeneratePointError("tangential contact: the line touches the curve")
        points = tuple(normalize_projective(s * p + t * d) for s, t in roots)
        lines.append(SecantLine(direction=d, points=points, is_real_line=bool(lam[0] * lam[1] < 0),
                                points_real=tuple(is_real_point(x) for x in points)))
    if projective_distance(lines[0].direction, lines[1].direction) < DEDUP_TOL:
        raise DegeneratePointError("the two secant lines coincide")
    return lines


def classify_point(pencil: QuadricPencil, point) -> str:
    """Type s1..s4 of a real point from its two secant lines.

    s1: both lines real, all four contacts real.
    s2: both lines real, one contact pair real, the other conjugate.
    s3: both lines real, both contact pairs conjugate.
    s4: the two lines themselves form a conjugate pair.
    Any other point, and one that ``secant_lines_through`` rejects, is
    "degenerate".
    """
    try:
        lines = secant_lines_through(pencil, point)
    except DegeneratePointError:
        return DEGENERATE
    if not lines[0].is_real_line:
        return S4
    reals = tuple(sorted(sum(ln.points_real) for ln in lines))
    return {(2, 2): S1, (0, 2): S2, (0, 0): S3}.get(reals, DEGENERATE)


def sample_real_points(pencil: QuadricPencil, count: int, seed: int = 0):
    """Real curve points harvested from random real plane sections."""
    rng = np.random.default_rng(seed)
    found: list = []
    for _ in range(PLANE_ATTEMPTS):
        if len(found) >= count:
            return found[:count]
        normal = rng.standard_normal(4)
        try:
            points, sig = intersect_plane(pencil, normal)
        except (TangentPlaneError, DegeneratePlaneError):
            continue
        for rep in map(real_representative, points[: sig.real_count]):
            if all(projective_distance(rep, q) >= DEDUP_TOL for q in found):
                found.append(rep)
    if len(found) >= count:
        return found[:count]
    raise RuntimeError(f"found only {len(found)} real curve points in {PLANE_ATTEMPTS} attempts")


def find_plane_with_signature(pencil: QuadricPencil, target: tuple, seed: int = 0):
    """A real plane whose section has the requested realness signature.

    (4,0) planes are built through triples of sampled real curve points
    (the fourth intersection of such a plane is forced real); other
    signatures come from a seeded scan of random real planes.

    Returns (plane, points).
    """
    target = tuple(target)
    rng = np.random.default_rng(seed)
    pool = sample_real_points(pencil, 8, seed=seed) if target == (4, 0) else None
    for _ in range(PLANE_ATTEMPTS):
        if pool is None:
            plane = rng.standard_normal(4)
        else:
            idx = rng.choice(len(pool), size=3, replace=False)
            _, svals, vt = np.linalg.svd(np.array([pool[i] for i in idx]))
            if svals[-1] < 1e-8:
                continue
            plane = vt[-1]
        try:
            points, sig = intersect_plane(pencil, plane)
        except (TangentPlaneError, DegeneratePlaneError):
            continue
        if sig.as_tuple() == target:
            return plane, points
    raise RuntimeError(f"no plane with signature {target} in {PLANE_ATTEMPTS} attempts")


def _line_intersection(x1, x2, x3, x4) -> np.ndarray:
    """Common point of the coplanar lines span(x1,x2) and span(x3,x4)."""
    x1, x2, x3, x4 = (np.asarray(x, dtype=np.complex128) for x in (x1, x2, x3, x4))
    _, svals, vh = np.linalg.svd(np.column_stack([x1, x2, -x3, -x4]))
    if svals[-1] > 1e-8 * svals[0]:
        raise ValueError("lines do not intersect (points not coplanar)")
    v = vh[-1].conjugate()
    return normalize_projective(v[0] * x1 + v[1] * x2)


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
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    for attempt in range(12):
        attempt_seed = seed + 1000 * attempt
        try:
            target = {S1: (4, 0), S2: (2, 2)}.get(tag, (0, 4))
            _, pts = find_plane_with_signature(pencil, target, attempt_seed)
            # the real points come first, then each non-real one beside its conjugate
            cand = _line_intersection(pts[0], pts[3], pts[1], pts[2]) if tag == S4 else _line_intersection(*pts)
            point = real_representative(cand, real_tol=1e-6)
            if max(abs(q.evaluate(point)) for q in (pencil.q1, pencil.q2)) < 1e-10:
                continue  # landed on the curve; resample
            return point
        except (ValueError, RuntimeError):
            continue
    raise RuntimeError(f"could not construct a point of type {tag}")
