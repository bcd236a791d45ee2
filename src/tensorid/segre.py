"""Linear sections of two-factor Segre varieties.

The Segre variety of rank-one tensors u (x) v sits in the projective
space of (a1+1) x (a2+1) matrices.  Cutting it with a real linear space
of codimension a1 + a2 leaves finitely many points, as many as the
variety's degree; counting how many of them are real is the whole game
here.  The arithmetic side tracks the almost-unbalanced rank a_q =
(a1+1)(a2+1) - (a1+a2), which is exactly the number of points needed to
span a space of the right codimension.

A section is one generalized eigenproblem; no path is tracked.  With
u the factor of the smaller dimension a + 1 and x the other, of
dimension n, the equations read sum_l u_l A_l x = 0, A_l holding the
coefficients of u_l, of size (n+a-1) x n.  At a point the vectors A_l x are
dependent with coefficients u, so the wedges Delta_l(x^a) =
(-1)^l wedge_{k != l} A_k x satisfy Delta_l z = (u_l / u_0) Delta_0 z
for z = x^a.  Each Delta_l maps Sym^a(C^n) to wedge^a(C^(n+a-1)), both
of dimension D = C(a1+a2, a1), so the pencil (sum_l h_l Delta_l,
Delta_0) gives all D points at once (Hochstenbach, Kosir and Plestenjak,
Numer. Linear Algebra Appl. 2024, rectangular multiparameter eigenproblems).
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .elliptic import DEDUP_TOL, merge_section_points, projective_distances

# |alpha| or |beta| of an eigenvalue of the unit-norm pencil at or below this
# is 0: on 1,600 generic (2,2), (2,4), (4,2) and (3,3) sections max(|alpha|,
# |beta|) >= 1.2e-4 and |beta| >= 2.2e-7, on singular pencils both are 1e-15
PENCIL_TOL = 1e-12
# a second singular value of the row-normalized equations at a unit u at
# or below this leaves a line of v (8.1e-3 or more on the same sections)
NULL_TOL = 1e-10
POLISH_STEPS = 3


class DeficientSectionError(RuntimeError):
    """The space is not generic: the section is not finite, has a point
    at an infinite eigenvalue or a double point, has non-real points not
    closed under conjugation, or has a count other than the degree."""


class SignatureNotFoundError(RuntimeError):
    """No section with the requested realness signature within budget."""

    def __init__(self, message, attempts=0):
        super().__init__(message)
        self.attempts = attempts


@dataclass(frozen=True)
class SegreSpec:
    """Two projective factor dimensions (a1, a2)."""

    dims: tuple

    def __post_init__(self):
        d = tuple(int(v) for v in self.dims)
        if len(d) != 2 or any(v < 1 for v in d):
            raise ValueError("expected two positive factor dimensions")
        object.__setattr__(self, "dims", d)

    @property
    def ambient_dim(self) -> int:
        a1, a2 = self.dims
        return (a1 + 1) * (a2 + 1) - 1

    @property
    def variety_dim(self) -> int:
        return sum(self.dims)


@dataclass(frozen=True)
class LinearSpace:
    """codim(L) real linear forms on the ambient space, full row rank."""

    equations: np.ndarray
    spanning_points: tuple = field(default=(), compare=False)

    def __post_init__(self):
        eqs = np.atleast_2d(np.asarray(self.equations, dtype=float))
        bad = np.flatnonzero(~np.isfinite(eqs).all(axis=1))
        if bad.size:
            raise ValueError(f"equation rows {bad.tolist()} are not all finite")
        if np.linalg.matrix_rank(eqs, tol=1e-10) != eqs.shape[0]:
            raise ValueError("equations are not of full row rank")
        object.__setattr__(self, "equations", eqs)

    @property
    def codim(self) -> int:
        return self.equations.shape[0]


@dataclass(frozen=True)
class SectionResult:
    points: tuple
    signature: tuple
    degree_expected: int

    @property
    def real_count(self) -> int:
        return self.signature[0]

    @property
    def nonreal_count(self) -> int:
        return self.signature[1]


def degree(spec: SegreSpec) -> int:
    """Number of points in a generic linear section of complementary dim."""
    return math.comb(sum(spec.dims), spec.dims[0])


def almost_unbalanced_profile(spec: SegreSpec) -> dict:
    """Rank a_q, section degree D and the parity of D - a_q.

    a_q = prod(a_i + 1) - sum(a_i) is the rank for which decompositions
    of a generic three-factor tensor with last factor of dimension a_q
    correspond one-to-one to the points of a linear section of this
    two-factor Segre.
    """
    a1, a2 = spec.dims
    a_q = (a1 + 1) * (a2 + 1) - (a1 + a2)
    d = degree(spec)
    return {"a_q": a_q, "D": d, "parity": "even" if (d - a_q) % 2 == 0 else "odd"}


def sample_segre_point(spec: SegreSpec, rng: np.random.Generator) -> np.ndarray:
    """Random real rank-one point, as a unit ambient coordinate vector."""
    u = rng.standard_normal(spec.dims[0] + 1)
    x = np.outer(u, rng.standard_normal(spec.dims[1] + 1)).ravel()
    return x / np.linalg.norm(x)


def span_through_points(spec: SegreSpec, k: int, seed: int = 0) -> LinearSpace:
    """The linear span of k random real rank-one points, as equations.

    The equation rows are an orthonormal basis of the orthogonal
    complement of the sampled points, so each point satisfies every
    equation to machine precision.  Rank-deficient draws are resampled
    (bounded retries).
    """
    n = spec.ambient_dim + 1
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be between 1 and {n - 1}")
    rng = np.random.default_rng(seed)
    for _ in range(50):
        pts = [sample_segre_point(spec, rng) for _ in range(k)]
        _, svals, vt = np.linalg.svd(np.array(pts))
        if svals[-1] >= 1e-10 * svals[0]:
            return LinearSpace(equations=vt[k:], spanning_points=tuple(pts))
    raise RuntimeError("sampled points were persistently rank deficient")


def random_section_space(spec: SegreSpec, seed: int = 0) -> LinearSpace:
    """A random real linear space of the square codimension a1 + a2."""
    rng = np.random.default_rng(seed)
    return LinearSpace(equations=rng.standard_normal((spec.variety_dim, spec.ambient_dim + 1)))


def _wedge_maps(mats: np.ndarray) -> np.ndarray:
    """The maps Delta_l of the stack ``mats`` of A_l, as an (a+1, D, D)
    stack: entry (I, s) of Delta_l is (-1)^l times the minor on rows I of
    the columns A_k x_s, k != l.  x_s counts the indices of the s-th
    multiset of a of them, so the x_s^a are a well conditioned basis."""
    a, n = len(mats) - 1, mats.shape[2]
    multisets = itertools.combinations_with_replacement(range(n), a)
    samples = np.array([np.bincount(c, minlength=n) for c in multisets], dtype=float)
    images = np.einsum("lkj,sj->skl", mats, samples)[:, list(itertools.combinations(range(mats.shape[1]), a))]
    others = [[k for k in range(a + 1) if k != l] for l in range(a + 1)]
    minors = np.linalg.det(np.swapaxes(images[..., others], 2, 3))
    return (minors * (-1.0) ** np.arange(a + 1)).transpose(2, 1, 0)


def _polish(eqs: np.ndarray, u: np.ndarray, v: np.ndarray):
    """Newton steps on u^T E_k v = 0, E_k the slices of ``eqs``, for all
    points at once, each in the charts fixing its starting u^H u, v^H v."""
    k, p = len(eqs), u.shape[1]
    jac = np.zeros((len(u), k + 2, p + v.shape[1]), dtype=complex)
    jac[:, k, :p], jac[:, k + 1, p:] = u.conj(), v.conj()
    rhs = np.zeros((len(u), k + 2, 1), dtype=complex)
    for _ in range(POLISH_STEPS):
        jac[:, :k, :p] = np.einsum("kij,dj->dki", eqs, v)
        jac[:, :k, p:] = np.einsum("kij,di->dkj", eqs, u)
        rhs[:, :k, 0] = -np.einsum("dki,di->dk", jac[:, :k, :p], u)
        step = np.linalg.solve(jac, rhs)[..., 0]
        u, v = u + step[:, :p], v + step[:, p:]
    return u, v


def solve_section(spec: SegreSpec, space: LinearSpace, seed: int = 0) -> SectionResult:
    """All intersection points of the Segre variety with a linear space.

    One D x D generalized eigenproblem (see the module docstring), with
    u rotated by a random real orthogonal R and h a random real vector,
    both drawn from ``seed``.  The images Delta_l z of an eigenvector z
    are parallel, with coefficients u; v is the null vector of the
    equations at u, and a batched Newton polish follows.  Two u closer
    than ``DEDUP_TOL`` are a double point.  The points u (x) v are
    merged by ``elliptic.merge_section_points``: returned normalized,
    real ones first in coordinate order, then each non-real one
    followed by its conjugate.

    Raises DeficientSectionError naming the reason: the section is not
    finite (the pencil is singular, or the equations at some u leave a
    line of v), an infinite eigenvalue, a double point, or non-real
    points not closed under conjugation.  D distinct u give D points.
    """
    a1, a2 = spec.dims
    if space.codim != spec.variety_dim:
        raise ValueError(f"need codimension {spec.variety_dim}, got {space.codim}")
    if space.equations.shape[1] != spec.ambient_dim + 1:
        raise ValueError("equation width does not match the ambient space")
    eqs = (space.equations / np.abs(space.equations).max(axis=1, keepdims=True)).reshape(-1, a1 + 1, a2 + 1)
    if a1 > a2:
        eqs = eqs.transpose(0, 2, 1)
    rng = np.random.default_rng(seed)
    rot = np.linalg.qr(rng.standard_normal((eqs.shape[1],) * 2))[0]
    delta = _wedge_maps(np.einsum("kij,il->lkj", eqs, rot))
    delta /= np.linalg.norm(delta) or 1.0
    pencil = np.tensordot(rng.standard_normal(len(delta) - 1), delta[1:], 1), delta[0]
    pairs, vecs = scipy.linalg.eig(*pencil, homogeneous_eigvals=True, check_finite=False)
    if np.abs(pairs).max(axis=0).min() <= PENCIL_TOL:
        raise DeficientSectionError("the section is not finite: its eigenvalue pencil is singular")
    if np.abs(pairs[1]).min() <= PENCIL_TOL:
        raise DeficientSectionError("infinite eigenvalue: a point lies on the chart's hyperplane u~_0 = 0")
    u = np.linalg.svd(np.einsum("lis,sd->dil", delta, vecs))[2][:, 0] @ rot.T
    _, svals, vh = np.linalg.svd(np.einsum("dl,klj->dkj", u, eqs))
    if svals[:, -2].min() <= NULL_TOL:
        raise DeficientSectionError("the section is not finite: it contains a line")
    sines = projective_distances(u, u) + np.eye(len(u))  # of the angles between the u's, 1 added on the diagonal
    if sines.min() < DEDUP_TOL:
        raise DeficientSectionError(f"double point: two eigenvalues merge within {DEDUP_TOL:g}")
    u, v = _polish(eqs, u, vh[:, -1].conj())
    points = np.einsum("di,dj->dij", *((v, u) if a1 > a2 else (u, v))).reshape(len(u), -1)
    try:
        found, real_count = merge_section_points(points)
    except ValueError as err:
        raise DeficientSectionError(str(err)) from err
    want = degree(spec)
    return SectionResult(points=tuple(found), signature=(real_count, want - real_count), degree_expected=want)


def search_signature(
    spec: SegreSpec,
    target: tuple,
    max_attempts: int = 50,
    seed: int = 0,
):
    """Hunt for a real linear space whose section has the given signature.

    Two sampling strategies alternate: (a) spans of `target real count`
    random real rank-one points, available exactly when that count is
    the almost-unbalanced rank a_q (the span then has the square
    codimension and its spanning points are real section points for
    free), and (b) fully random real spaces.  Returns the first witness
    (LinearSpace, SectionResult); raises SignatureNotFoundError after
    max_attempts sections, which is evidence, not a disproof.  Raises
    ValueError, before any section is solved, on a target that no
    section can have or on max_attempts < 1.
    """
    target = (int(target[0]), int(target[1]))
    want = degree(spec)
    if min(target) < 0:
        raise ValueError(f"target counts must be non-negative, got {target}")
    if target[0] + target[1] != want:
        raise ValueError(f"target must sum to the degree {want}")
    if target[1] % 2 != 0:
        raise ValueError("nonreal count must be even (conjugation closure)")
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be at least 1, got {max_attempts}")
    span_applicable = target[0] == almost_unbalanced_profile(spec)["a_q"]
    rng = np.random.default_rng(seed)
    for attempt in range(max_attempts):
        draw_seed = int(rng.integers(2**31))
        if span_applicable and attempt % 2 == 0:
            space = span_through_points(spec, target[0], seed=draw_seed)
        else:
            space = random_section_space(spec, seed=draw_seed)
        try:
            result = solve_section(spec, space, seed=int(rng.integers(2**31)))
        except DeficientSectionError:
            continue
        if result.signature == target:
            return space, result
    raise SignatureNotFoundError(
        f"no section with signature {target} in {max_attempts} attempts", attempts=max_attempts
    )
