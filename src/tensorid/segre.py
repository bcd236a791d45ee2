"""Linear sections of two-factor Segre varieties.

The Segre variety of rank-one tensors u (x) v sits in the projective
space of (a1+1) x (a2+1) matrices.  Cutting it with a real linear space
of codimension a1 + a2 leaves finitely many points, as many as the
variety's degree; counting how many of them are real is the whole game
here.  The arithmetic side tracks the almost-unbalanced rank a_q =
(a1+1)(a2+1) - (a1+a2), which is exactly the number of points needed to
span a space of the right codimension.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .elliptic import normalize_projective, projective_distance, _point_key
from .homotopy import SegmentHomotopy, track_and_polish
from .poly import PolySystem
from .realcert import is_real_point

DEDUP_TOL = 1e-6


class DeficientSectionError(RuntimeError):
    """Section produced a number of points other than the degree."""


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
        rank = np.linalg.matrix_rank(eqs, tol=1e-10)
        if rank != eqs.shape[0]:
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
    a1, a2 = spec.dims
    return math.comb(a1 + a2, a1)


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
    return {
        "a_q": a_q,
        "D": d,
        "parity": "even" if (d - a_q) % 2 == 0 else "odd",
    }


def sample_segre_point(spec: SegreSpec, rng: np.random.Generator) -> np.ndarray:
    """Random real rank-one point, as a unit ambient coordinate vector."""
    a1, a2 = spec.dims
    u = rng.standard_normal(a1 + 1)
    v = rng.standard_normal(a2 + 1)
    x = np.outer(u, v).ravel()
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
        stack = np.array(pts)
        _, svals, vt = np.linalg.svd(stack)
        if svals[-1] < 1e-10 * svals[0]:
            continue
        return LinearSpace(equations=vt[k:], spanning_points=tuple(pts))
    raise RuntimeError("sampled points were persistently rank deficient")


def random_section_space(spec: SegreSpec, seed: int = 0) -> LinearSpace:
    """A random real linear space of the square codimension a1 + a2."""
    rng = np.random.default_rng(seed)
    return LinearSpace(equations=rng.standard_normal((spec.variety_dim, spec.ambient_dim + 1)))


def _section_system(spec: SegreSpec, alpha: np.ndarray, beta: np.ndarray) -> PolySystem:
    """Section equations with the equation rows as parameters.

    Unknowns: u (a1 + 1 coordinates), then v (a2 + 1).  Parameter
    k * (a1+1)(a2+1) + i * (a2+1) + j is entry (k, i * (a2+1) + j) of the
    equation matrix, so ``equations.ravel()`` is a parameter vector.
    The a1 + a2 bilinear equations are followed by the affine chart
    alpha.u = 1 and beta.v = 1, which holds no parameter: scaling the
    parameters by the homotopy's twist keeps every root.
    """
    a1, a2 = spec.dims
    n = a1 + a2 + 2
    pairs = list(itertools.product(range(a1 + 1), range(a2 + 1)))
    unit = np.eye(n, dtype=int)
    rows = [
        [
            (1.0, tuple(unit[i] + unit[a1 + 1 + j]), k * len(pairs) + c)
            for c, (i, j) in enumerate(pairs)
        ]
        for k in range(spec.variety_dim)
    ]
    for coeffs, first in ((alpha, 0), (beta, a1 + 1)):
        chart = [(c, tuple(unit[first + i]), -1) for i, c in enumerate(coeffs)]
        rows.append(chart + [(-1.0, (0,) * n, -1)])
    return PolySystem(rows, num_unknowns=n, num_params=spec.variety_dim * len(pairs))


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def solve_section(
    spec: SegreSpec,
    space: LinearSpace,
    seed: int = 0,
    real_tol: float = 1e-8,
) -> SectionResult:
    """All intersection points of the Segre variety with a linear space.

    One 2-homogeneous linear-product homotopy in one random complex
    affine chart alpha.u = 1, beta.v = 1: the start rows are rank-one
    products l_k m_k^T, and each a1-subset S of them gives the start root
    l_S.u = 0, m_rest.v = 0, so exactly degree(spec) paths are tracked.
    Endpoints are lifted to u (x) v, deduplicated projectively and
    returned normalized, real ones first, in a deterministic order.

    Raises DeficientSectionError when the count differs from the degree
    (non-generic space); the message says how many paths failed and
    how many endpoints repeated a point already found.
    """
    a1, a2 = spec.dims
    if space.codim != spec.variety_dim:
        raise ValueError(f"need codimension {spec.variety_dim}, got {space.codim}")
    if space.equations.shape[1] != spec.ambient_dim + 1:
        raise ValueError("equation width does not match the ambient space")
    rows = spec.variety_dim
    rng = np.random.default_rng(seed)
    alpha = _complex_normal(rng, a1 + 1)
    beta = _complex_normal(rng, a2 + 1)
    ell = _complex_normal(rng, (rows, a1 + 1))
    m = _complex_normal(rng, (rows, a2 + 1))
    gamma = np.exp(2j * np.pi * rng.random())

    starts = []
    for subset in itertools.combinations(range(rows), a1):
        rest = [k for k in range(rows) if k not in subset]
        u = np.linalg.solve(np.vstack([ell[list(subset)], alpha]), np.eye(a1 + 1)[-1])
        v = np.linalg.solve(np.vstack([m[rest], beta]), np.eye(a2 + 1)[-1])
        starts.append(np.concatenate([u, v]))
    p_start = (ell[:, :, None] * m[:, None, :]).ravel()
    hom = SegmentHomotopy(_section_system(spec, alpha, beta), p_start, space.equations.ravel(), gamma)
    endpoints = track_and_polish(hom, starts)

    found: list = []
    for x, _ in endpoints:
        p = normalize_projective(np.outer(x[: a1 + 1], x[a1 + 1 :]).ravel())
        if all(projective_distance(p, q) >= DEDUP_TOL for q in found):
            found.append(p)

    want = degree(spec)
    if len(found) != want:
        raise DeficientSectionError(
            f"expected {want} section points, found {len(found)} "
            f"({len(starts) - len(endpoints)} paths failed, "
            f"{len(endpoints) - len(found)} duplicate endpoints)"
        )
    found.sort(key=lambda p: (not is_real_point(p, real_tol), _point_key(p)))
    real_count = sum(is_real_point(p, real_tol) for p in found)
    return SectionResult(
        points=tuple(found),
        signature=(real_count, want - real_count),
        degree_expected=want,
    )


def search_signature(
    spec: SegreSpec,
    target: tuple,
    max_attempts: int = 50,
    seed: int = 0,
    real_tol: float = 1e-8,
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
    a_q = almost_unbalanced_profile(spec)["a_q"]
    span_applicable = target[0] == a_q
    rng = np.random.default_rng(seed)

    attempts = 0
    while attempts < max_attempts:
        use_span = span_applicable and attempts % 2 == 0
        draw_seed = int(rng.integers(2**31))
        space = (
            span_through_points(spec, target[0], seed=draw_seed)
            if use_span
            else random_section_space(spec, seed=draw_seed)
        )
        attempts += 1
        try:
            result = solve_section(
                spec,
                space,
                seed=int(rng.integers(2**31)),
                real_tol=real_tol,
            )
        except DeficientSectionError:
            continue
        if result.signature == target:
            return space, result
    raise SignatureNotFoundError(
        f"no section with signature {target} in {max_attempts} attempts",
        attempts=attempts,
    )
