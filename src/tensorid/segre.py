"""Linear sections of two-factor Segre varieties.

The Segre variety of rank-one tensors u (x) v sits in the projective
space of (a1+1) x (a2+1) matrices.  Cutting it with a real linear space
of codimension a1 + a2 leaves finitely many points, as many as the
variety's degree; counting how many of them are real is the whole game
here.  The arithmetic side tracks the almost-unbalanced rank a_q =
(a1+1)(a2+1) - (a1+a2), which is exactly the number of points needed to
span a space of the right codimension.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .elliptic import normalize_projective, projective_distance, _point_key
from .homotopy import TrackSettings, solve_total_degree
from .poly import MPoly
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


def _chart_system(spec: SegreSpec, equations: np.ndarray, chart: tuple):
    """Bilinear equations on the bi-chart u[I] = 1, v[J] = 1.

    Unknown order: the a1 free u-coordinates, then the a2 free
    v-coordinates.
    """
    a1, a2 = spec.dims
    big_i, big_j = chart
    u_pos = {}
    v_pos = {}
    k = 0
    for i in range(a1 + 1):
        if i != big_i:
            u_pos[i] = k
            k += 1
    for j in range(a2 + 1):
        if j != big_j:
            v_pos[j] = k
            k += 1
    nvars = a1 + a2
    polys = []
    for row in equations:
        terms: dict = {}
        for i in range(a1 + 1):
            for j in range(a2 + 1):
                c = row[i * (a2 + 1) + j]
                if c == 0.0:
                    continue
                expo = [0] * nvars
                if i != big_i:
                    expo[u_pos[i]] += 1
                if j != big_j:
                    expo[v_pos[j]] += 1
                key = tuple(expo)
                terms[key] = terms.get(key, 0.0) + c
        polys.append(MPoly(nvars, terms))
    return polys


def _lift_chart_point(spec: SegreSpec, chart: tuple, x: np.ndarray) -> np.ndarray:
    a1, a2 = spec.dims
    big_i, big_j = chart
    u = np.insert(x[:a1], big_i, 1.0 + 0j)
    v = np.insert(x[a1:], big_j, 1.0 + 0j)
    return normalize_projective(np.outer(u, v).ravel())


def solve_section(
    spec: SegreSpec,
    space: LinearSpace,
    settings: TrackSettings | None = None,
    seed: int = 0,
    real_tol: float = 1e-8,
) -> SectionResult:
    """All intersection points of the Segre variety with a linear space.

    Every bi-chart contributes a square bilinear system solved by a
    total-degree homotopy; chart solutions are lifted to the ambient
    space, deduplicated projectively and the enumeration stops early
    once the degree is reached.  Points are returned normalized, real
    ones first, in a deterministic order.

    Raises DeficientSectionError when the merged count differs from the
    degree (non-generic space).
    """
    a1, a2 = spec.dims
    if space.codim != spec.variety_dim:
        raise ValueError(
            f"need codimension {spec.variety_dim}, got {space.codim}"
        )
    if space.equations.shape[1] != spec.ambient_dim + 1:
        raise ValueError("equation width does not match the ambient space")
    st = settings or TrackSettings()
    charts = [(i, j) for i in range(a1 + 1) for j in range(a2 + 1)]
    children = np.random.SeedSequence(seed).spawn(len(charts))
    want = degree(spec)

    found: list = []
    for chart, child in zip(charts, children):
        polys = _chart_system(spec, space.equations, chart)
        sols = solve_total_degree(polys, st, np.random.default_rng(child))
        for x, _ in sols:
            p = _lift_chart_point(spec, chart, x)
            if all(projective_distance(p, q) >= DEDUP_TOL for q in found):
                found.append(p)
        if len(found) >= want:
            break

    if len(found) != want:
        raise DeficientSectionError(
            f"expected {want} section points, found {len(found)}"
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
    settings: TrackSettings | None = None,
    real_tol: float = 1e-8,
):
    """Hunt for a real linear space whose section has the given signature.

    Two sampling strategies alternate: (a) spans of `target real count`
    random real rank-one points, available exactly when that count is
    the almost-unbalanced rank a_q (the span then has the square
    codimension and its spanning points are real section points for
    free), and (b) fully random real spaces.  Returns the first witness
    (LinearSpace, SectionResult); raises SignatureNotFoundError after
    max_attempts sections, which is evidence, not a disproof.
    """
    target = (int(target[0]), int(target[1]))
    want = degree(spec)
    if target[0] + target[1] != want:
        raise ValueError(f"target must sum to the degree {want}")
    if target[1] % 2 != 0:
        raise ValueError("nonreal count must be even (conjugation closure)")
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
                settings,
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
