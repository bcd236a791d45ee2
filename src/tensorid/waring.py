"""Rank decompositions of symmetric ternary and binary forms.

A degree-d form T in n+1 variables is sought as a sum of r powers of
linear forms, each in the affine chart

    ell_i = x_0 + l_1^i x_1 + ... + l_n^i x_n,

so a decomposition is r summands (l^i, lambda_i) with

    T = sum_i lambda_i * ell_i ** d.

Matching coefficients of every degree-d monomial turns this into a
square polynomial system when C(n+d, d) = r (n+1): the coefficients of
T are the parameters, the summand entries are the unknowns.
"""

import cmath
import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .homotopy import TrackSettings
from .poly import PolySystem, monomials, multinomial


class NonGenericFormError(RuntimeError):
    """The binary-form solver's genericity assumptions failed."""


@dataclass(frozen=True)
class WaringSpec:
    """Problem size: degree d, n+1 variables, rank r."""

    d: int
    n: int
    r: int

    def __post_init__(self):
        if self.d < 1 or self.n < 1 or self.r < 1:
            raise ValueError("need d >= 1, n >= 1, r >= 1")

    @property
    def num_coeffs(self) -> int:
        return math.comb(self.n + self.d, self.d)

    @property
    def num_unknowns(self) -> int:
        return self.r * (self.n + 1)

    @property
    def is_perfect(self) -> bool:
        return self.num_coeffs == self.num_unknowns


@dataclass(frozen=True)
class Summand:
    """One term lambda * (x_0 + l_1 x_1 + ... + l_n x_n)**d."""

    l: tuple
    lam: complex

    def conjugate(self) -> "Summand":
        return Summand(tuple(complex(v).conjugate() for v in self.l), complex(self.lam).conjugate())


@dataclass(frozen=True)
class Decomposition:
    """Ordered tuple of summands; order carries no meaning."""

    summands: tuple

    @property
    def r(self) -> int:
        return len(self.summands)

    @property
    def n(self) -> int:
        return len(self.summands[0].l)

    def conjugate(self) -> "Decomposition":
        return Decomposition(tuple(s.conjugate() for s in self.summands))

    def to_vector(self) -> np.ndarray:
        """Flatten to (l^1, lambda_1, l^2, lambda_2, ...)."""
        out = []
        for s in self.summands:
            out.extend(s.l)
            out.append(s.lam)
        return np.asarray(out, dtype=np.complex128)

    @classmethod
    def from_vector(cls, vec, n: int) -> "Decomposition":
        vec = np.asarray(vec, dtype=np.complex128).ravel()
        if vec.size % (n + 1) != 0:
            raise ValueError("vector length is not a multiple of n+1")
        summands = []
        for i in range(vec.size // (n + 1)):
            block = vec[i * (n + 1) : (i + 1) * (n + 1)]
            summands.append(Summand(tuple(block[:n]), complex(block[n])))
        return cls(tuple(summands))


@dataclass
class TensorParams:
    """Coefficient vector of a form in the graded-lex monomial basis.

    Coefficients are the full monomial coefficients (multinomial factors
    folded in), matching the parameter order of build_system.
    """

    d: int
    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128).ravel()
        expected = math.comb(self.n + self.d, self.d)
        if self.coeffs.size != expected:
            raise ValueError(f"expected {expected} coefficients, got {self.coeffs.size}")


def build_system(spec: WaringSpec) -> PolySystem:
    """Square coefficient-matching system for the given sizes.

    Unknowns are ordered (l^1, lambda_1, l^2, lambda_2, ...); parameters
    are the C(n+d, d) coefficients of the target form in graded-lex
    order.  Each equation reads

        coeff_alpha(T) - sum_i lambda_i * multinomial(alpha) * prod_h (l_h^i)**alpha_h.
    """
    if not spec.is_perfect:
        raise ValueError(
            f"system is not square: C({spec.n}+{spec.d},{spec.d})={spec.num_coeffs} "
            f"!= r(n+1)={spec.num_unknowns}"
        )
    nu = spec.num_unknowns
    rows = []
    for a_idx, alpha in enumerate(monomials(spec.n + 1, spec.d)):
        row = [(1.0, (0,) * nu, a_idx)]
        weight = -multinomial(alpha)
        for i in range(spec.r):
            base = i * (spec.n + 1)
            mono = [0] * nu
            mono[base : base + spec.n] = alpha[1:]
            mono[base + spec.n] = 1
            row.append((weight, tuple(mono), -1))
        rows.append(row)
    return PolySystem(rows, nu, spec.num_coeffs)


def _defective(d: int, n: int) -> str | None:
    """Classical list of defective (d, n) cases for double-point interpolation."""
    if d == 2 and n >= 2:
        return "quadrics in 3 or more variables are defective"
    if d == 4 and n in (2, 3, 4):
        return f"quartics with n={n} are defective"
    if d == 3 and n == 4:
        return "cubics with n=4 are defective"
    return None


def is_admissible(spec: WaringSpec) -> tuple[bool, str]:
    """Whether the sizes give a square system with finitely many solutions.

    Requires r(n+1) = C(n+d, d) and that (d, n) is not one of the known
    defective interpolation cases, where generic forms of the perfect
    rank have infinitely many decompositions or none.
    """
    if not spec.is_perfect:
        return False, (
            f"not square: C={spec.num_coeffs} vs r(n+1)={spec.num_unknowns}"
        )
    reason = _defective(spec.d, spec.n)
    if reason is not None:
        return False, reason
    return True, "square and non-defective"


def double_point_interpolation_rank(d: int, n: int, k: int, seed: int = 0) -> int:
    """Rank of the conditions k generic double points impose on degree-d forms.

    Each point contributes the n+1 rows of first partials of the monomial
    basis.  For perfect sizes a rank below C(n+d, d) certifies a
    defective case; this is an independent check of is_admissible.
    """
    rng = np.random.default_rng(seed)
    basis = monomials(n + 1, d)
    rows = []
    for _ in range(k):
        q = rng.uniform(-1.0, 1.0, size=n + 1)
        for j in range(n + 1):
            row = []
            for alpha in basis:
                e = alpha[j]
                if e == 0:
                    row.append(0.0)
                else:
                    val = float(e)
                    for h, a in enumerate(alpha):
                        p = a - 1 if h == j else a
                        if p:
                            val *= q[h] ** p
                    row.append(val)
            rows.append(row)
    return int(np.linalg.matrix_rank(np.asarray(rows)))


def tensor_from_decomposition(spec: WaringSpec, dec: Decomposition) -> TensorParams:
    """Expand sum_i lambda_i * ell_i**d into the monomial coefficient vector."""
    basis = monomials(spec.n + 1, spec.d)
    coeffs = np.zeros(len(basis), dtype=np.complex128)
    for s in dec.summands:
        for a_idx, alpha in enumerate(basis):
            term = complex(s.lam) * multinomial(alpha)
            for h in range(1, spec.n + 1):
                if alpha[h]:
                    term *= complex(s.l[h - 1]) ** alpha[h]
            coeffs[a_idx] += term
    return TensorParams(spec.d, spec.n, coeffs)


def reconstruction_error(spec: WaringSpec, dec: Decomposition, target: TensorParams) -> float:
    """Coefficient-wise relative mismatch between the expanded sum and a target."""
    built = tensor_from_decomposition(spec, dec).coeffs
    ref = target.coeffs
    return float(np.max(np.abs(built - ref) / (1.0 + np.abs(ref))))


def random_real_start(
    spec: WaringSpec, seed: int = 0, magnitude: float = 5.0
) -> tuple[Decomposition, TensorParams]:
    """Draw a real decomposition and expand it into its own target form.

    The l entries are uniform in [-magnitude, magnitude]; the lambda
    entries are scaled by magnitude**d so the form's coefficients span a
    realistic dynamic range.  The pair (start, T) satisfies the system
    by construction.
    """
    rng = np.random.default_rng(seed)
    summands = []
    for _ in range(spec.r):
        l = tuple(rng.uniform(-magnitude, magnitude, size=spec.n))
        lam = rng.uniform(-magnitude, magnitude) * magnitude ** (spec.d - 1)
        summands.append(Summand(l, complex(lam)))
    dec = Decomposition(tuple(summands))
    return dec, tensor_from_decomposition(spec, dec)


def decomposition_sampler(spec: WaringSpec, base: Decomposition):
    """Aux-instance sampler drawing coefficient vectors of random forms
    that are themselves sums of r moderate d-th powers.

    Coefficient vectors drawn coordinate-wise at the base form's scale
    put the auxiliary instances' own decompositions at weights many
    orders beyond the start's: a generic slope vector raised to the
    d-th power has tiny monomials, so the weight matching an O(1)
    coefficient is huge, and the tracked paths leave the range double
    precision can follow.  Sampling the auxiliary instance as the image
    of a random decomposition whose slopes and weights match the base
    start's dynamic range keeps every loop vertex's fiber at chart
    coordinates comparable with the start.  The summand-to-coefficient
    map is dominant in the perfect case, so such vertices are still
    generic parameter points and the loops still permute the fiber.
    """
    slopes = [abs(complex(v)) for s in base.summands for v in s.l]
    slope_rms = max(1.0, float(np.sqrt(np.mean(np.square(slopes)))))
    logs = [math.log(max(abs(complex(s.lam)), 1e-12)) for s in base.summands]
    log_mid = float(np.mean(logs))
    log_spread = max(0.25, float(np.std(logs)))

    def sampler(rng: np.random.Generator):
        summands = []
        for _ in range(spec.r):
            re = rng.standard_normal(spec.n)
            im = rng.standard_normal(spec.n)
            l = tuple(slope_rms * complex(re[h], im[h]) / math.sqrt(2.0) for h in range(spec.n))
            mag = math.exp(log_mid + log_spread * rng.standard_normal())
            lam = mag * cmath.exp(2j * cmath.pi * rng.random())
            summands.append(Summand(l, lam))
        return tensor_from_decomposition(spec, Decomposition(tuple(summands))).coeffs

    return sampler


def tracking_settings() -> TrackSettings:
    """Path-tracking settings tuned for coefficient-matching systems.

    The Jacobian of a degree-7 or degree-8 instance is genuinely
    ill conditioned (condition numbers near 1e9 at generic points), so
    paths leaving the start system move fast at first and the step has
    to shrink far below the generic-case floor before the corrector
    basin is reached; the budget is raised to match.
    """
    return TrackSettings(min_step=1e-13, max_steps=200000)


def enumerate_decompositions(
    spec: WaringSpec,
    start: Decomposition,
    tensor: TensorParams,
    policy=None,
    seed: int = 0,
):
    """Monodromy enumeration of all rank-r decompositions of a form.

    Wires the coefficient-matching system, the decomposition-image
    auxiliary sampler and the tuned tracking settings into the loop
    driver.

    Args:
        spec: problem size (must be perfect).
        start: known decomposition of the target.
        tensor: the target form's coefficients.
        policy: stop policy; defaults to the loop driver's.
        seed: loop randomness.

    Returns:
        SolutionRegistry over the target's coefficients.
    """
    from .monodromy import solve

    system = build_system(spec)
    return solve(
        system,
        np.asarray(tensor.coeffs, dtype=np.complex128),
        start,
        decomposition_sampler(spec, start),
        policy=policy,
        settings=tracking_settings(),
        seed=seed,
    )


def bundled_fixture_path(name: str = "deg7_rank12.json"):
    """Filesystem path of a data file shipped with the package."""
    return resources.files("tensorid").joinpath("fixtures").joinpath(name)


def load_start(path, spec: WaringSpec) -> tuple[Decomposition, TensorParams]:
    """Read a decomposition from JSON and expand its target form.

    The file holds a list of r objects {"l": [...], "lambda": v}; values
    are real numbers or [re, im] pairs.
    """
    with open(path) as fh:
        data = json.load(fh)
    if len(data) != spec.r:
        raise ValueError(f"fixture has {len(data)} summands, spec wants r={spec.r}")

    def _scalar(v):
        if isinstance(v, (list, tuple)):
            return complex(v[0], v[1])
        return complex(v)

    summands = []
    for entry in data:
        l = tuple(_scalar(v) for v in entry["l"])
        if len(l) != spec.n:
            raise ValueError(f"summand has {len(l)} slope entries, spec wants n={spec.n}")
        summands.append(Summand(l, _scalar(entry["lambda"])))
    dec = Decomposition(tuple(summands))
    return dec, tensor_from_decomposition(spec, dec)


def sylvester_oracle(tensor: TensorParams, r: int) -> Decomposition:
    """Direct rank-r decomposition of a generic binary form of degree 2r-1.

    Works entirely by linear algebra and univariate root finding, with
    no path tracking, so it serves as an independent cross-check: build
    the r x (r+1) Hankel matrix of the normalized coefficients, take its
    one-dimensional kernel as a degree-r polynomial, read the summand
    slopes off its roots and solve a Vandermonde system for the weights.

    Raises NonGenericFormError when the kernel is not one-dimensional,
    a root is repeated or at infinity (outside the x_0-monic chart), or
    the weights fail to reproduce the form.
    """
    if tensor.n != 1:
        raise ValueError("only binary forms are supported")
    d = tensor.d
    if d != 2 * r - 1:
        raise ValueError(f"degree must be 2r-1 = {2 * r - 1}, got {d}")
    b = tensor.coeffs
    a = np.array([b[k] / math.comb(d, k) for k in range(d + 1)], dtype=np.complex128)
    hank = np.empty((r, r + 1), dtype=np.complex128)
    for i in range(r):
        hank[i] = a[i : i + r + 1]
    _, svals, vh = np.linalg.svd(hank)
    smax = svals[0] if svals[0] > 0 else 1.0
    if svals[-1] / smax < 1e-10:
        raise NonGenericFormError("Hankel kernel is not one-dimensional")
    g = vh[-1].conjugate()
    if abs(g[-1]) < 1e-10 * np.max(np.abs(g)):
        raise NonGenericFormError("kernel root at infinity: form leaves the chart")
    roots = np.roots(g[::-1])
    for i in range(r):
        for j in range(i + 1, r):
            if abs(roots[i] - roots[j]) < 1e-8 * (1.0 + abs(roots[i])):
                raise NonGenericFormError("repeated kernel root")
    vand = np.vander(roots, N=d + 1, increasing=True).T
    lam, *_ = np.linalg.lstsq(vand, a, rcond=None)
    order = np.lexsort((roots.imag.round(10), roots.real.round(10)))
    dec = Decomposition(
        tuple(Summand((complex(roots[i]),), complex(lam[i])) for i in order)
    )
    spec = WaringSpec(d=d, n=1, r=r)
    if reconstruction_error(spec, dec, tensor) > 1e-8:
        raise NonGenericFormError("weights do not reproduce the form")
    return dec
