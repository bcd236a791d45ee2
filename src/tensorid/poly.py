"""Sparse complex multivariate polynomials and square polynomial systems.

A polynomial is stored as a dict mapping exponent tuples to complex
coefficients, e.g. ``{(2, 0): 1.0, (0, 1): -2.0}`` for ``x0^2 - 2*x1``.
Monomial bases are ordered graded lexicographically (by total degree,
then lexicographically, largest first), which fixes the equation order
of every system built here.

Systems separate their variables into unknowns (solved for) followed by
parameters (moved by homotopies), and every system here is linear in its
parameters: F(x; p) = M(x) p + c(x).  A PolySystem stores each term as
``coeff * x^m * (p_k or 1)`` in a term table of flat numpy index arrays,
one table for the equations, one for their parameter terms and one for
the Jacobian cells, so path trackers evaluate residuals, Jacobians and
the parameter tangent M(x) dp in vectorized form.
"""

import math
from itertools import combinations_with_replacement

import numpy as np

PRUNE_TOL = 1e-14


class DimensionMismatchError(ValueError):
    """Raised when operands disagree on variable count or vector length."""


def multinomial(alpha) -> int:
    """Exact integer multinomial coefficient (sum alpha)! / prod(alpha_i!)."""
    total = sum(alpha)
    out = 1
    for a in alpha:
        out *= math.comb(total, a)
        total -= a
    return out


def monomials(num_vars: int, degree: int) -> list:
    """All exponent tuples of the given total degree, graded-lex order.

    Within a fixed degree the order is lexicographic descending, so for
    two variables and degree 2: (2,0), (1,1), (0,2).
    """
    if num_vars < 1 or degree < 0:
        raise ValueError("need num_vars >= 1 and degree >= 0")
    combos = combinations_with_replacement(range(num_vars), degree)
    out = []
    for combo in combos:
        expo = [0] * num_vars
        for idx in combo:
            expo[idx] += 1
        out.append(tuple(expo))
    out.sort(reverse=True)
    return out


class MPoly:
    """Sparse polynomial in ``num_vars`` complex variables."""

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: dict | None = None):
        self.num_vars = int(num_vars)
        clean = {}
        if terms:
            for expo, coeff in terms.items():
                if len(expo) != self.num_vars:
                    raise DimensionMismatchError(
                        f"exponent {expo} has {len(expo)} entries, expected {self.num_vars}"
                    )
                c = complex(coeff)
                if abs(c) <= PRUNE_TOL:
                    continue
                key = tuple(int(e) for e in expo)
                if any(e < 0 for e in key):
                    raise ValueError("negative exponent")
                acc = clean.get(key, 0j) + c
                if abs(acc) <= PRUNE_TOL:
                    clean.pop(key, None)
                else:
                    clean[key] = acc
        self.terms = clean

    @classmethod
    def constant(cls, num_vars: int, value) -> "MPoly":
        return cls(num_vars, {(0,) * num_vars: complex(value)})

    @classmethod
    def variable(cls, num_vars: int, index: int) -> "MPoly":
        expo = [0] * num_vars
        expo[index] = 1
        return cls(num_vars, {tuple(expo): 1.0 + 0j})

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = MPoly.constant(self.num_vars, other)
        if self.num_vars != other.num_vars:
            raise DimensionMismatchError("variable counts differ")
        merged = dict(self.terms)
        for expo, c in other.terms.items():
            merged[expo] = merged.get(expo, 0j) + c
        return MPoly(self.num_vars, merged)

    def __neg__(self):
        return MPoly(self.num_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = MPoly.constant(self.num_vars, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return MPoly(self.num_vars, {e: c * other for e, c in self.terms.items()})
        if self.num_vars != other.num_vars:
            raise DimensionMismatchError("variable counts differ")
        prod: dict = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(a + b for a, b in zip(ea, eb))
                prod[key] = prod.get(key, 0j) + ca * cb
        return MPoly(self.num_vars, prod)

    __rmul__ = __mul__
    __radd__ = __add__

    def evaluate(self, values) -> complex:
        """Evaluate at a point given as a sequence of ``num_vars`` scalars."""
        vals = [complex(v) for v in values]
        if len(vals) != self.num_vars:
            raise DimensionMismatchError(
                f"point has {len(vals)} coordinates, expected {self.num_vars}"
            )
        total = 0j
        for expo, coeff in self.terms.items():
            term = coeff
            for v, e in zip(vals, expo):
                if e:
                    term *= v**e
            total += term
        return total

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, MPoly)
            and self.num_vars == other.num_vars
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"MPoly(num_vars={self.num_vars}, terms={len(self.terms)})"


class _TermTable:
    """Rows of terms ``coeff * x^m * (p_k or 1)`` as flat index arrays.

    A term is (coeff, m, k): m holds the exponents of the unknowns and k
    indexes the parameter vector, whose last slot is the constant that
    stands in for "no parameter" (k = -1).  Each monomial x^m is a run of
    (unknown, exponent) factors multiplied by ``np.multiply.reduceat``,
    and rows are summed by ``np.add.reduceat``.  Both need non-empty
    segments, so x^0 is the factor (0, 0) and an empty row holds one
    zero term.
    """

    def __init__(self, rows):
        fvar, fexp, tptr, coef, pidx, rptr = [], [], [], [], [], []
        for terms in rows:
            rptr.append(len(coef))
            for c, mono, k in terms or [(0j, (), -1)]:
                tptr.append(len(fvar))
                for v, e in [(v, e) for v, e in enumerate(mono) if e] or [(0, 0)]:
                    fvar.append(v)
                    fexp.append(e)
                coef.append(c)
                pidx.append(k)
        self.fvar = np.asarray(fvar, dtype=np.intp)
        self.fexp = np.asarray(fexp, dtype=np.intp)
        self.tptr = np.asarray(tptr, dtype=np.intp)
        self.coef = np.asarray(coef, dtype=np.complex128)
        self.pidx = np.asarray(pidx, dtype=np.intp)
        self.rptr = np.asarray(rptr, dtype=np.intp)

    def terms(self, pw, pv):
        """coeff * (x^m * pv[k]) for every term, from the powers table of
        the unknowns and the parameter vector with its constant slot."""
        mono = np.multiply.reduceat(pw[self.fvar, self.fexp], self.tptr)
        return self.coef * (mono * pv[self.pidx])

    def sum_rows(self, values):
        return np.add.reduceat(values, self.rptr)


def _split_term(expo, coeff, num_unknowns: int):
    """(coeff, unknown exponents, parameter index or -1) of an MPoly term."""
    pexp = expo[num_unknowns:]
    if sum(pexp) > 1:
        raise ValueError(
            f"term {expo} has degree {sum(pexp)} in the parameters; "
            "PolySystem needs every term linear in the parameters"
        )
    return coeff, expo[:num_unknowns], pexp.index(1) if any(pexp) else -1


class PolySystem:
    """Square system of polynomials in unknowns followed by parameters.

    Every term must be of degree at most one in the parameters.  The
    equation table sums each row in sorted exponent order; the Jacobian
    table has one row per (equation, unknown) cell, its entries in the
    polynomial's term order.  These orders fix the rounding, and so every
    tracked path.  The tangent table keeps the parameter terms of each
    equation row, in the same order; evaluated at the velocity dp it
    gives M(x) dp.
    """

    def __init__(self, polys, num_unknowns: int, num_params: int):
        polys = tuple(polys)
        nu = int(num_unknowns)
        nv = nu + num_params
        for p in polys:
            if p.num_vars != nv:
                raise DimensionMismatchError(
                    f"polynomial has {p.num_vars} variables, expected {nv}"
                )
        self.polys = polys
        self.num_unknowns = nu
        self.num_params = int(num_params)

        eq_rows = []
        cells: dict = {}
        for i, poly in enumerate(polys):
            split = {expo: _split_term(expo, c, nu) for expo, c in poly.terms.items()}
            eq_rows.append([split[expo] for expo in sorted(split)])
            for c, mono, k in split.values():
                for col, e in enumerate(mono):
                    if e:
                        dmono = mono[:col] + (e - 1,) + mono[col + 1 :]
                        cells.setdefault(i * nu + col, []).append((c * e, dmono, k))
        self._equations = _TermTable(eq_rows)
        self._tangent = _TermTable([[t for t in row if t[2] >= 0] for row in eq_rows])
        self._jacobian = _TermTable([cells.get(cell, []) for cell in range(len(polys) * nu)])
        self._max_exp = max(1, int(self._equations.fexp.max()))

    @property
    def num_equations(self) -> int:
        return len(self.polys)

    def _check(self, point, params):
        if len(point) != self.num_unknowns:
            raise DimensionMismatchError(
                f"point has {len(point)} coordinates, expected {self.num_unknowns}"
            )
        if len(params) != self.num_params:
            raise DimensionMismatchError(
                f"got {len(params)} parameters, expected {self.num_params}"
            )

    def _powers(self, point):
        x = np.asarray(point, dtype=np.complex128)
        pw = np.empty((self.num_unknowns, self._max_exp + 1), dtype=np.complex128)
        pw[:, 0] = 1.0
        for k in range(1, self._max_exp + 1):
            pw[:, k] = pw[:, k - 1] * x
        return pw

    def evaluate(self, point, params=()) -> np.ndarray:
        """Residual vector at the given unknowns and parameter values."""
        return self.full_state(point, params)[0]

    def jacobian(self, point, params=()) -> np.ndarray:
        """Matrix of partials with respect to the unknowns only."""
        return self.full_state(point, params)[2]

    def scaled_residual(self, point, params=()) -> float:
        vals, scales, _ = self.full_state(point, params)
        return float(np.max(np.abs(vals) / (1.0 + scales)))

    def full_state(self, point, params=()):
        """(values, scales, jacobian) sharing one powers table.

        The scale of an equation is the sum of the absolute values of its
        evaluated terms; dividing residuals by (1 + scale) measures
        convergence relative to the size of the arithmetic that produced
        them, which is the only meaningful notion once coefficients span
        many orders of magnitude.
        """
        self._check(point, params)
        pw = self._powers(point)
        pv = np.concatenate((params, (1.0,)), dtype=np.complex128)
        terms = self._equations.terms(pw, pv)
        jac = self._jacobian.sum_rows(self._jacobian.terms(pw, pv))
        return (
            self._equations.sum_rows(terms),
            self._equations.sum_rows(np.abs(terms)),
            jac.reshape(len(self.polys), self.num_unknowns),
        )

    def param_tangent(self, point, dparams) -> np.ndarray:
        """Directional derivative M(x) dp of the system along a parameter
        velocity dp; it does not depend on the parameters."""
        self._check(point, dparams)
        dpv = np.concatenate((dparams, (0.0,)), dtype=np.complex128)
        return self._tangent.sum_rows(self._tangent.terms(self._powers(point), dpv))
