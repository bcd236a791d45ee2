"""Sparse complex multivariate polynomials and square polynomial systems.

A polynomial is stored as a dict mapping exponent tuples to complex
coefficients, e.g. ``{(2, 0): 1.0, (0, 1): -2.0}`` for ``x0^2 - 2*x1``.
Monomial bases are ordered graded lexicographically (by total degree,
then lexicographically, largest first), which fixes the equation order
of every system built here.

Every homotopy here is linear in its parameters, F(x; p) = M(x) p + c(x),
so a PolySystem is given directly as term rows: equation i is a list
of terms (coeff, m, k), read as ``coeff * x^m * p_k`` with m the
exponents of the unknowns and k a parameter index, or -1 for a term
with no parameter.  A row cannot express a term nonlinear in p.  The
rows are compiled into term tables of numpy index arrays, one for the
equations, one for their parameter terms and one for the Jacobian
cells, so path trackers evaluate residuals, Jacobians and the
parameter tangent M(x) dp in vectorized form.
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
    """Rows of terms ``coeff * x^m * (p_k or 1)`` as index arrays.

    A term is (coeff, m, k): m holds the exponents of the unknowns and k
    indexes the parameter vector, whose last slot is the constant that
    stands in for "no parameter" (k = -1).  Each monomial x^m is a column
    of the (F, T) matrix ``fidx`` of indices into the flattened (E+1, N)
    powers table, index e*N + v for the factor x_v^e: its factors in
    variable order, padded at the end with index 0, the power x_0^0 = 1.
    So a table evaluates with one gather and F - 1 elementwise multiplies.
    Rows are summed by ``np.add.reduceat``, which needs non-empty segments,
    so an empty row holds one zero term; when every row holds exactly one
    term there is nothing to sum.
    """

    def __init__(self, rows, num_unknowns: int):
        factors, coef, pidx, rptr = [], [], [], []
        for terms in rows:
            rptr.append(len(coef))
            for c, mono, k in terms or [(0j, (), -1)]:
                factors.append([e * num_unknowns + v for v, e in enumerate(mono) if e])
                coef.append(c)
                pidx.append(k)
        self.fidx = np.zeros((max([1, *map(len, factors)]), len(coef)), dtype=np.intp)
        for t, fac in enumerate(factors):
            self.fidx[: len(fac), t] = fac
        self.coef = np.asarray(coef, dtype=np.complex128)
        self.pidx = np.asarray(pidx, dtype=np.intp)
        self.rptr = None if len(rptr) == len(coef) else np.asarray(rptr, dtype=np.intp)

    def terms(self, pw, pv):
        """coeff * (x^m * pv[k]) for every term, from the flattened powers
        table of the unknowns and the parameter vector with its constant
        slot."""
        fac = pw[self.fidx]
        mono = fac[0]
        for row in fac[1:]:
            mono *= row
        mono *= pv[self.pidx]
        return np.multiply(self.coef, mono, out=mono)

    def sum_rows(self, values):
        return values if self.rptr is None else np.add.reduceat(values, self.rptr)


class PolySystem:
    """Square system F(x; p) = M(x) p + c(x) from rows of (coeff, m, k)
    terms, m a tuple of ``num_unknowns`` exponents and -1 <= k < num_params.

    The equation table sums each row sorted by m; the Jacobian table has
    one row per (equation, unknown) cell, its entries in the given term
    order.  The tangent table keeps the parameter terms of each equation
    row, in the same order; evaluated at the velocity dp it gives M(x) dp.
    These orders fix every sum and product, so results are bitwise
    reproducible with one numpy build on one CPU; numpy's vectorized
    complex multiply may round differently on another, and so may the
    paths tracked through it.
    """

    def __init__(self, rows, num_unknowns: int, num_params: int):
        nu = int(num_unknowns)
        self.num_unknowns = nu
        self.num_params = int(num_params)
        rows = list(rows)
        cells: dict = {}
        for i, row in enumerate(rows):
            for c, mono, k in row:
                if len(mono) != nu:
                    raise DimensionMismatchError(
                        f"exponent {mono} has {len(mono)} entries, expected {nu}"
                    )
                if not -1 <= k < self.num_params:
                    raise DimensionMismatchError(
                        f"parameter index {k} is outside -1..{self.num_params - 1}"
                    )
                for col, e in enumerate(mono):
                    if e:
                        dmono = mono[:col] + (e - 1,) + mono[col + 1 :]
                        cells.setdefault(i * nu + col, []).append((c * e, dmono, k))
        eq_rows = [sorted(row, key=lambda term: term[1]) for row in rows]
        self._equations = _TermTable(eq_rows, nu)
        self._tangent = _TermTable([[t for t in row if t[2] >= 0] for row in eq_rows], nu)
        self._jacobian = _TermTable([cells.get(cell, []) for cell in range(len(rows) * nu)], nu)
        self._max_exp = max(1, int(self._equations.fidx.max()) // nu)

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
        """The flattened (E+1, N) table whose row e holds x**e."""
        x = np.asarray(point, dtype=np.complex128)
        pw = np.empty((self._max_exp + 1, self.num_unknowns), dtype=np.complex128)
        pw[0] = 1.0
        for e in range(1, self._max_exp + 1):
            np.multiply(pw[e - 1], x, out=pw[e])
        return pw.ravel()

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
            jac.reshape(-1, self.num_unknowns),
        )

    def param_tangent(self, point, dparams) -> np.ndarray:
        """Directional derivative M(x) dp of the system along a parameter
        velocity dp; it does not depend on the parameters."""
        self._check(point, dparams)
        dpv = np.concatenate((dparams, (0.0,)), dtype=np.complex128)
        return self._tangent.sum_rows(self._tangent.terms(self._powers(point), dpv))
