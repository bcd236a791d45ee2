"""Sparse complex multivariate polynomials and square polynomial systems.

A polynomial is stored as a dict mapping exponent tuples to complex
coefficients, e.g. ``{(2, 0): 1.0, (0, 1): -2.0}`` for ``x0^2 - 2*x1``.
Monomial bases are ordered graded lexicographically (by total degree,
then lexicographically, largest first), which fixes the equation order
of every system built here.

Systems separate their variables into unknowns (solved for) followed by
parameters (moved by homotopies).  Evaluation and differentiation are
compiled once per system into flat numpy index arrays so that path
trackers can evaluate residuals and Jacobians in vectorized form.
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

    def partial(self, var: int) -> "MPoly":
        """Partial derivative with respect to variable ``var``."""
        out = {}
        for expo, coeff in self.terms.items():
            e = expo[var]
            if e:
                key = expo[:var] + (e - 1,) + expo[var + 1 :]
                out[key] = out.get(key, 0j) + coeff * e
        return MPoly(self.num_vars, out)

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


class _CompiledSystem:
    """Flat index arrays for vectorized evaluation of a PolySystem.

    Every term is a run of (variable, exponent) factors; constant terms
    carry the synthetic factor (0, 0).  Term products come out of a
    powers table via ``np.multiply.reduceat`` and rows are summed with
    ``np.add.reduceat``, so all segment arrays are built non-empty.
    """

    def __init__(self, polys, num_unknowns: int, num_params: int):
        nv = num_unknowns + num_params
        rows = len(polys)

        fvar, fexp, tptr, tcoef, rptr = [], [], [0], [], [0]
        for poly in polys:
            items = sorted(poly.terms.items()) or [((0,) * nv, 0j)]
            for expo, coeff in items:
                nz = [(v, e) for v, e in enumerate(expo) if e] or [(0, 0)]
                for v, e in nz:
                    fvar.append(v)
                    fexp.append(e)
                tptr.append(len(fvar))
                tcoef.append(coeff)
            rptr.append(len(tcoef))

        self.num_unknowns = num_unknowns
        self.num_vars = nv
        self.rows = rows
        self.fvar = np.asarray(fvar, dtype=np.intp)
        self.fexp = np.asarray(fexp, dtype=np.intp)
        self.tptr = np.asarray(tptr[:-1], dtype=np.intp)
        self.tcoef = np.asarray(tcoef, dtype=np.complex128)
        self.rptr = np.asarray(rptr[:-1], dtype=np.intp)

        # Jacobian entries grouped by (row, unknown) cell.
        cells: dict = {}
        for i, poly in enumerate(polys):
            for expo, coeff in poly.terms.items():
                for col in range(num_unknowns):
                    e = expo[col]
                    if e:
                        dexpo = expo[:col] + (e - 1,) + expo[col + 1 :]
                        cells.setdefault((i, col), []).append((coeff * e, dexpo))
        jfvar, jfexp, jtptr, jtcoef = [], [], [0], []
        jcell_ptr, jcell_out = [], []
        for (i, col), entries in sorted(cells.items()):
            jcell_ptr.append(len(jtcoef))
            jcell_out.append(i * num_unknowns + col)
            for coeff, dexpo in entries:
                nz = [(v, e) for v, e in enumerate(dexpo) if e] or [(0, 0)]
                for v, e in nz:
                    jfvar.append(v)
                    jfexp.append(e)
                jtptr.append(len(jfvar))
                jtcoef.append(coeff)
        self.jfvar = np.asarray(jfvar, dtype=np.intp)
        self.jfexp = np.asarray(jfexp, dtype=np.intp)
        self.jtptr = np.asarray(jtptr[:-1], dtype=np.intp)
        self.jtcoef = np.asarray(jtcoef, dtype=np.complex128)
        self.jcell_ptr = np.asarray(jcell_ptr, dtype=np.intp)
        self.jcell_out = np.asarray(jcell_out, dtype=np.intp)

        # Parameter-direction terms grouped by row; rows are padded with a
        # zero term so the row reduction never sees an empty segment.
        prow_terms: list = [[] for _ in range(rows)]
        for i, poly in enumerate(polys):
            for expo, coeff in poly.terms.items():
                for col in range(num_unknowns, nv):
                    e = expo[col]
                    if e:
                        dexpo = expo[:col] + (e - 1,) + expo[col + 1 :]
                        prow_terms[i].append((coeff * e, col - num_unknowns, dexpo))
        pfvar, pfexp, ptptr, ptcoef, ptcol, prptr = [], [], [0], [], [], [0]
        for i in range(rows):
            entries = prow_terms[i] or [(0j, 0, (0,) * nv)]
            for coeff, pcol, dexpo in entries:
                nz = [(v, e) for v, e in enumerate(dexpo) if e] or [(0, 0)]
                for v, e in nz:
                    pfvar.append(v)
                    pfexp.append(e)
                ptptr.append(len(pfvar))
                ptcoef.append(coeff)
                ptcol.append(pcol)
            prptr.append(len(ptcoef))
        self.pfvar = np.asarray(pfvar, dtype=np.intp)
        self.pfexp = np.asarray(pfexp, dtype=np.intp)
        self.ptptr = np.asarray(ptptr[:-1], dtype=np.intp)
        self.ptcoef = np.asarray(ptcoef, dtype=np.complex128)
        self.ptcol = np.asarray(ptcol, dtype=np.intp)
        self.prptr = np.asarray(prptr[:-1], dtype=np.intp)

        exps = [1]
        for arr in (self.fexp, self.jfexp, self.pfexp):
            if arr.size:
                exps.append(int(arr.max()))
        self.max_exp = max(exps)

    def powers(self, point, params):
        v = np.concatenate(
            [
                np.asarray(point, dtype=np.complex128).ravel(),
                np.asarray(params, dtype=np.complex128).ravel(),
            ]
        )
        if v.size != self.num_vars:
            raise DimensionMismatchError(
                f"got {v.size} values, expected {self.num_vars}"
            )
        pw = np.empty((self.num_vars, self.max_exp + 1), dtype=np.complex128)
        pw[:, 0] = 1.0
        for k in range(1, self.max_exp + 1):
            pw[:, k] = pw[:, k - 1] * v
        return pw

    def values_and_scales(self, pw):
        tv = np.multiply.reduceat(pw[self.fvar, self.fexp], self.tptr)
        weighted = self.tcoef * tv
        vals = np.add.reduceat(weighted, self.rptr)
        scales = np.add.reduceat(np.abs(weighted), self.rptr)
        return vals, scales

    def jacobian(self, pw):
        if self.jtcoef.size == 0:
            return np.zeros((self.rows, self.num_unknowns), dtype=np.complex128)
        tv = np.multiply.reduceat(pw[self.jfvar, self.jfexp], self.jtptr)
        sums = np.add.reduceat(self.jtcoef * tv, self.jcell_ptr)
        jac = np.zeros(self.rows * self.num_unknowns, dtype=np.complex128)
        jac[self.jcell_out] = sums
        return jac.reshape(self.rows, self.num_unknowns)

    def param_tangent(self, pw, dparams):
        dp = np.asarray(dparams, dtype=np.complex128).ravel()
        tv = np.multiply.reduceat(pw[self.pfvar, self.pfexp], self.ptptr)
        weighted = self.ptcoef * tv * dp[self.ptcol]
        return np.add.reduceat(weighted, self.prptr)


class PolySystem:
    """Square system of polynomials in unknowns followed by parameters."""

    def __init__(self, polys, num_unknowns: int, num_params: int):
        polys = tuple(polys)
        nv = num_unknowns + num_params
        for p in polys:
            if p.num_vars != nv:
                raise DimensionMismatchError(
                    f"polynomial has {p.num_vars} variables, expected {nv}"
                )
        self.polys = polys
        self.num_unknowns = int(num_unknowns)
        self.num_params = int(num_params)
        self._compiled = None

    @property
    def num_equations(self) -> int:
        return len(self.polys)

    def compiled(self) -> _CompiledSystem:
        if self._compiled is None:
            self._compiled = _CompiledSystem(
                self.polys, self.num_unknowns, self.num_params
            )
        return self._compiled

    def _check(self, point, params):
        if len(point) != self.num_unknowns:
            raise DimensionMismatchError(
                f"point has {len(point)} coordinates, expected {self.num_unknowns}"
            )
        if len(params) != self.num_params:
            raise DimensionMismatchError(
                f"got {len(params)} parameters, expected {self.num_params}"
            )

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
        comp = self.compiled()
        pw = comp.powers(point, params)
        vals, scales = comp.values_and_scales(pw)
        return vals, scales, comp.jacobian(pw)

    def param_tangent(self, point, params, dparams) -> np.ndarray:
        """Directional derivative of the system along a parameter velocity."""
        self._check(point, params)
        comp = self.compiled()
        return comp.param_tangent(comp.powers(point, params), dparams)

