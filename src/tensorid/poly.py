"""Monomial bases and square polynomial systems.

Monomial bases are ordered graded lexicographically (by total degree,
then lexicographically, largest first), which fixes the equation order
of every system built here.

Every homotopy here is linear in its parameters, F(x; p) = M(x) p + c(x),
so a PolySystem is given directly as term rows: equation i is a list
of terms (coeff, m, k), read as ``coeff * x^m * p_k`` with m the
exponents of the unknowns and k a parameter index, or -1 for a term
with no parameter.  A row cannot express a term nonlinear in p.  The
rows are compiled into term tables of numpy index arrays, one for the
equations and the Jacobian cells and one for the parameter terms, so
path trackers evaluate residuals, Jacobians and the parameter tangent
M(x) dp in vectorized form, for one point or a stack of them.
"""

import math
from itertools import combinations_with_replacement

import numpy as np


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


class _TermTable:
    """Rows of terms ``coeff * x^m * (p_k or 1)`` as index arrays.

    A term is (coeff, m, k): m holds the exponents of the unknowns and k
    indexes the parameter vector, or is -1 for "no parameter".  A point
    is evaluated from its block: the flattened (E+1, N) powers table,
    index e*N + v for x_v^e, then the P parameters.  Each monomial x^m is
    a column of the (F, T) matrix ``fidx`` of block indices, its factors
    in variable order padded at the end with index 0, the power
    x_0^0 = 1, and its parameter is the block index ``pidx`` (index 0 for
    k = -1).  So a table evaluates with one gather, F - 1 elementwise
    multiplies and one multiply by the gathered parameters.  The rows
    come in parts, each part's terms after the previous part's; a part's
    rows are summed by ``np.add.reduceat``, which needs non-empty
    segments, so an empty row holds one zero term, and when every row of
    a part holds exactly one term there is nothing to sum.

    A stack of K points is evaluated as K copies of the table, part by
    part: a block-diagonal table over the K blocks laid end to end, whose
    index arrays are built once per K.  So a stack costs the numpy calls
    of one point, and the copy for one point is the table itself.  The
    copies are cached for the life of the table, one per distinct K ever
    seen, each about K times the table's size, so callers bound K:
    ``monodromy._stack_rows`` caps both these copies and the tracker's
    own (K, N, N) arrays at the cells of 8 paths of 36 unknowns, and at
    8 paths for larger systems.  The two tables of the (8,2,15) Waring
    system grow the peak RSS by 322 MB over K = 1 to 64, 22 MB over 1 to 16.
    """

    def __init__(self, parts, num_unknowns: int, powers: int):
        factors, coef, pidx, bounds = [], [], [], []
        for rows in parts:
            first, rptr = len(coef), []
            for terms in rows:
                rptr.append(len(coef) - first)
                for c, mono, k in terms or [(0j, (), -1)]:
                    factors.append([e * num_unknowns + v for v, e in enumerate(mono) if e])
                    coef.append(c)
                    pidx.append(powers + k if k >= 0 else 0)
            whole = len(rptr) == len(coef) - first
            bounds.append((first, len(coef), None if whole else np.asarray(rptr, dtype=np.intp)))
        fidx = np.zeros((max([1, *map(len, factors)]), len(coef)), dtype=np.intp)
        for t, fac in enumerate(factors):
            fidx[: len(fac), t] = fac
        pidx = np.asarray(pidx, dtype=np.intp)
        self._copies = {1: (fidx, pidx, np.asarray(coef, dtype=np.complex128), bounds)}

    def _copy(self, k, block):
        """(fidx, pidx, coef, part bounds) of k copies, for points whose
        blocks are ``block`` long."""
        fidx, pidx, coef, bounds = self._copies[1]
        copy = np.arange(k)[:, None]
        parts = [slice(a, b) for a, b, _ in bounds]
        self._copies[k] = (
            np.concatenate(
                [(fidx[:, None, part] + block * copy).reshape(len(fidx), -1) for part in parts],
                axis=1,
            ),
            np.concatenate([(pidx[part] + block * copy).ravel() for part in parts]),
            np.concatenate([np.tile(coef[part], k) for part in parts]),
            [
                (k * a, k * b, None if rptr is None else (rptr + (b - a) * copy).ravel())
                for a, b, rptr in bounds
            ],
        )
        return self._copies[k]

    def terms(self, blocks, k):
        """coeff * (x^m * p_k) for every term of k copies, from the blocks
        of k points laid end to end.  Returns (terms, row starts) for each
        part, the row starts None when every row holds one term."""
        fidx, pidx, coef, bounds = self._copies.get(k) or self._copy(k, len(blocks) // k)
        fac = blocks[fidx]
        mono = fac[0]
        for row in fac[1:]:
            mono *= row
        mono *= blocks[pidx]
        np.multiply(coef, mono, out=mono)
        return [(mono[a:b], rptr) for a, b, rptr in bounds]


def _sum_rows(values, rptr):
    """Row sums of one part's terms, given its row starts."""
    return values if rptr is None else np.add.reduceat(values, rptr)


class PolySystem:
    """Square system F(x; p) = M(x) p + c(x) from rows of (coeff, m, k)
    terms, m a tuple of ``num_unknowns`` exponents and -1 <= k < num_params.

    The state table has two parts: the equations, each row summed sorted
    by m, then one row per (equation, unknown) Jacobian cell, its entries
    in the given term order; the cells run down each column, so each
    Jacobian comes out Fortran-ordered, the layout LAPACK factors.  The
    tangent table keeps the parameter terms of each equation row, in the
    same order; evaluated at the velocity dp it gives M(x) dp.  These
    orders fix every sum and product, so results are bitwise
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
                        cells.setdefault(col * len(rows) + i, []).append((c * e, dmono, k))
        eq_rows = [sorted(row, key=lambda term: term[1]) for row in rows]
        jac_rows = [cells.get(cell, []) for cell in range(len(rows) * nu)]
        self._max_exp = max([1, *(e for row in rows for _, mono, _ in row for e in mono)])
        powers = (self._max_exp + 1) * nu
        self._state = _TermTable([eq_rows, jac_rows], nu, powers)
        self._tangent = _TermTable([[[t for t in row if t[2] >= 0] for row in eq_rows]], nu, powers)

    def _blocks(self, point, params):
        """(points, number of points, blocks): each point's flattened (E+1, N)
        powers table, whose row e holds x**e, then its own parameters,
        laid end to end; checks the lengths, and that there is one
        parameter row per point."""
        x = np.asarray(point, dtype=np.complex128)
        p = np.asarray(params, dtype=np.complex128)
        if x.shape[-1] != self.num_unknowns:
            raise DimensionMismatchError(
                f"point has {x.shape[-1]} coordinates, expected {self.num_unknowns}"
            )
        if p.shape[-1] != self.num_params:
            raise DimensionMismatchError(
                f"got {p.shape[-1]} parameters, expected {self.num_params}"
            )
        if p.shape[:-1] != x.shape[:-1]:
            raise DimensionMismatchError(
                f"got parameters of shape {p.shape} for points of shape {x.shape}: "
                "need one parameter row per point"
            )
        k = 1 if x.ndim == 1 else len(x)
        block = [np.empty_like(x), x]
        block[0].fill(1.0)
        for _ in range(1, self._max_exp):
            block.append(block[-1] * x)
        block.append(p)
        return x, k, np.concatenate(block, axis=-1).ravel()

    def full_state(self, point, params=()):
        """(values, scales, jacobian) sharing one powers table.

        The scale of an equation is the sum of the absolute values of its
        evaluated terms; dividing residuals by (1 + scale) measures
        convergence relative to the size of the arithmetic that produced
        them, which is the only meaningful notion once coefficients span
        many orders of magnitude.

        ``point`` may be a (K, N) stack of points, with a (K, P) stack
        of parameters; the results then carry the leading K axis, and
        row k equals the call on row k alone.
        """
        x, k, blocks = self._blocks(point, params)
        (eq, eq_rows), (jac, jac_rows) = self._state.terms(blocks, k)
        shape = x.shape[:-1] + (-1,)
        return (
            _sum_rows(eq, eq_rows).reshape(shape),
            _sum_rows(np.abs(eq), eq_rows).reshape(shape),
            _sum_rows(jac, jac_rows).reshape(shape[:-1] + (self.num_unknowns, -1)).swapaxes(-1, -2),
        )

    def param_tangent(self, point, dparams) -> np.ndarray:
        """Directional derivative M(x) dp of the system along a parameter
        velocity dp; it does not depend on the parameters.  ``point`` may
        be a (K, N) stack, with a (K, P) stack of velocities, as in
        ``full_state``."""
        x, k, blocks = self._blocks(point, dparams)
        ((values, rows),) = self._tangent.terms(blocks, k)
        return _sum_rows(values, rows).reshape(x.shape[:-1] + (-1,))
