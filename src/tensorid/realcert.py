"""Realness classification of a set of decompositions.

Conjugation maps a real form's decompositions to decompositions, so on
a complete set it is an involution of the indices, read off by
``conjugate_partners`` from the distances between each decomposition's
conjugate and every decomposition.  A fixed point is Real when every
coordinate is real up to ``REAL_TOL`` relative to its own size and
Autoconjugate (equal to its own conjugate as a multiset of summands)
otherwise; each 2-cycle is one ConjugatePair.  A missing or non-mutual
partner signals that the enumeration is incomplete; that is an error,
not a fourth class.

Uniqueness over C means the set has exactly one element; uniqueness
over R means it contains exactly one Real element.
"""

from dataclasses import dataclass

import numpy as np

from .monodromy import DEDUP_TOL, canonical_distance
from .waring import Decomposition

REAL = "real"
AUTOCONJUGATE = "autoconjugate"
CONJUGATE_PAIR_MEMBER = "conjugate_pair_member"
REAL_TOL = 1e-8


class UnpairedDecompositionError(RuntimeError):
    """A non-real decomposition has no conjugate partner in the set."""


def is_real_point(values, real_tol: float = REAL_TOL):
    """Componentwise realness relative to the largest coordinate.

    One (N,) point gives a bool; a (K, N) stack gives a (K,) bool array,
    row k judged relative to its own largest coordinate."""
    v = np.asarray(values, dtype=np.complex128)
    scale = 1.0 + np.max(np.abs(v), axis=-1, initial=0.0)
    real = np.max(np.abs(v.imag), axis=-1, initial=0.0) < real_tol * scale
    return bool(real) if v.ndim == 1 else real


def _is_real_decomposition(dec: Decomposition) -> bool:
    """Every coordinate v has |Im v| < REAL_TOL * (1 + |v|), the
    coordinate-wise scale ``canonical_distance`` compares by; a bound
    relative to the largest coordinate would let weights of size 1e6
    hide slopes with imaginary parts of 1e-5."""
    v = dec.to_vector()
    return bool((np.abs(v.imag) < REAL_TOL * (1.0 + np.abs(v))).all())


@dataclass(frozen=True)
class DecompositionClass:
    """Tag for one decomposition; partner indexes its conjugate, if any."""

    tag: str
    partner: int | None = None


@dataclass
class ClassifiedSet:
    decompositions: list
    classes: list
    real_count: int
    autoconjugate_count: int
    conjugate_pair_count: int

    @property
    def total(self) -> int:
        return len(self.decompositions)

    @property
    def identifiable_over_C(self) -> bool:
        return self.total == 1

    @property
    def identifiable_over_R(self) -> bool:
        return self.real_count == 1

    def serialize(self) -> dict:
        return {
            "total": self.total,
            "real": self.real_count,
            "autoconjugate": self.autoconjugate_count,
            "conjugate_pairs": self.conjugate_pair_count,
            "identifiable_over_R": self.identifiable_over_R,
            "identifiable_over_C": self.identifiable_over_C,
            "classes": [
                {"tag": c.tag, "partner": c.partner} for c in self.classes
            ],
        }


def conjugate_indices(gaps, tol: float) -> np.ndarray:
    """Conjugation as a map on indices, read off the matrix ``gaps`` whose
    entry (i, j) is the distance from the conjugate of item i to item j:
    entry i is i when ``gaps[i][i] < tol``, else the j != i of smallest
    gap below ``tol`` (the first on a tie), or -1 when there is none.
    On a set closed under conjugation the map is an involution; callers
    check that it is one."""
    g = np.array(gaps, dtype=float)
    if not len(g):
        return np.zeros(0, dtype=int)
    index = np.arange(len(g))
    fixed = np.diag(g) < tol
    np.fill_diagonal(g, np.inf)
    nearest = g.argmin(axis=1)
    return np.where(fixed, index, np.where(g[index, nearest] < tol, nearest, -1))


def conjugate_partners(gaps, tol: float) -> list:
    """``conjugate_indices`` as a list, None where there is no partner."""
    return [None if j < 0 else int(j) for j in conjugate_indices(gaps, tol)]


def classify(registry_or_list) -> ClassifiedSet:
    """Assign each decomposition its realness class.

    Accepts a SolutionRegistry or a plain sequence of Decomposition.
    Raises UnpairedDecompositionError when conjugation is not an
    involution of the set: an entry has no conjugate within
    ``DEDUP_TOL``, or its nearest conjugate's partner is another entry.
    """
    solutions = getattr(registry_or_list, "solutions", registry_or_list)
    decs = list(solutions)
    for dec in decs:
        if not isinstance(dec, Decomposition):
            raise TypeError("expected Decomposition entries")

    gaps = [[canonical_distance(conj, other) for other in decs] for conj in (dec.conjugate() for dec in decs)]
    partners = conjugate_partners(gaps, DEDUP_TOL)
    classes = []
    for i, j in enumerate(partners):
        if j is None:
            raise UnpairedDecompositionError(
                f"decomposition {i} has no conjugate partner within {DEDUP_TOL:g}; "
                f"the enumeration looks incomplete"
            )
        if partners[j] != i:
            raise UnpairedDecompositionError(
                f"conjugate pairing is not mutual: {i} maps to {j}, {j} to {partners[j]}"
            )
        if j != i:
            classes.append(DecompositionClass(CONJUGATE_PAIR_MEMBER, j))
        elif _is_real_decomposition(decs[i]):
            classes.append(DecompositionClass(REAL))
        else:
            classes.append(DecompositionClass(AUTOCONJUGATE))
    tags = [c.tag for c in classes]
    return ClassifiedSet(
        decs, classes, tags.count(REAL), tags.count(AUTOCONJUGATE), tags.count(CONJUGATE_PAIR_MEMBER) // 2
    )
