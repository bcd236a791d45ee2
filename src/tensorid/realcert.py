"""Realness classification of a set of decompositions.

A decomposition of a real form is Real (every coordinate real up to
``REAL_TOL`` relative to its own size), Autoconjugate (equal to its own
conjugate as a multiset of summands, without being real entry-wise), or
one member of a ConjugatePair.  A non-real decomposition whose conjugate is missing
from the set signals that the enumeration is incomplete; that is an
error, not a fourth class.

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


def is_real_point(values, real_tol: float = REAL_TOL) -> bool:
    """Componentwise realness relative to the largest coordinate."""
    v = np.asarray(values, dtype=np.complex128).ravel()
    if v.size == 0:
        return True
    scale = 1.0 + float(np.max(np.abs(v)))
    return float(np.max(np.abs(v.imag))) < real_tol * scale


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


def classify(registry_or_list) -> ClassifiedSet:
    """Assign each decomposition its realness class.

    Accepts a SolutionRegistry or a plain sequence of Decomposition.
    Raises UnpairedDecompositionError when a non-real, non-autoconjugate
    entry has no mutual conjugate partner within ``DEDUP_TOL``.
    """
    solutions = getattr(registry_or_list, "solutions", registry_or_list)
    decs = list(solutions)
    for dec in decs:
        if not isinstance(dec, Decomposition):
            raise TypeError("expected Decomposition entries")

    tags: list = [None] * len(decs)
    partners: list = [None] * len(decs)
    for i, dec in enumerate(decs):
        if _is_real_decomposition(dec):
            tags[i] = REAL
        elif canonical_distance(dec, dec.conjugate()) < DEDUP_TOL:
            tags[i] = AUTOCONJUGATE

    for i, dec in enumerate(decs):
        if tags[i] is not None:
            continue
        conj = dec.conjugate()
        best_j, best_d = None, np.inf
        for j, other in enumerate(decs):
            if j == i:
                continue
            d = canonical_distance(conj, other)
            if d < best_d:
                best_j, best_d = j, d
        if best_j is None or best_d >= DEDUP_TOL:
            raise UnpairedDecompositionError(
                f"decomposition {i} has no conjugate partner within {DEDUP_TOL:g}; "
                f"the enumeration looks incomplete"
            )
        if partners[best_j] not in (None, i):
            raise UnpairedDecompositionError(
                f"decompositions {i} and {partners[best_j]} both pair with {best_j}"
            )
        tags[i] = CONJUGATE_PAIR_MEMBER
        partners[i] = best_j

    for i, p in enumerate(partners):
        if p is not None and partners[p] != i:
            raise UnpairedDecompositionError(
                f"conjugate pairing is not mutual between {i} and {p}"
            )

    classes = [DecompositionClass(tags[i], partners[i]) for i in range(len(decs))]
    real_count = sum(1 for t in tags if t == REAL)
    auto_count = sum(1 for t in tags if t == AUTOCONJUGATE)
    pair_count = sum(1 for t in tags if t == CONJUGATE_PAIR_MEMBER) // 2
    return ClassifiedSet(decs, classes, real_count, auto_count, pair_count)
