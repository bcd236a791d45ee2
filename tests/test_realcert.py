"""Realness classification of decomposition sets."""

import numpy as np
import pytest

from tensorid.realcert import (
    AUTOCONJUGATE,
    CONJUGATE_PAIR_MEMBER,
    REAL,
    DecompositionClass,
    UnpairedDecompositionError,
    classify,
    conjugate_partners,
    is_real_point,
)
from tensorid.waring import Decomposition, Summand


def _dec(*pairs):
    return Decomposition(tuple(Summand((complex(l),), complex(lam)) for l, lam in pairs))


def test_is_real_point_relative_threshold():
    assert is_real_point([1e6, 2e6 + 1e-4j])  # 1e-4 imag on 2e6 scale
    assert not is_real_point([1.0, 1.0 + 1e-6j])
    assert is_real_point([])


def test_is_real_point_judges_each_row_of_a_stack():
    rows = [[1e6, 2e6 + 1e-4j], [1.0, 1.0 + 1e-6j], [0.0, 0.0], [1e-9j, 0.0]]
    got = is_real_point(rows)
    assert isinstance(got, np.ndarray) and got.dtype == bool
    assert got.tolist() == [is_real_point(row) for row in rows] == [True, False, True, True]
    assert isinstance(is_real_point(rows[0]), bool)
    assert is_real_point(np.empty((0, 3))).shape == (0,)


def test_classify_real_decomposition():
    real = _dec((1.5, 2.0), (-0.5, 1.0))
    out = classify([real])
    assert out.classes[0].tag == REAL
    assert out.real_count == 1
    assert out.identifiable_over_R and out.identifiable_over_C


def test_classify_judges_each_coordinate_by_its_own_size():
    # weights of 1e6 once hid the 1e-5 imaginary part of a slope, so this
    # conjugate pair, 1e-5 apart in canonical distance, counted as two
    # real decompositions
    a = Decomposition(
        (Summand((1 + 1e-5j, 2.0), 1e6), Summand((3.0, -1.0), 2e6))
    )
    out = classify([a, a.conjugate()])
    assert (out.real_count, out.autoconjugate_count, out.conjugate_pair_count) == (0, 0, 1)
    assert not out.identifiable_over_R


def test_classify_autoconjugate():
    auto = _dec((0.5 + 1j, 2.0), (0.5 - 1j, 2.0))
    out = classify([auto])
    assert out.classes[0].tag == AUTOCONJUGATE
    assert out.autoconjugate_count == 1
    assert not out.identifiable_over_R


def test_classify_conjugate_pair():
    a = _dec((0.5 + 1j, 2.0), (0.25, 1.0))
    b = a.conjugate()
    out = classify([a, b])
    tags = [c.tag for c in out.classes]
    assert tags == [CONJUGATE_PAIR_MEMBER, CONJUGATE_PAIR_MEMBER]
    assert out.classes[0].partner == 1
    assert out.classes[1].partner == 0
    assert out.conjugate_pair_count == 1


def test_classify_unpaired_raises():
    lonely = _dec((0.5 + 1j, 2.0), (0.25, 1.0))
    with pytest.raises(UnpairedDecompositionError):
        classify([lonely])


def test_classify_mixed_set_counts():
    real = _dec((1.0, 1.0), (2.0, -1.0))
    auto = _dec((1j, 3.0), (-1j, 3.0))
    a = _dec((0.5 + 1j, 2.0), (0.25, 1.0))
    out = classify([real, auto, a, a.conjugate()])
    s = out.serialize()
    assert s["total"] == 4
    assert s["real"] == 1
    assert s["autoconjugate"] == 1
    assert s["conjugate_pairs"] == 1
    assert s["identifiable_over_R"] is True
    assert s["identifiable_over_C"] is False


def test_classify_serialize_partner_indices():
    a = _dec((0.5 + 1j, 2.0), (0.25, 1.0))
    out = classify([a, a.conjugate()])
    blob = out.serialize()
    assert blob["classes"][0] == {"tag": CONJUGATE_PAIR_MEMBER, "partner": 1}


def test_classify_accepts_registry_like():
    class FakeRegistry:
        solutions = [_dec((1.0, 1.0), (2.0, -1.0))]

    out = classify(FakeRegistry())
    assert out.total == 1 and out.real_count == 1


def test_classify_rejects_non_decompositions():
    with pytest.raises(TypeError):
        classify([np.array([1.0, 2.0])])


def test_conjugate_partners_maps_each_item_to_its_nearest_conjugate():
    def gaps(items):
        return [[abs(np.conjugate(a) - b) for b in items] for a in items]

    assert conjugate_partners(gaps([1 + 1j, 2.0, 1 - 1j + 1e-9, 3 + 0.5j]), 1e-6) == [2, 1, 0, None]
    # a tie goes to the first j
    assert conjugate_partners(gaps([1 + 1j, 1 - 1j, 1 - 1j]), 1e-6) == [1, 0, 0]
    # a section without non-real points pairs an empty matrix
    assert conjugate_partners(gaps([]), 1e-6) == []
    assert conjugate_partners(np.zeros((0, 0)), 1e-6) == []


def test_classify_reads_classes_off_the_involution():
    # a non-real entry that is its own conjugate is a fixed point, so it
    # is autoconjugate with no partner, beside a 2-cycle
    auto = _dec((0.5 + 1j, 2.0), (0.5 - 1j, 2.0))
    a = _dec((0.5 + 1j, 2.0), (0.25, 1.0))
    out = classify([a, auto, a.conjugate()])
    assert out.classes == [
        DecompositionClass(CONJUGATE_PAIR_MEMBER, 2),
        DecompositionClass(AUTOCONJUGATE, None),
        DecompositionClass(CONJUGATE_PAIR_MEMBER, 0),
    ]
    assert (out.real_count, out.autoconjugate_count, out.conjugate_pair_count) == (0, 1, 1)


_A = _dec((0.5 + 1j, 2.0), (0.25, 1.0))


@pytest.mark.parametrize(
    "decs, message",
    [
        # c lies 1e-8 from b = conj(a): c's conjugate is nearest a, while
        # a and b are each other's partners
        ([_A, _A.conjugate(), _dec((0.5 - 1j, 2.0 + 1e-8), (0.25, 1.0))], "not mutual: 2 maps to 0, 0 to 1"),
        ([_dec((1.0, 1.0), (2.0, -1.0)), _A, _A.conjugate(), _dec((1j, 3.0), (2.0, 1.0))],
         "decomposition 3 has no conjugate partner"),
    ],
    ids=["non-mutual", "missing-partner"],
)
def test_classify_rejects_a_map_that_is_not_an_involution(decs, message):
    with pytest.raises(UnpairedDecompositionError, match=message):
        classify(decs)
