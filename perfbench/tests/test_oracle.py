from fractions import Fraction

import pytest

from perfbench.oracle import OracleViolation, check_multi_party, check_two_party

ALICE = frozenset({1, 2, 3, 4})
BOB = frozenset({3, 4, 5})


def test_exact_answers_pass():
    assert check_two_party("intersect", [3, 4], ALICE, BOB)
    assert check_two_party("size", 2, ALICE, BOB)
    assert check_two_party("jaccard", [2, 5], ALICE, BOB)
    assert check_two_party("contains-any", True, ALICE, BOB)
    assert check_multi_party({3}, [{1, 3}, {2, 3}, {3, 4}])


def test_degraded_superset_is_inexact_not_a_violation():
    assert not check_two_party("intersect", sorted(ALICE), ALICE, BOB)
    assert not check_two_party("size", 4, ALICE, BOB)
    assert not check_two_party("jaccard", Fraction(4, 3), ALICE, BOB)
    assert not check_multi_party({1, 3}, [{1, 3}, {2, 3}, {3, 4}])


def test_missing_common_element_is_rejected():
    with pytest.raises(OracleViolation):
        check_two_party("intersect", [3], ALICE, BOB)
    with pytest.raises(OracleViolation):
        check_multi_party(set(), [{1, 3}, {2, 3}, {3, 4}])


def test_element_outside_own_input_is_rejected():
    with pytest.raises(OracleViolation):
        check_two_party("intersect", [3, 4, 5], ALICE, BOB)
    with pytest.raises(OracleViolation):
        check_multi_party({3, 9}, [{1, 3}, {2, 3}, {3, 4}])


def test_size_below_truth_is_rejected():
    with pytest.raises(OracleViolation):
        check_two_party("size", 1, ALICE, BOB)
    with pytest.raises(OracleViolation):
        check_two_party("jaccard", [1, 6], ALICE, BOB)
    with pytest.raises(OracleViolation):
        check_two_party("contains-any", False, ALICE, BOB)
