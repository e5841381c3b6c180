import copy
import itertools
import pickle

import pytest

from bhf.algebra import (_BY_NAME, _IDEM_BY_NAME, AlgebraElement, is_idempotent, left_idem,
                         multiply, right_idem)

A = AlgebraElement


# the documents' readers look names up in these tables
def test_element_names_round_trip():
    for e in A:
        assert _BY_NAME[e.value] is e
    assert _IDEM_BY_NAME == {"iota0": A.I0, "iota1": A.I1}


def test_unknown_names_rejected():
    assert "rho4" not in _BY_NAME and "rho1" not in _IDEM_BY_NAME


def test_idempotent_predicates():
    assert is_idempotent(A.I0) and is_idempotent(A.I1)
    for e in (A.R1, A.R2, A.R3, A.R12, A.R23, A.R123, A.ZERO):
        assert not is_idempotent(e)


def test_chord_idempotents():
    assert (left_idem(A.R1), right_idem(A.R1)) == (A.I0, A.I1)
    assert (left_idem(A.R2), right_idem(A.R2)) == (A.I1, A.I0)
    assert (left_idem(A.R3), right_idem(A.R3)) == (A.I0, A.I1)
    assert (left_idem(A.R12), right_idem(A.R12)) == (A.I0, A.I0)
    assert (left_idem(A.R23), right_idem(A.R23)) == (A.I1, A.I1)
    assert (left_idem(A.R123), right_idem(A.R123)) == (A.I0, A.I1)


def test_nonzero_products():
    table = {(A.R1, A.R2): A.R12, (A.R2, A.R3): A.R23,
             (A.R1, A.R23): A.R123, (A.R12, A.R3): A.R123}
    for (x, y), z in table.items():
        assert multiply(x, y) is z
    # every other chord pair multiplies to zero
    chords = [A.R1, A.R2, A.R3, A.R12, A.R23, A.R123]
    for x, y in itertools.product(chords, repeat=2):
        if (x, y) not in table:
            assert multiply(x, y) is A.ZERO


def test_unit_laws():
    for e in A:
        if e is A.ZERO:
            continue
        assert multiply(left_idem(e), e) is e
        assert multiply(e, right_idem(e)) is e


def test_mismatched_idempotents_give_zero():
    assert multiply(A.I0, A.I1) is A.ZERO
    assert multiply(A.R2, A.R1) is A.ZERO
    assert multiply(A.I1, A.R1) is A.ZERO
    assert multiply(A.R1, A.I0) is A.ZERO


def test_zero_absorbs():
    for e in A:
        assert multiply(A.ZERO, e) is A.ZERO
        assert multiply(e, A.ZERO) is A.ZERO


def test_associativity_all_triples():
    elems = list(A)
    count = 0
    for x, y, z in itertools.product(elems, repeat=3):
        assert multiply(multiply(x, y), z) is multiply(x, multiply(y, z))
        count += 1
    assert count == 729


# The rule-based algebra the tables are built to agree with: the
# (left, right) idempotents of each nonzero element, the unit laws and the
# four chord concatenations.
IDEMS = {A.I0: (A.I0, A.I0), A.I1: (A.I1, A.I1),
         A.R1: (A.I0, A.I1), A.R2: (A.I1, A.I0),
         A.R3: (A.I0, A.I1), A.R12: (A.I0, A.I0),
         A.R23: (A.I1, A.I1), A.R123: (A.I0, A.I1)}
CONCATENATIONS = {(A.R1, A.R2): A.R12, (A.R2, A.R3): A.R23,
                  (A.R1, A.R23): A.R123, (A.R12, A.R3): A.R123}


def rule_multiply(a, b):
    if a is A.ZERO or b is A.ZERO or IDEMS[a][1] is not IDEMS[b][0]:
        return A.ZERO
    if a in (A.I0, A.I1):
        return b
    if b in (A.I0, A.I1):
        return a
    return CONCATENATIONS.get((a, b), A.ZERO)


def test_tables_match_the_rules():
    for a, b in itertools.product(A, repeat=2):
        assert multiply(a, b) is rule_multiply(a, b), (a, b)
    for a in A:
        assert is_idempotent(a) is (a in (A.I0, A.I1))
        if a is A.ZERO:
            with pytest.raises(ValueError):
                left_idem(a)
            with pytest.raises(ValueError):
                right_idem(a)
        else:
            assert (left_idem(a), right_idem(a)) == IDEMS[a]


def test_members_survive_pickle_and_deepcopy():
    for e in A:
        for again in (pickle.loads(pickle.dumps(e)), copy.deepcopy(e)):
            assert again is e and hash(again) == hash(e)
