import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinbranch.core import (
    DeltaFunction,
    InvalidCharacteristic,
    InvalidReplace,
    SignedSet,
    Weight,
    check_characteristic,
    res_p,
)


def test_res_p_examples():
    assert res_p(16, 5) == 0
    assert res_p(0, 5) == 0
    assert res_p(-1, 5) == 2
    assert res_p(3, 0) == 6


@given(st.integers(-50, 50), st.sampled_from([0, 3, 5, 7, 11]))
def test_res_p_symmetry(j, p):
    assert res_p(j, p) == res_p(1 - j, p)


def test_characteristic_validation():
    for p in (0, 3, 5, 7, 11, 13):
        assert check_characteristic(p) == p
    for p in (1, 2, 4, 9, 15, -3):
        with pytest.raises(InvalidCharacteristic):
            check_characteristic(p)


def test_signed_measure_example():
    m = SignedSet.of(evens=[1, 5], odds=[3, 6, 7])
    assert m.parity() == 1
    assert m.min() == (1, False)
    assert SignedSet.of(evens=[4], odds=[-2, 9]).min() == (-2, True)


def test_signed_measure_empty_and_singleton():
    empty = SignedSet.of()
    assert empty.parity() == 0
    assert empty.min() is None
    single = SignedSet.of(odds=[2])
    assert single.parity() == 1
    assert single.min() == (2, True)


def test_signed_transforms():
    c = SignedSet.of(evens=[1, 5], odds=[4])
    assert c.replace((4, True), (3, True)) == SignedSet.of(evens=[1, 5], odds=[3])
    m = SignedSet.of(evens=[1, 3, 6], odds=[2, 5])
    assert m.restrict(range(2, 6)) == SignedSet.of(evens=[3], odds=[2, 5])


def test_signed_invariants_and_errors():
    with pytest.raises(ValueError):
        SignedSet.of(evens=[2], odds=[2])
    m = SignedSet.of(evens=[1])
    with pytest.raises(InvalidReplace):
        m.replace((2, False), (3, False))
    with pytest.raises(InvalidReplace):
        SignedSet.of(evens=[1, 3]).replace((1, False), (3, True))


signed_sets = st.builds(
    lambda evens, odds: SignedSet.of(evens - odds, odds - evens),
    st.frozensets(st.integers(-8, 8), max_size=6),
    st.frozensets(st.integers(-8, 8), max_size=6),
)


@given(signed_sets, st.frozensets(st.integers(-8, 8)))
def test_restrict_partitions_the_set(m, s):
    inside = m.restrict(s)
    outside = m.restrict(set(range(-9, 10)) - s)
    assert inside.evens | outside.evens == m.evens and not inside.evens & outside.evens
    assert inside.odds | outside.odds == m.odds and not inside.odds & outside.odds


def test_weight_basics():
    w = Weight((4, 4, 1), 0)
    assert not w.is_p_strict()  # equal entries need p | value
    assert Weight((5, 5, 1), 5).is_p_strict()
    assert Weight((3, 1), 5).minus_w0() == Weight((-1, -3), 5)
    with pytest.raises(ValueError):
        Weight((), 5)


def test_sub_eps_checks_its_index():
    w = Weight((5, 3, 1), 3)
    assert w.sub_eps(1).parts == (4, 3, 1) and w.sub_eps(3).parts == (5, 3, 0)
    for i in (0, 4, -1):
        with pytest.raises(IndexError, match="out of range 1..3"):
            w.sub_eps(i)


def test_inputs_must_be_exact_integers():
    from spinbranch.crystal import PStrictPartition
    from spinbranch.sigseq import Flow, SignMap

    for bad in ((2.5, 1.9), ("4", "-1"), (3.0, 1)):
        with pytest.raises(TypeError):
            Weight(bad, 3)
    with pytest.raises(TypeError):
        PStrictPartition((3.7, 1.2), 3)
    for p in (3.0, "3"):
        with pytest.raises(TypeError):
            check_characteristic(p)
        with pytest.raises(TypeError):
            Weight((4, 1), p)
        with pytest.raises(TypeError):
            PStrictPartition((4, 1), p)
    w = Weight((4, 1), 3)
    assert type(w.p) is int and w.residue(1) == 0 and type(w.residue(1)) is int
    for bad in (dict(evens=[1.5]), dict(odds=[2.0]), dict(evens=["3"])):
        with pytest.raises(TypeError):
            SignedSet.of(**bad)
    for lo, values in ((0.5, (1,)), (1, (1.0, 0)), (1, (0, "1"))):
        with pytest.raises(TypeError):
            DeltaFunction(lo, values)
    with pytest.raises(ValueError):
        DeltaFunction(1, (0, 2))
    for edge in ((1.7, 2), (1, 2.0)):
        with pytest.raises(TypeError):
            Flow(frozenset({edge}))
    for key in (1.5, 2.0, "3"):
        with pytest.raises(TypeError):
            SignMap("single", {key: "-"})
    kept = SignMap("single", {1: "+"}).restrict([1.0])
    assert kept.domain == (1,) and type(kept.domain[0]) is int


def test_delta_with_value_checks_its_point():
    d = DeltaFunction(2, (0, 0, 0))
    assert d.with_value(2, 1).values == (1, 0, 0) and d.with_value(4, 1).values == (0, 0, 1)
    for t in (1, 5, -1):
        with pytest.raises(KeyError, match=r"outside \[2..4\]"):
            d.with_value(t, 1)
