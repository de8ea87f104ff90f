import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinbranch.core import (
    DeltaFunction,
    InvalidCharacteristic,
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


def test_signed_invariants_and_errors():
    with pytest.raises(ValueError):
        SignedSet.of(evens=[2], odds=[2])


def test_weight_basics():
    w = Weight((4, 4, 1), 0)
    assert not w.is_p_strict()  # equal entries need p | value
    assert Weight((5, 5, 1), 5).is_p_strict()
    assert Weight((3, 1), 5).minus_w0() == Weight((-1, -3), 5)
    with pytest.raises(ValueError):
        Weight((), 5)


def test_equal_weights_hash_equal_whatever_the_build_path():
    # the hash is kept on first use, also by the `_trusted` builds
    w = Weight((4, 3, 1), 3)
    hash(w)
    for v in (Weight((4, 3, 1), 3), Weight((5, 3, 1), 3).sub_eps(1), Weight((-1, -3, -4), 3).minus_w0()):
        assert v == w and hash(v) == hash(w) == hash(v)
    assert {w: 1}[Weight((5, 3, 1), 3).sub_eps(1)] == 1
    assert Weight((4, 3, 1), 5) != w  # equality still reads p


def test_sub_eps_checks_its_index():
    w = Weight((5, 3, 1), 3)
    assert w.sub_eps(1).parts == (4, 3, 1) and w.sub_eps(3).parts == (5, 3, 0)
    for i in (0, 4, -1):
        with pytest.raises(IndexError, match="out of range 1..3"):
            w.sub_eps(i)


def test_inputs_must_be_exact_integers():
    from spinbranch.crystal import PStrictPartition
    from spinbranch.sigseq import Flow, r_beta

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
    for beta in (1.5, 2.0, "3"):
        with pytest.raises(TypeError):
            r_beta(w, beta)


def test_delta_values_are_stored_as_an_int_tuple():
    d = DeltaFunction(1, [0, 1])
    assert d.values == (0, 1) and hash(d) == hash(DeltaFunction(1, (0, 1)))
    flags = DeltaFunction(1, (True, False))
    assert flags.values == (1, 0) and all(type(v) is int for v in flags.values)
    assert flags == DeltaFunction(1, (1, 0))
    # a list once reached the raising memo as an unhashable key
    from spinbranch.raising import raising_closed, raising_rec

    m = SignedSet.of(evens=[3], odds=[2])
    assert raising_rec(1, 3, 1, d, m) == raising_closed(1, 3, 1, d, m)


def test_delta_call_checks_its_point():
    d = DeltaFunction(2, (0, 1, 0))
    assert [d(t) for t in (2, 3, 4)] == [0, 1, 0]
    for t in (1, 5, -1):
        with pytest.raises(KeyError, match=r"outside \[2..4\]"):
            d(t)
