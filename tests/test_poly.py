import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinbranch import raising
from spinbranch.core import DeltaFunction
from spinbranch.poly import (
    BadIndices,
    BadParameters,
    NotDivisible,
    Polynomial,
    exact_div,
    f_poly,
    format_poly,
    g1,
    g2,
    lin_reduce,
    parse_poly,
    sigma_apply,
    u_poly,
    x,
    y,
)

one = Polynomial.const(1)


def test_sigma_examples():
    assert sigma_apply(1, 2, 3, x(3)) == x(3) + x(1) - x(2)
    assert sigma_apply(1, 2, 3, y(2)) == y(2)
    f = x(4) * y(3) - 2 * x(1)
    lhs = sigma_apply(1, 2, 3, sigma_apply(1, 3, 4, f))
    rhs = sigma_apply(2, 3, 4, sigma_apply(1, 2, 3, f))
    assert lhs == rhs
    with pytest.raises(BadIndices):
        sigma_apply(2, 2, 3, x(1))


def test_exact_div_examples():
    assert exact_div((x(1) - x(2)) * (x(1) - y(2)), 1, 2) == x(1) - y(2)
    assert exact_div(Polynomial(), 1, 2) == Polynomial()
    num = (x(1) - y(3)) - sigma_apply(1, 2, 3, x(1) - y(3))
    assert exact_div(num, 1, 2) == one
    with pytest.raises(NotDivisible) as err:
        exact_div(x(1) - y(2), 1, 2)
    assert err.value.remainder


def test_u_poly_examples():
    assert u_poly(1, 5, ()) == (x(1) - y(2)) * (x(1) - y(3)) * (x(1) - y(4)) * (x(1) - y(5))
    assert u_poly(1, 5, (3,)) == (x(1) - y(2)) * (x(1) - y(3)) * (x(3) - y(4)) * (x(3) - y(5))
    assert u_poly(2, 2, (5,)) == one


def test_f_poly_examples():
    l1 = DeltaFunction(2, (1, 1))
    assert f_poly(1, 3, (), l1, {2}) == x(1) - y(2)
    assert f_poly(1, 3, (), l1, ()) == u_poly(1, 3, ())
    # with the shift starting past every variable the difference vanishes
    assert f_poly(1, 2, (), DeltaFunction(2, (1,)), {2}) == Polynomial()


def test_f_selector_is_the_raising_delta_type():
    assert raising.DeltaFunction is DeltaFunction


def test_g_family_examples():
    assert g1(1, 4, {2, 3}) == x(1) - y(2)
    assert g2(2, 2, 5, 5, {3, 4, 5}) == one
    assert g2(2, 3, 5, 5, {3, 4, 5}) == one
    with pytest.raises(BadParameters):
        g1(3, 3, ())
    with pytest.raises(BadParameters):
        g2(1, 3, 2, 4, ())
    with pytest.raises(BadParameters):
        g1(1, 4, {4})  # 4 outside (1..4)
    # g1 is f with D empty and the constant selector, held in f's memo
    from spinbranch.poly import _f_cached
    _f_cached.cache_clear()
    for j in range(2, 7):
        const = DeltaFunction(2, (1,) * (j - 1))
        for k in range(j - 1):
            for s in itertools.combinations(range(2, j), k):
                assert g1(1, j, s) == f_poly(1, j, (), const, s), (j, s)
    assert _f_cached.cache_info().currsize == 2 ** 5 - 1
    # g2's S range is checked by f_poly, before anything is cached
    cached = _f_cached.cache_info().currsize
    for s in ({5}, {1}):
        with pytest.raises(BadParameters, match=rf"S = \[{min(s)}\] not inside \(1..4\]"):
            g2(1, 1, 2, 4, s)
    assert _f_cached.cache_info().currsize == cached


def test_lin_reduce_examples():
    assert lin_reduce(x(1) - y(3), {3: 2}) == x(1) - x(2)
    assert lin_reduce(x(1) * y(2), {}) == x(1) * y(2)


def test_lin_reduce_matches_g1_collapse():
    # substituting y_2 by x_1 kills the leading factor of g1(empty)
    assert lin_reduce(g1(1, 3, ()), {2: 1}) == Polynomial()
    # R = S = {2}, phi(2) = 3: the surviving-product branch of the dichotomy
    assert lin_reduce(g1(1, 3, {2}), {3: 2}) == x(1) - y(2)


coeffs = st.integers(-4, 4)
small_poly = st.lists(
    st.tuples(
        coeffs,
        st.lists(
            st.tuples(st.sampled_from("xy"), st.integers(1, 4), st.integers(1, 2)),
            max_size=3,
        ),
    ),
    max_size=4,
).map(
    lambda terms: sum(
        (
            c * _mono(vs)
            for c, vs in terms
        ),
        Polynomial(),
    )
)


def _mono(vs):
    out = Polynomial.const(1)
    for axis, idx, e in vs:
        out = out * Polynomial.var(axis, idx, e)
    return out


@given(small_poly, small_poly, small_poly)
def test_ring_laws(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f - f == Polynomial()


@given(small_poly)
def test_division_inverts_multiplication(f):
    assert exact_div(f * (x(1) - x(2)), 1, 2) == f


@given(small_poly)
def test_format_parse_round_trip(f):
    assert parse_poly(format_poly(f)) == f


def test_format_examples():
    f = 3 * x(1) * y(2) * y(2) - x(3)
    assert format_poly(f) == "3*x1*y2^2 - x3"
    assert format_poly(Polynomial()) == "0"
    assert parse_poly("3*x1*y2^2 - x3 + 4") == f + 4


def test_sigma_commutation_disjoint():
    # sigma_{1,2}^{b+e} and sigma_{3,5}^{5+h} commute when b+e <= 3
    f = x(5) * y(4) + x(2)
    for e in (0, 1):
        for h in (0, 1):
            lhs = sigma_apply(1, 2, 2 + e, sigma_apply(3, 5, 5 + h, f))
            rhs = sigma_apply(3, 5, 5 + h, sigma_apply(1, 2, 2 + e, f))
            assert lhs == rhs


def test_f_poly_rejects_bad_s():
    with pytest.raises(BadParameters):
        f_poly(1, 3, (), DeltaFunction(2, (1, 1)), {5})
