import hashlib
import json
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import definitional
import polyref as ref
import spinbranch
from spinbranch.core import SignedSet, Weight
from spinbranch.poly import Polynomial, format_poly, parse_poly, x, y
from spinbranch.raising import (
    BadSignedSet,
    CharacteristicZero,
    DeltaFunction,
    H,
    IndexOutOfRange,
    U0Element,
    UnsupportedShape,
    bracket_hom,
    eval_at_weight,
    format_u0,
    raising_closed,
    raising_rec,
    two_term_sum_sides,
    u0_b,
    u0_c,
    u0_h,
    u0_h_eps,
    u0_hbar,
)


def test_atoms():
    assert u0_c(1, 2) == U0Element({(): H(1) ** 2 - H(1) - H(2) ** 2 + H(2)})
    assert u0_b(1, 2) == U0Element({(): H(1) ** 2 - H(1) - H(2) ** 2 - H(2)})
    assert u0_h_eps(3, 1) == u0_hbar(3)
    assert u0_h_eps(3, 0) == u0_h(3)


def test_product_relations():
    assert u0_hbar(1) * u0_hbar(1) == u0_h(1)
    assert u0_hbar(2) * u0_hbar(1) == -(u0_hbar(1) * u0_hbar(2))
    mixed = (u0_h(1) + u0_hbar(1)) * u0_hbar(1)
    assert mixed == U0Element(
        {(1,): Polynomial.var("H", 1), (): Polynomial.var("H", 1)}
    )


def test_constructor_brings_keys_to_normal_form():
    one = Polynomial.const(1)
    assert U0Element({(2, 1): one}) == u0_hbar(2) * u0_hbar(1)
    assert U0Element({(1, 1): one}) == u0_h(1)
    assert U0Element({(2, 1): one, (1, 2): one}) == U0Element()
    assert str(U0Element({(1, 2): 5})) == "5*Hb1*Hb2"
    assert U0Element({(): 0}) == U0Element() and not U0Element({(3,): 0})
    for bad in (1.5, "1", None):
        with pytest.raises(TypeError, match="is not a Polynomial or an int"):
            U0Element({(): bad})
    assert u0_hbar(2).scale(-3) == U0Element({(2,): -3}) and not u0_h(1).scale(0)
    with pytest.raises(TypeError):
        u0_h(1).scale(H(1))


@given(st.lists(st.integers(1, 4), max_size=6),
       st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 3)), max_size=3))
@settings(max_examples=80)
def test_constructor_is_the_product_of_its_word(word, coeff_terms):
    c = sum((k * H(i) for k, i in coeff_terms), Polynomial.const(2))
    product = U0Element({(): c})
    for g in word:
        product = product * u0_hbar(g)
    assert U0Element({tuple(word): c}) == product


def test_product_on_generator_pairs():
    for i in range(1, 4):
        for j in range(1, 4):
            hb = u0_hbar(i) * u0_hbar(j)
            if i == j:
                assert hb == u0_h(i)
            else:
                assert hb == -(u0_hbar(j) * u0_hbar(i))
            assert u0_h(i) * u0_hbar(j) == u0_hbar(j) * u0_h(i)


def test_bracket_hom_examples():
    assert bracket_hom(x(1) - y(2)) == u0_b(1, 2)
    assert bracket_hom(x(1) - x(2)) == u0_c(1, 2)
    assert bracket_hom(Polynomial.const(1)) == U0Element({(): Polynomial.const(1)})


@given(
    st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 3), st.sampled_from("xy")), max_size=4),
    st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 3), st.sampled_from("xy")), max_size=4),
)
@settings(max_examples=60)
def test_bracket_hom_is_multiplicative(ts1, ts2):
    def build(ts):
        out = Polynomial.const(1)
        for c, idx, axis in ts:
            out = out * (Polynomial.var(axis, idx) + c)
        return out

    f, g = build(ts1), build(ts2)
    assert bracket_hom(f * g) == bracket_hom(f) * bracket_hom(g)


u0_elements = st.lists(
    st.tuples(st.integers(-3, 3), st.lists(st.integers(1, 3), max_size=3)),
    min_size=1,
    max_size=3,
).map(
    lambda rows: sum(
        (
            U0Element({(): Polynomial.const(c)}).scale(1)
            * _word(bars)
            for c, bars in rows
        ),
        U0Element(),
    )
)


def _word(bars):
    out = U0Element({(): Polynomial.const(1)})
    for b in bars:
        out = out * u0_hbar(b)
    return out


def _ref_coeff(rows) -> dict:
    out: dict = {}
    for c, factors in rows:
        term = ref.const(c)
        for i, e in factors:
            term = ref.mul(term, ref.var("H", i, e))
        out = ref.add(out, term)
    return out


def _word_map(rows) -> dict:
    """{word of barred generators: polyref coefficient}, words summed."""
    out: dict = {}
    for word, coeff in rows:
        out[tuple(word)] = ref.add(out.get(tuple(word), {}), _ref_coeff(coeff))
    return out


# random words, not in normal form, with multi-term polyref coefficients
word_maps = st.lists(
    st.tuples(
        st.lists(st.integers(1, 3), max_size=4),
        st.lists(st.tuples(st.integers(-3, 3),
                           st.lists(st.tuples(st.integers(1, 3), st.integers(1, 2)), max_size=2)),
                 min_size=1, max_size=3),
    ),
    max_size=3,
).map(_word_map)


@given(word_maps, word_maps, st.integers(-3, 3))
@settings(max_examples=80)
def test_u0_arithmetic_matches_the_definitional_oracle(wa, wb, k):
    def ours(words):
        return U0Element({w: parse_poly(ref.to_text(c)) for w, c in words.items()})

    def theirs(words):  # normal-ordered by adjacent swaps, in polyref
        return definitional._u0_mul({(): ref.const(1)}, words)

    def read(u):
        return {bars: ref.from_text(format_poly(c)) for bars, c in u.terms.items()}

    a, b, ra, rb = ours(wa), ours(wb), theirs(wa), theirs(wb)
    assert read(a) == ra
    assert read(a * b) == definitional._u0_mul(ra, rb)
    assert read(a + b) == definitional._u0_sum(ra, rb)
    assert read(a - b) == definitional._u0_sum(ra, definitional._u0_scale(rb, -1))
    assert read(a.scale(k)) == definitional._u0_scale(ra, k)


@given(u0_elements, u0_elements, u0_elements)
@settings(max_examples=60)
def test_u0_product_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(u0_elements, u0_elements)
@settings(max_examples=60)
def test_u0_product_respects_parity(a, b):
    def parities(u):
        return {len(bars) % 2 for bars in u.terms}

    if len(parities(a)) == 1 and len(parities(b)) == 1 and a * b:
        pa, pb = parities(a).pop(), parities(b).pop()
        assert parities(a * b) == {(pa + pb) % 2}


def test_named_elements_need_positive_indices():
    with pytest.raises(IndexOutOfRange, match="index 0 is below 1"):
        u0_h(0)
    with pytest.raises(IndexOutOfRange):
        u0_c(2, -1)


def test_raising_base_cases():
    d0 = DeltaFunction(1, (0,))
    assert raising_rec(1, 2, 0, d0, SignedSet.of(odds=[2])) == u0_h(1) - u0_h(2)
    assert raising_rec(1, 2, 0, d0, SignedSet.of(evens=[2])) == u0_b(1, 2)
    assert raising_rec(1, 2, 1, d0, SignedSet.of(odds=[2])) == u0_hbar(1) - u0_hbar(2)
    assert raising_rec(1, 2, 1, d0, SignedSet.of(evens=[2])) == U0Element()


def test_raising_closed_base_cases():
    d0 = DeltaFunction(1, (0,))
    assert raising_closed(1, 2, 0, d0, SignedSet.of(evens=[2])) == u0_b(1, 2)
    assert raising_closed(1, 2, 1, d0, SignedSet.of(evens=[2])) == U0Element()
    assert raising_closed(1, 2, 0, d0, SignedSet.of(odds=[2])) == u0_h(1) - u0_h(2)
    with pytest.raises(UnsupportedShape):
        raising_closed(1, 3, 0, DeltaFunction(1, (0, 0)), SignedSet.of(odds=[2, 3]))


def test_raising_rec_accepts_two_odd():
    # the recursion is total on admissible signed sets
    out = raising_rec(1, 3, 0, DeltaFunction(1, (0, 0)), SignedSet.of(odds=[2, 3]))
    assert isinstance(out, U0Element)


def test_raising_rejects_bad_input():
    with pytest.raises(BadSignedSet):
        raising_rec(1, 3, 0, DeltaFunction(1, (0, 0)), SignedSet.of(evens=[2]))
    with pytest.raises(BadSignedSet):
        raising_rec(1, 3, 0, DeltaFunction(1, (0, 0, 0)), SignedSet.of(evens=[3]))
    with pytest.raises(BadSignedSet):
        raising_rec(1, 3, 0, DeltaFunction(1, (0, 0)), SignedSet.of(evens=[3, 7]))
    n_set = SignedSet.of(evens=[3], odds=[2])
    lhs, rhs = two_term_sum_sides(1, 3, 2, 0, 0, DeltaFunction(1, (0, 1)), n_set)
    assert lhs == rhs
    for delta in (DeltaFunction(5, (0, 0)), DeltaFunction(2, (0, 0))):  # not on [1..2]
        for compute in (raising_rec, raising_closed):
            with pytest.raises(BadSignedSet, match=r"delta domain must be \[1..2\]"):
                compute(1, 3, 0, delta, SignedSet.of(evens=[3]))
    for args in (
        (1, 3, 2, 0, 0, DeltaFunction(0, (0, 0, 1)), n_set),  # delta on [0..2]
        (1, 3, 2, 0, 0, DeltaFunction(1, (0,)), n_set),  # delta on [1..1]
        (3, 3, 2, 0, 0, DeltaFunction(3, ()), n_set),  # m = j
        (1, 3, 2, 0, 0, DeltaFunction(1, (0, 1)), SignedSet.of(odds=[2])),  # 3 not in N
        (2, 3, 2, 0, 0, DeltaFunction(2, (0,)), n_set),  # 2 outside (2..3]
    ):
        with pytest.raises(BadSignedSet):
            two_term_sum_sides(*args)


@pytest.mark.parametrize("key, value", [
    ("i", 1.0), ("j", 2.0), ("eps", 0.5), ("eps", 1.0), ("eps", "1"), ("q", 2.0), ("xi", 0.5),
])
def test_raising_entry_points_take_integer_indices_and_flags(key, value):
    # an index or a Z/2 flag that is not an int is refused, not carried into H_i or read mod 2
    args = dict(i=1, j=2, eps=0, delta=DeltaFunction(1, (0,)), m=SignedSet.of(odds=[2]))
    for compute in (raising_rec, raising_closed) if key in args else ():
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            compute(**dict(args, **{key: value}))
    sides = dict(m_idx=1, j=3, q=2, eps=0, xi=0, delta=DeltaFunction(1, (0, 1)),
                 n_set=SignedSet.of(evens=[3], odds=[2]))
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        two_term_sum_sides(**dict(sides, **{"m_idx" if key == "i" else key: value}))


def _sweep(i, width):
    for w in range(1, width + 1):
        j = i + w
        univ = list(range(i + 1, j + 1))
        sets = []
        for r in range(len(univ)):
            for rest in combinations([t for t in univ if t != j], r):
                sets.append(SignedSet.of(evens=set(rest) | {j}))
        for q in univ:
            for r in range(len(univ)):
                for rest in combinations([t for t in univ if t != q], r):
                    if q == j or j in rest:
                        sets.append(SignedSet.of(evens=rest, odds=[q]))
        for m in sets:
            for eps in (0, 1):
                for dv in product((0, 1), repeat=w):
                    yield j, eps, DeltaFunction(i, dv), m


def _every_signed_set(i, j):
    """Every signed (i..j]-set holding j or j barred: each t in (i..j) is
    absent, unbarred or barred."""
    inner = range(i + 1, j)
    for roles in product("-eo", repeat=len(inner)):
        for last in "eo":
            chosen = list(zip(inner, roles)) + [(j, last)]
            yield SignedSet.of(evens=[t for t, r in chosen if r == "e"],
                               odds=[t for t, r in chosen if r == "o"])


# sha256 over the to_json() lines of raising_rec on every signed (i..j]-set
# holding j, every eps and every delta, widths 1-4 at i = 1 (2,072 calls, 936
# of them with two or more barred elements, which no closed form covers)
ALL_SIGNED_SETS_DIGEST = "f8814931506d25d9ee2ce1b0aa2ec13167765ac71c13e8452bdc058d6571b6d2"


def test_recursion_on_every_signed_set_is_pinned():
    lines, multi = [], 0
    for w in range(1, 5):
        for m in _every_signed_set(1, 1 + w):
            for eps, dv in product((0, 1), product((0, 1), repeat=w)):
                multi += len(m.odds) >= 2
                out = raising_rec(1, 1 + w, eps, DeltaFunction(1, dv), m)
                lines.append(json.dumps(out.to_json()))
    assert (len(lines), multi) == (2072, 936)
    digest = hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()
    assert digest == ALL_SIGNED_SETS_DIGEST


def test_recursion_matches_the_immutable_oracle():
    # from cold memos, every signed (i..j]-set at widths 1-4, offsets 1 and 3
    spinbranch.clear_caches()
    definitional.raising_rec.cache_clear()
    cases = 0
    for i in (1, 3):
        for w in range(1, 5):
            for m in _every_signed_set(i, i + w):
                for eps, dv in product((0, 1), product((0, 1), repeat=w)):
                    ours = raising_rec(i, i + w, eps, DeltaFunction(i, dv), m)
                    theirs = definitional.raising_rec(i, i + w, eps, dv, m.evens, m.odds)
                    ours = {bars: ref.from_text(format_poly(c)) for bars, c in ours.terms.items()}
                    assert ours == theirs, (i, w, eps, dv, m)
                    cases += 1
    assert cases == 2 * 2072


def test_recursion_memo_keys_on_plain_values(monkeypatch):
    # the memo never hashes a SignedSet or DeltaFunction, even from cold
    def refuse(self):
        raise AssertionError(f"hashed {type(self).__name__}")

    spinbranch.clear_caches()
    monkeypatch.setattr(SignedSet, "__hash__", refuse)
    monkeypatch.setattr(DeltaFunction, "__hash__", refuse)
    n_set = SignedSet.of(evens=[3, 4], odds=[2])
    for eps, dv in product((0, 1), product((0, 1), repeat=3)):
        delta = DeltaFunction(1, dv)
        for m in _every_signed_set(1, 4):
            assert isinstance(raising_rec(1, 4, eps, delta, m), U0Element)
            if len(m.odds) < 2:
                assert isinstance(raising_closed(1, 4, eps, delta, m), U0Element)
        lhs, rhs = two_term_sum_sides(1, 4, 2, eps, dv[0], delta, n_set)
        assert lhs == rhs


def test_oracle_equivalence_small():
    for j, eps, delta, m in _sweep(1, 2):
        assert raising_rec(1, j, eps, delta, m) == raising_closed(1, j, eps, delta, m)


def test_oracle_equivalence_shifted_base():
    for j, eps, delta, m in _sweep(3, 2):
        assert raising_rec(3, j, eps, delta, m) == raising_closed(3, j, eps, delta, m)


def test_eval_at_weight_examples():
    lam = Weight((16, 11), 5)
    assert not eval_at_weight(u0_c(1, 2), lam)
    lam2 = Weight((2, 1, 3), 5)
    assert eval_at_weight(u0_hbar(3), lam2) == u0_hbar(3)
    assert not eval_at_weight(u0_b(1, 2), Weight((2, 1), 5))
    with pytest.raises(CharacteristicZero):
        eval_at_weight(u0_h(1), Weight((3,), 0))


def test_eval_at_weight_rejects_every_index_outside_the_weight():
    # H_0 and H_-1 once reached Weight.entry and raised its IndexError
    lam = Weight((2, 1), 5)
    assert eval_at_weight(U0Element({(): Polynomial.var("H", 2)}), lam) == U0Element(
        {(): Polynomial.const(1)})
    for idx in (0, -1, 3):
        with pytest.raises(IndexOutOfRange, match=f"H_{idx} has no weight entry"):
            eval_at_weight(U0Element({(): Polynomial.var("H", idx)}), lam)


def test_format_u0():
    el = U0Element(
        {
            (2, 3): Polynomial.var("H", 1, 2) - Polynomial.var("H", 1),
            (): Polynomial.const(4),
        }
    )
    assert format_u0(el) == "4 + (H1^2 - H1)*Hb2*Hb3"
    assert format_u0(U0Element()) == "0"
    js = el.to_json()
    assert {"bars": [], "coeff": "4"} in js
