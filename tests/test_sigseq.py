import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import definitional
from spinbranch import indices
from spinbranch.core import Weight
from spinbranch.sigseq import (
    MINUS,
    PAIR_VALUES,
    PLUS,
    SINGLE_VALUES,
    Flow,
    NotAllMinus,
    PreconditionFailed,
    build_full_flow,
    flow_analyze,
    last_free_plus,
    lead_plus_index,
    minus_count,
    partial_flow,
    plus_count,
    product_of,
    r_beta,
    r_words,
    reduce_random_order,
    reduce_seq,
    reduced_product,
    resolution_of,
    section_of,
    seq_to_list,
    signs,
    split_index,
    suffix_shapes,
)

M, P = MINUS, PLUS


def mk(text: str):
    """'-+-' -> marked sequence with positional marks."""
    return tuple((P if ch == "+" else M, k + 1) for k, ch in enumerate(text))


def test_reduce_examples():
    assert reduce_seq(mk("-+")) == ()
    # survivors keep their original marks and order
    assert reduce_seq(mk("---++--")) == ((M, 1), (M, 6), (M, 7))
    assert reduce_seq(mk("+-")) == mk("+-")


def test_product_of_examples():
    u = ((1, "--"), (2, "+-"))
    assert product_of(u) == ((M, 1), (M, 1), (P, 2), (M, 2))
    assert product_of(u[1:]) == ((P, 2), (M, 2))
    assert product_of(((1, ""), (2, "+"))) == ((P, 2),)


def test_product_of_rejects_a_character_other_than_a_sign():
    # the values become signs only here; "x" was once read as a minus
    for pairs, bad in ((((1, "-"), (2, "+x")), "x"), (((3, "*"),), "*")):
        for build in (product_of, reduced_product):
            with pytest.raises(ValueError, match=re.escape(f"character {bad!r} is not")):
                build(pairs)


def test_r_beta_examples():
    lam = Weight((16, 11, 10, 10, 9, 5, 1, 0), 5)
    u = r_beta(lam, 0)
    assert [i for i, _ in u] == list(range(1, 9))
    assert [v for _, v in u] == ["--", "--", "+-", "+-", "++", "+-", "--", "+-"]
    assert r_beta(Weight((2, 1), 5), 2) == ((1, "-"), (2, "+"))
    assert r_beta(Weight((3,), 5), 1) == ((1, "-"),)
    assert r_beta(Weight((3, 0), 5), 2) == ((1, "+"), (2, ""))


def test_minus_w0_examples():
    assert definitional.minus_w0_seq(((M, 1), (M, 2)), 2) == ((P, 1), (P, 2))
    assert definitional.minus_w0_seq((), 2) == ()
    assert definitional.minus_w0_seq(((M, 1), (P, 2)), 2) == ((M, 1), (P, 2))
    with pytest.raises(definitional.MarkOutOfRange):
        definitional.minus_w0_seq(((M, 3),), 2)


def test_flow_analyze_examples():
    u = ((1, "-"), (2, "+"))
    rep = flow_analyze(Flow(frozenset({(1, 2)})), u)
    assert rep.is_flow and rep.coherent and rep.fully_coherent and not rep.buds

    rep2 = flow_analyze(Flow(frozenset({(1, 1)})), ((1, "+-"),))
    assert rep2.is_weak_flow and not rep2.is_flow

    rep3 = flow_analyze(Flow(frozenset()), ((1, "-"),))
    assert rep3.is_flow and rep3.coherent and rep3.fully_coherent
    assert rep3.buds == frozenset({1})

    # an edge outside the domain makes a report that fails every flow test
    rep4 = flow_analyze(Flow(frozenset({(1, 2)})), ((2, "+"), (3, "-")))
    assert not any(test(rep4) for test in indices._TESTS.values())


def test_build_full_flow_examples():
    assert build_full_flow(((1, "-"), (2, "+"))).edges == frozenset({(1, 2)})

    v = ((1, "--"),)
    g = build_full_flow(v)
    assert g.edges == frozenset()
    assert flow_analyze(g, v).buds == frozenset({1})

    w = ((1, "--"), (2, "++"))
    g2 = build_full_flow(w)
    assert g2.edges == frozenset({(1, 2)})
    assert not flow_analyze(g2, w).buds

    with pytest.raises(NotAllMinus):
        build_full_flow(((1, "+"),))


def test_split_index_examples():
    assert split_index(((1, "--"),)) == 1
    assert split_index(((1, "--"), (2, "+-"))) == 1
    with pytest.raises(PreconditionFailed):
        split_index(((1, "+-"), (2, "--")))
    # single values have no --: the scan finds no split, whatever the mode
    with pytest.raises(PreconditionFailed, match="no unmatched -- index"):
        split_index(((1, "-"), (2, "-")))


def test_lead_plus_examples():
    assert lead_plus_index(((1, "+-"),)) == 1
    assert lead_plus_index(((1, "--"), (2, "++"), (3, "+-"))) == 3
    assert lead_plus_index(((1, "+-"), (2, "--"))) == 1


def test_section_examples():
    assert section_of(((1, "+-"),)) == (1,)
    assert section_of(((1, "+-"), (2, "+-"))) == (1, 2)
    assert section_of(((1, "--"), (2, "++"), (3, "+-"))) == (3,)


def test_resolution_examples():
    assert resolution_of(((1, "+-"),)).edges == frozenset({(1, 1)})
    assert resolution_of(((1, "--"), (2, "++"), (3, "+-"))).edges == frozenset({(1, 2), (3, 3)})
    assert resolution_of(((1, "+-"), (2, "--"), (3, "++"))).edges == frozenset({(1, 1), (2, 3)})


def test_partial_flow_examples():
    j, g = partial_flow(((1, "+"),))
    assert j == 1 and g.edges == frozenset()
    j2, g2 = partial_flow(((1, "++"),))
    assert j2 == 1 and g2.edges == frozenset()
    u = ((1, "--"), (2, "++"), (3, "++"), (4, "--"))
    j3, g3 = partial_flow(u)
    assert j3 == 3
    rep = flow_analyze(g3, u[:3])
    assert rep.is_flow and rep.coherent and not rep.fully_coherent and not rep.buds
    # from position k on: the ++ at 3 ends J = {3} alone
    assert partial_flow(u, 2) == (3, Flow())
    with pytest.raises(PreconditionFailed):
        partial_flow(((1, "-"),))
    with pytest.raises(PreconditionFailed):
        partial_flow(((1, "+-"), (2, "--")))  # one plus: a section, no J


marked = st.lists(
    st.tuples(st.sampled_from([P, M]), st.integers(0, 9)), max_size=18
).map(tuple)


@given(marked)
def test_reduce_idempotent_and_shape(u):
    red = reduce_seq(u)
    assert reduce_seq(red) == red
    s, r = plus_count(red), minus_count(red)
    assert signs(red) == "+" * s + "-" * r
    assert s - r == plus_count(u) - minus_count(u)


@given(marked, marked)
def test_reduce_is_a_congruence(u, v):
    assert reduce_seq(u + v) == reduce_seq(reduce_seq(u) + v)
    assert reduce_seq(u + v) == reduce_seq(u + reduce_seq(v))


@given(marked, st.integers(0, 2**32))
@settings(max_examples=60)
def test_reduce_order_independent(u, seed):
    rng = random.Random(seed)
    assert reduce_random_order(u, rng) == reduce_seq(u)


@given(
    st.dictionaries(st.integers(1, 8), st.sampled_from(["", "--", "+-", "++"]), max_size=8)
)
def test_pair_mode_parity(values):
    red = reduced_product(tuple(sorted(values.items())))
    assert (plus_count(red) - minus_count(red)) % 2 == 0


@given(marked.filter(lambda u: all(1 <= m <= 9 for _, m in u)))
def test_minus_w0_commutes_with_reduction(u):
    n, w0 = 9, definitional.minus_w0_seq
    assert reduce_seq(w0(u, n)) == w0(reduce_seq(u), n)


def test_json_round_trips():
    assert seq_to_list(((M, 1), (P, 2))) == [["-", 1], ["+", 2]]


def _random_map(rng: random.Random, mode: str) -> tuple:
    """The sorted pairs of a random sign map on a random, possibly gapped,
    domain of size <= 12."""
    alphabet = SINGLE_VALUES if mode == "single" else PAIR_VALUES
    size = rng.randint(0, 12)
    domain = sorted(rng.sample(range(1, 30), size))
    return tuple((i, rng.choice(alphabet)) for i in domain)


def test_scans_match_recursive_oracles():
    # each builder matches its oracle where its precondition holds, and
    # raises its precondition error exactly where the reduction says it fails
    rng = random.Random(515)
    seen = {"full": 0, "lead": 0, "partial-single": 0, "partial-pair": 0}
    for _ in range(6000):
        mode = rng.choice(("single", "pair"))
        u = _random_map(rng, mode)
        s = plus_count(reduced_product(u))
        plus_led = mode == "pair" and s == 1
        builders = (
            (build_full_flow, s == 0, NotAllMinus, "full"),
            (lead_plus_index, plus_led, PreconditionFailed, "lead"),
            (section_of, plus_led, PreconditionFailed, None),
            (resolution_of, plus_led, PreconditionFailed, None),
            (partial_flow, s >= (1 if mode == "single" else 2), PreconditionFailed,
             "partial-" + mode),
        )
        for build, holds, error, key in builders:
            if not holds:
                with pytest.raises(error):
                    build(u)
                continue
            assert build(u) == getattr(definitional, build.__name__)(u)
            if key:
                seen[key] += 1
    assert min(seen.values()) >= 300, seen


def test_section_scan_on_long_plus_led_maps():
    # every value +- : each index is a section index; the scan must not
    # recurse, so a domain past the recursion limit is fine
    u = tuple((i, "+-") for i in range(1, 3001))
    assert section_of(u) == tuple(range(1, 3001))
    assert lead_plus_index(u) == 1
    assert resolution_of(u).edges == {(i, i) for i in range(1, 3001)}
    v = tuple((i, "--" if i % 2 else "++") for i in range(1, 3001))
    assert build_full_flow(v).edges == {(i, i + 1) for i in range(1, 3001, 2)}
    # the section 1..2999 is chained to the ++ at 3000, which ends J
    w = tuple((i, "+-") for i in range(1, 3000)) + ((3000, "++"), (3001, "--"))
    j, g = partial_flow(w)
    assert j == 3000 and g.edges == {(i, i + 1) for i in range(1, 3000)}


def _all_maps(mode: str, max_size: int):
    """The pairs of every sign map of the mode on 1..d, for 1 <= d <= max_size."""
    alphabet = SINGLE_VALUES if mode == "single" else PAIR_VALUES
    for d in range(1, max_size + 1):
        for vals in itertools.product(alphabet, repeat=d):
            yield tuple(enumerate(vals, 1))


def test_suffix_shapes_match_the_reduction_of_every_suffix():
    for mode in ("single", "pair"):
        for u in _all_maps(mode, 6):
            shapes = suffix_shapes(u)
            assert len(shapes) == len(u) + 1
            for k, shape in enumerate(shapes):
                red = reduced_product(u[k:])
                assert shape == (plus_count(red), minus_count(red)), (u, k)


def test_last_free_plus_is_the_mark_of_the_last_plus_of_the_reduction():
    for mode in ("single", "pair"):
        for u in _all_maps(mode, 6):
            pluses = [m for s, m in reduced_product(u) if s == PLUS]
            assert last_free_plus(u) == (pluses[-1] if pluses else None), u


def test_r_words_are_r_beta_in_sparse_form():
    # every beta's word is the non-empty part of the per-entry r_beta of
    # the oracle, and the library's r_beta is that map, on random weights
    # with negative entries; at p = 0 the betas are every residue an entry
    # or an entry plus one has, and three that none has (residues are
    # products x(x - 1), so 1 and 3 never occur, and 992 = 32 * 31 only
    # beyond these entries)
    rng = random.Random(4242)
    for _ in range(3000):
        p = rng.choice((0, 3, 5, 7, 11))
        w = Weight(tuple(rng.randint(-12, 30) for _ in range(rng.randint(1, 9))), p)
        words = r_words(w.parts, p)
        betas = range(p) if p else {x * (x + d) for x in w.parts for d in (-1, 1)} | {1, 3, 992}
        assert set(words) <= set(betas)
        for beta in betas:
            expected = definitional.r_beta(w, beta)
            sparse = [(i, v) for i, v in expected if v]
            assert words.get(beta, []) == sparse, (w, beta)
            assert r_beta(w, beta) == expected, (w, beta)


def test_split_index_scan_matches_recursive_oracle():
    # exhaustively on every pair map on 1..d, d <= 7, then on random gapped
    # domains; where the precondition fails, the error words the reduction
    for u in _all_maps("pair", 7):
        red = reduced_product(u)
        if not red or plus_count(red):
            text = f"[prod u] = {signs(red)} is not -^m with m > 0"
            with pytest.raises(PreconditionFailed, match=re.escape(text)):
                split_index(u)
        else:
            assert split_index(u) == definitional.split_index(u), u
    rng = random.Random(2718)
    seen = 0
    for _ in range(6000):
        u = _random_map(rng, "pair")
        red = reduced_product(u)
        if not red or plus_count(red):
            with pytest.raises(PreconditionFailed):
                split_index(u)
            continue
        assert split_index(u) == definitional.split_index(u)
        seen += 1
    assert seen >= 300, seen


def test_split_index_on_a_long_map():
    # a recursion per domain index would pass the recursion limit here
    u = ((1, "--"),) + tuple((i, "") for i in range(2, 1500))
    assert split_index(u) == 1
    v = tuple((i, "--" if i <= 750 else "++") for i in range(1, 1501))
    with pytest.raises(PreconditionFailed):
        split_index(v)  # the product reduces to the empty word
    # for 2 <= a <= 751 the suffix after the -- at a reduces to +^(2a - 4),
    # so 2 is the last -- whose suffix has at most one plus
    w = tuple((i, "--" if i <= 751 else "++") for i in range(1, 1501))
    assert split_index(w) == 2
