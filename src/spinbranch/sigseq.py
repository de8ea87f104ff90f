"""Marked signature sequences, their canonical reduction, sign maps r_beta,
and the flow / bud / section / resolution combinatorics.

A marked signature sequence is a tuple of (sign, mark) pairs with sign in
{+1, -1}.  Reduction erases adjacent (-, +) pairs, whatever the marks; the
canonical algorithm is a single left-to-right pass with a pending stack,
which agrees with any erasure order (tested, not assumed).

A sign map is a tuple of (index, value) pairs sorted by index, as `r_beta`
returns it or as a slice of a word; single or pair values are the mode, and
`product_of` is the one place its values become signs.  Every flow and
section is read off one left-to-right bud scan (`_bud_scan`) of the pairs
each builder takes.  The scan also answers each builder's precondition, so
the reduction runs only to word an error; it may start inside a word and
stop where its flow closes.  Every suffix shape is read off one
right-to-left scan (`suffix_shapes`): the gap shapes behind normal indices
and the split index; its forward twin (`last_free_plus`) gives the
crystal's cogood rows.  `r_words` alone turns entries into r_beta marks:
one pass per weight gives the sparse word of every residue, which a memo
(`_words`) keeps and the index layer reads; `r_beta` is a dense view.
"""
from __future__ import annotations

import operator
from functools import lru_cache

from .core import Record, Weight, _trusted, mod

Entry = tuple[int, int]  # (sign, mark), sign in {+1, -1}
Seq = tuple[Entry, ...]

PLUS, MINUS = 1, -1
_SIGN = {"+": PLUS, "-": MINUS}

# the two alphabets of a sign map's values
SINGLE_VALUES = ("", "-", "+")
PAIR_VALUES = ("", "--", "+-", "++")


class NotAllMinus(ValueError):
    pass


class PreconditionFailed(ValueError):
    pass


def reduce_seq(u: Seq) -> Seq:
    """The reduction [u]: erase adjacent -+ pairs until none remain.

    One pass, keeping a pending stack; on reading + with a pending -, both
    are dropped.  Surviving entries keep their order and marks, and the
    result has shape +^s -^r.
    """
    stack: list[Entry] = []
    for sign, mark in u:
        if sign == PLUS and stack and stack[-1][0] == MINUS:
            stack.pop()
        else:
            stack.append((sign, mark))
    return tuple(stack)


def reduce_random_order(u: Seq, rng) -> Seq:
    """Reduce by erasing randomly chosen adjacent -+ pairs (test oracle)."""
    work = list(u)
    while True:
        sites = [
            k
            for k in range(len(work) - 1)
            if work[k][0] == MINUS and work[k + 1][0] == PLUS
        ]
        if not sites:
            return tuple(work)
        k = rng.choice(sites)
        del work[k : k + 2]


def plus_count(u: Seq) -> int:
    return sum(1 for s, _ in u if s == PLUS)


def minus_count(u: Seq) -> int:
    return sum(1 for s, _ in u if s == MINUS)


def signs(u: Seq) -> str:
    return "".join("+" if s == PLUS else "-" for s, _ in u)


def seq_to_list(u: Seq) -> list:
    return [["+" if s == PLUS else "-", m] for s, m in u]


# -- sign maps ---------------------------------------------------------------


def product_of(pairs) -> Seq:
    """Concatenate the values of the (index, value) pairs in order, marking
    each entry with its index.  A character other than + or - is an error."""
    try:
        return tuple((_SIGN[ch], j) for j, v in pairs for ch in v)
    except KeyError as exc:
        raise ValueError(f"sign value character {exc.args[0]!r} is not + or -") from None


def reduced_product(pairs) -> Seq:
    return reduce_seq(product_of(pairs))


def suffix_shapes(values) -> tuple[tuple[int, int], ...]:
    """shapes[k] = (s, r): the reduced product of the (index, value) pairs
    after the k-th is +^s -^r, and shapes[0] covers them all.  One
    right-to-left scan: prepending to +^s -^r, a - cancels a leading + or
    raises r, and a + raises s."""
    s = r = 0
    shapes = [(0, 0)]
    for _, v in reversed(values):
        for ch in reversed(v):
            if ch == "+":
                s += 1
            elif s:
                s -= 1
            else:
                r += 1
        shapes.append((s, r))
    shapes.reverse()
    return tuple(shapes)


def last_free_plus(values) -> int | None:
    """The index of the last plus of the reduced product of the (index,
    value) pairs, or None: the last + that no earlier - cancels.  One
    left-to-right scan, the forward twin of `suffix_shapes`."""
    pending, last = 0, None
    for t, v in values:
        for ch in v:
            if ch == "-":
                pending += 1
            elif pending:
                pending -= 1
            else:
                last = t
    return last


def r_words(parts: tuple[int, ...], p: int) -> dict[int, list[tuple[int, str]]]:
    """`r_beta` of the weight with these entries at every beta, in sparse
    form: words[beta] lists its (index, value) pairs with a non-empty value,
    and a beta with none is absent.  One pass: entry x marks only the words
    of res(x), with - (-- at beta = 0), and of res(x + 1), with + (++ at
    beta = 0), or only the word at 0, with +-, when x = 0 mod p."""
    words: dict[int, list[tuple[int, str]]] = {}
    for t, x in enumerate(parts, 1):
        a, b = x * (x - 1), x * (x + 1)
        if p:
            a, b = a % p, b % p
        if a == b:
            words.setdefault(0, []).append((t, "+-"))
        else:
            words.setdefault(a, []).append((t, "-" if a else "--"))
            words.setdefault(b, []).append((t, "+" if b else "++"))
    return words


@lru_cache(maxsize=8)  # a few weights at a time; spinbranch.clear_caches() empties it
def _words(lam: Weight) -> tuple[dict[int, tuple], dict]:
    """`r_words` of lambda as tuples, one pass for all its betas, and the
    dict where `indices.reduce_residue` keeps the reduction of each word."""
    return {beta: tuple(word) for beta, word in r_words(lam.parts, lam.p).items()}, {}


def r_beta(lam: Weight, beta: int) -> tuple[tuple[int, str], ...]:
    """The sign map r_beta(lambda) as its dense pairs over [1..n]: the word
    of beta in lambda's `r_words`, the empty value elsewhere; pair values
    exactly at beta = 0.  beta is an integer, taken mod p; a float or a
    string is a TypeError."""
    beta = mod(operator.index(beta), lam.p)
    by_index = dict.fromkeys(range(1, lam.n + 1), "")
    by_index.update(_words(lam)[0].get(beta, ()))
    return tuple(by_index.items())


# -- flows -------------------------------------------------------------------


class Flow(Record):
    """A set of index pairs; validity/coherence is judged by flow_analyze."""

    edges: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self):
        object.__setattr__(
            self, "edges",
            frozenset((operator.index(a), operator.index(b)) for a, b in self.edges),
        )

    def sources(self) -> frozenset[int]:
        return frozenset(a for a, _ in self.edges)


class FlowReport(Record):
    is_weak_flow: bool
    is_flow: bool
    coherent: bool
    fully_coherent: bool
    buds: frozenset[int]


def flow_analyze(g: Flow, pairs) -> FlowReport:
    """The flow, coherence and bud conditions of g against the map of the
    (index, value) pairs, by set algebra: an edge end outside them fails
    every condition."""
    edges = g.edges
    srcs, tgts = {a for a, _ in edges}, {b for _, b in edges}
    minus = {t for t, v in pairs if "-" in v}
    plus = {t for t, v in pairs if "+" in v}
    weak = (len(srcs) == len(edges) == len(tgts) and srcs | tgts <= {t for t, _ in pairs}
            and all(a <= b for a, b in edges))
    strict = weak and all(a < b for a, b in edges)
    coherent = srcs <= minus and tgts <= plus
    return _trusted(FlowReport, is_weak_flow=weak, is_flow=strict, coherent=coherent,
                    fully_coherent=coherent and plus <= tgts, buds=frozenset(minus - srcs))


def build_full_flow(pairs) -> Flow:
    """A flow fully coherent with the pairs, given [prod] = -^m: the edges
    of the bud scan, which then finds no section index and never stops.
    Bud count m (single values) or m/2 (pair values)."""
    sec, edges, stop = _bud_scan(pairs)
    if sec or stop is not None:
        raise NotAllMinus(f"[prod u] = {signs(reduced_product(pairs))} contains a +")
    return _trusted(Flow, edges=frozenset(edges))


def split_index(pairs) -> int:
    """The index a with u_a = --, [prod over (a..)] in {empty, +-} and
    [prod over (-inf..a]] = -^m, for [prod u] = -^m with m > 0: the last --
    index whose suffix shape has at most one plus (single values have none)."""
    shapes = suffix_shapes(pairs)
    s, r = shapes[0]
    if s or not r:
        raise PreconditionFailed(f"[prod u] = {'+' * s + '-' * r} is not -^m with m > 0")
    for (e, v), (s, _) in zip(reversed(pairs), reversed(shapes[1:])):
        if v == "--" and s <= 1:
            return e
    raise PreconditionFailed("no unmatched -- index")


def _bud_scan(pairs, k=0, lead=False) -> tuple[tuple[int, ...], list[tuple[int, int]], int | None]:
    """(section, edges, stop) of one left-to-right scan of the (index, value)
    pairs from position k on; with lead, the scan also ends at its first
    section index.

    A + joins the latest open bud (an edge); a + with no bud open is a
    section index at a +- value, whose - opens nothing, and elsewhere ends
    the scan (stop).  A - opens a bud.  So the edges are fully coherent
    flows on the stretches between section indices.  [prod of the pairs] is
    -^m iff the scan finds no section index and no stop, +-^m iff it finds
    a section index but no stop, and has at least 1 (single values) or 2
    (pair values) pluses iff it stops, at the first index whose prefix has
    them."""
    sec, edges, buds = [], [], []  # buds increase, so the latest bud is on top
    for k in range(k, len(pairs)):
        e, v = pairs[k]
        if "+" in v:
            if buds:
                edges.append((buds.pop(), e))
            elif v == "+-":
                sec.append(e)
                if lead:
                    break
                continue
            else:
                return tuple(sec), edges, e
        if "-" in v:
            buds.append(e)
    return tuple(sec), edges, None


def lead_plus_index(pairs) -> int:
    """The index a with u_a = +- and empty reduction before it, for
    [prod u] = +-^m: the first index of the section."""
    return section_of(pairs)[0]


def section_of(pairs) -> tuple[int, ...]:
    """A section a_1 < ... < a_h of the pairs ([prod] = +-^m): every
    u_{a_k} = +-, the gaps between them reduce to empty, and the tail
    after a_h reduces to -^(m-1).  These are the section indices of the
    bud scan."""
    return _section_scan(pairs)[0]


def _section_scan(pairs) -> tuple[tuple[int, ...], list[tuple[int, int]]]:
    """The bud scan's section and edges, given [prod] = +-^m (only pair
    values have a +-)."""
    sec, edges, stop = _bud_scan(pairs)
    if not sec or stop is not None:
        raise PreconditionFailed(f"[prod u] = {signs(reduced_product(pairs))} is not +-^m")
    return sec, edges


def resolution_of(pairs) -> Flow:
    """The weak flow built from a section: loops at the section indices plus
    fully coherent flows on the complementary stretches."""
    sec, edges = _section_scan(pairs)
    return _trusted(Flow, edges=frozenset(edges + [(a, a) for a in sec]))


def partial_flow(pairs, k: int = 0) -> tuple[int, Flow]:
    """The end index j of a beginning J of the pairs from position k on with
    [prod over J] = + (single values) or ++ (pair values), and a flow on J
    coherent but not fully coherent with the map there, having no buds.

    J ends where the bud scan stops, so the scan reads nothing after J, and
    J is every index of the pairs from position k up to j.  The section
    before j (empty if the indices before it reduce with no +) is chained
    to j, and the stretches between carry the scan's fully coherent flows."""
    sec, edges, stop = _bud_scan(pairs, k)
    if stop is None:
        raise PreconditionFailed(f"[prod u] = {signs(reduced_product(pairs[k:]))}: "
                                 "no beginning reduces to + or ++")
    chain = sec + (stop,)
    return stop, _trusted(Flow, edges=frozenset(edges + list(zip(chain, chain[1:]))))
