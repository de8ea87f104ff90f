"""Classification of weight indices (normal, good, and their tensor and
dual variants), certificates of non-normality, and the combinatorial
planners behind primitive-vector constructions and extensions.

Everything here is driven by reductions of the sign maps r_beta(lambda),
read only as the sparse words of `sigseq._words`, (index, value) pairs like
every sign map, and multiplied out by `sigseq.product_of`: an index is tensor
normal when its minus survives the full reduction, and normal (for i < n)
when it survives the reduction over [1..n) and the boundary exception does
not apply.  Every query reaches its reduction through `reduce_residue`,
which reduces the word once per (lambda, beta mod p) and keeps it beside
the weight's words, and `sigseq.suffix_shapes` gives the shape of the gap
(i..n) at every index of the word.  Every flag, certificate and plan is
read off that one result; a classification builds only the residues its
entries touch, the keys of the words.  The builders hand the public `sigseq`
scans bare slices of the word, and a certificate scans it from i + 1 and
stops where its flow closes, in O(j - i), not O(n - i).

The re-checks share none of that but the words: each certificate case a-d
and each construction T6.1.3-T6.6.2 is stated once, as a row of
`_statement`, and one checker, `_meets`, holds every certificate and plan
step to its row with a slice of its own.  `_meets` checks 1 <= i < n once
and derives beta as the residue of i; no row reads beta from the payload.
"""
from __future__ import annotations

import json
import operator
from bisect import bisect_left
from dataclasses import dataclass
from types import MappingProxyType

from .core import SignedSet, Weight, _trusted, congruent, mod, res_p, seg_oc, seg_oo
from .sigseq import (
    MINUS,
    PLUS,
    Flow,
    PreconditionFailed,
    Seq,
    build_full_flow,
    flow_analyze,
    partial_flow,
    product_of,
    reduce_seq,
    resolution_of,
    split_index,
    suffix_shapes,
    _bud_scan,
    _words,
)


class IsNormal(ValueError):
    pass


class NotNormal(ValueError):
    pass


class UnreachableCase(AssertionError):
    """Raised when a case dispatch falls through; signals an implementation bug."""


@dataclass(frozen=True)
class IndexClassification:
    index: int
    residue: int
    tensor_normal: bool
    normal: bool
    tensor_conormal: bool
    good: bool
    tensor_good: bool
    tensor_cogood: bool


@dataclass(frozen=True)
class ResidueReduction:
    """The reduction of r_beta(lambda) and the indices read off it.  A minus
    of r_beta sits at an index of residue beta and a plus at one whose entry
    + 1 has residue beta, so each set lies in one class.  Normal indices
    are those whose minus survives over [1..n), less the boundary exception
    (empty reduction strictly after i while lambda_i and lambda_n are both
    divisible by p).  Good is the first normal index, tensor good the first
    tensor normal index and tensor cogood the last tensor conormal index
    (None if absent).  gaps[i] = (s, r) says the reduction over (i..n) is
    +^s -^r, for every index i < n of beta's word, and at[t] is the position
    of index t in the word; both are read-only."""

    beta: int
    reduced: Seq
    tensor_normal: frozenset[int]
    tensor_conormal: frozenset[int]
    normal: frozenset[int]
    good: int | None
    tensor_good: int | None
    tensor_cogood: int | None
    gaps: MappingProxyType[int, tuple[int, int]]
    word: tuple[tuple[int, str], ...]
    at: MappingProxyType[int, int]


def reduce_residue(lam: Weight, beta: int) -> ResidueReduction:
    """r_beta(lambda) reduced over [1..n], [1..n) and every (i..n), beta an
    integer taken mod p: the one source of a reduction for every query.
    The reduction of each beta with a word is made once and kept beside
    lambda's words (`sigseq._words`); one with no word is empty, and kept
    nowhere, so a weight keeps at most 2n."""
    beta = mod(operator.index(beta), lam.p)
    words, reductions = _words(lam)
    red = reductions.get(beta)
    if red is None:
        red = _reduce(lam, beta, words.get(beta, ()))
        if beta in words:
            reductions[beta] = red
    return red


def _zero_boundary(lam: Weight, i: int) -> bool:
    """The entry test of the boundary exception: lambda_i and lambda_n are
    both divisible by p."""
    return congruent(lam.parts[i - 1], 0, lam.p) and congruent(lam.parts[-1], 0, lam.p)


def _reduce(lam: Weight, beta: int, word: tuple) -> ResidueReduction:
    """Reduce beta's word once, and read the shapes over [i..n) and (i..n)
    at every index i < n of the word off one right-to-left scan: i is normal
    when the first has more minuses (a minus of u_i survives over [1..n)),
    unless the boundary exception, read off the empty shapes, applies."""
    at = {t: k for k, (t, _) in enumerate(word)}
    head = word[:at.get(lam.n, len(word))]
    shapes = suffix_shapes(head)
    gaps, normal = {}, []  # normal, minus and plus come in index order
    for (t, _), before, after in zip(head, shapes, shapes[1:]):
        gaps[t] = after
        if before[1] > after[1] and not (after == (0, 0) and _zero_boundary(lam, t)):
            normal.append(t)
    reduced = reduce_seq(product_of(word))
    minus = [m for s, m in reduced if s == MINUS]
    plus = [m for s, m in reduced if s == PLUS]
    return _trusted(ResidueReduction, beta=beta, reduced=reduced, tensor_normal=frozenset(minus),
                    tensor_conormal=frozenset(plus), normal=frozenset(normal),
                    good=normal[0] if normal else None, tensor_good=minus[0] if minus else None,
                    tensor_cogood=plus[-1] if plus else None, gaps=MappingProxyType(gaps),
                    word=word, at=MappingProxyType(at))


def _slice(word: tuple, dom: range) -> tuple:
    """The word over the range dom as a bare slice, found by bisection."""
    return word[bisect_left(word, (dom.start,)):bisect_left(word, (dom.stop,))]


def residue_reductions(lam: Weight) -> dict[int, ResidueReduction]:
    """One reduction per residue: every beta in 0..p-1, or for p = 0 every
    residue of an entry or of an entry plus one (the betas of its `r_words`)."""
    betas = range(lam.p) or sorted(_words(lam)[0])  # range(0) is empty
    return {beta: reduce_residue(lam, beta) for beta in betas}


def _classify(i: int, own: ResidueReduction, up: ResidueReduction) -> IndexClassification:
    """Index i's flags from the reductions at its residue (own) and at the
    residue of its entry + 1 (up)."""
    return _trusted(IndexClassification, index=i, residue=own.beta,
                    tensor_normal=i in own.tensor_normal, normal=i in own.normal,
                    tensor_conormal=i in up.tensor_conormal, good=i == own.good,
                    tensor_good=i == own.tensor_good, tensor_cogood=i == up.tensor_cogood)


def classify_indices(lam: Weight) -> tuple[IndexClassification, ...]:
    """The classification of every index, read off one reduction per beta
    of lambda's `r_words`, the residues its entries touch: index i reads
    those at res_p(x) and res_p(x + 1) of its entry x, and no other."""
    reductions = {beta: reduce_residue(lam, beta) for beta in _words(lam)[0]}
    p = lam.p
    return tuple(
        _classify(i, reductions[res_p(x, p)], reductions[res_p(x + 1, p)])
        for i, x in enumerate(lam.parts, start=1)
    )


def _own(lam: Weight, i: int) -> tuple[int, ResidueReduction]:
    """Index i as an int, for 1 <= i < n, and the reduction at its residue."""
    i = operator.index(i)
    if not 1 <= i < lam.n:
        raise ValueError(f"need 1 <= i < n, got i={i}, n={lam.n}")
    return i, reduce_residue(lam, lam.residue(i))


def index_report(lam: Weight) -> dict[int, list[IndexClassification]]:
    """Classification of every index, grouped by residue class."""
    groups: dict[int, list[IndexClassification]] = {}
    for cls in classify_indices(lam):
        groups.setdefault(cls.residue, []).append(cls)
    return groups


# -- certificates of non-normality ---------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """Combinatorial witness that an index is not normal.

    Cases a/b carry a coherent-but-not-fully-coherent flow on (i..j] with
    no buds; cases c/d carry a fully coherent flow on (i..j) with no buds.
    The scalar c is the product of (beta - residue) over the recorded range
    minus the sources, and is nonzero.
    """

    case_tag: str
    index: int
    j: int
    flow: Flow
    m_set: SignedSet
    c: int

    @property
    def sources(self) -> frozenset[int]:
        return self.flow.sources()

    def to_dict(self) -> dict:
        return {
            "case": self.case_tag,
            "i": self.index,
            "j": self.j,
            "flow": _jsonable(self.flow),
            "M": _jsonable(self.m_set),
            "sources": _jsonable(self.sources),
            "c": self.c,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def non_normal_certificate(lam: Weight, i: int) -> Certificate:
    """Build the witness for a non-normal index.

    Cases: (a) nonzero residue with a surviving plus after i; (b) zero
    residue with two surviving pluses; (c) entry divisible by p with exactly
    one surviving plus; (d) empty reduction after i with both boundary
    entries divisible by p.
    """
    i, own = _own(lam, i)
    if i in own.normal:
        raise IsNormal(f"index {i} is normal for {lam.parts}")
    n, p, beta = lam.n, lam.p, own.beta
    pluses = own.gaps[i][0]
    start = own.at[i] + 1  # the scans read the word from i + 1 up to j

    if pluses >= (2 if beta == 0 else 1):
        tag = "b" if beta == 0 else "a"
        j, flow = partial_flow(own.word, start)
        m_set = _leftovers(seg_oc(i, j), flow, odds=[j + 1])
    else:
        if beta == 0 and pluses == 1 and congruent(lam.entry(i), 0, p):
            # [prod over (i..n)] is +-^m: j is the first section index, and
            # the edges the scan made before it are the full flow on (i..j)
            sec, edges, _ = _bud_scan(own.word, start, lead=True)
            tag, j, flow = "c", sec[0], _trusted(Flow, edges=frozenset(edges))
        elif own.gaps[i] == (0, 0) and _zero_boundary(lam, i):
            tag, j, flow = "d", n, build_full_flow(own.word[start:own.at.get(n, len(own.word))])
        else:
            raise UnreachableCase(f"no certificate case matched for {lam.parts}, i={i}")
        m_set = _leftovers(seg_oo(i, j), flow, odds=[j])
    return _trusted(Certificate, case_tag=tag, index=i, j=j, flow=flow, m_set=m_set,
                    c=_residue_product(lam, beta, m_set.evens))


def _leftovers(dom, flow: Flow, odds=()) -> SignedSet:
    """The set M of a certificate or a construction step: the indices of
    dom that are not sources of the flow, unbarred, plus the barred odds."""
    srcs = flow.sources()
    return _trusted(SignedSet, evens=frozenset(t for t in dom if t not in srcs),
                    odds=frozenset(odds))


def _residue_product(lam: Weight, beta: int, ts) -> int:
    p = lam.p
    out = 1
    for t in ts:
        out *= beta - res_p(lam.entry(t), p)
    return mod(out, p)


# -- construction planners -------------------------------------------------------


@dataclass(frozen=True)
class PlanStep:
    theorem: str
    data: dict


def _jsonable(value):
    if isinstance(value, Flow):
        return sorted([a, b] for a, b in value.edges)
    if isinstance(value, SignedSet):
        return {"even": sorted(value.evens), "odd": sorted(value.odds)}
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (frozenset, set)):
        return [_jsonable(v) for v in sorted(value)]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


@dataclass(frozen=True)
class ConstructionPlan:
    steps: tuple[PlanStep, ...]

    def to_json(self) -> str:
        return json.dumps({"steps": [_jsonable({"theorem": s.theorem, "data": s.data})
                                     for s in self.steps]})


def _base_step(lam: Weight, own: ResidueReduction, i: int) -> PlanStep:
    """Dispatch between the two base constructions at index i (producing a
    primitive vector of weight lambda - alpha(i, n)), given the reduction
    `own` of r_beta(lambda), read strictly between i and n."""
    n = lam.n
    pluses, minuses = own.gaps[i]
    if pluses:
        raise UnreachableCase("base step with a surviving plus in the gap")
    # minuses survive: the closed-range construction on (i..n]
    closed = bool(minuses)
    if not closed and _zero_boundary(lam, i):
        raise UnreachableCase("base step at a non-normal index")
    dom = seg_oc(i, n) if closed else seg_oo(i, n)
    flow = build_full_flow(_slice(own.word, dom))
    m_set = _leftovers(dom, flow, odds=[] if closed else [n])
    return PlanStep("T6.1.3" if closed else "T6.2.3",
                    {"i": i, "beta": lam.residue(i), "flow": flow, "M": m_set})


def _resolution_step(lam: Weight, zero: ResidueReduction, i: int) -> PlanStep:
    """The one-odd construction driven by a resolution of r_0 on (i..n]."""
    dom = seg_oc(i, lam.n)
    delta = resolution_of(_slice(zero.word, dom))
    q = max(a for a, b in delta.edges if a == b)
    m_set = _leftovers(dom, delta, odds=[q])
    return PlanStep(
        "T6.3.3", {"i": i, "beta": 0, "resolution": delta, "q": q, "M": m_set}
    )


def _extension_flow_step(own: ResidueReduction, theorem: str, h: int, i: int) -> PlanStep:
    """Payload for the two flow-based extension steps from i down to h."""
    flow = build_full_flow(_slice(own.word, seg_oc(h, i)))
    if theorem == "T6.4.2":
        m_set = _leftovers(seg_oo(h, i), flow, odds=[i])
    else:  # T6.5.2
        m_set = _leftovers(seg_oc(h, i), flow)
    return PlanStep(theorem, {"h": h, "i": i, "beta": own.beta, "flow": flow, "M": m_set})


def _joined_extension_step(zero: ResidueReduction, h: int, i: int) -> PlanStep:
    """Payload for the section-joining extension step (plus-led or empty
    reduction of r_0 over (h..i)): the section of (h..i), empty when that
    reduction is, chained from h to i, with fully coherent flows on the
    stretches between."""
    inner = seg_oo(h, i)
    sec, pieces, _ = _bud_scan(_slice(zero.word, inner))  # +-^m or empty: no stop
    chain = (h,) + sec + (i,)
    gamma = _trusted(Flow, edges=frozenset(pieces + list(zip(chain, chain[1:]))))
    delta = _trusted(Flow, edges=frozenset(pieces + [(a, a) for a in sec + (i,)]))
    m_set = _leftovers(inner, gamma)  # h, a source of gamma, lies outside inner
    return PlanStep(
        "T6.6.2",
        {"h": h, "i": i, "beta": 0, "flow": gamma, "weak_flow": delta, "M": m_set},
    )


def primitive_plan(lam: Weight, i: int) -> ConstructionPlan:
    """Steps producing a primitive vector of weight lambda - alpha(i, n)
    for a normal index i, following the four-way case split on the
    reduction strictly between i and n.  Every step reads the word at the
    residue of i (zero on the plus-led branches)."""
    i, own = _own(lam, i)
    if i not in own.normal:
        raise NotNormal(f"index {i} is not normal for {lam.parts}")
    n, p = lam.n, lam.p
    if own.gaps[i][0] == 0:
        return ConstructionPlan((_base_step(lam, own, i),))
    # plus-led gap: only possible at residue zero with entry = 1 mod p
    if not congruent(lam.entry(i), 1, p):
        raise UnreachableCase("plus-led gap at a normal index needs entry = 1 mod p")
    if not congruent(lam.entry(n), -1, p):
        return ConstructionPlan((_resolution_step(lam, own, i),))
    a = _bud_scan(_slice(own.word, seg_oo(i, n)))[0][-1]
    base = _base_step(lam, own, a)
    return ConstructionPlan((base, _joined_extension_step(own, i, a)))


def extension_plan(lam: Weight, h: int, i: int) -> ConstructionPlan:
    """Steps extending a primitive vector of weight lambda - alpha(i, n) to
    one of weight lambda - alpha(h, n), for a normal h < i of equal residue.
    Every step reads the word at that residue (zero whenever
    entry(i)(entry(i) - 1) = 0 mod p)."""
    n, h, i = lam.n, operator.index(h), operator.index(i)
    if not (1 <= h < i < n):
        raise PreconditionFailed(f"need h < i < n, got h={h}, i={i}, n={n}")
    if lam.residue(h) != lam.residue(i):
        raise PreconditionFailed("indices have different residues")
    _, own = _own(lam, h)
    if h not in own.normal:
        raise PreconditionFailed(f"index {h} is not normal for {lam.parts}")
    p = lam.p
    if own.beta != 0:
        return ConstructionPlan((_extension_flow_step(own, "T6.5.2", h, i),))
    # [prod over (h..i]] is -^m, +-^m or has two pluses (the scan stops)
    sec, _, stop = _bud_scan(_slice(own.word, seg_oc(h, i)))
    one_mod = congruent(lam.entry(i), 1, p)
    if stop is None and not sec:
        theorem = "T6.5.2" if congruent(lam.entry(h), 1, p) else "T6.4.2"
        if one_mod:
            return ConstructionPlan((_extension_flow_step(own, theorem, h, i),))
        a = split_index(_slice(own.word, seg_oo(h, i)))
        return ConstructionPlan(
            (_joined_extension_step(own, a, i), _extension_flow_step(own, theorem, h, a))
        )
    if stop is None:
        if not one_mod:
            return ConstructionPlan((_joined_extension_step(own, h, i),))
        a = sec[-1]
        return ConstructionPlan(
            (_extension_flow_step(own, "T6.4.2", a, i), _joined_extension_step(own, h, a))
        )
    raise UnreachableCase(f"extension dispatch fell through for {lam.parts}, h={h}, i={i}")


# -- payload validation -----------------------------------------------------------

_CASES = ("a", "b", "c", "d")
_THEOREMS = ("T6.1.3", "T6.2.3", "T6.3.3", "T6.4.2", "T6.5.2", "T6.6.2")

# what each flow test asks of the flow's report against the word over its range
_TESTS = {
    "full": lambda r: r.is_flow and r.fully_coherent,
    "budless full": lambda r: r.is_flow and r.fully_coherent and not r.buds,
    "partial": lambda r: r.is_flow and r.coherent and not r.fully_coherent and not r.buds,
    "weak": lambda r: r.is_weak_flow and not r.is_flow and r.fully_coherent,
    "coherent": lambda r: r.is_flow and r.coherent,
}


def validate_plan(lam: Weight, plan: ConstructionPlan) -> bool:
    """Structural validation: the plan has a step, and every step's payload
    satisfies its construction's combinatorial hypotheses."""
    return bool(plan.steps) and all(validate_step(lam, step) for step in plan.steps)


def validate_step(lam: Weight, step: PlanStep) -> bool:
    return step.theorem in _THEOREMS and _meets(lam, step.theorem, step.data)


def validate_certificate(lam: Weight, cert: Certificate) -> bool:
    """Re-check a certificate against its case's statement, then its scalar:
    the product of (beta - residue) over M's unbarred indices, nonzero mod p."""
    data = {"i": cert.index, "j": cert.j, "flow": cert.flow, "M": cert.m_set}
    if cert.case_tag not in _CASES or not _meets(lam, cert.case_tag, data):
        return False
    c = _residue_product(lam, lam.residue(cert.index), cert.m_set.evens)
    return c == cert.c and not congruent(c, 0, lam.p)


def _statement(lam: Weight, tag: str, d: dict, i: int, beta: int) -> tuple:
    """Certificate case or construction `tag` on payload d at index i, of
    residue beta, as one row (flows, m_dom, barred, hyp).  Each (flow, dom,
    test, pluses) of flows must pass _TESTS[test] against r_beta(lambda)
    restricted to dom, whose reduced product has `pluses` plus signs (None:
    not stated).  M is m_dom less the sources of the first flow, unbarred,
    and `barred`, barred.  hyp holds the rest of the index range (i < j < n
    in a/b, where j + 1 is barred; 1 <= h < i where h is read), the entry
    congruences, T6.3.3's loop at q and a certificate's case: b exactly
    when beta = 0, d exactly when j = n; in c/d, i < j and both entries are
    divisible by p, so the plus at j cancels the minus at i across (i..j).
    The congruence of e(i) makes beta = 0 in c, d, T6.3.3, T6.4.2 and
    T6.6.2.  A certificate takes only the tags a-d (_CASES) and a plan step
    only the T6 tags (_THEOREMS); the validators turn every other tag away."""
    n, p, e = lam.n, lam.p, lam.entry
    if tag in _CASES:
        j, flow = d["j"], d["flow"]
        if tag in ("a", "b"):
            dom = seg_oc(i, j)
            return (((flow, dom, "partial", None),), dom, (j + 1,),
                    i < j < n and (tag == "b") == (beta == 0))
        dom = seg_oo(i, j)
        return (((flow, dom, "budless full", None),), dom, (j,),
                (tag == "d") == (j == n) and i < j
                and congruent(e(i), 0, p) and congruent(e(j), 0, p))
    if tag == "T6.1.3":
        dom = seg_oc(i, n)
        return ((d["flow"], dom, "full", 0),), dom, (), True
    if tag == "T6.2.3":
        dom = seg_oo(i, n)
        return (((d["flow"], dom, "full", 0),), dom, (n,),
                not (congruent(e(i), 0, p) and congruent(e(n), 0, p)))
    if tag == "T6.3.3":
        # the barred q is a loop of the resolution.  The builder takes the
        # last loop, but without the paper's text the row does not pin which
        # one, so any other loop still passes
        dom, q, delta = seg_oc(i, n), d["q"], d["resolution"]
        return (((delta, dom, "weak", 1),), dom, (q,),
                congruent(e(i), 1, p) and (q, q) in delta.edges)
    if tag == "T6.4.2":
        h = d["h"]
        return (((d["flow"], seg_oc(h, i), "full", 0),), seg_oo(h, i), (i,),
                1 <= h < i and congruent(e(h), 0, p) and congruent(e(i), 1, p))
    if tag == "T6.5.2":
        h = d["h"]
        dom = seg_oc(h, i)
        return (((d["flow"], dom, "full", 0),), dom, (),
                1 <= h < i and lam.residue(h) == beta and not congruent(e(i), 0, p)
                and not (congruent(e(h), 0, p) and congruent(e(i), 1, p)))
    if tag == "T6.6.2":
        # the joining flow on [h..i], then the weak flow on (h..i].  The
        # joining flow is held to coherence, not to full coherence, so a
        # flow with its edge out of h dropped still passes
        h = d["h"]
        return (((d["flow"], range(h, i + 1), "coherent", None),
                 (d["weak_flow"], seg_oc(h, i), "weak", 1)), seg_oo(h, i), (),
                1 <= h < i and congruent(e(h), 1, p) and congruent(e(i), 0, p))
    raise UnreachableCase(f"unknown theorem tag {tag}")


def _meets(lam: Weight, tag: str, d: dict) -> bool:
    """Hold payload d to the row of `tag` at beta = the residue of i, after
    the one range check 1 <= i < n: one slice of beta's word per flow.  A
    payload lacking a field the row reads or recording another beta fails."""
    try:
        i = d["i"]
        if not 1 <= i < lam.n:
            return False
        beta = lam.residue(i)
        (flows, m_dom, barred, hyp), m = _statement(lam, tag, d, i, beta), d["M"]
    except (KeyError, IndexError):
        return False
    sources = flows[0][0].sources()
    if not (hyp and d.get("beta", beta) == beta
            and m.evens == set(m_dom) - sources and m.odds == set(barred)):
        return False
    word = _words(lam)[0].get(beta, ())
    for flow, dom, test, pluses in flows:
        pairs = _slice(word, dom)
        if not _TESTS[test](flow_analyze(flow, pairs)) or (
                pluses is not None and suffix_shapes(pairs)[0][0] != pluses):
            return False
    return True
