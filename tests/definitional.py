"""Definitional forms of the index predicates, the flow constructions and
the crystal's node routines and generation, kept as test oracles for the
one-pass library code, the -w0 symmetry of a marked sequence, which only
the tests use, and the raising recursion on immutable degree-zero values.

Each predicate rebuilds r_beta and re-reduces the products it needs, and
the two-word, two-reduction build of one residue is kept as the oracle of
the one-word scan.  Each construction recurses on the last index of the
domain, re-reducing every prefix it looks at.  The certificates and plans are
also built by the library's route before its scans took bare slices of the
word: each builder restricts the dense r_beta to its whole range and hands
the restricted map's (index, value) pairs to the public builders, the one
place this module calls the library's scans.  The signed-node routines
re-check the whole partition or weight after each trial row change,
both crystal operators and the branching tables are read off those signed
nodes, and the crystal graph filters all partitions.  The re-checks of plan steps
and certificates are kept as they were before the statement table: one
branch per construction, each building its own r_beta.  Nothing here
reads the library's classification, scans, node routines or statement
table, nor its r_beta or its words: r_beta is built here entry by entry,
the oracle of the library's one pass per weight (`sigseq.r_words`), as
dense (index, value) pairs, and restricted to a set of indices by
`restrict`, which filters the pairs by index, the oracle of the library's
slices of a word.  Only the shared vocabulary (reduced_product, reduce_seq,
flow_analyze, cont_p, partitions, CrystalGraph) is imported.  The one
exception is the crystal graph generated from the library's signed nodes (`reduce_content`), kept as the oracle of the
weight-side scan that generates it now.  The raising recursion builds
every product, sign and sum as a new {bars: coefficient} dict, with its own
normal ordering by adjacent swaps and `polyref`'s dict-of-tuples
polynomials as coefficients, so it shares no arithmetic with the library.
"""
from __future__ import annotations

from functools import lru_cache

from spinbranch.core import SignedSet, Weight, congruent, mod, res_p, seg_oc, seg_oo
from spinbranch.crystal import (
    CrystalGraph,
    PStrictPartition,
    cont_p,
    contents_for,
    reduce_content,
)
import polyref as ref
from spinbranch import sigseq as lib
from spinbranch.indices import (
    Certificate,
    ConstructionPlan,
    IndexClassification,
    PlanStep,
)
from spinbranch.sigseq import (
    MINUS,
    PLUS,
    Flow,
    flow_analyze,
    minus_count,
    plus_count,
    reduce_seq,
    reduced_product,
)


class MarkOutOfRange(ValueError):
    pass


def r_beta(lam: Weight, beta: int) -> tuple[tuple[int, str], ...]:
    """The dense pairs of r_beta(lambda) entry by entry, as the library built
    them before its one pass per weight (`sigseq.r_words`): at beta = 0 pair
    values --, +-, ++ at entries congruent to 1, 0, -1 mod p; otherwise -
    where the entry has residue beta and + where the entry plus one has."""
    p, beta = lam.p, mod(beta, lam.p)
    if beta == 0:
        pair = {mod(1, p): "--", 0: "+-", mod(-1, p): "++"}
        return tuple((i, pair.get(mod(x, p), "")) for i, x in enumerate(lam.parts, 1))
    return tuple(
        (i, "-" if res_p(x, p) == beta else "+" if res_p(x + 1, p) == beta else "")
        for i, x in enumerate(lam.parts, 1)
    )


def restrict(u, indices) -> tuple[tuple[int, str], ...]:
    """The pairs of u at the given indices, empty values kept."""
    keep = set(indices)
    return tuple((i, v) for i, v in u if i in keep)


def _domain(u) -> list[int]:
    return [i for i, _ in u]


def minus_w0_seq(u, n: int):
    """Swap signs, send mark i to n+1-i, and reverse the sequence."""
    for _, mark in u:
        if not 1 <= mark <= n:
            raise MarkOutOfRange(f"mark {mark} outside 1..{n}")
    return tuple((-s, n + 1 - m) for s, m in reversed(u))


# -- index predicates ----------------------------------------------------------


def _contains_mark(seq, sign: int, mark: int) -> bool:
    return any(s == sign and m == mark for s, m in seq)


def tensor_normal(lam: Weight, i: int) -> bool:
    u = r_beta(lam, lam.residue(i))
    return _contains_mark(reduced_product(u), MINUS, i)


def normal(lam: Weight, i: int) -> bool:
    n = lam.n
    if not 1 <= i < n:
        return False
    u = r_beta(lam, lam.residue(i))
    if not _contains_mark(reduced_product(restrict(u, range(1, n))), MINUS, i):
        return False
    gap_empty = not reduced_product(restrict(u, range(i + 1, n)))
    p = lam.p
    return not (
        gap_empty and congruent(lam.entry(i), 0, p) and congruent(lam.entry(n), 0, p)
    )


def tensor_conormal(lam: Weight, i: int) -> bool:
    u = r_beta(lam, res_p(lam.entry(i) + 1, lam.p))
    return _contains_mark(reduced_product(u), PLUS, i)


def good(lam: Weight, i: int) -> bool:
    return normal(lam, i) and not any(
        normal(lam, h) for h in range(1, i) if lam.residue(h) == lam.residue(i)
    )


def tensor_good(lam: Weight, i: int) -> bool:
    return tensor_normal(lam, i) and not any(
        tensor_normal(lam, h) for h in range(1, i) if lam.residue(h) == lam.residue(i)
    )


def tensor_cogood(lam: Weight, i: int) -> bool:
    my = res_p(lam.entry(i) + 1, lam.p)
    return tensor_conormal(lam, i) and not any(
        tensor_conormal(lam, h)
        for h in range(i + 1, lam.n + 1)
        if res_p(lam.entry(h) + 1, lam.p) == my
    )


def residue_reduction(lam: Weight, beta: int) -> dict:
    """The per-residue build that the one-word scan replaced: two words and
    two reductions, over [1..n] and over [1..n), and a right-to-left scan for
    the boundary exception only when it can apply."""
    n, p = lam.n, lam.p
    u = r_beta(lam, beta)
    reduced = reduced_product(u)
    head = reduced_product(restrict(u, range(1, n)))
    normal = {m for s, m in head if s == MINUS}
    if normal and congruent(lam.entry(n), 0, p):
        s = r = 0
        for i in range(n - 1, 0, -1):
            if s == r == 0 and congruent(lam.entry(i), 0, p):
                normal.discard(i)
            for ch in reversed(u[i - 1][1]):
                if ch == "+":
                    s += 1
                elif s:
                    s -= 1
                else:
                    r += 1
    minus = frozenset(m for s, m in reduced if s == MINUS)
    plus = frozenset(m for s, m in reduced if s == PLUS)
    return {
        "reduced": reduced,
        "tensor_normal": minus,
        "tensor_conormal": plus,
        "normal": frozenset(normal),
        "good": min(normal, default=None),
        "tensor_good": min(minus, default=None),
        "tensor_cogood": max(plus, default=None),
    }


def classify_index(lam: Weight, i: int) -> IndexClassification:
    return IndexClassification(
        index=i,
        residue=lam.residue(i),
        tensor_normal=tensor_normal(lam, i),
        normal=normal(lam, i),
        tensor_conormal=tensor_conormal(lam, i),
        good=good(lam, i),
        tensor_good=tensor_good(lam, i),
        tensor_cogood=tensor_cogood(lam, i),
    )


# -- flow constructions ------------------------------------------------------------


def _pc(u, idxs) -> int:
    return plus_count(reduced_product(restrict(u, idxs)))


def build_full_flow(u) -> Flow:
    """Pair and single values alike: recursion on the maximal index, joining
    the maximal available bud to each index whose value holds a +."""
    value = dict(u)

    def rec(idxs: list[int]) -> set[tuple[int, int]]:
        if not idxs:
            return set()
        e, rest = idxs[-1], idxs[:-1]
        edges = rec(rest)
        if "+" not in value[e]:
            return edges
        srcs = {a for a, _ in edges}
        buds = [i for i in rest if "-" in value[i] and i not in srcs]
        edges.add((buds[-1], e))
        return edges

    return Flow(frozenset(rec(_domain(u))))


def lead_plus_index(u) -> int:
    value = dict(u)

    def rec(idxs: list[int]) -> int:
        rest = idxs[:-1]
        if _pc(u, rest) == 1:
            return rec(rest)
        assert value[idxs[-1]] == "+-"
        return idxs[-1]

    return rec(_domain(u))


def section_of(u) -> tuple[int, ...]:
    a = lead_plus_index(u)
    tail = [i for i in _domain(u) if i > a]
    if _pc(u, tail) == 0:
        return (a,)
    return (a,) + section_of(restrict(u, tail))


def _gap_edges(u, idxs, sec) -> set[tuple[int, int]]:
    edges: set[tuple[int, int]] = set()
    bounds = (float("-inf"),) + tuple(sec) + (float("inf"),)
    for lo, hi in zip(bounds, bounds[1:]):
        edges |= build_full_flow(restrict(u, [i for i in idxs if lo < i < hi])).edges
    return edges


def resolution_of(u) -> Flow:
    sec = section_of(u)
    return Flow(frozenset({(a, a) for a in sec} | _gap_edges(u, _domain(u), sec)))


def partial_flow(u) -> tuple[int, Flow]:
    need = max(len(v) for _, v in u)  # 1 for single values, 2 for pair values

    def rec(idxs: list[int]) -> tuple[list[int], set[tuple[int, int]]]:
        if len(idxs) == 1:
            return idxs, set()
        rest = idxs[:-1]
        s = _pc(u, rest)
        if s >= need:
            return rec(rest)
        if s == 0:
            return idxs, set(build_full_flow(restrict(u, rest)).edges)
        sec = section_of(restrict(u, rest))
        return idxs, set(zip(sec, sec[1:] + (idxs[-1],))) | _gap_edges(u, rest, sec)

    j_set, edges = rec(_domain(u))
    return j_set[-1], Flow(frozenset(edges))


def split_index(u) -> int:
    """Recursion on the maximal index: '' and +- are skipped, -- is the
    answer, and ++ first finds the split b of the prefix, then recurses
    strictly below b."""
    value = dict(u)

    def rec(idxs: list[int]) -> int:
        e, rest = idxs[-1], idxs[:-1]
        v = value[e]
        if v == "--":
            return e
        if v == "++":
            b = rec(rest)
            return rec([i for i in idxs if i < b])
        return rec(rest)

    return rec(_domain(u))


# -- re-checks of plan steps and certificates, one branch per construction ----------


def _residue_product(lam: Weight, beta: int, ts) -> int:
    out = 1
    for t in ts:
        out *= beta - res_p(lam.entry(t), lam.p)
    return out % lam.p if lam.p else out


def _is_leftover(m: SignedSet, dom, flow: Flow, odds=()) -> bool:
    return m.evens == set(dom) - flow.sources() and m.odds == set(odds)


def validate_certificate(lam: Weight, cert) -> bool:
    """The flow shape of cases a/b on (i..j] and c/d on (i..j), and the
    scalar over the range less the flow's sources; M is not read."""
    beta = lam.residue(cert.index)
    u = r_beta(lam, beta)
    i, j = cert.index, cert.j
    if cert.case_tag in ("a", "b"):
        rep = flow_analyze(cert.flow, restrict(u, seg_oc(i, j)))
        shape_ok = rep.is_flow and rep.coherent and not rep.fully_coherent
    else:
        rep = flow_analyze(cert.flow, restrict(u, seg_oo(i, j)))
        shape_ok = rep.is_flow and rep.fully_coherent
    rng = seg_oc(i, j) if cert.case_tag in ("a", "b") else seg_oo(i, j)
    c = _residue_product(lam, beta, [t for t in rng if t not in cert.flow.sources()])
    return shape_ok and not rep.buds and c == cert.c and not congruent(c, 0, lam.p)


def validate_step(lam: Weight, step) -> bool:
    p = lam.p
    n = lam.n
    d = step.data
    th = step.theorem
    if th in ("T6.1.3", "T6.2.3"):
        i, beta = d["i"], d["beta"]
        closed = th == "T6.1.3"
        dom = seg_oc(i, n) if closed else seg_oo(i, n)
        u = restrict(r_beta(lam, beta), dom)
        rep = flow_analyze(d["flow"], u)
        both = congruent(lam.entry(i), 0, p) and congruent(lam.entry(n), 0, p)
        return (
            plus_count(reduced_product(u)) == 0
            and (closed or not both)
            and rep.is_flow
            and rep.fully_coherent
            and _is_leftover(d["M"], dom, d["flow"], () if closed else (n,))
        )
    if th == "T6.3.3":
        i = d["i"]
        u = restrict(r_beta(lam, 0), seg_oc(i, n))
        rep = flow_analyze(d["resolution"], u)
        return (
            plus_count(reduced_product(u)) == 1
            and congruent(lam.entry(i), 1, p)
            and rep.is_weak_flow
            and not rep.is_flow
            and rep.fully_coherent
            and _is_leftover(d["M"], seg_oc(i, n), d["resolution"], (d["q"],))
        )
    if th == "T6.4.2":
        h, i = d["h"], d["i"]
        u = restrict(r_beta(lam, 0), seg_oc(h, i))
        rep = flow_analyze(d["flow"], u)
        return (
            congruent(lam.entry(h), 0, p)
            and congruent(lam.entry(i), 1, p)
            and plus_count(reduced_product(u)) == 0
            and rep.is_flow
            and rep.fully_coherent
            and _is_leftover(d["M"], seg_oo(h, i), d["flow"], (i,))
        )
    if th == "T6.5.2":
        h, i, beta = d["h"], d["i"], d["beta"]
        u = restrict(r_beta(lam, beta), seg_oc(h, i))
        rep = flow_analyze(d["flow"], u)
        hyp = not congruent(lam.entry(i), 0, p) and not (
            congruent(lam.entry(h), 0, p) and congruent(lam.entry(i), 1, p)
        )
        return (
            hyp
            and lam.residue(h) == lam.residue(i)
            and plus_count(reduced_product(u)) == 0
            and rep.is_flow
            and rep.fully_coherent
            and _is_leftover(d["M"], seg_oc(h, i), d["flow"])
        )
    if th == "T6.6.2":
        h, i = d["h"], d["i"]
        u = r_beta(lam, 0)
        u_closed = restrict(u, seg_oc(h, i))
        rep_gamma = flow_analyze(d["flow"], restrict(u, range(h, i + 1)))
        rep_delta = flow_analyze(d["weak_flow"], u_closed)
        return (
            plus_count(reduced_product(u_closed)) == 1
            and congruent(lam.entry(h), 1, p)
            and congruent(lam.entry(i), 0, p)
            and rep_gamma.is_flow
            and rep_gamma.coherent
            and rep_delta.is_weak_flow
            and not rep_delta.is_flow
            and rep_delta.fully_coherent
            and _is_leftover(d["M"], seg_oo(h, i), d["flow"])
        )
    raise ValueError(f"unknown theorem tag {th}")


# -- certificates and plans by the dense route ---------------------------------------
# the library's builder route before its scans took bare slices of the word
# and stopped where the flow closes: every builder restricts the dense
# r_beta to its whole range (i..n, h..i) and hands its pairs to the public
# builders, which scan the range in full and check their preconditions


def _leftover_set(dom, flow: Flow, odds=()) -> SignedSet:
    return SignedSet.of(evens=[t for t in dom if t not in flow.sources()], odds=odds)


def non_normal_certificate(lam: Weight, i: int) -> Certificate:
    """The certificate of a non-normal index i < n: partial_flow on (i..n)
    for cases a/b, lead_plus_index on (i..n) for case c, and
    build_full_flow on (i..j) for cases c/d."""
    n, p, beta = lam.n, lam.p, lam.residue(i)
    u = restrict(r_beta(lam, beta), seg_oo(i, n))
    pluses = plus_count(reduced_product(u))
    if pluses >= (2 if beta == 0 else 1):
        tag = "b" if beta == 0 else "a"
        j, flow = lib.partial_flow(u)
        m_set = _leftover_set(seg_oc(i, j), flow, odds=[j + 1])
    else:
        if beta == 0 and pluses == 1 and congruent(lam.entry(i), 0, p):
            tag, j = "c", lib.lead_plus_index(u)
        else:
            tag, j = "d", n
        flow = lib.build_full_flow(restrict(u, seg_oo(i, j)))
        m_set = _leftover_set(seg_oo(i, j), flow, odds=[j])
    return Certificate(tag, i, j, flow, m_set, _residue_product(lam, beta, m_set.evens))


def _base_step(lam: Weight, i: int) -> PlanStep:
    n, beta = lam.n, lam.residue(i)
    u = r_beta(lam, beta)
    closed = bool(minus_count(reduced_product(restrict(u, seg_oo(i, n)))))
    dom = seg_oc(i, n) if closed else seg_oo(i, n)
    flow = lib.build_full_flow(restrict(u, dom))
    return PlanStep("T6.1.3" if closed else "T6.2.3", {
        "i": i, "beta": beta, "flow": flow,
        "M": _leftover_set(dom, flow, odds=[] if closed else [n])})


def _extension_flow_step(lam: Weight, theorem: str, h: int, i: int) -> PlanStep:
    beta = lam.residue(i)
    flow = lib.build_full_flow(restrict(r_beta(lam, beta), seg_oc(h, i)))
    m_set = (_leftover_set(seg_oo(h, i), flow, odds=[i]) if theorem == "T6.4.2"
             else _leftover_set(seg_oc(h, i), flow))
    return PlanStep(theorem, {"h": h, "i": i, "beta": beta, "flow": flow, "M": m_set})


def _joined_extension_step(lam: Weight, h: int, i: int) -> PlanStep:
    """r_0 on (h..i) reduces to -^m or +-^m: its section (none for -^m)
    chained from h to i, and the fully coherent flows between."""
    v = restrict(r_beta(lam, 0), seg_oo(h, i))
    if plus_count(reduced_product(v)):
        sec = lib.section_of(v)
        pieces = {(a, b) for a, b in lib.resolution_of(v).edges if a != b}
    else:
        sec, pieces = (), set(lib.build_full_flow(v).edges)
    chain = (h,) + sec + (i,)
    gamma = Flow(frozenset(pieces | set(zip(chain, chain[1:]))))
    delta = Flow(frozenset(pieces | {(a, a) for a in sec + (i,)}))
    return PlanStep("T6.6.2", {"h": h, "i": i, "beta": 0, "flow": gamma,
                               "weak_flow": delta, "M": _leftover_set(seg_oo(h, i), gamma)})


def primitive_plan(lam: Weight, i: int) -> ConstructionPlan:
    """The plan of a normal index i < n, split on the dense reduction of
    r_beta over (i..n)."""
    n, p = lam.n, lam.p
    u = r_beta(lam, lam.residue(i))
    if not _pc(u, seg_oo(i, n)):
        return ConstructionPlan((_base_step(lam, i),))
    if not congruent(lam.entry(n), -1, p):
        closed = seg_oc(i, n)
        delta = lib.resolution_of(restrict(u, closed))
        q = max(a for a, b in delta.edges if a == b)
        return ConstructionPlan((PlanStep("T6.3.3", {
            "i": i, "beta": 0, "resolution": delta, "q": q,
            "M": _leftover_set(closed, delta, odds=[q])}),))
    a = lib.section_of(restrict(u, seg_oo(i, n)))[-1]
    return ConstructionPlan((_base_step(lam, a), _joined_extension_step(lam, i, a)))


def extension_plan(lam: Weight, h: int, i: int) -> ConstructionPlan:
    """The plan extending from i down to a normal h < i of equal residue,
    split on the dense reduction of r_beta over (h..i]."""
    p = lam.p
    if lam.residue(h) != 0:
        return ConstructionPlan((_extension_flow_step(lam, "T6.5.2", h, i),))
    u = r_beta(lam, 0)
    one_mod = congruent(lam.entry(i), 1, p)
    if not _pc(u, seg_oc(h, i)):
        theorem = "T6.5.2" if congruent(lam.entry(h), 1, p) else "T6.4.2"
        if one_mod:
            return ConstructionPlan((_extension_flow_step(lam, theorem, h, i),))
        a = lib.split_index(restrict(u, seg_oo(h, i)))
        return ConstructionPlan((_joined_extension_step(lam, a, i),
                                 _extension_flow_step(lam, theorem, h, a)))
    if not one_mod:
        return ConstructionPlan((_joined_extension_step(lam, h, i),))
    a = lib.section_of(restrict(u, seg_oc(h, i)))[-1]
    return ConstructionPlan((_extension_flow_step(lam, "T6.4.2", a, i),
                             _joined_extension_step(lam, h, a)))


# -- crystal: signed nodes by whole-partition checks, and the filtered graph ------


def _is_p_strict_parts(parts, p: int) -> bool:
    if any(x < 0 for x in parts):
        return False
    if any(a < b for a, b in zip(parts, parts[1:])):
        return False
    for a, b in zip(parts, parts[1:]):
        if a == b and a > 0 and (p == 0 or a % p != 0):
            return False
    return True


def _is_restricted_parts(parts, p: int) -> bool:
    if not _is_p_strict_parts(parts, p):
        return False
    if p == 0:
        return True
    padded = parts + (0,)
    for a, b in zip(padded, padded[1:]):
        if (a % p == 0 and a - b >= p) or (a % p != 0 and a - b > p):
            return False
    return True


def rim_signed_nodes(lam: PStrictPartition, i: int):
    """Signed i-nodes of a partition (contents, one extra empty row)."""
    p = lam.p
    out = []
    for r in range(1, len(lam.parts) + 2):
        lr = lam.part(r)
        base = list(lam.parts) + [0] * max(r - len(lam.parts), 0)

        def ok(delta: int) -> bool:
            parts = base.copy()
            parts[r - 1] += delta
            return _is_p_strict_parts(tuple(parts), p)

        if cont_p(lr + 2, p) == i and cont_p(lr + 1, p) == i and ok(1) and ok(2):
            out.append((PLUS, (r, lr + 2)))
        if cont_p(lr + 1, p) == i and ok(1):
            out.append((PLUS, (r, lr + 1)))
        if r <= len(lam.parts):
            if lr >= 1 and cont_p(lr, p) == i and ok(-1):
                out.append((MINUS, (r, lr)))
            if (
                lr >= 2
                and cont_p(lr - 1, p) == i
                and cont_p(lr, p) == i
                and ok(-1)
                and ok(-2)
            ):
                out.append((MINUS, (r, lr - 1)))
    return out


def body_signed_nodes(lam: Weight, beta: int):
    """Signed beta-nodes of a dominant p-strict weight (residues, no extra
    row, columns may be <= 0)."""
    assert lam.is_p_strict()
    p = lam.p
    beta = beta % p if p else beta
    out = []
    for r in range(1, lam.n + 1):
        lr = lam.entry(r)

        def ok(delta: int) -> bool:
            parts = list(lam.parts)
            parts[r - 1] += delta
            return Weight(tuple(parts), p).is_p_strict()

        if res_p(lr + 2, p) == beta and res_p(lr + 1, p) == beta and ok(1) and ok(2):
            out.append((PLUS, (r, lr + 2)))
        if res_p(lr + 1, p) == beta and ok(1):
            out.append((PLUS, (r, lr + 1)))
        if res_p(lr, p) == beta and ok(-1):
            out.append((MINUS, (r, lr)))
        if res_p(lr - 1, p) == beta and res_p(lr, p) == beta and ok(-1) and ok(-2):
            out.append((MINUS, (r, lr - 1)))
    return out


def partitions_of(n: int):
    """All integer partitions of n as weakly decreasing tuples."""

    def gen(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        for first in range(min(cap, remaining), 0, -1):
            yield from gen(remaining - first, first, prefix + (first,))

    yield from gen(n, n, ())


def restricted_partitions(p: int, n: int) -> list[PStrictPartition]:
    return [
        PStrictPartition(parts, p)
        for parts in partitions_of(n)
        if _is_restricted_parts(parts, p)
    ]


def e_tilde(i: int, lam: PStrictPartition) -> PStrictPartition | None:
    for sign, node in reduce_seq(tuple(rim_signed_nodes(lam, i))):
        if sign == MINUS:
            return lam.remove(node)
    return None


def f_tilde(i: int, lam: PStrictPartition) -> PStrictPartition | None:
    for sign, node in reversed(reduce_seq(tuple(rim_signed_nodes(lam, i)))):
        if sign == PLUS:
            return lam.add(node)
    return None


def branching_tables(lam: PStrictPartition):
    """The socle and Specht tables of a restricted partition from its
    reduced signed i-nodes: restriction removes the first minus (socle) and
    each minus (Specht), induction adds the last plus (socle) and each plus
    (Specht), skipping the second node of a pair, which is not one box, and
    each result that is not restricted."""
    tables = ([], [], [], [])
    for i in contents_for(lam.p, max([1] + [v + 2 for v in lam.parts])):
        reduced = reduce_seq(tuple(rim_signed_nodes(lam, i)))
        minus = [node for sign, node in reduced if sign == MINUS]
        plus = [node for sign, node in reduced if sign == PLUS]
        for k, nodes in enumerate((minus[:1], minus, plus[-1:], plus)):
            for r, c in nodes:
                if lam.part(r) == c - (k > 1):
                    mu = lam.add((r, c)) if k > 1 else lam.remove((r, c))
                    if _is_restricted_parts(mu.parts, lam.p):
                        tables[k].append((mu, (r, c)))
    return tables


def crystal_graph(p: int, max_size: int) -> CrystalGraph:
    """Filter every partition of size <= max_size, then find each vertex's
    incoming edges by e_tilde."""
    vertices = [lam for n in range(max_size + 1) for lam in restricted_partitions(p, n)]
    vertices.sort(key=lambda lam: (sum(lam.parts), lam.parts))
    edges = []
    for mu in vertices:
        for i in contents_for(p, max([0] + list(mu.parts))):
            lam = e_tilde(i, mu) if mu.parts else None
            if lam is not None:
                edges.append((lam.parts, i, mu.parts))
    edges.sort()
    return CrystalGraph(p, max_size, tuple(v.parts for v in vertices), tuple(edges))


def signed_node_crystal_graph(p: int, max_size: int) -> CrystalGraph:
    """Generate the graph level by level from the empty partition, adding
    the cogood node of the library's signed i-nodes for every content."""
    level = [PStrictPartition((), p)]
    vertices = [level[0].parts]
    edges = []
    for _ in range(max_size):
        found: dict[tuple[int, ...], PStrictPartition] = {}
        for mu in level:
            for i in contents_for(p, mu.part(1) + 1):
                cogood = reduce_content(mu, i).cogood
                if cogood:
                    lam = mu.add(cogood[0])
                    edges.append((mu.parts, i, lam.parts))
                    found.setdefault(lam.parts, lam)
        level = [found[parts] for parts in sorted(found)]
        vertices.extend(lam.parts for lam in level)
    edges.sort()
    return CrystalGraph(p, max_size, tuple(vertices), tuple(edges))


# -- the raising recursion on immutable degree-zero values -----------------------


def _word(bars) -> tuple[tuple[int, ...], dict]:
    """Sort a word of barred generators by adjacent swaps: each swap of two
    distinct generators flips the sign, and two equal neighbours merge into
    their central H."""
    word, coeff, k = list(bars), ref.const(1), 0
    while k + 1 < len(word):
        a, b = word[k], word[k + 1]
        if a < b:
            k += 1
            continue
        if a == b:
            del word[k:k + 2]
            coeff = ref.mul(coeff, ref.var("H", a))
        else:
            word[k], word[k + 1] = b, a
            coeff = ref.scale(coeff, -1)
        k = max(k - 1, 0)
    return tuple(word), coeff


def _u0_sum(*elements: dict) -> dict:
    out: dict = {}
    for u in elements:
        for bars, c in u.items():
            out[bars] = ref.add(out.get(bars, {}), c)
    return {bars: c for bars, c in out.items() if c}


def _u0_mul(a: dict, b: dict) -> dict:
    terms = []
    for b1, c1 in a.items():
        for b2, c2 in b.items():
            bars, sign = _word(b1 + b2)
            terms.append({bars: ref.mul(ref.mul(c1, c2), sign)})
    return _u0_sum(*terms)


def _u0_scale(u: dict, k: int) -> dict:
    return _u0_sum({bars: ref.scale(c, k) for bars, c in u.items()})


def _h_eps(i: int, e: int) -> dict:
    return {(i,): ref.const(1)} if e % 2 else {(): ref.var("H", i)}


def _quadratic(i: int, j: int, c: int) -> dict:
    """H_i(H_i - 1) - H_j(H_j + c)."""
    hi, hj = ref.var("H", i), ref.var("H", j)
    left = ref.mul(hi, ref.add(hi, ref.const(-1)))
    return _u0_sum({(): left}, {(): ref.scale(ref.mul(hj, ref.add(hj, ref.const(c))), -1)})


def _sgn(e: int) -> int:
    return -1 if e % 2 else 1


@lru_cache(maxsize=None)
def raising_rec(i: int, j: int, eps: int, dv: tuple[int, ...],
                evens: frozenset, odds: frozenset) -> dict:
    """The raising coefficient by the case recursion on min M, as {bars:
    polyref polynomial}; dv is delta's value tuple on [i..j-1] and evens,
    odds are M's two sets.  Call `raising_rec.cache_clear()` for a cold run."""
    if not evens and odds == {j}:
        total = (eps + sum(dv)) % 2
        second = _u0_scale(_h_eps(i + 1, total), _sgn(dv[0] * (eps + sum(dv[1:]))))
        return _u0_sum(_h_eps(i, total), _u0_scale(second, -1))
    if not odds and evens == {j}:
        return _quadratic(i, i + 1, 1) if sum(dv) % 2 == eps else {}

    mval = min(evens | odds)
    k = mval - i
    head, right_dv = dv[:k], dv[k:]
    tail_evens, tail_odds = evens - {mval}, odds - {mval}
    tail_exp = 1 + len(tail_odds) + sum(right_dv)
    lone = frozenset((mval,))
    if mval in odds:
        out = {}
        for gamma in (0, 1):
            sigma = (eps + gamma) % 2
            left = raising_rec(i, mval, gamma, head, frozenset(), lone)
            right = raising_rec(mval, j, sigma, right_dv, tail_evens, tail_odds)
            out = _u0_sum(out, _u0_scale(_u0_mul(left, right), _sgn(gamma * (eps + tail_exp))))
        if k > 1:
            return _u0_sum(out, raising_rec(i, j, eps, dv, evens, tail_odds | {mval - 1}))
        for gamma in (0, 1):
            sigma = (eps + gamma) % 2
            shorter = raising_rec(i, j, gamma, dv, evens, tail_odds)
            out = _u0_sum(out, _u0_scale(_u0_mul(shorter, _h_eps(i, sigma)),
                                         _sgn(sigma * (1 + len(odds)))))
        return out

    sd_head = sum(head) % 2
    right = raising_rec(mval, j, (eps + sd_head) % 2, right_dv, tail_evens, tail_odds)
    out = _u0_scale(_u0_mul(_quadratic(i, i + 1, 1), right), _sgn(sd_head * (eps + tail_exp)))
    d_m = dv[k]
    for xi in (0, 1):
        left = raising_rec(i, mval, xi, head, frozenset(), lone)
        for tau in (0, 1):
            sigma = (eps + d_m + xi + tau) % 2
            sign = _sgn((xi + tau + d_m) * (eps + tail_exp + xi))
            right = raising_rec(mval, j, sigma, (tau,) + right_dv[1:], tail_evens, tail_odds)
            out = _u0_sum(out, _u0_scale(_u0_mul(left, right), -sign))
    if k > 1:
        out = _u0_sum(out, raising_rec(i, j, eps, dv, tail_evens | {mval - 1}, odds))
    shorter = raising_rec(i, j, eps, dv, tail_evens, odds)
    return _u0_sum(out, _u0_mul(shorter, _quadratic(mval - 1, mval, -1)))
