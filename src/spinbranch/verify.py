"""Self-contained verification suites behind `spinbranch verify` and the
acceptance tests.  Each suite replays one family of identities or
constructions and reports every mismatch; randomized suites take an
explicit seed so reruns are byte-identical.
"""
from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass, field
from itertools import combinations, product

from . import crystal as cr
from . import indices as ix
from .core import DeltaFunction, SignedSet, Weight, check_characteristic, congruent, res_p
from .poly import (
    Polynomial,
    d_floor,
    f_poly,
    g1,
    g2,
    lin_reduce,
    sigma_apply,
    x,
    y,
)
from .raising import two_term_sum_sides, raising_closed, raising_rec
from .sigseq import (
    MINUS,
    PAIR_VALUES,
    PLUS,
    SINGLE_VALUES,
    NotAllMinus,
    build_full_flow,
    flow_analyze,
    lead_plus_index,
    minus_count,
    partial_flow,
    plus_count,
    r_beta,
    reduce_random_order,
    reduce_seq,
    reduced_product,
    resolution_of,
    section_of,
    signs,
    split_index,
)


class InvalidSuiteParameter(ValueError):
    """A suite parameter the suite cannot run with."""


@dataclass
class VerdictReport:
    suite: str
    parameters: dict
    cases: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """No failures, and at least one case ran."""
        return self.cases > 0 and not self.failures

    def check(self, descriptor: str, expected, actual):
        self.cases += 1
        if expected != actual:
            self.failures.append((descriptor, str(expected), str(actual)))

    def record(self, descriptor: str, ok: bool, detail=""):
        """Count a case; on a failure keep `detail`, or what it returns when
        it is a callable (built only then)."""
        self.cases += 1
        if not ok:
            detail = detail() if callable(detail) else detail
            self.failures.append((descriptor, "ok", detail or "failed"))

    def finish(self) -> "VerdictReport":
        self.failures.sort()
        return self

    def to_json(self) -> str:
        return json.dumps(
            {
                "suite": self.suite,
                "parameters": self.parameters,
                "cases": self.cases,
                "pass": self.passed,
                "failures": [list(f) for f in self.failures],
            }
        )


# the shortest weight each random-weight suite draws (certificates needs an
# index i < n)
LEAST_N = {"signature-bridge": 1, "duality": 1, "certificates": 2}


# sizes that must not be negative (zero is allowed: a suite that ran no case fails)
SIZES = ("width", "samples", "lin_samples", "max_domain")


def _check_parameters(suite: str, params: dict) -> None:
    """Raise InvalidSuiteParameter for parameters `suite` cannot run with:
    a negative size (SIZES), p = 0 in the signature bridge (it compares
    r_beta with beta_signature for every beta in 0..p-1, so it would
    compare nothing), or a max_n below the shortest weight a random-weight
    suite draws (LEAST_N)."""
    for size in SIZES:
        if params.get(size, 0) < 0:
            raise InvalidSuiteParameter(f"{suite} needs {size} >= 0, got {params[size]}")
    if suite == "signature-bridge" and 0 in params.get("ps", ()):
        raise InvalidSuiteParameter("signature-bridge needs odd primes p, got p = 0")
    least = LEAST_N.get(suite, 1)
    if params.get("max_n", least) < least:
        raise InvalidSuiteParameter(f"{suite} needs max_n >= {least}, got {params['max_n']}")


def random_weight(rng: random.Random, p: int, n: int) -> Weight:
    return Weight(tuple(rng.randint(-4, 12) for _ in range(n)), p)


def random_dominant_p_strict(rng: random.Random, p: int, n: int, hi: int = 12) -> Weight:
    """Entries drawn from [0..hi] one at a time, again on a repeat prime to p."""
    parts: list[int] = []
    while len(parts) < n:
        x = rng.randint(0, hi)
        if congruent(x, 0, p) or x not in parts:
            parts.append(x)
    return Weight(tuple(sorted(parts, reverse=True)), p)


# -- suite: reduction ----------------------------------------------------------


def verify_reduction(samples: int = 10000, max_len: int = 20, orders: int = 10,
                     seed: int = 2024) -> VerdictReport:
    rep = VerdictReport("reduction", {
        "samples": samples, "max_len": max_len, "orders": orders, "seed": seed,
    })
    _check_parameters(rep.suite, rep.parameters)
    rng = random.Random(seed)
    for case in range(samples):
        ln = rng.randint(0, max_len)
        u = tuple((rng.choice((PLUS, MINUS)), k) for k in range(ln))
        red = reduce_seq(u)
        a, b = plus_count(u), minus_count(u)
        s, r = plus_count(red), minus_count(red)
        shape_ok = signs(red) == "+" * s + "-" * r and s - r == a - b
        rep.record(f"shape case={case}", shape_ok, signs(red))
        for _ in range(orders):
            rep.check(f"order case={case}", red, reduce_random_order(u, rng))
    return rep.finish()


# -- suite: flows ---------------------------------------------------------------


def verify_flows(max_domain: int = 6) -> VerdictReport:
    rep = VerdictReport("flows", {"max_domain": max_domain})
    _check_parameters(rep.suite, rep.parameters)
    for mode, alphabet in (("single", SINGLE_VALUES), ("pair", PAIR_VALUES)):
        for d in range(max_domain + 1):
            for vals in product(alphabet, repeat=d):
                _flow_cases(rep, mode, tuple(enumerate(vals, 1)))
    return rep.finish()


def _flow_cases(rep: VerdictReport, mode: str, u: tuple):
    tag = f"{mode}:{','.join(v or '.' for _, v in u)}"
    value = dict(u)
    red = reduced_product(u)
    s, r = plus_count(red), minus_count(red)
    if s == 0:
        g = build_full_flow(u)
        fa = flow_analyze(g, u)
        want_buds = r if mode == "single" else r // 2
        rep.record(
            f"full-flow {tag}",
            fa.is_flow and fa.fully_coherent and len(fa.buds) == want_buds,
            str(fa),
        )
    else:
        try:
            build_full_flow(u)
            rep.record(f"full-flow-reject {tag}", False, "no error raised")
        except NotAllMinus:
            rep.record(f"full-flow-reject {tag}", True)
    if mode == "pair" and s == 0 and r > 0:
        a = split_index(u)
        tail = reduced_product([(k, v) for k, v in u if k > a])
        head = reduced_product([(k, v) for k, v in u if k <= a])
        ok = (
            value[a] == "--"
            and signs(tail) in ("", "+-")
            and signs(head) == "-" * r
        )
        rep.record(f"split {tag}", ok, f"a={a}")
    if mode == "pair" and s == 1 and red[0][0] == PLUS:
        a = lead_plus_index(u)
        prefix = reduced_product([(k, v) for k, v in u if k < a])
        rep.record(f"lead {tag}", value[a] == "+-" and not prefix, f"a={a}")
        sec = section_of(u)
        ok = bool(sec) and all(value[k] == "+-" for k in sec)
        bounds = (0,) + sec  # the domain starts at 1
        for lo, hi in zip(bounds, sec):
            ok = ok and not reduced_product([(k, v) for k, v in u if lo < k < hi])
        tail = [(k, v) for k, v in u if k > sec[-1]]
        ok = ok and signs(reduced_product(tail)) == "-" * (r - 1)
        rep.record(f"section {tag}", ok, str(sec))
        res = resolution_of(u)
        fa = flow_analyze(res, u)
        rep.record(
            f"resolution {tag}",
            fa.is_weak_flow and not fa.is_flow and fa.fully_coherent,
            str(fa),
        )
    need = 1 if mode == "single" else 2
    if s >= need:
        j, g = partial_flow(u)
        uj = tuple((k, v) for k, v in u if k <= j)
        j_set, fa = tuple(k for k, _ in uj), flow_analyze(g, uj)
        want = "+" if mode == "single" else "++"
        ok = (
            signs(reduced_product(uj)) == want
            and j_set[-1] == j  # J is the domain up to j, an index of it
            and fa.is_flow
            and fa.coherent
            and not fa.fully_coherent
            and not fa.buds
        )
        rep.record(f"partial {tag}", ok, f"J={j_set}")


# -- suite: poly identities ------------------------------------------------------


def _subsets(univ):
    univ = sorted(univ)
    for r in range(len(univ) + 1):
        yield from (frozenset(c) for c in combinations(univ, r))


def verify_poly_identities(width: int = 6, lin_width: int = 4,
                           lin_samples: int = 4000, seed: int = 99,
                           offsets=(1,)) -> VerdictReport:
    # the lin-reduce sweep is no wider than the g-identity sweep
    lin_width = max(0, min(lin_width, width))
    rep = VerdictReport("poly-identities", {
        "width": width, "lin_width": lin_width, "lin_samples": lin_samples,
        "seed": seed, "offsets": list(offsets),
    })
    _check_parameters(rep.suite, rep.parameters)
    rng = random.Random(seed)
    for i in offsets:
        _sigma_commutation(rep, rng, i)
        _sigma_fixes_f(rep, rng, i)
        for w in range(1, width + 1):
            _g_identities(rep, i, i + w)
        _lin_reduce_exhaustive(rep, i, lin_width)
        _lin_reduce_sampled(rep, rng, i, lin_width + 1, lin_samples)
    return rep.finish()


def _random_poly(rng: random.Random, max_idx: int) -> Polynomial:
    out = Polynomial()
    for _ in range(rng.randint(1, 4)):
        term = Polynomial.const(rng.randint(-3, 3))
        for _ in range(rng.randint(0, 3)):
            axis = rng.choice("xy")
            term = term * Polynomial.var(axis, rng.randint(1, max_idx))
        out = out + term
    return out


def _sigma_commutation(rep: VerdictReport, rng: random.Random, base: int):
    for a in range(base, base + 2):
        for b in range(a + 1, base + 4):
            for c in range(b + 1, base + 5):
                for e in (0, 1):
                    for h in (0, 1):
                        f = _random_poly(rng, base + 5)
                        lhs = sigma_apply(a, b, b + e, sigma_apply(a, c, c + h, f))
                        rhs = sigma_apply(b, c, c + h, sigma_apply(a, b, b + e, f))
                        rep.check(f"sigma-braid a={a} b={b} c={c} e={e} h={h}", lhs, rhs)
    for a in range(base, base + 2):
        for b in range(a + 1, base + 3):
            for c in range(b, base + 4):
                for d in range(c + 1, base + 5):
                    for e in (0, 1):
                        if b + e > c:
                            continue
                        for h in (0, 1):
                            f = _random_poly(rng, base + 5)
                            lhs = sigma_apply(a, b, b + e, sigma_apply(c, d, d + h, f))
                            rhs = sigma_apply(c, d, d + h, sigma_apply(a, b, b + e, f))
                            rep.check(f"sigma-disjoint a={a} b={b} c={c} d={d} e={e} h={h}", lhs, rhs)


def _sigma_fixes_f(rep: VerdictReport, rng: random.Random, base: int):
    """Shifts starting at or below c leave the whole f-family over [c..d]
    untouched (checked on random D, l, S)."""
    for _ in range(150):
        c = rng.randint(base + 2, base + 4)
        d = c + rng.randint(1, 3)
        a = rng.randint(base - 1, base + 1)
        b = rng.randint(a + 1, c)
        e = rng.choice([0, 1])
        if b + e > c:
            continue
        univ = list(range(c + 1, d + 1))
        s = frozenset(rng.sample(univ, rng.randint(0, len(univ))))
        dd = frozenset(rng.sample(univ, rng.randint(0, min(2, len(univ)))))
        vals = tuple(rng.randint(0, 1) for _ in univ)
        l = DeltaFunction(c + 1, vals)
        fp = f_poly(c, d, dd, l, s)
        rep.check(
            f"sigma-fixes-f a={a} b={b} e={e} c={c} d={d} D={sorted(dd)}"
            f" l={vals} S={sorted(s)}",
            fp,
            sigma_apply(a, b, b + e, fp),
        )


def _g_identities(rep: VerdictReport, i: int, j: int):
    oo = lambda a, b: frozenset(range(a + 1, b))
    oc = lambda a, b: frozenset(range(a + 1, b + 1))
    one = Polynomial.const(1)
    rep.check(f"g1-full i={i} j={j}", x(i) - y(i + 1), g1(i, j, oo(i, j)))
    rep.check(f"g2-unit-a i={i} j={j}", one, g2(i, i, j, j, oc(i, j)))
    rep.check(f"g2-unit-b i={i} j={j}", one, g2(i, i + 1, j, j, oc(i, j)))
    if i + 1 < j:
        for s in _subsets(oo(i + 1, j)):
            tag = f"i={i} j={j} S={sorted(s)}"
            rep.check(
                f"g1-peel {tag}",
                g1(i, j, s),
                (x(i) - y(i + 1)) * g1(i + 1, j, s)
                + (x(i) - x(i + 1)) * g1(i, j, s | {i + 1}),
            )
            rep.check(
                f"g2-merge-a {tag}",
                g2(i, i, i + 1, j, s | {i + 1}),
                g1(i + 1, j, s) + g1(i, j, s | {i + 1}),
            )
            rep.check(
                f"g2-merge-b {tag}", g2(i, i + 1, i + 1, j, s | {i + 1}), g1(i + 1, j, s)
            )
            for q in range(i + 2, j + 1):
                rep.check(
                    f"g2-left-a q={q} {tag}",
                    g2(i, i, q, j, s),
                    (x(i + 1) - y(i + 1)) * g2(i + 1, i + 1, q, j, s)
                    + (x(i) - x(i + 1)) * g2(i, i, q, j, s | {i + 1}),
                )
                rep.check(
                    f"g2-left-b q={q} {tag}",
                    g2(i, i + 1, q, j, s | {i + 1}),
                    g2(i + 1, i + 1, q, j, s),
                )
                if i + 2 in s:
                    rep.check(
                        f"g2-left-c q={q} {tag}",
                        g2(i, i + 2, q, j, s),
                        (x(i) - y(i + 1)) * g2(i + 1, i + 2, q, j, s),
                    )
                for k in range(i + 2, q + 1):
                    rep.check(
                        f"g2-left-d q={q} k={k} {tag}",
                        g2(i, k, q, j, s),
                        (x(i) - y(i + 1)) * g2(i + 1, k, q, j, s)
                        + (x(i) - x(i + 1)) * g2(i, k, q, j, s | {i + 1}),
                    )
    for m in range(i + 2, j):
        for s in _subsets(oo(m, j)):
            tag = f"i={i} m={m} j={j} S={sorted(s)}"
            rep.check(
                f"g1-splice {tag}",
                g1(i, j, oo(i, m) | s),
                (x(i) - y(i + 1)) * g1(m, j, s)
                + g1(i, j, (oo(i, m - 1) | {m}) | s)
                + (x(m - 1) - x(m)) * g1(i, j, oc(i, m) | s),
            )
    for q in range(i + 2, j):
        for s in _subsets(oo(q, j)):
            tag = f"i={i} q={q} j={j} S={sorted(s)}"
            rep.check(
                f"g2-qstep-a {tag}",
                g2(i, i, q, j, oc(i, q) | s),
                g1(q, j, s) + g2(i, i, q - 1, j, oc(i, q) | s),
            )
            rep.check(
                f"g2-qstep-b {tag}",
                g2(i, i + 1, q, j, oc(i, q) | s),
                g1(q, j, s) + g2(i, i + 1, q - 1, j, oc(i, q) | s),
            )
    for q in range(i + 3, j + 1):
        for m in range(i + 2, q):
            for s in _subsets(oc(m, j)):
                tag = f"i={i} m={m} q={q} j={j} S={sorted(s)}"
                rep.check(
                    f"g2-mid-a {tag}",
                    g2(i, i, q, j, oo(i, m) | s),
                    (x(m) - y(m)) * g2(m, m, q, j, s)
                    + g2(i, i, q, j, (oo(i, m - 1) | {m}) | s)
                    + (x(m - 1) - x(m)) * g2(i, i, q, j, oc(i, m) | s),
                )
                lhs = (x(m) - y(m)) * g2(m, m, q, j, s) + (
                    x(m - 1) - x(m)
                ) * g2(i, i + 1, q, j, oc(i, m) | s)
                if i + 1 < m - 1:
                    lhs = lhs + g2(i, i + 1, q, j, (oo(i, m - 1) | {m}) | s)
                rep.check(f"g2-mid-b {tag}", g2(i, i + 1, q, j, oo(i, m) | s), lhs)
                rep.check(
                    f"g2-mid-c {tag}",
                    g2(i, m, q, j, (oo(i, m - 1) | {m}) | s),
                    (x(i) - y(i + 1)) * g2(m, m, q, j, s),
                )
                if m + 1 in s and m + 1 <= q:
                    rep.check(
                        f"g2-mid-d {tag}",
                        g2(i, m + 1, q, j, oo(i, m) | s),
                        (x(i) - y(i + 1)) * g2(m, m + 1, q, j, s),
                    )
                for k in range(m + 2, q + 1):
                    rep.check(
                        f"g2-mid-e k={k} {tag}",
                        g2(i, k, q, j, oo(i, m) | s),
                        (x(i) - y(i + 1)) * g2(m, k, q, j, s)
                        + g2(i, k, q, j, (oo(i, m - 1) | {m}) | s)
                        + (x(m - 1) - x(m)) * g2(i, k, q, j, oc(i, m) | s),
                    )


def _ends_of(s: frozenset) -> list[frozenset]:
    items = sorted(s)
    return [frozenset(items[k:]) for k in range(len(items) + 1)]


def _injections(sources, targets, floor, skip=0):
    """The injections phi of sources into targets with phi(t) >= floor[t], in
    one fixed order, from the skip-th on: a branch that lies wholly before
    it is counted, not built."""
    sources = list(sources)
    if not sources:
        yield {}
        return
    t = sources[0]
    for img in targets:
        if img >= floor[t]:
            rest = [u for u in targets if u != img]
            if skip and skip >= (n := _count_injections(sources[1:], rest, floor)):
                skip -= n
                continue
            for phi in _injections(sources[1:], rest, floor, skip):
                yield {t: img, **phi}
            skip = 0


def _count_injections(sources, targets, floor) -> int:
    """How many maps `_injections` yields: the targets at or above each floor
    are nested, so the k-th highest floor has its own less the k taken above."""
    floors = sorted((floor[t] for t in sources), reverse=True)
    return math.prod(max(0, sum(u >= f for u in targets) - k) for k, f in enumerate(floors))


def _f_of(i, j, d, lvals, s):
    """f_poly with the selector l read off its values on (i..j]."""
    return f_poly(i, j, d, lambda t: lvals[t - i - 1], s)


def _lin_reduce_case(rep: VerdictReport, i, j, d, lvals, s, r, phi, build_f):
    if any(lvals[t - i - 1] for t in r & d):  # l on (i..j] is lvals
        return
    subst = {}
    hit = False
    for t in sorted(r):
        # the hit interval is half-open: a divisor strictly below phi(t)
        span = set(range(t + lvals[t - i - 1], phi[t])) & d
        if span:
            hit = True
            subst[phi[t]] = d_floor(d, i, phi[t])
        elif t != j:
            subst[phi[t]] = t
    if not hit and r != s:
        return  # an end R strictly smaller than S with no D-hits asserts nothing
    reduced = lin_reduce(build_f(i, j, d, lvals, s), subst)
    tag = f"collapse i={i} j={j} D={sorted(d)} l={lvals} S={sorted(s)} R={sorted(r)} phi={phi}"
    if hit:
        rep.check(tag, Polynomial(), reduced)
    else:
        image = {phi[t] for t in s}
        prod = Polynomial.const(1)
        for t in range(i + 1, j + 1):
            if t not in image:
                prod = prod * (x(d_floor(d, i, t)) - y(t))
        rep.check(tag, lin_reduce(prod, subst), reduced)


def _lin_tuples(i: int, j: int):
    for d in _subsets(range(i + 1, j)):
        for lvals in product((0, 1), repeat=j - i):
            for s in _subsets(range(i + 1, j + 1)):
                for r in _ends_of(s):
                    floor = {t: t + lvals[t - i - 1] for t in r}
                    for phi in _injections(sorted(r), list(range(i + 1, j + 1)), floor):
                        yield d, lvals, s, r, phi


def _lin_reduce_exhaustive(rep: VerdictReport, i: int, width: int):
    for w in range(1, width + 1):
        j = i + w
        # the tuples come grouped by (D, l, S): one entry builds each f once
        build_f = functools.lru_cache(maxsize=1)(_f_of)
        for d, lvals, s, r, phi in _lin_tuples(i, j):
            _lin_reduce_case(rep, i, j, d, lvals, s, r, phi, build_f)


def _lin_reduce_sampled(rep: VerdictReport, rng: random.Random, i: int,
                        width: int, samples: int):
    j = i + width
    pool = list(range(i + 1, j + 1))
    done = 0
    attempts = 0
    while done < samples and attempts < samples * 40:
        attempts += 1
        d = frozenset(rng.sample(range(i + 1, j), rng.randint(0, width - 1)))
        lvals = tuple(rng.randint(0, 1) for _ in range(width))
        s = frozenset(rng.sample(pool, rng.randint(0, width)))
        ends = _ends_of(s)
        r = ends[rng.randrange(len(ends))]
        floor = {t: t + lvals[t - i - 1] for t in r}
        count = _count_injections(r, pool, floor)
        if not count:
            continue
        phi = next(_injections(sorted(r), pool, floor, rng.randrange(count)))
        _lin_reduce_case(rep, i, j, d, lvals, s, r, phi, _f_of)
        done += 1


# -- suite: raising oracle --------------------------------------------------------


def admissible_signed_sets(i: int, j: int) -> list[SignedSet]:
    """All-even and one-barred signed (i..j]-sets containing j or j barred."""
    univ = list(range(i + 1, j + 1))
    out = []
    for rest in _subsets([t for t in univ if t != j]):
        out.append(SignedSet.of(evens=set(rest) | {j}))
    for q in univ:
        for rest in _subsets([t for t in univ if t != q]):
            if q == j or j in rest:
                out.append(SignedSet.of(evens=rest, odds=[q]))
    return out


def verify_raising_oracle(width: int = 5, offsets=(1,)) -> VerdictReport:
    rep = VerdictReport("raising-oracle", {"width": width, "offsets": list(offsets)})
    _check_parameters(rep.suite, rep.parameters)
    for i in offsets:
        for w in range(1, width + 1):
            j = i + w
            deltas = [(dv, DeltaFunction(i, dv)) for dv in product((0, 1), repeat=w)]
            sets = admissible_signed_sets(i, j)
            for m in sets:
                tag = f"M=ev{sorted(m.evens)}od{sorted(m.odds)}"
                for eps, (dv, delta) in product((0, 1), deltas):
                    rec = raising_rec(i, j, eps, delta, m)
                    rep.check(f"oracle i={i} j={j} eps={eps} d={dv} {tag}",
                              raising_closed(i, j, eps, delta, m), rec)
            # the one-barred sets N = rest + {q barred}, with j in N
            for n_set in (m for m in sets if m.odds):
                (q,) = n_set.odds
                tag = f"N=ev{sorted(n_set.evens)}"
                for eps, (dv, delta), xi in product((0, 1), deltas, (0, 1)):
                    lhs, rhs = two_term_sum_sides(i, j, q, eps, xi, delta, n_set)
                    rep.check(f"two-term i={i} j={j} q={q} eps={eps} xi={xi} d={dv} {tag}",
                              rhs, lhs)
    return rep.finish()


# -- random-weight suites: signature bridge, duality, certificates ----------------


def _sampled_weights(rep: VerdictReport, draw):
    """Yield (lam, tag) for the samples of a random-weight suite: p cycles
    over ps, n is drawn from LEAST_N[suite]..max_n, then `draw(rng, p, n)`
    draws the weight."""
    params = rep.parameters
    _check_parameters(rep.suite, params)
    rng = random.Random(params["seed"])
    ps = params["ps"]
    for case in range(params["samples"]):
        p = ps[case % len(ps)]
        n = rng.randint(LEAST_N[rep.suite], params["max_n"])
        lam = draw(rng, p, n)
        yield lam, f"p={p} lam={lam.parts}"


def verify_signature_bridge(ps=(3, 5, 7), max_n: int = 6, samples: int = 10000,
                            hi: int = 12, seed: int = 424242) -> VerdictReport:
    rep = VerdictReport("signature-bridge", {
        "ps": list(ps), "max_n": max_n, "samples": samples, "hi": hi, "seed": seed,
    })
    draw = lambda rng, p, n: random_dominant_p_strict(rng, p, n, hi)
    for lam, tag in _sampled_weights(rep, draw):
        for beta in range(lam.p):
            rep.check(
                f"bridge {tag} beta={beta}",
                reduced_product(r_beta(lam, beta)),
                cr.beta_signature(lam, beta, reduced=True),
            )
    return rep.finish()


def verify_duality(ps=(3, 5, 7), max_n: int = 6, samples: int = 10000,
                   seed: int = 31337) -> VerdictReport:
    rep = VerdictReport("duality", {
        "ps": list(ps), "max_n": max_n, "samples": samples, "seed": seed,
    })
    for lam, tag in _sampled_weights(rep, random_weight):
        n, p = lam.n, lam.p
        classes = ix.classify_indices(lam)
        duals = ix.classify_indices(lam.minus_w0())
        for i in range(1, n + 1):
            cls, dual = classes[i - 1], duals[n - i]
            # rebuilt per index: an oracle for the one-pass classification
            u = r_beta(lam, lam.residue(i))
            full = reduced_product(u)
            tail = reduced_product(u[i - 1:])
            rep.check(
                f"tail-shortcut {tag} i={i}",
                any(s == MINUS and mk == i for s, mk in full),
                any(s == MINUS and mk == i for s, mk in tail),
            )
            if i < n and congruent(lam.entry(n), 0, p):
                rep.check(f"zero-boundary {tag} i={i}", cls.normal, cls.tensor_normal)
            rep.check(f"conormal-dual {tag} i={i}", cls.tensor_conormal, dual.tensor_normal)
            rep.check(f"cogood-dual {tag} i={i}", cls.tensor_good, dual.tensor_cogood)
            lowered = lam.sub_eps(i)
            up = ix.reduce_residue(lowered, res_p(lowered.entry(i) + 1, p))
            rep.check(
                f"good-conormal {tag} i={i}",
                cls.tensor_good,
                cls.tensor_normal and i in up.tensor_conormal,
            )
            rep.check(f"good-cogood {tag} i={i}", cls.tensor_good, i == up.tensor_cogood)
    return rep.finish()


def verify_certificates(ps=(3, 5, 7), max_n: int = 6, samples: int = 10000,
                        seed: int = 8128) -> VerdictReport:
    rep = VerdictReport("certificates", {
        "ps": list(ps), "max_n": max_n, "samples": samples, "seed": seed,
    })
    for lam, tag in _sampled_weights(rep, random_weight):
        n = lam.n
        normals = {c.index for c in ix.classify_indices(lam) if c.normal}
        for i in range(1, n):
            if i in normals:
                plan = ix.primitive_plan(lam, i)
                rep.record(f"plan {tag} i={i}", ix.validate_plan(lam, plan), plan.to_json)
                try:
                    ix.non_normal_certificate(lam, i)
                    rep.record(f"cert-reject {tag} i={i}", False, "no error")
                except ix.IsNormal:
                    rep.record(f"cert-reject {tag} i={i}", True)
            else:
                cert = ix.non_normal_certificate(lam, i)
                rep.record(f"cert {tag} i={i}", ix.validate_certificate(lam, cert),
                           cert.to_json)
                try:
                    ix.primitive_plan(lam, i)
                    rep.record(f"plan-reject {tag} i={i}", False, "no error")
                except ix.NotNormal:
                    rep.record(f"plan-reject {tag} i={i}", True)
        for h in range(1, n - 1):
            if h not in normals:
                continue
            for i in range(h + 1, n):
                if lam.residue(h) == lam.residue(i):
                    plan = ix.extension_plan(lam, h, i)
                    rep.record(f"extension {tag} h={h} i={i}",
                               ix.validate_plan(lam, plan), plan.to_json)
    return rep.finish()


RUNNERS = {
    "reduction": verify_reduction,
    "flows": verify_flows,
    "poly-identities": verify_poly_identities,
    "raising-oracle": verify_raising_oracle,
    "signature-bridge": verify_signature_bridge,
    "duality": verify_duality,
    "certificates": verify_certificates,
}
_SAMPLED = {"p": "ps", "n": "max_n", "samples": "samples", "seed": "seed"}
# the `spinbranch verify` flags each suite takes, and the keyword each sets
SUITE_FLAGS = {
    "reduction": {"samples": "samples", "seed": "seed"},
    "flows": {"n": "max_domain"},
    "poly-identities": {"width": "width", "samples": "lin_samples", "seed": "seed"},
    "raising-oracle": {"width": "width"},
    "signature-bridge": _SAMPLED,
    "duality": _SAMPLED,
    "certificates": _SAMPLED,
}
FLAGS = tuple(dict.fromkeys(flag for table in SUITE_FLAGS.values() for flag in table))


def suite_arguments(suites, flags: dict) -> dict[str, dict]:
    """The keyword arguments of each suite from the flags that are set (flag
    name -> value, None when unset); `--p` sets ps to that one
    characteristic.  A set flag that none of `suites` takes, or values a
    suite cannot run with, raise InvalidSuiteParameter before any suite
    runs."""
    given = {flag: value for flag, value in flags.items() if value is not None}
    stray = [f"--{flag}" for flag in given if not any(flag in SUITE_FLAGS[s] for s in suites)]
    if stray:
        raise InvalidSuiteParameter(f"{', '.join(stray)} not taken by {', '.join(suites)}")
    if "p" in given:
        given["p"] = (check_characteristic(given["p"]),)
    out = {}
    for suite in suites:
        table = SUITE_FLAGS[suite]
        out[suite] = {table[flag]: value for flag, value in given.items() if flag in table}
        _check_parameters(suite, out[suite])
    return out
