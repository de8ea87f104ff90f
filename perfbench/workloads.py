"""The four workloads as lists of ops.

An op is one user-level call, timed on its own.  Each op comes with a check
that runs after it, untimed and untraced, and returns whether the output
is right and a digest of its semantic output (classifications, normal
forms, vertices and edges; never raw report text).

Library functions are always looked up on their module at call time, so
the tracer's wrappers see every call.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import partial
from itertools import combinations, product
from typing import Any, Callable

import oracles
from spinbranch import cli
from spinbranch import crystal as cr
from spinbranch import indices as ix
from spinbranch import raising as ra
from spinbranch import sigseq as sq
from spinbranch import verify as vf
from spinbranch.core import SignedSet, Weight

Check = Callable[[Any], tuple[bool, Any, str]]


@dataclass
class Op:
    run: Callable[[], Any]
    check: Check
    group: str  # the cell the op belongs to, for per-cell statistics


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


# -- algebra ---------------------------------------------------------------------


def _equal_sides(pair):
    a, b = pair
    return a == b, a.to_json(), "" if a == b else f"{a} != {b}"


def algebra(inp: dict, out_path: str) -> list[Op]:
    i = inp["offset"]
    ops = []
    for w in inp["oracle_widths"]:
        j = i + w
        for m in vf.admissible_signed_sets(i, j):
            for eps in (0, 1):
                for dv in product((0, 1), repeat=w):
                    delta = ra.DeltaFunction(i, dv)

                    def run(j=j, eps=eps, delta=delta, m=m):
                        return (ra.raising_rec(i, j, eps, delta, m),
                                ra.raising_closed(i, j, eps, delta, m))

                    ops.append(Op(run, _equal_sides, f"oracle-{w}"))
    for w in inp["two_term_widths"]:
        j = i + w
        for q in range(i + 1, j + 1):
            rest_univ = [t for t in range(i + 1, j + 1) if t != q]
            for r in range(len(rest_univ) + 1):
                for rest in combinations(rest_univ, r):
                    if not (q == j or j in rest):
                        continue
                    n_set = SignedSet.of(evens=rest, odds=[q])
                    for eps in (0, 1):
                        for dv in product((0, 1), repeat=w):
                            delta = ra.DeltaFunction(i, dv)
                            for xi in (0, 1):
                                def run(j=j, q=q, eps=eps, xi=xi, delta=delta, n_set=n_set):
                                    return ra.two_term_sum_sides(i, j, q, eps, xi, delta, n_set)

                                ops.append(Op(run, _equal_sides, f"two-term-{w}"))
    for params in inp["poly_identities"]:
        def run(params=params):
            return vf.verify_poly_identities(offsets=(i,), **params)

        def check(rep):
            ok = rep.passed and rep.cases > 0
            return ok, [rep.cases, rep.passed], "" if ok else rep.to_json()[:300]

        ops.append(Op(run, check, "poly-identities"))
    return ops


# -- weights ----------------------------------------------------------------------


def _flags(entry) -> list:
    return [entry["residue"], entry["tensor_normal"], entry["normal"],
            entry["tensor_conormal"], entry["good"], entry["tensor_good"],
            entry["tensor_cogood"]]


def _cli_op(argv: list[str], out_path: str, judge, group: str) -> Op:
    """`spinbranch ARGV --out OUT_PATH`, judged on the report it writes."""
    argv = argv + ["--out", out_path]

    def check(code):
        if code != 0:
            return False, None, f"exit {code}"
        with open(out_path) as fh:
            return judge(json.load(fh))

    return Op(lambda: cli.main(argv), check, group)


def _judge_weight(p: int, parts: list[int], rep: dict):
    """Check an `analyze --weight` report against the reference reductions."""
    semantic = [[_flags(e) for e in rep["indices"]], rep["reduced_signatures"]]
    red = {}
    for beta in range(p):
        values = oracles.sign_map(parts, p, beta)
        if rep["r_maps"][str(beta)]["values"] != {str(k): v for k, v in values.items()}:
            return False, semantic, f"r_map beta={beta}"
        red[beta] = oracles.reduced(values)
        if [tuple(e) for e in rep["reduced_signatures"][str(beta)]] != red[beta]:
            return False, semantic, f"reduced signature beta={beta}"
    for e in rep["indices"]:
        i, x = e["i"], e["entry"]
        if e["residue"] != oracles.residue(x, p):
            return False, semantic, f"residue i={i}"
        if e["tensor_normal"] != (("-", i) in red[oracles.residue(x, p)]):
            return False, semantic, f"tensor_normal i={i}"
        if e["tensor_conormal"] != (("+", i) in red[oracles.residue(x + 1, p)]):
            return False, semantic, f"tensor_conormal i={i}"
        if i < len(parts) and not e["normal"]:
            cert = e.get("certificate")
            if cert is None or cert["c"] % p == 0:
                return False, semantic, f"certificate i={i}"
    return True, semantic, ""


def weights_long(inp: dict, out_path: str) -> list[Op]:
    return [
        _cli_op(["analyze", "--p", str(w["p"]), "--weight=" + ",".join(map(str, w["parts"]))],
                out_path, partial(_judge_weight, w["p"], w["parts"]),
                f"n{w['band']}-{w['kind']}")
        for w in inp["weights"]
    ]


def _short_op(lam: Weight, strict: bool):
    report = ix.index_report(lam)
    classes = {c.index: c for group in report.values() for c in group}
    valid = []
    for i in range(1, lam.n):
        if classes[i].normal:
            valid.append(ix.validate_plan(lam, ix.primitive_plan(lam, i)))
        else:
            valid.append(ix.validate_certificate(lam, ix.non_normal_certificate(lam, i)))
    bridge = []
    if strict:
        for beta in range(lam.p):
            ours = sq.reduced_product(sq.r_beta(lam, beta))
            bridge.append((ours, cr.beta_signature(lam, beta, reduced=True)))
    return classes, valid, bridge


def weights_short(inp: dict, out_path: str) -> list[Op]:
    ops = []
    for w in inp["weights"]:
        lam = Weight(tuple(w["parts"]), w["p"])

        def run(lam=lam, strict=w["strict"]):
            return _short_op(lam, strict)

        def check(result, w=w):
            classes, valid, bridge = result
            p, parts = w["p"], w["parts"]
            if not all(valid):
                return False, None, "certificate or plan failed validation"
            if any(a != b for a, b in bridge):
                return False, None, "signature bridge mismatch"
            red = {beta: oracles.reduced(oracles.sign_map(parts, p, beta)) for beta in range(p)}
            for i, x in enumerate(parts, start=1):
                c = classes[i]
                if c.tensor_normal != (("-", i) in red[oracles.residue(x, p)]):
                    return False, None, f"tensor_normal i={i}"
            semantic = [
                [[c.residue, c.tensor_normal, c.normal, c.tensor_conormal, c.good,
                  c.tensor_good, c.tensor_cogood] for _, c in sorted(classes.items())],
                [list(a) for a, _ in bridge],
            ]
            return True, semantic, ""

        ops.append(Op(run, check, "strict" if w["strict"] else "any"))
    return ops


# -- crystal ------------------------------------------------------------------------


def _judge_graph(p: int, max_size: int, graph: dict):
    semantic = [sorted(graph["vertices"]), sorted(graph["edges"])]
    vertices = [tuple(v) for v in graph["vertices"]]
    counts = [0] * (max_size + 1)
    for v in vertices:
        if not oracles.is_restricted(v, p):
            return False, semantic, f"vertex {v} is not restricted"
        counts[sum(v)] += 1
    if counts != oracles.odd_part_counts(p, max_size):
        return False, semantic, f"vertex counts {counts}"
    vset = set(vertices)
    for a, i, b in graph["edges"]:
        if tuple(a) not in vset or tuple(b) not in vset or not oracles.is_edge(a, i, b, p):
            return False, semantic, f"edge {a} -{i}-> {b}"
    return True, semantic, ""


def _judge_partition(p: int, parts: list[int], rep: dict):
    contents = {
        i: [e[k] for k in ("reduced", "good", "normal", "conormal", "cogood", "e_tilde", "f_tilde")]
        for i, e in rep["contents"].items()
    }
    semantic = [contents, rep.get("branching"),
                [_flags(e) for e in rep["padded_weight"]["indices"]]]
    lam = cr.PStrictPartition(tuple(parts), p)
    for i, entry in rep["contents"].items():
        up = entry["f_tilde"]
        if up is None:
            continue
        if not oracles.is_restricted(up, p) or sum(up) != sum(parts) + 1:
            return False, semantic, f"f_tilde({i}) = {up}"
        back = cr.e_tilde(int(i), cr.PStrictPartition(tuple(up), p))
        if back is None or back.parts != lam.parts:
            return False, semantic, f"e_tilde(f_tilde({i})) != lambda"
    return True, semantic, ""


def crystal(inp: dict, out_path: str) -> list[Op]:
    ops = [
        _cli_op(["crystal", "--p", str(g["p"]), "--max", str(g["max"]), "--format", "json"],
                out_path, partial(_judge_graph, g["p"], g["max"]), "graph")
        for g in inp["graphs"]
    ]
    p = inp["partitions"]["p"]
    ops += [
        _cli_op(["analyze", "--p", str(p), "--partition", ",".join(map(str, parts))],
                out_path, partial(_judge_partition, p, parts), "partition")
        for parts in inp["partitions"]["parts"]
    ]
    return ops


BY_NAME = {
    "algebra": algebra,
    "weights-long": weights_long,
    "weights-short": weights_short,
    "crystal": crystal,
}
