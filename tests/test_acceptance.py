"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
verdicts; every tolerance and budget is pinned here.
"""
import time

from definitional import partitions_of
from spinbranch.crystal import (
    PStrictPartition,
    beta_of_content,
    beta_signature,
    cont_p,
    contents_for,
    crystal_graph,
    e_tilde,
    f_tilde,
    reduce_content,
    rim_signature,
)
from spinbranch.sigseq import MINUS, PLUS
from spinbranch.verify import (
    verify_certificates,
    verify_duality,
    verify_flows,
    verify_poly_identities,
    verify_raising_oracle,
    verify_reduction,
    verify_signature_bridge,
)


def _verdict(tag: str, ok: bool, detail: str = ""):
    print(f"criterion {tag}: {'PASS' if ok else 'FAIL'}{' ' + detail if detail else ''}")
    assert ok, detail


def _report_verdict(tag: str, report, elapsed: float, budget: float):
    detail = f"({report.cases} cases, {elapsed:.1f}s)"
    ok = report.passed and elapsed < budget
    if not report.passed:
        detail += f" first failures: {report.failures[:3]}"
    if elapsed >= budget:
        detail += f" over budget {budget}s"
    _verdict(tag, ok, detail)


def test_c01_worked_example():
    start = time.time()
    lam = PStrictPartition((16, 11, 10, 10, 9, 5, 1), 5)
    ok = [cont_p(c, 5) for c in range(1, 6)] == [0, 1, 2, 1, 0]
    raw = rim_signature(lam, 0)
    ok = ok and [s for s, _ in raw] == [MINUS, MINUS, MINUS, PLUS, PLUS, MINUS, MINUS]
    red = rim_signature(lam, 0, reduced=True)
    ok = ok and [s for s, _ in red] == [MINUS, MINUS, MINUS]
    ok = ok and reduce_content(lam, 0).good == [(1, 16)]
    ok = ok and e_tilde(0, lam).parts == (15, 11, 10, 10, 9, 5, 1)
    ok = ok and f_tilde(0, lam) is None
    elapsed = time.time() - start
    _verdict("01 worked-example", ok and elapsed < 1.0, f"({elapsed:.2f}s)")


def test_c02_signature_bridge():
    start = time.time()
    report = verify_signature_bridge(ps=(3, 5, 7), max_n=6, samples=10000, hi=12)
    _report_verdict("02 signature-bridge", report, time.time() - start, 120.0)


def test_c03_dictionary():
    start = time.time()
    cases = 0
    failures = []
    for p in (3, 5):
        for n in range(0, 13):
            for parts in partitions_of(n):
                try:
                    lam = PStrictPartition(parts, p)
                except ValueError:
                    continue
                padded = lam.pad_weight()
                for i in contents_for(p, max([1] + [v + 2 for v in parts])):
                    beta = beta_of_content(i, p)
                    rim = rim_signature(lam, i, reduced=True)
                    expected = rim + ((MINUS, padded.n),) if beta == 0 else rim
                    cases += 1
                    if expected != beta_signature(padded, beta, reduced=True):
                        failures.append((p, parts, i))
    elapsed = time.time() - start
    _verdict(
        "03 dictionary",
        not failures and elapsed < 60.0,
        f"({cases} cases, {elapsed:.1f}s){failures[:3] or ''}",
    )


def test_c04_reduction_well_defined():
    start = time.time()
    report = verify_reduction(samples=10000, max_len=20, orders=10)
    _report_verdict("04 reduction", report, time.time() - start, 120.0)


def test_c05_flow_constructions():
    start = time.time()
    report = verify_flows(max_domain=6)
    _report_verdict("05 flows", report, time.time() - start, 300.0)


def test_c06_poly_identities():
    start = time.time()
    # any inexact internal division raises NotDivisible, so a green run also
    # certifies exactness of every division step
    report = verify_poly_identities(width=6, lin_width=4, lin_samples=4000)
    _report_verdict("06 poly-identities", report, time.time() - start, 600.0)


def test_c07_raising_oracle():
    start = time.time()
    report = verify_raising_oracle(width=5)
    _report_verdict("07 raising-oracle", report, time.time() - start, 600.0)


def test_c08_duality():
    start = time.time()
    report = verify_duality(ps=(3, 5, 7), max_n=6, samples=10000)
    _report_verdict("08 duality", report, time.time() - start, 120.0)


def test_c09_certificates_planners():
    start = time.time()
    report = verify_certificates(ps=(3, 5, 7), max_n=6, samples=10000)
    _report_verdict("09 certificates-planners", report, time.time() - start, 120.0)


def _enumerate_restricted_oracle(p: int, n: int) -> set:
    """Direct filter enumeration, independent of the crystal module."""

    def parts_gen(total, cap):
        if total == 0:
            yield ()
            return
        for first in range(min(cap, total), 0, -1):
            for rest in parts_gen(total - first, first):
                yield (first,) + rest

    def ok(parts):
        for a, b in zip(parts, parts[1:]):
            if a == b and a % p != 0:
                return False
        ext = parts + (0,)
        for a, b in zip(ext, ext[1:]):
            if a % p == 0:
                if a - b >= p:
                    return False
            elif a - b > p:
                return False
        return True

    return {parts for parts in parts_gen(n, n) if ok(parts)}


def test_c10_crystal_consistency():
    start = time.time()
    failures = []
    cases = 0
    for p in (3, 5):
        reachable = {(): PStrictPartition((), p)}
        frontier = [PStrictPartition((), p)]
        for _ in range(10):
            new = []
            for lam in frontier:
                for i in contents_for(p, 12):
                    up = f_tilde(i, lam)
                    if up is not None and up.parts not in reachable:
                        reachable[up.parts] = up
                        new.append(up)
            frontier = new
        by_size: dict[int, set] = {}
        for parts in reachable:
            by_size.setdefault(sum(parts), set()).add(parts)
        graph = crystal_graph(p, 10)
        for n in range(11):
            cases += 1
            oracle = _enumerate_restricted_oracle(p, n)
            if by_size.get(n, set()) != oracle:
                failures.append((p, n, "reachable != enumeration"))
            if {v for v in graph.vertices if sum(v) == n} != oracle:
                failures.append((p, n, "graph vertices != enumeration"))
        for parts in reachable:
            lam = reachable[parts]
            for i in contents_for(p, 12):
                up = f_tilde(i, lam)
                cases += 1
                if up is not None and e_tilde(i, up).parts != parts:
                    failures.append((p, parts, i, "e(f) != id"))
            if parts and not any(reduce_content(lam, i).good for i in contents_for(p, 12)):
                failures.append((p, parts, "no good node"))
    elapsed = time.time() - start
    _verdict(
        "10 crystal-consistency",
        not failures and elapsed < 120.0,
        f"({cases} cases, {elapsed:.1f}s){failures[:3] or ''}",
    )
