import hashlib
import json
import random
import time
from itertools import product

import pytest

from spinbranch import verify
from spinbranch.cli import main
from spinbranch.core import Weight
from spinbranch.poly import Polynomial
from spinbranch.raising import U0Element
from spinbranch.verify import (
    InvalidSuiteParameter,
    VerdictReport,
    random_dominant_p_strict,
    verify_certificates,
    verify_duality,
    verify_signature_bridge,
)


def test_signature_bridge_runs_long_weights_in_seconds(capsys):
    # redrawing a whole weight until it is p-strict would take about
    # 800 000 draws per weight at n = 20 and p = 7; entry by entry it takes
    # a few draws per entry
    start = time.perf_counter()
    code = main(["verify", "signature-bridge", "--p", "7", "--n", "24", "--samples", "20"])
    assert code == 0 and time.perf_counter() - start < 5.0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] and report["cases"] == 20 * 7


def test_random_dominant_p_strict_reaches_every_p_strict_weight():
    rng = random.Random(5)
    for p in (3, 5, 7):
        every = {parts for parts in product(range(5), repeat=3)
                 if list(parts) == sorted(parts, reverse=True) and Weight(parts, p).is_p_strict()}
        seen = {random_dominant_p_strict(rng, p, 3, hi=4).parts for _ in range(2000)}
        assert seen == every, p
        for n in (13, 40):  # more entries than [0..12] has values prime to p
            lam = random_dominant_p_strict(rng, p, n)
            assert lam.n == n and lam.is_p_strict() and 0 <= min(lam.parts) <= max(lam.parts) <= 12


def test_duality_runs_at_characteristic_zero():
    report = verify_duality(ps=(0,), samples=300)
    assert report.cases > 0 and report.passed, report.failures[:3]


def test_certificates_run_at_characteristic_zero():
    report = verify_certificates(ps=(0,), samples=200)
    assert report.cases > 0 and report.passed, report.failures[:3]


def test_certificate_failures_carry_the_payload_json(monkeypatch):
    # the JSON of a failing plan or certificate is built only on a failure;
    # the report is pinned at the version that built it for every payload
    from spinbranch import indices

    monkeypatch.setattr(indices, "validate_plan", lambda lam, plan: False)
    monkeypatch.setattr(indices, "validate_certificate", lambda lam, cert: False)
    report = verify_certificates(ps=(0, 5), max_n=5, samples=40, seed=3)
    assert (report.cases, len(report.failures)) == (228, 121)
    assert {f[0].split()[0] for f in report.failures} == {"cert", "extension", "plan"}
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest[:16] == "0a8ce90ec1121b2d"


def test_signature_bridge_rejects_characteristic_zero():
    with pytest.raises(InvalidSuiteParameter, match="p = 0"):
        verify_signature_bridge(ps=(0,), samples=10)
    with pytest.raises(InvalidSuiteParameter, match="p = 0"):
        verify_signature_bridge(ps=(3, 0), samples=10)


def test_random_suites_reject_too_small_weights():
    with pytest.raises(InvalidSuiteParameter):
        verify_duality(max_n=0)
    with pytest.raises(InvalidSuiteParameter):
        verify_certificates(max_n=1)


def test_a_report_with_no_cases_does_not_pass():
    empty = VerdictReport("empty", {})
    assert not empty.passed
    empty.check("one", 1, 1)
    assert empty.passed
    assert verify_duality(samples=0).passed is False


def test_failures_are_reported_with_tags_and_both_sides(monkeypatch):
    # every closed side off by one: each case fails, and the report (tags,
    # expected and actual texts, order) is pinned at the version that ran
    # the oracle through a worker pool
    real_closed, real_sides = verify.raising_closed, verify.two_term_sum_sides
    one = U0Element({(): Polynomial.const(1)})

    def off_sides(*args):
        lhs, rhs = real_sides(*args)
        return lhs, rhs + one

    monkeypatch.setattr(verify, "raising_closed", lambda *args: real_closed(*args) + one)
    monkeypatch.setattr(verify, "two_term_sum_sides", off_sides)
    rep = verify.verify_raising_oracle(width=2)
    assert rep.cases == len(rep.failures) == 104
    assert hashlib.sha256(rep.to_json().encode()).hexdigest()[:16] == "01f37d002bb6aa0f"


def test_a_drawn_injection_is_the_one_the_listing_has_there():
    # `_lin_reduce_sampled` draws k below the count and builds only
    # the k-th injection; it must be the map the full listing has at k, with
    # its keys in the same order, since a case's tag prints it
    rng = random.Random(5)
    for _ in range(400):
        i = rng.randint(0, 3)
        pool = list(range(i + 1, i + rng.randint(1, 6) + 1))
        r = sorted(rng.sample(pool, rng.randint(0, len(pool))))
        floor = {t: t + rng.randint(0, 1) for t in r}
        listing = list(verify._injections(r, pool, floor))
        assert verify._count_injections(frozenset(r), pool, floor) == len(listing)
        for k, phi in enumerate(listing):
            drawn = next(verify._injections(r, pool, floor, k))
            assert list(drawn.items()) == list(phi.items()), (r, floor, k)


def test_lin_reduce_builds_each_f_once_and_only_when_asserted(monkeypatch):
    # cases, tags and verdicts pinned against the version that built f_poly
    # for every (R, phi); f_poly is now built once per asserting (D, l, S),
    # recorded as the (i, j, D, l, S) that `_f_of` is called with
    calls, builds = [], []
    real_f, real_poly = verify._f_of, verify.f_poly
    monkeypatch.setattr(verify, "_f_of", lambda *a: calls.append(a) or real_f(*a))
    monkeypatch.setattr(verify, "f_poly", lambda *a: builds.append(a) or real_poly(*a))
    tags = []

    class Recording(VerdictReport):
        def check(self, descriptor, expected, actual):
            tags.append((descriptor, str(expected), str(actual)))
            super().check(descriptor, expected, actual)

    rep = Recording("lin", {})
    verify._lin_reduce_exhaustive(rep, 1, 3)
    assert rep.cases == 269 and not rep.failures
    digest = hashlib.sha256(repr(tags).encode()).hexdigest()
    assert digest == "3964fd36fa764ccc77c1f3c56f7455f61dfac512188c825b8cc58bc8394b645b"
    assert len(calls) == len(set(calls)) == len(builds) == 163
