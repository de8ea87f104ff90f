import contextlib
import hashlib
import json
import os
import random
import re
import subprocess
import sys

import pytest

import spinbranch
from spinbranch import cli
from spinbranch import verify as vf
from spinbranch.cli import main
import definitional
from spinbranch.core import Weight
from spinbranch.crystal import PStrictPartition
from test_kernel_oracle import fresh


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_partition_worked_example(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--p", "5", "--partition", "16,11,10,10,9,5,1"
    )
    assert code == 0
    report = json.loads(out)
    zero = report["contents"]["0"]
    assert zero["good"] == [[1, 16]]
    assert zero["reduced"] == [["-", 1], ["-", 6], ["-", 7]]
    assert zero["conormal"] == [] and zero["cogood"] == []
    assert report["spin"]["h_p_prime"] == 4 and report["spin"]["type"] == "M"


def test_analyze_weight_certificate(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--p", "5", "--weight", "0,0")
    assert code == 0
    report = json.loads(out)
    first = report["indices"][0]
    assert first["normal"] is False
    assert first["certificate"]["case"] == "d"


def test_analyze_singleton_partition(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--p", "5", "--partition", "1")
    report = json.loads(out)
    assert report["contents"]["0"]["good"] == [[1, 1]]


def test_analyze_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "analyze", "--p", "5", "--partition", "5,3")
    _, out2, _ = run_cli(capsys, "analyze", "--p", "5", "--partition", "5,3")
    assert out1 == out2


def test_analyze_rejects_bad_partition(capsys):
    code, _, err = run_cli(capsys, "analyze", "--p", "5", "--partition", "3,3")
    assert code == 2
    assert "not divisible by p=5" in err
    code2, _, err2 = run_cli(capsys, "analyze", "--p", "4", "--partition", "1")
    assert code2 == 2 and "odd prime" in err2


@pytest.mark.parametrize("argv", [
    ("analyze", "--p", "3", "--weight="),
    ("analyze", "--p", "3", "--weight=,"),
    ("crystal", "--p", "3", "--max", "-1"),
    ("analyze", "--p", "3", "--weight=1,,2"),
    ("analyze", "--p", "3", "--weight=1,2,"),
    ("analyze", "--p", "3", "--partition=3,,1"),
    ("analyze", "--p", "3", "--weight=1_0"),
    ("analyze", "--p", "3", "--weight=\u0663"),
    ("analyze", "--p", "3", "--partition=1_0"),
    ("analyze", "--p", "3", "--weight=2,\uff11"),
])
def test_bad_sizes_are_usage_errors(capsys, argv):
    # an empty weight, an empty list token, a token that is not a sign and
    # ASCII digits (int() would read 1_0 as 10 and Arabic-Indic 3 as 3) or a
    # negative --max is one `error:` line and exit 2
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("analyze", "--p", "1_3", "--weight", "1"),
    ("analyze", "--p", "\u0665", "--partition", "1"),
    ("crystal", "--p", "\u0663", "--max", "\u0661"),
    ("crystal", "--p", "3", "--max", "1_0"),
    ("verify", "flows", "--n", "\u0662"),
    ("verify", "duality", "--p", "\uff13"),
    ("analyze", "--p", "x", "--weight", "1"),
])
def test_integer_flags_take_only_ascii_digits(capsys, argv):
    # like the list flags, every integer flag refuses what int() alone
    # would read (1_3 as 13, Arabic-Indic or full-width digits)
    with pytest.raises(SystemExit) as got:
        main(list(argv))
    out, err = capsys.readouterr()
    assert got.value.code == 2 and out == "" and "invalid int value" in err


def test_crystal_json(capsys):
    code, out, _ = run_cli(
        capsys, "crystal", "--p", "3", "--max", "2", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["vertices"]) == 3 and len(data["edges"]) == 2


def test_crystal_dot(capsys):
    code, out, _ = run_cli(
        capsys, "crystal", "--p", "5", "--max", "1", "--format", "dot"
    )
    assert code == 0
    assert out.count("->") == 1
    assert 'label="0"' in out


def test_crystal_empty(capsys):
    code, out, _ = run_cli(capsys, "crystal", "--p", "3", "--max", "0")
    assert json.loads(out)["vertices"] == [[]]


def test_verify_suite_passes(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "verify", "raising-oracle", "--width", "2", "--out", str(out_file)
    )
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["pass"] is True and report["cases"] > 0


def test_verify_seeded_suite(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "duality", "--samples", "50", "--seed", "7", "--n", "4"
    )
    assert code == 0
    first = json.loads(out)
    code, out2, _ = run_cli(
        capsys, "verify", "duality", "--samples", "50", "--seed", "7", "--n", "4"
    )
    assert json.loads(out2) == first


def test_verify_unknown_suite():
    with pytest.raises(SystemExit):
        main(["verify", "no-such-suite"])


def test_verify_p_zero_is_honoured_or_rejected(capsys):
    # duality supports p = 0: the report must say it ran ps = [0]
    code, out, _ = run_cli(capsys, "verify", "duality", "--p", "0", "--samples", "40")
    report = json.loads(out)
    assert code == 0 and report["parameters"]["ps"] == [0] and report["cases"] > 0
    # the signature bridge needs p > 0: a usage error, not the default primes
    code, out, err = run_cli(capsys, "verify", "signature-bridge", "--p", "0")
    assert code == 2 and out == "" and "p = 0" in err


def test_verify_zero_sizes_are_not_replaced_by_defaults(capsys):
    code, out, _ = run_cli(capsys, "verify", "raising-oracle", "--width", "0")
    report = json.loads(out)
    assert code == 1 and report["parameters"]["width"] == 0 and report["cases"] == 0
    code, out, _ = run_cli(capsys, "verify", "reduction", "--samples", "0")
    assert code == 1 and json.loads(out)["parameters"]["samples"] == 0
    code, out, err = run_cli(capsys, "verify", "duality", "--n", "0")
    assert code == 2 and out == "" and "max_n" in err


@pytest.mark.parametrize("argv, keyword", [
    (("poly-identities", "--width", "-2", "--samples", "1"), "width"),
    (("poly-identities", "--samples", "-1"), "lin_samples"),
    (("raising-oracle", "--width", "-1"), "width"),
    (("flows", "--n", "-1"), "max_domain"),
    (("reduction", "--samples", "-1"), "samples"),
    (("certificates", "--samples", "-5"), "samples"),
    (("all", "--samples", "-1"), "samples"),
])
def test_verify_negative_sizes_are_usage_errors(capsys, monkeypatch, argv, keyword):
    seen = _stub_runners(monkeypatch)
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and out == "" and seen == {}
    assert err.startswith("error: ") and f"{keyword} >= 0" in err


@pytest.mark.parametrize("suite, kwargs", [
    ("poly-identities", {"width": -2, "lin_samples": 1}),
    ("poly-identities", {"lin_samples": -1}),
    ("raising-oracle", {"width": -1}),
    ("flows", {"max_domain": -1}),
    ("reduction", {"samples": -1}),
])
def test_suites_reject_negative_sizes_when_called_directly(suite, kwargs):
    with pytest.raises(vf.InvalidSuiteParameter):
        vf.RUNNERS[suite](**kwargs)



# the suite keyword each `verify` flag sets, per suite
FLAG_KEYWORDS = {
    "reduction": {"samples": "samples", "seed": "seed"},
    "flows": {"n": "max_domain"},
    "poly-identities": {"width": "width", "samples": "lin_samples", "seed": "seed"},
    "raising-oracle": {"width": "width"},
    "signature-bridge": {"p": "ps", "n": "max_n", "samples": "samples", "seed": "seed"},
    "duality": {"p": "ps", "n": "max_n", "samples": "samples", "seed": "seed"},
    "certificates": {"p": "ps", "n": "max_n", "samples": "samples", "seed": "seed"},
}


def _stub_runners(monkeypatch, failing=()):
    """Replace every suite by one that records its keywords and passes (or
    fails, for the names in `failing`) after one case."""
    seen = {}

    def stub(name):
        def run(**kwargs):
            seen[name] = kwargs
            rep = vf.VerdictReport(name, kwargs)
            rep.check(name, True, name not in failing)
            return rep
        return run

    for name in vf.RUNNERS:
        monkeypatch.setitem(vf.RUNNERS, name, stub(name))
    return seen


def test_every_verify_flag_reaches_its_keyword_or_exits_2(capsys, monkeypatch):
    seen = _stub_runners(monkeypatch)
    assert list(vf.RUNNERS) == list(FLAG_KEYWORDS)
    for suite, table in FLAG_KEYWORDS.items():
        for flag in ("p", "n", "width", "samples", "seed"):
            seen.clear()
            code, out, err = run_cli(capsys, "verify", suite, f"--{flag}", "3")
            if flag in table:
                want = (3,) if flag == "p" else 3
                assert code == 0 and seen == {suite: {table[flag]: want}}, (suite, flag)
            else:
                assert code == 2 and out == "" and f"--{flag}" in err, (suite, flag)
                assert seen == {}


def test_verify_flags_reach_the_real_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "poly-identities", "--width", "1", "--seed", "5")
    assert code == 0 and json.loads(out)["parameters"]["seed"] == 5
    for argv, flag in ((["flows", "--width", "3"], "--width"), (["reduction", "--p", "3"], "--p")):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2 and out == "" and flag in err


def test_poly_identities_lin_reduce_sweep_follows_the_size_flags(capsys):
    code, out, _ = run_cli(capsys, "verify", "poly-identities", "--width", "1", "--samples", "20")
    report = json.loads(out)
    assert code == 0 and report["pass"]
    assert report["parameters"]["lin_width"] == 1 and report["parameters"]["lin_samples"] == 20


def test_verify_error_inside_a_suite_is_not_an_unknown_suite(monkeypatch):
    def broken(**kwargs):
        raise KeyError("missing")

    monkeypatch.setitem(vf.RUNNERS, "flows", broken)
    with pytest.raises(KeyError, match="missing"):
        main(["verify", "flows"])


def test_verify_all_runs_every_suite_in_order(capsys):
    code, out, err = run_cli(capsys, "verify", "all", "--samples", "20", "--width", "1", "--n", "2")
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert [r["suite"] for r in reports] == list(vf.RUNNERS)
    assert all(r["pass"] and r["cases"] > 0 for r in reports)
    assert reports[0]["parameters"]["samples"] == 20 and reports[1]["parameters"]["max_domain"] == 2
    summary = [line.split() for line in err.splitlines()]
    assert [row[:3] for row in summary] == [[r["suite"], "pass", str(r["cases"])] for r in reports]
    assert all(float(row[3]) >= 0 for row in summary)


def test_verify_all_exits_1_when_one_suite_fails(capsys, monkeypatch):
    seen = _stub_runners(monkeypatch, failing={"duality"})
    code, out, err = run_cli(capsys, "verify", "all")
    assert code == 1 and list(seen) == list(vf.RUNNERS)
    assert [json.loads(line)["pass"] for line in out.splitlines()] == [
        name != "duality" for name in vf.RUNNERS
    ]
    assert "duality FAIL 1 " in err


def test_verify_all_rejects_parameters_before_any_suite_runs(capsys, monkeypatch):
    seen = _stub_runners(monkeypatch)
    code, out, err = run_cli(capsys, "verify", "all", "--p", "0")
    assert code == 2 and out == "" and "signature-bridge" in err and seen == {}


def test_analyze_unwritable_out_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "analyze", "--p", "3", "--weight", "1,2", "--out", str(target))
    assert code == 2 and out == "" and not target.exists()
    assert err.startswith("error: ") and err.count("\n") == 1 and str(target) in err


def test_verify_unwritable_out_fails_before_any_suite_runs(capsys, monkeypatch, tmp_path):
    seen = _stub_runners(monkeypatch)
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "verify", "all", "--out", str(target))
    assert code == 2 and out == "" and seen == {}
    assert err.startswith("error: ") and err.count("\n") == 1 and str(target) in err


# sha256 prefixes of the stdout of single-suite runs, recorded before the
# flags were routed through verify.SUITE_FLAGS
SINGLE_SUITE_STDOUT = {
    ("raising-oracle", "--width", "2"): "3616e6c0152f3669",
    ("duality", "--samples", "50", "--seed", "7", "--n", "4"): "92ecd6b8d73accb2",
    ("duality", "--p", "0", "--samples", "40"): "480bb429e3d1e79a",
    ("raising-oracle", "--width", "0"): "e1523282d0b02da7",
    ("reduction", "--samples", "0"): "8ec940c4482d97b0",
    # recorded before the random-weight suites shared one sampling driver
    ("signature-bridge", "--samples", "200", "--n", "5", "--seed", "3"): "8e41c25cfbdc4159",
    ("certificates", "--samples", "200", "--n", "6", "--seed", "3"): "01db56619c951f16",
    ("certificates", "--p", "0", "--samples", "60"): "bb91be9263dcf8d4",
    # recorded before the f selector and the raising delta became one class
    ("poly-identities", "--width", "3", "--samples", "200"): "6a284d77a6d0cb04",
}


@pytest.mark.parametrize("argv", sorted(SINGLE_SUITE_STDOUT))
def test_single_suite_stdout_is_unchanged(capsys, argv):
    _, out, _ = run_cli(capsys, "verify", *argv)
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == SINGLE_SUITE_STDOUT[argv]


def indented(text: str) -> str:
    """A report in the indented form it was printed in when its sha256 was
    pinned; the pins check the parsed report, whatever its layout."""
    return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


# sha256 prefixes of `analyze --weight --out` files (in their `indented`
# form), recorded when each certificate and r-map was still serialised and
# parsed back one by one
WEIGHT_REPORT_DIGESTS = {
    (0, "0,0"): "d361e97c1da6d7d1",
    (0, "3,1,2,0"): "fec5869049f7cd90",
    (0, "5,-2,4,4,1,0"): "8a7dbd4d35bfe540",
    (0, "1,2,3,4,5,6,7"): "ed34d9d40dfe96ca",
    (3, "0,0"): "1bb07345a363c608",
    (3, "0,3,6,9,12,0,3,6,9,12,0,3"): "dbae11501e1ed381",
    (3, "3,1,2,0"): "7a5c2d101501da33",
    (3, "6,3,0,-3,9,12"): "e914423e34dca195",
    (3, "2,5,8,1,4,7,0,3"): "e89b819bed3cfc7c",
    (3, "1,-1,4,2,0,6,3"): "f3eb9ee627ad964f",
    (5, "0,0"): "6fba8b9df5348886",
    (5, "4,1,0,7,2,9,3,11,5,6,8,10"): "daa27da1c44ab5e3",
    (5, "16,11,10,10,9,5,1"): "6b4b03ec1355c4dd",
    (5, "5,10,0,15,-5,20"): "fb4781f369dedd2a",
    (5, "2,1,3"): "adbce291559972ea",
    (5, "7,3,12,8,4,0,9"): "6ca2cab4c1090cd1",
    (7, "0,0"): "52801e03b4e24b06",
    (7, "7,14,0,21,-7"): "bf8a4df18b2780c1",
    (7, "1,6,13,2,8,0,4,11"): "1d297dee5d94eaf3",
    (7, "3,3,3,10"): "87ca8f247a21a8c4",
}


@pytest.mark.parametrize("p,weight", sorted(WEIGHT_REPORT_DIGESTS))
def test_weight_reports_are_byte_identical(tmp_path, p, weight):
    out = tmp_path / "report.json"
    assert main(["analyze", "--p", str(p), "--weight=" + weight, "--out", str(out)]) == 0
    digest = hashlib.sha256(indented(out.read_text()).encode()).hexdigest()[:16]
    assert digest == WEIGHT_REPORT_DIGESTS[(p, weight)]


# sha256 prefixes of `spinbranch crystal --out FILE`, recorded from the
# writer that built the whole text and printed it
GRAPH_DIGESTS = {
    (0, 16, "dot"): "cdc0074afc71bc80",
    (0, 16, "json"): "06366c8960144b6b",
    (3, 36, "dot"): "fce2635c7ca8f433",
    (3, 36, "json"): "e9820bbd4345174a",
    (5, 30, "dot"): "528ecfca4c0f4a0f",
    (5, 30, "json"): "25e97c90625174ee",
    (7, 30, "dot"): "3e14dcc9416a7d43",
    (7, 30, "json"): "8cdd78b3c8595fd1",
}


@pytest.mark.parametrize("p,max_size,fmt", sorted(GRAPH_DIGESTS))
def test_graph_exports_are_byte_identical(tmp_path, p, max_size, fmt):
    out = tmp_path / f"graph.{fmt}"
    argv = ["crystal", "--p", str(p), "--max", str(max_size), "--format", fmt, "--out", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == GRAPH_DIGESTS[(p, max_size, fmt)]


_IMPORTS = """
import sys
import spinbranch, spinbranch.cli
spinbranch.cli.main(["analyze", "--p", "5", "--weight", "16,11,10,10,9,5,1,0"])
spinbranch.cli.main(["analyze", "--p", "5", "--partition", "16,11,10,10,9,5,1"])
print(sorted({"dataclasses", "inspect", "ast"} & set(sys.modules)))
"""


def test_a_command_loads_no_dataclass_machinery():
    # the records are built without `dataclasses`, and no command imports it
    # or what it pulls in later, where a timed op would pay for it
    assert fresh(_IMPORTS).splitlines()[-1] == "[]"


@contextlib.contextmanager
def no_digit_limit():
    """No int-str digit limit inside the block, the caller's back after it."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


# the peak RSS of `analyze --p 0` on the n = 1 000 weight below, in KiB:
# 64.7-64.8 MiB while the report was one dict with a dense `r_maps`,
# 20.1-21.2 MiB since it is written section by section (CPython 3.11, Linux)
LONG_REPORT_PEAK_KIB = 40 * 1024

# the report runs in a grandchild of a small interpreter, which prints it
# and then the grandchild's peak: Linux keeps a process's `ru_maxrss`
# across exec, so a child spawned by the test run would report the test
# run's own peak
PEAK_OF_CHILD = """
import resource, subprocess, sys
run = "import sys; from spinbranch.cli import main; sys.exit(main(sys.argv[1:]))"
done = subprocess.run([sys.executable, "-c", run, *sys.argv[1:]], stdout=subprocess.PIPE, check=True)
sys.stdout.write(done.stdout.decode())
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def test_a_long_weight_at_p_0_prints_and_reads_back():
    # at p = 0 a certificate's scalar c is exact: at n = 1 000 the longest
    # has 4 839 digits, past the interpreter's default limit of 4 300 for
    # int-str conversion, which `main` lifts while it runs.  A Python
    # reader needs the same call; the whole-dict oracle is what reads back
    rng = random.Random(1)
    parts = [rng.randint(-1000, 1000) for _ in range(1000)]
    out, peak = fresh(PEAK_OF_CHILD, "analyze", "--p", "0",
                      "--weight=" + ",".join(map(str, parts))).splitlines()
    with no_digit_limit():
        report = json.loads(out)
    assert max(abs(e["certificate"]["c"]) for e in report["indices"]
               if "certificate" in e) > 10 ** 4300
    want = {"p": 0, "input": {"kind": "weight", "parts": parts}}
    assert report == {**want, **definitional.weight_report(Weight(tuple(parts), 0))}
    print(f"peak RSS of the report: {int(peak) / 1024:.1f} MiB")
    assert int(peak) <= LONG_REPORT_PEAK_KIB


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-str digit limit")
def test_main_restores_the_callers_digit_limit(tmp_path):
    # the limit is lifted while the report is encoded, and CPython's guard
    # against quadratic int-str conversion is back for the caller afterwards
    rng = random.Random(1)
    lam = Weight(tuple(rng.randint(-1000, 1000) for _ in range(1000)), 0)
    out = tmp_path / "report.json"
    argv = ["analyze", "--p", "0", "--weight=" + ",".join(map(str, lam.parts)), "--out", str(out)]
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4321)
        assert main(argv) == 0
        assert sys.get_int_max_str_digits() == 4321
        assert main(["analyze", "--p", "0", "--weight=1,,2"]) == 2  # a usage error restores it too
        assert sys.get_int_max_str_digits() == 4321
    finally:
        sys.set_int_max_str_digits(limit)
    with no_digit_limit():
        assert definitional.analyze_mismatch(out.read_text(), lam) is None


def _weight_cases():
    """Weights at p in {0, 3, 101} and n in {1, 2, 40, 1 000}: entries drawn
    from [-n, n] (negative ones included) and all zero."""
    rng = random.Random(36)
    for p in (0, 3, 101):
        for n in (1, 2, 40, 1000):
            yield p, tuple(rng.randint(-n, n) for _ in range(n))
            yield p, (0,) * n


@pytest.mark.parametrize("p,parts", list(_weight_cases()), ids=lambda v: str(v)[:12])
def test_a_weight_report_writes_the_bytes_of_the_whole_dict(tmp_path, p, parts):
    out = tmp_path / "report.json"
    argv = ["analyze", "--p", str(p), "--weight=" + ",".join(map(str, parts)), "--out", str(out)]
    assert main(argv) == 0
    with no_digit_limit():
        assert definitional.analyze_mismatch(out.read_text(), Weight(parts, p)) is None


@pytest.mark.parametrize("p,parts,restricted", [
    (3, (6, 4, 3, 1), True),
    (5, (16, 11, 10, 10, 9, 5, 1), True),
    (7, (13, 12, 8, 7, 7, 3), True),
    (3, (10, 1), False),
    (3, (9, 6, 5, 3, 1), False),
    (5, (20, 14, 3), False),
    (3, (), True),
    (0, (7, 4, 2, 1), True),
    (0, (30, 12, 11, 5), True),
])
def test_a_partition_report_writes_the_bytes_of_the_whole_dict(tmp_path, p, parts, restricted):
    # restricted partitions carry `branching`, the others no such key; at
    # p = 0 every partition is restricted
    out = tmp_path / "report.json"
    argv = ["analyze", "--p", str(p), "--partition=" + ",".join(map(str, parts)), "--out", str(out)]
    assert main(argv) == 0
    lam = PStrictPartition(parts, p)
    assert definitional.analyze_mismatch(out.read_text(), lam) is None
    assert ("branching" in json.loads(out.read_text())) is restricted is lam.is_restricted()


def test_a_failing_analyze_leaves_out_untouched(tmp_path, monkeypatch):
    # all library work ends before --out is opened
    out = tmp_path / "report.json"
    out.write_text("before\n")

    def fail(lam, i):
        raise RuntimeError("no certificate")

    monkeypatch.setattr(cli.ix, "non_normal_certificate", fail)
    with pytest.raises(RuntimeError, match="no certificate"):
        main(["analyze", "--p", "5", "--weight=0,0", "--out", str(out)])
    assert out.read_text() == "before\n"


def test_verify_writes_each_suite_line_as_the_suite_ends(monkeypatch, tmp_path):
    # a crash in a later suite keeps the lines of the suites that finished
    _stub_runners(monkeypatch)
    first, second = list(vf.RUNNERS)[:2]

    def crash(**kwargs):
        raise RuntimeError(f"{second} crashed")

    monkeypatch.setitem(vf.RUNNERS, second, crash)
    out = tmp_path / "verify.jsonl"
    with pytest.raises(RuntimeError, match="crashed"):
        main(["verify", "all", "--out", str(out)])
    lines = out.read_text().splitlines()
    assert [json.loads(line)["suite"] for line in lines] == [first]
    assert json.loads(lines[0])["pass"] is True


@pytest.mark.parametrize("argv", [
    ("analyze", "--p", "5", "--weight", "16,11,10,10,9,5,1"),
    ("analyze", "--p", "3", "--partition", "9,6,5,3,1"),
])
def test_analyze_prints_one_line_of_key_sorted_json(capsys, tmp_path, argv):
    code, out, _ = run_cli(capsys, *argv)
    target = tmp_path / "report.json"
    assert code == 0 and main([*argv, "--out", str(target)]) == 0
    for text in (out, target.read_text()):
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
        assert text.count("\n") == 1


# `python -m spinbranch.cli ARGV...` with every verify suite replaced by
# the passing stub of `_stub_runners`
FRESH_CLI = """
import runpy
from spinbranch import verify as vf
def stub(name):
    def run(**kwargs):
        rep = vf.VerdictReport(name, kwargs)
        rep.check(name, True, True)
        return rep
    return run
for name in vf.RUNNERS:
    vf.RUNNERS[name] = stub(name)
runpy.run_module("spinbranch.cli", run_name="__main__")
"""


def _seconds_masked(err: str) -> str:
    # the last field of a verify stderr line is its wall time
    return re.sub(r" [0-9]+\.[0-9]{2}$", " S", err, flags=re.M)


def test_main_reuses_one_parser_like_fresh_processes(capsys, monkeypatch):
    _stub_runners(monkeypatch)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(spinbranch.__file__))}
    runs = {
        ("analyze", "--p", "5", "--weight", "0,0"): 0,
        ("analyze", "--p", "5"): 2,  # argparse: one of --partition/--weight
        ("analyze", "--p", "3", "--weight=1,,2"): 2,  # ParseError
        ("crystal", "--p", "5", "--max", "4", "--format", "dot"): 0,
        ("verify", "duality", "--samples", "5", "--seed", "2"): 0,
        ("analyze", "--p", "5", "--partition", "16,11,10,10,9,5,1"): 0,
    }
    for argv, want in runs.items():
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        got = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-c", FRESH_CLI, *argv],
                               capture_output=True, text=True, env=env, timeout=120)
        assert code == want and (code, got.out, _seconds_masked(got.err)) == (
            fresh.returncode, fresh.stdout, _seconds_masked(fresh.stderr)), argv
    assert cli.build_parser() is not cli.build_parser()
    assert cli.build_parser() is not cli._parser
