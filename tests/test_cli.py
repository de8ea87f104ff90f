import hashlib
import json

import pytest

from spinbranch import verify as vf
from spinbranch.cli import main


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
])
def test_bad_sizes_are_usage_errors(capsys, argv):
    # an empty weight, an empty list token or a negative --max is one
    # `error:` line and exit 2
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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

# sha256 prefixes of `analyze --weight --out` files, recorded when each
# certificate and r-map was still serialised and parsed back one by one
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
    digest = hashlib.sha256(out.read_bytes()).hexdigest()[:16]
    assert digest == WEIGHT_REPORT_DIGESTS[(p, weight)]
