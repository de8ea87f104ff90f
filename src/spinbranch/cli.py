"""Command-line front end: weight/partition analysis, crystal-graph export,
and the verification suites, all with machine-readable output."""
from __future__ import annotations

import argparse
import contextlib
import json
import re
import sys
import time

from . import crystal as cr
from . import indices as ix
from . import verify as vf
from .core import InvalidCharacteristic, Weight, check_characteristic
from .sigseq import r_beta, seq_to_list

_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*")  # int() alone also takes 1_0 and non-ASCII digits
_parser = None  # main's own parser: built on its first call, never handed out


class ParseError(ValueError):
    pass


def _parse_parts(text: str) -> tuple[int, ...]:
    """Comma-separated integers (sign and ASCII digits); an empty text is no
    parts, but an empty token between or after commas is an error."""
    if not text.strip():
        return ()
    tokens = text.split(",")
    if not all(_INTEGER.fullmatch(tok) for tok in tokens):
        raise ParseError(f"expected comma-separated integers, got {text!r}")
    return tuple(int(tok) for tok in tokens)


def _integer(text: str) -> int:
    """The `type=` of every integer flag: a sign and ASCII digits."""
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _weight_report(lam: Weight) -> dict:
    indices = []
    for cls in ix.classify_indices(lam):
        entry = dict(vars(cls))  # the flags are plain bools and ints
        i = entry.pop("index")
        entry.update(i=i, entry=lam.entry(i))
        if i < lam.n and not cls.normal:
            entry["certificate"] = ix.non_normal_certificate(lam, i).to_dict()
        indices.append(entry)
    r_maps = {}
    signatures = {}
    for beta, red in ix.residue_reductions(lam).items():
        r_maps[str(beta)] = r_beta(lam, beta).to_dict()
        signatures[str(beta)] = seq_to_list(red.reduced)
    return {"indices": indices, "r_maps": r_maps, "reduced_signatures": signatures}


def _partition_report(lam: cr.PStrictPartition) -> dict:
    contents = {}
    for i, red in cr.content_reductions(lam).items():
        down, up = cr.e_tilde(i, lam), cr.f_tilde(i, lam)
        contents[str(i)] = {
            key: [list(nd) for nd in getattr(red, key)]
            for key in ("removable", "addable", "good", "normal", "conormal", "cogood")
        }
        contents[str(i)].update({
            "signature": seq_to_list(red.signature()),
            "reduced": seq_to_list(red.signature(reduced=True)),
            "e_tilde": None if down is None else list(down.parts),
            "f_tilde": None if up is None else list(up.parts),
        })
    h, kind, gamma = cr.spin_stats(lam)
    out = {
        "contents": contents,
        "spin": {"h_p_prime": h, "type": kind, "gamma": list(gamma)},
    }
    if lam.is_restricted():
        tables = cr.branching_tables(lam)
        names = ("restriction_socle", "restriction_specht", "induction_socle", "induction_specht")
        out["branching"] = {
            name: [{"partition": list(mu.parts), "node": list(node)} for mu, node in table]
            for name, table in zip(names, tables)
        }
    return out


def cmd_analyze(args) -> int:
    p = check_characteristic(args.p)
    report: dict = {"p": p}
    if args.partition is not None:
        try:
            lam = cr.PStrictPartition(_parse_parts(args.partition), p)
        except cr.NotPStrict as exc:
            raise ParseError(str(exc)) from exc
        report["input"] = {"kind": "partition", "parts": list(lam.parts)}
        report.update(_partition_report(lam))
        report["padded_weight"] = _weight_report(lam.pad_weight())
    else:
        parts = _parse_parts(args.weight)
        if not parts:
            raise ParseError(f"a weight needs at least one entry, got {args.weight!r}")
        lam = Weight(parts, p)
        report["input"] = {"kind": "weight", "parts": list(lam.parts)}
        report.update(_weight_report(lam))
    with _open_out(args.out) as fh:
        print(json.dumps(report, sort_keys=True), file=fh)  # no indent: the C encoder
    return 0


def cmd_crystal(args) -> int:
    p = check_characteristic(args.p)
    if args.max < 0:
        raise ParseError(f"--max must be >= 0, got {args.max}")
    graph = cr.crystal_graph(p, args.max)
    with _open_out(args.out) as fh:
        print(graph.to_dot() if args.format == "dot" else graph.to_json(), file=fh)
    return 0


def cmd_verify(args) -> int:
    suites = list(vf.RUNNERS) if args.suite == "all" else [args.suite]
    plans = vf.suite_arguments(suites, {flag: getattr(args, flag) for flag in vf.FLAGS})
    reports = []
    with _open_out(args.out) as fh:
        for name, kwargs in plans.items():
            start = time.perf_counter()
            report = vf.RUNNERS[name](**kwargs)
            verdict = "pass" if report.passed else "FAIL"
            print(f"{name} {verdict} {report.cases} {time.perf_counter() - start:.2f}",
                  file=sys.stderr)
            reports.append(report)
        print("\n".join(report.to_json() for report in reports), file=fh)
    return 0 if all(report.passed for report in reports) else 1


def _open_out(out: str | None):
    """The --out file opened for writing, or standard output when it is
    not given.  A path that cannot be opened is a usage error, not a
    traceback; `verify` opens it before any suite runs."""
    if not out:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(out, "w")
    except OSError as exc:
        raise ParseError(f"cannot write --out {out}: {exc.strerror}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinbranch",
        description="signature-sequence, crystal and raising-coefficient toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="classify a weight or partition")
    pa.add_argument("--p", type=_integer, required=True)
    group = pa.add_mutually_exclusive_group(required=True)
    group.add_argument("--partition", help="comma-separated parts")
    group.add_argument("--weight", help="comma-separated entries")
    pa.add_argument("--out")
    pa.set_defaults(func=cmd_analyze)

    pc = sub.add_parser("crystal", help="export the crystal graph")
    pc.add_argument("--p", type=_integer, required=True)
    pc.add_argument("--max", type=_integer, required=True)
    pc.add_argument("--format", choices=("dot", "json"), default="json")
    pc.add_argument("--out")
    pc.set_defaults(func=cmd_crystal)

    pv = sub.add_parser("verify", help="run one verification suite, or all of them")
    pv.add_argument("suite", choices=("all", *vf.RUNNERS))
    for flag in vf.FLAGS:
        takers = [suite for suite, table in vf.SUITE_FLAGS.items() if flag in table]
        pv.add_argument(f"--{flag}", type=_integer, help="taken by " + ", ".join(takers))
    pv.add_argument("--out")
    pv.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    global _parser
    _parser = _parser or build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, InvalidCharacteristic, vf.InvalidSuiteParameter) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
