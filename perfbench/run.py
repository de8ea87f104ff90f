"""spinbranch benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --record-digests

Run from the root of a checkout.  The runner compiles the sources to
bytecode, generates the workload's inputs from the seed, and then starts
one fresh interpreter per repetition, one at a time, until S seconds have
passed.  Each repetition runs the workload's fixed batch of ops with cold
library caches, which is what a `spinbranch` command pays on every call.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics; with `--trace 1` repetitions alternate between
untraced and traced, and the object holds the per-layer metrics.  See
perfbench/README.md for the workloads, the metrics and the seeds.

`--record-digests` runs one repetition and stores the digest of every op's
semantic output in perfbench/digests/, so later runs at that seed fail any
op whose output changed.
"""
from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402  (needs HERE on sys.path)
from worker import reference  # noqa: E402

DEFAULT_SEED = 1
HELDOUT_SEED = 7919  # claims must also hold here; never tune on it
MIN_PLAIN_REPS = 3
# reference() on a 2-vCPU Intel Xeon VM when no other tenant slows it down
REFERENCE_S = 0.0075
TOTAL_BUDGET_S = 170.0  # a run must end well within 180 s

# The layers each workload was chosen to load, and why.
INTENDED = {
    "algebra": (("poly", "raising"),
                "c06/c07 spend most of tier-1 here; ROADMAP item 2's kernel work shows on it"),
    "weights-long": (("sigseq",),
                     "the `analyze --weight` command at n = 20 and 40; carries item 3's n^4 growth"),
    "weights-short": (("sigseq", "indices"),
                      "the same layers at per-call scale; per-call set-up costs show here"),
    "crystal": (("crystal",),
                "generation by enumeration (item 4) plus per-partition analyses that skip it"),
}


class BenchError(RuntimeError):
    pass


def host_info() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu or platform.processor(),
        "loadavg": os.getloadavg(),
    }


def pinned_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "SPINBRANCH_"))}
    env.update({
        "PYTHONPATH": os.path.join(root, "src"),
        "PYTHONHASHSEED": "0",  # set order of ('x', i) drives substitution order
        "PYTHONDONTWRITEBYTECODE": "1",  # compiled once, before timing
        "SPINBRANCH_THREADS": "1",  # no multiprocessing.Pool in verify
    })
    return env


class Runner:
    def __init__(self, root: str, workload: str, inputs_path: str, work: str, started: float):
        self.root = root
        self.workload = workload
        self.inputs_path = inputs_path
        self.work = work
        self.env = pinned_env(root)
        self.started = started

    def spawn(self, mode: str) -> dict:
        remaining = TOTAL_BUDGET_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("out of time")
        ref_before = reference()
        t0 = time.monotonic()
        argv = [sys.executable, "-s", os.path.join(HERE, "worker.py"), self.workload,
                self.inputs_path, mode, repr(t0), self.work]
        try:
            proc = subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} repetition timed out") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{mode} repetition exited {proc.returncode}: {proc.stderr[-2000:]}")
        rep = json.loads(lines[-1])
        rep["setup_adj_s"] = adjusted(rep["setup_s"], min(ref_before, rep["setup_ref_s"]))
        return rep


def adjusted(t: float, ref: float) -> float:
    """A time scaled to the host speed at which REFERENCE_S was measured.

    Other tenants of a shared host slow the CPU down for seconds to minutes
    at a time, by up to 2x.  The fixed loop in `reference()` slows down with
    it, so t * REFERENCE_S / ref is the time the same work would take on
    the host when quiet.  On a 2-vCPU Xeon VM, one workload's raw times
    varied up to 1.9x from run to run while adjusted ones stayed within
    about 15%.
    """
    return t * REFERENCE_S / ref


def fastest(reps: list[dict], raw: bool = False) -> list[float]:
    """Each op's fastest adjusted latency over the repetitions, in seconds.

    Every repetition runs the same ops in the same order from cold caches,
    so op k does the same work each time; its fastest run is the one least
    disturbed by contention that the loop samples did not catch.
    """
    if raw:
        return [min(ts) for ts in zip(*(rep["lat_s"] for rep in reps))]
    return [
        min(adjusted(t, ref) for t, ref in zip(ts, refs))
        for ts, refs in zip(zip(*(r["lat_s"] for r in reps)), zip(*(r["ref_at_s"] for r in reps)))
    ]


def end_to_end(plain: list[dict], setups: list[float], attempted: int, failed: int) -> dict:
    lat_ms = [t * 1e3 for t in fastest(plain)]
    return {
        "wall_s": (sum(lat_ms) / 1e3, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p90_ms": (statistics.quantiles(lat_ms, n=10)[8], "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MiB"),
        "success_rate": ((attempted - failed) / attempted, "ratio"),
    }


LAYER_UNITS = {"self_s": "s", "self_share": "ratio", "distinct_ratio": "ratio",
               "r_beta_per_index": "ratio", "vertex_yield": "ratio",
               "growth_exponent": "log2", "out_bytes": "B", "overhead": "ratio",
               "intended_share": "ratio"}


def unit_of(name: str) -> str:
    return LAYER_UNITS.get(name.rsplit(".", 1)[-1], "count")


def per_layer(workload: str, plain: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    notes = []
    first = traced[0]["layers"]
    for rep in traced[1:]:
        for k, v in rep["layers"].items():
            if not (k.endswith(("self_s", "self_share"))) and v != first[k]:
                notes.append(f"count {k} differs between traced repetitions")
    m = {k: statistics.median(rep["layers"][k] for rep in traced) for k in first}
    m["trace.overhead"] = sum(fastest(traced)) / sum(fastest(plain))
    m["trace.intended_share"] = sum(m[f"{layer}.self_share"] for layer in INTENDED[workload][0])
    m["indices.growth_exponent"] = 0.0
    if workload == "weights-long":
        # zero weights of one size all have the same sign maps, so their
        # latency depends on n alone
        cells = {}
        for group, t in zip(plain[0]["groups"], fastest(plain)):
            cells.setdefault(group, []).append(t)
        m["indices.growth_exponent"] = math.log2(
            statistics.median(cells["n40-zero"]) / statistics.median(cells["n20-zero"]))
    return {k: (v, unit_of(k)) for k, v in sorted(m.items())}, notes


def check_checkout(root: str) -> None:
    if not os.path.isfile(os.path.join(root, "src", "spinbranch", "__init__.py")):
        raise BenchError(f"no spinbranch sources under {root}/src; run from a checkout root")
    for d in (os.path.join(root, "src"), HERE):
        if not compileall.compile_dir(d, quiet=1):
            raise BenchError(f"compiling {d} failed")


def digest_path(workload: str, seed: int) -> str:
    return os.path.join(HERE, "digests", f"{workload}-{seed}.json")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.GENERATORS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"input seed (default {DEFAULT_SEED}; {HELDOUT_SEED} is held out)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)
    started = time.monotonic()
    root = os.getcwd()
    try:
        check_checkout(root)
        host = host_info()
        work = os.path.join(root, ".perfbench_work")
        os.makedirs(work, exist_ok=True)
        expected = None
        if os.path.isfile(digest_path(args.workload, args.seed)) and not args.record_digests:
            with open(digest_path(args.workload, args.seed)) as fh:
                expected = json.load(fh)["digests"]
        inputs_path = os.path.join(work, f"inputs-{args.workload}-{os.getpid()}.json")
        with open(inputs_path, "w") as fh:
            json.dump({"inputs": inputs.generate(args.workload, args.seed),
                       "expected_digests": expected, "record": args.record_digests}, fh)
        runner = Runner(root, args.workload, inputs_path, work, started)
        try:
            if args.record_digests:
                return record(runner, args)
            result = measure(runner, args)
        finally:
            os.remove(inputs_path)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result["host"] = host
    result["env"] = {k: runner.env[k] for k in ("PYTHONHASHSEED", "SPINBRANCH_THREADS")}
    result["seed"] = args.seed
    result["digests_checked"] = expected is not None
    with open(os.path.join(work, f"result-{args.workload}-{args.seed}-{args.trace}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} host={json.dumps(host)} "
          f"env={json.dumps(result['env'])} digests_checked={expected is not None}")
    layers, why = INTENDED[args.workload]
    print(f"# intended dominant layer: {'+'.join(layers)} ({why})")
    print(f"# unadjusted: {json.dumps(result['unadjusted'])}")
    for note in result["notes"]:
        print(f"# note: {' | '.join(note.splitlines())[:400]}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:36s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


def measure(runner: Runner, args) -> dict:
    deadline = time.monotonic() + args.seconds
    probes, plain, traced = [], [], []
    while True:
        probes.append(runner.spawn("setup"))
        if args.trace and len(traced) < len(plain):
            traced.append(runner.spawn("trace"))
        else:
            plain.append(runner.spawn("plain"))
        if time.monotonic() >= deadline and len(plain) >= MIN_PLAIN_REPS and (
                traced or not args.trace):
            break
    reps = plain + traced
    setups = probes + plain
    failures = [f for rep in reps for f in rep["failures"]]
    out = {
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "ops_per_repetition": plain[0]["attempted"],
        "unadjusted": {
            "wall_s": sum(fastest(plain, raw=True)),
            "setup_s": statistics.median(r["setup_s"] for r in setups),
            "reference_s": statistics.median(x for r in plain for x in r["ref_at_s"]),
        },
        "wall_s_per_repetition": [r["wall_s"] for r in plain],
        "lat_s_per_repetition": [r["lat_s"] for r in plain],
        "ref_at_s_per_repetition": [r["ref_at_s"] for r in plain],
        "setup_s_samples": [r["setup_adj_s"] for r in setups],
        "notes": [f"failure: {f}" for f in failures[:5]],
    }
    out["error_rate"] = out["failed"] / out["attempted"]
    if args.trace:
        out["metrics"], notes = per_layer(args.workload, plain, traced)
        out["notes"] += notes
    else:
        out["metrics"] = end_to_end(plain, out["setup_s_samples"], out["attempted"], out["failed"])
    return out


def record(runner: Runner, args) -> int:
    rep = runner.spawn("plain")
    if rep["failed"]:
        print(f"error: {rep['failed']} ops failed: {rep['failures']}", file=sys.stderr)
        return 1
    os.makedirs(os.path.dirname(digest_path(args.workload, args.seed)), exist_ok=True)
    with open(digest_path(args.workload, args.seed), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "ops": rep["attempted"],
                   "digests": rep["digests"]}, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"recorded {rep['attempted']} digests in {digest_path(args.workload, args.seed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
