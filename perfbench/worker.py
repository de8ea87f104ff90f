"""One repetition of a workload in a fresh interpreter.

    python worker.py WORKLOAD INPUTS_JSON MODE SPAWN_TIME WORK_DIR

MODE is `setup` (import and exit), `plain` (timed ops) or `trace` (timed
ops under the per-layer tracer).  SPAWN_TIME is the parent's
`time.monotonic()` just before it started this process, so set-up time
covers interpreter start and the imports.  Prints one JSON line.

Besides raw times the worker reports the host's speed around each of them:
the time of `reference()`, a fixed loop, sampled before the ops, about
every GAUGE_EVERY_S of op time, and after the last op.  Each op is paired
with the faster of the samples just before and after it.
"""
import importlib
import sys
import time

# The spinbranch modules each workload uses; importing them is set-up.
MODULES = {
    "algebra": ("spinbranch.raising", "spinbranch.verify"),
    "weights-long": ("spinbranch.cli",),
    "weights-short": ("spinbranch.indices", "spinbranch.crystal"),
    "crystal": ("spinbranch.cli",),
}
GAUGE_EVERY_S = 0.1


def reference() -> float:
    """Seconds for a fixed pure-Python loop: a gauge of host speed."""
    t0 = time.perf_counter()
    s = 0
    for i in range(100000):
        s += i * i % 7
    return time.perf_counter() - t0


def main(argv) -> int:
    workload, inputs_path, mode, spawn_time, work_dir = argv
    for name in MODULES[workload]:
        importlib.import_module(name)
    setup_s = time.monotonic() - float(spawn_time)
    setup_ref_s = reference()
    import json

    if mode == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_ref_s}))
        return 0

    import os
    import resource
    import traceback
    from time import perf_counter

    import tracer as tracing
    import workloads

    with open(inputs_path) as fh:
        inp = json.load(fh)
    out_path = os.path.join(work_dir, f"out-{workload}-{os.getpid()}.json")
    ops = workloads.BY_NAME[workload](inp["inputs"], out_path)
    expected = inp.get("expected_digests")
    if expected is not None and len(expected) != len(ops):
        sys.exit(f"{len(expected)} recorded digests for {len(ops)} ops; record them again")
    tr = None
    if mode == "trace":
        tr = tracing.Tracer()
        tracing.install(tr)

    gauge = [reference()]
    ref_at, pending, since_gauge = [0.0] * len(ops), [], 0.0
    lat, digests, failures = [], [], []
    for k, op in enumerate(ops):
        error = None
        t0 = perf_counter()
        try:
            if tr is None:
                out = op.run()
            else:
                tr.enabled = True
                try:
                    out = tr.op(op.run)
                finally:
                    tr.enabled = False
        except Exception:
            error = traceback.format_exc(limit=3)
        lat.append(perf_counter() - t0)
        since_gauge += lat[-1]
        pending.append(k)
        if since_gauge >= GAUGE_EVERY_S or k == len(ops) - 1:
            gauge.append(reference())
            for j in pending:
                ref_at[j] = min(gauge[-2], gauge[-1])
            pending, since_gauge = [], 0.0
        if tr is not None and os.path.exists(out_path):  # written by the CLI
            tr.extra["cli.out_bytes"] += os.path.getsize(out_path)
        if error is None:
            try:
                ok, semantic, detail = op.check(out)
            except Exception:
                ok, semantic, detail = False, None, traceback.format_exc(limit=3)
        else:
            ok, semantic, detail = False, None, error
        dig = workloads.digest(semantic) if ok else None
        if ok and expected is not None and expected[k] != dig:
            ok, detail = False, f"digest {dig} != recorded {expected[k]}"
        digests.append(dig)
        if not ok:
            failures.append(f"op {k} ({op.group}): {detail}")

    result = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "ref_at_s": ref_at,
        "wall_s": sum(lat),
        "lat_s": lat,
        "groups": [op.group for op in ops],
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digests": digests if inp.get("record") else None,
    }
    if tr is not None:
        result["layers"] = tracing.layer_metrics(tr)
        tr.dump(os.path.join(work_dir, f"spans-{workload}"))
    if os.path.exists(out_path):
        os.remove(out_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
