#!/usr/bin/env python3
"""Print branching data for one restricted p-strict partition.

Usage:
    python scripts/branching_demo.py --p 5 --partition 16,11,10,10,9,5,1
"""
import argparse
import sys

from spinbranch.crystal import (
    PStrictPartition,
    branching_tables,
    content_reductions,
    spin_stats,
)
from spinbranch.sigseq import signs


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--p", type=int, required=True)
    parser.add_argument("--partition", required=True)
    args = parser.parse_args()
    parts = tuple(int(t) for t in args.partition.split(","))
    lam = PStrictPartition(parts, args.p)
    h, kind, gamma = spin_stats(lam)
    print(f"partition {lam.parts}, p={lam.p}, type {kind}, h'={h}, gamma={gamma}")
    reductions = content_reductions(lam)
    for i, red in reductions.items():
        print(f"  content {i}: signature {signs(red.signature())}"
              f" -> reduced {signs(red.signature(reduced=True))}")
    if not lam.is_restricted():
        print("  not restricted: no branching tables")
        return 0
    rsoc, rsp, isoc, isp = branching_tables(lam, reductions)
    print("  restriction socle:", [(list(m.parts), n) for m, n in rsoc])
    print("  restriction Specht:", [(list(m.parts), n) for m, n in rsp])
    print("  induction socle:", [(list(m.parts), n) for m, n in isoc])
    print("  induction Specht:", [(list(m.parts), n) for m, n in isp])
    return 0


if __name__ == "__main__":
    sys.exit(main())
