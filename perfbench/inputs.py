"""Workload inputs, generated from the benchmark seed alone.

Every workload is stratified: the seed picks entries, offsets and samples,
while the number of inputs in each cell (prime, size band, kind) is fixed,
so the amount of work barely moves from seed to seed.
"""
from __future__ import annotations

import random

import oracles

PRIMES = (3, 5, 7)


def algebra(rng: random.Random) -> dict:
    """Raising-oracle cases at widths 1-4 and the two-term cases at widths
    1-3, all at one offset, plus two poly-identity suite calls."""
    return {
        "offset": rng.randint(1, 8),
        "oracle_widths": [1, 2, 3, 4],
        "two_term_widths": [1, 2, 3],
        "poly_identities": [
            {"width": 4, "lin_width": 3, "lin_samples": 200, "seed": rng.randrange(1 << 30)}
            for _ in range(2)
        ],
    }


def _cycle(rng: random.Random, count: int, seq):
    """`count` items cycling through `seq`, shuffled."""
    out = [seq[k % len(seq)] for k in range(count)]
    rng.shuffle(out)
    return out


def weights_long(rng: random.Random) -> dict:
    """100 weights for `spinbranch analyze --weight` at n = 20 and n = 40.

    Cells (n, kind, count): (20, mixed, 30), (20, zero, 30), (40, mixed, 29),
    (40, zero, 11).  A zero weight has every entry divisible by p; a mixed
    one has entries in [-4, 12].  Ops in these cells take increasing time,
    so the median op falls inside the (20, zero) cell and the 90th
    percentile inside the (40, zero) cell, never on a gap between cells.
    """
    ops = []
    cells = ((20, "mixed", 30), (20, "zero", 30), (40, "mixed", 29), (40, "zero", 11))
    for n, kind, count in cells:
        for p in _cycle(rng, count, PRIMES):
            if kind == "zero":
                parts = [p * rng.randint(-2, 6) for _ in range(n)]
            else:
                parts = [rng.randint(-4, 12) for _ in range(n)]
            ops.append({"p": p, "parts": parts, "band": n, "kind": kind})
    rng.shuffle(ops)
    return {"weights": ops}


def _dominant_p_strict(rng: random.Random, p: int, n: int) -> list[int]:
    while True:
        parts = sorted((rng.randint(0, 12) for _ in range(n)), reverse=True)
        if all(a != b or a % p == 0 for a, b in zip(parts, parts[1:])):
            return parts


def weights_short(rng: random.Random, count: int = 2400) -> dict:
    """Short weights through the library API: n cycles over 2..6, p over
    3, 5, 7, and every other weight is dominant p-strict."""
    ops = []
    for k in range(count):
        p = PRIMES[k % 3]
        n = 2 + k % 5
        strict = k % 2 == 1
        if strict:
            parts = _dominant_p_strict(rng, p, n)
        else:
            parts = [rng.randint(-4, 12) for _ in range(n)]
        ops.append({"p": p, "parts": parts, "strict": strict})
    rng.shuffle(ops)
    return {"weights": ops}


def crystal(rng: random.Random, per_size: int = 22) -> dict:
    """Three crystal exports, then `analyze --partition` on restricted
    3-strict partitions of sizes 24-30, `per_size` of each size, sampled
    from the benchmark's own enumerator."""
    partitions = []
    for n in range(24, 31):
        pool = list(oracles.restricted_partitions(3, n))
        partitions.extend(list(x) for x in rng.sample(pool, per_size))
    rng.shuffle(partitions)
    return {
        "graphs": [{"p": 3, "max": 36}, {"p": 5, "max": 30}, {"p": 7, "max": 30}],
        "partitions": {"p": 3, "parts": partitions},
    }


GENERATORS = {
    "algebra": algebra,
    "weights-long": weights_long,
    "weights-short": weights_short,
    "crystal": crystal,
}


def generate(workload: str, seed: int) -> dict:
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))
