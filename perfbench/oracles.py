"""Reference checks written for the benchmark alone.

Nothing here imports spinbranch: each function restates a definition from
the library's documentation, so an output can be checked without trusting
the code that produced it.
"""
from __future__ import annotations

PLUS, MINUS = "+", "-"


def residue(j: int, p: int) -> int:
    """j(j-1) mod p."""
    return j * (j - 1) % p


def content(col: int, p: int) -> int:
    """Content of a column: the folded pattern 0, 1, ..., l, ..., 1, 0 of period p."""
    m = (col - 1) % p
    return m if m <= (p - 1) // 2 else p - 1 - m


def sign_map(parts, p: int, beta: int) -> dict[int, str]:
    """r_beta of the weight `parts`: pair values at beta = 0, single values otherwise."""
    out = {}
    for i, x in enumerate(parts, start=1):
        if beta % p == 0:
            out[i] = {1: "--", 0: "+-", p - 1: "++"}.get(x % p, "")
        elif residue(x, p) == beta:
            out[i] = "-"
        elif residue(x + 1, p) == beta:
            out[i] = "+"
        else:
            out[i] = ""
    return out


def reduced(values: dict[int, str]) -> list[tuple[str, int]]:
    """Concatenate the values in index order and erase adjacent -+ pairs."""
    stack: list[tuple[str, int]] = []
    for i in sorted(values):
        for sign in values[i]:
            if sign == PLUS and stack and stack[-1][0] == MINUS:
                stack.pop()
            else:
                stack.append((sign, i))
    return stack


def is_restricted(parts, p: int) -> bool:
    """Restricted p-strict: weakly decreasing, equal parts divisible by p, and
    each gap lambda_r - lambda_{r+1} below p (at most p when p does not
    divide lambda_r)."""
    parts = tuple(parts)
    if any(x <= 0 for x in parts):
        return False
    padded = parts + (0,)
    for a, b in zip(padded, padded[1:]):
        if a < b or (a == b and a % p):
            return False
        if (a - b >= p) if a % p == 0 else (a - b > p):
            return False
    return True


def restricted_partitions(p: int, n: int):
    """Every restricted p-strict partition of n, largest parts first."""

    def gen(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            if is_restricted(prefix, p):
                yield prefix
            return
        for first in range(min(cap, remaining), 0, -1):
            yield from gen(remaining - first, first, prefix + (first,))

    yield from gen(n, n, ())


def odd_part_counts(p: int, max_size: int) -> list[int]:
    """Coefficients of prod over odd k prime to p of 1/(1 - q^k), up to q^max_size.

    They count the restricted p-strict partitions of each size.
    """
    coeffs = [1] + [0] * max_size
    for k in range(1, max_size + 1, 2):
        if k % p:
            for n in range(k, max_size + 1):
                coeffs[n] += coeffs[n - k]
    return coeffs


def is_edge(a, color: int, b, p: int) -> bool:
    """b is a plus one node of content `color` at the end of a row."""
    a, b = list(a), list(b)
    a += [0] * (len(b) - len(a))
    if len(a) != len(b):
        return False
    rows = [r for r in range(len(a)) if a[r] != b[r]]
    return (
        len(rows) == 1
        and b[rows[0]] == a[rows[0]] + 1
        and content(b[rows[0]], p) == color
    )
