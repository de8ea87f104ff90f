"""A plain dict-of-tuples polynomial reference, kept as a test oracle for the
packed-monomial kernel in spinbranch.poly.  It imports nothing from the
library.

A reference polynomial is a dict from monomials to nonzero ints, and a
monomial is a sorted tuple of ((axis, index), exponent) pairs with positive
exponents.  Library results come in through their printed form
(`from_text`); `to_text` prints a reference polynomial the way
`format_poly` must: terms by descending total degree, then by monomial.
"""
from __future__ import annotations

import re
from functools import lru_cache

_FACTOR = re.compile(r"([A-Za-z])(\d+)(?:\^(\d+))?$")


def _clean(f: dict) -> dict:
    return {m: c for m, c in f.items() if c}


def const(c: int) -> dict:
    return {(): c} if c else {}


def var(axis: str, index: int, exp: int = 1) -> dict:
    return {(((axis, index), exp),): 1}


def add(f: dict, g: dict) -> dict:
    out = dict(f)
    for m, c in g.items():
        out[m] = out.get(m, 0) + c
    return _clean(out)


def scale(f: dict, k: int) -> dict:
    return _clean({m: c * k for m, c in f.items()})


def _mono_mul(m1, m2):
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


def mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = _mono_mul(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return _clean(out)


def power(f: dict, n: int) -> dict:
    out = const(1)
    for _ in range(n):
        out = mul(out, f)
    return out


def substitute(f: dict, assignment: dict) -> dict:
    out: dict = {}
    for m, c in f.items():
        term = const(c)
        for v, e in m:
            base = assignment.get(v)
            term = mul(term, power(base, e) if base is not None else var(*v, exp=e))
        out = add(out, term)
    return out


def evaluate(f: dict, point: dict) -> int:
    total = 0
    for m, c in f.items():
        for v, e in m:
            c *= point[v] ** e
        total += c
    return total


def from_text(text: str) -> dict:
    """Parse the printed form, e.g. '3*x1*y2^2 - x3 + 4'."""
    if text == "0":
        return {}
    out: dict = {}
    for term in text.replace(" - ", " + -").split(" + "):
        coeff = -1 if term.startswith("-") else 1
        mono = {}
        for factor in term.lstrip("-").split("*"):
            if factor.isdigit():
                coeff *= int(factor)
                continue
            axis, idx, exp = _FACTOR.match(factor).groups()
            mono[(axis, int(idx))] = int(exp or 1)
        key = tuple(sorted(mono.items()))
        assert key not in out, f"monomial printed twice in {text!r}"
        out[key] = coeff
    return out


def to_text(f: dict) -> str:
    if not f:
        return "0"
    bits = []
    for m, c in sorted(f.items(), key=lambda t: (-sum(e for _, e in t[0]), t[0])):
        factors = [f"{a}{i}" + (f"^{e}" if e > 1 else "") for (a, i), e in m]
        mag = abs(c)
        body = "*".join(([str(mag)] if mag != 1 or not factors else []) + factors)
        if not bits:
            bits.append(body if c > 0 else "-" + body)
        else:
            bits.append(("+ " if c > 0 else "- ") + body)
    return " ".join(bits)


# -- the divided-difference step by substitution and synthetic division ------


def sigma(a: int, b: int, k: int, f: dict) -> dict:
    """sigma_{a,b}^k by substitution: z_t -> z_t + x_a - x_b for every x_t
    and y_t of f with t >= k."""
    shift = add(var("x", a), scale(var("x", b), -1))
    moved = {v for m in f for v, _ in m if v[1] >= k}
    return substitute(f, {v: add(var(*v), shift) for v in moved})


def exact_div(f: dict, a: int, b: int) -> dict:
    """The quotient of f by x_a - x_b by synthetic division along x_a;
    a nonzero remainder (f at x_a = x_b) raises ArithmeticError."""
    xa = ("x", a)
    coeffs: dict = {}
    for m, c in f.items():
        e = dict(m).pop(xa, 0)
        rest = tuple((v, n) for v, n in m if v != xa)
        coeffs[e] = add(coeffs.get(e, {}), {rest: c})
    quot: dict = {}
    carry: dict = {}
    for e in range(max(coeffs, default=0), 0, -1):
        carry = add(mul(carry, var("x", b)), coeffs.get(e, {}))
        quot = add(quot, mul(carry, var("x", a, e - 1) if e > 1 else const(1)))
    remainder = add(mul(carry, var("x", b)), coeffs.get(0, {}))
    if remainder:
        raise ArithmeticError(f"remainder {to_text(remainder)}")
    return quot


def f_family(i: int, j: int, d, l, s) -> dict:
    """f(i, j, D, l, S): u = prod over t in (i..j] of (x_{D_t} - y_t), with
    D_t the largest element of D u {i} below t; then for each t of S from
    the top, f -> (f - sigma_{D_t, t}^{t + l[t]} f) / (x_{D_t} - x_t).
    l maps each t of S to 0 or 1; results are memoised, so never mutate one."""
    s = sorted(s)
    return _f_family(i, j, frozenset(d), tuple(s), tuple(l[t] for t in s))


@lru_cache(maxsize=None)
def _f_family(i: int, j: int, d: frozenset, s: tuple, ls: tuple) -> dict:
    floor = lambda t: max([v for v in d if v < t] + [i])
    if not s:
        out = const(1)
        for t in range(i + 1, j + 1):
            out = mul(out, add(var("x", floor(t)), scale(var("y", t), -1)))
        return out
    t, out = s[0], _f_family(i, j, d, s[1:], ls[1:])  # the lowest t of S is the last step
    return exact_div(add(out, scale(sigma(floor(t), t, t + ls[0], out), -1)), floor(t), t)
