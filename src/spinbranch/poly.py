"""Exact sparse multivariate polynomials over Z, the shift operators
sigma_{a,b}^k, and the recursive polynomial families u, f, g1, g2.

A polynomial is a dict from monomials to nonzero arbitrary-precision int
coefficients.  A monomial is a sorted tuple of ((axis, index), exponent)
with positive exponents; variables are named by a one-letter axis and an
integer index, e.g. ('x', 3) prints as x3.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

Var = tuple[str, int]
Monomial = tuple[tuple[Var, int], ...]


class BadIndices(ValueError):
    pass


class BadParameters(ValueError):
    pass


class NotDivisible(ValueError):
    def __init__(self, remainder: "Polynomial"):
        super().__init__(f"division left remainder {remainder}")
        self.remainder = remainder


class ConflictingSubstitution(ValueError):
    pass


class Polynomial:
    """Immutable-by-convention sparse polynomial with integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, int] | None = None):
        self.terms = {m: c for m, c in (terms or {}).items() if c != 0}

    # -- constructors --------------------------------------------------------

    @staticmethod
    def const(c: int) -> "Polynomial":
        return Polynomial({(): c} if c else {})

    @staticmethod
    def var(axis: str, index: int, exp: int = 1, coeff: int = 1) -> "Polynomial":
        if exp == 0:
            return Polynomial.const(coeff)
        return Polynomial({(((axis, index), exp),): coeff})

    # -- ring operations -----------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        other = _coerce(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return Polynomial(terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "Polynomial":
        other = _coerce(other)
        terms: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            d1 = dict(m1)
            for m2, c2 in other.terms.items():
                d = dict(d1)
                for v, e in m2:
                    d[v] = d.get(v, 0) + e
                m = tuple(sorted(d.items()))
                terms[m] = terms.get(m, 0) + c1 * c2
        return Polynomial(terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        out = Polynomial.const(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = Polynomial.const(other)
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def variables(self) -> set[Var]:
        return {v for m in self.terms for v, _ in m}

    def coefficients_in(self, var: Var) -> dict[int, "Polynomial"]:
        """Split as a univariate polynomial in var with polynomial coefficients."""
        out: dict[int, dict[Monomial, int]] = {}
        for m, c in self.terms.items():
            d = dict(m)
            k = d.pop(var, 0)
            rest = tuple(sorted(d.items()))
            out.setdefault(k, {})[rest] = out.get(k, {}).get(rest, 0) + c
        return {k: Polynomial(t) for k, t in out.items()}

    def substitute(self, assignment: dict[Var, "Polynomial"]) -> "Polynomial":
        """Ring-homomorphic substitution of the listed variables."""
        out = Polynomial()
        for m, c in self.terms.items():
            term = Polynomial.const(c)
            for v, e in m:
                base = assignment.get(v)
                term = term * (base**e if base is not None else Polynomial.var(*v, exp=e))
            out = out + term
        return out

    def constant_value(self) -> int:
        if not self.terms:
            return 0
        if set(self.terms) == {()}:
            return self.terms[()]
        raise ValueError("not a constant polynomial")

    # -- printing ------------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    __repr__ = __str__


def _coerce(x) -> Polynomial:
    return x if isinstance(x, Polynomial) else Polynomial.const(x)


def x(i: int) -> Polynomial:
    return Polynomial.var("x", i)


def y(i: int) -> Polynomial:
    return Polynomial.var("y", i)


# -- textual format ----------------------------------------------------------


def _mono_key(m: Monomial):
    return (-sum(e for _, e in m), m)


def format_poly(f: Polynomial) -> str:
    if f.is_zero():
        return "0"
    bits: list[str] = []
    for m, c in sorted(f.terms.items(), key=lambda item: _mono_key(item[0])):
        factors = [
            f"{axis}{idx}" + (f"^{e}" if e > 1 else "")
            for (axis, idx), e in m
        ]
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not bits:
            bits.append(body if c > 0 else "-" + body)
        else:
            bits.append(("+ " if c > 0 else "- ") + body)
    return " ".join(bits)


def parse_poly(text: str) -> Polynomial:
    """Inverse of format_poly, accepting e.g. '3*x1*y2^2 - x3 + 4'."""
    text = text.replace("-", " - ").replace("+", " + ")
    tokens = text.split()
    out = Polynomial()
    sign = 1
    for tok in tokens:
        if tok == "+":
            sign = 1
            continue
        if tok == "-":
            sign = -1
            continue
        coeff = sign
        term = Polynomial.const(1)
        for factor in tok.split("*"):
            if factor.lstrip("-").isdigit():
                coeff *= int(factor)
                continue
            body, _, exp = factor.partition("^")
            axis = body[0]
            idx = int(body[1:])
            term = term * Polynomial.var(axis, idx, int(exp) if exp else 1)
        out = out + coeff * term
        sign = 1
    return out


# -- shift operators and exact division --------------------------------------


def sigma_apply(a: int, b: int, k: int, f: Polynomial) -> Polynomial:
    """The ring endomorphism sending z_t to z_t + x_a - x_b for t >= k
    (z either x or y) and fixing the variables below k.  Requires a < b."""
    if a >= b:
        raise BadIndices(f"sigma needs a < b, got a={a}, b={b}")
    shift = x(a) - x(b)
    assignment: dict[Var, Polynomial] = {}
    for axis, idx in f.variables():
        if axis not in ("x", "y"):
            raise BadIndices(f"sigma undefined on axis {axis!r}")
        if idx >= k:
            assignment[(axis, idx)] = Polynomial.var(axis, idx) + shift
    return f.substitute(assignment)


def exact_div(f: Polynomial, a: int, b: int) -> Polynomial:
    """Quotient of f by (x_a - x_b), raising NotDivisible on any remainder.

    Synthetic division along x_a; the remainder is f with x_a set to x_b
    and must vanish identically.
    """
    va = ("x", a)
    coeffs = f.coefficients_in(va)
    deg = max(coeffs, default=0)
    quot = Polynomial()
    carry = Polynomial()
    for k in range(deg, 0, -1):
        carry = carry * x(b) + coeffs.get(k, Polynomial())
        quot = quot + carry * Polynomial.var("x", a, k - 1)
    remainder = carry * x(b) + coeffs.get(0, Polynomial())
    if not remainder.is_zero():
        raise NotDivisible(remainder)
    return quot


# -- the polynomial families --------------------------------------------------


@dataclass(frozen=True)
class LFunction:
    """A total {0,1}-valued function on an integer interval [lo..hi]."""

    lo: int
    hi: int
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != max(self.hi - self.lo + 1, 0):
            raise ValueError("values do not cover the domain")
        if any(v not in (0, 1) for v in self.values):
            raise ValueError("values must be 0 or 1")

    def __call__(self, t: int) -> int:
        if not self.lo <= t <= self.hi:
            raise KeyError(f"{t} outside [{self.lo}..{self.hi}]")
        return self.values[t - self.lo]

    @staticmethod
    def const(lo: int, hi: int, v: int) -> "LFunction":
        return LFunction(lo, hi, tuple([v] * max(hi - lo + 1, 0)))

    @staticmethod
    def from_map(lo: int, hi: int, mapping) -> "LFunction":
        return LFunction(lo, hi, tuple(mapping(t) for t in range(lo, hi + 1)))


def l2_function(i: int, k: int, q: int, j: int) -> LFunction:
    """The selector behind g2: 1 strictly between i and k or strictly
    between q and j, else 0 (in particular 0 on [k..q] and at j)."""
    return LFunction.from_map(
        i + 1, j, lambda t: 1 if (i < t < k or q < t < j) else 0
    )


def d_floor(d: frozenset[int], i: int, t: int) -> int:
    """max of (d united {i}) below t."""
    return max([v for v in d if v < t] + ([i] if i < t else []))


def u_poly(i: int, j: int, d) -> Polynomial:
    """Product over t in (i..j] of (x_{D_t} - y_t) with D_t the largest
    element of d u {i} below t."""
    if i > j:
        raise BadParameters("u needs i <= j")
    d = frozenset(d)
    out = Polynomial.const(1)
    for t in range(i + 1, j + 1):
        out = out * (x(d_floor(d, i, t)) - y(t))
    return out


def f_poly(i: int, j: int, d, l: LFunction, s) -> Polynomial:
    """The recursive family: f(empty) = u, and each added element s of S
    applies (id - sigma_{D_s, s}^{s + l(s)}) and divides by x_{D_s} - x_s
    exactly."""
    d = frozenset(d)
    s = sorted(set(s))
    if any(not i < t <= j for t in s):
        raise BadParameters(f"S = {s} not inside ({i}..{j}]")
    out = u_poly(i, j, d)
    for t in reversed(s):
        t0 = d_floor(d, i, t)
        out = exact_div(out - sigma_apply(t0, t, t + l(t), out), t0, t)
    return out


@lru_cache(maxsize=None)
def _g1_cached(i: int, j: int, s: frozenset) -> Polynomial:
    return f_poly(i, j, frozenset(), LFunction.const(i + 1, j, 1), s)


@lru_cache(maxsize=None)
def _g2_cached(i: int, k: int, q: int, j: int, s: frozenset) -> Polynomial:
    return f_poly(i, j, frozenset({k}), l2_function(i, k, q, j), s)


def g1(i: int, j: int, s) -> Polynomial:
    """g1 = f with D empty and the selector constantly 1."""
    if not i < j:
        raise BadParameters("g1 needs i < j")
    s = frozenset(s)
    if any(not i < t < j for t in s):
        raise BadParameters(f"S = {sorted(s)} not inside ({i}..{j})")
    return _g1_cached(i, j, s)


def g2(i: int, k: int, q: int, j: int, s) -> Polynomial:
    """g2 = f with D = {k} and the l2 selector."""
    if not (i <= k <= q <= j and i < q):
        raise BadParameters(f"bad g2 parameters ({i},{k},{q},{j})")
    s = frozenset(s)
    if any(not i < t <= j for t in s):
        raise BadParameters(f"S = {sorted(s)} not inside ({i}..{j}]")
    return _g2_cached(i, k, q, j, s)


def lin_reduce(f: Polynomial, subst) -> Polynomial:
    """Replace each listed y_b by its x_a: the normal form of f modulo the
    ideal generated by the differences x_a - y_b.

    `subst` maps y-indices to x-indices; listing a y-index twice is an
    error even if the targets agree.
    """
    if not isinstance(subst, dict):
        pairs = list(subst)
        keys = [b for b, _ in pairs]
        if len(set(keys)) != len(keys):
            raise ConflictingSubstitution(f"duplicate y-indices in {pairs}")
        subst = dict(pairs)
    assignment = {("y", b): x(a) for b, a in subst.items()}
    return f.substitute(assignment)
