"""Normal-form arithmetic in the degree-zero algebra (central H-part,
anticommuting barred generators), the bracket substitution into it, the
raising-coefficient recursion, and its closed forms.

A degree-zero element maps each sorted tuple of barred indices to an exact
integer polynomial in H_1..H_n.  Barred generators square to the matching
H and anticommute pairwise; the H's are central.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from types import MappingProxyType

from .core import DeltaFunction, SignedSet, Weight
from .poly import Polynomial, format_poly, g1, g2

Bars = tuple[int, ...]


class IndexOutOfRange(ValueError):
    pass


class BadSignedSet(ValueError):
    pass


class UnsupportedShape(ValueError):
    pass


class CharacteristicZero(ValueError):
    pass


def H(i: int) -> Polynomial:
    return Polynomial.var("H", i)


class U0Element:
    """Immutable element of the degree-zero algebra in normal form.
    `terms` is a read-only view from bar tuples to nonzero coefficients."""

    __slots__ = ("_t",)

    def __init__(self, terms: dict[Bars, Polynomial] | None = None):
        self._t = {bars: coeff for bars, coeff in (terms or {}).items() if coeff}

    @property
    def terms(self) -> MappingProxyType:
        return MappingProxyType(self._t)

    @staticmethod
    def zero() -> "U0Element":
        return U0Element()

    @staticmethod
    def from_poly(coeff: Polynomial, bars: Bars = ()) -> "U0Element":
        return U0Element({tuple(bars): coeff})

    @staticmethod
    def const(c: int) -> "U0Element":
        return U0Element.from_poly(Polynomial.const(c))

    def __add__(self, other: "U0Element") -> "U0Element":
        terms = dict(self._t)
        for bars, coeff in other._t.items():
            if bars in terms:
                coeff = terms[bars] + coeff
            terms[bars] = coeff
        return U0Element(terms)

    def __neg__(self) -> "U0Element":
        return U0Element({b: -c for b, c in self._t.items()})

    def __sub__(self, other: "U0Element") -> "U0Element":
        return self + (-other)

    def scale(self, factor: Polynomial | int) -> "U0Element":
        if factor == 1:
            return self
        if factor == -1:
            return -self
        return U0Element({b: c * factor for b, c in self._t.items()})

    def __mul__(self, other: "U0Element") -> "U0Element":
        out: dict[Bars, Polynomial] = {}
        for b1, c1 in self._t.items():
            for b2, c2 in other._t.items():
                sign, bars, extra = _normal_order(b1 + b2)
                coeff = c1 * c2 * extra if extra is not None else c1 * c2
                if sign < 0:
                    coeff = -coeff
                if bars in out:
                    coeff = out[bars] + coeff
                out[bars] = coeff
        return U0Element(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, U0Element) and self._t == other._t

    def __hash__(self):
        return hash(frozenset((b, hash(c)) for b, c in self._t.items()))

    def is_zero(self) -> bool:
        return not self._t

    def parities(self) -> set[int]:
        return {len(b) % 2 for b in self._t}

    def __str__(self) -> str:
        return format_u0(self)

    __repr__ = __str__

    def to_json(self):
        return [
            {"bars": list(bars), "coeff": format_poly(coeff)}
            for bars, coeff in sorted(self._t.items())
        ]


def _normal_order(bars: Bars) -> tuple[int, Bars, Polynomial | None]:
    """Sort a word of barred generators: distinct generators anticommute
    (one sign per inversion), and adjacent equal ones merge into the
    matching central H.  The product of those H's is returned, or None
    when nothing merged."""
    sign = -1 if sum(a > b for a, b in combinations(bars, 2)) % 2 else 1
    out: list[int] = []
    extra = None
    for g in sorted(bars):
        if out and out[-1] == g:
            out.pop()
            extra = H(g) if extra is None else extra * H(g)
        else:
            out.append(g)
    return sign, tuple(out), extra


def format_u0(u: U0Element) -> str:
    if u.is_zero():
        return "0"
    bits = []
    for bars, coeff in sorted(u.terms.items(), key=lambda t: (len(t[0]), t[0])):
        text = format_poly(coeff)
        if len(coeff.terms) > 1:
            text = f"({text})"
        factors = [f"Hb{i}" for i in bars]
        bits.append("*".join(([text] if text != "1" or not factors else []) + factors))
    return " + ".join(bits)


# -- named elements ------------------------------------------------------------


def u0_h(i: int) -> U0Element:
    _check_index(i)
    return U0Element.from_poly(H(i))


def u0_hbar(i: int) -> U0Element:
    _check_index(i)
    return U0Element.from_poly(Polynomial.const(1), (i,))


def u0_h_eps(i: int, eps: int) -> U0Element:
    return u0_hbar(i) if eps % 2 else u0_h(i)


def u0_c(i: int, j: int) -> U0Element:
    """H_i(H_i - 1) - H_j(H_j - 1)."""
    _check_index(i)
    _check_index(j)
    return U0Element.from_poly(H(i) * (H(i) - 1) - H(j) * (H(j) - 1))


def u0_b(i: int, j: int) -> U0Element:
    """H_i(H_i - 1) - (H_j + 1)H_j."""
    _check_index(i)
    _check_index(j)
    return U0Element.from_poly(H(i) * (H(i) - 1) - (H(j) + 1) * H(j))


def _check_index(i: int):
    if i < 1:
        raise IndexOutOfRange(f"index {i} is below 1")


def bracket_hom(f: Polynomial) -> U0Element:
    """The ring homomorphism x_i -> H_i(H_i - 1), y_i -> (H_i + 1)H_i."""
    return _bracket_cached(f)


# raising_closed brackets the same cached g1/g2 for every (eps, delta)
@lru_cache(maxsize=1024)
def _bracket_cached(f: Polynomial) -> U0Element:
    assignment = {}
    for axis, idx in f.variables():
        if axis == "x":
            assignment[(axis, idx)] = H(idx) * (H(idx) - 1)
        elif axis == "y":
            assignment[(axis, idx)] = (H(idx) + 1) * H(idx)
        else:
            raise IndexOutOfRange(f"bracket undefined on axis {axis!r}")
    return U0Element.from_poly(f.substitute(assignment))


# -- the raising-coefficient recursion -----------------------------------------


def _check_args(i: int, j: int, m: SignedSet, delta: DeltaFunction):
    """i < j, M a signed (i..j]-set holding j or j barred, and delta on
    [i..j-1]."""
    if not i < j:
        raise BadSignedSet("need i < j")
    support = m.evens | m.odds
    if j not in support:
        raise BadSignedSet(f"M must contain {j} or {j} barred")
    if not all(i < v <= j for v in support):
        raise BadSignedSet(f"M must be a signed ({i}..{j}]-set")
    if (delta.lo, delta.hi) != (i, j - 1):
        raise BadSignedSet(f"delta domain must be [{i}..{j - 1}]")


def raising_rec(i: int, j: int, eps: int, delta: DeltaFunction, m: SignedSet) -> U0Element:
    """The raising coefficient by the case recursion on min M.

    All sign exponents are evaluated in Z/2; the result is a normal-form
    degree-zero element over exact integers.
    """
    _check_args(i, j, m, delta)
    return _rec(i, j, eps % 2, delta.values, m.evens, m.odds)


def _sgn(e: int) -> int:
    return -1 if e % 2 else 1


# keyed by plain values: dv is delta's value tuple on [i..j-1] (dv[t - i] is
# delta_t), and evens, odds are M's two frozensets, a signed (i..j]-set
# holding j; the public entry points check both
@lru_cache(maxsize=200000)
def _rec(i: int, j: int, eps: int, dv: tuple[int, ...],
         evens: frozenset, odds: frozenset) -> U0Element:
    if not evens and odds == {j}:
        # base: a single barred element
        total = (eps + sum(dv)) % 2
        second = u0_h_eps(i + 1, total).scale(_sgn(dv[0] * (eps + sum(dv[1:]))))
        return u0_h_eps(i, total) - second
    if not odds and evens == {j}:
        # base: a single even element
        if sum(dv) % 2 == eps:
            return u0_b(i, i + 1)
        return U0Element.zero()

    # min M = mval, barred or even; past it M's tail is M less mval, which
    # holds j; the shifts below exist only when mval > i + 1
    mval = min(evens | odds)
    k = mval - i
    head, right_dv = dv[:k], dv[k:]
    tail_evens, tail_odds = evens - {mval}, odds - {mval}
    tail_exp = 1 + len(tail_odds) + sum(right_dv)  # 1 + parity(tail) + sd(mval, j)
    lone = frozenset((mval,))  # M = {mval barred} on (i..mval]
    if mval in odds:
        out = U0Element.zero()
        for gamma in (0, 1):
            sigma = (eps + gamma) % 2
            sign = _sgn(gamma * (eps + tail_exp))
            left = _rec(i, mval, gamma, head, frozenset(), lone)
            right = _rec(mval, j, sigma, right_dv, tail_evens, tail_odds)
            out = out + (left * right).scale(sign)
        if k > 1:
            return out + _rec(i, j, eps, dv, evens, tail_odds | {mval - 1})
        for gamma in (0, 1):
            sigma = (eps + gamma) % 2
            sign = _sgn(sigma * (1 + len(odds)))
            out = out + (_rec(i, j, gamma, dv, evens, tail_odds) * u0_h_eps(i, sigma)).scale(sign)
        return out

    sd_head = sum(head) % 2
    sign = _sgn(sd_head * (eps + tail_exp))
    right = _rec(mval, j, (eps + sd_head) % 2, right_dv, tail_evens, tail_odds)
    out = (u0_b(i, i + 1) * right).scale(sign)
    d_m = dv[k]
    for xi in (0, 1):
        left = _rec(i, mval, xi, head, frozenset(), lone)
        for tau in (0, 1):
            sigma = (eps + d_m + xi + tau) % 2
            sign = _sgn((xi + tau + d_m) * (eps + tail_exp + xi))
            right = _rec(mval, j, sigma, (tau,) + right_dv[1:], tail_evens, tail_odds)
            out = out - (left * right).scale(sign)
    if k > 1:
        out = out + _rec(i, j, eps, dv, tail_evens | {mval - 1}, odds)
    return out + _rec(i, j, eps, dv, tail_evens, odds) * u0_c(mval - 1, mval)


# -- closed forms ---------------------------------------------------------------


def raising_closed(i: int, j: int, eps: int, delta: DeltaFunction, m: SignedSet) -> U0Element:
    """Closed form: an indicator times the bracket of a g1 when M is all
    even, and a signed sum of g2 brackets against H-generators when M has
    exactly one barred element."""
    _check_args(i, j, m, delta)
    eps %= 2
    dv = delta.values
    if len(m.odds) == 0:
        if sum(dv) % 2 != eps:
            return U0Element.zero()
        s = frozenset(t for t in range(i + 1, j) if t not in m.evens)
        return bracket_hom(g1(i, j, s))
    if len(m.odds) > 1:
        raise UnsupportedShape("no closed form for two or more barred elements")
    q = next(iter(m.odds))
    s = frozenset(t for t in range(i + 1, j + 1) if t not in m.evens)
    total = (eps + sum(dv)) % 2
    out = U0Element.zero()
    for k in range(i, q + 1):
        if k in m.evens:
            continue
        if not (k - 1 in m.evens or k - 1 in (i - 1, i)):
            continue
        sign = _sgn((1 if k > i else 0) + (1 + total) * sum(dv[: k - i]))
        out = out + (bracket_hom(g2(i, k, q, j, s)) * u0_h_eps(k, total)).scale(sign)
    return out


def two_term_sum_sides(
    m_idx: int,
    j: int,
    q: int,
    eps: int,
    xi: int,
    delta: DeltaFunction,
    n_set: SignedSet,
):
    """Both sides of the two-term summation identity used to assemble the
    one-barred closed form; delta lives on [m..j-1]."""
    _check_args(m_idx, j, n_set, delta)
    dv = delta.values
    sd_all = sum(dv) % 2
    lhs = U0Element.zero()
    for tau in (0, 1):
        sigma = (eps + dv[0] + xi + tau) % 2
        sign = _sgn((xi + tau + dv[0]) * (eps + sd_all + xi))
        lhs = lhs + _rec(m_idx, j, sigma, (tau,) + dv[1:], n_set.evens, n_set.odds).scale(sign)
    s = frozenset(t for t in range(m_idx + 1, j + 1) if t not in n_set.evens)
    indicator = 2 if (xi % 2) == (eps + sd_all) % 2 else 0
    rhs = (bracket_hom(g2(m_idx, m_idx, q, j, s)) * u0_h(m_idx)).scale(indicator)
    return lhs, rhs


# -- evaluation -----------------------------------------------------------------


def eval_at_weight(u: U0Element, lam: Weight, p: int | None = None) -> U0Element:
    """Substitute the weight entries for the H's and reduce mod p, keeping
    barred factors formal."""
    p = lam.p if p is None else p
    if p == 0:
        raise CharacteristicZero("modular evaluation needs p > 0")
    out: dict[Bars, Polynomial] = {}
    for bars, coeff in u.terms.items():
        assignment = {}
        for axis, idx in coeff.variables():
            if axis != "H":
                raise IndexOutOfRange(f"unexpected axis {axis!r}")
            if idx > lam.n:
                raise IndexOutOfRange(f"H_{idx} has no weight entry")
            assignment[(axis, idx)] = Polynomial.const(lam.entry(idx))
        value = coeff.substitute(assignment).constant_value() % p
        if value:
            out[bars] = Polynomial.const(value)
    return U0Element(out)
