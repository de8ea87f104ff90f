"""Normal-form arithmetic in the degree-zero algebra (central H-part,
anticommuting barred generators), the bracket substitution into it, the
raising-coefficient recursion, and its closed forms.

A degree-zero element maps each sorted tuple of barred indices to an exact
integer polynomial in H_1..H_n.  Barred generators square to the matching
H and anticommute pairwise; the H's are central.
"""
from __future__ import annotations

import operator
from functools import lru_cache
from itertools import combinations
from types import MappingProxyType

from . import poly
from .core import DeltaFunction, SignedSet, Weight
from .poly import Polynomial, format_poly, g2

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
    `terms` is a read-only view from bar tuples to nonzero coefficients.
    The constructor brings any words of barred generators to normal form
    (`_normal_order`) and merges equal keys; an int coefficient is a constant."""

    __slots__ = ("_t",)

    def __init__(self, terms: dict[Bars, Polynomial | int] | None = None):
        acc: dict[Bars, dict[int, int]] = {}
        for word, coeff in (terms or {}).items():
            if not isinstance(coeff, (int, Polynomial)):
                raise TypeError(f"coefficient {coeff!r} is not a Polynomial or an int")
            sign, bars, merged = _normal_order(tuple(map(operator.index, word)))
            t = coeff._t if isinstance(coeff, Polynomial) else {0: coeff}
            poly._mac(acc.setdefault(bars, {}), t, {merged: sign})
        self._t = _freeze(acc)._t

    @staticmethod
    def _of(t: dict[Bars, Polynomial]) -> "U0Element":
        """Wrap terms in normal form with no zero coefficients."""
        u = object.__new__(U0Element)
        u._t = t
        return u

    @property
    def terms(self) -> MappingProxyType:
        return MappingProxyType(self._t)

    def __add__(self, other: "U0Element") -> "U0Element":
        if not isinstance(other, U0Element):
            return NotImplemented
        return _freeze(_mac(_mac({}, self, _ONE), other, _ONE))

    def __neg__(self) -> "U0Element":
        return self.scale(-1)

    def __sub__(self, other: "U0Element") -> "U0Element":
        if not isinstance(other, U0Element):
            return NotImplemented
        return _freeze(_mac(_mac({}, self, _ONE), other, _ONE, -1))

    def scale(self, factor: int) -> "U0Element":
        return _freeze(_mac({}, self, _ONE, operator.index(factor)))

    def __mul__(self, other: "U0Element") -> "U0Element":
        if not isinstance(other, U0Element):
            return NotImplemented
        return _freeze(_mac({}, self, other))

    def __eq__(self, other) -> bool:
        return isinstance(other, U0Element) and self._t == other._t

    def __hash__(self):
        return hash(frozenset((b, hash(c)) for b, c in self._t.items()))

    def __bool__(self) -> bool:
        return bool(self._t)

    def __str__(self) -> str:
        return format_u0(self)

    __repr__ = __str__

    def to_json(self):
        return [{"bars": list(b), "coeff": format_poly(c)} for b, c in sorted(self._t.items())]


def _normal_order(bars: Bars) -> tuple[int, Bars, int]:
    """Sort a word of barred generators: distinct ones anticommute (one sign
    per inversion) and equal neighbours merge into their central H.  Returns
    the sign, the sorted bars and the packed monomial of the merged H's."""
    sign = -1 if sum(a > b for a, b in combinations(bars, 2)) % 2 else 1
    out, merged = [], 0
    for g in sorted(bars):
        if out and out[-1] == g:
            out.pop()
            merged += 1 << poly._shift(("H", g))
        else:
            out.append(g)
    return sign, tuple(out), merged


def _mac(acc: dict[Bars, dict[int, int]], a: U0Element, b: U0Element, sign: int = 1) -> dict:
    """Add sign * a * b into acc, a map from bar tuples to packed-monomial
    term dicts, and return acc.  Each pair of bar tuples is normal-ordered
    once, and not at all when either is empty (a central factor)."""
    for b1, c1 in a._t.items():
        for b2, c2 in b._t.items():
            s, bars, merged = _normal_order(b1 + b2) if b1 and b2 else (1, b1 or b2, 0)
            poly._mac(acc.setdefault(bars, {}), c1._t, c2._t, merged, s * sign)
    return acc


def _freeze(acc: dict[Bars, dict[int, int]]) -> U0Element:
    """The element acc holds, each row through `poly._clean`; acc is spent."""
    return U0Element._of({bars: Polynomial._of(t) for bars, row in acc.items()
                          if (t := poly._clean(row))})


def _central(c: Polynomial) -> U0Element:
    return U0Element._of({(): c} if c else {})


_ONE = _central(Polynomial.const(1))


def format_u0(u: U0Element) -> str:
    if not u:
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
    return _central(H(_check_index(i)))


def u0_hbar(i: int) -> U0Element:
    return U0Element._of({(_check_index(i),): Polynomial.const(1)})


def u0_h_eps(i: int, eps: int) -> U0Element:
    return u0_hbar(i) if eps % 2 else u0_h(i)


def u0_c(i: int, j: int) -> U0Element:
    """H_i(H_i - 1) - H_j(H_j - 1), the bracket of x_i - x_j."""
    return _central(_image("x", _check_index(i)) - _image("x", _check_index(j)))


def u0_b(i: int, j: int) -> U0Element:
    """H_i(H_i - 1) - (H_j + 1)H_j, the bracket of x_i - y_j."""
    return _central(_image("x", _check_index(i)) - _image("y", _check_index(j)))


def _image(axis: str, i: int) -> Polynomial:
    """The bracket of x_i, H_i^2 - H_i, or of y_i, H_i^2 + H_i, on packed monomials."""
    h = 1 << poly._shift(("H", i))
    return Polynomial._of({2 * h: 1, h: 1 if axis == "y" else -1})


def _check_index(i: int) -> int:
    i = operator.index(i)
    if i < 1:
        raise IndexOutOfRange(f"index {i} is below 1")
    return i


def bracket_hom(f: Polynomial) -> U0Element:
    """The ring homomorphism x_i -> H_i(H_i - 1), y_i -> (H_i + 1)H_i."""
    assignment = {}
    for axis, idx in f.variables():
        if axis not in ("x", "y"):
            raise IndexOutOfRange(f"bracket undefined on axis {axis!r}")
        assignment[(axis, idx)] = _image(axis, idx)
    return _central(f.substitute(assignment))


# the closed forms bracket the same g2 for every (eps, delta): keyed by its
# parameters, a hit hashes no polynomial and builds no f key
@lru_cache(maxsize=4096)
def _g_bracket(i: int, k: int, q: int, j: int, s: frozenset) -> U0Element:
    return bracket_hom(g2(i, k, q, j, s))


# -- the raising-coefficient recursion -----------------------------------------


def _check_args(i: int, j: int, m: SignedSet, delta: DeltaFunction, *flags: int) -> tuple:
    """i, j and the flags (eps, and q, xi where taken) as ints, given
    i < j, M a signed (i..j]-set holding j or j barred, and delta on
    [i..j-1]; a float or a string is a TypeError."""
    i, j, *flags = map(operator.index, (i, j, *flags))
    if not i < j:
        raise BadSignedSet("need i < j")
    support = m.evens | m.odds
    if j not in support:
        raise BadSignedSet(f"M must contain {j} or {j} barred")
    if not all(i < v <= j for v in support):
        raise BadSignedSet(f"M must be a signed ({i}..{j}]-set")
    if (delta.lo, delta.hi) != (i, j - 1):
        raise BadSignedSet(f"delta domain must be [{i}..{j - 1}]")
    return (i, j, *flags)


def raising_rec(i: int, j: int, eps: int, delta: DeltaFunction, m: SignedSet) -> U0Element:
    """The raising coefficient by the case recursion on min M.  All sign
    exponents are evaluated in Z/2; the result is a normal-form degree-zero
    element over exact integers."""
    i, j, eps = _check_args(i, j, m, delta, eps)
    return _rec(i, j, eps % 2, delta.values, m.evens, m.odds)


def _sgn(e: int) -> int:
    return -1 if e % 2 else 1


# keyed by plain values: dv is delta's value tuple on [i..j-1] (dv[t - i] is
# delta_t), and evens, odds are M's two frozensets, a signed (i..j]-set
# holding j; the public entry points check both.  A stored result's
# monomials go through poly's table once, so entries share their ints
@lru_cache(maxsize=200000)
def _rec(i: int, j: int, eps: int, dv: tuple[int, ...],
         evens: frozenset, odds: frozenset) -> U0Element:
    u = _rec_body(i, j, eps, dv, evens, odds)
    return U0Element._of({bars: Polynomial._of(poly._shared(c._t)) for bars, c in u._t.items()})


def _rec_body(i: int, j: int, eps: int, dv: tuple[int, ...],
              evens: frozenset, odds: frozenset) -> U0Element:
    if not evens and odds == {j}:
        # base: a single barred element
        total = (eps + sum(dv)) % 2
        second = u0_h_eps(i + 1, total).scale(_sgn(dv[0] * (eps + sum(dv[1:]))))
        return u0_h_eps(i, total) - second
    if not odds and evens == {j}:
        # base: a single even element
        return u0_b(i, i + 1) if sum(dv) % 2 == eps else U0Element()

    # min M = mval, barred or even; past it M's tail is M less mval, which
    # holds j; the shifts below exist only when mval > i + 1
    mval = min(evens | odds)
    k = mval - i
    head, right_dv = dv[:k], dv[k:]
    tail_evens, tail_odds = evens - {mval}, odds - {mval}
    tail_exp = 1 + len(tail_odds) + sum(right_dv)  # 1 + parity(tail) + sd(mval, j)
    lone = frozenset((mval,))  # M = {mval barred} on (i..mval]
    acc: dict[Bars, dict[int, int]] = {}
    if mval in odds:
        for gamma in (0, 1):
            left = _rec(i, mval, gamma, head, frozenset(), lone)
            right = _rec(mval, j, (eps + gamma) % 2, right_dv, tail_evens, tail_odds)
            _mac(acc, left, right, _sgn(gamma * (eps + tail_exp)))
        if k > 1:
            return _freeze(_mac(acc, _rec(i, j, eps, dv, evens, tail_odds | {mval - 1}), _ONE))
        for gamma in (0, 1):
            sigma = (eps + gamma) % 2
            _mac(acc, _rec(i, j, gamma, dv, evens, tail_odds), u0_h_eps(i, sigma),
                 _sgn(sigma * (1 + len(odds))))
        return _freeze(acc)

    sd_head = sum(head) % 2
    right = _rec(mval, j, (eps + sd_head) % 2, right_dv, tail_evens, tail_odds)
    _mac(acc, u0_b(i, i + 1), right, _sgn(sd_head * (eps + tail_exp)))
    d_m = dv[k]
    for xi in (0, 1):
        left = _rec(i, mval, xi, head, frozenset(), lone)
        for tau in (0, 1):
            sigma = (eps + d_m + xi + tau) % 2
            sign = _sgn((xi + tau + d_m) * (eps + tail_exp + xi))
            right = _rec(mval, j, sigma, (tau,) + right_dv[1:], tail_evens, tail_odds)
            _mac(acc, left, right, -sign)
    if k > 1:
        _mac(acc, _rec(i, j, eps, dv, tail_evens | {mval - 1}, odds), _ONE)
    return _freeze(_mac(acc, _rec(i, j, eps, dv, tail_evens, odds), u0_c(mval - 1, mval)))


# -- closed forms ---------------------------------------------------------------


def raising_closed(i: int, j: int, eps: int, delta: DeltaFunction, m: SignedSet) -> U0Element:
    """Closed form: an indicator times the bracket of a g1 when M is all
    even, and a signed sum of g2 brackets against H-generators when M has
    exactly one barred element."""
    i, j, eps = _check_args(i, j, m, delta, eps)
    eps %= 2
    dv = delta.values
    if len(m.odds) == 0:
        if sum(dv) % 2 != eps:
            return U0Element()
        s = frozenset(t for t in range(i + 1, j) if t not in m.evens)
        return _g_bracket(i, j, j, j, s)  # g1(i, j, S): l2 is 1 on (i..j), D = {j} no floor
    if len(m.odds) > 1:
        raise UnsupportedShape("no closed form for two or more barred elements")
    q = next(iter(m.odds))
    s = frozenset(t for t in range(i + 1, j + 1) if t not in m.evens)
    total = (eps + sum(dv)) % 2
    acc: dict[Bars, dict[int, int]] = {}
    for k in range(i, q + 1):
        if k in m.evens:
            continue
        if not (k - 1 in m.evens or k - 1 in (i - 1, i)):
            continue
        sign = _sgn((1 if k > i else 0) + (1 + total) * sum(dv[: k - i]))
        _mac(acc, _g_bracket(i, k, q, j, s), u0_h_eps(k, total), sign)
    return _freeze(acc)


def two_term_sum_sides(m_idx: int, j: int, q: int, eps: int, xi: int,
                       delta: DeltaFunction, n_set: SignedSet):
    """Both sides of the two-term summation identity used to assemble the
    one-barred closed form; delta lives on [m..j-1]."""
    m_idx, j, q, eps, xi = _check_args(m_idx, j, n_set, delta, q, eps, xi)
    dv = delta.values
    sd_all = sum(dv) % 2
    acc: dict[Bars, dict[int, int]] = {}
    for tau in (0, 1):
        sigma = (eps + dv[0] + xi + tau) % 2
        sign = _sgn((xi + tau + dv[0]) * (eps + sd_all + xi))
        _mac(acc, _rec(m_idx, j, sigma, (tau,) + dv[1:], n_set.evens, n_set.odds), _ONE, sign)
    s = frozenset(t for t in range(m_idx + 1, j + 1) if t not in n_set.evens)
    indicator = 2 if (xi % 2) == (eps + sd_all) % 2 else 0
    rhs = _mac({}, _g_bracket(m_idx, m_idx, q, j, s), u0_h(m_idx), indicator)
    return _freeze(acc), _freeze(rhs)


# -- evaluation -----------------------------------------------------------------


def eval_at_weight(u: U0Element, lam: Weight) -> U0Element:
    """Substitute the weight entries for the H's and reduce mod p, keeping
    barred factors formal."""
    p = lam.p
    if p == 0:
        raise CharacteristicZero("modular evaluation needs p > 0")
    out: dict[Bars, Polynomial] = {}
    for bars, coeff in u.terms.items():
        assignment = {}
        for axis, idx in coeff.variables():
            if axis != "H":
                raise IndexOutOfRange(f"unexpected axis {axis!r}")
            if not 1 <= idx <= lam.n:
                raise IndexOutOfRange(f"H_{idx} has no weight entry")
            assignment[(axis, idx)] = Polynomial.const(lam.entry(idx))
        value = coeff.substitute(assignment).constant_value() % p
        if value:
            out[bars] = Polynomial.const(value)
    return U0Element._of(out)
