"""Exact sparse multivariate polynomials over Z, the shift operators
sigma_{a,b}^k, and the recursive polynomial families u, f, g1, g2.

A polynomial maps monomials to nonzero int coefficients.  Variables are
named by a one-letter axis and an index, e.g. ('x', 3) prints as x3.  A
monomial is a Kronecker-packed int: each variable gets an EXP_BITS-bit
exponent field on first use, so a product of monomials is one int add.
The top bit of each field is a guard: an exponent above MAX_EXP raises
DegreeOverflow instead of carrying into the next field.
"""
from __future__ import annotations

import operator
import re
import threading
from collections.abc import Callable
from functools import lru_cache, reduce
from operator import or_
from types import MappingProxyType

Var = tuple[str, int]

EXP_BITS = 16
MAX_EXP = (1 << (EXP_BITS - 1)) - 1
_FIELD = (1 << EXP_BITS) - 1
_SHIFTS: dict[Var, int] = {}  # variable -> bit offset of its field
_VARS: list[Var] = []  # field number -> variable
_guard = 0  # the guard bits of all fields handed out
_REGISTER = threading.Lock()
# one int per packed monomial for the term dicts `_shared` re-keys, emptied by
# clear_caches and at _MONOMIAL_CAP entries, which loses sharing, never a value
_MONOMIALS: dict[int, int] = {}
_MONOMIAL_CAP = 1 << 16


class BadIndices(ValueError):
    pass


class BadParameters(ValueError):
    pass


class DegreeOverflow(ValueError):
    pass


class NotDivisible(ValueError):
    def __init__(self, remainder: "Polynomial"):
        super().__init__(f"division left remainder {remainder}")
        self.remainder = remainder


def _shift(v: Var) -> int:
    """The bit offset of v's field, handed out on first use; a hit takes no lock."""
    global _guard
    if v not in _SHIFTS:
        v = (v[0], operator.index(v[1]))
        with _REGISTER:
            if v not in _SHIFTS:
                _VARS.append(v)
                _guard |= 1 << (len(_VARS) * EXP_BITS - 1)
                _SHIFTS[v] = (len(_VARS) - 1) * EXP_BITS  # published after its guard bit
    return _SHIFTS[v]


def _mac(row: dict[int, int], a: dict[int, int], b: dict[int, int],
         shift: int = 0, sign: int = 1) -> dict[int, int]:
    """Add sign * a * b into the term dict row, every monomial shifted by
    shift, and return row.  With fields of at most MAX_EXP in a and b and
    at most 1 in shift, no key carries; `_clean` checks the guard bits."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1 and not row:  # a fresh row: no two keys collide
        ((m1, c1),) = a.items()
        m1, c1 = m1 + shift, sign * c1
        for m2, c2 in b.items():
            row[m1 + m2] = c1 * c2
        return row
    get = row.get
    for m1, c1 in a.items():
        m1, c1 = m1 + shift, sign * c1
        for m2, c2 in b.items():
            m = m1 + m2
            row[m] = get(m, 0) + c1 * c2
    return row


def _clean(t: dict[int, int]) -> dict[int, int]:
    """t without its zero coefficients; a surviving monomial with a guard
    bit set raises DegreeOverflow instead of carrying into the next field."""
    if 0 in t.values():
        t = {m: c for m, c in t.items() if c}
    if t and reduce(or_, t) & _guard:
        raise DegreeOverflow(f"an exponent exceeds {MAX_EXP}")
    return t


def _shared(t: dict[int, int]) -> dict[int, int]:
    """t re-keyed through the monomial table, so equal monomials of every
    re-keyed dict are one int object; a t longer than the cap is kept as it is."""
    if len(_MONOMIALS) + len(t) > _MONOMIAL_CAP:
        _MONOMIALS.clear()
        if len(t) > _MONOMIAL_CAP:
            return t
    keep = _MONOMIALS.setdefault
    return {keep(m, m): c for m, c in t.items()}


def _move(t: dict[int, int], src: int, dst: int) -> dict[int, int]:
    """t with the exponents of the field at bit offset src moved onto dst's."""
    out: dict[int, int] = {}
    for m, c in t.items():
        e = (m >> src) & _FIELD
        m += (e << dst) - (e << src)
        out[m] = out.get(m, 0) + c
    return _clean(out)


class Polynomial:
    """Immutable sparse polynomial with integer coefficients.  `terms` is a
    read-only view from packed monomials to coefficients."""

    __slots__ = ("_t",)

    def __init__(self, terms: dict[int, int] | None = None):
        t = _clean({m: operator.index(c) for m, c in dict(terms).items()}) if terms else {}
        if reduce(or_, t, 0) >> (len(_VARS) * EXP_BITS):  # a negative key too
            raise ValueError("a monomial uses a field that no variable has")
        self._t = t

    @staticmethod
    def _of(t: dict[int, int]) -> "Polynomial":
        """Wrap a term dict that has no zero coefficients."""
        f = object.__new__(Polynomial)
        f._t = t
        return f

    @property
    def terms(self) -> MappingProxyType:
        return MappingProxyType(self._t)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def const(c: int) -> "Polynomial":
        c = operator.index(c)
        return Polynomial._of({0: c} if c else {})

    @staticmethod
    def var(axis: str, index: int, exp: int = 1) -> "Polynomial":
        exp = operator.index(exp)
        if not 0 <= exp <= MAX_EXP:
            raise DegreeOverflow(f"exponent {exp} outside 0..{MAX_EXP}")
        if exp == 0:
            return Polynomial.const(1)
        return Polynomial._of({exp << _shift((axis, operator.index(index))): 1})

    # -- ring operations -----------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        if isinstance(other, int):
            other = Polynomial.const(other)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        t = dict(self._t)
        for m, c in other._t.items():
            c += t.get(m, 0)
            if c:
                t[m] = c
            else:
                del t[m]
        return Polynomial._of(t)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._of({m: -c for m, c in self._t.items()})

    def __sub__(self, other) -> "Polynomial":
        if not isinstance(other, (int, Polynomial)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self).__add__(other)  # NotImplemented for a foreign other

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, (int, Polynomial)):
            return NotImplemented
        t = {0: other} if isinstance(other, int) else other._t
        return Polynomial._of(_clean(_mac({}, self._t, t)))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValueError("negative power")
        out, t = {0: 1}, self._t
        while n:  # by squaring
            if n & 1:
                out = _clean(_mac({}, out, t))
            n >>= 1
            if n:
                t = _clean(_mac({}, t, t))
        return Polynomial._of(out)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = Polynomial.const(other)
        return isinstance(other, Polynomial) and self._t == other._t

    def __hash__(self):
        if self._t.keys() <= {0}:  # a constant hashes as its int, as __eq__ compares
            return hash(self._t.get(0, 0))
        return hash(frozenset(self._t.items()))

    def __bool__(self) -> bool:
        return bool(self._t)

    def __reduce__(self):  # field numbers are per process: pickle the text
        return parse_poly, (format_poly(self),)

    # -- queries -------------------------------------------------------------

    def variables(self) -> set[Var]:
        return {v for v, _ in _fields(reduce(or_, self._t, 0))}

    def substitute(self, assignment: dict[Var, "Polynomial"]) -> "Polynomial":
        """Ring-homomorphic substitution of the listed variables.  Terms
        with the same exponents in those variables share one image, and
        each power base**e is computed once."""
        subs = [(_shift(v), base) for v, base in assignment.items()]
        mask = sum(_FIELD << s for s, _ in subs)
        groups: dict[int, dict[int, int]] = {}
        for m, c in self._t.items():
            groups.setdefault(m & mask, {})[m & ~mask] = c
        powers: dict[tuple[int, int], dict[int, int]] = {}
        out: dict[int, int] = {}
        for key, image in groups.items():
            for s, base in subs:
                e = (key >> s) & _FIELD
                if e:
                    if (s, e) not in powers:
                        powers[(s, e)] = (base**e)._t
                    image = _clean(_mac({}, image, powers[(s, e)]))
            _mac(out, image, {0: 1})
        return Polynomial._of(_clean(out))

    def constant_value(self) -> int:
        if not self._t:
            return 0
        if set(self._t) == {0}:
            return self._t[0]
        raise ValueError("not a constant polynomial")

    # -- printing ------------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    __repr__ = __str__


def x(i: int) -> Polynomial:
    return Polynomial.var("x", i)


def y(i: int) -> Polynomial:
    return Polynomial.var("y", i)


# -- textual format ----------------------------------------------------------


def _fields(m: int):
    """(variable, exponent) for each nonzero field of m, highest first."""
    while m:
        k = (m.bit_length() - 1) // EXP_BITS
        yield _VARS[k], (m >> (k * EXP_BITS)) & _FIELD
        m &= (1 << (k * EXP_BITS)) - 1


def format_poly(f: Polynomial) -> str:
    if not f:
        return "0"
    rows = []
    for m, c in f.terms.items():
        mono = tuple(sorted(_fields(m)))
        rows.append((-sum(e for _, e in mono), mono, c))
    rows.sort()
    bits: list[str] = []
    for _, mono, c in rows:
        factors = [f"{axis}{idx}" + (f"^{e}" if e > 1 else "") for (axis, idx), e in mono]
        mag = abs(c)
        body = "*".join(([str(mag)] if mag != 1 or not factors else []) + factors)
        if not bits:
            bits.append(body if c > 0 else "-" + body)
        else:
            bits.append(("+ " if c > 0 else "- ") + body)
    return " ".join(bits)


def parse_poly(text: str) -> Polynomial:
    """Inverse of format_poly, accepting e.g. '3*x1*y2^2 - x3 + 4'."""
    out = Polynomial()
    for sign, term in re.findall(r"([+-]?)\s*([^\s+-]+)", text):
        coeff = -1 if sign == "-" else 1
        mono = Polynomial.const(1)
        for factor in term.split("*"):
            if factor.isdigit():
                coeff *= int(factor)
            else:
                body, _, exp = factor.partition("^")
                mono = mono * Polynomial.var(body[0], int(body[1:]), int(exp or 1))
        out = out + coeff * mono
    return out


# -- shift operators and exact division --------------------------------------


def sigma_apply(a: int, b: int, k: int, f: Polynomial) -> Polynomial:
    """The ring endomorphism sending z_t to z_t + x_a - x_b for t >= k
    (z either x or y) and fixing the variables below k.  Requires a < b.
    Every moved variable moves by the same s, so sigma f is the sum of
    s^m * D^(m) f by Horner, D^(m) = D^m / m! along the moved fields."""
    if a >= b:
        raise BadIndices(f"sigma needs a < b, got a={a}, b={b}")
    step = {1 << _shift(("x", a)): 1, 1 << _shift(("x", b)): -1}
    moved = []
    for axis, idx in f.variables():
        if axis not in ("x", "y"):
            raise BadIndices(f"sigma undefined on axis {axis!r}")
        if idx >= k:
            moved.append(_shift((axis, idx)))
    layers = [f._t]
    while layers[-1]:  # D^(n) f = D(D^(n-1) f) / n exactly; D: z^e -> e * z^(e-1)
        d: dict[int, int] = {}
        for m, c in layers[-1].items():
            for s in moved:
                e = (m >> s) & _FIELD
                if e:
                    d[m - (1 << s)] = d.get(m - (1 << s), 0) + c * e
        layers.append({m: c // len(layers) for m, c in d.items() if c})
    acc: dict[int, int] = {}
    for layer in reversed(layers):  # a guard bit is read before a field can carry
        acc = _clean(_mac(dict(layer), acc, step))
    return Polynomial._of(acc)


def exact_div(f: Polynomial, a: int, b: int) -> Polynomial:
    """Quotient of f by (x_a - x_b), raising NotDivisible on any remainder:
    f with x_a's field moved onto x_b's, which must vanish identically."""
    sa, sb = _shift(("x", a)), _shift(("x", b))
    remainder = _move(f._t, sa, sb)
    if remainder:
        raise NotDivisible(Polynomial._of(remainder))
    quot: dict[int, int] = {}
    turn = (1 << sa) - (1 << sb)
    for m, c in f._t.items():  # c*m*x_a^e gives c*m*x_a^r*x_b^(e-1-r), r < e
        e = (m >> sa) & _FIELD
        if e:
            m += ((e - 1) << sb) - (e << sa)
            for _ in range(e):
                quot[m] = quot.get(m, 0) + c
                m += turn
    return Polynomial._of(_clean(quot))


# -- the polynomial families --------------------------------------------------


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


def f_poly(i: int, j: int, d, l: Callable[[int], int], s) -> Polynomial:
    """The recursive family: f(empty) = u, and each added element s of S
    applies (id - sigma_{D_s, s}^{s + l(s)}) and divides by x_{D_s} - x_s
    exactly.  The selector l (a `DeltaFunction` or any rule) is read only on S."""
    s = sorted(set(s))
    if any(not i < t <= j for t in s):
        raise BadParameters(f"S = {s} not inside ({i}..{j}]")
    return _f_cached(i, j, frozenset(v for v in d if i < v < j), tuple((t, t + l(t)) for t in s))


# bounded memo of the f family, keyed by what f reads: D within (i..j) (no
# other element is a floor) and the steps (t, t + l(t)) for t in S ascending;
# spinbranch.clear_caches() empties it
@lru_cache(maxsize=1 << 14)
def _f_cached(i: int, j: int, d: frozenset, steps: tuple) -> Polynomial:
    """f of S is min S's step applied to f of the rest, so every S shares its tails."""
    if not steps:
        return u_poly(i, j, d)
    (t, k), rest = steps[0], _f_cached(i, j, d, steps[1:])
    t0 = d_floor(d, i, t)
    return exact_div(rest - sigma_apply(t0, t, k, rest), t0, t)


def g1(i: int, j: int, s) -> Polynomial:
    """g1 = f with D empty and the selector constantly 1 (f reads it only on S)."""
    if not i < j:
        raise BadParameters("g1 needs i < j")
    s = frozenset(s)
    if any(not i < t < j for t in s):
        raise BadParameters(f"S = {sorted(s)} not inside ({i}..{j})")
    return f_poly(i, j, (), lambda t: 1, s)


def g2(i: int, k: int, q: int, j: int, s) -> Polynomial:
    """g2 = f with D = {k} and the l2 selector: 1 strictly inside (i..k) or
    (q..j), else 0 (in particular 0 on [k..q] and at j)."""
    if not (i <= k <= q <= j and i < q):
        raise BadParameters(f"bad g2 parameters ({i},{k},{q},{j})")
    return f_poly(i, j, (k,), lambda t: int(i < t < k or q < t < j), s)  # f_poly checks S


def lin_reduce(f: Polynomial, subst: dict[int, int]) -> Polynomial:
    """Replace each listed y_b by its x_a (`subst` maps y-indices to
    x-indices): the normal form of f modulo the ideal generated by the
    differences x_a - y_b, by moving exponents alone."""
    t = f._t
    for b, a in subst.items():  # one move per pass: no field can carry
        t = _move(t, _shift(("y", b)), _shift(("x", a)))
    return Polynomial._of(t)
