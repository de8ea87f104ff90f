"""Shared vocabulary: residues mod p, integer weights, signed sets,
{0,1}-valued functions on intervals, segments.

The characteristic p is an odd prime or 0.  For p > 0 residues live in
{0, ..., p-1}; for p = 0 they are plain integers, so residue comparisons
still make sense everywhere.
"""
from __future__ import annotations

import operator


class InvalidCharacteristic(ValueError):
    pass


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def check_characteristic(p: int) -> int:
    """Validate p = 0 or an odd prime and return it as an int; a float or a
    string is a TypeError."""
    p = operator.index(p)
    if p == 0:
        return p
    if p >= 3 and p % 2 == 1 and _is_prime(p):
        return p
    raise InvalidCharacteristic(f"characteristic must be 0 or an odd prime, got {p}")


def res_p(j: int, p: int) -> int:
    """Residue of the integer j: j(j-1) reduced mod p (exact when p = 0)."""
    v = j * (j - 1)
    return v % p if p > 0 else v


def mod(a: int, p: int) -> int:
    """a reduced mod p, or a itself when p = 0."""
    return a % p if p > 0 else a


def congruent(a: int, b: int, p: int) -> bool:
    """a = b mod p, with mod 0 meaning equality."""
    return (a - b) % p == 0 if p > 0 else a == b


class Record:
    """Base of the frozen records.  A subclass's annotated names are its
    fields, in order, and a class value is a field's default.  Records are
    built by position or keyword, then checked by `__post_init__`, and are
    compared, hashed and printed by their field tuple, as a frozen dataclass."""

    _fields, _defaults = (), {}

    def __init_subclass__(cls):
        cls._fields += tuple(vars(cls).get("__annotations__", ()))
        cls._defaults = {f: getattr(cls, f) for f in cls._fields if hasattr(cls, f)}

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(self._fields, args))
        self.__post_init__()

    def _bind(self, args, kwargs):
        name, fields = type(self).__name__, self._fields
        given = dict(zip(fields, args))
        clash = [key for key in kwargs if key not in fields or key in given]
        if len(args) > len(fields) or clash:
            raise TypeError(f"{name}() takes the fields {fields}, got {len(args)} by position "
                            f"and unknown or repeated {clash}")
        given = {**self._defaults, **given, **kwargs}
        missing = [f for f in fields if f not in given]
        if missing:
            raise TypeError(f"{name}() missing fields {missing}")
        return [given[f] for f in fields]

    def __post_init__(self):
        pass

    def __setattr__(self, name, *value):  # and, with no value, `__delattr__`
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __getstate__(self):  # a pickle or copy keeps the fields, not a subclass's cache slot
        return self.__dict__

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


def _trusted(cls, **fields):
    """A frozen `cls` instance with these fields in one dict write: only for
    values read off valid ones, or for records with no `__post_init__`."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def p_strict_pair(a: int, b: int, p: int) -> bool:
    """Whether a, b may be neighbours a row apart in a p-strict sequence:
    a > b, or a = b divisible by p."""
    return a > b or (a == b and congruent(a, 0, p))


class Weight(Record):
    """An integer vector (lambda_1, ..., lambda_n) with its characteristic p."""

    __slots__ = ("_hash",)  # not a field: the field hash, kept when the weight is built
    parts: tuple[int, ...]
    p: int

    def __init__(self, *args, **kwargs):  # the hash is a slot: kept once the fields are checked
        super().__init__(*args, **kwargs)
        object.__setattr__(self, "_hash", hash((self.parts, self.p)))

    def __post_init__(self):
        object.__setattr__(self, "p", check_characteristic(self.p))
        if len(self.parts) < 1:
            raise ValueError("a weight needs at least one entry")
        object.__setattr__(self, "parts", tuple(map(operator.index, self.parts)))

    @staticmethod
    def _of(parts: tuple[int, ...], p: int) -> "Weight":
        """A weight of parts read off a valid one, built by `_trusted`, its hash kept."""
        w = _trusted(Weight, parts=parts, p=p)
        object.__setattr__(w, "_hash", hash((parts, p)))
        return w

    def __hash__(self):  # a memo lookup reads no entry; a copy or pickle hashes on first use
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash((self.parts, self.p)))
            return self._hash

    @property
    def n(self) -> int:
        return len(self.parts)

    def entry(self, i: int) -> int:
        """1-based access: entry(1) = lambda_1."""
        if not 1 <= i <= len(self.parts):
            raise IndexError(f"index {i} out of range 1..{self.n}")
        return self.parts[i - 1]

    def residue(self, i: int) -> int:
        return res_p(self.entry(i), self.p)

    def is_p_strict(self) -> bool:
        """Dominant, and equal adjacent entries are divisible by p."""
        return all(p_strict_pair(a, b, self.p) for a, b in zip(self.parts, self.parts[1:]))

    def minus_w0(self) -> "Weight":
        """(-lambda_n, ..., -lambda_1)."""
        return Weight._of(tuple(-x for x in reversed(self.parts)), self.p)

    def sub_eps(self, i: int) -> "Weight":
        """lambda - epsilon_i, 1-based like `entry`."""
        parts = list(self.parts)
        parts[i - 1] = self.entry(i) - 1
        return Weight._of(tuple(parts), self.p)


class SignedSet(Record):
    """A finite set of integers, each carried unbarred (even) or barred (odd).

    No integer may appear in both roles, so elements are ordered by their
    absolute values.
    """

    evens: frozenset[int] = frozenset()
    odds: frozenset[int] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "evens", frozenset(map(operator.index, self.evens)))
        object.__setattr__(self, "odds", frozenset(map(operator.index, self.odds)))
        clash = self.evens & self.odds
        if clash:
            raise ValueError(f"{sorted(clash)} appear both barred and unbarred")

    @staticmethod
    def of(evens=(), odds=()) -> "SignedSet":
        return SignedSet(evens, odds)


class DeltaFunction(Record):
    """A {0,1}-valued function on the integer interval [lo..hi], hi = lo +
    len(values) - 1: the delta of a raising coefficient at (i, j) lives on
    [i..j-1], and the selector l of the polynomial family f on (i..j]."""

    lo: int
    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "lo", operator.index(self.lo))
        object.__setattr__(self, "values", tuple(map(operator.index, self.values)))
        if not set(self.values) <= {0, 1}:
            raise ValueError("delta values must be 0 or 1")

    @property
    def hi(self) -> int:
        return self.lo + len(self.values) - 1

    def __call__(self, t: int) -> int:
        if not self.lo <= t <= self.hi:
            raise KeyError(f"{t} outside [{self.lo}..{self.hi}]")
        return self.values[t - self.lo]


# -- segment notation -------------------------------------------------------
# (a..b] etc. as concrete integer ranges; used pervasively downstream.


def seg_oo(a: int, b: int) -> range:
    """(a..b) = {a+1, ..., b-1}"""
    return range(a + 1, b)


def seg_oc(a: int, b: int) -> range:
    """(a..b] = {a+1, ..., b}"""
    return range(a + 1, b + 1)
