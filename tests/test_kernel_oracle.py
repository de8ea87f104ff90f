"""The packed polynomial kernel against the dict-of-tuples reference in
polyref.py, and each operation's defining property at random integer
points.  Library results are read back through their printed form only."""
import importlib
import itertools
import json
import os
import random
import re
import pickle
import pkgutil
import subprocess
import sys

import pytest

import polyref as ref
import spinbranch
from spinbranch import clear_caches, poly, raising, sigseq, verify
from spinbranch.core import SignedSet, Weight
from spinbranch.indices import classify_indices, reduce_residue
from spinbranch.poly import (
    MAX_EXP,
    DegreeOverflow,
    NotDivisible,
    Polynomial,
    exact_div,
    f_poly,
    format_poly,
    g1,
    g2,
    lin_reduce,
    parse_poly,
    sigma_apply,
    x,
    y,
)
from spinbranch.raising import (
    DeltaFunction,
    U0Element,
    bracket_hom,
    raising_closed,
    raising_rec,
    u0_h,
    u0_hbar,
)

AXES = "xy"


def random_ref(rng: random.Random, axes=AXES, max_idx: int = 5) -> dict:
    out: dict = {}
    for _ in range(rng.randint(0, 5)):
        mono = {}
        for _ in range(rng.randint(0, 3)):
            v = (rng.choice(axes), rng.randint(1, max_idx))
            mono[v] = mono.get(v, 0) + rng.randint(1, 3)
        out = ref.add(out, {tuple(sorted(mono.items())): rng.randint(-4, 4)})
    return out


def kernel(f: dict) -> Polynomial:
    out = Polynomial.const(0)
    for m, c in f.items():
        term = Polynomial.const(c)
        for (axis, idx), e in m:
            term = term * Polynomial.var(axis, idx, e)
        out = out + term
    return out


def read(p: Polynomial) -> dict:
    return ref.from_text(format_poly(p))


def random_point(rng: random.Random, max_idx: int = 9) -> dict:
    return {(a, i): rng.randint(-6, 6) for a in "xyH" for i in range(1, max_idx + 1)}


def test_printing_matches_the_reference_order():
    rng = random.Random(11)
    for _ in range(400):
        f = random_ref(rng)
        assert format_poly(kernel(f)) == ref.to_text(f)
        assert read(kernel(f)) == f


def test_product_and_power():
    rng = random.Random(13)
    for _ in range(300):
        f, g = random_ref(rng), random_ref(rng)
        prod = read(kernel(f) * kernel(g))
        assert prod == ref.mul(f, g)
        n = rng.randint(0, 4)
        pw = read(kernel(f) ** n)
        assert pw == ref.power(f, n)
        for _ in range(3):
            pt = random_point(rng)
            assert ref.evaluate(prod, pt) == ref.evaluate(f, pt) * ref.evaluate(g, pt)
            assert ref.evaluate(pw, pt) == ref.evaluate(f, pt) ** n


def test_substitute():
    rng = random.Random(14)
    for _ in range(300):
        f = random_ref(rng)
        listed = rng.sample([(a, i) for a in AXES for i in range(1, 7)], rng.randint(0, 5))
        images = {v: random_ref(rng, axes="xyH") for v in listed}
        out = read(kernel(f).substitute({v: kernel(g) for v, g in images.items()}))
        assert out == ref.substitute(f, images)
        for _ in range(3):
            pt = random_point(rng)
            moved = dict(pt)
            moved.update((v, ref.evaluate(g, pt)) for v, g in images.items())
            assert ref.evaluate(out, pt) == ref.evaluate(f, moved)


def test_sigma_apply():
    rng = random.Random(15)
    for _ in range(300):
        f = random_ref(rng)
        a = rng.randint(1, 4)
        b = rng.randint(a + 1, 6)
        k = rng.randint(1, 7)
        out = read(sigma_apply(a, b, k, kernel(f)))
        for _ in range(3):
            pt = random_point(rng)
            shift = pt[("x", a)] - pt[("x", b)]
            moved = {(z, t): v + shift if z in AXES and t >= k else v for (z, t), v in pt.items()}
            assert ref.evaluate(out, pt) == ref.evaluate(f, moved)


def test_exact_div():
    rng = random.Random(16)
    for _ in range(300):
        f = random_ref(rng)
        a = rng.randint(1, 4)
        b = rng.randint(a + 1, 6)
        divisor = ref.add(ref.var("x", a), ref.scale(ref.var("x", b), -1))
        assert read(exact_div(kernel(ref.mul(f, divisor)), a, b)) == f
        g = random_ref(rng)
        # the remainder is g with x_a set to x_b
        collapsed = ref.substitute(g, {("x", a): ref.var("x", b)})
        if collapsed:
            with pytest.raises(NotDivisible) as err:
                exact_div(kernel(g), a, b)
            assert read(err.value.remainder) == collapsed
        else:
            q = read(exact_div(kernel(g), a, b))
            for _ in range(3):
                pt = random_point(rng)
                assert ref.evaluate(q, pt) * (pt[("x", a)] - pt[("x", b)]) == ref.evaluate(g, pt)


def test_lin_reduce():
    rng = random.Random(17)
    for _ in range(300):
        f = random_ref(rng)
        ys = rng.sample(range(1, 7), rng.randint(0, 4))
        subst = {b: rng.randint(1, 6) for b in ys}
        out = read(lin_reduce(kernel(f), subst))
        assert out == ref.substitute(f, {("y", b): ref.var("x", a) for b, a in subst.items()})
        for _ in range(3):
            pt = random_point(rng)
            moved = dict(pt)
            moved.update((("y", b), pt[("x", a)]) for b, a in subst.items())
            assert ref.evaluate(out, pt) == ref.evaluate(f, moved)


def _subsets(univ) -> list[frozenset]:
    return [frozenset(c) for r in range(len(univ) + 1) for c in itertools.combinations(univ, r)]


@pytest.mark.parametrize("i", [1, 3])
def test_f_family_matches_the_substitution_route(i):
    # every (D, l, S) at widths <= 4 against sigma by substitution and
    # synthetic division; calls that read the same l on S must agree, and
    # the first of them is read back against the reference
    first: dict = {}
    for j in range(i + 1, i + 5):
        univ = range(i + 1, j + 1)
        subsets = _subsets(univ)
        for d, lvals, s in itertools.product(subsets, itertools.product((0, 1), repeat=j - i), subsets):
            l = dict(zip(univ, lvals))
            out = f_poly(i, j, d, DeltaFunction(i + 1, lvals), s)
            key = (j, d, s, tuple(l[t] for t in sorted(s)))
            if key not in first:
                first[key] = out
                assert read(out) == ref.f_family(i, j, d, l, s), key
            assert out == first[key], key


def test_f_memo_does_not_depend_on_the_call_order():
    # the sweep above at i = 2, with D widened by elements f never reads (at
    # or below i, above j), in a seeded shuffled order and with the memos
    # emptied between blocks: a key that drops something f reads hands some
    # later call a polynomial built for other parameters
    i, rng = 2, random.Random(28)
    cases = []
    for j in range(i + 1, i + 5):
        subsets = _subsets(range(i + 1, j + 1))
        for d, lvals, s in itertools.product(subsets, itertools.product((0, 1), repeat=j - i), subsets):
            cases.append((j, d | set(rng.sample((0, i - 1, i, j + 1), rng.randint(0, 2))), lvals, s))
    rng.shuffle(cases)
    for start in range(0, len(cases), 1000):
        clear_caches()
        for j, d, lvals, s in cases[start:start + 1000]:
            out = f_poly(i, j, d, DeltaFunction(i + 1, lvals), s)
            l = dict(zip(range(i + 1, j + 1), lvals))
            assert read(out) == ref.f_family(i, j, d, l, s), (j, sorted(d), lvals, sorted(s))


def test_g_families_match_the_substitution_route(monkeypatch):
    # the g1/g2 arguments of the poly-identities sweep at widths <= 4
    calls = {"g1": set(), "g2": set()}
    for name in calls:
        def record(*args, name=name, lib=getattr(verify, name)):
            calls[name].add(args)
            return lib(*args)
        monkeypatch.setattr(verify, name, record)
    rep = verify.VerdictReport("poly-identities", {})
    for w in range(1, 5):
        verify._g_identities(rep, 1, 1 + w)
    assert rep.finish().passed and len(calls["g1"]) > 20 and len(calls["g2"]) > 100
    for i, j, s in calls["g1"]:
        ones = dict.fromkeys(range(i + 1, j + 1), 1)
        assert read(g1(i, j, s)) == ref.f_family(i, j, (), ones, s), (i, j, s)
    for i, k, q, j, s in calls["g2"]:
        l2 = {t: int(i < t < k or q < t < j) for t in range(i + 1, j + 1)}
        assert read(g2(i, k, q, j, s)) == ref.f_family(i, j, {k}, l2, s), (i, k, q, j, s)


def test_bracket_hom():
    rng = random.Random(18)
    for _ in range(200):
        f = random_ref(rng)
        rows = bracket_hom(kernel(f)).to_json()
        assert all(row["bars"] == [] for row in rows)
        image = ref.from_text(rows[0]["coeff"]) if rows else {}
        for _ in range(3):
            pt = random_point(rng)
            moved = dict(pt)
            for i in range(1, 10):
                h = pt[("H", i)]
                moved[("x", i)] = h * (h - 1)
                moved[("y", i)] = (h + 1) * h
            assert ref.evaluate(image, pt) == ref.evaluate(f, moved)


def test_sympy_cross_check():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(19)
    for _ in range(40):
        f, g = random_ref(rng), random_ref(rng)
        ours = sympy.sympify(format_poly(kernel(f) * kernel(g)).replace("^", "**"))
        theirs = sympy.expand(
            sympy.sympify(ref.to_text(f).replace("^", "**"))
            * sympy.sympify(ref.to_text(g).replace("^", "**"))
        )
        assert sympy.expand(ours - theirs) == 0


# -- the degree guard ------------------------------------------------------------


def test_degree_guard_raises_instead_of_wrapping():
    top = Polynomial.var("x", 1, MAX_EXP)
    assert format_poly(top * x(2)) == f"x1^{MAX_EXP}*x2"
    assert format_poly(Polynomial.var("x", 1, MAX_EXP - 1) * x(1)) == f"x1^{MAX_EXP}"
    with pytest.raises(DegreeOverflow):
        top * x(1)
    with pytest.raises(DegreeOverflow):
        (top + y(3)) * (x(1) + 1)
    with pytest.raises(DegreeOverflow):
        x(1) ** (MAX_EXP + 1)
    with pytest.raises(DegreeOverflow):
        Polynomial.var("x", 1, MAX_EXP + 1)
    with pytest.raises(DegreeOverflow):
        parse_poly(f"x1^{MAX_EXP + 1}")
    with pytest.raises(DegreeOverflow):
        lin_reduce(top * y(2), {2: 1})
    with pytest.raises(DegreeOverflow):
        exact_div(Polynomial.var("x", 2, MAX_EXP) * x(1) ** 2, 1, 2)
    with pytest.raises(DegreeOverflow):
        top.substitute({("x", 1): x(1) ** 2})
    # the constructor takes outside terms: x1^(MAX_EXP + 1) is refused there
    (x1,) = x(1).terms
    assert Polynomial({MAX_EXP * x1: 1, 0: 0}) == top
    with pytest.raises(DegreeOverflow):
        Polynomial({(MAX_EXP + 1) * x1: 1})
    # U0: the H's merged by the product and by normal ordering carry the guard
    h_top = U0Element({(): Polynomial.var("H", 1, MAX_EXP)})
    assert format_poly((h_top * u0_h(2)).terms[()]) == f"H1^{MAX_EXP}*H2"
    with pytest.raises(DegreeOverflow):
        h_top * u0_h(1)
    with pytest.raises(DegreeOverflow):
        h_top * (u0_hbar(1) * u0_hbar(1))
    with pytest.raises(DegreeOverflow):
        h_top * u0_hbar(1) * u0_hbar(1)
    with pytest.raises(DegreeOverflow):
        U0Element({(1, 1): Polynomial.var("H", 1, MAX_EXP)})


def test_shift_and_division_raise_instead_of_carrying():
    top1, top2, top3 = (Polynomial.var("x", t, MAX_EXP) for t in (1, 2, 3))
    # sigma_{1,2}^3 moves x3 by x1 - x2, which takes x1 past MAX_EXP; x3^MAX_EXP
    # has 32 768 Taylor layers, and the first Horner step must already raise
    assert sigma_apply(1, 2, 4, top1 * top3) == top1 * top3
    with pytest.raises(DegreeOverflow):
        sigma_apply(1, 2, 3, top1 * x(3))
    with pytest.raises(DegreeOverflow):
        sigma_apply(1, 2, 3, top1 * top3)
    # the remainder moves x1's field onto x2's: up to MAX_EXP it fits
    below = Polynomial.var("x", 2, MAX_EXP - 1)
    assert exact_div(below * (x(1) - x(2)), 1, 2) == below
    with pytest.raises(DegreeOverflow):
        exact_div(x(1) * top2, 1, 2)
    with pytest.raises(DegreeOverflow):
        exact_div(top1 * top2, 1, 2)


def test_constants_hash_as_their_ints():
    five, zero = Polynomial.const(5), Polynomial()
    assert five == 5 and hash(five) == hash(5) and hash(zero) == hash(0)
    assert 5 in {five} and five in {5} and zero in {0} and 0 in {zero}
    assert len({five, 5, zero, 0}) == 2
    assert {5: "five", 0: "zero"}[five] == "five" and {zero: "zero"}[0] == "zero"
    assert x(1) not in {1} and hash(x(1) + 5) != hash(5)


def test_coefficients_are_integers():
    (x1,) = x(1).terms
    for terms in ({x1: 2.5}, {0: 2.5}, {x1: 1, 0: "1"}):
        with pytest.raises(TypeError):
            Polynomial(terms)
    for c in (2.5, None, "1"):
        with pytest.raises(TypeError):
            Polynomial.const(c)
    assert Polynomial({x1: True}) == x(1) and Polynomial.const(True) == 1


def fresh(script: str, *args, stdin: bytes | None = None, **env) -> str:
    """The standard output of `script` run with `args` in a fresh
    interpreter, with `env` set, that imports the library and the test
    helpers: field numbers are per process, so a first use must run in a
    new one."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(spinbranch.__file__)))
    path = os.pathsep.join((src, os.path.dirname(os.path.abspath(__file__))))
    done = subprocess.run([sys.executable, "-c", script, *args], input=stdin, capture_output=True,
                          env=dict(os.environ, PYTHONPATH=path, **env), timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout.decode()


_THREADS = """
import sys, threading
import polyref as ref
from spinbranch.poly import Polynomial, format_poly, x
read = lambda p: ref.from_text(format_poly(p))
names = [("t", k) for k in range(4000)]
sys.setswitchinterval(1e-6)
threads = [
    threading.Thread(target=lambda part=names[k::8]: [Polynomial.var(*v) for v in part])
    for k in range(16)
]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
assert not any(t.is_alive() for t in threads)
total = sum((Polynomial.var(*v) for v in names), Polynomial())
assert read(total) == {(((a, i), 1),): 1 for a, i in names}
square = read(Polynomial.var("t", 0) * Polynomial.var("t", 3999) * x(1))
assert square == {((("t", 0), 1), (("t", 3999), 1), (("x", 1), 1)): 1}
print(len(names))
"""


def test_variable_fields_are_handed_out_once_under_threads():
    # in a fresh process: 4 000 fields in this one would make every later
    # monomial a huge int and slow the rest of the suite
    assert fresh(_THREADS) == "4000\n"


_FIRST_USE = """
import sys
from spinbranch.poly import Polynomial, x
from spinbranch.raising import U0Element, u0_b, u0_h, u0_hbar
for expr in sys.argv[1:]:
    try:
        print(eval(expr))
    except TypeError:
        print("TypeError")
"""


@pytest.mark.parametrize("exprs, printed", [
    (["u0_hbar(1.5)", "u0_hbar(1)"], ["TypeError", "Hb1"]),
    (["u0_b(1, 2.5)", "u0_b(1, 2)"], ["TypeError", "(H1^2 - H2^2 - H1 - H2)"]),
    (["u0_h(2.0)", "u0_h(2)"], ["TypeError", "H2"]),
    (["Polynomial.var('x', True)", "x(1)"], ["x1", "x1"]),
    (["Polynomial.var('x', 2.0)", "x(2)", "Polynomial.var('x', 2.0)"], ["TypeError", "x2", "TypeError"]),
    (["U0Element({(2.0, 1): 1})", "U0Element({(True, 2): 3})"], ["TypeError", "3*Hb1*Hb2"]),
])
def test_variables_and_bars_take_integer_indices_only(exprs, printed):
    assert fresh(_FIRST_USE, *exprs).splitlines() == printed


_FIELDS = """
from spinbranch.poly import EXP_BITS, Polynomial, x, y
def build(terms):
    try:
        return str(Polynomial(terms))
    except ValueError as exc:
        return type(exc).__name__
second, far = 1 << EXP_BITS, 1 << 40
print(x(1), build({second: 1}), build({far: 1}), build({second: 2, 1: 3}))
print(y(1), build({second: 1}), build({far: 1}), build({2 * second - 1: 1}))
"""


def test_the_constructor_takes_only_handed_out_fields():
    # x1 alone owns field 0: field 1 is no variable's until y1 takes it, and
    # a monomial of a later field never builds; a guard bit stays a
    # DegreeOverflow (fresh process: field numbers are per process)
    assert fresh(_FIELDS).splitlines() == ["x1 ValueError ValueError ValueError",
                                           "y1 y1 ValueError DegreeOverflow"]


@pytest.mark.parametrize("expr", [
    "x(1) * 2.5", "x(1) + 2.5", "2.5 * x(1)", "x(1) - 2.5", "2.5 - x(1)", "x(1) + None",
    "u0_h(1) + 1", "1 + u0_h(1)", "u0_h(1) - 1", "u0_h(1) * 2", "u0_h(1) * x(1)",
    "x(1) * u0_h(1)", "u0_h(1) + x(1)", "x(1) ** 2.0", "x(1) ** x(1)",
    "Polynomial.var('x', 1, 2.0)",
])
def test_foreign_operands_are_a_type_error(expr):
    # each method answers NotImplemented for an operand type it does not
    # take, so Python raises a TypeError that names the operator (int
    # operands of a Polynomial stay allowed); an exponent must be an int
    op = re.search(r" (\*\*|[-+*]) ", expr)
    message = rf"unsupported operand type\(s\) for {re.escape(op[1])}[: ]" if op else "integer"
    with pytest.raises(TypeError, match=message):
        eval(expr)


_UNPICKLE = """
import pickle, sys
from spinbranch.poly import Polynomial, format_poly
Polynomial.var("z", 7) * Polynomial.var("y", 9)  # other fields first
print(format_poly(pickle.loads(sys.stdin.buffer.read())))
"""


def test_pickles_do_not_depend_on_field_numbers():
    f = 3 * x(1) * y(2) ** 2 - x(3) + 4
    data = pickle.dumps(f)
    assert pickle.loads(data) == f
    assert fresh(_UNPICKLE, stdin=data).strip() == format_poly(f)


# -- caches ------------------------------------------------------------------------


def module_memos() -> dict:
    """Every module-level object in spinbranch.* that can be cleared, so a
    new or renamed memo cannot escape the hook unnoticed."""
    memos = {}
    for info in pkgutil.iter_modules(spinbranch.__path__):
        mod = importlib.import_module(f"spinbranch.{info.name}")
        for attr, obj in vars(mod).items():
            if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == mod.__name__:
                memos[f"{info.name}.{attr}"] = obj
    return memos


def test_caches_are_bounded_and_reset_by_one_hook():
    memos = module_memos()
    assert set(memos) == {"sigseq._words", "poly._f_cached", "raising._g_bracket",
                          "raising._rec"}
    delta = DeltaFunction(1, (0, 1, 0))
    m = SignedSet.of(evens=[2], odds=[4])
    raising_rec(1, 4, 0, delta, m)
    raising_closed(1, 4, 0, delta, m)
    g1(1, 4, {2})
    classify_indices(Weight((3, 1, 0), 5))
    for name, cache in memos.items():
        info = cache.cache_info()
        assert info.maxsize is not None and info.currsize > 0, name
    assert sigseq._words(Weight((3, 1, 0), 5))[1]  # the reductions, kept beside the words
    clear_caches()
    assert {name for name, cache in memos.items() if cache.cache_info().currsize} == set()


def test_the_f_family_shares_one_memo_through_its_tails():
    # the algebra workload's poly-identities sizes: every f, g1 and g2 the
    # suite asks for, and every tail of their S, is built once; a key that
    # kept something f does not read (D outside (i..j), l off S, q) would miss more
    clear_caches()
    rep = verify.verify_poly_identities(width=4, lin_width=3, lin_samples=200, seed=99)
    assert rep.cases == 691 and rep.passed
    info = poly._f_cached.cache_info()
    assert (info.misses, info.hits) == (282, 751)
    assert g1(1, 4, {2, 3}) == f_poly(1, 4, (), DeltaFunction(2, (1, 1, 1)), {2, 3})
    assert poly._f_cached.cache_info().misses == 282  # both were built by the suite


def _width3_sweep() -> list:
    sets = verify.admissible_signed_sets(1, 4)
    deltas = [DeltaFunction(1, dv) for dv in itertools.product((0, 1), repeat=3)]
    return [raising_rec(1, 4, eps, delta, m) for m in sets for eps in (0, 1) for delta in deltas]


def test_the_raising_memo_shares_its_monomials(monkeypatch):
    # a kept result is re-keyed once through poly's table of monomials, so
    # equal monomials of two results are one int object (above 256: CPython
    # keeps one object per small int anyway); emptying the table, by
    # clear_caches or before it passes its cap, loses sharing, never a value
    clear_caches()
    delta = DeltaFunction(1, (0, 1, 0))
    first = raising_rec(1, 4, 0, delta, SignedSet.of(evens=[2], odds=[4]))
    second = raising_rec(1, 4, 1, delta, SignedSet.of(evens=[3, 4]))
    kept = {m: m for c in first.terms.values() for m in c.terms}
    shared = [m for c in second.terms.values() for m in c.terms if m in kept and m > 256]
    assert shared and all(kept[m] is m is poly._MONOMIALS[m] for m in shared)
    clear_caches()
    assert not poly._MONOMIALS

    expected = _width3_sweep()
    clear_caches()
    cap, sizes = 40, []  # below the sweep's 94 monomials and its longest term dict (54)
    rekey = poly._shared

    def shared_within_cap(t):
        out = rekey(t)
        sizes.append(len(poly._MONOMIALS))
        assert sizes[-1] <= cap and out == t
        return out

    monkeypatch.setattr(poly, "_MONOMIAL_CAP", cap)
    monkeypatch.setattr(poly, "_shared", shared_within_cap)
    assert _width3_sweep() == expected
    assert any(b < a for a, b in zip(sizes, sizes[1:]))  # the table was emptied at its cap
    clear_caches()


_ORACLE_TRACED_PEAK = """
import tracemalloc
from spinbranch import verify
tracemalloc.start()
assert verify.verify_raising_oracle(width=4).passed
print(tracemalloc.get_traced_memory()[1])
"""


def test_the_raising_oracle_keeps_a_traced_memory_budget():
    # width 4 from a fresh process's cold caches: the memo's results share
    # their monomials through poly's table (about 5.0 MiB of traced peak
    # when each result kept its own ints, 3.0 MiB with the table)
    assert int(fresh(_ORACLE_TRACED_PEAK)) < 4 << 20


def test_closed_forms_bracket_each_g_once(monkeypatch):
    calls = []
    monkeypatch.setattr(raising, "bracket_hom", lambda f: calls.append(f) or bracket_hom(f))
    clear_caches()
    sets = verify.admissible_signed_sets(1, 4)
    deltas = [DeltaFunction(1, dv) for dv in itertools.product((0, 1), repeat=3)]
    first = [raising_closed(1, 4, eps, delta, m) for m in sets for eps in (0, 1) for delta in deltas]
    assert 0 < len(calls) == raising._g_bracket.cache_info().currsize  # one per distinct g2
    calls.clear()
    again = [raising_closed(1, 4, eps, delta, m) for m in sets for eps in (0, 1) for delta in deltas]
    assert again == first and calls == []


def test_cached_results_cannot_be_changed_by_a_caller():
    delta = DeltaFunction(1, (1, 0))
    m = SignedSet.of(evens=[3], odds=[2])
    first = raising_rec(1, 3, 1, delta, m)
    text = json.dumps(first.to_json())
    g = g2(1, 2, 3, 3, {3})
    g_text = format_poly(g)
    image = bracket_hom(g)
    with pytest.raises(TypeError):
        first.terms[(7,)] = Polynomial.const(1)
    with pytest.raises(TypeError):
        del first.terms[next(iter(first.terms))]
    with pytest.raises(TypeError):
        next(iter(first.terms.values())).terms[0] = 5
    with pytest.raises(TypeError):
        g.terms[0] = 1
    with pytest.raises(AttributeError):
        g.terms = {}
    with pytest.raises(TypeError):
        image.terms[()] = Polynomial.const(3)
    assert json.dumps(raising_rec(1, 3, 1, delta, m).to_json()) == text
    assert format_poly(g2(1, 2, 3, 3, {3})) == g_text
    assert bracket_hom(g) == image


def test_memoised_reductions_cannot_be_changed_by_a_caller():
    lam = Weight((16, 11, 10, 10, 9, 5, 1, 0), 5)
    red = reduce_residue(lam, 0)
    kept = (red.good, red.normal, red.reduced, red.gaps)
    for name, value in (("good", 3), ("normal", frozenset()), ("reduced", ()), ("gaps", ())):
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(red, name, value)
        with pytest.raises(AttributeError, match="cannot assign to field"):
            delattr(red, name)
    with pytest.raises(TypeError):
        red.gaps[1] = (0, 0)
    with pytest.raises(TypeError):
        del red.gaps[1]
    with pytest.raises(TypeError):
        red.gaps[1][0] = 5
    with pytest.raises(TypeError):
        red.at[1] = 0
    with pytest.raises(TypeError):
        red.word[0] = (1, "--")
    for mutator in ("clear", "pop", "update", "setdefault"):
        assert not hasattr(red.gaps, mutator) and not hasattr(red.at, mutator), mutator
    again = reduce_residue(lam, 0)
    assert again == red and (again.good, again.normal, again.reduced, again.gaps) == kept
    clear_caches()
    assert reduce_residue(lam, 0) == red


# -- determinism across hash seeds ---------------------------------------------------

_CLOSED_FORMS = """
import json
from itertools import product
from spinbranch.core import SignedSet
from spinbranch.raising import DeltaFunction, raising_closed
out = []
for evens, odds in (((4,), (2,)), ((2, 4), ()), ((), (4,)), ((3, 4), (2,))):
    m = SignedSet.of(evens=evens, odds=odds)
    for eps in (0, 1):
        for dv in product((0, 1), repeat=3):
            out.append(raising_closed(1, 4, eps, DeltaFunction(1, dv), m).to_json())
print(json.dumps(out))
"""


def test_closed_forms_do_not_depend_on_the_hash_seed():
    outputs = [fresh(_CLOSED_FORMS, PYTHONHASHSEED=seed) for seed in ("0", "1")]
    assert outputs[0] == outputs[1]
    assert any(rows for rows in json.loads(outputs[0]))
