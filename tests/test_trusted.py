"""Values derived from valid ones are built by `core._trusted`, skipping the
checks of `__post_init__`.  These tests hold each such method to the public
constructor: equal objects with equal hashes and attributes on valid input,
and every bad-input error still raised."""
import random

import pytest

from definitional import partitions_of
from spinbranch.core import DeltaFunction, InvalidCharacteristic, SignedSet, Weight
from spinbranch.crystal import NotPStrict, PStrictPartition, p_strict_violation
from spinbranch.indices import _restricted
from spinbranch.sigseq import SignMap, r_beta, r_words


def same(trusted, public):
    assert trusted == public and hash(trusted) == hash(public)
    assert vars(trusted) == vars(public)
    for name, value in vars(public).items():
        assert type(vars(trusted)[name]) is type(value), name


def test_weight_methods_match_the_constructor():
    rng = random.Random(11)
    for _ in range(300):
        p = rng.choice((0, 3, 5, 7))
        lam = Weight(tuple(rng.randint(-6, 9) for _ in range(rng.randint(1, 6))), p)
        same(lam.minus_w0(), Weight(tuple(-x for x in reversed(lam.parts)), p))
        i = rng.randint(1, lam.n)
        parts = list(lam.parts)
        parts[i - 1] -= 1
        same(lam.sub_eps(i), Weight(tuple(parts), p))
        beta = rng.randrange(p) if p else rng.randint(-3, 12)
        u = r_beta(lam, beta)
        same(u, SignMap(u.mode, dict(u.values)))


def test_partition_add_remove_match_the_constructor():
    # every rim node and one past it, at rows 1 .. rows + 2: where the public
    # constructor accepts the new rows the results agree, and where it
    # rejects them the same error names the same rows
    checked = rejected = 0
    for p in (0, 3, 5):
        for size in range(13):
            for parts in partitions_of(size):
                if p_strict_violation(parts, p) is not None:
                    continue
                lam = PStrictPartition(parts, p)
                same(lam.pad_weight(), Weight(parts + (0,), p))
                for r in range(1, len(parts) + 3):
                    padded = list(parts) + [0] * (r - len(parts))
                    for method, delta in (("add", 1), ("remove", -1)):
                        if method == "remove" and r > len(parts):
                            continue
                        new = list(padded)
                        new[r - 1] += delta
                        node = (r, lam.part(r) + (delta > 0))
                        try:
                            public = PStrictPartition(tuple(new), p)
                        except NotPStrict as exc:
                            with pytest.raises(NotPStrict) as got:
                                getattr(lam, method)(node)
                            assert str(got.value) == str(exc)
                            rejected += 1
                            continue
                        same(getattr(lam, method)(node), public)
                        checked += 1
    assert checked > 900 and rejected > 500, (checked, rejected)


def test_word_slices_match_the_constructor():
    # the certificates, plans and re-checks read r_beta over a range as the
    # slice of beta's word that bisection finds: the public constructor's
    # map on the word's pairs in that range, for ranges that reach past
    # either end of [1..n] or are empty, and for a beta with no word
    rng = random.Random(14)
    for _ in range(600):
        p = rng.choice((0, 3, 5, 7))
        lam = Weight(tuple(rng.randint(-6, 9) for _ in range(rng.randint(1, 9))), p)
        beta = rng.randrange(p) if p else rng.choice(sorted(r_words(lam.parts, p)) + [-1])
        lo = rng.randint(-1, lam.n + 2)
        dom = range(lo, rng.randint(lo - 2, lam.n + 3))
        u = r_beta(lam, beta)
        same(_restricted(lam, beta, dom),
             SignMap(u.mode, {i: v for i, v in u.values if i in dom and v}))


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: Weight((1, 0), 4), InvalidCharacteristic),
        (lambda: PStrictPartition((2, 1), 9), InvalidCharacteristic),
        (lambda: Weight((1.5, 0), 3), TypeError),
        (lambda: PStrictPartition((2.0, 1), 3), TypeError),
        (lambda: SignedSet.of(evens=[1.5]), TypeError),
        (lambda: DeltaFunction(0.5, (1,)), TypeError),
        (lambda: SignMap("single", {1.5: "-"}), TypeError),
        (lambda: PStrictPartition((2, 2), 3), NotPStrict),
        (lambda: PStrictPartition((1, 2), 3), NotPStrict),
        (lambda: SignedSet.of(evens=[2], odds=[2]), ValueError),
        (lambda: DeltaFunction(1, (0, 2)), ValueError),
        (lambda: SignMap("triple", {1: "-"}), ValueError),
        (lambda: SignMap("single", {1: "--"}), ValueError),
        (lambda: SignMap("pair", {1: "-"}), ValueError),
    ],
)
def test_public_constructors_keep_every_check(build, error):
    with pytest.raises(error):
        build()


LAM = PStrictPartition((3, 2), 3)
NOT_RIM = "is not a rim node"
NOT_NEXT = "does not extend row"


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: LAM.remove((0, 0)), ValueError, NOT_RIM),  # once read as the last row
        (lambda: LAM.remove((-1, 3)), ValueError, NOT_RIM),
        (lambda: LAM.remove((3, 0)), ValueError, NOT_RIM),
        (lambda: LAM.remove((1, 2)), ValueError, NOT_RIM),
        (lambda: LAM.remove((1, 3)), NotPStrict, "rows 1,2"),
        (lambda: LAM.add((0, 1)), ValueError, NOT_NEXT),  # once read as the last row
        (lambda: LAM.add((-1, 4)), ValueError, NOT_NEXT),
        (lambda: LAM.add((2, 4)), ValueError, NOT_NEXT),
        (lambda: LAM.add((4, 1)), NotPStrict, "rows 3,4"),
        (lambda: PStrictPartition((2, 1), 3).add((2, 2)), NotPStrict, "rows 1,2"),
    ],
)
def test_derived_values_reject_bad_arguments(call, error, match):
    with pytest.raises(error, match=match) as got:
        call()
    if error is ValueError:
        assert type(got.value) is ValueError
