"""Values derived from valid ones are built by `core._trusted`, skipping the
checks of `__post_init__`.  These tests hold each such method to the public
constructor: equal objects with equal hashes and attributes on valid input,
and every bad-input error still raised."""
import random

import pytest

import definitional
from definitional import partitions_of, restrict
from spinbranch import sigseq
from spinbranch.core import DeltaFunction, InvalidCharacteristic, SignedSet, Weight, seg_oo
from spinbranch.crystal import NotPStrict, PStrictPartition, p_strict_violation
from spinbranch.indices import (
    classify_indices,
    extension_plan,
    non_normal_certificate,
    primitive_plan,
    residue_reductions,
    _slice,
)
from spinbranch.sigseq import Flow, SignMap, r_beta, r_words
from test_indices import _planner_weights


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
    # the plans and re-checks read r_beta over a range as the bare slice of
    # beta's word that bisection finds: the non-empty pairs of the dense
    # r_beta restricted by the public constructor, for ranges that reach
    # past either end of [1..n] or are empty, and for a beta with no word
    rng = random.Random(14)
    for _ in range(600):
        p = rng.choice((0, 3, 5, 7))
        lam = Weight(tuple(rng.randint(-6, 9) for _ in range(rng.randint(1, 9))), p)
        beta = rng.randrange(p) if p else rng.choice(sorted(r_words(lam.parts, p)) + [-1])
        lo = rng.randint(-1, lam.n + 2)
        dom = range(lo, rng.randint(lo - 2, lam.n + 3))
        dense = restrict(definitional.r_beta(lam, beta), dom)
        word = sigseq._words(lam)[0].get(beta, ())
        assert _slice(word, dom) == tuple((i, v) for i, v in dense.values if v)
    # a certificate reads its word from the position after i's, and in case
    # d up to n: the slice of (i..n) at every index i of the word
    for p in (0, 3, 5, 7):
        for lam in _planner_weights(p):
            for beta, red in residue_reductions(lam).items():
                u = definitional.r_beta(lam, beta)
                for i, _ in red.word:
                    dense = restrict(u, seg_oo(i, lam.n))
                    tail = red.word[red.at[i] + 1:red.at.get(lam.n, len(red.word))]
                    assert tail == tuple((t, v) for t, v in dense.values if v), (lam, beta, i)


def test_scans_and_leftovers_match_the_constructors():
    # the flows of the scans and the sets M of `_leftovers` are built by
    # `_trusted`: each equals its value built by the public constructor
    flows = sets = 0
    for p in (0, 3, 5, 7):
        for lam in _planner_weights(p):
            normals = {c.index for c in classify_indices(lam) if c.normal}
            payloads = []
            for i in range(1, lam.n):
                if i in normals:
                    payloads += [step.data for step in primitive_plan(lam, i).steps]
                    payloads += [step.data for h in sorted(normals) if h < i
                                 and lam.residue(h) == lam.residue(i)
                                 for step in extension_plan(lam, h, i).steps]
                else:
                    cert = non_normal_certificate(lam, i)
                    payloads.append({"flow": cert.flow, "M": cert.m_set})
            for data in payloads:
                for key in ("flow", "weak_flow", "resolution"):
                    if key in data:
                        same(data[key], Flow(data[key].edges))
                        flows += 1
                same(data["M"], SignedSet(data["M"].evens, data["M"].odds))
                sets += 1
    assert flows > 6000 and sets > 6000, (flows, sets)


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
