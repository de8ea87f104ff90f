"""Values derived from valid ones are built by `core._trusted`, skipping the
checks of `__post_init__`.  These tests hold each such method to the public
constructor: equal objects with equal hashes and attributes on valid input,
and every bad-input error still raised."""
import random
from collections import Counter

import pytest

import definitional
import spinbranch
from definitional import partitions_of, restrict
from spinbranch import indices, sigseq
from spinbranch.core import DeltaFunction, InvalidCharacteristic, SignedSet, Weight, seg_oo
from spinbranch.crystal import (ContentReduction, NotPStrict, PStrictPartition,
                                content_reductions, p_strict_violation)
from spinbranch.indices import (
    Certificate,
    ConstructionPlan,
    IndexClassification,
    PlanStep,
    ResidueReduction,
    classify_indices,
    extension_plan,
    non_normal_certificate,
    primitive_plan,
    residue_reductions,
    validate_certificate,
    validate_plan,
    _slice,
)
from spinbranch.sigseq import Flow, FlowReport, product_of, r_beta, r_words
from test_indices import _planner_weights


def _hash(value):
    # a record with a read-only mapping field (`ResidueReduction`) has no hash
    try:
        return hash(value)
    except TypeError as exc:
        return type(exc)


def same(trusted, public):
    assert trusted == public and _hash(trusted) == _hash(public)
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
    # r_beta filtered by index, for ranges that reach past either end of
    # [1..n] or are empty, and for a beta with no word
    rng = random.Random(14)
    for _ in range(600):
        p = rng.choice((0, 3, 5, 7))
        lam = Weight(tuple(rng.randint(-6, 9) for _ in range(rng.randint(1, 9))), p)
        beta = rng.randrange(p) if p else rng.choice(sorted(r_words(lam.parts, p)) + [-1])
        lo = rng.randint(-1, lam.n + 2)
        dom = range(lo, rng.randint(lo - 2, lam.n + 3))
        dense = restrict(definitional.r_beta(lam, beta), dom)
        word = sigseq._words(lam)[0].get(beta, ())
        assert _slice(word, dom) == tuple((i, v) for i, v in dense if v)
    # a certificate reads its word from the position after i's, and in case
    # d up to n: the slice of (i..n) at every index i of the word
    for p in (0, 3, 5, 7):
        for lam in _planner_weights(p):
            for beta, red in residue_reductions(lam).items():
                u = definitional.r_beta(lam, beta)
                for i, _ in red.word:
                    dense = restrict(u, seg_oo(i, lam.n))
                    tail = red.word[red.at[i] + 1:red.at.get(lam.n, len(red.word))]
                    assert tail == tuple((t, v) for t, v in dense if v), (lam, beta, i)


def _index_layer(lam):
    """The classification of lam, the certificate of every non-normal index
    and every primitive and extension plan, each passing its re-check."""
    classes = classify_indices(lam)
    normals = {c.index for c in classes if c.normal}
    certs, plans = [], []
    for i in range(1, lam.n):
        if i in normals:
            plans.append(primitive_plan(lam, i))
            plans += [extension_plan(lam, h, i) for h in sorted(normals)
                      if h < i and lam.residue(h) == lam.residue(i)]
        else:
            certs.append(non_normal_certificate(lam, i))
    assert all(validate_certificate(lam, cert) for cert in certs)
    assert all(validate_plan(lam, plan) for plan in plans)
    return classes, certs, plans


def test_scans_and_leftovers_match_the_constructors():
    # the flows of the scans and the sets M of `_leftovers` are built by
    # `_trusted`: each equals its value built by the public constructor
    flows = sets = 0
    for p in (0, 3, 5, 7):
        for lam in _planner_weights(p):
            _, certs, plans = _index_layer(lam)
            payloads = [step.data for plan in plans for step in plan.steps]
            payloads += [{"flow": cert.flow, "M": cert.m_set} for cert in certs]
            for data in payloads:
                for key in ("flow", "weak_flow", "resolution"):
                    if key in data:
                        same(data[key], Flow(data[key].edges))
                        flows += 1
                same(data["M"], SignedSet(data["M"].evens, data["M"].odds))
                sets += 1
    assert flows > 6000 and sets > 6000, (flows, sets)


def test_index_records_match_the_constructors(monkeypatch):
    # the classifications, reductions, certificates and flow reports of the
    # index layer are built by `_trusted`; a reduction's first normal, first
    # tensor normal and last tensor conormal index are read off index order
    reports = []
    real = indices.flow_analyze
    monkeypatch.setattr(indices, "flow_analyze", lambda *a: reports.append(real(*a)) or reports[-1])
    records = []
    for p in (0, 3, 5, 7):
        for lam in _planner_weights(p):
            classes, certs, _ = _index_layer(lam)
            records += [(cls, IndexClassification(**vars(cls))) for cls in classes]
            records += [(red, ResidueReduction(**{
                **vars(red), "good": min(red.normal, default=None),
                "tensor_good": min(red.tensor_normal, default=None),
                "tensor_cogood": max(red.tensor_conormal, default=None)}))
                for red in residue_reductions(lam).values()]
            records += [(cert, Certificate(**vars(cert))) for cert in certs]
    records += [(report, FlowReport(**vars(report))) for report in reports]
    for trusted, public in records:
        same(trusted, public)
    kinds = Counter(type(trusted).__name__ for trusted, _ in records)
    assert len(kinds) == 4 and min(kinds.values()) > 1500, kinds


def test_index_records_skip_their_generated_init(monkeypatch):
    # with the public `__init__` of each record the index and crystal layers
    # derive raising, classification, every certificate and plan and their
    # re-checks, and every content reduction, still run: those records come
    # from `_trusted` alone
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__}.__init__ called")

    for cls in (IndexClassification, ResidueReduction, Certificate, FlowReport, PlanStep,
                ConstructionPlan, ContentReduction):
        monkeypatch.setattr(cls, "__init__", refuse)
    spinbranch.clear_caches()
    for p in (0, 3, 5, 7):
        for lam in _planner_weights(p):
            _index_layer(lam)
            residue_reductions(lam)
    for p in (0, 3, 5):
        for size in range(9):
            for parts in partitions_of(size):
                if p_strict_violation(parts, p) is None:
                    content_reductions(PStrictPartition(parts, p))


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: Weight((1, 0), 4), InvalidCharacteristic),
        (lambda: PStrictPartition((2, 1), 9), InvalidCharacteristic),
        (lambda: Weight((1.5, 0), 3), TypeError),
        (lambda: PStrictPartition((2.0, 1), 3), TypeError),
        (lambda: SignedSet.of(evens=[1.5]), TypeError),
        (lambda: DeltaFunction(0.5, (1,)), TypeError),
        # a sign map is bare pairs: r_beta checks beta, product_of the values
        (lambda: r_beta(Weight((1, 0), 3), 1.5), TypeError),
        (lambda: PStrictPartition((2, 2), 3), NotPStrict),
        (lambda: PStrictPartition((1, 2), 3), NotPStrict),
        (lambda: SignedSet.of(evens=[2], odds=[2]), ValueError),
        (lambda: DeltaFunction(1, (0, 2)), ValueError),
        (lambda: product_of(((1, "x"),)), ValueError),
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
