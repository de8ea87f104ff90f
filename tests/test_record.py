"""`core.Record` against the standard library: each record class has a
frozen dataclass twin read off the same annotations, class defaults and
`__post_init__`, and on sample values both give the same `repr`, `==`,
`hash` and `vars()` order, and fail with the same error types."""
import copy
import dataclasses
import pickle

import pytest

from spinbranch import crystal, indices, sigseq
from spinbranch.core import DeltaFunction, Record, SignedSet, Weight
from spinbranch.crystal import PStrictPartition, content_reductions, crystal_graph
from spinbranch.indices import (classify_indices, extension_plan, non_normal_certificate,
                                primitive_plan, residue_reductions)
from spinbranch.sigseq import Flow, flow_analyze
from test_indices import _planner_weights


def twin(cls):
    """A frozen dataclass named as `cls`, with its annotations, its class
    values as defaults and its `__post_init__`."""
    own = vars(cls)
    namespace = {f: own[f] for f in own["__annotations__"] if f in own}
    namespace.update(__annotations__=dict(own["__annotations__"]), __qualname__=cls.__qualname__,
                     __post_init__=cls.__post_init__)
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), namespace))


def outcome(call):
    try:
        return repr(call())
    except Exception as exc:  # the type alone: binding errors word it their own way
        return type(exc)


def samples():
    """Records of every class, built by the library."""
    out = [Weight((16, 11, 10, 10, 9, 5, 1, 0), 5), SignedSet(), SignedSet.of([1, 3], [2]),
           DeltaFunction(2, (1, 0, 1)), Flow(), Flow({(1, 2), (3, 3)}), crystal_graph(3, 5)]
    for p in (0, 5):
        for lam in list(_planner_weights(p))[:12]:
            out.append(lam)
            classes = classify_indices(lam)
            normals = [c.index for c in classes if c.normal and c.index < lam.n]
            out += [*classes, *residue_reductions(lam).values()]
            certs = [non_normal_certificate(lam, c.index) for c in classes
                     if not c.normal and c.index < lam.n]
            plans = [primitive_plan(lam, i) for i in normals]
            plans += [extension_plan(lam, h, i) for h in normals for i in normals
                      if h < i and lam.residue(h) == lam.residue(i)]
            steps = [step for plan in plans for step in plan.steps]
            out += certs + plans + steps + [cert.flow for cert in certs]
            out += [step.data["M"] for step in steps]
            out += [flow_analyze(cert.flow, sigseq.r_beta(lam, 0)) for cert in certs]
    for parts, p in (((5, 3, 3, 1), 3), ((16, 11, 10, 10, 9, 5, 1), 5), ((), 3)):
        lam = PStrictPartition(parts, p)
        out += [lam, *content_reductions(lam).values()]
    return out


SAMPLES = samples()


def test_every_record_class_has_samples():
    modules = {"spinbranch.core", "spinbranch.sigseq", "spinbranch.indices", "spinbranch.crystal"}
    classes = {cls for cls in Record.__subclasses__() if cls.__module__ in modules}
    assert {type(rec) for rec in SAMPLES} == classes and len(classes) == 13
    assert indices.PlanStep in classes and crystal.ContentReduction in classes


@pytest.mark.parametrize("cls", sorted({type(rec) for rec in SAMPLES}, key=lambda c: c.__name__),
                         ids=lambda cls: cls.__name__)
def test_a_record_behaves_as_its_frozen_dataclass_twin(cls):
    twin_cls = twin(cls)
    names = [f.name for f in dataclasses.fields(twin_cls)]
    for rec in (rec for rec in SAMPLES if type(rec) is cls):
        args = [vars(rec)[f] for f in names]
        kwargs = dict(zip(names, args))
        built, other = cls(*args), twin_cls(*args)
        assert list(vars(built)) == list(vars(other)) == names
        assert vars(built) == vars(other) and repr(built) == repr(other) == repr(rec)
        assert built == rec == cls(**kwargs) and other == twin_cls(**kwargs)
        assert built.__eq__(other) is NotImplemented and built != other
        assert outcome(lambda: hash(built)) == outcome(lambda: hash(other))
        for build in (
            lambda c: c(),
            lambda c: c(*args[:-1]),  # a missing field, or its default
            lambda c: c(*args, None),  # an extra positional field
            lambda c: c(*args, unknown=None),
            lambda c: c(*args, **{names[0]: args[0]}),  # a repeated field
            lambda c: c(*args[1:], **{names[0]: args[0]}),
        ):
            assert outcome(lambda: build(cls)) == outcome(lambda: build(twin_cls))
        for obj in (built, other):
            for name in names + ["unknown"]:
                with pytest.raises(AttributeError, match=f"'{name}'"):
                    setattr(obj, name, None)
                with pytest.raises(AttributeError, match=f"'{name}'"):
                    delattr(obj, name)
            assert [vars(obj)[f] for f in names] == args


def test_a_kept_hash_or_padded_weight_is_not_a_field():
    # `Weight` keeps its hash and `PStrictPartition` its padded weight out of
    # `__dict__`, so vars() holds the fields, and a record rebuilt from them,
    # copied or pickled is equal and keeps working
    w, lam = Weight((16, 11, 10, 10, 9, 5, 1, 0), 5), PStrictPartition((5, 3, 3, 1), 3)
    before = hash(w)
    assert hash(w) == before == hash((w.parts, w.p)) and lam.pad_weight() is lam.pad_weight()
    hash(lam.pad_weight())
    for rec in (w, lam, lam.pad_weight()):
        assert list(vars(rec)) == list(type(rec)._fields), rec
        for other in (type(rec)(**vars(rec)), copy.copy(rec), pickle.loads(pickle.dumps(rec))):
            assert other == rec and hash(other) == hash(rec) and vars(other) == vars(rec)
    assert pickle.loads(pickle.dumps(lam)).pad_weight() == lam.pad_weight()


def test_a_record_with_a_read_only_mapping_has_no_hash():
    red = next(rec for rec in SAMPLES if type(rec) is indices.ResidueReduction)
    twin_cls = twin(indices.ResidueReduction)
    other = twin_cls(*[vars(red)[f.name] for f in dataclasses.fields(twin_cls)])
    for rec in (red, other):
        with pytest.raises(TypeError, match="mappingproxy"):
            hash(rec)


@pytest.mark.parametrize(
    "cls, args",
    [
        (Weight, ((), 3)),
        (Weight, ((1,), 4)),
        (Weight, ((1.5,), 3)),
        (Weight, ([3, True], 5)),  # normalized to a tuple of ints
        (SignedSet, ({1}, {1})),
        (SignedSet, ({1.5},)),
        (SignedSet, ([1, 2],)),
        (DeltaFunction, (0, (2,))),
        (DeltaFunction, (0.5, (1,))),
        (Flow, ({(1.5, 2)},)),
        (Flow, ([(1, 2)],)),
        (PStrictPartition, ((2, 2), 3)),
        (PStrictPartition, ((1, 2), 3)),
        (PStrictPartition, ((2, 1), 9)),
        (PStrictPartition, ((3, 3, 0), 3)),
    ],
)
def test_post_init_checks_match_the_twin(cls, args):
    def run(c):
        try:
            return repr(c(*args))
        except (TypeError, ValueError) as exc:
            return type(exc), str(exc)

    assert run(cls) == run(twin(cls))
