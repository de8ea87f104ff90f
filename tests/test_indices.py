import hashlib
import json
import random

import pytest

import definitional
from spinbranch import clear_caches
from spinbranch.core import SignedSet, Weight
from spinbranch.indices import (
    ConstructionPlan,
    IsNormal,
    NotNormal,
    PlanStep,
    classify_indices,
    extension_plan,
    index_report,
    non_normal_certificate,
    primitive_plan,
    validate_certificate,
    validate_plan,
)
from spinbranch.sigseq import PreconditionFailed

WORKED = Weight((16, 11, 10, 10, 9, 5, 1, 0), 5)


def test_classify_worked_weight():
    classes = classify_indices(WORKED)
    cls = classes[0]
    assert cls.normal and cls.good and cls.tensor_normal and cls.tensor_good
    assert cls.residue == 0
    assert not classes[2].normal


def test_classify_boundary_exception():
    classes = classify_indices(Weight((0, 0), 5))
    assert not classes[0].normal
    assert classes[-1].tensor_normal  # the last index always is
    assert classes[0].tensor_conormal  # the first index always is


def test_index_report_examples():
    rep = index_report(Weight((1,), 5))
    cls = rep[0][0]
    assert cls.tensor_normal and cls.tensor_good

    rep2 = index_report(Weight((0, 0), 5))
    by_index = {c.index: c for group in rep2.values() for c in group}
    assert by_index[2].tensor_normal and not by_index[1].tensor_normal
    assert by_index[1].tensor_conormal

    lam = Weight((2, 1), 5)
    rep3 = index_report(lam)
    assert {c.index for c in rep3[2]} == {1}
    assert not classify_indices(lam)[0].tensor_normal


def test_good_is_minimal_normal_per_class():
    rng = random.Random(99)
    for _ in range(400):
        p = rng.choice([3, 5, 7])
        n = rng.randint(1, 6)
        lam = Weight(tuple(rng.randint(-4, 9) for _ in range(n)), p)
        for residue, group in index_report(lam).items():
            normals = [c.index for c in group if c.normal]
            goods = [c.index for c in group if c.good]
            assert goods == (normals[:1] if normals else [])
            tnormals = [c.index for c in group if c.tensor_normal]
            tgoods = [c.index for c in group if c.tensor_good]
            assert tgoods == (tnormals[:1] if tnormals else [])


def test_certificate_case_d():
    cert = non_normal_certificate(Weight((0, 0), 5), 1)
    assert cert.case_tag == "d" and cert.j == 2
    assert cert.flow.edges == frozenset()
    assert cert.m_set.odds == frozenset({2}) and not cert.m_set.evens
    assert cert.c == 1
    assert validate_certificate(Weight((0, 0), 5), cert)


def test_certificate_case_a():
    lam = Weight((2, 1, 0), 5)
    cert = non_normal_certificate(lam, 1)
    assert cert.case_tag == "a" and cert.j == 2
    assert cert.flow.edges == frozenset()
    assert cert.m_set.evens == frozenset({2}) and cert.m_set.odds == frozenset({3})
    assert cert.c == 2
    assert validate_certificate(lam, cert)
    data = json.loads(cert.to_json())
    assert data["case"] == "a" and data["c"] == 2 and data["M"]["odd"] == [3]


def test_certificate_worked_index_3():
    cert = non_normal_certificate(WORKED, 3)
    assert cert.case_tag == "b"
    assert cert.c % 5 != 0
    assert validate_certificate(WORKED, cert)


def test_certificate_rejects_normal_index():
    with pytest.raises(IsNormal):
        non_normal_certificate(WORKED, 1)


def test_primitive_plan_examples():
    plan = primitive_plan(Weight((1, 0), 5), 1)
    assert [s.theorem for s in plan.steps] == ["T6.2.3"]
    assert plan.steps[0].data["M"].odds == frozenset({2})
    assert validate_plan(Weight((1, 0), 5), plan)

    lam = Weight((2, 2, 0), 5)  # nonzero residue, all-minus gap
    plan2 = primitive_plan(lam, 1)
    assert [s.theorem for s in plan2.steps] == ["T6.1.3"]
    assert validate_plan(lam, plan2)

    lam3 = Weight((1, 0, 4), 5)  # entry 1 mod p, plus-led gap, last entry -1 mod p
    plan3 = primitive_plan(lam3, 1)
    assert [s.theorem for s in plan3.steps] == ["T6.2.3", "T6.6.2"]
    assert plan3.steps[0].data["i"] == 2
    assert plan3.steps[1].data["h"] == 1 and plan3.steps[1].data["i"] == 2
    assert validate_plan(lam3, plan3)

    lam4 = Weight((1, 0, 0, 3), 5)  # resolution-driven single step
    plan4 = primitive_plan(lam4, 1)
    assert [s.theorem for s in plan4.steps] == ["T6.3.3"]
    assert plan4.steps[0].data["M"].odds == frozenset({3})
    assert validate_plan(lam4, plan4)

    with pytest.raises(NotNormal):
        primitive_plan(Weight((0, 0), 5), 1)


def test_extension_plan_examples():
    lam = Weight((2, 2, 0), 5)
    plan = extension_plan(lam, 1, 2)
    assert [s.theorem for s in plan.steps] == ["T6.5.2"]
    assert validate_plan(lam, plan)

    lam2 = Weight((5, 1, 0), 5)  # entries 0 and 1 mod p, all-minus gap
    plan2 = extension_plan(lam2, 1, 2)
    assert [s.theorem for s in plan2.steps] == ["T6.4.2"]
    assert validate_plan(lam2, plan2)

    lam3 = Weight((1, 0, 0), 5)  # entries 1 and 0 mod p, plus-led gap
    plan3 = extension_plan(lam3, 1, 2)
    assert [s.theorem for s in plan3.steps] == ["T6.6.2"]
    assert validate_plan(lam3, plan3)

    with pytest.raises(PreconditionFailed):
        extension_plan(Weight((2, 1, 0), 5), 1, 2)  # different residues


def test_extension_plan_two_step_cases():
    # all-minus closed gap with entry 0 mod p at the top: split at the last
    # double-minus index, then extend across it
    lam = Weight((5, 1, 5, 0), 5)
    assert classify_indices(lam)[0].normal and lam.residue(1) == lam.residue(3)
    plan = extension_plan(lam, 1, 3)
    assert [s.theorem for s in plan.steps] == ["T6.6.2", "T6.4.2"]
    assert validate_plan(lam, plan)
    # plus-led gap with entry 1 mod p at the top: section first
    lam2 = Weight((1, 0, 1, 0), 5)
    assert classify_indices(lam2)[0].normal and lam2.residue(1) == lam2.residue(3)
    plan2 = extension_plan(lam2, 1, 3)
    assert [s.theorem for s in plan2.steps] == ["T6.4.2", "T6.6.2"]
    assert validate_plan(lam2, plan2)


def test_plan_step_fails_when_m_loses_an_element():
    # every theorem's M is checked whole: the evens are the domain less the
    # flow's sources and the odds are the step's barred indices
    seen = set()
    for p in (3, 5):
        for lam in _planner_weights(p):
            normals = [c.index for c in classify_indices(lam) if c.normal]
            plans = [primitive_plan(lam, i) for i in normals if i < lam.n]
            plans += [extension_plan(lam, h, i) for h in normals for i in range(h + 1, lam.n)
                      if lam.residue(h) == lam.residue(i)]
            for plan in plans:
                assert validate_plan(lam, plan)
                for k, step in enumerate(plan.steps):
                    m = step.data["M"]
                    for el in [(v, False) for v in m.evens] + [(v, True) for v in m.odds]:
                        less = SignedSet(m.evens - {el[0]}, m.odds - {el[0]})
                        data = dict(step.data, M=less)
                        steps = plan.steps[:k] + (PlanStep(step.theorem, data),) + plan.steps[k + 1:]
                        assert not validate_plan(lam, ConstructionPlan(steps)), (lam, step, el)
                        seen.add((step.theorem, el[1]))
    assert {th for th, _ in seen} == {"T6.1.3", "T6.2.3", "T6.3.3", "T6.4.2", "T6.5.2", "T6.6.2"}


def test_shortcut_matches_definition():
    # classification through the full product agrees with the tail shortcut
    from spinbranch.sigseq import MINUS, product_of, r_beta, reduce_seq

    rng = random.Random(3)
    for _ in range(300):
        p = rng.choice([3, 5, 7])
        n = rng.randint(1, 6)
        lam = Weight(tuple(rng.randint(-4, 9) for _ in range(n)), p)
        classes = classify_indices(lam)
        for i in range(1, n + 1):
            beta = lam.residue(i)
            u = r_beta(lam, beta)
            full = reduce_seq(product_of(u))
            tail = reduce_seq(product_of(u, range(i, n + 1)))
            has_full = any(s == MINUS and m == i for s, m in full)
            has_tail = any(s == MINUS and m == i for s, m in tail)
            assert has_full == has_tail == classes[i - 1].tensor_normal


def test_plan_json_shape():
    plan = primitive_plan(Weight((1, 0), 5), 1)
    data = json.loads(plan.to_json())
    assert data["steps"][0]["theorem"] == "T6.2.3"
    assert data["steps"][0]["data"]["M"] == {"even": [], "odd": [2]}


def test_duality_examples():
    lam = Weight((0, 1), 5)
    assert all(c.tensor_cogood for c in classify_indices(lam))
    assert all(c.tensor_good for c in classify_indices(lam.minus_w0()))


def test_characteristic_zero_classification():
    lam = Weight((3, 1, 0), 0)
    # residues are plain integers; everything still evaluates
    rep = index_report(lam)
    assert any(c.tensor_normal for group in rep.values() for c in group)
    classes = classify_indices(lam)
    assert classes[0].tensor_conormal
    for i in (1, 2):
        if not classes[i - 1].normal:
            cert = non_normal_certificate(lam, i)
            assert validate_certificate(lam, cert)
        else:
            assert validate_plan(lam, primitive_plan(lam, i))


def _oracle_weights(seed: int, count: int):
    """Seeded weights for p in {0, 3, 5, 7}, n <= 12, entries in [-4, 12];
    every third weight has all entries divisible by p (all residue 0), and
    the constant weights 0 and p follow for every n."""
    rng = random.Random(seed)
    for k in range(count):
        p = (0, 3, 5, 7)[k % 4]
        n = rng.randint(1, 12)
        if k % 3 == 0 and p:
            parts = [p * rng.randint(-(4 // p), 12 // p) for _ in range(n)]
        else:
            parts = [rng.randint(-4, 12) for _ in range(n)]
        yield Weight(tuple(parts), p)
    for p in (3, 5, 7):
        for n in range(1, 13):
            yield Weight((0,) * n, p)
            yield Weight((p,) * n, p)


def test_one_pass_classification_matches_definitions():
    for lam in _oracle_weights(seed=20240, count=400):
        expected = tuple(definitional.classify_index(lam, i) for i in range(1, lam.n + 1))
        assert classify_indices(lam) == expected, lam
        report = index_report(lam)
        assert all(c.residue == r for r, group in report.items() for c in group)
        flat = sorted((c for group in report.values() for c in group), key=lambda c: c.index)
        assert tuple(flat) == expected


# sha256 over the to_json() lines of every primitive plan, extension plan and
# certificate of _planner_weights(p), recorded when each step builder still
# built its own r_beta
PLANNER_DIGESTS = {
    0: "ebb09d83900070517b6430b2d336ce456b11d3e38a29631d0201251e81596126",
    3: "fdbcacc1f843246c3f8e51862c705b0681764a13099034ac673daeb1c5c07678",
    5: "2ed90b779b871710c64029ec85ca011ef5989b4af9fb1363453567683a4d6859",
    7: "99a35df7edfec18adb09f3a54e7eac88ff50d9b781c9e572d6f214223a1db3a1",
}


def _planner_weights(p: int):
    """300 seeded weights, n <= 8: half with entries in [-4, 12], half with
    entries within one of a multiple of p, which reach the residue-zero
    branches (T6.3.3, T6.4.2, T6.6.2)."""
    rng = random.Random(4000 + p)
    for k in range(300):
        n = rng.randint(2, 8)
        if k % 2:
            parts = tuple(rng.randint(-4, 12) for _ in range(n))
        else:
            parts = tuple(p * rng.randint(-1, 3) + rng.choice((-1, 0, 1)) for _ in range(n))
        yield Weight(parts, p)


@pytest.mark.parametrize("p", sorted(PLANNER_DIGESTS))
def test_planners_match_recorded_output_with_one_sign_map_per_plan(monkeypatch, p):
    # every planner reads the reduction its weight's classification already
    # made (no r_beta call); from cold caches it builds exactly one
    from spinbranch import indices

    calls = []
    real = indices.r_beta
    monkeypatch.setattr(indices, "r_beta", lambda *a: calls.append(a) or real(*a))

    def built(fn, lam, *args):
        classify_indices(lam)
        calls.clear()
        out = fn(lam, *args)
        assert not calls, (fn.__name__, lam, args)
        clear_caches()
        cold = fn(lam, *args)
        assert len(calls) == 1, (fn.__name__, lam, args)
        assert cold.to_json() == out.to_json()
        if fn is not non_normal_certificate:
            theorems.update(step.theorem for step in out.steps)
        lines.append(out.to_json())

    lines, theorems = [], set()
    for lam in _planner_weights(p):
        normals = {c.index for c in classify_indices(lam) if c.normal}
        for i in range(1, lam.n):
            built(primitive_plan if i in normals else non_normal_certificate, lam, i)
        for h in sorted(normals):
            for i in range(h + 1, lam.n):
                if lam.residue(h) == lam.residue(i):
                    built(extension_plan, lam, h, i)
    assert theorems == {"T6.1.3", "T6.2.3", "T6.3.3", "T6.4.2", "T6.5.2", "T6.6.2"}
    digest = hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()
    assert digest == PLANNER_DIGESTS[p]
