import hashlib
import json
import random

import pytest

import definitional
from spinbranch import clear_caches, indices, sigseq
from spinbranch.cli import main
from spinbranch.core import SignedSet, Weight, res_p, seg_oc, seg_oo
from spinbranch.indices import (
    Certificate,
    ConstructionPlan,
    IsNormal,
    NotNormal,
    PlanStep,
    classify_indices,
    extension_plan,
    index_report,
    non_normal_certificate,
    primitive_plan,
    reduce_residue,
    validate_certificate,
    validate_plan,
)
from spinbranch.sigseq import (
    Flow,
    NotAllMinus,
    PreconditionFailed,
    build_full_flow,
    minus_count,
    partial_flow,
    plus_count,
    product_of,
    r_beta,
    r_words,
    reduce_seq,
)


def replace(record, **changes):
    return type(record)(**{**vars(record), **changes})


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
    # every planner emits a step, so a plan without one is no plan
    assert not validate_plan(Weight((1, 0), 5), ConstructionPlan(()))


def test_planner_indices_must_be_integers():
    lam = Weight((3, 1, 2, 0), 7)
    cert = non_normal_certificate(lam, True)
    assert cert.index == 1 and type(cert.index) is int
    assert json.loads(cert.to_json())["i"] == 1
    assert cert.to_json() == non_normal_certificate(lam, 1).to_json()
    calls = (
        lambda: primitive_plan(lam, 1.0),
        lambda: non_normal_certificate(lam, 1.0),
        lambda: extension_plan(lam, 1, 3.0),
        lambda: extension_plan(lam, 1.0, 3),
        lambda: extension_plan(lam, "1", 3),
    )
    for call in calls:
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            call()
    lam2 = Weight((2, 2, 0), 5)
    plan = extension_plan(lam2, True, 2)
    assert plan.to_json() == extension_plan(lam2, 1, 2).to_json()
    assert primitive_plan(lam2, True).to_json() == primitive_plan(lam2, 1).to_json()


def test_plan_rejects_an_index_out_of_range():
    lam = Weight((3, 1, 2), 7)
    for i in (-1, 0, 3, 4):
        for build in (primitive_plan, non_normal_certificate):
            with pytest.raises(ValueError, match=rf"need 1 <= i < n, got i={i}, n=3") as err:
                build(lam, i)
            assert not isinstance(err.value, (NotNormal, IsNormal))


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
    # every theorem's and every certificate case's M is checked whole: the
    # evens are the domain less the flow's sources and the odds are the
    # step's or case's barred indices
    seen, cases = set(), set()
    for p in (3, 5):
        for lam in _planner_weights(p):
            normals = [c.index for c in classify_indices(lam) if c.normal]
            for i in range(1, lam.n):
                if i not in normals:
                    cert = non_normal_certificate(lam, i)
                    assert validate_certificate(lam, cert)
                    for less in _less_one(cert.m_set):
                        assert not validate_certificate(lam, replace(cert, m_set=less)), (lam, cert)
                        cases.add(cert.case_tag)
            plans = [primitive_plan(lam, i) for i in normals if i < lam.n]
            plans += [extension_plan(lam, h, i) for h in normals for i in range(h + 1, lam.n)
                      if lam.residue(h) == lam.residue(i)]
            for plan in plans:
                assert validate_plan(lam, plan)
                for k, step in enumerate(plan.steps):
                    for less in _less_one(step.data["M"]):
                        data = dict(step.data, M=less)
                        steps = plan.steps[:k] + (PlanStep(step.theorem, data),) + plan.steps[k + 1:]
                        assert not validate_plan(lam, ConstructionPlan(steps)), (lam, step, less)
                        seen.add(step.theorem)
    assert seen == {"T6.1.3", "T6.2.3", "T6.3.3", "T6.4.2", "T6.5.2", "T6.6.2"}
    assert cases == {"a", "b", "c", "d"}
    lam = Weight((0, 0), 5)
    cert = non_normal_certificate(lam, 1)
    assert cert.case_tag == "d" and not validate_certificate(lam, replace(cert, m_set=SignedSet()))


def _less_one(m: SignedSet):
    """M less one element, for each element, barred or not."""
    for v in sorted(m.evens):
        yield SignedSet(m.evens - {v}, m.odds)
    for v in sorted(m.odds):
        yield SignedSet(m.evens, m.odds - {v})


def test_certificate_checks_its_case_against_beta_and_j():
    lam = Weight((2, 1, 0), 5)
    cert = non_normal_certificate(lam, 1)
    assert cert.case_tag == "a" and validate_certificate(lam, cert)
    for less in ({2}, {3}):  # M = {2, 3-bar} cut to one element
        m = SignedSet(cert.m_set.evens & less, cert.m_set.odds & less)
        assert not validate_certificate(lam, replace(cert, m_set=m))
    assert not validate_certificate(lam, replace(cert, case_tag="b"))  # b needs beta = 0
    zero = Weight((0, 0), 5)
    cert_d = non_normal_certificate(zero, 1)
    assert not validate_certificate(zero, replace(cert_d, case_tag="c"))  # d exactly when j = n
    # moved to a normal index, a c/d certificate must not validate: c needs
    # i < j, and both c and d need the entry at i divisible by p
    for lam2, i, tag in ((Weight((0, 3, 1), 3), 1, "c"), (Weight((4, 6, 3, 0, 5), 5), 4, "d")):
        moved = replace(non_normal_certificate(lam2, i), index=i - 1 if tag == "d" else i + 1)
        assert moved.case_tag == tag and classify_indices(lam2)[moved.index - 1].normal
        assert not validate_certificate(lam2, moved)
        assert definitional.validate_certificate(lam2, moved)  # the old check let it pass
    assert cert.sources == cert.flow.sources() == frozenset()
    assert json.loads(cert.to_json())["sources"] == []


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
            tail = reduce_seq(product_of(u[i - 1:]))
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


def _betas(lam: Weight):
    """Every residue for p > 0; for p = 0 the touched residues and three
    more, one of them (-1) the residue of no integer."""
    if lam.p:
        return range(lam.p)
    return sorted({res_p(x + d, 0) for x in lam.parts for d in (0, 1)} | {-1, 2, 30})


def test_one_word_scan_matches_the_two_word_build():
    fields = ("reduced", "normal", "tensor_normal", "tensor_conormal", "good",
              "tensor_good", "tensor_cogood")
    for lam in _oracle_weights(seed=5150, count=400):
        n = lam.n
        for beta in _betas(lam):
            red = reduce_residue(lam, beta)
            expected = definitional.residue_reduction(lam, beta)
            assert {f: getattr(red, f) for f in fields} == expected, (lam, beta)
            # the dense shape of (i..n) at every index i < n of beta's word
            u = definitional.r_beta(lam, beta)
            gaps = {}
            for i, v in u:
                if v and i < n:
                    gap = reduce_seq(product_of(definitional.restrict(u, range(i + 1, n))))
                    gaps[i] = (plus_count(gap), minus_count(gap))
            assert red.gaps == gaps, (lam, beta)


def _count_builds(monkeypatch) -> list:
    """The (weight, beta) of every reduction built from now on."""
    built, reduce = [], indices._reduce

    def counted(lam, beta, word):
        built.append((lam, beta))
        return reduce(lam, beta, word)

    monkeypatch.setattr(indices, "_reduce", counted)
    return built


def test_classification_builds_only_the_touched_residues(capsys, monkeypatch):
    built = _count_builds(monkeypatch)
    fewer = 0
    for lam in _oracle_weights(seed=77, count=200):
        touched = {res_p(x + d, lam.p) for x in lam.parts for d in (0, 1)}
        fewer += len(touched) < lam.p
        clear_caches()
        built.clear()
        classify_indices(lam)
        assert sorted(beta for _, beta in built) == sorted(touched), lam
        assert set(sigseq._words(lam)[1]) == touched, lam  # kept beside the words
    assert fewer > 50
    # the report still lists the sign map and reduction of every residue
    lam = Weight((3, 1, 2), 7)
    assert {res_p(x + d, 7) for x in lam.parts for d in (0, 1)} == {0, 2, 5, 6}
    assert main(["analyze", "--p", "7", "--weight", "3,1,2"]) == 0
    report = json.loads(capsys.readouterr().out)
    every = {str(beta) for beta in range(7)}
    assert set(report["r_maps"]) == set(report["reduced_signatures"]) == every


def test_residue_must_be_an_integer_and_is_taken_mod_p():
    lam = Weight((3, 1, 2), 7)
    for bad in (1.5, "1"):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            r_beta(lam, bad)
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            reduce_residue(lam, bad)
    clear_caches()
    two = reduce_residue(lam, 2)
    assert reduce_residue(lam, 9) is two and reduce_residue(lam, -5) is two
    assert two.beta == 2 and set(sigseq._words(lam)[1]) == {2}
    # a residue with no word reduces to nothing, and is not kept
    one = reduce_residue(lam, 1)
    assert reduce_residue(lam, 8) == one and reduce_residue(lam, -6) == one
    assert one.beta == 1 and not one.reduced and set(sigseq._words(lam)[1]) == {2}
    assert r_beta(lam, 8) == r_beta(lam, 1) and reduce_residue(lam, 2).beta == 2
    assert reduce_residue(Weight((3, 1), 0), 6).beta == 6  # p = 0: beta as given


def test_a_weight_report_builds_each_reduction_once(monkeypatch, tmp_path):
    # n = 100 at p = 0 touches 87 residues, more than a memo of reductions
    # bounded by count held: the report's classification, certificates and
    # residue_reductions once rebuilt evicted ones (193 builds).  Kept
    # beside the weight's words, each is built once, by the whole-dict
    # oracle and by the CLI's writer alike
    rng = random.Random(3)
    lam = Weight(tuple(rng.randint(-100, 100) for _ in range(100)), 0)
    built = _count_builds(monkeypatch)
    clear_caches()
    report = definitional.weight_report(lam)
    assert len(report["r_maps"]) == 87
    assert sorted(beta for _, beta in built) == sorted(int(b) for b in report["r_maps"])
    built.clear()
    clear_caches()
    out = tmp_path / "report.json"
    argv = ["analyze", "--p", "0", "--weight=" + ",".join(map(str, lam.parts)), "--out", str(out)]
    assert main(argv) == 0
    assert sorted(beta for _, beta in built) == sorted(int(b) for b in report["r_maps"])
    assert definitional.analyze_mismatch(out.read_text(), lam) is None


def _plans_and_certificates(lam: Weight) -> list[str]:
    """The JSON of the primitive plan or the certificate of every i < n."""
    normals = {c.index for c in classify_indices(lam) if c.normal}
    return [(primitive_plan if i in normals else non_normal_certificate)(lam, i).to_json()
            for i in range(1, lam.n)]


def test_every_index_query_is_periodic_in_the_entries():
    # r_beta reads an entry only mod p, so lambda and lambda + k p e_t have
    # the same words, classification, certificates and primitive plans
    rng = random.Random(1104)
    for _ in range(1000):
        p = rng.choice((3, 5, 7))
        parts = [rng.randint(-20, 20) for _ in range(rng.randint(1, 8))]
        lam = Weight(tuple(parts), p)
        parts[rng.randrange(len(parts))] += rng.choice((-3, -2, -1, 1, 2, 3)) * p
        moved = Weight(tuple(parts), p)
        assert r_words(lam.parts, p) == r_words(moved.parts, p), (lam, moved)
        assert classify_indices(lam) == classify_indices(moved), (lam, moved)
        assert _plans_and_certificates(lam) == _plans_and_certificates(moved), (lam, moved)


def _unstable(q: int, bound: int = 10, draws: int = 1000) -> int:
    """How many weights with entries in [-bound, bound] classify differently
    at q and at p = 0, residues compared mod q."""
    rng = random.Random(2311)
    differ = 0
    for _ in range(draws):
        parts = tuple(rng.randint(-bound, bound) for _ in range(rng.randint(1, 8)))
        at_zero = tuple(replace(c, residue=c.residue % q)
                        for c in classify_indices(Weight(parts, 0)))
        differ += classify_indices(Weight(parts, q)) != at_zero
    return differ


def test_classification_at_a_large_prime_is_the_one_at_zero():
    # for |x|, |y| <= B, q | x(x - 1) - y(y - 1) = (x - y)(x + y - 1) forces
    # x = y once q > 2B + 2 (also for the entries plus one), and q | x
    # forces x = 0: p = 0 has no other oracle of this kind
    assert _unstable(23) == 0
    # negative control: below 2B + 2 residues collide and classes merge
    assert _unstable(7) > 400


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
def test_the_json_form_by_type_matches_the_isinstance_chain(p):
    # indices._jsonable finds a value's form by its exact type; the chain of
    # isinstance tests it replaced is the oracle, on every certificate and
    # plan step of the planner weights, and on their whole payloads
    forms = set()
    for lam in _planner_weights(p):
        normals = {c.index for c in classify_indices(lam) if c.normal}
        payloads = []
        for i in range(1, lam.n):
            if i in normals:
                payloads += [s.data for s in primitive_plan(lam, i).steps]
            else:
                cert = non_normal_certificate(lam, i)
                assert cert.to_dict() == definitional.certificate_dict(cert)
                payloads.append({"flow": cert.flow, "M": cert.m_set, "sources": cert.sources})
        for h in normals:
            payloads += [s.data for i in range(h + 1, lam.n) if lam.residue(h) == lam.residue(i)
                         for s in extension_plan(lam, h, i).steps]
        for data in payloads:
            for value in (data, *data.values()):
                assert indices._jsonable(value) == definitional.jsonable(value), value
                forms.add(type(value).__name__)
    assert {"dict", "Flow", "SignedSet", "frozenset", "int"} <= forms
    mixed = {"a": [(1, 2), {3, 1}], "b": (frozenset({(2, 1), (0, 5)}), "x", None, True)}
    assert indices._jsonable(mixed) == definitional.jsonable(mixed)


@pytest.mark.parametrize("p", sorted(PLANNER_DIGESTS))
def test_planners_match_recorded_output_with_one_sign_map_per_plan(p):
    # every planner reads the words its weight's classification already
    # made (no miss of the words memo); from cold caches it makes them once
    def misses():
        return sigseq._words.cache_info().misses

    def built(fn, lam, *args):
        classify_indices(lam)
        before = misses()
        out = fn(lam, *args)
        assert misses() == before, (fn.__name__, lam, args)
        clear_caches()
        cold = fn(lam, *args)
        assert misses() == 1, (fn.__name__, lam, args)
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


def test_the_index_layer_calls_the_public_flow_scans(monkeypatch):
    # a tracer that wraps sigseq's public names where `indices` imported
    # them counts the flow work only if `indices` calls those names
    names = ("build_full_flow", "partial_flow", "resolution_of", "split_index", "flow_analyze")
    calls = dict.fromkeys(names, 0)

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in names:
        monkeypatch.setattr(indices, name, counted(name, getattr(indices, name)))
    for p in sorted(PLANNER_DIGESTS):
        for lam in _planner_weights(p):
            normals = {c.index for c in classify_indices(lam) if c.normal}
            for i in range(1, lam.n):
                if i in normals:
                    assert validate_plan(lam, primitive_plan(lam, i))
                else:
                    assert validate_certificate(lam, non_normal_certificate(lam, i))
            for h in sorted(normals):
                for i in range(h + 1, lam.n):
                    if lam.residue(h) == lam.residue(i):
                        assert validate_plan(lam, extension_plan(lam, h, i))
    assert all(calls.values()), calls


_T6 = ("T6.1.3", "T6.2.3", "T6.3.3", "T6.4.2", "T6.5.2", "T6.6.2")


def _long_weights(p: int, n: int = 200):
    """Two seeded weights of n entries: entries in [-n, n], and entries
    within one of a multiple of p (of 0 at p = 0), which reach the
    residue-zero branches."""
    rng = random.Random(9000 + p)
    yield Weight(tuple(rng.randint(-n, n) for _ in range(n)), p)
    yield Weight(tuple(p * rng.randint(-3, 3) + rng.choice((-1, 0, 1)) for _ in range(n)), p)


def test_long_weights_match_the_definitional_oracles():
    # at n = 200 the certificates and plans slice words far from both ends:
    # the classification equals the per-index predicates, and every
    # certificate, primitive plan and extension plan (from the last three
    # normal indices h < i of i's residue) passes both the pre-table
    # validators, which build and restrict their own r_beta, and the table's
    kinds = set()
    for p in (0, 3, 101):
        for lam in _long_weights(p):
            n = lam.n
            expected = tuple(definitional.classify_index(lam, i) for i in range(1, n + 1))
            assert classify_indices(lam) == expected, lam
            normals = [c.index for c in expected if c.normal]
            for i in range(1, n):
                steps = []
                if i in normals:
                    steps += primitive_plan(lam, i).steps
                else:
                    cert = non_normal_certificate(lam, i)
                    assert definitional.validate_certificate(lam, cert), (lam, i)
                    assert validate_certificate(lam, cert), (lam, i)
                    kinds.add(cert.case_tag)
                for h in [h for h in normals if h < i and lam.residue(h) == lam.residue(i)][-3:]:
                    steps += extension_plan(lam, h, i).steps
                for step in steps:
                    assert definitional.validate_step(lam, step), (lam, i, step)
                    assert indices.validate_step(lam, step), (lam, i, step)
                    kinds.add(step.theorem)
    assert kinds == {"a", "b", "c", *_T6}


def _zero_weights(n: int):
    """Two seeded weights of n entries, every one divisible by p: r_0 is +-
    at every index, so every i < n - 1 is case c with j = i + 1."""
    for p in (3, 101):
        rng = random.Random(n + p)
        yield Weight(tuple(p * rng.randint(-3, 3) for _ in range(n)), p)


def test_certificates_and_plans_match_the_dense_route():
    # the scans that start inside the word and stop where the flow closes
    # give the certificates and plans of the dense route, which restricts
    # r_beta to the whole range and runs the public builders on it
    kinds = set()
    weights = [lam for p in (0, 3, 101) for lam in _long_weights(p)]
    for lam in weights + list(_zero_weights(400)):
        normals = [c.index for c in classify_indices(lam) if c.normal]
        for i in range(1, lam.n):
            if i in normals:
                plan = primitive_plan(lam, i)
                assert plan.to_json() == definitional.primitive_plan(lam, i).to_json(), (lam, i)
                kinds.update(step.theorem for step in plan.steps)
            else:
                cert = non_normal_certificate(lam, i)
                assert cert.to_json() == definitional.non_normal_certificate(lam, i).to_json()
                kinds.add(cert.case_tag)
            for h in [h for h in normals if h < i and lam.residue(h) == lam.residue(i)][-3:]:
                plan = extension_plan(lam, h, i)
                assert plan.to_json() == definitional.extension_plan(lam, h, i).to_json()
                kinds.update(step.theorem for step in plan.steps)
    assert kinds == {"a", "b", "c", "d", *_T6}
    for lam in _zero_weights(400):
        tags = [non_normal_certificate(lam, i).case_tag for i in range(1, lam.n)]
        assert tags == ["c"] * (lam.n - 2) + ["d"]


class _CountingWord(tuple):
    """A word that counts the pairs read from it, by index, slice or loop."""
    reads = 0

    def __getitem__(self, key):
        got = super().__getitem__(key)
        _CountingWord.reads += len(got) if isinstance(key, slice) else 1
        return got

    def __iter__(self):
        for pair in super().__iter__():
            _CountingWord.reads += 1
            yield pair


def test_certificates_read_only_their_range_of_the_word(monkeypatch):
    # a certificate scans its word from i + 1 and stops where its flow
    # closes, so it reads about j - i pairs however far n lies beyond j
    n, kinds = 2000, set()
    for lam in [*_zero_weights(n), *_long_weights(3, n)]:
        clear_caches()
        words, _ = sigseq._words(lam)
        counted = ({beta: _CountingWord(word) for beta, word in words.items()}, {})
        monkeypatch.setattr(indices, "_words", lambda weight: counted)
        normals = {c.index for c in classify_indices(lam) if c.normal}
        for i in range(1, n):
            if i in normals:
                continue
            _CountingWord.reads = 0
            cert = non_normal_certificate(lam, i)
            assert _CountingWord.reads <= cert.j - i + 2, (lam.p, i, cert.j, _CountingWord.reads)
            kinds.add(cert.case_tag)
    assert kinds == {"a", "b", "c", "d"}


_SWAP = {"a": "b", "b": "a", "c": "d", "d": "c"}
# mutant kinds that leave a payload's kind, its index range or the residue
# of its index, or move T6.3.3's barred q off the loops of its resolution:
# the table rejects every one of them
_ALWAYS_REJECTED = ("unknown", "recast", "j=n", "range", "beta", "q")


def _without_one_edge(flow: Flow):
    for edge in sorted(flow.edges):
        yield Flow(flow.edges - {edge})


def _scalar(lam: Weight, i: int, m_set: SignedSet) -> int:
    return indices._residue_product(lam, lam.residue(i), m_set.evens)


def _step_mutants(lam: Weight, step: PlanStep):
    d = step.data
    for less in _less_one(d["M"]):
        yield "M", PlanStep(step.theorem, dict(d, M=less))
    for theorem in _T6:
        if theorem != step.theorem:
            yield "tag", PlanStep(theorem, d)
    for key in ("h", "i"):
        for shift in (-1, 1):
            if key in d:
                yield "index", PlanStep(step.theorem, dict(d, **{key: d[key] + shift}))
    for key in ("flow", "resolution", "weak_flow"):
        for fewer in _without_one_edge(d.get(key, Flow())):
            yield "edge", PlanStep(step.theorem, dict(d, **{key: fewer}))
    yield "unknown", PlanStep("T6.9.9", d)
    flow = d.get("flow", d.get("resolution"))
    yield "recast", Certificate(step.theorem, d["i"], lam.n, flow, d["M"],
                                _scalar(lam, d["i"], d["M"]))
    yield from _out_of_range(lam, step)
    yield from _other_betas(lam, step)
    yield from _other_qs(lam, step)
    if step.theorem in ("T6.1.3", "T6.2.3"):
        yield from _j_at_n(lam, d["i"])


def _out_of_range(lam: Weight, step: PlanStep):
    """Base steps moved to i = 0, -1 or n, and T6.5.2 steps to h = i, each
    with the flow and M that its row then reads."""
    d, n = step.data, lam.n
    closed = step.theorem != "T6.2.3"
    if step.theorem in ("T6.1.3", "T6.2.3"):
        moves = [(dict(d, i=i), seg_oc(i, n) if closed else seg_oo(i, n)) for i in (0, -1, n)]
    elif step.theorem == "T6.5.2":
        moves = [(dict(d, h=d["i"]), ())]
    else:
        return
    u = r_beta(lam, d["beta"])
    for data, dom in moves:
        try:
            flow = build_full_flow(definitional.restrict(u, dom))
        except NotAllMinus:
            continue
        m_set = SignedSet.of(evens=set(dom) - flow.sources(), odds=() if closed else [n])
        yield "range", PlanStep(step.theorem, dict(data, flow=flow, M=m_set))


def _other_betas(lam: Weight, step: PlanStep):
    """T6.1.3, T6.2.3 and T6.5.2 steps moved to every other beta (for p = 0,
    every other residue of an entry or of an entry plus one), with the full
    flow and M rebuilt on the same domain wherever a full flow exists."""
    d, n = step.data, lam.n
    if step.theorem == "T6.5.2":
        dom, odds = seg_oc(d["h"], d["i"]), ()
    elif step.theorem in ("T6.1.3", "T6.2.3"):
        closed = step.theorem == "T6.1.3"
        dom, odds = (seg_oc(d["i"], n), ()) if closed else (seg_oo(d["i"], n), (n,))
    else:
        return
    betas = range(lam.p) if lam.p else {res_p(x + e, 0) for x in lam.parts for e in (0, 1)}
    for beta in sorted(set(betas) - {d["beta"]}):
        try:
            flow = build_full_flow(definitional.restrict(r_beta(lam, beta), dom))
        except NotAllMinus:
            continue
        m_set = SignedSet.of(evens=set(dom) - flow.sources(), odds=odds)
        yield "beta", PlanStep(step.theorem, dict(d, beta=beta, flow=flow, M=m_set))


def _other_qs(lam: Weight, step: PlanStep):
    """T6.3.3 steps with q, and M's barred element with it, moved to every
    index in -1..n+2 that is neither a loop of the resolution nor in M's
    evens."""
    if step.theorem != "T6.3.3":
        return
    d = step.data
    loops = {a for a, b in d["resolution"].edges if a == b}
    for q in range(-1, lam.n + 3):
        if q not in loops | d["M"].evens:
            yield "q", PlanStep("T6.3.3", dict(d, q=q, M=SignedSet(d["M"].evens, {q})))


def _j_at_n(lam: Weight, i: int):
    """An a/b certificate at i with j = n, built as the certificates are, if
    the partial flow on (i..n] ends at n."""
    n, beta = lam.n, lam.residue(i)
    try:
        j, flow = partial_flow(definitional.restrict(r_beta(lam, beta), seg_oc(i, n)))
    except PreconditionFailed:
        return
    if j == n:
        m_set = SignedSet.of(evens=set(seg_oc(i, n)) - flow.sources(), odds=[n + 1])
        yield "j=n", Certificate("b" if beta == 0 else "a", i, n, flow, m_set,
                                 _scalar(lam, i, m_set))


def _cert_mutants(lam: Weight, cert: Certificate):
    for less in _less_one(cert.m_set):
        yield "M", replace(cert, m_set=less)
    yield "tag", replace(cert, case_tag=_SWAP[cert.case_tag])
    for shift in (-1, 1):
        yield "index", replace(cert, index=cert.index + shift)
    for fewer in _without_one_edge(cert.flow):
        yield "edge", replace(cert, flow=fewer)
    yield "unknown", replace(cert, case_tag="e")
    yield "recast", PlanStep(cert.case_tag, {"i": cert.index, "j": cert.j,
                                             "beta": lam.residue(cert.index),
                                             "flow": cert.flow, "M": cert.m_set})


def _validators(payload):
    """(table, old) validators of a plan step or a certificate."""
    if isinstance(payload, PlanStep):
        return indices.validate_step, definitional.validate_step
    return validate_certificate, definitional.validate_certificate


@pytest.mark.parametrize("p", sorted(PLANNER_DIGESTS))
def test_statement_table_accepts_no_more_than_the_old_validators(p):
    # the old one-branch-per-construction validators, kept in definitional,
    # accept every genuine payload the new table does, and no mutant that
    # they reject gets past the table; on every mutant the table returns a
    # bool, whatever field or index the mutant lacks.  A mutant of a wrong
    # kind, out of its index range, at a beta other than the residue of its
    # index or with a T6.3.3 q that is no loop of its resolution is always
    # rejected, though the old validators read beta and q off the payload
    # and accept every such step
    rejected, joins, unjoined = {}, 0, 0
    for lam in _planner_weights(p):
        normals = {c.index for c in classify_indices(lam) if c.normal}
        pairs = []
        for i in range(1, lam.n):
            if i in normals:
                pairs += [(s, _step_mutants) for s in primitive_plan(lam, i).steps]
            else:
                pairs.append((non_normal_certificate(lam, i), _cert_mutants))
        for h in sorted(normals):
            for i in range(h + 1, lam.n):
                if lam.residue(h) == lam.residue(i):
                    pairs += [(s, _step_mutants) for s in extension_plan(lam, h, i).steps]
        for payload, mutants in pairs:
            ours, old = _validators(payload)
            assert ours(lam, payload) and old(lam, payload), (lam, payload)
            joins += mutants is _step_mutants and payload.theorem == "T6.6.2"
            for kind, mutant in mutants(lam, payload):
                ours, old = _validators(mutant)
                new_ok = ours(lam, mutant)
                assert type(new_ok) is bool, (lam, kind, mutant)
                assert not (new_ok and kind in _ALWAYS_REJECTED), (lam, kind, mutant)
                assert not new_ok or old(lam, mutant), (lam, kind, mutant)
                # a certificate that validates names a non-normal index
                if new_ok and mutants is _cert_mutants:
                    assert mutant.index not in normals, (lam, mutant)
                # T6.6.2 holds its joining flow to coherence only, so the one
                # edge mutant that validates drops the joining flow's edge out of h
                if new_ok and kind == "edge":
                    assert mutants is _step_mutants and payload.theorem == "T6.6.2"
                    dropped = payload.data["flow"].edges - mutant.data["flow"].edges
                    assert [a for a, _ in dropped] == [payload.data["h"]], (lam, mutant)
                    unjoined += 1
                rejected[kind] = rejected.get(kind, 0) + (not new_ok)
    assert all(rejected.get(kind) for kind in ("M", "tag", "index", "edge")), rejected
    assert all(rejected.get(kind) for kind in _ALWAYS_REJECTED), rejected
    assert joins and unjoined == joins
