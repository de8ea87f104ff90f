import hashlib
import json
import random
import time
import tracemalloc

import definitional
import pytest
from definitional import partitions_of

from spinbranch import cli, crystal
from spinbranch.core import Weight, res_p
from spinbranch.indices import reduce_residue
from spinbranch.crystal import (
    CrystalGraph,
    NotDominantPStrict,
    NotPStrict,
    NotRestricted,
    PStrictPartition,
    beta_of_content,
    beta_signature,
    branching_tables,
    cont_p,
    contents_for,
    crystal_graph,
    e_tilde,
    f_tilde,
    p_strict_violation,
    reduce_content,
    rim_signature,
    signed_nodes,
    spin_stats,
)
from spinbranch.sigseq import MINUS, PLUS, _words, last_free_plus, product_of, r_beta, reduce_seq

WORKED = PStrictPartition((16, 11, 10, 10, 9, 5, 1), 5)


def test_cont_p_examples():
    assert cont_p(16, 5) == 0
    assert cont_p(3, 5) == 2
    assert [cont_p(c, 5) for c in range(1, 11)] == [0, 1, 2, 1, 0, 0, 1, 2, 1, 0]
    assert all(cont_p(k, 0) == k - 1 for k in range(1, 9))
    for p in (3, 5, 7, 11, 13):
        for c in range(1, 4 * p + 1):
            m = (c - 1) % p
            assert cont_p(c, p) == min(m, p - 1 - m), (p, c)


def test_content_residue_dictionary():
    for p in (3, 5, 7, 11):
        for s in range(1, 40):
            assert beta_of_content(cont_p(s, p), p) == (s * (s - 1)) % p


def _rim_nodes(lam, i):
    red = reduce_content(lam, i)
    return red.removable, red.addable


def _by_sign(signed):
    return (
        [nd for sign, nd in signed if sign == MINUS],
        [nd for sign, nd in signed if sign == PLUS],
    )


def test_rim_nodes_worked_example():
    rem, add = _rim_nodes(WORKED, 0)
    assert rem == [(1, 16), (1, 15), (2, 11), (6, 5), (7, 1)]
    assert add == [(5, 10), (6, 6)]


def test_rim_nodes_small():
    empty = PStrictPartition((), 5)
    assert _rim_nodes(empty, 0) == ([], [(1, 1)])
    assert _rim_nodes(empty, 1) == ([], [])
    # (2,1) is not addable to (1): the result (1,1) fails p-strictness
    one = PStrictPartition((1,), 5)
    assert _rim_nodes(one, 0) == ([(1, 1)], [])
    assert _rim_nodes(PStrictPartition((2,), 5), 1) == ([(1, 2)], [])
    assert _rim_nodes(PStrictPartition((5,), 5), 0) == ([(1, 5)], [(1, 6), (2, 1)])


def test_reduce_content_rejects_contents_that_do_not_occur():
    # i(i+1) mod p would read these as other contents: 3 -> 1 at p = 5
    for p, i in ((5, 3), (5, -1), (3, 2), (0, -1)):
        with pytest.raises(ValueError, match="does not occur"):
            reduce_content(PStrictPartition((2, 1), p), i)
    # the contents are 0..l, l = (p - 1)/2, and every i >= 0 at p = 0
    for p in (3, 5, 7, 11, 13):
        lam, ell = PStrictPartition((2, 1), p), (p - 1) // 2
        reduce_content(lam, ell)  # accepted
        with pytest.raises(ValueError, match=f"content {ell + 1} does not occur at p={p}"):
            reduce_content(lam, ell + 1)
    for i in range(31):
        reduce_content(PStrictPartition((2, 1), 0), i)


def test_content_and_residue_must_be_integers():
    # a float used to match no node and read as an empty signature
    lam = PStrictPartition((3, 1), 5)
    calls = (
        lambda: rim_signature(WORKED, 1.5),
        lambda: beta_signature(Weight((3, 1), 5), 1.5),
        lambda: e_tilde(0.0, lam),
        lambda: f_tilde("0", lam),
        lambda: signed_nodes((3, 1), 5, 2.0),
    )
    for call in calls:
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            call()
    # integers, including those a bool or a residue outside 0..p-1 spells, still work
    assert rim_signature(WORKED, True) == rim_signature(WORKED, 1)
    assert signed_nodes((3, 1), 5, 7) == signed_nodes((3, 1), 5, 2)
    assert e_tilde(0, lam) is not None


def test_rim_signature_worked_example():
    assert rim_signature(WORKED, 0) == (
        (MINUS, 1), (MINUS, 1), (MINUS, 2), (PLUS, 5), (PLUS, 6), (MINUS, 6), (MINUS, 7),
    )
    assert rim_signature(WORKED, 0, reduced=True) == ((MINUS, 1), (MINUS, 6), (MINUS, 7))


def test_rim_signature_p3():
    # contents for p=3 are 0,1,0 repeating; both columns 3 and 4 carry 0
    lam = PStrictPartition((2,), 3)
    assert rim_signature(lam, 0) == ((PLUS, 1), (PLUS, 1), (PLUS, 2))
    assert rim_signature(lam, 0, reduced=True) == ((PLUS, 1), (PLUS, 1), (PLUS, 2))
    assert rim_signature(lam, 1, reduced=True) == ((MINUS, 1),)


def test_e_tilde_examples():
    assert e_tilde(0, WORKED).parts == (15, 11, 10, 10, 9, 5, 1)
    assert e_tilde(0, PStrictPartition((), 5)) is None
    assert e_tilde(1, PStrictPartition((2,), 3)).parts == (1,)


def test_f_tilde_examples():
    assert f_tilde(0, PStrictPartition((), 3)).parts == (1,)
    assert f_tilde(1, PStrictPartition((1,), 3)).parts == (2,)
    assert f_tilde(0, WORKED) is None
    red = reduce_content(WORKED, 0)
    assert red.conormal == [] and red.cogood == []


def test_body_nodes_examples():
    rem, add = _by_sign(signed_nodes((1, 0), 5, 0))
    assert rem == [(1, 1), (2, 0)] and add == []
    rem2, add2 = _by_sign(signed_nodes((0,), 5, 0))
    assert rem2 == [(1, 0)] and add2 == [(1, 1)]
    row8 = [(s, nd) for s, nd in signed_nodes(WORKED.parts + (0,), 5, 0) if nd[0] == 8]
    assert row8 == [(MINUS, (8, 0))]
    with pytest.raises(NotDominantPStrict):
        beta_signature(Weight((1, 2), 5), 0)


def test_beta_signature_examples():
    assert beta_signature(Weight((1, 0), 5), 0, reduced=True) == ((MINUS, 1), (MINUS, 2))
    assert beta_signature(Weight((0,), 5), 0) == ((PLUS, 1), (MINUS, 1))
    padded = Weight(WORKED.parts + (0,), 5)
    assert beta_signature(padded, 0, reduced=True) == (
        (MINUS, 1), (MINUS, 6), (MINUS, 7), (MINUS, 8),
    )


def test_signature_bridge_small_sweep():
    rng = random.Random(5)
    for _ in range(300):
        p = rng.choice([3, 5, 7])
        n = rng.randint(1, 5)
        while True:
            parts = tuple(sorted((rng.randint(0, 9) for _ in range(n)), reverse=True))
            lam = Weight(parts, p)
            if lam.is_p_strict():
                break
        for beta in range(p):
            assert beta_signature(lam, beta, reduced=True) == reduce_seq(
                product_of(r_beta(lam, beta))
            )


def test_signature_bridge_characteristic_zero():
    # strict weights at p = 0: residues live in Z but the bridge still holds
    rng = random.Random(17)
    seen = 0
    while seen < 150:
        n = rng.randint(1, 5)
        parts = tuple(sorted((rng.randint(0, 9) for _ in range(n)), reverse=True))
        w = Weight(parts, 0)
        if not w.is_p_strict():
            continue
        seen += 1
        betas = {w.residue(i) for i in range(1, n + 1)} | {0, 2, 6}
        for beta in betas:
            assert beta_signature(w, beta, reduced=True) == reduce_seq(
                product_of(r_beta(w, beta))
            )


def test_the_padded_weight_is_kept_on_first_use():
    # one Weight per partition, so the report's operator calls, the tables
    # and the weight report share its hash and its words; the kept weight
    # is no field, so equality and hash of the partition are unchanged
    lam = PStrictPartition((5, 3, 3, 1), 3)
    fresh = PStrictPartition((5, 3, 3, 1), 3)
    before = hash(lam)
    pad = lam.pad_weight()
    assert lam.pad_weight() is pad and pad == Weight((5, 3, 3, 1, 0), 3)
    assert hash(lam) == before == hash(fresh) and lam == fresh
    for mu in (lam.add((1, 6)), lam.remove((4, 1)), fresh.add((2, 4)).add((1, 6))):
        assert mu.pad_weight() is mu.pad_weight()
        assert mu.pad_weight() == Weight(mu.parts + (0,), 3)
        assert mu == PStrictPartition(mu.parts, 3) and hash(mu) == hash(PStrictPartition(mu.parts, 3))


def test_dictionary_padding():
    # reduced rim signature plus one trailing minus at the padded row agrees
    # with the reduced beta signature exactly at content 0; elsewhere they match
    for p in (3, 5):
        for n in range(0, 10):
            for parts in partitions_of(n):
                try:
                    lam = PStrictPartition(parts, p)
                except ValueError:
                    continue
                w = lam.pad_weight()
                for i in contents_for(p, max([1] + [v + 2 for v in parts])):
                    rim = rim_signature(lam, i, reduced=True)
                    beta = beta_signature(w, beta_of_content(i, p), reduced=True)
                    if beta_of_content(i, p) == 0:
                        assert rim + ((MINUS, w.n),) == beta
                    else:
                        assert rim == beta


def test_crystal_graph_examples():
    g = crystal_graph(3, 2)
    assert g.vertices == ((), (1,), (2,))
    assert g.edges == (((), 0, (1,)), ((1,), 1, (2,)))
    g2 = crystal_graph(5, 1)
    assert g2.vertices == ((), (1,))
    assert g2.edges == (((), 0, (1,)),)
    assert crystal_graph(3, 0).vertices == ((),)


def test_crystal_graph_vertices_match_enumeration():
    # brute-force oracle: filter all partitions by the definitions directly
    def restricted_oracle(parts, p):
        for a, b in zip(parts, parts[1:]):
            if a == b and a % p != 0:
                return False
        padded = parts + (0,)
        for a, b in zip(padded, padded[1:]):
            if (a % p == 0 and a - b >= p) or (a % p != 0 and a - b > p):
                return False
        return True

    for p in (3, 5):
        g = crystal_graph(p, 10)
        for n in range(11):
            mine = {v for v in g.vertices if sum(v) == n}
            oracle = {parts for parts in partitions_of(n) if restricted_oracle(parts, p)}
            assert mine == oracle


def test_operators_are_mutually_inverse():
    for p in (3, 5):
        for lam in crystal_graph(p, 8).vertices:
            part = PStrictPartition(lam, p)
            for i in contents_for(p, 12):
                up = f_tilde(i, part)
                if up is not None:
                    down = e_tilde(i, up)
                    assert down is not None and down.parts == part.parts
                down = e_tilde(i, part)
                if down is not None:
                    assert down.is_restricted() or not part.is_restricted()
                    assert f_tilde(i, down).parts == part.parts


def test_spin_stats_examples():
    assert spin_stats(WORKED)[:2] == (4, "M")
    assert spin_stats(PStrictPartition((2,), 3))[2] == (1, 1)
    assert spin_stats(PStrictPartition((), 5)) == (0, "M", (0, 0, 0))
    # p = 0 counts the nonzero parts; p > 0 the parts prime to p
    assert spin_stats(PStrictPartition((3, 1), 0)) == (2, "M", (2, 1, 1))
    assert spin_stats(PStrictPartition((5, 5, 3), 5)) == (1, "Q", (5, 5, 3))
    assert spin_stats(PStrictPartition((3, 3, 1), 3)) == (1, "Q", (5, 2))


def test_branching_tables_examples():
    rsoc, rsp, isoc, isp = branching_tables(PStrictPartition((2,), 3))
    assert [(mu.parts, node) for mu, node in rsoc] == [((1,), (1, 2))]
    rsoc1, _, _, _ = branching_tables(PStrictPartition((1,), 5))
    assert [(mu.parts, node) for mu, node in rsoc1] == [((), (1, 1))]
    _, _, isoc0, _ = branching_tables(PStrictPartition((), 3))
    assert [(mu.parts, node) for mu, node in isoc0] == [((1,), (1, 1))]
    with pytest.raises(NotRestricted):
        branching_tables(PStrictPartition((7,), 3))


def test_branching_tables_outputs_restricted():
    for p in (3, 5):
        for lam in definitional.restricted_partitions(p, 7):
            tables = branching_tables(lam)
            for table in tables:
                for mu, _ in table:
                    assert mu.is_restricted()


def test_normal_node_removal_can_leave_restrictedness():
    # (3,1) at p=3 has a normal node whose removal gives the non-restricted (3);
    # the Specht table therefore omits it
    lam = PStrictPartition((3, 1), 3)
    assert (2, 1) in reduce_content(lam, 0).normal
    _, rsp, _, _ = branching_tables(lam)
    assert all(node != (2, 1) for _, node in rsp)


def test_graph_export_formats():
    g = crystal_graph(5, 1)
    dot = g.to_dot()
    assert dot.count("->") == 1 and '"(1)"' in dot and '"()"' in dot
    data = CrystalGraph(5, 1, g.vertices, g.edges).to_json()
    assert '"vertices": [[], [1]]' in data


def test_node_level_matches_index_level_on_padded_weights():
    # good/normal nodes of a partition agree with good/normal indices of the
    # padded weight at the matching residue
    from spinbranch.indices import classify_indices

    for p in (3, 5):
        for n in range(1, 9):
            for lam in definitional.restricted_partitions(p, n):
                w = lam.pad_weight()
                classes = classify_indices(w)
                for i in contents_for(p, max([1] + [v + 2 for v in lam.parts])):
                    beta = beta_of_content(i, p)
                    rows_normal = {
                        r for r in range(1, w.n)
                        if w.residue(r) == beta and classes[r - 1].normal
                    }
                    assert rows_normal == {nd[0] for nd in reduce_content(lam, i).normal}
                    rows_good = {
                        r for r in range(1, w.n)
                        if w.residue(r) == beta and classes[r - 1].good
                    }
                    assert rows_good == {nd[0] for nd in reduce_content(lam, i).good}


# -- the signed-node routine and the generated graph, against oracles ------------


def _labels(parts, p):
    """Every label a node of `parts` could carry: range(p), or at p = 0 the
    residues of all columns within 2 of a row end."""
    if p:
        return range(p)
    return sorted({res_p(c, 0) for x in parts + (0,) for c in range(x - 1, x + 3)})


def test_signed_nodes_match_both_oracles_on_partitions():
    # the content oracle is built on cont_p, so this checks the dictionary
    # content i <-> residue i(i+1) that reduce_content reads partitions by
    cases = 0
    for p in (0, 3, 5, 7):
        for n in range(15):
            for parts in partitions_of(n):
                try:
                    lam = PStrictPartition(parts, p)
                except NotPStrict:
                    continue
                for i in contents_for(p, max([1] + [v + 2 for v in parts])):
                    assert reduce_content(lam, i).signed == tuple(
                        definitional.rim_signed_nodes(lam, i)
                    ), (p, parts, i)
                    cases += 1
                padded = lam.pad_weight()
                for beta in _labels(parts, p):
                    assert signed_nodes(padded.parts, p, beta) == tuple(
                        definitional.body_signed_nodes(padded, beta)
                    ), (p, parts, beta)
    assert cases >= 2000


def test_signed_nodes_match_weight_oracle_on_random_weights():
    rng = random.Random(2001)
    seen = 0
    while seen < 2000:
        p = rng.choice((0, 3, 5, 7))
        n = rng.randint(1, 8)
        w = Weight(tuple(sorted((rng.randint(-6, 14) for _ in range(n)), reverse=True)), p)
        if not w.is_p_strict():
            continue
        seen += 1
        for beta in _labels(w.parts, p):
            expected = tuple(definitional.body_signed_nodes(w, beta))
            assert signed_nodes(w.parts, p, beta) == expected, (w, beta)
            assert beta_signature(w, beta) == tuple((s, nd[0]) for s, nd in expected)


def test_generated_graph_matches_filtered_oracle():
    for p in (0, 3, 5, 7, 11):
        oracle = definitional.crystal_graph(p, 14)
        for max_size in range(15):
            vertices = tuple(v for v in oracle.vertices if sum(v) <= max_size)
            edges = tuple(e for e in oracle.edges if sum(e[2]) <= max_size)
            expected = CrystalGraph(p, max_size, vertices, edges)
            graph = crystal_graph(p, max_size)
            assert graph == expected, (p, max_size)
            assert graph.to_json() == definitional.graph_json(expected)
            assert graph.to_dot() == definitional.graph_dot(expected)


@pytest.mark.parametrize(
    "p,max_size",
    [(3, 40), (5, 36), (7, 34), (11, 32), (13, 30), (0, 16), (0, 18), (0, 20)],
)
def test_generated_graph_matches_signed_node_generator(p, max_size):
    # the weight-side scan against the cogood nodes of the signed i-nodes
    graph = crystal_graph(p, max_size)
    oracle = definitional.signed_node_crystal_graph(p, max_size)
    assert graph == oracle
    assert graph.to_json() == definitional.graph_json(oracle)
    assert graph.to_dot() == definitional.graph_dot(oracle)


class _Count:
    """A text file that keeps only how many characters were written to it."""

    chars = 0

    def write(self, text):
        self.chars += len(text)


@pytest.mark.parametrize("chunk", [1, 2, 7, None])
def test_the_chunked_writer_gives_the_whole_text_bytes(monkeypatch, tmp_path, chunk):
    # the oracles build the text whole, so a separator lost or doubled at a
    # chunk boundary shows; (3, 60) has 11 869 vertices and 15 812 edges
    sizes = [(p, n) for p in (0, 3, 5, 7, 11) for n in (0, 1)] + [(3, 9), (5, 10), (0, 6)]
    if chunk:
        monkeypatch.setattr(CrystalGraph, "_chunk", chunk)
    else:  # the library's own chunk, over many chunks
        sizes.append((3, 60))
    for p, n in sizes:
        graph = crystal_graph(p, n)
        texts = {"json": definitional.graph_json(graph), "dot": definitional.graph_dot(graph)}
        assert (graph.to_json(), graph.to_dot()) == (texts["json"], texts["dot"]), (p, n)
        for fmt, text in texts.items():
            out = tmp_path / f"graph.{fmt}"
            argv = ["crystal", "--p", str(p), "--max", str(n), "--format", fmt, "--out", str(out)]
            assert cli.main(argv) == 0
            assert out.read_bytes() == (text + "\n").encode(), (p, n, fmt)


def test_writing_a_graph_holds_a_few_chunks_not_its_text():
    # the whole-text writer peaks at several times its output
    graph = crystal_graph(3, 50)
    for fmt in ("json", "dot"):
        sink = _Count()
        tracemalloc.start()
        try:
            graph.write(sink, fmt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.chars > 400_000 and peak < sink.chars / 8, (fmt, peak, sink.chars)


def test_each_edge_holds_its_vertices_own_tuples():
    # one tuple per vertex: an edge points at it instead of holding a copy
    graph = crystal_graph(5, 20)
    held = {v: v for v in graph.vertices}
    assert len(held) == len(graph.vertices)
    assert all(held[a] is a and held[b] is b for a, _, b in graph.edges)


def test_operators_and_tables_match_signed_node_oracles_on_every_p_strict_partition():
    # e_tilde, f_tilde and the tables read the padded weight's words and
    # reductions; the oracles read only the definitional signed i-nodes
    start, cases, restricted = time.perf_counter(), 0, 0
    for p, top in ((3, 30), (5, 26), (7, 24), (11, 22), (0, 16)):
        for n in range(top + 1):
            for parts in partitions_of(n):
                if p_strict_violation(parts, p):
                    continue
                lam = PStrictPartition(parts, p)
                pad = lam.pad_weight()
                for i in contents_for(p, lam.part(1) + 2):
                    assert e_tilde(i, lam) == definitional.e_tilde(i, lam), (p, parts, i)
                    assert f_tilde(i, lam) == definitional.f_tilde(i, lam), (p, parts, i)
                    # the graph's kernel and the tables' reduction name one cogood row
                    beta = beta_of_content(i, p)
                    word = _words(pad)[0].get(beta, ())
                    assert last_free_plus(word) == reduce_residue(pad, beta).tensor_cogood
                    cases += 1
                if lam.is_restricted():
                    assert branching_tables(lam) == definitional.branching_tables(lam), parts
                    restricted += 1
    assert (cases, restricted) == (19076, 2279)
    assert time.perf_counter() - start < 8.0  # 2.4-3.2 s on a 2-vCPU Xeon VM


def test_crystal_graph_reads_max_size_as_an_integer():
    # a bool reads as 0 or 1, a float is a TypeError at the call
    assert '"max_size": 1' in crystal_graph(3, True).to_json()
    assert crystal_graph(3, True).to_json() == crystal_graph(3, 1).to_json()
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        crystal_graph(3, 2.0)
    with pytest.raises(ValueError, match="max_size must be >= 0"):
        crystal_graph(3, -1)


def test_generated_graph_counts_match_generating_function():
    # restricted 3-strict partitions of n are equinumerous with partitions
    # of n into odd parts prime to 3
    p, top = 3, 60
    coeffs = [1] + [0] * top
    for k in range(1, top + 1, 2):
        if k % p:
            for n in range(k, top + 1):
                coeffs[n] += coeffs[n - k]
    counts = [0] * (top + 1)
    for v in crystal_graph(p, top).vertices:
        counts[sum(v)] += 1
    assert counts == coeffs


# -- one reduction per content ---------------------------------------------------

SAVED_REPORTS = {
    # sha256 of `spinbranch analyze` stdout in its indented form (see
    # test_cli.indented), saved from the version that rebuilt the rim
    # signature for every query
    ("3", "9,6,5,3,1"): "f6051bf494c51acb183d206e362e34a94486587fd9b005eb9e58bd0101e74ae2",
    ("5", "16,11,10,10,9,5,1"): "b2d5834f113d0f619817c0bc5b3b2008e8c92b5b55cdb0c2018ec3f90f629b00",
    ("0", "7,4,2,1"): "55cef3062b3ed20f3091ce2748a463523acc8439461f8ebed6d025e30c2aab7a",
}


@pytest.mark.parametrize("p,parts", sorted(SAVED_REPORTS))
def test_partition_report_reduces_once_per_content(monkeypatch, capsys, p, parts):
    calls = []
    real = crystal.reduce_seq
    monkeypatch.setattr(crystal, "reduce_seq", lambda u: calls.append(u) or real(u))
    assert cli.main(["analyze", "--p", p, "--partition", parts]) == 0
    out = capsys.readouterr().out
    lam = PStrictPartition(tuple(int(x) for x in parts.split(",")), int(p))
    assert len(calls) == len(crystal.content_reductions(lam))
    indented = json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(indented.encode()).hexdigest() == SAVED_REPORTS[(p, parts)]


def test_p_strict_violation_names_rows():
    assert p_strict_violation((5, 3, 3, 1), 5) == (
        "equal positive parts 3,3 at rows 2,3 are not divisible by p=5"
    )
    assert p_strict_violation((3, 0, 1), 5) == "parts increase at rows 2,3: 0 < 1"
    assert p_strict_violation((3, -1), 5) == "partition parts must be non-negative"
    assert p_strict_violation((5, 5, 0, 0), 5) is None
    assert p_strict_violation((2, 2), 0) is not None
    with pytest.raises(NotPStrict, match="rows 1,2"):
        PStrictPartition((4, 4), 3)
    assert PStrictPartition((3, 3, 0), 3).parts == (3, 3)
