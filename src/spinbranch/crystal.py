"""Partition-level combinatorics: contents, removable/addable nodes,
signatures, crystal operators, the colored crystal graph, spin statistics
and branching tables.

Nodes are (row, column) pairs, rows starting at 1.  Signed nodes, read row
by row, larger column first, serve only what prints or checks them: the
operators, the graph and the branching tables read the rows of content i
off the padded weight's word and reduction at beta = i(i+1) (`indices`).
"""
from __future__ import annotations

import io
import json
import operator
from functools import partialmethod

from .core import (Record, Weight, _trusted, check_characteristic, congruent, mod,
                   p_strict_pair, res_p)
from .indices import reduce_residue
from .sigseq import MINUS, PLUS, Seq, _words, last_free_plus, r_words, reduce_seq

Node = tuple[int, int]
SignedNodes = tuple[tuple[int, Node], ...]


class NotPStrict(ValueError):
    pass


class NotDominantPStrict(ValueError):
    pass


class NotRestricted(ValueError):
    pass


def cont_p(col: int, p: int) -> int:
    """Content of a column: the folded pattern 0,1,...,l,...,1,0 of period p
    (unfolded 0,1,2,... when p = 0)."""
    if col < 1:
        raise ValueError("columns start at 1")
    if p == 0:
        return col - 1
    m = (col - 1) % p
    return m if m < p - m else p - 1 - m


def beta_of_content(i: int, p: int) -> int:
    """The residue attached to content i: i(i+1), the residue of column
    i + 1."""
    return res_p(i + 1, p)


def p_strict_violation(parts: tuple[int, ...], p: int) -> str | None:
    """Why `parts` is not p-strict, naming the rows at fault, or None if it
    is: parts are non-negative and weakly decreasing, and equal positive
    neighbours are divisible by p."""
    for k, (a, b) in enumerate(zip(parts, parts[1:]), start=1):
        if a < b:
            return f"parts increase at rows {k},{k + 1}: {a} < {b}"
        if a > 0 and not p_strict_pair(a, b, p):
            return (f"equal positive parts {a},{b} at rows {k},{k + 1}"
                    f" are not divisible by p={p}")
    if any(x < 0 for x in parts):
        return "partition parts must be non-negative"
    return None


def _fits(rows, r: int, v: int, p: int) -> bool:
    """Whether row r (0-based) of the p-strict rows may be set to v: a
    one-row change can only break p-strictness against rows r-1 and r+1."""
    return (r == 0 or p_strict_pair(rows[r - 1], v, p)) and (
        r == len(rows) - 1 or p_strict_pair(v, rows[r + 1], p)
    )


def _set_row(parts: tuple[int, ...], r: int, v: int, p: int) -> tuple[int, ...]:
    """The p-strict rows, padded with zeros up to row r, with row r set to
    v; a trailing zero row is dropped."""
    rows = list(parts) + [0] * (r - len(parts))
    rows[r - 1] = v
    if not _fits(rows, r - 1, v, p):
        raise NotPStrict(p_strict_violation(tuple(rows), p))
    return tuple(rows[:-1] if not v else rows)  # only the last row can empty


class PStrictPartition(Record):
    """A p-strict partition: weakly decreasing positive parts, where equal
    adjacent parts must be divisible by p.  Trailing zero parts are dropped."""

    __slots__ = ("_pad",)  # not a field: the padded weight, kept by `pad_weight` on first use
    parts: tuple[int, ...]
    p: int

    def __post_init__(self):
        object.__setattr__(self, "p", check_characteristic(self.p))
        parts = tuple(map(operator.index, self.parts))
        problem = p_strict_violation(parts, self.p)
        if problem is not None:
            raise NotPStrict(problem)
        object.__setattr__(self, "parts", tuple(x for x in parts if x != 0))

    def part(self, r: int) -> int:
        """Row length, 0 beyond the last row."""
        return self.parts[r - 1] if 1 <= r <= len(self.parts) else 0

    def is_restricted(self) -> bool:
        """Each row exceeds the next (0 past the last) by less than p when
        it is divisible by p, and by at most p otherwise."""
        p = self.p
        padded = self.parts + (0,)
        return p == 0 or all(
            a - b < p if a % p == 0 else a - b <= p for a, b in zip(padded, padded[1:])
        )

    def remove(self, node: Node) -> "PStrictPartition":
        r, c = node
        if not 1 <= r <= len(self.parts) or self.part(r) != c:
            raise ValueError(f"{node} is not a rim node")
        return _trusted(PStrictPartition, parts=_set_row(self.parts, r, c - 1, self.p), p=self.p)

    def add(self, node: Node) -> "PStrictPartition":
        r, c = node
        if r < 1 or self.part(r) + 1 != c:
            raise ValueError(f"{node} does not extend row {r}")
        return _trusted(PStrictPartition, parts=_set_row(self.parts, r, c, self.p), p=self.p)

    def pad_weight(self) -> Weight:
        """The partition as a dominant weight with one trailing zero part;
        one object per partition, so its hash and words are made once."""
        if not hasattr(self, "_pad"):
            object.__setattr__(self, "_pad", _trusted(Weight, parts=self.parts + (0,), p=self.p))
        return self._pad


# -- signed nodes --------------------------------------------------------------


def signed_nodes(rows: tuple[int, ...], p: int, beta: int) -> SignedNodes:
    """Signed beta-removable (MINUS) and beta-addable (PLUS) nodes of the
    p-strict rows `rows`, in reading order.  The label of column c is its
    residue `res_p(c, p)`, columns may be <= 0, and `beta` is reduced mod p.

    A node is signed when its label matches and the one-row change keeps
    the rows p-strict; the pair rule signs the second of two equal-label
    nodes when both changes do.  Changing row r can only break
    p-strictness against rows r-1 and r+1, so only those are tested.
    """
    beta = mod(operator.index(beta), p)
    out: list[tuple[int, Node]] = []
    for r, lr in enumerate(rows):
        row = r + 1
        if res_p(lr + 1, p) == beta and _fits(rows, r, lr + 1, p):
            # addable (row, lr+2) via the pair rule, then (row, lr+1)
            if res_p(lr + 2, p) == beta and _fits(rows, r, lr + 2, p):
                out.append((PLUS, (row, lr + 2)))
            out.append((PLUS, (row, lr + 1)))
        if res_p(lr, p) == beta and _fits(rows, r, lr - 1, p):
            # removable (row, lr), then (row, lr-1) via the pair rule
            out.append((MINUS, (row, lr)))
            if res_p(lr - 1, p) == beta and _fits(rows, r, lr - 2, p):
                out.append((MINUS, (row, lr - 1)))
    return tuple(out)


def _rows(signed: SignedNodes) -> Seq:
    return tuple((sign, node[0]) for sign, node in signed)


class ContentReduction(Record):
    """The signed i-nodes of a partition and their reduction, built once per
    (lambda, i) for the report's node lists and signatures.  The reduced word
    has shape +^s -^r: its minuses are the normal nodes, the first of them
    good, and its pluses the conormal nodes, the last of them cogood."""

    signed: SignedNodes
    reduced: SignedNodes

    @property
    def removable(self) -> list[Node]:
        return [node for sign, node in self.signed if sign == MINUS]

    @property
    def addable(self) -> list[Node]:
        return [node for sign, node in self.signed if sign == PLUS]

    @property
    def normal(self) -> list[Node]:
        return [node for sign, node in self.reduced if sign == MINUS]

    @property
    def conormal(self) -> list[Node]:
        return [node for sign, node in self.reduced if sign == PLUS]

    @property
    def good(self) -> list[Node]:
        return self.normal[:1]

    @property
    def cogood(self) -> list[Node]:
        return self.conormal[-1:]

    def signature(self, reduced: bool = False) -> Seq:
        """The i-signature with rows as marks."""
        return _rows(self.reduced if reduced else self.signed)


def _content(i: int, p: int) -> int:
    """i as an integer, if it is a content that occurs at p."""
    i = operator.index(i)
    if i not in contents_for(p, i + 1):  # at p = 0 column i + 1 has content i
        raise ValueError(f"content {i} does not occur at p={p}")
    return i


def reduce_content(lam: PStrictPartition, i: int) -> ContentReduction:
    """The i-nodes of lam, read through the dictionary content i <->
    residue i(i+1): the signed nodes of its rows padded with one empty row,
    less the removable node in column 0 of that row.  That node exists only
    at content 0 and is last in reading order.  i is an integer."""
    p, i = lam.p, _content(i, lam.p)
    signed = signed_nodes(lam.parts + (0,), p, beta_of_content(i, p))
    if signed and signed[-1][1][1] == 0:
        signed = signed[:-1]
    return _trusted(ContentReduction, signed=signed, reduced=reduce_seq(signed))


def content_reductions(lam: PStrictPartition) -> dict[int, ContentReduction]:
    """One reduction per content that can label a node of lam."""
    width = max([1] + [v + 2 for v in lam.parts])
    return {i: reduce_content(lam, i) for i in contents_for(lam.p, width)}


def rim_signature(lam: PStrictPartition, i: int, reduced: bool = False) -> Seq:
    """The i-signature (marks = rows), optionally reduced."""
    return reduce_content(lam, i).signature(reduced)


def e_tilde(i: int, lam: PStrictPartition) -> PStrictPartition | None:
    """Remove the last box of the i-good row: the good index of the padded
    weight's reduction at beta = i(i+1) (`indices.reduce_residue`)."""
    p, i = lam.p, _content(i, lam.p)
    row = reduce_residue(lam.pad_weight(), beta_of_content(i, p)).good
    return None if row is None else lam.remove((row, lam.part(row)))


def f_tilde(i: int, lam: PStrictPartition) -> PStrictPartition | None:
    """Add a box to the i-cogood row: the last plus of the padded weight's reduced
    word at beta = i(i+1) (`sigseq._words`), its tensor cogood index, as in `crystal_graph`."""
    p, i = lam.p, _content(i, lam.p)
    row = last_free_plus(_words(lam.pad_weight())[0].get(beta_of_content(i, p), ()))
    return None if row is None else lam.add((row, lam.part(row) + 1))


def beta_signature(lam: Weight, beta: int, reduced: bool = False) -> Seq:
    """The beta-signature of a dominant p-strict weight (marks = rows)."""
    if not lam.is_p_strict():
        raise NotDominantPStrict(f"{lam.parts} is not dominant p-strict")
    raw = _rows(signed_nodes(lam.parts, lam.p, beta))
    return reduce_seq(raw) if reduced else raw


# -- statistics and tables ----------------------------------------------------


def contents_for(p: int, max_col: int) -> range:
    """All contents that can occur in columns 1..max_col."""
    return range(max(max_col, 1) if p == 0 else (p - 1) // 2 + 1)


def spin_stats(lam: PStrictPartition):
    """(h, 'M' if h is even else 'Q', content counts), h the number of parts prime
    to p: the type in the convention of the Sergeev superalgebra Cl_n (x) T_n, not T_n's."""
    p = lam.p
    h = sum(1 for x in lam.parts if not congruent(x, 0, p))
    kind = "M" if h % 2 == 0 else "Q"
    gamma = [0] * len(contents_for(p, max(lam.parts, default=1)))
    for row_len in lam.parts:
        for c in range(1, row_len + 1):
            gamma[cont_p(c, p)] += 1
    return h, kind, tuple(gamma)


def branching_tables(lam: PStrictPartition):
    """Socle and Specht branching data for restriction and induction, one box
    per row, off the padded weight's reduction at beta = i(i+1) for each content
    i (`indices.reduce_residue`): restriction removes the box of the good row
    (socle) and of each normal row (Specht); induction adds one to the tensor
    cogood row (socle) and to each tensor conormal row (Specht).  A Specht
    result that is not restricted is left out."""
    if not lam.is_restricted():
        raise NotRestricted(f"{lam.parts} is not restricted")
    pad, p = lam.pad_weight(), lam.p
    tables = ([], [], [], [])  # restriction socle, Specht; induction socle, Specht
    for i in contents_for(p, lam.part(1) + 1):
        red = reduce_residue(pad, beta_of_content(i, p))
        for k, rows in enumerate(([red.good], sorted(red.normal), [red.tensor_cogood],
                                  sorted(red.tensor_conormal))):
            for r in filter(None, rows):  # rows start at 1; None: no good or cogood row
                node = (r, lam.part(r) + (k > 1))
                mu = lam.add(node) if k > 1 else lam.remove(node)
                kept = mu.is_restricted()
                assert kept or k % 2, "a socle row stays restricted"
                if kept:
                    tables[k].append((mu, node))
    return tables


# -- the graph ------------------------------------------------------------------


class CrystalGraph(Record):
    """The I-colored graph on restricted p-strict partitions of size <= N,
    with an i-edge from mu to f_tilde(i, mu)."""

    p: int
    max_size: int
    vertices: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[tuple[int, ...], int, tuple[int, ...]], ...]
    _chunk = 16  # not a field: items per write; CPython 3.11's `json.dumps` holds ~1.4 KB an edge

    def write(self, fh, format: str) -> None:
        """Write `to_json()` or `to_dot()` to the text file `fh`, `_chunk` items at a time."""
        n = self._chunk
        if format == "dot":  # names such as "(3,1)" inline: a call per name costs ~15 %
            fh.write("digraph crystal {")
            for k in range(0, len(self.vertices), n):
                fh.write("".join([f'\n  "({",".join(map(str, v))})";'
                                  for v in self.vertices[k:k + n]]))
            for k in range(0, len(self.edges), n):
                fh.write("".join([f'\n  "({",".join(map(str, a))})" -> "({",".join(map(str, b))})"'
                                  f' [label="{i}"];' for a, i, b in self.edges[k:k + n]]))
            fh.write("\n}")
            return
        fh.write(json.dumps({"p": self.p, "max_size": self.max_size})[:-1])
        for key, items in ((', "vertices": [', self.vertices), ('], "edges": [', self.edges)):
            for k in range(0, len(items) or 1, n):  # tuples as lists; no edges: only the key
                fh.write((", " if k else key) + json.dumps(items[k:k + n])[1:-1])
        fh.write("]}")

    def _text(self, format: str) -> str:
        self.write(out := io.StringIO(), format)
        return out.getvalue()

    to_json, to_dot = partialmethod(_text, "json"), partialmethod(_text, "dot")


def crystal_graph(p: int, max_size: int) -> CrystalGraph:
    """Generate the graph by f_tilde from the empty partition.

    The crystal is connected with highest weight vertex the empty partition
    (Brundan and Kleshchev, "Hecke-Clifford superalgebras, crystals of type
    A_{2l}^{(2)} and modular branching rules for S_n", Represent. Theory 5,
    2001), so applying every f_tilde_i level by level reaches each vertex,
    and each edge mu -i-> f_tilde_i(mu) is found once, from its source.

    One pass per vertex mu: `r_words` gives r_beta of the weight mu + (0)
    at every beta, and the i-edge adds a box to the row of the last plus of
    the reduced word at beta = i(i+1).  Only that row of the tuple of parts
    is tested for p-strictness.  The conormal rows of this word are those of
    the signed i-nodes, which hold one node per row; raw signatures differ.
    `crystal_graph(3, 80)` took 0.66-1.11 s (shared 2-vCPU Xeon VM, CPython 3.11.7).
    """
    p, max_size = check_characteristic(p), operator.index(max_size)
    if max_size < 0:
        raise ValueError("max_size must be >= 0")
    level, vertices, edges = [()], [()], []
    for _ in range(max_size):
        found = {}  # each vertex once: its edges share the tuple
        for mu in level:
            pad = mu + (0,)
            words = r_words(pad, p)
            for i in contents_for(p, pad[0] + 1):
                row = last_free_plus(words.get(beta_of_content(i, p), ()))
                if row is not None:
                    lam = _set_row(mu, row, pad[row - 1] + 1, p)
                    edges.append((mu, i, found.setdefault(lam, lam)))
        level = sorted(found)
        vertices.extend(level)
    edges.sort()
    return CrystalGraph(p, max_size, tuple(vertices), tuple(edges))
