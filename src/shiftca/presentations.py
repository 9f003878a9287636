"""Shift-space presentations.

A one-sided shift space can be handed to this package in three ways:

``sft``
    a square 0-1 transition matrix A over the alphabet; the space is the set
    of one-sided sequences x with A(x_i, x_{i+1}) = 1 for every i.
``forbidden_words``
    a finite list of forbidden factors; the space is every sequence avoiding
    all of them.
``labeled_graph``
    a finite directed multigraph with edge labels; the space is the set of
    label sequences of infinite paths.

Everything downstream works on the labeled-graph form, produced by
:func:`to_labeled_graph`.  Vertex sets are represented as Python int bitmasks
throughout the package.  :func:`past_layers` lists words, the language
included: it is the past-word set of all vertices.

>>> p = Presentation.sft(("0", "1"), ((1, 1), (1, 0)))
>>> g = to_labeled_graph(p)
>>> g.n_vertices, len(g.edges)
(2, 3)
>>> [g.alphabet.format_word(w) for w in language(p, 2)]
['00', '01', '10']
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import (
    DanglingEdge,
    DuplicateSymbol,
    EmptyAlphabet,
    EmptyShift,
    InputFormatError,
    InvalidSymbol,
    WordNotInLanguage,
    ZeroRow,
)

#: A word is a tuple of symbols; the empty tuple is the empty word.
Word = tuple[str, ...]

EPSILON: Word = ()

SCHEMA_NAME = "shiftspace-v1"

_KIND_FIELDS = {
    "sft": {"format", "kind", "alphabet", "matrix"},
    "forbidden_words": {"format", "kind", "alphabet", "forbidden"},
    "labeled_graph": {"format", "kind", "alphabet", "vertices", "edges"},
}


def _is_int(x) -> bool:
    """An integer that is not a boolean (JSON ``true`` and ``false`` are not
    vertex counts or indices)."""
    return isinstance(x, int) and not isinstance(x, bool)


def zero_one_rows(
    matrix: Sequence[Sequence[int]], n: int
) -> tuple[tuple[int, ...], ...]:
    """The rows of an n x n matrix whose entries are the integers 0 and 1.

    Raises InputFormatError for a wrong shape or any other entry, booleans
    and floats included (JSON ``true`` and ``1.0`` are not matrix entries).
    """
    if len(matrix) != n:
        raise InputFormatError(f"matrix has {len(matrix)} rows for {n} symbols")
    for i, row in enumerate(matrix):
        if len(row) != n:
            raise InputFormatError(f"matrix row {i} has length {len(row)}")
    # one C-level pass over the types, then one over the values; the loop
    # only names the entry
    entries = list(chain.from_iterable(matrix))
    if set(map(type, entries)) - {int} or set(entries) - {0, 1}:
        bad = next(x for x in entries if type(x) is not int or x not in (0, 1))
        raise InputFormatError(f"matrix entries must be 0 or 1, found {bad!r}")
    return tuple(map(tuple, matrix))


@dataclass(frozen=True)
class Alphabet:
    """Ordered, duplicate-free tuple of symbol strings.

    Symbol order is significant: it fixes word comparison (shortlex with
    alphabet-index tie-break) and with it every canonical ordering downstream.
    """

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.symbols) == 0:
            raise EmptyAlphabet("alphabet must contain at least one symbol")
        seen = set()
        for s in self.symbols:
            if not isinstance(s, str) or s == "":
                raise InvalidSymbol(f"symbol {s!r} is not a nonempty string")
            if "." in s:
                raise InvalidSymbol(
                    f"symbol {s!r} contains '.', the word separator"
                )
            if s in seen:
                raise DuplicateSymbol(f"symbol {s!r} appears twice")
            seen.add(s)

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.symbols)}

    @cached_property
    def single_char(self) -> bool:
        return all(len(s) == 1 for s in self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise InvalidSymbol(f"symbol {symbol!r} not in alphabet") from None

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._index

    def format_word(self, word: Word) -> str:
        """Render a word: concatenated if all symbols are single characters,
        otherwise '.'-separated.  The empty word renders as ''."""
        return ("" if self.single_char else ".").join(word)

    def parse_word(self, text: str) -> Word:
        """Inverse of :meth:`format_word` (symbol membership is checked)."""
        if text == "":
            return EPSILON
        parts = tuple(text) if self.single_char else tuple(text.split("."))
        for s in parts:
            if s not in self._index:
                raise InvalidSymbol(f"symbol {s!r} not in alphabet")
        return parts

    def sort_key(self, word: Word):
        """Shortlex key: length first, then alphabet-index lexicographic."""
        return (len(word), tuple(self._index[s] for s in word))


@dataclass(frozen=True)
class Presentation:
    """Validated, immutable description of a shift space (one of three kinds).

    Construct through :meth:`sft`, :meth:`forbidden_words`,
    :meth:`labeled_graph`, or :meth:`from_json`.
    """

    kind: str
    alphabet: Alphabet
    matrix: Optional[tuple[tuple[int, ...], ...]] = None
    forbidden: Optional[tuple[Word, ...]] = None
    n_vertices: Optional[int] = None
    edges: Optional[tuple[tuple[int, int, str], ...]] = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def sft(symbols: Sequence[str], matrix: Sequence[Sequence[int]]) -> "Presentation":
        alphabet = Alphabet(tuple(symbols))
        rows = zero_one_rows(matrix, len(alphabet))
        for i, row in enumerate(rows):
            if not any(row):
                raise ZeroRow(f"row {i} ({alphabet.symbols[i]!r}) is all zero")
        return Presentation("sft", alphabet, matrix=rows)

    @staticmethod
    def forbidden_words(
        symbols: Sequence[str], forbidden: Sequence[Sequence[str]]
    ) -> "Presentation":
        alphabet = Alphabet(tuple(symbols))
        out = []
        for w in forbidden:
            word = tuple(w)
            if len(word) == 0:
                raise InputFormatError("the empty word cannot be forbidden")
            for s in word:
                if not isinstance(s, str):
                    raise InputFormatError(f"forbidden word uses non-string symbol {s!r}")
                if s not in alphabet:
                    raise InvalidSymbol(f"forbidden word uses unknown symbol {s!r}")
            out.append(word)
        # canonical order, duplicates removed
        uniq = sorted(set(out), key=alphabet.sort_key)
        return Presentation("forbidden_words", alphabet, forbidden=tuple(uniq))

    @staticmethod
    def labeled_graph(
        symbols: Sequence[str],
        n_vertices: int,
        edges: Sequence[tuple[int, int, str]],
    ) -> "Presentation":
        alphabet = Alphabet(tuple(symbols))
        if not _is_int(n_vertices) or n_vertices <= 0:
            raise InputFormatError("vertices must be a positive integer")
        es = []
        for e in edges:
            src, dst, label = e
            if not _is_int(src) or not _is_int(dst):
                raise InputFormatError(f"edge {e!r} endpoints must be integers")
            if not (0 <= src < n_vertices) or not (0 <= dst < n_vertices):
                raise DanglingEdge(f"edge {e!r} leaves the vertex range")
            if not isinstance(label, str):
                raise InputFormatError(f"edge {e!r} label must be a symbol string")
            if label not in alphabet:
                raise InvalidSymbol(f"edge label {label!r} not in alphabet")
            es.append((int(src), int(dst), label))
        uniq = sorted(set(es), key=lambda e: (e[0], e[1], alphabet.index(e[2])))
        return Presentation(
            "labeled_graph", alphabet, n_vertices=n_vertices, edges=tuple(uniq)
        )

    # -- JSON --------------------------------------------------------------

    @staticmethod
    def from_dict(doc: dict) -> "Presentation":
        if not isinstance(doc, dict):
            raise InputFormatError("document must be a JSON object")
        if doc.get("format") != SCHEMA_NAME:
            raise InputFormatError(
                f"format must be {SCHEMA_NAME!r}, got {doc.get('format')!r}"
            )
        kind = doc.get("kind")
        if kind not in _KIND_FIELDS:
            raise InputFormatError(f"unknown kind {kind!r}")
        expected = _KIND_FIELDS[kind]
        actual = set(doc)
        if actual != expected:
            extra = sorted(actual - expected)
            missing = sorted(expected - actual)
            raise InputFormatError(
                f"kind {kind!r} requires exactly fields {sorted(expected)}; "
                f"unexpected {extra}, missing {missing}"
            )
        symbols = doc["alphabet"]
        if not isinstance(symbols, list):
            raise InputFormatError("alphabet must be a list of strings")
        if kind == "sft":
            matrix = doc["matrix"]
            if not isinstance(matrix, list) or not all(isinstance(r, list) for r in matrix):
                raise InputFormatError("matrix must be a list of rows")
            return Presentation.sft(symbols, matrix)
        if kind == "forbidden_words":
            forbidden = doc["forbidden"]
            if not isinstance(forbidden, list) or not all(
                isinstance(w, (str, list)) for w in forbidden
            ):
                raise InputFormatError("forbidden must be a list of words")
            alphabet = Alphabet(tuple(symbols))
            words = [alphabet.parse_word(w) if isinstance(w, str) else tuple(w)
                     for w in forbidden]
            return Presentation.forbidden_words(symbols, words)
        # labeled_graph
        if not isinstance(doc["edges"], list):
            raise InputFormatError("edges must be a list")
        edges = []
        for e in doc["edges"]:
            if not isinstance(e, dict) or set(e) != {"from", "to", "label"}:
                raise InputFormatError(
                    f"edge {e!r} must be an object with exactly from/to/label"
                )
            edges.append((e["from"], e["to"], e["label"]))
        return Presentation.labeled_graph(symbols, doc["vertices"], edges)

    @staticmethod
    def from_json(text: str) -> "Presentation":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"not valid JSON: {exc}") from exc
        return Presentation.from_dict(doc)

    def to_dict(self) -> dict:
        doc: dict = {"format": SCHEMA_NAME, "kind": self.kind,
                     "alphabet": list(self.alphabet.symbols)}
        if self.kind == "sft":
            doc["matrix"] = [list(r) for r in self.matrix]
        elif self.kind == "forbidden_words":
            doc["forbidden"] = [self.alphabet.format_word(w) for w in self.forbidden]
        else:
            doc["vertices"] = self.n_vertices
            doc["edges"] = [
                {"from": s, "to": t, "label": a} for (s, t, a) in self.edges
            ]
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Graph:
    """Essential labeled graph: every vertex has at least one outgoing edge.

    This is the working form every algorithm consumes.  ``vertex_names`` maps
    the internal 0..n-1 indices back to whatever the source presentation
    called the vertices (symbol strings for SFTs, prefixes of forbidden
    words for forbidden-word inputs, original indices for explicit graphs).
    """

    alphabet: Alphabet
    n_vertices: int
    edges: tuple[tuple[int, int, int], ...]  # (src, dst, symbol index)
    vertex_names: tuple[str, ...]
    # vertex set -> its row of Pre_a, filled by pre_row
    _pre_rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n_vertices) - 1

    @cached_property
    def _out_masks(self) -> tuple[tuple[int, ...], ...]:
        """per symbol a, per vertex v: bitmask of targets of a-labeled edges."""
        table = [[0] * self.n_vertices for _ in self.alphabet]
        for src, dst, a in self.edges:
            table[a][src] |= 1 << dst
        return tuple(tuple(row) for row in table)

    @cached_property
    def _in_masks(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """per symbol a: the vertices with an incoming a-labeled edge, and
        per vertex v the bitmask of the sources of a-labeled edges into v."""
        table = [[0] * self.n_vertices for _ in self.alphabet]
        for src, dst, a in self.edges:
            table[a][dst] |= 1 << src
        return tuple(
            (sum(1 << v for v, m in enumerate(row) if m), tuple(row))
            for row in table
        )

    def pre(self, tset: int, symbol_index: int) -> int:
        """Vertices with an edge labeled ``symbol_index`` into ``tset``."""
        return self.pre_row(tset)[symbol_index]

    def post(self, vset: int, symbol_index: int) -> int:
        """Targets of edges labeled ``symbol_index`` leaving ``vset``."""
        return _union(self._out_masks[symbol_index], vset)

    def pre_row(self, tset: int) -> tuple[int, ...]:
        """Pre_a(tset) per symbol a, remembered per set for every reader."""
        row = self._pre_rows.get(tset)
        if row is None:
            row = self._pre_rows[tset] = tuple(
                _union(into, tset & targets) for targets, into in self._in_masks
            )
        return row

    def symbol_relation_rows(self, symbol_index: int) -> tuple[int, ...]:
        """Rows of the edge relation for one symbol (bitmask per vertex)."""
        return self._out_masks[symbol_index]

    def vertices_in(self, mask: int) -> list[int]:
        out = []
        rest = mask
        while rest:
            v = (rest & -rest).bit_length() - 1
            out.append(v)
            rest &= rest - 1
        return out


def _union(masks: Sequence[int], vset: int) -> int:
    """OR of ``masks[v]`` over the vertices v in ``vset``."""
    acc = 0
    while vset:
        low = vset & -vset
        acc |= masks[low.bit_length() - 1]
        vset ^= low
    return acc


def _trim_to_live(nodes: Iterable[int], successors: Callable[[int], Iterable[int]]) -> set[int]:
    """Largest subset where every node keeps an outgoing edge inside the set:
    count each node's edges into the set, then delete out-degree-0 nodes
    from a worklist, taking one edge off each of their predecessors, so
    every edge is looked at twice."""
    into: dict[int, list[int]] = {v: [] for v in nodes}
    degree = {}
    for v in into:
        d = 0
        for w in successors(v):
            if w in into:
                into[w].append(v)
                d += 1
        degree[v] = d
    dead = [v for v, d in degree.items() if not d]
    while dead:
        for v in into[dead.pop()]:
            degree[v] -= 1
            if not degree[v]:
                dead.append(v)
    return {v for v, d in degree.items() if d}


def _essentialize(
    alphabet: Alphabet,
    edges: list[tuple[int, int, int]],
    name: Callable[[int], str],
) -> Graph:
    """Delete the vertices left without an outgoing edge, then reindex.

    The trim starts from the edges' sources, since a vertex without an
    out-edge is deleted anyway, and only kept vertices are named, so the
    work follows the edges, not the declared vertex count.
    """
    out: dict[int, list[int]] = {}
    for src, dst, _ in edges:
        out.setdefault(src, []).append(dst)
    alive = _trim_to_live(out, out.__getitem__)
    if not alive:
        raise EmptyShift("no vertex supports an infinite path")
    order = sorted(alive)
    remap = {v: i for i, v in enumerate(order)}
    kept = sorted(
        (remap[s], remap[t], a)
        for (s, t, a) in edges
        if s in alive and t in alive
    )
    return Graph(
        alphabet=alphabet,
        n_vertices=len(order),
        edges=tuple(kept),
        vertex_names=tuple(name(v) for v in order),
    )


def to_labeled_graph(p: Presentation) -> Graph:
    """Convert any presentation kind to an essential labeled graph.

    sft: one vertex per symbol, edge i -> j labeled j iff A(i,j) = 1.  Note
    that a symbol whose matrix column is zero never occurs as an edge label,
    so sequences beginning with it are not represented; they contribute no
    past-set classes.

    forbidden_words: the prefix (Aho-Corasick) automaton of F.  Vertices are
    the empty word and every proper prefix of a forbidden word, in shortlex
    order, so the empty word is vertex 0; there are at most 1 + sum |w| of
    them.  The edge q -> (longest suffix of q.a that is a vertex), labeled
    a, exists iff no suffix of q.a is forbidden.  This is exact: after
    reading u from vertex q, the current vertex p is the longest suffix of
    q.u that is a vertex.  If the next symbol a completes a forbidden word
    w, then w[:-1] is a suffix of q.u and a vertex, hence a suffix of p, so
    w is a suffix of p.a and the edge is missing.  Every path therefore
    reads an F-free sequence, and from the empty word every F-free sequence
    is read.  Target and test are read off q's failure link f(q), the
    longest proper suffix of q that is a vertex, as in Aho-Corasick: the
    target is q.a when that is a vertex and f(q)'s a-target otherwise, and
    some suffix of q.a is forbidden iff q.a is or one of f(q).a is.  The
    shortlex order puts f(q) before q, so each (vertex, symbol) pair costs
    a fixed number of lookups.

    labeled_graph: taken as-is.  All three routes end with essentialization
    (vertices must have outgoing edges; starts without incoming edges are
    fine for one-sided spaces).
    """
    alphabet = p.alphabet
    if p.kind == "sft":
        n = len(alphabet)
        edges = [
            (i, j, j)
            for i in range(n)
            for j in range(n)
            if p.matrix[i][j]
        ]
        return _essentialize(alphabet, edges, alphabet.symbols.__getitem__)

    if p.kind == "forbidden_words":
        states = sorted(
            {EPSILON} | {w[:i] for w in p.forbidden for i in range(len(w))},
            key=alphabet.sort_key,
        )
        index = {q: i for i, q in enumerate(states)}
        n_sym = len(alphabet)
        child = {
            (index[q[:-1]], alphabet.index(q[-1])): i for i, q in enumerate(states) if q
        }
        banned = {(index[w[:-1]], alphabet.index(w[-1])) for w in p.forbidden}
        # per vertex q and symbol a: go, the longest suffix of q·a that is a
        # vertex, and dead, whether some suffix of q·a is forbidden; both
        # extend the row of q's failure link, fail[q]
        go: list[list[int]] = []
        dead: list[list[bool]] = []
        fail = [0] * len(states)
        edges = []
        for i in range(len(states)):
            up_go = go[fail[i]] if i else [0] * n_sym
            up_dead = dead[fail[i]] if i else [False] * n_sym
            go.append(list(up_go))
            dead.append([(i, a) in banned or up_dead[a] for a in range(n_sym)])
            for a in range(n_sym):
                c = child.get((i, a))
                if c is not None:
                    fail[c] = up_go[a]
                    go[i][a] = c
                if not dead[i][a]:
                    edges.append((i, go[i][a], a))
        return _essentialize(
            alphabet, edges, lambda v: alphabet.format_word(states[v])
        )

    if p.kind == "labeled_graph":
        edges = [(s, t, alphabet.index(a)) for (s, t, a) in p.edges]
        return _essentialize(alphabet, edges, str)

    raise InputFormatError(f"unknown kind {p.kind!r}")


def _end_set(g: Graph, word: Word) -> int:
    """Bitmask of vertices where a path labeled ``word`` can end (0 if none)."""
    s = g.full_mask
    for sym in word:
        s = g.post(s, g.alphabet.index(sym))
        if s == 0:
            return 0
    return s


def is_in_language(p: Presentation | Graph, word: Word) -> bool:
    """True iff some point of the shift contains ``word`` as a factor."""
    g = p if isinstance(p, Graph) else to_labeled_graph(p)
    return _end_set(g, word) != 0


def past_layers(g: Graph, tset: int) -> Iterator[list[Word]]:
    """Layer k: the words u of length k with Pre_u(``tset``) nonempty, in
    lexicographic order; for ``tset`` = V, the admissible words.  Since
    Pre_{a·u} = Pre_a ∘ Pre_u, it is every a·u with u in layer k - 1 and
    Pre_a(Pre_u(tset)) nonempty, the first symbol the outer loop, read off
    :meth:`Graph.pre_row`.  Lazy: layer k + 1 waits for the next request."""
    layer: list[tuple[Word, int]] = [(EPSILON, tset)] if tset else []
    symbols = tuple(enumerate(g.alphabet.symbols))
    while True:
        yield [w for w, _ in layer]
        rows = [(w, g.pre_row(s)) for w, s in layer]
        layer = [
            ((sym,) + w, p)
            for a, sym in symbols
            for w, row in rows
            if (p := row[a])
        ]


def past_words(g: Graph, tset: int, level: int) -> Iterator[Word]:
    """The past words of ``tset`` of length <= ``level``, in shortlex
    order, lazily (see :func:`past_layers`)."""
    return chain.from_iterable(islice(past_layers(g, tset), max(level + 1, 0)))


def language(p: Presentation | Graph, k: int) -> list[Word]:
    """All admissible words of length exactly ``k``, in shortlex order.

    >>> p = Presentation.sft(("a", "b"), ((1, 1), (1, 0)))
    >>> [len(language(p, k)) for k in range(6)]
    [1, 2, 3, 5, 8, 13]
    """
    if k < 0:
        raise InputFormatError("word length must be nonnegative")
    g = p if isinstance(p, Graph) else to_labeled_graph(p)
    return next(islice(past_layers(g, g.full_mask), k, None))


def language_upto(p: Presentation | Graph, k: int) -> list[Word]:
    """All admissible words of length at most ``k``, in shortlex order."""
    g = p if isinstance(p, Graph) else to_labeled_graph(p)
    return list(past_words(g, g.full_mask, k))


def require_word_in_language(g: Graph, word: Word) -> None:
    """Raise WordNotInLanguage unless some point contains ``word``."""
    if _end_set(g, word) == 0:
        raise WordNotInLanguage(
            f"word {g.alphabet.format_word(word)!r} is not admissible"
        )
