"""Finite truncations of the word operators, and relation checking.

For a depth ``N`` the basis is every admissible word of length at most
``N`` in shortlex order.  Each admissible word ``u`` acts by the partial
map

    s_u(w) = (u w) truncated to its first N symbols,   if uw is admissible,
    s_u(w) = 0,                                        otherwise,

where admissibility of the *full* word ``uw`` is what counts, not just
of the truncated image.  On the interior of the basis — words short
enough that no truncation interferes — these operators satisfy the same
relations as their infinite-dimensional counterparts, and that is what
:func:`check_universal_relations` and :func:`check_ck_relations` verify:

* composition: ``s_u s_v = s_{uv}`` on words of length at most
  ``N - |u| - |v|`` (exact for every presentation, by factor closure);
* range projection: ``s_v s_u^T s_u s_v^T`` is diagonal on the interior,
  with entry 1 at ``w`` exactly when ``w = v w'`` and ``u w'`` is
  admissible;
* for vertex shifts with 0-1 transition matrix A, the two
  Cuntz-Krieger-style identities ``sum_j S_j S_j^T = I`` (on nonempty
  words of length < N) and ``S_i^T S_i = sum_j A(i,j) S_j S_j^T`` (on
  nonempty words of length <= N - 2).

The adjacency identity is only asserted for symbols that actually occur
in the language.  A symbol whose matrix column is zero never occurs, its
generator is the zero operator, and the identity genuinely fails for its
row; the honest statement lives on the column-collapsed matrix, which is
what the zero ``S_j`` summands reproduce automatically on the rows we do
check.  Skipped symbols are reported, never silently passed.

No word is walked symbol by symbol.  Admissibility is read off the
forward subset automaton from all vertices
(:class:`~shiftca.pastsets.SubsetAutomaton`, the one automaton that also
orders the tower's past words), expanded only as far as the basis words
reach: the state of ``u`` is post*(V, u), and it fixes the
follower set of ``u`` (Lind-Marcus 1995, section 3.2).  The basis is a
trie stored as ``parent``/``last``-symbol arrays and a ``child`` table,
one layer per length, so every quantity that depends on a word extends
its parent's value by one symbol, for a whole layer at once:

* the basis: the children of a layer are the nonzero entries of the step
  table on its states, in row-major order, which is shortlex order;
* ``s_u``: ``state(w a) = step(state(w), a)`` from post*(V, u), and the
  image of ``w a`` is ``child[image(w), a]``, or ``image(w)`` once that
  image has length N; a dead state annihilates;
* the projection expectation: the same state walk, from ``index(v)`` with
  post*(V, u), over v's subtree only.  It reads the trie and the
  automaton, never an operator array, so it does not share the machinery
  it checks.

Operators are ``int64`` partial-map arrays (-1 annihilates) with CSR
preimage lists.  The checks run in batches: a batch is a run of
consecutive word pairs (or, for the adjacency identity, symbols) whose
interior columns add up to at most :data:`BATCH_COLUMNS`, and a wider one
is a batch of its own.  Each batch is a few array passes over all of its
columns: the compositions are flat gathers, a four-factor product is
expanded from two preimage lists into its nonzero entries with
multiplicity, its diagonal is counted with ``bincount``, and the
projection expectations of all pairs walk their subtrees one layer at a
time together.  The cached operators and preimage lists are read in
place, never stacked or copied, so a batch's temporaries are linear in
its columns plus the basis.

The universal checks stop with :class:`RelationBudgetExceeded` (exit 2)
before any operator is built when the number of word pairs times the
basis size exceeds :data:`RELATION_CAP`; that product bounds both the
work and the cached operator memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .errors import (
    DepthTooLarge,
    InputFormatError,
    RelationBudgetExceeded,
    WrongKind,
)
from .pastsets import DEAD, START, SubsetAutomaton
from .presentations import (
    EPSILON,
    Graph,
    Presentation,
    Word,
    language_upto,
    to_labeled_graph,
    zero_one_rows,
)

#: Largest word basis a truncation may enumerate.  Memory is linear in it:
#: products hold only their nonzeros, a bounded number per column.
DEFAULT_BASIS_CAP = 200_000
DEFAULT_WORD_BUDGET = 4
#: Largest (word pairs) x (basis words) the universal checks accept; the
#: full 6-shift at depth 4 and word budget 4 needs 7 465 x 1 555.
RELATION_CAP = 1 << 24
#: Interior columns one batch of relation checks may hold; a pair or symbol
#: wider than this is a batch of its own.  A batch's temporaries are linear
#: in its columns, so memory stays linear in this plus the basis.
BATCH_COLUMNS = 1 << 16

def trie_layers(auto: SubsetAutomaton) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Admissible words one length at a time, as ``(parent, last)`` arrays.

    Words are numbered in graded shortlex order from 0, the empty word;
    word i of a layer is word ``parent[i]`` followed by symbol ``last[i]``
    (both -1 for the empty word).  Lazy, so a caller that stops after
    layer k never builds layer k + 1.
    """
    parent, last, state = np.array([-1]), np.array([-1]), np.array([START])
    start = 0  # number of the layer's first word
    while True:
        yield parent, last
        rows = auto.rows(state)
        parent, last = np.nonzero(rows != DEAD)  # row-major: shortlex
        state = rows[parent, last]
        parent += start
        start += len(rows)


@dataclass(eq=False)
class TruncatedRep:
    """Word basis of depth ``N`` as a trie, plus cached operator matrices.

    The basis is graded shortlex; ``offsets[k]`` is the index of the first
    word of length ``k`` (with a final sentinel), so the words of length at
    most ``k`` are the indices below ``offsets[k + 1]``.  Word i > 0 is
    word ``parent[i]`` followed by symbol index ``last[i]``;
    ``child[i, a]`` is the index of word i followed by a, or -1 when that
    word is inadmissible or longer than N.  ``parent`` is nondecreasing:
    children are numbered in the order of their parents.
    """

    graph: Graph
    presentation: Optional[Presentation]
    depth: int
    offsets: tuple[int, ...]
    parent: np.ndarray = field(repr=False)
    last: np.ndarray = field(repr=False)
    child: np.ndarray = field(repr=False)
    automaton: SubsetAutomaton = field(repr=False)
    _ops: dict = field(default_factory=dict, repr=False)
    _preims: dict = field(default_factory=dict, repr=False)

    @property
    def size(self) -> int:
        return len(self.parent)

    @cached_property
    def words(self) -> tuple[Word, ...]:
        """The basis words themselves, for rendering and inspection."""
        syms = self.graph.alphabet.symbols
        words = [EPSILON]
        for p, a in zip(self.parent[1:].tolist(), self.last[1:].tolist()):
            words.append(words[p] + (syms[a],))
        return tuple(words)

    def count_upto(self, max_len: int) -> int:
        """How many basis words have length at most ``max_len``."""
        if max_len < 0:
            return 0
        return self.offsets[min(max_len, self.depth) + 1]

    def index_of(self, word: Word) -> int:
        """Basis index of ``word``; KeyError when it is not a basis word."""
        i = 0
        for sym in word:
            i = int(self.child[i, self.graph.alphabet.index(sym)])
            if i < 0:
                raise KeyError(word)
        return i

    def _parse(self, word: Union[str, Word]) -> Word:
        if isinstance(word, str):
            return self.graph.alphabet.parse_word(word)
        w = tuple(word)
        for sym in w:
            self.graph.alphabet.index(sym)
        return w

    @cached_property
    def _dead_operator(self) -> np.ndarray:
        """The operator of every inadmissible word: zero on the whole basis."""
        arr = np.full(self.size, -1, dtype=np.int64)
        arr.setflags(write=False)
        return arr

    def operator(self, word: Union[str, Word]) -> np.ndarray:
        """Dense partial map of ``s_word`` on the basis (-1 means zero);
        one shared array for all inadmissible words."""
        try:
            return self._ops[word]
        except (KeyError, TypeError):  # a miss, or an unhashable word
            return self._operator(self._parse(word))

    def _operator(self, w: Word) -> np.ndarray:
        """:meth:`operator` of a parsed word."""
        cached = self._ops.get(w)
        if cached is not None:
            return cached
        start = self.automaton.state_of(w)
        if start == DEAD:
            arr = self._dead_operator
        else:
            arr = np.full(self.size, -1, dtype=np.int64)
            state = np.empty(self.size, dtype=np.int64)
            state[0] = start
            arr[0] = self.index_of(w[: self.depth])
            for k in range(1, self.depth + 1):
                lo, hi = self.offsets[k], self.offsets[k + 1]
                p, a = self.parent[lo:hi], self.last[lo:hi]
                s = state[lo:hi] = self.automaton.step(state[p], a)
                # the parents' images have length min(|w| + k - 1, N)
                img = arr[p] if len(w) + k > self.depth else self.child[arr[p], a]
                arr[lo:hi] = np.where(s != DEAD, img, -1)
            arr.setflags(write=False)
        self._ops[w] = arr
        return arr

    def preimages(self, word: Union[str, Word]) -> tuple[np.ndarray, np.ndarray]:
        """CSR pair ``(indptr, data)`` of the operator's preimage lists."""
        try:
            return self._preims[word]
        except (KeyError, TypeError):  # a miss, or an unhashable word
            w = self._parse(word)
        cached = self._preims.get(w)
        if cached is not None:
            return cached
        arr = self._operator(w)
        valid = arr >= 0
        counts = np.bincount(arr[valid], minlength=self.size)
        indptr = np.zeros(self.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        order = np.argsort(arr, kind="stable")
        data = order[int(np.count_nonzero(~valid)) :].astype(np.int64)
        indptr.setflags(write=False)
        data.setflags(write=False)
        self._preims[w] = (indptr, data)
        return indptr, data

    def render(self, word: Word) -> str:
        return self.graph.alphabet.format_word(word)


def build_truncation(
    source: Union[Presentation, Graph],
    depth: int,
    *,
    basis_cap: int = DEFAULT_BASIS_CAP,
) -> TruncatedRep:
    """Enumerate the word basis of the given depth and wrap it up.

    Raises :class:`DepthTooLarge` as soon as the basis would exceed
    ``basis_cap`` words, and :class:`InputFormatError` for depths < 1.
    """
    if depth < 1:
        raise InputFormatError("truncation depth must be at least 1")
    presentation = source if isinstance(source, Presentation) else None
    g = source if isinstance(source, Graph) else to_labeled_graph(source)
    auto = SubsetAutomaton(g)
    parents: list[np.ndarray] = []
    lasts: list[np.ndarray] = []
    offsets = [0]
    # the cap is checked before the next layer is built
    for parent, last in islice(trie_layers(auto), depth + 1):
        parents.append(parent)
        lasts.append(last)
        offsets.append(offsets[-1] + len(parent))
        if offsets[-1] > basis_cap:
            raise DepthTooLarge(
                f"depth {depth} needs more than {basis_cap} basis words"
            )
    parent = np.concatenate(parents)
    last = np.concatenate(lasts)
    child = np.full((len(parent), len(g.alphabet)), -1, dtype=np.int64)
    child[parent[1:], last[1:]] = np.arange(1, len(parent))
    return TruncatedRep(
        graph=g,
        presentation=presentation,
        depth=depth,
        offsets=tuple(offsets),
        parent=parent,
        last=last,
        child=child,
        automaton=auto,
    )


# ---------------------------------------------------------------------------
# relation checks


@dataclass(frozen=True)
class RelationCheck:
    """Outcome of one relation instance on its interior block."""

    relation: str  # "composition" | "projection" | "ck-unit" | "ck-adjacency"
    left: str
    right: str
    interior: int
    passed: bool
    witness: Optional[dict] = None

    def to_json_dict(self) -> dict:
        return {
            "relation": self.relation,
            "left": self.left,
            "right": self.right,
            "interior": self.interior,
            "passed": self.passed,
            "witness": self.witness,
        }


@dataclass(frozen=True)
class RelationReport:
    depth: int
    basis_size: int
    checks: tuple[RelationCheck, ...]
    skipped_symbols: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[RelationCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def to_json_dict(self) -> dict:
        return {
            "depth": self.depth,
            "basis_size": self.basis_size,
            "passed": self.passed,
            "checks": [c.to_json_dict() for c in self.checks],
            "skipped_symbols": list(self.skipped_symbols),
        }


def _batches(widths: Sequence[int]) -> Iterator[tuple[int, int]]:
    """Runs ``(start, stop)`` of consecutive items whose widths add up to at
    most :data:`BATCH_COLUMNS`; a wider item is a run of its own."""
    start, total = 0, 0
    for i, w in enumerate(widths):
        if i > start and total + w > BATCH_COLUMNS:
            yield start, i
            start, total = i, 0
        total += w
    if start < len(widths):
        yield start, len(widths)


def _gather(
    arrays: Sequence[np.ndarray], bounds: Sequence[int], idx: np.ndarray
) -> np.ndarray:
    """``arrays[p][idx[i]]`` for the entries ``bounds[p] <= i < bounds[p + 1]``
    of item p, one gather per run of items that share their array."""
    out = np.empty(len(idx), dtype=np.int64)
    start = 0
    for p, arr in enumerate(arrays):
        if p + 1 < len(arrays) and arrays[p + 1] is arr:
            continue
        a, b = bounds[start], bounds[p + 1]
        np.take(arr, idx[a:b], out=out[a:b])
        start = p + 1
    return out


def _spread(x: np.ndarray, n: np.ndarray) -> np.ndarray:
    """``x[p]`` repeated ``n[p]`` times; one value is left to broadcast."""
    return x if len(x) == 1 else np.repeat(x, n)


def _join(parts: Sequence[np.ndarray]) -> np.ndarray:
    """The parts end to end; one part is returned as it is, not copied."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _first_per_item(bounds: Sequence[int], hits: np.ndarray) -> list[tuple[int, int]]:
    """``(p, i)`` for the first of the sorted positions ``hits`` in each item
    p, whose positions are ``bounds[p] <= i < bounds[p + 1]``."""
    if not hits.size:
        return []
    who = np.searchsorted(bounds, hits, side="right") - 1
    first = np.ones(len(hits), dtype=bool)
    first[1:] = who[1:] != who[:-1]
    return list(zip(who[first].tolist(), hits[first].tolist()))


def _product_entries(
    rep: TruncatedRep,
    triples: Sequence[tuple[Word, Word, Word]],
    lo: Sequence[int],
    hi: Sequence[int],
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Nonzeros of ``s_outer s_mid^T s_mid s_inner^T`` for a batch of triples,
    with multiplicity.

    Column ``lo[p] <= c < hi[p]`` of triple p is batch column
    ``base[p] + c - lo[p]``.  Returns ``(rows, cols, base)`` with one entry
    per pair ``(y, z)`` such that ``s_inner(z) = c``, ``s_mid(y) = s_mid(z)``
    and ``s_outer(y)`` is the row, in batch-column order.  The operators and
    preimage lists are read in place.
    """
    base, zb = [0], [0]
    starts, ends, zs = [], [], []
    for (_, _, inner), a, b in zip(triples, lo, hi):
        indptr, data = rep.preimages(inner)
        starts.append(indptr[a:b])
        ends.append(indptr[a + 1 : b + 1])
        zs.append(data[indptr[a] : indptr[b]])
        base.append(base[-1] + b - a)
        zb.append(zb[-1] + len(zs[-1]))
    cols = np.repeat(np.arange(base[-1]), _join(ends) - _join(starts))
    m = _gather([rep.operator(mid) for _, mid, _ in triples], zb, _join(zs))
    cols, m = cols[m >= 0], m[m >= 0]
    # expand each m into its preimage run under s_mid
    bounds = np.searchsorted(cols, base).tolist()
    mid_preims = [rep.preimages(mid) for _, mid, _ in triples]
    indptrs = [ip for ip, _ in mid_preims]
    run_start = _gather(indptrs, bounds, m)
    lens = _gather(indptrs, bounds, m + 1) - run_start
    pos = np.repeat(run_start - (np.cumsum(lens) - lens), lens)
    pos += np.arange(len(pos))
    cols = np.repeat(cols, lens)
    bounds = np.searchsorted(cols, base).tolist()
    y = _gather([data for _, data in mid_preims], bounds, pos)
    rows = _gather([rep.operator(outer) for outer, _, _ in triples], bounds, y)
    keep = rows >= 0
    return rows[keep], cols[keep], base


def partial_isometry_product(
    rep: TruncatedRep,
    outer: Union[str, Word],
    mid: Union[str, Word],
    inner: Union[str, Word],
    hi: Optional[int] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzeros of ``s_outer s_mid^T s_mid s_inner^T`` as ``(rows, cols, counts)``.

    Entry ``(x, c)`` counts the pairs ``(y, z)`` with ``s_outer(y) = x``,
    ``s_mid(y) = s_mid(z)`` and ``s_inner(z) = c``; entries are row-major.
    Only the columns ``c < hi`` are computed (all of them by default).
    """
    size = rep.size
    hi = size if hi is None else hi
    rows, cols, _ = _product_entries(rep, [(outer, mid, inner)], [0], [hi])
    keys, counts = np.unique(rows * size + cols, return_counts=True)
    return keys // size, keys % size, counts


def _diagonal_witnesses(
    rep: TruncatedRep,
    triples: Sequence[tuple[Word, Word, Word]],
    lo: Sequence[int],
    hi: Sequence[int],
    expected: np.ndarray,
) -> list[Optional[dict]]:
    """First mismatch, in (row, col) order, of each product against a diagonal.

    Triple p's product is compared on its columns ``lo[p] <= c < hi[p]``,
    whose wanted diagonal entries ``expected`` holds in batch-column order
    (see :func:`_product_entries`); its witness is None when they agree.
    """
    rows, cols, base = _product_entries(rep, triples, lo, hi)
    size = rep.size
    shift = np.array(base[:-1]) - np.asarray(lo)  # batch column - column
    local = cols - _spread(shift, np.diff(np.searchsorted(cols, base)))
    on = rows == local
    got = np.bincount(cols[on], minlength=base[-1])
    bad: dict[int, list[tuple[int, int, int, int]]] = {}
    off = np.flatnonzero(~on)
    if off.size:
        # each triple's least off-diagonal key and its multiplicity
        who = np.searchsorted(base, cols[off], side="right") - 1
        keys = rows[off] * size + local[off]
        least = np.full(len(triples), size * size, dtype=np.int64)
        np.minimum.at(least, who, keys)
        for p in np.unique(who).tolist():
            k = int(least[p])
            n = int(np.count_nonzero((who == p) & (keys == k)))
            bad[p] = [(k // size, k % size, n, 0)]
    for p, b in _first_per_item(base, np.flatnonzero(got != expected)):
        c = b - int(shift[p])
        bad.setdefault(p, []).append((c, c, int(got[b]), int(expected[b])))
    witnesses: list[Optional[dict]] = [None] * len(triples)
    for p, candidates in bad.items():
        r, c, g, e = min(candidates)
        witnesses[p] = {
            "row_word": rep.render(rep.words[r]),
            "column_word": rep.render(rep.words[c]),
            "got": g,
            "expected": e,
        }
    return witnesses


def _composition_witnesses(
    rep: TruncatedRep, pairs: Sequence[tuple[Word, Word]], dims: Sequence[int]
) -> list[Optional[dict]]:
    """First basis word ``w < dim`` with ``s_u(s_v(w)) != s_{uv}(w)`` per pair."""
    bounds = [0]
    for d in dims:
        bounds.append(bounds[-1] + d)
    sv = _join([rep.operator(v)[:d] for (_, v), d in zip(pairs, dims)])
    # -1 reads the last entry, and is then set back to -1
    composite = _gather([rep.operator(u) for u, _ in pairs], bounds, sv)
    composite[sv < 0] = -1
    del sv
    direct = _join([rep.operator(u + v)[:d] for (u, v), d in zip(pairs, dims)])

    def _img(x: int) -> Optional[str]:
        return rep.render(rep.words[x]) if x >= 0 else None

    witnesses: list[Optional[dict]] = [None] * len(pairs)
    for p, b in _first_per_item(bounds, np.flatnonzero(composite != direct)):
        witnesses[p] = {
            "basis_word": rep.render(rep.words[b - bounds[p]]),
            "composite": _img(int(composite[b])),
            "direct": _img(int(direct[b])),
        }
    return witnesses


def _expected_diagonals(
    rep: TruncatedRep,
    pairs: Sequence[tuple[Word, Word]],
    dims: Sequence[int],
    post: dict[Word, int],
) -> np.ndarray:
    """Wanted diagonals of ``s_v s_u^T s_u s_v^T`` on the columns below
    ``dim``, per pair (u, v), end to end.

    Entry w is 1 exactly when ``w = v w'`` and ``u w'`` is admissible.  The
    state of ``u w'`` is walked from ``post[u]`` = post*(V, u) at index(v)
    down v's subtree of the trie, one layer of every pair at a time; words
    at or past ``dim`` are longer than the interior and end the pair's
    walk.  Reads the trie and the automaton, never an operator array.
    """
    expected = np.zeros(sum(dims), dtype=np.int64)
    walks = []  # (index(v), post*(V, u), first column, dim)
    width = 0
    for (u, v), d in zip(pairs, dims):
        if len(v) <= rep.depth - len(u) - max(len(v), 1):  # v is interior
            walks.append((rep.index_of(v), post[u], width, d))
        width += d
    if not walks:
        return expected
    roots, states, base, lim = np.array(walks, dtype=np.int64).T
    expected[base + roots] = states != DEAD
    # row 0 and row 1: each pair's layer is the words lo..hi-1, which sit at
    # states[at:at + hi - lo]
    layer, at = np.stack([roots, roots + 1]), np.arange(len(roots))
    while True:
        # one layer down: the children of words lo..hi-1, contiguous because
        # ``parent`` is nondecreasing
        below = np.minimum(np.searchsorted(rep.parent, layer), lim)
        n = below[1] - below[0]
        start = np.cumsum(n)
        total = int(start[-1])
        if not total:
            return expected
        start -= n
        words = np.arange(total) + _spread(below[0] - start, n)
        parents = rep.parent[words] + _spread(at - layer[0], n)
        states = rep.automaton.step(states[parents], rep.last[words])
        expected[words + _spread(base, n)] = states != DEAD
        layer, at = below, start


def _pair_budget_check(rep: TruncatedRep, word_budget: int) -> None:
    """Raise :class:`RelationBudgetExceeded` when the pairs with
    ``|u| + |v| <= word_budget`` times the basis size exceed the cap.

    Words are counted per length and automaton state, never listed, and
    the pairs with ``|u| + |v| = k`` are added for k = 0, 1, ...: the loop
    stops as soon as the sum is over.  Counts are clamped just above the
    most pairs allowed, which keeps the verdict exact.
    """
    allowed = RELATION_CAP // rep.size
    states, counts = np.array([START]), np.array([1.0])
    layer: list[int] = []  # admissible words per length, clamped
    pairs = 0
    for k in range(word_budget + 1):
        layer.append(min(int(counts.sum()), allowed + 1))
        pairs += sum(layer[i] * layer[k - i] for i in range(k + 1))
        if pairs > allowed:
            raise RelationBudgetExceeded(
                f"word budget {word_budget} gives more than {allowed} word "
                f"pairs on a basis of {rep.size} words (relation checks cap "
                f"pairs x basis words at {RELATION_CAP})"
            )
        rows = rep.automaton.rows(states)
        p, a = np.nonzero(rows != DEAD)
        states, where = np.unique(rows[p, a], return_inverse=True)
        counts = np.minimum(np.bincount(where, weights=counts[p]), allowed + 1)


def check_universal_relations(
    rep: TruncatedRep, word_budget: int = DEFAULT_WORD_BUDGET
) -> RelationReport:
    """Check composition and range-projection over all admissible pairs.

    Pairs ``(u, v)`` range over admissible words with
    ``|u| + |v| <= word_budget``; each pair contributes one composition
    and one projection check on its interior block (possibly empty, then
    the check is vacuous but still recorded).  Raises
    :class:`RelationBudgetExceeded` before any operator is built when the
    pair count times the basis size exceeds :data:`RELATION_CAP`.
    """
    if word_budget < 0:
        raise InputFormatError("word budget must be nonnegative")
    _pair_budget_check(rep, word_budget)
    pool = language_upto(rep.graph, word_budget)  # shortlex, so by length
    pairs: list[tuple[Word, Word]] = []
    for u in pool:
        for v in pool:
            if len(u) + len(v) > word_budget:
                break
            pairs.append((u, v))
    depth = rep.depth
    comp_dims = [rep.count_upto(depth - len(u) - len(v)) for u, v in pairs]
    proj_dims = [rep.count_upto(depth - len(u) - max(len(v), 1)) for u, v in pairs]
    names = {w: rep.render(w) for w in pool}
    post = {w: rep.automaton.state_of(w) for w in pool}
    checks: list[RelationCheck] = []
    for a, b in _batches([c + p for c, p in zip(comp_dims, proj_dims)]):
        batch, comp, proj = pairs[a:b], comp_dims[a:b], proj_dims[a:b]
        composition = _composition_witnesses(rep, batch, comp)
        projection = _diagonal_witnesses(
            rep,
            [(v, u, v) for u, v in batch],
            [0] * len(batch),
            proj,
            _expected_diagonals(rep, batch, proj, post),
        )
        for (u, v), dc, dp, wc, wp in zip(batch, comp, proj, composition, projection):
            checks.append(
                RelationCheck("composition", names[u], names[v], dc, wc is None, wc)
            )
            checks.append(
                RelationCheck("projection", names[u], names[v], dp, wp is None, wp)
            )
    return RelationReport(
        depth=rep.depth,
        basis_size=rep.size,
        checks=tuple(checks),
    )


def check_ck_relations(
    rep: TruncatedRep, matrix: Optional[Sequence[Sequence[int]]] = None
) -> RelationReport:
    """Check the unit and adjacency identities of the symbol operators.

    ``matrix`` defaults to the transition matrix of the presentation the
    truncation was built from; that requires a vertex-shift presentation
    (:class:`WrongKind` otherwise).  Symbols that never occur in the
    language are skipped, not checked — see the module docstring.
    """
    if matrix is None:
        if rep.presentation is None or rep.presentation.kind != "sft":
            raise WrongKind(
                "no transition matrix available: build the truncation from a "
                "vertex-shift presentation or pass the matrix explicitly"
            )
        matrix = rep.presentation.matrix
    syms = rep.graph.alphabet.symbols
    mat = zero_one_rows(matrix, len(syms))
    n = rep.size
    ops = [rep.operator((s,)) for s in syms]
    occurring = [i for i, op in enumerate(ops) if bool(np.any(op >= 0))]
    skipped = tuple(syms[i] for i in range(len(syms)) if i not in occurring)
    # each S_j S_j^T is diagonal outright (S_j is a partial map), with
    # entry |preimages of w under s_j| at w
    preim_counts = [np.bincount(op[op >= 0], minlength=n) for op in ops]
    zero = np.zeros(n, dtype=np.int64)

    checks: list[RelationCheck] = []

    unit_hi = rep.count_upto(rep.depth - 1)
    diag = sum(preim_counts, zero)
    unit_block = diag[1:unit_hi]
    passed = bool(np.all(unit_block == 1))
    witness = None
    if not passed:
        i = 1 + int(np.nonzero(unit_block != 1)[0][0])
        witness = {"word": rep.render(rep.words[i]), "count": int(diag[i])}
    checks.append(
        RelationCheck("ck-unit", "", "", max(unit_hi - 1, 0), passed, witness)
    )

    adj_hi = rep.count_upto(rep.depth - 2)
    # S_i^T S_i, compared with sum_j A(i,j) S_j S_j^T off the empty word
    triples = [((), (syms[i],), ()) for i in occurring]
    expected = [
        sum((c for c, a in zip(preim_counts, mat[i]) if a), zero)[1:adj_hi]
        for i in occurring
    ]
    witnesses: list[Optional[dict]] = [None] * len(occurring)
    if adj_hi > 1:
        for a, b in _batches([adj_hi - 1] * len(occurring)):
            witnesses[a:b] = _diagonal_witnesses(
                rep,
                triples[a:b],
                [1] * (b - a),
                [adj_hi] * (b - a),
                np.concatenate(expected[a:b]),
            )
    for i, witness in zip(occurring, witnesses):
        checks.append(
            RelationCheck(
                "ck-adjacency",
                syms[i],
                "",
                max(adj_hi - 1, 0),
                witness is None,
                witness,
            )
        )

    return RelationReport(
        depth=rep.depth,
        basis_size=rep.size,
        checks=tuple(checks),
        skipped_symbols=skipped,
    )
