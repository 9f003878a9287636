"""Past sets and the transition-relation monoid of a labeled graph.

For a point x of the shift, T(x) is the set of graph vertices from which x
can be read along an infinite path.  The past set of x at window l collects
every word u of length <= l (the empty word included) such that u·x is again
a point; it is a function of T(x) alone, computed through predecessor sets:

    u·x is a point  <=>  Pre_u(T(x)) is nonempty,

where Pre_u(t) applies the u-labeled edge relation backwards, one symbol at a
time.  The sets Pre_w(V) and their one-symbol predecessors form the backward
subset automaton, :func:`predecessor_table`, which the tower and the
conditions read every Pre_a from.  Which of its states are realized T-sets
is decided on B itself, by a search over pairs of its states
(:func:`point_tsets`).  The finitely many word relations R_u (u ranging
over admissible words) form a monoid under composition; it is only counted
(:class:`RelationMonoid`), without building the relations with one column
at a vertex that reaches no fork, and its size bounds B and that search.

Whether and how often a T-set has a past word of a given length is read
off the predecessor table (``Tower.past_counts``), and the words are
listed on its rows, each from its suffix, by
:func:`~shiftca.presentations.past_layers`.  Which of two T-sets owns the
shortlex-least word the other lacks, and whether a later word follows it,
is answered for the tower's order on :class:`SubsetAutomaton`, the forward
subset automaton from the full vertex set, which the relation checks walk.

Vertex sets and relation rows or columns are Python int bitmasks (bit v =
vertex v).
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import MonoidBudgetExceeded, WordNotInLanguage
from .presentations import Graph, Word, _trim_to_live, _union, past_words

DEFAULT_MONOID_CAP = 1_000_000

class RelationMonoid:
    """The word-relation monoid of a labeled graph, counted.

    ``len()`` is the number of distinct nonzero relations R_u, the identity
    included; more than ``cap`` raise :class:`MonoidBudgetExceeded`, checked
    as the count grows.  Only the count is kept.

    A relation is one int of at most n² bits: column x is the n bits from
    x·n on, and bit v of it says the relation leads from v to x.  The
    search starts from the symbol relations R_a, built from the edge list
    rather than by expanding the identity, and follows the Cayley edges
    R_u -> R_{u·a}.  Column w of R times an int with a bit at x·n per a-edge
    w -> x puts a copy of it at each a-target, so R·a costs one
    multiplication per nonzero column of R, read off the top of its key.

    A one-column relation C×{x} times a is C×Post_a(x).  Call x free when
    no vertex reachable from x has two targets under one symbol (a fork):
    then the relations reachable from C×{x} are the C×{y}, y reachable from
    x, and all of them are in the monoid.  Such relations are never built:
    per column C, ``covered[C]`` holds the y of those found, grown
    breadth first from each new x, one step per relation counted.  Every
    other relation, with several columns or with one at a vertex that is
    not free, is kept and expanded.  Each relation is in one group by its
    shape, so none is counted twice.  In an SFT no vertex has a fork and
    every R_a has one column, so nothing is expanded, and the n²-bit ints
    per edge that expanding reads are not built: a random SFT with
    n = 160 (25 601 relations) is counted in about 8 ms on 2 vCPUs.
    """

    def __init__(self, g: Graph, cap: int = DEFAULT_MONOID_CAP):
        n = g.n_vertices
        n_sym = len(g.alphabet)
        # per symbol a: x -> the a-sources of x, the columns of R_a; per
        # vertex w: its successors
        cols: list[dict[int, int]] = [{} for _ in range(n_sym)]
        after = [0] * n
        for w, x, a in g.edges:
            col = cols[a]
            col[x] = col.get(x, 0) | 1 << w
            after[w] |= 1 << x
        symbols = [sum(c << x * n for x, c in col.items()) for col in cols]
        free = _free_vertices(cols, n)
        # per source w: a -> bit x·n for every a-edge w -> x; not needed
        # when every R_a has one column, at a free vertex, as in an SFT
        puts: list[dict[int, int]] = [{} for _ in range(n)]
        if any(len(col) > 1 or not free >> x & 1 for col in cols for x in col):
            for w, x, a in g.edges:
                put = puts[w]
                put[a] = put.get(a, 0) | 1 << x * n
        spread = [list(put.items()) for put in puts]
        covered: dict[int, int] = {}
        found = 0  # the relations in covered

        def cover(rel: int) -> bool:
            """Put ``rel`` and the relations it leads to in covered, if it
            has one column, at a free vertex."""
            nonlocal found
            x = (rel.bit_length() - 1) // n
            if not free >> x & 1 or rel & (1 << x * n) - 1:
                return False
            col = rel >> x * n
            have = covered.get(col, 0)
            new = 1 << x & ~have
            while new:  # what x reaches, breadth first, until col has it
                have |= new
                found += new.bit_count()
                new = _union(after, new) & ~have
            covered[col] = have
            return True

        # nodes[0] stands for the identity: its products, the R_a, come from
        # the edge list, and it is in seen in case some R_u equals it
        nodes = [0]
        seen = {sum(1 << (v * n + v) for v in range(n))}
        for key in nodes:
            if len(nodes) + found > cap:
                raise MonoidBudgetExceeded(f"relation monoid exceeds cap {cap}")
            if key:
                x = (key.bit_length() - 1) // n
                col = key >> x * n
                key ^= col << x * n
                if not key:  # one nonzero column: R·a is col times a's put
                    for _, put in spread[x]:
                        rel = col * put
                        if rel not in seen and not (free and cover(rel)):
                            seen.add(rel)
                            nodes.append(rel)
                    continue
                prods = [0] * n_sym
                for a, put in spread[x]:
                    prods[a] = col * put
                while key:
                    x = (key.bit_length() - 1) // n
                    col = key >> x * n
                    key ^= col << x * n
                    for a, put in spread[x]:
                        prods[a] |= col * put
            else:
                prods = symbols
            for rel in prods:
                if rel and rel not in seen and not (free and cover(rel)):
                    seen.add(rel)
                    nodes.append(rel)
        size = len(nodes) + found
        if size > cap:
            raise MonoidBudgetExceeded(f"relation monoid exceeds cap {cap}")
        self.size = size

    def __len__(self) -> int:
        return self.size


def _free_vertices(cols: list[dict[int, int]], n: int) -> int:
    """The vertices from which no vertex with two targets under one symbol
    (a fork) can be reached, as a mask; ``cols[a]`` maps each vertex x to
    the sources of the a-edges into x.  The others are found backwards
    from the forks."""
    into = [0] * n
    bound = 0
    for col in cols:
        sources = 0
        for x, c in col.items():
            into[x] |= c
            bound |= sources & c
            sources |= c
    todo = bound
    while todo:
        todo = _union(into, todo) & ~bound
        bound |= todo
    return (1 << n) - 1 ^ bound


def predecessor_table(g: Graph) -> dict[int, tuple[int, ...]]:
    """The backward subset automaton B: every nonempty Pre_w(V) -> its row
    (Pre_a of it, per symbol a, with 0 for the empty set).

    The states are the domains of the word relations R_w, so B has no more
    states than the relation monoid has nodes, and it is closed under
    nonzero Pre_a; every realized T-set is a state.  Rows are shared with
    the graph (:meth:`Graph.pre_row`).
    """
    table: dict[int, tuple[int, ...]] = {}
    work = [g.full_mask]
    while work:
        s = work.pop()
        if s not in table:
            row = table[s] = g.pre_row(s)
            work.extend(p for p in row if p and p not in table)
    return table


def point_tsets(table: dict[int, tuple[int, ...]], full: int) -> tuple[int, ...]:
    """The realized T-sets, the sets T(x) of the points x, ascending, read
    off the backward subset automaton ``table`` with start state ``full``,
    the vertex set V.

    For a state D and a nonempty word z, T(z^∞) = D iff Pre_z(V) = D and
    Pre_z(D) = D: then every Pre_{z^k}(V) is D, and conversely z = w^k
    does for D = T(w^∞) and k large.  Every T(x) is Pre_u(T(y)) for a
    periodic y (Ramsey's theorem on the relations of the factors of x), so
    the realized T-sets are the Pre-closure of the D found.  Each candidate,
    a state reachable from a cycle of B and not yet in the closure, in
    ascending order, is decided by searching the pairs (Pre_z V, Pre_z D)
    from (V, D) for (D, D); not every state on a cycle is such a D.  A pair
    is a function of R_z, so one search visits at most as many pairs as the
    relation monoid has nodes, and counting the monoid first, under its
    cap, bounds every search.  The count need not build the relations
    whose pairs it bounds: for an SFT it builds none, and costs a few
    milliseconds at n = 160.
    """
    found: set[int] = set()
    for d in sorted(_infinite_word_domains(table)):
        if d not in found and (d, d) in _pairs(table, full, d):
            work = [d]
            while work:
                s = work.pop()
                if s not in found:
                    found.add(s)
                    work.extend(p for p in table[s] if p)
    return tuple(sorted(found))


def _pairs(table: dict[int, tuple[int, ...]], full: int, d: int) -> Iterator[tuple[int, int]]:
    """The pairs (Pre_z V, Pre_z d) over the nonempty words z with Pre_z d
    nonempty, each once, V being ``full``."""
    seen = set()
    work = [(full, d)]
    while work:
        p, q = work.pop()
        # q ⊆ p, so a nonempty Pre_a q has a nonempty Pre_a p
        for pair in zip(table[p], table[q]):
            if pair[1] and pair not in seen:
                seen.add(pair)
                yield pair
                work.append(pair)


def _infinite_word_domains(table: dict[int, tuple[int, ...]]) -> set[int]:
    """The states of the backward subset automaton ``table`` that infinitely
    many words share: those reachable from one of its cycles.  Trimming to
    the states that keep a predecessor inside the set leaves exactly them."""
    into: dict[int, set[int]] = {s: set() for s in table}
    for s, row in table.items():
        for p in row:
            if p:
                into[p].add(s)
    return _trim_to_live(set(table), into.__getitem__)


#: State of every inadmissible word: the empty vertex set.
DEAD = 0
#: State of the empty word: the full vertex set.
START = 1


class SubsetAutomaton:
    """Forward subset automaton of a labeled graph from all vertices.

    State s is the vertex set ``sets[s]`` = post*(V, u), the ends of the
    paths labeled by some word u; :data:`START` is V and :data:`DEAD` is
    the empty set, which maps every symbol to itself.  The state of u fixes
    the follower set of u (Lind–Marcus §3.2), and u is a past of a T-set t
    iff post*(V, u) meets t.

    The step table is ``int64`` with one column per symbol, and a row is
    computed the first time a state is read (:meth:`rows`, :meth:`step`,
    :meth:`state_of`), so a truncation pays only for the states its words
    reach.  The past-word questions (:meth:`separating_word`,
    :meth:`has_later_word`) are path questions from :data:`START`,
    answered by one bitmask over states per word length (bit s = state s)
    on the full expansion.  post*(V, u) is the range of
    R_u, so it has at most as many live states as the relation monoid has
    nodes.
    """

    def __init__(self, g: Graph):
        self.graph = g
        self.sets = [0, g.full_mask]
        self._ids = {0: DEAD, g.full_mask: START}
        self._table = np.zeros((16, len(g.alphabet)), dtype=np.int64)
        self._rows = 1  # rows below this are filled; the dead row is zeros
        self._live: dict[int, list[int]] = {}

    def _fill(self, need: int) -> None:
        """Compute the rows of the states below ``need``."""
        while self._rows < need:
            s = self._rows
            if s == len(self._table):
                self._table = np.concatenate([self._table, np.zeros_like(self._table)])
            for a in range(self._table.shape[1]):
                nxt = self.graph.post(self.sets[s], a)
                j = self._ids.setdefault(nxt, len(self.sets))
                if j == len(self.sets):
                    self.sets.append(nxt)
                self._table[s, a] = j
            self._rows += 1

    def _expand(self, states: np.ndarray) -> None:
        # no max() once every known state has its row: step is the hot path
        if self._rows < len(self.sets):
            self._fill(int(states.max(initial=0)) + 1)

    def rows(self, states: np.ndarray) -> np.ndarray:
        """Step-table rows of ``states``."""
        self._expand(states)
        return self._table[states]

    def step(self, states: np.ndarray, symbols: np.ndarray) -> np.ndarray:
        """Elementwise successor of ``states[i]`` under ``symbols[i]``."""
        self._expand(states)
        return self._table[states, symbols]

    def state_of(self, word: Word) -> int:
        """State post*(V, word); :data:`DEAD` when ``word`` is inadmissible."""
        s = np.array([START])
        for sym in word:
            s = self.step(s, np.array([self.graph.alphabet.index(sym)]))
        return int(s[0])

    @cached_property
    def _full(self) -> tuple[list[list[int]], list[int]]:
        """Every reachable state's step row as a list, and per state the
        bitmask of the states with an edge into it."""
        while self._rows < len(self.sets):
            self._fill(len(self.sets))
        step = self._table[: self._rows].tolist()
        into = [0] * len(step)
        for s, row in enumerate(step):
            for j in row:
                into[j] |= 1 << s
        return step, into

    def pre(self, states: int) -> int:
        """States with an edge into ``states``."""
        return _union(self._full[1], states)

    def live(self, tset: int, k: int) -> int:
        """States from which some word of length k ends in a state meeting
        ``tset``; bit :data:`START` says ``tset`` has a past word of length
        k."""
        rows = self._live.get(tset)
        if rows is None:
            n = len(self._full[0])  # every state, once expanded
            meets = sum(1 << s for s in range(n) if self.sets[s] & tset)
            rows = self._live[tset] = [meets]
        while len(rows) <= k:
            rows.append(self.pre(rows[-1]))
        return rows[k]

    def separating_word(
        self, t1: int, t2: int, level: int
    ) -> Optional[tuple[list[int], bool]]:
        """Shortlex-least word of length <= ``level`` that is a past of
        exactly one of t1 and t2, as symbol indices, and whether it is a
        past of t1 (its state meets t1); None when the two past sets agree
        up to the level."""
        # sep[r]: states from which some length-r word separates t1 from t2
        sep = [self.live(t1, 0) ^ self.live(t2, 0)]
        while not sep[-1] >> START & 1:
            if len(sep) > level or not sep[-1]:
                return None
            sep.append(self.pre(sep[-1]))
        step = self._full[0]
        word = []
        s = START
        for r in range(len(sep) - 2, -1, -1):
            a = next(a for a, j in enumerate(step[s]) if sep[r] >> j & 1)
            word.append(a)
            s = step[s][a]
        return word, bool(self.sets[s] & t1)

    def has_later_word(self, tset: int, word: Sequence[int]) -> bool:
        """Some past word of ``tset`` of the same length as the admissible
        ``word`` is lexicographically larger."""
        step = self._full[0]
        s = START
        for i, a in enumerate(word):
            want = self.live(tset, len(word) - i - 1)
            row = step[s]
            if any(want >> j & 1 for j in row[a + 1:]):
                return True
            s = row[a]
        return False


def point_past_set(g: Graph, tset: int, level: int) -> tuple[Word, ...]:
    """Past set of any point x with T(x) = ``tset``: the words u with
    |u| <= ``level`` and u·x a point, in shortlex order."""
    return tuple(past_words(g, tset, level))


def word_past_set(g: Graph, word: Word, level: int) -> tuple[Word, ...]:
    """Past set of a finite word: all v with |v| <= level and v·word
    admissible, in shortlex order.  Raises WordNotInLanguage when the word
    itself is not.

    v·word is admissible iff Pre_v of Pre_word(V), the domain of R_word,
    is nonempty — the same computation as for points, applied to that set.
    """
    tset = g.full_mask
    for sym in reversed(word):
        tset = g.pre(tset, g.alphabet.index(sym))
    if not tset:
        raise WordNotInLanguage(
            f"word {g.alphabet.format_word(word)!r} not admissible"
        )
    return tuple(past_words(g, tset, level))
