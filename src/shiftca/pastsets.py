"""Past sets and the transition-relation monoid of a labeled graph.

For a point x of the shift, T(x) is the set of graph vertices from which x
can be read along an infinite path.  The past set of x at window l collects
every word u of length <= l (the empty word included) such that u·x is again
a point; it is a function of T(x) alone, computed through predecessor sets:

    u·x is a point  <=>  Pre_u(T(x)) is nonempty,

where Pre_u(t) applies the u-labeled edge relation backwards, one symbol at a
time.  The finitely many word relations R_u (u ranging over admissible words)
form a monoid under composition; its left-to-right Cayley graph — nodes are
distinct nonzero relations, the edge for symbol a maps R_u to R_{u·a} — is
the single combinatorial object behind realized T-sets, point counting, and
the word-class bookkeeping of the conditions module.

Questions about the past words themselves (which of two T-sets owns the
shortlex-least word the other lacks, how many words a past set holds, its
first few words) run on :class:`PastAutomaton`, the forward subset automaton
from the full vertex set, by tables over its states per word length; word
lists are built only when a caller renders them (:class:`PastSetCalculator`).

Vertex sets and relation rows or columns are Python int bitmasks (bit v =
vertex v).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import MonoidBudgetExceeded, WordNotInLanguage
from .presentations import EPSILON, Graph, Word

DEFAULT_MONOID_CAP = 1_000_000


@dataclass(frozen=True)
class RelationElement:
    """Boolean vertex-to-vertex relation, stored as one bitmask row per
    source vertex: ``rows[v]`` is the set of endpoints of paths from v."""

    rows: tuple[int, ...]

    @cached_property
    def dom(self) -> int:
        mask = 0
        for v, row in enumerate(self.rows):
            if row:
                mask |= 1 << v
        return mask

    @cached_property
    def ran(self) -> int:
        acc = 0
        for row in self.rows:
            acc |= row
        return acc

    @property
    def is_zero(self) -> bool:
        return all(r == 0 for r in self.rows)


class MonoidGraph:
    """Cayley graph of the word-relation monoid of a labeled graph.

    node 0 is the identity relation (the empty word).  ``step[i][a]`` is the
    node reached from node i by composing with symbol a on the right, or None
    when the product is the zero relation.  Nodes are created in BFS order
    from the identity, symbols in alphabet order, so numbering is canonical.

    ``nodes[i]`` stores the relation of node i by columns: bit v of
    ``nodes[i][x]`` says the node's words lead from v to x.  Column x of
    R·a is then the OR of the columns w of R over the a-labeled edges
    w -> x, one OR per edge.
    """

    def __init__(self, g: Graph, cap: int = DEFAULT_MONOID_CAP):
        self.graph = g
        n = g.n_vertices
        # per symbol: (x, sources of the edges into x) for every target x
        in_edges = []
        for a in range(len(g.alphabet)):
            sources: list[list[int]] = [[] for _ in range(n)]
            for w, row in enumerate(g.symbol_relation_rows(a)):
                for x in g.vertices_in(row):
                    sources[x].append(w)
            in_edges.append([(x, ws) for x, ws in enumerate(sources) if ws])
        ident = tuple(1 << v for v in range(n))
        self.nodes: list[tuple[int, ...]] = [ident]
        doms = [(1 << n) - 1]
        index: dict[tuple[int, ...], int] = {ident: 0}
        self.step: list[list[Optional[int]]] = []
        frontier = [0]
        while frontier:
            nxt = []
            for i in frontier:
                cols = self.nodes[i]
                row: list[Optional[int]] = []
                for edges in in_edges:
                    prod = [0] * n
                    dom = 0
                    for x, ws in edges:
                        acc = 0
                        for w in ws:
                            acc |= cols[w]
                        prod[x] = acc
                        dom |= acc
                    if not dom:
                        row.append(None)
                        continue
                    key = tuple(prod)
                    j = index.get(key)
                    if j is None:
                        j = len(self.nodes)
                        if j >= cap:
                            raise MonoidBudgetExceeded(
                                f"relation monoid exceeds cap {cap}"
                            )
                        index[key] = j
                        self.nodes.append(key)
                        doms.append(dom)
                        nxt.append(j)
                    row.append(j)
                # step rows are appended in node order because BFS visits
                # nodes in creation order
                self.step.append(row)
            frontier = nxt
        # domain of each node: the OR of its columns
        self.doms: tuple[int, ...] = tuple(doms)

    def __len__(self) -> int:
        return len(self.nodes)

    def node_of_word(self, word: Word) -> Optional[int]:
        """Monoid node of a word, or None when its relation is zero."""
        i = 0
        alph = self.graph.alphabet
        for s in word:
            j = self.step[i][alph.index(s)]
            if j is None:
                return None
            i = j
        return i

    def relation_of_word(self, word: Word) -> RelationElement:
        i = self.node_of_word(word)
        if i is None:
            raise WordNotInLanguage(
                f"word {self.graph.alphabet.format_word(word)!r} not admissible"
            )
        cols = self.nodes[i]
        return RelationElement(tuple(
            sum(1 << x for x, col in enumerate(cols) if col >> v & 1)
            for v in range(len(cols))
        ))

    def successors(self, i: int) -> Iterable[int]:
        return (j for j in self.step[i] if j is not None)

    @cached_property
    def cycle_reachable(self) -> tuple[bool, ...]:
        """cycle_reachable[i]: node i is reachable from some node lying on a
        directed cycle (itself included).  Such nodes are exactly the word
        relations shared by infinitely many words."""
        on_cycle = _cyclic_nodes(len(self.nodes), self.successors)
        flag = list(on_cycle)
        # forward closure
        work = [i for i, f in enumerate(flag) if f]
        while work:
            i = work.pop()
            for j in self.successors(i):
                if not flag[j]:
                    flag[j] = True
                    work.append(j)
        return tuple(flag)

    @cached_property
    def live_by_dom(self) -> dict[int, frozenset[int]]:
        """Realized T-set -> its live nodes.

        A candidate D (necessarily the domain of some reachable relation) is
        realized by a point iff the subgraph of nodes with domain D still
        contains a node after trimming to out-degree >= 1 inside the subgraph:
        the trimmed survivors are exactly the relations from which some
        infinite word keeps its domain pinned at D forever, and domains only
        shrink along composition, so such a tail pins T(x) = D.
        """
        by_dom: dict[int, set[int]] = {}
        for i, d in enumerate(self.doms):
            by_dom.setdefault(d, set()).add(i)
        out = {}
        for d, nodes in by_dom.items():
            live = _trim_to_live(nodes, self.successors)
            if live:
                out[d] = frozenset(live)
        return out


def _cyclic_nodes(n: int, successors: Callable[[int], Iterable[int]]) -> list[bool]:
    """Nodes lying on a directed cycle, via iterative Tarjan SCC."""
    UNSEEN = -1
    index_of = [UNSEEN] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    result = [False] * n
    counter = 0
    for root in range(n):
        if index_of[root] != UNSEEN:
            continue
        work: list[tuple[int, Iterable[int]]] = [(root, iter(successors(root)))]
        index_of[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index_of[w] == UNSEEN:
                    index_of[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(successors(w))))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index_of[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index_of[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                if len(comp) > 1:
                    for w in comp:
                        result[w] = True
                else:
                    w = comp[0]
                    if w in successors(w):
                        result[w] = True
    return result


def _trim_to_live(nodes: set[int], successors: Callable[[int], Iterable[int]]) -> set[int]:
    """Largest subset where every node keeps an outgoing edge inside the set
    (iteratively delete out-degree-0 nodes)."""
    alive = set(nodes)
    changed = True
    while changed:
        changed = False
        dead = [v for v in alive if not any(w in alive for w in successors(v))]
        if dead:
            alive.difference_update(dead)
            changed = True
    return alive


def realized_tsets(monoid: MonoidGraph) -> tuple[int, ...]:
    """All vertex sets of the form T(x), sorted by bitmask value."""
    return tuple(sorted(monoid.live_by_dom))


class PastAutomaton:
    """Forward subset automaton of a labeled graph, started at all vertices.

    State s is a vertex set post*(V, u), the ends of the paths labeled by
    some word u; state 0 is V (the empty word) and the empty set is no
    state.  ``step[s][a]`` is the state reached by reading a, or -1.  A word
    u is a past of a T-set t iff post*(V, u) meets t, so questions about the
    past words of bounded length become path questions from state 0,
    answered by one bitmask over states per word length (bit s = state s).
    The state of u fixes the follower set of u (Lind–Marcus §3.2);
    post*(V, u) is the range of R_u, so there are at most as many states as
    monoid nodes.
    """

    def __init__(self, g: Graph):
        self.graph = g
        sets = [g.full_mask]
        index = {g.full_mask: 0}
        self.step: list[tuple[int, ...]] = []
        # BFS, symbols in alphabet order, so numbering is canonical
        for vset in sets:
            row = []
            for a in range(len(g.alphabet)):
                nxt = g.post(vset, a)
                if not nxt:
                    row.append(-1)
                    continue
                j = index.get(nxt)
                if j is None:
                    j = index[nxt] = len(sets)
                    sets.append(nxt)
                row.append(j)
            self.step.append(tuple(row))
        self.sets: tuple[int, ...] = tuple(sets)
        into = [0] * len(sets)  # per state: the states with an edge into it
        for s, row in enumerate(self.step):
            for j in row:
                if j >= 0:
                    into[j] |= 1 << s
        self._into = into
        self._live: dict[int, list[int]] = {}
        self._counts: list[list[int]] = [[1] + [0] * (len(sets) - 1)]

    def pre(self, states: int) -> int:
        """States with an edge into ``states``."""
        acc = 0
        while states:
            low = states & -states
            acc |= self._into[low.bit_length() - 1]
            states ^= low
        return acc

    def live(self, tset: int, k: int) -> int:
        """States from which some word of length k ends in a state meeting
        ``tset``; bit 0 says ``tset`` has a past word of length k."""
        rows = self._live.get(tset)
        if rows is None:
            meets = sum(1 << s for s, vset in enumerate(self.sets) if vset & tset)
            rows = self._live[tset] = [meets]
        while len(rows) <= k:
            rows.append(self.pre(rows[-1]))
        return rows[k]

    def separating_word(self, t1: int, t2: int, level: int) -> Optional[list[int]]:
        """Shortlex-least word of length <= ``level`` that is a past of
        exactly one of t1 and t2, as symbol indices; None when the two past
        sets agree up to the level."""
        # sep[r]: states from which some length-r word separates t1 from t2
        sep = [self.live(t1, 0) ^ self.live(t2, 0)]
        while not sep[-1] & 1:
            if len(sep) > level or not sep[-1]:
                return None
            sep.append(self.pre(sep[-1]))
        word = []
        s = 0
        for r in range(len(sep) - 2, -1, -1):
            a = next(
                a for a, j in enumerate(self.step[s]) if j >= 0 and sep[r] >> j & 1
            )
            word.append(a)
            s = self.step[s][a]
        return word

    def is_past(self, tset: int, word: Sequence[int]) -> bool:
        """An admissible ``word`` is a past of ``tset``."""
        s = 0
        for a in word:
            s = self.step[s][a]
        return bool(self.sets[s] & tset)

    def has_later_word(self, tset: int, word: Sequence[int]) -> bool:
        """Some past word of ``tset`` of the same length as the admissible
        ``word`` is lexicographically larger."""
        s = 0
        for i, a in enumerate(word):
            want = self.live(tset, len(word) - i - 1)
            row = self.step[s]
            if any(j >= 0 and want >> j & 1 for j in row[a + 1:]):
                return True
            s = row[a]
        return False

    def count_words(self, tset: int, level: int) -> int:
        """|P_level(tset)|: the words of length <= level from state 0 into a
        state meeting ``tset``, counted per state and length."""
        counts = self._counts
        while len(counts) <= level:
            nxt = [0] * len(self.sets)
            for s, c in enumerate(counts[-1]):
                if c:
                    for j in self.step[s]:
                        if j >= 0:
                            nxt[j] += c
            counts.append(nxt)
        meets = self.live(tset, 0)
        return sum(
            c for k in range(level + 1)
            for s, c in enumerate(counts[k]) if meets >> s & 1
        )

    def words(self, tset: int, level: int) -> Iterator[Word]:
        """The past words of ``tset`` up to ``level`` in shortlex order,
        lazily: a depth-first walk per length, pruned by :meth:`live`."""
        syms = self.graph.alphabet.symbols
        for k in range(level + 1):
            if not self.live(tset, k) & 1:
                continue
            stack: list[tuple[int, Word]] = [(0, EPSILON)]
            while stack:
                s, w = stack.pop()
                r = k - len(w)
                if r == 0:
                    yield w
                    continue
                want = self.live(tset, r - 1)
                row = self.step[s]
                for a in range(len(row) - 1, -1, -1):
                    j = row[a]
                    if j >= 0 and want >> j & 1:
                        stack.append((j, w + (syms[a],)))


@dataclass(frozen=True)
class PastSet:
    """The words u (|u| <= level) that can be prepended to a point/word.

    ``words`` is shortlex-sorted and always contains the empty word.
    """

    level: int
    words: tuple[Word, ...]

    def render(self, alphabet) -> list[str]:
        return [alphabet.format_word(w) for w in self.words]

    def __contains__(self, word: Word) -> bool:
        return word in set(self.words)


class PastSetCalculator:
    """Memoized past sets over vertex-set bitmasks.

    P_l(t) = {ε} ∪ { w·a : Pre_a(t) != 0, w ∈ P_{l-1}(Pre_a(t)) },
    because prepending happens one final symbol at a time:
    Pre_{w·a}(t) = Pre_w(Pre_a(t)).
    """

    def __init__(self, g: Graph):
        self.graph = g
        self._memo: dict[tuple[int, int], tuple[Word, ...]] = {}
        self._pre_memo: dict[tuple[int, int], int] = {}

    def pre(self, tset: int, symbol_index: int) -> int:
        key = (tset, symbol_index)
        v = self._pre_memo.get(key)
        if v is None:
            v = self.graph.pre(tset, symbol_index)
            self._pre_memo[key] = v
        return v

    def words_of_set(self, tset: int, level: int) -> tuple[Word, ...]:
        if level == 0:
            return (EPSILON,)
        key = (tset, level)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        alph = self.graph.alphabet
        words: list[Word] = [EPSILON]
        for a, sym in enumerate(alph.symbols):
            p = self.pre(tset, a)
            if p:
                words.extend(w + (sym,) for w in self.words_of_set(p, level - 1))
        result = tuple(sorted(words, key=alph.sort_key))
        self._memo[key] = result
        return result

    def past_set(self, tset: int, level: int) -> PastSet:
        return PastSet(level, self.words_of_set(tset, level))


def point_past_set(g: Graph, tset: int, level: int) -> PastSet:
    """Past set of any point x with T(x) = ``tset``."""
    return PastSetCalculator(g).past_set(tset, level)


def word_past_set(
    g: Graph, word: Word, level: int, monoid: Optional[MonoidGraph] = None
) -> PastSet:
    """Past set of a finite word: all v with |v| <= level and v·word
    admissible.  Raises WordNotInLanguage when the word itself is not.

    v·word is admissible iff the range of R_v meets the domain of R_word,
    i.e. iff Pre_v(dom R_word) != 0 — the same computation as for points,
    applied to the word's relation domain.
    """
    monoid = monoid or MonoidGraph(g)
    rel = monoid.relation_of_word(word)
    return PastSetCalculator(g).past_set(rel.dom, level)
