"""Past-set computations checked against brute force.

The brute-force oracle recomputes Pre_a directly from the edge list and
enumerates candidate predecessor words one by one, sharing no code with
the past-word lister under test.
"""

import random
from dataclasses import dataclass
from itertools import product
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from shiftca.errors import (
    EmptyShift,
    InputFormatError,
    MonoidBudgetExceeded,
    WordNotInLanguage,
)
from shiftca.pastsets import (
    RelationMonoid,
    _free_vertices,
    _infinite_word_domains,
    _pairs,
    _trim_to_live,
    point_past_set,
    point_tsets,
    predecessor_table,
    word_past_set,
)
from shiftca.presentations import (
    Presentation,
    is_in_language,
    language_upto,
    to_labeled_graph,
)
from shiftca.tower import build_tower

from monoid_reference import MonoidGraph, realized_tsets

GOLDEN = Presentation.sft(("0", "1"), ((1, 1), (1, 0)))
EVEN = Presentation.labeled_graph(
    ("0", "1"), 2, [(0, 0, "0"), (0, 1, "1"), (1, 0, "1")]
)
POINT = Presentation.sft(("0",), ((1,),))


def brute_pre(g, tset, sym_idx):
    out = 0
    for (src, dst, s) in g.edges:
        if s == sym_idx and (tset >> dst) & 1:
            out |= 1 << src
    return out


def brute_past_words(g, tset, level):
    """All words u with |u| <= level and Pre_u(tset) nonempty."""
    n_sym = len(g.alphabet)
    found = []
    for k in range(level + 1):
        for combo in product(range(n_sym), repeat=k):
            cur = tset
            for a in reversed(combo):
                cur = brute_pre(g, cur, a)
                if not cur:
                    break
            if cur:
                found.append(tuple(g.alphabet.symbols[a] for a in combo))
    return sorted(found, key=lambda w: (len(w), w))


def test_golden_point_past_sets():
    g = to_labeled_graph(GOLDEN)
    # vertex sets are bitmasks; {v0} = 1, {v0, v1} = 3
    render = g.alphabet.format_word
    p2_v0 = point_past_set(g, 1, 2)
    assert [render(w) for w in p2_v0] == ["", "0", "00", "10"]
    p2_both = point_past_set(g, 3, 2)
    assert [render(w) for w in p2_both] == ["", "0", "1", "00", "01", "10"]
    assert ("0",) in p2_v0
    assert ("1",) not in p2_v0


def test_word_past_set_and_rejection():
    g = to_labeled_graph(GOLDEN)
    ps = word_past_set(g, ("0",), 2)
    assert ("1",) in ps  # "10" is admissible
    with pytest.raises(WordNotInLanguage):
        word_past_set(g, ("1", "1"), 2)


def test_word_past_matches_language_membership():
    g = to_labeled_graph(EVEN)
    for w in language_upto(g, 3):
        ps = word_past_set(g, w, 3)
        for u in language_upto(g, 3):
            assert (u in ps) == is_in_language(g, u + w)


def test_monoid_sizes():
    for p, size in ((GOLDEN, 5), (EVEN, 6), (POINT, 1)):
        g = to_labeled_graph(p)
        assert len(RelationMonoid(g)) == len(MonoidGraph(g)) == size


def test_realized_tsets():
    for p, tsets in ((GOLDEN, (1, 3)), (EVEN, (1, 2, 3))):
        g = to_labeled_graph(p)
        assert point_tsets(predecessor_table(g), g.full_mask) == tsets
        assert realized_tsets(MonoidGraph(g)) == tsets


def test_monoid_word_lookup():
    # words walk the step table from the identity, node 0; symbol 0 is "0"
    m = MonoidGraph(to_labeled_graph(GOLDEN))
    node_01 = m.step[m.step[0][0]][1]
    assert node_01 is not None and m.doms[node_01] == 0b11  # read from both vertices
    assert m.step[m.step[0][1]][1] is None  # "11" is not admissible


def test_monoid_dom_shrinks_along_walks():
    # composing on the right can only shrink the domain
    m = MonoidGraph(to_labeled_graph(EVEN))
    for i in range(len(m)):
        for a in range(2):
            j = m.step[i][a]
            if j is None:
                continue
            assert m.doms[j] & m.doms[i] == m.doms[j]


graph_specs = st.builds(
    lambda nv, ns, edges: (nv, ns, edges),
    st.integers(1, 4),
    st.integers(1, 3),
    st.sets(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2)),
        min_size=1,
        max_size=20,
    ),
)


def _graph_from_spec(spec):
    nv, ns, raw = spec
    syms = tuple("abc"[:ns])
    edges = [
        (s % nv, d % nv, syms[a % ns]) for (s, d, a) in raw
    ]
    p = Presentation.labeled_graph(syms, nv, edges)
    return to_labeled_graph(p)


@settings(max_examples=150, deadline=None)
@given(graph_specs, st.integers(0, 3))
def test_past_set_matches_brute_force(spec, level):
    try:
        g = _graph_from_spec(spec)
    except EmptyShift:
        return  # no infinite paths survive pruning; nothing to check
    for tset in range(1, 1 << g.n_vertices):
        assert list(point_past_set(g, tset, level)) == brute_past_words(g, tset, level)


@settings(max_examples=150, deadline=None)
@given(graph_specs, st.integers(0, 3))
def test_tower_exact_past_flags_match_brute_force(spec, level):
    try:
        g = _graph_from_spec(spec)
    except EmptyShift:
        return
    for cls in build_tower(g, max_level=0).level(level).classes:
        for tset in cls.tsets:
            want = brute_past_words(g, tset, level)
            assert list(cls.has_exact_past) == [
                any(len(w) == k for w in want) for k in range(level + 1)
            ]


def _small_graphs():
    """Every labeled graph with at most 2 vertices and 2 symbols."""
    for nv, ns in ((1, 1), (1, 2), (2, 1), (2, 2)):
        syms = "ab"[:ns]
        slots = list(product(range(nv), range(nv), syms))
        for bits in range(1, 1 << len(slots)):
            edges = [e for i, e in enumerate(slots) if bits >> i & 1]
            yield Presentation.labeled_graph(tuple(syms), nv, edges)


def _table_corpus():
    """The small graphs, 200 seeded random graphs with at most 7 vertices
    and 3 symbols, and their monoids, skipping monoids over 500 nodes."""
    rng = random.Random(1105)
    seeded = []
    for _ in range(200):
        nv = rng.randint(1, 7)
        edges = {
            (rng.randrange(nv), rng.randrange(nv), rng.choice("abc"))
            for _ in range(rng.randint(1, 3 * nv))
        }
        seeded.append(Presentation.labeled_graph(("a", "b", "c"), nv, sorted(edges)))
    for p in (*_small_graphs(), *seeded):
        try:
            g = to_labeled_graph(p)
            m = MonoidGraph(g, cap=500)
        except (EmptyShift, MonoidBudgetExceeded):
            continue
        yield g, m


def test_pre_closure_of_relation_domains():
    # the backward subset automaton's states are the relation domains, so
    # that family is closed under nonzero Pre_a; each row is Pre_a by brute force
    graphs = 0
    for g, m in _table_corpus():
        table = predecessor_table(g)
        assert set(table) == set(m.doms)
        for t, row in table.items():
            assert row == tuple(brute_pre(g, t, a) for a in range(len(g.alphabet)))
        graphs += 1
    assert graphs > 250


def _cycle_reachable_domains(m):
    """Domains of the monoid nodes reachable from a node on a cycle of the
    monoid graph, by one search per node."""
    reach = []
    for i in range(len(m)):
        seen = set()
        work = list(m.successors(i))
        while work:
            v = work.pop()
            if v not in seen:
                seen.add(v)
                work.extend(m.successors(v))
        reach.append(seen)
    return {m.doms[j] for i in range(len(m)) if i in reach[i] for j in reach[i]}


def test_infinite_word_domains_match_monoid_cycles():
    graphs = nonempty = 0
    for g, m in _table_corpus():
        got = _infinite_word_domains(predecessor_table(g))
        assert got == _cycle_reachable_domains(m)
        graphs += 1
        nonempty += bool(got)
    assert graphs > 250 and nonempty == graphs


# Reference: the row-wise relation monoid that the column-wise MonoidGraph
# replaced, kept verbatim apart from its names.


@dataclass(frozen=True)
class _RowRelation:
    rows: tuple[int, ...]

    @staticmethod
    def identity(n: int) -> "_RowRelation":
        return _RowRelation(tuple(1 << v for v in range(n)))

    @staticmethod
    def of_symbol(g, symbol_index: int) -> "_RowRelation":
        return _RowRelation(g.symbol_relation_rows(symbol_index))

    def compose(self, other: "_RowRelation") -> "_RowRelation":
        """Relational composition: first self, then other."""
        out = []
        for row in self.rows:
            acc = 0
            rest = row
            while rest:
                w = (rest & -rest).bit_length() - 1
                acc |= other.rows[w]
                rest &= rest - 1
            out.append(acc)
        return _RowRelation(tuple(out))

    @property
    def dom(self) -> int:
        mask = 0
        for v, row in enumerate(self.rows):
            if row:
                mask |= 1 << v
        return mask

    @property
    def is_zero(self) -> bool:
        return all(r == 0 for r in self.rows)


class _RowwiseMonoid:
    def __init__(self, g, cap: int = 1_000_000):
        self.graph = g
        n_sym = len(g.alphabet)
        gens = [_RowRelation.of_symbol(g, a) for a in range(n_sym)]
        ident = _RowRelation.identity(g.n_vertices)
        self.nodes: list[_RowRelation] = [ident]
        index: dict[tuple[int, ...], int] = {ident.rows: 0}
        self.step: list[list[Optional[int]]] = []
        frontier = [0]
        while frontier:
            nxt = []
            for i in frontier:
                row: list[Optional[int]] = []
                for a in range(n_sym):
                    prod = self.nodes[i].compose(gens[a])
                    if prod.is_zero:
                        row.append(None)
                        continue
                    j = index.get(prod.rows)
                    if j is None:
                        j = len(self.nodes)
                        if j >= cap:
                            raise MonoidBudgetExceeded(
                                f"relation monoid exceeds cap {cap}"
                            )
                        index[prod.rows] = j
                        self.nodes.append(prod)
                        nxt.append(j)
                    row.append(j)
                # step rows are appended in node order because BFS visits
                # nodes in creation order
                self.step.append(row)
            frontier = nxt
        self._index = index

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def doms(self) -> tuple[int, ...]:
        return tuple(r.dom for r in self.nodes)


def _random_sft(rng, n):
    matrix = [[int(rng.random() < 0.5) for _ in range(n)] for _ in range(n)]
    return Presentation.sft(tuple(f"s{i}" for i in range(n)), matrix)


def _dense_graphs(rng, count):
    """Seeded random 7-vertex, 2-symbol graphs whose monoids have 800 to
    2 400 nodes; most of their relations have several nonzero columns."""
    found = 0
    while found < count:
        edges = {
            (rng.randrange(7), rng.randrange(7), rng.choice("ab"))
            for _ in range(rng.randint(10, 20))
        }
        p = Presentation.labeled_graph(("a", "b"), 7, sorted(edges))
        try:
            g = to_labeled_graph(p)
            size = len(MonoidGraph(g, cap=2401))
        except (EmptyShift, MonoidBudgetExceeded):
            continue
        if g.n_vertices == 7 and size >= 800:
            found += 1
            yield p


def _monoid_corpus():
    """Every labeled graph with at most 2 vertices and 2 symbols, 500 seeded
    random graphs with at most 6 vertices and 3 symbols, the forbidden-word
    shifts 0^3..0^8, the mod-16 and mod-24 gap graphs, seeded random 0/1
    SFTs with 8 to 20 vertices and dense random 7-vertex graphs."""
    yield from _small_graphs()
    rng = random.Random(31013)
    for _ in range(500):
        nv = rng.randint(1, 6)
        edges = {
            (rng.randrange(nv), rng.randrange(nv), rng.choice("abc"))
            for _ in range(rng.randint(1, 3 * nv))
        }
        yield Presentation.labeled_graph(("a", "b", "c"), nv, sorted(edges))
    for k in range(3, 9):
        yield Presentation.forbidden_words(("0", "1"), [("0",) * k])
    for k in (16, 24):
        gap = [(0, 0, "0")] + [(i, (i + 1) % k, "1") for i in range(k)]
        yield Presentation.labeled_graph(("0", "1"), k, gap)
    rng = random.Random(1307)
    for n in (8, 11, 14, 17, 20):
        yield _random_sft(rng, n)
    yield from _dense_graphs(rng, 3)


def _relation_rows(m: MonoidGraph, i: int) -> tuple[int, ...]:
    """Rows of node i's relation (bit x of row v: v -> x), unpacked from its
    key, where column x is the n bits from x·n on."""
    n = m.graph.n_vertices
    full = (1 << n) - 1
    key = m.nodes[i]
    assert key.bit_length() <= n * n
    cols = [(key >> x * n) & full for x in range(n)]
    return tuple(
        sum(1 << x for x, col in enumerate(cols) if col >> v & 1) for v in range(n)
    )


def test_columnwise_monoid_matches_rowwise_reference():
    graphs = nodes = sfts = 0
    for p in _monoid_corpus():
        try:
            g = to_labeled_graph(p)
        except EmptyShift:
            continue
        got, want = MonoidGraph(g), _RowwiseMonoid(g)
        assert len(RelationMonoid(g)) == len(got) == len(want)
        assert got.step == want.step
        assert got.doms == want.doms
        rows = [_relation_rows(got, i) for i in range(len(got))]
        assert rows == [ref.rows for ref in want.nodes]
        if p.kind == "sft" and g.n_vertices >= 8:
            # every relation but the identity has one nonzero column
            for r in rows[1:]:
                cols = 0
                for row in r:
                    cols |= row
                assert cols & (cols - 1) == 0
            sfts += 1
        graphs += 1
        nodes += len(got)
    assert graphs > 500 and nodes > 15_000 and sfts == 5


def _mixed_graphs(rng, count):
    """Seeded graphs over a, b, c, d without a d-edge.  The vertices below a
    random split have at most one target per symbol and edges only among
    themselves, so none of them reaches a fork; the vertices above it draw
    their edges anywhere, forks included."""
    for _ in range(count):
        nv = rng.randint(2, 8)
        split = rng.randint(1, nv - 1)
        edges = {
            (v, rng.randrange(split), s)
            for v in range(split)
            for s in rng.sample("abc", rng.randint(1, 3))
        }
        edges |= {
            (v, rng.randrange(nv), rng.choice("abc"))
            for v in range(split, nv)
            for _ in range(rng.randint(1, 4))
        }
        yield Presentation.labeled_graph(tuple("abcd"), nv, sorted(edges))


def _count_corpus():
    """300 mixed graphs, the seven one-vertex graphs on three symbols (the
    identity is itself a one-column relation there) and seeded random SFTs
    with n = 8, 11, 14, 17 and 20."""
    rng = random.Random(2828)
    yield from _mixed_graphs(rng, 300)
    for loops in range(1, 8):
        edges = [(0, 0, s) for i, s in enumerate("abc") if loops >> i & 1]
        yield Presentation.labeled_graph(("a", "b", "c"), 1, edges)
    for n in range(8, 21, 3):
        yield _random_sft(rng, n)


def _brute_free_vertices(g):
    """The vertices whose reach, found by a search of its own, holds no
    vertex with two targets under one symbol."""
    succ = [0] * g.n_vertices
    forks = 0
    for a in range(len(g.alphabet)):
        for v, targets in enumerate(g.symbol_relation_rows(a)):
            succ[v] |= targets
            if targets & (targets - 1):
                forks |= 1 << v
    free = 0
    for v in range(g.n_vertices):
        reach, todo = 1 << v, [v]
        while todo:
            for w in g.vertices_in(succ[todo.pop()] & ~reach):
                reach |= 1 << w
                todo.append(w)
        if not reach & forks:
            free |= 1 << v
    return free


def test_count_matches_reference_on_free_and_forked_vertices():
    # one-column relations at vertices that reach no fork are counted by
    # the vertices they reach, never built; the count, its cap verdicts and
    # those vertices match the reference on graphs that mix both kinds
    kinds = {"mixed": 0, "one vertex": 0, "sft": 0, "unused symbol": 0}
    for p in _count_corpus():
        g = to_labeled_graph(p)
        size = len(MonoidGraph(g))
        assert len(RelationMonoid(g)) == size, p
        assert len(RelationMonoid(g, cap=size)) == size
        with pytest.raises(MonoidBudgetExceeded):
            RelationMonoid(g, cap=size - 1)
        cols = [{} for _ in g.alphabet]
        for w, x, a in g.edges:
            cols[a][x] = cols[a].get(x, 0) | 1 << w
        free = _free_vertices(cols, g.n_vertices)
        assert free == _brute_free_vertices(g), p
        kinds["mixed"] += 0 < free < g.full_mask
        kinds["one vertex"] += g.n_vertices == 1
        kinds["sft"] += p.kind == "sft"
        kinds["unused symbol"] += not all(cols)
    assert kinds["mixed"] > 150 and kinds["one vertex"] >= 7
    assert kinds["sft"] == 5 and kinds["unused symbol"] > 300


_CAP_RNG = random.Random(607)
_CAP_BOUNDARY = {
    "golden": GOLDEN,
    "even": EVEN,
    "0^8": Presentation.forbidden_words(("0", "1"), [("0",) * 8]),
    "sft6": _random_sft(_CAP_RNG, 6),
    "graph7": next(_dense_graphs(_CAP_RNG, 1)),
}


@pytest.mark.parametrize("name", list(_CAP_BOUNDARY))
def test_monoid_cap_boundary(name):
    # a cap equal to the monoid's size builds it whole; one less stops, and
    # a cap below 1 is an input error
    p = _CAP_BOUNDARY[name]
    g = to_labeled_graph(p)
    m = MonoidGraph(g)
    assert len(RelationMonoid(g, cap=len(m))) == len(m)
    with pytest.raises(MonoidBudgetExceeded):
        RelationMonoid(g, cap=len(m) - 1)
    tw = build_tower(p, monoid_cap=len(m))
    assert (len(tw.monoid), tw.tsets) == (len(m), realized_tsets(m))
    with pytest.raises(MonoidBudgetExceeded):
        build_tower(p, monoid_cap=len(m) - 1)
    for cap in (0, -5):
        with pytest.raises(InputFormatError):
            build_tower(p, monoid_cap=cap)


def _trim_by_rescans(nodes, successors):
    """The trim as a fixpoint of full rescans: the reference for the
    worklist in ``_trim_to_live``."""
    alive = set(nodes)
    while True:
        dead = [v for v in alive if not any(w in alive for w in successors(v))]
        if not dead:
            return alive
        alive.difference_update(dead)


def test_trim_to_live_matches_rescans():
    rng = random.Random(4242)
    for _ in range(300):
        n = rng.randint(1, 30)
        succ = {
            v: [rng.randrange(n + 5) for _ in range(rng.randint(0, 3))]
            for v in range(n + 5)
        }
        nodes = set(rng.sample(range(n + 5), n))
        assert _trim_to_live(nodes, succ.__getitem__) == _trim_by_rescans(
            nodes, succ.__getitem__
        )
    for _, m in _table_corpus():
        for d in set(m.doms):
            group = {i for i, e in enumerate(m.doms) if e == d}
            assert _trim_to_live(group, m.successors) == _trim_by_rescans(
                group, m.successors
            )


# The realized T-sets of ``point_tsets``, a pair search on the backward
# subset automaton B, against the per-domain trim of the reference monoid.


def _periodic_tsets(m: MonoidGraph) -> set[int]:
    """The sets T(z^∞) over the nonempty words z, off the reference monoid:
    the domains D of the nodes R_z that some symbol reaches, whose columns
    in D cover D again (Pre_z D = D)."""
    n = m.graph.n_vertices
    full = (1 << n) - 1
    out = set()
    for i in {j for i in range(len(m)) for j in m.successors(i)}:
        d = m.doms[i]
        into = 0
        for x in range(n):
            if d >> x & 1:
                into |= m.nodes[i] >> x * n & full
        if into == d:
            out.add(d)
    return out


def _on_a_cycle(table, d) -> bool:
    """``d`` is reached again from one of its successors in ``table``."""
    seen = set()
    work = [p for p in table[d] if p]
    while work:
        s = work.pop()
        if s == d:
            return True
        if s not in seen:
            seen.add(s)
            work.extend(p for p in table[s] if p)
    return False


def _pair_search_corpus():
    """3 400 seeded random labeled graphs with 2 to 7 vertices and 1 to 3
    symbols, then the monoid corpus."""
    rng = random.Random(24_2024)
    for _ in range(3400):
        nv, ns = rng.randint(2, 7), rng.randint(1, 3)
        syms = "abc"[:ns]
        edges = {
            (rng.randrange(nv), rng.randrange(nv), rng.choice(syms))
            for _ in range(rng.randint(1, 3 * nv))
        }
        yield Presentation.labeled_graph(tuple(syms), nv, sorted(edges))
    yield from _monoid_corpus()


def test_point_tsets_match_monoid_reference():
    # every state d of B: the search from (V, d) reaches (d, d) iff d is
    # T(z^∞) for a nonempty z, within the monoid's size in pairs
    graphs = over_cap = unrealized = searched = 0
    for p in _pair_search_corpus():
        try:
            g = to_labeled_graph(p)
            m = MonoidGraph(g, cap=5000)
        except EmptyShift:
            continue
        except MonoidBudgetExceeded:
            over_cap += 1
            continue
        tw = build_tower(g, max_level=0)
        assert tw.tsets == realized_tsets(m), p
        assert len(tw.monoid) == len(m)
        table = tw.pre
        periodic = _periodic_tsets(m)
        for d in table:
            pairs = list(_pairs(table, g.full_mask, d))
            assert len(pairs) == len(set(pairs)) <= len(m)
            assert ((d, d) in pairs) == (d in periodic), (p, d)
            searched += 1
        unrealized += any(
            _on_a_cycle(table, d) and d not in tw.tsets for d in table
        )
        graphs += 1
    assert graphs > 3000 and over_cap < 10 and searched > 13_000
    assert unrealized >= 4


# B's state {0, 3} lies on a cycle, and it is no T(x)
UNREALIZED_CYCLE_STATE = Presentation.labeled_graph(
    ("a", "b", "c"),
    5,
    [(0, 0, "c"), (0, 2, "a"), (0, 4, "b"), (1, 1, "c"), (2, 0, "a"),
     (3, 1, "a"), (3, 3, "c"), (4, 1, "a")],
)


def test_cycle_state_of_b_need_not_be_realized():
    g = to_labeled_graph(UNREALIZED_CYCLE_STATE)
    tw = build_tower(g, max_level=0)
    assert tw.tsets == realized_tsets(MonoidGraph(g))
    cycle = {d for d in tw.pre if _on_a_cycle(tw.pre, d)}
    assert cycle - set(tw.tsets) == {0b1001}
    assert cycle <= _infinite_word_domains(tw.pre)
