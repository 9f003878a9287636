"""The relation monoid's Cayley graph, kept as a test reference.

``Tower`` reads the realized T-sets off the backward subset automaton by a
pair search (:func:`shiftca.pastsets.point_tsets`) and only counts the
relation monoid (:class:`shiftca.pastsets.RelationMonoid`).  The whole
Cayley graph below, with its step rows, domains and the per-domain trim
that gave the realized T-sets, is the earlier code, kept verbatim: the
tests compare the T-sets, the monoid size, the predecessor table, the
infinite-word domains of condition (*), the point counts of condition I
and the monoid cap against it.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Optional

from shiftca.errors import MonoidBudgetExceeded
from shiftca.pastsets import DEFAULT_MONOID_CAP, _trim_to_live
from shiftca.presentations import Graph


class MonoidGraph:
    """Cayley graph of the word-relation monoid of a labeled graph.

    node 0 is the identity relation (the empty word).  ``step[i][a]`` is the
    node reached from node i by composing with symbol a on the right, or None
    when the product is the zero relation.  Nodes are created in BFS order
    from the identity, symbols in alphabet order, so numbering is canonical.
    ``doms[i]`` is the domain of node i: the vertices its words leave from.

    ``nodes[i]`` packs the columns of node i's relation into one int of at
    most n² bits: column x is the n bits from x·n on, and bit v of it says
    the node's words lead from v to x.  Zero columns cost no work: a node is
    expanded by reading its nonzero columns off the top of its key.  Column
    x of R·a is the OR of R's columns w over the a-labeled edges w -> x, so
    R·a is built from R's nonzero columns only: column w times a
    precomputed int with one bit per a-edge w -> x, at x·n, puts a copy of
    column w at each of its a-targets, one multiplication per nonzero column
    and symbol.  For an SFT every relation but the identity has one nonzero
    column, so a Cayley edge costs a fixed number of operations on ints of
    at most n² bits, not n ORs and an n-tuple.
    """

    def __init__(self, g: Graph, cap: int = DEFAULT_MONOID_CAP):
        self.graph = g
        n = g.n_vertices
        n_sym = len(g.alphabet)
        # per source w: a -> bit x·n for every a-edge w -> x
        puts: list[dict[int, int]] = [{} for _ in range(n)]
        for w, x, a in g.edges:
            puts[w][a] = puts[w].get(a, 0) | 1 << x * n
        spread = [list(put.items()) for put in puts]
        ident = sum(1 << (v * n + v) for v in range(n))
        self.nodes: list[int] = [ident]
        index = {ident: 0}
        doms = []
        self.step: list[list[Optional[int]]] = []
        # BFS: nodes are expanded in creation order, so step rows are
        # appended in node order
        for key in self.nodes:
            prods = [0] * n_sym
            dom = 0
            while key:
                x = (key.bit_length() - 1) // n
                sh = x * n
                col = key >> sh
                key ^= col << sh
                dom |= col
                for a, put in spread[x]:
                    prods[a] |= col * put
            doms.append(dom)
            row: list[Optional[int]] = []
            for prod in prods:
                if not prod:
                    row.append(None)
                    continue
                j = index.get(prod)
                if j is None:
                    j = len(self.nodes)
                    if j >= cap:
                        raise MonoidBudgetExceeded(
                            f"relation monoid exceeds cap {cap}"
                        )
                    index[prod] = j
                    self.nodes.append(prod)
                row.append(j)
            self.step.append(row)
        self.doms: tuple[int, ...] = tuple(doms)

    def __len__(self) -> int:
        return len(self.nodes)

    def successors(self, i: int) -> Iterable[int]:
        return (j for j in self.step[i] if j is not None)

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


def realized_tsets(monoid: MonoidGraph) -> tuple[int, ...]:
    """All vertex sets of the form T(x), sorted by bitmask value."""
    return tuple(sorted(monoid.live_by_dom))
