"""Reference answers computed without the code under test.

Every function here is a few lines of plain Python written for the
benchmark's correctness gate; none of them imports shiftca.
"""

from __future__ import annotations


def bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def i_minus(matrix: list[list[int]]) -> list[list[int]]:
    n = len(matrix)
    return [[(i == j) - matrix[i][j] for j in range(n)] for i in range(n)]


def _symbol_rows(n_vertices: int, edges, symbols) -> list[tuple[int, ...]]:
    """Per symbol, the edge relation as one successor bitmask per vertex."""
    gens = []
    for sym in symbols:
        rows = [0] * n_vertices
        for src, dst, label in edges:
            if label == sym:
                rows[src] |= 1 << dst
        gens.append(tuple(rows))
    return gens


def monoid_size(n_vertices: int, edges, symbols, cap: int):
    """Number of distinct nonzero word relations (identity included) of a
    labeled graph whose vertices all have outgoing edges, or None once the
    count exceeds ``cap``."""
    gens = _symbol_rows(n_vertices, edges, symbols)
    ident = tuple(1 << v for v in range(n_vertices))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for rel in frontier:
            for gen in gens:
                out = []
                for row in rel:
                    acc = 0
                    while row:
                        low = row & -row
                        acc |= gen[low.bit_length() - 1]
                        row ^= low
                    out.append(acc)
                prod = tuple(out)
                if any(prod) and prod not in seen:
                    seen.add(prod)
                    if len(seen) > cap:
                        return None
                    nxt.append(prod)
        frontier = nxt
    return len(seen)


def word_count_upto(n_vertices: int, edges, symbols, depth: int) -> int:
    """Admissible words of length at most ``depth`` (the empty word
    included) of a labeled graph whose vertices all have outgoing edges,
    by subset propagation: a word is admissible iff some path reads it."""
    gens = _symbol_rows(n_vertices, edges, symbols)
    layer = {(1 << n_vertices) - 1: 1}  # end-vertex set -> words reaching it
    total = 1
    for _ in range(depth):
        nxt: dict[int, int] = {}
        for ends, count in layer.items():
            for gen in gens:
                out, rest = 0, ends
                while rest:
                    low = rest & -rest
                    out |= gen[low.bit_length() - 1]
                    rest ^= low
                if out:
                    nxt[out] = nxt.get(out, 0) + count
        layer = nxt
        total += sum(layer.values())
    return total


def sft_edges(matrix: list[list[int]], symbols) -> list[tuple[int, int, str]]:
    """Vertex-shift graph of a 0-1 matrix: edge i -> j labeled by symbol j."""
    n = len(matrix)
    return [(i, j, symbols[j]) for i in range(n) for j in range(n) if matrix[i][j]]
