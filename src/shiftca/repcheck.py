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

Operators are ``int64`` partial-map arrays (-1 annihilates) with CSR
preimage lists; a four-factor product is kept as its nonzero entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DepthTooLarge, InputFormatError, WrongKind
from .presentations import (
    Graph,
    Presentation,
    Word,
    _end_set,
    language_upto,
    to_labeled_graph,
    word_layers,
)

#: Largest word basis a truncation may enumerate.  Memory is linear in it:
#: products hold only their nonzeros, a bounded number per column.
DEFAULT_BASIS_CAP = 200_000
DEFAULT_WORD_BUDGET = 4


@dataclass
class TruncatedRep:
    """Word basis of depth ``N`` plus cached operator matrices.

    ``words`` is graded shortlex; ``offsets[k]`` is the index of the
    first word of length ``k`` (with a final sentinel), so the slice of
    words of length at most ``k`` is ``words[:offsets[k + 1]]``.
    """

    graph: Graph
    presentation: Optional[Presentation]
    depth: int
    words: tuple[Word, ...]
    offsets: tuple[int, ...]
    _index: dict = field(repr=False, compare=False)
    _ops: dict = field(default_factory=dict, repr=False, compare=False)
    _preims: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.words)

    def count_upto(self, max_len: int) -> int:
        """How many basis words have length at most ``max_len``."""
        if max_len < 0:
            return 0
        return self.offsets[min(max_len, self.depth) + 1]

    def index_of(self, word: Word) -> int:
        return self._index[word]

    def _parse(self, word: Union[str, Word]) -> Word:
        if isinstance(word, str):
            return self.graph.alphabet.parse_word(word)
        w = tuple(word)
        for sym in w:
            self.graph.alphabet.index(sym)
        return w

    def operator(self, word: Union[str, Word]) -> np.ndarray:
        """Dense partial map of ``s_word`` on the basis (-1 means zero)."""
        w = self._parse(word)
        cached = self._ops.get(w)
        if cached is not None:
            return cached
        g = self.graph
        start = g.full_mask
        for sym in w:
            start = g.post(start, g.alphabet.index(sym))
            if not start:
                break
        arr = np.full(self.size, -1, dtype=np.int64)
        if start:
            # reach[i] = end-vertex set of (word + basis word i); each
            # basis word extends its own prefix, already in the basis.
            reach = [0] * self.size
            reach[0] = start
            arr[0] = self._index[w[: self.depth]]
            for i in range(1, self.size):
                bw = self.words[i]
                prev = reach[self._index[bw[:-1]]]
                if not prev:
                    continue
                s = g.post(prev, g.alphabet.index(bw[-1]))
                if s:
                    reach[i] = s
                    arr[i] = self._index[(w + bw)[: self.depth]]
        arr.setflags(write=False)
        self._ops[w] = arr
        return arr

    def preimages(self, word: Union[str, Word]) -> tuple[np.ndarray, np.ndarray]:
        """CSR pair ``(indptr, data)`` of the operator's preimage lists."""
        w = self._parse(word)
        cached = self._preims.get(w)
        if cached is not None:
            return cached
        arr = self.operator(w)
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
    words: list[Word] = []
    offsets = [0]
    # the cap is checked before the next layer is built
    for layer in islice(word_layers(g), depth + 1):
        words.extend(layer)
        offsets.append(len(words))
        if len(words) > basis_cap:
            raise DepthTooLarge(
                f"depth {depth} needs more than {basis_cap} basis words"
            )
    return TruncatedRep(
        graph=g,
        presentation=presentation,
        depth=depth,
        words=tuple(words),
        offsets=tuple(offsets),
        _index={w: i for i, w in enumerate(words)},
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


def partial_isometry_product(
    rep: TruncatedRep,
    outer: Union[str, Word],
    mid: Union[str, Word],
    inner: Union[str, Word],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzeros of ``s_outer s_mid^T s_mid s_inner^T`` as ``(rows, cols, counts)``.

    Entry ``(x, c)`` counts the pairs ``(y, z)`` with ``s_outer(y) = x``,
    ``s_mid(y) = s_mid(z)`` and ``s_inner(z) = c``; entries are row-major.
    """
    size = rep.size
    mid_indptr, mid_data = rep.preimages(mid)
    inner_indptr, z = rep.preimages(inner)
    cols = np.repeat(np.arange(size), np.diff(inner_indptr))
    m = rep.operator(mid)[z]
    cols, m = cols[m >= 0], m[m >= 0]
    # expand each m into its preimage run mid_data[mid_indptr[m]:mid_indptr[m + 1]]
    lens = mid_indptr[m + 1] - mid_indptr[m]
    run_start = np.repeat(mid_indptr[m] - (np.cumsum(lens) - lens), lens)
    x = rep.operator(outer)[mid_data[run_start + np.arange(int(lens.sum()))]]
    cols = np.repeat(cols, lens)
    keys, counts = np.unique(x[x >= 0] * size + cols[x >= 0], return_counts=True)
    return keys // size, keys % size, counts


def _diagonal_witness(
    rep: TruncatedRep, product, expected: np.ndarray, lo: int, hi: int
) -> Optional[dict]:
    """First mismatch, in (row, col) order, of a product against a diagonal.

    Compares columns ``lo <= c < hi``, whose wanted diagonal entry is
    ``expected[c - lo]``; None when they agree.
    """
    keep = (product[1] >= lo) & (product[1] < hi)
    rows, cols, counts = (a[keep] for a in product)
    on = rows == cols
    got = np.zeros(len(expected), dtype=np.int64)
    got[cols[on] - lo] = counts[on]
    bad = [(rows[k], cols[k], counts[k], 0) for k in np.nonzero(~on)[0][:1]]
    for k in np.nonzero(got != expected)[0][:1]:
        bad.append((k + lo, k + lo, got[k], expected[k]))
    if not bad:
        return None
    r, c, g, e = (int(x) for x in min(bad))
    return {
        "row_word": rep.render(rep.words[r]),
        "column_word": rep.render(rep.words[c]),
        "got": g,
        "expected": e,
    }


def _composition_check(rep: TruncatedRep, u: Word, v: Word) -> RelationCheck:
    dim = rep.count_upto(rep.depth - len(u) - len(v))
    su = rep.operator(u)
    sv = rep.operator(v)[:dim]
    direct = rep.operator(u + v)[:dim]
    composite = np.where(sv >= 0, su[np.clip(sv, 0, None)], -1)
    passed = bool(np.array_equal(composite, direct))
    witness = None
    if not passed:
        i = int(np.nonzero(composite != direct)[0][0])

        def _img(x: int) -> Optional[str]:
            return rep.render(rep.words[x]) if x >= 0 else None

        witness = {
            "basis_word": rep.render(rep.words[i]),
            "composite": _img(int(composite[i])),
            "direct": _img(int(direct[i])),
        }
    return RelationCheck(
        "composition", rep.render(u), rep.render(v), dim, passed, witness
    )


def _projection_check(rep: TruncatedRep, u: Word, v: Word) -> RelationCheck:
    if v:
        max_len = rep.depth - len(u) - len(v)
    else:
        max_len = rep.depth - len(u) - 1
    dim = rep.count_upto(max_len)
    expected = np.zeros(dim, dtype=np.int64)
    for col in range(dim):
        w = rep.words[col]
        if w[: len(v)] != v:
            continue
        # expectation computed straight from the language, independent
        # of the operator machinery the product ran on
        if _end_set(rep.graph, u + w[len(v) :]):
            expected[col] = 1
    prod = partial_isometry_product(rep, v, u, v)
    witness = _diagonal_witness(rep, prod, expected, 0, dim)
    return RelationCheck(
        "projection", rep.render(u), rep.render(v), dim, witness is None, witness
    )


def check_universal_relations(
    rep: TruncatedRep, word_budget: int = DEFAULT_WORD_BUDGET
) -> RelationReport:
    """Check composition and range-projection over all admissible pairs.

    Pairs ``(u, v)`` range over admissible words with
    ``|u| + |v| <= word_budget``; each pair contributes one composition
    and one projection check on its interior block (possibly empty, then
    the check is vacuous but still recorded).
    """
    if word_budget < 0:
        raise InputFormatError("word budget must be nonnegative")
    if word_budget <= rep.depth:
        pool = rep.words[: rep.count_upto(word_budget)]
    else:
        pool = tuple(language_upto(rep.graph, word_budget))
    checks: list[RelationCheck] = []
    for u in pool:
        for v in pool:
            if len(u) + len(v) > word_budget:
                continue
            checks.append(_composition_check(rep, u, v))
            checks.append(_projection_check(rep, u, v))
    return RelationReport(
        depth=rep.depth,
        basis_size=rep.size,
        checks=tuple(checks),
    )


def _normalize_matrix(
    matrix: Sequence[Sequence[int]], n_symbols: int
) -> tuple[tuple[int, ...], ...]:
    if len(matrix) != n_symbols:
        raise InputFormatError(
            f"matrix has {len(matrix)} rows for {n_symbols} symbols"
        )
    rows = []
    for i, row in enumerate(matrix):
        if len(row) != n_symbols:
            raise InputFormatError(f"matrix row {i} has length {len(row)}")
        for x in row:
            if x not in (0, 1):
                raise InputFormatError(
                    f"matrix entries must be 0 or 1, found {x!r}"
                )
        rows.append(tuple(int(x) for x in row))
    return tuple(rows)


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
    mat = _normalize_matrix(matrix, len(syms))
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
    for i in occurring:
        # S_i^T S_i, compared with sum_j A(i,j) S_j S_j^T off the empty word
        rhs_diag = sum((c for c, a in zip(preim_counts, mat[i]) if a), zero)
        prod = partial_isometry_product(rep, (), (syms[i],), ())
        witness = _diagonal_witness(rep, prod, rhs_diag[1:adj_hi], 1, adj_hi)
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
