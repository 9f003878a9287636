"""Command-line surface.

Subcommands::

    classes          per-level class counts and past sets
    kgroups          K0/K1 from the stabilized class tower
    dimension-group  stationary inductive systems per filtration stage
    bf               Bowen-Franks group of a matrix presentation
    check            point-separation / reachability verdicts
    ideals           lattice of shift-closed class unions
    repcheck         finite-truncation operator relation checks
    oracle-ck        independent K-group computation from the matrix

Exit codes: 0 success (a definite negative verdict still counts as
success), 1 invalid input, 2 exhausted budget or approximate-only
results without ``--allow-partial``, 3 internal errors.

``--json`` reports are serialized with sorted keys and no whitespace,
so identical input and flags give byte-identical bytes on stdout.

With ``SHIFTCA_CACHE_DIR`` set, tower-backed commands cache the tower
dump (JSON: per level m, class past sets, the inclusion/symbol/boundary
matrices, and the exact-length filtration index sets) keyed by a sha256
of the canonicalized presentation plus the level and monoid budgets.
Writes go through a temp file and ``os.replace``; unreadable or stale
cache entries are rebuilt, never trusted.  ``classes`` and ``kgroups``
are served straight from a sufficient dump; commands that need the
relation monoid (``check``, ``ideals``) always rebuild, since the dump
deliberately stores only the level data.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from typing import Optional

from . import __version__
from .conditions import (
    Verdict,
    aperiodic_past,
    condition_I,
    condition_star,
    ideal_lattice,
    irreducible_past,
)
from .errors import InputFormatError, ShiftSpaceError
from .intlinalg import IntMatrix, cokernel, kernel
from .invariants import (
    KGroupsReport,
    bowen_franks,
    ck_oracle,
    dimension_group,
    k_groups,
)
from .pastsets import DEFAULT_MONOID_CAP
from .presentations import Presentation
from .repcheck import (
    DEFAULT_WORD_BUDGET,
    RelationReport,
    build_truncation,
    check_ck_relations,
    check_universal_relations,
)
from .tower import (
    DEFAULT_MAX_LEVEL,
    Tower,
    build_tower,
    filtration_M,
    matrix_A,
    matrix_B,
    matrix_I,
)

CACHE_ENV = "SHIFTCA_CACHE_DIR"
DUMP_SCHEMA = "shiftca-tower-v1"
DEFAULT_REPCHECK_DEPTH = 6


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the exit-code contract."""

    def error(self, message):
        raise InputFormatError(message)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "-i", "--input", required=True, help="presentation JSON file, or - for stdin"
    )
    common.add_argument(
        "-l",
        "--max-level",
        type=int,
        default=DEFAULT_MAX_LEVEL,
        help="deepest refinement level to try (default %(default)s)",
    )
    common.add_argument(
        "--monoid-cap",
        type=int,
        default=DEFAULT_MONOID_CAP,
        help="largest relation monoid to enumerate (default %(default)s)",
    )
    common.add_argument("--json", action="store_true", help="machine-readable report")
    common.add_argument(
        "--allow-partial",
        action="store_true",
        help="exit 0 even when only an approximate (unstabilized) result exists",
    )

    parser = _Parser(prog="shiftca", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("classes", parents=[common]).set_defaults(func=cmd_classes)
    sub.add_parser("kgroups", parents=[common]).set_defaults(func=cmd_kgroups)

    dg = sub.add_parser("dimension-group", parents=[common])
    dg.add_argument("--k-max", type=int, default=3, help="deepest filtration stage")
    dg.set_defaults(func=cmd_dimension_group)

    sub.add_parser("bf", parents=[common]).set_defaults(func=cmd_bf)

    chk = sub.add_parser("check", parents=[common])
    chk.add_argument(
        "--condition",
        required=True,
        choices=("I", "star", "aperiodic", "irreducible"),
        help="which verdict to compute",
    )
    chk.set_defaults(func=cmd_check)

    sub.add_parser("ideals", parents=[common]).set_defaults(func=cmd_ideals)

    rc = sub.add_parser("repcheck", parents=[common])
    rc.add_argument(
        "--depth",
        type=int,
        default=DEFAULT_REPCHECK_DEPTH,
        help="truncation depth N (default %(default)s)",
    )
    rc.add_argument(
        "--word-budget",
        type=int,
        default=DEFAULT_WORD_BUDGET,
        help="check all word pairs with |u|+|v| at most this (default %(default)s)",
    )
    rc.set_defaults(func=cmd_repcheck)

    sub.add_parser("oracle-ck", parents=[common]).set_defaults(func=cmd_oracle_ck)
    return parser


def _load(args) -> Presentation:
    if args.input == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.input, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputFormatError(f"cannot read {args.input}: {exc}")
    try:
        return Presentation.from_json(text)
    except ShiftSpaceError:
        raise
    except ValueError as exc:  # malformed JSON
        raise InputFormatError(f"invalid input: {exc}")


def _print_json(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _approx_exit(args, level: int) -> int:
    out = sys.stderr if args.json else sys.stdout
    print(f"APPROXIMATE (level {level})", file=out)
    return 0 if args.allow_partial else 2


# -- cache ------------------------------------------------------------------


def _cache_key(p: Presentation, max_level: int, monoid_cap: int) -> str:
    payload = json.dumps(
        {
            "presentation": p.to_dict(),
            "max_level": max_level,
            "monoid_cap": monoid_cap,
            "version": __version__,
            "schema": DUMP_SCHEMA,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _cache_load(cache_dir: str, key: str) -> Optional[dict]:
    path = os.path.join(cache_dir, key + ".json")
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(doc, dict) or doc.get("schema") != DUMP_SCHEMA:
        return None
    return doc


def _cache_store(cache_dir: str, key: str, doc: dict) -> None:
    # advisory: any filesystem trouble just means no cache entry
    try:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))
            os.replace(tmp, os.path.join(cache_dir, key + ".json"))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError:
        pass


def tower_dump(tw: Tower) -> dict:
    """JSON-ready dump of every built level (counts, pasts, matrices)."""
    alpha = tw.graph.alphabet
    top = tw.top_level
    levels = []
    for l in range(top + 1):
        lv = tw.levels[l]
        levels.append(
            {
                "level": l,
                "m": lv.m,
                "classes": [c.past.render(alpha) for c in lv.classes],
                "M": [list(filtration_M(tw, l, k)) for k in range(1, l + 1)],
                "I": matrix_I(tw, l).to_lists() if l < top else None,
                "sum_A": matrix_A(tw, l).to_lists() if l < top else None,
                "B": matrix_B(tw, l).to_lists() if 1 <= l < top else None,
            }
        )
    return {
        "schema": DUMP_SCHEMA,
        "stabilized_at": tw.stabilized_at,
        "top_level": top,
        "t_set_count": len(tw.tsets),
        "monoid_size": len(tw.monoid),
        "levels": levels,
    }


class _CacheHandle:
    def __init__(self, args, p: Presentation):
        self.dir = os.environ.get(CACHE_ENV) or None
        self.key = (
            _cache_key(p, args.max_level, args.monoid_cap) if self.dir else None
        )

    def load(self) -> Optional[dict]:
        if not self.dir:
            return None
        return _cache_load(self.dir, self.key)

    def store(self, doc: dict) -> None:
        if self.dir:
            _cache_store(self.dir, self.key, doc)


def _build_and_dump(args, p: Presentation, cache: _CacheHandle) -> tuple[Tower, dict]:
    tw = build_tower(p, max_level=args.max_level, monoid_cap=args.monoid_cap)
    doc = tower_dump(tw)
    cache.store(doc)
    return tw, doc


# -- commands ---------------------------------------------------------------


def cmd_classes(args) -> int:
    p = _load(args)
    cache = _CacheHandle(args, p)
    doc = cache.load()
    if doc is None:
        _, doc = _build_and_dump(args, p, cache)
    if args.json:
        _print_json(doc)
    else:
        print(f"{'level':>5}  {'m':>8}")
        for lv in doc["levels"]:
            print(f"{lv['level']:>5}  {lv['m']:>8}")
        l0 = doc["stabilized_at"]
        if l0 is None:
            print(f"not stabilized within {doc['top_level']} levels")
        else:
            print(f"stabilized at {l0}")
        final = doc["levels"][l0 if l0 is not None else doc["top_level"]]
        for i, past in enumerate(final["classes"]):
            shown = ", ".join(repr(w) for w in past[:8])
            if len(past) > 8:
                shown += f", ... ({len(past)} words)"
            print(f"  class {i}: {{{shown}}}")
    if doc["stabilized_at"] is None:
        return _approx_exit(args, doc["top_level"])
    return 0


def _kgroups_from_dump(doc: dict) -> Optional[tuple[KGroupsReport, Optional[int]]]:
    l0 = doc["stabilized_at"]
    if l0 is None:
        lvl = max(doc["top_level"] - 1, 1)
        exact = False
    else:
        lvl = max(l0, 1)
        exact = True
    if lvl >= doc["top_level"]:
        return None  # dump lacks the boundary matrix at this level
    b = doc["levels"][lvl]["B"]
    if b is None:
        return None
    # row conjugation by the stable permutation does not move the
    # invariant factors, so groups from the raw dump matrix match the
    # cold-run computation
    mat = IntMatrix.from_rows(b)
    return KGroupsReport(cokernel(mat), kernel(mat), exact=exact, level=lvl), l0


def cmd_kgroups(args) -> int:
    p = _load(args)
    cache = _CacheHandle(args, p)
    doc = cache.load()
    got = _kgroups_from_dump(doc) if doc is not None else None
    if got is not None:
        rep, l0 = got
    else:
        tw = build_tower(p, max_level=args.max_level, monoid_cap=args.monoid_cap)
        rep = k_groups(tw, allow_partial=True)
        l0 = tw.stabilized_at
        cache.store(tower_dump(tw))
    if args.json:
        _print_json(rep.to_json_dict())
    else:
        mode = "exact" if rep.exact else "approximate"
        shown = l0 if rep.exact else rep.level
        print(f"K0 = {rep.k0}, K1 = {rep.k1} ({mode}, level {shown})")
    if not rep.exact:
        return _approx_exit(args, rep.level)
    return 0


def cmd_dimension_group(args) -> int:
    p = _load(args)
    cache = _CacheHandle(args, p)
    tw = build_tower(p, max_level=args.max_level, monoid_cap=args.monoid_cap)
    rep = dimension_group(tw, k_max=args.k_max)  # NotStabilized -> exit 2
    cache.store(tower_dump(tw))
    if args.json:
        _print_json(rep.to_json_dict())
    else:
        for s in rep.systems:
            print(
                f"k={s.k}: level {s.level}, rank {s.rank}, "
                f"map {s.map.to_lists()}"
            )
    return 0


def cmd_bf(args) -> int:
    p = _load(args)
    rep = bowen_franks(p)
    if args.json:
        _print_json(rep.to_json_dict())
    else:
        print(f"Bowen-Franks group: {rep.group}")
    return 0


def cmd_check(args) -> int:
    p = _load(args)
    tw = build_tower(p, max_level=args.max_level, monoid_cap=args.monoid_cap)
    fn = {
        "I": condition_I,
        "star": condition_star,
        "aperiodic": aperiodic_past,
        "irreducible": irreducible_past,
    }[args.condition]
    verdict: Verdict = fn(tw)
    if args.json:
        _print_json(verdict.to_json_dict())
    else:
        print(str(verdict))
        if verdict.bound is None:
            print("method: exact")
        else:
            print(f"method: bounded search to depth {verdict.bound}")
        if verdict.certificate:
            print(
                "certificate: "
                + json.dumps(verdict.certificate, sort_keys=True)
            )
    return 0


def cmd_ideals(args) -> int:
    p = _load(args)
    tw = build_tower(p, max_level=args.max_level, monoid_cap=args.monoid_cap)
    rep = ideal_lattice(tw)  # NotStabilized -> exit 2
    if args.json:
        _print_json(rep.to_json_dict())
    else:
        print(f"{len(rep.elements)} ideals (level {rep.level})")
        for i, el in enumerate(rep.elements):
            print(f"  [{i}] classes {list(el)}")
        if rep.order:
            print("covers: " + ", ".join(f"{a}<{b}" for a, b in rep.order))
        print(f"reading: {rep.reading}")
    return 0


def cmd_repcheck(args) -> int:
    p = _load(args)
    rep = build_truncation(p, args.depth)
    rr = check_universal_relations(rep, word_budget=args.word_budget)
    checks = rr.checks
    skipped: tuple[str, ...] = ()
    if p.kind == "sft":
        ck = check_ck_relations(rep)
        checks = checks + ck.checks
        skipped = ck.skipped_symbols
    merged = RelationReport(
        depth=rr.depth,
        basis_size=rr.basis_size,
        checks=checks,
        skipped_symbols=skipped,
    )
    if args.json:
        _print_json(merged.to_json_dict())
    else:
        if merged.passed:
            print(
                f"all {len(merged.checks)} relation checks passed "
                f"(depth {merged.depth}, basis {merged.basis_size})"
            )
        else:
            bad = merged.failures
            print(f"{len(bad)} of {len(merged.checks)} relation checks FAILED")
            for c in bad[:10]:
                print(
                    f"  {c.relation} u={c.left!r} v={c.right!r} "
                    f"witness={c.witness}"
                )
        if skipped:
            print(f"skipped symbols (never occur): {list(skipped)}")
    return 0


def cmd_oracle_ck(args) -> int:
    p = _load(args)
    rep = ck_oracle(p)
    if args.json:
        _print_json(rep.to_json_dict())
    else:
        n = rep.collapsed.n_rows
        prim = "yes" if rep.primitive else "no"
        print(
            f"K0 = {rep.k0}, K1 = {rep.k1} "
            f"(collapsed {n}x{n}, primitive: {prim})"
        )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ShiftSpaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        return 0
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
