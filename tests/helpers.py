"""Independent brute-force oracles used to freeze expected values.

The partition oracles work on raw sets of (row, col) boxes, deliberately
sharing no code with the library's row-length representation.  The
normal-form oracle is an exhaustive search over the library's planar
diagrams, sharing no code with the insertion algorithm of `normalize`.  The
d-set search, the domino-stripping loop, the full-vector bottom sector, the
staircase-by-staircase cell index, the rescanning box-addition path and the
box-set hook deleter are the library's earlier algorithms, kept as
references for the direct constructions that replaced them.  The d-set
surgery classifier restates the rule that `verify` checks inline, and the
per-partition relation loop restates the relation laws that `verify` checks
as identities on weighted vectors.
"""
from __future__ import annotations

import os
from functools import lru_cache
from pathlib import Path

from hypothesis import strategies as st

import peritl
from peritl.fock import apply_word, support_bounds
from peritl.partitions import (
    Partition,
    RimHook,
    add_box,
    box_in,
    contains,
    delete_hook,
    enumerate_partitions,
    has_content,
    rim_boxes,
    rim_hook,
    staircase,
)
from peritl.strata import cell_index
from peritl.tl import IDENTITY, diagram_product, fcs_to_word, interval_diagram
from peritl.verify import VerifyReport
from peritl.weights import d_set, d_tilde

def child_env() -> dict:
    """The environment for a `python -m peritl` child process: the package the
    tests imported comes first on its path, installed or not."""
    src = str(Path(peritl.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


# Widest generator window the normal-form oracle searches: its table for a
# window of width w holds Catalan(w+1) diagrams (4862 at 8).
ORACLE_MAX_WIDTH = 8


@lru_cache(maxsize=None)
def boxes_of(lam: Partition) -> frozenset[tuple[int, int]]:
    return frozenset((i + 1, j + 1) for i, row in enumerate(lam) for j in range(row))


def is_diagram(boxes: frozenset[tuple[int, int]]) -> bool:
    """A box set is a Young diagram iff it is closed under moving up/left."""
    for (i, j) in boxes:
        if i > 1 and (i - 1, j) not in boxes:
            return False
        if j > 1 and (i, j - 1) not in boxes:
            return False
    return True


def partition_of_boxes(boxes: frozenset[tuple[int, int]]) -> Partition:
    rows: dict[int, int] = {}
    for (i, _) in boxes:
        rows[i] = rows.get(i, 0) + 1
    return tuple(rows[i] for i in sorted(rows))


@lru_cache(maxsize=None)
def oracle_addable(lam: Partition) -> dict[int, tuple[int, int]]:
    """Content -> box for every position whose addition leaves a diagram."""
    boxes = boxes_of(lam)
    out = {}
    for i in range(1, len(lam) + 2):
        for j in range(1, (lam[0] if lam else 0) + 2):
            if (i, j) not in boxes and is_diagram(boxes | {(i, j)}):
                out[j - i] = (i, j)
    return out


@lru_cache(maxsize=None)
def oracle_removable(lam: Partition) -> dict[int, tuple[int, int]]:
    boxes = boxes_of(lam)
    return {
        j - i: (i, j) for (i, j) in boxes if is_diagram(boxes - frozenset({(i, j)}))
    }


def _connected(cells: frozenset[tuple[int, int]]) -> bool:
    if not cells:
        return False
    todo = [next(iter(cells))]
    seen = {todo[0]}
    while todo:
        i, j = todo.pop()
        for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if nb in cells and nb not in seen:
                seen.add(nb)
                todo.append(nb)
    return seen == cells


@lru_cache(maxsize=None)
def oracle_rim_hooks(lam: Partition) -> tuple[frozenset[tuple[int, int]], ...]:
    """Every removable rim hook of lam, as a box set.

    A removable rim hook is the difference of lam and a contained partition
    when that difference is edge-connected with one box per content.
    """
    big = boxes_of(lam)
    out = []
    for mu in enumerate_partitions(sum(lam)):
        small = boxes_of(mu)
        if not small <= big or small == big:
            continue
        skew = big - small
        contents = sorted(j - i for (i, j) in skew)
        if len(set(contents)) != len(contents):
            continue
        if contents != list(range(contents[0], contents[-1] + 1)):
            continue
        if _connected(skew):
            out.append(skew)
    return tuple(out)


def oracle_min_balanced(lam: Partition, q: int, side: str):
    """Fewest-box balanced removable hook starting (or ending) at content q."""
    best = None
    for skew in oracle_rim_hooks(lam):
        contents = sorted(j - i for (i, j) in skew)
        if side == "start" and contents[0] != q:
            continue
        if side == "end" and contents[-1] != q:
            continue
        height = len({i for (i, _) in skew})
        width = len({j for (_, j) in skew})
        if height != width:
            continue
        if best is None or len(skew) < len(best):
            best = skew
    return best


def oracle_remove_boxes(lam: Partition, boxes) -> Partition | None:
    """Delete a set of boxes from the diagram; None unless a partition remains.

    Deletion is valid only when the removed boxes form a suffix of every
    affected row and the new row lengths still weakly decrease.
    """
    by_row: dict[int, list[int]] = {}
    for (i, j) in boxes:
        if not box_in(lam, i, j):
            return None
        by_row.setdefault(i, []).append(j)
    rows = list(lam)
    for i, cols in by_row.items():
        hi = max(cols)
        lo = min(cols)
        if hi != rows[i - 1] or len(cols) != hi - lo + 1 or len(set(cols)) != len(cols):
            return None
        rows[i - 1] = lo - 1
    while rows and rows[-1] == 0:
        rows.pop()
    for i in range(len(rows) - 1):
        if rows[i] < rows[i + 1]:
            return None
    if any(r < 0 for r in rows):
        return None
    return tuple(rows)


def oracle_rim_hook(lam: Partition, c1: int, c2: int) -> RimHook | None:
    """The rim boxes of contents c1..c2, kept when the box-set deleter takes
    them off; height and width count the distinct rows and columns."""
    if not (has_content(lam, c1) and has_content(lam, c2)):
        return None
    boxes = tuple(b for b in rim_boxes(lam) if c1 <= b[1] - b[0] <= c2)
    if len(boxes) != c2 - c1 + 1 or oracle_remove_boxes(lam, boxes) is None:
        return None
    return RimHook(
        boxes=boxes,
        height=len({i for (i, _) in boxes}),
        width=len({j for (_, j) in boxes}),
    )


def oracle_case(lam: Partition, q: int) -> str:
    """The case tag "A".."E" of (lam, q), from the raw case split on box sets:
    an addable q-box, a removable one, no box of content q-1, q or q+1, or
    the rim q-box with a box to its right (D) or below it (E)."""
    if q in oracle_addable(lam):
        return "A"
    if q in oracle_removable(lam):
        return "B"
    boxes = boxes_of(lam)
    if not {j - i for (i, j) in boxes} & {q - 1, q, q + 1}:
        return "C"
    rim = [(i, j) for (i, j) in boxes if j - i == q and (i + 1, j + 1) not in boxes]
    assert len(rim) == 1
    i, j = rim[0]
    right = (i, j + 1) in boxes
    below = (i + 1, j) in boxes
    assert right != below
    return "D" if right else "E"


def oracle_xi(lam: Partition, q: int) -> Partition | None:
    """Recompute the twisted action from the raw case split on box sets."""
    case = oracle_case(lam, q)
    if case == "A":
        return partition_of_boxes(boxes_of(lam) | {oracle_addable(lam)[q]})
    if case in ("B", "C"):
        return None
    if case == "D":
        skew = oracle_min_balanced(lam, q + 1, "start")
    else:
        skew = oracle_min_balanced(lam, q - 1, "end")
    if skew is None:
        return None
    return partition_of_boxes(boxes_of(lam) - skew)


@st.composite
def mid_partitions(draw, max_boxes: int = 200) -> Partition:
    """A partition of 30-max_boxes boxes, beyond the reach of exhaustive
    sweeps."""
    left = draw(st.integers(30, max_boxes))
    cap = draw(st.integers(1, left))
    parts = []
    while left:
        parts.append(draw(st.integers(1, min(cap, left))))
        left -= parts[-1]
    return tuple(sorted(parts, reverse=True))


def partition_count(n: int) -> int:
    """Number of partitions of n, via the independent two-variable recursion."""
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for maxpart in range(n + 1):
        table[0][maxpart] = 1
    for m in range(1, n + 1):
        for maxpart in range(1, n + 1):
            table[m][maxpart] = table[m][maxpart - 1] + (
                table[m - maxpart][min(maxpart, m - maxpart)] if maxpart <= m else 0
            )
    return table[n][n]


@lru_cache(maxsize=None)
def oracle_normal_forms(lo: int, hi: int) -> dict:
    """Map every fully commutative monomial diagram on generators lo..hi to
    its word, by exhaustive search; distinct words must give distinct,
    nonzero diagrams."""
    if hi - lo + 1 > ORACLE_MAX_WIDTH:
        raise ValueError(f"window {lo}..{hi} is wider than {ORACLE_MAX_WIDTH}")
    index: dict = {}

    def rec(word, diag, prev_a: int, prev_b: int) -> None:
        assert diag is not None and diag not in index, (word, index.get(diag))
        index[diag] = word
        for a in range(min(prev_a - 1, hi), lo - 1, -1):
            for b in range(min(prev_b - 1, hi), a - 1, -1):
                rec(word + ((a, b),), diagram_product(diag, interval_diagram(a, b)), a, b)

    rec((), IDENTITY, hi + 2, hi + 2)
    return index


def oracle_partition_from_d_set(subset, n: int) -> Partition:
    """Invert the d-set map by scanning partitions in canonical order inside
    a provable box: the top mark bounds the first row by max(n, max(S)+2)
    and the bottom mark sits in the last row, bounding the number of rows by
    first row - min(S) - 1."""
    target = set(subset)
    assert len(target) == n
    if n == 0:
        return ()
    max_cols = max(n, max(target) + 2)
    max_rows = max_cols - min(target) - 1
    for lam in enumerate_partitions(max_cols * max_rows):
        if not lam or lam[0] > max_cols or len(lam) > max_rows:
            continue
        if d_set(lam) == target and cell_index(lam) == n:
            return lam
    raise AssertionError(f"no partition with d-set {sorted(target)} at rank {n}")


def oracle_two_core(lam: Partition) -> tuple[Partition, int]:
    """Strip dominoes, largest start content first, until none remains."""
    cur = lam
    while True:
        hook = None
        for c in range(cur[0] - 2 if cur else -1, -len(cur) - 1, -1):
            hook = rim_hook(cur, c, c + 1)
            if hook is not None:
                break
        if hook is None:
            break
        cur = delete_hook(cur, hook)
    assert cur == staircase(len(cur)), cur
    return cur, len(cur)


def oracle_minimal_part(w, lam: Partition) -> Partition | None:
    """Evolve the whole vector under the monomial and read off its bottom
    sector, asserting that it is zero or a single unit term."""
    word = fcs_to_word(w)
    vec = apply_word({lam: 1}, word, "xi-prime")
    target = sum(lam) - len(word)
    terms = {mu: c for mu, c in vec.items() if sum(mu) == target}
    if not terms:
        return None
    assert len(terms) == 1 and set(terms.values()) == {1}, terms
    return next(iter(terms))


def oracle_cell_index(lam: Partition) -> int:
    """The largest k with staircase(k) inside lam, trying k = 1, 2, ..."""
    k = 0
    while contains(lam, staircase(k + 1)):
        k += 1
    return k


def oracle_box_addition_path(start: Partition, target: Partition) -> list:
    """Single-box additions from start to target, each time adding the box
    after the end of the first row of the current partition that is shorter
    than in target."""
    assert contains(target, start)
    path = []
    cur = start
    while cur != target:
        rows = len(target)
        step = None
        for i in range(1, rows + 1):
            have = cur[i - 1] if i <= len(cur) else 0
            if have < target[i - 1]:
                step = (i, have + 1)
                break
        i, j = step
        q = j - i
        nxt = add_box(cur, q)
        assert nxt is not None, (cur, q)
        path.append((cur, q))
        cur = nxt
    return path


def surgery_case(lam: Partition, q: int) -> tuple[str, int, int] | None:
    """The d-set surgery rule for adding the q-box to lam, as (case, old, new):
    the d-set should trade old for new.  None unless the box is addable, the
    cell index stays, and a marked box of content q - 1 (case i: q - 2 becomes
    q - 1) or else of content q + 1 (case ii: q becomes q - 1) exists."""
    mu = add_box(lam, q)
    if mu is None or cell_index(mu) != cell_index(lam):
        return None
    tilde = d_tilde(lam)
    if q - 1 in tilde:
        return "i", q - 2, q - 1
    if q + 1 in tilde:
        return "ii", q, q - 1
    return None


def oracle_relation_report(rep: str, max_size: int) -> VerifyReport:
    """Square-zero, both contractions and far commutation, checked one
    partition and one index at a time on every partition of at most
    `max_size` boxes, at every index of its support window widened by two:
    the report's checks and failure records, in the order a per-partition
    loop meets them."""
    run = VerifyReport(suite="relations", parameters={})
    table: dict = {}
    for lam in enumerate_partitions(max_size):
        qmin, qmax = support_bounds(lam)
        lo, hi = qmin - 2, qmax + 2
        # first[i] is generator i applied to lam; every law below starts from it
        first = {i: apply_word({lam: 1}, [i], rep, table) for i in range(lo, hi + 1)}
        for i in range(lo, hi + 1):
            run.check(
                apply_word(first[i], [i], rep, table) == {},
                law="square-zero", rep=rep, partition=list(lam), i=i,
            )
            for pm in (1, -1):
                run.check(
                    apply_word(first[i], [i, i + pm], rep, table) == first[i],
                    law="contraction", rep=rep, partition=list(lam), i=i, pm=pm,
                )
            for j in range(i + 2, hi + 1):
                run.check(
                    apply_word(first[j], [i], rep, table)
                    == apply_word(first[i], [j], rep, table),
                    law="far-commutation", rep=rep, partition=list(lam), i=i, j=j,
                )
    return run
