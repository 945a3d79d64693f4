"""Exact Young-diagram geometry on integer partitions.

A partition is a plain tuple of weakly decreasing positive integers; ``()``
is the empty partition.  Boxes carry matrix coordinates ``(row, col)``
starting at 1, in English notation, so the box in row ``i`` and column ``j``
has content ``j - i`` and anticontent ``i + j``.  All functions are pure and
all values immutable.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional


Partition = tuple[int, ...]
Box = tuple[int, int]


def check_partition(parts: Iterable[int]) -> Partition:
    """Validate and return `parts` as a canonical partition tuple.

    >>> check_partition([3, 1])
    (3, 1)
    >>> check_partition([])
    ()
    """
    t = tuple(parts)
    for i, p in enumerate(t):
        if type(p) is not int:
            raise ValueError(f"parts must be integers, got {p!r} in {t}")
        if p < 1:
            raise ValueError(f"parts must be positive, got {p} in {t}")
        if i + 1 < len(t) and t[i + 1] > p:
            raise ValueError(f"parts must weakly decrease, got {t}")
    return t


def box_in(lam: Partition, row: int, col: int) -> bool:
    """True iff the diagram of `lam` contains the box (row, col)."""
    return 1 <= row <= len(lam) and 1 <= col <= lam[row - 1]


def has_content(lam: Partition, q: int) -> bool:
    """True iff some box of `lam` has content q.

    The contents occurring in a nonempty diagram form the full interval
    [1 - len(lam), lam[0] - 1]: column 1 realizes the negatives, row 1 the
    nonnegatives.
    """
    return bool(lam) and 1 - len(lam) <= q <= lam[0] - 1


def staircase(k: int) -> Partition:
    """The staircase partition (k, k-1, ..., 1); k = 0 gives ().

    >>> staircase(3)
    (3, 2, 1)
    >>> staircase(0)
    ()
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    return tuple(range(k, 0, -1))


def contains(outer: Partition, inner: Partition) -> bool:
    """Diagram containment: every row of `inner` fits inside `outer`.

    >>> contains((4, 2, 1), (3, 2, 1))
    True
    >>> contains((2,), (2, 1))
    False
    """
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


def add_box(lam: Partition, q: int) -> Optional[Partition]:
    """Add the unique addable box of content q, or None if there is none.

    >>> add_box((), 0)
    (1,)
    >>> add_box((2, 1), 2)
    (3, 1)
    >>> add_box((2, 1), 1) is None
    True
    """
    # The next box of row i + 1 has content lam[i] - i, which strictly
    # decreases down the rows, so the first row at or below q decides.
    for i, part in enumerate(lam):
        c = part - i
        if c <= q:
            if c < q or (i and lam[i - 1] == part):
                return None
            return lam[:i] + (part + 1,) + lam[i + 1 :]
    return lam + (1,) if q == -len(lam) else None


def remove_box(lam: Partition, q: int) -> Optional[Partition]:
    """Remove the unique removable box of content q, or None if there is none.

    >>> remove_box((1,), 0)
    ()
    >>> remove_box((2, 1), 1)
    (1, 1)
    >>> remove_box((2, 1), 0) is None
    True
    """
    # The last box of row i + 1 has content lam[i] - i - 1, strictly
    # decreasing down the rows, so the first row at or below q decides.
    for i, part in enumerate(lam):
        c = part - i - 1
        if c <= q:
            if c < q or (i + 1 < len(lam) and lam[i + 1] == part):
                return None
            return lam[:i] + (part - 1,) + lam[i + 1 :] if part > 1 else lam[:i]
    return None


def addable_contents(lam: Partition) -> list[int]:
    """Contents of the addable corner boxes, in decreasing order."""
    out = []
    n = len(lam)
    for i in range(1, n + 2):
        cur = lam[i - 1] if i <= n else 0
        prev = lam[i - 2] if i >= 2 else None
        if prev is None or prev > cur:
            out.append(cur + 1 - i)
    return out


def removable_contents(lam: Partition) -> list[int]:
    """Contents of the removable corner boxes, in decreasing order."""
    out = []
    n = len(lam)
    for i in range(1, n + 1):
        nxt = lam[i] if i < n else 0
        if lam[i - 1] > nxt:
            out.append(lam[i - 1] - i)
    return out


def rim_boxes(lam: Partition) -> list[Box]:
    """All rim boxes, ordered by increasing content; one per content.

    >>> rim_boxes((2, 2))
    [(2, 1), (2, 2), (1, 2)]
    >>> rim_boxes(())
    []
    """
    out = []
    n = len(lam)
    for i in range(n, 0, -1):
        lo = max(1, lam[i] if i < n else 0)
        for j in range(lo, lam[i - 1] + 1):
            out.append((i, j))
    return out


@dataclass(frozen=True)
class RimHook:
    """A removable connected strip of rim boxes, one per content.

    `boxes` is ordered by increasing content; `height`/`width` count the
    distinct rows/columns met, so height + width = len(boxes) + 1.
    """

    boxes: tuple[Box, ...]
    height: int
    width: int

    @property
    def balanced(self) -> bool:
        return self.height == self.width


def rim_hook(lam: Partition, c1: int, c2: int) -> Optional[RimHook]:
    """The removable rim hook covering contents [c1, c2], or None.

    The rim boxes of contents c1..c2 run up and right from a first box to a
    last.  They come off the diagram exactly when no box lies below the first
    and none right of the last (Macdonald, *Symmetric Functions and Hall
    Polynomials*, I.1), so they meet the rows and columns between those two.

    >>> rim_hook((3, 3), 0, 2).boxes
    ((2, 2), (2, 3), (1, 3))
    >>> rim_hook((2, 2, 1), -1, 1) is None
    True
    """
    if c1 > c2:
        raise ValueError("need c1 <= c2")
    if not (has_content(lam, c1) and has_content(lam, c2)):
        return None
    rim = rim_boxes(lam)  # one box per content, from content 1 - len(lam) up
    first, last = c1 + len(lam) - 1, c2 + len(lam) - 1
    (i1, j1), (i2, j2) = rim[first], rim[last]
    if box_in(lam, i1 + 1, j1) or box_in(lam, i2, j2 + 1):
        return None
    return RimHook(boxes=tuple(rim[first : last + 1]), height=i1 - i2 + 1, width=j2 - j1 + 1)


def delete_hook(lam: Partition, hook: RimHook) -> Partition:
    """Delete `hook` from `lam`; ValueError unless it is the hook `rim_hook`
    gives for `lam` on the same contents."""
    (i1, j1), (i2, j2) = hook.boxes[0], hook.boxes[-1]
    if rim_hook(lam, j1 - i1, j2 - i2) != hook:
        raise ValueError("hook is not removable from this partition")
    rows = list(lam)
    # by decreasing content, so each row met ends before its leftmost hook box
    for (i, j) in reversed(hook.boxes):
        rows[i - 1] = j - 1
    return tuple(r for r in rows if r)


def minimal_balanced_hook_starting(lam: Partition, q: int) -> Optional[RimHook]:
    """The fewest-box removable balanced rim hook whose smallest content is q.

    Balanced means equal height and width.  Hooks starting at a fixed content
    are totally ordered by their end content, so the minimum is unique.
    """
    if not has_content(lam, q):
        return None
    for c2 in range(q, lam[0]):
        hook = rim_hook(lam, q, c2)
        if hook is not None and hook.balanced:
            return hook
    return None


def minimal_balanced_hook_ending(lam: Partition, q: int) -> Optional[RimHook]:
    """Mirror image: fewest-box removable balanced hook with largest content q."""
    if not has_content(lam, q):
        return None
    for c1 in range(q, -len(lam), -1):
        hook = rim_hook(lam, c1, q)
        if hook is not None and hook.balanced:
            return hook
    return None


def two_core(lam: Partition) -> tuple[Partition, int]:
    """The 2-core (what remains once no domino can be removed) and its index.

    On a 2-runner abacus the beads sit at b_i = lam_i + (n - 1 - i), with
    n = len(lam).  Removing a domino moves one bead two places down its
    runner, so the core pushes all beads down: with o odd beads and e = n - o
    even ones, its beta-set is {0, 2, ..., 2(e - 1)} together with
    {1, 3, ..., 2o - 1}.  Past the positions both runners fill, the longer
    runner's beads stand one gap apart, so the core is the staircase of
    index e - o - 1 when e > o and of index o - e otherwise.

    >>> two_core((3, 1))
    ((), 0)
    >>> two_core((3, 2, 1))
    ((3, 2, 1), 3)
    """
    n = len(lam)
    odd = sum((p + n - 1 - i) % 2 for i, p in enumerate(lam))
    even = n - odd
    k = max(even - odd - 1, odd - even)
    return staircase(k), k


def transpose(lam: Partition) -> Partition:
    """The conjugate diagram.

    >>> transpose((3, 1))
    (2, 1, 1)
    >>> transpose(())
    ()
    """
    if not lam:
        return ()
    out = [0] * lam[0]
    for p in lam:
        for j in range(p):
            out[j] += 1
    return tuple(out)


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n, in descending lexicographic order.

    >>> list(partitions_of(4))
    [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    """
    if n < 0:
        return
    if n == 0:
        yield ()
        return
    parts = [n]
    while True:
        yield tuple(parts)
        k = len(parts) - 1
        while k >= 0 and parts[k] == 1:
            k -= 1
        if k < 0:
            return
        v = parts[k] - 1
        rem = len(parts) - k - 1 + 1
        parts[k:] = [v]
        while rem >= v:
            parts.append(v)
            rem -= v
        if rem:
            parts.append(rem)


def enumerate_partitions(max_size: int) -> Iterator[Partition]:
    """Every partition of every n <= max_size, by size then descending lex.

    >>> list(enumerate_partitions(2))
    [(), (1,), (2,), (1, 1)]
    """
    for n in range(max_size + 1):
        yield from partitions_of(n)
