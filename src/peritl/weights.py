"""The marking dictionary from partitions to dominant weights.

Scanning a Young diagram bottom row upward, a diamond is placed in the
right-most box of a row whenever fewer diamonds have been placed so far than
that row is long.  The number of diamonds equals the cell index n of the
partition, the set of their contents shifted down by one (the d-set) is an
n-subset of the integers, and subtracting the staircase (n-1, n-2, ..., 0)
from the decreasingly sorted d-set yields a dominant weight for the rank-n
periplectic Lie superalgebra.  On each cell stratum the d-set map is a
bijection onto n-subsets; `partition_from_d_set` constructs its inverse
row by row.  The docstrings below prove these facts; `peritl.verify` sweeps
them, and no function here re-checks them at run time.
"""
from __future__ import annotations

from typing import Iterable, Optional

from .partitions import Box, Partition, transpose
from .strata import cell_index

DominantWeight = tuple[int, ...]


def marking(lam: Partition) -> tuple[Box, ...]:
    """Mark the diagram bottom-up: the right-most box of row i gets a diamond
    when fewer than lam[i] diamonds exist so far.  Returns the marked boxes,
    bottom row first; their contents j - i strictly increase, because the row
    index i strictly falls while the row length j weakly grows.

    >>> marking((2,))
    ((1, 2),)
    >>> marking((2, 2, 2))
    ((3, 2), (2, 2))
    >>> marking((4, 2, 1))
    ((3, 1), (2, 2), (1, 4))
    """
    boxes = []
    count = 0
    for i in range(len(lam), 0, -1):
        if count < lam[i - 1]:
            boxes.append((i, lam[i - 1]))
            count += 1
    return tuple(boxes)


def d_tilde(lam: Partition) -> set[int]:
    """Contents of the marked boxes.

    >>> sorted(d_tilde((1, 1, 1)))
    [-2]
    >>> sorted(d_tilde((3, 2, 2, 2)))
    [-2, -1, 2]
    """
    return {j - i for i, j in marking(lam)}


def d_set(lam: Partition) -> set[int]:
    """The marked contents, each shifted down by one.

    >>> sorted(d_set((1, 1, 1)))
    [-3]
    >>> sorted(d_set((2, 2, 1, 1)))
    [-4, -1]
    """
    return {j - i - 1 for i, j in marking(lam)}


def _decreasing_subset(subset: Iterable[int], n: int) -> list[int]:
    """The values of an n-subset of the integers, sorted decreasingly."""
    values = set(subset)
    for v in values:
        if type(v) is not int:
            raise ValueError(f"subset values must be integers, got {v!r}")
    if len(values) != n:
        raise ValueError(f"need exactly {n} distinct values, got {sorted(values)}")
    return sorted(values, reverse=True)


def weight_from_subset(subset: Iterable[int], n: int) -> DominantWeight:
    """Decode an n-subset of the integers as a dominant weight.

    Sorting the subset decreasingly as s_1 > ... > s_n, coordinate i is
    omega_i = s_i - (n - i).  The result is weakly decreasing, because
    omega_i - omega_{i+1} = s_i - s_{i+1} - 1 >= 0 for distinct integers.

    >>> weight_from_subset({0}, 1)
    (0,)
    >>> weight_from_subset({-4, -1}, 2)
    (-2, -4)
    """
    s = _decreasing_subset(subset, n)
    return tuple(s[i] - (n - i - 1) for i in range(n))


def dominant_weight(lam: Partition) -> tuple[int, DominantWeight]:
    """Rank and highest weight attached to a partition via its d-set.

    >>> dominant_weight((3, 2, 1))
    (3, (-1, -2, -3))
    >>> dominant_weight((1,))
    (1, (-1,))
    >>> dominant_weight((2, 2, 1, 1))
    (2, (-2, -4))
    """
    s = d_set(lam)
    return len(s), weight_from_subset(s, len(s))


def partition_from_d_set(subset: Iterable[int], n: int) -> Partition:
    """The unique partition of cell index n with the given d-set.

    Write the d-set decreasingly as d_n > ... > d_1, so that d_m is the
    shifted content of the m-th diamond of the bottom-up marking.  Every
    unmarked row above the m-th diamond and below the (m+1)-th holds exactly
    m boxes: at least m because the m-th marked row below it does, at most
    m because it gets no diamond once m are placed.  So the rows are built
    top-down for m = n, ..., 1: with r rows placed so far, the m-th marked
    row lies e rows further down and has length d_m + 2 + r + e.  When e > 0
    that length is m, so e = m - 2 - d_m - r; otherwise the row has length
    d_m + 2 + r, which is at least m.  Hence append max(0, m - 2 - d_m - r)
    rows of length m, then the marked row of length max(m, d_m + 2 + r).
    Every step is forced, so each n-subset has exactly this preimage.

    >>> partition_from_d_set({-3}, 1)
    (1, 1, 1)
    >>> partition_from_d_set({0}, 1)
    (2,)
    >>> partition_from_d_set({1}, 1)
    (3,)
    >>> partition_from_d_set({-4, -1}, 2)
    (2, 2, 1, 1)
    """
    target = _decreasing_subset(subset, n)
    rows: list[int] = []
    for m, d in zip(range(n, 0, -1), target):
        r = len(rows)
        rows += [m] * max(0, m - 2 - d - r)
        rows.append(max(m, d + 2 + r))
    return tuple(rows)


def closed_form_weights(lam: Partition) -> list[Optional[DominantWeight]]:
    """Closed formula for the weight of a partition, once per admissible cut.

    With n the cell index, an admissible cut is a k0 in 0..n with
    lam[k0] = n - k0 (rows past the end count as zero); the columns of the
    tail rows after the cut form a partition nu, and when nu has no repeated
    part the cut is generic and the weight is

        (lam_i - n - 1)           for i = 1..k0,
        (-nu_{n-i+1} - k0)        for i = k0+1..n.

    Returns one entry per admissible cut, in cut order: the weight, or None
    where the cut is not generic.  `peritl.verify` checks that a cut exists
    and that every generic cut gives `dominant_weight`.

    >>> closed_form_weights((2, 1))
    [(-1, -2), (-1, -2), (-1, -2)]
    >>> closed_form_weights((2, 2))
    [None, (-1, -1)]
    """
    n = cell_index(lam)
    results: list[Optional[DominantWeight]] = []
    for k0 in range(n + 1):
        row = lam[k0] if k0 < len(lam) else 0
        if row != n - k0:
            continue
        nu = transpose(lam[k0:])
        if len(set(nu)) != len(nu):
            results.append(None)
            continue
        padded = nu + (0,) * (n - k0 - len(nu))
        omega = tuple(lam[i - 1] - n - 1 for i in range(1, k0 + 1)) + tuple(
            -padded[n - i] - k0 for i in range(k0 + 1, n + 1)
        )
        results.append(omega)
    return results
