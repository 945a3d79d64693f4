"""Stratification of partitions by staircase containment.

The k-th ideal consists of the partitions containing the staircase
(k, k-1, ..., 1).  The ideals shrink as k grows, so membership is the
threshold k <= cell index, the largest such k, read off the rows in one
pass; the block index is the size of the 2-core staircase.  Label sets for
tensor powers and the summand predicates live here too.
"""
from __future__ import annotations

from .partitions import Partition, partitions_of, two_core


def cell_index(lam: Partition) -> int:
    """The unique k with staircase(k) inside lam but staircase(k+1) not.

    Rows counted from 0, staircase(k) fits iff k <= len(lam) and k <= lam[i] + i
    for every i (rows i >= k pass anyway), so k is the least of these bounds.

    >>> cell_index(())
    0
    >>> cell_index((2,))
    1
    >>> cell_index((3, 2, 2, 2))
    3
    """
    k = len(lam)
    for i, part in enumerate(lam):
        if part + i < k:
            k = part + i
    return k


def block_index(lam: Partition) -> int:
    """Index of the staircase left after stripping all dominoes."""
    return two_core(lam)[1]


def in_ideal(lam: Partition, k: int) -> bool:
    """Membership in the k-th ideal: staircase(k) fits inside lam.

    >>> in_ideal((1,), 1)
    True
    >>> in_ideal((2,), 2)
    False
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    return k <= cell_index(lam)


def quasi_order_compare(lam: Partition, mu: Partition) -> str:
    """Compare cell indices; "Equal" means same cell, not same partition.

    >>> quasi_order_compare((), (1, 1))
    'Less'
    >>> quasi_order_compare((2,), (1,))
    'Equal'
    """
    a, b = cell_index(lam), cell_index(mu)
    return "Less" if a < b else "Greater" if a > b else "Equal"


def j_set(r: int) -> set[int]:
    """{r - 2i | 0 <= i <= r/2}, with {0} for r = 0.

    >>> sorted(j_set(5)), sorted(j_set(4))
    ([1, 3, 5], [0, 2, 4])
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    if r == 0:
        return {0}
    return {r - 2 * i for i in range(r // 2 + 1)}


def j_zero_set(r: int) -> set[int]:
    """{r - 2i | 0 <= i < r/2}, with {0} for r = 0.

    >>> sorted(j_zero_set(5)), sorted(j_zero_set(4))
    ([1, 3, 5], [2, 4])
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    if r == 0:
        return {0}
    return {r - 2 * i for i in range((r + 1) // 2)}


def summand_labels(n: int, r: int) -> list[tuple[Partition, bool, bool]]:
    """Label table for the r-th tensor power at rank n.

    Lists every partition whose size lies in j_zero_set(r), with two flags:
    whether it labels a summand at rank n (cell index at most n) and whether
    that summand is projective (cell index exactly n).

    >>> summand_labels(1, 1)
    [((1,), True, True)]
    """
    if n < 1:
        raise ValueError("n must be positive")
    out = []
    for j in sorted(j_zero_set(r)):
        for lam in partitions_of(j):
            k = cell_index(lam)
            appears = k <= n
            out.append((lam, appears, appears and k == n))
    return out

