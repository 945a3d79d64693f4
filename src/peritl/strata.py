"""Stratification of partitions by staircase containment.

The k-th ideal consists of the partitions containing the staircase
(k, k-1, ..., 1); the cell index of a partition is the largest such k, and
the block index is the size of its 2-core staircase.  Label sets for tensor
powers and the summand predicates live here too.
"""
from __future__ import annotations

from dataclasses import dataclass

from .fock import support_bounds, xi_on_partition
from .partitions import (
    Partition,
    add_box,
    contains,
    enumerate_partitions,
    partitions_of,
    staircase,
    two_core,
)


def cell_index(lam: Partition) -> int:
    """The unique k with staircase(k) inside lam but staircase(k+1) not.

    >>> cell_index(())
    0
    >>> cell_index((2,))
    1
    >>> cell_index((3, 2, 2, 2))
    3
    """
    k = 0
    while contains(lam, staircase(k + 1)):
        k += 1
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
    return contains(lam, staircase(k))


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


def ideal_closure_check(k: int, max_size: int) -> dict:
    """Sweep the k-th ideal up to max_size for closure under the twisted action.

    Violations are collected, not raised; the expected count is zero.
    """
    checked = 0
    violations = []
    for lam in enumerate_partitions(max_size):
        if not in_ideal(lam, k):
            continue
        qmin, qmax = support_bounds(lam)
        for q in range(qmin - 2, qmax + 3):
            kappa = xi_on_partition(lam, q)
            checked += 1
            if kappa is not None and not in_ideal(kappa, k):
                violations.append(
                    {"partition": list(lam), "q": q, "image": list(kappa)}
                )
    return {"k": k, "max_size": max_size, "checked": checked, "violations": violations}


def box_addition_path(start: Partition, target: Partition) -> list[tuple[Partition, int]]:
    """A chain of single-box additions from start to target.

    Returns the list of (partition, content) steps, where each step adds the
    box of the recorded content to the recorded partition; applying them in
    order reaches target.  Raises if start does not fit inside target.
    """
    if not contains(target, start):
        raise ValueError(f"{start} is not contained in {target}")
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
        if nxt is None:
            raise RuntimeError(f"no addable box of content {q} on {cur}")
        path.append((cur, q))
        cur = nxt
    return path


@dataclass(frozen=True)
class StratumReport:
    """Cell and block indices of one partition plus queried ideal flags."""

    partition: Partition
    cell: int
    block: int
    ideals: dict[int, bool]

    def to_json_dict(self) -> dict:
        return {
            "partition": list(self.partition),
            "cell": self.cell,
            "block": self.block,
            "ideals": {str(k): v for k, v in sorted(self.ideals.items())},
        }


def stratum_report(lam: Partition, ideal_ks=None) -> StratumReport:
    """Assemble the stratification data of one partition.

    When no ideal indices are supplied, membership is reported for
    0..cell+1, ending at the first non-member.
    """
    cell = cell_index(lam)
    if ideal_ks is None:
        ideal_ks = range(cell + 2)
    return StratumReport(
        partition=lam,
        cell=cell,
        block=block_index(lam),
        ideals={k: in_ideal(lam, k) for k in ideal_ks},
    )
