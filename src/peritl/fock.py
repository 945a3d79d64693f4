"""Two actions of the infinite Temperley-Lieb algebra at parameter zero on
integer linear combinations of partitions.

A vector is a dict mapping partition tuples to nonzero integers.  The plain
("xi-prime") action of the generator of index q adds a box of content q and
removes a box of content q-1.  The twisted ("xi") action sends each partition
to at most one partition, by a five-way case split on how the content-q
diagonal meets the border of the diagram.  The split reads two bits of the
Maya diagram (`classify_case`), bead or gap at positions q-1 and q:

  A - bead, gap: an addable q-box exists: add it;
  B - gap, bead: a removable q-box exists: kill the partition;
  C - otherwise, q < -len(lam) or q > lam_1: no box has content in
      {q-1, q, q+1}: kill the partition;
  D - gap, gap: the rim q-box has a box to its right but none below:
      delete the smallest removable balanced rim hook starting at q+1
      (zero if none);
  E - bead, bead: mirror of D: delete the smallest balanced hook ending
      at q-1.
"""
from __future__ import annotations

from typing import Iterable, Optional

from .partitions import (
    Partition,
    add_box,
    delete_hook,
    minimal_balanced_hook_ending,
    minimal_balanced_hook_starting,
    remove_box,
)

FockVector = dict[Partition, int]

REPRESENTATIONS = ("xi", "xi-prime")


def classify_case(lam: Partition, q: int) -> str:
    """Return the case tag "A".."E" for the pair (lam, q).

    The split reads the Maya diagram of lam: a bead at lam_i - i for each row
    i (from 1) and at every position below -len(lam), a gap elsewhere.  A box
    of content q is addable exactly when q - 1 holds a bead and q a gap, and
    removable exactly when q - 1 holds a gap and q a bead (James & Kerber,
    *The Representation Theory of the Symmetric Group*, 1981, ch. 2).  Past
    those, no box has a content in {q-1, q, q+1} when q < -len(lam) or
    q > lam_1 (case C); otherwise a gap at both is case D, a bead at both E.

    >>> classify_case((3, 1), 0)
    'A'
    >>> classify_case((2,), 0)
    'D'
    >>> classify_case((1, 1), 0)
    'E'
    """
    n = len(lam)
    beads = {part - i for i, part in enumerate(lam, 1)}
    left, right = (p < -n or p in beads for p in (q - 1, q))
    if left != right:
        return "A" if left else "B"
    if q < -n or q > (lam[0] if lam else 0):
        return "C"
    return "E" if left else "D"


def xi_on_partition(lam: Partition, q: int) -> Optional[Partition]:
    """Twisted action of the index-q generator on a single partition.

    Returns the image partition (always with coefficient one) or None for
    zero.

    >>> xi_on_partition((), 0)
    (1,)
    >>> xi_on_partition((3, 3), -1)
    (2, 1)
    >>> xi_on_partition((2, 2), 0) is None
    True
    """
    case = classify_case(lam, q)
    if case == "A":
        return add_box(lam, q)
    if case in ("B", "C"):
        return None
    if case == "D":
        hook = minimal_balanced_hook_starting(lam, q + 1)
    else:
        hook = minimal_balanced_hook_ending(lam, q - 1)
    if hook is None:
        return None
    return delete_hook(lam, hook)


def xi_prime_on_partition(lam: Partition, q: int) -> tuple[Partition, ...]:
    """Plain action on a single partition: add a q-box, remove a (q-1)-box.

    Returns the tuple of its zero, one or two image partitions, each with
    coefficient one, in the form `images` stores in a table.

    >>> xi_prime_on_partition((2, 1), 2)
    ((3, 1), (1, 1))
    >>> xi_prime_on_partition((), 0)
    ((1,),)
    """
    return tuple(mu for mu in (add_box(lam, q), remove_box(lam, q - 1)) if mu is not None)


def images(lam: Partition, q: int, rep: str = "xi", table: Optional[dict] = None) -> tuple:
    """The images of lam under the index-q generator of `rep`, one per term,
    as a run's image table holds them (a twisted zero is ()).

    `table`, a dict the caller owns for one computation, is read and filled
    here.  Under the key (rep, q) it holds a row, a dict mapping lam to its
    images; under None it holds the pool, which maps each partition the
    table stores (a row key or an image) and each twisted image (kappa,) to
    its one copy, so equal partitions and equal twisted images are one
    object per table.

    >>> images((2, 1), 2, "xi-prime")
    ((3, 1), (1, 1))
    """
    row = None
    if table is not None:
        row = table.get((rep, q))
        if row is None:
            row = table[rep, q] = {}
        elif (found := row.get(lam)) is not None:
            return found
    if rep == "xi":
        kappa = xi_on_partition(lam, q)
        found = () if kappa is None else (kappa,)
    else:
        found = xi_prime_on_partition(lam, q)
    if row is not None:
        pool = table.setdefault(None, {})
        found = tuple(pool.setdefault(mu, mu) for mu in found)
        if rep == "xi":
            found = pool.setdefault(found, found)
        row[pool.setdefault(lam, lam)] = found
    return found


def apply_word(
    vec: FockVector, word: Iterable[int], rep: str = "xi", table: Optional[dict] = None
) -> FockVector:
    """Act by a product of generators, rightmost generator first.

    The word (i_1, ..., i_r) acts as the operator composition
    T_{i_1} after ... after T_{i_r}, so the last index in the word is the
    first one applied to the vector.  Each generator acts on the vector as
    the linear extension of `xi_on_partition` (rep "xi") or
    `xi_prime_on_partition` (rep "xi-prime").

    `table`, when given, holds the single-partition images, read and filled
    as `images` does (one row lookup per letter, then one per term); without
    it every image is computed afresh.

    >>> apply_word({(): 1}, [0, 1, 0], "xi")
    {(1,): 1}
    >>> apply_word({(3, 1): 1}, [4, 4], "xi")
    {}
    """
    if rep not in REPRESENTATIONS:
        raise ValueError(f"unknown representation {rep!r}")
    cur = dict(vec)
    for q in reversed(list(word)):
        out: FockVector = {}
        row = None if table is None else table.get((rep, q))
        for lam, coeff in cur.items():
            if row is None or (terms := row.get(lam)) is None:
                terms = images(lam, q, rep, table)
            for kappa in terms:
                new = out.get(kappa, 0) + coeff
                if new:
                    out[kappa] = new
                else:
                    del out[kappa]
        if not out:
            return {}
        cur = out
    return cur


def support_bounds(lam: Partition) -> tuple[int, int]:
    """A window [qmin, qmax] outside which both generator actions vanish.

    Addable contents lie in [-len(lam), lam[0]] and the hook cases need an
    existing q-box, so the window is (-len(lam), lam[0]) for a nonempty
    partition and (0, 0) for the empty one.

    >>> support_bounds((3, 1))
    (-2, 3)
    >>> support_bounds(())
    (0, 0)
    """
    if not lam:
        return (0, 0)
    return (-len(lam), lam[0])


def tensor_rows(nu: Partition) -> list[tuple[int, Partition]]:
    """All pairs (q, image) with nonzero twisted action, by descending q.

    This is one full row of the box-tensor multiplicity matrix; the action
    vanishes outside `support_bounds`, so only those indices are tried.
    """
    qmin, qmax = support_bounds(nu)
    rows = []
    for q in range(qmax, qmin - 1, -1):
        image = xi_on_partition(nu, q)
        if image is not None:
            rows.append((q, image))
    return rows
