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


def xi_prime_on_partition(lam: Partition, q: int) -> FockVector:
    """Plain action on a single partition: add a q-box, remove a (q-1)-box.

    Zero, one, or two terms, each with coefficient one.

    >>> sorted(xi_prime_on_partition((2, 1), 2))
    [(1, 1), (3, 1)]
    >>> xi_prime_on_partition((), 0)
    {(1,): 1}
    """
    out: FockVector = {}
    up = add_box(lam, q)
    if up is not None:
        out[up] = 1
    down = remove_box(lam, q - 1)
    if down is not None:
        out[down] = out.get(down, 0) + 1
    return out


def apply_word(
    vec: FockVector, word: Iterable[int], rep: str = "xi", table: Optional[dict] = None
) -> FockVector:
    """Act by a product of generators, rightmost generator first.

    The word (i_1, ..., i_r) acts as the operator composition
    T_{i_1} after ... after T_{i_r}, so the last index in the word is the
    first one applied to the vector.  Each generator acts on the vector as
    the linear extension of `xi_on_partition` (rep "xi") or
    `xi_prime_on_partition` (rep "xi-prime").

    `table`, when given, is a dict owned by the caller for one computation:
    the image of each partition under each generator is read from it under
    the key (rep, lam, q), and computed and stored as a tuple of partitions
    on first use.  Without it every image is computed afresh.

    >>> apply_word({(): 1}, [0, 1, 0], "xi")
    {(1,): 1}
    >>> apply_word({(3, 1): 1}, [4, 4], "xi")
    {}
    """
    if rep not in REPRESENTATIONS:
        raise ValueError(f"unknown representation {rep!r}")
    twisted = rep == "xi"
    cur = dict(vec)
    for q in reversed(list(word)):
        out: FockVector = {}
        for lam, coeff in cur.items():
            if table is None or (images := table.get((rep, lam, q))) is None:
                if twisted:
                    kappa = xi_on_partition(lam, q)
                    images = () if kappa is None else (kappa,)
                else:
                    images = xi_prime_on_partition(lam, q)
                if table is not None:
                    table[rep, lam, q] = images = tuple(images)
            for kappa in images:
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

    This is one full row of the box-tensor multiplicity matrix.
    """
    qmin, qmax = support_bounds(nu)
    rows = []
    for q in range(qmax + 2, qmin - 3, -1):
        image = xi_on_partition(nu, q)
        if image is None:
            continue
        if q < qmin or q > qmax:
            raise RuntimeError(
                f"action of index {q} outside window {(qmin, qmax)} on {nu}"
            )
        rows.append((q, image))
    return rows


def vector_key(lam: Partition) -> tuple[int, tuple[int, ...]]:
    """Canonical sort key: size ascending, then descending lex on parts."""
    return (sum(lam), tuple(-p for p in lam))


def vector_to_json(vec: FockVector) -> list[dict]:
    """Serialize a vector in canonical term order."""
    return [
        {"partition": list(lam), "coeff": vec[lam]}
        for lam in sorted(vec, key=vector_key)
    ]


def vector_from_json(data) -> FockVector:
    """Parse the serialization produced by `vector_to_json`."""
    from .partitions import check_partition

    if not isinstance(data, list):
        raise ValueError(f"a vector is a JSON list of terms, not {type(data).__name__}")
    vec: FockVector = {}
    for term in data:
        lam = check_partition(term["partition"])
        coeff = term["coeff"]
        if type(coeff) is not int:
            raise ValueError(f"coefficients must be integers, got {coeff!r}")
        if lam in vec:
            raise ValueError(f"duplicate partition {lam} in vector")
        if coeff:
            vec[lam] = coeff
    return vec
