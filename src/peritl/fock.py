"""Two actions of the infinite Temperley-Lieb algebra at parameter zero on
integer linear combinations of partitions.

A vector is a dict mapping partition tuples to nonzero integers.  The plain
("xi-prime") action of the generator of index q adds a box of content q and
removes a box of content q-1.  The twisted ("xi") action sends each partition
to at most one partition, by a five-way case split on how the content-q
diagonal meets the border of the diagram:

  A - an addable q-box exists: add it;
  B - a removable q-box exists: kill the partition;
  C - no box has content in {q-1, q, q+1}: kill the partition;
  D - the rim q-box has a box to its right but none below: delete the
      smallest removable balanced rim hook starting at q+1 (zero if none);
  E - mirror of D: delete the smallest balanced hook ending at q-1.
"""
from __future__ import annotations

from typing import Iterable, Optional

from .partitions import (
    Partition,
    add_box,
    box_in,
    has_content,
    delete_hook,
    minimal_balanced_hook_ending,
    minimal_balanced_hook_starting,
    remove_box,
    rim_box,
)

FockVector = dict[Partition, int]

CASE_TAGS = ("A", "B", "C", "D", "E")
REPRESENTATIONS = ("xi", "xi-prime")


def classify_case(lam: Partition, q: int) -> str:
    """Return the case tag "A".."E" for the pair (lam, q).

    The five predicates are computed independently and exactly one must
    hold; anything else is a falsification of the case analysis and raises.

    >>> classify_case((3, 1), 0)
    'A'
    >>> classify_case((2,), 0)
    'D'
    >>> classify_case((1, 1), 0)
    'E'
    """
    a = add_box(lam, q) is not None
    b = remove_box(lam, q) is not None
    c = not a and not (
        has_content(lam, q - 1) or has_content(lam, q) or has_content(lam, q + 1)
    )
    d = e = False
    box = rim_box(lam, q)
    if box is not None:
        i, j = box
        right = box_in(lam, i, j + 1)
        below = box_in(lam, i + 1, j)
        d = right and not below
        e = below and not right
    if a + b + c + d + e != 1:
        tags = [t for t, flag in zip(CASE_TAGS, (a, b, c, d, e)) if flag]
        raise RuntimeError(
            f"case split failed for lam={lam}, q={q}: matched {tags or 'nothing'}"
        )
    return "A" if a else "B" if b else "C" if c else "D" if d else "E"


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


def xi_apply(vec: FockVector, q: int) -> FockVector:
    """Linear extension of the twisted generator action to a vector."""
    out: FockVector = {}
    for lam, coeff in vec.items():
        kappa = xi_on_partition(lam, q)
        if kappa is not None:
            new = out.get(kappa, 0) + coeff
            if new:
                out[kappa] = new
            else:
                del out[kappa]
    return out


def xi_prime_apply(vec: FockVector, q: int) -> FockVector:
    """Linear extension of the plain generator action to a vector."""
    out: FockVector = {}
    for lam, coeff in vec.items():
        for kappa in xi_prime_on_partition(lam, q):
            new = out.get(kappa, 0) + coeff
            if new:
                out[kappa] = new
            else:
                del out[kappa]
    return out


def apply_word(vec: FockVector, word: Iterable[int], rep: str = "xi") -> FockVector:
    """Act by a product of generators, rightmost generator first.

    The word (i_1, ..., i_r) acts as the operator composition
    T_{i_1} after ... after T_{i_r}, so the last index in the word is the
    first one applied to the vector.

    >>> apply_word({(): 1}, [0, 1, 0], "xi")
    {(1,): 1}
    >>> apply_word({(3, 1): 1}, [4, 4], "xi")
    {}
    """
    if rep not in REPRESENTATIONS:
        raise ValueError(f"unknown representation {rep!r}")
    step = xi_apply if rep == "xi" else xi_prime_apply
    cur = dict(vec)
    for q in reversed(list(word)):
        cur = step(cur, q)
        if not cur:
            return {}
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


def tensor_block_multiplicity(nu: Partition, kappa: Partition, q: int) -> int:
    """Multiplicity of kappa in the index-q block of the box tensor of nu.

    Equals 1 exactly when the twisted generator action sends nu to kappa.

    >>> tensor_block_multiplicity((3, 3), (2, 1), -1)
    1
    >>> tensor_block_multiplicity((2, 2), (1,), 0)
    0
    """
    return 1 if xi_on_partition(nu, q) == kappa else 0


def tensor_multiplicity(nu: Partition, kappa: Partition) -> int:
    """Total multiplicity of kappa in the box tensor of nu, summed over q.

    The sum runs over the support window plus a guard band of two on each
    side, asserting that the action really vanishes on the band.

    >>> tensor_multiplicity((1,), (2,))
    1
    >>> tensor_multiplicity((1,), (1, 1))
    1
    """
    qmin, qmax = support_bounds(nu)
    total = 0
    for q in range(qmin - 2, qmax + 3):
        image = xi_on_partition(nu, q)
        if q < qmin or q > qmax:
            if image is not None:
                raise RuntimeError(
                    f"action of index {q} outside window {(qmin, qmax)} on {nu}"
                )
            continue
        if image == kappa:
            total += 1
    return total


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
