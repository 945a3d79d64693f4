"""The infinite Temperley-Lieb algebra at parameter zero.

Monomials are planar matchings between two copies of the integers with
finitely many non-identity strands.  Because the numbers of lower and upper
arcs agree and the through strands of a planar matching are forced to pair
the leftover points in order, a nonzero diagram is completely determined by
its lower and upper arc sets; the zero element (a closed loop was produced,
and the loop parameter is zero) is represented by None.

Normal forms are fully commutative words: sequences of integer intervals
[a_1,b_1]...[a_r,b_r] with strictly decreasing starts and ends, encoding the
generator word (a_1, a_1+1, ..., b_1, a_2, ..., b_r).  Distinct such words
give distinct diagrams (Jones 1983), and at parameter zero no relation
produces a sum, so a product of generators is zero or exactly one of them.
`normalize` therefore needs no search: it inserts the letters one at a time.
"""
from __future__ import annotations

from bisect import bisect
from typing import Iterable, Optional

from .fock import FockVector, apply_word
from .partitions import Partition, remove_box

FcsWord = tuple[tuple[int, int], ...]
TLElement = dict[FcsWord, int]


# ---------------------------------------------------------------------------
# diagrams


class TLDiagram:
    """A nonzero planar monomial: lower and upper arc sets, identity outside.

    Arcs are pairs (i, j) with i < j of matched points on one boundary row.
    Points strictly between the endpoints of an arc must themselves be arc
    endpoints (otherwise a through strand would have to cross the arc), arcs
    on one row never interleave, and both rows carry the same number of arcs.
    """

    __slots__ = ("bottom_arcs", "top_arcs")

    def __init__(self, bottom_arcs: frozenset, top_arcs: frozenset):
        for arcs in (bottom_arcs, top_arcs):
            _check_arc_side(arcs)
        if len(bottom_arcs) != len(top_arcs):
            raise ValueError("lower and upper rows must carry equally many arcs")
        object.__setattr__(self, "bottom_arcs", bottom_arcs)
        object.__setattr__(self, "top_arcs", top_arcs)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"TLDiagram is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not TLDiagram:
            return NotImplemented
        return self.bottom_arcs == other.bottom_arcs and self.top_arcs == other.top_arcs

    def __hash__(self):
        return hash((self.bottom_arcs, self.top_arcs))

    def __repr__(self):
        return f"TLDiagram(bottom_arcs={self.bottom_arcs!r}, top_arcs={self.top_arcs!r})"


def _partners(arcs: frozenset[tuple[int, int]]) -> dict[int, int]:
    """Each arc end of one row, mapped to the other end of its arc."""
    ends: dict[int, int] = {}
    for i, j in arcs:
        ends[i] = j
        ends[j] = i
    return ends


def _check_arc_side(arcs: frozenset[tuple[int, int]]) -> None:
    """One pass over the sorted arc ends with a stack of open arcs: each
    right end closes the innermost open arc, and while an arc is open the
    ends are consecutive integers."""
    for i, j in arcs:
        if i >= j:
            raise ValueError(f"arc endpoints must satisfy i < j, got {(i, j)}")
    ends = _partners(arcs)
    if len(ends) < 2 * len(arcs):
        raise ValueError(f"two arcs of {sorted(arcs)} share an endpoint")
    open_ends: list[int] = []  # right ends of the open arcs, innermost last
    prev = 0
    for p in sorted(ends):
        if open_ends and p != prev + 1:
            raise ValueError(f"point {prev + 1} under the arc ending at {open_ends[-1]} is unmatched")
        if ends[p] > p:
            open_ends.append(ends[p])
        elif open_ends.pop() != p:
            raise ValueError(f"arc {(ends[p], p)} crosses another arc")
        prev = p


IDENTITY = TLDiagram(frozenset(), frozenset())


def _through_strands(lower: frozenset, upper: frozenset):
    """The through strands from the row with arcs `lower` to the row with
    arcs `upper`, as a map on free points: a free point keeps its rank among
    the free points of its row, so it is read off the sorted arc ends."""
    below = sorted(p for arc in lower for p in arc)
    above = sorted(p for arc in upper for p in arc)
    # the free point of rank r in the upper row is r + c, where c counts the
    # ends e of that row with e - (its ends before e) <= r
    shifts = [e - c for c, e in enumerate(above)]

    def far_end(x: int) -> int:
        rank = x - bisect(below, x)
        return rank + bisect(shifts, rank)

    return far_end


def _times_generator(d: TLDiagram, q: int) -> Optional[TLDiagram]:
    """d times the index-q generator stacked below it, or None.

    The generator's upper arc joins the lower points q and q+1 of d, and its
    lower arc (q, q+1) joins the product's lower row.  With a and b the
    partners of q and q+1 in d's lower row: a = q+1 closes a loop, which
    kills the product (the loop parameter is zero); two free points join
    their through strands into an upper arc; two arc ends join their arcs
    into one; an arc end and a free point drop the arc, whose far end takes
    over the free point's through strand with the same rank among the free
    points.
    """
    ends = _partners(d.bottom_arcs)
    a, b = ends.get(q), ends.get(q + 1)
    if a == q + 1:
        return None
    bottom = {arc for arc in d.bottom_arcs if q not in arc and q + 1 not in arc}
    bottom.add((q, q + 1))
    top = d.top_arcs
    if a is None and b is None:
        far = _through_strands(d.bottom_arcs, d.top_arcs)
        top = top | {(far(q), far(q + 1))}
    elif a is not None and b is not None:
        bottom.add((min(a, b), max(a, b)))
    return TLDiagram(frozenset(bottom), top)


def word_to_diagram(word: Iterable[int], prefixes: Optional[dict] = None) -> Optional[TLDiagram]:
    """Left-to-right product of generator diagrams, each stacked below the
    product so far; the empty word is the identity.

    `prefixes`, when given, is a dict from letter tuples to diagrams that
    holds every prefix of each word it holds.  The product then starts from
    the longest prefix of `word` stored there and stores each longer prefix,
    up to the first zero one.  The result is the same with or without it.

    >>> word_to_diagram([1, 1]) is None
    True
    >>> word_to_diagram([0, 2]) == word_to_diagram([2, 0])
    True
    """
    word, n, d = tuple(word), 0, IDENTITY
    while prefixes is not None and n < len(word) and word[: n + 1] in prefixes:
        n += 1
        d = prefixes[word[:n]]
    for k in range(n, len(word)):
        if d is None:
            break
        d = _times_generator(d, word[k])
        if prefixes is not None:
            prefixes[word[: k + 1]] = d
    return d


# ---------------------------------------------------------------------------
# fully commutative words


def check_fcs_word(intervals: Iterable[Iterable[int]]) -> FcsWord:
    """Validate interval data as a fully commutative word.

    >>> check_fcs_word([[1, 3], [0, 1]])
    ((1, 3), (0, 1))
    """
    w = tuple((a, b) for (a, b) in intervals)
    for a, b in w:
        if type(a) is not int or type(b) is not int:
            raise ValueError(f"interval ends must be integers, got ({a!r}, {b!r})")
        if a > b:
            raise ValueError(f"interval ({a}, {b}) has a > b")
    for j in range(len(w) - 1):
        if not (w[j][0] > w[j + 1][0] and w[j][1] > w[j + 1][1]):
            raise ValueError(f"interval starts and ends must strictly decrease: {w}")
    return w


def fcs_to_word(w: FcsWord) -> tuple[int, ...]:
    """Expand a fully commutative word into its generator sequence.

    >>> fcs_to_word(((1, 3), (0, 1)))
    (1, 2, 3, 0, 1)
    """
    w = check_fcs_word(w)
    out: list[int] = []
    for a, b in w:
        out.extend(range(a, b + 1))
    return tuple(out)


def fcs_length(w: FcsWord) -> int:
    return sum(b - a + 1 for a, b in w)


def fcs_words_in_range(lo: int, hi: int, max_len: Optional[int] = None):
    """Yield every fully commutative word on the generators lo..hi.

    Optionally restricted to total length at most max_len.  The identity
    word () comes first; there are Catalan(hi - lo + 2) words in total.
    """

    def rec(prefix: FcsWord, prev_a: int, prev_b: int, used: int):
        yield prefix
        for a in range(min(prev_a - 1, hi), lo - 1, -1):
            for b in range(min(prev_b - 1, hi), a - 1, -1):
                step = b - a + 1
                if max_len is not None and used + step > max_len:
                    continue
                yield from rec(prefix + ((a, b),), a, b, used + step)

    yield from rec((), hi + 2, hi + 2, 0)


def _reduce(word: list[int]) -> Optional[list[int]]:
    """Insert the letters of `word` by the rules of `normalize`; None for zero.
    The last q, q-1 and q+1 are read off their positions in `cur`: by the
    invariant, q-1 and q+1 each occur at most once after the last q."""
    cur: list[int] = []
    at: dict[int, list[int]] = {}  # letter -> its positions in cur, increasing

    def last(x: int) -> int:
        return at[x][-1] if at.get(x) else -1

    todo = word[::-1]
    while todo:
        q = todo.pop()
        p = last(q)
        if p >= 0:
            after = [s for s in (last(q - 1), last(q + 1)) if s > p]
            if not after:
                return None
            if len(after) == 1:
                todo.extend(reversed(cur[after[0] + 1 :]))
                for x in cur[after[0] :]:
                    at[x].pop()
                del cur[after[0] :]
                continue
        at.setdefault(q, []).append(len(cur))
        cur.append(q)
    return cur


def _intervals(cur: list[int]) -> list[tuple[int, int]]:
    """Intervals of a reduced fully commutative word: taking each time the
    largest letter x with first(x) < first(x - 1), where first(y) is the
    first position of a letter y not yet taken, lists the normal form in
    order, cut into runs x, x+1, ...

    - That x has no equal or adjacent letter before it: were first(x + 1) <
      first(x), then x + 1 would qualify too, and x would not be the largest.
    - Taking x moves first(x) alone.  x does not qualify again, as the next
      x has an x - 1 before it, not yet taken; x + 1 qualifies if any is
      left, as the next x has an x + 1 before it, and is taken next.
    - So the letters that qualify at the start open the runs, largest
      first, and each run goes on while its next letter is left."""
    first: dict[int, int] = {}
    left: dict[int, int] = {}  # letter -> its occurrences not yet taken
    for k, x in enumerate(cur):
        first.setdefault(x, k)
        left[x] = left.get(x, 0) + 1
    out: list[tuple[int, int]] = []
    for a in sorted((x for x in first if first[x] < first.get(x - 1, len(cur))), reverse=True):
        b = a
        left[a] -= 1
        while left.get(b + 1):
            b += 1
            left[b] -= 1
        out.append((a, b))
    return out


def normalize(word: Iterable[int]) -> Optional[FcsWord]:
    """Normal form of a generator word: None for zero, else the unique
    fully commutative word with the same diagram.

    The letters are multiplied left to right into a word `cur` in which
    consecutive occurrences of any letter q have both q-1 and q+1 between
    them: in type A, the reduced fully commutative words (Stembridge 1996).
    With p the last position of q in `cur`, multiplying by q:

    - if q does not occur, append q;
    - if neither q-1 nor q+1 occurs after p, everything after p commutes
      with q and e_q e_q = 0: the product is zero;
    - if both occur after p, append q;
    - if exactly one occurs after p, at s (and only there), everything else
      after p commutes with q and e_q e_{q+-1} e_q = e_q: cut `cur` back to
      cur[:s] and insert cur[s+1:] again.

    The cases are exhaustive and keep the invariant; as no relation at
    parameter zero produces a sum, `cur` stays equal to the product, and
    each cut drops two letters for good, so the loop ends after
    polynomially many steps.  The intervals are then read off greedily.
    No diagram is built: the `fcs-basis` suite of `verify` checks the zero
    verdict and the normal form against the diagrams of its words.

    >>> normalize([0, 1, 0])
    ((0, 0),)
    >>> normalize([3, 3]) is None
    True
    >>> normalize([1, 2, 3, 0, 1])
    ((1, 3), (0, 1))
    """
    cur = _reduce([int(q) for q in word])
    return None if cur is None else tuple(_intervals(cur))


# ---------------------------------------------------------------------------
# element arithmetic


def element_multiply(x: TLElement, y: TLElement) -> TLElement:
    """Bilinear product of integer combinations of monomials.

    >>> element_multiply({((0, 0),): 1}, {((0, 0),): 1})
    {}
    >>> element_multiply({((1, 1),): 1}, {((3, 3),): 1})
    {((3, 3), (1, 1)): 1}
    """
    out: TLElement = {}
    for w1, c1 in x.items():
        word1 = fcs_to_word(w1)
        for w2, c2 in y.items():
            nf = normalize(word1 + fcs_to_word(w2))
            if nf is None:
                continue
            new = out.get(nf, 0) + c1 * c2
            if new:
                out[nf] = new
            else:
                del out[nf]
    return out


def element_key(w: FcsWord) -> tuple[int, FcsWord]:
    return (fcs_length(w), w)


def element_to_json(x: TLElement) -> list[dict]:
    return [
        {"word": [list(iv) for iv in w], "coeff": x[w]}
        for w in sorted(x, key=element_key, reverse=True)
    ]


def element_from_json(data) -> TLElement:
    if not isinstance(data, list):
        raise ValueError(f"an element is a JSON list of terms, not {type(data).__name__}")
    out: TLElement = {}
    for term in data:
        w = check_fcs_word(term["word"])
        coeff = term["coeff"]
        if type(coeff) is not int:
            raise ValueError(f"coefficients must be integers, got {coeff!r}")
        if w in out:
            raise ValueError(f"duplicate word {w} in element")
        out[w] = coeff
    return {w: coeff for w, coeff in out.items() if coeff}


# ---------------------------------------------------------------------------
# faithfulness machinery


def bottom_sector(word: tuple[int, ...], lam: Partition) -> Optional[Partition]:
    """The size |lam| - len(word) part of the plain action of the word on lam.

    That part is always zero or a single partition with coefficient one.
    Terms reach the bottom size only by removing a box at every step, and
    box removal at a fixed content is single-valued, so the bottom sector is
    evolved directly: remove the box of content q - 1 for each letter q,
    rightmost first.  The word is already expanded, as `fcs_to_word` gives it.

    >>> bottom_sector((0,), (1, 1))
    (1,)
    >>> bottom_sector((0,), (2, 2)) is None
    True
    """
    cur: Optional[Partition] = lam
    for q in reversed(word):
        cur = remove_box(cur, q - 1)
        if cur is None:
            return None
    return cur


def witness_partition(w: FcsWord) -> Partition:
    """A partition on which the monomial acts with nonzero bottom sector.

    Built from p copies of a longest row followed by one row per interval:
    row p+i has length p + i + b_i - 1.  For the word [a_1,b_1]...[a_r,b_r],
    p = max(1, 2 - a_r - r) is the fewest long rows that make the rows
    weakly decreasing and positive.

    >>> witness_partition(((0, 0),))
    (1, 1)
    >>> witness_partition(((1, 1),))
    (2, 2)
    >>> witness_partition(((-5, -5),))
    (1, 1, 1, 1, 1, 1, 1)
    >>> witness_partition(())
    ()
    """
    w = check_fcs_word(w)
    if not w:
        return ()
    p = max(1, 2 - w[-1][0] - len(w))
    ends = [b for _, b in w]
    rows = [p + ends[0]] * p
    rows += [p + i + ends[i - 1] - 1 for i in range(1, len(w) + 1)]
    return tuple(rows)


def element_action(x: TLElement, lam: Partition, table: Optional[dict] = None) -> FockVector:
    """The plain action of an element on one partition, `table` passed to
    `apply_word`.

    >>> element_action({((0, 0),): 2, (): 1}, (1, 1))
    {(1,): 2, (1, 1): 1}
    """
    total: FockVector = {}
    for w, c in x.items():
        for mu, k in apply_word({lam: 1}, fcs_to_word(w), "xi-prime", table).items():
            new = total.get(mu, 0) + c * k
            if new:
                total[mu] = new
            else:
                del total[mu]
    return total


def faithfulness_witness(
    x: TLElement, table: Optional[dict] = None
) -> Optional[tuple[Partition, FockVector]]:
    """A partition on which a nonzero element acts nonzero, with its image.

    Picks a monomial of maximal length (largest word on ties), evaluates the
    whole element on the witness partition of that monomial, and returns
    the pair.  None for the zero element.  An empty image for a nonzero
    element would disprove faithfulness; it is returned as it is, and the
    `faithfulness` suite of `verify` records it.

    `table`, when given, is passed to `apply_word`, which reads and fills
    the plain images of single partitions through `fock.images`.  The result
    is the same with or without it.

    >>> faithfulness_witness({((0, 0),): 1})
    ((1, 1), {(1,): 1})
    >>> faithfulness_witness({}) is None
    True
    """
    terms = {check_fcs_word(w): c for w, c in x.items() if c}
    if not terms:
        return None
    lead = max(terms, key=element_key)
    lam = witness_partition(lead)
    return lam, element_action(terms, lam, table)
