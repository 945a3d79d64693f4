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

from dataclasses import dataclass
from typing import Iterable, Optional

from .fock import FockVector, apply_word
from .partitions import Partition, check_partition, remove_box

FcsWord = tuple[tuple[int, int], ...]
TLElement = dict[FcsWord, int]


# ---------------------------------------------------------------------------
# diagrams


@dataclass(frozen=True)
class TLDiagram:
    """A nonzero planar monomial: lower and upper arc sets, identity outside.

    Arcs are pairs (i, j) with i < j of matched points on one boundary row.
    Points strictly between the endpoints of an arc must themselves be arc
    endpoints (otherwise a through strand would have to cross the arc), arcs
    on one row never interleave, and both rows carry the same number of arcs.
    """

    bottom_arcs: frozenset[tuple[int, int]]
    top_arcs: frozenset[tuple[int, int]]

    def __post_init__(self):
        for arcs in (self.bottom_arcs, self.top_arcs):
            _check_arc_side(arcs)
        if len(self.bottom_arcs) != len(self.top_arcs):
            raise ValueError("lower and upper rows must carry equally many arcs")

    def is_identity(self) -> bool:
        return not self.bottom_arcs

    def window(self) -> tuple[int, int]:
        """Smallest interval containing every arc endpoint; (0, -1) if none."""
        pts = [p for arc in self.bottom_arcs | self.top_arcs for p in arc]
        if not pts:
            return (0, -1)
        return (min(pts), max(pts))


def _check_arc_side(arcs: frozenset[tuple[int, int]]) -> None:
    ends: set[int] = set()
    for i, j in arcs:
        if i >= j:
            raise ValueError(f"arc endpoints must satisfy i < j, got {(i, j)}")
        for p in (i, j):
            if p in ends:
                raise ValueError(f"endpoint {p} used twice")
            ends.add(p)
    for i, j in arcs:
        for p in range(i + 1, j):
            if p not in ends:
                raise ValueError(f"point {p} under arc {(i, j)} is unmatched")
    srt = sorted(arcs)
    for k, (i, j) in enumerate(srt):
        for (i2, j2) in srt[k + 1 :]:
            if i < i2 < j < j2:
                raise ValueError(f"arcs {(i, j)} and {(i2, j2)} cross")


IDENTITY = TLDiagram(frozenset(), frozenset())


def generator_diagram(i: int) -> TLDiagram:
    """The index-i generator: a lower arc and an upper arc at (i, i+1).

    >>> generator_diagram(0) == TLDiagram(frozenset({(0, 1)}), frozenset({(0, 1)}))
    True
    """
    return TLDiagram(frozenset({(i, i + 1)}), frozenset({(i, i + 1)}))


def interval_diagram(a: int, b: int) -> TLDiagram:
    """Closed form of the ascending run a, a+1, ..., b of generators.

    Its only lower arc is (b, b+1) and its only upper arc is (a, a+1); the
    strands between shift by two.  Cross-checked against the generator
    product in the test suite.
    """
    if a > b:
        raise ValueError("need a <= b")
    return TLDiagram(frozenset({(b, b + 1)}), frozenset({(a, a + 1)}))


def _matching(d: TLDiagram, lo: int, hi: int, bot: str, top: str) -> dict:
    """Full matching of d on the window [lo, hi], rows labelled bot/top."""
    pairs: dict = {}
    bot_ends: set[int] = set()
    top_ends: set[int] = set()
    for i, j in d.bottom_arcs:
        pairs[(bot, i)] = (bot, j)
        pairs[(bot, j)] = (bot, i)
        bot_ends.update((i, j))
    for i, j in d.top_arcs:
        pairs[(top, i)] = (top, j)
        pairs[(top, j)] = (top, i)
        top_ends.update((i, j))
    free_bot = [i for i in range(lo, hi + 1) if i not in bot_ends]
    free_top = [i for i in range(lo, hi + 1) if i not in top_ends]
    for x, y in zip(free_bot, free_top):
        pairs[(bot, x)] = (top, y)
        pairs[(top, y)] = (bot, x)
    return pairs


def diagram_product(d1: Optional[TLDiagram], d2: Optional[TLDiagram]) -> Optional[TLDiagram]:
    """Compose monomials: d2 is stacked below d1 and acts first.

    Strands are traced through the shared middle row; any closed loop kills
    the product (the loop parameter is zero), so None is absorbing.

    >>> diagram_product(generator_diagram(3), generator_diagram(3)) is None
    True
    """
    if d1 is None or d2 is None:
        return None
    if d2.is_identity():
        return d1
    if d1.is_identity():
        return d2
    lo = min(d1.window()[0], d2.window()[0])
    hi = max(d1.window()[1], d2.window()[1])
    low = _matching(d2, lo, hi, "b", "m")
    up = _matching(d1, lo, hi, "m", "t")
    bottom_arcs: set[tuple[int, int]] = set()
    top_arcs: set[tuple[int, int]] = set()
    through: list[tuple[int, int]] = []
    seen_mid: set[int] = set()
    done: set = set()
    for i in range(lo, hi + 1):
        for start in ((("b", i)), (("t", i))):
            if start in done:
                continue
            done.add(start)
            use_low = start[0] == "b"
            cur = start
            while True:
                cur = (low if use_low else up)[cur]
                if cur[0] == "m":
                    seen_mid.add(cur[1])
                    use_low = not use_low
                    continue
                done.add(cur)
                break
            a, b = start, cur
            if a[0] == "b" and b[0] == "b":
                bottom_arcs.add((min(a[1], b[1]), max(a[1], b[1])))
            elif a[0] == "t" and b[0] == "t":
                top_arcs.add((min(a[1], b[1]), max(a[1], b[1])))
            else:
                x, y = (a, b) if a[0] == "b" else (b, a)
                through.append((x[1], y[1]))
    if len(seen_mid) < hi - lo + 1:
        return None
    through.sort()
    tops = [t for _, t in through]
    if tops != sorted(tops):
        raise RuntimeError("traced through strands are not order preserving")
    return TLDiagram(frozenset(bottom_arcs), frozenset(top_arcs))


def word_to_diagram(word: Iterable[int]) -> Optional[TLDiagram]:
    """Left-to-right product of generator diagrams; empty word is identity.

    >>> word_to_diagram([1, 1]) is None
    True
    >>> word_to_diagram([0, 2]) == word_to_diagram([2, 0])
    True
    """
    d: Optional[TLDiagram] = IDENTITY
    for i in word:
        d = diagram_product(d, generator_diagram(i))
        if d is None:
            return None
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


def fcs_to_diagram(w: FcsWord) -> Optional[TLDiagram]:
    """Diagram of a fully commutative monomial, one product per interval."""
    d: Optional[TLDiagram] = IDENTITY
    for a, b in w:
        d = diagram_product(d, interval_diagram(a, b))
    return d


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
    """Insert the letters of `word` by the rules of `normalize`; None for zero."""
    cur: list[int] = []
    todo = word[::-1]
    while todo:
        q = todo.pop()
        if q not in cur:
            cur.append(q)
            continue
        p = len(cur) - 1 - cur[::-1].index(q)
        after = [s for s in range(p + 1, len(cur)) if abs(cur[s] - q) == 1]
        if not after:
            return None
        if len(after) == 1:
            todo.extend(reversed(cur[after[0] + 1 :]))
            del cur[after[0] :]
        else:
            cur.append(q)
    return cur


def _intervals(cur: list[int]) -> list[tuple[int, int]]:
    """Intervals of a reduced fully commutative word: taking each time the
    largest letter with no equal or adjacent letter before it lists the
    normal form in order, cut into runs x, x+1, ..."""
    todo: dict[int, list[int]] = {}  # letter -> its positions, first last
    for k in reversed(range(len(cur))):
        todo.setdefault(cur[k], []).append(k)

    def first(x: int) -> int:
        return todo[x][-1] if todo.get(x) else len(cur)

    out: list[tuple[int, int]] = []
    for _ in cur:
        x = max(x for x in todo if first(x) < min(first(x - 1), first(x + 1)))
        todo[x].pop()
        if out and out[-1][1] == x - 1:
            out[-1] = (out[-1][0], x)
        else:
            out.append((x, x))
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
    polynomially many steps.  The intervals are then read off greedily, and
    the zero verdict and the normal form are both checked against the
    diagram of the input.

    >>> normalize([0, 1, 0])
    ((0, 0),)
    >>> normalize([3, 3]) is None
    True
    >>> normalize([1, 2, 3, 0, 1])
    ((1, 3), (0, 1))
    """
    word = [int(q) for q in word]
    target = word_to_diagram(word)
    cur = _reduce(word)
    if (cur is None) != (target is None):
        raise RuntimeError(f"insertion and diagram disagree on whether {word} is zero")
    if cur is None:
        return None
    try:
        result = check_fcs_word(_intervals(cur))
    except ValueError as exc:
        raise RuntimeError(f"{cur} from {word} is not fully commutative: {exc}") from exc
    if fcs_to_diagram(result) != target:
        raise RuntimeError(f"normal form {result} does not reproduce {word}")
    return result


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
        if coeff:
            out[w] = coeff
    return out


# ---------------------------------------------------------------------------
# faithfulness machinery


def minimal_part(w: FcsWord, lam: Partition) -> Optional[Partition]:
    """The size |lam| - len(w) part of the plain action of the monomial on lam.

    That part is always zero or a single partition with coefficient one.
    Terms reach the bottom size only by removing a box at every step, and
    box removal at a fixed content is single-valued, so the bottom sector is
    evolved directly as a chain of at most one partition.

    >>> minimal_part(((0, 0),), (1, 1))
    (1,)
    >>> minimal_part(((0, 0),), (2, 2)) is None
    True
    """
    return bottom_sector(fcs_to_word(w), lam)


def bottom_sector(word: tuple[int, ...], lam: Partition) -> Optional[Partition]:
    """`minimal_part` of an already expanded generator word: remove the box
    of content q - 1 for each letter q, rightmost first."""
    cur: Optional[Partition] = lam
    for q in reversed(word):
        cur = remove_box(cur, q - 1)
        if cur is None:
            return None
    return cur


def min_witness_rows(w: FcsWord) -> int:
    """Smallest admissible number of long rows for `witness_partition`."""
    w = check_fcs_word(w)
    if not w:
        return 1
    r = len(w)
    return max(1, 2 - w[-1][0] - r)


def witness_partition(w: FcsWord, p: int) -> Partition:
    """A partition on which the monomial acts with nonzero bottom sector.

    Built from p copies of a longest row followed by one row per interval:
    row p+i has length p + i + b_i - 1.  Requires p at least
    max(1, 2 - a_r - r), which makes the rows weakly decreasing and positive.

    >>> witness_partition(((0, 0),), 1)
    (1, 1)
    >>> witness_partition(((1, 1),), 1)
    (2, 2)
    >>> witness_partition((), 1)
    ()
    """
    w = check_fcs_word(w)
    if not w:
        return ()
    if p < min_witness_rows(w):
        raise ValueError(f"p={p} below the admissible bound {min_witness_rows(w)}")
    ends = [b for _, b in w]
    rows = [p + ends[0]] * p
    rows += [p + i + ends[i - 1] - 1 for i in range(1, len(w) + 1)]
    return check_partition(rows)


def faithfulness_witness(x: TLElement) -> Optional[tuple[Partition, FockVector]]:
    """A partition on which a nonzero element acts nonzero, with its image.

    Picks a monomial of maximal length (largest word on ties), evaluates the
    whole element on the witness partition of that monomial at the smallest
    admissible row count, and returns the pair.  None for the zero element;
    a zero image for a nonzero element would disprove faithfulness and
    raises.

    >>> faithfulness_witness({((0, 0),): 1})
    ((1, 1), {(1,): 1})
    >>> faithfulness_witness({}) is None
    True
    """
    terms = {check_fcs_word(w): c for w, c in x.items() if c}
    if not terms:
        return None
    lead = max(terms, key=element_key)
    lam = witness_partition(lead, min_witness_rows(lead))
    total: FockVector = {}
    for w, c in terms.items():
        image = apply_word({lam: 1}, fcs_to_word(w), "xi-prime")
        for mu, k in image.items():
            new = total.get(mu, 0) + c * k
            if new:
                total[mu] = new
            else:
                del total[mu]
    if not total:
        raise RuntimeError(f"nonzero element {terms} killed its witness {lam}")
    return lam, total
