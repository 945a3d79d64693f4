import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from peritl import tl
from peritl.fock import apply_word
from peritl.partitions import check_partition, enumerate_partitions
from peritl.tl import (
    IDENTITY,
    TLDiagram,
    bottom_sector,
    check_fcs_word,
    element_multiply,
    faithfulness_witness,
    fcs_length,
    fcs_to_word,
    fcs_words_in_range,
    normalize,
    witness_partition,
    word_to_diagram,
)

from helpers import (
    ORACLE_MAX_WIDTH,
    fcs_to_diagram,
    generator_diagram,
    interval_diagram,
    oracle_check_arc_side,
    oracle_diagram_product,
    oracle_minimal_part,
    oracle_normal_forms,
    step_case,
)


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def test_generator_diagram():
    t0 = word_to_diagram([0])
    assert t0.bottom_arcs == frozenset({(0, 1)}) and t0.top_arcs == frozenset({(0, 1)})
    assert t0 == generator_diagram(0)
    t5 = word_to_diagram([5])
    assert t5.bottom_arcs == frozenset({(5, 6)}) and t5 == generator_diagram(5)
    # flipping top and bottom leaves a generator unchanged
    flipped = TLDiagram(t0.top_arcs, t0.bottom_arcs)
    assert flipped == t0 and flipped is not t0
    # equal diagrams are one dict key; a diagram is immutable
    assert hash(flipped) == hash(t0) and len({t0: 0, flipped: 1, t5: 2}) == 2
    assert t0 != t5 and t0 != (t0.bottom_arcs, t0.top_arcs)
    for attr in ("bottom_arcs", "top_arcs", "other"):
        with pytest.raises(AttributeError):
            setattr(t0, attr, frozenset())
    with pytest.raises(AttributeError):
        del t0.top_arcs
    assert t0 == generator_diagram(0)


def test_diagram_validation():
    nest = frozenset({(0, 3), (1, 2)})
    assert TLDiagram(nest, frozenset({(0, 1), (2, 3)})).bottom_arcs == nest
    with pytest.raises(ValueError):
        TLDiagram(frozenset({(1, 0)}), frozenset({(0, 1)}))
    with pytest.raises(ValueError):  # unmatched point under an arc
        TLDiagram(frozenset({(0, 3)}), frozenset({(0, 3)}))
    with pytest.raises(ValueError):  # point 3 unmatched under the outer arc
        TLDiagram(frozenset({(0, 4), (1, 2)}), frozenset({(0, 1), (2, 3)}))
    with pytest.raises(ValueError):  # crossing arcs
        TLDiagram(
            frozenset({(0, 2), (1, 3)}), frozenset({(0, 1), (2, 3)})
        )
    with pytest.raises(ValueError):  # crossing arcs inside an outer arc
        TLDiagram(
            frozenset({(0, 5), (1, 3), (2, 4)}), frozenset({(0, 1), (2, 3), (4, 5)})
        )
    with pytest.raises(ValueError):  # unbalanced arc counts
        TLDiagram(frozenset({(0, 1)}), frozenset())


def _accepted(check, arcs) -> bool:
    try:
        check(arcs)
    except ValueError:
        return False
    return True


@st.composite
def arc_rows(draw):
    """A row of arcs: random pairs, a random pairing of the points 0..2n-1
    (no gaps, often crossing), or the lower row of a random word's diagram
    with a few arcs toggled in or out."""
    pair = st.tuples(st.integers(-2, 9), st.integers(-2, 9))
    kind = draw(st.sampled_from(["pairs", "pairing", "word"]))
    if kind == "pairs":
        return draw(st.frozensets(pair, max_size=6))
    if kind == "pairing":
        points = draw(st.permutations(range(2 * draw(st.integers(1, 4)))))
        return frozenset((min(pt), max(pt)) for pt in zip(points[::2], points[1::2]))
    d = word_to_diagram(draw(st.lists(st.integers(0, 6), max_size=8)))
    arcs = set() if d is None else set(d.bottom_arcs)
    for arc in draw(st.lists(pair, max_size=2)):
        arcs ^= {arc}
    return frozenset(arcs)


@given(arc_rows())
@settings(max_examples=400, deadline=None)
def test_arc_validation_matches_the_point_by_point_oracle(arcs):
    built = _accepted(lambda row: TLDiagram(row, row), arcs)
    assert built == _accepted(oracle_check_arc_side, arcs)


def _oracle_word_diagram(word):
    d = IDENTITY
    for q in word:
        d = oracle_diagram_product(d, generator_diagram(q))
    return d


def test_word_to_diagram_matches_the_window_oracle_on_short_words():
    # every word of at most 5 letters on -2..2, each one letter past a word
    # whose oracle diagram is already known
    oracle = {(): IDENTITY}
    cases = set()
    for n in range(1, 6):
        for word in itertools.product(range(-2, 3), repeat=n):
            prefix = oracle[word[:-1]]
            oracle[word] = oracle_diagram_product(prefix, generator_diagram(word[-1]))
            if prefix is not None:
                cases.add(step_case(prefix, word[-1]))
            assert word_to_diagram(word) == oracle[word], word
    assert len(oracle) == 3906
    assert cases == {"loop", "both-free", "one-arc-end", "both-arc-ends"}


@given(
    st.integers(-10**12, 10**12),
    st.lists(st.integers(0, 10), max_size=8),
    st.lists(st.integers(0, 10), max_size=8),
)
@settings(max_examples=300, deadline=None)
def test_word_to_diagram_matches_the_window_oracle_far_out(offset, u, v):
    # generators offset..offset+10 touch the 12 points offset..offset+11
    u = [offset + q for q in u]
    v = [offset + q for q in v]
    assert word_to_diagram(u) == _oracle_word_diagram(u)
    assert word_to_diagram(v) == _oracle_word_diagram(v)
    assert word_to_diagram(u + v) == _oracle_word_diagram(u + v)


def test_word_to_diagram_relations():
    assert word_to_diagram([3, 3]) is None
    assert word_to_diagram([0, 1, 0]) == word_to_diagram([0])
    assert word_to_diagram([0, -1, 0]) == word_to_diagram([0])
    assert word_to_diagram([0, 2]) == word_to_diagram([2, 0])


def test_word_to_diagram():
    assert word_to_diagram([]) == IDENTITY
    assert word_to_diagram([1, 1]) is None
    assert word_to_diagram([0, 2]) == word_to_diagram([2, 0])
    assert word_to_diagram([0, 1, 0]) == generator_diagram(0)
    nested = word_to_diagram([2, 1, 0])
    assert nested.bottom_arcs == frozenset({(0, 1)})
    assert nested.top_arcs == frozenset({(2, 3)})


def test_word_to_diagram_with_prefixes_matches_without():
    # one dict for every word, so later words read earlier prefixes,
    # zero prefixes included
    prefixes = {}
    words = [word for n in range(6) for word in itertools.product(range(-3, 4), repeat=n)]
    rng = random.Random(16)
    words += [tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 10)))
              for _ in range(2000)]
    zero = 0
    for word in words:
        want = word_to_diagram(word)
        assert word_to_diagram(word, prefixes) == want, word
        assert prefixes.get(word, want) == want
        zero += want is None
    assert 0 < zero < len(words)
    assert all(word[:-1] in prefixes for word in prefixes if len(word) > 1)


def test_interval_closed_form():
    for a in range(-4, 4):
        for b in range(a, 5):
            assert interval_diagram(a, b) == word_to_diagram(range(a, b + 1))


def test_check_fcs_word():
    assert check_fcs_word([[1, 3], [0, 1]]) == ((1, 3), (0, 1))
    assert check_fcs_word([]) == ()
    with pytest.raises(ValueError):
        check_fcs_word([[3, 1]])
    with pytest.raises(ValueError):
        check_fcs_word([[0, 1], [1, 2]])
    with pytest.raises(ValueError):  # ends must strictly decrease too
        check_fcs_word([[1, 2], [0, 2]])


def test_fcs_to_word():
    assert fcs_to_word(((0, 0),)) == (0,)
    assert fcs_to_word(((1, 3), (0, 1))) == (1, 2, 3, 0, 1)
    assert fcs_to_word(()) == ()


def test_normalize_examples():
    assert normalize([0, 1, 0]) == ((0, 0),)
    assert normalize([3, 3]) is None
    assert normalize([1, 2, 3, 0, 1]) == ((1, 3), (0, 1))
    assert normalize([]) == ()
    assert normalize([2, 1, 0]) == ((2, 2), (1, 1), (0, 0))
    # far-apart letters commute, whatever the span of the word
    assert normalize([10, -10]) == ((10, 10), (-10, -10))
    assert normalize([7, 8, 7, -5]) == ((7, 7), (-5, -5))


def test_normalize_and_products_build_no_diagram(monkeypatch):
    def refuse(*args):
        raise AssertionError("a diagram was built")

    monkeypatch.setattr(tl, "TLDiagram", refuse)
    assert normalize([1, 2, 3, 0, 1]) == ((1, 3), (0, 1))
    assert normalize([3, 4, 3, 3]) is None
    assert element_multiply({((0, 1),): 2}, {((-1, 0),): 3}) == {((0, 1), (-1, 0)): 6}


def test_fcs_enumeration_is_catalan_complete():
    # the words on a window of w generators biject with the diagram basis,
    # whose size is Catalan(w+1)
    for lo, hi in [(0, 0), (-1, 1), (0, 3), (-2, 2)]:
        count = len(list(fcs_words_in_range(lo, hi)))
        assert count == catalan(hi - lo + 2)


def test_normalize_roundtrip_window():
    lo = -4
    hi = lo + ORACLE_MAX_WIDTH - 1
    table = oracle_normal_forms(lo, hi)
    words = list(fcs_words_in_range(lo, hi))
    assert len(words) == len(table)
    for w in words:
        assert table[fcs_to_diagram(w)] == w
        assert normalize(fcs_to_word(w)) == w


def test_normalize_matches_oracle_on_short_words():
    # the words of length <= 8 over the generators 0..4, grown letter by
    # letter through the oracle product; a word with a zero prefix is zero,
    # so growth stops there
    table = oracle_normal_forms(0, 4)
    todo = [((), IDENTITY)]
    while todo:
        prefix, prefix_diag = todo.pop()
        for q in range(5):
            word = prefix + (q,)
            diag = oracle_diagram_product(prefix_diag, generator_diagram(q))
            assert normalize(word) == (None if diag is None else table[diag]), word
            if diag is not None and len(word) < 8:
                todo.append((word, diag))


@st.composite
def wide_words(draw):
    """A word on a window of 9..40 generators and its normal form, or None
    when random letters were spliced in and the normal form is unknown.

    The word starts as a random fully commutative word and is rewritten by
    q -> q, q+-1, q and by swaps of letters at least two apart, which keep
    the element."""
    lo = draw(st.integers(-20, 20))
    hi = lo + draw(st.integers(8, 39))
    fcs, a, b = [], hi + 1, hi + 1
    while True:
        b -= draw(st.integers(1, 6))
        a = min(a - draw(st.integers(1, 6)), b)
        if a < lo:
            break
        fcs.append((a, b))
    word = list(fcs_to_word(tuple(fcs)))
    for k in draw(st.lists(st.integers(0, 10**6), max_size=12)):
        if not word:
            break
        k %= len(word)
        q = word[k]
        if k % 2 and k + 1 < len(word) and abs(q - word[k + 1]) > 1:
            word[k : k + 2] = [word[k + 1], q]
        else:
            word[k : k + 1] = [q, q + 1 if q < hi else q - 1, q]
    noise = draw(st.lists(st.tuples(st.integers(0, 10**6), st.integers(lo, hi)), max_size=3))
    for k, q in noise:
        word.insert(k % (len(word) + 1), q)
    return word, None if noise else tuple(fcs)


@given(wide_words())
@settings(max_examples=150, deadline=None)
def test_normalize_wide_windows(case):
    word, expected = case
    nf = normalize(word)
    diag = word_to_diagram(word)
    assert (nf is None) == (diag is None)
    if nf is not None:
        assert check_fcs_word(nf) == nf
        assert fcs_to_diagram(nf) == diag
    if expected is not None:
        assert nf == expected


def test_distinct_words_distinct_diagrams():
    seen = {}
    for w in fcs_words_in_range(-3, 3):
        d = fcs_to_diagram(w)
        assert d is not None
        assert d not in seen
        seen[d] = w
        assert d == word_to_diagram(fcs_to_word(w))


def test_element_multiply():
    assert element_multiply({((0, 0),): 1}, {((0, 0),): 1}) == {}
    # (1 - e1 e0) e1 = e1 - e1 e0 e1 = 0: the second product cancels the first
    assert element_multiply({(): 1, ((1, 1), (0, 0)): -1}, {((1, 1),): 1}) == {}
    assert element_multiply({(): 1}, {((1, 2),): 7}) == {((1, 2),): 7}
    assert element_multiply({((1, 1),): 1}, {((3, 3),): 1}) == {((3, 3), (1, 1)): 1}
    # an ascending pair of generators merges into one interval
    assert element_multiply({((0, 0),): 2}, {((1, 1),): 3}) == {((0, 1),): 6}
    assert element_multiply({((1, 1),): 3}, {((0, 0),): 2}) == {((1, 1), (0, 0)): 6}
    # cancellation across monomials
    x = {((0, 0),): 1, ((0, 1),): 1}
    y = {((1, 1),): 1}
    z1 = element_multiply(x, y)
    z2 = element_multiply({((0, 1),): -1}, y)
    total = dict(z1)
    for w, c in z2.items():
        total[w] = total.get(w, 0) + c
        if not total[w]:
            del total[w]
    assert total == element_multiply({((0, 0),): 1}, y)


def test_element_multiply_associative_random():
    rng = random.Random(11)
    words = [w for w in fcs_words_in_range(-3, 3, 4)]
    for _ in range(60):
        a, b, c = (rng.choice(words) for _ in range(3))
        lhs = element_multiply(element_multiply({a: 1}, {b: 1}), {c: 1})
        rhs = element_multiply({a: 1}, element_multiply({b: 1}, {c: 1}))
        assert lhs == rhs


def test_action_factors_through_diagrams():
    rng = random.Random(5)
    lams = list(enumerate_partitions(9))
    pairs = 0
    for _ in range(120):
        u = [rng.randint(-3, 3) for _ in range(rng.randint(1, 7))]
        v = list(u)
        # element-preserving rewrites
        for _ in range(2):
            if len(v) >= 2:
                k = rng.randrange(len(v) - 1)
                if abs(v[k] - v[k + 1]) > 1:
                    v[k], v[k + 1] = v[k + 1], v[k]
            k = rng.randrange(len(v))
            v[k : k + 1] = [v[k], v[k] + rng.choice((-1, 1)), v[k]]
        assert word_to_diagram(u) == word_to_diagram(v)
        pairs += 1
        for lam in lams[:40]:
            assert apply_word({lam: 1}, u, "xi-prime") == apply_word(
                {lam: 1}, v, "xi-prime"
            )
        if word_to_diagram(u) is None:
            for lam in lams[:10]:
                assert apply_word({lam: 1}, u, "xi-prime") == {}
    assert pairs == 120


def test_minimal_part_examples():
    assert bottom_sector(fcs_to_word(((0, 0),)), (1, 1)) == (1,)
    assert bottom_sector(fcs_to_word(((0, 0),)), (2, 2)) is None
    assert bottom_sector(fcs_to_word(()), (3, 1)) == (3, 1)


def test_minimal_part_dual_route():
    words = [w for w in fcs_words_in_range(-2, 2, 4)]
    for w in words:
        for lam in enumerate_partitions(7):
            assert bottom_sector(fcs_to_word(w), lam) == oracle_minimal_part(w, lam)


def _row_removal_oracle(w, lam):
    # an interval [a, b] kills all but one bottom term: it strips b-a+1 boxes
    # from the unique row i with lam[i] - (i+1) = b - 1, provided the row
    # sticks out far enough over the next one; intervals act right to left
    cur = list(lam)
    for a, b in reversed(w):
        rows = [i for i in range(len(cur)) if cur[i] - (i + 1) == b - 1]
        if not rows:
            return None
        i = rows[0]
        nxt = cur[i + 1] if i + 1 < len(cur) else 0
        if cur[i] - nxt < b - a + 1:
            return None
        cur[i] -= b - a + 1
    while cur and cur[-1] == 0:
        cur.pop()
    if any(cur[i] < cur[i + 1] for i in range(len(cur) - 1)):
        return None
    return tuple(cur)


def test_minimal_part_against_row_removal_oracle():
    words = [w for w in fcs_words_in_range(-3, 3, 5)]
    for w in words:
        for lam in enumerate_partitions(9):
            part = bottom_sector(fcs_to_word(w), lam)
            assert part == _row_removal_oracle(w, lam), (w, lam)


def test_witness_partition():
    assert witness_partition(((0, 0),)) == (1, 1)
    assert witness_partition(((1, 1),)) == (2, 2)
    assert witness_partition(()) == ()
    # six long rows: the fewest with a last row of length 6 + 1 - 5 - 1 = 1
    assert witness_partition(((-5, -5),)) == (1, 1, 1, 1, 1, 1, 1)


def test_witness_bottom_sector_never_absent():
    for w in fcs_words_in_range(-3, 3, 5):
        if not w:
            continue
        lam = witness_partition(w)
        assert bottom_sector(fcs_to_word(w), lam) is not None, w


def test_equal_length_words_have_distinct_bottom_sectors():
    words = [w for w in fcs_words_in_range(-2, 2, 4) if w]
    for lam in enumerate_partitions(8):
        seen = {}
        for w in words:
            part = bottom_sector(fcs_to_word(w), lam)
            if part is None:
                continue
            key = (fcs_length(w), part)
            assert key not in seen, (lam, seen[key], w)
            seen[key] = w


def test_distinct_basis_elements_separated_by_the_action():
    # the action route knows nothing about diagrams: whenever two words have
    # distinct diagrams, the difference of their monomials must act nonzero
    # on the witness partition, tying the three layers together
    words = list(fcs_words_in_range(-2, 2))
    for i, u in enumerate(words):
        for v in words[i + 1 :]:
            assert fcs_to_diagram(u) != fcs_to_diagram(v)
            lam, image = faithfulness_witness({u: 1, v: -1})
            assert image


def test_faithfulness_witness():
    assert faithfulness_witness({((0, 0),): 1}) == ((1, 1), {(1,): 1})
    assert faithfulness_witness({}) is None
    assert faithfulness_witness({((0, 0),): 0}) is None
    lam, image = faithfulness_witness({((0, 0),): 1, ((1, 1),): -1})
    assert image
    rng = random.Random(3)
    words = [w for w in fcs_words_in_range(-3, 3, 5) if w]
    for _ in range(150):
        chosen = rng.sample(words, rng.randint(1, 4))
        element = {w: rng.choice((-2, -1, 1, 2)) for w in chosen}
        lam, image = faithfulness_witness(element)
        assert image


def test_faithfulness_witness_with_a_table_matches_without():
    # one table for all elements, as the faithfulness suite shares its run's
    # table; it only ever holds plain images of single partitions
    rng = random.Random(15)
    words = [w for w in fcs_words_in_range(-3, 3, 6) if w]
    table = {}
    for _ in range(200):
        chosen = rng.sample(words, rng.randint(1, 4))
        element = {w: rng.choice((-3, -2, -1, 1, 2, 3)) for w in chosen}
        assert faithfulness_witness(element, table) == faithfulness_witness(element)
    assert table
    del table[None]  # the pool of stored partitions
    for (rep, q), row in table.items():
        assert rep == "xi-prime" and type(q) is int
        assert all(lam == check_partition(lam) for lam in row)
