import random

import pytest
from hypothesis import given, settings, strategies as st

from peritl.partitions import (
    RimHook,
    add_box,
    addable_contents,
    check_partition,
    contains,
    delete_hook,
    enumerate_partitions,
    minimal_balanced_hook_ending,
    minimal_balanced_hook_starting,
    partitions_of,
    remove_box,
    removable_contents,
    rim_boxes,
    rim_hook,
    staircase,
    transpose,
    two_core,
)

from helpers import (
    boxes_of,
    mid_partitions,
    oracle_addable,
    oracle_remove_boxes,
    oracle_removable,
    oracle_rim_hook,
    oracle_rim_hooks,
    oracle_two_core,
    partition_count,
    partition_of_boxes,
)

partitions_st = st.lists(st.integers(1, 7), max_size=7).map(
    lambda parts: tuple(sorted(parts, reverse=True))
)


def test_check_partition():
    assert check_partition([3, 1]) == (3, 1)
    assert check_partition([]) == ()
    with pytest.raises(ValueError):
        check_partition([1, 2])
    with pytest.raises(ValueError):
        check_partition([2, 0])


def test_staircase():
    assert staircase(0) == ()
    assert staircase(3) == (3, 2, 1)
    assert staircase(5) == (5, 4, 3, 2, 1)


def test_contains():
    assert contains((2,), (1,))
    assert not contains((2,), (2, 1))
    assert contains((4, 2, 1), (3, 2, 1))
    assert contains((3, 1), ())


def test_add_box_examples():
    assert add_box((), 0) == (1,)
    assert add_box((2, 1), 2) == (3, 1)
    assert add_box((2, 1), 1) is None


def test_remove_box_examples():
    assert remove_box((1,), 0) == ()
    assert remove_box((2, 1), 1) == (1, 1)
    assert remove_box((2, 1), 0) is None


def test_corner_boxes_against_box_set_oracle():
    for lam in enumerate_partitions(14):
        addable = oracle_addable(lam)
        removable = oracle_removable(lam)
        assert set(addable_contents(lam)) == set(addable)
        assert set(removable_contents(lam)) == set(removable)
        for q in range(-len(lam) - 3, (lam[0] if lam else 0) + 4):
            got = add_box(lam, q)
            if q in addable:
                assert got == partition_of_boxes(boxes_of(lam) | {addable[q]})
            else:
                assert got is None
            got = remove_box(lam, q)
            if q in removable:
                assert got == partition_of_boxes(boxes_of(lam) - {removable[q]})
            else:
                assert got is None


@st.composite
def mid_partition_and_content(draw):
    """A partition of 30-200 boxes and a content near it or far outside it."""
    lam = draw(mid_partitions())
    near = st.integers(-len(lam) - 3, lam[0] + 3)
    return lam, draw(st.one_of(near, st.integers(-10**6, 10**6)))


@given(mid_partition_and_content())
@settings(max_examples=150, deadline=None)
def test_box_edits_against_box_set_oracle_mid_scale(case):
    lam, q = case
    addable, removable = oracle_addable(lam), oracle_removable(lam)
    up = partition_of_boxes(boxes_of(lam) | {addable[q]}) if q in addable else None
    down = partition_of_boxes(boxes_of(lam) - {removable[q]}) if q in removable else None
    assert add_box(lam, q) == up
    assert remove_box(lam, q) == down


def test_add_remove_contents_interlace():
    for lam in enumerate_partitions(12):
        add = sorted(addable_contents(lam), reverse=True)
        rem = sorted(removable_contents(lam), reverse=True)
        assert not set(add) & set(rem)
        # strictly alternating, starting and ending with an addable content
        assert len(add) == len(rem) + 1
        merged = [c for pair in zip(add, rem) for c in pair] + [add[-1]]
        assert merged == sorted(merged, reverse=True)


@given(partitions_st, st.integers(-8, 8))
@settings(max_examples=300, deadline=None)
def test_add_then_remove_roundtrip(lam, q):
    up = add_box(lam, q)
    if up is not None:
        assert remove_box(up, q) == lam
    down = remove_box(lam, q)
    if down is not None:
        assert add_box(down, q) == lam


def test_add_remove_roundtrip_sweep():
    for lam in enumerate_partitions(14):
        span = range(-len(lam) - 2, (lam[0] if lam else 0) + 3)
        for q in span:
            up = add_box(lam, q)
            if up is not None:
                assert remove_box(up, q) == lam
            down = remove_box(lam, q)
            if down is not None:
                assert add_box(down, q) == lam


def test_rim_boxes_examples():
    assert rim_boxes((1,)) == [(1, 1)]
    assert rim_boxes((2, 2)) == [(2, 1), (2, 2), (1, 2)]
    assert rim_boxes((3, 1)) == [(2, 1), (1, 1), (1, 2), (1, 3)]
    assert rim_boxes(()) == []


def test_rim_boxes_structure():
    for lam in enumerate_partitions(10):
        boxes = rim_boxes(lam)
        full = boxes_of(lam)
        # exactly the boxes with no box to the lower right, one per content
        assert set(boxes) == {b for b in full if (b[0] + 1, b[1] + 1) not in full}
        contents = [j - i for (i, j) in boxes]
        if lam:
            assert contents == list(range(1 - len(lam), lam[0]))


def test_rim_hook_examples():
    hook = rim_hook((2,), 1, 1)
    assert hook.boxes == ((1, 2),) and hook.height == 1 and hook.width == 1
    hook = rim_hook((3, 3), 0, 2)
    assert hook.boxes == ((2, 2), (2, 3), (1, 3))
    assert hook.height == 2 and hook.width == 2
    assert rim_hook((2, 2, 1), -1, 1) is None
    # the keyword form that the oracles build; a hook is immutable
    assert RimHook(boxes=((2, 2), (2, 3), (1, 3)), height=2, width=2) == hook
    assert hook.balanced and not rim_hook((3, 3), 1, 2).balanced
    with pytest.raises(AttributeError):
        hook.height = 3


def test_rim_hook_against_skew_oracle():
    for lam in enumerate_partitions(9):
        oracle = {}
        for skew in oracle_rim_hooks(lam):
            contents = sorted(j - i for (i, j) in skew)
            oracle[(contents[0], contents[-1])] = skew
        span = range(-len(lam) - 1, (lam[0] if lam else 0) + 2)
        for c1 in span:
            for c2 in span:
                if c1 > c2:
                    continue
                hook = rim_hook(lam, c1, c2)
                if (c1, c2) in oracle:
                    assert hook is not None
                    assert frozenset(hook.boxes) == oracle[(c1, c2)]
                    assert hook.height + hook.width == len(hook.boxes) + 1
                    assert delete_hook(lam, hook) == partition_of_boxes(
                        boxes_of(lam) - oracle[(c1, c2)]
                    )
                    assert sum(delete_hook(lam, hook)) == sum(lam) - (c2 - c1 + 1)
                else:
                    assert hook is None


def test_delete_hook_refuses_a_hook_of_another_partition():
    hook = rim_hook((3, 3), 0, 2)
    for lam in ((2, 2), (3, 2)):
        with pytest.raises(ValueError):
            delete_hook(lam, hook)


@given(mid_partitions())
@settings(max_examples=100, deadline=None)
def test_rim_hook_against_box_set_deleter_mid_scale(lam):
    span = range(-len(lam), lam[0] + 1)
    intervals = [(c1, c2) for c1 in span for c2 in span if c1 <= c2]
    if len(intervals) > 300:
        intervals = random.Random(str(lam)).sample(intervals, 300)
    # one more box right of row 1, or below column 1, blocks the hooks ending there
    neighbours = (lam, (lam[0] + 1,) + lam[1:], lam + (1,))
    for c1, c2 in intervals:
        hook = rim_hook(lam, c1, c2)
        assert hook == oracle_rim_hook(lam, c1, c2), (c1, c2)
        if hook is None:
            continue
        for mu in neighbours:
            expected = oracle_remove_boxes(mu, hook.boxes)
            if expected is None:
                with pytest.raises(ValueError):
                    delete_hook(mu, hook)
            else:
                assert delete_hook(mu, hook) == expected


def test_minimal_balanced_hooks_examples():
    hook = minimal_balanced_hook_starting((3, 3), 0)
    assert len(hook.boxes) == 3 and hook.boxes == ((2, 2), (2, 3), (1, 3))
    assert minimal_balanced_hook_starting((3, 3, 1), 1).boxes == ((2, 3),)
    assert minimal_balanced_hook_starting((1,), 5) is None
    assert minimal_balanced_hook_ending((1, 1), -1).boxes == ((2, 1),)
    assert minimal_balanced_hook_ending((4, 1, 1), -2).boxes == ((3, 1),)
    assert minimal_balanced_hook_ending((), 0) is None


def test_balanced_hooks_have_odd_size():
    for lam in enumerate_partitions(10):
        for skew in oracle_rim_hooks(lam):
            height = len({i for (i, _) in skew})
            width = len({j for (_, j) in skew})
            if height == width:
                assert len(skew) == 2 * height - 1
                assert len(skew) % 2 == 1


def test_two_core_examples():
    assert two_core((2,)) == ((), 0)
    assert two_core((3, 1)) == ((), 0)
    assert two_core((3, 2, 1)) == ((3, 2, 1), 3)
    assert two_core(()) == ((), 0)


def test_two_core_matches_domino_oracle():
    for lam in enumerate_partitions(16):
        assert two_core(lam) == oracle_two_core(lam), lam


@given(mid_partitions())
@settings(max_examples=100, deadline=None)
def test_two_core_matches_domino_oracle_mid_scale(lam):
    assert two_core(lam) == oracle_two_core(lam)


def test_two_core_order_independence():
    rng = random.Random(7)
    for lam in enumerate_partitions(14):
        core, k = two_core(lam)
        assert core == staircase(k)
        for _ in range(10):
            cur = lam
            while True:
                dominoes = []
                span = range(-len(cur), (cur[0] - 1) if cur else 0)
                for c in span:
                    if rim_hook(cur, c, c + 1) is not None:
                        dominoes.append(c)
                if not dominoes:
                    break
                c = rng.choice(dominoes)
                cur = delete_hook(cur, rim_hook(cur, c, c + 1))
            assert cur == core


def test_transpose():
    assert transpose((3, 1)) == (2, 1, 1)
    assert transpose(()) == ()
    assert transpose((2, 2)) == (2, 2)
    for lam in enumerate_partitions(14):
        assert transpose(transpose(lam)) == lam
        assert two_core(transpose(lam))[1] == two_core(lam)[1]


def test_enumerate_partitions_order_and_counts():
    assert list(enumerate_partitions(0)) == [()]
    assert list(enumerate_partitions(2)) == [(), (1,), (2,), (1, 1)]
    assert list(partitions_of(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    seen = list(enumerate_partitions(9))
    assert len(seen) == len(set(seen))
    for n in range(10):
        group = [lam for lam in seen if sum(lam) == n]
        assert len(group) == partition_count(n)
        # descending lexicographic within a size class
        assert group == sorted(group, reverse=True)
    assert len(list(enumerate_partitions(6))) == 30


def test_staircase_containment_monotone():
    for lam in enumerate_partitions(10):
        flags = [contains(lam, staircase(k)) for k in range(6)]
        assert flags == sorted(flags, reverse=True)
