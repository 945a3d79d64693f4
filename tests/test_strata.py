import pytest
from hypothesis import given, settings, strategies as st

from peritl.cli import cmd_cell
from peritl.fock import support_bounds, xi_on_partition
from peritl.partitions import Partition, contains, enumerate_partitions, staircase
from peritl.strata import (
    block_index,
    cell_index,
    in_ideal,
    j_set,
    j_zero_set,
    quasi_order_compare,
    summand_labels,
)

from helpers import (
    mid_partitions,
    oracle_box_addition_path,
    oracle_cell_index,
)


def test_cell_index_examples():
    assert cell_index(()) == 0
    assert cell_index((2,)) == 1
    assert cell_index((3, 2, 2, 2)) == 3
    for k in range(7):
        assert cell_index(staircase(k)) == k


def test_in_ideal_examples():
    assert in_ideal((1,), 1)
    assert not in_ideal((2,), 2)
    for lam in enumerate_partitions(8):
        assert in_ideal(lam, 0)


def test_block_vs_cell_are_independent():
    # (2,) strips to the empty 2-core but contains the one-box staircase
    assert block_index((2,)) == 0
    assert cell_index((2,)) == 1


def test_quasi_order():
    assert quasi_order_compare((), (1, 1)) == "Less"
    assert quasi_order_compare((2,), (1,)) == "Equal"
    assert quasi_order_compare((3, 2, 1), (1,)) == "Greater"


def test_j_sets():
    assert j_set(5) == {5, 3, 1}
    assert j_zero_set(5) == {5, 3, 1}
    assert j_set(4) == {4, 2, 0}
    assert j_zero_set(4) == {4, 2}
    assert j_set(0) == {0}
    assert j_zero_set(0) == {0}
    assert j_set(1) == {1} == j_zero_set(1)
    assert j_set(2) == {2, 0} and j_zero_set(2) == {2}
    with pytest.raises(ValueError):
        j_set(-1)


def test_summand_labels_tables():
    assert summand_labels(1, 1) == [((1,), True, True)]
    assert summand_labels(5, 1) == [((1,), True, False)]
    table = summand_labels(1, 3)
    assert table == [
        ((1,), True, True),
        ((3,), True, True),
        ((2, 1), False, False),
        ((1, 1, 1), True, True),
    ]
    for n in range(1, 5):
        for r in range(9):
            for lam, appears, projective in summand_labels(n, r):
                assert sum(lam) in j_zero_set(r)
                assert appears == (cell_index(lam) <= n)
                assert projective == (appears and cell_index(lam) == n)
                assert not projective or appears


def test_ideal_closure():
    # every nonzero twisted step stays inside the ideal it starts from
    checked = 0
    for k in range(4):
        for lam in enumerate_partitions(10):
            if not in_ideal(lam, k):
                continue
            qmin, qmax = support_bounds(lam)
            for q in range(qmin - 2, qmax + 3):
                kappa = xi_on_partition(lam, q)
                assert kappa is None or in_ideal(kappa, k), (k, lam, q, kappa)
                checked += kappa is not None
    assert checked > 0


def test_ideal_chain_strict():
    for k in range(5):
        step = staircase(k)
        assert in_ideal(step, k) and not in_ideal(step, k + 1)
    for lam in enumerate_partitions(10):
        for k in range(5):
            if in_ideal(lam, k + 1):
                assert in_ideal(lam, k)


def test_box_addition_path_generates_ideal():
    for k in range(4):
        base = staircase(k)
        for lam in enumerate_partitions(9):
            if not in_ideal(lam, k):
                continue
            cur = base
            for at, q in oracle_box_addition_path(base, lam):
                assert at == cur
                nxt = xi_on_partition(cur, q)
                assert nxt is not None and in_ideal(nxt, k)
                cur = nxt
            assert cur == lam


def test_xi_changes_size_parity():
    for lam in enumerate_partitions(10):
        qmin, qmax = support_bounds(lam)
        for q in range(qmin, qmax + 1):
            kappa = xi_on_partition(lam, q)
            if kappa is not None:
                assert (sum(kappa) + sum(lam)) % 2 == 1


def test_stratum_report():
    assert cmd_cell((2,)) == {
        "partition": [2],
        "cell": 1,
        "block": 0,
        "ideals": {"0": True, "1": True, "2": False},
    }
    assert cmd_cell((3, 2, 1), up_to=4)["ideals"] == {
        "0": True, "1": True, "2": True, "3": True, "4": False,
    }


def check_against_oracles(lam: Partition) -> None:
    """cell_index, in_ideal and the `cell` command of lam against staircase
    containment and the staircase-by-staircase oracle."""
    cell = cell_index(lam)
    assert cell == oracle_cell_index(lam), lam
    with pytest.raises(ValueError):
        in_ideal(lam, -1)
    for k in range(cell + 3):
        assert in_ideal(lam, k) == contains(lam, staircase(k)), (lam, k)
    assert cmd_cell(lam, cell + 2) == {
        "partition": list(lam),
        "cell": cell,
        "block": block_index(lam),
        "ideals": {str(k): contains(lam, staircase(k)) for k in range(cell + 3)},
    }


def test_strata_against_oracles_exhaustive():
    for lam in enumerate_partitions(14):
        check_against_oracles(lam)


@given(mid_partitions(1000))
@settings(max_examples=60, deadline=None)
def test_strata_against_oracles_mid_scale(lam):
    check_against_oracles(lam)


@st.composite
def noisy_staircases(draw) -> Partition:
    """staircase(k) for k <= 300 with every row moved by -2..2 boxes and a
    tail of single boxes."""
    k = draw(st.integers(0, 300))
    rows = [max(0, k - i + draw(st.integers(-2, 2))) for i in range(k)]
    rows += [1] * draw(st.integers(0, 5))
    return tuple(sorted((r for r in rows if r), reverse=True))


@given(noisy_staircases())
@settings(max_examples=60, deadline=None)
def test_strata_against_oracles_noisy_staircases(lam):
    check_against_oracles(lam)
