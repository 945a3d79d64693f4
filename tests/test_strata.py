import pytest
from hypothesis import given, settings, strategies as st

from peritl.fock import support_bounds, xi_on_partition
from peritl.partitions import Partition, contains, enumerate_partitions, staircase
from peritl.strata import (
    block_index,
    box_addition_path,
    cell_index,
    ideal_closure_check,
    in_ideal,
    j_set,
    j_zero_set,
    quasi_order_compare,
    stratum_report,
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
    for k in range(4):
        report = ideal_closure_check(k, 10)
        assert report["violations"] == []
        assert report["checked"] > 0


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
            path = box_addition_path(base, lam)
            cur = base
            for at, q in path:
                assert at == cur
                nxt = xi_on_partition(cur, q)
                assert nxt is not None and in_ideal(nxt, k)
                cur = nxt
            assert cur == lam
    with pytest.raises(ValueError):
        box_addition_path((2,), (1,))


def test_xi_changes_size_parity():
    for lam in enumerate_partitions(10):
        qmin, qmax = support_bounds(lam)
        for q in range(qmin, qmax + 1):
            kappa = xi_on_partition(lam, q)
            if kappa is not None:
                assert (sum(kappa) + sum(lam)) % 2 == 1


def test_stratum_report():
    report = stratum_report((2,))
    assert report.cell == 1 and report.block == 0
    assert report.to_json_dict() == {
        "partition": [2],
        "cell": 1,
        "block": 0,
        "ideals": {"0": True, "1": True, "2": False},
    }
    wide = stratum_report((3, 2, 1), ideal_ks=range(5))
    assert wide.to_json_dict()["ideals"] == {
        "0": True, "1": True, "2": True, "3": True, "4": False,
    }


def check_against_oracles(lam: Partition) -> None:
    """cell_index, in_ideal, stratum_report and box_addition_path of lam
    against staircase containment and the staircase-by-staircase and
    rescanning oracles; the paths start at staircase(k), cell - 2 <= k <= cell."""
    cell = cell_index(lam)
    assert cell == oracle_cell_index(lam), lam
    with pytest.raises(ValueError):
        in_ideal(lam, -1)
    for k in range(cell + 3):
        assert in_ideal(lam, k) == contains(lam, staircase(k)), (lam, k)
    report = stratum_report(lam, range(cell + 3))
    assert report.cell == cell and report.block == block_index(lam)
    assert report.ideals == {k: contains(lam, staircase(k)) for k in range(cell + 3)}
    for k in range(max(cell - 2, 0), cell + 1):
        base = staircase(k)
        assert box_addition_path(base, lam) == oracle_box_addition_path(base, lam)


def test_strata_against_oracles_exhaustive():
    for lam in enumerate_partitions(14):
        check_against_oracles(lam)


def test_box_addition_path_against_oracle_for_every_start():
    for lam in enumerate_partitions(8):
        for mu in enumerate_partitions(sum(lam)):
            if contains(lam, mu):
                assert box_addition_path(mu, lam) == oracle_box_addition_path(mu, lam)


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


def test_stratum_report_rejects_negative_ideals():
    with pytest.raises(ValueError):
        stratum_report((2, 1), range(-1, 3))
