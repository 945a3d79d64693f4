import cProfile
import inspect

import pytest

import peritl
from peritl import cli, fock, strata
from peritl.verify import SUITE_NAMES, run_suite


@pytest.mark.parametrize("suite", [s for s in SUITE_NAMES if s != "all"])
def test_each_suite_clean(suite):
    report = run_suite(suite, max_size=8, window=2, seed=0)
    assert report.ok, report.failures[:3]
    assert report.checked > 0
    assert report.suite == suite


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("bogus")


def test_report_shape_and_determinism():
    a = run_suite("fcs-basis", max_size=6, window=2, seed=3)
    b = run_suite("fcs-basis", max_size=6, window=2, seed=3)
    assert a.to_json_dict() == b.to_json_dict()
    data = a.to_json_dict()
    assert set(data) == {"suite", "parameters", "checked", "failures"}


def test_all_aggregates():
    report = run_suite("all", max_size=6, window=2, seed=0)
    assert report.ok
    names = [entry["suite"] for entry in report.parameters["suites"]]
    assert names == [s for s in SUITE_NAMES if s != "all"]
    assert report.checked == sum(e["checked"] for e in report.parameters["suites"])


def missed_operations(suite: str) -> list[str]:
    """Public operations (the functions exported by peritl plus the cli.cmd_*
    command bodies) that a profiled `cmd_verify` run of `suite` never called."""
    commands = {k: v for k, v in vars(cli).items() if k.startswith("cmd_")}
    operations = {
        fn.__code__: f"{fn.__module__.rsplit('.', 1)[-1]}.{name}"
        for name, fn in {**vars(peritl), **commands}.items()
        if inspect.isfunction(fn)
    }
    assert len(operations) == 55
    prof = cProfile.Profile()
    report = prof.runcall(cli.cmd_verify, suite, max_size=6, window=2, seed=0)
    assert report.ok
    called = {entry.code for entry in prof.getstats() if entry.callcount}
    return sorted(name for code, name in operations.items() if code not in called)


def test_verify_all_touches_every_operation():
    missed = missed_operations("all")
    assert not missed, f"operations never exercised: {missed}"


def test_operation_coverage_reports_a_miss():
    missed = missed_operations("marking")
    assert "tl.normalize" in missed and "cli.cmd_witness" in missed


def test_relation_laws_catch_a_planted_fault(monkeypatch):
    # send (1,) to (1, 1) under the index-1 generator; the true image is (2,)
    true_xi = fock.xi_on_partition

    def planted(lam, q):
        return (1, 1) if (lam, q) == ((1,), 1) else true_xi(lam, q)

    monkeypatch.setattr(fock, "xi_on_partition", planted)
    report = run_suite("tl-relations", 4, 3, 0)
    assert report.failures == [
        {"law": "far-commutation", "rep": "xi", "partition": [1], "i": -2, "j": 1},
        {"law": "far-commutation", "rep": "xi", "partition": [1], "i": -1, "j": 1},
        {"law": "square-zero", "rep": "xi", "partition": [1], "i": 1},
        {"law": "contraction", "rep": "xi", "partition": [1], "i": 1, "pm": 1},
        {"law": "contraction", "rep": "xi", "partition": [3], "i": 1, "pm": -1},
    ]


@pytest.mark.parametrize("lam, shift", [((3, 1), -1), ((3, 2, 1), 1)])
def test_ideal_laws_catch_a_planted_fault(monkeypatch, lam, shift):
    # membership is a threshold on the cell index, so a wrong cell index
    # must show against staircase containment
    true_cell = strata.cell_index

    def planted(mu):
        return true_cell(mu) + (shift if mu == lam else 0)

    monkeypatch.setattr(strata, "cell_index", planted)
    report = run_suite("ideals", 6, 2, 0)
    assert [f for f in report.failures if f["law"] == "cell-index-consistency"] == [
        {"law": "cell-index-consistency", "partition": list(lam)},
    ]
