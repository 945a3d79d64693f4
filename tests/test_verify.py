import cProfile
import importlib.util
import inspect
import json
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

from peritl import cli, fock, strata, tl, verify, weights
from peritl.partitions import (
    add_box,
    addable_contents,
    enumerate_partitions,
    remove_box,
    removable_contents,
)
from peritl.verify import SUITE_NAMES, run_suite

from helpers import (
    exported_operations,
    oracle_relation_report,
    step_case,
    untested_law_names,
    verify_law_names,
)


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
    # reports built with the defaults share no list
    c, d = verify.VerifyReport(suite="c", parameters={}), verify.VerifyReport("d", {})
    assert (c.checked, c.failures, c.elapsed, c.parts) == (0, [], 0.0, [])
    c.check(False, law="x")
    c.parts.append(a)
    assert c.failures == [{"law": "x"}] and c.parts == [a]
    assert d.failures == [] and d.parts == [] and d.ok


def test_all_aggregates():
    report = run_suite("all", max_size=6, window=2, seed=0)
    assert report.ok
    names = [entry["suite"] for entry in report.parameters["suites"]]
    assert names == [s for s in SUITE_NAMES if s != "all"]
    assert report.checked == sum(e["checked"] for e in report.parameters["suites"])


def test_traced_all_keeps_a_span_per_suite(monkeypatch):
    # bench/tracer.py times each suite of a traced verify-sweep by wrapping
    # the public run_suite, so "all" must run its suites through that name
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    )
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    for name, module in list(sys.modules.items()):
        if name == "peritl" or name.startswith("peritl."):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value):
                    monkeypatch.setattr(module, attr, value)  # unwrapped after the test
    tracer = tracer_module.Tracer()
    tracer.install({})
    report = verify.run_suite("all", max_size=5, window=2, seed=0)
    suites = [s for s in SUITE_NAMES if s != "all"]
    assert [span["name"] for span in tracer.spans] == [f"verify.{s}" for s in ["all", *suites]]
    assert all(span["parent"] == 0 and span["checks"] > 0 for span in tracer.spans[1:])
    assert sum(span["checks"] for span in tracer.spans[1:]) == report.checked


def missed_operations(suite: str) -> list[str]:
    """Public operations (the functions exported by peritl plus the cli.cmd_*
    command bodies) that a profiled `run_suite` run of `suite` never called."""
    operations = exported_operations()
    assert len(operations) == 46
    prof = cProfile.Profile()
    report = prof.runcall(run_suite, suite, max_size=6, window=2, seed=0)
    assert report.ok
    called = {entry.code for entry in prof.getstats() if entry.callcount}
    return sorted(name for code, name in operations.items() if code not in called)


def test_verify_all_touches_every_operation():
    missed = missed_operations("all")
    assert not missed, f"operations never exercised: {missed}"


def test_operation_coverage_reports_a_miss():
    missed = missed_operations("marking")
    assert "tl.normalize" in missed and "cli.cmd_witness" in missed


# the failures of tl-relations at (4, 3, 0) when (1,) goes to (1, 1) under the
# index-1 generator; the true image is (2,)
PLANTED_RELATION_FAILURES = [
    {"law": "far-commutation", "rep": "xi", "partition": [1], "i": -2, "j": 1},
    {"law": "far-commutation", "rep": "xi", "partition": [1], "i": -1, "j": 1},
    {"law": "square-zero", "rep": "xi", "partition": [1], "i": 1},
    {"law": "contraction", "rep": "xi", "partition": [1], "i": 1, "pm": 1},
    {"law": "contraction", "rep": "xi", "partition": [3], "i": 1, "pm": -1},
]


def _plant_result(monkeypatch, module, name, args, result):
    """`module.name` returns `result` on the arguments `args`."""
    true_fn = getattr(module, name)

    def planted(*given):
        return result if given == args else true_fn(*given)

    monkeypatch.setattr(module, name, planted)


def _plant_xi_at(monkeypatch, lam, q, image):
    _plant_result(monkeypatch, fock, "xi_on_partition", (lam, q), image)


def _plant_relation_fault(monkeypatch):
    _plant_xi_at(monkeypatch, (1,), 1, (1, 1))


def test_relation_laws_catch_a_planted_fault(monkeypatch):
    _plant_relation_fault(monkeypatch)
    report = run_suite("tl-relations", 4, 3, 0)
    assert report.failures == PLANTED_RELATION_FAILURES


# the failures of tl-prime-relations at (4, 3, 0) when the plain index-1
# generator drops the removed box of (1,); the true image is (2,) + ()
PLANTED_PRIME_RELATION_FAILURES = [
    {"law": "contraction", "rep": "xi-prime", "partition": [], "i": 0, "pm": 1},
    {"law": "contraction", "rep": "xi-prime", "partition": [1], "i": 1, "pm": -1},
    {"law": "contraction", "rep": "xi-prime", "partition": [1, 1], "i": 0, "pm": 1},
]


def test_prime_relation_laws_catch_a_planted_fault(monkeypatch):
    _plant_xi_prime_image(monkeypatch, (1,), 1, ((2,),))
    report = run_suite("tl-prime-relations", 4, 3, 0)
    assert report.checked == 631
    assert report.failures == PLANTED_PRIME_RELATION_FAILURES


def test_no_image_outlives_a_run(monkeypatch):
    # each run computes its images afresh: a clean run leaves nothing that
    # hides a plant, and a planted run leaves nothing that outlives the plant
    assert run_suite("tl-relations", 4, 3, 0).ok
    with monkeypatch.context() as patch:
        _plant_relation_fault(patch)
        assert run_suite("tl-relations", 4, 3, 0).failures == PLANTED_RELATION_FAILURES
    assert run_suite("tl-relations", 4, 3, 0).ok


def test_verify_all_computes_each_image_once(monkeypatch):
    # every image a suite asks for is computed once per run, by fock.images
    # with the run's table; only tensor_rows and the replayed command examples
    # (`act`, and `witness` through faithfulness_witness), which pass no table
    # as the commands do, compute their own
    tabled, untabled = Counter(), Counter()

    def suite_of(frame):
        while not frame.f_code.co_name.startswith("_suite_"):
            frame = frame.f_back
        return frame.f_code.co_name

    def counting(fn):
        def wrapper(lam, q):
            caller = sys._getframe(1)
            if caller.f_code is fock.images.__code__:
                if caller.f_locals.get("table") is not None:
                    tabled[fn.__name__, lam, q] += 1
                    return fn(lam, q)
                caller = caller.f_back
            untabled[suite_of(caller), caller.f_code.co_name] += 1
            return fn(lam, q)
        return wrapper

    for name in ("xi_on_partition", "xi_prime_on_partition"):
        monkeypatch.setattr(fock, name, counting(getattr(fock, name)))
    assert run_suite("all", 8, 2, 0).ok
    assert {name for name, _, _ in tabled} == {"xi_on_partition", "xi_prime_on_partition"}
    assert max(tabled.values()) == 1
    assert set(untabled) == {
        ("_suite_cli_examples", "apply_word"),
        ("_suite_cli_examples", "tensor_rows"),
        ("_suite_remove_box", "tensor_rows"),
    }


@pytest.mark.parametrize(
    "suite", ["tl-relations", "tl-prime-relations", "preserve", "remove-box", "ideals"]
)
def test_single_image_suites_fill_the_table_without_apply_word(monkeypatch, suite):
    # these suites read single images through fock.images alone; a fill that
    # went through a whole apply_word call would show up here
    calls = []
    apply_word = fock.apply_word

    def counting(*args, **kwargs):
        calls.append(args)
        return apply_word(*args, **kwargs)

    monkeypatch.setattr(fock, "apply_word", counting)
    table: dict = {}
    assert run_suite(suite, 6, 3, 0, table=table).ok
    assert table
    assert calls == []


def test_a_run_stores_one_object_per_partition():
    # the table interns what it stores: equal partitions, whether row keys or
    # images, are one object, and so are equal twisted images
    table: dict = {}
    assert run_suite("all", 8, 2, 0, table=table).ok
    del table[None]  # the pool itself
    first: dict = {}
    for (rep, _), row in table.items():
        for lam, images in row.items():
            assert type(images) is tuple
            for mu in (lam, *images):
                assert first.setdefault(mu, mu) is mu
            if rep == "xi":
                assert first.setdefault(images, images) is images
    assert len(first) > len(list(enumerate_partitions(8)))


def test_trie_walk_matches_bottom_sector():
    # the faithfulness suite reads every bottom sector off one walk of a
    # suffix trie per partition; tl.bottom_sector is the oracle, None included
    words = [tl.fcs_to_word(w) for w in tl.fcs_words_in_range(-3, 3, 6)]
    trie = verify._suffix_trie(words)
    live = 0
    for lam in enumerate_partitions(12):
        want = [(k, part) for k, word in enumerate(words)
                if (part := tl.bottom_sector(word, lam)) is not None]
        assert verify._bottom_sectors(trie, lam) == want, lam
        live += len(want)
    assert 0 < live < len(words) * len(list(enumerate_partitions(12)))


def _plant_xi_image(monkeypatch):
    # send (2, 1) to (1,) under the index-0 generator; the true image is (2, 2)
    _plant_xi_at(monkeypatch, (2, 1), 0, (1,))


# (partition, q, planted twisted image, max-size) and the checks and failures
# of preserve at that max-size and (2, 0)
PLANTED_CLOSURE_FAULTS = [
    # (1,) has left the ideal of staircase (2, 1) that its preimage is in
    ((2, 1), 0, (1,), 5, 444,
     [{"law": "ideal-closure", "k": 2, "partition": [2, 1], "q": 0, "image": [1]}]),
    # staircase(5), of 15 boxes, goes to (5, 4, 3, 2) and leaves ideal 5; the
    # true image is (5, 4, 4, 2, 1)
    ((5, 4, 3, 2, 1), 1, (5, 4, 3, 2), 15, 41_315,
     [{"law": "ideal-closure", "k": 5, "partition": [5, 4, 3, 2, 1], "q": 1,
       "image": [5, 4, 3, 2]}]),
]


def test_closure_law_catches_a_planted_fault(monkeypatch):
    for lam, q, image, max_size, checked, failures in PLANTED_CLOSURE_FAULTS:
        with monkeypatch.context() as patch:
            _plant_xi_at(patch, lam, q, image)
            report = run_suite("preserve", max_size, 2, 0)
        assert report.checked == checked, lam
        assert report.failures == failures


def test_closure_failures_come_k_by_k(monkeypatch):
    # besides the plant above, (3, 2) goes to () under the index-0 generator
    # (the true image is 0), leaving the ideals of k = 1 and 2: the records
    # run over every (lam, q) for k = 1 before any for k = 2
    true_xi = fock.xi_on_partition
    plants = {((2, 1), 0): (1,), ((3, 2), 0): ()}

    def planted(lam, q):
        return plants[lam, q] if (lam, q) in plants else true_xi(lam, q)

    monkeypatch.setattr(fock, "xi_on_partition", planted)
    report = run_suite("preserve", 5, 2, 0)
    assert report.checked == 444
    assert report.failures == [
        {"law": "ideal-closure", "k": 1, "partition": [3, 2], "q": 0, "image": []},
        {"law": "ideal-closure", "k": 2, "partition": [2, 1], "q": 0, "image": [1]},
        {"law": "ideal-closure", "k": 2, "partition": [3, 2], "q": 0, "image": []},
    ]


def test_block_multiplicity_laws_catch_a_planted_fault(monkeypatch):
    # tensor_rows reads the same planted action, so only the added box shows
    _plant_xi_image(monkeypatch)
    report = run_suite("remove-box", 5, 2, 0)
    assert report.checked == 82
    assert report.failures == [
        {"law": "added-box-multiplicity", "nu": [2, 1], "q": 0},
    ]


@pytest.mark.parametrize("q, law", [(-1, "removed-left-neighbour"), (1, "removed-right-neighbour")])
def test_removed_neighbour_laws_catch_a_planted_fault(monkeypatch, q, law):
    # the twisted generator q kills (2, 2), which should lose its content-0
    # box, the box's neighbour of content q being removable after it;
    # tensor_rows reads the same planted action, so its row stays consistent
    true_xi = fock.xi_on_partition

    def planted(lam, p):
        return None if (lam, p) == ((2, 2), q) else true_xi(lam, p)

    monkeypatch.setattr(fock, "xi_on_partition", planted)
    report = run_suite("remove-box", 5, 2, 0)
    assert report.checked == 82
    assert report.failures == [{"law": law, "nu": [2, 2], "q": 0}]


def test_row_sum_law_catches_a_planted_fault(monkeypatch):
    # the box-tensor row of (2, 1) loses its last (lowest-index) entry
    true_rows = fock.tensor_rows

    def planted(nu):
        rows = true_rows(nu)
        return rows[:-1] if nu == (2, 1) else rows

    monkeypatch.setattr(fock, "tensor_rows", planted)
    report = run_suite("remove-box", 5, 2, 0)
    assert report.checked == 82
    assert report.failures == [{"law": "row-sum-consistency", "nu": [2, 1]}]


def _plant_xi_prime_image(monkeypatch, lam, q, image):
    true_xi_prime = fock.xi_prime_on_partition

    def planted(mu, p):
        return image if (mu, p) == (lam, q) else true_xi_prime(mu, p)

    monkeypatch.setattr(fock, "xi_prime_on_partition", planted)


def _plant_two_terms(monkeypatch):
    # the twisted index-1 generator sends (1,) to two terms; the true image
    # is the single term (2,)
    true_apply = fock.apply_word

    def planted(vec, word, rep="xi", table=None):
        if (vec, list(word), rep) == ({(1,): 1}, [1], "xi"):
            return {(2,): 1, (1, 1): 1}
        return true_apply(vec, word, rep, table)

    monkeypatch.setattr(fock, "apply_word", planted)


def _plant_block_index(monkeypatch):
    # one high on (2,), so (1, 1), whose transpose it is, fails as well
    true_block = strata.block_index

    def planted(lam):
        return true_block(lam) + (lam == (2,))

    monkeypatch.setattr(strata, "block_index", planted)


# one planted fault per shape law of the single-generator actions and for
# the block index, with the suite at (4, 2, 0) and its checks and failures
PLANTED_SHAPE_FAULTS = {
    # (1,) has a removable 0-box (case B), so its index-0 image must be zero
    "case-bc-zero": (
        lambda mp: _plant_xi_at(mp, (1,), 0, (2,)), "single-term", 307,
        [{"law": "case-bc-zero", "partition": [1], "q": 0, "case": "B"}],
    ),
    # the index-1 image of (1,) is (2,); (3,) differs from (1,) by an even size
    "size-parity": (
        lambda mp: _plant_xi_at(mp, (1,), 1, (3,)), "single-term", 306,
        [{"law": "size-parity", "partition": [1], "q": 1, "image": [3]}],
    ),
    "single-unit-term": (
        _plant_two_terms, "single-term", 307,
        [{"law": "single-unit-term", "partition": [1], "q": 1}],
    ),
    # the plain index-1 image of (1,) loses its removed-box term ()
    "plain-action-is-add-plus-remove": (
        lambda mp: _plant_xi_prime_image(mp, (1,), 1, ((2,),)), "single-term", 306,
        [{"law": "plain-action-is-add-plus-remove", "partition": [1], "q": 1}],
    ),
    "block-index-parity": (
        _plant_block_index, "ideals", 306,
        [{"law": "block-index-parity", "partition": [2]},
         {"law": "block-index-parity", "partition": [1, 1]}],
    ),
}


@pytest.mark.parametrize("law", list(PLANTED_SHAPE_FAULTS))
def test_shape_laws_catch_a_planted_fault(monkeypatch, law):
    plant, suite, checked, failures = PLANTED_SHAPE_FAULTS[law]
    plant(monkeypatch)
    report = run_suite(suite, 4, 2, 0)
    assert report.checked == checked
    assert report.failures == failures


# one planted fault per law of the marking dictionary and its weights, with
# the suite at (4, 2, 0) and its checks and failures; the library proves
# each of these facts and checks none of them at run time
PLANTED_DICTIONARY_FAULTS = {
    # the marked boxes of (2, 1) come top row first, contents 1 then -1
    "marked-contents-increase": (
        lambda mp: _plant_result(mp, weights, "marking", ((2, 1),), ((1, 2), (2, 1))),
        "marking", 42, [{"law": "marked-contents-increase", "partition": [2, 1]}],
    ),
    # (2, 2) loses its top diamond: one diamond, cell index 2
    "diamond-count-is-cell-index": (
        lambda mp: _plant_result(mp, weights, "marking", ((2, 2),), ((2, 2),)),
        "marking", 42, [{"law": "diamond-count-is-cell-index", "partition": [2, 2]}],
    ),
    # the diamond of (2,) sits in its left box, not its right-most one
    "reference-marking": (
        lambda mp: _plant_result(mp, weights, "marking", ((2,),), ((1, 1),)),
        "marking", 42, [{"law": "reference-marking", "partition": [2]}],
    ),
    # the d-set of (2,) is its marked content 1, unshifted; the true one is {0}
    "d-set-is-shifted": (
        lambda mp: _plant_result(mp, weights, "d_set", ((2,),), {1}),
        "marking", 42, [{"law": "d-set-is-shifted", "partition": [2]}],
    ),
    # no marked content is ever q - 1 or q + 1, so no box addition applies
    "surgery-cases-exist": (
        lambda mp: mp.setattr(weights, "d_tilde", lambda lam: set()),
        "lemaddq", 81, [{"law": "surgery-cases-exist", "max_size": 4}],
    ),
    # the inverse sends {0} at rank 1 to (3,), whose d-set is {1}: both the
    # reference value and the round trip of (2,) fail
    "reference-inversion": (
        lambda mp: _plant_result(mp, weights, "partition_from_d_set", ({0}, 1), (3,)),
        "d-roundtrip", 15,
        [{"law": "reference-inversion", "subset": [0], "n": 1},
         {"law": "d-roundtrip", "partition": [2]}],
    ),
    # the rank-3 weights come out increasing: (-3, -2, -1) for staircase(3)
    "staircase-weight": (
        lambda mp: _plant_result(mp, weights, "weight_from_subset", ({1, -1, -3}, 3),
                                 (-3, -2, -1)),
        "proplink", 20, [{"law": "staircase-weight", "n": 3}],
    ),
    # the dictionary reads the d-set of (2,) one high
    "closed-form-vs-dictionary": (
        lambda mp: _plant_result(mp, weights, "d_set", ((2,),), {1}),
        "proplink", 20,
        [{"law": "closed-form-vs-dictionary", "partition": [2], "closed": [0],
          "dictionary": [1]}],
    ),
}


@pytest.mark.parametrize("law", list(PLANTED_DICTIONARY_FAULTS))
def test_dictionary_laws_catch_a_planted_fault(monkeypatch, law):
    plant, suite, checked, failures = PLANTED_DICTIONARY_FAULTS[law]
    plant(monkeypatch)
    report = run_suite(suite, 4, 2, 0)
    assert report.checked == checked
    assert report.failures == failures


def test_witness_sector_law_catches_a_planted_fault(monkeypatch):
    # e_0 gets the witness (), which has no content -1 box to remove; the
    # plain e_0 still acts nonzero on (), so no other law fails
    _plant_result(monkeypatch, tl, "witness_partition", (((0, 0),),), ())
    report = run_suite("faithfulness", 4, 2, 0)
    assert report.checked == 1667
    assert report.failures == [
        {"law": "witness-has-bottom-sector", "word": ((0, 0),), "partition": []},
    ]


def test_witness_sector_law_catches_a_witness_that_is_no_partition(monkeypatch):
    # witness_partition validates no rows: the law holds that its witness is
    # a partition.  The zero row of (1, 1, 0) still leaves e_0 a bottom sector
    _plant_result(monkeypatch, tl, "witness_partition", (((0, 0),),), (1, 1, 0))
    report = run_suite("faithfulness", 4, 2, 0)
    assert report.checked == 1667
    assert report.failures == [
        {"law": "witness-has-bottom-sector", "word": ((0, 0),), "partition": [1, 1, 0]},
    ]


def test_a_twisted_image_outside_the_window_is_a_record(monkeypatch, capsys):
    # the twisted generator 3 sends (1,) to (2,), where the window of (1,) is
    # [-1, 1]: the sweep writes the failures and exits 1, it does not stop
    _plant_xi_at(monkeypatch, (1,), 3, (2,))
    code = cli.main(["verify", "--suite", "all", "--max-size", "4"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["checked"] == 7764
    relation = {"suite": "tl-relations", "rep": "xi", "partition": [1]}
    assert report["failures"] == [
        {**relation, "law": "far-commutation", "i": -1, "j": 3},
        {**relation, "law": "far-commutation", "i": 0, "j": 3},
        {**relation, "law": "contraction", "i": 3, "pm": 1},
        {**relation, "law": "contraction", "i": 3, "pm": -1},
        {**relation, "law": "far-commutation", "partition": [2], "i": 0, "j": 3},
        {**relation, "law": "far-commutation", "partition": [1, 1], "i": 0, "j": 3},
        {"suite": "single-term", "law": "case-bc-zero", "partition": [1], "q": 3,
         "case": "C"},
        {"suite": "remove-box", "law": "row-sum-consistency", "nu": [1]},
    ]


# with no addable 1-box on (1,), staircase(k) for k <= 1 reaches no member of
# its ideal through (2,): the generation records of ideals at (4, 2, 0)
NO_ADDABLE_BOX_FAILURES = [
    {"law": "generation-path", "k": k, "partition": list(lam)}
    for k in (0, 1)
    for lam in [(2,), (3,), (2, 1), (4,), (3, 1), (2, 2), (2, 1, 1)]
]


@pytest.mark.parametrize("suite, checked, failures", [("ideals", 306, 47), ("all", 7762, 61)])
def test_a_missing_addable_box_is_a_record(monkeypatch, capsys, suite, checked, failures):
    # add_box finds no box of content 1 on (1,), wherever the name is read:
    # the generation law records the members it cannot reach, it does not
    # stop, and the box tensor's support misses every one-row label of two
    # boxes or more (33 summand-flags records)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "peritl" and hasattr(module, "add_box"):
            _plant_result(monkeypatch, module, "add_box", ((1,), 1), None)
    code = cli.main(["verify", "--suite", suite, "--max-size", "4"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["checked"] == checked
    assert len(report["failures"]) == failures
    generation = [f for f in report["failures"] if f["law"] == "generation-path"]
    assert [{k: v for k, v in f.items() if k != "suite"} for f in generation] == (
        NO_ADDABLE_BOX_FAILURES
    )
    summands = [f for f in report["failures"] if f["law"] == "summand-flags"]
    assert {tuple(f["partition"]) for f in summands} == {(1,), *((j,) for j in range(2, 7))}


# (partition, q, planted twisted image, max-size) and the checks and failures
# of ideals at that max-size and (2, 0)
PLANTED_WALK_FAULTS = [
    # the twisted generator -1 sends (2,) to (1, 1, 1), not (2, 1): still in
    # ideals 0 and 1, so every step stays in the ideal, but the walks through
    # (2,) towards a partition with a second row end elsewhere
    ((2,), -1, (1, 1, 1), 4, 306,
     [{"law": "generation-path", "k": k, "partition": lam}
      for k in (0, 1) for lam in [[2, 1], [2, 2], [2, 1, 1]]]),
    # the twisted generator 11 kills (11,), whose true image is (12,): only
    # the walks to (12,), of 12 boxes, take that step
    ((11,), 11, None, 12, 3_034,
     [{"law": "generation-path", "k": k, "partition": [12]} for k in (0, 1)]),
]


def test_the_generation_law_checks_where_the_walk_ends(monkeypatch):
    for lam, q, image, max_size, checked, failures in PLANTED_WALK_FAULTS:
        with monkeypatch.context() as patch:
            _plant_xi_at(patch, lam, q, image)
            report = run_suite("ideals", max_size, 2, 0)
        assert report.checked == checked, lam
        assert report.failures == failures


def test_an_increasing_decoded_weight_is_a_record(monkeypatch):
    # the subset sorts ascending, so every weight of rank 2 or more increases
    monkeypatch.setattr(weights, "_decreasing_subset", lambda subset, n: sorted(set(subset)))
    report = run_suite("proplink", 4, 2, 0)
    assert report.checked == 20
    assert report.failures == [{"law": "staircase-weight", "n": n} for n in range(2, 9)] + [
        {"law": "closed-form-vs-dictionary", "partition": list(lam), "closed": closed,
         "dictionary": dictionary}
        for lam, closed, dictionary in [
            ((2, 1), [-1, -2], [-3, 0]), ((3, 1), [0, -2], [-3, 1]),
            ((2, 2), [-1, -1], [-2, 0]), ((2, 1, 1), [-1, -3], [-4, 0]),
        ]
    ]


def test_a_closed_form_error_is_a_record(monkeypatch):
    # a cell index one low on (2,) leaves its closed form no admissible cut
    _plant_result(monkeypatch, weights, "cell_index", ((2,),), 0)
    report = run_suite("proplink", 4, 2, 0)
    assert report.checked == 20
    assert report.failures == [
        {"law": "closed-form-vs-dictionary", "partition": [2],
         "error": "no admissible cut for (2,) at rank 0"},
    ]


# the failures of fcs-basis at (5, 2, 0) when the plain index-0 generator
# kills (2, 1); the true image is (2, 2) + (2,)
PLANTED_FACTORIZATION_FAILURES = [
    {"law": "action-factors-through-diagrams", "u": [1], "v": [1, 0, 1]},
    {"law": "action-factors-through-diagrams", "u": [-1], "v": [-1, 0, -1]},
    {"law": "action-factors-through-diagrams", "u": [1], "v": [1, 0, -1, 0, 1]},
    {"law": "action-factors-through-diagrams", "u": [-1], "v": [-1, 0, -1]},
    {"law": "action-factors-through-diagrams", "u": [0, -2], "v": [-2, 0]},
    # a product of two words acts on the witness partition of the longer
    {"law": "associativity",
     "words": [((2, 2), (1, 1), (-2, -2)), ((0, 1), (-1, 0)), ((1, 1), (-2, -2))]},
    {"law": "associativity",
     "words": [((0, 0), (-1, -1), (-2, -2)), ((2, 2), (1, 1)), ((1, 2), (0, 0), (-1, -1))]},
    {"law": "associativity",
     "words": [((-1, 0), (-2, -1)), ((0, 1), (-1, -1), (-2, -2)), ((2, 2), (-2, -2))]},
]

# ... and when it sends () to (1,) + (); the true image is (1,)
PLANTED_ZERO_DIAGRAM_FAILURES = [
    {"law": "action-factors-through-diagrams", "u": [0], "v": [0, 1, 0]},
    {"law": "action-factors-through-diagrams", "u": [2, -2, 1, 1, -2, 1],
     "v": [-1, 0, 0, 1]},
    {"law": "action-factors-through-diagrams", "u": [0, 0],
     "v": [0, -2, 3, -3, -1, 1, -1]},
    {"law": "zero-diagram-zero-action", "u": [0, 0]},
]


def test_distinct_diagrams_law_catches_a_planted_fault(monkeypatch):
    # the enumeration lists one normal form twice; the failure names the word
    # alone, however its diagram is composed
    true_words = tl.fcs_words_in_range

    def planted(lo, hi, max_len=None):
        for w in true_words(lo, hi, max_len):
            yield w
            if w == ((1, 2), (0, 0)):
                yield w

    monkeypatch.setattr(tl, "fcs_words_in_range", planted)
    report = run_suite("fcs-basis", 5, 2, 0)
    assert report.checked == 1108
    assert report.failures == [{"law": "distinct-diagrams", "word": ((1, 2), (0, 0))}]


def test_a_duplicated_plain_image_is_a_coefficient_two_term(monkeypatch):
    # the plain index-1 generator sends (1,) to (2,) twice and to (); the
    # true image is (2,) + (), so the action reads 2 (2,) + ()
    _plant_xi_prime_image(monkeypatch, (1,), 1, ((2,), (2,), ()))
    assert fock.apply_word({(1,): 1}, [1], "xi-prime") == {(2,): 2, (): 1}
    report = run_suite("single-term", 4, 2, 0)
    assert report.checked == 306
    assert report.failures == [
        {"law": "plain-action-is-add-plus-remove", "partition": [1], "q": 1},
    ]


def test_roundtrip_law_catches_a_planted_fault(monkeypatch):
    # normalize reads e_1 e_0 as e_0 e_1
    true_normalize = tl.normalize

    def planted(word):
        word = list(word)
        return ((0, 1),) if word == [1, 0] else true_normalize(word)

    monkeypatch.setattr(tl, "normalize", planted)
    report = run_suite("fcs-basis", 5, 2, 0)
    assert report.checked == 1106
    assert report.failures == [{"law": "normal-form-roundtrip", "word": ((1, 1), (0, 0))}]


def _plant_normal_form(monkeypatch, word, change):
    """`tl.normalize` answers `change(nf)` for the letters `word`, where nf is
    the true normal form, whoever calls it."""
    true_normalize = tl.normalize

    def planted(letters):
        nf = true_normalize(letters)
        return change(nf) if list(letters) == word else nf

    monkeypatch.setattr(tl, "normalize", planted)


@pytest.mark.parametrize("word, change, failures", [
    # drops the last interval of ((3, 3), (1, 1), (-3, -2))
    ([3, 1, -3, -2], lambda nf: nf[:-1],
     [{"law": "action-factors-through-diagrams", "u": [3, 1, -3, -2], "v": [3, -3, 1, -2]}]),
    # calls e_0 e_-3, drawn twice, zero
    ([0, -3], lambda nf: None,
     [{"law": "action-factors-through-diagrams", "u": [0, -3], "v": [-3, 0]}] * 2),
])
def test_factorization_law_checks_normalize_against_the_diagram(monkeypatch, word, change, failures):
    _plant_normal_form(monkeypatch, word, change)
    report = run_suite("fcs-basis", 5, 2, 0)
    assert report.checked == 1106
    assert report.failures == failures


def test_factorization_law_records_a_normal_form_that_is_not_fully_commutative(monkeypatch):
    # the starts of ((0, 0), (-3, -3)) listed the wrong way round
    _plant_normal_form(monkeypatch, [0, -3], lambda nf: nf[::-1])
    report = run_suite("fcs-basis", 5, 2, 0)
    assert report.checked == 1106
    assert report.failures == [
        {"law": "action-factors-through-diagrams", "u": [0, -3], "v": [-3, 0]}] * 2


def test_factorization_law_catches_a_planted_fault(monkeypatch):
    _plant_xi_prime_image(monkeypatch, (2, 1), 0, ())
    report = run_suite("fcs-basis", 5, 2, 0)
    assert report.checked == 1106
    assert report.failures == PLANTED_FACTORIZATION_FAILURES


# one fault in each case of the diagram step d e_q, and what it does to
# fcs-basis at (6, 2, 0): a missed loop reads the loop as 1 (e_q e_q = e_q),
# a diagram that only the action laws can tell apart; every other fault
# breaks TLDiagram's invariant, so its validator raises, which the CLI
# reports as exit 4 with one error line
PLANTED_STEP_FAULTS = {
    "loop": (lambda d, q, right: d, None),
    # the new upper arc (q, q+1), where it should join the far ends
    "both-free": (lambda d, q, right: tl.TLDiagram(right.bottom_arcs, d.top_arcs | {(q, q + 1)}),
                  "two arcs of [(-2, -1), (-1, 0), (2, 3)] share an endpoint"),
    # the two joined arcs dropped, with no arc joining their far ends
    "both-arc-ends": (lambda d, q, right: tl.TLDiagram(
        right.bottom_arcs & d.bottom_arcs | {(q, q + 1)}, right.top_arcs),
        "lower and upper rows must carry equally many arcs"),
    # the arc dropped, but no new lower arc (q, q+1)
    "one-arc-end": (lambda d, q, right: tl.TLDiagram(right.bottom_arcs - {(q, q + 1)}, right.top_arcs),
                    "lower and upper rows must carry equally many arcs"),
}


@pytest.mark.parametrize("case", PLANTED_STEP_FAULTS)
def test_a_fault_in_each_case_of_the_diagram_step_is_caught(monkeypatch, capsys, case):
    true_step = tl._times_generator
    fault, message = PLANTED_STEP_FAULTS[case]

    def planted(d, q):
        right = true_step(d, q)
        return fault(d, q, right) if step_case(d, q) == case else right

    monkeypatch.setattr(tl, "_times_generator", planted)
    if message is None:
        report = run_suite("fcs-basis", 6, 2, 0)
        # no diagram is zero any more, so zero-diagram-zero-action never runs
        assert report.checked == 836
        assert Counter(f["law"] for f in report.failures) == {"action-factors-through-diagrams": 271}
        return
    with pytest.raises(ValueError, match=re.escape(message)):
        run_suite("fcs-basis", 6, 2, 0)
    code = cli.main(["verify", "--suite", "fcs-basis", "--max-size", "6", "--window", "2"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (4, "")
    assert captured.err == f"error: internal invariant violated: ValueError: {message}\n"


# the failures of fcs-basis at (10, 3, 0) when the plain index-0 generator
# sends the 10-box operand partition (3, 3, 2, 1, 1) to (3, 3, 3, 1, 1)
# alone; the true image also holds (3, 3, 1, 1, 1).  Each word's last letter
# acts on the whole operand once, shared by the words that end in it, as in
# [-3, 0] below
PLANTED_FIRST_LETTER_FAILURES = [
    {"law": "action-factors-through-diagrams", "u": [0, -3], "v": [-3, 0]},
    {"law": "action-factors-through-diagrams", "u": [0, 3], "v": [0, -1, 3, 0]},
    {"law": "action-factors-through-diagrams", "u": [-1], "v": [-1, 0, -1]},
    {"law": "action-factors-through-diagrams", "u": [0, -3], "v": [-3, 0]},
    {"law": "action-factors-through-diagrams", "u": [1], "v": [1, 0, -1, 0, 1]},
    {"law": "action-factors-through-diagrams", "u": [-1], "v": [-1, 0, -1]},
]


def test_factorization_law_catches_a_planted_first_letter_image(monkeypatch):
    _plant_xi_prime_image(monkeypatch, (3, 3, 2, 1, 1), 0, ((3, 3, 3, 1, 1),))
    report = run_suite("fcs-basis", 10, 3, 0)
    assert report.checked == 2194
    assert report.failures == PLANTED_FIRST_LETTER_FAILURES


# ... and when it sends (8,) to itself, past the first 20 partitions of
# max-size 8; the true image is 0
PLANTED_ZERO_WORD_FAILURES = [
    {"law": "action-factors-through-diagrams", "u": [0], "v": [0, 1, 0]},
    {"law": "action-factors-through-diagrams", "u": [-1, 0], "v": [-1, 0, 1, 0]},
    {"law": "action-factors-through-diagrams", "u": [0, 0],
     "v": [0, -2, 3, -3, -1, 1, -1]},
    {"law": "zero-diagram-zero-action", "u": [0, 0]},
]


def test_zero_diagram_law_catches_a_planted_fault(monkeypatch):
    for lam, image, max_size, failures in [
        ((), ((1,), ()), 5, PLANTED_ZERO_DIAGRAM_FAILURES),
        ((8,), ((8,),), 8, PLANTED_ZERO_WORD_FAILURES),
    ]:
        with monkeypatch.context() as patch:
            _plant_xi_prime_image(patch, lam, 0, image)
            report = run_suite("fcs-basis", max_size, 2, 0)
        assert report.checked == 1106
        assert report.failures == failures


def test_collision_law_catches_a_planted_fault(monkeypatch):
    # removing the content-1 box of (2, 2, 1), which is not removable, gives
    # (2, 1, 1) as if the content-0 box had gone: every bottom-sector reader
    # (tl.bottom_sector and the faithfulness suite) sees the plant
    def planted(lam, c):
        return (2, 1, 1) if (lam, c) == ((2, 2, 1), 1) else remove_box(lam, c)

    monkeypatch.setattr(tl, "remove_box", planted)
    monkeypatch.setattr(verify, "remove_box", planted)
    report = run_suite("faithfulness", 6, 2, 0)
    assert report.checked == 3661
    assert report.failures == [
        {"law": "equal-length-bottom-collision", "partition": [2, 2, 1],
         "words": [((2, 2),), ((1, 1),)]},
        {"law": "equal-length-bottom-collision", "partition": [2, 2, 2],
         "words": [((2, 2), (0, 0)), ((1, 1), (0, 0))]},
        {"law": "equal-length-bottom-collision", "partition": [2, 2, 1, 1],
         "words": [((2, 2), (-2, -2)), ((1, 1), (-2, -2))]},
    ]


def _killed(element, witness):
    return {"law": "nonzero-acts-nonzero", "element": element, "partition": list(witness)}


# the failures of faithfulness at (5, 2, 0) when the plain index-0 generator
# kills (1, 1), the witness of e_0; the true image is (1,)
PLANTED_WITNESS_FAILURES = [
    _killed([{"word": [[0, 0], [-1, -1], [-2, -2]], "coeff": -1}], (1, 1, 1, 1)),
    _killed([{"word": [[0, 0]], "coeff": 3}], (1, 1)),
    _killed([{"word": [[0, 0], [-1, -1]], "coeff": -2}], (1, 1, 1)),
    _killed([{"word": [[0, 0], [-1, -1], [-2, -2]], "coeff": 3},
             {"word": [[-1, -1]], "coeff": 1}], (1, 1, 1, 1)),
    _killed([{"word": [[0, 0]], "coeff": -2}], (1, 1)),
    _killed([{"word": [[0, 0]], "coeff": -1}], (1, 1)),
    _killed([{"word": [[0, 0], [-1, -1]], "coeff": 1}, {"word": [[0, 0]], "coeff": -1}],
            (1, 1, 1)),
]


def test_witness_law_catches_a_planted_fault(monkeypatch):
    # a killed witness is a failed check: the count is the clean one
    _plant_xi_prime_image(monkeypatch, (1, 1), 0, ())
    report = run_suite("faithfulness", 5, 2, 0)
    assert report.checked == 2374
    assert report.failures == PLANTED_WITNESS_FAILURES


def test_a_killed_witness_is_printed_as_it_is(monkeypatch, capsys):
    # the counterexample to faithfulness is the output, not an error
    _plant_xi_prime_image(monkeypatch, (1, 1), 0, ())
    code = cli.main(["witness", "--element", '[{"word":[[0,0]],"coeff":1}]'])
    assert capsys.readouterr().out == '{"partition":[1,1],"image":[]}\n'
    assert code == 0


def test_surgery_law_catches_a_planted_fault(monkeypatch):
    # a wrong d-set on (2, 2) breaks the case-i step into it and the one out
    true_d_set = weights.d_set

    def planted(lam):
        return {99} if lam == (2, 2) else true_d_set(lam)

    monkeypatch.setattr(weights, "d_set", planted)
    report = run_suite("lemaddq", 5, 2, 0)
    assert report.checked == 142
    assert report.failures == [
        {"law": "d-set-surgery", "partition": [2, 1], "q": 0, "applicable": True,
         "case": "i", "pass": False, "d_before": [-2, 0], "d_after": [99],
         "d_expected": [-1, 0]},
        {"law": "d-set-surgery", "partition": [2, 2], "q": 2, "applicable": True,
         "case": "i", "pass": False, "d_before": [99], "d_after": [-1, 1],
         "d_expected": [1, 99]},
    ]
    assert [list(f) for f in report.failures] == [
        ["law", "partition", "q", "applicable", "case", "pass", "d_before",
         "d_after", "d_expected"],
    ] * 2


# a cell index off by one on one partition, and the failures that partition
# must then show
PLANTED_CELL_FAULTS = {
    ((3, 1), -1): [{"law": "cell-index-consistency", "partition": [3, 1]}],
    ((3, 2, 1), 1): [{"law": "cell-index-consistency", "partition": [3, 2, 1]}],
    # too high: (3, 1) is admitted to the ideal of staircase (3, 2, 1), which
    # it does not contain, so its generation path is a failure, not a raise
    ((3, 1), 1): [
        {"law": "cell-index-consistency", "partition": [3, 1]},
        {"law": "generation-path", "k": 3, "partition": [3, 1]},
    ],
}


@pytest.mark.parametrize("lam, shift", list(PLANTED_CELL_FAULTS))
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
    assert [f for f in report.failures if f.get("partition") == list(lam)] == (
        PLANTED_CELL_FAULTS[lam, shift]
    )


# one planted fault per law of the ideal chain, the quasi-order and the label
# sets, with the max-size at which the ideals suite runs (window 2, seed 0),
# its checks and its failures
PLANTED_IDEAL_FAULTS = {
    # staircase(2) reads cell 3, so it also enters ideal 3, which it does not
    # generate
    "staircase-cell": (
        4, strata, "cell_index", ((2, 1),), 3, 307,
        [{"law": "chain-strictness", "k": 2}, {"law": "staircase-cell", "k": 2},
         {"law": "cell-index-consistency", "partition": [2, 1]},
         {"law": "generation-path", "k": 3, "partition": [2, 1]}],
    ),
    "chain-strictness": (
        4, strata, "in_ideal", ((2, 1), 3), True, 307,
        [{"law": "chain-strictness", "k": 2},
         {"law": "generation-path", "k": 3, "partition": [2, 1]}],
    ),
    # (1,) in ideal 3 but without staircase(2)
    "ideal-chain": (
        4, strata, "in_ideal", ((1,), 3), True, 307,
        [{"law": "ideal-chain", "partition": [1], "k": 2},
         {"law": "generation-path", "k": 3, "partition": [1]}],
    ),
    "quasi-order": (
        4, strata, "quasi_order_compare", ((), (1,)), "Equal", 306,
        [{"law": "quasi-order", "a": [], "b": [1]}],
    ),
    # 5 joins the sizes of r = 3, so the label table gains the 7 partitions
    # of 5 at each of the ranks 1-3; the box tensor reaches none of them in 3
    # steps, and the first label of each rank no longer counts the support
    "j-zero-subset": (
        4, strata, "j_zero_set", (3,), {1, 3, 5}, 327,
        [{"law": "j-zero-subset", "r": 3}] + [
            {"law": "summand-flags", "n": n, "r": 3, "partition": lam}
            for n in (1, 2, 3)
            for lam in ([1], [5], [4, 1], [3, 2], [3, 1, 1], [2, 2, 1], [2, 1, 1, 1],
                        [1, 1, 1, 1, 1])
        ],
    ),
    "j-set-difference": (
        4, strata, "j_set", (4,), {0, 2, 4, 6}, 306,
        [{"law": "j-set-difference", "r": 4}],
    ),
    # (2,) has cell index 1, so its summand at rank 2 is not projective
    "summand-flags": (
        4, strata, "summand_labels", (2, 2), [((2,), True, True), ((1, 1), True, False)], 306,
        [{"law": "summand-flags", "n": 2, "r": 2, "partition": [2]}],
    ),
    # at max-size 15 the chain laws reach staircase(5): it reads cell 6, so it
    # also enters ideal 6
    "chain-strictness-at-15": (
        15, strata, "cell_index", ((5, 4, 3, 2, 1),), 6, 8_321,
        [{"law": "chain-strictness", "k": 5}, {"law": "staircase-cell", "k": 5},
         {"law": "cell-index-consistency", "partition": [5, 4, 3, 2, 1]}],
    ),
    # (6, 4, 3, 2) in ideal 6 but without staircase(5)
    "ideal-chain-at-15": (
        15, strata, "in_ideal", ((6, 4, 3, 2), 6), True, 8_321,
        [{"law": "ideal-chain", "partition": [6, 4, 3, 2], "k": 5}],
    ),
}


@pytest.mark.parametrize("law", list(PLANTED_IDEAL_FAULTS))
def test_chain_and_label_laws_catch_a_planted_fault(monkeypatch, law):
    max_size, module, name, args, result, checked, failures = PLANTED_IDEAL_FAULTS[law]
    _plant_result(monkeypatch, module, name, args, result)
    report = run_suite("ideals", max_size, 2, 0)
    assert report.checked == checked
    assert report.failures == failures


def test_summand_flags_check_the_labels_against_the_box_tensor(monkeypatch):
    # both label sets lose the size r itself from r = 3 on, so the table
    # drops the largest labels and every flag of the rest still holds; only
    # the count of the box tensor's r-fold support tells (58,389 checks at
    # max-size 8 become 58,311 for run_suite("all", 8, 3, 0))
    for name in ("j_set", "j_zero_set"):
        true = getattr(strata, name)
        monkeypatch.setattr(
            strata, name, lambda r, true=true: true(r) - {r} if r >= 3 else true(r)
        )
    report = run_suite("ideals", 8, 2, 0)
    assert report.checked == 783
    assert report.failures == [
        {"law": "summand-flags", "n": n, "r": r, "partition": [1 if r % 2 else 2]}
        for n in (1, 2, 3) for r in (3, 4, 5, 6)
    ]


def test_associativity_law_catches_a_negated_product(monkeypatch):
    # (ab)c = a(bc) survives negating every product; the action of ab on the
    # witness partition of the longer of a and b does not, whenever ab is
    # nonzero
    true_multiply = tl.element_multiply

    def planted(x, y):
        return {w: -c for w, c in true_multiply(x, y).items()}

    monkeypatch.setattr(tl, "element_multiply", planted)
    report = run_suite("fcs-basis", 4, 2, 0)
    assert report.checked == 1106
    assert len(report.failures) == 28
    assert all(
        f["law"] == "associativity" and true_multiply({f["words"][0]: 1}, {f["words"][1]: 1})
        for f in report.failures
    )
    assert report.failures[0] == {
        "law": "associativity",
        "words": [((2, 2), (1, 1), (-2, -2)), ((-1, -1), (-2, -2)), ((0, 1), (-2, -1))],
    }


def test_a_product_that_is_not_fully_commutative_is_an_associativity_record(monkeypatch):
    # the product with the left factor e_1 e_2 e_0 e_1 reads ((0, 0), (1, 1)),
    # whose starts increase; every triple that meets it is one failed check
    true_multiply = tl.element_multiply

    def planted(x, y):
        return {((0, 0), (1, 1)): 1} if x == {((1, 2), (0, 1)): 1} else true_multiply(x, y)

    monkeypatch.setattr(tl, "element_multiply", planted)
    report = run_suite("fcs-basis", 4, 2, 0)
    assert report.checked == 1106
    assert report.failures == [
        {"law": "associativity", "words": [((-2, -2),), ((1, 2), (0, 1)), ((0, 0),)]},
        {"law": "associativity", "words": [((2, 2),), ((1, 2), (0, 1)), ((1, 2),)]},
        {"law": "associativity", "words": [
            ((2, 2), (0, 0), (-1, -1), (-2, -2)), ((1, 2), (0, 1)), ((2, 2), (0, 0), (-2, -2))]},
        {"law": "associativity", "words": [
            ((1, 2), (0, 1)), ((2, 2), (1, 1), (0, 0), (-1, -1)), ((2, 2), (1, 1), (-1, -1), (-2, -2))]},
    ]


def test_associativity_law_catches_a_planted_fault(monkeypatch):
    # the product with the left factor e_1 e_2 e_0 e_1 drops its one term
    true_multiply = tl.element_multiply

    def planted(x, y):
        return {} if x == {((1, 2), (0, 1)): 1} else true_multiply(x, y)

    monkeypatch.setattr(tl, "element_multiply", planted)
    report = run_suite("fcs-basis", 4, 2, 0)
    assert report.checked == 1106
    assert report.failures == [
        {"law": "associativity", "words": [((-2, -2),), ((1, 2), (0, 1)), ((0, 0),)]},
    ]


# the failures of tl-prime-relations at (4, 3, 0) when the plain index-1
# generator sends (1,) to an extra (1, 1) beside (2,) + ()
PLANTED_EXTRA_IMAGE_FAILURES = [
    {"law": "contraction", "rep": "xi-prime", "partition": [], "i": 0, "pm": 1},
    {"law": "far-commutation", "rep": "xi-prime", "partition": [1], "i": -2, "j": 1},
    {"law": "square-zero", "rep": "xi-prime", "partition": [1], "i": 1},
    {"law": "contraction", "rep": "xi-prime", "partition": [1], "i": 1, "pm": -1},
    {"law": "contraction", "rep": "xi-prime", "partition": [1, 1], "i": 0, "pm": 1},
]


def test_relation_laws_catch_an_extra_plain_image(monkeypatch):
    _plant_xi_prime_image(monkeypatch, (1,), 1, ((2,), (), (1, 1)))
    assert run_suite("tl-prime-relations", 4, 3, 0).failures == PLANTED_EXTRA_IMAGE_FAILURES


def test_fcs_base_catches_an_extra_image(monkeypatch):
    # the plain index-0 generator sends (3, 3) to (4, 3); the true image is 0
    _plant_xi_prime_image(monkeypatch, (3, 3), 0, ((4, 3),))
    failures = [
        {"law": "action-factors-through-diagrams", "u": [0], "v": [0, 1, 0]},
        {"law": "action-factors-through-diagrams", "u": [0, -2], "v": [-2, 0]},
    ]
    assert verify._column_bits(8) == 9
    assert run_suite("fcs-basis", 6, 2, 0).failures == failures
    # Base 2 already separates the columns here: no extra or wrong image
    # partition that adds or removes one box, searched at max-size 8, passes
    # at base 2 and fails at the committed base.
    monkeypatch.setattr(verify, "_column_bits", lambda n: 1)
    assert run_suite("fcs-basis", 6, 2, 0).failures == failures


RELATION_SUITES = {"xi": "tl-relations", "xi-prime": "tl-prime-relations"}


@pytest.mark.parametrize("suite", ["tl-relations", "tl-prime-relations"])
def test_relation_checks_counted_as_the_loop_counts(suite):
    # a clean run counts one check per (lam, i[, j]), as the per-partition
    # loop of the oracle makes them
    rep = "xi" if suite == "tl-relations" else "xi-prime"
    for m in range(9):
        report, oracle = run_suite(suite, m, 3, 0), oracle_relation_report(rep, m)
        assert report.ok and oracle.ok
        assert report.checked == oracle.checked, m


def _relation_plants():
    """(rep, lam, q, wrong image) for each twisted image of (lam, q) swapped
    for zero or for a one-box neighbour of lam, and each plain image of
    (lam, q) given an extra one-box neighbour of lam, on every partition of
    at most 4 boxes and every index of its window widened by two."""
    for lam in enumerate_partitions(4):
        qmin, qmax = fock.support_bounds(lam)
        neighbours = [add_box(lam, c) for c in addable_contents(lam)]
        neighbours += [remove_box(lam, c) for c in removable_contents(lam)]
        for q in range(qmin - 2, qmax + 3):
            true = fock.xi_on_partition(lam, q)
            for kappa in [None, *neighbours]:
                if kappa != true:
                    yield "xi", lam, q, kappa
            plain = fock.xi_prime_on_partition(lam, q)
            for kappa in neighbours:
                if kappa not in plain:
                    yield "xi-prime", lam, q, (*plain, kappa)


def test_relation_failures_are_the_loop_failures(monkeypatch):
    # every planted image gives the relation suite the failure list of the
    # per-partition loop, record for record and in the same order
    plant: list = [None]
    true_actions = {"xi": fock.xi_on_partition, "xi-prime": fock.xi_prime_on_partition}

    def planted(name, rep):
        def act(lam, q):
            if plant[0] is not None and plant[0][:3] == (rep, lam, q):
                return plant[0][3]
            return true_actions[rep](lam, q)
        monkeypatch.setattr(fock, name, act)

    planted("xi_on_partition", "xi")
    planted("xi_prime_on_partition", "xi-prime")
    plants = list(_relation_plants())
    silent = []
    for plant[0] in plants:
        rep = plant[0][0]
        report = run_suite(RELATION_SUITES[rep], 5, 3, 0)
        oracle = oracle_relation_report(rep, 5)
        assert report.failures == oracle.failures, plant[0]
        if oracle.ok:
            silent.append(plant[0])
    assert len(plants) == 680
    # Only one plant breaks no relation law: the twisted generator 0 killing
    # ().  No twisted generator sends a partition to (), and on () only the
    # generator 0 acts, so a relation word meets that image only as its
    # first letter on (), where a zero leaves both sides zero.
    assert silent == [("xi", (), 0, None)]


# One planted image on an 8-box partition at a time, on windows wider than
# any of `_relation_plants`.  On (8,) the records reach far commutation
# across nine and ten indices; (4, 3, 1) gives more records.  Twisted images
# are swapped for zero (the true ones are (9,) and (4, 2, 1)); plain images
# gain an extra one-box neighbour beside the true (9,) + (7,) and
# (4, 4, 1) + (4, 2, 1).
WIDE_RELATION_PLANTS = [
    ("xi", (8,), 8, None),
    ("xi", (4, 3, 1), 0, None),
    ("xi-prime", (8,), 8, ((9,), (7,), (8, 1))),
    ("xi-prime", (4, 3, 1), 2, ((4, 4, 1), (4, 2, 1), (5, 3, 1))),
]


@pytest.mark.parametrize("rep, lam, q, wrong", WIDE_RELATION_PLANTS,
                         ids=["xi-8", "xi-431", "xi-prime-8", "xi-prime-431"])
def test_relation_failures_on_wide_windows_are_the_loop_failures(monkeypatch, rep, lam, q, wrong):
    plant = _plant_xi_at if rep == "xi" else _plant_xi_prime_image
    plant(monkeypatch, lam, q, wrong)
    report = run_suite(RELATION_SUITES[rep], 9, 3, 0)
    oracle = oracle_relation_report(rep, 9)
    assert oracle.failures
    assert report.failures == oracle.failures


# The law names that verify records, read off its `law="..."` and
# `"law": "..."` literals: a refactor that renames or drops a law changes no
# clean stdout, so this list is where it shows.
LAW_NAMES = {
    "action-factors-through-diagrams", "added-box-multiplicity", "associativity",
    "block-index-parity", "case-bc-zero", "cell-index-consistency",
    "chain-strictness", "closed-form-vs-dictionary", "contraction", "d-roundtrip",
    "d-set-is-shifted", "d-set-surgery", "diamond-count-is-cell-index",
    "distinct-diagrams", "equal-length-bottom-collision", "far-commutation",
    "frozen-example", "generation-path", "ideal-chain", "ideal-closure",
    "j-set-difference", "j-zero-subset", "marked-contents-increase",
    "nonzero-acts-nonzero", "normal-form-roundtrip",
    "plain-action-is-add-plus-remove", "quasi-order", "reference-inversion",
    "reference-marking", "removed-left-neighbour", "removed-right-neighbour",
    "row-sum-consistency", "single-unit-term", "size-parity", "square-zero",
    "staircase-cell", "staircase-weight", "summand-flags", "surgery-cases-exist",
    "witness-has-bottom-sector", "zero-diagram-zero-action",
}


def test_law_names_are_pinned():
    assert len(LAW_NAMES) == 41
    assert verify_law_names() == LAW_NAMES


# The laws that no test names, so that no planted fault shows that they can
# fail.  A new law without a planted-fault test fails here, and so does a law
# that gains one until it leaves this set.
UNTESTED_LAW_NAMES: set = set()


def test_untested_law_names_are_pinned():
    assert untested_law_names() == UNTESTED_LAW_NAMES
