import cProfile
import importlib.util
import inspect
import itertools
import random
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

import peritl
from peritl import cli, fock, strata, tl, verify, weights
from peritl.partitions import (
    add_box,
    addable_contents,
    enumerate_partitions,
    remove_box,
    removable_contents,
)
from peritl.verify import SUITE_NAMES, run_suite

from helpers import oracle_relation_report


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
    commands = {k: v for k, v in vars(cli).items() if k.startswith("cmd_")}
    operations = {
        fn.__code__: f"{fn.__module__.rsplit('.', 1)[-1]}.{name}"
        for name, fn in {**vars(peritl), **commands}.items()
        if inspect.isfunction(fn)
    }
    assert len(operations) == 48
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


def _plant_xi_at(monkeypatch, lam, q, image):
    true_xi = fock.xi_on_partition

    def planted(mu, p):
        return image if (mu, p) == (lam, q) else true_xi(mu, p)

    monkeypatch.setattr(fock, "xi_on_partition", planted)


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
    _plant_xi_prime_image(monkeypatch, (1,), 1, {(2,): 1})
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
    # every image a suite asks apply_word for is computed once per run; only
    # tensor_rows and the replayed command examples (`act`, and `witness`
    # through faithfulness_witness), which pass no table as the commands do,
    # compute their own
    tabled, untabled = Counter(), Counter()

    def suite_of(frame):
        while not frame.f_code.co_name.startswith("_suite_"):
            frame = frame.f_back
        return frame.f_code.co_name

    def counting(fn):
        def wrapper(lam, q):
            caller = sys._getframe(1)
            if (caller.f_code is fock.apply_word.__code__
                    and caller.f_locals.get("table") is not None):
                tabled[fn.__name__, lam, q] += 1
            else:
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


def test_closure_law_catches_a_planted_fault(monkeypatch):
    # (1,) has left the ideal of staircase (2, 1) that its preimage is in
    _plant_xi_image(monkeypatch)
    report = run_suite("preserve", 5, 2, 0)
    assert report.checked == 444
    assert report.failures == [
        {"law": "ideal-closure", "k": 2, "partition": [2, 1], "q": 0, "image": [1]},
    ]


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
        return dict(image) if (mu, p) == (lam, q) else true_xi_prime(mu, p)

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
        lambda mp: _plant_xi_prime_image(mp, (1,), 1, {(2,): 1}), "single-term", 306,
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


# the failures of fcs-basis at (5, 2, 0) when the plain index-0 generator
# kills (2, 1); the true image is (2, 2) + (2,)
PLANTED_FACTORIZATION_FAILURES = [
    {"law": "action-factors-through-diagrams", "u": [1], "v": [1, 0, 1]},
    {"law": "action-factors-through-diagrams", "u": [-1], "v": [-1, 0, -1]},
    {"law": "action-factors-through-diagrams", "u": [1], "v": [1, 0, -1, 0, 1]},
    {"law": "action-factors-through-diagrams", "u": [-1], "v": [-1, 0, -1]},
    {"law": "action-factors-through-diagrams", "u": [0, -2], "v": [-2, 0]},
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


def test_factorization_law_catches_a_planted_fault(monkeypatch):
    _plant_xi_prime_image(monkeypatch, (2, 1), 0, {})
    report = run_suite("fcs-basis", 5, 2, 0)
    assert report.checked == 1106
    assert report.failures == PLANTED_FACTORIZATION_FAILURES


def test_zero_diagram_law_catches_a_planted_fault(monkeypatch):
    _plant_xi_prime_image(monkeypatch, (), 0, {(1,): 1, (): 1})
    report = run_suite("fcs-basis", 5, 2, 0)
    assert report.checked == 1106
    assert report.failures == PLANTED_ZERO_DIAGRAM_FAILURES


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


def _killed(element, witness, error_terms):
    return {"law": "nonzero-acts-nonzero", "element": element,
            "error": f"nonzero element {{{error_terms}}} killed its witness {witness}"}


# the failures of faithfulness at (5, 2, 0) when the plain index-0 generator
# kills (1, 1), the witness of e_0; the true image is (1,)
PLANTED_WITNESS_FAILURES = [
    _killed([{"word": [[0, 0], [-1, -1], [-2, -2]], "coeff": -1}], (1, 1, 1, 1),
            "((0, 0), (-1, -1), (-2, -2)): -1"),
    _killed([{"word": [[0, 0]], "coeff": 3}], (1, 1), "((0, 0),): 3"),
    _killed([{"word": [[0, 0], [-1, -1]], "coeff": -2}], (1, 1, 1),
            "((0, 0), (-1, -1)): -2"),
    _killed([{"word": [[0, 0], [-1, -1], [-2, -2]], "coeff": 3},
             {"word": [[-1, -1]], "coeff": 1}], (1, 1, 1, 1),
            "((-1, -1),): 1, ((0, 0), (-1, -1), (-2, -2)): 3"),
    _killed([{"word": [[0, 0]], "coeff": -2}], (1, 1), "((0, 0),): -2"),
    _killed([{"word": [[0, 0]], "coeff": -1}], (1, 1), "((0, 0),): -1"),
    _killed([{"word": [[0, 0], [-1, -1]], "coeff": 1}, {"word": [[0, 0]], "coeff": -1}],
            (1, 1, 1), "((0, 0),): -1, ((0, 0), (-1, -1)): 1"),
]


def test_witness_law_catches_a_planted_fault(monkeypatch):
    _plant_xi_prime_image(monkeypatch, (1, 1), 0, {})
    report = run_suite("faithfulness", 5, 2, 0)
    assert report.checked == 2367
    assert report.failures == PLANTED_WITNESS_FAILURES


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


def test_prefix_diagram_matches_word_to_diagram():
    # one dict for every word, so later words read earlier prefixes,
    # zero prefixes included
    diagrams, interned = {(): tl.IDENTITY}, {}
    words = [word for n in range(6) for word in itertools.product(range(-3, 4), repeat=n)]
    rng = random.Random(16)
    words += [tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 10)))
              for _ in range(2000)]
    zero = 0
    for word in words:
        want = tl.word_to_diagram(word)
        assert verify._prefix_diagram(word, diagrams, interned) == want, word
        zero += want is None
    assert 0 < zero < len(words)
    assert all(word[:-1] in diagrams for word in diagrams if word)
    # equal diagrams of different words are one object
    assert len({id(diag) for diag in diagrams.values()}) == len(set(diagrams.values()))


# the failures of tl-prime-relations at (4, 3, 0) when the plain index-1
# generator sends (1,) to an extra (1, 1) beside (2,) + ()
PLANTED_EXTRA_IMAGE_FAILURES = [
    {"law": "contraction", "rep": "xi-prime", "partition": [], "i": 0, "pm": 1},
    {"law": "far-commutation", "rep": "xi-prime", "partition": [1], "i": -2, "j": 1},
    {"law": "square-zero", "rep": "xi-prime", "partition": [1], "i": 1},
    {"law": "contraction", "rep": "xi-prime", "partition": [1], "i": 1, "pm": -1},
    {"law": "contraction", "rep": "xi-prime", "partition": [1, 1], "i": 0, "pm": 1},
]


def test_relation_base_catches_an_extra_image(monkeypatch):
    _plant_xi_prime_image(monkeypatch, (1,), 1, {(2,): 1, (): 1, (1, 1): 1})
    assert verify.RELATION_BASE == 16
    assert run_suite("tl-prime-relations", 4, 3, 0).failures == PLANTED_EXTRA_IMAGE_FAILURES
    # One planted image changes one column of one letter, and the true
    # relation words have 0/1 entries, so base 2 already separates the
    # columns here: no single extra or wrong image partition on partitions
    # of at most 5 boxes passes at base 2 and fails at 16.  The base is set
    # by the entries a faulty action could reach, not by these plants.
    monkeypatch.setattr(verify, "RELATION_BASE", 2)
    assert run_suite("tl-prime-relations", 4, 3, 0).failures == PLANTED_EXTRA_IMAGE_FAILURES


def test_fcs_base_catches_an_extra_image(monkeypatch):
    # the plain index-0 generator sends (3, 3) to (4, 3); the true image is 0
    _plant_xi_prime_image(monkeypatch, (3, 3), 0, {(4, 3): 1})
    failures = [
        {"law": "action-factors-through-diagrams", "u": [0], "v": [0, 1, 0]},
        {"law": "action-factors-through-diagrams", "u": [0, -2], "v": [-2, 0]},
    ]
    assert verify._column_bits(8) == 9
    assert run_suite("fcs-basis", 6, 2, 0).failures == failures
    # As for the relation laws, base 2 already separates the columns here:
    # no extra or wrong image partition that adds or removes one box,
    # searched at max-size 8, passes at base 2 and fails at the committed
    # base.
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
                    yield "xi-prime", lam, q, {**plain, kappa: 1}


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
    source = inspect.getsource(verify)
    names = set(re.findall(r'law="([^"]+)"', source))
    names |= set(re.findall(r'"law": "([^"]+)"', source))
    assert len(LAW_NAMES) == 41
    assert names == LAW_NAMES
