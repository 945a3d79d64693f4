import cProfile
import inspect
import itertools
import random
import sys
from collections import Counter

import pytest

import peritl
from peritl import cli, fock, strata, tl, verify, weights
from peritl.partitions import enumerate_partitions, remove_box
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


def _plant_relation_fault(monkeypatch):
    true_xi = fock.xi_on_partition

    def planted(lam, q):
        return (1, 1) if (lam, q) == ((1,), 1) else true_xi(lam, q)

    monkeypatch.setattr(fock, "xi_on_partition", planted)


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
    true_xi = fock.xi_on_partition

    def planted(lam, q):
        return (1,) if (lam, q) == ((2, 1), 0) else true_xi(lam, q)

    monkeypatch.setattr(fock, "xi_on_partition", planted)


def test_closure_law_catches_a_planted_fault(monkeypatch):
    # (1,) has left the ideal of staircase (2, 1) that its preimage is in
    _plant_xi_image(monkeypatch)
    report = run_suite("preserve", 5, 2, 0)
    assert report.checked == 444
    assert report.failures == [
        {"law": "ideal-closure", "k": 2, "partition": [2, 1], "q": 0, "image": [1]},
    ]


def test_block_multiplicity_laws_catch_a_planted_fault(monkeypatch):
    # tensor_rows reads the same planted action, so only the added box shows
    _plant_xi_image(monkeypatch)
    report = run_suite("remove-box", 5, 2, 0)
    assert report.checked == 82
    assert report.failures == [
        {"law": "added-box-multiplicity", "nu": [2, 1], "q": 0},
    ]


def _plant_xi_prime_image(monkeypatch, lam, q, image):
    true_xi_prime = fock.xi_prime_on_partition

    def planted(mu, p):
        return dict(image) if (mu, p) == (lam, q) else true_xi_prime(mu, p)

    monkeypatch.setattr(fock, "xi_prime_on_partition", planted)


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
    diagrams = {(): tl.IDENTITY}
    words = [word for n in range(6) for word in itertools.product(range(-3, 4), repeat=n)]
    rng = random.Random(16)
    words += [tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 10)))
              for _ in range(2000)]
    zero = 0
    for word in words:
        want = tl.word_to_diagram(word)
        assert verify._prefix_diagram(word, diagrams) == want, word
        zero += want is None
    assert 0 < zero < len(words)
    assert all(word[:-1] in diagrams for word in diagrams if word)


@pytest.mark.parametrize("suite", ["tl-relations", "tl-prime-relations"])
def test_relation_checks_counted_as_the_loop_counts(monkeypatch, suite):
    counted = [run_suite(suite, m, 3, 0) for m in range(9)]
    monkeypatch.setattr(verify, "_relation_identities_hold", lambda *args: False)
    looped = [run_suite(suite, m, 3, 0) for m in range(9)]
    assert all(r.ok for r in counted + looped)
    assert [r.checked for r in counted] == [r.checked for r in looped]


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
