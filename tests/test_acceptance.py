"""Acceptance criteria, one test per criterion, at the stated scales.

Every check is exact integer equality (zero tolerance).  Each test prints a
single pass/fail line; run with `pytest tests/test_acceptance.py -v -s` to
see them.
"""
import functools
import json
import random
import subprocess
import sys
import time

from peritl.fock import (
    apply_word,
    support_bounds,
    xi_on_partition,
)
from peritl.partitions import (
    add_box,
    enumerate_partitions,
    minimal_balanced_hook_ending,
    minimal_balanced_hook_starting,
    remove_box,
    removable_contents,
    staircase,
)
from peritl.strata import (
    cell_index,
    in_ideal,
    j_zero_set,
    summand_labels,
)
from peritl.tl import (
    bottom_sector,
    fcs_length,
    fcs_to_word,
    fcs_words_in_range,
    faithfulness_witness,
    normalize,
    witness_partition,
    word_to_diagram,
)
from peritl.weights import (
    closed_form_weights,
    d_set,
    dominant_weight,
    marking,
    partition_from_d_set,
)

from helpers import (
    child_env,
    fcs_to_diagram,
    oracle_box_addition_path,
    oracle_min_balanced,
    oracle_xi,
    surgery_case,
)


def criterion(number, summary):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                print(f"FAIL criterion {number:2d}: {summary}")
                raise
            print(
                f"PASS criterion {number:2d}: {summary} "
                f"({time.perf_counter() - start:.1f}s)"
            )
        return run
    return wrap


def _relation_sweep(rep, max_size):
    for lam in enumerate_partitions(max_size):
        qmin, qmax = support_bounds(lam)
        lo, hi = qmin - 2, qmax + 2
        vec = {lam: 1}
        for i in range(lo, hi + 1):
            assert apply_word(vec, [i, i], rep) == {}
            for pm in (1, -1):
                assert apply_word(vec, [i, i + pm, i], rep) == apply_word(
                    vec, [i], rep
                )
            for j in range(i + 2, hi + 1):
                assert apply_word(vec, [i, j], rep) == apply_word(vec, [j, i], rep)


@criterion(1, "Temperley-Lieb relations for the twisted action, size <= 12")
def test_criterion_01():
    _relation_sweep("xi", 12)


@criterion(2, "Temperley-Lieb relations for the plain action, size <= 12")
def test_criterion_02():
    _relation_sweep("xi-prime", 12)


@criterion(3, "single unit image and size parity for the twisted action")
def test_criterion_03():
    for lam in enumerate_partitions(12):
        qmin, qmax = support_bounds(lam)
        for q in range(qmin - 2, qmax + 3):
            image = apply_word({lam: 1}, [q], "xi")
            assert len(image) <= 1
            assert all(c == 1 for c in image.values())
            for kappa in image:
                assert (sum(kappa) - sum(lam) - 1) % 2 == 0


@criterion(4, "hook rules match the brute-force skew-shape oracle, size <= 12")
def test_criterion_04():
    for lam in enumerate_partitions(12):
        qmin, qmax = support_bounds(lam)
        for q in range(qmin - 2, qmax + 3):
            start = oracle_min_balanced(lam, q, "start")
            got = minimal_balanced_hook_starting(lam, q)
            assert (start is None) == (got is None)
            if got is not None:
                assert frozenset(got.boxes) == start
            end = oracle_min_balanced(lam, q, "end")
            got = minimal_balanced_hook_ending(lam, q)
            assert (end is None) == (got is None)
            if got is not None:
                assert frozenset(got.boxes) == end
            # the full case split recomputed on raw box sets
            assert xi_on_partition(lam, q) == oracle_xi(lam, q)


@criterion(5, "ideal closure, strict chain, and generation by box additions")
def test_criterion_05():
    for k in range(5):
        step = staircase(k)
        assert in_ideal(step, k) and not in_ideal(step, k + 1)
        for lam in enumerate_partitions(12):
            if not in_ideal(lam, k):
                continue
            qmin, qmax = support_bounds(lam)
            for q in range(qmin - 2, qmax + 3):
                kappa = xi_on_partition(lam, q)
                if kappa is not None:
                    assert in_ideal(kappa, k)
    for k in range(5):
        base = staircase(k)
        for lam in enumerate_partitions(10):
            if not in_ideal(lam, k):
                continue
            cur = base
            for at, q in oracle_box_addition_path(base, lam):
                assert at == cur
                cur = xi_on_partition(cur, q)
                assert cur is not None and in_ideal(cur, k)
            assert cur == lam


@criterion(6, "removable-neighbour block multiplicities are exactly one")
def test_criterion_06():
    hypotheses = 0
    for nu in enumerate_partitions(12):
        for q in removable_contents(nu):
            kappa = remove_box(nu, q)
            if remove_box(kappa, q - 1) is not None:
                hypotheses += 1
                assert xi_on_partition(nu, q - 1) == kappa
            if remove_box(kappa, q + 1) is not None:
                hypotheses += 1
                assert xi_on_partition(nu, q + 1) == kappa
    assert hypotheses > 0


@criterion(7, "faithfulness: witnesses, bottom-sector injectivity, 1000 elements")
def test_criterion_07():
    words = [w for w in fcs_words_in_range(-4, 4, 6) if w]
    expanded = {w: fcs_to_word(w) for w in words}
    for w in words:
        lam = witness_partition(w)
        assert bottom_sector(expanded[w], lam) is not None
    for lam in enumerate_partitions(12):
        boxes = sum(lam)
        seen = {}
        for w in words:
            length = fcs_length(w)
            if length > boxes:
                continue
            part = bottom_sector(expanded[w], lam)
            if part is None:
                continue
            key = (length, part)
            assert key not in seen, (lam, seen[key], w)
            seen[key] = w
    rng = random.Random(0)
    for _ in range(1000):
        chosen = rng.sample(words, rng.randint(1, 4))
        element = {w: rng.choice((-3, -2, -1, 1, 2, 3)) for w in chosen}
        lam, image = faithfulness_witness(element)
        assert image


@criterion(8, "monomial basis: distinct diagrams, normal-form roundtrip, factoring")
def test_criterion_08():
    words = list(fcs_words_in_range(-4, 4, 6))
    by_diagram = {}
    for w in words:
        d = fcs_to_diagram(w)
        assert d is not None and d not in by_diagram
        by_diagram[d] = w
    for w in words:
        assert normalize(fcs_to_word(w)) == w
    rng = random.Random(0)
    lams = list(enumerate_partitions(12))
    for _ in range(500):
        u = [rng.randint(-3, 3) for _ in range(rng.randint(1, 8))]
        if rng.random() < 0.5:
            v = list(u)
            for _ in range(rng.randint(1, 3)):
                op = rng.randrange(3)
                if op == 0 and len(v) >= 2:
                    k = rng.randrange(len(v) - 1)
                    if abs(v[k] - v[k + 1]) > 1:
                        v[k], v[k + 1] = v[k + 1], v[k]
                elif op == 1:
                    spots = [
                        k
                        for k in range(len(v) - 2)
                        if v[k] == v[k + 2] and abs(v[k + 1] - v[k]) == 1
                    ]
                    if spots:
                        k = rng.choice(spots)
                        v[k : k + 3] = [v[k]]
                else:
                    k = rng.randrange(len(v))
                    v[k : k + 1] = [v[k], v[k] + rng.choice((-1, 1)), v[k]]
        else:
            v = [rng.randint(-3, 3) for _ in range(rng.randint(1, 8))]
        du, dv = word_to_diagram(u), word_to_diagram(v)
        if du == dv:
            for lam in lams:
                assert apply_word({lam: 1}, u, "xi-prime") == apply_word(
                    {lam: 1}, v, "xi-prime"
                )
        if du is None:
            for lam in lams[:30]:
                assert apply_word({lam: 1}, u, "xi-prime") == {}


@criterion(9, "marking dictionary: references, roundtrip, closed form, surgery")
def test_criterion_09():
    references = {
        (2,): ((1, 2),),
        (1, 1, 1): ((3, 1),),
        (2, 2, 2): ((3, 2), (2, 2)),
        (2, 2, 1, 1): ((4, 1), (2, 2)),
        (3, 2, 2, 2): ((4, 2), (3, 2), (1, 3)),
        (4, 2, 1): ((3, 1), (2, 2), (1, 4)),
    }
    for lam, boxes in references.items():
        assert marking(lam) == boxes
    for lam in enumerate_partitions(14):
        assert len(marking(lam)) == cell_index(lam)
    for lam in enumerate_partitions(14):
        n = cell_index(lam)
        assert n <= 4
        assert partition_from_d_set(d_set(lam), n) == lam
    for n in range(1, 9):
        assert dominant_weight(staircase(n)) == (n, tuple(-i for i in range(1, n + 1)))
    for lam in enumerate_partitions(14):
        cuts = closed_form_weights(lam)  # some cut; every generic one agrees
        assert cuts and all(w in (None, dominant_weight(lam)[1]) for w in cuts)
    cases = {"i": 0, "ii": 0}
    for lam in enumerate_partitions(12):
        qmin, qmax = support_bounds(lam)
        for q in range(qmin - 1, qmax + 2):
            rule = surgery_case(lam, q)
            if rule is None:
                continue
            case, old, new = rule
            cases[case] += 1
            before = d_set(lam)
            assert old in before, (lam, q)
            assert d_set(add_box(lam, q)) == (before - {old}) | {new}, (lam, q)
    assert cases["i"] > 0 and cases["ii"] > 0


@criterion(10, "tensor-power summand tables for n <= 4, r <= 8")
def test_criterion_10():
    assert summand_labels(1, 3) == [
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


@criterion(11, "verify --suite all --max-size 10: exit 0, deterministic, < 5 min")
def test_criterion_11():
    argv = [sys.executable, "-m", "peritl", "verify", "--suite", "all",
            "--max-size", "10", "--seed", "0"]
    start = time.perf_counter()
    first = subprocess.run(argv, capture_output=True, check=False, env=child_env())
    elapsed = time.perf_counter() - start
    assert first.returncode == 0, first.stderr.decode()[-500:]
    assert elapsed < 300
    second = subprocess.run(argv, capture_output=True, check=False, env=child_env())
    assert second.returncode == 0
    assert first.stdout == second.stdout
    report = json.loads(first.stdout)
    assert report["failures"] == []
    assert report["checked"] > 100000
