"""Exhaustive verification sweeps over the whole library.

Each suite replays one family of structural laws at desk scale and collects
counterexamples as data instead of raising.  Every sweep is deterministic in
(suite, max_size, window, seed); randomized parts draw from a seeded
generator keyed by the suite name.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from . import fock, strata, tl, weights
from .partitions import (
    add_box,
    addable_contents,
    contains,
    enumerate_partitions,
    remove_box,
    removable_contents,
    staircase,
    transpose,
)

REFERENCE_MARKINGS = {
    (2,): ((1, 2),),
    (1, 1, 1): ((3, 1),),
    (2, 2, 2): ((3, 2), (2, 2)),
    (2, 2, 1, 1): ((4, 1), (2, 2)),
    (3, 2, 2, 2): ((4, 2), (3, 2), (1, 3)),
    (4, 2, 1): ((3, 1), (2, 2), (1, 4)),
}


@dataclass
class VerifyReport:
    suite: str
    parameters: dict
    checked: int = 0
    failures: list = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "parameters": self.parameters,
            "checked": self.checked,
            "failures": self.failures,
        }


class _Run:
    """Mutable check/failure accumulator shared by the suite bodies."""

    def __init__(self):
        self.checked = 0
        self.failures: list = []

    def check(self, ok: bool, **context) -> None:
        self.checked += 1
        if not ok:
            self.failures.append(context)


def _relation_suite(run: _Run, rep: str, max_size: int) -> None:
    """Square-zero, far commutation, and the three-index contraction."""
    for lam in enumerate_partitions(max_size):
        qmin, qmax = fock.support_bounds(lam)
        lo, hi = qmin - 2, qmax + 2
        # first[i] is generator i applied to lam; every law below starts from it
        first = {i: fock.apply_word({lam: 1}, [i], rep) for i in range(lo, hi + 1)}
        for i in range(lo, hi + 1):
            run.check(
                fock.apply_word(first[i], [i], rep) == {},
                law="square-zero", rep=rep, partition=list(lam), i=i,
            )
            for pm in (1, -1):
                run.check(
                    fock.apply_word(first[i], [i, i + pm], rep) == first[i],
                    law="contraction", rep=rep, partition=list(lam), i=i, pm=pm,
                )
            for j in range(i + 2, hi + 1):
                run.check(
                    fock.apply_word(first[j], [i], rep)
                    == fock.apply_word(first[i], [j], rep),
                    law="far-commutation", rep=rep, partition=list(lam), i=i, j=j,
                )


def _suite_tl_relations(run, max_size, window, rng):
    _relation_suite(run, "xi", max_size)


def _suite_tl_prime_relations(run, max_size, window, rng):
    _relation_suite(run, "xi-prime", max_size)


def _suite_single_term(run, max_size, window, rng):
    """Shape laws of the single-generator actions."""
    for lam in enumerate_partitions(max_size):
        qmin, qmax = fock.support_bounds(lam)
        for q in range(qmin - 2, qmax + 3):
            case = fock.classify_case(lam, q)
            image = fock.xi_apply({lam: 1}, q)
            run.check(
                len(image) <= 1 and all(c == 1 for c in image.values()),
                law="single-unit-term", partition=list(lam), q=q,
            )
            for kappa in image:
                run.check(
                    (sum(kappa) - sum(lam) - 1) % 2 == 0,
                    law="size-parity", partition=list(lam), q=q, image=list(kappa),
                )
            if case in ("B", "C"):
                run.check(
                    not image, law="case-bc-zero", partition=list(lam), q=q, case=case,
                )
            prime = fock.xi_prime_on_partition(lam, q)
            expected = {}
            for term in (add_box(lam, q), remove_box(lam, q - 1)):
                if term is not None:
                    expected[term] = expected.get(term, 0) + 1
            run.check(
                prime == expected,
                law="plain-action-is-add-plus-remove", partition=list(lam), q=q,
            )


def _suite_preserve(run, max_size, window, rng):
    """Staircase containment survives every nonzero twisted step."""
    for k in range(5):
        report = strata.ideal_closure_check(k, max_size)
        run.checked += report["checked"]
        for violation in report["violations"]:
            run.failures.append({"law": "ideal-closure", "k": k, **violation})


def _suite_remove_box(run, max_size, window, rng):
    """Block multiplicities triggered by removable neighbours of a removed box."""
    for nu in enumerate_partitions(max_size):
        for q in removable_contents(nu):
            kappa = remove_box(nu, q)
            if remove_box(kappa, q - 1) is not None:
                run.check(
                    fock.tensor_block_multiplicity(nu, kappa, q - 1) == 1,
                    law="removed-left-neighbour", nu=list(nu), q=q,
                )
            if remove_box(kappa, q + 1) is not None:
                run.check(
                    fock.tensor_block_multiplicity(nu, kappa, q + 1) == 1,
                    law="removed-right-neighbour", nu=list(nu), q=q,
                )
        for q in addable_contents(nu):
            run.check(
                fock.tensor_block_multiplicity(nu, add_box(nu, q), q) == 1,
                law="added-box-multiplicity", nu=list(nu), q=q,
            )
        rows = fock.tensor_rows(nu)
        totals: dict = {}
        for _, kappa in rows:
            totals[kappa] = totals.get(kappa, 0) + 1
        run.check(
            all(
                fock.tensor_multiplicity(nu, kappa) == count
                for kappa, count in totals.items()
            ),
            law="row-sum-consistency", nu=list(nu),
        )


def _suite_marking(run, max_size, window, rng):
    for lam, boxes in REFERENCE_MARKINGS.items():
        run.check(
            weights.marking(lam).boxes == boxes,
            law="reference-marking", partition=list(lam),
        )
    for lam in enumerate_partitions(max_size):
        mark = weights.marking(lam)
        run.check(
            len(mark.boxes) == strata.cell_index(lam),
            law="diamond-count-is-cell-index", partition=list(lam),
        )
        contents = mark.contents
        run.check(
            all(contents[i] < contents[i + 1] for i in range(len(contents) - 1)),
            law="marked-contents-increase", partition=list(lam),
        )
        run.check(
            weights.d_set(lam) == {c - 1 for c in weights.d_tilde(lam)},
            law="d-set-is-shifted", partition=list(lam),
        )


def _suite_d_roundtrip(run, max_size, window, rng):
    for subset, n, expected in (({0}, 1, (2,)), ({-3}, 1, (1, 1, 1)), ({1}, 1, (3,))):
        run.check(
            weights.partition_from_d_set(subset, n) == expected,
            law="reference-inversion", subset=sorted(subset), n=n,
        )
    for lam in enumerate_partitions(max_size):
        n = strata.cell_index(lam)
        run.check(
            weights.partition_from_d_set(weights.d_set(lam), n) == lam,
            law="d-roundtrip", partition=list(lam),
        )


def _suite_proplink(run, max_size, window, rng):
    for n in range(1, 9):
        run.check(
            weights.dominant_weight(staircase(n))
            == (n, tuple(-i for i in range(1, n + 1))),
            law="staircase-weight", n=n,
        )
    for lam in enumerate_partitions(max_size):
        closed = weights.closed_form_weight(lam)
        run.checked += 1
        if closed is None:
            continue
        n, omega = weights.dominant_weight(lam)
        if closed != omega:
            run.failures.append(
                {
                    "law": "closed-form-vs-dictionary",
                    "partition": list(lam),
                    "closed": list(closed),
                    "dictionary": list(omega),
                }
            )


def _suite_lemaddq(run, max_size, window, rng):
    applicable = 0
    for lam in enumerate_partitions(max_size):
        qmin, qmax = fock.support_bounds(lam)
        for q in range(qmin - 1, qmax + 2):
            report = weights.check_box_addition_surgery(lam, q)
            run.checked += 1
            if not report["applicable"]:
                continue
            applicable += 1
            if not report["pass"]:
                run.failures.append({"law": "d-set-surgery", **report})
    if max_size >= 1:  # the empty partition alone has no surgery case
        run.check(applicable > 0, law="surgery-cases-exist", max_size=max_size)


def _suite_ideals(run, max_size, window, rng):
    for k in range(5):
        run.check(
            strata.in_ideal(staircase(k), k)
            and not strata.in_ideal(staircase(k), k + 1),
            law="chain-strictness", k=k,
        )
        run.check(
            strata.cell_index(staircase(k)) == k, law="staircase-cell", k=k,
        )
    # in_ideal is a threshold on cell_index: check both against containment
    for lam in enumerate_partitions(max_size):
        for k in range(5):
            run.check(
                (not strata.in_ideal(lam, k + 1)) or contains(lam, staircase(k)),
                law="ideal-chain", partition=list(lam), k=k,
            )
        cell = strata.cell_index(lam)
        run.check(
            contains(lam, staircase(cell)) and not contains(lam, staircase(cell + 1)),
            law="cell-index-consistency", partition=list(lam),
        )
        block = strata.block_index(lam)
        run.check(
            block == strata.block_index(transpose(lam))
            and (sum(lam) - block * (block + 1) // 2) % 2 == 0,
            law="block-index-parity", partition=list(lam),
        )
    # generation of ideal members by single-box twisted steps
    gen_cap = min(max_size, 10)
    for k in range(4):
        for lam in enumerate_partitions(gen_cap):
            if not strata.in_ideal(lam, k):
                continue
            path = strata.box_addition_path(staircase(k), lam)
            ok = True
            for cur, q in path:
                step = fock.xi_on_partition(cur, q)
                if step is None or not strata.in_ideal(step, k):
                    ok = False
                    break
            run.check(ok, law="generation-path", k=k, partition=list(lam))
    # quasi-order versus cell indices
    sample = [(), (1,), (2,), (2, 1), (3, 2, 1), (4, 2, 1)]
    for lam in sample:
        for mu in sample:
            a, b = strata.cell_index(lam), strata.cell_index(mu)
            want = "Less" if a < b else "Greater" if a > b else "Equal"
            run.check(
                strata.quasi_order_compare(lam, mu) == want,
                law="quasi-order", a=list(lam), b=list(mu),
            )
    # label sets and summand predicates
    for r in range(9):
        jz, js = strata.j_zero_set(r), strata.j_set(r)
        run.check(jz <= js, law="j-zero-subset", r=r)
        if r > 0:
            extra = {0} if r % 2 == 0 else set()
            run.check(js - jz == extra, law="j-set-difference", r=r)
    for n in range(1, 4):
        for r in range(7):
            for lam, appears, projective in strata.summand_labels(n, r):
                run.check(
                    sum(lam) in strata.j_zero_set(r)
                    and appears == (strata.cell_index(lam) <= n)
                    and projective == (appears and strata.cell_index(lam) == n)
                    and (not projective or appears),
                    law="summand-flags", n=n, r=r, partition=list(lam),
                )


def _rewrite(word: list[int], rng: random.Random) -> list[int]:
    """Apply a few element-preserving rewrites to a generator word."""
    w = list(word)
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(3)
        if op == 0 and len(w) >= 2:
            k = rng.randrange(len(w) - 1)
            if abs(w[k] - w[k + 1]) > 1:
                w[k], w[k + 1] = w[k + 1], w[k]
        elif op == 1:
            spots = [
                k
                for k in range(len(w) - 2)
                if w[k] == w[k + 2] and abs(w[k + 1] - w[k]) == 1
            ]
            if spots:
                k = rng.choice(spots)
                w[k : k + 3] = [w[k]]
        elif w:
            k = rng.randrange(len(w))
            w[k : k + 1] = [w[k], w[k] + rng.choice((-1, 1)), w[k]]
    return w


def _suite_fcs_basis(run, max_size, window, rng):
    words = list(tl.fcs_words_in_range(-window, window, 6))
    by_diagram: dict = {}
    for w in words:
        diag = tl.fcs_to_diagram(w)
        run.check(
            diag is not None and diag not in by_diagram,
            law="distinct-diagrams", word=w,
        )
        by_diagram[diag] = w
    for w in words:
        run.check(
            tl.normalize(tl.fcs_to_word(w)) == w, law="normal-form-roundtrip", word=w,
        )
    lam_range = list(enumerate_partitions(min(max_size, 10)))
    for _ in range(500):
        u = [rng.randint(-3, 3) for _ in range(rng.randint(1, 8))]
        v = _rewrite(u, rng) if rng.random() < 0.5 else [
            rng.randint(-3, 3) for _ in range(rng.randint(1, 8))
        ]
        du, dv = tl.word_to_diagram(u), tl.word_to_diagram(v)
        if du == dv:
            same = all(
                fock.apply_word({lam: 1}, u, "xi-prime")
                == fock.apply_word({lam: 1}, v, "xi-prime")
                for lam in lam_range
            )
            run.check(same, law="action-factors-through-diagrams", u=u, v=v)
        else:
            run.checked += 1
        if du is None:
            run.check(
                all(
                    fock.apply_word({lam: 1}, u, "xi-prime") == {}
                    for lam in lam_range[:20]
                ),
                law="zero-diagram-zero-action", u=u,
            )
    short = [w for w in words if tl.fcs_length(w) <= 4]
    for _ in range(100):
        a, b, c = (rng.choice(short) for _ in range(3))
        lhs = tl.element_multiply(tl.element_multiply({a: 1}, {b: 1}), {c: 1})
        rhs = tl.element_multiply({a: 1}, tl.element_multiply({b: 1}, {c: 1}))
        run.check(lhs == rhs, law="associativity", words=[a, b, c])


def _suite_faithfulness(run, max_size, window, rng, samples: int = 1000):
    words = [w for w in tl.fcs_words_in_range(-window, window, 6) if w]
    for w in words:
        lam = tl.witness_partition(w, tl.min_witness_rows(w))
        run.check(
            tl.minimal_part(w, lam) is not None,
            law="witness-has-bottom-sector", word=w, partition=list(lam),
        )
    expanded = [(w, tl.fcs_to_word(w)) for w in words]
    for lam in enumerate_partitions(max_size):
        seen: dict = {}
        boxes = sum(lam)
        for w, word in expanded:
            length = len(word)
            if length > boxes:
                continue
            part = tl.bottom_sector(word, lam)
            run.checked += 1
            if part is None:
                continue
            key = (length, part)
            if key in seen:
                run.failures.append(
                    {
                        "law": "equal-length-bottom-collision",
                        "partition": list(lam),
                        "words": [seen[key], w],
                    }
                )
            seen[key] = w
    for _ in range(samples):
        count = rng.randint(1, 4)
        chosen = rng.sample(words, min(count, len(words)))
        element = {w: rng.choice((-3, -2, -1, 1, 2, 3)) for w in chosen}
        try:
            witness = tl.faithfulness_witness(element)
            run.check(
                witness is not None and bool(witness[1]),
                law="nonzero-acts-nonzero", element=tl.element_to_json(element),
            )
        except RuntimeError as exc:
            run.failures.append(
                {
                    "law": "nonzero-acts-nonzero",
                    "element": tl.element_to_json(element),
                    "error": str(exc),
                }
            )


_SUITES = {
    "tl-relations": _suite_tl_relations,
    "tl-prime-relations": _suite_tl_prime_relations,
    "single-term": _suite_single_term,
    "preserve": _suite_preserve,
    "remove-box": _suite_remove_box,
    "marking": _suite_marking,
    "d-roundtrip": _suite_d_roundtrip,
    "proplink": _suite_proplink,
    "lemaddq": _suite_lemaddq,
    "ideals": _suite_ideals,
    "fcs-basis": _suite_fcs_basis,
    "faithfulness": _suite_faithfulness,
}

SUITE_NAMES = tuple(_SUITES) + ("all",)


def run_suite(suite: str, max_size: int = 10, window: int = 3, seed: int = 0) -> VerifyReport:
    """Run one named suite (or all of them) and return its report."""
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITE_NAMES}")
    start = time.perf_counter()
    parameters = {"max_size": max_size, "window": window, "seed": seed}
    if suite == "all":
        report = VerifyReport(suite="all", parameters=parameters)
        summary = []
        for name in _SUITES:
            sub = run_suite(name, max_size=max_size, window=window, seed=seed)
            report.checked += sub.checked
            report.failures.extend({"suite": name, **f} for f in sub.failures)
            summary.append(
                {"suite": name, "checked": sub.checked, "failures": len(sub.failures)}
            )
        report.parameters = {**parameters, "suites": summary}
        report.elapsed = time.perf_counter() - start
        return report
    run = _Run()
    rng = random.Random(f"{seed}:{suite}")
    _SUITES[suite](run, max_size, window, rng)
    return VerifyReport(
        suite=suite,
        parameters=parameters,
        checked=run.checked,
        failures=run.failures,
        elapsed=time.perf_counter() - start,
    )
