"""Exhaustive verification sweeps over the whole library.

Each suite replays one family of structural laws at desk scale and collects
counterexamples as data instead of raising.  Every sweep is deterministic in
(suite, max_size, window, seed); randomized parts draw from a seeded
generator keyed by the suite name.
"""
from __future__ import annotations

import random
import time
from functools import partial
from typing import Optional

from . import fock, strata, tl, weights
from .partitions import (
    add_box,
    addable_contents,
    check_partition,
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


class VerifyReport:
    def __init__(self, suite: str, parameters: dict, checked: int = 0,
                 failures: Optional[list] = None, elapsed: float = 0.0):
        self.suite = suite
        self.parameters = parameters
        self.checked = checked
        self.failures = [] if failures is None else failures
        self.elapsed = elapsed
        self.parts: list = []

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, ok: bool, **context) -> None:
        """Count one check; record `context` as a failure unless `ok`."""
        self.checked += 1
        if not ok:
            self.failures.append(context)

    def add_part(self, part: VerifyReport) -> None:
        """Fold a sub-suite's report into this one: its counts go to the JSON
        under parameters["suites"], the report itself (with its time) to
        `parts`."""
        self.checked += part.checked
        self.failures.extend({"suite": part.suite, **f} for f in part.failures)
        self.parameters["suites"].append(
            {"suite": part.suite, "checked": part.checked, "failures": len(part.failures)}
        )
        self.parts.append(part)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "parameters": self.parameters,
            "checked": self.checked,
            "failures": self.failures,
        }


def _staircase_reach(max_size: int) -> int:
    """The largest k with staircase(k) of at most max_size boxes, and at least
    4: staircases 0..4 are a fixed table that every sweep checks."""
    return max([4] + [k for k in range(max_size + 1) if k * (k + 1) // 2 <= max_size])


def _relation_suite(rep, run, max_size, window, rng, table):
    """Square-zero, far commutation, and the three-index contraction, on each
    partition at every index of its support window widened by two, counted
    one check per (lam, i[, j]).  A word's image of one partition is the
    sorted list of its terms, a term repeated once per path: no coefficient
    is negative, so two images agree exactly when their lists do, and the
    zero image is [].  A law whose words all start from a zero image holds,
    so it is not computed."""

    def act(q, terms):
        out = []
        for mu in terms:
            out += fock.images(mu, q, rep, table)
        out.sort()
        return out

    for lam in enumerate_partitions(max_size):
        qmin, qmax = fock.support_bounds(lam)
        window = range(qmin - 2, qmax + 3)
        width = len(window)
        run.checked += 3 * width + (width - 1) * (width - 2) // 2
        first = {i: sorted(fock.images(lam, i, rep, table)) for i in window}

        def fail(law, **at):
            run.failures.append({"law": law, "rep": rep, "partition": list(lam), **at})

        for i in window:
            if first[i]:
                if act(i, first[i]):
                    fail(law="square-zero", i=i)
                for pm in (1, -1):
                    if act(i, act(i + pm, first[i])) != first[i]:
                        fail(law="contraction", i=i, pm=pm)
            for j in range(i + 2, window.stop):
                if (first[i] or first[j]) and act(i, first[j]) != act(j, first[i]):
                    fail(law="far-commutation", i=i, j=j)


def _suite_single_term(run, max_size, window, rng, table):
    """Shape laws of the single-generator actions.  `plain-action-is-add-plus-remove`
    restates `fock.xi_prime_on_partition`: it guards the table and `apply_word`."""
    for lam in enumerate_partitions(max_size):
        qmin, qmax = fock.support_bounds(lam)
        for q in range(qmin - 2, qmax + 3):
            case = fock.classify_case(lam, q)
            image = fock.apply_word({lam: 1}, [q], "xi", table)
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
            prime = fock.apply_word({lam: 1}, [q], "xi-prime", table)
            expected = {}
            for term in (add_box(lam, q), remove_box(lam, q - 1)):
                if term is not None:
                    expected[term] = expected.get(term, 0) + 1
            run.check(
                prime == expected,
                law="plain-action-is-add-plus-remove", partition=list(lam), q=q,
            )


def _suite_preserve(run, max_size, window, rng, table):
    """Staircase containment survives every nonzero twisted step."""
    reach = _staircase_reach(max_size)
    failures: list = [[] for _ in range(reach + 1)]  # by k, to record k by k
    for lam in enumerate_partitions(max_size):
        ks = [k for k in range(reach + 1) if strata.in_ideal(lam, k)]
        qmin, qmax = fock.support_bounds(lam)
        for q in range(qmin - 2, qmax + 3):
            run.checked += len(ks)
            for kappa in fock.images(lam, q, "xi", table):
                for k in ks:
                    if not strata.in_ideal(kappa, k):
                        failures[k].append(
                            {"law": "ideal-closure", "k": k, "partition": list(lam),
                             "q": q, "image": list(kappa)}
                        )
    for records in failures:
        run.failures.extend(records)


def _suite_remove_box(run, max_size, window, rng, table):
    """Block multiplicities triggered by removable neighbours of a removed box:
    kappa sits in the index-q block of the box tensor of nu exactly when the
    twisted generator q sends nu to kappa."""
    for nu in enumerate_partitions(max_size):
        for q in removable_contents(nu):
            kappa = remove_box(nu, q)
            if remove_box(kappa, q - 1) is not None:
                run.check(
                    fock.images(nu, q - 1, "xi", table) == (kappa,),
                    law="removed-left-neighbour", nu=list(nu), q=q,
                )
            if remove_box(kappa, q + 1) is not None:
                run.check(
                    fock.images(nu, q + 1, "xi", table) == (kappa,),
                    law="removed-right-neighbour", nu=list(nu), q=q,
                )
        for q in addable_contents(nu):
            run.check(
                fock.images(nu, q, "xi", table) == (add_box(nu, q),),
                law="added-box-multiplicity", nu=list(nu), q=q,
            )
        qmin, qmax = fock.support_bounds(nu)
        row = [
            (q, kappa)
            for q in range(qmax + 2, qmin - 3, -1)
            for kappa in fock.images(nu, q, "xi", table)
        ]
        run.check(fock.tensor_rows(nu) == row, law="row-sum-consistency", nu=list(nu))


def _suite_marking(run, max_size, window, rng, table):
    """Laws of the marking.  `d-set-is-shifted` reads `marking`'s contents on
    both sides, so it guards only the shift by one from `d_tilde` to `d_set`."""
    for lam, boxes in REFERENCE_MARKINGS.items():
        run.check(
            weights.marking(lam) == boxes,
            law="reference-marking", partition=list(lam),
        )
    for lam in enumerate_partitions(max_size):
        mark = weights.marking(lam)
        run.check(
            len(mark) == strata.cell_index(lam),
            law="diamond-count-is-cell-index", partition=list(lam),
        )
        contents = [j - i for i, j in mark]
        run.check(
            all(contents[i] < contents[i + 1] for i in range(len(contents) - 1)),
            law="marked-contents-increase", partition=list(lam),
        )
        run.check(
            weights.d_set(lam) == {c - 1 for c in weights.d_tilde(lam)},
            law="d-set-is-shifted", partition=list(lam),
        )


def _suite_d_roundtrip(run, max_size, window, rng, table):
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


def _suite_proplink(run, max_size, window, rng, table):
    for n in range(1, 9):
        run.check(
            weights.dominant_weight(staircase(n))
            == (n, tuple(-i for i in range(1, n + 1))),
            law="staircase-weight", n=n,
        )
    # one check per partition: some cut is admissible, every generic cut
    # gives the dictionary's weight
    for lam in enumerate_partitions(max_size):
        run.checked += 1
        cuts = weights.closed_form_weights(lam)
        omega = weights.dominant_weight(lam)[1]
        if not cuts or any(w is not None and w != omega for w in cuts):
            run.failures.append(
                {"law": "closed-form-vs-dictionary", "partition": list(lam),
                 "closed": [None if w is None else list(w) for w in cuts],
                 "dictionary": list(omega)}
            )


def _suite_lemaddq(run, max_size, window, rng, table):
    """Adding a q-box that keeps the cell index moves one d-set value: q - 2
    becomes q - 1 past a marked box of content q - 1 (case i), otherwise q
    becomes q - 1 past a marked box of content q + 1 (case ii)."""
    applicable = 0
    for lam in enumerate_partitions(max_size):
        qmin, qmax = fock.support_bounds(lam)
        for q in range(qmin - 1, qmax + 2):
            run.checked += 1
            mu = add_box(lam, q)
            if mu is None or strata.cell_index(mu) != strata.cell_index(lam):
                continue
            tilde = weights.d_tilde(lam)
            if q - 1 in tilde:
                case, old, new = "i", q - 2, q - 1
            elif q + 1 in tilde:
                case, old, new = "ii", q, q - 1
            else:
                continue
            applicable += 1
            before, after = weights.d_set(lam), weights.d_set(mu)
            expected = (before - {old}) | {new}
            if old not in before or after != expected:
                run.failures.append(
                    {"law": "d-set-surgery", "partition": list(lam), "q": q,
                     "applicable": True, "case": case, "pass": False,
                     "d_before": sorted(before), "d_after": sorted(after),
                     "d_expected": sorted(expected)}
                )
    if max_size >= 1:  # the empty partition alone has no surgery case
        run.check(applicable > 0, law="surgery-cases-exist", max_size=max_size)


def _suite_ideals(run, max_size, window, rng, table):
    reach = _staircase_reach(max_size)
    for k in range(reach + 1):
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
        for k in range(reach + 1):
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
    # generation of ideal members by single-box twisted steps: from
    # staircase(k), add the boxes of lam row by row, each left to right, and
    # stay in ideal k up to lam itself.  That walk is the walk to lam less
    # the last box of its lowest row past staircase(k), enumerated earlier,
    # plus one step; `arrived` holds the partitions whose walk arrived
    for k in range(reach):
        stair, arrived = staircase(k), set()
        for lam in enumerate_partitions(max_size):
            if not strata.in_ideal(lam, k):
                continue
            # a cell index that reads too high admits lam without staircase(k)
            ok = contains(lam, stair)
            if ok and lam != stair:
                i = max(r for r, part in enumerate(lam) if part > k - r)
                q = lam[i] - 1 - i
                prev = remove_box(lam, q)
                ok = prev in arrived and fock.images(prev, q, "xi", table) == (lam,)
            if ok:
                arrived.add(lam)
            run.check(ok, law="generation-path", k=k, partition=list(lam))
    # quasi-order versus the largest staircase each partition contains
    sample = [(), (1,), (2,), (2, 1), (3, 2, 1), (4, 2, 1)]
    largest = {lam: max(k for k in range(len(lam) + 1) if contains(lam, staircase(k)))
               for lam in sample}
    for lam in sample:
        for mu in sample:
            a, b = largest[lam], largest[mu]
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
    # the labels of the r-th tensor power against an independent model: the
    # partitions the box tensor reaches from () in r twisted steps
    supports = [{()}]
    for r in range(1, 7):
        reached: set = set()
        for nu in supports[-1]:
            qmin, qmax = fock.support_bounds(nu)
            for q in range(qmin, qmax + 1):
                reached.update(fock.images(nu, q, "xi", table))
        supports.append(reached)
    for n in range(1, 4):
        for r in range(7):
            labels = strata.summand_labels(n, r)
            for i, (lam, appears, projective) in enumerate(labels):
                run.check(
                    sum(lam) in strata.j_zero_set(r)
                    and lam in supports[r]
                    and (i > 0 or len(labels) == len(supports[r]))
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


def _suite_fcs_basis(run, max_size, window, rng, table):
    words = list(tl.fcs_words_in_range(-window, window, 6))
    letters = [tl.fcs_to_word(w) for w in words]
    # each normal form and each random word below reads its diagram off the
    # diagrams of its prefixes, shared by every word of this call
    diagrams: dict = {}
    by_diagram: dict = {}
    for w, word in zip(words, letters):
        diag = tl.word_to_diagram(word, diagrams)
        run.check(
            diag is not None and diag not in by_diagram,
            law="distinct-diagrams", word=w,
        )
        by_diagram[diag] = w
    for w, word in zip(words, letters):
        run.check(tl.normalize(word) == w, law="normal-form-roundtrip", word=w)
    pairs = []
    for _ in range(500):
        u = [rng.randint(-3, 3) for _ in range(rng.randint(1, 8))]
        v = _rewrite(u, rng) if rng.random() < 0.5 else [
            rng.randint(-3, 3) for _ in range(rng.randint(1, 8))
        ]
        pairs.append((u, v))
    # Each law acts once on one operand instead of once per partition: the
    # base-B digits of the image of sum_k B**k lam_k are the columns of
    # lam_range.  A letter's matrix has 0/1 entries, at most two 1s per column
    # (one added and one removed box, as `plain-action-is-add-plus-remove`
    # checks), so an entry of an n-letter word's matrix counts paths and lies
    # in [0, 2**n]: B = 2**(1 + the longest word drawn) holds every entry in
    # one digit.  No entry is negative, so images agree, or are zero, exactly
    # when every column does.
    # lam_range stops at 10 boxes: a wider one moves no check count, and 22 ran over 10x slower.
    lam_range = list(enumerate_partitions(min(max_size, 10)))
    shift = 1 + max(len(w) for pair in pairs for w in pair)
    operand = {lam: 1 << shift * k for k, lam in enumerate(lam_range)}
    # a word acts rightmost letter first, so its last letter's image of the
    # operand is shared by every word that ends in it
    weighted: dict = {}  # q -> T_q applied to the operand

    def act(word):
        if word[-1] not in weighted:
            weighted[word[-1]] = fock.apply_word(operand, word[-1:], "xi-prime", table)
        return fock.apply_word(weighted[word[-1]], word[:-1], "xi-prime", table)

    for u, v in pairs:
        du, dv = tl.word_to_diagram(u, diagrams), tl.word_to_diagram(v, diagrams)
        nu = tl.normalize(u)  # it builds no diagram: check it against u's
        try:
            same = du == (None if nu is None else tl.word_to_diagram(tl.fcs_to_word(nu), diagrams))
        except ValueError:  # nu is not fully commutative
            same = False
        if du == dv or du is None:
            image = act(u)
        run.check(same and (du != dv or image == act(v)),
                  law="action-factors-through-diagrams", u=u, v=v)
        if du is None:
            run.check(image == {}, law="zero-diagram-zero-action", u=u)
    short = [w for w in words if tl.fcs_length(w) <= 4]
    for _ in range(100):
        a, b, c = (rng.choice(short) for _ in range(3))
        # ab acts as a's word then b's, on the witness of the longer factor
        lam = tl.witness_partition(max(a, b, key=tl.element_key))
        acts = fock.apply_word({lam: 1}, tl.fcs_to_word(a) + tl.fcs_to_word(b), "xi-prime", table)
        try:
            ab = tl.element_multiply({a: 1}, {b: 1})
            lhs = tl.element_multiply(ab, {c: 1})
            rhs = tl.element_multiply({a: 1}, tl.element_multiply({b: 1}, {c: 1}))
            ok = lhs == rhs and tl.element_action(ab, lam, table) == acts
        except ValueError:  # a product is not fully commutative
            ok = False
        run.check(ok, law="associativity", words=[a, b, c])


def _suffix_trie(words: list) -> tuple:
    """The words read right to left, as `tl.bottom_sector` reads them, as a
    trie: a node is (children, ends), children mapping a letter to a node and
    ends listing the indices of the words that end at the node."""
    root: tuple = ({}, [])
    for k, word in enumerate(words):
        node = root
        for q in reversed(word):
            node = node[0].setdefault(q, ({}, []))
        node[1].append(k)
    return root


def _bottom_sectors(trie: tuple, lam) -> list:
    """(k, sector) for each word k of `trie` whose bottom sector on lam is
    not None, by increasing k: one depth-first walk removes the box of
    content q - 1 on each edge q and drops a branch at the first None."""
    out = []
    stack = [(trie, lam)]
    while stack:
        (children, ends), cur = stack.pop()
        out.extend((k, cur) for k in ends)
        for q, child in children.items():
            nxt = remove_box(cur, q - 1)
            if nxt is not None:
                stack.append((child, nxt))
    out.sort()
    return out


def _suite_faithfulness(run, max_size, window, rng, table):
    words = [w for w in tl.fcs_words_in_range(-window, window, 6) if w]
    expanded = [(w, tl.fcs_to_word(w)) for w in words]
    for w, word in expanded:
        lam = tl.witness_partition(w)
        try:
            ok = check_partition(lam) == lam
        except ValueError:  # the witness is not a partition
            ok = False
        ok = ok and tl.bottom_sector(word, lam) is not None
        run.check(ok, law="witness-has-bottom-sector", word=w, partition=list(lam))
    trie = _suffix_trie([word for _, word in expanded])
    longest = max((len(word) for _, word in expanded), default=0)
    # no_longer[b]: the words of length at most b, each one check on a
    # partition of b boxes; a longer word has no bottom sector there
    no_longer = [sum(len(word) <= b for _, word in expanded) for b in range(longest + 1)]
    for lam in enumerate_partitions(max_size):
        seen: dict = {}
        run.checked += no_longer[min(sum(lam), longest)]
        for k, part in _bottom_sectors(trie, lam):
            w, word = expanded[k]
            key = (len(word), part)
            if key in seen:
                run.failures.append(
                    {
                        "law": "equal-length-bottom-collision",
                        "partition": list(lam),
                        "words": [seen[key], w],
                    }
                )
            seen[key] = w
    for _ in range(1000):
        count = rng.randint(1, 4)
        chosen = rng.sample(words, min(count, len(words)))
        element = {w: rng.choice((-3, -2, -1, 1, 2, 3)) for w in chosen}
        witness = tl.faithfulness_witness(element, table)
        run.check(
            witness is not None and bool(witness[1]),
            law="nonzero-acts-nonzero", element=tl.element_to_json(element),
            partition=None if witness is None else list(witness[0]),
        )


def _suite_cli_examples(run, max_size, window, rng, table):
    """Replay the frozen command examples; a mismatch is a failure."""
    from .cli import CLI_EXAMPLES  # imported here: cli imports this module

    for idx, (invoke, expected) in enumerate(CLI_EXAMPLES):
        got = invoke()
        run.check(got == expected, law="frozen-example", index=idx,
                  expected=expected, got=got)


_SUITES = {
    "tl-relations": partial(_relation_suite, "xi"),
    "tl-prime-relations": partial(_relation_suite, "xi-prime"),
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
    "cli-examples": _suite_cli_examples,
}

SUITE_NAMES = tuple(_SUITES) + ("all",)


def run_suite(
    suite: str, max_size: int = 10, window: int = 3, seed: int = 0, *, table=None
) -> VerifyReport:
    """Run one named suite (or all of them) and return its report.  Generator
    images are kept in `table` (see `fock.images`), a new dict unless
    given, so each is computed once per call; "all" shares one table, and
    runs each suite through this function, so a wrapper of `run_suite` sees
    every suite."""
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITE_NAMES}")
    start = time.perf_counter()
    parameters = {"max_size": max_size, "window": window, "seed": seed}
    report = VerifyReport(suite=suite, parameters=parameters)
    table = {} if table is None else table
    if suite == "all":
        report.parameters["suites"] = []
        for name in _SUITES:
            report.add_part(run_suite(name, max_size, window, seed, table=table))
    else:
        _SUITES[suite](report, max_size, window, random.Random(f"{seed}:{suite}"), table)
    report.elapsed = time.perf_counter() - start
    return report
