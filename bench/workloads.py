"""Seeded requests, the calls that serve them, and their output checks.

Every workload is an endless stream of rounds; a round is a list of
requests ``(kind, family, payload, expected)`` drawn from
``random.Random`` seeded by the workload name and the seed, so the same seed
always gives the same stream.  A request is served by ``call`` (the only part
that is timed) and judged by ``check``, which returns None or a message and
never trusts the library: expectations are known by construction or come from
``oracle``.

The library is imported by ``bind()`` and used only through module
attributes (``fock.tensor_rows``), so a tracer that rebinds those attributes
sees every call.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from pathlib import Path

import oracle

cli = fock = partitions = strata = tl = weights = None

VERIFY_ARGS = ("--suite", "all", "--max-size", "10", "--window", "3")
# stdout of `peritl verify` at VERIFY_ARGS, recorded per --seed at the seed commit
PINNED = json.loads((Path(__file__).with_name("verify_expected.json")).read_text())

# Generator windows of algebra-queries: every width in WIDTHS at every offset
# in OFFSETS.  A normal-form table is built on a window's first use.  One new
# window opens every NEW_WINDOW_EVERY rounds, in seeded order, and its first
# request builds the table; all other requests draw from the open windows
# and hit built tables.  So table builds are spread over the first ~15 s of
# a run at the seed commit instead of bunching at its start, and the 11
# width-8 builds are the 11 slowest requests.
WIDTHS = range(2, 9)
OFFSETS = range(-5, 6)
NEW_WINDOW_EVERY = 8


def bind() -> None:
    """Import the library (kept out of module import, so set-up timing
    starts before it)."""
    global cli, fock, partitions, strata, tl, weights
    import peritl.cli as cli
    from peritl import fock, partitions, strata, tl, weights


def _cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# verify-sweep


def verify_rounds(seed: int):
    """One `verify --suite all` per round, at verify seeds seed, seed+1, ...
    taken modulo the pinned seeds."""
    n = len(PINNED["seeds"])
    i = 0
    while True:
        s = (seed + i) % n
        argv = ("verify",) + VERIFY_ARGS + ("--seed", str(s))
        yield [("verify", "all", argv, PINNED["seeds"][str(s)])]
        i += 1


# ---------------------------------------------------------------------------
# shape families
#
# A family maps u, v in [0, 1) to sizes inside its ranges and returns the
# shapes of one draw.  Each round draws every family once per band of u, and
# u and v walk golden-ratio sequences from seeded starting points, so every
# run sees nearly the same spread of sizes in every few rounds and the
# machine, not the luck of the draw, sets the run-to-run spread.
# Rectangles come with their transposes: a tall rectangle costs several
# times its wide twin, while the pair costs about the same at every aspect.

PHI = (5 ** 0.5 - 1) / 2
SILVER = 2 ** 0.5 - 1


def _between(lo: int, hi: int, u: float) -> int:
    return lo + int(u * (hi - lo + 1))


def rectangles(u: float, v: float, lo: int, hi: int):
    """(m,)*k and (k,)*m with m + k from lo..hi and m/(m+k) set by v."""
    p = _between(lo, hi, u)
    m = 1 + int(v * (p - 1))
    return [(m,) * (p - m), (p - m,) * m]


def random_partition(rng: random.Random, n: int, cap: int):
    """Random parts of at most `cap` boxes, sorted, totalling n."""
    parts = []
    while n:
        p = rng.randint(1, min(n, cap))
        parts.append(p)
        n -= p
    return tuple(sorted(parts, reverse=True))


def noisy_staircase(rng: random.Random, k: int):
    """staircase(k) with up to k random corner boxes added or removed."""
    lam = oracle.staircase(k)
    for _ in range(rng.randint(1, k)):
        q = rng.randint(-len(lam), lam[0] if lam else 0)
        lam = oracle.add_box(lam, q) or oracle.remove_box(lam, q) or lam
    return lam


FAMILIES = {
    "rect": lambda rng, u, v: rectangles(u, v, 40, 80),
    "rect-small": lambda rng, u, v: rectangles(u, v, 24, 48),
    "random": lambda rng, u, v: [random_partition(rng, _between(100, 1000, u), 45)],
    "random-small": lambda rng, u, v: [random_partition(rng, _between(100, 600, u), 45)],
    "stair": lambda rng, u, v: [noisy_staircase(rng, _between(10, 40, u))],
    "tiny-random": lambda rng, u, v: [random_partition(rng, _between(8, 25, u), 8)],
    "tiny-stair": lambda rng, u, v: [noisy_staircase(rng, _between(3, 6, u))],
}

# (kind, family, bands per round).  Weight lookups are two thirds of the
# requests, so the median latency is a weight lookup and not a boundary
# between request kinds; the slowest requests are tensor rows of the
# largest rectangles.
SHAPE_MIX = (
    ("tensor", "rect", 3),
    ("tensor", "random", 2),
    ("tensor", "stair", 2),
    ("cell", "rect-small", 2),
    ("cell", "random-small", 2),
    ("cell", "stair", 2),
    ("weight", "rect", 8),
    ("weight", "random", 15),
    ("weight", "stair", 15),
    ("inverse", "tiny-random", 3),
    ("inverse", "tiny-stair", 3),
)


def shape_rounds(seed: int):
    rng = random.Random(f"shape-queries:{seed}")
    starts = [(rng.random(), rng.random()) for _ in SHAPE_MIX]
    for r in itertools.count():
        rnd = []
        for (kind, family, bands), (u0, v0) in zip(SHAPE_MIX, starts):
            u, v = (u0 + r * PHI) % 1, (v0 + r * SILVER) % 1
            for b in range(bands):
                for lam in FAMILIES[family](rng, (b + u) / bands, (v + b * PHI) % 1):
                    payload = (lam, oracle.cell_index(lam)) if kind == "inverse" else lam
                    rnd.append((kind, family, payload, None))
        rng.shuffle(rnd)
        yield rnd


# ---------------------------------------------------------------------------
# algebra families


def covering_fcs(rng: random.Random, lo: int, hi: int):
    """A random fully commutative word whose letters are exactly lo..hi."""
    width = hi - lo + 1
    while True:
        r = rng.randint(1, width)
        starts = sorted(rng.sample(range(lo + 1, hi + 1), r - 1) + [lo], reverse=True)
        ends = sorted(rng.sample(range(lo, hi), r - 1) + [hi], reverse=True)
        w = tuple(zip(starts, ends))
        if oracle.fcs_ok(w) and all(w[k][0] <= w[k + 1][1] + 1 for k in range(r - 1)):
            return w


def short_fcs(rng: random.Random, lo: int, hi: int, max_len: int):
    """A random nonempty fully commutative word on lo..hi of bounded length."""
    while True:
        r = rng.randint(1, min(3, hi - lo + 1))
        starts = sorted(rng.sample(range(lo, hi + 1), r), reverse=True)
        ends = sorted(rng.sample(range(lo, hi + 1), r), reverse=True)
        w = tuple(zip(starts, ends))
        if oracle.fcs_ok(w) and len(oracle.fcs_letters(w)) <= max_len:
            return w


def rewrite(rng: random.Random, word: list[int], lo: int, hi: int, steps: int) -> list[int]:
    """Apply element-preserving rewrites inside lo..hi: i -> i,i+-1,i and
    swaps of adjacent letters that are at least two apart."""
    w = list(word)
    for _ in range(steps):
        if rng.random() < 0.5:
            k = rng.randrange(len(w))
            q = w[k]
            w[k:k + 1] = [q, rng.choice([x for x in (q - 1, q + 1) if lo <= x <= hi]), q]
        else:
            spots = [k for k in range(len(w) - 1) if abs(w[k] - w[k + 1]) > 1]
            if spots:
                k = rng.choice(spots)
                w[k], w[k + 1] = w[k + 1], w[k]
    return w


def _coeff(rng: random.Random) -> int:
    return rng.choice((-3, -2, -1, 1, 2, 3))


def normalize_request(rng, lo, hi, zero: bool):
    t = covering_fcs(rng, lo, hi)
    word = rewrite(rng, oracle.fcs_letters(t), lo, hi, rng.randint(1, 6))
    if zero:
        q = rng.randint(lo, hi)
        k = rng.randint(0, len(word))
        word[k:k] = [q, q]
    return ("normalize", "zero" if zero else "fcs", tuple(word),
            None if zero else [list(iv) for iv in t])


def witness_request(rng, lo, hi):
    words = {short_fcs(rng, lo, hi, 8) for _ in range(rng.randint(1, 3))}
    element = {w: _coeff(rng) for w in sorted(words)}
    return ("witness", "element", element, oracle.witness(element))


def multiply_request(rng, lo, hi):
    """{t: c} times up to three monomials whose products with t are known:
    t ++ v is already normal, t's last run a..b then b-1 contracts to a..b-1,
    and a leading b after t's last letter b is zero."""
    t = covering_fcs(rng, lo, hi)
    a, b = t[-1]
    c = _coeff(rng)
    right, expected = {}, {}
    if a > lo and rng.random() < 0.7:
        v = short_fcs(rng, lo, hi, 8)
        while not (v[0][0] < a and v[0][1] < b):
            v = short_fcs(rng, lo, hi, 8)
        right[v] = _coeff(rng)
        expected[t + v] = c * right[v]
    if a < b and rng.random() < 0.7:
        v = ((b - 1, b - 1),)
        right[v] = _coeff(rng)
        expected[t[:-1] + ((a, b - 1),)] = c * right[v]
    if not right or rng.random() < 0.3:
        right[((b, rng.randint(b, hi)),)] = _coeff(rng)
    return ("multiply", "known", ({t: c}, right), expected)


def algebra_rounds(seed: int):
    rng = random.Random(f"algebra-queries:{seed}")
    windows = [(lo, lo + w - 1) for w in WIDTHS for lo in OFFSETS]
    rng.shuffle(windows)
    opened = 0
    for r in itertools.count():
        fresh = r % NEW_WINDOW_EVERY == 0 and opened < len(windows)
        opened += fresh
        rnd = [normalize_request(rng, *windows[opened - 1], zero=False)] if fresh else []
        while len(rnd) < 3:
            rnd.append(normalize_request(rng, *rng.choice(windows[:opened]), zero=False))
        rnd.append(normalize_request(rng, *rng.choice(windows[:opened]), zero=True))
        rnd.append(witness_request(rng, *rng.choice(windows[:opened])))
        rnd.append(multiply_request(rng, *rng.choice(windows[:opened])))
        rng.shuffle(rnd)
        yield rnd


# ---------------------------------------------------------------------------
# serving and checking


def call(req):
    kind, _, payload, _ = req
    if kind in ("verify", "witness", "normalize"):
        if kind == "normalize":
            payload = ("normalize", "--word=" + ",".join(map(str, payload)))
        elif kind == "witness":
            doc = [{"word": [list(iv) for iv in w], "coeff": c} for w, c in payload.items()]
            payload = ("witness", "--element=" + json.dumps(doc))
        return _cli(payload)
    if kind == "tensor":
        return fock.tensor_rows(payload)
    if kind == "cell":
        return strata.cell_index(payload), strata.block_index(payload)
    if kind == "weight":
        return weights.dominant_weight(payload)
    if kind == "inverse":
        lam, n = payload
        d = weights.d_set(lam)
        return d, weights.partition_from_d_set(d, n)
    if kind == "multiply":
        return tl.element_multiply(*payload)
    raise ValueError(f"unknown request kind {kind!r}")


def check(req, out):
    """None when `out` is the right answer to `req`, else a message."""
    kind, _, payload, expected = req
    if kind in ("verify", "witness", "normalize"):
        code, text = out
        if code != 0:
            return f"exit code {code}"
        doc = json.loads(text)
        if kind != "verify":
            return None if doc == expected else f"got {doc}, expected {expected}"
        if doc["failures"]:
            return f"{len(doc['failures'])} verification failures"
        if doc["checked"] != expected["checked"]:
            return f"{doc['checked']} checks, pinned {expected['checked']}"
        if hashlib.sha256(text.encode()).hexdigest() != expected["sha256"]:
            return "stdout differs from the pinned digest"
        return None
    if kind == "tensor":
        return oracle.tensor_rows_error(payload, out)
    if kind == "cell":
        lam = payload
        cell, block = out
        if cell != oracle.cell_index(lam):
            return f"cell index {cell}, staircase containment gives {oracle.cell_index(lam)}"
        if (sum(lam) - block * (block + 1) // 2) % 2:
            return f"block index {block} breaks the parity law"
        if not block == oracle.two_core_index(lam) == oracle.two_core_index(oracle.transpose(lam)):
            return f"block index {block}, abacus gives {oracle.two_core_index(lam)}"
        return None
    if kind == "weight":
        want = oracle.dominant_weight(payload)
        return None if tuple(out) == want else f"got {out}, expected {want}"
    if kind == "inverse":
        lam, _ = payload
        d, back = out
        if d != oracle.d_set(lam):
            return f"d-set {sorted(d)}, marking gives {sorted(oracle.d_set(lam))}"
        return None if back == lam else f"inverse gave {back}, expected {lam}"
    if kind == "multiply":
        return None if out == expected else f"got {out}, expected {expected}"
    raise ValueError(f"unknown request kind {kind!r}")


def work(req, out) -> int:
    """Units counted by ops_per_s: checks for a verify sweep, else 1."""
    return json.loads(out[1])["checked"] if req[0] == "verify" else 1


WORKLOADS = {
    "verify-sweep": verify_rounds,
    "shape-queries": shape_rounds,
    "algebra-queries": algebra_rounds,
}

# One tiny request of each kind a workload sends, for the set-up measurement.
WARMUP = {
    "verify-sweep": [
        ("verify", "tiny", ("verify", "--suite", "marking", "--max-size", "2"), None),
    ],
    "shape-queries": [
        ("tensor", "tiny", (2, 1), None),
        ("cell", "tiny", (2, 1), None),
        ("weight", "tiny", (2, 1), None),
        ("inverse", "tiny", ((2, 1), 2), None),
    ],
    "algebra-queries": [
        ("normalize", "tiny", (0, 1, 0), [[0, 0]]),
        ("witness", "tiny", {((0, 0),): 1}, None),
        ("multiply", "tiny", ({((1, 1),): 1}, {((0, 0),): 1}), None),
    ],
}
