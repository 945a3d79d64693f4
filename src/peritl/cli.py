"""Batch command-line front end.

All commands read simple flags, print a single JSON document on stdout, and
are byte-deterministic for fixed inputs.  Exit codes: 0 success, 1
verification failures, 2 usage or parse errors, 3 domain precondition
violations, 4 internal invariant violations (a `RuntimeError` raised by a
cross-check of the library; reported as one `error:` line on stderr).

Partitions are comma-separated parts, largest first, with the empty string
for the empty partition; words are comma-separated generator indices,
applied rightmost first.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .fock import (
    FockVector,
    apply_word,
    tensor_rows,
    vector_from_json,
    vector_to_json,
)
from .partitions import Partition, check_partition
from .strata import stratum_report, summand_labels
from .tl import element_from_json, faithfulness_witness, normalize
from .verify import SUITE_NAMES, VerifyReport, run_suite
from .weights import dominant_weight

CACHE_FORMAT = "peritl-cache"
CACHE_VERSION = 1


class CliError(Exception):
    """Carries the process exit code alongside the diagnostic."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def parse_partition(text: str) -> Partition:
    if text.strip() == "":
        return ()
    try:
        return check_partition(int(p) for p in text.split(","))
    except ValueError as exc:
        raise CliError(2, f"bad partition {text!r}: {exc}") from exc


def parse_word(text: str) -> list[int]:
    if text.strip() == "":
        return []
    try:
        return [int(q) for q in text.split(",")]
    except ValueError as exc:
        raise CliError(2, f"bad word {text!r}: {exc}") from exc


def _parse_json_flag(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(2, f"bad {what} JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# command bodies (pure: parsed values in, JSON-ready payload out)


def cmd_act(rep: str, word: list[int], vec: FockVector) -> list:
    return vector_to_json(apply_word(vec, word, rep))


def cmd_tensor(lam: Partition, cache: Optional["RowCache"] = None) -> list:
    if cache is not None:
        rows = cache.tensor_row(lam)
    else:
        rows = tensor_rows(lam)
    return [{"q": q, "partition": list(kappa)} for q, kappa in rows]


def cmd_cell(lam: Partition, up_to: Optional[int] = None) -> dict:
    ks = None if up_to is None else range(up_to + 1)
    return stratum_report(lam, ks).to_json_dict()


def cmd_weight(lam: Partition) -> dict:
    n, omega = dominant_weight(lam)
    return {"n": n, "omega": list(omega)}


def cmd_summands(n: int, r: int) -> list:
    if n < 1 or r < 0:
        raise CliError(3, "need n >= 1 and r >= 0")
    return [
        {"partition": list(lam), "appears": appears, "projective": projective}
        for lam, appears, projective in summand_labels(n, r)
    ]


def cmd_normalize(word: list[int]) -> Optional[list]:
    nf = normalize(word)
    return None if nf is None else [list(iv) for iv in nf]


def cmd_witness(element_json) -> dict:
    try:
        element = element_from_json(element_json)
    except (ValueError, TypeError, KeyError) as exc:
        raise CliError(2, f"bad element: {exc}") from exc
    pair = faithfulness_witness(element)
    if pair is None:
        raise CliError(3, "the zero element has no faithfulness witness")
    lam, image = pair
    return {"partition": list(lam), "image": vector_to_json(image)}


def cmd_verify(suite: str, max_size: int, window: int, seed: int) -> VerifyReport:
    report = run_suite(suite, max_size=max_size, window=window, seed=seed)
    if suite == "all":
        checked, failures = run_cli_examples()
        report.checked += checked
        report.failures.extend(failures)
        report.parameters["suites"].append(
            {"suite": "cli-examples", "checked": checked, "failures": len(failures)}
        )
    return report


# ---------------------------------------------------------------------------
# example invocations replayed by `verify --suite all`, expected output frozen


CLI_EXAMPLES = [
    (
        lambda: cmd_act("xi", [0, 1, 0], {(): 1}),
        [{"partition": [1], "coeff": 1}],
    ),
    (
        lambda: cmd_act("xi", [4, 4], {(3, 1): 1}),
        [],
    ),
    (
        lambda: cmd_act("xi-prime", [2], {(2, 1): 1}),
        [{"partition": [1, 1], "coeff": 1}, {"partition": [3, 1], "coeff": 1}],
    ),
    (
        lambda: cmd_tensor(()),
        [{"q": 0, "partition": [1]}],
    ),
    (
        lambda: cmd_tensor((1,)),
        [{"q": 1, "partition": [2]}, {"q": -1, "partition": [1, 1]}],
    ),
    (
        lambda: cmd_cell((2,)),
        {
            "partition": [2],
            "cell": 1,
            "block": 0,
            "ideals": {"0": True, "1": True, "2": False},
        },
    ),
    (
        lambda: cmd_weight((2, 2, 1, 1)),
        {"n": 2, "omega": [-2, -4]},
    ),
    (
        lambda: cmd_summands(1, 1),
        [{"partition": [1], "appears": True, "projective": True}],
    ),
    (
        lambda: cmd_normalize([0, 1, 0]),
        [[0, 0]],
    ),
    (
        lambda: cmd_witness([{"word": [[0, 0]], "coeff": 1}]),
        {"partition": [1, 1], "image": [{"partition": [1], "coeff": 1}]},
    ),
]


def run_cli_examples() -> tuple[int, list]:
    """Replay the frozen command examples; mismatches become failures."""
    failures = []
    for idx, (invoke, expected) in enumerate(CLI_EXAMPLES):
        got = invoke()
        if got != expected:
            failures.append(
                {
                    "suite": "cli-examples",
                    "law": "frozen-example",
                    "index": idx,
                    "expected": expected,
                    "got": got,
                }
            )
    return len(CLI_EXAMPLES), failures


# ---------------------------------------------------------------------------
# optional on-disk cache for tensor rows


class RowCache:
    """Single-file JSON cache of tensor rows, keyed by the partition.

    The header is versioned; hits are re-verified against recomputation when
    PERITL_CACHE_VERIFY is set (the test builds set it).
    """

    def __init__(self, path: str):
        self.path = path
        self.entries: dict[str, list] = {}
        self.dirty = False
        if os.path.exists(path):
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    data = json.load(fh)
            except (OSError, ValueError) as exc:
                raise CliError(2, f"unreadable cache file {path!r}: {exc}") from exc
            if (
                not isinstance(data, dict)
                or data.get("format") != CACHE_FORMAT
                or data.get("version") != CACHE_VERSION
                or not isinstance(data.get("entries"), dict)
            ):
                raise CliError(2, f"unsupported cache file {path!r}")
            self.entries = data["entries"]

    def tensor_row(self, lam: Partition) -> list[tuple[int, Partition]]:
        key = "tensor-row:" + ",".join(map(str, lam))
        if key in self.entries:
            rows = [(int(q), tuple(parts)) for q, parts in self.entries[key]]
            if os.environ.get("PERITL_CACHE_VERIFY"):
                fresh = tensor_rows(lam)
                if fresh != rows:
                    raise RuntimeError(
                        f"cache entry for {lam} disagrees with recomputation"
                    )
            return rows
        rows = tensor_rows(lam)
        self.entries[key] = [[q, list(kappa)] for q, kappa in rows]
        self.dirty = True
        return rows

    def save(self) -> None:
        if not self.dirty:
            return
        payload = {
            "format": CACHE_FORMAT,
            "version": CACHE_VERSION,
            "entries": self.entries,
        }
        try:
            with open(self.path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True)
        except OSError as exc:
            raise CliError(2, f"cannot write cache file {self.path!r}: {exc}") from exc
        self.dirty = False


# ---------------------------------------------------------------------------
# argument plumbing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peritl",
        description=(
            "Exact partition combinatorics of the infinite Temperley-Lieb "
            "algebra at parameter zero"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("act", help="apply a generator word to a vector of partitions")
    p.add_argument("--rep", choices=("xi", "xi-prime"), required=True,
                   help="xi: twisted single-image action; xi-prime: add/remove action")
    p.add_argument("--word", required=True,
                   help="comma-separated indices, rightmost applied first")
    p.add_argument("--partition", default=None,
                   help="basis vector: comma-separated parts, empty for the empty partition")
    p.add_argument("--vector", default=None,
                   help='general vector as JSON [{"partition": [...], "coeff": n}, ...]')

    p = sub.add_parser("tensor",
                       help="all nonzero twisted images of a partition, by descending index")
    p.add_argument("--partition", required=True)
    p.add_argument("--cache", default=None, metavar="PATH",
                   help="optional on-disk cache file for tensor rows")

    p = sub.add_parser("cell", help="cell index, block index, and ideal memberships")
    p.add_argument("--partition", required=True)
    p.add_argument("--ideals-up-to", type=int, default=None,
                   help="report ideal membership for 0..K (default: up to cell+1)")

    p = sub.add_parser("weight", help="rank and dominant weight attached to a partition")
    p.add_argument("--partition", required=True)

    p = sub.add_parser("summands",
                       help="tensor-power summand labels with appearance/projectivity flags")
    p.add_argument("--n", type=int, required=True, help="rank")
    p.add_argument("--r", type=int, required=True, help="tensor power")

    p = sub.add_parser("normalize", help="normal form of a generator word (null when zero)")
    p.add_argument("--word", required=True)

    p = sub.add_parser("witness", help="faithfulness witness of a nonzero element")
    p.add_argument("--element", required=True,
                   help='JSON [{"word": [[a,b],...], "coeff": n}, ...]')

    p = sub.add_parser("verify", help="run a verification suite; exit 1 on any failure")
    p.add_argument("--suite", choices=SUITE_NAMES, required=True)
    p.add_argument("--max-size", type=int, default=10,
                   help="partition size bound for sweeps")
    p.add_argument("--window", type=int, default=3,
                   help="generator index window half-width for sweeps")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for randomized sweeps")

    return parser


def _nonnegative(value: Optional[int], flag: str) -> Optional[int]:
    if value is not None and value < 0:
        raise CliError(2, f"{flag} must be nonnegative, got {value}")
    return value


def _emit(payload) -> None:
    sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "act":
            if (args.partition is None) == (args.vector is None):
                raise CliError(2, "act needs exactly one of --partition / --vector")
            if args.partition is not None:
                vec: FockVector = {parse_partition(args.partition): 1}
            else:
                try:
                    vec = vector_from_json(_parse_json_flag(args.vector, "vector"))
                except (ValueError, TypeError, KeyError) as exc:
                    raise CliError(2, f"bad vector: {exc}") from exc
            _emit(cmd_act(args.rep, parse_word(args.word), vec))
        elif args.command == "tensor":
            cache = RowCache(args.cache) if args.cache else None
            rows = cmd_tensor(parse_partition(args.partition), cache)
            if cache is not None:
                cache.save()
            _emit(rows)
        elif args.command == "cell":
            up_to = _nonnegative(args.ideals_up_to, "--ideals-up-to")
            _emit(cmd_cell(parse_partition(args.partition), up_to))
        elif args.command == "weight":
            _emit(cmd_weight(parse_partition(args.partition)))
        elif args.command == "summands":
            _emit(cmd_summands(args.n, args.r))
        elif args.command == "normalize":
            _emit(cmd_normalize(parse_word(args.word)))
        elif args.command == "witness":
            _emit(cmd_witness(_parse_json_flag(args.element, "element")))
        elif args.command == "verify":
            report = cmd_verify(
                args.suite,
                _nonnegative(args.max_size, "--max-size"),
                _nonnegative(args.window, "--window"),
                args.seed,
            )
            _emit(report.to_json_dict())
            sys.stderr.write(
                f"suite {report.suite}: {report.checked} checks, "
                f"{len(report.failures)} failures, {report.elapsed:.2f}s\n"
            )
            return 0 if report.ok else 1
        return 0
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code
    except RuntimeError as exc:
        message = " ".join(str(exc).split())
        sys.stderr.write(f"error: internal invariant violated: {message}\n")
        return 4


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
