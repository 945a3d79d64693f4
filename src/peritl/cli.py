"""Batch command-line front end.

All commands read simple flags, print a single JSON document on stdout, and
are byte-deterministic for fixed inputs.  Exit codes: 0 success, 1
verification failures, 2 usage or parse errors, 3 domain precondition
violations or inputs too large to evaluate, 4 internal invariant violations
(a `RuntimeError` raised by the library, or any other exception that a
command or a `verify` suite raises, named by its type; reported as one
`error:` line on stderr, with nothing on stdout).

Partitions are comma-separated parts, largest first, with the empty string
for the empty partition; words are comma-separated generator indices,
applied rightmost first.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Optional

from .fock import (
    REPRESENTATIONS,
    FockVector,
    apply_word,
    tensor_rows,
    vector_from_json,
    vector_to_json,
)
from .partitions import Partition, check_partition
from .strata import block_index, cell_index, summand_labels
from .tl import element_from_json, faithfulness_witness, normalize
from .verify import SUITE_NAMES, run_suite
from .weights import dominant_weight


class CliError(Exception):
    """Carries the process exit code alongside the diagnostic."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# an item of a comma list; int() alone also takes `1_0`, `+1` and non-ASCII digits
_INTEGER = re.compile(r"\s*-?[0-9]+\s*")


def _parse_ints(text: str) -> list[int]:
    items = text.split(",") if text.strip() else []
    if not all(map(_INTEGER.fullmatch, items)):
        raise ValueError("items must be integers such as 3 or -1")
    return [int(item) for item in items]


def parse_partition(text: str) -> Partition:
    try:
        return check_partition(_parse_ints(text))
    except ValueError as exc:
        raise CliError(2, f"bad partition {text!r}: {exc}") from exc


def parse_word(text: str) -> list[int]:
    try:
        return _parse_ints(text)
    except ValueError as exc:
        raise CliError(2, f"bad word {text!r}: {exc}") from exc


def _parse_json_flag(text: str, what: str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nesting deeper than the interpreter's recursion limit
        raise CliError(2, f"bad {what} JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# command bodies (pure: parsed values in, JSON-ready payload out)


def cmd_act(rep: str, word: list[int], vec: FockVector) -> list:
    return vector_to_json(apply_word(vec, word, rep))


def cmd_tensor(lam: Partition) -> list:
    return [{"q": q, "partition": list(kappa)} for q, kappa in tensor_rows(lam)]


def cmd_cell(lam: Partition, up_to: Optional[int] = None) -> dict:
    # ideal flags for 0..up_to, by default 0..cell+1: up to the first non-member
    cell = cell_index(lam)
    ks = range(cell + 2 if up_to is None else up_to + 1)
    return {"partition": list(lam), "cell": cell, "block": block_index(lam),
            "ideals": {str(k): k <= cell for k in ks}}


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


# ---------------------------------------------------------------------------
# example invocations replayed by the `cli-examples` suite, expected output frozen


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
    p.add_argument("--rep", choices=REPRESENTATIONS, required=True,
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
            _emit(cmd_tensor(parse_partition(args.partition)))
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
            report = run_suite(
                args.suite,
                _nonnegative(args.max_size, "--max-size"),
                _nonnegative(args.window, "--window"),
                args.seed,
            )
            _emit(report.to_json_dict())
            for part in report.parts + [report]:
                sys.stderr.write(
                    f"suite {part.suite}: {part.checked} checks, "
                    f"{len(part.failures)} failures, {part.elapsed:.2f}s\n"
                )
            return 0 if report.ok else 1
        return 0
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code
    except (MemoryError, OverflowError) as exc:
        # more boxes, letters or rows than memory holds or a list can index
        message = str(exc) or type(exc).__name__
        sys.stderr.write(f"error: input too large to evaluate: {message}\n")
        return 3
    except Exception as exc:
        # a RuntimeError is a library cross-check; any other exception is a
        # fault in the library, named by its type
        message = " ".join(str(exc).split())
        if not isinstance(exc, RuntimeError):
            message = f"{type(exc).__name__}: {message}"
        sys.stderr.write(f"error: internal invariant violated: {message}\n")
        return 4


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
