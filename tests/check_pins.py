"""Check one group of pinned `peritl verify` stdout digests.

    python tests/check_pins.py GROUP

GROUP is "seeds", the per-seed pins of bench/verify_expected.json, or a key
of tests/verify_pins.json ("tier1", "ci-max-size", "ci-fcs-basis").  Each pin
runs `python -m peritl verify` in a child with src/ on the path; its
`checked` count and the sha256 of its stdout must equal the pin's, and its
peak RSS must stay at most the pin's "max_rss_mb" where it has one.  The
child's stderr (one line per suite) is echoed to stderr and, with peak RSS,
appended to $GITHUB_STEP_SUMMARY when that is set.  Exits 1 if any pin
fails, after running them all.
"""
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def pins(group: str) -> list:
    if group == "seeds":
        pinned = json.loads((ROOT / "bench" / "verify_expected.json").read_text())
        argv = pinned["argv"]
        return [
            {**dict(zip(argv[1::2], argv[2::2])), "--seed": seed, **want}
            for seed, want in pinned["seeds"].items()
        ]
    return [
        {"--suite": p["suite"], "--max-size": p["max_size"], "--window": p["window"],
         "--seed": p["seed"], **{k: p[k] for k in ("checked", "sha256", "max_rss_mb") if k in p}}
        for p in json.loads((ROOT / "tests" / "verify_pins.json").read_text())[group]
    ]


def run(options: list) -> tuple:
    """(exit code, stdout, stderr, peak RSS in MB) of one child verify run."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        child = subprocess.Popen([sys.executable, "-m", "peritl", "verify", *options],
                                 stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return child.returncode, out.read(), err.read().decode(), usage.ru_maxrss / 1024


def main(group: str) -> int:
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    failed = 0
    for pin in pins(group):
        options = [str(x) for k, v in pin.items() if k.startswith("--") for x in (k, v)]
        code, out, err, rss = run(options)
        sys.stderr.write(err)
        name = " ".join(options)
        problems = []
        if code != 0:
            problems.append(f"exit {code}")
        else:
            got = {"checked": json.loads(out)["checked"], "sha256": hashlib.sha256(out).hexdigest()}
            want = {"checked": pin["checked"], "sha256": pin["sha256"]}
            if got != want:
                problems.append(f"got {got}, pinned {want}")
        if rss > pin.get("max_rss_mb", float("inf")):
            problems.append(f"over the {pin['max_rss_mb']} MB gate")
        print(f"{name}: {'; '.join(problems) or 'ok'}, peak RSS {rss:.1f} MB")
        failed += bool(problems)
        if summary:
            with open(summary, "a") as f:
                f.write(f"**verify {name}**, peak RSS {rss:.1f} MB, stderr (one line per suite):\n\n"
                        f"```\n{err}```\n\n")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
