import argparse
import hashlib
import json
import re
import resource
import shlex
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from peritl import cli
from peritl.verify import SUITE_NAMES, run_suite

from helpers import child_env


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name):
    text = resources.files("peritl.schemas").joinpath(f"{name}.schema.json").read_text()
    return json.loads(text)


def check(capsys, schema, *argv, expect_code=0):
    code, out, _ = run_cli(capsys, *argv)
    assert code == expect_code
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema(schema))
    return payload


def test_act_xi_examples(capsys):
    payload = check(capsys, "act", "act", "--rep", "xi", "--word", "0,1,0",
                    "--partition", "")
    assert payload == [{"partition": [1], "coeff": 1}]
    payload = check(capsys, "act", "act", "--rep", "xi", "--word", "4,4",
                    "--partition", "3,1")
    assert payload == []


def test_act_xi_prime_example(capsys):
    payload = check(capsys, "act", "act", "--rep", "xi-prime", "--word", "2",
                    "--partition", "2,1")
    assert payload == [
        {"partition": [1, 1], "coeff": 1},
        {"partition": [3, 1], "coeff": 1},
    ]


def test_act_vector_input(capsys):
    vec = json.dumps([{"partition": [1], "coeff": 2}, {"partition": [2], "coeff": -1}])
    payload = check(capsys, "act", "act", "--rep", "xi", "--word", "1",
                    "--vector", vec)
    assert payload == [{"partition": [2], "coeff": 2}]


def test_act_edge_inputs(capsys):
    # empty word is the identity, empty vector stays empty
    payload = check(capsys, "act", "act", "--rep", "xi", "--word", "",
                    "--partition", "2,1")
    assert payload == [{"partition": [2, 1], "coeff": 1}]
    payload = check(capsys, "act", "act", "--rep", "xi", "--word", "0",
                    "--vector", "[]")
    assert payload == []


def test_act_input_validation(capsys):
    code, _, err = run_cli(capsys, "act", "--rep", "xi", "--word", "0")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "act", "--rep", "xi", "--word", "0",
                           "--partition", "1,2")
    assert code == 2 and "weakly decrease" in err
    code, _, err = run_cli(capsys, "act", "--rep", "xi", "--word", "x",
                           "--partition", "")
    assert code == 2


def test_tensor_examples(capsys):
    assert check(capsys, "tensor", "tensor", "--partition", "") == [
        {"q": 0, "partition": [1]}
    ]
    payload = check(capsys, "tensor", "tensor", "--partition", "1")
    assert payload == [{"q": 1, "partition": [2]}, {"q": -1, "partition": [1, 1]}]
    payload = check(capsys, "tensor", "tensor", "--partition", "3,3")
    assert {"q": -1, "partition": [2, 1]} in payload


def test_tensor_has_no_cache_flag(capsys, tmp_path):
    path = tmp_path / "rows.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["tensor", "--partition", "2,1", "--cache", str(path)])
    assert exc.value.code == 2
    assert not path.exists()
    capsys.readouterr()


def test_cell_example(capsys):
    payload = check(capsys, "cell", "cell", "--partition", "2")
    assert payload["cell"] == 1 and payload["block"] == 0
    assert payload["ideals"] == {"0": True, "1": True, "2": False}
    payload = check(capsys, "cell", "cell", "--partition", "3,2,1",
                    "--ideals-up-to", "4")
    assert payload["ideals"]["3"] is True and payload["ideals"]["4"] is False


def test_weight_example(capsys):
    payload = check(capsys, "weight", "weight", "--partition", "2,2,1,1")
    assert payload == {"n": 2, "omega": [-2, -4]}
    assert check(capsys, "weight", "weight", "--partition", "") == {
        "n": 0, "omega": [],
    }


def test_summands_example(capsys):
    payload = check(capsys, "summands", "summands", "--n", "1", "--r", "3")
    assert payload == [
        {"partition": [1], "appears": True, "projective": True},
        {"partition": [3], "appears": True, "projective": True},
        {"partition": [2, 1], "appears": False, "projective": False},
        {"partition": [1, 1, 1], "appears": True, "projective": True},
    ]
    code, _, _ = run_cli(capsys, "summands", "--n", "0", "--r", "1")
    assert code == 3


def test_normalize_examples(capsys):
    assert check(capsys, "normalize", "normalize", "--word", "0,1,0") == [[0, 0]]
    assert check(capsys, "normalize", "normalize", "--word", "3,3") is None
    assert check(capsys, "normalize", "normalize", "--word", "1,2,3,0,1") == [
        [1, 3], [0, 1],
    ]


def test_normalize_wide_words(capsys):
    # no window width is refused: an ascending run of 12 is one interval,
    # and at width 40 e_38 e_39 e_38 = e_38 contracts the run
    word = ",".join(map(str, range(12)))
    assert check(capsys, "normalize", "normalize", "--word", word) == [[0, 11]]
    word = ",".join(map(str, [*range(40), 38]))
    assert check(capsys, "normalize", "normalize", "--word", word) == [[0, 38]]


def test_witness_examples(capsys):
    element = json.dumps([{"word": [[0, 0]], "coeff": 1}])
    payload = check(capsys, "witness", "witness", "--element", element)
    assert payload == {
        "partition": [1, 1],
        "image": [{"partition": [1], "coeff": 1}],
    }
    # the zero element violates the domain precondition
    code, _, err = run_cli(capsys, "witness", "--element", "[]")
    assert code == 3
    code, _, err = run_cli(capsys, "witness", "--element", "not json")
    assert code == 2


def test_verify_command(capsys):
    payload = check(capsys, "verify", "verify", "--suite", "marking",
                    "--max-size", "8")
    assert payload["suite"] == "marking"
    assert payload["failures"] == []
    assert "elapsed_seconds" not in payload


def test_verify_stdout_matches_pinned_digest(capsys):
    # the benchmark pins the full `verify --suite all` stdout per seed
    pinned = Path(__file__).resolve().parents[1] / "bench" / "verify_expected.json"
    expected = json.loads(pinned.read_text())["seeds"]["0"]
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--max-size", "10",
                           "--window", "3", "--seed", "0")
    assert code == 0
    assert json.loads(out)["checked"] == expected["checked"]
    assert hashlib.sha256(out.encode()).hexdigest() == expected["sha256"]


@pytest.mark.parametrize("max_size, checked, digest", [
    (12, 274_325, "0ed293690b9b7acee4071c05fbc0556f08f6f19fa53fe72c470b0efd47f1fd8a"),
    (14, 540_133, "9dc482b52e51080b322fac925597caac6ce9b8c26f9c503b45bd003b145eb031"),
    (16, 1_020_772, "6dd58cd5e335113c8ec9817148323745ce81fa70430927a1bbd81723f893a461"),
], ids=["12", "14", "16"])
def test_verify_stdout_at_larger_max_size_matches_pinned_digest(
    capsys, max_size, checked, digest
):
    # hook geometry on partitions of 11 to 16 boxes, beyond the benchmark's pins
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--max-size",
                           str(max_size), "--window", "3", "--seed", "0")
    assert code == 0
    assert json.loads(out)["checked"] == checked
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_all_writes_one_stderr_line_per_suite(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--max-size", "4")
    assert code == 0
    lines = err.splitlines()
    assert len(lines) == 14
    report = json.loads(out)
    expected = report["parameters"]["suites"] + [
        {"suite": "all", "checked": report["checked"], "failures": 0}
    ]
    assert list(SUITE_NAMES) == [e["suite"] for e in expected]
    for line, entry in zip(lines, expected):
        assert re.fullmatch(
            rf"suite {entry['suite']}: {entry['checked']} checks, "
            rf"{entry['failures']} failures, \d+\.\d\ds", line
        ), line


def test_verify_all_stdout_is_the_library_report(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--max-size", "4",
                           "--window", "2")
    assert code == 0
    assert json.loads(out) == run_suite("all", 4, 2, 0).to_json_dict()


def test_verify_exit_code_on_failure(capsys, monkeypatch):
    from peritl.verify import VerifyReport

    def fake(suite, max_size, window, seed):
        return VerifyReport(
            suite=suite,
            parameters={},
            checked=1,
            failures=[{"law": "synthetic"}],
        )

    monkeypatch.setattr(cli, "run_suite", fake)
    code, out, _ = run_cli(capsys, "verify", "--suite", "marking")
    assert code == 1
    assert json.loads(out)["failures"]


@pytest.mark.parametrize("suite", ["faithfulness", "all"])
def test_verify_window_zero(capsys, suite):
    code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--window", "0",
                           "--max-size", "5")
    assert code == 0
    assert json.loads(out)["failures"] == []


@pytest.mark.parametrize("suite", ["lemaddq", "all"])
def test_verify_max_size_zero(capsys, suite):
    code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--max-size", "0")
    assert code == 0
    assert json.loads(out)["failures"] == []


def test_exit_codes(capsys, monkeypatch):
    assert run_cli(capsys, "normalize", "--word", "0")[0] == 0
    # 1 (verification failures) is covered by test_verify_exit_code_on_failure
    assert run_cli(capsys, "normalize", "--word", "0,x")[0] == 2
    assert run_cli(capsys, "summands", "--n", "0", "--r", "1")[0] == 3

    def broken(word):
        raise RuntimeError("synthetic\nfailure")

    for argv in (
        ["verify", "--suite", "all", "--max-size", "-3"],
        ["verify", "--suite", "faithfulness", "--window", "-1"],
        ["cell", "--partition", "2", "--ideals-up-to", "-3"],
        # only JSON integers are parts, interval ends and coefficients
        ["act", "--rep", "xi-prime", "--word", "1",
         "--vector", '[{"partition":[1],"coeff":2.7}]'],
        ["act", "--rep", "xi-prime", "--word", "1",
         "--vector", '[{"partition":[1],"coeff":0.5}]'],
        ["act", "--rep", "xi", "--word", "1",
         "--vector", '[{"partition":[1],"coeff":true}]'],
        ["act", "--rep", "xi", "--word", "1",
         "--vector", '[{"partition":[1.9],"coeff":1}]'],
        ["act", "--rep", "xi", "--word", "1",
         "--vector", '[{"partition":[true],"coeff":1}]'],
        ["act", "--rep", "xi", "--word", "1",
         "--vector", '[{"partition":["1"],"coeff":1}]'],
        ["witness", "--element", '[{"word":[[0,0]],"coeff":0.9}]'],
        ["witness", "--element", '[{"word":[[0,0]],"coeff":"1"}]'],
        ["witness", "--element", '[{"word":[[0,0.0]],"coeff":1}]'],
        ["witness", "--element", '[{"word":[[false,0]],"coeff":1}]'],
        # a vector or an element is a JSON list of terms
        ["act", "--rep", "xi", "--word", "1", "--vector", "{}"],
        ["witness", "--element", "{}"],
        # nesting deeper than the recursion limit is malformed JSON too
        ["act", "--rep", "xi", "--word", "1", "--vector", "[" * 5000 + "]" * 5000],
        ["witness", "--element", "[" * 5000 + "]" * 5000],
        # comma lists take ASCII integers only, not what int() also reads
        ["act", "--rep", "xi", "--word", "1_0", "--partition", ""],
        ["act", "--rep", "xi", "--word", "+1", "--partition", ""],
        ["normalize", "--word", "\u0663,\u0663"],
        ["tensor", "--partition", "\u0663"],
        ["cell", "--partition", "+2"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    # interval ends past the index range of a list are a domain error
    for interval in ([0, 10**20 - 1], [-(10**20) + 1, -(10**20) + 1]):
        element = json.dumps([{"word": [interval], "coeff": 1}])
        code, out, err = run_cli(capsys, "witness", "--element", element)
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    monkeypatch.setattr(cli, "normalize", broken)
    code, out, err = run_cli(capsys, "normalize", "--word", "0")
    assert code == 4 and out == ""
    assert err == "error: internal invariant violated: synthetic failure\n"


# Address-space cap of the child below: the rim of a 10**20-box row never fits.
CHILD_MEMORY_CAP = 400 * 2**20


def _cap_child_memory():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY_CAP, CHILD_MEMORY_CAP))


@pytest.mark.parametrize("argv", [
    ["tensor", "--partition", "99999999999999999999"],
    ["act", "--rep", "xi", "--word", "0", "--partition", "99999999999999999999"],
])
def test_input_too_large_is_a_domain_error(argv):
    # only ever run under the cap: uncapped, these ask for all the memory there is
    run = subprocess.run(
        [sys.executable, "-m", "peritl", *argv], capture_output=True, text=True,
        check=False, env=child_env(), preexec_fn=_cap_child_memory, timeout=120,
    )
    assert run.returncode == 3 and run.stdout == ""
    assert run.stderr.startswith("error: input too large to evaluate: ")
    assert run.stderr.count("\n") == 1


# CPU cap of the magnitude-stress children: a command whose work follows the
# number of rows, letters or expanded letters answers these in well under it.
STRESS_CPU_SECONDS = 2


def _cap_child_memory_and_cpu():
    _cap_child_memory()
    resource.setrlimit(resource.RLIMIT_CPU, (STRESS_CPU_SECONDS, STRESS_CPU_SECONDS))


def _found(argv, stdout, reason):
    return pytest.param(argv, 0, stdout, marks=pytest.mark.xfail(strict=True, reason=reason))


@pytest.mark.parametrize("argv, code, stdout", [
    (["cell", "--partition", "100000000000000000000,1"], 0,
     '{"partition":[100000000000000000000,1],"cell":2,"block":2,'
     '"ideals":{"0":true,"1":true,"2":true,"3":false}}\n'),
    (["weight", "--partition", "100000000000000000000,1"], 0,
     '{"n":2,"omega":[99999999999999999997,-2]}\n'),
    (["act", "--rep", "xi-prime", "--word", "5",
      "--partition", "100000000000000000000,2"], 0, "[]\n"),
    # one twisted letter in each case that deletes no hook: A, B and C
    (["act", "--rep", "xi", "--word", "100000000000000000000",
      "--partition", "100000000000000000000,1"], 0,
     '[{"partition":[100000000000000000001,1],"coeff":1}]\n'),
    (["act", "--rep", "xi", "--word", "99999999999999999999",
      "--partition", "100000000000000000000,1"], 0, "[]\n"),
    (["act", "--rep", "xi", "--word", "-3",
      "--partition", "100000000000000000000,1"], 0, "[]\n"),
    # 10**12 letters cannot be expanded: a prompt domain error, not a long run
    (["witness", "--element", '[{"word":[[0,1000000000000]],"coeff":1}]'], 3, ""),
    _found(["act", "--rep", "xi", "--word", "5", "--partition", "3000000,2"], "[]\n",
           "one twisted letter searches hook ends along the whole row; "
           "runs past a 20 s CPU cap"),
    _found(["act", "--rep", "xi", "--word", "-1", "--partition", "20000,20000"], "[]\n",
           "one twisted letter searches hook ends along the whole rim; "
           "runs past a 20 s CPU cap"),
    _found(["act", "--rep", "xi", "--word", "0", "--partition", "10000000"], "[]\n",
           "rim_hook lists every rim box of the row: MemoryError, exit 3, after about 1 s"),
    _found(["normalize", "--word", "0,1000000"], "[[1000000,1000000],[0,0]]\n",
           "diagram composition lists every point of the letters' span: exit 3"),
], ids=["cell", "weight", "act-xi-prime", "act-xi-add", "act-xi-removable",
        "act-xi-outside", "witness", "act-xi-row", "act-xi-square",
        "act-xi-long-row", "normalize-span"])
def test_cost_follows_input_size_not_magnitude(argv, code, stdout):
    # only ever run under both caps: several of these hang or fill memory uncapped
    run = subprocess.run(
        [sys.executable, "-m", "peritl", *argv], capture_output=True, text=True,
        check=False, env=child_env(), preexec_fn=_cap_child_memory_and_cpu, timeout=120,
    )
    assert (run.returncode, run.stdout) == (code, stdout)


@pytest.mark.parametrize("argv", [
    ["act", "--rep", "xi", "--word", "0", "--partition", "", "--seed", "5"],
    ["normalize", "--word", "0", "--window", "3"],
    ["cell", "--partition", "2", "--cache", "rows.json"],
    ["weight", "--partition", "2", "--json"],
])
def test_flags_outside_their_command_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    capsys.readouterr()


def _readme_section(readme, heading):
    body = readme.split(f"\n## {heading}\n", 1)[1]
    return body.split("\n## ", 1)[0]


def test_readme_names_exactly_the_parser_flags():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    documented = set()
    for heading in ("Command line", "Verification suites"):
        documented |= set(re.findall(r"--[a-z][a-z-]*", _readme_section(readme, heading)))
    parser = cli._build_parser()
    (commands,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    defined = {
        flag
        for sub in commands.choices.values()
        for action in sub._actions
        if not isinstance(action, argparse._HelpAction)
        for flag in action.option_strings
    }
    assert documented == defined


def test_unknown_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_cli_examples_table():
    report = run_suite("all", 2, 1, 0)
    assert report.parameters["suites"][-1] == {
        "suite": "cli-examples", "checked": len(cli.CLI_EXAMPLES), "failures": 0,
    }
    assert report.ok


def test_failing_cli_example_is_recorded(capsys, monkeypatch):
    index = 6
    invoke, expected = cli.CLI_EXAMPLES[index]
    wrong = {"n": 2, "omega": [-2, -5]}
    planted = list(cli.CLI_EXAMPLES)
    planted[index] = (invoke, wrong)
    monkeypatch.setattr(cli, "CLI_EXAMPLES", planted)
    report = run_suite("all", 2, 1, 0)
    assert report.failures == [
        {"suite": "cli-examples", "law": "frozen-example", "index": index,
         "expected": wrong, "got": expected},
    ]
    assert report.parameters["suites"][-1] == {
        "suite": "cli-examples", "checked": 10, "failures": 1,
    }
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--max-size", "2",
                           "--window", "1")
    assert code == 1
    assert json.loads(out)["failures"] == report.failures


def test_readme_command_examples_run(capsys):
    # every line of the example block exits 0; a JSON comment (up to its
    # `;`) is the exact stdout of its line
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = _readme_section(readme, "Command line").split("```sh\n", 1)[1]
    lines = block.split("```", 1)[0].splitlines()
    assert len(lines) == 9
    pinned = 0
    for line in lines:
        command, _, comment = line.partition("#")
        program, *argv = shlex.split(command)
        assert program == "peritl"
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, line
        comment = comment.split(";", 1)[0].strip()
        if comment.startswith(("[", "{")):
            assert out == comment + "\n", line
            pinned += 1
    assert pinned == 3


def test_stdout_byte_determinism():
    cases = [
        ["act", "--rep", "xi", "--word", "0,1,0", "--partition", ""],
        ["tensor", "--partition", "3,3"],
        ["verify", "--suite", "fcs-basis", "--max-size", "6", "--seed", "1"],
    ]
    for argv in cases:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "peritl", *argv],
                capture_output=True, check=False, env=child_env(),
            )
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout.strip()
