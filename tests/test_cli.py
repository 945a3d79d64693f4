import hashlib
import json
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from peritl import cli

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


def test_tensor_cache(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "rows.json"
    first = check(capsys, "tensor", "tensor", "--partition", "2,1",
                  "--cache", str(cache))
    data = json.loads(cache.read_text())
    assert data["format"] == "peritl-cache" and data["version"] == 1
    assert "tensor-row:2,1" in data["entries"]
    monkeypatch.setenv("PERITL_CACHE_VERIFY", "1")
    second = check(capsys, "tensor", "tensor", "--partition", "2,1",
                   "--cache", str(cache))
    assert first == second
    # a poisoned entry is caught when verification is on, as an internal
    # invariant violation
    data["entries"]["tensor-row:2,1"] = [[0, [9]]]
    cache.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "tensor", "--partition", "2,1",
                             "--cache", str(cache))
    assert code == 4 and out == ""
    assert err.startswith("error: internal invariant violated: ")
    assert err.count("\n") == 1
    # and a wrong version is refused
    data["version"] = 99
    cache.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "tensor", "--partition", "2,1",
                           "--cache", str(cache))
    assert code == 2 and "unsupported cache" in err


@pytest.mark.parametrize("text", ["{not json", "[1, 2]", '{"format": "peritl-cache"}'])
def test_tensor_corrupt_cache(capsys, tmp_path, text):
    cache = tmp_path / "rows.json"
    cache.write_text(text)
    code, out, err = run_cli(capsys, "tensor", "--partition", "2,1",
                             "--cache", str(cache))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_tensor_unwritable_cache(capsys, tmp_path):
    cache = tmp_path / "missing" / "rows.json"
    code, out, err = run_cli(capsys, "tensor", "--partition", "3,3",
                             "--cache", str(cache))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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


def test_verify_exit_code_on_failure(capsys, monkeypatch):
    from peritl.verify import VerifyReport

    def fake(suite, max_size, window, seed):
        return VerifyReport(
            suite=suite,
            parameters={},
            checked=1,
            failures=[{"law": "synthetic"}],
        )

    monkeypatch.setattr(cli, "cmd_verify", fake)
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
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    monkeypatch.setattr(cli, "normalize", broken)
    code, out, err = run_cli(capsys, "normalize", "--word", "0")
    assert code == 4 and out == ""
    assert err == "error: internal invariant violated: synthetic failure\n"


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


def test_unknown_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_cli_examples_table():
    checked, failures = cli.run_cli_examples()
    assert checked == len(cli.CLI_EXAMPLES)
    assert failures == []


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
