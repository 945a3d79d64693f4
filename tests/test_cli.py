import argparse
import contextlib
import hashlib
import io
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
from hypothesis import given, settings, strategies as st

from peritl import cli, tl
from peritl.partitions import check_partition
from peritl.verify import SUITE_NAMES, run_suite

from helpers import child_env, runtime_error_sites


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


def _read_vector(data):
    return cli._parse_terms(json.dumps(data), "vector", "partition", check_partition)


def _read_element(data):
    return cli._parse_terms(json.dumps(data), "element", "word", tl.check_fcs_word)


def test_vector_json_roundtrip():
    vec = {(3, 1): -2, (1,): 1, (2,): 4}
    data = cli.vector_to_json(vec)
    assert data == [
        {"partition": [1], "coeff": 1},
        {"partition": [2], "coeff": 4},
        {"partition": [3, 1], "coeff": -2},
    ]
    assert _read_vector(data) == vec
    with pytest.raises(cli.CliError, match=r"^bad vector: duplicate partition \(1,\)") as exc:
        _read_vector([{"partition": [1], "coeff": 1}, {"partition": [1], "coeff": 2}])
    assert exc.value.code == 2


def test_element_json_roundtrip():
    x = {((1, 3), (0, 1)): -2, ((0, 0),): 1, (): 5}
    data = tl.element_to_json(x)
    assert data[0]["word"] == [[1, 3], [0, 1]]
    assert _read_element(data) == x
    with pytest.raises(cli.CliError, match=r"^bad element: duplicate word") as exc:
        _read_element([{"word": [[0, 0]], "coeff": 1}, {"word": [[0, 0]], "coeff": 2}])
    assert exc.value.code == 2


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


# the stdout digests of `verify` runs past the benchmark's, one table for
# tier-1 (below) and the CI steps that run larger ones
VERIFY_PINS = json.loads((Path(__file__).with_name("verify_pins.json")).read_text())


@pytest.mark.parametrize("pin", VERIFY_PINS["tier1"], ids=lambda pin: str(pin["max_size"]))
def test_verify_stdout_at_larger_max_size_matches_pinned_digest(capsys, pin):
    # hook geometry on partitions of 11 to 16 boxes, and the ideal of
    # staircase(5) at 16, beyond the benchmark's pins
    code, out, _ = run_cli(capsys, "verify", "--suite", pin["suite"], "--max-size",
                           str(pin["max_size"]), "--window", str(pin["window"]),
                           "--seed", str(pin["seed"]))
    assert code == 0
    assert json.loads(out)["checked"] == pin["checked"]
    assert hashlib.sha256(out.encode()).hexdigest() == pin["sha256"]


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

    report = fake("marking", 10, 3, 0)
    assert (report.checked, report.failures, report.elapsed, report.parts) == (
        1, [{"law": "synthetic"}], 0.0, [])
    assert not report.ok
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

    vector = ["act", "--rep", "xi", "--word", "1", "--vector"]
    for argv, message in (
        (["verify", "--suite", "all", "--max-size", "-3"],
         "--max-size must be nonnegative, got -3"),
        (["verify", "--suite", "faithfulness", "--window", "-1"],
         "--window must be nonnegative, got -1"),
        (["cell", "--partition", "2", "--ideals-up-to", "-3"],
         "--ideals-up-to must be nonnegative, got -3"),
        # only JSON integers are parts, interval ends and coefficients
        (["act", "--rep", "xi-prime", "--word", "1",
          "--vector", '[{"partition":[1],"coeff":2.7}]'],
         "bad vector: coefficients must be integers, got 2.7"),
        (["act", "--rep", "xi-prime", "--word", "1",
          "--vector", '[{"partition":[1],"coeff":0.5}]'],
         "bad vector: coefficients must be integers, got 0.5"),
        ([*vector, '[{"partition":[1],"coeff":true}]'],
         "bad vector: coefficients must be integers, got True"),
        ([*vector, '[{"partition":[1.9],"coeff":1}]'],
         "bad vector: parts must be integers, got 1.9 in (1.9,)"),
        ([*vector, '[{"partition":[true],"coeff":1}]'],
         "bad vector: parts must be integers, got True in (True,)"),
        ([*vector, '[{"partition":["1"],"coeff":1}]'],
         "bad vector: parts must be integers, got '1' in ('1',)"),
        (["witness", "--element", '[{"word":[[0,0]],"coeff":0.9}]'],
         "bad element: coefficients must be integers, got 0.9"),
        (["witness", "--element", '[{"word":[[0,0]],"coeff":"1"}]'],
         "bad element: coefficients must be integers, got '1'"),
        (["witness", "--element", '[{"word":[[0,0.0]],"coeff":1}]'],
         "bad element: interval ends must be integers, got (0, 0.0)"),
        (["witness", "--element", '[{"word":[[false,0]],"coeff":1}]'],
         "bad element: interval ends must be integers, got (False, 0)"),
        # a repeated partition or word is an error whatever its coefficient
        ([*vector, '[{"partition":[1],"coeff":0},{"partition":[1],"coeff":1}]'],
         "bad vector: duplicate partition (1,) in vector"),
        (["witness", "--element", '[{"word":[[0,0]],"coeff":0},{"word":[[0,0]],"coeff":1}]'],
         "bad element: duplicate word ((0, 0),) in element"),
        # a vector or an element is a JSON list of terms
        ([*vector, "{}"], "bad vector: a vector is a JSON list of terms, not dict"),
        (["witness", "--element", "{}"],
         "bad element: an element is a JSON list of terms, not dict"),
        ([*vector, "not json"],
         "bad vector JSON: Expecting value: line 1 column 1 (char 0)"),
        # comma lists take ASCII integers only, not what int() also reads
        (["act", "--rep", "xi", "--word", "1_0", "--partition", ""],
         "bad word '1_0': items must be integers such as 3 or -1"),
        (["act", "--rep", "xi", "--word", "+1", "--partition", ""],
         "bad word '+1': items must be integers such as 3 or -1"),
        (["normalize", "--word", "\u0663,\u0663"],
         "bad word '\u0663,\u0663': items must be integers such as 3 or -1"),
        (["tensor", "--partition", "\u0663"],
         "bad partition '\u0663': items must be integers such as 3 or -1"),
        (["cell", "--partition", "+2"],
         "bad partition '+2': items must be integers such as 3 or -1"),
    ):
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")

    # nesting deeper than the recursion limit is malformed JSON too
    for argv, message in (
        ([*vector, "[" * 5000 + "]" * 5000], "bad vector JSON: "),
        (["witness", "--element", "[" * 5000 + "]" * 5000], "bad element JSON: "),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    # interval ends past the index range of a list are a domain error
    for interval in ([0, 10**20 - 1], [-(10**20) + 1, -(10**20) + 1]):
        element = json.dumps([{"word": [interval], "coeff": 1}])
        code, out, err = run_cli(capsys, "witness", "--element", element)
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    monkeypatch.setattr(cli, "normalize", broken)
    code, out, err = run_cli(capsys, "normalize", "--word", "0")
    assert code == 4 and out == ""
    assert err == "error: internal invariant violated: RuntimeError: synthetic failure\n"


def test_an_exception_in_a_suite_is_one_error_line(capsys, monkeypatch):
    # a library fault that raises mid-sweep exits 4 with one line naming the
    # exception, not a traceback; running out of memory is still exit 3
    for exc, code, line in [
        (IndexError("list index\nout of range"), 4,
         "error: internal invariant violated: IndexError: list index out of range\n"),
        (MemoryError(), 3, "error: input too large to evaluate: MemoryError\n"),
    ]:
        def planted(word, exc=exc):
            raise exc

        monkeypatch.setattr(tl, "_reduce", planted)
        assert run_cli(capsys, "verify", "--suite", "all", "--max-size", "4") == (code, "", line)


def test_runtime_error_sites_are_pinned():
    # the library re-checks nothing at run time: `verify` judges the laws.
    # A new `raise RuntimeError` fails here until README and this pin list it.
    assert runtime_error_sites() == {}


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
    # two commuting letters: diagrams compose from their arc ends, whatever
    # the span between them
    (["normalize", "--word", "0,1000000"], 0, "[[1000000,1000000],[0,0]]\n"),
    (["normalize", "--word", "0,100000000000000000000"], 0,
     "[[100000000000000000000,100000000000000000000],[0,0]]\n"),
    # 10,000 commuting letters: each letter is placed once, never rescanned
    (["normalize", "--word", ",".join(map(str, range(0, 20000, 2)))], 0,
     "[" + ",".join(f"[{q},{q}]" for q in range(19998, -1, -2)) + "]\n"),
], ids=["cell", "weight", "act-xi-prime", "act-xi-add", "act-xi-removable",
        "act-xi-outside", "witness", "act-xi-row", "act-xi-square",
        "act-xi-long-row", "normalize-span", "normalize-huge-span", "normalize-commuting"])
def test_cost_follows_input_size_not_magnitude(argv, code, stdout):
    # only ever run under both caps: several of these hang or fill memory uncapped
    run = subprocess.run(
        [sys.executable, "-m", "peritl", *argv], capture_output=True, text=True,
        check=False, env=child_env(), preexec_fn=_cap_child_memory_and_cpu, timeout=120,
    )
    assert (run.returncode, run.stdout) == (code, stdout)


# The grammar of the query commands, with small parts and indices: large
# magnitudes are the stress table's job above.  Each value has a well-formed
# and a malformed strategy.
_SMALL = st.integers(-50, 50)
_JUNK = st.text(alphabet="0123456789-+, []{}\":abcx_.", max_size=12)


def _commas(xs):
    return ",".join(map(str, xs))


_WORD = st.lists(_SMALL, max_size=8).map(_commas)
_PARTITION = st.lists(st.integers(1, 50), max_size=6).map(
    lambda xs: _commas(sorted(xs, reverse=True))
)
_NOT_PARTITION = st.lists(_SMALL, min_size=1, max_size=6).map(_commas) | _JUNK
_JSON = st.recursive(
    st.none() | st.booleans() | _SMALL | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["partition", "coeff", "word", "x"]), inner, max_size=3),
    max_leaves=8,
).map(json.dumps) | _JUNK
_VECTOR = st.lists(st.fixed_dictionaries({
    "partition": st.lists(st.integers(1, 50), max_size=5).map(lambda xs: sorted(xs, reverse=True)),
    "coeff": _SMALL,
}), max_size=3).map(json.dumps)
# a fully commutative word: interval starts and ends strictly decrease
_FCS_WORD = st.tuples(
    _SMALL, st.integers(0, 4), st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), max_size=3)
).map(lambda t: [[t[0] - sum(d for d, _ in t[2][:k]), t[0] + t[1] - sum(e for _, e in t[2][:k])]
                 for k in range(len(t[2]) + 1)])
_INTERVALS = st.lists(st.tuples(_SMALL, _SMALL).map(list), min_size=1, max_size=4)


def _element(word):
    return st.lists(st.fixed_dictionaries({"word": word, "coeff": _SMALL}), max_size=3).map(
        json.dumps
    )


def _flag(name, good, bad):
    """The (well-formed, malformed) strategies of one flag, each drawing its
    argv items as --flag=value, so that no value reads as a flag."""
    return good.map(lambda v: [f"--{name}={v}"]), bad.map(lambda v: [f"--{name}={v}"])


_PARTITION_FLAG = _flag("partition", _PARTITION, _NOT_PARTITION)
_VECTOR_FLAG = _flag("vector", _VECTOR, _JSON)
_QUERY_FLAGS = {
    "act": [
        _flag("rep", st.sampled_from(["xi", "xi-prime"]), st.just("bogus")),
        _flag("word", _WORD, _JUNK),
        # exactly one of --partition and --vector
        (_PARTITION_FLAG[0] | _VECTOR_FLAG[0],
         _PARTITION_FLAG[1] | _VECTOR_FLAG[1]
         | st.tuples(_PARTITION_FLAG[0], _VECTOR_FLAG[0]).map(lambda t: t[0] + t[1])),
    ],
    "tensor": [_PARTITION_FLAG],
    "cell": [_PARTITION_FLAG, _flag("ideals-up-to", _SMALL, _JUNK)],
    "weight": [_PARTITION_FLAG],
    "summands": [_flag("n", _SMALL, _JUNK), _flag("r", st.integers(-3, 12), _JUNK)],
    "normalize": [_flag("word", _WORD, _JUNK)],
    "witness": [_flag("element", _element(_FCS_WORD), _element(_INTERVALS) | _JSON)],
}


@st.composite
def _query_argv(draw):
    """One argv of a query command.  Half are well formed; in the others
    each flag is well formed, malformed or missing, and a stray flag may
    follow."""
    command = draw(st.sampled_from(sorted(_QUERY_FLAGS)))
    clean = draw(st.booleans())
    argv = [command]
    for good, bad in _QUERY_FLAGS[command]:
        form = 0 if clean else draw(st.integers(0, 2))
        if form < 2:
            argv += draw(bad if form else good)
    if not clean and draw(st.booleans()):
        argv.append(draw(st.sampled_from(["--bogus", "--window=3"])))
    return argv


@settings(max_examples=500, deadline=None)
@given(argv=_query_argv())
def test_query_commands_exit_cleanly_on_any_input(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    if code in (0, 1):
        text = out.getvalue()
        assert text.count("\n") == 1 and text.endswith("\n"), argv
        json.loads(text)  # exactly one document: trailing data raises
    else:
        assert out.getvalue() == "", argv


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


def test_importing_the_cli_loads_no_code_generation_modules():
    # `dataclasses` brings in the other four; a one-shot command needs none.
    # Comparing sys.modules before and after ignores whatever `site` loaded.
    probe = ("import sys; before = set(sys.modules); import peritl.cli; "
             "print(*sorted(set(sys.modules) - before))")
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=child_env())
    added = set(run.stdout.split())
    assert "peritl.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}
