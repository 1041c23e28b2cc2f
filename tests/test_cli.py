import json
import re
from dataclasses import fields, replace

import pytest

from erl.cli import SETTINGS as READ, main
from erl.config import CHOICES, RunConfig, resolve_config

SIG = {"agents": ["a"], "resources": ["e", "r", "s"], "unit": "e",
       "composition": []}


@pytest.fixture
def sig_file(tmp_path):
    path = tmp_path / "sig.json"
    path.write_text(json.dumps(SIG))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_prove_exit_codes(sig_file, tmp_path, capsys):
    out_file = str(tmp_path / "cm.json")
    code, _ = run(capsys, "prove", "--sig", sig_file, "p -> p",
                  "--countermodel-out", out_file)
    assert code == 0
    code, _ = run(capsys, "prove", "--sig", sig_file,
                  "[C a; s] p -> [C a; s] [C a; r] p",
                  "--countermodel-out", out_file)
    assert code == 1
    code, _ = run(capsys, "prove", "--sig", sig_file, "p * q -> q * p",
                  "--max-constants", "0", "--countermodel-out", out_file)
    assert code == 2


def test_countermodel_roundtrips_through_check(sig_file, tmp_path, capsys):
    out_file = str(tmp_path / "cm.json")
    code, _ = run(capsys, "prove", "--sig", sig_file,
                  "[C a; s] p -> [C a; s] [C a; r] p",
                  "--countermodel-out", out_file)
    assert code == 1
    data = json.loads(open(out_file).read())
    assert data["world"] == "c1"
    code, _ = run(capsys, "check", "--model", out_file,
                  "[C a; s] p -> [C a; s] [C a; r] p", "--at", data["world"])
    assert code == 1  # falsified, as the countermodel promises
    code, _ = run(capsys, "check", "--model", out_file, "top", "--at", "c1")
    assert code == 0


def test_check_usage_errors(sig_file, tmp_path, capsys):
    code, _ = run(capsys, "check", "--model", str(tmp_path / "absent.json"),
                  "top", "--at", "e")
    assert code == 64
    out_file = str(tmp_path / "cm.json")
    run(capsys, "prove", "--sig", sig_file,
        "[C a; s] p -> [C a; s] [C a; r] p", "--countermodel-out", out_file)
    code, _ = run(capsys, "check", "--model", out_file, "top", "--at", "zz")
    assert code == 65
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"signature": SIG, "carrier": ["e", "r", "s"],
                                 "equiv": {"zz": [["e", "r"]]}}))
    code, _ = run(capsys, "check", "--model", str(model), "top", "--at", "e")
    assert code == 65
    # malformed shapes: each is one error line, never a traceback or a
    # silent misreading ("er" is not the worlds e and r)
    for bad in ({"valuation": ["p"]}, {"valuation": {"p": "er"}},
                {"composition": [["r", "s"]]},
                {"composition": [["r", "s", "e", "e"]]},
                {"equiv": {"a": [["e"]]}}, {"carrier": ["e", "r", "s", 3]},
                {"world": ["e"]}, {"world": "zz"}, {"equiv": [["e", "r"]]},
                # a unit other than the signature's, a world listed twice
                {"carrier": ["e", "r", "s", "u"], "unit": "u"},
                {"carrier": ["e", "r", "s", "r"]}):
        model.write_text(json.dumps({"signature": SIG,
                                     "carrier": ["e", "r", "s"], **bad}))
        code, _ = run(capsys, "check", "--model", str(model), "top",
                      "--at", "e")
        assert code == 65, bad


def test_string_for_name_list_exit(tmp_path, capsys):
    # a string where a list of names belongs is a data error, not a list
    # of its characters (a composition row "rst" is not r.s = t); so is a
    # name or a row of another JSON type
    sig = tmp_path / "sig.json"
    good = {"agents": ["a"], "resources": ["e", "r", "s", "t"]}
    for bad in ({"agents": "ab", "resources": "es"},
                {"resources": ["e", 1]}, {"agents": [["a"]]}, {"unit": 5},
                {"composition": [["r", "s"]]}, {"composition": [5]},
                {"composition": ["rst"]}):
        sig.write_text(json.dumps({**good, **bad}))
        capsys.readouterr()
        assert main(["prove", "--sig", str(sig), "p -> p",
                     "--countermodel-out", str(tmp_path / "cm.json")]) == 65, bad
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"signature": {"resources": ["e", "s"]},
                                 "carrier": "es"}))
    code, _ = run(capsys, "check", "--model", str(model), "top", "--at", "e")
    assert code == 65


def test_search_verdicts(sig_file, tmp_path, capsys):
    out_file = str(tmp_path / "cm.json")
    code, _ = run(capsys, "search", "--sig", sig_file, "p -> p",
                  "--carrier-bound", "3", "--countermodel-out", out_file)
    assert code == 0
    code, _ = run(capsys, "search", "--sig", sig_file,
                  "[D a; r] [D a; s] p -> [D a; s] p", "--logic", "erl-star",
                  "--countermodel-out", out_file)
    assert code == 1
    found = json.loads(open(out_file).read())
    code, _ = run(capsys, "check", "--model", out_file,
                  "[D a; r] [D a; s] p -> [D a; s] p", "--at", found["world"],
                  "--logic", "erl-star")
    assert code == 1
    # five resources at bound 5 leave no fresh world: one composition
    # table, searched at once, not refused by an estimate that counted
    # every cell as free
    path = tmp_path / "sig5.json"
    path.write_text(json.dumps({**SIG, "resources": ["e", "r", "s", "t", "u"]}))
    code, _ = run(capsys, "search", "--sig", str(path), "p -> [C a; r] p",
                  "--carrier-bound", "5", "--countermodel-out", out_file)
    assert code == 1


def test_carrier_bound_below_resources_exit(sig_file, tmp_path, capsys):
    # every model holds the three resources: bound 1 is not a search over
    # fewer worlds, whatever the formula
    for formula in ("p", "p -> p"):
        capsys.readouterr()
        assert main(["search", "--sig", sig_file, formula, "--carrier-bound", "1",
                     "--countermodel-out", str(tmp_path / "cm.json")]) == 65
        err = capsys.readouterr().err
        assert err.startswith("error: carrier bound 1") and err.count("\n") == 1, err


def test_unreadable_input_exit(sig_file, tmp_path, capsys):
    # a directory where a file belongs is a usage error, text that is not
    # UTF-8 a data error: one line each, never a traceback
    out_file = str(tmp_path / "cm.json")
    run(capsys, "prove", "--sig", sig_file, "[C a; s] p -> [C a; s] [C a; r] p",
        "--countermodel-out", out_file)
    folder = str(tmp_path)
    for argv in (["prove", "--sig", folder, "p"],
                 ["check", "--model", folder, "top", "--at", "e"],
                 ["scenario", "--file", folder],
                 ["prove", "--sig", sig_file, "[C a; s] p -> [C a; s] [C a; r] p",
                  "--countermodel-out", folder]):
        capsys.readouterr()
        assert main(argv) == 64, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    for name, argv in (("sig.json", ["prove", "--sig"]),
                       ("model.json", ["check", "top", "--at", "e", "--model"]),
                       ("scenario.json", ["scenario", "--file"])):
        path = tmp_path / name
        path.write_bytes(b"\xff\xfe" + json.dumps(SIG).encode("utf-16-le"))
        capsys.readouterr()
        code = main(argv + [str(path)] + (["p"] if argv[0] == "prove" else []))
        assert code == 65, name
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_scenarios_exit_zero(capsys):
    for name in ["schneier-base", "schneier-agents", "schneier-shortcut",
                 "schneier-fence", "joint-access", "semaphore"]:
        code, out = run(capsys, "scenario", name)
        assert code == 0, (name, out)
    code, _ = run(capsys, "scenario", "no-such-scenario")
    assert code == 65
    code, _ = run(capsys, "scenario", "--file", "/nonexistent/scenario.json")
    assert code == 64
    code, _ = run(capsys, "scenario", "--list")
    assert code == 0


def test_scenario_file_roundtrip(tmp_path, capsys):
    code, out = run(capsys, "scenario", "joint-access", "--dump")
    assert code == 0
    path = tmp_path / "s.json"
    path.write_text(out)
    code, _ = run(capsys, "scenario", "--file", str(path))
    assert code == 0


def test_json_determinism(sig_file, tmp_path, capsys):
    args = ["prove", "--sig", sig_file, "--output", "json",
            "[C a; s] p -> [C a; s] [C a; r] p",
            "--countermodel-out", str(tmp_path / "cm.json")]
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2


def test_env_overrides(sig_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ERL_MAX_CONSTANTS", "0")
    code, _ = run(capsys, "prove", "--sig", sig_file, "p * q -> q * p",
                  "--countermodel-out", str(tmp_path / "cm.json"))
    assert code == 2
    # explicit flag wins over the environment
    code, _ = run(capsys, "prove", "--sig", sig_file, "p * q -> q * p",
                  "--max-constants", "4",
                  "--countermodel-out", str(tmp_path / "cm.json"))
    assert code == 0


def test_usage_error_exit(sig_file, tmp_path, capsys, monkeypatch):
    assert main(["prove"]) == 64
    prove = ["prove", "--sig", sig_file, "p -> p",
             "--countermodel-out", str(tmp_path / "cm.json")]
    # bad flag and ERL_* values: a one-line message, no traceback
    for flags, env in [(["--max-steps", "0"], {}),
                       (["--max-constants", "-1"], {}),
                       ([], {"ERL_MAX_STEPS": "abc"}),
                       ([], {"ERL_LOGIC": "bogus"})]:
        with monkeypatch.context() as m:
            for name, value in env.items():
                m.setenv(name, value)
            capsys.readouterr()
            assert main(prove + flags) == 64, (flags, env)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_deep_nesting_exit(sig_file, tmp_path, capsys):
    # 3,000 negations overflow the parser; 600 parse and overflow the prover
    for text in ["!" * 3000 + "p", "!" * 600 + "p", "(" * 600 + "p" + ")" * 600]:
        capsys.readouterr()
        assert main(["prove", "--sig", sig_file, text, "--countermodel-out",
                     str(tmp_path / "cm.json")]) == 65
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_malformed_scenario_exit(tmp_path, capsys):
    code, out = run(capsys, "scenario", "joint-access", "--dump")
    good = json.loads(out)
    query, step = good["queries"][0], good["replay"][0]
    compose = {"kind": "compose", "args": {"left": "k1"}}
    for bad in [{},
                {**good, "models": list(good["models"].values())},
                {**good, "queries": [{**query, "colour": "red"}]},
                {**good, "queries": [{"formula": query["formula"]}]},
                {**good, "queries": [{**query, "model": "absent"}]},
                {**good, "replay": [{**step, "model": "absent"}]},
                {**good, "replay": [compose]},
                {**good, "replay": [{**step, "kind": "compose",
                                     "args": {"left": "nowhere", "right": "e"}}]},
                {**good, "replay": [{**step, "kind": "equiv",
                                     "args": {"agent": "alpha", "left": "e",
                                              "right": "nowhere"}}]},
                {**good, "replay": [{**step, "kind": "equiv",
                                     "args": {"agent": "zz", "left": "e",
                                              "right": "e"}}]},
                {**good, "logic": "bogus"}, {**good, "name": 5},
                {**good, "description": ["x"]},
                {**good, "queries": [{**query, "formula": 5}]},
                {**good, "queries": [{**query, "world": ["m"]}]},
                # 5 is not a model, nor file descriptor 5
                {**good, "models": {"main": 5}},
                {**good, "replay": [{**step, "kind": "holds",
                                     "args": {"formula": 5, "world": "e"}}]},
                {**good, "replay": [{**step, "kind": "equiv",
                                     "args": {"agent": ["alpha"], "left": "e",
                                              "right": "e"}}]},
                # read only when run, or misread: a world or a witness the
                # query's verdict does not take, a replay argument of the
                # wrong JSON type, a replay kind nothing runs
                {**good, "queries": [{**query, "expect": "satisfied"}]},
                {**good, "queries": [{**query, "world": "zz"}]},
                {**good, "queries": [{**query, "witness": "e"}]},
                {**good, "replay": [{**step, "kind": "holds",
                                     "args": {"formula": "U", "world": "k12",
                                              "expect": "false"}}]},
                {**good, "replay": [{**step, "args": {**step["args"],
                                                      "result": 5}}]},
                {**good, "replay": [{**step, "kind": "bogus"}]},
                # checked at load, not first met when run: a world outside
                # the carrier, an unknown agent, a formula that does not parse
                {**good, "queries": [{**query, "expect": "invalid",
                                      "witness": "nowhere"}]},
                {**good, "queries": [{**query, "expect": "satisfied",
                                      "world": "nowhere"}]},
                {**good, "queries": [{**query, "formula": "<D zeta; k1> top"}]},
                {**good, "queries": [{**query, "formula": "top &"}]},
                {**good, "replay": [{**step, "kind": "holds",
                                     "args": {"formula": "top", "world": "nowhere"}}]},
                {**good, "replay": [{**step, "args": {**step["args"],
                                                      "result": "nowhere"}}]},
                {**good, "replay": [{**step, "kind": "holds",
                                     "args": {"formula": "<D zeta; k1> top",
                                              "world": "e"}}]}]:
        path = tmp_path / "s.json"
        path.write_text(json.dumps(bad))
        capsys.readouterr()
        assert main(["scenario", "--file", str(path)]) == 65, bad
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


# The setting flags each subcommand reads; it must refuse the others, and
# every subcommand refuses the retired --seed.
SETTINGS = {"--logic", "--max-constants", "--max-steps", "--closure-budget",
            "--carrier-bound", "--output", "--seed"}
ACCEPTED = {
    "prove": {"--logic", "--max-constants", "--max-steps", "--closure-budget",
              "--output"},
    "check": {"--logic", "--output"},
    "search": {"--logic", "--carrier-bound", "--output"},
    "scenario": {"--output"},
}
GOOD_VALUE = {"--logic": "erl", "--output": "text", "--carrier-bound": "4",
              "--max-constants": "8", "--max-steps": "100",
              "--closure-budget": "6", "--seed": "0"}


def command_argv(command, tmp_path):
    """A valid invocation of ``command`` that writes only under tmp_path."""
    sig = tmp_path / "sig.json"
    sig.write_text(json.dumps(SIG))
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"signature": SIG, "carrier": ["e", "r", "s"],
                                 "composition": []}))
    out = ["--countermodel-out", str(tmp_path / "cm.json")]
    return {"prove": ["prove", "--sig", str(sig), "p -> p", *out],
            "check": ["check", "--model", str(model), "top", "--at", "e"],
            "search": ["search", "--sig", str(sig), "p -> p", *out],
            "scenario": ["scenario", "joint-access"]}[command]


@pytest.mark.parametrize("command, flag", sorted(
    (c, f) for c, accepted in ACCEPTED.items() for f in SETTINGS - accepted))
def test_unread_setting_is_refused(command, flag, tmp_path, capsys):
    argv = command_argv(command, tmp_path)
    assert main(argv) == 0
    assert main(argv + [flag, GOOD_VALUE[flag]]) == 64
    assert "unrecognized arguments: " + flag in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [
    ("prove", "--logic", "bogus"), ("prove", "--output", "xml"),
    ("prove", "--max-steps", "abc"), ("prove", "--closure-budget", "0"),
    ("search", "--carrier-bound", "0"), ("check", "--logic", ""),
    ("scenario", "--output", "xml")])
def test_bad_setting_value_exit(command, flag, value, tmp_path, capsys):
    capsys.readouterr()
    assert main(command_argv(command, tmp_path) + [flag, value]) == 64
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}=") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", sorted(ACCEPTED))
def test_help_names_own_settings(command, capsys):
    assert main([command, "--help"]) == 0
    named = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    assert named & SETTINGS == ACCEPTED[command]


@pytest.mark.parametrize("argv", [
    ["search", "--sig", "/dev/null", "p", "--carrier", "3"],
    ["prove", "--sig", "/dev/null", "p", "--max-const", "3"],
    ["scenario", "joint-access", "--out", "json"]])
def test_abbreviated_flag_is_refused(argv, capsys):
    # only the registered spellings are flags; a prefix of one is not
    assert main(argv) == 64
    assert "unrecognized arguments: " + argv[-2] in capsys.readouterr().err


def test_scenario_list_follows_output(capsys):
    code, text = run(capsys, "scenario", "--list")
    assert code == 0
    code, out = run(capsys, "scenario", "--list", "--output", "json")
    assert code == 0
    listed = json.loads(out)
    assert [f"{s['name']}: {s['description']}" for s in listed] == \
        text.splitlines()
    assert all(set(s) == {"name", "description"} for s in listed)


def test_scenario_dump_refuses_text_output(capsys):
    code, out = run(capsys, "scenario", "joint-access", "--dump",
                    "--output", "json")
    assert code == 0 and json.loads(out)["name"] == "joint-access"
    capsys.readouterr()
    assert main(["scenario", "joint-access", "--dump", "--output", "text"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --output=") and \
        captured.err.count("\n") == 1, captured.err


@pytest.mark.parametrize("field", fields(RunConfig), ids=lambda f: f.name)
def test_each_setting_reaches_its_field(field, monkeypatch):
    name, default = field.name, field.default
    value = (next(c for c in CHOICES[name] if c != default)
             if name in CHOICES else default + 1)
    monkeypatch.delenv(f"ERL_{name.upper()}", raising=False)
    expected = replace(RunConfig(), **{name: value})
    assert resolve_config({name: str(value)}) == expected
    monkeypatch.setenv(f"ERL_{name.upper()}", str(value))
    assert resolve_config() == expected
    assert resolve_config({name: str(default)}) == RunConfig()


def test_every_read_setting_is_a_field():
    names = {f.name for f in fields(RunConfig)}
    assert all(set(read) <= names for read in READ.values())
