import json

import pytest

from erl import (builtin_scenario, builtin_scenarios, load_scenario,
                 parse_formula, run_scenario, satisfies, scenario_to_json,
                 validate_model)
from erl.errors import ErlError
from oracles import scenario_mutations


def test_builtin_names_and_order():
    names = [s.name for s in builtin_scenarios()]
    assert names == ["schneier-base", "schneier-agents", "schneier-shortcut",
                     "schneier-fence", "joint-access", "semaphore"]
    with pytest.raises(ErlError):
        builtin_scenario("missing")


def test_all_builtins_pass():
    for s in builtin_scenarios():
        report = run_scenario(s)
        bad = [e for e in report.entries if not e.ok]
        assert report.ok, (s.name, [(e.label, e.detail) for e in bad])


def test_formulas_parse_and_models_validate():
    for s in builtin_scenarios():
        for q in s.queries:
            parse_formula(q.formula, s.sig)
        for name, m in s.models().items():
            assert validate_model(m, s.logic) == [], (s.name, name)


def test_schneier_base_expectations():
    s = builtin_scenario("schneier-base")
    m = s.models()["main"]
    gate = parse_formula("O -> [C alpha; b.t] J", s.sig)
    token_only = parse_formula("O -> [C alpha; t] J", s.sig)
    assert all(satisfies(m, w, gate) for w in m.carrier)
    assert not satisfies(m, "c", token_only)
    assert satisfies(m, "c123", parse_formula("O * O * O", s.sig))
    assert not satisfies(m, "c", parse_formula("O * O * O", s.sig))


def test_schneier_agents_foreign_token_fails():
    s = builtin_scenario("schneier-agents")
    m = s.models()["main"]
    assert not satisfies(m, "c", parse_formula("O -> [C alpha; b.t_beta] J", s.sig))
    assert satisfies(m, "c", parse_formula("O -> [C alpha; b.t_alpha] J", s.sig))


def test_schneier_fence_unforces_shortcut():
    s = builtin_scenario("schneier-fence")
    m = s.models()["main"]
    assert not satisfies(m, "cs", parse_formula("O -> <C beta; e> J", s.sig))
    ok = run_scenario(s)
    assert ok.ok


def test_joint_access_unlocking_replay():
    s = builtin_scenario("joint-access")
    report = run_scenario(s)
    assert report.ok
    labels = [e.label for e in report.entries]
    assert any("unlocking conclusion" in l for l in labels)
    m = s.models()["main"]
    # the derivation end-point
    assert m.compose("k1", "k2") == "k12"
    assert satisfies(m, "k12", parse_formula("U", s.sig))
    # single operators cannot unlock
    assert not satisfies(m, "r", parse_formula("<D alpha; k1.k2> U", s.sig))


def test_semaphore_mutual_exclusion():
    s = builtin_scenario("semaphore")
    held = s.models()["held"]
    assert held.compose("m1", "t") == "m1t"
    assert held.compose("m2", "t") is None
    assert held.compose("m", "t") is None
    assert not satisfies(held, "m2", parse_formula("<C a2; t> top", s.sig))
    released = s.models()["released"]
    assert satisfies(released, "e", parse_formula("<C a2; t> top", s.sig))


def test_scenarios_are_minimal():
    for s in builtin_scenarios():
        for desc, mutant in scenario_mutations(s):
            report = run_scenario(mutant)
            assert not report.ok, (s.name, desc)


def test_scenario_json_roundtrip(tmp_path):
    for s in builtin_scenarios():
        blob = scenario_to_json(s)
        path = tmp_path / f"{s.name}.json"
        path.write_text(json.dumps(blob))
        loaded = load_scenario(str(path))
        report = run_scenario(loaded)
        assert report.ok, s.name
        assert [e.label for e in report.entries] == \
            [e.label for e in run_scenario(s).entries]
