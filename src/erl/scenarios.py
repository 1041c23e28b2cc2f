"""Access-control case studies as executable scenarios.

Each scenario packages a signature, one or more concrete finite models, a
list of queries with expected verdicts, and a replay script of low-level
checks (composition cells, agent-equivalence links, single satisfaction
facts) that walks through the informal derivation the scenario encodes.
All scenarios run under the compatible logic; the models were built so that
the compatibility of each agent relation with composition forces exactly
the links the stories need.

Concrete models are artifact constructions: the policies themselves only
constrain models, so each scenario exhibits a minimal witnessing model
(cars, tokens and keys as worlds, with composition following the story).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

from .checker import WorldNotInCarrier, satisfies, valid_in_model
from .config import ERL, ERL_STAR
from .errors import ErlError, UnknownAgentError
from .models import load_model, validate_model
from .syntax import (Signature, load_signature, parse_formula, read_json,
                     signature_to_json)


@dataclass
class Query:
    formula: str
    expect: str                    # valid | invalid | satisfied | falsified
    world: str | None = None       # for satisfied / falsified
    witness: str | None = None     # expected first failing world for invalid
    model: str = "main"
    note: str = ""


@dataclass
class ReplayStep:
    kind: str                      # holds | equiv | compose
    args: dict
    model: str = "main"
    note: str = ""


@dataclass
class Scenario:
    name: str
    description: str
    sig: Signature
    model_data: dict               # model name -> raw JSON-able model dict
    queries: list
    replay: list = field(default_factory=list)
    logic: str = ERL_STAR

    def models(self) -> dict:
        return {name: load_model(data, self.sig)[0]
                for name, data in self.model_data.items()}


@dataclass
class ReportEntry:
    label: str
    ok: bool
    detail: str = ""


@dataclass
class ScenarioReport:
    name: str
    entries: list

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def to_json(self) -> dict:
        return {"name": self.name, "ok": self.ok,
                "entries": [asdict(e) for e in self.entries]}


def run_scenario(s: Scenario) -> ScenarioReport:
    entries = []
    models = s.models()
    for name, m in sorted(models.items()):
        violations = validate_model(m, s.logic)
        entries.append(ReportEntry(
            f"model {name} validates ({s.logic})", not violations,
            "; ".join(map(str, violations))))
    for q in s.queries:
        entries.append(_run_query(s, models, q))
    for step in s.replay:
        entries.append(_run_replay(models, step))
    return ScenarioReport(s.name, entries)


def _run_query(s: Scenario, models: dict, q: Query) -> ReportEntry:
    label = f"[{q.model}] {q.formula} expected {q.expect}" + \
        (f" at {q.world}" if q.world else "")
    if q.note:
        label += f" ({q.note})"
    try:
        phi = parse_formula(q.formula, s.sig)
    except ErlError as exc:
        return ReportEntry(label, False, f"parse error: {exc}")
    m = models[q.model]
    if q.expect == "valid":
        ok, world = valid_in_model(m, phi)
        return ReportEntry(label, ok, "" if ok else f"fails at {world}")
    if q.expect == "invalid":
        ok, world = valid_in_model(m, phi)
        if ok:
            return ReportEntry(label, False, "formula is valid in the model")
        if q.witness is not None and world != q.witness:
            return ReportEntry(label, False,
                               f"fails at {world}, expected witness {q.witness}")
        return ReportEntry(label, True, f"fails at {world}")
    verdict = satisfies(m, q.world, phi)
    want = q.expect == "satisfied"
    return ReportEntry(label, verdict == want,
                       "" if verdict == want else f"got {verdict}")


def _run_replay(models: dict, step: ReplayStep) -> ReportEntry:
    m = models[step.model]
    a = step.args
    label = f"replay[{step.model}] {step.kind} {a}"
    if step.note:
        label += f" ({step.note})"
    if step.kind in ("compose", "equiv"):
        for world in (a["left"], a["right"]):
            if world not in m.index:
                raise WorldNotInCarrier(world)
    if step.kind == "equiv" and a["agent"] not in m.sig.agents:
        raise UnknownAgentError(a["agent"])
    if step.kind == "compose":
        got = m.compose(a["left"], a["right"])
        want = a.get("result")
        return ReportEntry(label, got == want, f"got {got}")
    if step.kind == "equiv":
        cls = m.classmask[a["agent"]][m.index[a["left"]]]
        got = bool(cls >> m.index[a["right"]] & 1)
        return ReportEntry(label, got == a.get("expect", True), f"got {got}")
    if step.kind == "holds":
        phi = parse_formula(a["formula"], m.sig)
        got = satisfies(m, a["world"], phi)
        return ReportEntry(label, got == a.get("expect", True), f"got {got}")
    return ReportEntry(label, False, f"unknown replay kind {step.kind}")


# ---------------------------------------------------------------------------
# Serialization


def scenario_to_json(s: Scenario) -> dict:
    return {
        "name": s.name,
        "description": s.description,
        "logic": s.logic,
        "signature": signature_to_json(s.sig),
        "models": s.model_data,
        "queries": [asdict(q) for q in s.queries],
        "replay": [asdict(r) for r in s.replay],
    }


# the arguments each replay step kind reads
_REPLAY_ARGS = {"compose": ("left", "right"), "equiv": ("agent", "left", "right"),
                "holds": ("formula", "world")}
_EXPECT = ("valid", "invalid", "satisfied", "falsified")


def load_scenario(source) -> Scenario:
    data = read_json(source, ErlError, ("queries", "replay"))
    for key in ("signature", "name", "models"):
        if key not in data:
            raise ErlError(f"scenario file missing field {key!r}")
    if not isinstance(data["models"], dict):
        raise ErlError("'models' must map model names to models")
    if not all(isinstance(data.get(k, ""), str) for k in ("name", "description")):
        raise ErlError("'name' and 'description' must be strings")
    sig = load_signature(data["signature"])
    logic = data.get("logic", ERL_STAR)
    if logic not in (ERL, ERL_STAR):
        raise ErlError(f"logic must be {ERL!r} or {ERL_STAR!r}, got {logic!r}")
    queries = [_from_json(Query, q) for q in data.get("queries", [])]
    replay = [_from_json(ReplayStep, r) for r in data.get("replay", [])]
    for q in queries:
        if q.expect not in _EXPECT:
            raise ErlError(f"query {q.formula!r}: expect must be one of {_EXPECT}")
    for step in queries + replay:
        if step.model not in data["models"]:
            raise ErlError(f"no model {step.model!r} in the scenario")
    for step in replay:
        needed = _REPLAY_ARGS.get(step.kind, ())
        if not all(isinstance(step.args.get(k), str) for k in needed):
            raise ErlError(f"replay step {step.kind!r} needs string arguments "
                           f"{list(needed)}")
    return Scenario(
        name=data["name"],
        description=data.get("description", ""),
        sig=sig,
        model_data=data["models"],
        queries=queries,
        replay=replay,
        logic=logic,
    )


# the JSON types of the fields of Query and ReplayStep, by annotation
_JSON_TYPES = {"str": str, "str | None": (str, type(None)), "dict": dict}


def _from_json(cls, data):
    """``cls(**data)``; an ErlError when a key is unknown or missing or a
    value has the wrong JSON type."""
    try:
        step = cls(**data)
    except TypeError as exc:
        raise ErlError(f"malformed query or replay step: {exc}") from None
    for f in fields(step):
        value = getattr(step, f.name)
        if not isinstance(value, _JSON_TYPES[f.type]):
            raise ErlError(f"{f.name!r} of a query or replay step must be "
                           f"{f.type}, got {value!r}")
    return step


# ---------------------------------------------------------------------------
# Builtin scenarios


def _schneier_base() -> Scenario:
    sig = Signature.make(["alpha"], ["e", "b", "t", "c"])
    model = {
        "carrier": ["e", "b", "t", "c", "bt", "ct", "cb", "cbt", "cin", "j0",
                    "car2", "car3", "c12", "c13", "c23", "c123"],
        "composition": [
            ["b", "t", "bt"], ["c", "t", "ct"], ["c", "b", "cb"],
            ["c", "bt", "cbt"], ["cb", "t", "cbt"], ["ct", "b", "cbt"],
            ["c", "car2", "c12"], ["c", "car3", "c13"], ["car2", "car3", "c23"],
            ["c12", "car3", "c123"], ["c13", "car2", "c123"], ["c23", "c", "c123"],
        ],
        "equiv": {"alpha": [["cbt", "cin"]]},
        "valuation": {"O": ["c", "car2", "car3"], "J": ["cbt", "cin", "j0"]},
    }
    queries = [
        Query("O -> [C alpha; b.t] J", "valid",
              note="barrier plus token grants access"),
        Query("O -> [C alpha; t] J", "invalid", witness="c",
              note="token alone does not"),
        Query("O -> [C alpha; b] J", "invalid", witness="c",
              note="barrier alone does not"),
        Query("O -> [C alpha; e] J", "invalid", witness="c",
              note="no resource certainly does not"),
        Query("J -> <D alpha; b.t> J", "invalid", witness="j0",
              note="being inside does not prove a barrier crossing"),
        Query("<D alpha; b.t> J", "satisfied", world="cin",
              note="the inside world is reachable via barrier+token"),
        Query("O * O * O", "satisfied", world="c123",
              note="three cars need a three-way split"),
        Query("O * O * O", "falsified", world="c",
              note="a single car is not three cars"),
    ]
    replay = [
        ReplayStep("compose", {"left": "b", "right": "t", "result": "bt"}),
        ReplayStep("compose", {"left": "c", "right": "bt", "result": "cbt"}),
        ReplayStep("equiv", {"agent": "alpha", "left": "cbt", "right": "cin"},
                   note="crossing state is as good as being inside"),
        ReplayStep("holds", {"world": "cbt", "formula": "J"}),
        ReplayStep("compose", {"left": "c", "right": "c23", "result": "c123"}),
    ]
    return Scenario("schneier-base",
                    "A facility barrier openable with a token; side door absent.",
                    sig, {"main": model}, queries, replay)


def _schneier_agents() -> Scenario:
    agents = ["alpha", "beta", "gamma"]
    sig = Signature.make(agents, ["e", "b", "t_alpha", "t_beta", "t_gamma", "c"])
    carrier = ["e", "b", "t_alpha", "t_beta", "t_gamma", "c", "cb"]
    comp = [["c", "b", "cb"]]
    for a in agents:
        carrier += [f"bt_{a}", f"ct_{a}", f"cbt_{a}"]
        comp += [
            ["b", f"t_{a}", f"bt_{a}"],
            ["c", f"t_{a}", f"ct_{a}"],
            ["c", f"bt_{a}", f"cbt_{a}"],
            ["cb", f"t_{a}", f"cbt_{a}"],
            [f"ct_{a}", "b", f"cbt_{a}"],
        ]
    carrier += ["cin", "rej"]
    equiv = {}
    for a in agents:
        pairs = [[f"cbt_{a}", "cin"]]
        pairs += [[f"cbt_{b}", "rej"] for b in agents if b != a]
        equiv[a] = pairs
    model = {
        "carrier": carrier,
        "composition": comp,
        "equiv": equiv,
        "valuation": {"O": ["c"],
                      "J": [f"cbt_{a}" for a in agents] + ["cin"]},
    }
    queries = []
    for a in agents:
        queries.append(Query(f"O -> [C {a}; b.t_{a}] J", "valid",
                             note=f"{a} enters with its own token"))
        queries.append(Query(f"<D {a}; b.t_{a}> J", "satisfied", world="cin"))
        for b in agents:
            if b != a:
                queries.append(Query(f"O -> [C {a}; b.t_{b}] J", "invalid",
                                     witness="c",
                                     note=f"{a} cannot use {b}'s token"))
    return Scenario("schneier-agents",
                    "Per-agent tokens; foreign tokens are rejected.",
                    sig, {"main": model}, queries)


def _schneier_shortcut() -> Scenario:
    sig = Signature.make(["alpha", "beta"], ["e"])
    model = {
        "carrier": ["e", "cs", "cin_s"],
        "composition": [],
        "equiv": {"beta": [["cs", "cin_s"]], "alpha": []},
        "valuation": {"O": ["cs"], "J": ["cin_s"], "F": []},
    }
    queries = [
        Query("O & !F -> <C beta; e> J", "valid",
              note="without a fence, beta can reach the inside with no token"),
        Query("O & !F -> <C alpha; e> J", "invalid", witness="cs",
              note="alpha does not know the shortcut"),
        Query("O -> [C beta; e] J", "invalid", witness="cs",
              note="the necessity form would require the outside itself to be inside"),
    ]
    replay = [
        ReplayStep("equiv", {"agent": "beta", "left": "cs", "right": "cin_s"},
                   note="the shortcut link"),
        ReplayStep("equiv", {"agent": "alpha", "left": "cs", "right": "cin_s",
                             "expect": False}),
    ]
    return Scenario("schneier-shortcut",
                    "The barrier can be driven around; beta knows it.",
                    sig, {"main": model}, queries, replay)


def _schneier_fence() -> Scenario:
    sig = Signature.make(["alpha", "beta"], ["e"])
    model = {
        "carrier": ["e", "cs", "cin_s"],
        "composition": [],
        "equiv": {"beta": [], "alpha": []},
        "valuation": {"O": ["cs"], "J": ["cin_s"], "F": ["e", "cs", "cin_s"]},
    }
    queries = [
        Query("F", "valid", note="the fence is up everywhere"),
        Query("O & !F -> <C beta; e> J", "valid",
              note="the shortcut policy clause is vacuous under the fence"),
        Query("O -> <C beta; e> J", "invalid", witness="cs",
              note="tokenless access is no longer forced"),
        Query("O -> [C beta; e] J", "invalid", witness="cs"),
    ]
    return Scenario("schneier-fence",
                    "A fence closes the shortcut; tokenless access disappears.",
                    sig, {"main": model}, queries)


def _joint_access() -> Scenario:
    sig = Signature.make(["alpha", "beta", "o"], ["e", "k1", "k2"])
    model = {
        "carrier": ["e", "k1", "k2", "k12", "r1", "r2", "r", "w1", "w2"],
        "composition": [
            ["k1", "k2", "k12"], ["r1", "r2", "r"],
            ["k1", "r2", "w1"], ["r1", "k2", "w2"],
        ],
        "equiv": {
            "o": [["r1", "k1"], ["r2", "k2"], ["r", "w1"], ["w1", "k12"],
                  ["w2", "k12"]],
            "alpha": [["r1", "k1"], ["r", "w1"], ["w2", "k12"]],
            "beta": [["r2", "k2"], ["r", "w2"], ["w1", "k12"]],
        },
        "valuation": {"U": ["k12"]},
    }
    queries = [
        Query("<D alpha; k1> top -> <D o; k1> top", "valid",
              note="alpha's key access transfers to the omnipotent agent"),
        Query("<D beta; k2> top -> <D o; k2> top", "valid"),
        Query("<D alpha; k1> top * <D beta; k2> top", "satisfied", world="r",
              note="the two keys are turned separately"),
        Query("[D o; k1.k2] U", "satisfied", world="r",
              note="whenever both keys are present the system unlocks"),
        Query("<D o; k1.k2> U", "satisfied", world="r"),
        Query("U", "satisfied", world="k12"),
        Query("<D alpha; k1.k2> U", "falsified", world="r",
              note="alpha alone cannot unlock"),
        Query("<D beta; k1.k2> U", "falsified", world="r"),
    ]
    replay = [
        ReplayStep("compose", {"left": "r1", "right": "r2", "result": "r"},
                   note="the system state splits into the operators' parts"),
        ReplayStep("holds", {"world": "r1", "formula": "<D alpha; k1> top"}),
        ReplayStep("holds", {"world": "r1", "formula": "<D o; k1> top"},
                   note="transfer axiom applied"),
        ReplayStep("equiv", {"agent": "o", "left": "r1", "right": "k1"}),
        ReplayStep("equiv", {"agent": "o", "left": "r", "right": "w1"},
                   note="compatibility composes r2 onto both sides"),
        ReplayStep("equiv", {"agent": "o", "left": "w1", "right": "k12"},
                   note="compatibility composes k1 onto the second key link"),
        ReplayStep("equiv", {"agent": "o", "left": "r", "right": "k12"},
                   note="transitivity: the system state reaches both keys"),
        ReplayStep("compose", {"left": "k1", "right": "k2", "result": "k12"}),
        ReplayStep("holds", {"world": "k12", "formula": "U"},
                   note="the unlocking conclusion"),
    ]
    return Scenario("joint-access",
                    "Two operators with separate keys; an omnipotent agent "
                    "sees both and the system unlocks when both are present.",
                    sig, {"main": model}, queries, replay)


def _semaphore() -> Scenario:
    sig = Signature.make(["a1", "a2"], ["e", "t"])
    held = {
        "carrier": ["e", "t", "m1", "m2", "m", "m1t", "m1cs"],
        "composition": [["m1", "t", "m1t"], ["m1", "m2", "m"]],
        "equiv": {"a1": [["m1t", "m1cs"]], "a2": []},
        "valuation": {"NC": ["m1", "m2"], "C": ["m1t", "m1cs"]},
    }
    released = {
        "carrier": ["e", "t", "m1", "m2", "m", "w_cs", "m_nc"],
        "composition": [["m1", "m2", "m"]],
        "equiv": {"a1": [["w_cs", "m_nc"]], "a2": [["w_cs", "m_nc"]]},
        "valuation": {"NC": ["m1", "m2", "m_nc"], "C": ["w_cs"]},
    }
    queries = [
        Query("NC * NC", "satisfied", world="m", model="held",
              note="two processes run non-critical code in separate memory"),
        Query("NC -> [C a1; t] C", "valid", model="held",
              note="acquiring the token enters the critical section"),
        Query("NC -> [C a2; t] C", "valid", model="held"),
        Query("<C a1; t> top", "satisfied", world="m1", model="held",
              note="a1's memory extends with the token"),
        Query("<C a2; t> top", "falsified", world="m2", model="held",
              note="mutual exclusion: no state extends a2's memory with the token"),
        Query("<C a1; t> top -> !<C a2; t> top", "satisfied", world="m",
              model="held", note="the guard holds at the system state"),
        Query("<C a2; t> top -> !<C a1; t> top", "satisfied", world="m",
              model="held"),
        Query("[C a1; t] C", "satisfied", world="m1", model="held"),
        Query("<D a1; t> top", "satisfied", world="m1t", model="held",
              note="the token is still in a1's grasp, blocking the exit clause"),
        Query("<D a1; t> C", "satisfied", world="m1cs", model="held"),
        Query("C -> (!<D a1; t> top & <D a1; e> NC)", "valid", model="released",
              note="after release the exit clause holds"),
        Query("C -> (!<D a2; t> top & <D a2; e> NC)", "valid", model="released"),
        Query("<D a1; e> NC", "satisfied", world="w_cs", model="released"),
        Query("<C a2; t> top", "satisfied", world="e", model="released",
              note="the token is acquirable again"),
        Query("NC * NC", "satisfied", world="m", model="released"),
        Query("<C a1; t> top -> !<C a2; t> top", "satisfied", world="m",
              model="released"),
    ]
    replay = [
        ReplayStep("compose", {"left": "m1", "right": "m2", "result": "m"},
                   model="held"),
        ReplayStep("compose", {"left": "m1", "right": "t", "result": "m1t"},
                   model="held", note="a1 holds the token"),
        ReplayStep("compose", {"left": "m2", "right": "t", "result": None},
                   model="held", note="a2 cannot reach a token-extended state"),
        ReplayStep("compose", {"left": "m", "right": "t", "result": None},
                   model="held"),
        ReplayStep("equiv", {"agent": "a1", "left": "m1t", "right": "m1cs"},
                   model="held", note="the critical-section view"),
        ReplayStep("holds", {"world": "m1cs", "formula": "C"}, model="held"),
        ReplayStep("holds", {"world": "m1t", "formula": "!<D a1; t> top",
                             "expect": False}, model="held",
                   note="exit clause contradicts the held token; release first"),
        ReplayStep("compose", {"left": "e", "right": "t", "result": "t"},
                   model="released", note="the freed token composes again"),
    ]
    return Scenario("semaphore",
                    "A single token guards a critical section shared by two "
                    "processes; two memory states model hold and release.",
                    sig, {"held": held, "released": released}, queries, replay)


_BUILTIN = (_schneier_base, _schneier_agents, _schneier_shortcut,
            _schneier_fence, _joint_access, _semaphore)


def builtin_scenarios() -> list[Scenario]:
    return [make() for make in _BUILTIN]


def builtin_scenario(name: str) -> Scenario:
    for s in builtin_scenarios():
        if s.name == name:
            return s
    raise ErlError(f"no builtin scenario named {name!r}; "
                   f"known: {[x.name for x in builtin_scenarios()]}")
