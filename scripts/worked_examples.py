"""Run the two worked tableaux end to end and print what happened.

    python scripts/worked_examples.py
"""

import json

from erl import RunConfig, Signature, model_to_json, parse_formula, prove

SIG = Signature.make(["a"], ["e", "r", "s"])


def show(title, text, logic):
    print(f"== {title}: {text}  [{logic}]")
    out = prove(parse_formula(text, SIG), SIG, RunConfig(logic=logic))
    print(f"   verdict: {out.verdict} in {out.applications} rule applications "
          f"(constant depth {out.depth})")
    for entry in out.trace:
        line = f"   {entry['step']:>2} {entry['rule']:<7} {entry['principal']}"
        if entry["instantiation"]:
            line += f"  with {entry['instantiation']}"
        if entry["fresh"]:
            line += f"  fresh {entry['fresh']}"
        print(line)
        for child in entry["added"].values():
            for c in child["constraints"]:
                print(f"        + {c}")
        if "condition_fact" in entry:
            chain = entry["condition_derivation"]
            print(f"        condition {entry['condition_fact']} "
                  f"derived via {chain[-1]['rule']}")
    for rec in out.closed_branches:
        print(f"   branch {rec['branch']} closed: {rec['witness']}")
    if out.refuted:
        print(f"   countermodel falsifies the formula at {out.world}:")
        data = model_to_json(out.countermodel, out.world)
        del data["signature"]
        print(json.dumps(data, indent=4))
    print()


if __name__ == "__main__":
    show("closed tableau", "[D a; s] p -> [D a; r] [D a; s] p", "erl-star")
    show("open tableau with extraction",
         "[C a; s] p -> [C a; s] [C a; r] p", "erl")
