"""Epistemic resource logic workbench: labelled tableaux proof search with
constraint closure, countermodel extraction from open branches, a finite
model checker and enumerator used as a brute-force oracle, and executable
access-control scenarios."""

from .config import ERL, ERL_STAR, RunConfig
from .syntax import (Signature, Term, Formula, Atom, Top, Bot, Unit, Not, And,
                     Or, Implies, Star, Wand, Modal, C, D, E, CDUAL, DDUAL,
                     EDUAL, parse_formula, format_formula,
                     validate_signature, load_signature, signature_to_json,
                     term_of)
from .labels import (Closure, ResEq, AgentEq, EPSILON, label, lam, label_str)
from .models import (Model, make_model, validate_model, load_model,
                     model_to_json, enumerate_models, sample_models)
from .checker import (satisfies, satisfies_direct, valid_in_model,
                      find_countermodel, truth_set, explain)
from .tableaux import Tableau, SignedFormula, ProofOutcome, prove
from .hintikka import (is_hintikka, extract_model, verify_extraction,
                       build_index)
from .scenarios import (Scenario, builtin_scenarios, builtin_scenario,
                        run_scenario, load_scenario, scenario_to_json)

__version__ = "0.1.0"
