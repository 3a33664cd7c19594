import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# the public names of ``tautloop``, as they were while every module loaded
# eagerly
PUBLIC = [
    "BBOracle", "Budget", "BudgetExceeded", "CayleyBall", "ComplexError", "Constants",
    "CosetTable", "CosetTableOracle", "EdgeLoop", "FlagComplex", "FreeGroupOracle",
    "GroupAction", "GroupPresentation", "HomologyGroup", "Homomorphism", "IntervalSchedule",
    "KernelSearchResult", "LengthSet", "OmegaSet", "OracleInsufficient", "OrbitData",
    "PresentationError", "QuotientWitness", "RaagOracle", "RacgOracle", "S_of_F",
    "SimpleGraph", "Spectrum", "SqrtRational", "TriState", "ZModOracle", "alpha_of",
    "bb_image", "beta_of", "build_J", "build_P", "build_RAAG", "build_RACG", "build_ball",
    "cayley", "check_action", "choose_C", "choose_orbits", "closed_loops", "complexes",
    "compute_N1", "davis", "finite_quotient_search", "flag_completion", "graph_distance",
    "group_is_trivial", "height_distance", "is_acyclic", "is_trivial", "k_related",
    "kernel_length_lower_bound", "kernel_shortest_element", "linalg", "m_of", "normal_forms",
    "normally_generates", "pi1_presentation", "predicted_intervals", "presentations",
    "qi_obstruction", "raag_normal_form", "reduced_homology", "retract", "schedule",
    "semiker_experiment", "spectrum", "spectrum_of_graph", "taut_status", "tits_reduce",
    "todd_coxeter", "truncated_presentation", "verify_certificate", "word_engine", "words",
]

PROBE = """
import json, sys
import tautloop
loaded = {m: m in sys.modules for m in ("tautloop.davis", "tautloop.schedule", "tautloop.spectrum")}
from tautloop import semiker_experiment, S_of_F
print(json.dumps({
    "loaded": loaded,
    "all": tautloop.__all__,
    "lazy": [tautloop.davis.semiker_experiment is semiker_experiment,
             tautloop.schedule.S_of_F is S_of_F],
}))
"""


def test_import_loads_the_cli_only_modules_on_first_use():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True)
    got = json.loads(out.stdout)
    assert got["loaded"] == {"tautloop.davis": False, "tautloop.schedule": False, "tautloop.spectrum": True}
    assert got["all"] == PUBLIC and len(PUBLIC) == 79
    assert got["lazy"] == [True, True]


CLI_PROBE = """
import json, sys
from tautloop.cli import main
cli_only = ("tautloop.davis", "tautloop.schedule", "fractions")
loaded = [m for m in cli_only if m in sys.modules]
code = main(["spectrum", "--oracle", "racg", "--complex", sys.argv[1], "--horizon", "6",
             "--out", sys.argv[2]])
print(json.dumps([loaded, code, [m for m in cli_only if m in sys.modules]]))
"""


def test_cli_and_a_spectrum_load_no_cli_only_module(tmp_path):
    # davis, schedule and the fractions they use load only in the handlers of
    # present j, semiker, schedule and kernel-search
    c5 = tmp_path / "c5.json"
    edges = [[str(i), str((i + 1) % 5)] for i in range(5)]
    c5.write_text(json.dumps({"vertices": list("01234"), "edges": edges}))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    argv = [sys.executable, "-c", CLI_PROBE, str(c5), str(tmp_path / "out.json")]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == [[], 0, []]
