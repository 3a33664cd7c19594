"""Exact and budgeted computation around taut loop length spectra.

Subpackages cover flag complexes and their homology, group presentations,
a layered certificate-producing word-problem engine, right-angled normal
forms, Cayley balls, taut loop spectra with k-relatedness, exact constant
schedules, and semidirect-product kernel experiments.
"""

from importlib import import_module as _import_module

from .complexes import (
    ComplexError,
    EdgeLoop,
    FlagComplex,
    HomologyGroup,
    OmegaSet,
    SimpleGraph,
    flag_completion,
    is_acyclic,
    normally_generates,
    pi1_presentation,
    reduced_homology,
)
from .presentations import (
    GroupPresentation,
    Homomorphism,
    PresentationError,
    build_P,
    build_RAAG,
    build_RACG,
    truncated_presentation,
)
from .word_engine import (
    Budget,
    BudgetExceeded,
    CosetTable,
    KernelSearchResult,
    QuotientWitness,
    TriState,
    finite_quotient_search,
    group_is_trivial,
    is_trivial,
    kernel_shortest_element,
    todd_coxeter,
    verify_certificate,
)
from .normal_forms import bb_image, raag_normal_form, retract, tits_reduce
from .cayley import (
    BBOracle,
    CayleyBall,
    CosetTableOracle,
    FreeGroupOracle,
    OracleInsufficient,
    RaagOracle,
    RacgOracle,
    ZModOracle,
    build_ball,
    closed_loops,
    graph_distance,
)
from .spectrum import LengthSet, Spectrum, k_related, spectrum, spectrum_of_graph, taut_status

# ``schedule`` and ``davis`` serve the CLI and a few callers, so they load on
# first use (PEP 562); their names are listed here and in ``__all__``.
_LAZY = {
    "schedule": "Constants IntervalSchedule SqrtRational alpha_of beta_of choose_C height_distance"
    " kernel_length_lower_bound m_of predicted_intervals qi_obstruction S_of_F",
    "davis": "GroupAction OrbitData build_J check_action choose_orbits compute_N1 semiker_experiment",
}
_LAZY_OWNER = {name: module for module, names in _LAZY.items() for name in names.split()}


def __getattr__(name: str):
    if name in _LAZY:
        return _import_module(f".{name}", __name__)
    if name in _LAZY_OWNER:
        return getattr(_import_module(f".{_LAZY_OWNER[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted([name for name in dir() if not name.startswith("_")] + [*_LAZY, *_LAZY_OWNER])
__version__ = "0.1.0"
