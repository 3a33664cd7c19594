import hashlib
import itertools
import json
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tautloop import cayley, word_engine
from tautloop.cayley import (
    BBOracle,
    CosetTableOracle,
    FreeGroupOracle,
    RaagOracle,
    RacgOracle,
    ZModOracle,
    closed_walks,
)
from tautloop.complexes import SimpleGraph, edge_symbol, flag_completion, pi1_presentation
from tautloop.presentations import GroupPresentation, build_RACG, truncated_presentation
from tautloop.spectrum import (
    NOT_RELATED,
    NOT_TAUT,
    RELATED,
    TAUT,
    UNKNOWN,
    UNKNOWN_BEYOND_HORIZON,
    KRelatedness,
    LengthSet,
    LengthStatus,
    Spectrum,
    k_related,
    spectrum,
    spectrum_of_graph,
    status_from_verdicts,
    taut_status,
)
from tautloop.word_engine import (
    PROVED,
    REFUTED,
    Budget,
    CosetEnumerationCertificate,
    NormalClosureDerivation,
    QuotientWitness,
    WordProblemEngine,
    verify_certificate,
)
from tautloop.words import canonical_cyclic

import per_letter_shortcuts
import per_loop_spectrum
import whole_ball_reference

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

spectrum_mod = sys.modules["tautloop.spectrum"]

BUDGET = Budget(max_cosets=300, max_deductions=20_000, max_search_depth=2)


def graph(vs, edges):
    return SimpleGraph.build(vs, edges)


def cycle_graph(n):
    vs = [str(i) for i in range(n)]
    return graph(vs, [(vs[i], vs[(i + 1) % n]) for i in range(n)])


def complete_graph(n):
    vs = [str(i) for i in range(n)]
    return graph(vs, [(a, b) for i, a in enumerate(vs) for b in vs[i + 1 :]])


# ---------------------------------------------------------------------------
# taut_status over equality oracles
# ---------------------------------------------------------------------------


def test_cyclic_group_is_taut_exactly_at_its_order():
    oracle = ZModOracle(5)
    assert taut_status(oracle, ["t"], 5, BUDGET).status == TAUT
    short = taut_status(oracle, ["t"], 4, BUDGET)
    assert short.status == NOT_TAUT and short.vacuous


def test_cyclic_group_double_length_is_filled_by_the_short_loop():
    # the length-10 loop around Z/5 twice dies once the 5-loop is a relator
    status = taut_status(ZModOracle(5), ["t"], 10, BUDGET)
    assert status.status == NOT_TAUT and not status.vacuous
    assert all(c.state.proved for c in status.claims)


def test_a_length_is_vacuous_exactly_when_it_has_no_claims():
    # no claims is not taut; any claims decide the status by their verdicts
    assert status_from_verdicts([]) == NOT_TAUT
    assert status_from_verdicts([PROVED, PROVED]) == NOT_TAUT
    assert status_from_verdicts([PROVED, REFUTED]) == TAUT
    assert status_from_verdicts([PROVED, UNKNOWN]) == UNKNOWN
    assert LengthStatus(3, NOT_TAUT).vacuous
    status = taut_status(ZModOracle(5), ["t"], 10, BUDGET)
    assert status.claims and not status.vacuous


def test_free_group_spectrum_is_empty():
    sp = spectrum(FreeGroupOracle(["a", "b"]), ["a", "b"], 5, BUDGET)
    assert sp.lengths(TAUT) == ()
    assert all(s.vacuous for s in sp.statuses)


def test_klein_cayley_graph_spectrum():
    # the Cayley graph of the order-four Coxeter group on one edge is a
    # 4-cycle: taut at 4 and nowhere else within the horizon
    oracle = RacgOracle(graph("uv", [("u", "v")]))
    sp = spectrum(oracle, ["u", "v"], 6, BUDGET)
    assert sp.lengths(TAUT) == (4,)
    assert sp.status_of(4).claims[0].state.refuted


def test_taut_status_rejects_degenerate_lengths():
    with pytest.raises(ValueError):
        taut_status(ZModOracle(5), ["t"], 2, BUDGET)


def test_spectrum_json_and_csv():
    sp = spectrum(ZModOracle(4), ["t"], 4, BUDGET)
    data = sp.to_json()
    assert data["horizon"] == 4
    assert [s["length"] for s in data["statuses"]] == [3, 4]
    assert sp.dumps() == sp.dumps()
    csv = sp.to_csv()
    assert csv.splitlines()[0] == "length,status,claims"
    with pytest.raises(KeyError):
        sp.status_of(99)


# ---------------------------------------------------------------------------
# finite-graph entry point
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_cycle_graph_spectrum_is_the_girth(n):
    sp = spectrum_of_graph(cycle_graph(n), n, BUDGET)
    assert sp.lengths(TAUT) == (n,)


def test_tree_spectrum_is_empty():
    tree = graph("abcd", [("a", "b"), ("b", "c"), ("b", "d")])
    sp = spectrum_of_graph(tree, 6, BUDGET)
    assert sp.lengths(TAUT) == ()
    assert all(s.vacuous for s in sp.statuses)


def test_complete_graph_has_four_triangles_and_spectrum_three():
    k4 = complete_graph(4)
    nbrs = {v: [(u, ()) for u in k4.neighbors(v)] for v in k4.vertices}
    assert len(closed_walks(nbrs, 3, k4.vertices)) == 4
    sp = spectrum_of_graph(k4, 4, BUDGET)
    assert sp.lengths(TAUT) == (3,)
    # once the triangles are filled the 4-cycles are contractible
    assert sp.status_of(4).status == NOT_TAUT and not sp.status_of(4).vacuous


def test_disconnected_graph_rejected():
    with pytest.raises(ValueError):
        spectrum_of_graph(graph("abcd", [("a", "b"), ("c", "d")]), 4, BUDGET)


def test_empty_graph_rejected_as_disconnected():
    with pytest.raises(ValueError, match="connected graph"):
        spectrum_of_graph(graph([], []), 4, BUDGET)


def test_theta_graph_spectrum():
    # two 4-cycles sharing a path, and the outer 6-cycle is their product
    theta = graph(
        "012345",
        [("0", "1"), ("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("5", "0"),
         ("1", "4")],
    )
    sp = spectrum_of_graph(theta, 6, BUDGET)
    assert sp.lengths(TAUT) == (4,)
    assert sp.status_of(6).status == NOT_TAUT


def test_spectrum_to_length_set():
    sp = spectrum_of_graph(cycle_graph(5), 7, BUDGET)
    ls = sp.to_length_set()
    assert ls.elements == (5,) and ls.horizon == 7

    partial = Spectrum(
        (
            LengthStatus(3, TAUT),
            LengthStatus(4, "unknown"),
            LengthStatus(5, TAUT),
        ),
        5,
    )
    ls2 = partial.to_length_set()
    assert ls2.elements == (3,) and ls2.horizon == 3


# ---------------------------------------------------------------------------
# shortcut filter
# ---------------------------------------------------------------------------


def generalized_petersen(n, k):
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, n + i) for i in range(n)]
    edges += [(n + i, n + (i + k) % n) for i in range(n)]
    return graph([str(i) for i in range(2 * n)], [(str(a), str(b)) for a, b in edges])


HEAWOOD = graph(
    [str(i) for i in range(14)],
    [(str(i), str((i + 1) % 14)) for i in range(14)]
    + [(str(i), str((i + 5) % 14)) for i in range(0, 14, 2)],
)
CUBE = graph(
    [str(i) for i in range(8)],
    [(str(a), str(a ^ (1 << b))) for a in range(8) for b in range(3) if a < a ^ (1 << b)],
)
K33 = graph("abcxyz", [(u, v) for u in "abc" for v in "xyz"])

# length -> (status, claims), frozen from the engine-only computation; where
# every loop is a simple cycle the counts are the known cycle counts
# (Petersen: ten 6-cycles, fifteen 8-cycles, twenty 9-cycles; Heawood:
# twenty-one 8-cycles, eighty-four 10-cycles; the cube: sixteen 6-cycles)
GRAPH_SPECTRA = {
    "petersen": (
        generalized_petersen(5, 2),
        {5: (TAUT, 1), 6: (NOT_TAUT, 10), 8: (NOT_TAUT, 15), 9: (NOT_TAUT, 20),
         10: (NOT_TAUT, 72)},
    ),
    "heawood": (HEAWOOD, {6: (TAUT, 1), 8: (NOT_TAUT, 21), 10: (NOT_TAUT, 84)}),
    "mobius-kantor": (
        generalized_petersen(8, 3),
        {6: (TAUT, 1), 8: (NOT_TAUT, 30), 10: (NOT_TAUT, 96)},
    ),
    "cube": (CUBE, {4: (TAUT, 1), 6: (NOT_TAUT, 16), 8: (NOT_TAUT, 24), 10: (NOT_TAUT, 120)}),
    "K4": (
        complete_graph(4),
        {3: (TAUT, 1), 4: (NOT_TAUT, 3), 6: (NOT_TAUT, 10), 7: (NOT_TAUT, 12),
         8: (NOT_TAUT, 12), 9: (NOT_TAUT, 32), 10: (NOT_TAUT, 60)},
    ),
    "K33": (K33, {4: (TAUT, 1), 6: (NOT_TAUT, 6), 8: (NOT_TAUT, 45), 10: (NOT_TAUT, 90)}),
}


@pytest.fixture
def engine_words(monkeypatch):
    """The words the word-problem engine is asked about, in order."""
    asked = []
    original = WordProblemEngine.is_trivial

    def counted(self, w):
        asked.append(w)
        return original(self, w)

    monkeypatch.setattr(WordProblemEngine, "is_trivial", counted)
    return asked


def assert_statuses(sp, frozen, asked):
    """Statuses as frozen (lengths not listed have no loops), every claim
    replays, and every claim the engine did not make is a derivation of at
    most two insertions."""
    for s in sp.statuses:
        status, n_claims = frozen.get(s.length, (NOT_TAUT, 0))
        assert (s.length, s.status, len(s.claims)) == (s.length, status, n_claims)
        assert s.vacuous == (n_claims == 0)
        for claim in s.claims:
            assert verify_certificate(claim.presentation, claim.state)
            if claim.word not in asked:
                cert = claim.state.certificate
                assert isinstance(cert, NormalClosureDerivation) and len(cert.steps) <= 2


@pytest.mark.parametrize("name", sorted(GRAPH_SPECTRA))
def test_graph_spectra_with_the_shortcut_filter(name, engine_words):
    g, frozen = GRAPH_SPECTRA[name]
    assert_statuses(spectrum_of_graph(g, 10), frozen, engine_words)


def test_racg_c5_spectrum_to_eight_asks_the_engine_once(engine_words):
    c5 = cycle_graph(5)
    sp = spectrum(RacgOracle(c5), list(c5.vertices), 8)
    assert_statuses(sp, {4: (TAUT, 1), 6: (NOT_TAUT, 15), 8: (NOT_TAUT, 150)}, engine_words)
    # only the first square, which is taut, needs the engine
    assert engine_words == [sp.status_of(4).claims[0].word]


def test_racg_c5_square_is_refuted_in_s3_without_an_enumeration():
    # The square 0 1 0- 1- is asked in the free group on 01234, as shorter
    # loops give no relators.  Degree 2 is abelian and kills it.  In S3, in
    # itertools.permutations order, 0 takes the first non-identity
    # permutation, (0,2,1); 1 must not commute with it, and the first such
    # is (1,0,2); the rest stay the identity.  The group is infinite, so no
    # coset table of it completes and none is started.
    c5 = cycle_graph(5)
    with mock.patch.object(word_engine, "todd_coxeter", wraps=word_engine.todd_coxeter) as tc:
        sp = spectrum(RacgOracle(c5), list(c5.vertices), 7)
    assert tc.call_count == 0 and sp.lengths() == (4,)
    (claim,) = sp.status_of(4).claims
    square = (("0", 1), ("1", 1), ("0", -1), ("1", -1))
    identity = (0, 1, 2)
    images = (("0", (0, 2, 1)), ("1", (1, 0, 2)), ("2", identity), ("3", identity), ("4", identity))
    assert claim.word == square and claim.presentation.relators == ()
    assert claim.state.refuted and claim.state.certificate == QuotientWitness(3, images, square)


def test_cube_spectrum_still_decides_by_enumeration():
    # the squares fill the cube into a sphere: the length-6 group is finite
    with mock.patch.object(word_engine, "todd_coxeter", wraps=word_engine.todd_coxeter) as tc:
        sp = spectrum_of_graph(CUBE, 10)
    certs = [c.state.certificate for s in sp.statuses for c in s.claims]
    assert tc.call_count == 1
    assert sum(isinstance(c, CosetEnumerationCertificate) for c in certs) == 4


P4 = graph("0123", [("0", "1"), ("1", "2"), ("2", "3")])
# poles 0 and 1 joined by paths of lengths 2, 3 and 2
THETA = graph("012345", [("0", "2"), ("2", "1"), ("0", "3"), ("3", "4"), ("4", "1"), ("0", "5"), ("5", "1")])
OCTAHEDRON = graph("012345", [(a, b) for a in "012345" for b in "012345" if a < b and int(b) - int(a) != 3])
PENTAGON_WITH_CHORD = graph("01234", [("0", "1"), ("1", "2"), ("2", "3"), ("3", "4"), ("4", "0"), ("0", "2")])
C4_EDGE_GENS = [edge_symbol(u, v) for u, v in cycle_graph(4).sorted_edges()]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def assert_derived_bytes(make, old_sha, new_sha):
    """The spectrum that ``make`` computes, in report format 2, equals the
    per-loop reference's format-1 report, pinned at ``old_sha``, with the later
    claims of each repeated cyclic word dropped and each length's presentation
    moved up to the length; its own bytes are pinned at ``new_sha``."""
    with per_loop_spectrum.per_loop():
        reference = per_loop_spectrum.format1(make())
    assert _sha(per_loop_spectrum.dumps(reference)) == old_sha
    text = make().dumps()
    assert text == per_loop_spectrum.dumps(per_loop_spectrum.to_format2(reference))
    assert _sha(text) == new_sha


# For a spectrum: the SHA-256 of the per-loop reference's format-1 report,
# computed while the per-length rule still took bare loop words, and that of
# the format-2 Spectrum.dumps() derived from it.  For pi1_presentation(...):
# the SHA-256 of its dumps(), computed while it still rewrote its triangles
# itself.
@pytest.mark.parametrize("make, shas", [
    (lambda: spectrum_of_graph(generalized_petersen(5, 2), 10),
     ("e1cda1b6bca2b2f82b8b48c746fe4affba90035c087c5440d51b87786e326f3d",
      "a37f1bfe0bfff7abac8efa4a8cf82b659b82428d608779c1cfb0d626dbd42f28")),
    (lambda: spectrum_of_graph(HEAWOOD, 10),
     ("c0c1e04f29c5f2542d9c1d94a98afc4a8fc69e3c59020b00cad1dc6ad5c165d6",
      "9f2b9d9f21aa9a79cff09fb767e5c25a963d19dc1c49be31f6322300f4801434")),
    (lambda: spectrum_of_graph(generalized_petersen(8, 3), 10),
     ("bf00346465cacde255cb1676d0def40ca234be7993e88035d828f38e7485105c",
      "9ae241667f152e43b2e004a0637090d606bb2a7c0eb2347ae673bf7daadd29e9")),
    (lambda: spectrum_of_graph(CUBE, 10),
     ("3b2f59098e500fa2c98273a631ccc1c2a103693a185cedc2afccf814da3c4152",
      "a7f2e98962d1bd1b965c3a77a876f8b4dde42d89f01dc15ce1a5b3a2d7058cf3")),
    (lambda: spectrum_of_graph(complete_graph(4), 8),
     ("aee02a4d42057fff3ea1ade742bc909bee0e0619b3db997b07e537076ef1fdaa",
      "e745e0ea286e0ca442624de31612463665535006d1189630073f609a6fc1cf3f")),
    (lambda: spectrum_of_graph(K33, 8),
     ("5e37d1b4417ba2e7beb058bb62aab12075ffe68d895c434ea282007fcf14caad",
      "559776c4b1fd4a6b68e7816e712c79b90b3d608f4b73d9a3b2a40841572316fa")),
    (lambda: spectrum_of_graph(THETA, 8),
     ("acf4852f2a5127c8b75f830287c82f8ae7aa2373757cf27cc36d916b0e3e993c",
      "b09bf1af6e5e651d29df6a51c3ca2622d63bccef8faac2a062e3446a99e3a647")),
    (lambda: spectrum(RacgOracle(cycle_graph(4)), list("0123"), 7),
     ("7f60e382798f4a537f4802f13e8a2946c74632bac67dbfebcd48c72ca4b4a84a",
      "5ece6c69ebff1a5c8be9e093b2d10914b7d33725cc35fd269e7933954887a75d")),
    (lambda: spectrum(RacgOracle(cycle_graph(5)), list("01234"), 7),
     ("557cbc2b4f6a4d13f48ff95ec6d3c76052b321f32b6fc272c156421b612ce2e3",
      "d14b1309e770e067d4bd86c69dcaadfe786fb5de4b653b1352dc8764f5f4419f")),
    (lambda: spectrum(RacgOracle(P4), list("0123"), 7),
     ("fb3bfb7b38ba9a8e2df513653dbfaf6f0a4f5d0ed1cb46232336dca2fb6f4501",
      "ce5337acaee436a23d559f32e51ac66e131d38083cf1bc80761a3a277dab66d6")),
    (lambda: spectrum(RaagOracle(flag_completion(cycle_graph(4))), list("0123"), 6),
     ("f9bdcba31c6a441192753ab8466a89cae73def23502e7dfe235267e877becaad",
      "1f4e0f8b71bf7fb1a7285762dff6c32461f066c351f1cd8141c0eb005a4935da")),
    (lambda: spectrum(BBOracle(flag_completion(cycle_graph(4))), C4_EDGE_GENS, 6),
     ("6b69fbb6ca9632b9e15a7745525123588127694a5349fd139053ed62f814a77c",
      "8b5fb151377ffa39d4e462a2b11c3bb381c67f6165aadaa5dd0bec97657cbc5c")),
    (lambda: pi1_presentation(flag_completion(cycle_graph(4))),
     ("bf50521d3a8f383c8923df3abd099b69397e226c44a301de1ed6649ee5537730",)),
    (lambda: pi1_presentation(flag_completion(K33)),
     ("a17bb5958100f0460d361b6dc54ae75cc4b8025688d1804c46feb82cd2d65eb7",)),
    (lambda: pi1_presentation(flag_completion(OCTAHEDRON)),
     ("f8f38b7020934ca724bd24b5eb7df9130134a6572d2ffaec26f9d3f213d1cc8d",)),
    (lambda: pi1_presentation(flag_completion(PENTAGON_WITH_CHORD)),
     ("0abd6e6c397d3b4a9918276a6ff19cd37e7c7ca7e2fd4b0e418d1ce8246312c0",)),
], ids=[
    "petersen-10", "heawood-10", "mobius-kantor-10", "cube-10", "K4-8", "K33-8", "theta-8",
    "racg-c4-7", "racg-c5-7", "racg-p4-7", "raag-c4-6", "bb-c4-6",
    "pi1-c4", "pi1-K33", "pi1-octahedron", "pi1-pentagon-chord",
])
def test_frozen_spectrum_bytes(make, shas):
    if len(shas) == 2:
        assert_derived_bytes(make, *shas)
    else:
        assert _sha(make().dumps()) == shas[0]


def test_raag_c4_spectrum_to_eight(engine_words):
    # the engine alone did not finish this in 25 minutes; the counts are those
    # of the loop enumeration, and every claim replays
    c4 = cycle_graph(4)
    sp = spectrum(RaagOracle(flag_completion(c4)), list(c4.vertices), 8)
    # one claim per cyclic word: 144 loops and 24 words at 6, 3,184 and 424 at 8
    assert_statuses(sp, {4: (TAUT, 1), 6: (NOT_TAUT, 24), 8: (NOT_TAUT, 424)}, engine_words)
    assert len(engine_words) == 1


@pytest.mark.parametrize("name", ["raag-c4", "bb-c4", "coset-pair", "petersen", "cube"])
def test_a_length_claims_each_cyclic_word_once_over_one_presentation(name):
    """No two claims of a length share a canonical cyclic form, and in memory
    every claim of a length holds the one presentation its report writes;
    a graph's closed walks are one per cyclic word without the ball's step."""
    if name in GRAPH_SPECTRA:
        sp = spectrum_of_graph(GRAPH_SPECTRA[name][0], 10)
    else:
        oracle, gens, pairs, horizon = _grown_case(name)
        sp = spectrum(oracle, gens, horizon, BUDGET, pairs)
    for s in sp.statuses:
        forms = [canonical_cyclic(c.word) for c in s.claims]
        assert len(set(forms)) == len(forms)
        assert all(c.presentation is s.claims[0].presentation for c in s.claims)
        assert s.to_json().get("presentation") == (s.claims[0].presentation.to_json() if s.claims else None)


def test_shortcut_derivation_needs_the_piece_relator():
    c5 = cycle_graph(5)
    status = taut_status(RacgOracle(c5), list(c5.vertices), 6)
    claim = status.claims[0]
    cert = claim.state.certificate
    assert isinstance(cert, NormalClosureDerivation) and len(cert.steps) == 2
    piece = canonical_cyclic(cert.steps[0][1])
    pres = claim.presentation
    kept = [r for r in pres.relators if canonical_cyclic(r) != piece]
    assert len(kept) == len(pres.relators) - 1
    without = GroupPresentation.build(pres.generators, kept)
    assert verify_certificate(pres, claim.state)
    assert not verify_certificate(without, claim.state)


def _seeded_graph_spectra():
    """The graph-spectra benchmark inputs at seeds 1-3 and 4001, each graph's
    vertices relabelled by the seed."""
    return {
        f"{job.label}-seed{seed}": (lambda args=job.args: spectrum_of_graph(*args))
        for seed in (1, 2, 3, 4001)
        for job in workloads.build("graph-spectra", seed)
    }


def _other_spectrum(name, horizon):
    oracle, gens, pairs = OTHER_ORACLES[name]()
    return spectrum(oracle, gens, horizon, BUDGET, pairs)


# the graph and oracle spectra that the one-pass loop enumerator was checked
# on, and RAAG(C4) to horizon 8
SHORTCUT_CASES = {
    **{name: (lambda g=g: spectrum_of_graph(g, 10)) for name, (g, _) in GRAPH_SPECTRA.items()},
    **_seeded_graph_spectra(),
    "theta-8": lambda: spectrum_of_graph(THETA, 8),
    **{
        f"racg-{name}-7": (lambda g=g: spectrum(RacgOracle(g), list(g.vertices), 7))
        for name, g in (("c4", cycle_graph(4)), ("c5", cycle_graph(5)), ("p4", P4))
    },
    **{
        f"{kind}-c{n}-6": (lambda kind=kind, n=n: spectrum(*_grown_case(f"{kind}-c{n}")[:2], 6, BUDGET))
        for kind in ("raag", "bb")
        for n in (4, 5)
    },
    **{
        f"{name}-10": (lambda name=name: _other_spectrum(name, 10))
        for name in ("free-pair", "zmod5")
    },
    **{
        f"racg-c5-taut-{l}": (lambda l=l: Spectrum((taut_status(RacgOracle(cycle_graph(5)), list("01234"), l),), l))
        for l in range(3, 8)
    },
    "raag-c4-8": lambda: spectrum(RaagOracle(flag_completion(cycle_graph(4))), list("0123"), 8),
}


@pytest.mark.parametrize("name", sorted(SHORTCUT_CASES))
def test_shortcut_proofs_equal_the_per_letter_reference(name):
    """Shortcut proofs searched on signed-index codes give every claim the
    certificate that the reference, working on symbol letters, gives it, and
    every certificate replays."""
    make = SHORTCUT_CASES[name]
    sp = make()
    with per_letter_shortcuts.per_letter():
        reference = make()
    claims = [c for s in sp.statuses for c in s.claims]
    assert [c.state for c in claims] == [c.state for s in reference.statuses for c in s.claims]
    assert sp.dumps() == reference.dumps()
    assert all(verify_certificate(c.presentation, c.state) for c in claims)


def test_unknown_length_keeps_its_claims():
    # the cube's sixteen 6-cycles: twelve go round two adjacent faces and
    # have a shortcut; the four that cut it in half are isometric, and this
    # budget cannot decide them
    budget = Budget(max_cosets=1, max_deductions=1, max_search_depth=1)
    status = spectrum_of_graph(CUBE, 6, budget).status_of(6)
    assert status.status == UNKNOWN
    verdicts = [c.state.status for c in status.claims]
    assert len(verdicts) == 16
    assert verdicts.count("unknown") == 4 and verdicts.count("proved") == 12
    assert all(verify_certificate(c.presentation, c.state) for c in status.claims)


# ---------------------------------------------------------------------------
# loop words on the core alphabet of formal-inverse pairs
# ---------------------------------------------------------------------------


def _s3_with_a_pair(gens):
    """S3 = <A, b | A^3, b^2, (Ab)^2> with a = A^-1, to horizon 6, over gens."""
    oracle, _, pairs, horizon = _grown_case("coset-pair")
    return spectrum(oracle, gens, horizon, inverse_pairs=pairs)


@pytest.mark.parametrize("gens", [["A", "a", "b"], ["a", "A", "b"]])
def test_spectrum_over_a_pair_in_either_order_replays(gens):
    # the dropped member a first in gens: the loop words use a, which the
    # core alphabet of the truncated presentations does not have
    sp = _s3_with_a_pair(gens)
    assert sp.lengths() == (3, 4)
    claims = [c for s in sp.statuses for c in s.claims]
    assert len(claims) == 6  # the 11 loops are 6 cyclic words
    assert all(verify_certificate(c.presentation, c.state) for c in claims)


@pytest.mark.parametrize("pairs", [[("a", "a")], [("a", "c"), ("b", "c")]])
def test_free_oracle_and_spectrum_refuse_a_malformed_pairing(pairs):
    with pytest.raises(ValueError):
        FreeGroupOracle(["a", "b", "c"], pairs)
    with pytest.raises(ValueError):
        spectrum(FreeGroupOracle(["a", "b", "c"]), ["a", "b", "c"], 3, inverse_pairs=pairs)


def test_spectrum_over_a_pair_with_the_kept_member_first_keeps_its_bytes():
    assert_derived_bytes(
        lambda: _s3_with_a_pair(["A", "a", "b"]),
        "38120fc88a025a585d7c009c5d040e049ba3429aad31587c32f5f083929d7b0c",
        "a2f2f5f09fd50d43f0a23b47040a23d98e0f6ad23db304469c8718e95571b587",
    )


# ---------------------------------------------------------------------------
# the grown presentations, against the one-shot truncated presentation
# ---------------------------------------------------------------------------


def _grown_case(name):
    """(oracle, generators, inverse pairs, horizon) of a named case."""
    if name == "free-pair":
        return (*OTHER_ORACLES["free-pair"](), 6)
    if name == "coset-pair":  # S3, with A the kept member of a formal-inverse pair
        a, b = ("A", 1), ("b", 1)
        pres = GroupPresentation.build(["A", "a", "b"], [(a, a, a), (b, b), (a, b) * 2], [("A", "a")])
        return CosetTableOracle(pres), ["A", "a", "b"], (("A", "a"),), 6
    if name == "coset-pair-dropped-first":  # the same, with the dropped member a first
        oracle, _, pairs, horizon = _grown_case("coset-pair")
        return oracle, ["a", "A", "b"], pairs, horizon
    kind, n = name.split("-c")
    g = cycle_graph(int(n))
    if kind == "racg":
        return RacgOracle(g), list(g.vertices), (), 7
    if kind == "raag":
        return RaagOracle(flag_completion(g)), list(g.vertices), (), 6
    return BBOracle(flag_completion(g)), [edge_symbol(u, v) for u, v in g.sorted_edges()], (), 6


@pytest.mark.parametrize("name", [
    "petersen", "heawood", "mobius-kantor", "cube", "racg-c4", "racg-c5", "raag-c4", "raag-c5",
    "bb-c4", "bb-c5", "free-pair", "coset-pair", "coset-pair-dropped-first",
])
def test_grown_presentations_equal_the_one_shot_presentation(name, monkeypatch):
    """Each claim's presentation, grown across the lengths, equals the one
    built from scratch from the loops shorter than its length, relators in
    the same order, and so do its encoded relators and their variants."""
    seen = []
    original = spectrum_mod._statuses

    def recorded(gens, inverse_pairs, loops, *args):
        seen.append((gens, inverse_pairs, loops))
        return original(gens, inverse_pairs, loops, *args)

    monkeypatch.setattr(spectrum_mod, "_statuses", recorded)
    if name in GRAPH_SPECTRA:
        sp = spectrum_of_graph(GRAPH_SPECTRA[name][0], 10)
    else:
        oracle, gens, pairs, horizon = _grown_case(name)
        sp = spectrum(oracle, gens, horizon, BUDGET, pairs)
    (gens, pairs, loops), = seen
    claimed = [s for s in sp.statuses if s.claims]
    assert claimed or name == "free-pair"  # a free group has no loops
    for s in claimed:
        shorter = [w for w, c in loops if len(c) < s.length]
        want = truncated_presentation(gens, shorter, s.length, pairs)
        for claim in s.claims:
            got = claim.presentation
            assert got == want and got.relators == want.relators
            assert got.core_relators() == want.core_relators()
            assert list(got.relator_variants()) == list(want.relator_variants())


# ---------------------------------------------------------------------------
# the ball a spectrum builds, against the whole ball
# ---------------------------------------------------------------------------

# name -> (oracle, generators, inverse pairs)
OTHER_ORACLES = {
    "free": lambda: (FreeGroupOracle(["a", "b"]), ["a", "b"], ()),
    "free-pair": lambda: (FreeGroupOracle(["a", "b", "A"], [("a", "A")]), ["a", "b", "A"], (("a", "A"),)),
    "zmod0": lambda: (ZModOracle(0), ["t"], ()),
    "zmod4": lambda: (ZModOracle(4), ["t"], ()),
    "zmod5": lambda: (ZModOracle(5), ["t"], ()),
    "zmod7": lambda: (ZModOracle(7), ["t"], ()),
    "klein": lambda: (CosetTableOracle(build_RACG(graph("uv", [("u", "v")]))), ["u", "v"], ()),
}


def _tree_ball_size(branches: int, radius: int) -> int:
    """Vertices of a ball in the tree where every vertex has ``branches``
    neighbours, a bound for every Cayley ball with as many moves."""
    return 1 + sum(branches * (branches - 1) ** i for i in range(radius))


@st.composite
def _reach_cases(draw):
    """(``spectrum`` or ``taut_status`` with its whole-ball reference, oracle
    factory, horizon or length).

    The oracle is right-angled Coxeter, right-angled Artin or Bestvina-Brady
    of a random graph on at most 5 vertices, at horizons 3 to 9 as far as the
    reference's ball stays within 4,000 vertices (and to 7 past 5 edges), or
    one of ``OTHER_ORACLES`` at horizons 0 to 10; ``taut_status`` takes
    lengths 3 to 7 within those."""
    kind = draw(st.sampled_from(("racg", "raag", "bb", "other")))
    if kind == "other":
        make, top = OTHER_ORACLES[draw(st.sampled_from(sorted(OTHER_ORACLES)))], 10
    else:
        vs = "01234"[: draw(st.integers(1, 5))]
        pairs = list(itertools.combinations(vs, 2))
        g = graph(vs, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
        gens = [edge_symbol(u, v) for u, v in g.sorted_edges()] if kind == "bb" else list(vs)
        make = {
            "racg": lambda: (RacgOracle(g), gens, ()),
            "raag": lambda: (RaagOracle(flag_completion(g)), gens, ()),
            "bb": lambda: (BBOracle(flag_completion(g)), gens, ()),
        }[kind]
        branches = len(gens) if kind == "racg" else 2 * len(gens)
        top = max(h for h in range(3, 10) if h == 3 or _tree_ball_size(branches, (h + 1) // 2 + 1) <= 4000)
        if len(g.edges) > 5:
            top = min(top, 7)  # past 7, a dense graph has thousands of loops
    if draw(st.booleans()):
        runs = (spectrum, whole_ball_reference.spectrum)
        return runs, make, draw(st.integers(0 if kind == "other" else 3, top))
    return (taut_status, whole_ball_reference.taut_status), make, draw(st.integers(3, min(top, 7)))


@settings(max_examples=100, deadline=None)
@given(case=_reach_cases())
def test_spectrum_equals_the_whole_ball_reference(case):
    """The ball trimmed to what the loops and their shortcuts reach gives the
    same bytes as the whole ball of radius (h + 1)//2 + 1 with its rim.

    Both sides ask the engine the same questions only if they find the same
    loops and shortcuts, which is what is compared; the unbudgeted finite
    quotient search is left out so that each engine call stays cheap, and the
    frozen spectra above cover it."""
    runs, make, h = case
    budget = Budget(max_cosets=100, max_deductions=5000, max_search_depth=1)
    got = []
    with mock.patch.object(word_engine, "finite_quotient_search", lambda *args: None):
        for run in runs:
            oracle, gens, pairs = make()
            result = run(oracle, gens, h, budget, pairs)
            got.append((result if isinstance(result, Spectrum) else Spectrum((result,), h)).dumps())
    assert got[0] == got[1]


@pytest.mark.parametrize("h", range(10))
def test_spectrum_builds_the_ball_of_radius_half_its_horizon(h):
    """A spectrum to horizon h builds the metric ball of radius h/2: radius
    h//2, with its rim edges exactly when h is odd; in the free group's tree
    that ball has a closed-form size."""
    real, built = cayley.build_ball, []

    def build_ball(oracle, gens, radius, *, _rim=True):
        ball = real(oracle, gens, radius, _rim=_rim)
        built.append((radius, _rim, len(ball.vertices)))
        return ball

    with mock.patch.object(cayley, "build_ball", build_ball):
        spectrum(FreeGroupOracle(["a", "b"]), ["a", "b"], h)
    assert built == [(h // 2, h % 2 == 1, _tree_ball_size(4, h // 2))]


# ---------------------------------------------------------------------------
# k-relatedness
# ---------------------------------------------------------------------------


def test_length_set_build_validation():
    assert LengthSet.build([3, 3, 1]).elements == (1, 3)
    with pytest.raises(ValueError):
        LengthSet.build([0])
    with pytest.raises(ValueError):
        LengthSet.build([9], horizon=8)
    assert LengthSet.build([5], horizon=8).to_json() == {
        "elements": [5],
        "horizon": 8,
    }


def test_k_related_examples():
    a = LengthSet.build([50])
    b = LengthSet.build([10])
    out = k_related(a, b, 3)  # threshold 17; 50 needs a companion in [17, 150]
    assert out.status == NOT_RELATED and out.witness == 50
    assert out.threshold == 17
    # with k = 7 the threshold 65 exceeds both lengths, vacuously related
    assert k_related(a, b, 7).status == RELATED


def test_k_related_identical_sets():
    s = LengthSet.build([5, 17, 40, 100])
    for k in (1, 2, 3):
        assert k_related(s, s, k).status == RELATED


def test_k_related_horizon_degrades_to_unknown():
    a = LengthSet.build([5], horizon=10)
    b = LengthSet.build([5])
    out = k_related(a, b, 1)  # threshold 5; membership above 10 is open
    assert out.status == UNKNOWN_BEYOND_HORIZON
    assert out.first_unverifiable == 11


def test_k_related_window_beyond_horizon():
    a = LengthSet.build([100])
    b = LengthSet.build([], horizon=50)
    out = k_related(a, b, 2)  # the window [50, 200] leaves the known range
    assert out.status == UNKNOWN_BEYOND_HORIZON
    assert out.first_unverifiable == 51


def test_k_related_validation_and_json():
    with pytest.raises(ValueError):
        k_related(LengthSet.build([]), LengthSet.build([]), 0)
    out = k_related(LengthSet.build([3]), LengthSet.build([3]), 2)
    assert KRelatedness(**out.to_json()) == out


length_sets = st.sets(st.integers(min_value=1, max_value=200), max_size=6).map(
    LengthSet.build
)


@settings(max_examples=150)
@given(length_sets, length_sets, st.integers(min_value=1, max_value=5))
def test_k_related_is_symmetric_on_full_sets(h1, h2, k):
    assert k_related(h1, h2, k).status == k_related(h2, h1, k).status


@settings(max_examples=150)
@given(length_sets, length_sets, st.integers(min_value=1, max_value=4))
def test_k_related_is_monotone_in_k(h1, h2, k):
    # a wider window and a higher threshold can only help
    if k_related(h1, h2, k).status == RELATED:
        assert k_related(h1, h2, k + 1).status == RELATED


# -- natural bounds and records' JSON ----------------------------------------


@pytest.mark.parametrize("call", [
    lambda: spectrum(ZModOracle(5), ["t"], -1),
    lambda: spectrum_of_graph(cycle_graph(5), -1),
], ids=["spectrum", "spectrum-of-graph"])
def test_a_negative_horizon_is_rejected(call):
    # it gave a spectrum of no lengths, {"format": 2, "horizon": -1, "statuses": []}
    with pytest.raises(ValueError, match="^horizon must be nonnegative, got -1$"):
        call()


@pytest.mark.parametrize("h1, h2, k, text", [
    (LengthSet.build([50]), LengthSet.build([10]), 3,
     '{"status": "not_related", "k": 3, "threshold": 17, "witness": 50, "first_unverifiable": null}'),
    (LengthSet.build([5, 17]), LengthSet.build([5, 17]), 2,
     '{"status": "related", "k": 2, "threshold": 10, "witness": null, "first_unverifiable": null}'),
    (LengthSet.build([5], horizon=10), LengthSet.build([5]), 1,
     '{"status": "unknown_beyond_horizon", "k": 1, "threshold": 5, "witness": null, "first_unverifiable": 11}'),
], ids=["not-related", "related", "beyond-horizon"])
def test_k_relatedness_json_bytes(h1, h2, k, text):
    # the keys in field order, the bytes written before the form became the field list
    assert json.dumps(k_related(h1, h2, k).to_json()) == text
