import hashlib
import json
import random

import pytest

from tautloop.cayley import UnknownGenerator
from tautloop.complexes import SimpleGraph
from tautloop.davis import (
    DavisError,
    GroupAction,
    SemidirectEngine,
    build_J,
    check_action,
    choose_orbits,
    compute_N1,
    instance_from_json,
    instance_to_json,
    semiker_experiment,
    vertex_symbol,
)
from tautloop.presentations import GroupPresentation, Homomorphism
from tautloop.spectrum import spectrum
from tautloop.word_engine import Budget, CosetTable, verify_certificate


def cycle_graph(n):
    vs = [str(i) for i in range(n)]
    return SimpleGraph.build(vs, [(vs[i], vs[(i + 1) % n]) for i in range(n)])


def zn_pres(n, sym="g"):
    return GroupPresentation.build([sym], [((sym, 1),) * n])


def rotation(n, shift, sym="g"):
    return {sym: {str(i): str((i + shift) % n) for i in range(n)}}


C12_Z3 = GroupAction.build(cycle_graph(12), zn_pres(3), rotation(12, 4))


def test_rotation_action_is_valid():
    report = check_action(C12_Z3)
    assert report.valid and report.relators_ok and report.free
    assert report.min_intra_orbit_distance == 4
    assert report.violations == ()


def test_close_orbits_are_rejected():
    ga = GroupAction.build(cycle_graph(6), zn_pres(3), rotation(6, 2))
    report = check_action(ga)
    assert not report.valid
    assert report.min_intra_orbit_distance == 2
    assert any("intra-orbit" in v for v in report.violations)


def test_fixed_point_breaks_freeness():
    path = SimpleGraph.build("abc", [("a", "b"), ("b", "c")])
    swap = {"g": {"a": "c", "b": "b", "c": "a"}}
    report = check_action(GroupAction.build(path, zn_pres(2), swap))
    assert report.relators_ok and not report.free
    assert any("fixed vertex" in v for v in report.violations)


def test_relators_are_checked():
    # rotation by 3 has order 4 on C12, so g^3 moves every vertex
    report = check_action(GroupAction.build(cycle_graph(12), zn_pres(3), rotation(12, 3)))
    assert not report.relators_ok and not report.valid
    assert any("moves vertex" in v for v in report.violations)


def test_edge_preservation_is_checked():
    g = SimpleGraph.build("abcd", [("a", "b"), ("c", "d")])
    perm = {"g": {"a": "a", "b": "c", "c": "b", "d": "d"}}
    report = check_action(GroupAction.build(g, zn_pres(2), perm))
    assert any("preserve edge" in v for v in report.violations)


def test_action_build_validation():
    with pytest.raises(DavisError):
        GroupAction.build(cycle_graph(3), zn_pres(2), {})
    bad = {"g": {str(i): "0" for i in range(3)}}
    with pytest.raises(DavisError):
        GroupAction.build(cycle_graph(3), zn_pres(2), bad)


def test_apply_word_composes_right_to_left():
    # g h acts as g after h
    ga = C12_Z3
    w = (("g", 1), ("g", 1))
    assert ga.apply_word(w, "0") == "8"
    assert ga.apply_word((("g", -1),), "0") == "8"


def test_choose_orbits_on_the_rotation():
    orbits = choose_orbits(C12_Z3)
    assert orbits.vprime == ("0", "1", "2", "3")
    assert set(orbits.eprime) == {("0", "1"), ("1", "2"), ("2", "3"), ("0", "11")}
    gu = orbits.gu_map()
    assert all(gu[v] == () for v in ("0", "1", "2", "3"))
    assert len(gu["11"]) == 1
    assert C12_Z3.apply_word(gu["11"], "11") in set(orbits.vprime)


def test_compute_N1():
    assert compute_N1(C12_Z3, choose_orbits(C12_Z3)) == 1
    big = GroupAction.build(cycle_graph(24), zn_pres(6), rotation(24, 4))
    assert compute_N1(big, choose_orbits(big)) == 1


def test_trivial_action_gives_plain_coxeter_presentation():
    edge = SimpleGraph.build("uv", [("u", "v")])
    z1 = zn_pres(1, "t")
    ga = GroupAction.build(edge, z1, {"t": {"u": "u", "v": "v"}})
    orbits = choose_orbits(ga)
    assert orbits.vprime == ("u", "v")
    assert compute_N1(ga, orbits) == 0
    pres = build_J(ga, orbits)
    # two involutions, one edge relator of length 4, plus the group relator
    assert len([r for r in pres.relators if len(r) == 2]) == 2
    assert len([r for r in pres.relators if len(r) == 4]) == 1


def test_build_J_relator_families_and_length_bound():
    orbits = choose_orbits(C12_Z3)
    pres = build_J(C12_Z3, orbits)
    assert set(pres.generators) == {vertex_symbol(v) for v in "0123"} | {"g"}
    involutions = [r for r in pres.relators if len(r) == 2]
    assert len(involutions) == 4
    n1 = compute_N1(C12_Z3, orbits)
    edge_relators = [r for r in pres.relators if any(s.startswith("w:") for s, _ in r) and len(r) > 2]
    assert len(edge_relators) == 4
    assert max(len(r) for r in edge_relators) == 4 * n1 + 4
    assert ((("g", 1),) * 3) in pres.relators


def test_semidirect_engine_relators_hold():
    orbits = choose_orbits(C12_Z3)
    pres = build_J(C12_Z3, orbits)
    eng = SemidirectEngine(C12_Z3)
    for r in pres.relators:
        assert eng.eval_word(r, orbits.vprime) == eng.identity


def test_semidirect_engine_associativity():
    orbits = choose_orbits(C12_Z3)
    eng = SemidirectEngine(C12_Z3)
    rng = random.Random(3)
    symbols = [vertex_symbol(v) for v in orbits.vprime] + ["g"]

    def random_element():
        w = tuple((rng.choice(symbols), rng.choice((1, -1))) for _ in range(rng.randrange(6)))
        w = tuple((s, 1 if s.startswith("w:") else e) for s, e in w)
        return eng.eval_word(w, orbits.vprime)

    for _ in range(40):
        a, b, c = random_element(), random_element(), random_element()
        assert eng.mul(eng.mul(a, b), c) == eng.mul(a, eng.mul(b, c))


def test_semidirect_engine_coxeter_generators_are_involutions():
    orbits = choose_orbits(C12_Z3)
    eng = SemidirectEngine(C12_Z3)
    for v in orbits.vprime:
        g = eng.gen_coxeter(v)
        assert eng.mul(g, g) == eng.identity
    with pytest.raises(DavisError):
        eng.eval_word(((vertex_symbol("5"), 1),), orbits.vprime)


def test_semidirect_engine_rejects_an_unknown_symbol():
    eng = SemidirectEngine(C12_Z3)
    for sym in ("h", "w:12"):
        with pytest.raises(UnknownGenerator):
            eng.normal_form(((sym, 1),))


def _j_generators():
    return [vertex_symbol(v) for v in choose_orbits(C12_Z3).vprime] + ["g"]


def test_spectrum_of_j_replays_and_is_taut_at_3_and_4():
    # The loops shorter than 4 are the g^3 triangles, and no loop of length
    # at most 4 is trivial in <V', g | g^3>: lengths 3 and 4 are taut.  Every
    # other length up to 7 is vacuous or holds a proof, and every claim replays.
    sp = spectrum(SemidirectEngine(C12_Z3), _j_generators(), 7)
    assert sp.lengths() == (3, 4)
    claims = [c for s in sp.statuses for c in s.claims]
    assert claims and all(verify_certificate(c.presentation, c.state) for c in claims)


def _criterion_10_pair(max_len):
    z6, z3 = zn_pres(6), zn_pres(3)
    ga_s = GroupAction.build(cycle_graph(24), z6, rotation(24, 4))
    ga_t = GroupAction.build(cycle_graph(12), z3, rotation(12, 4))
    quotient = Homomorphism.identity_on_generators(z6, z3)
    return semiker_experiment((ga_s, choose_orbits(ga_s)), (ga_t, choose_orbits(ga_t)), quotient, max_len)


def _full_collapse():
    z1 = zn_pres(1, "t")
    ga_t = GroupAction.build(cycle_graph(4), z1, {"t": {str(i): str(i) for i in range(4)}})
    quotient = Homomorphism.build(C12_Z3.group, z1, {"g": ()})
    return semiker_experiment((C12_Z3, choose_orbits(C12_Z3)), (ga_t, choose_orbits(ga_t)), quotient, 4)


# SHA-256 of the sorted JSON of each report, computed with the product that
# twisted each factor by ``GroupAction.apply_word``
@pytest.mark.parametrize("run, sha", [
    (lambda: _criterion_10_pair(6), "3020ea5a45fe72afde74c50049ca80d4691e7ae5d81607b65f653f534863f1bc"),
    (lambda: _criterion_10_pair(7), "da46a9a28399791b763921bfb9111d4140b3ea2e7302c79d4defe48eccd28411"),
    (_full_collapse, "47f3c1a90dfc24e7896cddc5770a1da0589625d53d8f2077d0b9da362c84aa04"),
], ids=["criterion-10-len-6", "criterion-10-len-7", "full-collapse"])
def test_frozen_semiker_bytes(run, sha):
    text = json.dumps(run().to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == sha


def test_frozen_instance_bytes():
    # SHA-256 of the JSON of C12 with Z/3 and its chosen orbits, pinned so that
    # the graph part, written by SimpleGraph.to_json, keeps these bytes
    text = json.dumps(instance_to_json(C12_Z3, choose_orbits(C12_Z3)))
    assert hashlib.sha256(text.encode()).hexdigest() == "0aaafaa56edb88e66d90370cd363b148b4b5ba92e13e1a79d7554555c95099f2"


def test_semiker_identity_quotient_is_vacuous():
    orbits = choose_orbits(C12_Z3)
    instance = (C12_Z3, orbits)
    hom = Homomorphism.identity_on_generators(C12_Z3.group, C12_Z3.group)
    report = semiker_experiment(instance, instance, hom, 3)
    assert report.passed and report.kernel_words_checked == 0
    assert report.n1 == 1 and report.n == 2


def test_semiker_full_collapse_passes_with_witnesses():
    # collapse the whole rotation group: the quotient graph is the 4-cycle
    # acted on trivially, and every kernel element of the product must be
    # matched by the rotation of length 1
    orbits_s = choose_orbits(C12_Z3)
    instance_s = (C12_Z3, orbits_s)
    z1 = zn_pres(1, "t")
    ga_t = GroupAction.build(
        cycle_graph(4), z1, {"t": {str(i): str(i) for i in range(4)}}
    )
    orbits_t = choose_orbits(ga_t)
    instance_t = (ga_t, orbits_t)
    hom = Homomorphism.build(C12_Z3.group, z1, {"g": ()})
    report = semiker_experiment(instance_s, instance_t, hom, 4)
    assert report.passed
    assert report.kernel_words_checked > 0
    assert report.samples and all(s["ok"] for s in report.samples)
    data = report.to_json()
    assert data["passed"] and data["N"] == 2


def _count_coset_tables(monkeypatch) -> list:
    """The core-alphabet size of every ``CosetTable`` built from now on."""
    built = []
    original = CosetTable.__init__

    def counted(self, n_core, *table):
        built.append(n_core)
        original(self, n_core, *table)

    monkeypatch.setattr(CosetTable, "__init__", counted)
    return built


def test_semiker_enumerates_each_group_once(monkeypatch):
    z6, z3 = zn_pres(6), zn_pres(3)
    ga_s = GroupAction.build(cycle_graph(24), z6, rotation(24, 4))
    ga_t = GroupAction.build(cycle_graph(12), z3, rotation(12, 4))
    built = _count_coset_tables(monkeypatch)
    instances = (ga_s, choose_orbits(ga_s)), (ga_t, choose_orbits(ga_t))
    report = semiker_experiment(*instances, Homomorphism.identity_on_generators(z6, z3), 6)
    assert report.passed and len(built) == 2


def test_an_action_enumerates_its_group_once_per_budget(monkeypatch):
    ga = GroupAction.build(cycle_graph(12), zn_pres(3), rotation(12, 4))
    budget = Budget(max_cosets=100)
    built = _count_coset_tables(monkeypatch)
    check_action(ga, budget)
    choose_orbits(ga, budget)
    SemidirectEngine(ga, budget)
    assert len(built) == 1
    check_action(ga)
    assert len(built) == 2


def test_instance_json_round_trip():
    orbits = choose_orbits(C12_Z3)
    data = instance_to_json(C12_Z3, orbits)
    ga2, orbits2 = instance_from_json(data)
    assert ga2 == C12_Z3
    assert orbits2.vprime == orbits.vprime
    assert set(orbits2.eprime) == set(orbits.eprime)
    assert orbits2.gu_map() == orbits.gu_map()
    ga3, orbits3 = instance_from_json({"action": data["action"]})
    assert orbits3.vprime == orbits.vprime


def test_semiker_rejects_a_negative_max_len():
    instance = (C12_Z3, choose_orbits(C12_Z3))
    hom = Homomorphism.identity_on_generators(C12_Z3.group, C12_Z3.group)
    with pytest.raises(ValueError, match="^max_len must be nonnegative, got -1$"):
        semiker_experiment(instance, instance, hom, -1)


def test_an_unknown_generator_does_not_act():
    assert C12_Z3.apply_word((("g", 1),), "0") == "4"
    with pytest.raises(DavisError, match="^unknown generator 'h'$"):
        C12_Z3.apply_word((("h", 1),), "0")
