import dataclasses
import json
import math
import random
from unittest import mock

import pytest

import per_word_kernel_search
import unpruned_quotient_search
from tautloop import word_engine
from tautloop.complexes import EdgeLoop, OmegaSet, SimpleGraph, flag_completion
from tautloop.linalg import mat_vec
from tautloop.presentations import (
    GroupPresentation,
    Homomorphism,
    PresentationError,
    build_P,
    build_RAAG,
    exponent_vector,
)
from tautloop.word_engine import (
    BBImageHom,
    Budget,
    BudgetExceeded,
    CosetTable,
    FreeReductionCertificate,
    NormalClosureDerivation,
    QuotientWitness,
    TriState,
    WordProblemEngine,
    _abelian_coords,
    _abelian_data,
    _abelian_obstruction,
    _abelian_quotient,
    _dying_words,
    abelian_witness,
    certificate_from_json,
    finite_quotient_search,
    group_is_trivial,
    is_trivial,
    kernel_shortest_element,
    nontrivial_quotient_search,
    normal_closure_search,
    todd_coxeter,
    verify_certificate,
)

BUDGET = Budget(max_cosets=300, max_deductions=20_000, max_search_depth=3)


def w(spec):
    out = []
    for part in spec.split():
        if part.endswith("-"):
            out.append((part[:-1], -1))
        else:
            out.append((part, 1))
    return tuple(out)


def pres(gens, *relator_specs, pairs=()):
    return GroupPresentation.build(list(gens), [w(r) for r in relator_specs], pairs)


Z5 = pres("a", "a a a a a")
KLEIN = pres("vw", "v v", "w w", "v w v w")
S3 = pres("ab", "a a", "b b", "a b a b a b")
Q8 = pres(
    ["a", "b"], "a a a a", "a a b b", "b- a b a"
)
FREE2 = pres("ab")
TRIVIAL = pres("a", "a")


def order_of(p, budget=BUDGET):
    table = todd_coxeter(p, (), budget)
    assert isinstance(table, CosetTable) and table.complete
    return len(table.rows)


def test_enumeration_orders():
    assert order_of(Z5) == 5
    assert order_of(KLEIN) == 4
    assert order_of(S3) == 6
    assert order_of(Q8) == 8
    assert order_of(TRIVIAL) == 1


def test_enumeration_subgroup_index():
    z6 = pres("a", "a a a a a a")
    table = todd_coxeter(z6, [w("a a")], BUDGET)
    assert isinstance(table, CosetTable) and len(table.rows) == 2
    table = todd_coxeter(z6, [w("a a a")], BUDGET)
    assert isinstance(table, CosetTable) and len(table.rows) == 3


def test_enumeration_budget_exceeded_on_free_group():
    out = todd_coxeter(FREE2, (), Budget(max_cosets=100, max_deductions=5000))
    assert isinstance(out, BudgetExceeded)
    # with no relators every gap is closed by a definition, so the coset
    # budget runs out after exactly max_cosets of them, and the count says so
    assert out.definitions == 100


def test_enumeration_is_deterministic():
    h1 = todd_coxeter(S3, (), BUDGET).content_hash()
    h2 = todd_coxeter(S3, (), BUDGET).content_hash()
    assert h1 == h2


def test_table_structure():
    table = todd_coxeter(KLEIN, (), BUDGET)
    for g, perm in table.permutations().items():
        assert sorted(perm) == list(range(4))
    reps = table.element_words()
    assert reps[0] == ()
    assert sorted(len(r) for r in reps) == [0, 1, 1, 2]
    for c, rep in enumerate(reps):
        assert table.trace(0, rep) == c


def test_budget_validation():
    with pytest.raises(ValueError):
        Budget(max_cosets=0)
    assert Budget.from_json(BUDGET.to_json()) == BUDGET


def test_is_trivial_relator_of_raag():
    edge = flag_completion(SimpleGraph.build("xy", [("x", "y")]))
    raag = build_RAAG(edge)
    state = is_trivial(raag, w("x y x- y-"), BUDGET)
    assert state.proved
    assert verify_certificate(raag, state)


def test_is_trivial_in_order_two_group():
    p = pres("a", "a a")
    for word_, expect in ((w("a a a"), "refuted"), (w("a"), "refuted"), (w("a a"), "proved")):
        state = is_trivial(p, word_, BUDGET)
        assert state.status == expect
        assert verify_certificate(p, state)


def test_tri_state_shape():
    # [a,b]^12 dies in every permutation group of degree <= 4 (element orders
    # divide 12) and in the abelianization, so nothing resolves it here
    commutator = w("a b a- b-")
    word_ = commutator * 12
    st_unknown = is_trivial(
        FREE2, word_, Budget(max_cosets=5, max_deductions=50, max_search_depth=1)
    )
    assert st_unknown.unknown and st_unknown.certificate is None


@pytest.mark.parametrize("status, certificate", [
    ("proved", None),
    ("refuted", None),
    ("unknown", FreeReductionCertificate(())),
    ("bogus", FreeReductionCertificate(())),
    ("bogus", None),
])
def test_a_verdict_carries_a_certificate_exactly_when_conclusive(status, certificate):
    with pytest.raises(ValueError):
        TriState(status, certificate)
    data = {"status": status} if certificate is None else {"status": status, "certificate": certificate.to_json()}
    with pytest.raises(ValueError):
        TriState.from_json(data)


def test_a_verdict_reads_its_certificate_by_presence():
    with pytest.raises(KeyError):
        TriState.from_json({"status": "proved", "certificate": {}})
    assert TriState.from_json({"status": "unknown"}) == TriState("unknown")


def test_abelian_witness_on_free_generator():
    cert = abelian_witness(FREE2, w("a"))
    assert cert is not None and cert.degree == 2
    assert verify_certificate(FREE2, TriState("refuted", cert))


def test_finite_quotient_search_examples():
    assert finite_quotient_search(pres("a"), w("a")).degree == 2
    klein_w = finite_quotient_search(KLEIN, w("v w"))
    assert klein_w is not None and klein_w.degree <= 4
    assert finite_quotient_search(pres("a", "a a"), w("a a")) is None


def test_nontrivial_quotient_search():
    witness = nontrivial_quotient_search(KLEIN)
    assert witness is not None
    assert verify_certificate(KLEIN, TriState("refuted", witness))
    assert nontrivial_quotient_search(TRIVIAL) is None


def test_quotient_search_equals_the_unpruned_reference():
    """On seeded presentations with 2-5 generators and 0-3 relators of length
    at most 6, and words of length at most 8, both searches return the
    unpruned search's witness, or None where it does.  The degree cap is
    2-5, lowered until the unpruned search has at most 15,000 leaves."""
    rng = random.Random(20261019)

    def random_word(gens, length):
        return tuple((rng.choice(gens), rng.choice((1, -1))) for _ in range(length))

    found = 0
    for _ in range(300):
        n = rng.randint(2, 5)
        gens = "abcde"[:n]
        degree = rng.randint(2, 5)
        while math.factorial(degree) ** n > 15_000:
            degree -= 1
        relators = [random_word(gens, rng.randint(1, 6)) for _ in range(rng.randint(0, 3))]
        p = GroupPresentation.build(list(gens), relators)
        word_ = random_word(gens, rng.randint(0, 8))
        witness = finite_quotient_search(p, word_, degree)
        assert witness == unpruned_quotient_search.finite_quotient_search(p, word_, degree)
        assert nontrivial_quotient_search(p, degree) == (
            unpruned_quotient_search.nontrivial_quotient_search(p, degree)
        )
        found += witness is not None
    assert 150 <= found < 300


def test_is_trivial_runs_no_enumeration_with_a_free_abelian_factor():
    # a complete table of the trivial subgroup would list the elements of an
    # infinite group; the commutator dies in Z^2, so the quotient search
    # refutes it
    with mock.patch.object(word_engine, "todd_coxeter", wraps=todd_coxeter) as enumerate_:
        state = is_trivial(FREE2, w("a b a- b-"), BUDGET)
    assert enumerate_.call_count == 0
    assert state.refuted and isinstance(state.certificate, QuotientWitness)
    assert state.certificate.degree == 3
    assert verify_certificate(FREE2, state)


def test_group_is_trivial_runs_no_enumeration_with_a_free_abelian_factor():
    # Z^2 is infinite, so no coset table of it can complete; the refutation
    # is the degree-2 witness that the earlier code also returned after its
    # enumeration ran out of budget
    z2 = pres("ab", "a b a- b-")
    with mock.patch.object(word_engine, "todd_coxeter", wraps=todd_coxeter) as enumerate_:
        state = group_is_trivial(z2)
    assert enumerate_.call_count == 0
    assert json.dumps(state.to_json(), sort_keys=True) == (
        '{"certificate": {"degree": 2, "images": {"a": [0, 1], "b": [1, 0]}, '
        '"type": "quotient_witness", "word": [["b", 1]]}, "status": "refuted"}'
    )
    assert verify_certificate(z2, state)


def test_nontrivial_quotient_search_rejects_a_degree_past_the_cap():
    # raised before any permutation is built; the free group would otherwise
    # give a witness at degree 2
    with pytest.raises(ValueError, match="capped"):
        nontrivial_quotient_search(FREE2, word_engine.MAX_QUOTIENT_DEGREE + 1)


def test_check_relators_enumerates_the_target_once():
    # each relator of S3 dies in its abelianization Z/2, so each is decided
    # by the one coset table of the target
    hom = Homomorphism.identity_on_generators(S3, S3)
    with mock.patch.object(word_engine, "todd_coxeter", wraps=todd_coxeter) as enumerate_:
        states = hom.check_relators(BUDGET)
    assert enumerate_.call_count == 1
    assert states == tuple(is_trivial(S3, r, BUDGET) for r in S3.relators)
    assert all(s.proved and s.certificate.n_cosets == 6 for s in states)


def test_normal_closure_search_finds_conjugated_relator():
    p = pres("ab", "a a a")
    word_ = w("b a a a b-")
    cert = normal_closure_search(p, word_, BUDGET)
    assert cert is not None
    assert verify_certificate(p, TriState("proved", cert))


def test_group_is_trivial():
    assert group_is_trivial(TRIVIAL, BUDGET).proved
    state = group_is_trivial(KLEIN, BUDGET)
    assert state.refuted and verify_certificate(KLEIN, state)
    free_state = group_is_trivial(FREE2, Budget(max_cosets=50, max_deductions=2000))
    assert free_state.refuted  # any finite quotient separates a generator


def test_kernel_shortest_element_z_to_z3():
    p_s = pres("a")
    p_t = pres("a", "a a a")
    hom = Homomorphism.identity_on_generators(p_s, p_t)
    result = kernel_shortest_element(p_s, p_t, hom, 4, BUDGET)
    assert result.found and result.length == 3
    assert result.word in (w("a a a"), w("a- a- a-"))
    assert result.unknown_count == 0 and not result.minimal_up_to_unknowns


def test_kernel_shortest_element_identity_quotient():
    p = pres("a", "a a a a a")
    hom = Homomorphism.identity_on_generators(p, p)
    result = kernel_shortest_element(p, p, hom, 4, BUDGET)
    assert not result.found
    assert result.certified_lower_bound == 5


def test_kernel_search_rejects_any_quotient_but_the_identity():
    p_s = pres("ab")
    p_t = pres("ab", "a a a")
    swap = Homomorphism.build(p_s, p_t, {"a": w("b"), "b": w("a")})
    for quotient in (swap, "anything"):
        with pytest.raises(ValueError):
            kernel_shortest_element(p_s, p_t, quotient, 3, BUDGET)


C4_GRAPH = SimpleGraph.build("0123", [("0", "1"), ("1", "2"), ("2", "3"), ("3", "0")])
C4_OMEGA = OmegaSet((EdgeLoop(("0", "1", "2", "3")),))
KERNEL_BUDGET = Budget(max_cosets=200, max_deductions=20_000, max_search_depth=1)


def _c4_kernel_case(s_set, t_set, radius, with_hom=True):
    cx = flag_completion(C4_GRAPH)
    homs = (BBImageHom(cx),) if with_hom else ()
    return build_P(cx, C4_OMEGA, s_set), build_P(cx, C4_OMEGA, t_set), radius, homs


def _random_kernel_pair(rng):
    """A source with no relators and a target over the same symbols: 0-3 core
    generators in the source, each with a power relator of order 1-4 in the
    target or none (a free coordinate), sometimes a relator that mixes them,
    and sometimes a formal-inverse pair in the target only."""
    n = rng.randint(0, 3)
    gens = list("abc"[:n])
    symbols, pairs = gens[:], []
    if 1 <= n <= 2 and rng.random() < 0.5:
        symbols.append("A")
        pairs = [("a", "A")]
    relators = [" ".join([g] * order) for g in gens if (order := rng.choice((None, 1, 2, 3, 4)))]
    if n and rng.random() < 0.5:
        letters = [rng.choice(symbols) + rng.choice(("", "-")) for _ in range(rng.randint(2, 4))]
        relators.append(" ".join(letters))
    target_order = symbols[:]
    rng.shuffle(target_order)
    return pres(symbols), pres(target_order, *relators, pairs=pairs)


# seeded random pairs, the inputs of the property tests below
RANDOM_PAIRS = [_random_kernel_pair(random.Random(seed)) for seed in range(20)]
RANDOM_IDS = [f"random-{seed}" for seed in range(20)]


@pytest.mark.parametrize(
    "case",
    [
        _c4_kernel_case({0}, {0, 2}, 4),
        _c4_kernel_case({0}, {0, 2}, 4, with_hom=False),
        _c4_kernel_case({0}, {0, 1}, 5),
        _c4_kernel_case({0, 2}, {0, 1, 2}, 5),
        _c4_kernel_case({0}, {0, 1, 2}, 5),
        # the target lists its generators in another order
        (pres("ab"), pres("ba", "a a a"), 4, ()),
        # the target pairs a with A as formal inverses; the source does not
        (pres("aAb"), pres("bAa", "a b a b-", pairs=[("a", "A")]), 4, ()),
        *[(p_s, p_t, radius, ()) for p_s, p_t in RANDOM_PAIRS for radius in (0, 1)],
    ],
    ids=[
        "c4-0-02-r4", "c4-0-02-r4-nohom", "c4-0-01", "c4-02-012", "c4-0-012", "order", "pairs",
        *[f"{name}-r{radius}" for name in RANDOM_IDS for radius in (0, 1)],
    ],
)
def test_kernel_search_matches_the_per_word_reference(case):
    p_s, p_t, radius, homs = case
    quotient = Homomorphism.identity_on_generators(p_s, p_t)
    got = kernel_shortest_element(
        p_s, p_t, quotient, radius, KERNEL_BUDGET, homs_s=homs, homs_t=homs
    )
    want = per_word_kernel_search.kernel_search(
        p_s, p_t, radius, KERNEL_BUDGET, homs_s=homs, homs_t=homs
    )
    assert got.to_json() == want.to_json()
    for attr in ("target_certificate", "source_certificate"):
        got_cert, want_cert = getattr(got, attr), getattr(want, attr)
        assert (got_cert is None) == (want_cert is None)
        if want_cert is not None:
            assert got_cert.to_json() == want_cert.to_json()


def test_abelian_obstruction_agrees_with_the_engine_route():
    cx = flag_completion(C4_GRAPH)
    p = build_P(cx, C4_OMEGA, {0, 2})
    engine = WordProblemEngine(p, KERNEL_BUDGET, homs=(BBImageHom(cx),))
    data = engine._abelian
    n_core = len(p.core_generators())
    rows = {c: _abelian_coords(data, (c,)) for i in range(1, n_core + 1) for c in (i, -i)}
    v = [list(rows[j]) for j in range(1, n_core + 1)]
    survivors = 0
    for length in range(1, 5):
        for codes, coords in per_word_kernel_search.reduced_words_with_sums(n_core, length, rows):
            assert list(coords) == mat_vec(list(exponent_vector(codes, n_core)), v)
            word = p.decode(codes)
            found = _abelian_obstruction(data, coords)
            witness = _abelian_quotient(data, codes, word)
            assert (found is None) == (witness is None)
            state = engine.is_trivial(word)
            if found is None:
                survivors += 1
                assert state.certificate.to_json()["type"] == "hom_image"
            else:
                assert state.refuted and state.certificate == witness
                assert witness.degree == found[1]
    assert survivors == 48


def _join_rows(p_s, p_t):
    """The target's abelian data, the source's core size and each source
    letter's row in the target's coordinates, as the kernel search has them."""
    data = _abelian_data(p_t)
    n_core = len(p_s.core_generators())
    rows = {
        c: _abelian_coords(data, p_t.encode(p_s.decode((c,))))
        for i in range(1, n_core + 1)
        for c in (i, -i)
    }
    return data, n_core, rows


@pytest.mark.parametrize(
    "p_s, p_t, max_length",
    [
        # Smith diagonal [2]: one coordinate mod 2, the rest whole
        (*_c4_kernel_case({0}, {0, 2}, 6)[:2], 6),
        (pres("ab"), pres("ab", "a a a"), 6),
        (pres("ab"), pres("ba"), 6),
        (pres("aAb"), pres("bAa", "a b a b-", pairs=[("a", "A")]), 6),
        (pres(""), pres(""), 6),
        *[(p_s, p_t, 6) for p_s, p_t in RANDOM_PAIRS],
        # Smith diagonal [1, 2, 6, 0]: a factor of 1, two torsion factors and
        # a free coordinate, with negative entries in the right transform
        (pres("abcd"), pres("abcd", "a b", "b b c c", "c c c c a a"), 7),
    ],
    ids=["c4-0-02", "a-cubed", "no-relators", "pairs", "no-core", *RANDOM_IDS, "mixed-factors"],
)
def test_pruned_words_are_the_reference_survivors_in_order(p_s, p_t, max_length):
    """The cut drops only words whose sum the target's abelianization does
    not kill, so the survivors and their order are the unpruned reference's."""
    data, n_core, rows = _join_rows(p_s, p_t)
    words_of_length = _dying_words(rows, data)
    for length in range(1, max_length + 1):
        want = [
            codes
            for codes, coords in per_word_kernel_search.reduced_words_with_sums(n_core, length, rows)
            if _abelian_obstruction(data, coords) is None
        ]
        assert list(words_of_length(length)) == want


def test_kernel_c4_survivor_counts_are_frozen():
    """The words of each length that die in the abelianization of
    P(C4,{0,2}), from the benchmark's kernel inputs; the counts were taken
    from the unpruned reference, ``reduced_words_with_sums``."""
    p_s, p_t, _, _ = _c4_kernel_case({0}, {0, 2}, 7)
    data, _, rows = _join_rows(p_s, p_t)
    assert data[1] == (2, 0, 0, 0)
    words_of_length = _dying_words(rows, data)
    assert [sum(1 for _ in words_of_length(n)) for n in range(1, 8)] == [0, 0, 0, 48, 0, 1200, 0]


def test_kernel_c4_to_radius_seven_is_frozen():
    """P(C4,{0}) -> P(C4,{0,2}) at radius 7, the benchmark's kernel inputs;
    the values were computed by the unpruned per-word-filter search."""
    p_s, p_t, radius, homs = _c4_kernel_case({0}, {0, 2}, 7)
    quotient = Homomorphism.identity_on_generators(p_s, p_t)
    result = kernel_shortest_element(
        p_s, p_t, quotient, radius, KERNEL_BUDGET, homs_s=homs, homs_t=homs
    )
    assert result.to_json() == {
        "found": False,
        "length": None,
        "word": None,
        "certified_lower_bound": 8,
        "minimal_up_to_unknowns": False,
        "unknown_count": 0,
    }


def test_kernel_c4_at_radius_eight_finds_a_certified_length_eight_word():
    """Radius 7 is frozen above as not found, so a kernel word at radius 8
    has length 8; replay checks that the target proves it and the source
    refutes it."""
    p_s, p_t, radius, homs = _c4_kernel_case({0}, {0, 2}, 8)
    quotient = Homomorphism.identity_on_generators(p_s, p_t)
    result = kernel_shortest_element(
        p_s, p_t, quotient, radius, KERNEL_BUDGET, homs_s=homs, homs_t=homs
    )
    assert result.found and result.length == len(result.word) == 8
    assert result.certified_lower_bound == 8
    assert result.target_certificate.word == result.source_certificate.word == result.word
    assert verify_certificate(p_t, TriState("proved", result.target_certificate))
    assert verify_certificate(p_s, TriState("refuted", result.source_certificate))


def test_bb_image_hom_registration():
    c4 = flag_completion(
        SimpleGraph.build("0123", [("0", "1"), ("1", "2"), ("2", "3"), ("3", "0")])
    )
    omega = OmegaSet((EdgeLoop(("0", "1", "2", "3")),))
    p0 = build_P(c4, omega, {0})
    hom = BBImageHom(c4)
    assert hom.check_compatible(p0)
    engine = WordProblemEngine(p0, Budget(max_cosets=50, max_deductions=2000, max_search_depth=1), homs=(hom,))
    state = engine.is_trivial(w("e:0:1 e:1:2"))
    assert state.refuted
    assert verify_certificate(p0, state)
    # a commutator of opposite edges is invisible to the abelianization but
    # survives in the Artin group, exercising the hom-image certificate
    state2 = engine.is_trivial(w("e:0:1 e:2:3 e:0:1- e:2:3-"))
    assert state2.refuted and state2.certificate.to_json()["type"] == "hom_image"
    assert verify_certificate(p0, state2)
    # a presentation whose relators survive in the Artin group is rejected
    bad = GroupPresentation.build(["e:0:1"], [w("e:0:1")])
    assert not hom.check_compatible(bad)


def test_certificate_json_round_trips():
    p = pres("a", "a a")
    for word_ in (w("a"), w("a a"), w("a a a")):
        state = is_trivial(p, word_, BUDGET)
        replayed = TriState.from_json(state.to_json())
        assert replayed.status == state.status
        assert verify_certificate(p, replayed)


def test_each_certificate_class_owns_its_type_string():
    for kind, cls in word_engine.CERT_TYPES.items():
        assert cls.kind == kind and "kind" not in {f.name for f in dataclasses.fields(cls)}
    assert FreeReductionCertificate(w("a")).to_json() == {"type": "free_reduction", "word": [["a", 1]]}


def test_tampered_certificates_fail_replay():
    p = pres("a", "a a")
    state = is_trivial(p, w("a"), BUDGET)
    data = state.to_json()
    data["certificate"]["word"] = [["a", 1], ["a", 1]]  # now a trivial word
    assert not verify_certificate(p, TriState.from_json(data))
    wrong_status = TriState("proved", state.certificate)
    assert not verify_certificate(p, wrong_status)


@pytest.mark.parametrize(
    "state",
    [
        TriState("proved", FreeReductionCertificate((("zz", 1),))),
        TriState("refuted", QuotientWitness(2, (("a", (1, 0)),), (("zz", 1),))),
        TriState("proved", NormalClosureDerivation(w("a"), ((0, (("zz", 1),)),))),
        TriState("proved", FreeReductionCertificate(w("zz zz-"))),
        TriState("proved", NormalClosureDerivation(w("a a zz zz-"), ((0, w("a- a-")),))),
        TriState("refuted", QuotientWitness(10**20, (("a", (1, 0)),), w("a"))),
    ],
    ids=[
        "free_reduction",
        "quotient_witness",
        "derivation",
        "cancelling_free_reduction",
        "cancelling_derivation",
        "forged_degree",
    ],
)
def test_certificate_outside_the_presentation_fails_replay(state):
    # a symbol the presentation does not have makes replay fail, not raise,
    # even where it would cancel against its inverse; so does a witness whose
    # degree is not the length of its permutations, before anything that
    # large is built
    assert verify_certificate(pres("a", "a a"), state) is False


def test_budget_growth_never_flips_conclusive_answers():
    small = Budget(max_cosets=10, max_deductions=200, max_search_depth=1)
    for word_ in (w("a a a a a"), w("a"), w("a a")):
        lo = is_trivial(Z5, word_, small)
        hi = is_trivial(Z5, word_, BUDGET)
        if not lo.unknown:
            assert lo.status == hi.status


def test_certificate_fuzz_replay():
    rng = random.Random(20260823)
    presentations = [Z5, KLEIN, S3, pres("a", "a a"), pres("ab", "a b a- b-")]
    checked = 0
    for p in presentations:
        core = p.core_generators()
        for _ in range(200):
            length = rng.randrange(0, 9)
            word_ = tuple(
                (rng.choice(core), rng.choice((1, -1))) for _ in range(length)
            )
            state = is_trivial(p, word_, BUDGET)
            assert verify_certificate(p, state)
            if not state.unknown:
                checked += 1
    assert checked >= 1000


# ---------------------------------------------------------------------------
# replay accepts only what a certificate proves
# ---------------------------------------------------------------------------

# S3 with a of order 3: a is nontrivial, and the coset table of the trivial
# subgroup sends it to coset 1
S3_ORDER_3 = pres("ab", "a a a", "b b", "a b a b")


def _s3_enumeration(word_, coset=0, n_cosets=None, table_hash=None, budget=BUDGET):
    table = todd_coxeter(S3_ORDER_3, (), BUDGET)
    assert len(table.rows) == 6
    cert = word_engine.CosetEnumerationCertificate(
        budget,
        len(table.rows) if n_cosets is None else n_cosets,
        table.content_hash() if table_hash is None else table_hash,
        word_,
        coset,
    )
    return TriState("proved", cert)


def test_coset_enumeration_replay_accepts_only_coset_zero():
    assert verify_certificate(S3_ORDER_3, _s3_enumeration(w("a a a")))
    # the true table sends a to coset 1; naming that coset proves nothing
    table = todd_coxeter(S3_ORDER_3, (), BUDGET)
    assert table.trace(0, S3_ORDER_3.encode(w("a"))) == 1
    assert verify_certificate(S3_ORDER_3, _s3_enumeration(w("a"), coset=1)) is False


@pytest.mark.parametrize("forged", [
    {"n_cosets": 5},
    {"table_hash": "0" * 64},
    {"budget": Budget(max_cosets=3, max_deductions=20_000, max_search_depth=3)},
], ids=["n_cosets", "table_hash", "budget_too_small"])
def test_coset_enumeration_replay_fails_a_forged_table(forged):
    assert verify_certificate(S3_ORDER_3, _s3_enumeration(w("a a a"), **forged)) is False


def test_coset_enumeration_replays_within_the_checkers_budget():
    """Replay runs under the field-wise minimum of the recorded budget and the
    checker's; with no budget given it runs under the recorded one.  Running
    out of a checker's budget below the recorded one decides nothing (None);
    running out of the recorded budget itself fails the certificate."""
    honest = _s3_enumeration(w("a a a"), budget=Budget(10**9, 10**9, 3))
    assert verify_certificate(S3_ORDER_3, honest)
    assert verify_certificate(S3_ORDER_3, honest, Budget())
    assert verify_certificate(S3_ORDER_3, honest, Budget(max_cosets=3)) is None
    starved = _s3_enumeration(w("a a a"), budget=Budget(max_cosets=3))
    assert verify_certificate(S3_ORDER_3, starved) is False
    assert verify_certificate(S3_ORDER_3, starved, Budget()) is False
    assert Budget(5, 10, 3).within(Budget(7, 2, 1)) == Budget(5, 2, 1)
    with mock.patch.object(word_engine, "todd_coxeter", wraps=word_engine.todd_coxeter) as tc:
        verify_certificate(S3_ORDER_3, honest, Budget(max_cosets=50))
    assert tc.call_args.args[2] == Budget(50, 200_000, 3)


def _p_c4():
    c4 = flag_completion(
        SimpleGraph.build("0123", [("0", "1"), ("1", "2"), ("2", "3"), ("3", "0")])
    )
    return c4, build_P(c4, OmegaSet((EdgeLoop(("0", "1", "2", "3")),)), {0})


def test_hom_image_witness_over_a_foreign_symbol_fails_replay():
    # the payload is C4 with a vertex 4 and an edge 0-4, so e:0:4 has a
    # nontrivial image there; P(C4) has no generator e:0:4
    c4, p0 = _p_c4()
    payload = c4.to_json()
    payload = {"vertices": payload["vertices"] + ["4"], "edges": payload["edges"] + [["0", "4"]]}
    witness = word_engine.HomImageWitness("bb", payload, w("e:0:4"), w("0 4-"))
    assert verify_certificate(p0, TriState("refuted", witness)) is False


@pytest.mark.parametrize(
    "payload",
    [{}, [], {"vertices": ["0", "1"], "edges": [["0", "9"]]}, {"vertices": ["0", "1"], "edges": [["0"]]}],
    ids=["empty", "list", "edge-leaves-vertices", "one-ended-edge"],
)
def test_hom_image_witness_with_a_malformed_payload_fails_replay(payload):
    _, p0 = _p_c4()
    witness = word_engine.HomImageWitness("bb", payload, w("e:0:1"), w("0 1-"))
    assert verify_certificate(p0, TriState("refuted", witness)) is False


def test_hom_image_witness_over_a_symbol_unknown_to_the_payload_fails_replay():
    c4, p0 = _p_c4()
    witness = word_engine.HomImageWitness("bb", c4.to_json(), w("zz"), w("0"))
    assert verify_certificate(p0, TriState("refuted", witness)) is False


def test_group_is_trivial_falls_back_to_the_abelianization():
    # no symmetric group of degree at most 4 has an element of order 5
    state = group_is_trivial(Z5, BUDGET)
    assert state.refuted
    assert state.certificate == QuotientWitness(5, (("a", (1, 2, 3, 4, 0)),), w("a"))
    assert verify_certificate(Z5, state)


def test_group_is_trivial_falls_back_to_the_regular_representation():
    # A5 is simple and perfect: no nontrivial map into S4 and a trivial
    # abelianization, so only its regular representation separates a
    a5 = pres("ab", "a a", "b b b", "a b a b a b a b a b")
    state = group_is_trivial(a5, BUDGET)
    assert state.refuted
    assert state.certificate.degree == 60 and state.certificate.word == w("a")
    assert verify_certificate(a5, state)


def test_a_letter_with_exponent_two_is_bound_to_no_verdict():
    # in <a, b | b> the letter ("a", 2) was coded as generator 2, that is b:
    # the engine proved it trivial, and the derivation inserting b^-1 replayed
    pres = GroupPresentation.build(["a", "b"], [(("b", 1),)])
    claim = (("a", 2),)
    inserts_b_inverse = ((0, (("b", -1),)),)
    forged = TriState("proved", NormalClosureDerivation(claim, inserts_b_inverse))
    assert verify_certificate(pres, forged) is False
    with pytest.raises(PresentationError):
        WordProblemEngine(pres).is_trivial(claim)
    honest = TriState("proved", NormalClosureDerivation((("b", 1),), inserts_b_inverse))
    assert verify_certificate(pres, honest) is True
    assert WordProblemEngine(pres).is_trivial((("a", 1), ("a", 1))).refuted


# -- natural bounds, unknowns in the kernel search, replay rejections --------


def test_kernel_search_rejects_a_negative_radius():
    # it searched nothing and returned certified_lower_bound 1
    p = pres("a", "a a a")
    hom = Homomorphism.identity_on_generators(p, p)
    with pytest.raises(ValueError, match="^radius must be nonnegative, got -1$"):
        kernel_shortest_element(p, p, hom, -1, BUDGET)


Z2 = pres("ab", "a b a- b-")


@pytest.mark.parametrize("radius, unknowns", [(5, 0), (6, 24)])
def test_kernel_search_counts_its_unknowns(radius, unknowns):
    # Z^2 to itself by the identity has no kernel.  Under depth 1 and 50
    # cosets, 24 words of length 6 that die in the abelianization stay
    # unknown (Z^2 is infinite, so no table completes), so at radius 6 the
    # bound 6 holds only up to those unknowns
    hom = Homomorphism.identity_on_generators(Z2, Z2)
    result = kernel_shortest_element(Z2, Z2, hom, radius, Budget(50, 2000, 1))
    assert not result.found and result.word is None
    assert (result.unknown_count, result.minimal_up_to_unknowns) == (unknowns, unknowns > 0)
    assert result.certified_lower_bound == 6


def test_budget_json_bytes():
    # the keys in field order, the bytes a coset-enumeration certificate carries
    text = '{"max_cosets": 50, "max_deductions": 2000, "max_search_depth": 1}'
    assert json.dumps(Budget(50, 2000, 1).to_json()) == text
    assert Budget.from_json(json.loads(text)) == Budget(50, 2000, 1)


Z3 = pres("a", "a a a")
C4_RELABELLED = {"vertices": list("abcd"), "edges": [list("ab"), list("bc"), list("cd"), list("da")]}


def _honest_hom_image():
    """P(C4) and the hom-image refutation of a commutator of opposite edges."""
    c4, p0 = _p_c4()
    engine = WordProblemEngine(p0, Budget(50, 2000, 1), homs=(BBImageHom(c4),))
    return p0, engine.is_trivial(w("e:0:1 e:2:3 e:0:1- e:2:3-"))


@pytest.mark.parametrize("honest, forge", [
    (lambda: (KLEIN, is_trivial(KLEIN, w("v"), BUDGET)),
     lambda c: dataclasses.replace(c, images=(("v", (0, 0)),) + c.images[1:])),
    (lambda: (Z3, is_trivial(Z3, w("a"), BUDGET)),
     lambda c: QuotientWitness(2, (("a", (1, 0)),), c.word)),
    (lambda: (Z3, TriState("proved", NormalClosureDerivation(w("a a a"), ((0, w("a- a- a-")),)))),
     lambda c: dataclasses.replace(c, steps=((4, w("a- a- a-")),))),
    (_honest_hom_image, lambda c: dataclasses.replace(c, hom_kind="raag")),
    (_honest_hom_image, lambda c: dataclasses.replace(c, payload=C4_RELABELLED)),
], ids=["non-permutation-image", "relator-off-the-identity", "step-past-the-end", "raag-hom-kind",
        "payload-over-other-names"])
def test_replay_rejects_a_tampered_certificate(honest, forge):
    # each forgery of a certificate that replays fails on its own rejection
    # branch: an image that is no permutation, a relator sent off the
    # identity, an insertion at position |w| + 1, a homomorphism kind with
    # no replay and a payload whose generators are not the presentation's
    p, state = honest()
    assert verify_certificate(p, state) is True
    forged = TriState(state.status, forge(state.certificate))
    assert verify_certificate(p, forged) is False


def test_kernel_search_rejects_different_generating_sets():
    # no identity on generators joins them, whatever quotient is passed
    p_s, p_t = pres("ab"), pres("abc", "c")
    for quotient in (None, Homomorphism.identity_on_generators(p_s, p_s)):
        with pytest.raises(ValueError):
            kernel_shortest_element(p_s, p_t, quotient, 3, BUDGET)
    with pytest.raises(PresentationError, match="^generator sets differ$"):
        Homomorphism.identity_on_generators(p_s, p_t)


def test_finite_quotient_search_caps_the_degree():
    with pytest.raises(ValueError, match="^max_degree capped at 8$"):
        finite_quotient_search(pres("a"), (), 9)
