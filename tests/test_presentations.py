import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import per_letter_coding
from tautloop import words
from tautloop.complexes import EdgeLoop, OmegaSet, SimpleGraph, flag_completion
from tautloop.normal_forms import bb_image
from tautloop.presentations import (
    GroupPresentation,
    Homomorphism,
    PresentationError,
    build_P,
    build_RAAG,
    build_RACG,
    canonical_cyclic_ints,
    cyclic_reduce_ints,
    exponent_vector,
    invert_ints,
    reduce_ints,
    truncated_presentation,
)


def w(spec):
    out = []
    for part in spec.split():
        if part.endswith("-"):
            out.append((part[:-1], -1))
        else:
            out.append((part, 1))
    return tuple(out)


def cycle_graph(n):
    vs = [str(i) for i in range(n)]
    return SimpleGraph.build(vs, [(vs[i], vs[(i + 1) % n]) for i in range(n)])


C4 = flag_completion(cycle_graph(4))
BOUNDARY = OmegaSet((EdgeLoop(("0", "1", "2", "3")),))
TRIANGLE = flag_completion(cycle_graph(3))

int_words = st.lists(
    st.integers(min_value=-3, max_value=3).filter(lambda c: c != 0), max_size=10
).map(tuple)


def test_build_rejects_duplicates_and_unknown_symbols():
    with pytest.raises(PresentationError):
        GroupPresentation.build(["a", "a"], [])
    with pytest.raises(PresentationError):
        GroupPresentation.build(["a"], [w("b")])
    with pytest.raises(PresentationError):
        GroupPresentation.build(["a"], [], inverse_pairs=[("a", "b")])


def test_build_rejects_malformed_pairings():
    # (a, c) and (b, c) make a and b both inverse to c, so a c is trivial;
    # a core view of such pairs kept a and c apart and refuted it
    with pytest.raises(PresentationError):
        GroupPresentation.build(["a", "b", "c"], [], [("a", "c"), ("b", "c")])
    with pytest.raises(PresentationError):
        GroupPresentation.build(["a"], [], [("a", "a")])


def test_relator_dedup_up_to_rotation_and_inversion():
    pres = GroupPresentation.build(["a", "b"], [w("a b"), w("b a"), w("b- a-"), ()])
    assert len(pres.relators) == 1


def test_core_view_collapses_formal_inverse_pairs():
    pres = GroupPresentation.build(["a", "b"], [w("a b")], inverse_pairs=[("a", "b")])
    assert pres.core_generators() == ("a",)
    assert pres.encode(w("b")) == (-1,)
    # the edge relator a*b free-reduces away on the core alphabet
    assert pres.core_relators() == ()
    assert pres.decode((1, -1)) == w("a a-")


def test_build_P_counts_for_4_cycle():
    pres = build_P(C4, BOUNDARY, {0, 2})
    assert len(pres.generators) == 8
    assert len(pres.inverse_pairs) == 4
    edge = [r for r in pres.relators if len(r) == 2]
    long = [r for r in pres.relators if len(r) == 8]
    assert len(edge) == 4 and len(long) == 1
    assert len(pres.relators) == 5
    # core view: the 4 edge relators vanish, the long-cycle relator survives
    assert len(pres.core_relators()) == 1
    assert len(pres.core_relators()[0]) == 8


def test_build_P_without_long_relators():
    pres = build_P(C4, BOUNDARY, {0})
    assert len(pres.generators) == 8
    assert pres.core_relators() == ()
    with pytest.raises(PresentationError):
        build_P(C4, BOUNDARY, {2})


def test_build_P_triangle_relators():
    pres = build_P(TRIANGLE, OmegaSet(()), {0})
    assert len(pres.generators) == 6
    tri = [r for r in pres.relators if len(r) == 3]
    assert len(tri) == 2


def test_build_P_relator_monotone_in_S():
    small = build_P(C4, BOUNDARY, {0})
    big = build_P(C4, BOUNDARY, {0, 1, 2})
    assert set(small.relators) <= set(big.relators)
    hom = Homomorphism.identity_on_generators(small, big)
    assert hom.apply(w("e:0:1")) == w("e:0:1")


def test_build_P_relators_die_in_the_artin_group():
    for s in ({0}, {0, 1}, {0, 2, 3}):
        pres = build_P(C4, BOUNDARY, s)
        for r in pres.relators:
            assert bb_image(C4, r) == ()


def test_build_RAAG():
    pres = build_RAAG(flag_completion(SimpleGraph.build("xy", [("x", "y")])))
    assert pres.generators == ("x", "y")
    assert pres.relators == ((("x", 1), ("y", 1), ("x", -1), ("y", -1)),)
    free = build_RAAG(flag_completion(SimpleGraph.build("xy", [])))
    assert free.relators == ()
    k3 = build_RAAG(TRIANGLE)
    assert len(k3.relators) == 3


def test_build_RACG():
    pres = build_RACG(SimpleGraph.build("uv", [("u", "v")]))
    assert len(pres.relators) == 3
    lone = build_RACG(SimpleGraph.build("uv", []))
    assert len(lone.relators) == 2


def test_truncated_presentation_length_filter():
    assert truncated_presentation(["a"], [w("a a a a a")], 5).relators == ()
    pres = truncated_presentation(["a"], [w("a a a a a")], 6)
    assert len(pres.relators) == 1
    p_edges = build_P(C4, BOUNDARY, {0})
    kept = truncated_presentation(
        p_edges.generators, p_edges.relators, 3, p_edges.inverse_pairs
    )
    # edge relators free-reduce away on the core alphabet
    assert kept.relators == ()


def test_serialization_round_trip_is_stable():
    pres = build_P(C4, BOUNDARY, {0, 2})
    again = GroupPresentation.from_json(pres.to_json())
    assert again == pres
    assert again.dumps() == pres.dumps()


def test_gap_export_mentions_all_generators():
    pres = build_RACG(SimpleGraph.build("uv", [("u", "v")]))
    text = pres.gap_export()
    assert "FreeGroup" in text and "rels :=" in text


def test_homomorphism_requires_total_images():
    src = GroupPresentation.build(["a", "b"], [])
    dst = GroupPresentation.build(["x"], [])
    with pytest.raises(PresentationError):
        Homomorphism.build(src, dst, {"a": w("x")})
    hom = Homomorphism.build(src, dst, {"a": w("x"), "b": w("x x")})
    assert hom.apply(w("a b-")) == w("x-")  # x (x x)^-1 free-reduces


def test_homomorphism_relator_checks():
    src = GroupPresentation.build(["a"], [w("a a")])
    dst = GroupPresentation.build(["x"], [w("x x")])
    hom = Homomorphism.build(src, dst, {"a": w("x")})
    states = hom.check_relators()
    assert len(states) == 1 and states[0].proved


@given(int_words)
def test_int_helpers_agree_with_symbolic_words(codes):
    syms = ("a", "b", "c")
    sym_word = tuple((syms[abs(c) - 1], 1 if c > 0 else -1) for c in codes)
    pres = GroupPresentation.build(syms, [])
    assert pres.encode(words.free_reduce(sym_word)) == reduce_ints(codes)
    assert invert_ints(reduce_ints(codes)) == reduce_ints(invert_ints(codes))
    assert pres.encode(words.cyclic_reduce(sym_word)) == cyclic_reduce_ints(codes)


@given(int_words)
def test_canonical_cyclic_ints_invariance(codes):
    c = canonical_cyclic_ints(codes)
    assert canonical_cyclic_ints(invert_ints(codes)) == c
    if codes:
        assert canonical_cyclic_ints(codes[1:] + codes[:1]) == c


@given(int_words)
def test_exponent_vector_additivity(codes):
    v1 = exponent_vector(codes, 3)
    v2 = exponent_vector(reduce_ints(codes), 3)
    assert v1 == v2


# -- the letter tables against the per-letter reference --------------------

SYMBOLS = ("a", "b", "ab", "b2", "x", "e:0:1", "e:1:0", "e:10:2", "e:2:10")


def _paired_presentation(rng):
    """Up to nine generators in a random order, with up to three random
    formal-inverse pairs among them."""
    gens = rng.sample(SYMBOLS, rng.randint(1, len(SYMBOLS)))
    mates = rng.sample(gens, 2 * rng.randint(0, min(3, len(gens) // 2)))
    return GroupPresentation.build(gens, [], zip(mates[::2], mates[1::2]))


@pytest.mark.parametrize("seed", range(30))
def test_coding_equals_the_per_letter_reference(seed):
    rng = random.Random(seed)
    pres = _paired_presentation(rng)
    letters = [(g, e) for g in pres.generators for e in (1, -1)]
    for _ in range(40):
        word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 9)))
        codes = pres.encode(word)
        assert codes == per_letter_coding.encode(pres, word)
        assert pres.decode(codes) == per_letter_coding.decode(pres, codes)
        # a foreign symbol raises the same error, even where it cancels
        sym = rng.choice([s for s in SYMBOLS + ("zz",) if s not in pres.generators])
        i = rng.randint(0, len(word))
        forged = word[:i] + ((sym, 1), (sym, -1)) + word[i:]
        with pytest.raises(PresentationError) as new:
            pres.encode(forged)
        with pytest.raises(PresentationError) as old:
            per_letter_coding.encode(pres, forged)
        assert str(new.value) == str(old.value) == f"unknown generator {sym!r}"


def test_a_formal_inverse_codes_as_its_mate_negated():
    pres = GroupPresentation.build(["e:1:0", "b", "e:0:1"], [], [("e:1:0", "e:0:1")])
    assert pres.core_generators() == ("b", "e:0:1")
    assert pres.encode(w("e:1:0 b e:0:1-")) == (-2, 1, -2)
    assert pres.decode((-2, 1, -2)) == w("e:0:1- b e:0:1-")
    assert pres.extended([w("b b")])._core_table() is pres._core_table()


@pytest.mark.parametrize("codes", [(0,), (1, 3), (-3,)])
def test_decode_rejects_a_code_of_no_core_letter(codes):
    # code 0 used to read as the last generator, inverted
    pres = GroupPresentation.build(["a", "b"], [w("b")])
    with pytest.raises(PresentationError):
        pres.decode(codes)


@pytest.mark.parametrize("letter", [("a", 2), ("a", 0), ("b", -2)])
def test_encode_rejects_a_letter_whose_exponent_is_not_one(letter):
    # ("a", 2) used to be coded as the exponent times a's index: generator b
    pres = GroupPresentation.build(["a", "b"], [w("b")])
    with pytest.raises(PresentationError, match="bad exponent"):
        pres.encode((letter,))
