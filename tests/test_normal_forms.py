import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tautloop.complexes import SimpleGraph, flag_completion
from tautloop.normal_forms import (
    NormalFormError,
    RaagEngine,
    TitsEngine,
    bb_image,
    raag_normal_form,
    retract,
    tits_reduce,
)
from tautloop.presentations import build_RACG
from tautloop.word_engine import Budget, CosetTable, todd_coxeter
from tautloop.words import free_reduce, word
from two_phase_normal_forms import TwoPhaseRaag, TwoPhaseTits


def graph(vs, edges):
    return SimpleGraph.build(vs, edges)


EDGE = graph("uv", [("u", "v")])
NOEDGE = graph("uv", [])
PATH3 = graph("uvw", [("u", "v"), ("v", "w")])


def test_tits_reduce_basics():
    assert tits_reduce(EDGE, ("u", "v", "u", "v")) == ()
    assert tits_reduce(NOEDGE, ("u", "v", "u", "v")) == ("u", "v", "u", "v")
    assert tits_reduce(EDGE, ("v", "v")) == ()
    assert tits_reduce(EDGE, ("v", "u")) == ("u", "v")  # commuting block sorts
    with pytest.raises(NormalFormError):
        tits_reduce(EDGE, ("z",))


def test_tits_reduce_non_adjacent_cancellation_blocked():
    # in the path u-v-w the letters u and v commute (edge), u and w do not
    assert tits_reduce(PATH3, ("u", "v", "u")) == ("v",)
    assert tits_reduce(PATH3, ("u", "w", "u")) == ("u", "w", "u")


def test_raag_normal_form_basics():
    edge_cx = flag_completion(EDGE)
    assert raag_normal_form(edge_cx, word([("u", 1), ("v", 1), ("u", -1), ("v", -1)])) == ()
    free_cx = flag_completion(NOEDGE)
    w0 = word([("u", 1), ("v", 1), ("u", -1)])
    assert raag_normal_form(free_cx, w0) == w0
    k3 = flag_completion(graph("xyz", [("x", "y"), ("y", "z"), ("x", "z")]))
    nf = raag_normal_form(k3, word([("z", 1), ("x", 1), ("y", 1), ("x", 1)]))
    assert nf == word([("x", 1), ("x", 1), ("y", 1), ("z", 1)])


def test_bb_image_examples():
    c4 = flag_completion(graph("0123", [("0", "1"), ("1", "2"), ("2", "3"), ("3", "0")]))
    assert bb_image(c4, word([("e:0:1", 1)])) == word([("0", 1), ("1", -1)])
    assert bb_image(c4, word([("e:0:1", 1), ("e:1:0", 1)])) == ()
    tri = flag_completion(graph("xyz", [("x", "y"), ("y", "z"), ("x", "z")]))
    triangle = word([("e:x:y", 1), ("e:y:z", 1), ("e:z:x", 1)])
    assert bb_image(tri, triangle) == ()
    with pytest.raises(NormalFormError):
        bb_image(c4, word([("e:0:2", 1)]))


def test_retract_examples():
    sub = graph("u", [])
    assert retract(PATH3, sub, ("u", "u")) == ()
    assert retract(PATH3, sub, ("v", "w")) == ()
    assert retract(PATH3, sub, ("u", "w", "u")) == ()  # w dies, u u cancels
    not_induced = graph("uw", [("u", "w")])
    with pytest.raises(NormalFormError):
        retract(PATH3, not_induced, ("u",))


def test_retract_section_is_identity():
    sub = PATH3.induced(["u", "v"])
    rng = random.Random(7)
    for _ in range(50):
        w0 = tuple(rng.choice(["u", "v"]) for _ in range(rng.randrange(8)))
        canonical = tits_reduce(sub, w0)
        assert retract(PATH3, sub, canonical) == canonical


def all_labeled_graphs(n):
    vs = [str(i) for i in range(n)]
    pairs = list(itertools.combinations(vs, 2))
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        yield graph(vs, edges)


def test_tits_normal_form_agrees_with_enumeration_on_small_graphs():
    # finite RACGs among <= 3 generators are the complete graphs; on the
    # others the enumeration does not complete and parity must still agree
    budget = Budget(max_cosets=64, max_deductions=4000)
    for g in all_labeled_graphs(3):
        pres = build_RACG(g)
        table = todd_coxeter(pres, (), budget)
        if not isinstance(table, CosetTable):
            continue
        eng = TitsEngine(g.vertices, g.edges)
        nf_of_coset = {}
        for w0 in itertools.product(range(len(g.vertices)), repeat=4):
            nf = eng.normal_form(w0)
            coset = table.trace(0, [i + 1 for i in w0])
            if coset in nf_of_coset:
                assert nf_of_coset[coset] == nf
            else:
                nf_of_coset[coset] = nf


@settings(max_examples=120)
@given(st.lists(st.integers(min_value=0, max_value=2), max_size=10))
def test_tits_confluence_under_shuffled_insertion_order(letters):
    # push letters one at a time vs. normal_form over prefix-normalized state:
    # both must land on the same canonical representative
    eng = TitsEngine(PATH3.vertices, PATH3.edges)
    direct = eng.normal_form(letters)
    staged: list[int] = []
    for v in letters:
        staged = list(eng.normal_form(staged + [v]))
    assert tuple(staged) == direct
    # a normal form is a fixed point
    assert eng.normal_form(direct) == direct


@settings(max_examples=120)
@given(
    st.lists(
        st.integers(min_value=-3, max_value=3).filter(lambda c: c != 0), max_size=10
    )
)
def test_raag_normal_form_is_canonical(codes):
    k3 = flag_completion(graph("xyz", [("x", "y"), ("y", "z"), ("x", "z")]))
    eng = RaagEngine(k3.vertices, k3.edges)
    nf = eng.normal_form(codes)
    assert eng.normal_form(nf) == nf
    # inverse concatenation cancels to the identity
    assert eng.normal_form(list(nf) + [-c for c in reversed(nf)]) == ()


def test_raag_complete_graph_is_exponent_vector():
    k3 = flag_completion(graph("xyz", [("x", "y"), ("y", "z"), ("x", "z")]))
    rng = random.Random(11)
    for _ in range(200):
        w0 = word(
            [(rng.choice("xyz"), rng.choice((1, -1))) for _ in range(rng.randrange(10))]
        )
        nf = raag_normal_form(k3, w0)
        vec = {s: 0 for s in "xyz"}
        for s, e in w0:
            vec[s] += e
        rebuilt = []
        for s in "xyz":
            rebuilt += [(s, 1 if vec[s] > 0 else -1)] * abs(vec[s])
        assert nf == tuple(rebuilt)


def test_raag_edgeless_graph_is_free_reduction():
    free_cx = flag_completion(NOEDGE)
    rng = random.Random(13)
    for _ in range(200):
        w0 = word(
            [(rng.choice("uv"), rng.choice((1, -1))) for _ in range(rng.randrange(10))]
        )
        assert raag_normal_form(free_cx, w0) == free_reduce(w0)


def random_graph(rng, max_vertices=6):
    vs = [str(i) for i in range(rng.randint(1, max_vertices))]
    density = rng.random()
    pairs = itertools.combinations(vs, 2)
    return graph(vs, [p for p in pairs if rng.random() < density])


@pytest.mark.parametrize("engine, reference, letter", [
    (TitsEngine, TwoPhaseTits, lambda rng, n: rng.randrange(n)),
    (RaagEngine, TwoPhaseRaag, lambda rng, n: rng.choice((1, -1)) * rng.randint(1, n)),
], ids=["racg", "raag"])
def test_normal_form_matches_two_phase_reference(engine, reference, letter):
    rng = random.Random(20261018)
    for _ in range(300):
        g = random_graph(rng)
        eng, ref = engine(g.vertices, g.edges), reference(g.vertices, g.edges)
        n = len(g.vertices)
        for _ in range(30):
            w0 = [letter(rng, n) for _ in range(rng.randint(0, 16))]
            assert eng.normal_form(w0) == ref.normal_form(w0), (g.edges, w0)


@pytest.mark.parametrize("g", [
    graph("0123", [("0", "1"), ("1", "2"), ("2", "3"), ("3", "0")]),
    graph("0123", list(itertools.combinations("0123", 2))),
], ids=["c4", "k4"])
def test_bb_image_matches_two_phase_reference(g):
    cx = flag_completion(g)
    ref = TwoPhaseRaag(cx.vertices, cx.edges)
    darts = [(u, v) for u, v in g.sorted_edges()] + [(v, u) for u, v in g.sorted_edges()]
    rng = random.Random(len(darts))
    for _ in range(2000):
        w0 = [(rng.choice(darts), rng.choice((1, -1))) for _ in range(rng.randint(0, 16))]
        letters = []
        for (x, y), exp in w0:
            i, j = ref.index[x], ref.index[y]
            letters += (i, -j) if exp == 1 else (j, -i)
        expected = tuple((cx.vertices[abs(c) - 1], 1 if c > 0 else -1) for c in ref.normal_form(letters))
        assert bb_image(cx, word((f"e:{x}:{y}", e) for (x, y), e in w0)) == expected, w0
