import itertools
import json

import pytest

from tautloop.complexes import (
    ComplexError,
    EdgeLoop,
    FlagComplex,
    OmegaSet,
    SimpleGraph,
    flag_completion,
    is_acyclic,
    loop_word,
    normally_generates,
    pi1_presentation,
    reduced_homology,
    spanning_tree,
)
from tautloop.word_engine import Budget


def cycle_graph(n, names=None):
    vs = names or [str(i) for i in range(n)]
    return SimpleGraph.build(vs, [(vs[i], vs[(i + 1) % n]) for i in range(n)])


def complete_graph(n):
    vs = [str(i) for i in range(n)]
    return SimpleGraph.build(vs, list(itertools.combinations(vs, 2)))


C4 = flag_completion(cycle_graph(4))
TRIANGLE = flag_completion(cycle_graph(3))


def test_simple_graph_rejects_degenerate_edges():
    with pytest.raises(ComplexError):
        SimpleGraph.build(["a"], [("a", "a")])
    with pytest.raises(ComplexError):
        SimpleGraph.build(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(ComplexError):
        SimpleGraph.build(["a", "a"], [])


def test_flag_completion_fills_triangles():
    assert TRIANGLE.dimension == 2
    assert len(TRIANGLE.simplices_of_dim(2)) == 1
    assert C4.dimension == 1
    assert C4.simplices_of_dim(2) == []
    k4 = flag_completion(complete_graph(4))
    assert k4.dimension == 3
    assert len(k4.simplices_of_dim(2)) == 4


def test_flag_completion_idempotent_and_capped():
    again = flag_completion(TRIANGLE.graph())
    assert again == TRIANGLE
    big = SimpleGraph.build([str(i) for i in range(21)], [])
    with pytest.raises(ComplexError):
        flag_completion(big)
    # reading a complex completes the graph it reads, so the cap holds there too
    with pytest.raises(ComplexError, match="capped at 20"):
        FlagComplex.from_json(big.to_json())


def test_dimension_matches_brute_force_clique_number():
    graphs = [cycle_graph(5), complete_graph(4), cycle_graph(6)]
    graphs.append(SimpleGraph.build("abcd", [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")]))
    for g in graphs:
        best = 1
        for size in range(2, len(g.vertices) + 1):
            for sub in itertools.combinations(g.vertices, size):
                if all(g.has_edge(u, v) for u, v in itertools.combinations(sub, 2)):
                    best = size
        assert flag_completion(g).dimension + 1 == best


def test_homology_of_circle():
    h1 = reduced_homology(C4, 1)
    assert (h1.rank, h1.torsion) == (1, ())
    h0 = reduced_homology(C4, 0)
    assert h0.is_trivial
    assert not is_acyclic(C4)


def test_homology_of_filled_triangle():
    for k in range(TRIANGLE.dimension + 1):
        assert reduced_homology(TRIANGLE, k).is_trivial
    assert is_acyclic(TRIANGLE)


def test_homology_of_octahedron_boundary():
    vs = [str(i) for i in range(6)]
    missing = {frozenset(("0", "5")), frozenset(("1", "4")), frozenset(("2", "3"))}
    edges = [e for e in itertools.combinations(vs, 2) if frozenset(e) not in missing]
    octa = flag_completion(SimpleGraph.build(vs, edges))
    assert octa.dimension == 2
    h2 = reduced_homology(octa, 2)
    assert (h2.rank, h2.torsion) == (1, ())
    assert reduced_homology(octa, 1).is_trivial


def test_euler_characteristic_matches_homology_ranks():
    for cx in (C4, TRIANGLE, flag_completion(complete_graph(4)), flag_completion(cycle_graph(6))):
        alt = sum(
            (-1) ** k * reduced_homology(cx, k).rank for k in range(cx.dimension + 1)
        )
        assert cx.euler_characteristic() == 1 + alt


def test_pi1_presentations():
    pres = pi1_presentation(C4)
    assert len(pres.generators) == 1 and pres.relators == ()
    assert pi1_presentation(TRIANGLE).generators == ()
    k33 = SimpleGraph.build(
        "abcxyz", [(u, v) for u in "abc" for v in "xyz"]
    )
    pres33 = pi1_presentation(flag_completion(k33))
    assert len(pres33.generators) == 4 and pres33.relators == ()


def test_spanning_tree_is_deterministic_and_spanning():
    tree = spanning_tree(C4, "0")
    assert tree == spanning_tree(C4, "0")
    assert len(tree) == len(C4.vertices) - 1


def test_spanning_tree_attaches_through_the_earliest_reached_neighbour():
    # from 3, vertex 0 is attached first; 1 then attaches through 3, reached
    # before 0, though 0 has the lower index
    cx = flag_completion(SimpleGraph.build("0123", [("3", "0"), ("3", "1"), ("0", "1"), ("1", "2")]))
    assert spanning_tree(cx, "3") == {frozenset("30"), frozenset("31"), frozenset("12")}


def test_edge_loop_validation():
    EdgeLoop(("0", "1", "2", "3")).validate(C4)
    with pytest.raises(ComplexError):
        EdgeLoop(("0", "1")).validate(C4)
    with pytest.raises(ComplexError):
        EdgeLoop(("0", "2", "1")).validate(C4)


def test_loop_word_of_boundary_is_a_chord_generator():
    lw = loop_word(C4, EdgeLoop(("0", "1", "2", "3")))
    assert len(lw) == 1


def test_normally_generates_boundary_loop():
    omega = OmegaSet((EdgeLoop(("0", "1", "2", "3")),))
    state = normally_generates(C4, omega, Budget(max_cosets=100, max_deductions=5000))
    assert state.proved
    assert state.certificate is not None


def test_normally_generates_empty_omega_refuted():
    state = normally_generates(C4, OmegaSet(()), Budget(max_cosets=100, max_deductions=5000))
    assert state.refuted
    assert state.certificate is not None


def test_normally_generates_doubled_boundary_refuted():
    doubled = EdgeLoop(("0", "1", "2", "3", "0", "1", "2", "3"))
    state = normally_generates(
        C4, OmegaSet((doubled,)), Budget(max_cosets=100, max_deductions=5000)
    )
    assert state.refuted


PENTAGON_WITH_CHORD = flag_completion(
    SimpleGraph.build("01234", [("0", "1"), ("1", "2"), ("2", "3"), ("3", "4"), ("4", "0"), ("0", "2")])
)


@pytest.mark.parametrize(
    "complex_, loops, status",
    [
        # pi1 is free on the chord 3-4; the triangle kills the chord 1-2
        (PENTAGON_WITH_CHORD, [("0", "1", "2", "3", "4")], "proved"),
        (PENTAGON_WITH_CHORD, [], "refuted"),
        (flag_completion(complete_graph(4)), [("0", "1", "2")], "proved"),
    ],
    ids=["pentagon-chord", "pentagon-chord-empty", "K4-triangle"],
)
def test_normally_generates_with_chords_killed_by_triangles(complex_, loops, status):
    omega = OmegaSet(tuple(EdgeLoop(lp) for lp in loops))
    assert normally_generates(complex_, omega).status == status


def test_json_round_trips():
    assert FlagComplex.from_json(C4.to_json()) == C4
    omega = OmegaSet((EdgeLoop(("0", "1", "2", "3")),))
    assert OmegaSet.from_json(omega.to_json()) == omega


@pytest.mark.parametrize("graph", [cycle_graph(4), cycle_graph(5), complete_graph(4), cycle_graph(3, ["b", "a", "c"])],
                         ids=["C4", "C5", "K4", "triangle-out-of-order"])
def test_simple_graph_json_round_trips(graph):
    assert SimpleGraph.from_json(graph.to_json()) == graph
    assert flag_completion(graph).to_json() == graph.to_json()


@pytest.mark.parametrize("graph, text", [
    (cycle_graph(4), '{"vertices": ["0", "1", "2", "3"], "edges": [["0", "1"], ["0", "3"], ["1", "2"], ["2", "3"]]}'),
    (cycle_graph(5), '{"vertices": ["0", "1", "2", "3", "4"], '
                     '"edges": [["0", "1"], ["0", "4"], ["1", "2"], ["2", "3"], ["3", "4"]]}'),
    (complete_graph(4), '{"vertices": ["0", "1", "2", "3"], '
                        '"edges": [["0", "1"], ["0", "2"], ["0", "3"], ["1", "2"], ["1", "3"], ["2", "3"]]}'),
], ids=["C4", "C5", "K4"])
def test_complex_json_bytes(graph, text):
    # vertices in order, then each edge once, its ends and the edges in vertex order;
    # a homomorphism-image certificate carries these bytes as its payload
    assert json.dumps(flag_completion(graph).to_json()) == text


def test_a_flag_complex_is_its_graph():
    # the complex inherits the graph's edge test, neighbours, edge order and
    # JSON, and defines none of its own; graph() still gives the bare graph
    for name in ("has_edge", "neighbors", "sorted_edges", "to_json"):
        assert name not in vars(FlagComplex)
    c4 = cycle_graph(4)
    cx = flag_completion(c4)
    assert isinstance(cx, SimpleGraph) and cx.graph() == c4 and type(cx.graph()) is SimpleGraph
    assert cx.sorted_edges() == c4.sorted_edges() and cx.neighbors("0") == ["1", "3"]
    assert cx.has_edge("3", "0") and not cx.has_edge("0", "2")
    assert cx != c4 and hash(cx) == hash(FlagComplex(c4.vertices, c4.edges))


def test_normally_generates_rejects_a_disconnected_complex():
    # a 4-cycle and a separate edge: its spanning tree cannot reach every vertex
    split = flag_completion(SimpleGraph.build(list("012345"), [("0", "1"), ("1", "2"), ("2", "3"), ("3", "0"),
                                                             ("4", "5")]))
    omega = OmegaSet((EdgeLoop(("0", "1", "2", "3")),))
    with pytest.raises(ComplexError, match="^complex is disconnected$"):
        normally_generates(split, omega)


def test_homology_outside_the_dimension_is_rejected():
    with pytest.raises(ComplexError, match="^degree 2 outside 0..1$"):
        reduced_homology(C4, 2)


def test_a_spanning_tree_at_an_unknown_basepoint_is_rejected():
    with pytest.raises(ComplexError, match="^unknown basepoint '9'$"):
        spanning_tree(C4, "9")
