import itertools

import pytest

from tautloop.cayley import (
    BBOracle,
    CosetTableOracle,
    FreeGroupOracle,
    OracleInsufficient,
    RaagOracle,
    RacgOracle,
    ZModOracle,
    build_ball,
    closed_loops,
    closed_walks,
    distance_map,
    graph_distance,
)
from tautloop.complexes import SimpleGraph, flag_completion
from tautloop.presentations import build_RACG
from tautloop.words import word


def graph(vs, edges):
    return SimpleGraph.build(vs, edges)


def test_infinite_cyclic_ball_is_a_path():
    ball = build_ball(FreeGroupOracle(["t"]), ["t"], 3)
    assert len(ball.vertices) == 7
    degrees = {}
    for e in ball.adjacency:
        for v in e:
            degrees[v] = degrees.get(v, 0) + 1
    assert sorted(degrees.values()) == [1, 1, 2, 2, 2, 2, 2]
    ends = [v for v, d in degrees.items() if d == 1]
    assert graph_distance(ball, ends[0], ends[1]) == 6


def test_racg_edge_ball_is_the_full_order_four_group():
    ball = build_ball(RacgOracle(graph("uv", [("u", "v")])), ["u", "v"], 2)
    assert len(ball.vertices) == 4
    assert len(ball.adjacency) == 4  # the 4-cycle Cayley graph of Klein four


def test_bb_oracle_edge_complex_ball_is_a_line():
    edge_cx = flag_completion(graph("xy", [("x", "y")]))
    gens = ["e:x:y"]
    for r in (2, 3):
        ball = build_ball(BBOracle(edge_cx), gens, r)
        assert len(ball.vertices) == 2 * r + 1
        assert len(ball.adjacency) == 2 * r


def test_zmod_ball_closes_up():
    ball = build_ball(ZModOracle(5), ["t"], 4)
    assert len(ball.vertices) == 5
    assert len(ball.adjacency) == 5
    loops = closed_loops(ball, 8, 0)
    assert sorted(len(w) for w in loops.words) == [5]
    assert loops.conclusive


def test_zmod_loops_at_double_length():
    ball = build_ball(ZModOracle(5), ["t"], 6)
    loops = closed_loops(ball, 10, 0)
    assert sorted(len(w) for w in loops.words) == [5, 10]


def test_coset_table_oracle():
    klein = build_RACG(graph("uv", [("u", "v")]))
    oracle = CosetTableOracle(klein)
    ball = build_ball(oracle, ["u", "v"], 3)
    assert len(ball.vertices) == 4


def test_coset_table_oracle_rejects_infinite_groups():
    free = build_RACG(graph("uv", []))
    # infinite dihedral never completes
    from tautloop.word_engine import Budget

    with pytest.raises(OracleInsufficient):
        CosetTableOracle(free, Budget(max_cosets=50, max_deductions=2000))


def test_word_length_equals_distance_from_center():
    raag = RaagOracle(flag_completion(graph("xyz", [("x", "y")])))
    ball = build_ball(raag, ["x", "y", "z"], 3)
    dist = distance_map(ball, ball.center)
    for v in ball.vertices:
        assert v.dist == dist[v.vid]
        assert len(v.word) == v.dist


def test_recentering_gives_isomorphic_ball():
    # vertex-transitivity spot check by degree-sequence canonical invariant
    oracle = RacgOracle(graph("uvw", [("u", "v")]))

    class Shifted:
        tag = "shifted"

        def __init__(self, base, shift):
            self.base = base
            self.shift = shift

        def normal_form(self, w):
            return self.base.normal_form(self.shift + tuple(w))

    b0 = build_ball(oracle, ["u", "v", "w"], 2)
    b1 = build_ball(Shifted(oracle, word([("w", 1)])), ["u", "v", "w"], 2)
    assert len(b0.vertices) == len(b1.vertices)
    assert len(b0.adjacency) == len(b1.adjacency)

    def degree_sequence(ball):
        deg = {v.vid: 0 for v in ball.vertices}
        for e in ball.adjacency:
            for v in e:
                deg[v] += 1
        return sorted(deg.values())

    assert degree_sequence(b0) == degree_sequence(b1)


def test_simpliciality_no_multi_edges_for_involutions():
    ball = build_ball(RacgOracle(graph("u", [])), ["u"], 2)
    assert len(ball.vertices) == 2
    assert len(ball.adjacency) == 1


def test_free_group_has_no_loops():
    ball = build_ball(FreeGroupOracle(["a", "b"]), ["a", "b"], 3)
    loops = closed_loops(ball, 6, 0)
    assert loops.words == ()
    assert loops.conclusive


def test_complete_graph_triangles():
    # the Klein group on all three involutions u, v, p=uv has Cayley graph K4
    pres = build_RACG(graph("uv", [("u", "v")]))
    oracle = CosetTableOracle(pres)

    class KleinK4:
        tag = "klein-k4"

        def normal_form(self, w):
            flat = []
            for s, e in w:
                flat.extend([("u", 1), ("v", 1)] if s == "p" else [(s, e)])
            return oracle.normal_form(tuple(flat))

    ball = build_ball(KleinK4(), ["u", "v", "p"], 2)
    assert len(ball.vertices) == 4
    assert len(ball.adjacency) == 6
    loops = closed_loops(ball, 3, 0)
    assert len(loops.words) == len(loops.vertex_cycles)
    # base-anchored enumeration sees the C(3,2) = 3 triangles through base
    assert sorted(len(w) for w in loops.words) == [3, 3, 3]


def test_loop_dedup_up_to_rotation_and_reversal():
    ball = build_ball(ZModOracle(4), ["t"], 3)
    loops = closed_loops(ball, 4, 0)
    # the square traversed clockwise and counterclockwise is one loop
    assert len(loops.words) == 1


def test_ball_json_and_dot():
    ball = build_ball(ZModOracle(3), ["t"], 2)
    data = ball.to_json()
    assert data["radius"] == 2
    assert len(data["vertices"]) == 3
    assert all(len(e) == 2 for e in data["edges"])
    dot = ball.to_dot()
    assert dot.startswith("graph ball {") and "--" in dot


def test_zmod_oracle_rejects_foreign_symbols():
    with pytest.raises(OracleInsufficient):
        ZModOracle(5).normal_form(word([("x", 1)]))


def test_graph_distance_validates_membership():
    ball = build_ball(ZModOracle(3), ["t"], 1)
    with pytest.raises(ValueError):
        graph_distance(ball, 0, 99)


def _graph_nbrs(g):
    return {v: [(u, ()) for u in g.neighbors(v)] for v in g.vertices}


def _brute_force_closed_walks(g, length):
    """Cyclically non-backtracking closed walks of one length, counted up to
    rotation and reversal, from every vertex sequence of that length."""
    classes = set()
    for seq in itertools.product(g.vertices, repeat=length):
        if not all(g.has_edge(seq[i], seq[(i + 1) % length]) for i in range(length)):
            continue
        if any(seq[(i + 1) % length] == seq[i - 1] for i in range(length)):
            continue
        turns = [seq[i:] + seq[:i] for i in range(length)]
        turns += [tuple(reversed(t)) for t in turns]
        classes.add(min(turns))
    return len(classes)


def _cube():
    vs = [str(i) for i in range(8)]
    return graph(vs, [(vs[a], vs[a ^ (1 << b)]) for a in range(8) for b in range(3) if a < a ^ (1 << b)])


@pytest.mark.parametrize(
    "g",
    [
        graph("0123", list(itertools.combinations("0123", 2))),
        graph("abcxyz", [(u, v) for u in "abc" for v in "xyz"]),
        _cube(),
        graph("012345", [("0", "1"), ("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"),
                         ("5", "0"), ("1", "4")]),
    ],
    ids=["K4", "K33", "cube", "theta"],
)
def test_closed_walks_match_a_brute_force_count(g):
    found = closed_walks(_graph_nbrs(g), 6, g.vertices)
    counts = {}
    for cycle, _ in found:
        counts[len(cycle)] = counts.get(len(cycle), 0) + 1
    for length in range(3, 7):
        assert counts.get(length, 0) == _brute_force_closed_walks(g, length)
    assert [len(c) for c, _ in found] == sorted(len(c) for c, _ in found)
