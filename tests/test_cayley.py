import functools
import hashlib
import itertools
import sys

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from tautloop import cayley, spectrum
from tautloop.cayley import (
    BallVertex,
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
    closed_walks,
    distance_map,
    graph_distance,
)
from tautloop.complexes import SimpleGraph, flag_completion
from tautloop.davis import SemidirectEngine, choose_orbits, vertex_symbol
from tautloop.presentations import GroupPresentation, build_RACG
from tautloop.words import canonical_cyclic, word

import per_length_closed_walks
from test_davis import C12_Z3
import whole_ball_reference


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


def test_loop_list_is_conclusive_to_odd_length_with_the_rim():
    # the 7-loop of Z/7 reaches distance 3 and closes along the rim edge
    # between the two vertices there
    with_rim = closed_loops(build_ball(ZModOracle(7), ["t"], 3, _rim=True), 7, 0)
    assert [len(w) for w in with_rim.words] == [7] and with_rim.conclusive
    without = closed_loops(build_ball(ZModOracle(7), ["t"], 3, _rim=False), 7, 0)
    assert without.words == () and not without.conclusive


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

        def normal_form(self, w, start=None):
            return self.base.normal_form(tuple(w), self.base.normal_form(self.shift) if start is None else start)

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

        def normal_form(self, w, start=0):
            flat = []
            for s, e in w:
                flat.extend([("u", 1), ("v", 1)] if s == "p" else [(s, e)])
            return oracle.normal_form(tuple(flat), start)

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


C4 = graph("0123", [("0", "1"), ("1", "2"), ("2", "3"), ("3", "0")])
C5 = graph("01234", [(str(i), str((i + 1) % 5)) for i in range(5)])


def _edge_gens(g):
    return [f"e:{u}:{v}" for u, v in g.sorted_edges()]


def _s3():
    a, b = ("a", 1), ("b", 1)
    return GroupPresentation.build("ab", [(a, a), (b, b), (a, b) * 3])


# name -> (oracle, generator symbols)
ORACLES = {
    "free-pair": lambda: (FreeGroupOracle(["a", "b", "A"], [("a", "A")]), ["a", "b", "A"]),
    "zmod5": lambda: (ZModOracle(5), ["t"]),
    "zmod0": lambda: (ZModOracle(0), ["t"]),
    "coset-s3": lambda: (CosetTableOracle(_s3()), ["a", "b"]),
    "raag-c4": lambda: (RaagOracle(flag_completion(C4)), list(C4.vertices)),
    "raag-c5": lambda: (RaagOracle(flag_completion(C5)), list(C5.vertices)),
    "racg-c4": lambda: (RacgOracle(C4), list(C4.vertices)),
    "racg-c5": lambda: (RacgOracle(C5), list(C5.vertices)),
    "bb-c4": lambda: (BBOracle(flag_completion(C4)), _edge_gens(C4)),
    "bb-c5": lambda: (BBOracle(flag_completion(C5)), _edge_gens(C5)),
    # W_K x| Z/3 for the rotation of the 12-cycle, on V' and the rotation
    "j-c12-z3": lambda: (SemidirectEngine(C12_Z3), [vertex_symbol(v) for v in choose_orbits(C12_Z3).vprime] + ["g"]),
}


@pytest.mark.parametrize("name", sorted(ORACLES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_key_extended_by_a_word_is_the_key_of_the_product(name, data):
    oracle, gens = ORACLES[name]()
    words_ = st.lists(st.tuples(st.sampled_from(gens), st.sampled_from((1, -1))), max_size=8).map(tuple)
    w1, w2 = data.draw(words_), data.draw(words_)
    assert oracle.normal_form(w2, oracle.normal_form(w1)) == oracle.normal_form(w1 + w2)
    assert oracle.normal_form((), oracle.normal_form(w1)) == oracle.normal_form(w1)


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


# SHA-256 of dumps() and to_dot(), computed with the whole word renormalised
# at every move
@pytest.mark.parametrize("oracle, gens, radius, json_sha, dot_sha", [
    (lambda: RacgOracle(C5), list(C5.vertices), 5,
     "b462e29c9f536e89bba3c59e5d41b4669a32acc9ee93ede5dc6ba0f3fc8f0427",
     "18b96faebdc77e68f6a1b62cccd365ecbdd576f6f29e5b103d6b7f804fd7cd4f"),
    (lambda: RaagOracle(flag_completion(C5)), list(C5.vertices), 4,
     "d7a1757faf6b5ec03f9c9ee95c9baa78aa115c434089f1e52d38ad3f0e274314",
     "e1ba7fcf918f273598cc3351b9a96b970c13113e694bba1b2f30839b862aa120"),
    (lambda: BBOracle(flag_completion(C4)), _edge_gens(C4), 4,
     "2fc44176b9f5f9ad0c5858f5119aa3ee6d83f7c6b036c7768576ac2e5b0246b7",
     "95fe397e0105cafe57f505df112f2d1bb6631e0ad2785535f5a45002f85c8ff1"),
    (lambda: FreeGroupOracle(["a", "b"]), ["a", "b"], 3,
     "750e5f89f79d1656e3039ac2fe208ec08e75b4314bf2f22d29e03355249622e6",
     "760ec20af31164bbc17ef673d8c0094a3dfcbc68e2db87e1f3567e2692ecff1c"),
    (lambda: ZModOracle(5), ["t"], 4,
     "b29e5492aca3be3b2e8b324d44f455f82bbbde6966017249662059b31c40389f",
     "00d204e9aad9de21b54dac9628a014d33695ab19d105a69780ed734bd7c0aa30"),
], ids=["racg-c5-r5", "raag-c5-r4", "bb-c4-r4", "free-ab-r3", "zmod5-r4"])
def test_frozen_ball_bytes(oracle, gens, radius, json_sha, dot_sha):
    ball = build_ball(oracle(), gens, radius)
    assert _digest(ball.dumps()) == json_sha
    assert _digest(ball.to_dot()) == dot_sha


# ---------------------------------------------------------------------------
# build_ball against the reference
# ---------------------------------------------------------------------------


@st.composite
def _random_oracles(draw):
    """A right-angled Coxeter, right-angled Artin or Bestvina-Brady oracle of
    a random graph on at most 5 vertices, or one of ``ORACLES``, with its
    generators in a drawn order."""
    kind = draw(st.sampled_from(("racg", "raag", "bb", "fixed")))
    if kind == "fixed":
        oracle, gens = ORACLES[draw(st.sampled_from(sorted(ORACLES)))]()
    else:
        vs = "01234"[: draw(st.integers(1, 5))]
        pairs = list(itertools.combinations(vs, 2))
        g = graph(vs, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
        oracle, gens = {
            "racg": lambda: (RacgOracle(g), list(g.vertices)),
            "raag": lambda: (RaagOracle(flag_completion(g)), list(g.vertices)),
            "bb": lambda: (BBOracle(flag_completion(g)), _edge_gens(g)),
        }[kind]()
    return oracle, draw(st.permutations(gens))


@settings(max_examples=150, deadline=None)
@given(oracle_gens=_random_oracles(), radius=st.integers(0, 3))
def test_build_ball_equals_the_reference(oracle_gens, radius):
    oracle, gens = oracle_gens
    ball = build_ball(oracle, gens, radius)
    want = whole_ball_reference.build_ball(oracle, gens, radius)
    assert ball == want
    # the views derived on first use equal the reference's eager ones
    assert (ball.vertices, ball.adjacency, ball.edge_letters) == (want.vertices, want.adjacency, want.edge_letters)
    assert (ball.dumps(), ball.to_dot()) == (want.dumps(), want.to_dot())
    # the neighbour lists come sorted without a sort
    nbrs = ball.neighbor_map()
    assert all(pairs == sorted(pairs, key=lambda t: t[0]) for pairs in nbrs.values())


def test_ball_moves_once_per_involution(monkeypatch):
    """Every generator of W(C5) is an involution, so after the centre's pass
    each vertex makes one move per generator: the radius-3 ball with its rim,
    61 vertices, takes 1 + 10 + 60 * 5 normal forms, not 1 + 61 * 10."""
    c5 = graph("01234", [("0", "1"), ("1", "2"), ("2", "3"), ("3", "4"), ("4", "0")])
    oracle, calls = RacgOracle(c5), []
    real = RacgOracle.normal_form

    def counted(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(RacgOracle, "normal_form", counted)
    ball = build_ball(oracle, list("01234"), 3)
    assert (len(ball.vertices), len(calls)) == (61, 1 + 10 + 60 * 5)
    monkeypatch.setattr(RacgOracle, "normal_form", real)
    want = whole_ball_reference.build_ball(oracle, list("01234"), 3)
    assert ball == want and ball.dumps() == want.dumps()


def test_spectrum_reads_only_the_neighbour_map(monkeypatch):
    """The spectrum of BB(C4) to horizon 6 makes no ``BallVertex`` and
    derives neither edge view of its ball."""
    made = []
    monkeypatch.setattr(cayley, "BallVertex", lambda *a: made.append("vertex") or BallVertex(*a))
    for name in ("adjacency", "edge_letters"):
        view = functools.cached_property(lambda b, f=vars(CayleyBall)[name].func, n=name: made.append(n) or f(b))
        view.__set_name__(CayleyBall, name)
        monkeypatch.setattr(CayleyBall, name, view)
    oracle, gens = ORACLES["bb-c4"]()
    assert spectrum(oracle, gens, 6).lengths() == (4,)
    assert made == []
    # while a caller that reads the views is seen building each once
    ball = build_ball(oracle, gens, 2)
    ball.to_dot()
    ball.adjacency
    assert made == ["vertex"] * len(ball.words) + ["edge_letters", "adjacency"]


def test_ball_views_are_built_once_on_first_use():
    ball = build_ball(*ORACLES["bb-c4"](), 2)
    names = ("vertices", "adjacency", "edge_letters")
    assert not set(names) & set(vars(ball))
    for name in names:
        assert getattr(ball, name) is getattr(ball, name)
    assert ball.neighbor_map() is ball.neighbor_map()


@settings(max_examples=60, deadline=None)
@given(oracle_gens=_random_oracles(), radius=st.integers(0, 3))
def test_ball_vertex_word_is_its_parent_word_plus_one_letter(oracle_gens, radius):
    oracle, gens = oracle_gens
    ball = build_ball(oracle, gens, radius)
    nbrs = ball.neighbor_map()
    by_word = {v.word: v for v in ball.vertices}
    moves = {((s, e),) for s in gens for e in (1, -1)}
    for v in ball.vertices[1:]:
        parent = by_word[v.word[:-1]]
        assert v.word[-1:] in moves and parent.dist == v.dist - 1 == len(parent.word)
        # the edge that found the vertex reads the letter its word gained
        assert dict(nbrs[parent.vid])[v.vid] == v.word[-1:]
    # and the words name distinct elements
    assert len({oracle.normal_form(v.word) for v in ball.vertices}) == len(ball.vertices)


# ---------------------------------------------------------------------------
# closed_walks against the per-length reference
# ---------------------------------------------------------------------------


@st.composite
def _connected_nbrs(draw):
    """A random connected graph on at most 8 vertices as a neighbour map,
    each neighbour list in a drawn order.  Each edge reads a letter one way
    and its inverse the other, or, as a spanning-tree edge of a finite graph
    does, the empty word."""
    n = draw(st.integers(1, 8))
    edges = {frozenset((i, draw(st.integers(0, i - 1)))) for i in range(1, n)}
    pairs = list(itertools.combinations(range(n), 2))
    if pairs:
        edges |= {frozenset(p) for p in draw(st.lists(st.sampled_from(pairs), max_size=5))}
    nbrs = {v: [] for v in range(n)}
    for u, v in sorted(sorted(e) for e in edges):
        letter = draw(st.sampled_from(((), ((f"x{u}_{v}", 1),))))
        nbrs[u].append((v, letter))
        nbrs[v].append((u, tuple((s, -e) for s, e in reversed(letter))))
    return {v: draw(st.permutations(pairs_)) for v, pairs_ in nbrs.items()}


@settings(max_examples=200, deadline=None)
@given(nbrs=_connected_nbrs(), max_len=st.integers(0, 8), data=st.data())
def test_closed_walks_equal_the_per_length_reference(nbrs, max_len, data):
    every = data.draw(st.permutations(sorted(nbrs)))
    one = (data.draw(st.sampled_from(sorted(nbrs))),)
    for bases in (every, one):
        assert closed_walks(nbrs, max_len, bases) == per_length_closed_walks.closed_walks(
            nbrs, max_len, bases
        )


# the Petersen graph and the cube, each with closed walks of length 10 that
# pass through a base twice
PETERSEN = graph(
    [str(i) for i in range(10)],
    [(str(i), str((i + 1) % 5)) for i in range(5)] + [(str(i), str(i + 5)) for i in range(5)]
    + [(str(5 + i), str(5 + (i + 2) % 5)) for i in range(5)],
)
CUBE = graph(
    [str(i) for i in range(8)],
    [(str(a), str(a ^ (1 << b))) for a in range(8) for b in range(3) if a < a ^ (1 << b)],
)
BOW_TIE = graph("01234", [("0", "1"), ("1", "2"), ("2", "0"), ("0", "3"), ("3", "4"), ("4", "0")])


def test_closed_walks_through_the_base_twice():
    """Two triangles sharing the base: at length 6, each triangle walked
    twice and the two figure eights, which pass through the base twice."""
    found = closed_walks(_graph_nbrs(BOW_TIE), 6, ("0",))
    assert [c for c, _ in found] == [
        ("0", "1", "2"),
        ("0", "3", "4"),
        ("0", "1", "2", "0", "1", "2"),
        ("0", "1", "2", "0", "3", "4"),
        ("0", "1", "2", "0", "4", "3"),
        ("0", "3", "4", "0", "3", "4"),
    ]
    for length in range(3, 7):
        assert sum(len(c) == length for c, _ in found) == _brute_force_closed_walks(BOW_TIE, length)


@pytest.mark.parametrize("nbrs, max_len, bases", [
    (lambda: _graph_nbrs(BOW_TIE), 8, ("0",)),
    (lambda: _graph_nbrs(BOW_TIE), 8, ("3", "0", "1", "4", "2")),
    (lambda: build_ball(RacgOracle(C5), list(C5.vertices), 5).neighbor_map(), 7, (0,)),
    (lambda: build_ball(RacgOracle(C5), list(C5.vertices), 5).neighbor_map(), 7, range(6)),
    (lambda: build_ball(BBOracle(flag_completion(C4)), _edge_gens(C4), 4).neighbor_map(), 6, (0,)),
    (lambda: build_ball(BBOracle(flag_completion(C4)), _edge_gens(C4), 4).neighbor_map(), 6, range(6)),
    (lambda: _graph_nbrs(PETERSEN), 10, PETERSEN.vertices),
    (lambda: _graph_nbrs(CUBE), 10, CUBE.vertices),
], ids=["bow-tie", "bow-tie-every-base", "racg-c5", "racg-c5-six-bases", "bb-c4", "bb-c4-six-bases",
        "petersen-every-base", "cube-every-base"])
def test_closed_walks_of_fixed_maps_equal_the_per_length_reference(nbrs, max_len, bases):
    nbrs = nbrs()
    want = per_length_closed_walks.closed_walks(nbrs, max_len, bases)
    assert want and closed_walks(nbrs, max_len, bases) == want


# ---------------------------------------------------------------------------
# closed_loops: where its enumeration is conclusive, and the label bar
# ---------------------------------------------------------------------------

spectrum_mod = sys.modules["tautloop.spectrum"]
K4 = graph("0123", list(itertools.combinations("0123", 2)))
P4 = graph("0123", [("0", "1"), ("1", "2"), ("2", "3")])


def _classes(loops):
    """The (length, cyclic word) classes of a loop enumeration."""
    return {(len(c), canonical_cyclic(w)) for w, c in zip(loops.words, loops.vertex_cycles)}


def test_an_off_centre_base_is_conclusive_within_the_ball_around_it():
    """A closed walk of length n through a base at distance d from the centre
    stays within d + n/2 of the centre, so a ball of radius r holds them all
    for n <= 2(r - d), and one more with the rim.  The group moves the centre
    to the base, so there the base has the centre's cyclic words."""
    raag = build_ball(RaagOracle(flag_completion(C4)), list(C4.vertices), 2)
    off = closed_loops(raag, 4, 1)
    assert not off.conclusive
    assert len(_classes(off)) == 2 and len(_classes(closed_loops(raag, 4, 0))) == 4
    racg = build_ball(RacgOracle(C5), list(C5.vertices), 3)
    off = closed_loops(racg, 6, 1)
    assert not off.conclusive
    assert len(_classes(off)) == 14 and len(_classes(closed_loops(racg, 6, 0))) == 20
    for ball in (build_ball(RaagOracle(flag_completion(C4)), list(C4.vertices), 3), racg):
        assert len(ball.words[1]) == 1
        for max_len in (4, 5):
            off = closed_loops(ball, max_len, 1)
            assert off.conclusive and _classes(off) == _classes(closed_loops(ball, max_len, 0))


def test_closed_loops_rejects_a_base_outside_the_ball():
    ball = build_ball(ZModOracle(7), ["t"], 2)
    with pytest.raises(ValueError, match="vertex outside the ball"):
        closed_loops(ball, 4, 99)


def _thin(walks, pairs=()):
    """The first (word, vertex cycle) pair of each length and cyclic word."""
    return spectrum_mod._one_loop_per_cyclic_word(((w, c) for c, w in walks), pairs)


def _coset(gens, relators, pairs=()):
    return CosetTableOracle(GroupPresentation.build(gens, [word(r) for r in relators], pairs))


A, B, C, A_ = ("A", 1), ("b", 1), ("c", 1), ("A", -1)
# Z/3 x Z/3 = <A, b>, with a = A^-1 a formal inverse or c = A a second name
Z3_SQUARED_PAIR = [(A, A, A), (B, B, B), (A, B, A_, ("b", -1))]
# name -> (oracle, generators, inverse pairs, horizon)
LABEL_BAR_CASES = {
    **{f"racg-{n}-7": (lambda g=g: (RacgOracle(g), list(g.vertices), (), 7))
       for n, g in (("c4", C4), ("c5", C5), ("p4", P4))},
    **{f"raag-c{len(g.vertices)}-6": (lambda g=g: (RaagOracle(flag_completion(g)), list(g.vertices), (), 6))
       for g in (C4, C5)},
    **{f"bb-c{len(g.vertices)}-6": (lambda g=g: (BBOracle(flag_completion(g)), _edge_gens(g), (), 6))
       for g in (C4, C5)},
    "free-pair-10": lambda: (*ORACLES["free-pair"](), (("a", "A"),), 10),
    "zmod5-10": lambda: (ZModOracle(5), ["t"], (), 10),
    "raag-c4-8": lambda: (RaagOracle(flag_completion(C4)), list(C4.vertices), (), 8),
    "bb-c4-8": lambda: (BBOracle(flag_completion(C4)), _edge_gens(C4), (), 8),
    "bb-k4-6": lambda: (BBOracle(flag_completion(K4)), _edge_gens(K4), (), 6),
    **{f"s3-pair-{'-'.join(gens)}": (lambda gens=gens: (
        _coset(["A", "a", "b"], [(A, A, A), (B, B), (A, B) * 2], [("A", "a")]), gens, (("A", "a"),), 6))
       for gens in (["A", "a", "b"], ["a", "A", "b"])},
    **{f"z3xz3-pair-{'-'.join(gens)}": (lambda gens=gens: (
        _coset(["A", "a", "b"], Z3_SQUARED_PAIR, [("A", "a")]), gens, (("A", "a"),), 7))
       for gens in (["A", "a", "b"], ["a", "A", "b"])},
    "z3xz3-duplicate": lambda: (
        _coset(["A", "b", "c"], [(A, A, A), (B, B, B), (A, B, A_, ("b", -1)), (C, A_)]), ["A", "b", "c"], (), 7),
}


def _assert_label_bar_keeps_the_thinned_loops(oracle, gens, pairs, horizon):
    """The loops of ``closed_loops`` at the centre of the ball that a spectrum
    builds, thinned to one per cyclic word, equal those of the walks with the
    bar on each base edge alone, pair for pair and in order.  Returns the
    two walk counts."""
    ball = build_ball(oracle, gens, horizon // 2, _rim=horizon % 2 == 1)
    loops = closed_loops(ball, horizon, ball.center)
    reference = closed_walks(ball.neighbor_map(), horizon, (ball.center,))
    assert loops.conclusive
    assert _thin(zip(loops.vertex_cycles, loops.words), pairs) == _thin(reference, pairs)
    return len(loops.words), len(reference)


@pytest.mark.parametrize("name", sorted(LABEL_BAR_CASES))
def test_label_bar_keeps_every_thinned_loop(name):
    _assert_label_bar_keeps_the_thinned_loops(*LABEL_BAR_CASES[name]())


def test_label_bar_walks_each_cyclic_word_fewer_times():
    """Walk counts with the label bar and with the base-edge bar alone."""
    counts = {name: _assert_label_bar_keeps_the_thinned_loops(*LABEL_BAR_CASES[name]())
              for name in ("bb-c4-6", "bb-c4-8", "racg-c5-7")}
    assert counts == {"bb-c4-6": (10, 32), "bb-c4-8": (195, 712), "racg-c5-7": (20, 20)}
    oracle, gens, _, _ = LABEL_BAR_CASES["raag-c4-8"]()
    ball = build_ball(oracle, gens, 4)
    loops = closed_loops(ball, 8, ball.center)
    reference = closed_walks(ball.neighbor_map(), 8, (ball.center,))
    assert sum(len(c) == 8 for c in loops.vertex_cycles) == 1072
    assert sum(len(c) == 8 for c, _ in reference) == 3184
    assert sum(len(c) == 8 for _, c in _thin(reference)) == 424


@settings(max_examples=80, deadline=None)
@seed(22)
@given(oracle_gens=_random_oracles(), data=st.data())
def test_label_bar_keeps_every_thinned_loop_of_random_oracles(oracle_gens, data):
    oracle, gens = oracle_gens
    horizon = data.draw(st.integers(3, 7 if len(gens) <= 4 else 5))
    _assert_label_bar_keeps_the_thinned_loops(oracle, gens, (), horizon)


@pytest.mark.parametrize("make, max_len, base", [
    (lambda: build_ball(RacgOracle(C5), list(C5.vertices), 3), 7, 0),
    (lambda: build_ball(RaagOracle(flag_completion(C4)), list(C4.vertices), 2), 6, 0),
    (lambda: build_ball(RaagOracle(flag_completion(C4)), list(C4.vertices), 3), 6, 1),
], ids=["involution", "inconclusive-length", "off-centre-past-its-length"])
def test_closed_loops_keep_the_base_edge_bar_where_the_label_bar_loses_loops(make, max_len, base):
    """With an involution, or without every walk through the base in the
    ball, closed_loops walks as the base-edge bar alone does; the label bar
    would lose cyclic words there."""
    ball = make()
    loops = closed_loops(ball, max_len, base)
    reference = closed_walks(ball.neighbor_map(), max_len, (base,))
    assert list(zip(loops.vertex_cycles, loops.words)) == reference
    assert _thin(closed_walks(ball.neighbor_map(), max_len, (base,), True)) != _thin(reference)


def test_a_negative_radius_is_rejected_with_its_value():
    with pytest.raises(ValueError, match="^radius must be nonnegative, got -2$"):
        build_ball(ZModOracle(5), ["t"], -2)


def test_a_cyclic_group_of_negative_order_is_rejected():
    with pytest.raises(ValueError, match="^order must be nonnegative$"):
        ZModOracle(-1)
