"""Reference ball build and spectrum ball, kept for the tests.

``build_ball`` is the earlier body of ``cayley.build_ball``: it keys edges by
frozensets, free-reduces each new vertex's word, always makes the last pass
that adds the edges among the vertices at distance ``radius``, and builds
every view of the ball eagerly, the neighbour map from the sorted edges.
``spectrum`` and ``taut_status`` build that ball at radius (h + 1)//2 + 1 for
the horizon h, with its rim edges, whatever the loops and their shortcuts can
reach.  The library builds the smallest ball that gives the same answer, so
its balls must equal ``build_ball`` and its spectra these, byte for byte;
both keep one loop per cyclic word in the same way.
"""

from __future__ import annotations

from tautloop import cayley, words
from tautloop.cayley import BallVertex, CayleyBall
from tautloop.spectrum import Spectrum, _one_loop_per_cyclic_word, _statuses
from tautloop.word_engine import Budget


def build_ball(oracle, gens, radius: int) -> CayleyBall:
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    moves = [((s, exp),) for s in gens for exp in (1, -1)]
    keys = [oracle.normal_form(())]
    key_to_id = {keys[0]: 0}
    verts = [BallVertex(0, (), 0)]
    letters: dict[frozenset[int], tuple] = {}
    frontier = [0]
    for dist in range(1, radius + 2):
        nxt = []
        for vid in frontier:
            start = keys[vid]
            for mv in moves:
                key = oracle.normal_form(mv, start)
                if key not in key_to_id and dist <= radius:
                    key_to_id[key] = len(verts)
                    nxt.append(len(verts))
                    keys.append(key)
                    verts.append(BallVertex(len(verts), words.free_reduce(verts[vid].word + mv), dist))
                other = key_to_id.get(key)
                if other is not None and other != vid:
                    e = frozenset((vid, other))
                    if e not in letters:
                        letters[e] = mv if vid < other else words.invert(mv)
        frontier = nxt
    edge_letters = tuple(
        (min(e), max(e), letters[e]) for e in sorted(letters, key=lambda e: sorted(e))
    )
    tag = getattr(oracle, "tag", type(oracle).__name__)
    nbrs = {v.vid: [] for v in verts}
    for u, v, letter in edge_letters:  # sorted, so each list is: smaller neighbours first
        nbrs[u].append((v, letter))
        nbrs[v].append((u, words.invert(letter)))
    ball = CayleyBall(0, tuple(v.word for v in verts), nbrs, radius, tag)
    # its views are the ones built here, not derived from the neighbour map
    vars(ball).update(vertices=tuple(verts), adjacency=frozenset(letters), edge_letters=edge_letters)
    return ball


def ball_statuses(oracle, gens, horizon: int, lengths, budget: Budget, inverse_pairs=()):
    ball = build_ball(oracle, gens, (horizon + 1) // 2 + 1)
    loops = cayley.closed_loops(ball, horizon, ball.center)
    if not loops.conclusive:
        raise cayley.OracleInsufficient("ball radius does not certify loop list")
    shortcuts = cayley.Shortcuts(ball.neighbor_map(), horizon)
    pairs = _one_loop_per_cyclic_word(zip(loops.words, loops.vertex_cycles), inverse_pairs)
    return _statuses(gens, inverse_pairs, pairs, lengths, budget, shortcuts)


def spectrum(oracle, gens, horizon: int, budget: Budget | None = None, inverse_pairs=()):
    statuses = ball_statuses(
        oracle, gens, horizon, range(3, horizon + 1), budget or Budget(), inverse_pairs
    )
    return Spectrum(statuses, horizon)


def taut_status(oracle, gens, l: int, budget: Budget | None = None, inverse_pairs=()):
    return ball_statuses(oracle, gens, l, [l], budget or Budget(), inverse_pairs)[0]
