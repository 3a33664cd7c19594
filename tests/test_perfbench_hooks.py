"""The benchmark's per-layer trace wraps public tautloop names by attribute.

A name that moves or is renamed must fail here, not only in a traced
benchmark run (``perfbench/run.py --trace 1``).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402

from tautloop import cayley, word_engine  # noqa: E402
from tautloop.cayley import BBOracle  # noqa: E402
from tautloop.complexes import EdgeLoop, OmegaSet, SimpleGraph, flag_completion  # noqa: E402
from tautloop.presentations import Homomorphism, build_P  # noqa: E402

C4 = SimpleGraph.build("0123", [("0", "1"), ("1", "2"), ("2", "3"), ("3", "0")])
C5 = SimpleGraph.build("01234", [(str(i), str((i + 1) % 5)) for i in range(5)])


def test_tracer_installs_runs_and_uninstalls():
    tracer = tracing.Tracer()
    tracer.install()
    installed = list(tracer._installed)
    try:
        assert all(vars(owner)[attr] is not original for owner, attr, original in installed)
        gens = [f"e:{u}:{v}" for u, v in C4.sorted_edges()]
        sp = tracing.spectrum_mod.spectrum(BBOracle(flag_completion(C4)), gens, 4)
        for status in sp.statuses:
            for claim in status.claims:
                assert word_engine.verify_certificate(claim.presentation, claim.state)
        m = tracer.metrics()
    finally:
        tracer.uninstall()
    assert all(vars(owner)[attr] is original for owner, attr, original in installed)
    assert sp.lengths() == (4,)
    assert m["spectrum.calls"] == 1
    assert m["cayley.build_ball.calls"] == 1 and m["cayley.ball_vertices"] > 0
    assert m["normal_forms.calls"] > m["cayley.ball_vertices"]
    # horizon 4 needs the ball of radius 2 without its rim edges: one call
    # for the centre and one per move from each of the 9 vertices within
    # distance 1 of it
    assert (m["cayley.ball_vertices"], m["normal_forms.calls"]) == (57, 1 + 8 * 9)
    assert m["spectrum.engine_calls"] == m["word_engine.is_trivial.calls"] > 0
    assert m["word_engine.verify_certificate.calls"] == sum(len(s.claims) for s in sp.statuses)


def test_traced_graph_spectrum_counts_its_loops():
    # graph loops are counted through loop_word, looked up on the spectrum
    # module at call time, so it must be called once per loop; without them
    # engine_calls_per_loop would read 0.  The 5-cycle is C5's one
    # cyclically reduced closed walk of length at most 6.
    tracer = tracing.Tracer()
    tracer.install()
    installed = list(tracer._installed)
    try:
        sp = tracing.spectrum_mod.spectrum_of_graph(C5, 6)
        m = tracer.metrics()
    finally:
        tracer.uninstall()
    assert all(vars(owner)[attr] is original for owner, attr, original in installed)
    assert sp.lengths() == (5,)
    assert m["spectrum.calls"] == 1
    nbrs = {v: [(u, ()) for u in C5.neighbors(v)] for v in C5.vertices}
    assert m["complexes.loop_word.calls"] == len(cayley.closed_walks(nbrs, 6, C5.vertices)) == 1
    assert m["spectrum.engine_calls_per_loop"] > 0


def test_traced_kernel_search_hands_the_engine_only_abelian_survivors():
    # the target's abelianization settles all but 48 of the 3,200 reduced
    # words up to length 4 before the engine; the hom image refutes the rest
    cx = flag_completion(C4)
    omega = OmegaSet((EdgeLoop(("0", "1", "2", "3")),))
    pres_s, pres_t = build_P(cx, omega, {0}), build_P(cx, omega, {0, 2})
    hom = word_engine.BBImageHom(cx)
    budget = word_engine.Budget(max_cosets=200, max_deductions=20_000, max_search_depth=1)
    tracer = tracing.Tracer()
    tracer.install()
    installed = list(tracer._installed)
    try:
        result = word_engine.kernel_shortest_element(
            pres_s, pres_t, Homomorphism.identity_on_generators(pres_s, pres_t), 4, budget,
            homs_s=(hom,), homs_t=(hom,),
        )
        m = tracer.metrics()
    finally:
        tracer.uninstall()
    assert all(vars(owner)[attr] is original for owner, attr, original in installed)
    assert not result.found and result.certified_lower_bound == 5
    assert m["word_engine.is_trivial.calls"] == 48
    assert m["word_engine.route.hom_image.calls"] == 48
    assert m["word_engine.route.abelian.calls"] == 0
