"""The benchmark's per-layer trace wraps public tautloop names by attribute.

A name that moves or is renamed must fail here, not only in a traced
benchmark run (``perfbench/run.py --trace 1``).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402

from tautloop import word_engine  # noqa: E402
from tautloop.cayley import BBOracle  # noqa: E402
from tautloop.complexes import SimpleGraph, flag_completion  # noqa: E402

C4 = SimpleGraph.build("0123", [("0", "1"), ("1", "2"), ("2", "3"), ("3", "0")])


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
    assert m["spectrum.engine_calls"] == m["word_engine.is_trivial.calls"] > 0
    assert m["word_engine.verify_certificate.calls"] == sum(len(s.claims) for s in sp.statuses)
