"""Self-test of the benchmark's correctness gate.

    python3 -m pytest perfbench/test_gate.py -q

The cube graph is solved to horizon 5 (taut length 4).  The gate must pass
the answer as it is, and must count an operation as failed when the frozen
answer or a certificate has been tampered with.
"""

import dataclasses
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from tautloop.word_engine import QuotientWitness  # noqa: E402


def _cube_job(taut):
    n, edges, _ = workloads.GRAPHS["cube"]
    graph = workloads.relabel(n, edges, random.Random(0))[0]
    return workloads.SpectrumJob("cube", "spectrum_of_graph", (graph, 5), taut)


def _forge_quotient_witness(sp):
    """The spectrum with its first quotient witness mapped to the identity."""
    for k, status in enumerate(sp.statuses):
        for i, claim in enumerate(status.claims):
            cert = claim.state.certificate
            if isinstance(cert, QuotientWitness):
                identity = tuple(range(cert.degree))
                forged = dataclasses.replace(cert, images=tuple((g, identity) for g, _ in cert.images))
                state = dataclasses.replace(claim.state, certificate=forged)
                claims = status.claims[:i] + (dataclasses.replace(claim, state=state),) + status.claims[i + 1:]
                statuses = list(sp.statuses)
                statuses[k] = dataclasses.replace(status, claims=claims)
                return dataclasses.replace(sp, statuses=tuple(statuses)), f"cube/{status.length}"
    raise AssertionError("no quotient witness to forge")


def test_untampered_answer_passes():
    job = _cube_job((4,))
    reference = {}
    for _ in range(2):
        _, ops, failed = workloads.certify(job, job.solve(), reference)
        assert [op.key for op in ops] == ["cube/3", "cube/4", "cube/5"]
        assert failed == []


def test_tampered_expected_answer_is_failed():
    job = _cube_job((5,))
    _, _, failed = workloads.certify(job, job.solve(), {})
    assert failed == ["cube/4", "cube/5"]


def test_tampered_certificate_is_failed():
    job = _cube_job((4,))
    forged, key = _forge_quotient_witness(job.solve())
    _, _, failed = workloads.certify(job, forged, {})
    assert failed == [key]


def test_changed_report_bytes_are_failed():
    job = _cube_job((4,))
    sp = job.solve()
    reference = {}
    workloads.certify(job, sp, reference)
    reference["cube/4"] = "0" * 64
    _, _, failed = workloads.certify(job, sp, reference)
    assert failed == ["cube/4"]
