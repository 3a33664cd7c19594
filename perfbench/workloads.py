"""Workloads of the tautloop benchmark: inputs, frozen answers and the gate.

Each workload is a closed loop with one caller: a batch job that submits its
next input only after the previous answer has been certified, that is solved
by the public library call and then replayed certificate by certificate with
``verify_certificate``.

The seed relabels the vertices of every graph.  Taut lengths, girths and
kernel lengths do not depend on labels, so the frozen answers below hold for
every seed.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
from collections import deque
from dataclasses import dataclass

from tautloop import cayley, word_engine
from tautloop.complexes import EdgeLoop, OmegaSet, SimpleGraph, flag_completion
from tautloop.presentations import Homomorphism, build_P

# ``import tautloop.spectrum`` yields the function of that name, not the module.
spectrum_mod = sys.modules["tautloop.spectrum"]

WORKLOADS = ("racg-c5-spectrum", "bb-c4-spectrum", "kernel-c4", "graph-spectra")


def _cycle(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def _generalized_petersen(n: int, k: int) -> list[tuple[int, int]]:
    return (
        _cycle(n)
        + [(i, n + i) for i in range(n)]
        + [(n + i, n + (i + k) % n) for i in range(n)]
    )


# name -> (vertex count, edges, girth); the girth is also recomputed by BFS
GRAPHS = {
    "petersen": (10, _generalized_petersen(5, 2), 5),
    "heawood": (14, _cycle(14) + [(i, (i + 5) % 14) for i in range(0, 14, 2)], 6),
    "mobius-kantor": (16, _generalized_petersen(8, 3), 6),
    "cube": (8, [(a, a ^ (1 << b)) for a in range(8) for b in range(3) if a < a ^ (1 << b)], 4),
}

KERNEL_BUDGET = word_engine.Budget(max_cosets=200, max_deductions=20_000, max_search_depth=1)
KERNEL_ANSWER = {
    "found": False,
    "length": None,
    "word": None,
    "certified_lower_bound": 6,
    "minimal_up_to_unknowns": False,
    "unknown_count": 0,
}


def relabel(n: int, edges, rng: random.Random) -> tuple[SimpleGraph, list[str]]:
    """The graph on vertices '0'..'n-1' in which vertex i is named names[i]."""
    perm = list(range(n))
    rng.shuffle(perm)
    names = [str(p) for p in perm]
    graph = SimpleGraph.build([str(i) for i in range(n)], [(names[u], names[v]) for u, v in edges])
    return graph, names


def bfs_girth(graph: SimpleGraph) -> int:
    """Length of a shortest cycle, by a breadth-first search from every vertex."""
    best = len(graph.vertices) + 1
    for root in graph.vertices:
        dist = {root: 0}
        parent = {root: None}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in graph.neighbors(u):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
                elif parent[u] != v:
                    best = min(best, dist[u] + dist[v] + 1)
    return best


def _digest(report: str) -> str:
    return hashlib.sha256(report.encode()).hexdigest()


@dataclass(frozen=True)
class Op:
    """One checked operation: a length status, or the one kernel search."""

    key: str
    expected: str
    got: str
    report: str  # SHA-256 of the report bytes
    claims: tuple  # (presentation, TriState) pairs to replay


@dataclass(frozen=True)
class SpectrumJob:
    """A spectrum call whose frozen answer is its set of taut lengths."""

    label: str
    func: str  # "spectrum" or "spectrum_of_graph"
    args: tuple
    taut: tuple[int, ...]  # every other length up to the horizon is not taut

    def solve(self):
        # looked up at call time, so that traced runs see their wrappers
        return getattr(spectrum_mod, self.func)(*self.args)

    def ops(self, sp) -> list[Op]:
        return [
            Op(
                f"{self.label}/{s.length}",
                spectrum_mod.TAUT if s.length in self.taut else spectrum_mod.NOT_TAUT,
                s.status,
                _digest(json.dumps(s.to_json(), sort_keys=True)),
                tuple((c.presentation, c.state) for c in s.claims),
            )
            for s in sp.statuses
        ]


@dataclass(frozen=True)
class KernelJob:
    """A shortest-kernel-element search; its answer carries no certificate."""

    label: str
    args: tuple
    kwargs: dict

    def solve(self):
        return word_engine.kernel_shortest_element(*self.args, **self.kwargs)

    def ops(self, result) -> list[Op]:
        report = json.dumps(result.to_json(), sort_keys=True)
        return [Op(self.label, json.dumps(KERNEL_ANSWER, sort_keys=True), report, _digest(report), ())]


def build(name: str, seed: int) -> list:
    """The inputs of one workload, in the order the batch job submits them."""
    rng = random.Random(seed)
    if name == "racg-c5-spectrum":
        graph = relabel(5, _cycle(5), rng)[0]
        return [SpectrumJob(name, "spectrum", (cayley.RacgOracle(graph), list(graph.vertices), 7), (4,))]
    if name == "bb-c4-spectrum":
        graph = relabel(4, _cycle(4), rng)[0]
        gens = [f"e:{u}:{v}" for u, v in graph.sorted_edges()]
        return [SpectrumJob(name, "spectrum", (cayley.BBOracle(flag_completion(graph)), gens, 6), (4,))]
    if name == "kernel-c4":
        graph, names = relabel(4, _cycle(4), rng)
        cx = flag_completion(graph)
        boundary = OmegaSet((EdgeLoop(tuple(names)),))
        pres_s, pres_t = build_P(cx, boundary, {0}), build_P(cx, boundary, {0, 2})
        hom = word_engine.BBImageHom(cx)
        args = (pres_s, pres_t, Homomorphism.identity_on_generators(pres_s, pres_t), 5, KERNEL_BUDGET)
        return [KernelJob(name, args, {"homs_s": (hom,), "homs_t": (hom,)})]
    if name == "graph-spectra":
        jobs = []
        for label, (n, edges, girth) in GRAPHS.items():
            graph = relabel(n, edges, rng)[0]
            found = bfs_girth(graph)
            if found != girth:
                raise RuntimeError(f"{label}: BFS girth {found} != frozen {girth}")
            jobs.append(SpectrumJob(label, "spectrum_of_graph", (graph, 10), (found,)))
        return jobs
    raise ValueError(f"unknown workload {name!r}")


def certify(job, answer, reference: dict[str, str]) -> tuple[float, list[Op], list[str]]:
    """Replay every certificate of an answer and check the answer.

    An operation fails when it is unknown or differs from the frozen answer,
    when one of its certificates fails replay, or when its report bytes differ
    from those first recorded in ``reference``.  Returns the replay time, the
    operations and the keys of the failed ones.
    """
    ops = job.ops(answer)
    verify_s = 0.0
    failed = []
    for op in ops:
        start = time.perf_counter()
        replayed = all(word_engine.verify_certificate(pres, state) for pres, state in op.claims)
        verify_s += time.perf_counter() - start
        if op.got != op.expected or not replayed or reference.setdefault(op.key, op.report) != op.report:
            failed.append(op.key)
    return verify_s, ops, failed
