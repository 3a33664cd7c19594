"""Per-layer spans from wrappers around public tautloop names.

Each wrapper is installed at the attribute where the caller looks the name up
(a module global, or a method on a class) and records a span: name, start,
end, parent, and a note taken from the arguments or the result.  Spans stay in
memory; self time is a span's duration minus that of its direct children.

A span nested in a span of the same layer (``BBOracle.normal_form`` calling
``bb_image``) is counted once, by the outer span.  Work done while replaying a
certificate is counted under ``word_engine.verify.*`` only, so the other layer
metrics describe the solve.
"""

from __future__ import annotations

import sys
import time

from tautloop import cayley, normal_forms, word_engine
from tautloop.word_engine import (
    CosetEnumerationCertificate,
    FreeReductionCertificate,
    HomImageWitness,
    NormalClosureDerivation,
    QuotientWitness,
)

spectrum_mod = sys.modules["tautloop.spectrum"]

ROUTES = (
    "free_reduction",
    "abelian",
    "hom_image",
    "coset_enumeration",
    "normal_closure",
    "finite_quotient",
    "unknown",
)
CERT_KINDS = {
    FreeReductionCertificate: "free_reduction",
    QuotientWitness: "quotient_witness",
    NormalClosureDerivation: "normal_closure_derivation",
    CosetEnumerationCertificate: "coset_enumeration",
    HomImageWitness: "hom_image",
}
# routes whose certificate type names them; quotient witnesses are told apart
# in Tracer._route
ROUTE_OF = {
    FreeReductionCertificate: "free_reduction",
    HomImageWitness: "hom_image",
    CosetEnumerationCertificate: "coset_enumeration",
    NormalClosureDerivation: "normal_closure",
}
SPANS = (
    "spectrum",
    "normal_forms",
    "cayley.build_ball",
    "cayley.closed_loops",
    "presentations.truncated_presentation",
    "complexes.loop_word",
    "linalg.smith_normal_form",
    "word_engine.is_trivial",
    "word_engine.todd_coxeter",
    "word_engine.normal_closure_search",
    "word_engine.finite_quotient_search",
    "word_engine.verify_certificate",
)


class Tracer:
    """Installs the wrappers and keeps the spans of one repeat in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, note]
        self._stack = [-1]
        self._installed: list[tuple[object, str, object]] = []
        self._last_quotient = None

    def wrap(self, name: str, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, result)
            return result

        return traced

    def install(self) -> None:
        targets = [
            (spectrum_mod, "spectrum", "spectrum", None),
            (spectrum_mod, "spectrum_of_graph", "spectrum", None),
            (spectrum_mod, "truncated_presentation", "presentations.truncated_presentation",
             lambda a, r: len(r.relators)),
            (spectrum_mod, "loop_word", "complexes.loop_word", None),
            (cayley, "build_ball", "cayley.build_ball",
             lambda a, r: (len(r.vertices), len(r.adjacency))),
            (cayley, "closed_loops", "cayley.closed_loops", lambda a, r: len(r.words)),
            (cayley.RacgOracle, "normal_form", "normal_forms", None),
            (cayley.BBOracle, "normal_form", "normal_forms", None),
            (normal_forms, "bb_image", "normal_forms", None),
            (word_engine.WordProblemEngine, "is_trivial", "word_engine.is_trivial", self._route),
            (word_engine, "todd_coxeter", "word_engine.todd_coxeter",
             lambda a, r: getattr(r, "definitions", 0)),
            (word_engine, "normal_closure_search", "word_engine.normal_closure_search",
             lambda a, r: len(r.steps) if r is not None else 0),
            (word_engine, "finite_quotient_search", "word_engine.finite_quotient_search",
             self._note_quotient),
            (word_engine, "smith_normal_form", "linalg.smith_normal_form", None),
            (word_engine, "verify_certificate", "word_engine.verify_certificate",
             lambda a, r: CERT_KINDS.get(type(a[1].certificate))),
        ]
        for owner, attr, name, note in targets:
            original = vars(owner)[attr]
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, note))

    def reset(self) -> None:
        self.spans.clear()
        self._last_quotient = None

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _note_quotient(self, args, witness):
        self._last_quotient = witness
        return None

    def _route(self, args, state) -> str:
        """The engine route that decided a verdict, read from the verdict."""
        cert = state.certificate
        if state.unknown:
            return "unknown"
        if isinstance(cert, QuotientWitness):
            if cert is self._last_quotient:
                return "finite_quotient"
            # An abelianization witness sends every generator to a rotation.
            # The coset-table route only refutes words that die in the
            # abelianization, so its regular representation is nonabelian
            # and cannot consist of rotations alone.
            m = cert.degree
            if all(p == tuple((x + p[0]) % m for x in range(m)) for _, p in cert.images):
                return "abelian"
            return "coset_enumeration"
        return ROUTE_OF[type(cert)]

    def metrics(self) -> dict[str, float]:
        """Per-layer counts and times of the spans recorded since the last reset."""
        bit = {name: 1 << i for i, name in enumerate(SPANS)}
        spans = self.spans
        above = [0] * len(spans)  # bitmask of the layers of a span's ancestors
        children = [0.0] * len(spans)
        for i, (name, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                above[i] = above[parent] | bit[spans[parent][0]]
                children[parent] += end - start

        m: dict[str, float] = {}
        for name in SPANS:
            for key in ("calls", "busy_s", "self_s"):
                m[f"{name}.{key}"] = 0
        for route in ROUTES:
            m[f"word_engine.route.{route}.calls"] = 0
            m[f"word_engine.route.{route}.busy_s"] = 0
        for kind in CERT_KINDS.values():
            m[f"word_engine.verify.{kind}.busy_s"] = 0
        for key in ("cayley.ball_vertices", "cayley.ball_edges", "cayley.loops",
                    "presentations.relators", "word_engine.todd_coxeter.cosets_defined",
                    "word_engine.normal_closure_search.steps", "spectrum.engine_calls"):
            m[key] = 0
        nf_in_ball = graph_loops = 0

        verify_bit = bit["word_engine.verify_certificate"]
        for i, (name, start, end, parent, note) in enumerate(spans):
            if above[i] & bit[name]:
                continue
            if name != "word_engine.verify_certificate" and above[i] & verify_bit:
                continue
            dur = end - start
            m[f"{name}.calls"] += 1
            m[f"{name}.busy_s"] += dur
            m[f"{name}.self_s"] += dur - children[i]
            if name == "normal_forms" and above[i] & bit["cayley.build_ball"]:
                nf_in_ball += 1
            elif name == "cayley.build_ball":
                m["cayley.ball_vertices"] += note[0]
                m["cayley.ball_edges"] += note[1]
            elif name == "cayley.closed_loops":
                m["cayley.loops"] += note
            elif name == "complexes.loop_word" and above[i] & bit["spectrum"]:
                graph_loops += 1
            elif name == "presentations.truncated_presentation":
                m["presentations.relators"] += note
            elif name == "word_engine.is_trivial":
                m[f"word_engine.route.{note}.calls"] += 1
                m[f"word_engine.route.{note}.busy_s"] += dur
                if above[i] & bit["spectrum"]:
                    m["spectrum.engine_calls"] += 1
            elif name == "word_engine.todd_coxeter":
                m["word_engine.todd_coxeter.cosets_defined"] += note
            elif name == "word_engine.normal_closure_search":
                m["word_engine.normal_closure_search.steps"] += note
            elif name == "word_engine.verify_certificate" and note is not None:
                m[f"word_engine.verify.{note}.busy_s"] += dur

        vertices = m["cayley.ball_vertices"]
        loops = m["cayley.loops"] + graph_loops
        m["cayley.nf_calls_per_vertex"] = nf_in_ball / vertices if vertices else 0
        m["spectrum.engine_calls_per_loop"] = m["spectrum.engine_calls"] / loops if loops else 0
        return m
