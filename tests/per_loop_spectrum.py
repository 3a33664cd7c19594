"""Reference per-loop spectrum and report format 1, kept for the tests.

``per_loop`` runs the library with every loop of a length claimed, one claim
per rotation of a cyclic word, as the library did before it kept one loop
per cyclic word, and with a ball's walks barred on each base edge alone, as
before they barred every edge of an explored label.  ``format1`` is the
earlier report writer, which wrote each claim's presentation into the claim.
``to_format2`` turns such a report into the one the library writes now, in
two steps: it drops the later claims of each repeated cyclic word, then
moves each length's shared presentation up to the length.  The library's
``Spectrum.dumps()`` must equal that, byte for byte.
"""

from __future__ import annotations

import contextlib
import json
import sys
from unittest import mock

from tautloop import cayley, words

spectrum_mod = sys.modules["tautloop.spectrum"]


@contextlib.contextmanager
def per_loop():
    """Run the library's entry points with every loop of a length claimed,
    walked with the bar on each base edge alone."""
    walks = cayley.closed_walks

    def base_edge_bar(nbrs, max_len, bases, _by_label=False):
        return walks(nbrs, max_len, bases)

    with (
        mock.patch.object(spectrum_mod, "_one_loop_per_cyclic_word", lambda loops, _pairs: list(loops)),
        mock.patch.object(cayley, "closed_walks", base_edge_bar),
    ):
        yield


def format1(sp) -> dict:
    """The report as format 1 wrote it: no format, a presentation per claim."""
    return {
        "horizon": sp.horizon,
        "statuses": [
            {
                "length": s.length,
                "status": s.status,
                "vacuous": s.vacuous,
                "claims": [
                    {
                        "word": words.to_json(c.word),
                        "presentation": c.presentation.to_json(),
                        "verdict": c.state.to_json(),
                    }
                    for c in s.claims
                ],
            }
            for s in sp.statuses
        ],
    }


def to_format2(report: dict) -> dict:
    """A format-1 report with one claim per cyclic word and one presentation
    per length; every claim of a length must carry the same presentation."""
    out = dict(report, format=2, statuses=[])
    for status in report["statuses"]:
        status = dict(status)
        kept = {}
        for claim in status["claims"]:
            form = words.canonical_cyclic(words.from_json(claim["word"]))
            kept.setdefault(form, claim)
        claims = list(kept.values())
        if claims:
            status["presentation"] = claims[0]["presentation"]
            assert all(c["presentation"] == status["presentation"] for c in claims)
        status["claims"] = [{k: v for k, v in c.items() if k != "presentation"} for c in claims]
        out["statuses"].append(status)
    return out


def dumps(report: dict) -> str:
    return json.dumps(report, sort_keys=True)
