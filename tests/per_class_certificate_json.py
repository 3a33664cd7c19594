"""Reference JSON of the five certificate classes, kept for the tests.

``to_json`` and ``from_json`` dispatch to the earlier per-class methods of
``FreeReductionCertificate``, ``QuotientWitness``,
``NormalClosureDerivation``, ``CosetEnumerationCertificate`` and
``HomImageWitness``, each of which wrote and read its own fields.  The
library writes and reads every certificate through one table of field
writers and readers instead.  It must give the same dicts, read back the same
certificates, and reject the same malformed input with the same exception
class, but for ``table_hash`` and ``hom_kind``: these read any JSON value
here, and only a JSON string in the library.
"""

from __future__ import annotations

from tautloop import words
from tautloop.word_engine import (
    CERT_TYPES,
    Budget,
    CosetEnumerationCertificate,
    FreeReductionCertificate,
    HomImageWitness,
    NormalClosureDerivation,
    QuotientWitness,
)


def _free_reduction_to_json(cert: FreeReductionCertificate) -> dict:
    return {"type": cert.kind, "word": words.to_json(cert.word)}


def _free_reduction_from_json(data: dict) -> FreeReductionCertificate:
    return FreeReductionCertificate(words.from_json(data["word"]))


def _quotient_witness_to_json(cert: QuotientWitness) -> dict:
    return {
        "type": cert.kind,
        "degree": cert.degree,
        "images": {g: list(p) for g, p in cert.images},
        "word": words.to_json(cert.word),
    }


def _quotient_witness_from_json(data: dict) -> QuotientWitness:
    return QuotientWitness(
        words.json_int(data["degree"]),
        tuple(sorted((g, tuple(map(words.json_int, words.json_list(p))))
                     for g, p in data["images"].items())),
        words.from_json(data["word"]),
    )


def _derivation_to_json(cert: NormalClosureDerivation) -> dict:
    return {
        "type": cert.kind,
        "word": words.to_json(cert.word),
        "steps": [[pos, words.to_json(ins)] for pos, ins in cert.steps],
    }


def _derivation_from_json(data: dict) -> NormalClosureDerivation:
    return NormalClosureDerivation(
        words.from_json(data["word"]),
        tuple((words.json_int(pos), words.from_json(ins)) for pos, ins in data["steps"]),
    )


def _enumeration_to_json(cert: CosetEnumerationCertificate) -> dict:
    return {
        "type": cert.kind,
        "budget": cert.budget.to_json(),
        "n_cosets": cert.n_cosets,
        "table_hash": cert.table_hash,
        "word": words.to_json(cert.word),
        "coset": cert.coset,
    }


def _enumeration_from_json(data: dict) -> CosetEnumerationCertificate:
    return CosetEnumerationCertificate(
        Budget.from_json(data["budget"]),
        words.json_int(data["n_cosets"]),
        data["table_hash"],
        words.from_json(data["word"]),
        words.json_int(data["coset"]),
    )


def _hom_image_to_json(cert: HomImageWitness) -> dict:
    return {
        "type": cert.kind,
        "hom_kind": cert.hom_kind,
        "payload": cert.payload,
        "word": words.to_json(cert.word),
        "image": words.to_json(cert.image),
    }


def _hom_image_from_json(data: dict) -> HomImageWitness:
    return HomImageWitness(
        data["hom_kind"],
        data["payload"],
        words.from_json(data["word"]),
        words.from_json(data["image"]),
    )


# certificate class -> (its writer, its reader)
_PER_CLASS = {
    FreeReductionCertificate: (_free_reduction_to_json, _free_reduction_from_json),
    QuotientWitness: (_quotient_witness_to_json, _quotient_witness_from_json),
    NormalClosureDerivation: (_derivation_to_json, _derivation_from_json),
    CosetEnumerationCertificate: (_enumeration_to_json, _enumeration_from_json),
    HomImageWitness: (_hom_image_to_json, _hom_image_from_json),
}


def to_json(cert) -> dict:
    return _PER_CLASS[type(cert)][0](cert)


def from_json(data: dict):
    """The certificate of ``data``, read by the reader of the class that
    ``CERT_TYPES`` gives for its ``"type"``."""
    return _PER_CLASS[CERT_TYPES[data["type"]]][1](data)
