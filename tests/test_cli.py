import json
import time

import pytest

from tautloop import words
from tautloop.cayley import ZModOracle
from tautloop.cli import main
from tautloop.complexes import EdgeLoop, FlagComplex, OmegaSet
from tautloop.presentations import GroupPresentation, build_P, build_RAAG
from tautloop.spectrum import spectrum
from tautloop.word_engine import PROVED, Budget, CosetEnumerationCertificate, TriState
from tautloop.words import canonical_cyclic


@pytest.fixture
def files(tmp_path):
    def dump(name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    c4 = {
        "vertices": ["0", "1", "2", "3"],
        "edges": [["0", "1"], ["1", "2"], ["2", "3"], ["3", "0"]],
    }
    c5 = {
        "vertices": ["0", "1", "2", "3", "4"],
        "edges": [["0", "1"], ["1", "2"], ["2", "3"], ["3", "4"], ["4", "0"]],
    }
    return {
        "dir": tmp_path,
        "c4": dump("c4.json", c4),
        "c5": dump("c5.json", c5),
        "boundary": dump("boundary.json", [["0", "1", "2", "3"]]),
        "dump": dump,
    }


def run(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


def test_complex_analyze(files, capsys):
    code, out = run(
        ["complex", "analyze", "--complex", files["c4"], "--omega", files["boundary"]],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["homology"]["1"] == {"rank": 1, "torsion": []}
    assert report["euler_characteristic"] == 0
    assert report["normally_generates"]["status"] == "proved"


def test_complex_analyze_refuted_omega(files, capsys):
    empty = files["dump"]("empty.json", [])
    code, out = run(
        ["complex", "analyze", "--complex", files["c4"], "--omega", empty], capsys
    )
    assert code == 1
    assert json.loads(out)["normally_generates"]["status"] == "refuted"


def test_present_p(files, capsys):
    code, out = run(
        [
            "present", "p",
            "--complex", files["c4"],
            "--omega", files["boundary"],
            "--s", "0,2",
        ],
        capsys,
    )
    assert code == 0
    pres = json.loads(out)
    assert len(pres["generators"]) == 8
    assert len(pres["relators"]) == 5


def test_present_gap_format(files, capsys):
    code, out = run(
        ["present", "racg", "--complex", files["c4"], "--format", "gap"], capsys
    )
    assert code == 0
    assert "FreeGroup" in out


def test_ball_zmod(files, capsys):
    code, out = run(["ball", "--oracle", "zmod:5", "--radius", "3"], capsys)
    assert code == 0
    assert len(json.loads(out)["vertices"]) == 5


def test_ball_budget_exhaustion(files, capsys):
    pres = files["dump"](
        "free.json", {"generators": ["a", "b"], "relators": [], "inverse_pairs": []}
    )
    code, _ = run(
        [
            "ball", "--oracle", f"coset:{pres}", "--radius", "2",
            "--budget", "cosets:20,deductions:500",
        ],
        capsys,
    )
    assert code == 3


def test_ball_coset_oracle_enumerates_within_the_budget(files, capsys):
    # the cyclic group of order 30 needs more than five cosets
    pres = files["dump"]("z30.json", {"generators": ["a"], "relators": [[["a", 1]] * 30]})
    argv = ["ball", "--oracle", f"coset:{pres}", "--radius", "1"]
    assert run(argv, capsys)[0] == 0
    assert run(argv + ["--budget", "cosets:5"], capsys)[0] == 3


def test_spectrum_of_graph(files, capsys):
    code, out = run(
        ["spectrum", "--graph", files["c5"], "--horizon", "8"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["taut_lengths"] == [5]
    assert report["chart"][2].endswith("#")


def test_spectrum_oracle_entry_point(files, capsys):
    code, out = run(
        ["spectrum", "--oracle", "zmod:4", "--horizon", "5"], capsys
    )
    assert code == 0
    assert json.loads(out)["taut_lengths"] == [4]


def test_spectrum_deterministic_output(files, capsys):
    out1 = files["dir"] / "a.json"
    out2 = files["dir"] / "b.json"
    for out in (out1, out2):
        code = main(
            ["spectrum", "--graph", files["c5"], "--horizon", "7", "--out", str(out)]
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_krelated(files, capsys):
    code, out = run(
        ["krelated", "--h1", "50", "--h2", "10", "--k", "3"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "not_related" and report["witness"] == 50


def test_schedule_golden(files, capsys):
    code, out = run(
        ["schedule", "--d", "1", "--beta", "4", "--nmax", "2", "--f", "0,3"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["constants"]["C"] == "5"
    assert [iv["upper"] for iv in report["intervals"]] == ["20", "100", "2500"]
    assert report["qi_obstruction"] == {"0": "1", "3": str(5**7)}


def test_schedule_from_complex(files, capsys):
    code, out = run(
        ["schedule", "--complex", files["c4"], "--omega", files["boundary"]],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["constants"]["beta"] == 4
    assert not report["three_in_spectrum"]


def test_schedule_rejects_large_indices(files, capsys):
    with pytest.raises(SystemExit):
        main(["schedule", "--d", "1", "--beta", "4", "--f", "21"])


def test_schedule_with_a_large_prime_C(files, capsys):
    # the square root of C^2 is simplified without counting up to C
    start = time.perf_counter()
    code, out = run(["schedule", "--d", "1", "--beta", "4", "--C", "1000000007", "--nmax", "0"], capsys)
    assert time.perf_counter() - start < 2.0
    assert code == 0 and json.loads(out)["intervals"][0]["lower"]["display"] == "1000000007"


def test_schedule_with_a_large_squarefree_radicand(files, capsys):
    # alpha = sqrt(2 / (10^9 + 7)) is simplified without counting up to 2 (10^9 + 7)
    start = time.perf_counter()
    code, out = run(["schedule", "--d", "1000000006", "--beta", "4", "--nmax", "0"], capsys)
    assert time.perf_counter() - start < 2.0
    assert code == 0 and json.loads(out)["constants"]["alpha"]["display"] == "1/1000000007*sqrt(2000000014)"


def test_schedule_with_a_large_radicand_and_a_large_prime_C(files, capsys):
    # interval 0's lower end alpha * C has the square 2 C^2 / (10^9 + 7): its
    # radicand is alpha's, carried through the product, not searched again
    start = time.perf_counter()
    argv = ["schedule", "--d", "1000000006", "--beta", "4", "--C", "1000000009", "--nmax", "0"]
    code, out = run(argv, capsys)
    assert time.perf_counter() - start < 1.0
    lower = json.loads(out)["intervals"][0]["lower"]["display"]
    assert code == 0 and lower == "1000000009/1000000007*sqrt(2000000014)"


def test_kernel_search(files, capsys):
    code, out = run(
        [
            "kernel-search",
            "--complex", files["c4"],
            "--omega", files["boundary"],
            "--s", "0",
            "--t", "0,2",
            "--radius", "3",
            "--budget", "cosets:200,deductions:20000,depth:1",
        ],
        capsys,
    )
    report = json.loads(out)
    assert report["bound_respected"]
    assert report["predicted_lower_bound"]["display"] == "2"
    assert code in (0, 3)


def spectrum_claims(sp) -> dict:
    """A bare claims list for verify-cert, report format 1: each claim
    carries its presentation."""
    claims = [c for s in sp.statuses for c in s.claims]
    return {"claims": [dict(c.to_json(), presentation=c.presentation.to_json()) for c in claims]}


def test_verify_cert_round_trip(files, capsys):
    sp = spectrum(ZModOracle(5), ["t"], 5, Budget(max_cosets=100, max_deductions=5000))
    report_path = files["dump"]("claims.json", spectrum_claims(sp))
    code, out = run(["verify-cert", report_path], capsys)
    assert code == 0
    result = json.loads(out)
    assert result["failures"] == 0 and result["checked"] >= 1


def test_verify_cert_detects_tampering(files, capsys):
    sp = spectrum(ZModOracle(5), ["t"], 5, Budget(max_cosets=100, max_deductions=5000))
    claims = spectrum_claims(sp)
    victim = claims["claims"][0]
    victim["verdict"]["status"] = (
        "proved" if victim["verdict"]["status"] == "refuted" else "refuted"
    )
    report_path = files["dump"]("bad.json", claims)
    code, out = run(["verify-cert", report_path], capsys)
    assert code == 1
    assert json.loads(out)["failures"] >= 1


def test_bad_budget_string_is_a_usage_error(files):
    with pytest.raises(SystemExit):
        main(["ball", "--oracle", "zmod:5", "--radius", "2", "--budget", "bogus"])


def test_unknown_oracle_is_a_usage_error(files):
    with pytest.raises(SystemExit):
        main(["ball", "--oracle", "wat:5", "--radius", "2"])


@pytest.fixture
def racg_c4_report(files, capsys):
    """A `spectrum --out` report: length 4 is taut, length 6 is proved not taut."""
    path = str(files["dir"] / "spectrum.json")
    code, _ = run(
        ["spectrum", "--oracle", "racg", "--complex", files["c4"], "--horizon", "6", "--out", path],
        capsys,
    )
    assert code == 0
    with open(path, encoding="utf-8") as fh:
        return path, json.load(fh)


def _length(report, length):
    return next(s for s in report["statuses"] if s["length"] == length)


def _claim(report, length, index=0):
    return _length(report, length)["claims"][index]


def _as_format1(report):
    """A format-2 spectrum report in format 1: no format, and each claim
    carries its length's presentation."""
    statuses = [
        dict(
            {k: v for k, v in s.items() if k != "presentation"},
            claims=[dict(c, presentation=s["presentation"]) for c in s["claims"]],
        )
        for s in report["statuses"]
    ]
    return dict({k: v for k, v in report.items() if k != "format"}, statuses=statuses)


def _layouts(files, name, report):
    """Paths of a format-2 spectrum report and of the same report in format 1."""
    return [files["dump"](f"{name}.json", report), files["dump"](f"{name}-1.json", _as_format1(report))]


def _one_claim(files, name, claim, presentation):
    """Paths of a bare claims list holding one claim with its presentation, and
    of a format-2 report holding it at one length, with the status it gives."""
    status = {"refuted": "taut", "proved": "not_taut"}.get(claim["verdict"]["status"], "unknown")
    length = {"length": 4, "status": status, "vacuous": False, "presentation": presentation, "claims": [claim]}
    return [
        files["dump"](f"{name}-1.json", {"claims": [dict(claim, presentation=presentation)]}),
        files["dump"](f"{name}.json", {"format": 2, "horizon": 4, "statuses": [length]}),
    ]


def test_verify_cert_reads_spectrum_report(racg_c4_report, files, capsys):
    _, report = racg_c4_report
    assert report["format"] == 2
    n_claims = sum(len(s["claims"]) for s in report["statuses"])
    for path in _layouts(files, "copy", report):
        code, out = run(["verify-cert", path], capsys)
        assert code == 0
        assert json.loads(out) == {"checked": n_claims, "failures": 0}


def test_verify_cert_rejects_swapped_claim_word(racg_c4_report, files, capsys):
    _, report = racg_c4_report
    proved, other = _claim(report, 6, 0), _claim(report, 6, 1)
    assert proved["word"] != other["word"]
    proved["word"] = other["word"]
    claims = {"claims": [c for s in _as_format1(report)["statuses"] for c in s["claims"]]}
    for path in _layouts(files, "swapped", report) + [files["dump"]("claims.json", claims)]:
        code, out = run(["verify-cert", path], capsys)
        assert code == 1
        assert json.loads(out)["failures"] == 1


def test_verify_cert_binds_free_reduction_to_its_word(racg_c4_report, files, capsys):
    _, report = racg_c4_report
    taut, pres = _claim(report, 4), _length(report, 4)["presentation"]
    bare = {"status": "proved", "certificate": {"type": "free_reduction"}}
    for path in _one_claim(files, "bare", dict(taut, verdict=bare), pres):
        assert run(["verify-cert", path], capsys)[0] == 2
    worded = {"status": "proved", "certificate": {"type": "free_reduction", "word": taut["word"]}}
    for path in _one_claim(files, "worded", dict(taut, verdict=worded), pres):
        code, out = run(["verify-cert", path], capsys)
        assert code == 1 and json.loads(out)["failures"] == 1
    cancelling = [["0", 1], ["1", 1], ["1", -1], ["0", -1]]
    honest = dict(
        taut,
        word=cancelling,
        verdict={"status": "proved", "certificate": {"type": "free_reduction", "word": cancelling}},
    )
    for path in _one_claim(files, "honest", honest, pres):
        code, out = run(["verify-cert", path], capsys)
        assert code == 0 and json.loads(out)["failures"] == 0


def test_verify_cert_fails_a_certificate_outside_its_presentation(racg_c4_report, files, capsys):
    _, report = racg_c4_report
    taut = _claim(report, 4)
    foreign = [["zz", 1]]
    witness = dict(taut["verdict"]["certificate"], word=foreign)
    forged = dict(taut, word=foreign, verdict={"status": "refuted", "certificate": witness})
    for path in _one_claim(files, "foreign", forged, _length(report, 4)["presentation"]):
        code, out = run(["verify-cert", path], capsys)
        assert code == 1 and json.loads(out) == {"checked": 1, "failures": 1}


def test_verify_cert_fails_a_quotient_witness_with_a_forged_degree(racg_c4_report, files, capsys):
    _, report = racg_c4_report
    taut = _claim(report, 4)
    witness = dict(taut["verdict"]["certificate"], degree=10**20)
    forged = dict(taut, verdict={"status": "refuted", "certificate": witness})
    for path in _one_claim(files, "degree", forged, _length(report, 4)["presentation"]):
        code, out = run(["verify-cert", path], capsys)
        assert code == 1 and json.loads(out) == {"checked": 1, "failures": 1}


def test_verify_cert_fails_cancelling_symbols_outside_its_presentation(racg_c4_report, files, capsys):
    _, report = racg_c4_report
    cancelling = [["zz", 1], ["zz", -1]]
    forged = dict(
        _claim(report, 4),
        word=cancelling,
        verdict={"status": "proved", "certificate": {"type": "free_reduction", "word": cancelling}},
    )
    for path in _one_claim(files, "cancelling", forged, _length(report, 4)["presentation"]):
        code, out = run(["verify-cert", path], capsys)
        assert code == 1 and json.loads(out) == {"checked": 1, "failures": 1}


@pytest.mark.parametrize("payload", [{}, {"vertices": ["0", "1"], "edges": [["0", "9"]]}])
def test_verify_cert_fails_a_hom_image_witness_with_a_malformed_payload(files, capsys, payload):
    pres = build_P(FlagComplex.from_json(_load(files["c4"])), OmegaSet((EdgeLoop(("0", "1", "2", "3")),)), {0})
    word = [["e:0:1", 1]]
    witness = {"type": "hom_image", "hom_kind": "bb", "payload": payload, "word": word, "image": [["0", 1], ["1", -1]]}
    claim = {"word": word, "verdict": {"status": "refuted", "certificate": witness}}
    for path in _one_claim(files, "payload", claim, pres.to_json()):
        code, out = run(["verify-cert", path], capsys)
        assert code == 1 and json.loads(out) == {"checked": 1, "failures": 1}


@pytest.mark.parametrize("hom_kind", [5, None, ["bb"]], ids=["integer", "null", "list"])
def test_verify_cert_rejects_a_hom_kind_that_is_no_json_string(files, capsys, hom_kind):
    # replay compared it with "bb" and failed the claim, with exit 1
    c4 = FlagComplex.from_json(_load(files["c4"]))
    pres = build_P(c4, OmegaSet((EdgeLoop(("0", "1", "2", "3")),)), {0})
    word = [["e:0:1", 1]]
    witness = {"type": "hom_image", "hom_kind": "bb", "payload": c4.to_json(), "word": word,
               "image": [["0", 1], ["1", -1]]}
    claim = {"word": word, "verdict": {"status": "refuted", "certificate": witness}}
    for path in _one_claim(files, "honest", claim, pres.to_json()):
        assert run(["verify-cert", path], capsys) == (0, json.dumps({"checked": 1, "failures": 0}, indent=2) + "\n")
    witness["hom_kind"] = hom_kind
    for path in _one_claim(files, "hom-kind", claim, pres.to_json()):
        code = main(["verify-cert", path])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("malformed report") and captured.err.count("\n") == 1


def test_verify_cert_replays_an_enumeration_within_its_own_budget(files, capsys):
    # a forged budget of 10^9 cosets: replay stops at the checker's budget,
    # where the commutator group's table cannot complete; below the recorded
    # budget that is inconclusive, as an honest larger budget looks the same
    a, b = ("a", 1), ("b", 1)
    pres = GroupPresentation.build(["a", "b"], [(a, b, ("a", -1), ("b", -1))])
    forged = CosetEnumerationCertificate(Budget(10**9, 10**9, 3), 1, "0" * 64, (a,), 0)
    claim = {"word": [["a", 1]], "verdict": TriState(PROVED, forged).to_json()}
    for path in _one_claim(files, "budget", claim, pres.to_json()):
        start = time.perf_counter()
        code, out = run(["verify-cert", path], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 3 and json.loads(out) == {"checked": 1, "failures": 0, "inconclusive": 1}


def test_verify_cert_of_a_report_made_under_a_larger_budget(files, capsys):
    # the cube's length-6 quotient is enumerated under a budget larger than the
    # default: replay under the default completes; under a --budget too small
    # for the enumeration the claims are inconclusive, not failed
    edges = [[str(a), str(a ^ b)] for a in range(8) for b in (1, 2, 4) if a < a ^ b]
    cube = {"vertices": list("01234567"), "edges": edges}
    path = str(files["dir"] / "cube_report.json")
    argv = ["spectrum", "--graph", files["dump"]("cube.json", cube), "--horizon", "6", "--out", path]
    assert run(argv + ["--budget", "cosets:20000,deductions:2000000"], capsys)[0] == 0
    claims = [c for s in _load(path)["statuses"] for c in s["claims"]]
    assert sum(c["verdict"]["certificate"]["type"] == "coset_enumeration" for c in claims) == 4
    code, out = run(["verify-cert", path], capsys)
    assert code == 0 and json.loads(out) == {"checked": 17, "failures": 0}
    code, out = run(["verify-cert", path, "--budget", "deductions:8"], capsys)
    assert code == 3 and json.loads(out) == {"checked": 17, "failures": 0, "inconclusive": 4}


def test_racg_c5_spectrum_to_eight_round_trips(files, capsys):
    path = str(files["dir"] / "r.json")
    argv = ["spectrum", "--oracle", "racg", "--complex", files["c5"], "--horizon", "8"]
    code, _ = run(argv + ["--out", path], capsys)
    assert code == 0
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh)["taut_lengths"] == [4]
    code, out = run(["verify-cert", path], capsys)
    assert code == 0 and json.loads(out) == {"checked": 1 + 15 + 150, "failures": 0}


def test_raag_c4_spectrum_to_six_round_trips(files, capsys):
    # one claim per cyclic word: the 144 six-loops are 24 words
    path = str(files["dir"] / "raag.json")
    argv = ["spectrum", "--oracle", "raag", "--complex", files["c4"], "--horizon", "6"]
    assert run(argv + ["--out", path], capsys)[0] == 0
    report = _load(path)
    assert report["taut_lengths"] == [4]
    assert [len(s["claims"]) for s in report["statuses"]] == [0, 1, 0, 24]
    assert ["presentation" in s for s in report["statuses"]] == [False, True, False, True]
    code, out = run(["verify-cert", path], capsys)
    assert code == 0 and json.loads(out) == {"checked": 25, "failures": 0}


@pytest.fixture
def racg_c5_report(files, capsys):
    """The `spectrum --oracle racg` report for C5 at horizon 6: taut at 4 only,
    16 claims, one of them refuted."""
    path = str(files["dir"] / "r6.json")
    argv = ["spectrum", "--oracle", "racg", "--complex", files["c5"], "--horizon", "6"]
    assert run(argv + ["--out", path], capsys)[0] == 0
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["taut_lengths"] == [4]
    code, out = run(["verify-cert", path], capsys)
    assert code == 0 and json.loads(out) == {"checked": 16, "failures": 0}
    return report


def test_verify_cert_rejects_swapped_statuses(files, capsys, racg_c5_report):
    # every claim still replays; only the statuses lie, and taut_lengths with them
    swap = {"taut": "not_taut", "not_taut": "taut"}
    for status in racg_c5_report["statuses"]:
        status["status"] = swap[status["status"]]
    racg_c5_report["taut_lengths"] = [3, 5, 6]
    for path in _layouts(files, "swapped", racg_c5_report):
        code, out = run(["verify-cert", path], capsys)
        assert code == 1 and json.loads(out) == {"checked": 16, "failures": 4}


def test_verify_cert_rejects_a_taut_length_without_its_refuted_claim(files, capsys, racg_c5_report):
    four = _length(racg_c5_report, 4)
    four["claims"] = [c for c in four["claims"] if c["verdict"]["status"] != "refuted"]
    for path in _layouts(files, "deleted", racg_c5_report):
        code, out = run(["verify-cert", path], capsys)
        assert code == 1 and json.loads(out) == {"checked": 15, "failures": 1}


def test_verify_cert_rejects_taut_lengths_that_disagree(files, capsys, racg_c5_report):
    racg_c5_report["taut_lengths"] = [4, 6]
    for path in _layouts(files, "lengths", racg_c5_report):
        code, out = run(["verify-cert", path], capsys)
        assert code == 1 and json.loads(out) == {"checked": 16, "failures": 1}


def test_verify_cert_fails_the_shortcut_claims_of_a_length_without_their_piece(files, capsys, racg_c5_report):
    # every six-loop of C5 is proved by a derivation whose first insertion is a
    # square; drop that square from the length's presentation, and exactly the
    # claims that insert it fail
    six = _length(racg_c5_report, 6)
    piece = canonical_cyclic(words.from_json(six["claims"][0]["verdict"]["certificate"]["steps"][0][1]))
    relators = [r for r in six["presentation"]["relators"] if canonical_cyclic(words.from_json(r)) != piece]
    assert len(relators) == len(six["presentation"]["relators"]) - 1
    six["presentation"]["relators"] = relators
    uses = [
        any(canonical_cyclic(words.from_json(ins)) == piece for _, ins in c["verdict"]["certificate"]["steps"])
        for c in six["claims"]
    ]
    assert 0 < sum(uses) < len(uses)
    code, out = run(["verify-cert", files["dump"]("piece.json", racg_c5_report)], capsys)
    assert code == 1 and json.loads(out) == {"checked": 16, "failures": sum(uses)}


@pytest.mark.parametrize("forge", [
    lambda r: r.update(format=1),
    lambda r: r.update(format="2"),
    lambda r: r.update(format=3),
    lambda r: r.pop("format"),
    lambda r: _claim(r, 6).update(presentation=_length(r, 6)["presentation"]),
    lambda r: _length(r, 4).pop("presentation"),
    lambda r: r.update(claims=[c for s in r.pop("statuses") for c in s["claims"]]),
], ids=["format-1", "format-string", "format-3", "no-format", "claim-presentation", "no-presentation", "claims-list"])
def test_verify_cert_rejects_a_report_of_a_bad_or_mixed_format(files, capsys, racg_c5_report, forge):
    """A format other than 2, a format-2 claim with its own presentation, a
    length with claims and no presentation, a report without a format whose
    lengths carry presentations, and a bare claims list with a format are
    each malformed."""
    forge(racg_c5_report)
    code = main(["verify-cert", files["dump"]("mixed.json", racg_c5_report)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("malformed report") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "content",
    [
        "{not json",
        json.dumps({"statuses": [{"claims": [{"word": [["0", 1]]}]}]}),
        json.dumps({"claims": [{"word": [["0", 7]], "presentation": {}, "verdict": {}}]}),
        json.dumps({"horizon": 4}),
        json.dumps([3]),
    ],
)
def test_verify_cert_malformed_report_is_a_usage_error(files, capsys, content):
    path = files["dir"] / "malformed.json"
    path.write_text(content)
    code = main(["verify-cert", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("malformed report") and captured.err.count("\n") == 1


def test_ball_with_unknown_generator_is_a_usage_error(files, capsys):
    code = main(["ball", "--oracle", "raag", "--complex", files["c4"], "--gens", "0,zz", "--radius", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "'zz'" in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "oracle, gens",
    [("bb", "zz,e:0:1"), ("raag", "0,zz"), ("racg", "0,zz"), ("zmod:5", "zz"), ("free:a,b", "a,zz")],
)
def test_spectrum_with_unknown_generator_is_a_usage_error(files, capsys, oracle, gens):
    code = main(["spectrum", "--oracle", oracle, "--complex", files["c4"], "--gens", gens, "--horizon", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "'zz'" in captured.err and captured.err.count("\n") == 1


def test_ball_with_negative_radius_is_a_usage_error(files, capsys):
    code = main(["ball", "--oracle", "zmod:5", "--radius", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "radius" in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ball", "--oracle", "zmod:5", "--radius", "2", "--budget", "foo"], "budget"),
        (["ball", "--oracle", "nope", "--radius", "2"], "oracle"),
        (["ball", "--oracle", "zmod:x", "--radius", "2"], "zmod:x"),
        (["schedule", "--d", "1", "--beta", "4", "--f", "21"], "indices"),
    ],
    ids=["budget", "oracle", "zmod-order", "schedule-index"],
)
def test_malformed_argument_exits_with_the_usage_code(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert message in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["spectrum", "kernel-search", "semiker"])
def test_negative_horizon_or_radius_is_a_usage_error(files, capsys, command):
    if command == "spectrum":
        argv = ["spectrum", "--oracle", "zmod:5", "--horizon", "-1"]
    elif command == "semiker":
        instance = _cycle_rotation_instance(files)
        argv = ["semiker", "--instance-s", instance, "--instance-t", instance, "--maxlen", "-1"]
    else:
        argv = ["kernel-search", "--complex", files["c4"], "--omega", files["boundary"],
                "--s", "0", "--t", "0,2", "--radius", "-1"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "-1" in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize("oracle, gens", [("zmod:5", "zz"), ("free:a,b", "a,zz"), ("coset", "a,zz")])
def test_ball_with_unknown_generator_is_a_usage_error_for_every_oracle(files, capsys, oracle, gens):
    if oracle == "coset":
        klein = {
            "generators": ["a", "b"],
            "relators": [[["a", 1], ["a", 1]], [["b", 1], ["b", 1]], [["a", 1], ["b", 1], ["a", 1], ["b", 1]]],
            "inverse_pairs": [],
        }
        oracle = "coset:" + files["dump"]("klein.json", klein)
    code = main(["ball", "--oracle", oracle, "--gens", gens, "--radius", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "'zz'" in captured.err and captured.err.count("\n") == 1


def exit_code(argv):
    """The exit code of a command, whether returned or raised."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_analyze_omega_on_chords_killed_by_triangles(files, capsys):
    pentagon = files["dump"]("pentagon.json", {
        "vertices": ["0", "1", "2", "3", "4"],
        "edges": [["0", "1"], ["1", "2"], ["2", "3"], ["3", "4"], ["4", "0"], ["0", "2"]],
    })
    for omega, code, status in (([["0", "1", "2", "3", "4"]], 0, "proved"), ([], 1, "refuted")):
        path = files["dump"]("omega.json", omega)
        got, out = run(["complex", "analyze", "--complex", pentagon, "--omega", path], capsys)
        assert got == code and json.loads(out)["normally_generates"]["status"] == status


def _rotation_instance(files, relators, action=None, vertices=("0", "1", "2", "3"), orbits=None):
    """An instance of <g | relators> acting on the 4-cycle, by rotation unless
    another action is given, with the given orbits or none."""
    action = action or {"g": {"0": "1", "1": "2", "2": "3", "3": "0"}}
    data = {"action": {
        "graph": {"vertices": vertices, "edges": [["0", "1"], ["1", "2"], ["2", "3"], ["3", "0"]]},
        "group": {"generators": ["g"], "relators": relators},
        "action": action,
    }}
    if orbits is not None:
        data["orbits"] = orbits
    return files["dump"]("instance.json", data)


def _not_json(files):
    path = files["dir"] / "not.json"
    path.write_text("{not json")
    return str(path)


def _collapsing_instance(files):
    return _rotation_instance(files, [[["g", 1]] * 4], {"g": {"0": "0", "1": "0", "2": "0", "3": "0"}})


def _cycle_rotation_instance(files, n=12, order=3, name="c12_z3.json"):
    """Z/order rotating the n-cycle by 4, saved without orbits; C12 with Z/3
    unless told otherwise."""
    vs = [str(i) for i in range(n)]
    return files["dump"](name, {"action": {
        "graph": {"vertices": vs, "edges": [[vs[i], vs[(i + 1) % n]] for i in range(n)]},
        "group": {"generators": ["g"], "relators": [[["g", 1]] * order]},
        "action": {"g": {v: vs[(i + 4) % n] for i, v in enumerate(vs)}},
    }})

# case -> (argv from the files fixture, exit code)
BAD_INPUT = {
    "racg-without-complex": (lambda f: ["ball", "--oracle", "racg", "--radius", "2"], 2),
    "missing-coset-file": (lambda f: ["ball", "--oracle", "coset:/nonexistent.json", "--radius", "2"], 2),
    "krelated-not-an-integer": (lambda f: ["krelated", "--h1", "1,x", "--h2", "1", "--k", "1"], 2),
    "kernel-search-not-an-integer": (
        lambda f: ["kernel-search", "--complex", f["c4"], "--omega", f["boundary"],
                   "--s", "a", "--t", "0", "--radius", "2"], 2),
    "present-missing-complex": (
        lambda f: ["present", "p", "--complex", str(f["dir"] / "missing.json"), "--omega", f["boundary"]], 2),
    "not-json": (lambda f: ["spectrum", "--graph", _not_json(f), "--horizon", "4"], 2),
    "spectrum-without-input": (lambda f: ["spectrum", "--horizon", "4"], 2),
    "semiker-malformed-action": (
        lambda f: ["semiker", "--instance-s", _collapsing_instance(f), "--instance-t", _collapsing_instance(f)], 2),
    # <g> with no relators is infinite, so its enumeration cannot complete
    "semiker-infinite-group": (
        lambda f: ["semiker", "--instance-s", _rotation_instance(f, []), "--instance-t", _rotation_instance(f, [])], 3),
    "present-j-infinite-group": (lambda f: ["present", "j", "--instance", _rotation_instance(f, [])], 3),
    # Z/3 cannot be enumerated with one coset, and its orbits are chosen within the budget
    "present-j-budget-too-small": (
        lambda f: ["present", "j", "--instance", _cycle_rotation_instance(f), "--budget", "cosets:1"], 3),
    # JSON of the wrong shape: a graph without edges, an instance without an action
    "spectrum-graph-without-edges": (
        lambda f: ["spectrum", "--graph", f["dump"]("g.json", {"vertices": ["0", "1"]}), "--horizon", "4"], 2),
    # no vertices: not a connected graph, so no vertex to root its spanning tree at
    "spectrum-empty-graph": (
        lambda f: ["spectrum", "--graph", f["dump"]("g.json", {"vertices": [], "edges": []}), "--horizon", "4"], 2),
    "analyze-complex-without-edges": (
        lambda f: ["complex", "analyze", "--complex", f["dump"]("g.json", {"vertices": ["0", "1"]})], 2),
    "present-j-without-action": (
        lambda f: ["present", "j", "--instance", f["dump"]("i.json", {"group": {}})], 2),
    # a = a^-1 is no formal-inverse pair: the presentation is malformed, not infinite
    "coset-self-pair": (
        lambda f: ["ball", "--oracle", "coset:" + f["dump"]("p.json", {
            "generators": ["a"], "relators": [], "inverse_pairs": [["a", "a"]]}), "--radius", "1"], 2),
    # a string where a list of names belongs is malformed, not read one character at a time
    "spectrum-graph-vertices-string": (
        lambda f: ["spectrum", "--graph", f["dump"]("g.json", {
            "vertices": "01234", "edges": [["0", "1"], ["1", "2"], ["2", "3"], ["3", "4"], ["4", "0"]]}),
            "--horizon", "4"], 2),
    "spectrum-graph-edge-string": (
        lambda f: ["spectrum", "--graph", f["dump"]("g.json", {"vertices": ["0", "1"], "edges": ["01"]}),
                   "--horizon", "4"], 2),
    "kernel-search-omega-loop-string": (
        lambda f: ["kernel-search", "--complex", f["c4"], "--omega", f["dump"]("o.json", ["0123"]),
                   "--s", "0", "--t", "0,2", "--radius", "2"], 2),
    "analyze-complex-vertices-string": (
        lambda f: ["complex", "analyze", "--complex", f["dump"]("g.json", {
            "vertices": "0123", "edges": [["0", "1"], ["1", "2"], ["2", "3"], ["3", "0"]]})], 2),
    "coset-generators-string": (
        lambda f: ["ball", "--oracle", "coset:" + f["dump"]("p.json", {
            "generators": "a", "relators": [[["a", 1], ["a", 1]]]}), "--radius", "1"], 2),
    "coset-pair-string": (
        lambda f: ["ball", "--oracle", "coset:" + f["dump"]("p.json", {
            "generators": ["a", "A"], "relators": [[["a", 1], ["a", 1]]], "inverse_pairs": ["aA"]}),
                   "--radius", "1"], 2),
    "coset-relator-string": (
        lambda f: ["ball", "--oracle", "coset:" + f["dump"]("p.json", {
            "generators": ["a"], "relators": ["", [["a", 1], ["a", 1]]]}), "--radius", "1"], 2),
    "present-j-graph-vertices-string": (
        lambda f: ["present", "j", "--instance", _rotation_instance(f, [[["g", 1]] * 4], vertices="0123")], 2),
    "present-j-orbit-vertices-string": (
        lambda f: ["present", "j", "--instance", _rotation_instance(f, [[["g", 1]] * 4], orbits={
            "vprime": "0", "eprime": [["0", "1"]], "gu": {"0": [], "1": [["g", -1]]}})], 2),
    "present-j-orbit-edge-string": (
        lambda f: ["present", "j", "--instance", _rotation_instance(f, [[["g", 1]] * 4], orbits={
            "vprime": ["0"], "eprime": ["01"], "gu": {"0": [], "1": [["g", -1]]}})], 2),
    "schedule-C-zero": (lambda f: ["schedule", "--d", "1", "--beta", "4", "--C", "0"], 2),
    # C^(2^22) has millions of digits: rejected before it is computed
    "schedule-nmax-22": (lambda f: ["schedule", "--d", "1", "--beta", "4", "--nmax", "22"], 2),
    # a negative index would put a float threshold C^(2^-1 - 1) in the report
    "schedule-negative-index": (lambda f: ["schedule", "--d", "1", "--beta", "4", "--fprime", "-1"], 2),
}


@pytest.mark.parametrize("case", list(BAD_INPUT))
def test_bad_input_exits_with_one_line(files, capsys, case):
    argv, code = BAD_INPUT[case]
    assert exit_code(argv(files)) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1


def test_semiker_enumerates_each_group_once_within_the_budget(files, capsys, monkeypatch):
    from tautloop.word_engine import CosetTable

    built = []
    original = CosetTable.__init__

    def counted(self, n_core, *table):
        built.append(n_core)
        original(self, n_core, *table)

    monkeypatch.setattr(CosetTable, "__init__", counted)
    instance = _cycle_rotation_instance(files)
    argv = ["semiker", "--instance-s", instance, "--instance-t", instance, "--maxlen", "3"]
    code, _ = run(argv + ["--budget", "cosets:100"], capsys)
    assert code == 0 and len(built) == 2


def test_semiker_writes_the_experiment_report(files, capsys):
    from tautloop.davis import GroupAction, choose_orbits, semiker_experiment
    from tautloop.presentations import Homomorphism

    # Z/6 rotating C24 onto Z/3 rotating C12: criterion 10's pair
    path_s = _cycle_rotation_instance(files, 24, 6, "s.json")
    path_t = _cycle_rotation_instance(files, 12, 3, "t.json")
    out = str(files["dir"] / "semiker.json")
    argv = ["semiker", "--instance-s", path_s, "--instance-t", path_t, "--maxlen", "6", "--out", out]
    assert run(argv, capsys)[0] == 0
    ga_s, ga_t = (GroupAction.from_json(_load(path)["action"]) for path in (path_s, path_t))
    quotient = Homomorphism.identity_on_generators(ga_s.group, ga_t.group)
    want = semiker_experiment((ga_s, choose_orbits(ga_s)), (ga_t, choose_orbits(ga_t)), quotient, 6)
    assert _load(out) == want.to_json()
    assert want.passed and want.kernel_words_checked == 5


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- integers and the report's shape ----------------------------------------


@pytest.fixture
def racg_c5_h7_report(files, capsys):
    """The report of `spectrum --oracle racg --complex c5.json --horizon 7`:
    a degree-3 quotient witness at length 4, and derivations at length 6 of
    which some insert at position 0."""
    path = str(files["dir"] / "r7.json")
    argv = ["spectrum", "--oracle", "racg", "--complex", files["c5"], "--horizon", "7", "--out", path]
    assert run(argv, capsys)[0] == 0
    assert run(["verify-cert", path], capsys)[0] == 0
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _certificates(report, kind):
    return [
        c["verdict"]["certificate"]
        for s in report["statuses"]
        for c in s["claims"]
        if c["verdict"]["certificate"]["type"] == kind
    ]


def _first_step_at_zero(report):
    return next(
        step for cert in _certificates(report, "normal_closure_derivation") for step in cert["steps"] if step[0] == 0
    )


def _malformed(files, capsys, report) -> bool:
    code = main(["verify-cert", files["dump"]("forged.json", report)])
    captured = capsys.readouterr()
    return code == 2 and captured.out == "" and captured.err.startswith("malformed report")


@pytest.mark.parametrize("forge", [
    lambda r: _first_step_at_zero(r).__setitem__(0, 0.5),
    lambda r: _first_step_at_zero(r).__setitem__(0, False),
    lambda r: _first_step_at_zero(r).__setitem__(0, "0"),
    lambda r: _certificates(r, "quotient_witness")[0].update(degree=3.0),
    lambda r: _certificates(r, "quotient_witness")[0].update(degree="3"),
    lambda r: next(iter(_certificates(r, "quotient_witness")[0]["images"].values())).__setitem__(0, 0.0),
], ids=["position-half", "position-false", "position-string", "degree-float", "degree-string", "image-float"])
def test_verify_cert_rejects_a_certificate_number_that_is_no_json_integer(files, capsys, racg_c5_h7_report, forge):
    # int() read each of these as the integer it rounds to, and replay passed
    forge(racg_c5_h7_report)
    assert _malformed(files, capsys, racg_c5_h7_report)


@pytest.fixture
def cube_h6_report(files, capsys):
    """The report of `spectrum --graph cube.json --horizon 6`, which holds
    coset-enumeration certificates and replays."""
    cube = {
        "vertices": [str(i) for i in range(8)],
        "edges": [[str(i), str(i ^ b)] for i in range(8) for b in (1, 2, 4) if i < i ^ b],
    }
    path = str(files["dir"] / "cube.json")
    argv = ["spectrum", "--graph", files["dump"]("cube-graph.json", cube), "--horizon", "6", "--out", path]
    assert run(argv, capsys)[0] == 0
    assert _certificates(_load(path), "coset_enumeration") and run(["verify-cert", path], capsys)[0] == 0
    return _load(path)


@pytest.mark.parametrize("forge", [
    lambda c: c.update(coset=0.0),
    lambda c: c.update(coset=False),
    lambda c: c.update(n_cosets=float(c["n_cosets"])),
    lambda c: c.update(n_cosets=str(c["n_cosets"])),
    lambda c: c["budget"].update(max_cosets=2000.5),
], ids=["coset-float", "coset-false", "n-cosets-float", "n-cosets-string", "budget-float"])
def test_verify_cert_rejects_an_enumeration_number_that_is_no_json_integer(files, capsys, cube_h6_report, forge):
    forge(_certificates(cube_h6_report, "coset_enumeration")[0])
    assert _malformed(files, capsys, cube_h6_report)


@pytest.mark.parametrize("table_hash", [5, None, ["0" * 64]], ids=["integer", "null", "list"])
def test_verify_cert_rejects_a_table_hash_that_is_no_json_string(files, capsys, cube_h6_report, table_hash):
    # replay compared it with the table's hash and failed the claim, with exit 1
    _certificates(cube_h6_report, "coset_enumeration")[0]["table_hash"] = table_hash
    assert _malformed(files, capsys, cube_h6_report)


@pytest.mark.parametrize("forge", [
    lambda r: _length(r, 5).update(length=None),
    lambda r: r["statuses"].insert(1, dict(_length(r, 4), claims=[])),
    lambda r: r["statuses"].insert(0, dict(_length(r, 3))),
    lambda r: r["statuses"].reverse(),
    lambda r: r.update(horizon="7"),
    lambda r: r.update(horizon=7.0),
    lambda r: r.pop("horizon"),
    lambda r: r.update(horizon=6),
    lambda r: r["statuses"].insert(0, dict(_length(r, 3), length=2)),
], ids=["null-length", "repeated-length", "repeated-vacuous-length", "reversed", "string-horizon",
        "float-horizon", "no-horizon", "length-past-horizon", "length-2"])
def test_verify_cert_rejects_statuses_out_of_shape(files, capsys, racg_c5_h7_report, forge):
    # lengths must be integers that increase strictly within 3..horizon, an integer
    forge(racg_c5_h7_report)
    for path in _layouts(files, "shape", racg_c5_h7_report):
        code = main(["verify-cert", path])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("malformed report") and captured.err.count("\n") == 1


# -- vacuous lengths, JSON letters and verdict shapes ------------------------


@pytest.mark.parametrize("forge", [
    lambda r: _length(r, 3).update(vacuous="no"),
    lambda r: _length(r, 3).update(vacuous=1),
    lambda r: _length(r, 4).update(vacuous=True),
    lambda r: _length(r, 4).update(vacuous=0),
], ids=["string-on-claimless", "one-on-claimless", "true-with-claims", "zero-with-claims"])
def test_verify_cert_fails_a_vacuous_flag_other_than_no_claims(files, capsys, racg_c5_h7_report, forge):
    # a length is vacuous, the JSON boolean true, exactly when it has no claims;
    # every claim still replays, so the one failure is the length's
    forge(racg_c5_h7_report)
    for path in _layouts(files, "vacuous", racg_c5_h7_report):
        code, out = run(["verify-cert", path], capsys)
        assert code == 1 and json.loads(out) == {"checked": 16, "failures": 1}


def _first_letter_of_a_six_claim(report, exponent):
    """Give the first letter of a length-6 claim's word and of its
    certificate's word the exponent; both read +1 before."""
    claim = _claim(report, 6)
    letters = [claim["word"][0], claim["verdict"]["certificate"]["word"][0]]
    assert letters[0] == letters[1] and letters[0][1] == 1
    for letter in letters:
        letter[1] = exponent


@pytest.mark.parametrize("exponent", [True, 1.0], ids=["true", "float"])
def test_verify_cert_rejects_an_exponent_that_is_no_json_integer(files, capsys, racg_c5_h7_report, exponent):
    # an exponent is the JSON integer 1 or -1, not a value that only equals one
    _first_letter_of_a_six_claim(racg_c5_h7_report, exponent)
    assert _malformed(files, capsys, racg_c5_h7_report)


@pytest.mark.parametrize("forge", [
    lambda v: v.pop("certificate"),
    lambda v: v.update(certificate={}),
    lambda v: v.update(status="unknown"),
    lambda v: v.update(status="bogus"),
], ids=["proved-without-certificate", "empty-certificate", "unknown-with-certificate", "bogus-status"])
def test_verify_cert_rejects_a_verdict_out_of_shape(files, capsys, racg_c5_h7_report, forge):
    # a proved or refuted verdict carries a certificate and an unknown one none;
    # a verdict out of that shape is malformed input, not a failed replay
    forge(_claim(racg_c5_h7_report, 6)["verdict"])
    for path in _layouts(files, "verdict", racg_c5_h7_report):
        code = main(["verify-cert", path])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("malformed report") and captured.err.count("\n") == 1


@pytest.mark.parametrize("forge", [
    lambda r: _length(r, 3).update(claims={}),
    lambda r: (r.update(statuses={}), r.pop("taut_lengths")),
    lambda r: (r.clear(), r.update(claims={})),
], ids=["length-claims", "statuses", "bare-claims"])
def test_verify_cert_rejects_a_list_given_as_an_object(files, capsys, racg_c5_h7_report, forge):
    # claims and statuses are JSON lists; an object is malformed, not an empty list
    forge(racg_c5_h7_report)
    assert _malformed(files, capsys, racg_c5_h7_report)


# -- flags where read, integer envelopes and exit 3 ---------------------------


@pytest.mark.parametrize("argv", [
    ["krelated", "--h1", "3,4", "--h2", "3,5", "--k", "2", "--budget", "garbage"],
    ["schedule", "--d", "2", "--beta", "4", "--budget", "garbage"],
], ids=["krelated", "schedule"])
def test_a_subcommand_that_reads_no_budget_takes_no_budget_flag(capsys, argv):
    # the flag was accepted and ignored, with exit 0
    assert exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --budget garbage" in captured.err


@pytest.mark.parametrize("forge", [
    lambda r: r.update(format=2.0),
    lambda r: r.update(taut_lengths=[4.0]),
], ids=["format-float", "taut-lengths-float"])
def test_verify_cert_rejects_a_format_or_taut_length_that_is_no_json_integer(files, capsys, racg_c5_h7_report, forge):
    # each equalled its integer, and the report replayed with exit 0
    forge(racg_c5_h7_report)
    assert _malformed(files, capsys, racg_c5_h7_report)


def test_spectrum_out_of_budget_exits_3_with_its_unknown_length(files, capsys):
    cube = {
        "vertices": [str(i) for i in range(8)],
        "edges": [[str(i), str(i ^ b)] for i in range(8) for b in (1, 2, 4) if i < i ^ b],
    }
    argv = ["spectrum", "--graph", files["dump"]("cube.json", cube), "--horizon", "6",
            "--budget", "cosets:1,deductions:1,depth:1"]
    code, out = run(argv, capsys)
    assert code == 3
    assert json.loads(out)["chart"] == ["   3 .", "   4 #", "   5 .", "   6 ?"]


def test_complex_analyze_out_of_budget_exits_3(files, capsys):
    argv = ["complex", "analyze", "--complex", files["c4"], "--omega", files["boundary"],
            "--budget", "cosets:1,deductions:1,depth:1"]
    code, out = run(argv, capsys)
    assert code == 3 and json.loads(out)["normally_generates"] == {"status": "unknown"}


# -- file flags, schedule digits and reading a report before replay ----------


@pytest.mark.parametrize("argv, message", [
    (lambda f: ["present", "raag"], "present raag needs --complex"),
    (lambda f: ["present", "p", "--complex", f["c4"]], "present p needs --omega"),
    (lambda f: ["present", "j"], "present j needs --instance"),
], ids=["raag-without-complex", "p-without-omega", "j-without-instance"])
def test_present_without_a_file_flag_it_reads_names_the_flag(files, capsys, argv, message):
    # each opened None, a TypeError traceback with exit 1
    assert exit_code(argv(files)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message + "\n"


@pytest.mark.parametrize("argv, index", [
    (["--nmax", "12"], 12),
    (["--C", "126", "--nmax", "10"], 10),
    (["--C", "126", "--nmax", "0", "--f", "11"], 11),
], ids=["nmax-12", "C-126-nmax-10", "C-126-f-11"])
def test_schedule_values_past_the_digit_limit_are_a_usage_error(capsys, default_digit_limit, argv, index):
    # check_index accepts each index; the report's larger values, the square of
    # the last interval's lower end or C^(2^11) in S_of_F, have more than 4300
    # digits and ended in the interpreter's own ValueError
    assert exit_code(["schedule", "--d", "1", "--beta", "4", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"schedule indices: index {index} gives values of more than 4300 digits\n"


def test_schedule_without_constants_or_a_complex_is_a_usage_error(capsys):
    assert exit_code(["schedule", "--nmax", "2"]) == 2
    assert capsys.readouterr().err == "need either --complex/--omega or --d/--beta\n"


def test_krelated_rejects_a_negative_horizon(capsys):
    # it exited 0, unknown beyond the horizon from length 5
    assert exit_code(["krelated", "--h1", "", "--h2", "3", "--k", "1", "--horizon1", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "bad input: ValueError: horizon must be nonnegative, got -5\n"


def test_verify_cert_reads_the_whole_report_before_replaying(files, capsys, racg_c5_h7_report):
    # a certificate that fails replay, then a claim whose word is no list: the
    # report is malformed, and its failure line was printed before that line
    _claim(racg_c5_h7_report, 4)["verdict"]["certificate"]["word"] *= 2  # the first claim
    _claim(racg_c5_h7_report, 6)["word"] = "01"
    code = main(["verify-cert", files["dump"]("forged.json", racg_c5_h7_report)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("malformed report") and captured.err.count("\n") == 1


def test_present_raag_writes_the_library_presentation(files, capsys):
    code, out = run(["present", "raag", "--complex", files["c4"]], capsys)
    c4 = FlagComplex.from_json(_load(files["c4"]))
    assert code == 0 and out == json.dumps(build_RAAG(c4).to_json(), sort_keys=True, indent=2) + "\n"


def test_present_j_writes_the_library_presentation(files, capsys):
    from tautloop.davis import build_J, instance_from_json

    path = _cycle_rotation_instance(files)
    code, out = run(["present", "j", "--instance", path], capsys)
    ga, orbits = instance_from_json(_load(path))
    assert code == 0 and out == json.dumps(build_J(ga, orbits).to_json(), sort_keys=True, indent=2) + "\n"


def test_ball_of_a_cyclic_group_in_dot(capsys):
    code, out = run(["ball", "--oracle", "zmod:3", "--radius", "1", "--format", "dot"], capsys)
    # Z/3's Cayley graph is a triangle, all of it within radius 1
    assert code == 0 and out == (
        'graph ball {\n  n0 [label="1"];\n  n1 [label="t"];\n  n2 [label="t^-1"];\n'
        "  n0 -- n1;\n  n0 -- n2;\n  n1 -- n2;\n}\n"
    )


def test_kernel_search_without_a_word_and_with_unknowns_exits_3(files, capsys, monkeypatch):
    """No small real input reaches this line: C4 with the chord 0-2, the
    boundary square as Omega, s=0, t=0,2 and radius 4 under
    cosets:1,deductions:1,depth:1 leaves 80 unknowns and no word, but the
    search takes over 30 seconds.  So the search is substituted."""
    from tautloop import cli
    from tautloop.word_engine import KernelSearchResult

    result = KernelSearchResult(False, None, None, 3, False, 80)
    monkeypatch.setattr(cli, "kernel_shortest_element", lambda *args, **kwargs: result)
    path = files["dir"] / "kernel.json"
    argv = ["kernel-search", "--complex", files["c4"], "--omega", files["boundary"],
            "--s", "0", "--t", "0,2", "--radius", "4", "--out", str(path)]
    assert run(argv, capsys) == (3, "")
    report = _load(path)
    assert {k: report[k] for k in result.to_json()} == result.to_json() and report["bound_respected"]


@pytest.mark.parametrize("argv", [
    lambda f, split: ["present", "p", "--complex", split, "--omega", f["dump"]("none.json", []), "--s", "0"],
    lambda f, split: ["spectrum", "--graph", split, "--horizon", "4"],
], ids=["present-p", "spectrum-graph"])
def test_a_disconnected_complex_is_rejected_with_one_message(files, capsys, argv):
    # present p printed "bad input: PresentationError: complex must be connected"
    split = files["dump"]("split.json", {"vertices": list("0123"), "edges": [["0", "1"], ["2", "3"]]})
    assert exit_code(argv(files, split)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "bad input: ComplexError: complex is disconnected\n"
