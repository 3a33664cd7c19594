import json

import pytest

from tautloop.cayley import ZModOracle
from tautloop.cli import main, spectrum_claims
from tautloop.spectrum import spectrum
from tautloop.word_engine import Budget


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


def _claim(report, length, index=0):
    return next(s for s in report["statuses"] if s["length"] == length)["claims"][index]


def test_verify_cert_reads_spectrum_report(racg_c4_report, capsys):
    path, report = racg_c4_report
    code, out = run(["verify-cert", path], capsys)
    assert code == 0
    n_claims = sum(len(s["claims"]) for s in report["statuses"])
    assert json.loads(out) == {"checked": n_claims, "failures": 0}


def test_verify_cert_rejects_swapped_claim_word(racg_c4_report, files, capsys):
    _, report = racg_c4_report
    proved, other = _claim(report, 6, 0), _claim(report, 6, 1)
    assert proved["word"] != other["word"]
    proved["word"] = other["word"]
    claims = {"claims": [c for s in report["statuses"] for c in s["claims"]]}
    code, out = run(["verify-cert", files["dump"]("swapped.json", claims)], capsys)
    assert code == 1
    assert json.loads(out)["failures"] == 1


def test_verify_cert_binds_free_reduction_to_its_word(racg_c4_report, files, capsys):
    _, report = racg_c4_report
    taut = _claim(report, 4)
    bare = {"status": "proved", "certificate": {"type": "free_reduction"}}
    forged = dict(taut, verdict=bare)
    code, _ = run(["verify-cert", files["dump"]("bare.json", [forged])], capsys)
    assert code == 2
    worded = {"status": "proved", "certificate": {"type": "free_reduction", "word": taut["word"]}}
    forged = dict(taut, verdict=worded)
    code, out = run(["verify-cert", files["dump"]("worded.json", [forged])], capsys)
    assert code == 1 and json.loads(out)["failures"] == 1
    cancelling = [["0", 1], ["1", 1], ["1", -1], ["0", -1]]
    honest = dict(
        taut,
        word=cancelling,
        verdict={"status": "proved", "certificate": {"type": "free_reduction", "word": cancelling}},
    )
    code, out = run(["verify-cert", files["dump"]("honest.json", [honest])], capsys)
    assert code == 0 and json.loads(out)["failures"] == 0


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
