"""Command-line front end.

Subcommands bind the library modules to JSON files on disk.  Exit codes:
0 success, 1 a checked claim was refuted (or a counterexample found),
2 usage error, 3 budget exhausted / inconclusive.  All output is
deterministic: same inputs and flags, byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import cayley, davis, schedule as sched_mod, words
from .spectrum import (
    LengthSet,
    Spectrum,
    k_related,
    spectrum_of_graph,
    spectrum as compute_spectrum,
)
from .complexes import (
    EdgeLoop,
    FlagComplex,
    OmegaSet,
    SimpleGraph,
    normally_generates,
    reduced_homology,
)
from .presentations import GroupPresentation, Homomorphism, build_P, build_RAAG, build_RACG
from .word_engine import (
    PROVED,
    REFUTED,
    UNKNOWN,
    Budget,
    TriState,
    kernel_shortest_element,
    verify_certificate,
    BBImageHom,
)

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(data, out=None) -> None:
    text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_budget(text: str | None) -> Budget:
    if not text:
        return Budget()
    fields = {"cosets": 2000, "deductions": 200_000, "depth": 3}
    for part in text.split(","):
        key, _, val = part.partition(":")
        if key not in fields or not val.isdigit():
            raise SystemExit(f"bad budget component {part!r}")
        fields[key] = int(val)
    return Budget(fields["cosets"], fields["deductions"], fields["depth"])


def _parse_ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip() != ""]


def _load_complex(path: str) -> FlagComplex:
    return FlagComplex.from_json(_load_json(path))


def _load_omega(path: str) -> OmegaSet:
    return OmegaSet.from_json(_load_json(path))


def _make_oracle(spec: str, args):
    kind, _, arg = spec.partition(":")
    if kind == "free":
        return cayley.FreeGroupOracle(arg.split(",")), arg.split(",")
    if kind == "zmod":
        return cayley.ZModOracle(int(arg)), ["t"]
    if kind == "racg":
        graph = _load_complex(args.complex).graph()
        return cayley.RacgOracle(graph), list(graph.vertices)
    if kind == "raag":
        cx = _load_complex(args.complex)
        return cayley.RaagOracle(cx), list(cx.vertices)
    if kind == "bb":
        cx = _load_complex(args.complex)
        gens = [f"e:{u}:{v}" for u, v in cx.graph().sorted_edges()]
        return cayley.BBOracle(cx), gens
    if kind == "coset":
        pres = GroupPresentation.from_json(_load_json(arg))
        return cayley.CosetTableOracle(pres), list(pres.core_generators())
    raise SystemExit(f"unknown oracle {spec!r}")


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def cmd_complex_analyze(args) -> int:
    cx = _load_complex(args.complex)
    report = {
        "vertices": len(cx.vertices),
        "dimension": cx.dimension,
        "euler_characteristic": cx.euler_characteristic(),
        "connected": cx.is_connected(),
        "homology": {
            str(k): {
                "rank": reduced_homology(cx, k).rank,
                "torsion": list(reduced_homology(cx, k).torsion),
            }
            for k in range(cx.dimension + 1)
        },
    }
    code = EXIT_OK
    if args.omega:
        omega = _load_omega(args.omega)
        state = normally_generates(cx, omega, _parse_budget(args.budget))
        report["normally_generates"] = state.to_json()
        if state.status == REFUTED:
            code = EXIT_REFUTED
        elif state.status == UNKNOWN:
            code = EXIT_BUDGET
    _emit(report, args.out)
    return code


def cmd_present(args) -> int:
    if args.kind == "p":
        pres = build_P(_load_complex(args.complex), _load_omega(args.omega), set(_parse_ints(args.s)))
    elif args.kind == "raag":
        pres = build_RAAG(_load_complex(args.complex))
    elif args.kind == "racg":
        pres = build_RACG(_load_complex(args.complex).graph())
    else:
        ga, orbits = davis.instance_from_json(_load_json(args.instance))
        pres = davis.build_J(ga, orbits)
    if args.format == "gap":
        sys.stdout.write(pres.gap_export())
    else:
        _emit(pres.to_json(), args.out)
    return EXIT_OK


def cmd_ball(args) -> int:
    try:
        oracle, gens = _make_oracle(args.oracle, args)
        if args.gens:
            gens = args.gens.split(",")
        ball = cayley.build_ball(oracle, gens, args.radius, _parse_budget(args.budget))
    except cayley.OracleInsufficient as exc:
        sys.stderr.write(f"oracle insufficient: {exc}\n")
        return EXIT_BUDGET
    if args.format == "dot":
        sys.stdout.write(ball.to_dot())
    else:
        _emit(ball.to_json(), args.out)
    return EXIT_OK


def _spectrum_report(sp: Spectrum) -> dict:
    chart = []
    for s in sp.statuses:
        mark = {"taut": "#", "not_taut": ".", "unknown": "?"}[s.status]
        chart.append(f"{s.length:4d} {mark}")
    report = sp.to_json()
    report["chart"] = chart
    report["taut_lengths"] = list(sp.lengths())
    return report


def cmd_spectrum(args) -> int:
    budget = _parse_budget(args.budget)
    try:
        if args.graph:
            graph = SimpleGraph.build(**_load_json(args.graph))
            sp = spectrum_of_graph(graph, args.horizon, budget)
        else:
            oracle, gens = _make_oracle(args.oracle, args)
            if args.gens:
                gens = args.gens.split(",")
            sp = compute_spectrum(oracle, gens, args.horizon, budget)
    except cayley.OracleInsufficient as exc:
        sys.stderr.write(f"oracle insufficient: {exc}\n")
        return EXIT_BUDGET
    _emit(_spectrum_report(sp), args.out)
    if any(s.status == UNKNOWN for s in sp.statuses):
        return EXIT_BUDGET
    return EXIT_OK


def cmd_krelated(args) -> int:
    h1 = LengthSet.build(_parse_ints(args.h1), args.horizon1)
    h2 = LengthSet.build(_parse_ints(args.h2), args.horizon2)
    result = k_related(h1, h2, args.k)
    _emit(result.to_json(), args.out)
    return EXIT_OK


def cmd_schedule(args) -> int:
    if args.complex and args.omega:
        cx = _load_complex(args.complex)
        omega = _load_omega(args.omega)
        d = cx.dimension
        beta = sched_mod.beta_of(cx, omega)
    else:
        if args.d is None or args.beta is None:
            raise SystemExit("need either --complex/--omega or --d/--beta")
        d, beta = args.d, args.beta
    c = args.C if args.C else sched_mod.choose_C(d, beta)
    for n in _parse_ints(args.f) + _parse_ints(args.fprime):
        if n > 20:
            raise SystemExit("schedule indices above 20 are rejected")
    constants = sched_mod.Constants(d, beta, c)
    report = sched_mod.schedule_report(
        constants, args.nmax, _parse_ints(args.f), _parse_ints(args.fprime)
    )
    _emit(report, args.out)
    return EXIT_OK


def cmd_kernel_search(args) -> int:
    cx = _load_complex(args.complex)
    omega = _load_omega(args.omega)
    s_set, t_set = set(_parse_ints(args.s)), set(_parse_ints(args.t))
    pres_s = build_P(cx, omega, s_set)
    pres_t = build_P(cx, omega, t_set)
    quotient = Homomorphism.identity_on_generators(pres_s, pres_t)
    hom = BBImageHom(cx)
    result = kernel_shortest_element(
        pres_s,
        pres_t,
        quotient,
        args.radius,
        _parse_budget(args.budget),
        homs_s=(hom,),
        homs_t=(hom,),
    )
    report = result.to_json()
    bound = sched_mod.kernel_length_lower_bound(cx.dimension, s_set, t_set)
    report["predicted_lower_bound"] = bound.to_json()
    violation = result.found and sched_mod.SqrtRational.of_ratio(result.length) < bound
    report["bound_respected"] = not violation
    _emit(report, args.out)
    if violation:
        return EXIT_REFUTED
    if not result.found and result.unknown_count:
        return EXIT_BUDGET
    return EXIT_OK


def cmd_semiker(args) -> int:
    ga_s, orbits_s = davis.instance_from_json(_load_json(args.instance_s))
    ga_t, orbits_t = davis.instance_from_json(_load_json(args.instance_t))
    quotient = Homomorphism.identity_on_generators(ga_s.group, ga_t.group)
    report = davis.semiker_experiment(
        (ga_s, orbits_s, ga_s.group),
        (ga_t, orbits_t, ga_t.group),
        quotient,
        args.maxlen,
        _parse_budget(args.budget),
    )
    _emit(report.to_json(), args.out)
    return EXIT_OK if report.passed else EXIT_REFUTED


def _report_claims(data) -> list:
    """Claims of a spectrum report, of {"claims": [...]}, or of a bare list."""
    if isinstance(data, list):
        return data
    if "statuses" in data:
        return [claim for status in data["statuses"] for claim in status["claims"]]
    return data["claims"]


def cmd_verify_cert(args) -> int:
    failures = 0
    checked = 0
    try:
        for claim in _report_claims(_load_json(args.report)):
            w = words.from_json(claim["word"])
            pres = GroupPresentation.from_json(claim["presentation"])
            verdict = TriState.from_json(claim["verdict"])
            checked += 1
            cert = verdict.certificate
            # a certificate proves something only about the word it carries
            if (cert is not None and cert.word != w) or not verify_certificate(pres, verdict):
                failures += 1
                sys.stderr.write(f"certificate failed for word {claim['word']}\n")
    except (OSError, ValueError, LookupError, TypeError, AttributeError) as exc:
        sys.stderr.write(f"malformed report {args.report}: {type(exc).__name__}: {exc}\n")
        return EXIT_USAGE
    _emit({"checked": checked, "failures": failures}, args.out)
    return EXIT_OK if failures == 0 else EXIT_REFUTED


def spectrum_claims(sp: Spectrum) -> dict:
    """Certificate report for verify-cert from a computed spectrum."""
    claims = []
    for status in sp.statuses:
        for claim in status.claims:
            claims.append(claim.to_json())
    return {"claims": claims}


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tautloop")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--budget", default=None, help="cosets:N,deductions:N,depth:N")
        p.add_argument("--out", default=None, help="write the JSON report here")

    cx = sub.add_parser("complex", help="complex analysis")
    cx_sub = cx.add_subparsers(dest="subcommand", required=True)
    an = cx_sub.add_parser("analyze")
    an.add_argument("--complex", required=True)
    an.add_argument("--omega")
    common(an)
    an.set_defaults(func=cmd_complex_analyze)

    pr = sub.add_parser("present", help="emit a presentation")
    pr.add_argument("kind", choices=["p", "raag", "racg", "j"])
    pr.add_argument("--complex")
    pr.add_argument("--omega")
    pr.add_argument("--s", default="0")
    pr.add_argument("--instance")
    pr.add_argument("--format", choices=["json", "gap"], default="json")
    common(pr)
    pr.set_defaults(func=cmd_present)

    bl = sub.add_parser("ball", help="build a Cayley ball")
    bl.add_argument("--oracle", required=True, help="free:a,b | zmod:N | racg | raag | bb | coset:FILE")
    bl.add_argument("--complex")
    bl.add_argument("--gens")
    bl.add_argument("--radius", type=int, required=True)
    bl.add_argument("--format", choices=["json", "dot"], default="json")
    common(bl)
    bl.set_defaults(func=cmd_ball)

    sp = sub.add_parser("spectrum", help="taut loop length spectrum")
    sp.add_argument("--graph", help="finite-graph entry point, JSON {vertices, edges}")
    sp.add_argument("--oracle")
    sp.add_argument("--complex")
    sp.add_argument("--gens")
    sp.add_argument("--horizon", type=int, required=True)
    common(sp)
    sp.set_defaults(func=cmd_spectrum)

    kr = sub.add_parser("krelated", help="k-relatedness of length sets")
    kr.add_argument("--h1", required=True)
    kr.add_argument("--h2", required=True)
    kr.add_argument("--k", type=int, required=True)
    kr.add_argument("--horizon1", type=int, default=None)
    kr.add_argument("--horizon2", type=int, default=None)
    common(kr)
    kr.set_defaults(func=cmd_krelated)

    sc = sub.add_parser("schedule", help="constants and interval schedule")
    sc.add_argument("--complex")
    sc.add_argument("--omega")
    sc.add_argument("--d", type=int)
    sc.add_argument("--beta", type=int)
    sc.add_argument("--C", type=int, default=None)
    sc.add_argument("--nmax", type=int, default=2)
    sc.add_argument("--f", default="")
    sc.add_argument("--fprime", default="")
    common(sc)
    sc.set_defaults(func=cmd_schedule)

    ks = sub.add_parser("kernel-search", help="shortest kernel element search")
    ks.add_argument("--complex", required=True)
    ks.add_argument("--omega", required=True)
    ks.add_argument("--s", required=True)
    ks.add_argument("--t", required=True)
    ks.add_argument("--radius", type=int, required=True)
    common(ks)
    ks.set_defaults(func=cmd_kernel_search)

    sk = sub.add_parser("semiker", help="kernel-transfer experiment")
    sk.add_argument("--instance-s", dest="instance_s", required=True)
    sk.add_argument("--instance-t", dest="instance_t", required=True)
    sk.add_argument("--maxlen", type=int, default=6)
    common(sk)
    sk.set_defaults(func=cmd_semiker)

    vc = sub.add_parser("verify-cert", help="replay certificates in a report")
    vc.add_argument("report")
    common(vc)
    vc.set_defaults(func=cmd_verify_cert)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
