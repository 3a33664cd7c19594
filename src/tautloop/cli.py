"""Command-line front end.

Subcommands bind the library modules to JSON files on disk.  Exit codes:
0 success, 1 a checked claim was refuted (or a counterexample found),
2 usage error or unreadable or malformed input, 3 budget exhausted /
inconclusive.  ``main`` maps the errors of every subcommand to 2 and 3.  All
output is deterministic: same inputs and flags, byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import cayley, words
from .spectrum import (
    REPORT_FORMAT,
    TAUT,
    LengthSet,
    Spectrum,
    k_related,
    status_from_verdicts,
    spectrum_of_graph,
    spectrum as compute_spectrum,
)
from .complexes import (
    FlagComplex,
    OmegaSet,
    SimpleGraph,
    edge_symbol,
    normally_generates,
    reduced_homology,
)
from .presentations import GroupPresentation, Homomorphism, build_P, build_RAAG, build_RACG
from .word_engine import (
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


def _load_json(path: str, parse=lambda data: data):
    """A JSON file as ``parse`` reads it; a missing key or a wrong shape is a ``ValueError``."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        return parse(data)
    except (LookupError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed {path}: {type(exc).__name__}: {exc}") from None


def _load_flag(args, flag: str, reader: str, parse=lambda data: data):
    """The JSON file that ``--flag`` names, read by ``_load_json``; one stderr
    line naming the flag, and exit 2, when ``reader`` was not given it."""
    path = getattr(args, flag)
    if not path:
        _usage_error(f"{reader} needs --{flag}")
    return _load_json(path, parse)


def _emit(data, out=None) -> None:
    text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _usage_error(message: str):
    """Reject malformed input as argparse does: one line on stderr, exit 2."""
    sys.stderr.write(f"{message}\n")
    raise SystemExit(EXIT_USAGE)


def _parse_budget(text: str | None) -> Budget:
    """A ``Budget`` from ``cosets:N,deductions:N,depth:N``; a field left out
    keeps its default."""
    names = {"cosets": "max_cosets", "deductions": "max_deductions", "depth": "max_search_depth"}
    fields = {}
    for part in text.split(",") if text else ():
        key, _, val = part.partition(":")
        if key not in names or not val.isdigit():
            _usage_error(f"bad budget component {part!r}")
        fields[names[key]] = int(val)
    return Budget(**fields)


def _parse_ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip() != ""]


def _make_oracle(args, budget: Budget):
    """The oracle that ``--oracle`` names, a coset table enumerated within the
    budget, and its generators: those of ``--gens`` if given, else its own."""
    spec = args.oracle
    kind, _, arg = spec.partition(":")
    of_complex = {"racg": cayley.RacgOracle, "raag": cayley.RaagOracle, "bb": cayley.BBOracle}
    if kind in of_complex:
        cx = _load_flag(args, "complex", f"oracle {kind!r}", FlagComplex.from_json)
        gens = [edge_symbol(u, v) for u, v in cx.sorted_edges()] if kind == "bb" else list(cx.vertices)
        oracle = of_complex[kind](cx)
    elif kind == "free":
        oracle, gens = cayley.FreeGroupOracle(arg.split(",")), arg.split(",")
    elif kind == "zmod":
        if not arg.isdigit():
            _usage_error(f"bad order in oracle {spec!r}")
        oracle, gens = cayley.ZModOracle(int(arg)), ["t"]
    elif kind == "coset":
        pres = _load_json(arg, GroupPresentation.from_json)
        oracle, gens = cayley.CosetTableOracle(pres, budget), list(pres.core_generators())
    else:
        _usage_error(f"unknown oracle {spec!r}")
    return oracle, args.gens.split(",") if args.gens else gens


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def cmd_complex_analyze(args) -> int:
    cx = _load_json(args.complex, FlagComplex.from_json)
    homology = [reduced_homology(cx, k) for k in range(cx.dimension + 1)]
    report = {
        "vertices": len(cx.vertices),
        "dimension": cx.dimension,
        "euler_characteristic": cx.euler_characteristic(),
        "connected": cx.is_connected(),
        "homology": {
            str(k): {"rank": h.rank, "torsion": list(h.torsion)} for k, h in enumerate(homology)
        },
    }
    code = EXIT_OK
    if args.omega:
        omega = _load_json(args.omega, OmegaSet.from_json)
        state = normally_generates(cx, omega, _parse_budget(args.budget))
        report["normally_generates"] = state.to_json()
        if state.status == REFUTED:
            code = EXIT_REFUTED
        elif state.status == UNKNOWN:
            code = EXIT_BUDGET
    _emit(report, args.out)
    return code


def cmd_present(args) -> int:
    reader = f"present {args.kind}"
    if args.kind == "j":
        from . import davis
        ga, orbits = davis.instance_from_json(_load_flag(args, "instance", reader), _parse_budget(args.budget))
        pres = davis.build_J(ga, orbits)
    else:
        cx = _load_flag(args, "complex", reader, FlagComplex.from_json)
        if args.kind == "p":
            pres = build_P(cx, _load_flag(args, "omega", reader, OmegaSet.from_json), set(_parse_ints(args.s)))
        else:
            pres = (build_RAAG if args.kind == "raag" else build_RACG)(cx)
    if args.format == "gap":
        sys.stdout.write(pres.gap_export())
    else:
        _emit(pres.to_json(), args.out)
    return EXIT_OK


def cmd_ball(args) -> int:
    # the budget bounds the enumeration of a coset-table oracle
    budget = _parse_budget(args.budget)
    oracle, gens = _make_oracle(args, budget)
    ball = cayley.build_ball(oracle, gens, args.radius)
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
    if not (args.graph or args.oracle):
        _usage_error("spectrum needs --graph or --oracle")
    if args.graph:
        graph = _load_json(args.graph, SimpleGraph.from_json)
        sp = spectrum_of_graph(graph, args.horizon, budget)
    else:
        oracle, gens = _make_oracle(args, budget)
        sp = compute_spectrum(oracle, gens, args.horizon, budget)
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
    from . import schedule as sched_mod
    if args.complex and args.omega:
        cx = _load_json(args.complex, FlagComplex.from_json)
        omega = _load_json(args.omega, OmegaSet.from_json)
        d = cx.dimension
        beta = sched_mod.beta_of(cx, omega)
    else:
        if args.d is None or args.beta is None:
            _usage_error("need either --complex/--omega or --d/--beta")
        d, beta = args.d, args.beta
    c = args.C if args.C is not None else sched_mod.choose_C(d, beta)
    constants = sched_mod.Constants(d, beta, c)
    try:
        report = sched_mod.schedule_report(constants, args.nmax, _parse_ints(args.f), _parse_ints(args.fprime))
    except sched_mod.ScheduleError as exc:
        _usage_error(f"schedule indices: {exc}")
    _emit(report, args.out)
    return EXIT_OK


def cmd_kernel_search(args) -> int:
    from . import schedule as sched_mod
    cx = _load_json(args.complex, FlagComplex.from_json)
    omega = _load_json(args.omega, OmegaSet.from_json)
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
    from . import davis
    budget = _parse_budget(args.budget)
    ga_s, orbits_s = davis.instance_from_json(_load_json(args.instance_s), budget)
    ga_t, orbits_t = davis.instance_from_json(_load_json(args.instance_t), budget)
    quotient = Homomorphism.identity_on_generators(ga_s.group, ga_t.group)
    report = davis.semiker_experiment(
        (ga_s, orbits_s),
        (ga_t, orbits_t),
        quotient,
        args.maxlen,
        budget,
    )
    _emit(report.to_json(), args.out)
    return EXIT_OK if report.passed else EXIT_REFUTED


def _report_lengths(data) -> tuple[list, list | None]:
    """A report read in full before anything is replayed: per length, its
    claims as (word, presentation, verdict, word as written) and its (length,
    status, vacuous), None in a bare claims list; and its ``taut_lengths``,
    None if absent.  Format 2 writes the presentation at each length with
    claims, format 1 (no ``format``) and a bare claims list in each claim;
    any other layout is malformed."""

    def claims_of(items, shared=None) -> list:
        return [(words.from_json(c["word"]), shared or GroupPresentation.from_json(c["presentation"]),
                 TriState.from_json(c["verdict"]), c["word"]) for c in items]

    if "statuses" not in data:
        if "format" in data:
            raise ValueError("a bare claims list has no format")
        return [(claims_of(words.json_list(data["claims"])), None)], None
    shared = "format" in data
    if shared and words.json_int(data["format"]) != REPORT_FORMAT:
        raise ValueError(f"unknown report format {data['format']!r}")
    horizon = words.json_int(data["horizon"])
    statuses = words.json_list(data["statuses"])
    lengths = [words.json_int(status["length"]) for status in statuses]
    if lengths != sorted(set(lengths)) or not all(3 <= length <= horizon for length in lengths):
        raise ValueError(f"status lengths {lengths} do not increase strictly within 3..{horizon}")
    out = []
    for length, status in zip(lengths, statuses):
        claims = words.json_list(status["claims"])
        mixed = any("presentation" in claim for claim in claims) if shared else "presentation" in status
        if mixed:
            raise ValueError(f"length {length} mixes report formats")
        pres = GroupPresentation.from_json(status["presentation"]) if shared and claims else None
        out.append((claims_of(claims, pres), (length, status["status"], status["vacuous"])))
    taut = data.get("taut_lengths")
    return out, None if taut is None else [words.json_int(l) for l in words.json_list(taut)]


def cmd_verify_cert(args) -> int:
    # a coset enumeration replays within --budget, whatever budget it records;
    # one that runs out of a --budget below its own is inconclusive (exit 3)
    budget = _parse_budget(args.budget)
    try:
        lengths, listed_taut = _load_json(args.report, _report_lengths)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"malformed report {args.report}: {type(exc).__name__}: {exc}\n")
        return EXIT_USAGE
    failures = inconclusive = 0
    for claims, fields in lengths:
        for w, pres, verdict, written in claims:
            cert = verdict.certificate
            # a certificate proves something only about the word it carries
            replayed = (cert is None or cert.word == w) and verify_certificate(pres, verdict, budget)
            if replayed is None:
                inconclusive += 1
                sys.stderr.write(f"certificate not replayed within --budget for word {written}\n")
            elif not replayed:
                failures += 1
                sys.stderr.write(f"certificate failed for word {written}\n")
        # a length's status must be the one its claims give under the per-length
        # rule, and it is vacuous, a JSON boolean, exactly when it has none
        if fields and (fields[1] != status_from_verdicts([verdict.status for _, _, verdict, _ in claims])
                       or fields[2] is not (not claims)):
            failures += 1
            sys.stderr.write(f"status of length {fields[0]} contradicts its claims\n")
    taut = [fields[0] for _, fields in lengths if fields and fields[1] == TAUT]
    if listed_taut not in (None, taut):
        failures += 1
        sys.stderr.write("taut_lengths disagrees with the statuses\n")
    undecided = {"inconclusive": inconclusive} if inconclusive else {}  # within --budget
    _emit({"checked": sum(len(claims) for claims, _ in lengths), "failures": failures, **undecided}, args.out)
    return EXIT_REFUTED if failures else EXIT_BUDGET if inconclusive else EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tautloop")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, budget=True):
        if budget:
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
    common(kr, budget=False)
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
    common(sc, budget=False)
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
    """Run one subcommand.  Unreadable or malformed input exits 2 and an
    equality or enumeration that does not resolve in budget exits 3, each
    with one line on stderr.  ``ValueError`` covers JSON decoding, integer
    parsing and every input error class of the library; it is caught first,
    because an unknown generator is also ``cayley.OracleInsufficient``."""
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"bad input: {type(exc).__name__}: {exc}\n")
        return EXIT_USAGE
    except cayley.OracleInsufficient as exc:
        sys.stderr.write(f"oracle insufficient: {exc}\n")
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
