"""Acceptance suite: one test per criterion, results on the summary board.

Conclusive verdicts produced along the way are appended to REGISTRY and
replayed wholesale by the final certificate-soundness criterion.
"""

import itertools
import random
import time

from conftest import record_criterion
from dehn_tools import RELATOR, SYMBOLS, SmallCancellationOracle, piece_lengths

from tautloop.cayley import BBOracle, FreeGroupOracle, Shortcuts, build_ball, closed_loops
from tautloop.complexes import EdgeLoop, OmegaSet, SimpleGraph, flag_completion
from tautloop.davis import GroupAction, check_action, choose_orbits, semiker_experiment
from tautloop.normal_forms import RaagEngine, TitsEngine, bb_image
from tautloop.presentations import (
    GroupPresentation,
    Homomorphism,
    build_P,
    build_RACG,
    edge_symbol,
    reduce_ints,
)
from tautloop.schedule import (
    Constants,
    SqrtRational,
    choose_C,
    kernel_length_lower_bound,
    predicted_intervals,
    qi_obstruction,
)
from tautloop.spectrum import (
    NOT_TAUT,
    TAUT,
    LengthSet,
    _statuses,
    k_related,
    spectrum_of_graph,
    taut_status,
)
from tautloop.word_engine import (
    Budget,
    CosetTable,
    TriState,
    finite_quotient_search,
    kernel_shortest_element,
    todd_coxeter,
    verify_certificate,
    BBImageHom,
)

REGISTRY: list[tuple[GroupPresentation, TriState]] = []


def _register_claims(statuses) -> int:
    count = 0
    for status in statuses:
        for claim in status.claims:
            if not claim.state.unknown:
                REGISTRY.append((claim.presentation, claim.state))
                count += 1
    return count


def _run(number: int, body) -> None:
    try:
        ok, detail = body()
    except Exception as exc:
        record_criterion(number, False, repr(exc))
        raise
    record_criterion(number, ok, detail)
    assert ok, f"criterion {number}: {detail}"


def cycle_graph(n):
    vs = [str(i) for i in range(n)]
    return SimpleGraph.build(vs, [(vs[i], vs[(i + 1) % n]) for i in range(n)])


def complete_graph(n):
    vs = [str(i) for i in range(n)]
    return SimpleGraph.build(vs, [(a, b) for i, a in enumerate(vs) for b in vs[i + 1 :]])


C4_COMPLEX = flag_completion(cycle_graph(4))
C4_BOUNDARY = OmegaSet((EdgeLoop(("0", "1", "2", "3")),))


def _long_cycle_word(loop: EdgeLoop, n: int):
    out = []
    for u, v in loop.directed_edges():
        out.extend([(edge_symbol(u, v), 1 if n > 0 else -1)] * abs(n))
    return tuple(out)


def test_criterion_01_coxeter_normal_form_vs_enumeration():
    def body():
        start = time.monotonic()
        budget = Budget(max_cosets=300, max_deductions=20_000)
        graphs = finite = checked = 0
        for n in range(1, 6):
            vs = [str(i) for i in range(n)]
            pairs = list(itertools.combinations(vs, 2))
            for bits in range(1 << len(pairs)):
                edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
                g = SimpleGraph.build(vs, edges)
                graphs += 1
                table = todd_coxeter(build_RACG(g), (), budget)
                if not isinstance(table, CosetTable) or not table.complete:
                    continue
                finite += 1
                eng = TitsEngine(g.vertices, g.edges)
                nf_by_coset: dict = {}
                coset_by_nf: dict = {}
                for length in range(9):
                    for w in itertools.product(range(n), repeat=length):
                        nf = eng.normal_form(w)
                        coset = table.trace(0, [i + 1 for i in w])
                        checked += 1
                        if nf_by_coset.setdefault(coset, nf) != nf:
                            return False, f"one coset, two normal forms: {w}"
                        if coset_by_nf.setdefault(nf, coset) != coset:
                            return False, f"one normal form, two cosets: {w}"
        elapsed = time.monotonic() - start
        ok = graphs == 1099 and finite == 5 and checked == 586_023 and elapsed < 120
        return ok, (
            f"{checked} words across {finite} finite of {graphs} graphs, "
            f"0 disagreements, {elapsed:.1f}s"
        )

    _run(1, body)


def test_criterion_02_artin_degenerate_agreement():
    def body():
        rng = random.Random(20260823)
        checked = 0
        for n in range(2, 6):
            full = complete_graph(n)
            eng = RaagEngine(full.vertices, full.edges)
            for _ in range(1250):
                codes = [
                    rng.choice((1, -1)) * rng.randrange(1, n + 1)
                    for _ in range(rng.randrange(12))
                ]
                vec = [0] * (n + 1)
                for c in codes:
                    vec[abs(c)] += 1 if c > 0 else -1
                expected = []
                for g in range(1, n + 1):
                    expected += [g if vec[g] > 0 else -g] * abs(vec[g])
                if eng.normal_form(codes) != tuple(expected):
                    return False, f"complete graph K{n} disagreement: {codes}"
                checked += 1
            empty = SimpleGraph.build([str(i) for i in range(n)], [])
            free = RaagEngine(empty.vertices, empty.edges)
            for _ in range(1250):
                codes = [
                    rng.choice((1, -1)) * rng.randrange(1, n + 1)
                    for _ in range(rng.randrange(12))
                ]
                if free.normal_form(codes) != reduce_ints(codes):
                    return False, f"edgeless graph disagreement: {codes}"
                checked += 1
        return checked >= 10_000, f"{checked} seeded words, 0 disagreements"

    _run(2, body)


def test_criterion_03_spectrum_ground_truths():
    def body():
        start = time.monotonic()
        budget = Budget(max_cosets=300, max_deductions=20_000, max_search_depth=2)
        outcomes = []
        spectra = []
        for n in range(4, 9):
            sp = spectrum_of_graph(cycle_graph(n), 8, budget)
            spectra.append(sp)
            outcomes.append((f"C{n}", sp.lengths(TAUT) == (n,)))
        tree = SimpleGraph.build(
            "abcdef", [("a", "b"), ("b", "c"), ("b", "d"), ("d", "e"), ("d", "f")]
        )
        sp_tree = spectrum_of_graph(tree, 8, budget)
        spectra.append(sp_tree)
        outcomes.append(("tree", sp_tree.lengths(TAUT) == ()))
        sp_k4 = spectrum_of_graph(complete_graph(4), 4, budget)
        spectra.append(sp_k4)
        outcomes.append(("K4", sp_k4.lengths(TAUT) == (3,)))
        unknowns = sum(
            1 for sp in spectra for s in sp.statuses if s.status == "unknown"
        )
        registered = sum(_register_claims(sp.statuses) for sp in spectra)
        elapsed = time.monotonic() - start
        bad = [name for name, good in outcomes if not good]
        ok = not bad and unknowns == 0 and elapsed < 300
        return ok, (
            f"C4..C8, tree, K4 spectra exact, {unknowns} unknowns, "
            f"{registered} certificates, {elapsed:.1f}s"
        )

    _run(3, body)


def test_criterion_04_small_cancellation_spectrum():
    def body():
        start = time.monotonic()
        if max(piece_lengths(RELATOR), default=1) * 6 >= len(RELATOR):
            return False, "relator is not C'(1/6)"
        oracle = SmallCancellationOracle()
        ball = build_ball(oracle, list(SYMBOLS), 5)
        loops = closed_loops(ball, 9, ball.center)
        if not loops.conclusive:
            return False, "radius-5 ball does not certify loops up to 9"
        budget = Budget(max_cosets=400, max_deductions=40_000, max_search_depth=2)
        statuses = _statuses(
            list(SYMBOLS),
            (),
            list(zip(loops.words, loops.vertex_cycles)),
            range(3, 10),
            budget,
            Shortcuts(ball.neighbor_map(), 9),
        )
        taut = [s.length for s in statuses if s.status == TAUT]
        unknowns = [s.length for s in statuses if s.status == "unknown"]
        _register_claims(statuses)
        elapsed = time.monotonic() - start
        ok = taut == [8] and not unknowns
        return ok, (
            f"one-relator C'(1/6) group: spectrum {{{', '.join(map(str, taut))}}} "
            f"within horizon 9, {len(loops.words)} loops, {elapsed:.1f}s"
        )

    _run(4, body)


def test_criterion_05_triangle_dimension_criterion():
    def body():
        budget = Budget(max_cosets=300, max_deductions=20_000, max_search_depth=2)
        pres = build_P(C4_COMPLEX, C4_BOUNDARY, {0})
        core = list(pres.core_generators())
        flat = taut_status(FreeGroupOracle(core), core, 3, budget)
        tri = flag_completion(cycle_graph(3))
        gens = [edge_symbol(u, v) for u, v in tri.sorted_edges()]
        filled = taut_status(BBOracle(tri), gens, 3, budget)
        _register_claims([flat, filled])
        ok = flat.status == NOT_TAUT and filled.status == TAUT
        return ok, (
            f"dimension 1: status(3) = {flat.status}; "
            f"dimension 2: status(3) = {filled.status}"
        )

    _run(5, body)


def test_criterion_06_kernel_length_bound():
    def body():
        start = time.monotonic()
        pres_s = build_P(C4_COMPLEX, C4_BOUNDARY, {0})
        pres_t = build_P(C4_COMPLEX, C4_BOUNDARY, {0, 2})
        quotient = Homomorphism.identity_on_generators(pres_s, pres_t)
        hom = BBImageHom(C4_COMPLEX)
        result = kernel_shortest_element(
            pres_s,
            pres_t,
            quotient,
            6,
            Budget(max_cosets=200, max_deductions=20_000, max_search_depth=1),
            homs_s=(hom,),
            homs_t=(hom,),
        )
        bound = kernel_length_lower_bound(1, {0}, {0, 2})
        length_ok = (not result.found) or (
            SqrtRational.of_ratio(result.length) >= bound
        )
        below_bound_absent = result.certified_lower_bound >= bound.ceil()
        elapsed = time.monotonic() - start
        ok = length_ok and below_bound_absent and result.unknown_count == 0
        return ok, (
            f"radius 6: found={result.found}, certified lower bound "
            f"{result.certified_lower_bound} >= predicted {bound.ceil()}, "
            f"{result.unknown_count} unknowns, {elapsed:.1f}s"
        )

    _run(6, body)


def test_criterion_07_long_cycle_nontriviality():
    def body():
        pres = build_P(C4_COMPLEX, C4_BOUNDARY, {0})
        loop = C4_BOUNDARY.loops[0]
        certified = []
        for n in (1, 2):
            w = _long_cycle_word(loop, n)
            # the Artin-group image telescopes away, so the permutation
            # quotient has to do the work
            if bb_image(C4_COMPLEX, w) != ():
                certified.append(f"n={n} via hom image")
                continue
            witness = finite_quotient_search(pres, w, 8)
            if witness is None:
                continue
            state = TriState("refuted", witness)
            if not verify_certificate(pres, state):
                return False, f"n={n} witness failed replay"
            REGISTRY.append((pres, state))
            certified.append(f"n={n} in S{witness.degree}")
        ok = len(certified) >= 1
        return ok, f"refuted {len(certified)}/2 long cycles ({'; '.join(certified)})"

    _run(7, body)


def test_criterion_08_schedule_arithmetic():
    def body():
        c = choose_C(1, 4)
        if c != 5:
            return False, f"choose_C(1, 4) = {c}, want 5"
        sched = predicted_intervals(Constants(1, 4, 5), 10)
        for prev, nxt in zip(sched.intervals, sched.intervals[1:]):
            if not (SqrtRational.of_ratio(prev.upper) < nxt.lower):
                return False, f"intervals {prev.n}, {nxt.n} overlap"
        obstruction = qi_obstruction({3}, set(), 5)
        if obstruction != {3: 5**7}:
            return False, f"qi_obstruction threshold {obstruction}"
        digits = len(str(sched.intervals[-1].upper))
        return True, (
            f"C = 5, 11 disjoint intervals (largest upper bound has {digits} "
            f"digits), threshold 5^7 = {5 ** 7}"
        )

    _run(8, body)


def test_criterion_09_k_relatedness_scan():
    def body():
        singles = {a: LengthSet.build([a]) for a in range(1, 201)}
        checks = 0
        for k in range(1, 11):
            threshold = k * k + 2 * k + 2
            for a in range(1, 201):
                for b in range(a, 201):
                    fwd = k_related(singles[a], singles[b], k)
                    if fwd.threshold != threshold:
                        return False, f"threshold mismatch at k={k}"
                    if fwd.status != k_related(singles[b], singles[a], k).status:
                        return False, f"asymmetry at ({a}, {b}, {k})"

                    def lacks_companion(x, y):
                        return x >= threshold and not (-(-x // k) <= y <= x * k)

                    expected = (
                        "not_related"
                        if lacks_companion(a, b) or lacks_companion(b, a)
                        else "related"
                    )
                    if fwd.status != expected:
                        return False, f"wrong verdict at ({a}, {b}, {k})"
                    checks += 1
        rng = random.Random(17)
        for _ in range(300):
            k = rng.randrange(1, 11)
            h1 = LengthSet.build(rng.sample(range(1, 201), rng.randrange(1, 7)))
            h2 = LengthSet.build(rng.sample(range(1, 201), rng.randrange(1, 7)))
            if k_related(h1, h2, k).status != k_related(h2, h1, k).status:
                return False, "asymmetry on random sets"
            checks += 1
        return True, f"{checks} pairs: symmetry and threshold behavior hold"

    _run(9, body)


def test_criterion_10_kernel_transfer():
    def body():
        start = time.monotonic()
        z6 = GroupPresentation.build(["g"], [(("g", 1),) * 6])
        z3 = GroupPresentation.build(["g"], [(("g", 1),) * 3])

        def rotation(n, shift):
            return {"g": {str(i): str((i + shift) % n) for i in range(n)}}

        ga_s = GroupAction.build(cycle_graph(24), z6, rotation(24, 4))
        ga_t = GroupAction.build(cycle_graph(12), z3, rotation(12, 4))
        if not (check_action(ga_s).valid and check_action(ga_t).valid):
            return False, "an action fails validation"
        quotient = Homomorphism.identity_on_generators(z6, z3)
        report = semiker_experiment(
            (ga_s, choose_orbits(ga_s)),
            (ga_t, choose_orbits(ga_t)),
            quotient,
            6,
        )
        elapsed = time.monotonic() - start
        ok = (
            report.passed
            and report.n == 2
            and report.kernel_words_checked > 0
            and elapsed < 600
        )
        return ok, (
            f"{report.kernel_words_checked} kernel words with {report.n} < l <= 6, "
            f"{len(report.counterexamples)} counterexamples, {elapsed:.1f}s"
        )

    _run(10, body)


def test_criterion_11_certificate_soundness():
    def body():
        failures = 0
        for pres, state in REGISTRY:
            if not verify_certificate(pres, state):
                failures += 1
        ok = failures == 0 and len(REGISTRY) >= 10
        return ok, f"replayed {len(REGISTRY)} certificates, {failures} failures"

    _run(11, body)
