"""Benchmark of tautloop: certified spectra, certificate replay, per-layer traces.

One workload, in this process:

    python3 perfbench/run.py --workload racg-c5-spectrum --seed 1 --seconds 28 --trace 0

All four workloads, one after another, each in its own process:

    python3 perfbench/run.py --workload all

With ``--trace 0`` the run measures the end-to-end metrics of BENCHMARK.json
with tracing off; every time is scaled to a nominal host speed measured next
to it (see ``speed.py``), and the raw time is printed beside it.  With
``--trace 1`` it solves once untraced, then at least twice with the wrappers
of ``tracing.py`` installed, and reports the per-layer metrics.  Every run
checks every answer (see ``workloads.certify``); the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The program is imported from the
``src/`` directory next to this one and nowhere else.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import tautloop  # noqa: E402

if Path(tautloop.__file__).resolve().parent.parent != SRC:
    raise SystemExit(f"tautloop was imported from {tautloop.__file__}, not from {SRC}")

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 15
TIMES = ("solve_s", "verify_s", "certified_s")
# a fresh interpreter that imports tautloop and builds one workload's inputs
PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.build(sys.argv[3], int(sys.argv[4]))"
)


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        return (git / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    except OSError:
        return "unavailable (not a git checkout)"


def source_record() -> dict:
    """Revision, line count and content hash of the code under test."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"revision": git_revision(), "src_lines": lines, "src_sha256": digest.hexdigest()}


class SetupProbes:
    """Seconds from process start through import and input building, each
    probe a fresh interpreter bracketed by reference passes.

    The probes are spread evenly over the run, between repeats, so that they
    meet the same host load as the repeats do.
    """

    def __init__(self, workload: str, seed: int, start: float, seconds: float) -> None:
        self.cmd = [sys.executable, "-c", PROBE, str(SRC), str(HERE), workload, str(seed)]
        self.start, self.step = start, seconds / SETUP_PROBES
        self.raw: list[float] = []
        self.scaled: list[float] = []

    def run_due(self, before: float, finish: bool = False) -> float:
        """Run the probes now due (all that are left, if ``finish``); returns
        the last pass."""
        while len(self.raw) < SETUP_PROBES and (
            finish or time.perf_counter() >= self.start + len(self.raw) * self.step
        ):
            start = time.perf_counter()
            subprocess.run(self.cmd, check=True)
            self.raw.append(time.perf_counter() - start)
            after = speed.pass_s(self.raw[-1])
            self.scaled.append(self.raw[-1] * speed.scale(before, after))
            before = after
        return before


def solve_and_certify(job, reference: dict):
    """One input; its answer is dropped before the next input is submitted."""
    start = time.perf_counter()
    answer = job.solve()
    solve_s = time.perf_counter() - start
    return (solve_s, *workloads.certify(job, answer, reference))


def run_repeat(jobs, reference: dict, before: float) -> tuple[dict, float]:
    """Submit every input in turn; each is solved, then certified.

    Each input sits between two reference passes, the first of which is
    ``before``; its times are kept raw (``<key>_raw``) and scaled to the
    nominal speed (``<key>``).  Returns the repeat and the last pass.
    """
    rep = dict.fromkeys((*TIMES, *(f"{key}_raw" for key in TIMES)), 0.0)
    attempted, failed = 0, []
    for job in jobs:
        gc.collect()
        solve_s, replay_s, ops, bad = solve_and_certify(job, reference)
        after = speed.pass_s(solve_s + replay_s)
        factor = speed.scale(before, after)
        before = after
        for key, raw in (("solve_s", solve_s), ("verify_s", replay_s), ("certified_s", solve_s + replay_s)):
            rep[f"{key}_raw"] += raw
            rep[key] += raw * factor
        attempted += len(ops)
        failed += bad
    return {**rep, "attempted": attempted, "failed": failed}, before


def run_repeats(jobs, reference: dict, deadline: float, minimum: int, tracer=None, probes=None) -> list[dict]:
    """Repeat until the next repeat would end after the deadline; run the
    set-up probes that fall due between repeats."""
    out = []
    before = speed.pass_s()
    while True:
        start = time.perf_counter()
        if tracer is not None:
            tracer.reset()
        rep, before = run_repeat(jobs, reference, before)
        if tracer is not None:
            rep["layers"] = tracer.metrics()
        out.append(rep)
        if probes is not None:
            before = probes.run_due(before)
        now = time.perf_counter()
        if len(out) >= minimum and now + (now - start) > deadline:
            if probes is not None:
                probes.run_due(before, finish=True)
            return out


def describe(samples: list[float], unit: str) -> str:
    """Median, the highest percentile with ten samples beyond it, and minimum."""
    ordered = sorted(samples)
    n = len(ordered)
    text = f"median {statistics.median(ordered):.4f} {unit}"
    if n > 10:
        text += f", p{100 * (n - 10) / n:.0f} {ordered[n - 11]:.4f} {unit}"
    return f"{text}, min {ordered[0]:.4f} {unit} (n={n})"


def tally(reps: list[dict]) -> tuple[int, list[str]]:
    return sum(r["attempted"] for r in reps), [key for r in reps for key in r["failed"]]


def measure(workload: str, seed: int, seconds: int):
    """End-to-end metrics, tracing off: medians over the repeats of a run,
    and over fresh processes for set-up time."""
    jobs = workloads.build(workload, seed)
    start = time.perf_counter()
    probes = SetupProbes(workload, seed, start, seconds)
    reps = run_repeats(jobs, {}, start + seconds, minimum=1, probes=probes)
    samples = {"setup_s": probes.scaled, "setup_s_raw": probes.raw}
    for key in TIMES:
        samples[key] = [r[key] for r in reps]
        samples[f"{key}_raw"] = [r[f"{key}_raw"] for r in reps]
    for key in (*TIMES, "setup_s"):
        print(f"{key:<14} {describe(samples[key], 's')}")
        print(f"{'  raw':<14} {describe(samples[key + '_raw'], 's')}")
    values = {key: statistics.median(v) for key, v in samples.items()}
    values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{'peak_rss_mib':<14} {values['peak_rss_mib']:.2f} MiB")
    return (values, samples, *tally(reps))


def measure_traced(workload: str, seed: int, seconds: int, spec: list[dict]):
    """Per-layer metrics: untraced repeats for half the time, then traced ones.

    Traced answers are checked against the bytes of the untraced ones, and
    every per-layer count must repeat exactly across the traced repeats.
    """
    jobs = workloads.build(workload, seed)
    start = time.perf_counter()
    reference: dict = {}
    untraced = run_repeats(jobs, reference, start + seconds / 2, minimum=1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_repeats(jobs, reference, start + seconds, minimum=2, tracer=tracer)
    finally:
        tracer.uninstall()
    layers = [r["layers"] for r in traced]
    values = {key: statistics.median(l[key] for l in layers) for key in layers[0]}
    samples = {
        "solve_s": [r["solve_s"] for r in untraced],
        "traced_solve_s": [r["solve_s"] for r in traced],
        "solve_s_raw": [r["solve_s_raw"] for r in untraced],
        "traced_solve_s_raw": [r["solve_s_raw"] for r in traced],
    }
    traced_solve, untraced_solve = (statistics.median(samples[k]) for k in ("traced_solve_s", "solve_s"))
    values["trace.overhead_s"] = traced_solve - untraced_solve
    print(f"{'solve_s':<14} untraced {describe(samples['solve_s'], 's')}")
    print(f"{'solve_s':<14} traced {describe(samples['traced_solve_s'], 's')}")
    attempted, failed = tally(untraced + traced)
    counts = [m["name"] for m in spec if m["unit"] != "s"]
    if any(l[c] != layers[0][c] for l in layers for c in counts):
        failed.append("trace.counts")
    return values, samples, attempted + 1, failed


def run_one(args, spec: dict) -> int:
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    print(f"workload {args.workload}, seed {args.seed}, seconds {args.seconds}, trace {args.trace}")
    speed.pin_to_one_cpu()
    if args.trace:
        values, samples, attempted, failed = measure_traced(args.workload, args.seed, args.seconds, wanted)
    else:
        values, samples, attempted, failed = measure(args.workload, args.seed, args.seconds)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    if args.trace:
        for name, metric in metrics.items():
            print(f"{name:<48} {metric['value']:.6g} {metric['unit']}")
    print(f"{'failed_ratio':<14} {len(failed)}/{attempted} = {len(failed) / attempted:.4g} ratio")
    for key in failed:
        print(f"FAILED {key}")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **source_record(),
              "samples": samples}
    print("record " + json.dumps(record, sort_keys=True))
    result = {"correct": not failed, "attempted": attempted, "failed": len(failed), "metrics": metrics}
    print(json.dumps(result))
    return 0 if not failed else 1


def run_all(args) -> int:
    """Each workload in a fresh process, one at a time; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        try:
            result = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            raise SystemExit(f"{workload}: no result (exit code {proc.returncode})")
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"][workload] = result["metrics"]
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
