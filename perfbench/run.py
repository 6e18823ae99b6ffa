#!/usr/bin/env python3
"""Layered benchmark of the powspec verifier.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run it from anywhere; it uses the package under ``src/`` of the checkout
it sits in and nothing installed.  Workloads (closed loop, one client; an
op is one (k, p) pair or one CLI invocation; the seed shuffles the pair
order within each pass, and reports do not depend on that order):

  verify-ladder    run_verification(k, p) with all 3 kinds x 2
                   constructions on (2,3) (2,5) (3,3) (2,7), n = 24..56,
                   in this process.  The exact charpoly dominates.
  structure-sweep  sweep([k], ps, kinds=()) per k-row over the 19 pairs
                   with n <= 256: presentation, both graph builds,
                   decomposition, model-vs-true diff and counts; no
                   charpoly and no eigensolve.  jobs stays 1.
  cli-cold         a fresh interpreter runs ``powspec verify --k 2 --p 3
                   --out FILE`` through verify_cli.main, one child at a
                   time; import and small-n fixed costs dominate.

``--trace 0`` measures with tracing off: passes run until ``--seconds``
have gone by and at least MIN_PASSES are done, and the end-to-end metrics
of BENCHMARK.json are reported: median pass time, tail pass time, set-up
time (median over SETUP_REPS fresh interpreters that import powspec and
make the workload's first call) and peak RSS of the process doing the
work.  ``--trace 1`` spends half of ``--seconds`` untraced and half with
spans around the package's public functions (spans.py) and reports the
per-layer metrics of BENCHMARK.json, per pass.

Times are seconds at reference speed: each op's wall time is scaled by a
calibration loop timed right before and after it (see CALIBRATION),
with this process and its children pinned to one CPU.  The median wall
time of a pass is printed next to the metrics.

Every report goes through the gate in gate.py, and must be byte-identical
to the first report of the same pair in the run, whether traced or not
and whether written by the CLI child or built in this process.  Ops that
fail count in ``failed``; failed_ratio = failed / attempted is printed
with the metrics.  It is not a BENCHMARK.json metric because metrics there
must never read 0.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
from child import CLI_ARGS, first_call
from gate import FULL_GAPS, STRUCTURE_GAPS, Gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

# A lower matrix cap silently skips checks and reads as a speed-up;
# POWSPEC_PURE selects a kernel backend.  Neither may leak into a run.
PINNED_ENV = ("POWSPEC_MATRIX_CAP", "POWSPEC_PURE")
MIN_PASSES = 3
SETUP_REPS = 5
CHILD_TIMEOUT_S = 120
# Seconds each calibration loop takes at reference speed.
CAL_REF_S = 0.05

WORKLOADS = ("verify-ladder", "structure-sweep", "cli-cold")
LADDER = ((2, 3), (2, 5), (3, 3), (2, 7))
# Every (k, p) with n = 2^(k+1) p <= 256, the default matrix cap.
SWEEP_ROWS = {
    2: (3, 5, 7, 11, 13, 17, 19, 23, 29, 31),
    3: (3, 5, 7, 11, 13),
    4: (3, 5, 7),
    5: (3,),
}
MATRIX_KINDS = ("adjacency", "laplacian", "signless")
CONSTRUCTIONS = ("model", "true")


def timed(fn, *args, **kwargs):
    """(seconds, result, problems); an exception is a failed op, not a crash."""
    t0 = time.perf_counter()
    try:
        result, problems = fn(*args, **kwargs), []
    except Exception as exc:  # the benchmark must go on and count it
        result, problems = None, [f"raised {exc!r}"]
    return time.perf_counter() - t0, result, problems


def integer_loop() -> None:
    acc = 0
    for i in range(500_000):
        acc = (acc * 31 + i) % 1000003


def object_loop() -> None:
    # ring and seen stay small, so that the loop does not raise peak_rss_mb.
    ring: list = [None] * 1024
    seen: set = set()
    for i in range(60_000):
        pair = (i % 977, i % 1013)
        seen.add(pair)
        ring[i & 1023] = frozenset((pair, (i, 0)))
        if len(seen) > 4096:
            seen.clear()


# On a shared host the speed of one core swings by +-20% within seconds
# and drifts by as much over minutes, and powspec's pure-Python work swings
# with it.  Each op's wall time is scaled by CAL_REF_S / the time of a fixed
# loop sampled before and after it, the loop whose speed follows the
# workload's under contention: integer arithmetic for big-int Bareiss and
# for the CLI, small-object churn for the graph builds of the sweep.  In a
# side-by-side on a 2-vCPU VM this cut the spread of 30-second medians from
# 11% to 4% for run_verification(2, 5) with integer_loop (object_loop: 11%),
# and from 15% to 6% for a sweep pass with object_loop (integer_loop: 9%).
CALIBRATION = {
    "verify-ladder": integer_loop,
    "structure-sweep": object_loop,
    "cli-cold": integer_loop,
}


def calibration_s(loop) -> float:
    """Seconds the calibration loop takes right now."""
    t0 = time.perf_counter()
    loop()
    return time.perf_counter() - t0


class ReferenceSpeed:
    """Scales consecutive ops' wall times by the loop timed around each."""

    def __init__(self, loop):
        self.loop = loop
        self.before = calibration_s(loop)

    def __call__(self, wall: float) -> float:
        after = calibration_s(self.loop)
        scaled = wall * 2 * CAL_REF_S / (self.before + after)
        self.before = after
        return scaled


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least 10 samples beyond it, labelled;
    the slowest sample when there are 10 or fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], f"max of {n} passes"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.0f} of {n} passes"


class Run:
    """One benchmark run of one workload: ops, gate and counters."""

    def __init__(self, workload: str, seed: int, gate: Gate, workdir: Path):
        from powspec import verify_cli

        self.workload = workload
        self.rng = random.Random(seed)
        self.gate = gate
        self.workdir = workdir
        self.verify_cli = verify_cli
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reports: dict[tuple, str] = {}
        self.tracer: spans.Tracer | None = None
        self.at_reference_speed = ReferenceSpeed(CALIBRATION[workload])
        self.first_key = ("structure" if workload == "structure-sweep" else "full", 2, 3)
        self.run_pass = {
            "verify-ladder": self.ladder_pass,
            "structure-sweep": self.sweep_pass,
            "cli-cold": self.cli_pass,
        }[workload]

    def check(self, key: tuple, text: str | None, problems: list[str]) -> None:
        """Gate one op.  key is (gaps, k, p) with gaps "full" or "structure"."""
        self.attempted += 1
        if text is not None:
            gaps, k, p = key
            report = json.loads(text)
            problems = problems + self.gate.violations(
                report, k, p, FULL_GAPS if gaps == "full" else STRUCTURE_GAPS
            )
            if text != self.reports.setdefault(key, text):
                problems.append("report bytes differ from the first report of this pair")
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{key}: {problems[0]}")

    def ladder_pass(self) -> tuple[float, float]:
        pairs = list(LADDER)
        self.rng.shuffle(pairs)
        scaled = wall = 0.0
        for k, p in pairs:
            dt, report, problems = timed(self.verify_cli.run_verification, k, p)
            wall += dt
            scaled += self.at_reference_speed(dt)
            self.check(("full", k, p), report and report.to_json(), problems)
        return scaled, wall

    def sweep_pass(self) -> tuple[float, float]:
        rows = list(SWEEP_ROWS.items())
        self.rng.shuffle(rows)
        scaled = wall = 0.0
        for k, ps in rows:
            ps = list(ps)
            self.rng.shuffle(ps)
            dt, reports, problems = timed(self.verify_cli.sweep, [k], ps, kinds=())
            wall += dt
            scaled += self.at_reference_speed(dt)
            for i, p in enumerate(ps):
                self.check(("structure", k, p), reports and reports[i].to_json(), problems)
        return scaled, wall

    def cli_pass(self) -> tuple[float, float]:
        out = self.workdir / "cli-report.json"
        out.unlink(missing_ok=True)
        spans_file = self.workdir / "cli-spans.json"
        argv = [
            sys.executable,
            str(CHILD),
            "cli",
            str(spans_file) if self.tracer is not None else "-",
            *CLI_ARGS,
            "--out",
            str(out),
        ]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        dt = time.perf_counter() - t0
        scaled = self.at_reference_speed(dt)
        problems = []
        if proc.returncode != 0:
            problems.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
        if not any(line.startswith("status: pass ") for line in proc.stdout.splitlines()):
            problems.append("no 'status: pass' line on stdout")
        text = out.read_text() if out.exists() else None
        if text is None:
            problems.append("--out file was not written")
        self.check(self.first_key, text, problems)
        if self.tracer is not None and proc.returncode == 0:
            self.tracer.merge(json.loads(spans_file.read_text()))
        return scaled, dt

    def warm_up(self) -> None:
        """The workload's smallest op in this process, which also records
        the reference report every later report of that pair must match;
        cli-cold then runs one child."""
        reference = "structure-sweep" if self.workload == "structure-sweep" else "verify-ladder"
        _, text, problems = timed(first_call, reference, self.verify_cli, None)
        self.check(self.first_key, text, problems)
        if self.workload == "cli-cold":
            self.cli_pass()

    def setup_seconds(self) -> float:
        times = []
        out = self.workdir / "setup-report.json"
        # Set-up is import-bound like the CLI, which integer_loop follows.
        at_reference_speed = ReferenceSpeed(integer_loop)
        for _ in range(SETUP_REPS):
            argv = [sys.executable, str(CHILD), "setup", self.workload, str(out)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            if proc.returncode != 0:
                self.check(self.first_key, None, [f"set-up child exited {proc.returncode}"])
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            times.append(at_reference_speed(result["setup_s"]))
            self.check(self.first_key, result["report"], [])
        return statistics.median(times)

    def measure(self, budget: float) -> tuple[list[float], list[float]]:
        """Passes at reference speed, and the same passes in wall seconds."""
        scaled: list[float] = []
        wall: list[float] = []
        self.at_reference_speed = ReferenceSpeed(CALIBRATION[self.workload])
        start = time.perf_counter()
        while len(scaled) < MIN_PASSES or time.perf_counter() - start < budget:
            at_reference, seconds = self.run_pass()
            scaled.append(at_reference)
            wall.append(seconds)
        return scaled, wall

    def leverrier_cross_check(self) -> None:
        """Faddeev-LeVerrier, the independent route, on each ladder model
        adjacency, against the claimed closed form.  The inputs are built
        before the tracer is installed so that only the route is timed."""
        from powspec import exact_linalg, formulas, powergraph

        cases = [
            (
                k,
                p,
                exact_linalg.matrix_of(powergraph.build_model_graph(k, p), "adjacency"),
                formulas.adjacency_charpoly_formula(k, p).expand().monic_normalized(),
            )
            for k, p in LADDER
        ]
        with self.tracer:
            for k, p, matrix, claimed in cases:
                _, got, problems = timed(exact_linalg.char_poly_leverrier, matrix)
                if got is not None and got != claimed:
                    problems.append("Faddeev-LeVerrier differs from the closed form")
                self.check(("leverrier", k, p), None, problems)


# Spans reported as seconds per pass, and the subset also reported as calls per pass.
TIMED_SPANS = (
    "exact_linalg.char_poly_exact",
    "exact_linalg.matrix_of",
    "kernels.det_bareiss",
    "powergraph.build_power_graph",
    "powergraph.build_model_graph",
    "powergraph.verify_decomposition",
    "powergraph.graph_diff",
    "powergraph.model_adjacency_split",
    "group_core.validate_presentation",
    "formulas.closed_form_expand",
    "spectra.symmetric_eigenvalues",
    "spectra.spectral_radius",
    spans.RUN_VERIFICATION,
    "verify_cli.to_json",
    "verify_cli.cli.import",
    "verify_cli.cli.main",
)
COUNTED_SPANS = (
    "exact_linalg.char_poly_exact",
    "exact_linalg.matrix_of",
    "kernels.det_bareiss",
    "powergraph.build_power_graph",
    "spectra.symmetric_eigenvalues",
)


def layer_metrics(
    tr: spans.Tracer, traced: list[float], traced_wall: list[float], untraced: list[float]
) -> dict:
    """Per-layer metrics per traced pass.  Span seconds are put on the
    reference-speed scale of pass_s with the traced passes' overall factor."""
    n = len(traced)
    s, rv = tr.seconds, spans.RUN_VERIFICATION
    out = {f"{span}_s": (s[span] / n, "s") for span in TIMED_SPANS}
    out.update({f"{span}_calls": (tr.calls[span] / n, "count") for span in COUNTED_SPANS})
    for kind in MATRIX_KINDS:
        for construction in CONSTRUCTIONS:
            label = f"{kind}.{construction}"
            out[f"exact_linalg.char_poly_exact_s.{label}"] = (tr.charpoly_by_matrix[label] / n, "s")
    out.update(
        {
            # one round over the four ladder model adjacencies, not per pass
            "exact_linalg.char_poly_leverrier_s": (s["exact_linalg.char_poly_leverrier"], "s"),
            "exact_linalg.max_coeff_bits": (tr.max_coeff_bits, "bits"),
            "kernels.bareiss_mults": (tr.bareiss_mults / n, "count-computed"),
            "verify_cli.self_s": ((s[rv] - tr.child_seconds[rv]) / n, "s"),
            "trace.coverage": (tr.child_seconds[rv] / s[rv] if s[rv] else 0.0, "ratio"),
            "trace.overhead_ratio": (
                statistics.median(traced) / statistics.median(untraced),
                "ratio",
            ),
        }
    )
    scale = sum(traced) / sum(traced_wall)
    return {name: (v * scale if unit == "s" else v, unit) for name, (v, unit) in out.items()}


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (the checkout has no readable .git)"


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def pin_environment() -> list[str]:
    return [var for var in PINNED_ENV if os.environ.pop(var, None) is not None]


def import_package() -> None:
    """Import powspec from this checkout's src/, or exit with a message."""
    if not (SRC / "powspec" / "__init__.py").is_file():
        sys.exit(f"perfbench: no powspec package under {SRC}")
    sys.path.insert(0, str(SRC))
    import powspec
    from powspec import exact_linalg

    if not Path(powspec.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported powspec from {powspec.__file__}, not from {SRC}")
    if exact_linalg.matrix_order_cap() != exact_linalg.DEFAULT_MATRIX_CAP:
        sys.exit("perfbench: the matrix order cap is not the default")


def facts(seed, unset: list[str], cpus: set[int]) -> dict:
    import numpy
    from powspec import exact_linalg

    kernels = sys.modules.get("powspec.kernels")
    return {
        "nproc": len(cpus),
        "pinned_cpu": min(cpus),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernels.BACKEND": getattr(kernels, "BACKEND", "no kernels module"),
        "matrix_order_cap": exact_linalg.matrix_order_cap(),
        "git_revision": git_revision(),
        "seed": seed,
        "unset_env": unset,
    }


def benchmark(args, gate: Gate, workdir: Path) -> int:
    declared = declared_metrics(bool(args.trace))
    run = Run(args.workload, args.seed, gate, workdir)
    run.warm_up()
    details = {}
    if args.trace:
        untraced, _ = run.measure(args.seconds / 2)
        run.tracer = spans.Tracer()
        if args.workload == "cli-cold":
            traced, traced_wall = run.measure(args.seconds / 2)
        else:
            with run.tracer:
                traced, traced_wall = run.measure(args.seconds / 2)
            if args.workload == "verify-ladder":
                run.leverrier_cross_check()
        metrics = layer_metrics(run.tracer, traced, traced_wall, untraced)
        details["passes"] = f"{len(untraced)} untraced, {len(traced)} traced"
    else:
        setup_s = run.setup_seconds()
        passes, wall = run.measure(args.seconds)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
        tail_s, details["pass_s_tail"] = tail(passes)
        metrics = {
            "pass_s": (statistics.median(passes), "s"),
            "pass_s_tail": (tail_s, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MiB"),
        }
        details["passes"] = str(len(passes))
        details["pass wall seconds, median"] = repr(statistics.median(wall))
    produced = {name: unit for name, (_, unit) in metrics.items()}
    if produced != declared:
        sys.exit(f"perfbench: metrics {produced} do not match BENCHMARK.json {declared}")

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    for name, value in details.items():
        print(f"# {name}: {value}")
    print(f"# failed_ratio = {run.failed / run.attempted!r} ({run.failed} of {run.attempted} ops)")
    for problem in run.problems:
        print(f"# gate: {problem}")
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def self_check(gate: Gate, workdir: Path) -> int:
    """Each workload once on its smallest input, traced and untraced, and
    the gate counting broken reports as failures."""
    results = []
    for workload in WORKLOADS:
        run = Run(workload, 0, gate, workdir)
        run.warm_up()
        run.tracer = spans.Tracer()
        if workload == "cli-cold":
            run.cli_pass()
        else:
            with run.tracer:
                run.warm_up()
        calls = run.tracer.calls
        want_charpolys = 0 if workload == "structure-sweep" else 6
        traced_ok = (
            calls[spans.RUN_VERIFICATION] == 1
            and calls["exact_linalg.char_poly_exact"] == want_charpolys
            and len(run.tracer.charpoly_by_matrix) == want_charpolys
            and calls["powergraph.build_power_graph"] > 0
        )
        results.append((f"{workload}: smallest input passes the gate", run.failed == 0))
        results.append((f"{workload}: spans recorded around the public functions", traced_ok))

    from powspec import verify_cli

    good = first_call("verify-ladder", verify_cli, None)

    def failures(edit) -> int:
        report = json.loads(good)
        edit(report)
        run = Run("verify-ladder", 0, gate, workdir)
        run.check(("full", 2, 3), json.dumps(report, indent=2) + "\n", [])
        return run.failed

    def fail_a_check(report):
        report["checks"][0]["status"] = "fail"

    def add_a_notice(report):
        report["notices"].append("charpoly adjacency/true skipped: matrix order 24 exceeds the cap")

    def resolve_a_mismatch(report):
        check = next(c for c in report["checks"] if c["status"] == "mismatch-reported")
        check["status"] = "pass"
        report["counts"]["mismatch-reported"] -= 1
        report["counts"]["pass"] += 1

    results.append(("gate: an unchanged report passes", failures(lambda r: None) == 0))
    results.append(("gate: a failed check counts as a failure", failures(fail_a_check) == 1))
    results.append(("gate: a notice counts as a failure", failures(add_a_notice) == 1))
    results.append(
        ("gate: a changed mismatch count counts as a failure", failures(resolve_a_mismatch) == 1)
    )
    run = Run("verify-ladder", 0, gate, workdir)
    run.check(("full", 2, 3), good, [])
    run.check(("full", 2, 3), good.replace('"pass"', '"pass" '), [])
    results.append(("gate: changed report bytes count as a failure", run.failed == 1))

    for name, ok in results:
        print(f"self-check: {name}: {'ok' if ok else 'FAILED'}")
    return 0 if all(ok for _, ok in results) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Layered benchmark of the powspec verifier.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--self-check", action="store_true", help="quick check of every workload and of the gate"
    )
    args = parser.parse_args(argv)
    if args.workload is None and not args.self_check:
        parser.error("--workload is required")

    unset = pin_environment()
    # One CPU for this process and its children, so that each calibration
    # sample is taken on the core the work it scales ran on.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    import_package()
    try:
        gate = Gate(ROOT / "docs" / "report.schema.json")
    except ImportError:
        sys.exit("perfbench: jsonschema is required for the report gate")
    for key, value in facts(args.seed, unset, cpus).items():
        print(f"# {key}: {value}")
    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        if args.self_check:
            return self_check(gate, Path(tmp))
        return benchmark(args, gate, Path(tmp))


if __name__ == "__main__":
    sys.exit(main())
