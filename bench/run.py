"""End-to-end and per-layer benchmark of the ``singlerail`` CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload concentrate-sweep --seed 1 --seconds 35 --trace 0

Closed loop, one client: a single process calls ``singlerail.cli.main``
in-process, one job after the other, each with a ``--config`` file and an
``--output`` file.  A *pass* runs every job of the workload once; passes
repeat until ``--seconds`` have gone by.  Only the ``main`` calls are
timed; reading, verifying and hashing each output happen outside.  A
fixed reference task (``reference.py``) is timed between jobs, and each
job's time is converted to the host's reference speed, so that the
host's drifting speed does not show as a change of the program.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from spans around the package's public functions (see
``spans.py``), alternating untraced and traced passes so that the
tracing overhead is measured in the same run.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH_DIR))
from reference import REFERENCE_S, reference_seconds  # noqa: E402
from spans import LAYERS, Tracer, span_names  # noqa: E402
from verify import Mismatch, check_table  # noqa: E402
from workloads import WORKLOADS, Job, build_jobs  # noqa: E402

#: a run always makes at least this many passes (twice as many when
#: traced), so every job is repeated and its output bytes compared
MIN_PASSES = 3
#: fresh interpreters timed for setup_s, spread evenly over the run so that
#: their median sees the same machine conditions as the passes
SETUP_RUNS = 9
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {"points_per_s": "points/s", "setup_s": "s", "peak_rss_mb": "MB"}


def _timed(prefix: str, functions: tuple[str, ...]) -> dict[str, str]:
    return {
        f"{prefix}.{f}.{kind}": unit
        for f in functions
        for kind, unit in (("s", "s/pass"), ("calls", "calls/pass"))
    }


#: per-layer metric name -> unit, in report order
PER_LAYER_UNITS = {
    **_timed("fock", ("project", "without_modes", "tensor")),
    "fock.validated_constructions": "count/pass",
    "fock.terms_validated": "count/pass",
    "fock.self_s": "s/pass",
    **_timed(
        "optics", ("apply_beam_splitter", "detect_single_photon", "qnd_measure", "phase_flip")
    ),
    "optics.self_s": "s/pass",
    **_timed("protocols", ("concentration_round", "recyclable_to_pair", "swap")),
    "protocols.iterate_concentration.self_s": "s/pass",
    "protocols.walks_per_point_round": "ratio",
    "protocols.self_s": "s/pass",
    **_timed("analytics", ("yield_oracle",)),
    "analytics.oracle_peak_bits": "bits",
    "analytics.compare_yield.self_s": "s/pass",
    "analytics.monte_carlo_yield.self_s": "s/pass",
    "analytics.yield_series.s": "s/pass",
    "analytics.self_s": "s/pass",
    "cli.main.self_s": "s/pass",
    "cli.render.s": "s/pass",
    "cli.output_bytes": "bytes/pass",
    "trace.overhead_ratio": "ratio",
    "jobs.failed_ratio": "ratio",
}

#: per-layer values that are counts: they must repeat exactly across passes
EXACT_COUNTS = tuple(
    name
    for name, unit in PER_LAYER_UNITS.items()
    if unit in ("calls/pass", "count/pass", "bits", "bytes/pass")
    or name == "protocols.walks_per_point_round"
)


# -- one job, one pass --------------------------------------------------------------


@dataclass
class JobResult:
    job: Job
    seconds: float
    outcome: str  # ok / wrong / refused / crash
    detail: str
    digest: str | None
    output_bytes: int
    #: ``seconds`` at the host's reference speed, gauged by the reference
    #: task timed right before and right after the job
    ref_seconds: float = 0.0

    @property
    def expected(self) -> bool:
        if self.job.edge is None:
            return self.outcome == "ok"
        return self.job.edge.accepts(self.outcome, self.detail)


@dataclass
class PassResult:
    jobs: list[JobResult]
    traced: bool
    layer: dict = field(default_factory=dict)

    @property
    def points(self) -> int:
        return sum(len(r.job.alpha_sq) for r in self.jobs if r.outcome == "ok")

    @property
    def rate(self) -> float:
        """Verified points per second of job time at the reference speed."""
        return self.points / sum(r.ref_seconds for r in self.jobs)

    @property
    def wall_rate(self) -> float:
        """Verified points per second of job wall time, unadjusted."""
        return self.points / sum(r.seconds for r in self.jobs)


def _first_line(text: str) -> str:
    return text.strip().splitlines()[0] if text.strip() else ""


class Runner:
    """Runs and classifies jobs; caches verdicts by output digest."""

    def __init__(self, cli, jobs: list[tuple[Job, Path, Path]]):
        self.cli = cli
        self.jobs = jobs
        self._verdicts: dict[tuple[str, str | None], tuple[str, str]] = {}
        self._reference: float | None = None

    def run_job(self, job: Job, config_path: Path, output_path: Path) -> JobResult:
        output_path.unlink(missing_ok=True)
        argv = job.argv(config_path, output_path)
        captured = io.StringIO()
        exc = None
        with redirect_stdout(captured), redirect_stderr(captured):
            t0 = perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception as e:  # an uncaught program error is a measured outcome
                exc = e
            seconds = perf_counter() - t0
        data = output_path.read_bytes() if output_path.exists() else b""
        digest = hashlib.sha256(data).hexdigest() if data else None
        if exc is not None:
            outcome, detail = "crash", f"{type(exc).__name__}: {exc}"
        elif code == 1:
            outcome, detail = "refused", _first_line(captured.getvalue())
        elif code != 0:
            outcome, detail = "crash", f"exit {code}: {_first_line(captured.getvalue())}"
        else:
            key = (job.name, digest)
            if key not in self._verdicts:
                try:
                    check_table(job, data.decode("utf-8"))
                    self._verdicts[key] = ("ok", "")
                except (Mismatch, ValueError, KeyError) as e:
                    self._verdicts[key] = ("wrong", str(e) or type(e).__name__)
            outcome, detail = self._verdicts[key]
        return JobResult(job, seconds, outcome, detail, digest, len(data))

    def run_timed(self, j: tuple[Job, Path, Path]) -> JobResult:
        """Run one job between two samples of the reference task."""
        before = self._reference if self._reference is not None else reference_seconds()
        result = self.run_job(*j)
        self._reference = reference_seconds()
        result.ref_seconds = result.seconds * REFERENCE_S * 2.0 / (before + self._reference)
        return result

    def run_pass(self, tracer: Tracer | None = None) -> PassResult:
        self._reference = None
        if tracer is None:
            return PassResult([self.run_timed(j) for j in self.jobs], traced=False)
        tracer.reset()
        results = []
        peak_bits = 0
        tracer.install()
        try:
            for job_id, j in enumerate(self.jobs):
                tracer.job_id = job_id
                results.append(self.run_timed(j))
                peak_bits = max(peak_bits, tracer.take_oracle_peak_bits())
        finally:
            tracer.remove()
        result = PassResult(results, traced=True)
        result.layer = layer_metrics(tracer, result, peak_bits)
        return result


def layer_metrics(tracer: Tracer, result: PassResult, peak_bits: int) -> dict:
    m: dict[str, float] = {}
    for name in span_names():
        m[f"{name}.s"] = tracer.incl[name]
        m[f"{name}.self_s"] = tracer.self_time[name]
        m[f"{name}.calls"] = tracer.calls[name]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            v for k, v in tracer.self_time.items() if k.startswith(layer + ".")
        )
    m["fock.validated_constructions"] = tracer.counts["fock.validated_constructions"]
    m["fock.terms_validated"] = tracer.counts["fock.terms_validated"]
    point_rounds = sum(len(r.job.alpha_sq) * r.job.point_rounds for r in result.jobs)
    walks = tracer.calls["protocols.concentration_round"]
    m["protocols.walks_per_point_round"] = walks / point_rounds if point_rounds else 0.0
    m["analytics.oracle_peak_bits"] = peak_bits
    m["cli.render.s"] = tracer.incl["cli.render_csv"] + tracer.incl["cli.render_json"]
    m["cli.output_bytes"] = sum(r.output_bytes for r in result.jobs)
    return m


# -- fresh-process measurements -----------------------------------------------------


def _run_child(args: list[str]) -> list[str]:
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
        cwd=ROOT,
    ).stdout.splitlines()


def import_seconds() -> float:
    """Time for one fresh interpreter to import ``singlerail.cli``."""
    seconds, path = _run_child(
        [
            "-c",
            "import time; t = time.perf_counter(); import singlerail.cli as c; "
            "print(time.perf_counter() - t); print(c.__file__)",
        ]
    )
    if Path(path).resolve().parent.parent != SRC.resolve():
        raise RuntimeError(f"fresh interpreter imported singlerail from {path}")
    return float(seconds)


def gauged_import_seconds() -> tuple[float, float]:
    """``import_seconds`` as measured and at the host's reference speed,
    gauged by the reference task timed right before and right after."""
    before = reference_seconds()
    seconds = import_seconds()
    after = reference_seconds()
    return seconds, seconds * REFERENCE_S * 2.0 / (before + after)


def peak_rss_mb(workload: str, seed: int) -> float:
    """Peak RSS of a fresh process that imports the package and runs one pass."""
    args = [__file__, "--workload", workload, "--seed", str(seed), "--child-pass"]
    return float(_run_child(args)[-1])


def child_pass(workload: str, seed: int) -> None:
    """Run one pass unverified, so that only the program's memory counts."""
    cli = import_cli()
    for job, config_path, output_path in build_jobs(
        workload, seed, OUT_ROOT / f"{workload}-seed{seed}-rss"
    ):
        try:
            cli.main(job.argv(config_path, output_path))
        except Exception:  # the parent run classifies every outcome
            pass
    # VmHWM starts afresh at exec; ru_maxrss would keep the parent's peak
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            print(int(line.split()[1]) / 1024.0)


# -- context ------------------------------------------------------------------------


def import_cli():
    if not (SRC / "singlerail" / "cli.py").is_file():
        raise SystemExit(f"error: no singlerail sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import singlerail.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"error: singlerail was imported from {cli.__file__}, not {SRC}")
    return cli


def _commit() -> str:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def run_context() -> dict:
    import numpy

    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


# -- one run ------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cli = import_cli()
    context = run_context()
    out_dir = OUT_ROOT / f"{workload}-seed{seed}-trace{int(trace)}"
    runner = Runner(cli, build_jobs(workload, seed, out_dir))

    setup_times: list[tuple[float, float]] = []
    if not trace:
        import_seconds()  # fills the bytecode cache; not a sample
        rss = peak_rss_mb(workload, seed)
    tracer = Tracer() if trace else None
    spans: list = []
    passes: list[PassResult] = []
    start = perf_counter()
    last = 0.0  # duration of the previous loop step
    # a further pass starts only if it is due to end nearer the deadline than not
    while len(passes) < MIN_PASSES * (1 + trace) or perf_counter() - start + last / 2 < seconds:
        step_start = perf_counter()
        traced = trace and len(passes) % 2 == 1
        if traced and not spans:
            tracer.spans = spans  # raw spans of the first traced pass only
        passes.append(runner.run_pass(tracer if traced else None))
        if traced:
            tracer.spans = None
        due = len(setup_times) * seconds / SETUP_RUNS
        if not trace and len(setup_times) < SETUP_RUNS and perf_counter() - start >= due:
            setup_times.append(gauged_import_seconds())
        last = perf_counter() - step_start
    wall = perf_counter() - start
    while not trace and len(setup_times) < SETUP_RUNS:
        setup_times.append(gauged_import_seconds())

    problems = []
    for i, (job, _, _) in enumerate(runner.jobs):
        if len({p.jobs[i].digest for p in passes}) != 1:
            problems.append(f"{job.name}: output bytes differ between passes")
    results = [r for p in passes for r in p.jobs]
    unexpected = [r for r in results if not r.expected]
    for r in {(r.job.name, r.outcome, r.detail): r for r in unexpected}.values():
        problems.append(f"{r.job.name}: unexpected outcome {r.outcome} ({r.detail})")
    failed_ratio = sum(r.outcome != "ok" for r in passes[0].jobs) / len(passes[0].jobs)

    untraced = [p.rate for p in passes if not p.traced]
    traced_passes = [p for p in passes if p.traced]
    all_layer = {}
    if trace:
        for name in EXACT_COUNTS:
            if len({p.layer[name] for p in traced_passes}) != 1:
                problems.append(f"{name}: count differs between traced passes")
        all_layer = {
            k: statistics.median(p.layer[k] for p in traced_passes)
            for k in traced_passes[0].layer
        }
        all_layer["trace.overhead_ratio"] = statistics.median(untraced) / statistics.median(
            p.rate for p in traced_passes
        )
        all_layer["jobs.failed_ratio"] = failed_ratio
        values, units = all_layer, PER_LAYER_UNITS
        with open(out_dir / "spans.jsonl", "w", encoding="utf-8") as fh:
            for job_id, span_id, parent, name, t0, dt in spans:
                record = {
                    "job": runner.jobs[job_id][0].name,
                    "span": span_id,
                    "parent": parent,
                    "name": name,
                    "start": t0,
                    "seconds": dt,
                }
                fh.write(json.dumps(record) + "\n")
    else:
        values = {
            "points_per_s": statistics.median(untraced),
            "setup_s": statistics.median(ref for _, ref in setup_times),
            "peak_rss_mb": rss,
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    summary = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "context": context,
        "why": WORKLOADS[workload].why,
        "passes": len(passes),
        "wall_s": wall,
        "pass_rates": {"untraced": untraced, "traced": [p.rate for p in traced_passes]},
        "pass_wall_rates": [p.wall_rate for p in passes if not p.traced],
        "pass_job_ref_seconds": [[r.ref_seconds for r in p.jobs] for p in passes],
        "reference_task_s": statistics.median(
            r.seconds * REFERENCE_S / r.ref_seconds for r in results
        ),
        "setup_samples_s": [wall for wall, _ in setup_times],
        "setup_samples_ref_s": [ref for _, ref in setup_times],
        "jobs": [
            {
                "job": r.job.name,
                "points": len(r.job.alpha_sq),
                "outcome": r.outcome,
                "detail": r.detail,
                "expected": r.expected,
                "known_defect": r.job.edge.defect if r.job.edge else None,
                "seconds_median": statistics.median(p.jobs[i].seconds for p in passes),
            }
            for i, r in enumerate(passes[0].jobs)
        ],
        "failed_ratio": failed_ratio,
        "problems": problems,
        "metrics": metrics,
        "all_layer_metrics": all_layer,
    }
    (out_dir / "report.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    result = {
        "correct": not problems,
        "attempted": len(results),
        "failed": len(unexpected),
        "metrics": metrics,
    }
    return {"summary": summary, "result": result}


def print_report(s: dict) -> None:
    print(f"# {s['workload']} seed={s['seed']} trace={s['trace']}: {s['passes']} passes")
    print("# context " + json.dumps(s["context"]))
    for j in s["jobs"]:
        line = (
            f"#   job {j['job']:<24} {j['outcome']:<8} {j['points']:>3} points"
            f" {j['seconds_median'] * 1e3:10.2f} ms  {j['detail'][:90]}"
        )
        if not j["expected"]:
            line += "  UNEXPECTED"
        if j["known_defect"] and j["outcome"] != "ok":
            line += f"  [known defect: {j['known_defect']}]"
        print(line)
    print(f"#   reference task: median {s['reference_task_s']:.6g} s (scale {REFERENCE_S} s)")
    rates = {**s["pass_rates"], "untraced wall-clock": s["pass_wall_rates"]}
    for kind, values in rates.items():
        if len(values) >= 2:
            q1, q2, q3 = statistics.quantiles(values, n=4)
            print(
                f"#   {kind} points/s per pass: median {q2:.6g},"
                f" quartiles {q1:.6g} .. {q3:.6g}, n={len(values)}"
            )
    print(
        f"#   failed_ratio {s['failed_ratio']:.6g}"
        " (jobs per pass that did not exit 0 with verified rows)"
    )
    for name, m in s["metrics"].items():
        print(f"#   {name:<42} {m['value']:>14.6g} {m['unit']}")
    for p in s["problems"]:
        print(f"#   PROBLEM {p}")
    print(f"#   verdict: {'NOT correct' if s['problems'] else 'correct'}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child-pass", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child_pass:
        child_pass(args.workload, args.seed)
        return 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        out = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        print_report(out["summary"])
        print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
