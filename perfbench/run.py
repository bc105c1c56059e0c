"""coherence-lab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is imported from
the checkout's ``src/``, nothing is installed. Workloads are listed in
``workloads.py`` and explained in the README next to this file.

This process is the load generator. It starts no threads and runs one
child process at a time, so the program never shares the CPUs with it:

- ``--trace 0``: passes until ``--seconds`` of pass time have elapsed (at
  least two), with bare set-up probes spread between them. Each pass runs
  every invocation of the workload through ``cli.main`` in a fresh worker
  process. ``items_per_s`` is all work over all pass time, ``cpu_s`` the
  mean per pass, ``peak_rss_mb`` the median per pass and ``setup_s`` the
  median over the probes. Every time is taken at the reference speed: the
  worker samples the host's speed while it runs (``reference.py``) and
  the time as measured is rescaled by it.
- ``--trace 1``: pairs of one untraced and one traced pass until
  ``--seconds`` have elapsed (at least one pair). Per-layer metrics are
  medians over the traced passes; ``trace.overhead_frac`` compares the
  traced and untraced pass times.

After the last pass and outside every timed region, the correctness gate
checks each invocation's output against its expected value and requires
every pass to emit the same bytes. An invocation that exits nonzero or
fails either test counts as failed. The last line of standard output is
the JSON result; a run record (seed, versions, CPU counts, per-pass
numbers, failures) is written to ``.bench_out/records/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import reference
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
SETUP_PROBES = 12
# a run must end within 180 s; no pass starts that could not end before this
DEADLINE_S = 160.0


@dataclass
class Pass:
    index: int
    traced: bool
    process_s: float
    result: dict | None  # the worker's report; None when the worker failed
    error: str | None
    outputs: list[bytes] | None
    trace_path: Path | None = None


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _run_worker(pass_dir: Path, argvs: list[list[str]], traced: bool,
                deadline: float) -> tuple[float, dict | None, str | None]:
    pass_dir.mkdir(parents=True)
    spec = {
        "invocations": argvs,
        "result_path": str(pass_dir / "result.json"),
        "trace_path": str(pass_dir / "trace.json") if traced else None,
    }
    spec_path = pass_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    start = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            cwd=pass_dir, env=_worker_env(), capture_output=True, text=True,
            timeout=max(deadline - start, 1.0),
        )
    except subprocess.TimeoutExpired:
        return perf_counter() - start, None, "worker timed out"
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        return elapsed, None, f"worker exit {proc.returncode}: {proc.stderr[-1000:]}"
    return elapsed, json.loads((pass_dir / "result.json").read_text()), None


def _probe(run_dir: Path, index: int, deadline: float) -> dict:
    """One set-up sample: as measured, and at the reference speed."""
    probe_dir = run_dir / f"probe{index}"
    _, result, error = _run_worker(probe_dir, [], False, deadline)
    if result is None:
        raise RuntimeError(f"set-up probe failed: {error}")
    shutil.rmtree(probe_dir)
    return {"wall_s": result["setup_s"],
            "scaled_s": reference.scaled(result["setup_s"], result["setup_samples"])}


def _pass(run_dir: Path, index: int, invocations, traced: bool, deadline: float) -> Pass:
    pass_dir = run_dir / f"pass{index}"
    argvs = [
        list(inv.argv) + (["--out", str(pass_dir / inv.out)] if inv.out else [])
        for inv in invocations
    ]
    elapsed, result, error = _run_worker(pass_dir, argvs, traced, deadline)
    done = Pass(index, traced, elapsed, result, error, None)
    if result is not None:
        done.outputs = [
            (pass_dir / inv.out).read_bytes() if inv.out and run["code"] == 0
            else run["stdout"].encode()
            for inv, run in zip(invocations, result["invocations"])
        ]
        if traced:
            done.trace_path = run_dir / f"trace-pass{index}.json"
            (pass_dir / "trace.json").replace(done.trace_path)
    shutil.rmtree(pass_dir)
    state = "traced" if traced else "untraced"
    print(f"pass {index} ({state}): {elapsed:.2f} s"
          + (f", error: {error}" if error else ""), file=sys.stderr)
    return done


def gate(invocations, passes: list[Pass]) -> list[dict]:
    """Every failed invocation of every pass, with its reason."""
    import workloads

    failures = []
    reference: dict[int, tuple[int, str, str | None]] = {}
    for done in passes:
        for i, inv in enumerate(invocations):
            if done.result is None:
                reason = done.error
            else:
                code = done.result["invocations"][i]["code"]
                data = done.outputs[i]
                digest = hashlib.sha256(data).hexdigest()
                if code != 0:
                    reason = f"exit code {code}: {done.result['invocations'][i]['stderr'][-300:]}"
                else:
                    if i not in reference:
                        reference[i] = (done.index, digest, workloads.check(inv, data))
                    first, first_digest, verdict = reference[i]
                    if digest != first_digest:
                        reason = f"output bytes differ from pass {first}"
                    else:
                        reason = verdict
            if reason:
                failures.append({"pass": done.index, "invocation": i,
                                 "argv": " ".join(inv.argv), "reason": reason})
    return failures


def _layer_metrics(workload: str, done: Pass, invocations,
                   failed: set[int]) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced pass; ``failed`` holds its failed invocations."""
    import workloads

    rows = done.result["aggregates"]
    totals = {name: [0, 0.0, 0.0, 0] for name in tracer.SPAN_NAMES}
    pairs: dict[tuple, int] = {}
    for name, parent, calls, busy, self_s, errors in rows:
        total = totals[name]
        total[0] += calls
        total[1] += busy
        total[2] += self_s
        total[3] += errors
        pairs[(name, parent)] = pairs.get((name, parent), 0) + calls
    metrics: dict[str, float] = {}
    for name, (calls, busy, self_s, _) in totals.items():
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.busy_s"] = busy
        metrics[f"{name}.self_s"] = self_s
    for layer in tracer.LAYERS:
        metrics[f"{layer}.errors"] = sum(
            total[3] for name, total in totals.items() if name.startswith(layer + ".")
        )
    emitted = sum(
        int(workloads.parse_cloud(data)[0]["points"])
        for i, (inv, data) in enumerate(zip(invocations, done.outputs))
        if inv.check == "surface" and i not in failed
    )
    confirms = pairs.get((tracer.DECAY_CLOSED, "scan.frozen_surface"), 0)
    metrics["scan.confirm_yield"] = emitted / confirms if confirms else 0.0
    accepted = totals["sampling.random_physical_state"][0]
    tested = pairs.get(("states.is_physical", "sampling.random_physical_state"), 0)
    metrics["sampling.accept_ratio"] = accepted / tested if tested else 0.0
    metrics["cli.bytes_out"] = sum(len(data) for data in done.outputs)
    # the root's self time holds whatever no span below it accounts for
    metrics["trace.self_coverage"] = sum(
        row[4] for row in rows if row[0] != tracer.ROOT
    ) / done.result["wall_s"]
    mismatches = [
        f"{name}: calls={totals[name][0]} on {workload}, table names "
        f"{', '.join(sorted(moves))}"
        for name, moves in workloads.MOVES_ON.items()
        if (totals[name][0] > 0) != (workload in moves)
    ]
    metrics["trace.prediction_mismatches"] = len(mismatches)
    return metrics, mismatches


def execute(workload: str, seed: int, invocations, seconds: float, trace: bool,
            run_dir: Path) -> tuple[dict, dict]:
    """Measure one workload; return the JSON result and the run record."""
    deadline = perf_counter() + DEADLINE_S
    setups: list[dict] = []

    def probe_up_to(count: int) -> None:
        # past the deadline no probe starts but the first; each has 10 s of grace
        while not trace and len(setups) < count and (not setups or perf_counter() < deadline):
            setups.append(_probe(run_dir, len(setups), deadline + 10.0))

    # the probes are spread over the run in step with the pass time, so that
    # their median does not hang on the host's speed in one short stretch
    probe_up_to(1)
    passes: list[Pass] = []
    while True:
        for traced in ((False, True) if trace else (False,)):
            passes.append(_pass(run_dir, len(passes), invocations, traced, deadline))
        measured = sum(done.process_s for done in passes)
        slowest = max(done.process_s for done in passes)
        probe_up_to(SETUP_PROBES if measured >= seconds
                    else math.ceil(SETUP_PROBES * measured / seconds))
        enough = measured >= seconds and (trace or len(passes) >= 2)
        if enough or perf_counter() + slowest * (2 if trace else 1) > deadline:
            break
    probe_up_to(SETUP_PROBES)

    failures = gate(invocations, passes)
    failed = {(f["pass"], f["invocation"]) for f in failures}
    plain = [done.result for done in passes if done.result and not done.traced]
    traced = [done for done in passes if done.result and done.traced]
    mismatches: list[str] = []
    metrics: dict[str, float] = {}
    # with no completed pass of a kind the metrics it feeds stay out; the
    # failures are counted and the result says the run is not correct
    if trace:
        per_pass = []
        for done in traced:
            layer, mismatches = _layer_metrics(
                workload, done, invocations,
                {i for pass_index, i in failed if pass_index == done.index})
            per_pass.append(layer)
        if per_pass and plain:
            metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
            metrics["trace.overhead_frac"] = (
                statistics.median(done.result["wall_s"] for done in traced)
                / statistics.median(r["wall_s"] - r["samples"]["handler_s"] for r in plain)
                - 1.0
            )
        units = _units("per_layer")
    else:
        items = sum(inv.items for inv in invocations)
        # times are taken at the reference speed; throughput and CPU are
        # pooled over all passes, set-up is the median over the probes
        if plain:
            metrics = {
                "items_per_s": items * len(plain) / sum(_scaled(r, "wall_s") for r in plain),
                "cpu_s": statistics.mean(_scaled(r, "cpu_s") for r in plain),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
                "setup_s": statistics.median(s["scaled_s"] for s in setups),
            }
        units = _units("end_to_end")
    attempted = len(passes) * len(invocations)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        **_environment(),
        "invocations": [" ".join(inv.argv) for inv in invocations],
        "setup_probes": setups,
        "passes": [
            {"index": done.index, "traced": done.traced, "process_s": done.process_s,
             "error": done.error,
             **({key: done.result[key] for key in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")}
                if done.result else {}),
             **({"scaled_wall_s": _scaled(done.result, "wall_s"),
                 "scaled_cpu_s": _scaled(done.result, "cpu_s"),
                 "host_speed": reference.speed(done.result["samples"]["unit_s"]
                                               or done.result["setup_samples"]["unit_s"])}
                if done.result and not done.traced else {}),
             "trace_file": done.trace_path.name if done.trace_path else None}
            for done in passes
        ],
        "failures": failures,
        "prediction_mismatches": mismatches,
        "result": result,
    }
    return result, record


def _scaled(result: dict, key: str) -> float:
    """A pass's wall or CPU time at the reference speed."""
    return reference.scaled(result[key], result["samples"], result["setup_samples"])


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(section: str) -> dict[str, str]:
    """Metric name -> unit for one section of BENCHMARK.json, in its order."""
    return {m["name"]: m["unit"] for m in _benchmark_spec()[section]}


def _git_commit() -> str:
    """HEAD of the checkout; 'unknown' outside a git repository or without git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _environment() -> dict:
    import numpy
    import scipy

    threads = os.environ.get("COHERENCE_LAB_THREADS")
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "worker_count": threads if threads is not None else os.cpu_count(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "coherence_lab" / "cli.py").is_file():
        print(f"perfbench: no coherence_lab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.BUILDERS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.BUILDERS)}", file=sys.stderr)
        return 2
    invocations = workloads.build(args.workload, args.seed)
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    result, record = execute(args.workload, args.seed, invocations, args.seconds,
                             bool(args.trace), run_dir)
    record["run_dir"] = str(run_dir.relative_to(ROOT))
    records = WORK / "records"
    records.mkdir(exist_ok=True)
    record_path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))
    if not args.trace:
        shutil.rmtree(run_dir)
    for line in record["prediction_mismatches"]:
        print(f"prediction mismatch: {line}", file=sys.stderr)
    for failure in record["failures"][:5]:
        print(f"FAILED pass {failure['pass']}: {failure['argv']}: {failure['reason']}",
              file=sys.stderr)
    if len(record["failures"]) > 5:
        print(f"... {len(record['failures']) - 5} more failures in the record", file=sys.stderr)
    print(f"record: {record_path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
