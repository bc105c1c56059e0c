"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload at grid 11, trials 5 and p_count 9, untraced and
traced, and checks that:

- the correctness gate passes and exactly the metrics that BENCHMARK.json
  names are emitted;
- an invocation given a deliberately wrong expected value is counted as
  failed, not dropped, and the result says the run is not correct;
- a traced run in which one invocation exits nonzero still reports every
  per-layer metric, counts that invocation as failed and is not correct;
- ``run.py`` in a directory holding only BENCHMARK.json and the benchmark's
  own files exits nonzero without printing a result.

Prints one line per check and exits 0 when all of them hold.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402

WORK = run.WORK / "selftest"
SEED = 1


def _wrong(invocation: workloads.Invocation) -> workloads.Invocation:
    """The same invocation with an expected value that its output cannot match."""
    expected = dict(invocation.expected)
    if invocation.check == "surface":
        expected["points"] += 1
    elif invocation.check == "verify":
        expected["last_line"] = "verify: FAIL"
    else:
        row, col, value = expected["cells"][0]
        expected["cells"] = [(row, col, value + 1e-6)] + expected["cells"][1:]
    return dataclasses.replace(invocation, expected=expected)


def _exits_nonzero(invocation: workloads.Invocation) -> workloads.Invocation:
    """The same invocation with an even grid, which the CLI rejects with exit code 1."""
    return dataclasses.replace(invocation, argv=invocation.argv + ("--grid", "10"))


def _measure(name: str, invocations, trace: bool) -> dict:
    run_dir = WORK / f"{name}-trace{int(trace)}"
    run_dir.mkdir(parents=True)
    result, _ = run.execute(name, SEED, invocations, 0, trace, run_dir)
    return result


def _bare_directory_fails() -> tuple[bool, str]:
    bare = WORK / "bare"
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "surface-dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode != 0 and not proc.stdout, f"exit {proc.returncode}"


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    names = {False: set(run._units("end_to_end")), True: set(run._units("per_layer"))}
    checks: list[tuple[str, bool, str]] = []
    for name in workloads.BUILDERS:
        invocations = workloads.build(name, SEED, workloads.TINY)
        for trace in (False, True):
            result = _measure(name, invocations, trace)
            emitted = set(result["metrics"])
            finite = all(math.isfinite(m["value"]) for m in result["metrics"].values())
            checks.append((
                f"{name} trace={int(trace)}: gate passes, every metric emitted",
                result["correct"] and result["failed"] == 0 and emitted == names[trace]
                and finite,
                f"failed={result['failed']}/{result['attempted']}, "
                f"missing={sorted(names[trace] - emitted)}, extra={sorted(emitted - names[trace])}",
            ))
        tampered = [_wrong(invocations[0])] + invocations[1:]
        result = _measure(f"{name}-wrong", tampered, False)
        passes = result["attempted"] // len(invocations)
        checks.append((
            f"{name}: a wrong expected value counts as a failure",
            not result["correct"] and result["failed"] == passes
            and result["attempted"] == passes * len(invocations),
            f"failed={result['failed']}/{result['attempted']} over {passes} passes",
        ))
    invocations = workloads.build("surface-dense", SEED, workloads.TINY)
    result = _measure("surface-dense-exit", [_exits_nonzero(invocations[0])] + invocations[1:],
                      True)
    passes = result["attempted"] // len(invocations)
    checks.append((
        "surface-dense trace=1: a nonzero exit counts as a failure, every metric emitted",
        not result["correct"] and result["failed"] == passes
        and set(result["metrics"]) == names[True],
        f"failed={result['failed']}/{result['attempted']} over {passes} passes",
    ))
    ok, detail = _bare_directory_fails()
    checks.append(("bare benchmark directory exits nonzero with no result", ok, detail))
    for label, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {label} ({detail})")
    all_ok = all(ok for _, ok, _ in checks)
    print(json.dumps({"selftest": "PASS" if all_ok else "FAIL", "checks": len(checks)}))
    shutil.rmtree(WORK, ignore_errors=True)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
