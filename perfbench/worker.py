"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json

SPEC holds the CLI argument lists to run, the path the result goes to and,
for a traced pass, the path the spans go to. The worker times its own import
of ``coherence_lab.cli`` plus ``build_parser()`` (one set-up sample), then
runs every argument list through ``cli.main`` in this process and records
exit codes, captured output, wall time, CPU time and peak resident memory.
With zero argument lists it is a bare set-up probe.

The set-up and every untraced pass also sample the speed of the host while
they run (``reference.Sampler``), so that the harness can rescale their
times to a fixed reference speed.
"""

from __future__ import annotations

from time import perf_counter

from reference import Sampler

_sampler = Sampler()
_sampler.start()
_setup_start = perf_counter()
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import coherence_lab.cli as cli  # noqa: E402

cli.build_parser()
_setup_s = perf_counter() - _setup_start
_sampler.stop()
_setup_samples = _sampler.since((0, 0.0))


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    tracer = None
    if spec.get("trace_path"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        _sampler.start()
    invocations = []
    mark = _sampler.mark()
    cpu_start = _cpu_s()
    for argv in spec["invocations"]:
        out = io.StringIO()
        err = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception:  # an uncaught error fails this invocation, not the pass
                traceback.print_exc()
                code = -1
        wall = perf_counter() - start
        invocations.append({
            "code": code,
            "wall_s": wall,
            "stdout": out.getvalue(),
            "stderr": err.getvalue()[-2000:],
        })
    cpu_s = _cpu_s() - cpu_start
    _sampler.stop()
    result = {
        "setup_s": _setup_s,
        "setup_samples": _setup_samples,
        "wall_s": sum(inv["wall_s"] for inv in invocations),
        "cpu_s": cpu_s,
        "samples": _sampler.since(mark),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "invocations": invocations,
    }
    if tracer is not None:
        tracer.uninstall()
        result["aggregates"] = tracer.aggregates()
        with open(spec["trace_path"], "w") as fh:
            json.dump({"spans": tracer.spans, "aggregates": result["aggregates"]}, fh)
    with open(spec["result_path"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
