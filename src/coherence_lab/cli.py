"""Command-line interface.

Subcommands:

    coherence       evaluate coherence measures at a state
    evolve          push a state through n channel iterations
    decay-curve     decay rates over a p grid, written as CSV
    frozen-surface  frozen-coherence point cloud, written as CSV or PLY
    verify          deterministic self-check of all dual-route computations

Exit codes: 0 success, 1 invalid input or usage, 2 internal numerical error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .channels import (
    ChannelKind,
    CoefficientMapMode,
    _checked_rows,
    _evolve_coefficients,
    _evolve_matrices,
    apply_n,
    coefficient_map,
    kraus_set,
    single_parameter_kraus_set,
)
from . import __version__
from .coherence import Measure, _matrix_rows, closed_measure, closed_measures
from .decay import DecayQuery, Engine, decay_rates
from .errors import CoherenceLabError, ParameterRangeError, ValidationError, require_count
from .sampling import Lcg, _draw_states
from .scan import DecayCurve, SurfacePointCloud, decay_curve, frozen_surface, lattice_axis
from .states import (
    BellCoefficients,
    _correlations,
    require_physical,
    to_density_matrix,
    validate_density_matrix,
)

P_CLAMP = 1e-12

VERIFY_MEASURE_TOL = 1e-9
VERIFY_MAP_TOL = 1e-9
VERIFY_RESIDUAL_TOL = 1e-10
VERIFY_ENGINE_TOL = 1e-8


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D401 - argparse hook
        raise _UsageError(message)


def _parse_state(text: str) -> BellCoefficients:
    c = BellCoefficients.from_text(text)
    require_physical(*c)
    return c


def _clamped_probability(args: argparse.Namespace, name: str) -> float:
    """The option ``args.<name>`` in [0, 1], with 0 and 1 clamped into the open interval.

    A clamp's warning goes on ``args.warnings``, which ``main`` prints only
    once the command returns, so an invocation that fails prints no warning.
    """
    value = getattr(args, name)
    if not 0.0 <= value <= 1.0:  # NaN fails too
        raise ParameterRangeError(f"{name} must lie in [0, 1], got {value!r}")
    if value == 0.0:
        args.warnings.append(f"warning: {name}=0 clamped to {P_CLAMP:g}")
        return P_CLAMP
    if value == 1.0:
        args.warnings.append(f"warning: {name}=1 clamped to 1-{P_CLAMP:g}")
        return 1.0 - P_CLAMP
    return value


def _parse_n_list(text: str) -> tuple[int, ...]:
    """Integers of 'n1,n2,...'; ``decay_curve`` checks that each is positive."""
    try:
        return tuple(int(part.strip()) for part in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"could not parse iteration list from {text!r}") from exc


@contextmanager
def _output(path: str | None):
    """The one output writer: yields ``write(text)`` for a command's result.

    Without a path the text goes to stdout. With one, entering rejects a
    path that has no file name or that names a directory, and creates the
    temporary file beside the file ``path`` resolves to through any
    symlinks, so an unwritable path fails before the work in the ``with``
    body. When the body ends, the text is written to that file and the file
    is renamed onto the resolved target, as ``open(path, "w")`` would write
    through a symlink. The temporary file is opened as ``open`` opens a
    file, so a new target gets mode 0o666 less the umask; an existing target
    keeps its permission bits. The temporary file is removed on any failure.
    """
    if path is None:
        yield sys.stdout.write
        return
    if not os.path.basename(path) or os.path.isdir(path):
        raise ValidationError(f"cannot write {path}: it names no file")
    target = os.path.realpath(path)
    tmp = os.path.join(os.path.dirname(target), f".coherence-lab-{os.urandom(8).hex()}")
    with _cannot_write(path):
        fh = open(tmp, "x", newline="")
    try:
        with fh:
            parts = []
            yield parts.append
            with _cannot_write(path):
                fh.write("".join(parts))
                fh.close()
                if os.path.exists(target):
                    shutil.copymode(target, tmp)
                os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@contextmanager
def _cannot_write(path: str):
    """Re-raise an OSError of the block as the ValidationError 'cannot write ``path``'."""
    try:
        yield
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _curve_csv(curve: DecayCurve) -> str:
    """One line per p: p and its rates, each as ``{:.9g}``, by one ``%`` format per line.

    ``"%.9g" % x`` and ``f"{x:.9g}"`` give the same text for every float.
    """
    header = "p," + ",".join(f"n={n}" for n in curve.n_list)
    row = ",".join(["%.9g"] * (1 + len(curve.n_list)))
    lines = [row % tuple(values)
             for values in np.column_stack([curve.p_values, curve.rates]).tolist()]
    return "\n".join([header, *lines]) + "\n"


def _metadata_comment(cloud: SurfacePointCloud) -> str:
    return ", ".join(f"{key}={value:.9g}" if isinstance(value, float) else f"{key}={value}"
                     for key, value in cloud.metadata().items())


def _rows(cloud: SurfacePointCloud, sep: str) -> list[str]:
    """The cloud's lines, one per point with each coordinate as ``{:.9g}``, one string per run.

    Each of the cloud's runs (i, j, k0, k1) is taken as it is. Each of the
    grid_res axis values is formatted once and each run's ``c1{sep}c2{sep}``
    prefix once; a run's string is its lines joined by newlines, and a run
    of one point is its one line, with no join. An empty cloud gives no strings.
    """
    text = [f"{v:.9g}" for v in lattice_axis(cloud.grid_res).tolist()]
    lead = [t + sep for t in text]
    rows = []
    for i, j, k0, k1 in cloud.runs.tolist():
        prefix = lead[i] + lead[j]
        if k0 == k1:
            rows.append(prefix + text[k0])
        else:
            rows.append(prefix + ("\n" + prefix).join(text[k0:k1 + 1]))
    return rows


def _cloud_csv(cloud: SurfacePointCloud) -> str:
    lines = [f"# {_metadata_comment(cloud)}", "c1,c2,c3", *_rows(cloud, ",")]
    return "\n".join(lines) + "\n"


def _cloud_ply(cloud: SurfacePointCloud) -> str:
    lines = [
        "ply",
        "format ascii 1.0",
        f"comment {_metadata_comment(cloud)}",
        f"element vertex {cloud.metadata()['points']}",
        "property float x",
        "property float y",
        "property float z",
        "end_header",
        *_rows(cloud, " "),
    ]
    return "\n".join(lines) + "\n"


def _print_measure_triple(value_of: Callable[[Measure], float]) -> None:
    for measure in Measure:
        print(f"{measure.value} = {value_of(measure):.12g}")


def _cmd_coherence(args: argparse.Namespace) -> int:
    state = _parse_state(args.state)
    if args.measure is not None:
        print(f"{closed_measure(Measure(args.measure), state):.12g}")
    else:
        _print_measure_triple(lambda m: closed_measure(m, state))
    return 0


def _cmd_evolve(args: argparse.Namespace) -> int:
    state = _parse_state(args.state)
    kind = ChannelKind(args.channel)
    mode = CoefficientMapMode(args.coeff_map)
    if args.method == "closed-form" and args.gamma is not None:
        raise ValidationError("--gamma requires --method kraus (two-parameter gad)")
    if args.method != "closed-form" and mode is CoefficientMapMode.PAPER:
        raise ValidationError("--coeff-map paper requires --method closed-form")
    p = _clamped_probability(args, "p")
    if args.method == "closed-form":
        evolved = coefficient_map(kind, p, args.n, state, mode)
        residual = "0"
        value_of = lambda m: closed_measure(m, evolved)
    else:
        if args.gamma is not None:
            kset = kraus_set(kind, p, _clamped_probability(args, "gamma"))
        else:
            kset = single_parameter_kraus_set(kind, p)
        # apply_n validates its last step's output, so it is read unchecked
        rho = apply_n(to_density_matrix(state), kset, args.n)
        evolved, residual = _correlations(rho)
        residual = f"{residual:.3e}"
        value_of = lambda m: float(_matrix_rows(m, rho))
    print("state: " + ",".join(f"{c:.12g}" for c in evolved))
    print(f"residual: {residual}")
    _print_measure_triple(value_of)
    return 0


def _cmd_decay_curve(args: argparse.Namespace) -> int:
    with _output(args.out) as write:
        curve = decay_curve(
            ChannelKind(args.channel),
            Measure(args.measure),
            _parse_state(args.state),
            _parse_n_list(args.n_list),
            p_count=args.grid,
            mode=CoefficientMapMode(args.coeff_map),
        )
        write(_curve_csv(curve))
    if args.out is not None:
        print(f"wrote {args.out}: {len(curve.p_values)} p values x {len(curve.n_list)} n values")
    return 0


def _cmd_frozen_surface(args: argparse.Namespace) -> int:
    with _output(args.out) as write:
        cloud = frozen_surface(
            ChannelKind(args.channel),
            Measure(args.measure),
            _clamped_probability(args, "p"),
            args.n,
            grid_res=args.grid,
            tol=args.tol,
            min_coherence=args.min_coherence,
            mode=CoefficientMapMode(args.coeff_map),
        )
        render = _cloud_ply if args.format == "ply" else _cloud_csv
        write(render(cloud))
    if args.out is not None:
        points = cloud.metadata()["points"]
        print(f"wrote {args.out}: points={points} components={cloud.components}")
    return 0


@dataclass(frozen=True)
class _Deviation:
    """The worst deviation of one verify check and the row that produced it."""

    check: str
    worst: float
    tol: float | None  # None: reported, not scored
    witness: dict
    samples: int

    @property
    def ok(self) -> bool:
        return self.tol is None or self.worst <= self.tol


def _worst(
    check: str, deviations: np.ndarray, tol: float | None, witness,
    template: str = "{check}: max dev {worst:.3e} (tol {tol:.0e})",
) -> tuple[_Deviation, str]:
    """The largest of per-row ``deviations`` and its stdout line, from ``template``.

    ``witness(row)`` describes the first row with that deviation.
    """
    row = int(np.argmax(deviations))
    dev = _Deviation(check, float(deviations[row]), tol, witness(row), len(deviations))
    return dev, "  " + template.format(check=check, worst=dev.worst, tol=tol)


def _witness(state, channel=None, p=None, n=None, measure=None) -> dict:
    return {
        "state": [float(c) for c in state],
        "channel": None if channel is None else ChannelKind(channel).value,
        "p": None if p is None else float(p),
        "n": None if n is None else int(n),
        "measure": None if measure is None else Measure(measure).value,
    }


def _verify_measures(seed: int, trials: int) -> list[tuple[_Deviation, str]]:
    """Closed forms against the matrix measures, on one (trials, 4, 4) stack.

    The stack is validated once and measured with the unchecked matrix forms.
    """
    states, _ = _draw_states(Lcg(seed), trials, 0.0, 0)
    rho = validate_density_matrix(to_density_matrix(BellCoefficients(*states.T)))
    return [
        _worst(
            f"closed vs matrix [{measure.value}]",
            np.abs(closed_measures(measure, *states.T) - _matrix_rows(measure, rho)),
            VERIFY_MEASURE_TOL,
            lambda row: _witness(states[row], measure=measure),
        )
        for measure in Measure
    ]


def _verify_coefficient_maps(seed: int, trials: int) -> list[tuple[_Deviation, str]]:
    """The coefficient map against the Kraus route, on one stack of every channel kind.

    ``trials`` is unused: the draws are fixed, 60 per channel kind, drawn
    kind by kind in the order listed. The rows' channels are checked by one
    ``_checked_rows`` call, the drawn rows for physicality and their matrices
    once each, and both routes then run the twins' unchecked bodies; the
    evolved matrices are validated once, as ``_evolve_matrices`` returns them.
    """
    cells = [(kind, p, n) for kind in ChannelKind
             for p in (0.1, 0.3, 0.5, 0.7, 0.9) for n in (1, 2, 5, 9) for _ in range(3)]
    states, _ = _draw_states(Lcg(seed + 1), len(cells), 0.0, 0)
    rho = validate_density_matrix(to_density_matrix(BellCoefficients(*states.T)))
    kinds, ps, counts = _checked_rows(rho, (4, 4), *zip(*cells))
    coefficients, residual = _correlations(_evolve_matrices(rho, kinds, ps, counts))
    extracted = np.column_stack(coefficients)

    def gap(picked, mode):
        rows = ([part[row] for row in picked] for part in (kinds, ps))
        mapped = _evolve_coefficients(states[picked], *rows, counts[picked], [mode] * len(picked))
        return np.max(np.abs(mapped - extracted[picked]), axis=1)

    def witness(row):
        return _witness(states[row], *cells[row])

    every = np.arange(len(cells))
    dep = [row for row, kind in enumerate(kinds) if kind is ChannelKind.DEPOLARIZING]
    return [
        _worst("coefficient map vs Kraus route", gap(every, CoefficientMapMode.DERIVED),
               VERIFY_MAP_TOL, witness),
        _worst("Bell-diagonal extraction residual", residual, VERIFY_RESIDUAL_TOL, witness,
               "{check}: max {worst:.3e} (tol {tol:.0e})"),
        _worst("dep paper-mode gap vs Kraus route", gap(dep, CoefficientMapMode.PAPER), None,
               lambda row: witness(dep[row]),
               "info: {check}: {worst:.3e} (single- vs squared-contraction; not scored)"),
    ]


def _verify_engines(seed: int, trials: int) -> list[tuple[_Deviation, str]]:
    """Both decay engines on the same queries, each engine in one ``decay_rates`` call."""
    kinds = list(ChannelKind)
    measures = list(Measure)
    # l1 floor keeps the ratio denominator well conditioned; one float after
    # each state gives its p
    states, extras = _draw_states(Lcg(seed + 2), trials, 1e-2, 1)
    ps = 0.05 + (0.95 - 0.05) * extras[:, 0]
    queries, oracle_queries = [], []
    for index, (state, p) in enumerate(zip(states.tolist(), ps.tolist())):
        args = (BellCoefficients(*state), measures[index % len(measures)],
                kinds[index % len(kinds)], p, 1 + (index % 12))
        queries.append(DecayQuery(*args))
        oracle_queries.append(DecayQuery(*args, engine=Engine.MATRIX_ORACLE))
    closed = decay_rates(queries)
    oracle = decay_rates(oracle_queries)

    def witness(row):
        q = queries[row]
        return _witness(q.state, q.kind, q.p, q.n, q.measure)

    return [_worst(
        "closed-form vs matrix-oracle decay rate", np.abs(closed - oracle), VERIFY_ENGINE_TOL,
        witness, "{check}: max dev {worst:.3e} (tol {tol:.0e}, states drawn with l1 >= 1e-2)",
    )]


def _cmd_verify(args: argparse.Namespace) -> int:
    require_count("--trials", args.trials)
    suites = (
        ("coherence measures", _verify_measures),
        ("coefficient maps", _verify_coefficient_maps),
        ("decay engines", _verify_engines),
    )
    reports = []
    with _output(args.json) as write:
        print(f"verify: seed={args.seed} trials={args.trials}")
        for name, suite in suites:
            start = time.perf_counter()
            checks = suite(args.seed, args.trials)
            wall_s = time.perf_counter() - start
            passed = all(dev.ok for dev, _ in checks)
            print(f"suite {name}: {'PASS' if passed else 'FAIL'}")
            for _, line in checks:
                print(line)
            reports.append({
                "suite": name,
                "passed": passed,
                "wall_s": wall_s,
                "checks": [asdict(dev) for dev, _ in checks],
            })
        passed = all(report["passed"] for report in reports)
        print(f"verify: {'PASS' if passed else 'FAIL'}")
        if args.json is not None:
            from importlib.metadata import version

            report = {
                "seed": args.seed,
                "trials": args.trials,
                "version": __version__,
                "numpy": np.__version__,
                "scipy": version("scipy"),
                "suites": reports,
                "passed": passed,
            }
            write(json.dumps(report, indent=2) + "\n")
    return 0 if passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call and shared by every later one.

    Parsing leaves it unchanged: each ``parse_args`` call fills a fresh
    namespace, so nothing carries over from one ``main`` call to the next.
    Each subcommand's handler is bound here, once, by
    ``set_defaults(func=_cmd_...)``, so patching a ``_cmd_*`` name after the
    first build changes nothing; a test patches what the handler calls.
    """
    parser = _Parser(prog="coherence-lab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    channel_kwargs = dict(choices=[k.value for k in ChannelKind], required=True)
    measure_choices = [m.value for m in Measure]
    map_kwargs = dict(
        choices=[m.value for m in CoefficientMapMode],
        default=CoefficientMapMode.DERIVED.value,
        help="dep contraction convention (default: derived)",
    )

    p_coh = sub.add_parser("coherence", help="coherence measures at a state")
    p_coh.add_argument("state", help="coefficients 'c1,c2,c3'")
    p_coh.add_argument("--measure", choices=measure_choices, default=None,
                       help="one measure (default: print all three)")
    p_coh.set_defaults(func=_cmd_coherence)

    p_evo = sub.add_parser("evolve", help="apply n channel iterations to a state")
    p_evo.add_argument("--channel", **channel_kwargs)
    p_evo.add_argument("--p", type=float, required=True)
    p_evo.add_argument("--gamma", type=float, default=None,
                       help="gad damping (kraus method only; p becomes the mixing weight)")
    p_evo.add_argument("--n", type=int, required=True)
    p_evo.add_argument("--state", required=True)
    p_evo.add_argument("--method", choices=["closed-form", "kraus"], default="closed-form")
    p_evo.add_argument("--coeff-map", **map_kwargs)
    p_evo.set_defaults(func=_cmd_evolve)

    p_cur = sub.add_parser("decay-curve", help="decay rates over a p grid (CSV)")
    p_cur.add_argument("--channel", **channel_kwargs)
    p_cur.add_argument("--measure", choices=measure_choices, required=True)
    p_cur.add_argument("--state", required=True)
    p_cur.add_argument("--n-list", required=True, help="comma-separated iteration counts")
    p_cur.add_argument("--grid", type=int, default=99,
                       help="number of interior p values k/(grid+1) (default: 99)")
    p_cur.add_argument("--coeff-map", **map_kwargs)
    p_cur.add_argument("--out", default=None, help="output path (default: stdout)")
    p_cur.set_defaults(func=_cmd_decay_curve)

    p_sur = sub.add_parser("frozen-surface", help="frozen-coherence point cloud (CSV or PLY)")
    p_sur.add_argument("--channel", **channel_kwargs)
    p_sur.add_argument("--measure", choices=measure_choices, required=True)
    p_sur.add_argument("--p", type=float, required=True)
    p_sur.add_argument("--n", type=int, required=True)
    p_sur.add_argument("--grid", type=int, default=101, help="lattice points per axis (odd)")
    p_sur.add_argument("--tol", type=float, default=1e-3, help="freezing tolerance on |R-1|")
    p_sur.add_argument("--min-coherence", type=float, default=1e-4,
                       help="initial-coherence floor")
    p_sur.add_argument("--coeff-map", **map_kwargs)
    p_sur.add_argument("--format", choices=["csv", "ply"], default="csv")
    p_sur.add_argument("--out", default=None, help="output path (default: stdout)")
    p_sur.set_defaults(func=_cmd_frozen_surface)

    p_ver = sub.add_parser("verify", help="deterministic dual-route self-check")
    p_ver.add_argument("--seed", type=int, default=42)
    p_ver.add_argument("--trials", type=int, default=1000)
    p_ver.add_argument("--json", default=None,
                       help="also write worst deviations, witnesses and timings as JSON")
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one invocation and return its exit code; ``main`` may be called many times.

    Every call parses with the shared parser of ``build_parser`` and gets a
    fresh namespace, whose ``warnings`` list this call alone fills and prints.
    """
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    args.warnings = []
    try:
        code = args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CoherenceLabError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    for warning in args.warnings:
        print(warning, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
