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
import json
import os
import shutil
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from typing import Callable, Sequence

import numpy as np
import scipy

from .channels import (
    ChannelKind,
    CoefficientMapMode,
    apply_n,
    coefficient_map,
    evolve_rows,
    kraus_set,
    per_iteration_factors,
    single_parameter_kraus_set,
)
from . import __version__
from .coherence import Measure, closed_measure, closed_measures, matrix_measure
from .decay import DecayQuery, Engine, decay_rates
from .errors import CoherenceLabError, ParameterRangeError, ValidationError, require_count
from .sampling import Lcg, random_physical_state, sample_states
from .scan import DecayCurve, SurfacePointCloud, decay_curve, frozen_surface, lattice_axis
from .states import BellCoefficients, from_density_matrix, require_physical, to_density_matrix

P_CLAMP = 1e-12

VERIFY_MEASURE_TOL = 1e-9
VERIFY_MAP_TOL = 1e-9
VERIFY_RESIDUAL_TOL = 1e-10
VERIFY_ENGINE_TOL = 1e-8

# verify's decay-engine stacks: one channel kind each, and at most this many
# rows, which keeps its per-row Kraus products and their adjoints under 1 MB
_ROWS_PER_STACK = 100


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D401 - argparse hook
        raise _UsageError(message)


def _parse_state(text: str) -> BellCoefficients:
    c = BellCoefficients.from_text(text)
    require_physical(*c)
    return c


def _clamped_probability(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:  # NaN fails too
        raise ParameterRangeError(f"{name} must lie in [0, 1], got {value!r}")
    if value == 0.0:
        print(f"warning: {name}=0 clamped to {P_CLAMP:g}", file=sys.stderr)
        return P_CLAMP
    if value == 1.0:
        print(f"warning: {name}=1 clamped to 1-{P_CLAMP:g}", file=sys.stderr)
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
    header = "p," + ",".join(f"n={n}" for n in curve.n_list)
    lines = [header]
    for p, row in zip(curve.p_values, curve.rates):
        lines.append(",".join(f"{v:.9g}" for v in (p, *row)))
    return "\n".join(lines) + "\n"


def _metadata_comment(cloud: SurfacePointCloud) -> str:
    return ", ".join(f"{key}={value:.9g}" if isinstance(value, float) else f"{key}={value}"
                     for key, value in cloud.metadata().items())


def _rows(cloud: SurfacePointCloud, sep: str) -> list[str]:
    """One line per point, each coordinate as ``{:.9g}``.

    Each of the grid_res axis values is formatted once; a row joins the
    texts its three lattice indices pick.
    """
    text = [f"{v:.9g}" for v in lattice_axis(cloud.grid_res).tolist()]
    return [f"{text[i]}{sep}{text[j]}{sep}{text[k]}"
            for i, j, k in zip(*cloud.indices.T.tolist())]


def _cloud_csv(cloud: SurfacePointCloud) -> str:
    lines = [f"# {_metadata_comment(cloud)}", "c1,c2,c3", *_rows(cloud, ",")]
    return "\n".join(lines) + "\n"


def _cloud_ply(cloud: SurfacePointCloud) -> str:
    lines = [
        "ply",
        "format ascii 1.0",
        f"comment {_metadata_comment(cloud)}",
        f"element vertex {len(cloud.indices)}",
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
    p = _clamped_probability("p", args.p)
    if args.method == "closed-form":
        if args.gamma is not None:
            raise ValidationError("--gamma requires --method kraus (two-parameter gad)")
        evolved = coefficient_map(kind, p, args.n, state, mode)
        residual = "0"
        value_of = lambda m: closed_measure(m, evolved)
    else:
        if mode is CoefficientMapMode.PAPER:
            raise ValidationError("--coeff-map paper requires --method closed-form")
        if args.gamma is not None:
            kset = kraus_set(kind, p, _clamped_probability("gamma", args.gamma))
        else:
            kset = single_parameter_kraus_set(kind, p)
        rho = apply_n(to_density_matrix(state), kset, args.n)
        evolved, residual = from_density_matrix(rho)
        residual = f"{residual:.3e}"
        value_of = lambda m: matrix_measure(m, rho)
    print(f"state: {evolved.c1:.12g},{evolved.c2:.12g},{evolved.c3:.12g}")
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
            _clamped_probability("p", args.p),
            args.n,
            grid_res=args.grid,
            tol=args.tol,
            min_coherence=args.min_coherence,
            mode=CoefficientMapMode(args.coeff_map),
        )
        render = _cloud_ply if args.format == "ply" else _cloud_csv
        write(render(cloud))
    if args.out is not None:
        print(f"wrote {args.out}: points={len(cloud.indices)} components={cloud.components}")
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


def _worst(check: str, deviations: np.ndarray, tol: float | None, witness) -> _Deviation:
    """The largest of per-row ``deviations``; ``witness(row)`` describes its first row."""
    row = int(np.argmax(deviations))
    return _Deviation(check, float(deviations[row]), tol, witness(row), len(deviations))


def _witness(state, channel=None, p=None, n=None, measure=None) -> dict:
    return {
        "state": [float(c) for c in state],
        "channel": None if channel is None else ChannelKind(channel).value,
        "p": None if p is None else float(p),
        "n": None if n is None else int(n),
        "measure": None if measure is None else Measure(measure).value,
    }


def _verify_measures(seed: int, trials: int) -> tuple[list[_Deviation], list[str]]:
    """Closed forms against the matrix measures, on one (trials, 4, 4) stack."""
    states = np.array(sample_states(seed, trials))
    rho = to_density_matrix(BellCoefficients(*states.T))
    worst = [
        _worst(
            f"closed vs matrix [{measure.value}]",
            np.abs(closed_measures(measure, *states.T) - matrix_measure(measure, rho)),
            VERIFY_MEASURE_TOL,
            lambda row: _witness(states[row], measure=measure),
        )
        for measure in Measure
    ]
    lines = [
        f"  {dev.check}: max dev {dev.worst:.3e} (tol {VERIFY_MEASURE_TOL:.0e})" for dev in worst
    ]
    return worst, lines


def _verify_coefficient_maps(seed: int) -> tuple[list[_Deviation], list[str]]:
    """The coefficient map against the Kraus route, one stack per channel kind."""
    rng = Lcg(seed + 1)
    rows = []  # (state, kind, p, n), drawn kind by kind in the order listed
    map_dev, residual = [], []
    for kind in ChannelKind:
        block, ksets = [], []
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            kset = single_parameter_kraus_set(kind, p)
            for n in (1, 2, 5, 9):
                for _ in range(3):
                    block.append((random_physical_state(rng), kind, p, n))
                    ksets.append(kset)
        states = np.array([state for state, *_ in block])
        counts = np.array([n for *_, n in block])
        evolved = apply_n(to_density_matrix(BellCoefficients(*states.T)), ksets, counts)
        coefficients, block_residual = from_density_matrix(evolved)
        extracted = np.column_stack(coefficients)
        derived = [per_iteration_factors(kind, p) for *_, p, _ in block]
        map_dev.append(np.max(np.abs(evolve_rows(states, derived, counts) - extracted), axis=1))
        residual.append(block_residual)
        if kind is ChannelKind.DEPOLARIZING:
            dep_rows = block
            paper = [per_iteration_factors(kind, p, CoefficientMapMode.PAPER) for *_, p, _ in block]
            paper_gap = np.max(np.abs(evolve_rows(states, paper, counts) - extracted), axis=1)
        rows += block
    worst = [
        _worst("coefficient map vs Kraus route", np.concatenate(map_dev), VERIFY_MAP_TOL,
               lambda row: _witness(*rows[row])),
        _worst("Bell-diagonal extraction residual", np.concatenate(residual),
               VERIFY_RESIDUAL_TOL, lambda row: _witness(*rows[row])),
        _worst("dep paper-mode gap vs Kraus route", paper_gap, None,
               lambda row: _witness(*dep_rows[row])),
    ]
    lines = [
        f"  coefficient map vs Kraus route: max dev {worst[0].worst:.3e} "
        f"(tol {VERIFY_MAP_TOL:.0e})",
        f"  Bell-diagonal extraction residual: max {worst[1].worst:.3e} "
        f"(tol {VERIFY_RESIDUAL_TOL:.0e})",
        f"  info: dep paper-mode gap vs Kraus route: {worst[2].worst:.3e} "
        "(single- vs squared-contraction; not scored)",
    ]
    return worst, lines


def _verify_engines(seed: int, trials: int) -> tuple[list[_Deviation], list[str]]:
    """Both decay engines on the same queries, in stacks of one channel kind."""
    rng = Lcg(seed + 2)
    kinds = list(ChannelKind)
    measures = list(Measure)
    queries = []
    for index in range(trials):
        # l1 floor keeps the ratio denominator well conditioned
        state = random_physical_state(rng, min_l1=1e-2)
        p = rng.next_in(0.05, 0.95)
        queries.append(DecayQuery(
            state, measures[index % len(measures)], kinds[index % len(kinds)], p,
            1 + (index % 12),
        ))
    deviations = np.empty(trials)
    for first in range(len(kinds)):
        same_kind = np.arange(first, trials, len(kinds))
        for start in range(0, len(same_kind), _ROWS_PER_STACK):
            rows = same_kind[start:start + _ROWS_PER_STACK]
            stack = [queries[row] for row in rows]
            closed = decay_rates(stack)
            oracle = decay_rates([replace(q, engine=Engine.MATRIX_ORACLE) for q in stack])
            deviations[rows] = np.abs(closed - oracle)

    def witness(row):
        q = queries[row]
        return _witness(q.state, q.kind, q.p, q.n, q.measure)

    worst = [_worst("closed-form vs matrix-oracle decay rate", deviations, VERIFY_ENGINE_TOL,
                    witness)]
    lines = [
        f"  closed-form vs matrix-oracle decay rate: max dev {worst[0].worst:.3e} "
        f"(tol {VERIFY_ENGINE_TOL:.0e}, states drawn with l1 >= 1e-2)"
    ]
    return worst, lines


def _cmd_verify(args: argparse.Namespace) -> int:
    require_count("--trials", args.trials)
    suites = (
        ("coherence measures", lambda: _verify_measures(args.seed, args.trials)),
        ("coefficient maps", lambda: _verify_coefficient_maps(args.seed)),
        ("decay engines", lambda: _verify_engines(args.seed, args.trials)),
    )
    report = {
        "seed": args.seed,
        "trials": args.trials,
        "version": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "suites": [],
    }
    all_ok = True
    with _output(args.json) as write:
        print(f"verify: seed={args.seed} trials={args.trials}")
        for name, run in suites:
            start = time.perf_counter()
            worst, lines = run()
            wall_s = time.perf_counter() - start
            ok = all(dev.ok for dev in worst)
            all_ok = all_ok and ok
            print(f"suite {name}: {'PASS' if ok else 'FAIL'}")
            for line in lines:
                print(line)
            report["suites"].append({
                "suite": name,
                "passed": ok,
                "wall_s": wall_s,
                "checks": [asdict(dev) for dev in worst],
            })
        print(f"verify: {'PASS' if all_ok else 'FAIL'}")
        report["passed"] = all_ok
        if args.json is not None:
            write(json.dumps(report, indent=2) + "\n")
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CoherenceLabError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
