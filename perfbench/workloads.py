"""Seeded workload inputs, their expected outputs, and the correctness gate.

A workload is a list of CLI invocations drawn from the seed. The seed
changes the inputs (p, n, output format, verify seed, curve state) but never
the amount of work. Expected outputs are computed here, before and outside
any timed pass:

- surface-dense: the analytic frozen half-cube of l1 under bf (|c1| >= |c2|)
  or bpf (|c2| >= |c1|), counted on the integer lattice so that no float
  rounding is shared with the program;
- surface-sparse: an empty cloud, points=0 and components=0;
- oracle-verify: exit code 0 and a final ``verify: PASS``;
- curve-sweep: a seeded sample of cells re-evaluated with the matrix oracle,
  which must agree within ``VERIFY_ENGINE_TOL``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from coherence_lab.channels import ChannelKind
from coherence_lab.cli import VERIFY_ENGINE_TOL
from coherence_lab.coherence import Measure
from coherence_lab.decay import DecayQuery, Engine, decay_rate
from coherence_lab.states import BellCoefficients

# the CLI defaults that frozen-surface runs with
MIN_COHERENCE = 1e-4
CURVE_N_LIST = (1, 2, 5, 10, 20)
CURVE_MIN_L1 = 0.1
# every emitted decay rate is bounded by 1 (acceptance criterion 6)
RATE_CEILING = 1.0 + 1e-9
# curve-sweep cells per curve that the gate re-evaluates with the matrix oracle
CELLS_PER_CURVE = 8


@dataclass(frozen=True)
class Sizes:
    dense_grid: int = 101
    sparse_grid: int = 201
    trials: int = 1000
    p_count: int = 199


FULL = Sizes()
TINY = Sizes(dense_grid=11, sparse_grid=11, trials=5, p_count=9)


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    out: str | None  # output file name inside the pass directory; None means stdout
    items: int  # units of work completed
    check: str  # key into CHECKS
    expected: dict


def _draw_p_n(rng: random.Random) -> tuple[float, int]:
    return round(rng.uniform(0.05, 0.95), 4), rng.randint(1, 10)


def _surface(rng, channel, measure, grid, expected) -> Invocation:
    p, n = _draw_p_n(rng)
    fmt = rng.choice(("csv", "ply"))
    argv = ("frozen-surface", "--channel", channel, "--measure", measure,
            "--p", repr(p), "--n", str(n), "--grid", str(grid), "--format", fmt)
    return Invocation(argv, f"{channel}-{measure}.{fmt}", grid**3, "surface", expected)


def half_cube(channel: str, grid: int) -> dict:
    """Expected l1 frozen cloud of bf or bpf: the physical half-cube, in lattice order.

    Lattice value i maps to c = u / s with u = 2i - (grid - 1), s = grid - 1,
    so physicality and the half-cube test are exact integer comparisons.
    """
    s = grid - 1
    u = 2 * np.arange(grid) - s
    u1, u2, u3 = np.meshgrid(u, u, u, indexing="ij")
    physical = ((s - u1 - u2 - u3 >= 0) & (s + u1 + u2 - u3 >= 0)
                & (s + u1 - u2 + u3 >= 0) & (s - u1 + u2 + u3 >= 0))
    kept, lost = (u1, u2) if channel == "bf" else (u2, u1)
    l1 = np.maximum(np.abs(u1), np.abs(u2)) / s
    mask = physical & (np.abs(kept) >= np.abs(lost)) & (l1 >= MIN_COHERENCE)
    _, components = ndimage.label(mask)
    indices = np.argwhere(mask)
    return {"grid": grid, "points": len(indices), "components": int(components),
            "indices": indices}


def empty_cloud(grid: int) -> dict:
    return {"grid": grid, "points": 0, "components": 0,
            "indices": np.zeros((0, 3), dtype=np.int64)}


def _surface_dense(rng, sizes):
    g = sizes.dense_grid
    return [_surface(rng, channel, "l1", g, half_cube(channel, g)) for channel in ("bf", "bpf")]


def _surface_sparse(rng, sizes):
    g = sizes.sparse_grid
    return [
        _surface(rng, channel, measure, g, empty_cloud(g))
        for channel in ("pf", "dep", "gad")
        for measure in ("l1", "rel-ent", "skew")
    ]


def _oracle_verify(rng, sizes):
    argv = ("verify", "--seed", str(rng.randrange(1, 2**31)), "--trials", str(sizes.trials))
    return [Invocation(argv, None, sizes.trials, "verify", {"last_line": "verify: PASS"})]


def _curve_state(rng) -> tuple[float, float, float]:
    """A state strictly inside the tetrahedron with l1 >= CURVE_MIN_L1."""
    while True:
        c1, c2, c3 = (round(rng.uniform(-1.0, 1.0), 6) for _ in range(3))
        q = (1 - c1 - c2 - c3, 1 + c1 + c2 - c3, 1 + c1 - c2 + c3, 1 - c1 + c2 + c3)
        if min(q) > 1e-3 and max(abs(c1), abs(c2)) >= CURVE_MIN_L1:
            return c1, c2, c3


def _curve_sweep(rng, sizes):
    state = _curve_state(rng)
    text = ",".join(repr(c) for c in state)
    n_text = ",".join(str(n) for n in CURVE_N_LIST)
    invocations = []
    for kind in ChannelKind:
        for measure in Measure:
            cells = []
            for _ in range(CELLS_PER_CURVE):
                row = rng.randrange(sizes.p_count)
                col = rng.randrange(len(CURVE_N_LIST))
                query = DecayQuery(BellCoefficients(*state), measure, kind,
                                   (row + 1) / (sizes.p_count + 1), CURVE_N_LIST[col],
                                   engine=Engine.MATRIX_ORACLE)
                cells.append((row, col, decay_rate(query)))
            argv = ("decay-curve", "--channel", kind.value, "--measure", measure.value,
                    f"--state={text}", "--n-list", n_text, "--grid", str(sizes.p_count))
            invocations.append(Invocation(
                argv, f"{kind.value}-{measure.value}.csv",
                sizes.p_count * len(CURVE_N_LIST), "curve",
                {"p_count": sizes.p_count, "cells": cells},
            ))
    return invocations


BUILDERS = {
    "surface-dense": _surface_dense,
    "surface-sparse": _surface_sparse,
    "oracle-verify": _oracle_verify,
    "curve-sweep": _curve_sweep,
}


def build(workload: str, seed: int, sizes: Sizes = FULL) -> list[Invocation]:
    return BUILDERS[workload](random.Random(seed), sizes)


def parse_cloud(data: bytes) -> tuple[dict[str, str], np.ndarray]:
    """Metadata pairs and (N, 3) points of a frozen-surface CSV or PLY file."""
    lines = data.decode("ascii").split("\n")
    if lines[0] == "ply":
        meta = lines[2].removeprefix("comment ")
        end = lines.index("end_header")
        body = lines[end + 1:]
        if lines[3] != f"element vertex {len(body) - 1}":
            raise ValueError(f"PLY vertex count line {lines[3]!r} does not match the body")
    else:
        meta = lines[0].removeprefix("# ")
        if lines[1] != "c1,c2,c3":
            raise ValueError(f"unexpected CSV header {lines[1]!r}")
        body = lines[2:]
    pairs = dict(pair.split("=", 1) for pair in meta.split(", "))
    values = " ".join(body).replace(",", " ").split()
    return pairs, np.array(values, dtype=np.float64).reshape(-1, 3)


def _check_surface(expected: dict, data: bytes) -> str | None:
    meta, points = parse_cloud(data)
    if int(meta["points"]) != expected["points"]:
        return f"metadata points={meta['points']}, expected {expected['points']}"
    if int(meta["components"]) != expected["components"]:
        return f"metadata components={meta['components']}, expected {expected['components']}"
    if len(points) != expected["points"]:
        return f"{len(points)} point rows, expected {expected['points']}"
    scale = (expected["grid"] - 1) / 2.0
    indices = np.rint((points + 1.0) * scale).astype(np.int64)
    if len(points) and np.max(np.abs(points - (indices / scale - 1.0))) > 1e-8:
        return "emitted points do not lie on the lattice"
    if not np.array_equal(indices, expected["indices"]):
        return "emitted point set differs from the analytic frozen region"
    return None


def _check_verify(expected: dict, data: bytes) -> str | None:
    lines = data.decode().splitlines()
    last = lines[-1] if lines else ""
    if last != expected["last_line"]:
        return f"last line {last!r}, expected {expected['last_line']!r}"
    return None


def _check_curve(expected: dict, data: bytes) -> str | None:
    lines = data.decode().splitlines()
    header = "p," + ",".join(f"n={n}" for n in CURVE_N_LIST)
    if lines[0] != header:
        return f"header {lines[0]!r}, expected {header!r}"
    table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    p_count = expected["p_count"]
    if table.shape != (p_count, len(CURVE_N_LIST) + 1):
        return f"table shape {table.shape}, expected {(p_count, len(CURVE_N_LIST) + 1)}"
    grid = np.arange(1, p_count + 1) / (p_count + 1)
    if np.max(np.abs(table[:, 0] - grid)) > 1e-12:
        return "p column differs from the grid k / (grid + 1)"
    rates = table[:, 1:]
    if not np.all(np.isfinite(rates)) or rates.min() < 0.0 or rates.max() > RATE_CEILING:
        return f"rates outside [0, {RATE_CEILING!r}]"
    for row, col, oracle in expected["cells"]:
        dev = abs(rates[row, col] - oracle)
        if not dev <= VERIFY_ENGINE_TOL:
            return (f"cell p={table[row, 0]!r} n={CURVE_N_LIST[col]}: {rates[row, col]!r} vs "
                    f"oracle {oracle!r}, dev {dev:.3e} > {VERIFY_ENGINE_TOL:.0e}")
    return None


CHECKS = {"surface": _check_surface, "verify": _check_verify, "curve": _check_curve}


def check(invocation: Invocation, data: bytes) -> str | None:
    """Why the output of a successful invocation is wrong, or None when it is right."""
    try:
        return CHECKS[invocation.check](invocation.expected, data)
    except (ValueError, KeyError, IndexError) as exc:  # includes UnicodeDecodeError
        return f"unparseable output: {exc!r}"


# Where the per-layer table of the benchmark README says each traced span
# should move. The traced run reports, as a mismatch, every span whose calls
# are nonzero outside its workloads or zero on one of them.
MOVES_ON = {
    "states.is_physical": {"surface-dense", "curve-sweep"},
    "decay.decay_rate.closed": {"surface-dense", "curve-sweep"},
    "channels.coefficient_map": {"surface-dense", "curve-sweep"},
    "channels.per_iteration_factors": {"surface-dense", "curve-sweep"},
    "coherence.closed_measure": {"surface-dense", "curve-sweep"},
    "scan.frozen_surface": {"surface-sparse"},
    "coherence.kernel": {"surface-sparse"},
    "scan.decay_curve": {"curve-sweep"},
    "decay.decay_rate.oracle": {"oracle-verify"},
    "channels.apply_n": {"oracle-verify"},
    "channels.apply_product_channel": {"oracle-verify"},
    "channels.single_parameter_kraus_set": {"oracle-verify"},
    "states.validate_density_matrix": {"oracle-verify"},
    "states.to_density_matrix": {"oracle-verify"},
    "states.from_density_matrix": {"oracle-verify"},
    "coherence.matrix_measure": {"oracle-verify"},
    "linalg.hermitian_eigensystem": {"oracle-verify"},
    "linalg.psd_sqrt": {"oracle-verify"},
    "linalg.von_neumann_entropy": {"oracle-verify"},
    "sampling.random_physical_state": {"oracle-verify"},
    "cli.main": {"surface-dense"},
}
