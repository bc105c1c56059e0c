"""Acceptance gate: ten numbered end-to-end criteria.

Each test prints one `ACCEPTANCE <k> ...: PASS|FAIL` line directly to the
terminal (bypassing capture) and then asserts. Criterion 7 asserts that the
gad channel (mixing 1/2, damping p) has an empty relative-entropy frozen
cloud at p=0.5 already at n=1, not only at n=24: its per-iteration factors
(1-p, 1-p, (1-p)^2) halve c1 and c2, and the largest rel-ent decay rate over
the physical grid-101 lattice is about 0.40, far below 1 - tol. The test
asserts that bound directly and re-evaluates the maximising lattice state
with the Kraus/density-matrix oracle, so the empty cloud is confirmed by
both routes rather than by the scan alone.
"""

import functools

import numpy as np

from coherence_lab import (
    BellCoefficients,
    ChannelKind,
    CoefficientMapMode,
    DecayQuery,
    Engine,
    Measure,
    apply_product_channel,
    closed_measure,
    coefficient_map,
    decay_rate,
    from_density_matrix,
    is_frozen,
    kraus_set,
    matrix_measure,
    per_iteration_factors,
    sample_states,
    single_parameter_kraus_set,
    to_density_matrix,
)
from coherence_lab.coherence import _C3_TERMS, _KERNELS
from coherence_lab.cli import main
from coherence_lab.scan import frozen_surface
from conftest import REFERENCE

BF = ChannelKind.BIT_FLIP
PF = ChannelKind.PHASE_FLIP
BPF = ChannelKind.BIT_PHASE_FLIP
DEP = ChannelKind.DEPOLARIZING
GAD = ChannelKind.AMPLITUDE_DAMPING

P_GRID_9 = [k / 10 for k in range(1, 10)]
SWEEP_SEED = 42


def _report(capsys, number, name, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _standard_sweep(count=1000):
    kinds = list(ChannelKind)
    measures = list(Measure)
    states = sample_states(seed=SWEEP_SEED, count=count, min_l1=1e-2)
    for index, state in enumerate(states):
        yield DecayQuery(
            state,
            measures[index % len(measures)],
            kinds[index % len(kinds)],
            P_GRID_9[index % len(P_GRID_9)],
            1 + index % 15,
        )


@functools.lru_cache(maxsize=None)
def _cloud(kind, measure, n):
    return frozen_surface(kind, measure, 0.5, n)


def test_criterion_01_coherence_oracle_equivalence(capsys):
    worst = 0.0
    for state in sample_states(seed=20260813, count=10000):
        rho = to_density_matrix(state)
        for measure in Measure:
            dev = abs(closed_measure(measure, state) - matrix_measure(measure, rho))
            worst = max(worst, dev)
    ok = worst <= 1e-9
    _report(capsys, 1, "coherence closed-form vs matrix oracle", ok,
            f"10000 states, max dev {worst:.3e}, tol 1e-9")
    assert ok


def test_criterion_02_channel_oracle_equivalence(capsys):
    states = sample_states(seed=20260813, count=2, min_l1=1e-3)
    worst_map = 0.0
    worst_residual = 0.0
    for kind in (BF, PF, BPF, GAD):
        for p in P_GRID_9:
            kset = single_parameter_kraus_set(kind, p)
            for state in states:
                rho = to_density_matrix(state)
                for n in range(1, 21):
                    rho = apply_product_channel(rho, kset)
                    extracted, residual = from_density_matrix(rho)
                    mapped = coefficient_map(kind, p, n, state)
                    worst_map = max(
                        worst_map, max(abs(a - b) for a, b in zip(mapped, extracted))
                    )
                    worst_residual = max(worst_residual, residual)
    worst_dep = 0.0
    worst_gap_err = 0.0
    max_gap = 0.0
    for p in P_GRID_9:
        kset = kraus_set(DEP, p)
        base = 1.0 - 4.0 * p / 3.0
        for state in states:
            rho = to_density_matrix(state)
            for n in range(1, 21):
                rho = apply_product_channel(rho, kset)
                extracted, _ = from_density_matrix(rho)
                derived = coefficient_map(DEP, p, n, state)
                worst_dep = max(
                    worst_dep, max(abs(a - b) for a, b in zip(derived, extracted))
                )
                paper = coefficient_map(DEP, p, n, state, CoefficientMapMode.PAPER)
                expected_gap = abs(base**n - base ** (2 * n))
                for c_in, pap, ext in zip(state, paper, extracted):
                    gap = abs(pap - ext)
                    max_gap = max(max_gap, gap)
                    worst_gap_err = max(worst_gap_err, abs(gap - expected_gap * abs(c_in)))
    ok = worst_map <= 1e-9 and worst_residual <= 1e-10 and worst_dep <= 1e-9 \
        and worst_gap_err <= 1e-9
    _report(capsys, 2, "coefficient map vs Kraus oracle", ok,
            f"map dev {worst_map:.3e}, residual {worst_residual:.3e}, "
            f"dep derived dev {worst_dep:.3e}; INFO dep paper-mode gap up to {max_gap:.3e} "
            f"matches |f^n-f^2n|*|c| within {worst_gap_err:.3e}")
    assert worst_map <= 1e-9
    assert worst_residual <= 1e-10
    assert worst_dep <= 1e-9
    assert worst_gap_err <= 1e-9


def test_criterion_03_dep_complete_incoherence(capsys):
    for mode in CoefficientMapMode:
        mapped = coefficient_map(DEP, 0.75, 1, REFERENCE, mode)
        assert max(abs(c) for c in mapped) == 0.0
    evolved = apply_product_channel(to_density_matrix(REFERENCE), kraus_set(DEP, 0.75))
    extracted, _ = from_density_matrix(evolved)
    oracle_size = max(abs(c) for c in extracted)
    rates = [
        decay_rate(DecayQuery(REFERENCE, measure, DEP, 0.75, n))
        for measure in Measure
        for n in (1, 4)
    ]
    ok = oracle_size <= 1e-12 and all(r == 0.0 for r in rates)
    _report(capsys, 3, "dep p=3/4 complete incoherence", ok,
            f"oracle coefficients {oracle_size:.3e}, all six rates exactly 0")
    assert oracle_size <= 1e-12
    assert all(r == 0.0 for r in rates)


def test_criterion_04_bf_l1_freezing(capsys):
    worst = 0.0
    for p in P_GRID_9:
        for n in range(1, 31):
            worst = max(worst, abs(decay_rate(DecayQuery(REFERENCE, Measure.L1, BF, p, n)) - 1.0))
    mismatches = 0
    for state in sample_states(seed=77, count=1000, min_l1=1e-6):
        frozen = is_frozen(DecayQuery(state, Measure.L1, BF, 0.4, 7))
        criterion = abs(state.c1) >= abs(state.c2) - 1e-12
        mismatches += frozen != criterion
    ok = worst <= 1e-12 and mismatches == 0
    _report(capsys, 4, "bf l1 freezing", ok,
            f"reference plateau dev {worst:.3e} over 9 p x 30 n; "
            f"1000 random states, {mismatches} mismatches of frozen <=> |c1|>=|c2|")
    assert worst <= 1e-12
    assert mismatches == 0


def test_criterion_05_monotonicity(capsys):
    worst_n_violation = 0.0
    for query in _standard_sweep():
        here = decay_rate(query)
        after = decay_rate(DecayQuery(query.state, query.measure, query.kind,
                                      query.p, query.n + 1))
        worst_n_violation = max(worst_n_violation, after - here)
    p_grid = [k / 20 for k in range(1, 20)]
    worst_p_violation = 0.0
    states = sample_states(seed=SWEEP_SEED + 1, count=12, min_l1=1e-2)
    for state in states:
        for kind in (BF, PF, BPF, GAD):
            for measure in Measure:
                for n in (1, 5, 10):
                    rates = [decay_rate(DecayQuery(state, measure, kind, p, n)) for p in p_grid]
                    worst_p_violation = max(
                        worst_p_violation, max(np.diff(rates), default=0.0)
                    )
    dep_ok = True
    dep_why = "dep dips to exactly 0 at p=0.75 then increases"
    pivot = p_grid.index(0.75)
    for state in states[:6]:
        for measure in Measure:
            # single iteration keeps rates on both sides of the minimum well
            # above float resolution, so strict increase is meaningful
            rates = [decay_rate(DecayQuery(state, measure, DEP, p, 1)) for p in p_grid]
            if rates[pivot] != 0.0:
                dep_ok = False
                dep_why = f"dep rate at p=0.75 is {rates[pivot]!r}, not 0"
            if not all(b <= a + 1e-12 for a, b in zip(rates[:pivot], rates[1 : pivot + 1])):
                dep_ok = False
                dep_why = f"dep {measure.value} rates not non-increasing up to p=0.75"
            if not all(b > a for a, b in zip(rates[pivot:-1], rates[pivot + 1 :])):
                dep_ok = False
                dep_why = f"dep {measure.value} rates not strictly increasing past p=0.75"
    ok = worst_n_violation <= 1e-10 and worst_p_violation <= 1e-12 and dep_ok
    _report(capsys, 5, "decay-rate monotonicity", ok,
            f"max n-violation {worst_n_violation:.3e} (tol 1e-10), "
            f"max p-violation {worst_p_violation:.3e} (tol 1e-12), "
            f"{dep_why}: {dep_ok}")
    assert worst_n_violation <= 1e-10
    assert worst_p_violation <= 1e-12
    assert dep_ok, dep_why


def test_criterion_06_decay_bound(capsys):
    worst = 0.0
    for index, query in enumerate(_standard_sweep()):
        worst = max(worst, decay_rate(query))
        if index < 100:
            oracle = DecayQuery(query.state, query.measure, query.kind, query.p,
                                query.n, engine=Engine.MATRIX_ORACLE)
            worst = max(worst, decay_rate(oracle))
    ok = worst <= 1.0 + 1e-9
    _report(capsys, 6, "decay rates bounded by 1", ok,
            f"max rate {worst:.12f} over 1000-tuple sweep (+100 matrix-oracle), tol 1+1e-9")
    assert ok


def _max_lattice_rate(kind, measure, n):
    """Largest closed-form decay rate over the scan lattice, and its state."""
    axis = np.linspace(-1.0, 1.0, 101)
    c1, c2, c3 = np.meshgrid(axis, axis, axis, indexing="ij")
    q_min = np.minimum(
        np.minimum(1 - c1 - c2 - c3, 1 + c1 + c2 - c3),
        np.minimum(1 + c1 - c2 + c3, 1 - c1 + c2 + c3),
    )
    kernel, terms = _KERNELS[measure], _C3_TERMS[measure]
    before = kernel(c1, c2, *terms(c3))
    mask = (q_min / 4.0 >= -1e-12) & (before >= 1e-4)
    f1, f2, f3 = per_iteration_factors(kind, 0.5)
    e1, e2, e3 = c1.copy(), c2.copy(), c3.copy()
    for _ in range(n):
        e1 *= f1
        e2 *= f2
        e3 *= f3
    after = kernel(e1, e2, *terms(e3))
    rates = np.where(mask, after / np.where(mask, before, 1.0), -np.inf)
    index = np.unravel_index(np.argmax(rates), rates.shape)
    state = BellCoefficients(float(c1[index]), float(c2[index]), float(c3[index]))
    return float(rates[index]), state


def test_criterion_07_frozen_surface_disappearance(capsys):
    checkpoints = (
        (GAD, 1, False),
        (GAD, 24, False),
        (PF, 50, False),
        (DEP, 50, False),
        (BF, 50, True),
        (BPF, 50, True),
    )
    counts = {}
    failures = []
    for kind, n, expect_nonempty in checkpoints:
        count = len(_cloud(kind, Measure.REL_ENT, n).points)
        counts[(kind.value, n)] = count
        if (count > 0) != expect_nonempty:
            failures.append(
                f"{kind.value} n={n}: expected "
                f"{'nonempty' if expect_nonempty else 'empty'}, got {count} points"
            )
    gad_rate, gad_state = _max_lattice_rate(GAD, Measure.REL_ENT, 1)
    oracle_rate = decay_rate(DecayQuery(gad_state, Measure.REL_ENT, GAD, 0.5, 1,
                                        engine=Engine.MATRIX_ORACLE))
    oracle_gap = abs(oracle_rate - gad_rate)
    ok = not failures and gad_rate < 1 - 1e-3 and oracle_gap <= 1e-9
    detail = ", ".join(f"{kind} n={n}: {count}" for (kind, n), count in counts.items())
    _report(capsys, 7, "rel-ent frozen-surface disappearance", ok,
            f"{detail}; gad n=1 lattice max rate {gad_rate:.6f} at "
            f"({gad_state.c1:.2f}, {gad_state.c2:.2f}, {gad_state.c3:.2f}) "
            f"(< 1 - 1e-3), matrix-oracle rate {oracle_rate:.13f}, "
            f"gap {oracle_gap:.3e} (tol 1e-9)")
    assert not failures, "frozen-surface checkpoints failed: " + "; ".join(failures)
    assert gad_rate < 1 - 1e-3
    assert oracle_gap <= 1e-9


def test_criterion_08_skew_mirrors_rel_ent(capsys):
    checkpoints = ((GAD, 1), (GAD, 24), (PF, 50), (DEP, 50), (BF, 50), (BPF, 50))
    mismatches = []
    parts = []
    for kind, n in checkpoints:
        rel_nonempty = len(_cloud(kind, Measure.REL_ENT, n).points) > 0
        skew_nonempty = len(_cloud(kind, Measure.SKEW, n).points) > 0
        parts.append(f"{kind.value} n={n}: rel={'Y' if rel_nonempty else 'N'}"
                     f"/skew={'Y' if skew_nonempty else 'N'}")
        if rel_nonempty != skew_nonempty:
            mismatches.append((kind.value, n))
    ok = not mismatches
    _report(capsys, 8, "skew freezing mirrors rel-ent", ok, ", ".join(parts))
    assert not mismatches


def test_criterion_09_determinism(capsys, tmp_path):
    curve_files = []
    cloud_files = []
    for run_index in range(3):
        curve_path = tmp_path / f"curve-{run_index}.csv"
        code = main(["decay-curve", "--channel", "dep", "--measure", "skew",
                     "--state", "0.6,0.1,0.2", "--n-list", "1,5,12",
                     "--out", str(curve_path)])
        assert code == 0
        cloud_path = tmp_path / f"cloud-{run_index}.csv"
        code = main(["frozen-surface", "--channel", "bf", "--measure", "rel-ent",
                     "--p", "0.5", "--n", "5", "--grid", "41", "--out", str(cloud_path)])
        assert code == 0
        curve_files.append(curve_path.read_bytes())
        cloud_files.append(cloud_path.read_bytes())
    capsys.readouterr()
    ok = curve_files[0] == curve_files[1] == curve_files[2] \
        and cloud_files[0] == cloud_files[1] == cloud_files[2]
    _report(capsys, 9, "byte-identical outputs across runs", ok,
            f"decay-curve {len(curve_files[0])} bytes, frozen-surface "
            f"{len(cloud_files[0])} bytes, 3 runs")
    assert ok


def test_criterion_10_bell_vertex_values(capsys):
    vertex = BellCoefficients(1.0, -1.0, 1.0)
    rho = to_density_matrix(vertex)
    expected = {
        Measure.L1: 1.0,
        Measure.REL_ENT: float(np.log(2.0)),
        Measure.SKEW: 0.5,
    }
    worst = 0.0
    for measure, value in expected.items():
        worst = max(worst, abs(closed_measure(measure, vertex) - value))
        worst = max(worst, abs(matrix_measure(measure, rho) - value))
    ok = worst <= 1e-12
    _report(capsys, 10, "Bell-vertex exact values", ok,
            f"l1=1, rel-ent=ln2, skew=1/2 via both routes, max dev {worst:.3e}")
    assert ok
