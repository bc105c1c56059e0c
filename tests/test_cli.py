import json
import os
import stat
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coherence_lab
from coherence_lab import (
    BellCoefficients,
    ChannelKind,
    CoefficientMapMode,
    DecayCurve,
    DecayQuery,
    Engine,
    InternalNumericalError,
    Lcg,
    Measure,
    SurfacePointCloud,
    apply_n,
    closed_measure,
    coefficient_map,
    decay_rate,
    from_density_matrix,
    matrix_measure,
    random_physical_state,
    sample_states,
    single_parameter_kraus_set,
    to_density_matrix,
)
from coherence_lab import cli, scan
from coherence_lab.cli import main
from conftest import ScalarStream


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coherence_single_measure(capsys):
    code, out, _ = run(capsys, "coherence", "0,0,0.5", "--measure", "l1")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, "coherence", "0.6,0.1,0.2", "--measure", "l1")
    assert code == 0 and out.strip() == "0.6"
    code, out, _ = run(capsys, "coherence", "1,-1,1", "--measure", "rel-ent")
    assert code == 0 and out.strip() == f"{np.log(2.0):.12g}"


def test_coherence_all_measures(capsys):
    code, out, _ = run(capsys, "coherence", "0.6,0.1,0.2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "l1 = 0.6"
    assert lines[1].startswith("rel-ent = 0.237448166177")
    assert lines[2].startswith("skew = 0.130457613479")


def test_coherence_rejects_unphysical_state(capsys):
    code, _, err = run(capsys, "coherence", "1,1,1", "--measure", "l1")
    assert code == 1
    assert "tetrahedron" in err


def test_evolve_closed_form(capsys):
    code, out, _ = run(
        capsys, "evolve", "--channel", "pf", "--p", "0.5", "--n", "3", "--state", "0.6,0.1,0.2"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "state: 0.009375,0.0015625,0.2"
    assert lines[1] == "residual: 0"


def test_evolve_dep_complete_incoherence(capsys):
    code, out, _ = run(
        capsys, "evolve", "--channel", "dep", "--p", "0.75", "--n", "1", "--state", "0.6,0.1,0.2"
    )
    assert code == 0
    assert out.splitlines()[0] == "state: 0,0,0"


def test_evolve_kraus_method_reports_residual(capsys):
    code, out, _ = run(
        capsys, "evolve", "--channel", "gad", "--p", "0.7", "--gamma", "0.3", "--n", "1",
        "--state", "0.6,0.1,0.2", "--method", "kraus",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("state: ")
    assert lines[1] == "residual: 6.000e-02"


# every kind at one and seven steps, from an interior state and from the
# vertex 1,-1,1 and the face state 0.5,-0.5,0, which evolve to rank-deficient
# matrices; the gad case at three steps keeps its exact state line
KRAUS_EVOLVE_CASES = [("gad", 3, "0.6,0.1,0.2", "state: 0.2058,0.0343,0.0235298")] + [
    (kind, n, state, None)
    for kind in ("bf", "pf", "bpf", "dep", "gad")
    for n in (1, 7)
    for state in ("0.3,-0.2,0.1", "1,-1,1", "0.5,-0.5,0")
]


@pytest.mark.parametrize("kind, n, state, state_line", KRAUS_EVOLVE_CASES,
                         ids=[f"{kind}-n{n}-{state}" for kind, n, state, _ in KRAUS_EVOLVE_CASES])
def test_evolve_kraus_method_without_gamma_matches_closed_form(capsys, kind, n, state,
                                                               state_line):
    # gad without --gamma takes the one-parameter convention, mixing 1/2 and damping p
    argv = ("evolve", "--channel", kind, "--p", "0.3", "--n", str(n), "--state", state)
    code, closed, _ = run(capsys, *argv)
    code_kraus, kraus, _ = run(capsys, *argv, "--method", "kraus")
    assert code == code_kraus == 0
    closed, kraus = closed.splitlines(), kraus.splitlines()
    assert len(kraus) == len(closed) == 5
    if state_line is not None:
        assert kraus[0] == closed[0] == state_line
    coordinates = [line.removeprefix("state: ").split(",") for line in (kraus[0], closed[0])]
    assert np.allclose(*np.array(coordinates, dtype=float), rtol=0.0, atol=cli.VERIFY_MAP_TOL)
    assert float(kraus[1].removeprefix("residual: ")) <= cli.VERIFY_RESIDUAL_TOL
    for kraus_line, closed_line in zip(kraus[2:], closed[2:]):
        name, value = kraus_line.split(" = ")
        assert closed_line.startswith(f"{name} = ")
        closed_value = float(closed_line.removeprefix(f"{name} = "))
        assert float(value) == pytest.approx(closed_value, abs=cli.VERIFY_MEASURE_TOL)


def test_internal_numerical_error_exits_two(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise InternalNumericalError("channel output drifted")

    monkeypatch.setattr(cli, "coefficient_map", broken)
    code, out, err = run(
        capsys, "evolve", "--channel", "bf", "--p", "0.5", "--n", "1", "--state", "0.6,0.1,0.2"
    )
    assert code == 2 and out == ""
    assert err == "internal error: channel output drifted\n"


@pytest.mark.parametrize("target, argv", [
    ("closed_measure", ("coherence", "0.6,0.1,0.2")),
    ("closed_measure", ("evolve", "--channel", "bf", "--p", "0.5", "--n", "1",
                        "--state", "0.6,0.1,0.2")),
    ("_matrix_rows", ("evolve", "--channel", "bf", "--p", "0.5", "--n", "1",
                      "--state", "0.6,0.1,0.2", "--method", "kraus")),
], ids=["coherence", "evolve", "evolve-kraus"])
def test_a_failing_last_measure_leaves_no_partial_output(capsys, monkeypatch, target, argv):
    measure_of = getattr(cli, target)

    def broken(measure, *args):
        if Measure(measure) is Measure.SKEW:
            raise InternalNumericalError("skew went negative")
        return measure_of(measure, *args)

    monkeypatch.setattr(cli, target, broken)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "internal error: skew went negative\n"


def test_kraus_evolve_survives_the_trace_drift_of_many_steps(capsys):
    # 2000 gad steps leave the trace ~1.2e-12 off 1, beyond NEGATIVE_CLAMP
    argv = ("evolve", "--channel", "gad", "--p", "0.5", "--n", "2000", "--state=0.4,-0.3,0.2")
    code, closed, _ = run(capsys, *argv)
    code_kraus, kraus, err = run(capsys, *argv, "--method", "kraus")
    assert code == code_kraus == 0 and err == ""
    for kraus_line, closed_line in zip(kraus.splitlines()[2:], closed.splitlines()[2:]):
        name, value = kraus_line.split(" = ")
        closed_value = float(closed_line.removeprefix(f"{name} = "))
        assert float(value) == pytest.approx(closed_value, abs=cli.VERIFY_MEASURE_TOL)


@pytest.mark.parametrize("out_file", [None, "cloud.csv"])
def test_an_input_too_large_to_hold_prints_one_error_line(capsys, monkeypatch, tmp_path,
                                                          out_file):
    # the allocation fails on purpose: a real one of this size is an OOM kill
    # where the kernel overcommits memory, not a MemoryError
    def too_large(grid_res):
        raise MemoryError(f"Unable to allocate the runs of grid {grid_res}")

    monkeypatch.setattr(scan, "_row_runs", too_large)
    argv = ["frozen-surface", "--channel", "bf", "--measure", "l1", "--p", "0.5", "--n", "1",
            "--grid", "100001"]
    if out_file is not None:
        argv += ["--out", str(tmp_path / out_file)]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: not enough memory: Unable to allocate the runs of grid 100001\n"
    assert not list(tmp_path.iterdir())


def test_evolve_gamma_requires_kraus(capsys):
    code, _, err = run(
        capsys, "evolve", "--channel", "gad", "--p", "0.5", "--gamma", "0.3", "--n", "1",
        "--state", "0.6,0.1,0.2",
    )
    assert code == 1 and "kraus" in err


def test_evolve_gamma_rejected_for_other_channels(capsys):
    code, _, err = run(
        capsys, "evolve", "--channel", "bf", "--p", "0.5", "--gamma", "0.3", "--n", "1",
        "--state", "0.6,0.1,0.2", "--method", "kraus",
    )
    assert code == 1 and "gad" in err


def test_evolve_paper_map_requires_closed_form(capsys):
    code, out, err = run(
        capsys, "evolve", "--channel", "dep", "--p", "0.3", "--n", "2",
        "--state", "0.6,0.1,0.2", "--method", "kraus", "--coeff-map", "paper",
    )
    assert code == 1 and out == ""
    assert err == "error: --coeff-map paper requires --method closed-form\n"


@pytest.mark.parametrize("argv, message", [
    (("--channel", "bf", "--p", "0", "--gamma", "0.3"),
     "--gamma requires --method kraus (two-parameter gad)"),
    (("--channel", "dep", "--p", "1", "--method", "kraus", "--coeff-map", "paper"),
     "--coeff-map paper requires --method closed-form"),
], ids=["gamma", "coeff-map"])
def test_evolve_option_conflict_is_reported_before_any_clamp(capsys, argv, message):
    code, out, err = run(capsys, "evolve", *argv, "--n", "1", "--state", "0.3,0.2,0.1")
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (("evolve", "--channel", "bf", "--p", "0", "--gamma", "0.3", "--n", "1",
      "--state", "0.3,0.2,0.1", "--method", "kraus"),
     "gamma only applies to the gad channel"),
    (("evolve", "--channel", "bf", "--p", "0", "--n", "0", "--state", "0.3,0.2,0.1"),
     "iteration count must be an integer >= 1, got 0"),
    (("evolve", "--channel", "gad", "--p", "0.5", "--gamma", "0", "--n", "0",
      "--state", "0.3,0.2,0.1", "--method", "kraus"),
     "iteration count must be an integer >= 1, got 0"),
    (("frozen-surface", "--channel", "bf", "--measure", "l1", "--p", "0", "--n", "1",
      "--grid", "4"),
     "grid_res must be an odd integer >= 3, got 4"),
], ids=["gamma on bf", "closed n=0", "kraus n=0", "even grid"])
def test_a_failing_invocation_prints_no_clamp_warning(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_probability_endpoints_clamped_with_warning(capsys):
    code, out, err = run(
        capsys, "evolve", "--channel", "bf", "--p", "0", "--n", "5", "--state", "0.6,0.1,0.2"
    )
    assert code == 0 and "clamped" in err
    assert out.splitlines()[0].startswith("state: 0.6,")
    code, _, err = run(
        capsys, "evolve", "--channel", "bf", "--p", "1", "--n", "1", "--state", "0.6,0.1,0.2"
    )
    assert code == 0 and "clamped" in err
    code, _, err = run(
        capsys, "evolve", "--channel", "bf", "--p", "1.5", "--n", "1", "--state", "0.6,0.1,0.2"
    )
    assert code == 1
    # a run that succeeds prints every clamp warning, in the order of its options
    code, out, err = run(capsys, "evolve", "--channel", "gad", "--p", "1", "--gamma", "0",
                         "--n", "2", "--state", "0.3,0.2,0.1", "--method", "kraus")
    assert code == 0 and out.startswith("state: ")
    assert err == "warning: p=1 clamped to 1-1e-12\nwarning: gamma=0 clamped to 1e-12\n"


def test_decay_curve_csv_file(tmp_path, capsys):
    out_path = tmp_path / "curve.csv"
    code, out, _ = run(
        capsys, "decay-curve", "--channel", "bf", "--measure", "l1",
        "--state", "0.6,0.1,0.2", "--n-list", "1,5", "--grid", "9", "--out", str(out_path),
    )
    assert code == 0 and "wrote" in out
    text = out_path.read_bytes().decode()
    lines = text.splitlines()
    assert lines[0] == "p,n=1,n=5"
    assert len(lines) == 10
    assert lines[1] == "0.1,1,1"
    assert "\r" not in text


def _per_value_curve_csv(curve):
    """The curve CSV with each value formatted by its own f-string."""
    lines = ["p," + ",".join(f"n={n}" for n in curve.n_list)]
    for p, row in zip(curve.p_values, curve.rates):
        lines.append(",".join(f"{v:.9g}" for v in (p, *row)))
    return "\n".join(lines) + "\n"


def _hand_built_curve(p_values, rates):
    """A DecayCurve with row k of ``rates`` at ``p_values[k]``."""
    rates = np.array(rates, dtype=np.float64)
    return DecayCurve(ChannelKind.BIT_FLIP, Measure.L1, BellCoefficients(0.6, 0.1, 0.2),
                      CoefficientMapMode.DERIVED, tuple(range(1, rates.shape[1] + 1)),
                      np.array(p_values, dtype=np.float64), rates)


def test_curve_csv_formats_each_value_as_its_f_string():
    # a signed zero, the least subnormal, a value just below a 9-digit tie and an exact tie
    values = [-0.0, 5e-324, 1.0, 1e-300, 0.9999999995, 123456789.5]
    curve = _hand_built_curve(values, list(zip(values[::-1], values[1:] + values[:1])))
    text = cli._curve_csv(curve)
    assert text.encode() == _per_value_curve_csv(curve).encode()
    assert text.splitlines()[1] == "-0,123456790,4.94065646e-324"


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda width: st.lists(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=width, max_size=width),
    min_size=1, max_size=8,
)))
def test_curve_csv_equals_the_per_value_reference(rows):
    curve = _hand_built_curve([row[0] for row in rows], [row[1:] + [0.5] for row in rows])
    assert cli._curve_csv(curve).encode() == _per_value_curve_csv(curve).encode()


def _per_point_rows(cloud, sep):
    """The cloud's point lines, each formatted by its own f-string."""
    t = [f"{v:.9g}" for v in np.linspace(-1.0, 1.0, cloud.grid_res).tolist()]
    return [f"{t[i]}{sep}{t[j]}{sep}{t[k]}" for i, j, k in cloud.indices.tolist()]


@st.composite
def _lattice_runs(draw):
    """An odd grid in 3..21 and disjoint (i, j, k0, k1) runs in lattice order, some adjacent.

    Points are drawn as k stretches; each point after the first of a
    stretch either extends the run before it or starts a run of its own.
    """
    grid = draw(st.integers(1, 10).map(lambda half: 2 * half + 1))
    index = st.integers(0, grid - 1)
    stretches = draw(st.lists(st.tuples(index, index, index, st.integers(1, grid)), max_size=12))
    points = sorted({(i, j, k) for i, j, k0, length in stretches
                     for k in range(k0, min(k0 + length, grid))})
    splits = draw(st.lists(st.booleans(), min_size=len(points), max_size=len(points)))
    runs = []
    for (i, j, k), split in zip(points, splits):
        if runs and runs[-1][:2] == [i, j] and runs[-1][3] == k - 1 and not split:
            runs[-1][3] = k
        else:
            runs.append([i, j, k, k])
    return grid, runs


@settings(max_examples=200, deadline=None)
@given(_lattice_runs(), st.sampled_from([",", " "]))
@example((5, []), ",")  # an empty cloud
@example((5, [(0, 0, 0, 0), (0, 0, 2, 2), (1, 3, 4, 4), (2, 2, 1, 1)]), " ")  # runs of one
@example((7, [(1, 2, 0, 2), (1, 2, 3, 3), (1, 2, 4, 6)]), ",")  # adjacent runs in one row
@example((11, [(0, 0, 5, 5), (0, 1, 6, 8)]), " ")  # consecutive k across a row change
@example((11, [(0, 4, 7, 9), (1, 0, 10, 10)]), ",")  # consecutive k across a plane change
def test_cloud_rows_equal_the_per_point_reference(case, sep):
    grid, runs = case
    cloud = SurfacePointCloud(
        ChannelKind.BIT_FLIP, Measure.L1, 0.5, 1, CoefficientMapMode.DERIVED, grid, 1e-3, 1e-4,
        np.array(runs, dtype=np.intp).reshape(-1, 4), 0,
    )
    rows = cli._rows(cloud, sep)
    assert len(rows) == len(runs)  # one string per run, as the runs are
    assert ("\n".join(rows).split("\n") if rows else []) == _per_point_rows(cloud, sep)


def test_decay_curve_stdout_when_no_out(capsys):
    code, out, _ = run(
        capsys, "decay-curve", "--channel", "dep", "--measure", "l1",
        "--state", "0.6,0.1,0.2", "--n-list", "1", "--grid", "3",
    )
    assert code == 0
    assert out.splitlines()[0] == "p,n=1"


def test_decay_curve_validation_never_writes_partial_file(tmp_path, capsys):
    out_path = tmp_path / "never.csv"
    code, _, err = run(
        capsys, "decay-curve", "--channel", "bf", "--measure", "l1",
        "--state", "0,0,0.5", "--n-list", "1", "--out", str(out_path),
    )
    assert code == 1 and not out_path.exists()
    code, _, _ = run(
        capsys, "decay-curve", "--channel", "bf", "--measure", "l1",
        "--state", "0.6,0.1,0.2", "--n-list", "0,2", "--out", str(out_path),
    )
    assert code == 1 and not out_path.exists()
    assert not list(tmp_path.iterdir())  # nor the temporary file made before the work


def test_decay_curve_rejects_an_unparseable_n_list(capsys):
    code, out, err = run(
        capsys, "decay-curve", "--channel", "bf", "--measure", "l1",
        "--state", "0.6,0.1,0.2", "--n-list", "1,x",
    )
    assert code == 1 and out == ""
    assert err == "error: could not parse iteration list from '1,x'\n"


WRITERS = {
    "decay-curve --out": ("decay-curve", "--channel", "bf", "--measure", "l1",
                          "--state", "0.6,0.1,0.2", "--n-list", "1", "--grid", "3", "--out"),
    "frozen-surface --out": ("frozen-surface", "--channel", "bf", "--measure", "l1",
                             "--p", "0.5", "--n", "1", "--grid", "5", "--out"),
    "verify --json": ("verify", "--trials", "5", "--json"),
}


# targets relative to a working directory one level inside tmp_path, so a
# temporary file left beside the target, or beside its parent, shows there:
# a missing directory, a directory, no path at all, and a path with no file
# name (all rejected before the work, so no temporary file is ever made)
UNWRITABLE = ["missing/out", "a-directory", "", "missing-dir/"]


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    (tmp_path / "cwd" / "a-directory").mkdir(parents=True)
    monkeypatch.chdir(tmp_path / "cwd")
    return tmp_path


@pytest.mark.parametrize("target", UNWRITABLE)
@pytest.mark.parametrize("argv", WRITERS.values(), ids=list(WRITERS))
def test_unwritable_output_path_is_a_typed_error(workdir, capsys, argv, target):
    code, out, err = run(capsys, *argv, target)
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot write {target}: ") and "Traceback" not in err
    assert not list(workdir.rglob(".coherence-lab-*"))


# the first piece of work each writer does
WORK = {
    "decay-curve --out": "decay_curve",
    "frozen-surface --out": "frozen_surface",
    "verify --json": "_verify_measures",
}


@pytest.mark.parametrize("target", UNWRITABLE)
@pytest.mark.parametrize("writer", list(WRITERS))
def test_unwritable_output_path_fails_before_the_work(workdir, capsys, monkeypatch, writer,
                                                      target):
    def work(*args, **kwargs):
        raise AssertionError(f"{writer} started its work before checking its output path")

    monkeypatch.setattr(cli, WORK[writer], work)
    code, out, err = run(capsys, *WRITERS[writer], target)
    assert code == 1 and err.startswith(f"error: cannot write {target}: ")
    assert out == ""
    assert not list(workdir.rglob(".coherence-lab-*"))


@pytest.mark.parametrize("writer", list(WRITERS))
def test_output_file_gets_the_mode_open_gives(tmp_path, capsys, writer):
    path = tmp_path / "out"
    old = os.umask(0o022)
    try:
        code, _, _ = run(capsys, *WRITERS[writer], str(path))
    finally:
        os.umask(old)
    assert code == 0
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o644
    assert [entry.name for entry in tmp_path.iterdir()] == ["out"]


@pytest.mark.parametrize("writer", list(WRITERS))
def test_output_file_keeps_an_existing_targets_mode(tmp_path, capsys, writer):
    path = tmp_path / "out"
    path.write_text("old\n")
    path.chmod(0o600)
    code, _, _ = run(capsys, *WRITERS[writer], str(path))
    assert code == 0
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o600
    assert path.read_text() != "old\n"
    assert [entry.name for entry in tmp_path.iterdir()] == ["out"]


@pytest.mark.parametrize("writer", list(WRITERS))
def test_output_through_a_symlink_writes_its_target(tmp_path, capsys, writer):
    # the link and its target in different directories, so the temporary
    # file must be made beside the target for the rename to land there
    (tmp_path / "data").mkdir()
    (tmp_path / "links").mkdir()
    real = tmp_path / "data" / "real"
    real.write_text("old\n")
    link = tmp_path / "links" / "out"
    link.symlink_to(os.path.join("..", "data", "real"))
    code, _, _ = run(capsys, *WRITERS[writer], str(link))
    assert code == 0
    assert link.is_symlink() and os.readlink(link) == os.path.join("..", "data", "real")
    assert real.read_text() != "old\n" and link.read_text() == real.read_text()
    assert sorted(str(entry.relative_to(tmp_path)) for entry in tmp_path.rglob("*")) == [
        "data", os.path.join("data", "real"), "links", os.path.join("links", "out"),
    ]


@pytest.mark.parametrize("measure", ["rel-ent", "skew"])
def test_frozen_surface_on_faces_writes_nothing_to_stderr(tmp_path, capsys, measure):
    # grid 21 puts lattice points on the tetrahedron faces, where q = 0 and
    # the rel-ent log meets log(0): no RuntimeWarning may reach stderr, so
    # none may be issued under any warning filter
    with warnings.catch_warnings(record=True) as issued:
        warnings.simplefilter("always")
        code, _, err = run(
            capsys, "frozen-surface", "--channel", "bf", "--measure", measure,
            "--p", "0.5", "--n", "3", "--grid", "21", "--out", str(tmp_path / "cloud.csv"),
        )
    assert code == 0 and err == "" and not issued


def test_frozen_surface_csv_metadata(tmp_path, capsys):
    out_path = tmp_path / "cloud.csv"
    code, out, _ = run(
        capsys, "frozen-surface", "--channel", "gad", "--measure", "rel-ent",
        "--p", "0.5", "--n", "24", "--grid", "21", "--out", str(out_path),
    )
    assert code == 0 and "points=0" in out
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("# channel=gad, measure=rel-ent, p=0.5, n=24,")
    assert "points=0" in lines[0] and "components=0" in lines[0]
    assert lines[1] == "c1,c2,c3"
    assert len(lines) == 2


def test_frozen_surface_ply_format(tmp_path, capsys):
    out_path = tmp_path / "cloud.ply"
    code, _, _ = run(
        capsys, "frozen-surface", "--channel", "bf", "--measure", "l1",
        "--p", "0.5", "--n", "1", "--grid", "11", "--tol", "1e-9",
        "--min-coherence", "1e-6", "--format", "ply", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "ply"
    assert lines[1] == "format ascii 1.0"
    vertex_line = next(line for line in lines if line.startswith("element vertex "))
    count = int(vertex_line.split()[-1])
    header_end = lines.index("end_header")
    assert len(lines) - header_end - 1 == count
    assert count > 0


def test_frozen_surface_deterministic_across_runs(tmp_path, capsys):
    paths = []
    for run_index in range(2):
        out_path = tmp_path / f"cloud-{run_index}.csv"
        code, _, _ = run(
            capsys, "frozen-surface", "--channel", "bf", "--measure", "rel-ent",
            "--p", "0.5", "--n", "5", "--grid", "21", "--out", str(out_path),
        )
        assert code == 0
        paths.append(out_path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_frozen_surface_rejects_even_grid(capsys):
    code, _, _ = run(
        capsys, "frozen-surface", "--channel", "bf", "--measure", "l1",
        "--p", "0.5", "--n", "1", "--grid", "10",
    )
    assert code == 1


def test_verify_small_run_passes(capsys):
    code, out, _ = run(capsys, "verify", "--seed", "42", "--trials", "40")
    assert code == 0
    assert "verify: PASS" in out
    assert "dep paper-mode gap" in out
    code2, out2, _ = run(capsys, "verify", "--seed", "42", "--trials", "40")
    assert code2 == 0 and out2 == out


def _reference_verify(seed, trials):
    """verify's three suites as per-state loops: every worst deviation, in report order."""
    worst_measure = {measure: 0.0 for measure in Measure}
    for state in sample_states(seed, trials):
        rho = to_density_matrix(state)
        for measure in Measure:
            dev = abs(closed_measure(measure, state) - matrix_measure(measure, rho))
            worst_measure[measure] = max(worst_measure[measure], dev)
    rng = Lcg(seed + 1)
    worst_map = worst_residual = worst_paper_gap = 0.0
    for kind in ChannelKind:
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            kset = single_parameter_kraus_set(kind, p)
            for n in (1, 2, 5, 9):
                for _ in range(3):
                    state = random_physical_state(rng)
                    mapped = coefficient_map(kind, p, n, state)
                    extracted, residual = from_density_matrix(
                        apply_n(to_density_matrix(state), kset, n)
                    )
                    worst_map = max(worst_map, max(abs(a - b) for a, b in zip(mapped, extracted)))
                    worst_residual = max(worst_residual, residual)
                    if kind is ChannelKind.DEPOLARIZING:
                        paper = coefficient_map(kind, p, n, state, CoefficientMapMode.PAPER)
                        gap = max(abs(a - b) for a, b in zip(paper, extracted))
                        worst_paper_gap = max(worst_paper_gap, gap)
    stream = ScalarStream(seed + 2)
    kinds, measures = list(ChannelKind), list(Measure)
    worst_engine = 0.0
    for index in range(trials):
        state = BellCoefficients(*stream.next_state(min_l1=1e-2))
        kind, measure = kinds[index % len(kinds)], measures[index % len(measures)]
        p = 0.05 + (0.95 - 0.05) * stream.next_float()
        n = 1 + (index % 12)
        closed = decay_rate(DecayQuery(state, measure, kind, p, n))
        oracle = decay_rate(DecayQuery(state, measure, kind, p, n, engine=Engine.MATRIX_ORACLE))
        worst_engine = max(worst_engine, abs(closed - oracle))
    return [*worst_measure.values(), worst_map, worst_residual, worst_paper_gap, worst_engine]


def _verify_report(capsys, tmp_path, *argv):
    path = tmp_path / "verify.json"
    code, out, _ = run(capsys, "verify", *argv, "--json", str(path))
    return code, out, json.loads(path.read_text())


@pytest.mark.parametrize("seed", [42, 2718])
def test_stacked_verify_equals_per_state_loops_bitwise(capsys, tmp_path, seed):
    code, _, report = _verify_report(capsys, tmp_path, "--seed", str(seed), "--trials", "200")
    assert code == 0
    stacked = [check["worst"] for suite in report["suites"] for check in suite["checks"]]
    assert [x.hex() for x in stacked] == [x.hex() for x in _reference_verify(seed, 200)]


# 1 and 7 trials start the sampler from batches of 12 to 13 floats, so its
# walk crosses batch ends inside verify's own draws
@pytest.mark.parametrize("trials", [1, 7])
def test_a_verify_of_few_trials_passes_and_equals_per_state_loops(capsys, tmp_path, trials):
    code, out, report = _verify_report(capsys, tmp_path, "--seed", "42", "--trials", str(trials))
    assert code == 0 and "verify: PASS" in out
    stacked = [check["worst"] for suite in report["suites"] for check in suite["checks"]]
    assert [x.hex() for x in stacked] == [x.hex() for x in _reference_verify(42, trials)]


def test_verify_json_report(capsys, tmp_path):
    argv = ("--seed", "7", "--trials", "30")
    code, plain, _ = run(capsys, "verify", *argv)
    code_json, out, report = _verify_report(capsys, tmp_path, *argv)
    assert code == code_json == 0
    assert out == plain  # the report never changes stdout
    assert report["seed"] == 7 and report["trials"] == 30 and report["passed"] is True
    assert report["version"] == coherence_lab.__version__
    assert report["numpy"] == np.__version__ and isinstance(report["scipy"], str)
    assert [s["suite"] for s in report["suites"]] == [
        "coherence measures", "coefficient maps", "decay engines"
    ]
    samples = [[30, 30, 30], [300, 300, 60], [30]]
    for suite, counts in zip(report["suites"], samples):
        assert set(suite) == {"suite", "passed", "wall_s", "checks"}
        assert suite["passed"] is True and suite["wall_s"] >= 0.0
        assert [check["samples"] for check in suite["checks"]] == counts
        for check in suite["checks"]:
            assert set(check) == {"check", "worst", "tol", "witness", "samples"}
            assert set(check["witness"]) == {"state", "channel", "p", "n", "measure"}
            assert len(check["witness"]["state"]) == 3
            assert check["tol"] is None or check["worst"] <= check["tol"]
    # each witness reproduces its worst deviation
    for check in report["suites"][0]["checks"]:
        state = BellCoefficients(*check["witness"]["state"])
        measure = Measure(check["witness"]["measure"])
        rho = to_density_matrix(state)
        assert abs(closed_measure(measure, state) - matrix_measure(measure, rho)) == check["worst"]
    (check,) = report["suites"][2]["checks"]
    w = check["witness"]
    query = DecayQuery(BellCoefficients(*w["state"]), Measure(w["measure"]),
                       ChannelKind(w["channel"]), w["p"], w["n"])
    oracle = DecayQuery(query.state, query.measure, query.kind, query.p, query.n,
                        engine=Engine.MATRIX_ORACLE)
    assert abs(decay_rate(query) - decay_rate(oracle)) == check["worst"]
    map_check = report["suites"][1]["checks"][0]
    w = map_check["witness"]
    assert w["measure"] is None and w["n"] in (1, 2, 5, 9)
    state = BellCoefficients(*w["state"])
    extracted, _ = from_density_matrix(apply_n(
        to_density_matrix(state), single_parameter_kraus_set(w["channel"], w["p"]), w["n"]
    ))
    mapped = coefficient_map(w["channel"], w["p"], w["n"], state)
    assert max(abs(a - b) for a, b in zip(mapped, extracted)) == map_check["worst"]


def test_verify_runs_each_engine_body_once_and_builds_no_query(monkeypatch, capsys):
    # counted through every module binding, and DecayQuery through its __init__
    names = ("_closed_rates", "_oracle_rates", "decay_rates")
    calls = dict.fromkeys([*names, "DecayQuery"], 0)

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    for module in [m for key, m in sys.modules.items() if key.startswith("coherence_lab")]:
        for name in names:
            if callable(getattr(module, name, None)):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    monkeypatch.setattr(DecayQuery, "__init__", counted("DecayQuery", DecayQuery.__init__))
    assert main(["verify", "--seed", "42", "--trials", "1000"]) == 0
    capsys.readouterr()
    assert calls == {"_closed_rates": 1, "_oracle_rates": 1, "decay_rates": 0, "DecayQuery": 0}


@pytest.mark.parametrize("engine_tol, passed", [(cli.VERIFY_ENGINE_TOL, True), (1e-300, False)],
                         ids=["pass", "fail"])
def test_verify_stdout_renders_each_json_check_once(capsys, tmp_path, monkeypatch, engine_tol,
                                                    passed):
    monkeypatch.setattr(cli, "VERIFY_ENGINE_TOL", engine_tol)
    code, out, report = _verify_report(capsys, tmp_path, "--seed", "7", "--trials", "30")
    lines = out.splitlines()
    assert lines[-1] == f"verify: {'PASS' if report['passed'] else 'FAIL'}"
    assert code == (0 if report["passed"] else 1)
    suites = {}  # suite name -> (verdict, its check lines)
    for line in lines[1:-1]:
        if line.startswith("suite "):
            name, verdict = line.removeprefix("suite ").rsplit(": ", 1)
            suites[name] = (verdict, [])
        else:
            suites[name][1].append(line)
    assert list(suites) == [suite["suite"] for suite in report["suites"]]
    for suite in report["suites"]:
        verdict, check_lines = suites[suite["suite"]]
        assert verdict == ("PASS" if suite["passed"] else "FAIL")
        assert len(check_lines) == len(suite["checks"])
        for check in suite["checks"]:
            shown = [line for line in check_lines
                     if check["check"] in line and f"{check['worst']:.3e}" in line]
            assert len(shown) == 1, (check, check_lines)
    assert report["passed"] is report["suites"][2]["passed"] is passed


def test_verify_rejects_zero_trials(capsys):
    code, _, err = run(capsys, "verify", "--trials", "0")
    assert code == 1 and "trials" in err


def test_usage_errors_exit_one(capsys):
    code, _, err = run(capsys, "no-such-command")
    assert code == 1 and "usage error" in err
    code, _, _ = run(capsys, "evolve", "--channel", "xyz", "--p", "0.5", "--n", "1",
                     "--state", "0,0,0")
    assert code == 1


# main parses with the one parser build_parser makes per process, so each
# call below must behave as if it were the first
def test_the_parser_is_built_once_per_process(capsys):
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    run(capsys, "coherence", "0.6,0.1,0.2")
    assert cli.build_parser() is parser


def _parser_state(parser):
    """The defaults and the attributes of every action of ``parser`` and its subparsers."""
    state = [repr(sorted(parser._defaults.items()))]
    for action in parser._actions:
        state.append(repr(sorted(vars(action).items())))
        if isinstance(action.choices, dict):
            for subparser in action.choices.values():
                state.extend(_parser_state(subparser))
    return state


def test_main_leaves_the_parser_as_built(capsys, tmp_path):
    before = _parser_state(cli.build_parser())
    for argv in (
        ("coherence", "0.6,0.1,0.2", "--measure", "l1"),
        ("evolve", "--channel", "gad", "--p", "1", "--gamma", "0", "--n", "2",
         "--state", "0.3,0.2,0.1", "--method", "kraus"),
        ("decay-curve", "--channel", "bf", "--measure", "skew", "--state", "0.3,-0.2,0.1",
         "--n-list", "1,2", "--grid", "3", "--out", str(tmp_path / "curve.csv")),
        ("decay-curve", "--channel", "xyz"),
        ("verify", "--trials", "0"),
        ("no-such-command",),
        (),
    ):
        run(capsys, *argv)
    assert _parser_state(cli.build_parser()) == before


def test_a_clamp_warning_does_not_carry_over(capsys):
    argv = ("evolve", "--channel", "bf", "--n", "1", "--state", "0.6,0.1,0.2", "--p")
    code, _, err = run(capsys, *argv, "0")
    assert code == 0 and err == "warning: p=0 clamped to 1e-12\n"
    code, _, err = run(capsys, *argv, "0.5")
    assert code == 0 and err == ""


def test_a_usage_error_leaves_the_parser_as_built(capsys):
    argv = ("decay-curve", "--measure", "skew", "--state", "0.3,-0.2,0.1", "--n-list", "1,2,5")
    cli.build_parser.cache_clear()
    first = run(capsys, *argv, "--channel", "gad", "--grid", "9")
    assert first[0] == 0 and first[2] == ""
    for bad in ((), ("--channel", "gad", "--grid", "x"), ("--channel", "xyz")):
        code, out, err = run(capsys, *argv, *bad)
        assert code == 1 and out == "" and err.startswith("usage error: ")
    assert run(capsys, *argv, "--channel", "gad", "--grid", "9") == first


def test_an_out_path_does_not_carry_over(capsys, tmp_path):
    argv = ("decay-curve", "--channel", "bf", "--measure", "skew", "--state", "0.3,-0.2,0.1",
            "--n-list", "1,2,5", "--grid", "9")
    path = tmp_path / "curve.csv"
    code, out, _ = run(capsys, *argv, "--out", str(path))
    assert code == 0 and out.startswith(f"wrote {path}: ")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.encode() == path.read_bytes()


def test_a_json_path_does_not_carry_over(capsys, tmp_path):
    path = tmp_path / "verify.json"
    code, first, _ = run(capsys, "verify", "--trials", "1", "--json", str(path))
    assert code == 0 and path.is_file()
    path.unlink()
    code, out, _ = run(capsys, "verify", "--trials", "1")
    assert code == 0 and out == first
    assert list(tmp_path.iterdir()) == []
