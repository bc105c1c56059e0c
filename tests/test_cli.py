import json
import os
import stat
import warnings

import numpy as np
import pytest

import coherence_lab
from coherence_lab import (
    BellCoefficients,
    ChannelKind,
    CoefficientMapMode,
    DecayQuery,
    Engine,
    Lcg,
    Measure,
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
from coherence_lab import cli
from coherence_lab.cli import main


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
    rng = Lcg(seed + 2)
    kinds, measures = list(ChannelKind), list(Measure)
    worst_engine = 0.0
    for index in range(trials):
        state = random_physical_state(rng, min_l1=1e-2)
        kind, measure = kinds[index % len(kinds)], measures[index % len(measures)]
        p = rng.next_in(0.05, 0.95)
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


def test_verify_rejects_zero_trials(capsys):
    code, _, err = run(capsys, "verify", "--trials", "0")
    assert code == 1 and "trials" in err


def test_usage_errors_exit_one(capsys):
    code, _, err = run(capsys, "no-such-command")
    assert code == 1 and "usage error" in err
    code, _, _ = run(capsys, "evolve", "--channel", "xyz", "--p", "0.5", "--n", "1",
                     "--state", "0,0,0")
    assert code == 1
