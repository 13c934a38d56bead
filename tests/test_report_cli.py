import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from photonam import operators as ops
from photonam.cli import main
from photonam.errors import DimensionCapExceeded, InvalidConfig, UnknownFormat, UnknownSuite
from photonam.fock import OperatorMatrix
from photonam.modes import SphericalShell
from photonam.report import (
    KIND_VIOLATION,
    CheckRecord,
    VerificationReport,
    render_report,
)
from photonam.suites import SUITES, SuiteConfig, run_suite


def small_report():
    rep = VerificationReport("demo", {"seed": 0, "tol": 1e-10})
    rep.add("b-check", "MCR1", 1e-14, 1e-10)
    rep.add("a-check", "Table-II", 0.5, 0.1, kind=KIND_VIOLATION)
    rep.note("informational only")
    return rep


def test_records_sorted_and_counts():
    rep = small_report().finalize()
    assert [r.check_id for r in rep.checks] == ["a-check", "b-check"]
    assert rep.counts == (2, 2, 0)
    assert rep.all_passed


def test_parser_built_once_and_stateless(capsys):
    from photonam.cli import build_parser

    assert build_parser() is build_parser()
    # a flag of one call does not carry over to the next
    for argv, seed in ((["--seed", "3"], "3"), ([], "0")):
        assert main(["--suite", "dirac", "--format", "json", *argv]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["seed"] == seed


def test_violation_semantics():
    rec = CheckRecord("v", "Table-III", 0.05, 0.1, kind=KIND_VIOLATION)
    assert not rec.passed
    rec = CheckRecord("v", "Table-III", 0.5, 0.1, kind=KIND_VIOLATION)
    assert rec.passed
    for bad in (math.inf, -math.inf, math.nan):
        assert not CheckRecord("v", "Table-III", bad, 0.1, kind=KIND_VIOLATION).passed
        assert not CheckRecord("e", "MCR1", bad, 1e-10).passed


def test_empty_report_renders():
    rep = VerificationReport("empty", {})
    for fmt in ("text", "json", "csv"):
        payload = render_report(rep, fmt)
        assert payload.endswith(b"\n")
    parsed = json.loads(render_report(rep, "json"))
    assert parsed["summary"] == {"total": 0, "passed": 0, "failed": 0}
    assert parsed["checks"] == []


def test_json_schema_round_trip():
    payload = render_report(small_report(), "json")
    parsed = json.loads(payload)
    assert parsed["suite"] == "demo"
    assert {c["id"] for c in parsed["checks"]} == {"a-check", "b-check"}
    for check in parsed["checks"]:
        assert set(check) == {"id", "anchor", "kind", "residual", "tolerance", "pass"}
    assert parsed["notes"] == ["informational only"]


def test_csv_header_and_rows():
    lines = render_report(small_report(), "csv").decode().splitlines()
    assert lines[0] == "check_id,anchor,residual,tolerance,pass"
    assert lines[1].startswith("a-check,Table-II,5.000000e-01,1.000000e-01,true")
    assert len(lines) == 3


def test_unknown_format():
    with pytest.raises(UnknownFormat):
        render_report(small_report(), "yaml")


# counter-rotating keeps its original bare-format ids
BYTE_STABLE_CASES = [
    pytest.param(suite, fmt, id=fmt if suite == "counter-rotating" else f"{suite}-{fmt}")
    for suite in ("counter-rotating", "field-consistency", "dirac")
    for fmt in ("text", "json", "csv")
]


@pytest.mark.parametrize("suite, fmt", BYTE_STABLE_CASES)
def test_reports_byte_stable_across_runs(suite, fmt):
    first = render_report(run_suite(SuiteConfig(suite=suite, seed=3)), fmt)
    second = render_report(run_suite(SuiteConfig(suite=suite, seed=3)), fmt)
    assert first == second


def test_unknown_suite_and_bad_config():
    with pytest.raises(UnknownSuite):
        run_suite(SuiteConfig(suite="nonexistent"))
    with pytest.raises(InvalidConfig):
        run_suite(SuiteConfig(suite="dirac", tol=-1.0))
    with pytest.raises(InvalidConfig):
        run_suite(SuiteConfig(suite="dirac", n_max=0))


def test_cli_success_and_output_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["--suite", "dirac", "--format", "json", "--out", str(out), "--seed", "1"]
    )
    assert code == 0
    parsed = json.loads(out.read_bytes())
    assert parsed["suite"] == "dirac"
    assert parsed["summary"]["failed"] == 0


def test_canonical_commutators_report_is_seed_free(tmp_path):
    # every check of the suite is seed-free; --seed is still accepted and echoed
    reports = []
    for seed in (0, 5):
        out = tmp_path / f"seed{seed}.json"
        argv = ["--suite", "canonical-commutators", "--format", "json", "--out", str(out)]
        assert main([*argv, "--seed", str(seed)]) == 0
        reports.append(json.loads(out.read_bytes()))
    assert [r["config"].pop("seed") for r in reports] == ["0", "5"]
    assert reports[0] == reports[1]


def test_all_reports_differ_only_in_the_echoed_seed():
    # no check reads the seed: rendered at seeds 0 and 3, every line but the
    # echo is the same in each format, and csv carries no config
    echo = {"text": ["config seed = {}"], "json": ['"seed": "{}",'], "csv": []}
    reports = [run_suite(SuiteConfig(seed=seed)) for seed in (0, 3)]
    for fmt, lines in echo.items():
        first, second = (render_report(r, fmt).decode().splitlines() for r in reports)
        assert len(first) == len(second)
        moved = [(a.strip(), b.strip()) for a, b in zip(first, second) if a != b]
        assert moved == [(line.format(0), line.format(3)) for line in lines], fmt


def test_cli_unknown_suite_exit_2(capsys):
    assert main(["--suite", "nonexistent"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_missing_suite_exit_2(capsys):
    assert main([]) == 2


def test_cli_bad_tolerance_exit_2(capsys):
    assert main(["--suite", "dirac", "--tol", "-2"]) == 2


def test_cli_negative_seed_exit_2(capsys):
    # dirac draws nothing from the seed; the seed is still refused up front
    assert main(["--suite", "dirac", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: seed must be a non-negative integer\n"
    assert captured.out == ""
    with pytest.raises(InvalidConfig, match="seed must be a non-negative integer"):
        run_suite(SuiteConfig(suite="all", seed=-1))


@pytest.mark.parametrize(
    "argv",
    [
        ["--tol", "1e300"],
        ["--tol", "inf"],
        ["--tol", "nan"],
        ["--tol", "0.1"],
        ["--shell", "inf,1"],
        ["--grid", "inf,0,1;-inf,0,-1"],
        ["--grid", "1,2;-1,-2"],
        ["--grid", "1,2,3,4;-1,-2,-3,-4"],
    ],
)
def test_cli_vacuous_or_non_finite_input_exit_2(argv, capsys):
    assert main(["--suite", "canonical-commutators", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--grid", "a,0,1;-a,0,-1"], "wave vector ['a', '0', '1'] has a non-numeric component"),
        (["--shell", "1.0,x"], "shell spec must be `|k|,lmax`"),
        (["--shell", "x,2"], "shell spec must be `|k|,lmax`"),
        (["--grid", "shell,1.0,x"], "a grid lists wave vectors; give a shell with --shell"),
    ],
)
def test_cli_non_numeric_input_exit_2(argv, message, capsys):
    assert main(["--suite", "all", *argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("spec", ["shell,1,2", "shell,1.0,4"])
def test_cli_well_formed_shell_as_grid_exit_2(spec, capsys):
    # a shell is given with --shell; a grid only lists wave vectors
    assert main(["--suite", "canonical-commutators", "--grid", spec]) == 2
    assert capsys.readouterr().err == "error: a grid lists wave vectors; give a shell with --shell\n"


@pytest.mark.parametrize("line, cast", [("nmax = x", "int"), ("tol = 1e-3e", "float")])
def test_cli_non_numeric_config_value_exit_2(tmp_path, line, cast, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"suite = all\n{line}\n")
    assert main(["--config", str(cfg)]) == 2
    key, _, value = line.partition(" = ")
    expected = f"error: config value {key} = {value!r} is not a valid {cast}\n"
    assert capsys.readouterr().err == expected


def test_cli_config_file_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("suite = dirac\nseed = 7\nformat = csv\n")
    out = tmp_path / "a.csv"
    code = main(["--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert out.read_bytes().startswith(b"check_id,anchor,")
    out2 = tmp_path / "b.json"
    code = main(["--config", str(cfg), "--format", "json", "--out", str(out2)])
    assert code == 0
    json.loads(out2.read_bytes())


def test_cli_bad_config_key_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sweet = dirac\n")
    assert main(["--config", str(cfg)]) == 2


def test_cli_inline_grid():
    code = main(
        [
            "--suite",
            "counter-rotating",
            "--grid",
            "0.5,0.25,-0.7;-0.5,-0.25,0.7",
            "--format",
            "csv",
            "--out",
            "/dev/null",
        ]
    )
    assert code == 0


def test_cli_all_polarization_lmax2_shell(capsys):
    # 36 channels: the product space is 2^36, the capped space 667 states
    code = main(["--suite", "observable-commutators", "--shell", "1.0,2", "--format", "json"])
    assert code == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["summary"] == {"total": 11, "passed": 11, "failed": 0}


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_cli_decomposition_reads_shell(seed, capsys, monkeypatch):
    built = []
    lift = ops.lift_family

    def recording(fs, name, ms=None):
        if isinstance(ms, SphericalShell):
            built.append((ms.l_max, fs.dim))
        return lift(fs, name, ms)

    monkeypatch.setattr(ops, "lift_family", recording)
    base = ["--suite", "decomposition-compare", "--seed", str(seed), "--format", "json"]
    violation = {}
    for shell, l_max in ((["--shell", "1.0,2"], 2), ([], 1)):
        built.clear()
        assert main(base + shell) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["summary"] == {"total": 15, "passed": 15, "failed": 0}
        # l_max 2: 36 channels capped at one photon, 37 states
        assert set(built) == {(l_max, 37 if l_max == 2 else 17)}
        checks = {c["id"]: c["residual"] for c in parsed["checks"]}
        violation[l_max] = f"{checks['jaffe-manohar-oam-violation']:.6e}"
    assert violation == {2: "5.000000e-01", 1: "2.500000e-01"}


def test_cli_canonical_reads_shell(capsys, monkeypatch):
    built = []
    lift = ops.lift_family

    def recording(fs, name, ms=None):
        if name == "oam_total":
            built.append((ms.l_max, fs.dim))
        return lift(fs, name, ms)

    monkeypatch.setattr(ops, "lift_family", recording)
    base = ["--suite", "canonical-commutators", "--format", "json", "--shell"]
    assert main(base + ["1.0,2"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["summary"] == {"total": 23, "passed": 23, "failed": 0}
    # the all-polarization block at l_max 2: 36 channels capped at one photon
    assert built == [(2, 37)]
    # 64 channels, beyond a 64-bit product index: 65 states, every check passes
    assert main(base + ["1.0,3"]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["failed"] == 0
    assert built[1:] == [(3, 65)]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--suite", "observable-commutators", "--shell", "1.0,100000"], "dim 40000800005 "),
        (["--suite", "gauge-hiding", "--shell", "1.0,40"], "occupation table 6725 x 6724 "),
        (["--suite", "decomposition-compare", "--shell", "1.0,16"], "1156 x 1156 forms exceed"),
        (
            ["--suite", "canonical-commutators", "--grid", ";".join(
                f"{s * (i + 1)},0,{s}" for i in range(150) for s in (1, -1)
            )],
            "occupation table 721801 x 1200 ",
        ),
    ],
)
def test_cli_many_channels_refused_before_allocation(capsys, argv, message):
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_cli_gauge_hiding_reads_shell(capsys, monkeypatch):
    from photonam import suites

    built = []
    lift = ops.lift_family
    sides = suites._xi_pathway_sides

    def recording_oam(fs, name, ms=None):
        if name == "oam_total":
            built.append(("oam-identity", ms.l_max, fs.dim))
        return lift(fs, name, ms)

    def recording_xi(shell, xi, beta3):
        built.append(("xi", shell.l_max, xi.shape))
        return sides(shell, xi, beta3)

    monkeypatch.setattr(ops, "lift_family", recording_oam)
    monkeypatch.setattr(suites, "_xi_pathway_sides", recording_xi)
    assert main(["--suite", "gauge-hiding", "--shell", "1.0,2", "--format", "json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["summary"] == {"total": 10, "passed": 10, "failed": 0}
    # l_max 2: 36 channels capped at one photon, 37 states; xi over the 9 labels
    assert set(built) == {("oam-identity", 2, 37), ("xi", 2, (9, 9))}


@pytest.mark.parametrize(
    "suite",
    [
        "observable-commutators",
        "decomposition-compare",
        "canonical-commutators",
        "gauge-hiding",
        "all",
    ],
)
def test_cli_orbital_lmax_zero_exit_2(suite, capsys):
    assert main(["--suite", suite, "--shell", "1.0,0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: orbital checks need l_max >= 1")
    assert "Traceback" not in err
    with pytest.raises(InvalidConfig, match="orbital checks need l_max >= 1"):
        run_suite(SuiteConfig(suite=suite, shell=(1.0, 0)))


@pytest.mark.parametrize(
    "suite, argv, unread",
    [
        ("dirac", ["--shell", "1.0,2"], "--shell"),
        ("dirac", ["--grid", "0,0,1;0,0,-1"], "--grid"),
        ("field-consistency", ["--shell", "1.0,2"], "--shell"),
        ("field-consistency", ["--grid", "0,0,1;0,0,-1", "--shell", "1.0,1"], "--grid or --shell"),
        ("counter-rotating", ["--shell", "1.0,2"], "--shell"),
    ],
)
def test_cli_suite_alone_refuses_unread_knob(suite, argv, unread, capsys):
    assert main(["--suite", suite, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {suite} does not read {unread}\n"
    assert captured.out == ""


def test_all_notes_unread_knob_only_when_set():
    default = run_suite(SuiteConfig(suite="all"))
    assert not any("ignored" in note for note in default.notes)
    shell = run_suite(SuiteConfig(suite="all", shell=(1.0, 2)))
    assert [note for note in shell.notes if "ignored" in note] == [
        f"{suite}: --shell ignored: this suite does not read it"
        for suite in ("counter-rotating", "dirac", "field-consistency")
    ]
    assert shell.all_passed


@pytest.mark.parametrize("suite", ["counter-rotating", "dirac", "field-consistency"])
def test_cli_suite_alone_refuses_nmax(suite, capsys):
    assert main(["--suite", suite, "--nmax", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {suite} does not read --nmax\n"
    assert captured.out == ""
    # a set flag is refused even at its default value
    with pytest.raises(InvalidConfig, match=f"^{suite} does not read --nmax$"):
        run_suite(SuiteConfig(suite=suite, n_max=2))


def test_all_notes_unread_nmax_only_when_set():
    default = run_suite(SuiteConfig(suite="all"))
    assert default.config["n_max"] == 2
    assert not any("ignored" in note for note in default.notes)
    nmax = run_suite(SuiteConfig(suite="all", n_max=3))
    assert [note for note in nmax.notes if "ignored" in note] == [
        f"{suite}: --nmax ignored: this suite does not read it"
        for suite in ("counter-rotating", "dirac", "field-consistency")
    ]
    assert nmax.all_passed


def test_cli_capped_space_over_dim_cap_exit_2(capsys):
    argv = ["--suite", "observable-commutators", "--shell", "1.0,2", "--dim-cap", "40"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: dim 45 (total occupation <= 2) exceeds cap 40")
    assert "Traceback" not in err
    with pytest.raises(DimensionCapExceeded):
        run_suite(SuiteConfig(suite="observable-commutators", shell=(1.0, 2), dim_cap=40))


def test_cli_dirac_honours_dim_cap(capsys):
    assert main(["--suite", "dirac", "--dim-cap", "600"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: dim 697 (total occupation <= 3) exceeds cap 600")


def test_cli_grid_over_the_mode_cap_exit_2(capsys):
    # 512 pairs and a repeat of the first mode: 1,025 negation-closed modes
    pairs = [(1.0 + i, 0.5, -0.25) for i in range(512)]
    rows = [r for k in pairs for r in (k, tuple(-c for c in k))] + [pairs[0]]
    grid = ";".join(",".join(repr(c) for c in k) for k in rows)
    argv = ["--suite", "counter-rotating", "--grid", grid, "--dim-cap", str(1 << 30)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 1025 modes exceed the grid cap 1024")
    assert "Traceback" not in err


FOUR_MODE_GRID = "0,0,1;0,0,-1;1,0,0;-1,0,0"
EIGHT_MODE_GRID = (
    "0,0,1;0,0,-1;1,0,0;-1,0,0;0.6,0.8,0;-0.6,-0.8,0;0.3,-0.4,1.2;-0.3,0.4,-1.2"
)


def test_cli_gauge_hiding_densifies_at_most_9x9_and_refuses_nmax_6_in_bounded_memory(
    capsys, monkeypatch
):
    # the grid and pair kernels are read off their occupation tables and the
    # xi pathway is read off its coherent states in closed form, so no
    # operator is densified
    to_dense = OperatorMatrix.to_dense
    densified = []

    def small_dense_only(self):
        assert self.shape[0] * self.shape[1] <= 1 << 20, "large dense array allocated"
        densified.append(self.shape)
        return to_dense(self)

    monkeypatch.setattr(OperatorMatrix, "to_dense", small_dense_only)
    # 4 modes x 4 polarizations at --nmax 3: 969 states, 455 kernel monomials;
    # 8 modes at --nmax 3: 6545 states, 2925 kernel monomials
    for grid in (FOUR_MODE_GRID, EIGHT_MODE_GRID):
        argv = ["--suite", "gauge-hiding", "--grid", grid, "--nmax", "3"]
        assert main(argv + ["--format", "json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["summary"] == {"total": 10, "passed": 10, "failed": 0}
    assert densified == []
    # 8 modes at --nmax 6: 2760681 states, refused before the occupation table
    # is allocated; the whole run stays below one complex vector of dim_cap
    # amplitudes
    tracemalloc.start()
    try:
        code = main(["--suite", "gauge-hiding", "--grid", EIGHT_MODE_GRID, "--nmax", "6"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 16 << 20
    err = capsys.readouterr().err
    assert err == "error: dim 2760681 (total occupation <= 6) exceeds cap 1048576\n"


def test_cli_gauge_hiding_four_mode_grid_passes(capsys):
    # capped at total occupation 2: 153 states, 91 kernel monomials
    assert main(["--suite", "gauge-hiding", "--grid", FOUR_MODE_GRID, "--format", "json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["summary"] == {"total": 10, "passed": 10, "failed": 0}


@pytest.mark.parametrize(
    "suite",
    [
        "canonical-commutators",
        "observable-commutators",
        "decomposition-compare",
        "gauge-hiding",
        "counter-rotating",
    ],
)
def test_cli_eight_mode_grid_passes(suite, tmp_path):
    assert main(["--suite", suite, "--grid", EIGHT_MODE_GRID, "--out", str(tmp_path / "r")]) == 0


def test_cli_report_to_redirected_stdout(tmp_path):
    argv = ["--suite", "counter-rotating", "--format", "json"]
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        assert main(argv) == 0
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert captured.getvalue().encode() == out.read_bytes()


def test_cli_unwritable_output_exit_2(tmp_path, capsys):
    out = tmp_path / "missing" / "report.txt"
    assert main(["--suite", "dirac", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--suite", "dirac", "--grid", "shell,1,2"],
        ["--suite", "dirac", "--tol", "abc"],
        ["--suite", "dirac", "--bogus"],
        ["--suite"],
        ["--suite", "field-consistency", "--dim-cap", "0"],
        ["--suite", "field-consistency", "--dim-cap", "-7"],
    ],
)
def test_cli_usage_errors_exit_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_all_suite_names_registered():
    assert set(SUITES) == {
        "canonical-commutators",
        "observable-commutators",
        "decomposition-compare",
        "gauge-hiding",
        "counter-rotating",
        "field-consistency",
        "dirac",
    }


def test_python_dash_m_runs_decomposition_compare():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "photonam", "--suite", "decomposition-compare"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "passed 15/15" in proc.stdout


# Run in a fresh interpreter: the CLI's import and a full run load no scipy.
# .github/workflows/tier1.yml runs the same check on the installed package.
NO_SCIPY_CHECK = """
import sys
import time
import photonam.cli
assert photonam.cli.main(["--suite", "all", "--out", sys.argv[1]]) == 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""


def test_all_json_bytes_do_not_depend_on_blas_threads():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for argv in (
        ["--suite", "all"],
        ["--suite", "gauge-hiding", "--grid", FOUR_MODE_GRID],
    ):
        outputs = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "photonam", *argv, "--seed", "0", "--format", "json"],
                env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads),
                capture_output=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], argv


def test_cli_run_imports_no_scipy(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_CHECK, str(tmp_path / "report.txt")],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


# Each CLI invocation of the benchmark (perfbench/run.py) and the suite key of
# its check IDs in perfbench/expected_checks.json, which the benchmark's
# correctness gate compares every report against.
BENCH_GRID = "0.5,0.25,-0.7;-0.5,-0.25,0.7"
BENCH_INVOCATIONS = [
    ("all", ["--suite", "all"]),
    *(("canonical-commutators", ["--suite", "canonical-commutators", "--nmax", str(n)])
      for n in (1, 2, 3, 4)),
    ("dirac", ["--suite", "dirac"]),
    ("field-consistency", ["--suite", "field-consistency"]),
    ("counter-rotating", ["--suite", "counter-rotating", "--grid", BENCH_GRID]),
]


@pytest.mark.parametrize(
    "suite, argv", BENCH_INVOCATIONS, ids=[" ".join(argv[1:]) for _, argv in BENCH_INVOCATIONS]
)
def test_benchmark_invocations_carry_the_expected_check_ids(suite, argv, tmp_path):
    expected = json.loads(
        (Path(__file__).resolve().parents[1] / "perfbench" / "expected_checks.json").read_text()
    )
    out = tmp_path / "report.json"
    assert main(argv + ["--format", "json", "--out", str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]
    assert {c["id"] for c in checks} == set(expected[suite])
