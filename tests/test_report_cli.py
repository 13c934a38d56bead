import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from photonam.cli import main
from photonam.errors import DimensionCapExceeded, InvalidConfig, UnknownFormat, UnknownSuite
from photonam.fock import _CSR
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


def test_wall_time_excluded_from_bytes():
    rep1 = small_report()
    rep2 = VerificationReport("demo", {"seed": 0, "tol": 1e-10})
    rep2.add("b-check", "MCR1", 1e-14, 1e-10, wall_time_s=123.0)
    rep2.add("a-check", "Table-II", 0.5, 0.1, kind=KIND_VIOLATION, wall_time_s=9.0)
    rep2.note("informational only")
    for fmt in ("text", "json", "csv"):
        assert render_report(rep1, fmt) == render_report(rep2, fmt)


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_reports_byte_stable_across_runs(fmt):
    cfg = SuiteConfig(suite="counter-rotating", seed=3)
    first = render_report(run_suite(cfg), fmt)
    second = render_report(run_suite(SuiteConfig(suite="counter-rotating", seed=3)), fmt)
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


def test_cli_dense_constraint_stack_over_dim_cap_exit_2(capsys, monkeypatch):
    # 4 modes x 4 polarizations: dim 2^16, a 2^18 x 2^16 dense stack
    toarray = _CSR.toarray
    densified = []

    def small_dense_only(self):
        assert self.shape[0] * self.shape[1] <= 1 << 20, "large dense array allocated"
        densified.append(self.shape)
        return toarray(self)

    monkeypatch.setattr(_CSR, "toarray", small_dense_only)
    argv = ["--suite", "gauge-hiding", "--grid", "0,0,1;0,0,-1;1,0,0;-1,0,0"]
    assert main(argv) == 2
    # the suite densified its small blocks through the patched method
    assert densified
    err = capsys.readouterr().err
    assert err.startswith(
        "error: dense constraint stack 262144 x 65536 = 17179869184 elements exceeds cap 1048576"
    )
    assert "Traceback" not in err


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
import photonam.cli
assert photonam.cli.main(["--suite", "all", "--out", sys.argv[1]]) == 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""


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
