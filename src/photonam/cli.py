"""Command-line front end for the verification suites.

Exit codes: 0 when every check passes, 1 on check failure, 2 on usage or
configuration errors.  A flat `key = value` config file can seed any flag;
command-line flags override file values.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .errors import InvalidConfig, WorkbenchError
from .modes import parse_modeset
from .report import render_report
from .suites import SUITES, SuiteConfig, run_suite

_CONFIG_KEYS = {"suite", "grid", "shell", "nmax", "tol", "seed", "format", "out", "dim-cap"}


def _read_config_file(path: str) -> dict:
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise WorkbenchError(f"config line without '=': {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise WorkbenchError(f"unknown config key {key!r}")
        values[key] = val.strip()
    return values


def _parse_grid(spec: str):
    try:
        return parse_modeset(Path(spec).read_text())
    except OSError:
        # inline form: semicolon-separated kx,ky,kz triples listing every mode
        text = "\n".join(part.replace(",", " ") for part in spec.split(";") if part.strip())
        return parse_modeset(text)


def _parse_shell(spec: str) -> tuple[float, int]:
    parts = spec.replace(",", " ").split()
    try:
        radius, l_max = parts
        return float(radius), int(l_max)
    except ValueError:
        raise WorkbenchError("shell spec must be `|k|,lmax`") from None


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors take the exit-2 path of `main`."""

    def error(self, message):
        raise InvalidConfig(message)


# one parser per process: it holds no per-call state, and `main` may run often
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="photonam",
        description="Verify operator identities of covariantly quantized light"
        " on truncated indefinite-metric Fock spaces.",
    )
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument(
        "--suite",
        help=f"one of: {', '.join(sorted(SUITES))}, all",
    )
    parser.add_argument(
        "--grid",
        help="mode-set file, or inline `kx,ky,kz;...` listing every mode",
    )
    parser.add_argument("--shell", help="spherical shell as `|k|,lmax`")
    parser.add_argument(
        "--nmax",
        type=int,
        help="occupation cap of the grid spaces, per channel and total (default 2)",
    )
    parser.add_argument(
        "--tol", type=float, help="tolerance for the standard equality checks"
    )
    parser.add_argument("--seed", type=int, help="echoed; no check reads it")
    parser.add_argument(
        "--format", choices=("text", "json", "csv"), help="report output format"
    )
    parser.add_argument("--out", help="write the report to this file")
    parser.add_argument("--dim-cap", type=int, help="Fock dimension cap")
    return parser


def _merge(args: argparse.Namespace) -> tuple[SuiteConfig, str, str | None]:
    """The suite configuration, report format and output path: flags over
    config-file values, `SuiteConfig`'s defaults for the knobs set by neither."""
    file_values = _read_config_file(args.config) if args.config else {}

    def pick(flag_value, key, cast):
        if flag_value is not None:
            return flag_value
        if key not in file_values:
            return None
        try:
            return cast(file_values[key])
        except ValueError:
            raise InvalidConfig(
                f"config value {key} = {file_values[key]!r} is not a valid {cast.__name__}"
            ) from None

    suite = pick(args.suite, "suite", str)
    if suite is None:
        raise WorkbenchError("no suite given (use --suite or a config file)")
    grid_spec = pick(args.grid, "grid", str)
    shell_spec = pick(args.shell, "shell", str)
    knobs = {
        "grid": _parse_grid(grid_spec) if grid_spec else None,
        "shell": _parse_shell(shell_spec) if shell_spec else None,
        "n_max": pick(args.nmax, "nmax", int),
        "tol": pick(args.tol, "tol", float),
        "seed": pick(args.seed, "seed", int),
        "dim_cap": pick(args.dim_cap, "dim-cap", int),
    }
    config = SuiteConfig(suite=suite, **{k: v for k, v in knobs.items() if v is not None})
    fmt = pick(args.format, "format", str)
    return config, "text" if fmt is None else fmt, pick(args.out, "out", str)


def main(argv=None) -> int:
    try:
        config, fmt, out = _merge(build_parser().parse_args(argv))
        report = run_suite(config)
        payload = render_report(report, fmt)
        if out:
            Path(out).write_bytes(payload)
    except (WorkbenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not out and hasattr(sys.stdout, "buffer"):
        sys.stdout.buffer.write(payload)
    elif not out:  # a redirected sys.stdout, an io.StringIO say
        sys.stdout.write(payload.decode())
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
