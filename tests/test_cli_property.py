"""Property test over the command line: every input runs or exits 2.

Random `--grid`, `--shell` and `--tol` text and random config-file bodies
drive `--suite dirac`, the cheapest suite, through `photonam.cli.main`.  The
exit code must be 0, 1 or 2 and no exception may escape.  Random grids closed
under negation drive the five grid-reading suites, which must pass every
check or refuse the grid with exit code 2.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from photonam.cli import _CONFIG_KEYS, main

_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=30)
_NUMBER = st.one_of(
    st.floats().map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(["0", "1e-300", "1e300", "-0.0", "0x10"]),
)
# values that pass validation, so that later stages are reached too
_SMALL = st.floats(min_value=1e-6, max_value=0.09).map(repr)
_RADIUS = st.one_of(st.floats(min_value=0.1, max_value=10.0).map(repr), _NUMBER)


@st.composite
def _grid_text(draw):
    """Inline grids: vectors of 1-4 components, closed under negation or not."""
    vectors = draw(
        st.lists(st.lists(st.floats(), min_size=1, max_size=4), min_size=1, max_size=3)
    )
    if draw(st.booleans()):
        vectors = vectors + [[-c for c in v] for v in vectors]
    return ";".join(",".join(repr(c) for c in v) for v in vectors)


_GRID = st.one_of(
    _grid_text(), st.builds("shell,{},{}".format, _RADIUS, st.integers(-1, 3)), _TEXT
)
_SHELL = st.one_of(st.builds("{},{}".format, _RADIUS, st.integers(-1, 3)), _TEXT)
_TOL = st.one_of(_SMALL, _NUMBER, _TEXT)
_VALUE = st.one_of(_SMALL, _GRID, _NUMBER, _TEXT)
_CONFIG_LINE = st.one_of(
    _TEXT,
    st.builds(
        "{} = {}".format, st.sampled_from(sorted(_CONFIG_KEYS - {"out"})), _VALUE
    ),
)


@settings(max_examples=50, deadline=None)
@given(
    grid=st.none() | _GRID,
    shell=st.none() | _SHELL,
    tol=st.none() | _TOL,
    config=st.none() | st.lists(_CONFIG_LINE, max_size=6).map("\n".join),
)
def test_cli_returns_exit_code_for_any_input(grid, shell, tol, config):
    with tempfile.TemporaryDirectory() as tmp:
        # the report goes to a file under tmp, never to stdout or a config path
        argv = ["--suite", "dirac", "--out", str(Path(tmp) / "report")]
        for flag, value in (("--grid", grid), ("--shell", shell), ("--tol", tol)):
            if value is not None:
                argv.append(f"{flag}={value}")
        if config is not None:
            cfg = Path(tmp) / "run.cfg"
            cfg.write_text(config)
            argv += ["--config", str(cfg)]
        assert main(argv) in (0, 1, 2)


GRID_SUITES = (
    "canonical-commutators",
    "observable-commutators",
    "decomposition-compare",
    "gauge-hiding",
    "counter-rotating",
)


@st.composite
def _closed_grid_text(draw):
    """Inline grids of 1-4 wave vectors and their negations (2-8 modes)."""
    half = draw(
        st.lists(
            st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3), min_size=1, max_size=4
        )
    )
    vectors = half + [[-c for c in v] for v in half]
    return ";".join(",".join(repr(c) for c in v) for v in vectors)


@settings(max_examples=25, deadline=None)
@given(grid=_closed_grid_text())
# within 1e-8 of the z axis, where the frame rule takes its fallback branch
@example(grid="1e-10,0.0,1.0;-1e-10,-0.0,-1.0")
# |k|^2 subnormal: refused
@example(grid="0.0,0.0,2.94841530061304e-158;-0.0,-0.0,-2.94841530061304e-158")
def test_cli_every_accepted_grid_runs(grid):
    # an accepted grid runs on every grid-reading suite with every check
    # passing; a refused one exits 2 with one `error:` line
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        for suite in GRID_SUITES:
            err = io.StringIO()
            # `--grid=` keeps a grid that starts with "-" from parsing as a flag
            argv = ["--suite", suite, f"--grid={grid}", "--format", "json", "--out", str(out)]
            with contextlib.redirect_stderr(err):
                code = main(argv)
            if code == 2:
                assert err.getvalue().startswith("error: ")
                assert err.getvalue().count("\n") == 1
                continue
            assert code == 0, (suite, grid, out.read_text())
            assert json.loads(out.read_text())["summary"]["failed"] == 0
