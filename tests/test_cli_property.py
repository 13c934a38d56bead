"""Property test over the command line: every input runs or exits 2.

Random `--grid`, `--shell` and `--tol` text and random config-file bodies
drive `--suite dirac`, the cheapest suite, through `photonam.cli.main`.  The
exit code must be 0, 1 or 2 and no exception may escape.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
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
