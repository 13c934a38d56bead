import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from photonam.sampling import SeededRng

SRC = Path(__file__).resolve().parents[1] / "src"


def _draws(seed):
    rng = SeededRng(seed)
    return [rng.integers(0, 100) for _ in range(5)], rng.normal(), rng.normal(size=(2, 3))


def test_equal_seeds_give_equal_sequences():
    (ints_a, x_a, arr_a), (ints_b, x_b, arr_b) = _draws(7), _draws(7)
    assert ints_a == ints_b and x_a == x_b
    assert np.array_equal(arr_a, arr_b)


def test_seeds_zero_and_one_differ():
    (ints_0, x_0, arr_0), (ints_1, x_1, arr_1) = _draws(0), _draws(1)
    assert ints_0 != ints_1 and x_0 != x_1
    assert not np.array_equal(arr_0, arr_1)


def test_normal_types_and_shapes():
    rng = SeededRng(3)
    assert type(rng.normal()) is float
    for size, shape in ((4, (4,)), ((2, 3), (2, 3)), (0, (0,))):
        arr = rng.normal(size=size)
        assert arr.dtype == np.float64 and arr.shape == shape


def test_integers_is_half_open():
    rng = SeededRng(11)
    seen = {rng.integers(2, 5) for _ in range(500)}
    assert seen == {2, 3, 4}


def test_cli_run_loads_neither_numpy_random_nor_scipy(tmp_path):
    # a fresh interpreter: this process has numpy.random loaded already
    script = """
import json, sys
import photonam.cli
code = photonam.cli.main(["--suite", "all", "--out", sys.argv[1]])
loaded = [m for m in sys.modules if m.startswith("numpy.random") or m.split(".")[0] == "scipy"]
print(json.dumps([code, sorted(loaded)]))
"""
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    out = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "report.txt")],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == [0, []]
