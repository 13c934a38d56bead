"""No check draws, so the CLI loads no sampling machinery."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_run_loads_neither_numpy_random_nor_scipy(tmp_path):
    # a fresh interpreter: this process has numpy.random loaded already.
    # numpy.ma is refused too: a kernel call that imports it (np.unique, np.r_)
    # adds about 1.8 MB to the peak RSS of a canonical-commutators run
    script = """
import json, sys
import photonam.cli
code = photonam.cli.main(["--suite", "all", "--out", sys.argv[1]])
loaded = [
    m
    for m in sys.modules
    if m.startswith("numpy.random")
    or m.split(".")[0] == "scipy"
    or m.split(".")[:2] == ["numpy", "ma"]
]
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
