"""photonam benchmark: the CLI driven from outside, one fresh process per pass.

Usage (from the repository root):

    python3 perfbench/run.py --workload all-default --seed 0 --seconds 30 --trace 0

Every pass starts a new interpreter (`worker.py`), imports `photonam.cli`
and calls `photonam.cli.main(argv)` once per invocation of the workload,
writing each report as JSON under `.bench_build/perfbench/`.  Passes run one
after another (a closed loop of one client), which suits a 2-core machine.
The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the lines before it are information.

Workloads (the seed S is passed to the CLI as `--seed`):

  all-default  `--suite all --seed S`: the acceptance configuration, every
               layer on its path.  `fock` dominates (lifts and commutators on
               2^16-state shell spaces whose asserted block has 17 states);
               the `constraints` SVD and `dirac` take small shares.  Should
               move with fock.lift_bilinear, fock.arith, fock.compress and
               constraints.physical_subspace.
  nmax-sweep   `--suite canonical-commutators --nmax N --seed S`, N = 1..4:
               the truncation-convergence study.  The grid space grows as
               (N+1)^8, up to 390,625 states, while the asserted block grows
               to 495; about 97% of the time is `fock`.  Exercises
               excitation-number-restricted spaces and the one-pass lift on
               multi-occupation spaces.  Should not move with dirac.*.
  companions   `dirac`, `field-consistency` and `counter-rotating` on the
               grid 0.5,0.25,-0.7;-0.5,-0.25,0.7, for seeds S..S+3.  Almost no
               photon product-space work: the fermionic lift dominates, then
               fields quadratures.  The bypass for restricted Fock spaces
               (predicted: no change); a merged boson/fermion lift that slows
               fermions shows here.

End-to-end metrics (`--trace 0`): `wall_s` is the median wall time of one
pass from the first `cli.main` call to the last report written, import
excluded; `setup_s` the median time from spawning an interpreter to
`photonam.cli` imported and ready (several set-up-only processes plus every
pass); `peak_rss_mb` the median `ru_maxrss` of the pass processes.

Correctness gate, per pass: every exit code is 0, every check passes, the
set of check IDs equals the one in `expected_checks.json` for that suite,
and the sha256 of each report is the same in every pass of the run (traced
or not).  `attempted` counts the checks expected, `failed` the failed or
missing checks, failed invocations (non-zero exit, missing or unparsable
report) and digest mismatches; their ratio is printed as check_fail_ratio.
`expected_checks.json` lists the check IDs the reports carried when the
benchmark was written; IDs do not depend on the seed or on --nmax.

Per-layer metrics (`--trace 1`) come from alternating untraced and traced
passes.  The traced worker wraps the layers' public functions and the
`OperatorMatrix` arithmetic (see `spans.py`); self time is a span's time
minus its child spans, so the layers' self times plus the glue between
invocations sum to the traced pass wall.  `trace.overhead_s` is the median,
over pairs of adjacent passes, of traced minus untraced pass wall.  The raw spans of the last
traced pass are kept in `.bench_build/perfbench/trace-<workload>.json`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"
EXPECTED = json.loads((HERE / "expected_checks.json").read_text())

GRID = "0.5,0.25,-0.7;-0.5,-0.25,0.7"
COMPANION_SEEDS = 4
SETUP_SAMPLES_PER_PASS = 2
DEADLINE_S = 170.0  # a run must end within 180 s

# per-layer metric suffixes for sizes computed from call arguments and return values
COMPUTED_UNITS = {"nnz": "count", "dim_max": "count", "dim_sum": "count", "dense_elems": "count",
                  "grid_points": "count", "block_fraction": "ratio", "hit_ratio": "ratio"}


def invocations(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    """(suite, argv) for each CLI invocation of one pass."""
    if workload == "all-default":
        return [("all", ["--suite", "all", "--seed", str(seed)])]
    if workload == "nmax-sweep":
        return [("canonical-commutators",
                 ["--suite", "canonical-commutators", "--nmax", str(n), "--seed", str(seed)])
                for n in (1, 2, 3, 4)]
    if workload == "companions":
        out = []
        for s in range(seed, seed + COMPANION_SEEDS):
            out.append(("dirac", ["--suite", "dirac", "--seed", str(s)]))
            out.append(("field-consistency", ["--suite", "field-consistency", "--seed", str(s)]))
            out.append(("counter-rotating",
                        ["--suite", "counter-rotating", "--grid", GRID, "--seed", str(s)]))
        return out
    raise ValueError(workload)


WORKLOADS = ("all-default", "nmax-sweep", "companions")


class Run:
    """Spawns passes in fresh processes and keeps the correctness tally."""

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.invs = invocations(workload, seed)
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        # cache bytecode as an installed package does; the warm-up pass writes it
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        self.spawned = 0
        self.attempted = 0
        self.failed = 0
        self.digests: list[str] | None = None
        self.setup_s: list[float] = []

    def spawn(self, invs, trace=False, context=False) -> dict | None:
        """Run the worker once; None when it crashed or ran out of time."""
        self.spawned += 1
        tag = f"p{self.spawned}"
        spec = {"invocations": invs, "trace": trace, "context": context,
                "result": str(self.work / f"{tag}.result.json"),
                "trace_out": str(self.work / f"{tag}.trace.json")}
        spec_path = self.work / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec))
        spawned_at = time.monotonic()
        try:
            subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                           cwd=ROOT, env=self.env, stdout=sys.stderr, check=False,
                           timeout=max(1.0, self.deadline - spawned_at))
        except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
            return None
        try:
            result = json.loads(Path(spec["result"]).read_text())
        except (OSError, ValueError):
            return None
        result["setup_s"] = result["ready"] - spawned_at
        result["trace_path"] = spec["trace_out"]
        return result

    def setup_only(self) -> None:
        result = self.spawn([])
        if result is not None:
            self.setup_s.append(result["setup_s"])

    def one_pass(self, trace=False) -> dict | None:
        """One gated pass; None when the worker left no result."""
        reports = [self.work / f"r{self.spawned + 1}-{i}.json" for i in range(len(self.invs))]
        argvs = [argv + ["--format", "json", "--out", str(path)]
                 for (_, argv), path in zip(self.invs, reports)]
        result = self.spawn(argvs, trace=trace)
        codes = result["exit_codes"] if result else [None] * len(self.invs)
        digests, bad = [], 0
        for (suite, _), path, code in zip(self.invs, reports, codes):
            expected = set(EXPECTED[suite])
            self.attempted += len(expected)
            try:
                raw = path.read_bytes()
                checks = json.loads(raw)["checks"]
            except (OSError, ValueError, KeyError, TypeError):
                bad += 1
                digests.append(None)
                continue
            bad += code != 0
            got = {c["id"] for c in checks}
            bad += sum(1 for c in checks if c.get("pass") is not True)
            bad += len(got ^ expected)
            digests.append(hashlib.sha256(raw).hexdigest())
        if self.digests is None:
            self.digests = digests
        bad += sum(1 for a, b in zip(self.digests, digests) if a is None or a != b)
        self.failed += bad
        if result is not None:
            self.setup_s.append(result["setup_s"])
        return result

    def fits(self, budget_end: float, costs: list[float]) -> bool:
        """Whether one more step of typical cost ends within the budget."""
        return time.monotonic() + statistics.median(costs) <= min(budget_end, self.deadline - 15.0)


def _median(values):
    return statistics.median(values) if values else 0.0


def tail_note(name: str, values: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    text = f"{name}: median {_median(ordered):.4f} over n={n} [{' '.join(f'{v:.3f}' for v in values)}]"
    if n >= 11:
        k = n - 11
        return text + f", p{100.0 * (k + 1) / n:.0f} {ordered[k]:.4f}"
    return text + f", max {ordered[-1]:.4f} (no tail percentile: n < 11)" if n else text


def layer_metrics(trace: dict) -> tuple[dict[str, float], dict]:
    """Per-layer metrics of one traced pass, and self time by (suite, layer)."""
    spans = trace["spans"]
    suite_names = trace["suites"]
    n = len(spans)
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * n
    suite_of: list[str | None] = [None] * n
    for i, (name, parent, _, _, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
        suite_of[i] = suite_names.get(name) or (suite_of[parent] if parent >= 0 else None)
    self_t = [d - c for d, c in zip(dur, child)]

    def group(prefix: str, exact: bool = True):
        idx = [i for i, s in enumerate(spans)
               if (s[0] == prefix if exact else s[0].startswith(prefix + "."))]
        return len(idx), sum(self_t[i] for i in idx), [spans[i][4] or {} for i in idx]

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = group(layer, exact=False)[1]
    for name in ("fock.lift_bilinear", "fock.expectation", "constraints.physical_subspace",
                 "dirac.fermionic_lift", "fields.eval_fields", "fock.compress"):
        calls, busy, _ = group(name)
        m[f"{name}.calls"] = calls
        m[f"{name}.self_s"] = busy
    calls, busy, _ = group("fock.arith", exact=False)
    m["fock.arith.calls"], m["fock.arith.self_s"] = calls, busy

    # computed counts, taken from call arguments and return values
    m["fock.lift_bilinear.nnz"] = sum(c["nnz"] for c in group("fock.lift_bilinear")[2])
    m["dirac.fermionic_lift.nnz"] = sum(c["nnz"] for c in group("dirac.fermionic_lift")[2])
    blocks = group("fock.compress")[2]
    full = sum(c["dim"] for c in blocks)
    m["fock.compress.block_fraction"] = sum(c["block"] for c in blocks) / full if full else 0.0
    dims = [c["dim"] for c in group("fock.build_fock")[2]]
    m["fock.space.dim_max"] = max(dims, default=0)
    m["fock.space.dim_sum"] = sum(dims)
    cache = trace["lowering_cache"]
    looked = cache["hits"] + cache["misses"]
    m["fock.lowering_cache.hit_ratio"] = cache["hits"] / looked if looked else 0.0
    m["constraints.physical_subspace.dense_elems"] = sum(
        c["dense_elems"] for c in group("constraints.physical_subspace")[2])
    m["fields.eval_fields.grid_points"] = sum(c["grid_points"] for c in group("fields.eval_fields")[2])
    m["modes.polarization_frame.calls"] = group("modes.polarization_frame")[0]
    m["report.render_report.self_s"] = group("report.render_report")[1]

    roots = [i for i, s in enumerate(spans) if s[1] < 0]
    m["trace.pass_wall_s"] = sum(dur[i] for i in roots)
    m["trace.glue_s"] = sum(self_t[i] for i, s in enumerate(spans) if s[0] == "bench.pass")
    m["trace.spans"] = n
    for suite in sorted(set(suite_names.values())):
        m[f"suite.{suite}.wall_s"] = sum(dur[i] for i, s in enumerate(spans)
                                          if suite_names.get(s[0]) == suite)
    table = {}
    for i, s in enumerate(spans):
        key = (suite_of[i] or "-", s[0].split(".")[0])
        table[key] = table.get(key, 0.0) + self_t[i]
    return m, table


def print_suite_table(table: dict) -> None:
    layers = ("bench",) + LAYERS
    suites = sorted({k[0] for k in table})
    print("self seconds by suite and layer (traced pass):")
    print("  " + "suite".ljust(24) + "".join(layer.rjust(12) for layer in layers))
    for suite in suites:
        row = "".join(f"{table.get((suite, layer), 0.0):12.4f}" for layer in layers)
        print("  " + suite.ljust(24) + row)


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def measure(run: Run, seconds: float) -> dict[str, dict]:
    budget_end = time.monotonic() + seconds
    walls, rss, costs = [], [], []
    while True:
        began = time.monotonic()
        result = run.one_pass()
        if result is None:
            break
        # set-up samples spread over the run, so a burst of load moves few of them
        for _ in range(SETUP_SAMPLES_PER_PASS):
            run.setup_only()
        costs.append(time.monotonic() - began)
        walls.append(result["pass_wall_s"])
        rss.append(result["maxrss_kb"] / 1024.0)
        if not run.fits(budget_end, costs):
            break
    print("report sha256 " + " ".join(run.digests or []))
    print(tail_note("wall_s", walls))
    print(tail_note("setup_s", run.setup_s))
    print(tail_note("peak_rss_mb", rss))
    if not walls:
        return {}
    return {
        "wall_s": {"value": _median(walls), "unit": "s"},
        "setup_s": {"value": _median(run.setup_s), "unit": "s"},
        "peak_rss_mb": {"value": _median(rss), "unit": "MB"},
    }


def measure_traced(run: Run, seconds: float, keep: Path) -> dict[str, dict]:
    budget_end = time.monotonic() + seconds
    plain, traced, costs = [], [], []
    per_pass: list[dict] = []
    table: dict = {}
    gaps: list[float] = []
    while True:
        began = time.monotonic()
        untraced = run.one_pass()
        result = run.one_pass(trace=True) if untraced is not None else None
        if result is None:
            break
        costs.append(time.monotonic() - began)
        plain.append(untraced["pass_wall_s"])
        traced.append(result["pass_wall_s"])
        trace = json.loads(Path(result["trace_path"]).read_text())
        metrics, table = layer_metrics(trace)
        gaps.append(abs(sum(table.values()) - metrics["trace.pass_wall_s"]))
        per_pass.append(metrics)
        shutil.copyfile(result["trace_path"], keep)
        if not run.fits(budget_end, costs):
            break
    if not per_pass:
        return {}
    print_suite_table(table)
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    # adjacent passes share the machine's state, so pairing cancels its drift
    metrics["trace.overhead_s"] = statistics.median(t - p for t, p in zip(traced, plain))
    gap = max(gaps)
    print(f"self times sum to the traced pass wall within {gap:.3e} s; "
          f"traced {_median(traced):.4f} s vs untraced {_median(plain):.4f} s, "
          f"{len(per_pass)} pair(s)")
    if gap > 1e-6:
        run.failed += 1
    computed = [name for name in metrics if name.rsplit(".", 1)[1] in COMPUTED_UNITS]
    print("computed from call arguments and return values, not timings: " + ", ".join(computed))
    return {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()}


def _unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    return COMPUTED_UNITS.get(suffix) or ("count" if suffix in ("calls", "spans") else "s")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "photonam" / "cli.py").is_file():
        print(f"error: no photonam sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # the CLI's seeds feed numpy.random.default_rng, which needs them >= 0
    seed = args.seed % (1 << 32)
    OUT.mkdir(parents=True, exist_ok=True)
    work = OUT / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        run = Run(args.workload, seed, work)
        # warm-up: compiles bytecode and fills the page cache; not timed
        warm = run.spawn([], context=True)
        if warm is None:
            print("error: the worker could not import photonam.cli", file=sys.stderr)
            return 1
        context = dict(warm["context"], src_lines=src_lines())
        print("context " + json.dumps(context, sort_keys=True))
        if args.trace:
            metrics = measure_traced(run, args.seconds, OUT / f"trace-{args.workload}.json")
        else:
            metrics = measure(run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = max(run.attempted, 1)
    print(f"check_fail_ratio {run.failed / attempted:.6g} "
          f"({run.failed} failed of {run.attempted} checks attempted)")
    if not metrics:
        print("error: no pass completed", file=sys.stderr)
        return 1
    print(json.dumps({"correct": run.failed == 0, "attempted": attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
