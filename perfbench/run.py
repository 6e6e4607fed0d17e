"""Run one levyap benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a levyap checkout.  The measured work happens in a
child process (child.py) started with a fixed BLAS thread count, after
two set-up-only children that time further cold starts; this process then
checks every artifact the child wrote against references
computed here (checks.py) and prints, as its last line, one JSON object
with the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones (wall_s, setup_s, peak_rss_mb); with
--trace 1 the per-layer ones from a traced round.

Exit codes: 0 with a result, 1 when the child failed or timed out, 2 on a
usage error or when the checkout has no levyap sources.
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
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1    # the FP solve's speed depends on it, so it is fixed
CHILD_TIMEOUT_S = 160.0
SETUP_STARTS = 3


def _read(stem: str, suffix: str) -> bytes:
    p = Path(stem).with_suffix(suffix)
    return p.read_bytes() if p.exists() else b""


class Checker:
    """Runs the checks of one workload, memoised on artifact content, so
    identical artifacts of repeated rounds are checked once."""

    def __init__(self, workload: str, seed: int):
        import checks
        self.checks = checks
        self.workload = workload
        self.seed = seed
        self.memo: dict = {}

    def _memo(self, key, fn):
        if key not in self.memo:
            self.memo[key] = fn()
        return self.memo[key]

    def op_problems(self, name: str, payload: dict, csv_text: str) -> list[str]:
        c = self.checks
        if self.workload == "shear-sweep":
            return c.check_sweep(payload, csv_text)
        if self.workload == "shear-triangle":
            return c.check_triangle(name, payload, csv_text,
                                    self._memo("reference", c.triangle_reference))
        if self.workload == "fp-refine":
            return c.check_fp_op(payload, csv_text, int(name.split("-")[1]))
        if name == "direct":
            return c.check_duffing_direct(payload, csv_text, self.seed)
        return c.check_duffing_khasminskii(payload, csv_text, self.seed) + \
            self._memo("irho", lambda: c.check_duffing_irho(self.seed))

    def round_problems(self, recs: list[dict]) -> dict:
        """op name -> problems, for one round of operation records."""
        found, payloads = {}, {}
        for r in recs:
            if r["rc"] != 0:
                last = r["stderr"].strip().splitlines()[-1:]
                found[r["op"]] = [f"{r['op']}: exit code {r['rc']}"
                                  + (f": {last[0]}" if last else "")]
                continue
            raw_json, raw_csv = _read(r["stem"], ".json"), _read(r["stem"], ".csv")
            key = (r["op"], hashlib.sha256(raw_json + b"\0" + raw_csv).hexdigest())
            try:
                payload = json.loads(raw_json)
                payloads[r["op"]] = payload
                found[r["op"]] = self._memo(key, lambda: self.op_problems(
                    r["op"], payload, raw_csv.decode()))
            except (ValueError, KeyError, TypeError) as exc:
                found[r["op"]] = [f"{r['op']}: unreadable artifact: {exc!r}"]
        if self.workload == "fp-refine":
            for variant in ("brownian", "jumps"):
                names = [f"{variant}-{n}" for n in workloads.FP_GRIDS]
                if not all(n in payloads for n in names):
                    continue
                res = [payloads[n]["results"] for n in names]
                lams = {r["grid_n"]: r["lambda"] for r in res}
                explicit = {r["grid_n"]: r["explicit_adjoint_residual"] for r in res}
                key = (variant, tuple(sorted(lams.items())),
                       tuple(sorted(explicit.items())))
                found[names[-1]] = found[names[-1]] + self._memo(
                    key, lambda: self.checks.check_fp_refinement(variant, lams, explicit))
        return found


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("seed must be >= 0 and seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "levyap" / "__init__.py").is_file():
        print(f"perfbench: no levyap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for key in BLAS_ENV:        # before numpy is imported, here and in the child
        os.environ[key] = str(BLAS_THREADS)

    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    (OUT / "traces").mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT / "tmp"))
    try:
        return _run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _spawn(cmd: list[str], result_path: Path, log_path: Path):
    """Run one child to its end; its result, or None when it failed."""
    with open(log_path, "wb") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd + ["--result", str(result_path),
                                       "--t-spawn", repr(t_spawn)],
                                cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        try:
            rc = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"perfbench: child exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return None
    if rc != 0 or not result_path.exists():
        sys.stderr.write(log_path.read_text(errors="replace")[-4000:])
        print(f"perfbench: child exited with code {rc}", file=sys.stderr)
        return None
    return json.loads(result_path.read_text())


def _run(args, tmp: Path) -> int:
    trace_file = OUT / "traces" / f"{args.workload}-seed{args.seed}.trace.json"
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--outdir", str(tmp), "--trace-file", str(trace_file)]
    # set-up time: the median of SETUP_STARTS cold starts, each a new
    # process (the traced run reports no set-up time)
    setups = []
    for k in range(0 if args.trace else SETUP_STARTS - 1):
        probe = _spawn(cmd + ["--setup-only"], tmp / f"setup-{k}.json",
                       tmp / f"setup-{k}.log")
        if probe is None:
            return 1
        setups.append(probe["setup_s"])
    child = _spawn(cmd, tmp / "child-result.json", tmp / "child.log")
    if child is None:
        return 1
    setups.append(child["setup_s"])

    sys.path.insert(0, str(ROOT / "src"))
    checker = Checker(args.workload, args.seed)
    attempted = failed = 0
    correct = True
    for k, recs in enumerate(child["rounds"]):
        problems = checker.round_problems(recs)
        for r in recs:
            attempted += 1
            probs = problems.get(r["op"], [])
            if probs:
                failed += 1
                if r["rc"] == 0:        # a wrong answer, not only a failed command
                    correct = False
                for p in probs:
                    print(f"FAILED round {k}: {p}")

    round_times = [sum(r["seconds"] for r in recs) for recs in child["rounds"]]
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"blas_threads={BLAS_THREADS} rounds={len(round_times)} "
          f"round_s={[round(t, 3) for t in round_times]} "
          f"setup_s={[round(t, 3) for t in setups]}")
    if args.trace:
        import tracing
        for p in child["trace"]["problems"]:
            print(f"FAILED {p}")
        correct = correct and not child["trace"]["problems"]
        metrics = {name: {"value": child["trace"]["metrics"][name], "unit": spec[0]}
                   for name, spec in tracing.METRICS.items()}
        print(f"perfbench: trace written to {trace_file.relative_to(ROOT)}")
    else:
        metrics = {
            "wall_s": {"value": statistics.fmean(round_times), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
