"""Measured process of one benchmark run (started by run.py).

Imports numpy and levyap from the checkout's ``src``, resolves the
configuration of every command of the workload, then runs whole rounds of
the workload's commands in process through ``levyap.cli.main``, writing
artifacts under --outdir.  Set-up time is measured from the moment the
parent started this process (--t-spawn, on the shared monotonic clock).
With --setup-only the process stops there: run.py starts such set-up-only
processes to time more cold starts than the one of the measured process.

Untraced runs repeat rounds while the elapsed time plus the last round's
time fits in --seconds (at least one round).  Traced runs make two
untraced rounds and one traced round of the same commands; the traced
round's time minus the second untraced round's is the tracing overhead.

The result goes to --result as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_command(cli, argv: list[str]) -> tuple[int, str]:
    """(exit code, error text) of one levyap command, output captured."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:          # a crash is a failed operation, not a crashed run
        return 1, traceback.format_exc()
    return int(rc or 0), err.getvalue()[-2000:]


def run_round(cli, ops, outdir: Path, k: int) -> list[dict]:
    recs = []
    for name, argv in ops:
        stem = outdir / f"r{k}-{name}"
        t0 = time.perf_counter()
        rc, err = run_command(cli, argv + ["--output", str(stem)])
        seconds = time.perf_counter() - t0
        size = sum(p.stat().st_size for p in (stem.with_suffix(".json"),
                                              stem.with_suffix(".csv"))
                   if p.exists())
        recs.append({"op": name, "rc": rc, "seconds": seconds, "stem": str(stem),
                     "bytes": size, "stderr": err if rc else ""})
    return recs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace-file", required=True)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after the set-up and record only its time")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "levyap" / "__init__.py").is_file():
        print(f"no levyap sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401  (part of the measured set-up)
    from levyap import cli

    import workloads
    ops = workloads.operations(args.workload, args.seed)
    parser = cli.build_parser()
    for _, op_argv in ops:
        cli.resolve_config(parser.parse_args(op_argv))
    setup_s = time.monotonic() - args.t_spawn
    if args.setup_only:
        Path(args.result).write_text(json.dumps({"setup_s": setup_s}))
        return 0

    outdir = Path(args.outdir)
    rounds = []
    trace = None
    if args.trace:
        import tracing
        # round 0 takes the first-call costs, so rounds 1 (plain) and 2
        # (traced) differ only by the tracing
        rounds.append(run_round(cli, ops, outdir, 0))
        rounds.append(run_round(cli, ops, outdir, 1))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            rounds.append(run_round(cli, ops, outdir, 2))
        finally:
            tracer.uninstall()
        times = [sum(r["seconds"] for r in rnd) for rnd in rounds]
        metrics = tracing.layer_metrics(tracer.spans,
                                        sum(r["bytes"] for r in rounds[2]),
                                        times[2] - times[1])
        tracer.write(args.trace_file)
        trace = {"metrics": metrics,
                 "problems": tracing.total_problems(args.workload, tracer.spans,
                                                    metrics)}
    else:
        start = time.perf_counter()
        while True:
            rounds.append(run_round(cli, ops, outdir, len(rounds)))
            last = sum(r["seconds"] for r in rounds[-1])
            if time.perf_counter() - start + last > args.seconds:
                break

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(args.result).write_text(json.dumps({
        "setup_s": setup_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "rounds": rounds,
        "trace": trace,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
