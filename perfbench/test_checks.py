"""Each benchmark check accepts a correct output and rejects a perturbed one.

    python3 -m pytest perfbench/test_checks.py -q

Perturbations are sized against each check's stated tolerance: several
stderr for the statistical checks, a few percent for the deterministic
ones.  The Duffing and tracing tests run the program on tiny inputs.
"""

import contextlib
import copy
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from levyap import cli  # noqa: E402

CSV = checks.SCHEMA_LINE + "\nheader\n"


def estimate(value, stderr, n, **extra):
    """Payload entry whose replicates aggregate exactly to value +- stderr."""
    z = np.arange(n) - (n - 1) / 2.0
    z /= z.std(ddof=1)
    reps = value + stderr * math.sqrt(n) * z
    return dict(value=float(reps.mean()), stderr=float(reps.std(ddof=1) / math.sqrt(n)),
                per_replicate=reps.tolist(), **extra)


def sweep_payload(scale=1.0, tilt=0.0):
    ests = []
    for e in wl.SWEEP_EPSILONS:
        lam = checks.brownian_oracle(e) * scale * (e / 0.125) ** tilt
        ests.append(estimate(lam, 0.03 * lam, wl.SWEEP_REPLICATES, epsilon=e))
    slope = float(np.polyfit(np.log(wl.SWEEP_EPSILONS),
                             np.log([x["value"] for x in ests]), 1)[0])
    return {"results": {"estimates": ests, "slope": slope}}


def test_oracle_constant():
    assert checks.LAMBDA1 == pytest.approx(0.28930826, abs=5e-9)


def test_sweep_check():
    assert checks.check_sweep(sweep_payload(), CSV) == []
    assert checks.check_sweep(sweep_payload(scale=1.25), CSV)     # 8 stderr off
    assert checks.check_sweep(sweep_payload(tilt=0.15), CSV)      # slope 0.82
    bad = sweep_payload()
    bad["results"]["slope"] += 0.1                                # not the fit
    assert checks.check_sweep(bad, CSV)
    bad = sweep_payload()
    bad["results"]["estimates"][2]["value"] *= 1.02               # not the mean
    assert checks.check_sweep(bad, CSV)
    assert checks.check_sweep(sweep_payload(), "no schema\n")


def test_triangle_check():
    ref = 0.0998722
    se = 0.005

    def mc(value):
        return {"results": {"direct": estimate(value, se, wl.TRIANGLE_REPLICATES)}}

    assert checks.check_triangle("direct", mc(ref + 2 * se), CSV, ref) == []
    assert checks.check_triangle("direct", mc(ref + 7 * se), CSV, ref)

    def fp(value, residual=1e-12):
        return {"results": {"fpcircle": {"value": value, "fp_residual": residual}}}

    assert checks.check_triangle("fpcircle", fp(ref * (1 - 1e-4)), CSV, ref) == []
    assert checks.check_triangle("fpcircle", fp(ref * 1.02), CSV, ref)
    assert checks.check_triangle("fpcircle", fp(ref, residual=1e-6), CSV, ref)


def fp_payload(n, density=None, residual=1e-11):
    density = np.full(n, 1.0 / (2.0 * math.pi)) if density is None else density
    rows = [checks.SCHEMA_LINE, "theta,mu"] + [
        f"{2.0 * math.pi * k / n!r},{float(m)!r}" for k, m in enumerate(density)]
    return ({"results": {"grid_n": n, "lambda": 0.06, "residual": residual,
                         "clipped_mass": 0.0}}, "\n".join(rows) + "\n")


def test_fp_op_check():
    assert checks.check_fp_op(*fp_payload(64), 64) == []
    assert checks.check_fp_op(*fp_payload(64, residual=1e-6), 64)
    assert checks.check_fp_op(*fp_payload(64, np.full(64, 1.02 / (2 * math.pi))), 64)
    assert checks.check_fp_op(*fp_payload(64), 128)


def test_fp_refinement_check():
    exact = checks.brownian_oracle(wl.FP_EPSILON)
    lams = {n: exact + 50.0 / n ** 2 for n in wl.FP_GRIDS}
    explicit = {n: 600.0 / n ** 2 for n in wl.FP_GRIDS}
    assert checks.check_fp_refinement("brownian", lams, explicit) == []
    off = dict(lams)
    off[2048] *= 1.02
    assert checks.check_fp_refinement("brownian", off, explicit)
    shifted = {n: v * (1 + 1e-7) for n, v in lams.items()}       # Richardson off
    assert checks.check_fp_refinement("brownian", shifted, explicit)
    stalled = {**explicit, 2048: explicit[1024]}
    assert checks.check_fp_refinement("brownian", lams, stalled)
    jumps = {n: 0.1 - 50.0 / n ** 2.17 for n in wl.FP_GRIDS}     # ratio 4.5
    assert checks.check_fp_refinement("jumps", jumps, explicit) == []
    first_order = {n: 0.1 - 5.0 / n for n in wl.FP_GRIDS}         # ratio 2
    assert checks.check_fp_refinement("jumps", first_order, explicit)


def run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def duffing_artifact(tmp_path, seed, horizon, leg=0):
    name, argv = wl.operations("duffing-generic", seed)[leg]
    argv = list(argv)
    argv[argv.index("--horizon") + 1] = repr(horizon)
    stem = tmp_path / name
    assert run_cli(argv + ["--output", str(stem)]) == 0
    return json.loads(stem.with_suffix(".json").read_text()), \
        stem.with_suffix(".csv").read_text()


def test_duffing_reference_integrator(tmp_path):
    payload, csv_text = duffing_artifact(tmp_path, seed=5, horizon=0.4)
    assert checks.check_duffing_direct(payload, csv_text, seed=5) == []
    assert checks.check_duffing_direct(payload, csv_text, seed=6)  # other streams
    bad = copy.deepcopy(payload)
    est = bad["results"]["direct"]
    est["per_replicate"] = [v * (1 + 1e-6) for v in est["per_replicate"]]
    est["value"] = float(np.mean(est["per_replicate"]))
    est["stderr"] = float(np.std(est["per_replicate"], ddof=1) / math.sqrt(2))
    assert checks.check_duffing_direct(bad, csv_text, seed=5)


def test_duffing_khasminskii_reference(tmp_path):
    payload, csv_text = duffing_artifact(tmp_path, seed=5, horizon=0.05, leg=1)
    assert checks.check_duffing_khasminskii(payload, csv_text, seed=5) == []
    assert checks.check_duffing_khasminskii(payload, csv_text, seed=6)
    bad = copy.deepcopy(payload)
    est = bad["results"]["khasminskii"]
    est["per_replicate"] = [v + 1e-3 for v in est["per_replicate"]]
    est["value"] = float(np.mean(est["per_replicate"]))
    assert checks.check_duffing_khasminskii(bad, csv_text, seed=5)


def test_duffing_compensator():
    from levyap.estimators import compute_Irho
    from levyap.noise import NoiseModel
    from levyap.systems import make_duffing

    measure = checks.jump_measure()
    (x, theta), = checks.orbit_points(seed=1, count=1)
    got = compute_Irho(make_duffing(wl.SIGMA), measure, x, theta,
                       wl.DUFFING_EPSILON, noise=NoiseModel(measure=measure))
    ref, scale = checks.duffing_irho_closed_form(x, theta)
    assert checks.irho_problems(got, ref, scale, "irho") == []
    assert checks.irho_problems(got * 1.02, ref, scale, "irho")
    assert checks.check_duffing_irho(seed=2) == []


@pytest.mark.parametrize("workload, horizons", [
    ("shear-sweep", {"sweep": 20.0}),
    ("duffing-generic", {"direct": 0.3, "khasminskii": 0.03})])
def test_trace_totals(tmp_path, workload, horizons):
    tracer = tracing.Tracer()
    originals = {"main": cli.main, "sample_block": sys.modules["levyap.marcus"].sample_block}
    tracer.install()
    try:
        for name, argv in wl.operations(workload, 3):
            argv = list(argv)
            argv[argv.index("--horizon") + 1] = repr(horizons[name])
            assert cli.main is not originals["main"]
            assert run_cli(argv + ["--output", str(tmp_path / name)]) == 0
    finally:
        tracer.uninstall()
    assert cli.main is originals["main"]
    assert sys.modules["levyap.marcus"].sample_block is originals["sample_block"]
    metrics = tracing.layer_metrics(tracer.spans, 0, 0.0)
    assert set(metrics) == set(tracing.METRICS)
    assert tracing.total_problems(workload, tracer.spans, metrics) == []
    if workload == "shear-sweep":
        assert metrics["noise.gauss_draws"] == metrics["lanes.direct.lane_steps"] > 0
        off_by_one = dict(metrics, **{"lanes.direct.lane_steps":
                                      metrics["lanes.direct.lane_steps"] + 1})
    else:
        assert metrics["marcus.jumps_applied"] > 0
        assert metrics["frame.irho_generic.calls"] > 0
        off_by_one = dict(metrics, **{"marcus.jumps_applied":
                                      metrics["marcus.jumps_applied"] + 1})
    assert tracing.total_problems(workload, tracer.spans, off_by_one)
    spans = tracer.spans
    assert all(s[3] < i for i, s in enumerate(spans))            # parents first
    assert all(s[1] <= s[2] for s in spans)
