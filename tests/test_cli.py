import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from levyap._lanes import shear_angle_lanes
from levyap.cli import CONFIG_SCHEMA, load_config_file, main
from levyap.errors import ConfigError
from levyap.marcus import StepperConfig
from levyap.noise import JumpMeasureSpec, NoiseModel, jump_moment
from levyap.systems import make_duffing, make_nilpotent
from oracles import array_fields, array_integrate, shear_exponent


def run_cli(args):
    return main(list(args))


def test_defaults_lists_every_key(capsys):
    assert run_cli(["defaults"]) == 0
    out = capsys.readouterr().out
    for key in CONFIG_SCHEMA:
        assert key in out


def test_unknown_config_key_rejected(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("noise.alpha = 1.5\nrun.turbo = yes\n")
    with pytest.raises(ConfigError) as err:
        load_config_file(str(bad))
    assert "bad.cfg:2" in str(err.value)
    assert "run.turbo" in str(err.value)


def test_malformed_config_line(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("run.epsilon 0.2\n")
    with pytest.raises(ConfigError) as err:
        load_config_file(str(bad))
    assert ":1" in str(err.value)


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nrun.epsilon = 0.25\nnoise.brownian = off\n")
    loaded = load_config_file(str(cfg))
    assert loaded == {"run.epsilon": 0.25, "noise.brownian": False}


def test_simulate_zero_horizon_header_only(tmp_path, capsys):
    out = tmp_path / "run"
    rc = run_cli(["simulate", "--horizon", "0", "--output", str(out)])
    assert rc == 0
    lines = (tmp_path / "run.csv").read_text().splitlines()
    assert lines[0].startswith("# levyap-schema")
    assert lines[1] == "t,x1,x2,theta,rho"
    assert len(lines) == 2


def test_simulate_deterministic_bytes(tmp_path, capsys):
    args = ["simulate", "--horizon", "2", "--epsilon", "0.2", "--seed", "42",
            "--record-stride", "50"]
    run_cli(args + ["--output", str(tmp_path / "a")])
    run_cli(args + ["--output", str(tmp_path / "b")])
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    a = json.loads((tmp_path / "a.json").read_text())
    b = json.loads((tmp_path / "b.json").read_text())
    assert a == b
    assert "runtime" not in json.dumps(a)


@pytest.mark.parametrize("system", ["nilpotent", "duffing"])
def test_simulate_rows_match_numpy_oracle(system, tmp_path, capsys):
    """simulate's rows agree to rounding with the numpy stepper of
    tests/oracles.py on the same stream."""
    x0 = (1.0, 0.5) if system == "nilpotent" else (1.0, 0.0)
    out = tmp_path / system
    assert run_cli(["simulate", "--system", system, "--horizon", "2",
                    "--epsilon", "0.2", "--seed", "42", "--floor-delta", "0.05",
                    "--record-stride", "50", "--output", str(out)]) == 0
    got = np.loadtxt(out.with_suffix(".csv"), delimiter=",", skiprows=2)
    model = make_nilpotent(1.0, 1.0) if system == "nilpotent" else make_duffing(1.0)
    noise = NoiseModel(measure=JumpMeasureSpec(alpha=1.5, c_alpha=1.0,
                                               cutoff_c=1.0, floor_delta=0.05))
    rows = [[0.0, *x0]]

    def observer(state):
        if round(state.t / 1e-3) % 50 == 0:
            rows.append([state.t, *state.x])

    array_integrate(array_fields(model, 0.2), noise, x0, 2.0,
                    StepperConfig(dt=1e-3, tol_crit=model.tol_crit),
                    (42, 0), observer=observer)
    want = np.array(rows)
    if system == "nilpotent":
        want = np.column_stack([want, np.arctan2(want[:, 2], want[:, 1]),
                                np.log(np.hypot(want[:, 1], want[:, 2]))])
    assert got.shape == want.shape == (41, 5 if system == "nilpotent" else 3)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_simulate_duffing_conserves_energy(tmp_path, capsys):
    out = tmp_path / "duf"
    rc = run_cli(["simulate", "--system", "duffing", "--epsilon", "0",
                  "--horizon", "20", "--x0", "1,0", "--record-stride", "10",
                  "--output", str(out)])
    assert rc == 0
    rows = (tmp_path / "duf.csv").read_text().splitlines()[2:]
    data = np.array([[float(v) for v in r.split(",")] for r in rows])
    h = 0.5 * data[:, 1] ** 2 + 0.25 * data[:, 1] ** 4 + 0.5 * data[:, 2] ** 2
    assert np.abs(h - 0.75).max() <= 1e-6


def test_lyapunov_json_fields(tmp_path, capsys):
    out = tmp_path / "lyap"
    rc = run_cli(["lyapunov", "--method", "direct", "--horizon", "20",
                  "--replicates", "4", "--epsilon", "0.2", "--seed", "3",
                  "--floor-delta", "0.05", "--output", str(out)])
    assert rc == 0
    payload = json.loads((tmp_path / "lyap.json").read_text())
    res = payload["results"]["direct"]
    assert set(["value", "stderr", "restarts", "replicates"]) <= set(res)
    assert res["stderr"] > 0
    assert len(res["per_replicate"]) == 4
    csv_lines = (tmp_path / "lyap.csv").read_text().splitlines()
    assert csv_lines[1] == "method,kind,index,value,stderr"
    assert sum(1 for l in csv_lines if ",replicate," in l) == 4


def test_lyapunov_fpcircle_reports_residual(tmp_path, capsys):
    out = tmp_path / "fp"
    rc = run_cli(["lyapunov", "--method", "fpcircle", "--epsilon", "0.1",
                  "--floor-delta", "0.05", "--grid-n", "128",
                  "--output", str(out)])
    assert rc == 0
    payload = json.loads((tmp_path / "fp.json").read_text())
    assert "fp_residual" in payload["results"]["fpcircle"]
    assert payload["results"]["fpcircle"]["fp_residual"] < 1e-6
    # kappa_1 of the bordered circle system, far below the refusal limit
    assert 1e2 < payload["results"]["fpcircle"]["fp_condition"] < 1e6


def test_lyapunov_cross_method_agreement_exit_code(tmp_path, capsys):
    out = tmp_path / "two"
    rc = run_cli(["lyapunov", "--method", "direct,fpcircle", "--epsilon", "0.1",
                  "--horizon", "400", "--replicates", "8", "--seed", "11",
                  "--floor-delta", "0.05", "--grid-n", "256",
                  "--output", str(out)])
    payload = json.loads((tmp_path / "two.json").read_text())
    assert payload["agreement"]["ok"] == (rc == 0)
    assert rc == 0


def test_sweep_empty_epsilons_usage_error(tmp_path, capsys):
    assert run_cli(["sweep", "--output", str(tmp_path / "nope")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "sweep.epsilons" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("epsilons", ["0.1,0.2,0.4", "0.1,0.3,0.2,0.5",
                                      "0.1,0.12,0.14,0.2", "0.1,abc,0.3,0.5",
                                      "0.5,1,2,4"])
def test_sweep_bad_epsilon_list_usage_error(epsilons, monkeypatch, capsys):
    import levyap.cli as cli

    def no_runtime(cfg):
        raise AssertionError("the epsilon list is checked before any set-up")

    monkeypatch.setattr(cli, "build_runtime", no_runtime)
    assert run_cli(["sweep", "--epsilons", epsilons]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "sweep.epsilons" in err


def test_sweep_stub_like_artifacts(tmp_path, capsys):
    out = tmp_path / "sweep"
    rc = run_cli(["sweep", "--epsilons", "0.05,0.1,0.2,0.4", "--horizon", "60",
                  "--replicates", "4", "--seed", "8", "--c-alpha", "0",
                  "--output", str(out)])
    assert rc == 0
    payload = json.loads((tmp_path / "sweep.json").read_text())
    assert "slope" in payload["results"]
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[1] == "epsilon,lambda,stderr,method"
    assert len(lines) == 6


def test_config_round_trip(tmp_path, capsys):
    out1 = tmp_path / "first"
    args = ["lyapunov", "--method", "direct", "--horizon", "10",
            "--replicates", "2", "--epsilon", "0.15", "--seed", "5",
            "--floor-delta", "0.05"]
    run_cli(args + ["--output", str(out1)])
    out2 = tmp_path / "second"
    rc = run_cli(["lyapunov", "--config", str(tmp_path / "first.json"),
                  "--output", str(out2)])
    assert rc == 0
    a = json.loads((tmp_path / "first.json").read_text())
    b = json.loads((tmp_path / "second.json").read_text())
    assert a["results"] == b["results"]
    assert a["config"] == b["config"]


def test_config_with_removed_fp_variant_key_refused(tmp_path, capsys):
    """An artifact's config block that still carries fp.variant is refused as
    an unknown key before any work; without that line it runs."""
    stem = tmp_path / "fp"
    assert run_cli(["fp-solve", "--floor-delta", "0.05", "--grid-n", "64",
                    "--output", str(stem)]) == 0
    payload = json.loads(stem.with_suffix(".json").read_text())
    old = tmp_path / "old.json"
    old.write_text(json.dumps({"config": dict(payload["config"],
                                              **{"fp.variant": "plain"})}))
    capsys.readouterr()
    assert run_cli(["fp-solve", "--config", str(old)]) == 2
    assert "unknown key 'fp.variant'" in capsys.readouterr().err
    assert run_cli(["fp-solve", "--config", str(stem.with_suffix(".json"))]) == 0


@pytest.mark.parametrize("name,text", [("missing.cfg", None),
                                       ("truncated.json", '{"config": {"run.seed": 1'),
                                       ("list.json", '["run.seed", 1]'),
                                       ("block.json", '{"config": [1]}')],
                         ids=["missing", "truncated", "list", "block"])
def test_unreadable_config_file_usage_error(name, text, tmp_path, capsys):
    """A config file that cannot be read, that is not JSON, or whose top
    level or config block is not an object is a usage error (exit 2)."""
    path = tmp_path / name
    if text is not None:
        path.write_text(text)
    assert run_cli(["fp-solve", "--grid-n", "64", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {path}:")


def test_workers_do_not_change_artifacts(tmp_path, capsys):
    base = ["lyapunov", "--method", "direct,khasminskii", "--horizon", "30",
            "--replicates", "8", "--epsilon", "0.2", "--seed", "12",
            "--floor-delta", "0.05"]
    duffing = ["lyapunov", "--system", "duffing", "--method", "direct",
               "--horizon", "2", "--replicates", "4", "--epsilon", "0.1",
               "--seed", "3", "--floor-delta", "0.05"]
    sweep = ["sweep", "--epsilons", "0.05,0.1,0.2,0.4", "--horizon", "5",
             "--replicates", "3", "--seed", "7", "--floor-delta", "0.05"]
    theorem33 = ["lyapunov", "--method", "theorem33", "--horizon", "10",
                 "--replicates", "3", "--epsilon", "0.1", "--seed", "5",
                 "--floor-delta", "0.05"]
    for i, (args, counts) in enumerate(((base, (1, 4)), (duffing, (1, 2)),
                                        (sweep, (1, 2)), (theorem33, (1, 2)))):
        blobs = {}
        for workers in counts:
            out = tmp_path / f"run{i}-w{workers}"
            assert run_cli(args + ["--workers", str(workers), "--output", str(out)]) == 0
            blobs[workers] = (out.with_suffix(".json").read_bytes(),
                              out.with_suffix(".csv").read_bytes())
        assert blobs[counts[0]] == blobs[counts[1]]


@pytest.mark.parametrize("args,header", [
    (["lyapunov", "--method", "direct,khasminskii", "--horizon", "2",
      "--replicates", "2"], "method,kind,index,value,stderr"),
    (["sweep", "--epsilons", "0.05,0.1,0.2,0.4", "--horizon", "5",
      "--replicates", "2"], "epsilon,lambda,stderr,method"),
    (["simulate", "--horizon", "1"], "t,x1,x2,theta,rho"),
    (["fp-solve", "--grid-n", "64"], "theta,mu"),
], ids=["lyapunov", "sweep", "simulate", "fp-solve"])
def test_artifacts_match_stdout_summary(args, header, tmp_path, capsys):
    """Every command writes its JSON as the stdout summary less the runtime,
    which only the timed commands report, and its CSV under the schema line
    and the command's header."""
    out = tmp_path / "run"
    assert run_cli(args + ["--seed", "3", "--floor-delta", "0.05",
                           "--output", str(out)]) == 0
    captured = capsys.readouterr()
    summary = json.loads(captured.out)
    timed = args[0] in ("lyapunov", "sweep")
    assert ("runtime_seconds" in summary) == timed
    assert captured.err.startswith("runtime:") == timed
    summary.pop("runtime_seconds", None)
    assert json.loads(out.with_suffix(".json").read_text()) == summary
    lines = out.with_suffix(".csv").read_text().splitlines()
    assert lines[:2] == ["# levyap-schema v1", header]
    assert len(lines) > 2


def test_fp_solve_artifacts(tmp_path, capsys):
    out = tmp_path / "dens"
    rc = run_cli(["fp-solve", "--epsilon", "0.1", "--floor-delta", "0.05",
                  "--grid-n", "128", "--output", str(out)])
    assert rc == 0
    payload = json.loads((tmp_path / "dens.json").read_text())
    res = payload["results"]
    assert res["residual"] < 1e-6
    assert res["explicit_adjoint_residual"] is not None
    assert "lambda" in res
    assert 1e2 < res["condition"] < 1e6
    lines = (tmp_path / "dens.csv").read_text().splitlines()
    assert lines[1] == "theta,mu"
    assert len(lines) == 2 + 128
    mu = np.array([float(l.split(",")[1]) for l in lines[2:]])
    assert mu.sum() * 2 * math.pi / 128 == pytest.approx(1.0, rel=1e-9)


def test_fp_solve_pw_ignores_beta(capsys):
    """The growth rate and the PW limit of fp-solve do not read run.beta:
    the circle solve is unscaled and the PW limit is taken at the standard
    rescaling."""
    results = []
    for beta in ([], ["--beta", "0.5"]):
        assert run_cli(["fp-solve", "--floor-delta", "0.05",
                        "--grid-n", "128"] + beta) == 0
        results.append(json.loads(capsys.readouterr().out)["results"])
    for key in ("lambda", "pw_limit", "explicit_adjoint_residual"):
        assert results[0][key] == results[1][key]


@pytest.mark.parametrize("brownian", ["true", "false"])
def test_pw_limit_fields_match_closed_form(brownian, capsys):
    """fp-solve reports pw_limit and --method fpcircle fp_pw_limit, both the
    closed form lambda_1 (a eps sigma sqrt(b + m2))^(2/3); no fp.variant key
    is left in the config."""
    measure = JumpMeasureSpec(alpha=1.5, c_alpha=0.8, cutoff_c=1.0,
                              floor_delta=0.05)
    rate = (brownian == "true") + jump_moment(measure, 2.0, 0.05, 1.0)
    want = shear_exponent(1.3, 0.07, 0.7, rate=rate)
    model = ["--a", "1.3", "--sigma", "0.7", "--epsilon", "0.07", "--c-alpha",
             "0.8", "--floor-delta", "0.05", "--brownian", brownian,
             "--grid-n", "64"]
    assert run_cli(["fp-solve"] + model) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "fp.variant" not in payload["config"]
    assert "variant" not in payload["results"]
    assert payload["results"]["pw_limit"] == pytest.approx(want, rel=1e-14, abs=0.0)
    assert run_cli(["lyapunov", "--method", "fpcircle"] + model) == 0
    est = json.loads(capsys.readouterr().out)["results"]["fpcircle"]
    assert est["fp_pw_limit"] == pytest.approx(want, rel=1e-14, abs=0.0)


def test_lyapunov_theorem33_method(tmp_path, capsys):
    out = tmp_path / "thm"
    rc = run_cli(["lyapunov", "--method", "theorem33", "--epsilon", "0.1",
                  "--horizon", "30", "--replicates", "4", "--seed", "2",
                  "--floor-delta", "0.05", "--output", str(out)])
    assert rc == 0
    payload = json.loads((tmp_path / "thm.json").read_text())
    assert payload["results"]["theorem33"]["value"] > 0


def test_simulate_logs_exit_events(tmp_path, capsys):
    out = tmp_path / "exit"
    rc = run_cli(["simulate", "--system", "duffing", "--x0", "0,0",
                  "--horizon", "5", "--epsilon", "0.1", "--output", str(out)])
    assert rc == 0
    payload = json.loads((tmp_path / "exit.json").read_text())
    assert payload["results"]["exit"] == {"t": 0.0, "flag": "critical-point"}


def test_console_entry_point():
    exe = shutil.which("levyap")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "defaults"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "run.epsilon" in proc.stdout


def test_lyapunov_theorem33_refused_on_duffing_before_work(monkeypatch, capsys):
    def no_work(*_args, **_kwargs):
        raise AssertionError("an estimator ran before the method check")

    monkeypatch.setattr("levyap.cli.lyapunov_direct", no_work)
    rc = run_cli(["lyapunov", "--system", "duffing", "--method", "direct,theorem33",
                  "--horizon", "0.02", "--replicates", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and "theorem33" in err


@pytest.mark.parametrize("args", [["--epsilon", "1.5"], ["--horizon", "-1"],
                                  ["--horizon", "0.0004"],
                                  ["--horizon", "0.003", "--burn-in", "0.9"],
                                  ["--dt", "0"], ["--dt", "nan"],
                                  ["--replicates", "0"],
                                  ["--method", "khasminskii", "--beta", "5"],
                                  ["--beta", "nan"], ["--beta", "-0.1"]])
def test_lyapunov_bad_run_values_usage_error(args, monkeypatch, capsys):
    def no_work(*_args, **_kwargs):
        raise AssertionError("an estimator ran on a refused configuration")

    monkeypatch.setattr("levyap.cli.lyapunov_direct", no_work)
    assert run_cli(["lyapunov", "--replicates", "2"] + args) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("args", [["lyapunov", "--a", "0"],
                                  ["lyapunov", "--sigma", "-1"],
                                  ["lyapunov", "--alpha", "2.5"],
                                  ["lyapunov", "--cutoff-c", "0"],
                                  ["simulate", "--dt", "0"],
                                  ["lyapunov", "--floor-delta", "0"],
                                  ["simulate", "--floor-delta", "0"],
                                  ["lyapunov", "--c-alpha", "-1"],
                                  ["lyapunov", "--ar-threshold", "-1"],
                                  ["fp-solve", "--floor-delta", "0", "--ar-threshold", "0.1"],
                                  ["lyapunov", "--method", "fpcircle", "--floor-delta", "0",
                                   "--ar-threshold", "0.1"],
                                  ["fp-solve", "--grid-n", "15"],
                                  ["lyapunov", "--method", "fpcircle", "--grid-n", "15"],
                                  ["lyapunov", "--x0", "a,b"],
                                  ["lyapunov", "--system", "duffing", "--x0", "nan,0"],
                                  ["lyapunov", "--system", "duffing", "--x0", "0,0"],
                                  ["simulate", "--x0", "1,inf"],
                                  ["simulate", "--x0", "1,2,3"],
                                  ["sweep", "--epsilons", "0.05,0.1,0.2,0.4",
                                   "--beta", "1.5"],
                                  ["fp-solve", "--beta", "nan", "--grid-n", "64"],
                                  ["fp-solve", "--epsilon", "-0.1", "--grid-n", "64"],
                                  ["fp-solve", "--epsilon", "nan", "--grid-n", "64"],
                                  ["fp-solve", "--epsilon", "inf", "--grid-n", "64"],
                                  ["fp-solve", "--epsilon", "0", "--grid-n", "64"],
                                  ["lyapunov", "--method", "fpcircle", "--epsilon", "0",
                                   "--grid-n", "64"],
                                  ["fp-solve", "--brownian", "false", "--c-alpha", "0",
                                   "--grid-n", "64"],
                                  ["lyapunov", "--method", "fpcircle", "--brownian", "false",
                                   "--c-alpha", "0", "--grid-n", "64"],
                                  ["lyapunov", "--method", "khasminskii", "--floor-delta",
                                   "0.05", "--cutoff-c", "inf"],
                                  ["fp-solve", "--floor-delta", "0.05", "--cutoff-c", "inf",
                                   "--grid-n", "64"],
                                  ["lyapunov", "--floor-delta", "0.05", "--cutoff-c", "inf"],
                                  ["simulate", "--floor-delta", "0.05", "--cutoff-c", "inf"],
                                  ["lyapunov", "--method", "direct,khasminskii", "--c-alpha",
                                   "0", "--a", "nan"],
                                  ["fp-solve", "--c-alpha", "0", "--a", "nan", "--grid-n", "64"],
                                  ["lyapunov", "--method", "direct,khasminskii", "--c-alpha",
                                   "0", "--a", "inf"],
                                  ["lyapunov", "--method", "direct,khasminskii", "--c-alpha",
                                   "0", "--sigma", "nan"],
                                  ["lyapunov", "--method", "direct,khasminskii", "--c-alpha",
                                   "0", "--sigma", "inf"],
                                  ["lyapunov", "--system", "duffing", "--sigma", "nan"],
                                  ["lyapunov", "--c-alpha", "inf"],
                                  ["lyapunov", "--c-alpha", "1e300"],
                                  ["simulate", "--c-alpha", "inf"],
                                  ["simulate", "--c-alpha", "1e300"],
                                  ["simulate", "--c-alpha", "1e12", "--floor-delta", "0.05"],
                                  ["lyapunov", "--c-alpha", "1e12", "--floor-delta", "0.05"],
                                  ["lyapunov", "--method", "direct,direct", "--floor-delta",
                                   "0.05"],
                                  ["lyapunov", "--method", "direct, direct", "--floor-delta",
                                   "0.05"],
                                  ["lyapunov", "--method", "khasminskii,theorem33,khasminskii",
                                   "--floor-delta", "0.05"],
                                  ["lyapunov", "--method", "fpcircle,fpcircle", "--floor-delta",
                                   "0.05", "--grid-n", "64"],
                                  ["lyapunov", "--workers", "0", "--floor-delta", "0.05"],
                                  ["lyapunov", "--workers", "-3", "--floor-delta", "0.05"],
                                  ["sweep", "--epsilons", "0.05,0.1,0.2,0.4", "--workers", "0",
                                   "--floor-delta", "0.05"],
                                  ["fp-solve", "--workers", "0", "--grid-n", "64"],
                                  ["simulate", "--workers", "-3", "--floor-delta", "0.05"],
                                  ["simulate", "--record-stride", "0", "--floor-delta", "0.05"],
                                  ["simulate", "--record-stride", "-5", "--floor-delta",
                                   "0.05"]])
def test_refused_model_values_usage_error(args, tmp_path, capsys):
    out = tmp_path / "refused"
    assert run_cli(args + ["--horizon", "0.01", "--replicates", "1",
                           "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [["fp-solve", "--grid-n", "64"],
                                  ["lyapunov", "--method", "direct,fpcircle",
                                   "--grid-n", "64"],
                                  ["sweep", "--epsilons", "0.05,0.1,0.2,0.4"],
                                  ["simulate"]])
def test_missing_output_directory_refused_before_work(args, tmp_path,
                                                      monkeypatch, capsys):
    import levyap.cli as cli

    def no_work(*_args, **_kw):
        raise AssertionError("the output directory is checked before any work")

    for name in ("_fp_solve", "lyapunov_direct", "scaling_sweep", "integrate"):
        monkeypatch.setattr(cli, name, no_work)
    out = tmp_path / "missing" / "o"
    assert run_cli(args + ["--horizon", "0.01", "--output", str(out)]) == 2
    assert "output.path" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("horizon", ["-1", "nan", "inf"])
def test_simulate_bad_horizon_usage_error(horizon, tmp_path, capsys):
    # horizon 0 is allowed: test_simulate_zero_horizon_header_only
    out = tmp_path / "refused"
    assert run_cli(["simulate", "--horizon", horizon, "--output", str(out)]) == 2
    assert "run.horizon" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_epsilon_refused_before_any_set_up(monkeypatch, capsys):
    import levyap.cli as cli

    def no_model(cfg):
        raise AssertionError("run.epsilon is checked before any set-up")

    monkeypatch.setattr(cli, "build_runtime", no_model)
    monkeypatch.setattr(cli, "_build_model", no_model)
    assert run_cli(["lyapunov", "--epsilon", "1.5"]) == 2
    assert run_cli(["simulate", "--epsilon", "1", "--output", "unused"]) == 2
    assert "run.epsilon" in capsys.readouterr().err


def test_lyapunov_khasminskii_writes_martingale_rate(tmp_path, capsys):
    out = tmp_path / "khas"
    rc = run_cli(["lyapunov", "--method", "khasminskii", "--epsilon", "0.1",
                  "--horizon", "5", "--replicates", "3", "--seed", "4",
                  "--floor-delta", "0.05", "--output", str(out)])
    assert rc == 0
    rate = json.loads((tmp_path / "khas.json").read_text())["results"][
        "khasminskii"]["martingale_rate"]
    assert len(rate) == 2 and all(math.isfinite(v) for v in rate)
    assert rate[1] > 0.0


def test_khasminskii_and_theorem33_share_one_angle_pass(tmp_path, capsys,
                                                         monkeypatch):
    """Run together, the two methods read one pass of the angle lanes, and
    each writes the entries it writes when run alone."""
    import levyap.estimators as est

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return shear_angle_lanes(*args, **kwargs)

    monkeypatch.setattr(est, "shear_angle_lanes", counted)
    args = ["lyapunov", "--epsilon", "0.1", "--horizon", "3", "--replicates", "3",
            "--seed", "6", "--floor-delta", "0.05"]
    results = {}
    for methods in ("khasminskii,theorem33", "khasminskii", "theorem33"):
        calls.clear()
        out = tmp_path / methods.replace(",", "_")
        assert run_cli(args + ["--method", methods, "--output", str(out)]) in (0, 1)
        assert len(calls) == 1, methods
        results[methods] = json.loads(out.with_suffix(".json").read_text())["results"]
    both = results["khasminskii,theorem33"]
    for method in ("khasminskii", "theorem33"):
        assert json.dumps(both[method], sort_keys=True) == \
            json.dumps(results[method][method], sort_keys=True)


def test_failed_replicate_is_written_as_null(tmp_path, capsys, monkeypatch):
    from levyap.estimators import LyapunovEstimate

    def one_failed(_system, _noise, epsilon, cfg):
        return LyapunovEstimate(0.25, 0.05, "direct", epsilon, cfg.beta,
                                cfg.horizon, 3,
                                per_replicate=[0.2, math.nan, 0.3], exits=1)

    monkeypatch.setattr("levyap.cli.lyapunov_direct", one_failed)
    out = tmp_path / "failed"
    rc = run_cli(["lyapunov", "--system", "duffing", "--replicates", "3",
                  "--output", str(out)])
    assert rc == 0

    def reject(name):
        raise ValueError(f"invalid JSON constant {name}")

    for text in ((tmp_path / "failed.json").read_text(),
                 capsys.readouterr().out):
        payload = json.loads(text, parse_constant=reject)
        assert payload["results"]["direct"]["per_replicate"] == [0.2, None, 0.3]


def _modules_after_cli_import():
    code = "import sys, levyap.cli; print(*sys.modules, sep='\\n')"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_cli_import_leaves_scipy_out():
    assert not any(m == "scipy" or m.startswith("scipy.")
                   for m in _modules_after_cli_import())


def test_cli_import_leaves_process_pool_out():
    """The worker pool (and with it multiprocessing, socket and logging) is
    imported only by a run split over more than one worker."""
    assert "concurrent.futures.process" not in _modules_after_cli_import()
