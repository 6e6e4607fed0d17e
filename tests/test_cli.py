import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from levyap.cli import CONFIG_SCHEMA, load_config_file, main
from levyap.errors import ConfigError


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


def test_workers_do_not_change_artifacts(tmp_path, capsys):
    base = ["lyapunov", "--method", "direct,khasminskii", "--horizon", "30",
            "--replicates", "8", "--epsilon", "0.2", "--seed", "12",
            "--floor-delta", "0.05"]
    blobs = {}
    for workers in (1, 4):
        out = tmp_path / f"w{workers}"
        run_cli(base + ["--workers", str(workers), "--output", str(out)])
        blobs[workers] = (out.with_suffix(".json").read_bytes(),
                          out.with_suffix(".csv").read_bytes())
    assert blobs[1] == blobs[4]


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
    lines = (tmp_path / "dens.csv").read_text().splitlines()
    assert lines[1] == "theta,mu"
    assert len(lines) == 2 + 128
    mu = np.array([float(l.split(",")[1]) for l in lines[2:]])
    assert mu.sum() * 2 * math.pi / 128 == pytest.approx(1.0, rel=1e-9)


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
                                  ["--replicates", "0"]])
def test_lyapunov_bad_run_values_usage_error(args, monkeypatch, capsys):
    def no_work(*_args, **_kwargs):
        raise AssertionError("an estimator ran on a refused configuration")

    monkeypatch.setattr("levyap.cli.lyapunov_direct", no_work)
    assert run_cli(["lyapunov", "--replicates", "2"] + args) == 2
    assert capsys.readouterr().err.startswith("config error:")


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


def test_failed_replicate_is_written_as_null(tmp_path, capsys, monkeypatch):
    from levyap.estimators import LyapunovEstimate

    def one_failed(_system, _noise, epsilon, cfg):
        return LyapunovEstimate(0.25, 0.05, "direct", epsilon, cfg.beta,
                                cfg.horizon, 3, cfg.renorm_interval,
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


def test_cli_import_leaves_scipy_out():
    code = ("import sys, levyap.cli; "
            "sys.exit(1 if any(m == 'scipy' or m.startswith('scipy.') "
            "for m in sys.modules) else 0)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert proc.returncode == 0, proc.stderr
