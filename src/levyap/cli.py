"""Command-line front end.

Subcommands: simulate | lyapunov | sweep | fp-solve | defaults.  Flags
mirror the configuration keys; a flat ``key = value`` config file (or the
``config`` block of an emitted JSON summary) can be passed with --config,
with explicit flags taking precedence.  Exit codes: 0 success, 1 runtime
failure (including cross-method disagreement), 2 usage.

All file artifacts are deterministic for a fixed configuration: floats are
written with 17 significant digits, JSON keys are sorted, and no wall-clock
data is embedded (runtimes go to stderr only).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .errors import ConfigError, InvalidParameter, LevyapError
from .estimators import (EstimatorConfig, LyapunovEstimate,
                         check_sweep_epsilons, lyapunov_direct,
                         lyapunov_khasminskii, lyapunov_theorem33_estimate,
                         scaling_sweep)
from .fpcircle import (CircleGrid, build_generator, explicit_adjoint_residual,
                       lyapunov_quadrature, solve_stationary)
from .marcus import StepperConfig, check_epsilon, integrate
from .noise import JumpMeasureSpec, NoiseModel
from .systems import make_duffing, make_nilpotent

SCHEMA = "levyap-schema v1"

# key -> (type, default, help)
CONFIG_SCHEMA = {
    "system.name": (str, "nilpotent", "nilpotent | duffing"),
    "system.a": (float, 1.0, "shear parameter of the nilpotent system"),
    "system.sigma": (float, 1.0, "noise coupling strength"),
    "noise.alpha": (float, 1.5, "stability index in (0, 2)"),
    "noise.c_alpha": (float, 1.0, "jump intensity constant (0 disables jumps)"),
    "noise.cutoff_c": (float, 1.0, "large-jump truncation radius"),
    "noise.floor_delta": (float, 1e-3, "small-jump floor"),
    "noise.brownian": (bool, True, "include the Brownian part"),
    "noise.ar_small_jumps": (bool, False,
                             "Gaussian substitute for dropped jumps below the floor"),
    "noise.ar_threshold": (float, 0.0,
                           "Gaussian substitute for jumps below this magnitude"),
    "run.epsilon": (float, 0.1, "perturbation scale"),
    "run.beta": (float, 2.0 / 3.0, "rescaling exponent"),
    "run.dt": (float, 1e-3, "time step"),
    "run.horizon": (float, 1000.0, "integration horizon per replicate"),
    "run.burn_in": (float, 0.1, "burn-in fraction excluded from averages"),
    "run.replicates": (int, 16, "independent replicates"),
    "run.seed": (int, 0, "64-bit master seed"),
    "run.method": (str, "direct",
                   "comma list of direct|khasminskii|theorem33|fpcircle"),
    "run.renorm_interval": (int, 10, "steps between tangent renormalizations"),
    "run.workers": (int, 1, "worker processes for replicate execution"),
    "run.record_stride": (int, 100, "steps between recorded trajectory rows"),
    "run.x0": (str, "", "initial point 'x,y' (empty = system default)"),
    "fp.grid_n": (int, 512, "circle grid size"),
    "fp.variant": (str, "plain", "plain | pw"),
    "sweep.epsilons": (str, "", "comma list of epsilon values"),
    "output.path": (str, "", "output stem; <stem>.csv and <stem>.json"),
}

_METHODS = ("direct", "khasminskii", "theorem33", "fpcircle")


def _parse_value(key: str, raw: str):
    typ = CONFIG_SCHEMA[key][0]
    raw = raw.strip()
    if typ is bool:
        low = raw.lower()
        if low in ("true", "on", "1", "yes"):
            return True
        if low in ("false", "off", "0", "no"):
            return False
        raise ConfigError(f"key {key}: expected a boolean, got {raw!r}")
    try:
        return typ(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key}: {exc}") from exc


def default_config() -> dict:
    return {k: v for k, (_, v, _) in CONFIG_SCHEMA.items()}


def load_config_file(path: str) -> dict:
    """Read a flat key = value file or the config block of a JSON summary."""
    text = Path(path).read_text()
    out = {}
    if path.endswith(".json"):
        data = json.loads(text)
        block = data.get("config", data)
        for key, val in block.items():
            if key not in CONFIG_SCHEMA:
                raise ConfigError(f"{path}: unknown key {key!r}")
            out[key] = _parse_value(key, str(val))
        return out
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = _parse_value(key, raw)
    return out


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _plain(obj):
    """Plain JSON values: numpy scalars and arrays become Python numbers and
    lists, tuples become lists, and non-finite floats (a failed replicate's
    NaN) become None, written as null."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _json_text(payload: dict) -> str:
    return json.dumps(_plain(payload), sort_keys=True, indent=2, allow_nan=False)


def _dump_json(path: Path, payload: dict) -> None:
    path.write_text(_json_text(payload) + "\n")


# execution-only keys: they do not influence results, so they are left out
# of emitted summaries to keep artifacts byte-identical across runs
_VOLATILE_KEYS = ("output.path", "run.workers")


def _jsonable_config(cfg: dict) -> dict:
    return {k: (bool(v) if isinstance(v, (bool, np.bool_)) else v)
            for k, v in cfg.items() if k not in _VOLATILE_KEYS}


def _build_model(cfg: dict):
    """(system, noise) from a resolved flat config."""
    name = cfg["system.name"]
    if name == "nilpotent":
        system = make_nilpotent(cfg["system.a"], cfg["system.sigma"])
    elif name == "duffing":
        system = make_duffing(cfg["system.sigma"])
    else:
        raise ConfigError(f"unknown system {name!r}")
    measure = None
    if cfg["noise.c_alpha"] > 0.0:
        measure = JumpMeasureSpec(alpha=cfg["noise.alpha"],
                                  c_alpha=cfg["noise.c_alpha"],
                                  cutoff_c=cfg["noise.cutoff_c"],
                                  floor_delta=cfg["noise.floor_delta"])
    noise = NoiseModel(measure=measure, brownian=cfg["noise.brownian"],
                       ar_small_jumps=cfg["noise.ar_small_jumps"],
                       ar_threshold=cfg["noise.ar_threshold"])
    return system, noise


def _x0(cfg: dict):
    """The initial point of run.x0, or None for the system default."""
    if not cfg["run.x0"]:
        return None
    parts = cfg["run.x0"].split(",")
    if len(parts) != 2:
        raise ConfigError("run.x0 must be 'x,y'")
    return (float(parts[0]), float(parts[1]))


def _check_run_epsilon(cfg: dict) -> None:
    """Refuse run.epsilon outside [0, 1) before any set-up."""
    try:
        check_epsilon(cfg["run.epsilon"])
    except InvalidParameter as exc:
        raise ConfigError(f"run.epsilon: {exc}") from exc


def build_runtime(cfg: dict):
    """(system, noise, estimator config) from a resolved flat config; a
    value the estimator config refuses is a ConfigError."""
    system, noise = _build_model(cfg)
    try:
        est = EstimatorConfig(dt=cfg["run.dt"], horizon=cfg["run.horizon"],
                              replicates=cfg["run.replicates"],
                              seed=cfg["run.seed"], burn_in=cfg["run.burn_in"],
                              renorm_interval=cfg["run.renorm_interval"],
                              beta=cfg["run.beta"], workers=cfg["run.workers"],
                              x0=_x0(cfg))
    except InvalidParameter as exc:
        raise ConfigError(str(exc)) from exc
    return system, noise, est


def _estimate_payload(est: LyapunovEstimate) -> dict:
    return {
        "value": est.value,
        "stderr": est.stderr,
        "method": est.method,
        "epsilon": est.epsilon,
        "beta": est.beta,
        "horizon": est.horizon,
        "replicates": est.replicates,
        "restarts": est.restarts,
        "exits": est.exits,
        "unreliable": est.unreliable,
        "per_replicate": [float(v) for v in est.per_replicate],
    }


def _check_methods(methods: list, system) -> None:
    """Refuse, before any work starts, a method the system cannot run."""
    if not methods:
        raise ConfigError("run.method is empty")
    for method in methods:
        if method not in _METHODS:
            raise ConfigError(f"unknown method {method!r}; choose from {_METHODS}")
        if method == "fpcircle" and system.name != "nilpotent":
            raise ConfigError("the fpcircle method needs the nilpotent system")
        if method == "theorem33" and not system.constant_shear:
            raise ConfigError("the theorem33 method needs the nilpotent system: "
                              "the position-dependent formula needs position "
                              "bins that no estimator records")


def _fp_solve(cfg: dict, noise):
    """(stationary density, quadrature growth rate) of the circle FP problem."""
    gen = build_generator(cfg["system.a"], cfg["system.sigma"],
                          cfg["run.epsilon"], noise.measure,
                          CircleGrid(cfg["fp.grid_n"]),
                          variant=cfg["fp.variant"],
                          brownian=cfg["noise.brownian"])
    dens = solve_stationary(gen)
    lam = lyapunov_quadrature(dens, cfg["system.a"], cfg["system.sigma"],
                              cfg["run.epsilon"], noise.measure,
                              variant=cfg["fp.variant"],
                              brownian=cfg["noise.brownian"],
                              beta=cfg["run.beta"])
    return dens, lam


def _run_method(method: str, system, noise, est_cfg, cfg):
    if method == "direct":
        return lyapunov_direct(system, noise, cfg["run.epsilon"], est_cfg)
    if method == "khasminskii":
        est = lyapunov_khasminskii(system, noise, cfg["run.epsilon"], est_cfg)
        est.extras.pop("occupation", None)
        return est
    if method == "theorem33":
        return lyapunov_theorem33_estimate(system, noise, cfg["run.epsilon"], est_cfg)
    # fpcircle, the one method left after _check_methods
    dens, lam = _fp_solve(cfg, noise)
    est = LyapunovEstimate(lam, 0.0, "fpcircle", cfg["run.epsilon"],
                           cfg["run.beta"], 0.0, 1, 0)
    est.extras["fp_residual"] = dens.residual
    est.extras["fp_clipped_mass"] = dens.clipped_mass
    return est


def cmd_lyapunov(cfg: dict) -> int:
    _check_run_epsilon(cfg)
    system, noise, est_cfg = build_runtime(cfg)
    methods = [m.strip() for m in cfg["run.method"].split(",") if m.strip()]
    _check_methods(methods, system)
    t0 = time.monotonic()
    estimates = [_run_method(m, system, noise, est_cfg, cfg) for m in methods]
    runtime = time.monotonic() - t0

    disagreement = None
    for i in range(len(estimates)):
        for j in range(i + 1, len(estimates)):
            a, b = estimates[i], estimates[j]
            combined = math.hypot(a.stderr, b.stderr)
            gap = abs(a.value - b.value)
            if (combined > 0 and gap > 3.0 * combined) or \
               (combined == 0 and gap > 1e-12):
                disagreement = {"methods": [a.method, b.method], "gap": gap,
                                "combined_stderr": combined}

    payload = {
        "schema": SCHEMA,
        "command": "lyapunov",
        "config": _jsonable_config(cfg),
        # extras are scalars except khasminskii's martingale_rate, a
        # (mean, stderr) pair written as a two-element list
        "results": {e.method: dict(_estimate_payload(e), **e.extras)
                    for e in estimates},
        "agreement": {"ok": disagreement is None,
                      "disagreement": disagreement},
    }
    out = cfg["output.path"]
    if out:
        stem = Path(out)
        _dump_json(stem.with_suffix(".json"), payload)
        rows = ["# " + SCHEMA, "method,kind,index,value,stderr"]
        for e in estimates:
            for i, v in enumerate(e.per_replicate):
                rows.append(f"{e.method},replicate,{i},{_fmt(v)},")
            rows.append(f"{e.method},aggregate,,{_fmt(e.value)},{_fmt(e.stderr)}")
        stem.with_suffix(".csv").write_text("\n".join(rows) + "\n")
    print(_json_text(dict(payload, runtime_seconds=runtime)))
    print(f"runtime: {runtime:.2f}s", file=sys.stderr)
    return 1 if disagreement else 0


def cmd_sweep(cfg: dict) -> int:
    raw = cfg["sweep.epsilons"]
    try:
        eps = check_sweep_epsilons(s for s in raw.split(",") if s.strip())
    except (ValueError, InvalidParameter) as exc:
        raise ConfigError(f"sweep.epsilons = {raw!r}: {exc}") from exc
    system, noise, est_cfg = build_runtime(cfg)
    t0 = time.monotonic()
    sweep = scaling_sweep(system, noise, eps, est_cfg)
    runtime = time.monotonic() - t0
    payload = {
        "schema": SCHEMA,
        "command": "sweep",
        "config": _jsonable_config(cfg),
        "results": {
            "slope": sweep.slope,
            "intercept": sweep.intercept,
            "residual": sweep.residual,
            "excluded": sweep.excluded,
            "estimates": [_estimate_payload(e) for e in sweep.estimates],
        },
    }
    out = cfg["output.path"]
    if out:
        stem = Path(out)
        _dump_json(stem.with_suffix(".json"), payload)
        rows = ["# " + SCHEMA, "epsilon,lambda,stderr,method"]
        for e, est in zip(sweep.epsilons, sweep.estimates):
            mark = est.method if est.value > 0 else est.method + ":excluded"
            rows.append(f"{_fmt(e)},{_fmt(est.value)},{_fmt(est.stderr)},{mark}")
        stem.with_suffix(".csv").write_text("\n".join(rows) + "\n")
    print(_json_text(dict(payload, runtime_seconds=runtime)))
    print(f"runtime: {runtime:.2f}s", file=sys.stderr)
    return 0


def cmd_simulate(cfg: dict) -> int:
    _check_run_epsilon(cfg)
    system, noise = _build_model(cfg)
    if not cfg["output.path"]:
        raise ConfigError("simulate needs output.path")
    fields = system.fields(cfg["run.epsilon"])
    scfg = StepperConfig(dt=cfg["run.dt"],
                         tol_crit=system.hamiltonian().tol_crit)
    x0 = _x0(cfg)
    x0 = np.asarray(x0 if x0 is not None else system.default_x0, float)
    polar = system.name == "nilpotent"
    rows = []
    stride = max(1, cfg["run.record_stride"])
    counter = {"i": 0}

    def record(t, x):
        row = [_fmt(t), _fmt(x[0]), _fmt(x[1])]
        if polar:
            row += [_fmt(math.atan2(x[1], x[0])), _fmt(math.log(math.hypot(x[0], x[1])))]
        rows.append(",".join(row))

    def observer(state):
        counter["i"] += 1
        if counter["i"] % stride == 0:
            record(state.t, state.x)

    exit_info = None
    if cfg["run.horizon"] > 0:
        record(0.0, x0)
        summary = integrate(fields, noise, x0, cfg["run.horizon"], scfg,
                            (cfg["run.seed"], 0), observer=observer,
                            raise_on_exit=False)
        if summary.exited:
            exit_info = {"t": summary.final.t, "flag": summary.final.exit_flag}
    header = "t,x1,x2" + (",theta,rho" if polar else "")
    stem = Path(cfg["output.path"])
    stem.with_suffix(".csv").write_text(
        "\n".join(["# " + SCHEMA, header] + rows) + "\n")
    payload = {
        "schema": SCHEMA,
        "command": "simulate",
        "config": _jsonable_config(cfg),
        "results": {"rows": len(rows), "exit": exit_info},
    }
    _dump_json(stem.with_suffix(".json"), payload)
    print(_json_text(payload))
    return 0


def cmd_fp_solve(cfg: dict) -> int:
    system, noise = _build_model(cfg)
    if system.name != "nilpotent":
        raise ConfigError("fp-solve needs the nilpotent system")
    dens, lam = _fp_solve(cfg, noise)
    grid = dens.grid
    explicit = explicit_adjoint_residual(dens, cfg["system.a"],
                                         cfg["system.sigma"],
                                         cfg["run.epsilon"], noise.measure,
                                         brownian=cfg["noise.brownian"]) \
        if cfg["fp.variant"] == "plain" else None
    payload = {
        "schema": SCHEMA,
        "command": "fp-solve",
        "config": _jsonable_config(cfg),
        "results": {"lambda": lam, "residual": dens.residual,
                    "explicit_adjoint_residual": explicit,
                    "clipped_mass": dens.clipped_mass,
                    "grid_n": grid.n, "variant": cfg["fp.variant"]},
    }
    out = cfg["output.path"]
    if out:
        stem = Path(out)
        _dump_json(stem.with_suffix(".json"), payload)
        rows = ["# " + SCHEMA, "theta,mu"]
        for t, m in zip(grid.nodes, dens.values):
            rows.append(f"{_fmt(t)},{_fmt(m)}")
        stem.with_suffix(".csv").write_text("\n".join(rows) + "\n")
    print(_json_text(payload))
    return 0


def cmd_defaults(_cfg: dict) -> int:
    for key, (_, default, help_) in CONFIG_SCHEMA.items():
        if isinstance(default, bool):
            val = "true" if default else "false"
        else:
            val = str(default)
        print(f"{key} = {val:<24} # {help_}")
    return 0


_FLAG_OVERRIDES = {"system.name": "--system", "output.path": "--output"}


def _flag_name(key: str) -> str:
    if key in _FLAG_OVERRIDES:
        return _FLAG_OVERRIDES[key]
    return "--" + key.split(".", 1)[1].replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levyap",
        description="Lyapunov exponents of planar Hamiltonian systems under "
                    "small Brownian-plus-jump perturbations")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "simulate": "integrate one trajectory and write sampled rows",
        "lyapunov": "estimate the top Lyapunov exponent",
        "sweep": "epsilon sweep with a log-log slope fit",
        "fp-solve": "stationary angle density and quadrature growth rate",
        "defaults": "print all configuration defaults",
    }
    for name, help_ in commands.items():
        p = sub.add_parser(name, help=help_)
        if name == "defaults":
            continue
        p.add_argument("--config", help="flat key=value file or emitted JSON summary")
        seen = set()
        for key, (typ, _default, help_text) in CONFIG_SCHEMA.items():
            flag = _flag_name(key)
            if flag in seen:
                continue
            seen.add(flag)
            p.add_argument(flag, dest=key.replace(".", "__"), default=None,
                           metavar="V", help=help_text)
    return parser


def resolve_config(args) -> dict:
    cfg = default_config()
    if getattr(args, "config", None):
        cfg.update(load_config_file(args.config))
    for key in CONFIG_SCHEMA:
        raw = getattr(args, key.replace(".", "__"), None)
        if raw is not None:
            cfg[key] = _parse_value(key, str(raw))
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": cmd_simulate,
        "lyapunov": cmd_lyapunov,
        "sweep": cmd_sweep,
        "fp-solve": cmd_fp_solve,
        "defaults": cmd_defaults,
    }
    try:
        cfg = default_config() if args.command == "defaults" else resolve_config(args)
        return handlers[args.command](cfg)
    except SystemExit:
        raise
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LevyapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
