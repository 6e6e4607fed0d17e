"""Command-line front end.

Subcommands: simulate | lyapunov | sweep | fp-solve | defaults.  Flags
mirror the configuration keys; a flat ``key = value`` config file (or the
``config`` block of an emitted JSON summary) can be passed with --config,
with explicit flags taking precedence.  Exit codes: 0 success, 1 runtime
failure (including cross-method disagreement), 2 usage.

All file artifacts are deterministic for a fixed configuration: floats are
written with 17 significant digits, JSON keys are sorted, and no wall-clock
data is embedded (a runtime goes to the stdout summary and stderr only).
One writer, ``_emit``, owns the artifact format.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import (ConfigError, InvalidGrid, InvalidMeasure, InvalidParameter,
                     LevyapError)
from .estimators import (EstimatorConfig, LyapunovEstimate, angle_lane_rows,
                         check_sweep_epsilons, lyapunov_direct,
                         lyapunov_khasminskii, lyapunov_theorem33_estimate,
                         scaling_sweep)
from .fpcircle import (INVERSE_BYTES_MAX, CircleGrid, build_generator,
                       explicit_adjoint_residual, lyapunov_quadrature,
                       pw_limit, solve_stationary)
from .marcus import StepperConfig, check_epsilon, integrate
from .noise import EVENTS_PER_BLOCK_MAX, JumpMeasureSpec, NoiseModel
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
    "run.renorm_interval": (int, 10, "steps between tangent renormalizations "
                            "(generic path only)"),
    "run.workers": (int, 1, "worker processes for replicate execution"),
    "run.record_stride": (int, 100, "steps between recorded trajectory rows"),
    "run.x0": (str, "", "initial point 'x,y' (empty = system default)"),
    "fp.grid_n": (int, 512, "circle grid size"),
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
    """Read a flat key = value file or the config block of a JSON summary;
    a file that cannot be read or parsed is a ConfigError."""
    is_json = path.endswith(".json")
    try:
        text = Path(path).read_text()
        data = json.loads(text) if is_json else None
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    out = {}
    if is_json:
        block = data.get("config", data) if isinstance(data, dict) else data
        if not isinstance(block, dict):
            raise ConfigError(f"{path}: expected a JSON object of config keys")
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


def _emit(cfg: dict, command: str, results: dict, header: str, rows: list,
          runtime: Optional[float] = None, **top) -> None:
    """The one writer of the artifact format.  The payload holds the schema,
    the command, the config without its execution-only keys (output.path and
    run.workers do not influence results), the results and the ``top``
    entries; it goes to <stem>.json, the CSV rows under the schema line and
    ``header`` to <stem>.csv, when output.path is set.  The summary printed
    on stdout is the payload plus, when given, ``runtime_seconds``, which
    also goes to stderr and never into the files."""
    payload = {"schema": SCHEMA, "command": command, "results": results,
               "config": {k: v for k, v in cfg.items()
                          if k not in ("output.path", "run.workers")}, **top}
    if cfg["output.path"]:
        stem = Path(cfg["output.path"])
        stem.with_suffix(".json").write_text(_json_text(payload) + "\n")
        stem.with_suffix(".csv").write_text(
            "\n".join(["# " + SCHEMA, header, *rows]) + "\n")
    if runtime is None:
        print(_json_text(payload))
        return
    print(_json_text(dict(payload, runtime_seconds=runtime)))
    print(f"runtime: {runtime:.2f}s", file=sys.stderr)


def _build_model(cfg: dict):
    """(system, noise) from a resolved flat config; a value the system or
    the noise model refuses is a ConfigError."""
    name = cfg["system.name"]
    if name not in ("nilpotent", "duffing"):
        raise ConfigError(f"unknown system {name!r}")
    try:
        if name == "nilpotent":
            system = make_nilpotent(cfg["system.a"], cfg["system.sigma"])
        else:
            system = make_duffing(cfg["system.sigma"])
        measure = None
        if cfg["noise.c_alpha"] != 0.0:      # the measure refuses c_alpha < 0
            measure = JumpMeasureSpec(alpha=cfg["noise.alpha"],
                                      c_alpha=cfg["noise.c_alpha"],
                                      cutoff_c=cfg["noise.cutoff_c"],
                                      floor_delta=cfg["noise.floor_delta"])
        noise = NoiseModel(measure=measure, brownian=cfg["noise.brownian"],
                           ar_small_jumps=cfg["noise.ar_small_jumps"],
                           ar_threshold=cfg["noise.ar_threshold"])
        # jumps with a sampling floor of 0 have infinite activity, which
        # every command refuses: jump_rate raises InvalidMeasure for them
        noise.jump_rate
    except (InvalidParameter, InvalidMeasure) as exc:
        raise ConfigError(str(exc)) from exc
    return system, noise


def _check_events(noise, dt: float, block_steps: int) -> None:
    """Refuse, before any jump is drawn, a jump rate whose noise blocks
    would hold more than EVENTS_PER_BLOCK_MAX events on average."""
    events = noise.jump_rate * dt * block_steps
    if events > EVENTS_PER_BLOCK_MAX:
        raise ConfigError(f"jump rate {noise.jump_rate:.3g} gives {events:.3g} "
                          f"expected events per noise block of {block_steps} "
                          f"steps, above the budget of {EVENTS_PER_BLOCK_MAX:.3g}; "
                          "raise noise.floor_delta or noise.ar_threshold")


def _x0(cfg: dict):
    """The initial point of run.x0, or None for the system default."""
    if not cfg["run.x0"]:
        return None
    try:
        x0 = tuple(float(p) for p in cfg["run.x0"].split(","))
    except ValueError:
        x0 = ()
    if len(x0) != 2 or not all(math.isfinite(c) for c in x0):
        raise ConfigError(f"run.x0 must be two finite numbers 'x,y', got {cfg['run.x0']!r}")
    return x0


def _check_run_epsilon(cfg: dict) -> None:
    """Refuse run.epsilon outside [0, 1) before any set-up."""
    try:
        check_epsilon(cfg["run.epsilon"])
    except InvalidParameter as exc:
        raise ConfigError(f"run.epsilon: {exc}") from exc


def _check_beta(cfg: dict) -> None:
    """Refuse run.beta outside [0, 1]: inside it no scale eps^beta,
    eps^(1-beta) or eps^(2-2beta) grows as eps -> 0."""
    if not 0.0 <= cfg["run.beta"] <= 1.0:
        raise ConfigError(f"run.beta must lie in [0, 1], got {cfg['run.beta']}")


def build_runtime(cfg: dict):
    """(system, noise, estimator config) from a resolved flat config; a
    value the estimator config refuses, or a start point every replicate
    would exit at once, is a ConfigError."""
    _check_beta(cfg)
    system, noise = _build_model(cfg)
    x0 = _x0(cfg)
    if x0 is not None and system.tol_crit > 0.0 and \
            math.hypot(*system.fields(0.0).grad_h(*x0)) < system.tol_crit:
        raise ConfigError(f"run.x0 = {cfg['run.x0']!r}: |grad H| < tol_crit = {system.tol_crit}")
    try:
        est = EstimatorConfig(dt=cfg["run.dt"], horizon=cfg["run.horizon"],
                              replicates=cfg["run.replicates"],
                              seed=cfg["run.seed"], burn_in=cfg["run.burn_in"],
                              renorm_interval=cfg["run.renorm_interval"],
                              beta=cfg["run.beta"], workers=cfg["run.workers"],
                              x0=x0)
    except InvalidParameter as exc:
        raise ConfigError(str(exc)) from exc
    return system, noise, est


def _estimate_payload(est: LyapunovEstimate) -> dict:
    return {f.name: getattr(est, f.name) for f in dataclasses.fields(est)
            if f.name != "extras"}


def _check_methods(methods: list, system) -> None:
    """Refuse, before any work starts, a method listed twice or one the
    system cannot run."""
    if not methods:
        raise ConfigError("run.method is empty")
    for i, method in enumerate(methods):
        if method in methods[:i]:
            raise ConfigError(f"run.method lists {method!r} twice")
        if method not in _METHODS:
            raise ConfigError(f"unknown method {method!r}; choose from {_METHODS}")
        if method == "fpcircle" and system.name != "nilpotent":
            raise ConfigError("the fpcircle method needs the nilpotent system")
        if method == "theorem33" and not system.constant_shear:
            raise ConfigError("the theorem33 method needs the nilpotent system: "
                              "the leading-order formula is evaluated for "
                              "constant shear only")


def _check_fp(cfg: dict, noise) -> None:
    """Refuse, before any work starts, a bad fp.grid_n, one whose block
    inverses would exceed INVERSE_BYTES_MAX, and the inputs the circle
    generator cannot solve.  Without Brownian noise and jumps (the
    solve ignores the Gaussian substitutes), or at run.epsilon = 0, every
    noise term vanishes, and the pure drift -a sin^2 has no one-dimensional
    nullspace.  Jumps with noise.floor_delta = 0 are refused too, since the
    nonlocal term models the measure on [floor_delta, cutoff), so a
    substitute does not truncate it."""
    try:
        CircleGrid(cfg["fp.grid_n"])
    except InvalidGrid as exc:
        raise ConfigError(f"fp.grid_n: {exc}") from exc
    inverse_bytes = 16 * (cfg["fp.grid_n"] // 2 + 1) ** 2
    if inverse_bytes > INVERSE_BYTES_MAX:
        raise ConfigError(f"fp.grid_n: the FP block inverses need {inverse_bytes:.3g} "
                          f"bytes, above the budget of {INVERSE_BYTES_MAX:.3g}")
    m = noise.measure
    jumps = m is not None and m.has_jumps
    if not (noise.brownian or jumps):
        raise ConfigError("the circle Fokker-Planck solve needs noise: "
                          "noise.brownian is false and there are no jumps")
    if cfg["run.epsilon"] == 0.0:
        raise ConfigError("the circle Fokker-Planck solve needs run.epsilon > 0")
    if jumps and m.floor_delta <= 0.0:
        raise ConfigError("the circle Fokker-Planck generator needs "
                          "noise.floor_delta > 0 when jumps are on")


def _fp_solve(cfg: dict, noise, explicit: bool = False):
    """(stationary density, growth rate, PW limit, explicit adjoint residual
    or None) of the circle FP problem; run.beta enters none of them."""
    a, sigma, eps = cfg["system.a"], cfg["system.sigma"], cfg["run.epsilon"]
    measure, brownian = noise.measure, cfg["noise.brownian"]
    dens = solve_stationary(build_generator(a, sigma, eps, measure,
                                            CircleGrid(cfg["fp.grid_n"]),
                                            brownian=brownian))
    lam = lyapunov_quadrature(dens, a, sigma, eps, measure, brownian=brownian)
    residual = explicit_adjoint_residual(dens, a, sigma, eps, measure,
                                         brownian=brownian) if explicit else None
    return dens, lam, pw_limit(a, sigma, eps, measure, brownian), residual


def _run_method(method: str, system, noise, est_cfg, cfg, lane_rows):
    if method == "direct":
        return lyapunov_direct(system, noise, cfg["run.epsilon"], est_cfg)
    if method == "khasminskii":
        return lyapunov_khasminskii(system, noise, cfg["run.epsilon"], est_cfg,
                                    lane_rows)
    if method == "theorem33":
        return lyapunov_theorem33_estimate(system, noise, cfg["run.epsilon"],
                                           est_cfg, lane_rows)
    # fpcircle, the one method left after _check_methods
    dens, lam, pw, _ = _fp_solve(cfg, noise)
    est = LyapunovEstimate(lam, 0.0, "fpcircle", cfg["run.epsilon"],
                           cfg["run.beta"], 0.0, 1)
    est.extras["fp_residual"] = dens.residual
    est.extras["fp_clipped_mass"] = dens.clipped_mass
    est.extras["fp_condition"] = dens.condition
    est.extras["fp_pw_limit"] = pw
    return est


def cmd_lyapunov(cfg: dict) -> int:
    _check_run_epsilon(cfg)
    system, noise, est_cfg = build_runtime(cfg)
    methods = [m.strip() for m in cfg["run.method"].split(",") if m.strip()]
    _check_methods(methods, system)
    if "fpcircle" in methods:
        _check_fp(cfg, noise)
    if set(methods) - {"fpcircle"}:
        _check_events(noise, cfg["run.dt"], est_cfg.block_steps)
    t0 = time.monotonic()
    # khasminskii and theorem33 on the shear system read one angle-lane pass
    lane_rows = None
    if system.constant_shear and {"khasminskii", "theorem33"} <= set(methods):
        lane_rows = angle_lane_rows(system, noise, cfg["run.epsilon"], est_cfg)
    estimates = [_run_method(m, system, noise, est_cfg, cfg, lane_rows)
                 for m in methods]
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

    rows = []
    for e in estimates:
        rows += [f"{e.method},replicate,{i},{_fmt(v)},"
                 for i, v in enumerate(e.per_replicate)]
        rows.append(f"{e.method},aggregate,,{_fmt(e.value)},{_fmt(e.stderr)}")
    # extras are scalars except khasminskii's martingale_rate, a (mean,
    # stderr) pair written as a two-element list
    _emit(cfg, "lyapunov",
          {e.method: dict(_estimate_payload(e), **e.extras) for e in estimates},
          "method,kind,index,value,stderr", rows, runtime,
          agreement={"ok": disagreement is None, "disagreement": disagreement})
    return 1 if disagreement else 0


def cmd_sweep(cfg: dict) -> int:
    raw = cfg["sweep.epsilons"]
    try:
        eps = check_sweep_epsilons(s for s in raw.split(",") if s.strip())
    except (ValueError, InvalidParameter) as exc:
        raise ConfigError(f"sweep.epsilons = {raw!r}: {exc}") from exc
    system, noise, est_cfg = build_runtime(cfg)
    _check_events(noise, cfg["run.dt"], est_cfg.block_steps)
    t0 = time.monotonic()
    sweep = scaling_sweep(system, noise, eps, est_cfg)
    runtime = time.monotonic() - t0
    results = {"slope": sweep.slope, "intercept": sweep.intercept,
               "residual": sweep.residual, "excluded": sweep.excluded,
               "estimates": [_estimate_payload(e) for e in sweep.estimates]}
    rows = [f"{_fmt(e)},{_fmt(est.value)},{_fmt(est.stderr)},"
            + (est.method if est.value > 0 else est.method + ":excluded")
            for e, est in zip(sweep.epsilons, sweep.estimates)]
    _emit(cfg, "sweep", results, "epsilon,lambda,stderr,method", rows, runtime)
    return 0


def cmd_simulate(cfg: dict) -> int:
    _check_run_epsilon(cfg)
    system, noise = _build_model(cfg)
    if not cfg["output.path"]:
        raise ConfigError("simulate needs output.path")
    if not 0.0 <= cfg["run.horizon"] < math.inf:
        raise ConfigError(f"run.horizon must be finite and >= 0, got {cfg['run.horizon']}")
    if cfg["run.record_stride"] < 1:
        raise ConfigError(f"run.record_stride must be >= 1, got {cfg['run.record_stride']}")
    fields = system.fields(cfg["run.epsilon"])
    try:
        scfg = StepperConfig(dt=cfg["run.dt"], tol_crit=system.tol_crit)
    except InvalidParameter as exc:
        raise ConfigError(f"run.dt: {exc}") from exc
    _check_events(noise, cfg["run.dt"], scfg.block_steps)
    x0 = _x0(cfg)
    x0 = np.asarray(x0 if x0 is not None else system.default_x0, float)
    polar = system.name == "nilpotent"
    rows = []
    stride = cfg["run.record_stride"]
    counter = {"i": 0}

    def record(t, x):
        row = [_fmt(t), _fmt(x[0]), _fmt(x[1])]
        if polar:
            row += [_fmt(math.atan2(x[1], x[0])), _fmt(math.log(math.hypot(x[0], x[1])))]
        rows.append(",".join(row))

    def observer(t, x1, x2):
        counter["i"] += 1
        if counter["i"] % stride == 0:
            record(t, (x1, x2))

    exit_info = None
    if cfg["run.horizon"] > 0:
        record(0.0, x0)
        summary = integrate(fields, noise, x0, cfg["run.horizon"], scfg,
                            (cfg["run.seed"], 0), observer=observer)
        if summary.exited:
            exit_info = {"t": summary.final.t, "flag": summary.final.exit_flag}
    _emit(cfg, "simulate", {"rows": len(rows), "exit": exit_info},
          "t,x1,x2" + (",theta,rho" if polar else ""), rows)
    return 0


def cmd_fp_solve(cfg: dict) -> int:
    _check_run_epsilon(cfg)
    _check_beta(cfg)
    system, noise = _build_model(cfg)
    if system.name != "nilpotent":
        raise ConfigError("fp-solve needs the nilpotent system")
    _check_fp(cfg, noise)
    dens, lam, pw, explicit = _fp_solve(cfg, noise, explicit=True)
    grid = dens.grid
    results = {"lambda": lam, "residual": dens.residual,
               "explicit_adjoint_residual": explicit,
               "clipped_mass": dens.clipped_mass, "condition": dens.condition,
               "pw_limit": pw, "grid_n": grid.n}
    _emit(cfg, "fp-solve", results, "theta,mu",
          [f"{_fmt(t)},{_fmt(m)}" for t, m in zip(grid.nodes, dens.values)])
    return 0


def cmd_defaults(_cfg: dict) -> int:
    for key, (_, default, help_) in CONFIG_SCHEMA.items():
        if isinstance(default, bool):
            val = "true" if default else "false"
        else:
            val = str(default)
        print(f"{key} = {val:<24} # {help_}")
    return 0


COMMANDS = {
    "simulate": (cmd_simulate, "integrate one trajectory and write sampled rows"),
    "lyapunov": (cmd_lyapunov, "estimate the top Lyapunov exponent"),
    "sweep": (cmd_sweep, "epsilon sweep with a log-log slope fit"),
    "fp-solve": (cmd_fp_solve, "stationary angle density and quadrature growth rate"),
    "defaults": (cmd_defaults, "print all configuration defaults"),
}

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
    for name, (_, help_) in COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        if name == "defaults":
            continue
        p.add_argument("--config", help="flat key=value file or emitted JSON summary")
        for key, (_typ, _default, help_text) in CONFIG_SCHEMA.items():
            p.add_argument(_flag_name(key), dest=key.replace(".", "__"),
                           default=None, metavar="V", help=help_text)
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


def _check_run(cfg: dict) -> None:
    """Refuse, before any work starts, run.workers below one and an output
    stem in no directory: every command."""
    if cfg["run.workers"] < 1:
        raise ConfigError(f"run.workers must be >= 1, got {cfg['run.workers']}")
    stem = cfg["output.path"]
    if stem and not Path(stem).parent.is_dir():
        raise ConfigError(f"output.path {stem!r}: {str(Path(stem).parent)!r} "
                          "is not a directory")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        _check_run(cfg)
        return COMMANDS[args.command][0](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LevyapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
