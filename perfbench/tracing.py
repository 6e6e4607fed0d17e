"""Span tracing of levyap's layers, installed from outside the package.

``install`` replaces each traced public function, in every loaded levyap
module that binds it, by a wrapper that records a span (name, start, end,
parent) in memory and, for some layers, work counts taken from the call's
arguments or result.  ``layer_metrics`` turns the spans into the
benchmark's per-layer metrics; a layer's self time is its span time minus
the time of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time


def _lane_steps(bound, out):
    n = int(round(bound.arguments["horizon"] / bound.arguments["dt"]))
    return {"lane_steps": len(bound.arguments["eps"]) * n}


def _angle_counts(bound, out):
    counts = _lane_steps(bound, out)
    counts["compensator_evals"] = len(bound.arguments["eps"]) * out.theta_samples
    return counts


def _estimate_counts(bound, out):
    return {"replicates": out.replicates, "restarts": out.restarts}


# layer -> (module, function, counter(bound arguments, result) or None)
TRACED = {
    "noise.sample_block": [("levyap.noise", "sample_block",
                            lambda b, out: {"gauss": out.gauss.size,
                                            "jumps": out.jump_marks.size})],
    "lanes.direct": [("levyap._lanes", "shear_direct_lanes", _lane_steps)],
    "lanes.angle": [("levyap._lanes", "shear_angle_lanes", _angle_counts)],
    "marcus.integrate": [("levyap.marcus", "integrate",
                          lambda b, out: {"steps": out.n_steps,
                                          "jumps": out.n_jumps})],
    "marcus.step": [("levyap.marcus", "step", None)],
    "frame.irho_generic": [("levyap.frame", "compute_Irho_generic", None)],
    "frame.angle_jump_flow": [("levyap.frame", "angle_jump_flow", None)],
    "estimators": [("levyap.estimators", "lyapunov_direct", _estimate_counts),
                   ("levyap.estimators", "lyapunov_khasminskii", _estimate_counts),
                   ("levyap.estimators", "lyapunov_theorem33_estimate",
                    _estimate_counts),
                   ("levyap.estimators", "scaling_sweep", None),
                   ("levyap.estimators", "compute_Irho", None)],
    "fp.build": [("levyap.fpcircle", "build_generator", None)],
    "fp.solve": [("levyap.fpcircle", "solve_stationary",
                  lambda b, out: {"grid_points": b.arguments["gen"].grid.n})],
    "fp.quadrature": [("levyap.fpcircle", "lyapunov_quadrature", None),
                      ("levyap.fpcircle", "explicit_adjoint_residual", None)],
    "cli": [("levyap.cli", "main", None)],
}

# per-layer metric -> (unit, kind, layer, count key); kinds: "calls" and
# "self" (self time) of the layer's spans, "count" (summed span counts),
# "rate" (count per second of the layer's outermost spans), "given"
# (measured outside the spans, passed to layer_metrics)
METRICS = {
    "noise.sample_block.calls": ("count", "calls", "noise.sample_block", None),
    "noise.sample_block.self_s": ("s", "self", "noise.sample_block", None),
    "noise.gauss_draws": ("count", "count", "noise.sample_block", "gauss"),
    "noise.jump_events": ("count", "count", "noise.sample_block", "jumps"),
    "lanes.direct.self_s": ("s", "self", "lanes.direct", None),
    "lanes.direct.lane_steps": ("count", "count", "lanes.direct", "lane_steps"),
    "lanes.direct.lane_steps_per_s": ("1/s", "rate", "lanes.direct", "lane_steps"),
    "lanes.angle.self_s": ("s", "self", "lanes.angle", None),
    "lanes.angle.lane_steps": ("count", "count", "lanes.angle", "lane_steps"),
    "lanes.angle.lane_steps_per_s": ("1/s", "rate", "lanes.angle", "lane_steps"),
    "lanes.angle.compensator_evals": ("count", "count", "lanes.angle",
                                      "compensator_evals"),
    "marcus.integrate.self_s": ("s", "self", "marcus.integrate", None),
    "marcus.steps": ("count", "count", "marcus.integrate", "steps"),
    "marcus.jumps_applied": ("count", "count", "marcus.integrate", "jumps"),
    "marcus.steps_per_s": ("1/s", "rate", "marcus.integrate", "steps"),
    "marcus.step.calls": ("count", "calls", "marcus.step", None),
    "marcus.step.self_s": ("s", "self", "marcus.step", None),
    "frame.irho_generic.calls": ("count", "calls", "frame.irho_generic", None),
    "frame.irho_generic.self_s": ("s", "self", "frame.irho_generic", None),
    "frame.angle_jump_flow.calls": ("count", "calls", "frame.angle_jump_flow", None),
    "frame.angle_jump_flow.self_s": ("s", "self", "frame.angle_jump_flow", None),
    "estimators.self_s": ("s", "self", "estimators", None),
    "estimators.replicates": ("count", "count", "estimators", "replicates"),
    "estimators.restarts": ("count", "count", "estimators", "restarts"),
    "fp.build.self_s": ("s", "self", "fp.build", None),
    "fp.solve.calls": ("count", "calls", "fp.solve", None),
    "fp.solve.self_s": ("s", "self", "fp.solve", None),
    "fp.grid_points": ("count", "count", "fp.solve", "grid_points"),
    "fp.quadrature.self_s": ("s", "self", "fp.quadrature", None),
    "cli.self_s": ("s", "self", "cli", None),
    "cli.artifact_bytes": ("count", "given", None, "artifact_bytes"),
    "trace.overhead_s": ("s", "given", None, "overhead_s"),
}


class Tracer:
    """In-memory span recorder.

    A span is [name, start, end, parent index or -1, counts dict or None];
    ``name`` is "<layer>/<function>".
    """

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self._restore: list = []

    def wrap(self, layer: str, fn, counter):
        name = f"{layer}/{fn.__name__}"
        sig = inspect.signature(fn) if counter is not None else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self.stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                rec[4] = counter(sig.bind(*args, **kwargs), out)
            return out

        return wrapper

    def install(self) -> None:
        """Rebind every traced function in every loaded levyap module."""
        for layer, entries in TRACED.items():
            for mod_name, attr, counter in entries:
                orig = getattr(importlib.import_module(mod_name), attr)
                wrapped = self.wrap(layer, orig, counter)
                for name, mod in list(sys.modules.items()):
                    if name != "levyap" and not name.startswith("levyap."):
                        continue
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapped)
                            self._restore.append((mod, key, orig))

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._restore):
            setattr(mod, key, orig)
        self._restore.clear()

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "counts")
        with open(path, "w") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans]}, fh)


def _self_times(spans):
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def _has_ancestor(spans, idx, layer):
    p = spans[idx][3]
    while p >= 0:
        if spans[p][0].split("/")[0] == layer:
            return True
        p = spans[p][3]
    return False


def layer_metrics(spans, artifact_bytes: int, overhead_s: float) -> dict:
    """Per-layer metrics (name -> value) from the spans of a traced round."""
    self_s = _self_times(spans)
    calls, selfsum, incl, counts = {}, {}, {}, {}
    for i, s in enumerate(spans):
        layer = s[0].split("/")[0]
        calls[layer] = calls.get(layer, 0) + 1
        selfsum[layer] = selfsum.get(layer, 0.0) + self_s[i]
        if not _has_ancestor(spans, i, layer):      # outermost span of its layer
            incl[layer] = incl.get(layer, 0.0) + (s[2] - s[1])
        for k, v in (s[4] or {}).items():
            counts[(layer, k)] = counts.get((layer, k), 0) + int(v)
    given = {"artifact_bytes": artifact_bytes, "overhead_s": overhead_s}
    out = {}
    for name, (_, kind, layer, key) in METRICS.items():
        if kind == "calls":
            out[name] = calls.get(layer, 0)
        elif kind == "self":
            out[name] = selfsum.get(layer, 0.0)
        elif kind == "count":
            out[name] = counts.get((layer, key), 0)
        elif kind == "rate":
            t = incl.get(layer, 0.0)
            out[name] = counts.get((layer, key), 0) / t if t > 0.0 else 0.0
        else:
            out[name] = given[key]
    return out


def total_problems(workload: str, spans, metrics: dict) -> list[str]:
    """Totals reached by two independent paths must agree exactly."""
    out = []
    if workload == "shear-sweep":
        if metrics["noise.gauss_draws"] != metrics["lanes.direct.lane_steps"]:
            out.append(f"trace: noise.gauss_draws {metrics['noise.gauss_draws']} != "
                       f"lanes.direct.lane_steps {metrics['lanes.direct.lane_steps']}")
    if workload == "duffing-generic":
        sampled = sum((s[4] or {}).get("jumps", 0) for i, s in enumerate(spans)
                      if s[0].startswith("noise.sample_block/")
                      and _has_ancestor(spans, i, "marcus.integrate"))
        if sampled != metrics["marcus.jumps_applied"]:
            out.append(f"trace: jump events sampled under marcus.integrate {sampled} "
                       f"!= marcus.jumps_applied {metrics['marcus.jumps_applied']}")
    return out
