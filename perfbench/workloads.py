"""Workload definitions: the levyap command lines of one round.

A round is the ordered list of operations of a workload; an operation is
one ``levyap`` command, given as its argument list without ``--output``.
Every command names each input explicitly, so a change of CLI defaults
cannot silently change a workload.  The Monte Carlo seed passed to levyap
is the benchmark seed itself.
"""

from __future__ import annotations

WORKLOADS = ("shear-sweep", "shear-triangle", "fp-refine", "duffing-generic")

# shear-sweep: the acceptance-1 shape (Brownian only), shorter horizon
SWEEP_EPSILONS = (0.05, 0.08, 0.125, 0.2, 0.32)
SWEEP_HORIZON = 1000.0
SWEEP_REPLICATES = 16

# shear-triangle: the README estimator triangle at eps = 0.1
TRIANGLE_EPSILON = 0.1
TRIANGLE_HORIZON = 100.0
TRIANGLE_REPLICATES = 16
TRIANGLE_GRID_N = 512

# fp-refine: three grids, Brownian-only and with jumps
FP_EPSILON = 0.1
FP_GRIDS = (512, 1024, 2048)

# duffing-generic: generic Marcus stepper and frame quadratures
DUFFING_EPSILON = 0.1
DUFFING_REPLICATES = 2
DUFFING_DIRECT_HORIZON = 6.0
DUFFING_KHAS_HORIZON = 0.1

# shared physical inputs (the CLI defaults, spelled out)
A = 1.0
SIGMA = 1.0
ALPHA = 1.5
C_ALPHA = 1.0
CUTOFF = 1.0
FLOOR = 0.05
DT = 1e-3
BURN_IN = 0.1
RENORM = 10


def _common(seed: int) -> list[str]:
    return ["--a", repr(A), "--sigma", repr(SIGMA), "--alpha", repr(ALPHA),
            "--cutoff-c", repr(CUTOFF), "--floor-delta", repr(FLOOR),
            "--dt", repr(DT), "--burn-in", repr(BURN_IN),
            "--renorm-interval", str(RENORM), "--seed", str(seed),
            "--workers", "1"]


def operations(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    """(operation name, levyap argv) pairs of one round."""
    base = _common(seed)
    if workload == "shear-sweep":
        eps = ",".join(repr(e) for e in SWEEP_EPSILONS)
        return [("sweep", ["sweep", "--system", "nilpotent", "--c-alpha", "0",
                           "--epsilons", eps, "--horizon", repr(SWEEP_HORIZON),
                           "--replicates", str(SWEEP_REPLICATES)] + base)]
    if workload == "shear-triangle":
        return [(m, ["lyapunov", "--system", "nilpotent", "--method", m,
                     "--c-alpha", repr(C_ALPHA),
                     "--epsilon", repr(TRIANGLE_EPSILON),
                     "--horizon", repr(TRIANGLE_HORIZON),
                     "--replicates", str(TRIANGLE_REPLICATES),
                     "--grid-n", str(TRIANGLE_GRID_N)] + base)
                for m in ("direct", "khasminskii", "fpcircle")]
    if workload == "fp-refine":
        return [(f"{variant}-{n}",
                 ["fp-solve", "--system", "nilpotent", "--c-alpha", c_alpha,
                  "--epsilon", repr(FP_EPSILON), "--grid-n", str(n)] + base)
                for variant, c_alpha in (("brownian", "0"),
                                         ("jumps", repr(C_ALPHA)))
                for n in FP_GRIDS]
    if workload == "duffing-generic":
        return [(m, ["lyapunov", "--system", "duffing", "--method", m,
                     "--c-alpha", repr(C_ALPHA),
                     "--epsilon", repr(DUFFING_EPSILON), "--horizon", repr(h),
                     "--replicates", str(DUFFING_REPLICATES)] + base)
                for m, h in (("direct", DUFFING_DIRECT_HORIZON),
                             ("khasminskii", DUFFING_KHAS_HORIZON))]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
