"""Seeded inputs and the command list of each benchmark workload.

The generator follows the synthetic set-up of the repository's baseline:
two groups (a 60 %, b 40 %), a latent score Beta(2, 2) * 0.9 shifted by
+0.10 for group a and -0.05 for group b, rounded to a fixed number of
decimals and clipped to [0.001, 0.999], labels drawn as Bernoulli(score),
``x_`` features that are noisy functions of the latent score and one ``l_``
stratum column. The precomputed score column is named ``p`` because ``fit``
appends its own ``score`` column.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SCORE_COL = "p"
GROUP_SHARE_A = 0.6
TIERS = ("low", "mid", "high")
SEPARATION_INSTANCES = 8


@dataclass(frozen=True)
class InputSpec:
    """One generated CSV: row count, score precision and instance number.

    Specs that differ only in ``instance`` are independent draws.
    """

    rows: int
    decimals: int
    instance: int = 0


@dataclass(frozen=True)
class Op:
    """One CLI invocation of a workload.

    ``input`` names an entry of the workload's ``inputs``; ``gamma`` is the
    requested level, or None for commands that do not take one.
    """

    name: str
    command: str
    input: str
    criterion: str | None = None
    gamma: float | None = None
    extra: tuple[str, ...] = ()

    def argv(self, csv: Path, out: Path, assessment: Path) -> list[str]:
        args = [self.command, "--input", str(csv), "--out", str(out)]
        if self.command in ("optimize", "sweep"):
            args += ["--score-col", SCORE_COL]
        if self.criterion == "assessment":
            args += ["--assessment", str(assessment)]
        elif self.criterion is not None:
            args += ["--criterion", self.criterion]
        if self.gamma is not None:
            args += ["--gamma", repr(self.gamma)]
        return args + list(self.extra)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: dict[str, InputSpec]
    ops: tuple[Op, ...]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="frontier_coarse",
            # Two-decimal scores leave about 100 atoms per group, so the
            # optimizer is cheap and a faster search cannot move this
            # workload; the cost is CSV ingest, the per-record metric loops
            # and frontier emission over 20k records. The size keeps each
            # sweep short enough to run several times in one run.
            # The exact-sweep criteria are swept; separation is not, because
            # on about one draw in a hundred its sweep exits with "could not
            # realize the target point as two threshold rules".
            why="many records, few score atoms: ingest, per-record metrics and the frontier dominate",
            inputs={"coarse": InputSpec(rows=20_000, decimals=2)},
            ops=tuple(
                Op(f"sweep_{c}", "sweep", "coarse", criterion=c)
                for c in ("independence", "tpr_parity", "fpr_parity")
            ),
        ),
        Workload(
            name="exact_continuous",
            # Six-decimal scores give about one atom per record, so the
            # atom-bound optimizer paths (window sweep, separation LP and its
            # two-cut realization) and the scorer carry the cost while each
            # metric call sees only a few thousand records. The report runs
            # conditional parity and the FEC check through a
            # legitimate-attribute assessment.
            #
            # Whether the separation target lies on a group's ROC staircase
            # or needs the chord search that realizes it as two cuts depends
            # on the draw, and the chord search costs seconds at 4k rows, so
            # one 4k instance swings the run time by a third from seed to
            # seed. Separation therefore runs on eight independent 1k-row
            # instances, which averages that choice over 16 solves.
            #
            # The ``fit`` command is left out: it writes scores that
            # ``load_csv`` cannot read back (``repr`` of a numpy float), so
            # it fails on every input. ``report`` still runs the scorer.
            why="k = n continuous scores: atom-bound optimizer paths, separation LP and the scorer",
            inputs={
                "continuous": InputSpec(rows=4_000, decimals=6),
                **{
                    f"separation{i}": InputSpec(rows=1_000, decimals=6, instance=i + 1)
                    for i in range(SEPARATION_INSTANCES)
                },
            },
            ops=(
                *(
                    Op(f"optimize_separation_{gamma}_{i}", "optimize", f"separation{i}",
                       "separation", gamma)
                    for i in range(SEPARATION_INSTANCES)
                    for gamma in (0.9, 1.0)
                ),
                Op("optimize_independence_0.8", "optimize", "continuous", "independence", 0.8),
                Op("optimize_tpr_parity_1.0", "optimize", "continuous", "tpr_parity", 1.0),
                Op("report_assessment", "report", "continuous", "assessment",
                   extra=("--seeds", "3")),
            ),
        ),
        Workload(
            name="sufficiency_search",
            # The only workload that reaches the interval-window search, its
            # dense designation x segment allocation and the max-gamma
            # bisection of an infeasible joint solve. The 600-row input keeps
            # the training split within the oracle's 500-record limit, so
            # --verify runs the brute-force oracle. It verifies independence:
            # on ppv_parity and for_parity the optimizer comes out a little
            # below the oracle on some draws, which would fail the run.
            why="interval-window sufficiency search, the infeasible max-gamma bisection and the oracle",
            inputs={
                "continuous": InputSpec(rows=4_000, decimals=6),
                "small": InputSpec(rows=600, decimals=3),
            },
            ops=(
                Op("optimize_ppv_parity_0.9", "optimize", "continuous", "ppv_parity", 0.9),
                Op("optimize_for_parity_0.9", "optimize", "continuous", "for_parity", 0.9),
                Op("optimize_sufficiency_0.8", "optimize", "small", "sufficiency", 0.8),
                Op("optimize_sufficiency_1.0", "optimize", "small", "sufficiency", 1.0),
                Op("verify_independence_0.9", "optimize", "small", "independence", 0.9,
                   extra=("--verify",)),
            ),
        ),
    )
}

# Decision-sourced benefit justified by the legitimate stratum column:
# conditional statistical parity, with the FEC check per stratum.
ASSESSMENT = {
    "benefit_source": "decision",
    "benefit_value": 1,
    "benefit_matrix": None,
    "justifier": "legitimate",
    "justifier_names": ["tier"],
    "relevant_values": [0, 1],
    "group_attribute": "group",
}


def input_seed(seed: int, spec: InputSpec) -> np.random.SeedSequence:
    """Seed stream of one input: the same spec and seed give the same file."""
    return np.random.SeedSequence([seed, spec.rows, spec.decimals, spec.instance])


def generate_csv(path: Path, spec: InputSpec, seed: int) -> None:
    rng = np.random.default_rng(input_seed(seed, spec))
    n = spec.rows
    group_a = rng.random(n) < GROUP_SHARE_A
    latent = rng.beta(2.0, 2.0, n) * 0.9 + np.where(group_a, 0.10, -0.05)
    score = np.clip(np.round(latent, spec.decimals), 0.001, 0.999)
    label = (rng.random(n) < score).astype(int)
    clipped = np.clip(latent, 0.005, 0.995)
    x_logit = np.log(clipped / (1.0 - clipped)) + rng.normal(0.0, 0.5, n)
    x_linear = latent + rng.normal(0.0, 0.2, n)
    x_noise = rng.normal(0.0, 1.0, n)
    tier = np.digitize(latent + rng.normal(0.0, 0.15, n), (0.4, 0.65))
    lines = [f"group,label,{SCORE_COL},x_logit,x_linear,x_noise,l_tier"]
    fmt = f"{{:.{spec.decimals}f}}"
    for i in range(n):
        lines.append(
            ",".join(
                (
                    "a" if group_a[i] else "b",
                    str(label[i]),
                    fmt.format(score[i]),
                    f"{x_logit[i]:.6f}",
                    f"{x_linear[i]:.6f}",
                    f"{x_noise[i]:.6f}",
                    TIERS[tier[i]],
                )
            )
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def generate_inputs(workload: Workload, seed: int, directory: Path) -> dict[str, Path]:
    """Write the workload's CSVs and the assessment file; return them by key."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for key, spec in workload.inputs.items():
        paths[key] = directory / f"{key}.csv"
        generate_csv(paths[key], spec, seed)
    paths["assessment"] = directory / "assessment.json"
    paths["assessment"].write_text(json.dumps(ASSESSMENT, indent=2) + "\n", encoding="utf-8")
    return paths
