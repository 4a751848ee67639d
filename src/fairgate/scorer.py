"""Self-contained logistic regression scorer and seeded split machinery.

Newton's method on the L2-regularized log-likelihood with feature
standardization; no external ML dependency. Predicted scores are
probabilities strictly inside (0, 1).
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .model import Dataset

GRADIENT_TOL = 1e-12  # converged: every partial derivative of the loss is this close to 0
MAX_HALVINGS = 60  # of one Newton step; if none helps, the loss is at its floor


class DivergenceError(RuntimeError):
    """Newton's method met a non-finite loss, as when standardizing features overflows."""


class ConstantFeatureWarning(UserWarning):
    """A feature with zero variance was dropped before fitting."""


@dataclass(frozen=True)
class FitConfig:
    iterations: int = 2000  # the cap on Newton steps
    l2: float = 1e-4
    include_group: bool = False

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError(f"--iterations must be at least 1, got {self.iterations}")
        if not (math.isfinite(self.l2) and self.l2 >= 0.0):
            raise ValueError(f"--l2 must be finite and at least 0, got {self.l2}")


@dataclass(frozen=True)
class LogisticModel:
    """Fitted weights plus the standardization that produced them.

    ``source_feature_names`` is the incoming feature order; ``kept`` indexes
    the non-constant features actually used. ``group_values`` is nonempty
    when group membership was one-hot encoded into the design matrix.
    """

    source_feature_names: tuple[str, ...]
    kept: tuple[int, ...]
    group_values: tuple[str, ...]
    weights: tuple[float, ...]  # one per kept feature + group dummies
    intercept: float
    means: tuple[float, ...]
    stds: tuple[float, ...]
    final_loss: float


def split(dataset: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic stratified split preserving group proportions.

    Each group's record positions are shuffled with the seeded generator and
    cut at round(n_g * fraction), clamped so both sides keep at least one
    record. Each side takes the columns at its sorted row indices, so record
    order within each split follows the original dataset. Membership goes by
    position, so records that share an id split like any others.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train fraction must be in (0, 1), got {train_fraction}")
    rng = random.Random(seed)
    in_train = np.zeros(len(dataset), dtype=bool)
    codes = dataset.columns.group_codes
    for i, group in enumerate(dataset.groups):
        members = np.flatnonzero(codes == i).tolist()
        if len(members) < 2:
            raise ValueError(
                f"group {group!r} has {len(members)} record(s); need at least 2 to split"
            )
        rng.shuffle(members)
        take = round(len(members) * train_fraction)
        take = min(max(take, 1), len(members) - 1)
        in_train[members[:take]] = True
    take = lambda rows: dataclasses.replace(dataset, columns=dataset.columns.take(rows))
    return take(np.flatnonzero(in_train)), take(np.flatnonzero(~in_train))


def _design_matrix(dataset: Dataset, columns, group_values: Sequence[str]) -> np.ndarray:
    """The feature ``columns`` (a slice or indices), then one indicator per ``group_values``."""
    cols = dataset.columns
    if cols.features is None:
        raise ValueError(f"record {cols.ids[0]} has no features")
    x = cols.features[:, columns]
    if not group_values:
        return x
    one_hot = np.array([[float(g == v) for v in group_values] for g in dataset.groups])
    return np.hstack([x, one_hot[cols.group_codes]])


def fit(train: Dataset, config: FitConfig = FitConfig()) -> LogisticModel:
    """Standardize features and minimize the loss by damped Newton steps (IRLS).

    Each least-squares step is halved until it lowers the loss (or, where that
    is flat to rounding, the gradient); the fit stops at ``GRADIENT_TOL`` or
    when no halving helps. A singular Hessian still gives a least-squares step.
    """
    if not len(train):
        raise ValueError("cannot fit on an empty dataset")
    labels = train.columns.labels.astype(float)
    if labels.min() == labels.max():
        raise ValueError("training data must contain both outcome classes")
    group_values = tuple(train.groups) if config.include_group else ()
    raw = _design_matrix(train, slice(None), group_values)
    n_source = len(train.feature_names)

    means_all = raw.mean(axis=0)
    stds_all = raw.std(axis=0)
    keep_mask = stds_all > 0.0
    names = list(train.feature_names) + [f"group:{g}" for g in group_values]
    dropped = [name for name, keep in zip(names, keep_mask) if not keep]
    if dropped:
        warnings.warn(
            f"dropping constant feature(s): {dropped}", ConstantFeatureWarning, stacklevel=2
        )
    kept = np.flatnonzero(keep_mask).tolist()
    kept_source = tuple(i for i in kept if i < n_source)
    kept_groups = tuple(group_values[i - n_source] for i in kept if i >= n_source)
    standardized = (raw[:, keep_mask] - means_all[keep_mask]) / stds_all[keep_mask]
    x = np.column_stack([standardized, np.ones(len(raw))])  # the intercept's column last
    wb = np.zeros(x.shape[1])
    loss, grad, hessian = logistic_loss_terms(x, labels, wb, config.l2)
    if not math.isfinite(loss):
        raise DivergenceError("training loss is non-finite")
    for _ in range(config.iterations):
        if np.abs(grad).max() <= GRADIENT_TOL:
            break
        step = np.linalg.lstsq(hessian, grad, rcond=None)[0]
        for halvings in range(MAX_HALVINGS):
            trial = logistic_loss_terms(x, labels, wb - step / 2**halvings, config.l2)
            flat = abs(trial[0] - loss) <= np.finfo(float).eps * loss
            if trial[0] < loss or flat and np.abs(trial[1]).max() < np.abs(grad).max():
                break
        else:
            break  # no halving helps: the loss is at its floor
        wb, (loss, grad, hessian) = wb - step / 2**halvings, trial
    return LogisticModel(
        source_feature_names=train.feature_names,
        kept=kept_source,
        group_values=kept_groups,
        weights=tuple(float(v) for v in wb[:-1]),
        intercept=float(wb[-1]),
        means=tuple(float(v) for v in means_all[keep_mask]),
        stds=tuple(float(v) for v in stds_all[keep_mask]),
        final_loss=loss,
    )


def logistic_loss_terms(
    x: np.ndarray, labels: np.ndarray, wb: np.ndarray, l2: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """L2-regularized mean log-loss at ``wb``, with its gradient and Hessian in ``wb``.

    ``x`` ends in a column of ones, whose weight (the intercept) is not penalized.
    """
    p = 1.0 / (1.0 + np.exp(-np.clip(x @ wb, -30.0, 30.0)))
    penalty = np.append(np.full(len(wb) - 1, l2), 0.0)
    loss = -np.mean(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p))
    grad = x.T @ (p - labels) / len(labels) + penalty * wb
    hessian = (x.T * (p * (1.0 - p))) @ x / len(labels) + np.diag(penalty)
    return float(loss + 0.5 * penalty @ wb**2), grad, hessian


def score_dataset(model: LogisticModel, dataset: Dataset) -> Dataset:
    """Copy of the dataset with model scores, aligning features by name."""
    for name in model.source_feature_names:
        if name not in dataset.feature_names:
            raise ValueError(f"dataset misses feature {name!r} required by the model")
    if model.group_values:
        known = np.isin(dataset.groups, model.group_values)[dataset.columns.group_codes]
        if not known.all():
            row = int(np.argmin(known))
            group = dataset.groups[dataset.columns.group_codes[row]]
            raise ValueError(f"record {dataset.columns.ids[row]}: unknown group {group!r}")
    order = [dataset.feature_names.index(model.source_feature_names[i]) for i in model.kept]
    x = (_design_matrix(dataset, order, model.group_values) - model.means) / model.stds
    # One dot product per row, summed as the dot product of a lone row is: the rows
    # must be contiguous, as column indexing leaves them strided.
    x = np.ascontiguousarray(x)
    z = np.matmul(x[:, None, :], np.array(model.weights)[:, None])[:, 0, 0]
    scores = 1.0 / (1.0 + np.exp(-np.clip(z + model.intercept, -30.0, 30.0)))
    columns = dataclasses.replace(dataset.columns, scores=scores)
    return dataclasses.replace(dataset, columns=columns)


def save_model(path: str | Path, model: LogisticModel) -> None:
    doc = dataclasses.asdict(model)  # field order; tuples are written as lists
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> LogisticModel:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return LogisticModel(**{k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()})
