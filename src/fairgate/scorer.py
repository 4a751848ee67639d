"""Self-contained logistic regression scorer and seeded split machinery.

Full-batch gradient descent on the L2-regularized log-likelihood with
feature standardization; no external ML dependency. Predicted scores are
probabilities strictly inside (0, 1).
"""

from __future__ import annotations

import dataclasses
import json
import random
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .model import Dataset


class DivergenceError(RuntimeError):
    """Training produced a non-finite or increasing loss; lower the learning rate."""


class ConstantFeatureWarning(UserWarning):
    """A feature with zero variance was dropped before fitting."""


@dataclass(frozen=True)
class FitConfig:
    learning_rate: float = 0.1
    iterations: int = 2000
    l2: float = 1e-4
    include_group: bool = False


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

    @property
    def feature_names(self) -> tuple[str, ...]:
        named = tuple(self.source_feature_names[i] for i in self.kept)
        return named + tuple(f"group:{g}" for g in self.group_values)


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
    """Standardize features and run full-batch gradient descent.

    Raises DivergenceError when the loss goes non-finite or fails to be
    non-increasing over the last tenth of the iterations.
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
    x = (raw[:, keep_mask] - means_all[keep_mask]) / stds_all[keep_mask]
    w = np.zeros(x.shape[1])
    b = 0.0
    losses = []
    for _ in range(config.iterations):
        loss, grad_w, grad_b = logistic_loss_and_gradient(x, labels, w, b, config.l2)
        if not np.isfinite(loss):
            raise DivergenceError(
                "training loss became non-finite; try a smaller learning rate"
            )
        losses.append(loss)
        w -= config.learning_rate * grad_w
        b -= config.learning_rate * grad_b
    tail = losses[-max(config.iterations // 10, 2) :]
    if any(later > earlier + 1e-10 for earlier, later in zip(tail, tail[1:])):
        raise DivergenceError(
            "training loss increased near the end; try a smaller learning rate"
        )
    return LogisticModel(
        source_feature_names=train.feature_names,
        kept=kept_source,
        group_values=kept_groups,
        weights=tuple(float(v) for v in w),
        intercept=float(b),
        means=tuple(float(v) for v in means_all[keep_mask]),
        stds=tuple(float(v) for v in stds_all[keep_mask]),
        final_loss=float(losses[-1]),
    )


def logistic_loss_and_gradient(
    x: np.ndarray, labels: np.ndarray, w: np.ndarray, b: float, l2: float
) -> tuple[float, np.ndarray, float]:
    """L2-regularized mean log-loss at (w, b), with its gradient in w and in b."""
    z = np.clip(x @ w + b, -30.0, 30.0)
    p = 1.0 / (1.0 + np.exp(-z))
    loss = (
        -np.mean(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p))
        + 0.5 * l2 * float(w @ w)
    )
    err = p - labels
    return float(loss), x.T @ err / len(labels) + l2 * w, float(err.mean())


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
