import json
from pathlib import Path

import numpy as np
import pytest

from fairgate.cli import ColumnRoles, load_csv, main
from fairgate.model import Dataset, Record
from fairgate.scorer import (
    GRADIENT_TOL,
    FitConfig,
    _design_matrix,
    fit,
    load_model,
    logistic_loss_terms,
    save_model,
    score_dataset,
    split,
)

GOLDEN_INPUT = Path(__file__).parent / "golden" / "cli" / "input.csv"


def loss_terms_instance(seed):
    """Features with a column of ones last, labels, weights with the intercept last."""
    rng = np.random.default_rng(seed)
    x = np.column_stack([rng.normal(size=(40, 3)), np.ones(40)])
    labels = (rng.random(40) < 0.5).astype(float)
    return x, labels, np.append(rng.normal(size=3), 0.3)


def test_gradient_matches_finite_differences():
    x, labels, wb = loss_terms_instance(5)
    _, grad, _ = logistic_loss_terms(x, labels, wb, 0.01)
    loss = lambda wb: logistic_loss_terms(x, labels, wb, 0.01)[0]
    h = 1e-6
    for i in range(4):  # the three weights, then the intercept
        step = np.eye(4)[i] * h
        numeric = (loss(wb + step) - loss(wb - step)) / (2 * h)
        assert numeric == pytest.approx(grad[i], abs=1e-7)


def test_hessian_matches_finite_differences():
    x, labels, wb = loss_terms_instance(6)
    _, _, hessian = logistic_loss_terms(x, labels, wb, 0.01)
    gradient = lambda wb: logistic_loss_terms(x, labels, wb, 0.01)[1]
    h = 1e-6
    for i in range(4):
        step = np.eye(4)[i] * h
        numeric = (gradient(wb + step) - gradient(wb - step)) / (2 * h)
        assert numeric == pytest.approx(hessian[:, i], abs=1e-7)


def seeded_dataset(rows, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, 3)) * (1.0, 5.0, 0.2)
    logit = x @ np.array([0.8, -0.1, 2.0]) + 0.3
    labels = (rng.random(rows) < 1.0 / (1.0 + np.exp(-logit))).astype(int)
    records = [
        Record(str(i), int(labels[i]), "abc"[i % 3], features=tuple(x[i])) for i in range(rows)
    ]
    return Dataset.from_records(records, feature_names=("x_0", "x_1", "x_2"))


def golden_training_split():
    return split(load_csv(GOLDEN_INPUT, ColumnRoles("group", "label")), 2.0 / 3.0, seed=0)[0]


# The final loss of each fit below under 2,000 fixed gradient steps at rate
# 0.1, the method that Newton's method replaced: it must not come out higher.
FIXED_STEP_LOSS = {
    ("golden", False): 0.6115382617968786,
    ("seeded_20k", False): 0.5919768605153706,
    ("seeded_20k", True): 0.5919695404257043,
}


@pytest.mark.parametrize("data, include_group", sorted(FIXED_STEP_LOSS))
def test_the_fit_converges(data, include_group):
    dataset = golden_training_split() if data == "golden" else seeded_dataset(20_000, 11)
    config = FitConfig(include_group=include_group)
    model = fit(dataset, config)
    design = _design_matrix(dataset, list(model.kept), model.group_values)
    x = np.column_stack([(design - model.means) / model.stds, np.ones(len(dataset))])
    labels = dataset.columns.labels.astype(float)
    wb = np.array([*model.weights, model.intercept])
    loss, grad, _ = logistic_loss_terms(x, labels, wb, config.l2)
    assert np.abs(grad).max() <= GRADIENT_TOL
    assert loss == model.final_loss <= FIXED_STEP_LOSS[data, include_group]


@pytest.mark.parametrize("include_group", [False, True])
def test_collinear_columns_fit_without_regularization(include_group, tmp_path):
    # A copied feature column, and with --use-group-feature the group dummies
    # beside the intercept, make the Hessian singular at --l2 0.
    lines = GOLDEN_INPUT.read_text(encoding="utf-8").splitlines()
    copy = [lines[0] + ",x_copy"]
    copy += [line + "," + line.split(",")[4] for line in lines[1:]]
    (tmp_path / "in.csv").write_text("\n".join(copy) + "\n", encoding="utf-8")
    argv = ["fit", "--input", str(tmp_path / "in.csv"), "--l2", "0", "--out", str(tmp_path)]
    assert main(argv + ["--use-group-feature"] * include_group) == 0
    model = json.loads((tmp_path / "model.json").read_text(encoding="utf-8"))
    assert len(model["weights"]) == 3 + 2 * include_group
    assert np.isfinite(model["weights"]).all() and np.isfinite(model["intercept"])


def test_separable_data_stops_without_regularization():
    # No finite optimum exists; the fit still ends, with a loss near zero.
    records = [
        Record(str(i), int(i >= 50), "ab"[i % 2], features=(i / 10.0,)) for i in range(100)
    ]
    model = fit(Dataset.from_records(records, feature_names=("x_0",)), FitConfig(l2=0.0))
    assert np.isfinite(model.weights).all() and model.final_loss < 1e-6


@pytest.mark.parametrize("id_of", [lambda i: str(i // 2), lambda i: str(i % 3)])
def test_split_goes_by_position_when_ids_repeat(id_of):
    records = [
        Record(id_of(i), i % 2, "ab"[i % 2], score=0.5, legit={}) for i in range(300)
    ]
    train, test = split(Dataset.from_records(records), 2.0 / 3.0, seed=4)
    assert (len(train), len(test)) == (200, 100)
    for part, size in ((train, 100), (test, 50)):
        assert sorted(r.group for r in part.records) == ["a"] * size + ["b"] * size


def predict_one(model, features, group):
    """Per-record reference: the model's score of one feature tuple and group."""
    values = [features[i] for i in model.kept]
    values += [1.0 if group == g else 0.0 for g in model.group_values]
    x = (np.array(values) - np.array(model.means)) / np.array(model.stds)
    z = float(np.clip(x @ np.array(model.weights) + model.intercept, -30.0, 30.0))
    return 1.0 / (1.0 + np.exp(-z))


@pytest.mark.parametrize("include_group", [False, True])
def test_array_scores_equal_the_per_record_reference(include_group):
    rng = np.random.default_rng(8)
    x = rng.normal(size=(600, 6)) * rng.uniform(0.1, 50.0, size=6)
    labels = (rng.random(600) < 1.0 / (1.0 + np.exp(-x[:, 0] / 50.0))).astype(int)
    records = [
        Record(str(i), int(labels[i]), "abc"[i % 3], features=tuple(x[i])) for i in range(600)
    ]
    names = tuple(f"x_{j}" for j in range(6))
    dataset = Dataset.from_records(records, feature_names=names)
    model = fit(dataset, FitConfig(include_group=include_group))
    scores = score_dataset(model, dataset).columns.scores.tolist()
    # Exact equality: the array path must sum each dot product as the per-record one does.
    assert scores == [predict_one(model, r.features, r.group) for r in dataset.records]


@pytest.mark.parametrize("include_group", [False, True])
def test_saved_model_loads_back(tmp_path, include_group):
    rng = np.random.default_rng(9)
    x = rng.normal(size=(90, 3))
    x[:, 1] = 2.5  # constant: dropped, so ``kept`` skips an index
    labels = (rng.random(90) < 1.0 / (1.0 + np.exp(-x[:, 0]))).astype(int)
    records = [
        Record(str(i), int(labels[i]), "abc"[i % 3], features=tuple(x[i])) for i in range(90)
    ]
    dataset = Dataset.from_records(records, feature_names=("x_0", "x_1", "x_2"))
    with pytest.warns(UserWarning, match="dropping constant feature"):
        model = fit(dataset, FitConfig(include_group=include_group))
    assert bool(model.group_values) == include_group
    save_model(tmp_path / "model.json", model)
    loaded = load_model(tmp_path / "model.json")
    assert loaded == model  # lists read back as tuples, or this fails
    assert score_dataset(loaded, dataset).columns.scores.tolist() == (
        score_dataset(model, dataset).columns.scores.tolist()
    )


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"l2": -1.0}, "--l2 must be finite and at least 0, got -1.0"),
        ({"l2": float("nan")}, "--l2 must be finite and at least 0, got nan"),
    ],
    ids=["negative_l2", "nan_l2"],
)
def test_a_fit_config_checks_its_fields(fields, message):
    with pytest.raises(ValueError) as info:
        FitConfig(**fields)
    assert str(info.value) == message
