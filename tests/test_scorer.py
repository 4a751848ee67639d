import numpy as np
import pytest

from fairgate.model import Dataset, Record
from fairgate.scorer import (
    FitConfig,
    fit,
    load_model,
    logistic_loss_and_gradient,
    save_model,
    score_dataset,
    split,
)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(40, 3))
    labels = (rng.random(40) < 0.5).astype(float)
    w, b, l2 = rng.normal(size=3), 0.3, 0.01
    _, grad_w, grad_b = logistic_loss_and_gradient(x, labels, w, b, l2)
    loss = lambda w, b: logistic_loss_and_gradient(x, labels, w, b, l2)[0]
    h = 1e-6
    for i in range(3):
        step = np.eye(3)[i] * h
        numeric = (loss(w + step, b) - loss(w - step, b)) / (2 * h)
        assert numeric == pytest.approx(grad_w[i], abs=1e-7)
    assert (loss(w, b + h) - loss(w, b - h)) / (2 * h) == pytest.approx(grad_b, abs=1e-7)


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
    model = fit(dataset, FitConfig(iterations=50, include_group=include_group))
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
        model = fit(dataset, FitConfig(iterations=40, include_group=include_group))
    assert bool(model.group_values) == include_group
    save_model(tmp_path / "model.json", model)
    loaded = load_model(tmp_path / "model.json")
    assert loaded == model  # lists read back as tuples, or this fails
    assert score_dataset(loaded, dataset).columns.scores.tolist() == (
        score_dataset(model, dataset).columns.scores.tolist()
    )
