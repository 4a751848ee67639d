import numpy as np
import pytest

from fairgate.model import Dataset, Record
from fairgate.scorer import logistic_loss_and_gradient, split


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
