"""The one training loop both networks share: minibatch SGD with classical
momentum and global-norm gradient clipping, plus the input standardizer
both apply, fit on the training inputs. Each model module holds its own
recipe (`EPOCHS`, `LR`, `BATCH`) and passes it in."""

from __future__ import annotations

import numpy as np

MOMENTUM = 0.9
CLIP_NORM = 5.0
STD_FLOOR = 1e-6  # the least std a model divides by


def fit_standardizer(model, X: np.ndarray) -> None:
    """Per-feature mean/std over every row of X's last axis."""
    flat = X.reshape(-1, X.shape[-1])
    model.input_mean = flat.mean(axis=0)
    model.input_std = np.maximum(flat.std(axis=0), STD_FLOOR)


def standardize(model, x: np.ndarray) -> np.ndarray:
    """x standardized by the model's per-feature input statistics."""
    return (x - model.input_mean) / model.input_std


def sgd_epochs(model, arrays: tuple[np.ndarray, ...], epochs: int, lr: float,
               batch: int, seed: int):
    """Train `model.theta` in place on `model.loss_and_grad(*minibatch)` for
    `epochs` passes at step size `lr`, yielding the epoch index and the
    mean of its minibatch losses after each pass over the data.

    Each epoch draws one permutation from a generator seeded by `seed` and
    slices every array in `arrays` with the same minibatch indices of at
    most `batch` rows."""
    velocity = np.zeros_like(model.theta)
    rng = np.random.default_rng(seed)
    n = len(arrays[0])
    starts = range(0, n, batch)
    for epoch in range(epochs):
        order = rng.permutation(n)
        total = 0.0
        for lo in starts:
            idx = order[lo:lo + batch]
            loss, grad = model.loss_and_grad(*(a[idx] for a in arrays))
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch}, batch offset {lo}: {loss}")
            norm = float(np.linalg.norm(grad))
            if norm > CLIP_NORM:
                grad = grad * (CLIP_NORM / norm)
            velocity *= MOMENTUM
            velocity -= lr * grad
            model.theta += velocity
            total += float(loss)
        yield epoch, total / len(starts)
