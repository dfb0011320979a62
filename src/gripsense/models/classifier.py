"""MFCC material classifier: a small 1-D CNN over the time axis.

Architecture: conv(k=3) -> ReLU -> maxpool(2) -> conv(k=3) -> ReLU ->
maxpool(2) -> global average pool -> affine -> 5-way softmax. Forward and
backward passes are written out explicitly.
"""

from __future__ import annotations

import numpy as np

from ..dsp import N_COEFFS
from ..materials import MATERIAL_CLASSES
from .metrics import accuracy
from .optim import fit_standardizer, sgd_epochs, standardize
from .params import ParamLayout


BATCH = 32           # segments per SGD step
EPOCHS = 30          # passes over the augmented train split
LR = 0.01            # SGD step size
CHANNELS = (16, 32)  # output channels of the two conv layers
KERNEL = 3           # taps of each conv layer


class MaterialClassifier:
    """The CNN over MATERIAL_CLASSES, in that order. Its architecture is
    the class attributes; a model file holds the parameters and the input
    statistics."""

    n_coeffs, channels, kernel = N_COEFFS, CHANNELS, KERNEL

    def __init__(self, theta: np.ndarray | None = None, seed: int = 0):
        c1, c2 = self.channels
        n = len(MATERIAL_CLASSES)
        self.layout = ParamLayout([
            ("W1", (c1, self.n_coeffs, self.kernel)), ("b1", (c1,)),
            ("W2", (c2, c1, self.kernel)), ("b2", (c2,)),
            ("W3", (n, c2)), ("b3", (n,)),
        ])
        if theta is not None:
            if len(theta) != self.layout.n_params:
                raise ValueError("parameter vector length mismatch")
            self.theta = np.asarray(theta, dtype=float).copy()
        else:
            self.theta = self._init_params(seed)
        # Per-coefficient standardization fitted on the training set.
        self.input_mean = np.zeros(self.n_coeffs)
        self.input_std = np.ones(self.n_coeffs)

    def _init_params(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        theta = self.layout.zeros()
        v = self.layout.views(theta)
        for w in ("W1", "W2", "W3"):
            fan_in = int(np.prod(v[w].shape[1:]))
            v[w][...] = rng.normal(0.0, np.sqrt(2.0 / fan_in), v[w].shape)
        return theta

    def forward(self, x: np.ndarray, want_cache: bool = False):
        """x: (B, T, n_coeffs) raw MFCC frames. Returns (probs, cache)."""
        if x.ndim != 3 or x.shape[2] != self.n_coeffs:
            raise ValueError(f"expected (B, T, {self.n_coeffs}) input, got {x.shape}")
        v = self.layout.views(self.theta)
        h0 = standardize(self, x).transpose(0, 2, 1)  # (B, C0, T)
        z1 = _conv1d(h0, v["W1"], v["b1"])
        a1 = np.maximum(z1, 0.0)
        p1, arg1 = _maxpool2(a1)
        z2 = _conv1d(p1, v["W2"], v["b2"])
        a2 = np.maximum(z2, 0.0)
        p2, arg2 = _maxpool2(a2)
        g = p2.mean(axis=2)
        logits = g @ v["W3"].T + v["b3"]
        shifted = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        probs = e / e.sum(axis=1, keepdims=True)
        cache = (h0, z1, a1, arg1, p1, z2, a2, arg2, p2, g, probs) if want_cache else None
        return probs, cache

    def loss_and_grad(self, x: np.ndarray, y: np.ndarray):
        """Mean cross-entropy and the flat parameter gradient."""
        v = self.layout.views(self.theta)
        probs, cache = self.forward(x, want_cache=True)
        h0, z1, a1, arg1, p1, z2, a2, arg2, p2, g, _ = cache
        B = len(x)
        eps = 1e-12
        loss = float(-np.mean(np.log(probs[np.arange(B), y] + eps)))

        grad = self.layout.zeros()
        gv = self.layout.views(grad)
        dlogits = probs.copy()
        dlogits[np.arange(B), y] -= 1.0
        dlogits /= B
        gv["W3"][...] = dlogits.T @ g
        gv["b3"][...] = dlogits.sum(axis=0)
        dg = dlogits @ v["W3"]
        dp2 = np.repeat(dg[:, :, None] / p2.shape[2], p2.shape[2], axis=2)
        da2 = _maxpool2_back(dp2, arg2, a2.shape)
        dz2 = da2 * (z2 > 0)
        _conv1d_param_grads(dz2, p1, gv["W2"], gv["b2"])
        dp1 = np.zeros_like(p1)
        for k in range(self.kernel):  # (C1, C2) @ (B, C2, To) per tap
            dp1[:, :, k:k + dz2.shape[2]] += np.matmul(v["W2"][:, :, k].T, dz2)
        da1 = _maxpool2_back(dp1, arg1, a1.shape)
        dz1 = da1 * (z1 > 0)
        _conv1d_param_grads(dz1, h0, gv["W1"], gv["b1"])
        return loss, grad


def _conv1d(x: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Valid cross-correlation along time: x (B,Cin,T) * W (Cout,Cin,K)."""
    K = W.shape[2]
    To = x.shape[2] - K + 1
    y = np.broadcast_to(b[None, :, None], (x.shape[0], W.shape[0], To)).copy()
    for k in range(K):
        # (Cout, Cin) @ (B, Cin, To): one GEMM per segment of the batch
        y += np.matmul(W[:, :, k], x[:, :, k:k + To])
    return y


def _conv1d_param_grads(dy: np.ndarray, x: np.ndarray,
                        dW: np.ndarray, db: np.ndarray) -> None:
    """Gradients of _conv1d's weights and bias, written into dW and db."""
    To = dy.shape[2]
    db[...] = dy.sum(axis=(0, 2))
    for k in range(dW.shape[2]):
        dW[:, :, k] = np.tensordot(dy, x[:, :, k:k + To], axes=([0, 2], [0, 2]))


def _maxpool2(x: np.ndarray):
    """Max over adjacent time pairs, and where the odd element won: a tie
    goes to the even one, as argmax's does."""
    Tp = x.shape[2] // 2
    even, odd = x[:, :, 0:2 * Tp:2], x[:, :, 1:2 * Tp:2]
    arg = odd > even
    return np.where(arg, odd, even), arg


def _maxpool2_back(dp: np.ndarray, arg: np.ndarray, x_shape: tuple) -> np.ndarray:
    Tp = dp.shape[2]
    dx = np.zeros(x_shape)
    dx[:, :, 0:2 * Tp:2] = np.where(arg, 0.0, dp)
    dx[:, :, 1:2 * Tp:2] = np.where(arg, dp, 0.0)
    return dx


def _to_arrays(dataset):
    index = {name: i for i, name in enumerate(MATERIAL_CLASSES)}
    return (np.stack([frames for frames, _ in dataset]),
            np.asarray([index[label] for _, label in dataset]))


def train_classifier(train_set, val_set, epochs: int, seed: int):
    """Minibatch SGD with momentum on cross-entropy for `epochs` passes,
    initialized and shuffled from `seed`; returns the model with the best
    validation-accuracy weights and the training curve, one (epoch, mean
    minibatch loss, validation accuracy) per epoch."""
    x_train, y_train = _to_arrays(train_set)
    present = set(y_train.tolist())
    missing = [c for i, c in enumerate(MATERIAL_CLASSES) if i not in present]
    if missing:
        raise ValueError(f"training split is missing classes: {missing}")

    model = MaterialClassifier(seed=seed)
    fit_standardizer(model, x_train)
    best_theta = model.theta.copy()
    best_acc = -1.0
    curve = []
    for epoch, loss in sgd_epochs(model, (x_train, y_train), epochs, LR,
                                  BATCH, seed):
        acc = accuracy(*classify_items(model, val_set))
        curve.append((epoch, loss, acc))
        if acc > best_acc:
            best_acc = acc
            best_theta = model.theta.copy()
    model.theta = best_theta
    return model, curve


def classify_items(model: MaterialClassifier, items):
    """(pred, truth): the predicted and the labeled class index of each
    (frames, label) item, from one batched forward pass."""
    x, truth = _to_arrays(items)
    probs, _ = model.forward(x)
    return probs.argmax(axis=1), truth


def classify(model: MaterialClassifier, frames: np.ndarray) -> np.ndarray:
    """Probability vector over MATERIAL_CLASSES for one (T, n_coeffs) MFCC
    matrix."""
    if frames.ndim != 2 or frames.shape[1] != model.n_coeffs:
        raise ValueError(f"expected (T, {model.n_coeffs}) MFCC matrix, "
                         f"got {frames.shape}")
    probs, _ = model.forward(frames[None])
    return probs[0]
