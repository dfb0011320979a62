"""Recurrent slip/max-force predictor: one gated recurrent layer plus two
heads, trained with backpropagation through time written out by hand.

From a window of haptic feature vectors the model predicts, a fixed
horizon ahead: the probability that slip is occurring, the maximum
tactile force value, and the grid cell where it lands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..simulation import GRID_ROWS
from ..tactile import FEATURE_DIM
from .optim import STD_FLOOR, fit_standardizer, sgd_epochs, standardize
from .params import ParamLayout

GRID_MAX = GRID_ROWS - 1  # highest row/col index of the square tactile grid
BATCH = 64     # windows per SGD step
EPOCHS = 8     # passes over a default predictor's windows
# a material predictor sees a fifth of the windows; more passes keep the
# gradient-step count comparable to the default's
MATERIAL_EPOCHS = 24
LR = 0.05      # SGD step size
HIDDEN = 32    # GRU state width
WINDOW = 20    # feature frames per prediction
HORIZON = 10   # steps ahead the targets sit (50 ms at sim dt)


@dataclass(frozen=True)
class Prediction:
    slip_prob: float
    force_value: float          # N


def _sigmoid(x, out=None):
    """0.5 * (1 + tanh(0.5 x)), computed in one array: `out`, which may be
    x itself, or a new one."""
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def _gru_cell(gx, h, Uzr, Un, b):
    """One GRU step for the hidden states h (B, H), given the inputs'
    projection gx = x @ Wx, (B, 3H) or (1, 3H) shared by every row.
    Returns (h_new, z, r, n), each a new array. Each gate's terms are
    added in place, in the order of ((gx + h U) + b), so every result has
    the bits of that sum written out."""
    H = h.shape[1]
    zr = h @ Uzr
    zr += gx[:, :2 * H]
    zr += b[:2 * H]
    _sigmoid(zr, out=zr)
    z, r = zr[:, :H], zr[:, H:]
    rh = r * h
    n = rh @ Un
    n += gx[:, 2 * H:]
    n += b[2 * H:]
    np.tanh(n, out=n)
    h_new = 1.0 - z
    h_new *= n
    h_new += np.multiply(z, h, out=rh)
    return h_new, z, r, n


def _heads(h, ws, bs, wf, bf):
    """(slip_logit (B,), force_norm (B,)) from final hidden states h (B, H)
    and the slip and force heads' weights; the cell head is `forward`'s."""
    return h @ ws + bs[0], h @ wf + bf[0]


class SlipPredictor:
    """The GRU of one motion, and of one material for a material model.
    Its architecture is the class attributes; a model file holds the
    parameters, the input and force statistics, the motion and the
    material. Its targets sit HORIZON steps past each window's end."""

    input_dim, hidden, window = FEATURE_DIM, HIDDEN, WINDOW

    def __init__(self, theta: np.ndarray | None = None, seed: int = 0,
                 motion: str = "", material: str | None = None):
        d, h = self.input_dim, self.hidden
        # the recurrent layer's rows are stacked in gate order z, r, n
        self.layout = ParamLayout([
            ("W", (3 * h, d)), ("U", (3 * h, h)), ("b", (3 * h,)),
            ("ws", (h,)), ("bs", (1,)),
            ("wf", (h,)), ("bf", (1,)),
            ("Wc", (2, h)), ("bc", (2,)),
        ])
        self.motion = motion
        self.material = material
        if theta is not None:
            if len(theta) != self.layout.n_params:
                raise ValueError("parameter vector length mismatch")
            self.theta = np.asarray(theta, dtype=float).copy()
        else:
            self.theta = self._init_params(seed)
        self.input_mean = np.zeros(d)
        self.input_std = np.ones(d)
        self.force_mean = 0.0
        self.force_std = 1.0

    @property
    def scope(self) -> str:
        """`material` for a model that names its material, else `default`."""
        return "material" if self.material else "default"

    def _init_params(self, seed: int) -> np.ndarray:
        """N(0, 1 / fan_in) weights and zero biases, drawn gate by gate (W
        rows, then U rows) and then the heads: the values each seed gave
        when theta stored the gates apart."""
        rng = np.random.default_rng(seed)
        theta = self.layout.zeros()
        v = self.layout.views(theta)
        H = self.hidden
        gates = [m[g * H:(g + 1) * H] for g in range(3) for m in (v["W"], v["U"])]
        for arr in gates + [v["ws"], v["wf"], v["Wc"]]:
            arr[...] = rng.normal(0.0, 1.0 / np.sqrt(arr.shape[-1]), arr.shape)
        return theta

    def _gru_weights(self):
        """The recurrent layer's weights for `_gru_cell`, as views of theta:
        input weights (input_dim, 3H) for z, r, n; z/r recurrent weights
        (H, 2H); the n recurrent weights (H, H); biases (3H,)."""
        v = self.layout.views(self.theta)
        H = self.hidden
        return v["W"].T, v["U"][:2 * H].T, v["U"][2 * H:].T, v["b"]

    def _head_weights(self):
        """(ws, bs, wf, bf, Wc, bc): the slip, force and cell heads' weights,
        as views of theta; the first four are `_heads`'s."""
        return tuple(self.layout.view(self.theta, name) for name
                     in ("ws", "bs", "wf", "bf", "Wc", "bc"))

    def forward(self, X: np.ndarray, want_cache: bool = False):
        """X: (B, W, input_dim) raw features. Returns (outputs, cache) where
        outputs = (slip_logit (B,), force_norm (B,), cell_norm (B, 2))."""
        if X.ndim != 3 or X.shape[1:] != (self.window, self.input_dim):
            raise ValueError(f"expected (B, {self.window}, {self.input_dim}) "
                             f"window batch, got {X.shape}")
        Wx, Uzr, Un, b = self._gru_weights()
        x = standardize(self, X)
        B, W, _ = x.shape
        h = np.zeros((B, self.hidden))
        zs, rs, ns, hs = [], [], [], [h]
        for t in range(W):
            h, z, r, n = _gru_cell(x[:, t] @ Wx, h, Uzr, Un, b)
            if want_cache:
                zs.append(z); rs.append(r); ns.append(n); hs.append(h)
        cache = (x, zs, rs, ns, hs) if want_cache else None
        ws, bs, wf, bf, Wc, bc = self._head_weights()
        return (*_heads(h, ws, bs, wf, bf), h @ Wc.T + bc), cache

    def loss_and_grad(self, X: np.ndarray, y_slip: np.ndarray,
                      y_force: np.ndarray, y_cell: np.ndarray):
        """Joint loss: BCE(slip) + MSE(normalized force) + MSE(normalized cell).

        Targets arrive in natural units (bool, N, grid indices) and are
        normalized with the model's stored statistics. Each step back
        fills one (B, 3H) block of gate gradients, stacked as W, U and b
        are; dh keeps its z and r products apart, as one stacked product
        would sum in another order.
        """
        v = self.layout.views(self.theta)
        H = self.hidden
        (slip_logit, force, cell), cache = self.forward(X, want_cache=True)
        x, zs, rs, ns, hs = cache
        B = len(X)
        ys = np.asarray(y_slip, dtype=float)
        yf = (np.asarray(y_force, dtype=float) - self.force_mean) / self.force_std
        yc = np.asarray(y_cell, dtype=float) / GRID_MAX

        # Stable BCE from logits.
        bce = np.maximum(slip_logit, 0.0) - slip_logit * ys + \
            np.log1p(np.exp(-np.abs(slip_logit)))
        mse_f = (force - yf) ** 2
        mse_c = ((cell - yc) ** 2).mean(axis=1)
        loss = float(np.mean(bce + mse_f + mse_c))

        grad = self.layout.zeros()
        gv = self.layout.views(grad)
        d_logit = (_sigmoid(slip_logit) - ys) / B
        d_force = 2.0 * (force - yf) / B
        d_cell = (cell - yc) / B  # 2/B * 1/2 from the component mean

        hW = hs[-1]
        gv["ws"][...] = hW.T @ d_logit
        gv["bs"][...] = d_logit.sum()
        gv["wf"][...] = hW.T @ d_force
        gv["bf"][...] = d_force.sum()
        gv["Wc"][...] = d_cell.T @ hW
        gv["bc"][...] = d_cell.sum(axis=0)
        dh = (d_logit[:, None] * v["ws"] + d_force[:, None] * v["wf"]
              + d_cell @ v["Wc"])

        U, gU = v["U"], gv["U"]
        d_gates = np.empty((B, 3 * H))
        dz, dr, dn = d_gates[:, :H], d_gates[:, H:2 * H], d_gates[:, 2 * H:]
        for t in reversed(range(self.window)):
            z, r, n = zs[t], rs[t], ns[t]
            h_prev = hs[t]
            dz[...] = dh * (h_prev - n) * z * (1.0 - z)
            dn[...] = dh * (1.0 - z) * (1.0 - n ** 2)
            d_rh = dn @ U[2 * H:]  # gradient at r * h_prev
            dr[...] = d_rh * h_prev * r * (1.0 - r)
            gv["W"] += d_gates.T @ x[:, t]
            gU[:2 * H] += d_gates[:, :2 * H].T @ h_prev
            gU[2 * H:] += dn.T @ (r * h_prev)
            gv["b"] += d_gates.sum(axis=0)
            dh = dh * z + dz @ U[:H] + dr @ U[H:2 * H] + d_rh * r
        return loss, grad


def train_predictor(X: np.ndarray, y_slip: np.ndarray, y_force: np.ndarray,
                    y_cell: np.ndarray, epochs: int, seed: int,
                    motion: str = "shaking",
                    material: str | None = None) -> tuple[SlipPredictor, list]:
    """Fit a predictor on windowed features (`dataset.predictor_windows`),
    `epochs` passes initialized and shuffled from `seed`; naming a
    material makes it a material model.
    Returns the model and its training curve, one (epoch, mean minibatch
    loss) per epoch."""
    if len(X) == 0:
        raise ValueError("empty predictor training set")
    model = SlipPredictor(seed=seed, motion=motion, material=material)
    fit_standardizer(model, X)
    model.force_mean = float(np.mean(y_force))
    model.force_std = float(max(np.std(y_force), STD_FLOOR))
    curve = list(sgd_epochs(model, (X, y_slip, y_force, y_cell), epochs, LR,
                            BATCH, seed))
    return model, curve


class FeatureWindow:
    """The GRU states of every window in flight over one model's stream of
    feature frames.

    The state block holds one row per window in flight: row k has seen the
    k + 1 newest frames, so row W - 1 is the final state of the window of
    the W newest frames. A push normalizes and projects the frame once,
    then one batched cell step shifts in a zero row and advances all W
    windows. The frames are not kept: another model's view of the stream
    is a new window for that model, pushed the W newest frames. The
    model's parameters must not change while its window is in use.
    """

    def __init__(self, model: SlipPredictor):
        self.model = model
        self._gru = model._gru_weights()
        # predict reads the slip and force heads alone
        self._heads = model._head_weights()[:4]
        # the block is _h[1:]; _h[0] stays zero, so _h[:-1] is the block
        # shifted down by one row with a zero row in front
        self._h = np.zeros((model.window + 1, model.hidden))
        self._count = 0     # frames pushed

    @property
    def full(self) -> bool:
        return self._count >= self.model.window

    def push(self, frame: np.ndarray) -> None:
        frame = np.asarray(frame, dtype=float)
        d = self.model.input_dim
        if frame.shape != (d,):
            raise ValueError(f"expected a ({d},) feature frame, got {frame.shape}")
        Wx, Uzr, Un, b = self._gru
        gx = standardize(self.model, frame)[None] @ Wx
        self._h[1:] = _gru_cell(gx, self._h[:-1], Uzr, Un, b)[0]
        self._count += 1


def predict(window: FeatureWindow) -> Prediction:
    """One prediction of the window's model from a full `FeatureWindow`:
    its heads over the final state of the W newest frames."""
    W = window.model.window
    if not window.full:
        raise ValueError(f"feature window has {window._count} of {W} frames")
    slip_prob, force = _natural_units(
        window.model, *_heads(window._h[W:], *window._heads))
    return Prediction(slip_prob=float(slip_prob[0]), force_value=float(force[0]))


def predict_batch(model: SlipPredictor, X: np.ndarray):
    """Vectorized predict over (N, W, input_dim); returns arrays
    (slip_prob, force_value, cell_float)."""
    (slip_logit, force, cell), _ = model.forward(X)
    # maximum(0.0, x), in this order, keeps np.clip's sign of zero
    return (*_natural_units(model, slip_logit, force),
            np.minimum(np.maximum(0.0, cell * GRID_MAX), GRID_MAX))


def _natural_units(model: SlipPredictor, slip_logit, force):
    """(slip probability, force in N) from the slip and force heads."""
    return _sigmoid(slip_logit), force * model.force_std + model.force_mean
