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
from .optim import TrainConfig, fit_standardizer, sgd_epochs
from .params import ParamLayout

GRID_MAX = GRID_ROWS - 1  # highest row/col index of the square tactile grid
BATCH = 64     # windows per SGD step


@dataclass(frozen=True)
class PredictorConfig:
    input_dim: int = FEATURE_DIM
    hidden: int = 32
    window: int = 20        # feature frames per prediction
    horizon: int = 10       # steps ahead the targets sit (50 ms at sim dt)
    seed: int = 0


@dataclass(frozen=True)
class Prediction:
    slip_prob: float
    force_value: float          # N


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _gru_cell(gx, h, Uzr, Un, b):
    """One GRU step for the hidden states h (B, H), given the inputs'
    projection gx = x @ Wx, (B, 3H) or (1, 3H) shared by every row.
    Returns (h_new, z, r, n)."""
    H = h.shape[1]
    zr = _sigmoid(gx[:, :2 * H] + h @ Uzr + b[:2 * H])
    z, r = zr[:, :H], zr[:, H:]
    n = np.tanh(gx[:, 2 * H:] + (r * h) @ Un + b[2 * H:])
    return (1.0 - z) * n + z * h, z, r, n


def _heads(h, ws, bs, wf, bf, Wc, bc):
    """(slip_logit (B,), force_norm (B,), cell_norm (B, 2)) from final
    hidden states h (B, H) and the head weights."""
    return h @ ws + bs[0], h @ wf + bf[0], h @ Wc.T + bc


def _layout(cfg: PredictorConfig) -> ParamLayout:
    d, h = cfg.input_dim, cfg.hidden
    return ParamLayout([
        ("Wz", (h, d)), ("Uz", (h, h)), ("bz", (h,)),
        ("Wr", (h, d)), ("Ur", (h, h)), ("br", (h,)),
        ("Wn", (h, d)), ("Un", (h, h)), ("bn", (h,)),
        ("ws", (h,)), ("bs", (1,)),
        ("wf", (h,)), ("bf", (1,)),
        ("Wc", (2, h)), ("bc", (2,)),
    ])


class SlipPredictor:
    def __init__(self, cfg: PredictorConfig = PredictorConfig(),
                 theta: np.ndarray | None = None, scope: str = "default",
                 motion: str = "", material: str | None = None):
        self.cfg = cfg
        self.layout = _layout(cfg)
        self.scope = scope
        self.motion = motion
        self.material = material
        if theta is not None:
            if len(theta) != self.layout.n_params:
                raise ValueError("parameter vector length mismatch")
            self.theta = np.asarray(theta, dtype=float).copy()
        else:
            self.theta = self._init_params(cfg.seed)
        self.input_mean = np.zeros(cfg.input_dim)
        self.input_std = np.ones(cfg.input_dim)
        self.force_mean = 0.0
        self.force_std = 1.0

    def _init_params(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        theta = self.layout.zeros()
        v = self.layout.views(theta)
        for name, arr in v.items():
            if name.startswith("b"):
                continue
            fan_in = arr.shape[-1] if arr.ndim > 1 else arr.shape[0]
            arr[...] = rng.normal(0.0, 1.0 / np.sqrt(fan_in), arr.shape)
        return theta

    def _normalize(self, X: np.ndarray) -> np.ndarray:
        return (X - self.input_mean) / self.input_std

    def _gru_weights(self):
        """The recurrent layer's weights, stacked for `_gru_cell`: input
        weights (input_dim, 3H) for z, r, n; z/r recurrent weights (H, 2H);
        the n recurrent weights (H, H); biases (3H,)."""
        v = self.layout.views(self.theta)
        return (np.concatenate([v["Wz"], v["Wr"], v["Wn"]]).T,
                np.concatenate([v["Uz"], v["Ur"]]).T, v["Un"].T,
                np.concatenate([v["bz"], v["br"], v["bn"]]))

    def _head_weights(self):
        """(ws, bs, wf, bf, Wc, bc): the slip, force and cell heads' weights,
        as views of theta, for `_heads`."""
        return tuple(self.layout.view(self.theta, name) for name
                     in ("ws", "bs", "wf", "bf", "Wc", "bc"))

    def forward(self, X: np.ndarray, want_cache: bool = False):
        """X: (B, W, input_dim) raw features. Returns (outputs, cache) where
        outputs = (slip_logit (B,), force_norm (B,), cell_norm (B, 2))."""
        cfg = self.cfg
        if X.ndim != 3 or X.shape[1] != cfg.window or X.shape[2] != cfg.input_dim:
            raise ValueError(f"expected (B, {cfg.window}, {cfg.input_dim}) window "
                             f"batch, got {X.shape}")
        Wx, Uzr, Un, b = self._gru_weights()
        x = self._normalize(X)
        B, W, _ = x.shape
        h = np.zeros((B, cfg.hidden))
        zs, rs, ns, hs = [], [], [], [h]
        for t in range(W):
            h, z, r, n = _gru_cell(x[:, t] @ Wx, h, Uzr, Un, b)
            if want_cache:
                zs.append(z); rs.append(r); ns.append(n); hs.append(h)
        cache = (x, zs, rs, ns, hs) if want_cache else None
        return _heads(h, *self._head_weights()), cache

    def loss_and_grad(self, X: np.ndarray, y_slip: np.ndarray,
                      y_force: np.ndarray, y_cell: np.ndarray):
        """Joint loss: BCE(slip) + MSE(normalized force) + MSE(normalized cell).

        Targets arrive in natural units (bool, N, grid indices) and are
        normalized with the model's stored statistics.
        """
        v = self.layout.views(self.theta)
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

        for t in reversed(range(self.cfg.window)):
            z, r, n = zs[t], rs[t], ns[t]
            h_prev = hs[t]
            xt = x[:, t]
            dz = dh * (h_prev - n) * z * (1.0 - z)
            dn_pre = dh * (1.0 - z) * (1.0 - n ** 2)
            dr_pre = (dn_pre @ v["Un"]) * h_prev * r * (1.0 - r)
            gv["Wz"] += dz.T @ xt
            gv["Uz"] += dz.T @ h_prev
            gv["bz"] += dz.sum(axis=0)
            gv["Wr"] += dr_pre.T @ xt
            gv["Ur"] += dr_pre.T @ h_prev
            gv["br"] += dr_pre.sum(axis=0)
            gv["Wn"] += dn_pre.T @ xt
            gv["Un"] += dn_pre.T @ (r * h_prev)
            gv["bn"] += dn_pre.sum(axis=0)
            dh = (dh * z + dz @ v["Uz"] + dr_pre @ v["Ur"]
                  + (dn_pre @ v["Un"]) * r)
        return loss, grad


def train_predictor(X: np.ndarray, y_slip: np.ndarray, y_force: np.ndarray,
                    y_cell: np.ndarray, cfg: TrainConfig,
                    scope: str = "default", motion: str = "shaking",
                    material: str | None = None,
                    model_cfg: PredictorConfig | None = None) -> SlipPredictor:
    """Fit a predictor on windowed features with matched-step-count targets."""
    if scope not in ("default", "material"):
        raise ValueError(f"scope must be default or material, got {scope!r}")
    if scope == "material" and not material:
        raise ValueError("material scope requires a material name")
    if len(X) == 0:
        raise ValueError("empty predictor training set")
    model_cfg = model_cfg or PredictorConfig(window=X.shape[1],
                                             input_dim=X.shape[2], seed=cfg.seed)
    model = SlipPredictor(model_cfg, scope=scope, motion=motion,
                          material=material if scope == "material" else None)
    fit_standardizer(model, X)
    model.force_mean = float(np.mean(y_force))
    model.force_std = float(max(np.std(y_force), 1e-6))
    for _ in sgd_epochs(model, (X, y_slip, y_force, y_cell), cfg, BATCH):
        pass
    return model


class FeatureWindow:
    """The newest W feature frames of a stream, plus the GRU states of
    every window in flight for the model that last read it.

    The state block holds one row per window in flight: row k has seen the
    k + 1 newest frames, so row W - 1 is the final state of the window of
    all W frames. Reading the window advances the block by the frames
    pushed since the last read: each frame is normalized and projected
    once, then one batched cell step shifts in a zero row and advances all
    W windows. A read by a different model replays the stored frames from
    a zero block, so the block always belongs to one model, whose
    parameters must not change between reads.
    """

    def __init__(self, window: int, input_dim: int):
        self._frames = np.zeros((window, input_dim))
        self._count = 0     # frames held, at most W
        self._pending = 0   # frames pushed since the block last advanced
        self._model = None
        self._weights = None       # the model's (_gru_weights, _head_weights)
        self._h = None

    @property
    def full(self) -> bool:
        return self._count == len(self._frames)

    @property
    def frames(self) -> np.ndarray:
        """The frames held, oldest first (a view; at most W rows)."""
        return self._frames[len(self._frames) - self._count:]

    def push(self, frame: np.ndarray) -> None:
        frame = np.asarray(frame, dtype=float)
        if frame.shape != self._frames.shape[1:]:
            raise ValueError(f"expected a ({self._frames.shape[1]},) feature "
                             f"frame, got {frame.shape}")
        self._frames[:-1] = self._frames[1:]
        self._frames[-1] = frame
        W = len(self._frames)
        self._count = min(self._count + 1, W)
        self._pending = min(self._pending + 1, W)

    def _outputs(self, model: SlipPredictor):
        """`model`'s head outputs (slip_logit, force_norm, cell_norm), each
        for a batch of one, over the final state of the W frames held."""
        W, d = self._frames.shape
        if (model.cfg.window, model.cfg.input_dim) != (W, d):
            raise ValueError(f"a ({W}, {d}) feature window cannot feed a model "
                             f"of window {model.cfg.window} and input_dim "
                             f"{model.cfg.input_dim}")
        if not self.full:
            raise ValueError(f"feature window holds {self._count} of {W} frames")
        if model is not self._model:
            self._model = model
            self._weights = model._gru_weights(), model._head_weights()
            # the block is _h[1:]; _h[0] stays zero, so _h[:W] is the
            # block shifted down by one row with a zero row in front
            self._h = np.zeros((W + 1, model.cfg.hidden))
            self._pending = W
        (Wx, Uzr, Un, b), heads = self._weights
        for frame in self._frames[W - self._pending:]:
            gx = model._normalize(frame)[None] @ Wx
            self._h[1:] = _gru_cell(gx, self._h[:W], Uzr, Un, b)[0]
        self._pending = 0
        return _heads(self._h[W:], *heads)


def predict(model: SlipPredictor, window: FeatureWindow) -> Prediction:
    """One prediction from a full `FeatureWindow` of W feature frames."""
    slip_prob, force, _ = _natural_units(model, *window._outputs(model))
    return Prediction(slip_prob=float(slip_prob[0]), force_value=float(force[0]))


def predict_batch(model: SlipPredictor, X: np.ndarray):
    """Vectorized predict over (N, W, input_dim); returns arrays
    (slip_prob, force_value, cell_float)."""
    outputs, _ = model.forward(X)
    return _natural_units(model, *outputs)


def _natural_units(model: SlipPredictor, slip_logit, force, cell):
    return (_sigmoid(slip_logit),
            force * model.force_std + model.force_mean,
            # maximum(0.0, x), in this order, keeps np.clip's sign of zero
            np.minimum(np.maximum(0.0, cell * GRID_MAX), GRID_MAX))
