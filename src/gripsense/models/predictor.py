"""Recurrent slip/max-force predictor: one gated recurrent layer plus two
heads, trained with backpropagation through time written out by hand.

From a window of haptic feature vectors the model predicts, a fixed
horizon ahead: the probability that slip is occurring, the maximum
tactile force value, and the grid cell where it lands. Training,
`predict_batch` and the streamed `FeatureWindow` share one kernel,
`SlipPredictor._prepared`'s weights and `_gru_cell`, and give a window
the same bits.
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


def _sigmoid(x):
    """0.5 * (1 + tanh(0.5 x)), computed in one new array."""
    out = np.multiply(x, 0.5)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def _gru_cell(gx, h, Uzr, Un):
    """One GRU step for the hidden states h (B, H), given the inputs'
    projection gx = x @ Wx + b, (B, 3H) or (1, 3H) shared by every row,
    with the weights of `SlipPredictor._prepared`. Their z/r columns are
    halved, so tanh of the z/r pre-activation, + 1, * 0.5 is its sigmoid.
    Returns (h_new, z, r, n), each a new array or a view of one."""
    H = h.shape[1]
    zr = h @ Uzr
    zr += gx[:, :2 * H]
    np.tanh(zr, out=zr)
    zr += 1.0
    zr *= 0.5
    z, r = zr[:, :H], zr[:, H:]
    n = (r * h) @ Un
    n += gx[:, 2 * H:]
    np.tanh(n, out=n)
    h_new = h - n
    h_new *= z
    h_new += n
    return h_new, z, r, n


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

    def _prepared(self):
        """C-contiguous copies of the weights every pass runs on: Wx
        (input_dim, 3H), b (3H,), Uzr (H, 2H) and Un (H, H), their z/r
        columns halved (exact in binary floating point) for `_gru_cell`,
        then the slip, force and cell heads' (H, 4) weights and (4,)
        biases. A row of a product with such a right operand, four or more
        columns wide, has the same bits in any batch of two or more rows."""
        v = self.layout.views(self.theta)
        H = self.hidden
        half = np.r_[np.full(2 * H, 0.5), np.ones(H)]
        return (np.multiply(v["W"].T, half, order="C"), v["b"] * half,
                np.multiply(v["U"][:2 * H].T, 0.5, order="C"),
                np.ascontiguousarray(v["U"][2 * H:].T),
                np.ascontiguousarray(np.vstack([v["ws"], v["wf"], v["Wc"]]).T),
                np.concatenate([v["bs"], v["bf"], v["bc"]]))

    def forward(self, X: np.ndarray, want_cache: bool = False):
        """X: (B, W, input_dim) raw features. Returns (outputs, cache) where
        outputs = (slip_logit (B,), force_norm (B,), cell_norm (B, 2))."""
        if X.ndim != 3 or X.shape[1:] != (self.window, self.input_dim):
            raise ValueError(f"expected (B, {self.window}, {self.input_dim}) "
                             f"window batch, got {X.shape}")
        Wx, b, Uzr, Un, head_w, head_b = self._prepared()
        x = standardize(self, X)
        B, W, _ = x.shape
        h = np.zeros((B, self.hidden))
        zs, rs, ns, hs = [], [], [], [h]
        for t in range(W):
            gx = x[:, t] @ Wx
            gx += b
            h, z, r, n = _gru_cell(gx, h, Uzr, Un)
            if want_cache:
                zs.append(z); rs.append(r); ns.append(n); hs.append(h)
        cache = (x, zs, rs, ns, hs) if want_cache else None
        heads = h @ head_w
        heads += head_b
        return (heads[:, 0], heads[:, 1], heads[:, 2:]), cache

    def loss_and_grad(self, X: np.ndarray, y_slip: np.ndarray,
                      y_force: np.ndarray, y_cell: np.ndarray):
        """Joint loss: BCE(slip) + MSE(normalized force) + MSE(normalized cell).

        Targets arrive in natural units (bool, N, grid indices) and are
        normalized with the model's stored statistics. The forward pass is
        `forward`'s, on `_prepared` and `_gru_cell`, which `predict_batch`
        and `FeatureWindow` run too. Each step back fills one (B, 3H)
        block of gate gradients, stacked as W, U and b are.
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
            dh = dh * z + d_gates[:, :2 * H] @ U[:2 * H] + d_rh * r
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
    """The GRU states of every window over one model's stream of feature
    frames, advanced a block of frames at a time.

    `extend(frames, start)` hands the window frames start, start + 1, ...
    of the stream; the first call sets the frame the window starts at.
    Frames from `start` on that an earlier call handed it are dropped, and
    the kept part of the last block is computed again from the states
    saved before that block, so `start` may lie anywhere in that block.
    `predict(window, n)` runs the pending block on the first call that
    needs it: each of the W - 1 windows in flight and each window that
    starts in the block advances one frame per batched cell step, so a
    block of k frames costs min(k, W) cell steps over at most W - 1 + k
    rows. The pass runs on the model's `_prepared` weights and
    `_gru_cell`, as training and `predict_batch` do, and every product in
    it has at least two rows, so any split of a stream into blocks gives
    the bits of one frame per block and of `predict_batch`. The model's
    parameters must not change while its window is in use.
    """

    def __init__(self, model: SlipPredictor):
        self.model = model
        self._weights = model._prepared()
        self._origin = 0     # the stream's frame index of the first frame
        self._start = 0      # the stream's frame index of the block's first
        # states of the W - 1 windows in flight before the block, oldest
        # window first; rows of windows starting before the origin are
        # never read out
        self._inflight = np.zeros((model.window - 1, model.hidden))
        self._block = np.empty((0, model.input_dim))  # standardized frames
        self._out = None     # the block's (slip_prob, force, states after)

    @property
    def _end(self) -> int:
        return self._start + len(self._block)

    def extend(self, frames: np.ndarray, start: int) -> None:
        frames = np.asarray(frames, dtype=float)
        d = self.model.input_dim
        if frames.ndim != 2 or frames.shape[1:] != (d,) or not len(frames):
            raise ValueError(f"expected (k, {d}) feature frames, got {frames.shape}")
        x = standardize(self.model, frames)
        if not len(self._block):  # the first call
            self._origin = self._start = start
        elif not self._start <= start <= self._end:
            raise ValueError(f"frames from {start} do not follow the block of "
                             f"frames {self._start} to {self._end - 1}")
        if start == self._end and self._out is not None:
            # the block has run: its states after are the new block's base
            self._inflight = self._out[2]
            self._start, self._block = start, x
        else:
            self._block = np.concatenate([self._block[:start - self._start], x])
        self._out = None

    def _run(self) -> None:
        """Every window through the block: at step q the windows still
        taking frames are rows q onwards of the state block; the in-flight
        ones take frame q, and the block's window starting at frame m
        takes frame m + q. Rows :k end as the windows ending at each of
        the block's frames."""
        Wx, b, Uzr, Un, head_w, head_b = self._weights
        W, H = self.model.window, self.model.hidden
        k = len(self._block)
        proj = _two_rows(self._block) @ Wx
        proj += b
        h = np.zeros((W - 1 + k, H))
        h[:W - 1] = self._inflight
        for q in range(min(k, W)):
            hi = W - 1 + k - q
            if q < k - 1:
                gx = np.empty((hi - q, 3 * H))
                gx[:W - 1 - q] = proj[q]
                gx[W - 1 - q:] = proj[q:k]
            else:  # one frame left, which every row takes
                gx = proj[q:k]
            h[q:hi] = _gru_cell(gx, _two_rows(h[q:hi]), Uzr, Un)[0][:hi - q]
        # h holds at least W rows, so the heads' product has two or more
        heads = h[:max(k, 2)] @ head_w
        heads += head_b
        self._out = (*_natural_units(self.model, heads[:k, 0], heads[:k, 1]),
                     h[k:])


def _two_rows(a: np.ndarray) -> np.ndarray:
    """a, or its one row twice: a BLAS product gives a row the bits of any
    batch of two rows or more, but not those of a one-row product."""
    return a if len(a) > 1 else np.concatenate([a, a])


def predict(window: FeatureWindow, n: int) -> Prediction:
    """The prediction of the window's model from the W frames before frame
    n of its stream: its heads over that window's final state. Runs the
    window's pending block if this is its first prediction."""
    W = window.model.window
    start, end = window._start, window._end
    have = min(n, end) - window._origin
    if have < W:
        raise ValueError(f"feature window has {max(have, 0)} of {W} frames")
    if not start < n <= end:
        raise ValueError(f"no prediction for frame {n}: the window's block "
                         f"ends frames {start + 1} to {end}")
    if window._out is None:
        window._run()
    slip_prob, force, _ = window._out
    i = n - start - 1
    return Prediction(slip_prob=float(slip_prob[i]), force_value=float(force[i]))


def predict_batch(model: SlipPredictor, X: np.ndarray):
    """Vectorized predict over (N, W, input_dim); returns arrays
    (slip_prob, force_value, cell_float). A window's row has the bits of
    its `FeatureWindow` prediction, whatever N is."""
    N = len(X)
    (slip_logit, force, cell), _ = model.forward(_two_rows(X))
    # maximum(0.0, x), in this order, keeps np.clip's sign of zero
    return (*_natural_units(model, slip_logit[:N], force[:N]),
            np.minimum(np.maximum(0.0, cell[:N] * GRID_MAX), GRID_MAX))


def _natural_units(model: SlipPredictor, slip_logit, force):
    """(slip probability, force in N) from the slip and force heads."""
    return _sigmoid(slip_logit), force * model.force_std + model.force_mean
