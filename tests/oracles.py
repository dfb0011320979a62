"""Brute-force reference implementations used to cross-check the package.

Everything here is written as directly as possible from the defining
formulas (explicit loops, naive O(n^2) transforms, outcome enumeration)
and deliberately shares no code with the package under test. Two
exceptions check loops, not the pieces they call: `single_step_trial`
drives the package's own `simulation.step` one step at a time, and
`whole_trial_active_loop` runs the package's trials, classifier and
posterior updates on whole trials.
"""

import math

import numpy as np

from gripsense import simulation
from gripsense.materials import MATERIAL_CLASSES


def naive_dft(x: np.ndarray, n_fft: int) -> np.ndarray:
    """O(n^2) DFT of a zero-padded frame; bins 0 .. n_fft//2."""
    padded = np.zeros(n_fft)
    padded[:len(x)] = x
    n = np.arange(n_fft)
    bins = np.arange(n_fft // 2 + 1)
    # basis entry (k, n) is exp(-2 pi i k n / N), the root of unity number
    # (k n) mod N: a table lookup instead of one exp per entry
    roots = np.exp(-2j * np.pi * n / n_fft)
    out = np.empty(len(bins), dtype=complex)
    # 256 bins of the basis at a time: the whole basis of a 16000-sample
    # frame would take about 2 GB
    for lo in range(0, len(bins), 256):
        block = bins[lo:lo + 256]
        basis = roots[np.outer(block, n) % n_fft]
        out[lo:lo + 256] = basis @ padded
    return out


def naive_mfcc(samples: np.ndarray, sample_rate: int, frame_len: int = 400,
               hop: int = 160, n_fft: int = 512, n_mels: int = 40,
               n_coeffs: int = 13, fmin: float = 20.0, fmax: float = 7600.0,
               log_floor: float = 1e-10) -> np.ndarray:
    """MFCC per definition: Hann frame -> naive O(n^2) DFT power ->
    triangle-weighted filter summation on the HTK mel scale -> log ->
    DCT-II from the cosine formula.

    The DFT basis, filter weights, and cosine table are written out from
    their formulas with explicit loops, then applied as plain summations.
    """
    def mel(f):
        return 2595.0 * math.log10(1.0 + f / 700.0)

    def inv_mel(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    n_bins = n_fft // 2 + 1
    edges_hz = [inv_mel(mel(fmin) + (mel(fmax) - mel(fmin)) * j / (n_mels + 1))
                for j in range(n_mels + 2)]
    bank = np.zeros((n_mels, n_bins))
    for m in range(n_mels):
        lo, mid, hi = edges_hz[m], edges_hz[m + 1], edges_hz[m + 2]
        for b in range(n_bins):
            f = b * sample_rate / n_fft
            w = min((f - lo) / (mid - lo), (hi - f) / (hi - mid))
            bank[m, b] = max(0.0, w)

    basis = np.zeros((n_bins, n_fft), dtype=complex)
    for k in range(n_bins):
        basis[k] = np.exp(-2j * np.pi * k * np.arange(n_fft) / n_fft)

    cosines = np.zeros((n_coeffs, n_mels))
    for k in range(n_coeffs):
        scale = math.sqrt(1.0 / n_mels) if k == 0 else math.sqrt(2.0 / n_mels)
        for m in range(n_mels):
            cosines[k, m] = scale * math.cos(
                math.pi * k * (2 * m + 1) / (2 * n_mels))

    window = np.asarray([0.5 - 0.5 * math.cos(2.0 * math.pi * i / frame_len)
                         for i in range(frame_len)])
    n_frames = 1 + (len(samples) - frame_len) // hop
    out = np.zeros((n_frames, n_coeffs))
    for t in range(n_frames):
        padded = np.zeros(n_fft)
        padded[:frame_len] = samples[t * hop:t * hop + frame_len] * window
        power = np.abs(basis @ padded) ** 2
        logmel = np.log(bank @ power + log_floor)
        out[t] = cosines @ logmel
    return out


def dominant_bin_hz(samples: np.ndarray, sample_rate: int) -> float:
    """Frequency of the largest-magnitude DFT bin (naive transform)."""
    spectrum = np.abs(naive_dft(np.asarray(samples, dtype=float), len(samples)))
    return float(np.argmax(spectrum[1:len(samples) // 2]) + 1) \
        * sample_rate / len(samples)


def nearest_centroid_accuracy(train_items, test_items, classes) -> float:
    """Classify test segments by the nearest class centroid of the
    time-averaged MFCC vectors; the floor any learned model must beat."""
    index = {c: i for i, c in enumerate(classes)}
    sums = {c: None for c in classes}
    counts = {c: 0 for c in classes}
    for frames, label in train_items:
        v = np.asarray(frames).mean(axis=0)
        sums[label] = v if sums[label] is None else sums[label] + v
        counts[label] += 1
    centroids = np.stack([sums[c] / counts[c] for c in classes])
    correct = 0
    for frames, label in test_items:
        v = np.asarray(frames).mean(axis=0)
        d2 = ((centroids - v) ** 2).sum(axis=1)
        correct += int(int(np.argmin(d2)) == index[label])
    return correct / len(test_items)


def pair_count_auc(scores, labels) -> float:
    """AUC by direct enumeration of positive/negative pairs, ties at 0.5."""
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    if not pos or not neg:
        raise ValueError("AUC needs both classes")
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def entropy_bits_direct(p) -> float:
    return float(-sum(v * math.log2(v) for v in p if v > 0.0))


def eig_enumeration(p, C) -> float:
    """EIG by enumerating every observation outcome: H(prior) minus the
    expected entropy of the explicitly normalized Bayes posterior."""
    p = np.asarray(p, dtype=float)
    C = np.asarray(C, dtype=float)
    expected = 0.0
    for obs in range(C.shape[1]):
        p_obs = float(sum(p[i] * C[i, obs] for i in range(len(p))))
        if p_obs <= 0.0:
            continue
        posterior = [p[i] * C[i, obs] / p_obs for i in range(len(p))]
        expected += p_obs * entropy_bits_direct(posterior)
    return entropy_bits_direct(p) - expected


def central_difference_gradient(f, theta: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function, one coordinate at
    a time."""
    grad = np.zeros_like(theta)
    for i in range(len(theta)):
        saved = theta[i]
        theta[i] = saved + eps
        hi = f()
        theta[i] = saved - eps
        lo = f()
        theta[i] = saved
        grad[i] = (hi - lo) / (2.0 * eps)
    return grad


def loop_nonzero_stats(grid) -> tuple:
    values = [float(v) for row in np.asarray(grid) for v in row if v > 0.0]
    if not values:
        return 0.0, 0.0
    return sum(values) / len(values), max(values)


def loop_center_of_mass(grid) -> tuple:
    g = np.asarray(grid, dtype=float)
    total = 0.0
    row_acc = 0.0
    col_acc = 0.0
    for r in range(g.shape[0]):
        for c in range(g.shape[1]):
            if g[r, c] > 0.0:
                total += g[r, c]
                row_acc += r * g[r, c]
                col_acc += c * g[r, c]
    if total == 0.0:
        return (g.shape[0] - 1) / 2.0, (g.shape[1] - 1) / 2.0
    return row_acc / total, col_acc / total


def loop_features(grids, angles, dt: float) -> np.ndarray:
    """Per-frame haptic features, one frame at a time: non-zero stats,
    center of mass, its finite-difference rate, joint angles and their
    finite-difference rates; both rates are zero on the first frame."""
    rows = []
    prev_com = prev_angles = None
    for grid, frame_angles in zip(grids, angles):
        a = [float(v) for v in frame_angles]
        com = loop_center_of_mass(grid)
        if prev_com is None:
            grad = (0.0, 0.0)
            deltas = [0.0] * len(a)
        else:
            grad = ((com[0] - prev_com[0]) / dt, (com[1] - prev_com[1]) / dt)
            deltas = [(x - p) / dt for x, p in zip(a, prev_angles)]
        rows.append([*loop_nonzero_stats(grid), *com, *grad, *a, *deltas])
        prev_com, prev_angles = com, a
    return np.asarray(rows)


def loop_label_slip(history, threshold: float, horizon: int):
    """Slip labels by literal re-reading of the definition."""
    h = np.asarray(history, dtype=float)
    labels = []
    for t in range(len(h)):
        if t < horizon:
            labels.append(False)
            continue
        biggest = max(abs(float(h[t, j]) - float(h[t - horizon, j]))
                      for j in range(h.shape[1]))
        labels.append(biggest > threshold)
    return np.asarray(labels, dtype=bool)


def calibrate_slip_threshold(joint_histories, true_slip, horizon: int) -> float:
    """The threshold, of 25 log-spaced candidates in [1e-3, 0.2], whose slip
    labels score the highest F1 against ground truth, pooled over all
    histories."""
    candidates = np.geomspace(1e-3, 0.2, 25)
    best_thr, best_f1 = float(candidates[0]), -1.0
    for thr in candidates:
        tp = fp = fn = 0
        for hist, truth in zip(joint_histories, true_slip):
            pred = loop_label_slip(hist, float(thr), horizon)
            truth = np.asarray(truth, dtype=bool)
            tp += int(np.sum(pred & truth))
            fp += int(np.sum(pred & ~truth))
            fn += int(np.sum(~pred & truth))
        f1 = 2 * tp / max(2 * tp + fp + fn, 1)
        if f1 > best_f1:
            best_thr, best_f1 = float(thr), f1
    return best_thr


def single_step_trial(material, motion, policy, seed, trial_id=None):
    """`simulation.run_trial` for a callable policy as one `step` call per
    decision: the policy decides step i on the first i rows, then step i
    runs alone and, if the policy has a `perceive` method, is passed to it
    as a block of one row. Rendering ahead in blocks must give this record
    bit for bit. Float rows hold nan until they are stepped, so a policy
    that reads a row it may not see yet shows it."""
    state = simulation.initial_state(seed, material)
    accels = motion.accelerations().tolist()
    arrays = simulation.step_arrays(motion.n_steps)
    for a in arrays.values():
        if a.dtype.kind == "f":
            a.fill(np.nan)
    perceive = getattr(policy, "perceive", None)
    for i in range(motion.n_steps):
        torque, stiffness = policy({name: a[:i] for name, a in arrays.items()})
        simulation.step(state, material, accels[i], torque,
                        stiffness_scale=stiffness,
                        out={name: a[i:i + 1] for name, a in arrays.items()})
        if perceive is not None:
            perceive({name: a[:i + 1] for name, a in arrays.items()}, i)
    meta = {key: getattr(motion, key) for key in
            ("kind", "duration", "amplitude", "frequency", "shake_count")}
    return simulation.TrialRecord(
        trial_id=trial_id or f"trial-{seed}", material=material.name,
        motion=meta, seed=seed,
        audio=arrays.pop("audio").reshape(-1),
        **arrays)


def impact_burst(freq, phase, amp, decay_s, restitution, sample_rate,
                 burst_decays, echo_delay_decays) -> np.ndarray:
    """One impact burst in float64, from its formula at t = n / sample_rate:
    amp * env(t) * sin(2 pi freq t + phase), where env(t) = exp(-t / decay_s)
    plus, from the echo's first sample n_echo = ceil(echo_delay_decays *
    decay_s * sample_rate) on, the rebound restitution * exp(-(t - t_echo) /
    decay_s) with t_echo = n_echo / sample_rate. The burst lasts n_echo +
    ceil(burst_decays * decay_s * sample_rate) samples."""
    n_echo = math.ceil(echo_delay_decays * decay_s * sample_rate)
    n = np.arange(n_echo + math.ceil(burst_decays * decay_s * sample_rate))
    t = n / sample_rate
    env = np.exp(-t / decay_s)
    echo = n >= n_echo
    env[echo] += restitution * np.exp(-(t[echo] - n_echo / sample_rate) / decay_s)
    return amp * env * np.sin(2.0 * math.pi * freq * t + phase)


def on_pcm16_grid(samples) -> bool:
    """Every sample is k / 32767 for an integer k in [-32767, 32767]: the
    values a 16-bit PCM WAV reads back as."""
    x = np.asarray(samples, dtype=float)
    k = np.rint(x * 32767.0)
    return bool(np.all(np.abs(k) <= 32767) and np.array_equal(k / 32767.0, x))


def records_equal(a, b) -> bool:
    """Two trial records with the same metadata, and every recorded array
    equal in dtype, shape and bytes: bit for bit, so 0.0 and -0.0 differ,
    which np.array_equal does not tell apart. What a record derives from
    its grid then agrees too."""
    if (a.trial_id, a.material, a.seed, a.motion) != \
       (b.trial_id, b.material, b.seed, b.motion):
        return False
    arrays = ("audio",) + tuple(name for name, _, _ in simulation.TRIAL_ARRAYS)
    return all((x.dtype, x.shape) == (y.dtype, y.shape) and x.tobytes() == y.tobytes()
               for x, y in ((getattr(a, name), getattr(b, name)) for name in arrays))


def whole_trial_active_loop(material, classifier, L, confidence_target,
                            max_segments, seed, selector):
    """`inference.run_active_loop` on whole trials: each motion's trial runs
    to its end through `simulation.run_trial` and is cut by `dsp.segment`,
    then its segments are classified in order until the posterior commits
    or the budget runs out. Returns the log and the steps rendered."""
    from gripsense import dataset, dsp, inference
    from gripsense.models.classifier import classify

    motions = sorted(L.confusions, key=dataset.MOTIONS.index)
    rng = np.random.default_rng(seed)
    p = inference.uniform_posterior()
    log = inference.ActiveLog()
    rendered = 0

    def done():
        return log.segments_used >= max_segments or \
            float(p.probs.max()) >= confidence_target

    while not done():
        if selector == "eig":
            motion = inference.select_motion(p, motions, L)
        else:
            motion = motions[int(rng.integers(len(motions)))]
        profile = dataset.sample_trial_profile(motion, rng)
        trial_seed = int(rng.integers(2 ** 31))
        record = simulation.run_trial(material, profile,
                                      dataset.COLLECTION_TORQUE, trial_seed)
        rendered += record.n_steps
        for seg in dsp.segment(record.audio):
            if done():
                break
            pred = int(np.argmax(classify(classifier, dsp.mfcc(seg))))
            p = inference.update_posterior(p, motion, pred, L)
            log.motions.append(motion)
            log.predicted.append(MATERIAL_CLASSES[pred])
            log.posteriors.append(p.probs.copy())
    log.reached_confidence = float(p.probs.max()) >= confidence_target
    return log, rendered
