"""Command-line pipeline: generate, train, episode, active, eval.

Every run echoes its effective configuration to the output directory as
run_config.json so results are reproducible from the file plus the seed.
Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import dataset as ds
from . import inference, tactile
from .controller import (CONFIG, run_baseline_episode, run_reactive_loop,
                         write_episode_csv)
from .materials import MATERIAL_CLASSES, material_table
from .models.classifier import train_classifier
from .models.optim import TrainConfig
from .models.predictor import PredictorConfig, predict_batch, train_predictor
from .models import metrics as mx
from .models.registry import ModelRegistry
from .models.serialize import load_model, save_model

CLASSIFIER_FILE = "classifier.gsm"


class UsageError(Exception):
    pass


def _echo_config(args: argparse.Namespace, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = {k: (str(v) if isinstance(v, Path) else v)
           for k, v in vars(args).items() if k != "func"}
    (out_dir / "run_config.json").write_text(
        json.dumps(doc, sort_keys=True, indent=1) + "\n")


def _require_dir(path: Path, what: str) -> Path:
    if not path.is_dir():
        raise UsageError(f"{what} directory does not exist: {path}")
    return path


def _require_counts(args: argparse.Namespace, *flags: str) -> None:
    """Each count flag, named as on the command line, must be at least 1."""
    for flag in flags:
        value = getattr(args, flag.removeprefix("--").replace("-", "_"))
        if value < 1:
            raise UsageError(f"{flag} must be at least 1, got {value}")


def predictor_filename(scope: str, motion: str, material: str | None) -> str:
    if scope == "material":
        return f"predictor_material_{motion}_{material}.gsm"
    return f"predictor_default_{motion}.gsm"


def confusion_filename(motion: str) -> str:
    return f"confusion_{motion}.csv"


def write_confusion_csv(path, matrix: np.ndarray) -> None:
    """A confusion matrix whose rows and columns are MATERIAL_CLASSES."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["true\\predicted"] + list(MATERIAL_CLASSES))
        for i, name in enumerate(MATERIAL_CLASSES):
            w.writerow([name] + [repr(float(v)) for v in matrix[i]])


def read_confusion_csv(path) -> np.ndarray:
    """Square confusion matrix whose header and row labels are MATERIAL_CLASSES."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    n = len(MATERIAL_CLASSES)
    if (not rows or any(len(row) != n + 1 for row in rows)
            or tuple(rows[0][1:]) != MATERIAL_CLASSES
            or tuple(row[0] for row in rows[1:]) != MATERIAL_CLASSES):
        raise ValueError(f"{path} is not a {n}x{n} confusion matrix with "
                         f"header and row labels {MATERIAL_CLASSES}")
    try:
        return np.array([[float(v) for v in row[1:]] for row in rows[1:]])
    except ValueError as e:
        raise ValueError(f"{path} has a non-numeric confusion entry: {e}") from e


def load_models(models_dir):
    """Classifier + registry + per-motion likelihood model from a models dir.

    Every check runs here, once, and its error names the offending file."""
    models_dir = Path(models_dir)
    classifier = load_model(models_dir / CLASSIFIER_FILE, "classifier")
    if tuple(classifier.cfg.classes) != MATERIAL_CLASSES:
        raise ValueError(f"{models_dir / CLASSIFIER_FILE} has classes "
                         f"{classifier.cfg.classes}, expected {MATERIAL_CLASSES}")
    registry = ModelRegistry()
    for scope in ("default", "material"):
        for path in sorted(models_dir.glob(f"predictor_{scope}_*.gsm")):
            model = load_model(path, "predictor")
            if model.cfg.input_dim != tactile.FEATURE_DIM:
                raise ValueError(f"{path} has input_dim {model.cfg.input_dim}, "
                                 f"expected {tactile.FEATURE_DIM}")
            expected = predictor_filename(model.scope, model.motion,
                                          model.material)
            if path.name != expected:
                raise ValueError(
                    f"{path} holds a {model.scope} predictor for motion "
                    f"{model.motion!r}, material {model.material!r}; its file "
                    f"name should be {expected}")
            if scope == "default":
                registry.register_default(model.motion, model)
                continue
            try:
                registry.register_material(model.motion, model.material, model)
            except ValueError as e:
                raise ValueError(f"{path}: {e}") from e
            # the controller's feature window outlives the switch from the
            # default model to a material model, and both predict the same
            # step ahead, so window and horizon must agree
            default = registry.default_models[model.motion].cfg
            if ((model.cfg.window, model.cfg.horizon)
                    != (default.window, default.horizon)):
                raise ValueError(
                    f"{path} has window {model.cfg.window} and horizon "
                    f"{model.cfg.horizon}; the default {model.motion!r} "
                    f"predictor has window {default.window} and horizon "
                    f"{default.horizon}")
    confusions = {}
    for path in sorted(models_dir.glob("confusion_*.csv")):
        confusions[path.stem.removeprefix("confusion_")] = read_confusion_csv(path)
    likelihoods = (inference.MotionLikelihoodModel(confusions)
                   if confusions else None)
    return classifier, registry, likelihoods


def cmd_generate(args) -> int:
    _require_counts(args, "--trials")
    out = Path(args.out)
    manifest = ds.generate_dataset(out, trials_per_cell=args.trials,
                                   base_seed=args.seed, overwrite=args.overwrite)
    try:
        manifest = ds.build_splits(manifest, seed=args.seed)
    except ds.DatasetError as e:
        print(f"note: no split assignment ({e})")
    ds.save_manifest(manifest, out)
    _echo_config(args, out)
    print(f"generated {len(manifest.trials)} trials in {out} "
          f"(base seed {args.seed})")
    return 0


def cmd_train(args) -> int:
    _require_counts(args, "--window", "--horizon", "--stride")
    dataset_dir = _require_dir(Path(args.dataset), "dataset")
    out = Path(args.out)
    manifest = ds.load_manifest(dataset_dir)
    if not manifest.splits:
        raise ds.DatasetError("dataset manifest has no splits; regenerate it")
    _echo_config(args, out)

    cfg = TrainConfig(epochs=args.epochs, lr=args.lr, seed=args.seed)
    if args.task == "classifier":
        train_items, _ = ds.classifier_segments(dataset_dir, manifest, "train",
                                                augment=True)
        val_items, val_sources = ds.classifier_segments(dataset_dir, manifest, "val")
        model, metrics = train_classifier(train_items, val_items, cfg)
        save_model(out / CLASSIFIER_FILE, model)
        _write_classifier_metrics(out / "metrics_classifier.csv", metrics)
        L = inference.confusions_from_segments(
            model, val_items,
            [manifest.entry(s).motion["kind"] for s in val_sources])
        for motion, C in L.confusions.items():
            write_confusion_csv(out / confusion_filename(motion), C)
        print(f"classifier: val accuracy {metrics.accuracy:.3f} "
              f"({len(train_items)} train / {len(val_items)} val segments)")
        return 0

    # predictor
    if args.scope == "material" and not args.material:
        raise UsageError("--scope material requires --material")
    material = args.material if args.scope == "material" else None
    X, slip, force, cell, _ = ds.predictor_windows(
        dataset_dir, manifest, "train", args.motion, material,
        window=args.window, horizon=args.horizon, stride=args.stride)
    model_cfg = PredictorConfig(input_dim=X.shape[2], window=args.window,
                                horizon=args.horizon, seed=args.seed)
    model = train_predictor(X, slip, force, cell, cfg, scope=args.scope,
                            motion=args.motion, material=material,
                            model_cfg=model_cfg)
    name = predictor_filename(args.scope, args.motion, material)
    save_model(out / name, model)

    Xt, slip_t, force_t, cell_t, _ = ds.predictor_windows(
        dataset_dir, manifest, "test", args.motion, material,
        window=args.window, horizon=args.horizon, stride=args.stride)
    metrics = _evaluate_predictor(model, Xt, slip_t, force_t, cell_t)
    with open(out / f"metrics_{name.removesuffix('.gsm')}.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["auc", "force_mae", "cell_distance"])
        w.writerow([metrics.auc, metrics.force_mae, metrics.cell_distance])
    print(f"predictor {name}: test AUC {_auc_text(metrics, slip_t, 'n/a')}, "
          f"force MAE {metrics.force_mae:.4f} N, "
          f"cell distance {metrics.cell_distance:.2f}")
    return 0


def _evaluate_predictor(model, X, slip, force, cell) -> mx.Metrics:
    """A predictor's test metrics over windows X; auc is None when the
    windows hold one slip class."""
    probs, force_hat, cell_hat = predict_batch(model, X)
    return mx.Metrics(
        auc=mx.auc(probs, slip) if 0 < slip.sum() < len(slip) else None,
        force_mae=mx.mae(force_hat, force),
        cell_distance=mx.mean_cell_distance(cell_hat, cell))


def _auc_text(metrics: mx.Metrics, slip: np.ndarray, missing: str) -> str:
    """The AUC as printed; a missing one reads `missing` and says why."""
    if metrics.auc is not None:
        return f"{metrics.auc:.3f}"
    n_slip = int(np.sum(slip))
    return f"{missing} (test windows: {n_slip} slip, {len(slip) - n_slip} non-slip)"


def _write_classifier_metrics(path, metrics) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["accuracy", repr(float(metrics.accuracy))])
        w.writerow(["class", "precision", "recall"]
                   + [f"confusion_{c}" for c in MATERIAL_CLASSES])
        for i, c in enumerate(MATERIAL_CLASSES):
            w.writerow([c, repr(float(metrics.precision[i])),
                        repr(float(metrics.recall[i]))]
                       + [int(v) for v in metrics.confusion[i]])


def cmd_episode(args) -> int:
    _require_counts(args, "--episodes")
    models_dir = _require_dir(Path(args.models), "models")
    out = Path(args.out)
    _echo_config(args, out)
    table = material_table()
    if args.material not in table:
        raise UsageError(f"unknown material {args.material!r}")
    material = table[args.material]

    fixed_torque = None
    if args.policy != "reactive":
        if not args.policy.startswith("fixed:"):
            raise UsageError(f"policy must be reactive or fixed:<torque>, "
                             f"got {args.policy!r}")
        try:
            fixed_torque = float(args.policy.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"--policy fixed:<torque> needs a torque in Nm, "
                             f"got {args.policy!r}") from None
        if not 0.0 <= fixed_torque <= CONFIG.max_torque:
            raise UsageError(f"fixed torque {fixed_torque} outside "
                             f"[0, {CONFIG.max_torque}] Nm")
    else:
        classifier, registry, _ = load_models(models_dir)
        if args.motion not in registry.default_models:
            raise UsageError(f"no default predictor for motion {args.motion!r} "
                             f"in {models_dir}")

    rows = []
    for i in range(args.episodes):
        profile_rng = np.random.default_rng(ds.derive_seed(args.seed, i, "profile"))
        profile = ds.sample_trial_profile(args.motion, profile_rng)
        sim_seed = ds.derive_seed(args.seed, i, "sim")
        if fixed_torque is None:
            log = run_reactive_loop(material, profile, classifier, registry,
                                    sim_seed)
        else:
            log = run_baseline_episode(material, profile, fixed_torque, sim_seed)
        tag = args.policy.replace(":", "_")
        write_episode_csv(log, out / f"episode_{tag}_{i:03d}.csv")
        rows.append([i, args.policy, repr(log.mean_torque),
                     repr(float(log.torque_cmd.min())),
                     repr(float(log.torque_cmd.max())),
                     int(log.dropped_any),
                     "" if log.switch_time_s is None else repr(log.switch_time_s),
                     log.active_material[-1]])
    with open(out / "summary.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["episode", "policy", "mean_torque", "min_torque",
                    "max_torque", "dropped", "switch_time_s", "final_material"])
        w.writerows(rows)
    mean_all = float(np.mean([float(r[2]) for r in rows]))
    drops = sum(int(r[5]) for r in rows)
    print(f"{args.episodes} episodes ({args.policy}): mean torque "
          f"{mean_all:.3f} Nm, drops {drops}")
    if args.summary:
        for r in rows:
            print(f"  episode {r[0]:>3}: mean {float(r[2]):.3f} Nm "
                  f"dropped={r[5]} material={r[7] or '-'}")
    return 0


def cmd_active(args) -> int:
    _require_counts(args, "--seeds", "--max-segments")
    if not 0.2 < args.confidence < 1.0:
        raise UsageError(f"--confidence must lie in (0.2, 1), got {args.confidence}")
    models_dir = _require_dir(Path(args.models), "models")
    out = Path(args.out)
    _echo_config(args, out)
    table = material_table()
    if args.material not in table:
        raise UsageError(f"unknown material {args.material!r}")
    classifier, _, likelihoods = load_models(models_dir)
    if likelihoods is None:
        raise UsageError(f"no confusion_<motion>.csv files in {models_dir}; "
                         "train the classifier first")

    rows = []
    for i in range(args.seeds):
        seed = ds.derive_seed(args.seed, i, "active")
        logs = {}
        for selector in ("eig", "random"):
            log = inference.run_active_loop(
                table[args.material], classifier, likelihoods,
                args.confidence, args.max_segments, seed, selector)
            inference.write_active_csv(log, out / f"active_{selector}_{i:03d}.csv")
            logs[selector] = log
        rows.append([i, seed,
                     logs["eig"].segments_used, int(logs["eig"].reached_confidence),
                     logs["random"].segments_used,
                     int(logs["random"].reached_confidence)])
    with open(out / "summary.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["run", "seed", "eig_segments", "eig_reached",
                    "random_segments", "random_reached"])
        w.writerows(rows)
    med_eig = float(np.median([r[2] for r in rows]))
    med_rand = float(np.median([r[4] for r in rows]))
    print(f"active inference over {args.seeds} seeds: median segments "
          f"eig {med_eig:.1f} vs random {med_rand:.1f}")
    if args.summary:
        for r in rows:
            print(f"  run {r[0]:>3}: eig {r[2]} (reached={r[3]}) "
                  f"random {r[4]} (reached={r[5]})")
    return 0


def cmd_eval(args) -> int:
    dataset_dir = _require_dir(Path(args.dataset), "dataset")
    models_dir = _require_dir(Path(args.models), "models")
    out = Path(args.out)
    _echo_config(args, out)
    manifest = ds.load_manifest(dataset_dir)
    classifier, registry, _ = load_models(models_dir)

    test_items, _ = ds.classifier_segments(dataset_dir, manifest, "test")
    index = {c: i for i, c in enumerate(classifier.cfg.classes)}
    probs, _ = classifier.forward(np.stack([frames for frames, _ in test_items]))
    pred = probs.argmax(axis=1)
    truth = np.array([index[label] for _, label in test_items])
    acc = mx.accuracy(pred, truth)
    lines = [["classifier_accuracy", repr(float(acc))]]
    print(f"classifier test accuracy: {acc:.3f} over {len(test_items)} segments")

    for motion, model in sorted(registry.default_models.items()):
        Xt, slip_t, force_t, cell_t, _ = ds.predictor_windows(
            dataset_dir, manifest, "test", motion,
            window=model.cfg.window, horizon=model.cfg.horizon)
        m = _evaluate_predictor(model, Xt, slip_t, force_t, cell_t)
        auc = float("nan") if m.auc is None else m.auc
        lines += [[f"{motion}_auc", repr(float(auc))],
                  [f"{motion}_force_mae", repr(float(m.force_mae))],
                  [f"{motion}_cell_distance", repr(float(m.cell_distance))]]
        print(f"default predictor [{motion}]: AUC {_auc_text(m, slip_t, 'nan')}, "
              f"force MAE {m.force_mae:.4f} N, cell distance {m.cell_distance:.2f}")
    with open(out / "eval.csv", "w", newline="") as f:
        csv.writer(f).writerows(lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gripsense",
        description="audio + tactile object-property estimation and "
                    "reactive grip control on a deterministic simulator")
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON file with default argument values")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="run the data-collection protocol")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=30,
                   help="trials per (motion, material) cell")
    p.add_argument("--overwrite", action="store_true")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train a model on a generated dataset")
    p.add_argument("--dataset", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="models directory")
    p.add_argument("--task", choices=("classifier", "predictor"), required=True)
    p.add_argument("--scope", choices=("default", "material"), default="default")
    p.add_argument("--motion", choices=ds.MOTIONS, default="shaking")
    p.add_argument("--material", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--window", type=int, default=20)
    p.add_argument("--horizon", type=int, default=10)
    p.add_argument("--stride", type=int, default=5)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("episode", help="run closed-loop grip episodes")
    p.add_argument("--models", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--material", required=True)
    p.add_argument("--motion", choices=ds.MOTIONS, default="shaking")
    p.add_argument("--policy", default="reactive",
                   help="reactive or fixed:<torque Nm>")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--episodes", type=int, default=1)
    p.add_argument("--summary", action="store_true")
    p.set_defaults(func=cmd_episode)

    p = sub.add_parser("active", help="active-inference material identification")
    p.add_argument("--models", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--material", required=True, help="true material in the sim")
    p.add_argument("--confidence", type=float, default=0.95)
    p.add_argument("--max-segments", type=int, default=12)
    p.add_argument("--seeds", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--summary", action="store_true")
    p.set_defaults(func=cmd_active)

    p = sub.add_parser("eval", help="evaluate saved models on the test split")
    p.add_argument("--dataset", type=Path, required=True)
    p.add_argument("--models", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_eval)
    parser.command_parsers = dict(sub.choices)
    return parser


def _apply_train_defaults(args) -> None:
    if args.command == "train":
        if args.epochs is None:
            if args.task == "classifier":
                args.epochs = 30
            else:
                # material scope sees a fifth of the windows; more passes
                # keep the gradient-step count comparable to the default's
                args.epochs = 24 if args.scope == "material" else 8
        if args.lr is None:
            args.lr = 0.01 if args.task == "classifier" else 0.05


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        try:
            overrides = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as e:
            print(f"error: cannot read config {args.config}: {e}", file=sys.stderr)
            return 2
        unknown = sorted(set(overrides) - set(vars(args)))
        if unknown:
            print(f"error: config keys not recognized for "
                  f"'{args.command}': {', '.join(unknown)}", file=sys.stderr)
            return 2
        # defaults must land on the subcommand's own parser: subparsers
        # parse into a fresh namespace, so top-level set_defaults is ignored
        parser.command_parsers[args.command].set_defaults(**overrides)
        args = parser.parse_args(argv)
    _apply_train_defaults(args)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (ds.DatasetError, OSError, ValueError, KeyError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
