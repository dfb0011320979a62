"""Command-line pipeline: generate, train, episode, active, eval.

Flags are the one way to set a run. Every run that succeeds echoes the
subcommand and each flag's value as the command used it (`train`'s
epoch count included, the model's own when `--epochs` is unset) to the
output directory as run_config.json, so results are reproducible from
the file. Every `train` of a pipeline writes into one models directory,
so `train` names its echo after the model file it wrote instead:
run_config_classifier.json, run_config_predictor_default_shaking.json and
so on. A run checks its flags and inputs first: a usage error writes
nothing, and `main` writes the echo once the command has returned, so a
failing run leaves none. `train` reports the figures of
the model file it wrote, read back as every later command reads it, and
`train` and `eval` score the classifier through one batched scorer
(`models.classifier.classify_items`).
Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import dataset as ds
from . import inference
from .controller import run_baseline_episode, run_reactive_loop, write_episode_csv
from .materials import MATERIAL_CLASSES, MaterialParams, material_table
from .models.classifier import classify_items, train_classifier
from .models.predictor import predict_batch, train_predictor
from .models import classifier as clf
from .models import metrics as mx
from .models import predictor as prd
from .models.registry import ModelRegistry
from .models.serialize import load_model, save_model
from .simulation import MAX_GRIP_TORQUE
from .workers import map_in_workers

CLASSIFIER_FILE = "classifier.gsm"


class UsageError(Exception):
    pass


def _run_config_name(args: argparse.Namespace) -> str:
    """The file `main` echoes the run's flags to: run_config.json, or for
    `train` run_config_<model file stem>.json."""
    if args.command != "train":
        return "run_config.json"
    model = (CLASSIFIER_FILE if args.task == "classifier"
             else predictor_filename(args.motion, args.material))
    return f"run_config_{model.removesuffix('.gsm')}.json"


def _echo_config(args: argparse.Namespace) -> None:
    doc = {k: (str(v) if isinstance(v, Path) else v)
           for k, v in vars(args).items() if k != "func"}
    (Path(args.out) / _run_config_name(args)).write_text(
        json.dumps(doc, sort_keys=True, indent=1) + "\n")


def _require_dir(path: Path, what: str) -> Path:
    if not path.is_dir():
        raise UsageError(f"{what} directory does not exist: {path}")
    return path


def _require_at_least(args: argparse.Namespace, least: int, *flags: str) -> None:
    """Each integer flag, named as on the command line, must be at least
    `least`."""
    for flag in flags:
        value = getattr(args, flag.removeprefix("--").replace("-", "_"))
        if value < least:
            raise UsageError(f"{flag} must be at least {least}, got {value}")


def _require_material(name: str) -> MaterialParams:
    table = material_table()
    if name not in table:
        raise UsageError(f"unknown material {name!r}; expected one of "
                         f"{MATERIAL_CLASSES}")
    return table[name]


def predictor_filename(motion: str, material: str | None) -> str:
    if material:
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
    registry = ModelRegistry()
    for scope in ("default", "material"):
        for path in sorted(models_dir.glob(f"predictor_{scope}_*.gsm")):
            model = load_model(path, "predictor")
            if model.motion not in ds.MOTIONS:
                raise ValueError(f"{path} holds a predictor for unknown motion "
                                 f"{model.motion!r}; expected one of {ds.MOTIONS}")
            if model.material is not None and model.material not in MATERIAL_CLASSES:
                raise ValueError(f"{path} holds a predictor for unknown material "
                                 f"{model.material!r}; expected one of "
                                 f"{MATERIAL_CLASSES}")
            expected = predictor_filename(model.motion, model.material)
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
    confusions = {}
    for path in sorted(models_dir.glob("confusion_*.csv")):
        motion = path.stem.removeprefix("confusion_")
        if motion not in ds.MOTIONS:
            raise ValueError(f"{path} is for unknown motion {motion!r}; "
                             f"expected one of {ds.MOTIONS}")
        confusions[motion] = read_confusion_csv(path)
        try:
            inference.MotionLikelihoodModel({motion: confusions[motion]})
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from e
    likelihoods = (inference.MotionLikelihoodModel(confusions)
                   if confusions else None)
    return classifier, registry, likelihoods


def cmd_generate(args) -> int:
    _require_at_least(args, 1, "--trials")
    _require_at_least(args, 0, "--seed")
    out = Path(args.out)
    manifest = ds.generate_dataset(out, trials_per_cell=args.trials,
                                   base_seed=args.seed, overwrite=args.overwrite)
    if manifest.splits is None:
        print(f"note: no split assignment (cells of {args.trials} trials are "
              f"too small to stratify at {ds.SPLIT_FRACTIONS})")
    print(f"generated {len(manifest.trials)} trials in {out} "
          f"(base seed {args.seed})")
    return 0


def cmd_train(args) -> int:
    if args.epochs is None:
        args.epochs = (clf.EPOCHS if args.task == "classifier"
                       else prd.MATERIAL_EPOCHS if args.material
                       else prd.EPOCHS)
    _require_at_least(args, 1, "--epochs")
    _require_at_least(args, 0, "--seed")
    if (args.scope == "material") != bool(args.material):
        raise UsageError("--material is given with --scope material, and "
                         "only with it")
    if args.material:
        _require_material(args.material)
    if args.task == "classifier":
        # the classifier trains on every motion's whole recordings: it reads
        # none of the predictor's flags, so none may be set
        train_parser = build_parser().command_parsers["train"]
        for dest in ("scope", "motion"):
            value = getattr(args, dest)
            if value != train_parser.get_default(dest):
                raise UsageError(f"--{dest} applies only to --task predictor, "
                                 f"got --{dest} {value} with --task classifier")
    dataset_dir = _require_dir(Path(args.dataset), "dataset")
    out = Path(args.out)
    manifest = ds.load_manifest(dataset_dir)
    if not manifest.splits:
        raise ds.DatasetError("dataset manifest has no splits; regenerate it")

    if args.task == "classifier":
        train_items, _ = ds.classifier_segments(dataset_dir, manifest, "train",
                                                augment=True)
        val_items, val_entries = ds.classifier_segments(dataset_dir, manifest, "val")
        model, curve = train_classifier(train_items, val_items,
                                        epochs=args.epochs, seed=args.seed)
        out.mkdir(parents=True, exist_ok=True)
        save_model(out / CLASSIFIER_FILE, model)
        pred, truth = classify_items(load_model(out / CLASSIFIER_FILE, "classifier"),
                                     val_items)
        accuracy = _write_classifier_metrics(out / "metrics_classifier.csv",
                                             pred, truth)
        _write_curve(out / "curve_classifier.csv",
                     ["epoch", "mean_loss", "val_accuracy"], curve)
        L = inference.estimate_confusions(
            pred, truth, [e.motion["kind"] for e in val_entries])
        for motion, C in L.confusions.items():
            write_confusion_csv(out / confusion_filename(motion), C)
        print(f"classifier: val accuracy {accuracy:.3f} "
              f"({len(train_items)} train / {len(val_items)} val segments)")
        return 0

    # predictor
    X, slip, force, cell, _ = ds.predictor_windows(
        dataset_dir, manifest, "train", args.motion, args.material)
    Xt, slip_t, force_t, cell_t, _ = ds.predictor_windows(
        dataset_dir, manifest, "test", args.motion, args.material)
    model, curve = train_predictor(X, slip, force, cell, epochs=args.epochs,
                                   seed=args.seed, motion=args.motion,
                                   material=args.material)
    name = predictor_filename(args.motion, args.material)
    out.mkdir(parents=True, exist_ok=True)
    save_model(out / name, model)
    metrics = _evaluate_predictor(load_model(out / name, "predictor"),
                                  Xt, slip_t, force_t, cell_t)
    _write_curve(out / f"curve_{name.removesuffix('.gsm')}.csv",
                 ["epoch", "mean_loss"], curve)
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


def _write_curve(path, header: list[str], curve) -> None:
    """A training curve: one row per epoch, its index then its figures."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows([epoch] + [repr(float(v)) for v in figures]
                    for epoch, *figures in curve)


def _write_classifier_metrics(path, pred, truth) -> float:
    """The accuracy, per-class precision and recall and the raw confusion
    counts of predicted against true class indices; returns the accuracy."""
    accuracy = mx.accuracy(pred, truth)
    confusion = mx.confusion_matrix(pred, truth, len(MATERIAL_CLASSES))
    precision, recall = mx.precision_recall(confusion)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["accuracy", repr(float(accuracy))])
        w.writerow(["class", "precision", "recall"]
                   + [f"confusion_{c}" for c in MATERIAL_CLASSES])
        for i, c in enumerate(MATERIAL_CLASSES):
            w.writerow([c, repr(float(precision[i])), repr(float(recall[i]))]
                       + [int(v) for v in confusion[i]])
    return accuracy


def cmd_episode(args) -> int:
    _require_at_least(args, 1, "--episodes")
    models_dir = _require_dir(Path(args.models), "models")
    material = _require_material(args.material)

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
        if not 0.0 <= fixed_torque <= MAX_GRIP_TORQUE:
            raise UsageError(f"fixed torque {fixed_torque} outside "
                             f"[0, {MAX_GRIP_TORQUE}] Nm")
    else:
        classifier, registry, _ = load_models(models_dir)
        if args.motion not in registry.default_models:
            raise UsageError(f"no default predictor for motion {args.motion!r} "
                             f"in {models_dir}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    rows, mean_torques, drops = [], [], 0
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
        mean_torques.append(log.mean_torque)
        drops += log.dropped_any
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
    print(f"{args.episodes} episodes ({args.policy}): mean torque "
          f"{np.mean(mean_torques):.3f} Nm, drops {drops}")
    return 0


def _active_run(material, classifier, likelihoods, confidence: float,
                max_segments: int, run: tuple[int, str]) -> inference.ActiveLog:
    """One active run (seed, selector), as `cmd_active` maps it over its
    processes. `inference.run_active_loop` is looked up at each call, so a
    wrapper put on it before the children fork runs in them and in the
    calling process alike."""
    seed, selector = run
    return inference.run_active_loop(material, classifier, likelihoods,
                                     confidence, max_segments, seed, selector)


def cmd_active(args) -> int:
    """Paired EIG and random identification runs, one pair per derived
    seed. The runs are shared between this process and children it forks
    (`workers.map_in_workers`). Each run is a pure function of its seed and
    selector, so the files are the bytes a serial run writes. They are
    written once every run has finished: a failing run writes no
    `active_*.csv` and no `summary.csv`."""
    _require_at_least(args, 1, "--seeds", "--max-segments")
    low, high = inference.CONFIDENCE_BOUNDS
    if not low < args.confidence < high:
        raise UsageError(f"--confidence must lie in ({low:g}, {high:g}), "
                         f"got {args.confidence}")
    models_dir = _require_dir(Path(args.models), "models")
    material = _require_material(args.material)
    classifier, _, likelihoods = load_models(models_dir)
    if likelihoods is None:
        raise UsageError(f"no confusion_<motion>.csv files in {models_dir}; "
                         "train the classifier first")
    seeds = [ds.derive_seed(args.seed, i, "active") for i in range(args.seeds)]
    logs = map_in_workers(
        functools.partial(_active_run, material, classifier,
                          likelihoods, args.confidence, args.max_segments),
        [(seed, selector) for seed in seeds for selector in inference.SELECTORS])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for i, seed in enumerate(seeds):
        eig, rand = logs[2 * i:2 * i + 2]
        for selector, log in zip(inference.SELECTORS, (eig, rand)):
            inference.write_active_csv(log, out / f"active_{selector}_{i:03d}.csv")
        rows.append([i, seed, eig.segments_used, int(eig.reached_confidence),
                     rand.segments_used, int(rand.reached_confidence)])
    with open(out / "summary.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["run", "seed", "eig_segments", "eig_reached",
                    "random_segments", "random_reached"])
        w.writerows(rows)
    eig_used, rand_used = [r[2] for r in rows], [r[4] for r in rows]
    print(f"active inference over {args.seeds} seeds: median segments "
          f"eig {np.median(eig_used):.1f} vs random {np.median(rand_used):.1f}; "
          f"mean eig {np.mean(eig_used):.2f} vs random {np.mean(rand_used):.2f}")
    return 0


def cmd_eval(args) -> int:
    dataset_dir = _require_dir(Path(args.dataset), "dataset")
    models_dir = _require_dir(Path(args.models), "models")
    manifest = ds.load_manifest(dataset_dir)
    classifier, registry, _ = load_models(models_dir)

    test_items, _ = ds.classifier_segments(dataset_dir, manifest, "test")
    acc = mx.accuracy(*classify_items(classifier, test_items))
    lines = [["classifier_accuracy", repr(float(acc))]]
    print(f"classifier test accuracy: {acc:.3f} over {len(test_items)} segments")

    for motion, model in sorted(registry.default_models.items()):
        Xt, slip_t, force_t, cell_t, _ = ds.predictor_windows(
            dataset_dir, manifest, "test", motion)
        m = _evaluate_predictor(model, Xt, slip_t, force_t, cell_t)
        auc = float("nan") if m.auc is None else m.auc
        lines += [[f"{motion}_auc", repr(float(auc))],
                  [f"{motion}_force_mae", repr(float(m.force_mae))],
                  [f"{motion}_cell_distance", repr(float(m.cell_distance))]]
        print(f"default predictor [{motion}]: AUC {_auc_text(m, slip_t, 'nan')}, "
              f"force MAE {m.force_mae:.4f} N, cell distance {m.cell_distance:.2f}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "eval.csv", "w", newline="") as f:
        csv.writer(f).writerows(lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gripsense",
        description="audio + tactile object-property estimation and "
                    "reactive grip control on a deterministic simulator")
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
    p.set_defaults(func=cmd_episode)

    p = sub.add_parser("active", help="active-inference material identification")
    p.add_argument("--models", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--material", required=True, help="true material in the sim")
    p.add_argument("--confidence", type=float, default=0.95)
    p.add_argument("--max-segments", type=int, default=12)
    p.add_argument("--seeds", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_active)

    p = sub.add_parser("eval", help="evaluate saved models on the test split")
    p.add_argument("--dataset", type=Path, required=True)
    p.add_argument("--models", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_eval)
    parser.command_parsers = dict(sub.choices)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        _echo_config(args)
        return status
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (ds.DatasetError, OSError, ValueError, KeyError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
