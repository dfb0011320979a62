"""The three benchmark workloads: collect, train and control.

Each workload drives the pipeline through its public entry points only:
the `gripsense` CLI stages, run in-process through `gripsense.cli.main`,
and `dataset.read_trial`. Its inputs are CLI arguments derived from the
workload seed. A workload has a set-up (building the dataset and models the
measured stages consume) and a round (the measured CLI work), which the
runner times and repeats. Every round checks the program's outputs and
digests them, so a byte change in any output is visible.

An operation is one trial, one CLI invocation, one episode or one active
run; an operation that raises, exits non-zero or fails a check counts as
failed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gripsense import dataset as ds
from gripsense.cli import main as cli_main
from gripsense.controller import ControllerConfig
from gripsense.materials import MATERIAL_CLASSES
from gripsense.simulation import GRID_COLS, GRID_ROWS, N_JOINTS

import reference

CELLS = tuple((motion, material) for motion in ds.MOTIONS
              for material in MATERIAL_CLASSES)
# Lowest classifier validation accuracy accepted (25 validation segments).
# Over seeds 0-11 at the sizes below the classifier reached at least 0.92;
# chance is 0.2.
CLASSIFIER_VAL_ACCURACY_FLOOR = 0.8
WARMUP_TRIALS = 1    # per cell, the collect warm-up pass
DATASET_TRIALS = 4   # per cell, the set-up dataset of train and control;
                     # the fewest that build_splits can stratify
EPISODES_PER_CELL = 1
READS_PER_REFERENCE = 5  # collect times the reference kernel after every 5th read


@dataclass(frozen=True)
class Sizes:
    """Input sizes. FULL is what the benchmark measures; tests use TINY."""
    collect_trials: int = 5     # per cell
    active_seeds: int = 4       # per material, each run with both selectors
    max_segments: int = 12
    setup_repeats: int = 3


FULL = Sizes()
TINY = Sizes(collect_trials=1, active_seeds=1, max_segments=3, setup_repeats=1)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, problems: list[str], n: int = 1) -> bool:
        """n operations that share one outcome; any problem fails them all."""
        self.attempted += n
        if problems:
            self.failed += n
            self.errors.extend(problems)
        return not problems

    def flag(self, problem: str) -> None:
        """A check on outputs of operations already counted (a round digest):
        one of them is marked failed."""
        self.failed = min(self.failed + 1, self.attempted)
        self.errors.append(problem)


@dataclass
class RoundResult:
    """One round: per-stage host seconds and work units, per-operation
    latencies, the output digest, bytes per trial of a written dataset, and
    the host-speed correction of its seconds (see reference.py), which the
    runner sets."""
    stage_s: dict[str, float] = field(default_factory=dict)
    units: dict[str, int] = field(default_factory=dict)
    op_ms: dict[str, list[float]] = field(default_factory=dict)
    digest: str = ""
    trial_bytes: float | None = None
    correction: float = 1.0


class _NullOperation:
    @contextlib.contextmanager
    def operation(self, name):
        yield


NO_TRACE = _NullOperation()


def run_cli(tracer, argv: list) -> tuple[list[str], float]:
    """One CLI invocation in-process, then one untimed reference sample:
    (problems, host seconds)."""
    argv = [str(a) for a in argv]
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with tracer.operation(f"cli.{argv[0]}"), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            rc = cli_main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        rc = exc.code
    except Exception:
        rc = None
        out.write(traceback.format_exc())
    seconds = time.perf_counter() - t0
    reference.sample()
    if rc == 0:
        return [], seconds
    return [f"{' '.join(argv)}: exit {rc}: {out.getvalue()[-400:]}"], seconds


def _digest_files(paths: list[Path], root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(str(p.relative_to(root)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def expected_steps(motion: str) -> int:
    # Trial durations are fixed by the protocol; only amplitudes are drawn.
    return ds.sample_trial_profile(motion, np.random.default_rng(0)).n_steps


def dir_bytes_per_trial(dataset_dir: Path) -> float:
    trials = [p for p in (dataset_dir / "trials").iterdir() if p.is_dir()]
    total = sum(f.stat().st_size for t in trials for f in t.iterdir())
    return total / len(trials)


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def stage_rate(rounds: list[RoundResult], units_key: str, stage_key: str) -> float:
    """Work units per reference second of one stage, over all rounds. Each
    round's host seconds are corrected for the host's speed in that round;
    the totals average what the correction leaves over the whole run."""
    seconds = sum(r.stage_s[stage_key] * r.correction for r in rounds)
    return sum(r.units[units_key] for r in rounds) / seconds if seconds else 0.0


def _mean_s(rounds, stage_key, note=""):
    return (sum(r.stage_s[stage_key] * r.correction for r in rounds) / len(rounds),
            "s", note)


class Workload:
    name = ""
    # (end-to-end name, stage key, units key, the workload's own name for
    # the rate or None) for each of the two stages
    stages: tuple = ()
    # The host's speed drifts over tens of seconds; a stage needs several
    # seconds of samples spread over the run.
    min_rounds = 2

    def __init__(self, seed: int, sizes: Sizes = FULL):
        self.seed = seed
        self.sizes = sizes
        self.rng = np.random.default_rng(seed)

    def setup(self, work: Path, tally: Tally) -> None:
        """Build what the rounds consume under work/."""

    def warm_up(self, work: Path, tally: Tally) -> None:
        """Untimed work after set-up that the first round would otherwise
        pay for alone."""

    def run_round(self, work: Path, tally: Tally, tracer=NO_TRACE) -> RoundResult:
        raise NotImplementedError

    def named_metrics(self, rounds: list[RoundResult]) -> dict[str, tuple[float, str, str]]:
        """The workload's stage metrics by their own names."""
        return {own: (stage_rate(rounds, units, stage), "1/s", f"= {generic}")
                for generic, stage, units, own in self.stages}


class Collect(Workload):
    """generate for all 10 cells, then read_trial with manifest checksums
    on every trial: simulator and trial storage, no models."""
    name = "collect"
    stages = (("stage1_per_s", "generate", "generated", "generate_trials_per_s"),
              ("stage2_per_s", "read", "read", "read_trials_per_s"))

    def _generate_and_read(self, out: Path, trials: int, tally: Tally, tracer,
                           res: RoundResult) -> None:
        res.units = {"generated": 0, "read": 0}
        res.stage_s["read"] = 0.0
        res.op_ms["read_trial"] = []
        problems, res.stage_s["generate"] = run_cli(
            tracer, ["generate", "--out", out, "--seed", self.seed, "--trials", trials])
        if not problems:
            manifest = ds.load_manifest(out)
            want = trials * len(CELLS)
            if len(manifest.trials) != want:
                problems.append(f"generate wrote {len(manifest.trials)} trials, "
                                f"expected {want}")
        if not tally.record(problems):
            return
        res.units["generated"] = len(manifest.trials)
        steps = {m: expected_steps(m) for m in ds.MOTIONS}
        for i, e in enumerate(manifest.trials):
            if i % READS_PER_REFERENCE == 0:
                reference.sample()
            t0 = time.perf_counter()
            try:
                with tracer.operation("op.read_trial"):
                    rec = ds.read_trial(out / e.path, e.checksums)
            except Exception as exc:
                tally.record([f"read_trial {e.trial_id}: {exc!r}"])
                continue
            dt = time.perf_counter() - t0
            res.stage_s["read"] += dt
            res.op_ms["read_trial"].append(dt * 1e3)
            n = steps[e.motion["kind"]]
            chunk = round(rec.dt * rec.sample_rate)
            shapes_ok = (rec.trial_id == e.trial_id and rec.n_steps == n
                         and rec.tactile.shape == (n, GRID_ROWS, GRID_COLS)
                         and rec.joint_angles.shape == (n, N_JOINTS)
                         and rec.joint_torques.shape == (n, N_JOINTS)
                         and rec.audio.shape == (n * chunk,)
                         and rec.true_cell.shape == (n, 2))
            if tally.record([] if shapes_ok else
                            [f"read_trial {e.trial_id}: shape check failed"]):
                res.units["read"] += 1
        h = hashlib.sha256()
        for e in sorted(manifest.trials, key=lambda e: e.trial_id):
            h.update(f"{e.trial_id}|{sorted(e.checksums.items())}\n".encode())
        res.digest = h.hexdigest()
        res.trial_bytes = dir_bytes_per_trial(out)

    def setup(self, work, tally):
        # A warm-up pass over the same code at one trial per cell.
        self._generate_and_read(work / "warmup", WARMUP_TRIALS,
                                tally, NO_TRACE, RoundResult())
        shutil.rmtree(work / "warmup")

    def run_round(self, work, tally, tracer=NO_TRACE):
        res = RoundResult()
        out = work / "round"
        shutil.rmtree(out, ignore_errors=True)
        self._generate_and_read(out, self.sizes.collect_trials, tally, tracer, res)
        return res


def _build_dataset(work: Path, seed: int, tally: Tally) -> Path:
    data = work / "data"
    shutil.rmtree(data, ignore_errors=True)
    problems, _ = run_cli(NO_TRACE, ["generate", "--out", data, "--seed", seed,
                                     "--trials", DATASET_TRIALS])
    tally.record(problems)
    return data


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as f:
        return list(csv.reader(f))


def _finite(text: str, undefined_ok: bool = False) -> bool:
    if undefined_ok and text in ("", "nan"):
        return True
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _check_classifier(models: Path) -> list[str]:
    path = models / "metrics_classifier.csv"
    rows = _csv_rows(path)
    acc = float(rows[0][1])
    problems = []
    if not (_finite(rows[0][1]) and all(_finite(v) for row in rows[2:] for v in row[1:])):
        problems.append(f"{path}: non-finite metric")
    if acc < CLASSIFIER_VAL_ACCURACY_FLOOR:
        problems.append(f"classifier val accuracy {acc} below "
                        f"{CLASSIFIER_VAL_ACCURACY_FLOOR}")
    return problems


def _check_predictor(models: Path, name: str) -> list[str]:
    path = models / f"metrics_{name}.csv"
    header, values = _csv_rows(path)
    # AUC is undefined (written empty, or nan in eval.csv) when the test
    # windows hold one slip class only.
    if all(_finite(v, k == "auc") for k, v in zip(header, values)):
        return []
    return [f"{path}: non-finite metric {values}"]


def _check_eval(evals: Path) -> list[str]:
    path = evals / "eval.csv"
    if all(_finite(v, k.endswith("_auc")) for k, v in _csv_rows(path)):
        return []
    return [f"{path}: non-finite metric"]


class Train(Workload):
    """train the classifier, both default predictors and one material-scope
    predictor on a set-up dataset, then eval: batched forward/backward,
    MFCC extraction and augmentation, read-side storage, no simulator."""
    name = "train"
    # The audio model, then the haptic models and the evaluation of both.
    stages = (("stage1_per_s", "classifier", "classifier_passes", None),
              ("stage2_per_s", "haptic", "haptic_passes", None))
    min_rounds = 3  # the classifier stage is about 2 s a round

    def __init__(self, seed, sizes=FULL):
        super().__init__(seed, sizes)
        self.material_motion = str(self.rng.choice(ds.MOTIONS))
        self.material = str(self.rng.choice(MATERIAL_CLASSES))

    def setup(self, work, tally):
        _build_dataset(work, self.seed, tally)

    def warm_up(self, work, tally):
        # The first classifier training in a process ran about 15% slower
        # than later ones.
        _, argv, check = self.train_runs(work / "data", _fresh(work / "warmup"))[0]
        problems, _ = run_cli(NO_TRACE, argv)
        tally.record(problems or _safe_check(check))
        shutil.rmtree(work / "warmup")

    def train_runs(self, data: Path, models: Path):
        """(stage, argv, output check) per training invocation."""
        base = ["train", "--dataset", data, "--out", models, "--seed", self.seed]
        scope = ["--scope", "material", "--motion", self.material_motion,
                 "--material", self.material]
        material_name = (f"predictor_material_{self.material_motion}_"
                         f"{self.material}")
        return [
            ("classifier", base + ["--task", "classifier"],
             lambda: _check_classifier(models)),
            ("predictor", base + ["--task", "predictor", "--motion", "shaking"],
             lambda: _check_predictor(models, "predictor_default_shaking")),
            ("predictor", base + ["--task", "predictor", "--motion", "rotation"],
             lambda: _check_predictor(models, "predictor_default_rotation")),
            ("predictor", base + ["--task", "predictor", *scope],
             lambda: _check_predictor(models, material_name)),
        ]

    def run_round(self, work, tally, tracer=NO_TRACE):
        res = RoundResult(stage_s={"classifier": 0.0, "predictor": 0.0})
        data = work / "data"
        models = _fresh(work / "round" / "models")
        evals = work / "round" / "eval"
        passed = {"classifier": 0, "predictor": 0}
        for stage, argv, check in self.train_runs(data, models):
            problems, s = run_cli(tracer, argv)
            res.stage_s[stage] += s
            passed[stage] += tally.record(problems or _safe_check(check))
        problems, res.stage_s["eval"] = run_cli(
            tracer, ["eval", "--dataset", data, "--models", models, "--out", evals])
        eval_ok = tally.record(problems or _safe_check(lambda: _check_eval(evals)))
        res.stage_s["haptic"] = res.stage_s["predictor"] + res.stage_s["eval"]
        res.units = {"classifier_passes": passed["classifier"],
                     "haptic_passes": int(passed["predictor"] == 3 and eval_ok)}
        res.digest = _digest_files(list(models.glob("*.gsm")), models)
        return res

    def named_metrics(self, rounds):
        return {
            "classifier_train_s": _mean_s(rounds, "classifier",
                                          "stage1_per_s = 1 / classifier_train_s"),
            "predictor_train_s": _mean_s(rounds, "predictor", "3 invocations"),
            "eval_s": _mean_s(rounds, "eval",
                              "stage2_per_s = 1 / (predictor_train_s + eval_s)"),
        }


def _safe_check(check) -> list[str]:
    """Run an output check; a missing or malformed file is a failed check."""
    try:
        return check()
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return [f"output check: {exc!r}"]


class Control(Workload):
    """reactive episodes over all 10 cells, then active runs (EIG and random
    selectors) over all 5 materials with set-up models: simulator steps,
    batch-1 predict, online mfcc/classify, grip_update, posterior/EIG."""
    name = "control"
    stages = (("stage1_per_s", "episode", "decisions", "decisions_per_s"),
              ("stage2_per_s", "active", "segments", "active_segments_per_s"))

    def __init__(self, seed, sizes=FULL):
        super().__init__(seed, sizes)
        self.train = Train(seed, sizes)
        self.episode_seeds = [int(s) for s in self.rng.integers(0, 2 ** 31, len(CELLS))]
        self.active_seeds = [int(s) for s in
                             self.rng.integers(0, 2 ** 31, len(MATERIAL_CLASSES))]

    def setup(self, work, tally):
        data = _build_dataset(work, self.seed, tally)
        models = _fresh(work / "models")
        for _, argv, _ in self.train.train_runs(data, models):
            problems, _ = run_cli(NO_TRACE, argv)
            tally.record(problems)

    def _episode_checks(self, out: Path, motion: str, k: int, res: RoundResult):
        """Problems per episode of one invocation."""
        cfg = ControllerConfig()
        steps = expected_steps(motion)
        with open(out / "summary.csv", newline="") as f:
            summary = list(csv.DictReader(f))
        per_episode = []
        for i in range(k):
            problems = []
            if i >= len(summary):
                per_episode.append([f"{out}: no summary row for episode {i}"])
                continue
            row = summary[i]
            if row["dropped"] != "0":
                problems.append(f"{out} episode {i}: container dropped")
            lo, hi = float(row["min_torque"]), float(row["max_torque"])
            if not (cfg.base_torque <= lo and hi <= cfg.max_torque):
                problems.append(f"{out} episode {i}: torque [{lo}, {hi}] outside "
                                f"[{cfg.base_torque}, {cfg.max_torque}]")
            with open(out / f"episode_reactive_{i:03d}.csv") as f:
                rows = sum(1 for _ in f) - 1
            if rows != steps:
                problems.append(f"{out} episode {i}: {rows} rows, expected {steps}")
            else:
                res.units["decisions"] += rows
            per_episode.append(problems)
        return per_episode

    def _active_checks(self, out: Path, res: RoundResult):
        """Problems per active run (seed x selector) of one invocation."""
        max_seg = self.sizes.max_segments
        with open(out / "summary.csv", newline="") as f:
            summary = list(csv.DictReader(f))
        per_run = []
        for row in summary:
            for selector in ("eig", "random"):
                used = int(row[f"{selector}_segments"])
                with open(out / f"active_{selector}_{int(row['run']):03d}.csv") as f:
                    rows = sum(1 for _ in f) - 1
                problems = []
                if used > max_seg:
                    problems.append(f"{out} {selector} run {row['run']}: "
                                    f"{used} segments > {max_seg}")
                if rows != used:
                    problems.append(f"{out} {selector} run {row['run']}: "
                                    f"{rows} log rows for {used} segments")
                if not problems:
                    res.units["segments"] += used
                per_run.append(problems)
        return per_run

    def _invoke(self, tally, tracer, argv, n_ops, checks, res, stage):
        problems, s = run_cli(tracer, argv)
        res.stage_s[stage] += s
        res.op_ms[stage].append(s * 1e3 / n_ops)
        if problems:
            tally.record(problems, n_ops)
            return
        try:
            per_op = checks()
        except (OSError, ValueError, KeyError) as exc:
            per_op = [[f"{argv[0]} output check: {exc!r}"]] * n_ops
        per_op += [["missing operation output"]] * (n_ops - len(per_op))
        for op_problems in per_op:
            tally.record(op_problems)

    def run_round(self, work, tally, tracer=NO_TRACE):
        k = EPISODES_PER_CELL
        n_runs = 2 * self.sizes.active_seeds
        models = work / "models"
        runs = _fresh(work / "round")
        res = RoundResult(stage_s={"episode": 0.0, "active": 0.0},
                          units={"decisions": 0, "segments": 0},
                          op_ms={"episode": [], "active": []})
        # Episode and active invocations alternate, so that both stages
        # sample the host's speed across the whole round.
        actives = iter(zip(MATERIAL_CLASSES, self.active_seeds))
        for i, ((motion, material), seed) in enumerate(zip(CELLS, self.episode_seeds)):
            out = runs / f"episode_{motion}_{material}"
            argv = ["episode", "--models", models, "--out", out, "--material",
                    material, "--motion", motion, "--seed", seed, "--episodes", k]
            self._invoke(tally, tracer, argv, k,
                         lambda: self._episode_checks(out, motion, k, res),
                         res, "episode")
            if i % 2:
                truth, active_seed = next(actives)
                out = runs / f"active_{truth}"
                argv = ["active", "--models", models, "--out", out, "--material",
                        truth, "--seed", active_seed, "--seeds", self.sizes.active_seeds,
                        "--max-segments", self.sizes.max_segments]
                self._invoke(tally, tracer, argv, n_runs,
                             lambda: self._active_checks(out, res), res, "active")
        res.digest = _digest_files(list(runs.rglob("*.csv")), runs)
        return res


WORKLOADS = {w.name: w for w in (Collect, Train, Control)}
