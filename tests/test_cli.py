import csv
import json
import re
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from gripsense import cli
from gripsense import dataset as ds
from gripsense import inference
from gripsense.cli import EPISODE_COLUMNS
from gripsense.materials import MATERIAL_CLASSES, material_table
from gripsense.models import classifier as clf
from gripsense.models import predictor as pred
from gripsense.models.predictor import SlipPredictor
from gripsense.models.serialize import ModelChecksumError, save_model

from conftest import assert_no_child_process


def episode_column(path, name):
    with open(path, newline="") as f:
        return np.array([float(row[name]) for row in csv.DictReader(f)])


@pytest.fixture(scope="module")
def cli_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "data"
    rc = cli.main(["generate", "--out", str(out), "--trials", "5",
                   "--seed", "1"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def cli_models(tmp_path_factory, cli_dataset):
    out = tmp_path_factory.mktemp("cli") / "models"
    rc = cli.main(["train", "--dataset", str(cli_dataset), "--out", str(out),
                   "--task", "classifier", "--epochs", "2", "--seed", "0"])
    assert rc == 0
    rc = cli.main(["train", "--dataset", str(cli_dataset), "--out", str(out),
                   "--task", "predictor", "--motion", "shaking",
                   "--epochs", "2", "--seed", "0"])
    assert rc == 0
    return out


class TestGenerate:
    def test_writes_dataset_and_config_echo(self, cli_dataset):
        doc = json.loads((cli_dataset / "run_config.json").read_text())
        assert doc["trials"] == 5 and doc["seed"] == 1
        assert doc["command"] == "generate"
        manifest = ds.load_manifest(cli_dataset)
        assert len(manifest.trials) == 50
        assert len(manifest.splits["train"]) == 30

    def test_refuses_existing_content(self, cli_dataset):
        assert cli.main(["generate", "--out", str(cli_dataset)]) == 1

    def test_single_trial_run_skips_splits(self, tmp_path, capsys):
        out = tmp_path / "tiny"
        rc = cli.main(["generate", "--out", str(out), "--trials", "1"])
        assert rc == 0
        assert "no split assignment" in capsys.readouterr().out
        manifest = ds.load_manifest(out)
        assert len(manifest.trials) == 10
        assert manifest.splits is None

    def test_manifest_is_encoded_once_with_its_splits(self, tmp_path,
                                                      monkeypatch):
        encoded = []
        encode = ds._manifest_to_json

        def spy(manifest):
            encoded.append(manifest)
            return encode(manifest)
        monkeypatch.setattr(ds, "_manifest_to_json", spy)
        out = tmp_path / "d"
        assert cli.main(["generate", "--out", str(out), "--trials", "4",
                         "--seed", "3"]) == 0
        assert len(encoded) == 1
        manifest = ds.load_manifest(out)
        assert manifest.splits == ds.build_splits(manifest, seed=3).splits

    def test_zero_trials_exits_2(self, tmp_path, capsys):
        rc = cli.main(["generate", "--out", str(tmp_path / "d"), "--trials", "0"])
        assert rc == 2
        assert "--trials" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        rc = cli.main(["generate", "--out", str(tmp_path / "d"), "--seed", "-1",
                       "--trials", "1"])
        assert rc == 2
        assert "--seed must be at least 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["generate"])
        assert exc.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["deploy"])
        assert exc.value.code == 2

    def test_config_flag_is_refused(self, tmp_path, capsys):
        # flags are the one way to set a run: there is no config file
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 1}))
        out = tmp_path / "d"
        with pytest.raises(SystemExit) as exc:
            cli.main([f"--config={cfg}", "generate", "--out", str(out)])
        assert exc.value.code == 2
        assert (f"unrecognized arguments: --config={cfg}"
                in capsys.readouterr().err)
        assert not out.exists()


class TestTrain:
    def test_classifier_artifacts(self, cli_models):
        assert (cli_models / "classifier.gsm").exists()
        assert (cli_models / "metrics_classifier.csv").exists()
        for motion in ("shaking", "rotation"):
            C = cli.read_confusion_csv(cli_models / f"confusion_{motion}.csv")
            assert C.shape == (5, 5)
            assert np.allclose(C.sum(axis=1), 1.0)

    def test_predictor_artifacts(self, cli_models):
        assert (cli_models / "predictor_default_shaking.gsm").exists()
        assert (cli_models / "metrics_predictor_default_shaking.csv").exists()

    def test_training_curves(self, cli_models):
        # cli_models trains each model for 2 epochs
        for name, header in (
                ("classifier", ["epoch", "mean_loss", "val_accuracy"]),
                ("predictor_default_shaking", ["epoch", "mean_loss"])):
            with open(cli_models / f"curve_{name}.csv", newline="") as f:
                rows = list(csv.reader(f))
            assert rows[0] == header
            assert [row[0] for row in rows[1:]] == ["0", "1"]
            figures = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
            assert np.all(np.isfinite(figures)) and np.all(figures[:, 0] > 0)
            if name == "classifier":
                assert np.all((figures[:, 1] >= 0) & (figures[:, 1] <= 1))

    @pytest.mark.parametrize("flags, trainer, epochs", [
        (["--task", "classifier"], "train_classifier", clf.EPOCHS),
        (["--task", "predictor"], "train_predictor", pred.EPOCHS),
        (["--task", "predictor", "--scope", "material", "--material", "rice"],
         "train_predictor", pred.MATERIAL_EPOCHS),
    ], ids=["classifier", "default-predictor", "material-predictor"])
    def test_unset_epochs_train_the_models_own_count(
            self, cli_dataset, tmp_path, monkeypatch, flags, trainer, epochs):
        # the spy records the count it is asked for and trains one epoch,
        # which keeps the test fast
        asked = []
        real = getattr(cli, trainer)

        def spy(*args, epochs, **kwargs):
            asked.append(epochs)
            return real(*args, epochs=1, **kwargs)
        monkeypatch.setattr(cli, trainer, spy)
        out = tmp_path / "m"
        assert cli.main(["train", "--dataset", str(cli_dataset),
                         "--out", str(out)] + flags) == 0
        assert asked == [epochs]
        (echo,) = out.glob("run_config*.json")
        doc = json.loads(echo.read_text())
        assert doc["epochs"] == epochs and "lr" not in doc

    def test_each_train_keeps_its_flags_beside_its_model(
            self, cli_dataset, tmp_path, monkeypatch):
        # four trains into one models directory, each with its own epoch
        # count and seed; the trainers run one epoch, which keeps it fast
        def one_epoch(real):
            return lambda *args, epochs, **kwargs: real(*args, epochs=1, **kwargs)

        for trainer in ("train_classifier", "train_predictor"):
            monkeypatch.setattr(cli, trainer, one_epoch(getattr(cli, trainer)))
        out = tmp_path / "models"
        runs = {
            "classifier": (["--task", "classifier"], 3, 11),
            "predictor_default_shaking": (["--task", "predictor"], 4, 12),
            "predictor_default_rotation": (
                ["--task", "predictor", "--motion", "rotation"], 5, 13),
            "predictor_material_shaking_rice": (
                ["--task", "predictor", "--scope", "material",
                 "--material", "rice"], 6, 14),
        }
        for flags, epochs, seed in runs.values():
            assert cli.main(["train", "--dataset", str(cli_dataset),
                             "--out", str(out), "--epochs", str(epochs),
                             "--seed", str(seed)] + flags) == 0
        assert sorted(p.name for p in out.glob("run_config*.json")) == sorted(
            f"run_config_{stem}.json" for stem in runs)
        for stem, (_, epochs, seed) in runs.items():
            assert (out / f"{stem}.gsm").is_file()
            doc = json.loads((out / f"run_config_{stem}.json").read_text())
            assert (doc["command"], doc["epochs"], doc["seed"]) == (
                "train", epochs, seed)

    def test_material_scope_requires_material(self, cli_dataset, tmp_path):
        rc = cli.main(["train", "--dataset", str(cli_dataset),
                       "--out", str(tmp_path), "--task", "predictor",
                       "--scope", "material", "--epochs", "1"])
        assert rc == 2

    @pytest.mark.parametrize("flag", ["--epochs"])
    def test_zero_window_count_exits_2(self, cli_dataset, tmp_path, capsys,
                                       flag):
        rc = cli.main(["train", "--dataset", str(cli_dataset),
                       "--out", str(tmp_path / "m"), "--task", "predictor",
                       "--epochs", "1", flag, "0"])
        assert rc == 2
        assert f"{flag} must be at least 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    def test_negative_seed_exits_2(self, cli_dataset, tmp_path, capsys):
        rc = cli.main(["train", "--dataset", str(cli_dataset),
                       "--out", str(tmp_path / "m"), "--task", "predictor",
                       "--epochs", "1", "--seed", "-1"])
        assert rc == 2
        assert "--seed must be at least 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("task, flag, value", [
        pytest.param(task, flag, value, id=f"{task}-{flag.removeprefix('--')}")
        for task in ("predictor", "classifier")
        for flag, value in (("--window", "3"), ("--horizon", "99"),
                            ("--stride", "7"), ("--lr", "0.05"))])
    def test_removed_window_flags_are_refused(self, cli_dataset, tmp_path,
                                              capsys, task, flag, value):
        # the window, horizon and stride are predictor.WINDOW,
        # predictor.HORIZON and dataset.STRIDE, each model's learning rate
        # is its module's LR, and no flag sets them
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--dataset", str(cli_dataset),
                      "--out", str(tmp_path / "m"), "--task", task,
                      "--epochs", "1", flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    def test_material_without_material_scope_exits_2(self, cli_dataset,
                                                     tmp_path, capsys):
        rc = cli.main(["train", "--dataset", str(cli_dataset),
                       "--out", str(tmp_path / "m"), "--task", "predictor",
                       "--epochs", "1", "--material", "rice"])
        assert rc == 2
        assert "--material is given with --scope material" in \
            capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--scope", "material"), ("--motion", "rotation")])
    def test_classifier_refuses_predictor_flags(self, cli_dataset, tmp_path,
                                                capsys, flag, value):
        extra = ["--material", "rice"] if flag == "--scope" else []
        rc = cli.main(["train", "--dataset", str(cli_dataset),
                       "--out", str(tmp_path / "m"), "--task", "classifier",
                       "--epochs", "1", flag, value] + extra)
        assert rc == 2
        assert (f"{flag} applies only to --task predictor, got {flag} {value}"
                in capsys.readouterr().err)
        assert not (tmp_path / "m").exists()

    def test_classifier_accepts_predictor_flags_at_their_defaults(
            self, cli_dataset, tmp_path):
        rc = cli.main(["train", "--dataset", str(cli_dataset),
                       "--out", str(tmp_path / "m"), "--task", "classifier",
                       "--epochs", "1", "--scope", "default", "--motion",
                       "shaking"])
        assert rc == 0
        assert (tmp_path / "m" / cli.CLASSIFIER_FILE).exists()

    def test_missing_dataset_dir_exits_2(self, tmp_path):
        rc = cli.main(["train", "--dataset", str(tmp_path / "nothing"),
                       "--out", str(tmp_path / "m"), "--task", "classifier"])
        assert rc == 2


class TestEpisode:
    def test_fixed_policy_writes_logs(self, cli_models, tmp_path):
        rc = cli.main(["episode", "--models", str(cli_models),
                       "--out", str(tmp_path), "--material", "rice",
                       "--policy", "fixed:1.0", "--episodes", "2",
                       "--seed", "7"])
        assert rc == 0
        torque = episode_column(tmp_path / "episode_fixed_1.0_000.csv",
                                "torque_cmd")
        assert np.all(torque == 1.0)
        assert (tmp_path / "episode_fixed_1.0_001.csv").exists()
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert len(summary) == 3

    def test_fixed_policy_range_guard(self, cli_models, tmp_path):
        rc = cli.main(["episode", "--models", str(cli_models),
                       "--out", str(tmp_path), "--material", "rice",
                       "--policy", "fixed:1.5"])
        assert rc == 2

    def test_non_numeric_fixed_torque_exits_2(self, cli_models, tmp_path,
                                              capsys):
        rc = cli.main(["episode", "--models", str(cli_models),
                       "--out", str(tmp_path), "--material", "rice",
                       "--policy", "fixed:abc"])
        assert rc == 2
        assert "--policy" in capsys.readouterr().err

    def test_zero_episodes_exits_2(self, cli_models, tmp_path, capsys):
        rc = cli.main(["episode", "--models", str(cli_models),
                       "--out", str(tmp_path), "--material", "rice",
                       "--policy", "fixed:0.4", "--episodes", "0"])
        assert rc == 2
        assert "--episodes" in capsys.readouterr().err

    def test_unknown_material_exits_2(self, cli_models, tmp_path):
        rc = cli.main(["episode", "--models", str(cli_models),
                       "--out", str(tmp_path), "--material", "sand"])
        assert rc == 2

    def test_reactive_episode_runs(self, cli_models, tmp_path):
        rc = cli.main(["episode", "--models", str(cli_models),
                       "--out", str(tmp_path), "--material", "rice",
                       "--policy", "reactive", "--seed", "3"])
        assert rc == 0
        torque = episode_column(tmp_path / "episode_reactive_000.csv",
                                "torque_cmd")
        assert len(torque) > 0
        assert np.all(np.isfinite(torque))

    def test_reactive_needs_motion_model(self, cli_models, tmp_path):
        rc = cli.main(["episode", "--models", str(cli_models),
                       "--out", str(tmp_path), "--material", "rice",
                       "--motion", "rotation"])
        assert rc == 2


@pytest.mark.parametrize("argv", [
    ["episode", "--material", "sand"],
    ["episode", "--material", "rice", "--policy", "fixed:2"],
    ["episode", "--material", "rice", "--motion", "rotation"],
    ["active", "--material", "sand"],
    ["train", "--task", "predictor", "--scope", "material", "--material", "sand"],
])
def test_usage_error_writes_nothing(cli_dataset, cli_models, tmp_path, capsys,
                                    argv):
    out = tmp_path / "out"
    inputs = (["--dataset", str(cli_dataset)] if argv[0] == "train"
              else ["--models", str(cli_models)])
    rc = cli.main(argv + inputs + ["--out", str(out)])
    assert rc == 2
    assert not out.exists()
    if "sand" in argv:
        assert str(MATERIAL_CLASSES) in capsys.readouterr().err


class TestActiveAndEval:
    def test_active_loop_runs(self, cli_models, tmp_path, capsys):
        rc = cli.main(["active", "--models", str(cli_models),
                       "--out", str(tmp_path), "--material", "rice",
                       "--confidence", "0.9", "--max-segments", "3",
                       "--seeds", "2", "--seed", "5"])
        assert rc == 0
        for name in ("active_eig_000.csv", "active_random_000.csv",
                     "active_eig_001.csv", "active_random_001.csv"):
            assert (tmp_path / name).exists()
        with open(tmp_path / "summary.csv", newline="") as f:
            summary = list(csv.DictReader(f))
        assert len(summary) == 2
        # a run is right when its log's last posterior ranks the true
        # material first
        for row in summary:
            for s in ("eig", "random"):
                with open(tmp_path / f"active_{s}_{int(row['run']):03d}.csv",
                          newline="") as f:
                    last = list(csv.DictReader(f))[-1]
                probs = [float(last[f"p_{c}"]) for c in MATERIAL_CLASSES]
                named = MATERIAL_CLASSES[int(np.argmax(probs))]
                assert row[f"{s}_right"] == str(int(named == "rice")), (row, s)
        # the median, the mean and the right-count of each selector's runs
        used = {s: [int(row[f"{s}_segments"]) for row in summary]
                for s in ("eig", "random")}
        right = {s: sum(int(row[f"{s}_right"]) for row in summary)
                 for s in ("eig", "random")}
        assert capsys.readouterr().out == (
            f"active inference over 2 seeds: median segments "
            f"eig {np.median(used['eig']):.1f} vs random "
            f"{np.median(used['random']):.1f}; mean eig "
            f"{np.mean(used['eig']):.2f} vs random "
            f"{np.mean(used['random']):.2f}; right eig {right['eig']} vs "
            f"random {right['random']}\n")

    @pytest.mark.parametrize("material", ["rice", "empty"])
    def test_active_files_equal_a_serial_run(self, cli_models, tmp_path,
                                             material):
        # the runs are shared out over processes; the files must be the
        # bytes of one loop over the same derived seeds
        out, serial = tmp_path / "pool", tmp_path / "serial"
        rc = cli.main(["active", "--models", str(cli_models), "--out", str(out),
                       "--material", material, "--confidence", "0.9",
                       "--max-segments", "4", "--seeds", "3", "--seed", "7"])
        assert rc == 0
        classifier, _, likelihoods = cli.load_models(cli_models)
        serial.mkdir()
        rows = [["run", "seed", "eig_segments", "eig_reached", "eig_right",
                 "random_segments", "random_reached", "random_right"]]
        for i in range(3):
            seed = ds.derive_seed(7, i, "active")
            rows.append([i, seed])
            for selector in ("eig", "random"):
                log = inference.run_active_loop(
                    material_table()[material], classifier, likelihoods,
                    0.9, 4, seed, selector)
                cli.write_active_csv(
                    log, serial / f"active_{selector}_{i:03d}.csv")
                rows[-1] += [log.segments_used, int(log.reached_confidence),
                             int(log.named_material == material)]
        with open(serial / "summary.csv", "w", newline="") as f:
            csv.writer(f).writerows(rows)
        names = sorted(p.name for p in serial.iterdir())
        assert sorted(p.name for p in out.glob("*.csv")) == names
        for name in names:
            assert (out / name).read_bytes() == (serial / name).read_bytes(), name

    def test_failing_run_writes_no_run_files(self, cli_models, tmp_path,
                                             capsys, monkeypatch):
        # the workers are forked, so they run the patched loop; a serial
        # loop would have written the first seed's files before failing
        failing_seed = ds.derive_seed(5, 1, "active")
        run_active_loop = inference.run_active_loop

        def failing(*args):
            if args[5] == failing_seed:
                raise RuntimeError(f"run with seed {failing_seed}: forced")
            return run_active_loop(*args)

        monkeypatch.setattr(inference, "run_active_loop", failing)
        rc = cli.main(["active", "--models", str(cli_models),
                       "--out", str(tmp_path), "--material", "rice",
                       "--max-segments", "3", "--seeds", "3", "--seed", "5"])
        assert rc == 1
        assert f"run with seed {failing_seed}: forced" in capsys.readouterr().err
        assert_no_child_process()
        assert not (tmp_path / "summary.csv").exists()
        assert list(tmp_path.glob("active_*.csv")) == []
        assert not (tmp_path / "run_config.json").exists()

    def test_zero_seeds_exits_2(self, cli_models, tmp_path, capsys):
        rc = cli.main(["active", "--models", str(cli_models),
                       "--out", str(tmp_path), "--material", "rice",
                       "--seeds", "0"])
        assert rc == 2
        assert "--seeds" in capsys.readouterr().err

    def test_zero_max_segments_exits_2(self, cli_models, tmp_path, capsys):
        rc = cli.main(["active", "--models", str(cli_models),
                       "--out", str(tmp_path), "--material", "rice",
                       "--max-segments", "0", "--seeds", "1"])
        assert rc == 2
        assert "--max-segments" in capsys.readouterr().err

    def test_confidence_outside_range_exits_2(self, cli_models, tmp_path,
                                              capsys):
        rc = cli.main(["active", "--models", str(cli_models),
                       "--out", str(tmp_path), "--material", "rice",
                       "--confidence", "1.5", "--seeds", "1"])
        assert rc == 2
        assert "--confidence" in capsys.readouterr().err

    def test_active_needs_confusions(self, cli_models, tmp_path):
        bare = tmp_path / "bare"
        bare.mkdir()
        (bare / "classifier.gsm").write_bytes(
            (cli_models / "classifier.gsm").read_bytes())
        rc = cli.main(["active", "--models", str(bare),
                       "--out", str(tmp_path / "o"), "--material", "rice"])
        assert rc == 2
        assert not (tmp_path / "o").exists()

    def test_permuted_confusion_header_rejected(self, cli_models, tmp_path):
        models = tmp_path / "models"
        shutil.copytree(cli_models, models)
        path = models / "confusion_shaking.csv"
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        # swap two class columns, header included: the numbers stay with
        # their labels, but the column order no longer matches the rows
        with open(path, "w", newline="") as f:
            csv.writer(f).writerows([row[:1] + row[2:3] + row[1:2] + row[3:]
                                     for row in rows])
        with pytest.raises(ValueError, match="confusion_shaking.csv"):
            cli.load_models(models)
        rc = cli.main(["active", "--models", str(models),
                       "--out", str(tmp_path / "o"), "--material", "rice"])
        assert rc == 1

    def test_non_square_confusion_rejected(self, cli_models, tmp_path):
        path = tmp_path / "confusion_shaking.csv"
        with open(cli_models / "confusion_shaking.csv", newline="") as f:
            rows = list(csv.reader(f))
        rows[2] = rows[2][:-1]
        with open(path, "w", newline="") as f:
            csv.writer(f).writerows(rows)
        with pytest.raises(ValueError, match="confusion_shaking.csv"):
            cli.read_confusion_csv(path)

    def test_non_numeric_confusion_rejected(self, cli_models, tmp_path):
        path = tmp_path / "confusion_shaking.csv"
        with open(cli_models / "confusion_shaking.csv", newline="") as f:
            rows = list(csv.reader(f))
        rows[2][3] = "x" + rows[2][3]
        with open(path, "w", newline="") as f:
            csv.writer(f).writerows(rows)
        with pytest.raises(ValueError, match="confusion_shaking.csv"):
            cli.read_confusion_csv(path)

    def test_eval_reports_test_metrics(self, cli_dataset, cli_models,
                                       tmp_path, capsys):
        rc = cli.main(["eval", "--dataset", str(cli_dataset),
                       "--models", str(cli_models), "--out", str(tmp_path)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "classifier test accuracy" in text
        assert "default predictor [shaking]" in text
        lines = (tmp_path / "eval.csv").read_text().splitlines()
        assert lines[0].startswith("classifier_accuracy,")
        acc = float(lines[0].split(",")[1])
        assert 0.0 <= acc <= 1.0
        assert json.loads((tmp_path / "run_config.json").read_text())["command"] == "eval"
        # train scored the model file it wrote, as eval reads it, so both
        # report the same figures to the last digit
        with open(cli_models / "metrics_predictor_default_shaking.csv",
                  newline="") as f:
            names, figures = list(csv.reader(f))
        assert figures[0] != ""
        rows = dict(line.split(",") for line in lines)
        assert [rows[f"shaking_{name}"] for name in names] == figures

    def test_eval_of_empty_models_writes_nothing(self, cli_dataset, tmp_path,
                                                 capsys):
        models = tmp_path / "models"
        models.mkdir()
        out = tmp_path / "out"
        rc = cli.main(["eval", "--dataset", str(cli_dataset),
                       "--models", str(models), "--out", str(out)])
        assert rc == 1
        assert "classifier.gsm" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_auc_gives_class_counts(self, cli_dataset, cli_models,
                                             tmp_path, capsys):
        # the rotation test windows of this dataset hold no slip
        manifest = ds.load_manifest(cli_dataset)
        _, slip, _, _ = ds.predictor_windows(cli_dataset, manifest, "test",
                                             "rotation")
        assert slip.sum() == 0
        note = f"(test windows: 0 slip, {len(slip)} non-slip)"
        models = tmp_path / "models"
        shutil.copytree(cli_models, models)
        rc = cli.main(["train", "--dataset", str(cli_dataset),
                       "--out", str(models), "--task", "predictor",
                       "--motion", "rotation", "--epochs", "1"])
        assert rc == 0
        assert f"test AUC n/a {note}," in capsys.readouterr().out
        metrics = models / "metrics_predictor_default_rotation.csv"
        assert metrics.read_text().splitlines()[1].startswith(",")
        rc = cli.main(["eval", "--dataset", str(cli_dataset),
                       "--models", str(models), "--out", str(tmp_path / "e")])
        assert rc == 0
        assert f"default predictor [rotation]: AUC nan {note}," in \
            capsys.readouterr().out
        assert "rotation_auc,nan" in (tmp_path / "e" / "eval.csv").read_text()


class TestLoadModels:
    """Each bad models directory fails at load_models, naming the file."""

    def copy(self, cli_models, tmp_path):
        models = tmp_path / "models"
        shutil.copytree(cli_models, models)
        return models

    def test_truncated_classifier_names_file(self, cli_models, tmp_path,
                                             capsys):
        models = self.copy(cli_models, tmp_path)
        path = models / cli.CLASSIFIER_FILE
        path.write_bytes(path.read_bytes()[:300])
        with pytest.raises(ModelChecksumError, match=str(path)):
            cli.load_models(models)
        rc = cli.main(["episode", "--models", str(models),
                       "--out", str(tmp_path / "o"), "--material", "rice"])
        assert rc == 1
        assert str(path) in capsys.readouterr().err

    def test_wrong_input_dim_names_file(self, cli_models, tmp_path):
        # a file written from a predictor of another input width holds a
        # parameter block of the wrong length
        class Narrow(SlipPredictor):
            input_dim = 4

        models = self.copy(cli_models, tmp_path)
        path = models / cli.predictor_filename("shaking", None)
        save_model(path, Narrow(motion="shaking"))
        with pytest.raises(ValueError, match=f"{path}: bad predictor "
                           "descriptor: parameter vector length mismatch"):
            cli.load_models(models)

    def test_material_model_without_default_names_file(self, cli_models,
                                                       tmp_path):
        models = self.copy(cli_models, tmp_path)
        path = models / cli.predictor_filename("rotation", "cereal")
        save_model(path, SlipPredictor(motion="rotation", material="cereal"))
        with pytest.raises(ValueError, match=str(path)):
            cli.load_models(models)


    @pytest.mark.parametrize("saved_as, scope, motion, material", [
        # a material rice-rotation model under the shaking default's name
        (("shaking", None), "material", "rotation", "rice"),
        (("shaking", "rice"), "default", "shaking", None),
        (("shaking", None), "default", "rotation", None),
        (("shaking", "rice"), "material", "shaking", "gummies"),
    ])
    def test_name_disagreeing_with_descriptor_names_file(
            self, cli_models, tmp_path, saved_as, scope, motion, material):
        models = self.copy(cli_models, tmp_path)
        path = models / cli.predictor_filename(*saved_as)
        model = SlipPredictor(motion=motion, material=material)
        assert model.scope == scope
        save_model(path, model)
        expected = cli.predictor_filename(motion, material)
        with pytest.raises(ValueError,
                           match=f"{path} holds .* should be {expected}"):
            cli.load_models(models)

    @pytest.mark.parametrize("motion, material, unknown", [
        ("stirring", None, "motion 'stirring'"),
        ("shaking", "plastic", "material 'plastic'")],
        ids=["motion", "material"])
    def test_unknown_motion_or_material_names_file(
            self, cli_dataset, cli_models, tmp_path, capsys, motion, material,
            unknown):
        # its file name fits its descriptor, but no dataset holds its cell
        models = self.copy(cli_models, tmp_path)
        path = models / cli.predictor_filename(motion, material)
        save_model(path, SlipPredictor(motion=motion, material=material))
        with pytest.raises(ValueError,
                           match=f"{path} holds a predictor for unknown {unknown}"):
            cli.load_models(models)
        rc = cli.main(["eval", "--dataset", str(cli_dataset),
                       "--models", str(models), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert str(path) in capsys.readouterr().err

    def test_confusion_for_unknown_motion_names_file(self, cli_models,
                                                     tmp_path, capsys):
        models = self.copy(cli_models, tmp_path)
        path = models / cli.confusion_filename("stirring")
        shutil.copyfile(models / cli.confusion_filename("shaking"), path)
        with pytest.raises(ValueError, match=f"{path} is for unknown motion"):
            cli.load_models(models)
        rc = cli.main(["active", "--models", str(models),
                       "--out", str(tmp_path / "o"), "--material", "rice"])
        assert rc == 1
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["nan", "0.9"])
    def test_bad_confusion_entries_name_file(self, cli_models, tmp_path,
                                             capsys, entry):
        # a nan, or a row that no longer sums to 1
        models = self.copy(cli_models, tmp_path)
        path = models / cli.confusion_filename("shaking")
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        rows[2][3] = entry
        with open(path, "w", newline="") as f:
            csv.writer(f).writerows(rows)
        with pytest.raises(ValueError, match=f"{path}: confusion matrix for "
                           "'shaking' is not row-stochastic"):
            cli.load_models(models)
        rc = cli.main(["active", "--models", str(models),
                       "--out", str(tmp_path / "o"), "--material", "rice"])
        assert rc == 1
        assert str(path) in capsys.readouterr().err


def test_episode_csv_schema_is_stable():
    assert EPISODE_COLUMNS[0] == "t"
    assert len(EPISODE_COLUMNS) == 9


def test_write_csv_number_format(tmp_path):
    # a Python or numpy float reads back as repr(float(v)), to the same
    # bits; nan as nan, None as an empty field and an int as itself
    floats = [0.1, 1 / 3, np.float64(0.1), np.float64(1e16),
              np.float64(-2.5e-7)]
    path = tmp_path / "run.csv"
    cli.write_csv(path, [("name", "value"), [*floats, float("nan"), None, 7]])
    with open(path, newline="") as f:
        header, row = list(csv.reader(f))
    assert header == ["name", "value"]
    assert row == [repr(float(v)) for v in floats] + ["nan", "", "7"]
    assert all(struct.pack("<d", float(field)) == struct.pack("<d", v)
               for field, v in zip(row, floats))


def test_readme_flag_reference_names_every_flag():
    # each subcommand's bullet under "Flag reference:" names every one of
    # its flags, as `--flag` or `--flag {choices}`; a top-level flag may be
    # named anywhere in the section
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("Flag reference:", 1)[1].split("\n## ", 1)[0]
    bullets = {}
    for item in re.split(r"^- ", section, flags=re.M)[1:]:
        name, _, text = item.split("\n\n", 1)[0].partition(":")
        bullets[name.strip("`")] = text
    parser = cli.build_parser()
    documented = [(None, parser, section)] + [
        (command, sub, bullets.get(command, ""))
        for command, sub in parser.command_parsers.items()]
    missing = [f"{command or 'gripsense'} {flag}"
               for command, sub, text in documented
               for action in sub._actions for flag in action.option_strings
               if flag.startswith("--") and flag != "--help"
               and not re.search(f"`{re.escape(flag)}[` ]", text)]
    assert not missing, missing
