import csv
import json
import shutil

import numpy as np
import pytest

from gripsense import cli
from gripsense import dataset as ds
from gripsense.controller import EPISODE_COLUMNS
from gripsense.models.predictor import PredictorConfig, SlipPredictor
from gripsense.models.serialize import ModelChecksumError, save_model


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

    def test_zero_trials_exits_2(self, tmp_path, capsys):
        rc = cli.main(["generate", "--out", str(tmp_path / "d"), "--trials", "0"])
        assert rc == 2
        assert "--trials" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["generate"])
        assert exc.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["deploy"])
        assert exc.value.code == 2

    def test_config_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 1}))
        out = tmp_path / "data"
        rc = cli.main(["--config", str(cfg), "generate", "--out", str(out)])
        assert rc == 0
        assert len(ds.load_manifest(out).trials) == 10

    def test_config_with_unknown_key_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"episodes": 3}))
        rc = cli.main(["--config", str(cfg), "generate",
                       "--out", str(tmp_path / "d")])
        assert rc == 2

    def test_unreadable_config_exits_2(self, tmp_path):
        rc = cli.main(["--config", str(tmp_path / "nope.json"),
                       "generate", "--out", str(tmp_path / "d")])
        assert rc == 2


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

    def test_material_scope_requires_material(self, cli_dataset, tmp_path):
        rc = cli.main(["train", "--dataset", str(cli_dataset),
                       "--out", str(tmp_path), "--task", "predictor",
                       "--scope", "material", "--epochs", "1"])
        assert rc == 2

    @pytest.mark.parametrize("flag", ["--window", "--horizon", "--stride"])
    def test_zero_window_count_exits_2(self, cli_dataset, tmp_path, capsys,
                                       flag):
        rc = cli.main(["train", "--dataset", str(cli_dataset),
                       "--out", str(tmp_path / "m"), "--task", "predictor",
                       "--epochs", "1", flag, "0"])
        assert rc == 2
        assert f"{flag} must be at least 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

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


class TestActiveAndEval:
    def test_active_loop_runs(self, cli_models, tmp_path):
        rc = cli.main(["active", "--models", str(cli_models),
                       "--out", str(tmp_path), "--material", "rice",
                       "--confidence", "0.9", "--max-segments", "3",
                       "--seeds", "2", "--seed", "5"])
        assert rc == 0
        for name in ("active_eig_000.csv", "active_random_000.csv",
                     "active_eig_001.csv", "active_random_001.csv"):
            assert (tmp_path / name).exists()
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert len(summary) == 3

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


    def test_missing_auc_gives_class_counts(self, cli_dataset, cli_models,
                                             tmp_path, capsys):
        # the rotation test windows of this dataset hold no slip
        manifest = ds.load_manifest(cli_dataset)
        _, slip, _, _, _ = ds.predictor_windows(cli_dataset, manifest, "test",
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
        models = self.copy(cli_models, tmp_path)
        path = models / cli.predictor_filename("default", "shaking", None)
        save_model(path, SlipPredictor(PredictorConfig(input_dim=4),
                                       motion="shaking"))
        with pytest.raises(ValueError, match=f"{path} has input_dim 4"):
            cli.load_models(models)

    def test_material_model_without_default_names_file(self, cli_models,
                                                       tmp_path):
        models = self.copy(cli_models, tmp_path)
        path = models / cli.predictor_filename("material", "rotation",
                                               "cereal")
        save_model(path, SlipPredictor(PredictorConfig(), scope="material",
                                       motion="rotation", material="cereal"))
        with pytest.raises(ValueError, match=str(path)):
            cli.load_models(models)


    @pytest.mark.parametrize("saved_as, scope, motion, material", [
        # a material rice-rotation model under the shaking default's name
        (("default", "shaking", None), "material", "rotation", "rice"),
        (("material", "shaking", "rice"), "default", "shaking", None),
        (("default", "shaking", None), "default", "rotation", None),
        (("material", "shaking", "rice"), "material", "shaking", "gummies"),
    ])
    def test_name_disagreeing_with_descriptor_names_file(
            self, cli_models, tmp_path, saved_as, scope, motion, material):
        models = self.copy(cli_models, tmp_path)
        path = models / cli.predictor_filename(*saved_as)
        save_model(path, SlipPredictor(PredictorConfig(), scope=scope,
                                       motion=motion, material=material))
        expected = cli.predictor_filename(scope, motion, material)
        with pytest.raises(ValueError,
                           match=f"{path} holds .* should be {expected}"):
            cli.load_models(models)

    @pytest.mark.parametrize("cfg", [PredictorConfig(window=10),
                                     PredictorConfig(horizon=5)])
    def test_material_window_differing_from_default_names_file(
            self, cli_models, tmp_path, cfg):
        models = self.copy(cli_models, tmp_path)
        path = models / cli.predictor_filename("material", "shaking", "rice")
        save_model(path, SlipPredictor(cfg, scope="material", motion="shaking",
                                       material="rice"))
        with pytest.raises(ValueError, match=f"{path} has window "
                           f"{cfg.window} and horizon {cfg.horizon}"):
            cli.load_models(models)
        save_model(path, SlipPredictor(PredictorConfig(), scope="material",
                                       motion="shaking", material="rice"))
        cli.load_models(models)


def test_episode_csv_schema_is_stable():
    assert EPISODE_COLUMNS[0] == "t"
    assert len(EPISODE_COLUMNS) == 9
