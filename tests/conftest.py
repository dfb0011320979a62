"""Shared fixtures: one full dataset and one set of trained models per
test session, so the expensive pieces are paid for once."""

import os
import sys
import time

import pytest
from hypothesis import HealthCheck, settings

from gripsense import dataset as ds
from gripsense import inference
from gripsense.models import classifier as clf
from gripsense.models import predictor as pred
from gripsense.models.classifier import classify_items, train_classifier
from gripsense.models.predictor import train_predictor
from gripsense.models.registry import ModelRegistry

settings.register_profile(
    "repo",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repo")

BASE_SEED = 0


def assert_no_child_process():
    """This process has no child, running or unreaped, as the OS sees it.
    `multiprocessing.active_children()` lists only multiprocessing's own
    Process objects, so it cannot see a child started by `os.fork`."""
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    state = "running" if pid == 0 else f"pid {pid} unreaped, status {status}"
    raise AssertionError(f"a child process is left ({state})")


@pytest.fixture(scope="session", autouse=True)
def no_child_process_at_session_end():
    yield
    assert_no_child_process()


@pytest.fixture(scope="session")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "full"
    ds.generate_dataset(out, trials_per_cell=30, base_seed=BASE_SEED,
                        overwrite=False)
    return out


@pytest.fixture(scope="session")
def manifest(dataset_dir):
    return ds.load_manifest(dataset_dir)


@pytest.fixture(scope="session")
def clf_bundle(dataset_dir, manifest):
    """(classifier, val items, the val items' trial entries, training
    seconds) trained once, on the augmented train split."""
    train_items, _ = ds.classifier_segments(dataset_dir, manifest, "train",
                                            augment=True)
    val_items, val_entries = ds.classifier_segments(dataset_dir, manifest, "val")
    t0 = time.perf_counter()
    model, _ = train_classifier(train_items, val_items,
                                epochs=clf.EPOCHS, seed=BASE_SEED)
    return model, val_items, val_entries, time.perf_counter() - t0


@pytest.fixture(scope="session")
def classifier(clf_bundle):
    return clf_bundle[0]


@pytest.fixture(scope="session")
def likelihoods(clf_bundle):
    """Per-motion confusion matrices estimated on the validation split."""
    model, val_items, val_entries, _ = clf_bundle
    pred, truth = classify_items(model, val_items)
    return inference.estimate_confusions(
        pred, truth, [e.motion["kind"] for e in val_entries])


@pytest.fixture(scope="session")
def default_shaking(dataset_dir, manifest):
    X, slip, force, cell = ds.predictor_windows(dataset_dir, manifest,
                                                   "train", "shaking")
    model, _ = train_predictor(X, slip, force, cell, epochs=pred.EPOCHS,
                               seed=BASE_SEED, motion="shaking")
    return model


@pytest.fixture(scope="session")
def default_rotation(dataset_dir, manifest):
    X, slip, force, cell = ds.predictor_windows(dataset_dir, manifest,
                                                   "train", "rotation")
    model, _ = train_predictor(X, slip, force, cell, epochs=pred.EPOCHS,
                               seed=BASE_SEED, motion="rotation")
    return model


@pytest.fixture(scope="session")
def cereal_rotation_model(dataset_dir, manifest):
    X, slip, force, cell = ds.predictor_windows(dataset_dir, manifest,
                                                   "train", "rotation", "cereal")
    model, _ = train_predictor(X, slip, force, cell,
                               epochs=pred.MATERIAL_EPOCHS, seed=BASE_SEED,
                               motion="rotation", material="cereal")
    return model


@pytest.fixture(scope="session")
def registry(default_shaking, default_rotation, cereal_rotation_model):
    reg = ModelRegistry()
    reg.register_default("shaking", default_shaking)
    reg.register_default("rotation", default_rotation)
    reg.register_material("rotation", "cereal", cereal_rotation_model)
    return reg


def pytest_terminal_summary(terminalreporter):
    mod = sys.modules.get("test_acceptance")
    if mod is None:
        return
    recorded = {n: detail for n, detail in mod.RESULTS}
    terminalreporter.section("acceptance criteria")
    for n in range(1, mod.EXPECTED_CRITERIA + 1):
        if n in recorded:
            terminalreporter.write_line(f"[PASS] criterion {n}: {recorded[n]}")
        elif n in mod.ATTEMPTED:
            terminalreporter.write_line(f"[FAIL] criterion {n}: "
                                        "assertions did not complete")
        else:
            terminalreporter.write_line(f"[----] criterion {n}: not selected "
                                        "in this run")
