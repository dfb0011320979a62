"""Trainable models: MFCC material classifier, recurrent slip/force predictor,
and the default/material-specific model registry."""

from .classifier import (ClassifierConfig, MaterialClassifier, classify,
                         train_classifier)
from .metrics import (Metrics, accuracy, auc, confusion_matrix,
                      mean_cell_distance, precision_recall)
from .optim import TrainConfig
from .predictor import (Prediction, PredictorConfig, SlipPredictor, predict,
                        train_predictor)
from .registry import ModelRegistry, select_model
from .serialize import (ModelChecksumError, ModelFormatError, load_model,
                        save_model)

__all__ = [
    "ClassifierConfig", "MaterialClassifier", "TrainConfig", "classify",
    "train_classifier", "Metrics", "accuracy", "auc", "confusion_matrix",
    "mean_cell_distance", "precision_recall", "Prediction", "PredictorConfig",
    "SlipPredictor", "predict", "train_predictor", "ModelRegistry",
    "select_model", "ModelChecksumError", "ModelFormatError", "load_model",
    "save_model",
]
