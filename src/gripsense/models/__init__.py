"""Trainable models: MFCC material classifier, recurrent slip/force predictor,
and the default/material-specific model registry."""
