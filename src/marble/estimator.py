"""Scikit-learn style estimators wrapping the training engine.

`X` is a sequence of `TokenBag` objects (one per slide) rather than a
numeric matrix, so only the estimator API contract applies: constructor
parameters mirror attributes, `get_params`/`set_params` work, fitted
state lives in trailing-underscore attributes, and the classifier
exposes `predict`/`predict_proba`/`score`.
"""

from __future__ import annotations

import inspect
from dataclasses import field, fields, make_dataclass

import numpy as np

try:
    from sklearn.base import BaseEstimator
except ImportError:  # sklearn is optional; provide the same param contract
    class BaseEstimator:  # type: ignore[no-redef]
        def get_params(self, deep=True):
            sig = inspect.signature(type(self).__init__)
            return {name: getattr(self, name) for name in sig.parameters
                    if name != "self"}

        def set_params(self, **params):
            valid = self.get_params()
            for key, value in params.items():
                if key not in valid:
                    raise ValueError(f"invalid parameter '{key}'")
                setattr(self, key, value)
            return self

from .bagdata import DatasetIndex, ManifestRecord, assign_splits
from .errors import ConfigError
from .metrics import SurvivalRecord, accuracy, c_index
from .pyramid import TokenBag
from .trainer import TrainConfig, data_config, predict, train


def _check_bags(X) -> list[TokenBag]:
    bags = list(X)
    if not bags:
        raise ConfigError("X must contain at least one bag")
    for i, bag in enumerate(bags):
        if not isinstance(bag, TokenBag):
            raise ConfigError(f"X[{i}] is not a TokenBag")
    return bags


# TrainConfig fields the estimators expose; the data decides the model's
# width, level count, classes and head.
_TRAIN_PARAMS = ("d_state", "epochs", "warmup_epochs", "base_lr",
                 "weight_decay", "drop_alpha", "early_stop_patience",
                 "grad_clip")
_TRAIN_FIELDS = {f.name: f for f in fields(TrainConfig)}

# The keyword-only constructor parameters, each declared once; no repr
# or eq, so BaseEstimator's stay.
_Params = make_dataclass(
    "_Params",
    [(name, _TRAIN_FIELDS[name].type, field(default=_TRAIN_FIELDS[name].default))
     for name in _TRAIN_PARAMS]
    + [("val_fraction", "float", field(default=0.15)),
       ("random_state", "int", field(default=0))],
    kw_only=True, repr=False, eq=False, namespace={"__module__": __name__})


class _MarbleBase(_Params, BaseEstimator):
    def _train(self, bags: list[TokenBag], records: list[ManifestRecord],
               task: str) -> None:
        n_val = max(1, int(round(self.val_fraction * len(records))))
        if n_val >= len(records):
            raise ConfigError("not enough bags for a train/val split")
        assign_splits(records, {"val": n_val}, self.random_state)
        index = DatasetIndex(task=task, records=records)
        config = data_config(
            index, bags[0], seed=self.random_state,
            **{name: getattr(self, name) for name in _TRAIN_PARAMS})
        lookup = {rec.slide_id: bags[i] for i, rec in enumerate(records)}
        result = train(index, config, bag_loader=lambda r: lookup[r.slide_id])
        self.params_ = result.params
        self.best_val_metric_ = result.best_metric
        self.n_levels_ = config.n_levels
        self.d_model_ = config.d_model


class MarbleClassifier(_MarbleBase):
    """Slide-bag classifier with fit/predict/predict_proba/score."""

    def fit(self, X, y):
        bags = _check_bags(X)
        y = np.asarray(y)
        if y.shape[0] != len(bags):
            raise ConfigError("X and y length mismatch")
        self.classes_ = np.unique(y)
        if self.classes_.size < 2:
            raise ConfigError("need at least two classes to fit")
        class_index = {c: i for i, c in enumerate(self.classes_.tolist())}
        labels = [class_index[v] for v in y.tolist()]
        self._train(bags, [ManifestRecord(f"bag{i:05d}", "", label=label)
                           for i, label in enumerate(labels)],
                    "classification")
        return self

    def predict_proba(self, X):
        return predict(self.params_, _check_bags(X))

    def predict(self, X):
        return self.classes_[self.predict_proba(X).argmax(axis=1)]

    def score(self, X, y):
        return accuracy(self.predict(X), np.asarray(y))


class MarbleCoxRegressor(_MarbleBase):
    """Cox-head survival estimator; predicts a relative risk score.

    `y` rows are (time, event) pairs; `score` is the concordance index.
    """

    def fit(self, X, y):
        bags = _check_bags(X)
        records = [r if isinstance(r, SurvivalRecord)
                   else SurvivalRecord(float(r[0]), bool(r[1])) for r in y]
        if len(records) != len(bags):
            raise ConfigError("X and y length mismatch")
        self._train(bags, [ManifestRecord(f"bag{i:05d}", "", record=record)
                           for i, record in enumerate(records)],
                    "survival")
        return self

    def predict(self, X):
        return predict(self.params_, _check_bags(X))

    def score(self, X, y):
        records = [r if isinstance(r, SurvivalRecord)
                   else SurvivalRecord(float(r[0]), bool(r[1])) for r in y]
        return c_index(self.predict(X), records)
