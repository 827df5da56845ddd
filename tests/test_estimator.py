"""Tests for the estimator wrappers around the training engine."""

import numpy as np
import pytest

from marble.bagdata import SynthSpec, generate_dataset
from marble.errors import ConfigError
from marble.estimator import MarbleClassifier, MarbleCoxRegressor
from marble.metrics import SurvivalRecord
from marble.trainer import TrainConfig


def toy_data(task="classification", n=16, seed=0):
    spec = SynthSpec(n_slides=n, seed=seed, dim=8, coarse_rows=3,
                     coarse_cols=3, task=task)
    slides = generate_dataset(spec)
    bags = [s.bag for s in slides]
    if task == "classification":
        y = np.array([s.label for s in slides])
    else:
        y = [(s.record.time, s.record.event) for s in slides]
    return bags, y


def fast_clf(**kwargs):
    defaults = dict(d_state=2, epochs=2, warmup_epochs=1, random_state=0)
    defaults.update(kwargs)
    return MarbleClassifier(**defaults)


class TestParamContract:

    def test_get_params_round_trips_constructor(self):
        clf = fast_clf(base_lr=0.123)
        params = clf.get_params()
        assert params["base_lr"] == 0.123
        clone = MarbleClassifier(**params)
        assert clone.get_params() == params

    def test_sklearn_clone_round_trips(self):
        base = pytest.importorskip("sklearn.base")
        clf = MarbleClassifier(epochs=3)
        assert base.clone(clf).get_params() == clf.get_params()

    def test_sklearn_repr_shows_changed_params_only(self):
        pytest.importorskip("sklearn")
        assert repr(MarbleClassifier(epochs=3)) == "MarbleClassifier(epochs=3)"

    def test_defaults_are_train_config_defaults(self):
        params = MarbleCoxRegressor().get_params()
        assert len(params) == 10
        assert params.pop("val_fraction") == 0.15
        assert params.pop("random_state") == 0
        assert params == {name: getattr(TrainConfig, name) for name in params}

    def test_parameters_are_keyword_only(self):
        with pytest.raises(TypeError):
            MarbleClassifier(16)
        with pytest.raises(TypeError, match="learning_rate"):
            MarbleClassifier(learning_rate=0.1)

    def test_set_params(self):
        clf = fast_clf()
        clf.set_params(epochs=5)
        assert clf.epochs == 5

    def test_set_params_rejects_unknown(self):
        with pytest.raises((ValueError, ConfigError)):
            fast_clf().set_params(learning_rate=0.1)


class TestClassifier:

    def test_fit_predict_shapes(self):
        bags, y = toy_data()
        clf = fast_clf().fit(bags, y)
        probs = clf.predict_proba(bags)
        assert probs.shape == (len(bags), 2)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)
        preds = clf.predict(bags)
        assert set(preds.tolist()) <= set(clf.classes_.tolist())
        assert 0.0 <= clf.score(bags, y) <= 1.0

    def test_classes_preserve_original_labels(self):
        bags, y = toy_data()
        y_str = np.where(np.asarray(y) == 1, "tumor", "normal")
        clf = fast_clf().fit(bags, y_str)
        assert sorted(clf.classes_.tolist()) == ["normal", "tumor"]
        assert set(clf.predict(bags).tolist()) <= {"normal", "tumor"}

    def test_fitted_attributes(self):
        bags, y = toy_data()
        clf = fast_clf().fit(bags, y)
        assert clf.n_levels_ == 2
        assert clf.d_model_ == 8
        assert 0.0 <= clf.best_val_metric_ <= 1.0

    def test_single_class_rejected(self):
        bags, _ = toy_data()
        with pytest.raises(ConfigError):
            fast_clf().fit(bags, np.zeros(len(bags)))

    def test_length_mismatch_rejected(self):
        bags, y = toy_data()
        with pytest.raises(ConfigError):
            fast_clf().fit(bags, y[:-1])

    def test_non_bag_input_rejected(self):
        with pytest.raises(ConfigError):
            fast_clf().fit([np.zeros((4, 8))], [0])

    def test_deterministic_given_random_state(self):
        bags, y = toy_data()
        a = fast_clf(random_state=3).fit(bags, y).predict_proba(bags)
        b = fast_clf(random_state=3).fit(bags, y).predict_proba(bags)
        np.testing.assert_array_equal(a, b)


class TestCoxRegressor:

    def test_fit_predict_score(self):
        bags, y = toy_data(task="survival")
        est = MarbleCoxRegressor(d_state=2, epochs=2, warmup_epochs=1)
        est.fit(bags, y)
        risks = est.predict(bags)
        assert risks.shape == (len(bags),)
        assert np.all(np.isfinite(risks))
        assert 0.0 <= est.score(bags, y) <= 1.0

    def test_accepts_survival_records(self):
        bags, y = toy_data(task="survival")
        records = [SurvivalRecord(t, e) for t, e in y]
        est = MarbleCoxRegressor(d_state=2, epochs=2, warmup_epochs=1)
        est.fit(bags, records)
        assert hasattr(est, "params_")

    def test_length_mismatch_rejected(self):
        bags, y = toy_data(task="survival")
        est = MarbleCoxRegressor(d_state=2, epochs=2, warmup_epochs=1)
        with pytest.raises(ConfigError):
            est.fit(bags, y[:-1])
