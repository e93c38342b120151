"""REPRO_SANITIZE=1: the runtime half of the aliasing rules.

With the flag set, the model's flat parameter buffer (and every
per-tensor alias into it) is read-only outside ``set_params``'s
sanctioned window, so any rogue in-place write raises instead of
silently corrupting the run — and a sanitized conformance cell still
reproduces its golden fingerprint bit-for-bit.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.harness.golden import conformance_spec, golden_fingerprint
from repro.harness.spec import run_spec
from repro.ml.models import build_svm
from repro.ml.params import ENV_FLAG, sanitize_enabled, writable_window

GOLDEN_PATH = Path(__file__).parents[1] / "scenarios" / "golden_stats.json"


def make_model():
    return build_svm(np.random.default_rng(7), 16)


class TestFlag:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(ENV_FLAG, raising=False)
        assert not sanitize_enabled()
        monkeypatch.setenv(ENV_FLAG, "0")
        assert not sanitize_enabled()

    def test_enabled_values(self, monkeypatch):
        monkeypatch.setenv(ENV_FLAG, "1")
        assert sanitize_enabled()


class TestLockedBuffers:
    @pytest.fixture(autouse=True)
    def sanitize(self, monkeypatch):
        monkeypatch.setenv(ENV_FLAG, "1")

    def test_direct_flat_write_raises(self):
        model = make_model()
        with pytest.raises(ValueError, match="read-only"):
            model._flat[0] = 1.0

    def test_per_tensor_alias_write_raises(self):
        model = make_model()
        with pytest.raises(ValueError, match="read-only"):
            model._params[0].data[...] = 0.0

    def test_set_params_window_still_works(self):
        model = make_model()
        target = np.arange(model.dim, dtype=np.float64)
        model.set_params(target)
        np.testing.assert_array_equal(model.get_params(), target)
        assert not model._flat.flags.writeable  # re-locked after

    def test_training_step_works_sanitized(self):
        model = make_model()
        rng = np.random.default_rng(3)
        x = rng.normal(size=(8, 16))
        y = np.where(rng.normal(size=8) > 0, 1, -1)
        value, grad = model.loss_and_grad(x, y)
        model.set_params(model.get_params() - 0.1 * grad)
        after, _ = model.loss_and_grad(x, y)
        assert after < value

    def test_unsanitized_model_stays_writable(self, monkeypatch):
        monkeypatch.setenv(ENV_FLAG, "0")
        model = make_model()
        assert model._flat.flags.writeable


class TestWritableWindow:
    def test_restores_lock_state(self):
        array = np.zeros(4)
        array.flags.writeable = False
        with writable_window(array):
            array[0] = 1.0
        assert not array.flags.writeable
        assert array[0] == 1.0

    def test_restores_on_exception(self):
        array = np.zeros(4)
        array.flags.writeable = False
        with pytest.raises(RuntimeError):
            with writable_window(array):
                raise RuntimeError("boom")
        assert not array.flags.writeable

    def test_leaves_writable_arrays_writable(self):
        array = np.zeros(4)
        with writable_window(array):
            array[0] = 1.0
        assert array.flags.writeable


class TestConformanceCellSanitized:
    def test_hop_none_matches_golden_bitwise(self, monkeypatch):
        # The sanitizer's smoke cell for scripts/ci.sh: a sanitized run
        # must be bit-identical to the recorded (unsanitized) golden —
        # the lock changes when writes are allowed, never their values.
        monkeypatch.setenv(ENV_FLAG, "1")
        run = run_spec(conformance_spec("hop", "none"))
        recorded = json.loads(GOLDEN_PATH.read_text())["cells"]["hop/none"]
        assert golden_fingerprint(run) == recorded
