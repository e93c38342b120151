"""The SVM's sigmoid against scipy's: ``repro.ml.losses.expit`` equals
``scipy.special.expit`` bit for bit (scipy is a test-only import).

``expit`` computes ``exp`` as the real part of numpy's complex ``exp``,
which is libm's below ``losses._CEXP_EXACT``; the band above it takes a
scalar path.  The draws cover the bulk, the band where ``cexp`` scales,
overflow, underflow, subnormals, signed zeros, infinities and NaNs of
both signs; a threshold moved by one shows.
"""

import functools
import math
import warnings

import numpy as np
import pytest
from scipy.special import expit as scipy_expit

from repro.ml import losses

DRAWS = 1 << 20

SPECIAL = np.array(
    [
        0.0,
        -0.0,
        np.inf,
        -np.inf,
        np.nan,
        -np.nan,
        5e-324,
        -5e-324,
        709.78,
        -709.78,
        745.2,
        -745.2,
        -709.0,
        -710.0,
        np.nextafter(-709.0, 0.0),
        np.nextafter(-709.0, -np.inf),
        np.nextafter(-710.0, 0.0),
    ]
)


@functools.lru_cache(maxsize=None)
def draws():
    """The inputs by name: 2**20 draws each, and the special values."""
    rng = np.random.default_rng(48)
    named = {
        f"normal*{scale:g}": rng.standard_normal(DRAWS) * scale
        for scale in (1.0, 5.0, 30.0, 300.0)
    }
    named["uniform(-760, 760)"] = rng.uniform(-760.0, 760.0, DRAWS)
    named["band [-712, -700]"] = rng.uniform(-712.0, -700.0, DRAWS)
    named["specials"] = SPECIAL
    return named


def mismatches(x):
    """Elements of ``x`` where the two sigmoids differ in any bit."""
    ours, theirs = losses.expit(x), scipy_expit(x)
    assert ours.shape == theirs.shape and ours.dtype == theirs.dtype
    return int(np.count_nonzero(ours.view(np.uint64) != theirs.view(np.uint64)))


@pytest.fixture
def warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


@pytest.mark.usefixtures("warnings_are_errors")
class TestExpitIsScipys:
    @pytest.mark.parametrize("name", list(draws()))
    def test_bit_for_bit(self, name):
        assert mismatches(draws()[name]) == 0

    def test_the_band_draws_reach_the_scalar_path(self):
        x = draws()["band [-712, -700]"]
        assert np.count_nonzero((x <= -709.0) & (x > -710.0)) > 10_000

    @pytest.mark.parametrize(
        "shape", [(1024, 64), (64, 1024, 1), (0,), (3, 0), ()]
    )
    def test_shapes(self, shape):
        rng = np.random.default_rng(7)
        size = math.prod(shape)
        values = np.concatenate([SPECIAL, rng.uniform(-760.0, 760.0, size)])
        x = values[:size].reshape(shape)
        assert mismatches(x) == 0
        if x.ndim == 2:
            assert mismatches(x.T) == 0  # a strided input

    def test_input_is_left_alone(self):
        x = np.concatenate([SPECIAL, np.linspace(-720.0, 720.0, 999)])
        before = x.copy()
        losses.expit(x)
        assert x.tobytes() == before.tobytes()


def test_moving_the_threshold_to_the_overflow_point_shows(monkeypatch):
    """Mutation check: with ``cexp`` trusted up to 710 (its scaled path
    included), the band no longer matches scipy's bits."""
    x = draws()["band [-712, -700]"]
    monkeypatch.setattr(losses, "_CEXP_EXACT", 710.0)
    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert mismatches(x) > 0
