"""The two evaluation workloads, scaled for a laptop-sized simulator.

The paper trains VGG11/CIFAR-10 (CNN) and an SVM with log loss on
webspam.  Neither dataset can be downloaded offline, so we train a
scaled-down VGG-style CNN on synthetic images and a linear model with
log loss on synthetic webspam (:mod:`repro.ml.data` builds both), with
*simulated* compute/communication durations calibrated to the paper's
regime (CPU compute-bound, 1 Gb/s Ethernet):

* CNN: seconds-scale iterations, tens-of-MB parameter messages.
* SVM: sub-second iterations, small parameter messages.

Three presets trade fidelity for runtime:

* ``"smoke"`` — seconds-long unit/integration tests.
* ``"bench"``  — the benchmark harness (default).
* ``"paper"``  — the examples; largest models/datasets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from repro.ml.data import Dataset, synthetic_images, synthetic_webspam
from repro.ml.models import Model, build_svm, build_vgg_lite
from repro.ml.optim import SGD
from repro.registry import Registry

PRESETS = ("smoke", "bench", "paper")

#: CNN training dtype: the conv/pool layers honor input dtype end-to-end,
#: so the VGG stand-in trains in float32 (halves memory traffic on the
#: hot path; the optimizer still accumulates its tiny flat vectors in
#: float64).
CNN_DTYPE = np.float32


def _cnn_model_factory(
    model_rng: np.random.Generator, base_filters: int, hidden: int
) -> Model:
    """Top-level (picklable) CNN factory for the parallel harness."""
    model = build_vgg_lite(
        model_rng, image_size=8, base_filters=base_filters, hidden=hidden
    )
    return model.astype(CNN_DTYPE)


def _svm_model_factory(model_rng: np.random.Generator, features: int) -> Model:
    """Top-level (picklable) SVM factory for the parallel harness."""
    return build_svm(model_rng, features)


@dataclass(frozen=True)
class Workload:
    """Everything an experiment needs to train one model family.

    Attributes:
        name: ``"cnn"`` or ``"svm"``.
        dataset: Train/test data.
        model_factory: Deterministic ``f(rng) -> Model``.
        optimizer_factory: Fresh optimizer per worker/server.
        batch_size: Per-worker minibatch size.
        update_size: Parameter-message size in MB (drives link timing).
        base_compute_time: Homogeneous per-iteration gradient seconds.
        target_loss: Convergence threshold for time-to-loss metrics.
    """

    name: str
    dataset: Dataset
    model_factory: Callable[[np.random.Generator], Model]
    optimizer_factory: Callable[[], SGD]
    batch_size: int
    update_size: float
    base_compute_time: float
    target_loss: float


def _check_preset(preset: str) -> None:
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; choose from {PRESETS}")


def cnn_workload(preset: str = "bench", seed: int = 2024) -> Workload:
    """The VGG/CIFAR stand-in (paper Section 7.1, image classification).

    Hyper-parameters follow Section 7.2 where they transfer: momentum
    0.9, weight decay 1e-4, constant learning rate (scaled to the
    smaller model).
    """
    _check_preset(preset)
    sizes = {
        "smoke": dict(n_train=256, n_test=64, base_filters=2, hidden=8, batch=16),
        "bench": dict(n_train=512, n_test=128, base_filters=4, hidden=16, batch=32),
        "paper": dict(n_train=2048, n_test=512, base_filters=8, hidden=32, batch=64),
    }[preset]
    rng = np.random.default_rng(seed)
    dataset = synthetic_images(
        rng,
        n_train=sizes["n_train"],
        n_test=sizes["n_test"],
        image_size=8,
        noise=0.6,
    )
    dataset.x_train = dataset.x_train.astype(CNN_DTYPE)
    dataset.x_test = dataset.x_test.astype(CNN_DTYPE)

    return Workload(
        name="cnn",
        dataset=dataset,
        model_factory=partial(
            _cnn_model_factory,
            base_filters=sizes["base_filters"],
            hidden=sizes["hidden"],
        ),
        optimizer_factory=partial(
            SGD, lr=0.05, momentum=0.9, weight_decay=1e-4
        ),
        batch_size=sizes["batch"],
        update_size=16.0,  # MB: stands in for VGG-scale messages
        base_compute_time=0.5,
        # Reachable targets below the log(10) ~ 2.30 chance level,
        # calibrated per preset (smaller presets train less).
        target_loss={"smoke": 2.28, "bench": 1.6, "paper": 1.3}[preset],
    )


def svm_workload(preset: str = "bench", seed: int = 2024) -> Workload:
    """The SVM/webspam stand-in (paper Section 7.1, spam detection)."""
    _check_preset(preset)
    sizes = {
        "smoke": dict(n_train=384, n_test=128, features=32, batch=32),
        "bench": dict(n_train=1024, n_test=256, features=64, batch=64),
        "paper": dict(n_train=4096, n_test=1024, features=128, batch=128),
    }[preset]
    rng = np.random.default_rng(seed)
    dataset = synthetic_webspam(
        rng,
        n_train=sizes["n_train"],
        n_test=sizes["n_test"],
        n_features=sizes["features"],
    )

    return Workload(
        name="svm",
        dataset=dataset,
        model_factory=partial(_svm_model_factory, features=sizes["features"]),
        # Paper: lr=10 for SVM; scaled down for the synthetic data.
        optimizer_factory=partial(
            SGD, lr=1.0, momentum=0.9, weight_decay=1e-7
        ),
        batch_size=sizes["batch"],
        # webspam's full feature set is ~16M-dimensional; SVM parameter
        # messages are tens of MB, so PS traffic is far from free.
        update_size=8.0,
        base_compute_time=0.2,
        target_loss={"smoke": 0.45, "bench": 0.32, "paper": 0.25}[preset],
    )


@dataclass(frozen=True)
class WorkloadInfo:
    """One registered workload: ``factory(preset) -> Workload``."""

    name: str
    factory: Callable[[str], Workload]


#: The two evaluation workloads, by the names the figures use.
WORKLOADS: Registry[WorkloadInfo] = Registry("workload", WorkloadInfo)
WORKLOADS.register("cnn", cnn_workload)
WORKLOADS.register("svm", svm_workload)


def by_name(name: str, preset: str = "bench") -> Workload:
    """Resolve a workload by the names used in the figures."""
    return WORKLOADS.get(name).factory(preset)
