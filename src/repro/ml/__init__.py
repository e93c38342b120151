"""Pure-numpy training substrate: layers, models, losses, data, optim.

Public API::

    from repro.ml import build_vgg_lite, synthetic_images, SGD, Batcher
    import numpy as np

    rng = np.random.default_rng(0)
    data = synthetic_images(rng)
    model = build_vgg_lite(rng)
    optimizer = SGD(lr=0.1, momentum=0.9, weight_decay=1e-4)
    batcher = Batcher(data.x_train, data.y_train, 128, rng)

    xb, yb = batcher.next_batch()
    loss, grad = model.loss_and_grad(xb, yb)
    model.set_params(model.get_params() + optimizer.step(model.get_params(), grad))
"""

from repro.ml.compute import ComputeError, ComputePool
from repro.ml.data import (
    Batcher,
    Dataset,
    synthetic_images,
    synthetic_webspam,
)
from repro.ml.gradcheck import (
    check_model_gradient,
    numerical_gradient,
    relative_error,
)
from repro.ml.layers import (
    AvgPool2D,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    Layer,
    MaxPool2D,
    ReLU,
    Sigmoid,
    Tanh,
)
from repro.ml.losses import HingeLoss, LogisticLoss, Loss, SoftmaxCrossEntropy
from repro.ml.metrics import accuracy, smooth_series
from repro.ml.models import (
    Model,
    Sequential,
    build_mlp,
    build_svm,
    build_vgg_lite,
)
from repro.ml.optim import SGD, ConstantLR, LRSchedule, StepDecayLR
from repro.ml.params import Parameter, total_size

__all__ = [
    "AvgPool2D",
    "Batcher",
    "ComputeError",
    "ComputePool",
    "ConstantLR",
    "Conv2D",
    "Dataset",
    "Dense",
    "Dropout",
    "Flatten",
    "HingeLoss",
    "LRSchedule",
    "Layer",
    "LogisticLoss",
    "Loss",
    "MaxPool2D",
    "Model",
    "Parameter",
    "ReLU",
    "SGD",
    "Sequential",
    "Sigmoid",
    "SoftmaxCrossEntropy",
    "StepDecayLR",
    "Tanh",
    "accuracy",
    "build_mlp",
    "build_svm",
    "build_vgg_lite",
    "check_model_gradient",
    "numerical_gradient",
    "relative_error",
    "smooth_series",
    "synthetic_images",
    "synthetic_webspam",
    "total_size",
]
