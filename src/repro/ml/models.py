"""Models: a Sequential container, the scaled-down VGG CNN, and the SVM.

The protocol layer talks to models exclusively through the
:class:`Model` facade (flat parameter vectors, ``loss_and_grad``),
keeping Hop and all baselines model-agnostic.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.ml.layers import (
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    Layer,
    MaxPool2D,
    ReLU,
)
from repro.ml.compute import stacked_kernel_for
from repro.ml.losses import Loss, LogisticLoss, SoftmaxCrossEntropy
from repro.ml.params import (
    Parameter,
    pack_parameters,
    readonly_view,
    sanitize_enabled,
    writable_window,
)


class Sequential:
    """A stack of layers executed in order."""

    def __init__(self, layers: Sequence[Layer]) -> None:
        self.layers = list(layers)
        # The first layer's input gradient has no consumer; layers
        # whose backward accepts need_input_grad can skip computing it
        # (for a leading Conv2D that is the entire col2im pass).
        first = self.layers[0] if self.layers else None
        self._first_supports_skip = isinstance(first, (Conv2D, Dense))

    def parameters(self) -> List[Parameter]:
        params: List[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        out = x
        for layer in self.layers:
            out = layer.forward(out, training)
        return out

    def backward(self, dout: np.ndarray) -> Optional[np.ndarray]:
        """Backpropagate; returns the input gradient (or ``None`` when
        the first layer elides it — no caller consumes it)."""
        grad = dout
        for layer in reversed(self.layers[1:]):
            grad = layer.backward(grad)
        if not self.layers:
            return grad
        if self._first_supports_skip:
            return self.layers[0].backward(grad, need_input_grad=False)
        return self.layers[0].backward(grad)

    def __repr__(self) -> str:
        inner = ", ".join(repr(layer) for layer in self.layers)
        return f"Sequential([{inner}])"


class Model:
    """A trainable model exposed through flat parameter vectors.

    This is the only interface protocol code uses:

    * :attr:`dim` — total parameter count (message sizing),
    * :meth:`get_params` / :meth:`set_params` — flat vector in/out,
    * :meth:`loss_and_grad` — minibatch loss and flat gradient,
    * :meth:`predict` / :meth:`evaluate` — inference.

    All parameters live as views into one contiguous flat buffer (see
    :func:`repro.ml.params.pack_parameters`), so the flat interface is
    zero-copy: :meth:`get_params` and :meth:`loss_and_grad` return
    *read-only views* of buffers this model owns and overwrites on the
    next :meth:`set_params` / :meth:`loss_and_grad` call.  Callers that
    store the vector across such calls must take
    :meth:`get_params_copy` (or ``.copy()`` the view) — see
    docs/ARCHITECTURE.md's performance-architecture section for the
    ownership rules.

    Args:
        network: The layer stack.
        loss: Loss object mapping scores to (value, dscores).
        l2: Optional L2 regularization coefficient added to the loss
            (the paper's "weight decay" is applied in the optimizer; this
            is for experiments that want it in the objective instead).
    """

    def __init__(self, network: Sequential, loss: Loss, l2: float = 0.0) -> None:
        self.network = network
        self.loss = loss
        self.l2 = float(l2)
        self._params = network.parameters()
        if not self._params:
            raise ValueError("model has no trainable parameters")
        self._sanitize = sanitize_enabled()
        #: The open compute ticket (submitted, not yet evaluated) that
        #: will read ``_flat`` and write ``_flat_grad``, if any; owned
        #: by :class:`repro.ml.compute.ComputePool`.
        self._ticket = None
        self._repack()

    def _repack(self) -> None:
        """(Re)alias all parameters into the contiguous flat buffers."""
        self._settle()
        self._flat, self._flat_grad = pack_parameters(self._params)
        self._kernel = stacked_kernel_for(
            self.network, self.loss, self._flat.dtype
        )
        self._flat_view = readonly_view(self._flat)
        self._grad_view = readonly_view(self._flat_grad)
        if self._sanitize:
            # REPRO_SANITIZE: lock the flat buffer and every per-tensor
            # alias so any write outside the sanctioned `set_params`
            # window raises immediately.  Views capture writeability at
            # creation, so each alias must be locked individually; grad
            # buffers stay writable (backward fills them every step).
            self._flat.flags.writeable = False
            for p in self._params:
                p.data.flags.writeable = False

    def _settle(self) -> None:
        """Evaluate this model's open compute ticket, if any, before its
        inputs (``_flat``) or outputs (``_flat_grad``) are written: a
        deferred gradient sees the parameters it was submitted with."""
        if self._ticket is not None:
            self._ticket.result()

    @property
    def stacked_kernel(self):
        """The kernel :class:`repro.ml.compute.ComputePool` may batch
        this model's gradient through, or ``None``."""
        return self._kernel if self.l2 == 0.0 else None

    @property
    def dim(self) -> int:
        return int(self._flat.size)

    def get_params(self) -> np.ndarray:
        """Read-only view of the live flat parameter buffer (O(1)).

        The view tracks every subsequent :meth:`set_params`; copy it to
        keep a snapshot.
        """
        return self._flat_view

    def get_params_copy(self) -> np.ndarray:
        """An owned snapshot of the current parameters."""
        return self._flat.copy()

    def set_params(self, flat: np.ndarray) -> None:
        """Copy ``flat`` into the parameter buffer (one memcpy).

        Under ``REPRO_SANITIZE=1`` this is the single sanctioned
        in-place window: the flat buffer is unlocked for the copy and
        re-locked before returning.
        """
        self._settle()
        if self._sanitize:
            with writable_window(self._flat):
                self._copy_into_flat(flat)
        else:
            self._copy_into_flat(flat)

    def _copy_into_flat(self, flat: np.ndarray) -> None:
        if (
            type(flat) is np.ndarray
            and flat.ndim == 1
            and flat.size == self._flat.size
        ):
            np.copyto(self._flat, flat)
            return
        flat = np.asarray(flat)
        if flat.size != self._flat.size:
            raise ValueError(
                f"flat vector has {flat.size} entries, parameters need "
                f"{self._flat.size}"
            )
        np.copyto(self._flat, flat.reshape(-1))

    def zero_grad(self) -> None:
        self._flat_grad.fill(0.0)

    def loss_and_grad(
        self, x: np.ndarray, y: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        """Mean minibatch loss and the flat gradient at current params.

        The gradient is a read-only view of the model's flat grad
        buffer, valid until the next ``loss_and_grad`` / ``zero_grad``
        call; copy it to keep it across computes.
        """
        self._settle()
        self.zero_grad()
        scores = self.network.forward(x, training=True)
        value, dscores = self.loss.value_and_grad(scores, y)
        self.network.backward(dscores)
        if self.l2 > 0.0:
            flat = self._flat
            value += 0.5 * self.l2 * float(flat @ flat)
            return value, self._flat_grad + self.l2 * flat
        return value, self._grad_view

    def loss_value(self, x: np.ndarray, y: np.ndarray) -> float:
        """Loss without touching gradients (evaluation)."""
        return self._loss_of(self.network.forward(x, training=False), y)

    def _loss_of(self, scores: np.ndarray, y: np.ndarray) -> float:
        value = self.loss.value(scores, y)
        if self.l2 > 0.0:
            flat = self._flat
            value += 0.5 * self.l2 * float(flat @ flat)
        return value

    def astype(self, dtype) -> "Model":
        """Cast all parameters (and grad buffers) to ``dtype``, in place.

        The layers honor input dtype end-to-end, so a float32 model fed
        float32 inputs trains entirely in float32.
        """
        for p in self._params:
            p.data = p.data.astype(dtype, copy=False)
            p.grad = np.zeros_like(p.data)
        self._repack()
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Class predictions: argmax for multi-class, sign for margins."""
        return self._classes_of(self.network.forward(x, training=False))

    @staticmethod
    def _classes_of(scores: np.ndarray) -> np.ndarray:
        if scores.ndim == 2 and scores.shape[1] > 1:
            return np.argmax(scores, axis=1)
        return (scores.ravel() > 0).astype(int)

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> Tuple[float, float]:
        """Return ``(loss, accuracy)`` on a dataset: one forward pass,
        loss and predictions both read off its scores."""
        scores = self.network.forward(x, training=False)
        loss = self._loss_of(scores, y)
        predictions = self._classes_of(scores)
        targets = np.asarray(y).ravel()
        if set(np.unique(targets)) <= {-1, 1}:
            targets = ((targets + 1) // 2).astype(int)
        accuracy = float(np.mean(predictions == targets))
        return loss, accuracy

    def __repr__(self) -> str:
        return f"<Model dim={self.dim} loss={type(self.loss).__name__}>"


def build_vgg_lite(
    rng: np.random.Generator,
    image_size: int = 8,
    channels: int = 3,
    n_classes: int = 10,
    base_filters: int = 8,
    hidden: int = 32,
    dropout: float = 0.0,
) -> Model:
    """A scaled-down VGG-style CNN (conv-relu-pool blocks + dense head).

    Stands in for the paper's VGG11/CIFAR-10 workload: same layer
    types and training dynamics, laptop-sized cost.
    """
    if image_size % 4 != 0:
        raise ValueError("image_size must be divisible by 4 (two 2x2 pools)")
    layers: List[Layer] = [
        Conv2D(channels, base_filters, 3, rng, pad=1),
        ReLU(),
        MaxPool2D(2),
        Conv2D(base_filters, 2 * base_filters, 3, rng, pad=1),
        ReLU(),
        MaxPool2D(2),
        Flatten(),
    ]
    flat_dim = 2 * base_filters * (image_size // 4) ** 2
    if dropout > 0.0:
        layers.append(Dropout(dropout, rng))
    layers.extend(
        [
            Dense(flat_dim, hidden, rng),
            ReLU(),
            Dense(hidden, n_classes, rng),
        ]
    )
    return Model(Sequential(layers), SoftmaxCrossEntropy())


def build_mlp(
    rng: np.random.Generator,
    in_features: int,
    hidden: Sequence[int],
    n_classes: int,
) -> Model:
    """A plain multilayer perceptron (useful for fast integration tests)."""
    layers: List[Layer] = []
    prev = in_features
    for width in hidden:
        layers.append(Dense(prev, width, rng))
        layers.append(ReLU())
        prev = width
    layers.append(Dense(prev, n_classes, rng))
    return Model(Sequential(layers), SoftmaxCrossEntropy())


def build_svm(
    rng: np.random.Generator,
    in_features: int,
    loss: Optional[Loss] = None,
) -> Model:
    """Linear SVM with log loss (the paper's webspam workload)."""
    network = Sequential([Dense(in_features, 1, rng)])
    return Model(network, loss or LogisticLoss())
