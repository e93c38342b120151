"""Message types exchanged between workers.

Sizes are in abstract "units" (think MB): the link model turns a size
into serialization time via its bandwidth.  Parameter updates dominate
traffic; control messages (token ops, iteration inquiries) are tiny.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


#: Size of a control message (tokens, ACKs, iteration inquiries).
CONTROL_SIZE = 1e-4


@dataclass(slots=True)
class Message:
    """A network message.

    Attributes:
        src: Sending worker id.
        dst: Receiving worker id.
        kind: Message kind tag (``"update"``, ``"token"``, ``"ack"``,
            ``"control"``...).
        payload: Arbitrary content (parameter vectors, tags, ...).
        size: Size in bandwidth units.
        sent_at: Simulated send time (stamped by the network).
    """

    src: int
    dst: int
    kind: str
    payload: Any = None
    size: float = CONTROL_SIZE
    sent_at: float = field(default=0.0, compare=False)

    def __repr__(self) -> str:
        return (
            f"Message({self.kind!r}, {self.src}->{self.dst}, "
            f"size={self.size:g})"
        )


def params_message_size(dim: int, bytes_per_scalar: int = 4) -> float:
    """Message size (in MB) for a flat parameter vector of ``dim`` floats."""
    return dim * bytes_per_scalar / 1e6


def payload_bytes(
    update_size: float, wire_ratio: float = 1.0, vectors: float = 1.0
) -> float:
    """Wire size of one update message (bandwidth units, think MB).

    The single pricing helper every protocol's send path routes
    through:

    * ``update_size`` — the dense per-update payload of the workload
      (abstract MB; a stand-in for VGG-scale messages).
    * ``wire_ratio`` — compressed-over-dense byte ratio, derived from
      the actual encoded buffer dtypes/shapes
      (:meth:`repro.compression.base.Compressor.wire_ratio`); ``1.0``
      when uncompressed.
    * ``vectors`` — logical vectors per message: momentum-tracking's
      ``"tracking"`` rule gossips parameters *and* a momentum buffer,
      so its payload is ``vectors=2.0``.

    With ``wire_ratio == vectors == 1.0`` the result is bitwise
    ``update_size`` (multiplying by 1.0 is exact), which is what keeps
    the uncompressed golden cells pinned.
    """
    if update_size < 0:
        raise ValueError(f"negative update size {update_size}")
    return update_size * wire_ratio * vectors
