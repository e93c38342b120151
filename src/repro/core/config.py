"""Configuration for the Hop protocol."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class SkipConfig:
    """Skipping-iterations policy (Section 5).

    Attributes:
        max_skip: Maximum iterations skipped in one jump (the paper
            evaluates 2 and 10 in Figure 19).
        trigger_lag: Minimum lag (in iterations, measured through
            out-neighbor token-queue sizes) before a jump is considered;
            the paper exposes this as a user-specified condition.
    """

    max_skip: int = 10
    trigger_lag: int = 2

    def __post_init__(self) -> None:
        if self.max_skip < 1:
            raise ValueError("max_skip must be >= 1")
        if self.trigger_lag < 1:
            raise ValueError("trigger_lag must be >= 1")


@dataclass(frozen=True)
class HopConfig:
    """Everything that selects a Hop protocol variant.

    Attributes:
        mode: Recv/Reduce strategy — ``"standard"`` (Figure 4/7),
            ``"backup"`` (Figure 8), or ``"staleness"`` (Figure 9).
        use_token_queues: Bound the iteration gap with token queues
            (Theorem 2).  Mandatory for backup mode (Section 4.3) and
            for skipping.
        max_ig: Maximum iteration gap enforced by token queues.
        n_backup: Number of backup workers per node — each worker needs
            ``|Nin| - n_backup`` same-iteration updates (backup mode).
        staleness: Staleness bound ``s`` (staleness mode).
        skip: Optional skipping-iterations policy; requires
            ``use_token_queues`` and a non-standard mode (a skipped
            iteration's update never arrives, which only backup or
            staleness receivers tolerate).
        stale_reduce: How staleness mode aggregates satisfactory
            updates — ``"weighted"`` is the paper's Eq. (2)
            iteration-weighted average; ``"uniform"`` is the simple
            average the paper compared it against (Section 4.4).
        computation_graph: ``"parallel"`` (Figure 2b, the paper's
            choice) or ``"serial"`` (Figure 2a).
        queue_impl: ``"rotating"`` (Section 6.1) or ``"tagged"``
            (single tag-matched queue).  Staleness mode always uses the
            tagged implementation (sender-matched dequeues).
        check_receiver_iteration: Section 6.2(b) — suppress sends to
            receivers that already advanced past the update's iteration.
        bound_update_queues: Enforce the ``(1 + max_ig) |Nin|`` capacity
            bound on update queues (overflow raises, proving Theorem 2's
            sizing).  Only meaningful with token queues.
    """

    mode: str = "standard"
    use_token_queues: bool = True
    max_ig: int = 4
    n_backup: int = 0
    staleness: int = 0
    skip: Optional[SkipConfig] = None
    computation_graph: str = "parallel"
    queue_impl: str = "rotating"
    check_receiver_iteration: bool = False
    bound_update_queues: bool = False
    stale_reduce: str = "weighted"

    def __post_init__(self) -> None:
        if self.mode not in ("standard", "backup", "staleness"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.computation_graph not in ("parallel", "serial"):
            raise ValueError(
                f"unknown computation graph {self.computation_graph!r}"
            )
        if self.queue_impl not in ("rotating", "tagged"):
            raise ValueError(f"unknown queue_impl {self.queue_impl!r}")
        if self.stale_reduce not in ("weighted", "uniform"):
            raise ValueError(f"unknown stale_reduce {self.stale_reduce!r}")
        if self.max_ig < 1:
            raise ValueError("max_ig must be >= 1")
        if self.n_backup < 0:
            raise ValueError("n_backup must be >= 0")
        if self.staleness < 0:
            raise ValueError("staleness must be >= 0")
        if self.mode == "backup" and self.n_backup < 1:
            raise ValueError("backup mode needs n_backup >= 1")
        if self.mode == "backup" and not self.use_token_queues:
            raise ValueError(
                "backup workers make the iteration gap unbounded; token "
                "queues are mandatory (Section 4.3)"
            )
        if self.mode == "staleness" and self.staleness < 1:
            raise ValueError("staleness mode needs staleness >= 1")
        if self.skip is not None:
            if not self.use_token_queues:
                raise ValueError(
                    "skipping iterations is driven by token-queue sizes; "
                    "enable use_token_queues (Section 5)"
                )
            if self.mode == "standard":
                raise ValueError(
                    "skipped iterations never deliver their updates; "
                    "receivers need backup or staleness mode to tolerate "
                    "that (Section 5)"
                )

    @property
    def effective_queue_impl(self) -> str:
        """Staleness mode needs sender-matched dequeues -> tagged."""
        if self.mode == "staleness":
            return "tagged"
        return self.queue_impl

    def describe(self) -> str:
        parts = [self.mode]
        if self.mode == "backup":
            parts.append(f"n_buw={self.n_backup}")
        if self.mode == "staleness":
            parts.append(f"s={self.staleness}")
        if self.use_token_queues:
            parts.append(f"max_ig={self.max_ig}")
        if self.skip is not None:
            parts.append(
                f"skip(max={self.skip.max_skip}, trig={self.skip.trigger_lag})"
            )
        parts.append(self.computation_graph)
        return ", ".join(parts)


#: The plain decentralized baseline used across the evaluation.
STANDARD = HopConfig(mode="standard")

#: What a NOTIFY-ACK worker runs whatever the spec's config says: the
#: serial graph (Figure 2a) with its ACK channels in place of tokens.
NOTIFY_ACK = HopConfig(use_token_queues=False, computation_graph="serial")


def backup_config(
    n_backup: int = 1, max_ig: int = 4, skip: Optional[SkipConfig] = None
) -> HopConfig:
    """Backup-worker variant (Figures 14-16, 19)."""
    return HopConfig(
        mode="backup", n_backup=n_backup, max_ig=max_ig, skip=skip
    )


def staleness_config(
    staleness: int = 5,
    max_ig: int = 8,
    skip: Optional[SkipConfig] = None,
    stale_reduce: str = "weighted",
) -> HopConfig:
    """Bounded-staleness variant (Figure 17)."""
    return HopConfig(
        mode="staleness",
        staleness=staleness,
        max_ig=max_ig,
        skip=skip,
        stale_reduce=stale_reduce,
    )
