"""Built-in scenario families.

Registered on import (the registry imports this module lazily, exactly
like the protocol registry imports the protocol modules).  The full
family table (the ``contract-docstring`` lint rule keeps it in sync
with the ``register_scenario`` calls below):

========================  =============================================
``none`` (``clean``)      homogeneous cluster, every iteration at base
                          speed
``random``                per-iteration random slowdown (paper §7.3.1)
``straggler``             persistent per-worker stragglers (§7.3.5)
``bursty`` (``markov``)   Markov-modulated bursty stragglers
``tiered`` (``whimpy``)   persistently tiered whimpy/brawny hardware
``diurnal``               periodic phase-shifted interference
``trace``                 bit-exact replay of recorded factors (JSON)
``crash``                 permanent fail-stop crash (hop-native only)
``crash-restart``         crash + downtime + neighbor re-sync
``flaky-net``             temporary link degradation windows
``lossy-net``             random message loss with retransmit
``churn``                 scripted membership leave/join + rewiring
``churn-poisson``         Poisson-hazard membership churn
``churn-trace``           trace-driven churn (spot waves / diurnal
                          windows, JSON record/replay)
========================  =============================================

Slowdown families map straight to a model; fault families additionally
accept a nested ``"slowdown"`` param — itself a ``{"family", "params"}``
dict — so faults compose with any heterogeneity recipe::

    ScenarioSpec("crash-restart", {
        "worker": 2, "at": 5, "downtime_iters": 6,
        "slowdown": {"family": "random", "params": {"factor": 6.0}},
    })
"""

from __future__ import annotations

from typing import Dict

from repro.scenarios.faults import CrashEvent, FaultPlan, LinkFlap
from repro.scenarios.models import (
    DeterministicSlowdown,
    DiurnalSlowdown,
    MarkovSlowdown,
    NoSlowdown,
    RandomSlowdown,
    TieredSlowdown,
)
from repro.scenarios.registry import register_scenario
from repro.scenarios.spec import Scenario, ScenarioSpec
from repro.scenarios.trace import TraceSlowdown
from repro.sim.rng import RngStreams

HOP_PAPER = "Luo, Lin, Zhuo, Qian — ASPLOS 2019 (arXiv:1902.01064)"


def _nested_slowdown(params: dict, n_workers: int, streams: RngStreams):
    """Resolve a fault family's optional nested slowdown recipe."""
    nested = params.get("slowdown")
    if nested is None:
        return NoSlowdown()
    spec = ScenarioSpec.from_dict(nested)
    built = spec.build(n_workers, streams)
    if not built.faults.empty:
        raise ValueError(
            f"nested slowdown {spec.family!r} must be a pure slowdown "
            "family (it carries faults of its own)"
        )
    return built.slowdown


def _straggler_map(params: dict) -> Dict[int, float]:
    if "workers" in params:
        return {int(w): float(f) for w, f in params["workers"].items()}
    return {int(params.get("worker", 0)): float(params.get("factor", 4.0))}


# ----------------------------------------------------------------------
# Pure slowdown families
# ----------------------------------------------------------------------
def _build_none(params, n_workers, streams) -> Scenario:
    return Scenario("none", NoSlowdown())


def _build_random(params, n_workers, streams) -> Scenario:
    probability = params.get("probability")
    return Scenario(
        "random",
        RandomSlowdown(
            streams,
            factor=float(params.get("factor", 6.0)),
            probability=(
                float(probability)
                if probability is not None
                else 1.0 / n_workers
            ),
        ),
    )


def _build_straggler(params, n_workers, streams) -> Scenario:
    workers = _straggler_map(params)
    for worker in workers:
        # An out-of-range id would silently run a clean cluster.
        if not 0 <= worker < n_workers:
            raise ValueError(
                f"straggler worker {worker} out of range for "
                f"{n_workers} workers"
            )
    return Scenario("straggler", DeterministicSlowdown(workers))


def _build_bursty(params, n_workers, streams) -> Scenario:
    return Scenario(
        "bursty",
        MarkovSlowdown(
            streams,
            factor=float(params.get("factor", 6.0)),
            p_enter=float(params.get("p_enter", 0.05)),
            p_exit=float(params.get("p_exit", 0.25)),
        ),
    )


def _build_tiered(params, n_workers, streams) -> Scenario:
    return Scenario(
        "tiered",
        TieredSlowdown(
            tier_factors=tuple(params.get("tier_factors", (1.0, 2.0, 4.0))),
            tier_of_worker=params.get("tier_of_worker"),
        ),
    )


def _build_diurnal(params, n_workers, streams) -> Scenario:
    return Scenario(
        "diurnal",
        DiurnalSlowdown(
            period=float(params.get("period", 32.0)),
            peak=float(params.get("peak", 3.0)),
            phase_shift=float(params.get("phase_shift", 1.0 / 7.0)),
        ),
    )


def _build_trace(params, n_workers, streams) -> Scenario:
    if "path" in params:
        model = TraceSlowdown.load(params["path"])
    else:
        # An empty trace replays as homogeneous — keeps the bare family
        # name instantiable for generic registry sweeps.
        model = TraceSlowdown(
            {
                (int(w), int(k)): float(f)
                for w, row in params.get("factors", {}).items()
                for k, f in row.items()
            },
            default=float(params.get("default", 1.0)),
            source=params.get("source", "inline"),
        )
    return Scenario("trace", model)


# ----------------------------------------------------------------------
# Fault families (compose with any nested slowdown)
# ----------------------------------------------------------------------
def _check_crash_worker(worker: int, n_workers: int) -> int:
    # An out-of-range id would silently disable the fault (and, for a
    # permanent crash on hop, silently excuse real deadlocks too).
    if not 0 <= worker < n_workers:
        raise ValueError(
            f"crash worker {worker} out of range for {n_workers} workers"
        )
    return worker


def _build_crash(params, n_workers, streams) -> Scenario:
    crashes = params.get("crashes", {int(params.get("worker", 0)): int(params.get("at", 2))})
    events = tuple(
        CrashEvent(
            worker=_check_crash_worker(int(w), n_workers),
            at_iteration=int(k),
        )
        for w, k in sorted(crashes.items())
    )
    return Scenario(
        "crash",
        _nested_slowdown(params, n_workers, streams),
        FaultPlan(crashes=events),
    )


def _build_crash_restart(params, n_workers, streams) -> Scenario:
    event = CrashEvent(
        worker=_check_crash_worker(int(params.get("worker", 0)), n_workers),
        at_iteration=int(params.get("at", 3)),
        downtime_iters=float(params.get("downtime_iters", 6.0)),
        resync=bool(params.get("resync", True)),
    )
    return Scenario(
        "crash-restart",
        _nested_slowdown(params, n_workers, streams),
        FaultPlan(crashes=(event,)),
    )


def _build_flaky_net(params, n_workers, streams) -> Scenario:
    edges = params.get("edges")
    flap = LinkFlap(
        start=float(params.get("start", 0.5)),
        end=float(params.get("end", 2.5)),
        factor=float(params.get("factor", 8.0)),
        edges=(
            tuple((int(s), int(d)) for s, d in edges)
            if edges is not None
            else None
        ),
    )
    return Scenario(
        "flaky-net",
        _nested_slowdown(params, n_workers, streams),
        FaultPlan(link_flaps=(flap,)),
    )


def _build_lossy_net(params, n_workers, streams) -> Scenario:
    return Scenario(
        "lossy-net",
        _nested_slowdown(params, n_workers, streams),
        FaultPlan(
            loss_probability=float(params.get("probability", 0.05)),
            loss_retransmit=float(params.get("retransmit", 0.05)),
        ),
    )


# ----------------------------------------------------------------------
# Churn families (membership plane; elastic protocols only)
# ----------------------------------------------------------------------
def _iter_map(value) -> Dict[int, int]:
    return {int(w): int(k) for w, k in (value or {}).items()}


def _build_churn(params, n_workers, streams) -> Scenario:
    """Scripted membership churn: explicit leave/join/cycle timelines.

    Params: ``leaves`` (``{worker: iteration}`` permanent departures),
    ``joins`` (``{worker: iteration}`` late joiners, dark until the
    cluster frontier reaches the trigger), ``cycles`` (``{worker:
    [leave_at, join_at]}`` leave-then-rejoin), ``policy`` (rewire
    policy name), ``resync`` (joiners copy params from a live
    neighbor, default true), plus the usual nested ``slowdown``.  With
    no knobs, one default permanent leave (the highest-id worker at
    iteration 2) keeps the bare family name instantiable for registry
    sweeps and the conformance matrix.
    """
    from repro.membership import ChurnEvent, ChurnPlan

    leaves = _iter_map(params.get("leaves"))
    joins = _iter_map(params.get("joins"))
    cycles = {
        int(w): (int(pair[0]), int(pair[1]))
        for w, pair in (params.get("cycles") or {}).items()
    }
    if not (leaves or joins or cycles):
        leaves = {n_workers - 1: int(params.get("at", 2))}
    resync = bool(params.get("resync", True))
    events = []
    for worker, at in sorted(leaves.items()):
        events.append(ChurnEvent(worker=worker, leave_at=at, resync=resync))
    for worker, at in sorted(joins.items()):
        events.append(ChurnEvent(worker=worker, join_at=at, resync=resync))
    for worker, (leave_at, join_at) in sorted(cycles.items()):
        events.append(
            ChurnEvent(
                worker=worker,
                leave_at=leave_at,
                join_at=join_at,
                resync=resync,
            )
        )
    plan = ChurnPlan(
        events=tuple(events), policy=params.get("policy", "uniform")
    )
    plan.validate_for(n_workers)
    return Scenario(
        "churn",
        _nested_slowdown(params, n_workers, streams),
        FaultPlan(),
        churn=plan,
    )


def _build_churn_poisson(params, n_workers, streams) -> Scenario:
    """Poisson membership churn: per-iteration leave hazards, drawn at
    build time from the scenario's seeded stream (bit-deterministic).

    Params: ``rate`` (per-iteration leave probability, default 0.08),
    ``horizon`` (draw window in iterations, default 16),
    ``rejoin_after`` (frontier iterations until rejoin; omit for
    permanent leaves), ``min_active`` (never-leaving quorum, default
    ``max(2, n // 2)``), ``policy``, nested ``slowdown``.
    """
    from repro.membership import poisson_plan

    rejoin_after = params.get("rejoin_after")
    plan = poisson_plan(
        n_workers,
        rate=float(params.get("rate", 0.08)),
        horizon=int(params.get("horizon", 16)),
        rng=streams.fresh("churn"),
        rejoin_after=int(rejoin_after) if rejoin_after is not None else None,
        min_active=params.get("min_active"),
        policy=params.get("policy", "uniform"),
    )
    plan.validate_for(n_workers)
    return Scenario(
        "churn-poisson",
        _nested_slowdown(params, n_workers, streams),
        FaultPlan(),
        churn=plan if not plan.empty else None,
    )


def _build_churn_trace(params, n_workers, streams) -> Scenario:
    """Trace-driven membership churn: record/replay JSON schedules.

    Exactly one source selects the plan: ``path`` (replay a recorded
    ``repro.churn-trace/v1`` file), ``events`` (inline event dicts, the
    trace payload embedded in the spec), or ``preset`` (``"spot"``
    correlated preemption waves / ``"diurnal"`` staggered off-windows,
    generated at build time).  Spot params: ``waves`` (iteration list,
    default ``[2]``), ``fraction``, ``restart_after``, ``min_active``,
    ``sample`` (draw victims from the seeded stream instead of
    highest-id-first).  Diurnal params: ``phase``, ``night``,
    ``stagger``, ``min_active``.  Common: ``policy``, nested
    ``slowdown``.
    """
    from repro.membership import ChurnPlan
    from repro.scenarios.churn_trace import (
        diurnal_availability_plan,
        load_churn_trace,
        spot_preemption_plan,
    )

    sources = [k for k in ("path", "events") if params.get(k) is not None]
    if len(sources) > 1:
        raise ValueError(
            "churn-trace takes at most one of 'path' / 'events', "
            f"got {sources}"
        )
    if params.get("path") is not None:
        plan = load_churn_trace(params["path"])
    elif params.get("events") is not None:
        plan = ChurnPlan.from_dict(
            {
                "events": list(params["events"]),
                "policy": params.get("policy", "uniform"),
            }
        )
    else:
        preset = params.get("preset", "spot")
        if preset == "spot":
            restart_after = params.get("restart_after")
            plan = spot_preemption_plan(
                n_workers,
                waves=params.get("waves", [2]),
                fraction=float(params.get("fraction", 0.5)),
                restart_after=(
                    int(restart_after) if restart_after is not None else None
                ),
                min_active=int(params.get("min_active", 2)),
                rng=(
                    streams.fresh("churn-trace")
                    if params.get("sample")
                    else None
                ),
                policy=params.get("policy", "uniform"),
            )
        elif preset == "diurnal":
            plan = diurnal_availability_plan(
                n_workers,
                phase=int(params.get("phase", 2)),
                night=int(params.get("night", 2)),
                stagger=int(params.get("stagger", 0)),
                min_active=int(params.get("min_active", 2)),
                policy=params.get("policy", "uniform"),
            )
        else:
            raise ValueError(
                f"unknown churn-trace preset {preset!r} "
                "(expected 'spot' or 'diurnal')"
            )
    plan.validate_for(n_workers)
    return Scenario(
        "churn-trace",
        _nested_slowdown(params, n_workers, streams),
        FaultPlan(),
        churn=plan if not plan.empty else None,
    )


# ----------------------------------------------------------------------
# Registration
# ----------------------------------------------------------------------
register_scenario(
    "none",
    _build_none,
    summary="Homogeneous cluster: every iteration at base speed",
    paper=HOP_PAPER,
    aliases=("clean",),
    universal=True,  # every protocol completes: conformance-matrix member
)
register_scenario(
    "random",
    _build_random,
    summary="Per-iteration random slowdown (paper Section 7.3.1: "
    "6x at p=1/n)",
    paper=HOP_PAPER,
    universal=True,  # every protocol completes: conformance-matrix member
)
register_scenario(
    "straggler",
    _build_straggler,
    summary="Persistent per-worker stragglers (paper Section 7.3.5: "
    "one worker 4x)",
    paper=HOP_PAPER,
    aliases=("deterministic",),
    universal=True,  # every protocol completes: conformance-matrix member
)
register_scenario(
    "bursty",
    _build_bursty,
    summary="Markov-modulated bursty stragglers whose identity shifts "
    "over time",
    paper="Prague / partial all-reduce — Luo et al. (arXiv:1909.08029)",
    aliases=("markov",),
    universal=True,  # every protocol completes: conformance-matrix member
)
register_scenario(
    "tiered",
    _build_tiered,
    summary="Persistently tiered (whimpy/brawny) hardware",
    paper="HetPipe — Park et al. (arXiv:2005.14038)",
    aliases=("whimpy",),
    universal=True,  # every protocol completes: conformance-matrix member
)
register_scenario(
    "diurnal",
    _build_diurnal,
    summary="Periodic shared-cluster interference, phase-shifted per "
    "worker",
    paper="n/a (shared-cluster load curves)",
    universal=True,  # every protocol completes: conformance-matrix member
)
register_scenario(
    "trace",
    _build_trace,
    summary="Bit-exact replay of recorded per-(worker, iteration) "
    "factors (JSON)",
    paper="n/a (trace-driven simulation)",
    universal=True,  # every protocol completes: conformance-matrix member
)
register_scenario(
    "crash",
    _build_crash,
    summary="Permanent fail-stop crash; requires native crash support "
    "(hop's backup workers, Section 3.4)",
    paper=HOP_PAPER,
    universal=False,
)
register_scenario(
    "crash-restart",
    _build_crash_restart,
    summary="Worker crash with downtime, then restart + parameter "
    "re-sync from a live neighbor",
    paper=HOP_PAPER + " (Section 3.4)",
    universal=True,  # every protocol completes: conformance-matrix member
)
register_scenario(
    "flaky-net",
    _build_flaky_net,
    summary="Temporary link degradation windows (latency and "
    "bandwidth scaled during flaps); bites protocols that consume "
    "spec links (hop, notify_ack, adpsgd, partial-allreduce, "
    "momentum-tracking) — allreduce/ps model their own fabric",
    paper="n/a (link-level heterogeneity, cf. paper Section 7.3.6)",
    aliases=("link-flap",),
    universal=True,  # every protocol completes: conformance-matrix member
)
register_scenario(
    "churn",
    _build_churn,
    summary="Scripted membership churn: worker leave/join with "
    "topology rewiring through the membership plane; elastic "
    "protocols only (all nine built-ins qualify)",
    paper="Moshpit SGD — Ryabinin et al. (arXiv:2103.03239); "
    "Prague regrouping — Luo et al. (arXiv:1909.08029)",
    universal=False,
)
register_scenario(
    "churn-poisson",
    _build_churn_poisson,
    summary="Poisson membership churn: build-time-drawn leave "
    "(and optional rejoin) hazards per worker; elastic protocols only",
    paper="Moshpit SGD — Ryabinin et al. (arXiv:2103.03239)",
    aliases=("poisson-churn",),
    universal=False,
)
register_scenario(
    "churn-trace",
    _build_churn_trace,
    summary="Trace-driven membership churn: spot-preemption waves or "
    "diurnal off-windows, recorded to / replayed from JSON "
    "(repro.churn-trace/v1); elastic protocols only",
    paper="n/a (provider preemption traces; cf. Moshpit SGD — "
    "Ryabinin et al. (arXiv:2103.03239))",
    universal=False,
)
register_scenario(
    "lossy-net",
    _build_lossy_net,
    summary="Random message loss with retransmit-after-timeout "
    "(loss costs time, delivery stays eventual); bites the "
    "message-fabric protocols (hop, notify_ack) — others have no "
    "discrete messages to drop",
    paper="n/a (lossy transport)",
    universal=True,  # every protocol completes: conformance-matrix member
)
