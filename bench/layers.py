"""Per-layer measurements: calls into each layer's public functions.

Independent of the workload that is being run: every call uses the shapes
the workloads use (paper CNN and bench SVM at batch 64, the 16-worker
30-iteration service cells, a hop/1024 run).  Times are probe-normalised
exactly like ``cell_ms``: each sample is one bracketed batch of calls, the
value is ``PROBE_REF_MS x median ratio / calls``.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict

import numpy as np

import probe
import trace as span_trace
import workloads
from repro.compression import CompressionSpec, build_compressor
from repro.core.reducers import mean_reduce, staleness_weighted_reduce
from repro.core.update import Update
from repro.graphs import ring_based
from repro.harness.golden import golden_fingerprint
from repro.harness.io import run_to_dict
from repro.harness.parallel import run_specs
from repro.harness.profiling import sim_core_events_per_sec
from repro.harness.spec import ExperimentSpec, run_spec
from repro.harness.workloads import cnn_workload, svm_workload
from repro.net.network import Network
from repro.protocols import registered_protocols
from repro.protocols.base import LIGHT_TRACE
from repro.protocols.registry import build_cluster
from repro.scenarios import ScenarioSpec
from repro.service import ResultCache, RunJournal, execute_cell, spec_hash
from repro.service.specio import spec_from_dict
from repro.sim.engine import Environment
from repro.sim.rng import RngStreams

ENGINE_PROCESSES = 64
ENGINE_EVENTS = 2000
PUSH_MESSAGES = 20_000
#: Spec seed of every layer measurement (they are not workload inputs).
LAYER_SEED = 7


class Suite:
    def __init__(self, reps: int) -> None:
        self.reps = reps
        self.bracket = probe.Bracketed()

    def ms(self, name: str, fn: Callable[[], object], calls: int = 1) -> float:
        """Normalised milliseconds per call of ``fn``."""

        def batch():
            for _ in range(calls):
                fn()

        if name in self.bracket.ratios:
            raise ValueError(f"measurement name used twice: {name!r}")
        self.bracket.break_chain()
        fn()  # warm: the first call pays lazy imports and allocations
        for _ in range(self.reps):
            self.bracket.time(name, batch)
        return self.ratio_ms(name) / calls

    def ratio_ms(self, name: str) -> float:
        return probe.PROBE_REF_MS * statistics.median(self.bracket.ratios[name])


def measure(state_dir: str, reps: int) -> dict:
    suite = Suite(reps)
    probe.probe()
    metrics: Dict[str, float] = {}
    metrics.update(ml_layer(suite))
    metrics.update(core_layer(suite))
    metrics.update(sim_net_layers(suite))
    metrics.update(plane_layers(suite))
    metrics.update(harness_layer(suite))
    cells, spans = protocol_cells(suite)
    metrics.update(cells)
    metrics.update(service_layer(suite, Path(state_dir)))
    return {"layer_metrics": metrics, "service_cell_spans": spans}


# ----------------------------------------------------------------------
def ml_layer(suite: Suite) -> dict:
    cnn = cnn_workload("paper")
    svm = svm_workload("bench")
    out = {}
    model = cnn.model_factory(np.random.default_rng(LAYER_SEED))
    x, y = cnn.dataset.x_train[:64], cnn.dataset.y_train[:64]
    out["ml.cnn_step_ms"] = suite.ms(
        "cnn_step", lambda: model.loss_and_grad(x, y), calls=40
    )
    out["ml.cnn_eval_ms"] = suite.ms(
        "cnn_eval",
        lambda: model.evaluate(cnn.dataset.x_test, cnn.dataset.y_test),
        calls=4,
    )
    linear = svm.model_factory(np.random.default_rng(LAYER_SEED))
    sx, sy = svm.dataset.x_train[:64], svm.dataset.y_train[:64]
    out["ml.svm_step_us"] = 1e3 * suite.ms(
        "svm_step", lambda: linear.loss_and_grad(sx, sy), calls=2000
    )
    optimizer = svm.optimizer_factory()
    params = linear.get_params_copy()
    grad = np.array(linear.loss_and_grad(sx, sy)[1])
    out["ml.sgd_step_us"] = 1e3 * suite.ms(
        "sgd_step", lambda: optimizer.step(params, grad, 1), calls=5000
    )
    out["ml.set_params_us"] = 1e3 * suite.ms(
        "set_params", lambda: linear.set_params(params), calls=20000
    )

    def build_datasets():
        cnn_workload("paper")
        svm_workload("bench")
        svm_workload("smoke")  # what execute_cell rebuilds for every cell

    out["ml.dataset_build_ms"] = suite.ms("dataset_build", build_datasets, calls=4)
    return out


def core_layer(suite: Suite) -> dict:
    """Reducers at fan-in 3 on both model sizes (one call each a round)."""
    rng = np.random.default_rng(LAYER_SEED)
    dims = [
        (svm_workload("bench").model_factory(rng).dim, np.float64),
        (cnn_workload("paper").model_factory(rng).dim, np.float32),
    ]
    groups = [
        (
            [
                Update(rng.standard_normal(dim).astype(dtype), 5 + k, k)
                for k in range(3)
            ],
            np.empty(dim, dtype=dtype),
        )
        for dim, dtype in dims
    ]

    def mean_round():
        for updates, scratch in groups:
            mean_reduce(updates, out=scratch)

    def staleness_round():
        for updates, scratch in groups:
            staleness_weighted_reduce(updates, 8, 5, out=scratch)

    return {
        "core.mean_reduce_us": 1e3
        * suite.ms("mean_reduce", mean_round, calls=2000)
        / len(groups),
        "core.staleness_reduce_us": 1e3
        * suite.ms("staleness_reduce", staleness_round, calls=1000)
        / len(groups),
    }


def sim_net_layers(suite: Suite) -> dict:
    engine_ms = suite.ms(
        "engine",
        lambda: sim_core_events_per_sec(
            ENGINE_PROCESSES, ENGINE_EVENTS, repeats=1
        ),
    )

    def push_round():
        env = Environment()
        network = Network(env)
        delivered = []
        for i in range(PUSH_MESSAGES):
            network.push(i % 16, (i + 1) % 16, 8.0, i, delivered.append)
        env.run()
        if len(delivered) != PUSH_MESSAGES:
            raise RuntimeError("Network.push lost deliveries")

    push_ms = suite.ms("push", push_round)
    return {
        "sim.engine_events_per_s": ENGINE_PROCESSES * ENGINE_EVENTS * 1e3 / engine_ms,
        "net.push_per_s": PUSH_MESSAGES * 1e3 / push_ms,
    }


def plane_layers(suite: Suite) -> dict:
    """Compression, scenario and protocol-build costs of a service cell."""
    payload = workloads.service_payload("none", "hop", LAYER_SEED)
    spec = spec_from_dict(payload)[0]
    model = spec.workload.model_factory(np.random.default_rng(LAYER_SEED))
    compressor = build_compressor(
        CompressionSpec("topk", {"ratio": 0.1}),
        dim=model.dim,
        dtype=model.get_params().dtype,
        seed=[LAYER_SEED],
    )
    vector = np.random.default_rng(LAYER_SEED).standard_normal(model.dim)
    scenarios = [
        ScenarioSpec.from_dict(workloads.SERVICE_COLUMNS[column]["scenario"])
        for column in ("random", "churn")
    ]

    def build_scenarios():
        for scenario in scenarios:
            scenario.build(
                workloads.SERVICE_WORKERS,
                RngStreams(LAYER_SEED).spawn("slowdown"),
            )

    return {
        "compression.topk_encode_us": 1e3
        * suite.ms("topk", lambda: compressor.compress(vector), calls=2000),
        "scenarios.build_ms": suite.ms("scenario", build_scenarios, calls=200)
        / len(scenarios),
        # with_() makes a fresh spec: nothing cached from the last build.
        "protocols.build_ms": suite.ms(
            "build_cluster", lambda: build_cluster(spec.with_()), calls=20
        ),
    }


def harness_layer(suite: Suite) -> dict:
    svm = svm_workload("bench")
    big = run_spec(
        ExperimentSpec(
            name="layers/hop-1024",
            workload=svm,
            topology=ring_based(1024),
            max_iter=4,
            seed=LAYER_SEED,
            trace_channels=LIGHT_TRACE,
        )
    )

    def pack():
        run_to_dict(big)
        golden_fingerprint(big)

    small = svm_workload("smoke")
    tiny = {
        f"tiny{k}": ExperimentSpec(
            name=f"layers/tiny{k}",
            workload=small,
            topology=ring_based(4),
            max_iter=2,
            seed=LAYER_SEED + k,
        )
        for k in range(2)
    }
    pooled = suite.ms("pool2", lambda: run_specs(tiny, jobs=2))
    sequential = suite.ms("pool1", lambda: run_specs(tiny, jobs=1))

    def import_harness():
        subprocess.run(
            [sys.executable, "-c", "import repro.harness"],
            check=True,
            env=os.environ,
        )

    return {
        "harness.result_pack_ms": suite.ms("pack", pack, calls=3),
        "harness.pool_roundtrip_ms": pooled - sequential,
        "harness.import_s": suite.ms("import", import_harness) / 1e3,
    }


def protocol_cells(suite: Suite):
    """Every service cell in-process: the nine protocols, four columns.

    The ``none`` column is timed cell by cell (one metric a protocol), the
    other columns as one op each (their metric is the column ratio).
    """
    protocols = registered_protocols()
    columns = {
        column: [
            workloads.service_payload(column, protocol, LAYER_SEED)
            for protocol in protocols
        ]
        for column in workloads.SERVICE_COLUMNS
    }
    for payload in columns["none"]:
        execute_cell(payload)  # warm
    suite.bracket.break_chain()
    for _ in range(suite.reps):
        for protocol, payload in zip(protocols, columns["none"]):
            suite.bracket.time(
                f"none/{protocol}", lambda payload=payload: execute_cell(payload)
            )
        for column in ("random", "churn", "topk"):
            suite.bracket.time(
                f"column/{column}",
                lambda: [execute_cell(p) for p in columns[column]],
            )
    metrics = {
        f"protocols.cell_ms.{protocol}": suite.ratio_ms(f"none/{protocol}")
        for protocol in protocols
    }
    base = sum(metrics.values())
    metrics["scenarios.random_cell_ratio"] = suite.ratio_ms("column/random") / base
    metrics["membership.churn_cell_ratio"] = suite.ratio_ms("column/churn") / base
    metrics["compression.topk_cell_ratio"] = suite.ratio_ms("column/topk") / base

    # One traced round of the same cells: where a service cell's time goes.
    tracer = span_trace.SpanTracer()
    tracer.install()
    try:
        for column, payloads in columns.items():
            for protocol, payload in zip(protocols, payloads):
                tracer.op_id = f"{column}/{protocol}"
                span = tracer.begin("op")
                try:
                    execute_cell(payload)
                finally:
                    tracer.end(span)
    finally:
        tracer.uninstall()
    return metrics, tracer.shares()


def service_layer(suite: Suite, state_dir: Path) -> dict:
    """The service's own pieces, and its overhead over in-process cells."""
    outcome = execute_cell(workloads.service_payload("none", "hop", LAYER_SEED))
    payload = workloads.service_payload("none", "hop", LAYER_SEED)
    out = {
        "service.spec_hash_us": 1e3
        * suite.ms("spec_hash", lambda: spec_hash(payload), calls=300)
    }
    state_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=state_dir) as scratch:
        cache = ResultCache(Path(scratch) / "cache")
        entry = (
            outcome["spec_hash"],
            outcome["spec"],
            outcome["fingerprint"],
            outcome["result"],
        )
        out["service.cache_put_ms"] = suite.ms(
            "cache_put", lambda: cache.put(*entry), calls=20
        )
        out["service.cache_get_ms"] = suite.ms(
            "cache_get", lambda: cache.get(outcome["spec_hash"]), calls=50
        )
        journal = RunJournal(Path(scratch) / "journal.jsonl")
        out["service.journal_append_ms"] = suite.ms(
            "journal",
            lambda: journal.append(
                {"type": "cell-done", "sweep": "s000001", "hash": entry[0]}
            ),
            calls=50,
        )

    session = workloads.ServiceWorkload(
        "service-cold", LAYER_SEED, state_dir / "layers-service"
    )
    try:
        out["service.http_roundtrip_ms"] = suite.ms(
            "healthz", session.client.healthz, calls=50
        )
        suite.bracket.break_chain()
        for rep in range(suite.reps):
            sweep = workloads.service_sweep("none", 10_000 + 64 * rep)
            suite.bracket.time(
                "sweep_inprocess", lambda: [execute_cell(p) for p in sweep]
            )
            suite.bracket.time("sweep_served", lambda: session.sweep(sweep))
        cells = len(registered_protocols())
        out["service.overhead_ms_per_cell"] = (
            suite.ratio_ms("sweep_served") - suite.ratio_ms("sweep_inprocess")
        ) / cells
        tracer = span_trace.SpanTracer()
        tracer.install()
        try:
            session.sweep(workloads.service_sweep("none", 20_000))
        finally:
            tracer.uninstall()
        fsyncs = tracer.totals()[2].get("os.fsync", 0)
        out.update(session.layer_counters(fsyncs / cells))
    finally:
        session.close()
    return out
