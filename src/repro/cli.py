"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``figures``  — reproduce paper figures/tables and print the renders.
* ``ablations`` — run the ablation studies.
* ``train``    — one training run with any registered protocol.
* ``graphs``   — inspect a topology (spectral gap, diameter, degrees).
* ``protocols`` — list every protocol in the registry with citations
  (``--json`` for machine-readable rows incl. the ``elastic`` flag).
* ``scenarios`` — list every scenario family in the registry
  (``--json`` for machine-readable rows incl. the ``universal`` flag).
* ``compressors`` — list every update-compression scheme in the
  registry (``--json`` for machine-readable rows).
* ``profile``  — cProfile one training run (plus a per-layer table of
  one model step and a bare-engine events/sec microbenchmark) to find
  simulator hot spots.
* ``lint``     — static analysis for simulator invariants
  (determinism, zero-copy aliasing, DES perf, registry contracts);
  see :mod:`repro.analysis`.  Exit 1 on findings.
* ``serve``    — the fault-tolerant experiment service: accepts
  ExperimentSpec JSON over HTTP, schedules runs across a process
  pool, and content-addresses results on disk (see
  :mod:`repro.service`).  Survives worker crashes and ``kill -9``.
* ``submit``   — client for ``serve``: post spec JSON file(s), wait
  for the sweep, and print per-cell results.

``train --protocol`` accepts any name from the protocol registry
(:mod:`repro.protocols.registry`): ``hop``, ``notify_ack``, ``ps``
(= ``ps-bsp``), ``ps-async``, ``ps-ssp``, ``allreduce``, ``adpsgd``,
``partial-allreduce`` (= ``prague``) and ``momentum-tracking``.

``train --scenario`` accepts any scenario family
(:mod:`repro.scenarios.registry`) with ``--scenario-param key=value``
knobs; the legacy ``--slowdown`` flags cover the paper's two recipes
with explicit ``--slowdown-factor`` / ``--slowdown-prob`` /
``--stragglers`` controls.

``train --compression`` accepts any scheme from the compression
registry (:mod:`repro.compression`) with ``--compression-param
key=value`` knobs, e.g. ``--compression topk --compression-param
ratio=0.01``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from repro.core.config import (
    STANDARD,
    SkipConfig,
    backup_config,
    staleness_config,
)
from repro.graphs import by_name as graph_by_name
from repro.graphs import spectral_gap
from repro.harness import ALL_FIGURES, ExperimentSpec, SlowdownSpec
from repro.harness.ablations import ALL_ABLATIONS
from repro.harness.parallel import set_default_jobs
from repro.harness.spec import run_spec
from repro.harness.workloads import by_name as workload_by_name
from repro.protocols import protocol_table, registered_protocols
from repro.scenarios import ScenarioSpec, registered_scenarios, scenario_table


def _jobs_arg(value: str) -> int:
    jobs = int(value)
    if jobs < 0:
        raise argparse.ArgumentTypeError(f"jobs must be >= 0, got {jobs}")
    return jobs


def _shards_arg(value: str) -> int:
    shards = int(value)
    if shards < 0:
        raise argparse.ArgumentTypeError(
            f"shards must be >= 0, got {shards}"
        )
    return shards


def _cmd_figures(args: argparse.Namespace) -> int:
    set_default_jobs(args.jobs)
    names = args.only or sorted(ALL_FIGURES)
    failed = []
    for name in names:
        if name not in ALL_FIGURES:
            print(f"unknown figure {name!r}; choose from {sorted(ALL_FIGURES)}")
            return 2
        function = ALL_FIGURES[name]
        result = function() if name == "fig21" else function(args.preset)
        print(result.render())
        print()
        if args.json_dir:
            from repro.harness.io import save_figure

            save_figure(result, f"{args.json_dir}/{name}.json")
        if not result.passed():
            failed.append(name)
    if failed:
        print(f"shape checks FAILED for: {failed}")
        return 1
    print(f"all shape checks passed ({len(names)} figure(s))")
    return 0


def _cmd_ablations(args: argparse.Namespace) -> int:
    set_default_jobs(args.jobs)
    names = args.only or sorted(ALL_ABLATIONS)
    failed = []
    for name in names:
        if name not in ALL_ABLATIONS:
            print(
                f"unknown ablation {name!r}; choose from {sorted(ALL_ABLATIONS)}"
            )
            return 2
        result = ALL_ABLATIONS[name](preset=args.preset)
        print(result.render())
        print()
        if not result.passed():
            failed.append(name)
    if failed:
        print(f"shape checks FAILED for: {failed}")
        return 1
    print(f"all shape checks passed ({len(names)} ablation(s))")
    return 0


def _build_config(args: argparse.Namespace):
    skip = (
        SkipConfig(max_skip=args.max_skip, trigger_lag=args.trigger_lag)
        if args.skip
        else None
    )
    if args.mode == "standard":
        if skip is not None:
            raise SystemExit("--skip needs --mode backup or staleness")
        return STANDARD
    if args.mode == "backup":
        return backup_config(
            n_backup=args.n_backup, max_ig=args.max_ig, skip=skip
        )
    return staleness_config(
        staleness=args.staleness, max_ig=args.max_ig, skip=skip
    )


#: Python spellings of JSON literals — `resync=False` must mean false,
#: not the truthy string "False".
_PYTHON_LITERALS = {"True": True, "False": False, "None": None}


def _scenario_param(pair: str):
    """Parse one ``key=value`` pair; values are JSON when they parse."""
    key, separator, raw = pair.partition("=")
    if not separator or not key:
        raise argparse.ArgumentTypeError(
            f"--scenario-param needs key=value, got {pair!r}"
        )
    if raw in _PYTHON_LITERALS:
        return key, _PYTHON_LITERALS[raw]
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings (e.g. a trace path) pass through
    return key, value


def _compression_param(pair: str):
    """Parse one ``key=value`` compressor knob (JSON values)."""
    key, separator, raw = pair.partition("=")
    if not separator or not key:
        raise argparse.ArgumentTypeError(
            f"--compression-param needs key=value, got {pair!r}"
        )
    if raw in _PYTHON_LITERALS:
        return key, _PYTHON_LITERALS[raw]
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _stragglers_arg(text: str) -> Dict[int, float]:
    """Parse a ``wid:factor,wid:factor`` multi-straggler map."""
    workers: Dict[int, float] = {}
    try:
        for part in text.split(","):
            wid, separator, factor = part.partition(":")
            if not separator:
                raise ValueError(part)
            workers[int(wid)] = float(factor)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--stragglers needs wid:factor[,wid:factor...], got {text!r}"
        )
    return workers


def _train_slowdown(args: argparse.Namespace) -> SlowdownSpec:
    """The legacy --slowdown flags, with every SlowdownSpec knob exposed.

    Knobs that cannot apply to the selected kind are an error, not a
    silent no-op — `--stragglers` without `--slowdown straggler` must
    not quietly run a clean cluster.
    """
    if args.stragglers is not None and args.slowdown != "straggler":
        raise SystemExit("--stragglers needs --slowdown straggler")
    if args.stragglers is not None and args.slowdown_factor is not None:
        raise SystemExit(
            "--stragglers already fixes per-worker factors; drop "
            "--slowdown-factor"
        )
    if args.slowdown_prob is not None and args.slowdown != "random":
        raise SystemExit("--slowdown-prob needs --slowdown random")
    if args.slowdown_factor is not None and args.slowdown == "none":
        raise SystemExit(
            "--slowdown-factor needs --slowdown random or straggler"
        )
    if args.slowdown == "random":
        factor = 6.0 if args.slowdown_factor is None else args.slowdown_factor
        return SlowdownSpec(
            kind="random", factor=factor, probability=args.slowdown_prob
        )
    if args.slowdown == "straggler":
        if args.stragglers:
            workers = args.stragglers
        else:
            factor = (
                4.0 if args.slowdown_factor is None else args.slowdown_factor
            )
            workers = {0: factor}
        return SlowdownSpec(kind="deterministic", workers=workers)
    return SlowdownSpec()


def _cmd_train(args: argparse.Namespace) -> int:
    workload = workload_by_name(args.workload, args.preset)
    topology = graph_by_name(args.graph, args.workers)
    compression = None
    if args.compression and args.compression != "none":
        from repro.compression import CompressionSpec

        compression = CompressionSpec(
            args.compression, dict(args.compression_param or [])
        )
    elif args.compression_param:
        raise SystemExit("--compression-param needs --compression")
    scenario = None
    if args.scenario:
        if args.slowdown != "none":
            raise SystemExit(
                "--scenario and --slowdown are mutually exclusive; the "
                "scenario registry covers the --slowdown recipes "
                "(families 'random' and 'straggler')"
            )
        scenario = ScenarioSpec(args.scenario, dict(args.scenario_param or []))
    elif args.scenario_param:
        raise SystemExit("--scenario-param needs --scenario")
    slowdown = _train_slowdown(args)

    spec = ExperimentSpec(
        name="cli",
        workload=workload,
        topology=topology,
        protocol=args.protocol,
        config=_build_config(args) if args.protocol == "hop" else STANDARD,
        slowdown=slowdown,
        scenario=scenario,
        max_iter=args.iterations,
        seed=args.seed,
        ps_staleness=args.staleness if args.protocol == "ps-ssp" else 0,
        group_size=args.group_size,
        static_groups=args.static_groups,
        momentum_mode=args.momentum_mode,
        compression=compression,
    )
    try:
        if args.shards is not None or _env_shards_requested():
            from repro.harness.sharded import run_spec_sharded

            run = run_spec_sharded(spec, shards=args.shards)
        else:
            run = run_spec(spec)
    except ValueError as error:
        # Foreseeable spec mistakes (hop-only crash family on another
        # protocol, out-of-range crash worker, bad scenario knobs,
        # un-shardable spec with --shards > 1) surface as one-line
        # errors like every other flag misuse.
        raise SystemExit(f"error: {error}")
    print(run.summary())
    if args.out:
        from repro.harness.io import save_run

        path = save_run(run, args.out)
        print(f"run summary written to {path}")
    return 0


def _env_shards_requested() -> bool:
    """True when ``REPRO_SHARDS`` (or ``set_default_shards``) asks for
    sharding — so plain ``repro train`` stays byte-for-byte on the
    historical path unless sharding was requested somewhere."""
    from repro.harness.parallel import default_shards

    return default_shards() > 1


def _cmd_protocols(args: argparse.Namespace) -> int:
    rows = protocol_table()
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    print("registered protocols:")
    for row in rows:
        name = row["name"]
        if row["aliases"]:
            name += f" (alias: {row['aliases']})"
        if row["elastic"]:
            name += "  [elastic: survives membership churn]"
        print(f"* {name}")
        print(f"    {row['summary']}")
        print(f"    [{row['paper']}]")
    return 0


def _cmd_compressors(args: argparse.Namespace) -> int:
    from repro.compression import compression_table

    rows = compression_table()
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    print("registered compression schemes:")
    for row in rows:
        name = row["name"]
        if row["aliases"]:
            name += f" (alias: {row['aliases']})"
        print(f"* {name}")
        print(f"    {row['summary']}")
        print(f"    [{row['paper']}]")
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    rows = scenario_table()
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    print("registered scenario families:")
    for row in rows:
        name = row["name"]
        if row["aliases"]:
            name += f" (alias: {row['aliases']})"
        if not row["universal"]:
            name += "  [not universal: excluded from the conformance matrix]"
        print(f"* {name}")
        print(f"    {row['summary']}")
        print(f"    [{row['paper']}]")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # Imported lazily: `repro lint` is a dev/CI tool; `repro train`
    # shouldn't pay for the analysis package.
    from repro.analysis import rule_table, run_lint
    from repro.analysis.baseline import Baseline
    from repro.analysis.config import LintConfig

    if args.list_rules:
        rows = rule_table()
        if args.json:
            print(json.dumps(rows, indent=2))
            return 0
        print("registered lint rules:")
        for row in rows:
            scope = ", ".join(row["scope"]) if row["scope"] else "everywhere"
            print(f"* {row['name']}  [{row['group']}]  ({scope})")
            print(f"    {row['summary']}")
        return 0

    config = LintConfig.discover()
    if args.baseline is not None:
        config.baseline = args.baseline or None
    rules = (
        [name.strip() for name in args.rules.split(",") if name.strip()]
        if args.rules
        else None
    )
    paths = args.paths or None

    if args.write_baseline:
        baseline_path = config.resolved_baseline()
        if baseline_path is None:
            raise SystemExit("--write-baseline needs a baseline path")
        report = run_lint(paths, rules=rules, config=config, baseline=Baseline())
        Baseline.from_findings(report.findings).save(baseline_path)
        print(
            f"{len(report.findings)} finding(s) baselined to {baseline_path}"
        )
        return 0

    report = run_lint(paths, rules=rules, config=config)
    if args.json:
        print(report.to_json())
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.harness.profiling import (
        model_step_budget,
        profile_spec,
        sharded_events_per_sec,
        sim_core_events_per_sec,
    )
    from repro.harness.sharded import resolve_shards
    from repro.protocols.base import LIGHT_TRACE

    n_shards = resolve_shards(args.shards)
    if args.engine_only:
        if n_shards > 1:
            rate = sharded_events_per_sec(n_shards=n_shards)
            print(
                f"sharded-engine microbenchmark ({n_shards} shards): "
                f"{rate:,.0f} events/sec"
            )
        else:
            rate = sim_core_events_per_sec()
            print(f"sim-core microbenchmark: {rate:,.0f} events/sec")
        return 0

    workload = workload_by_name(args.workload, args.preset)
    topology = graph_by_name(args.graph, args.workers)
    spec = ExperimentSpec(
        name="profile",
        workload=workload,
        topology=topology,
        protocol=args.protocol,
        max_iter=args.iterations,
        seed=args.seed,
        trace_channels=None if args.full_trace else LIGHT_TRACE,
    )
    print(
        f"profiling {args.protocol} x {args.workers} workers x "
        f"{args.iterations} iterations ({args.workload}/{args.preset})..."
    )
    try:
        report = profile_spec(
            spec, sort=args.sort, limit=args.limit, shards=n_shards
        )
    except ValueError as error:
        raise SystemExit(f"error: {error}")
    print(report.render())
    data, batch = workload.dataset, workload.batch_size
    model = workload.model_factory(np.random.default_rng(args.seed))
    budget = model_step_budget(
        model, data.x_train[:batch], data.y_train[:batch]
    )
    print(f"one model step ({args.workload}/{args.preset}, batch {batch}):")
    print(budget.render())
    if report.compute is not None:
        print(report.render_compute())
    print()
    rate = sim_core_events_per_sec()
    print(f"sim-core microbenchmark: {rate:,.0f} events/sec")
    return 0


def _cmd_graphs(args: argparse.Namespace) -> int:
    topology = graph_by_name(args.graph, args.workers)
    topology.validate()
    print(f"{topology.name}: n={topology.n}")
    print(f"  spectral gap     : {spectral_gap(topology):.4f}")
    print(f"  diameter         : {topology.diameter():g}")
    print(
        f"  degree (w/o self): "
        f"{[topology.in_degree(i, include_self=False) for i in range(topology.n)]}"
    )
    print(f"  doubly stochastic: {topology.is_doubly_stochastic()}")
    print(f"  bipartite        : {topology.is_bipartite()}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.service.server import ExperimentService, make_server

    service = ExperimentService(
        args.state_dir,
        pool_workers=args.pool_workers,
        run_timeout=args.run_timeout,
        attempts=args.attempts,
        max_pending=args.max_pending,
        inline=args.inline,
    )
    resumed = service.resume()
    httpd = make_server(service, host=args.host, port=args.port)
    host, port = httpd.server_address[:2]
    # The port line is a contract: with --port 0 the OS picks, and
    # scripted callers (smoke/chaos harnesses) parse it from stdout.
    print(f"repro serve: listening on http://{host}:{port}", flush=True)
    print(f"repro serve: state dir {service.state_dir}", flush=True)
    if resumed:
        print(
            f"repro serve: resumed {len(resumed)} journaled sweep(s): "
            + ", ".join(resumed),
            flush=True,
        )

    def _drain_and_stop() -> None:
        service.shutdown(timeout=args.drain_timeout)
        httpd.shutdown()

    def _on_signal(signum: int, frame: object) -> None:
        print("repro serve: draining (signal received)...", flush=True)
        threading.Thread(target=_drain_and_stop, daemon=True).start()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    try:
        httpd.serve_forever(poll_interval=0.1)
    finally:
        httpd.server_close()
    print("repro serve: drained cleanly", flush=True)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.service.client import ServiceClient, ServiceError

    specs: List[dict] = []
    for source in args.specs:
        if source == "-":
            payload = json.load(sys.stdin)
        else:
            payload = json.loads(Path(source).read_text())
        specs.extend(payload if isinstance(payload, list) else [payload])
    client = ServiceClient(args.url, timeout=args.timeout)
    try:
        ticket = client.submit(specs, sweep_id=args.sweep_id)
    except ServiceError as error:
        print(f"repro submit: rejected: {error}", file=sys.stderr)
        return 1
    print(
        f"sweep {ticket['sweep_id']}: {len(ticket['cells'])} cell(s) admitted"
    )
    if args.no_wait:
        return 0
    try:
        snapshot = client.wait_for_sweep(
            ticket["sweep_id"], timeout=args.wait_timeout
        )
    except TimeoutError as error:
        print(f"repro submit: {error}", file=sys.stderr)
        return 1
    for digest, cell in snapshot["cells"].items():
        origin = "cache" if cell["cache_hit"] else f"ran x{cell['attempts']}"
        line = f"  {digest[:12]}  {cell['status']:<6} ({origin})"
        if cell["status"] == "done" and not args.json:
            entry = client.result(digest)
            fp = entry["fingerprint"]
            line += (
                f"  loss={float.fromhex(fp['final_loss']):.6f}"
                f"  acc={float.fromhex(fp['final_accuracy']):.4f}"
            )
        print(line)
    if args.json:
        results = {
            digest: client.result(digest)
            for digest, cell in snapshot["cells"].items()
            if cell["status"] == "done"
        }
        print(json.dumps({"sweep": snapshot, "results": results}, indent=1))
    return 1 if snapshot["failed"] else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hop (ASPLOS 2019) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figures = sub.add_parser("figures", help="reproduce paper figures")
    figures.add_argument("--preset", default="smoke",
                         choices=("smoke", "bench", "paper"))
    figures.add_argument("--only", nargs="*", help="figure ids (e.g. fig16)")
    figures.add_argument("--json-dir", help="also dump JSON artifacts here")
    figures.add_argument(
        "--jobs", type=_jobs_arg, default=None,
        help="worker processes for a figure's independent series "
             "(default: REPRO_JOBS env var, then CPU count; 1 = sequential)",
    )
    figures.set_defaults(func=_cmd_figures)

    ablations = sub.add_parser("ablations", help="run ablation studies")
    ablations.add_argument("--preset", default="smoke",
                           choices=("smoke", "bench", "paper"))
    ablations.add_argument("--only", nargs="*")
    ablations.add_argument(
        "--jobs", type=_jobs_arg, default=None,
        help="worker processes for an ablation's independent series "
             "(default: REPRO_JOBS env var, then CPU count; 1 = sequential)",
    )
    ablations.set_defaults(func=_cmd_ablations)

    train = sub.add_parser("train", help="run one training configuration")
    train.add_argument("--workload", default="svm", choices=("cnn", "svm"))
    train.add_argument("--preset", default="smoke",
                       choices=("smoke", "bench", "paper"))
    train.add_argument(
        "--protocol",
        default="hop",
        choices=tuple(registered_protocols(include_aliases=True)),
        help="any protocol in the registry (see `python -m repro protocols`)",
    )
    train.add_argument("--graph", default="ring_based")
    train.add_argument("--workers", type=int, default=8)
    train.add_argument("--iterations", type=int, default=30)
    train.add_argument("--mode", default="standard",
                       choices=("standard", "backup", "staleness"))
    train.add_argument("--n-backup", type=int, default=1)
    train.add_argument("--staleness", type=int, default=5)
    train.add_argument("--max-ig", type=int, default=4)
    train.add_argument("--skip", action="store_true")
    train.add_argument("--max-skip", type=int, default=10)
    train.add_argument("--trigger-lag", type=int, default=2)
    train.add_argument(
        "--slowdown", default="none", choices=("none", "random", "straggler")
    )
    train.add_argument(
        "--slowdown-factor", type=float, default=None,
        help="slowdown multiplier (default: 6 for random, 4 for straggler)",
    )
    train.add_argument(
        "--slowdown-prob", type=float, default=None,
        help="random slowdown probability per iteration (default: 1/n)",
    )
    train.add_argument(
        "--stragglers", type=_stragglers_arg, default=None,
        help="multi-straggler map 'wid:factor,wid:factor' "
             "(straggler slowdown only)",
    )
    train.add_argument(
        "--scenario", default=None,
        choices=tuple(registered_scenarios(include_aliases=True)),
        help="scenario family (see `python -m repro scenarios`); "
             "mutually exclusive with --slowdown",
    )
    train.add_argument(
        "--scenario-param", action="append", type=_scenario_param,
        metavar="KEY=VALUE",
        help="scenario knob (repeatable); values parse as JSON, e.g. "
             "--scenario-param worker=2 --scenario-param downtime_iters=6",
    )
    train.add_argument(
        "--group-size", type=int, default=4,
        help="partial-allreduce: workers per randomized group",
    )
    train.add_argument(
        "--static-groups", action="store_true",
        help="partial-allreduce: freeze the round-0 partition (ablation)",
    )
    train.add_argument(
        "--momentum-mode", default="tracking",
        choices=("tracking", "quasi-global"),
        help="momentum-tracking: buffer-gossip or quasi-global variant",
    )
    train.add_argument(
        "--compression", default=None,
        help="update compressor (see `python -m repro compressors`): "
             "topk, randomk, int8, or none (default)",
    )
    train.add_argument(
        "--compression-param", action="append", type=_compression_param,
        metavar="KEY=VALUE",
        help="compressor knob (repeatable); values parse as JSON, e.g. "
             "--compression topk --compression-param ratio=0.01",
    )
    train.add_argument("--seed", type=int, default=0)
    train.add_argument(
        "--shards", type=_shards_arg, default=None, metavar="N",
        help="partition the simulation across N shard processes "
             "(hop + timing-only scenarios; bit-identical to an "
             "un-sharded run; 0 = auto via REPRO_SHARDS, default 1)",
    )
    train.add_argument("--out", help="write a JSON run summary here")
    train.set_defaults(func=_cmd_train)

    profile = sub.add_parser(
        "profile",
        help="cProfile one training run and report simulator hot spots",
    )
    profile.add_argument("--workload", default="svm", choices=("cnn", "svm"))
    profile.add_argument("--preset", default="bench",
                         choices=("smoke", "bench", "paper"))
    profile.add_argument(
        "--protocol",
        default="hop",
        choices=tuple(registered_protocols(include_aliases=True)),
    )
    profile.add_argument("--graph", default="ring_based")
    profile.add_argument("--workers", type=int, default=64)
    profile.add_argument("--iterations", type=int, default=40)
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument(
        "--sort", default="cumulative",
        choices=("cumulative", "tottime", "ncalls"),
        help="pstats sort key for the hot-function table",
    )
    profile.add_argument(
        "--limit", type=int, default=25,
        help="rows in the hot-function table",
    )
    profile.add_argument(
        "--full-trace", action="store_true",
        help="record every tracer channel (default: LIGHT_TRACE, so "
             "profiling measures the configuration perf runs use)",
    )
    profile.add_argument(
        "--engine-only", action="store_true",
        help="skip the training run; only the bare-engine events/sec "
             "microbenchmark",
    )
    profile.add_argument(
        "--shards", type=_shards_arg, default=None, metavar="N",
        help="profile a sharded run (per-shard event counts and "
             "idle/sync-wait rows); with --engine-only, benchmark the "
             "sharded engine instead of the single-core loop",
    )
    profile.set_defaults(func=_cmd_profile)

    graphs = sub.add_parser("graphs", help="inspect a topology")
    graphs.add_argument("--graph", default="ring_based")
    graphs.add_argument("--workers", type=int, default=16)
    graphs.set_defaults(func=_cmd_graphs)

    protocols = sub.add_parser(
        "protocols", help="list the protocol registry"
    )
    protocols.add_argument(
        "--json", action="store_true",
        help="machine-readable output (name, aliases, summary, paper, "
             "elastic flag)",
    )
    protocols.set_defaults(func=_cmd_protocols)

    scenarios = sub.add_parser(
        "scenarios", help="list the scenario-family registry"
    )
    scenarios.add_argument(
        "--json", action="store_true",
        help="machine-readable output (name, aliases, summary, paper, "
             "universal flag)",
    )
    scenarios.set_defaults(func=_cmd_scenarios)

    compressors = sub.add_parser(
        "compressors", help="list the compression-scheme registry"
    )
    compressors.add_argument(
        "--json", action="store_true",
        help="machine-readable output (name, aliases, summary, paper)",
    )
    compressors.set_defaults(func=_cmd_compressors)

    lint = sub.add_parser(
        "lint",
        help="run the simulator-invariant static analysis "
             "(repro.analysis)",
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files/directories to lint (default: [tool.repro.lint] "
             "paths, i.e. src/repro)",
    )
    lint.add_argument(
        "--rules", default=None,
        help="comma-separated rule ids or group names (e.g. "
             "'determinism,perf-slots'); default: every registered rule",
    )
    lint.add_argument(
        "--json", action="store_true",
        help="machine-readable report (findings, baseline stats)",
    )
    lint.add_argument(
        "--baseline", default=None,
        help="baseline file overriding the configured one ('' disables)",
    )
    lint.add_argument(
        "--write-baseline", action="store_true",
        help="accept current findings: rewrite the baseline file",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules (with --json: full rationale rows)",
    )
    lint.set_defaults(func=_cmd_lint)

    serve = sub.add_parser(
        "serve",
        help="run the fault-tolerant experiment service (repro.service)",
    )
    serve.add_argument(
        "--state-dir", required=True,
        help="directory for the result cache and run journal",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8642,
        help="TCP port (0 = OS-assigned; the bound port is printed)",
    )
    serve.add_argument(
        "--pool-workers", type=int, default=2,
        help="process-pool size (= concurrent runs)",
    )
    serve.add_argument(
        "--run-timeout", type=float, default=120.0,
        help="per-run wall-clock budget before the attempt is killed",
    )
    serve.add_argument(
        "--attempts", type=int, default=3,
        help="attempts per cell (crash/timeout/failure retries)",
    )
    serve.add_argument(
        "--max-pending", type=int, default=64,
        help="admission bound; beyond it submits are shed with HTTP 429",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=60.0,
        help="SIGTERM grace period for in-flight sweeps",
    )
    serve.add_argument(
        "--inline", action="store_true",
        help="run cells in-process instead of a process pool (tests "
             "and fork-less sandboxes)",
    )
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit spec JSON to a running experiment service"
    )
    submit.add_argument(
        "specs", nargs="+",
        help="spec JSON file(s); each holds one spec object or an "
             "array of specs ('-' reads stdin)",
    )
    submit.add_argument(
        "--url", default="http://127.0.0.1:8642",
        help="service base URL",
    )
    submit.add_argument(
        "--sweep-id", default=None,
        help="explicit sweep id (default: server-assigned)",
    )
    submit.add_argument(
        "--timeout", type=float, default=30.0,
        help="per-request HTTP timeout (seconds)",
    )
    submit.add_argument(
        "--wait-timeout", type=float, default=600.0,
        help="how long to wait for the sweep to complete",
    )
    submit.add_argument(
        "--no-wait", action="store_true",
        help="admit the sweep and exit without waiting",
    )
    submit.add_argument(
        "--json", action="store_true",
        help="dump the final snapshot + results as JSON",
    )
    submit.set_defaults(func=_cmd_submit)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
