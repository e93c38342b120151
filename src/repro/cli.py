"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``figures``  — reproduce paper figures/tables and print the renders.
* ``ablations`` — run the ablation studies.
* ``train``    — one training run with any registered protocol.
* ``graphs``   — inspect a topology (spectral gap, diameter, degrees).
* ``protocols`` / ``scenarios`` / ``compressors`` — list a registry
  with citations (``--json`` for machine-readable rows, incl. the
  ``elastic`` / ``universal`` flags).
* ``profile``  — cProfile one training run (plus a per-layer table of
  one model step and a bare-engine events/sec microbenchmark) to find
  simulator hot spots.
* ``lint``     — static analysis for simulator invariants
  (determinism, zero-copy aliasing, DES perf, registry contracts);
  see :mod:`repro.analysis`.  Exit 1 on findings.
* ``serve``    — the fault-tolerant experiment service: accepts run
  specs as JSON over HTTP, schedules runs across a process pool, and
  content-addresses results on disk (see :mod:`repro.service`).
  Survives worker crashes and ``kill -9``.
* ``submit``   — client for ``serve``: post spec JSON file(s), wait
  for the sweep, and print per-cell results.

Every name flag (``--protocol``, ``--scenario``, ``--graph``,
``--workload``, ``--compression``, ``--preset``, ``--momentum-mode``)
takes its choices from the registry or constant that owns the names
(:mod:`repro.registry`), so the CLI never re-lists them.  ``train``
and ``profile`` turn their flags into the flat run description that
``serve`` accepts and build the run through the one spec codec,
:mod:`repro.harness.specio`, which does every check.  The paper's
two heterogeneity recipes are scenario families: ``--scenario random``
(6x at p = 1/n; ``--scenario-param factor=F --scenario-param
probability=P``) and ``--scenario straggler`` (worker 0 at 4x;
``--scenario-param 'workers={"0": 4, "3": 2.5}'``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.baselines.adpsgd import MOMENTUM_MODES
from repro.compression import COMPRESSORS, compression_table
from repro.graphs import TOPOLOGIES, TopologyError, spectral_gap
from repro.graphs import by_name as graph_by_name
from repro.harness import ALL_FIGURES
from repro.harness.ablations import ALL_ABLATIONS
from repro.harness.parallel import set_default_jobs
from repro.harness.spec import run_spec
from repro.harness.specio import SpecError, spec_from_dict
from repro.harness.workloads import PRESETS, WORKLOADS
from repro.protocols import PROTOCOLS, protocol_table
from repro.scenarios import SCENARIOS, scenario_table


def _jobs_arg(value: str) -> int:
    jobs = int(value)
    if jobs < 0:
        raise argparse.ArgumentTypeError(f"jobs must be >= 0, got {jobs}")
    return jobs


def _cmd_studies(args: argparse.Namespace) -> int:
    """``figures`` / ``ablations``: run, render and shape-check each."""
    studies, noun = args.studies, args.noun
    set_default_jobs(args.jobs)
    names = args.only or sorted(studies)
    failed = []
    for name in names:
        if name not in studies:
            print(f"unknown {noun} {name!r}; choose from {sorted(studies)}")
            return 2
        result = studies[name](args.preset)
        print(result.render())
        print()
        if getattr(args, "json_dir", None):
            from repro.harness.io import save_figure

            save_figure(result, f"{args.json_dir}/{name}.json")
        if not result.passed():
            failed.append(name)
    if failed:
        print(f"shape checks FAILED for: {failed}")
        return 1
    print(f"all shape checks passed ({len(names)} {noun}(s))")
    return 0


#: Python spellings of JSON literals — `resync=False` must mean false,
#: not the truthy string "False".
_PYTHON_LITERALS = {"True": True, "False": False, "None": None}


def _param(pair: str):
    """Parse one ``key=value`` knob; values are JSON when they parse."""
    key, separator, raw = pair.partition("=")
    if not separator or not key:
        raise argparse.ArgumentTypeError(f"needs key=value, got {pair!r}")
    if raw in _PYTHON_LITERALS:
        return key, _PYTHON_LITERALS[raw]
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings (e.g. a trace path) pass through
    return key, value


def _cell_payload(args: argparse.Namespace) -> dict:
    """The flags naming one cell as spec-codec fields."""
    return {
        "workload": args.workload,
        "preset": args.preset,
        "protocol": args.protocol,
        "graph": args.graph,
        "workers": args.workers,
        "max_iter": args.iterations,
        "seed": args.seed,
    }


def _train_payload(args: argparse.Namespace) -> dict:
    """``repro train``'s flags as a spec-codec dict; the codec checks."""
    config = {"mode": args.mode, "max_ig": args.max_ig}
    if args.mode == "backup":
        config["n_backup"] = args.n_backup
    if args.mode == "staleness":
        config["staleness"] = args.staleness
    if args.skip:
        config["skip"] = {
            "max_skip": args.max_skip,
            "trigger_lag": args.trigger_lag,
        }
    return {
        **_cell_payload(args),
        "name": "cli",
        "config": config,
        "scenario": {
            "family": args.scenario or "none",
            "params": dict(args.scenario_param or []),
        },
        "compression": {
            "scheme": args.compression or "none",
            "params": dict(args.compression_param or []),
        },
        "ps_staleness": args.staleness if args.protocol == "ps-ssp" else 0,
        "group_size": args.group_size,
        "static_groups": args.static_groups,
        "momentum_mode": args.momentum_mode,
    }


def _spec(payload: dict):
    """``spec_from_dict(payload)``; a rejected spec is a one-line error."""
    try:
        return spec_from_dict(payload)
    except SpecError as error:
        raise SystemExit(f"error: {error}")


def _cmd_train(args: argparse.Namespace) -> int:
    spec, canonical, digest = _spec(_train_payload(args))
    try:
        run = run_spec(spec)
    except ValueError as error:
        # Foreseeable spec mistakes (hop-only crash family on another
        # protocol, out-of-range crash worker, bad scenario knobs)
        # surface as one-line errors like every other flag misuse.
        raise SystemExit(f"error: {error}")
    print(run.summary())
    if args.out:
        from repro.harness.io import atomic_write_json, run_to_dict

        # The canonical spec and its `repro serve` cache address.
        path = atomic_write_json(
            args.out,
            {**run_to_dict(run), "spec": canonical, "spec_hash": digest},
        )
        print(f"run summary written to {path}")
    return 0


#: The registry listings: command -> (table, heading, help, --json
#: columns, the marker a row earns).
_LISTINGS = {
    "protocols": (
        protocol_table,
        "protocols",
        "list the protocol registry",
        "name, aliases, summary, paper, elastic flag",
        lambda row: "  [elastic: survives membership churn]"
        if row["elastic"]
        else "",
    ),
    "scenarios": (
        scenario_table,
        "scenario families",
        "list the scenario-family registry",
        "name, aliases, summary, paper, universal flag",
        lambda row: ""
        if row["universal"]
        else "  [not universal: excluded from the conformance matrix]",
    ),
    "compressors": (
        compression_table,
        "compression schemes",
        "list the compression-scheme registry",
        "name, aliases, summary, paper",
        lambda row: "",
    ),
}


def _cmd_listing(args: argparse.Namespace) -> int:
    table, heading, _, _, marker = _LISTINGS[args.command]
    rows = table()
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    print(f"registered {heading}:")
    for row in rows:
        name = row["name"]
        if row["aliases"]:
            name += f" (alias: {row['aliases']})"
        print(f"* {name}{marker(row)}")
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
        sim_core_events_per_sec,
    )
    from repro.protocols.base import LIGHT_TRACE

    if args.engine_only:
        rate = sim_core_events_per_sec()
        print(f"sim-core microbenchmark: {rate:,.0f} events/sec")
        return 0

    spec = _spec(_cell_payload(args))[0].with_(
        name="profile", trace_channels=LIGHT_TRACE
    )
    workload = spec.workload
    print(
        f"profiling {args.protocol} x {args.workers} workers x "
        f"{args.iterations} iterations ({args.workload}/{args.preset})..."
    )
    try:
        report = profile_spec(spec, sort=args.sort, limit=args.limit)
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
    print(report.render_compute())
    print()
    rate = sim_core_events_per_sec()
    print(f"sim-core microbenchmark: {rate:,.0f} events/sec")
    return 0


def _cmd_graphs(args: argparse.Namespace) -> int:
    try:
        topology = graph_by_name(args.graph, args.workers)
    except TopologyError as error:
        raise SystemExit(f"error: {error}")
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


def _add_cell_arguments(
    parser: argparse.ArgumentParser,
    preset: str,
    workers: int,
    iterations: int,
    **protocol_help: str,
) -> None:
    """The flags naming one cell: workload, protocol, topology, size."""
    parser.add_argument("--workload", default="svm", choices=WORKLOADS.names())
    parser.add_argument("--preset", default=preset, choices=PRESETS)
    parser.add_argument(
        "--protocol",
        default="hop",
        choices=PROTOCOLS.names(include_aliases=True),
        **protocol_help,
    )
    parser.add_argument(
        "--graph",
        default="ring_based",
        choices=TOPOLOGIES.names(include_aliases=True),
    )
    parser.add_argument("--workers", type=int, default=workers)
    parser.add_argument("--iterations", type=int, default=iterations)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hop (ASPLOS 2019) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figures = sub.add_parser("figures", help="reproduce paper figures")
    figures.add_argument("--preset", default="smoke", choices=PRESETS)
    figures.add_argument("--only", nargs="*", help="figure ids (e.g. fig16)")
    figures.add_argument("--json-dir", help="also dump JSON artifacts here")
    figures.add_argument(
        "--jobs", type=_jobs_arg, default=None,
        help="worker processes for a figure's independent series "
             "(default: REPRO_JOBS env var, then CPU count; 1 = sequential)",
    )
    figures.set_defaults(func=_cmd_studies, studies=ALL_FIGURES, noun="figure")

    ablations = sub.add_parser("ablations", help="run ablation studies")
    ablations.add_argument("--preset", default="smoke", choices=PRESETS)
    ablations.add_argument("--only", nargs="*")
    ablations.add_argument(
        "--jobs", type=_jobs_arg, default=None,
        help="worker processes for an ablation's independent series "
             "(default: REPRO_JOBS env var, then CPU count; 1 = sequential)",
    )
    ablations.set_defaults(
        func=_cmd_studies, studies=ALL_ABLATIONS, noun="ablation"
    )

    train = sub.add_parser("train", help="run one training configuration")
    _add_cell_arguments(
        train, "smoke", workers=8, iterations=30,
        help="any protocol in the registry (see `python -m repro protocols`)",
    )
    train.add_argument("--mode", default="standard",
                       choices=("standard", "backup", "staleness"))
    train.add_argument("--n-backup", type=int, default=1)
    train.add_argument("--staleness", type=int, default=5)
    train.add_argument("--max-ig", type=int, default=4)
    train.add_argument("--skip", action="store_true")
    train.add_argument("--max-skip", type=int, default=10)
    train.add_argument("--trigger-lag", type=int, default=2)
    train.add_argument(
        "--scenario", default=None,
        choices=SCENARIOS.names(include_aliases=True),
        help="scenario family (see `python -m repro scenarios`), e.g. "
             "random (6x at p=1/n) or straggler (worker 0 at 4x)",
    )
    train.add_argument(
        "--scenario-param", action="append", type=_param,
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
        "--momentum-mode", default="tracking", choices=MOMENTUM_MODES,
        help="momentum-tracking: buffer-gossip or quasi-global variant",
    )
    train.add_argument(
        "--compression", default=None,
        choices=sorted(COMPRESSORS.names(include_aliases=True) + ["none"]),
        help="update compressor (see `python -m repro compressors`): "
             "topk, randomk, int8, or none (default)",
    )
    train.add_argument(
        "--compression-param", action="append", type=_param,
        metavar="KEY=VALUE",
        help="compressor knob (repeatable); values parse as JSON, e.g. "
             "--compression topk --compression-param ratio=0.01",
    )
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--out", help="write a JSON run summary here")
    train.set_defaults(func=_cmd_train)

    profile = sub.add_parser(
        "profile",
        help="cProfile one training run and report simulator hot spots",
    )
    _add_cell_arguments(profile, "bench", workers=64, iterations=40)
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
        "--engine-only", action="store_true",
        help="skip the training run; only the bare-engine events/sec "
             "microbenchmark",
    )
    profile.set_defaults(func=_cmd_profile)

    graphs = sub.add_parser("graphs", help="inspect a topology")
    graphs.add_argument(
        "--graph",
        default="ring_based",
        choices=TOPOLOGIES.names(include_aliases=True),
    )
    graphs.add_argument("--workers", type=int, default=16)
    graphs.set_defaults(func=_cmd_graphs)

    for command, (_, _, help_text, columns, _) in _LISTINGS.items():
        listing = sub.add_parser(command, help=help_text)
        listing.add_argument(
            "--json", action="store_true",
            help=f"machine-readable output ({columns})",
        )
        listing.set_defaults(func=_cmd_listing)

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
