"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info``     — list compressors, dataset profiles, models, clusters.
* ``compress`` — compress one synthetic gradient with a chosen codec
  and print size/error statistics.
* ``train``    — run a distributed training experiment on the simulated
  cluster and print the per-epoch table (``--trace PATH`` records a
  flight-recorder trace; ``--elastic SCHED`` / ``--stale N`` run the
  elastic / bounded-staleness fleet path, see ``docs/fleet.md``).
* ``replay``   — fit a cost model from a recorded trace and simulate a
  scaled fleet (churn, diurnal load, correlated stragglers), emitting
  a synthetic trace and a fleet summary.
* ``trace``    — render a recorded trace: per-phase time tree,
  per-worker timeline, slowest-round drill-down, causal critical-path
  attribution (``--critical-path``; see ``docs/observability.md``).
* ``top``      — per-worker live-ops dashboard, from a running
  exporter (``--connect HOST:PORT``, started by ``train
  --metrics-port``) or offline from a recorded trace.
* ``compare``  — all registered codecs side by side on one gradient.
* ``report``   — stitch archived bench results into ``REPORT.md``.
* ``perf``     — time the codec hot-path kernels, write ``BENCH_codec.json``.
* ``datagen``  — write a synthetic dataset to a LIBSVM file.
* ``golden``   — check (or deliberately regenerate) the committed
  golden wire fixtures across every payload version (see
  ``docs/wire.md``).
* ``lint``     — run the repo-specific static analyser (see
  ``docs/static_analysis.md``); exits nonzero on findings.

Examples::

    python -m repro info
    python -m repro compress --method sketchml --nnz 50000
    python -m repro compare --nnz 20000
    python -m repro train --profile kdd12 --model lr --method SketchML \
        --workers 10 --epochs 3
    python -m repro train --backend mp --trace out.jsonl
    python -m repro train --backend mp --metrics-port 9100 --trace out.jsonl
    python -m repro train --backend mp --elastic sched.json --stale 2
    python -m repro top --connect 127.0.0.1:9100
    python -m repro top out.jsonl --once
    python -m repro trace out.jsonl --critical-path
    python -m repro replay out.jsonl --workers 1000 --stale 4 \
        --straggler-rate 0.02 --straggler-stall 0.5 --out synth.jsonl
    python -m repro trace out.jsonl --format json
    python -m repro datagen --profile kdd10 --scale 0.1 --out kdd10.libsvm
    python -m repro perf --quick
    python -m repro report
    python -m repro lint --format json
    python -m repro lint --deep --format sarif src/
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    from .runtime.transport import TRANSPORT_BACKENDS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="SketchML (SIGMOD 2018) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="list available components")

    compress = sub.add_parser("compress", help="compress one synthetic gradient")
    compress.add_argument("--method", default="sketchml",
                          help="registered compressor name (see `info`)")
    compress.add_argument("--nnz", type=int, default=50_000,
                          help="nonzero gradient entries")
    compress.add_argument("--dimension", type=int, default=1_000_000,
                          help="model dimensions")
    compress.add_argument("--scale", type=float, default=0.01,
                          help="Laplace scale of the gradient values")
    compress.add_argument("--seed", type=int, default=0)

    train = sub.add_parser("train", help="run a distributed experiment")
    train.add_argument("--profile", default="kdd12",
                       choices=["kdd10", "kdd12", "ctr", "kdd12-hothead"])
    train.add_argument("--model", default="lr",
                       choices=["lr", "svm", "linear", "fm"])
    train.add_argument("--method", default="SketchML",
                       help="Adam | ZipML | SketchML | Adam+Key | ... ")
    train.add_argument("--workers", type=int, default=10)
    train.add_argument("--epochs", type=int, default=3)
    train.add_argument("--batch-fraction", type=float, default=0.1)
    train.add_argument("--learning-rate", type=float, default=0.01)
    train.add_argument("--scale", type=float, default=1.0,
                       help="dataset size multiplier")
    train.add_argument("--cluster", default="cluster2",
                       choices=["cluster1", "cluster2"])
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--backend", default="sim",
                       choices=TRANSPORT_BACKENDS,
                       help="execution backend: simulated cluster (default), "
                            "real worker processes over pipes (mp), or "
                            "over host-local TCP sockets multiplexed on "
                            "one event loop (aio)")
    train.add_argument("--straggler-policy", default="fail_fast",
                       choices=["fail_fast", "drop"],
                       help="what to do when a worker is lost "
                            "(real backends only)")
    train.add_argument("--message-timeout", type=float, default=10.0,
                       help="seconds to wait for one worker reply attempt")
    train.add_argument("--max-retries", type=int, default=3,
                       help="re-send attempts per message after the first")
    train.add_argument("--fault-drop", type=float, default=0.0,
                       help="fault injection: P(drop a driver->worker frame)")
    train.add_argument("--fault-delay", type=float, default=0.0,
                       help="fault injection: P(delay a worker->driver frame)")
    train.add_argument("--fault-duplicate", type=float, default=0.0,
                       help="fault injection: P(duplicate a reply frame)")
    train.add_argument("--fault-corrupt", type=float, default=0.0,
                       help="fault injection: P(corrupt a reply payload)")
    train.add_argument("--fault-seed", type=int, default=0,
                       help="fault injection RNG seed")
    train.add_argument("--entropy-coding", action="store_true",
                       help="wire v2: dense radix-code bucket-index "
                            "streams in every shipped message (real "
                            "backends)")
    train.add_argument("--chunk-bytes", type=int, default=None, metavar="N",
                       help="wire v2: stream frames larger than N bytes as "
                            "chunks (default: runtime default; real "
                            "backends)")
    train.add_argument("--metrics-port", type=int, default=None, metavar="P",
                       help="serve the live ops plane on 127.0.0.1:P while "
                            "training: /metrics (Prometheus text), "
                            "/snapshot.json (for `repro top --connect`), "
                            "/healthz, /readyz; 0 picks a free port")
    train.add_argument("--trace", default=None, metavar="PATH",
                       help="record a repro-trace/1 flight-recorder file "
                            "(merged across worker processes); inspect it "
                            "with `python -m repro trace PATH`")
    train.add_argument("--elastic", default=None, metavar="SCHED",
                       help="elastic membership: a repro-fleet-schedule/1 "
                            "JSON file of seeded join/leave events (its "
                            "num_workers overrides --workers; see "
                            "docs/fleet.md)")
    train.add_argument("--stale", type=int, default=None, metavar="N",
                       help="bounded-staleness gather: a worker may run at "
                            "most N steps ahead of the slowest active "
                            "worker (SSP; N=0 is sync with per-worker "
                            "pacing)")

    compare = sub.add_parser(
        "compare", help="compare all codecs on one synthetic gradient"
    )
    compare.add_argument("--nnz", type=int, default=20_000)
    compare.add_argument("--dimension", type=int, default=500_000)
    compare.add_argument("--scale", type=float, default=0.01,
                         help="Laplace scale of the gradient values")
    compare.add_argument("--seed", type=int, default=0)

    report = sub.add_parser(
        "report", help="stitch archived bench results into REPORT.md"
    )
    report.add_argument("--results-dir", default=None,
                        help="default: benchmarks/results under the cwd")
    report.add_argument("--out", default=None,
                        help="default: benchmarks/REPORT.md")
    report.add_argument("--trace", default=None, metavar="FILE",
                        help="flight recording to append a per-epoch "
                             "critical-path section from")

    perf = sub.add_parser(
        "perf", help="time the codec hot-path kernels, write BENCH_codec.json"
    )
    perf.add_argument("--quick", action="store_true",
                      help="CI smoke mode: fewer sizes and repeats")
    perf.add_argument("--sizes", type=int, nargs="+", default=None,
                      help="override the nnz grid (default 5k/50k/200k)")
    perf.add_argument("--out", default=None,
                      help="output JSON path (default: BENCH_codec.json; "
                           "'-' to skip writing)")
    perf.add_argument("--metrics-overhead", action="store_true",
                      help="also guard the overhead budget with the "
                           "live-ops metrics hub installed")
    perf.add_argument("--transports", nargs="*", default=None,
                      choices=TRANSPORT_BACKENDS, metavar="BACKEND",
                      help="also time transport echo round-trips on these "
                           "backends (default: all; pass with no "
                           "values to skip)")
    perf.add_argument("--soak", action="store_true",
                      help="run the high-concurrency gather soak: a "
                           "simulated worker swarm with a straggler tail, "
                           "aio barrier vs overlapped gather at each "
                           "worker count")
    perf.add_argument("--soak-workers", type=int, nargs="+", default=None,
                      metavar="N",
                      help="soak worker-count grid "
                           "(default 8 64 500; --quick: 8 64)")
    perf.add_argument("--soak-rounds", type=int, default=None, metavar="R",
                      help="gather rounds per soak cell "
                           "(default 30; --quick: 10)")
    perf.add_argument("--trace", default=None, metavar="PATH",
                      help="record a repro-trace/1 file of the perf run "
                           "(soak gathers are spanned; inspect with "
                           "`python -m repro trace PATH`)")

    replay = sub.add_parser(
        "replay",
        help="replay a recorded trace as a scaled simulated fleet",
    )
    replay.add_argument("path", help="recorded repro-trace/1 file "
                                     "(train --trace PATH)")
    replay.add_argument("--workers", type=int, default=1000,
                        help="simulated fleet size (default: 1000)")
    replay.add_argument("--rounds", type=int, default=100,
                        help="simulated rounds (stale mode: steps per "
                             "worker; default: 100)")
    replay.add_argument("--seed", type=int, default=0)
    replay.add_argument("--stale", type=int, default=None, metavar="N",
                        help="simulate bounded-async gather with slack N "
                             "(default: synchronous rounds)")
    replay.add_argument("--gather", choices=["overlap", "barrier"],
                        default="overlap",
                        help="sync gather discipline: pipelined decode "
                             "(overlap, the aio behaviour) or wait-for-all "
                             "(barrier)")
    replay.add_argument("--diurnal-amplitude", type=float, default=0.0,
                        help="load swing A in 1 + A*sin(2*pi*r/period)")
    replay.add_argument("--diurnal-period", type=int, default=96,
                        help="rounds per diurnal cycle (default: 96)")
    replay.add_argument("--straggler-rate", type=float, default=0.0,
                        help="per-round P(a rack stalls)")
    replay.add_argument("--straggler-stall", type=float, default=0.0,
                        help="seconds added to every worker in a stalled "
                             "rack")
    replay.add_argument("--rack-size", type=int, default=16,
                        help="workers per correlated-failure rack")
    replay.add_argument("--churn-leave", type=float, default=0.0,
                        help="per-round P(an active worker leaves)")
    replay.add_argument("--churn-join", type=float, default=0.0,
                        help="per-round P(an inactive worker rejoins)")
    replay.add_argument("--min-active", type=int, default=1,
                        help="churn floor on active workers")
    replay.add_argument("--out", default=None, metavar="PATH",
                        help="write the synthetic repro-trace/1 here "
                             "(inspect with `python -m repro trace PATH`)")
    replay.add_argument("--results-dir", default=None,
                        help="also write fleet_replay.txt into this "
                             "directory for `repro report`")

    trace = sub.add_parser(
        "trace", help="inspect a recorded flight-recorder trace"
    )
    trace.add_argument("path", help="merged trace file (train --trace PATH)")
    trace.add_argument("--format", choices=["table", "json"], default="table",
                       help="human tables (default) or the JSON summary")
    trace.add_argument("--slowest", type=int, default=3, metavar="N",
                       help="rounds in the slowest-round drill-down")
    trace.add_argument("--validate", action="store_true",
                       help="schema-validate every event and exit "
                            "(nonzero on violations, including span "
                            "stacks left open by a truncated flight)")
    trace.add_argument("--critical-path", action="store_true",
                       help="attribute each round's wall time to codec / "
                            "compute / straggler-wait / wire via the "
                            "causal span DAG (needs a live-ops trace)")
    trace.add_argument("--per-round", action="store_true",
                       help="with --critical-path: one row per round, "
                            "not just per-epoch rollups")

    top = sub.add_parser(
        "top", help="per-worker live-ops dashboard"
    )
    top.add_argument("path", nargs="?", default=None,
                     help="recorded trace to fold offline (or use "
                          "--connect for a live run)")
    top.add_argument("--connect", default=None, metavar="HOST:PORT",
                     help="scrape /snapshot.json from a running "
                          "`train --metrics-port` exporter")
    top.add_argument("--once", action="store_true",
                     help="render one frame and exit (CI / piping)")
    top.add_argument("--interval", type=float, default=2.0, metavar="SEC",
                     help="refresh period for live mode (default: 2.0)")

    datagen = sub.add_parser("datagen", help="write a synthetic dataset")
    datagen.add_argument("--profile", default="kdd10",
                         choices=["kdd10", "kdd12", "ctr", "kdd12-hothead"])
    datagen.add_argument("--scale", type=float, default=1.0)
    datagen.add_argument("--seed", type=int, default=0)
    datagen.add_argument("--out", required=True, help="output LIBSVM path")

    golden = sub.add_parser(
        "golden",
        help="check or regenerate the golden wire fixtures",
    )
    golden_mode = golden.add_mutually_exclusive_group()
    golden_mode.add_argument(
        "--check", action="store_true",
        help="verify every payload-version cell against the "
             "committed fixtures (default); exits nonzero on any drift")
    golden_mode.add_argument(
        "--write", action="store_true",
        help="regenerate the fixture files and manifest (the only "
             "sanctioned way to change them)")
    golden.add_argument("--dir", default=None, metavar="PATH",
                        help="fixture directory "
                             "(default: tests/golden/wire)")

    lint = sub.add_parser(
        "lint", help="run the repo-specific static analyser"
    )
    lint.add_argument("paths", nargs="*",
                      help="files or directories to lint "
                           "(default: the installed repro package)")
    lint.add_argument("--format", choices=["text", "json", "sarif"],
                      default="text",
                      help="findings output format (default: text)")
    lint.add_argument("--select", default=None,
                      help="comma-separated rule ids to run (default: all)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the registered rules and exit")
    lint.add_argument("--deep", action="store_true",
                      help="also run the call-graph checks (reachability, "
                           "seed-flow, lock-order)")
    return parser


def _cmd_info() -> int:
    from .bench.runner import METHOD_LABELS
    from .compression import available_compressors

    print("registered compressors :", ", ".join(available_compressors()))
    print("paper methods          :", ", ".join(METHOD_LABELS),
          "(plus ablations Adam+Key, Adam+Key+Quan, ...)")
    print("dataset profiles       : kdd10, kdd12, ctr, kdd12-hothead")
    print("models                 : lr, svm, linear, fm (sparse); mlp (dense)")
    print("cluster presets        : cluster1 (lab LAN), cluster2 (congested)")
    return 0


def _cmd_compress(args: argparse.Namespace) -> int:
    from .compression import make_compressor

    rng = np.random.default_rng(args.seed)
    if args.nnz <= 0 or args.dimension < args.nnz:
        print("error: need 0 < nnz <= dimension", file=sys.stderr)
        return 2
    keys = np.sort(rng.choice(args.dimension, size=args.nnz, replace=False))
    values = rng.laplace(scale=args.scale, size=args.nnz)
    values[values == 0.0] = args.scale / 100

    try:
        compressor = make_compressor(args.method)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_keys, out_values, message = compressor.roundtrip(
        keys, values, args.dimension
    )
    print(f"method            : {args.method}")
    print(f"raw size          : {message.raw_bytes:,} bytes")
    print(f"compressed size   : {message.num_bytes:,} bytes")
    print(f"compression rate  : {message.compression_rate:.2f}x")
    print(f"keys lossless     : {np.array_equal(out_keys, keys)}")
    if out_values.size == values.size:
        print(f"value MAE         : {np.mean(np.abs(out_values - values)):.6f}")
        same_sign = np.all(np.sign(out_values) * np.sign(values) >= 0)
        print(f"signs preserved   : {bool(same_sign)}")
    if message.breakdown:
        print(f"byte breakdown    : {dict(sorted(message.breakdown.items()))}")
    return 0


def _trace_run_id(args: argparse.Namespace) -> str:
    """Deterministic run id: same invocation, same trace identity."""
    return (
        f"{args.profile}-{args.method}-{args.model}"
        f"-w{args.workers}-s{args.seed}-{args.backend}"
    )


def _cmd_train(args: argparse.Namespace) -> int:
    from . import telemetry
    from .bench import ExperimentSpec, format_table, run_experiment

    tracing = bool(getattr(args, "trace", None))
    if tracing:
        try:
            telemetry.start_run(args.trace, run_id=_trace_run_id(args))
        except (OSError, RuntimeError) as exc:
            print(f"error: cannot start trace: {exc}", file=sys.stderr)
            return 2
    exporter = None
    if args.metrics_port is not None:
        from .telemetry.export import MetricsExporter
        from .telemetry.metrics import MetricsHub

        hub = MetricsHub()
        try:
            exporter = MetricsExporter(hub, port=args.metrics_port).start()
        except OSError as exc:
            if tracing and telemetry.active_session() is not None:
                telemetry.finish_run()
            print(f"error: cannot serve metrics: {exc}", file=sys.stderr)
            return 2
        telemetry.set_metrics_hub(hub)
        print(f"live ops plane at {exporter.url} "
              f"(`python -m repro top --connect "
              f"127.0.0.1:{exporter.port}`)")
    try:
        spec = ExperimentSpec(
            profile=args.profile,
            model=args.model,
            method=args.method,
            num_workers=args.workers,
            epochs=args.epochs,
            batch_fraction=args.batch_fraction,
            learning_rate=args.learning_rate,
            scale=args.scale,
            seed=args.seed,
            cluster=args.cluster,
            backend=args.backend,
            straggler_policy=args.straggler_policy,
            message_timeout=args.message_timeout,
            max_retries=args.max_retries,
            fault_drop_rate=args.fault_drop,
            fault_delay_rate=args.fault_delay,
            fault_duplicate_rate=args.fault_duplicate,
            fault_corrupt_rate=args.fault_corrupt,
            fault_seed=args.fault_seed,
            elastic_schedule=args.elastic,
            staleness=args.stale,
            entropy_coding=args.entropy_coding,
            chunk_bytes=args.chunk_bytes,
        )
        history = run_experiment(spec, use_cache=False)
    except OSError as exc:
        print(f"error: cannot load schedule: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if tracing and telemetry.active_session() is not None:
            telemetry.finish_run()
        if exporter is not None:
            telemetry.set_metrics_hub(None)
            exporter.close()
    rows = [
        [
            e.epoch,
            round(e.epoch_seconds, 2),
            round(e.compute_seconds, 2),
            round(e.network_seconds, 2),
            round(e.avg_message_bytes / 1024, 1),
            round(e.compression_rate, 2),
            round(e.train_loss, 5),
            round(e.test_loss, 5) if e.test_loss is not None else "-",
        ]
        for e in history.epochs
    ]
    print(
        format_table(
            ["epoch", "sec", "compute", "network", "msg KiB", "rate",
             "train loss", "test loss"],
            rows,
            title=(
                f"{args.method} / {args.model} / {args.profile} "
                f"({history.num_workers} workers, {args.cluster}, "
                f"backend={args.backend}"
                + (", elastic" if args.elastic else "")
                + (f", stale={args.stale}" if args.stale is not None else "")
                + ")"
            ),
        )
    )
    dropped = history.epochs[-1].dropped_workers if history.epochs else {}
    if dropped:
        for worker_id, reason in sorted(dropped.items()):
            print(f"dropped worker {worker_id}: {reason}")
    if tracing:
        print(f"trace written to {args.trace} "
              f"(inspect with `python -m repro trace {args.trace}`)")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from .fleet import FleetScenario, ReplayError, run_replay

    try:
        scenario = FleetScenario(
            workers=args.workers,
            rounds=args.rounds,
            seed=args.seed,
            staleness=args.stale,
            gather=args.gather,
            diurnal_amplitude=args.diurnal_amplitude,
            diurnal_period=args.diurnal_period,
            straggler_rate=args.straggler_rate,
            straggler_stall=args.straggler_stall,
            rack_size=args.rack_size,
            churn_leave_prob=args.churn_leave,
            churn_join_prob=args.churn_join,
            min_active=args.min_active,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        outcome = run_replay(
            args.path,
            scenario,
            out_path=args.out,
            results_dir=args.results_dir,
        )
    except (ReplayError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(outcome["summary"], end="")
    stats = outcome["trace_stats"]
    print(
        f"\nsynthetic trace: {stats['events']} schema-valid events"
        + (f", written to {args.out}" if args.out else "")
    )
    if args.results_dir:
        print(f"summary written to {args.results_dir}/fleet_replay.txt")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from .telemetry.merge import read_trace
    from .telemetry.schema import TraceSchemaError, validate_trace
    from .telemetry.summary import render_summary, summarize

    try:
        events = read_trace(args.path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.validate:
        try:
            info = validate_trace(events)
        except TraceSchemaError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(
            f"OK: {info['events']} events from {info['processes']} "
            f"process(es): "
            + ", ".join(f"{k}={v}" for k, v in sorted(info["types"].items()))
        )
        return 0
    if args.critical_path:
        from .telemetry.critical_path import critical_path, render_report

        try:
            report = critical_path(events)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.format == "json":
            print(json.dumps(
                {
                    "rounds": [
                        {
                            "round": r.round,
                            "epoch": r.epoch,
                            "dur": r.dur,
                            "workers": r.workers,
                            "buckets": r.buckets,
                            "coverage": r.coverage,
                        }
                        for r in report.rounds
                    ],
                    "totals": report.totals(),
                },
                indent=2,
            ))
        else:
            print(render_report(report, per_round=args.per_round))
        return 0
    if args.format == "json":
        print(json.dumps(summarize(events, slowest=args.slowest), indent=2))
    else:
        print(render_summary(events, slowest=args.slowest))
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import json
    import time

    from .telemetry.top import render_top, snapshot_from_trace

    if (args.path is None) == (args.connect is None):
        print("error: pass a trace path or --connect HOST:PORT (not both)",
              file=sys.stderr)
        return 2
    if args.path is not None:
        from .telemetry.merge import read_trace

        try:
            events = read_trace(args.path)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        snapshot = snapshot_from_trace(events)
        # A recorded trace is a finished run: freshness ages are noise.
        print(render_top(snapshot, now=0.0))
        return 0

    from urllib.error import URLError
    from urllib.request import urlopen

    url = f"http://{args.connect}/snapshot.json"
    while True:
        try:
            with urlopen(url, timeout=5.0) as resp:
                snapshot = json.loads(resp.read().decode("utf-8"))
        except (URLError, OSError, ValueError) as exc:
            print(f"error: cannot scrape {url}: {exc}", file=sys.stderr)
            return 2
        frame = render_top(snapshot)
        if args.once:
            print(frame)
            return 0
        # Clear + home between frames; plain ANSI keeps this stdlib-only.
        sys.stdout.write("\x1b[2J\x1b[H" + frame + "\n")
        sys.stdout.flush()
        try:
            time.sleep(max(0.1, args.interval))
        except KeyboardInterrupt:
            return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .analysis import compare_compressors, format_report, profile_gradient

    rng = np.random.default_rng(args.seed)
    if args.nnz <= 0 or args.dimension < args.nnz:
        print("error: need 0 < nnz <= dimension", file=sys.stderr)
        return 2
    keys = np.sort(rng.choice(args.dimension, size=args.nnz, replace=False))
    values = rng.laplace(scale=args.scale, size=args.nnz)
    values[values == 0.0] = args.scale / 100
    profile = profile_gradient(keys, values, args.dimension)
    print(
        f"gradient: d={profile.nnz:,}, D={profile.dimension:,}, "
        f"density={profile.density:.4%}, near-zero={profile.near_zero_fraction:.0%}, "
        f"KS-nonuniformity={profile.uniformity_ks:.2f}"
    )
    print(f"SketchML-friendly: {profile.is_sketchml_friendly}\n")
    print(format_report(compare_compressors(keys, values, args.dimension)))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import os

    from .bench.report import write_report

    results_dir = args.results_dir or os.path.join("benchmarks", "results")
    if not os.path.isdir(results_dir):
        print(f"error: no results directory at {results_dir} "
              "(run `pytest benchmarks/ --benchmark-only` first)",
              file=sys.stderr)
        return 2
    out_path, missing = write_report(results_dir, args.out, trace=args.trace)
    print(f"wrote {out_path}")
    if missing:
        print(f"note: {len(missing)} expected sections had no archived "
              f"result yet: {', '.join(missing)}")
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    from . import telemetry
    from .perf import BENCH_FILENAME, run_suite, write_results

    if args.sizes is not None and any(nnz <= 0 for nnz in args.sizes):
        print("error: --sizes values must be positive", file=sys.stderr)
        return 2
    tracing = bool(getattr(args, "trace", None))
    if tracing:
        try:
            telemetry.start_run(args.trace, run_id="perf-soak")
        except (OSError, RuntimeError) as exc:
            print(f"error: cannot start trace: {exc}", file=sys.stderr)
            return 2
    try:
        return _run_perf(args)
    finally:
        if tracing and telemetry.active_session() is not None:
            path = telemetry.finish_run()
            if path:
                print(f"trace written to {path}")


def _run_perf(args: argparse.Namespace) -> int:
    from .perf import BENCH_FILENAME, run_suite, write_results

    results = run_suite(sizes=args.sizes, quick=args.quick)
    from .perf.wire_bench import run_wire_bench

    wire_results, wire_section = run_wire_bench(
        sizes=args.sizes, quick=args.quick
    )
    results.extend(wire_results)
    from .perf.transport_bench import run_transport_bench
    from .runtime.transport import TRANSPORT_BACKENDS

    transports = args.transports
    if transports is None:
        transports = ["sim"] if args.quick else list(TRANSPORT_BACKENDS)
    if transports:
        results.extend(
            run_transport_bench(
                transports, repeats=2 if args.quick else 3
            )
        )
    if args.soak:
        from .perf.soak_bench import run_soak_bench

        worker_counts = args.soak_workers or (
            [8, 64] if args.quick else [8, 64, 500]
        )
        rounds = args.soak_rounds or (10 if args.quick else 30)
        results.extend(
            run_soak_bench(worker_counts=worker_counts, rounds=rounds)
        )
    name_w = max(len(r.name) for r in results)
    print(f"{'kernel':<{name_w}}  {'median ms':>10}  {'ns/elem':>9}  {'MB/s':>9}")
    for r in results:
        print(
            f"{r.name:<{name_w}}  {r.seconds * 1e3:>10.3f}  "
            f"{r.ns_per_element:>9.1f}  {r.mb_per_s:>9.1f}"
        )
    for nnz, row in wire_section["sizes"].items():
        print(
            f"wire v2 entropy @nnz={nnz}: {row['v2_bytes']} bytes "
            f"(coded {row['entropy']['coded_bytes']} of "
            f"{row['entropy']['plain_bytes']} plain index bytes); "
            f"sketch: {row['sketch']['v2_bytes']} bytes"
        )
    out = args.out or BENCH_FILENAME
    if out != "-":
        try:
            write_results(results, out, extra={"wire": wire_section})
        except OSError as exc:
            print(f"error: cannot write {out}: {exc}", file=sys.stderr)
            return 2
        print(f"\nwrote {out}")
    from .perf import measure_overhead

    modes = [False] + ([True] if args.metrics_overhead else [])
    for with_hub in modes:
        report = measure_overhead(
            nnz=5_000 if args.quick else 50_000,
            repeats=3 if args.quick else 5,
            metrics_hub=with_hub,
        )
        print(report.describe())
        if not report.within_budget:
            which = "metrics-hub" if with_hub else "disabled-path"
            print(f"error: telemetry {which} overhead exceeds budget",
                  file=sys.stderr)
            return 1
    return 0


def _cmd_datagen(args: argparse.Namespace) -> int:
    from .data import generate_profile, write_libsvm

    dataset = generate_profile(args.profile, seed=args.seed, scale=args.scale)
    write_libsvm(dataset, args.out)
    print(
        f"wrote {dataset.num_rows:,} rows x {dataset.num_features:,} features "
        f"({dataset.nnz:,} nonzeros) to {args.out}"
    )
    return 0


def _cmd_golden(args: argparse.Namespace) -> int:
    from .golden import check_goldens, default_wire_dir, write_goldens

    wire_dir = args.dir or default_wire_dir()
    if args.write:
        try:
            manifest = write_goldens(wire_dir)
        except (OSError, RuntimeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(
            f"wrote {len(manifest['cases'])} cases "
            f"(v2 fixtures; the v1 files stay frozen) and manifest.json "
            f"to {wire_dir}"
        )
        return 0
    problems = check_goldens(wire_dir)
    if problems:
        for problem in problems:
            print(f"drift: {problem}", file=sys.stderr)
        print(
            f"error: {len(problems)} golden wire problem(s) — the wire "
            "format changed; bump the payload version and regenerate "
            "deliberately with `repro golden --write`",
            file=sys.stderr,
        )
        return 1
    print(f"OK: golden wire fixtures in {wire_dir} are exactly as pinned")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json
    import os

    from .lint import LintError, lint_tree, rule_descriptions
    from .lint.policy import verify_policy

    if args.list_rules:
        for rule_id, severity, description in rule_descriptions():
            print(f"{rule_id:<22} {severity:<8} {description}")
        return 0
    missing = verify_policy()
    if missing:
        print(
            "error: lint policy names missing modules (renamed without "
            "updating lint/policy.py?): " + ", ".join(missing),
            file=sys.stderr,
        )
        return 2
    paths = args.paths or [os.path.dirname(os.path.abspath(__file__))]
    select = None
    if args.select:
        select = [r.strip() for r in args.select.split(",") if r.strip()]
    try:
        findings, project = lint_tree(paths, select=select, deep=args.deep)
    except (LintError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps([f.to_dict() for f in findings], indent=2))
    elif args.format == "sarif":
        from .lint.sarif import render_sarif

        print(render_sarif(findings, rule_descriptions()))
    else:
        for f in findings:
            print(f"{f.location}: {f.severity}[{f.rule_id}] {f.message}")
        noun = "finding" if len(findings) == 1 else "findings"
        print(f"{len(findings)} {noun}")
    if project is not None:
        print(f"deep: {project.coverage()}", file=sys.stderr)
    return 1 if findings else 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "info":
        return _cmd_info()
    if args.command == "compress":
        return _cmd_compress(args)
    if args.command == "train":
        return _cmd_train(args)
    if args.command == "replay":
        return _cmd_replay(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "top":
        return _cmd_top(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "perf":
        return _cmd_perf(args)
    if args.command == "datagen":
        return _cmd_datagen(args)
    if args.command == "golden":
        return _cmd_golden(args)
    if args.command == "lint":
        return _cmd_lint(args)
    raise AssertionError(f"unhandled command {args.command!r}")
