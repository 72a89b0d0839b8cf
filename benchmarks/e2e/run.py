"""Outside-in benchmark: real-backend training runs, per-layer spans.

One run (what ``BENCHMARK.json``'s command is invoked with)::

    python3 benchmarks/e2e/run.py --workload small_mp --seed 0 \
        --seconds 10 --trace 0

builds the workload from the seed, times one ``train()`` through the
public trainer entry point, checks the outputs and prints one JSON
object as the last line of stdout.  ``--trace 1`` is the separate
traced run that yields the per-layer numbers.

Without ``--workload`` the same file runs every workload (``R`` untraced
runs + 1 traced, each in a fresh subprocess), prints every metric with
its unit and sample count, cross-checks the repeats and writes a
ledger; ``--quick`` is the smoke-sized version of that, and
``--compare A.json B.json`` sets two ledgers side by side.

The mp/aio workers are spawned and re-import this file as their main
module, so nothing here runs at import time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")

#: BLAS threads spin-wait on the 2 cores the workers need: unpinned,
#: identical runs differ by tens of percent.  Set before numpy loads;
#: spawned workers inherit the environment.
PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SETUP_REPEATS = 7
RUN_TIMEOUT_S = 170
DEFAULT_SECONDS = 10


def _pin_environment() -> None:
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS pins were set")
    os.environ.update(PINS)
    src = os.path.join(REPO, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"no program to measure: {src}/repro is missing")
    sys.path.insert(0, src)


def _environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "pins": PINS,
    }


def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", REPO, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def _cpu_seconds() -> float:
    """User+sys CPU so far of this process plus its reaped children
    (``os.times()`` at microsecond instead of clock-tick resolution)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + reaped) / 1024.0  # Linux reports KiB


def _stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    The clusters join their workers on ``close()``, but the ``spawn``
    start method also launches multiprocessing's resource tracker, which
    only ends some time after this process has: left alone, it is still
    running when the command returns.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for proc in multiprocessing.active_children():
        proc.join(timeout=2.0)
        if proc.is_alive():
            proc.kill()
            proc.join()
    tracker = resource_tracker._resource_tracker
    fd, pid = tracker._fd, tracker._pid
    if fd is None:
        return  # no worker was spawned (the sim backend)
    # Closing the tracker's pipe is what ends it; every worker that held
    # a copy has been waited for above.
    tracker._fd = tracker._pid = None
    os.close(fd)
    if pid is not None:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass


def run_one(name: str, seed: int, epochs: int, trace: bool,
            setup_repeats: int) -> dict:
    """Set up, train once, check, measure → ``{result, detail}``."""
    import numpy as np

    import workloads
    from metrics import END_TO_END, PER_LAYER, median
    from spans import ROOT, SpanRecorder, capture_supervision, tracing

    workload = workloads.by_name(name)
    setups: List[Dict[str, float]] = []
    setup = None
    for repeat in range(setup_repeats):
        setup = None  # drop the previous copy before building the next
        warm_up = repeat == 0 and setup_repeats > 1
        setup = workloads.build(workload, seed, 1 if warm_up else epochs)
        setups.append(setup.seconds)
        if warm_up:
            # One untimed epoch: lazy imports, the page cache the
            # spawned workers import from and the allocator's arenas
            # are warm before the measured train().
            setup.trainer.train(setup.train, setup.test)
    setup_seconds = {
        key: median(s[key] for s in setups) for key in setups[0]
    }
    scheduled = workloads.scheduled_rounds(setup)
    trainer, model = setup.trainer, setup.model

    supervision: Dict[str, int] = {}
    rec = SpanRecorder(f"{name}-s{seed}") if trace else None
    error: Optional[str] = None
    history = None
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    try:
        with capture_supervision(supervision):
            if rec is None:
                history = trainer.train(setup.train, setup.test)
            else:
                with tracing(rec, model, trainer.optimizer), rec.span(ROOT):
                    history = trainer.train(setup.train, setup.test)
    except Exception as exc:  # a failed run is a result, not a crash
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    peak_rss = _peak_rss_mb()

    failures: List[str] = []
    detail: dict = {
        "workload": name, "seed": seed, "epochs": epochs, "trace": trace,
        "scheduled": scheduled, "supervision": supervision,
        "setup_repeats": setup_repeats, "env": _environment(),
    }
    attempted = scheduled["rounds"]
    if error is not None:
        failures.append(f"train() raised {error}")
        done = len(rec.durations("trainer.round")) if rec else 0
        failed = attempted - min(done, attempted)
        values: Dict[str, float] = {}
    else:
        messages = sum(e.num_messages for e in history.epochs)
        missing = max(0, scheduled["messages"] - messages)
        faults = sum(
            supervision.get(k, 0)
            for k in ("retries", "timeouts", "workers_lost")
        )
        failed = min(attempted, -(-missing // workload.workers) + faults)
        if messages != scheduled["messages"]:
            failures.append(
                f"{messages} gradient messages, {scheduled['messages']} "
                f"scheduled")
        if faults:
            failures.append(f"fault-free run shows {supervision}")
        theta = trainer.theta
        final_loss = model.full_loss(setup.test, theta)
        init_loss = model.full_loss(setup.test, model.init_theta())
        if not np.all(np.isfinite(theta)):
            failures.append("theta is not finite")
        if not final_loss < init_loss:
            failures.append(
                f"final test loss {final_loss} not below initial {init_loss}")
        if history.epochs[-1].test_loss != final_loss:
            failures.append("last epoch's recorded test loss is not theta's")
        detail.update(
            theta_sha256=hashlib.sha256(theta.tobytes()).hexdigest(),
            init_test_loss=init_loss, messages=messages,
        )
        values = {
            "setup_s": setup_seconds["setup_s"],
            "train_wall_s": wall,
            "cpu_s": cpu,
            "wire_bytes_per_msg": history.total_bytes_sent / max(messages, 1),
            "final_test_loss": final_loss,
            "peak_rss_mb": peak_rss,
        }
    detail["end_to_end"] = values

    if trace and error is None:
        layer, samples, extra = _layer_metrics(
            setup, rec, setup_seconds, setup_repeats, supervision, wall,
            failed, attempted, failures,
        )
        detail.update(extra)
        spec = PER_LAYER
        values = layer
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(os.path.join(OUT_DIR, f"spans-{rec.run_id}.json"), "w") as f:
            json.dump(rec.to_json(), f)
    else:
        spec = END_TO_END
        samples = {m.name: 1 for m in spec}
        samples["setup_s"] = setup_repeats
    detail["samples"] = samples
    detail["failures"] = failures

    metrics = {
        m.name: {"value": float(values[m.name]), "unit": m.unit}
        for m in spec if m.name in values
    }
    result = {
        "correct": not failures and len(metrics) == len(spec),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }
    return {"result": result, "detail": detail}


def _layer_metrics(setup, rec, setup_seconds, setup_repeats, supervision,
                   wall, failed, attempted, failures):
    """Per-layer numbers of a traced run → ``(values, samples, extra)``."""
    from metrics import median, percentile, tail_percentile
    from probes import run_probes

    values: Dict[str, float] = {}
    samples: Dict[str, int] = {}

    def put(name: str, value: float, n: int) -> None:
        values[name] = value
        samples[name] = n

    def put_ms(name: str, seconds: List[float]) -> None:
        put(name, median(seconds) * 1e3 if seconds else 0.0, len(seconds))

    put("data.generate_s", setup_seconds["data.generate_s"], setup_repeats)
    put("data.split_s", setup_seconds["data.split_s"], setup_repeats)

    rounds = rec.durations("trainer.round")
    evals = rec.durations("trainer.eval")
    put("trainer.boot_s", sum(rec.durations("trainer.boot")), 1)
    put("trainer.eval_s", sum(evals), len(evals))
    put("trainer.rounds", float(len(rounds)), len(rounds))
    put_ms("trainer.round_ms_p50", rounds)
    tail = tail_percentile(len(rounds))
    # With fewer than 20 rounds no percentile above the median has ten
    # samples beyond it; the median stands in.
    put("trainer.round_ms_tail",
        percentile(rounds, tail if tail is not None else 50.0) * 1e3,
        len(rounds))
    put("trainer.residual_share", 1.0 - rec.tiled_seconds() / wall, 1)
    put("trainer.traced_wall_s", wall, 1)
    put("trainer.failed_round_share", failed / attempted, attempted)

    workers = rec.worker_rounds
    put_ms("cluster.step_ms_p50", [w["step_s"] for w in workers])
    put_ms("cluster.gather_wait_ms_p50", [
        max(0.0, w["step_s"] - max(
            c + e for c, e in zip(w["compute_s"], w["encode_s"])))
        for w in workers
    ])
    put_ms("cluster.broadcast_ms_p50", rec.durations("cluster.broadcast"))
    put("cluster.broadcast_bytes_per_round",
        median(rec.broadcast_bytes) if rec.broadcast_bytes else 0.0,
        len(rec.broadcast_bytes))
    put_ms("worker.compute_ms_p50",
           [c for w in workers for c in w["compute_s"]])
    put_ms("worker.encode_ms_p50",
           [e for w in workers for e in w["encode_s"]])
    skews = []
    for w in workers:
        busy = [c + e for c, e in zip(w["compute_s"], w["encode_s"])]
        skews.append(max(busy) / median(busy))
    put("worker.busy_skew", median(skews) if skews else 0.0, len(skews))

    driver = rec.driver_rounds
    put_ms("driver.decode_ms_p50", [d["decode_s"] for d in driver])
    put_ms("driver.merge_ms_p50", [d["merge_s"] for d in driver])
    put_ms("driver.encode_ms_p50", [d["encode_s"] for d in driver])
    put("driver.msgs_per_round",
        median(d["messages"] for d in driver) if driver else 0.0,
        len(driver))
    put_ms("optim.apply_ms_p50", rec.durations("optim.apply"))

    sizes = [b for w in workers for b in w["message_bytes"]]
    probes, probe_failures = run_probes(
        setup, rec.kept_aggregates, int(median(sizes)) if sizes else 4096)
    failures.extend(probe_failures)
    for name, (value, n) in probes.items():
        put(name, value, n)

    for key in ("requests", "retries", "timeouts", "stale_frames",
                "workers_lost"):
        put(f"supervision.{key}", float(supervision.get(key, 0)), 1)
    if supervision.get("stale_frames", 0):
        failures.append(f"fault-free run shows {supervision}")

    extra = {
        "tail_percentile": tail,
        "self_seconds": rec.self_seconds(),
    }
    return values, samples, extra


def _print_run(run: dict) -> None:
    """Human-readable lines, then the contract's single JSON line."""
    detail, result = run["detail"], run["result"]
    print("env " + json.dumps(detail["env"], sort_keys=True))
    for name, metric in result["metrics"].items():
        n = detail["samples"].get(name, 1)
        note = ""
        if name == "trainer.round_ms_tail":
            tail = detail.get("tail_percentile")
            note = (f" (p{tail:g})" if tail is not None
                    else " (no percentile has 10 samples beyond it; p50)")
        print(f"  {name:38s} {metric['value']:14.6g} {metric['unit']:6s}"
              f" n={n}{note}")
    for failure in detail["failures"]:
        print(f"  CHECK FAILED: {failure}")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))


# ----------------------------------------------------------------------
# every workload, each run in a fresh subprocess
# ----------------------------------------------------------------------
def _spawn_run(name: str, seed: int, seconds: float, trace: bool,
               quick: bool) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    if quick:
        cmd += ["--epochs", "2", "--setup-repeats", "1"]
    # Its own session, so a run that hangs is killed with its workers.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=REPO,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    done = subprocess.CompletedProcess(cmd, proc.returncode, stdout, stderr)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        detail = next(json.loads(line[len("detail "):])
                      for line in lines if line.startswith("detail "))
    except (IndexError, ValueError, StopIteration):
        raise SystemExit(
            f"run {name} (trace={int(trace)}) printed no result; exit "
            f"{done.returncode}\n{done.stdout}\n{done.stderr}")
    if done.returncode != 0 or not result["correct"]:
        detail["failures"].append(f"run exited {done.returncode}")
    return {"result": result, "detail": detail}


def run_all(seed: int, seconds: float, repeats: int, quick: bool,
            out_path: str) -> int:
    import ledger
    import workloads

    book = {
        "schema": "repro-e2e-ledger/1",
        "git_sha": _git_sha(),
        "env": _environment(),
        "seed": seed, "seconds": seconds, "repeats": repeats, "quick": quick,
        "workloads": {},
    }
    ok = True
    for workload in workloads.WORKLOADS:
        print(f"== {workload.name}: {workload.why}", flush=True)
        runs = [_spawn_run(workload.name, seed, seconds, False, quick)
                for _ in range(repeats)]
        traced = _spawn_run(workload.name, seed, seconds, True, quick)
        entry = ledger.summarise(runs, traced)
        book["workloads"][workload.name] = entry
        ledger.print_entry(entry)
        ok = ok and not entry["failures"]
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    with open(out_path, "w") as f:
        json.dump(book, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"ledger written to {out_path}; "
          f"{'all checks passed' if ok else 'CHECKS FAILED'}")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload once")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="target length of train(); scales the epochs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--epochs", type=int,
                        help="fix the epoch count instead of --seconds")
    parser.add_argument("--setup-repeats", type=int, default=SETUP_REPEATS)
    parser.add_argument("--repeats", type=int, default=3,
                        help="untraced runs per workload (all-workload mode)")
    parser.add_argument("--quick", action="store_true",
                        help="2 epochs per workload, one untraced run")
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "ledger.json"))
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        import ledger

        return ledger.compare(*args.compare)
    _pin_environment()
    if args.workload is None:
        return run_all(args.seed, args.seconds,
                       1 if args.quick else args.repeats, args.quick,
                       args.out)
    import workloads

    try:
        workload = workloads.by_name(args.workload)
    except KeyError:
        parser.error(f"unknown workload {args.workload!r}; one of "
                     f"{[w.name for w in workloads.WORKLOADS]}")
    epochs = args.epochs or workloads.epochs_for(workload, args.seconds)
    try:
        run = run_one(args.workload, args.seed, epochs, bool(args.trace),
                      max(1, args.setup_repeats))
    finally:
        _stop_children()
    _print_run(run)
    return 0 if run["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
