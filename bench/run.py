"""newsvane benchmark: three workloads, end-to-end metrics, outside-in tracing.

Run from the repository root:

    python3 bench/run.py --workload small_corpus --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload in turn

Each workload runs in a fresh child process of this script, one after another.
A child sets up its inputs from the seed (three times; ``setup_s`` is the
median), then runs the whole pipeline (see ``workloads.py``) in rounds of
identical work until ``--seconds`` have passed, at least twice, and reports
the median of each metric over the rounds. Times are scaled to a reference
machine speed by a probe taken around every timed call (see ``workloads.py``
for why); the raw times are printed beside them. Every timed stage call is an
operation; it fails if it raises or a check on its output fails
(``error_rate`` = failed / attempted).

``--trace 1`` runs the workload untraced and then traced, each in its own
child with half of ``--seconds``, and reports the per-layer metrics of the
traced child (per round), the tracing overhead (traced minus untraced
``wall_s``) and each stage's time not covered by a traced call.
Trained-parameter and sweep digests must agree between rounds and between
the two children.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics, or per-layer
metrics with ``--trace 1``). The lines before it are a readable report and a
``context`` JSON line with versions, the BLAS thread cap, the source line
count, a machine-speed probe and the digests.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("small_corpus", "wide_vocab", "desk_history")
SETUP_REPEATS = 3
MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 170

END_TO_END = {  # name -> unit; error_rate is reported but not a gated metric
    "setup_s": "s",
    "wall_s": "s",
    "train_us_per_sample": "us",
    "predict_us_per_headline": "us",
    "ingest_us_per_headline": "us",
    "sweep_ms_per_threshold": "ms",
    "checkpoint_roundtrip_ms": "ms",
    "peak_rss_mb": "MB",
}


def blas_threads() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def run_context() -> dict:
    import numpy as np

    head = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        head = proc.stdout.strip() or head
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "newsvane").glob("*.py")))
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_thread_cap": blas_threads(),
        "nproc": blas_threads(),
        "git_head": head,
        "src_lines": src_lines,
    }


# --- child: one workload in this process ---------------------------------------


def child_main(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import contextlib

    import newsvane
    import workloads as wl
    from tracing import Tracer

    probe = wl.SpeedProbe()
    probe_start = probe()
    spec = wl.SPECS[args.workload]
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{spec.name}-", dir=base))
    ledger = wl.Ledger(probe, spec.memory_ops)
    rounds: list = []
    tracer = None
    setup_ops: list = []
    try:
        digests = []
        for i in range(SETUP_REPEATS):
            inputs, op = ledger.call("setup", wl.setup, spec.name, work / f"setup{i}", args.seed,
                                     args.scale)
            setup_ops.append(op)
            digests.append(inputs.file_digest())
            ledger.check(op, digests[-1] == digests[0], "set-up inputs differ for one seed")
            if i:
                shutil.rmtree(work / f"setup{i - 1}")

        span = lambda name: contextlib.nullcontext()  # noqa: E731
        if args.traced:
            tracer = Tracer()
            tracer.install({m: getattr(newsvane, m) for m in
                            ("network", "training", "embeddings", "checkpoint", "corpus",
                             "pipeline", "backtest")})
            tracer.wrap(ledger, "probe", "bench.probe")  # keeps probes out of the unattributed time
            span = tracer.span
        t_start = perf_counter()
        while len(rounds) < MIN_ROUNDS or perf_counter() - t_start < args.seconds:
            r = wl.run_round(spec, inputs, work, args.seed, ledger, span)
            if rounds and (r.params_digest, r.sweep_digest) != (rounds[0].params_digest,
                                                                rounds[0].sweep_digest):
                ledger.ops[-1].errors.append("digests differ between rounds of one seed")
            rounds.append(r)
    except wl.StageFailed:
        pass  # the failed operation and its error are in the ledger; the round is abandoned
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "workload": spec.name,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "errors": ledger.errors(),
        "rounds": len(rounds),
        "context": {"speed_probe_us": [probe_start, probe()]},
    }
    if rounds:
        result["metrics"] = {k: statistics.median(r.metrics[k] for r in rounds)
                             for k in rounds[0].metrics}
        result["raw"] = {k: statistics.median(r.raw[k] for r in rounds) for k in rounds[0].raw}
        result["metrics"]["setup_s"] = statistics.median(op.scaled for op in setup_ops)
        result["raw"]["setup_s"] = statistics.median(op.seconds for op in setup_ops)
        result["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["per_round"] = {k: [r.metrics[k] for r in rounds] for k in rounds[0].metrics}
        result["context"]["probe_median_us"] = [statistics.median(p[i] for p in ledger.probes)
                                                for i in (0, 1)]
        result["quality"] = rounds[0].quality
        result["digests"] = {"params": rounds[0].params_digest, "sweep": rounds[0].sweep_digest}
        if tracer is not None:
            result["layers"] = tracer.layer_metrics(len(rounds))
    print(json.dumps(result))
    return 0


# --- parent: children, checks across them, report ------------------------------


def run_child(workload: str, args: argparse.Namespace, traced: bool) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds / (2 if args.trace else 1)),
           "--scale", str(args.scale)]
    if traced:
        cmd.append("--traced")
    cap = str(blas_threads())
    env = dict(os.environ, OPENBLAS_NUM_THREADS=cap, OMP_NUM_THREADS=cap, MKL_NUM_THREADS=cap)
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S,
                          check=False)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: child exited with {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload: str, args: argparse.Namespace) -> dict:
    """Run one workload (and its traced twin); return the merged result."""
    res = run_child(workload, args, traced=False)
    res["correct"] = res["failed"] == 0 and "metrics" in res
    if not args.trace:
        return res
    traced = run_child(workload, args, traced=True)
    res["attempted"] += traced["attempted"]
    res["failed"] += traced["failed"]
    res["errors"] += traced["errors"]
    res["correct"] = res["correct"] and traced["failed"] == 0 and "layers" in traced
    res["attempted"] += 1  # the cross-run digest comparison
    if res["correct"] and traced["digests"] != res["digests"]:
        res["errors"].append("traced run trained or traded differently from the untraced run")
        res["failed"] += 1
        res["correct"] = False
    if res["correct"]:
        layers = traced["layers"]
        layers["trace.wall_s"] = traced["metrics"]["wall_s"]
        layers["trace.overhead_s"] = traced["metrics"]["wall_s"] - res["metrics"]["wall_s"]
        layers["trace.unattributed_frac"] = sum(
            v for k, v in layers.items() if k.startswith("stage.")) / traced["raw"]["wall_s"]
        res["layers"] = layers
    return res


def report(res: dict) -> None:
    name = res["workload"]
    print(f"== {name}: {res['rounds']} round(s), {res['attempted']} operations, "
          f"{res['failed']} failed")
    for err in res["errors"]:
        print(f"   FAILED {err}")
    metrics, raw = res.get("metrics", {}), res.get("raw", {})
    for key, unit in END_TO_END.items():
        if key in metrics:
            measured = f"   (raw {raw[key]:.4f})" if key in raw else ""
            print(f"   {key:<26} {metrics[key]:>14.4f} {unit:<3}{measured}")
    print(f"   {'error_rate':<26} {res['failed'] / max(res['attempted'], 1):>14.4f} fraction")
    for key, value in res.get("quality", {}).items():
        print(f"   (not gated) {key:<30} {value}")
    for key, value in sorted(res.get("layers", {}).items()):
        print(f"   layer {key:<40} {value:.6g}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every workload's day count (the self-test uses a small one)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)
    if not (SRC / "newsvane" / "__init__.py").is_file():
        print(f"bench: no newsvane sources under {SRC}", file=sys.stderr)
        return 2

    context = run_context()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            res = measure(name, args)
        except (RuntimeError, subprocess.TimeoutExpired, KeyError, ValueError) as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 1
        report(res)
        results.append(res)
    for res in results:
        context[res["workload"]] = {"digests": res.get("digests"),
                                    "per_round": res.get("per_round"), **res["context"]}
    print("context " + json.dumps(context, sort_keys=True))

    def metric_block(res: dict) -> dict:
        if args.trace:
            return {k: (v, unit_of_layer(k)) for k, v in res["layers"].items()}
        return {k: (res["metrics"][k], u) for k, u in END_TO_END.items()}

    out_metrics = {}
    for res in results:
        if not res["correct"]:
            continue
        prefix = "" if len(results) == 1 else res["workload"] + "."
        for key, (value, unit) in metric_block(res).items():
            out_metrics[prefix + key] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": out_metrics,
    }))
    return 0


def unit_of_layer(name: str) -> str:
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith((".s", "_s")):
        return "s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
