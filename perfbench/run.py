#!/usr/bin/env python3
"""Benchmark of the tightspan CLI, driven in-process through ``cli.run``.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload <recognize|hull|hellify|hyperbolicity>
        --seed <n> --seconds <s> --trace <0|1>

One process, one thread, a closed loop with one client: each op feeds one
input's edge-list text on stdin (``-``) to ``cli.run`` and waits for it. The
workload's inputs (35, or 45 for hull) are built from the seed, replayed once
as a warm-up and then in whole passes until the ops' own time reaches
``--seconds`` and at least MIN_OPS ops have run. The clock pauses while the gate checks an
output, so ``ops_per_s`` is ops over the time spent inside ``cli.run``
(the median over passes). ``setup_s`` is the median of SETUP_REPEATS
set-ups, each a fresh import of tightspan plus building and formatting the
inputs.

Every reported time is scaled for host speed. On a shared host the speed of
Python code drifts by tens of percent within minutes, which would swamp
the differences the benchmark exists to show. A fixed pure-Python loop
(``calibration_s``) runs between ops, and each op's wall time is multiplied
by NOMINAL_CALIBRATION_S over the loop's time around that op. The results
file also holds the unscaled end-to-end figures.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` spends half the
time untraced and half traced (see spans.py) and prints the per-layer
metrics, per traced op, with the tracing overhead. Metric names and units
come from BENCHMARK.json. The last stdout line is one JSON object; a results
file with provenance goes to perfbench/results/, and the traced run also
writes its spans there. Exit code 2 means the checkout has no tightspan
sources.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import redirect_stderr
from pathlib import Path

import spans
import workloads

START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
REFERENCE = HERE / "reference.json"

SETUP_REPEATS = 7
MIN_OPS = 100
# Times are scaled to a host on which calibration_s() returns this.
NOMINAL_CALIBRATION_S = 0.0017

# Functions whose self time is fitted against input size, on the inputs that
# run them to completion.
GROWTH = {
    "dh.pruning_sequence": {"dh"},
    "helly.find_pseudo_modular_violation": {"dh"},
    "hyperbolicity.hyperbolicity": {"dh", "chordal", "cycle", "sparse"},
}


def fresh_import():
    """Import tightspan from scratch, dropping any copy already loaded."""
    for key in [k for k in sys.modules if k == "tightspan" or k.startswith("tightspan.")]:
        del sys.modules[key]
    import tightspan
    import tightspan.cli  # noqa: F401

    return tightspan


def calibration_s() -> float:
    """Median time of three runs of a fixed pure-Python arithmetic loop.

    The loop runs none of tightspan's code, so its time tracks only how fast
    the host runs Python at that moment. Of the loops tried, plain integer
    arithmetic tracked the workloads best; loops with method calls and dict
    stores swung up to twice as much as the workloads between processes.
    """
    times = []
    # With the collector off, the loop's time cannot depend on how much the
    # code under test leaves on the heap.
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            t0 = time.perf_counter()
            acc = 0
            for i in range(20000):
                acc += i * i % 7
            times.append(time.perf_counter() - t0)
    finally:
        if collecting:
            gc.enable()
    return statistics.median(times)


def set_up(workload: str, seed: int):
    """Import and build the inputs SETUP_REPEATS times; keep the last set.

    Returns the inputs, the median set-up time scaled and as measured, and
    the median scaled milliseconds spent building graphs.
    """
    setup_s, wall_s, build_ms = [], [], []
    before = calibration_s()
    for _ in range(SETUP_REPEATS):
        inputs = None  # so that two sets never coexist to raise peak_rss_mb
        t0 = time.perf_counter()
        ts = fresh_import()
        inputs, build_s = workloads.build_inputs(ts, workload, seed)
        wall_s.append(time.perf_counter() - t0)
        after = calibration_s()
        scale = 2 * NOMINAL_CALIBRATION_S / (before + after)
        before = after
        setup_s.append(wall_s[-1] * scale)
        build_ms.append(build_s * 1e3 * scale)
    return inputs, statistics.median(setup_s), statistics.median(wall_s), statistics.median(build_ms)


def run_op(cli, inp):
    """One CLI invocation; returns (exit code or error text, stdout, seconds)."""
    saved = sys.stdin
    sys.stdin = io.StringIO(inp.text)
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = cli.run(inp.argv, out)
            except Exception as exc:  # a raising op is a failed op, not a crash
                code = f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
    finally:
        sys.stdin = saved
    return code, out.getvalue(), elapsed


class Phase:
    """Per-op wall times and host-speed scales, and gate failures, of whole passes."""

    def __init__(self, pass_length: int):
        self.pass_length = pass_length
        self.latencies: list = []  # wall seconds inside cli.run
        self.scales: list = []
        self.failures: list = []

    def latencies_ms(self, scaled: bool = True) -> list:
        if not scaled:
            return [t * 1e3 for t in self.latencies]
        return [t * 1e3 * scale for t, scale in zip(self.latencies, self.scales)]

    def ops_per_s(self, scaled: bool = True) -> float:
        """Median over passes, so a burst of load on the host moves it less."""
        lat, k = self.latencies_ms(scaled), self.pass_length
        return statistics.median(k * 1e3 / sum(lat[i : i + k]) for i in range(0, len(lat), k))


def measure(cli, inputs, reference, seconds, min_ops, tracer=None, op_inputs=None):
    """Replay whole passes over ``inputs`` until both limits are met.

    Around each op, outside its timing, the calibration loop samples the
    host's speed; the op's scale is NOMINAL_CALIBRATION_S over the mean of
    the samples just before and just after it. The gate then checks the
    output.
    """
    phase = Phase(len(inputs))
    busy = 0.0
    before = calibration_s()
    while True:
        for inp in inputs:
            if tracer is not None:
                tracer.op = len(op_inputs)
                op_inputs.append(inp)
            code, stdout, elapsed = run_op(cli, inp)
            if tracer is not None:
                tracer.op = None
            after = calibration_s()
            phase.latencies.append(elapsed)
            phase.scales.append(2 * NOMINAL_CALIBRATION_S / (before + after))
            before = after
            busy += elapsed
            if isinstance(code, int):
                reason = workloads.check(inp, code, stdout, reference)
            else:
                reason = code
            if reason is not None:
                phase.failures.append({"input": inp.label, "reason": reason})
        if busy >= seconds and len(phase.latencies) >= min_ops:
            return phase


def end_to_end(phase: Phase, setup_s: float, scaled: bool = True) -> dict:
    lat_ms = phase.latencies_ms(scaled)
    attempted = len(lat_ms)
    return {
        "ops_per_s": phase.ops_per_s(scaled),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_ratio": (attempted - len(phase.failures)) / attempted,
    }


def scaled_self_ms(tracer, traced: Phase) -> dict:
    """{(op, span name): self ms}, scaled like the op's latency."""
    return {
        (op, name): ms * traced.scales[op]
        for (op, name), ms in spans.per_op_self_ms(tracer.spans).items()
    }


def per_layer(tracer, self_ms, op_inputs, untraced: Phase, traced: Phase, build_ms) -> dict:
    n_ops = len(op_inputs)
    metrics = {}
    for name in spans.TARGETS:
        total = sum(v for (op, span), v in self_ms.items() if span == name)
        metrics[f"{name}.self_ms"] = total / n_ops
    counters = defaultdict(float)
    for (op, key), value in tracer.counts.items():
        counters[key] += value
    for key in COUNTERS:
        metrics[key] = counters[key] / n_ops
    for layer in spans.LAYERS:
        metrics[f"{layer}.errors"] = counters[f"{layer}.errors"] / n_ops
    for name, kinds in GROWTH.items():
        points = [
            (inp.n, self_ms.get((op, name), 0.0))
            for op, inp in enumerate(op_inputs)
            if inp.kind in kinds
        ]
        metrics[f"{name}.growth_exp"] = spans.loglog_slope(points)
    metrics["generators.setup_ms"] = build_ms
    metrics["tracing.untraced_ops_per_s"] = untraced.ops_per_s()
    metrics["tracing.traced_ops_per_s"] = traced.ops_per_s()
    metrics["tracing.overhead"] = untraced.ops_per_s() / traced.ops_per_s()
    return metrics


COUNTERS = (
    "helly.find_pseudo_modular_violation.calls",
    "helly.maximal_cliques.calls",
    "helly.two_sets",
    "graphs.Graph.power.calls",
    "detectors.is_chordal.calls",
    "dh.pruning_rounds",
    "dh.added",
    "hulls.vector_pairs",
    "hulls.vectors",
    "hulls.json_bytes",
    "graphs.Graph.distances.graphs",
    "hyperbolicity.quadruples",
)


def top_self_times(self_ms: dict, n_ops: int, limit: int = 6) -> list:
    totals = defaultdict(float)
    for (op, name), ms in self_ms.items():
        totals[name] += ms
    whole = sum(totals.values())
    ranked = sorted(totals.items(), key=lambda kv: -kv[1])[:limit]
    return [
        {"name": name, "self_ms_per_op": ms / n_ops, "share": ms / whole}
        for name, ms in ranked
    ]


def provenance(seed: int, load: tuple) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            )
            commit = done.stdout.strip() if done.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            commit = None
    sources = hashlib.sha256()
    for path in sorted((SRC / "tightspan").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": sources.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": load,
        "seed": seed,
        "default_seed": workloads.DEFAULT_SEED,
        "isolation": "none: no CPU pinning or cache control is applied, "
        "and runs share the host with whatever else it runs",
    }


def load_reference(workload: str, seed: int):
    if seed != workloads.DEFAULT_SEED:
        return None
    doc = json.loads(REFERENCE.read_text())
    if doc["seed"] != seed:
        raise ValueError(f"reference recorded for seed {doc['seed']}, not {seed}")
    return doc["workloads"][workload]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "tightspan" / "__init__.py").is_file():
        print(f"no tightspan sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    load = os.getloadavg()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    inputs, setup_s, setup_wall_s, build_ms = set_up(args.workload, args.seed)
    reference = load_reference(args.workload, args.seed)
    cli = sys.modules["tightspan.cli"]
    first_op_s = time.perf_counter() - START
    warm = measure(cli, inputs, reference, 0, 0)

    doc = {"workload": args.workload, "trace": args.trace, "inputs": len(inputs)}
    if args.trace == 0:
        phase = measure(cli, inputs, reference, args.seconds, MIN_OPS)
        values = end_to_end(phase, setup_s)
        wanted = spec["end_to_end"]
        phases = [phase]
        doc["unscaled"] = end_to_end(phase, setup_wall_s, scaled=False)
        doc["ops"] = {"warmup": len(warm.latencies), "timed": len(phase.latencies)}
    else:
        untraced = measure(cli, inputs, reference, args.seconds / 2, 0)
        tracer, op_inputs = spans.Tracer(), []
        uninstall = spans.install(tracer)
        try:
            traced = measure(cli, inputs, reference, args.seconds / 2, 0, tracer, op_inputs)
        finally:
            uninstall()
        self_ms = scaled_self_ms(tracer, traced)
        values = per_layer(tracer, self_ms, op_inputs, untraced, traced, build_ms)
        wanted = spec["per_layer"]
        doc["ops"] = {
            "warmup": len(warm.latencies),
            "untraced": len(untraced.latencies),
            "traced": len(traced.latencies),
        }
        doc["top_self_times"] = top_self_times(self_ms, len(op_inputs))
        phases = [untraced, traced]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted = sum(len(phase.latencies) for phase in phases)
    failures = [f for phase in phases for f in phase.failures]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    doc.update(
        provenance=provenance(args.seed, load),
        start_to_first_op_s=first_op_s,
        host_speed_scale_median=statistics.median(s for p in phases for s in p.scales),
        failures=(warm.failures + failures)[:20],
        result=result,
    )
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(doc, indent=2) + "\n")
    if args.trace:
        with open(stem.with_suffix(".spans.jsonl"), "w") as fh:
            for sid, (name, start, end, parent, op) in enumerate(tracer.spans):
                fh.write(json.dumps([sid, name, start, end, parent, op]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
