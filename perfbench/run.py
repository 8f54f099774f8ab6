"""Repository benchmark: end-to-end and per-layer metrics of the simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_ddt --seed 4 --seconds 40 --trace 0
    python3 perfbench/run.py --workload wide_eager --seed 1 --trace 1
    python3 perfbench/run.py --workload all --seed 1 --seconds 40   # each in turn
    python3 perfbench/run.py --write-provenance

``--trace 0`` repeats whole passes (set-up + measured phase) of the
workload, each in a fresh interpreter, while they fit in ``--seconds``
(at least two) and reports the end-to-end
metrics: wall and set-up time as the median over passes, peak memory,
and the virtual-clock metrics (identical in every pass of one seed; the
run fails its correctness check if they are not).  ``--trace 1`` runs one
untraced and one layer-traced pass of the same seed and reports the
per-layer metrics; every virtual-time and count metric must be
bit-identical between the two.

The human-readable report goes to stdout first; the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: end-to-end metrics: name -> (unit, better, meaning)
E2E = {
    "wall_s": ("s", "lower", "wall time of the measured phase (median of passes)"),
    "setup_s": ("s", "lower", "wall time of set-up incl. warm-up (median of passes)"),
    "peak_rss_mb": ("MB", "lower", "peak resident memory of a pass (max over passes)"),
    "sim_elapsed_s": ("s", "lower", "virtual-clock makespan of the measured phase"),
    "sim_lat_p50_us": ("us", "lower", "median per-message virtual latency"),
    "sim_lat_tail_us": ("us", "lower",
                        "highest of p90/p99/p99.9 with >= 10 samples beyond it"),
}

#: per-layer metrics: name -> (unit, better, layer, end-to-end metric it
#: should move, on which workloads)
LAYER = {
    "sim.self_s": ("s", "lower", "sim", "wall_s", "wide_eager"),
    "sim.events": ("count", "lower", "sim", "wall_s", "wide_eager"),
    "sim.events_per_msg": ("ratio", "lower", "sim", "wall_s", "wide_eager"),
    "sim.us_per_event": ("us", "lower", "sim", "wall_s", "wide_eager"),
    "sim.peak_queue_depth": ("count", "lower", "sim", "wall_s", "wide_eager"),
    "hw.self_s": ("s", "lower", "hw", "wall_s", "wide_eager"),
    "hw.link_ops": ("count", "lower", "hw", "wall_s", "wide_eager"),
    "hw.pack_busy_sim_s": ("s", "lower", "hw", "sim_elapsed_s,sim_lat_*", "paper_ddt"),
    "hw.wire_busy_sim_s": ("s", "lower", "hw", "sim_elapsed_s,sim_lat_*", "paper_ddt"),
    "hw.pcie_busy_sim_s": ("s", "lower", "hw", "sim_elapsed_s,sim_lat_*", "paper_ddt"),
    "hw.prep_busy_sim_s": ("s", "lower", "hw", "sim_elapsed_s,sim_lat_*", "paper_ddt"),
    "hw.pack_wire_overlap": (
        "fraction", "higher", "hw", "sim_elapsed_s,sim_lat_*", "paper_ddt",
    ),
    "cuda.self_s": ("s", "lower", "cuda", "wall_s", "paper_ddt"),
    "datatype.self_s": ("s", "lower", "datatype", "wall_s", "tenant_mix"),
    "datatype.cpu_bytes": ("bytes", "lower", "datatype", "wall_s", "tenant_mix"),
    "datatype.canonicalize_calls": (
        "count", "lower", "datatype", "wall_s", "tenant_mix",
    ),
    "gpu_engine.self_s": ("s", "lower", "gpu_engine", "wall_s", "paper_ddt,tenant_mix"),
    "gpu_engine.dev_build_s": (
        "s", "lower", "gpu_engine", "wall_s", "paper_ddt,tenant_mix",
    ),
    "gpu_engine.unit_split_s": (
        "s", "lower", "gpu_engine", "wall_s", "paper_ddt,tenant_mix",
    ),
    "gpu_engine.jobs": (
        "count", "lower", "gpu_engine", "wall_s", "paper_ddt,tenant_mix",
    ),
    "gpu_engine.fragments": (
        "count", "lower", "gpu_engine", "wall_s", "paper_ddt,tenant_mix",
    ),
    "gpu_engine.bytes_packed": (
        "bytes", "lower", "gpu_engine", "wall_s", "paper_ddt,tenant_mix",
    ),
    "gpu_engine.plan.memcpy": (
        "count", "higher", "gpu_engine", "sim_lat_*", "paper_ddt",
    ),
    "gpu_engine.plan.strided2d": (
        "count", "higher", "gpu_engine", "sim_lat_*", "paper_ddt",
    ),
    "gpu_engine.plan.vector_kernel": (
        "count", "higher", "gpu_engine", "sim_lat_*", "paper_ddt",
    ),
    "gpu_engine.plan.gather": (
        "count", "lower", "gpu_engine", "sim_lat_*", "paper_ddt",
    ),
    "gpu_engine.plan.stack": ("count", "lower", "gpu_engine", "sim_lat_*", "paper_ddt"),
    "gpu_engine.prep_sim_s": ("s", "lower", "gpu_engine", "sim_lat_*", "paper_ddt"),
    "gpu_engine.kernel_sim_s": ("s", "lower", "gpu_engine", "sim_lat_*", "paper_ddt"),
    "gpu_engine.cache_hit_rate": (
        "fraction", "higher", "gpu_engine", "wall_s,sim_lat_*", "tenant_mix",
    ),
    "gpu_engine.cache_evictions": (
        "count", "lower", "gpu_engine", "wall_s,sim_lat_*", "tenant_mix",
    ),
    "mpi.pml.self_s": (
        "s", "lower", "mpi.pml", "wall_s;sim_lat_*", "wide_eager;tenant_mix",
    ),
    "mpi.pml.transfers.eager": (
        "count", "higher", "mpi.pml", "wall_s;sim_lat_*", "wide_eager;tenant_mix",
    ),
    "mpi.pml.transfers.host": (
        "count", "lower", "mpi.pml", "wall_s;sim_lat_*", "wide_eager;tenant_mix",
    ),
    "mpi.pml.transfers.ipc_rdma": (
        "count", "higher", "mpi.pml", "wall_s;sim_lat_*", "wide_eager;tenant_mix",
    ),
    "mpi.pml.transfers.copyinout": (
        "count", "lower", "mpi.pml", "wall_s;sim_lat_*", "wide_eager;tenant_mix",
    ),
    "mpi.matching.self_s": ("s", "lower", "mpi.matching", "wall_s", "wide_eager"),
    "mpi.matching.unexpected_frac": (
        "fraction", "lower", "mpi.matching", "wall_s", "wide_eager",
    ),
    "mpi.btl.self_s": ("s", "lower", "mpi.btl", "wall_s", "wide_eager"),
    "mpi.btl.am_sends": ("count", "lower", "mpi.btl", "wall_s", "wide_eager"),
    "mpi.protocols.self_s": (
        "s", "lower", "mpi.protocols", "wall_s,sim_lat_tail_us", "paper_ddt,tenant_mix",
    ),
    "mpi.protocols.fragments": (
        "count",
        "lower",
        "mpi.protocols",
        "wall_s,sim_lat_tail_us",
        "paper_ddt,tenant_mix",
    ),
    "mpi.protocols.credit_wait_sim_s": (
        "s", "lower", "mpi.protocols", "wall_s,sim_lat_tail_us", "paper_ddt,tenant_mix",
    ),
    "mpi.protocols.retries": (
        "count",
        "lower",
        "mpi.protocols",
        "wall_s,sim_lat_tail_us",
        "paper_ddt,tenant_mix",
    ),
    "mpi.collectives.self_s": (
        "s", "lower", "mpi.collectives", "wall_s,sim_elapsed_s", "tenant_mix",
    ),
    "mpi.collectives.calls": (
        "count", "lower", "mpi.collectives", "wall_s,sim_elapsed_s", "tenant_mix",
    ),
    "mpi.collectives.sim_s": (
        "s", "lower", "mpi.collectives", "wall_s,sim_elapsed_s", "tenant_mix",
    ),
    "baselines.self_s": ("s", "lower", "baselines", "wall_s", "paper_ddt"),
    "baselines.memcpy2d_calls": ("count", "lower", "baselines", "wall_s", "paper_ddt"),
    "baselines.sim_ratio": ("ratio", "higher", "baselines", "wall_s", "paper_ddt"),
    "bench.self_s": ("s", "lower", "bench", "none (health check)", "all"),
    "bench.trace_overhead": ("ratio", "lower", "bench", "none (health check)", "all"),
}

#: no pass starts that would end after this much wall time (hard exit
#: limit for one run is 180 s)
_PASS_BUDGET_S = 150.0
#: set-up and measured phase are medians over at least this many passes
_MIN_PASSES = 2
#: a run is cut (its pass killed) after this many seconds
_RUN_LIMIT_S = 175.0


def _import_program():
    """Put this checkout's ``src`` first on the path and import the program."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: {src}/repro not found; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {src}")


def model_signature(res) -> tuple:
    """Everything in a pass that must repeat exactly for the same seed."""
    return (
        res.sim_elapsed_s,
        tuple(res.latencies),
        tuple(sorted(res.counters.items())),
        res.attempted,
        res.failed,
    )


def end_to_end(results) -> tuple[dict, dict]:
    """End-to-end metrics of a set of passes, plus report-only extras."""
    from measure import percentile, tail_percentile

    first = results[0]
    lat = sorted(first.latencies)
    tail, q, n = tail_percentile(lat)
    metrics = {
        "wall_s": statistics.median(r.wall_s for r in results),
        "setup_s": statistics.median(r.setup_s for r in results),
        "peak_rss_mb": max(r.peak_rss_mb for r in results),
        "sim_elapsed_s": first.sim_elapsed_s,
        "sim_lat_p50_us": percentile(lat, 50.0) * 1e6 if lat else 0.0,
        "sim_lat_tail_us": tail * 1e6,
    }
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    extras = {
        "error_rate": failed / attempted if attempted else 1.0,
        "tail_percentile": q,
        "latency_samples": n,
        "passes": len(results),
        "pass_wall_s": " ".join(f"{r.wall_s:.3f}" for r in results),
        "pass_setup_s": " ".join(f"{r.setup_s:.3f}" for r in results),
    }
    return metrics, extras


def layer_metrics(untraced, traced, trace: dict) -> dict:
    """Per-layer metrics from an untraced and a layer-traced pass.

    ``trace`` is :meth:`layertrace.LayerTrace.summary` of the traced pass.
    """
    c = traced.counters
    calls, incl, counted = trace["calls"], trace["incl_s"], trace["counters"]
    events = c.get("sim.events", 0)
    messages = traced.messages
    arrivals = calls.get("matching.MatchingEngine.arrive", 0)
    hits, lookups = c.get("gpu_engine.cache_hits", 0), c.get("gpu_engine.cache_lookups", 0)
    pack_busy = c.get("hw.pack_busy_sim_s", 0.0)
    m = {f"{layer}.self_s": v for layer, v in trace["self_s"].items()}
    m.update({
        "sim.events": events,
        "sim.events_per_msg": events / messages if messages else 0.0,
        "sim.us_per_event": untraced.wall_s / events * 1e6 if events else 0.0,
        "hw.pack_wire_overlap": (
            min(1.0, c.get("hw.pack_wire_overlap_sim_s", 0.0) / pack_busy)
            if pack_busy > 0 else 0.0
        ),
        "datatype.cpu_bytes": counted.get("datatype.cpu_bytes", 0),
        "datatype.canonicalize_calls": calls.get("canonical.canonicalize", 0),
        "gpu_engine.dev_build_s": incl.get("dev.to_devs", 0.0),
        "gpu_engine.unit_split_s": incl.get("work_units.split_units", 0.0),
        "gpu_engine.cache_hit_rate": hits / lookups if lookups else 0.0,
        "mpi.matching.unexpected_frac": (
            counted.get("mpi.matching.unexpected", 0) / arrivals if arrivals else 0.0
        ),
        "bench.trace_overhead": traced.wall_s / untraced.wall_s - 1.0,
    })
    for name in LAYER:
        if name not in m:
            m[name] = c.get(name, 0)
    return {name: m[name] for name in LAYER}


def _one_pass(workload: str, seed: int, mode: str, spans_out) -> dict:
    """Run one pass in this process; the record the parent reads back."""
    from dataclasses import asdict

    from layertrace import LayerTrace
    from workloads import run_pass

    trace = None
    if mode == "traced":
        trace = LayerTrace(workload)
        with trace.installed():
            res = run_pass(workload, seed, tracer=trace, resource_trace=True)
        if spans_out:
            trace.write(spans_out)
    else:
        res = run_pass(workload, seed, resource_trace=mode == "resource")
    res.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"result": asdict(res), "trace": trace and trace.summary()}


def _child_pass(workload: str, seed: int, mode: str, deadline: float, spans_out=None):
    """Run one pass in a fresh interpreter (no state shared between passes).

    The pass is killed at ``deadline`` (a ``time.perf_counter`` value).
    """
    from measure import PassResult

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--pass", mode]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    timeout = max(1.0, deadline - time.perf_counter())
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(
            f"{mode} pass exited {out.returncode}: {out.stderr.strip()[-2000:]}"
        )
    doc = json.loads(lines[-1])
    return PassResult(**doc["result"]), doc["trace"]


def _run_untraced(workload: str, seed: int, seconds: float, deadline: float):
    """Passes until the next one would end after ``seconds`` (at least two)."""
    results = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(_child_pass(workload, seed, "plain", deadline)[0])
        now = time.perf_counter()
        projected = now - start + (now - t0)
        if len(results) >= _MIN_PASSES and (
            projected > seconds or projected > _PASS_BUDGET_S
        ):
            return results


def _print_report(workload, seed, metrics, units, extras, results, problems) -> None:
    print(f"workload {workload} seed {seed}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:16.6f} {units[name]}")
    for name, value in extras.items():
        if name == "error_rate":  # an end-to-end metric, printed with its unit
            print(f"  {name:34s} {value:16.6f} fraction")
        else:
            print(f"  {name:34s} {value!s:>16}")
    details = results[0].details
    for key in sorted(details):
        print(f"  detail {key}: {details[key]}")
    for r in results:
        for f in r.failures:
            problems.append(f"delivery failed: {f}")
        if r.error:
            problems.append(f"run error: {r.error}")
    for p in dict.fromkeys(problems):
        print(f"  PROBLEM: {p}")


def provenance() -> dict:
    """Per-workload and per-metric provenance, from this file's own tables."""
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, loop_kind, rank_count

    return {
        "workloads": {
            name: {
                "seed": wl.seed,
                "held_out_seed": 7919,
                "why": wl.why,
                "loop": loop_kind(name),
                "ranks": rank_count(name),
                "params": wl.params,
            }
            for name, wl in WORKLOADS.items()
        },
        "end_to_end": {
            name: {"unit": unit, "better": better, "meaning": meaning}
            for name, (unit, better, meaning) in E2E.items()
        },
        "per_layer": {
            name: {"unit": unit, "better": better, "layer": layer,
                   "moves": moves, "on": on}
            for name, (unit, better, layer, moves, on) in LAYER.items()
        },
        "report_only": {
            "error_rate": "failed / attempted deliveries (oracle mismatch, "
                          "raised, or never completed); 0 at a healthy "
                          "commit, so it is carried by the result's "
                          "'failed'/'attempted' fields instead of a metric",
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="a workload name, or 'all' for each in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", help="with --trace 1: write every span as JSON")
    ap.add_argument("--write-provenance", action="store_true",
                    help="regenerate perfbench/provenance.json and exit")
    ap.add_argument("--pass", dest="one_pass", choices=("plain", "resource", "traced"),
                    help=argparse.SUPPRESS)  # internal: run one pass, print JSON
    args = ap.parse_args(argv)
    _import_program()
    if args.write_provenance:
        with open(HERE / "provenance.json", "w", encoding="utf-8") as fh:
            json.dump(provenance(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return 0
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        ap.error(f"--workload must be 'all' or one of {sorted(WORKLOADS)}")
    if args.one_pass:
        print(json.dumps(_one_pass(args.workload, args.seed, args.one_pass,
                                   args.spans_out)))
        return 0
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    return max(_run_workload(name, args) for name in names)


def _run_workload(workload: str, args) -> int:
    """Measure one workload; print its report and its JSON result line."""
    problems: list[str] = []
    deadline = time.perf_counter() + _RUN_LIMIT_S
    try:
        if args.trace:
            untraced, _ = _child_pass(workload, args.seed, "resource", deadline)
            traced, trace = _child_pass(
                workload, args.seed, "traced", deadline, args.spans_out
            )
            results = [untraced, traced]
            metrics = layer_metrics(untraced, traced, trace)
            units = {name: LAYER[name][0] for name in metrics}
            if model_signature(untraced) != model_signature(traced):
                problems.append("tracing changed a virtual-time or count metric")
            spent = sum(trace["self_s"].values())
            if abs(spent - trace["root_s"]) > 1e-6 * max(1.0, trace["root_s"]):
                problems.append(
                    f"layer self times sum to {spent} s, "
                    f"traced wall is {trace['root_s']} s"
                )
            extras = {"spans": trace["spans"], "traced_wall_s": trace["root_s"]}
        else:
            results = _run_untraced(workload, args.seed, args.seconds, deadline)
            metrics, extras = end_to_end(results)
            units = {name: E2E[name][0] for name in metrics}
            if len({model_signature(r) for r in results}) != 1:
                problems.append("virtual-time metrics differ between passes of one seed")
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        # a pass process crashed or hung: there is no result to print
        print(f"error: {workload} seed {args.seed}: {err}", file=sys.stderr)
        return 2
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    if any(r.error for r in results):
        problems.append("a run ended with an error")
    _print_report(workload, args.seed, metrics, units, extras, results, problems)
    correct = failed == 0 and not problems and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.dont_write_bytecode = True  # leave no caches in the checkout
    sys.exit(main())
