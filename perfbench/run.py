"""exactspca benchmark: one closed-loop client, exact mode, seeded workloads.

Usage::

    python3 perfbench/run.py --workload spca-cells --seed 0 --seconds 30 --trace 0

Each workload is a fixed list of instance shapes.  The client solves them in
order, each solve starting when the previous one returned (one process, no
threads of its own), and cycles over the list until ``--seconds`` have
elapsed and every shape has been solved at least once.  Every pass draws
fresh matrices from ``--seed`` and the pass index, so no matrix is solved
twice and a cache keyed on the input cannot help.  Every solve is checked
against a reference objective computed before its pass is timed; exceptions
and mismatches count as failed solves and are reported on stderr.

``--trace 0`` prints the end-to-end metrics: ``instances_per_s`` is the
number of shapes over the sum of the per-shape median latencies,
``solve_ms_p50`` the median of those medians.  ``--trace 1`` runs whole passes, alternating an
untraced and a traced solve of each instance, and prints per-layer metrics
(per pass over the set) from spans recorded around the package's layer
functions; the spans are written to ``.perfbench/traces/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import calibration
import checkout
import setup_probe

WORKLOADS = ("spca-cells", "ds-regions", "wide-cli")
SETUP_PROBES = 7  # fresh processes timed per run; setup_s is their median
HERE = Path(__file__).resolve().parent


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Medians over fresh processes that import, generate and warm up: the
    set-up time scaled by the kernel timed around it in the same process,
    and unscaled."""
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"),
             "--workload", workload, "--seed", str(seed)],
            cwd=checkout.ROOT, check=True, capture_output=True, text=True, timeout=60,
        )
        timing = json.loads(probe.stdout.strip().splitlines()[-1])
        kernel_before, kernel_after = timing["kernel_s"]
        raw.append(timing["setup_s"])
        scaled.append(calibration.scale(
            timing["setup_s"], kernel_before, kernel_after, setup_probe.REFERENCE_S
        ))
    return statistics.median(scaled), statistics.median(raw)


def timed_solve(workloads, instance, reference: float) -> tuple[float, bool]:
    """Seconds one solve took, and whether it returned the reference objective."""
    started = perf_counter()
    try:
        output = workloads.solve(instance)
    except Exception:
        elapsed = perf_counter() - started
        traceback.print_exc()
        return elapsed, False
    elapsed = perf_counter() - started
    try:
        objective = workloads.objective_of(instance, output)
    except Exception:
        traceback.print_exc()
        return elapsed, False
    if not workloads.matches(objective, reference):
        print(f"perfbench: {instance.spec} returned {objective!r}, "
              f"reference {reference!r}", file=sys.stderr)
        return elapsed, False
    return elapsed, True


def _set_metrics(latencies) -> tuple[float, float]:
    """(instances per second, median latency in ms) from per-shape samples:
    the number of shapes over the sum of the per-shape medians, and the
    median of those medians."""
    medians = [statistics.median(samples) for samples in latencies]
    return len(latencies) / sum(medians), statistics.median(medians) * 1000.0


def draw_pass(workloads, specs, seed: int, draw: int, workdir: Path):
    """One pass's fresh instances and their reference objectives."""
    instances = workloads.generate(specs, seed, draw, workdir)
    return instances, [workloads.reference_objective(instance) for instance in instances]


def run_untraced(workloads, specs, seed: int, workdir: Path, seconds: float) -> dict:
    """Closed-loop passes over the set, each on freshly drawn matrices; stops
    at the deadline once every instance has been solved at least once.  Each
    latency is scaled by the calibration kernel timed just before and after
    it.  Drawing and the references are not timed."""
    scaled = [[] for _ in specs]
    raw = [[] for _ in specs]
    attempted = failed = 0
    started = perf_counter()
    while attempted < len(specs) or perf_counter() - started < seconds:
        idx = attempted % len(specs)
        if idx == 0:
            instances, references = draw_pass(
                workloads, specs, seed, attempted // len(specs), workdir
            )
            kernel_before = calibration.kernel_seconds()
        elapsed, ok = timed_solve(workloads, instances[idx], references[idx])
        kernel_after = calibration.kernel_seconds()
        scaled[idx].append(calibration.scale(elapsed, kernel_before, kernel_after))
        raw[idx].append(elapsed)
        kernel_before = kernel_after
        attempted += 1
        failed += not ok
    per_s, p50_ms = _set_metrics(scaled)
    raw_per_s, raw_p50_ms = _set_metrics(raw)
    return {"attempted": attempted, "failed": failed,
            "passes": attempted / len(specs),
            "metrics": {"instances_per_s": (per_s, "1/s"),
                        "solve_ms_p50": (p50_ms, "ms")},
            "raw": {"instances_per_s": raw_per_s, "solve_ms_p50": raw_p50_ms}}


def _ratio(numerator: float, base: float) -> float:
    return numerator / base if base else 0.0


def layer_metrics(tracer, passes: int, traced_s: float, untraced_s: float) -> dict:
    """Per-pass layer times and counts; every span's self time lands in
    exactly one layer ``.s`` metric, so those sum to the spans' total."""
    selfs, calls, counts = tracer.self_times(), tracer.calls(), tracer.counts

    def seconds(*names):
        return sum(selfs.get(name, 0.0) for name in names) / passes, "s"

    def count(value):
        return value / passes, "count"

    def layer_self(layer):
        return seconds(*[n for n in selfs if n.split(".")[0] == layer])

    return {
        "arrangement.enumerate_cells.s": seconds("arrangement.enumerate_cells"),
        "arrangement.cells": count(counts["arrangement.cells"]),
        "arrangement.enumerate_affine_cells.s": seconds("arrangement.enumerate_affine_cells"),
        "arrangement.affine_cells": count(counts["arrangement.affine_cells"]),
        "arrangement.dedup_hyperplanes.s": seconds("arrangement.dedup_hyperplanes"),
        "arrangement.dedup_keep_ratio": (
            _ratio(counts["arrangement.dedup_kept"], counts["arrangement.dedup_offered"]),
            "ratio",
        ),
        "arrangement.dedup_kept": count(counts["arrangement.dedup_kept"]),
        "arrangement.dedup_offered": count(counts["arrangement.dedup_offered"]),
        "circulation.solve_max_profit.s": seconds("circulation.solve_max_profit"),
        "circulation.solve_max_profit.calls": count(calls["circulation.solve_max_profit"]),
        "circulation.supports_from_circulation.s": seconds(
            "circulation.supports_from_circulation"
        ),
        "circulation.enumerate_circuits.s": seconds("circulation.enumerate_circuits"),
        "circulation.circuits": count(counts["circulation.circuits"]),
        "extension.functionals.s": seconds("extension.functionals"),
        "extension.functionals.calls": count(calls["extension.functionals"]),
        "linalg.pivoted_cholesky.s": seconds("linalg.pivoted_cholesky"),
        "linalg.pivoted_cholesky.calls": count(calls["linalg.pivoted_cholesky"]),
        "linalg.solve_pca.s": seconds("linalg.solve_pca"),
        "linalg.solve_pca.calls": count(calls["linalg.solve_pca"]),
        "spca.self.s": layer_self("spca"),
        "spca.candidate_yield": (
            _ratio(counts["spca.candidates"], counts["spca.cells"]), "ratio"
        ),
        "spca.candidates": count(counts["spca.candidates"]),
        "spca.cells": count(counts["spca.cells"]),
        "spca_ds.self.s": layer_self("spca_ds"),
        "spca_ds.family_yield": (
            _ratio(counts["spca_ds.families"], counts["spca_ds.regions"]), "ratio"
        ),
        "spca_ds.families": count(counts["spca_ds.families"]),
        "spca_ds.regions": count(counts["spca_ds.regions"]),
        "cli.ingest.s": seconds("cli.ingest"),
        "cli.self.s": seconds("cli.main"),
        "trace.overhead_ratio": (_ratio(traced_s, untraced_s), "ratio"),
        "trace.traced_pass_s": (traced_s / passes, "s"),
        "trace.untraced_pass_s": (untraced_s / passes, "s"),
        "trace.self_coverage": (_ratio(sum(selfs.values()), traced_s), "ratio"),
    }


def layer_shares(tracer, layers) -> dict[str, float]:
    """Share of all traced self time spent in each layer."""
    selfs = tracer.self_times()
    total = sum(selfs.values())
    shares = dict.fromkeys(layers, 0.0)
    for name, value in selfs.items():
        shares[name.split(".")[0]] += value / total if total else 0.0
    return shares


def run_traced(workloads, specs, seed: int, workdir: Path, seconds: float,
               trace_path: Path) -> dict:
    """Untraced and traced solves of each instance, alternating which goes
    first; each pass draws fresh matrices."""
    import tracing

    tracer = tracing.Tracer()
    patch = tracing.LayerPatch(tracer)
    traced_s = untraced_s = 0.0
    attempted = failed = passes = 0
    started = perf_counter()
    while passes == 0 or perf_counter() - started < seconds:
        instances, references = draw_pass(workloads, specs, seed, passes, workdir)
        for idx, instance in enumerate(instances):
            order = (False, True) if (passes + idx) % 2 == 0 else (True, False)
            for with_trace in order:
                if with_trace:
                    tracer.request += 1
                    with patch.installed():
                        elapsed, ok = timed_solve(workloads, instance, references[idx])
                    traced_s += elapsed
                else:
                    elapsed, ok = timed_solve(workloads, instance, references[idx])
                    untraced_s += elapsed
                attempted += 1
                failed += not ok
        passes += 1
    tracer.write(trace_path)
    return {
        "attempted": attempted, "failed": failed, "passes": passes,
        "metrics": layer_metrics(tracer, passes, traced_s, untraced_s),
        "shares": layer_shares(tracer, tracing.LAYERS),
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    checkout.use_checkout_source()
    import workloads

    setup_s = raw_setup_s = None
    if not args.trace:
        setup_s, raw_setup_s = measure_setup(args.workload, args.seed)
    checkout.OUTPUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=checkout.OUTPUT))
    specs = workloads.SPECS[args.workload]
    try:
        workloads.warm_up(args.workload, args.seed, workdir / "warmup")
        if args.trace:
            trace_path = checkout.OUTPUT / "traces" / f"{args.workload}-seed{args.seed}.csv.gz"
            result = run_traced(workloads, specs, args.seed, workdir, args.seconds, trace_path)
        else:
            result = run_untraced(workloads, specs, args.seed, workdir, args.seconds)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            result["metrics"]["setup_s"] = (setup_s, "s")
            result["raw"]["setup_s"] = raw_setup_s
            result["metrics"]["peak_rss_mb"] = (peak_mb, "MiB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = result["attempted"], result["failed"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{result['passes']:.2f} passes over {len(specs)} instances, "
          f"solves={attempted}, failed={failed}, fail_ratio={failed / attempted}")
    if "raw" in result:
        print("unscaled: " + json.dumps(result["raw"]))
    if "shares" in result:
        print("layer shares of traced self time: " + json.dumps(result["shares"]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
