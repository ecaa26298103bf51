"""One set-up of a benchmark run, in a fresh process.

Imports exactspca (and the scipy modules it loads), generates the workload's
inputs (CSV files too, for wide-cli) and runs the warm-up solves, then prints
one JSON line with the set-up's wall time and the times of a fixed kernel run
right before and right after it in the same process.  ``run.py`` scales each
set-up by the kernel (see ``calibration.scale``) and reports the median over
several of these processes as ``setup_s``.

The kernel compiles and executes a fixed generated module: parser, compiler
and allocator work of the kind importing does, and nothing that exactspca
imports, so the set-up timing still starts before numpy is loaded.  On a
2-vCPU Xeon VM at 2.0 GHz single set-ups varied 16% (coefficient of
variation over 110 probes), the set-ups scaled by the kernel 8%.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import checkout

REFERENCE_S = 0.1  # kernel time that defines the reference host speed

_KERNEL_SOURCE = "\n".join(
    f"def f{i}(a, b=1, *c, **d):\n"
    f"    x = [a + b * {i} for _ in range(3)]\n"
    f"    return {{'k{i}': x, 'v': (a, b, c, d)}}\n"
    f"class C{i}:\n"
    f"    def m(self, y):\n"
    f"        return y + {i}\n"
    for i in range(600)
)


def kernel_seconds() -> float:
    """Wall time of compiling and executing the fixed kernel module once."""
    started = perf_counter()
    namespace: dict = {}
    exec(compile(_KERNEL_SOURCE, "<setup-kernel>", "exec"), namespace)
    if len(namespace) != 1201:
        raise RuntimeError("set-up kernel produced an unexpected module")
    return perf_counter() - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    kernel_before = kernel_seconds()
    started = perf_counter()
    checkout.use_checkout_source()
    import workloads

    checkout.OUTPUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=checkout.OUTPUT))
    try:
        workloads.generate(workloads.SPECS[args.workload], args.seed, 0, workdir)
        workloads.warm_up(args.workload, args.seed, workdir / "warmup")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup_s = perf_counter() - started
    kernel_after = kernel_seconds()
    print(json.dumps({"setup_s": setup_s, "kernel_s": [kernel_before, kernel_after]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
