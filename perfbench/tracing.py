"""Spans around the calls into each exactspca layer, recorded from outside.

The benchmark never edits the package: it rebinds the public layer functions
under the names their calling modules use (``exactspca.spca.enumerate_cells``,
``exactspca.spca_ds.solve_max_profit``, ...) to timing wrappers, and restores
the originals when the traced solve returns.  The benchmark's own entry
points (``workloads.solve_spca``, ``workloads.cli_main``, ...) are rebound
the same way.  Spans stay in memory until the
run ends.  A span's self time is its duration minus the durations of its
direct children, so the self times of all spans add up to the root spans.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("arrangement", "circulation", "extension", "linalg", "spca", "spca_ds", "cli")


class Tracer:
    """In-memory span recorder with per-boundary counters."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self.counts: Counter = Counter()
        self.request = -1  # id shared by the spans of one solve
        self._open: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one span per call; ``count`` sees the call's result."""
        names, starts, ends = self.names, self.starts, self.ends
        parents, requests, stack = self.parents, self.requests, self._open

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.request)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        child_time = [0.0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[idx] - self.starts[idx]
        totals: dict[str, float] = defaultdict(float)
        for idx, name in enumerate(self.names):
            totals[name] += self.ends[idx] - self.starts[idx] - child_time[idx]
        return totals

    def calls(self) -> Counter:
        return Counter(self.names)

    def write(self, path: Path) -> None:
        """All spans as gzipped CSV: request, span, parent, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("request,span,parent,name,start_s,end_s\n")
            for idx, name in enumerate(self.names):
                handle.write(
                    f"{self.requests[idx]},{idx},{self.parents[idx]},{name},"
                    f"{self.starts[idx]!r},{self.ends[idx]!r}\n"
                )


def _count_len(key):
    def count(counts, args, result):
        counts[key] += len(result)

    return count


def _count_dedup(counts, args, result):
    counts["arrangement.dedup_offered"] += len(args[0])
    counts["arrangement.dedup_kept"] += len(result)


def count_spca(counts, args, result):
    counts["spca.cells"] += result.diagnostics.cells_enumerated
    counts["spca.candidates"] += result.diagnostics.candidates_evaluated


def count_spca_ds(counts, args, result):
    counts["spca_ds.regions"] += result.diagnostics.cells_enumerated
    counts["spca_ds.families"] += result.diagnostics.candidates_evaluated


def _traced_keep_cell(tracer: Tracer, fn):
    """``enumerate_affine_cells`` with its ``keep_cell`` callback traced.

    The callback is spca_ds code running inside the arrangement call, so its
    time belongs to spca_ds.
    """

    def call(*args, **kwargs):
        keep = kwargs.get("keep_cell")
        if keep is not None:
            kwargs["keep_cell"] = tracer.wrap("spca_ds.keep_cell", keep)
        return fn(*args, **kwargs)

    return call


class LayerPatch:
    """Wrappers for every layer boundary the solvers cross, installable."""

    def __init__(self, tracer: Tracer):
        spca = importlib.import_module("exactspca.spca")
        spca_ds = importlib.import_module("exactspca.spca_ds")
        cli = importlib.import_module("exactspca.cli")
        workloads = importlib.import_module("workloads")
        targets = [
            (workloads, "build_spca", "spca.build", None),
            (workloads, "solve_spca", "spca.solve_spca", count_spca),
            (workloads, "build_spca_ds", "spca_ds.build", None),
            (workloads, "solve_spca_ds", "spca_ds.solve_spca_ds", count_spca_ds),
            (workloads, "cli_main", "cli.main", None),
            (spca, "pivoted_cholesky", "linalg.pivoted_cholesky", None),
            (spca, "solve_pca", "linalg.solve_pca", None),
            (spca, "build_row_functional", "extension.functionals", None),
            (spca, "dedup_hyperplanes", "arrangement.dedup_hyperplanes", _count_dedup),
            (spca, "enumerate_cells", "arrangement.enumerate_cells",
             _count_len("arrangement.cells")),
            (spca_ds, "pivoted_cholesky", "linalg.pivoted_cholesky", None),
            (spca_ds, "solve_pca", "linalg.solve_pca", None),
            (spca_ds, "build_arc_functional", "extension.functionals", None),
            (spca_ds, "build_circuit_functional", "extension.functionals", None),
            (spca_ds, "enumerate_undirected_circuits", "circulation.enumerate_circuits",
             _count_len("circulation.circuits")),
            (spca_ds, "solve_max_profit", "circulation.solve_max_profit", None),
            (spca_ds, "supports_from_circulation",
             "circulation.supports_from_circulation", None),
            (spca_ds, "dedup_hyperplanes", "arrangement.dedup_hyperplanes", _count_dedup),
            (spca_ds, "enumerate_affine_cells", "arrangement.enumerate_affine_cells",
             _count_len("arrangement.affine_cells")),
            (cli, "ingest", "cli.ingest", None),
            (cli, "solve_spca", "spca.solve_spca", count_spca),
            (cli, "solve_spca_ds", "spca_ds.solve_spca_ds", count_spca_ds),
        ]
        self._bindings = []
        for module, attr, name, count in targets:
            original = getattr(module, attr)
            inner = original
            if attr == "enumerate_affine_cells":
                inner = _traced_keep_cell(tracer, original)
            self._bindings.append((module, attr, original, tracer.wrap(name, inner, count)))

    @contextlib.contextmanager
    def installed(self):
        try:
            for module, attr, _, wrapped in self._bindings:
                setattr(module, attr, wrapped)
            yield
        finally:
            for module, attr, original, _ in self._bindings:
                setattr(module, attr, original)
