"""Command-line front end: CSV in, JSON out.

Commands
--------
solve-spca      exact sparse PCA
solve-spca-ds   exact sparse PCA with disjoint supports
oracle-spca     brute-force reference for solve-spca
oracle-spca-ds  brute-force reference for solve-spca-ds
factor          pivoted Cholesky factorization report

Input files are plain CSV of reals without a header.  ``--kind covariance``
expects a square symmetric matrix; ``--kind samples`` expects features in
rows and samples in columns and builds the covariance by centering each row
and scaling by the number of samples.  Supports in the output are 1-based.

Exit codes: 0 success, 2 invalid parameters, 3 input or output file
problems, 4 solver failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings

import numpy as np

from . import __version__
from .errors import (
    AsymmetryTooLarge,
    ExactSpcaError,
    InvalidParameters,
    NotSquare,
    ParseError,
)
from .linalg import DEFAULT_RANK_TOL, pivoted_cholesky
from .oracle import brute_force_spca, brute_force_spca_ds
from .spca import SpcaInstance, solve_spca
from .spca_ds import SpcaDsInstance, solve_spca_ds

SCHEMA_VERSION = 1


def ingest(input_path: str, kind: str) -> np.ndarray:
    """Load a covariance matrix from CSV, or build one from raw samples."""
    try:
        with warnings.catch_warnings():
            # numpy warns on a file without data; that is reported below.
            warnings.simplefilter("ignore", UserWarning)
            raw = np.loadtxt(input_path, delimiter=",", ndmin=2, dtype=float)
    except OSError:
        raise
    except Exception as exc:
        raise ParseError(f"could not parse {input_path!r} as numeric CSV: {exc}") from exc
    if raw.size == 0:
        raise ParseError(f"{input_path!r} holds no data")
    if not np.all(np.isfinite(raw)):
        raise ParseError(f"{input_path!r} holds NaN or infinite entries")
    if kind == "covariance":
        if raw.shape[0] != raw.shape[1]:
            raise NotSquare(f"covariance must be square, got shape {raw.shape}")
        gap = float(np.max(np.abs(raw - raw.T)))
        scale = float(np.max(np.abs(raw)))
        if gap > 1e-9 * max(scale, 1.0):
            raise AsymmetryTooLarge(
                f"asymmetry {gap:.3e} exceeds 1e-9 * max entry {scale:.3e}"
            )
        return (raw + raw.T) / 2.0
    if kind == "samples":
        centered = raw - raw.mean(axis=1, keepdims=True)
        kmatrix = centered @ centered.T / raw.shape[1]
        return (kmatrix + kmatrix.T) / 2.0
    raise InvalidParameters(f"unknown input kind {kind!r}")


def _supports_1based(supports) -> list[list[int]]:
    return [[int(j) + 1 for j in support] for support in supports]


def _components(x: np.ndarray) -> list[list[float]]:
    return [[float(v) for v in x[:, col]] for col in range(x.shape[1])]


def _spca_document(solution, n: int, d: int, s: int) -> dict:
    diag = solution.diagnostics
    return {
        "problem": {"n": n, "d": d, "s": s, "rank": diag.rank},
        "objective": solution.objective,
        "supports": _supports_1based([solution.support]),
        "components": _components(solution.x),
        "diagnostics": {
            "cells": diag.cells_enumerated,
            "predicted_cells": diag.predicted_cells,
            "extended_dim": diag.extended_dim,
            "candidates": diag.candidates_evaluated,
            "circuits": None,
            "circulation_solves": None,
            "hyperplanes": diag.hyperplanes,
            "nonzero_rows": diag.nonzero_rows,
            "stage_ms": dict(diag.stage_ms),
        },
    }


def _spca_ds_document(solution, n: int, d: int, s: int) -> dict:
    diag = solution.diagnostics
    return {
        "problem": {"n": n, "d": d, "s": s, "rank": diag.rank},
        "objective": solution.objective,
        "supports": _supports_1based(solution.supports),
        "components": _components(solution.x),
        "diagnostics": {
            "cells": diag.cells_enumerated,
            "extended_dim": diag.extended_dim,
            "candidates": diag.candidates_evaluated,
            "circuits": diag.circuits_enumerated,
            "circuits_pruned": diag.circuits_pruned,
            "circulation_solves": diag.circulation_solves,
            "facet_lps": diag.facet_lps,
            "hyperplanes": diag.hyperplanes,
            "sweep_lines": diag.sweep_lines,
            "dropped_witnesses": diag.dropped_witnesses,
            "completions": diag.completions_in_best,
            "stage_ms": dict(diag.stage_ms),
        },
    }


def _oracle_document(report, n: int, d: int, s: int, disjoint: bool) -> dict:
    if disjoint:
        supports = _supports_1based(report.argmax_supports[0])
        all_optima = [_supports_1based(family) for family in report.argmax_supports]
    else:
        supports = _supports_1based([report.argmax_supports[0]])
        all_optima = [_supports_1based([sup]) for sup in report.argmax_supports]
    return {
        "problem": {"n": n, "d": d, "s": s, "rank": None},
        "objective": report.objective,
        "supports": supports,
        "components": [],
        "diagnostics": {
            "cells": None,
            "candidates": None,
            "circuits": None,
            "circulation_solves": None,
            "instances_enumerated": report.instances_enumerated,
            "all_optimal_supports": all_optima,
            "stage_ms": {},
        },
    }


def _timed(call, *args):
    """``call(*args)`` and its wall time in milliseconds."""
    tick = time.perf_counter()
    result = call(*args)
    return result, (time.perf_counter() - tick) * 1000.0


def run(args: argparse.Namespace) -> dict:
    """Dispatch one parsed command; returns the result document."""
    kmatrix, ingest_ms = _timed(ingest, args.input, args.kind)
    n = kmatrix.shape[0]

    command = args.command
    if command == "factor":
        factor, factor_ms = _timed(pivoted_cholesky, kmatrix, args.tol_rank)
        document = {
            "problem": {"n": n, "d": None, "s": None, "rank": factor.rank},
            "objective": None,
            "supports": [],
            "components": [],
            "factor": [[float(v) for v in row] for row in factor.factor],
            "diagnostics": {"stage_ms": {"ingest": ingest_ms, "factor": factor_ms}},
        }
    elif command == "solve-spca":
        instance, factor_ms = _timed(SpcaInstance.build, kmatrix, args.d, args.s,
                                     args.tol_rank)
        document = _spca_document(solve_spca(instance), n, args.d, args.s)
        document["diagnostics"]["stage_ms"].update(ingest=ingest_ms, factor=factor_ms)
    elif command == "solve-spca-ds":
        instance, factor_ms = _timed(SpcaDsInstance.build, kmatrix, args.d, args.s,
                                     args.tol_rank)
        document = _spca_ds_document(solve_spca_ds(instance), n, args.d, args.s)
        document["diagnostics"]["stage_ms"].update(ingest=ingest_ms, factor=factor_ms)
    elif command == "oracle-spca":
        report = brute_force_spca(kmatrix, args.d, args.s)
        document = _oracle_document(report, n, args.d, args.s, disjoint=False)
    elif command == "oracle-spca-ds":
        report = brute_force_spca_ds(kmatrix, args.d, args.s)
        document = _oracle_document(report, n, args.d, args.s, disjoint=True)
    else:  # pragma: no cover - argparse restricts the choices
        raise InvalidParameters(f"unknown command {command!r}")

    document["schema_version"] = SCHEMA_VERSION
    document["solver"] = {
        "name": "exactspca",
        "version": __version__,
        "command": args.command,
        "mode": "exact",
    }
    return document


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exactspca",
        description="Exact sparse PCA solvers for low-rank covariance matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", required=True, help="CSV matrix file")
    common.add_argument(
        "--kind", choices=("covariance", "samples"), default="covariance",
        help="covariance: square symmetric matrix; samples: rows are features",
    )
    common.add_argument("--d", type=int, default=1, help="number of components")
    common.add_argument("--s", type=int, default=1, help="support size bound")
    common.add_argument("--tol-rank", type=float, default=DEFAULT_RANK_TOL,
                        dest="tol_rank", help="numerical rank threshold")
    common.add_argument("--out", default=None, help="output JSON path (default stdout)")
    for name in ("solve-spca", "solve-spca-ds", "oracle-spca", "oracle-spca-ds", "factor"):
        sub.add_parser(name, parents=[common])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        document = run(args)
    except InvalidParameters as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, NotSquare, AsymmetryTooLarge, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ExactSpcaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    payload = json.dumps(document, indent=2, sort_keys=True)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
    else:
        print(payload)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
