"""End-to-end command-line workflow on a temporary CSV file.

Writes a covariance to a temporary directory (removed on exit), runs the
solver and the oracle through the CLI entry point, checks the JSON
documents agree, and runs the disjoint-supports solver on the same file.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

with tempfile.TemporaryDirectory() as tmp:
    workdir = Path(tmp)
    rng = np.random.default_rng(13)
    factor = rng.standard_normal((4, 2))
    kmatrix = (factor @ factor.T + (factor @ factor.T).T) / 2.0  # rank two
    csv_path = workdir / "covariance.csv"
    np.savetxt(csv_path, kmatrix, delimiter=",")

    base = [sys.executable, "-m", "exactspca"]
    common = ["--input", str(csv_path), "--d", "2", "--s", "2"]

    solved = json.loads(
        subprocess.run(base + ["solve-spca"] + common, check=True,
                       capture_output=True, text=True).stdout
    )
    oracle = json.loads(
        subprocess.run(base + ["oracle-spca"] + common, check=True,
                       capture_output=True, text=True).stdout
    )
    print(f"solve-spca objective: {solved['objective']}")
    print(f"oracle-spca objective: {oracle['objective']}")
    print(f"support (1-based): {solved['supports']}")
    assert abs(solved["objective"] - oracle["objective"]) < 1e-8

    factored = json.loads(
        subprocess.run(base + ["factor", "--input", str(csv_path)], check=True,
                       capture_output=True, text=True).stdout
    )
    print(f"factor rank: {factored['problem']['rank']}")

    disjoint = json.loads(
        subprocess.run(base + ["solve-spca-ds"] + common, check=True,
                       capture_output=True, text=True).stdout
    )
    print(f"solve-spca-ds: objective {disjoint['objective']:.4f}, "
          f"supports {disjoint['supports']}, "
          f"stage timings (ms): { {k: round(v, 1) for k, v in disjoint['diagnostics']['stage_ms'].items()} }")
