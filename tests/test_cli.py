import json
import warnings

import numpy as np
import pytest

from exactspca.cli import ingest, main
from exactspca.errors import AsymmetryTooLarge, NotSquare, ParseError


def _write(tmp_path, name, matrix):
    path = tmp_path / name
    np.savetxt(path, np.asarray(matrix, dtype=float), delimiter=",")
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestIngest:
    def test_samples_centering(self, tmp_path):
        path = _write(tmp_path, "q.csv", [[1.0, -1.0], [0.0, 0.0]])
        kmatrix = ingest(path, "samples")
        assert np.allclose(kmatrix, [[1.0, 0.0], [0.0, 0.0]])

    def test_covariance_passthrough(self, tmp_path):
        path = _write(tmp_path, "k.csv", np.eye(3))
        assert np.allclose(ingest(path, "covariance"), np.eye(3))

    def test_asymmetry_rejected(self, tmp_path):
        bad = np.eye(3)
        bad[0, 1] = 1e-3
        path = _write(tmp_path, "bad.csv", bad)
        with pytest.raises(AsymmetryTooLarge):
            ingest(path, "covariance")

    def test_not_square(self, tmp_path):
        path = _write(tmp_path, "rect.csv", np.ones((2, 3)))
        with pytest.raises(NotSquare):
            ingest(path, "covariance")

    def test_parse_error(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("a,b\nc,d\n")
        with pytest.raises(ParseError):
            ingest(str(path), "covariance")


    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected(self, tmp_path, bad):
        path = _write(tmp_path, "k.csv", np.diag([bad, 1.0]))
        with pytest.raises(ParseError):
            ingest(path, "covariance")
        with pytest.raises(ParseError):
            ingest(path, "samples")


class TestCommands:
    def test_solve_spca_diagonal(self, tmp_path, capsys):
        path = _write(tmp_path, "k.csv", np.diag([3.0, 2.0, 1.0]))
        code, doc = _run(capsys, ["solve-spca", "--input", path, "--d", "1", "--s", "1"])
        assert code == 0
        assert doc["objective"] == pytest.approx(3.0, abs=1e-9)
        assert doc["supports"] == [[1]]  # 1-based
        assert doc["schema_version"] == 1

    def test_oracle_matches_solver(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        factor = rng.standard_normal((5, 2))
        path = _write(tmp_path, "k.csv", (factor @ factor.T + (factor @ factor.T).T) / 2)
        _, solved = _run(capsys, ["solve-spca", "--input", path, "--d", "1", "--s", "2"])
        _, oracle = _run(capsys, ["oracle-spca", "--input", path, "--d", "1", "--s", "2"])
        assert solved["objective"] == pytest.approx(oracle["objective"], rel=1e-8)

    def test_predicted_cells_bound_cells(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        factor = rng.standard_normal((5, 2))
        path = _write(tmp_path, "k.csv", (factor @ factor.T + (factor @ factor.T).T) / 2)
        code, doc = _run(capsys, ["solve-spca", "--input", path, "--d", "1", "--s", "2"])
        assert code == 0
        # The vertex count is computed before any vertex is read.
        assert 1 <= doc["diagnostics"]["cells"] == doc["diagnostics"]["predicted_cells"]
        assert doc["diagnostics"]["extended_dim"] == 2
        assert doc["solver"]["mode"] == "exact"

    def test_extended_dim_rank3_spannogram(self, tmp_path, capsys):
        # From n = 8 on, rank 3 is past the braid (n - 1 <= 6) and cuts R^3.
        rng = np.random.default_rng(4)
        factor = rng.standard_normal((8, 3))
        path = _write(tmp_path, "k.csv", (factor @ factor.T + (factor @ factor.T).T) / 2)
        code, doc = _run(capsys, ["solve-spca", "--input", path, "--d", "1", "--s", "2"])
        assert code == 0
        assert doc["problem"]["rank"] == 3
        assert doc["diagnostics"]["extended_dim"] == 3

    @pytest.mark.parametrize("flag", [["--mode", "randomized-cells"], ["--seed", "3"]])
    def test_sampling_flags_rejected(self, tmp_path, capsys, flag):
        path = _write(tmp_path, "k.csv", np.eye(3))
        with pytest.raises(SystemExit):
            main(["solve-spca", "--input", path, "--d", "1", "--s", "1", *flag])
        capsys.readouterr()

    def test_solve_spca_ds(self, tmp_path, capsys):
        q = np.array([3.0, 2.0, 1.0])
        path = _write(tmp_path, "k.csv", np.outer(q, q))
        code, doc = _run(
            capsys, ["solve-spca-ds", "--input", path, "--d", "2", "--s", "1"]
        )
        assert code == 0
        assert doc["objective"] == pytest.approx(13.0, rel=1e-9)
        assert doc["supports"] == [[1], [2]]
        assert doc["diagnostics"]["circulation_solves"] >= 1

    def test_solve_spca_ds_solves_per_family(self, tmp_path, capsys):
        # The torus at n > 2s: one circulation per family covers its regions.
        factor = np.random.default_rng(4).standard_normal((5, 2))
        path = _write(tmp_path, "k.csv", factor @ factor.T)
        code, doc = _run(
            capsys, ["solve-spca-ds", "--input", path, "--d", "2", "--s", "2"]
        )
        assert code == 0
        diag = doc["diagnostics"]
        assert 1 <= diag["candidates"] <= diag["circulation_solves"] < diag["cells"]
        assert set(diag["stage_ms"]) >= {"regions", "circulations"}

    @pytest.mark.parametrize("r,d,swept", [(2, 2, True), (2, 1, False), (1, 2, False),
                                           (3, 2, False)])
    def test_solve_spca_ds_reports_sweep_lines(self, tmp_path, capsys, r, d, swept):
        # Only rank 2 with two components sweeps the torus of block angles;
        # rank 3 walks the chart, one facet LP at a time.  Both run at n > 2s
        # only: below, two components are read as top sets.
        factor = np.random.default_rng(4).standard_normal((5, r))
        path = _write(tmp_path, "k.csv", factor @ factor.T)
        code, doc = _run(
            capsys, ["solve-spca-ds", "--input", path, "--d", str(d), "--s", "2"]
        )
        assert code == 0
        assert doc["problem"]["rank"] == r
        assert (doc["diagnostics"]["sweep_lines"] > 0) == swept
        assert (doc["diagnostics"]["facet_lps"] > 0) == (r == 3)

    @pytest.mark.parametrize("r,d", [(2, 2), (2, 1), (1, 2)])
    def test_solve_spca_ds_reports_dropped_witnesses(self, tmp_path, capsys, r, d):
        # Torus sign keys whose arcs all fail the witness margin; only the
        # rank-2, two-component sweep at s >= 2 can drop any.
        factor = np.random.default_rng(4).standard_normal((3, r))
        path = _write(tmp_path, "k.csv", factor @ factor.T)
        code, doc = _run(
            capsys, ["solve-spca-ds", "--input", path, "--d", str(d), "--s", "2"]
        )
        assert code == 0
        dropped = doc["diagnostics"]["dropped_witnesses"]
        assert isinstance(dropped, int) and dropped >= 0
        if (r, d) != (2, 2):
            assert dropped == 0

    @pytest.mark.parametrize("n,d,dim", [(6, 1, 2), (5, 1, 2), (4, 1, 3), (5, 2, 6), (3, 2, 2)])
    def test_solve_spca_ds_reports_extended_dim(self, tmp_path, capsys, n, d, dim):
        # At rank 2, d = 1 is sparse PCA: the sectors of R^2 from n = 5 and
        # the braid of the lift, R^3, below; d = 2 cuts the lift of both
        # columns, R^6, at n > 2s, and reads top sets in the trace-free
        # plane, R^2, at n <= 2s.
        factor = np.random.default_rng(4).standard_normal((n, 2))
        path = _write(tmp_path, "k.csv", factor @ factor.T)
        code, doc = _run(
            capsys, ["solve-spca-ds", "--input", path, "--d", str(d), "--s", "2"]
        )
        assert code == 0
        assert doc["problem"]["rank"] == 2
        assert doc["diagnostics"]["extended_dim"] == dim

    def test_factor_reports_rank(self, tmp_path, capsys):
        path = _write(tmp_path, "k.csv", [[4.0, 2.0], [2.0, 1.0]])
        code, doc = _run(capsys, ["factor", "--input", path])
        assert code == 0
        assert doc["problem"]["rank"] == 1

    @pytest.mark.parametrize("command", ["solve-spca", "solve-spca-ds", "factor"])
    def test_factor_time_reported(self, tmp_path, capsys, command):
        factor = np.random.default_rng(4).standard_normal((4, 2))
        path = _write(tmp_path, "k.csv", factor @ factor.T)
        code, doc = _run(capsys, [command, "--input", path, "--d", "1", "--s", "1"])
        assert code == 0
        stage_ms = doc["diagnostics"]["stage_ms"]
        assert set(stage_ms) >= {"ingest", "factor"}
        assert stage_ms["factor"] >= 0.0

    def test_samples_kind(self, tmp_path, capsys):
        path = _write(tmp_path, "q.csv", [[1.0, -1.0], [0.0, 0.0]])
        code, doc = _run(
            capsys,
            ["solve-spca", "--input", path, "--kind", "samples", "--d", "1", "--s", "1"],
        )
        assert code == 0
        assert doc["objective"] == pytest.approx(1.0, abs=1e-9)


class TestExitCodes:
    def test_invalid_parameters(self, tmp_path, capsys):
        path = _write(tmp_path, "k.csv", np.eye(3))
        code = main(["solve-spca", "--input", path, "--d", "2", "--s", "1"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("tol_rank", ["2", "inf", "nan", "-1"])
    @pytest.mark.parametrize("command", ["solve-spca", "solve-spca-ds", "factor"])
    def test_unusable_tol_rank(self, tmp_path, capsys, command, tol_rank):
        # Before the check, 2 and inf solved at rank 0 (objective 0.0 where
        # the oracle gives 5.2), NaN failed as a zero hyperplane normal and
        # -1 as an indefinite PSD matrix.
        factor = np.random.default_rng(0).standard_normal((5, 2))
        path = _write(tmp_path, "k.csv", factor @ factor.T)
        code = main([command, "--input", path, "--d", "2", "--s", "2", "--tol-rank", tol_rank])
        assert "tol_rank" in capsys.readouterr().err
        assert code == 2

    def test_input_errors(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        assert main(["solve-spca", "--input", missing, "--d", "1", "--s", "1"]) == 3
        rect = _write(tmp_path, "rect.csv", np.ones((2, 3)))
        assert main(["solve-spca", "--input", rect, "--d", "1", "--s", "1"]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("kind", ["covariance", "samples"])
    @pytest.mark.parametrize("text", ["", "\n\n"])
    def test_empty_input(self, tmp_path, capsys, kind, text):
        # A file without data is an input problem, for either kind, and no
        # numpy warning reaches stderr.
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with pytest.raises(ParseError):
            ingest(str(path), kind)
        for command in ("solve-spca", "solve-spca-ds"):
            argv = [command, "--input", str(path), "--kind", kind, "--d", "1", "--s", "1"]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(argv) == 3
            err = capsys.readouterr().err
            assert "no data" in err and "Warning" not in err

    @pytest.mark.parametrize("target", ["missing/out.json", "."])
    def test_unwritable_output(self, tmp_path, capsys, target):
        # A missing parent directory or a directory as --out is a file
        # problem, reported on stderr, not a traceback.
        path = _write(tmp_path, "k.csv", np.diag([2.0, 1.0]))
        out = str(tmp_path / target)
        code = main(["solve-spca", "--input", path, "--d", "1", "--s", "1", "--out", out])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("error: ") and captured.out == ""

    def test_solver_failure(self, tmp_path, capsys):
        indefinite = _write(tmp_path, "ind.csv", [[1.0, 2.0], [2.0, 1.0]])
        code = main(["solve-spca", "--input", indefinite, "--d", "1", "--s", "1"])
        capsys.readouterr()
        assert code == 4

    @pytest.mark.parametrize("command", ["solve-spca", "solve-spca-ds"])
    def test_indefinite_past_a_zero_residual(self, tmp_path, capsys, command):
        # Eigenvalue 1 - sqrt(2), seen only at the second pivot, after row
        # 1's residual has fallen to 0 as a twin's does.
        kmatrix = [[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]]
        indefinite = _write(tmp_path, "ind.csv", kmatrix)
        code = main([command, "--input", indefinite, "--d", "1", "--s", "1"])
        capsys.readouterr()
        assert code == 4


    @pytest.mark.parametrize("command", ["solve-spca", "solve-spca-ds"])
    def test_indefinite_between_zero_residuals(self, tmp_path, capsys, command):
        # Eigenvalue -1 in the off-diagonal entries between two rows whose
        # residuals are 0 after the first pivot: rank 1 with objective 1.0
        # unless K is compared with R R^T.
        kmatrix = [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
        indefinite = _write(tmp_path, "ind.csv", kmatrix)
        code = main([command, "--input", indefinite, "--d", "1", "--s", "1"])
        assert "R R^T" in capsys.readouterr().err
        assert code == 4

    def test_too_degenerate_tie(self, tmp_path, capsys):
        # 30 features tie at one vertex with 15 to fill: C(30, 15) fills.
        factor = np.zeros((36, 3))
        factor[:30, :2] = np.random.default_rng(0).standard_normal((30, 2))
        factor[30:, 2] = 3.0
        path = _write(tmp_path, "k.csv", factor @ factor.T)
        code = main(["solve-spca", "--input", path, "--d", "1", "--s", "21"])
        assert "fill" in capsys.readouterr().err
        assert code == 4

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_input(self, tmp_path, capsys, bad):
        path = _write(tmp_path, "k.csv", np.diag([bad, 1.0]))
        code = main(["solve-spca", "--input", path, "--d", "1", "--s", "1"])
        capsys.readouterr()
        assert code == 3

    def test_eigensolver_failure(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        path = _write(tmp_path, "k.csv", np.diag([3.0, 2.0, 1.0]))
        code = main(["solve-spca", "--input", path, "--d", "1", "--s", "1"])
        capsys.readouterr()
        assert code == 4

    def test_certificate_failure(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            "exactspca.circulation.is_optimal", lambda *args, **kwargs: (False, None)
        )
        path = _write(tmp_path, "k.csv", np.outer([2.0, 1.0, 1.0], [2.0, 1.0, 1.0]))
        code = main(["solve-spca-ds", "--input", path, "--d", "2", "--s", "1"])
        capsys.readouterr()
        assert code == 4


class TestDocumentContract:
    def test_determinism_modulo_timings(self, tmp_path, capsys):
        rng = np.random.default_rng(11)
        factor = rng.standard_normal((5, 2))
        k = factor @ factor.T
        path = _write(tmp_path, "k.csv", (k + k.T) / 2)
        argv = ["solve-spca", "--input", path, "--d", "2", "--s", "3"]
        _, first = _run(capsys, argv)
        _, second = _run(capsys, argv)
        first["diagnostics"].pop("stage_ms")
        second["diagnostics"].pop("stage_ms")
        assert first == second

    def test_objective_roundtrip(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        factor = rng.standard_normal((5, 2))
        k = (factor @ factor.T + (factor @ factor.T).T) / 2
        path = _write(tmp_path, "k.csv", k)
        _, doc = _run(capsys, ["solve-spca", "--input", path, "--d", "2", "--s", "3"])
        x = np.array(doc["components"]).T  # columns are components
        recomputed = float(np.trace(x.T @ k @ x))
        assert doc["objective"] == pytest.approx(recomputed, rel=1e-8)
        supports = doc["supports"][0]
        assert all(1 <= j <= 5 for j in supports)

    def test_output_file(self, tmp_path, capsys):
        path = _write(tmp_path, "k.csv", np.diag([2.0, 1.0]))
        out = tmp_path / "result.json"
        code = main(["solve-spca", "--input", path, "--d", "1", "--s", "1",
                     "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["objective"] == pytest.approx(2.0, abs=1e-9)
