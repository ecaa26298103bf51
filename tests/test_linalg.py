import tracemalloc

import numpy as np
import pytest

from exactspca.errors import (
    InvalidParameters,
    NoConvergence,
    NonFiniteInput,
    NotPositiveSemidefinite,
    NotSymmetric,
)
from exactspca.linalg import (
    EigenResult,
    as_symmetric,
    pivoted_cholesky,
    solve_pca,
    symmetric_eig,
    symmetrize,
    top_eigenvalue_sums,
)
from exactspca.spca import SpcaInstance
from exactspca.spca_ds import SpcaDsInstance

from conftest import minor_rank, random_low_rank_psd


def _right_looking_cholesky(kmatrix, tol_rank):
    """The right-looking form of `pivoted_cholesky`: n-by-n Schur updates
    with row and column swaps, K checked against R R^T in one product, and
    a row cut from the later columns once its residual relative to its
    diagonal falls to the pivot's.  The test reference for its factor, rank
    and errors, bit for bit."""
    if not 0.0 <= tol_rank < 1.0:
        raise InvalidParameters(f"need 0 <= tol_rank < 1, got tol_rank={tol_rank}")
    a = as_symmetric(kmatrix).copy()
    n = a.shape[0]
    diagonal = np.diagonal(a).copy()
    base = max(float(np.max(np.diagonal(a))), 0.0)
    stop = tol_rank * base
    neg = -tol_rank * base
    perm = np.arange(n)
    lower = np.zeros((n, n))
    cut = np.full(n, n)
    rank = 0
    for i in range(n):
        d = np.diagonal(a)[i:]
        if float(np.min(d)) < neg:
            raise NotPositiveSemidefinite(
                f"pivot {float(np.min(d)):.3e} below tolerance {neg:.3e}"
            )
        j = i + int(np.argmax(d))
        pivot = float(a[j, j])
        if pivot <= stop:
            break
        if j != i:
            a[:, [i, j]] = a[:, [j, i]]
            a[[i, j], :] = a[[j, i], :]
            lower[[i, j], :] = lower[[j, i], :]
            perm[[i, j]] = perm[[j, i]]
        root = np.sqrt(pivot)
        lower[i:, i] = a[i:, i] / root
        a[i + 1 :, i + 1 :] -= np.outer(lower[i + 1 :, i], lower[i + 1 :, i])
        residue = a[i, i] - lower[i, i] * lower[i, i]
        later = perm[i + 1 :]
        twin = later[np.diagonal(a)[i + 1 :] * diagonal[perm[i]]
                     <= diagonal[later] * abs(residue)]
        cut[np.append(twin, perm[i])] = np.minimum(cut[np.append(twin, perm[i])], i)
        a[i:, i] = 0.0
        a[i, i:] = 0.0
        rank += 1
    factor = np.zeros((n, rank))
    factor[perm, :] = lower[:, :rank]
    bound = stop + 2 * (rank + 1) * np.finfo(float).eps * base
    worst = float(np.abs(as_symmetric(kmatrix) - factor @ factor.T).max())
    if worst > bound:
        raise NotPositiveSemidefinite(
            f"K - R R^T reaches {worst:.3e}, above the bound {bound:.3e}"
        )
    factor[np.arange(rank) > cut[:, None]] = 0.0
    return factor


def _factor_inputs(rng, draws):
    """Symmetric matrices of each kind the factor meets: Gaussian, small
    integer, all-ones, duplicated and negated rows, rows scaled 1e-8 to 1e8,
    zero, and indefinite."""
    for _ in range(draws):
        n = int(rng.integers(1, 10))
        r = int(rng.integers(1, n + 1))
        rows = rng.standard_normal((n, r))
        twins = rows.copy()
        twins[rng.integers(0, n, n // 2)] = (rows[rng.integers(0, n, n // 2)]
                                             * rng.choice([-1.0, 1.0], (n // 2, 1)))
        scaled = rows * 10.0 ** rng.integers(-8, 9, (n, 1))
        for factor in (rows, rng.integers(-3, 4, (n, r)).astype(float), np.ones((n, r)),
                       twins, scaled, np.zeros((n, r))):
            yield symmetrize(factor @ factor.T)
        yield symmetrize(rng.standard_normal((n, n)))


def _outcome(factorize, kmatrix, tol_rank):
    try:
        return factorize(kmatrix, tol_rank)
    except NotPositiveSemidefinite as exc:
        return type(exc), str(exc)


class TestPivotedCholesky:
    @pytest.mark.parametrize("tol_rank", [0.0, 1e-10, 0.5])
    def test_matches_right_looking_bit_for_bit(self, rng, tol_rank):
        raised = 0
        for kmatrix in _factor_inputs(rng, 60):
            expected = _outcome(_right_looking_cholesky, kmatrix, tol_rank)
            got = _outcome(pivoted_cholesky, kmatrix, tol_rank)
            if isinstance(expected, tuple):
                assert got == expected
                raised += 1
                continue
            assert got.rank == expected.shape[1]
            assert np.array_equal(got.factor, expected)
            assert np.array_equal(np.signbit(got.factor), np.signbit(expected))
        assert raised > 0

    def test_working_memory_is_linear_in_n(self):
        # Only the O(n^2) input check, about n^2 bytes of booleans, comes
        # near n^2; the right-looking form peaked at about 24 n^2 bytes.
        n = 1000
        rows = np.random.default_rng(0).standard_normal((n, 2))
        kmatrix = symmetrize(rows @ rows.T)
        tracemalloc.start()
        try:
            factor = pivoted_cholesky(kmatrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert factor.rank == 2
        assert peak < 2 * n * n

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_duplicated_features_keep_identical_rows(self, rng, sign):
        # K is built entry by entry, so twin columns are equal (or opposite)
        # exactly, whatever the BLAS.
        def factor_of(rows):
            return pivoted_cholesky((rows[:, None] * rows[None]).sum(axis=2)).factor

        for _ in range(20):
            # Rank 1: the twin of the one pivot.
            rows = rng.standard_normal((5, 1))
            rows[0] = 3.0 + rng.random()
            rows[4] = sign * rows[0]
            f = factor_of(rows)
            assert f.shape == (5, 1)
            assert np.array_equal(f[4], sign * f[0])
            # Ranks 2 and 3: twins too faint to be pivots.
            for r in (2, 3):
                rows = rng.standard_normal((7, r))
                rows[5] *= 0.1
                rows[6] = sign * rows[5]
                f = factor_of(rows)
                assert f.shape == (7, r)
                assert np.array_equal(f[6], sign * f[5])
            # Rank 2, the twin of the first pivot: equal in the pivot's
            # column, and zero in the next, as is the pivot's row.
            rows = rng.standard_normal((6, 2))
            rows[0] *= 10.0 / np.linalg.norm(rows[0])
            rows[3] = sign * rows[0]
            f = factor_of(rows)
            assert f.shape == (6, 2) and f[0, 1] == 0.0
            assert np.array_equal(f[3], sign * f[0])

    def test_identity(self):
        factor = pivoted_cholesky(np.eye(2))
        assert factor.rank == 2
        assert np.allclose(factor.factor @ factor.factor.T, np.eye(2), atol=1e-12)

    def test_rank_one_example(self):
        kmatrix = np.array([[4.0, 2.0], [2.0, 1.0]])
        factor = pivoted_cholesky(kmatrix)
        assert factor.rank == 1
        assert np.allclose(factor.factor @ factor.factor.T, kmatrix, atol=1e-12)
        assert minor_rank(kmatrix) == 1

    def test_zero_matrix(self):
        factor = pivoted_cholesky(np.zeros((3, 3)))
        assert factor.rank == 0
        assert factor.factor.shape == (3, 0)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveSemidefinite):
            pivoted_cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(NotPositiveSemidefinite):
            pivoted_cholesky(np.array([[0.0, 0.0], [0.0, -1.0]]))
        # Eigenvalue 1 - sqrt(2): row 1's residual is 0 after the first
        # pivot, as a twin's is, and -1 after the second.
        with pytest.raises(NotPositiveSemidefinite):
            pivoted_cholesky(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]]))
        # Eigenvalues -1, 1, 1: every residual is 0 after the first pivot,
        # so only K - R R^T sees the off-diagonal 1s the factor drops.
        with pytest.raises(NotPositiveSemidefinite, match="R R"):
            pivoted_cholesky(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))

    def test_asymmetric_rejected(self):
        bad = np.array([[1.0, 2.0], [2.0 + 1e-7, 1.0]])
        with pytest.raises(NotSymmetric):
            pivoted_cholesky(bad)

    @pytest.mark.parametrize("kmatrix", [
        np.diag([np.inf, 1.0]),
        np.diag([1.0, -np.inf]),
        np.full((2, 2), np.nan),
    ])
    def test_non_finite_rejected(self, kmatrix):
        with pytest.raises(NonFiniteInput):
            as_symmetric(kmatrix)
        with pytest.raises(NonFiniteInput):
            SpcaInstance.build(kmatrix, 1, 1)
        with pytest.raises(NonFiniteInput):
            SpcaDsInstance.build(kmatrix, 1, 1)

    def test_build_checks_k_once(self, monkeypatch):
        calls = []

        def counting(a):
            calls.append(a)
            return as_symmetric(a)

        monkeypatch.setattr("exactspca.linalg.as_symmetric", counting)
        kmatrix = random_low_rank_psd(np.random.default_rng(0), 5, 2)
        for build in (SpcaInstance.build, SpcaDsInstance.build):
            calls.clear()
            instance = build(kmatrix, 1, 2)
            assert len(calls) == 1
            assert instance.kmatrix is kmatrix and instance.rank == 2

    def test_reconstruction_and_rank_random(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 9))
            r = int(rng.integers(0, n + 1))
            kmatrix = random_low_rank_psd(rng, n, r) if r else symmetrize(np.zeros((n, n)))
            factor = pivoted_cholesky(kmatrix)
            scale = 1.0 + float(np.max(np.abs(kmatrix)))
            gap = np.max(np.abs(factor.factor @ factor.factor.T - kmatrix))
            assert gap <= 1e-10 * scale
            assert factor.rank == minor_rank(kmatrix)

    @pytest.mark.parametrize("tol_rank", [2.0, 1.0, np.inf, np.nan, -1.0, -1e-300])
    def test_unusable_tol_rank_rejected(self, tol_rank):
        # At 1 or above every pivot stops the elimination (rank 0); a NaN or
        # negative one misreads a PSD matrix.
        kmatrix = random_low_rank_psd(np.random.default_rng(0), 5, 2)
        for build in (pivoted_cholesky,
                      lambda k, tol: SpcaInstance.build(k, 1, 2, tol),
                      lambda k, tol: SpcaDsInstance.build(k, 2, 2, tol)):
            with pytest.raises(InvalidParameters, match="tol_rank"):
                build(kmatrix, tol_rank)

    @pytest.mark.parametrize("tol_rank", [0.0, 1e-10, 0.5])
    def test_usable_tol_rank_accepted(self, tol_rank):
        kmatrix = np.diag([4.0, 1.0, 0.0])
        assert pivoted_cholesky(kmatrix, tol_rank).rank == (1 if tol_rank >= 0.25 else 2)

    def test_columns_ordered_by_pivot(self, rng):
        kmatrix = random_low_rank_psd(rng, 6, 4)
        factor = pivoted_cholesky(kmatrix)
        norms = np.linalg.norm(factor.factor, axis=0)
        assert np.all(np.diff(norms) <= 1e-9)


class TestSymmetricEig:
    def test_diagonal(self):
        result = symmetric_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(result.eigenvalues, [3.0, 2.0, 1.0])

    def test_two_by_two_example(self):
        # Characteristic polynomial of [[2,1],[1,2]]: (2-x)^2 = 1, roots 3, 1.
        result = symmetric_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(result.eigenvalues, [3.0, 1.0], atol=1e-12)
        expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        assert np.allclose(result.eigenvectors, expected, atol=1e-12)

    def test_identity(self):
        result = symmetric_eig(np.eye(4))
        assert np.allclose(result.eigenvalues, np.ones(4))

    def test_orthonormal_and_residual(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 11))
            a = symmetrize(rng.standard_normal((n, n)))
            result = symmetric_eig(a)
            scale = 1.0 + float(np.max(np.abs(a)))
            assert np.max(np.abs(result.eigenvectors.T @ result.eigenvectors - np.eye(n))) < 1e-10
            residual = a @ result.eigenvectors - result.eigenvectors * result.eigenvalues
            assert np.max(np.abs(residual)) < 1e-9 * scale

    @pytest.mark.parametrize("spectrum", [
        pytest.param([5.0, 5.0, 5.0, 1.0], id="repeated"),
        pytest.param([1.0, 1.0 + 1e-13, 0.0, 0.0, 0.0], id="clustered-rank-deficient"),
        pytest.param([1e-300, 2e-300, 3e-300], id="tiny"),
        pytest.param([1e150, -3e150, 2e150], id="huge"),
    ])
    def test_residual_on_structured_spectra(self, rng, spectrum):
        n = len(spectrum)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = symmetrize(q @ np.diag(spectrum) @ q.T)
        result = symmetric_eig(a)
        vectors, values = result.eigenvectors, result.eigenvalues
        scale = float(np.max(np.abs(spectrum)))
        assert np.max(np.abs(vectors.T @ vectors - np.eye(n))) < 1e-12
        assert np.max(np.abs(a @ vectors - vectors * values)) < 1e-12 * n * scale
        assert np.all(np.diff(values) <= 0.0)
        assert np.allclose(values, np.sort(spectrum)[::-1], rtol=0.0, atol=1e-12 * n * scale)

    def test_top_eigenvalue_sums_match_solve_pca(self, rng):
        grams = rng.standard_normal((30, 4, 4))
        grams = grams @ grams.transpose(0, 2, 1)
        for d in range(1, 5):
            sums = top_eigenvalue_sums(grams, d)
            expected = [solve_pca(symmetrize(g), d)[0] for g in grams]
            assert np.allclose(sums, expected, rtol=1e-12, atol=0.0)

    def test_deterministic_and_sign_convention(self, rng):
        a = symmetrize(rng.standard_normal((6, 6)))
        first = symmetric_eig(a)
        second = symmetric_eig(a)
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.eigenvectors, second.eigenvectors)
        for k in range(6):
            col = first.eigenvectors[:, k]
            nonzero = np.nonzero(col)[0]
            assert col[nonzero[0]] > 0

    def test_lapack_failure_is_no_convergence(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(NoConvergence):
            symmetric_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        with pytest.raises(NoConvergence):
            top_eigenvalue_sums(np.eye(2)[None], 1)

    def test_returns_eigenresult(self):
        assert isinstance(symmetric_eig(np.eye(2)), EigenResult)


class TestSolvePca:
    def test_diagonal(self):
        value, x = solve_pca(np.diag([5.0, 3.0, 1.0]), 2)
        assert value == pytest.approx(8.0, abs=1e-12)
        assert x.shape == (3, 2)

    def test_rank_one(self):
        q = np.array([2.0, 1.0, 0.0])
        value, x = solve_pca(symmetrize(np.outer(q, q)), 1)
        assert value == pytest.approx(5.0, abs=1e-10)
        assert np.allclose(x[:, 0], q / np.linalg.norm(q), atol=1e-10)

    def test_random_psd_matches_sampling_bound(self, rng):
        a = random_low_rank_psd(rng, 4, 4)
        value, _ = solve_pca(a, 2)
        # Exact optimum from an independent eigensolver.
        top2 = np.sort(np.linalg.eigvalsh(a))[::-1][:2].sum()
        assert value == pytest.approx(top2, rel=1e-9)
        # Random orthonormal samples can only lower-bound the optimum.
        best = -np.inf
        for _ in range(2000):
            q, _ = np.linalg.qr(rng.standard_normal((4, 2)))
            best = max(best, float(np.trace(q.T @ a @ q)))
        assert best <= value + 1e-6

    def test_monotone_in_d_and_trace_at_full(self, rng):
        a = random_low_rank_psd(rng, 5, 5)
        values = [solve_pca(a, d)[0] for d in range(1, 6)]
        assert np.all(np.diff(values) >= -1e-12)
        assert values[-1] == pytest.approx(float(np.trace(a)), rel=1e-10)

    def test_value_equals_trace_form(self, rng):
        a = random_low_rank_psd(rng, 6, 3)
        value, x = solve_pca(a, 2)
        assert value == pytest.approx(float(np.trace(x.T @ a @ x)), rel=1e-10)


class TestSpectrumIdentities:
    def test_gram_spectra_agree(self, rng):
        # Top-eigenvalue sums of M M^T and M^T M coincide on the shared rank.
        for _ in range(60):
            s = int(rng.integers(1, 11))
            r = int(rng.integers(1, 5))
            m = rng.standard_normal((s, r))
            big = symmetric_eig(symmetrize(m @ m.T)).eigenvalues
            small = symmetric_eig(symmetrize(m.T @ m)).eigenvalues
            for d in range(1, 6):
                k = min(d, r)
                lhs = float(np.sum(big[:k]))
                rhs = float(np.sum(small[:k]))
                assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs))

    def test_factor_preserves_nonzero_spectrum(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 8))
            r = int(rng.integers(1, n + 1))
            kmatrix = random_low_rank_psd(rng, n, r)
            factor = pivoted_cholesky(kmatrix)
            reconstructed = symmetrize(factor.factor @ factor.factor.T)
            lhs = symmetric_eig(kmatrix).eigenvalues
            rhs = symmetric_eig(reconstructed).eigenvalues
            keep = lhs > 1e-8 * max(1.0, lhs[0])
            assert np.allclose(lhs[keep], rhs[keep], rtol=1e-8)
