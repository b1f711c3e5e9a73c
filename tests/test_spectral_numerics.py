"""Tests for the spectral numerics: Laplacians, Lanczos, tridiagonal QL, eigen front-end."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from repro.spectral import (
    NormalizedLaplacianOperator,
    cluster_bucket,
    degree_vector,
    inv_sqrt_degrees,
    normalized_laplacian,
    top_eigenvectors,
    tridiagonal_eigh,
)
from repro.spectral.eigen import GATE_TOL, eigen_residuals, resolve_backend


def random_affinity(seed, n=12):
    rng = np.random.default_rng(seed)
    A = rng.uniform(0, 1, (n, n))
    S = (A + A.T) / 2
    np.fill_diagonal(S, 0.0)
    return S


class TestLaplacians:
    def test_degree_vector(self):
        S = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert degree_vector(S).tolist() == [1.0, 1.0]

    def test_normalized_matches_formula(self):
        S = random_affinity(0)
        d = S.sum(axis=1)
        expected = S / np.sqrt(np.outer(d, d))
        assert np.allclose(normalized_laplacian(S), expected)

    def test_normalized_eigenvalues_in_unit_interval(self):
        L = normalized_laplacian(random_affinity(1))
        eigs = np.linalg.eigvalsh(L)
        assert eigs.max() <= 1.0 + 1e-10 and eigs.min() >= -1.0 - 1e-10

    def test_normalized_top_eigenvalue_is_one_for_connected(self):
        L = normalized_laplacian(random_affinity(2))
        assert np.linalg.eigvalsh(L).max() == pytest.approx(1.0)

    def test_isolated_vertex_zero_row(self):
        S = np.zeros((3, 3))
        S[0, 1] = S[1, 0] = 1.0  # vertex 2 isolated
        L = normalized_laplacian(S)
        assert np.allclose(L[2], 0.0) and np.isfinite(L).all()

    def test_sparse_dense_agree(self):
        S = random_affinity(3)
        dense = normalized_laplacian(S)
        sparse = normalized_laplacian(sp.csr_matrix(S))
        assert np.allclose(dense, sparse.toarray())

    def test_matches_laplacian_eigenvalue_multiplicity(self, rng):
        """#components == multiplicity of eigenvalue 1 of D^{-1/2}SD^{-1/2}."""
        blocks = []
        for size in (4, 5, 6):
            B = rng.uniform(0.2, 1.0, (size, size))
            B = (B + B.T) / 2
            np.fill_diagonal(B, 0.0)
            blocks.append(B)
        n = sum(b.shape[0] for b in blocks)
        S = np.zeros((n, n))
        pos = 0
        for b in blocks:
            S[pos : pos + b.shape[0], pos : pos + b.shape[0]] = b
            pos += b.shape[0]
        comp, _ = connected_components(S, directed=False)
        eigs = np.linalg.eigvalsh(normalized_laplacian(S))
        mult = int(np.sum(eigs > 1.0 - 1e-9))
        assert comp == mult == 3

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            normalized_laplacian(np.zeros((2, 3)))


def isolated_vertex_affinity():
    """A 30-point random affinity whose vertex 7 has no edges."""
    S = random_affinity(4, n=30)
    S[7, :] = S[:, 7] = 0.0
    return S


def blocks_affinity():
    """Dense 300-point affinity of three weakly joined noisy cliques.

    Its Eq.-2 matrix has three eigenvalues near 1, well apart from the rest.
    """
    rng = np.random.default_rng(0)
    block = np.arange(300) % 3
    same = block[:, None] == block[None, :]
    S = rng.uniform(0.0, 0.01, same.shape)
    S[same] += rng.uniform(0.5, 1.0, same.sum())
    S = (S + S.T) / 2
    np.fill_diagonal(S, 0.0)
    return S


class TestNormalizedLaplacianOperator:
    def test_densifies_to_normalized_laplacian(self):
        """Bit for bit ``S * d[:, None] * d[None, :]``, so a dense solve of the
        operator returns what a dense solve of the formed matrix returns."""
        S = isolated_vertex_affinity()
        L = NormalizedLaplacianOperator(S)
        d = inv_sqrt_degrees(S)
        assert np.array_equal(L.toarray(), S * d[:, None] * d[None, :])
        assert np.array_equal(L.toarray(), normalized_laplacian(S))
        assert np.array_equal(L.d_inv_sqrt, d) and d[7] == 0.0

    def test_frobenius_norm_from_the_gram_block(self):
        S = isolated_vertex_affinity()
        expected = np.linalg.norm(normalized_laplacian(S))
        assert abs(NormalizedLaplacianOperator(S).frobenius_norm() - expected) <= 1e-12 * expected

    def test_products_match_the_explicit_matrix(self):
        S = isolated_vertex_affinity()
        L, dense = NormalizedLaplacianOperator(S), normalized_laplacian(S)
        rng = np.random.default_rng(0)
        v, V = rng.standard_normal(30), rng.standard_normal((30, 4))
        column = V[:, :1]  # scipy routes an (n, 1) product to matvec
        pairs = (
            (L.matvec(v), dense @ v),
            (L.matvec(column), dense @ column),
            (L @ column, dense @ column),
            (L.matmat(V), dense @ V),
            (L @ V, dense @ V),
        )
        for got, want in pairs:
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-14

    @pytest.mark.parametrize("backend", ["arpack", "lanczos"])
    def test_single_eigenpair_matches_dense(self, backend):
        """k = 1 gates a one-column ``V``, the (n, 1) product path."""
        S = blocks_affinity()
        dense_vals, dense_vecs = top_eigenvectors(normalized_laplacian(S), 1, backend="dense")
        vals, vecs, events, _ = traced_solve(NormalizedLaplacianOperator(S), 1, backend)
        (event,) = events["eigen.solve"]
        assert event["solver"] == backend and events["eigen.fallback"] == []
        assert vals == pytest.approx(dense_vals, abs=1e-12)
        assert np.abs(np.abs(vecs.T @ dense_vecs) - 1.0).max() <= 1e-10

    def test_gate_reads_the_same_residual(self):
        S = isolated_vertex_affinity()
        dense = normalized_laplacian(S)
        vals, vecs = top_eigenvectors(dense, 3, backend="dense")
        vecs[:, 1] += 1e-4 * np.random.default_rng(1).standard_normal(30)
        want = eigen_residuals(dense, vals, vecs)
        got = eigen_residuals(NormalizedLaplacianOperator(S), vals, vecs)
        assert got[0] == pytest.approx(want[0], rel=1e-10) and got[1] == want[1]

    def test_cluster_bucket_never_forms_the_laplacian(self, monkeypatch):
        """A 1024-point ARPACK bucket's transient memory stays far below its
        Gram block: neither ``normalized_laplacian`` nor the operator's dense
        form runs, and the solve stays iterative."""
        import sys

        from repro.data import make_blobs
        from repro.kernels import GaussianKernel, gram_matrix
        from repro.observability import Tracer, use_tracer
        from repro.utils import traced_peak

        def formed(*args, **kwargs):
            raise AssertionError("the Eq.-2 matrix was formed")

        for module in list(sys.modules.values()):
            if getattr(module, "normalized_laplacian", None) is normalized_laplacian:
                monkeypatch.setattr(module, "normalized_laplacian", formed)
        monkeypatch.setattr(NormalizedLaplacianOperator, "toarray", formed)
        X, _ = make_blobs(n_samples=1024, n_clusters=4, n_features=8, cluster_std=0.05, seed=0)
        S = gram_matrix(X, GaussianKernel(0.3), zero_diagonal=True)
        assert resolve_backend("auto", 1024, 4) == "arpack"

        tracer = Tracer()
        with use_tracer(tracer):
            bucket, peak = traced_peak(lambda: cluster_bucket(1024, 4, S, 0))
        solves = [r["attributes"] for r in tracer.sink.records if r["name"] == "eigen.solve"]
        assert [e["solver"] for e in solves] == ["arpack"]
        assert bucket.mode == "nystrom" and np.array_equal(bucket.d_inv_sqrt, inv_sqrt_degrees(S))
        assert peak < S.nbytes / 2, (peak, S.nbytes)


class TestTridiagonalQL:
    @given(st.integers(0, 40), st.integers(1, 14))
    @settings(max_examples=40, deadline=None)
    def test_matches_numpy(self, seed, n):
        rng = np.random.default_rng(seed)
        alpha = rng.standard_normal(n)
        beta = rng.standard_normal(max(n - 1, 0))
        vals, vecs = tridiagonal_eigh(alpha, beta)
        T = np.diag(alpha)
        if n > 1:
            T += np.diag(beta, 1) + np.diag(beta, -1)
        expected = np.linalg.eigvalsh(T)
        assert np.allclose(vals, expected, atol=1e-8)
        # Eigenvector residuals: T v = lambda v.
        assert np.allclose(T @ vecs, vecs * vals, atol=1e-8)
        # Orthonormality.
        assert np.allclose(vecs.T @ vecs, np.eye(n), atol=1e-8)

    def test_ascending_order(self):
        vals, _ = tridiagonal_eigh([3.0, 1.0, 2.0], [0.0, 0.0])
        assert vals.tolist() == [1.0, 2.0, 3.0]

    def test_1x1(self):
        vals, vecs = tridiagonal_eigh([5.0], [])
        assert vals[0] == 5.0 and vecs[0, 0] == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            tridiagonal_eigh([1.0, 2.0], [0.5, 0.5])

    def test_empty(self):
        with pytest.raises(ValueError):
            tridiagonal_eigh([], [])


class TestTopEigenvectors:
    @pytest.mark.parametrize("backend", ["dense", "lanczos", "arpack"])
    def test_backends_agree_on_eigenvalues(self, backend):
        L = normalized_laplacian(random_affinity(7, n=30))
        vals, vecs = top_eigenvectors(L, 4, backend=backend, seed=0)
        ref, _ = top_eigenvectors(L, 4, backend="dense")
        assert np.allclose(vals, ref, atol=1e-5)
        # Residual check: L v ~= lambda v for every returned pair.
        for j in range(4):
            assert np.linalg.norm(L @ vecs[:, j] - vals[j] * vecs[:, j]) < 1e-5

    def test_descending_order(self):
        L = np.diag([1.0, 3.0, 2.0])
        vals, _ = top_eigenvectors(L, 3)
        assert vals.tolist() == [3.0, 2.0, 1.0]

    def test_k_clipped_to_n(self):
        vals, vecs = top_eigenvectors(np.eye(3), 10)
        assert vals.shape == (3,) and vecs.shape == (3, 3)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            top_eigenvectors(np.eye(3), 0)
        with pytest.raises(ValueError):
            top_eigenvectors(np.zeros((2, 3)), 1)
        with pytest.raises(ValueError):
            top_eigenvectors(np.eye(3), 1, backend="magic")

    def test_sparse_input(self):
        L = sp.csr_matrix(normalized_laplacian(random_affinity(8, n=25)))
        vals, _ = top_eigenvectors(L, 3, backend="arpack", seed=1)
        ref, _ = top_eigenvectors(L.toarray(), 3, backend="dense")
        assert np.allclose(vals, ref, atol=1e-6)

    def test_lanczos_fallback_is_traced(self, monkeypatch):
        from repro.observability import Tracer, use_tracer

        def diverge(*args, **kwargs):
            raise RuntimeError("QL sweep cap reached")

        monkeypatch.setattr("repro.spectral.eigen.lanczos_top_eigenpairs", diverge)
        L = normalized_laplacian(random_affinity(9, n=20))
        tracer = Tracer()
        with use_tracer(tracer):
            vals, vecs = top_eigenvectors(L, 3, backend="lanczos", seed=0)
        events = [r for r in tracer.sink.records if r["name"] == "eigen.fallback"]
        assert len(events) == 1
        assert events[0]["attributes"] == {
            "backend": "lanczos", "n": 20, "k": 3,
            "reason": "RuntimeError: QL sweep cap reached",
        }
        assert tracer.metrics.counter("eigen.fallback").value == 1
        ref_vals, ref_vecs = top_eigenvectors(L, 3, backend="dense")
        assert np.array_equal(vals, ref_vals)
        assert np.array_equal(vecs, ref_vecs)


def gapped_symmetric(n, top, seed=0):
    """Symmetric ``n x n`` matrix with eigenvalues ``top`` and the rest in [-0.5, 0.5]."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    spectrum = np.concatenate([top, rng.uniform(-0.5, 0.5, n - len(top))])
    return (Q * spectrum) @ Q.T


def cliques_laplacian(n_cliques=10, size=5):
    """Eq.-2 matrix of disjoint cliques: eigenvalue 1 repeats once per clique."""
    S = np.kron(np.eye(n_cliques), np.ones((size, size)))
    np.fill_diagonal(S, 0.0)
    return normalized_laplacian(S)


def traced_solve(L, k, backend, seed=0):
    """``top_eigenvectors`` under a tracer: the pairs and the eigen.* events."""
    from repro.observability import Tracer, use_tracer

    tracer = Tracer()
    with use_tracer(tracer):
        vals, vecs = top_eigenvectors(L, k, backend=backend, seed=seed)
    events = {"eigen.solve": [], "eigen.fallback": []}
    for record in tracer.sink.records:
        if record["name"] in events:
            events[record["name"]].append(record["attributes"])
    return vals, vecs, events, tracer


class TestAutoBackend:
    @pytest.mark.parametrize(
        "n, k, solver",
        [
            (255, 1, "dense"), (256, 1, "arpack"),
            (255, 8, "dense"), (256, 8, "arpack"),
            (256, 12, "dense"), (383, 12, "dense"), (384, 12, "arpack"),
            (64, 2, "dense"),
        ],
    )
    def test_rule_names_the_solver_that_runs(self, n, k, solver):
        """``"auto"`` runs ARPACK exactly when n >= 32 * max(k, 8)."""
        assert resolve_backend("auto", n, k) == solver
        L = gapped_symmetric(n, np.linspace(1.0, 0.8, k))
        vals, _, events, _ = traced_solve(L, k, "auto")
        assert [e["solver"] for e in events["eigen.solve"]] == [solver]
        assert events["eigen.fallback"] == []
        assert np.allclose(vals, np.linspace(1.0, 0.8, k), atol=1e-10)

    @pytest.mark.parametrize("backend", ["dense", "arpack", "lanczos"])
    def test_explicit_backends_name_themselves(self, backend):
        assert resolve_backend(backend, 4096, 2) == backend
        assert resolve_backend(backend, 8, 7) == backend

    def test_solve_event_carries_the_residual(self):
        L = gapped_symmetric(300, [1.0, 0.9, 0.8])
        vals, vecs, events, _ = traced_solve(L, 3, "auto")
        (event,) = events["eigen.solve"]
        assert event["solver"] == "arpack" and event["n"] == 300 and event["k"] == 3
        assert event["residual"] == eigen_residuals(L, vals, vecs)[0] <= GATE_TOL
        # ARPACK's first Lanczos factorization alone takes ncv = max(2k + 1, 20) products.
        assert isinstance(event["matvecs"], int) and event["matvecs"] >= 20
        _, _, dense_events, _ = traced_solve(L, 3, "dense")
        assert dense_events["eigen.solve"] == [{"solver": "dense", "n": 300, "k": 3}]

    @pytest.mark.parametrize("kind", ["ndarray", "sparse", "operator"])
    def test_solve_event_counts_the_products(self, kind, monkeypatch):
        """``matvecs`` is the number of products the solver took, whatever ``L`` is."""
        import scipy.sparse.linalg as spla

        eigsh, asked = spla.eigsh, []

        def counting(A, *args, **kwargs):
            def matvec(v):
                asked.append(1)
                return A.matvec(v)

            return eigsh(spla.LinearOperator(A.shape, matvec=matvec, dtype=A.dtype), *args, **kwargs)

        monkeypatch.setattr(spla, "eigsh", counting)
        S = blocks_affinity()
        L = {
            "ndarray": normalized_laplacian(S),
            "sparse": sp.csr_matrix(normalized_laplacian(S)),
            "operator": NormalizedLaplacianOperator(S),
        }[kind]
        _, _, events, _ = traced_solve(L, 3, "arpack")
        (event,) = events["eigen.solve"]
        assert event["solver"] == "arpack" and event["matvecs"] == len(asked) >= 20
        _, _, events, tracer = traced_solve(L, 3, "lanczos")
        (event,) = events["eigen.solve"]
        (lanczos,) = [r["attributes"] for r in tracer.sink.records if r["name"] == "lanczos.solve"]
        assert event["solver"] == "lanczos" and event["matvecs"] == lanczos["matvecs"] > 0

    def test_arpack_repeats_itself_on_degenerate_spectrum(self):
        """Each call hits an invariant subspace and asks for a restart vector,
        which must come from the seeded generator, not OS entropy."""
        L = cliques_laplacian()
        first_vals, first_vecs = top_eigenvectors(L, 3, backend="arpack", seed=0)
        for _ in range(3):
            vals, vecs = top_eigenvectors(L, 3, backend="arpack", seed=0)
            assert np.array_equal(vals, first_vals)
            assert np.array_equal(vecs, first_vecs)


class TestResidualGateFallback:
    """A failed iterative solve returns the dense pairs and one traced fallback.

    Each case is ``(L, dense)``: ``L`` as the solver gets it, and the explicit
    matrix whose dense pairs the fallback must return byte for byte.
    """

    @staticmethod
    def arpack_case():
        L = gapped_symmetric(300, [1.0, 0.9, 0.8])
        return L, L

    @staticmethod
    def lanczos_case():
        L = normalized_laplacian(random_affinity(12, n=40))
        return L, L

    @staticmethod
    def _assert_fell_back(L, dense, k, backend, reason):
        vals, vecs, events, tracer = traced_solve(L, k, backend)
        ref_vals, ref_vecs = top_eigenvectors(dense, k, backend="dense")
        assert np.array_equal(vals, ref_vals)
        assert np.array_equal(vecs, ref_vecs)
        (fallback,) = events["eigen.fallback"]
        assert fallback["n"] == L.shape[0] and fallback["k"] == k
        assert fallback["reason"].startswith(reason), fallback["reason"]
        assert tracer.metrics.counter("eigen.fallback").value == 1
        assert [e["solver"] for e in events["eigen.solve"]] == ["dense"]
        return fallback

    @pytest.mark.parametrize("backend", ["arpack", "auto"])
    def test_arpack_no_convergence(self, backend, monkeypatch):
        import scipy.sparse.linalg as spla

        def stalls(*args, **kwargs):
            raise spla.ArpackNoConvergence("ARPACK error -1: No convergence", [], [])

        monkeypatch.setattr(spla, "eigsh", stalls)
        fallback = self._assert_fell_back(*self.arpack_case(), 3, backend, "ArpackNoConvergence")
        assert fallback["backend"] == "arpack"

    @pytest.mark.parametrize("backend", ["arpack", "auto"])
    def test_arpack_perturbed_vector(self, backend, monkeypatch):
        import scipy.sparse.linalg as spla

        eigsh = spla.eigsh

        def bent(*args, **kwargs):
            vals, vecs = eigsh(*args, **kwargs)
            vecs[:, 0] += 1e-4 * np.random.default_rng(1).standard_normal(vecs.shape[0])
            vecs[:, 0] /= np.linalg.norm(vecs[:, 0])
            return vals, vecs

        monkeypatch.setattr(spla, "eigsh", bent)
        self._assert_fell_back(*self.arpack_case(), 3, backend, "residual")

    def test_arpack_non_orthonormal_vectors(self, monkeypatch):
        import scipy.sparse.linalg as spla

        eigsh = spla.eigsh

        def repeated(*args, **kwargs):
            vals, vecs = eigsh(*args, **kwargs)
            return vals[[0, 0, 0]], vecs[:, [0, 0, 0]]

        monkeypatch.setattr(spla, "eigsh", repeated)
        self._assert_fell_back(*self.arpack_case(), 3, "auto", "orthonormality")

    def test_lanczos_perturbed_ritz_vector(self, monkeypatch):
        import repro.spectral.eigen as eigen_mod

        solve = eigen_mod.lanczos_top_eigenpairs

        def bent(*args, **kwargs):
            vals, vecs, matvecs = solve(*args, **kwargs)
            vecs = vecs.copy()
            vecs[:, -1] += 1e-4 * np.random.default_rng(2).standard_normal(vecs.shape[0])
            vecs[:, -1] /= np.linalg.norm(vecs[:, -1])
            return vals, vecs, matvecs

        monkeypatch.setattr(eigen_mod, "lanczos_top_eigenpairs", bent)
        fallback = self._assert_fell_back(*self.lanczos_case(), 3, "lanczos", "residual")
        assert fallback["backend"] == "lanczos"


class TestResidualGateFallbackOnOperator(TestResidualGateFallback):
    """The same failures with the Eq.-2 operator as input: the fallback forms
    exactly ``normalized_laplacian(S)`` and returns its dense pairs."""

    @staticmethod
    def arpack_case():
        S = blocks_affinity()
        return NormalizedLaplacianOperator(S), normalized_laplacian(S)

    @staticmethod
    def lanczos_case():
        S = random_affinity(12, n=40)
        return NormalizedLaplacianOperator(S), normalized_laplacian(S)


class TestRestartedLanczos:
    def test_degenerate_spectrum_resolved(self):
        """Eigenvalue of multiplicity 2 (two disconnected cliques) needs a
        deflated restart; the returned pair must span the full eigenspace."""
        from repro.spectral.lanczos import lanczos_top_eigenpairs

        S = np.zeros((8, 8))
        S[:4, :4] = 1.0
        S[4:, 4:] = 1.0
        np.fill_diagonal(S, 0.0)
        L = normalized_laplacian(S)
        vals, vecs, _ = lanczos_top_eigenpairs(lambda v: L @ v, 8, 2, seed=0)
        assert np.allclose(vals, [1.0, 1.0], atol=1e-8)
        # The two component indicators must lie in the returned span.
        for indicator in (np.r_[np.ones(4), np.zeros(4)], np.r_[np.zeros(4), np.ones(4)]):
            indicator = indicator / np.linalg.norm(indicator)
            proj = vecs @ (vecs.T @ indicator)
            assert np.linalg.norm(proj - indicator) < 1e-6

    def test_matches_dense_on_generic_matrix(self):
        from repro.spectral.lanczos import lanczos_top_eigenpairs

        A = random_affinity(11, n=25)
        vals, vecs, _ = lanczos_top_eigenpairs(lambda v: A @ v, 25, 5, seed=1)
        expected = np.sort(np.linalg.eigvalsh(A))[::-1][:5]
        assert np.allclose(vals, expected, atol=1e-6)
        for j in range(5):
            assert np.linalg.norm(A @ vecs[:, j] - vals[j] * vecs[:, j]) < 1e-5

    def test_k_capped_at_n(self):
        from repro.spectral.lanczos import lanczos_top_eigenpairs

        A = np.diag([3.0, 2.0, 1.0])
        vals, vecs, _ = lanczos_top_eigenpairs(lambda v: A @ v, 3, 10, seed=0)
        assert vals.shape[0] == 3
        assert np.allclose(np.sort(vals)[::-1], [3.0, 2.0, 1.0], atol=1e-9)

    def test_invalid_k(self):
        from repro.spectral.lanczos import lanczos_top_eigenpairs

        with pytest.raises(ValueError):
            lanczos_top_eigenpairs(lambda v: v, 3, 0)

    def test_lanczos_backend_handles_disconnected_graph(self):
        S = np.zeros((12, 12))
        S[:6, :6] = 1.0
        S[6:, 6:] = 1.0
        np.fill_diagonal(S, 0.0)
        L = normalized_laplacian(S)
        vals, vecs = top_eigenvectors(L, 2, backend="lanczos", seed=0)
        assert np.allclose(vals, [1.0, 1.0], atol=1e-8)
