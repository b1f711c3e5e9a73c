"""Tests for the spectral numerics: Laplacians, Lanczos, tridiagonal QL, eigen front-end."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from repro.spectral import degree_vector, normalized_laplacian, top_eigenvectors, tridiagonal_eigh
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
        _, _, dense_events, _ = traced_solve(L, 3, "dense")
        assert dense_events["eigen.solve"] == [{"solver": "dense", "n": 300, "k": 3}]

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
    """A failed iterative solve returns the dense pairs and one traced fallback."""

    @staticmethod
    def _assert_fell_back(L, k, backend, reason):
        vals, vecs, events, tracer = traced_solve(L, k, backend)
        ref_vals, ref_vecs = top_eigenvectors(L, k, backend="dense")
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
        L = gapped_symmetric(300, [1.0, 0.9, 0.8])
        fallback = self._assert_fell_back(L, 3, backend, "ArpackNoConvergence")
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
        L = gapped_symmetric(300, [1.0, 0.9, 0.8])
        self._assert_fell_back(L, 3, backend, "residual")

    def test_arpack_non_orthonormal_vectors(self, monkeypatch):
        import scipy.sparse.linalg as spla

        eigsh = spla.eigsh

        def repeated(*args, **kwargs):
            vals, vecs = eigsh(*args, **kwargs)
            return vals[[0, 0, 0]], vecs[:, [0, 0, 0]]

        monkeypatch.setattr(spla, "eigsh", repeated)
        L = gapped_symmetric(300, [1.0, 0.9, 0.8])
        self._assert_fell_back(L, 3, "auto", "orthonormality")

    def test_lanczos_perturbed_ritz_vector(self, monkeypatch):
        import repro.spectral.eigen as eigen_mod

        solve = eigen_mod.lanczos_top_eigenpairs

        def bent(*args, **kwargs):
            vals, vecs = solve(*args, **kwargs)
            vecs = vecs.copy()
            vecs[:, -1] += 1e-4 * np.random.default_rng(2).standard_normal(vecs.shape[0])
            vecs[:, -1] /= np.linalg.norm(vecs[:, -1])
            return vals, vecs

        monkeypatch.setattr(eigen_mod, "lanczos_top_eigenpairs", bent)
        L = normalized_laplacian(random_affinity(12, n=40))
        fallback = self._assert_fell_back(L, 3, "lanczos", "residual")
        assert fallback["backend"] == "lanczos"


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
        vals, vecs = lanczos_top_eigenpairs(lambda v: L @ v, 8, 2, seed=0)
        assert np.allclose(vals, [1.0, 1.0], atol=1e-8)
        # The two component indicators must lie in the returned span.
        for indicator in (np.r_[np.ones(4), np.zeros(4)], np.r_[np.zeros(4), np.ones(4)]):
            indicator = indicator / np.linalg.norm(indicator)
            proj = vecs @ (vecs.T @ indicator)
            assert np.linalg.norm(proj - indicator) < 1e-6

    def test_matches_dense_on_generic_matrix(self):
        from repro.spectral.lanczos import lanczos_top_eigenpairs

        A = random_affinity(11, n=25)
        vals, vecs = lanczos_top_eigenpairs(lambda v: A @ v, 25, 5, seed=1)
        expected = np.sort(np.linalg.eigvalsh(A))[::-1][:5]
        assert np.allclose(vals, expected, atol=1e-6)
        for j in range(5):
            assert np.linalg.norm(A @ vecs[:, j] - vals[j] * vecs[:, j]) < 1e-5

    def test_k_capped_at_n(self):
        from repro.spectral.lanczos import lanczos_top_eigenpairs

        A = np.diag([3.0, 2.0, 1.0])
        vals, vecs = lanczos_top_eigenpairs(lambda v: A @ v, 3, 10, seed=0)
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
