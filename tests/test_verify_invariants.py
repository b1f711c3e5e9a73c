"""The opt-in invariant layer: structured violations, env gating, pipeline hooks."""

import numpy as np
import pytest

from repro.core import DASC, DASCConfig
from repro.core.buckets import Buckets, group_by_signature
from repro.observability import InMemorySink, Tracer, use_tracer
from repro.spectral import normalized_laplacian, top_eigenvectors
from repro.verify import (
    InvariantViolation,
    check_buckets,
    check_counter_equals,
    check_eigen_residual,
    check_eigenvalues,
    check_embedding,
    check_gram_block,
    check_labels_range,
    validation_enabled,
)


class TestGating:
    def test_explicit_flag_wins(self, monkeypatch):
        monkeypatch.delenv("REPRO_VALIDATE", raising=False)
        assert validation_enabled(True)
        assert not validation_enabled(False)
        monkeypatch.setenv("REPRO_VALIDATE", "1")
        assert not validation_enabled(False)

    @pytest.mark.parametrize("value,expected", [
        ("1", True), ("true", True), ("YES", True), ("on", True),
        ("0", False), ("", False), ("no", False), ("off", False),
    ])
    def test_env_values(self, monkeypatch, value, expected):
        monkeypatch.setenv("REPRO_VALIDATE", value)
        assert validation_enabled() is expected

    def test_default_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_VALIDATE", raising=False)
        assert not validation_enabled()


class TestViolationStructure:
    def test_structured_fields(self):
        with pytest.raises(InvariantViolation) as err:
            check_counter_equals(_counters({"map": {"input_records": 3}}),
                                 "map", "input_records", 5, stage="mr.job:test")
        v = err.value
        assert v.invariant == "counters.conservation"
        assert v.stage == "mr.job:test"
        assert v.details["actual"] == 3 and v.details["expected"] == 5
        d = v.to_dict()
        assert d["invariant"] == "counters.conservation"
        assert "mr.job:test" in d["message"]

    def test_violation_emits_trace_event(self):
        sink = InMemorySink()
        with use_tracer(Tracer(sink)):
            with pytest.raises(InvariantViolation):
                check_eigenvalues(np.array([1.5]), stage="spectral.embedding")
        events = [r for r in sink.records if r.get("type") == "event"]
        assert any(r["name"] == "invariant.violation" for r in events)


class TestBucketChecks:
    def test_valid_partition_passes(self):
        sigs = np.array([3, 3, 5, 5, 9], dtype=np.uint64)
        buckets = group_by_signature(sigs, 4)
        check_buckets(buckets, 5, point_signatures=sigs)

    def test_wrong_point_count(self):
        buckets = group_by_signature(np.array([1, 2], dtype=np.uint64), 4)
        with pytest.raises(InvariantViolation, match="assignment"):
            check_buckets(buckets, 5)

    def test_nondense_ids(self):
        # Stored arrays are frozen, so the broken partition (bucket 1 left
        # empty) is built up front rather than mutated in.
        good = group_by_signature(np.array([1, 1, 2], dtype=np.uint64), 4)
        buckets = Buckets(
            assignments=np.zeros(3, dtype=np.int64),
            signatures=good.signatures,
            n_bits=good.n_bits,
        )
        with pytest.raises(InvariantViolation, match="no members"):
            check_buckets(buckets, 3)

    def test_out_of_range_ids(self):
        good = group_by_signature(np.array([1, 1, 2], dtype=np.uint64), 4)
        broken = np.array([7, 0, 1], dtype=np.int64)
        buckets = Buckets(assignments=broken, signatures=good.signatures, n_bits=good.n_bits)
        with pytest.raises(InvariantViolation, match="ids span"):
            check_buckets(buckets, 3)

    def test_representative_must_belong_to_a_member(self):
        sigs = np.array([1, 1, 2], dtype=np.uint64)
        good = group_by_signature(sigs, 4)
        bad_sigs = good.signatures.copy()
        bad_sigs[0] = 9  # representative no member holds
        buckets = Buckets(assignments=good.assignments, signatures=bad_sigs, n_bits=good.n_bits)
        with pytest.raises(InvariantViolation, match="representative"):
            check_buckets(buckets, 3, point_signatures=sigs)


class TestGramChecks:
    def _block(self, n=6, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.random((n, 3))
        d2 = ((X[:, None] - X[None, :]) ** 2).sum(-1)
        K = np.exp(-d2)
        np.fill_diagonal(K, 0.0)
        return K

    def test_valid_block_passes(self):
        check_gram_block(self._block(), zero_diagonal=True, unit_range=True)

    def test_asymmetry_caught(self):
        K = self._block()
        K[0, 1] += 0.5
        with pytest.raises(InvariantViolation, match="K - K"):
            check_gram_block(K)

    def test_diagonal_convention(self):
        K = self._block()
        with pytest.raises(InvariantViolation, match="diagonal"):
            check_gram_block(K, zero_diagonal=False)

    def test_nonfinite_caught(self):
        K = self._block()
        K[2, 3] = K[3, 2] = np.nan
        with pytest.raises(InvariantViolation, match="non-finite"):
            check_gram_block(K)

    def test_range_only_for_unit_range_kernels(self):
        K = self._block() * 3.0  # values above 1
        check_gram_block(K, unit_range=False)  # linear-style kernels: no range rule
        with pytest.raises(InvariantViolation, match="expected \\[0, 1\\]"):
            check_gram_block(K, unit_range=True)


class TestSpectralChecks:
    def test_eigenvalues_in_range(self):
        check_eigenvalues(np.array([1.0, 0.3, -1.0]))
        with pytest.raises(InvariantViolation, match="eigenvalues span"):
            check_eigenvalues(np.array([1.01]))

    def test_embedding_rows(self):
        Y = np.array([[1.0, 0.0], [0.6, 0.8], [0.0, 0.0]])  # unit, unit, zero
        check_embedding(Y)
        with pytest.raises(InvariantViolation, match="unit-norm"):
            check_embedding(np.array([[0.5, 0.0]]))

    @staticmethod
    def _laplacian():
        rng = np.random.default_rng(7)
        A = rng.uniform(0.0, 1.0, (40, 40))
        S = (A + A.T) / 2
        np.fill_diagonal(S, 0.0)
        return normalized_laplacian(S)

    @pytest.mark.parametrize("backend", ["dense", "arpack", "lanczos"])
    def test_eigen_residual_passes_every_backend(self, backend):
        L = self._laplacian()
        vals, vecs = top_eigenvectors(L, 3, backend=backend, seed=0)
        check_eigen_residual(L, vals, vecs)

    def test_perturbed_eigenvector_caught(self):
        L = self._laplacian()
        vals, vecs = top_eigenvectors(L, 3, backend="dense")
        bent = vecs.copy()
        bent[:, 1] += 1e-4 * np.random.default_rng(0).standard_normal(bent.shape[0])
        bent[:, 1] /= np.linalg.norm(bent[:, 1])
        with pytest.raises(InvariantViolation, match="exceeds") as err:
            check_eigen_residual(L, vals, bent, stage="spectral.embedding")
        assert err.value.invariant == "spectral.eigen_residual"
        assert err.value.stage == "spectral.embedding"

    def test_non_orthonormal_vectors_caught(self):
        L = self._laplacian()
        vals, vecs = top_eigenvectors(L, 2, backend="dense")
        # Two copies of one eigenpair: each column is exact, the pair is not orthonormal.
        with pytest.raises(InvariantViolation) as err:
            check_eigen_residual(L, vals[[0, 0]], vecs[:, [0, 0]])
        assert err.value.invariant == "spectral.eigen_orthonormality"


class TestLabelChecks:
    def test_complete_in_range_passes(self):
        check_labels_range(np.array([0, 1, 2, 1]), 3)

    def test_unassigned_caught(self):
        with pytest.raises(InvariantViolation, match="never received"):
            check_labels_range(np.array([0, -1, 2]), 3)

    def test_out_of_range_caught(self):
        with pytest.raises(InvariantViolation, match="outside"):
            check_labels_range(np.array([0, 5]), 3)


class TestPipelineHooks:
    """The DASC pipeline runs green with validation armed and fails loudly on corruption."""

    def test_fit_green_with_validation(self, blobs_small):
        X, y = blobs_small
        model = DASC(4, config=DASCConfig(seed=0, validate=True))
        baseline = DASC(4, config=DASCConfig(seed=0, validate=False)).fit_predict(X)
        labels = model.fit_predict(X)
        # Validation must be observation-only: identical results either way.
        assert np.array_equal(labels, baseline)

    def test_env_flag_arms_fit(self, blobs_small, monkeypatch):
        X, _ = blobs_small
        monkeypatch.setenv("REPRO_VALIDATE", "1")
        model = DASC(4, seed=0)
        assert model._validate_active()
        model.fit(X)  # green end to end

    def test_corrupted_gram_block_raises(self, blobs_small):
        X, _ = blobs_small

        from repro.kernels.functions import GaussianKernel

        class BrokenKernel(GaussianKernel):
            def compute(self, A, B):
                K = super().compute(A, B)
                if K.shape[0] == K.shape[1] and K.shape[0] > 1:
                    K[0, -1] += 0.7  # break symmetry
                return K

        model = DASC(4, config=DASCConfig(seed=0, validate=True), kernel=BrokenKernel(1.0))
        with pytest.raises(InvariantViolation):
            model.fit(X)

    def test_bucket_step_checks_eigen_residual(self, blobs_small, monkeypatch):
        """Under validate, cluster_bucket checks the pairs whichever solver ran."""
        import repro.spectral.bucket as bucket_mod
        from repro.kernels import GaussianKernel, gram_matrix

        X, _ = blobs_small
        S = gram_matrix(X[:60], GaussianKernel(0.3), zero_diagonal=True)
        solve = bucket_mod.top_eigenvectors

        def bent(L, k, **kwargs):
            vals, vecs = solve(L, k, **kwargs)
            return vals, vecs + 1e-3 * np.eye(*vecs.shape)

        monkeypatch.setattr(bucket_mod, "top_eigenvectors", bent)
        bucket_mod.cluster_bucket(60, 3, S, 0, eig_backend="dense", validate=False)
        with pytest.raises(InvariantViolation) as err:
            bucket_mod.cluster_bucket(60, 3, S, 0, eig_backend="dense", validate=True)
        assert err.value.invariant == "spectral.eigen_residual"

    def test_distributed_green_with_validation(self, blobs_small):
        from repro.dasc_mr import DistributedDASC

        X, _ = blobs_small
        base = DistributedDASC(4, n_nodes=4, config=DASCConfig(seed=0)).run(X)
        checked = DistributedDASC(
            4, n_nodes=4, config=DASCConfig(seed=0, validate=True)
        ).run(X)
        assert np.array_equal(base.labels, checked.labels)
        assert base.counters == checked.counters


def _counters(data):
    from repro.mapreduce.counters import Counters

    return Counters.from_dict(data)
