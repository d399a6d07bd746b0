"""GP prior tests: Gram construction, the closed-form KL against an
independent eigendecomposition oracle, the analytic feature gradient
against finite differences, and the baseline distances."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from featprior.errors import (
    BatchMismatch,
    ConfigError,
    DimensionMismatch,
    FactorizationFailed,
    NonFiniteActivation,
)
from featprior import gp_prior, linalg
from featprior.gp_prior import (
    PriorConfig,
    feature_kernel,
    feature_kl_and_grad,
    gp_kl,
    gp_kl_and_grad,
    gp_kl_grad,
    gram_kernel,
    hinton_soft_target,
    kernel_from_gram,
    prior_log_density,
)

from oracles import central_diff_gradient, gaussian_kl_eig, relative_error

RAW = PriorConfig(jitter=0.0, normalize_by_width=False)


def random_kernel(rng, n):
    m = rng.standard_normal((n, n))
    return kernel_from_gram(m @ m.T + np.eye(n))


class TestGramKernel:
    def test_identity_features(self):
        k = gram_kernel(np.eye(2), RAW)
        np.testing.assert_allclose(k.gram, np.eye(2))

    def test_jitter_added(self):
        k = gram_kernel(np.eye(2), PriorConfig(jitter=0.1,
                                               normalize_by_width=False))
        np.testing.assert_allclose(k.gram, np.diag([1.1, 1.1]))

    def test_hand_product(self):
        k = gram_kernel(np.array([[1.0, 2.0], [3.0, 4.0]]), RAW)
        np.testing.assert_allclose(k.gram, [[5.0, 11.0], [11.0, 25.0]])

    def test_width_normalization(self):
        phi = np.array([[1.0, 2.0], [3.0, 4.0]])
        k = gram_kernel(phi, PriorConfig(jitter=0.0, normalize_by_width=True))
        np.testing.assert_allclose(k.gram, np.array([[5.0, 11.0], [11.0, 25.0]]) / 2)

    def test_jitter_escalates_once(self):
        # gram [[2,2],[2,2]] + 1e-16 I rounds back to singular in float64;
        # the x10 escalation to 1e-15 factors
        phi = np.array([[1.0], [1.0]])
        k = gram_kernel(phi, PriorConfig(jitter=1e-16, normalize_by_width=False))
        assert k.jitter == pytest.approx(1e-15)

    def test_singular_without_jitter_fails(self):
        phi = np.array([[1.0], [1.0]])
        with pytest.raises(FactorizationFailed):
            gram_kernel(phi, PriorConfig(jitter=0.0, normalize_by_width=False))

    def test_jitter_identity_shared_and_read_only(self):
        # one identity per size serves every factorization, so none may write it
        eye = gp_prior._identity(3)
        assert gp_prior._identity(3) is eye
        np.testing.assert_array_equal(eye, np.eye(3))
        with pytest.raises(ValueError):
            eye[0, 1] = 1.0


class TestExactGramSymmetry:
    """Every Gram featprior forms is an exact product x x^T, which numpy's
    matmul returns exactly symmetric, so ``linalg.cholesky``'s exact test is
    the one symmetry guard; checked at the benchmark workloads' shapes, on
    relu features stored in float32 as a teacher cache keeps them."""

    CFG = PriorConfig(jitter=1e-4, normalize_by_width=True)

    @staticmethod
    def features(shape):
        rng = np.random.default_rng(sum(shape))
        return gp_prior._as_features(
            np.maximum(rng.standard_normal(shape), 0.0).astype(np.float32), stacked=True)

    @staticmethod
    def assert_symmetric_bits(mat):
        assert mat.tobytes() == np.ascontiguousarray(mat.swapaxes(-1, -2)).tobytes()

    @pytest.mark.parametrize("shape", [(16, 16), (16, 64), (64, 256), (2, 16, 64), (4, 64, 256)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_gram_kernel(self, shape):
        arr = self.features(shape)
        build = gram_kernel if arr.ndim == 2 else gp_prior._gram_kernel
        self.assert_symmetric_bits(build(arr, self.CFG).gram)

    @pytest.mark.parametrize("shape", [(256, 64), (2, 256, 64)], ids=["256x64", "2x256x64"])
    def test_basis_core(self, shape):
        # the p x p core feature_kernel factors when the batch outnumbers p
        _, r = np.linalg.qr(self.features(shape))
        self.assert_symmetric_bits(gp_prior._scaled_gram(r, shape[-1], self.CFG))

    @pytest.mark.parametrize("shape", [(256, 16), (184, 16), (2, 256, 16)],
                             ids=["256x16", "184x16", "2x256x16"])
    def test_student_width_matrix(self, shape):
        # c Phi^T Phi, the p x p matrix of _student_half when p < n
        cols = self.features(shape).swapaxes(-1, -2)
        self.assert_symmetric_bits(gp_prior._scaled_gram(cols, shape[-1], self.CFG))


class TestGpKl:
    def test_self_divergence_zero(self):
        rng = np.random.default_rng(0)
        k = random_kernel(rng, 5)
        assert abs(gp_kl(k, k)) <= 1e-10

    def test_scaled_identity_hand_value(self):
        # KL(N(0,2I) || N(0,I)) = 0.5 (4 - 2 + 0 - log 4)
        k1 = kernel_from_gram(2.0 * np.eye(2))
        k2 = kernel_from_gram(np.eye(2))
        expected = 0.5 * (4.0 - 2.0 - math.log(4.0))
        assert gp_kl(k1, k2) == pytest.approx(expected, rel=1e-12)
        assert gp_kl(k1, k2) == pytest.approx(0.306853, abs=1e-6)
        oracle = gaussian_kl_eig(np.zeros(2), k1.gram, np.zeros(2), k2.gram)
        assert gp_kl(k1, k2) == pytest.approx(oracle, abs=1e-12)

    def test_reverse_direction_differs(self):
        # KL(N(0,I) || N(0,2I)) = 0.5 (1 - 2 + log 4)
        k1 = kernel_from_gram(np.eye(2))
        k2 = kernel_from_gram(2.0 * np.eye(2))
        assert gp_kl(k1, k2) == pytest.approx(0.193147, abs=1e-6)
        assert gp_kl(k1, k2) != pytest.approx(gp_kl(k2, k1), abs=1e-3)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            n = int(rng.integers(2, 17))
            assert gp_kl(random_kernel(rng, n), random_kernel(rng, n)) >= -1e-8

    def test_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            k1, k2 = random_kernel(rng, n), random_kernel(rng, n)
            oracle = gaussian_kl_eig(np.zeros(n), k1.gram, np.zeros(n), k2.gram)
            assert gp_kl(k1, k2) == pytest.approx(oracle, abs=1e-8)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        phi_s = rng.standard_normal((6, 3))
        phi_t = rng.standard_normal((6, 8))
        cfg = PriorConfig()
        base = gp_kl(gram_kernel(phi_s, cfg), gram_kernel(phi_t, cfg))
        perm = rng.permutation(6)
        permuted = gp_kl(gram_kernel(phi_s[perm], cfg),
                         gram_kernel(phi_t[perm], cfg))
        assert permuted == pytest.approx(base, abs=1e-10)

    def test_size_mismatch(self):
        with pytest.raises(DimensionMismatch):
            gp_kl(kernel_from_gram(np.eye(2)), kernel_from_gram(np.eye(3)))

    def test_kernel_keeps_its_factors_parts(self):
        # what the KL reads, from the kernel's one factorization
        k = random_kernel(np.random.default_rng(12), 5)
        f = linalg.cholesky(k.gram)
        np.testing.assert_array_equal(k.inverse, f.inverse)
        assert k.log_det == linalg.log_det(f)
        assert k.inv_sq_norm == float(np.vdot(f.inverse, f.inverse))
        assert k.basis is None and k.size == 5

    @pytest.mark.parametrize("p", [8, 3], ids=["dense", "basis"])
    def test_refuses_a_feature_kernel(self, p):
        # feature_kernel keeps no Gram, and for p < n works in Q's basis
        rng = np.random.default_rng(13)
        cfg = PriorConfig()
        k = gram_kernel(rng.standard_normal((6, 8)), cfg)
        k_t = feature_kernel(rng.standard_normal((6, p)), cfg)
        assert k.gram is not None and k_t.gram is None
        for pair in ((k, k_t), (k_t, k)):
            with pytest.raises(DimensionMismatch, match="not feature_kernel's"):
                gp_kl(*pair)


class TestGpKlGrad:
    def test_refuses_a_student_kernel_in_a_feature_basis(self):
        # a basis kernel's inverse is p x p, so K_s^{-1} Phi cannot be formed from it
        rng = np.random.default_rng(14)
        cfg = PriorConfig()
        phi_s = rng.standard_normal((6, 3))
        k_t = gram_kernel(rng.standard_normal((6, 8)), cfg)
        with pytest.raises(DimensionMismatch, match="feature basis"):
            gp_kl_and_grad(phi_s, feature_kernel(phi_s, cfg), k_t, cfg)

    def test_stationary_at_teacher(self):
        rng = np.random.default_rng(4)
        phi = rng.standard_normal((4, 3))
        cfg = PriorConfig()
        k = gram_kernel(phi, cfg)
        grad = gp_kl_grad(phi, k, k, cfg)
        assert np.linalg.norm(grad) < 1e-6

    @pytest.mark.parametrize("normalize", [True, False])
    def test_matches_finite_differences(self, normalize):
        rng = np.random.default_rng(5)
        cfg = PriorConfig(jitter=1e-3, normalize_by_width=normalize)
        phi_s = rng.standard_normal((3, 2))
        k2 = gram_kernel(rng.standard_normal((3, 5)), cfg)

        grad = gp_kl_grad(phi_s, gram_kernel(phi_s, cfg), k2, cfg)

        def f(flat):
            return gp_kl(gram_kernel(flat.reshape(3, 2), cfg), k2)

        fd = central_diff_gradient(f, phi_s.ravel()).reshape(3, 2)
        assert relative_error(grad, fd) < 1e-4

    def test_directional_derivative_through_scaling(self):
        rng = np.random.default_rng(6)
        cfg = PriorConfig(jitter=1e-3)
        phi_s = rng.standard_normal((4, 3))
        k2 = gram_kernel(rng.standard_normal((4, 6)), cfg)
        grad = gp_kl_grad(phi_s, gram_kernel(phi_s, cfg), k2, cfg)

        h = 1e-6
        hi = gp_kl(gram_kernel((1 + h) * phi_s, cfg), k2)
        lo = gp_kl(gram_kernel((1 - h) * phi_s, cfg), k2)
        directional = (hi - lo) / (2 * h)
        assert directional == pytest.approx(float(np.sum(grad * phi_s)),
                                            rel=1e-4)


class TestGpKlAndGrad:
    """The fused value+gradient that training calls, against gp_kl,
    gp_kl_grad, dense numpy solves, central differences and the
    eigendecomposition oracle."""

    @staticmethod
    def pair(rng, n, p, cfg, teacher_width=64):
        phi_s = rng.standard_normal((n, p))
        k_t = gram_kernel(rng.standard_normal((n, teacher_width)), cfg)
        return phi_s, gram_kernel(phi_s, cfg), k_t

    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("n,p", [(5, 3), (6, 8), (64, 16), (64, 100)])
    def test_value_equals_gp_kl(self, normalize, n, p):
        cfg = PriorConfig(normalize_by_width=normalize)
        phi_s, k_s, k_t = self.pair(np.random.default_rng(60 + n + p), n, p, cfg)
        value, _ = gp_kl_and_grad(phi_s, k_s, k_t, cfg)
        assert value == pytest.approx(gp_kl(k_s, k_t), rel=1e-10)

    def test_value_uses_escalated_jitter(self):
        # the trace identity must use the jitter gram_kernel ended up with
        phi_s = np.array([[1.0], [1.0]])
        cfg = PriorConfig(jitter=1e-16, normalize_by_width=False)
        k_s = gram_kernel(phi_s, cfg)
        assert k_s.jitter > cfg.jitter
        k_t = kernel_from_gram(np.eye(2))
        value, _ = gp_kl_and_grad(phi_s, k_s, k_t, cfg)
        assert value == pytest.approx(gp_kl(k_s, k_t), rel=1e-10)

    @pytest.mark.parametrize("normalize", [True, False])
    def test_gradient_matches_gp_kl_grad_and_dense_solves(self, normalize):
        cfg = PriorConfig(normalize_by_width=normalize)
        phi_s, k_s, k_t = self.pair(np.random.default_rng(61), 64, 16, cfg)
        _, grad = gp_kl_and_grad(phi_s, k_s, k_t, cfg)
        np.testing.assert_array_equal(grad, gp_kl_grad(phi_s, k_s, k_t, cfg))
        c = 1.0 / 16 if normalize else 1.0
        dense = c * (np.linalg.solve(k_t.gram, phi_s)
                     - np.linalg.solve(k_s.gram, phi_s))
        assert np.max(np.abs(grad - dense)) <= 1e-8 * np.max(np.abs(dense))

    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("n,p", [(3, 2), (4, 6)])
    def test_gradient_matches_finite_differences(self, normalize, n, p):
        rng = np.random.default_rng(62)
        cfg = PriorConfig(jitter=1e-3, normalize_by_width=normalize)
        phi_s = rng.standard_normal((n, p))
        k_t = gram_kernel(rng.standard_normal((n, 5)), cfg)
        _, grad = gp_kl_and_grad(phi_s, gram_kernel(phi_s, cfg), k_t, cfg)

        def f(flat):
            phi = flat.reshape(n, p)
            return gp_kl_and_grad(phi, gram_kernel(phi, cfg), k_t, cfg)[0]

        fd = central_diff_gradient(f, phi_s.ravel()).reshape(n, p)
        assert relative_error(grad, fd) < 1e-4

    @pytest.mark.parametrize("p", [16, 300])
    def test_batch_256_matches_eigendecomposition_oracle(self, p):
        # narrow (p < n, rank-deficient Gram held up by jitter) and wide
        # (p > n) students against a 64-wide teacher at the default jitter
        cfg = PriorConfig()
        phi_s, k_s, k_t = self.pair(np.random.default_rng(63), 256, p, cfg)
        value, _ = gp_kl_and_grad(phi_s, k_s, k_t, cfg)
        oracle = gaussian_kl_eig(np.zeros(256), k_s.gram, np.zeros(256), k_t.gram)
        assert value == pytest.approx(oracle, rel=1e-9)

    def test_batch_mismatch(self):
        cfg = PriorConfig()
        phi_s, k_s, _ = self.pair(np.random.default_rng(64), 4, 2, cfg)
        with pytest.raises(DimensionMismatch):
            gp_kl_and_grad(phi_s, k_s, kernel_from_gram(np.eye(5)), cfg)


class TestFeatureKlAndGrad:
    """The training path, which factors the student side as the p x p
    matrix M = jI + c Phi^T Phi when p < n, against the n x n reference
    gp_kl_and_grad(phi_s, gram_kernel(phi_s), k_t)."""

    @staticmethod
    def reference(phi_s, k_t, cfg):
        return gp_kl_and_grad(phi_s, gram_kernel(phi_s, cfg), k_t, cfg)

    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("n,p", [(256, 16), (184, 16), (64, 32), (16, 4)])
    def test_matches_gram_path(self, normalize, n, p):
        cfg = PriorConfig(normalize_by_width=normalize)
        rng = np.random.default_rng(70 + n + p)
        phi_s = rng.standard_normal((n, p))
        k_t = gram_kernel(rng.standard_normal((n, 64)), cfg)
        value, grad = feature_kl_and_grad(phi_s, k_t, cfg)
        ref_value, ref_grad = self.reference(phi_s, k_t, cfg)
        assert value == pytest.approx(ref_value, rel=1e-10)
        assert np.max(np.abs(grad - ref_grad)) <= 1e-8 * np.max(np.abs(ref_grad))

    @pytest.mark.parametrize("n,p", [(6, 8), (16, 16), (64, 100)])
    def test_wide_student_is_the_gram_path(self, n, p):
        cfg = PriorConfig()
        rng = np.random.default_rng(71)
        phi_s = rng.standard_normal((n, p))
        k_t = gram_kernel(rng.standard_normal((n, 5)), cfg)
        value, grad = feature_kl_and_grad(phi_s, k_t, cfg)
        ref_value, ref_grad = self.reference(phi_s, k_t, cfg)
        assert value == ref_value
        np.testing.assert_array_equal(grad, ref_grad)

    @pytest.mark.parametrize("normalize", [True, False])
    def test_gradient_matches_finite_differences(self, normalize):
        rng = np.random.default_rng(72)
        cfg = PriorConfig(jitter=1e-3, normalize_by_width=normalize)
        phi_s = rng.standard_normal((5, 2))
        k_t = gram_kernel(rng.standard_normal((5, 4)), cfg)
        _, grad = feature_kl_and_grad(phi_s, k_t, cfg)

        def f(flat):
            return feature_kl_and_grad(flat.reshape(5, 2), k_t, cfg)[0]

        fd = central_diff_gradient(f, phi_s.ravel()).reshape(5, 2)
        assert relative_error(grad, fd) < 1e-4

    def test_batch_256_matches_eigendecomposition_oracle(self):
        cfg = PriorConfig()
        rng = np.random.default_rng(73)
        phi_s = rng.standard_normal((256, 16))
        k_t = gram_kernel(rng.standard_normal((256, 64)), cfg)
        value, _ = feature_kl_and_grad(phi_s, k_t, cfg)
        oracle = gaussian_kl_eig(np.zeros(256), gram_kernel(phi_s, cfg).gram,
                                 np.zeros(256), k_t.gram)
        assert value == pytest.approx(oracle, rel=1e-9)

    def test_factors_at_configured_jitter_where_gram_escalates(self):
        # Phi Phi^T + 1e-16 I rounds to singular in float64, so the n x n
        # Gram escalates; M = 2 + 1e-16 does not, and the value keeps the
        # configured jitter: eigenvalues of K_s are 2 + j, j, j, K_t = I
        phi_s = np.array([[1.0], [1.0], [0.0]])
        cfg = PriorConfig(jitter=1e-16, normalize_by_width=False)
        assert gram_kernel(phi_s, cfg).jitter > cfg.jitter
        value, _ = feature_kl_and_grad(phi_s, kernel_from_gram(np.eye(3)), cfg)
        j = cfg.jitter
        expected = 0.5 * ((2 + 3 * j) - 3 - (math.log(2 + j) + 2 * math.log(j)))
        assert value == pytest.approx(expected, rel=1e-12)

    def test_feature_matrix_jitter_escalates_once(self):
        # M = [[1,1],[1,1]] + 1e-16 I rounds back to singular; the x10
        # escalation factors, and every term uses the escalated jitter
        phi_s = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        cfg = PriorConfig(jitter=1e-16, normalize_by_width=False)
        k_t = kernel_from_gram(np.eye(3))
        value, grad = feature_kl_and_grad(phi_s, k_t, cfg)
        escalated = replace(cfg, jitter=cfg.jitter * 10.0)
        ref_value, ref_grad = feature_kl_and_grad(phi_s, k_t, escalated)
        assert value == ref_value
        np.testing.assert_array_equal(grad, ref_grad)

    def test_zero_jitter_narrow_student_fails(self):
        rng = np.random.default_rng(74)
        k_t = kernel_from_gram(np.eye(8))
        with pytest.raises(FactorizationFailed):
            feature_kl_and_grad(rng.standard_normal((8, 3)), k_t,
                                PriorConfig(jitter=0.0))

    def test_non_finite_features_rejected(self):
        phi_s = np.ones((8, 3))
        phi_s[2, 1] = np.nan
        with pytest.raises(NonFiniteActivation):
            feature_kl_and_grad(phi_s, kernel_from_gram(np.eye(8)), PriorConfig())

    def test_teacher_size_mismatch(self):
        phi_s = np.random.default_rng(75).standard_normal((8, 3))
        with pytest.raises(DimensionMismatch):
            feature_kl_and_grad(phi_s, kernel_from_gram(np.eye(9)), PriorConfig())


class TestFeatureKernel:
    """The teacher side held in its own feature basis when p_t < n,
    against the dense teacher: feature_kl_and_grad(phi_s,
    gram_kernel(phi_t), cfg)."""

    @staticmethod
    def assert_matches_dense(phi_s, phi_t, cfg):
        k_t = feature_kernel(phi_t, cfg)
        assert k_t.basis is not None
        value, grad = feature_kl_and_grad(phi_s, k_t, cfg)
        ref_value, ref_grad = feature_kl_and_grad(phi_s, gram_kernel(phi_t, cfg), cfg)
        assert value == pytest.approx(ref_value, rel=1e-10)
        assert np.max(np.abs(grad - ref_grad)) <= 1e-8 * np.max(np.abs(ref_grad))

    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("n,p_t,p_s", [(256, 64, 16), (184, 64, 16),
                                           (64, 32, 16), (16, 4, 4),
                                           (256, 64, 128), (64, 16, 100)])
    def test_matches_dense_teacher(self, normalize, n, p_t, p_s):
        rng = np.random.default_rng(80 + n + p_t + p_s)
        self.assert_matches_dense(rng.standard_normal((n, p_s)),
                                  rng.standard_normal((n, p_t)),
                                  PriorConfig(normalize_by_width=normalize))

    @pytest.mark.parametrize("normalize", [True, False])
    def test_dead_teacher_units(self, normalize):
        # ReLU teacher with a quarter of its units never active: R has
        # zero rows, and the core is held up by jitter alone there
        rng = np.random.default_rng(81)
        phi_t = np.maximum(rng.standard_normal((256, 64)), 0.0)
        phi_t[:, :16] = 0.0
        self.assert_matches_dense(rng.standard_normal((256, 16)), phi_t,
                                  PriorConfig(normalize_by_width=normalize))

    @pytest.mark.parametrize("normalize", [True, False])
    def test_student_near_teacher_span(self, normalize):
        # E = Phi_s - Q Q^T Phi_s is tiny, and 1/j scales only it
        rng = np.random.default_rng(82)
        phi_t = rng.standard_normal((256, 64))
        phi_s = (phi_t @ rng.standard_normal((64, 16)) / 8.0
                 + 1e-6 * rng.standard_normal((256, 16)))
        self.assert_matches_dense(phi_s, phi_t,
                                  PriorConfig(normalize_by_width=normalize))

    def test_batch_256_matches_eigendecomposition_oracle(self):
        cfg = PriorConfig()
        rng = np.random.default_rng(83)
        phi_s = rng.standard_normal((256, 16))
        phi_t = rng.standard_normal((256, 64))
        value, _ = feature_kl_and_grad(phi_s, feature_kernel(phi_t, cfg), cfg)
        oracle = gaussian_kl_eig(np.zeros(256), gram_kernel(phi_s, cfg).gram,
                                 np.zeros(256), gram_kernel(phi_t, cfg).gram)
        assert value == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("normalize", [True, False])
    def test_gradient_matches_finite_differences(self, normalize):
        rng = np.random.default_rng(84)
        cfg = PriorConfig(jitter=1e-3, normalize_by_width=normalize)
        phi_s = rng.standard_normal((5, 2))
        k_t = feature_kernel(rng.standard_normal((5, 2)), cfg)
        assert k_t.basis is not None
        _, grad = feature_kl_and_grad(phi_s, k_t, cfg)

        def f(flat):
            return feature_kl_and_grad(flat.reshape(5, 2), k_t, cfg)[0]

        fd = central_diff_gradient(f, phi_s.ravel()).reshape(5, 2)
        assert relative_error(grad, fd) < 1e-4

    @pytest.mark.parametrize("n,p", [(6, 8), (16, 16), (64, 100)])
    def test_wide_teacher_is_gram_kernel(self, n, p):
        cfg = PriorConfig()
        phi_t = np.random.default_rng(85).standard_normal((n, p))
        k_t = feature_kernel(phi_t, cfg)
        ref = gram_kernel(phi_t, cfg)
        assert k_t.basis is ref.basis is None
        assert k_t.jitter == ref.jitter
        assert k_t.log_det == ref.log_det
        assert k_t.inv_sq_norm == ref.inv_sq_norm
        assert k_t.size == ref.size == n
        np.testing.assert_array_equal(k_t.inverse, ref.inverse)

    @pytest.mark.parametrize("n,p", [(8, 3), (64, 16), (256, 64)])
    def test_narrow_teacher_is_its_core(self, n, p):
        # p < n: Q of the thin QR, the core gram_kernel(R)'s L^{-1}, jitter
        # and ||L^{-1}||_F^2, and log|K| = log|B| + (n - p) log j
        cfg = PriorConfig()
        phi_t = np.random.default_rng(87).standard_normal((n, p))
        k_t = feature_kernel(phi_t, cfg)
        q, r = np.linalg.qr(phi_t)
        core = gram_kernel(r, cfg)
        assert k_t.jitter == core.jitter == cfg.jitter
        assert k_t.log_det == (core.log_det
                               + (n - p) * math.log(core.jitter))
        assert k_t.inv_sq_norm == float(np.vdot(core.inverse, core.inverse))
        assert k_t.size == n
        np.testing.assert_array_equal(k_t.basis, q)
        np.testing.assert_array_equal(k_t.inverse, core.inverse)

    def test_zero_jitter_narrow_teacher_fails(self):
        phi_t = np.random.default_rng(86).standard_normal((8, 3))
        with pytest.raises(FactorizationFailed):
            feature_kernel(phi_t, PriorConfig(jitter=0.0))

    def test_core_factors_at_configured_jitter_where_gram_escalates(self):
        # Phi Phi^T + 1e-16 I rounds to singular in float64, so the dense
        # Gram escalates; B = 2 + 1e-16 does not.  Against the same
        # student both sides are then exactly 2 + j, j, j and the KL is 0,
        # where the escalated dense teacher gives about 1.4
        phi = np.array([[1.0], [1.0], [0.0]])
        cfg = PriorConfig(jitter=1e-16, normalize_by_width=False)
        dense = gram_kernel(phi, cfg)
        assert dense.jitter > cfg.jitter
        k_t = feature_kernel(phi, cfg)
        assert k_t.jitter == cfg.jitter
        value, _ = feature_kl_and_grad(phi, k_t, cfg)
        assert value == pytest.approx(0.0, abs=1e-12)
        dense_value, _ = feature_kl_and_grad(phi, dense, cfg)
        assert dense_value > 1.0

    def test_non_finite_features_rejected(self):
        phi_t = np.ones((8, 3))
        phi_t[4, 0] = np.inf
        with pytest.raises(NonFiniteActivation):
            feature_kernel(phi_t, PriorConfig())


class TestStackedSeeds:
    """A stack of two seeds' batches, in which only one seed's matrix needs
    the x10 jitter escalation, gives each seed the value, gradient and
    jitter of its own 2-d call, bit for bit."""

    CFG = PriorConfig(jitter=1e-16, normalize_by_width=False)

    def check(self, phi_s, phi_t):
        value, grad = feature_kl_and_grad(phi_s, feature_kernel(phi_t, self.CFG), self.CFG)
        for s in range(2):
            single_value, single_grad = feature_kl_and_grad(
                phi_s[s], feature_kernel(phi_t[s], self.CFG), self.CFG)
            assert value[s] == single_value
            np.testing.assert_array_equal(grad[s], single_grad)

    @staticmethod
    def student_jitters(phi):
        """Jitter of each seed's student matrix: the n x n Gram when
        p >= n, else M = jI + Phi^T Phi, stacked and seed by seed."""
        cfg = TestStackedSeeds.CFG
        n, p = phi.shape[-2:]
        rows = phi if p >= n else phi.swapaxes(-1, -2)
        stacked = gp_prior._factor_jittered(
            gp_prior._scaled_gram(rows, p, cfg), cfg.jitter, "student").jitter
        single = [gp_prior._factor_jittered(
            gp_prior._scaled_gram(r, p, cfg), cfg.jitter, "student").jitter for r in rows]
        return stacked.tolist(), single

    def test_dense_student_and_teacher(self):
        # seed 0's student Gram and seed 1's teacher Gram hold the
        # singular block [[1, 1], [1, 1]], which 1e-16 cannot lift
        rng = np.random.default_rng(90)
        phi_s = np.stack([[[1.0, 0, 0], [1, 0, 0], [0, 0, 1]],
                          rng.standard_normal((3, 3))])
        phi_t = np.stack([rng.standard_normal((3, 4)),
                          [[1.0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]]])
        self.check(phi_s, phi_t)
        stacked, single = self.student_jitters(phi_s)
        assert stacked == single == [1e-15, 1e-16]
        k_t = feature_kernel(phi_t, self.CFG)
        assert k_t.jitter.tolist() == [feature_kernel(t, self.CFG).jitter
                                       for t in phi_t] == [1e-16, 1e-15]

    def test_narrow_student_matrix(self):
        # p < n: seed 1's M = [[1, 1], [1, 1]] + jI escalates
        rng = np.random.default_rng(91)
        phi_s = np.stack([rng.standard_normal((3, 2)),
                          [[1.0, 1.0], [0, 0], [0, 0]]])
        phi_t = rng.standard_normal((2, 3, 5))
        self.check(phi_s, phi_t)
        stacked, single = self.student_jitters(phi_s)
        assert stacked == single == [1e-16, 1e-15]

    def test_narrow_teacher_basis(self):
        # p_t < n: seed 0's teacher has a zero first column, so its R and
        # the core B = R R^T + jI are singular before the escalation
        rng = np.random.default_rng(92)
        phi_s = rng.standard_normal((2, 3, 4))
        phi_t = np.stack([[[0.0, 1.0], [0, 1], [0, 0]],
                          rng.standard_normal((3, 2))])
        k_t = feature_kernel(phi_t, self.CFG)
        assert k_t.basis is not None
        assert k_t.jitter.tolist() == [feature_kernel(t, self.CFG).jitter
                                       for t in phi_t] == [1e-15, 1e-16]
        self.check(phi_s, phi_t)

    def test_public_gram_kernel_takes_one_batch(self):
        with pytest.raises(DimensionMismatch):
            gram_kernel(np.ones((2, 3, 3)), PriorConfig())


class TestStackAxes:
    """A stack may carry any leading axes (steps ahead of seeds): each
    slice of a 2 x 3 stack gets the bits of its own 2-d call."""

    def test_sq_norm(self):
        a = np.random.default_rng(95).standard_normal((2, 3, 5, 5))
        norms = gp_prior._sq_norm(a)
        assert norms.shape == (2, 3)
        for i in range(2):
            for s in range(3):
                assert norms[i, s] == gp_prior._sq_norm(a[i, s])

    def test_log(self):
        jitters = np.array([[1e-4, 1e-3, 1e-2], [1e-1, 1.0, 3.0]])
        logs = gp_prior._log(jitters)
        assert logs.shape == (2, 3)
        for i in range(2):
            for s in range(3):
                assert logs[i, s] == gp_prior._log(float(jitters[i, s]))

    @pytest.mark.parametrize("p", [7, 3], ids=["dense", "basis"])
    def test_teacher_kernel_parts(self, p):
        phi = np.random.default_rng(96).standard_normal((2, 3, 5, p))
        cfg = PriorConfig()
        stacked = feature_kernel(phi, cfg)
        for i in range(2):
            for s in range(3):
                single = feature_kernel(phi[i, s], cfg)
                sliced = stacked[i][s]
                assert (sliced.basis is None) == (single.basis is None) == (p >= 5)
                assert sliced.log_det == single.log_det
                assert sliced.inv_sq_norm == single.inv_sq_norm
                assert sliced.jitter == single.jitter
                assert sliced.size == single.size == 5
                np.testing.assert_array_equal(sliced.inverse, single.inverse)
                if p < 5:
                    np.testing.assert_array_equal(sliced.basis, single.basis)


class TestStackNorm:
    """A stack's ||L^{-1}||_F^2 is formed in one pass when it is first
    sliced: each slice takes its entry, with the bits of its lone batch's
    norm, whether the stack's was read before slicing or not."""

    @pytest.mark.parametrize("p", [7, 3], ids=["n-by-n", "basis"])
    def test_slices_take_their_entry(self, p):
        phi = np.random.default_rng(97).standard_normal((2, 3, 5, p))
        cfg = PriorConfig()
        stacked = feature_kernel(phi, cfg)
        assert stacked.inv_sq_norm.shape == (2, 3)
        for i in range(2):
            for s in range(3):
                single = feature_kernel(phi[i, s], cfg)
                sliced = stacked[i][s]
                assert (sliced.basis is None) == (single.basis is None) == (p >= 5)
                assert "inv_sq_norm" in vars(sliced)  # given, not formed on read
                assert sliced.inv_sq_norm == single.inv_sq_norm

    def test_first_slice_forms_the_stacks_norm(self, monkeypatch):
        phi = np.random.default_rng(98).standard_normal((3, 5, 7))
        stacked = feature_kernel(phi, PriorConfig())
        lone = [feature_kernel(phi[s], PriorConfig()).inv_sq_norm for s in range(3)]
        passes, sq_norm = [], gp_prior._sq_norm

        def counted(a):
            passes.append(a.shape)
            return sq_norm(a)

        monkeypatch.setattr(gp_prior, "_sq_norm", counted)
        slices = [stacked[s] for s in range(3)]
        assert passes == [(3, 5, 5)]
        assert [sliced.inv_sq_norm for sliced in slices] == lone
        assert passes == [(3, 5, 5)]


class TestStudentHalf:
    """One student half serves every KL term on its layer: each teacher
    half of it has the bits of that term's own feature_kl_and_grad call,
    for either student branch, a batch or a 2 x 3 stack, and a dense or a
    basis KernelMatrix."""

    @pytest.mark.parametrize("stack", [(), (2, 3)], ids=["single", "stacked"])
    @pytest.mark.parametrize("p", [5, 12], ids=["narrow", "wide"])
    def test_teacher_halves_match_per_term_calls(self, stack, p):
        rng = np.random.default_rng(97)
        cfg = PriorConfig()
        phi_s = rng.standard_normal((*stack, 8, p))
        teachers = [feature_kernel(rng.standard_normal((*stack, 8, w)), cfg)
                    for w in (3, 16)]
        assert [k.basis is None for k in teachers] == [False, True]
        half = gp_prior._student_half(phi_s, cfg)
        for k_t in teachers + teachers[::-1]:
            value, grad = gp_prior._teacher_half(half, k_t)
            ref_value, ref_grad = feature_kl_and_grad(phi_s, k_t, cfg)
            np.testing.assert_array_equal(value, ref_value)
            np.testing.assert_array_equal(grad, ref_grad)

    def test_wide_half_is_the_gram_kernels(self):
        # p >= n: gp_kl_and_grad's student side, from gram_kernel
        rng = np.random.default_rng(98)
        cfg = PriorConfig()
        phi_s = rng.standard_normal((6, 9))
        k_t = gram_kernel(rng.standard_normal((6, 4)), cfg)
        half = gp_prior._student_half(phi_s, cfg)
        k_s = gram_kernel(phi_s, cfg)
        assert half.jitter == k_s.jitter
        assert half.log_det == k_s.log_det
        value, grad = gp_prior._teacher_half(half, k_t)
        ref_value, ref_grad = gp_kl_and_grad(phi_s, k_s, k_t, cfg)
        assert value == ref_value
        np.testing.assert_array_equal(grad, ref_grad)


class TestPriorLogDensity:
    def test_identical_features_zero(self):
        rng = np.random.default_rng(7)
        phi = rng.standard_normal((5, 4))
        assert prior_log_density(phi, phi, PriorConfig()) == pytest.approx(
            0.0, abs=1e-10)

    def test_width_mismatch_accepted(self):
        # teacher features are a row-inner-product-preserving embedding of
        # the student's (scaled so width normalization cancels)
        rng = np.random.default_rng(8)
        phi_s = rng.standard_normal((6, 3))
        q, _ = np.linalg.qr(rng.standard_normal((5, 3)))  # orthonormal columns
        phi_t = phi_s @ q.T * math.sqrt(5.0 / 3.0)
        value = prior_log_density(phi_s, phi_t, PriorConfig())
        assert value == pytest.approx(0.0, abs=1e-6)

    def test_alpha_scales_linearly(self):
        rng = np.random.default_rng(9)
        phi_s = rng.standard_normal((4, 2))
        phi_t = rng.standard_normal((4, 6))
        v1 = prior_log_density(phi_s, phi_t, PriorConfig(alpha=1.0))
        v2 = prior_log_density(phi_s, phi_t, PriorConfig(alpha=2.0))
        assert v1 != 0.0
        assert v2 == pytest.approx(2.0 * v1, rel=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(10)
        phi_s = rng.standard_normal((5, 4))
        phi_t = rng.standard_normal((5, 7))
        rot, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        cfg = PriorConfig()
        base = prior_log_density(phi_s, phi_t, cfg)
        rotated = prior_log_density(phi_s @ rot, phi_t, cfg)
        assert rotated == pytest.approx(base, abs=1e-8)

    def test_batch_mismatch(self):
        with pytest.raises(BatchMismatch):
            prior_log_density(np.ones((3, 2)), np.ones((4, 2)), PriorConfig())


class TestHintonSoftTarget:
    def test_equal_logits_give_teacher_entropy(self):
        rng = np.random.default_rng(11)
        logits = rng.standard_normal((4, 5))
        for temperature in (1.0, 4.0):
            p = np.exp(logits / temperature)
            p /= p.sum(axis=1, keepdims=True)
            entropy = float(-np.mean(np.sum(p * np.log(p), axis=1)))
            value = hinton_soft_target(logits, logits, temperature)
            assert value == pytest.approx(entropy, rel=1e-10)

    def test_high_temperature_saturates_to_log_c(self):
        rng = np.random.default_rng(12)
        s = rng.standard_normal((3, 6))
        t = rng.standard_normal((3, 6))
        assert hinton_soft_target(s, t, 1e8) == pytest.approx(math.log(6.0),
                                                              abs=1e-6)

    def test_hand_case_two_classes(self):
        # teacher softmax (1/4, 3/4), student softmax (1/2, 1/2):
        # cross-entropy = -(1/4) log(1/2) - (3/4) log(1/2) = log 2
        value = hinton_soft_target(np.array([[0.0, 0.0]]),
                                   np.array([[0.0, math.log(3.0)]]), 1.0)
        assert value == pytest.approx(math.log(2.0), rel=1e-12)

    @pytest.mark.parametrize("shape", [(5, 3), (2, 5, 10)], ids=["batch", "seed-stacked"])
    def test_one_exp_pass_keeps_the_bits_of_softmax_and_log_softmax(self, shape):
        # the ci/bits.py listing cannot see these bits: an ulp of the
        # gradient rarely moves a float32 parameter
        rng = np.random.default_rng(13)
        s, t = 3.0 * rng.standard_normal(shape), rng.standard_normal(shape)
        p = gp_prior._soft_targets(t, 4.0)
        np.testing.assert_array_equal(p, gp_prior._softmax(t / 4.0))
        value, q = gp_prior._soft_target(s, p, 4.0)
        np.testing.assert_array_equal(q, gp_prior._softmax(s / 4.0))
        log_q = gp_prior._log_softmax(s / 4.0)
        np.testing.assert_array_equal(value, -(p * log_q).sum(axis=-1).sum(axis=-1) / shape[-2])

    def test_width_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            hinton_soft_target(np.zeros((2, 3)), np.zeros((2, 5)), 1.0)

    def test_one_d_logits_rejected(self):
        with pytest.raises(DimensionMismatch) as excinfo:
            hinton_soft_target(np.zeros(3), np.zeros(3), 1.0)
        assert str(excinfo.value) == "logits must be 2-d, got shape (3,)"

    @pytest.mark.parametrize("temperature, named", [
        (0.0, "temperature must be finite and > 0, got 0.0"),
        (-1.0, "temperature must be finite and > 0, got -1.0"),
        (1e200, "temperature ** 2 must be a finite float > 0, got 1e+200 ** 2 = inf"),
        (None, "temperature must be a number, got None"),
    ], ids=["zero", "negative", "square-overflows", "none"])
    def test_temperature_follows_prior_configs_rule(self, temperature, named):
        # zero divided by zero, and -1 returned a value
        logits = np.zeros((2, 3))
        for refused in (lambda: hinton_soft_target(logits, logits, temperature),
                        lambda: PriorConfig(temperature=temperature)):
            with pytest.raises(ConfigError) as excinfo:
                refused()
            assert str(excinfo.value) == named
