"""SPD primitive tests: frozen hand-derived cases plus randomized
invariants cross-checked against an independent Jacobi eigensolver."""

from __future__ import annotations

import logging
import math

import numpy as np
import pytest

from featprior import linalg
from featprior.errors import DimensionMismatch, NotPositiveDefinite, NotSymmetric
from featprior.linalg import (
    cholesky,
    log_det,
    reconstruct,
    solve_spd,
    trace_solve,
)

from oracles import cholesky_loop, jacobi_eigenvalues


def random_spd(rng, n):
    m = rng.standard_normal((n, n))
    return m @ m.T + np.eye(n)


class TestCholesky:
    def test_identity_is_its_own_factor(self):
        f = cholesky(np.eye(3))
        np.testing.assert_allclose(f.lower, np.eye(3))

    def test_hand_expanded_2x2(self):
        # [[4,2],[2,3]] = L L^T with L = [[2,0],[1,sqrt(2)]]
        f = cholesky([[4.0, 2.0], [2.0, 3.0]])
        expected = np.array([[2.0, 0.0], [1.0, math.sqrt(2.0)]])
        np.testing.assert_allclose(f.lower, expected, rtol=1e-12)
        np.testing.assert_allclose(reconstruct(f), [[4.0, 2.0], [2.0, 3.0]],
                                   rtol=1e-12)

    def test_indefinite_rejected(self):
        # eigenvalues 3 and -1 (characteristic polynomial of [[1,2],[2,1]])
        with pytest.raises(NotPositiveDefinite):
            cholesky([[1.0, 2.0], [2.0, 1.0]])

    def test_asymmetric_rejected(self):
        with pytest.raises(NotSymmetric):
            cholesky([[1.0, 0.5], [0.2, 1.0]])

    def test_nan_rejected(self):
        with pytest.raises(NotSymmetric):
            cholesky([[1.0, np.nan], [np.nan, 1.0]])

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_diagonal_rejected(self, bad):
        # symmetric in position, but x - x is NaN for a NaN or infinite x
        with pytest.raises(NotSymmetric):
            cholesky([[bad, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("n", [1, 4, 16, 64])
    def test_exactly_symmetric_factor_bits(self, n):
        # the exact-symmetry shortcut factors the input as given, as the
        # tolerance test (asymmetry 0, nothing to symmetrize) did
        a = random_spd(np.random.default_rng(n), n)
        assert (a == a.T).all()
        f = cholesky(a)
        lower = np.linalg.cholesky(a)
        np.testing.assert_array_equal(f.lower, lower)
        np.testing.assert_array_equal(f.inverse, linalg._lower_inverse(lower))

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            cholesky(np.ones((2, 3)))

    def test_tiny_asymmetry_symmetrized(self, caplog):
        a = np.array([[2.0, 1.0], [1.0 + 1e-12, 2.0]])
        with caplog.at_level(logging.DEBUG, logger="featprior.linalg"):
            f = cholesky(a)
        np.testing.assert_allclose(reconstruct(f), 0.5 * (a + a.T), rtol=1e-12)
        assert any("symmetriz" in r.message for r in caplog.records)

    def test_reconstruction_roundtrip_random(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 5, 8, 13, 16):
            a = random_spd(rng, n)
            err = np.linalg.norm(reconstruct(cholesky(a)) - a) / np.linalg.norm(a)
            assert err < 1e-8


class TestLargeSizes:
    """Sizes the batch-256 prior factors every step."""

    def test_indefinite_64_rejected(self):
        rng = np.random.default_rng(20)
        q, _ = np.linalg.qr(rng.standard_normal((64, 64)))
        eigenvalues = np.linspace(1.0, 2.0, 64)
        eigenvalues[17] = -1e-3
        a = (q * eigenvalues) @ q.T
        with pytest.raises(NotPositiveDefinite):
            cholesky(0.5 * (a + a.T))

    def test_reconstruction_roundtrip_256(self):
        a = random_spd(np.random.default_rng(21), 256)
        err = np.linalg.norm(reconstruct(cholesky(a)) - a) / np.linalg.norm(a)
        assert err < 1e-8

    def test_matches_loop_factor(self):
        a = random_spd(np.random.default_rng(22), 64)
        expected = cholesky_loop(a)
        got = cholesky(a).lower
        assert np.max(np.abs(got - expected)) <= 1e-10 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n", [1, 31, 33, 100, 256])
    def test_carried_inverse(self, n):
        f = cholesky(random_spd(np.random.default_rng(23), n))
        np.testing.assert_array_equal(f.inverse, np.tril(f.inverse))
        assert np.max(np.abs(f.inverse @ f.lower - np.eye(n))) < 1e-10

    @pytest.mark.parametrize("shape", [(256,), (256, 5)])
    def test_solve_recovers_random_solution_256(self, shape):
        rng = np.random.default_rng(24)
        a = random_spd(rng, 256)
        x = rng.standard_normal(shape)
        got = solve_spd(cholesky(a), a @ x)
        assert got.shape == shape
        assert np.max(np.abs(got - x)) / np.max(np.abs(x)) < 1e-7

    def test_trace_solve_256(self):
        rng = np.random.default_rng(25)
        a = random_spd(rng, 256)
        b = random_spd(rng, 256)
        expected = float(np.trace(np.linalg.solve(a, b)))
        assert trace_solve(cholesky(a), b) == pytest.approx(expected, rel=1e-9)


class TestLogDet:
    def test_identity(self):
        assert log_det(cholesky(np.eye(4))) == pytest.approx(0.0, abs=1e-14)

    def test_diagonal(self):
        assert log_det(cholesky(np.diag([2.0, 2.0]))) == pytest.approx(
            math.log(4.0), rel=1e-12)

    def test_2x2(self):
        # det([[4,2],[2,3]]) = 4*3 - 2*2 = 8
        assert log_det(cholesky([[4.0, 2.0], [2.0, 3.0]])) == pytest.approx(
            math.log(8.0), rel=1e-12)

    def test_matches_jacobi_eigensolver(self):
        rng = np.random.default_rng(11)
        for n in (2, 4, 9, 16):
            a = random_spd(rng, n)
            expected = float(np.sum(np.log(jacobi_eigenvalues(a))))
            assert log_det(cholesky(a)) == pytest.approx(expected, abs=1e-6)


class TestSolve:
    def test_identity(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(solve_spd(cholesky(np.eye(2)), b), b)

    def test_diagonal_inverse(self):
        np.testing.assert_allclose(
            solve_spd(cholesky(np.diag([2.0, 2.0])), np.eye(2)),
            np.diag([0.5, 0.5]))

    def test_2x2_hand_solved(self):
        # [[4,2],[2,3]] x = [1,1]: x = [0.125, 0.25]
        x = solve_spd(cholesky([[4.0, 2.0], [2.0, 3.0]]), [1.0, 1.0])
        np.testing.assert_allclose(x, [0.125, 0.25], rtol=1e-12)

    def test_recovers_random_solution(self):
        rng = np.random.default_rng(3)
        for n in (2, 5, 9):
            a = random_spd(rng, n)
            x = rng.standard_normal((n, 3))
            got = solve_spd(cholesky(a), a @ x)
            assert np.max(np.abs(got - x)) / np.max(np.abs(x)) < 1e-7

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_spd(cholesky(np.eye(2)), np.ones((3, 2)))


class TestTraceSolve:
    def test_identity_gives_trace(self):
        b = np.array([[2.0, 9.0], [7.0, 5.0]])
        assert trace_solve(cholesky(np.eye(2)), b) == pytest.approx(7.0)

    def test_diagonal_ratio(self):
        assert trace_solve(cholesky(np.diag([2.0, 2.0])),
                           np.diag([4.0, 4.0])) == pytest.approx(4.0)

    def test_against_adjugate_inverse(self):
        # a = [[4,2],[2,3]]: a^{-1} = adj/det = [[3,-2],[-2,4]]/8
        a = np.array([[4.0, 2.0], [2.0, 3.0]])
        b = np.array([[2.0, 1.0], [1.0, 2.0]])
        a_inv = np.array([[3.0, -2.0], [-2.0, 4.0]]) / 8.0
        expected = float(np.trace(a_inv @ b))
        assert expected == pytest.approx(1.25)
        assert trace_solve(cholesky(a), b) == pytest.approx(expected, rel=1e-12)

    def test_self_trace_is_n(self):
        rng = np.random.default_rng(5)
        for n in (1, 3, 6, 12):
            a = random_spd(rng, n)
            assert trace_solve(cholesky(a), a) == pytest.approx(n, abs=1e-8)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            trace_solve(cholesky(np.eye(2)), np.eye(3))


class TestStackedBits:
    """Seeds train on a stacked axis (one matrix per seed), which is only
    sound if numpy's stacked kernels give every slice the bits of the 2-d
    call on that slice alone."""

    @staticmethod
    def stack(rng, n, p, seeds=3):
        return rng.standard_normal((seeds, n, p))

    @pytest.mark.parametrize("n", [2, 16, 64, 256])
    def test_numpy_kernels_per_slice(self, n):
        rng = np.random.default_rng(30 + n)
        x = self.stack(rng, n, max(n // 4, 1))
        grams = x @ x.swapaxes(-1, -2) + np.eye(n)
        lower = np.linalg.cholesky(grams)
        inverse = np.linalg.inv(lower)
        sums = x.sum(axis=-2)
        for s in range(x.shape[0]):
            gram = x[s] @ x[s].T + np.eye(n)
            np.testing.assert_array_equal(grams[s], gram)
            np.testing.assert_array_equal(lower[s], np.linalg.cholesky(gram))
            np.testing.assert_array_equal(inverse[s], np.linalg.inv(lower[s]))
            np.testing.assert_array_equal(sums[s], x[s].sum(axis=0))

    @pytest.mark.parametrize("n,p", [(2, 1), (16, 4), (16, 16), (64, 16), (256, 64)])
    def test_numpy_qr_per_slice(self, n, p):
        x = self.stack(np.random.default_rng(31 + n + p), n, p)
        q, r = np.linalg.qr(x)
        for s in range(x.shape[0]):
            q1, r1 = np.linalg.qr(x[s])
            np.testing.assert_array_equal(q[s], q1)
            np.testing.assert_array_equal(r[s], r1)

    @pytest.mark.parametrize("n", [2, 16, 33, 64, 256])
    def test_factor_log_det_and_solve_per_slice(self, n):
        rng = np.random.default_rng(32 + n)
        a = np.stack([random_spd(rng, n) for _ in range(3)])
        b = rng.standard_normal((3, n, 4))
        f = cholesky(a)
        dets = log_det(f)
        solved = solve_spd(f, b)
        for s in range(3):
            single = cholesky(a[s])
            np.testing.assert_array_equal(f.lower[s], single.lower)
            np.testing.assert_array_equal(f.inverse[s], single.inverse)
            assert dets[s] == log_det(single)
            np.testing.assert_array_equal(solved[s], solve_spd(single, b[s]))

    @pytest.mark.parametrize("n", [1, 5, 32])
    def test_leaf_inverse_is_tril_of_inv(self, n):
        lower = np.linalg.cholesky(random_spd(np.random.default_rng(33), n))
        np.testing.assert_array_equal(linalg._lower_inverse(lower),
                                      np.tril(np.linalg.inv(lower)))

    def test_reconstruct_per_slice(self):
        rng = np.random.default_rng(34)
        a = np.stack([random_spd(rng, 5) for _ in range(3)])
        stacked = reconstruct(cholesky(a))
        for s in range(3):
            np.testing.assert_array_equal(stacked[s], reconstruct(cholesky(a[s])))

    @pytest.mark.parametrize("call", [lambda f: trace_solve(f, np.eye(3)),
                                      lambda f: solve_spd(f, np.ones(3))],
                             ids=["trace_solve", "solve_spd-vector"])
    def test_stacked_factor_refused_where_not_per_slice(self, call):
        # trace_solve summed the slices' traces (1.5 + 0.75); a vector
        # right-hand side failed inside matmul
        f = cholesky(np.stack([2.0 * np.eye(3), 4.0 * np.eye(3)]))
        with pytest.raises(DimensionMismatch):
            call(f)

    def test_rhs_stack_of_other_leading_axes_refused(self):
        # three right-hand sides for a stack of two factors reached numpy's
        # bare broadcast ValueError: the size check read only axis -2
        f = cholesky(np.stack([2.0 * np.eye(3), 4.0 * np.eye(3)]))
        with pytest.raises(DimensionMismatch) as excinfo:
            solve_spd(f, np.ones((3, 3, 1)))
        assert str(excinfo.value) == ("rhs stack of shape (3, 3, 1) does not match the "
                                      "factor's leading axes (2,)")

    @pytest.mark.parametrize("lead, rhs", [((2,), (2, 2, 3, 1)), ((2,), (1, 3, 1)),
                                           ((), (2, 3, 1))],
                             ids=["extra-axis", "broadcast-axis", "lone-factor"])
    def test_rhs_stack_must_have_the_factors_leading_axes(self, lead, rhs):
        # each of these broadcast without an error
        f = cholesky(np.broadcast_to(2.0 * np.eye(3), lead + (3, 3)))
        with pytest.raises(DimensionMismatch):
            solve_spd(f, np.ones(rhs))

    def test_one_indefinite_slice_fails_the_stack(self):
        a = np.stack([np.eye(2), [[1.0, 2.0], [2.0, 1.0]]])
        with pytest.raises(NotPositiveDefinite):
            cholesky(a)

    def test_asymmetry_is_judged_per_slice(self):
        # 1e-9 is within tolerance next to the 1e3-scale slice but not in
        # the unit-scale one
        big = np.array([[1e3, 0.0], [1e-9, 1e3]])
        small = np.array([[1.0, 0.0], [1e-9, 1.0]])
        cholesky(np.stack([big, np.eye(2)]))
        with pytest.raises(NotSymmetric):
            cholesky(np.stack([big, small]))
