"""SPD primitive tests: frozen hand-derived cases plus randomized
invariants cross-checked against an independent Jacobi eigensolver."""

from __future__ import annotations

import logging
import math

import numpy as np
import pytest

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
