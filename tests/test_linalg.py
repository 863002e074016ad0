import numpy as np
import pytest

from qnbench.linalg import (
    SPDError,
    cholesky,
    inverse_spd,
    log_determinant_spd,
    solve_spd,
)

from _util import determinant_spd, make_spd


class TestCholesky:
    def test_identity(self):
        L = cholesky(np.eye(2))
        assert np.array_equal(L, np.eye(2))

    def test_diagonal_square_roots(self):
        L = cholesky(np.diag([4.0, 9.0]))
        assert np.allclose(L, np.diag([2.0, 3.0]), rtol=0, atol=0)

    def test_indefinite_fails(self):
        # eigenvalues 3 and -1
        with pytest.raises(SPDError):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_negative_diagonal_fails(self):
        with pytest.raises(SPDError):
            cholesky(np.array([[-1.0]]))

    def test_pivot_at_limit_fails_where_lapack_factors(self):
        # LAPACK factors it; only the pivot test PIVOT_RTOL * max(diag) rejects it
        a = np.diag([1.0, 1e-15])
        np.linalg.cholesky(a)
        with pytest.raises(SPDError):
            cholesky(a)

    def test_pivot_above_limit_factors(self):
        a = np.diag([1.0, 1e-13])
        L = cholesky(a)
        assert np.allclose(L @ L.T, a, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("a", [np.float64(2.0), np.ones(3), np.ones((2, 3))],
                             ids=["0-d", "1-d", "2x3"])
    def test_non_square_rejected(self, a):
        with pytest.raises(ValueError, match="square"):
            cholesky(a)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            cholesky(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    @pytest.mark.parametrize("n", [2, 10, 300])
    def test_out_holds_the_factor_of_np_linalg_cholesky(self, n):
        rng = np.random.default_rng(60 + n)
        for _ in range(3):
            a = make_spd(rng, n)
            assert np.array_equal(cholesky(a), np.linalg.cholesky(a))

    @pytest.mark.parametrize("a, match", [
        (np.array([[1.0, 2.0], [2.0, 1.0]]), "LAPACK"),
        (np.diag([1.0, 1e-15]), "pivot"),
        (np.diag([1.0, 1e-15, 1e-16]), "pivot .* at column 1 is below"),
    ], ids=["indefinite", "pivot-at-limit", "first-failing-column"])
    def test_out_failures_raise(self, a, match):
        # LAPACK's failure on an indefinite matrix is an SPDError, not numpy's
        # LinAlgError; a pivot at the limit is rejected by the pivot test, whose
        # message names the first column that fails it
        with pytest.raises(SPDError, match=match):
            cholesky(a)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 1), (1, 1)], ids=["off-diagonal", "diagonal"])
    def test_non_finite_rejected_before_out_is_written(self, bad, where):
        # rejected by its own check, before LAPACK sees it
        a = np.eye(2)
        a[where] = a[where[::-1]] = bad
        with pytest.raises(ValueError, match="finite"):
            cholesky(a)

    def test_reconstruction_on_random_spd(self):
        rng = np.random.default_rng(42)
        for n in (2, 5, 10, 20, 50):
            a = make_spd(rng, n)
            L = cholesky(a)
            assert np.all(np.diag(L) > 0)
            err = np.max(np.abs(L @ L.T - a))
            assert err <= 1e-10 * np.max(np.abs(a))


class TestSolveSpd:
    def test_identity(self):
        x = solve_spd(np.eye(3), np.array([1.0, 2.0, 3.0]))
        assert np.allclose(x, [1.0, 2.0, 3.0], rtol=0, atol=0)

    def test_diagonal(self):
        L = cholesky(np.diag([2.0, 4.0]))
        assert np.allclose(solve_spd(L, np.array([2.0, 4.0])), [1.0, 1.0])

    def test_two_by_two(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        x = solve_spd(cholesky(a), np.array([3.0, 3.0]))
        assert np.allclose(x, [1.0, 1.0])
        assert np.allclose(a @ x, [3.0, 3.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_spd(np.eye(3), np.ones(2))

    def test_residual_on_random_systems(self):
        rng = np.random.default_rng(3)
        for n in (2, 5, 10, 25, 50):
            a = make_spd(rng, n)
            b = rng.standard_normal(n)
            x = solve_spd(cholesky(a), b)
            resid = np.linalg.norm(a @ x - b)
            bound = 1e-10 * (np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(b))
            assert resid <= bound


class TestDeterminant:
    def test_identity(self):
        assert determinant_spd(cholesky(np.eye(3))) == 1.0

    def test_diagonal(self):
        assert determinant_spd(cholesky(np.diag([2.0, 3.0]))) == pytest.approx(6.0)

    def test_two_by_two(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert determinant_spd(cholesky(a)) == pytest.approx(3.0)

    def test_product_with_inverse_determinant(self):
        rng = np.random.default_rng(11)
        for n in (2, 5, 10, 20):
            a = make_spd(rng, n)
            det_a = determinant_spd(cholesky(a))
            det_inv = determinant_spd(cholesky(inverse_spd(a)))
            assert det_a * det_inv == pytest.approx(1.0, rel=1e-8)

    def test_log_determinant_matches(self):
        rng = np.random.default_rng(12)
        a = make_spd(rng, 6)
        L = cholesky(a)
        assert log_determinant_spd(L) == pytest.approx(np.log(determinant_spd(L)), rel=1e-12)


def test_inverse_spd_round_trip():
    rng = np.random.default_rng(9)
    a = make_spd(rng, 8)
    inv = inverse_spd(a)
    assert np.array_equal(inv, inv.T)
    assert np.allclose(a @ inv, np.eye(8), atol=1e-10)


def test_inverse_spd_rejects_indefinite():
    with pytest.raises(SPDError):
        inverse_spd(np.array([[1.0, 2.0], [2.0, 1.0]]))


@pytest.mark.parametrize("n", [2, 10, 300])
def test_inverse_spd_is_the_symmetric_part_of_the_inverse(n):
    # bit for bit: the in-place symmetrization adds and halves in the same order
    rng = np.random.default_rng(70 + n)
    a = make_spd(rng, n)
    inv = np.linalg.inv(a)
    assert np.array_equal(inverse_spd(a), 0.5 * (inv + inv.T))
