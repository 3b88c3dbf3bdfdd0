import numpy as np
import pytest

from acflow.expkernel import StabilizedOperator, phi1
from acflow.grid import Grid
from acflow.verify import (
    BOUNDARIES,
    dense_expm,
    dense_laplacian,
    exp_kernel_oracle,
    phi1_inequalities,
    semigroup_contraction,
)


class TestPhi1:
    def test_removable_singularity(self):
        assert phi1(0.0) == 1.0

    def test_closed_form(self):
        assert phi1(-1.0) == pytest.approx(1.0 - np.exp(-1.0), rel=1e-14)

    def test_series_branch_matches_limit(self):
        for z in (1e-6, -1e-6, 1e-9, -1e-12):
            assert phi1(z) == pytest.approx(1.0 + z / 2 + z * z / 6, rel=1e-14)

    def test_inequalities(self):
        check = phi1_inequalities(np.random.default_rng(0))
        assert check.passed, check.detail


@pytest.fixture(params=BOUNDARIES)
def grid8(request):
    return Grid(8, 1.0, request.param)


def advance(op, tau, v, nonlin):
    """e^{-tau L} v + tau * phi1(-tau L) nonlin, fields in and out."""
    forward = op.grid.fast_forward
    return op.advance_spectral(tau, forward(v), forward(nonlin),
                               resolvent=False)[0]


class TestSpectralKernels:
    def test_constant_field_decays_by_exp_c(self):
        grid = Grid(8)
        op = StabilizedOperator(grid, 1.7, 1e-4)
        out = advance(op, 0.3, np.ones((8, 8)), np.zeros((8, 8)))
        assert np.allclose(out, np.exp(-0.3 * 1.7), rtol=1e-13)

    def test_constant_field_phi1(self):
        grid = Grid(8)
        op = StabilizedOperator(grid, 1.7, 1e-4)
        out = advance(op, 0.3, np.zeros((8, 8)), np.ones((8, 8))) / 0.3
        assert np.allclose(out, phi1(-0.3 * 1.7), rtol=1e-13)

    def test_phi1_small_tau_limit(self, grid8):
        v = np.random.default_rng(2).standard_normal((8, 8))
        op = StabilizedOperator(grid8, 2.0, 1e-4)
        out = advance(op, 1e-12, np.zeros((8, 8)), v) / 1e-12
        assert grid8.norm2(out - v) <= 1e-9 * grid8.norm2(v)

    def test_matches_dense_oracles(self, grid8):
        check = exp_kernel_oracle([grid8], np.random.default_rng(3))
        assert check.passed, check.detail

    def test_advance_equals_composition(self, grid8):
        # The fused step is the sum of its exponential and phi1 parts.
        rng = np.random.default_rng(4)
        v = rng.standard_normal((8, 8))
        n = rng.standard_normal((8, 8))
        zero = np.zeros((8, 8))
        op = StabilizedOperator(grid8, 2.0, 1e-4)
        tau = 0.37
        fused = advance(op, tau, v, n)
        split = advance(op, tau, v, zero) + advance(op, tau, zero, n)
        assert grid8.norm2(fused - split) <= 1e-13 * grid8.norm2(split)

    def test_kernels_match_direct_formulas_bitwise(self, grid8):
        # The operator builds its eigenvalues per call, in place, and at
        # M=300 per row strip of the spectrum, the last one ragged; the
        # arithmetic must stay that of the whole-field formulas.
        for m in (8, 300):
            grid = Grid(m, 1.0, grid8.boundary)
            rng = np.random.default_rng(5)
            v = rng.standard_normal((m, m))
            n = rng.standard_normal((m, m))
            c, eps2, tau = 1.3, 3e-3, 0.21
            eigs = c - eps2 * grid.multiplier_eigenvalues
            z = -tau * eigs
            exact = grid.fast_inverse(grid.fast_forward(n) * tau * phi1(z)
                                      + grid.fast_forward(v) * np.exp(z))
            r = 1.0 / (1.0 + tau * eigs)
            resolvent = grid.fast_inverse(grid.fast_forward(n) * tau * r
                                          + grid.fast_forward(v) * r)
            op = StabilizedOperator(grid, c, eps2)
            v_hat = grid.fast_forward(v)
            for _ in range(2):  # nothing the first call computes is reused
                assert advance(op, tau, v, n).tobytes() == exact.tobytes()
                stab1 = op.advance_spectral(tau, v_hat, grid.fast_forward(n),
                                            resolvent=True)[0]
                assert stab1.tobytes() == resolvent.tobytes()

    @pytest.mark.parametrize("resolvent", [False, True])
    def test_advance_spectral_writes_over_n_hat_only(self, grid8, resolvent):
        rng = np.random.default_rng(6)
        v_hat = grid8.fast_forward(rng.standard_normal((8, 8)))
        n_hat = grid8.fast_forward(rng.standard_normal((8, 8)))
        v_bytes = v_hat.tobytes()
        op = StabilizedOperator(grid8, 1.3, 3e-3)
        u, spectrum = op.advance_spectral(0.21, v_hat, n_hat, resolvent)
        assert spectrum is n_hat
        assert v_hat.tobytes() == v_bytes
        assert u.tobytes() == grid8.fast_inverse(n_hat).tobytes()

    def test_rejects_nonpositive_coefficient(self):
        with pytest.raises(ValueError):
            StabilizedOperator(Grid(8), 0.0, 1e-4)


class TestDenseOracles:
    def test_expm_of_zero(self):
        assert np.allclose(dense_expm(np.zeros((5, 5))), np.eye(5), atol=1e-15)

    def test_expm_of_diagonal(self):
        d = np.array([0.3, -1.2, 2.0])
        out = dense_expm(np.diag(0.7 * d))
        assert np.allclose(out, np.diag(np.exp(0.7 * d)), rtol=1e-13)

    def test_commutation(self):
        grid = Grid(6)
        L = 1.3 * np.eye(36) - 1e-3 * dense_laplacian(grid)
        E = dense_expm(-0.4 * L)
        assert np.max(np.abs(E @ L - L @ E)) <= 1e-10

    def test_contraction_semigroup(self):
        grids = [Grid(8, 1.0, b) for b in BOUNDARIES]
        check = semigroup_contraction(grids, np.random.default_rng(5))
        assert check.passed, check.detail
