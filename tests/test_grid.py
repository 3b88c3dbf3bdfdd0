import re

import numpy as np
import pytest

from acflow.grid import STRIP_SIZE, Grid, row_strips
from acflow.potentials import interface_energy
from acflow.verify import dense_laplacian, gradient, laplacian, summation_by_parts


@pytest.fixture(params=["periodic", "neumann"])
def boundary(request):
    return request.param


def random_field(grid, seed=0):
    return np.random.default_rng(seed).standard_normal((grid.m, grid.m))


@pytest.mark.parametrize("boundary, offsets", [("periodic", [1.0, 2.0, 3.0, 4.0]),
                                               ("neumann", [0.5, 1.5, 2.5, 3.5])],
                         ids=["periodic", "neumann"])
def test_meshgrid_nodes(boundary, offsets):
    # Periodic nodes sit at (i+1)h, so the last is at L; Neumann nodes at
    # the cell centres (i+1/2)h.  Both axes share them.
    grid = Grid(4, 1.3, boundary)
    x = grid.nodes()
    assert np.array_equal(x, np.array(offsets) * (1.3 / 4))
    assert (x[-1] == 1.3) == (boundary == "periodic")


class TestStencils:
    def test_laplacian_annihilates_constants(self, boundary):
        grid = Grid(8, 1.0, boundary)
        assert np.allclose(laplacian(grid, np.full((8, 8), 3.7)), 0.0, atol=1e-12)

    def test_laplacian_point_source_periodic(self):
        grid = Grid(3, 3.0)  # h = 1
        v = np.zeros((3, 3))
        v[0, 0] = 1.0
        lap = laplacian(grid, v)
        assert lap[0, 0] == -4.0
        for i, j in [(1, 0), (2, 0), (0, 1), (0, 2)]:
            assert lap[i, j] == 1.0
        assert np.count_nonzero(lap) == 5

    def test_laplacian_cosine_eigenvector(self):
        # cos(2 pi x / L) is an eigenvector with eigenvalue lambda_{1,0};
        # cross-check lambda against the dense matrix spectrum.
        grid = Grid(8, 1.0)
        x, _ = np.meshgrid(grid.nodes(), grid.nodes(), indexing="ij")
        v = np.cos(2 * np.pi * x / grid.length)
        lam = grid.multiplier_eigenvalues[1, 0]
        assert np.allclose(laplacian(grid, v), lam * v, rtol=1e-12, atol=1e-9)
        dense_eigs = np.sort(np.linalg.eigvalsh(dense_laplacian(grid)))
        assert np.min(np.abs(dense_eigs - lam)) < 1e-9 * abs(lam)

    def test_gradient_constant(self, boundary):
        grid = Grid(6, 1.0, boundary)
        gx, gy = gradient(grid, np.full((6, 6), 2.0))
        assert np.all(gx == 0) and np.all(gy == 0)

    def test_gradient_wraps_periodically(self):
        grid = Grid(2, 2.0)  # h = 1
        v = np.array([[0.0, 1.0], [0.0, 1.0]])  # v_{ij} = j
        gx, gy = gradient(grid, v)
        assert np.all(gx == 0)
        assert np.array_equal(gy, np.array([[1.0, -1.0], [1.0, -1.0]]))

    def test_summation_by_parts(self, boundary):
        check = summation_by_parts([Grid(10, 1.0, boundary)],
                                   np.random.default_rng(42))
        assert check.passed, check.detail

    def test_negative_semidefinite(self, boundary):
        grid = Grid(9, 1.0, boundary)
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = rng.standard_normal((9, 9))
            assert grid.inner(v, laplacian(grid, v)) <= 1e-12
        assert grid.inner(np.ones((9, 9)), laplacian(grid, np.ones((9, 9)))) == \
            pytest.approx(0.0, abs=1e-12)


def _check_interface_energy(grid, seeds):
    # The spectral sum against (eps^2/2) ||grad_h v||^2 from the stencil.
    eps = 0.01
    for seed in range(seeds):
        v = random_field(grid, seed)
        gx, gy = gradient(grid, v)
        expected = 0.5 * eps * eps * (grid.inner(gx, gx) + grid.inner(gy, gy))
        energy = interface_energy(grid, grid.fast_forward(v), eps)
        assert energy == pytest.approx(expected, rel=1e-13)
    # Only the constant mode is left, and its eigenvalue is 0; for odd M the
    # transform leaves roundoff in the other modes.
    for value in (1.0, 0.3, -2.7):
        v_hat = grid.fast_forward(np.full((grid.m, grid.m), value))
        energy = interface_energy(grid, v_hat, 1.0)
        if grid.m % 2 == 0:
            assert energy == 0.0
        else:
            assert 0.0 <= energy <= 1e-25


@pytest.mark.parametrize("m", [2, 3, 16, 33, 127, 128])
def test_interface_energy_matches_gradient_form(m, boundary):
    _check_interface_energy(Grid(m, 1.3, boundary), 10)


def test_interface_energy_matches_gradient_form_at_512():
    grid = Grid(512, 1.3, "neumann")
    _check_interface_energy(grid, 2)
    assert grid._energy_weights is grid.multiplier_eigenvalues  # no second array


class TestInnerProducts:
    def test_inner_of_ones_is_area(self, boundary):
        grid = Grid(7, 2.5, boundary)
        ones = np.ones((7, 7))
        assert grid.inner(ones, ones) == pytest.approx(2.5**2, rel=1e-14)

    def test_norm_inf_zero_field(self):
        assert Grid(4).norm_inf(np.zeros((4, 4))) == 0.0

    def test_cauchy_schwarz(self, boundary):
        grid = Grid(8, 1.0, boundary)
        rng = np.random.default_rng(7)
        for _ in range(100):
            v = rng.standard_normal((8, 8))
            w = rng.standard_normal((8, 8))
            assert abs(grid.inner(v, w)) <= grid.norm2(v) * grid.norm2(w) * (1 + 1e-14)

    def test_deterministic_reduction(self):
        grid = Grid(16)
        v = random_field(grid, 11)
        w = random_field(grid, 12)
        assert grid.inner(v, w) == grid.inner(v.copy(), w.copy())


class TestEigenvalues:
    def test_constant_mode_is_zero(self, boundary):
        assert Grid(8, 1.0, boundary).multiplier_eigenvalues[0, 0] == 0.0

    def test_nyquist_mode_periodic(self):
        grid = Grid(8, 1.0)
        assert grid.multiplier_eigenvalues[4, 4] == pytest.approx(-8.0 / grid.h**2,
                                                                  rel=1e-14)

    def test_full_spectrum_matches_dense(self, boundary):
        # The spectral Laplacian equals the dense stencil matrix on every
        # field, so its multipliers are the full dense spectrum.
        for m in (6, 7, 8):
            grid = Grid(m, 1.0, boundary)
            v = random_field(grid, m)
            dense = (dense_laplacian(grid) @ v.ravel()).reshape(m, m)
            spectral = grid.fast_inverse(grid.fast_forward(v)
                                         * grid.multiplier_eigenvalues)
            scale = max(1.0, np.max(np.abs(dense)))
            assert np.max(np.abs(dense - spectral)) <= 1e-12 * scale


class TestTransforms:
    def test_zero_field(self, boundary):
        grid = Grid(8, 1.0, boundary)
        assert np.allclose(grid.fast_forward(np.zeros((8, 8))), 0.0)

    def test_constant_field_single_mode(self, boundary):
        grid = Grid(8, 1.0, boundary)
        c = grid.fast_forward(np.full((8, 8), 1.5))
        mask = np.zeros(c.shape, dtype=bool)
        mask[0, 0] = True
        assert abs(c[0, 0]) > 0
        assert np.max(np.abs(c[~mask])) < 1e-12 * abs(c[0, 0])

    def test_round_trip(self, boundary):
        grid = Grid(16, 1.0, boundary)
        v = random_field(grid, 5)
        back = grid.fast_inverse(grid.fast_forward(v))
        assert grid.norm2(back - v) <= 1e-12 * grid.norm2(v)

    def test_diagonalization_consistency(self, boundary):
        grid = Grid(16, 1.0, boundary)
        v = random_field(grid, 6)
        lhs = grid.fast_forward(laplacian(grid, v))
        rhs = grid.multiplier_eigenvalues * grid.fast_forward(v)
        scale = np.max(np.abs(rhs))
        assert np.max(np.abs(lhs - rhs)) <= 1e-11 * scale

    def test_stencil_vs_spectral_laplacian(self, boundary):
        grid = Grid(16, 1.0, boundary)
        v = random_field(grid, 8)
        spectral = grid.fast_inverse(grid.fast_forward(v)
                                     * grid.multiplier_eigenvalues)
        stencil = laplacian(grid, v)
        assert grid.norm2(spectral - stencil) <= 1e-11 * max(1.0, grid.norm2(stencil))

    def test_transform_determinism(self, boundary):
        grid = Grid(16, 1.0, boundary)
        v = random_field(grid, 9)
        a = grid.fast_inverse(grid.fast_forward(v) * grid.multiplier_eigenvalues)
        b = grid.fast_inverse(grid.fast_forward(v.copy())
                              * grid.multiplier_eigenvalues.copy())
        assert np.array_equal(a, b)


class TestRowStrips:
    @pytest.mark.parametrize("m", [127, 128, 129, 300, 512])
    @pytest.mark.parametrize("boundary", ["periodic", "neumann"])
    def test_strips_cover_every_row_once_in_order(self, m, boundary):
        # Spectra in the layout of multiplier_eigenvalues: the rfft2
        # half-spectrum (periodic) and a real M x M field (Neumann).
        lam = Grid(m, 1.0, boundary).multiplier_eigenvalues
        a = np.arange(lam.size, dtype=float).reshape(lam.shape)
        b = a.astype(complex)
        pieces = row_strips(a, b)
        for pa, pb in pieces:
            assert pa.size <= STRIP_SIZE
            assert np.shares_memory(pa, a) and np.shares_memory(pb, b)
            assert np.array_equal(pb, pa)
        assert np.array_equal(np.concatenate([pa for pa, _ in pieces]), a)
        assert (len(pieces) == 1) == (a.size <= STRIP_SIZE)

    @pytest.mark.parametrize("a", [np.zeros((128, 65), complex),
                                   np.zeros((128, 128)), np.asarray(0.5),
                                   np.zeros(STRIP_SIZE)],
                             ids=["spectrum-128", "field-128", "0-d", "1-d"])
    def test_small_arrays_are_one_piece_of_themselves(self, a):
        b = np.empty_like(a)
        (piece,) = row_strips(a, b)
        assert piece[0] is a and piece[1] is b


class TestValidation:
    def test_rejects_small_grid(self):
        with pytest.raises(ValueError):
            Grid(1)
        with pytest.raises(ValueError, match="unknown boundary 'bogus'"):
            Grid(8, 1.0, "bogus")

    @pytest.mark.parametrize("m", [2.5, 8.0, np.float64(8), "8"],
                             ids=["2.5", "8.0", "float64-8", "str-8"])
    def test_rejects_non_integer_m(self, m):
        with pytest.raises(ValueError, match="M"):
            Grid(m)

    @pytest.mark.parametrize("m", [8, np.int64(8), np.int32(8)],
                             ids=["int", "int64", "int32"])
    def test_accepts_python_and_numpy_integers(self, m):
        grid = Grid(m)
        assert type(grid.m) is int and grid.m == 8 and grid.h == 1.0 / 8

    def test_dense_laplacian_size_guard(self):
        with pytest.raises(ValueError):
            dense_laplacian(Grid(32))

    @pytest.mark.parametrize("m, length", [(128, 1e-160), (8, 1e-160), (8, 1e160),
                                           (8, 1.28e-153)])
    def test_rejects_unusable_spacing(self, m, length):
        # h*h underflows or overflows, or 8/(h*h), the Laplacian's largest
        # |eigenvalue|, overflows: a ValueError naming L and M, not a
        # ZeroDivisionError, an OverflowError or a NaN or -inf eigenvalue.
        with pytest.raises(ValueError, match=re.escape(f"L={length!r}, M={m} give h=")):
            Grid(m, length)

    @pytest.mark.parametrize("h", [2.2e-154, 1.3e154])
    def test_accepts_spacing_near_the_edges(self, h, boundary):
        grid = Grid(8, 8 * h, boundary)
        assert np.all(np.isfinite(grid.multiplier_eigenvalues))

    def test_h_times_m_is_length(self):
        grid = Grid(7, 1.0)
        assert grid.h * grid.m == grid.length
