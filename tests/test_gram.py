import itertools

import numpy as np
import pytest

from oracles import gram_inverse, lu_node_errors, lu_solve
from tidict import (
    DomainError,
    GaussianIsotropicKernel,
    GramSystem,
    IllConditionedError,
    LowRankDictionary,
    NodeGrid,
    NoValidDecomposition,
    RaisedCosineKernel,
    build_gram,
    decompose_gram_1d,
    decompose_gram_separable,
    decompose_grid,
    verify_decomposition,
)


class TestNodeGrid:
    def test_nodes_row_major(self):
        grid = NodeGrid(origin=[0.0, 10.0], spacing=[1.0, 0.5], counts=[2, 3])
        assert grid.size == 6 and grid.dim == 2
        expected = [
            [0.0, 10.0],
            [0.0, 10.5],
            [0.0, 11.0],
            [1.0, 10.0],
            [1.0, 10.5],
            [1.0, 11.0],
        ]
        assert np.allclose(grid.nodes, expected)

    def test_bounds(self):
        grid = NodeGrid(origin=[-1.0], spacing=[0.5], counts=[5])
        lo, hi = grid.bounds()
        assert lo[0] == -1.0 and hi[0] == 1.0

    def test_validation(self):
        with pytest.raises(DomainError):
            NodeGrid(origin=[0.0], spacing=[0.0], counts=[3])
        with pytest.raises(DomainError):
            NodeGrid(origin=[0.0], spacing=[1.0], counts=[0])
        with pytest.raises(DomainError):
            NodeGrid(origin=[0.0, 0.0], spacing=[1.0], counts=[3])


class TestBuildGram:
    def test_1d_toeplitz_exact(self, gauss1):
        gram = build_gram(gauss1, NodeGrid([0.3], [0.7], [8]))
        for off in range(8):
            diag = np.diagonal(gram.matrix, offset=off)
            # every diagonal is bitwise constant
            assert np.all(diag == diag[0])

    def test_2d_matches_kronecker_of_axis_grams(self, gauss2, grid23):
        gram = build_gram(gauss2, grid23)
        k1 = GaussianIsotropicKernel(1.0, dim=1)
        g_a = build_gram(k1, NodeGrid([0.0], [1.0], [2])).matrix
        g_b = build_gram(k1, NodeGrid([0.0], [1.0], [3])).matrix
        assert np.max(np.abs(gram.matrix - np.kron(g_a, g_b))) < 1e-14

    def test_general_nodes(self, gauss2):
        nodes = np.array([[0.0, 0.0], [0.3, 1.1], [2.0, -0.4]])
        gram = build_gram(gauss2, nodes)
        assert np.allclose(np.diag(gram.matrix), 1.0)
        assert np.array_equal(gram.matrix, gram.matrix.T)

    def test_solve_and_inverse(self, gauss1, rng):
        gram = build_gram(gauss1, NodeGrid([0.0], [1.0], [5]))
        b = rng.normal(size=5)
        assert np.max(np.abs(gram.matrix @ gram.solve(b) - b)) < 1e-12
        assert np.max(np.abs(gram.matrix @ gram_inverse(gram) - np.eye(5))) < 1e-10

    def test_condition_number_limit(self, gauss1):
        dense = NodeGrid([0.0], [0.01], [6])
        with pytest.raises(IllConditionedError):
            build_gram(gauss1, dense)
        # a strict custom limit trips on an otherwise fine grid
        with pytest.raises(IllConditionedError):
            build_gram(gauss1, NodeGrid([0.0], [1.0], [6]), condition_limit=10.0)

    def test_dim_mismatch(self, gauss2):
        with pytest.raises(DomainError):
            build_gram(gauss2, NodeGrid([0.0], [1.0], [4]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_is_ill_conditioned(self, bad):
        matrix = np.eye(3)
        matrix[0, 1] = matrix[1, 0] = bad
        with pytest.raises(IllConditionedError, match="non-finite"):
            GramSystem(matrix, np.zeros((3, 1)))


# (dim, spacing, counts) of the README 2-D grid, the 1-D spacing-0.5 L=20
# grid near the condition limit, and the 3-D 6x6x6 grid
BENCH_GRIDS = [(2, 1.0, (2, 3)), (1, 0.5, (20,)), (3, 1.0, (6, 6, 6))]
COND_1D = (1, 0.5, (20,))


def _gram(dim, spacing, counts):
    kernel = GaussianIsotropicKernel(sigma=1.0, dim=dim)
    return build_gram(kernel, NodeGrid([0.0] * dim, [spacing] * dim, counts))


def _backward_error(matrix, x, b):
    """Normwise backward error of each column of ``x`` as a solution of ``matrix x = b``."""
    residual = np.linalg.norm(b - matrix @ x, axis=0)
    scale = np.linalg.norm(matrix, 2) * np.linalg.norm(x, axis=0) + np.linalg.norm(b, axis=0)
    return residual / scale


class TestGramSystem:
    @pytest.mark.parametrize("grid", BENCH_GRIDS + [(1, 1.0, (6,))])
    def test_condition_number_matches_svd(self, grid):
        gram = _gram(*grid)
        assert gram.condition_number == pytest.approx(np.linalg.cond(gram.matrix), rel=1e-5)

    def test_backward_error_no_worse_than_lu(self, rng):
        gram = _gram(*COND_1D)
        assert gram.condition_number > 1e11
        b = rng.normal(size=(gram.size, 64))
        ours = _backward_error(gram.matrix, gram.solve(b), b)
        lu = _backward_error(gram.matrix, lu_solve(gram.matrix, b), b)
        assert np.max(ours) <= 2.0 * np.max(lu)

    def test_solve_rows_is_solve_transposed(self, rng):
        gram = _gram(*COND_1D)
        rows = rng.normal(size=(9, gram.size))
        assert np.array_equal(gram.solve(rows.T), gram.solve_rows(rows).T)
        assert np.array_equal(gram.solve(rows[0]), gram.solve_rows(rows[0]))

    @pytest.mark.parametrize("limit", [1e12, np.inf])
    def test_not_positive_definite_is_ill_conditioned(self, limit):
        matrix = np.array([[1.0, 0.9, 0.0], [0.9, 1.0, 0.9], [0.0, 0.9, 1.0]])
        assert np.linalg.eigvalsh(matrix)[0] < 0.0
        with pytest.raises(IllConditionedError, match="condition number inf exceeds limit"):
            GramSystem(matrix, np.zeros((3, 1)), condition_limit=limit)


def _sweep_grids():
    for spacing in (1.0, 0.75, 0.5, 0.25):
        for counts in range(2, 41):
            yield 1, spacing, (counts,)
        for counts in itertools.product(range(2, 9), repeat=2):
            yield 2, spacing, counts
        for counts in [(c,) * 3 for c in range(2, 7)] + [(2, 3, 4), (3, 4, 5)]:
            yield 3, spacing, counts


def test_conditioning_sweep_keeps_the_lu_node_floors():
    """Every grid under the condition limit keeps the node floor an LU solve gives.

    The error formula resolves squared errors to about one rounding of 1, so
    a node floor under ``sqrt(eps)`` counts as ``sqrt(eps)``.
    """
    tol = 1e-7  # the node_interpolation default
    resolution = np.sqrt(np.finfo(float).eps)
    accepted = 0
    for dim, spacing, counts in _sweep_grids():
        kernel = GaussianIsotropicKernel(sigma=1.0, dim=dim)
        grid = NodeGrid([0.0] * dim, [spacing] * dim, counts)
        delta = grid.nodes[:, None, :] - grid.nodes[None, :, :]
        matrix = kernel.eval(delta.reshape(-1, dim)).reshape(grid.size, grid.size)
        under_limit = np.linalg.cond(matrix) <= 1e12
        try:
            ld = LowRankDictionary.from_kernel(kernel, grid, condition_limit=1e12)
        except IllConditionedError:
            assert not under_limit, (dim, spacing, counts)
            continue
        except NoValidDecomposition:
            continue
        assert under_limit, (dim, spacing, counts)
        accepted += 1
        ours = float(np.max(ld.approx_error(ld.nodes)))
        lu = float(np.max(lu_node_errors(ld)))
        assert (ours <= tol) == (lu <= tol), (dim, spacing, counts, ours, lu)
        assert max(ours, resolution) <= 2.0 * max(lu, resolution), (dim, spacing, counts, ours, lu)
    assert accepted > 250


class TestDecompose1D:
    def test_single_node_is_constant_kernel(self):
        rc = decompose_gram_1d(np.array([1.0]), 1.0)
        assert rc.rank == 1 and rc.num_terms == 0
        assert rc.lambda0 == 1.0
        assert rc.eval(0.123) == 1.0

    def test_two_nodes_closed_form(self, gauss1):
        # with two nodes the single frequency is arccos of the correlation
        for dt in (0.5, 1.0, 1.7):
            g = np.array([1.0, gauss1.eval(dt)])
            rc = decompose_gram_1d(g, dt)
            assert rc.lambda0 == 0.0
            assert rc.weights[0] == pytest.approx(1.0, abs=1e-12)
            want = np.arccos(gauss1.eval(dt)) / dt
            assert rc.freqs[0, 0] == pytest.approx(want, abs=1e-12)

    def test_three_nodes_closed_form(self, gauss1):
        dt = 1.0
        g = np.array([1.0, gauss1.eval(1.0), gauss1.eval(2.0)])
        rc = decompose_gram_1d(g, dt)
        # eliminate the constant by differencing, then the cosine ratio is explicit
        h0 = g[1] - g[0]
        h1 = 0.5 * (g[2] + g[0]) - g[1]
        x = h1 / h0
        lam1 = (1.0 - g[1]) / (1.0 - x)
        assert rc.freqs[0, 0] == pytest.approx(np.arccos(x), abs=1e-12)
        assert rc.weights[0] == pytest.approx(lam1, abs=1e-12)
        assert rc.lambda0 == pytest.approx(1.0 - lam1, abs=1e-12)

    # regression pins for the Gaussian family at unit sigma
    FROZEN = {
        (1.0, 4): (0.0, [0.85231832488690762, 0.14768167511309271],
                   [0.46322961758069564, 1.4601654946575451]),
        (1.0, 6): (0.0,
                   [0.71234587183818399, 0.26152464659614755, 0.026129481565668234],
                   [0.35681863295367294, 1.0925822641374454, 1.9236020488676753]),
        (0.5, 4): (0.0, [0.89511339784149513, 0.10488660215850441],
                   [0.50847981381906571, 1.6000501597476986]),
        (0.5, 6): (0.0,
                   [0.79099394158969716, 0.2006418018882862, 0.0083642565220145952],
                   [0.41401982069967735, 1.2682969841331544, 2.2318960600866209]),
    }

    @pytest.mark.parametrize("dt,L", sorted(FROZEN))
    def test_frozen_gaussian_decompositions(self, gauss1, dt, L):
        lam0, weights, freqs = self.FROZEN[(dt, L)]
        g = gauss1.eval(dt * np.arange(L))
        rc = decompose_gram_1d(g, dt)
        assert rc.lambda0 == pytest.approx(lam0, abs=1e-12)
        assert np.max(np.abs(rc.weights - weights)) < 1e-12
        assert np.max(np.abs(rc.freqs.ravel() - freqs)) < 1e-12

    @pytest.mark.parametrize("dt", [0.5, 1.0])
    @pytest.mark.parametrize("L", [2, 3, 4, 5, 6, 7, 8])
    def test_gaussian_family_structure(self, gauss1, dt, L):
        g = gauss1.eval(dt * np.arange(L))
        rc = decompose_gram_1d(g, dt)
        assert rc.rank == L
        assert rc.num_terms == L // 2
        if L % 2 == 0:
            assert rc.lambda0 == 0.0
        else:
            assert rc.lambda0 > 0.0
        assert np.all(rc.weights > 0.0)
        steps = rc.freqs.ravel() * dt
        assert np.all(np.diff(steps) > 0.0)
        assert steps[0] > 0.0 and steps[-1] < np.pi
        # interpolation at the nodes
        resid = np.max(np.abs(rc.eval(dt * np.arange(L)) - g))
        assert resid < 1e-10
        assert rc.validate().ok

    def test_non_gaussian_exact_sequence(self):
        # any admissible three-term sequence decomposes exactly
        g = np.array([1.0, 0.5, 0.125])
        rc = decompose_gram_1d(g, 1.0)
        assert rc.lambda0 > 0.0 and rc.weights[0] > 0.0
        assert np.max(np.abs(rc.eval(np.arange(3.0)) - g)) < 1e-12

    def test_synthetic_round_trip(self):
        truth = RaisedCosineKernel(
            dim=1,
            lambda0=0.3,
            weights=[0.45, 0.25],
            freqs=[[0.7], [2.1]],
            rank=5,
        )
        g = truth.eval(np.arange(5.0))
        rc = decompose_gram_1d(g, 1.0)
        assert rc.lambda0 == pytest.approx(0.3, abs=1e-10)
        assert np.max(np.abs(rc.weights - truth.weights)) < 1e-10
        assert np.max(np.abs(rc.freqs - truth.freqs)) < 1e-10

    def test_rejects_bad_first_entry(self):
        with pytest.raises(DomainError):
            decompose_gram_1d(np.array([0.9, 0.5]), 1.0)

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(DomainError):
            decompose_gram_1d(np.array([1.0, 0.5]), 0.0)

    def test_rejects_out_of_range_correlation(self):
        # |values| above 1 cannot come from unit-norm atoms
        with pytest.raises(NoValidDecomposition):
            decompose_gram_1d(np.array([1.0, 1.5]), 1.0)

    def test_rejects_zero_frequency_collapse(self):
        with pytest.raises(NoValidDecomposition):
            decompose_gram_1d(np.array([1.0, 0.0, 1.0, 0.0]), 1.0)

    def test_rejects_negative_weights(self):
        bad = RaisedCosineKernel(
            dim=1, lambda0=0.0, weights=[1.2, -0.2], freqs=[[0.4], [1.3]], rank=4
        )
        g = bad.eval(np.arange(4.0))
        with pytest.raises(NoValidDecomposition):
            decompose_gram_1d(g, 1.0)

    def test_rejects_complex_spectral_roots(self):
        # built from a complex frequency pair, so the annihilator's roots
        # leave the real interval
        m = np.arange(4)
        g = np.cos(m * 1.0) * np.cosh(m * 0.3)
        with pytest.raises(NoValidDecomposition, match="complex"):
            decompose_gram_1d(g, 1.0)

    def test_geometric_sequence_decomposes_exactly(self):
        # six samples leave six degrees of freedom, so even a geometric
        # correlation decay admits an exact admissible representation
        g = 0.6 ** np.arange(6)
        rc = decompose_gram_1d(g, 1.0)
        assert np.max(np.abs(rc.eval(np.arange(6.0)) - g)) < 1e-10
        assert rc.validate().ok


class TestDecomposeSeparable:
    def test_2d_frozen_values(self, gauss2, grid23):
        rc = decompose_grid(gauss2, grid23)
        assert rc.rank == 6 and rc.num_terms == 3
        assert rc.lambda0 == 0.0
        w1 = 0.67804458440277804  # two-node frequency at unit spacing
        w2 = 1.127578047530793  # three-node frequency at unit spacing
        assert np.allclose(
            rc.freqs, [[w1, -w2], [w1, 0.0], [w1, w2]], atol=1e-12
        )
        lam_a = 1.0  # two-node weight
        lam0_b, lam_b = 0.61271324735131116, 0.38728675264868889
        assert np.allclose(
            rc.weights,
            [0.5 * lam_a * lam_b, lam_a * lam0_b, 0.5 * lam_a * lam_b],
            atol=1e-12,
        )

    def test_3x3_constant_term_is_product(self, gauss2):
        rc = decompose_grid(gauss2, NodeGrid([0.0, 0.0], [1.0, 1.0], [3, 3]))
        assert rc.rank == 9 and rc.num_terms == 4
        assert rc.lambda0 == pytest.approx(0.61271324735131116**2, abs=1e-14)

    @pytest.mark.parametrize("c1", [1, 2, 3])
    @pytest.mark.parametrize("c2", [1, 2, 3, 4])
    def test_structure_counts_all_parities(self, gauss2, c1, c2):
        grid = NodeGrid([0.0, 0.0], [1.0, 1.0], [c1, c2])
        rc = decompose_grid(gauss2, grid)
        L = c1 * c2
        assert rc.rank == L
        assert rc.num_terms == L // 2
        if L % 2 == 0:
            assert rc.lambda0 == 0.0
        else:
            assert rc.lambda0 > 0.0
        assert rc.validate().ok
        report = verify_decomposition(build_gram(gauss2, grid), rc)
        assert report.ok
        assert report.residual < 1e-12

    @pytest.mark.parametrize(
        "counts", [(2, 2, 3), (3, 3, 3), (1, 2, 3)], ids=["2x2x3", "3x3x3", "1x2x3"]
    )
    def test_3d_grid(self, counts):
        k3 = GaussianIsotropicKernel(sigma=1.0, dim=3)
        grid = NodeGrid([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], counts)
        rc = decompose_grid(k3, grid)
        L = int(np.prod(counts))
        assert rc.rank == L and rc.num_terms == L // 2
        assert (rc.lambda0 > 0.0) == (L % 2 == 1)
        assert rc.validate().ok
        report = verify_decomposition(build_gram(k3, grid), rc)
        assert report.ok
        assert report.residual < 1e-12

    def test_rejects_multidimensional_axis_kernel(self):
        rc2 = RaisedCosineKernel(
            dim=2, lambda0=0.0, weights=[1.0], freqs=[[0.5, 0.5]], rank=2
        )
        with pytest.raises(DomainError):
            decompose_gram_separable([rc2, rc2])

    def test_two_identical_axes_are_fine(self):
        # product-to-sum keeps (w, w) and (w, -w) distinct, so equal axis
        # frequencies do not collide
        axis = RaisedCosineKernel(
            dim=1, lambda0=0.0, weights=[1.0], freqs=[[0.9]], rank=2
        )
        rc = decompose_gram_separable([axis, axis])
        assert rc.rank == 4 and rc.num_terms == 2
        assert rc.validate().ok

    def test_rejects_colliding_axis_frequencies(self):
        # a degenerate axis kernel with a repeated frequency merges terms
        # and breaks the term count
        dup = RaisedCosineKernel(
            dim=1, lambda0=0.0, weights=[0.5, 0.5], freqs=[[0.9], [0.9]], rank=4
        )
        with pytest.raises(NoValidDecomposition):
            decompose_gram_separable([dup])


class TestVerify:
    def test_good_decomposition_passes(self, gauss1, grid6):
        gram = build_gram(gauss1, grid6)
        rc = decompose_grid(gauss1, grid6)
        report = verify_decomposition(gram, rc)
        assert report.ok
        assert report.residual < 1e-12
        assert report.psd_margin > -1e-10

    def test_perturbed_kernel_fails(self, gauss1, grid6):
        gram = build_gram(gauss1, grid6)
        rc = decompose_grid(gauss1, grid6)
        off = RaisedCosineKernel(
            dim=1,
            lambda0=0.0,
            weights=rc.weights * 1.01,
            freqs=rc.freqs,
            rank=rc.rank,
        )
        report = verify_decomposition(gram, off)
        assert not report.ok
        assert report.residual > 1e-3

    def test_report_dict(self, gauss1, grid6):
        report = verify_decomposition(
            build_gram(gauss1, grid6), decompose_grid(gauss1, grid6)
        )
        data = report.as_dict()
        assert set(data) == {"residual", "psd_margin", "ok"}
