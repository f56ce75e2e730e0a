import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from oracles import dense_gram, gram_inverse, lu_node_errors, lu_solve, mp_solve
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
from tidict.cli import main
from tidict.gram import PSD_TOL, RESIDUAL_TOL


def _quality(kernel, grid, rc, **gram_options):
    """``(residual, psd_margin)`` of ``rc`` on the Gram system of ``grid``."""
    ld = LowRankDictionary(build_gram(kernel, grid, **gram_options), rc, check=False)
    return ld.residual, ld.psd_margin


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
        assert [axis.tolist() for axis in grid.axes] == [[0.0, 1.0], [10.0, 10.5, 11.0]]

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

    def test_lattice_past_64_bit_indices_refused(self):
        # 2^60 - 1 float64s fill numpy's largest array; np.prod wrapped 2^66 nodes to 0
        assert NodeGrid([0.0] * 3, [1.0] * 3, [2**20 - 1] * 3).size == (2**20 - 1) ** 3
        for count in (2**20, 2**22):
            with pytest.raises(DomainError, match="out of range"):
                NodeGrid([0.0] * 3, [1.0] * 3, [count] * 3)
        # one count past numpy's int64 raised OverflowError, not DomainError
        for count in (2**63, 2**64, 10**30):
            with pytest.raises(DomainError, match=f"{count}.*out of range"):
                NodeGrid([0.0], [1.0], [count])


class TestBuildGram:
    def test_matrix_past_numpy_sizes_refused(self, gauss1):
        # 2^40 nodes are a grid, but their 2^80-entry Gram matrix is past numpy's arrays
        with pytest.raises(DomainError, match="out of range"):
            build_gram(gauss1, NodeGrid([0.0], [1.0], [2**40]))

    def test_1d_toeplitz_exact(self, gauss1):
        gram = build_gram(gauss1, NodeGrid([0.3], [0.7], [8]))
        for off in range(8):
            diag = np.diagonal(dense_gram(gram), offset=off)
            # every diagonal is bitwise constant
            assert np.all(diag == diag[0])

    def test_2d_matches_kronecker_of_axis_grams(self, gauss2, grid23):
        gram = build_gram(gauss2, grid23)
        k1 = GaussianIsotropicKernel(1.0, dim=1)
        g_a = dense_gram(build_gram(k1, NodeGrid([0.0], [1.0], [2])))
        g_b = dense_gram(build_gram(k1, NodeGrid([0.0], [1.0], [3])))
        assert np.array_equal(dense_gram(gram), np.kron(g_a, g_b))

    @pytest.mark.parametrize("spacing", [0.5, 0.7, 1.0, 2.5])
    def test_1d_equals_the_displacement_oracle_bitwise(self, gauss1, spacing):
        for count in range(1, 21):
            gram = build_gram(gauss1, NodeGrid([-1.3], [spacing], [count]), condition_limit=np.inf)
            idx = np.arange(count)
            delta = (idx[:, None] - idx[None, :]) * spacing
            oracle = gauss1.eval(delta.reshape(-1, 1)).reshape(count, count)
            assert np.array_equal(dense_gram(gram), oracle), count

    def test_peak_memory_is_a_few_gram_matrices(self):
        # only the axis factors, their eigenpairs and the L eigenvalues are kept:
        # one L x L array would take 128 MiB here
        grid = NodeGrid([0.0] * 3, [1.0] * 3, [16, 16, 16])
        kernel = GaussianIsotropicKernel(1.0, dim=3)
        tracemalloc.start()
        try:
            build_gram(kernel, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 8 * (sum(c * c for c in grid.counts) + grid.size)

    def test_node_array_is_refused(self, gauss2):
        nodes = np.array([[0.0, 0.0], [0.3, 1.1], [2.0, -0.4]])
        with pytest.raises(TypeError, match="NodeGrid"):
            build_gram(gauss2, nodes)

    def test_solve_and_inverse(self, gauss1, rng):
        gram = build_gram(gauss1, NodeGrid([0.0], [1.0], [5]))
        b = rng.normal(size=5)
        assert np.max(np.abs(dense_gram(gram) @ gram.solve_rows(b) - b)) < 1e-12
        assert np.max(np.abs(dense_gram(gram) @ gram_inverse(gram) - np.eye(5))) < 1e-10

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
        assert gram.condition_number == pytest.approx(np.linalg.cond(dense_gram(gram)), rel=1e-5)

    # (grid, a condition number it exceeds): cond-1d, the README 2-D grid, the
    # 3-D 6x6x6 grid and a 2-D grid at spacing 0.5 whose cond(G) is 1.2e11
    @pytest.mark.parametrize(
        "grid, least_cond",
        [(COND_1D, 1e11), ((2, 1.0, (2, 3)), 1e2), ((3, 1.0, (6, 6, 6)), 1e7), ((2, 0.5, (6, 6)), 1e9)],
        ids=["cond-1d", "2x3", "6x6x6", "6x6-spacing0.5"],
    )
    def test_backward_error_no_worse_than_lu(self, rng, grid, least_cond):
        gram = _gram(*grid)
        assert gram.condition_number > least_cond
        matrix = dense_gram(gram)
        b = rng.normal(size=(gram.size, 64))
        ours = _backward_error(matrix, gram.solve_rows(b.T).T, b)
        lu = _backward_error(matrix, lu_solve(matrix, b), b)
        assert np.max(ours) <= 2.0 * np.max(lu)

    # (dim, spacing, counts), at most 20 nodes so that the 50-digit solve stays fast
    @pytest.mark.parametrize(
        "grid", [COND_1D, (2, 1.0, (2, 3)), (2, 0.5, (4, 5))], ids=["cond-1d", "2x3", "4x5-spacing0.5"]
    )
    def test_forward_error_against_an_extended_precision_solve(self, rng, grid):
        gram = _gram(*grid)
        rows = rng.normal(size=(8, gram.size))
        exact = mp_solve(gram, rows)
        error = np.linalg.norm(gram.solve_rows(rows) - exact, axis=1) / np.linalg.norm(exact, axis=1)
        assert np.max(error) <= 4.0 * gram.condition_number * np.finfo(float).eps

    @pytest.mark.parametrize("grid", BENCH_GRIDS + [(2, 0.5, (12, 12))])
    def test_condition_number_is_the_product_of_the_axis_numbers(self, grid):
        dim, spacing, counts = grid
        kernel = GaussianIsotropicKernel(sigma=1.0, dim=dim)
        gram = build_gram(kernel, NodeGrid([0.0] * dim, [spacing] * dim, counts), condition_limit=np.inf)
        assert len(gram.axis_condition_numbers) == dim
        for cond, count in zip(gram.axis_condition_numbers, counts):
            assert cond == _gram(1, spacing, (count,)).condition_number
        assert gram.condition_number == pytest.approx(np.prod(gram.axis_condition_numbers), rel=1e-12)

    def test_condition_number_stays_finite_past_the_dense_estimate(self):
        # each axis is cond-1d's, at 9.1e11; a dense eigh of G reads lam_min <= 0 here
        axis = _gram(*COND_1D).condition_number
        with pytest.raises(IllConditionedError) as info:
            _gram(2, 0.5, (20, 20))
        number = float(re.search(r"condition number (\S+) exceeds", str(info.value)).group(1))
        assert math.isfinite(number)
        assert number == pytest.approx(axis**2, rel=1e-3)

    @pytest.mark.parametrize("limit", [1e12, np.inf])
    def test_not_positive_definite_is_ill_conditioned(self, gauss1, limit):
        # 15 nodes at spacing 0.25: the eigh of the Gram factor reads lam_min < 0
        grid = NodeGrid([0.0], [0.25], [15])
        idx = np.arange(15)
        delta = (idx[:, None] - idx).reshape(-1, 1) * 0.25
        assert np.linalg.eigvalsh(gauss1.eval(delta).reshape(15, 15))[0] < 0.0
        with pytest.raises(IllConditionedError, match="condition number inf exceeds limit"):
            GramSystem(gauss1, grid, condition_limit=limit)


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
            ld = LowRankDictionary(build_gram(kernel, grid, condition_limit=1e12))
        except IllConditionedError:
            assert not under_limit, (dim, spacing, counts)
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

    def test_negative_weights_are_rejected_by_the_dictionary(self, gauss1):
        # the root finder returns the weights it recovers; the structure
        # check of the dictionary constructor refuses them
        bad = RaisedCosineKernel(
            dim=1, lambda0=0.0, weights=[1.2, -0.2], freqs=[[0.4], [1.3]], rank=4
        )
        g = bad.eval(np.arange(4.0))
        rc = decompose_gram_1d(g, 1.0)
        assert any("nonpositive weights" in issue for issue in rc.validate().issues)
        gram = build_gram(gauss1, NodeGrid([0.0], [1.0], [4]))
        with pytest.raises(NoValidDecomposition, match="nonpositive weights"):
            LowRankDictionary(gram, rc=rc)

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
    @pytest.mark.parametrize("spacing", [0.25, 0.5, 0.7, 1.0, 1.3])
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 1.7])
    def test_one_axis_expansion_is_the_axis_kernel(self, sigma, spacing):
        # a 1-D grid goes through the product expansion too, which must give
        # back the axis kernel unchanged: lambda_k / 2 doubled is lambda_k
        kernel = GaussianIsotropicKernel(sigma=sigma, dim=1)
        for L in range(1, 26):
            grid = NodeGrid([0.0], [spacing], [L])
            try:
                axis = decompose_gram_1d(kernel.eval(spacing * np.arange(L)), spacing)
            except NoValidDecomposition:
                with pytest.raises(NoValidDecomposition):
                    decompose_grid(kernel, grid)
                continue
            got = decompose_grid(kernel, grid).to_dict()
            assert json.dumps(got) == json.dumps(axis.to_dict()), L

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
        residual, psd_margin = _quality(gauss2, grid, rc)
        assert residual < 1e-12
        assert psd_margin > -1e-10

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
        residual, psd_margin = _quality(k3, grid, rc)
        assert residual < 1e-12
        assert psd_margin > -1e-10

    def test_kronecker_expansion_keeps_every_term(self, tmp_path, capsys):
        # every axis decomposes, and products of axis weights fall far below
        # 1e-12; dropping one breaks the rank rule
        for dim, count in ((2, 14), (2, 20), (3, 10)):
            kernel = GaussianIsotropicKernel(sigma=1.0, dim=dim)
            grid = NodeGrid([0.0] * dim, [0.5] * dim, [count] * dim)
            rc = decompose_grid(kernel, grid)
            assert rc.rank == grid.size and rc.num_terms == grid.size // 2 and rc.validate().ok
            assert np.min(rc.weights) < 1e-12
            residual, psd_margin = _quality(kernel, grid, rc, condition_limit=np.inf)
            assert residual <= RESIDUAL_TOL, (dim, count)
            assert psd_margin >= -PSD_TOL, (dim, count)
        # the CLI still refuses 14x14 on the condition limit, at cond(G) 9.5e19
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "kernel": {"kernel": "gaussian", "sigma": 1.0, "dim": 2},
            "grid": {"origin": [0.0, 0.0], "spacing": 0.5, "counts": [14, 14]},
        }))
        assert main(["decompose", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "error: Gram condition number 9.509e+19 exceeds limit" in capsys.readouterr().err

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

    def test_colliding_axis_frequencies_are_rejected_by_the_dictionary(self, gauss1):
        # a degenerate axis kernel with a repeated frequency expands to
        # coinciding terms, which the dictionary constructor refuses
        dup = RaisedCosineKernel(
            dim=1, lambda0=0.0, weights=[0.5, 0.5], freqs=[[0.9], [0.9]], rank=4
        )
        rc = decompose_gram_separable([dup])
        assert any("coincide up to sign" in issue for issue in rc.validate().issues)
        gram = build_gram(gauss1, NodeGrid([0.0], [1.0], [4]))
        with pytest.raises(NoValidDecomposition, match="coincide up to sign"):
            LowRankDictionary(gram, rc=rc)


# sigma = spacing scales of test_difference_set_reaches_every_node_pair
SCALES = (1e-100, 1e-9, 1.0, 1e6, 1e8, 1e9, 1e100)


class TestVerify:
    def test_residual_takes_no_cross_kernel(self, gauss2, grid23, monkeypatch):
        # the residual needs rc at each node difference, not a kernel matrix
        gram = build_gram(gauss2, grid23)
        rc = decompose_grid(gauss2, grid23)

        def fail(*args, **kwargs):
            raise AssertionError("RaisedCosineKernel.cross called")

        monkeypatch.setattr(RaisedCosineKernel, "cross", fail)
        assert verify_decomposition(gram, rc) < 1e-12

    def test_good_decomposition_passes(self, gauss1, grid6):
        gram = build_gram(gauss1, grid6)
        rc = decompose_grid(gauss1, grid6)
        assert verify_decomposition(gram, rc) < 1e-12
        assert LowRankDictionary(gram, rc).psd_margin > -1e-10

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
        assert verify_decomposition(gram, off) > 1e-3

    @pytest.mark.parametrize(
        "sigma, origin, spacing, counts",
        [
            (1.0, [0.0], [1.0], [1]),
            (1.0, [0.0], [1.0], [2]),
            (1.0, [0.0], [1.0], [6]),
            (1.0, [0.0], [1.0], [7]),
            (1.0, [0.0, 0.0], [1.0, 1.0], [2, 3]),
            (1.0, [0.0, 0.0], [1.0, 1.0], [1, 4]),
            (0.8, [1.0, -2.0], [0.9, 1.2], [3, 5]),
            (1.0, [0.0] * 3, [1.0] * 3, [1, 2, 3]),
            (1.0, [0.0] * 3, [1.0] * 3, [2, 2, 3]),
        ]
        # sigma = spacing is one problem in any units: at 1e8 and beyond, the
        # absolute frequency tolerances refused it; at spacing 1e300, G = I
        # and the frequencies' squares underflow
        + [(s, [0.0] * len(c), [s] * len(c), c) for s in SCALES for c in ([6], [6, 6])]
        + [(1.0, [0.0], [1e300], [6])],
        ids=["1", "2", "6", "7", "2x3", "1x4", "3x5-moved", "1x2x3", "2x2x3"]
        + [f"{'x'.join(map(str, c))}-at-{s:g}" for s in SCALES for c in ([6], [6, 6])]
        + ["6-at-spacing-1e300"],
    )
    def test_difference_set_reaches_every_node_pair(self, sigma, origin, spacing, counts):
        # the dense oracle: every node pair against the Kronecker product of the factors
        kernel = GaussianIsotropicKernel(sigma=sigma, dim=len(counts))
        grid = NodeGrid(origin, spacing, counts)
        gram = build_gram(kernel, grid)
        rc = decompose_grid(kernel, grid)
        assert rc.validate().ok

        def all_pairs(rc):
            return float(np.max(np.abs(rc.cross(grid.nodes, grid.nodes) - dense_gram(gram))))

        assert verify_decomposition(gram, rc) == pytest.approx(all_pairs(rc), rel=0.0, abs=4 * np.finfo(float).eps)
        if rc.num_terms == 0:
            return
        # the last moves one term only, so the kernel is no longer even on each
        # axis: on 2x3 a difference set with every m_a >= 0 missed its worst pair
        first = rc.freqs.copy()
        first[0] *= 1.3
        for weights, freqs in ((rc.weights * 1.01, rc.freqs), (rc.weights, rc.freqs * 1.3), (rc.weights, first)):
            off = RaisedCosineKernel(dim=rc.dim, lambda0=rc.lambda0, weights=weights, freqs=freqs, rank=rc.rank)
            residual, dense = verify_decomposition(gram, off), all_pairs(off)
            assert min(residual, dense) >= 1e-3
            assert residual == pytest.approx(dense, rel=1e-12)
