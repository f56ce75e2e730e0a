import tracemalloc

import numpy as np
import pytest

import tidict.lowrank
import tidict.taylor
from tidict import (
    DiscreteEmbedding,
    DomainError,
    GaussianIsotropicKernel,
    LowRankDictionary,
    NodeGrid,
    NoValidDecomposition,
    ParamBox,
    RaisedCosineKernel,
    SelectAtomSettings,
    TaylorApproximation,
    build_gram,
    decompose_grid,
)

from oracles import (
    box_contains,
    embedded_errors,
    embedded_surrogate_atoms,
    fine_grid_argmax,
    gram_inverse,
)


def _gaussian_dictionary(dim, counts):
    """Unit-width Gaussian dictionary on a grid at spacing 0.5.

    The 6x6x6 grid takes spacing 1, since at 0.5 its Gram matrix is over
    the condition limit; its kernel has 108 cosine terms.
    """
    spacing = 1.0 if counts == (6, 6, 6) else 0.5
    kernel = GaussianIsotropicKernel(sigma=1.0, dim=dim)
    return LowRankDictionary.from_kernel(kernel, NodeGrid([0.0] * dim, [spacing] * dim, counts))


@pytest.fixture(scope="module")
def emb1(gauss1):
    return DiscreteEmbedding(gauss1, [-8.0], [13.0], 256)


@pytest.fixture(scope="module")
def emb2(gauss2):
    return DiscreteEmbedding(gauss2, [-6.5, -6.5], [7.5, 8.5], 200)


class TestConstruction:
    def test_from_kernel(self, ld6):
        assert ld6.rank == 6 and ld6.dim == 1
        assert ld6.report.ok

    def test_mismatched_kernel_rejected(self, gauss1, grid6):
        gram = build_gram(gauss1, grid6)
        rc = decompose_grid(gauss1, grid6)
        wrong = RaisedCosineKernel(
            dim=1,
            lambda0=0.0,
            weights=rc.weights * 1.05,
            freqs=rc.freqs,
            rank=rc.rank,
        )
        with pytest.raises(NoValidDecomposition):
            LowRankDictionary(gauss1, gram, wrong)
        # the escape hatch still records the failed verification
        ld = LowRankDictionary(gauss1, gram, wrong, check=False)
        assert not ld.report.ok

    def test_rank_must_match_nodes(self, gauss1, grid6):
        gram = build_gram(gauss1, grid6)
        rc = RaisedCosineKernel(
            dim=1, lambda0=0.0, weights=[1.0], freqs=[[0.7]], rank=2
        )
        with pytest.raises(DomainError):
            LowRankDictionary(gauss1, gram, rc)


class TestCoefficients:
    def test_at_node_equals_gram_row(self, ld6):
        for j in (0, 2, 5):
            c = ld6.coefficients(ld6.nodes[j])
            assert np.max(np.abs(c - ld6.gram.matrix[j])) < 1e-14

    def test_batch_shape(self, ld6, rng):
        pts = rng.uniform(0, 5, size=(17, 1))
        assert ld6.coefficients(pts).shape == (17, 6)

    def test_no_raised_cosine_eval_on_the_dictionary_path(self, gauss2, grid23, rng, monkeypatch):
        # construction, coefficients and errors use the product form only;
        # eval stays an independent reference for validate's kernel_match
        gram = build_gram(gauss2, grid23)
        rc = decompose_grid(gauss2, grid23)

        def fail(*args, **kwargs):
            raise AssertionError("RaisedCosineKernel.eval called")

        monkeypatch.setattr(RaisedCosineKernel, "eval", fail)
        monkeypatch.setattr(RaisedCosineKernel, "__call__", fail)
        ld = LowRankDictionary(gauss2, gram, rc)
        pts = rng.uniform(0.0, 2.0, size=(40, 2))
        assert ld.coefficients(pts).shape == (40, 6)
        assert np.all(ld.approx_error(pts) >= 0.0)

    def test_dual_coords_invert_gram(self, ld6):
        coords = gram_inverse(ld6.gram)
        assert np.max(np.abs(coords @ ld6.gram.matrix - np.eye(6))) < 1e-10

    def test_dual_atom_gram_is_inverse(self, ld6, emb1):
        # materialize the dual atoms in the embedding: their pairwise inner
        # products must reproduce the inverse Gram matrix
        node_atoms = emb1.atoms(ld6.nodes)
        inverse = gram_inverse(ld6.gram)
        duals = inverse @ node_atoms
        assert np.max(np.abs(duals @ duals.T - inverse)) < 1e-10


class TestInnerProducts:
    def test_approx_inner_equals_kernel_eval(self, ld6, rng):
        box = ParamBox([0.0], [5.0])
        a, b = box.sample(rng, 300), box.sample(rng, 300)
        got = ld6.approx_inner(a, b)
        want = ld6.rc.eval(a - b)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_approx_inner_2d(self, ld23, rng):
        box = ParamBox([0.0, 0.0], [1.0, 2.0])
        a, b = box.sample(rng, 300), box.sample(rng, 300)
        assert np.max(np.abs(ld23.approx_inner(a, b) - ld23.rc.eval(a - b))) < 1e-12

    def test_shift_invariance(self, ld23, rng):
        box = ParamBox([0.0, 0.0], [1.0, 2.0])
        a, b = box.sample(rng, 200), box.sample(rng, 200)
        tau = rng.uniform(-1.0, 1.0, size=(200, 2))
        base = ld23.approx_inner(a, b)
        shifted = ld23.approx_inner(a + tau, b + tau)
        assert np.max(np.abs(shifted - base)) < 1e-12

    def test_self_inner_is_unit(self, ld6, rng):
        pts = ParamBox([0.0], [5.0]).sample(rng, 500)
        assert np.max(np.abs(ld6.approx_inner(pts, pts) - 1.0)) < 1e-12

    def test_scalar_inputs_give_floats(self, ld6):
        assert isinstance(ld6.approx_inner(0.5, 1.5), float)
        assert isinstance(ld6.approx_error(0.5), float)

    def test_batch_length_mismatch(self, ld6):
        with pytest.raises(DomainError):
            ld6.approx_inner(np.zeros((3, 1)), np.zeros((4, 1)))

    @pytest.mark.parametrize("dim, counts", [(1, (20,)), (1, (6,)), (2, (2, 3)), (2, (3, 4)), (3, (6, 6, 6))])
    def test_inner_of_a_lone_pair_equals_the_batch(self, dim, counts):
        ld = _gaussian_dictionary(dim, counts)
        n = 100 if counts == (6, 6, 6) else 200  # the 108-term kernel is slow
        a, b = np.random.default_rng(dim).uniform(-1.0, 3.0, size=(2, n, dim))
        want = ld.approx_inner(a, b)
        # a lone pair as scalars or vectors, and stacks of 1 to 9 pairs
        single = [ld.approx_inner(x if dim > 1 else x[0], y if dim > 1 else y[0]) for x, y in zip(a, b)]
        assert np.array_equal(single, want)
        for size in range(1, 10):
            blocks = [ld.approx_inner(a[i : i + size], b[i : i + size]) for i in range(0, n, size)]
            assert np.array_equal(np.concatenate(blocks), want), size


class TestApproxError:
    def test_zero_at_nodes(self, ld6, ld23):
        assert np.max(ld6.approx_error(ld6.nodes)) < 1e-7
        assert np.max(ld23.approx_error(ld23.nodes)) < 1e-7

    def test_nonnegative_everywhere(self, ld6, rng):
        pts = ParamBox([-1.0], [6.0]).sample(rng, 400)
        assert np.all(ld6.approx_error(pts) >= 0.0)

    def test_matches_embedded_error(self, ld6, emb1, rng):
        thetas = ParamBox([0.0], [5.0]).sample(rng, 30)
        want = embedded_errors(ld6, emb1, thetas)
        got = ld6.approx_error(thetas)
        assert np.max(np.abs(got - want)) < 1e-5

    def test_grows_away_from_node_range(self, ld6):
        inside = ld6.approx_error(2.5)
        outside = ld6.approx_error(8.0)
        assert outside > inside
        assert outside > 0.9  # essentially no approximation power out there


    @pytest.mark.parametrize("dim, counts", [(1, (20,)), (2, (2, 3)), (3, (3, 2, 2)), (3, (6, 6, 6))])
    def test_errors_do_not_depend_on_the_block(self, monkeypatch, dim, counts):
        ld = _gaussian_dictionary(dim, counts)
        thetas = np.random.default_rng(dim).uniform(-1.0, 3.0, size=(23, dim))
        want = ld.approx_error(thetas)
        for chunk in range(1, 10):
            monkeypatch.setattr(tidict.lowrank, "_CHUNK", chunk)
            assert np.array_equal(ld.approx_error(thetas), want), chunk
        single = [ld.approx_error(t if dim > 1 else t[0]) for t in thetas]
        assert np.array_equal(single, want)
        coeffs = ld.coefficients(thetas)
        for size in range(1, 10):
            blocks = [ld.coefficients(thetas[i : i + size]) for i in range(0, 23, size)]
            assert np.array_equal(np.concatenate(blocks), coeffs), size

    def test_cross_term_from_axis_tables(self, rng):
        # kappa(x_i - y_j) from per-axis tables: bitwise equal to eval in 1-D
        grids = [NodeGrid([0.0] * d, [0.5] * d, [4] * d).nodes for d in (1, 2)]
        for y in [rng.integers(0, 3, size=(n, d)) * 0.5 for d, n in ((1, 20), (2, 6), (3, 12))] + grids:
            nodes, dim = y.shape
            kernel = GaussianIsotropicKernel(sigma=0.7, dim=dim)
            x = rng.uniform(-2.0, 4.0, size=(31, dim))
            got = kernel.cross(x, y)
            want = kernel.eval((x[:, None, :] - y[None, :, :]).reshape(-1, dim)).reshape(31, nodes)
            assert got.shape == (31, nodes) and got.flags.c_contiguous
            if dim == 1:
                assert np.array_equal(got, want)
            else:
                assert np.max(np.abs(got - want)) <= 1e-15


class TestBoundedMemory:
    N = 400_000
    LIMIT = 16 * 2**20

    @staticmethod
    def _peak(f, pts):
        tracemalloc.start()
        try:
            out = f(pts)
            return tracemalloc.get_traced_memory()[1] - out.nbytes
        finally:
            tracemalloc.stop()

    def test_sweeps_run_in_bounded_memory(self, gauss1):
        ld = LowRankDictionary.from_kernel(gauss1, NodeGrid([0.0], [1.0], [20]))
        emb = DiscreteEmbedding(gauss1, [-7.0], [26.0], 256)
        taylor = TaylorApproximation.build(emb, 9.5, 19)
        pts = np.linspace(0.0, 19.0, self.N)
        assert self._peak(ld.approx_error, pts) < self.LIMIT
        assert self._peak(taylor.errors, pts) < self.LIMIT


class TestSelectAtom:
    def test_node_target_recovers_node(self, ld6):
        box = ParamBox([0.0], [5.0])
        for j in (1, 4):
            projections = np.zeros(6)
            projections[j] = 1.0  # dual projections of the node atom itself
            theta, value = ld6.select_atom(projections, box)
            assert abs(theta[0] - ld6.nodes[j, 0]) < 1e-8
            assert value == pytest.approx(1.0, abs=1e-10)

    def test_node_target_recovers_node_2d(self, ld23):
        box = ParamBox([0.0, 0.0], [1.0, 2.0])
        projections = np.zeros(6)
        projections[4] = 1.0
        theta, _ = ld23.select_atom(projections, box)
        assert np.max(np.abs(theta - ld23.nodes[4])) < 1e-8

    def test_off_node_target_beats_oracle_cell(self, ld23, emb2):
        target = np.array([0.37, 0.81])
        signal = emb2.atom(target)
        node_atoms = emb2.atoms(ld23.nodes)
        projections = ld23.gram.solve(node_atoms @ signal)
        box = ParamBox([0.0, 0.0], [1.0, 2.0])
        theta, _ = ld23.select_atom(projections, box)
        oracle, _, cell = fine_grid_argmax(emb2, box, signal, 200)
        assert np.linalg.norm(theta - oracle) <= cell

    def test_deterministic(self, ld23, rng):
        projections = rng.normal(size=6)
        box = ParamBox([0.0, 0.0], [1.0, 2.0])
        first = ld23.select_atom(projections, box)
        second = ld23.select_atom(projections.copy(), box)
        assert np.array_equal(first[0], second[0])
        assert first[1] == second[1]

    def test_result_stays_in_box(self, ld6, rng):
        box = ParamBox([1.3], [1.7])
        for _ in range(10):
            theta, _ = ld6.select_atom(rng.normal(size=6), box)
            assert box_contains(box, theta, atol=1e-12)

    def test_constant_surrogate_returns_lower_corner(self, gauss1):
        grid = NodeGrid([0.0], [1.0], [1])
        ld = LowRankDictionary.from_kernel(gauss1, grid)
        box = ParamBox([-1.0], [1.0])
        theta, value = ld.select_atom(np.array([2.0]), box)
        assert theta[0] == -1.0
        assert value == pytest.approx(2.0)

    def test_input_validation(self, ld6):
        with pytest.raises(DomainError):
            ld6.select_atom(np.zeros(5), ParamBox([0.0], [5.0]))
        with pytest.raises(DomainError):
            ld6.select_atom(np.zeros(6), ParamBox([0.0, 0.0], [1.0, 1.0]))
        for bad in (np.nan, np.inf):
            projections = np.zeros(6)
            projections[2] = bad
            with pytest.raises(DomainError, match="finite"):
                ld6.select_atom(projections, ParamBox([0.0], [5.0]))

    def test_custom_settings(self, ld6):
        box = ParamBox([0.0], [5.0])
        settings = SelectAtomSettings(coarse_per_axis=8, num_starts=2, max_iter=10)
        projections = np.zeros(6)
        projections[2] = 1.0
        theta, _ = ld6.select_atom(projections, box, settings)
        assert abs(theta[0] - 2.0) < 1e-6


class TestRankProperty:
    def test_surrogate_inner_matrix_has_rank_L(self, ld23, rng):
        box = ParamBox([0.0, 0.0], [1.0, 2.0])
        pts = box.sample(rng, 2 * ld23.rank)
        coeff = ld23.coefficients(pts)
        inner = coeff @ ld23.gram.solve(coeff.T)
        svals = np.linalg.svd(inner, compute_uv=False)
        assert svals[ld23.rank - 1] > 1e-8  # full surrogate rank is used
        assert svals[ld23.rank] < 1e-8  # and nothing beyond it
