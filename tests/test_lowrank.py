import os
import sys
import tracemalloc

import numpy as np
import pytest

import tidict.kernels
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
    return LowRankDictionary(kernel, build_gram(kernel, NodeGrid([0.0] * dim, [spacing] * dim, counts)))


@pytest.fixture(scope="module")
def emb1(gauss1):
    return DiscreteEmbedding(gauss1, [-8.0], [13.0], 256)


@pytest.fixture(scope="module")
def emb2(gauss2):
    return DiscreteEmbedding(gauss2, [-6.5, -6.5], [7.5, 8.5], 200)


class TestConstruction:
    def test_constructor_decomposes_the_grid(self, ld6, gauss1, grid6):
        assert ld6.rank == 6 and ld6.dim == 1
        assert ld6.grid is grid6 and np.array_equal(ld6.nodes, grid6.nodes)
        assert ld6.rc.to_dict() == decompose_grid(gauss1, grid6).to_dict()
        assert ld6.residual < 1e-12
        assert ld6.psd_margin > -1e-10

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
        assert ld.residual > 1e-3

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
    def test_inner_of_a_lone_pair_equals_the_batch(self, monkeypatch, dim, counts):
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
        for chunk in range(1, 10):
            monkeypatch.setattr(tidict.kernels, "_CHUNK", chunk)
            assert np.array_equal(ld.approx_inner(a, b), want), chunk


class TestTranslation:
    @pytest.mark.parametrize("origin", [2.0**20, 2.0**30])
    def test_a_translated_grid_gives_the_same_bits(self, origin, rng):
        # acceptance test 02's families, where every translation below is exact
        for spacing in (0.5, 1.0):
            for counts in ((2,), (3,), (4,), (6,), (2, 2), (2, 3), (3, 3)):
                dim = len(counts)
                kernel = GaussianIsotropicKernel(sigma=1.0, dim=dim)
                ld0, ld = (
                    LowRankDictionary(kernel, build_gram(kernel, NodeGrid([o] * dim, [spacing] * dim, counts)))
                    for o in (0.0, origin)
                )
                # test 02's box, the nodes padded by one spacing, on multiples of 2^-16
                box = (-spacing, np.array(counts) * spacing)
                a, b = np.round(rng.uniform(*box, size=(2, 300, dim)) * 2**16) / 2**16
                assert np.array_equal(ld.approx_inner(a + origin, b + origin), ld0.approx_inner(a, b))
                assert np.array_equal(ld.approx_error(a + origin), ld0.approx_error(a))


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
            monkeypatch.setattr(tidict.kernels, "_CHUNK", chunk)
            assert np.array_equal(ld.approx_error(thetas), want), chunk
        single = [ld.approx_error(t if dim > 1 else t[0]) for t in thetas]
        assert np.array_equal(single, want)
        coeffs = ld.coefficients(thetas)
        for size in range(1, 10):
            blocks = [ld.coefficients(thetas[i : i + size]) for i in range(0, 23, size)]
            assert np.array_equal(np.concatenate(blocks), coeffs), size

    def test_errors_do_not_depend_on_the_cpu_count(self, monkeypatch):
        # 10^5 points in 25 blocks, on one worker and on two
        ld = _gaussian_dictionary(1, (20,))
        pts = np.random.default_rng(20).uniform(-1.0, 10.5, size=100_000)
        errors = []
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)), raising=False)
            errors.append(ld.approx_error(pts))
        assert np.array_equal(errors[0], errors[1])

    def test_workers_never_share_a_workspace(self, monkeypatch, rng):
        # more workers than cores, switching threads as often as the interpreter can
        ld = _gaussian_dictionary(2, (2, 3))
        pts = rng.uniform(-1.0, 2.0, size=(5_000, 2))
        monkeypatch.setattr(tidict.kernels, "_CHUNK", 97)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        want = ld.approx_error(pts)
        monkeypatch.setattr(tidict.kernels, "_MAX_WORKERS", 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = [ld.approx_error(pts) for _ in range(5)]
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(g, want) for g in got)

    def test_workspace_holds_the_phases_in_the_solve_arrays(self, monkeypatch):
        # one block of 4,096 rows against 20 nodes and 10 cosine terms, on one
        # worker: four (B, L) arrays, 2.6 MB; with two (B, K) arrays of their
        # own for the phases and cosines the workspace was 3.3 MB
        ld = _gaussian_dictionary(1, (20,))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        pts = np.linspace(-1.0, 10.5, 4096)
        tracemalloc.start()
        try:
            err = ld.approx_error(pts)
            peak = tracemalloc.get_traced_memory()[1] - err.nbytes
        finally:
            tracemalloc.stop()
        assert peak < 4 * 4096 * 20 * 8 + 2**18

    def test_a_kernel_with_more_terms_than_half_the_rank(self, monkeypatch, rng):
        # a kernel file under validate may carry more terms than floor(L / 2),
        # whose phases need more columns than the solve's (B, L) arrays
        ld = _gaussian_dictionary(1, (6,))
        rc = ld.rc
        extra = RaisedCosineKernel(
            1, rc.lambda0, np.concatenate([rc.weights, [1e-3] * 5]),
            np.concatenate([rc.freqs, [[0.1], [0.2], [0.3], [0.4], [0.5]]]), rc.rank,
        )
        wide = LowRankDictionary(ld.kernel, ld.gram, extra, check=False)
        assert wide.rc.num_terms == 8 > wide.rank
        monkeypatch.setattr(tidict.kernels, "_CHUNK", 97)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        pts = rng.uniform(-1.0, 3.5, size=1_000)
        c = wide.coefficients(pts)
        x = wide.gram.solve_rows(c)
        k = wide.kernel.cross(pts, wide.grid.axes)
        want = np.sqrt(np.clip(1.0 - 2.0 * np.sum(k * x, axis=1) + np.sum(c * x, axis=1), 0.0, None))
        assert np.max(np.abs(wide.approx_error(pts) - want)) < 1e-12

    def test_cross_term_from_axis_tables(self, rng):
        # kappa(x_i - theta_l) against a grid's axes: bitwise equal to eval in 1-D
        for spacing, count in ((0.5, 1), (0.5, 20), (1.0, 6), (0.3, 7)):
            grid = NodeGrid([-0.7], [spacing], [count])
            kernel = GaussianIsotropicKernel(sigma=0.7, dim=1)
            x = rng.uniform(-2.0, 4.0, size=31)
            got = kernel.cross(x, grid.axes)
            want = kernel.eval(np.subtract.outer(x, grid.nodes[:, 0]).ravel()).reshape(31, count)
            assert got.shape == (31, count) and got.flags.c_contiguous
            assert np.array_equal(got, want)
        # several axes, a one-node axis among them: the per-axis product ((f0 f1) f2)
        for counts in ((4, 4), (2, 3), (3, 1), (3, 3, 3), (2, 1, 4)):
            dim = len(counts)
            grid = NodeGrid([0.25] * dim, [0.5] * dim, counts)
            kernel = GaussianIsotropicKernel(sigma=0.7, dim=dim)
            x = rng.uniform(-2.0, 4.0, size=(31, dim))
            got = kernel.cross(x, grid.axes)
            want = kernel.eval((x[:, None, :] - grid.nodes[None, :, :]).reshape(-1, dim)).reshape(31, grid.size)
            assert got.shape == (31, grid.size) and got.flags.c_contiguous
            assert np.max(np.abs(got - want)) <= 1e-15, counts
            tables = [kernel.axis_factor(x[:, a], coords) for a, coords in enumerate(grid.axes)]
            product = tables[0]
            for table in tables[1:]:
                product = (product[:, :, None] * table[:, None, :]).reshape(31, -1)
            assert np.array_equal(got, product), counts
            out = np.full((31, grid.size), np.nan)
            assert kernel.cross(x, grid.axes, out=out) is out and np.array_equal(out, got)

    def test_cross_term_refuses_an_out_it_cannot_view(self, rng):
        kernel = GaussianIsotropicKernel(sigma=1.0, dim=2)
        axes = NodeGrid([0.0, 0.0], [1.0, 1.0], [2, 3]).axes
        x = rng.uniform(0.0, 1.0, size=(5, 2))
        for out in (np.empty((6, 5)).T, np.empty((5, 12))[:, ::2], np.empty((5, 7)), np.empty((4, 6))):
            with pytest.raises(DomainError):
                kernel.cross(x, axes, out=out)
        with pytest.raises(DomainError):
            kernel.cross(x, axes[:1])


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
        ld = LowRankDictionary(gauss1, build_gram(gauss1, NodeGrid([0.0], [1.0], [20])))
        emb = DiscreteEmbedding(gauss1, [-7.0], [26.0], 256)
        taylor = TaylorApproximation.build(emb, 9.5, 19)
        pts = np.linspace(0.0, 19.0, self.N)
        assert self._peak(ld.approx_error, pts) < self.LIMIT
        assert self._peak(taylor.errors, pts) < self.LIMIT

    def test_sweeps_run_in_bounded_memory_on_many_cpus(self, gauss1, monkeypatch):
        # the cap on sweep()'s workers, not the CPU count, holds the limit
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        self.test_sweeps_run_in_bounded_memory(gauss1)

    def test_cross_term_allocates_no_block_of_nodes(self, rng):
        # 4,096 rows against the 216 nodes of 6x6x6 into a preallocated out:
        # from a point stack, its per-axis gathers peaked at 7.1 MiB
        kernel = GaussianIsotropicKernel(sigma=1.0, dim=3)
        axes = NodeGrid([0.0] * 3, [1.0] * 3, (6, 6, 6)).axes
        x = rng.uniform(0.0, 5.0, size=(4096, 3))
        out = np.empty((4096, 216))
        tracemalloc.start()
        try:
            kernel.cross(x, axes, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # holding an axis's table while the next one was made peaked at 514 KiB;
        # one table is 192 KiB
        assert peak < 400 * 2**10

    def test_approx_inner_runs_in_bounded_memory(self, rng):
        # 1e4 pairs against 108 cosine terms: in one block, their phases,
        # cosines and sines against the 216 nodes peaked at 99 MiB
        ld = _gaussian_dictionary(3, (6, 6, 6))
        a, b = rng.uniform(0.0, 5.0, size=(2, 10_000, 3))
        tracemalloc.start()
        try:
            ld.approx_inner(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_select_atom_runs_in_bounded_memory(self, rng, monkeypatch):
        # the 32^3 default coarse seeds against 108 cosine terms: evaluated
        # at once, their phases, cosines and sines peaked at 55 MiB
        ld = _gaussian_dictionary(3, (6, 6, 6))
        projections = rng.normal(size=ld.rank)
        box = ParamBox([0.0] * 3, [5.0] * 3)
        tracemalloc.start()
        try:
            theta, value = ld.select_atom(projections, box)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.LIMIT
        monkeypatch.setattr(tidict.kernels, "_CHUNK", 1 << 15)  # all seeds in one block
        one_block = ld.select_atom(projections, box)
        assert np.array_equal(theta, one_block[0]) and value == one_block[1]


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
        projections = ld23.gram.solve_rows(node_atoms @ signal)
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
        ld = LowRankDictionary(gauss1, build_gram(gauss1, grid))
        box = ParamBox([-1.0], [1.0])
        theta, value = ld.select_atom(np.array([2.0]), box)
        assert theta[0] == -1.0
        assert value == pytest.approx(2.0)

    def test_tied_seeds_start_in_lexicographic_order(self, ld23, monkeypatch):
        starts = []
        ascent = LowRankDictionary._newton_ascent

        def record(f_grad_hess, x0, lower, upper, settings):
            starts.append(np.array(x0))
            return ascent(f_grad_hess, x0, lower, upper, settings)

        monkeypatch.setattr(LowRankDictionary, "_newton_ascent", staticmethod(record))
        box = ParamBox([0.0, 0.0], [1.0, 2.0])
        settings = SelectAtomSettings(coarse_per_axis=5, num_starts=7)
        # all-zero projections: every coarse seed ties at the value 0
        theta, value = ld23.select_atom(np.zeros(6), box, settings)
        # the first 7 seeds in row-major order: (0, 0), (0, 0.5), ..., (0, 2), (0.25, 0), (0.25, 0.5)
        assert np.array_equal(np.array(starts), box.grid(5)[:7])
        assert np.array_equal(theta, box.lower) and value == 0.0
        # without ties the best seed comes first: node 4, (1, 1), is a seed
        starts.clear()
        projections = np.zeros(6)
        projections[4] = 1.0
        ld23.select_atom(projections, box, SelectAtomSettings(coarse_per_axis=5, num_starts=1))
        assert np.array_equal(np.array(starts), [[1.0, 1.0]])

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
        inner = coeff @ ld23.gram.solve_rows(coeff).T
        svals = np.linalg.svd(inner, compute_uv=False)
        assert svals[ld23.rank - 1] > 1e-8  # full surrogate rank is used
        assert svals[ld23.rank] < 1e-8  # and nothing beyond it
