import os
import sys
import threading

import numpy as np
import pytest

import tidict.kernels
from oracles import (
    box_contains,
    check_window_exact,
    embedded_inner,
    outer_product_atom,
    truncation_deficit_loop,
)
from tidict import (
    DiscreteEmbedding,
    DomainError,
    GaussianIsotropicKernel,
    ParamBox,
    TruncationError,
)
from tidict.kernels import as_param_array, sweep


class TestParamBox:
    def test_basic_geometry(self):
        box = ParamBox([0.0, -1.0], [2.0, 3.0])
        assert box.dim == 2
        assert np.allclose(box.center, [1.0, 1.0])
        assert box_contains(box, [1.0, 0.0])
        assert not box_contains(box, [3.0, 0.0])

    def test_empty_box_rejected(self):
        with pytest.raises(DomainError):
            ParamBox([0.0], [0.0])
        with pytest.raises(DomainError):
            ParamBox([1.0, 0.0], [0.0, 1.0])

    def test_mismatched_bounds_rejected(self):
        with pytest.raises(DomainError):
            ParamBox([0.0, 0.0], [1.0])

    def test_sample_stays_inside(self, rng):
        box = ParamBox([-2.0, 1.0], [0.5, 4.0])
        pts = box.sample(rng, 500)
        assert pts.shape == (500, 2)
        assert box_contains(box, pts)

    def test_arrays_past_numpy_sizes_refused(self, rng):
        # 2^60 float64s are more bytes than numpy's largest array, which raised ValueError;
        # each axis of the grid fits, and is too big to be made first
        box = ParamBox([0.0, 0.0], [1.0, 2.0])
        for call in (lambda: box.axes([2, 2**60]), lambda: box.grid([2**40, 2**21]), lambda: box.sample(rng, 2**59)):
            with pytest.raises(DomainError, match="out of range"):
                call()

    def test_grid_row_major_order(self):
        box = ParamBox([0.0, 0.0], [1.0, 2.0])
        pts = box.grid([2, 3])
        assert pts.shape == (6, 2)
        # last axis varies fastest
        expected = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
        assert np.allclose(pts, expected)


class TestParamArray:
    def test_scalar_only_in_1d(self):
        arr, single = as_param_array(0.5, 1)
        assert single and arr.shape == (1, 1)
        with pytest.raises(DomainError):
            as_param_array(0.5, 2)

    def test_flat_array_is_batch_in_1d(self):
        arr, single = as_param_array([1.0, 2.0, 3.0], 1)
        assert not single and arr.shape == (3, 1)

    def test_vector_is_single_in_2d(self):
        arr, single = as_param_array([1.0, 2.0], 2)
        assert single and arr.shape == (1, 2)

    def test_wrong_width_rejected(self):
        with pytest.raises(DomainError):
            as_param_array([[1.0, 2.0, 3.0]], 2)


class TestGaussianKernel:
    def test_unit_at_zero(self, gauss1, gauss2):
        assert gauss1.eval(0.0) == 1.0
        assert gauss2.eval([0.0, 0.0]) == 1.0

    def test_closed_form_values(self):
        k = GaussianIsotropicKernel(sigma=0.7, dim=1)
        for d in (0.3, -1.2, 2.5):
            assert k.eval(d) == pytest.approx(np.exp(-(d**2) / (4 * 0.49)), abs=1e-15)

    def test_even_in_displacement(self, gauss2, rng):
        deltas = rng.normal(size=(50, 2))
        assert np.allclose(gauss2.eval(deltas), gauss2.eval(-deltas), atol=0.0)

    def test_isotropy(self, gauss2, rng):
        # value depends on the displacement norm only
        for _ in range(20):
            r = rng.uniform(0.1, 3.0)
            ang = rng.uniform(0.0, 2 * np.pi)
            d1 = np.array([r, 0.0])
            d2 = np.array([r * np.cos(ang), r * np.sin(ang)])
            assert gauss2.eval(d1) == pytest.approx(gauss2.eval(d2), abs=1e-14)

    def test_batch_shapes(self, gauss1, gauss2):
        assert gauss1.eval(np.zeros(5)).shape == (5,)
        assert gauss2.eval(np.zeros((7, 2))).shape == (7,)
        with pytest.raises(DomainError):
            gauss2.eval(np.zeros((7, 3)))

    def test_invalid_sigma(self):
        with pytest.raises(DomainError):
            GaussianIsotropicKernel(sigma=0.0, dim=1)
        with pytest.raises(DomainError):
            GaussianIsotropicKernel(sigma=-1.0, dim=2)
        # 4 sigma^2 underflows to 0, overflows, or has an overflowing reciprocal
        for sigma in (1e-300, 1e300, 1e-160):
            with pytest.raises(DomainError, match="out of range"):
                GaussianIsotropicKernel(sigma=sigma, dim=1)
        assert GaussianIsotropicKernel(sigma=1e-150).sigma == 1e-150

    def test_distances_whose_square_overflows_give_zero_without_warnings(self, gauss1, gauss2):
        # 2e200 squared is past the float range; the suite turns warnings into errors
        assert gauss1.axis_factor(np.array([1e200]), np.array([-1e200])).tolist() == [[0.0]]
        assert gauss2.eval([[2e200, 0.0], [1e200, 1e200]]).tolist() == [0.0, 0.0]


class TestDiscreteEmbedding:
    def test_atom_unit_norm(self, gauss1):
        emb = DiscreteEmbedding(gauss1, [-8.0], [8.0], 256)
        for theta in (-1.0, 0.0, 0.37, 1.5):
            assert np.linalg.norm(emb.atom(theta)) == pytest.approx(1.0, abs=1e-12)

    def test_inner_products_match_kernel(self, gauss1):
        emb = DiscreteEmbedding(gauss1, [-8.0], [8.0], 256)
        for d in (0.25, 0.5, 1.0, 2.0):
            assert embedded_inner(emb, 0.0, d) == pytest.approx(gauss1.eval(d), abs=1e-10)

    def test_inner_products_match_kernel_2d(self, gauss2):
        emb = DiscreteEmbedding(gauss2, [-6.0, -6.0], [8.0, 8.0], 128)
        got = embedded_inner(emb, [0.3, 1.1], [1.0, 0.2])
        want = gauss2.eval([0.7, -0.9])
        assert got == pytest.approx(want, abs=1e-8)

    def test_agreement_improves_with_refinement(self):
        # a narrow atom family is badly aliased at coarse sampling; the
        # discrete-vs-analytic kernel deviation must fall as the lattice
        # is refined
        k = GaussianIsotropicKernel(sigma=0.1, dim=1)
        shifts = [0.05, 0.1, 0.2]
        devs = []
        for n in (64, 128, 256):
            emb = DiscreteEmbedding(k, [-8.0], [8.0], n)
            devs.append(
                max(abs(embedded_inner(emb, 0.0, d) - k.eval(d)) for d in shifts)
            )
        assert devs[0] > devs[1] > devs[2]

    def test_truncation_error_near_window_edge(self, gauss1):
        emb = DiscreteEmbedding(gauss1, [-4.0], [4.0], 128)
        with pytest.raises(TruncationError):
            emb.atom(3.9)
        with pytest.raises(TruncationError):
            emb.atom(7.0)  # fully outside

    def test_truncation_deficit_values(self, gauss1):
        emb = DiscreteEmbedding(gauss1, [-8.0], [8.0], 256)
        assert emb.truncation_deficits([[0.0]])[0] < 1e-12
        assert emb.truncation_deficits([[7.9]])[0] > 1e-3

    @pytest.mark.parametrize("chunk", [1 << 20, 1000])
    def test_truncation_deficits_match_loop(self, gauss1, gauss2, rng, monkeypatch, chunk):
        # a small chunk splits the lattice sums over several blocks
        monkeypatch.setattr(tidict.kernels, "_DEFICIT_CHUNK", chunk)
        # windows wider than 18 sigma, so that central atoms lose exactly nothing
        emb1 = DiscreteEmbedding(gauss1, [-12.0], [12.0], 256)
        thetas1 = np.concatenate([rng.uniform(-15.0, 15.0, 40), [0.0, 11.9, 20.0]])
        emb2 = DiscreteEmbedding(gauss2, [-10.0, -11.0], [10.0, 12.0], (128, 150))
        thetas2 = np.vstack(
            [rng.uniform([-13.0, -14.0], [13.0, 15.0], size=(40, 2)), [[0.0, 0.5], [9.9, 0.0]]]
        )
        for emb, thetas in ((emb1, thetas1), (emb2, thetas2)):
            batch = emb.truncation_deficits(thetas)
            ref = np.array([truncation_deficit_loop(emb, t) for t in thetas])
            single = np.array([emb.truncation_deficits(t[None])[0] for t in thetas])
            assert np.any(ref > emb.truncation_tol) and np.any(ref == 0.0)
            assert np.max(np.abs(batch - ref)) <= 1e-15
            assert np.array_equal(batch, single)

    @staticmethod
    def _window_outcome(check, emb, thetas):
        try:
            check(emb, thetas)
        except TruncationError as exc:
            return str(exc)
        return None

    @pytest.mark.parametrize("tol", [1e-3, 0.4])
    @pytest.mark.parametrize("samples", [5, 40, 400])
    def test_check_window_matches_exact_deficits(self, gauss1, gauss2, samples, tol):
        offsets = np.concatenate([np.linspace(-2.0, 7.0, 37), [0.0, 1e-12, -1e-12]])
        for kernel, lower, upper in ((gauss1, [-4.0], [6.0]), (gauss2, [-4.0, -3.0], [6.0, 5.0])):
            emb = DiscreteEmbedding(kernel, lower, upper, samples, truncation_tol=tol)
            lo, hi = emb.lower, emb.upper
            coords = np.concatenate([lo[0] + offsets, hi[0] - offsets])
            mid = 0.5 * (lo + hi)
            thetas = np.tile(mid, (2 * coords.size, 1))
            thetas[: coords.size, 0] = coords
            thetas[coords.size :, -1] = np.concatenate([lo[-1] + offsets, hi[-1] - offsets])
            outcomes = [
                self._window_outcome(DiscreteEmbedding.check_window, emb, t) for t in thetas
            ]
            want = [self._window_outcome(check_window_exact, emb, t) for t in thetas]
            assert outcomes == want
            assert any(o is None for o in want) and any(o is not None for o in want)
            for rows in (thetas, thetas[::-1], thetas[thetas[:, 0] >= mid[0]]):
                assert self._window_outcome(
                    DiscreteEmbedding.check_window, emb, rows
                ) == self._window_outcome(check_window_exact, emb, rows)

    def test_atoms_batch_matches_single(self, gauss2):
        emb = DiscreteEmbedding(gauss2, [-5.0, -5.0], [7.0, 7.0], 64)
        thetas = np.array([[0.0, 0.0], [1.0, 2.0]])
        batch = emb.atoms(thetas)
        assert batch.shape == (2, emb.size)
        assert np.array_equal(batch[0], emb.atom(thetas[0]))
        assert np.array_equal(batch[1], emb.atom(thetas[1]))
        # each atom is add_atom into zeros, bit for bit, and within a relative
        # 4 eps of the atom normalised as a whole (measured: 3.0 eps)
        for dim, samples in ((1, 300), (2, 64), (3, 20)):
            k = GaussianIsotropicKernel(sigma=0.8, dim=dim)
            emb = DiscreteEmbedding(k, [-5.0] * dim, [6.0] * dim, samples)
            thetas = np.random.default_rng(dim).uniform(-1.0, 2.0, size=(5, dim))
            got = emb.atoms(thetas)
            for theta, row in zip(thetas, got):
                added = np.zeros(emb.samples_per_axis)
                emb.add_atom(added, theta)
                assert np.array_equal(row, added.ravel())
            ref = np.array([outer_product_atom(emb, t) for t in thetas])
            assert np.all(np.abs(got - ref) <= 4 * np.finfo(float).eps * np.abs(ref))

    def test_atom_without_mass_raises(self):
        # every sample of a 1e-20-wide atom between lattice points underflows
        emb = DiscreteEmbedding(GaussianIsotropicKernel(1e-20, dim=2), [-7.0] * 2, [7.0] * 2, 128)
        with pytest.raises(DomainError, match="no mass"):
            emb.atoms(np.array([[0.37, 0.81]]))

    def test_correlations_match_sampled_atoms(self):
        rng = np.random.default_rng(5)
        for samples, counts in ((300, (7,)), ((64, 50), (5, 4)), ((20, 16, 12), (3, 4, 2))):
            dim = len(counts)
            emb = DiscreteEmbedding(GaussianIsotropicKernel(0.8, dim), [-5.0] * dim, [6.0] * dim, samples)
            axes = [rng.uniform(-1.0, 2.0, c) for c in counts]
            thetas = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
            signal = rng.standard_normal(emb.size)
            want = emb.atoms(thetas) @ signal
            for given in (signal, signal.reshape(emb.samples_per_axis)):
                got = emb.correlations(given, axes)
                assert got.shape == counts
                # |<a, signal>| <= ||signal|| for a unit-norm atom
                assert np.max(np.abs(got.ravel() - want)) <= 1e-13 * np.linalg.norm(signal)

    def test_correlations_of_a_massless_profile_raise(self):
        # a 1e-20-wide profile has mass only at a lattice point
        emb = DiscreteEmbedding(GaussianIsotropicKernel(1e-20, dim=2), [0.0] * 2, [1.0] * 2, 128)
        signal = np.ones(emb.size)
        assert np.array_equal(emb.correlations(signal, [[0.0, 1.0], [1.0]]), np.ones((2, 1)))
        with pytest.raises(DomainError, match=r"theta\[1\]=0.37 have no mass"):
            emb.correlations(signal, [[0.0], [0.37]])
        with pytest.raises(DomainError, match="got 16383 and 2"):
            emb.correlations(signal[1:], [[0.0], [1.0]])
        with pytest.raises(DomainError, match="got 16384 and 1"):
            emb.correlations(signal, [[0.0]])

    @pytest.mark.parametrize("slab_rows", [8, 16, 64])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_correlation_slabs_stack_to_the_one_slab_tensor(self, monkeypatch, dim, slab_rows):
        rng = np.random.default_rng(dim)
        samples = {1: 300, 2: (64, 50), 3: (20, 16, 12)}[dim]
        emb = DiscreteEmbedding(GaussianIsotropicKernel(0.8, dim), [-5.0] * dim, [6.0] * dim, samples)
        signal = rng.standard_normal(emb.size)
        for first in (8, 9, 17, 63, 65, 200):
            axes = [np.linspace(-1.0, 2.0, first)] + [rng.uniform(-1.0, 2.0, c) for c in (5, 4)[: dim - 1]]
            monkeypatch.setattr(tidict.kernels, "_SLAB_ROWS", 1 << 30)  # every row in one slab
            whole = emb.correlations(signal, axes)
            monkeypatch.setattr(tidict.kernels, "_SLAB_ROWS", slab_rows)
            starts, slabs = zip(*emb.correlation_slabs(signal, axes))
            heights = [slab.shape[0] for slab in slabs]
            assert list(starts) == [0] + list(np.cumsum(heights)[:-1])
            assert sum(heights) == first
            # full slabs, then a tail of at least 8 rows that a shorter tail joined
            assert all(h == slab_rows for h in heights[:-1])
            assert min(8, first) <= heights[-1] < slab_rows + 8
            assert np.array_equal(np.concatenate(slabs), whole)  # bit for bit

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_add_atom_adds_the_sampled_atom(self, dim):
        emb = DiscreteEmbedding(GaussianIsotropicKernel(0.8, dim), [-5.0] * dim, [6.0] * dim, {1: 300, 2: 64, 3: 20}[dim])
        theta = np.linspace(0.3, 1.1, dim)
        signal = np.ones(emb.samples_per_axis)
        emb.add_atom(signal, theta)
        emb.add_atom(signal.ravel(), theta)  # a flat view adds into the same buffer
        assert np.max(np.abs(signal.ravel() - 1.0 - 2.0 * emb.atom(theta))) <= 1e-15

    def test_add_atom_refuses_a_buffer_it_cannot_write(self, gauss2):
        emb = DiscreteEmbedding(gauss2, [-5.0, -5.0], [7.0, 7.0], 64)
        for bad in (np.zeros(emb.size - 1), np.zeros(emb.size, dtype=np.float32), np.zeros((64, 128))[:, ::2]):
            with pytest.raises(DomainError, match="C-contiguous float tensor of 4096 samples"):
                emb.add_atom(bad, [0.0, 0.0])
        massless = DiscreteEmbedding(GaussianIsotropicKernel(1e-20, dim=2), [0.0] * 2, [1.0] * 2, 128)
        with pytest.raises(DomainError, match=r"theta\[0\]=0.37 have no mass"):
            massless.add_atom(np.zeros(massless.size), [0.37, 0.0])

    def test_window_validation(self, gauss1, gauss2):
        with pytest.raises(DomainError):
            DiscreteEmbedding(gauss1, [2.0], [-2.0], 64)
        with pytest.raises(DomainError):
            DiscreteEmbedding(gauss2, [-2.0], [2.0], 64)  # dim mismatch
        with pytest.raises(DomainError):
            DiscreteEmbedding(gauss1, [-2.0], [2.0], 1)

    def test_lattice_past_64_bit_indices_refused(self):
        gauss3 = GaussianIsotropicKernel(sigma=1.0, dim=3)
        # 2^60 - 1 float64s fill numpy's largest array; np.prod wrapped 2^66 samples to 0
        assert DiscreteEmbedding(gauss3, [0.0] * 3, [1.0] * 3, 2**20 - 1).size == (2**20 - 1) ** 3
        for counts in (2**20, 2**22):
            with pytest.raises(DomainError, match="out of range"):
                DiscreteEmbedding(gauss3, [0.0] * 3, [1.0] * 3, counts)
        # one count past numpy's int64 raised OverflowError, not DomainError
        for count in (2**63, 2**64, 10**30):
            with pytest.raises(DomainError, match=f"{count}.*out of range"):
                DiscreteEmbedding(GaussianIsotropicKernel(sigma=1.0), [0.0], [1.0], count)


class TestSweep:
    @staticmethod
    def _cpus(monkeypatch, cpus, chunk=10):
        monkeypatch.setattr(tidict.kernels, "_CHUNK", chunk)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)

    @pytest.mark.parametrize(
        "block, on_caller", [(0, True), (1, False)], ids=["calling-thread", "pool-thread"]
    )
    def test_a_block_error_reaches_the_caller(self, monkeypatch, block, on_caller):
        # 45 rows in 5 blocks on two workers: block 0 runs on the calling thread, block 1 on the pool's
        self._cpus(monkeypatch, 2)
        caller, before, raised = threading.get_ident(), threading.active_count(), []

        def body(dst, ws, rows):
            if rows[0, 0] == 10 * block:
                raised.append(threading.get_ident() == caller)
                raise RuntimeError(f"block {block}")

        with pytest.raises(RuntimeError, match=f"block {block}"):
            sweep(body, np.empty(45), np.arange(45.0)[:, None], workspace=lambda rows: None)
        assert raised == [on_caller]
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_each_worker_runs_its_blocks_in_its_own_workspace(self, monkeypatch, cpus):
        # 65 rows in 7 blocks, the last padded from 5 rows to 8
        self._cpus(monkeypatch, cpus)
        monkeypatch.setattr(tidict.kernels, "_MAX_WORKERS", 3)
        made, seen = [], {}

        def workspace(rows):
            made.append(rows)
            return [len(made) - 1]

        def body(dst, ws, rows):
            seen[int(rows[0, 0]) // 10] = (ws[0], threading.get_ident())
            dst[:] = rows[: len(dst), 0]

        out = np.empty(65)
        sweep(body, out, np.arange(65.0)[:, None], workspace=workspace)
        assert made == [10] * cpus
        assert sorted(seen) == list(range(7))
        assert all(ws == b % cpus for b, (ws, _) in seen.items())
        threads = {ws: {t for w, t in seen.values() if w == ws} for ws in range(cpus)}
        assert threads[0] == {threading.get_ident()}
        assert all(len(t) == 1 for t in threads.values())
        assert np.array_equal(out, np.arange(65.0))

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_then_takes_the_results_in_block_order(self, monkeypatch, cpus):
        # 65 rows in 7 blocks, switching threads as often as the interpreter can
        self._cpus(monkeypatch, cpus)
        monkeypatch.setattr(tidict.kernels, "_MAX_WORKERS", 3)
        seen = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                seen.clear()
                sweep(
                    lambda dst, ws, rows: int(rows[0, 0]) // 10,
                    np.empty((65, 0)),
                    np.arange(65.0)[:, None],
                    workspace=lambda rows: None,
                    then=seen.append,
                )
                assert seen == list(range(7))
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("block", [0, 1, 2, 3])
    def test_a_then_error_wakes_the_other_worker(self, monkeypatch, block):
        # 45 rows in 5 blocks on two workers: the worker of the next block waits for its turn
        self._cpus(monkeypatch, 2)
        before, raised = threading.active_count(), []

        def then(i):
            if i == block:
                raise OSError(f"block {block}")

        def run():
            try:
                sweep(
                    lambda dst, ws, rows: int(rows[0, 0]) // 10,
                    np.empty((45, 0)),
                    np.arange(45.0)[:, None],
                    workspace=lambda rows: None,
                    then=then,
                )
            except OSError as exc:
                raised.append(str(exc))

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert raised == [f"block {block}"]
        assert threading.active_count() == before

    def test_no_rows_make_no_workspace_and_run_no_block(self, monkeypatch):
        self._cpus(monkeypatch, 2)
        calls = []
        sweep(
            lambda *args: calls.append("body"),
            np.empty(0),
            np.empty((0, 2)),
            workspace=lambda rows: calls.append("workspace"),
        )
        assert calls == []
