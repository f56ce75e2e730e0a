import math
import os
import re
import tracemalloc

import numpy as np
import pytest
from scipy.special import eval_hermite

import tidict.kernels
from oracles import (
    sampled_axis_derivatives,
    sampled_taylor_basis,
    sampled_taylor_errors,
    taylor_error,
)
from tidict import (
    DiscreteEmbedding,
    DomainError,
    GaussianIsotropicKernel,
    TaylorApproximation,
    multi_indices,
)
from tidict.taylor import _hermite


@pytest.fixture(scope="module")
def emb1(gauss1):
    return DiscreteEmbedding(gauss1, [-8.0], [8.0], 256)


@pytest.fixture(scope="module")
def emb2(gauss2):
    return DiscreteEmbedding(gauss2, [-7.0, -7.0], [7.0, 7.0], 160)


@pytest.fixture(scope="module")
def taylor3():
    # order 3 on three axes, L = 20: the products gather and multiply three axes
    emb = DiscreteEmbedding(GaussianIsotropicKernel(1.0, 3), [-6.0] * 3, [6.0] * 3, 40)
    return TaylorApproximation.build(emb, [0.2, -0.1, 0.3], 3)


class TestMultiIndices:
    def test_counts_match_binomial(self):
        assert len(multi_indices(1, 3)) == 4
        assert len(multi_indices(2, 2)) == 6
        assert len(multi_indices(3, 2)) == 10

    def test_graded_lexicographic_order(self):
        assert multi_indices(2, 2) == [
            (0, 0),
            (1, 0),
            (0, 1),
            (2, 0),
            (1, 1),
            (0, 2),
        ]

    def test_invalid_arguments(self):
        with pytest.raises(DomainError):
            multi_indices(0, 2)
        with pytest.raises(DomainError):
            multi_indices(2, -1)


class TestBuild:
    def test_rank_and_shapes(self, emb2):
        taylor = TaylorApproximation.build(emb2, [0.0, 0.0], 2)
        assert taylor.rank == 6
        assert taylor.gram.shape == (6, 6)
        assert sampled_taylor_basis(emb2, [0.0, 0.0], 2).shape == (6, emb2.size)

    def test_gram_matches_sampled_basis(self, emb2):
        taylor = TaylorApproximation.build(emb2, [0.3, -0.2], 3)
        basis = sampled_taylor_basis(emb2, [0.3, -0.2], 3)
        assert np.max(np.abs(taylor.gram - basis @ basis.T)) < 1e-10

    def test_zero_order_row_is_atom(self, emb1):
        basis = sampled_taylor_basis(emb1, 0.5, 0)
        assert basis.shape[0] == TaylorApproximation.build(emb1, 0.5, 0).rank == 1
        # the order-zero derivative is the atom itself, up to the tiny
        # discrete normalization defect
        exact = emb1.atom(0.5)
        assert np.linalg.norm(basis[0] - exact) < 1e-8
        assert np.linalg.norm(basis[0]) == pytest.approx(1.0, abs=1e-8)

    def test_first_derivative_matches_finite_difference(self, emb1):
        basis = sampled_taylor_basis(emb1, 0.0, 1)
        h = 1e-4
        fd = (emb1.atom(h) - emb1.atom(-h)) / (2 * h)
        row = basis[1]
        assert np.linalg.norm(row - fd) / np.linalg.norm(fd) < 1e-6

    def test_first_derivative_2d_axes(self, emb2):
        basis = sampled_taylor_basis(emb2, [0.3, -0.2], 1)
        h = 1e-4
        for axis, row in ((0, basis[1]), (1, basis[2])):
            step = np.zeros(2)
            step[axis] = h
            fd = (
                emb2.atom(np.array([0.3, -0.2]) + step)
                - emb2.atom(np.array([0.3, -0.2]) - step)
            ) / (2 * h)
            assert np.linalg.norm(row - fd) / np.linalg.norm(fd) < 1e-6

    @pytest.mark.parametrize("center", [0.0, -2.5])
    def test_axis_derivatives_match_scipy_hermite(self, emb1, center):
        # scipy's Hermite evaluation is the independent reference for the
        # recurrence, up to the order 19 that a 20-node 1-D grid needs
        rows = sampled_axis_derivatives(emb1, 0, center, 20)
        sigma = emb1.kernel.sigma
        x = (emb1.axes[0] - center) / (sigma * math.sqrt(2.0))
        base = (math.pi * sigma**2) ** -0.25 * np.exp(-(x**2))
        for n in range(21):
            ref = (sigma * math.sqrt(2.0)) ** (-n) * eval_hermite(n, x) * base
            assert np.max(np.abs(rows[n] - ref)) <= 1e-13 * np.max(np.abs(ref)), n

    def test_hermite_matches_scipy(self):
        # the derivative Gram matrix of a degree-19 expansion needs H_n(0)
        # up to n = 38
        x = np.linspace(-6.0, 6.0, 97)
        values = _hermite(x, 38)
        assert values.shape == (39, 97)
        for n in range(39):
            ref = eval_hermite(n, x)
            assert np.max(np.abs(values[n] - ref)) <= 1e-13 * np.max(np.abs(ref)), n
            assert _hermite(0.0, 38)[n] == pytest.approx(eval_hermite(n, 0.0), rel=1e-14)

    def test_a_center_outside_the_window_builds_the_same_gram(self, emb1, gauss1):
        assert emb1.truncation_deficits([[7.9]])[0] > emb1.truncation_tol
        wide = DiscreteEmbedding(gauss1, [-38.0], [38.0], 256)
        narrow, ref = (TaylorApproximation.build(e, 7.9, 2) for e in (emb1, wide))
        assert np.array_equal(narrow.gram, ref.gram)

    def test_overflowing_gram_or_error_raises(self):
        def build(sigma):
            emb = DiscreteEmbedding(GaussianIsotropicKernel(sigma), [-8.0], [8.0], 64)
            return TaylorApproximation.build(emb, 0.0, 2)

        # (2 sigma)^-4 overflows
        with pytest.raises(DomainError, match="Gram matrix"):
            build(1e-100)
        # the Gram matrix is finite, the error 6 units from the center is not
        taylor = build(1e-77)
        assert taylor.errors(np.array([0.0]))[0] == 0.0
        with pytest.raises(DomainError, match="not finite"):
            taylor.errors(np.array([0.0, 6.0]))

    def test_center_validation(self, emb2):
        with pytest.raises(DomainError):
            TaylorApproximation.build(emb2, [0.0], 2)
        with pytest.raises(DomainError):
            TaylorApproximation.build(emb2, [0.0, 0.0], -1)


class TestApproximation:
    def test_exact_at_center(self, emb2):
        center = np.array([0.1, 0.4])
        taylor = TaylorApproximation.build(emb2, center, 2)
        assert taylor_error(taylor, center) < 1e-8

    def test_third_order_error_growth(self, emb1):
        # a second-order expansion has cubic local error
        taylor = TaylorApproximation.build(emb1, 0.0, 2)
        r = 0.05
        e1 = taylor_error(taylor, r)
        e2 = taylor_error(taylor, 2 * r)
        assert e2 / e1 == pytest.approx(8.0, rel=0.15)

    def test_cubic_error_growth_holds_near_the_center(self, emb2):
        # the README 2-D expansion: at 1e-3 from the center the error, about
        # 6.45e-10, is far below the rounding of terms of size 1
        center = np.array([0.5, 1.0])
        taylor = TaylorApproximation.build(emb2, center, 2)
        near, far = taylor.errors(center + np.outer([1e-3, 1e-2], [1.0, 1.0]))
        assert near > 0.0
        assert far / near == pytest.approx(1e3, rel=0.01)

    def test_errors_batch_matches_scalar(self, emb2, rng, monkeypatch):
        monkeypatch.setattr(tidict.kernels, "_CHUNK", 3)
        taylor = TaylorApproximation.build(emb2, [0.0, 0.0], 2)
        thetas = rng.uniform(-0.5, 0.5, size=(7, 2))
        batch = taylor.errors(thetas)
        single = np.array([taylor_error(taylor, t) for t in thetas])
        assert np.max(np.abs(batch - single)) < 1e-14

    def test_errors_do_not_depend_on_the_block(self, emb2, gauss1, taylor3, monkeypatch):
        emb1 = DiscreteEmbedding(gauss1, [-6.5], [16.0], 256)
        cases = (
            (TaylorApproximation.build(emb1, 4.75, 19), np.linspace(0.0, 9.5, 23)),
            (
                TaylorApproximation.build(emb2, [0.0, 0.0], 2),
                np.random.default_rng(5).uniform(-0.5, 0.5, size=(23, 2)),
            ),
            (taylor3, np.random.default_rng(7).uniform(-0.6, 0.6, size=(23, 3))),
        )
        for taylor, thetas in cases:
            want = taylor.errors(thetas)
            for chunk in range(1, 10):
                monkeypatch.setattr(tidict.kernels, "_CHUNK", chunk)
                assert np.array_equal(taylor.errors(thetas), want)
            monkeypatch.undo()

    def test_errors_do_not_depend_on_the_worker_count(self, emb2, gauss1, taylor3, monkeypatch):
        # 2,000 points in blocks of 97 on 1, 2 and 8 workers, in 1-D, 2-D and 3-D
        emb1 = DiscreteEmbedding(gauss1, [-6.5], [16.0], 256)
        cases = (
            (TaylorApproximation.build(emb1, 4.75, 19), np.linspace(0.0, 9.5, 2_000)),
            (
                TaylorApproximation.build(emb2, [0.0, 0.0], 2),
                np.random.default_rng(6).uniform(-0.5, 0.5, size=(2_000, 2)),
            ),
            (taylor3, np.random.default_rng(8).uniform(-0.6, 0.6, size=(2_000, 3))),
        )
        monkeypatch.setattr(tidict.kernels, "_CHUNK", 97)
        for taylor, thetas in cases:
            got = []
            for workers in (1, 2, 8):
                monkeypatch.setattr(tidict.kernels, "_MAX_WORKERS", workers)
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=workers: set(range(n)), raising=False)
                got.append(taylor.errors(thetas))
            assert all(np.array_equal(g, got[0]) for g in got[1:])

    def test_a_non_finite_error_names_the_first_point_on_any_worker_count(self, monkeypatch):
        # bad points in blocks 1, 2 and 3 of 97 rows: on two workers block 2
        # runs on the calling thread, which may reach it before block 1 is done
        emb = DiscreteEmbedding(GaussianIsotropicKernel(1e-77), [-8.0], [8.0], 64)
        taylor = TaylorApproximation.build(emb, 0.0, 2)
        thetas = np.zeros(500)
        thetas[[150, 200, 300]] = [6.0, 7.0, 8.0]
        monkeypatch.setattr(tidict.kernels, "_CHUNK", 97)
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)), raising=False)
            with pytest.raises(DomainError, match=re.escape("theta=[6.0] is not finite")):
                taylor.errors(thetas)

    def test_error_grows_with_distance(self, emb1):
        taylor = TaylorApproximation.build(emb1, 0.0, 2)
        errs = taylor.errors(np.linspace(0.0, 2.0, 9))
        assert np.all(np.diff(errs) > 0.0)

    def test_exactly_zero_at_center(self, emb1):
        taylor = TaylorApproximation.build(emb1, 0.7, 19)
        assert taylor_error(taylor, 0.7) == 0.0

    def test_matches_sampled_errors_2d(self, emb2, rng):
        center = np.array([0.5, 1.0])
        taylor = TaylorApproximation.build(emb2, center, 2)
        thetas = np.vstack([center, rng.uniform([0.0, 0.0], [1.0, 2.0], size=(60, 2))])
        ref = sampled_taylor_errors(emb2, center, 2, thetas)
        assert np.max(np.abs(taylor.errors(thetas) - ref)) < 1e-9

    def test_matches_sampled_errors_3d(self, taylor3, rng):
        emb, center = taylor3.embedding, taylor3.center
        thetas = np.vstack([center, rng.uniform(-0.6, 0.6, size=(30, 3))])
        ref = sampled_taylor_errors(emb, center, 3, thetas)
        assert np.max(np.abs(taylor3.errors(thetas) - ref)) < 1e-9

    def test_workspace_holds_the_tables_and_the_products(self, gauss1, monkeypatch):
        # cond-1d's order-19 expansion, one block of 4,096 rows on one worker:
        # a (20, 1, B) table and two (B, 20) arrays, 2.0 MB
        taylor = TaylorApproximation.build(DiscreteEmbedding(gauss1, [-6.5], [16.0], 256), 4.75, 19)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        pts = np.linspace(0.0, 9.5, 4096)
        tracemalloc.start()
        try:
            err = taylor.errors(pts)
            peak = tracemalloc.get_traced_memory()[1] - err.nbytes
        finally:
            tracemalloc.stop()
        assert peak < (20 * 4096 + 2 * 4096 * 20) * 8 + 2**18

    def test_matches_sampled_errors_1d_order_19(self, gauss1):
        # the order-0 term enters as 2 (1 - kappa(delta)) by expm1, but the
        # terms of order >= 1 still cancel in -2 m.d + m.H m: where the true
        # error is near 0 the computed one sits on an absolute floor below
        # sqrt(eps), 5.3e-9 at |delta| = 0.5; far out, where the expansion
        # diverges, the two agree to about 1e-15 relative
        emb = DiscreteEmbedding(gauss1, [-6.5], [16.0], 256)
        taylor = TaylorApproximation.build(emb, 4.75, 19)
        thetas = np.linspace(0.0, 9.5, 77)
        ref = sampled_taylor_errors(emb, 4.75, 19, thetas)
        assert np.max(ref) > 1e3  # far from the center the expansion diverges
        assert np.max(np.abs(taylor.errors(thetas) - ref)) < 1e-6

    def test_errors_do_not_depend_on_the_window(self, emb1, gauss1):
        # emb1 cuts off the atoms at 7.9 and 8.5; a window 30 sigma wider on
        # each side holds them whole
        wide = DiscreteEmbedding(gauss1, [-38.0], [38.0], 256)
        thetas = np.array([0.0, 1.0, 7.9, 8.5])
        assert np.all(emb1.truncation_deficits(thetas)[2:] > emb1.truncation_tol)
        narrow, ref = (TaylorApproximation.build(e, 0.0, 2).errors(thetas) for e in (emb1, wide))
        assert np.array_equal(narrow, ref)
        assert np.all(np.isfinite(narrow))

    def test_errors_sample_no_atoms(self, emb2, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("sampled an atom")

        monkeypatch.setattr(DiscreteEmbedding, "atom", fail)
        monkeypatch.setattr(DiscreteEmbedding, "atoms", fail)
        taylor = TaylorApproximation.build(emb2, [0.0, 0.0], 2)
        assert taylor.errors(np.array([[0.1, 0.2], [0.5, -0.5]])).shape == (2,)
