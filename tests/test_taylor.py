import math

import numpy as np
import pytest
from scipy.special import eval_hermite

import tidict.taylor
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
    TruncationError,
    multi_indices,
)
from tidict.taylor import _hermite


@pytest.fixture(scope="module")
def emb1(gauss1):
    return DiscreteEmbedding(gauss1, [-8.0], [8.0], 256)


@pytest.fixture(scope="module")
def emb2(gauss2):
    return DiscreteEmbedding(gauss2, [-7.0, -7.0], [7.0, 7.0], 160)


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
        assert values.shape == (97, 39)
        for n in range(39):
            ref = eval_hermite(n, x)
            assert np.max(np.abs(values[:, n] - ref)) <= 1e-13 * np.max(np.abs(ref)), n
            assert _hermite(0.0, 38)[n] == pytest.approx(eval_hermite(n, 0.0), rel=1e-14)

    def test_truncation_guard(self, emb1):
        with pytest.raises(TruncationError):
            TaylorApproximation.build(emb1, 7.9, 2)

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

    def test_monomials_at_center(self, emb2):
        taylor = TaylorApproximation.build(emb2, [0.0, 0.0], 2)
        mono = taylor.monomials([0.0, 0.0])
        assert mono[0] == 1.0 and np.all(mono[1:] == 0.0)

    def test_third_order_error_growth(self, emb1):
        # a second-order expansion has cubic local error
        taylor = TaylorApproximation.build(emb1, 0.0, 2)
        r = 0.05
        e1 = taylor_error(taylor, r)
        e2 = taylor_error(taylor, 2 * r)
        assert e2 / e1 == pytest.approx(8.0, rel=0.15)

    def test_errors_batch_matches_scalar(self, emb2, rng, monkeypatch):
        monkeypatch.setattr(tidict.taylor, "_CHUNK", 3)
        taylor = TaylorApproximation.build(emb2, [0.0, 0.0], 2)
        thetas = rng.uniform(-0.5, 0.5, size=(7, 2))
        batch = taylor.errors(thetas)
        single = np.array([taylor_error(taylor, t) for t in thetas])
        assert np.max(np.abs(batch - single)) < 1e-14

    def test_errors_do_not_depend_on_the_block(self, emb2, gauss1, monkeypatch):
        emb1 = DiscreteEmbedding(gauss1, [-6.5], [16.0], 256)
        cases = (
            (TaylorApproximation.build(emb1, 4.75, 19), np.linspace(0.0, 9.5, 23)),
            (
                TaylorApproximation.build(emb2, [0.0, 0.0], 2),
                np.random.default_rng(5).uniform(-0.5, 0.5, size=(23, 2)),
            ),
        )
        for taylor, thetas in cases:
            want = taylor.errors(thetas)
            for chunk in range(1, 10):
                monkeypatch.setattr(tidict.taylor, "_CHUNK", chunk)
                assert np.array_equal(taylor.errors(thetas), want)
            monkeypatch.undo()

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

    def test_matches_sampled_errors_1d_order_19(self, gauss1):
        # the closed form cancels 1 - 2 m.d + m.H m; near the center that
        # leaves an absolute floor of about sqrt(eps) on the error
        emb = DiscreteEmbedding(gauss1, [-6.5], [16.0], 256)
        taylor = TaylorApproximation.build(emb, 4.75, 19)
        thetas = np.linspace(0.0, 9.5, 77)
        ref = sampled_taylor_errors(emb, 4.75, 19, thetas)
        assert np.max(ref) > 1e3  # far from the center the expansion diverges
        assert np.max(np.abs(taylor.errors(thetas) - ref)) < 1e-6

    def test_errors_raise_for_truncated_point(self, emb1):
        taylor = TaylorApproximation.build(emb1, 0.0, 2)
        with pytest.raises(TruncationError, match=r"theta=\[7\.9\]"):
            taylor.errors([0.0, 1.0, 7.9, 8.5])
        with pytest.raises(TruncationError):
            taylor_error(taylor, 7.9)

    def test_errors_sample_no_atoms(self, emb2, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("sampled an atom")

        monkeypatch.setattr(DiscreteEmbedding, "atom", fail)
        monkeypatch.setattr(DiscreteEmbedding, "atoms", fail)
        taylor = TaylorApproximation.build(emb2, [0.0, 0.0], 2)
        assert taylor.errors(np.array([[0.1, 0.2], [0.5, -0.5]])).shape == (2,)
