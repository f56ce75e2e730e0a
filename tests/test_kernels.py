import numpy as np
import pytest

import tidict.kernels
from oracles import truncation_deficit_loop
from tidict import (
    DiscreteEmbedding,
    DomainError,
    GaussianIsotropicKernel,
    ParamBox,
    TruncationError,
)
from tidict.kernels import as_param_array


class TestParamBox:
    def test_basic_geometry(self):
        box = ParamBox([0.0, -1.0], [2.0, 3.0])
        assert box.dim == 2
        assert np.allclose(box.center, [1.0, 1.0])
        assert box.contains([1.0, 0.0])
        assert not box.contains([3.0, 0.0])

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
        assert np.all(box.contains(pts))

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


class TestDiscreteEmbedding:
    def test_atom_unit_norm(self, gauss1):
        emb = DiscreteEmbedding(gauss1, [-8.0], [8.0], 256)
        for theta in (-1.0, 0.0, 0.37, 1.5):
            assert np.linalg.norm(emb.atom(theta)) == pytest.approx(1.0, abs=1e-12)

    def test_inner_products_match_kernel(self, gauss1):
        emb = DiscreteEmbedding(gauss1, [-8.0], [8.0], 256)
        for d in (0.25, 0.5, 1.0, 2.0):
            assert emb.inner(0.0, d) == pytest.approx(gauss1.eval(d), abs=1e-10)

    def test_inner_products_match_kernel_2d(self, gauss2):
        emb = DiscreteEmbedding(gauss2, [-6.0, -6.0], [8.0, 8.0], 128)
        got = emb.inner([0.3, 1.1], [1.0, 0.2])
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
                max(abs(emb.inner(0.0, d) - k.eval(d)) for d in shifts)
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
        assert emb.truncation_deficit(0.0) < 1e-12
        assert emb.truncation_deficit(7.9) > 1e-3

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
            single = np.array([emb.truncation_deficit(t) for t in thetas])
            assert np.any(ref > emb.truncation_tol) and np.any(ref == 0.0)
            assert np.max(np.abs(batch - ref)) <= 1e-15
            assert np.array_equal(batch, single)

    def test_atoms_batch_matches_single(self, gauss2):
        emb = DiscreteEmbedding(gauss2, [-5.0, -5.0], [7.0, 7.0], 64)
        thetas = np.array([[0.0, 0.0], [1.0, 2.0]])
        batch = emb.atoms(thetas)
        assert batch.shape == (2, emb.size)
        assert np.array_equal(batch[0], emb.atom(thetas[0]))
        assert np.array_equal(batch[1], emb.atom(thetas[1]))

    def test_window_validation(self, gauss1, gauss2):
        with pytest.raises(DomainError):
            DiscreteEmbedding(gauss1, [2.0], [-2.0], 64)
        with pytest.raises(DomainError):
            DiscreteEmbedding(gauss2, [-2.0], [2.0], 64)  # dim mismatch
        with pytest.raises(DomainError):
            DiscreteEmbedding(gauss1, [-2.0], [2.0], 1)
