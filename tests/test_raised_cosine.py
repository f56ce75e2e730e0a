import json

import numpy as np
import pytest

from oracles import feature_dim
from tidict import (
    DomainError,
    GaussianIsotropicKernel,
    NodeGrid,
    RaisedCosineKernel,
    decompose_grid,
)


def make_odd():
    return RaisedCosineKernel(
        dim=1,
        lambda0=0.4,
        weights=[0.35, 0.25],
        freqs=[[0.8], [2.1]],
        rank=5,
    )


def make_even_2d():
    return RaisedCosineKernel(
        dim=2,
        lambda0=0.0,
        weights=[0.5, 0.3, 0.2],
        freqs=[[0.7, 0.0], [0.7, 1.1], [0.7, -1.1]],
        rank=6,
    )


class TestConstruction:
    def test_eval_matches_manual_sum(self, rng):
        rc = make_even_2d()
        for _ in range(50):
            d = rng.normal(size=2)
            manual = sum(
                w * np.cos(f @ d) for w, f in zip(rc.weights, rc.freqs)
            )
            assert rc.eval(d) == pytest.approx(manual, abs=1e-14)

    def test_value_at_zero_is_total_weight(self):
        rc = make_odd()
        assert rc.eval(0.0) == pytest.approx(0.4 + 0.35 + 0.25, abs=1e-15)

    def test_sign_canonicalization(self):
        rc = RaisedCosineKernel(
            dim=2,
            lambda0=0.0,
            weights=[0.5, 0.5],
            freqs=[[-0.7, 1.1], [0.0, -2.0]],
            rank=4,
        )
        # first nonzero component of every stored row is positive
        assert np.all(rc.freqs[:, 0] >= 0.0)
        assert rc.freqs[0].tolist() == [0.0, 2.0]
        assert rc.freqs[1].tolist() == [0.7, -1.1]

    def test_terms_sorted_by_frequency(self):
        rc = RaisedCosineKernel(
            dim=1, lambda0=0.1, weights=[0.2, 0.7], freqs=[[2.5], [0.3]], rank=5
        )
        assert rc.freqs.ravel().tolist() == [0.3, 2.5]
        assert rc.weights.tolist() == [0.7, 0.2]

    def test_tiny_positive_weights_are_kept(self):
        # a product of odd axes may have a constant weight far below 1e-12
        rc = RaisedCosineKernel(
            dim=1,
            lambda0=1e-20,
            weights=[0.9, 1e-15],
            freqs=[[1.0], [2.0]],
            rank=5,
        )
        assert rc.num_terms == 2 and rc.weights.tolist() == [0.9, 1e-15]
        assert rc.validate().ok

    @pytest.mark.parametrize(
        "lambda0, weights, freqs",
        [
            (float("nan"), [0.5], [[1.0]]),
            (0.0, [float("nan")], [[1.0]]),
            (0.0, [0.5], [[float("inf")]]),
        ],
        ids=["nan-lambda0", "nan-weight", "inf-freq"],
    )
    def test_non_finite_values_rejected(self, lambda0, weights, freqs):
        with pytest.raises(DomainError, match="finite"):
            RaisedCosineKernel(dim=1, lambda0=lambda0, weights=weights, freqs=freqs, rank=2)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DomainError):
            RaisedCosineKernel(
                dim=2, lambda0=0.0, weights=[0.5], freqs=[[1.0]], rank=2
            )
        with pytest.raises(DomainError):
            RaisedCosineKernel(
                dim=1, lambda0=0.0, weights=[0.5, 0.5], freqs=[[1.0]], rank=4
            )

    def test_immutable(self):
        rc = make_odd()
        with pytest.raises(ValueError):
            rc.weights[0] = 2.0


def make_3d_separable():
    kernel = GaussianIsotropicKernel(sigma=1.0, dim=3)
    return decompose_grid(kernel, NodeGrid([0.0, 0.0, 0.0], [1.0, 0.8, 1.2], [2, 2, 3]))


def make_constant():
    return RaisedCosineKernel(dim=1, lambda0=0.8, weights=[], freqs=[], rank=1)


def make_negative():
    return RaisedCosineKernel(
        dim=2, lambda0=-0.2, weights=[0.6, -0.1], freqs=[[1.0, 0.3], [2.0, -0.5]], rank=4
    )


class TestCross:
    @pytest.mark.parametrize(
        "make",
        [make_odd, make_even_2d, make_3d_separable, make_constant, make_negative],
        ids=["odd-1d", "even-2d", "separable-3d", "zero-terms", "negative-weight"],
    )
    def test_cross_matches_eval(self, make, rng):
        rc = make()
        x = rng.uniform(-3.0, 3.0, size=(13, rc.dim))
        y = rng.uniform(-3.0, 3.0, size=(9, rc.dim))
        want = rc.eval((x[:, None, :] - y[None, :, :]).reshape(-1, rc.dim)).reshape(13, 9)
        got = rc.cross(x, y)
        assert got.shape == (13, 9)
        assert np.max(np.abs(got - want)) < 1e-13


class TestFeatureMap:
    def test_dimension_follows_parity(self):
        assert feature_dim(make_odd()) == 5
        assert feature_dim(make_even_2d()) == 6
        assert make_odd().feature_map(0.3).shape == (5,)
        assert make_even_2d().feature_map([0.3, 0.1]).shape == (6,)

    def test_inner_products_reproduce_kernel(self, rng):
        # positive semidefiniteness certificate: finite feature vectors
        # whose inner products equal kernel evaluations
        for rc in (make_odd(), make_even_2d()):
            a = rng.normal(size=(100, rc.dim))
            b = rng.normal(size=(100, rc.dim))
            fa, fb = rc.feature_map(a), rc.feature_map(b)
            assert fa.shape == (100, feature_dim(rc))
            got = np.sum(fa * fb, axis=1)
            assert np.max(np.abs(got - rc.eval(a - b))) < 1e-12

    def test_columns_interleave_cos_sin_per_term(self, rng):
        for rc in (make_odd(), make_even_2d()):
            theta = rng.normal(size=(7, rc.dim))
            phases = theta @ rc.freqs.T
            cols = [np.full(7, np.sqrt(rc.lambda0))] if rc.lambda0 > 0.0 else []
            for k, w in enumerate(rc.weights):
                cols += [np.sqrt(w) * np.cos(phases[:, k]), np.sqrt(w) * np.sin(phases[:, k])]
            assert np.array_equal(rc.feature_map(theta), np.column_stack(cols))

    def test_feature_norm_is_kernel_at_zero(self, rng):
        rc = make_odd()
        theta = rng.normal(size=(30, 1))
        norms = np.sum(rc.feature_map(theta) ** 2, axis=1)
        assert np.max(np.abs(norms - rc.eval(0.0))) < 1e-12

    def test_gram_psd(self, rng):
        rc = make_even_2d()
        pts = rng.uniform(-2, 2, size=(40, 2))
        delta = (pts[:, None, :] - pts[None, :, :]).reshape(-1, 2)
        gram = rc.eval(delta).reshape(40, 40)
        assert np.linalg.eigvalsh(gram)[0] > -1e-10

    def test_negative_weight_has_no_certificate(self):
        rc = RaisedCosineKernel(
            dim=1, lambda0=0.0, weights=[-0.5], freqs=[[1.0]], rank=2
        )
        with pytest.raises(DomainError):
            rc.feature_map(0.0)


class TestValidate:
    def test_valid_kernels_pass(self):
        assert make_odd().validate().ok
        assert make_even_2d().validate().ok

    def test_term_count_mismatch(self):
        rc = RaisedCosineKernel(
            dim=1, lambda0=0.0, weights=[0.5], freqs=[[1.0]], rank=4
        )
        report = rc.validate()
        assert not report.ok
        assert any("floor(rank/2)" in issue for issue in report.issues)

    def test_even_rank_with_constant_term(self):
        rc = RaisedCosineKernel(
            dim=1, lambda0=0.3, weights=[0.7], freqs=[[1.0]], rank=2
        )
        assert not rc.validate().ok

    def test_odd_rank_without_constant_term(self):
        rc = RaisedCosineKernel(
            dim=1, lambda0=0.0, weights=[0.5], freqs=[[1.0]], rank=3
        )
        assert not rc.validate().ok

    def test_negative_weight_flagged(self):
        rc = RaisedCosineKernel(
            dim=1, lambda0=0.0, weights=[0.6, -0.1], freqs=[[1.0], [2.0]], rank=4
        )
        report = rc.validate()
        assert not report.ok
        assert any("nonpositive" in issue for issue in report.issues)

    def test_sign_duplicate_frequencies_flagged(self):
        rc = RaisedCosineKernel(
            dim=2,
            lambda0=0.0,
            weights=[0.5, 0.5],
            freqs=[[0.7, 1.1], [-0.7, -1.1]],
            rank=4,
        )
        report = rc.validate()
        assert not report.ok
        assert any("coincide" in issue for issue in report.issues)

    def test_every_coincident_pair_reported_in_order(self):
        freqs = np.array([[0.7, 1.1], [0.3, 0.2], [-0.3, -0.2], [0.3, 0.2 + 1e-9]])
        rc = RaisedCosineKernel(
            dim=2, lambda0=0.0, weights=np.full(4, 0.25), freqs=freqs, rank=8
        )
        # pairwise loop over the canonicalized, sorted terms as the reference
        f = rc.freqs
        want = []
        for i in range(4):
            for j in range(i + 1, 4):
                d = min(np.linalg.norm(f[i] - f[j]), np.linalg.norm(f[i] + f[j]))
                if d < 1e-8:
                    want.append(f"frequencies {i} and {j} coincide up to sign")
        got = [issue.split(" (")[0] for issue in rc.validate().issues]
        assert len(want) == 3
        assert got == want


class TestSerialization:
    def test_round_trip_exact(self):
        for rc in (make_odd(), make_even_2d()):
            back = RaisedCosineKernel.from_dict(rc.to_dict())
            assert back.dim == rc.dim
            assert back.rank == rc.rank
            assert back.lambda0 == rc.lambda0
            assert np.array_equal(back.weights, rc.weights)
            assert np.array_equal(back.freqs, rc.freqs)

    def test_wire_format_keys(self):
        data = make_odd().to_dict()
        assert set(data) == {"lambda0", "terms", "rank"}
        assert set(data["terms"][0]) == {"lambda", "w"}

    def test_json_file_round_trip(self, tmp_path):
        rc = make_even_2d()
        path = tmp_path / "kernel.json"
        rc.to_json(path)
        back = RaisedCosineKernel.from_json(path)
        assert np.array_equal(back.freqs, rc.freqs)
        # file is valid standalone JSON with a trailing newline
        text = path.read_text()
        assert text.endswith("\n")
        json.loads(text)

    def test_constant_kernel_needs_explicit_dim(self):
        data = {"lambda0": 1.0, "terms": [], "rank": 1}
        with pytest.raises(DomainError):
            RaisedCosineKernel.from_dict(data)
        rc = RaisedCosineKernel.from_dict(data, dim=3)
        assert rc.dim == 3 and rc.num_terms == 0

    def test_malformed_data_rejected(self):
        with pytest.raises(DomainError):
            RaisedCosineKernel.from_dict({"terms": []})
