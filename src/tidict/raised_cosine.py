"""Finite-rank raised-cosine kernels and their positivity certificate.

A raised-cosine kernel is a finite, even trigonometric sum

    rc(delta) = lambda0 + sum_k lambda_k * cos(w_k . delta)

with nonnegative weights.  Such a kernel is positive semidefinite by
construction: it is the inner-product kernel of the explicit feature map
that stacks ``sqrt(lambda0)`` with ``sqrt(lambda_k) cos(w_k . theta)`` and
``sqrt(lambda_k) sin(w_k . theta)`` for every term.  The feature dimension
is ``2K`` when the constant term vanishes and ``2K + 1`` otherwise, which
ties the number of cosine terms to the target rank ``L``:

    K = floor(L / 2),   lambda0 = 0  iff  L is even.

Instances are immutable.  Construction rejects non-finite values,
canonicalizes the sign of each frequency vector (first nonzero component
made positive), and sorts terms by frequency so that equal kernels have
identical serialized forms.  It keeps every term, however small its weight:
the Kronecker expansion of a multi-axis grid has products of axis weights
far below any fixed cutoff, and dropping one would break the rank rule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, finite_number
from .kernels import as_param_array

__all__ = ["RaisedCosineKernel", "ValidationReport"]

# largest |lambda0| of an even rank
WEIGHT_TOL = 1e-12
FREQ_DISTINCT_TOL = 1e-8


def leading_entries(freqs: np.ndarray) -> np.ndarray:
    """Each row's first nonzero entry, 0 for an all-zero row.

    The sign rule of frequency vectors: a row is canonical when this is positive.
    """
    return freqs[np.arange(freqs.shape[0]), np.argmax(freqs != 0.0, axis=1)]


def _number(value) -> float:
    """A JSON number of a kernel file as a float; ``true`` and ``"1.5"`` are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _numbers(value) -> list:
    """A JSON list of numbers as floats; a string is not a list of its characters."""
    if not isinstance(value, list):
        raise TypeError(f"{value!r} is not a list")
    return [_number(c) for c in value]


def _canonical_rows(freqs: np.ndarray) -> np.ndarray:
    """Flip frequency rows so the first nonzero component is positive."""
    out = np.where(leading_entries(freqs)[:, None] < 0.0, -freqs, freqs)
    # normalize away negative zeros for stable serialization
    return out + 0.0


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the structural checks on a raised-cosine kernel."""

    ok: bool
    issues: tuple

    def __str__(self) -> str:
        if self.ok:
            return "valid raised-cosine kernel"
        return "; ".join(self.issues)


@dataclass(frozen=True, eq=False)
class RaisedCosineKernel:
    """Even trigonometric kernel ``lambda0 + sum_k weights[k] cos(freqs[k] . delta)``.

    Parameters
    ----------
    dim : int
        Parameter dimension; every frequency vector has this length.
    lambda0 : float
        Constant (zero-frequency) weight.
    weights : array_like, shape (K,)
        Cosine weights.
    freqs : array_like, shape (K, dim)
        Frequency vectors, one per term.
    rank : int
        Rank the kernel certifies, i.e. the length of :meth:`feature_map`
        when the structural invariants hold.
    """

    dim: int
    lambda0: float
    weights: np.ndarray
    freqs: np.ndarray
    rank: int

    def __post_init__(self) -> None:
        dim = int(self.dim)
        if dim < 1:
            raise DomainError("dim must be >= 1")
        lam = float(self.lambda0)
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        f = np.asarray(self.freqs, dtype=float)
        if f.size == 0:
            f = f.reshape(0, dim)
        if f.ndim == 1:
            f = f.reshape(-1, 1)
        if f.ndim != 2 or f.shape[1] != dim:
            raise DomainError(f"freqs must have shape (K, {dim}), got {f.shape}")
        if w.shape[0] != f.shape[0]:
            raise DomainError(
                f"got {w.shape[0]} weights for {f.shape[0]} frequency vectors"
            )
        if not (np.isfinite(lam) and np.isfinite(w).all() and np.isfinite(f).all()):
            raise DomainError("raised-cosine lambda0, weights and frequencies must be finite")
        f = _canonical_rows(f)
        order = np.lexsort(f.T[::-1]) if f.shape[0] else np.array([], dtype=int)
        w, f = w[order], f[order]
        w.setflags(write=False)
        f.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "lambda0", lam)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "freqs", f)
        object.__setattr__(self, "rank", int(self.rank))

    @property
    def num_terms(self) -> int:
        return self.weights.shape[0]

    def eval(self, delta):
        """Kernel value at one displacement or a stack of displacements."""
        deltas, single = as_param_array(delta, self.dim, name="delta")
        vals = self.values(deltas)
        return float(vals[0]) if single else vals

    def values(self, deltas: np.ndarray) -> np.ndarray:
        """:meth:`eval` at the rows of an ``(n, dim)`` float array, unchecked: one cosine per term and row."""
        return self.lambda0 + np.cos(deltas @ self.freqs.T) @ self.weights

    def cross(self, x, y, out: np.ndarray | None = None, scratch=None) -> np.ndarray:
        """Kernel matrix ``rc(x_i - y_j)`` between two point stacks, shape ``(n, m)``.

        Each term splits as ``cos(w.x) cos(w.y) + sin(w.x) sin(w.y)``, so the
        cost is ``(n + m) K`` trigonometric evaluations, not ``n m K``.  Unlike
        :meth:`feature_map` it takes no square roots, so any weight sign works.
        The phases are taken of ``x - y_0`` and ``y - y_0``, which leaves
        every ``x_i - y_j`` as it is and keeps the phases small when the
        stacks lie far from 0.

        ``out``, an ``(n, m)`` float array, receives the result.  ``scratch``
        is ``(phase, trig, terms)``, two ``(n, K)`` arrays and one ``(n, m)``
        array that are overwritten.  With both given, the one allocation of
        size ``n`` is the shifted ``(n, dim)`` points.  The bits are the same
        either way.
        """
        xs, _ = as_param_array(x, self.dim)
        ys, _ = as_param_array(y, self.dim)
        if ys.shape[0]:
            xs, ys = xs - ys[0], ys - ys[0]
        phase, trig, terms = (None, None, None) if scratch is None else scratch
        py, w = ys @ self.freqs.T, self.weights
        px = np.matmul(xs, self.freqs.T, out=phase)
        table = np.cos(px, out=trig)
        table *= w
        # (lambda0 + cos-terms) + sin-terms: the sums of the one-expression form, so its bits
        out = np.matmul(table, np.cos(py).T, out=out)
        out += self.lambda0
        table = np.sin(px, out=px)
        table *= w
        out += np.matmul(table, np.sin(py).T, out=terms)
        return out

    def feature_map(self, theta) -> np.ndarray:
        """Explicit finite-dimensional features whose inner products equal the kernel.

        Returns shape ``(m,)`` for a single parameter and ``(n, m)`` for a
        stack, where ``m = 2K + 1`` if ``lambda0 > 0`` else ``2K``.  Requires
        nonnegative weights (the certificate does not exist otherwise).
        """
        if self.lambda0 < 0.0 or np.any(self.weights < 0.0):
            raise DomainError("feature map requires nonnegative weights")
        pts, single = as_param_array(theta, self.dim)
        phases = pts @ self.freqs.T
        root = np.sqrt(self.weights)
        # cos/sin interleaved per term, after the optional constant column
        out = np.stack([root * np.cos(phases), root * np.sin(phases)], axis=-1)
        out = out.reshape(pts.shape[0], 2 * self.num_terms)
        if self.lambda0 > 0.0:
            head = np.full((pts.shape[0], 1), np.sqrt(self.lambda0))
            out = np.concatenate([head, out], axis=1)
        return out[0] if single else out

    def validate(self) -> ValidationReport:
        """Check the structural invariants tying the kernel to its rank.

        Verifies the term count ``K = floor(rank / 2)``, the parity rule for
        the constant weight, strict positivity of all weights, and pairwise
        distinctness of the frequencies up to sign, to ``FREQ_DISTINCT_TOL``
        times the largest frequency component, so in any units of ``delta``.
        """
        issues = []
        k_expected = self.rank // 2
        if self.num_terms != k_expected:
            issues.append(
                f"term count {self.num_terms} != floor(rank/2) = {k_expected}"
            )
        if self.rank % 2 == 0:
            if abs(self.lambda0) > WEIGHT_TOL:
                issues.append(
                    f"even rank {self.rank} requires lambda0 = 0, got {self.lambda0:.3e}"
                )
        else:
            # a product of odd axes has lambda0 = prod lambda0_a, which may be tiny
            if not self.lambda0 > 0.0:
                issues.append(
                    f"odd rank {self.rank} requires lambda0 > 0, got {self.lambda0:.3e}"
                )
        if np.any(self.weights <= 0.0):
            bad = self.weights[self.weights <= 0.0]
            issues.append(f"nonpositive weights {bad.tolist()}")
        # in units of the largest component, so that no square under- or overflows
        scale = np.max(np.abs(self.freqs), initial=0.0) or 1.0
        freqs = self.freqs / scale
        for i in range(self.num_terms - 1):
            rest = freqs[i + 1 :]
            d = np.minimum(
                np.linalg.norm(rest - freqs[i], axis=1),
                np.linalg.norm(rest + freqs[i], axis=1),
            )
            for j in np.flatnonzero(d < FREQ_DISTINCT_TOL):
                issues.append(
                    f"frequencies {i} and {i + 1 + j} coincide up to sign "
                    f"(distance {d[j] * scale:.3e})"
                )
        return ValidationReport(ok=not issues, issues=tuple(issues))

    # ------------------------------------------------------------------
    # serialization

    def to_dict(self) -> dict:
        """Wire-format dictionary: constant weight, cosine terms, rank."""
        return {
            "lambda0": self.lambda0,
            "terms": [
                {"lambda": float(w), "w": [float(c) for c in row]}
                for w, row in zip(self.weights, self.freqs)
            ],
            "rank": self.rank,
        }

    @classmethod
    def from_dict(cls, data: dict, dim: int) -> "RaisedCosineKernel":
        """Inverse of :meth:`to_dict`, for a kernel of dimension ``dim``.

        ``lambda0``, every ``lambda`` and every entry of each ``w`` list must
        be numbers, and ``rank`` a whole number; a boolean, a string or a
        fraction raises :class:`DomainError`, as does a ``w`` list whose
        length is not ``dim``.
        """
        try:
            lambda0 = _number(data["lambda0"])
            terms = data["terms"]
            rank = int(data["rank"])
            if rank != _number(data["rank"]):
                raise ValueError(f"rank {data['rank']!r} is not a whole number")
            weights = np.array([_number(t["lambda"]) for t in terms])
            freqs = np.array([_numbers(t["w"]) for t in terms])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"malformed raised-cosine kernel data: {exc!r}") from exc
        return cls(dim=dim, lambda0=lambda0, weights=weights, freqs=freqs, rank=rank)

    def to_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def from_json(cls, path, dim: int) -> "RaisedCosineKernel":
        """Load a kernel written by :meth:`to_json`; a file that cannot be
        read, is not UTF-8 JSON, holds a non-finite number or is malformed
        raises :class:`DomainError`."""
        try:
            text = Path(path).read_text(encoding="utf-8")
            data = json.loads(text, parse_float=finite_number, parse_constant=finite_number)
        except OSError as exc:
            raise DomainError(f"cannot read kernel file {path}: {exc.strerror}") from exc
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, non-finite
            raise DomainError(f"kernel file {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data, dim=dim)
