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

Instances are immutable.  Construction canonicalizes the sign of each
frequency vector (first nonzero component made positive), prunes terms with
negligible weight, and sorts terms by frequency so that equal kernels have
identical serialized forms.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError
from .kernels import as_param_array

__all__ = ["RaisedCosineKernel", "ValidationReport"]

WEIGHT_PRUNE_TOL = 1e-12
FREQ_DISTINCT_TOL = 1e-8


def _canonical_rows(freqs: np.ndarray) -> np.ndarray:
    """Flip frequency rows so the first nonzero component is positive."""
    out = freqs.copy()
    for i, row in enumerate(out):
        nz = np.nonzero(row)[0]
        if nz.size and row[nz[0]] < 0:
            out[i] = -row
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
        keep = np.abs(w) >= WEIGHT_PRUNE_TOL
        if not np.all(keep):
            warnings.warn(
                f"pruned {int(np.sum(~keep))} raised-cosine term(s) with |weight| "
                f"< {WEIGHT_PRUNE_TOL:g}",
                stacklevel=2,
            )
            w, f = w[keep], f[keep]
        f = _canonical_rows(f)
        order = np.lexsort(f.T[::-1]) if f.shape[0] else np.array([], dtype=int)
        w, f = w[order], f[order]
        w.setflags(write=False)
        f.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "lambda0", float(self.lambda0))
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "freqs", f)
        object.__setattr__(self, "rank", int(self.rank))

    @property
    def num_terms(self) -> int:
        return self.weights.shape[0]

    def eval(self, delta):
        """Kernel value at one displacement or a stack of displacements."""
        deltas, single = as_param_array(delta, self.dim, name="delta")
        vals = self.lambda0 + np.cos(deltas @ self.freqs.T) @ self.weights
        return float(vals[0]) if single else vals

    __call__ = eval

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
        cols = []
        if self.lambda0 > 0.0:
            cols.append(np.full((pts.shape[0], 1), np.sqrt(self.lambda0)))
        root = np.sqrt(self.weights)
        cols.append(root * np.cos(phases))
        cols.append(root * np.sin(phases))
        out = np.concatenate(cols, axis=1)
        # interleave cos/sin per term after the optional constant column
        head = 1 if self.lambda0 > 0.0 else 0
        k = self.num_terms
        idx = np.empty(2 * k, dtype=int)
        idx[0::2] = head + np.arange(k)
        idx[1::2] = head + k + np.arange(k)
        out = out[:, np.concatenate([np.arange(head), idx])]
        return out[0] if single else out

    def feature_dim(self) -> int:
        return 2 * self.num_terms + (1 if self.lambda0 > 0.0 else 0)

    def validate(
        self,
        weight_tol: float = WEIGHT_PRUNE_TOL,
        freq_tol: float = FREQ_DISTINCT_TOL,
    ) -> ValidationReport:
        """Check the structural invariants tying the kernel to its rank.

        Verifies the term count ``K = floor(rank / 2)``, the parity rule for
        the constant weight, strict positivity of all weights, and pairwise
        distinctness of the frequencies up to sign.
        """
        issues = []
        k_expected = self.rank // 2
        if self.num_terms != k_expected:
            issues.append(
                f"term count {self.num_terms} != floor(rank/2) = {k_expected}"
            )
        if self.rank % 2 == 0:
            if abs(self.lambda0) > weight_tol:
                issues.append(
                    f"even rank {self.rank} requires lambda0 = 0, got {self.lambda0:.3e}"
                )
        else:
            if not self.lambda0 > weight_tol:
                issues.append(
                    f"odd rank {self.rank} requires lambda0 > 0, got {self.lambda0:.3e}"
                )
        if np.any(self.weights <= 0.0):
            bad = self.weights[self.weights <= 0.0]
            issues.append(f"nonpositive weights {bad.tolist()}")
        for i in range(self.num_terms - 1):
            rest = self.freqs[i + 1 :]
            d = np.minimum(
                np.linalg.norm(rest - self.freqs[i], axis=1),
                np.linalg.norm(rest + self.freqs[i], axis=1),
            )
            for j in np.flatnonzero(d < freq_tol):
                issues.append(
                    f"frequencies {i} and {i + 1 + j} coincide up to sign "
                    f"(distance {d[j]:.3e})"
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
    def from_dict(cls, data: dict, dim: int | None = None) -> "RaisedCosineKernel":
        """Inverse of :meth:`to_dict`.

        ``dim`` may be omitted whenever at least one cosine term is present,
        in which case it is inferred from the first frequency vector.
        """
        try:
            lambda0 = float(data["lambda0"])
            terms = data["terms"]
            rank = int(data["rank"])
            weights = np.array([float(t["lambda"]) for t in terms])
            freqs = np.array([[float(c) for c in t["w"]] for t in terms])
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed raised-cosine kernel data: {exc!r}") from exc
        if dim is None:
            if freqs.size == 0:
                raise DomainError("dim is required for a kernel with no cosine terms")
            dim = freqs.shape[1]
        return cls(dim=dim, lambda0=lambda0, weights=weights, freqs=freqs, rank=rank)

    def to_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def from_json(cls, path, dim: int | None = None) -> "RaisedCosineKernel":
        """Load a kernel written by :meth:`to_json`; a file that cannot be
        read, is not UTF-8 JSON or is malformed raises :class:`DomainError`."""
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise DomainError(f"cannot read kernel file {path}: {exc.strerror}") from exc
        except ValueError as exc:  # also JSONDecodeError and UnicodeDecodeError
            raise DomainError(f"kernel file {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data, dim=dim)
