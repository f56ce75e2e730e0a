"""Truncated Taylor expansion of the Gaussian atom family, as a baseline.

The classical low-rank surrogate expands the atom map around a fixed
center: the atom at ``theta`` is approximated by the span of all partial
derivatives of order up to ``p`` evaluated at the center,

    a(theta)  ~  sum_{|alpha| <= p} (theta - theta0)^alpha / alpha! *
                 (d^alpha a)(theta0),

giving rank ``L = binomial(p + d, d)``.  Derivatives of Gaussian atoms
have closed forms through Hermite polynomials, so the basis is sampled
exactly on the embedding lattice (and deliberately *not* renormalized:
the expansion approximates the atom map itself).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TruncationError
from .kernels import DiscreteEmbedding, as_param_array

__all__ = ["multi_indices", "TaylorApproximation"]


def multi_indices(dim: int, order: int) -> list[tuple[int, ...]]:
    """All derivative multi-indices with ``|alpha| <= order``.

    Ordered by total degree, then lexicographically, so the list starts
    with the zero index and its length is ``binomial(order + dim, dim)``.
    """
    if dim < 1 or order < 0:
        raise DomainError("need dim >= 1 and order >= 0")
    out: list[tuple[int, ...]] = []
    for total in range(order + 1):

        def rec(prefix: tuple[int, ...], remaining: int, axes_left: int):
            if axes_left == 1:
                out.append(prefix + (remaining,))
                return
            for v in range(remaining, -1, -1):
                rec(prefix + (v,), remaining - v, axes_left - 1)

        rec((), total, dim)
    return out


def _axis_derivatives(
    embedding: DiscreteEmbedding, axis: int, center: float, max_order: int
) -> np.ndarray:
    """Samples of d^n/d theta^n of the normalized 1-D Gaussian factor.

    With ``x = (t - center) / (sigma sqrt(2))``, the n-th derivative with
    respect to the center is
    ``(pi sigma^2)^(-1/4) (sigma sqrt(2))^(-n) H_n(x) exp(-x^2)`` where
    ``H_n`` is the physicists' Hermite polynomial, built with the
    recurrence ``H_{n+1} = 2x H_n - 2n H_{n-1}``; rows are orders
    ``0 .. max_order`` over the axis lattice.
    """
    sigma = embedding.kernel.sigma
    t = embedding.axes[axis]
    x = (t - center) / (sigma * math.sqrt(2.0))
    base = (math.pi * sigma**2) ** -0.25 * np.exp(-((t - center) ** 2) / (2.0 * sigma**2))
    rows = np.empty((max_order + 1, t.shape[0]))
    h_prev, h = np.zeros_like(x), np.ones_like(x)
    for n in range(max_order + 1):
        rows[n] = (sigma * math.sqrt(2.0)) ** (-n) * h * base
        h_prev, h = h, 2.0 * x * h - 2.0 * n * h_prev
    return rows


@dataclass(frozen=True, eq=False)
class TaylorApproximation:
    """Fixed-center polynomial surrogate of the atom map.

    Built by :meth:`build`; ``basis`` holds the sampled derivative atoms
    (rows, one per multi-index, already scaled by the lattice cell volume)
    and :meth:`atom` combines them with the Taylor monomials.
    """

    embedding: DiscreteEmbedding
    center: np.ndarray
    order: int
    alphas: tuple
    basis: np.ndarray

    @classmethod
    def build(
        cls, embedding: DiscreteEmbedding, center, order: int
    ) -> "TaylorApproximation":
        """Sample all derivative atoms up to ``order`` at ``center``.

        Raises :class:`TruncationError` when the atom at the center loses
        more than the embedding's tolerated norm fraction to the window.
        """
        c, single = as_param_array(center, embedding.dim, name="center")
        if not single and c.shape[0] != 1:
            raise DomainError("center must be a single parameter vector")
        center_vec = c[0]
        order = int(order)
        if order < 0:
            raise DomainError("order must be >= 0")
        deficit = embedding.truncation_deficit(center_vec)
        if deficit > embedding.truncation_tol:
            raise TruncationError(
                f"expansion center {center_vec.tolist()} loses {deficit:.3e} of its "
                f"norm outside the window (tolerance {embedding.truncation_tol:g})"
            )
        per_axis = [
            _axis_derivatives(embedding, a, center_vec[a], order)
            for a in range(embedding.dim)
        ]
        alphas = multi_indices(embedding.dim, order)
        scale = math.sqrt(embedding.cell_volume)
        basis = np.empty((len(alphas), embedding.size))
        for i, alpha in enumerate(alphas):
            vec = per_axis[0][alpha[0]]
            for a in range(1, embedding.dim):
                vec = np.multiply.outer(vec, per_axis[a][alpha[a]])
            basis[i] = vec.ravel() * scale
        return cls(
            embedding=embedding,
            center=center_vec,
            order=order,
            alphas=tuple(alphas),
            basis=basis,
        )

    @property
    def rank(self) -> int:
        return len(self.alphas)

    @property
    def dim(self) -> int:
        return self.embedding.dim

    def monomials(self, theta) -> np.ndarray:
        """Taylor monomials ``(theta - center)^alpha / alpha!`` for every index."""
        pts, single = as_param_array(theta, self.dim)
        shift = pts - self.center
        out = np.empty((pts.shape[0], self.rank))
        for i, alpha in enumerate(self.alphas):
            col = np.ones(pts.shape[0])
            for a, n in enumerate(alpha):
                if n:
                    col = col * shift[:, a] ** n / math.factorial(n)
            out[:, i] = col
        return out[0] if single else out

    def atom(self, theta) -> np.ndarray:
        """Surrogate atom sample vector at ``theta`` (not renormalized)."""
        pts, single = as_param_array(theta, self.dim)
        vecs = self.monomials(pts) @ self.basis
        return vecs[0] if single else vecs

    def error(self, theta) -> float:
        """Euclidean distance between the exact sampled atom and the surrogate."""
        return float(
            np.linalg.norm(self.embedding.atom(theta) - np.asarray(self.atom(theta)))
        )

    def errors(self, thetas: np.ndarray, chunk: int = 256) -> np.ndarray:
        """Vector of :meth:`error` values over a stack, computed in chunks."""
        pts, _ = as_param_array(thetas, self.dim)
        out = np.empty(pts.shape[0])
        for start in range(0, pts.shape[0], chunk):
            block = pts[start : start + chunk]
            exact = self.embedding.atoms(block)
            approx = self.monomials(block) @ self.basis
            out[start : start + block.shape[0]] = np.linalg.norm(
                exact - approx, axis=1
            )
        return out
