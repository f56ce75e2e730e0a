"""Truncated Taylor expansion of the Gaussian atom family, as a baseline.

The classical low-rank surrogate expands the atom map around a fixed
center: the atom at ``theta`` is approximated by the span of all partial
derivatives of order up to ``p`` evaluated at the center,

    a(theta)  ~  sum_{|alpha| <= p} (theta - theta0)^alpha / alpha! *
                 (d^alpha a)(theta0),

giving rank ``L = binomial(p + d, d)``.  The expansion is deliberately *not*
renormalized: it approximates the atom map itself.  Its error needs no
sampled atoms.  With ``m`` the vector of Taylor monomials,

    ||a(theta) - a~(theta)||^2  =  1 - 2 m^T d + m^T H m,

where ``d_alpha = <a(theta), d^alpha a(theta0)> = d^alpha_{theta0}
kappa(theta - theta0)`` and ``H_{alpha beta} = (-1)^|beta|
kappa^(alpha + beta)(0)`` is the Gram matrix of the derivative atoms.  For
the Gaussian kernel both factor over the axes through the physicists'
Hermite polynomials: with ``delta = theta - theta0``,
``d^n_{theta0} kappa_1(delta) = (2 sigma)^-n H_n(delta / 2 sigma)
kappa_1(delta)``, so evaluating the error costs O(L^2) per point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TruncationError
from .kernels import DiscreteEmbedding, as_param_array, pad_rows

__all__ = ["multi_indices", "TaylorApproximation"]

# points per block in TaylorApproximation.errors
_CHUNK = 4096


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


def _hermite(x, max_order: int) -> np.ndarray:
    """Physicists' Hermite polynomials ``H_0 .. H_max_order`` at ``x``.

    Built with the recurrence ``H_{n+1} = 2x H_n - 2n H_{n-1}``; the result
    has shape ``x.shape + (max_order + 1,)``.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape + (max_order + 1,))
    h_prev, h = np.zeros_like(x), np.ones_like(x)
    for n in range(max_order + 1):
        out[..., n] = h
        h_prev, h = h, 2.0 * x * h - 2.0 * n * h_prev
    return out


@dataclass(frozen=True, eq=False)
class TaylorApproximation:
    """Fixed-center polynomial surrogate of the atom map.

    Built by :meth:`build`; ``gram`` holds the Gram matrix ``H`` of the
    derivative atoms, one row and column per multi-index in ``alphas``.
    ``embedding`` only supplies the window whose truncation guard the
    error evaluation keeps.
    """

    embedding: DiscreteEmbedding
    center: np.ndarray
    order: int
    alphas: tuple
    gram: np.ndarray

    @classmethod
    def build(
        cls, embedding: DiscreteEmbedding, center, order: int
    ) -> "TaylorApproximation":
        """Derivative Gram matrix of all multi-indices up to ``order`` at ``center``.

        Raises :class:`TruncationError` when the atom at the center loses
        more than the embedding's tolerated norm fraction to the window, and
        :class:`DomainError` when the derivative Gram matrix is not finite.
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
        alphas = multi_indices(embedding.dim, order)
        # per axis, <d^j a, d^k a> = (-1)^k kappa_1^(j+k)(0)
        #                          = (-1)^j (2 sigma)^-(j+k) H_{j+k}(0)
        j = np.arange(order + 1)
        s = j[:, None] + j[None, :]
        idx = np.array(alphas)
        with np.errstate(over="ignore", invalid="ignore"):
            axis_gram = (
                (-1.0) ** j[:, None]
                * (2.0 * embedding.kernel.sigma) ** -s.astype(float)
                * _hermite(0.0, 2 * order)[s]
            )
            gram = np.prod(axis_gram[idx[:, None, :], idx[None, :, :]], axis=-1)
        if not np.all(np.isfinite(gram)):
            raise DomainError(
                f"the derivative Gram matrix of order {order} overflows at sigma "
                f"{embedding.kernel.sigma}"
            )
        return cls(
            embedding=embedding,
            center=center_vec,
            order=order,
            alphas=tuple(alphas),
            gram=gram,
        )

    @property
    def rank(self) -> int:
        return len(self.alphas)

    @property
    def dim(self) -> int:
        return self.embedding.dim

    def _products(self, tables: np.ndarray) -> np.ndarray:
        """``prod_a tables[:, a, alpha_a]`` for every multi-index, shape ``(n, L)``.

        ``tables`` has shape ``(n, dim, order + 1)``: per point and axis,
        one entry per derivative order.  The axes are multiplied one at a
        time, in axis order, and the result is C-contiguous.
        """
        idx = np.array(self.alphas)
        out = np.take(tables[:, 0], idx[:, 0], axis=1)
        for a in range(1, self.dim):
            out *= np.take(tables[:, a], idx[:, a], axis=1)
        return out

    def monomials(self, theta) -> np.ndarray:
        """Taylor monomials ``(theta - center)^alpha / alpha!`` for every index.

        Per axis, ``delta^n / n!`` is the running product of ``delta / j``
        for ``j = 1 .. n``.
        """
        pts, single = as_param_array(theta, self.dim)
        delta = pts - self.center
        powers = np.empty(pts.shape + (self.order + 1,))
        powers[:, :, 0] = 1.0
        for n in range(1, self.order + 1):
            np.multiply(powers[:, :, n - 1], delta / n, out=powers[:, :, n])
        out = self._products(powers)
        return out[0] if single else out

    def errors(self, thetas: np.ndarray) -> np.ndarray:
        """Distance between the atom at each point and its Taylor surrogate.

        Points are taken ``_CHUNK`` at a time, so memory does not grow with
        the number of points beyond the result.  ``m^T H m`` is one matrix
        product per block, on rows padded by :func:`tidict.kernels.pad_rows`;
        with the BLAS build named there, every point's error is the same
        bits whatever batch it comes in.  Raises
        :class:`TruncationError` for the first point whose atom the
        embedding window cuts off, and :class:`DomainError` when an error
        is not finite.
        """
        pts, _ = as_param_array(thetas, self.dim)
        two_sigma = 2.0 * self.embedding.kernel.sigma
        scale = two_sigma ** -np.arange(self.order + 1, dtype=float)
        out = np.empty(pts.shape[0])
        for start in range(0, pts.shape[0], _CHUNK):
            block = pts[start : start + _CHUNK]
            self.embedding.check_window(block)
            with np.errstate(over="ignore", invalid="ignore"):
                x = (block - self.center) / two_sigma
                # d^n_{theta0} kappa_1(delta) per axis and order, then per index
                deriv = self._products(
                    scale * _hermite(x, self.order) * np.exp(-(x * x))[:, :, None]
                )
                mono = self.monomials(block)
                # padded, the product's sums did not depend on the block size (see pad_rows)
                hm = (pad_rows(mono) @ self.gram)[: block.shape[0]]
                quad = np.einsum("ij,ij->i", hm, mono)
                sq = 1.0 - 2.0 * np.einsum("ij,ij->i", mono, deriv) + quad
            err = np.sqrt(np.maximum(sq, 0.0))
            bad = np.flatnonzero(~np.isfinite(err))
            if bad.size:
                raise DomainError(
                    f"the Taylor error at theta={block[bad[0]].tolist()} is not finite "
                    f"(sigma {self.embedding.kernel.sigma}, order {self.order})"
                )
            out[start : start + block.shape[0]] = err
        return out
