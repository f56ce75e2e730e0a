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
kappa_1(delta)``, so evaluating the error costs O(L^2) per point.  The
order-0 terms, ``m_0 = H_00 = 1`` and ``d_0 = kappa(delta)``, are folded into
``2 (1 - kappa(delta))``, taken by ``expm1``, and the products run with
``m_0`` zeroed, over ``H`` and ``d - H[0]``.  No term of size 1 is
subtracted, so the error's rounding floor near the center scales with
``|delta|``.  A block of ``B`` points keeps its per-axis tables, Hermite
terms and then powers, as ``(order + 1, dim, B)``: one contiguous row per
order and axis, as the recurrences write them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .kernels import DiscreteEmbedding, as_param_array, sweep

__all__ = ["multi_indices", "TaylorApproximation"]


def multi_indices(dim: int, order: int) -> list[tuple[int, ...]]:
    """All derivative multi-indices with ``|alpha| <= order``.

    Ordered by total degree, then in decreasing lexicographic order
    (``(1, 0)`` before ``(0, 1)``), so the list starts with the zero index
    and its length is ``binomial(order + dim, dim)``.
    """
    if dim < 1 or order < 0:
        raise DomainError("need dim >= 1 and order >= 0")
    exponents = itertools.product(range(order, -1, -1), repeat=dim)
    return sorted(filter(lambda alpha: sum(alpha) <= order, exponents), key=sum)


def _hermite(x, max_order: int, out: np.ndarray | None = None) -> np.ndarray:
    """Physicists' Hermite polynomials ``H_0 .. H_max_order`` at ``x``, row ``n`` holding ``H_n``.

    ``H_{n+1} = 2x H_n - 2n H_{n-1}`` writes each row from the two before
    it into ``out``, when given, of shape ``(max_order + 1,) + x.shape``.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((max_order + 1,) + x.shape) if out is None else out
    two_x = 2.0 * x
    out[0] = 1.0
    out[1:2] = two_x  # H_1, when max_order >= 1
    for n in range(1, max_order):
        np.multiply(two_x, out[n], out=out[n + 1, ...])
        out[n + 1] -= 2.0 * n * out[n - 1]
    return out


def _products(tables: np.ndarray, alphas: np.ndarray, out: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """``prod_a tables[alpha_a, a]`` per row of the ``(L, dim)`` ``alphas``, into the ``(B, L)`` ``out``.

    Each axis's rows of the ``(order + 1, dim, B)`` ``tables`` are gathered
    by its indices and multiplied in axis order in ``scratch``, an array
    like ``out`` taken as ``(L, B)``, then written into ``out`` once,
    transposed.  On one axis the indices are ``0 .. order`` in turn, so
    ``out`` is the table transposed.
    """
    prod = tables[:, 0]
    if alphas.shape[1] > 1:
        # out's memory takes each gathered axis until the product is written
        prod, gathered = scratch.reshape(out.shape[::-1]), out.reshape(out.shape[::-1])
        np.take(tables[:, 0], alphas[:, 0], axis=0, out=prod, mode="clip")
        for a in range(1, alphas.shape[1]):
            prod *= np.take(tables[:, a], alphas[:, a], axis=0, out=gathered, mode="clip")
    out[...] = prod.T
    return out


@dataclass(frozen=True, eq=False)
class TaylorApproximation:
    """Fixed-center polynomial surrogate of the atom map.

    Built by :meth:`build`; ``gram`` holds the Gram matrix ``H`` of the
    derivative atoms, one row and column per multi-index in ``alphas``.
    ``embedding`` supplies only the kernel width ``sigma``: the errors are
    those of the continuous atoms, and no sampling window enters them.
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

        Raises :class:`DomainError` when the derivative Gram matrix is not
        finite.
        """
        c, single = as_param_array(center, embedding.dim, name="center")
        if not single and c.shape[0] != 1:
            raise DomainError("center must be a single parameter vector")
        center_vec = c[0]
        order = int(order)
        if order < 0:
            raise DomainError("order must be >= 0")
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

    def _powers(self, pts: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Per order ``n``, axis and point, ``delta^n / n!`` into ``out``, shape ``(order + 1, dim, B)``.

        Row ``n`` is row ``n - 1`` times ``delta / n``.
        """
        delta = (pts - self.center).T
        out[0] = 1.0
        for n in range(1, self.order + 1):
            np.multiply(out[n - 1], delta / n, out=out[n])
        return out

    def errors(self, thetas: np.ndarray) -> np.ndarray:
        """Distance between the atom at each point and its Taylor surrogate.

        Points are taken in the padded blocks of :func:`tidict.kernels.blocks`
        by :func:`tidict.kernels.sweep`, as in
        :meth:`~tidict.lowrank.LowRankDictionary.approx_error`.  Each worker
        writes a block's Hermite terms and then its powers into one
        ``(order + 1, dim, B)`` table, and its monomials, derivatives and
        ``m H`` into ``(B, L)`` arrays, all in a workspace that the calling
        thread allocates once per call; nothing else of size ``B L`` is
        allocated.  ``m^T H m`` is one matrix product per block; whether a
        point's bits depend on its block is up to the BLAS (see
        :func:`tidict.kernels.pad_rows`), and they do not depend on the
        number of workers.  The errors are those of the continuous atoms, so
        a point near or beyond the embedding's window is evaluated like any
        other.  Raises :class:`DomainError` when an error is not finite,
        naming the first such point.
        """
        pts, _ = as_param_array(thetas, self.dim)
        two_sigma = 2.0 * self.embedding.kernel.sigma
        scale = two_sigma ** -np.arange(self.order + 1, dtype=float)[:, None, None]
        alphas = np.array(self.alphas)
        out = np.empty(pts.shape[0])

        def workspace(rows):
            return np.empty((self.order + 1, self.dim, rows)), np.empty((2 + (self.dim > 1), rows, self.rank))

        def body(dst, ws, rows):
            n = rows.shape[0]
            # scratch, a third (B, L) array, is there on more than one axis
            tables, (mono, deriv, *scratch) = ws[0][..., :n], (a[:n] for a in ws[1])
            with np.errstate(over="ignore", invalid="ignore"):
                x = (rows - self.center) / two_sigma
                # d^n_{theta0} kappa_1(delta) per order and axis, then per index
                _hermite(x.T, self.order, out=tables)
                tables *= scale
                tables *= np.exp(-(x * x)).T
                _products(tables, alphas, deriv, *scratch)
                deriv -= self.gram[0]
                _products(self._powers(rows, tables), alphas, mono, *scratch)
                mono[:, 0] = 0.0  # index 0 enters as 2 (1 - kappa(delta)) only
                cross = np.einsum("ij,ij->i", mono, deriv)
                # padded, a short block sums like a longer one (see pad_rows)
                quad = np.einsum("ij,ij->i", np.matmul(mono, self.gram, out=deriv), mono)
                sq = -2.0 * np.expm1(-np.sum(x * x, axis=1)) - 2.0 * cross + quad
            dst[:] = np.sqrt(np.maximum(sq[: len(dst)], 0.0))

        sweep(body, out, pts, workspace=workspace)
        bad = np.flatnonzero(~np.isfinite(out))
        if bad.size:
            raise DomainError(
                f"the Taylor error at theta={pts[bad[0]].tolist()} is not finite "
                f"(sigma {self.embedding.kernel.sigma}, order {self.order})"
            )
        return out
