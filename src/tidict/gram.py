"""Gram matrices on node grids and their raised-cosine decomposition.

The low-rank construction in :mod:`tidict.lowrank` needs a raised-cosine
kernel that reproduces the node Gram matrix exactly: for every pair of grid
nodes, ``rc(theta_i - theta_j)`` must equal ``kappa(theta_i - theta_j)``.
On a regular 1-D grid with spacing ``D`` this reduces to matching the first
Gram row, i.e. finding frequencies and positive weights with

    g_m = lambda0 + sum_k lambda_k cos(m * w_k * D),   m = 0 .. L-1,

a classical exponential-recovery problem.  It is solved here in the
Chebyshev basis: extending ``g`` evenly, the symmetrized shift
``(S g)_m = (g_{m+1} + g_{m-1}) / 2`` acts as multiplication by
``x = cos(w D)``, so the sequence is annihilated by a monic degree-K
polynomial in ``S`` whose roots are exactly the ``cos(w_k D)``.  Working in
the Chebyshev basis keeps the companion (colleague) eigenproblem well
conditioned on [-1, 1], where all roots must lie.  For odd ``L`` the
constant term is removed first by differencing ``(S - I) g``, which keeps
the remaining root count at ``K = floor(L / 2)``.  The root finder rejects
only complex or out-of-range roots and a frequency that collapses onto
zero; whether the kernel is acceptable, its structure and its residual on
the node differences, the :class:`~tidict.lowrank.LowRankDictionary`
constructor decides.

Nodes are a :class:`NodeGrid`, the one record of their layout.  A
:class:`GramSystem` is given the kernel and the grid, evaluates its axis
factors from them and keeps both, so a dictionary reads the kernel from
its Gram system.  Nodes are handled separably: each axis is
decomposed on its own, then the product of the axis kernels is expanded
into a flat cosine sum, the Kronecker product of the axis spectra; a 1-D
grid is the one-axis case.  The resulting term count again satisfies
``K = floor(L / 2)`` with ``L`` the total node count.  The Gram matrix is
the Kronecker product of the per-axis Toeplitz factors, kept as those.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Sequence

import numpy as np
import numpy.polynomial.chebyshev as ncheb

from .errors import DomainError, IllConditionedError, NoValidDecomposition
from .kernels import GaussianIsotropicKernel, axis_products, blocks, int_counts, lattice, lattice_size
from .raised_cosine import FREQ_DISTINCT_TOL, RaisedCosineKernel, leading_entries

__all__ = [
    "NodeGrid",
    "GramSystem",
    "build_gram",
    "decompose_gram_1d",
    "decompose_gram_separable",
    "decompose_grid",
    "verify_decomposition",
]

CONDITION_LIMIT = 1e12
RESIDUAL_TOL = 1e-8
PSD_TOL = 1e-10
ROOT_IMAG_TOL = 1e-9
ROOT_RANGE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class NodeGrid:
    """Regular lattice of interpolation nodes.

    ``origin`` is the first node, ``spacing`` the positive step per axis and
    ``counts`` the number of nodes per axis.  :attr:`nodes` is the
    :func:`lattice` of :attr:`axes`: row-major (the last axis varies
    fastest), matching the Kronecker ordering of the Gram factors.
    """

    origin: np.ndarray
    spacing: np.ndarray
    counts: tuple

    def __post_init__(self) -> None:
        org = np.atleast_1d(np.asarray(self.origin, dtype=float))
        spc = np.atleast_1d(np.asarray(self.spacing, dtype=float))
        cnt = np.atleast_1d(int_counts(self.counts, "grid counts"))
        if not (org.shape == spc.shape == cnt.shape) or org.ndim != 1:
            raise DomainError("origin, spacing and counts must have equal length")
        if not np.all(np.isfinite(org)) or not np.all(np.isfinite(spc)):
            raise DomainError("grid origin and spacing must be finite")
        if np.any(spc <= 0.0):
            raise DomainError(f"grid spacing must be positive, got {spc.tolist()}")
        if np.any(cnt < 1):
            raise DomainError(f"grid counts must be >= 1, got {cnt.tolist()}")
        org.setflags(write=False)
        spc.setflags(write=False)
        object.__setattr__(self, "origin", org)
        object.__setattr__(self, "spacing", spc)
        object.__setattr__(self, "counts", tuple(int(c) for c in cnt))
        lattice_size(self.counts)  # refuses 2**63 nodes or more

    @property
    def dim(self) -> int:
        return self.origin.shape[0]

    @property
    def size(self) -> int:
        return lattice_size(self.counts)

    @cached_property
    def axes(self) -> tuple:
        """Node coordinates on each axis, ``origin + m * spacing`` for ``m < counts``."""
        return tuple(
            self.origin[a] + np.arange(c) * self.spacing[a]
            for a, c in enumerate(self.counts)
        )

    @cached_property
    def nodes(self) -> np.ndarray:
        """Node coordinates, shape ``(size, dim)``: the :func:`lattice` of :attr:`axes`."""
        return lattice(self.axes)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        upper = self.origin + (np.array(self.counts) - 1) * self.spacing
        return self.origin.copy(), upper


class GramSystem:
    """The positive definite node Gram matrix of ``kernel`` on ``grid``, kept as its axis factors.

    ``G[i, j] = kappa(theta_i - theta_j)`` over the nodes of the
    :class:`NodeGrid` ``grid`` is the Kronecker product of ``factors``, one
    Toeplitz matrix ``G_a[i, j] = row_a[|i - j|]`` per axis, of the axis's
    Gram first row: the structure is exact, and in 1-D ``G`` is the kernel
    at every node displacement bit for bit.  ``G_a = V_a diag(lam_a) V_a^T``
    is computed once, at construction, and ``G = V diag(lam) V^T`` with
    ``V = kron(V_a)`` and ``lam = kron(lam_a)``, of which only ``lam`` is
    formed.  It gives the 2-norm condition number ``lam_max / lam_min``, the
    product of :attr:`axis_condition_numbers` (``inf`` when ``G`` is not
    positive definite).  A solve applies ``G^-1 = V diag(1 / lam) V^T`` and
    then one step of iterative refinement, ``x = x0 + G^-1 (b - G x0)``,
    which keeps it as accurate as an LU solve, with ``V``, ``V^T`` and ``G``
    one axis at a time.  Nodes that are not a :class:`NodeGrid` raise
    :class:`TypeError`; a condition number beyond ``condition_limit``
    raises :class:`IllConditionedError`.
    """

    def __init__(
        self,
        kernel: GaussianIsotropicKernel,
        grid: NodeGrid,
        condition_limit: float = CONDITION_LIMIT,
    ):
        if not isinstance(grid, NodeGrid):
            raise TypeError(f"nodes must be a NodeGrid, got {type(grid).__name__}")
        lattice_size(grid.counts * 2)  # the dense L x L raised-cosine Gram of psd_margin, and so each factor
        idx = [np.arange(c) for c in grid.counts]
        factors = [row[np.abs(i[:, None] - i)] for row, i in zip(_axis_rows(kernel, grid), idx)]
        self.kernel = kernel
        self.grid = grid
        axis_eigvals, eigvecs = zip(*(np.linalg.eigh(f) for f in factors))
        self.axis_condition_numbers = tuple(
            float(lam[-1] / lam[0]) if lam[0] > 0.0 else math.inf for lam in axis_eigvals
        )
        eigvals = reduce(np.kron, axis_eigvals)  # not sorted
        lo, hi = eigvals.min(), eigvals.max()
        cond = self.condition_number = float(hi / lo) if lo > 0.0 else math.inf
        if not math.isfinite(cond) or cond > condition_limit:
            raise IllConditionedError(f"Gram condition number {cond:.3e} exceeds limit {condition_limit:.3e}")
        self._inv_eigvals = 1.0 / eigvals
        self.factors = tuple(factors)
        # Fortran-ordered operands: OpenBLAS 0.3.31 then sums a point alike in most blocks (see pad_rows)
        self._vt, self._v = tuple(v.T for v in eigvecs), tuple(map(np.asfortranarray, eigvecs))

    @property
    def size(self) -> int:
        return self.grid.size

    def _spectral(self, block: np.ndarray, bufs) -> np.ndarray:
        """``V diag(1 / lam) V^T block`` for a block of ``L`` rows, in ``bufs`` (see :func:`axis_products`)."""
        t = axis_products(self._vt, block, bufs)
        t *= self._inv_eigvals.reshape(t.shape[:2] + (1,))
        return axis_products(self._v, t, bufs)

    def solve_rows(self, rows: np.ndarray, out: np.ndarray | None = None, scratch=None) -> np.ndarray:
        """Solve ``x G = r`` for a row ``r`` or for each row of a stack.

        ``G`` is symmetric, so this is ``G x = r`` row by row, taken on the
        block transposed, ``(L, n)`` with the points last, so that each axis
        is one stacked product whatever ``n``.  ``out``, shaped like
        ``rows``, receives ``x``, and ``scratch`` is two more such arrays,
        C-contiguous and overwritten, so that a solve allocates nothing of
        the size of ``rows``.  The bits are the same either way.
        """
        rows = np.asarray(rows, dtype=float)
        x = np.empty_like(rows) if out is None else out
        b = rows.reshape(-1, self.size).T
        o, p, q = ((np.empty_like(rows) if w is None else w).reshape(b.shape) for w in (x, *(scratch or (None, None))))
        np.copyto(o, b)
        x0 = self._spectral(o, (q, p))  # in p: an even number of products from o
        # G x0, by the Fortran-ordered G_a^T = G_a, lands in q whatever the parity of the number of axes
        r = axis_products([f.T for f in self.factors], x0, (q, o) if len(self.factors) % 2 else (o, q)).reshape(b.shape)
        np.subtract(b, r, out=r)
        dx = self._spectral(r, (o, q))  # in q, where r is
        np.add(x0.reshape(b.shape).T, dx.reshape(b.shape).T, out=x.reshape(b.shape[::-1]))
        return x


def _axis_rows(kernel: GaussianIsotropicKernel, grid: NodeGrid) -> list[np.ndarray]:
    """Per axis ``a``, the Gram first row ``kappa(m spacing[a] e_a)``, ``m < counts[a]``: where the kernel meets the nodes."""
    if grid.dim != kernel.dim:
        raise DomainError(f"grid dimension {grid.dim} != kernel dimension {kernel.dim}")
    return [kernel.axis_factor(np.arange(c) * s, 0.0) for c, s in zip(grid.counts, grid.spacing)]


def build_gram(
    kernel: GaussianIsotropicKernel,
    grid: NodeGrid,
    condition_limit: float = CONDITION_LIMIT,
) -> GramSystem:
    """``GramSystem(kernel, grid, condition_limit)``: the name the command line builds through, which ``perfbench`` times."""
    return GramSystem(kernel, grid, condition_limit)


def _cheb_annihilator(y: np.ndarray, degree: int) -> np.ndarray:
    """Chebyshev coefficients of the monic annihilating polynomial.

    ``y`` is a sequence known to satisfy a degree-``degree`` recurrence
    under the symmetrized shift.  Builds the linear system whose rows state
    that the polynomial, evaluated on the shift operator, annihilates the
    sequence, and solves for the non-leading coefficients.  In the
    Chebyshev basis the action of ``T_p`` on the evenly-extended sequence is
    ``(T_p y)_m = (y_{m+p} + y_{|m-p|}) / 2``.
    """
    rows = y.shape[0] - degree
    m = np.arange(rows)[:, None]
    p = np.arange(degree + 1)[None, :]
    table = 0.5 * (y[m + p] + y[np.abs(m - p)])
    lead = 2.0 ** (1 - degree)  # monic: x^K has leading Chebyshev coefficient 2^(1-K)
    coef, *_ = np.linalg.lstsq(table[:, :degree], -lead * table[:, degree], rcond=None)
    return np.concatenate([coef, [lead]])


def decompose_gram_1d(first_row: np.ndarray, spacing: float) -> RaisedCosineKernel:
    """Raised-cosine interpolation of a 1-D Gram first row.

    Finds ``K = floor(L/2)`` frequencies and their least-squares weights
    (plus a constant term when ``L`` is odd) whose cosine sum reproduces
    ``first_row`` at every multiple of ``spacing``.  Frequencies are
    returned in parameter units (radians per unit displacement).  The
    weights' signs, the frequencies' distinctness and the residual are not
    checked here: :meth:`RaisedCosineKernel.validate` and
    :func:`verify_decomposition` report them.

    Parameters
    ----------
    first_row : array_like, shape (L,)
        Gram values ``kappa(m * spacing)`` for ``m = 0 .. L-1``; the first
        entry must be 1 (unit-norm atoms).
    spacing : float
        Positive node spacing.

    Raises
    ------
    DomainError
        If ``first_row`` is not a non-empty 1-D array starting with 1, or
        ``spacing`` is not positive.
    NoValidDecomposition
        If the spectral roots are complex or outside [-1, 1] beyond
        tolerance, or a recovered frequency collapses onto zero.
    """
    g = np.atleast_1d(np.asarray(first_row, dtype=float))
    if g.ndim != 1:
        raise DomainError("first_row must be one-dimensional")
    spacing = float(spacing)
    if not spacing > 0.0:
        raise DomainError(f"spacing must be positive, got {spacing}")
    L = g.shape[0]
    if L < 1:
        raise DomainError("first_row must contain at least one value")
    if abs(g[0] - 1.0) > 1e-12:
        raise DomainError(f"first_row[0] must be 1 for unit-norm atoms, got {g[0]!r}")

    if L == 1:
        return RaisedCosineKernel(
            dim=1, lambda0=1.0, weights=np.empty(0), freqs=np.empty((0, 1)), rank=1
        )

    K = L // 2
    odd = L % 2 == 1
    if odd:
        # remove the constant term: h = (S - I) g, using even extension g[-1] = g[1]
        g_minus = np.concatenate([[g[1]], g[:-2]])
        y = 0.5 * (g[1:] + g_minus) - g[:-1]
    else:
        y = g

    coeffs = _cheb_annihilator(y, K)
    roots = ncheb.chebroots(coeffs)
    if np.max(np.abs(roots.imag)) > ROOT_IMAG_TOL:
        raise NoValidDecomposition(
            f"complex spectral roots (max imaginary part "
            f"{np.max(np.abs(roots.imag)):.3e})"
        )
    x = roots.real
    if np.max(np.abs(x)) > 1.0 + ROOT_RANGE_TOL:
        raise NoValidDecomposition(
            f"spectral roots outside [-1, 1]: {np.sort(x).tolist()}"
        )
    x = np.clip(x, -1.0, 1.0)
    steps = np.sort(np.arccos(x))  # radians per grid step, ascending

    if steps[0] < FREQ_DISTINCT_TOL:  # in radians per step, whatever the units of spacing
        raise NoValidDecomposition("a recovered frequency collapses onto zero")
    freqs = steps / spacing

    m = np.arange(L)[:, None]
    design = np.cos(m * steps[None, :])
    if odd:
        design = np.concatenate([np.ones((L, 1)), design], axis=1)
    lam, *_ = np.linalg.lstsq(design, g, rcond=None)
    lambda0 = float(lam[0]) if odd else 0.0
    weights = lam[1:] if odd else lam
    return RaisedCosineKernel(
        dim=1,
        lambda0=lambda0,
        weights=weights,
        freqs=freqs.reshape(-1, 1),
        rank=L,
    )


def _axis_spectrum(rc: RaisedCosineKernel) -> tuple[np.ndarray, np.ndarray]:
    """A 1-D kernel over its symmetric spectrum ``{0, +-w_k}``.

    Returns weights ``{lambda0, lambda_k / 2, lambda_k / 2}`` and the matching
    frequencies; the zero frequency is left out when ``lambda0 = 0``.
    """
    w = rc.freqs[:, 0]
    half = 0.5 * rc.weights
    weights, freqs = np.concatenate([half, half]), np.concatenate([w, -w])
    if rc.lambda0 != 0.0:
        weights = np.concatenate([[rc.lambda0], weights])
        freqs = np.concatenate([[0.0], freqs])
    return weights, freqs


def decompose_gram_separable(
    per_axis: Sequence[RaisedCosineKernel],
) -> RaisedCosineKernel:
    """Combine per-axis 1-D raised-cosine kernels into one multi-D kernel.

    Over their symmetric spectra the product of the axis kernels is a sum
    of complex exponentials: the weights are the Kronecker product of the
    axis weights and the frequencies the Cartesian product of the axis
    frequencies.  Each ``+-`` pair of frequency vectors folds into one
    cosine term of twice the weight, kept with its first nonzero component
    positive; the all-zero vector is the constant term.  The result has
    rank equal to the product of the axis ranks.  It is only expanded,
    not checked: colliding axis frequencies, say, show up in its
    :meth:`RaisedCosineKernel.validate`.  One axis gives back its kernel,
    as ``2 (lambda_k / 2) = lambda_k``.
    """
    if len(per_axis) == 0:
        raise DomainError("need at least one axis kernel")
    for rc in per_axis:
        if rc.dim != 1:
            raise DomainError("decompose_gram_separable expects 1-D kernels per axis")

    weights, freqs = np.ones(1), np.zeros((1, 0))
    for rc in per_axis:
        w, f = _axis_spectrum(rc)
        weights = np.kron(weights, w)
        freqs = np.column_stack(
            [np.repeat(freqs, f.size, axis=0), np.tile(f, freqs.shape[0])]
        )

    lead = leading_entries(freqs)
    keep = lead > 0.0
    return RaisedCosineKernel(
        dim=len(per_axis),
        lambda0=float(np.sum(weights[lead == 0.0])),
        weights=2.0 * weights[keep],
        freqs=freqs[keep],
        rank=int(np.prod([axis.rank for axis in per_axis])),
    )


def decompose_grid(kernel: GaussianIsotropicKernel, grid: NodeGrid) -> RaisedCosineKernel:
    """Raised-cosine kernel meant to match ``kernel`` on all node differences of ``grid``.

    Each axis is decomposed by :func:`decompose_gram_1d` on its Gram first
    row (valid for kernels that factor over axes, such as the isotropic
    Gaussian), and the factors are expanded with
    :func:`decompose_gram_separable`, a 1-D grid as its one-axis case.
    Whether the result is acceptable, its structure and its node residual,
    the :class:`~tidict.lowrank.LowRankDictionary` constructor decides.
    """
    rows = _axis_rows(kernel, grid)
    return decompose_gram_separable(
        [decompose_gram_1d(row, s) for row, s in zip(rows, grid.spacing)]
    )


def verify_decomposition(gram: GramSystem, rc: RaisedCosineKernel) -> float:
    """The largest ``|rc(delta) - kappa(delta)|`` over the node differences of ``gram``'s grid.

    On the grid both kernels depend only on the index difference ``m``, at
    ``delta = m * spacing``, and both are even, so the differences with
    ``m_0 >= 0`` reach every node pair.  ``kappa`` there is the product of
    the axis Gram rows, the bits of ``reduce(np.kron, gram.factors)``;
    ``rc`` there is its cosine sum alone, :meth:`RaisedCosineKernel.values`,
    taken in the blocks of :func:`tidict.kernels.blocks`.
    """
    grid = gram.grid
    steps = [np.arange(0 if a == 0 else 1 - c, c) for a, c in enumerate(grid.counts)]
    deltas = lattice([m * s for m, s in zip(steps, grid.spacing)])
    kappa = reduce(np.multiply.outer, [f[0, np.abs(m)] for f, m in zip(gram.factors, steps)]).ravel()
    worst = np.empty_like(kappa)
    for dst, rows, k in blocks(worst, deltas, kappa):
        dst[:] = np.abs(rc.values(rows) - k)[: len(dst)]
    return float(np.max(worst))
