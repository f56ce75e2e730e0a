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
the remaining root count at ``K = floor(L / 2)``.

Multi-dimensional grids are handled separably: each axis is decomposed on
its own, then the product of per-axis kernels is expanded into a flat
cosine sum as the Kronecker product of the per-axis spectra.  The resulting
term count again satisfies ``K = floor(L / 2)`` with ``L`` the total node
count, and the Gram matrix is the Kronecker product of the per-axis
Toeplitz factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
import numpy.polynomial.chebyshev as ncheb

from .errors import DomainError, IllConditionedError, NoValidDecomposition
from .kernels import TIKernel
from .raised_cosine import FREQ_DISTINCT_TOL, WEIGHT_PRUNE_TOL, RaisedCosineKernel

__all__ = [
    "NodeGrid",
    "GramSystem",
    "DecompositionReport",
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
    ``counts`` the number of nodes per axis.  Nodes are ordered row-major
    (the last axis varies fastest), matching the Kronecker ordering of the
    Gram factors.
    """

    origin: np.ndarray
    spacing: np.ndarray
    counts: tuple

    def __post_init__(self) -> None:
        org = np.atleast_1d(np.asarray(self.origin, dtype=float))
        spc = np.atleast_1d(np.asarray(self.spacing, dtype=float))
        cnt = np.atleast_1d(np.asarray(self.counts, dtype=int))
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

    @property
    def dim(self) -> int:
        return self.origin.shape[0]

    @property
    def size(self) -> int:
        return int(np.prod(self.counts))

    @cached_property
    def indices(self) -> np.ndarray:
        """Integer multi-indices of all nodes, shape ``(size, dim)``, row-major."""
        mesh = np.meshgrid(*[np.arange(c) for c in self.counts], indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    @cached_property
    def nodes(self) -> np.ndarray:
        """Node coordinates, shape ``(size, dim)``."""
        return self.origin + self.indices * self.spacing

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        upper = self.origin + (np.array(self.counts) - 1) * self.spacing
        return self.origin.copy(), upper


class GramSystem:
    """A positive definite node Gram matrix and its eigendecomposition.

    Wraps ``G[i, j] = kappa(theta_i - theta_j)`` together with the
    machinery needed downstream.  ``G = V diag(lam) V^T`` is computed once,
    at construction; it gives the 2-norm condition number
    ``lam_max / lam_min`` (``inf`` when ``G`` is not positive definite) and
    every linear solve.  A solve applies ``G^-1 = V diag(1 / lam) V^T`` and
    then one step of iterative refinement,
    ``x = x0 + G^-1 (b - G x0)``, which keeps it as accurate as an LU
    solve.  Instances are built by :func:`build_gram`.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        nodes: np.ndarray,
        condition_limit: float = CONDITION_LIMIT,
    ):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise DomainError("Gram matrix must be square")
        if matrix.shape[0] != nodes.shape[0]:
            raise DomainError("node count does not match Gram size")
        self.matrix = matrix
        self.nodes = np.asarray(nodes, dtype=float)
        if not np.all(np.isfinite(matrix)):
            raise IllConditionedError("Gram matrix has non-finite entries")
        eigvals, self._eigvecs = np.linalg.eigh(matrix)
        lo, hi = eigvals[0], eigvals[-1]
        self.condition_number = float(hi / lo) if lo > 0.0 else math.inf
        if not math.isfinite(self.condition_number) or (
            self.condition_number > condition_limit
        ):
            raise IllConditionedError(
                f"Gram condition number {self.condition_number:.3e} exceeds "
                f"limit {condition_limit:.3e}"
            )
        self._inv_eigvals = 1.0 / eigvals

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.nodes.shape[1]

    def _spectral_rows(self, rows: np.ndarray) -> np.ndarray:
        """``rows G^-1`` from the eigendecomposition alone."""
        v = self._eigvecs
        return ((rows @ v) * self._inv_eigvals) @ v.T

    def solve_rows(self, rows: np.ndarray) -> np.ndarray:
        """Solve ``x G = r`` for a row ``r`` or for each row of a stack.

        ``G`` is symmetric, so this is ``G x = r`` row by row; it takes the
        rows as they are stored, and its products are matrix products over
        the whole stack.
        """
        rows = np.asarray(rows, dtype=float)
        x = self._spectral_rows(rows)
        x += self._spectral_rows(rows - x @ self.matrix)
        return x

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``G x = rhs`` for a vector or a stack of columns."""
        return self.solve_rows(np.asarray(rhs, dtype=float).T).T


def build_gram(
    kernel: TIKernel,
    nodes,
    condition_limit: float = CONDITION_LIMIT,
) -> GramSystem:
    """Assemble the Gram matrix of the atoms at the given nodes.

    Parameters
    ----------
    kernel : TIKernel
        Translation-invariant kernel of the atom family.
    nodes : NodeGrid or array_like, shape (L, dim)
        Interpolation nodes.  Passing a :class:`NodeGrid` computes all
        displacements from integer index differences, which makes the
        Toeplitz (1-D) and Kronecker-of-Toeplitz (separable multi-D)
        structure of the result exact rather than approximate.
    condition_limit : float
        Raise :class:`IllConditionedError` beyond this condition number.
    """
    if isinstance(nodes, NodeGrid):
        if nodes.dim != kernel.dim:
            raise DomainError(
                f"grid dimension {nodes.dim} != kernel dimension {kernel.dim}"
            )
        idx = nodes.indices
        delta = (idx[:, None, :] - idx[None, :, :]) * nodes.spacing
        pts = nodes.nodes
    else:
        pts = np.asarray(nodes, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or pts.shape[1] != kernel.dim:
            raise DomainError(
                f"nodes must have shape (L, {kernel.dim}), got {pts.shape}"
            )
        delta = pts[:, None, :] - pts[None, :, :]
    L = pts.shape[0]
    matrix = kernel.eval(delta.reshape(L * L, kernel.dim)).reshape(L, L)
    return GramSystem(matrix, pts, condition_limit)


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


def decompose_gram_1d(
    first_row: np.ndarray,
    spacing: float,
    residual_tol: float = RESIDUAL_TOL,
) -> RaisedCosineKernel:
    """Exact raised-cosine interpolation of a 1-D Gram first row.

    Finds ``K = floor(L/2)`` frequencies and positive weights (plus a
    constant term when ``L`` is odd) whose cosine sum reproduces
    ``first_row`` at every multiple of ``spacing``.  Frequencies are
    returned in parameter units (radians per unit displacement).

    Parameters
    ----------
    first_row : array_like, shape (L,)
        Gram values ``kappa(m * spacing)`` for ``m = 0 .. L-1``; the first
        entry must be 1 (unit-norm atoms).
    spacing : float
        Positive node spacing.
    residual_tol : float
        Maximum tolerated interpolation defect at the nodes.

    Raises
    ------
    NoValidDecomposition
        If the spectral roots are complex or outside [-1, 1] beyond
        tolerance, recovered weights are nonpositive, frequencies collide,
        or the residual exceeds ``residual_tol``.
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

    freqs = steps / spacing
    if steps[0] / spacing < FREQ_DISTINCT_TOL:
        raise NoValidDecomposition("a recovered frequency collapses onto zero")
    if K > 1 and np.min(np.diff(freqs)) < FREQ_DISTINCT_TOL:
        raise NoValidDecomposition(
            f"recovered frequencies coalesce: {freqs.tolist()}"
        )

    m = np.arange(L)[:, None]
    design = np.cos(m * steps[None, :])
    if odd:
        design = np.concatenate([np.ones((L, 1)), design], axis=1)
    lam, *_ = np.linalg.lstsq(design, g, rcond=None)
    residual = float(np.max(np.abs(design @ lam - g)))
    if residual > residual_tol:
        raise NoValidDecomposition(
            f"node residual {residual:.3e} exceeds tolerance {residual_tol:g}"
        )
    if np.min(lam) < WEIGHT_PRUNE_TOL:
        raise NoValidDecomposition(
            f"recovered weights are not strictly positive: {lam.tolist()}"
        )
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
    rank equal to the product of the axis ranks; if it fails the structural
    invariants of :meth:`RaisedCosineKernel.validate` (for instance because
    axis frequencies collide), :class:`NoValidDecomposition` is raised.
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

    nonzero = freqs != 0.0
    lead = freqs[np.arange(freqs.shape[0]), np.argmax(nonzero, axis=1)]
    keep = lead > 0.0
    rc = RaisedCosineKernel(
        dim=len(per_axis),
        lambda0=float(np.sum(weights[~np.any(nonzero, axis=1)])),
        weights=2.0 * weights[keep],
        freqs=freqs[keep],
        rank=int(np.prod([axis.rank for axis in per_axis])),
    )
    report = rc.validate()
    if not report.ok:
        raise NoValidDecomposition(f"separable expansion is invalid: {report}")
    return rc


def decompose_grid(
    kernel: TIKernel,
    grid: NodeGrid,
    residual_tol: float = RESIDUAL_TOL,
) -> RaisedCosineKernel:
    """Raised-cosine kernel matching ``kernel`` on all node differences of ``grid``.

    For one-dimensional grids this is :func:`decompose_gram_1d` on the Gram
    first row; in higher dimensions each axis is decomposed separately
    (valid for kernels that factor over axes, such as the isotropic
    Gaussian) and the factors are expanded with :func:`decompose_gram_separable`.
    """
    if grid.dim != kernel.dim:
        raise DomainError(
            f"grid dimension {grid.dim} != kernel dimension {kernel.dim}"
        )
    axis_kernels = []
    for a in range(grid.dim):
        m = np.arange(grid.counts[a])
        deltas = np.zeros((grid.counts[a], grid.dim))
        deltas[:, a] = m * grid.spacing[a]
        row = np.atleast_1d(kernel.eval(deltas))
        axis_kernels.append(decompose_gram_1d(row, grid.spacing[a], residual_tol))
    if grid.dim == 1:
        return axis_kernels[0]
    return decompose_gram_separable(axis_kernels)


@dataclass(frozen=True)
class DecompositionReport:
    """Quality of a raised-cosine fit to a Gram matrix.

    ``residual`` is the worst absolute mismatch over all node pairs,
    ``psd_margin`` the smallest eigenvalue of the raised-cosine Gram (it
    should be nonnegative up to roundoff), and ``ok`` whether the residual
    is within tolerance and the margin above ``-PSD_TOL``.
    """

    residual: float
    psd_margin: float
    ok: bool

    def as_dict(self) -> dict:
        return {
            "residual": self.residual,
            "psd_margin": self.psd_margin,
            "ok": self.ok,
        }


def verify_decomposition(
    gram: GramSystem,
    rc: RaisedCosineKernel,
    residual_tol: float = RESIDUAL_TOL,
) -> DecompositionReport:
    """Check that ``rc`` reproduces the Gram matrix on its node differences."""
    rc_gram = rc.cross(gram.nodes, gram.nodes)
    residual = float(np.max(np.abs(rc_gram - gram.matrix)))
    psd_margin = float(np.linalg.eigvalsh(0.5 * (rc_gram + rc_gram.T))[0])
    ok = residual <= residual_tol and psd_margin >= -PSD_TOL
    return DecompositionReport(residual=residual, psd_margin=psd_margin, ok=ok)
