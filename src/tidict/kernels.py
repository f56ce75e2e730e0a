"""Parameter domains, translation-invariant kernels, and discretized atoms.

A parametric dictionary maps every parameter vector ``theta`` in a
``d``-dimensional box to a unit-norm atom in some Hilbert space.  The
families handled here are *translation invariant*: the inner product of two
atoms depends only on the parameter displacement, so a single even kernel
``kappa`` with ``kappa(0) = 1`` describes the whole continuum of atoms.

All core computations downstream (Gram matrices, low-rank constructions,
error formulas, the Taylor baseline) consume kernel evaluations only and
never touch explicit atom vectors.  :class:`DiscreteEmbedding` is the one
place where atoms are materialized as sample vectors; it exists for the
window truncation guard, atom selection from a sampled signal, oracles and
demos.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, TruncationError

# lattice terms summed at once by DiscreteEmbedding.truncation_deficits
_DEFICIT_CHUNK = 1 << 20
# fewest rows pad_rows hands to a matrix product
_MIN_GEMM_ROWS = 8

__all__ = [
    "ParamBox",
    "TIKernel",
    "GaussianIsotropicKernel",
    "DiscreteEmbedding",
    "as_param_array",
]


def as_param_array(x, dim: int, name: str = "theta") -> tuple[np.ndarray, bool]:
    """Coerce ``x`` to a ``(n, dim)`` float array of parameter vectors.

    Accepts a scalar (``dim == 1`` only), a single vector of length ``dim``,
    or a stack of shape ``(n, dim)``.  Returns the batched array together
    with a flag telling whether the input denoted a single parameter, so
    callers can unwrap their result to a scalar/vector again.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        if dim != 1:
            raise DomainError(f"{name}: scalar given but kernel dimension is {dim}")
        return arr.reshape(1, 1), True
    if arr.ndim == 1:
        if dim == 1:
            # a flat array is a batch of scalar parameters
            return arr.reshape(-1, 1), False
        if arr.shape[0] != dim:
            raise DomainError(
                f"{name}: expected a vector of length {dim}, got length {arr.shape[0]}"
            )
        return arr.reshape(1, dim), True
    if arr.ndim == 2:
        if arr.shape[1] != dim:
            raise DomainError(
                f"{name}: expected shape (n, {dim}), got {arr.shape}"
            )
        return arr, False
    raise DomainError(f"{name}: array of dimension {arr.ndim} is not a parameter stack")


def pad_rows(rows: np.ndarray) -> np.ndarray:
    """``rows``, with its last row repeated up to ``_MIN_GEMM_ROWS`` rows.

    numpy hands a lone row to the BLAS vector routines, and OpenBLAS may
    sum a block of a few rows in another order than a larger block: against
    a transposed 108-column operand, blocks of up to 5 rows did.  From 8
    rows on, each C-contiguous row got the bits it gets inside any larger
    block.  Callers pad a block before its matrix products and keep the
    first ``rows.shape[0]`` rows of the result.

    The bound of 8 was measured on one build only: OpenBLAS 0.3.31
    (``DYNAMIC_ARCH``) on an AVX-512 Xeon, with one and with two threads.
    Another BLAS, CPU kernel or thread count may split the rows of a
    product otherwise, so the padding is not a guarantee that a row's bits
    do not depend on its block.
    """
    short = _MIN_GEMM_ROWS - rows.shape[0]
    if short <= 0 or rows.shape[0] == 0:
        return rows
    return np.concatenate([rows, np.repeat(rows[-1:], short, axis=0)])


@dataclass(frozen=True, eq=False)
class ParamBox:
    """Axis-aligned box of admissible parameter vectors.

    Parameters
    ----------
    lower, upper : array_like
        Per-axis bounds.  Every axis must satisfy ``lower < upper`` strictly;
        an empty or inverted box raises :class:`DomainError`.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.ndim != 1 or hi.ndim != 1 or lo.shape != hi.shape:
            raise DomainError("box bounds must be 1-D arrays of equal length")
        if lo.size == 0:
            raise DomainError("box must have at least one axis")
        if not np.all(np.isfinite(lo)) or not np.all(np.isfinite(hi)):
            raise DomainError("box bounds must be finite")
        if not np.all(lo < hi):
            raise DomainError(f"empty box: lower={lo} upper={hi}")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` uniform parameter vectors, shape ``(n, dim)``."""
        return rng.uniform(self.lower, self.upper, size=(n, self.dim))

    def grid(self, points_per_axis) -> np.ndarray:
        """Regular evaluation lattice over the box, shape ``(prod(points), dim)``.

        Rows are emitted in row-major order (last axis fastest), endpoints
        included.
        """
        counts = np.broadcast_to(np.asarray(points_per_axis, dtype=int), (self.dim,))
        if np.any(counts < 1):
            raise DomainError("points_per_axis must be >= 1")
        axes = [
            np.linspace(self.lower[a], self.upper[a], int(counts[a]))
            for a in range(self.dim)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


class TIKernel:
    """Translation-invariant kernel of a unit-norm atom family.

    Subclasses implement :meth:`_eval_batch` on a ``(n, dim)`` stack of
    displacements.  The kernel must be even with ``eval(0) == 1``.
    """

    dim: int

    def __init__(self, dim: int):
        if int(dim) < 1:
            raise DomainError("kernel dimension must be >= 1")
        self.dim = int(dim)

    def _eval_batch(self, deltas: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def eval(self, delta):
        """Kernel value at one displacement, or at a stack of displacements."""
        deltas, single = as_param_array(delta, self.dim, name="delta")
        vals = self._eval_batch(deltas)
        return float(vals[0]) if single else vals

    __call__ = eval


class GaussianIsotropicKernel(TIKernel):
    """Correlation kernel of isotropic Gaussian atoms with width ``sigma``.

    Two unit-norm Gaussian bumps whose centers differ by ``delta`` have
    inner product ``exp(-||delta||^2 / (4 sigma^2))``, in any dimension.
    """

    def __init__(self, sigma: float, dim: int = 1):
        super().__init__(dim)
        sigma = float(sigma)
        if not (sigma > 0.0) or not math.isfinite(sigma):
            raise DomainError(f"sigma must be positive and finite, got {sigma}")
        scale = 4.0 * sigma * sigma
        if scale == 0.0 or not math.isfinite(scale) or not math.isfinite(1.0 / scale):
            raise DomainError(f"sigma {sigma} is out of range: 4 sigma^2 = {scale}")
        self.sigma = sigma

    def _eval_batch(self, deltas: np.ndarray) -> np.ndarray:
        sq = np.sum(deltas * deltas, axis=1)
        with np.errstate(over="ignore"):  # a tiny sigma overflows to -inf: exp gives 0
            return np.exp(-sq / (4.0 * self.sigma**2))

    def cross(self, x, y) -> np.ndarray:
        """Kernel matrix ``kappa(x_i - y_j)`` between two point stacks, shape ``(n, m)``.

        The kernel is a product of one factor per axis, so this takes one
        ``(n, U_a)`` table of exponentials per axis, ``U_a`` the number of
        distinct coordinates of ``y`` on that axis, and never forms the
        ``n m`` displacements.  In one dimension the values equal
        :meth:`eval` at ``x_i - y_j`` bit for bit.  The result is
        C-contiguous, like :meth:`eval` of the displacements reshaped.
        """
        xs, _ = as_param_array(x, self.dim)
        ys, _ = as_param_array(y, self.dim)
        scale = -(4.0 * self.sigma**2)
        out = None
        for a in range(self.dim):
            coords, inverse = np.unique(ys[:, a], return_inverse=True)
            factor = xs[:, a, None] - coords
            np.multiply(factor, factor, out=factor)
            with np.errstate(over="ignore"):  # a tiny sigma overflows to -inf: exp gives 0
                np.divide(factor, scale, out=factor)
            np.exp(factor, out=factor)
            if not np.array_equal(inverse, np.arange(ys.shape[0])):  # y not sorted and distinct
                factor = np.take(factor, inverse, axis=1)
            if out is None:
                out = factor
            else:
                out *= factor
        return out

    def __repr__(self) -> str:
        return f"GaussianIsotropicKernel(sigma={self.sigma}, dim={self.dim})"


@dataclass(frozen=True, eq=False)
class DiscreteEmbedding:
    """Finite sampling of the Gaussian atom family on a regular grid.

    Atoms are evaluated on a tensor-product lattice over ``[lower, upper]``,
    scaled by the square root of the cell volume so that discrete inner
    products approximate their continuous counterparts, then renormalized to
    unit Euclidean norm.  ``atom`` raises :class:`TruncationError` when more
    than ``truncation_tol`` of the atom's norm falls outside the window
    (measured against the same lattice extended to infinity).

    Attributes
    ----------
    kernel : GaussianIsotropicKernel
        Atom family being discretized.
    lower, upper : array_like
        Per-axis support of the sampling window.
    samples_per_axis : int or sequence of int
        Number of lattice points on each axis (endpoints included).
    """

    kernel: GaussianIsotropicKernel
    lower: np.ndarray
    upper: np.ndarray
    samples_per_axis: tuple
    truncation_tol: float = 1e-3

    def __post_init__(self) -> None:
        if not isinstance(self.kernel, GaussianIsotropicKernel):
            raise TypeError("DiscreteEmbedding requires a GaussianIsotropicKernel")
        box = ParamBox(self.lower, self.upper)  # validates the bounds
        if box.dim != self.kernel.dim:
            raise DomainError(
                f"window dimension {box.dim} != kernel dimension {self.kernel.dim}"
            )
        counts = np.broadcast_to(
            np.asarray(self.samples_per_axis, dtype=int), (box.dim,)
        ).copy()
        if np.any(counts < 2):
            raise DomainError("samples_per_axis must be >= 2")
        object.__setattr__(self, "lower", box.lower)
        object.__setattr__(self, "upper", box.upper)
        object.__setattr__(self, "samples_per_axis", tuple(int(c) for c in counts))

    @property
    def dim(self) -> int:
        return self.kernel.dim

    @cached_property
    def axes(self) -> tuple:
        return tuple(
            np.linspace(self.lower[a], self.upper[a], self.samples_per_axis[a])
            for a in range(self.dim)
        )

    @cached_property
    def steps(self) -> np.ndarray:
        return np.array(
            [
                (self.upper[a] - self.lower[a]) / (self.samples_per_axis[a] - 1)
                for a in range(self.dim)
            ]
        )

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.steps))

    @property
    def size(self) -> int:
        """Total number of lattice points (the ambient dimension of atom vectors)."""
        return int(np.prod(self.samples_per_axis))

    def _single(self, theta, name: str) -> np.ndarray:
        th, single = as_param_array(theta, self.dim, name=name)
        if not single and th.shape[0] != 1:
            raise DomainError(f"{name} must be a single parameter vector")
        return th[0]

    def truncation_deficits(self, thetas) -> np.ndarray:
        """Fraction of each atom's norm lost to the finite window.

        Computed per axis as the ratio between the squared-profile sum over
        the window lattice and over the same lattice extended far enough
        that all remaining terms are negligible: every lattice point within
        9 sigma of the atom center.  The ratio depends on one coordinate
        only, so it is computed once per distinct coordinate; a coordinate
        whose 9-sigma band lies inside the window loses exactly nothing,
        and the others are summed in chunks of at most ``_DEFICIT_CHUNK``
        lattice terms.
        """
        pts, _ = as_param_array(thetas, self.dim)
        sig = self.kernel.sigma
        ratio = np.ones(pts.shape[0])
        for a in range(self.dim):
            h, n, lo = self.steps[a], self.samples_per_axis[a], self.lower[a]
            t, inverse = np.unique(pts[:, a], return_inverse=True)
            k0 = np.floor((t - 9.0 * sig - lo) / h)
            k1 = np.ceil((t + 9.0 * sig - lo) / h)
            cut = np.flatnonzero((k0 < 0) | (k1 > n - 1))
            width = int(np.max(k1[cut] - k0[cut])) + 1 if cut.size else 0
            rows = max(1, _DEFICIT_CHUNK // max(width, 1))
            axis_ratio = np.ones(t.shape[0])
            for start in range(0, cut.size, rows):
                idx = cut[start : start + rows]
                k = k0[idx, None] + np.arange(width)
                x = lo + k * h - t[idx, None]
                with np.errstate(over="ignore"):  # a tiny sigma overflows to -inf: exp gives 0
                    full = np.exp(-(x * x) / (sig * sig))  # squared profile
                inside = (k >= 0) & (k <= n - 1)
                axis_ratio[idx] = np.sum(full * inside, axis=1) / np.sum(full, axis=1)
            ratio *= axis_ratio[inverse]
        return 1.0 - np.sqrt(ratio)

    def truncation_deficit(self, theta) -> float:
        """:meth:`truncation_deficits` of a single parameter vector."""
        return float(self.truncation_deficits(self._single(theta, "theta")[None, :])[0])

    def _deficit_bounds(self, pts: np.ndarray) -> np.ndarray:
        """Upper bounds on :meth:`truncation_deficits`, two exponentials per point and axis.

        With ``mass = sigma sqrt(pi) / h`` on an axis of step ``h``, the
        lattice terms beyond a window edge at distance ``D >= 0`` sum to at
        most ``mass / 2 * exp(-D^2 / sigma^2)``, and the 9-sigma band sums to
        at least ``mass - 1`` less its cut-off tails.  A point outside the
        window, or any point on an axis with ``mass <= 1``, gets the trivial
        bound 1.
        """
        sig = self.kernel.sigma
        kept = np.ones(pts.shape[0])
        for a in range(self.dim):
            mass = sig * math.sqrt(math.pi) / self.steps[a]
            band = mass - 1.0 - (mass + 2.0) * math.exp(-81.0)
            if band <= 0.0:
                return np.ones(pts.shape[0])
            d_lo = pts[:, a] - self.lower[a]
            d_hi = self.upper[a] - pts[:, a]
            out = 0.5 * mass * (np.exp(-(d_lo * d_lo) / sig**2) + np.exp(-(d_hi * d_hi) / sig**2))
            inside = (d_lo >= 0.0) & (d_hi >= 0.0)
            kept *= np.where(inside, np.maximum(1.0 - out / band, 0.0), 0.0)
        return 1.0 - np.sqrt(kept)

    def check_window(self, thetas) -> None:
        """Raise :class:`TruncationError` for the first atom the window cuts off.

        Exact deficits are computed only for the points whose
        :meth:`_deficit_bounds` do not already clear the tolerance.
        """
        pts, _ = as_param_array(thetas, self.dim)
        suspect = np.flatnonzero(self._deficit_bounds(pts) > self.truncation_tol)
        if not suspect.size:
            return
        deficits = self.truncation_deficits(pts[suspect])
        over = np.flatnonzero(deficits > self.truncation_tol)
        if over.size:
            i = over[0]
            raise TruncationError(
                f"atom at theta={pts[suspect[i]].tolist()} loses {deficits[i]:.3e} of its "
                f"norm outside the window (tolerance {self.truncation_tol:g})"
            )

    def atom(self, theta) -> np.ndarray:
        """Unit-norm sample vector of the atom at ``theta``, flattened row-major."""
        return self.atoms(self._single(theta, "theta")[None, :])[0]

    def atoms(self, thetas) -> np.ndarray:
        """Stack of unit-norm atoms, shape ``(n, size)``: outer products of axis profiles.

        Raises :class:`DomainError` for an atom with no mass on the lattice,
        whose every sample underflows.
        """
        pts, _ = as_param_array(thetas, self.dim)
        self.check_window(pts)
        n = pts.shape[0]
        out = np.ones((n, 1))
        for a in range(self.dim):
            x = self.axes[a] - pts[:, a, None]
            with np.errstate(over="ignore"):  # a tiny sigma overflows to -inf: exp gives 0
                profile = np.exp(-(x * x) / (2.0 * self.kernel.sigma**2))
            out = (out[:, :, None] * profile[:, None, :]).reshape(n, -1)
        for theta, row in zip(pts, out):
            norm = np.linalg.norm(row)  # the 1-D norm keeps each atom batch-independent
            if norm == 0.0:
                raise DomainError(
                    f"atom at theta={theta.tolist()} has no mass on the sampling "
                    f"lattice: sigma {self.kernel.sigma} is too small for its step"
                )
            row /= norm
        return out
