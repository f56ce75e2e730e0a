"""Parameter domains, translation-invariant kernels, and discretized atoms.

A parametric dictionary maps every parameter vector ``theta`` in a
``d``-dimensional box to a unit-norm atom in some Hilbert space.  The
families handled here are *translation invariant*: the inner product of two
atoms depends only on the parameter displacement, so a single even kernel
``kappa`` with ``kappa(0) = 1`` describes the whole continuum of atoms.

All core computations downstream (Gram matrices, low-rank constructions,
error formulas, the Taylor baseline) consume kernel evaluations only and
never touch explicit atom vectors.  :class:`DiscreteEmbedding` is the one
place where atoms are sampled or correlated with a sampled signal: atom
selection's test atom, node projections and fine-grid oracle, oracles and
demos.  Its window check guards only those atoms; the closed-form errors
of the surrogate and of the Taylor baseline read no window.  Node grids
and evaluation grids alike are laid out by :func:`lattice`, and the
Gaussian cross term reads a node grid by its axes, one table per axis.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, TruncationError

# lattice terms summed at once by DiscreteEmbedding.truncation_deficits
_DEFICIT_CHUNK = 1 << 20
# rows per block of blocks(), the block rule of every per-point sweep
_CHUNK = 4096
# pad_rows hands a matrix product a multiple of this many rows
_MIN_GEMM_ROWS = 8
# most threads sweep() runs: each worker holds one block and its workspace
# in flight, and a gain was measured only on 2 CPUs
_MAX_WORKERS = 2
# first-axis rows per slab of DiscreteEmbedding.correlation_slabs, a multiple of _MIN_GEMM_ROWS
_SLAB_ROWS = 16
# most float64 values in one numpy array, whose size in bytes is at most intp's largest
_MAX_FLOATS = np.iinfo(np.intp).max // 8

__all__ = [
    "ParamBox",
    "GaussianIsotropicKernel",
    "DiscreteEmbedding",
    "as_param_array",
    "lattice",
    "lattice_size",
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
    """``rows``, with its last row repeated up to a multiple of ``_MIN_GEMM_ROWS`` rows.

    OpenBLAS may sum a row of a product in another order in a block of
    another length: a block of up to 5 rows against a transposed 108-column
    operand, or the tail rows of a Gram substitution in a block whose
    length is not a multiple of 8.  Callers pad a block before its matrix
    products and keep the first ``rows.shape[0]`` rows.  On OpenBLAS 0.3.31
    (``DYNAMIC_ARCH``) on an AVX-512 Xeon that gave a row's errors and
    solves the same bits in any block on the tests' grids, but not the
    Taylor errors on 20 nodes: the padding is no guarantee.
    """
    short = -rows.shape[0] % _MIN_GEMM_ROWS
    if short == 0:
        return rows
    return np.concatenate([rows, np.repeat(rows[-1:], short, axis=0)])


def blocks(out: np.ndarray, *stacks: np.ndarray):
    """Walk row stacks ``_CHUNK`` rows at a time, alongside their result ``out``.

    Yields ``(dst, *rows)`` per block: ``rows`` holds each stack's block,
    padded by :func:`pad_rows`, and ``dst`` is that block's slice of
    ``out``.  The caller writes the first ``len(dst)`` values of its
    per-row result into ``dst``, so memory does not grow with the number
    of rows beyond ``out`` and the stacks.  The loop body stays in the
    caller's frame, so a block's temporaries live until the next block
    rebinds them, and the allocator reuses their memory rather than
    returning it to the system between blocks.
    """
    for start in range(0, out.shape[0], _CHUNK):
        stop = start + _CHUNK
        yield (out[start:stop], *(pad_rows(s[start:stop]) for s in stacks))


def sweep(body, out: np.ndarray, *stacks: np.ndarray, workspace, then=None) -> None:
    """Run ``body(dst, ws, *rows)`` on every block of :func:`blocks`, on up to ``_MAX_WORKERS`` threads.

    ``workspace(rows)`` returns the buffers that ``body`` writes into for
    blocks of up to ``rows`` rows.  The workers are as many as there are
    blocks, CPUs this process may run on, and ``_MAX_WORKERS``, whichever
    is fewest.  Worker ``w`` runs blocks ``w``, ``w + workers``, ... in its
    own workspace ``w``.  The calling thread is worker 0; a pool of the
    other workers is made for the call and shut down before it returns.
    Each block writes only its own ``dst``, so the results do not depend
    on the number of workers.  ``body`` and ``then`` must not enter a
    traced span, whose tracer keeps one stack.

    ``then(result)``, if given, takes what ``body`` returned for each
    block, in block order: the worker that ran a block waits until the
    blocks before it are through ``then``, so a result may live in its
    worker's workspace.  When a block raises, the other workers stop at
    their next block or turn, and the calling thread raises the error.

    The calling thread makes every workspace, sized for the first block,
    which is the longest, so memory is workers x one workspace, whatever
    the number of rows.  Workers that allocated their own temporaries
    needed less code and were as fast, but raised cond-1d's
    ``peak_rss_mb`` from 56.2 to 66.3 MB: the worker threads' malloc
    arenas keep freed blocks resident.
    """
    parts = list(blocks(out, *stacks))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(len(parts), cpus, _MAX_WORKERS)
    spaces = [workspace(len(parts[0][-1])) for _ in range(workers)]
    turn = threading.Condition()
    done, failed = 0, False  # blocks through then; whether a worker raised

    def share(w):
        nonlocal done, failed
        try:
            for i in range(w, len(parts), workers):
                if failed:
                    return
                dst, *block = parts[i]
                result = body(dst, spaces[w], *block)
                if then is not None:
                    with turn:
                        turn.wait_for(lambda: done == i or failed)
                        if failed:
                            return
                        then(result)
                        done += 1
                        turn.notify_all()
        except BaseException:
            with turn:
                failed = True
                turn.notify_all()
            raise

    if workers == 1:
        share(0)
    elif workers:
        # imported here: at module level it would add to every start-up
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers - 1) as pool:
            futures = [pool.submit(share, w) for w in range(1, workers)]
            share(0)
            for future in futures:
                future.result()


def _gaussian(d: np.ndarray, scale: float, axis: int | None = None) -> np.ndarray:
    """``exp(-d**2 / scale)`` of the displacements ``d``, their squares summed over ``axis`` if given.

    Without ``axis`` the result is made in place in ``d``, which is
    returned.  The one Gaussian evaluation of this module: a displacement
    of about 1.3e154 or more overflows its square to ``inf``, a tiny
    ``scale`` the quotient to ``-inf``, and ``exp`` gives 0.
    """
    with np.errstate(over="ignore"):
        sq = np.multiply(d, d, out=d) if axis is None else np.sum(d * d, axis=axis)
        np.divide(sq, -scale, out=sq)
    return np.exp(sq, out=sq)


def int_counts(counts, name: str) -> np.ndarray:
    """``counts`` as an int array; a count of 2**63 or more, past numpy's ints, is a :class:`DomainError`."""
    try:
        return np.asarray(counts, dtype=int)
    except OverflowError:
        raise DomainError(f"{name} {counts}: a count of 2**63 or more is out of range") from None


def lattice_size(counts) -> int:
    """``prod(counts)``, exact; more than a float64 array can hold, ``_MAX_FLOATS``, is a :class:`DomainError`.

    Every array whose size a config count sets is checked here first, so
    numpy's ``ValueError`` for too big an array is never reached.
    """
    if (size := math.prod(map(int, counts))) > _MAX_FLOATS:
        raise DomainError(f"an array of {size} values is out of range (at most {_MAX_FLOATS})")
    return size


def lattice(axes) -> np.ndarray:
    """Points of the lattice ``axes[0] x ... x axes[d-1]``, shape ``(prod(len), d)``.

    Row-major (the last axis varies fastest), with the coordinates' bits.
    """
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def axis_products(mats, block: np.ndarray) -> np.ndarray:
    """The C-order tensor ``block``, ``(n_0, ..., n_{d-1}, rest)``, with ``mats[a]`` (``m_a x n_a``) on axis ``a``.

    Each axis is one product stacked over the axes before it, never over
    ``rest``; an axis with nothing after it, ``rest = 1``, is one
    ``(done, n_a) @ mats[a].T`` product instead of ``done`` stacked
    matrix-vector ones.
    """
    done = 1
    for m in mats:
        src = block.reshape(done, m.shape[1], -1)
        block = src[:, :, 0] @ m.T if src.shape[2] == 1 else np.matmul(m, src)
        done *= m.shape[0]
    return block


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
        lattice_size([n, self.dim])
        return rng.uniform(self.lower, self.upper, size=(n, self.dim))

    def _counts(self, points_per_axis) -> np.ndarray:
        """``points_per_axis`` as one count per axis, each at least 1."""
        counts = np.broadcast_to(int_counts(points_per_axis, "points_per_axis"), (self.dim,))
        if np.any(counts < 1):
            raise DomainError("points_per_axis must be >= 1")
        return counts

    def axes(self, points_per_axis) -> list[np.ndarray]:
        """Evenly spaced coordinates on each axis, endpoints included, ascending."""
        counts = self._counts(points_per_axis)
        return [np.linspace(lo, hi, lattice_size([c])) for lo, hi, c in zip(self.lower, self.upper, counts)]

    def grid(self, points_per_axis) -> np.ndarray:
        """The :func:`lattice` of :meth:`axes`, so its rows are in lexicographic order."""
        lattice_size([*self._counts(points_per_axis), self.dim])  # the (points, dim) array
        return lattice(self.axes(points_per_axis))


class GaussianIsotropicKernel:
    """Correlation kernel of isotropic Gaussian atoms with width ``sigma``.

    Two unit-norm Gaussian bumps whose centers differ by ``delta`` have
    inner product ``exp(-||delta||^2 / (4 sigma^2))``, in any dimension:
    a translation-invariant kernel, even, with ``eval(0) == 1``.
    """

    def __init__(self, sigma: float, dim: int = 1):
        if int(dim) < 1:
            raise DomainError("kernel dimension must be >= 1")
        self.dim = int(dim)
        sigma = float(sigma)
        if not (sigma > 0.0) or not math.isfinite(sigma):
            raise DomainError(f"sigma must be positive and finite, got {sigma}")
        scale = 4.0 * sigma * sigma
        if scale == 0.0 or not math.isfinite(scale) or not math.isfinite(1.0 / scale):
            raise DomainError(f"sigma {sigma} is out of range: 4 sigma^2 = {scale}")
        self.sigma = sigma

    def eval(self, delta):
        """Kernel value at one displacement, or at a stack of displacements."""
        deltas, single = as_param_array(delta, self.dim, name="delta")
        vals = _gaussian(deltas, 4.0 * self.sigma**2, axis=1)
        return float(vals[0]) if single else vals

    def axis_factor(self, x, y, out: np.ndarray | None = None) -> np.ndarray:
        """One axis's factor ``exp(-(x_i - y_j)^2 / (4 sigma^2))``, shape ``x.shape + y.shape``.

        ``x`` and ``y`` are coordinates on one axis.  The kernel is the
        product of this factor over the axes, and along one axis it equals
        :meth:`eval` bit for bit.  ``out`` receives the result.
        """
        return _gaussian(np.subtract.outer(x, y, out=out), 4.0 * self.sigma**2)

    def cross(self, x, axes, out: np.ndarray | None = None) -> np.ndarray:
        """Kernel matrix ``kappa(x_i - theta_l)`` against a grid's nodes, shape ``(n, L)``.

        ``axes`` are the grid's coordinates per axis (``NodeGrid.axes``) and
        the nodes their :func:`lattice`.  One ``(n, len(axes[a]))``
        :meth:`axis_factor` table per axis is multiplied in, in axis order,
        by broadcasting into ``out`` viewed as ``(n, len(axes[0]), ...)``; in
        1-D the table is built in ``out``, equal to :meth:`eval` bit for bit.
        So nothing of size ``n L`` is allocated but ``out``, which must be a
        C-contiguous ``(n, L)`` float array, or :class:`DomainError` is raised.
        """
        xs, _ = as_param_array(x, self.dim)
        counts = tuple(len(coords) for coords in axes)
        shape = (xs.shape[0], math.prod(counts))
        out = np.empty(shape) if out is None else out
        if len(counts) != self.dim or out.shape != shape or not out.flags.c_contiguous:
            raise DomainError(f"need {self.dim} axes and a C-contiguous {shape} float array")
        view = out.reshape(xs.shape[0], *counts)
        for a, coords in enumerate(axes):
            table = self.axis_factor(xs[:, a], coords, out=out if self.dim == 1 else None)
            table = table.reshape(shape[:1] + tuple(c if b == a else 1 for b, c in enumerate(counts)))
            if a == 0:
                view[...] = table  # in 1-D table is out, and numpy copies nothing
            else:
                view *= table
            del table  # so that the next axis's table is not made beside it
        return out

    def __repr__(self) -> str:
        return f"GaussianIsotropicKernel(sigma={self.sigma}, dim={self.dim})"


@dataclass(frozen=True, eq=False)
class DiscreteEmbedding:
    """Finite sampling of the Gaussian atom family on a regular grid.

    An atom is the outer product of one Gaussian profile per axis, sampled
    on a tensor-product lattice over ``[lower, upper]`` and normalized to
    unit Euclidean norm.  :meth:`check_window` raises :class:`TruncationError`
    when more than ``truncation_tol`` of an atom's norm falls outside the
    window (measured against the same lattice extended to infinity): for
    ``atom``, ``atoms``, and atom selection's test atom and nodes.
    :meth:`correlation_slabs` correlates a signal with a lattice of atoms
    one axis at a time and one slab of first-axis rows at a time, and
    samples none of them; :meth:`correlations` stacks its slabs, and
    :meth:`atoms` is their reference.  :meth:`add_atom` adds an atom into a
    signal tensor in place, so that atom selection holds one signal
    tensor plus one slab.

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
            int_counts(self.samples_per_axis, "samples_per_axis"), (box.dim,)
        ).copy()
        if np.any(counts < 2):
            raise DomainError("samples_per_axis must be >= 2")
        object.__setattr__(self, "lower", box.lower)
        object.__setattr__(self, "upper", box.upper)
        object.__setattr__(self, "samples_per_axis", tuple(int(c) for c in counts))
        lattice_size(self.samples_per_axis)  # refuses 2**63 samples or more

    @property
    def dim(self) -> int:
        return self.kernel.dim

    @cached_property
    def axes(self) -> tuple:
        """Sample coordinates on each axis: ``ParamBox.axes`` of the window."""
        return tuple(ParamBox(self.lower, self.upper).axes(self.samples_per_axis))

    @cached_property
    def steps(self) -> np.ndarray:
        return np.array(
            [
                (self.upper[a] - self.lower[a]) / (self.samples_per_axis[a] - 1)
                for a in range(self.dim)
            ]
        )

    @property
    def size(self) -> int:
        """Total number of lattice points (the ambient dimension of atom vectors)."""
        return lattice_size(self.samples_per_axis)

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
                full = _gaussian(x, sig * sig)  # squared profile
                inside = (k >= 0) & (k <= n - 1)
                axis_ratio[idx] = np.sum(full * inside, axis=1) / np.sum(full, axis=1)
            ratio *= axis_ratio[inverse]
        return 1.0 - np.sqrt(ratio)

    def check_window(self, thetas) -> None:
        """Raise :class:`TruncationError` for the first atom the window cuts off.

        Computes the exact :meth:`truncation_deficits` of every point.
        """
        pts, _ = as_param_array(thetas, self.dim)
        deficits = self.truncation_deficits(pts)
        over = np.flatnonzero(deficits > self.truncation_tol)
        if over.size:
            i = over[0]
            raise TruncationError(
                f"atom at theta={pts[i].tolist()} loses {deficits[i]:.3e} of its "
                f"norm outside the window (tolerance {self.truncation_tol:g})"
            )

    def atom(self, theta) -> np.ndarray:
        """Unit-norm sample vector of the atom at ``theta``, flattened row-major."""
        return self.atoms(self._single(theta, "theta")[None, :])[0]

    def atoms(self, thetas) -> np.ndarray:
        """Stack of unit-norm atoms, shape ``(n, size)``.

        The window is checked, and each row is :meth:`add_atom` into zeros,
        so it has that method's bits and its :class:`DomainError` for an
        atom with no mass on the lattice.
        """
        pts, _ = as_param_array(thetas, self.dim)
        self.check_window(pts)
        out = np.zeros((pts.shape[0], self.size))
        for row, theta in zip(out, pts):
            self.add_atom(row, theta)
        return out

    def add_atom(self, signal: np.ndarray, theta) -> None:
        """Add the unit-norm atom at ``theta`` to the ``size``-sample tensor ``signal`` in place.

        The atom is the outer product of the unit-norm axis profiles, added
        ``_SLAB_ROWS`` first-axis slices at a time, so no second tensor of
        ``size`` samples is formed.  :meth:`atom` and :meth:`atoms` are this
        atom added into zeros.  The window is not checked.  Raises
        :class:`DomainError` for a signal that is not a C-contiguous float
        array of ``size`` samples, and for an atom with no mass on the
        lattice.
        """
        if signal.size != self.size or signal.dtype != float or not signal.flags.c_contiguous:
            raise DomainError(f"need a C-contiguous float tensor of {self.size} samples")
        th = self._single(theta, "theta")
        first, *others = (self._unit_profiles(a, th[a : a + 1])[0] for a in range(self.dim))
        rest = np.ones(1)
        for profile in others:
            rest = np.multiply.outer(rest, profile).ravel()
        rows = signal.reshape(first.shape[0], -1)
        for start in range(0, first.shape[0], _SLAB_ROWS):
            rows[start : start + _SLAB_ROWS] += np.multiply.outer(first[start : start + _SLAB_ROWS], rest)

    def correlation_slabs(self, signal, axes):
        """Yield ``(start, slab)``: ``<a(theta), signal>`` on first-axis rows ``start:start + len(slab)``.

        The slabs stack to the tensor of shape ``(len(axes[0]), ...)`` over
        the :func:`lattice` of ``axes``.  Each slab is ``_SLAB_ROWS``
        first-axis rows high, and a tail shorter than ``_MIN_GEMM_ROWS``
        rows joins the previous slab, so that with the BLAS build named in
        :func:`pad_rows` a value has the same bits in any slab.  The
        ``(m_a, n_a)`` matrices of unit-norm axis profiles are built once;
        each slab contracts the signal tensor (``size`` samples) with them
        axis by axis, so no atom is formed and the window is not checked.
        Raises :class:`DomainError` for a signal of another size, and for a
        coordinate whose profile has no mass on the sampling lattice.
        """
        t = np.asarray(signal, dtype=float)
        if t.size != self.size or len(axes) != self.dim:
            raise DomainError(f"need {self.size} samples and {self.dim} axes, got {t.size} and {len(axes)}")
        profiles = [self._unit_profiles(a, np.asarray(c, dtype=float)) for a, c in enumerate(axes)]
        shape = tuple(p.shape[0] for p in profiles)
        starts = list(range(0, shape[0], _SLAB_ROWS)) or [0]
        if len(starts) > 1 and shape[0] - starts[-1] < _MIN_GEMM_ROWS:
            starts.pop()  # a short tail joins the previous slab
        for start, stop in zip(starts, starts[1:] + [shape[0]]):
            block = axis_products([profiles[0][start:stop], *profiles[1:]], t)
            yield start, block.reshape((stop - start,) + shape[1:])

    def correlations(self, signal, axes) -> np.ndarray:
        """The whole tensor of :meth:`correlation_slabs`, its slabs stacked."""
        return np.concatenate([slab for _, slab in self.correlation_slabs(signal, axes)])

    def _unit_profiles(self, a: int, coords: np.ndarray) -> np.ndarray:
        """Unit-norm axis-``a`` profiles of atoms centred at ``coords``, shape ``(len(coords), n_a)``.

        A profile with no mass on the lattice raises :class:`DomainError`.
        """
        profile = _gaussian(self.axes[a] - coords[:, None], 2.0 * self.kernel.sigma**2)
        norms = np.linalg.norm(profile, axis=1)
        if not np.all(norms > 0.0):
            raise DomainError(
                f"atoms at theta[{a}]={float(coords[np.argmin(norms)])} have no mass on the "
                f"sampling lattice: sigma {self.kernel.sigma} is too small for its step"
            )
        profile /= norms[:, None]
        return profile
