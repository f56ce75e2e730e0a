"""Interpolating low-rank surrogate for a translation-invariant dictionary.

Given nodes ``theta_1 .. theta_L`` and a raised-cosine kernel ``rc`` that
reproduces the node Gram matrix, every atom of the continuous family is
approximated inside the node span:

    a(theta)  ~  sum_l c_l(theta) v_l,      c_l(theta) = rc(theta - theta_l),

where the dual atoms ``v_l`` carry the inverse Gram.  The surrogate family
inherits the translation-invariant structure: inner products between two
approximated atoms are raised-cosine evaluations again, so the
approximation quality and all downstream computations need kernel values
only, never explicit atom vectors.  The exact-rank property follows from
the feature-map factorization of ``rc``.  Every dictionary is built as
``LowRankDictionary(kernel, build_gram(kernel, grid))``, whose constructor
decomposes the grid and is the one place that decides whether the kernel
is acceptable: its ``structure``, :meth:`RaisedCosineKernel.validate`, and
its ``residual`` on the node differences.

With ``k = kappa(theta - theta_l)`` the exact cross terms, the squared
error is ``1 - 2 k^T G^-1 c + c^T G^-1 c``.  Both cross terms are taken
of differences to the node grid: ``k`` from the grid's axes, and ``c``
and atom selection's surrogate from phases relative to the first node,
so a grid far from 0 behaves as the same grid at 0.  A block of points
is solved as rows, ``c G^-1``, through :meth:`GramSystem.solve_rows`:
matrix products against the eigenvectors of ``G`` that the Gram system
computed once.  Every sweep takes its points in the fixed, padded blocks of
:func:`tidict.kernels.blocks`: memory does not grow with the points, and
results are deterministic, though a point's last bits may depend on its
block (see :func:`tidict.kernels.pad_rows`).  :meth:`approx_error`, like
the Taylor baseline's errors and the command line's CSV writer, runs its
blocks through :func:`tidict.kernels.sweep` on the calling thread and at
most one pool thread, which take alternate blocks, each writing into its
own workspace that the calling thread allocates once per call; its
results do not depend on the number of threads.  :meth:`approx_inner` and
the seeds of :meth:`select_atom` run in the calling thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, NoValidDecomposition
from .gram import RESIDUAL_TOL, GramSystem, NodeGrid, decompose_grid, verify_decomposition
from .kernels import GaussianIsotropicKernel, ParamBox, as_param_array, blocks, pad_rows, sweep
from .raised_cosine import RaisedCosineKernel

__all__ = ["LowRankDictionary", "SelectAtomSettings"]

# maximizers within this of the best value tie in LowRankDictionary.select_atom
_TIE_TOL = 1e-12


@dataclass(frozen=True)
class SelectAtomSettings:
    """Knobs of the continuous atom-selection solver.

    ``coarse_per_axis`` grid points seed the search; the best
    ``num_starts`` seeds are refined by damped projected Newton ascent
    until the (projected) gradient norm drops below ``grad_tol`` or
    ``max_iter`` iterations are spent.
    """

    coarse_per_axis: int = 32
    num_starts: int = 8
    max_iter: int = 50
    grad_tol: float = 1e-10


class LowRankDictionary:
    """Rank-``L`` interpolating approximation of an atom family.

    Parameters
    ----------
    kernel : GaussianIsotropicKernel
        Exact kernel of the continuous family.
    gram : GramSystem
        Node Gram matrix (factorized) of the family, from
        :func:`~tidict.gram.build_gram`; its grid holds the nodes.
    rc : RaisedCosineKernel, optional
        Raised-cosine kernel matching ``gram`` on all node differences;
        by default :func:`~tidict.gram.decompose_grid` of the grid.
    residual_tol : float
        Largest :attr:`residual` a kernel may have.
    check : bool
        Raise :class:`NoValidDecomposition` if :attr:`structure`, the
        :meth:`RaisedCosineKernel.validate` report, lists an issue or
        :attr:`residual`, the largest mismatch on the node differences,
        exceeds ``residual_tol``.  Both are taken on construction either
        way; disable only to inspect invalid kernels.  The dense
        :attr:`psd_margin` is formed on first read.
    """

    def __init__(
        self,
        kernel: GaussianIsotropicKernel,
        gram: GramSystem,
        rc: RaisedCosineKernel | None = None,
        residual_tol: float = RESIDUAL_TOL,
        check: bool = True,
    ):
        if rc is None:
            rc = decompose_grid(kernel, gram.grid)
        if rc.dim != kernel.dim:
            raise DomainError(
                f"raised-cosine dimension {rc.dim} != kernel dimension {kernel.dim}"
            )
        if rc.rank != gram.size:
            raise DomainError(
                f"raised-cosine rank {rc.rank} != node count {gram.size}"
            )
        self.kernel = kernel
        self.gram = gram
        self.rc = rc
        self.structure = rc.validate()
        self.residual = verify_decomposition(gram, rc)
        if check and not self.structure.ok:
            raise NoValidDecomposition(f"raised-cosine kernel is invalid: {self.structure}")
        if check and self.residual > residual_tol:
            raise NoValidDecomposition(
                f"raised-cosine kernel misses the node Gram matrix by "
                f"{self.residual:.3e} (tolerance {residual_tol:g})"
            )

    @cached_property
    def psd_margin(self) -> float:
        """Smallest eigenvalue of the dense ``L x L`` raised-cosine Gram, ``>= 0`` up to roundoff."""
        g = self.rc.cross(self.nodes, self.nodes)
        return float(np.linalg.eigvalsh(0.5 * (g + g.T))[0])

    # ------------------------------------------------------------------
    # basic geometry

    @property
    def rank(self) -> int:
        return self.gram.size

    @property
    def dim(self) -> int:
        return self.kernel.dim

    @property
    def grid(self) -> NodeGrid:
        return self.gram.grid

    @property
    def nodes(self) -> np.ndarray:
        return self.grid.nodes

    def coefficients(self, theta) -> np.ndarray:
        """Interpolation coefficients ``c_l(theta) = rc(theta - theta_l)``.

        Shape ``(L,)`` for a single parameter, ``(n, L)`` for a stack.  A
        row's values do not depend on the stack it comes in.
        """
        pts, single = as_param_array(theta, self.dim)
        c = self.rc.cross(pad_rows(pts), self.nodes)[: pts.shape[0]]
        return c[0] if single else c

    # ------------------------------------------------------------------
    # inner products and errors

    def approx_inner(self, theta, theta_prime):
        """Inner product between two *approximated* atoms.

        Equals ``rc(theta - theta_prime)`` up to roundoff; computed here
        through the Gram solve so it reflects the actual surrogate.
        Batched inputs are paired row by row, and taken in the blocks of
        :func:`tidict.kernels.blocks`.
        """
        a, single_a = as_param_array(theta, self.dim)
        b, single_b = as_param_array(theta_prime, self.dim)
        if a.shape[0] != b.shape[0]:
            raise DomainError("theta and theta_prime stacks must have equal length")
        vals = np.empty(a.shape[0])
        for dst, ra, rb in blocks(vals, a, b):
            c, cp = self.coefficients(ra), self.coefficients(rb)
            dst[:] = np.sum(c * self.gram.solve_rows(cp), axis=1)[: len(dst)]
        return float(vals[0]) if single_a and single_b else vals

    def approx_error(self, theta):
        """Euclidean distance between the exact and approximated atom.

        Both atoms are unit-norm objects in the continuous space, so the
        error follows from inner products alone:
        ``sqrt(1 - 2 <a, a~> + <a~, a~>)``, clipped at zero before the
        square root to absorb roundoff.

        Points are taken in the blocks of :func:`tidict.kernels.blocks` by
        :func:`tidict.kernels.sweep`: the calling thread and at most one
        pool thread, taking alternate blocks.  Each worker writes a
        block's coefficients, solve and kernel values into its own
        workspace of four ``(B, L)`` arrays, ``B`` the first block's
        length, which the calling thread allocates once per call; the
        raised-cosine phases and cosine table, ``(B, K)`` each, are taken
        in the two arrays that the solve and the kernel values fill
        later, which hold ``max(L, K)`` columns for a kernel with more
        terms than ``L / 2``.  Nothing else of size ``B L`` is allocated,
        on any grid.  The errors do not depend on the number of workers.
        """
        pts, single = as_param_array(theta, self.dim)
        err = np.empty(pts.shape[0])
        nodes = self.nodes
        rank, terms = self.rank, self.rc.num_terms

        def workspace(rows):
            return np.empty((4, rows * max(rank, terms)))

        def body(dst, ws, rows):
            n = rows.shape[0]
            c, t, x, r = (w[: n * rank].reshape(n, rank) for w in ws)
            # the phases and cosines are dead once the solve writes x and r
            phase, trig = (w[: n * terms].reshape(n, terms) for w in ws[2:])
            self.rc.cross(rows, nodes, out=c, scratch=(phase, trig, t))
            self.gram.solve_rows(c, out=x, scratch=(t, r))
            k = self.kernel.cross(rows, self.grid.axes, out=r)
            approx = np.multiply(c, x, out=t).sum(axis=1)
            cross = np.multiply(k, x, out=t).sum(axis=1)
            sq = np.clip(1.0 - 2.0 * cross + approx, 0.0, None)
            dst[:] = np.sqrt(sq[: len(dst)])

        sweep(body, err, pts, workspace=workspace)
        return float(err[0]) if single else err

    # ------------------------------------------------------------------
    # continuous atom selection

    def _trig_coeffs(self, p: np.ndarray):
        """Collapse node sums: f(origin + t) = const + sum_k alpha_k cos(w_k . t) + beta_k sin(w_k . t)."""
        phases = (self.nodes - self.grid.origin) @ self.rc.freqs.T  # (L, K)
        const = float(self.rc.lambda0 * np.sum(p))
        alpha = self.rc.weights * (p @ np.cos(phases))
        beta = self.rc.weights * (p @ np.sin(phases))
        return const, alpha, beta

    def select_atom(
        self,
        projections: np.ndarray,
        search: ParamBox,
        settings: SelectAtomSettings | None = None,
    ) -> tuple[np.ndarray, float]:
        """Continuously maximize the correlation surrogate over a box.

        Seeds a coarse lattice, refines the best seeds by damped projected
        Newton ascent on the trigonometric surrogate (gradient and Hessian
        are analytic), and returns the best maximizer with its value.  The
        seeds are evaluated in the blocks of :func:`tidict.kernels.blocks`,
        and ranked by one stable sort on the value, keeping the lexicographic
        order of :meth:`ParamBox.grid` among ties.  Deterministic for fixed
        inputs; exact ties, among seeds and among maximizers, are broken
        toward the lexicographically smallest parameter vector.  The seeds
        and the ascent run in coordinates relative to the grid origin, which
        is added back to the result.

        Returns
        -------
        (theta, value) : (np.ndarray, float)
            Argmax of shape ``(dim,)`` and the surrogate value there.
        """
        if settings is None:
            settings = SelectAtomSettings()
        if search.dim != self.dim:
            raise DomainError(
                f"search box dimension {search.dim} != dictionary dimension {self.dim}"
            )
        p = np.asarray(projections, dtype=float)
        if p.shape != (self.rank,):
            raise DomainError(f"projections must have shape ({self.rank},)")
        if not np.all(np.isfinite(p)):
            raise DomainError("projections must be finite")
        const, alpha, beta = self._trig_coeffs(p)
        freqs = self.rc.freqs
        # the search runs relative to the grid origin, where the phases keep their digits
        origin = self.grid.origin
        lower, upper = search.lower - origin, search.upper - origin

        if self.rc.num_terms == 0:
            # constant surrogate: every point is optimal, return the smallest
            return search.lower.copy(), const

        def f_batch(pts: np.ndarray) -> np.ndarray:
            ph = pts @ freqs.T
            return const + np.cos(ph) @ alpha + np.sin(ph) @ beta

        def f_grad_hess(x: np.ndarray):
            ph = freqs @ x
            cos, sin = np.cos(ph), np.sin(ph)
            val = const + cos @ alpha + sin @ beta
            amp = -alpha * sin + beta * cos
            grad = freqs.T @ amp
            curv = alpha * cos + beta * sin
            hess = -(freqs.T * curv) @ freqs
            return float(val), grad, hess

        seeds = search.grid(settings.coarse_per_axis) - origin
        vals = np.empty(seeds.shape[0])
        for dst, rows in blocks(vals, seeds):
            dst[:] = f_batch(rows)[: len(dst)]
        # best value first; the seeds are lexicographic, so ties go to the smallest
        order = np.argsort(-vals, kind="stable")
        starts = seeds[order[: settings.num_starts]]

        candidates = []
        for x0 in starts:
            x, fx = self._newton_ascent(f_grad_hess, x0, lower, upper, settings)
            candidates.append((x, fx))
        best = max(fx for _, fx in candidates)
        tied = [x for x, fx in candidates if fx >= best - _TIE_TOL]
        tied.sort(key=lambda x: tuple(x))
        theta = tied[0]
        return origin + theta, float(f_batch(theta.reshape(1, -1))[0])

    @staticmethod
    def _newton_ascent(f_grad_hess, x0, lower, upper, settings):
        """Damped Newton ascent projected onto box bounds."""
        x = np.clip(x0, lower, upper)
        fx, grad, hess = f_grad_hess(x)
        for _ in range(settings.max_iter):
            free = grad.copy()
            free[(x <= lower) & (grad < 0.0)] = 0.0
            free[(x >= upper) & (grad > 0.0)] = 0.0
            if np.linalg.norm(free) <= settings.grad_tol:
                break
            try:
                np.linalg.cholesky(-hess)  # definiteness test
                step = np.linalg.solve(-hess, grad)
            except np.linalg.LinAlgError:
                step = grad  # Hessian not negative definite here: steepest ascent
            if step @ grad <= 0.0:
                step = grad
            moved = False
            t = 1.0
            while t >= 2.0**-40:
                xn = np.clip(x + t * step, lower, upper)
                fn, gn, hn = f_grad_hess(xn)
                # non-strict acceptance: near a maximum the value plateaus at
                # float resolution long before the position has converged
                if fn >= fx and not np.array_equal(xn, x):
                    x, fx, grad, hess = xn, fn, gn, hn
                    moved = True
                    break
                t *= 0.5
            if not moved:
                break
        return x, fx
