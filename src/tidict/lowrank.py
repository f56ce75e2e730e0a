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
the feature-map factorization of ``rc``.

With ``k = kappa(theta - theta_l)`` the exact cross terms, the squared
error is ``1 - 2 k^T G^-1 c + c^T G^-1 c``.  A block of points is solved
as rows, ``c G^-1``, through :meth:`GramSystem.solve_rows`: matrix
products against the eigenvectors of ``G`` that the Gram system computed
once.  Blocks shorter than 8 rows are padded (:func:`tidict.kernels.pad_rows`),
so that, with the BLAS build named there, a point's error and inner
products are the same bits whatever block it comes in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoValidDecomposition
from .gram import (
    CONDITION_LIMIT,
    RESIDUAL_TOL,
    GramSystem,
    NodeGrid,
    build_gram,
    decompose_grid,
    verify_decomposition,
)
from .kernels import ParamBox, TIKernel, as_param_array, pad_rows
from .raised_cosine import RaisedCosineKernel

__all__ = ["LowRankDictionary", "SelectAtomSettings"]

# points per block in LowRankDictionary.approx_error
_CHUNK = 4096


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
    tie_tol: float = 1e-12


class LowRankDictionary:
    """Rank-``L`` interpolating approximation of an atom family.

    Parameters
    ----------
    kernel : TIKernel
        Exact kernel of the continuous family.
    gram : GramSystem
        Node Gram matrix (factorized) of the family.
    rc : RaisedCosineKernel
        Raised-cosine kernel matching ``gram`` on all node differences.
    check : bool
        Verify the match on construction and raise
        :class:`NoValidDecomposition` if the residual exceeds
        ``residual_tol``.  Disable only to inspect invalid kernels.
    """

    def __init__(
        self,
        kernel: TIKernel,
        gram: GramSystem,
        rc: RaisedCosineKernel,
        residual_tol: float = RESIDUAL_TOL,
        check: bool = True,
    ):
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
        self.report = verify_decomposition(gram, rc, residual_tol=residual_tol)
        if check and self.report.residual > residual_tol:
            raise NoValidDecomposition(
                f"raised-cosine kernel misses the node Gram matrix by "
                f"{self.report.residual:.3e} (tolerance {residual_tol:g})"
            )

    @classmethod
    def from_kernel(
        cls,
        kernel: TIKernel,
        grid: NodeGrid,
        residual_tol: float = RESIDUAL_TOL,
        condition_limit: float = CONDITION_LIMIT,
    ) -> "LowRankDictionary":
        """Build the Gram system and its decomposition for a node grid."""
        gram = build_gram(kernel, grid, condition_limit=condition_limit)
        rc = decompose_grid(kernel, grid, residual_tol=residual_tol)
        return cls(kernel, gram, rc, residual_tol=residual_tol)

    # ------------------------------------------------------------------
    # basic geometry

    @property
    def rank(self) -> int:
        return self.gram.size

    @property
    def dim(self) -> int:
        return self.kernel.dim

    @property
    def nodes(self) -> np.ndarray:
        return self.gram.nodes

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
        Batched inputs are paired row by row.
        """
        a, single_a = as_param_array(theta, self.dim)
        b, single_b = as_param_array(theta_prime, self.dim)
        if a.shape[0] != b.shape[0]:
            raise DomainError("theta and theta_prime stacks must have equal length")
        c = self.coefficients(pad_rows(a))
        cp = self.coefficients(pad_rows(b))
        vals = np.sum(c * self.gram.solve_rows(cp), axis=1)[: a.shape[0]]
        return float(vals[0]) if single_a and single_b else vals

    def approx_error(self, theta):
        """Euclidean distance between the exact and approximated atom.

        Both atoms are unit-norm objects in the continuous space, so the
        error follows from inner products alone:
        ``sqrt(1 - 2 <a, a~> + <a~, a~>)``, clipped at zero before the
        square root to absorb roundoff.

        Points are taken ``_CHUNK`` at a time, so memory does not grow with
        the number of points beyond the result.
        """
        pts, single = as_param_array(theta, self.dim)
        err = np.empty(pts.shape[0])
        for start in range(0, pts.shape[0], _CHUNK):
            block = pts[start : start + _CHUNK]
            rows = pad_rows(block)
            c = self.coefficients(rows)
            k = self.kernel.cross(rows, self.nodes)
            solved = self.gram.solve_rows(c)
            approx = np.sum(c * solved, axis=1)
            cross = np.sum(k * solved, axis=1)
            sq = np.clip(1.0 - 2.0 * cross + approx, 0.0, None)
            err[start : start + block.shape[0]] = np.sqrt(sq[: block.shape[0]])
        return float(err[0]) if single else err

    # ------------------------------------------------------------------
    # continuous atom selection

    def _trig_coeffs(self, p: np.ndarray):
        """Collapse node sums: f(theta) = const + sum_k alpha_k cos + beta_k sin."""
        phases = self.nodes @ self.rc.freqs.T  # (L, K)
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
        are analytic), and returns the best maximizer with its value.
        Deterministic for fixed inputs; exact ties are broken toward the
        lexicographically smallest parameter vector.

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

        seeds = search.grid(settings.coarse_per_axis)
        vals = f_batch(seeds)
        order = sorted(
            range(seeds.shape[0]),
            key=lambda i: (-vals[i], tuple(seeds[i])),
        )
        starts = [seeds[i] for i in order[: settings.num_starts]]

        candidates = []
        for x0 in starts:
            x, fx = self._newton_ascent(
                f_grad_hess, x0, search.lower, search.upper, settings
            )
            candidates.append((x, fx))
        best = max(fx for _, fx in candidates)
        tied = [x for x, fx in candidates if fx >= best - settings.tie_tol]
        tied.sort(key=lambda x: tuple(x))
        theta = tied[0]
        return theta, float(f_batch(theta.reshape(1, -1))[0])

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
