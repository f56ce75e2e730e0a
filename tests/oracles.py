"""Independent reference computations used to cross-check the library.

Everything here is deliberately naive: exhaustive frequency searches,
explicit embedded-space linear algebra and sampled derivative atoms,
sharing no code with the solvers under test.
"""

import math
from functools import reduce

import mpmath
import numpy as np
import scipy.optimize

from tidict import multi_indices


def brute_force_cosine_fit(first_row, spacing, grid_points=200):
    """Exhaustive-search fit of a cosine sum to a Gram first row.

    Scans all frequency combinations on a coarse lattice over (0, pi)
    (weights fitted by least squares at every candidate), then polishes the
    best candidate with a derivative-free simplex search on the same max
    residual.  Returns ``(lambda0, weights, freqs)`` with frequencies in
    parameter units, sorted ascending.  Supports one or two frequencies.
    """
    g = np.asarray(first_row, dtype=float)
    L = g.shape[0]
    K = L // 2
    odd = L % 2 == 1
    m = np.arange(L)

    def fit(steps):
        design = np.cos(np.outer(m, steps))
        if odd:
            design = np.column_stack([np.ones(L), design])
        lam, *_ = np.linalg.lstsq(design, g, rcond=None)
        return float(np.max(np.abs(design @ lam - g))), lam

    ws = np.linspace(1e-3, np.pi - 1e-3, grid_points)
    if K == 1:
        candidates = (ws[i : i + 1] for i in range(grid_points))
    elif K == 2:
        candidates = (
            np.array([ws[i], ws[j]])
            for i in range(grid_points)
            for j in range(i + 1, grid_points)
        )
    else:
        raise ValueError("the brute-force oracle supports at most two frequencies")
    best = min(candidates, key=lambda s: fit(s)[0])
    polished = scipy.optimize.minimize(
        lambda s: fit(np.sort(np.abs(s)))[0],
        best,
        method="Nelder-Mead",
        options={"xatol": 1e-13, "fatol": 1e-15, "maxiter": 4000, "maxfev": 8000},
    )
    steps = np.sort(np.abs(polished.x))
    _, lam = fit(steps)
    lambda0 = float(lam[0]) if odd else 0.0
    weights = np.asarray(lam[1:] if odd else lam, dtype=float)
    return lambda0, weights, steps / float(spacing)


def embedded_surrogate_atoms(ld, embedding, thetas):
    """Explicit surrogate atoms in the embedding space, one row per parameter."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    node_atoms = embedding.atoms(ld.nodes)
    coords = lu_solve(dense_gram(ld.gram), ld.coefficients(thetas).T).T
    return coords @ node_atoms


def embedded_errors(ld, embedding, thetas):
    """Approximation error measured entirely in the embedding space."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    surrogate = embedded_surrogate_atoms(ld, embedding, thetas)
    exact = embedding.atoms(thetas)
    return np.linalg.norm(exact - surrogate, axis=1)


def fine_grid_argmax(embedding, box, signal, points_per_axis):
    """Exhaustive correlation maximization over a lattice on ``box``.

    Correlates ``signal`` with every unit-norm atom on the lattice and
    returns ``(theta, value, cell_diagonal)``.  Ties resolve to the first
    lattice point in row-major order.
    """
    dim = embedding.dim
    axes = [
        np.linspace(box.lower[a], box.upper[a], points_per_axis) for a in range(dim)
    ]
    sigma = embedding.kernel.sigma
    profiles = [
        np.exp(-((embedding.axes[a][None, :] - axes[a][:, None]) ** 2) / (2 * sigma**2))
        for a in range(dim)
    ]
    if dim == 1:
        corr = profiles[0] @ signal / np.linalg.norm(profiles[0], axis=1)
        best = int(np.argmax(corr))
        theta = np.array([axes[0][best]])
        value = float(corr[best])
    elif dim == 2:
        grid_signal = signal.reshape(embedding.samples_per_axis)
        numerator = profiles[0] @ grid_signal @ profiles[1].T
        corr = numerator / np.outer(
            np.linalg.norm(profiles[0], axis=1), np.linalg.norm(profiles[1], axis=1)
        )
        i, j = np.unravel_index(int(np.argmax(corr)), corr.shape)
        theta = np.array([axes[0][i], axes[1][j]])
        value = float(corr[i, j])
    else:
        raise ValueError("the fine-grid oracle supports at most two axes")
    cell = (box.upper - box.lower) / (points_per_axis - 1)
    return theta, value, float(np.linalg.norm(cell))


def outer_product_atom(embedding, theta):
    """One unit-norm sampled atom, built as an outer product one axis at a time.

    No window check, and normalised as a whole: the reference for
    ``DiscreteEmbedding.atoms``, which normalises each axis profile instead
    and so may differ from it in the last bits.
    """
    t = np.atleast_1d(np.asarray(theta, dtype=float))
    vec = np.ones(())
    for a in range(embedding.dim):
        x = embedding.axes[a] - t[a]
        vec = np.multiply.outer(vec, np.exp(-(x * x) / (2.0 * embedding.kernel.sigma**2)))
    vec = vec.ravel()
    return vec / np.linalg.norm(vec)


def truncation_deficit_loop(embedding, theta):
    """Window truncation deficit of one atom, one axis and one lattice range at a time.

    Sums the squared profile over the window lattice and over that lattice
    extended to cover everything within 9 sigma of the atom center.
    """
    t = np.atleast_1d(np.asarray(theta, dtype=float))
    sig = embedding.kernel.sigma
    ratio = 1.0
    for a in range(embedding.dim):
        h = embedding.steps[a]
        n = embedding.samples_per_axis[a]
        lo = embedding.lower[a]
        k0 = min(0, math.floor((t[a] - 9.0 * sig - lo) / h))
        k1 = max(n - 1, math.ceil((t[a] + 9.0 * sig - lo) / h))
        k = np.arange(k0, k1 + 1)
        x = lo + k * h - t[a]
        full = np.exp(-(x * x) / (sig * sig))
        ratio *= float(np.sum(full[(k >= 0) & (k <= n - 1)])) / float(np.sum(full))
    return 1.0 - math.sqrt(ratio)


def sampled_axis_derivatives(embedding, axis, center, max_order):
    """Samples of d^n/d theta^n of the normalized 1-D Gaussian factor.

    With ``x = (t - center) / (sigma sqrt(2))`` the n-th derivative with
    respect to the center is
    ``(pi sigma^2)^(-1/4) (sigma sqrt(2))^(-n) H_n(x) exp(-x^2)``; rows are
    orders ``0 .. max_order`` over the axis lattice.
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


def sampled_taylor_basis(embedding, center, order):
    """Derivative atoms up to ``order`` at ``center``, sampled on the embedding lattice.

    One row per multi-index of :func:`tidict.multi_indices`, scaled by the
    square root of the cell volume and not renormalized.
    """
    center = np.atleast_1d(np.asarray(center, dtype=float))
    per_axis = [
        sampled_axis_derivatives(embedding, a, center[a], order)
        for a in range(embedding.dim)
    ]
    alphas = multi_indices(embedding.dim, order)
    basis = np.empty((len(alphas), embedding.size))
    for i, alpha in enumerate(alphas):
        vec = per_axis[0][alpha[0]]
        for a in range(1, embedding.dim):
            vec = np.multiply.outer(vec, per_axis[a][alpha[a]])
        basis[i] = vec.ravel() * math.sqrt(float(np.prod(embedding.steps)))
    return basis


def sampled_taylor_errors(embedding, center, order, thetas):
    """Distance between each sampled atom and its sampled Taylor surrogate."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    thetas = np.asarray(thetas, dtype=float).reshape(-1, embedding.dim)
    basis = sampled_taylor_basis(embedding, center, order)
    alphas = multi_indices(embedding.dim, order)
    out = np.empty(thetas.shape[0])
    for i, theta in enumerate(thetas):
        mono = np.array(
            [
                math.prod(
                    (theta[a] - center[a]) ** n / math.factorial(n)
                    for a, n in enumerate(alpha)
                )
                for alpha in alphas
            ]
        )
        out[i] = np.linalg.norm(embedding.atom(theta) - mono @ basis)
    return out


def dense_gram(gram):
    """A Gram system's dense ``L x L`` matrix, the Kronecker product of its axis records' factors."""
    return reduce(np.kron, [a.factor for a in gram.axes])


def lu_solve(matrix, rhs):
    """``matrix^-1 rhs`` by LU factorisation with partial pivoting (LAPACK ``gesv``)."""
    return np.linalg.solve(matrix, rhs)


def _mp_gram(gram):
    """``G[p, q] = prod_a G_a[p_a, q_a]`` in mpmath, from the float64 entries of the axis factors, at the working precision."""
    idx = list(np.ndindex(*gram.grid.counts))
    return mpmath.matrix(
        [[mpmath.fprod(mpmath.mpf(a.factor[i, j]) for a, i, j in zip(gram.axes, p, q)) for q in idx] for p in idx]
    )


def mp_solve(gram, rows, digits=50):
    """``rows G^-1`` at ``digits`` significant digits, from the float64 entries of the axis factors.

    ``G`` is formed and LU-factored in mpmath, so the result solves the
    system of the stored factors, whose products float64 would round, to
    far below float64's resolution; it is rounded to float64 at the end.
    """
    with mpmath.workdps(digits):
        matrix = _mp_gram(gram)
        return np.array(
            [[float(v) for v in mpmath.lu_solve(matrix, mpmath.matrix(row.tolist()))] for row in np.atleast_2d(rows)]
        )


def mp_errors(ld, thetas, digits=50):
    """Approximation errors ``sqrt(1 - 2 k^T G^-1 c + c^T G^-1 c)`` at ``digits`` significant digits.

    Every input is the float64 value the dictionary stores: ``G`` from the
    axis factors, ``c_l = rc(theta - theta_l)`` from the kernel's weights
    and frequencies, ``k_l = exp(-|theta - theta_l|^2 / (4 sigma^2))`` from
    sigma, and the nodes.  The formula is evaluated in mpmath, so its
    cancellation costs nothing at float64's resolution; a negative square
    reads 0, and the result is rounded to float64.
    """
    rc, nodes = ld.rc, ld.nodes
    pts = np.asarray(thetas, dtype=float).reshape(-1, ld.dim)
    out = np.empty(pts.shape[0])
    with mpmath.workdps(digits):
        inverse = mpmath.inverse(_mp_gram(ld.gram))
        scale = 4 * mpmath.mpf(ld.kernel.sigma) ** 2
        for n, theta in enumerate(pts):
            deltas = [[mpmath.mpf(t) - mpmath.mpf(x) for t, x in zip(theta, node)] for node in nodes]
            c = mpmath.matrix(
                [
                    rc.lambda0
                    + mpmath.fsum(
                        mpmath.mpf(lam) * mpmath.cos(mpmath.fdot(map(mpmath.mpf, w), d))
                        for lam, w in zip(rc.weights, rc.freqs)
                    )
                    for d in deltas
                ]
            )
            k = mpmath.matrix([mpmath.exp(-mpmath.fsum(x * x for x in d) / scale) for d in deltas])
            x = inverse * c
            sq = 1 - 2 * mpmath.fdot(k, x) + mpmath.fdot(c, x)
            out[n] = float(mpmath.sqrt(max(sq, 0)))
    return out


def lu_node_errors(ld):
    """Approximation errors at the nodes, ``1 - 2 k^T G^-1 c + c^T G^-1 c``, solved by LU."""
    nodes = ld.nodes
    c = ld.coefficients(nodes)
    k = ld.kernel.eval((nodes[:, None, :] - nodes[None, :, :]).reshape(-1, ld.dim)).reshape(ld.rank, ld.rank)
    solved = lu_solve(dense_gram(ld.gram), c.T).T
    sq = 1.0 - 2.0 * np.sum(k * solved, axis=1) + np.sum(c * solved, axis=1)
    return np.sqrt(np.clip(sq, 0.0, None))


def gram_inverse(gram):
    """Explicit inverse of a Gram system's matrix by LU, symmetrized."""
    inv = lu_solve(dense_gram(gram), np.eye(gram.size))
    return 0.5 * (inv + inv.T)


def feature_dim(rc):
    """Length of a raised-cosine feature vector: ``2K``, plus one when ``lambda0 > 0``."""
    return 2 * rc.num_terms + (1 if rc.lambda0 > 0.0 else 0)


def box_contains(box, theta, atol=0.0):
    """Whether a parameter vector lies in a box, each bound widened by ``atol``."""
    t = np.atleast_1d(np.asarray(theta, dtype=float))
    return bool(np.all((t >= box.lower - atol) & (t <= box.upper + atol)))


def embedded_inner(embedding, theta, theta_prime):
    """Discrete inner product between two sampled atoms."""
    return float(np.dot(embedding.atom(theta), embedding.atom(theta_prime)))


def taylor_error(taylor, theta):
    """Taylor surrogate error at one parameter vector, from a batch of one."""
    t = np.atleast_1d(np.asarray(theta, dtype=float)).reshape(1, taylor.dim)
    return float(taylor.errors(t)[0])


def savetxt_csv(path, header, rows):
    """The CSV writer the CLI's must match byte for byte: ``np.savetxt`` at 17 digits."""
    with open(path, "w", newline="\n") as fh:
        np.savetxt(fh, rows, fmt="%.17g", delimiter=",", header=",".join(header), comments="")


def check_window_exact(embedding, thetas):
    """Window check from exact deficits of every point: the first over tolerance raises."""
    from tidict import TruncationError

    pts = np.asarray(thetas, dtype=float).reshape(-1, embedding.dim)
    deficits = embedding.truncation_deficits(pts)
    over = np.flatnonzero(deficits > embedding.truncation_tol)
    if over.size:
        i = over[0]
        raise TruncationError(
            f"atom at theta={pts[i].tolist()} loses {deficits[i]:.3e} of its norm "
            f"outside the window (tolerance {embedding.truncation_tol:g})"
        )
