"""Finite truncations of Toeplitz-type lattice operators and their spectra.

Every truncation is a LaurentSymbol.section on a Dirichlet box at the
origin, which fixes the site-block layout; ``assemble`` is the square one,
(side,) * num_vars, as a plain array.  The two inertia certificates read
theirs as ``Panels``, PANEL column panels over the rows each reaches, and
only a fallback densifies.

The numerical Fredholm index of the quarter-plane operator compares kernel
counts of f and its adjoint on sections whose rows are the full hopping
reach of the columns.  The artificial far edges and the far corner then
contribute nothing; small singular values can only come from modes attached
to the true corner, which is what the index counts.  Stability of the
counts across truncation sizes is still required and reported.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    ChiralViolation,
    DimensionMismatch,
    InputError,
    NotHermitian,
    TrackingAmbiguous,
    Unstable,
)
from .symbols import (DENSE_CAP, GRID_CAP, LaurentSymbol, Panels, _check_rows,
                      _generic_block, _reducing_subspaces, _relation_violation, _split_mass)
from .wiener_hopf import (
    FIRST_TRUNCATION,
    KERNEL_RELTOL,
    _kernel_count,
    _slice_table,
    certify_invertible,
    toeplitz_kernel_dim,
)

__all__ = [
    "assemble",
    "kernel_dim",
    "numerical_index",
    "IndexReport",
    "corner_spectrum",
    "CornerSpectrumResult",
    "ZeroMode",
    "spectral_flow",
    "SpectralFlowResult",
]

HERMITIAN_TOL = 1e-10     # coefficient-level hermiticity and chirality, relative to the scale
GAP_FACTOR = 10.0         # separation_ok: spectral gap above this times zero_tol
CORNER_EXTENT = 4         # corner patch: sites with every coordinate below this
OVERLAP_FLOOR = 0.7       # smallest eigenvector overlap that continues a flow track
FLOW_ZERO_FLOOR = 1e-9    # flow track values at or below this count as zero
FLOW_CORNER_FLOOR = 0.25  # corner participation of a tracked flow state
ADDED_SIDES = 3           # sides numerical_index may add past a two-variable run's own
NULL_RITZ_TOL = 1e-12     # Ritz values accepted within this times sigma_max
NULL_BLOCK = 4            # first block width of _null_block
NULL_BLOCK_MAX = 64       # _null_block doubles its block up to this width
LANCZOS_STEPS = 40        # at most this many Lanczos steps for the gap estimate
LANCZOS_TOL = 1e-12       # Lanczos converged: residual at most this times the Ritz value
CERT_SHRINK = 1e-10       # the inertia shift sits this fraction below the gap estimate
ROUNDING_GUARD = 1e4      # the shift squared must exceed this times n eps ||T||^2
PANEL = 32                # rows or columns per panel of the Gram product and its Cholesky
LIFT_FLOOR = 1e-3         # _lift_proves drops null-vector entries below this


def assemble(symbol, side):
    """Dense Dirichlet section of ``symbol`` on the box (side,) * num_vars:
    a segment for one variable, a quarter-plane square for two."""
    if symbol.num_vars not in (1, 2):
        raise DimensionMismatch("assemble needs a one- or two-variable symbol")
    box = (side,) * symbol.num_vars
    _check_rows(math.prod(box) * symbol.band_dim)
    return symbol.section(box, box)


def kernel_dim(*blocks):
    """Numerical kernel count of diag(blocks): singular values of the
    matrices ``blocks`` below KERNEL_RELTOL * sigma_max (see wiener_hopf),
    sigma_max the largest over all of them; one block is the plain count.
    A block is an array, cut into its PANEL column ``Panels`` in one pass,
    or those panels.  A block passed more than once is counted once, by
    ``_certified_count`` (the null block and lifted Cholesky of the
    corner's certificate too) with sigma_max bracketed by ``_envelope``;
    when one refuses or is empty, or every column is zero, by the SVDs of
    ``_kernel_count``, the only step that densifies panels."""
    distinct = {id(b): b for b in blocks}
    panels = {key: b if isinstance(b, Panels) else Panels.from_dense(b, PANEL)
              for key, b in distinct.items()}
    scans = {key: _envelope(t) for key, t in panels.items()}
    lo, hi = (max(v) for v in zip(*(scan[2] for scan in scans.values())))
    counts = {}
    for key, t in panels.items():
        counts[key] = (_certified_count(t, lo, hi, scans[key][0]) if lo > 0 and min(t.shape)
                       else None)
        if counts[key] is None:
            dense = {key: b[:, :] for key, b in distinct.items()}
            return _kernel_count(*(dense[id(b)] for b in blocks))[0]
    return sum(counts[id(b)] for b in blocks)


def _certified_count(t, lo, hi, env):
    """The number k of the n singular values of the panels ``t`` (zeros pad
    a wide one) below KERNEL_RELTOL * sigma_max, proven for all sigma_max
    in [lo, hi] without an SVD of ``t`` (column envelope ``env``) by
    spectrum slicing of G = T*T, or None.

    g^2 exceeds ROUNDING_GUARD max(m, n) eps hi^2, the rounding of G and of
    its Cholesky (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, ch. 10), and g sqrt(1 - 1/ROUNDING_GUARD) exceeds KERNEL_RELTOL *
    hi.  A Cholesky of G - g^2 I proves k = 0.  Else the Ritz values of the
    block of ``_null_block`` bound the singular values from above: k of
    them below KERNEL_RELTOL * lo prove at least k.  With the (k+1)-th
    above g, ``_lift_proves`` with alpha = hi^2 proves at most k."""
    m, n = t.shape
    eps = np.finfo(float).eps
    g = (1.0 + 4.0 * eps) * hi * max(math.sqrt(ROUNDING_GUARD * max(m, n) * eps),
                                      KERNEL_RELTOL / math.sqrt(1.0 - 1.0 / ROUNDING_GUARD))
    if _gram_cholesky(t, -g * g, env) is not None:
        return 0
    block = _null_block(t, g, KERNEL_RELTOL * lo, env)
    if block is None:
        return None
    q, ritz, wh = block
    k = int(np.count_nonzero(ritz < KERNEL_RELTOL * lo))
    if ritz[k] <= g:
        return None
    return k if _lift_proves(t, g, q @ wh[:k].conj().T, hi * hi, env) else None


def _null_block(t, g, cut, env):
    """Two steps of block inverse iteration on G + g^2 I, G = T*T of the
    m x n panels ``t`` (Halko, Martinsson & Tropp, SIAM Rev. 53, 2011),
    from ``_generic_block``: ``(q, ritz, wh)``, the orthonormal block, the
    Ritz values of T on it ascending (zeros pad a wide T q) and the
    matching rows of V*, or None when the Cholesky fails.  The j-th Ritz value
    bounds the j-th smallest singular value from above.  The block starts
    at NULL_BLOCK columns and doubles while fewer than 2 Ritz values lie
    above ``cut``; None when that would pass NULL_BLOCK_MAX or n."""
    m, n = t.shape
    factor = _gram_cholesky(t, g * g, env)
    if factor is None:
        return None
    width = min(NULL_BLOCK, n)
    while True:
        q = _generic_block(n, width)
        for _ in range(2):
            q = np.linalg.qr(_cholesky_solve(factor, q))[0]
        # the full V* when T q is wide, so that its null rows come too
        _, s, vh = np.linalg.svd(t @ q, full_matrices=m < width)
        ritz = np.concatenate([np.zeros(width - s.size), s[::-1]])
        if np.count_nonzero(ritz > cut) >= 2:
            return q, ritz, vh[::-1]
        if 2 * width > min(n, NULL_BLOCK_MAX):
            return None
        width *= 2


def _lift_proves(t, g, basis, alpha, env):
    """Whether G + alpha LL* - g^2 I, G = T*T of the panels ``t`` and L
    the n x k ``basis`` less its entries below LIFT_FLOOR, is positive
    definite, which proves at most k singular values below g: a rank-k
    lift moves at most k eigenvalues, for any L.  The s rows S where L is nonzero go
    last, a permutation that keeps the inertia: ``_gram_cholesky`` factors
    the band G - g^2 I off S, and one s x s Cholesky the Schur complement
    on S, with L21* = L11^-1 G[~S, S] by forward substitution and G[S, :]
    = T[:, S]* T from two panel products."""
    lift = np.where(np.abs(basis) < LIFT_FLOOR, 0.0, basis)
    rows = np.flatnonzero(lift.any(axis=1))
    factor = _gram_cholesky(t, -g * g, env, rows)
    if factor is None:
        return False
    pick = np.zeros((t.shape[1], rows.size))
    pick[rows, range(rows.size)] = 1.0
    border = (t.T @ (t @ pick).conj()).T
    schur = border[:, rows] + alpha * lift[rows] @ lift[rows].conj().T - g * g * np.eye(rows.size)
    border[:, rows] = 0.0
    l21 = _forward_solve(factor, border.conj().T)
    try:
        np.linalg.cholesky(schur - l21.conj().T @ l21)
    except np.linalg.LinAlgError:
        return False
    return True


def _envelope(t):
    """The first and last nonzero row of each column of the m x n panels
    ``t`` and of ``t.T`` (m or n and -1 when none is), and the largest
    column norm and sqrt(||t||_1 ||t||_inf), which bracket sigma_max, in
    one pass over its panels."""
    m, n = t.shape
    first, last, row_first, row_last = np.full(n, m), np.full(n, -1), np.full(m, n), np.full(m, -1)
    sums, squares, row_sums = np.zeros(n), np.zeros(n), np.zeros(m)
    for p, (start, a) in enumerate(zip(t.starts, t.blocks)):
        j, a = p * t.width, np.abs(a)
        rows = np.flatnonzero(a.any(axis=1))
        if not rows.size:
            continue
        i0, i1 = start + rows[0], start + rows[-1] + 1  # the rows the panel reaches
        a = a[rows[0]:rows[-1] + 1]
        sums[j:j + t.width], squares[j:j + t.width] = a.sum(axis=0), (a * a).sum(axis=0)
        row_sums[i0:i1] += a.sum(axis=1)
        hit = a > 0
        cols, live = hit.any(axis=0), hit.any(axis=1)
        first[j:j + t.width][cols] = i0 + hit.argmax(axis=0)[cols]
        last[j:j + t.width][cols] = i1 - 1 - hit[::-1].argmax(axis=0)[cols]
        row_first[i0:i1][live] = np.minimum(row_first[i0:i1][live], j + hit.argmax(axis=1)[live])
        row_last[i0:i1][live] = j + a.shape[1] - 1 - hit[:, ::-1].argmax(axis=1)[live]
    bracket = math.sqrt(squares.max(initial=0.0)), math.sqrt(sums.max(initial=0.0)
                                                             * row_sums.max(initial=0.0))
    return (first, last), (row_first, row_last), bracket


def _gram_cholesky(t, shift, env, border=()):
    """The ``_cholesky_in_place`` panels of the Cholesky factor of G +
    ``shift`` I, G = T*T of the m x n panels ``t`` with the column
    envelope ``env``, or None when it is not positive definite; the rows
    and columns ``border`` hold the identity instead.  Each panel of G is
    built when the Cholesky reaches it, from the rows of ``t`` its
    columns reach, so a G of lower bandwidth b costs O(n (b + PANEL))
    entries."""
    m, n = t.shape
    first, last = env
    keep = ~np.isin(np.arange(n), border)

    def panels():
        reach = 0
        for j in range(0, n, PANEL):
            end = min(j + PANEL, n)
            r0, r1 = first[j:end].min(), last[j:end].max() + 1
            # rows down to the last column that starts above r1, or that earlier panels fill
            reach = max(reach, end, j + 1 + int(np.flatnonzero(first[j:] < r1).max(initial=-1)))
            b = t[r0:r1, j:reach]
            a = b.conj().T @ b[:, :end - j] * np.outer(keep[j:reach], keep[j:end])
            a[range(end - j), range(end - j)] += np.where(keep[j:end], shift, 1.0)
            # the first column whose rows reach the panel's: G's rows here are zero before it
            yield int(np.argmax(np.append(last[:j], m) >= r0)), a

    try:
        return _cholesky_in_place(panels())
    except np.linalg.LinAlgError:
        return None


def _cholesky_in_place(panels):
    """The Cholesky factor L of the hermitian A as the list of its PANEL
    column panels, left-looking, so that a refusal (LinAlgError: A is not
    positive definite) costs only the panels read.  ``panels`` yields
    (c0, a): a holds rows j:j + len(a) of A's next columns j:j + PANEL,
    at least as many as the panel before (A is zero below; the upper
    triangle is not read), and A's rows j:j + PANEL are zero before
    column c0.  Each a is overwritten with L's panel; L keeps the
    envelope of A (George & Liu, Computer Solution of Large Sparse
    Positive Definite Systems, 1981), so a banded A costs its band."""
    factor = []
    for c0, a in panels:
        j, w = len(factor) * PANEL, a.shape[1]
        for q in range(c0 // PANEL, len(factor)):  # the earlier panels reaching these rows
            low = factor[q][j - q * PANEL:, max(c0 - q * PANEL, 0):]
            a[:len(low), :len(low[:w])] -= low @ low[:w].conj().T
        a[:w] = np.linalg.cholesky(a[:w])
        a[w:] = np.linalg.solve(a[:w].conj(), a[w:].T).T  # B L^-* as (conj(L)^-1 B^T)^T
        factor.append(a)
    return factor


def _forward_solve(factor, b):
    """L^-1 ``b`` for the panels of L from ``_cholesky_in_place``."""
    x = b.astype(np.result_type(factor[0], b))
    for p, low in enumerate(factor):
        j, w = p * PANEL, low.shape[1]
        x[j:j + w] = np.linalg.solve(low[:w], x[j:j + w])
        x[j + w:j + len(low)] -= low[w:] @ x[j:j + w]
    return x


def _cholesky_solve(factor, b):
    """(LL*)^-1 ``b`` for the panels of L from ``_cholesky_in_place``, by
    substitution over its diagonal blocks, reading only the panels' rows."""
    x = _forward_solve(factor, b)
    for p, low in reversed(list(enumerate(factor))):
        j, w = p * PANEL, low.shape[1]
        x[j:j + w] = np.linalg.solve(low[:w].conj().T,
                                     x[j:j + w] - low[w:].conj().T @ x[j + w:j + len(low)])
    return x


# ---------------------------------------------------------------- index


def _reach_rows(symbol, box):
    """The box extended by the positive hopping reach of ``symbol``."""
    return [b + max(0, symbol.exponent_range(a)[1]) for a, b in enumerate(box)]


def _reach_compression(symbol, classes, box):
    """Columns on the box, rows on the box extended by the positive hopping
    reach of ``symbol``, refused at the full band_dim before any section is
    allocated.  ``classes`` pairs the symbol of each class of unitarily
    equivalent reducing blocks with its number of members; each class gets
    one section, as its PANEL column ``Panels``, listed once per member as
    the same object."""
    rows = _reach_rows(symbol, box)
    _check_rows(math.prod(rows) * symbol.band_dim)
    return [s for part, members in classes for s in [part.section(rows, box, PANEL)] * members]


def certify_fredholm(symbol):
    """Check that the coordinate slices at eight angles per direction factor
    canonically.

    Invertibility of both half-plane operators is equivalent to every slice
    in each direction having only zero partial indices; the first offender
    aborts with its direction, angle, and index tuple.
    """
    table = _slice_table(symbol)
    for direction in range(symbol.num_vars):
        table.certify([(direction, 2.0 * np.pi * j / 8, None, None) for j in range(8)],
                      "half-plane compression is not invertible")


@dataclass(frozen=True)
class IndexReport:
    """Numerical Fredholm index with its per-size stability record."""

    value: int
    sizes: tuple
    kernel_counts: tuple
    cokernel_counts: tuple

    def to_dict(self):
        return {
            "index": self.value,
            "sizes": list(self.sizes),
            "kernel_counts": list(self.kernel_counts),
            "cokernel_counts": list(self.cokernel_counts),
        }


def numerical_index(symbol, sizes=(10, 14, 18)):
    """Fredholm index of the quarter-plane (or segment) compression.

    dim ker - dim ker of the adjoint, each computed on reach-extended
    truncations.  A one-variable symbol's counts must agree across all
    ``sizes``.  A two-variable symbol's must agree at the last three sizes:
    while they do not, the side grows by 4 past the last one, at most
    ADDED_SIDES times and as long as both sections stay within DENSE_CAP
    rows, and ``sizes`` in the report lists every side tried.  A two-variable
    symbol is counted block by block over the reducing subspaces W_i its
    coefficients share (one, the whole space, when they share none or
    band_dim > 16), with the counts of the undivided section:
    the blocks W_i* f W_i fall into classes of unitarily equivalent ones,
    found once per symbol (f* has the same), and each class gets one
    section on the rows of the whole symbol's reach, built as its
    ``Panels`` and passed to one kernel_dim once per member, which proves
    the counts by a Cholesky inertia certificate and densifies the
    sections for their SVDs only when it refuses (an escalated product's
    side-10 section).  A one-variable symbol is
    counted with the escalating section criterion: a kernel vector decaying
    like r^x keeps its section residual above any fixed cutoff until the
    section outruns the decay, so a fixed size list can undercount.  Its
    index must then be minus the winding of det f, which its certificate
    gives, else Unstable; its tall sections stay within DENSE_CAP rows,
    else SizeOverflow before one is built.
    """
    if symbol.num_vars not in (1, 2):
        raise DimensionMismatch("index needs a one- or two-variable symbol")
    if min(sizes, default=1) < 1:
        raise InputError(f"truncation sizes must be >= 1, got {tuple(sizes)}")
    if symbol.num_vars == 2:
        certify_fredholm(symbol)
        classes = [(LaurentSymbol(2, c[0].shape[1], [(k, c[0].conj().T @ a @ c[0])
                                                     for k, a in symbol.coeffs.items()]),
                    len(c))
                   for c in _reducing_subspaces(symbol)]
        adj_classes = [(part.adjoint(), members) for part, members in classes]
    else:
        wind = certify_invertible(symbol)
    adj = symbol.adjoint()
    sizes = [int(s) for s in sizes]
    last = len(sizes) + ADDED_SIDES
    kers, coks, values = [], [], []
    while len(values) < len(sizes):
        size = sizes[len(values)]
        if symbol.num_vars == 1:
            k = toeplitz_kernel_dim(symbol, start=size)
            c = toeplitz_kernel_dim(adj, start=size)
        else:
            box = [size] * symbol.num_vars
            k = kernel_dim(*_reach_compression(symbol, classes, box))
            c = kernel_dim(*_reach_compression(adj, adj_classes, box))
        kers.append(k)
        coks.append(c)
        values.append(k - c)
        if len(values) == len(sizes) and symbol.num_vars == 2 and len(set(values[-3:])) > 1:
            rows = max(math.prod(_reach_rows(f, [size + 4] * 2)) for f in (symbol, adj))
            if rows * symbol.band_dim <= DENSE_CAP and len(sizes) < last:
                sizes.append(size + 4)
    if len(set(values[-3:] if symbol.num_vars == 2 else values)) != 1:
        raise Unstable(
            f"index disagrees across truncation sizes {tuple(sizes)}: {values}"
        )
    if symbol.num_vars == 1 and values[-1] != -wind:
        raise Unstable(f"truncation index {values[-1]} is not minus the winding {wind} of det f: "
                       "the kernel counts missed a slowly decaying vector")
    return IndexReport(value=values[-1], sizes=tuple(sizes), kernel_counts=tuple(kers),
                       cokernel_counts=tuple(coks))


# ------------------------------------------------------- corner spectra


@dataclass(frozen=True)
class ZeroMode:
    value: float
    chirality: float
    corner_participation: float


@dataclass(frozen=True)
class CornerSpectrumResult:
    """Spectrum summary of the quarter-plane truncation.

    ``zero_modes`` lists every eigenvector below the zero tolerance;
    ``corner_modes`` is the subset localized at the true corner (site
    (0, 0)), and only those enter ``signed_count``.  The restriction is
    forced: the chiral grading has zero trace on any finite square, so the
    signed count over all zero modes is identically zero; each artificial
    corner of the truncation hosts compensating partners.  The infinite
    quarter plane has only the one corner, and its index is recovered from
    the modes that live there.

    ``eigenvalues`` ascend.  ``eigen_participation`` is the corner weight of
    each eigenvector, None unless asked for; for chiral input
    ``eigenvalues`` and ``eigen_chirality`` are None then too, since the
    zero count and the gap come without them.  ``eigen_chirality`` (chiral
    input only) is 0 for the eigenvectors (v, +-u)/sqrt(2) of a pair
    +-sigma above the zero tolerance, and +1 or -1 for the pure-chirality
    states (v, 0) and (0, u) that stand at +sigma and -sigma of a pair
    below it.
    """

    eigenvalues: np.ndarray | None
    zero_modes: tuple
    corner_modes: tuple
    signed_count: int | None
    spectral_gap: float
    side: int
    zero_tol: float
    corner_floor: float
    separation_ok: bool
    eigen_chirality: np.ndarray | None = None
    eigen_participation: np.ndarray | None = None

    def to_dict(self):
        return {
            "side": self.side,
            "zero_tol": self.zero_tol,
            "num_zero_modes": len(self.zero_modes),
            "zero_modes": [asdict(zm) for zm in self.zero_modes],
            "num_corner_modes": len(self.corner_modes),
            "corner_modes": [asdict(zm) for zm in self.corner_modes],
            "signed_count": self.signed_count,
            "spectral_gap": self.spectral_gap,
            "corner_floor": self.corner_floor,
            "separation_ok": self.separation_ok,
        }


def _corner_mask(side, band_dim):
    """Indicator of the corner patch on the rows of a side x side section."""
    near = np.arange(side) < CORNER_EXTENT
    return np.repeat(np.logical_and.outer(near, near).ravel(), band_dim).astype(float)


def _participation(cols, mask):
    """Corner weight <psi, M psi> of each column."""
    return np.real(np.sum(np.conj(cols) * (mask[:, None] * cols), axis=0))


def _refined_cluster_basis(block, corner_mask):
    """Canonical basis for a (near-)degenerate eigenvalue cluster.

    The eigensolver's basis inside a degenerate cluster is arbitrary, so
    localization read off raw eigenvectors is not reproducible.  Rotate the
    cluster to diagonalize the corner-patch projector, largest weight
    first; the result separates corner-attached modes from modes living at
    the artificial corners of the truncation.
    """
    if block.shape[1] <= 1:
        return block
    weights, rot = np.linalg.eigh(
        block.conj().T @ (corner_mask[:, None] * block)
    )
    return block @ rot[:, np.argsort(weights)[::-1]]


def _kernels(sides, k):
    """Orthonormal bases of the k null vectors of T and of T* from the
    ``_null_block`` blocks of T and of its transpose."""
    (q, _, wh), (q_adj, _, wh_adj) = sides
    return q @ wh[:k].conj().T, (q_adj @ wh_adj[:k].conj().T).conj()


def _lanczos_floor(mat, basis):
    """Square root of the smallest Ritz value of G = mat* mat, ``mat``
    panels, off the orthonormal ``basis``, by Lanczos from the first column
    of ``_generic_block`` with full reorthogonalization (G never formed:
    two panel products per step), or None when LANCZOS_STEPS steps do not
    bring its residual to LANCZOS_TOL times itself."""
    n, k = basis.shape
    steps = min(LANCZOS_STEPS, n - k)
    vecs = np.empty((steps + 1, n), dtype=mat.dtype)  # Lanczos vectors as rows
    diag, off = np.zeros(steps), np.zeros(steps)
    x = _generic_block(n, 1)[:, 0].astype(mat.dtype)
    x -= basis @ (basis.conj().T @ x)
    vecs[0] = x / np.linalg.norm(x)
    for j in range(steps):
        w = (mat.T @ (mat @ vecs[j]).conj()).conj()  # mat* mat v, with no conjugate of mat
        diag[j] = np.vdot(vecs[j], w).real
        for _ in range(2):
            w -= basis @ (basis.conj().T @ w)
            w -= vecs[:j + 1].T @ (vecs[:j + 1].conj() @ w)
        off[j] = np.linalg.norm(w)
        theta, rot = np.linalg.eigh(np.diag(diag[:j + 1]) + np.diag(off[:j], 1)
                                    + np.diag(off[:j], -1))
        if theta[0] > 0 and off[j] * abs(rot[j, 0]) <= LANCZOS_TOL * theta[0]:
            # ||mat y|| for the Ritz vector y: sqrt(theta) without the
            # rounding of G, which is relative to ||G||, not to theta
            return float(np.linalg.norm(mat @ (rot[:, 0] @ vecs[:j + 1])))
        if off[j] == 0.0:
            return None
        vecs[j + 1] = w / off[j]
    return None


def _inertia_certificate(h, side, zero_tol):
    """Zero count k, gap and null bases of T, the section of ``h``, proven
    with no decomposition of T (spectrum slicing by Sylvester's law of
    inertia; Parlett, The Symmetric Eigenvalue Problem, 1998).  T is built
    as its ``Panels`` and T^T is their transposed view, so no dense
    section is made; sigma is the largest column norm of the middle site.

    Returns ``(blocks, found)``: the ``_null_block`` blocks of T and of
    T^T (None if either failed) and ``found`` = ``(kernels, gap, low,
    residual)``, None when a step refuses.  Rounding guard: g^2 must exceed
    ROUNDING_GUARD * n * eps * alpha, the rounding of G = T*T and of its
    Cholesky, with alpha >= ||T||^2 from the coefficients' Frobenius norms;
    the blocks iterate at a shift just above it.  k Ritz values of both
    blocks at most NULL_RITZ_TOL * sigma, and with ``_rounding_floor`` at
    most ``zero_tol``, prove at least k singular values at or below
    ``zero_tol`` (Courant-Fischer).  ``gap`` is r from ``_lanczos_floor``
    off the null basis of T, and ``_lift_proves`` at g = r (1 -
    CERT_SHRINK) proves at most k below g.  So sigma_{k+1} lies between
    ``low`` (g less the rounding the guard admits) and the block's (k+1)-th
    Ritz value, which must meet the guard and the separation GAP_FACTOR *
    zero_tol before Lanczos runs, as ``low`` must after.  ``residual``
    bounds ||T Q|| and ||T* P|| for the bases Q and P of T and T*.
    """
    t = h.section((side, side), (side, side), PANEL)
    mid = (side // 2) * (side + 1) * h.band_dim  # the middle site's first column
    sigma = float(np.linalg.norm(t[:, mid:mid + h.band_dim], axis=0).max())
    eps = np.finfo(float).eps
    alpha = sum(np.linalg.norm(a) for a in h.coeffs.values()) ** 2
    guard = ROUNDING_GUARD * t.shape[0] * eps * alpha
    shift = (1.0 + 4.0 * eps) * math.sqrt(guard)
    envs = _envelope(t)[:2]
    blocks = ([_null_block(a, shift, zero_tol, env) for a, env in zip((t, t.T), envs)]
              if sigma > 0 else [None])
    if None in blocks:
        return None, None
    (_, ritz, _), (_, ritz_adj, _) = blocks
    k = int(np.count_nonzero(ritz <= zero_tol))
    largest = max(ritz[:k].max(initial=0.0), ritz_adj[:k].max(initial=0.0))  # widths may differ
    residual = largest + _rounding_floor(h, side)
    top = ritz[k]
    if (np.count_nonzero(ritz_adj <= zero_tol) != k or largest > NULL_RITZ_TOL * sigma
            or (k and residual > zero_tol)
            or top <= GAP_FACTOR * zero_tol or top * top <= guard):
        return blocks, None
    kernels = _kernels(blocks, k)
    gap = _lanczos_floor(t, kernels[0])
    if gap is None:
        return blocks, None
    g = gap * (1.0 - CERT_SHRINK)
    low = g * math.sqrt(1.0 - 1.0 / ROUNDING_GUARD)
    if g > top or g * g <= guard or low <= GAP_FACTOR * zero_tol:
        return blocks, None
    if not _lift_proves(t, g, kernels[0], alpha, envs[0]):
        return blocks, None
    return blocks, (kernels, gap, low, residual)


def _values_fallback(t, h, side, zero_tol, blocks):
    """``(kernels, gap, gap, residual)`` like ``_inertia_certificate``'s, from
    the values-only SVD of ``t``, h's dense section, and its ``blocks``, or None.
    The blocks serve when the k singular values at or below ``zero_tol``
    lie more than GAP_FACTOR * zero_tol below the gap and match the k
    smallest Ritz values of each block within NULL_RITZ_TOL * sigma_max;
    k = 0 needs none."""
    s = np.linalg.svd(t, compute_uv=False)
    k, gap = _zero_count(s, zero_tol)
    if k == 0:
        return (np.zeros((s.size, 0)),) * 2, gap, gap, 0.0
    if blocks is None or gap <= GAP_FACTOR * zero_tol:
        return None
    if any(ritz.size < k or np.any(np.abs(ritz[:k] - s[::-1][:k]) > NULL_RITZ_TOL * s[0])
           for _, ritz, _ in blocks):
        return None
    return (_kernels(blocks, k), gap, gap,
            max(ritz[k - 1] for _, ritz, _ in blocks) + _rounding_floor(h, side))


def _rounding_floor(h, side):
    """n eps sum_k ||a_k||_F for the n-row section of ``h`` at ``side``:
    the rounding of its computed singular values and of T q."""
    return (side * side * h.band_dim * np.finfo(float).eps
            * sum(np.linalg.norm(a) for a in h.coeffs.values()))


def _zero_count(s, zero_tol):
    """The number k of the singular values ``s`` (descending) at or below
    ``zero_tol``, and the smallest one above it (0.0 when none is)."""
    k = int(np.count_nonzero(s <= zero_tol))
    return k, float(s[-k - 1]) if k < s.size else 0.0


def _chiral_modes(kernels, mask):
    """Zero modes of the null bases of T (chirality +1) and T* (-1)."""
    modes = []
    for chi, block in zip((1.0, -1.0), kernels):
        basis = _refined_cluster_basis(block, mask)
        modes += [
            ZeroMode(value=0.0, chirality=chi, corner_participation=float(part))
            for part in _participation(basis, mask)
        ]
    return modes


def _hermitian_corner(symbol, side, zero_tol, participation):
    """Eigenvalues, participations (with ``participation``), zero modes
    and gap from one dense eigh."""
    mat = assemble(symbol, side)
    vals, vecs = np.linalg.eigh(mat)
    mask = _corner_mask(side, symbol.band_dim)
    basis = _refined_cluster_basis(vecs[:, np.abs(vals) <= zero_tol], mask)
    modes = [
        ZeroMode(
            value=float(np.real(np.vdot(psi, mat @ psi))),
            chirality=float("nan"),
            corner_participation=float(part),
        )
        for psi, part in zip(basis.T, _participation(basis, mask))
    ]
    rest = np.abs(vals)[np.abs(vals) > zero_tol]
    return (vals, None, _participation(vecs, mask) if participation else None, modes,
            float(rest.min()) if rest.size else 0.0)


def _chiral_corner(h, side, zero_tol, corner_floor, participation):
    """Eigenvalues, chiralities, participations, zero modes and gap of the
    truncated H = [[0, T*], [T, 0]] from T = P ``h`` P.

    The grading acts site by site, so the spectrum is +-sigma(T); ker T
    carries chirality +1 and ker T* chirality -1, exactly.  With
    ``participation``, one full SVD of T gives every vector and its corner
    weight.  Without it, the eigenvalues, chiralities and participations
    are None, and the zero count k, the gap sigma_{k+1} and the null bases
    come from ``_inertia_certificate``; when it refuses, from
    ``_values_fallback``, which checks the blocks already solved against a
    values-only SVD; otherwise from the full SVD.

    An accepted pair of bases is then held to Wedin's sin-theta bound
    (BIT 12, 1972): with ``residual`` >= ||T Q||, ||T* P|| (the largest
    accepted Ritz value plus ``_rounding_floor``) and ``low`` a lower bound
    on sigma_{k+1}, both lie within an angle of sin = residual / (low -
    residual) of the null spaces of T and T*.  Each refined
    participation, an eigenvalue of the compressed corner projector, is
    then within 2 sin of the full SVD's.  When 2 sin reaches any zero
    mode's distance to ``corner_floor``, the full SVD is taken instead, so
    every corner classification is proven at vector level.
    """
    mask, t = _corner_mask(side, h.band_dim), None
    if not participation:
        blocks, found = _inertia_certificate(h, side, zero_tol)
        if found is None:
            t = assemble(h, side)  # one dense T for both SVDs
            found = _values_fallback(t, h, side, zero_tol, blocks)
        if found is not None:
            kernels, gap, low, residual = found
            modes = _chiral_modes(kernels, mask)
            reach = 2.0 * residual / (low - residual) if low > residual else math.inf
            if all(abs(m.corner_participation - corner_floor) > reach for m in modes):
                return None, None, None, modes, gap
    u, s, vh = np.linalg.svd(assemble(h, side) if t is None else t)
    v = vh.conj().T
    gap = _zero_count(s, zero_tol)[1]
    zero = s <= zero_tol
    modes = _chiral_modes((v[:, zero], u[:, zero]), mask)
    if not participation:
        return None, None, None, modes, gap
    part_v, part_u = _participation(v, mask), _participation(u, mask)
    pair = 0.5 * (part_v + part_u)
    return (
        np.concatenate([-s, s[::-1]]),
        np.concatenate([np.where(zero, -1.0, 0.0), np.where(zero, 1.0, 0.0)[::-1]]),
        np.concatenate([np.where(zero, part_u, pair), np.where(zero, part_v, pair)[::-1]]),
        modes,
        gap,
    )


def corner_spectrum(symbol, side, chiral=True, zero_tol=1e-6, corner_floor=0.5,
                    participation=False):
    """Spectrum of the hermitian quarter-plane truncation at size ``side``.

    Near-zero eigenvectors are listed with their chirality and corner
    participation.  Modes with participation at least ``corner_floor`` are
    classified as corner modes; with a chiral structure their signed count
    is the chiral corner index.  Modes below the floor sit at the three
    artificial corners the finite square adds and carry no quarter-plane
    content (the grading traces to zero on any finite square, so they
    exactly cancel the true corner's contribution in an unfiltered count).

    Chiral input H = [[0, h*], [h, 0]] is solved through the section T of
    h, half the rows of the section of H: the eigenvalues are +-sigma(T),
    and the zero modes are the null vectors of T (chirality +1) and of T*
    (chirality -1).  Other input is solved by a dense eigh.  The row cap
    applies to the section of H either way.

    Only ``participation`` fills ``eigen_participation``, the corner weight
    of every eigenvector.  For chiral input it alone takes the full SVD of
    T.  Without it, ``eigenvalues`` and ``eigen_chirality`` are None: the
    zero count and ``spectral_gap`` come from a Cholesky inertia
    certificate and the zero modes from the null vectors alone, with a
    values-only SVD and then the full SVD as fallbacks (``_chiral_corner``).
    A ``zero_tol`` at or below n eps sum_k ||a_k||_F, the rounding floor of
    the n-row section decomposed, is an InputError: below it the count
    would depend on which decomposition rounds the null values.
    """
    if symbol.num_vars != 2:
        raise DimensionMismatch("corner spectrum needs a two-variable symbol")
    if side < 1:
        raise InputError(f"side must be >= 1, got {side}")
    if not (math.isfinite(zero_tol) and zero_tol > 0):
        raise InputError(f"zero_tol must be finite and > 0, got {zero_tol}")
    if not 0 < corner_floor < 1:
        raise InputError(f"corner_floor must lie in (0, 1), got {corner_floor}")
    if _relation_violation(symbol, "hermitian") > HERMITIAN_TOL:
        raise NotHermitian("symbol is not hermitian at coefficient level")
    if chiral:
        worst = _relation_violation(symbol, "chiral")
        if worst > HERMITIAN_TOL:
            raise ChiralViolation(
                f"symbol does not anticommute with the chiral grading "
                f"(violation {worst * max(symbol.coeff_norm(), 1e-300):.3e})"
            )
    _check_rows(side * side * symbol.band_dim)
    half = symbol.band_dim // 2
    # the section decomposed: T of h for chiral input, else the section of H
    part = (LaurentSymbol(2, half, [(k, a[half:, :half]) for k, a in symbol.coeffs.items()])
            if chiral else symbol)
    floor = _rounding_floor(part, side)
    if zero_tol <= floor:
        raise InputError(f"zero_tol {zero_tol:g} is at or below the rounding floor {floor:.3e}")
    if chiral:
        vals, chirality, weights, modes, gap = _chiral_corner(part, side, zero_tol,
                                                              corner_floor, participation)
    else:
        vals, chirality, weights, modes, gap = _hermitian_corner(symbol, side, zero_tol,
                                                                 participation)
    # ties at rounding level list the chirality +1 modes first, so that the
    # order does not depend on which solver gave the vectors
    zero_modes = sorted(modes, key=lambda m: (-round(m.corner_participation, 12),
                                              -m.chirality if chiral else 0.0))
    corner_modes = [m for m in zero_modes if m.corner_participation >= corner_floor]
    return CornerSpectrumResult(
        eigenvalues=vals,
        zero_modes=tuple(zero_modes),
        corner_modes=tuple(corner_modes),
        signed_count=(sum(1 if m.chirality >= 0 else -1 for m in corner_modes)
                      if chiral else None),
        spectral_gap=gap,
        side=int(side),
        zero_tol=zero_tol,
        corner_floor=corner_floor,
        separation_ok=gap > GAP_FACTOR * zero_tol,
        eigen_chirality=chirality,
        eigen_participation=weights,
    )


# -------------------------------------------------------- spectral flow


@dataclass(frozen=True)
class SpectralFlowResult:
    """Net spectral flow of a hermitian family over the parameter circle."""

    flow: int
    crossings: tuple
    tracks: tuple
    t_values: tuple
    side: int
    window: float

    def to_dict(self):
        return {
            "flow": self.flow,
            "crossings": [{"t": t, "sign": s} for t, s in self.crossings],
            "num_tracks": len(self.tracks),
            "t_values": list(self.t_values),
            "side": self.side,
            "window": self.window,
        }


def _crossings(values, t_values, cyclic):
    """Signed zero crossings of one sequence of track samples at ``t_values``.

    Values at or below FLOW_ZERO_FLOOR are zeros.  A sign change between
    neighbouring samples sits at their midpoint (across the seam of the t
    circle where it wraps); one across a run of zeros sits at the first
    zero of the run.  A cyclic sequence also compares its last nonzero
    sample with its first; zeros at either end of an open one are not
    crossed.
    """
    vals = np.asarray(values, dtype=float)
    signs = np.where(np.abs(vals) <= FLOW_ZERO_FLOOR, 0, np.sign(vals)).astype(int)
    nz = np.nonzero(signs)[0]
    ends = list(zip(nz, nz[1:]))
    if cyclic and nz.size:
        ends.append((nz[-1], nz[0]))
    out = []
    for a, b in ends:
        if signs[a] == signs[b]:
            continue
        k = (a + 1) % vals.size
        if k == b:
            t_next = t_values[b]
            if t_next <= t_values[a]:
                t_next += 2.0 * np.pi  # wrap seam
            t_loc = 0.5 * (t_values[a] + t_next)
        else:
            t_loc = t_values[k]
        out.append((float(t_loc % (2.0 * np.pi)), 1 if signs[b] > signs[a] else -1))
    return out


def _corner_attached_states(vals, vecs, keep, mask):
    """Refine degenerate clusters among kept states, drop far-corner ones.

    States straddling the true and artificial corners of the square come
    out of the eigensolver in an arbitrary mixed basis when degenerate,
    which breaks both classification and overlap tracking; rotate each
    cluster to definite corner participation first.
    """
    deg_tol = 1e-7 * max(1.0, float(np.max(np.abs(vals))))
    clusters = np.split(keep, np.nonzero(np.diff(vals[keep]) > deg_tol)[0] + 1)
    basis = np.concatenate([_refined_cluster_basis(vecs[:, c], mask) for c in clusters], axis=1)
    parts = _participation(basis, mask)
    on = parts >= FLOW_CORNER_FLOOR
    return vals[keep][on], basis[:, on], parts[on]


def _section_eigh(symbol, side, svds):
    """Ascending eigenpairs of the hermitian section ``assemble(symbol, side)``.

    A symbol H + m Pi, with H = [[0, h*], [h, 0]] chiral and m a scalar, is
    solved by one SVD T = U S V* of the section of h, half the rows: on
    (v_i, 0), (0, u_i) the section is [[m, s_i], [s_i, -m]], with the
    eigenvalues -+hypot(m, s_i) and, for phi = arctan2(s_i, m), the
    eigenvectors (-sin(phi/2) v_i, cos(phi/2) u_i) and (cos(phi/2) v_i,
    sin(phi/2) u_i).  The values come out ascending because s descends.
    Any other symbol is solved by a dense eigh.

    The SVD is looked up in the dict ``svds`` by ``side`` and the
    coefficient bytes of h, and computed only on a miss, which replaces
    what ``svds`` held: a family whose h does not move with t takes one
    SVD, and one whose h does keeps one at a time (near DENSE_CAP rows a
    single SVD holds hundreds of megabytes).
    """
    try:
        m, h = _split_mass(symbol)
    except ChiralViolation:
        return np.linalg.eigh(assemble(symbol, side))
    key = (side, tuple(sorted((k, a.tobytes()) for k, a in h.coeffs.items())))
    if key not in svds:
        svds.clear()
        svds[key] = np.linalg.svd(assemble(h, side))
    u, s, vh = svds[key]
    v = vh.conj().T
    half_phi = 0.5 * np.arctan2(s, m)
    cos, sin = np.cos(half_phi), np.sin(half_phi)
    r = np.hypot(m, s)
    top = np.concatenate([-sin * v, (cos * v)[:, ::-1]], axis=1)
    bottom = np.concatenate([cos * u, (sin * u)[:, ::-1]], axis=1)
    # each site's band holds its Pi = +1 half (the top rows) first
    n, half = top.shape[1], h.band_dim
    vecs = np.concatenate([top.reshape(-1, half, n), bottom.reshape(-1, half, n)], axis=1)
    return np.concatenate([-r, r[::-1]]), vecs.reshape(-1, n)


def spectral_flow(family, t_var=2, t_samples=16, side=6, window=0.5):
    """Net spectral flow of the quarter-plane family over the t circle.

    Eigenpairs inside (-window, window) that are attached to the true
    corner (participation at least FLOW_CORNER_FLOOR after cluster
    refinement) are tracked between consecutive samples by greedy maximal
    eigenvector overlap.  A track matched back at t_0 links to the track
    begun at the state it reaches; the links join the tracks into cycles
    and open paths, each one sequence of samples whose signed zero
    crossings are counted once.  States localized at the three artificial
    corners of the truncation are excluded: they mirror the corner
    spectrum with opposite grading and would cancel the flow identically.
    A continuing track whose best overlap drops below OVERLAP_FLOOR while
    still well inside the window aborts rather than guessing.  A track is
    ``closed`` when it was matched at the closing step; its last sample is
    then the first sample of the track it links to.

    The slice certificates of every t are opened in one batch, in t-major
    order, so the first failing slice is the one a t-by-t check would meet;
    InputError before any opens when the opening solves of their 8 slices
    per t would exceed GRID_CAP entries, the bound of ``check_samples``.
    Each frozen section is solved by ``_section_eigh``: when the frozen
    symbol less m Pi (m read from its constant term) splits chirally, by
    one SVD of the section of h, half the rows, taken once per distinct h
    (a mass-driven family H + m(t) Pi takes one for the whole circle);
    otherwise by a dense eigh.
    """
    if family.num_vars != 3:
        raise DimensionMismatch("spectral flow needs a three-variable family")
    if not 0 <= t_var < 3:
        raise InputError("t_var out of range")
    if t_samples < 1 or side < 1:
        raise InputError(f"t_samples and side must be >= 1, got {t_samples} and {side}")
    if not (math.isfinite(window) and window > 0):
        raise InputError(f"window must be finite and > 0, got {window}")
    if _relation_violation(family, "hermitian") > HERMITIAN_TOL:
        raise NotHermitian("family is not hermitian at coefficient level")
    _check_rows(side * side * family.band_dim)
    size = t_samples * 8 * family.band_dim ** 2 * (FIRST_TRUNCATION + 1)
    if size > GRID_CAP:
        raise InputError(f"{t_samples} t-samples of band {family.band_dim} would hold {size} "
                         f"solved entries in their 8 slices each (cap {GRID_CAP})")
    t_values = [2.0 * np.pi * j / t_samples for j in range(t_samples)]
    _slice_table(family).certify(
        [(direction, 2.0 * np.pi * j / 4, t_var, t)
         for t in t_values for direction in range(3) if direction != t_var for j in range(4)],
        "half-plane compression not invertible along the family")

    windowed = []
    mask = _corner_mask(side, family.band_dim)
    svds = {}
    for t in t_values:
        vals, vecs = _section_eigh(family.freeze({t_var: np.exp(1j * t)}), side, svds)
        keep = np.nonzero(np.abs(vals) < window)[0]
        windowed.append(_corner_attached_states(vals, vecs, keep, mask))

    # Greedy global matching step by step around the circle.  The tracks
    # begun at t_0 come first, in state order, so the t_0 state a track
    # reaches at the closing step is the index of the track it links to.
    tracks = []
    finished = []

    def begin(j, k):
        vals, vecs, parts = windowed[j]
        tracks.append({"start": j, "values": [vals[k]], "parts": [parts[k]],
                       "vec": vecs[:, k], "link": None})
        return len(tracks) - 1

    active = [begin(0, k) for k in range(windowed[0][0].size)]
    for step in range(1, t_samples + 1):
        j = step % t_samples
        vals, vecs, parts = windowed[j]
        closing = step == t_samples
        match, reached = {}, set()  # track index -> state index, and the states
        if active and vals.size:
            overlap = np.abs(vecs.conj().T @ np.stack(
                [tracks[i]["vec"] for i in active], axis=1))  # (states, tracks)
            order = np.dstack(np.unravel_index(
                np.argsort(overlap, axis=None)[::-1], overlap.shape))[0]
            for state_k, track_k in order.tolist():
                if state_k in reached or active[track_k] in match:
                    continue
                if overlap[state_k, track_k] < OVERLAP_FLOOR:
                    break
                match[active[track_k]] = state_k
                reached.add(state_k)
        still = []
        for i in active:
            tr = tracks[i]
            if i not in match:
                if abs(tr["values"][-1]) < 0.8 * window:
                    raise TrackingAmbiguous(
                        f"no eigenvector match above overlap {OVERLAP_FLOOR} at "
                        f"t index {j} for a track still well inside the window"
                    )
                finished.append(i)
                continue
            sk = match[i]
            tr["values"].append(vals[sk])
            tr["parts"].append(parts[sk])
            if closing:
                tr["link"] = sk
                finished.append(i)
            else:
                tr["vec"] = vecs[:, sk]
                still.append(i)
        if not closing:
            active = still + [begin(j, k) for k in range(vals.size) if k not in reached]

    # Open paths start at the tracks no link reaches; what is left lies on
    # cycles.  A linked track drops its last sample, the next track's first.
    linked = {tr["link"] for tr in tracks}
    heads = [i for i in range(len(tracks)) if i not in linked] + list(range(len(tracks)))
    crossings = []
    seen = set()
    for i in heads:
        if i in seen:
            continue
        values, ts = [], []
        while i is not None and i not in seen:
            seen.add(i)
            tr = tracks[i]
            own = tr["values"][:-1] if tr["link"] is not None else tr["values"]
            values += own
            ts += [t_values[(tr["start"] + m) % t_samples] for m in range(len(own))]
            i = tr["link"]
        crossings += _crossings(values, ts, cyclic=i is not None)
    crossings.sort()
    return SpectralFlowResult(
        flow=int(sum(s for _, s in crossings)),
        crossings=tuple(crossings),
        tracks=tuple(
            {
                "start_index": tracks[i]["start"],
                "values": [float(v) for v in tracks[i]["values"]],
                "participation": [float(p) for p in tracks[i]["parts"]],
                "closed": tracks[i]["link"] is not None,
            }
            for i in finished
        ),
        t_values=tuple(t_values),
        side=int(side),
        window=window,
    )
