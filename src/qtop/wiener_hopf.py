"""Wiener-Hopf factorization of one-variable matrix symbols on the circle.

For an invertible matrix Laurent polynomial f on the unit circle this module
computes the partial indices of the right factorization f = f_- Lambda f_+
and, in the canonical case (all indices zero), the factors themselves with
the normalization f_-(infinity) = I that makes them unique.

Method: the coefficients h_k of f_+^{-1} = sum_k h_k z^k solve the
block-Toeplitz system  sum_j fhat(i - j) h_j = delta_{i0} I, i = 0..m,
which is the finite section of T_f applied to the coefficient sequence.
Both factors are matrix polynomials and follow from h at coefficient level
(``_factor_coeffs``): f_- = f f_+^{-1} is a polynomial in 1/z whose
constant term is exactly I by construction, f_+ a polynomial in z of the
degree of the max exponent of f, and with them comes the defect
E = f - f_- f_+.

Canonicity is proved from that one solve by a Wiener-norm bound
(``_wiener_certificate``; Boettcher & Silbermann, Analysis of Toeplitz
Operators; Clancey & Gohberg, Factorization of Matrix Functions and Singular
Integral Operators): f = f_- (I + X) f_+ with X = f_-^{-1} E f_+^{-1}.
Truncated series for f_+^{-1} (h itself) and f_-^{-1} bound both inverses in
the Wiener norm (sum of coefficient 2-norms); when ||X||_W <= 1/2 each of
T_{f_-}, T_{I+X}, T_{f_+} is invertible, hence so is T_f and every partial
index is zero; the same norms bound cond(T_f).  When the bound fails the
slice falls back to the kernel scan below, which also gives the indices of
a non-canonical slice.  A factorization is judged by its relative defect
sum_k ||E_k||_F / coeff_norm().

Partial indices are recovered without factorizing, from kernel dimensions
of the shifted operators T_{z^m f}:
dim ker T_{z^m f} = sum_i max(-(kappa_i + m), 0), so the multiplicity of the
index value -m is the second difference of that count in m.

Kernel dimensions come from tall sections (LaurentSymbol.section) whose
rows are the full hopping reach of the columns 0..L-1, so small singular
values correspond to genuine approximate kernel vectors and corner artifacts
of square sections never appear.  Counts must agree across L and 2L before
they are believed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    IllConditioned,
    InputError,
    NonConvergent,
    NotCanonical,
    SingularOnTorus,
    Unstable,
    WindowTooSmall,
)
from .symbols import LaurentSymbol, SliceSymbol, det_on_circle

__all__ = [
    "FactorizationResult",
    "VerificationReport",
    "RadialScanResult",
    "partial_indices",
    "canonical_factorize",
    "verify_factorization",
    "radial_scan",
    "toeplitz_kernel_dim",
    "winding_of_det",
    "certify_invertible",
]

KERNEL_RELTOL = 1e-8        # singular values below this times sigma_max count as zero
COND_CAP = 1e12
EXACT_COND_ROWS = 2048      # largest section whose condition is a full SVD
SECTION_CAP = 1536          # largest kernel-scan section before giving up
FIRST_TRUNCATION = 32       # block size of the first f_+^{-1} solve
MAX_TRUNCATION = 4096       # cap of the doubling loop and of a given truncation
DEFECT_TOL = 1e-10          # relative defect at which the doubling loop stops
DET_SAMPLES = 1024          # circle grid of the determinant check
DET_TOL = 1e-8              # min |det f| below which f is SingularOnTorus
VERIFY_GRID = 512           # circle grid of verify_factorization
SCAN_SECTION = 64           # Toeplitz section size of radial_scan
SCAN_GRID = 1024            # Fourier grid of the radially scaled symbols


def _as_one_var(symbol):
    if isinstance(symbol, SliceSymbol):
        symbol = symbol.symbol
    if symbol.num_vars != 1:
        raise DimensionMismatch("a one-variable symbol is required here")
    return symbol


def _poly_values(coeff_stack, u):
    """sum_k coeff_stack[k] * u^k by Horner, broadcast over the array u."""
    u = np.asarray(u, dtype=complex)
    out = np.broadcast_to(coeff_stack[-1], u.shape + coeff_stack.shape[1:]).copy()
    for k in range(len(coeff_stack) - 2, -1, -1):
        out *= u[..., None, None]
        out += coeff_stack[k]
    return out


def certify_invertible(symbol):
    """Check min |det f| on a DET_SAMPLES-point circle grid; SingularOnTorus
    below DET_TOL."""
    with np.errstate(invalid="ignore"):
        dets = det_on_circle(_as_one_var(symbol), DET_SAMPLES)
    dmin = float(np.abs(dets).min())
    if not dmin > DET_TOL:  # NaN fails this comparison too
        raise SingularOnTorus(
            f"min |det f| = {dmin:.3e} on a {DET_SAMPLES}-point grid (tol {DET_TOL:.1e})"
        )
    return dets


def winding_of_det(symbol):
    """Winding number of det f around the origin (certifies invertibility first)."""
    return _det_winding(certify_invertible(symbol))


def _det_winding(dets):
    """Winding number of the closed loop of certified determinant samples."""
    steps = np.angle(np.roll(dets, -1) / dets)
    total = float(steps.sum()) / (2.0 * np.pi)
    w = int(round(total))
    if abs(total - w) > 0.25:
        raise Unstable(f"det winding sum {total:.3f} is not close to an integer")
    return w


# --------------------------------------------------------- tall sections


def _kernel_count(*mats, rel_tol=KERNEL_RELTOL):
    """Kernel count of the section diag(mats), with the relative size of the
    smallest retained singular value (the margin separating kernel from bulk).
    Columns minus retained values, so a wide block counts its unreachable columns."""
    sv = np.sort(np.concatenate([np.linalg.svd(m, compute_uv=False) for m in mats]))[::-1]
    cols = sum(m.shape[1] for m in mats)
    if sv.size == 0 or sv[0] == 0.0:
        return cols, float("inf")
    above = sv[sv >= rel_tol * sv[0]]
    margin = float(above[-1] / sv[0]) if above.size else float("inf")
    return cols - above.size, margin


def _stable_kernel_dim(symbol, start, rel_tol=KERNEL_RELTOL):
    """Tall-section kernel dimension, escalated until trustworthy.

    Agreement of two consecutive doublings is not enough: a slowly decaying
    kernel vector keeps its section residual above the cutoff at small
    sizes, and the count then stabilizes at the wrong value.  The count is
    accepted only when the margin is not collapsing geometrically; a margin
    shrinking by more than a factor of 3 per doubling signals a direction
    heading under the cutoff, so the doubling continues until it crosses
    (the count increments) or levels off.
    """
    reach = max(0, symbol.exponent_range(0)[1])
    length = start
    prev = None
    while length <= SECTION_CAP:
        count, margin = _kernel_count(
            symbol.section((length + reach,), (length,)), rel_tol=rel_tol
        )
        if prev is not None and count == prev[0] and margin >= 0.3 * prev[1]:
            return count
        prev = (count, margin)
        length *= 2
    raise Unstable(
        f"kernel dimension did not stabilize below section length {SECTION_CAP}"
    )


def toeplitz_kernel_dim(symbol, start=None, rel_tol=KERNEL_RELTOL):
    """Stabilized dim ker of the half-line Toeplitz operator T_f."""
    symbol = _as_one_var(symbol)
    if not symbol.coeffs:
        return symbol.band_dim  # zero symbol: everything is kernel
    lo, hi = symbol.exponent_range(0)
    spread = max(hi - lo, 1)
    length = start if start is not None else max(24, 4 * spread)
    if length < 1:
        raise InputError(f"section length must be >= 1, got {length}")
    return _stable_kernel_dim(symbol, length, rel_tol)


# -------------------------------------------------------- partial indices


def partial_indices(symbol):
    """Partial indices of the right factorization, descending with multiplicity.

    Scans m over [-M-1, M+1] with M = band_dim * exponent spread (indices of
    a Laurent polynomial cannot exceed its exponent range, so this window is
    always wide enough) and reads multiplicities off second differences of
    d(m) = dim ker T_{z^m f}.  Linear tails of d at the window ends are
    required; their absence raises WindowTooSmall.
    """
    symbol = _as_one_var(symbol)
    dets = certify_invertible(symbol)
    n = symbol.band_dim
    lo, hi = symbol.exponent_range(0)
    if lo == hi:
        # single monomial a z^lo with a invertible: indices are all lo
        return tuple([lo] * n)
    window = n * (hi - lo)
    d = {}
    for m in range(-window - 1, window + 2):
        spread = max(hi - lo + abs(m), 1)
        try:
            d[m] = _stable_kernel_dim(symbol.shift((m,)), max(24, 4 * spread))
        except Unstable as exc:
            raise Unstable(f"kernel count for shift {m}: {exc}") from exc

    # tails: d must be exactly linear with slope -n at the negative end and
    # identically zero at the positive end, else the window missed an index
    if d[window + 1] != 0 or d[window] != 0:
        raise WindowTooSmall("d(m) does not vanish at the positive window end")
    if d[-window - 1] - d[-window] != n:
        raise WindowTooSmall("d(m) is not n-linear at the negative window end")

    indices = []
    for c in range(-window, window + 1):
        mult = d[-c - 1] - 2 * d[-c] + d[-c + 1]
        if mult < 0:
            raise Unstable(f"negative multiplicity at index value {c}")
        indices.extend([c] * mult)
    if len(indices) != n:
        raise Unstable(
            f"index multiplicities sum to {len(indices)}, expected {n}"
        )
    indices.sort(reverse=True)
    total = sum(indices)
    wind = _det_winding(dets)
    if total != wind:
        raise Unstable(
            f"sum of partial indices {total} disagrees with det winding {wind}"
        )
    return tuple(indices)


def _slice_indices(symbol):
    """Partial indices of a slice that is invertible on the circle.

    All zero when the Wiener-norm bound on one FIRST_TRUNCATION solve (no
    condition number) proves the slice canonical; otherwise the kernel-scan
    certificate decides, and the full partial_indices scan names the
    indices of a slice it rejects.
    """
    symbol = _as_one_var(symbol)
    dets = certify_invertible(symbol)
    try:
        certified = _solve_section(symbol, FIRST_TRUNCATION)[2] is not None
    except np.linalg.LinAlgError:
        certified = False
    if certified or _certified_canonical(symbol, dets):
        return (0,) * symbol.band_dim
    return partial_indices(symbol)


def _certified_canonical(symbol, dets):
    """Kernel-scan certificate, run when the Wiener-norm bound fails:
    winding(det) = 0 and trivial T_f kernel.

    ``dets`` are the samples of det f returned by ``certify_invertible``.
    dim ker T_f = sum_i max(-kappa_i, 0), so a trivial kernel forces all
    indices >= 0; winding zero is their sum, hence all are zero.
    """
    if _det_winding(dets) != 0:
        return False
    return toeplitz_kernel_dim(symbol) == 0


# ----------------------------------------------------------- factorization


@dataclass(frozen=True)
class FactorizationResult:
    """Canonical right factorization f = f_- f_+ with f_-(infinity) = I.

    ``minus_coeffs[k]`` is the coefficient of z^{-k} in f_- (index 0 is I),
    ``plus_coeffs[k]`` that of z^k in the polynomial f_+, and
    ``plus_inv_coeffs[k]`` that of z^k in the solved series of f_+^{-1}.
    ``defect`` is sum_k ||E_k||_F over the coefficients of
    E = f - f_- f_+, a bound on sup |f - f_- f_+| over the whole circle;
    ``residual`` is the relative defect, ``defect / symbol.coeff_norm()``.
    ``condition`` is the certificate's bound on cond(T_f), or the 2-norm
    condition of the solved section when the bound fails.
    """

    symbol: LaurentSymbol
    partial_indices: tuple
    minus_coeffs: np.ndarray
    plus_coeffs: np.ndarray
    plus_inv_coeffs: np.ndarray
    truncation: int
    residual: float
    condition: float
    defect: float

    @property
    def band_dim(self):
        return self.symbol.band_dim

    def plus_values(self, z):
        """f_+(z) = sum_k b_k z^k on arrays of z."""
        return _poly_values(self.plus_coeffs, z)

    def minus_conj_values(self, zbar):
        """f_-(1/conj(z)) written as sum_k c_k zbar^k, regular on |zbar| <= 1."""
        return _poly_values(self.minus_coeffs, zbar)

    def minus_values(self, z):
        z = np.asarray(z, dtype=complex)
        return _poly_values(self.minus_coeffs, 1.0 / z)

    def scaled_symbol_coeffs(self, t):
        """Fourier coefficients of z -> f_-(z/t) f_+(t z) for 0 <= t <= 1,
        on a SCAN_GRID-point circle.

        The series form kills the apparent 1/t: f_-(z/t) = sum_k c_k t^k z^{-k},
        so t = 0 degenerates smoothly to the constant f_+(0).
        """
        zs = np.exp(2j * np.pi * np.arange(SCAN_GRID) / SCAN_GRID)
        c_scaled = self.minus_coeffs * (t ** np.arange(len(self.minus_coeffs)))[:, None, None]
        b_scaled = self.plus_coeffs * (t ** np.arange(len(self.plus_coeffs)))[:, None, None]
        vals = _poly_values(c_scaled, np.conj(zs)) @ _poly_values(b_scaled, zs)
        return np.fft.fft(vals, axis=0) / SCAN_GRID


def _solve_section(symbol, m):
    """Solve the (m+1)-block section for the f_+^{-1} coefficients h; returns
    h, its ``_factor_coeffs`` factors (c, b, defect) and the certificate's
    bound on cond(T_f), None when it fails.  A singular section raises."""
    n = symbol.band_dim
    rhs = np.zeros(((m + 1) * n, n), dtype=complex)
    rhs[:n] = np.eye(n)
    h_stack = np.linalg.solve(symbol.section((m + 1,), (m + 1,)), rhs).reshape(m + 1, n, n)
    factors = _factor_coeffs(symbol, h_stack)
    return h_stack, factors, _wiener_certificate(symbol, h_stack, factors)


def _section_condition(symbol, m):
    """2-norm condition of the (m+1)-block section, for a solve whose bound
    failed: exact up to EXACT_COND_ROWS rows, beyond that max ||A^{-1} x|| *
    ||A||_F over three seeded unit probes x (a lower bound is enough for the
    COND_CAP decision)."""
    mat = symbol.section((m + 1,), (m + 1,))
    rows = mat.shape[0]
    if rows <= EXACT_COND_ROWS:
        return float(np.linalg.cond(mat))
    rng = np.random.default_rng(7)
    probes = rng.standard_normal((rows, 3)) + 1j * rng.standard_normal((rows, 3))
    probes /= np.linalg.norm(probes, axis=0)
    est = float(np.linalg.norm(np.linalg.solve(mat, probes), axis=0).max())
    return est * float(np.linalg.norm(mat))


def _poly_mul(p, q):
    """Coefficient stack of the product of two matrix polynomials, each
    given as its coefficient stack from degree 0 up."""
    out = np.zeros((len(p) + len(q) - 1,) + p.shape[1:], dtype=complex)
    if len(p) <= len(q):
        for i, a in enumerate(p):
            out[i:i + len(q)] += a @ q
    else:
        for j, b in enumerate(q):
            out[j:j + len(p)] += p @ b
    return out


def _factor_coeffs(symbol, h_stack):
    """Coefficient stacks of f_-, f_+ and the defect E = f - f_- f_+ from
    the f_+^{-1} coefficients h of one section solve.

    f_- = C(1/z) with c_0 = I and c_k the z^{-k} coefficient of f h;
    f_+ = B(z) of degree hi by back-substitution b_k = a_k - sum_{i>=1}
    c_i b_{k+i}; E, returned for degrees -k_minus .. k_plus, is then
    supported on negative powers up to roundoff.  Non-finite values pass
    through silently: the certificate rejects them.
    """
    lo, hi = symbol.exponent_range(0)
    k_minus, k_plus = max(0, -lo), max(0, hi)
    n = symbol.band_dim
    f_stack = np.array([symbol.coeff((k,)) for k in range(lo, hi + 1)], dtype=complex)
    with np.errstate(all="ignore"):
        fh = _poly_mul(f_stack, h_stack)            # degrees lo .. hi + m
        c = np.empty((k_minus + 1, n, n), dtype=complex)
        c[0] = np.eye(n)
        for k in range(1, k_minus + 1):
            c[k] = fh[-k - lo]
        b = np.zeros((k_plus + 1, n, n), dtype=complex)
        for k in range(k_plus, -1, -1):
            b[k] = symbol.coeff((k,)) - sum(
                c[i] @ b[k + i] for i in range(1, min(k_minus, k_plus - k) + 1)
            )
        defect = -_poly_mul(c[::-1], b)             # degrees -k_minus .. k_plus
        defect[lo + k_minus:hi + k_minus + 1] += f_stack
    return c, b, defect


def _wiener_certificate(symbol, h_stack, factors):
    """Prove f canonical from the f_+^{-1} coefficients of one section solve
    and bound cond(T_f).

    With f_-, f_+ and E = f - f_- f_+ the ``factors`` of ``_factor_coeffs``,
    g the degree-m series of f_-^{-1}, r_+ = ||I - f_+ h||_W and
    r_- = ||I - f_- g||_W, the inverses satisfy
    ||f_+^{-1}||_W <= M_+ = ||h||_W / (1 - r_+) and likewise M_- from g.
    f = f_- (I + X) f_+ with ||X||_W <= q = M_- ||E||_W M_+, so
    T_f = T_{f_-} T_{I+X} T_{f_+} is invertible once q < 1; the test asks
    for 1/2 so that roundoff in the norms cannot decide it.  The same
    factorization gives cond(T_f) <= ||f||_W M_- M_+ / (1 - q), which is
    returned.  Returns None (not certified, never an error) for a monomial,
    for h shorter than the negative reach of f, and on any non-finite value:
    the series g of a non-canonical slice may overflow.
    """
    lo, hi = symbol.exponent_range(0)
    m = len(h_stack) - 1
    k_minus = max(0, -lo)
    if lo == hi or k_minus > m:
        return None
    n = symbol.band_dim
    eye = np.eye(n)
    c, b, defect = factors
    f_stack = np.array([symbol.coeff((k,)) for k in range(lo, hi + 1)], dtype=complex)
    with np.errstate(all="ignore"):
        g = np.zeros((m + 1, n, n), dtype=complex)
        g[0] = eye
        for j in range(1, m + 1):
            g[j] = -sum(c[i] @ g[j - i] for i in range(1, min(j, k_minus) + 1))
        rest_plus = -_poly_mul(b, h_stack)
        rest_plus[0] += eye
        rest_minus = -_poly_mul(c, g)
        rest_minus[0] += eye
        # Wiener norms sum_k ||P_k||_2: they bound sup |P| on the circle and
        # are submultiplicative; one batched SVD serves all six
        stacks = (defect, g, rest_plus, rest_minus, h_stack, f_stack)
        block = np.concatenate(stacks)
        if not np.isfinite(block).all():
            return None
        try:
            tops = np.linalg.svd(block, compute_uv=False)[:, 0]
        except np.linalg.LinAlgError:
            return None
        ends = np.cumsum([len(x) for x in stacks])[:-1]
        e, g_norm, r_plus, r_minus, h_norm, f_norm = (float(t.sum()) for t in np.split(tops, ends))
        if not (r_plus < 1.0 and r_minus < 1.0):
            return None
        m_minus = g_norm / (1.0 - r_minus)
        q = m_minus * e * h_norm / (1.0 - r_plus)
    return f_norm * m_minus * h_norm / (1.0 - r_plus) / (1.0 - q) if q <= 0.5 else None


def canonical_factorize(symbol, truncation=None):
    """Compute the canonical factorization of a one-variable symbol.

    Raises SingularOnTorus / NotCanonical when f is not invertible on the
    circle or has nonzero partial indices; NonConvergent when the relative
    defect stays above DEFECT_TOL at MAX_TRUNCATION; IllConditioned when
    the condition (see FactorizationResult) crosses COND_CAP; InputError
    for a ``truncation`` outside 0..MAX_TRUNCATION.

    Without ``truncation`` the solve starts at FIRST_TRUNCATION blocks and
    doubles until the relative defect is at most DEFECT_TOL.  Only when the
    first certificate bound fails does the kernel-scan certificate run, and
    a slice it rejects raises NotCanonical with its partial indices before
    any IllConditioned or NonConvergent.
    """
    if truncation is not None and not 0 <= truncation <= MAX_TRUNCATION:
        raise InputError(
            f"truncation must be in 0..{MAX_TRUNCATION}, got {truncation}"
        )
    symbol = _as_one_var(symbol)
    dets = certify_invertible(symbol)
    n = symbol.band_dim
    lo, hi = symbol.exponent_range(0)
    if lo == hi == 0:
        a = symbol.coeff((0,))
        return FactorizationResult(
            symbol=symbol,
            partial_indices=tuple([0] * n),
            minus_coeffs=np.eye(n, dtype=complex)[None, :, :],
            plus_coeffs=np.asarray(a, dtype=complex)[None, :, :],
            plus_inv_coeffs=np.linalg.inv(a)[None, :, :],
            truncation=0,
            residual=0.0,
            condition=float(np.linalg.cond(a)),
            defect=0.0,
        )

    m = truncation if truncation is not None else FIRST_TRUNCATION
    try:
        solved = _solve_section(symbol, m)
    except np.linalg.LinAlgError:
        solved = None
    if solved is None or solved[2] is None:
        if not _certified_canonical(symbol, dets):
            raise NotCanonical(partial_indices(symbol))
        if solved is None:
            solved = _solve_section(symbol, m)  # a singular section raises, as before
    scale = symbol.coeff_norm()
    while True:
        h_stack, (c_stack, b_stack, defect), cond = solved
        if cond is None:
            cond = _section_condition(symbol, m)
        if cond > COND_CAP:
            raise IllConditioned(
                f"Toeplitz condition {cond:.3e} exceeds {COND_CAP:.1e}"
            )
        defect = float(np.linalg.norm(defect, axis=(-2, -1)).sum())
        if defect <= DEFECT_TOL * scale or truncation is not None:
            break
        if 2 * m > MAX_TRUNCATION:
            raise NonConvergent(
                f"relative defect {defect / scale:.3e} above {DEFECT_TOL:.1e} "
                f"at truncation cap {m}"
            )
        m *= 2
        solved = _solve_section(symbol, m)
    return FactorizationResult(
        symbol=symbol,
        partial_indices=tuple([0] * n),
        minus_coeffs=c_stack,
        plus_coeffs=b_stack,
        plus_inv_coeffs=h_stack,
        truncation=m,
        residual=defect / scale,
        condition=cond,
        defect=defect,
    )


# ------------------------------------------------------------ verification


@dataclass(frozen=True)
class VerificationReport:
    residual: float
    tail_ratio: float
    grid: int


def verify_factorization(fact):
    """Independent residual + tail-decay check of a FactorizationResult:
    sup |f_- f_+ - f| on a VERIFY_GRID-point circle grid, and the size of
    the last solved f_+^{-1} coefficient relative to the first."""
    zs = np.exp(2j * np.pi * np.arange(VERIFY_GRID) / VERIFY_GRID)
    fvals = fact.symbol.eval_grid([zs])
    recon = fact.minus_values(zs) @ fact.plus_values(zs)
    residual = float(np.linalg.norm(recon - fvals, axis=(-2, -1)).max())
    h = fact.plus_inv_coeffs
    head = float(np.linalg.norm(h[0]))
    tail = float(np.linalg.norm(h[-1])) / max(head, 1e-300) if len(h) > 1 else 0.0
    return VerificationReport(residual=residual, tail_ratio=tail, grid=VERIFY_GRID)


# ------------------------------------------------------------- radial scan


@dataclass(frozen=True)
class RadialScanResult:
    radii: tuple
    sigma_min: tuple
    section: int

    @property
    def worst(self):
        return min(self.sigma_min)


def radial_scan(fact, radii=None):
    """sigma_min of the SCAN_SECTION-size Toeplitz sections with symbol
    f_-(z/t) f_+(tz).

    These interpolate between T_f at t = 1 and the invertible constant
    f_+(0) at t = 0; uniformly positive values certify the whole family.
    """
    if radii is None:
        radii = np.linspace(0.0, 1.0, 9)
    sigmas = []
    for t in radii:
        t = float(t)
        if not 0.0 <= t <= 1.0:
            raise InputError(f"radius {t} outside [0, 1]")
        fourier = fact.scaled_symbol_coeffs(t)
        scaled = LaurentSymbol(1, fact.band_dim, [
            ((k,), fourier[k % SCAN_GRID]) for k in range(1 - SCAN_SECTION, SCAN_SECTION)
        ])
        sv = np.linalg.svd(scaled.section((SCAN_SECTION,), (SCAN_SECTION,)), compute_uv=False)
        sigmas.append(float(sv[-1]))
    return RadialScanResult(
        radii=tuple(float(t) for t in radii),
        sigma_min=tuple(sigmas),
        section=SCAN_SECTION,
    )
