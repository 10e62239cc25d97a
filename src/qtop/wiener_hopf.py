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
partial indices decide.  A factorization is judged by its relative defect
sum_k ||E_k||_F / coeff_norm().

Partial indices are recovered without factorizing, from kernel dimensions
of the shifted operators T_{z^m f}:
dim ker T_{z^m f} = sum_i max(-(kappa_i + m), 0), so the multiplicity of the
index value -m is the second difference of that count in m.  Each count is
the rank defect of a small block-Hankel matrix of the coefficients of
f^{-1}, all read off one FFT.  ``toeplitz_kernel_dim`` counts independently,
from tall sections escalated until counts agree across L and 2L.

The coordinate slices of a symbol in several variables are built, opened
and factorized once, in its slice table (``_slice_table``), which every
Fredholm certificate and the extension f^E read.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    IllConditioned,
    InputError,
    NonConvergent,
    NotCanonical,
    NotFredholm,
    QtopError,
    SingularOnTorus,
    Unstable,
    WindowTooSmall,
)
from .symbols import DENSE_CAP, GRID_CAP, LaurentSymbol, _check_rows, _generic_block

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

KERNEL_RELTOL = 1e-8        # singular values below this times the scale count as zero
COND_CAP = 1e12
EXACT_COND_ROWS = 2048      # largest section whose condition is a full SVD
SECTION_CAP = 1536          # largest kernel-scan section before giving up
INVERSE_GRID = 4096         # circle grid of the FFT of f^{-1} in partial_indices
FIRST_TRUNCATION = 32       # block size of the first f_+^{-1} solve
MAX_TRUNCATION = 4096       # cap of the doubling loop and of a given truncation
DEFECT_TOL = 1e-10          # relative defect at which the doubling loop stops
DET_SAMPLES = 1024          # least circle grid of the determinant check
DET_TOL = 1e-8              # min |det f| / min(s, 1)^n at or below which f is SingularOnTorus
DET_HALVINGS = 24           # halvings of a det arc its bend bound leaves open
DET_GRID = 1 << 20          # largest det array: coefficient grid, finer grid or open arcs
NEWTON_STEPS = 4            # Newton steps toward a det root before an open arc is Unstable
STACK_BYTES = 12 << 20      # largest allocation of one stack of openings, in bytes
VERIFY_GRID = 512           # circle grid of verify_factorization
SCAN_SECTION = 64           # Toeplitz section size of radial_scan


def _as_one_var(symbol):
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


def _coeff_stack(symbol):
    """The coefficients a_lo .. a_hi of a one-variable symbol, stacked."""
    lo, hi = symbol.exponent_range(0)
    return np.array([symbol.coeff((k,)) for k in range(lo, hi + 1)], dtype=complex)


def _unwrap(result):
    """Raise the error a stacked step kept for one slice, else pass its result on."""
    if isinstance(result, QtopError):
        raise result
    return result


def _det_stack(slices):
    """Certify det f of one-variable slices that share band n and exponent
    range [lo, hi]; per slice, the winding of det f or the error it raises.

    det p, p = z^{-lo} f, has degree D = n (hi - lo).  One batched det at
    the smallest power of two > D circle points and one FFT give its
    coefficients, and a zero-padded FFT its values on at least DET_SAMPLES
    points for ``_arc_winding``; InputError past DET_GRID entries or DET_GRID
    / 4 points (no room to halve twice).  The cut is DET_TOL min(s, 1)^n,
    s = max_i sum_k ||row i of a_k||_2, as |det f| <= s^n (Hadamard).
    """
    n = slices[0].band_dim
    lo, hi = slices[0].exponent_range(0)
    degree = n * (hi - lo)
    points = 1 << degree.bit_length()
    if points * max(n * n, 4) > DET_GRID:
        raise InputError(f"det f of degree {degree} at band {n} needs {points} circle "
                         f"points: over {DET_GRID} matrix entries, or no room to halve twice")
    out = [None if sl.coeffs else _singular(0.0, 0.0) for sl in slices]
    live = [i for i, sl in enumerate(slices) if sl.coeffs]
    if not live:
        return out
    grid = max(points, DET_SAMPLES)
    with np.errstate(all="ignore"):
        coeffs = np.stack([_coeff_stack(slices[i]) for i in live])
        scale = np.linalg.norm(coeffs, axis=-1).sum(axis=1).max(axis=-1)
        samples = np.linalg.det(points * np.fft.ifft(coeffs, points, axis=1))
        polys = np.fft.fft(samples, axis=1)[:, :degree + 1] / points
        dets = grid * np.fft.ifft(polys, grid, axis=1)
        for row, i in enumerate(live):
            try:
                cut = DET_TOL * min(scale[row], 1.0) ** n
                out[i] = n * lo + _arc_winding(polys[row], cut, dets[row])
            except (SingularOnTorus, Unstable) as exc:
                out[i] = exc
    return out


def _arc_winding(poly, cut, dets):
    """Winding of ``poly`` from its values ``dets`` on a circle grid.  On an
    arc of width w it stays within C w^2 / 8, C = sum_k k^2 |c_k|, of the chord
    of its end values: a chord farther than that plus ``cut`` from 0 gives the
    turn, one nearer than ``cut`` minus that SingularOnTorus.  Other arcs are
    halved, DET_HALVINGS times at most, by a finer FFT or ``_circle_values``,
    whichever costs less within DET_GRID.  What stays open is Unstable,
    unless ``_newton_on_circle`` from the smallest sample of an open arc
    meets a value at or below ``cut``: SingularOnTorus."""
    bend = float(np.abs(poly) @ np.arange(len(poly)) ** 2) / 8.0
    grid, arcs, left, right, turn = len(dets), np.arange(len(dets)), dets, np.roll(dets, -1), 0.0
    for depth in range(DET_HALVINGS + 1):
        chord = right - left
        t = np.clip(-(np.conj(chord) * left).real / np.maximum(abs(chord) ** 2, 1e-300), 0, 1)
        near, gap = np.abs(left + t * chord), bend * (2.0 * np.pi / grid) ** 2
        dmin = float(np.minimum(abs(left), near + gap).min())
        if not dmin > cut:  # NaN fails this comparison too
            raise _singular(dmin, cut)
        done = near > gap + cut
        turn += float(np.angle(right[done] / left[done]).sum())
        arcs, left, right = arcs[~done], left[~done], right[~done]
        if not arcs.size:
            return round(turn / (2.0 * np.pi))
        finer, odd = 2 * grid, 2 * arcs + 1
        fits = odd.size * 2 * (int(len(poly) ** 0.5) + 1) <= DET_GRID
        if depth == DET_HALVINGS or not (fits or finer <= DET_GRID):
            break
        if fits and (finer > DET_GRID or odd.size * len(poly) <= finer * finer.bit_length()):
            mid = _circle_values(poly, odd, finer)
        else:
            mid = finer * np.fft.ifft(poly, finer)[odd]
        grid, arcs = finer, np.concatenate([2 * arcs, odd])
        left, right = np.concatenate([left, mid]), np.concatenate([mid, right])
    low = int(np.argmin(np.minimum(abs(left), abs(right))))
    start = arcs[low] + (abs(right[low]) < abs(left[low]))
    _newton_on_circle(poly, cut, 2.0 * np.pi * start / grid)
    raise Unstable(f"det f is unresolved on {arcs.size} arcs of width {2 * np.pi / grid:.1e}")


def _newton_on_circle(poly, cut, theta):
    """SingularOnTorus when ``poly`` is at or below ``cut`` at e^{i theta} or
    after one of NEWTON_STEPS Newton steps toward a root, each projected back
    onto the circle; ``poly`` and z poly' are evaluated by direct sums."""
    k = np.arange(len(poly))
    for _ in range(NEWTON_STEPS + 1):
        powers = np.exp(1j * k * (theta % (2.0 * np.pi)))
        value = poly @ powers
        if abs(value) <= cut:
            raise _singular(abs(value), cut)
        theta += np.angle(1.0 - value / ((k * poly) @ powers))


def _circle_values(poly, num, den):
    """``poly`` at the angles 2 pi num / den, by baby and giant steps."""
    step = int(len(poly) ** 0.5) + 1
    table = np.pad(poly, (0, -len(poly) % step)).reshape(-1, step)
    baby = np.exp(2j * np.pi / den * (np.outer(num, np.arange(step)) % den))
    giant = np.exp(2j * np.pi / den * (np.outer(num, step * np.arange(len(table))) % den))
    return ((baby @ table.T) * giant).sum(axis=1)


def _singular(dmin, cut):
    return SingularOnTorus(f"min |det f| <= {dmin:.3e} is at or below its cut {cut:.3e}")


def certify_invertible(symbol):
    """SingularOnTorus unless |det f| stays above DET_TOL min(s, 1)^n on the circle
    (see ``_det_stack``); returns the winding number of det f."""
    return _unwrap(_det_stack([_as_one_var(symbol)])[0])


def winding_of_det(symbol):
    """Winding number of det f around the origin (certifies invertibility first)."""
    return certify_invertible(symbol)


# --------------------------------------------------------- tall sections


def _kernel_count(*mats):
    """Kernel count of the section diag(mats), with the relative size of the
    smallest retained singular value (the margin separating kernel from bulk).
    Columns minus retained values, so a wide block counts its unreachable columns.
    An array passed more than once (one section per class of unitarily
    equivalent blocks) is decomposed once; its values count once per pass."""
    distinct = {id(m): m for m in mats}
    values = {key: np.linalg.svd(m, compute_uv=False) for key, m in distinct.items()}
    sv = np.sort(np.concatenate([values[id(m)] for m in mats]))[::-1]
    cols = sum(m.shape[1] for m in mats)
    if sv.size == 0 or sv[0] == 0.0:
        return cols, float("inf")
    above = sv[sv >= KERNEL_RELTOL * sv[0]]
    margin = float(above[-1] / sv[0]) if above.size else float("inf")
    return cols - above.size, margin


def toeplitz_kernel_dim(symbol, start=None):
    """dim ker of the half-line Toeplitz operator T_f from tall sections,
    escalated until trustworthy.

    Agreement of two consecutive doublings is not enough: a slowly decaying
    kernel vector keeps its section residual above the cutoff at small
    sizes, and the count then stabilizes at the wrong value.  The count is
    accepted only when the margin is not collapsing geometrically; a margin
    shrinking by more than a factor of 3 per doubling signals a direction
    heading under the cutoff, so the doubling continues until it crosses
    (the count increments) or levels off.  A section of more than DENSE_CAP
    rows is refused with SizeOverflow before it is built, and a start past
    SECTION_CAP / 2, which leaves room for one section only and so can
    never be accepted, with Unstable before any is built.
    """
    symbol = _as_one_var(symbol)
    if not symbol.coeffs:
        return symbol.band_dim  # zero symbol: everything is kernel
    lo, hi = symbol.exponent_range(0)
    length = start if start is not None else max(24, 4 * max(hi - lo, 1))
    if length < 1:
        raise InputError(f"section length must be >= 1, got {length}")
    reach = max(0, hi)
    prev = None
    while length <= SECTION_CAP:
        _check_rows((length + reach) * symbol.band_dim)
        if prev is None and 2 * length > SECTION_CAP:
            raise Unstable(f"kernel dimension needs two sections of at most {SECTION_CAP} "
                           f"columns; start {length} leaves room for one")
        count, margin = _kernel_count(symbol.section((length + reach,), (length,)))
        if prev is not None and count == prev[0] and margin >= 0.3 * prev[1]:
            return count
        prev = (count, margin)
        length *= 2
    raise Unstable(f"kernel dimension did not stabilize below section length {SECTION_CAP}")


# -------------------------------------------------------- partial indices


def partial_indices(symbol):
    """Partial indices of the right factorization, descending with multiplicity.

    They lie in the exponent range [lo, hi] of f, so m runs over
    [-hi-1, -lo+1]; d(m) is 0 at the positive end (L <= 0) by construction
    and must grow by n per step at the negative end, else WindowTooSmall,
    and no multiplicity may be negative, else Unstable; the multiplicities
    then sum to n.  With L = -(lo + m) and
    r_k the coefficients of p^{-1}, p = z^{-lo} f, d(m) is 0 for L <= 0, else
    n L minus the rank of the block Hankel matrix [r_{-(q+l-1)}] with
    q = 1 .. n (hi - lo) + L, l = 1 .. L (Gohberg, Lerer & Rodman, Bull. AMS
    84, 1978), counting singular values below KERNEL_RELTOL max_k ||r_k|| as
    zero (a monomial's matrix is pure rounding).  r comes from one
    INVERSE_GRID-point FFT; the Hankel matrices read |k| < INVERSE_GRID / 4,
    and aliasing moves those by about the cube of the largest ||r_k|| / max
    over the middle half of the grid: Unstable when it exceeds 1e-12.
    """
    return _partial_indices(_as_one_var(symbol))


def _partial_indices(symbol, wind=None):
    """``partial_indices``, given the winding ``wind`` of det f when the
    caller has certified it already, else certifying it after the size check."""
    n = symbol.band_dim
    lo, hi = symbol.exponent_range(0)
    rows, cols = (n + 1) * (hi - lo) + 1, hi - lo + 1  # blocks of the widest Hankel
    if max(INVERSE_GRID, rows * cols) * n * n > GRID_CAP or rows + cols > INVERSE_GRID // 4:
        raise InputError(f"exponent spread {hi - lo} at band {n} exceeds the "
                         f"{INVERSE_GRID}-point inverse grid or {GRID_CAP} entries")
    if wind is None:
        wind = certify_invertible(symbol)
    p = _coeff_stack(symbol)
    try:  # p sampled at 1/z, so the second FFT reads r_{-k} at index k
        tail = np.fft.fft(np.linalg.inv(np.fft.fft(p, INVERSE_GRID, axis=0)), axis=0)
    except np.linalg.LinAlgError:
        tail = np.full(1, np.nan)
    if not np.isfinite(tail).all():
        raise SingularOnTorus(f"f^-1 is not finite on the {INVERSE_GRID}-point grid")
    norms = np.linalg.norm(tail, axis=(-2, -1))
    top = norms.max()
    if (norms[INVERSE_GRID // 4:3 * INVERSE_GRID // 4].max() / top) ** 3 > 1e-12:
        raise Unstable(f"coefficients of f^-1 have not decayed on the "
                       f"{INVERSE_GRID}-point grid: a det root at or near the circle")
    d = {-lo: 0, -lo + 1: 0}
    for span in range(1, hi - lo + 2):  # m = -lo - span
        rows = n * (hi - lo) + span
        hankel = tail[np.arange(1, rows + 1)[:, None] + np.arange(span)]
        sv = np.linalg.svd(hankel.transpose(0, 2, 1, 3).reshape(rows * n, span * n),
                           compute_uv=False)
        d[-lo - span] = n * span - int((sv >= KERNEL_RELTOL * top).sum())

    # d must be exactly linear with slope -n at the negative end, else the
    # window missed an index
    if d[-hi - 1] - d[-hi] != n:
        raise WindowTooSmall("d(m) is not n-linear at the negative window end")

    indices = []
    for c in range(hi, lo - 1, -1):
        mult = d[-c - 1] - 2 * d[-c] + d[-c + 1]
        if mult < 0:
            raise Unstable(f"negative multiplicity at index value {c}")
        indices.extend([c] * mult)
    if sum(indices) != wind:
        raise Unstable(f"sum of partial indices {sum(indices)} disagrees with det winding {wind}")
    return tuple(indices)


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


def _solve_stack(slices, m):
    """Solve the (m+1)-block sections of one-variable slices that share band
    and exponent range for their f_+^{-1} coefficients h: all at once in
    band storage (``_band_solve``), then, each on its own dense section with
    ``np.linalg.solve``, every slice whose band result the certificate does
    not prove (non-finite, or a bound that fails), so that the unpivoted LU
    only ever proves a slice canonical; past DENSE_CAP rows the band result
    stays, uncertified.  Per slice h, its ``_factor_coeffs``
    factors (c, b, defect) and the certificate's bound on cond(T_f), None
    when it fails; None in place of all three for a singular section."""
    n = slices[0].band_dim
    lo = slices[0].exponent_range(0)[0]
    coeffs = np.stack([_coeff_stack(sl) for sl in slices])
    out = _certified(coeffs, lo, _band_solve(coeffs, lo, m))
    for i, sl in enumerate(slices):
        if out[i][2] is None and (m + 1) * n <= DENSE_CAP:
            try:
                h = np.linalg.solve(sl.section((m + 1,), (m + 1,)), np.eye((m + 1) * n, n))
            except np.linalg.LinAlgError:
                out[i] = None
                continue
            out[i] = _certified(coeffs[i:i + 1], lo, h.reshape(1, m + 1, n, n))[0]
    return out


def _certified(coeffs, lo, h):
    """Per slice of a stack h, its ``_factor_coeffs`` factors and its
    ``_wiener_certificate`` bound."""
    c, b, defect = factors = _factor_coeffs(coeffs, lo, h)
    bounds = _wiener_certificate(coeffs, lo, h, factors)
    return [(h[i], (c[i], b[i], defect[i]), bounds[i]) for i in range(len(h))]


def _band_solve(coeffs, lo, m):
    """The f_+^{-1} coefficients h of the (m+1)-block sections of a stack
    of slices with coefficients ``coeffs`` (a_lo .. a_hi on axis 1), by
    block LU without pivoting in band storage.

    Row i holds the blocks a_{i-j} of columns j = i - p .. i + q, with
    p = max(hi, 0) and q = max(-lo, 0), and then its block of the
    right-hand side, I_n in row 0; no fill-in leaves the band.  Column j
    takes one batched solve, which scales pivot row j by its pivot, and one
    broadcast matmul that updates rows j+1 .. j+p; back substitution takes
    one matmul per row.  A singular pivot leaves NaN in its slice only, and
    tiny ones may leave an inaccurate h; neither proves a slice wrongly, as
    the certificate checks whatever h it is given.
    """
    count, width, n = coeffs.shape[:3]
    hi = lo + width - 1
    p, q = max(hi, 0), max(-lo, 0)
    diagonals = np.zeros((count, p + q + 1, n, n), dtype=complex)  # a_p .. a_{-q}
    diagonals[:, p - hi:p - lo + 1] = coeffs[:, ::-1]
    rows, slots = np.arange(m + 1 + p)[:, None], np.arange(p + q + 1)
    inside = (rows <= m) & (rows + slots - p >= 0) & (rows + slots - p <= m)
    band = np.zeros((count, m + 1 + p, p + q + 2, n, n), dtype=complex)
    band[:, :, :-1] = np.where(inside[..., None, None], diagonals[:, None], 0.0)
    band[:, 0, -1] = np.eye(n)
    below = np.arange(1, p + 1)[:, None]
    # row j+s of column j+t sits in slot p - s + t; t = q + 1 is the rhs
    updated = p - below + np.arange(1, q + 2)
    updated[:, -1] = p + q + 1
    with np.errstate(all="ignore"):
        for j in range(m + 1):
            band[:, j, p + 1:] = _solve_each(band[:, j, p], band[:, j, p + 1:])
            band[:, j + below, updated] -= band[:, j + below, p - below] @ band[:, j, None, p + 1:]
        h = np.zeros((count, m + 1 + q, n, n), dtype=complex)
        for j in range(m, -1, -1):
            h[:, j] = band[:, j, -1] - (band[:, j, p + 1:-1] @ h[:, j + 1:j + q + 1]).sum(axis=1)
    return h[:, :m + 1]


def _solve_each(pivots, blocks):
    """pivots[k]^{-1} blocks[k, t] for every k and t, in one batched solve;
    NaN for the k whose pivot is singular."""
    count, width, n = blocks.shape[:3]
    flat = blocks.transpose(0, 2, 1, 3).reshape(count, n, width * n)
    try:
        flat = np.linalg.solve(pivots, flat)
    except np.linalg.LinAlgError:  # rare: solve one by one
        for k in range(count):
            try:
                flat[k] = np.linalg.solve(pivots[k], flat[k])
            except np.linalg.LinAlgError:
                flat[k] = np.nan
    return flat.reshape(count, n, width, n).transpose(0, 2, 1, 3)


def _solve_section(symbol, m):
    """``_solve_stack`` of one slice; Unstable for a singular section.
    ``_factorize`` asks only for slices whose partial indices are zero, so
    a singular section there is a canonical slice that finite sections
    cannot factor (f = [[z, 1], [0, 1/z]] has one at every size)."""
    solved = _solve_stack([symbol], m)[0]
    if solved is None:
        raise Unstable(f"the {m + 1}-block section is singular: finite sections "
                       "cannot factor this canonical slice")
    return solved


def _section_condition(symbol, m):
    """2-norm condition of the (m+1)-block section, for a solve whose bound
    failed: exact up to EXACT_COND_ROWS rows, beyond that max ||A^{-1} x|| *
    ||A||_F over three fixed unit probes x (a lower bound is enough for the
    COND_CAP decision); SizeOverflow past DENSE_CAP rows before any is built."""
    _check_rows((m + 1) * symbol.band_dim)
    mat = symbol.section((m + 1,), (m + 1,))
    rows = mat.shape[0]
    if rows <= EXACT_COND_ROWS:
        return float(np.linalg.cond(mat))
    probes = _generic_block(rows, 3)
    probes /= np.linalg.norm(probes, axis=0)
    est = float(np.linalg.norm(np.linalg.solve(mat, probes), axis=0).max())
    return est * float(np.linalg.norm(mat))


def _poly_mul(p, q):
    """Coefficient stacks of the products of two stacks of matrix
    polynomials, each given by its coefficients from degree 0 up on axis 1."""
    lp, lq = p.shape[1], q.shape[1]
    out = np.zeros((len(p), lp + lq - 1) + p.shape[2:], dtype=complex)
    if lp <= lq:
        for i in range(lp):
            out[:, i:i + lq] += p[:, i, None] @ q
    else:
        for j in range(lq):
            out[:, j:j + lp] += p @ q[:, j, None]
    return out


def _factor_coeffs(coeffs, lo, h):
    """Coefficient stacks of f_-, f_+ and the defect E = f - f_- f_+ from
    the f_+^{-1} coefficients h of one section solve, for a stack of slices
    with coefficients ``coeffs`` (a_lo .. a_hi on axis 1).

    f_- = C(1/z) with c_0 = I and c_k the z^{-k} coefficient of f h;
    f_+ = B(z) of degree hi by back-substitution b_k = a_k - sum_{i>=1}
    c_i b_{k+i}; E, returned for degrees -k_minus .. k_plus, is then
    supported on negative powers up to roundoff.  Non-finite values pass
    through silently: the certificate rejects them.
    """
    count, width, n = coeffs.shape[:3]
    hi = lo + width - 1
    k_minus, k_plus = max(0, -lo), max(0, hi)
    with np.errstate(all="ignore"):
        fh = _poly_mul(coeffs, h)                   # degrees lo .. hi + m
        c = np.empty((count, k_minus + 1, n, n), dtype=complex)
        c[:, 0] = np.eye(n)
        for k in range(1, k_minus + 1):
            c[:, k] = fh[:, -k - lo]
        b = np.zeros((count, k_plus + 1, n, n), dtype=complex)
        for k in range(k_plus, -1, -1):
            b[:, k] = (coeffs[:, k - lo] if lo <= k <= hi else 0.0) - sum(
                c[:, i] @ b[:, k + i] for i in range(1, min(k_minus, k_plus - k) + 1)
            )
        defect = -_poly_mul(c[:, ::-1], b)          # degrees -k_minus .. k_plus
        defect[:, lo + k_minus:hi + k_minus + 1] += coeffs
    return c, b, defect


def _wiener_certificate(coeffs, lo, h, factors):
    """Prove each slice of a stack canonical from the f_+^{-1} coefficients
    h of its section solve and bound cond(T_f); per slice the bound or None.

    With f_-, f_+ and E = f - f_- f_+ the ``factors`` of ``_factor_coeffs``,
    g the degree-m series of f_-^{-1}, r_+ = ||I - f_+ h||_W and
    r_- = ||I - f_- g||_W, the inverses satisfy
    ||f_+^{-1}||_W <= M_+ = ||h||_W / (1 - r_+) and likewise M_- from g.
    f = f_- (I + X) f_+ with ||X||_W <= q = M_- ||E||_W M_+, so
    T_f = T_{f_-} T_{I+X} T_{f_+} is invertible once q < 1; the test asks
    for 1/2 so that roundoff in the norms cannot decide it.  The same
    factorization gives cond(T_f) <= ||f||_W M_- M_+ / (1 - q), which is
    returned.  None (not certified, never an error) for a monomial, for h
    shorter than the negative reach of f, and on any non-finite value: the
    series g of a non-canonical slice may overflow.
    """
    count, width, n = coeffs.shape[:3]
    m = h.shape[1] - 1
    k_minus = max(0, -lo)
    if width == 1 or k_minus > m:
        return [None] * count
    eye = np.eye(n)
    c, b, defect = factors
    with np.errstate(all="ignore"):
        # g_j = -sum_i c_i g_{j-i}: one matmul per j of the row c_kminus .. c_1
        # against g_{j-kminus} .. g_{j-1}, with kminus zero blocks ahead of g_0
        g = np.zeros((count, k_minus + m + 1, n, n), dtype=complex)
        g[:, k_minus] = eye
        row = c[:, :0:-1].transpose(0, 2, 1, 3).reshape(count, n, k_minus * n)
        for j in range(1, m + 1):
            g[:, k_minus + j] = -row @ g[:, j:j + k_minus].reshape(count, k_minus * n, n)
        g = g[:, k_minus:]
        rest_plus = -_poly_mul(b, h)
        rest_plus[:, 0] += eye
        rest_minus = -_poly_mul(c, g)
        rest_minus[:, 0] += eye
        # Wiener norms sum_k ||P_k||_2: they bound sup |P| on the circle and
        # are submultiplicative.  One batched eigvalsh of Gram blocks serves
        # all six, for every slice: ||P||_2 = p sqrt(lambda_max(Q* Q)) with
        # Q = P / p and p the largest entry modulus, so that the Gram product
        # neither overflows nor underflows; a non-finite P leaves NaN norms.
        stacks = (defect, g, rest_plus, rest_minus, h, coeffs)
        block = np.concatenate(stacks, axis=1)
        peak = np.abs(block).max(axis=(-2, -1))
        block /= np.where(peak > 0, peak, 1.0)[..., None, None]
        gram = np.swapaxes(block, -1, -2).conj() @ block
        tops = np.full(block.shape[:2], np.nan)
        finite = np.isfinite(gram).all(axis=(1, 2, 3))
        try:
            tops[finite] = np.linalg.eigvalsh(gram if finite.all() else gram[finite])[..., -1]
        except np.linalg.LinAlgError:  # rare: find the slices it failed on
            for i in np.flatnonzero(finite):
                try:
                    tops[i] = np.linalg.eigvalsh(gram[i])[:, -1]
                except np.linalg.LinAlgError:
                    pass
        tops = peak * np.sqrt(tops)
        ends = np.cumsum([x.shape[1] for x in stacks])[:-1]
        e, g_norm, r_plus, r_minus, h_norm, f_norm = (
            t.sum(axis=1) for t in np.split(tops, ends, axis=1))
        m_minus = g_norm / (1.0 - r_minus)
        q = m_minus * e * h_norm / (1.0 - r_plus)
        bound = f_norm * m_minus * h_norm / (1.0 - r_plus) / (1.0 - q)
    proved = (r_plus < 1.0) & (r_minus < 1.0) & (q <= 0.5)  # NaN fails each
    return [float(x) if ok else None for x, ok in zip(bound, proved)]


def _open_stack(slices, m):
    """Opening steps of every slice certificate and factorization, for
    one-variable slices that share band and exponent range: ``_det_stack``,
    then (f not constant) ``_solve_stack`` at m blocks with its
    certificates, and the partial indices of each slice whose bound fails,
    from the winding ``_det_stack`` found.  Per slice, (m, the solve or None
    for a singular section, the partial indices), all zero when the bound
    proves f canonical, or the error its opening raises."""
    out = _det_stack(slices)
    lo, hi = slices[0].exponent_range(0)
    zero = (0,) * slices[0].band_dim
    if lo == hi == 0:
        return [w if isinstance(w, QtopError) else (m, None, zero) for w in out]
    live = [i for i, w in enumerate(out) if not isinstance(w, QtopError)]
    if not live:
        return out
    group = [slices[i] for i in live]
    for i, sl, one in zip(live, group, _solve_stack(group, m)):
        try:
            certified = one is not None and one[2] is not None
            out[i] = (m, one, zero if certified else _partial_indices(sl, out[i]))
        except QtopError as exc:
            out[i] = exc
    return out


def canonical_factorize(symbol, truncation=None):
    """Compute the canonical factorization of a one-variable symbol.

    Raises SingularOnTorus / NotCanonical when f is not invertible on the
    circle or has nonzero partial indices; NonConvergent when a doubling
    does not lower the relative defect, or it stays above DEFECT_TOL at
    MAX_TRUNCATION; IllConditioned when the condition (see
    FactorizationResult) crosses COND_CAP; InputError for a ``truncation``
    outside 0..MAX_TRUNCATION.

    Without ``truncation`` the solve starts at FIRST_TRUNCATION blocks and
    doubles until the relative defect is at most DEFECT_TOL, giving up at
    the first doubling that does not lower it rather than solving every
    section up to MAX_TRUNCATION.  Only when the first certificate bound
    fails are the partial indices computed, and a slice with a nonzero one
    raises NotCanonical with them before any IllConditioned or
    NonConvergent.
    """
    if truncation is not None and not 0 <= truncation <= MAX_TRUNCATION:
        raise InputError(
            f"truncation must be in 0..{MAX_TRUNCATION}, got {truncation}"
        )
    symbol = _as_one_var(symbol)
    m = truncation if truncation is not None else FIRST_TRUNCATION
    return _factorize(symbol, _unwrap(_open_stack([symbol], m)[0]), truncation)


def _factorize(symbol, opened, truncation):
    """canonical_factorize from the ``_open_stack`` result of ``symbol``:
    its doubling loop starts from the opening solve.  A constant f = a is
    its own f_+, with f_- = I, no defect and the condition of a."""
    m, solved, indices = opened
    n = symbol.band_dim
    scale = symbol.coeff_norm()
    if symbol.exponent_range(0) == (0, 0):
        a = symbol.coeff((0,))
        m, defect, cond = 0, 0.0, float(np.linalg.cond(a))
        h_stack, c_stack, b_stack = np.linalg.inv(a)[None], np.eye(n, dtype=complex)[None], a[None]
    elif any(indices):
        raise NotCanonical(indices)
    elif solved is None:  # none kept, or a singular section, which raises Unstable
        solved = _solve_section(symbol, m)
    previous = np.inf
    while solved is not None:
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
        if defect >= previous:
            raise NonConvergent(
                f"relative defect {defect / scale:.3e} at truncation {m} is not "
                f"below {previous / scale:.3e} at {m // 2}: doubling does not converge"
            )
        if 2 * m > MAX_TRUNCATION:
            raise NonConvergent(
                f"relative defect {defect / scale:.3e} above {DEFECT_TOL:.1e} "
                f"at truncation cap {m}"
            )
        previous = defect
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


# ------------------------------------------------------------- slice table


class _SliceTable:
    """The coordinate slices of one symbol, each built and opened once.

    The slice at (direction, angle, family variable, t) keeps ``direction``
    free, the family variable (None for none) at e^{i t} and the others at
    e^{i angle}; angles count modulo 2 pi to 12 decimals, so a chart grid
    point at a sampled angle reads the sampled slice.  An entry holds the
    slice, its ``_open_stack`` result (or the error its opening raised, raised
    again whenever the slice is read) and, once asked for, its factorization.
    """

    def __init__(self, symbol):
        self.symbol = symbol
        self._entries = {}

    @staticmethod
    def _key(direction, angle, t_var, t):
        return (direction, t_var) + tuple(
            None if a is None else round(float(a) % (2.0 * np.pi), 12) for a in (angle, t))

    def open(self, keys):
        """Open the slices at ``keys``, (direction, angle, t_var, t) tuples,
        that the table does not hold yet: in stacks of one exponent range of
        the slice, whatever its direction (a slice whose edge coefficient
        cancels joins its own), each split so that what its opening allocates
        stays within STACK_BYTES.  Per slice that is, in n x n blocks of 16 n^2
        bytes, at most (m + 1 + hi - lo)(hi - lo + 24) at m = FIRST_TRUNCATION
        for the band storage of ``_band_solve`` with its update products and
        for the certificate's block stacks (about 22 (m + 1) at hi - lo <= 2,
        by tracemalloc), or the ``points`` blocks of the det grid."""
        groups = {}
        for direction, angle, t_var, t in keys:
            key = self._key(direction, angle, t_var, t)
            if key in self._entries:
                continue
            fixed = [np.exp(1j * (t if v == t_var else angle))
                     for v in range(self.symbol.num_vars) if v != direction]
            sl = self.symbol.slice(direction, fixed)
            groups.setdefault(sl.exponent_range(0), {}).setdefault(key, sl)
        n = self.symbol.band_dim
        for (lo, hi), group in groups.items():
            points = 1 << (n * (hi - lo)).bit_length()  # the det grid of _det_stack
            spread = hi - lo
            per_slice = 16 * n * n * max((FIRST_TRUNCATION + 1 + spread) * (spread + 24), points)
            items = list(group.items())
            parts = min(len(items), -(-len(items) * per_slice // STACK_BYTES))
            for j in range(parts):
                chunk = items[len(items) * j // parts:len(items) * (j + 1) // parts]
                opened = _open_stack([sl for _, sl in chunk], FIRST_TRUNCATION)
                for (key, sl), result in zip(chunk, opened):
                    self._entries[key] = [sl, result, None]

    def _entry(self, direction, angle, t_var, t):
        key = self._key(direction, angle, t_var, t)
        if key not in self._entries:
            self.open([(direction, angle, t_var, t)])
        return self._entries[key]

    def certify(self, keys, detail):
        """Open the slices at ``keys`` together, then NotFredholm, with
        ``detail``, at the first of them, in order, that fails to open or
        has a nonzero partial index.  A family slice drops its first solve
        here: the flow factorizes none (keeping 256 raises its peak memory
        by 9%), the family extension each one as it opens it."""
        self.open(keys)
        for direction, angle, t_var, t in keys:
            with self._fredholm(direction, angle, t, detail):
                entry = self._entry(direction, angle, t_var, t)
                m, _, indices = _unwrap(entry[1])
                if t_var is not None:
                    entry[1] = (m, None, indices)
                if any(indices):
                    raise NotCanonical(indices)

    def factor(self, direction, angle, t_var, t):
        """Canonical factorization of the slice, continued from its opening
        solve; NotFredholm at a slice that has none."""
        with self._fredholm(direction, angle, t, None):
            entry = self._entry(direction, angle, t_var, t)
            if entry[2] is None:
                entry[2] = _factorize(entry[0], _unwrap(entry[1]), None)
            return entry[2]

    @contextmanager
    def _fredholm(self, direction, angle, t, detail):
        """SingularOnTorus and NotCanonical as NotFredholm at the slice."""
        try:
            yield
        except (SingularOnTorus, NotCanonical) as exc:
            indices = getattr(exc, "indices", None)
            raise NotFredholm(
                direction=direction,
                where=(float(angle),) if t is None else (float(angle), float(t)),
                indices=indices,
                detail=detail if detail and indices is not None else str(exc),
            ) from exc


def _slice_table(symbol):
    """The slice table of ``symbol``, made on first use and kept on it."""
    if not hasattr(symbol, "_slice_table"):
        symbol._slice_table = _SliceTable(symbol)
    return symbol._slice_table


# ------------------------------------------------------------ verification


@dataclass(frozen=True)
class VerificationReport:
    residual: float
    tail_ratio: float
    grid: int


def verify_factorization(fact):
    """Independent residual + tail-decay check of a FactorizationResult:
    sup |f_- f_+ - f| on a VERIFY_GRID-point circle grid, evaluated in
    chunks of at most GRID_CAP matrix entries, and the size of the last
    solved f_+^{-1} coefficient relative to the first."""
    zs = np.exp(2j * np.pi * np.arange(VERIFY_GRID) / VERIFY_GRID)
    step = max(1, GRID_CAP // fact.band_dim ** 2)
    residual = float(np.max([
        np.linalg.norm(fact.minus_values(z) @ fact.plus_values(z) - fact.symbol.eval_grid([z]),
                       axis=(-2, -1)).max()
        for z in (zs[i:i + step] for i in range(0, VERIFY_GRID, step))]))
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
    The symbol is sum_k c_k t^k z^{-k} sum_j b_j t^j z^j, so its
    coefficients, at exponents -k_minus .. k_plus, are one ``_poly_mul``
    of the scaled factor coefficients, and t = 0 leaves f_+(0) with no 1/t.
    """
    if radii is None:
        radii = np.linspace(0.0, 1.0, 9)
    c, b = fact.minus_coeffs, fact.plus_coeffs
    sigmas = []
    for t in radii:
        t = float(t)
        if not 0.0 <= t <= 1.0:
            raise InputError(f"radius {t} outside [0, 1]")
        c_t = c * (t ** np.arange(len(c)))[:, None, None]
        b_t = b * (t ** np.arange(len(b)))[:, None, None]
        product = _poly_mul(c_t[None, ::-1], b_t[None])[0]  # degrees -k_minus .. k_plus
        scaled = LaurentSymbol(1, fact.band_dim, [
            ((k + 1 - len(c),), a) for k, a in enumerate(product)
        ])
        sv = np.linalg.svd(scaled.section((SCAN_SECTION,), (SCAN_SECTION,)), compute_uv=False)
        sigmas.append(float(sv[-1]))
    return RadialScanResult(
        radii=tuple(float(t) for t in radii),
        sigma_min=tuple(sigmas),
        section=SCAN_SECTION,
    )
