"""Extension of a two-variable symbol to the boundary of the bidisk.

The boundary of D^2 x D^2 is the union of two solid tori glued along the
two-torus: chart TD = T x D^2 (first variable on the torus) and chart
DT = D^2 x T.  A symbol f whose slices factorize canonically extends to a
nonsingular matrix function f^E on that boundary: on chart TD,

    f^E(z, w) = C_z(conj w) . B_z(w),   C_z(u) = sum_k c_k(z) u^k,
                                         B_z(u) = sum_k b_k(z) u^k,

where c_k, b_k are the coefficients of the factors f_- and f_+ of the slice
factorization in the second variable at fixed z, and symmetrically on DT.
Both formulas are polynomials in w and conj(w), so regular at the disk
center, and agree with f on the gluing torus up to the slice defect
f - f_- f_+, whose Wiener norm bounds the seam over each slice circle.

Chart coordinates are always ordered (theta, rho, phi): theta is the angle
of the first variable, rho the radius of whichever variable lives in the
disk, phi the angle of the second variable.

An optional family variable t adds a circle parameter: slices are taken at
each t first, so the result is an evaluator over the glued boundary times
the parameter circle.  Failure of any sampled slice to factorize is exactly
failure of the corresponding half-plane operator to be invertible and
raises NotFredholm with the offending location.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InputError, OutOfDomain
from .symbols import GRID_CAP, _DEGREE_RELATION, _relation, az_class
from .wiener_hopf import FIRST_TRUNCATION, _slice_table

__all__ = [
    "ChartPoint",
    "ExtendedSymbol",
    "ClosedFormExtension",
    "build_extended",
    "build_extended_family",
    "check_hermitian",
    "check_equivariance",
    "check_grid_size",
    "check_w3_grid",
    "check_samples",
    "bott_generator",
]

CHARTS = ("TD", "DT")
MAX_RADII = 129        # largest W3 radial rule; its differentiation error grows like n^3 eps


@dataclass(frozen=True)
class ChartPoint:
    """A point of the glued boundary in chart coordinates.

    chart 'TD': the point is (e^{i theta}, rho e^{i phi}).
    chart 'DT': the point is (rho e^{i theta}, e^{i phi}).
    ``t`` is the family angle and stays None for plain two-variable symbols.
    """

    chart: str
    theta: float
    rho: float
    phi: float
    t: float | None = None

    def __post_init__(self):
        if self.chart not in CHARTS:
            raise OutOfDomain(f"unknown chart {self.chart!r}, expected TD or DT")
        if not 0.0 <= self.rho <= 1.0:
            raise OutOfDomain(f"rho = {self.rho} outside [0, 1]")
        if not np.isfinite([self.theta, self.phi, 0.0 if self.t is None else self.t]).all():
            raise OutOfDomain(f"chart angles theta, phi, t must be finite: {self}")


def _chart_coordinates(chart, thetas, rhos, phis):
    """The points (z, w) of a chart grid, broadcast to (n_theta, n_rho, n_phi):
    TD puts z on the torus and w in the disk, DT the other way round; any
    other chart, or a radius outside [0, 1], is OutOfDomain."""
    th = np.asarray(thetas, dtype=float)[:, None, None]
    rh = np.asarray(rhos, dtype=float)[None, :, None]
    ph = np.asarray(phis, dtype=float)[None, None, :]
    if rh.min() < 0.0 or rh.max() > 1.0:
        raise OutOfDomain("rho grid must lie in [0, 1]")
    if chart == "TD":
        return np.broadcast_arrays(np.exp(1j * th), rh * np.exp(1j * ph))
    if chart == "DT":
        return np.broadcast_arrays(rh * np.exp(1j * th), np.exp(1j * ph))
    raise OutOfDomain(f"unknown chart {chart!r}")


def check_grid_size(grid, band_dim):
    """Refuse a chart grid of more than GRID_CAP entries before allocating it."""
    size = math.prod(grid) * band_dim * band_dim
    if size > GRID_CAP:
        raise InputError(
            f"chart grid {tuple(grid)} of band {band_dim} would hold {size} "
            f"entries (cap {GRID_CAP})"
        )


def check_w3_grid(grid, band_dim):
    """Refuse a W3 grid with fewer than 3 angles, radii outside
    5..MAX_RADII, or more than GRID_CAP entries, before any work on it."""
    if min(grid[0], grid[2]) < 3 or not 5 <= grid[1] <= MAX_RADII:
        raise InputError(f"W3 grid {grid} needs >= 3 angles and 5..{MAX_RADII} radii")
    check_grid_size(grid, band_dim)


def check_samples(samples, band_dim):
    """Refuse fewer than one slice per circle, or so many that their
    opening solves, samples * band_dim^2 * (FIRST_TRUNCATION + 1) entries,
    exceed GRID_CAP, before any slice opens."""
    if samples < 1:
        raise InputError(f"samples_per_circle must be >= 1, got {samples}")
    size = samples * band_dim * band_dim * (FIRST_TRUNCATION + 1)
    if size > GRID_CAP:
        raise InputError(
            f"{samples} slices per circle of band {band_dim} would hold {size} "
            f"solved entries (cap {GRID_CAP})"
        )


class ExtendedSymbol:
    """Evaluator for f^E built from per-slice canonical factorizations.

    Construct through build_extended / build_extended_family.  Evaluation at
    angles outside the prebuilt sample set factorizes the needed slice on
    demand, once per base symbol (its slice table); nothing is interpolated.
    """

    def __init__(self, base, family_var=None, samples_per_circle=16):
        expected = 2 if family_var is None else 3
        if base.num_vars != expected:
            raise DimensionMismatch(
                f"base symbol has {base.num_vars} variables, expected {expected}"
            )
        if family_var is not None and not 0 <= family_var < base.num_vars:
            raise InputError(
                f"family variable {family_var} outside 0..{base.num_vars - 1}"
            )
        check_samples(samples_per_circle, base.band_dim)
        self.base = base
        self.family_var = family_var
        self.samples_per_circle = int(samples_per_circle)
        spatial = [v for v in range(base.num_vars) if v != family_var]
        self._var_disk = {"TD": spatial[1], "DT": spatial[0]}
        self.seam_residuals = {}

    @property
    def band_dim(self):
        return self.base.band_dim

    @property
    def has_family(self):
        return self.family_var is not None

    # ------------------------------------------------------------- slices

    def factor_at(self, chart, angle, t=None):
        """Canonical factorization of the disk-variable slice."""
        if self.has_family and t is None:
            raise OutOfDomain("family symbol requires a t coordinate")
        if not self.has_family and t is not None:
            raise OutOfDomain("symbol has no family variable, drop t")
        return _slice_table(self.base).factor(self._var_disk[chart], angle, self.family_var, t)

    # --------------------------------------------------------- evaluation

    def value(self, point):
        """f^E at a ChartPoint: its one-point chart grid."""
        return self.chart_grid(point.chart, [point.theta], [point.rho], [point.phi],
                               point.t)[0, 0, 0]

    def chart_grid(self, chart, thetas, rhos, phis, t=None):
        """f^E at family angle ``t`` on a tensor grid of one chart; shape
        (n_theta, n_rho, n_phi, N, N).

        One factorization per torus angle; the disk subgrid is evaluated
        vectorized from the factor polynomials.
        """
        z, w = _chart_coordinates(chart, thetas, rhos, phis)
        out = np.empty(z.shape + (self.band_dim,) * 2, dtype=complex)
        for i, angle in enumerate(thetas if chart == "TD" else phis):
            fact = self.factor_at(chart, angle, t)
            at = (i,) if chart == "TD" else (slice(None), slice(None), i)
            u = (w if chart == "TD" else z)[at]
            out[at] = fact.minus_conj_values(np.conj(u)) @ fact.plus_values(u)
        return out


def _prebuild(ext, t_values):
    """Factorize ``samples_per_circle`` uniformly spaced slices of both
    charts at each t (the Fredholmness certificate for both half-plane
    operators), and record the seam at each t.

    On the gluing torus the chart formula at a prebuilt torus angle is
    f_- f_+ of that slice, so the slice defect ||f - f_- f_+||_W bounds its
    deviation from f over the whole slice circle; the seam is the largest
    defect relative to the coefficient norm of the symbol.  It needs no
    tolerance of its own: every factorization passed the DEFECT_TOL stop
    rule relative to its slice's coefficient norm, which on the torus is at
    most the symbol's, so the seam is at most DEFECT_TOL.
    """
    samples = ext.samples_per_circle
    jobs = [
        (chart, 2.0 * np.pi * j / samples, t)
        for chart in CHARTS for j in range(samples) for t in t_values
    ]
    _slice_table(ext.base).open(
        [(ext._var_disk[chart], angle, ext.family_var, t) for chart, angle, t in jobs])
    facts = [ext.factor_at(*job) for job in jobs]
    scale = max(ext.base.coeff_norm(), 1e-300)
    for t in t_values:
        defects = [f.defect for job, f in zip(jobs, facts) if job[2] == t]
        ext.seam_residuals[t] = max(defects) / scale


def build_extended(symbol, samples_per_circle=16):
    """Build f^E for a two-variable symbol from ``samples_per_circle``
    factorized slices per variable; its seam, at most DEFECT_TOL (see
    _prebuild), is in ``seam_residuals[None]``."""
    ext = ExtendedSymbol(symbol, samples_per_circle=samples_per_circle)
    _prebuild(ext, [None])
    return ext


def build_extended_family(symbol, t_samples=8, samples_per_circle=8):
    """Build the family version with variable 2 as the family circle.

    Certifies every sampled (t, slice) pair in both charts; the first
    non-canonical slice aborts with NotFredholm carrying (angle, t).
    """
    if symbol.num_vars != 3:
        raise DimensionMismatch("family construction expects a three-variable symbol")
    if t_samples < 1:
        raise InputError(f"t_samples must be >= 1, got {t_samples}")
    ext = ExtendedSymbol(symbol, family_var=2, samples_per_circle=samples_per_circle)
    _prebuild(ext, [2.0 * np.pi * l / t_samples for l in range(t_samples)])
    return ext


# -------------------------------------------------- closed-form evaluators


class ClosedFormExtension:
    """Adapter giving a closed-form map on the glued boundary the same
    chart_grid / value interface as ExtendedSymbol.

    ``fn(z, w)`` receives broadcast complex arrays and returns values of
    shape z.shape + (N, N); the chart determines which variable carries the
    radius.  Used for reference maps whose extension is known exactly.
    """

    def __init__(self, fn, band_dim):
        self.fn = fn
        self.band_dim = band_dim
        self.has_family = False

    def value(self, point):
        return self.chart_grid(point.chart, [point.theta], [point.rho], [point.phi])[0, 0, 0]

    def chart_grid(self, chart, thetas, rhos, phis):
        return self.fn(*_chart_coordinates(chart, thetas, rhos, phis))


def bott_generator(reversed_orientation=False):
    """The degree-one generator [[z, -conj(w)], [w, conj(z)]] on the glued
    boundary.

    With ``reversed_orientation`` the second variable is conjugated, i.e.
    the generator is precomposed with the reflection (z, w) -> (z, conj w).
    A single reflection reverses the boundary orientation, so the result
    has degree -1.  (Conjugating both variables would compose two
    reflections and leave the degree at +1.)
    """

    def fn(z, w):
        if reversed_orientation:
            w = np.conj(w)
        z = np.asarray(z, dtype=complex)
        w = np.asarray(w, dtype=complex)
        out = np.empty(z.shape + (2, 2), dtype=complex)
        out[..., 0, 0] = z
        out[..., 0, 1] = -np.conj(w)
        out[..., 1, 0] = w
        out[..., 1, 1] = np.conj(z)
        return out

    return ClosedFormExtension(fn, 2)


# ------------------------------------------------------- symmetry probes


def _chart_violation(ext, relation, grid):
    """Max relative violation of f^E(sigma x) = theta(f^E(x)) over both
    chart grids, with sigma and theta from symbols' relation table.  A
    conjugating sigma fixes each chart and sends (theta, rho, phi) to
    (-theta, rho, -phi), so both sides are compared by index reversal."""
    conj_point, theta, _ = _relation(relation, ext.band_dim)
    thetas = 2.0 * np.pi * np.arange(grid[0]) / grid[0]
    rhos = np.linspace(0.0, 1.0, grid[1])
    phis = 2.0 * np.pi * np.arange(grid[2]) / grid[2]
    worst = 0.0
    for chart in CHARTS:
        vals = ext.chart_grid(chart, thetas, rhos, phis)
        scale = max(float(np.abs(vals).max()), 1e-300)
        moved = vals
        if conj_point:
            moved = np.roll(np.roll(vals[::-1, :, ::-1], 1, axis=0), 1, axis=2)
        diff = moved - theta(vals)
        worst = max(worst, float(np.linalg.norm(diff, axis=(-2, -1)).max()) / scale)
    return worst


def check_hermitian(ext, grid=(16, 9, 16)):
    """Max relative deviation of f^E from pointwise hermiticity, both charts."""
    return _chart_violation(ext, "hermitian", grid)


def check_equivariance(ext, spec, grid=(16, 9, 16)):
    """Max relative violation of f^E(conj z, conj w) = Theta_i(f^E(z, w)).

    ``spec`` is an AZClassSpec or label of a real class; Theta_i is the
    target involution of its KR degree i, the theta of its degree relation.
    """
    if isinstance(spec, str):
        spec = az_class(spec)
    if spec.antiunitary == "none":
        raise InputError(f"class {spec.label} carries no reality constraint")
    return _chart_violation(ext, _DEGREE_RELATION[spec.degree], grid)
