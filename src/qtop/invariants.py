"""Winding-number invariants of symbols and their boundary extensions.

The three-dimensional winding number W3 of an extended symbol g on the
glued bidisk boundary is the degree integral

    W3 = s (1/24 pi^2) [ I_TD - I_DT ],
    I_chart = int tr( A_theta [A_rho, A_phi] + cyclic ) dtheta drho dphi,

with A_a = g^{-1} d_a g, integrated over each solid-torus chart in the
coordinate order (theta, rho, phi).  The charts are glued along rho = 1
with opposite boundary orientations, hence the relative minus sign.  The
global sign s is +1: the chart orientations make the degree-one reference
map [[z, -conj w], [w, conj z]] integrate to +1, a property of the
formula, not of the input.

Derivatives are spectral (FFT) in the two angles, and the angular sums
are rectangle rules (exact for trigonometric polynomials).  In the radius
the chart values are taken at Gauss-Legendre nodes, differentiated by the
matrix of the interpolant through them and integrated with the Gauss
weights.  On each chart f^E = C(conj u) B(u) is a polynomial in rho of
degree max(0, -lo) + max(0, hi) of the disk variable, so more nodes than
that differentiate it exactly and the radial integral converges
spectrally.

W3 is integrated coarse to fine on the exact halvings of the requested
grid, (a, r, b) -> (a/2, (r+1)/2, b/2) down to 8 angles and 5 radii while
each angle count exceeds twice the top exponent of its variable and the
radius count exceeds each rho-degree, and stops at the first two
successive grids whose values agree within AGREEMENT_TOL and round to the
same integer; their difference is the reported error estimate.  The
requested grid is the finest one used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre

from .errors import InputError
from .extension import (
    build_extended,
    check_equivariance,
    check_hermitian,
    check_w3_grid,
)
from .symbols import az_class, check_symmetry, split_chiral
from .wiener_hopf import _slice_table

__all__ = [
    "w3",
    "W3Result",
    "calibrate_orientation",
    "gapped_invariant_report",
    "GappedInvariantReport",
]

DEFAULT_GRID = (64, 33, 64)
AGREEMENT_TOL = 1e-6  # two successive chain grids agreeing this closely end W3
REPORT_SYMMETRY_TOL = 1e-8  # class relation tolerance of gapped_invariant_report


# ------------------------------------------------------------ derivatives


def _spectral_derivative(vals, axis):
    """d/dangle along a uniformly sampled 2pi-periodic axis."""
    n = vals.shape[axis]
    freq = np.fft.fftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        freq[n // 2] = 0.0  # drop the ambiguous Nyquist mode
    shape = [1] * vals.ndim
    shape[axis] = n
    mult = (1j * freq).reshape(shape)
    return np.fft.ifft(np.fft.fft(vals, axis=axis) * mult, axis=axis)


def _radial_rule(n):
    """Gauss-Legendre nodes and weights on [0, 1], and the matrix that
    differentiates the interpolant through the nodes (exact for
    polynomials of degree below n).

    With V the Legendre-Vandermonde matrix at the nodes and W the weights,
    V^T W V = diag(2 / (2j + 1)), so V^{-1} = diag(j + 1/2) V^T W.
    """
    x, w = legendre.leggauss(n)
    vander = legendre.legvander(x, n - 1)
    slopes = legendre.legval(x, legendre.legder(np.eye(n))).T  # P_j'(x_i)
    inverse = (np.arange(n) + 0.5)[:, None] * vander.T * w
    return (x + 1.0) / 2.0, w / 2.0, 2.0 * slopes @ inverse


def _chart_integral(grid_vals, weights, diff):
    """Integral of tr((g^{-1}dg)^3) over one chart in (theta, rho, phi) order."""
    g_inv = np.linalg.inv(grid_vals)
    a_theta = g_inv @ _spectral_derivative(grid_vals, 0)
    a_rho = g_inv @ np.moveaxis(np.tensordot(diff, grid_vals, axes=(1, 1)), 0, 1)
    a_phi = g_inv @ _spectral_derivative(grid_vals, 2)
    comm = a_rho @ a_phi - a_phi @ a_rho
    density = 3.0 * np.einsum("...ij,...ji->...", a_theta, comm)
    n_theta, _, n_phi = density.shape
    return complex(density.sum(axis=(0, 2)) @ weights) * (4.0 * np.pi**2 / (n_theta * n_phi))


def _raw_w3(ext, grid):
    n_theta, n_rho, n_phi = grid
    thetas = 2.0 * np.pi * np.arange(n_theta) / n_theta
    rhos, weights, diff = _radial_rule(n_rho)
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
    parts = {}
    for chart, sign in (("TD", 1.0), ("DT", -1.0)):
        vals = ext.chart_grid(chart, thetas, rhos, phis)
        parts[chart] = sign * _chart_integral(vals, weights, diff) / (24.0 * np.pi**2)
    return parts["TD"] + parts["DT"], parts


# ------------------------------------------------------------ orientation


def calibrate_orientation():
    """Global sign s of the two-chart degree integral: +1.

    The (theta, rho, phi) chart orientations already give the degree-one
    reference map bott_generator() the value +1 under _raw_w3, so the sign
    is a constant of the formula; every w3 call applies it.
    """
    return 1


@dataclass(frozen=True)
class W3Result:
    """Outcome of the three-dimensional winding-number integration."""

    raw_value: float
    rounded: int
    residual: float
    chart_values: dict
    grid: tuple
    sign: int
    history: tuple = ()
    error_estimate: float | None = None

    def to_dict(self):
        return {
            "raw_value": self.raw_value,
            "rounded": self.rounded,
            "residual": self.residual,
            "chart_values": {
                k: [v.real, v.imag] for k, v in self.chart_values.items()
            },
            "grid": list(self.grid),
            "orientation_sign": self.sign,
            "history": [
                {"grid": list(g), "raw": r, "residual": e} for g, r, e in self.history
            ],
            "error_estimate": self.error_estimate,
        }


def _resolves(ext, grid):
    """Whether ``grid`` samples the symbol of ``ext`` without aliasing and
    differentiates f^E exactly in rho.

    theta is the angle of the first variable and phi of the second in both
    charts.  Each angle count must exceed twice the top exponent of its
    variable: at or below it, the symbol's own modes sit on the dropped
    Nyquist mode or alias, and two such grids can agree on a wrong value
    (golden under z -> z^8 is constant on 8 angles and pure Nyquist on 16,
    so both integrate to 0).  The radius count must exceed the rho-degree
    max(0, -lo) + max(0, hi) of each variable, the degree of f^E in rho on
    the chart where that variable lies in the disk.  Closed-form evaluators
    carry no base symbol and keep every grid.
    """
    base = getattr(ext, "base", None)
    if base is None:
        return True
    for var, n in ((0, grid[0]), (1, grid[2])):
        lo, hi = base.exponent_range(var)
        if n <= 2 * max(-lo, hi) or grid[1] <= max(0, -lo) + max(0, hi):
            return False
    return True


def _grid_chain(ext, grid):
    """Exact halvings of ``grid`` down to 8 angles and 5 radii that resolve
    ``ext``, coarsest first; ``grid`` itself always ends the chain."""
    chain = [grid]
    a, r, b = grid
    while a % 2 == 0 and b % 2 == 0 and r % 2 == 1 and min(a, b) >= 16 and r >= 9:
        a, r, b = a // 2, (r + 1) // 2, b // 2
        if not _resolves(ext, (a, r, b)):
            break
        chain.append((a, r, b))
    return chain[::-1]


def w3(ext, grid=DEFAULT_GRID):
    """Three-dimensional winding number of an extended symbol.

    ``ext`` is an ExtendedSymbol (two variables, no family parameter) or any
    evaluator with a compatible chart_grid.  ``grid`` is the finest grid
    used: the integral runs on its exact halvings that resolve the symbol
    (see _resolves) from the coarsest up and stops at the first two
    successive grids whose values differ by at most AGREEMENT_TOL and round
    to the same integer.  If no two agree, the value is the one on
    ``grid``.  ``history`` lists every grid evaluated, ``grid`` the one
    that gave the value, and ``error_estimate`` the difference of the last
    two values (None when only one grid ran).
    """
    if getattr(ext, "has_family", False):
        raise InputError("w3 needs a two-variable extension; slice the family first")
    grid = tuple(int(g) for g in grid)
    check_w3_grid(grid, ext.band_dim)
    sign = calibrate_orientation()
    history = []
    previous = error_estimate = None
    for current in _grid_chain(ext, grid):
        raw, parts = _raw_w3(ext, current)
        value = sign * raw
        rounded = int(round(value.real))
        residual = abs(value - rounded)
        history.append((current, value.real, residual))
        if previous is not None:
            error_estimate = float(abs(value - previous))
            if error_estimate <= AGREEMENT_TOL and rounded == int(round(previous.real)):
                break
        previous = value
    return W3Result(
        raw_value=float(value.real),
        rounded=rounded,
        residual=float(residual),
        chart_values={k: sign * v for k, v in parts.items()},
        grid=current,
        sign=sign,
        history=tuple(history),
        error_estimate=error_estimate,
    )


# ------------------------------------------------------- gapped invariants

# Classes whose two-dimensional gapped invariant is read off as the integer
# W3 of the extended off-diagonal block.  For the four real chiral classes
# this is the complex-forgetful value and is labeled as such.
_CHIRAL_SHADOW = {"BDI", "DIII", "CII", "CI"}


@dataclass(frozen=True)
class GappedInvariantReport:
    """Invariant value and validation summary for a gapped symbol."""

    class_label: str
    degree: int
    chiral: bool
    invariant: int | None
    invariant_label: str
    w3_result: W3Result | None
    symmetry: dict
    extension_checks: dict
    fredholm_certificates: dict
    orientation_sign: int | None

    def to_dict(self):
        return {
            "class": self.class_label,
            "degree": self.degree,
            "chiral": self.chiral,
            "invariant": self.invariant,
            "invariant_label": self.invariant_label,
            "w3": self.w3_result.to_dict() if self.w3_result else None,
            "symmetry_violations": self.symmetry,
            "extension_checks": self.extension_checks,
            "fredholm_certificates": self.fredholm_certificates,
            "orientation_sign": self.orientation_sign,
        }


def _direction_certificates(symbol):
    """Partial indices of coordinate slices at four angles, per direction,
    each certified first: all zero, so each sampled half-plane compression
    is invertible, or NotFredholm at the first slice that is not."""
    table = _slice_table(symbol)
    angles = [2.0 * np.pi * j / 4 for j in range(4)]
    table.certify([(direction, angle, None, None)
                   for direction in range(symbol.num_vars) for angle in angles],
                  "half-plane compression is not invertible")
    zero = [0] * symbol.band_dim
    return {f"direction_{direction}": [{"angle": angle, "partial_indices": zero}
                                       for angle in angles]
            for direction in range(symbol.num_vars)}


def gapped_invariant_report(symbol, spec, grid=DEFAULT_GRID, samples_per_circle=16):
    """Invariant report for a two-variable gapped symbol in one AZ class.

    Validates the class relations on the symbol, builds the boundary
    extension of the class's designated object (the off-diagonal block for
    chiral classes, the symbol itself otherwise), runs hermiticity and
    equivariance checks there, and computes the integer W3 where the class
    target is the integers.  Other classes get the checks with the
    invariant tagged as not computed.
    """
    if isinstance(spec, str):
        spec = az_class(spec)
    if symbol.num_vars != 2:
        raise InputError("gapped invariant report expects a two-variable symbol")
    sym_report = check_symmetry(symbol, spec, tol=REPORT_SYMMETRY_TOL)
    sym_report.require()

    target = split_chiral(symbol) if spec.chiral else symbol
    ext = build_extended(target, samples_per_circle=samples_per_circle)
    certificates = _direction_certificates(target)
    extension_checks = {}
    if not spec.chiral:
        extension_checks["hermiticity"] = check_hermitian(ext)
    extension_checks["seam"] = ext.seam_residuals.get(None)
    if spec.antiunitary != "none":
        extension_checks["equivariance"] = check_equivariance(ext, spec)

    if spec.chiral:
        result = w3(ext, grid=grid)
        invariant = result.rounded
        label = "W3(h^E)"
        if spec.label in _CHIRAL_SHADOW:
            label += " (complex shadow)"
        sign = result.sign
    else:
        result = None
        invariant = None
        label = "not computed (non-Z target)"
        sign = None

    return GappedInvariantReport(
        class_label=spec.label,
        degree=spec.degree,
        chiral=spec.chiral,
        invariant=invariant,
        invariant_label=label,
        w3_result=result,
        symmetry={k: float(v) for k, v in sym_report.violations.items()},
        extension_checks=extension_checks,
        fredholm_certificates=certificates,
        orientation_sign=sign,
    )
