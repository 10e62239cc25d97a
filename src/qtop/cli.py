"""Command-line front door: load symbol files, run pipelines, emit reports.

Subcommands
-----------
factorize   canonical Wiener-Hopf factorization of a one-variable slice
index       quarter-plane truncation index, W3 of the extension, or both
corner      dense corner spectrum of a hermitian quarter truncation
flow        spectral flow of a three-variable hermitian family
extend      evaluate or dump the extended symbol f^E
symmetry    Altland-Zirnbauer relation checks, optionally a full report

Every report starts with a version header line followed by a JSON body;
spectra go to CSV files (--csv).  Exit codes are stable: 0 success, 2
mathematical obstruction (not canonical / not Fredholm / symmetry
violation), 3 numerical non-convergence, 4 input error, 5 cross-check
violation.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import (
    CrossCheckFailed,
    InputError,
    NumericalFailure,
    Obstruction,
)
from .extension import (
    ChartPoint,
    ExtendedSymbol,
    build_extended,
    check_grid_size,
    check_samples,
    check_w3_grid,
)
from .invariants import DEFAULT_GRID, gapped_invariant_report, w3
from .operators import corner_spectrum, numerical_index, spectral_flow
from .symbols import az_class, check_symmetry, load_symbol, split_chiral
from .wiener_hopf import canonical_factorize, verify_factorization

_PARAM_NAMES = 8  # missing --param variables named in the message


# ------------------------------------------------------------ small parsers


def _parse_int_tuple(text, expect=None, name="list"):
    """Comma-separated integers; an empty field is refused, not skipped."""
    try:
        values = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise InputError(f"{name} must be comma-separated integers: {text!r}") from None
    if expect is not None and len(values) != expect:
        raise InputError(f"{name} needs {expect} comma-separated integers: {text!r}")
    return values


def _w3_inputs(args, band_dim):
    """--grid, refused here with --samples when W3 could not run on them
    (before dense work or any slice)."""
    grid = _parse_int_tuple(args.grid, expect=3, name="--grid")
    check_w3_grid(grid, band_dim)
    check_samples(args.samples, band_dim)
    return grid


def _parse_params(items, num_vars, active_var):
    """--param assignments VAR=COMPLEX into the frozen-point tuple."""
    fixed = {}
    for item in items or []:
        head, sep, tail = item.partition("=")
        if not sep:
            raise InputError(f"--param needs VAR=VALUE, got {item!r}")
        try:
            var = int(head)
        except ValueError:
            raise InputError(f"--param variable index {head!r} is not an integer") from None
        try:
            value = complex(tail)
        except ValueError:
            raise InputError(f"--param value {tail!r} is not a complex literal") from None
        if not np.isfinite(value):
            raise InputError(f"--param value {tail!r} is not finite")
        if not 0 <= var < num_vars:
            raise InputError(f"--param variable {var} out of range for {num_vars} variables")
        if var == active_var:
            raise InputError(f"--param variable {var} is the factorization variable")
        if var in fixed:
            raise InputError(f"--param variable {var} given twice")
        fixed[var] = value
    missing = (v for v in range(num_vars) if v != active_var and v not in fixed)
    first = list(itertools.islice(missing, _PARAM_NAMES + 1))
    if first:
        count = num_vars - len(fixed) - (0 <= active_var < num_vars)
        names = first if count <= _PARAM_NAMES else f"{first[:-1]} ({count} in all)"
        raise InputError(f"missing --param for variable(s) {names}")
    return tuple(fixed[v] for v in sorted(fixed))


def _parse_chart_point(text):
    """chart=TD;theta=0.1;rho=0.5;phi=2.0[;t=0.3] -> ChartPoint."""
    fields = {}
    for piece in text.split(";"):
        piece = piece.strip()
        if not piece:
            continue
        key, sep, value = piece.partition("=")
        if not sep:
            raise InputError(f"chart point field {piece!r} needs key=value")
        fields[key.strip()] = value.strip()
    unknown = set(fields) - {"chart", "theta", "rho", "phi", "t"}
    if unknown:
        raise InputError(f"unknown chart point field(s) {sorted(unknown)}")
    missing = {"chart", "theta", "rho", "phi"} - set(fields)
    if missing:
        raise InputError(f"chart point missing field(s) {sorted(missing)}")
    try:
        angles = {k: float(fields[k]) for k in ("theta", "rho", "phi")}
        t = float(fields["t"]) if "t" in fields else None
    except ValueError as exc:
        raise InputError(f"chart point has a non-numeric field: {exc}") from None
    return ChartPoint(
        chart=fields["chart"].upper(),
        theta=angles["theta"],
        rho=angles["rho"],
        phi=angles["phi"],
        t=t,
    )


def _check_threads(args):
    """Validate --threads and QTOP_THREADS; neither has an effect."""
    if args.threads is not None:
        if args.threads < 1:
            raise InputError("--threads must be >= 1")
        return
    env = os.environ.get("QTOP_THREADS", "").strip()
    if env:
        try:
            n = int(env)
        except ValueError:
            raise InputError(f"QTOP_THREADS={env!r} is not an integer") from None
        if n < 1:
            raise InputError("QTOP_THREADS must be >= 1")


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(report, out_path=None):
    text = f"# qtop {__version__}\n" + json.dumps(
        report, indent=2, default=_json_default
    ) + "\n"
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)


def _matrix_display(mat):
    rows = []
    for row in np.asarray(mat):
        cells = []
        for v in row:
            re, im = round(float(v.real), 6), round(float(v.imag), 6)
            re = 0.0 if re == 0 else re  # normalize -0.0
            im = 0.0 if im == 0 else im
            if im == 0:
                cells.append(f"{re:g}")
            elif re == 0:
                cells.append(f"{im:g}j")
            else:
                cells.append(f"{re:g}{im:+g}j")
        rows.append("[" + ", ".join(cells) + "]")
    return "[" + ", ".join(rows) + "]"


# --------------------------------------------------------------- commands


def _cmd_factorize(args):
    symbol = load_symbol(args.file)
    if symbol.num_vars == 1:
        if args.param:
            raise InputError("--param given for a one-variable symbol")
        if args.var != 0:
            raise InputError(f"--var {args.var} out of range for a one-variable symbol")
        target = symbol
        fixed = ()
    else:
        fixed = _parse_params(args.param, symbol.num_vars, args.var)
        target = symbol.slice(args.var, fixed)
    fact = canonical_factorize(target, truncation=args.trunc)
    check = verify_factorization(fact)
    return {
        "command": "factorize",
        "input": args.file,
        "variable": args.var,
        "fixed_point": fixed,
        "partial_indices": list(fact.partial_indices),
        "truncation": fact.truncation,
        "residual": fact.residual,
        "condition": fact.condition,
        "verification_residual": check.residual,
        "tail_ratio": check.tail_ratio,
    }


def _cmd_index(args):
    symbol = load_symbol(args.file)
    report = {"command": "index", "input": args.file, "mode": args.mode}
    idx = None
    if args.mode in ("w3", "both"):
        grid = _w3_inputs(args, symbol.band_dim)
        if symbol.num_vars != 2:
            raise InputError("W3 needs a two-variable symbol")
    if args.mode in ("truncation", "both"):
        sizes = _parse_int_tuple(args.sizes, name="--sizes")
        idx = numerical_index(symbol, sizes=sizes)
        report["truncation"] = idx.to_dict()
    if args.mode in ("w3", "both"):
        _run_w3(args, report, "w3", symbol, grid, None if idx is None else idx.value,
                "W3 {w3} != truncation index {other}")
    return report


def _cmd_corner(args):
    symbol = load_symbol(args.file)
    spec = az_class(args.az_class) if args.az_class else None
    label = spec.label if spec else args.az_class
    if label == "AIII":
        grid = _w3_inputs(args, symbol.band_dim // 2)
    result = corner_spectrum(
        symbol,
        args.size,
        chiral=spec.chiral if spec else True,
        zero_tol=args.zero_tol,
        corner_floor=args.floor,
        participation=bool(args.csv),
    )
    report = {
        "command": "corner",
        "input": args.file,
        "class": label,
        "spectrum": result.to_dict(),
    }
    if spec:
        sym_report = check_symmetry(symbol, spec)
        report["symmetry_violations"] = sym_report.violations
        sym_report.require()
    if args.csv:
        chis = result.eigen_chirality
        rows = ([k, f"{lam:.12g}", "" if chis is None else f"{chis[k]:.12g}",
                 f"{result.eigen_participation[k]:.12g}"]
                for k, lam in enumerate(result.eigenvalues))
        _write_csv(report, args.csv,
                   ["eigenvalue_index", "lambda", "chirality", "participation_near_corner"], rows)
    if label == "AIII":
        _run_w3(args, report, "w3_of_h", split_chiral(symbol), grid, result.signed_count,
                "signed corner count {other} != W3 {w3}")
    return report


def _run_w3(args, report, key, symbol, grid, other, mismatch):
    """Store W3 of the extension of ``symbol`` (--samples slices per circle)
    on ``grid`` as ``report[key]``.  With an integer ``other``, also store
    ``report["agreement"]``; on disagreement emit the report and raise
    CrossCheckFailed with ``mismatch`` formatted with fields w3 and other."""
    result = w3(build_extended(symbol, samples_per_circle=args.samples), grid=grid)
    report[key] = result.to_dict()
    if other is not None:
        report["agreement"] = bool(result.rounded == other)
        if result.rounded != other:
            _emit(report, args.out)
            raise CrossCheckFailed(mismatch.format(w3=result.rounded, other=other))


def _write_csv(report, path, header, rows):
    """Write ``header`` and ``rows`` as CSV to ``path`` and name it in the report."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    report["csv"] = path


def _cmd_flow(args):
    family = load_symbol(args.file)
    result = spectral_flow(
        family,
        t_var=args.tvar,
        t_samples=args.tsamples,
        side=args.size,
        window=args.window,
    )
    report = {
        "command": "flow",
        "input": args.file,
        "result": result.to_dict(),
    }
    if args.csv:
        t_values = result.t_values
        rows = []
        for track_id, track in enumerate(result.tracks):
            values = track["values"]
            parts = track["participation"]
            steps = len(values) - 1 if track["closed"] else len(values)
            for i in range(steps):
                t = t_values[(track["start_index"] + i) % len(t_values)]
                rows.append([f"{t:.12g}", track_id, f"{values[i]:.12g}", f"{parts[i]:.12g}"])
        _write_csv(report, args.csv,
                   ["t", "eigenvalue_index", "lambda", "participation_near_corner"], rows)
    return report


def _cmd_extend(args):
    symbol = load_symbol(args.file)
    if args.eval is not None:
        point = _parse_chart_point(args.eval)
        family_var = args.tvar if symbol.num_vars == 3 else None
        ext = ExtendedSymbol(symbol, family_var=family_var, samples_per_circle=args.samples)
        value = ext.value(point)
        return {
            "command": "extend",
            "input": args.file,
            "point": dataclasses.asdict(point),
            "value": value,
            "value_display": _matrix_display(value),
        }
    if symbol.num_vars != 2:
        raise InputError("--dump needs a two-variable symbol (slice families first)")
    if not args.out:
        raise InputError("--dump needs --out BASEPATH for the binary files")
    nt, nr, np_ = _parse_int_tuple(args.dump, expect=3, name="--dump")
    if min(nt, nr, np_) < 2:
        raise InputError("--dump grid needs at least 2 points per axis")
    check_grid_size((nt, nr, np_), symbol.band_dim)
    ext = build_extended(symbol, samples_per_circle=args.samples)
    thetas = 2.0 * np.pi * np.arange(nt) / nt
    rhos = np.linspace(0.0, 1.0, nr)
    phis = 2.0 * np.pi * np.arange(np_) / np_
    charts = ("TD", "DT") if args.chart == "both" else (args.chart,)
    paths = {}
    for chart in charts:
        grid = ext.chart_grid(chart, thetas, rhos, phis)
        path = f"{args.out}.{chart}.bin"
        _write_dump(path, [nt, nr, np_, symbol.band_dim], grid)
        paths[chart] = path
    return {
        "command": "extend",
        "input": args.file,
        "grid": [nt, nr, np_],
        "seam_residual": max(ext.seam_residuals.values()),
        "files": paths,
    }


def _write_dump(path, header, values):
    """Raw binary dump: the int64 ``header``, then ``values`` in C order as
    interleaved re/im float64 pairs."""
    values = np.asarray(values, dtype=complex)
    with open(path, "wb") as fh:
        np.asarray(header, dtype=np.int64).tofile(fh)
        np.stack([values.real, values.imag], axis=-1).tofile(fh)


def _cmd_symmetry(args):
    symbol = load_symbol(args.file)
    spec = az_class(args.az_class)
    report = {
        "command": "symmetry",
        "input": args.file,
        "class": spec.label,
        "degree": spec.degree,
    }
    grid = _parse_int_tuple(args.grid, expect=3, name="--grid")
    band = symbol.band_dim // 2 if spec.chiral else symbol.band_dim
    if spec.chiral:  # only chiral classes run W3, on h of half the band
        check_w3_grid(grid, band)
    check_samples(args.samples, band)
    if args.report:
        full = gapped_invariant_report(
            symbol, spec, grid=grid, samples_per_circle=args.samples
        )
        report["invariants"] = full.to_dict()
        return report
    sym_report = check_symmetry(symbol, spec)
    report["violations"] = sym_report.violations
    report["passed"] = sym_report.passed
    sym_report.require()
    return report


# ----------------------------------------------------------------- parser


def _add_common(sub):
    sub.add_argument("file", help="symbol file (JSON)")
    sub.add_argument("--out", default=None, help="also write the report here")
    sub.add_argument(
        "--threads",
        type=int,
        default=None,
        help="accepted and validated with QTOP_THREADS, no effect",
    )


def _add_w3_flags(sub, grid_note=""):
    """--grid and --samples, the inputs of W3 (and of the extension)."""
    sub.add_argument("--grid", default=",".join(str(n) for n in DEFAULT_GRID),
                     help="finest W3 grid n_theta,n_rho,n_phi; W3 stops at the first two "
                     "of its halvings that agree" + grid_note)
    sub.add_argument("--samples", type=int, default=16, help="slices per circle")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qtop",
        description="Topological invariants of quarter-plane Toeplitz operators.",
    )
    parser.add_argument(
        "--version", action="version", version=f"qtop {__version__}"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("factorize", help="canonical Wiener-Hopf factorization")
    _add_common(p)
    p.add_argument("--var", type=int, default=0, help="variable to factorize in")
    p.add_argument(
        "--param",
        action="append",
        default=None,
        metavar="VAR=VALUE",
        help="freeze another variable at a complex value (repeatable)",
    )
    p.add_argument("--trunc", type=int, default=None,
                   help="series truncation, solved once and kept (default: from 32, "
                   "doubled until the defect converges)")
    p.set_defaults(func=_cmd_factorize)

    p = subs.add_parser("index", help="Fredholm index and/or W3")
    _add_common(p)
    p.add_argument("--mode", choices=("w3", "truncation", "both"), default="both")
    p.add_argument("--sizes", default="10,14,18", help="truncation sizes")
    _add_w3_flags(p)
    p.set_defaults(func=_cmd_index)

    p = subs.add_parser("corner", help="corner spectrum of a quarter truncation")
    _add_common(p)
    p.add_argument("--size", type=int, default=20, help="square side length L")
    p.add_argument("--class", dest="az_class", default=None, help="AZ class label")
    p.add_argument("--zero-tol", type=float, default=1e-6)
    p.add_argument("--floor", type=float, default=0.5, help="corner participation floor")
    p.add_argument("--csv", default=None, help="write the spectrum as CSV here")
    _add_w3_flags(p, " (AIII cross-check)")
    p.set_defaults(func=_cmd_corner)

    p = subs.add_parser("flow", help="spectral flow of a hermitian family")
    _add_common(p)
    p.add_argument("--tvar", type=int, default=2, help="family variable index")
    p.add_argument("--tsamples", type=int, default=16)
    p.add_argument("--size", type=int, default=6, help="square side length L")
    p.add_argument("--window", type=float, default=0.5)
    p.add_argument("--csv", default=None, help="write tracked eigenvalues as CSV here")
    p.set_defaults(func=_cmd_flow)

    p = subs.add_parser("extend", help="evaluate or dump the extended symbol")
    _add_common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--eval",
        default=None,
        metavar="POINT",
        help="chart point, e.g. chart=DT;theta=0;rho=0;phi=0.5",
    )
    group.add_argument(
        "--dump",
        default=None,
        metavar="NT,NR,NP",
        help="dump chart grids to binary files at --out",
    )
    p.add_argument("--chart", choices=("TD", "DT", "both"), default="both")
    p.add_argument("--samples", type=int, default=16, help="slices per circle")
    p.add_argument("--tvar", type=int, default=2, help="family variable for 3-variable files")
    p.set_defaults(func=_cmd_extend)

    p = subs.add_parser("symmetry", help="Altland-Zirnbauer relation checks")
    _add_common(p)
    p.add_argument("--class", dest="az_class", required=True, help="AZ class label")
    p.add_argument(
        "--report",
        action="store_true",
        help="full invariant report (extension checks, W3 shadow)",
    )
    _add_w3_flags(p)
    p.set_defaults(func=_cmd_symmetry)

    return parser


def _error_report(command, exc):
    report = {
        "command": command,
        "error": type(exc).__name__,
        "detail": str(exc),
    }
    for field in ("indices", "direction", "where"):
        value = getattr(exc, field, None)
        if value is not None:
            report[field] = list(value) if isinstance(value, tuple) else value
    return report


def _emit_failure(command, exc, out_path, code):
    """Print the error report, duplicate it to ``out_path`` and return
    ``code``.  When --out cannot be written (the failure may be that very
    write) the report stays on stdout and the exit code stands."""
    try:
        _emit(_error_report(command, exc), out_path)
    except OSError:
        pass
    return code


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 4
    out = getattr(args, "out", None)
    try:
        _check_threads(args)
        report = args.func(args)
    except CrossCheckFailed as exc:
        # --out already holds the full report with "agreement": false
        _emit(_error_report(args.command, exc))
        return 5
    except Obstruction as exc:
        return _emit_failure(args.command, exc, out, 2)
    except NumericalFailure as exc:
        return _emit_failure(args.command, exc, out, 3)
    except (InputError, OSError) as exc:
        return _emit_failure(args.command, exc, out, 4)
    try:
        _emit(report, out)
    except OSError as exc:
        # the report is already on stdout; only its copy is missing
        sys.stderr.write(f"qtop: cannot write --out: {exc}\n")
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
