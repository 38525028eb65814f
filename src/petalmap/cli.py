"""Command-line front end: trace, verify, sweep, and moments.

All outputs are deterministic: CSV cells carry 17 significant digits with LF
line endings, JSON is sorted, and no command consults any randomness.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import re
import sys

import numpy as np

from .maps import MapFamily, TimeState, boundary_trace
from .verify import (
    MOMENT_MIN_INDEX,
    VerificationError,
    _screened_points,
    conformality_check,
    harmonic_moment,
    harmonic_moment_area,
    m_plus_samples,
    run_standard_checks,
    sweep,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_RUNTIME = 2
EXIT_USAGE = 64

_ANGLE_RE = re.compile(r"^\s*(\d+)?\s*pi\s*(?:/\s*(\d+))?\s*$", re.IGNORECASE)


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; usage problems must map to 64
    def error(self, message):
        raise UsageError(message)


def parse_angle(text: str) -> float:
    """Angles as finite plain decimals or rational multiples of pi like '3pi/16'."""
    m = _ANGLE_RE.match(text)
    if m:
        try:
            # int() refuses more digits than sys.get_int_max_str_digits()
            value = int(m.group(1) or 1) * math.pi / int(m.group(2) or 1)
        except ZeroDivisionError:
            raise UsageError("zero denominator in angle %r" % text) from None
        except (OverflowError, ValueError):
            raise UsageError("angle %r is outside the float range" % text) from None
    else:
        try:
            value = float(text)
        except ValueError:
            raise UsageError("cannot parse angle %r" % text) from None
    if not math.isfinite(value):
        raise UsageError("angle %r is not finite" % text)
    return value


def parse_complex(text: str) -> complex:
    """Finite points like 1+2i or 0.8j; both imaginary-unit spellings are fine."""
    cleaned = text.replace(" ", "").replace("i", "j").replace("I", "j")
    try:
        value = complex(cleaned)
    except ValueError:
        raise UsageError("cannot parse complex number %r" % text) from None
    if not cmath.isfinite(value):
        raise UsageError("complex number %r is not finite" % text)
    return value


def parse_grid(text: str, flag: str) -> list[float]:
    """Evenly spaced angles from a lo:hi:count triple."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError("%s expects lo:hi:count, got %r" % (flag, text))
    lo = parse_angle(parts[0])
    hi = parse_angle(parts[1])
    # np.linspace would overflow computing the step, with numpy warnings
    if not math.isfinite(hi - lo):
        raise UsageError("%s=%r spans more than the float range" % (flag, text))
    try:
        count = int(parts[2])
    except ValueError:
        raise UsageError("bad count in %s=%r" % (flag, text)) from None
    if count <= 0:
        raise UsageError("%s needs a positive count" % flag)
    return [float(v) for v in np.linspace(lo, hi, count)]


def _fmt(x: float) -> str:
    return "%.17g" % x


def _build_family(args) -> MapFamily:
    if args.family == "one-petal":
        if args.beta is not None:
            raise UsageError("one-petal family takes no --beta")
        return MapFamily.one_petal(parse_angle(args.alpha))
    if args.beta is None:
        raise UsageError("two-petal family needs --beta")
    return MapFamily.two_petal(parse_angle(args.alpha), parse_angle(args.beta))


def _build_state(args) -> TimeState:
    # --T and --A default to None, so that `moments --trace`, which has no
    # growth state, can tell a given value from an omitted one
    return TimeState(1.0 if args.T is None else args.T, 1.0 if args.A is None else args.A)


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_json(path: str | None, payload: dict):
    # a nan or inf would be written as NaN or Infinity, which is not JSON
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if path:
        _write_text(path, text)
    else:
        sys.stdout.write(text)


def _trace_csv(trace) -> str:
    lines = ["phi,x,y"]
    for phi, z in zip(trace.phis, trace.points):
        lines.append("%s,%s,%s" % (_fmt(phi), _fmt(z.real), _fmt(z.imag)))
    return "\n".join(lines) + "\n"


def _trace_svg(points: np.ndarray) -> str:
    xs = points.real
    ys = -points.imag  # SVG y axis points down
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    span = max(x1 - x0, y1 - y0, 1e-9)
    margin = 0.05 * span
    view = (x0 - margin, y0 - margin, (x1 - x0) + 2 * margin, (y1 - y0) + 2 * margin)
    stroke = span / 300.0
    coords = " ".join("%.7g,%.7g" % (x, y) for x, y in zip(xs, ys))
    first = "%.7g,%.7g" % (xs[0], ys[0])
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" viewBox="%.7g %.7g %.7g %.7g">\n'
        '  <polyline points="%s %s" fill="none" stroke="black" stroke-width="%.7g"/>\n'
        "</svg>\n" % (*view, coords, first, stroke)
    )


def _read_trace_csv(path: str) -> np.ndarray:
    """The x + iy points of a trace CSV whose header names its x and y columns.

    A cell that is not a number is an error, not a nan.  A table without
    rows gives no points, without asking `np.loadtxt`, which warns on it.
    """
    with open(path, encoding="utf-8") as fh:
        names = [name.strip() for name in fh.readline().split(",")]
        if not {"x", "y"} <= set(names):
            raise UsageError("trace file %r lacks x,y columns" % path)
        start = fh.tell()
        # loadtxt skips blank lines and "#" comments; look for one row it would read
        if not any(line.partition("#")[0].strip() for line in iter(fh.readline, "")):
            return np.empty(0, dtype=complex)
        fh.seek(start)
        data = np.loadtxt(fh, delimiter=",", usecols=(names.index("x"), names.index("y")), ndmin=2)
    return data[:, 0] + 1j * data[:, 1]


def cmd_trace(args) -> int:
    family = _build_family(args)
    state = _build_state(args)
    trace = boundary_trace(family, state=state, n=args.n)
    _write_text(args.out, _trace_csv(trace))
    if args.svg:
        _write_text(args.svg, _trace_svg(trace.points))
    winding, ok = conformality_check(family)
    if not ok:
        meta = {"warning": "nonconformal", "derivative_winding": winding}
        _write_json(args.out + ".meta.json", meta)
        sys.stderr.write(
            "warning: map is not conformal (derivative winding %d); "
            "trace written anyway\n" % winding
        )
    return EXIT_OK


def cmd_verify(args) -> int:
    family = _build_family(args)
    overrides = {}
    for item in args.tol_override or []:
        if "=" not in item:
            raise UsageError("--tol-override expects name=value, got %r" % item)
        name, _, raw = item.partition("=")
        try:
            value = float(raw)
        except ValueError:
            raise UsageError("bad tolerance value in %r" % item) from None
        if not value > 0.0:  # nan too; inf disables the check
            raise UsageError("tolerance must be positive in %r" % item)
        overrides[name.strip()] = value
    try:
        report = run_standard_checks(family, overrides or None)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    for name in sorted(report.checks):
        check = report.checks[name]
        line = "%s  %-22s residual=%.6e tolerance=%.6e" % (
            "PASS" if check.passed else "FAIL",
            name,
            check.residual,
            check.tolerance,
        )
        if check.detail:
            line += "  [%s]" % check.detail
        print(line)
    if args.report:
        _write_json(args.report, report.to_dict())
    if report.has_errors:
        return EXIT_RUNTIME
    return EXIT_OK if report.all_passed else EXIT_VERIFY_FAILED


def cmd_sweep(args) -> int:
    default_grid = [k * math.pi / 36.0 for k in range(1, 18)]
    # an empty grid given is refused by parse_grid, not read as the default
    alphas = parse_grid(args.alpha_grid, "--alpha-grid") if args.alpha_grid is not None else default_grid
    betas = parse_grid(args.beta_grid, "--beta-grid") if args.beta_grid is not None else list(default_grid)
    # a grid angle outside (0, pi/2) is a domain error, not a failed node:
    # MapFamily's ValueError refuses the whole grid before any node runs
    for alpha in alphas:
        for beta in betas:
            MapFamily.two_petal(alpha, beta)
    rows = sweep(alphas, betas)
    lines = ["alpha,beta,winding,conformal,degenerate"]
    failures = []
    for row in rows:
        if row.error is not None:
            failures.append("%s,%s: %s\n" % (_fmt(row.alpha), _fmt(row.beta), row.error))
            lines.append("%s,%s,,," % (_fmt(row.alpha), _fmt(row.beta)))
            continue
        lines.append(
            "%s,%s,%d,%s,%s"
            % (
                _fmt(row.alpha),
                _fmt(row.beta),
                row.winding,
                "true" if row.conformal else "false",
                "true" if row.degenerate else "false",
            )
        )
    _write_text(args.out, "\n".join(lines) + "\n")
    if failures:
        sys.stderr.write("".join(failures))
        sys.stderr.write("warning: %d sweep nodes failed to evaluate\n" % len(failures))
    return EXIT_OK


def cmd_moments(args) -> int:
    # moments default on for raw traces only; a family trace hangs at the
    # origin, so asking for its moments is an explicit request to fail
    tk = args.tk
    if tk is not None and tk < MOMENT_MIN_INDEX:
        raise UsageError("--tk must be at least %d, got %d" % (MOMENT_MIN_INDEX, tk))
    if args.trace:
        if args.family or args.alpha or args.beta:
            raise UsageError("pass either --trace or a family, not both")
        if args.z:
            raise UsageError("--z samples need a family, not a raw trace")
        if args.T is not None or args.A is not None:
            raise UsageError("--T and --A scale a family, not a raw trace")
        if tk is None:
            tk = 6
    else:
        if not args.family or not args.alpha:
            raise UsageError("moments needs --trace or --family/--alpha")
        family = _build_family(args)
        state = _build_state(args)
        if tk is None and not args.z:
            raise UsageError("nothing requested: pass --tk for moments or --z for samples")
    payload: dict = {}
    if tk is not None:
        source = _read_trace_csv(args.trace) if args.trace else boundary_trace(family, state=state)
        # one admissibility screen serves every moment of both routes
        source = _screened_points(source)
        payload["moments"] = {}
        for k in range(MOMENT_MIN_INDEX, tk + 1):
            contour_val = harmonic_moment(source, k)
            area_val = harmonic_moment_area(source, k)
            payload["moments"]["T%d" % k] = {
                "contour": [contour_val.real, contour_val.imag],
                "area": [area_val.real, area_val.imag],
                "mismatch": abs(contour_val - area_val),
            }
    if args.z:
        zs = [parse_complex(item) for item in args.z]
        samples = m_plus_samples(family, state, zs)
        payload["m_plus"] = [
            {"z": [s.point.real, s.point.imag], "value": [s.value.real, s.value.imag], "side": s.side}
            for s in samples
        ]
    _write_json(args.report, payload)
    return EXIT_OK


def _add_family_options(sub, required: bool):
    sub.add_argument("--family", choices=["one-petal", "two-petal"], required=required)
    sub.add_argument("--alpha", required=required, help="base corner angle, e.g. pi/4 or 0.7853")
    sub.add_argument("--beta", default=None, help="top corner half-angle (two-petal)")


def _add_state_options(sub):
    sub.add_argument("--T", dest="T", type=float, default=None, help="growth time (default 1)")
    sub.add_argument("--A", dest="A", type=float, default=None, help="conserved ratio T/r (default 1)")


def build_parser() -> _Parser:
    parser = _Parser(prog="petalmap", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_trace = subs.add_parser("trace", help="sample a pattern boundary to CSV/SVG")
    _add_family_options(p_trace, required=True)
    _add_state_options(p_trace)
    p_trace.add_argument("--n", type=int, default=2048)
    p_trace.add_argument("--out", required=True)
    p_trace.add_argument("--svg", default=None)
    p_trace.set_defaults(fn=cmd_trace)

    p_verify = subs.add_parser("verify", help="run the residual check battery")
    _add_family_options(p_verify, required=True)
    p_verify.add_argument("--report", default=None, help="JSON report path")
    p_verify.add_argument("--tol-override", action="append", default=None, metavar="NAME=VALUE")
    p_verify.set_defaults(fn=cmd_verify)

    p_sweep = subs.add_parser("sweep", help="classify a two-petal parameter grid")
    p_sweep.add_argument("--alpha-grid", default=None, metavar="LO:HI:COUNT")
    p_sweep.add_argument("--beta-grid", default=None, metavar="LO:HI:COUNT")
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_mom = subs.add_parser("moments", help="harmonic moments and Cauchy samples")
    _add_family_options(p_mom, required=False)
    _add_state_options(p_mom)
    p_mom.add_argument("--trace", default=None, help="existing trace CSV")
    p_mom.add_argument("--tk", type=int, default=None, help="highest moment index (default 6 for a raw trace)")
    p_mom.add_argument("--z", action="append", default=None, help="interior sample point")
    p_mom.add_argument("--report", default=None, help="JSON output path (stdout otherwise)")
    p_mom.set_defaults(fn=cmd_moments)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        sys.stderr.write("usage error: %s\n" % exc)
        return EXIT_USAGE
    # MemoryError: an array size numpy refuses, from a grid count or --n
    except (VerificationError, ValueError, OSError, MemoryError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
