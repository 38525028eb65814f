"""Command-line surface: parsing, exit codes, and emitted artifacts."""

import json
import math
import pathlib
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from petalmap import cli, verify
from petalmap.cli import (
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    UsageError,
    main,
    parse_angle,
    parse_complex,
    parse_grid,
)

DATA = pathlib.Path(__file__).parent / "data"


def run_cli(*argv):
    return main(list(argv))


def reject_constant(constant):
    """`json.loads` hook for NaN, Infinity and -Infinity, which JSON does not have."""
    raise ValueError("%s is not JSON" % constant)


def thin_ellipse_csv(tmp_path):
    """0.5 cos phi + 0.05i sin phi at 4096 half-offset angles: T_k grows like 20^k."""
    path = tmp_path / "ellipse.csv"
    phis = (np.arange(4096) + 0.5) * (2.0 * math.pi / 4096)
    rows = ["%.17g,%.17g" % (0.5 * math.cos(phi), 0.05 * math.sin(phi)) for phi in phis]
    path.write_text("\n".join(["x,y"] + rows) + "\n")
    return path


# ---------------------------------------------------------------------------
# parsers


def test_parse_angle():
    assert parse_angle("pi") == math.pi
    assert parse_angle("3pi/16") == 3 * math.pi / 16
    assert parse_angle("pi/4") == math.pi / 4
    assert parse_angle("0.5") == 0.5
    for bad in ("tau", "pi/0", "2 radians", "nan", "-inf"):
        with pytest.raises(UsageError):
            parse_angle(bad)


def test_parse_complex():
    assert parse_complex("0+0.8i") == 0.8j
    assert parse_complex("1+2j") == 1 + 2j
    assert parse_complex("-1.5") == -1.5
    for bad in ("north", "nan"):
        with pytest.raises(UsageError):
            parse_complex(bad)


def test_parse_grid():
    vals = parse_grid("pi/8:pi/4:3", "--alpha-grid")
    assert len(vals) == 3
    assert vals[0] == pytest.approx(math.pi / 8)
    assert vals[-1] == pytest.approx(math.pi / 4)
    assert parse_grid("pi/4:pi/2:1", "--x") == [math.pi / 4]
    for bad in ("pi/8:pi/4", "pi/8:pi/4:0", "pi/8:pi/4:-2", "a:b:c"):
        with pytest.raises(UsageError):
            parse_grid(bad, "--x")
    with pytest.raises(UsageError, match="bad count"):
        parse_grid("pi/8:pi/4:x", "--x")


@pytest.mark.parametrize("angle", ["9" * 400 + "pi/2", "pi/" + "9" * 400], ids=["numerator", "denominator"])
def test_angle_integer_past_float_range_refused(tmp_path, capsys, angle):
    # a numerator or denominator no float holds: a usage error, where the
    # int-to-float conversion would raise OverflowError out of main
    message = "usage error: angle %r is outside the float range\n" % angle
    assert run_cli("verify", "--family", "one-petal", "--alpha", angle) == EXIT_USAGE
    assert capsys.readouterr().err == message
    out = tmp_path / "sweep.csv"
    grid = "%s:pi/4:2" % angle
    assert run_cli("sweep", "--alpha-grid", grid, "--beta-grid", "0.3:0.3:1", "--out", str(out)) == EXIT_USAGE
    assert capsys.readouterr().err == message
    assert not out.exists()


# ---------------------------------------------------------------------------
# trace


def test_trace_writes_csv_and_svg(tmp_path):
    out = tmp_path / "trace.csv"
    svg = tmp_path / "trace.svg"
    code = run_cli(
        "trace", "--family", "one-petal", "--alpha", "pi/4",
        "--T", "2", "--A", "1", "--n", "128",
        "--out", str(out), "--svg", str(svg),
    )
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "phi,x,y"
    assert len(lines) == 129
    body = svg.read_text()
    assert body.startswith("<svg") and "polyline" in body


def test_trace_deterministic_bytes(tmp_path):
    args = (
        "trace", "--family", "two-petal", "--alpha", "pi/4", "--beta", "pi/8",
        "--n", "64",
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*args, "--out", str(a)) == EXIT_OK
    assert run_cli(*args, "--out", str(b)) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_trace_csv_round_trip(tmp_path):
    from petalmap.cli import _read_trace_csv, _trace_csv

    out = tmp_path / "t.csv"
    run_cli("trace", "--family", "one-petal", "--alpha", "pi/3", "--n", "64", "--out", str(out))
    raw = out.read_text()
    data = np.genfromtxt(str(out), delimiter=",", names=True)
    points = _read_trace_csv(str(out))

    class Bare:
        phis = data["phi"]

    Bare.points = points
    assert _trace_csv(Bare) == raw  # bit-exact re-serialization


def write_rows(path, header, rows):
    path.write_text(header + "\n" + "".join(",".join(row) + "\n" for row in rows))
    return path


def test_trace_csv_reads_columns_by_name(tmp_path):
    from petalmap.cli import _read_trace_csv

    z = np.exp(1j * (np.arange(32) + 0.5) * (2.0 * math.pi / 32)) * (1.3 + 0.1j)
    cells = [("%.17g" % v.imag, "%d" % k, "%.17g" % v.real) for k, v in enumerate(z)]
    for header in ("y,phi,x", " y , phi,x "):
        got = _read_trace_csv(str(write_rows(tmp_path / "t.csv", header, cells)))
        assert np.array_equal(got, z), header
    with pytest.raises(UsageError):
        _read_trace_csv(str(write_rows(tmp_path / "t.csv", "phi,u,v", cells)))


def test_trace_csv_rejects_bad_cells(tmp_path, capsys):
    # a cell that is not a number is an error, not a nan point; nan and inf
    # parse as numbers, but are no trace points
    rows = [("%d" % k, "%.17g" % math.cos(k), "%.17g" % math.sin(k)) for k in range(32)]
    for bad, message in (("", "could not convert"), ("north", "could not convert"), ("nan?", "could not convert"),
                         ("nan", "must be finite"), ("-inf", "must be finite")):
        broken = rows[:5] + [("5", bad, "0.5")] + rows[6:]
        path = write_rows(tmp_path / "t.csv", "phi,x,y", broken)
        assert run_cli("moments", "--trace", str(path)) == EXIT_RUNTIME, bad
        assert message in capsys.readouterr().err, bad
    assert run_cli("moments", "--trace", str(write_rows(tmp_path / "t.csv", "phi,u,v", rows))) == EXIT_USAGE
    assert run_cli("moments", "--trace", str(tmp_path / "missing.csv")) == EXIT_RUNTIME


def test_trace_csv_without_rows_is_one_error_line(tmp_path):
    # a header-only table has no points; numpy must not warn on the way
    path = tmp_path / "t.csv"
    for body in ("phi,x,y\n", "phi,x,y\n\n# no rows\n"):
        path.write_text(body)
        result = subprocess.run(
            [sys.executable, "-m", "petalmap", "moments", "--trace", str(path)],
            capture_output=True, text=True,
        )
        assert result.returncode == EXIT_RUNTIME
        assert result.stderr == "error: trace must be a 1-d array of at least 16 points\n"


def test_trace_nonconformal_sidecar(tmp_path, capsys):
    out = tmp_path / "nc.csv"
    code = run_cli(
        "trace", "--family", "two-petal", "--alpha", "pi/8", "--beta", "pi/6",
        "--n", "64", "--out", str(out),
    )
    assert code == EXIT_OK
    assert out.exists()
    meta = json.loads((tmp_path / "nc.csv.meta.json").read_text())
    assert meta["warning"] == "nonconformal"
    assert meta["derivative_winding"] != 0
    assert "not conformal" in capsys.readouterr().err


def test_trace_requires_output(tmp_path, capsys):
    code = run_cli("trace", "--family", "one-petal", "--alpha", "pi/4")
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# verify


def test_verify_pass_and_report(tmp_path, capsys):
    rep = tmp_path / "rep.json"
    code = run_cli("verify", "--family", "one-petal", "--alpha", "pi/4", "--report", str(rep))
    assert code == EXIT_OK
    outlines = capsys.readouterr().out.strip().splitlines()
    assert all(line.startswith("PASS") for line in outlines)
    payload = json.loads(rep.read_text())
    assert payload["all_passed"] is True
    for entry in payload["checks"].values():
        assert set(entry) == {"residual", "tolerance", "pass", "detail"}


def test_verify_failure_exit(capsys):
    code = run_cli("verify", "--family", "two-petal", "--alpha", "pi/8", "--beta", "pi/6")
    assert code == EXIT_VERIFY_FAILED
    out = capsys.readouterr().out
    assert "FAIL" in out and "conformality" in out


def test_verify_collapsed_pattern_exit(tmp_path, capsys):
    # beta = alpha leaves no Wronskian ratio to estimate: a runtime error,
    # still reported, and with no NaN or Infinity in the JSON
    rep = tmp_path / "rep.json"
    code = run_cli(
        "verify", "--family", "two-petal", "--alpha", "0.5", "--beta", "0.5", "--report", str(rep)
    )
    assert code == EXIT_RUNTIME
    payload = json.loads(rep.read_text(), parse_constant=reject_constant)
    assert payload["all_passed"] is False
    ratio = payload["checks"]["ratio_spread"]
    assert ratio["residual"] is None and ratio["pass"] is False
    assert "collapsed pattern" in ratio["detail"]


def test_verify_output_pinned(tmp_path, capsys):
    # stdout lines, exit code and --report bytes of six families, each kind
    # of outcome: one-petal passes, a conformal two-petal pattern, two
    # nonconformal ones (one with a - b in the DEGENERATE_SHIFT window) and
    # a collapsed one whose growth checks carry errors
    cases = json.loads((DATA / "verify_reports.json").read_text(encoding="utf-8"))
    assert len(cases) == 6
    for case in cases:
        rep = tmp_path / "rep.json"
        assert run_cli(*case["argv"], "--report", str(rep)) == case["exit"]
        assert capsys.readouterr().out == case["stdout"]
        assert rep.read_bytes() == case["report"].encode("utf-8")


@pytest.mark.parametrize("alpha, beta", [("3pi/36", "15pi/36"), ("15pi/36", "3pi/36")])
def test_verify_rounded_collapse_exit(alpha, beta, capsys):
    # alpha + beta = pi/2 up to the rounding of F's parameter a (-5.55e-17)
    assert run_cli("verify", "--family", "two-petal", "--alpha", alpha, "--beta", beta) == EXIT_RUNTIME
    assert "collapsed pattern" in capsys.readouterr().out


def test_verify_tol_override(capsys):
    code = run_cli(
        "verify", "--family", "one-petal", "--alpha", "pi/4",
        "--tol-override", "ode_residual=0.5",
    )
    assert code == EXIT_OK
    # oddness, reflection and laurent_imag are not battery checks: they could not fail
    for bad in (
        "bogus=1", "ode_residual=potato", "ode_residual=-1", "odd",
        "oddness=1e-3", "reflection=1e-3", "laurent_imag=1e-3",
    ):
        assert run_cli(
            "verify", "--family", "one-petal", "--alpha", "pi/4", "--tol-override", bad
        ) == EXIT_USAGE


def test_verify_tol_override_rejects_nan(capsys):
    # nan compares false with every bound, so it would fail a passing check;
    # inf stays available to switch a check off
    assert run_cli(
        "verify", "--family", "one-petal", "--alpha", "pi/4", "--tol-override", "ode_residual=nan"
    ) == EXIT_USAGE
    assert run_cli(
        "verify", "--family", "one-petal", "--alpha", "pi/4", "--tol-override", "ode_residual=inf"
    ) == EXIT_OK


def test_verify_report_with_an_inf_tolerance_is_json(tmp_path, capsys):
    # an inf tolerance switches a check off; the report writes it as null
    rep = tmp_path / "rep.json"
    code = run_cli(
        "verify", "--family", "one-petal", "--alpha", "0.7", "--tol-override", "ode_residual=inf",
        "--report", str(rep),
    )
    assert code == EXIT_OK
    check = json.loads(rep.read_text(), parse_constant=reject_constant)["checks"]["ode_residual"]
    assert check["tolerance"] is None and check["pass"] is True


def test_verify_takes_no_growth_state(capsys):
    # the battery checks the normalized map, so a growth state would be ignored
    for flag in ("--T", "--A"):
        assert run_cli("verify", "--family", "one-petal", "--alpha", "pi/4", flag, "2") == EXIT_USAGE
    assert "unrecognized arguments: --T 2" in capsys.readouterr().err


def test_alpha_required_with_family(capsys):
    for argv in (("trace", "--out", "unused.csv"), ("verify",)):
        assert run_cli(*argv, "--family", "one-petal") == EXIT_USAGE
        assert "required: --alpha" in capsys.readouterr().err


def test_verify_needs_beta_for_two_petal(capsys):
    code = run_cli("verify", "--family", "two-petal", "--alpha", "pi/8")
    assert code == EXIT_USAGE
    code = run_cli("verify", "--family", "one-petal", "--alpha", "pi/4", "--beta", "pi/8")
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# sweep


def test_sweep_explicit_grid(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli(
        "sweep", "--alpha-grid", "pi/8:pi/4:2", "--beta-grid", "pi/16:pi/8:2",
        "--out", str(out),
    )
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,beta,winding,conformal,degenerate"
    assert len(lines) == 5


def test_sweep_failed_node_reason_on_stderr(tmp_path, capsys, monkeypatch):
    # for beta = pi/8 the image runs along the unit circle from 1 to -i, as
    # real and as imaginary at the ends as a map's, but turns back at
    # arg w = 1: no bisection resolves that fold, so the node keeps a blank
    # row and the sweep goes on.  The sweep's rounds, first arc and
    # bisections alike, take their values from `_lockstep_values`, one
    # array per (family, points) job
    inner = verify._lockstep_values
    rate = 0.5 * math.pi / (2.0 - 0.5 * math.pi)

    def unresolved_at_beta(jobs):
        out = []
        for (family, w), values in zip(jobs, inner(jobs)):
            if family.beta == math.pi / 8:
                values = np.exp(1j * rate * (np.abs(np.angle(w) - 1.0) - 1.0))
            out.append(values)
        return out

    monkeypatch.setattr(verify, "_lockstep_values", unresolved_at_beta)
    out = tmp_path / "sweep.csv"
    code = run_cli(
        "sweep", "--alpha-grid", "pi/8:pi/8:1", "--beta-grid", "pi/16:pi/8:2", "--out", str(out),
    )
    assert code == EXIT_OK
    alpha = beta_bad = "%.17g" % (math.pi / 8)
    beta_ok = "%.17g" % (math.pi / 16)
    assert out.read_text() == (
        "alpha,beta,winding,conformal,degenerate\n%s,%s,0,true,false\n%s,%s,,,\n"
        % (alpha, beta_ok, alpha, beta_bad)
    )
    assert capsys.readouterr().err == (
        "%s,%s: VerificationError: derivative winding could not be resolved\n"
        "warning: 1 sweep nodes failed to evaluate\n" % (alpha, beta_bad)
    )


@pytest.mark.parametrize("flag, name", [("--alpha-grid", "alpha"), ("--beta-grid", "beta")])
def test_sweep_grid_outside_domain_rejected(tmp_path, capsys, flag, name):
    # 0 and pi/2 are no family's angles: a domain error before any node runs
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", flag, "0:pi/2:3", "--out", str(out)) == EXIT_RUNTIME
    assert capsys.readouterr().err == "error: %s must lie in (0, pi/2)\n" % name
    assert not out.exists()
    assert run_cli("sweep", flag, "pi/4:pi/2:2", "--out", str(out)) == EXIT_RUNTIME
    assert not out.exists()


def test_sweep_default_grid_csv_pinned(tmp_path):
    # the 17x17 case map; its windings equal a 16384-point count at every node
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--out", str(out)) == EXIT_OK
    assert out.read_bytes() == (DATA / "sweep_default.csv").read_bytes()


@pytest.mark.parametrize("count", [2, 1])
def test_sweep_grid_span_overflow_refused(tmp_path, capsys, count):
    # hi - lo overflows the float range: a usage error before np.linspace,
    # whose step would overflow with two numpy warnings
    out = tmp_path / "sweep.csv"
    grid = "-1e308:1e308:%d" % count
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("sweep", "--alpha-grid=" + grid, "--beta-grid", "0.3:0.3:1", "--out", str(out))
    assert code == EXIT_USAGE
    assert caught == []
    assert capsys.readouterr().err == "usage error: --alpha-grid=%r spans more than the float range\n" % grid
    assert not out.exists()


def test_sweep_empty_grid_rejected(tmp_path):
    code = run_cli("sweep", "--alpha-grid", "pi/8:pi/4:0", "--out", str(tmp_path / "x.csv"))
    assert code == EXIT_USAGE
    # an empty grid string is no grid, not the default one
    assert run_cli("sweep", "--alpha-grid=", "--beta-grid", "0.3:0.3:1", "--out", str(tmp_path / "x.csv")) == EXIT_USAGE
    assert not (tmp_path / "x.csv").exists()


# ---------------------------------------------------------------------------
# moments


def circle_csv(tmp_path, n=512):
    path = tmp_path / "circle.csv"
    phis = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    rows = ["phi,x,y"]
    for phi in phis:
        rows.append("%.17g,%.17g,%.17g" % (phi, math.cos(phi), math.sin(phi)))
    path.write_text("\n".join(rows) + "\n")
    return path


def test_moments_raw_trace_table(tmp_path):
    rep = tmp_path / "m.json"
    code = run_cli("moments", "--trace", str(circle_csv(tmp_path)), "--report", str(rep))
    assert code == EXIT_OK
    payload = json.loads(rep.read_text())
    assert sorted(payload["moments"]) == ["T2", "T3", "T4", "T5", "T6"]
    t3 = payload["moments"]["T3"]["contour"]
    assert abs(complex(*t3) - (-4.0 / (9.0 * math.pi))) <= 1e-3


def test_moments_raw_trace_json_to_stdout(tmp_path, capsys):
    # without --report the table goes to stdout
    assert run_cli("moments", "--trace", str(circle_csv(tmp_path)), "--tk", "3") == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert sorted(payload["moments"]) == ["T2", "T3"]


def test_moments_outside_the_float_range_refused(tmp_path, capsys):
    # the contour route's T_k overflows from k = 237 on: an error, with no
    # numpy warning and no report, rather than NaN in the JSON
    path = thin_ellipse_csv(tmp_path)
    rep = tmp_path / "m.json"
    assert run_cli("moments", "--trace", str(path), "--tk", "236", "--report", str(rep)) == EXIT_OK
    moments = json.loads(rep.read_text(), parse_constant=reject_constant)["moments"]
    assert len(moments) == 235
    rep.unlink()
    assert run_cli("moments", "--trace", str(path), "--tk", "240", "--report", str(rep)) == EXIT_RUNTIME
    assert capsys.readouterr().err == "error: moment T237 lies outside the float range\n"
    assert not rep.exists()


@pytest.mark.parametrize("radius", [0.0, 0.003, 0.015])
def test_moments_trace_notch_into_origin_disk(tmp_path, capsys, notch_trace, radius):
    # a notch inside 2% of the trace's scale: refused, as its moments are ill-defined
    path = tmp_path / "notch.csv"
    rows = ["%.17g,%.17g" % (z.real, z.imag) for z in notch_trace(radius)]
    path.write_text("\n".join(["x,y"] + rows) + "\n")
    assert run_cli("moments", "--trace", str(path), "--report", str(tmp_path / "m.json")) == EXIT_RUNTIME
    assert "clear of the origin" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_moments_family_samples_only(tmp_path):
    rep = tmp_path / "m.json"
    code = run_cli(
        "moments", "--family", "one-petal", "--alpha", "pi/4",
        "--z", "0+0.8i", "--report", str(rep),
    )
    assert code == EXIT_OK
    payload = json.loads(rep.read_text())
    assert "moments" not in payload
    value = complex(*payload["m_plus"][0]["value"])
    assert abs(value - 1.8) <= 1e-3


def test_moments_family_samples_build_no_trace(tmp_path, monkeypatch):
    # the Cauchy samples make their own boundary; a --z-only command has no
    # use for a moment trace
    def unused(*args, **kwargs):
        raise AssertionError("boundary_trace called")

    monkeypatch.setattr(cli, "boundary_trace", unused)
    code = run_cli(
        "moments", "--family", "one-petal", "--alpha", "pi/4",
        "--z", "0+0.8i", "--report", str(tmp_path / "m.json"),
    )
    assert code == EXIT_OK


def test_moments_removed_options(tmp_path, capsys):
    # --tk is the one spelling of the moment index, and the trace size is fixed
    family = ("moments", "--family", "one-petal", "--alpha", "pi/4")
    assert run_cli(*family, "--z", "0+0.8i", "--n", "64") == EXIT_USAGE
    assert run_cli("moments", "--trace", str(circle_csv(tmp_path)), "--kmax", "3") == EXIT_USAGE
    assert run_cli(*family, "--kmax", "3") == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err


def test_moments_trace_screened_once(tmp_path, monkeypatch):
    # both routes of T2..T6 share one admissibility screen of the trace:
    # one winding count about the origin, not one per moment and route
    from petalmap import verify
    from petalmap.cli import _read_trace_csv

    calls = []
    inner = verify.winding_number

    def counting(points, z0):
        calls.append(z0)
        return inner(points, z0)

    monkeypatch.setattr(verify, "winding_number", counting)
    csv, rep = circle_csv(tmp_path), tmp_path / "m.json"
    assert run_cli("moments", "--trace", str(csv), "--tk", "6", "--report", str(rep)) == EXIT_OK
    assert calls == [0.0]
    # the table holds what the public functions, each screening alone, give
    points = _read_trace_csv(str(csv))
    payload = json.loads(rep.read_text())
    for k in range(2, 7):
        contour, area = verify.harmonic_moment(points, k), verify.harmonic_moment_area(points, k)
        assert payload["moments"]["T%d" % k]["contour"] == [contour.real, contour.imag]
        assert payload["moments"]["T%d" % k]["area"] == [area.real, area.imag]


def test_moments_trace_takes_no_growth_state(tmp_path):
    # a raw trace has no scale to set: --T and --A are usage errors with it,
    # whatever their value, and still default to 1 for a family
    csv = str(circle_csv(tmp_path))
    for extra in (("--T", "nan"), ("--A", "-3"), ("--T", "1"), ("--T", "2", "--A", "1")):
        assert run_cli("moments", "--trace", csv, *extra) == EXIT_USAGE, extra
    family = ("moments", "--family", "one-petal", "--alpha", "pi/4", "--z", "0+0.8i")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(*family, "--report", str(a)) == EXIT_OK
    assert run_cli(*family, "--T", "1", "--A", "1", "--report", str(b)) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_moments_index_below_two_rejected(tmp_path):
    csv, rep = str(circle_csv(tmp_path)), tmp_path / "m.json"
    for tk in ("1", "0", "-5"):
        assert run_cli("moments", "--trace", csv, "--tk", tk, "--report", str(rep)) == EXIT_USAGE, tk
        assert run_cli("moments", "--family", "one-petal", "--alpha", "pi/4", "--tk", tk) == EXIT_USAGE, tk
    assert not rep.exists()


def test_moments_family_table_is_degenerate(capsys):
    code = run_cli("moments", "--family", "one-petal", "--alpha", "pi/4", "--tk", "4")
    assert code == EXIT_RUNTIME
    assert "ill-defined" in capsys.readouterr().err


def test_moments_usage_errors(tmp_path):
    # nothing requested
    assert run_cli("moments", "--family", "one-petal", "--alpha", "pi/4") == EXIT_USAGE
    # trace and family are mutually exclusive
    assert run_cli(
        "moments", "--trace", str(circle_csv(tmp_path)), "--family", "one-petal",
        "--alpha", "pi/4",
    ) == EXIT_USAGE
    # raw traces carry no map, so no Cauchy samples
    assert run_cli(
        "moments", "--trace", str(circle_csv(tmp_path)), "--z", "0.5i"
    ) == EXIT_USAGE
    assert run_cli("moments") == EXIT_USAGE
    # a non-finite sample point is a usage error, not a failed conversion
    for z in ("nan", "nan+1i"):
        assert run_cli("moments", "--family", "one-petal", "--alpha", "pi/4", "--z", z) == EXIT_USAGE


# ---------------------------------------------------------------------------
# process-level integration


def test_console_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "petalmap", "verify", "--family", "one-petal",
         "--alpha", "not-an-angle"],
        capture_output=True, text=True,
    )
    assert result.returncode == EXIT_USAGE
    assert "usage error" in result.stderr


def test_unknown_command_is_usage_error(capsys):
    assert run_cli("frobnicate") == EXIT_USAGE


# ---------------------------------------------------------------------------
# every argument list ends in a documented exit code

# angle strings: mostly inside (0, pi/2), else outside it, not finite, past
# the float range (1e309, Npi/M with N or M beyond it or beyond the
# int-string limit), with a zero denominator, unparsable, or any float's repr
ANGLE_TEXTS = st.one_of(
    st.sampled_from(["pi/4", "3pi/16", "17pi/36", "pi/36", "0.3", "1.2"]),
    st.floats(0.0, 1.6).map(repr),
    st.sampled_from(
        [
            "pi", "0", "-0.5", "nan", "-inf", "1e309", "pi/0", "tau", "",
            "9" * 400 + "pi/7", "pi/" + "7" * 400, "1" * 5000 + "pi/3",
        ]
    ),
    st.floats().map(repr),
)
# lo:hi:count, at most 3 nodes a grid: a huge count would allocate its grid
GRID_TEXTS = st.one_of(
    st.builds("{}:{}:{}".format, ANGLE_TEXTS, ANGLE_TEXTS, st.sampled_from(["1", "2", "3", "3", "0", "-2", "x"])),
    st.sampled_from(["pi/8:pi/4", "1:2:3:4", ""]),
)
NUMBER_TEXTS = st.one_of(st.sampled_from(["1", "2.5", "0.01"]), st.sampled_from(["0", "-1", "nan", "inf", "x"]), st.floats().map(repr))
# "@name" is a file in the example's own directory, "@" the directory itself;
# the test writes no file outside that directory
OUT_FILES = st.sampled_from(["@out.csv", "@out.csv", "@out.csv", "@missing/x.csv", "@"])
TRACE_FILES = st.sampled_from(["@circle.csv", "@circle.csv", "@garbage.csv", "@empty.csv", "@missing/x.csv", "@"])
POINT_TEXTS = st.sampled_from(["0.5+0.5j", "0+0.8i", "0.1", "3+0j", "nan", "1e309j", "north"])
OVERRIDES = st.sampled_from(
    ["ode_residual=1e-3", "conformality=1", "corner_exponent_top=inf", "bogus=1", "ode_residual=nan", "ode_residual"]
)


@st.composite
def cli_argv(draw):
    """argv for one of the four commands; an option is left out, or out of place, now and then."""
    command = draw(st.sampled_from(["trace", "verify", "sweep", "moments"]))
    argv = [command]

    def option(flag, values, odds):
        # odds > 0: left out 1 in 2**odds, odds < 0: given 1 in 2**-odds;
        # hypothesis biases a drawn integer toward its bounds, a boolean hardly
        flips = all([draw(st.booleans()) for _ in range(abs(odds))])
        if flips != (odds > 0):
            # flag=value, so that a value starting with "-" is not read as a flag
            argv.append("%s=%s" % (flag, draw(values)))

    if command == "sweep":
        # both grids always: one left out is the 17-node default
        option("--alpha-grid", GRID_TEXTS, 0)
        option("--beta-grid", GRID_TEXTS, 0)
        option("--out", OUT_FILES, 3)
        return argv
    raw = command == "moments" and draw(st.booleans())
    if raw:
        option("--trace", TRACE_FILES, 3)
    family = draw(st.sampled_from(["one-petal", "two-petal", "two-petal", "one-petal", "two-petal", "three-petal"]))
    option("--family", st.just(family), -3 if raw else 3)
    option("--alpha", ANGLE_TEXTS, -3 if raw else 3)
    option("--beta", ANGLE_TEXTS, -3 if raw or family == "one-petal" else 3)
    if command != "verify":
        option("--T", NUMBER_TEXTS, -3 if raw else -1)
        option("--A", NUMBER_TEXTS, -3 if raw else -1)
    if command == "trace":
        option("--n", st.integers(-4, 256).map(str), 1)
        option("--out", OUT_FILES, 3)
        option("--svg", OUT_FILES, -1)
    elif command == "verify":
        option("--report", OUT_FILES, -1)
        option("--tol-override", OVERRIDES, -1)
    else:
        option("--tk", st.one_of(st.integers(2, 8), st.integers(-1, 1)).map(str), 1)
        option("--z", POINT_TEXTS, -3 if raw else 1)
        option("--report", OUT_FILES, -1)
    return argv


@given(cli_argv())
# counts whose arrays numpy refuses to allocate (80 PB): a MemoryError
@example(["sweep", "--alpha-grid=0.1:0.2:10000000000000000", "--out=@x.csv"])
@example(["trace", "--family=one-petal", "--alpha=0.5", "--n=10000000000000000", "--out=@t.csv"])
@settings(max_examples=100, deadline=None, derandomize=True)
def test_main_returns_a_documented_exit_code(argv):
    # no exception leaves main, and conftest fails the test on any
    # RuntimeWarning; --help, whose SystemExit(0) is argparse's, is not drawn
    with tempfile.TemporaryDirectory() as folder:
        folder = pathlib.Path(folder)
        circle_csv(folder, n=64)
        (folder / "garbage.csv").write_text("x,y\n1,a\n")
        (folder / "empty.csv").write_text("")
        argv = [arg.replace("=@", "=%s/" % folder, 1) for arg in argv]
        assert main(argv) in (EXIT_OK, EXIT_VERIFY_FAILED, EXIT_RUNTIME, EXIT_USAGE)
