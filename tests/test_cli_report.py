import concurrent.futures.process
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import psimoments
from psimoments import cli, report, specfun, sweep
from psimoments.cli import _flag_config, build_parser, main
from psimoments.errors import ConfigError, CoverageError, RangeLimitError
from psimoments.report import (
    COLUMNS,
    CSV_HEADER,
    ReportRow,
    RunConfig,
    emit,
    emit_csv,
    emit_json,
    format_tables,
    parse_rational,
    predict_rows,
    reproduce_tables,
    run,
)
from psimoments.report import REFERENCE_ABSOLUTE, REFERENCE_ODD
from psimoments.sieve import EventSource
from psimoments.sweep import Fixed, Kind, Scaled, WindowSpec, sweep_moments


def test_parse_rational_exact():
    assert parse_rational("1e-4") == Fraction(1, 10000)
    assert parse_rational("1/3") == Fraction(1, 3)
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational("100") == Fraction(100)
    assert parse_rational(7) == Fraction(7)
    assert parse_rational(Fraction(2, 5)) == Fraction(2, 5)
    # a float argument keeps its exact binary value
    assert parse_rational(0.5) == Fraction(1, 2)
    # the longest string and the largest exponent it reads
    assert parse_rational("1e-400") == Fraction(1, 10**400)
    assert parse_rational("1" + "0" * 99) == 10**99


def test_parse_rational_rejects_garbage():
    # past 100 characters or a decimal exponent of 400 nothing is built
    for text in ("five", "1/0", "1e401", "1e-999999", "2.5E+99999999", "1" * 101):
        with pytest.raises(ConfigError):
            parse_rational(text)


def test_huge_rationals_fail_fast(tmp_path, capsys):
    # a huge decimal exponent or integer is refused before Fraction builds
    # it (exit 2, one line, fast), and a tiny float width, whose exact
    # denominator runs to 323 digits, is named briefly in its range error
    huge = _config_file(tmp_path, "huge", {"x": 100, "h": "1e99999999", "orders": [2]})
    tiny = _config_file(tmp_path, "tiny", {"x": 100, "h": 1e-320, "orders": [2]})
    # an integer past Python's 4300-digit limit, which json refuses to read
    long = tmp_path / "long.json"
    long.write_text('{"x": 100, "h": 1' + "0" * 5000 + ', "orders": [2]}')
    # integers that json reads but float64 cannot hold, and a worker count
    # that would fork that many processes
    past_float = [
        _config_file(tmp_path, "x", {"x": 10**400, "h": 1, "orders": [2]}),
        _config_file(tmp_path, "order", {"x": 100, "h": 1, "orders": [2, 10**400]}),
        _config_file(tmp_path, "threads", {"x": 100, "h": 1, "orders": [2], "threads": 100000}),
    ]
    cases = [
        (["moments", "--x", "100", "--h", "1e999999", "--orders", "2"], 2),
        (["predict", "--x", "100", "--delta", "1e-999999", "--orders", "2",
          "--formulas", "scaled-main"], 2),
        (["moments", "--config", huge], 2),
        (["moments", "--config", str(long)], 2),
        *((["moments", "--config", path], 2) for path in past_float),
        (["equivalence", "--x", "100", "--h", "1", "--orders", "3", "--average-delta", "1e400"], 2),
        (["moments", "--config", tiny], 3),
    ]
    for argv, code in cases:
        t0 = time.monotonic()
        assert main(argv) == code, argv
        assert time.monotonic() - t0 < 0.5, argv
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) < 200, err
        assert err.startswith("error: " if code == 2 else "resource error: "), err


def test_window_messages_keep_rationals_short():
    huge = Fraction(10**5000 + 1, 3)
    for make in (lambda: Fixed(-huge), lambda: Scaled(huge), lambda: Scaled(1 / huge),
                 lambda: WindowSpec(100, Fixed(huge)),
                 lambda: WindowSpec(100, Fixed(1 / huge)).limit()):
        with pytest.raises((ConfigError, RangeLimitError)) as info:
            make()
        assert len(str(info.value)) < 200, str(info.value)


def test_run_config_from_dict():
    cfg = RunConfig.from_dict(
        {"x": 1e4, "delta": "1e-2", "orders": [1, 3], "kinds": ["absolute", "signed"]}
    )
    assert cfg.X == 1e4
    assert cfg.delta == Fraction(1, 100)
    assert cfg.kinds == (Kind.ABSOLUTE, Kind.SIGNED)
    # every (order, kind) pair is checked once, here: signed needs integers
    with pytest.raises(ConfigError, match="integer order"):
        RunConfig.from_dict(
            {"x": 1e4, "delta": "1e-2", "orders": [1, 2.1], "kinds": ["absolute", "signed"]}
        )
    # a JSON true is not the number 1, though float(True) is
    base = {"x": 1e4, "h": 10, "orders": [1, 3]}
    for change, key in [
        ({"x": True}, "x"),
        ({"h": True}, "h"),
        ({"h": None, "delta": False}, "delta"),
        ({"orders": [True]}, "orders"),
        ({"orders": [1, True]}, "orders"),
    ]:
        data = {k: v for k, v in {**base, **change}.items() if v is not None}
        with pytest.raises(ConfigError, match=f"^config '{key}' takes numbers, not (True|False)$"):
            RunConfig.from_dict(data)


def test_run_config_rejects_bad_shapes():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"delta": "1e-2", "orders": [1]})  # no x
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"x": 100, "orders": [1]})  # no width
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"x": 100, "h": 2, "delta": "1e-2", "orders": [1]})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"x": 100, "h": 2, "orders": []})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"x": 100, "h": 2, "orders": [1], "bogus": True})
    with pytest.raises(ConfigError):
        RunConfig(X=100.0, h=Fraction(2), orders=[1.0], formulas=["no-such-formula"])
    # keys that differ only in case would override each other
    with pytest.raises(ConfigError, match="config keys 'x' and 'X' differ only in case"):
        RunConfig.from_dict({"x": 1e6, "X": 2e6, "h": 10, "orders": [1]})
    # a repeated order, kind or formula would be swept or evaluated twice
    base = {"x": 1e5, "h": 100, "orders": [2]}
    cases = [
        ({"orders": [2, 3, 2]}, "order 2.0 "),
        ({"orders": [2, 2.0]}, "order 2.0 "),
        ({"kinds": ["signed", "absolute", "signed"]}, "kind 'signed' "),
        ({"formulas": ["fixed-main", "fixed-main"]}, "formula 'fixed-main' "),
    ]
    for change, named in cases:
        with pytest.raises(ConfigError, match=f"^{re.escape(named)}is given more than once"):
            RunConfig.from_dict({**base, **change})


def test_csv_header_exact():
    assert (
        CSV_HEADER
        == "lambda,kind,actual,formula,predicted,ratio,rel_err,piece_count,wall_seconds"
    )
    rows = [
        ReportRow(1.0, Kind.ABSOLUTE, 1.5, "scaled-main", 1.6, 0.9375, 0.0625, 10, 0.01)
    ]
    text = emit_csv(rows)
    assert text.splitlines()[0] == CSV_HEADER


def test_roundtrip_bit_exact():
    # ugly irrationals exercise the 17 digit path
    rows = [
        ReportRow(2.1, Kind.ABSOLUTE, math.pi * 1e12, "scaled-refined", math.e * 1e12,
                  math.pi / math.e, 0.1547, 123456, 1.234567890123456),
        ReportRow(3.0, Kind.SIGNED, -1.0 / 3.0, None, None, None, None, 7, 0.5),
    ]
    lines = emit(rows, "csv").splitlines()
    assert lines[0] == CSV_HEADER
    from_csv = [dict(zip(COLUMNS, line.split(","))) for line in lines[1:]]
    from_json = json.loads(emit(rows, "json"))
    floats = {"lambda": "order", "actual": "actual", "predicted": "predicted",
              "ratio": "ratio", "rel_err": "rel_err", "wall_seconds": "wall_seconds"}
    for row, c, j in zip(rows, from_csv, from_json):
        for column, field in floats.items():
            want = getattr(row, field)
            assert (float(c[column]) if c[column] else None) == want  # exact, not approx
            assert j[column] == want
        assert int(c["piece_count"]) == j["piece_count"] == row.piece_count
        assert c["kind"] == j["kind"] == row.kind.value
        assert (c["formula"] or None) == j["formula"] == row.formula


def test_emit_json_is_valid_json():
    rows = [ReportRow(1.0, Kind.SIGNED, -0.5, None, None, None, None, 3, 0.0)]
    parsed = json.loads(emit_json(rows))
    assert parsed[0]["kind"] == "signed"
    assert parsed[0]["actual"] == -0.5
    assert parsed[0]["formula"] is None


def test_emit_writes_file(tmp_path, capsys):
    # --output writes the text emit returns, which stdout gets without it
    rows = [ReportRow(1.0, Kind.ABSOLUTE, 2.0, None, None, None, None, 1, 0.0)]
    assert emit(rows, "csv") == emit_csv(rows)
    assert emit(rows, "json") == emit_json(rows)
    with pytest.raises(ConfigError):
        emit(rows, "yaml")
    argv = ["predict", "--x", "1e8", "--delta", "1e-4", "--orders", "1,2",
            "--formulas", "scaled-main", "--format", "json"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    path = tmp_path / "out.json"
    assert main([*argv, "--output", str(path)]) == 0
    assert capsys.readouterr().out == ""

    def untimed(text):
        # only the per-formula timing column differs from run to run
        return [{k: v for k, v in row.items() if k != "wall_seconds"}
                for row in json.loads(text)]

    assert untimed(path.read_text()) == untimed(printed)


def test_output_is_written_whole_or_not_at_all(tmp_path, monkeypatch, capsys):
    # a write that fails midway, as on a full disk, leaves the old file as
    # it was and no temporary file beside it, and exits 3
    path = tmp_path / "out.csv"
    path.write_text("old\n")
    argv = ["predict", "--x", "1e8", "--delta", "1e-4", "--orders", "1,2",
            "--formulas", "scaled-main", "--output", str(path)]

    class FullDisk:
        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, text):
            self.f.write(text[: len(text) // 2])
            self.f.flush()
            raise OSError(28, "No space left on device")

    with monkeypatch.context() as m:
        m.setattr(cli, "open", lambda *a, **k: FullDisk(open(*a, **k)), raising=False)
        assert main(argv) == 3
    assert "No space left" in capsys.readouterr().err
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
    assert main(argv) == 0
    assert path.read_text().startswith(CSV_HEADER)
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_stale_temporary_file_does_not_block_output(tmp_path):
    # a killed write can leave its temporary file; a later run in a process
    # with the same pid still writes, leaves that file alone, and gives the
    # output the mode a plain open would
    path = tmp_path / "out.csv"
    stale = tmp_path / f".out.csv.{os.getpid()}.tmp"
    stale.write_text("stale\n")
    argv = ["predict", "--x", "1e8", "--delta", "1e-4", "--orders", "1",
            "--formulas", "scaled-main", "--output", str(path)]
    assert main(argv) == 0
    assert path.read_text().startswith(CSV_HEADER)
    assert stale.read_text() == "stale\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [stale.name, "out.csv"]
    plain = tmp_path / "plain"
    plain.write_text("")
    assert path.stat().st_mode == plain.stat().st_mode


def test_run_with_formula():
    cfg = RunConfig(
        X=5000.0,
        delta=Fraction(1, 100),
        orders=[1.0, 2.0],
        kinds=[Kind.ABSOLUTE],
        formulas=["scaled-main"],
    )
    rows = run(cfg)
    assert len(rows) == 2
    for row in rows:
        assert row.ratio == pytest.approx(row.actual / row.predicted, rel=1e-15)
        assert row.rel_err == pytest.approx(
            abs(row.actual - row.predicted) / abs(row.predicted), rel=1e-15
        )
        assert row.piece_count > 0
        assert 0.2 < row.ratio < 2.0


def test_predict_rows_only():
    cfg = RunConfig(
        X=1e8,
        delta=Fraction(1, 10000),
        orders=[1.0],
        formulas=["scaled-main", "scaled-refined"],
    )
    rows = predict_rows(cfg)
    assert [r.formula for r in rows] == ["scaled-main", "scaled-refined"]
    assert all(r.actual is None and r.piece_count == 0 for r in rows)
    # refinement shrinks the prediction: log(1/(E delta)) < log(1/delta)
    assert rows[1].predicted < rows[0].predicted


def test_formula_window_mismatch():
    cfg = RunConfig(
        X=1e6, h=Fraction(100), orders=[1.0], formulas=["scaled-main"]
    )
    with pytest.raises(ConfigError):
        predict_rows(cfg)


def test_run_checks_formulas_before_the_sweep(monkeypatch):
    # a formula that does not fit the window or its domain exits 2 before
    # any event is sieved
    def no_sweep(*args, **kwargs):
        raise AssertionError("swept before the formulas were checked")

    monkeypatch.setattr(report, "sweep_moments", no_sweep)
    cases = [
        ["--x", "3e7", "--h", "100", "--orders", "2", "--formulas", "scaled-main"],
        ["--x", "1e6", "--delta", "1e-3", "--orders", "1", "--formulas", "fixed-main"],
        ["--x", "1e6", "--h", "100", "--orders", "3", "--formulas", "even-b-fixed"],
        ["--x", "1e6", "--h", "100", "--orders", "61", "--formulas", "fixed-main"],
    ]
    for argv in cases:
        assert main(["moments", *argv]) == 2, argv


def test_reference_formula_columns():
    # formulas-only table pass, checked against the stored reference columns
    tables = reproduce_tables("full", include_actual=False)
    by_name = {t.name: t for t in tables}
    assert set(by_name) == {
        "absolute-desk",
        "signed-odd-desk",
        "absolute-full",
        "signed-odd-full",
    }
    for scale in ("desk", "full"):
        for row in by_name[f"absolute-{scale}"].rows:
            assert row.predicted_deviation <= 5e-4
            assert row.computed is None
        for row in by_name[f"signed-odd-{scale}"].rows:
            assert row.predicted_deviation <= 5e-4


def test_reproduce_tables_sweep_path(monkeypatch):
    # the desk table's sweep path at the small scale of the benchmark self-test
    monkeypatch.setattr(report, "DESK_SCALE", dict(X=2e4, delta=Fraction(1, 100)))
    tables = reproduce_tables("desk", threads=1)
    text = format_tables(tables)
    rows = [r for t in tables for r in t.rows]
    assert [t.X for t in tables] == [2e4, 2e4] and len(rows) == 9
    window = WindowSpec(2e4, Scaled(Fraction(1, 100)))
    want, _ = sweep_moments(window, [(r.order, r.kind) for r in rows])
    for row, res in zip(rows, want):
        assert row.computed == res.value  # bit for bit
        assert f"{row.computed:.5e}" in text


def test_reproduce_tables_uses_the_given_events(monkeypatch):
    # a source too small for the window fails loudly instead of being replaced
    monkeypatch.setattr(report, "DESK_SCALE", dict(X=2e4, delta=Fraction(1, 100)))
    with pytest.raises(CoverageError):
        reproduce_tables("desk", threads=1, events=EventSource(1000))


def test_reference_table_shapes():
    for scale in ("desk", "full"):
        assert sorted(REFERENCE_ABSOLUTE[scale]) == [1.0, 2.1, 3.2, 4.3, 5.4, 6.5]
        assert sorted(REFERENCE_ODD[scale]) == [1, 3, 5]


def test_cli_moments_toy(capsys):
    code = main(["moments", "--x", "10", "--h", "2", "--orders", "1", "--kind", "signed", "--threads", "1"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    value = float(lines[1].split(",")[2])
    assert value == pytest.approx(-0.6312235467506362, rel=1e-12)


def test_cli_moments_json_output(tmp_path, capsys):
    path = tmp_path / "rows.json"
    code = main(
        ["moments", "--x", "100", "--delta", "1/10", "--orders", "1,2",
         "--format", "json", "--output", str(path), "--threads", "1"]
    )
    assert code == 0
    rows = json.loads(path.read_text())
    assert [r["lambda"] for r in rows] == [1, 2]


@pytest.mark.parametrize("kind", ["absolute", "signed"])
def test_cli_overflowing_moment_exits_3_without_rows(tmp_path, capsys, kind):
    # |u| reaches about 50 at X = 1e5, so its 200th power is past float64
    path = tmp_path / "rows.csv"
    argv = ["moments", "--x", "1e5", "--delta", "1/100", "--orders", "2,200", "--kind", kind]
    assert main(argv + ["--output", str(path)]) == 3
    assert not path.exists()
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "order 200" in captured.err


def test_cli_order_domain(capsys):
    # an order past 1024 exits 2 with one error line, before any sieve; an
    # integer order up to 1024 gives a value, or a range error (exit 3)
    # where its moment passes float64, for every kind
    for orders, kind in (("1024.5", "absolute"), ("1025", "signed"), ("2000", "signed")):
        argv = ["moments", "--x", "1000", "--delta", "1/100", "--orders", orders, "--kind", kind]
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: order must lie in (0, 1024]") and err.count("\n") == 1
    for x, code in (("10", 0), ("1000", 3)):
        for kind in Kind:
            argv = ["moments", "--x", x, "--delta", "1/10", "--orders", "1023,1024",
                    "--kind", kind.value, "--threads", "1"]
            assert main(argv) == code, argv
    capsys.readouterr()


def test_cli_config_file(tmp_path, capsys):
    cfg = {"x": 1000, "delta": "1e-2", "orders": [1.0], "formulas": ["scaled-main"], "threads": 1}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["moments", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "scaled-main" in out


def test_cli_config_refuses_run_flags(tmp_path, capsys):
    # the file sets the run; flags that would change it are named and refused,
    # while the output flags still apply
    path = _config_file(tmp_path, "cfg", {"x": 1000, "delta": "1/100", "orders": [1]})
    argv = ["moments", "--config", path, "--x", "5000", "--orders", "2", "--kind", "signed"]
    assert main(argv) == 2
    assert "--x, --orders, --kind" in capsys.readouterr().err
    out = tmp_path / "rows.json"
    assert main(["moments", "--config", path, "--format", "json", "--output", str(out)]) == 0
    assert [(r["lambda"], r["kind"]) for r in json.loads(out.read_text())] == [(1, "absolute")]


def _config_file(tmp_path, name, data):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    cfg = {"x": 1000, "delta": "1e-2", "orders": [1.0]}
    good = _config_file(tmp_path, "good", cfg)
    cases = [
        # 2: config problems of several shapes
        (["moments", "--x", "10", "--orders", "1"], 2),
        (["moments", "--config", str(tmp_path / "missing.json")], 2),
        (["moments", "--config", str(bad)], 2),
        (["predict", "--x", "10", "--h", "20", "--orders", "1", "--formulas", "fixed-main"], 2),
        # malformed numbers and config values
        (["moments", "--x", "abc", "--h", "1", "--orders", "1"], 2),
        (["moments", "--x", "100", "--h", "1", "--orders", "1,x"], 2),
        (["moments", "--x", "inf", "--h", "1", "--orders", "1"], 2),
        (["predict", "--x", "1e8", "--delta", "1e-4", "--orders", "one",
          "--formulas", "scaled-main"], 2),
        (["equivalence", "--x", "2000", "--delta", "1/50", "--orders", "1.5"], 2),
        (["moments", "--x", "100", "--h", "1", "--orders", "inf"], 2),
        # (order, kind) pairs and integer-order formulas are checked for predict too
        (["predict", "--x", "1e8", "--delta", "1e-4", "--orders", "2.5", "--kind", "signed",
          "--formulas", "scaled-main"], 2),
        (["predict", "--x", "1e8", "--h", "1e4", "--orders", "6.5", "--formulas", "even-b-fixed"], 2),
        (["predict", "--x", "1e8", "--delta", "1e-4", "--orders", "3.2",
          "--formulas", "odd-normalizer"], 2),
        (["moments", "--config", _config_file(tmp_path, "orders", {**cfg, "orders": ["x"]})], 2),
        (["moments", "--config", _config_file(tmp_path, "kinds", {**cfg, "kinds": ["bogus"]})], 2),
        (["moments", "--config", _config_file(tmp_path, "threads", {**cfg, "threads": "many"})], 2),
        # a thread count is an integer >= 0, never truncated or read as "per core"
        (["moments", "--config", _config_file(tmp_path, "frac", {**cfg, "threads": 2.7})], 2),
        (["moments", "--config", _config_file(tmp_path, "bool", {**cfg, "threads": True})], 2),
        (["moments", "--x", "1000", "--delta", "1/100", "--orders", "1", "--threads", "-1"], 2),
        (["moments", "--x", "1000", "--delta", "1/100", "--orders", "1", "--threads", "100000"], 2),
        (["reproduce-tables", "--formulas-only", "--threads", "-1"], 2),
        (["moments", "--config", _config_file(tmp_path, "array", [cfg])], 2),
        # a repeated order, kind or formula, never a duplicate row
        (["moments", "--x", "1e5", "--h", "100", "--orders", "2,2"], 2),
        (["moments", "--x", "1e5", "--h", "100", "--orders", "2,2.0"], 2),
        (["predict", "--x", "1e8", "--delta", "1e-4", "--orders", "2",
          "--formulas", "scaled-main,scaled-main"], 2),
        (["moments", "--config", _config_file(tmp_path, "twice",
                                              {**cfg, "kinds": ["signed", "signed"]})], 2),
        # list-valued keys must be JSON arrays, never strings or numbers
        (["moments", "--config", _config_file(tmp_path, "str", {**cfg, "orders": "35"})], 2),
        (["moments", "--config", _config_file(tmp_path, "num", {**cfg, "orders": 3})], 2),
        (["moments", "--config", _config_file(tmp_path, "kind", {**cfg, "kinds": "signed"})], 2),
        (["moments", "--config", _config_file(tmp_path, "formula",
                                              {**cfg, "formulas": "scaled-main"})], 2),
        # run flags beside --config are refused, never silently dropped
        (["moments", "--config", good, "--x", "5000"], 2),
        (["moments", "--config", good, "--delta", "1/10"], 2),
        (["moments", "--config", good, "--h", "2"], 2),
        (["moments", "--config", good, "--orders", "2"], 2),
        (["moments", "--config", good, "--kind", "absolute"], 2),
        (["moments", "--config", good, "--formulas", "scaled-main"], 2),
        (["moments", "--config", good, "--threads", "0"], 2),
        # unknown config keys fail loudly, never silently ignored
        (["moments", "--config", _config_file(tmp_path, "cache", {**cfg, "cache_path": "e.bin"})], 2),
        (["moments", "--config", _config_file(tmp_path, "chunk", {**cfg, "chunk_events": 4096})], 2),
        # and keys that differ only in case never override each other
        (["moments", "--config", _config_file(tmp_path, "case", {**cfg, "X": 2000})], 2),
        # argparse usage errors: no identity gate but the package's, and
        # the width average's grid is its own
        (["moments", "--kind", "bogus"], 2),
        (["verify-identities", "--tolerance", "1e-8"], 2),
        (["equivalence", "--x", "2000", "--delta", "1/50", "--grid-points", "16"], 2),
        # 3: resource problems (keys past the 64-bit range, an unwritable output)
        (["moments", "--x", "1e20", "--h", "1", "--orders", "1"], 3),
        (["moments", "--x", "100", "--h", "1", "--orders", "1",
          "--output", str(tmp_path / "missing" / "out.csv")], 3),
    ]
    for argv, code in cases:
        assert main(argv) == code, argv
    capsys.readouterr()


def test_threads_zero_means_one_per_core(monkeypatch):
    # the flag and a config file carry the same value to the same place
    args = build_parser().parse_args(["moments", "--x", "1e4", "--delta", "1/100", "--orders", "1"])
    flag = _flag_config(args)
    config = RunConfig.from_dict({"x": 1e4, "delta": "1/100", "orders": [1], "threads": 0})
    # and a config file without "threads" runs like flags without --threads
    default = RunConfig.from_dict({"x": 1e4, "delta": "1/100", "orders": [1]})
    assert flag.threads == config.threads == default.threads == 0
    # where sweep_moments reads 0 as one worker process per core
    pools = []

    class Pool(concurrent.futures.process.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(sweep, "default_threads", lambda: 3)
    monkeypatch.setattr(sweep, "_CHUNK_EVENTS", 256)
    window = WindowSpec(2e4, Scaled(Fraction(1, 100)))
    values = [
        sweep_moments(window, [(1, Kind.ABSOLUTE)], threads=t)[0][0].value
        for t in (0, -1, 3, 1)
    ]
    assert pools == [3, 3, 3]  # threads=1 runs serially, with no pool
    assert len(set(values)) == 1
    # and never more workers than chunks
    (result,), diag = sweep_moments(window, [(1, Kind.ABSOLUTE)], threads=20)
    assert 3 < diag.chunks < 20 and pools[3:] == [diag.chunks]
    assert result.value == values[0]


def test_thread_count_past_the_bound_starts_no_pool(monkeypatch):
    # a fork pool starts all of its workers at once, so a count past
    # MAX_THREADS is refused before any pool starts or any span is sieved
    def refuse(*args, **kwargs):
        raise AssertionError("a pool was started or a span sieved")

    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(sweep, "sieve_blocks", refuse)
    monkeypatch.setattr(sweep, "_CHUNK_EVENTS", 256)
    window = WindowSpec(2e4, Scaled(Fraction(1, 100)))
    assert sweep.MAX_THREADS == 64
    with pytest.raises(ConfigError, match="threads must be at most 64, got 65"):
        sweep_moments(window, [(1, Kind.ABSOLUTE)], threads=65)
    assert report.parse_threads("64") == 64
    with pytest.raises(ConfigError, match="from 0 to 64, got 65"):
        report.parse_threads(65)


def test_default_threads_follows_affinity(monkeypatch):
    # a process pinned to one core (taskset -c 0) gets one worker, however
    # many the machine has; where os has no affinity call, the core count
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert sweep.default_threads() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(12)))
    assert sweep.default_threads() == 8
    monkeypatch.delattr(os, "sched_getaffinity")
    assert sweep.default_threads() == 2


def test_cli_equivalence_average_wider_than_window(capsys):
    # the one event source must cover the averaging widths up to Delta too
    argv = ["equivalence", "--x", "2e4", "--delta", "1/1000", "--orders", "1,3",
            "--average-delta", "1/100", "--threads", "1"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "n=1 averaged over delta<=0.01" in out and "n=3 averaged over delta<=0.01" in out


def test_cli_equivalence_rejects_non_odd_order_before_sieving(monkeypatch, capsys):
    # the odd-order check runs before any sweep asks for an event
    def no_range(self, lo, hi):
        raise AssertionError("events requested before the order was checked")

    monkeypatch.setattr(EventSource, "range", no_range)
    assert main(["equivalence", "--x", "1e5", "--delta", "1/1000", "--orders", "1.5"]) == 2
    assert "order must be an odd positive integer, got 1.5" in capsys.readouterr().err


def test_cli_equivalence_checks_every_order_before_sweeping(monkeypatch, capsys):
    # an order that is not odd stops the command before the first sweep,
    # wherever it stands in --orders
    def no_sweep(*args, **kwargs):
        raise AssertionError("swept before every order was checked")

    monkeypatch.setattr(cli, "decomposition_check", no_sweep)
    assert main(["equivalence", "--x", "2000", "--delta", "1/50", "--orders", "1,1.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "order must be an odd positive integer, got 1.5" in captured.err


def test_readme_commands_parse(capsys):
    # every documented command line must name real subcommands and flags,
    # and every output it shows must be what it prints: each shown line,
    # stripped, equals the printed line, or is its prefix when it ends in ...
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = re.sub(r"\\\n\s*", " ", text)
    blocks = re.findall(r"^\s*\$ psimoments (.*)\n((?:[ \t]*\S.*\n)*)", text, flags=re.M)
    assert blocks
    parser = build_parser()
    shown_outputs = 0
    for cmd, shown in blocks:
        try:
            parser.parse_args(shlex.split(cmd))
        except SystemExit:
            pytest.fail(f"README command does not parse: psimoments {cmd}")
        if not shown.strip():
            continue
        shown_outputs += 1
        assert main(shlex.split(cmd)) == 0, cmd
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) >= len(shown.splitlines()), cmd
        for want, got in zip(shown.splitlines(), printed):
            want, got = want.strip(), got.strip()
            if want.endswith("..."):
                assert got.startswith(want[:-3]), (cmd, want, got)
            else:
                assert got == want, (cmd, want, got)
    assert shown_outputs == 4


def test_readme_python_blocks_run(capsys):
    # the library examples run as written
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out
    # and the count of root names it quotes is the count there is
    assert f"lists the {len(psimoments.__all__)} names" in text


def test_cli_verify_identities(capsys):
    # one gate, the one acceptance criterion 6 reads
    assert specfun.IDENTITY_GATE == 1e-10
    assert main(["verify-identities"]) == 0
    out = capsys.readouterr().out
    assert "identities within 1e-10" in out
    # and README's "identity suite, N checks" quotes the count it prints
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    quoted = re.search(r"Special function identity suite, (\d+) checks", text)
    printed = re.search(r"^all (\d+) identities within", out, flags=re.M)
    assert quoted and printed and quoted.group(1) == printed.group(1)


def test_cli_verify_identities_fails_above_the_gate(monkeypatch, capsys):
    residual = specfun.duplication_residual
    monkeypatch.setattr(
        specfun, "duplication_residual", lambda z: 2e-10 if z == 7.0 else residual(z)
    )
    assert main(["verify-identities"]) == 4
    captured = capsys.readouterr()
    assert "FAIL  2.000e-10  duplication z=7" in captured.out
    assert "not within 1e-10: duplication z=7 (2.000e-10)" in captured.err


def test_cli_verify_identities_fails_on_a_nan_residual(monkeypatch, capsys):
    # a NaN residual is not within the gate, wherever it falls in the
    # suite: max() would skip it unless it came first
    residual = specfun.duplication_residual
    monkeypatch.setattr(
        specfun, "duplication_residual", lambda z: math.nan if z == 7.0 else residual(z)
    )
    assert main(["verify-identities"]) == 4
    captured = capsys.readouterr()
    assert "identities within" not in captured.out
    assert "duplication z=7 (nan)" in captured.err


def _run_module(*argv):
    """python -m psimoments with argv, from a checkout."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run([sys.executable, "-m", "psimoments", *argv], env=env,
                          capture_output=True, text=True)


def test_module_runs_the_cli():
    # python -m psimoments runs the console script's command line from a checkout
    out = _run_module("verify-identities")
    assert out.returncode == 0, out.stderr
    assert "identities within" in out.stdout


def test_cli_prints_a_warning_as_one_line(capsys):
    # a prediction outside its width range warns in one line, as an error
    # prints, without the package's source path or line; the CSV is the
    # one the command prints with warnings ignored
    argv = "predict --x 1e10 --h 1e9 --orders 3 --formulas fixed-main".split()
    out = _run_module(*argv)
    assert out.returncode == 0, out.stderr
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning: h=1000000000.0 outside")
    assert "report.py" not in out.stderr
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(argv) == 0
    quiet = capsys.readouterr()
    assert quiet.err == ""

    def rows(csv):  # every column but wall_seconds
        return [line.rsplit(",", 1)[0] for line in csv.splitlines()]

    assert rows(out.stdout) == rows(quiet.out) and len(rows(quiet.out)) == 2


@pytest.mark.parametrize("argv, formula", [
    # X^31 is a Python float power past float64, which raises
    ("predict --x 1e18 --delta 1e-3 --orders 60 --formulas scaled-main", "scaled-main"),
    # a product of floats that overflows to inf, which JSON cannot hold
    ("predict --x 1e300 --h 1e3 --orders 60 --formulas fixed-main --format json", "fixed-main"),
    # moments evaluates its formulas before it sieves
    ("moments --x 1e10 --delta 1e-3 --orders 1,60 --formulas scaled-main", "scaled-main"),
])
def test_formula_past_float64_exits_3_without_output(tmp_path, argv, formula):
    # a prediction past float64 is a range error, as a swept moment past it is
    path = tmp_path / "rows.out"
    for output in ([], ["--output", str(path)]):
        out = _run_module(*argv.split(), *output)
        assert out.returncode == 3, out.stderr
        assert out.stdout == ""
        assert "Traceback" not in out.stderr
        assert f"formula {formula} at order 60 is not finite" in out.stderr
    assert not path.exists()


def test_cli_equivalence(capsys):
    assert main(["equivalence", "--x", "2000", "--delta", "1/50", "--orders", "1", "--threads", "1"]) == 0
    out = capsys.readouterr().out
    assert "signed/normalizer" in out


def test_cli_reproduce_tables_formulas_only(capsys):
    assert main(["reproduce-tables", "--scale", "desk", "--formulas-only"]) == 0
    out = capsys.readouterr().out
    assert "absolute-desk" in out and "signed-odd-desk" in out
    assert "absolute-full" not in out
