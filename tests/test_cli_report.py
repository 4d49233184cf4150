import json
import math
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from psimoments import report, sweep
from psimoments.cli import _flag_config, build_parser, main
from psimoments.errors import ConfigError
from psimoments.report import (
    CSV_HEADER,
    ReportRow,
    RunConfig,
    emit,
    emit_csv,
    emit_json,
    format_tables,
    parse_rational,
    parse_rows,
    predict_rows,
    reproduce_tables,
    run,
)
from psimoments.report import REFERENCE_ABSOLUTE, REFERENCE_ODD
from psimoments.sweep import Kind, Scaled, WindowSpec, sweep_moments


def test_parse_rational_exact():
    assert parse_rational("1e-4") == Fraction(1, 10000)
    assert parse_rational("1/3") == Fraction(1, 3)
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational("100") == Fraction(100)
    assert parse_rational(7) == Fraction(7)
    assert parse_rational(Fraction(2, 5)) == Fraction(2, 5)
    # a float argument keeps its exact binary value
    assert parse_rational(0.5) == Fraction(1, 2)


def test_parse_rational_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_rational("five")
    with pytest.raises(ConfigError):
        parse_rational("1/0")


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
    for fmt in ("csv", "json"):
        back = parse_rows(emit(rows, fmt), fmt)
        for a, b in zip(back, rows):
            assert a.actual == b.actual  # exact, not approx
            assert a.predicted == b.predicted
            assert a.ratio == b.ratio
            assert a.order == b.order
            assert a.piece_count == b.piece_count
            assert a.wall_seconds == b.wall_seconds


def test_emit_json_is_valid_json():
    rows = [ReportRow(1.0, Kind.SIGNED, -0.5, None, None, None, None, 3, 0.0)]
    parsed = json.loads(emit_json(rows))
    assert parsed[0]["kind"] == "signed"
    assert parsed[0]["actual"] == -0.5
    assert parsed[0]["formula"] is None


def test_emit_writes_file(tmp_path):
    rows = [ReportRow(1.0, Kind.ABSOLUTE, 2.0, None, None, None, None, 1, 0.0)]
    path = tmp_path / "out.csv"
    emit(rows, "csv", str(path))
    assert path.read_text().splitlines()[0] == CSV_HEADER
    with pytest.raises(ConfigError):
        emit(rows, "yaml")


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


def test_cli_config_file(tmp_path, capsys):
    cfg = {"x": 1000, "delta": "1e-2", "orders": [1.0], "formulas": ["scaled-main"], "threads": 1}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["moments", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "scaled-main" in out


def _config_file(tmp_path, name, data):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    cfg = {"x": 1000, "delta": "1e-2", "orders": [1.0]}
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
        (["moments", "--config", _config_file(tmp_path, "array", [cfg])], 2),
        # unknown config keys fail loudly, never silently ignored
        (["moments", "--config", _config_file(tmp_path, "cache", {**cfg, "cache_path": "e.bin"})], 2),
        (["moments", "--config", _config_file(tmp_path, "chunk", {**cfg, "chunk_events": 4096})], 2),
        # an identity gate that is not a positive finite number
        (["verify-identities", "--tolerance", "nan"], 2),
        (["verify-identities", "--tolerance", "-1"], 2),
        # 3: resource problems (keys past the 64-bit range)
        (["moments", "--x", "1e20", "--h", "1", "--orders", "1"], 3),
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
    # where sweep_moments reads 0 as one thread per core
    pools = []

    class Pool(sweep.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(sweep, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(sweep, "default_threads", lambda: 3)
    window = WindowSpec(2e4, Scaled(Fraction(1, 100)))
    values = [
        sweep_moments(window, [(1, Kind.ABSOLUTE)], threads=t, chunk_events=256)[0][0].value
        for t in (0, -1, 3, 1)
    ]
    assert pools == [3, 3, 3]  # threads=1 runs serially, with no pool
    assert len(set(values)) == 1


def test_cli_equivalence_average_wider_than_window(capsys):
    # the one event source must cover the averaging widths up to Delta too
    argv = ["equivalence", "--x", "2e4", "--delta", "1/1000", "--orders", "1",
            "--average-delta", "1/100", "--threads", "1"]
    assert main(argv) == 0
    assert "averaged over delta<=0.01" in capsys.readouterr().out


def test_readme_commands_parse():
    # every documented command line must name real subcommands and flags
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = re.sub(r"\\\n\s*", " ", text)
    commands = re.findall(r"^\s*\$ psimoments (.*)$", text, flags=re.M)
    assert commands
    parser = build_parser()
    for cmd in commands:
        try:
            parser.parse_args(shlex.split(cmd))
        except SystemExit:
            pytest.fail(f"README command does not parse: psimoments {cmd}")


def test_cli_verify_identities(capsys):
    assert main(["verify-identities"]) == 0
    out = capsys.readouterr().out
    assert "identities within" in out


def test_cli_equivalence(capsys):
    assert main(["equivalence", "--x", "2000", "--delta", "1/50", "--orders", "1", "--threads", "1"]) == 0
    out = capsys.readouterr().out
    assert "signed/normalizer" in out


def test_cli_reproduce_tables_formulas_only(capsys):
    assert main(["reproduce-tables", "--scale", "desk", "--formulas-only"]) == 0
    out = capsys.readouterr().out
    assert "absolute-desk" in out and "signed-odd-desk" in out
    assert "absolute-full" not in out
