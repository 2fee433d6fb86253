"""Tests for the repro-faults command line interface."""

import pytest

from repro.cli import main


def test_classify_facet(capsys):
    rc = main(["--patterns", "64", "classify", "facet"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Table 2 row" in out
    assert "SFR" in out


def test_stats(capsys):
    rc = main(["stats", "poly"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "gates" in out and "DFFE" in out


def test_export_verilog(tmp_path, capsys):
    target = tmp_path / "facet.v"
    rc = main(["export", "facet", str(target)])
    assert rc == 0
    text = target.read_text()
    assert text.startswith("//")
    assert "endmodule" in text


def test_export_bench(tmp_path):
    target = tmp_path / "facet.bench"
    rc = main(["export", "facet", str(target)])
    assert rc == 0
    assert "INPUT(" in target.read_text()


def test_grade_facet(capsys):
    rc = main(["--patterns", "64", "grade", "facet", "--threshold", "0.05"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Figure 7" in out
    assert "Table 1" in out
    assert "detected by power test" in out


def test_bad_design_rejected():
    with pytest.raises(SystemExit):
        main(["classify", "nonexistent"])


@pytest.mark.parametrize(
    "argv",
    [
        ["--patterns", "0", "classify", "facet"],
        ["--patterns", "lots", "classify", "facet"],
        ["--jobs", "0", "classify", "facet"],
        ["--jobs", "-3", "classify", "facet"],
        ["--jobs", "many", "classify", "facet"],
        ["--width", "0", "classify", "facet"],
        ["--timeout", "-5", "classify", "facet"],
        ["--timeout", "0", "classify", "facet"],
        ["--max-retries", "-1", "classify", "facet"],
        ["grade", "facet", "--threshold", "0"],
        ["grade", "facet", "--threshold", "1.5"],
        ["grade", "facet", "--threshold", "nan"],
        ["--timeout", "nan", "classify", "facet"],
        ["dump-vcd", "facet", "out.vcd", "--seed", "-2"],
        ["--audit-rate", "1", "classify", "facet"],
        ["serve", "--port", "70000"],
        ["serve", "--queue-depth", "0"],
        ["serve", "--serve-workers", "0"],
        ["serve", "--request-timeout", "0"],
        ["serve", "--drain-grace", "-1"],
        ["calibrate", "facet", "--instances", "0"],
        ["calibrate", "facet", "--sigma-cap", "1"],
        ["calibrate", "facet", "--sigma-leak", "-0.1"],
        ["calibrate", "facet", "--sigma-meas", "2"],
        ["calibrate", "facet", "--yield-budget", "1"],
        ["calibrate", "facet", "--fleet-seed", "-1"],
    ],
)
def test_bad_argument_values_rejected_by_argparse(argv, capsys):
    """Out-of-range knob values die in argparse, not deep in a campaign."""
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 2  # argparse usage error
    assert "usage:" in capsys.readouterr().err


def test_range_edges_accepted(capsys):
    """-1 (all cores) and 0 (auditing off) sit outside the plain ranges."""
    assert main(["--jobs", "-1", "--audit-rate", "0", "stats", "facet"]) == 0


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_encoding_option(capsys):
    rc = main(["--encoding", "gray", "stats", "facet"])
    assert rc == 0


def test_datapath_command(capsys):
    rc = main(["--patterns", "64", "datapath", "facet"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "integrated datapath test" in out
    assert "hardest components" in out


def test_worstcase_command(capsys):
    rc = main(["worstcase", "facet"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "worst case" in out


def test_compile_command(tmp_path, capsys):
    src = tmp_path / "beh.txt"
    src.write_text(
        "design mini\nwidth 4\ninputs a b\ns = a + b\np = s * b\noutput o p\n"
    )
    rc = main(["--patterns", "64", "compile", str(src)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mini:" in out and "fault buckets" in out


def test_dump_vcd_command(tmp_path, capsys):
    target = tmp_path / "wave.vcd"
    rc = main(["dump-vcd", "facet", str(target)])
    assert rc == 0
    assert "$enddefinitions" in target.read_text()


def test_strategies_command(capsys):
    rc = main(["--patterns", "64", "strategies", "facet"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Test strategy comparison" in out
    assert "integrated logic test" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["--audit-rate", "1.0", "classify", "facet"],
        ["--audit-rate", "-0.1", "classify", "facet"],
        ["--audit-rate", "most", "classify", "facet"],
        ["--chaos", "explode:1", "classify", "facet"],
        ["--chaos", "crash:1.5", "classify", "facet"],
        ["--chaos", "bitflip:maybe", "classify", "facet"],
    ],
)
def test_bad_integrity_flags_rejected_by_argparse(argv, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_chaos_hang_without_timeout_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["--chaos", "hang:0.5", "classify", "facet"])
    assert "timeout" in capsys.readouterr().err


def test_classify_reports_audit_and_writes_report_json(tmp_path, capsys):
    import json

    report = tmp_path / "report.json"
    rc = main(
        ["--patterns", "64", "--audit-rate", "0.25",
         "--report-json", str(report), "classify", "facet"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "audited" in out
    data = json.loads(report.read_text())
    assert data["clean"] is True
    assert data["total_violations"] == 0
    assert data["campaigns"]["faultsim"]["audited"] > 0


def test_chaos_bitflip_run_quarantines_and_reports(tmp_path, capsys):
    import json

    report = tmp_path / "chaos-report.json"
    rc = main(
        ["--patterns", "64", "--audit-rate", "0.5",
         "--chaos", "bitflip:1,seed:7", "--report-json", str(report),
         "classify", "facet"]
    )
    assert rc == 0  # quarantined, not fatal
    out = capsys.readouterr().out
    assert "integrity" in out
    data = json.loads(report.read_text())
    assert data["clean"] is False
    assert data["total_violations"] >= 1
    assert any(
        v["check"] == "faultsim-differential" for v in data["violations"]
    )


def test_calibrate_chaos_reaches_grading(tmp_path, capsys):
    """``--chaos`` reaches calibrate's grading campaign as it does grade's:
    the injected power bit-flip is caught by the grading audit."""
    import json

    report = tmp_path / "chaos-report.json"
    rc = main(
        ["--patterns", "64", "--audit-rate", "0.5",
         "--chaos", "bitflip:1,seed:7", "--report-json", str(report),
         "calibrate", "facet", "--instances", "2000"]
    )
    assert rc == 0  # quarantined, not fatal
    data = json.loads(report.read_text())
    assert any(
        v["check"] == "grading-differential" for v in data["violations"]
    )


def test_strict_chaos_run_aborts(capsys):
    from repro.core.errors import IntegrityError

    with pytest.raises(IntegrityError, match="strict mode"):
        main(
            ["--patterns", "64", "--audit-rate", "0.5", "--strict",
             "--chaos", "bitflip:1,seed:7", "classify", "facet"]
        )


def test_table2_honours_encoding(monkeypatch, capsys):
    """``table2`` builds every design with the global synthesis knobs
    (``--encoding``/``--output-style``), like every other command."""
    import repro.cli as cli
    from repro.designs.catalog import PAPER_DESIGNS

    built = []

    class _Row:
        def __init__(self, system):
            self.system = system

        def table2_row(self):
            return {
                "design": self.system.rtl.name,
                "total_faults": 1,
                "sfr_faults": 0,
                "pct_sfr": 0.0,
            }

    def fake_pipeline(system, config, store=None):
        built.append((system.rtl.name, system.controller.encoding.kind))
        return _Row(system)

    monkeypatch.setattr(cli, "run_pipeline", fake_pipeline)
    assert main(["--encoding", "onehot", "table2"]) == 0
    assert built == [(name, "onehot") for name in PAPER_DESIGNS]
    assert "Table 2" in capsys.readouterr().out
