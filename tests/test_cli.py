"""Tests for the scald-tv command-line entry point."""

import subprocess
import sys

import pytest

from repro.cli import main

CLEAN = """
design CLI_TEST;
period 50 ns;
clock_unit 6.25 ns;
prim REG r (CLOCK="CK .P2-3", DATA="D .S0-6", OUT="Q") delay=1.5:4.5;
prim "SETUP HOLD CHK" s (I="D .S0-6", CK="CK .P2-3") setup=2.5 hold=1.5;
"""

FAILING = CLEAN.replace('.S0-6', '.S3-6')

#: An input-delay port under case analysis; its header derives case 1's
#: setup miss of 1.5 ns.
CASED_PORT = ["tests/fixtures/cased_port.scald",
              "--sdc", "tests/fixtures/cased_port.sdc"]


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.scald"
    path.write_text(CLEAN)
    return str(path)


@pytest.fixture
def failing_file(tmp_path):
    path = tmp_path / "failing.scald"
    path.write_text(FAILING)
    return str(path)


class TestCli:
    def test_clean_design_exits_zero(self, clean_file, capsys):
        assert main([clean_file]) == 0
        assert "No setup" in capsys.readouterr().out

    def test_failing_design_exits_one(self, failing_file, capsys):
        assert main([failing_file]) == 1
        assert "SETUP" in capsys.readouterr().out

    def test_summary_flag(self, clean_file, capsys):
        assert main([clean_file, "--summary"]) == 0
        out = capsys.readouterr().out
        assert "TIMING VERIFIER SUMMARY" in out
        assert "CK .P2-3" in out

    def test_summary_rendered_once(self, clean_file, capsys, monkeypatch):
        """The summary phase's timed render is the one printed."""
        from repro.hdl.expander import MacroExpander
        from repro.reporting import listing
        from repro.session import Session

        render = listing.timing_summary
        want = render(Session(MacroExpander.from_file(clean_file).expand()).verify())
        calls = []

        def counted(result, case=0):
            calls.append(case)
            return render(result, case=case)

        monkeypatch.setattr(listing, "timing_summary", counted)
        assert main([clean_file, "--summary"]) == 0
        assert calls == [0]
        assert want + "\n" in capsys.readouterr().out

    def test_stats_flag(self, clean_file, capsys):
        assert main([clean_file, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "MACRO EXPANSION EXECUTION STATISTICS" in out
        assert "TIMING VERIFIER EXECUTION STATISTICS" in out

    def test_xref_flag(self, clean_file, capsys):
        assert main([clean_file, "--xref"]) == 0
        assert "undefined signals" in capsys.readouterr().out.lower()

    def test_wire_delay_option(self, clean_file):
        assert main([clean_file, "--wire-delay", "0.0:0.0"]) == 0

    def test_bad_wire_delay(self, clean_file, capsys):
        assert main([clean_file, "--wire-delay", "oops"]) == 2
        assert "wire-delay" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["/nonexistent/file.scald"]) == 2
        assert "error" in capsys.readouterr().err

    def test_storage_flag(self, clean_file, capsys):
        assert main([clean_file, "--storage"]) == 0
        out = capsys.readouterr().out
        assert "STORAGE REQUIRED" in out
        assert "signal values" in out

    def test_storage_measures_the_run_constraints(self, monkeypatch):
        """The measured engine runs under --sdc: the cased port carries
        its input-delay windows, not an assumed-stable value."""
        from repro.reporting import stats

        engines = []
        measure = stats.measure_storage

        def spy(engine):
            engines.append(engine)
            return measure(engine)

        monkeypatch.setattr(stats, "measure_storage", spy)
        assert main([*CASED_PORT, "--storage"]) == 1
        (engine,) = engines
        assert engine.constraints is not None
        assert engine.xref_assumed_stable == []
        assert engine.waveform_of("PORT").describe() == "C 10.5 0 17.5 C"

    def test_explain_flag(self, failing_file, capsys):
        assert main([failing_file, "--explain"]) == 1
        out = capsys.readouterr().out
        assert "critical contribution" in out

    def test_syntax_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.scald"
        bad.write_text("design X; this is not scald")
        assert main([str(bad)]) == 2
        assert "error" in capsys.readouterr().err


class TestWireDelayValidation:
    def test_inverted_range_rejected(self, clean_file, capsys):
        assert main([clean_file, "--wire-delay", "3.0:1.0"]) == 2
        assert "MIN must not exceed MAX" in capsys.readouterr().err

    def test_negative_min_rejected(self, clean_file, capsys):
        assert main([clean_file, "--wire-delay=-1.0:2.0"]) == 2
        assert "non-negative" in capsys.readouterr().err

    def test_negative_max_rejected(self, clean_file, capsys):
        assert main([clean_file, "--wire-delay", "0.0:-2.0"]) == 2
        assert "non-negative" in capsys.readouterr().err

    def test_equal_bounds_accepted(self, clean_file):
        assert main([clean_file, "--wire-delay", "1.5:1.5"]) == 0


STRUCT_WARN = """
design W;
period 50 ns;
clock_unit 6.25 ns;
prim AND g (I1="A .S0-6", I2="B .S0-6", OUT="CK .P2-3") delay=1.0:2.0;
prim REG r (CLOCK="CK .P2-3", DATA="D .S0-6", OUT="Q") delay=1.5:4.5;
"""


class TestStructureWarnings:
    def test_warnings_surfaced_in_output(self, tmp_path, capsys):
        path = tmp_path / "warn.scald"
        path.write_text(STRUCT_WARN)
        main([str(path)])
        out = capsys.readouterr().out
        assert "structure: WARNING" in out
        assert "clock-asserted signal is also driven" in out

    def test_clean_design_prints_no_structure_block(self, clean_file, capsys):
        assert main([clean_file]) == 0
        assert "structure:" not in capsys.readouterr().out


MULTICASE = CLEAN.replace(
    "design CLI_TEST;", "design CLI_CASES;"
) + 'case "SEL" = 0;\ncase "SEL" = 1;\n'


@pytest.fixture
def multicase_file(tmp_path):
    path = tmp_path / "cases.scald"
    path.write_text(MULTICASE)
    return str(path)


class TestJsonEnvelope:
    def test_json_stdout_is_pure_json(self, clean_file, capsys):
        """Regression: the human 'No setup...' line used to precede the
        JSON object, so json.loads failed at char 0."""
        import json

        assert main([clean_file, "--profile", "--json"]) == 0
        captured = capsys.readouterr()
        data = json.loads(captured.out)  # must parse from char 0
        assert data["circuit"] == "CLI_TEST"
        assert "No setup" in captured.err  # human text moved to stderr

    def test_json_implies_profile(self, clean_file, capsys):
        import json

        assert main([clean_file, "--json"]) == 0
        assert "phases_seconds" in json.loads(capsys.readouterr().out)

    def test_json_with_summary_keeps_stdout_clean(self, clean_file, capsys):
        import json

        assert main([clean_file, "--json", "--summary"]) == 0
        captured = capsys.readouterr()
        json.loads(captured.out)
        assert "TIMING VERIFIER SUMMARY" in captured.err

    def test_parallel_json_reports_cpu_phases(self, multicase_file, capsys):
        import json

        assert main([multicase_file, "--json", "--jobs", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "phases_cpu_seconds" in data

    def test_parallel_json_reports_pool_counters(self, multicase_file, capsys):
        import json

        assert main([multicase_file, "--json", "--jobs", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        pool = data["pool"]
        assert pool["workers"] == 2
        assert pool["pool_starts"] == 1
        assert pool["runs"] == 1
        assert pool["waveforms_shipped"] > 0

    def test_serial_json_has_no_pool_block(self, multicase_file, capsys):
        import json

        assert main([multicase_file, "--json"]) == 0
        assert "pool" not in json.loads(capsys.readouterr().out)


SHIFTER = "examples/designs/shifter.scald"


class TestProfileExpander:
    """Table 3-1's Expander half is part of the execution profile."""

    def test_text_profile_has_expander_rows(self, capsys):
        from repro.hdl.expander import expand_file

        assert main([SHIFTER, "--profile"]) == 0
        out = capsys.readouterr().out
        rows = [line for line in out.splitlines() if "Macro Expander: " in line]
        assert [row.split(":")[1].rsplit(None, 2)[0] for row in rows] == [
            " reading input files", " Pass 1", " Pass 2",
        ]
        assert all(row.endswith(" ms") for row in rows)
        calls = expand_file(SHIFTER)[1].macro_calls
        assert calls > 0
        assert f"  macro calls: {calls}, primitives: " in out

    def test_json_profile_has_expander_block(self, capsys):
        import json

        from repro.hdl.expander import expand_file

        assert main([SHIFTER, "--json"]) == 0
        block = json.loads(capsys.readouterr().out)["expander"]
        phases = block["phases_seconds"]
        assert set(phases) == {"read", "pass1", "pass2", "total"}
        assert all(phases[k] > 0 for k in ("read", "pass1", "pass2"))
        assert phases["total"] == pytest.approx(
            phases["read"] + phases["pass1"] + phases["pass2"]
        )
        assert block["macro_calls"] == expand_file(SHIFTER)[1].macro_calls


class TestCaseValidation:
    def test_out_of_range_case_exits_2_with_usage(self, clean_file, capsys):
        """Regression: --case 99 used to escape as a raw IndexError from
        reporting/listing.py."""
        assert main([clean_file, "--summary", "--case", "99"]) == 2
        err = capsys.readouterr().err
        assert "bad --case 99" in err
        assert "use 0..0" in err

    def test_negative_case_rejected(self, clean_file, capsys):
        assert main([clean_file, "--summary", "--case=-1"]) == 2
        assert "bad --case -1" in capsys.readouterr().err

    def test_last_valid_case_accepted(self, multicase_file):
        assert main([multicase_file, "--summary", "--case", "1"]) == 0


class TestJobsFlag:
    def test_jobs_output_byte_identical_to_serial(self, multicase_file, capsys):
        assert main([multicase_file, "--summary"]) == 0
        serial = capsys.readouterr().out
        assert main([multicase_file, "--summary", "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_jobs_preserves_failure_exit_and_listing(self, tmp_path, capsys):
        path = tmp_path / "failing_cases.scald"
        path.write_text(FAILING + 'case "SEL" = 0;\ncase "SEL" = 1;\n')
        # The serial run reaches the cased port's case 1 by a case switch,
        # its pool worker from a fresh start.
        for argv in ([str(path)], CASED_PORT):
            assert main(argv) == 1
            serial = capsys.readouterr().out
            assert main([*argv, "--jobs", "2"]) == 1
            assert capsys.readouterr().out == serial
        assert (
            "su: SETUP time violated on 'D' (required 2.5 ns missed by "
            "1.5 ns) [window 9.0..13.5 ns] (case 1)"
        ) in serial

    def test_zero_jobs_rejected(self, clean_file, capsys):
        assert main([clean_file, "--jobs", "0"]) == 2
        assert "bad --jobs" in capsys.readouterr().err


class TestFlagConflicts:
    """Contradictory flag combinations die with one line and exit 2."""

    def test_fmax_with_case_rejected(self, clean_file, capsys):
        assert main([clean_file, "--fmax", "--case", "0"]) == 2
        err = capsys.readouterr().err
        assert "bad flags" in err and "--case" in err
        assert "\n" not in err.strip()  # one line, no traceback

    def test_bit_blast_with_jobs_rejected(self, clean_file, capsys):
        assert main([clean_file, "--bit-blast", "--jobs", "2"]) == 2
        err = capsys.readouterr().err
        assert "bad flags" in err and "--jobs" in err
        assert "\n" not in err.strip()

    def test_fmax_with_jobs_rejected(self, clean_file, capsys):
        """--fmax bisects over the period in-process; pool workers would
        hold the stale period, so the combination dies up front."""
        assert main([clean_file, "--fmax", "--jobs", "2"]) == 2
        err = capsys.readouterr().err
        assert "bad flags" in err and "--fmax" in err and "--jobs" in err
        assert "\n" not in err.strip()

    def test_crosscheck_with_jobs_accepted(self, multicase_file, capsys):
        """--crosscheck works against pooled results: the lazy snapshots
        fetch worker waveforms on demand for the enclosure check."""
        assert main([multicase_file, "--crosscheck", "--jobs", "2"]) == 0
        assert "crosscheck: static windows enclose" in capsys.readouterr().out

    def test_negative_jobs_rejected(self, clean_file, capsys):
        assert main([clean_file, "--jobs=-3"]) == 2
        assert "bad --jobs" in capsys.readouterr().err

    def test_fmax_alone_accepted(self, clean_file, capsys):
        assert main([clean_file, "--fmax"]) == 0
        assert "fmax:" in capsys.readouterr().out

    def test_bit_blast_with_serial_jobs_accepted(self, clean_file):
        assert main([clean_file, "--bit-blast", "--jobs", "1"]) == 0


class TestFmaxFlag:
    def test_fmax_reports_min_period(self, clean_file, capsys):
        assert main([clean_file, "--fmax"]) == 0
        out = capsys.readouterr().out
        assert "fmax:" in out
        assert "min period" in out or "not period-limited" in out

    def test_fmax_json_carries_fmax_block(self, clean_file, capsys):
        import json

        assert main([clean_file, "--json", "--fmax"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "fmax" in data
        assert data["fmax"]["method"] == "bisect"
        assert (data["fmax"]["min_period_ps"] is None) == (
            data["fmax"]["fmax_mhz"] is None
        )


class TestLintFlag:
    def test_lint_flag_reports_findings(self, clean_file, capsys):
        assert main([clean_file, "--lint"]) == 0
        out = capsys.readouterr().out
        assert "dead-net" in out  # Q is driven but unread: advisory only

    def test_lint_errors_force_nonzero_exit(self, capsys):
        code = main(["tests/fixtures/gated_clock.scald", "--lint"])
        assert code == 1
        out = capsys.readouterr().out
        assert "gated-clock" in out and "short-directive" in out

    def test_without_flag_no_lint_output(self, clean_file, capsys):
        assert main([clean_file]) == 0
        assert "dead-net" not in capsys.readouterr().out


#: The ``repro`` modules ``import repro.cli`` loads (scald-tv's start-up).
CLI_MODULES = {
    "repro", "repro.cli", "repro.core", "repro.core.algebra",
    "repro.core.checks", "repro.core.config", "repro.core.engine",
    "repro.core.models", "repro.core.timeline", "repro.core.values",
    "repro.core.verifier", "repro.core.violations", "repro.core.waveform",
    "repro.core.wordwave", "repro.hdl", "repro.hdl.assertions",
    "repro.hdl.expander", "repro.hdl.expr", "repro.hdl.parser",
    "repro.incremental", "repro.lint", "repro.lint.diagnostics",
    "repro.lint.registry", "repro.lint.runner", "repro.netlist",
    "repro.netlist.bitblast", "repro.netlist.circuit",
    "repro.netlist.primitives", "repro.netlist.validate", "repro.reporting",
    "repro.reporting.diagram", "repro.reporting.explain",
    "repro.reporting.lintfmt", "repro.reporting.listing",
    "repro.reporting.stafmt", "repro.reporting.stats", "repro.session",
}
#: The ``repro`` modules ``import repro.server`` loads (scald-serve's).
SERVER_MODULES = (
    CLI_MODULES
    - {"repro.cli", "repro.hdl.expander", "repro.hdl.expr"}
    | {"repro.server"}
)


class TestStartupModules:
    """A one-shot ``scald-tv`` run pays for every module its import loads,
    before it reads the design.  The static analysis, the constraint
    front-end, the differential oracle and the worker pool load only when
    a run asks for them."""

    @pytest.mark.parametrize(
        "module, expected",
        [("repro.cli", CLI_MODULES), ("repro.server", SERVER_MODULES)],
    )
    def test_import_loads_only_its_modules(self, module, expected):
        code = (
            f"import sys, {module}\n"
            "print('\\n'.join(n for n in sys.modules"
            " if n == 'repro' or n.startswith('repro.')))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
        ).stdout
        loaded = set(out.split())
        assert loaded == expected
        lazy = (
            "repro.sta", "repro.constraints", "repro.oracle", "repro.parallel"
        )
        assert not [m for m in loaded if m.startswith(lazy)]
