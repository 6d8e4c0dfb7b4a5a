"""Tests for the SDC constraint front-end (``repro.constraints``).

Four layers: the tokenizer/parser on strings (total — bad input becomes
findings, never exceptions), name resolution against expanded circuits,
the hand-computed fixture designs in ``examples/designs`` (multicycle and
recovery/removal with expected slack values worked out in their header
comments), and the CLI surface (``--sdc`` on all three tools, JSON-purity
envelopes, suppression pragmas for the dotted ``sdc.*`` rule family).
"""

import json

import pytest

from repro import Circuit, TimingVerifier, VerifyConfig
from repro.constraints import (
    CheckerMods,
    ConstraintSet,
    load_constraints,
    parse_sdc,
    resolve,
)
from repro.core.timeline import ns_to_ps
from repro.core.violations import ViolationKind
from repro.hdl.expander import MacroExpander
from repro.sta import analyze, check_encloses, compute_slack, compute_windows

SHIFTER = "examples/designs/shifter.scald"
SHIFTER_SDC = "examples/designs/shifter.sdc"
MULTICYCLE = "examples/designs/multicycle.scald"
MULTICYCLE_SDC = "examples/designs/multicycle.sdc"
RECOVERY = "examples/designs/recovery.scald"
RECOVERY_SDC = "examples/designs/recovery.sdc"


def expand(path):
    return MacroExpander.from_file(path).expand()


def circuit():
    return Circuit("p", period_ns=50.0, clock_unit_ns=6.25)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class TestParser:
    def test_ns_to_ps(self):
        assert ns_to_ps("2.5") == 2_500
        assert ns_to_ps("50") == 50_000
        assert ns_to_ps("0.001") == 1

    def test_basic_command(self):
        cmds, findings = parse_sdc('create_clock -period 50 -name CK "MAIN CLK"')
        assert findings == []
        (cmd,) = cmds
        assert cmd.name == "create_clock"
        assert cmd.flags["-period"] == "50"
        assert cmd.flags["-name"] == "CK"
        assert cmd.target_names() == ("MAIN CLK",)

    def test_selector_and_list(self):
        cmds, findings = parse_sdc(
            "set_false_path -from [get_ports {A B}] -to {X Y}"
        )
        assert findings == []
        (cmd,) = cmds
        assert cmd.flag_names("-from") == ("A", "B")
        assert cmd.flag_names("-to") == ("X", "Y")

    def test_comments_continuations_semicolons(self):
        cmds, findings = parse_sdc(
            "# a comment\n"
            "create_clock -period 50 \\\n"
            "    -name CK MAINCLK  ; set_clock_uncertainty 0.1 CK\n"
        )
        assert findings == []
        assert [c.name for c in cmds] == [
            "create_clock", "set_clock_uncertainty",
        ]

    def test_unknown_command_is_a_finding_not_an_error(self):
        cmds, findings = parse_sdc("set_dont_touch foo\n", filename="x.sdc")
        assert cmds == []
        (f,) = findings
        assert f.rule == "sdc.unknown-command"
        assert f.severity == "warning"
        assert f.line == 1

    def test_malformed_flag_is_a_syntax_error_finding(self):
        cmds, findings = parse_sdc("create_clock -period\n")
        assert cmds == []
        (f,) = findings
        assert f.rule == "sdc.syntax-error"
        assert f.severity == "error"

    def test_line_numbers_survive_continuations(self):
        _, findings = parse_sdc(
            "create_clock -period 50 CK\n\nbogus_cmd x \\\n  y\n"
        )
        (f,) = findings
        assert f.line == 3


# ---------------------------------------------------------------------------
# CheckerMods arithmetic (the single place effective guards are computed)
# ---------------------------------------------------------------------------


class TestCheckerMods:
    def test_default_is_identity(self):
        assert CheckerMods().effective(2_500, 1_500, 50_000) == (2_500, 1_500)
        assert CheckerMods().is_default

    def test_multicycle_setup_folds_below_zero(self):
        # N=2 on the folded single-period axis: setup side fully waived.
        s, h = CheckerMods(setup_cycles=2).effective(2_500, 1_500, 50_000)
        assert s == 2_500 - 50_000
        assert s <= 0 and h == 1_500

    def test_multicycle_hold(self):
        s, h = CheckerMods(hold_cycles=1).effective(2_500, 1_500, 50_000)
        assert s == 2_500 and h == 1_500 - 50_000

    def test_uncertainty_widens_both_sides(self):
        s, h = CheckerMods(uncertainty_ps=100).effective(2_500, 1_500, 50_000)
        assert (s, h) == (2_600, 1_600)


# ---------------------------------------------------------------------------
# resolution against an expanded circuit
# ---------------------------------------------------------------------------


class TestResolve:
    def test_shifter_sdc_resolves_clean(self):
        c = expand(SHIFTER)
        cs = load_constraints(SHIFTER_SDC, c)
        assert cs.ok and cs.findings == []
        assert set(cs.clock_nets.values()) == {"MAIN CLK .P2-3"}
        # The 0.1 ns uncertainty lands on both registers' checkers.
        assert {m.uncertainty_ps for m in cs.checker_mods.values()} == {100}
        assert set(cs.checker_mods) == {"inreg/su", "outreg/su"}

    def test_period_mismatch_is_warned_design_wins(self):
        c = expand(SHIFTER)
        cmds, _ = parse_sdc('create_clock -period 10 "MAIN CLK .P2-3"')
        cs = resolve(cmds, c)
        assert any(f.rule == "sdc.period-mismatch" for f in cs.findings)
        assert cs.ok  # warning, not error

    def test_unresolved_target_is_an_error(self):
        c = expand(SHIFTER)
        cmds, _ = parse_sdc("set_false_path -to NOSUCHTHING")
        cs = resolve(cmds, c)
        assert not cs.ok
        assert cs.errors[0].rule == "sdc.unresolved-pin"

    def test_false_path_beats_multicycle_with_warning(self):
        c = expand(SHIFTER)
        cmds, _ = parse_sdc(
            "set_false_path -to inreg/su\n"
            "set_multicycle_path 2 -setup -to inreg/su\n"
        )
        cs = resolve(cmds, c)
        assert cs.checker_mods["inreg/su"].waived
        assert any(f.rule == "sdc.conflicting-path" for f in cs.findings)

    def test_uncertainty_exceeding_period_is_an_error(self):
        c = expand(SHIFTER)
        cmds, _ = parse_sdc("set_clock_uncertainty 60 MAINCLK\n")
        cs = resolve(
            parse_sdc(
                'create_clock -period 50 -name MAINCLK "MAIN CLK .P2-3"\n'
                "set_clock_uncertainty 60 MAINCLK\n"
            )[0],
            c,
        )
        assert any(
            f.rule == "sdc.uncertainty-exceeds-period" for f in cs.errors
        )

    @pytest.mark.parametrize("text, ps", [("0.5015", 502), ("2.0005", 2_000)])
    def test_times_convert_like_scald_times(self, text, ps):
        """Round half to even on the exact decimal, as for a .scald
        ``delay=``; a float product would give 501 ps for 0.5015."""
        c = expand(SHIFTER)
        cs = resolve(
            parse_sdc(
                'create_clock -period 50 -name MAINCLK "MAIN CLK .P2-3"\n'
                f"set_clock_uncertainty {text} MAINCLK\n"
            )[0],
            c,
        )
        assert cs.ok
        assert {m.uncertainty_ps for m in cs.checker_mods.values()} == {ps}
        assert ns_to_ps(float(text)) == ps

    @pytest.mark.parametrize(
        "value", ["nan", "inf", "-inf", "1e400", "abc", "[get_clocks MAINCLK]"]
    )
    def test_non_finite_value_is_a_syntax_finding(self, value):
        c = expand(SHIFTER)
        cs = resolve(parse_sdc(f"set_clock_uncertainty {value} MAINCLK\n")[0], c)
        assert [f.rule for f in cs.errors] == ["sdc.syntax-error"]
        assert "expected a number" in cs.errors[0].message

    def test_default_mods_are_dropped(self):
        # A 1-cycle multicycle is the default; it must not mark checkers
        # as "constrained" (baseline invariance hinges on this).
        c = expand(SHIFTER)
        cmds, _ = parse_sdc("set_multicycle_path 1 -setup -to inreg/su")
        cs = resolve(cmds, c)
        assert cs.checker_mods == {}

    def test_constraint_set_is_picklable(self):
        import pickle

        c = expand(SHIFTER)
        cs = load_constraints(SHIFTER_SDC, c)
        assert pickle.loads(pickle.dumps(cs)).checker_mods == cs.checker_mods


# ---------------------------------------------------------------------------
# the hand-computed fixtures (values derived in the .scald header comments)
# ---------------------------------------------------------------------------


class TestMulticycleFixture:
    def test_unconstrained_fails_setup_by_1500_ps(self):
        c = expand(MULTICYCLE)
        result = TimingVerifier(c).verify()
        assert not result.ok
        assert {v.kind for v in result.violations} == {ViolationKind.SETUP}
        a = analyze(c)
        (rec,) = a.slack
        # -1500 ideal penetration plus the storage model's 1 ps change
        # markers (see the fixture's header comment).
        assert rec.slack_ps == -1_502

    def test_multicycle_waives_setup_keeps_hold(self):
        c = expand(MULTICYCLE)
        cs = load_constraints(MULTICYCLE_SDC, c)
        assert cs.ok
        assert cs.checker_mods["su"].setup_cycles == 2
        result = TimingVerifier(c, constraints=cs).verify()
        assert result.ok
        a = analyze(c, constraints=cs)
        (rec,) = a.slack
        assert rec.slack_ps == 998
        assert rec.setup_eff_ps is not None and rec.setup_eff_ps <= 0

    def test_crosscheck_verdicts_hold(self):
        c = expand(MULTICYCLE)
        cs = load_constraints(MULTICYCLE_SDC, c)
        result = TimingVerifier(c, constraints=cs).verify()
        windows = compute_windows(c, constraints=cs)
        slack = compute_slack(c, windows, constraints=cs)
        cc = check_encloses(result, windows, slack=slack)
        assert cc.ok and cc.verdicts_checked >= 1


class TestRecoveryFixture:
    def test_design_is_clean_without_constraints(self):
        c = expand(RECOVERY)
        assert TimingVerifier(c).verify().ok

    def test_expected_recovery_and_removal_slack(self):
        c = expand(RECOVERY)
        cs = load_constraints(RECOVERY_SDC, c)
        assert cs.ok
        a = analyze(c, constraints=cs)
        by_kind = {
            r.kind: r.slack_ps
            for r in a.slack
            if r.component == "hold" and r.signal == "CLEAR .S0-6"
        }
        assert by_kind == {"recovery": 7_500, "removal": 11_500}

    def test_engine_agrees_recovery_clean(self):
        c = expand(RECOVERY)
        cs = load_constraints(RECOVERY_SDC, c)
        result = TimingVerifier(c, constraints=cs).verify()
        assert result.ok
        windows = compute_windows(c, constraints=cs)
        slack = compute_slack(c, windows, constraints=cs)
        cc = check_encloses(result, windows, slack=slack)
        assert cc.ok

    def test_tight_recovery_fails_both_analyses(self):
        # Push the margin past the 7.5 ns gap: both sides must flag it.
        # The guard wraps to 11.5 - 12 = -0.5 ns = 49.5 ns on the circular
        # axis, and the CLEAR changes (37.5..50 ns) reach 0.5 ns into it.
        c = expand(RECOVERY)
        cmds, _ = parse_sdc(
            'create_clock -period 50 -name MAINCLK "MAIN CLK .P2-3"\n'
            "set_recovery 12 hold\n"
        )
        cs = resolve(cmds, c)
        assert cs.ok
        a = analyze(c, constraints=cs)
        (rec,) = [
            r for r in a.slack
            if r.kind == "recovery" and r.signal == "CLEAR .S0-6"
        ]
        assert rec.slack_ps == -500
        result = TimingVerifier(c, constraints=cs).verify()
        assert any(
            v.kind == ViolationKind.RECOVERY for v in result.violations
        )


# ---------------------------------------------------------------------------
# latch time borrowing
# ---------------------------------------------------------------------------


class TestBorrow:
    # Zero wire delay keeps the transparency window at its asserted
    # 13.5..17.75 ns; the 14:16 ns buffer lands the DIN changes at
    # 1.5..16 ns, i.e. 2.5 ns past the latch opening.
    CONFIG = VerifyConfig(default_wire_delay_ns=(0.0, 0.0))

    def _latch_circuit(self):
        c = circuit()
        c.buf("D", "DIN .S0-6", delay=(14.0, 16.0))
        c.latch("Q", "EN .P2-3", "D", delay=(1.0, 2.0), name="lat")
        return c

    def test_borrow_always_reported_informationally(self):
        a = analyze(self._latch_circuit(), self.CONFIG)
        (rec,) = [r for r in a.slack if r.kind == "borrow"]
        # 2500 ideal plus the 1 ps boundary change marker.
        assert rec.borrow_ps == 2_501
        assert rec.slack_ps is None  # no cap: a report, not a check

    def test_borrow_cap_fails_then_passes(self):
        c = self._latch_circuit()
        cmds, _ = parse_sdc("set_max_time_borrow 1 lat")
        cs = resolve(cmds, c)
        assert cs.ok
        a = analyze(c, self.CONFIG, constraints=cs)
        (rec,) = [r for r in a.slack if r.kind == "borrow"]
        assert rec.slack_ps is not None and rec.slack_ps < 0
        result = TimingVerifier(c, self.CONFIG, constraints=cs).verify()
        assert any(v.kind == ViolationKind.BORROW for v in result.violations)

        # A cap above the worst borrow (but inside the transparency
        # window, so the guard is non-empty) passes both analyses.
        cmds, _ = parse_sdc("set_max_time_borrow 3 lat")
        cs = resolve(cmds, c)
        a = analyze(c, self.CONFIG, constraints=cs)
        (rec,) = [r for r in a.slack if r.kind == "borrow"]
        assert rec.slack_ps is not None and rec.slack_ps >= 0
        assert TimingVerifier(c, self.CONFIG, constraints=cs).verify().ok


# ---------------------------------------------------------------------------
# input/output delays
# ---------------------------------------------------------------------------


class TestIoDelay:
    def _port_circuit(self):
        c = circuit()
        c.reg("Q", "CK .P2-3", "PORT", delay=(1.0, 2.0), name="r")
        c.setup_hold("PORT", "CK .P2-3", setup=2.5, hold=1.5, name="su")
        return c

    def test_input_delay_paints_identical_change_windows(self):
        c = self._port_circuit()
        cmds, _ = parse_sdc(
            'create_clock -period 50 -name CK "CK .P2-3"\n'
            "set_input_delay 3 -max -clock CK PORT\n"
            "set_input_delay 1 -min -clock CK PORT\n"
        )
        cs = resolve(cmds, c)
        assert cs.ok and "PORT" in {d.net for d in cs.input_delays.values()}

        # Unconstrained: the port is assumed stable, no static windows.
        bare = compute_windows(c)
        rise, fall = bare.by_name("PORT")
        assert rise.is_empty and fall.is_empty

        # Constrained: both analyses see the same change windows, so the
        # enclosure contract holds by construction.
        windows = compute_windows(c, constraints=cs)
        rise, fall = windows.by_name("PORT")
        assert not rise.is_empty and not fall.is_empty
        result = TimingVerifier(c, constraints=cs).verify()
        assert check_encloses(result, windows).ok

    def test_output_delay_adds_virtual_check_in_both_analyses(self):
        c = self._port_circuit()
        cmds, _ = parse_sdc(
            'create_clock -period 50 -name CK "CK .P2-3"\n'
            "set_output_delay 5 -max -clock CK Q\n"
            "set_output_delay 1 -min -clock CK Q\n"
        )
        cs = resolve(cmds, c)
        assert cs.ok and len(cs.output_delays) == 1

        windows = compute_windows(c, constraints=cs)
        slack = compute_slack(c, windows, constraints=cs)
        (rec,) = [r for r in slack if r.kind == "output"]
        assert rec.component == "sdc@Q"
        # The register's output changes right at the capture edge: the
        # virtual boundary check must fail in both analyses.
        assert rec.slack_ps is not None and rec.slack_ps < 0
        result = TimingVerifier(c, constraints=cs).verify()
        assert any(v.component == "sdc@Q" for v in result.violations)
        assert check_encloses(result, windows, slack=slack).ok


# ---------------------------------------------------------------------------
# CLI surface: --sdc everywhere, exit codes, JSON purity, pragmas
# ---------------------------------------------------------------------------


class TestCli:
    def test_scald_tv_sdc_flips_multicycle_verdict(self, capsys):
        from repro.cli import main

        assert main([MULTICYCLE]) == 1
        assert main([MULTICYCLE, "--sdc", MULTICYCLE_SDC, "--crosscheck"]) == 0
        out = capsys.readouterr().out
        assert "statically-positive" in out

    def test_scald_tv_missing_sdc_is_usage_error(self):
        from repro.cli import main

        assert main([MULTICYCLE, "--sdc", "/nonexistent.sdc"]) == 2

    def test_scald_tv_sdc_error_findings_fail_the_run(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.sdc"
        bad.write_text("set_false_path -to NOSUCHPIN\n")
        assert main([SHIFTER, "--sdc", str(bad)]) == 1
        assert "sdc.unresolved-pin" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["abc", "nan", "inf"])
    def test_scald_tv_bad_sdc_number_is_a_finding(self, value, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.sdc"
        bad.write_text(f"set_clock_uncertainty {value} MAINCLK\n")
        assert main([SHIFTER, "--sdc", str(bad)]) == 1
        out = capsys.readouterr().out
        assert f"set_clock_uncertainty: expected a number, got '{value}'" in out
        assert "sdc.syntax-error" in out

    def test_scald_sta_json_purity(self, capsys):
        from repro.sta.cli import main

        assert main([SHIFTER, "--json", "--sdc", SHIFTER_SDC]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)  # stdout is pure JSON
        assert doc["ok"] is True
        assert doc["constraints"]["clocks"] == ["MAIN CLK .P2-3"]
        assert all(rec["kind"] == "setup-hold" for rec in doc["slack"])

    def test_scald_sta_json_array_for_multiple_designs(self, capsys):
        from repro.sta.cli import main

        assert main([SHIFTER, RECOVERY, "--json"]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert [d["circuit"] for d in docs] == ["SHIFTER", "RECOVERY"]

    def test_scald_sta_exit_1_on_negative_slack(self):
        from repro.sta.cli import main

        assert main([MULTICYCLE]) == 1
        assert main([MULTICYCLE, "--sdc", MULTICYCLE_SDC]) == 0

    def test_scald_lint_json_purity(self, capsys):
        from repro.lint.cli import main

        assert main([SHIFTER, "--json", "--sdc", SHIFTER_SDC]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["summary"]["errors"] == 0
        assert SHIFTER_SDC in doc["files"]

    def test_scald_lint_json_array_for_multiple_designs(self, capsys):
        from repro.lint.cli import main

        assert main([SHIFTER, RECOVERY, "--json"]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert len(docs) == 2

    def test_scald_lint_sdc_family(self, tmp_path, capsys):
        from repro.lint.cli import main

        bad = tmp_path / "bad.sdc"
        bad.write_text("set_false_path -to NOSUCHPIN\nset_dont_touch x\n")
        assert main([SHIFTER, "--sdc", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "sdc.unresolved-pin" in out
        assert "sdc.unknown-command" in out


class TestSuppressionPragmas:
    def test_dotted_rule_id_suppresses(self, tmp_path):
        from repro.lint import lint_path

        bad = tmp_path / "bad.sdc"
        bad.write_text(
            "# scald: disable=sdc.unresolved-pin\n"
            "set_false_path -to NOSUCHPIN\n"
        )
        result = lint_path(SHIFTER, sdc_path=str(bad))
        assert result.errors == []
        assert result.suppressed >= 1

    def test_family_wildcard_suppresses_late_registered_rules(self, tmp_path):
        from repro.lint import lint_path

        bad = tmp_path / "bad.sdc"
        bad.write_text(
            "# scald: disable=sdc.*\n"
            "set_dont_touch x\n"
        )
        result = lint_path(SHIFTER, sdc_path=str(bad))
        assert [d for d in result.diagnostics if d.rule.startswith("sdc.")] == []

    def test_unrelated_rules_not_swallowed(self, tmp_path):
        from repro.lint import lint_path

        bad = tmp_path / "bad.sdc"
        bad.write_text(
            "# scald: disable=sdc.unknown-command\n"
            "set_false_path -to NOSUCHPIN\n"
        )
        result = lint_path(SHIFTER, sdc_path=str(bad))
        assert any(d.rule == "sdc.unresolved-pin" for d in result.errors)
