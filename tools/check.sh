#!/bin/sh
# Offline quality gate: tier-1 tests, self-lint of every shipped .scald
# source, and the engine-vs-static crosscheck smoke.  No network, no
# arguments; run from anywhere inside the repository.
#
#   tools/check.sh
#
# Exit status: 0 when every stage passes, 1 on the first failure.
# REPRO_S1_SCALE is honoured by the test suite exactly as with pytest.

set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"

# Run the package from src/ so the gate works without an editable install.
PYTHONPATH="$repo_root/src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

echo "== tier-1 tests =="
python -m pytest tests/ -q

echo
echo "== scald-lint --strict over shipped .scald sources =="
# Design sources self-lint clean; the library ships macro definitions that
# lint as sources too.  find keeps the gate honest when designs are added.
designs=$(find examples src/repro/library -name '*.scald' | sort)
if [ -z "$designs" ]; then
    echo "no .scald sources found" >&2
    exit 1
fi
# shellcheck disable=SC2086
python -m repro.lint.cli --strict $designs

echo
echo "== crosscheck smoke: static windows enclose engine transitions =="
# A sibling .sdc rides along: multicycle.scald only verifies clean under
# its constraints, and constrained runs also exercise the per-check
# verdict pass of the crosscheck.
for design in examples/designs/*.scald; do
    sdc="${design%.scald}.sdc"
    if [ -f "$sdc" ]; then
        python -m repro.cli "$design" --sdc "$sdc" --crosscheck >/dev/null
        echo "ok: $design (with $sdc)"
    else
        python -m repro.cli "$design" --crosscheck >/dev/null
        echo "ok: $design"
    fi
done
python - <<'EOF'
from repro.core.verifier import TimingVerifier
from repro.sta import check_encloses, compute_windows
from repro.workloads.synth import SynthConfig, generate

for chips, seed in ((60, 1), (200, 7), (500, 1980)):
    circuit, _ = generate(SynthConfig(chips=chips, seed=seed)).circuit()
    result = TimingVerifier(circuit).verify()
    cc = check_encloses(result, compute_windows(circuit))
    assert result.ok and cc.ok, (chips, seed, cc.failures[:3])
    print(f"ok: synth chips={chips} seed={seed} "
          f"({cc.nets_checked} nets x {cc.cases_checked} cases)")
EOF

echo
echo "== SDC gate: shipped constraint files parse, lint and agree =="
# Every shipped .sdc must resolve against its design with zero findings
# under --strict, and the text and JSON reporters must agree on the
# verdict (same exit code, parseable stdout).
for sdc in examples/designs/*.sdc; do
    design="${sdc%.sdc}.scald"
    python -m repro.lint.cli --strict "$design" --sdc "$sdc" >/dev/null
    echo "ok: $sdc (lints clean against $design)"
done
for design in examples/designs/shifter.scald examples/designs/multicycle.scald; do
    sdc="${design%.scald}.sdc"
    text_rc=0; json_rc=0
    python -m repro.sta.cli "$design" --sdc "$sdc" >/dev/null 2>&1 || text_rc=$?
    python -m repro.sta.cli "$design" --sdc "$sdc" --json 2>/dev/null \
        | python -c 'import json,sys; json.load(sys.stdin)' || json_rc=$?
    if [ "$text_rc" -ne 0 ] || [ "$json_rc" -ne 0 ]; then
        echo "scald-sta text/JSON disagree on $design (text=$text_rc json=$json_rc)" >&2
        exit 1
    fi
    echo "ok: $design text and JSON reporters agree"
done

echo
echo "== word-level vs bit-blast differential =="
# The word-level engine must be undetectable: byte-identical violations,
# cross-reference and verdict against the per-bit scalar oracle, on the
# shipped designs (with their constraints) and a synthetic sample.
python - <<'EOF'
from pathlib import Path

from repro.constraints import load_constraints
from repro.core.verifier import TimingVerifier
from repro.hdl.expander import MacroExpander
from repro.netlist import bit_blast
from repro.wordcheck import assert_word_equivalent
from repro.workloads.synth import SynthConfig, generate

for path in sorted(Path("examples/designs").glob("*.scald")):
    sdc = path.with_suffix(".sdc")
    for use_sdc in (False, True):
        if use_sdc and not sdc.exists():
            continue

        def run(blasted):
            circuit = MacroExpander.from_file(str(path)).expand()
            cons = load_constraints(str(sdc), circuit) if use_sdc else None
            if blasted:
                circuit = bit_blast(circuit)
            return TimingVerifier(circuit, constraints=cons).verify()

        word_circuit = MacroExpander.from_file(str(path)).expand()
        assert_word_equivalent(run(False), run(True), word_circuit)
    print(f"ok: {path} word == bit-blast")

for chips, seed in ((60, 1), (200, 7), (500, 1980)):
    circuit, _ = generate(SynthConfig(chips=chips, seed=seed)).circuit()
    word = TimingVerifier(circuit).verify()
    circuit2, _ = generate(SynthConfig(chips=chips, seed=seed)).circuit()
    blast = TimingVerifier(bit_blast(circuit2)).verify()
    assert_word_equivalent(word, blast, circuit)
    ratio = blast.stats.events / word.stats.events
    assert ratio >= 3.0, (chips, seed, ratio)
    print(f"ok: synth chips={chips} seed={seed} "
          f"word == bit-blast ({ratio:.1f}x fewer events)")
EOF

echo
echo "== Fmax gate: engine clean at Fmax, violating one picosecond below =="
# The parametric solver's answer must be the *engine's* boundary: on every
# shipped design and a synthetic sample, the verifier passes at the solved
# minimum period and fails at period - 1, and the binding check it names
# is among the checks failing there.  Designs that are not period-limited
# (no check tightens as the clock speeds up, or a period-independent
# violation) are reported and skipped.  Three designs start the search
# away from a clean static root: Fig. 2-5 has none, Fig. 3-12's limiting
# check (an assertion mismatch) files no margin, and the pulse-width
# fixture's engine fails at the static root on a check with no static twin.
# The search passes the period as an argument: the circuit's timebase must
# be the same object afterwards.  Fig. 2-6 is static-clean down to 1 ps,
# and the static search must say so in a bounded number of static evals.
python - <<'EOF'
from pathlib import Path

from repro.core.timeline import scaled_timebase
from repro.core.verifier import TimingVerifier
from repro.hdl.expander import MacroExpander
from repro.constraints import load_constraints
from repro.sta.parametric import solve_fmax, solve_static_fmax
from repro.workloads import figures
from repro.workloads.synth import SynthConfig, generate


def engine_run(circuit, constraints, period_ps):
    """A full verification with the circuit re-timed here (restored)."""
    saved = circuit.timebase
    circuit.timebase = scaled_timebase(saved, period_ps)
    try:
        return TimingVerifier(circuit, constraints=constraints).verify()
    finally:
        circuit.timebase = saved


def gate(name, circuit, constraints=None):
    timebase = circuit.timebase
    res = solve_fmax(circuit, constraints=constraints)
    assert circuit.timebase is timebase, (name, "solve_fmax re-timed the circuit")
    if not res.period_limited or res.period_ps is None:
        why = "not period-limited" if not res.period_limited else "no clean period"
        print(f"ok: {name} ({why}; {res.engine_runs} engine runs)")
        return
    t = res.period_ps
    assert engine_run(circuit, constraints, t).ok, (name, t, "violates at Fmax")
    below = engine_run(circuit, constraints, t - 1)
    assert not below.ok, (name, t, "clean below Fmax")
    failing = {(v.component, v.signal) for v in below.violations}
    binding = (res.binding.component, res.binding.signal)
    assert binding in failing, (name, t, binding, "binding check clean below Fmax")
    print(f"ok: {name} clean at {t} ps, violating at {t - 1} ps "
          f"at {binding[0]} ({res.method}, {res.engine_runs} engine runs)")


for path in sorted(Path("examples/designs").glob("*.scald")):
    circuit = MacroExpander.from_file(str(path)).expand()
    sdc = path.with_suffix(".sdc")
    cons = load_constraints(str(sdc), circuit) if sdc.exists() else None
    gate(str(path), circuit, cons)

for chips, seed in ((60, 1), (200, 7)):
    circuit, _ = generate(SynthConfig(chips=chips, seed=seed)).circuit()
    gate(f"synth chips={chips} seed={seed}", circuit)

for name in ("fig_2_5_register_file", "fig_3_12_alu_datapath"):
    gate(name, getattr(figures, name)())
fixture = "tests/fixtures/pulse_width.scald"
gate(fixture, MacroExpander.from_file(fixture).expand())

static = solve_static_fmax(figures.fig_2_6_case_analysis())
assert not static.period_limited, static
assert static.static_evals <= 100, static.static_evals
print(f"ok: fig_2_6_case_analysis not period-limited "
      f"({static.static_evals} static evals)")
EOF

echo
echo "== serial-vs-parallel equivalence gate (warm pool, byte identity) =="
# A pooled Session forks its workers once; two verifies plus an
# edit -> reverify must reuse the same warm pool and stay byte-identical
# to a serial Session driven through the same script.  A single-case
# design has no case blocks, so it must run the serial engine; the SDC
# case proves the constraints actually ride along to the workers.
python - <<'EOF'
from repro import Session
from repro.constraints import load_constraints
from repro.core.verifier import TimingVerifier
from repro.hdl.expander import MacroExpander
from repro.incremental import WireDelayEdit
from repro.parallel import verify_parallel
from repro.workloads.synth import SynthConfig, generate


def synth(chips, seed, cases):
    circuit, _ = generate(SynthConfig(chips=chips, seed=seed)).circuit()
    for k in range(cases):
        circuit.add_case_by_name({"MUX CTL .S0-8": k % 2})
    return circuit


def same_listings(serial, par, where):
    assert serial.error_listing() == par.error_listing(), where
    assert all(
        serial.summary_listing(case=c) == par.summary_listing(case=c)
        for c in range(len(serial.cases))
    ), where


for chips, seed in ((60, 1), (200, 7)):
    pooled = Session(synth(chips, seed, 4), jobs=2)
    serial = Session(synth(chips, seed, 4))
    first, again = pooled.verify(), pooled.verify()
    oracle = serial.verify()
    same_listings(oracle, first, (chips, seed, "cold"))
    same_listings(oracle, again, (chips, seed, "warm"))
    edit = WireDelayEdit("MUX CTL .S0-8", (0.0, 2.0))
    pooled.edit(edit)
    serial.edit(edit)
    par_inc = pooled.reverify(prescreen=False).result
    ser_inc = serial.reverify(prescreen=False).result
    same_listings(ser_inc, par_inc, (chips, seed, "reverify"))
    stats = par_inc.pool
    assert stats.pool_starts == 1, (chips, seed, stats)
    assert stats.runs == 3 and stats.warm_runs >= 1, (chips, seed, stats)
    assert stats.edits_shipped == 1, (chips, seed, stats)
    pooled.close()
    print(f"ok: synth chips={chips} seed={seed} warm pool == serial "
          f"(2 verifies + edit->reverify on {stats.workers} workers, "
          f"{stats.pool_starts} fork)")

# Single case: one fixed point, no case axis to shard, so jobs > 1 runs
# the serial engine in-process.
single, _ = generate(SynthConfig(chips=200, seed=7)).circuit()
par = verify_parallel(single, jobs=4)
single2, _ = generate(SynthConfig(chips=200, seed=7)).circuit()
serial = TimingVerifier(single2).verify()
same_listings(serial, par, "single case")
assert par.pool is None, par.pool
print("ok: synth chips=200 seed=7 single case at jobs=4 == serial "
      "(serial engine, no pool)")

# SDC constraints must reach the workers: the constrained parallel run
# matches the constrained serial run, and differs from unconstrained.
def multicycle(n_cases):
    circuit = MacroExpander.from_file(
        "examples/designs/multicycle.scald").expand()
    for k in range(n_cases):
        circuit.add_case_by_name({"DIN .S0-6": k % 2})
    return circuit, load_constraints(
        "examples/designs/multicycle.sdc", circuit)


circuit, cons = multicycle(4)
par = verify_parallel(circuit, jobs=2, constraints=cons)
circuit2, cons2 = multicycle(4)
serial = TimingVerifier(circuit2, constraints=cons2).verify()
same_listings(serial, par, "sdc")
bare = verify_parallel(multicycle(4)[0], jobs=2)
assert serial.ok and par.ok and not bare.ok
print("ok: multicycle.sdc constrained --jobs 2 == serial "
      "(and unconstrained correctly fails)")
EOF

echo
echo "== incremental-equivalence gate: reverify == from-scratch =="
# Every typed edit class on the shipped designs (with and without their
# .sdc), a deterministic edit sweep over synthetic circuits and a pooled
# four-case session: the incremental run's listings must be byte-identical
# to a from-scratch run on the same edited circuit, and after every edit
# the prescreen's held static analysis must equal a fresh analyze()
# (assert_incremental_equivalent / assert_static_equivalent raise
# otherwise).
python - <<'EOF'
from pathlib import Path

from repro import Session
from repro.incremental import (
    AssertionEdit,
    ParamEdit,
    ReconnectEdit,
    WireDelayEdit,
    assert_incremental_equivalent,
    assert_static_equivalent,
)
from repro.workloads.synth import SynthConfig, generate


def both(session):
    inc = assert_incremental_equivalent(session)
    assert_static_equivalent(session)
    return inc


edits_by_design = {
    "examples/designs/shifter.scald": [
        WireDelayEdit("AFTER 1", (0.0, 25.0)),
        ParamEdit("s2/rot", {"delay": (2.0, 6.0)}),
        ParamEdit("outreg/su", {"setup": 30.0}),
        ReconnectEdit("outreg/r", "DATA", "AFTER 1"),
        WireDelayEdit("AFTER 1", None),
    ],
    "examples/designs/multicycle.scald": [
        AssertionEdit("DIN .S0-6", ".S1-6"),
        ParamEdit("su", {"setup": 1.0}),
    ],
    "examples/designs/recovery.scald": [
        ParamEdit("hold", {"delay": (1.0, 4.0)}),
        WireDelayEdit("CLEAR .S0-6", (0.0, 9.0)),
    ],
}
for path, edits in edits_by_design.items():
    sdc = Path(path).with_suffix(".sdc")
    for use_sdc in (False, True):
        if use_sdc and not sdc.exists():
            continue
        session = Session.from_file(path, sdc=str(sdc) if use_sdc else None)
        session.verify()
        assert_static_equivalent(session)
        for edit in edits:
            session.edit(edit)
            both(session)
        with_sdc = f" with {sdc}" if use_sdc else ""
        print(f"ok: {path}{with_sdc} ({len(edits)} edits, reverify == "
              f"scratch, held static == analyze())")

for chips, seed in ((60, 1), (200, 7)):
    circuit, _ = generate(SynthConfig(chips=chips, seed=seed)).circuit()
    session = Session(circuit)
    session.verify()
    assert_static_equivalent(session)
    nets = sorted(n for n in circuit.nets if n.startswith("S0 R "))
    for i, net in enumerate(nets[:4]):
        session.edit(WireDelayEdit(net, (0.0, 0.25 * (i + 1))))
        inc = both(session)
    print(f"ok: synth chips={chips} seed={seed} reverify == scratch, held "
          f"static == analyze() (last edit dirtied "
          f"{inc.stats.dirty_primitives} primitives)")

# The prescreen runs in the parent of a pooled session, on the parent's
# circuit, while the workers re-verify their own copies.
circuit, _ = generate(SynthConfig(chips=60, seed=1)).circuit()
for k in range(4):
    circuit.add_case_by_name({"MUX CTL .S0-8": k % 2})
pooled = Session(circuit, jobs=2)
pooled.verify()
assert_static_equivalent(pooled)
nets = sorted(n for n in circuit.nets if n.startswith("S0 R "))
for i, net in enumerate(nets[:3]):
    pooled.edit(WireDelayEdit(net, (0.0, 0.5 * (i + 1))))
    inc = both(pooled)
assert inc.result.pool is not None and inc.result.pool.pool_starts == 1
pooled.close()
print("ok: synth chips=60 seed=1 four cases at jobs=2, prescreen on "
      "(reverify == scratch, held static == analyze())")
EOF

echo
echo "== scald-serve smoke: HTTP answers match the direct API =="
# Start the server on an ephemeral port, drive a load/verify/edit/
# reverify round-trip through the wire protocol, and require the same
# listings the in-process Session produces.
python - <<'EOF'
import json
import subprocess
import sys
import threading

from repro import Session
from repro.incremental import WireDelayEdit, edit_to_doc
from repro.server import SessionClient

proc = subprocess.Popen(
    [sys.executable, "-m", "repro.server", "--port", "0"],
    stdout=subprocess.PIPE,
    text=True,
)
try:
    port = json.loads(proc.stdout.readline())["port"]
    client = SessionClient("127.0.0.1", port)
    assert client.health()["ok"]

    sid = client.create(path="examples/designs/shifter.scald")
    wire_full = client.verify(sid)
    client.edit(sid, edit_to_doc(WireDelayEdit("AFTER 1", (0.0, 25.0))))
    wire_inc = client.reverify(sid, prescreen=False)

    direct = Session.from_file("examples/designs/shifter.scald")
    full = direct.verify()
    direct.edit(WireDelayEdit("AFTER 1", (0.0, 25.0)))
    inc = direct.reverify(prescreen=False)

    assert wire_full["ok"] and wire_full["error_listing"] == full.error_listing()
    assert wire_inc["incremental"] and not wire_inc["ok"]
    assert wire_inc["error_listing"] == inc.result.error_listing()
    assert wire_inc["summary_listing"] == inc.result.summary_listing()
    client.delete(sid)
    print("ok: scald-serve load/verify/edit/reverify == direct Session")

    # A session created with "jobs" verifies on a warm worker pool behind
    # the same wire protocol; listings stay identical and the second run
    # reuses the forked workers.
    psid = client.create(path="examples/designs/shifter.scald", jobs=2)
    wire_par = client.verify(psid)
    wire_par2 = client.verify(psid)
    assert wire_par["error_listing"] == full.error_listing()
    assert wire_par["summary_listing"] == full.summary_listing()
    assert wire_par2["summary_listing"] == full.summary_listing()
    pool = wire_par2["profile"]["pool"]
    assert pool["workers"] == 2 and pool["pool_starts"] == 1
    assert pool["runs"] == 2 and pool["warm_runs"] >= 1
    client.delete(psid)  # drop closes the pool server-side
    print("ok: scald-serve jobs=2 pooled verify == direct Session "
          "(pool reused across runs)")
finally:
    proc.terminate()
    proc.wait(timeout=10)
EOF

echo
echo "all checks passed."
