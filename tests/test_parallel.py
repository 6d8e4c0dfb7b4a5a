"""Process-parallel verification must match the serial verifier exactly.

The contract of ``repro.parallel`` is determinism: for any circuit and any
jobs count, the parallel run's observation (violations, waveforms,
listings, margins and verdict) equals the serial reference's
(``repro.oracle``).  These tests check that over a synth size x seed
matrix and over a failing multi-case design, plus the merge plumbing
(block partitioning, EngineStats.merged, CPU phase times) and
result-object pickling.
"""

from __future__ import annotations

import os
import pickle
import signal
from pathlib import Path

import pytest

from repro import oracle
from repro.constraints import load_constraints
from repro.core.engine import EngineStats
from repro.core.verifier import TimingVerifier
from repro.hdl.expander import MacroExpander
from repro.incremental import WireDelayEdit
from repro.modular import verify_sections
from repro.netlist.circuit import Circuit, NetlistError
from repro.parallel import WorkerCrash, case_blocks, verify_parallel
from repro.session import Session
from repro.workloads.figures import (
    fig_2_5_register_file,
    fig_2_6_case_analysis,
)
from repro.workloads.synth import SynthConfig, generate

DESIGNS = Path(__file__).resolve().parent.parent / "examples" / "designs"


def synth_with_cases(chips: int, seed: int, n_cases: int = 5) -> Circuit:
    design = generate(SynthConfig(chips=chips, stage_chips=max(30, chips // 2),
                                  seed=seed))
    circuit, _ = design.circuit()
    for k in range(n_cases):
        circuit.add_case_by_name({"MUX CTL .S0-8": k % 2})
    return circuit


def failing_multicase() -> Circuit:
    """A design with real violations spread over several cases."""
    c = fig_2_5_register_file()
    assert TimingVerifier(c).verify().violations  # stays a failing fixture
    for k in range(4):
        c.add_case_by_name({"SPARE CTL": k % 2})
    return c


def assert_matches_reference(circuit: Circuit, par, constraints=None):
    """``par``, a pooled run of ``circuit``, against the serial reference."""
    want = oracle.reference(circuit, constraints)
    oracle.compare(
        "pooled", oracle.observe(want, circuit), oracle.observe(par, circuit)
    )
    return want


class TestCaseBlocks:
    def test_partition_covers_range_contiguously(self):
        for n in (1, 2, 5, 7, 16):
            for jobs in (1, 2, 3, 4, 8, 32):
                blocks = case_blocks(n, jobs)
                assert len(blocks) == min(jobs, n)
                assert blocks[0][0] == 0 and blocks[-1][1] == n
                for (a0, a1), (b0, b1) in zip(blocks, blocks[1:]):
                    assert a1 == b0
                    assert a1 > a0 and b1 > b0

    def test_balanced_within_one(self):
        sizes = [b - a for a, b in case_blocks(10, 3)]
        assert max(sizes) - min(sizes) <= 1


class TestSerialParallelEquivalence:
    @pytest.mark.parametrize("chips", [60, 200])
    @pytest.mark.parametrize("seed", [1, 7])
    def test_synth_matrix(self, chips, seed):
        circuit = synth_with_cases(chips, seed)
        serial = assert_matches_reference(circuit, verify_parallel(circuit, jobs=2))
        assert serial.ok  # the generator's designs verify clean

    def test_failing_design_violations_in_case_order(self):
        circuit = failing_multicase()
        par = verify_parallel(circuit, jobs=3)
        serial = assert_matches_reference(circuit, par)
        assert serial.violations  # exercised the merge with real content
        assert [v.case_index for v in par.violations] == sorted(
            v.case_index for v in par.violations
        )

    def test_more_jobs_than_cases(self):
        circuit = synth_with_cases(60, 3, n_cases=2)
        assert_matches_reference(circuit, verify_parallel(circuit, jobs=8))

    def test_pool_sized_by_case_blocks(self):
        """Two cases make two blocks: eight jobs fork two workers, not
        eight (a worker with no block would idle yet take every edit)."""
        circuit = synth_with_cases(60, 3, n_cases=2)
        sess = Session(circuit, jobs=8)
        try:
            par = sess.verify()
            assert par.pool.workers == 2
            assert_matches_reference(circuit, par)
        finally:
            sess.close()

    def test_single_case_partitions_the_circuit(self):
        """A single case is no longer split over workers: it is one fixed
        point with no case axis to shard, so at any ``jobs`` the session
        is the serial one — no pool, no fork — and an edit re-verifies
        incrementally."""
        circuit, _ = generate(SynthConfig(chips=60, stage_chips=30)).circuit()
        par = verify_parallel(circuit, jobs=4)
        assert_matches_reference(circuit, par)
        assert par.pool is None  # the serial verifier ran

        single, _ = generate(SynthConfig(chips=200, seed=7)).circuit()
        par = verify_parallel(single, jobs=4)
        assert_matches_reference(single, par)
        assert par.pool is None

        with oracle.Pooled(single) as pooled:
            pooled.verify()
            got = pooled.step(WireDelayEdit("ALU CTL .S0-8", (0.0, 3.0)))
        assert got.incremental and got.result.pool is None
        assert got.result.stats.incremental_runs == 1

    def test_single_case_too_small_to_partition_runs_serial(self):
        circuit = fig_2_5_register_file()
        par = verify_parallel(circuit, jobs=4)
        assert_matches_reference(circuit, par)
        assert par.pool is None  # the serial verifier ran

    def test_parallel_records_cpu_phase_times(self):
        circuit = synth_with_cases(60, 1, n_cases=4)
        par = verify_parallel(circuit, jobs=2)
        assert par.phases_cpu is not None
        assert par.phases_cpu.total >= 0.0
        assert par.stats.events_by_case and len(par.stats.events_by_case) == 4


class TestWarmPool:
    """One Session, one pool: forked once, byte-identical across reuse."""

    @pytest.mark.parametrize("chips", [60, 200])
    @pytest.mark.parametrize("seed", [1, 7])
    def test_two_runs_and_an_edit_on_one_pool(self, chips, seed):
        """The warm-reuse matrix: verify, verify again, then
        edit→reverify — all on the same workers, all equal to serial."""
        edit = WireDelayEdit("MUX CTL .S0-8", (0.0, 2.0))
        with oracle.Pooled(synth_with_cases(chips, seed)) as pooled:
            pooled.verify()
            r2 = pooled.verify()
            assert r2.pool.pool_starts == 1  # same workers, not a refork
            assert r2.pool.runs == 2
            assert r2.pool.warm_runs >= 1  # run 2 restarted incrementally

            inc = pooled.step(edit)
            assert inc.incremental
            assert inc.result.pool.edits_shipped == 1
            assert inc.result.pool.pool_starts == 1
            assert inc.result.pool.runs == 3

    def test_rejected_batch_still_ships_its_applied_edits(self):
        """A batch whose second edit raises keeps the first in the parent
        circuit; the workers must get it too, or the pool verifies a
        stale circuit and reports clean."""
        good = WireDelayEdit("ALU EN .P4.5-6", (0.0, 30.0))
        bad = WireDelayEdit("NO SUCH NET", (0.0, 1.0))
        with oracle.Pooled(synth_with_cases(60, 1, n_cases=4)) as pooled:
            pooled.verify()
            with pytest.raises(NetlistError):
                pooled.session.edit(good, bad)
            assert len(pooled.verify().violations) == 16

    def test_digest_transfer_dedups_waveforms(self):
        sess = Session(synth_with_cases(60, 1), jobs=2)
        try:
            r1 = sess.verify()
            for case in r1.cases:
                case.waveforms.items()  # force every snapshot fetch
            r2 = sess.verify()
            for case in r2.cases:
                case.waveforms.items()
            pool = sess._pool.stats
            # Run 2 converged to the same values, so virtually everything
            # crosses as a bare integer reference the second time.
            assert pool.waveform_refs > pool.waveforms_shipped
            assert pool.snapshots_fetched == 10
        finally:
            sess.close()


class TestConstrainedParallel:
    """SDC constraints must reach the pool's workers (regression: the old
    section pool silently verified *unconstrained* under jobs > 1)."""

    def _multicycle(self, n_cases: int = 4):
        circuit = MacroExpander.from_file(
            str(DESIGNS / "multicycle.scald")
        ).expand()
        constraints = load_constraints(
            str(DESIGNS / "multicycle.sdc"), circuit
        )
        for k in range(n_cases):
            circuit.add_case_by_name({"DIN .S0-6": k % 2})
        return circuit, constraints

    def test_constrained_case_run_matches_serial(self):
        circuit, constraints = self._multicycle()
        par = verify_parallel(circuit, jobs=2, constraints=constraints)
        serial = assert_matches_reference(circuit, par, constraints)
        # The regression has teeth: without the constraints the verdict
        # flips, so a pool that dropped them could not pass this test.
        bare, _ = self._multicycle()
        assert serial.ok and not verify_parallel(bare, jobs=2).ok
        # An input-delay port under case analysis: each worker starts its
        # block fresh, and the serial run reaches case 1 by a case switch
        # (tests/fixtures/cased_port.scald derives the setup miss).
        path = "tests/fixtures/cased_port"
        circuit = MacroExpander.from_file(f"{path}.scald").expand()
        constraints = load_constraints(f"{path}.sdc", circuit)
        par = verify_parallel(circuit, jobs=2, constraints=constraints)
        serial = assert_matches_reference(circuit, par, constraints)
        assert [
            (v.component, v.kind.value, v.missed_by_ps, v.case_index)
            for v in serial.violations
        ] == [("su", "setup", 1500, 1)]

    def test_constrained_sections_match_serial(self):
        """Each section verifies under its own constraint set."""
        circuit, constraints = self._multicycle(n_cases=0)
        sections = {"mc": circuit, "rf": fig_2_5_register_file()}
        serial = verify_sections(sections, constraints={"mc": constraints})
        # Teeth: the unconstrained run reports violations in "mc".
        bare = verify_sections(sections)
        assert not bare.sections["mc"].ok and serial.sections["mc"].ok


class TestWorkerCrash:
    def test_pool_worker_death_reports_the_block(self):
        sess = Session(synth_with_cases(60, 1), jobs=2)
        try:
            first = sess.verify()
            for case in first.cases:
                case.waveforms.items()  # drain before the murder below
            os.kill(sess._pool._procs[1].pid, signal.SIGKILL)
            with pytest.raises(WorkerCrash) as excinfo:
                sess.verify()
            assert "worker died" in str(excinfo.value)
            # The next run transparently reforks the pool.
            recovered = sess.verify()
            assert recovered.ok
            assert recovered.pool.pool_starts == 2
        finally:
            sess.close()


class TestStatsMerge:
    def test_counters_summed_and_cases_concatenated(self):
        a = EngineStats(events=3, evaluations=5, events_by_case=[3],
                        intern_hits=1, memo_hits=2, prepared_misses=4,
                        levelize_seconds=0.5, max_rank=7)
        b = EngineStats(events=2, evaluations=1, events_by_case=[1, 1],
                        intern_misses=6, memo_misses=3, prepared_hits=2,
                        levelize_seconds=0.2, max_rank=9)
        m = EngineStats.merged([a, b])
        assert m.events == 5 and m.evaluations == 6
        assert m.events_by_case == [3, 1, 1]
        assert (m.intern_hits, m.intern_misses) == (1, 6)
        assert (m.memo_hits, m.memo_misses) == (2, 3)
        assert (m.prepared_hits, m.prepared_misses) == (2, 4)
        assert m.levelize_seconds == 0.5  # wall: max-reduced
        assert m.max_rank == 9

    def test_merge_of_nothing_is_zero(self):
        m = EngineStats.merged([])
        assert m.events == 0 and m.events_by_case == []


class TestResultPickling:
    """The tentpole's enabling layer: results must survive a process hop."""

    def test_verification_result_round_trip(self):
        result = TimingVerifier(fig_2_5_register_file()).verify()
        restored = pickle.loads(pickle.dumps(result))
        assert restored.error_listing() == result.error_listing()
        assert restored.summary_listing() == result.summary_listing()
        assert restored.cases[0].waveforms == result.cases[0].waveforms

    def test_circuit_round_trip_preserves_alias_topology(self):
        circuit = fig_2_6_case_analysis()
        restored = pickle.loads(pickle.dumps(circuit))
        # Same representative structure: verification agrees exactly.
        a = TimingVerifier(circuit).verify()
        b = TimingVerifier(restored).verify()
        assert a.error_listing() == b.error_listing()
        assert len(restored.representatives()) == len(circuit.representatives())
