"""The benchmark's inputs: SCALD designs and edit cycles made from a seed.

Every design comes from ``repro.workloads.synth.generate``; the program
only ever sees the SCALD text.  Answers are checked against references
recorded once (``record_refs.py``) for a fixed pool of seeds, so the
run's ``--seed`` picks inputs from that pool: the same seed always gives
the same inputs, and every input has a stored reference.

The seed must not change what an op costs, or the spread of a metric over
runs with different seeds measures the inputs and not the program.
Engine evaluations, counted per design of the pool:

- fmax-250: the same for every design, 27,857 per edit cycle.
- oneshot-1k: 2,000 to 2,840 per from-scratch verify; averaged over the
  three designs a run rotates through, the interquartile range over the
  pool's seeds is 7% of the median, and the engine is about a third of
  an op.
- serve-edit-1k: 13,900 to 26,300 per edit cycle, set by the design (its
  four cases re-bind the primaries on every reverify) and not by which
  registers are edited; a run's median op time followed it.  So every
  seed serves one design, and the seed picks the registers of the edit
  cycle.

Edit cycles are lists of scald-serve edit documents (the JSON wire
format of ``repro.incremental.edit_from_doc``).  Each cycle undoes its
own edits, so after a whole cycle the design is back in its start state
and position ``i`` of the cycle always sees the same design state.
"""

from __future__ import annotations

import random
import re

from repro.workloads.synth import SynthConfig, generate

#: Seeds with stored references; ``--seed`` maps onto this pool.
POOL = 16
#: The one design seed of serve-edit-1k (see the module docstring).
SERVE_DESIGN = 1
#: Chips per pipeline stage: 1000 chips make three stages (S0, S1, S2).
STAGE_CHIPS = 400
#: Cases of the oneshot and serve designs, each re-binding the primaries.
CASES = 4

_REG = re.compile(
    r'use "REG(?: RS)? 100141" (c\d+) \(I="(S(\d+) CORR \d+)"'
    r'[^;]*Q="(S\d+ R \d+)"'
)


def design_seeds(seed: int, count: int) -> list[int]:
    """``count`` distinct pool seeds for run seed ``seed``."""
    return [1 + (seed * count + j) % POOL for j in range(count)]


def case_lines() -> str:
    """Four ``case`` statements over the ``PRIMARY i`` inputs.

    Each case re-binds the primary inputs, so every case's cone spans the
    whole pipeline (the same case set as the parallel benchmark's).
    """
    lines = []
    for k in range(CASES):
        binds = ", ".join(
            f'"PRIMARY {i} .S0-6" = {(k >> (i % 3)) % 2}' for i in range(8)
        )
        lines.append(f"case {binds};\n")
    return "".join(lines)


def design_source(chips: int, dseed: int, cases: bool) -> str:
    """The SCALD text of one synthetic design."""
    design = generate(
        SynthConfig(chips=chips, stage_chips=STAGE_CHIPS, seed=dseed)
    )
    return design.source + (case_lines() if cases else "")


def _registers(source: str) -> list[tuple[str, str, int, str]]:
    """(instance, data net, stage, output net) of every pipeline register."""
    return [
        (inst, corr, int(stage), q)
        for inst, corr, stage, q in _REG.findall(source)
    ]


def _wire(net: str, delay_ns: tuple[float, float] | None) -> dict:
    return {
        "kind": "wire_delay",
        "net": net,
        "delay_ns": list(delay_ns) if delay_ns is not None else None,
    }


def _param(component: str, delay_ns: tuple[float, float]) -> dict:
    return {"kind": "param", "component": component,
            "params": {"delay": list(delay_ns)}}


def _corr_component(corr_net: str) -> str:
    """The DELAY primitive of the CORR macro that drives ``corr_net``."""
    return f"corr{corr_net.rsplit(' ', 1)[1]}/d"


def serve_cycle(source: str, cseed: int) -> list[dict]:
    """Twelve edits at three pipeline depths; each edit is then undone.

    Wire-delay and delay-parameter edits on register outputs, register
    data inputs and register clock-to-output delays, on registers that
    ``cseed`` picks.  The large ones break setup at the next stage's
    registers, the small ones do not, so the cycle mixes clean and
    violating verdicts and small and large dirty cones.
    """
    rng = random.Random(f"serve-{cseed}")
    regs = _registers(source)

    def pick(stage: int):
        return rng.choice([r for r in regs if r[2] == stage])

    s0, s1a, s1b, s2 = pick(0), pick(1), pick(1), pick(2)
    s0b = pick(0)
    pairs = [
        (_wire(s0[3], (0.0, 20.0)), _wire(s0[3], None)),
        (_param(f"{s1a[0]}/r", (1.5, 24.0)), _param(f"{s1a[0]}/r", (1.5, 4.5))),
        (_wire(s1b[1], (0.0, 1.0)), _wire(s1b[1], None)),
        (_param(_corr_component(s0b[1]), (2.5, 3.5)),
         _param(_corr_component(s0b[1]), (2.5, 2.5))),
        (_wire(s2[3], (0.0, 6.0)), _wire(s2[3], None)),
        (_wire(s1b[3], (0.0, 20.0)), _wire(s1b[3], None)),
    ]
    return [doc for pair in pairs for doc in pair]


def fmax_cycle(source: str, dseed: int) -> list[dict]:
    """Three edits that hand the binding Fmax check to another path.

    Extra delay on one register's data input, by a wire delay or by its
    CORR delay, makes that register's setup check the one that limits
    the clock period.  Each edit is undone at the next position, so every
    other state is the design as generated.  The delays are sized so that
    every query costs about the same number of engine runs (14 to 16).
    """
    rng = random.Random(f"fmax-{dseed}")
    a, b, c = rng.sample([r for r in _registers(source) if r[2] == 0], 3)
    corr_b = _corr_component(b[1])
    return [
        _wire(a[1], (0.0, 5.0)),
        _wire(a[1], None),
        _param(corr_b, (2.5, 6.0)),
        _param(corr_b, (2.5, 2.5)),
        _wire(c[1], (0.0, 6.0)),
        _wire(c[1], None),
    ]
