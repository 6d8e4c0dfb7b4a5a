"""Verification-run configuration (the design rules of section 3.3).

Defaults reproduce the rules used to examine the S-1 Mark IIA:

* default interconnection delay 0.0/2.0 ns for every signal, unless the
  designer specified a different range for that signal;
* precision clocks (``.P``) skewed +1.0/-1.0 ns from their stated times;
* non-precision clocks (``.C``) skewed +5.0/-5.0 ns.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .timeline import ns_to_ps


@dataclass(frozen=True)
class VerifyConfig:
    """Tunable parameters of a verification run."""

    default_wire_delay_ns: tuple[float, float] = (0.0, 2.0)
    precision_clock_skew_ns: tuple[float, float] = (-1.0, 1.0)
    nonprecision_clock_skew_ns: tuple[float, float] = (-5.0, 5.0)
    #: Fixed-point safety valve: a component re-evaluated more often than
    #: this is reported as oscillating (an unbroken combinational loop).
    max_evals_per_component: int = 200
    #: Check generated signals against their stable assertions
    #: (section 2.5.2); disable to reproduce checker-only runs.
    check_assertions: bool = True
    #: Emit POSSIBLE_GLITCH warnings from the pulse-width checker.
    glitch_warnings: bool = True
    #: The "refined rule for future designs" of section 3.3: extra maximum
    #: interconnection delay per additional load on a run.  Zero reproduces
    #: the thesis's flat default rule; explicit per-net/per-connection wire
    #: delays are never adjusted.
    wire_delay_per_load_ns: float = 0.0
    #: The engine's three optimisations: levelized scheduling (the
    #: worklist drains in combinational-rank order, so a primitive is
    #: evaluated after its fan-in has settled), waveform hash-consing
    #: through the run's intern table, and memoized evaluation (prepared
    #: inputs per connection, an LRU over the gate/register/latch/mux
    #: models, and the checker-verdict memo).  None of them changes the
    #: fixed point, only the work it takes to reach it.  Off is the naive
    #: FIFO engine (:meth:`naive`).
    optimized: bool = True

    def naive(self) -> "VerifyConfig":
        """This configuration with every engine optimisation off.

        The differential tests (``repro.oracle``) require the naive engine
        to give ``==``-identical results to the optimized one on every
        workload.
        """
        return replace(self, optimized=False)

    # The picosecond forms depend only on the (frozen) fields, so each is
    # converted on first use and then read from the instance dict: the
    # engine asks for them once per prepared input.

    @cached_property
    def wire_delay_per_load_ps(self) -> int:
        return ns_to_ps(self.wire_delay_per_load_ns)

    @cached_property
    def default_wire_delay_ps(self) -> tuple[int, int]:
        lo, hi = self.default_wire_delay_ns
        return ns_to_ps(lo), ns_to_ps(hi)

    def clock_skew_ns(self, precision: bool) -> tuple[float, float]:
        return (
            self.precision_clock_skew_ns
            if precision
            else self.nonprecision_clock_skew_ns
        )


#: A configuration with no default wire delay and no clock skew — useful in
#: unit tests and for textbook-exact reproductions of the figure circuits.
EXACT = VerifyConfig(
    default_wire_delay_ns=(0.0, 0.0),
    precision_clock_skew_ns=(0.0, 0.0),
    nonprecision_clock_skew_ns=(0.0, 0.0),
)
