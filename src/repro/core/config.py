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
    #: Rank components by combinational depth (registers, latches and
    #: assertion-fixed nets break cycles) and drain the worklist in rank
    #: order, so a primitive is evaluated only after its fan-in has settled
    #: at the current wave.  Order never affects the fixed point, only how
    #: many redundant evaluations it takes to reach it.
    levelized_scheduling: bool = True
    #: Hash-cons waveforms through a weak-value intern table so equal
    #: values share one instance (identity-fast convergence comparison and
    #: shared caches of derived forms).
    intern_waveforms: bool = True
    #: Memoize primitive evaluation: prepared inputs per connection and an
    #: LRU over the gate/register/latch/mux models keyed on everything that
    #: can affect their output.
    memoize_evaluation: bool = True

    def naive(self) -> "VerifyConfig":
        """This configuration with every engine optimisation disabled.

        The naive FIFO engine is the reference oracle: the differential
        tests require the optimized engine to produce ``==``-identical
        results to this variant on every workload.
        """
        return replace(
            self,
            levelized_scheduling=False,
            intern_waveforms=False,
            memoize_evaluation=False,
        )

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
