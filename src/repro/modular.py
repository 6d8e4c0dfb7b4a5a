"""Section-by-section verification (section 2.5.2).

One of the principal features of the approach: a large design is verified
by *modules*, each a logical section with user-specified assertions on every
interface signal.  "If no section of a design being verified has a timing
error and if all of the interface signals of all such sections have
consistent assertions on them, then the entire design must be free of
timing errors."  This is what let the S-1 team verify a design too large
for memory, and let each designer verify their section independently.

Assertions live inside signal names, so consistency means: every section
that references a given base signal name must spell the same assertion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core.config import VerifyConfig
from .core.verifier import TimingVerifier, VerificationResult
from .netlist.circuit import Circuit


@dataclass(frozen=True)
class InterfaceIssue:
    """Inconsistent assertions on one interface signal."""

    base_name: str
    spellings: tuple[tuple[str, str], ...]  # (section, full signal name)

    def __str__(self) -> str:
        variants = ", ".join(f"{sec}: {name!r}" for sec, name in self.spellings)
        return (
            f"interface signal {self.base_name!r} has inconsistent "
            f"assertions across sections ({variants})"
        )


@dataclass
class ModularResult:
    """The outcome of verifying a design in sections."""

    sections: dict[str, VerificationResult] = field(default_factory=dict)
    interface_issues: list[InterfaceIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the *entire design* is known free of timing errors."""
        return not self.interface_issues and all(
            r.ok for r in self.sections.values()
        )

    @property
    def total_violations(self) -> int:
        return sum(len(r.violations) for r in self.sections.values())

    def report(self) -> str:
        lines = ["MODULAR VERIFICATION REPORT", ""]
        for name, result in self.sections.items():
            status = "clean" if result.ok else f"{len(result.violations)} violations"
            lines.append(f"  section {name}: {status}")
        if self.interface_issues:
            lines.append("")
            lines.append("  interface assertion inconsistencies:")
            for issue in self.interface_issues:
                lines.append(f"    {issue}")
        lines.append("")
        lines.append(
            "  whole design verified free of timing errors"
            if self.ok
            else "  whole design NOT verified"
        )
        return "\n".join(lines)


def check_interfaces(sections: dict[str, Circuit]) -> list[InterfaceIssue]:
    """Verify assertion consistency across sections, by base signal name.

    Only signals appearing in more than one section are interface signals;
    each must carry the same assertion text everywhere it appears.
    """
    spellings: dict[str, dict[str, set[str]]] = {}
    for section_name, circuit in sections.items():
        for net in circuit.nets.values():
            spellings.setdefault(net.base_name, {}).setdefault(
                net.name, set()
            ).add(section_name)
    issues: list[InterfaceIssue] = []
    for base, by_fullname in spellings.items():
        if len(by_fullname) <= 1:
            continue
        sections_seen = set().union(*by_fullname.values())
        if len(sections_seen) <= 1:
            continue  # an intra-section naming quirk, not an interface issue
        flat = tuple(
            sorted(
                (section, full)
                for full, secs in by_fullname.items()
                for section in secs
            )
        )
        issues.append(InterfaceIssue(base_name=base, spellings=flat))
    return issues


def verify_sections(
    sections: dict[str, Circuit],
    config: VerifyConfig | None = None,
    constraints=None,
) -> ModularResult:
    """Verify each section independently and check interface consistency.

    ``constraints`` is either a mapping from section name to that
    section's resolved constraint set, or a single set applied to every
    section.
    """
    result = ModularResult()
    for name, circuit in sections.items():
        section_constraints = (
            constraints.get(name)
            if isinstance(constraints, dict)
            else constraints
        )
        result.sections[name] = TimingVerifier(
            circuit, config, constraints=section_constraints
        ).verify()
    result.interface_issues = check_interfaces(sections)
    return result
