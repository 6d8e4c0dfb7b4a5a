"""Bit-blasting: expand vector primitives into per-bit scalar primitives.

This is the representation the thesis says would have taken 53 833 instead
of 8 282 primitives for the S-1 design (Table 3-2): every width-*w*
primitive becomes *w* width-1 primitives over per-bit nets named
``"NAME [i]"``, with scalar nets (clocks, selects, controls) shared by all
bit slices.

The transform checks the word-level engine: the per-bit circuit carries
no vector symmetry at all, so verifying it with the ordinary scalar
engine gives an independent per-bit answer that the word-level path must
reproduce exactly (the bit-blast mode of ``repro.oracle``).  It doubles
as the ``--bit-blast`` CLI mode and the ablation benchmark's "what if we
had no vectors" arm.
"""

from __future__ import annotations

from .circuit import Circuit, Component, Connection, Net, parse_lane_ref


def _bit_net(target: Circuit, source_net: Net, bit: int, width: int) -> Net:
    """The per-bit clone of a (possibly vector) net.

    Scalar nets (clocks, selects, controls) are shared by every bit slice;
    vector nets get one clone per bit, keeping the original's assertion and
    wire delay.  The bit suffix is attached outside the assertion-bearing
    name, so the assertion object is copied explicitly rather than
    re-parsed.
    """
    if source_net.width == 1:
        clone = target.nets.get(source_net.name)
        if clone is None:
            clone = Net(
                name=source_net.name,
                width=1,
                base_name=source_net.base_name,
                assertion=source_net.assertion,
                wire_delay_ps=source_net.wire_delay_ps,
            )
            target.nets[clone.name] = clone
        return clone
    index = bit % source_net.width
    name = f"{source_net.name} [{index}]"
    clone = target.nets.get(name)
    if clone is None:
        clone = Net(
            name=name,
            width=1,
            base_name=f"{source_net.base_name} [{index}]",
            assertion=source_net.assertion,
            wire_delay_ps=source_net.wire_delay_ps,
        )
        target.nets[name] = clone
    return clone


def blast_width(circuit: Circuit, comp: Component) -> int:
    """How many scalar clones bit-blasting makes of ``comp``.

    Normally ``comp.width``.  A narrow driver on a wider output net is
    cloned out to the net's full width: the vector engine broadcasts
    ``lane i <- output[i % comp.width]`` across the whole word, so the
    per-bit circuit needs a driver copy for every lane it reaches.
    """
    width = comp.width
    for _pin, conn in comp.output_pins():
        width = max(width, circuit.find(conn.net).width)
    return width


def bit_blast(circuit: Circuit) -> Circuit:
    """Expand every vector primitive into per-bit scalar primitives.

    The result is semantically the design the thesis says would have taken
    53 833 primitives: same timing behaviour per bit, no vector symmetry.
    """
    blasted = Circuit(
        f"{circuit.name}-bitblasted",
        period_ns=circuit.timebase.period_ns,
        clock_unit_ns=circuit.timebase.clock_unit_ns,
    )
    for comp in circuit.iter_components():
        width = comp.width
        clones = blast_width(circuit, comp)
        out_pins = {pin for pin, _conn in comp.output_pins()}
        for bit in range(clones):
            pins: dict[str, Connection] = {}
            for pin, conn in comp.pins.items():
                # Broadcast clones past ``width`` replicate clone
                # ``bit % width``'s inputs while driving output lane
                # ``bit`` — exactly ``lane_out[lane % n]`` in the engine.
                src = bit if pin in out_pins else bit % width
                net = _bit_net(blasted, circuit.find(conn.net), src, width)
                pins[pin] = Connection(
                    net=net,
                    invert=conn.invert,
                    directives=conn.directives,
                    wire_delay_ps=conn.wire_delay_ps,
                )
            name = comp.name if clones == 1 else f"{comp.name} [{bit}]"
            params = dict(comp.params)
            params["width"] = 1
            blasted.components[name] = Component(
                name=name, prim=comp.prim, pins=pins, params=params
            )
    for case in circuit.cases:
        # Two passes so a per-lane key ("NAME [3]") always overrides a
        # whole-net key ("NAME") regardless of dict order — the same
        # precedence the word-level engine gives lane cases.
        mapped: dict[str, int] = {}
        lane_keys: dict[str, int] = {}
        for name, value in case.items():
            source = circuit.nets.get(name)
            if source is not None and source.width > 1:
                for bit in range(source.width):
                    mapped[f"{name} [{bit}]"] = value
                continue
            if source is None and parse_lane_ref(circuit, name) is not None:
                lane_keys[name] = value
                continue
            mapped[name] = value
        mapped.update(lane_keys)
        blasted.cases.append(mapped)
    return blasted
