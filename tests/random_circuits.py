"""Random netlists shared by the property tests."""

import numpy as np

from mvadder._kernel import compile_circuit, settle_batch
from mvadder.gates import KIND_SPECS, KINDS, CellLibrary
from mvadder.levels import Level as L, binary_full, quaternary
from mvadder.netlist import _Builder

INPUTS = {"I0": 2, "I1": 2, "I2": 4}  # input port -> radix


def random_circuit(rng, n_gates=24, vdd=0.9, vectors=None):
    """Random acyclic netlist over every gate kind with constant nets
    mixed in, its instances listed in random order. Some inputs get the
    other radix, which validate accepts since no pin encoding is pinned,
    except where that would give a mux data wider than its output.

    Without ``vectors`` it has no output ports, so X nets never stop
    simulate. ``vectors`` holds rows of levels on the :data:`INPUTS`, in
    their order; each gate output that settle_batch resolves at every row
    then becomes an output port ``O_<net>``."""
    enc = {2: binary_full(vdd), 4: quaternary(vdd)}
    b = _Builder("random", CellLibrary.default())
    nets = {2: [b.port("I0", "in", enc[2]), b.port("I1", "in", enc[2]),
                b.const("k0", L.L0, enc[2]), b.const("k1", L.L1, enc[2])],
            4: [b.port("I2", "in", enc[4]), b.const("k2", L(int(rng.integers(4))), enc[4])]}
    gate_nets = []
    for g in range(n_gates):
        kind = str(rng.choice(KINDS))
        r = int(rng.choice([2, 4]))  # data radix of mux and buf
        free = kind.startswith(("mux", "buf"))
        out_r = 4 if kind.startswith("succ") else r if free else 2
        pins = {}
        for pin in KIND_SPECS[kind].inputs:
            if pin == "sel":
                radix = 4 if kind == "mux4" else 2
            else:
                radix = 4 if kind.startswith(("det", "succ")) else r if free else 2
            if rng.random() < 0.15 and not (kind.startswith("mux") and pin != "sel"
                                            and 6 - radix > out_r):
                radix = 6 - radix
            pins[pin] = nets[radix][rng.integers(len(nets[radix]))]
        for pin in KIND_SPECS[kind].outputs:
            pins[pin] = b.net(f"g{g}_{pin}", enc[out_r])
            nets[out_r].append(pins[pin])
            gate_nets.append(pins[pin])
        b.inst(f"g{g}", kind, vdd, enc[out_r], pins)
    order = list(b.instances)
    rng.shuffle(order)
    b.instances = {i: b.instances[i] for i in order}
    c = b.finalize(vdd=vdd)
    if vectors is None:
        return c
    comp = compile_circuit(c)
    index = [comp.net_index[n] for n in gate_nets]
    in_nets = np.array([comp.in_port_net[p] for p in INPUTS])
    settled = settle_batch(comp, in_nets, np.asarray(vectors, np.int64), np.array(index, np.int64))
    for n, resolved in zip(gate_nets, (settled >= 0).all(axis=0)):
        if resolved:
            b.port(f"O_{n}", "out", c.nets[n].encoding, net=n)
    return b.finalize(vdd=vdd)
