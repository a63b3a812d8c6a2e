"""Kernel-equivalence fixtures: coarse grids and small mapped designs."""

from __future__ import annotations

import pytest

from repro.characterization.grids import GridConfig
from repro.netlist.builder import NetlistBuilder
from tests.sta.conftest import bind_all


@pytest.fixture(scope="session")
def coarse_grid():
    """The smallest legal LUT grid — makes scalar sweeps affordable."""
    return GridConfig(n_slew=2, n_load=2)


@pytest.fixture()
def chain_netlist(small_specs):
    """clk -> DFF -> INV -> INV -> ND2 -> DFF, plus an output port."""
    builder = NetlistBuilder("chain")
    builder.clock()
    d_in = builder.input("d_in")
    side = builder.input("side")
    q0 = builder.dff(d_in)
    n1 = builder.inv(q0)
    n2 = builder.inv(n1)
    n3 = builder.nand(n2, side)
    builder.dff(n3)
    builder.output("y", n3)
    netlist = builder.netlist
    netlist.validate()
    return bind_all(netlist, small_specs)


@pytest.fixture()
def adder_netlist(small_specs):
    """Registered 8-bit ripple adder (deep carry chain, wide levels)."""
    builder = NetlistBuilder("regadd")
    builder.clock()
    a = builder.input_bus("a", 8)
    b = builder.input_bus("b", 8)
    a_reg = builder.register(a)
    b_reg = builder.register(b)
    total, carry = builder.ripple_adder(a_reg, b_reg)
    builder.register(total + [carry])
    builder.output("co", carry)
    netlist = builder.netlist
    netlist.validate()
    return bind_all(netlist, small_specs)
