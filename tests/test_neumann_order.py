"""Temporal order on the Neumann (DCT) path, through ``converge``.

Criteria 1-2 fit orders on periodic grids only.  This fits ei1 and ei2 for
the double well on an M=32 Neumann grid against ``converge``'s ei2
reference at tau_ref = 2^-12, with criterion 1's data (``init_sine(0.1)``,
eps = 0.01, kappa the Lipschitz bound, ``ExpSigma(1)``, t = 2), for
tau = 2^-4 ... 2^-7, and holds them to criteria 1-2's bands.  They read
ei1 0.957 and ei2 1.945 when written.
"""

import pytest

from acflow.grid import Grid
from acflow.harness import init_sine
from acflow.potentials import DoubleWell, ExpSigma
from acflow.schemes import SchemeConfig, converge


@pytest.mark.parametrize("scheme, band", [("ei1", (0.85, 1.15)),
                                          ("ei2", (1.85, 2.15))])
def test_double_well_order_on_neumann_grid(scheme, band):
    grid, pot = Grid(32, 1.0, "neumann"), DoubleWell()
    scfg = SchemeConfig(eps=0.01, kappa=pot.lipschitz, potential=pot,
                        sigma=ExpSigma(1.0), scheme=scheme)
    report = converge(grid, scfg, init_sine(grid, 0.1), 2.0,
                      [2.0**-k for k in range(4, 8)], 2.0**-12)
    assert band[0] <= report["slope"] <= band[1]
