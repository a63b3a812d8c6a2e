"""Power model: switching energy and leakage of catalog cells.

The paper's library files "also contain information about the power
consumption of the cell" (Sec. II) and its local-variation metric
"can also be adjusted to measure the influence of local variation on
other properties, such as transition power" (Sec. III).  This module
provides that other property:

* **switching energy** per output transition (pJ), NLDM-style over the
  same slew x load grid as delay::

      E = 0.5 * (C_load + C_par + C_internal) * vdd^2      (capacitive)
        + k_sc * slew * W_drive * (vdd - vth - dvth)^alpha (short-circuit)

  The short-circuit term carries the vth dependence, so Monte-Carlo
  sampling yields per-entry energy sigmas exactly like delay sigmas —
  the input the power-targeted tuning variant consumes.

* **leakage** (uW) with its exponential vth sensitivity,
  ``I = i0 * W * exp(-(vth + dvth) / v_slope)`` — under vth mismatch
  the leakage of a die follows a log-normal law, reproduced by
  :func:`leakage_statistics`.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.cells.catalog import CellSpec
from repro.characterization.devices import CellElectricalView
from repro.errors import CharacterizationError
from repro.variation.process import TechnologyParams

ArrayLike = Union[float, np.ndarray]


class PowerModel:
    """Evaluates per-arc switching energy and cell leakage."""

    def __init__(self, tech: Optional[TechnologyParams] = None):
        self.tech = tech or TechnologyParams()

    def arc_energy(
        self,
        spec: CellSpec,
        output_pin: str,
        rise: bool,
        slews: np.ndarray,
        loads: np.ndarray,
        dvth: ArrayLike = 0.0,
        dbeta: ArrayLike = 0.0,
    ) -> np.ndarray:
        """Energy of one output transition (pJ), broadcast like delay."""
        tech = self.tech
        view = CellElectricalView(spec, tech)
        drive = spec.drive(output_pin)
        slews = np.asarray(slews, dtype=float)
        loads = np.asarray(loads, dtype=float)
        if np.any(slews < 0) or np.any(loads < 0):
            raise CharacterizationError("slew and load must be non-negative")

        width = view.device_width(drive, rise)
        c_internal = tech.c_internal * width * (1.0 + drive.intrinsic_stages)
        capacitive = 0.5 * (loads + view.parasitic_cap(drive) + c_internal) * tech.vdd**2

        headroom = tech.vdd - (tech.vth + np.asarray(dvth, dtype=float))
        if np.any(headroom <= 0.05):
            raise CharacterizationError("threshold variation leaves no overdrive")
        overdrive = np.power(headroom, tech.alpha)
        short_circuit = (
            tech.k_shortcircuit
            * slews
            * width
            * overdrive
            * (1.0 + np.asarray(dbeta, dtype=float))
        )
        return np.asarray(capacitive + short_circuit)

    def cell_leakage(self, spec: CellSpec, dvth: ArrayLike = 0.0) -> np.ndarray:
        """Static leakage of the cell (uW), exponential in vth."""
        tech = self.tech
        view = CellElectricalView(spec, tech)
        total_width = 0.0
        for pin_name in spec.function.output_pins:
            drive = spec.drive(pin_name)
            total_width += view.device_width(drive, rise=True)
            total_width += view.device_width(drive, rise=False)
        vth_eff = tech.vth + np.asarray(dvth, dtype=float)
        current = tech.i_leak0 * total_width * np.exp(-vth_eff / tech.v_leak_slope)
        return np.asarray(current * tech.vdd)


def leakage_statistics(
    spec: CellSpec,
    sigma_vth: float,
    n_samples: int = 4000,
    seed: int = 0,
    tech: Optional[TechnologyParams] = None,
) -> Tuple[float, float, float]:
    """Monte-Carlo leakage under vth mismatch: (mean, sigma, skew).

    Leakage is exp(-vth/v_slope), so a normal vth spread produces a
    log-normal leakage distribution — mean above nominal, positive
    skew; the classic reason leakage yield is asymmetric.
    """
    if sigma_vth < 0:
        raise CharacterizationError("sigma_vth must be non-negative")
    model = PowerModel(tech)
    rng = np.random.default_rng(seed)
    samples = model.cell_leakage(spec, dvth=rng.normal(0.0, sigma_vth, n_samples))
    mean = float(samples.mean())
    sigma = float(samples.std(ddof=1))
    centered = samples - mean
    skew = float((centered**3).mean() / (sigma**3)) if sigma > 0 else 0.0
    return mean, sigma, skew
