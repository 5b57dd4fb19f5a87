"""Bottleneck cost model: measured counters -> modelled runtimes.

A ``run_plan`` result carries exactly what the paper argues predicts
performance (section 7.3): per-machine loads, total network transfers and
local-join work.  The cost model prices those counters with constants
calibrated once against the paper's own Figure 5 decomposition (read 26%,
network 60%, join CPU 14% of a full-join run; +1.6% for an integer
selection, +16% for a date selection).
"""

from repro.costmodel.model import CostBreakdown, CostModel
from repro.costmodel.calibration import CostConstants, DEFAULT_CONSTANTS

__all__ = ["CostBreakdown", "CostModel", "CostConstants", "DEFAULT_CONSTANTS"]
