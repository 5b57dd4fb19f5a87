"""Cost constants and their calibration story.

The paper's Figure 5 decomposes a Customer >< Orders run (160G, 64
joiners) built up element by element:

- an integer no-op selection costs  ~1.6% of the full execution;
- a date no-op selection costs      ~16%  (Date materialisation from a
  String dominates);
- network transfer takes            ~60%  of the full join;
- the local join computation only   ~14%;
- which leaves reading/parsing at   ~26%.

With reads, selections and network all proportional to the same input
tuple count in that workload, the constants below follow directly (read
cost normalised to 1.0 per tuple):

- ``network_per_tuple  = 0.60 / 0.26         ~ 2.31``
- ``selection_int      = 0.016 / 0.26        ~ 0.06``
- ``selection_date     = 0.16  / 0.26        ~ 0.62``
- ``dbtoaster_per_op``: the 2-way symmetric join performs ~2 abstract ops
  per input tuple, so ``2 * ops * c = (0.14/0.26) * reads`` gives c ~ 0.27.

The traditional local join is priced at 12x DBToaster per abstract
operation: the paper attributes part of DBToaster's order-of-magnitude
win to avoided recomputation (which the engine measures directly as
extra work) and part to constant factors of the generated code vs
interpreted index plumbing -- 'these joins are orders of magnitude
slower than the state-of-the-art online local join, DBToaster' (section
3.3) -- which only a unit-cost ratio can represent.  The 12x ratio is
fitted so the measured-work x unit-cost product lands in the paper's
reported ~10x end-to-end gap on the TPC-H multi-way joins (Figure
8a/8b) and 3-4x on Google TaskCount (Figure 8c), whose join-CPU share
is smaller.

``seconds_per_unit`` scales model units to seconds so outputs read like
the paper's plots; only ratios are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass(frozen=True)
class CostConstants:
    """Per-operation prices, in model units per tuple / abstract op."""

    read_per_tuple: float = 1.0
    selection_int_per_tuple: float = 0.06
    selection_date_per_tuple: float = 0.62
    selection_noop_per_tuple: float = 0.01
    network_per_tuple: float = 2.31
    local_join_per_op: Dict[str, float] = field(
        default_factory=lambda: {"dbtoaster": 0.27, "traditional": 3.24}
    )
    output_per_tuple: float = 0.02
    seconds_per_unit: float = 1.0

    def selection_cost(self, cost_class: str) -> float:
        if cost_class == "date":
            return self.selection_date_per_tuple
        if cost_class == "noop":
            return self.selection_noop_per_tuple
        return self.selection_int_per_tuple

    def join_cost(self, local_join: str) -> float:
        try:
            return self.local_join_per_op[local_join]
        except KeyError:
            raise KeyError(
                f"no calibrated cost for local join {local_join!r}; "
                f"known: {sorted(self.local_join_per_op)}"
            ) from None


DEFAULT_CONSTANTS = CostConstants()
