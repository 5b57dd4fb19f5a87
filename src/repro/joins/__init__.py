"""Local join algorithms.

Online local joins process one incoming tuple at a time: the tuple is
joined with the stored tuples of the other relations (producing a result
delta) and stored for use by future tuples.

- :class:`~repro.joins.traditional.TraditionalJoin` builds hash indexes
  for equi-join attributes and ordered indexes for band/inequality
  attributes, and *recomputes* the (n-1)-way join for every new tuple.
- :class:`~repro.joins.dbtoaster.DBToasterJoin` (higher-order incremental
  view maintenance) additionally materialises every connected 2-way ...
  (n-1)-way intermediate join, so each new tuple needs a single probe into
  the corresponding (n-1)-way view.

A plan's :class:`~repro.engine.component.JoinComponent` runs one instance
per machine of a hypercube partitioning scheme -- the paper's HyLD
operator.
"""

from repro.joins.base import JoinSchema, LocalJoin
from repro.joins.traditional import TraditionalJoin
from repro.joins.dbtoaster import DBToasterJoin

__all__ = [
    "JoinSchema",
    "LocalJoin",
    "TraditionalJoin",
    "DBToasterJoin",
]
