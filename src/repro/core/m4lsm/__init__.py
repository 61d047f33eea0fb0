"""M4-LSM: the paper's chunk-merge-free M4 operator.

:mod:`.operator` runs a query: read metadata, sweep, solve.
:mod:`.lazyload` holds the sweep and Algorithm 1's rounds over the
members' columns; :mod:`.tracing` the per-span EXPLAIN record.
"""

from .lazyload import SpanMembers, SpanRounds
from .operator import M4LSMOperator
from .tracing import EMPTY, FUSED, SOLVER, QueryTrace, SpanTrace

__all__ = [
    "EMPTY",
    "FUSED",
    "M4LSMOperator",
    "QueryTrace",
    "SOLVER",
    "SpanMembers",
    "SpanRounds",
    "SpanTrace",
]
