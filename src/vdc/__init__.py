"""vdc: a single-node virtual data centre for heterogeneous scholarly data.

Two virtualization surfaces over the same registered sources: a mediated,
SQL-like federated query engine and a full-text index with virtual
collections, under per-source trust modes (vault / live / index-only).
"""

from .model import (
    ColumnDescriptor,
    ColumnKind,
    ItemRef,
    TableSchema,
    UncertainDate,
    date_gap_days,
    date_near,
    date_within,
    format_uncertain_date,
    parse_uncertain_date,
)

__all__ = [
    "ColumnDescriptor",
    "ColumnKind",
    "ItemRef",
    "TableSchema",
    "UncertainDate",
    "date_gap_days",
    "date_near",
    "date_within",
    "format_uncertain_date",
    "parse_uncertain_date",
]

__version__ = "0.1.0"
