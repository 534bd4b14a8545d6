"""Recognition certificates.

A certificate is positive evidence (orders, zero labeling, intervals) or a
negative witness.  Yes-certificates are only ever constructed after the
corresponding verify operation has passed, so a reported representation can
be rechecked independently by the caller.

Negative witnesses are one of:
  * odd-cycle: an odd cycle of couples over zero positions,
  * exhausted: positive marker that a complete search found nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .matrices import LabeledMatrix

KIND_INTERVAL = "interval"
KIND_INTERVAL_BIGRAPH = "interval-bigraph"
KIND_PROBE_CHAR1 = "probe-interval-char1"
KIND_PROBE_CHAR2 = "probe-interval-char2"
KIND_QXL = "quasi-x-linear"
KIND_FERRERS_DIM = "ferrers-dim"

ROUTE_QXL = "qxl"
ROUTE_CHAR1 = "char1"
ROUTE_CHAR2 = "char2"


class VerificationError(AssertionError):
    """A yes-answer failed the check it must pass before it is returned.

    Raised explicitly, so the check holds under `python -O` as well.
    """


def exhausted_witness() -> dict:
    return {"type": "exhausted"}


def odd_cycle_witness(positions: list) -> dict:
    return {"type": "odd-cycle", "positions": list(positions)}


@dataclass(frozen=True)
class Certificate:
    """Verdict plus checkable evidence for one recognition question."""

    verdict: bool
    kind: str
    order: Optional[tuple] = None          # symmetric vertex order
    row_order: Optional[tuple] = None      # bigraph row order
    col_order: Optional[tuple] = None      # bigraph column order
    labeling: Optional[LabeledMatrix] = None  # R-C labeled matrix in order
    intervals: Optional[dict] = None       # vertex -> (l, r)
    row_intervals: Optional[dict] = None   # bigraph row vertex -> (l, r)
    col_intervals: Optional[dict] = None   # bigraph column vertex -> (l, r)
    witness: Optional[dict] = None         # negative evidence
    method: Optional[str] = None           # diagonalization used: "interleave"
    coloring: Optional[dict] = None        # zero position -> "R"/"C"
    diagonalized: Optional[LabeledMatrix] = None
    factorization: Optional[object] = None  # FerrersFactorization


@dataclass(frozen=True)
class ProbeCertificate(Certificate):
    """Certificate for probe interval recognition; records the route taken."""

    route: Optional[str] = None
    nonprobes: tuple = field(default=())
