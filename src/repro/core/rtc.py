"""Compute_RTC (Algorithm 1 lines 10–11): the reduced transitive closure.

Given ``R_G`` (the edge set of the edge-level reduced graph ``G_R``),
compute the SCC assignment of ``G_R``, condense it to ``Ḡ_R``, and take
the transitive closure of ``Ḡ_R`` — the RTC of Section III-C. Both
pieces are returned because EvalBatchUnit joins through the SCC
relation on both sides of the RTC (Theorem 2).
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graph.closure import transitive_closure
from repro.graph.condense import condense
from repro.graph.iterate import materialize
from repro.graph.scc import strongly_connected_components


@dataclass
class RTC:
    """The shared structure of RTCSharing for one sub-query R.

    - ``rtc``: ``(start_s, end_s)`` — ``TC(Ḡ_R)``, ≥1-step semantics.
    - ``scc``: ``(v, s)`` — the SCC relation of ``G_R`` (Section IV-B).
    """

    rtc: DataFrame
    scc: DataFrame

    def n_pairs(self) -> int:
        """Shared-data size: |RTC| (the paper's Fig. 11 metric)."""
        return self.rtc.count()


def compute_rtc(r_g: DataFrame) -> RTC:
    """Build the RTC from ``R_G`` pairs ``(start_v, end_v)``.

    ``R_G`` is exactly ``E_R`` (every pair becomes one unlabeled edge);
    vertices of ``G_R`` are only those incident to such an edge, so no
    extra vertex set is needed.
    """
    edges = r_g.select(
        F.col("start_v").alias("src"), F.col("end_v").alias("dst")
    )
    scc = strongly_connected_components(edges)
    reduced = condense(edges, scc)
    tc = transitive_closure(reduced)
    rtc = materialize(
        tc.select(
            F.col("src").alias("start_s"), F.col("dst").alias("end_s")
        )
    )
    # ``scc`` comes back already materialized from the SCC algorithm.
    return RTC(rtc=rtc, scc=scc)
