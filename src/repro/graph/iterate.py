"""Fixpoint-iteration utilities for DataFrame loops.

Iterative graph algorithms (SCC coloring, transitive closure, automaton
traversal) re-join a delta DataFrame against a static edge relation
until the delta is empty. Two things make this production-safe on
Spark:

- ``materialize``: ``localCheckpoint(eager=True)`` truncates the
  lineage each round (otherwise the plan grows exponentially and the
  optimizer/stack dies after ~20 rounds) and forces computation, which
  also gives honest phase timings.
- ``FixpointGuard``: a hard round cap (``MAX_ROUNDS``) that raises
  instead of spinning forever if an algorithm bug breaks monotonicity.

The semi-naive loop itself is ``repro.graph.closure.semi_naive``.
"""
from __future__ import annotations

from pyspark.sql import DataFrame

MAX_ROUNDS = 10_000


def materialize(df: DataFrame) -> DataFrame:
    """Eagerly compute ``df`` and truncate its lineage."""
    return df.localCheckpoint(eager=True)


class FixpointGuard:
    """Raises after ``MAX_ROUNDS`` rounds; tracks rounds for diagnostics."""

    def __init__(self, what: str):
        self.what = what
        self.rounds = 0

    def tick(self) -> None:
        self.rounds += 1
        if self.rounds > MAX_ROUNDS:
            raise RuntimeError(
                f"{self.what}: no fixpoint after {MAX_ROUNDS} rounds "
                "(non-monotone iteration?)"
            )
