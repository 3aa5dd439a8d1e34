"""Semi-naive fixpoints and the distributed transitive closure.

``semi_naive`` is the one delta-iteration loop of the code base
(Bancilhon & Ramakrishnan, SIGMOD'86): only the newly discovered rows
(the delta) are stepped each round, and the step's output is
anti-joined against the accumulator so each row is derived once. Each
round is materialized (``localCheckpoint``) to truncate lineage. The
transitive closure here, the SCC backward collect and the automaton
traversal are all instances of it.

``transitive_closure`` computes all (src, dst) pairs connected by a
path of **one or more** edges — the Kleene-plus semantics of Lemma 1
(``R+_G = TC(G_R)``). A vertex pairs with itself only when it lies on a
cycle (or has a self-loop).
"""
from __future__ import annotations

from typing import Callable

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graph.iterate import FixpointGuard, materialize


def semi_naive(
    seed: DataFrame,
    step: Callable[[DataFrame], DataFrame],
    key: list[str],
    what: str,
) -> DataFrame:
    """Least fixpoint of ``acc = seed ∪ step(acc)``.

    ``seed`` must already be materialized. ``step`` maps a delta to the
    rows it derives; it must distribute over union (a join against a
    fixed relation does), so stepping only the delta is exact. ``key``
    lists the columns that identify a row, and ``what`` names the
    ``FixpointGuard``. Each round costs three Spark actions: the
    emptiness test, the new delta and the new accumulator.
    """
    acc = delta = seed
    guard = FixpointGuard(what)
    while not delta.isEmpty():
        guard.tick()
        delta = materialize(step(delta).join(acc, key, "left_anti"))
        acc = materialize(acc.union(delta))
    return acc


def transitive_closure(edges: DataFrame) -> DataFrame:
    """TC of a ``(src, dst)`` edge DataFrame, >=1-step semantics."""
    base = materialize(edges.select("src", "dst").distinct())
    hop_to = base.select(F.col("src").alias("mid"), F.col("dst"))

    def step(delta: DataFrame) -> DataFrame:
        return (
            delta.select(F.col("src"), F.col("dst").alias("mid"))
            .join(hop_to, "mid")
            .select("src", "dst")
            .distinct()
        )

    return semi_naive(base, step, ["src", "dst"], "transitive closure")
