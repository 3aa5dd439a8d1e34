"""Distributed strongly connected components over edge DataFrames.

This is the vertex-level-reduction substrate (paper Section III-B). The
paper uses Tarjan's algorithm on a single machine; Tarjan is inherently
sequential (DFS), so the distributed equivalent here is the classic
FW-BW-Trim / *coloring* dataflow algorithm, expressed as iterative
DataFrame joins (the GraphX-style formulation):

repeat until no vertices remain:
  1. **Trim** — peel vertices with no in-edge or no out-edge inside the
     remaining subgraph; they cannot lie on a cycle, hence are
     singleton SCCs. Iterate until stable.
  2. **Color** — propagate ``color(v) = min(v, min over in-neighbors)``
     to a fixpoint. Afterwards color(v) = min vertex that reaches v.
  3. **Backward collect** — for every root r (color(r) = r), the SCC of
     r is exactly the set of vertices with color r that reach r; found
     by reverse-BFS from all roots simultaneously, restricted to
     same-color edges. Assign, remove, repeat.

SCC ids are the minimum vertex id in the component, matching
``repro.pyref.tarjan_scc`` so the two are directly comparable.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graph.closure import semi_naive
from repro.graph.iterate import FixpointGuard, materialize


def _vertices_of(edges: DataFrame) -> DataFrame:
    return (
        edges.select(F.col("src").alias("v"))
        .union(edges.select(F.col("dst").alias("v")))
        .distinct()
    )


def _restrict(edges: DataFrame, vertices: DataFrame) -> DataFrame:
    """Edges with both endpoints in ``vertices`` (a ``(v)`` DataFrame)."""
    return edges.join(
        vertices.withColumnRenamed("v", "src"), "src", "left_semi"
    ).join(vertices.withColumnRenamed("v", "dst"), "dst", "left_semi")


def _min_color_fixpoint(edges: DataFrame, vertices: DataFrame) -> DataFrame:
    """Forward min-label propagation: (v, c) with c = min vertex reaching v."""
    colors = materialize(
        vertices.select(F.col("v"), F.col("v").alias("c"))
    )
    # Colors only decrease, so the sum strictly decreases while any
    # vertex changes — a cheap fixpoint test (one aggregate per round).
    prev_sum = colors.agg(F.sum("c")).collect()[0][0]
    guard = FixpointGuard("scc min-color propagation")
    while True:
        guard.tick()
        msgs = edges.join(
            colors.withColumnRenamed("v", "src"), "src"
        ).select(F.col("dst").alias("v"), F.col("c"))
        colors = materialize(
            colors.union(msgs).groupBy("v").agg(F.min("c").alias("c"))
        )
        cur_sum = colors.agg(F.sum("c")).collect()[0][0]
        if cur_sum == prev_sum:
            return colors
        prev_sum = cur_sum


def _backward_collect(colored: DataFrame, roots: DataFrame) -> DataFrame:
    """``(v, c)`` for every v that reaches root c over colour-c edges."""

    def step(frontier: DataFrame) -> DataFrame:
        return (
            colored.join(
                frontier.select(F.col("v").alias("dst"), F.col("c")),
                ["dst", "c"],
            )
            .select(F.col("src").alias("v"), F.col("c"))
            .distinct()
        )

    return semi_naive(
        materialize(roots), step, ["v", "c"], "scc backward collect"
    )


def strongly_connected_components(
    edges: DataFrame, vertices: DataFrame | None = None
) -> DataFrame:
    """SCC assignment ``(v, s)`` for a ``(src, dst)`` edge DataFrame.

    ``vertices`` optionally supplies extra isolated vertices to assign
    (each its own singleton SCC); by default the vertex set is derived
    from edge endpoints.
    """
    spark = edges.sparkSession
    edges = edges.select("src", "dst").distinct()
    remaining = materialize(
        vertices.select("v").distinct() if vertices is not None else _vertices_of(edges)
    )
    # Self-loops never affect SCC membership; drop them from iteration.
    work = materialize(
        _restrict(edges.filter(F.col("src") != F.col("dst")), remaining)
    )
    assignments: list[DataFrame] = []
    outer = FixpointGuard("scc outer loop")

    while not remaining.isEmpty():
        outer.tick()
        # --- Trim ----------------------------------------------------
        trim_guard = FixpointGuard("scc trim")
        while True:
            trim_guard.tick()
            has_out = work.select(F.col("src").alias("v")).distinct()
            has_in = work.select(F.col("dst").alias("v")).distinct()
            core = has_out.join(has_in, "v", "left_semi")
            trimmed = remaining.join(core, "v", "left_anti")
            if trimmed.isEmpty():
                break
            assignments.append(
                materialize(trimmed.select("v", F.col("v").alias("s")))
            )
            remaining = materialize(remaining.join(core, "v", "left_semi"))
            work = materialize(_restrict(work, remaining))
        if remaining.isEmpty():
            break

        # --- Color ---------------------------------------------------
        colors = _min_color_fixpoint(work, remaining)

        # --- Backward collect from all roots simultaneously ----------
        colored = materialize(
            work.join(
                colors.select(
                    F.col("v").alias("src"), F.col("c").alias("c_src")
                ),
                "src",
            )
            .join(
                colors.select(
                    F.col("v").alias("dst"), F.col("c").alias("c_dst")
                ),
                "dst",
            )
            .filter(F.col("c_src") == F.col("c_dst"))
            .select("src", "dst", F.col("c_src").alias("c"))
        )
        roots = colors.filter(F.col("c") == F.col("v")).select("v", "c")
        reached = _backward_collect(colored, roots)
        assignments.append(
            materialize(reached.select("v", F.col("c").alias("s")))
        )
        remaining = materialize(
            remaining.join(reached.select("v"), "v", "left_anti")
        )
        work = materialize(_restrict(work, remaining))

    if not assignments:
        return spark.createDataFrame([], "v long, s long")
    out = assignments[0]
    for a in assignments[1:]:
        out = out.union(a)
    return materialize(out)
