"""Edge-level graph reduction G -> G_R and closure-free RPQ evaluation.

The edge set of ``G_R`` *is* the RPQ result ``R_G`` (Section III-A), so
edge-level reduction is "evaluate R and treat each result pair as an
unlabeled edge". Two evaluators are provided:

- ``eval_kleene_free`` — the relational path: a closure-free expression
  is evaluated compositionally over the per-label edge relations (a
  label is an edge scan, a concatenation a join chain per Lemma 4, a
  union a union), so its plan grows with the expression, never with
  the number of label sequences it denotes. This is what
  ``Pre_G``/``R_G``/``Post_G`` use in all three methods, and it
  supports *restricted* evaluation from seed vertices
  (EvalRestrictedRPQ in Algorithm 2).
- ``eval_rpq_automaton`` — the general Yakovets-style [5] traversal for
  arbitrary regexes: a product BFS of (start vertex, current vertex,
  NFA state) as iterative DataFrame joins, with the visited-set
  termination of Section II-B. Used as an independent evaluator for
  differential tests and for queries that are not batch units.
"""
from __future__ import annotations

from functools import reduce

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graph.closure import semi_naive
from repro.graph.iterate import materialize
from repro.graph.model import LabeledGraph, empty_pairs, identity_pairs
from repro.rpq.ast import Concat, Epsilon, Label, Regex, Union
from repro.rpq.automaton import build_nfa


def _union_all(parts: list[DataFrame], empty: DataFrame) -> DataFrame:
    if not parts:
        return empty
    out = parts[0]
    for p in parts[1:]:
        out = out.union(p)
    return out


def _pairs(
    graph: LabeledGraph, node: Regex, seeds: DataFrame | None
) -> DataFrame:
    """``(start_v, end_v)`` pairs of ``node``, not always distinct."""
    if isinstance(node, Epsilon):
        return identity_pairs(seeds if seeds is not None else graph.vertices)
    if isinstance(node, Label):
        out = graph.edges_for_label(node.name).select(
            F.col("src").alias("start_v"), F.col("dst").alias("end_v")
        )
        if seeds is not None:
            out = out.join(
                seeds.withColumnRenamed("v", "start_v"),
                "start_v",
                "left_semi",
            )
        return out
    if isinstance(node, Union):
        return reduce(
            DataFrame.union, (_pairs(graph, p, seeds) for p in node.parts)
        ).distinct()
    if isinstance(node, Concat):
        # Seeds restrict the first factor only; later factors are joined
        # on their start vertex, which already bounds them.
        out = _pairs(graph, node.parts[0], seeds).distinct()
        for part in node.parts[1:]:
            nxt = _pairs(graph, part, None).select(
                F.col("start_v").alias("end_v"),
                F.col("end_v").alias("next_v"),
            )
            out = (
                out.join(nxt, "end_v")
                .select("start_v", F.col("next_v").alias("end_v"))
                .distinct()
            )
        return out
    raise ValueError(f"{node.canon()} contains a Kleene closure")


def eval_kleene_free(
    graph: LabeledGraph, regex: Regex, seeds: DataFrame | None = None
) -> DataFrame:
    """Evaluate a closure-free RPQ as a composition of label joins.

    Returns distinct ``(start_v, end_v)`` pairs. ``seeds`` (a ``(v)``
    DataFrame) restricts start vertices — the restricted evaluation used
    for ``Post`` so only paths reachable from ``(Pre·R+)_G`` ends are
    explored. For the ε expression the result is the identity relation
    over ``seeds`` (or over all of V).
    """
    return materialize(_pairs(graph, regex, seeds).distinct())


def eval_rpq_automaton(
    graph: LabeledGraph, regex: Regex, seeds: DataFrame | None = None
) -> DataFrame:
    """Evaluate an arbitrary RPQ via NFA-product BFS over DataFrames.

    The traversal state is ``(start_v, cur_v, q)``; a visited set keyed
    on all three terminates cyclic traversals exactly as described in
    Example 2. Accepting states project to result pairs; if ε ∈ L(R),
    every (seed) vertex also pairs with itself.
    """
    spark = graph.spark
    nfa = build_nfa(regex)
    start_vs = seeds if seeds is not None else graph.vertices

    results: list[DataFrame] = []
    if nfa.accepts_epsilon:
        results.append(identity_pairs(start_vs))

    if nfa.transitions:
        trans = spark.createDataFrame(
            list(nfa.transitions), "q int, label string, q2 int"
        )
        seed = materialize(
            start_vs.select(
                F.col("v").alias("start_v"),
                F.col("v").alias("cur_v"),
                F.lit(nfa.start).alias("q"),
            )
        )
        out_edges = graph.edges.withColumnRenamed("src", "cur_v")

        def step(frontier: DataFrame) -> DataFrame:
            return (
                frontier.join(out_edges, "cur_v")
                .join(trans, ["q", "label"])
                .select(
                    "start_v",
                    F.col("dst").alias("cur_v"),
                    F.col("q2").alias("q"),
                )
                .distinct()
            )

        visited = semi_naive(
            seed, step, ["start_v", "cur_v", "q"], "automaton traversal"
        )
        accept_set = visited.filter(
            F.col("q").isin(list(nfa.accepts))
        ).select("start_v", F.col("cur_v").alias("end_v"))
        # The seed rows (v, v, start) project (v, v) only when the start
        # state accepts, which happens iff ε ∈ L(R) — and then (v, v) is
        # a correct result (already unioned above; distinct dedupes).
        results.append(accept_set)

    out = _union_all(results, empty_pairs(spark)).distinct()
    return materialize(out)
