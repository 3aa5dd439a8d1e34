"""Tests for distributed transitive closure (repro.graph.closure).

Checked against the python reference and — via the DuckDB oracle — a
recursive CTE, so the semi-naive Spark iteration is validated by two
independent implementations.
"""
import random

import pandas as pd
import pytest

from repro.graph import iterate
from repro.graph.closure import transitive_closure
from repro.graph.iterate import FixpointGuard
from repro.oracle import assert_equivalent
from repro.pyref import transitive_closure_python


def tc_spark(spark, edges):
    edf = spark.createDataFrame(
        pd.DataFrame(edges, columns=["src", "dst"]), "src long, dst long"
    )
    return transitive_closure(edf)


def rows(df):
    return {(r.src, r.dst) for r in df.collect()}


class TestSmall:
    def test_chain(self, spark):
        assert rows(tc_spark(spark, [(1, 2), (2, 3)])) == {
            (1, 2),
            (1, 3),
            (2, 3),
        }

    def test_cycle_reaches_self(self, spark):
        assert rows(tc_spark(spark, [(1, 2), (2, 1)])) == {
            (1, 1),
            (1, 2),
            (2, 1),
            (2, 2),
        }

    def test_one_step_semantics(self, spark):
        got = rows(tc_spark(spark, [(1, 2)]))
        assert got == {(1, 2)}  # no zero-step (v, v) pairs

    def test_self_loop(self, spark):
        assert rows(tc_spark(spark, [(4, 4)])) == {(4, 4)}

    def test_no_edges_zero_rounds(self, spark, monkeypatch):
        ticks = []
        monkeypatch.setattr(FixpointGuard, "tick", lambda g: ticks.append(g))
        got = tc_spark(spark, [])
        assert got.columns == ["src", "dst"]
        assert rows(got) == set()
        assert ticks == []

    def test_guard_stops_at_max_rounds(self, spark, monkeypatch):
        # A 4-chain needs two rounds to reach (1, 4).
        monkeypatch.setattr(iterate, "MAX_ROUNDS", 1)
        with pytest.raises(RuntimeError, match="transitive closure"):
            tc_spark(spark, [(1, 2), (2, 3), (3, 4)])

    def test_duplicate_edges_collapse(self, spark):
        assert rows(tc_spark(spark, [(1, 2), (1, 2)])) == {(1, 2)}

    def test_paper_example4(self, spark):
        """TC(G_{b.c}) equals (b.c)+_G of Example 4 — the 10 pairs."""
        edges = [(2, 4), (2, 6), (3, 5), (4, 2), (5, 3)]
        expected = {
            (2, 2),
            (2, 4),
            (2, 6),
            (3, 3),
            (3, 5),
            (4, 2),
            (4, 4),
            (4, 6),
            (5, 3),
            (5, 5),
        }
        assert rows(tc_spark(spark, edges)) == expected


@pytest.mark.parametrize("seed", range(6))
def test_random_vs_python(spark, seed):
    rng = random.Random(seed)
    n = 15
    edges = sorted(
        {(rng.randrange(n), rng.randrange(n)) for _ in range(25)}
    )
    assert rows(tc_spark(spark, edges)) == transitive_closure_python(edges)


@pytest.mark.parametrize("seed", [0, 3])
def test_random_vs_duckdb_recursive(spark, seed):
    rng = random.Random(seed)
    n = 12
    edges = sorted(
        {(rng.randrange(n), rng.randrange(n)) for _ in range(20)}
    )
    got = tc_spark(spark, edges)
    assert_equivalent(
        got,
        """
        WITH RECURSIVE tc AS (
            SELECT src, dst FROM e
            UNION
            SELECT tc.src, e.dst FROM tc JOIN e ON tc.dst = e.src
        )
        SELECT src, dst FROM tc
        """,
        e=pd.DataFrame(edges, columns=["src", "dst"]),
    )
