"""The benchmark's workloads: a scaled dataset plus seeded RPQ sets.

Each workload builds one graph from a ``DATASETS`` spec (re-seeded and
scaled down so that a run fits in about a minute) and draws a list
of *rounds* from the same seed. A round is a list of multiple-RPQ sets;
the measured loop only ever runs whole rounds, so every round weighs the
same in the medians over sets. The evaluators only see the generated graph
and the query strings.
"""
from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Callable

from repro.graph.generators import DATASETS
from repro.graph.model import LabeledGraph
from repro.workload import make_rpq_sets

# A round: multiple-RPQ sets, each the RPQs one client evaluates one
# after another.
Round = list[tuple[str, ...]]

# More rounds than any run measures.
N_ROUNDS = 40


def _dense_rounds(graph: LabeledGraph, seed: int) -> list[Round]:
    # Paper Exp-2 shape: k RPQs ``pre.(R)+.post`` sharing a length-2 R.
    sets = make_rpq_sets(
        sorted(graph.labels),
        sets_per_length=N_ROUNDS,
        r_lengths=(2,),
        max_rpqs_per_set=3,
        seed=seed,
    )
    return [[s.queries] for s in sets]


# Two RPQs outside the paper's ``Pre.(R)+.Post`` template that share one
# closure body: a star (zero branch through Post) and a plus, both over a
# union body (label-join chains in edge reduction). The first RPQ of a
# set builds the shared closure (a cache miss), the second reuses it.
# Other shapes do not fit the run length.
SHAPES = ("{a}.({body})*.{e}", "{f}.({body})+.{g}")


def _mixed_rounds(graph: LabeledGraph, seed: int) -> list[Round]:
    labels = sorted(graph.labels)
    rng = random.Random(seed)
    star, plus = SHAPES
    rounds = []
    for _ in range(N_ROUNDS):
        # Distinct labels in a seeded order. The dataset's labels are
        # exchangeable, so every seed gets RPQs of one structure on
        # graphs of one distribution.
        a, b, c, d, e = rng.sample(labels, 5)
        f, g = rng.sample(labels, 2)
        body = f"({b}|{c}).{d}"
        rounds.append(
            [(star.format(a=a, body=body, e=e), plus.format(f=f, body=body, g=g))]
        )
    return rounds


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    n_vertices: int
    make_rounds: Callable[[LabeledGraph, int], list[Round]]

    def build_graph(
        self, spark, seed: int, n_vertices: int | None = None
    ) -> LabeledGraph:
        spec = dataclasses.replace(
            DATASETS[self.dataset],
            n_vertices=n_vertices or self.n_vertices,
            seed=seed,
        )
        graph = spec.build(spark)
        graph.edges = graph.edges.localCheckpoint(eager=True)
        return graph


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense-shared", "advogato_lite", 250, _dense_rounds),
        Workload("mixed-shapes", "youtube_lite", 120, _mixed_rounds),
    )
}
