"""Outside-in tracing of the evaluators' layers.

The tracer records a span around each public layer call by replacing the
name inside the module that imports it (``repro.core.rtc.transitive_closure``,
``repro.core.base.eval_kleene_free`` ...), so the program itself is not
edited. Each span has a name, start, end, parent, method and RPQ id, the
fixpoint rounds ticked while it was innermost (per ``FixpointGuard``
name), the Spark jobs run under its own job group, and a row count.

Row counts of materialized DataFrames come from ``DataFrame.observe`` and
cost no extra Spark job. The few counts that do need a job run *after*
the span closes, under their own job group, and their time is taken out
of every enclosing span, so they neither inflate a span nor its jobs.
"""
from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

from pyspark.sql import DataFrame, Observation
from pyspark.sql import functions as F

from repro.graph.iterate import FixpointGuard

# (module, attribute, span name). A layer function is patched where it
# is looked up, i.e. in the module that imports it.
LAYER_TARGETS = (
    ("repro.core.base", "eval_kleene_free", "edge_reduction"),
    ("repro.core.batch_unit", "eval_kleene_free", "edge_reduction.post"),
    ("repro.core.rtc", "strongly_connected_components", "scc"),
    ("repro.core.rtc", "condense", "condense"),
    ("repro.core.rtc", "transitive_closure", "closure"),
    ("repro.core.fullsharing", "transitive_closure", "closure"),
    ("repro.core.rtcsharing", "compute_rtc", "compute_rtc"),
    ("repro.core.rtcsharing", "eval_batch_unit_rtc", "batch_unit"),
    ("repro.core.fullsharing", "eval_batch_unit_full", "batch_unit"),
)
MATERIALIZE_MODULES = (
    "repro.core.base",
    "repro.core.batch_unit",
    "repro.core.rtc",
    "repro.core.fullsharing",
    "repro.core.edge_reduction",
    "repro.graph.closure",
    "repro.graph.scc",
)
_ROWS_ATTR = "_perfbench_rows"
IDLE_GROUP = "perfbench-idle"
BOOK_GROUP = "perfbench-bookkeeping"


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    method: str
    rpq: str
    group: str
    start: float = 0.0
    end: float = 0.0
    # Bookkeeping time (row counts) spent while this span was open.
    excluded: float = 0.0
    rows: int | None = None
    jobs: int = 0
    rounds: Counter = field(default_factory=Counter)
    extra: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start - self.excluded


class Tracer:
    """Collects spans while installed; ``with tracer.installed(): ...``."""

    def __init__(self, spark):
        self.sc = spark.sparkContext
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.method = ""
        self.rpq = ""
        self.unpatched: list[str] = []
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    # --- spans ----------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        parent = self.stack[-1] if self.stack else None
        sp = Span(
            id=self._next_id,
            name=name,
            parent=parent.id if parent else None,
            method=self.method,
            rpq=self.rpq,
            group=f"perfbench-{self._next_id}",
        )
        self._next_id += 1
        self.stack.append(sp)
        self.sc.setJobGroup(sp.group, name)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self.stack.pop()
            self._set_group(parent.group if parent else IDLE_GROUP)
            self.spans.append(sp)

    def _set_group(self, group: str) -> None:
        self.sc.setJobGroup(group, group)

    def bookkeep(self, fn):
        """Run ``fn`` (a row count) outside the timing of open spans."""
        t0 = time.perf_counter()
        self._set_group(BOOK_GROUP)
        try:
            return fn()
        finally:
            self._set_group(self.stack[-1].group if self.stack else IDLE_GROUP)
            dt = time.perf_counter() - t0
            for sp in self.stack:
                sp.excluded += dt

    def _rows_of(self, df: DataFrame) -> int:
        rows = getattr(df, _ROWS_ATTR, None)
        return rows if rows is not None else self.bookkeep(df.count)

    def count_jobs(self) -> None:
        """Fill ``Span.jobs`` from each span's job group."""
        self.sc._jsc.sc().listenerBus().waitUntilEmpty()
        tracker = self.sc.statusTracker()
        for sp in self.spans:
            sp.jobs = len(tracker.getJobIdsForGroup(sp.group))

    # --- patches --------------------------------------------------------
    def _patch(self, module: str, attr: str, make) -> None:
        mod = importlib.import_module(module)
        orig = getattr(mod, attr, None)
        if orig is None:
            self.unpatched.append(f"{module}.{attr}")
            return
        self._restore.append((mod, attr, orig))
        setattr(mod, attr, make(orig))

    def _layer(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                out = fn(*args, **kwargs)
            if name == "scc":
                edges = args[0] if args else kwargs["edges"]
                sp.extra["in_edges"] = self.bookkeep(edges.count)
                sp.extra["components"] = self.bookkeep(
                    out.select("s").distinct().count
                )
            if isinstance(out, DataFrame):
                sp.rows = self._rows_of(out)
            return out

        return traced

    def _materialize(self, fn):
        def traced(df: DataFrame) -> DataFrame:
            obs = Observation()
            with self.span("materialize") as sp:
                out = fn(df.observe(obs, F.count(F.lit(1)).alias("rows")))
            sp.rows = obs.get["rows"]
            setattr(out, _ROWS_ATTR, sp.rows)
            return out

        return traced

    def _tick(self, fn):
        def traced(guard: FixpointGuard) -> None:
            if self.stack:
                self.stack[-1].rounds[guard.what] += 1
            return fn(guard)

        return traced

    @contextmanager
    def installed(self):
        try:
            for module, attr, name in LAYER_TARGETS:
                self._patch(
                    module, attr, lambda fn, name=name: self._layer(name, fn)
                )
            for module in MATERIALIZE_MODULES:
                self._patch(module, "materialize", self._materialize)
            tick = FixpointGuard.tick
            self._restore.append((FixpointGuard, "tick", tick))
            FixpointGuard.tick = self._tick(tick)
            yield self
        finally:
            for mod, attr, orig in reversed(self._restore):
                setattr(mod, attr, orig)
            self._restore.clear()
            self._set_group(IDLE_GROUP)


SCC_ROUNDS = {
    "outer_rounds": "scc outer loop",
    "trim_rounds": "scc trim",
    "color_rounds": "scc min-color propagation",
    "collect_rounds": "scc backward collect",
}


def layer_metrics(spans: list[Span], method: str) -> dict[str, float]:
    """Per-layer totals of one method's spans, keyed ``<layer>.<quantity>``.

    Rounds are counted over a span's whole subtree (a guard ticks in the
    innermost open span). Spans close children-first, so one pass in
    closing order folds every subtree into its parent.
    """
    mine = [s for s in spans if s.method == method]
    sub = {s.id: Counter(s.rounds) for s in mine}
    for s in mine:
        if s.parent in sub:
            sub[s.parent].update(sub[s.id])

    def named(name: str) -> list[Span]:
        return [s for s in mine if s.name == name]

    def secs(name: str) -> float:
        return sum(s.duration for s in named(name))

    def rows(name: str) -> int:
        return sum(s.rows or 0 for s in named(name))

    batch_calls = len(named("batch_unit"))
    builds = named("compute_rtc" if method == "rtc" else "closure")
    m = {
        "edge_reduction.s": secs("edge_reduction"),
        "edge_reduction.calls": len(named("edge_reduction")),
        "edge_reduction.rows": rows("edge_reduction"),
        "edge_reduction.post_s": secs("edge_reduction.post"),
        "edge_reduction.post_rows": rows("edge_reduction.post"),
        "closure.s": secs("closure"),
        "closure.calls": len(named("closure")),
        "closure.rounds": sum(
            sub[s.id]["transitive closure"] for s in named("closure")
        ),
        "closure.rows": rows("closure"),
        "batch_unit.s": secs("batch_unit"),
        "batch_unit.calls": batch_calls,
        "batch_unit.rows": rows("batch_unit"),
        "cache.hits": batch_calls - len(builds),
        "cache.misses": len(builds),
        "iterate.materialize_calls": len(named("materialize")),
        "iterate.materialized_rows": rows("materialize"),
        "spark.jobs": sum(s.jobs for s in mine),
    }
    if method == "rtc":
        scc = named("scc")
        m["scc.s"] = secs("scc")
        m["scc.calls"] = len(scc)
        for key, guard in SCC_ROUNDS.items():
            m[f"scc.{key}"] = sum(sub[s.id][guard] for s in scc)
        for key in ("in_edges", "components"):
            m[f"scc.{key}"] = sum(s.extra[key] for s in scc)
        m["condense.rows"] = rows("condense")
        m["compute_rtc.s"] = secs("compute_rtc")
    return m


def span_records(spans: list[Span]) -> list[dict]:
    """Spans as JSON-ready dicts, with self time (duration minus children)."""
    child_time: Counter = Counter()
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    return [
        {
            "id": s.id,
            "parent": s.parent,
            "name": s.name,
            "method": s.method,
            "rpq": s.rpq,
            "start": s.start,
            "end": s.end,
            "duration_s": s.duration,
            "self_s": s.duration - child_time[s.id],
            "rows": s.rows,
            "jobs": s.jobs,
            "rounds": dict(s.rounds),
            **s.extra,
        }
        for s in spans
    ]
