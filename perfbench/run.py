"""Benchmark: per-RPQ response time of RTCSharing and FullSharing, by layer.

Run from the repository root::

    python3 perfbench/run.py --workload dense-shared --seed 1 --seconds 20 --trace 0

One client in this process evaluates each multiple-RPQ set's RPQs one
after another (a closed loop), with a fresh evaluator per set and
method, on Spark ``local[N]`` with the configuration of
``jobs/_common.get_spark``. Every answer is checked against the other
methods and against ``repro.pyref.eval_rpq_python``.

``--trace 0`` times RTC and Full and prints the end-to-end metrics.
``--trace 1`` evaluates one round with all three methods, NoSharing
included, first with every layer call wrapped in a span (see
``spans.py``), then untraced, and prints the per-layer metrics plus the
tracing overhead (traced minus untraced time per RPQ). The metric names
and units are the ones declared in ``BENCHMARK.json``.

The last stdout line is the result object; the line before it describes
the run (seed, Spark/Java versions, configuration, set-up breakdown,
reference-answer time). Spark's scratch space, temporary files and span
dumps go under ``.bench_build/perfbench`` in the working directory.
"""
from __future__ import annotations

import argparse
import json
import os
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

sys.dont_write_bytecode = True

# Metric prefix -> key of ``repro.experiments.METHODS``.
METHODS = {"rtc": "RTC", "full": "Full", "no": "No"}
# Timed end to end. NoSharing is Full without the cache, so its cost per
# RPQ is Full's first answer; timing it too would not fit the run length.
TIMED_METHODS = ("rtc", "full")
SETUP_REPS = 3
WARMUP_VERTICES = 40
DRIVER_MEMORY = "2g"
# jobs/_common.get_spark's default shuffle partition count.
SHUFFLE_PARTITIONS = "16"
# Order-independent checksum of a pair set: sum of a per-pair hash.
HASH_MUL, HASH_SCALE, HASH_MOD = 1_000_003, 7919, 2_147_483_647


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def start_spark(work: Path, trace: bool):
    """Start a local SparkSession whose scratch files stay under ``work``.

    A traced run keeps the status of every job (Spark keeps the last
    1000 by default) so that jobs can be counted per span; this slows
    Spark down, so untraced runs keep the default.
    """
    for sub in ("spark", "tmp"):
        (work / sub).mkdir(parents=True, exist_ok=True)
    tmp = str(work / "tmp")
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    # Read by every JVM spark-submit starts, the launcher's included.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    cores = min(4, os.cpu_count() or 1)
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{cores}]",
            f"--driver-memory {DRIVER_MEMORY}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            f"--conf spark.ui.retainedJobs={10**6 if trace else 1000}",
            # Keep every job's status so the tracer can count jobs per group.
            "--conf " + shlex.quote(f"spark.local.dir={work / 'spark'}"),
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop Spark and wait for the gateway JVM to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        # The gateway JVM exits when its stdin closes.
        proc.stdin.close()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def run_environment(spark, args) -> dict:
    sc = spark.sparkContext
    conf = sc.getConf()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "spark": spark.version,
        "java": sc._jvm.System.getProperty("java.version"),
        "python": sys.version.split()[0],
        "master": sc.master,
        "cores": sc.defaultParallelism,
        "nproc": os.cpu_count(),
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "broadcast_threshold": spark.conf.get(
            "spark.sql.autoBroadcastJoinThreshold"
        ),
        "driver_memory": conf.get("spark.driver.memory"),
    }


def digest_df(df) -> tuple[int, int]:
    from pyspark.sql import functions as F

    h = (
        (F.col("start_v") * HASH_MUL + F.col("end_v")) * HASH_SCALE
    ) % HASH_MOD
    row = df.agg(F.count(F.lit(1)), F.coalesce(F.sum(h), F.lit(0))).first()
    return int(row[0]), int(row[1])


def digest_pairs(pairs) -> tuple[int, int]:
    return len(pairs), sum(
        ((a * HASH_MUL + b) * HASH_SCALE) % HASH_MOD for a, b in pairs
    )


@dataclass
class SetRun:
    """One multiple-RPQ set evaluated by one method with a fresh evaluator."""

    method: str
    queries: tuple[str, ...]
    wall_s: float
    first_s: float
    timings: object
    digests: list = field(default_factory=list)
    shared_rows: int = 0
    # Spark jobs the set ran, outside a traced run (see ``last_job_id``).
    jobs: int | None = None


def last_job_id(sc) -> int:
    """Id of the newest job outside any job group (-1 if none).

    Job ids are sequential, so the difference of two calls counts the
    jobs run in between. Only the tracer sets job groups, so the count
    holds in runs with ``--trace 0``.
    """
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    return max(sc.statusTracker().getJobIdsForGroup(None), default=-1)


def run_set(graph, method, queries, tracer=None, label="") -> SetRun:
    """Mirror of ``repro.experiments.run_method`` that keeps the answers'
    digests and the time to the first answer."""
    from repro.core.timing import PhaseTimings
    from repro.experiments import METHODS as EVALUATORS

    sc = graph.spark.sparkContext
    sc._jvm.System.gc()
    jobs_before = None if tracer is not None else last_job_id(sc)
    ev = EVALUATORS[METHODS[method]](graph)
    timings = PhaseTimings()
    outs = []
    first = None
    t0 = time.perf_counter()
    for i, query in enumerate(queries):
        try:
            if tracer is None:
                outs.append(ev.evaluate(query, timings=timings))
            else:
                tracer.method, tracer.rpq = method, f"{label}:{i}"
                with tracer.span("rpq"):
                    outs.append(ev.evaluate(query, timings=timings))
        except Exception:
            traceback.print_exc()
            outs.append(None)
        if first is None:
            first = time.perf_counter() - t0
    wall = time.perf_counter() - t0
    run = SetRun(method, tuple(queries), wall, first, timings)
    if tracer is not None:
        run.shared_rows = ev.shared_data_size()
    else:
        run.jobs = last_job_id(sc) - jobs_before
    for df in outs:
        run.digests.append(None if df is None else digest_df(df))
        if df is not None:
            df.unpersist()
    return run


def run_round(graph, rnd, r_index, methods, tracer=None) -> list[SetRun]:
    return [
        run_set(graph, m, queries, tracer, f"{r_index}.{s_index}.{m}")
        for s_index, queries in enumerate(rnd)
        for m in methods
    ]


def measure(graph, rounds, seconds) -> list[SetRun]:
    """Closed loop over whole rounds; a round starts only if it is
    expected to end within ``seconds`` (the first always runs), so a
    faster machine or program measures more rounds."""
    runs: list[SetRun] = []
    t0 = time.perf_counter()
    last = 0.0
    for r_index, rnd in enumerate(rounds, start=1):
        if runs and time.perf_counter() - t0 + last > seconds:
            break
        start = time.perf_counter()
        runs += run_round(graph, rnd, r_index, TIMED_METHODS)
        last = time.perf_counter() - start
    return runs


def check_answers(graph, runs: list[SetRun]) -> tuple[int, int, bool, float]:
    """Compare every answer with pyref; returns attempted, failed,
    whether any reference answer is non-empty, and the reference time."""
    from repro.pyref import eval_rpq_python
    from repro.rpq.parser import parse

    t0 = time.perf_counter()
    triples = graph.triples()
    refs: dict[str, tuple[int, int]] = {}
    attempted = failed = 0
    for run in runs:
        for query, got in zip(run.queries, run.digests):
            attempted += 1
            if query not in refs:
                refs[query] = digest_pairs(
                    eval_rpq_python(triples, parse(query))
                )
            if got != refs[query]:
                failed += 1
                print(
                    f"perfbench: {run.method} {query!r}: got "
                    f"(rows, checksum) {got}, pyref {refs[query]}",
                    file=sys.stderr,
                )
    nonempty = any(rows > 0 for rows, _ in refs.values())
    if not nonempty:
        print("perfbench: every reference answer is empty", file=sys.stderr)
    return attempted, failed, nonempty, time.perf_counter() - t0


def ms_per_rpq(runs: list[SetRun], method: str) -> float:
    """Median over the method's sets of the set's wall time per RPQ.

    Every set of a workload has the same number of RPQs, so with one or
    two sets this is the total time over the number of RPQs; with more,
    the median drops a set slowed by the machine.
    """
    return 1000.0 * statistics.median(
        r.wall_s / len(r.queries) for r in runs if r.method == method
    )


def end_to_end(runs: list[SetRun], setup_s: float) -> dict[str, float]:
    m = {f"{k}.ms_per_rpq": ms_per_rpq(runs, k) for k in TIMED_METHODS}
    for k in TIMED_METHODS:
        m[f"{k}.first_answer_ms"] = 1000.0 * statistics.median(
            r.first_s for r in runs if r.method == k
        )
    m["setup_s"] = setup_s
    return m


def per_layer(spark, untraced, traced, tracer) -> dict[str, float]:
    from spans import layer_metrics

    m: dict[str, float] = {}
    for k in METHODS:
        plain = [r for r in untraced if r.method == k]
        n = sum(len(r.queries) for r in plain)
        for phase in ("shared_data", "pre_join", "remainder"):
            m[f"{k}.phase.{phase}_ms"] = 1000.0 * sum(
                getattr(r.timings, phase) for r in plain
            ) / n
        for key, value in layer_metrics(tracer.spans, k).items():
            m[f"{k}.{key}"] = value
        m[f"{k}.shared_rows"] = sum(
            r.shared_rows for r in traced if r.method == k
        )
        m[f"{k}.trace.overhead_ms"] = ms_per_rpq(traced, k) - ms_per_rpq(
            untraced, k
        )
    m["retained_blocks"] = spark.sparkContext._jsc.sc().getPersistentRDDs().size()
    return m


def inexact_counts(metrics, units, previous: Path) -> list[str]:
    """Counts that differ from the previous traced run of this seed."""
    if not previous.is_file():
        return []
    before = json.loads(previous.read_text())
    return sorted(
        name
        for name, value in metrics.items()
        if units[name] in ("count", "rows")
        and name in before
        and before[name] != value
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            "perfbench: no src/repro here; run from the repository root",
            file=sys.stderr,
        )
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = root / ".bench_build" / "perfbench"

    t0 = time.perf_counter()
    spark = start_spark(work, bool(args.trace))
    session_s = time.perf_counter() - t0
    try:
        return bench(args, spark, workload, work, spec, session_s)
    finally:
        stop_spark(spark)


def bench(args, spark, workload, work, spec, session_s) -> int:
    build_s = []
    graph = None
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        fresh = workload.build_graph(spark, args.seed)
        rounds = workload.make_rounds(fresh, args.seed)
        build_s.append(time.perf_counter() - t0)
        if graph is not None:
            graph.edges.unpersist()
        graph = fresh
    # Warm-up: the first RPQ of round 0 (never measured) with RTC and
    # Full, on a small copy of the graph. A cold JVM is slow for the first
    # few hundred Spark jobs whatever their size; warming with RTC alone
    # left the first measured RPQs up to 1.8x slower.
    t0 = time.perf_counter()
    warm_graph = workload.build_graph(spark, args.seed, WARMUP_VERTICES)
    for method in ("rtc", "full"):
        run_set(warm_graph, method, rounds[0][0][:1])
    warm_graph.edges.unpersist()
    warmup_s = time.perf_counter() - t0
    setup_s = session_s + statistics.median(build_s) + warmup_s

    info = run_environment(spark, args)
    if args.trace:
        from spans import Tracer, span_records

        # Traced first: the later round runs on a warmer JVM, so the
        # overhead (traced minus untraced) errs on the high side.
        tracer = Tracer(spark)
        with tracer.installed():
            traced = run_round(graph, rounds[1], 1, METHODS, tracer)
        tracer.count_jobs()
        untraced = run_round(graph, rounds[1], 1, METHODS)
        runs = untraced + traced
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = per_layer(spark, untraced, traced, tracer)
        stem = f"{args.workload}-seed{args.seed}"
        counts_file = work / f"layers-{stem}.json"
        info["inexact"] = inexact_counts(metrics, units, counts_file)
        info["unpatched"] = tracer.unpatched
        counts_file.write_text(json.dumps(metrics, indent=1))
        spans_file = work / f"spans-{stem}.json"
        spans_file.write_text(json.dumps(span_records(tracer.spans)))
        info["spans_file"] = str(spans_file.relative_to(Path.cwd()))
    else:
        runs = measure(graph, rounds[1:], args.seconds)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = end_to_end(runs, setup_s)
        info["jobs"] = {
            k: [r.jobs for r in runs if r.method == k] for k in TIMED_METHODS
        }

    attempted, failed, nonempty, reference_s = check_answers(graph, runs)
    info.update(
        setup={
            "session_s": session_s,
            "build_s": build_s,
            "warmup_s": warmup_s,
        },
        reference_s=reference_s,
        sets=len({r.queries for r in runs}),
        rpqs={k: sum(len(r.queries) for r in runs if r.method == k) for k in METHODS},
        queries=sorted({q for r in runs for q in r.queries}),
    )
    missing = set(units) ^ set(metrics)
    if missing:
        print(
            f"perfbench: metrics and BENCHMARK.json disagree on {sorted(missing)}",
            file=sys.stderr,
        )
        return 1
    print(json.dumps({"run": info}))
    print(
        json.dumps(
            {
                "correct": failed == 0 and nonempty,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
