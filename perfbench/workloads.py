"""The four workloads: ``fit-cold``, ``serve-hit``, ``serve-json`` and
``fleet-hit``.

Each workload makes its inputs from the seed, sets up, measures for the
run's seconds, checks its outputs and returns an :class:`Outcome`.  Every
untraced run measures the same end-to-end metrics: ``setup_s``,
``op_p50_ms`` (the median of the workload's one timed operation),
``ari`` and ``peak_rss_mb``.  Times are reported at the reference host
speed (:mod:`perfbench.hostspeed`); the raw times go to the report file.
With ``trace`` the same workload runs its traced variant, which yields the
per-layer metrics instead.  ``NOTES.md`` says why
each workload exists and which layer metric should move which end-to-end
metric.
"""

from __future__ import annotations

import functools
import itertools
import json
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

from perfbench import checks
from perfbench.hostspeed import Probes
from perfbench.inputs import SECTORS, InputStream, Market
from perfbench.load import (
    BINARY_HEADERS,
    JSON_HEADERS,
    Job,
    Phase,
    ServeProcess,
    closed_loop,
    send,
)
from perfbench.tracing import SpanRecord, SpanStore
from repro.api.config import ClusteringConfig
from repro.api.estimators import TMFGClusterer
from repro.api.result import ClusterResult
from repro.metrics.ari import adjusted_rand_index
from repro.obs.tracer import TRACE_ECHO_HEADER, TRACE_ID_HEADER, new_trace_id
from repro.serve.wire import WIRE_CONTENT_TYPE, encode_request

#: The cold-fit unit: the default config (prefix 1, exact APSP), cache off.
FIT_CONFIG = ClusteringConfig(num_clusters=SECTORS)
#: What ``repro serve --clusters 11`` fits with; direct reference fits use
#: it too, so served and direct results carry the same config block.
SERVED_CONFIG = ClusteringConfig(num_clusters=SECTORS, cache=True)


@dataclass(frozen=True)
class Sizes:
    """Input sizes and repeat counts; the defaults are the benchmark."""

    fit_stocks: int = 500
    fit_set: int = 4
    warmup_stocks: int = 60
    hot_stocks: int = 250
    hot_set: int = 4
    fit_setup_repeats: int = 5
    serve_setup_repeats: int = 3


#: The smoke-test scale: every code path, a few seconds per workload.
TINY = Sizes(
    fit_stocks=60, fit_set=2, warmup_stocks=48, hot_stocks=48, hot_set=2,
    fit_setup_repeats=1, serve_setup_repeats=1,
)


@dataclass
class Context:
    root: Path
    out: Path
    seed: int
    seconds: float
    trace: bool
    sizes: Sizes = Sizes()

    def log_path(self, tag: str) -> Path:
        return self.out / "logs" / f"{tag}.log"


@dataclass
class Outcome:
    """What one run measured, counted and found wrong."""

    metrics: Dict[str, float] = field(default_factory=dict)
    phases: List[Phase] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    spans: Optional[SpanStore] = None
    notes: Dict[str, Any] = field(default_factory=dict)

    def add_self_times(self) -> None:
        """``self.<layer>_ms``: span self time per traced operation (one
        root span each), by layer."""
        operations = self.spans.roots() if self.spans is not None else 0
        if operations == 0:
            return
        for layer, seconds in self.spans.self_seconds().items():
            self.metrics[f"self.{layer}_ms"] = 1000.0 * seconds / operations


def _ms(seconds: float) -> float:
    return 1000.0 * seconds


def _median_ms(samples: Sequence[float]) -> float:
    return _ms(statistics.median(samples))


def _p90_ms(samples: Sequence[float]) -> float:
    return _ms(float(np.percentile(samples, 90)))


def _timed(call: Callable[[], Any], repeats: int) -> float:
    """Median seconds of ``repeats`` calls."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# fit-cold
# ---------------------------------------------------------------------------

_FIT_SETUP_PROBE = """
import sys
sys.path[:0] = [{src!r}, {root!r}]
from perfbench.inputs import market
from repro.api.estimators import TMFGClusterer
TMFGClusterer(num_clusters={k}).fit(market({n}, {seed}).returns)
"""


def _fit_setup_seconds(ctx: Context, repeats: int, probes: Probes) -> List[float]:
    """Fresh interpreters importing the library and making one small fit,
    with a host probe around each."""
    code = _FIT_SETUP_PROBE.format(
        src=str(ctx.root / "src"), root=str(ctx.root), k=SECTORS,
        n=ctx.sizes.warmup_stocks, seed=ctx.seed,
    )
    samples = []
    probes.take()
    for _ in range(repeats):
        started = time.perf_counter()
        # No timeout here: with one, the wait polls in 50 ms steps and the
        # time reads in those steps.  The run's watchdog bounds it instead.
        subprocess.run([sys.executable, "-c", code], cwd=ctx.root, check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - started)
        probes.take()
    return samples


def fit_cold(ctx: Context) -> Outcome:
    sizes = ctx.sizes
    stream = InputStream(ctx.seed)
    fit_set = stream.markets(sizes.fit_set, sizes.fit_stocks)
    setup_probes = Probes()
    setup = _fit_setup_seconds(ctx, sizes.fit_setup_repeats, setup_probes)
    # This process pays its own first-call costs outside the timed region.
    TMFGClusterer(FIT_CONFIG).fit(stream.markets(1, sizes.warmup_stocks)[0].returns)
    if ctx.trace:
        return _fit_cold_traced(ctx, fit_set)

    outcome = Outcome()
    phase = Phase("cold-fit")
    outcome.phases.append(phase)
    first_labels: Dict[int, np.ndarray] = {}
    probes = Probes()
    probes.take()
    deadline = time.perf_counter() + ctx.seconds
    for index in itertools.count():
        if index >= len(fit_set) and time.perf_counter() >= deadline:
            break
        slot = index % len(fit_set)
        started = time.perf_counter()
        labels = TMFGClusterer(FIT_CONFIG).fit(fit_set[slot].returns).labels_
        phase.record(time.perf_counter() - started)
        probes.take()
        if slot in first_labels:
            outcome.failures += checks.same_labels(
                f"repeat fit of matrix {slot}", first_labels[slot], labels
            )
        else:
            first_labels[slot] = labels
    aris = [adjusted_rand_index(m.sectors, first_labels[i]) for i, m in enumerate(fit_set)]
    outcome.metrics = {
        "setup_s": statistics.median(setup_probes.rescale(setup)),
        "op_p50_ms": _median_ms(probes.rescale(phase.latencies)),
        "ari": float(np.mean(aris)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    outcome.notes = {
        "fits": phase.succeeded, "ari_per_matrix": aris,
        "raw_setup_s": statistics.median(setup), "raw_op_p50_ms": _median_ms(phase.latencies),
        "setup_samples_s": setup, "setup_probes_ms": setup_probes.samples,
        "probes_ms": probes.samples,
    }
    return outcome


def _fit_cold_traced(ctx: Context, fit_set: List[Market]) -> Outcome:
    """Each fit twice: once through the estimator (untraced wall time and
    its ``step_seconds``), once phase by phase through each layer's public
    functions under benchmark spans.  The two must give the same labels."""
    from repro.core.assignment import assign_vertices
    from repro.core.direction import compute_directions
    from repro.core.hierarchy import build_hierarchy
    from repro.core.tmfg import construct_tmfg
    from repro.datasets.similarity import similarity_and_dissimilarity
    from repro.dendrogram.cut import cut_k
    from repro.graph.shortest_paths import all_pairs_shortest_paths

    outcome = Outcome(spans=SpanStore())
    spans = outcome.spans
    phase = Phase("cold-fit-traced")
    outcome.phases.append(phase)
    walls, overheads, pipelines = [], [], []
    phase_ms: Dict[str, List[float]] = defaultdict(list)
    counts: Dict[str, List[int]] = defaultdict(list)
    deadline = time.perf_counter() + ctx.seconds
    for index in itertools.count():
        if index >= 1 and time.perf_counter() >= deadline:
            break
        market = fit_set[index % len(fit_set)]
        started = time.perf_counter()
        estimator = TMFGClusterer(FIT_CONFIG).fit(market.returns)
        wall = time.perf_counter() - started
        phase.record(wall)
        trace = f"fit-{index}"
        timed: Dict[str, SpanRecord] = {}
        with spans.span(trace, "pipeline", "api") as root:
            step = functools.partial(spans.span, trace, parent=root.span_id)
            with step("datasets.similarity", "datasets") as timed["datasets.similarity"]:
                similarity, dissimilarity = similarity_and_dissimilarity(market.returns)
            with step("core.tmfg", "core") as timed["core.tmfg"]:
                tmfg = construct_tmfg(similarity, prefix=FIT_CONFIG.prefix, build_bubble_tree=True)
            with step("graph.apsp", "graph") as timed["graph.apsp"]:
                paths = all_pairs_shortest_paths(
                    tmfg.csr().reweighted(dissimilarity), method=FIT_CONFIG.apsp_method
                )
            with step("core.direction", "core") as timed["core.direction"]:
                directions = compute_directions(tmfg.bubble_tree, tmfg.graph)
            with step("core.assignment", "core") as timed["core.assignment"]:
                assignment = assign_vertices(tmfg.bubble_tree, directions, similarity, paths)
            with step("core.hierarchy", "core") as timed["core.hierarchy"]:
                dendrogram = build_hierarchy(assignment, paths)
            with step("dendrogram.cut", "dendrogram") as timed["dendrogram.cut"]:
                labels = cut_k(dendrogram, SECTORS)
        outcome.failures += checks.same_labels(
            f"phase-by-phase fit of matrix {index % len(fit_set)}", estimator.labels_, labels
        )
        for name, record in timed.items():
            phase_ms[name].append(_ms(record.seconds))
        pipelines.append(root.seconds)
        walls.append(wall)
        steps = estimator.result_.step_seconds
        timed_by_fit = sum(steps[k] for k in ("tmfg", "apsp", "bubble-tree", "hierarchy"))
        overheads.append(
            wall - timed_by_fit - timed["datasets.similarity"].seconds - timed["dendrogram.cut"].seconds
        )
        counts["core.tmfg_rounds"].append(tmfg.rounds)
        counts["core.groups"].append(len(assignment.groups()))
        counts["core.subgroups"].append(len(assignment.subgroups()))

    metrics = {f"{name}_ms": statistics.median(v) for name, v in phase_ms.items()}
    metrics.update({name: float(statistics.median(v)) for name, v in counts.items()})
    fit_ms = _median_ms(walls)
    metrics["api.fit_overhead_ms"] = _median_ms(overheads)
    metrics["fit.unaccounted_share"] = 1.0 - sum(statistics.median(v) for v in phase_ms.values()) / fit_ms
    metrics["obs.trace_overhead_ratio"] = statistics.median(pipelines) / statistics.median(walls)
    outcome.metrics = metrics
    outcome.add_self_times()
    outcome.notes = {"fits": len(walls), "fit_ms": fit_ms,
                     "trace_overhead_base": "estimator fit wall time, untraced"}
    return outcome


# ---------------------------------------------------------------------------
# Serving workloads
# ---------------------------------------------------------------------------


def _binary_job(key: int, market: Market) -> Job:
    return Job(key, encode_request(market.returns, {}), BINARY_HEADERS)


def _json_job(key: int, market: Market) -> Job:
    body = json.dumps({"matrix": market.returns.tolist(), "config": {}}).encode("utf-8")
    return Job(key, body, JSON_HEADERS)


#: Rounds the serving phases of a run alternate in (``ServedRun.phases``).
SLICES = 6

#: The replica ids ``repro serve --workers 2`` gives its replicas.
FLEET_REPLICAS = ("replica-0", "replica-1")


def _hot_set(stream: InputStream, sizes: Sizes) -> List[Market]:
    """The hot set, split evenly over the fleet's ring and ordered so
    consecutive matrices live on different replicas.

    Without this the split varies with the seed (4-0, 3-1 or 2-2), and
    with it the fleet's batching and hit latency.  Every serving workload
    uses the same hot set for a seed.
    """
    from repro.serve.fleet.ring import rendezvous_rank, request_affinity_key

    homes: Dict[str, List[Market]] = {replica: [] for replica in FLEET_REPLICAS}
    quota = -(-sizes.hot_set // len(FLEET_REPLICAS))
    while sum(len(markets) for markets in homes.values()) < sizes.hot_set:
        market = stream.markets(1, sizes.hot_stocks)[0]
        key = request_affinity_key(_binary_job(0, market).body, WIRE_CONTENT_TYPE)
        home = homes[rendezvous_rank(key, FLEET_REPLICAS)[0]]
        if len(home) < quota:
            home.append(market)
    interleaved = itertools.chain.from_iterable(itertools.zip_longest(*homes.values()))
    return [market for market in interleaved if market is not None][: sizes.hot_set]


def _rotations(jobs: Sequence[Job], clients: int) -> List[Iterator[Job]]:
    """Client ``c`` cycles over every ``clients``-th job from ``c``.  With
    the hot set's replica-interleaved order, each client of the fleet
    keeps to one replica, so batching does not hinge on client phase."""
    return [itertools.cycle(jobs[c::clients]) for c in range(clients)]


def _traced_headers(job: Job) -> Dict[str, str]:
    return {**job.headers, TRACE_ID_HEADER: new_trace_id(), TRACE_ECHO_HEADER: "1"}


def _reference_fits(markets: Sequence[Market]) -> List[ClusterResult]:
    return [TMFGClusterer(SERVED_CONFIG).fit(m.returns).result_ for m in markets]


def _served_ari(markets: Sequence[Market], results: Dict[int, Dict[str, Any]]) -> float:
    """Mean ARI of the served labels against the planted sectors."""
    return float(np.mean([
        adjusted_rand_index(m.sectors, np.asarray(results[key]["labels"]))
        for key, m in enumerate(markets)
    ]))


def _counters(doc: Dict[str, Any]) -> Dict[str, float]:
    """Flat counters from a ``/metrics`` document (a fleet's is summed
    over its replicas)."""
    fleet = "fleet" in doc
    docs = [r["metrics"] for r in doc["replicas"].values() if r.get("metrics")] if fleet else [doc]
    counters: Dict[str, float] = defaultdict(float)
    for part in docs:
        histograms = dict(part["latency"])
        if "server.request" in part.get("spans", {}):
            histograms["server_request"] = part["spans"]["server.request"]
        for name, histogram in histograms.items():
            counters[f"{name}.count"] += histogram["count"]
            counters[f"{name}.sum_ms"] += histogram["sum_ms"]
        for key in ("hits", "misses", "stores"):
            counters[f"cache.{key}"] += (part.get("cache") or {}).get(key, 0)
        counters["batches"] += part["batching"]["batches"]
        counters["batched_requests"] += part["batching"]["batched_requests"]
        counters["rejected"] += part["rejected_total"]
    if fleet:
        counters["failovers"] = doc["fleet"]["failovers_total"]
        counters["restarts"] = doc["fleet"]["restarts_total"]
        for replica, entry in doc["replicas"].items():
            counters[f"routed.{replica}"] = entry["routed_total"]
    return dict(counters)


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


def _mean_ms(delta: Dict[str, float], name: str) -> float:
    count = delta.get(f"{name}.count", 0.0)
    return delta[f"{name}.sum_ms"] / count if count else 0.0


class Replies:
    """Per-phase reply bookkeeping: first result per matrix, serving
    blocks, and (traced) client spans with the server's echoed spans."""

    def __init__(self, spans: Optional[SpanStore] = None) -> None:
        self.spans = spans
        self.first: Dict[int, Dict[str, Any]] = {}
        self.serving: List[Dict[str, Any]] = []
        self.seconds: List[float] = []
        self._lock = threading.Lock()

    def rescaled(self, since: int, scale: float) -> List[float]:
        """Latencies of the replies from index ``since`` on, with all but
        their queue wait (the batcher's deadline, a timer) multiplied by
        ``scale``."""
        return [
            serving["queue_seconds"] + (seconds - serving["queue_seconds"]) * scale
            for seconds, serving in zip(self.seconds[since:], self.serving[since:])
        ]

    def __call__(self, job: Job, seconds: float, wall: float, envelope: Dict[str, Any]) -> None:
        result = envelope["result"]
        with self._lock:
            self.first.setdefault(job.key, result)
            self.serving.append(envelope["serving"])
            self.seconds.append(seconds)
        echo = envelope.get("trace")
        if echo is None or self.spans is None:
            return
        trace = echo["trace_id"]
        client_span = self.spans.add(SpanRecord(
            trace, self.spans.new_id(), None, "client.request", "serve", wall, wall + seconds,
        ))
        self.spans.add_echoed(trace, client_span.span_id, echo)

    def hit_fit_ms(self) -> float:
        return _median_ms([s["fit_seconds"] for s in self.serving]) if self.serving else 0.0

    def shared_batch_share(self) -> float:
        """Share of replies whose batch also held another distinct matrix."""
        if not self.serving:
            return 0.0
        return sum(s["batch_distinct"] > 1 for s in self.serving) / len(self.serving)


@dataclass
class ServedSetup:
    server: ServeProcess
    seconds: List[float]
    spawn_seconds: List[float]
    warm: Replies
    phase: Phase
    probes: Probes


def _start_warm(ctx: Context, hot: Sequence[Job], extra_args: Sequence[str]) -> ServedSetup:
    """Spawn ``repro serve`` and warm its cache with the hot set, as many
    times as the sizes ask, with a host probe around each; the last
    instance stays up for measuring."""
    phase = Phase("setup-warm-up")
    seconds, spawns = [], []
    probes = Probes()
    probes.take()
    for attempt in range(ctx.sizes.serve_setup_repeats):
        warm = Replies()
        started = time.perf_counter()
        server = ServeProcess(ctx.root, ctx.log_path(f"server-{attempt}"), extra_args)
        try:
            server.start()
            spawns.append(time.perf_counter() - started)
            with server.client() as client:
                for job in hot:
                    if send(client, job, phase, warm) is None:
                        raise RuntimeError(f"warm-up request {job.key} failed; see {server.log_path}")
            seconds.append(time.perf_counter() - started)
        except BaseException:
            server.stop()
            raise
        if attempt < ctx.sizes.serve_setup_repeats - 1:
            server.stop()
        probes.take()
    return ServedSetup(server, seconds, spawns, warm, phase, probes)


def _serve_workload(
    ctx: Context,
    extra_args: Sequence[str],
    measure: Callable[["ServedRun"], None],
) -> Outcome:
    sizes = ctx.sizes
    stream = InputStream(ctx.seed)
    hot_markets = _hot_set(stream, sizes)
    references = _reference_fits(hot_markets)
    hot = [_binary_job(i, m) for i, m in enumerate(hot_markets)]
    setup = _start_warm(ctx, hot, extra_args)
    outcome = Outcome(spans=SpanStore() if ctx.trace else None)
    outcome.phases.append(setup.phase)
    run = ServedRun(setup, outcome, hot_markets, hot, references)
    try:
        for key, reference in enumerate(references):
            outcome.failures += checks.served_matches(
                f"warm-up miss {key}", reference.to_dict(), [setup.warm.first.get(key)]
            )
        outcome.metrics["ari"] = _served_ari(hot_markets, setup.warm.first)
        measure(run)
        outcome.metrics["peak_rss_mb"] = setup.server.peak_rss_mb()
    finally:
        setup.server.stop()
    outcome.metrics["setup_s"] = statistics.median(setup.probes.rescale(setup.seconds))
    outcome.notes["raw_setup_s"] = statistics.median(setup.seconds)
    outcome.notes["setup_samples_s"] = setup.seconds
    outcome.notes["setup_probes_ms"] = setup.probes.samples
    outcome.notes["warm_up_miss_ms"] = [_ms(s) for s in setup.phase.latencies]
    outcome.add_self_times()
    return outcome


@dataclass(frozen=True)
class Plan:
    """One closed-loop phase: its jobs and clients."""

    name: str
    jobs: Sequence[Job]
    clients: int = 2
    traced: bool = False


@dataclass
class Measured:
    phase: Phase
    replies: Replies
    delta: Dict[str, float]
    #: The phase's latencies at reference host speed.
    at_reference: List[float] = field(default_factory=list)

    def p50_metrics(self, outcome: Outcome) -> None:
        outcome.metrics["op_p50_ms"] = _median_ms(self.at_reference)
        outcome.notes["raw_op_p50_ms"] = _median_ms(self.phase.latencies)


@dataclass
class ServedRun:
    """Everything a serving workload's measure step needs."""

    setup: ServedSetup
    outcome: Outcome
    hot_markets: List[Market]
    hot: List[Job]
    references: List[ClusterResult]

    @property
    def hot_json(self) -> List[Job]:
        return [_json_job(i, m) for i, m in enumerate(self.hot_markets)]

    @property
    def port(self) -> int:
        return self.setup.server.port

    def counters(self) -> Dict[str, float]:
        with self.setup.server.client() as client:
            return _counters(client.metrics())

    def phases(self, plans: Sequence["Plan"], seconds: float, slices: int = 1) -> List["Measured"]:
        """Closed-loop phases that share ``seconds`` equally, cut into
        ``slices`` rounds in which each phase takes its turn.

        Phases never overlap.  Alternating them spreads every phase over
        the whole run, so a stretch of host noise lands on all of them
        alike instead of on whichever phase it happened to meet.  A host
        probe between turns rescales each turn to reference speed.
        """
        measured = [
            Measured(Phase(plan.name), Replies(self.outcome.spans if plan.traced else None), {})
            for plan in plans
        ]
        probes = Probes()
        probes.take()
        for _ in range(slices):
            for plan, result in zip(plans, measured):
                before = self.counters()
                since = len(result.replies.seconds)
                deadline = time.perf_counter() + seconds / len(plans) / slices
                closed_loop(self.port, _rotations(plan.jobs, plan.clients), result.phase,
                            lambda: time.perf_counter() >= deadline, result.replies,
                            _traced_headers if plan.traced else None)
                probes.take()
                result.at_reference += result.replies.rescaled(
                    since, probes.scale(len(probes.samples) - 2)
                )
                for key, value in _delta(self.counters(), before).items():
                    result.delta[key] = result.delta.get(key, 0.0) + value
        for result in measured:
            self.outcome.phases.append(result.phase)
            self.outcome.notes[f"{result.phase.name}_counters"] = result.delta
        self.outcome.notes["probes_ms"] = probes.samples
        return measured

    def check_hits(self, name: str, replies: Replies) -> None:
        """Hits carry the warm-up's stored result byte for byte, which is
        the direct estimator fit up to timings."""
        for key, reference in enumerate(self.references):
            self.outcome.failures += checks.served_matches(
                f"{name} {key}", reference.to_dict(), [replies.first.get(key)],
                identical_to=self.setup.warm.first.get(key),
            )

    def serving_layers(self, replies: Replies, delta: Dict[str, float]) -> None:
        lookups = delta["cache.hits"] + delta["cache.misses"]
        self.outcome.metrics.update({
            "serve.queue_wait_ms": _mean_ms(delta, "queue_wait"),
            "serve.batch_fit_ms": _mean_ms(delta, "batch_fit"),
            "serve.hit_fit_ms": replies.hit_fit_ms(),
            "serve.mixed_batch_share": replies.shared_batch_share(),
            "cache.hit_rate": delta["cache.hits"] / lookups if lookups else 0.0,
            "cache.stores": delta["cache.stores"],
            "serve.mean_batch_size": (
                delta["batched_requests"] / delta["batches"] if delta["batches"] else 0.0
            ),
            "serve.rejected": delta["rejected"],
        })


def _in_process_layers(run: ServedRun, repeats: int = 7) -> Dict[str, float]:
    """Time, in this process, the library calls a served binary hit makes:
    the request decode, the cache key and lookup, the result and envelope
    encodes.  Medians over the hot set."""
    from repro.cache.fingerprint import result_cache_key
    from repro.cache.store import ResultCache
    from repro.serve.wire import decode_request, encode_envelope

    samples: Dict[str, List[float]] = defaultdict(list)
    for market, reference in zip(run.hot_markets, run.references):
        binary_body = _binary_job(0, market).body
        key = result_cache_key(SERVED_CONFIG, market.returns)
        cache = ResultCache()
        cache.put(key, reference)
        envelope = {"result": reference.to_dict(), "serving": dict(run.setup.warm.serving[0])}
        samples["serve.wire_decode_ms"].append(_timed(lambda: decode_request(binary_body), repeats))
        samples["cache.key_ms"].append(
            _timed(lambda: result_cache_key(SERVED_CONFIG, market.returns), repeats))
        samples["cache.get_ms"].append(_timed(lambda: cache.get(key), repeats))
        samples["api.to_dict_ms"].append(_timed(reference.to_dict, repeats))
        samples["serve.envelope_encode_ms"].append(_timed(lambda: encode_envelope(envelope), repeats))
    return {name: _median_ms(values) for name, values in samples.items()}


def _json_decode_ms(run: ServedRun, repeats: int = 3) -> float:
    """What the server does with a JSON body before the batcher sees it:
    ``json.loads`` and ``np.asarray``, in this process; median over the
    hot set."""
    samples = []
    for job in run.hot_json:
        samples.append(_timed(
            lambda: np.asarray(json.loads(job.body)["matrix"], dtype=float), repeats
        ))
    return _median_ms(samples)


def _trace_overhead(traced: Measured, untraced: Measured) -> float:
    return statistics.median(traced.phase.latencies) / statistics.median(untraced.phase.latencies)


def _transport_ms(phase: Phase, delta: Dict[str, float]) -> float:
    """Mean client-side latency minus the mean server request span."""
    return _ms(statistics.mean(phase.latencies)) - _mean_ms(delta, "server_request")


def serve_hit(ctx: Context) -> Outcome:
    def measure(run: ServedRun) -> None:
        metrics = run.outcome.metrics
        plans = [Plan("hit-bin", run.hot)]
        if ctx.trace:
            plans.append(Plan("hit-bin-traced", run.hot, traced=True))
        binary, *traced = run.phases(plans, ctx.seconds, SLICES)
        run.check_hits("binary hit", binary.replies)
        run.outcome.failures += checks.full_hit_rate("serve-hit binary phase", binary.delta)
        if not ctx.trace:
            binary.p50_metrics(run.outcome)
            # Reported, not a metric: over seeds on a noisy host its
            # spread reached 19-33%.
            run.outcome.notes["hit_bin_p90_ms"] = _p90_ms(binary.phase.latencies)
            return
        traced = traced[0]
        run.check_hits("traced binary hit", traced.replies)
        run.serving_layers(binary.replies, binary.delta)
        metrics["serve.transport_ms"] = _transport_ms(traced.phase, traced.delta)
        metrics["obs.trace_overhead_ratio"] = _trace_overhead(traced, binary)
        metrics.update(_in_process_layers(run))
        run.outcome.notes["trace_overhead_base"] = "untraced binary hit p50, same run"

    return _serve_workload(ctx, (), measure)


def serve_json(ctx: Context) -> Outcome:
    def measure(run: ServedRun) -> None:
        metrics = run.outcome.metrics
        # One client: two phase-lock on the event loop's JSON parse into
        # either of two steady states (p50 about 1x or 2x a parse).
        plans = [Plan("hit-json", run.hot_json, clients=1)]
        if ctx.trace:
            plans.append(Plan("hit-json-traced", run.hot_json, clients=1, traced=True))
        js, *traced = run.phases(plans, ctx.seconds, SLICES)
        # The hot set was warmed over the binary transport, so this also
        # checks that JSON and binary serve the same bytes.
        run.check_hits("JSON hit", js.replies)
        run.outcome.failures += checks.full_hit_rate("serve-json phase", js.delta)
        if not ctx.trace:
            js.p50_metrics(run.outcome)
            # Reported, not a metric: its spread over seeds reached 23%.
            run.outcome.notes["hit_json_p90_ms"] = _p90_ms(js.phase.latencies)
            return
        traced = traced[0]
        run.check_hits("traced JSON hit", traced.replies)
        run.serving_layers(js.replies, js.delta)
        metrics["serve.json_decode_ms"] = _json_decode_ms(run)
        metrics["obs.trace_overhead_ratio"] = _trace_overhead(traced, js)
        run.outcome.notes["trace_overhead_base"] = "untraced JSON hit p50, same run"

    return _serve_workload(ctx, (), measure)


def fleet_hit(ctx: Context) -> Outcome:
    def measure(run: ServedRun) -> None:
        metrics = run.outcome.metrics
        # One client: with two, the router, both replicas and the clients
        # contend for two cores, and the hit p50 grew faster than the host
        # slowed (31% raw spread over 10 seeds, 17% rescaled).
        plans = [Plan("hit-bin", run.hot, clients=1)]
        if ctx.trace:
            plans.append(Plan("hit-bin-traced", run.hot, clients=1, traced=True))
        binary, *traced = run.phases(plans, ctx.seconds, SLICES)
        run.check_hits("routed binary hit", binary.replies)
        run.outcome.failures += checks.full_hit_rate("fleet-hit binary phase", binary.delta)
        # JSON bodies take another affinity key than binary frames of the
        # same matrix, so they may land on a replica that fits afresh:
        # only the deterministic part can match there.
        json_phase = Phase("json-identity-check")
        json_replies = Replies()
        with run.setup.server.client() as client:
            for job in run.hot_json:
                send(client, job, json_phase, json_replies)
        run.outcome.phases.append(json_phase)
        for key in range(len(run.hot_markets)):
            run.outcome.failures += checks.served_matches(
                f"routed JSON hit {key}", run.references[key].to_dict(),
                [json_replies.first.get(key)],
            )
        if not ctx.trace:
            binary.p50_metrics(run.outcome)
            run.outcome.notes["hit_bin_p90_ms"] = _p90_ms(binary.phase.latencies)
            return
        traced = traced[0]
        run.serving_layers(binary.replies, binary.delta)
        routed = [v for k, v in binary.delta.items() if k.startswith("routed.")]
        metrics.update({
            "fleet.router_ms": _transport_ms(traced.phase, traced.delta),
            "fleet.max_replica_share": max(routed) / sum(routed) if sum(routed) else 0.0,
            "fleet.failovers": binary.delta["failovers"] + traced.delta["failovers"],
            "fleet.restarts": run.counters()["restarts"],
            "fleet.spawn_s": statistics.median(run.setup.spawn_seconds),
            "obs.trace_overhead_ratio": _trace_overhead(traced, binary),
        })
        run.outcome.notes["trace_overhead_base"] = "untraced routed binary hit p50, same run"

    return _serve_workload(ctx, ("--workers", "2"), measure)


WORKLOADS: Dict[str, Callable[[Context], Outcome]] = {
    "fit-cold": fit_cold,
    "serve-hit": serve_hit,
    "serve-json": serve_json,
    "fleet-hit": fleet_hit,
}

