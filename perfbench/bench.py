"""The benchmark proper: phases, metrics and checks of one run.

Every workload runs the same two timed phases on its own graph:

1. **pre-training** — ``CPDGPreTrainer.pretrain`` (TGN, default config,
   one epoch), repeated ``pretrain_rounds`` times on fresh trainers and
   timed in process CPU seconds;
2. **live serving** — the first epoch's result saved as an artifact,
   loaded by ``EmbeddingService.from_artifact`` (``index=True``), and
   driven by one in-process client for ``serve_rounds`` closed-loop
   rounds, each request timed in CPU seconds of the calling thread.

Serving runs in chunks between the epochs, so both phases sample the
whole run.  The workloads differ in graph shape and in how the run
length splits between the phases.  Work per run is fixed by
``--seconds`` (not by how fast the machine is), so every metric
compares equal work.  After the timed phases, checks (a)-(d) of
``checks.py`` run against the raw arrays and a cache-free replica;
``--trace 1`` then adds traced passes for the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import os
import pickle
import resource
import sys
import time
import numpy as np

import checks
import workloads as wl
from workloads import Shape

REFERENCE_SECONDS = 20.0
BACKBONE = "tgn"
TOPK = 10
CHI2_DRAWS = 4000        # η = 1 draws per (root, mode) in check (a)
CHECK_BATCHES = 8        # batches whose subgraphs checks (b)/(c) verify
CHECK_ROWS = 32          # rows per checked batch
NEIGHBOUR_PROBES = 120   # (node, t) pairs of the final adjacency check
RECALL_EVERY = 5         # rounds between exact full-catalog recall checks
# A top-k that skips the search and rescores a shortlist taken without
# it finds, on average, shortlist/catalog of the exact top-10 (0.03-0.06
# here).  The served answers must find SEARCH_GAIN times that over the
# run; the stale IVF index of this program finds 3-8 times it.
SEARCH_GAIN = 1.5


@dataclasses.dataclass(frozen=True)
class Workload:
    shape: Shape
    pretrain_rounds: int   # pretrain() calls at REFERENCE_SECONDS
    serve_rounds: int      # serving rounds at REFERENCE_SECONDS


# Why each workload exists is its "why" line in BENCHMARK.json.
WORKLOADS = {
    "pretrain-hubs": Workload(Shape(users=20_000, items=2_000,
                                    events=12_000, hubs=True),
                              pretrain_rounds=8, serve_rounds=160),
    "pretrain-flat": Workload(Shape(users=20_000, items=4_000,
                                    events=20_000, hubs=False),
                              pretrain_rounds=6, serve_rounds=120),
    "serve-live": Workload(Shape(users=20_000, items=2_000,
                                 events=10_000, hubs=True),
                           pretrain_rounds=6, serve_rounds=240),
}


# ----------------------------------------------------------------------
# process-level measurements
# ----------------------------------------------------------------------

def cpu_seconds() -> float:
    """User+sys CPU of this process (all threads) and reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Calibration:
    """CPU seconds of a fixed kernel, sampled between the timed phases.

    The guest's core speed drifts: the same pre-training epoch takes
    2.5 CPU seconds in one spell of minutes and 1.5 in the next, with
    no steal.  A kernel that mixes what the program spends its time on
    (float32 matmuls of the encoder's shapes, small numpy ops,
    interpreter loops over dicts and lists) slows down with it.  So the
    CPU time of each pre-training epoch is scaled by ``REFERENCE_S``
    over the mean of the samples just before and just after it, and each
    serving chunk's latencies by the same over the mean of short slices
    of the kernel run after every serving round, which meet the speed
    of the moments the requests met: CPU time on a core that runs the
    kernel in ``REFERENCE_S`` seconds.  The kernel never calls the
    program, so a change to the program does not move it.
    """

    REFERENCE_S = 0.25      # the kernel's CPU time on the reference core
    ITERATIONS = 5000
    SLICE = 50              # a slice is 1/SLICE of the kernel

    def __init__(self):
        rng = np.random.default_rng(0)
        # The shapes of the default config's encoder: batches of 200
        # rows, 32-wide memory and embeddings.
        self._a = rng.standard_normal((200, 64)).astype(np.float32)
        self._b = rng.standard_normal((64, 32)).astype(np.float32)
        self._idx = rng.integers(0, 5000, 600)
        self._big = rng.random(5000)
        self.samples: list[float] = []
        self.slices: list[float] = []
        self._kernel()  # first calls pay numpy's lazy set-up

    def _kernel(self, iterations: int = ITERATIONS) -> float:
        # With the collector off: a full collection would scan the
        # program's heap, whose size is the program's, not the core's.
        gc.disable()
        try:
            start = time.process_time()
            seen: dict = {}
            acc = 0.0
            for _ in range(iterations):
                x = np.tanh(self._a @ self._b) * 0.5
                acc += float(x.sum())
                order = np.argsort(self._big[self._idx], kind="stable")
                for j in np.unique(self._idx[order[:100]])[:20].tolist():
                    seen[j] = seen.get(j, 0) + 1
                acc += len([k * 2 for k in range(30)])
            return time.process_time() - start
        finally:
            gc.enable()

    def sample(self) -> int:
        """Time the kernel once; returns the sample's index."""
        self.samples.append(self._kernel())
        return len(self.samples) - 1

    def slice(self) -> float:
        """Time one slice of the kernel; returns its CPU seconds."""
        spent = self._kernel(self.ITERATIONS // self.SLICE)
        self.slices.append(spent)
        return spent

    def slice_factor(self, first: int, stop: int) -> float:
        """Multiplier to reference-core seconds from slices
        ``[first, stop)``."""
        mean = float(np.mean(self.slices[first:stop])) * self.SLICE
        return self.REFERENCE_S / mean

    def factor(self, before: int, after: int) -> float:
        """Multiplier from CPU seconds spent between samples ``before``
        and ``after`` to reference-core seconds."""
        local = (self.samples[before] + self.samples[after]) / 2.0
        return self.REFERENCE_S / local


def steal_seconds() -> float:
    """Machine-wide hypervisor steal so far (``/proc/stat``), or NaN."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


# ----------------------------------------------------------------------
# phase 1: pre-training
# ----------------------------------------------------------------------

def eq17_loss(history, beta: float) -> np.ndarray:
    """Per-batch L_pre = (1-β)·L_η + β·L_ε + L_tlp (paper Eq. 17)."""
    h = np.asarray(history, dtype=np.float64)
    return (1.0 - beta) * h[:, 0] + beta * h[:, 1] + h[:, 2]


@contextlib.contextmanager
def quiet_phase():
    """Collect garbage and freeze the survivors for the phase, so the
    collector's passes inside it scan only what the phase allocates;
    unfreeze after it, so their garbage can be collected later."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def pretrain_round(trainer, stream) -> dict:
    with quiet_phase():
        cpu0, wall0 = cpu_seconds(), time.perf_counter()
        result = trainer.pretrain(stream)
        wall = time.perf_counter() - wall0
        cpu = cpu_seconds() - cpu0
    losses = np.asarray(result.loss_history, dtype=np.float64)
    return {"result": result, "history": result.loss_history, "cpu_s": cpu,
            "wall_s": wall, "batches": len(losses),
            "failed": int((~np.isfinite(losses).all(axis=1)).sum())}


# ----------------------------------------------------------------------
# phase 2: live serving
# ----------------------------------------------------------------------

class OpLog:
    """The served operations in order, written to a file after every
    round, so the log of served rows stays out of the peak RSS."""

    def __init__(self, path: str):
        self._fh = open(path, "w+b")
        self._pending: list = []
        self._count = 0

    def append(self, op) -> None:
        self._pending.append(op)

    def __len__(self) -> int:
        return self._count + len(self._pending)

    def flush(self) -> None:
        pickle.dump(self._pending, self._fh)
        self._count += len(self._pending)
        self._pending = []

    def __iter__(self):
        self.flush()
        self._fh.seek(0)
        while True:
            try:
                ops = pickle.load(self._fh)
            except EOFError:
                return
            yield from ops

    def close(self) -> None:
        self._fh.close()


def serve_rounds(service, shape: Shape, rounds: list, log: OpLog,
                 start: int = 0, calibration: Calibration | None = None):
    """Drive ``service`` through the closed-loop ``rounds``.

    Per round: ingest one traffic block; the embed and full-catalog
    top-k requests at the block's query time; then the stale-row probe —
    embed the round's probe users, ingest one writer → probe-item event
    each, embed the probe users again.  ``rounds`` are the live rounds
    from index ``start`` on; every request goes to ``log``; a
    ``calibration`` slice runs after every round.  Returns the traffic
    requests' latencies per kind and the process CPU seconds spent,
    slices excluded.

    A request's latency is the CPU time of this (the calling) thread
    while the service answers it: steal and other processes do not count,
    nor does the background compactor's thread.
    """
    lat = {"embed": [], "topk": [], "ingest": []}
    cpu0 = cpu_seconds()
    sliced = 0.0

    def call(fn, *args, **kwargs):
        start = time.thread_time()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # a failed request is counted, not fatal
            out = exc
        return out, time.thread_time() - start

    for index, rnd in enumerate(rounds, start):
        probe_users, writers, probe_items = shape.probe_group(index)
        out, dt = call(service.ingest, src=rnd.src, dst=rnd.dst,
                       timestamps=rnd.ts)
        lat["ingest"].append(dt)
        log.append(("ingest", rnd.src, rnd.dst, rnd.ts, out))
        for nodes in rnd.embed_nodes:
            out, dt = call(service.embed, nodes, rnd.query_t)
            lat["embed"].append(dt)
            log.append(("embed", nodes, rnd.query_t, out, False))
        for src in rnd.topk_src.tolist():
            out, dt = call(service.top_k, src, rnd.query_t, TOPK)
            lat["topk"].append(dt)
            log.append(("topk", src, rnd.query_t, out, index))
        out, _ = call(service.embed, probe_users, rnd.probe_t)
        log.append(("embed", probe_users, rnd.probe_t, out, True))
        writers_ts = np.full(wl.PROBES, rnd.probe_ingest_t)
        out, _ = call(service.ingest, src=writers, dst=probe_items,
                      timestamps=writers_ts)
        log.append(("ingest", writers, probe_items, writers_ts, out))
        out, _ = call(service.embed, probe_users, rnd.probe_t)
        log.append(("embed", probe_users, rnd.probe_t, out, True))
        log.flush()
        if calibration is not None:
            sliced += calibration.slice()
    return lat, cpu_seconds() - cpu0 - sliced


def replay_against_reference(log, reference) -> dict:
    """Check (d): replay ``log`` on a cache-free, index-free replica.

    Between two ingests the replica's state is fixed, so all rows the
    requests of that stretch need are computed in one pass per query
    time.  Returns failed-operation counts, stale rows, recall@10 (on
    every ``RECALL_EVERY``-th round) and the problems found.
    """
    out = {"failed": 0, "stale_rows": 0, "recalls": [], "unsearched": [],
           "problems": []}
    group: list = []
    for op in log:
        if op[0] != "ingest":
            group.append(op)
            continue
        _check_group(group, reference, out)
        group = []
        _, src, dst, ts, served = op
        reference.ingest(src=src, dst=dst, timestamps=ts)
        if isinstance(served, Exception) or served != len(src):
            out["failed"] += 1
    _check_group(group, reference, out)
    out["recall"] = float(np.mean(out.pop("recalls")))
    floor = SEARCH_GAIN * float(np.mean(out.pop("unsearched")))
    if not out["recall"] >= floor:
        out["problems"].append(
            f"(d) top-k recall@10 {out['recall']:.3f} < {floor:.3f}, "
            f"{SEARCH_GAIN} times what a top-k without search finds")
    return out


def _check_group(group, reference, out) -> None:
    needed: dict = {}
    catalog = reference._candidates
    for op in group:
        nodes = needed.setdefault(op[2], [])
        if op[0] == "embed":
            nodes.append(np.asarray(op[1]))
            continue
        nodes.append(np.array([op[1]]))
        if not isinstance(op[3], Exception):
            nodes.append(np.asarray(op[3][0]))
        if op[4] % RECALL_EVERY == 0:
            nodes.append(catalog)
    rows = {}
    for t, parts in needed.items():
        nodes = np.unique(np.concatenate(parts))
        rows[t] = dict(zip(nodes.tolist(), reference.embed(nodes, t)))
    for op in group:
        at = rows[op[2]]
        if op[0] == "embed":
            served = op[3]
            if isinstance(served, Exception):
                out["failed"] += 1
                out["problems"].append(f"embed raised {served!r}")
                continue
            want = np.stack([at[n] for n in np.asarray(op[1]).tolist()])
            bad = checks.rows_disagree(served, want)
            out["stale_rows"] += int(bad.sum())
            out["failed"] += int(bad.any())
            continue
        _, src, t, served, index = op
        if isinstance(served, Exception):
            out["failed"] += 1
            out["problems"].append(f"top_k raised {served!r}")
            continue
        ids, scores = served
        found = checks.topk_problems(ids, scores, at[src], at, catalog,
                                     TOPK)
        if found:
            out["failed"] += 1
            out["problems"].extend(found)
            continue
        if index % RECALL_EVERY == 0:
            mat = np.stack([at[n] for n in catalog.tolist()])
            exact = mat.astype(np.float64) @ at[src].astype(np.float64)
            out["recalls"].append(checks.recall_at_k(ids, exact, catalog,
                                                     TOPK))
            shortlist = reference.config.index_shortlist
            out["unsearched"].append(min(1.0, shortlist / len(catalog)))


def live_events(log) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    parts = [op[1:4] for op in log if op[0] == "ingest"]
    return tuple(np.concatenate([p[i] for p in parts]) for i in range(3))


# ----------------------------------------------------------------------
# checks (a)-(c) on the pre-training graph
# ----------------------------------------------------------------------

def sampler_checks(events: checks.Events, finder, trainer, stream,
                   seed: int, plan) -> list[str]:
    from repro.core.samplers import EtaBFSSampler
    from repro.stream import SamplingContext, produce_batch

    cfg = trainer.config
    problems = []
    rng = np.random.default_rng([seed, 11])
    # (a) the η = 1 one-hop draw of the highest-degree roots, both modes.
    t_end = float(events.ts[-1]) + 1.0
    degree = np.bincount(np.concatenate([events.src, events.dst]),
                         minlength=stream.num_nodes)
    hubs = np.argsort(-degree, kind="stable")[:2]
    for mode in ("chronological", "reverse"):
        sampler = EtaBFSSampler(finder, eta=1, depth=1, probability=mode,
                                tau=cfg.tau)
        for root in hubs.tolist():
            nodes, probs = checks.eta_node_probs(events, root, t_end,
                                                 cfg.tau, mode)
            chunk = max(1, min(CHI2_DRAWS, 2_000_000 // int(degree[root])))
            drawn = []
            for lo in range(0, CHI2_DRAWS, chunk):
                size = min(chunk, CHI2_DRAWS - lo)
                batch = sampler.sample_batch(np.full(size, root),
                                             np.full(size, t_end), rng=rng)
                drawn.append(batch.nodes)
            counts = checks.draw_counts(np.concatenate(drawn), nodes)
            if counts is None or counts.sum() != CHI2_DRAWS:
                problems.append(f"(a) {mode} root {root}: draws outside "
                                "the neighbourhood or missing")
                continue
            p = checks.chi2_pvalue(counts, probs)
            if p < checks.CHI2_MIN_P:
                problems.append(f"(a) {mode} root {root}: chi2 p={p:.2e}")
    # (b) + (c) on produced batches spread over the epoch.
    ctx = SamplingContext(trainer.producer_spec(stream), stream=stream,
                          finder=finder)
    picks = np.linspace(0, len(plan) - 1, CHECK_BATCHES).astype(int)
    for seq in np.unique(picks).tolist():
        item = plan.item(seq)
        prepared = produce_batch(ctx, item)
        pick = np.linspace(0, len(prepared.batch) - 1, CHECK_ROWS)
        pick = np.unique(pick.astype(int))
        roots = np.asarray(prepared.batch.src, dtype=np.int64)[pick]
        ts = np.asarray(prepared.batch.timestamps, dtype=np.float64)[pick]
        for name, sub, width in (
                ("eta+", prepared.temporal_pos, cfg.eta),
                ("eta-", prepared.temporal_neg, cfg.eta),
                ("eps+", prepared.structural_pos, cfg.epsilon)):
            rows = [sub.row(i) for i in pick.tolist()]
            for msg in checks.reach_violations(events, roots, ts, rows,
                                               cfg.depth, width):
                problems.append(f"(b) batch {seq} {name}: {msg}")
        # ε-DFS rows list the distinct first-hop picks first.
        rows = [prepared.structural_pos.row(i) for i in pick.tolist()]
        for msg in checks.eps_mismatches(events, roots, ts, rows,
                                         cfg.epsilon):
            problems.append(f"(c) batch {seq}: {msg}")
    return problems


# ----------------------------------------------------------------------
# per-layer measurements (--trace 1)
# ----------------------------------------------------------------------

class CountingFinder:
    """Forwards to a ``NeighborFinder``; counts the neighbour entries
    before ``t`` of every frontier the η-BFS sampler expands."""

    def __init__(self, finder):
        self._finder = finder
        self.support = 0

    def batch_before(self, nodes, ts):
        starts, ends = self._finder.batch_before(nodes, ts)
        self.support += int((ends - starts).sum())
        return starts, ends

    def __getattr__(self, name):
        return getattr(self._finder, name)


def sampler_layer(finder, cfg, stream, plan) -> dict:
    from repro.core.contrast import draw_other_roots
    from repro.core.samplers import EpsilonDFSSampler, EtaBFSSampler
    from repro.stream import batch_rngs

    counting = CountingFinder(finder)
    pos = EtaBFSSampler(counting, cfg.eta, cfg.depth, "chronological",
                        tau=cfg.tau)
    neg = EtaBFSSampler(counting, cfg.eta, cfg.depth, "reverse", tau=cfg.tau)
    dfs = EpsilonDFSSampler(finder, cfg.epsilon, cfg.depth)
    eta_ms, eps_ms, support = [], [], []
    for item in plan:
        rngs = batch_rngs(cfg.seed, item.epoch, item.batch_idx)
        roots = stream.src[item.start:item.stop]
        ts = stream.timestamps[item.start:item.stop]
        counting.support = 0
        start = time.perf_counter()
        pos.sample_batch(roots, ts, rng=rngs.temporal_pos)
        neg.sample_batch(roots, ts, rng=rngs.temporal_neg)
        eta_ms.append((time.perf_counter() - start) * 1e3)
        support.append(counting.support)
        others = draw_other_roots(roots, stream.num_nodes, rngs.structural)
        start = time.perf_counter()
        dfs.sample_batch(roots, ts)
        dfs.sample_batch(others, ts)
        eps_ms.append((time.perf_counter() - start) * 1e3)
    tenth = max(1, len(eta_ms) // 10)
    return {
        "samplers.eta_bfs_ms": float(np.mean(eta_ms)),
        "samplers.eta_bfs_late_over_early":
            float(np.mean(eta_ms[-tenth:]) / np.mean(eta_ms[:tenth])),
        "samplers.eta_support_rows": float(np.mean(support)),
        "samplers.eps_dfs_ms": float(np.mean(eps_ms)),
    }


def producer_layer(trainer, stream, finder, plan) -> float:
    from repro.stream import SerialProducer
    producer = SerialProducer(trainer.producer_spec(stream), plan,
                              stream=stream, finder=finder)
    times = []
    batches = iter(producer)
    while True:
        start = time.perf_counter()
        try:
            next(batches)
        except StopIteration:
            break
        times.append((time.perf_counter() - start) * 1e3)
    return float(np.mean(times))


STAGES = ("produce", "forward", "backward", "optim", "register")


def span_layer(records, steps: int, pretrain_wall: float) -> dict:
    """Self time per step of each ``pretrain.*`` span, their coverage of
    ``pretrain()`` wall time, and the late-epoch stage split."""
    child_wall: dict = {}
    for rec in records:
        if rec.get("parent") is not None:
            child_wall[rec["parent"]] = child_wall.get(rec["parent"], 0.0) \
                + rec["wall_s"]
    per_stage = {stage: [] for stage in STAGES}
    covered = 0.0
    for rec in records:
        name = rec["name"]
        if not name.startswith("pretrain."):
            continue
        self_s = rec["wall_s"] - child_wall.get(rec["span"], 0.0)
        stage = name.split(".", 1)[1]
        if stage in per_stage:
            per_stage[stage].append(self_s)
        if rec.get("parent") is None:
            covered += rec["wall_s"]
    # The loop's last produce span is the wait that ends the epoch.
    per_stage["produce"] = per_stage["produce"][:steps]
    out = {f"pretrain.{stage}_ms": 1e3 * float(np.sum(v)) / steps
           for stage, v in per_stage.items()}
    out["pretrain.span_coverage"] = covered / pretrain_wall
    tenth = max(1, steps // 10)
    late = {stage: float(np.sum(v[-tenth:])) for stage, v in
            per_stage.items()}
    step_late = sum(late.values())
    out["pretrain.produce_late_share"] = late["produce"] / step_late
    out["pretrain.produce_late_over_next"] = late["produce"] / max(
        v for stage, v in late.items() if stage != "produce")
    return out


def registry_count(name: str, mode: str) -> float:
    from repro import obs
    return float(obs.snapshot().get(f'{name}{{mode="{mode}"}}', 0))


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------

def drain_compactor(service) -> None:
    """Wait until the service's background compactor is idle, so none of
    its work lands in a later phase's process CPU time."""
    compactor = getattr(service, "_compactor", None)
    if compactor is not None:
        compactor.drain()


def run(name: str, seed: int, seconds: float, trace: bool,
        workdir: str) -> tuple[dict, dict]:
    spec = WORKLOADS[name]
    scale = seconds / REFERENCE_SECONDS
    n_pretrain = max(1, round(spec.pretrain_rounds * scale))
    n_serve = max(4, round(spec.serve_rounds * scale))
    shape = dataclasses.replace(spec.shape, probe_rounds=n_serve)
    live_rounds = [wl.serving_round(shape, seed, index)
                   for index in range(n_serve)]

    raw = wl.history(shape, seed)
    stream_path = os.path.join(workdir, "history.npz")
    wl.save_stream(raw, stream_path)
    events = checks.Events(raw["src"], raw["dst"], raw["timestamps"])
    calibration = Calibration()

    # -- set-up, in CPU seconds of this process: cold program import,
    # stream load, trainer construction.
    gc.collect()
    first_sample = calibration.sample()
    start = time.process_time()
    from repro.core import CPDGConfig, CPDGPreTrainer
    from repro.graph.io import load_npz
    stream = load_npz(stream_path)
    cfg = CPDGConfig(epochs=1, seed=seed)
    trainer = CPDGPreTrainer.from_backbone(BACKBONE, stream.num_nodes, cfg)
    setup_pretrain = time.process_time() - start

    from repro import obs
    from repro.api import PretrainArtifact, RunConfig, stream_fingerprint
    from repro.graph.neighbor_finder import NeighborFinder
    from repro.serve import EmbeddingService
    from repro.stream import BatchPlan

    # -- timed phases, interleaved: epoch 0, then one serving chunk after
    # every epoch, so both phases sample the whole run, with a
    # calibration sample before each.  Every epoch computes the same
    # result; the service serves epoch 0's.
    artifact_path = os.path.join(workdir, "artifact.npz")
    log = OpLog(os.path.join(workdir, "ops.pickle"))
    chunks = np.array_split(np.arange(n_serve), n_pretrain)
    rounds, chunk_cpu, brackets = [], [], []
    lat = {"embed": [], "topk": [], "ingest": []}
    layer = {}
    for index, chunk in enumerate(chunks):
        if index:
            trainer = CPDGPreTrainer.from_backbone(BACKBONE,
                                                   stream.num_nodes, cfg)
            drain_compactor(service)
        before = calibration.sample()
        if index == 0:
            setup_pretrain *= calibration.factor(first_sample, before)
        rounds.append(pretrain_round(trainer, stream))
        if index == 0:
            if trace:
                layer.update({
                    f"compile.train_{kind}": registry_count(
                        f"repro_compile_{kind}_total", "train")
                    for kind in ("replays", "traces", "eager")})
            PretrainArtifact(
                result=rounds[0]["result"],
                run_config=RunConfig(pretrain=cfg),
                num_nodes=stream.num_nodes,
                dataset_fingerprint=stream_fingerprint(stream),
                dataset_name=name).save(artifact_path)
            with quiet_phase():
                start = time.process_time()
                service = EmbeddingService.from_artifact(
                    artifact_path, history=stream, index=True)
                setup_serve = time.process_time() - start
        else:
            del rounds[-1]["result"]  # only epoch 0's result is served
        middle = calibration.sample()
        rounds[-1]["ref_cpu_s"] = rounds[-1]["cpu_s"] * calibration.factor(
            before, middle)
        if index == 0:
            setup_serve *= calibration.factor(before, middle)
        first_slice = len(calibration.slices)
        with quiet_phase():
            part_lat, cpu = serve_rounds(
                service, shape, [live_rounds[i] for i in chunk], log,
                start=int(chunk[0]) if len(chunk) else 0,
                calibration=calibration)
        chunk_cpu.append((len(chunk), cpu))
        brackets.append((first_slice, len(chunk)))
        for kind, values in part_lat.items():
            lat[kind] += values
    calibration.sample()
    # Each chunk's latencies in reference-core seconds.
    per_round = {"embed": wl.EMBEDS, "topk": wl.TOPKS, "ingest": 1}
    for kind in lat:
        scale = np.concatenate([
            np.full(per_round[kind] * size,
                    calibration.slice_factor(first, first + size))
            for first, size in brackets])
        lat[kind] = np.asarray(lat[kind]) * scale
    service.close()
    rss = peak_rss_mb()
    stats = service.stats()
    if trace:
        layer["compile.inference_replays"] = float(stats["compile"]["replays"])
    losses = eq17_loss(rounds[0]["history"], cfg.beta)
    tenth = max(1, len(losses) // 10)

    # -- checks.
    checks_start = time.perf_counter()
    problems = [f"epoch {i} loss history differs from epoch 0's"
                for i, r in enumerate(rounds[1:], 1)
                if r["history"] != rounds[0]["history"]]
    reference = EmbeddingService.from_artifact(
        artifact_path, history=stream, cache_capacity=0, index=False)
    replay = replay_against_reference(log, reference)
    reference.close()
    problems += replay["problems"]
    live = checks.Events(*live_events(log))
    everything = events.extend(live.src, live.dst, live.ts)
    rng = np.random.default_rng([seed, 12])
    probe_nodes = np.concatenate([
        shape.probe_items[:8], shape.probe_users[:8],
        rng.integers(0, shape.num_nodes, NEIGHBOUR_PROBES)])
    probe_ts = rng.uniform(0.0, float(everything.ts[-1]) + 1.0,
                           len(probe_nodes))
    problems += [f"(d) {msg}" for msg in checks.neighbour_mismatches(
        service.finder.before, everything, probe_nodes, probe_ts)]
    plan = BatchPlan(stream.num_events, cfg.batch_size, epochs=1,
                     seed=cfg.seed)
    finder = NeighborFinder(stream)
    problems += sampler_checks(events, finder, trainer, stream, seed, plan)

    checks_s = time.perf_counter() - checks_start
    pretrain_failed = sum(r["failed"] for r in rounds)
    attempted = sum(r["batches"] for r in rounds) + len(log)
    failed = pretrain_failed + replay["failed"]
    log.close()
    embed_p50, embed_tail = checks.p50_and_tail(lat["embed"])
    topk_p50, topk_tail = checks.p50_and_tail(lat["topk"])
    end_to_end = {
        "setup_s": setup_serve if name == "serve-live" else setup_pretrain,
        "peak_rss_mb": rss,
        "train_events_per_ref_cpu_s": float(np.median(
            [stream.num_events / r["ref_cpu_s"] for r in rounds])),
        "embed_p50_ref_cpu_ms": embed_p50 * 1e3,
        "embed_tail_ref_cpu_ms": embed_tail * 1e3,
        "topk_p50_ref_cpu_ms": topk_p50 * 1e3,
        "topk_tail_ref_cpu_ms": topk_tail * 1e3,
        "ingest_p50_ref_cpu_ms": float(np.median(lat["ingest"])) * 1e3,
    }
    info = {"attempted": attempted, "failed": failed, "problems": problems,
            "end_to_end": end_to_end, "checks_s": checks_s,
            "pretrain_cpu_s": [round(r["cpu_s"], 3) for r in rounds],
            "calibration_s": [round(c, 3) for c in calibration.samples],
            "recall": replay["recall"]}
    if not trace:
        return info, {}

    # -- per-layer: traced passes and the benchmark's own timers.
    planner = stats["planner"]
    index = stats["index"] or {}
    layer.update({
        "pretrain.final_loss": float(losses[-tenth:].mean()),
        "serve.index.recall_at_10": replay["recall"],
        "serve.planner.cache_hit_rate": float(planner["cache_hit_rate"]),
        "serve.planner.encoder_passes": planner["batches"] / n_serve,
        "serve.planner.rows_computed": planner["cache_misses"] / n_serve,
        "serve.index.scanned_per_query":
            index.get("scanned", 0) / max(index.get("queries", 0), 1),
        "serve.index.rebuilds": float(index.get("rebuilds", 0)),
        "serve.ingest.touched_rows":
            stats["ingest"]["touched_rows"] / max(stats["ingest"]["blocks"],
                                                  1),
        "serve.graph.compactions": float(stats["graph"]["compactions"]),
        "serve.stale_rows": replay["stale_rows"] / n_serve,
    })
    start = time.perf_counter()
    NeighborFinder(stream)
    layer["graph.csr_build_s"] = time.perf_counter() - start
    start = time.perf_counter()
    PretrainArtifact.load(artifact_path)
    layer["api.artifact_load_s"] = time.perf_counter() - start
    layer.update(sampler_layer(finder, cfg, stream, plan))
    layer["stream.produce_ms"] = producer_layer(trainer, stream, finder,
                                                plan)

    obs.configure(enabled=True, buffer_size=1 << 20)
    traced = pretrain_round(
        CPDGPreTrainer.from_backbone(BACKBONE, stream.num_nodes, cfg),
        stream)
    records = obs.trace_buffer()
    obs.reset()
    layer.update(span_layer(records, traced["batches"], traced["wall_s"]))
    untraced_cpu = float(np.median([r["cpu_s"] for r in rounds]))
    layer["obs.trace_overhead.pretrain"] = traced["cpu_s"] / untraced_cpu - 1

    first, untraced_cpu = chunk_cpu[0]
    service = EmbeddingService.from_artifact(artifact_path, history=stream,
                                             index=True)
    scratch_log = OpLog(os.path.join(workdir, "traced_ops.pickle"))
    obs.configure(enabled=True, buffer_size=1 << 20)
    _, traced_cpu = serve_rounds(service, shape, live_rounds[:first],
                                 scratch_log)
    obs.reset()
    scratch_log.close()
    service.close()
    layer["obs.trace_overhead.serve"] = traced_cpu / untraced_cpu - 1
    return info, layer


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------

def declared_units(kind: str) -> dict[str, str]:
    """``{name: unit}`` of the metrics ``BENCHMARK.json`` declares."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "BENCHMARK.json")
    with open(path) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="CPDG pre-training and live-serving benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=REFERENCE_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv, workdir: str) -> int:
    args = parse_args(argv)
    steal0, wall0 = steal_seconds(), time.perf_counter()
    info, layer = run(args.workload, args.seed, args.seconds,
                      bool(args.trace), workdir)
    wall = time.perf_counter() - wall0
    steal = steal_seconds() - steal0
    for problem in info["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"run: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} wall_s={wall:.3f} steal_s={steal:.3f} "
          f"cores={os.cpu_count()} checks_s={info['checks_s']:.3f} "

          f"recall_at_10={info['recall']:.3f} "
          f"pretrain_cpu_s={info['pretrain_cpu_s']} "
          f"calibration_s={info['calibration_s']}")
    values = layer if args.trace else info["end_to_end"]
    declared = declared_units("per_layer" if args.trace else "end_to_end")
    if set(values) != set(declared):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(declared))} "
                           "are measured or declared, not both")
    metrics = {key: {"value": float(values[key]), "unit": unit}
               for key, unit in declared.items()}
    print(json.dumps({"correct": not info["problems"],
                      "attempted": int(info["attempted"]),
                      "failed": int(info["failed"]),
                      "metrics": metrics}))
    return 0
