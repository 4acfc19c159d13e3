"""The three benchmark workloads, all at the paper's 1024/160 group.

Each workload is one process with one client thread, takes its inputs from
the seed alone, and returns an :class:`Outcome`: the end-to-end metrics
(untraced run) or the per-layer metrics (traced run), the attempted and
failed operation counts, and a verdict for every correctness check.

* ``pay_churn`` — closed-loop payments between 32 durable peers under
  churn.  Three episodes, each on a freshly set-up network with its own
  seed; an unjournaled replay of the first seed must choose the same
  payment methods.
* ``broker_batch`` — seeded Zipf rounds of 64 signed requests through the
  broker's batched pipeline; only ``ThroughputEngine.run`` is timed.
* ``sim_million`` — the fast simulation engine at one million peers; at
  least three simulations, alternating two seeds, so equal seeds must give
  equal counts.

Journals go under the ``work`` directory the caller passes in; the caller
deletes it after the run, outside every timed region (deleting fsynced
journals is slow on some file systems).
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import time
from collections.abc import Iterator
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from repro.core.errors import ProtocolError
from repro.core.network import PeerConfig, WhoPayNetwork
from repro.core.peer import RENEWAL_WINDOW_FRACTION
from repro.crypto.params import PARAMS_1024_160
from repro.net.transport import NetworkError
from repro.pipeline import LoadGenerator, ThroughputEngine, VerificationPool
from repro.sim import engine as sim_engine
from repro.sim.config import setup_b_point
from repro.store.audit import audit_broker
from repro.store.groupcommit import GroupCommitter

from tracer import SPAN_NAMES, Patcher, SpanRecorder

PARAMS_NAME = "PARAMS_1024_160"
PARAMS = PARAMS_1024_160

#: End-to-end metrics: (name, unit).  Every workload reports all of them.
END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
)

#: Per-layer metrics beyond the per-span ``.calls`` / ``.self_ms`` pairs.
LAYER_EXTRAS: tuple[tuple[str, str], ...] = (
    ("messages.decodes_per_broker_request", "ratio"),
    ("net.rpc_attempts_per_call", "ratio"),
    ("store.records_per_fsync", "ratio"),
    ("pipeline.preverified_ratio", "ratio"),
    ("sim.events", "count"),
    ("sim.payments_made", "count"),
    ("core.pay_transfer.p50_ms", "ms"),
    ("core.pay_downtime_transfer.p50_ms", "ms"),
    ("core.pay_purchase_issue.p50_ms", "ms"),
    ("client.ms", "ms/op"),
    ("client.crypto.group_sign.calls", "calls/op"),
    ("trace.spans", "spans/op"),
    ("trace.overhead_ratio", "ratio"),
)

#: Every per-layer metric: (name, unit).  Every traced run reports all of them.
PER_LAYER: tuple[tuple[str, str], ...] = tuple(
    pair
    for span in SPAN_NAMES
    for pair in ((f"{span}.calls", "calls/op"), (f"{span}.self_ms", "ms/op"))
) + LAYER_EXTRAS

# pay_churn shape.  µ = ν churn keeps availability near 0.5 (Setup B); the
# short renewal period makes renewals fall due inside a run.
PAY_PEERS = 32
PAY_BALANCE = 64
PAY_COINS = 3  # bought per peer at set-up
PAY_ISSUED = 3  # of those, issued to a random other peer at set-up
PAY_RENEWAL_PERIOD = 1800.0  # virtual seconds
PAY_STEP_S = 5.0  # virtual seconds per step
PAY_CHURN = 0.06  # per-peer toggle probability per step
PAY_DEPOSIT_EVERY = 10  # steps
PAY_WARMUP_STEPS = 4  # untimed, after every set-up
PAY_EPISODES = 3  # each on its own network and seed
PAY_REPLAY_STEPS = 40  # replayed without journals to check determinism

# broker_batch shape.
BATCH_PEERS = 64
BATCH_ROUND = 64
BATCH_SIZE = 32  # verify batch and group-commit max_batch
BATCH_WARMUP = 16  # requests in the untimed warm-up round
BATCH_SETUPS = 3

# sim_million shape.
SIM_PEERS = 1_000_000
SIM_EVENT_BUDGET = 4_000_000
SIM_MIN_RUNS = 3


@dataclass
class Outcome:
    """What one run reports."""

    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    checks: dict[str, bool]
    info: dict[str, Any] = field(default_factory=dict)
    recorder: SpanRecorder | None = None  # the spans of a traced run


def peak_rss_mib() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ms(seconds: list[float]) -> float:
    return statistics.median(seconds) * 1000.0 if seconds else 0.0


def _sim_seed(seed: int, index: int) -> int:
    """Simulations alternate two seeds derived from the run's seed."""
    return 2 * seed + index % 2


@contextmanager
def _traced(recorder: SpanRecorder | None, root: str) -> Iterator[None]:
    """Record the block's spans under ``root``; a no-op without a recorder.

    The wrappers are installed on entry and removed on exit, so code
    outside the block always runs unmodified.
    """
    if recorder is None:
        yield
        return
    with Patcher(recorder) as patcher, recorder.root(root):
        patcher.install_layers()
        yield


def _root(recorder: SpanRecorder | None, root: str) -> Any:
    """Switch the recording root inside a traced block (no-op untraced)."""
    return nullcontext() if recorder is None else recorder.root(root)


def _layer_metrics(
    recorder: SpanRecorder, root: str, ops: int, extras: dict[str, float]
) -> dict[str, tuple[float, str]]:
    """Per-span calls and self time per op under ``root``, plus ``extras``."""
    totals = recorder.totals(root)
    out: dict[str, tuple[float, str]] = {}
    per = 1.0 / ops if ops else 0.0
    for span in SPAN_NAMES:
        calls, seconds, _items = totals.get(span, (0, 0.0, 0))
        out[f"{span}.calls"] = (calls * per, "calls/op")
        out[f"{span}.self_ms"] = (seconds * 1000.0 * per, "ms/op")
    weights = {span: items for span, (_c, _s, items) in totals.items()}
    fsyncs = totals.get("store.fsync", (0, 0.0, 0))[0]
    records = weights.get("store.append", 0) + weights.get("store.append_many", 0)
    handled = totals.get("core.broker_handle", (0, 0.0, 0))[0]
    decodes = recorder.count_within(
        "messages.decode", frozenset({"core.broker_handle", "pipeline.pool_verify"}), root
    )
    computed = {
        "messages.decodes_per_broker_request": decodes / handled if handled else 0.0,
        "store.records_per_fsync": records / fsyncs if fsyncs else 0.0,
        "trace.spans": sum(1 for r in recorder.roots if r == root) * per,
    }
    computed.update(extras)
    units = dict(LAYER_EXTRAS)
    for name, _unit in LAYER_EXTRAS:
        out[name] = (float(computed.get(name, 0.0)), units[name])
    return out


# ---------------------------------------------------------------------------
# pay_churn
# ---------------------------------------------------------------------------


def _rpc_totals(peers: list[Any]) -> tuple[int, int]:
    """(calls, attempts) summed over every RPC client the peers own."""
    clients = {}
    for peer in peers:
        for stats in (peer.rpc.stats, peer.broker_client.stats, peer.peer_client.stats):
            clients[id(stats)] = stats
    calls = sum(stats.calls for stats in clients.values())
    retries = sum(stats.retries for stats in clients.values())
    return calls, calls + retries


def _pay_setup(store: Path | None, rng: random.Random) -> tuple[WhoPayNetwork, list[Any]]:
    """Build the network, enroll the peers, and put coins in circulation.

    Broker and peers journal under ``store``; with ``None`` nothing is
    journaled, which changes no protocol decision.
    """
    net = WhoPayNetwork(PARAMS, store_dir=store, renewal_period=PAY_RENEWAL_PERIOD)
    config = PeerConfig(balance=PAY_BALANCE, durable=store is not None)
    peers = [net.add_peer(f"peer-{index:02d}", config) for index in range(PAY_PEERS)]
    for peer in peers:
        peer.purchase_batch(PAY_COINS)
    # Spread the issues over three quarters of a renewal period, so coins
    # enter their renewal window one by one from the first step on instead
    # of all at once.
    gap = PAY_RENEWAL_PERIOD * (1.0 - RENEWAL_WINDOW_FRACTION) / (PAY_PEERS * PAY_ISSUED)
    for peer in peers:
        for _ in range(PAY_ISSUED):
            peer.issue(rng.choice([other for other in peers if other is not peer]).address)
            net.advance(gap)
    return net, peers


def _pay_step(
    net: WhoPayNetwork, peers: list[Any], rng: random.Random, step: int
) -> tuple[str | None, float]:
    """Churn, advance the clock, renew, maybe deposit, then pay once.

    Returns the payment method (``None`` if the payment failed) and the
    wall time of the ``pay`` call alone.
    """
    for peer in peers:
        if rng.random() < PAY_CHURN:
            if peer.online:
                peer.depart()
            else:
                peer.rejoin()
    online = [peer for peer in peers if peer.online]
    for peer in peers:
        if len(online) >= 2:
            break
        if not peer.online:
            peer.rejoin()
            online.append(peer)
    net.advance(PAY_STEP_S)
    for peer in online:
        peer.renew_due_coins()
    if step % PAY_DEPOSIT_EVERY == PAY_DEPOSIT_EVERY - 1:
        depositor = rng.choice(online)
        now = net.clock.now()
        live = [coin_y for coin_y, held in depositor.wallet.items() if not held.is_expired(now)]
        if live:
            depositor.deposit(live[0], payout_to=depositor.address)
    payer, payee = rng.sample(online, 2)
    start = time.perf_counter()
    try:
        method: str | None = payer.pay(payee.address)
    except (ProtocolError, NetworkError):
        method = None
    return method, time.perf_counter() - start


def _pay_checks(net: WhoPayNetwork, peers: list[Any]) -> dict[str, bool]:
    seen: set[int] = set()
    unique = True
    for peer in peers:
        for coin_y in peer.wallet:
            unique = unique and coin_y not in seen
            seen.add(coin_y)
    return {
        "audit": audit_broker(net.broker).ok,
        "conservation": net.broker.verify_conservation(PAY_PEERS * PAY_BALANCE),
        "no_coin_in_two_wallets": unique,
        "no_fraud_events": net.broker.fraud_events == [],
    }


@dataclass
class _PayEpisode:
    setup_s: float
    loop_s: float = 0.0
    methods: list[str] = field(default_factory=list)  # every step, warm-up included
    latencies: list[tuple[str, float]] = field(default_factory=list)  # measured, completed
    step_s: list[tuple[bool, float]] = field(default_factory=list)  # (traced, wall) per timed step
    attempted: int = 0
    failed: int = 0
    rpc_calls: int = 0
    rpc_attempts: int = 0
    checks: dict[str, bool] = field(default_factory=dict)


def _pay_episode(
    seed: int, store: Path, budget_s: float, recorder: SpanRecorder | None
) -> _PayEpisode:
    """Set up a network, take the warm-up steps, then the timed loop.

    With a recorder, blocks of traced and untraced steps alternate; only
    the traced ones count as measured, the others are the reference for
    the tracing overhead.
    """
    rng = random.Random(seed)
    start = time.perf_counter()
    net, peers = _pay_setup(store, rng)
    episode = _PayEpisode(setup_s=time.perf_counter() - start)
    for step in range(PAY_WARMUP_STEPS):
        episode.methods.append(_pay_step(net, peers, rng, step)[0] or "failed")
    calls_before, attempts_before = _rpc_totals(peers)
    step = PAY_WARMUP_STEPS
    loop_start = time.perf_counter()
    while time.perf_counter() - loop_start < budget_s:
        # Traced and untraced steps come in alternating blocks of
        # PAY_DEPOSIT_EVERY steps, so each block holds one deposit and the
        # wrappers change only at block boundaries.
        traced = recorder is not None and (step // PAY_DEPOSIT_EVERY) % 2 == 1
        with _traced(recorder if traced else None, "loop"):
            while True:
                step_start = time.perf_counter()
                method, latency = _pay_step(net, peers, rng, step)
                episode.step_s.append((traced, time.perf_counter() - step_start))
                episode.methods.append(method or "failed")
                if traced == (recorder is not None):
                    episode.attempted += 1
                    if method is None:
                        episode.failed += 1
                    else:
                        episode.latencies.append((method, latency))
                step += 1
                if step % PAY_DEPOSIT_EVERY == 0 or time.perf_counter() - loop_start >= budget_s:
                    break
    episode.loop_s = time.perf_counter() - loop_start
    calls_after, attempts_after = _rpc_totals(peers)
    episode.rpc_calls = calls_after - calls_before
    episode.rpc_attempts = attempts_after - attempts_before
    episode.checks = _pay_checks(net, peers)
    return episode


def _pay_replay(seed: int, steps: int) -> list[str]:
    """Payment methods of the first ``steps`` steps of an unjournaled network.

    Replays an episode's seed without journals, so there is no store to
    delete afterwards; equal seeds must choose equal methods.
    """
    rng = random.Random(seed)
    net, peers = _pay_setup(None, rng)
    return [_pay_step(net, peers, rng, step)[0] or "failed" for step in range(steps)]


def pay_churn(seed: int, seconds: float, work: Path, trace: bool) -> Outcome:
    recorder = SpanRecorder() if trace else None
    seeds = [PAY_EPISODES * seed + index for index in range(PAY_EPISODES)]
    episodes = [
        _pay_episode(episode_seed, work / f"pay-{index}", seconds / PAY_EPISODES, recorder)
        for index, episode_seed in enumerate(seeds)
    ]
    checks = {name: all(e.checks[name] for e in episodes) for name in episodes[0].checks}
    replayed = _pay_replay(seeds[0], min(PAY_REPLAY_STEPS, len(episodes[0].methods)))
    checks["same_seed_same_methods"] = replayed == episodes[0].methods[: len(replayed)]

    latencies = [item for e in episodes for item in e.latencies]
    by_method: dict[str, list[float]] = {}
    for method, latency in latencies:
        by_method.setdefault(method, []).append(latency)
    pay_s = [latency for _method, latency in latencies]
    loop_s = sum(e.loop_s for e in episodes)
    info: dict[str, Any] = {
        "payments": len(latencies),
        "loop_s": loop_s,
        "method_counts": {method: len(values) for method, values in sorted(by_method.items())},
        "method_p50_ms": {method: _ms(values) for method, values in sorted(by_method.items())},
        "pay_p95_ms": statistics.quantiles(pay_s, n=20)[18] * 1000.0 if len(pay_s) >= 20 else None,
        "setup_s": [e.setup_s for e in episodes],
        "methods_episode0": "".join(method[0] for method in episodes[0].methods),
    }
    attempted = sum(e.attempted for e in episodes)
    failed = sum(e.failed for e in episodes)
    if recorder is None:
        metrics = {
            "setup_s": (statistics.median(e.setup_s for e in episodes), "s"),
            "peak_rss_mib": (peak_rss_mib(), "MiB"),
            "throughput_per_s": (len(latencies) / loop_s, "1/s"),
            "latency_p50_ms": (_ms(pay_s), "ms"),
        }
    else:
        traced_s = [wall for e in episodes for traced, wall in e.step_s if traced]
        plain_s = [wall for e in episodes for traced, wall in e.step_s if not traced]
        rpc_calls = sum(e.rpc_calls for e in episodes)
        extras = {
            # Traced and untraced steps both count here: RpcStats cannot
            # tell them apart.
            "net.rpc_attempts_per_call": (
                sum(e.rpc_attempts for e in episodes) / rpc_calls if rpc_calls else 0.0
            ),
            "core.pay_transfer.p50_ms": _ms(by_method.get("transfer", [])),
            "core.pay_downtime_transfer.p50_ms": _ms(by_method.get("downtime_transfer", [])),
            "core.pay_purchase_issue.p50_ms": _ms(by_method.get("purchase_issue", [])),
            "trace.overhead_ratio": statistics.mean(traced_s) / statistics.mean(plain_s),
        }
        metrics = _layer_metrics(recorder, "loop", len(latencies), extras)
    return Outcome(metrics, attempted, failed, checks, info, recorder)


# ---------------------------------------------------------------------------
# broker_batch
# ---------------------------------------------------------------------------


@dataclass
class _Round:
    traced: bool
    broker_s: float  # engine.run
    client_s: float  # make_round + absorb
    stats: Any  # EngineStats
    released: bool  # every request accepted and its reply released


def _batch_round(
    generator: LoadGenerator, engine: ThroughputEngine, size: int, recorder: SpanRecorder | None
) -> _Round:
    """Sign a round of requests, run it through the engine, absorb the replies."""
    with _traced(recorder, "broker"):
        client_start = time.perf_counter()
        with _root(recorder, "client"):
            requests = generator.make_round(size)
        wire = [(r.kind, r.src, r.data, r.idem) for r in requests]
        start = time.perf_counter()
        records, stats = engine.run(wire)
        broker_s = time.perf_counter() - start
        with _root(recorder, "client"):
            generator.absorb(records)
        client_s = time.perf_counter() - client_start - broker_s
    released = all(record.ok and record.released for record in records)
    return _Round(recorder is not None, broker_s, client_s, stats, released)


def _without_counters(ledger: dict[str, Any]) -> dict[str, Any]:
    # Operation counters are in memory only and restart from zero.
    return {key: value for key, value in ledger.items() if key != "operation_counts"}


def broker_batch(seed: int, seconds: float, work: Path, trace: bool) -> Outcome:
    recorder = SpanRecorder() if trace else None
    setup_s = []
    for index in range(BATCH_SETUPS):
        store = work / f"batch-{index}"
        start = time.perf_counter()
        generator = LoadGenerator(peers=BATCH_PEERS, params=PARAMS, store_dir=store, seed=seed)
        setup_s.append(time.perf_counter() - start)
    gpk = generator.network.judge.group_public_key()
    pool = VerificationPool(generator.params, generator.broker.public_key, [gpk], workers=0)
    committer = GroupCommitter(generator.broker.store, max_batch=BATCH_SIZE)
    engine = ThroughputEngine(
        generator.broker, pool=pool, committer=committer, verify_batch=BATCH_SIZE
    )
    rounds = [_batch_round(generator, engine, BATCH_WARMUP, None)]
    loop_start = time.perf_counter()
    while time.perf_counter() - loop_start < seconds or (trace and len(rounds) < 3):
        # A traced run alternates traced and untraced rounds; the
        # untraced ones are the reference for the tracing overhead.
        traced = trace and len(rounds) % 2 == 0
        rounds.append(_batch_round(generator, engine, BATCH_ROUND, recorder if traced else None))
    ledger_before = generator.network.broker.export_ledger()
    recovery = generator.network.restart_broker()
    recovered = generator.network.broker
    checks = {
        "all_accepted_and_released": all(r.released and not r.stats.rejected for r in rounds),
        "restart_recovers": recovery.entity is recovered,
        "audit_after_restart": audit_broker(recovered).ok,
        "ledger_survives_restart": (
            _without_counters(ledger_before) == _without_counters(recovered.export_ledger())
        ),
    }

    timed = rounds[1:]  # without the warm-up round
    measured = [r for r in timed if r.traced == trace]
    requests = sum(r.stats.processed for r in measured)
    broker_s = sum(r.broker_s for r in measured)
    client_s = sum(r.client_s for r in measured)
    info: dict[str, Any] = {
        "rounds": len(timed),
        "requests": requests,
        "broker_s": broker_s,
        "client_s": client_s,
        "fsyncs": sum(r.stats.fsyncs for r in measured),
        "setup_s": setup_s,
    }
    attempted = sum(r.stats.processed for r in timed)
    rejected = sum(r.stats.rejected for r in timed)
    if recorder is None:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mib": (peak_rss_mib(), "MiB"),
            "throughput_per_s": (requests / broker_s, "1/s"),
            "latency_p50_ms": (_ms([r.broker_s for r in measured]), "ms"),
        }
    else:
        reference = [r for r in timed if not r.traced]
        reference_s = sum(r.broker_s for r in reference) / sum(r.stats.processed for r in reference)
        jobs = sum(r.stats.pool_jobs for r in measured)
        signs = recorder.totals("client").get("crypto.group_sign", (0, 0.0, 0))[0]
        extras = {
            "pipeline.preverified_ratio": (
                sum(r.stats.preverified for r in measured) / jobs if jobs else 0.0
            ),
            "client.ms": client_s * 1000.0 / requests,
            "client.crypto.group_sign.calls": signs / requests,
            "trace.overhead_ratio": (broker_s / requests) / reference_s,
        }
        metrics = _layer_metrics(recorder, "broker", requests, extras)
    return Outcome(metrics, attempted, rejected, checks, info, recorder)


# ---------------------------------------------------------------------------
# sim_million
# ---------------------------------------------------------------------------


def sim_million(seed: int, seconds: float, work: Path, trace: bool) -> Outcome:
    del work  # the simulator keeps everything in memory
    recorder = SpanRecorder() if trace else None
    runs: list[dict[str, Any]] = []
    start = time.perf_counter()
    while len(runs) < SIM_MIN_RUNS or time.perf_counter() - start < seconds:
        index = len(runs)
        sim_seed = _sim_seed(seed, index)
        config = replace(
            setup_b_point(SIM_PEERS, event_budget=SIM_EVENT_BUDGET), seed=sim_seed
        )
        # In a traced run simulation 0 stays untraced: it is the reference
        # for the same-seed traced simulation 2.
        traced = trace and index > 0
        with _traced(recorder if traced else None, "sim"):
            build_start = time.perf_counter()
            simulation = sim_engine.build_simulation(config)
            run_start = time.perf_counter()
            result = simulation.run()
            run_end = time.perf_counter()
        metrics = result.metrics
        runs.append(
            {
                "seed": sim_seed,
                "traced": traced,
                "build_s": run_start - build_start,
                "run_s": run_end - run_start,
                "events": metrics.events,
                "made": metrics.payments_made,
                "failed": metrics.payments_failed,
                "by_method": sum(metrics.payments_by_method.values()),
                "purchases": metrics.ops["purchase"],
                "coins_created": metrics.coins_created,
            }
        )
        del simulation, result, metrics
        gc.collect()

    by_seed: dict[int, set[tuple[int, int]]] = {}
    for run in runs:
        by_seed.setdefault(run["seed"], set()).add((run["events"], run["made"]))
    checks = {
        "by_method_sums_to_made": all(run["by_method"] == run["made"] for run in runs),
        "purchases_equal_coins_created": all(
            run["purchases"] == run["coins_created"] for run in runs
        ),
        "no_failed_payments": all(run["failed"] == 0 for run in runs),
        "same_seed_same_counts": all(len(counts) == 1 for counts in by_seed.values()),
    }
    measured = [run for run in runs if run["traced"] == trace]
    events = sum(run["events"] for run in measured)
    run_s = sum(run["run_s"] for run in measured)
    attempted = sum(run["made"] + run["failed"] for run in measured)
    failed = sum(run["failed"] for run in measured)
    info: dict[str, Any] = {
        "simulations": len(runs),
        "event_budget": SIM_EVENT_BUDGET,
        "events": [run["events"] for run in runs],
        "build_s": [run["build_s"] for run in runs],
        "run_s": [run["run_s"] for run in runs],
    }
    if recorder is None:
        metrics_out = {
            "setup_s": (statistics.median(run["build_s"] for run in runs), "s"),
            "peak_rss_mib": (peak_rss_mib(), "MiB"),
            "throughput_per_s": (events / run_s, "1/s"),
            "latency_p50_ms": (_ms([run["run_s"] for run in measured]), "ms"),
        }
    else:
        first = runs[0]
        extras = {
            "sim.events": float(first["events"]),
            "sim.payments_made": float(first["made"]),
            "trace.overhead_ratio": runs[2]["run_s"] / first["run_s"],
        }
        metrics_out = _layer_metrics(recorder, "sim", len(measured), extras)
    return Outcome(metrics_out, attempted, failed, checks, info, recorder)


WORKLOADS = {
    "pay_churn": pay_churn,
    "broker_batch": broker_batch,
    "sim_million": sim_million,
}
