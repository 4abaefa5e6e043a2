"""The three broker workloads, driven through ``PubSubBroker`` only.

Each workload is one closed-loop client in this process: it hands a
batch to ``publish_batch``, waits for it to return, consumes what the
broker delivered (acking where the channel asks for acks), advances the
virtual clock one fixed step and sends the next batch.  Inputs come
from the repository's own workload generator, seeded from ``--seed``.

* ``w0-shards`` — the paper's W0 (Table 1) on two process shards with
  breakers and the shared-memory codec.  Matching-bound; W0 yields
  almost no matches, so delivery and the WAL are idle at publish time.
* ``zipf-fanout`` — a duplicate-heavy Zipf population behind the
  aggregation layer, every subscriber on an explicit-ack channel.
  Delivery-bound: expansion, dispatch, poll/ack and WAL deliver/settle
  records do the work.
* ``churn-recover`` — subscribe / formula-subscribe / unsubscribe churn
  with finite ttls on the static (greedy-optimized) engine under
  ``fsync="always"``, then a crash and a WAL replay into a fresh broker.
  Control-plane bound.

Populations are sized so that five set-ups fit into one run (see
``README.md``).
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import heapq
import itertools
import os
import random
import statistics
import sys
import time
import traceback
import types
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.aggregation import AggregatingMatcher
from repro.bench.harness import uniform_statistics_for
from repro.core.oracle import OracleMatcher
from repro.core.types import Event, Operator, Subscription
from repro.matchers import StaticMatcher
from repro.obs.registry import MetricsRegistry
from repro.system import (
    DeliveryManager,
    PubSubBroker,
    ShardedMatcher,
    VirtualClock,
    WriteAheadLog,
    recover_files,
)
from repro.workload.generator import WorkloadGenerator
from repro.workload.scenarios import w0
from repro.workload.spec import attribute_name

from common import flatten

#: Virtual seconds the clock advances after every published batch.
CLOCK_STEP = 0.01

#: Each timed loop runs at least this many batches, so the fixed-name
#: ``batch_p95_ms`` always has ten samples beyond it.
MIN_BATCHES = 200

#: A timed loop never runs longer than this multiple of ``--seconds``.
HARD_STOP_FACTOR = 4.0

#: Registry families whose values depend only on the inputs; every
#: set-up of one run must leave them identical.
DETERMINISTIC_FAMILIES = (
    "repro_wal_appends_total",
    "repro_wal_bytes_total",
    "repro_agg_expansions_total",
    "repro_agg_frontier_size",
    "repro_subscription_checks_total",
    "repro_predicates_satisfied_total",
    "repro_procpool_bytes_total",
    "repro_shm_bytes_total",
    "repro_delivery_acks_total",
)


class GateError(Exception):
    """The system answered wrongly (or lost a delivery): the run is void."""


@dataclasses.dataclass
class Rig:
    """One composed broker and the handles the client needs."""

    broker: PubSubBroker
    clock: VirtualClock
    registry: MetricsRegistry
    wal: Optional[WriteAheadLog] = None
    wal_path: Optional[str] = None
    delivery: Optional[DeliveryManager] = None
    #: Push notifications waiting for the client.
    inbox: List[Any] = dataclasses.field(default_factory=list)
    #: The live-population model (churn-recover).
    model: Any = None


@dataclasses.dataclass
class Phase:
    """What one stretch of closed-loop publishing did."""

    wall_s: float = 0.0
    events: int = 0
    batches: int = 0
    rounds: int = 0
    publish_s: float = 0.0
    batch_lat: List[float] = dataclasses.field(default_factory=list)
    #: Notifications the publish results promise (one per matched id).
    matches: int = 0
    received: int = 0
    acked: int = 0
    ack_lat: List[float] = dataclasses.field(default_factory=list)
    inflight_peak: int = 0
    ops: int = 0
    ops_s: float = 0.0
    op_lat: List[float] = dataclasses.field(default_factory=list)
    failed_events: int = 0
    failed_ops: int = 0
    #: Dead-lettered, shed or still in flight when the phase ended.
    failed_notifications: int = 0

    @property
    def attempted(self) -> int:
        return self.events + self.matches + self.ops

    @property
    def failed(self) -> int:
        return self.failed_events + self.failed_ops + self.failed_notifications


def merge_phases(phases: Sequence[Phase]) -> Phase:
    """One :class:`Phase` summing several."""
    total = Phase()
    for phase in phases:
        for field in dataclasses.fields(Phase):
            mine, theirs = getattr(total, field.name), getattr(phase, field.name)
            if field.name == "inflight_peak":
                total.inflight_peak = max(mine, theirs)
            elif isinstance(mine, list):
                mine.extend(theirs)
            else:
                setattr(total, field.name, mine + theirs)
    return total


def _client_error(what: str) -> None:
    """A call raised: report it and let the loop go on (it is counted)."""
    print(f"perfbench: {what} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def planted_event(sub: Subscription, base: Event) -> Event:
    """*base* with every attribute *sub* constrains set to a satisfying value."""
    pairs = dict(base.items())
    for pred in sub.predicates:
        if pred.operator in (Operator.EQ, Operator.LE, Operator.GE):
            pairs[pred.attribute] = pred.value
        else:
            raise ValueError(f"cannot plant operator {pred.operator}")
    return Event(pairs)


def batched(items: Sequence[Any], size: int) -> List[List[Any]]:
    return [list(items[i : i + size]) for i in range(0, len(items), size)]


class Workload:
    """One closed-loop client over one broker configuration."""

    name = ""
    n_subscriptions = 0
    batch_size = 100
    #: Events published round-robin by the timed loop.
    pool_events = 2_000
    #: Set-up loads the population in ``subscribe_batch`` calls of this size.
    load_batch = 1000
    #: Events in the correctness sample: half generated, half planted.
    gate_events = 100
    fsync = "interval"
    #: Whether subscribers get delivery-manager channels.
    channels = True

    def __init__(self, seed: int, scale: float = 1.0, seconds: float = 10.0) -> None:
        self.seed = seed
        self._oracle_answers: Optional[List[frozenset]] = None
        self.spec = self.make_spec(max(50, round(self.n_subscriptions * scale)), seed)
        self.generator = WorkloadGenerator(self.spec)
        self.population = list(self.generator.subscriptions())
        self.pool = batched(list(self.generator.events(self.pool_events)), self.batch_size)
        self.gate = self._gate_inputs()

    def make_spec(self, n_subscriptions: int, seed: int):
        return w0(n_subscriptions=n_subscriptions, seed=seed)

    def _gate_inputs(self) -> List[Event]:
        """A fixed correctness sample: generated events plus events
        planted to satisfy sampled subscriptions (W0 alone matches
        almost nothing, which would make the comparison vacuous)."""
        half = min(self.gate_events // 2, len(self.population))
        gen = WorkloadGenerator(dataclasses.replace(self.spec, seed=self.spec.seed + 7_919))
        generated = list(gen.events(2 * half))
        rng = random.Random(f"{self.seed}-plant")
        planted = [
            planted_event(sub, base)
            for sub, base in zip(rng.sample(self.population, half), generated[half:])
        ]
        return generated[:half] + planted

    # -- set-up -------------------------------------------------------------
    def setup(self, rundir: str, registry: MetricsRegistry, hook) -> Rig:
        """Compose the broker (WAL, engine, delivery) on *registry*, let
        *hook* instrument it, load the population and prepare the rest."""
        os.makedirs(rundir)
        clock = VirtualClock()
        matcher = self.make_matcher()
        matcher.use_metrics(registry)
        wal_path = os.path.join(rundir, "broker.wal")
        wal = WriteAheadLog(wal_path, fsync=self.fsync, clock=clock)
        wal.use_metrics(registry)
        delivery = None
        if self.channels:
            delivery = DeliveryManager(clock=clock)
            delivery.use_metrics(registry)
        broker = PubSubBroker(matcher=matcher, clock=clock, wal=wal, delivery=delivery)
        rig = Rig(broker, clock, registry, wal, wal_path, delivery)
        if hook is not None:
            hook(rig)
        for chunk in batched(self.population, self.load_batch):
            broker.subscribe_batch(chunk)
        self.prepare(rig)
        return rig

    # -- hooks --------------------------------------------------------------
    def make_matcher(self):
        raise NotImplementedError

    def prepare(self, rig: Rig) -> None:
        """Finish the set-up once the population is loaded."""
        raise NotImplementedError

    def consume(self, rig: Rig, results, released: float, phase: Phase, record) -> None:
        """Take what one publish delivered to the client."""
        raise NotImplementedError

    def goodput(self, phase: Phase) -> float:
        """The workload's useful work per second: events published per
        second of the timed phase."""
        return phase.events / phase.wall_s

    # -- the client loop ----------------------------------------------------
    def publish(self, rig: Rig, batch: List[Event], phase: Phase, record=None):
        released = time.perf_counter()
        try:
            results = rig.broker.publish_batch(batch)
        except Exception:
            _client_error("publish_batch")
            phase.events += len(batch)
            phase.failed_events += len(batch)
            return None
        done = time.perf_counter()
        phase.publish_s += done - released
        phase.batch_lat.append(done - released)
        phase.events += len(batch)
        phase.batches += 1
        for ids in results:
            phase.matches += len(ids)
            if getattr(ids, "degraded", False):
                phase.failed_events += 1
        if rig.delivery is not None:
            inflight = rig.delivery.inflight
            if inflight > phase.inflight_peak:
                phase.inflight_peak = inflight
        self.consume(rig, results, released, phase, record)
        return results

    def run(self, rig: Rig, seconds: float, min_batches: int = 0) -> Phase:
        """Publish the event pool round-robin, from its first batch, for
        *seconds* (and at least *min_batches* batches)."""
        phase = Phase()
        pool = self.pool
        start = time.perf_counter()
        deadline = start + seconds
        hard_stop = start + HARD_STOP_FACTOR * max(seconds, 1.0)
        for index in itertools.count():
            now = time.perf_counter()
            if now >= hard_stop or (now >= deadline and phase.batches >= min_batches):
                break
            self.publish(rig, pool[index % len(pool)], phase)
            rig.clock.advance(CLOCK_STEP)
        phase.wall_s = time.perf_counter() - start
        self.settle(rig, phase)
        return phase

    def settle(self, rig: Rig, phase: Phase) -> None:
        """End-of-phase ledger: whatever is not acked now counts as failed."""
        phase.failed_notifications += max(0, phase.matches - phase.acked)
        if rig.delivery is not None:
            phase.failed_notifications += len(rig.delivery.dead_letters)

    # -- correctness ----------------------------------------------------------
    def oracle_answers(self) -> List[frozenset]:
        """Brute-force answers for the gate sample (population is static)."""
        if self._oracle_answers is None:
            oracle = OracleMatcher()
            for sub in self.population:
                oracle.add(sub)
            self._oracle_answers = [frozenset(oracle.match(e)) for e in self.gate]
        return self._oracle_answers

    def check(self, rig: Rig, when: str) -> None:
        """Publish the gate sample and compare with the oracle and the ledger."""
        self._check_answers(rig, self.gate, self.oracle_answers(), when)

    def _check_answers(self, rig: Rig, events, answers, when: str) -> List[List[Any]]:
        phase = Phase()
        record: List[Tuple[Any, int]] = []
        results: List[List[Any]] = []
        for batch in batched(events, self.batch_size):
            out = self.publish(rig, batch, phase, record)
            if out is None:
                raise GateError(f"{when}: publish_batch raised on the gate sample")
            results.extend(out)
            rig.clock.advance(CLOCK_STEP)
        for index, (got, want) in enumerate(zip(results, answers)):
            if len(got) != len(set(got)) or set(got) != want:
                missing = sorted(map(str, want - set(got)))[:5]
                extra = sorted(map(str, set(got) - want))[:5]
                raise GateError(
                    f"{when}: event {index} matched wrongly "
                    f"(missing {missing}, unexpected {extra})"
                )
        promised = collections.Counter(
            (sid, id(event)) for event, ids in zip(events, results) for sid in ids
        )
        if collections.Counter(record) != promised:
            raise GateError(f"{when}: deliveries differ from the published matches")
        self.settle(rig, phase)
        self.ledger_check(rig, phase, when)
        return results

    def ledger_check(self, rig: Rig, phase: Phase, when: str) -> None:
        """Every match delivered and acked exactly once, nothing left over."""
        if phase.received != phase.matches or phase.acked != phase.matches:
            raise GateError(
                f"{when}: {phase.matches} matches, {phase.received} delivered, "
                f"{phase.acked} acked"
            )
        delivery = rig.delivery
        if delivery is not None:
            if delivery.inflight:
                raise GateError(f"{when}: {delivery.inflight} deliveries still in flight")
            if len(delivery.dead_letters):
                raise GateError(f"{when}: dead-letter queue holds {len(delivery.dead_letters)}")
            counters = delivery.stats()["counters"]
            if counters["redeliveries"] or counters["unknown_acks"]:
                raise GateError(f"{when}: delivery counters {counters}")

    def fingerprint(self, rig: Rig) -> Tuple:
        """Registry values that must repeat exactly for the same inputs."""
        flat = flatten(rig.registry)
        return tuple(
            sorted((k, v) for k, v in flat.items() if k[0] in DETERMINISTIC_FAMILIES)
        )

    def finish(self, rig: Rig, tracer) -> Dict[str, float]:
        """After the timed phase: the final correctness gate."""
        self.check(rig, "after the timed phase")
        return {}

    def close(self, rig: Rig) -> None:
        rig.broker.close()
        if rig.wal is not None:
            rig.wal.close()


# ----------------------------------------------------------------------
# w0-shards
# ----------------------------------------------------------------------
class W0Shards(Workload):
    """Paper W0 on two breaker-guarded process shards over shared memory."""

    name = "w0-shards"
    n_subscriptions = 12_000

    def make_matcher(self):
        return ShardedMatcher(
            shards=2,
            router="hash",
            breaker=True,
            executor="process",
            codec="shm",
            inner="dynamic",
        )

    def prepare(self, rig: Rig) -> None:
        sink = rig.inbox.append
        for sub in self.population:
            rig.delivery.register(sub.id, sink=sink, auto_ack=True)

    def consume(self, rig, results, released, phase, record) -> None:
        inbox = rig.inbox
        if record is not None:
            record.extend((n.sub_id, id(n.event)) for n in inbox)
        phase.received += len(inbox)
        phase.acked += len(inbox)  # auto-ack channels settle on receipt
        inbox.clear()


# ----------------------------------------------------------------------
# zipf-fanout
# ----------------------------------------------------------------------
def zipf_dup_spec(n_subscriptions: int, seed: int):
    """W0 reshaped into a duplicate-heavy subscriber population: three
    predicates over an 8-attribute pool, values 1..20 drawn ``zipf:1.3``.

    A copy of ``zipf_dup_spec`` in ``benchmarks/bench_aggregation.py``
    (the ``W0-zipf-dup`` shape) with the population size added, kept here
    so that a change to that benchmark does not change this one's inputs."""
    return dataclasses.replace(
        w0(n_subscriptions=n_subscriptions, seed=seed),
        name="W0-zipf-dup",
        value_distribution="zipf:1.3",
        predicates_per_subscription=3,
        subscription_attribute_pool=tuple(attribute_name(i) for i in range(8)),
        value_low=1,
        value_high=20,
        free_operator_weights={"=": 0.5, "<=": 0.5},
        event_value_high=20,
    )


class ZipfFanout(Workload):
    """Aggregated Zipf subscribers, every delivery explicitly acked."""

    name = "zipf-fanout"
    n_subscriptions = 6_000
    #: About 90 matches per event: five events make about 450 acked deliveries.
    batch_size = 5
    gate_events = 40
    #: One subscriber in this many polls a pull channel; the rest are pushed to.
    pull_every = 4

    def __init__(self, seed: int, scale: float = 1.0, seconds: float = 10.0) -> None:
        super().__init__(seed, scale)
        self.pull_ids = {
            sub.id
            for index, sub in enumerate(self.population)
            if index % self.pull_every == self.pull_every - 1
        }

    def make_spec(self, n_subscriptions: int, seed: int):
        return zipf_dup_spec(n_subscriptions, seed)

    def make_matcher(self):
        return AggregatingMatcher(inner="counting")

    def prepare(self, rig: Rig) -> None:
        sink = rig.inbox.append
        for sub in self.population:
            if sub.id in self.pull_ids:
                rig.delivery.register(sub.id)
            else:
                rig.delivery.register(sub.id, sink=sink)

    def consume(self, rig, results, released, phase, record) -> None:
        delivery = rig.delivery
        perf = time.perf_counter
        latencies = phase.ack_lat
        inbox = rig.inbox
        for note in inbox:
            if record is not None:
                record.append((note.sub_id, id(note.event)))
            if delivery.ack(note.sub_id, note.seq):
                phase.acked += 1
            latencies.append(perf() - released)
        phase.received += len(inbox)
        inbox.clear()
        pull = self.pull_ids
        due = dict.fromkeys(sid for ids in results for sid in ids if sid in pull)
        for sid in due:
            for note in delivery.poll(sid):
                phase.received += 1
                if record is not None:
                    record.append((sid, id(note.event)))
                if delivery.ack(sid, note.seq):
                    phase.acked += 1
                latencies.append(perf() - released)

    def goodput(self, phase: Phase) -> float:
        """Acked notifications per second of the timed phase."""
        return phase.acked / phase.wall_s


# ----------------------------------------------------------------------
# churn-recover
# ----------------------------------------------------------------------
@dataclasses.dataclass
class NewSub:
    """One pre-built churn arrival."""

    id: str
    #: Conjunctions the logical subscription stands for (two for a formula).
    disjuncts: List[Subscription]
    ttl: Optional[float]
    #: Formula text for ``subscribe_formula``; None for a plain subscribe.
    formula: Optional[str] = None


class LiveModel:
    """The client's own view of the live population (logical ids in
    subscription order, with absolute expiry)."""

    def __init__(self) -> None:
        self.live: Dict[str, Tuple[List[Subscription], Optional[float]]] = {}
        self._heap: List[Tuple[float, int, str]] = []
        self._seq = itertools.count()

    def __len__(self) -> int:
        return len(self.live)

    def add(self, sid: str, disjuncts: List[Subscription], expires: Optional[float]) -> None:
        self.live[sid] = (disjuncts, expires)
        if expires is not None:
            heapq.heappush(self._heap, (expires, next(self._seq), sid))

    def expire(self, now: float) -> None:
        """Forget what the broker's lazy expiry drops (``expires <= now``)."""
        heap = self._heap
        while heap and heap[0][0] <= now:
            expires, _seq, sid = heapq.heappop(heap)
            entry = self.live.get(sid)
            if entry is not None and entry[1] == expires:
                del self.live[sid]

    def oldest(self) -> str:
        return next(iter(self.live))

    def remove(self, sid: str) -> None:
        del self.live[sid]

    def answers(self, events: Sequence[Event]) -> List[frozenset]:
        """Brute-force logical answers over the live population."""
        oracle = OracleMatcher()
        owner: Dict[Any, str] = {}
        for sid, (disjuncts, _expires) in self.live.items():
            for index, sub in enumerate(disjuncts):
                key = (sid, index)
                oracle.add(Subscription(key, sub.predicates))
                owner[key] = sid
        return [frozenset(owner[k] for k in oracle.match(e)) for e in events]


def formula_text(subs: Sequence[Subscription]) -> str:
    """``(a = 1 and b = 2) or (...)`` — one disjunct per subscription."""
    return " or ".join(
        "(" + " and ".join(f"{p.attribute} {p.operator.value} {p.value}" for p in s.predicates) + ")"
        for s in subs
    )


class ChurnRecover(Workload):
    """Control-plane churn on the static engine, then crash and recover."""

    name = "churn-recover"
    n_subscriptions = 5_000
    batch_size = 50
    load_batch = 500
    gate_events = 40
    fsync = "always"
    channels = False
    #: Oldest live subscriptions unsubscribed per round (then refilled).
    unsubscribes_per_round = 5
    #: Churn rounds per second of ``--seconds``: the churn script is a
    #: fixed amount of work, so the WAL that recovery replays has the same
    #: length on every run.
    rounds_per_second = 60
    formula_share = 0.1
    ttl_share = 0.3
    ttls = (5.0, 10.0)
    clock_step = 0.05
    #: Consecutive churn calls per block of :meth:`goodput`.
    churn_block = 50

    def __init__(self, seed: int, scale: float = 1.0, seconds: float = 10.0) -> None:
        super().__init__(seed, scale)
        self.statistics = uniform_statistics_for(self.spec)
        gen = self.generator
        # Every arrival the script can need: one per unsubscribe plus
        # refills for ttl expiry (a ttl subscriber always expires before
        # it becomes the oldest).
        rng = random.Random(f"{seed}-churn")
        need = int(self.rounds_for(seconds) * self.unsubscribes_per_round / (1 - self.ttl_share)) + 64
        arrivals: List[NewSub] = []
        formulas = itertools.count()
        while len(arrivals) < need:
            ttl = rng.choice(self.ttls) if rng.random() < self.ttl_share else None
            sub = gen.next_subscription()
            if rng.random() < self.formula_share:
                other = gen.next_subscription()
                sid = f"formula-{next(formulas)}"
                arrivals.append(NewSub(sid, [sub, other], ttl, formula_text([sub, other])))
            else:
                arrivals.append(NewSub(sub.id, [sub], ttl))
        self.arrivals = arrivals
        self._next_arrival = 0

    def make_matcher(self):
        return StaticMatcher(statistics=self.statistics)

    def prepare(self, rig: Rig) -> None:
        rig.broker.matcher.rebuild()
        rig.model = LiveModel()
        for sub in self.population:
            rig.model.add(sub.id, [sub], None)
        self._next_arrival = 0

    def consume(self, rig, results, released, phase, record) -> None:
        notes = rig.broker.notifier.drain()
        if record is not None:
            record.extend((n.sub_id, id(n.event)) for n in notes)
        phase.received += len(notes)
        phase.acked += len(notes)  # fire-and-forget: receipt is the end

    def goodput(self, phase: Phase) -> float:
        """Churn calls per second: the median, over blocks of
        :attr:`churn_block` consecutive calls, of the calls per second
        spent in the block.  Every block keeps the call mix (subscribes,
        formulas, unsubscribes); the median keeps the few blocks that hit
        a slow fsync on shared storage from moving the figure."""
        lat, n = phase.op_lat, self.churn_block
        return statistics.median(
            len(lat[i : i + n]) / sum(lat[i : i + n]) for i in range(0, len(lat), n)
        )

    def _op(self, phase: Phase, what: str, call: Callable, *args, **kwargs) -> bool:
        start = time.perf_counter()
        try:
            call(*args, **kwargs)
        except Exception:
            _client_error(what)
            phase.failed_ops += 1
            ok = False
        else:
            ok = True
        elapsed = time.perf_counter() - start
        phase.ops += 1
        phase.ops_s += elapsed
        phase.op_lat.append(elapsed)
        return ok

    def churn_round(self, rig: Rig, phase: Phase) -> None:
        broker, model = rig.broker, rig.model
        now = rig.clock.now()
        model.expire(now)
        for _ in range(self.unsubscribes_per_round):
            sid = model.oldest()
            model.remove(sid)
            self._op(phase, "unsubscribe", broker.unsubscribe, sid)
        target = len(self.population)
        while len(model) < target:
            new = self.arrivals[self._next_arrival]
            self._next_arrival += 1
            if new.formula is not None:
                ok = self._op(
                    phase, "subscribe_formula", broker.subscribe_formula,
                    new.formula, sub_id=new.id, ttl=new.ttl,
                )
            else:
                ok = self._op(phase, "subscribe", broker.subscribe, new.disjuncts[0], ttl=new.ttl)
            if ok:
                expires = None if new.ttl is None else now + new.ttl
                model.add(new.id, new.disjuncts, expires)

    def rounds_for(self, seconds: float) -> int:
        return max(2, int(round(self.rounds_per_second * seconds)))

    def run(self, rig: Rig, seconds: float, min_batches: int = 0) -> Phase:
        """Run the churn script sized for *seconds* (one round = churn,
        then one small ``publish_batch``)."""
        phase = Phase()
        pool = self.pool
        start = time.perf_counter()
        for index in range(self.rounds_for(seconds)):
            self.churn_round(rig, phase)
            self.publish(rig, pool[index % len(pool)], phase)
            phase.rounds += 1
            rig.clock.advance(self.clock_step)
        phase.wall_s = time.perf_counter() - start
        self.settle(rig, phase)
        return phase

    def finish(self, rig: Rig, tracer) -> Dict[str, float]:
        """Gate the pre-crash broker, crash it, recover a fresh one from
        the WAL, and require the same subscriptions and answers."""
        now = rig.clock.now()
        rig.model.expire(now)
        probe = self.gate
        want = rig.model.answers(probe)
        before = self._check_answers(rig, probe, want, "before the crash")
        ids_before = sorted(str(s.id) for s in rig.broker.matcher.iter_subscriptions())
        # The crash: the broker is abandoned as it stands.  Every WAL
        # record already reached the OS, which is all recovery reads.
        clock = VirtualClock(rig.clock.now())
        calls = types.SimpleNamespace(recover_files=recover_files)
        recovered = None
        try:
            start = time.perf_counter()
            matcher = StaticMatcher(statistics=self.statistics)
            matcher.use_metrics(rig.registry)
            recovered = Rig(PubSubBroker(matcher=matcher, clock=clock), clock, rig.registry)
            recovered.model = rig.model
            if tracer is not None:
                from layers import instrument

                instrument(tracer, recovered)
                tracer.wrap(calls, "recover_files", "recovery")
                segment = tracer.segment("recover")
            else:
                segment = contextlib.nullcontext()
            with segment:
                report = calls.recover_files(
                    recovered.broker, wal_path=rig.wal_path, metrics=rig.registry
                )
                recovered.broker.matcher.rebuild()
            recovery_s = time.perf_counter() - start
            if tracer is not None:
                tracer.unwrap_all()
            ids_after = sorted(str(s.id) for s in recovered.broker.matcher.iter_subscriptions())
            if ids_after != ids_before:
                raise GateError(
                    f"recovered {len(ids_after)} subscriptions, the crashed broker "
                    f"held {len(ids_before)}"
                )
            after = self._check_answers(recovered, probe, want, "after recovery")
            if [set(a) for a in after] != [set(b) for b in before]:
                raise GateError("recovered broker answers the probe differently")
        finally:
            if recovered is not None:
                recovered.broker.close()
        return {"recovery_s": recovery_s, "recovery_records": report.wal_records}


WORKLOADS = {cls.name: cls for cls in (W0Shards, ZipfFanout, ChurnRecover)}
