"""Tests for the engine's fault-tolerance layer (``repro.engine.resilience``).

Everything runs on a :class:`~repro.obs.clock.ManualClock`: latency
spikes, stuck-shard hangs, backoff sleeps, and breaker cooldowns all
burn *virtual* time, so each scenario — including the full chaos soak —
is deterministic and instant.

The load-bearing acceptance property: with the FaultInjector perturbing
at least 20% of shard sub-operations, every non-degraded engine answer
equals the unsharded reference, and every degraded answer is explicitly
marked (``partial=True`` with its missing shards named).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.engine import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    Deadline,
    FaultInjector,
    FaultScript,
    PartialResult,
    ResiliencePolicy,
    SerialExecutor,
    ShardedEngine,
    is_partial,
)
from repro.exceptions import (
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    InjectedFaultError,
    ResilienceError,
    ShardFailedError,
)
from repro.methods import build_method
from repro.obs import ManualClock, Observability
from repro.workloads import (
    PointUpdate,
    RangeQuery,
    clustered,
    interleaved,
    random_updates,
    straddling_ranges,
)



def make_engine(data, *, policy, injector_kwargs=None, shards=4, cache=64):
    """Engine + injector + clock wired for one deterministic scenario."""
    clock = ManualClock()
    obs = Observability(clock=clock)
    injector = FaultInjector(SerialExecutor(), clock=clock, **(injector_kwargs or {}))
    engine = ShardedEngine.from_array(
        data,
        shards=shards,
        cache_size=cache,
        obs=obs,
        resilience=policy,
        executor=injector,
    )
    return engine, injector, clock, obs


class TestResiliencePolicy:
    def test_defaults_validate(self):
        policy = ResiliencePolicy()
        assert policy.degradation == "strict"
        assert policy.deadline_seconds is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline_seconds": 0.0},
            {"deadline_seconds": -1.0},
            {"max_retries": -1},
            {"backoff_base": -0.1},
            {"backoff_multiplier": 0.5},
            {"jitter": -0.1},
            {"breaker_window": -1},
            {"breaker_failure_threshold": 0.0},
            {"breaker_failure_threshold": 1.5},
            {"degradation": "shrug"},
        ],
    )
    def test_rejects_bad_configuration(self, kwargs):
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(**kwargs)

    def test_backoff_grows_exponentially_and_caps(self):
        policy = ResiliencePolicy(
            backoff_base=0.01, backoff_multiplier=2.0, backoff_cap=0.05, jitter=0.0
        )
        rng = random.Random(0)
        sleeps = [policy.backoff(i, rng) for i in range(6)]
        assert sleeps[:3] == [0.01, 0.02, 0.04]
        assert all(s == 0.05 for s in sleeps[3:])

    def test_backoff_jitter_is_seeded_and_bounded(self):
        policy = ResiliencePolicy(backoff_base=0.01, jitter=0.5, backoff_cap=1.0)
        a = [policy.backoff(0, random.Random(7)) for _ in range(3)]
        b = [policy.backoff(0, random.Random(7)) for _ in range(3)]
        assert a == b  # same seed, same jitter stream
        assert all(0.01 <= s <= 0.015 for s in a)


class TestDeadline:
    def test_no_budget_means_no_deadline(self):
        assert Deadline.after(ManualClock(), None) is None

    def test_remaining_and_expiry_follow_the_clock(self):
        clock = ManualClock()
        deadline = Deadline.after(clock, 1.0)
        assert deadline.remaining(clock) == pytest.approx(1.0)
        clock.advance(0.75)
        assert deadline.remaining(clock) == pytest.approx(0.25)
        assert not deadline.expired(clock)
        clock.advance(0.25)
        assert deadline.expired(clock)
        assert deadline.remaining(clock) == 0.0


class TestCircuitBreaker:
    def policy(self, **kwargs):
        defaults = dict(
            breaker_window=4,
            breaker_failure_threshold=0.5,
            breaker_cooldown_seconds=5.0,
        )
        defaults.update(kwargs)
        return ResiliencePolicy(**defaults)

    def test_stays_closed_below_threshold(self):
        breaker = CircuitBreaker(self.policy())
        for i in range(8):
            if i % 4 == 0:
                breaker.record_failure(0.0)
            else:
                breaker.record_success(0.0)
        assert breaker.state == BREAKER_CLOSED

    def test_opens_when_window_full_and_failing(self):
        breaker = CircuitBreaker(self.policy())
        breaker.record_failure(0.0)
        assert breaker.state == BREAKER_CLOSED  # window not full yet
        for _ in range(3):
            breaker.record_failure(0.0)
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow(1.0)  # cooldown not elapsed

    def test_open_half_open_closed_recovery(self):
        """The full state-machine round trip, on deterministic time."""
        breaker = CircuitBreaker(self.policy())
        for _ in range(4):
            breaker.record_failure(0.0)
        assert breaker.state == BREAKER_OPEN
        # After the cooldown exactly one probe is admitted.
        assert breaker.allow(5.0)
        assert breaker.state == BREAKER_HALF_OPEN
        assert not breaker.allow(5.0)  # second caller during the probe
        breaker.record_success(5.0)
        assert breaker.state == BREAKER_CLOSED
        assert breaker.failure_rate() == 0.0  # window reset

    def test_half_open_failure_rearms_the_cooldown(self):
        breaker = CircuitBreaker(self.policy())
        for _ in range(4):
            breaker.record_failure(0.0)
        assert breaker.allow(5.0)
        breaker.record_failure(5.0)
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow(9.0)  # new cooldown runs from t=5
        assert breaker.allow(10.0)
        assert breaker.state == BREAKER_HALF_OPEN

    def test_window_zero_disables_the_breaker(self):
        breaker = CircuitBreaker(self.policy(breaker_window=0))
        for _ in range(20):
            breaker.record_failure(0.0)
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow(0.0)

    def test_gauge_values_order_by_severity(self):
        breaker = CircuitBreaker(self.policy())
        assert breaker.gauge_value == 0
        for _ in range(4):
            breaker.record_failure(0.0)
        assert breaker.gauge_value == 2
        breaker.allow(5.0)
        assert breaker.gauge_value == 1


class TestPartialResult:
    def test_marked_and_numeric(self):
        value = PartialResult(42, missing_shards=[2, 0])
        assert is_partial(value)
        assert value.partial is True
        assert value.missing_shards == (0, 2)
        assert int(value) == 42
        assert float(value) == 42.0
        assert value == 42
        assert value + 1 == 43
        assert 1 + value == 43

    def test_plain_numbers_are_not_partial(self):
        assert not is_partial(42)
        assert not is_partial(np.int64(42))
        assert not is_partial(None)


class TestFaultInjector:
    def task(self, item):
        return item[0] * 10

    def test_rates_validated(self):
        with pytest.raises(ConfigurationError):
            FaultInjector(SerialExecutor(), ManualClock(), fault_rate=1.5)

    def test_deterministic_across_runs(self):
        outcomes = []
        for _ in range(2):
            injector = FaultInjector(
                SerialExecutor(), ManualClock(), seed=3, fault_rate=0.5
            )
            run = injector.try_map(self.task, [(i,) for i in range(20)])
            outcomes.append([error is None for _, error in run])
        assert outcomes[0] == outcomes[1]
        assert injector.injected["fault"] > 0

    def test_scripts_fail_exactly_n_then_recover(self):
        injector = FaultInjector(
            SerialExecutor(),
            ManualClock(),
            scripts={0: FaultScript(fail_next=2)},
        )
        items = [(0,)] * 4
        errors = [error for _, error in injector.try_map(self.task, items)]
        assert [isinstance(e, InjectedFaultError) for e in errors] == [
            True, True, False, False,
        ]
        assert injector.injected["script"] == 2

    def test_hang_burns_virtual_time_then_fails(self):
        clock = ManualClock()
        injector = FaultInjector(
            SerialExecutor(), clock, hang_rate=1.0, hang_seconds=0.25
        )
        (result, error), = injector.try_map(self.task, [(0,)])
        assert result is None
        assert isinstance(error, InjectedFaultError)
        assert clock.now() == pytest.approx(0.25)

    def test_latency_spike_sleeps_but_succeeds(self):
        clock = ManualClock()
        injector = FaultInjector(
            SerialExecutor(), clock, latency_rate=1.0, latency_seconds=0.02
        )
        (result, error), = injector.try_map(self.task, [(3,)])
        assert (result, error) == (30, None)
        assert clock.now() == pytest.approx(0.02)

    def test_report_tallies(self):
        injector = FaultInjector(
            SerialExecutor(), ManualClock(), seed=1, fault_rate=0.4
        )
        injector.try_map(self.task, [(i,) for i in range(50)])
        report = injector.report()
        assert report["calls"] == 50
        assert report["injected_total"] == report["injected_fault"]
        assert report["injected_rate"] == pytest.approx(
            report["injected_total"] / 50
        )


class TestExecutorFailurePaths:
    """``try_map`` semantics of the serial fan-out (the process
    executor's base too): the failure paths the resilient fan-out is
    built on."""

    def boom(self, item):
        if item == 13:
            raise RuntimeError("boom")
        return item * 2

    @pytest.mark.parametrize("executor_factory", [SerialExecutor])
    def test_one_raising_item_never_aborts_siblings(self, executor_factory):
        executor = executor_factory()
        try:
            outcomes = executor.try_map(self.boom, [1, 13, 5])
            assert [r for r, _ in outcomes] == [2, None, 10]
            errors = [e for _, e in outcomes]
            assert errors[0] is None and errors[2] is None
            assert isinstance(errors[1], RuntimeError)
        finally:
            executor.shutdown()

    def test_map_still_propagates_first_error(self):
        with pytest.raises(RuntimeError):
            SerialExecutor().map(self.boom, [1, 13, 5])

    def test_serial_refuses_items_after_budget_spent(self):
        clock = ManualClock()

        def slow(item):
            clock.advance(0.6)
            return item

        outcomes = SerialExecutor().try_map(
            slow, [1, 2, 3], timeout=1.0, clock=clock
        )
        assert outcomes[0] == (1, None)
        assert outcomes[1] == (2, None)  # started at t=0.6 < deadline
        result, error = outcomes[2]
        assert result is None
        assert isinstance(error, DeadlineExceededError)

    def test_outcomes_keep_submission_order(self):
        outcomes = SerialExecutor().try_map(lambda i: i, list(range(16)))
        assert [r for r, _ in outcomes] == list(range(16))


class TestEngineChaosCorrectness:
    """The acceptance criterion: >= 20% injected faults, zero silent lies."""

    SHAPE = (32, 32)

    def reference_stream(self, data, events):
        """Ground-truth answer per event from the unsharded method."""
        reference = build_method("ddc", data)
        expected = []
        for event in events:
            if isinstance(event, RangeQuery):
                expected.append(int(reference.range_sum(event.low, event.high)))
            else:
                reference.add(event.cell, event.delta)
                expected.append(None)
        return expected

    def chaos_stream(self, seed=0, count=150):
        data = clustered(self.SHAPE, seed=seed)
        reads = straddling_ranges(self.SHAPE, count * 3 // 4, shards=4, seed=seed + 1)
        writes = random_updates(self.SHAPE, count // 4, seed=seed + 2)
        events = list(interleaved(reads, writes, query_fraction=0.75, seed=seed + 3))
        return data, events, self.reference_stream(data, events)

    def test_fallback_mode_serves_exact_answers_under_faults(self):
        data, events, expected = self.chaos_stream()
        policy = ResiliencePolicy(max_retries=3, degradation="fallback", retry_seed=0)
        engine, injector, _, _ = make_engine(
            data, policy=policy, injector_kwargs={"seed": 0, "fault_rate": 0.3}
        )
        for event, want in zip(events, expected):
            if isinstance(event, PointUpdate):
                engine.add(event.cell, event.delta)
                continue
            got = engine.range_sum(event.low, event.high)
            assert not is_partial(got)
            assert int(got) == want
        assert injector.report()["injected_rate"] >= 0.20
        engine.close()

    def test_partial_mode_marks_every_degraded_answer(self):
        data, events, expected = self.chaos_stream(seed=5)
        policy = ResiliencePolicy(max_retries=0, degradation="partial", retry_seed=5)
        engine, injector, _, _ = make_engine(
            data,
            policy=policy,
            injector_kwargs={"seed": 5, "fault_rate": 0.3},
        )
        degraded = 0
        for event, want in zip(events, expected):
            if isinstance(event, PointUpdate):
                engine.add(event.cell, event.delta)
                continue
            got = engine.range_sum(event.low, event.high)
            if is_partial(got):
                degraded += 1
                assert got.missing_shards  # names its gaps
            else:
                assert int(got) == want  # non-degraded answers are exact
        assert degraded > 0
        assert injector.report()["injected_rate"] >= 0.20
        engine.close()

    def test_partial_value_is_the_sum_of_the_healthy_shards(self):
        """A partial answer must never silently drop a *healthy* shard's
        sub-range sum: value + missing shards' true sums == exact sum."""
        data = clustered(self.SHAPE, seed=9)
        policy = ResiliencePolicy(
            max_retries=0, degradation="partial", breaker_window=0
        )
        engine, _, _, _ = make_engine(
            data,
            policy=policy,
            injector_kwargs={"scripts": {1: FaultScript(fail_next=1)}},
            cache=0,
        )
        low, high = (0, 0), (self.SHAPE[0] - 1, self.SHAPE[1] - 1)
        got = engine.range_sum(low, high)
        assert is_partial(got) and got.missing_shards == (1,)
        span = engine.plan.spans[1]
        missing_true_sum = int(data[span.start : span.stop].sum())
        assert int(got) + missing_true_sum == int(data.sum())
        engine.close()

    def test_partial_results_are_never_cached(self):
        data = clustered(self.SHAPE, seed=2)
        policy = ResiliencePolicy(
            max_retries=0, degradation="partial", breaker_window=0
        )
        engine, _, _, _ = make_engine(
            data,
            policy=policy,
            injector_kwargs={"scripts": {0: FaultScript(fail_next=1)}},
        )
        low, high = (0, 0), (self.SHAPE[0] - 1, 5)
        first = engine.range_sum(low, high)
        assert is_partial(first)
        second = engine.range_sum(low, high)  # script exhausted: recomputes
        assert not is_partial(second)
        assert int(second) == int(clustered(self.SHAPE, seed=2)[:, :6].sum())
        engine.close()

    def test_strict_mode_raises_shard_failed(self):
        data = clustered(self.SHAPE, seed=3)
        policy = ResiliencePolicy(
            max_retries=1, degradation="strict", breaker_window=0
        )
        engine, _, _, _ = make_engine(
            data,
            policy=policy,
            injector_kwargs={"scripts": {0: FaultScript(fail_next=10)}},
        )
        with pytest.raises(ShardFailedError) as excinfo:
            engine.range_sum((0, 0), (self.SHAPE[0] - 1, 3))
        assert isinstance(excinfo.value, ResilienceError)
        engine.close()

    def test_deadline_budget_turns_hangs_into_timeouts(self):
        data = clustered(self.SHAPE, seed=4)
        policy = ResiliencePolicy(
            deadline_seconds=0.05,
            max_retries=5,
            degradation="strict",
            breaker_window=0,
        )
        engine, _, clock, obs = make_engine(
            data,
            policy=policy,
            injector_kwargs={"hang_rate": 1.0, "hang_seconds": 0.03},
        )
        with pytest.raises(DeadlineExceededError):
            engine.range_sum((0, 0), (self.SHAPE[0] - 1, 3))
        timeouts = obs.metrics.counter("repro_engine_timeouts_total", "")
        assert timeouts.value > 0
        assert clock.now() >= 0.05  # the budget was actually burned
        engine.close()

    def test_retries_recover_transient_faults_and_are_counted(self):
        data = clustered(self.SHAPE, seed=6)
        policy = ResiliencePolicy(
            max_retries=2, degradation="strict", breaker_window=0,
            backoff_base=0.01, jitter=0.0,
        )
        engine, injector, clock, obs = make_engine(
            data,
            policy=policy,
            injector_kwargs={"scripts": {0: FaultScript(fail_next=1)}},
        )
        got = engine.range_sum((0, 0), (self.SHAPE[0] - 1, 3))
        assert int(got) == int(clustered(self.SHAPE, seed=6)[:, :4].sum())
        retries = obs.metrics.counter(
            "repro_engine_retries_total", "", labels=("shard",)
        )
        assert retries.labels(shard="0").value == 1
        assert clock.now() >= 0.01  # one backoff sleep happened
        engine.close()


class TestEngineBreakerLifecycle:
    """Breaker opens under scripted faults, then half-open-recovers —
    fully deterministic on the ManualClock."""

    SHAPE = (32, 8)

    def breaker_engine(self):
        data = clustered(self.SHAPE, seed=0)
        policy = ResiliencePolicy(
            max_retries=0,
            degradation="partial",
            breaker_window=2,
            breaker_failure_threshold=1.0,
            breaker_cooldown_seconds=5.0,
        )
        return make_engine(
            data,
            policy=policy,
            injector_kwargs={"scripts": {0: FaultScript(fail_next=2)}},
            cache=0,
        )

    def read(self, engine):
        return engine.range_sum((0, 0), (self.SHAPE[0] - 1, self.SHAPE[1] - 1))

    def state_of(self, engine, shard):
        return engine.resilience_info()["breakers"][shard]["state"]

    def test_open_then_half_open_probe_recovers(self):
        engine, injector, clock, obs = self.breaker_engine()
        # Two scripted failures fill the window and trip the breaker.
        assert is_partial(self.read(engine))
        assert self.state_of(engine, 0) == BREAKER_CLOSED
        assert is_partial(self.read(engine))
        assert self.state_of(engine, 0) == BREAKER_OPEN
        # While open the shard is refused without being attempted.
        calls_before = injector.calls
        degraded = self.read(engine)
        assert is_partial(degraded) and degraded.missing_shards == (0,)
        # Shard 0 never reached the executor: only the other shards ran.
        assert injector.calls == calls_before + engine.plan.count - 1
        # After the cooldown the next read sends a half-open probe; the
        # script is exhausted, so the probe succeeds and the breaker
        # closes — and the answer is exact again.
        clock.advance(5.0)
        recovered = self.read(engine)
        assert not is_partial(recovered)
        assert self.state_of(engine, 0) == BREAKER_CLOSED
        engine.close()

    def test_breaker_transitions_and_state_gauge_emitted(self):
        engine, _, clock, obs = self.breaker_engine()
        self.read(engine)
        self.read(engine)  # trips open
        clock.advance(5.0)
        self.read(engine)  # half-open probe, closes
        transitions = obs.metrics.counter(
            "repro_engine_breaker_transitions_total", "", labels=("shard", "to")
        )
        assert transitions.labels(shard="0", to=BREAKER_OPEN).value == 1
        assert transitions.labels(shard="0", to=BREAKER_HALF_OPEN).value == 1
        assert transitions.labels(shard="0", to=BREAKER_CLOSED).value == 1
        gauge = obs.metrics.gauge(
            "repro_engine_breaker_state", "", labels=("shard",)
        )
        assert gauge.labels(shard="0").value == 0  # closed again
        engine.close()

    def test_open_breaker_in_strict_mode_raises_circuit_open(self):
        data = clustered(self.SHAPE, seed=0)
        policy = ResiliencePolicy(
            max_retries=0,
            degradation="strict",
            breaker_window=2,
            breaker_failure_threshold=1.0,
            breaker_cooldown_seconds=5.0,
        )
        engine, _, _, _ = make_engine(
            data,
            policy=policy,
            injector_kwargs={"scripts": {0: FaultScript(fail_next=2)}},
            cache=0,
        )
        for _ in range(2):
            with pytest.raises(ShardFailedError):
                self.read(engine)
        with pytest.raises(ShardFailedError) as excinfo:
            self.read(engine)
        assert isinstance(excinfo.value.__cause__, CircuitOpenError)
        engine.close()


class TestResilienceInfo:
    def test_none_without_policy(self):
        engine = ShardedEngine((16, 4), shards=2)
        assert engine.resilience_info() is None
        engine.close()

    def test_reports_policy_and_breakers(self):
        policy = ResiliencePolicy(degradation="partial", max_retries=1)
        engine = ShardedEngine((16, 4), shards=2, resilience=policy)
        info = engine.resilience_info()
        assert info["degradation"] == "partial"
        assert info["max_retries"] == 1
        assert [b["shard"] for b in info["breakers"]] == [0, 1]
        assert all(b["state"] == BREAKER_CLOSED for b in info["breakers"])
        engine.close()

    def test_resilient_engine_matches_reference_without_faults(self):
        """Policy attached but nothing failing: byte-identical serving."""
        data = clustered((24, 24), seed=8)
        policy = ResiliencePolicy(degradation="strict", max_retries=2)
        engine = ShardedEngine.from_array(
            data, shards=3, cache_size=32, resilience=policy
        )
        reference = build_method("ddc", data)
        for query in straddling_ranges((24, 24), 30, shards=3, seed=11):
            assert int(engine.range_sum(query.low, query.high)) == int(
                reference.range_sum(query.low, query.high)
            )
        engine.close()
