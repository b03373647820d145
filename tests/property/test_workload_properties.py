"""Property tests for the open-loop workload plane.

The ISSUE's contracts, pinned over generated inputs instead of a few
fixed seeds: the same seed must always reproduce the same arrival
trace; a thinned non-homogeneous trace can never exceed its envelope
candidates (acceptance is a subset by construction); cohort injection
must fire the exact ``(time, index)`` sequence of naive per-arrival
scheduling; and the streaming digests must be invariant under any
shard split and merge order.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.workload import ClientStats
from repro.load.arrivals import (
    DiurnalRate,
    MMPPProcess,
    NHPoissonProcess,
    ParetoSessions,
    PoissonProcess,
    StepRate,
)
from repro.load.inject import CohortInjector, NaiveInjector, quantize_ticks
from repro.load.stats import CommutativeDigest, StreamStats
from repro.obs.metrics import Histogram
from repro.simkernel import Simulator

seeds = st.integers(min_value=0, max_value=2**31)
rates = st.floats(min_value=1.0, max_value=2_000.0,
                  allow_nan=False, allow_infinity=False)
horizons = st.floats(min_value=0.5, max_value=30.0,
                     allow_nan=False, allow_infinity=False)
#: dyadic ticks are exactly representable, so quantised cohort times
#: are identical floats however they are computed
dyadic_ticks = st.sampled_from([2.0**-k for k in range(3, 10)])


def _model(kind: str, rate: float, horizon: float):
    if kind == "poisson":
        return PoissonProcess(rate)
    if kind == "diurnal":
        return NHPoissonProcess(
            DiurnalRate(rate, amplitude=0.7, period=max(horizon, 1.0),
                        regions=((0.0, 0.5), (horizon / 3.0, 0.5))))
    if kind == "step":
        return NHPoissonProcess(
            StepRate(rate, 4.0 * rate, horizon * 0.3, horizon * 0.6),
            name="nhpp-step")
    if kind == "mmpp":
        return MMPPProcess(rates=(rate, 5.0 * rate),
                           sojourns=(horizon / 4.0, horizon / 8.0))
    return ParetoSessions(PoissonProcess(rate / 10.0, name="session-starts"),
                          max_requests=100)


model_kinds = st.sampled_from(["poisson", "diurnal", "step", "mmpp", "sessions"])


class TestArrivalProperties:
    @given(kind=model_kinds, rate=rates, horizon=horizons, seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_same_seed_identical_trace(self, kind, rate, horizon, seed):
        model = _model(kind, rate, horizon)
        assert np.array_equal(model.sample(horizon, seed),
                              model.sample(horizon, seed))

    @given(kind=model_kinds, rate=rates, horizon=horizons, seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_sorted_and_bounded(self, kind, rate, horizon, seed):
        times = _model(kind, rate, horizon).sample(horizon, seed)
        assert np.all(np.diff(times) >= 0.0)
        if times.size:
            assert times[0] >= 0.0 and times[-1] < horizon

    @given(rate=rates, horizon=horizons, seed=seeds,
           amplitude=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_thinning_never_exceeds_envelope(self, rate, horizon, seed,
                                             amplitude):
        model = NHPoissonProcess(
            DiurnalRate(rate, amplitude=amplitude, period=max(horizon, 1.0)))
        accepted, candidates = model.sample_with_candidates(horizon, seed)
        assert accepted.size <= candidates.size
        # acceptance is a strict subset of the envelope-rate candidates
        assert np.all(np.isin(accepted, candidates))


class TestCohortProperties:
    @given(rate=st.floats(min_value=5.0, max_value=400.0),
           horizon=st.floats(min_value=0.5, max_value=8.0),
           tick=dyadic_ticks, seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_cohort_equals_naive_fire_sequence(self, rate, horizon, tick, seed):
        times = PoissonProcess(rate).sample(horizon, seed)
        sequences = []
        for cls in (CohortInjector, NaiveInjector):
            sim = Simulator(seed=1)
            fired = []
            injector = cls(sim, times, lambda t, i: fired.append((t, i)),
                           tick=tick)
            injector.start()
            sim.run()
            assert injector.fired == times.size
            sequences.append(fired)
        assert sequences[0] == sequences[1]

    @given(rate=st.floats(min_value=5.0, max_value=2_000.0),
           horizon=st.floats(min_value=0.5, max_value=10.0),
           tick=dyadic_ticks, seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_quantisation_delays_never_advances(self, rate, horizon, tick, seed):
        times = PoissonProcess(rate).sample(horizon, seed)
        ticks = quantize_ticks(times, tick)
        quantised = ticks * tick
        assert np.all(quantised >= times)
        assert np.all(quantised - times < tick + 1e-12)


class TestDigestProperties:
    @given(values=st.lists(st.floats(min_value=1e-6, max_value=100.0,
                                     allow_nan=False, allow_infinity=False),
                           min_size=1, max_size=200),
           cut=st.integers(min_value=0, max_value=200))
    @settings(max_examples=80, deadline=None)
    def test_latency_merge_is_split_invariant(self, values, cut):
        cut = min(cut, len(values))
        whole = Histogram()
        for value in values:
            whole.observe(value)
        left, right = Histogram(), Histogram()
        for value in values[:cut]:
            left.observe(value)
        for value in values[cut:]:
            right.observe(value)
        right.merge(left)  # and in the "wrong" direction
        assert right.fingerprint() == whole.fingerprint()
        # merge-then-percentile == observe-all-then-percentile
        for q in (0.5, 0.9, 0.95, 0.99, 0.999, 1.0):
            assert right.percentile(q) == whole.percentile(q)
        assert right.mean == whole.mean

    @given(values=st.lists(st.floats(min_value=1e-6, max_value=100.0,
                                     allow_nan=False, allow_infinity=False),
                           min_size=1, max_size=200))
    @settings(max_examples=80, deadline=None)
    def test_client_mean_is_the_list_mean_bit_for_bit(self, values):
        stats = ClientStats()
        total = 0.0  # sum(values) before 3.12 made it a compensated sum
        for value in values:
            stats.observe(value)
            total += value
        assert stats.mean_response == total / len(values)
        assert stats.observations == len(values)

    @given(records=st.lists(st.text(max_size=30), max_size=150),
           permutation_seed=seeds)
    @settings(max_examples=80, deadline=None)
    def test_commutative_digest_order_invariant(self, records, permutation_seed):
        rng = np.random.default_rng(permutation_seed)
        shuffled = [records[i] for i in rng.permutation(len(records))]
        a, b = CommutativeDigest(), CommutativeDigest()
        a.fold_many(records)
        b.fold_many(shuffled)
        assert a.hexdigest() == b.hexdigest()

    @given(events=st.lists(
        st.tuples(st.sampled_from(["resolve", "provision", "enact"]),
                  st.sampled_from(["ok", "shed", "timeout", "fail"]),
                  st.floats(min_value=0.0, max_value=60.0,
                            allow_nan=False, allow_infinity=False),
                  st.floats(min_value=1e-6, max_value=10.0,
                            allow_nan=False, allow_infinity=False)),
        max_size=120),
        n_shards=st.integers(min_value=1, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_stream_stats_shard_invariant(self, events, n_shards):
        def record(stats, op, outcome, t, latency):
            if outcome == "ok":
                stats.ok(op, latency, t)
            elif outcome == "shed":
                stats.shed(op, t)
            elif outcome == "timeout":
                stats.timeout(op, t)
            else:
                stats.fail(op, t)
            stats.digest.fold(f"{op}|{outcome}|{t!r}")

        whole = StreamStats(window=5.0)
        for event in events:
            record(whole, *event)

        shards = [StreamStats(window=5.0) for _ in range(n_shards)]
        for index, event in enumerate(events):
            record(shards[index % n_shards], *event)
        merged = shards[-1]  # merge into the *last* shard, reversed order
        for shard in reversed(shards[:-1]):
            merged.merge(shard)
        assert merged.fingerprint() == whole.fingerprint()
