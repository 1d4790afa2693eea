"""Streaming service: batching policy, smoothing, end-to-end parity.

The acceptance invariant of the subsystem: streaming predictions are
byte-identical to the offline :class:`~repro.hdc.classifier.HDClassifier`
on the same windows, no matter how many sessions are multiplexed or how
the scheduler batches them.
"""

import numpy as np
import pytest

from repro.emg.windows import WindowConfig
from repro.hdc import BatchHDClassifier, HDClassifierConfig, save_model
from repro.perf.streaming import DevicePerfModel
from repro.pulp.soc import CORTEX_M4_SOC, PULPV3_SOC
from repro.stream import (
    MajorityVoteSmoother,
    ShardedStreamingService,
    StreamConfig,
    StreamingService,
    stream_bytes,
)

DIM = 256
RATE = 500


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(7)
    clf = BatchHDClassifier(
        HDClassifierConfig(dim=DIM, n_channels=4, n_levels=8, signal_hi=1.0)
    )
    windows = rng.random((40, 5, 4))
    labels = [i % 4 for i in range(40)]
    return clf.fit(windows, labels)


def _service(model, **kwargs):
    defaults = dict(
        window=WindowConfig(window_samples=5, skip_onset_s=0.0),
        sample_rate_hz=RATE,
    )
    defaults.update(kwargs)
    return StreamingService(model, StreamConfig(**defaults))


class TestSmoother:
    def test_passthrough_k1(self):
        sm = MajorityVoteSmoother(1)
        assert [sm.update(x) for x in "abab"] == list("abab")

    def test_majority_wins(self):
        sm = MajorityVoteSmoother(3)
        assert sm.update("a") == "a"
        assert sm.update("b") == "b"  # tie of 1-1 -> most recent
        assert sm.update("a") == "a"
        assert sm.update("a") == "a"
        assert sm.update("b") == "a"  # history a,a,b
        assert sm.update("b") == "b"  # history a,b,b

    def test_single_glitch_suppressed(self):
        sm = MajorityVoteSmoother(5)
        out = [sm.update(x) for x in ["g", "g", "g", "x", "g", "g"]]
        assert out == ["g"] * 6

    def test_validation_and_reset(self):
        with pytest.raises(ValueError):
            MajorityVoteSmoother(0)
        sm = MajorityVoteSmoother(3)
        sm.update("a")
        sm.update("a")
        sm.reset()
        assert sm.update("b") == "b"


class TestSessionLifecycle:
    def test_duplicate_and_unknown_session(self, model):
        service = _service(model)
        service.open_session("u1")
        with pytest.raises(ValueError):
            service.open_session("u1")
        with pytest.raises(KeyError):
            service.ingest("nope", np.zeros((5, 4)))
        service.close_session("u1")
        with pytest.raises(KeyError):
            service.close_session("u1")

    def test_unfitted_model_rejected(self):
        unfitted = BatchHDClassifier(
            HDClassifierConfig(dim=DIM, n_channels=4, n_levels=8,
                               signal_hi=1.0)
        )
        with pytest.raises(RuntimeError):
            _service(unfitted)


def _bad_chunk(stream, bad):
    chunk = stream[300:400].copy()
    if bad == "nan":
        chunk[17, 2] = np.nan
    elif bad == "inf":
        chunk[5, 0] = -np.inf
    elif bad == "wrong-channels":
        chunk = chunk[:, :3]
    else:
        chunk = chunk[0]
    return chunk


BAD_CHUNKS = ["nan", "inf", "wrong-channels", "one-dimensional"]


class TestHostileInput:
    """A rejected chunk changes nothing: not the service clock, not its
    own session, and never a neighbour's decisions."""

    @staticmethod
    def _run(service, streams, poison=None):
        """Feed 100-sample chunks round-robin; ``poison`` = (session,
        chunk index, bad chunk) is sent in place of that chunk and must
        be rejected.  Returns each session's decision bytes."""
        for s in range(len(streams)):
            service.open_session(s)
        decisions = {s: [] for s in range(len(streams))}
        for chunk in range(streams[0].shape[0] // 100):
            for s, stream in enumerate(streams):
                if poison is not None and poison[:2] == (s, chunk):
                    clock = service.clock
                    with pytest.raises(ValueError):
                        service.ingest(s, poison[2])
                    assert service.clock == clock
                    continue
                for d in service.ingest(
                    s, stream[chunk * 100 : (chunk + 1) * 100]
                ):
                    decisions[d.session_id].append(d)
        for d in service.drain():
            decisions[d.session_id].append(d)
        return {s: stream_bytes(ds) for s, ds in decisions.items()}

    @staticmethod
    def _check(run, streams, chunk):
        clean = run(streams)
        poisoned = run(streams, poison=(0, 3, chunk))
        assert poisoned[1] == clean[1]
        # Session 0 stayed open and continued as if the rejected chunk
        # had never been sent.
        skipped = np.delete(streams[0], slice(300, 400), axis=0)
        reference = run([skipped, streams[1][:500]])
        assert poisoned[0] == reference[0]

    @pytest.mark.parametrize("bad", BAD_CHUNKS)
    def test_rejected_chunk_leaves_neighbour_bytes_intact(
        self, model, rng, bad
    ):
        def run(streams, poison=None):
            service = _service(model, max_batch=32, max_wait=3)
            out = self._run(service, streams, poison)
            assert {s.id for s in service.sessions} == set(out)
            return out

        streams = [rng.random((600, 4)) for _ in range(2)]
        self._check(run, streams, _bad_chunk(streams[0], bad))

    @pytest.mark.parametrize("bad", BAD_CHUNKS)
    def test_sharded_rejected_chunk_leaves_neighbour_bytes_intact(
        self, model, rng, tmp_path, bad
    ):
        """The coordinator rejects the chunk before its clock, journal
        or any shard moves, so no worker ever sees it."""
        path = save_model(tmp_path / "model", model)
        config = StreamConfig(
            window=WindowConfig(window_samples=5, skip_onset_s=0.0),
            sample_rate_hz=RATE,
            max_batch=32,
            max_wait=3,
        )

        def run(streams, poison=None):
            with ShardedStreamingService(path, config, n_shards=2) as fleet:
                out = self._run(fleet, streams, poison)
                assert set(fleet.session_ids) == set(out)
            return out

        streams = [rng.random((600, 4)) for _ in range(2)]
        self._check(run, streams, _bad_chunk(streams[0], bad))


class TestBatchingPolicy:
    def test_max_wait_zero_dispatches_every_ingest(self, model, rng):
        service = _service(model, max_wait=0)
        service.open_session(0)
        decisions = service.ingest(0, rng.random((10, 4)))
        assert len(decisions) == 2  # 10 samples -> 2 windows, same tick
        assert service.pending_windows == 0
        assert len(service.reports) == 1
        assert service.reports[0].n_windows == 2

    def test_max_wait_defers_partial_batches(self, model, rng):
        service = _service(model, max_wait=2, max_batch=64)
        service.open_session(0)
        assert service.ingest(0, rng.random((5, 4))) == []
        assert service.ingest(0, rng.random((5, 4))) == []
        assert service.pending_windows == 2
        # Third tick: the first window (enqueued at tick 1) has now aged
        # clock - enqueued_at = 2 >= max_wait, flushing the partial batch.
        decisions = service.ingest(0, rng.random((2, 4)))
        assert len(decisions) == 2
        assert decisions[0].queue_wait == 2

    def test_max_batch_splits_dispatches(self, model, rng):
        service = _service(model, max_batch=4, max_wait=0)
        service.open_session(0)
        decisions = service.ingest(0, rng.random((50, 4)))
        assert len(decisions) == 10
        assert [r.n_windows for r in service.reports] == [4, 4, 2]

    def test_drain_flushes_regardless_of_wait(self, model, rng):
        service = _service(model, max_wait=1000, max_batch=64)
        service.open_session(0)
        service.ingest(0, rng.random((25, 4)))
        assert service.pending_windows == 5
        assert len(service.drain()) == 5
        assert service.pending_windows == 0

    def test_batches_multiplex_sessions(self, model, rng):
        service = _service(model, max_wait=10, max_batch=64)
        for s in range(4):
            service.open_session(s)
        for s in range(4):
            service.ingest(s, rng.random((10, 4)))
        service.drain()
        assert any(r.n_sessions > 1 for r in service.reports)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StreamConfig(max_batch=0)
        with pytest.raises(ValueError):
            StreamConfig(max_wait=-1)
        with pytest.raises(ValueError):
            StreamConfig(smooth=0)
        with pytest.raises(ValueError):
            StreamConfig(sample_rate_hz=0)
        with pytest.raises(ValueError):
            StreamConfig(history=0)
        with pytest.raises(ValueError):
            StreamConfig(decision_cache_limit=0)

    def test_window_too_short_for_ngrams_rejected_at_setup(self, rng):
        ngram_model = BatchHDClassifier(
            HDClassifierConfig(
                dim=DIM, n_channels=4, n_levels=8, ngram_size=3,
                signal_hi=1.0,
            )
        ).fit(rng.random((8, 7, 4)), [0, 1] * 4)
        with pytest.raises(ValueError, match="3-grams"):
            StreamingService(
                ngram_model,
                StreamConfig(
                    window=WindowConfig(window_samples=2, skip_onset_s=0.0)
                ),
            )

    def test_history_bounds_retained_records(self, model, rng):
        service = _service(model, max_wait=0, history=6)
        service.open_session(0)
        service.ingest(0, rng.random((100, 4)))  # 20 windows, 1 batch
        session = service.sessions[0]
        assert session.n_decisions == 20  # lifetime count survives...
        assert len(session.decisions) == 6  # ...but history is bounded
        assert [d.index for d in session.decisions] == list(range(14, 20))
        assert service.total_windows == 20
        assert len(service.reports) <= 6


class TestDecisionCacheLRU:
    """Eviction is LRU, not wholesale: hot keys survive cold bursts.

    The cache only short-circuits a pure function, so the policy can
    never change an output — these tests pin the *performance* contract
    (which keys stay warm) and re-check bit-exactness for free.
    """

    #: Constant-valued windows quantise to distinct level patterns, one
    #: per value: deterministic cache keys without touching internals.
    @staticmethod
    def _window(value):
        return np.full((5, 4), value)

    def _lru_service(self, model, limit):
        service = _service(
            model, max_wait=0, decision_cache_limit=limit
        )
        service.open_session(0)
        return service

    def test_hot_key_survives_cold_evictions(self, model):
        service = self._lru_service(model, limit=3)
        values = np.linspace(0.05, 0.95, 7)
        hot = values[0]
        service.ingest(0, self._window(hot))  # miss: cache {hot}
        assert (service.cache_hits, service.cache_misses) == (0, 1)
        service.ingest(0, self._window(values[1]))  # {hot, v1}
        service.ingest(0, self._window(values[2]))  # {hot, v1, v2} full
        service.ingest(0, self._window(hot))  # hit, refreshes hot
        assert service.cache_hits == 1
        # Two cold inserts evict the two LRU keys (v1 then v2) -- the
        # recently-touched hot key must survive both.
        service.ingest(0, self._window(values[3]))
        service.ingest(0, self._window(values[4]))
        assert service.cache_evictions == 2
        assert service.cache_size == 3
        hits = service.cache_hits
        service.ingest(0, self._window(hot))
        assert service.cache_hits == hits + 1  # still cached
        # ...whereas the evicted cold key re-misses.
        misses = service.cache_misses
        service.ingest(0, self._window(values[1]))
        assert service.cache_misses == misses + 1

    def test_cache_never_exceeds_limit(self, model, rng):
        service = self._lru_service(model, limit=4)
        for value in np.linspace(0.02, 0.98, 9):
            service.ingest(0, self._window(value))
            assert service.cache_size <= 4

    def test_eviction_is_bit_exact(self, model, rng):
        """Predictions with a 2-entry cache thrashing constantly equal
        the cache-less service's on the same stream."""
        stream = rng.random((400, 4))
        thrash = _service(model, max_wait=0, decision_cache_limit=2)
        thrash.open_session(0)
        plain = _service(model, max_wait=0, decision_cache=False)
        plain.open_session(0)
        got = [d.raw_label for d in thrash.ingest(0, stream)]
        want = [d.raw_label for d in plain.ingest(0, stream)]
        assert got == want
        assert thrash.cache_evictions > 0

    def test_batch_larger_than_limit(self, model, rng):
        """One dispatch carrying more unique patterns than the limit
        must classify correctly and leave the cache within bounds."""
        service = self._lru_service(model, limit=2)
        stream = rng.random((200, 4))  # 40 mostly-unique windows
        decisions = service.ingest(0, stream)
        assert len(decisions) == 40
        assert service.cache_size <= 2
        offline = model.predict(
            np.stack([stream[i * 5: i * 5 + 5] for i in range(40)])
        )
        assert [d.raw_label for d in decisions] == offline


class TestTransactionalDispatch:
    def test_classify_fault_loses_no_window(self, model, rng, monkeypatch):
        """A batch holding two sessions' windows fails in classify: the
        queue keeps every window, and a later drain decides them
        byte-identically to a run that never failed."""
        streams = [rng.random((60, 4)) for _ in range(2)]

        def run(fault):
            service = _service(model, max_wait=1000, max_batch=16)
            decisions = {0: [], 1: []}
            service.open_session(0)
            service.open_session(1)
            assert service.ingest(0, streams[0]) == []  # 12 windows
            if fault:
                classify = service._classify
                calls = []

                def flaky(stacked, *args):
                    calls.append(stacked.shape[0])
                    if len(calls) == 1:
                        raise RuntimeError("injected classify fault")
                    return classify(stacked, *args)

                monkeypatch.setattr(service, "_classify", flaky)
                # 24 pending: the failing batch takes session 0's 12
                # windows and the first 4 of session 1's.
                with pytest.raises(RuntimeError, match="injected"):
                    service.ingest(1, streams[1])
                assert calls == [16]
                assert service.pending_windows == 24
                assert service.total_batches == 0
            else:
                for d in service.ingest(1, streams[1]):
                    decisions[d.session_id].append(d)
            for d in service.drain():
                decisions[d.session_id].append(d)
            assert service.pending_windows == 0
            return {s: stream_bytes(ds) for s, ds in decisions.items()}

        clean = run(fault=False)
        assert all(clean.values())
        assert run(fault=True) == clean


class TestClockInjection:
    def test_injected_ticks_drive_the_clock(self, model, rng):
        service = _service(model, max_wait=100, max_batch=64)
        service.open_session(0)
        service.ingest(0, rng.random((5, 4)), tick=7)
        assert service.clock == 7
        service.ingest(0, rng.random((2, 4)), tick=9)
        assert service.clock == 9

    def test_non_increasing_tick_rejected(self, model, rng):
        service = _service(model)
        service.open_session(0)
        service.ingest(0, rng.random((2, 4)), tick=5)
        with pytest.raises(ValueError, match="tick"):
            service.ingest(0, rng.random((2, 4)), tick=5)
        with pytest.raises(ValueError, match="tick"):
            service.ingest(0, rng.random((2, 4)), tick=3)

    def test_max_wait_ages_on_injected_ticks(self, model, rng):
        """A window enqueued at tick T dispatches once an injected tick
        reaches T + max_wait, regardless of how many ingest calls
        happened — the semantics a sharded coordinator relies on."""
        service = _service(model, max_wait=10, max_batch=64)
        service.open_session(0)
        assert service.ingest(0, rng.random((5, 4)), tick=100) == []
        # One call, far in the future: age 15 >= 10 flushes.
        decisions = service.ingest(0, rng.random((0, 4)), tick=115)
        assert len(decisions) == 1
        assert decisions[0].queue_wait == 15

    def test_mixed_injection_and_local_ticks(self, model, rng):
        service = _service(model, max_wait=50)
        service.open_session(0)
        service.ingest(0, rng.random((2, 4)))  # local: clock 1
        service.ingest(0, rng.random((2, 4)), tick=10)
        service.ingest(0, rng.random((2, 4)))  # local again: 11
        assert service.clock == 11


class TestOfflineParity:
    def test_streaming_equals_offline_predictions(self, model, rng):
        """The acceptance pin: interleaved multi-session streaming with
        aggressive batching produces exactly the offline predictions of
        each session's windows, in order."""
        n_sessions = 5
        streams = [rng.random((137, 4)) for _ in range(n_sessions)]
        service = _service(model, max_batch=7, max_wait=2, smooth=1)
        for s in range(n_sessions):
            service.open_session(s)
        offsets = [0] * n_sessions
        sizes = rng.integers(1, 23, size=500).tolist()
        i = 0
        while any(o < 137 for o in offsets):
            s = i % n_sessions
            if offsets[s] < 137:
                step = sizes[i % len(sizes)]
                service.ingest(
                    s, streams[s][offsets[s] : offsets[s] + step]
                )
                offsets[s] += step
            i += 1
        service.drain()

        from repro.emg.dataset import Trial
        from repro.emg.windows import windows_from_trial

        config = service.config.window
        for s, session in enumerate(service.sessions):
            # The oracle is the real offline slicer + batch classifier.
            wins = windows_from_trial(
                Trial(
                    subject_id=0, gesture=0, repetition=0,
                    envelope=streams[s],
                ),
                config,
            )
            expected = model.predict(np.asarray(wins))
            got = [d.raw_label for d in session.decisions]
            assert got == expected
            assert [d.index for d in session.decisions] == list(
                range(len(expected))
            )

    def test_smoothed_labels_follow_vote(self, model, rng):
        service = _service(model, smooth=3, max_wait=0)
        service.open_session(0)
        service.ingest(0, rng.random((200, 4)))
        session = service.sessions[0]
        votes = MajorityVoteSmoother(3)
        for decision in session.decisions:
            assert decision.label == votes.update(decision.raw_label)

    def test_feature_extraction_matches_offline(self, model, rng):
        from repro.emg.features import window_features

        service = _service(model, extract_features=True, max_wait=0)
        service.open_session(0)
        stream = rng.random((40, 4))
        service.ingest(0, stream)
        session = service.sessions[0]
        assert session.n_decisions == 8
        for i, decision in enumerate(session.decisions):
            window = stream[i * 5 : i * 5 + 5]
            assert np.array_equal(
                decision.features, window_features(window)
            )


class TestTelemetry:
    def test_device_accounting_attached_to_reports(self, model, rng):
        device = DevicePerfModel.from_cycles(
            143_000, soc=PULPV3_SOC, n_cores=4, dim=DIM
        )
        service = StreamingService(
            model,
            StreamConfig(
                window=WindowConfig(window_samples=5, skip_onset_s=0.0),
                max_wait=0,
            ),
            device=device,
        )
        service.open_session(0)
        service.ingest(0, rng.random((50, 4)))
        report = service.reports[0]
        assert report.n_windows == 10
        assert report.device.n_windows == 10
        assert report.device.total_cycles == 10 * 143_000
        assert report.host_seconds > 0.0
        assert report.host_windows_per_sec > 0.0
        # The paper's Table 2 operating point: 143 kcycles at 14.3 MHz
        # meets the 10 ms deadline.
        assert device.meets_deadline
        assert device.f_mhz == pytest.approx(14.3)
        assert report.device.serial_latency_ms == pytest.approx(100.0)
        assert report.device.energy_uj == pytest.approx(
            10 * device.window_energy_uj
        )

    def test_m4_model_uses_flat_power(self):
        device = DevicePerfModel.from_cycles(
            439_000, soc=CORTEX_M4_SOC, n_cores=1, dim=DIM
        )
        assert device.f_mhz == pytest.approx(43.9)
        # Table 2: 20.83 mW at 43.9 MHz.
        assert device.power_mw == pytest.approx(20.83, rel=1e-3)

    def test_from_cycles_validation(self):
        with pytest.raises(ValueError):
            DevicePerfModel.from_cycles(0)
        device = DevicePerfModel.from_cycles(1000)
        with pytest.raises(ValueError):
            device.account(-1)
        assert device.account(0).energy_uj == 0.0


class TestSpatialRowCache:
    """Overlapping strides dedup shared sample rows across batches."""

    @staticmethod
    def _fresh_model(seed=7):
        rng = np.random.default_rng(seed)
        clf = BatchHDClassifier(
            HDClassifierConfig(
                dim=DIM, n_channels=4, n_levels=8, signal_hi=1.0
            )
        )
        windows = rng.random((40, 5, 4))
        return clf.fit(windows, [i % 4 for i in range(40)])

    def test_overlapping_stride_bit_exact(self, rng):
        """A stride < W service decides like offline ``predict`` on the
        same windows, with and without the decision cache in front of
        the row memo, and its shifted windows actually hit the shared
        spatial rows."""
        stream = rng.random((200, 4))
        window = WindowConfig(
            window_samples=5, stride_samples=1, skip_onset_s=0.0
        )
        cached = StreamingService(
            self._fresh_model(),
            StreamConfig(window=window, sample_rate_hz=RATE, max_wait=0),
        )
        uncached = StreamingService(
            self._fresh_model(),
            StreamConfig(
                window=window,
                sample_rate_hz=RATE,
                max_wait=0,
                decision_cache=False,
            ),
        )
        cached.open_session(0)
        uncached.open_session(0)
        got, got_uncached = [], []
        # Chunked delivery, as a live stream would arrive: windows that
        # straddle chunk boundaries share rows with earlier encodes.
        for chunk in np.array_split(stream, 8):
            got.extend(d.raw_label for d in cached.ingest(0, chunk))
            got_uncached.extend(
                d.raw_label for d in uncached.ingest(0, chunk)
            )
        windows = np.stack(
            [stream[i : i + 5] for i in range(len(stream) - 4)]
        )
        want = self._fresh_model().predict(windows)
        assert got == want
        assert got_uncached == want
        spatial = cached.model.encoder.spatial
        assert spatial.row_cache_hits > 0  # shifted windows dedup'd
