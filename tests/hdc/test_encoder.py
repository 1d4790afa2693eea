"""Tests for the spatial, temporal, and window encoders."""

import numpy as np
import pytest

from repro.hdc import (
    ContinuousItemMemory,
    ItemMemory,
    SpatialEncoder,
    TemporalEncoder,
    WindowEncoder,
    bundle,
)
from repro.hdc import reference
from repro.hdc.encoder import _DEDUP_MIN_ROWS


@pytest.fixture
def spatial(rng):
    im = ItemMemory.for_channels(4, 256, rng)
    cim = ContinuousItemMemory(8, 256, rng)
    return SpatialEncoder(im, cim, 0.0, 21.0)


class TestSpatialEncoder:
    def test_dim_mismatch_rejected(self, rng):
        im = ItemMemory.for_channels(2, 64, rng)
        cim = ContinuousItemMemory(4, 128, rng)
        with pytest.raises(ValueError):
            SpatialEncoder(im, cim, 0.0, 1.0)

    def test_bad_signal_range(self, rng):
        im = ItemMemory.for_channels(2, 64, rng)
        cim = ContinuousItemMemory(4, 64, rng)
        with pytest.raises(ValueError):
            SpatialEncoder(im, cim, 1.0, 1.0)

    def test_encode_is_bundle_of_bound(self, spatial, rng):
        sample = rng.uniform(0, 21, size=4)
        bound = spatial.bound_vectors(sample)
        assert spatial.encode(sample) == bundle(bound)

    def test_wrong_channel_count(self, spatial):
        with pytest.raises(ValueError):
            spatial.encode(np.zeros(3))

    def test_encode_levels_matches_encode(self, spatial, rng):
        sample = rng.uniform(0, 21, size=4)
        levels = [
            spatial.continuous_memory.quantize(v, 0.0, 21.0)
            for v in sample
        ]
        assert spatial.encode_levels(levels) == spatial.encode(sample)

    def test_similar_samples_similar_vectors(self, spatial):
        a = spatial.encode([5.0, 10.0, 2.0, 18.0])
        b = spatial.encode([5.0, 10.0, 2.0, 18.0])
        assert a == b

    def test_deterministic_given_seeds(self, rng):
        sample = [1.0, 2.0, 3.0, 4.0]
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        enc_a = SpatialEncoder(
            ItemMemory.for_channels(4, 128, rng_a),
            ContinuousItemMemory(8, 128, rng_a), 0, 21,
        )
        enc_b = SpatialEncoder(
            ItemMemory.for_channels(4, 128, rng_b),
            ContinuousItemMemory(8, 128, rng_b), 0, 21,
        )
        assert enc_a.encode(sample) == enc_b.encode(sample)


class TestTemporalEncoder:
    def test_ngram_size_validation(self):
        with pytest.raises(ValueError):
            TemporalEncoder(0)

    def test_n1_is_identity(self, spatial, rng):
        enc = TemporalEncoder(1)
        v = spatial.encode(rng.uniform(0, 21, size=4))
        assert enc.encode([v]) == v

    def test_wrong_length_rejected(self, spatial, rng):
        enc = TemporalEncoder(3)
        v = spatial.encode(rng.uniform(0, 21, size=4))
        with pytest.raises(ValueError):
            enc.encode([v, v])

    def test_matches_rotation_formula(self, spatial, rng):
        enc = TemporalEncoder(3)
        vs = [spatial.encode(rng.uniform(0, 21, size=4)) for _ in range(3)]
        expected = vs[0] ^ vs[1].rotate(1) ^ vs[2].rotate(2)
        assert enc.encode(vs) == expected

    def test_matches_reference(self, rng):
        dim = 100
        seq = [reference.random_hv(dim, rng) for _ in range(4)]
        from repro.hdc import BinaryHypervector

        packed = [BinaryHypervector.from_bits(b) for b in seq]
        enc = TemporalEncoder(4)
        np.testing.assert_array_equal(
            enc.encode(packed).to_bits(), reference.temporal_encode(seq)
        )

    def test_sliding_count(self, spatial, rng):
        enc = TemporalEncoder(3)
        vs = [spatial.encode(rng.uniform(0, 21, size=4)) for _ in range(7)]
        grams = enc.sliding(vs)
        assert len(grams) == 5
        assert grams[0] == enc.encode(vs[0:3])
        assert grams[4] == enc.encode(vs[4:7])

    def test_sliding_too_short(self, spatial, rng):
        enc = TemporalEncoder(5)
        vs = [spatial.encode(rng.uniform(0, 21, size=4)) for _ in range(3)]
        with pytest.raises(ValueError):
            enc.sliding(vs)

    def test_order_sensitivity(self, spatial, rng):
        """Sequences in different orders encode to distant vectors."""
        enc = TemporalEncoder(2)
        a = spatial.encode(rng.uniform(0, 21, size=4))
        b = spatial.encode(rng.uniform(0, 21, size=4))
        forward = enc.encode([a, b])
        backward = enc.encode([b, a])
        assert forward.hamming(backward) > 0.2 * forward.dim


class TestWindowEncoder:
    def test_encode_shape_validation(self, spatial):
        enc = WindowEncoder(spatial, TemporalEncoder(1))
        with pytest.raises(ValueError):
            enc.encode(np.zeros(5))

    def test_n1_window_is_bundle_of_spatials(self, spatial, rng):
        enc = WindowEncoder(spatial, TemporalEncoder(1))
        window = rng.uniform(0, 21, size=(5, 4))
        expected = bundle([spatial.encode(row) for row in window])
        assert enc.encode(window) == expected

    def test_ngram_count(self, spatial, rng):
        enc = WindowEncoder(spatial, TemporalEncoder(3))
        window = rng.uniform(0, 21, size=(7, 4))
        assert len(enc.ngrams(window)) == 5

    def test_matches_reference_classifier_encoding(self, rng):
        ref = reference.ReferenceHDClassifier(
            dim=128, n_channels=4, n_levels=8, ngram_size=2,
            signal_lo=0.0, signal_hi=21.0, seed=42,
        )
        from repro.hdc import HDClassifier, HDClassifierConfig

        clf = HDClassifier(
            HDClassifierConfig(
                dim=128, n_channels=4, n_levels=8, ngram_size=2, seed=42
            )
        )
        window = rng.uniform(0, 21, size=(6, 4))
        np.testing.assert_array_equal(
            clf.encoder.encode(window).to_bits(),
            ref.encode_window(window),
        )


class TestSpatialRowCache:
    """The cross-call per-sample row cache (overlapping-stride dedup),
    and the row kernel it shares with the plain path on both sides of
    the duplicate-row threshold.  Every test gets a fresh encoder."""

    def _overlap_windows(self, rng, n_windows=6, w=5, stride=1):
        """Windows sliding by ``stride < w`` over one synthetic stream."""
        stream = rng.uniform(0, 21, size=(w + stride * (n_windows - 1), 4))
        return np.stack(
            [stream[i * stride : i * stride + w] for i in range(n_windows)]
        )

    @staticmethod
    def _plateau_windows(rng, above, w=5):
        """Duplicate-heavy windows (rows drawn from 6 distinct samples)
        whose row count lies above or below ``_DEDUP_MIN_ROWS``."""
        n_windows = 2 * _DEDUP_MIN_ROWS // w if above else 3
        assert (n_windows * w >= _DEDUP_MIN_ROWS) == above
        palette = rng.uniform(0, 21, size=(6, 4))
        rows = palette[rng.integers(0, len(palette), size=n_windows * w)]
        return rows.reshape(n_windows, w, 4)

    @staticmethod
    def _count_unique(monkeypatch):
        """Count the row kernel's duplicate-row scans."""
        calls = []
        unique = np.unique

        def spy(*args, **kwargs):
            calls.append(kwargs.get("axis"))
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", spy)
        return calls

    def test_cached_rows_bit_exact(self, spatial, rng):
        windows = self._overlap_windows(rng)
        flat = spatial.quantize_batch(windows)
        baseline = spatial._levels_to_words(flat)
        spatial.enable_row_cache()
        # Twice: once populating, once serving fully from the cache.
        assert np.array_equal(spatial._levels_to_words(flat), baseline)
        assert np.array_equal(spatial._levels_to_words(flat), baseline)
        assert spatial.row_cache_hits > 0

    @pytest.mark.parametrize("above", [False, True], ids=["below", "above"])
    def test_encode_batch_bit_exact_across_dedup_threshold(
        self, rng, monkeypatch, above
    ):
        """A stack on either side of the threshold encodes like each
        window alone and like the unpacked reference."""
        from repro.hdc import HDClassifier, HDClassifierConfig

        ref = reference.ReferenceHDClassifier(
            dim=128, n_channels=4, n_levels=8, ngram_size=2,
            signal_lo=0.0, signal_hi=21.0, seed=42,
        )
        clf = HDClassifier(
            HDClassifierConfig(
                dim=128, n_channels=4, n_levels=8, ngram_size=2, seed=42
            )
        )
        windows = self._plateau_windows(rng, above)
        calls = self._count_unique(monkeypatch)
        batch = clf.encoder.encode_batch(windows)
        assert calls == ([0] if above else [])
        bits = batch.to_bits()
        for i, window in enumerate(windows):
            single = clf.encoder.encode(window)
            assert np.array_equal(batch.words[i], single.words64)
            np.testing.assert_array_equal(
                bits[i], ref.encode_window(window)
            )

    @pytest.mark.parametrize("above", [False, True], ids=["below", "above"])
    def test_memo_misses_bit_exact_across_dedup_threshold(
        self, spatial, rng, monkeypatch, above
    ):
        """Every row twice: the memo hands each distinct missing row to
        the row kernel once, in a miss set above or below the
        threshold, and a first (all-miss) and a second (all-hit) pass
        both give the plain path's rows."""
        n_distinct = 2 * _DEDUP_MIN_ROWS if above else _DEDUP_MIN_ROWS // 4
        codes = rng.choice(8**4, size=n_distinct, replace=False)
        distinct = np.stack([codes // 8**c % 8 for c in range(4)], axis=1)
        levels = np.concatenate([distinct, distinct[::-1]])
        baseline = spatial._levels_to_words(levels)
        spatial.enable_row_cache()
        encode_rows = spatial._encode_rows
        miss_sets = []

        def spy(flat):
            miss_sets.append(flat.shape[0])
            return encode_rows(flat)

        monkeypatch.setattr(spatial, "_encode_rows", spy)
        assert np.array_equal(spatial._levels_to_words(levels), baseline)
        assert miss_sets == [n_distinct]
        assert spatial.row_cache_misses == len(levels)
        assert spatial.row_cache_size == n_distinct
        assert np.array_equal(spatial._levels_to_words(levels), baseline)
        assert spatial.row_cache_hits == len(levels)
        assert miss_sets == [n_distinct]

    def test_empty_stack_through_memo(self, spatial):
        """An empty stack encodes to no rows with or without the memo."""
        empty = np.empty((0, 5, 4), dtype=np.int64)
        baseline = spatial._levels_to_words(empty)
        spatial.enable_row_cache()
        assert spatial._levels_to_words(empty).shape == baseline.shape
        assert baseline.shape == (0, 5, 4)

    def test_overlapping_strides_hit_shared_rows(self, spatial, rng):
        spatial.enable_row_cache()
        windows = self._overlap_windows(rng, n_windows=4, w=5, stride=1)
        levels = spatial.quantize_batch(windows[:1])
        spatial._levels_to_words(levels)
        hits0 = spatial.row_cache_hits
        # The next window shares w - stride = 4 of its 5 rows.
        spatial._levels_to_words(spatial.quantize_batch(windows[1:2]))
        assert spatial.row_cache_hits - hits0 >= 4

    def test_eviction_is_bounded_lru(self, spatial, rng):
        spatial.enable_row_cache(limit=3)
        levels = np.tile(np.arange(5)[:, None], (1, 4))  # 5 distinct rows
        spatial._levels_to_words(levels)
        assert spatial.row_cache_size <= 3
        assert spatial.row_cache_evictions >= 2

    def test_bad_limit_rejected(self, spatial):
        with pytest.raises(ValueError):
            spatial.enable_row_cache(limit=0)
