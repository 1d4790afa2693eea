"""Batched input on the one HD classifier.

:class:`HDClassifier` takes windows either as one stacked
``(n, T, channels)`` array (encoded in one engine pass) or as a sequence
of windows (ragged or generator input falls back to per-window
encoding).  Both paths must give the same bits.
"""

import numpy as np
import pytest

from repro.hdc import (
    BatchHDClassifier,
    HDClassifier,
    HDClassifierConfig,
    OnlineHDClassifier,
    engine,
)
from repro.hdc.reference import ReferenceHDClassifier


def windows_and_labels(rng, n, timestamps, channels, n_classes=4):
    windows = rng.uniform(0, 21, size=(n, timestamps, channels))
    labels = [i % n_classes for i in range(n)]
    return windows, labels


def test_batch_name_is_the_one_classifier():
    assert BatchHDClassifier is HDClassifier


class TestEquivalence:
    @pytest.mark.parametrize(
        "ngram,channels",
        [(1, 4), (1, 3), (2, 4), (3, 5), (4, 2)],
    )
    def test_predictions_bit_exact(self, rng, ngram, channels):
        """List input == stacked-array input == per-window generator
        input, in fit and in predict."""
        cfg = HDClassifierConfig(
            dim=320, n_channels=channels, n_levels=7,
            ngram_size=ngram, seed=17,
        )
        t = 5 + ngram - 1
        train_w, train_l = windows_and_labels(rng, 20, t, channels)
        test_w, _ = windows_and_labels(rng, 15, t, channels)
        listed = HDClassifier(cfg).fit(list(train_w), train_l)
        stacked = HDClassifier(cfg).fit(train_w, train_l)
        expected = listed.predict(list(test_w))
        assert stacked.predict(test_w) == expected
        assert stacked.predict(w for w in test_w) == expected
        assert [listed.predict_window(w) for w in test_w] == expected

    def test_prototypes_bit_exact(self, rng):
        """Prototypes from list, stacked and ragged-fallback input agree,
        and the AM object view carries the same rows."""
        cfg = HDClassifierConfig(dim=256, n_levels=9, seed=3)
        train_w, train_l = windows_and_labels(rng, 18, 5, 4)
        listed = HDClassifier(cfg).fit(list(train_w), train_l)
        stacked = HDClassifier(cfg).fit(train_w, train_l)
        ragged = HDClassifier(cfg).fit(
            [w for w in train_w[:-1]] + [np.vstack([train_w[-1]] * 2)],
            train_l,
        )
        assert listed.labels == stacked.labels == (0, 1, 2, 3)
        np.testing.assert_array_equal(
            listed.prototype_words, stacked.prototype_words
        )
        # The doubled last window only moves its own class's prototype.
        np.testing.assert_array_equal(
            ragged.prototype_words[:-1], stacked.prototype_words[:-1]
        )
        am = stacked.associative_memory
        assert am.labels == stacked.labels
        for i, label in enumerate(stacked.labels):
            np.testing.assert_array_equal(
                engine.unpack_bits(stacked.prototype_words[i], cfg.dim),
                am[label].to_bits(),
            )

    def test_im_cim_bit_exact(self):
        """Both library frontends draw the oracle's IM/CIM."""
        cfg = HDClassifierConfig(dim=192, n_levels=6, seed=55)
        ref = ReferenceHDClassifier(
            dim=192, n_channels=4, n_levels=6, ngram_size=1,
            signal_lo=0.0, signal_hi=21.0, seed=55,
        )
        for spatial in (
            HDClassifier(cfg).encoder.spatial,
            OnlineHDClassifier(cfg).encoder.spatial,
        ):
            np.testing.assert_array_equal(
                engine.unpack_bits(spatial.item_memory.as_matrix64(), 192),
                np.stack(ref.item_memory),
            )
            np.testing.assert_array_equal(
                engine.unpack_bits(
                    spatial.continuous_memory.as_matrix64(), 192
                ),
                np.stack(ref.cim),
            )

    def test_distances_match_hamming(self, rng):
        cfg = HDClassifierConfig(dim=256, seed=21)
        clf = HDClassifier(cfg)
        train_w, train_l = windows_and_labels(rng, 12, 5, 4)
        clf.fit(train_w, train_l)
        test_w = train_w[:3]
        dists = clf.distances(test_w)
        np.testing.assert_array_equal(dists, clf.distances(list(test_w)))
        queries = clf.encoder.encode_batch(test_w).to_bits()
        protos = engine.unpack_bits(clf.prototype_words, cfg.dim)
        for i in range(3):
            for j in range(len(clf.labels)):
                expected = int(np.count_nonzero(queries[i] != protos[j]))
                assert dists[i, j] == expected


class TestValidation:
    def test_fit_mismatched(self, rng):
        clf = HDClassifier(HDClassifierConfig(dim=64))
        with pytest.raises(ValueError):
            clf.fit(np.zeros((2, 5, 4)), [0])
        with pytest.raises(ValueError):
            clf.fit(np.zeros((0, 5, 4)), [])

    def test_window_too_short_for_ngram(self, rng):
        clf = HDClassifier(HDClassifierConfig(dim=64, ngram_size=5))
        with pytest.raises(ValueError):
            clf.encoder.encode_batch(np.zeros((1, 3, 4)))
        with pytest.raises(ValueError):
            clf.fit(np.zeros((1, 3, 4)), [0])

    def test_bad_shapes(self):
        clf = HDClassifier(HDClassifierConfig(dim=64))
        with pytest.raises(ValueError):
            clf.encoder.spatial.encode_batch(np.zeros((5, 3)))  # channels
        with pytest.raises(ValueError):
            clf.encoder.encode_batch(np.zeros((5, 4)))  # missing axis
        clf.fit(np.zeros((2, 5, 4)), [0, 1])
        with pytest.raises(ValueError):
            clf.predict(np.zeros((1, 5, 3)))  # wrong channel count
        with pytest.raises(ValueError):
            clf.predict(np.zeros((5, 4)))  # missing axis

    def test_unfitted(self):
        clf = HDClassifier(HDClassifierConfig(dim=64))
        with pytest.raises(RuntimeError):
            clf.predict(np.zeros((1, 5, 4)))
        with pytest.raises(RuntimeError):
            clf.prototype_words
        with pytest.raises(RuntimeError):
            clf.associative_memory
        with pytest.raises(RuntimeError):
            clf.am_matrix()

    def test_score_mismatch(self, rng):
        clf = HDClassifier(HDClassifierConfig(dim=64))
        train_w, train_l = windows_and_labels(rng, 8, 5, 4)
        clf.fit(train_w, train_l)
        with pytest.raises(ValueError):
            clf.score(train_w, train_l[:-1])
