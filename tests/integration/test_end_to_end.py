"""Full-pipeline integration tests: synthetic EMG → trained classifier →
simulated accelerator → prediction, across the whole stack."""

import numpy as np
import pytest

from repro.emg import WindowConfig, subject_windows
from repro.hdc import (
    BatchHDClassifier,
    HDClassifier,
    HDClassifierConfig,
)
from repro.kernels import ChainConfig, ChainDims, HDChainSimulator
from repro.pulp import PULPV3_SOC, WOLF_SOC


@pytest.fixture(scope="module")
def trained_setup(tiny_emg_dataset):
    """A classifier trained on real (synthetic) EMG windows."""
    _, dataset = tiny_emg_dataset
    wc = WindowConfig(window_samples=5, stride_samples=50)
    (train_w, train_l), (test_w, test_l) = subject_windows(dataset[0], wc)
    cfg = HDClassifierConfig(dim=1024)
    clf = HDClassifier(cfg)
    clf.fit(train_w, train_l)
    return clf, test_w, test_l


class TestLibraryOnEMG:
    def test_learns_gestures(self, trained_setup):
        clf, test_w, test_l = trained_setup
        assert clf.score(test_w[:200], test_l[:200]) > 0.6

    def test_batch_matches_object_on_emg(self, trained_setup, tiny_emg_dataset):
        _, dataset = tiny_emg_dataset
        clf, test_w, test_l = trained_setup
        wc = WindowConfig(window_samples=5, stride_samples=50)
        (train_w, train_l), _ = subject_windows(dataset[0], wc)
        batch = BatchHDClassifier(clf.config)
        batch.fit(np.asarray(train_w), train_l)
        subset = np.asarray(test_w[:40])
        assert batch.predict(subset) == clf.predict(list(subset))


class TestAcceleratorOnEMG:
    @pytest.mark.parametrize(
        "soc,cores,builtins",
        [(PULPV3_SOC, 4, False), (WOLF_SOC, 8, True)],
        ids=["pulpv3-4c", "wolf-8c-bi"],
    )
    def test_chain_matches_library_predictions(
        self, trained_setup, soc, cores, builtins
    ):
        clf, test_w, _ = trained_setup
        sim = HDChainSimulator.from_classifier(
            clf, soc, n_cores=cores, use_builtins=builtins, window=5
        )
        am_labels = list(clf.associative_memory.labels)
        for window in test_w[:10]:
            result = sim.run_window(np.asarray(window))
            assert (
                am_labels[result.label_index]
                == clf.predict_window(window)
            )

    def test_batch_prototypes_round_trip_through_chain(
        self, trained_setup, tiny_emg_dataset
    ):
        """Train with the batch classifier, pack its prototypes, run
        the ISS chain — the whole deployment flow of the paper."""
        _, dataset = tiny_emg_dataset
        clf, test_w, _ = trained_setup
        wc = WindowConfig(window_samples=5, stride_samples=50)
        (train_w, train_l), _ = subject_windows(dataset[0], wc)
        batch = BatchHDClassifier(clf.config)
        batch.fit(np.asarray(train_w), train_l)
        am = batch.am_matrix()
        dims = ChainDims(
            dim=clf.config.dim,
            n_channels=4,
            n_levels=clf.config.n_levels,
            n_classes=am.shape[0],
            ngram=1,
            window=5,
        )
        sim = HDChainSimulator(
            ChainConfig(soc=WOLF_SOC, n_cores=8, dims=dims)
        )
        spatial = clf.encoder.spatial
        sim.load_model(
            spatial.item_memory.as_matrix(),
            spatial.continuous_memory.as_matrix(),
            am,
        )
        for window in test_w[:8]:
            result = sim.run_window(np.asarray(window))
            assert (
                batch.labels[result.label_index]
                == batch.predict(np.asarray(window)[None])[0]
            )

    def test_parallel_faster_same_answer(self, trained_setup):
        clf, test_w, _ = trained_setup
        window = np.asarray(test_w[0])
        single = HDChainSimulator.from_classifier(
            clf, PULPV3_SOC, n_cores=1, window=5
        ).run_window(window)
        quad = HDChainSimulator.from_classifier(
            clf, PULPV3_SOC, n_cores=4, window=5
        ).run_window(window)
        assert single.label_index == quad.label_index
        assert single.total_cycles > 3 * quad.total_cycles


class TestOneModel:
    def test_loaded_model_serves_and_runs_on_the_iss(self, tmp_path):
        """One fitted classifier, saved and mmapped back, is the model
        the streaming service serves and the ISS chain runs."""
        from repro.emg.dataset import Trial
        from repro.emg.windows import windows_from_trial
        from repro.hdc import load_model_mmap, save_model
        from repro.stream import StreamConfig, StreamingService

        rng = np.random.default_rng(11)
        cfg = HDClassifierConfig(dim=256, n_levels=8, signal_hi=1.0)
        clf = HDClassifier(cfg).fit(
            list(rng.random((40, 5, 4))), [i % 4 for i in range(40)]
        )
        loaded = load_model_mmap(save_model(tmp_path / "model", clf))

        stream = rng.random((300, 4))
        config = StreamConfig(
            window=WindowConfig(window_samples=5, skip_onset_s=0.0),
            max_batch=16,
            max_wait=2,
        )
        service = StreamingService(loaded, config)
        service.open_session("s")
        service.ingest("s", stream)
        service.drain()
        windows = np.asarray(
            windows_from_trial(
                Trial(subject_id=0, gesture=0, repetition=0, envelope=stream),
                config.window,
            )
        )
        expected = clf.predict(windows)
        assert loaded.predict(windows) == expected
        assert [d.raw_label for d in service.sessions[0].decisions] == (
            expected
        )

        sim = HDChainSimulator.from_classifier(
            loaded, PULPV3_SOC, n_cores=4, window=5
        )
        for window, label in zip(windows[:4], expected):
            result = sim.run_window(window, signal_hi=cfg.signal_hi)
            assert loaded.labels[result.label_index] == label
