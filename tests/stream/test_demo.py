"""The ``python -m repro.stream`` demo workload on synthetic EMG.

The demo's trainer, workload generator and accuracy scorer drive a real
streaming service: four interleaved sessions replaying one subject's
trials are batched together and decided well above chance.
"""

from repro.emg import EMGDatasetConfig, WindowConfig, generate_subject
from repro.stream import StreamConfig, StreamingService, replay
from repro.stream.__main__ import _accuracy, _build_workload, _train_model


def test_demo_workload_multiplexes_with_sane_accuracy():
    model = _train_model(dim=2048, subject_id=0, repetitions=2)
    trials = generate_subject(
        EMGDatasetConfig(n_subjects=1, n_repetitions=2), 0
    ).trials
    window = WindowConfig()
    config = StreamConfig(window=window, max_batch=64, max_wait=3)
    trace, truths = _build_workload(
        trials, 4, window, config.sample_rate_hz, chunk=37
    )
    service = StreamingService(model, config)
    raw_accuracy, _ = _accuracy(replay(service, trace), truths)
    assert any(report.n_sessions > 1 for report in service.reports)
    assert raw_accuracy > 0.5
