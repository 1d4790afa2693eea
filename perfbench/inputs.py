"""Inputs generated from the benchmark seed, and the models fitted on them.

The EMG recordings are the repository's synthetic dataset under the
paper protocol (its fixed dataset seed), so every benchmark seed serves
the same subjects: throughput on unseen EMG depends strongly on the
subject (how often window patterns repeat), and a per-seed dataset
would make run-to-run spread a property of the draw, not of the
program.  ``--seed`` picks everything else: which session replays
which trial and in what order, the order windows are visited, the
plateau signal streams and the ISS model matrices.  Call
:func:`harness.use_repo_sources` before importing this module.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.emg import EMGDatasetConfig, WindowConfig, generate_subject, subject_windows
from repro.emg.windows import windows_from_trial
from repro.hdc import BatchHDClassifier, HDClassifier, HDClassifierConfig
from repro.stream import StreamConfig

DIM = 10_000
#: Training windows: the paper protocol (W=5, stride 25, 25 % split).
TRAIN_WINDOW = WindowConfig(window_samples=5, stride_samples=25)
#: Serving geometry of the paper: W=5 (10 ms at 500 Hz), stride 5,
#: every sample windowed (no onset skip) so a stream's window count
#: depends only on its length.
PAPER_WINDOW = WindowConfig(window_samples=5, stride_samples=5, skip_onset_s=0.0)
#: Overlapping geometry of the paced network workload: a decision per
#: sample, so windows share four of five rows.
STRIDE1_WINDOW = WindowConfig(window_samples=5, stride_samples=1, skip_onset_s=0.0)


#: Subject 0 trains the model; subject 1 is the unseen serving input.
DATASET = EMGDatasetConfig(n_subjects=2)


@dataclass
class Subjects:
    """Subject 0 (training) and subject 1 (unseen serving input)."""

    train: object
    unseen: object
    generate_s: float


def generate_subjects() -> Subjects:
    start = time.perf_counter()
    train = generate_subject(DATASET, 0)
    unseen = generate_subject(DATASET, 1)
    return Subjects(train, unseen, time.perf_counter() - start)


def fit_batch(subject) -> BatchHDClassifier:
    """The library's batched classifier, fit on one subject."""
    (windows, labels), _ = subject_windows(subject, TRAIN_WINDOW)
    model = BatchHDClassifier(HDClassifierConfig(dim=DIM))
    model.fit(np.asarray(windows), labels)
    return model


def fit_reference(subject) -> HDClassifier:
    """The per-window classifier the ISS chain is built from."""
    (windows, labels), _ = subject_windows(subject, TRAIN_WINDOW)
    model = HDClassifier(HDClassifierConfig(dim=DIM))
    model.fit(list(windows), labels)
    return model


def trial_windows(trial) -> np.ndarray:
    """One trial's windows at the paper geometry, in stream order."""
    return np.asarray(windows_from_trial(trial, PAPER_WINDOW))


def paper_windows(subject) -> np.ndarray:
    """All of a subject's windows at the paper geometry, trial order."""
    return np.concatenate([trial_windows(t) for t in subject.trials])


def unseen_stream_config() -> StreamConfig:
    """Library defaults (caches on, max_wait 0) at the paper geometry."""
    return StreamConfig(window=PAPER_WINDOW)


def paced_stream_config() -> StreamConfig:
    return StreamConfig(window=STRIDE1_WINDOW)
