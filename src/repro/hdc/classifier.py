"""The end-to-end HD classifier: CIM/IM mapping → encoders → AM.

This composes the processing chain of Fig. 1 into a scikit-learn-flavoured
``fit`` / ``predict`` object operating on classification windows.  The
paper's EMG configuration is available as :meth:`HDClassifierConfig.emg`
(4 channels, 22 CIM levels, D=10,000, N=1, W=5).

One fitted :class:`HDClassifier` is the whole model: it trains, serves
(:mod:`repro.stream`), persists (:mod:`repro.hdc.serialize`) and loads
onto the ISS (:meth:`repro.kernels.chain.HDChainSimulator.from_classifier`).
Every intermediate — spatial vectors, N-grams, queries, class
prototypes — stays in packed uint64 words, and every vote routes through
the engine's tiebreak authority, so the bits match the unpacked oracle
(:class:`~repro.hdc.reference.ReferenceHDClassifier`) by construction:

* IM/CIM construction draws from one seeded generator sequence
  (:func:`seeded_encoder`);
* channel-majority tiebreak = XOR of the first two bound vectors;
* window-majority tiebreak = XOR of the first two N-grams;
* class-prototype tiebreak = XOR of the first two encoded queries of the
  class (in insertion order);
* AM ties resolve to the earliest-stored class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Sequence

import numpy as np

from . import bitpack, engine
from .associative_memory import AssociativeMemory
from .encoder import SpatialEncoder, TemporalEncoder, WindowEncoder
from .hypervector import BinaryHypervector
from .item_memory import ContinuousItemMemory, ItemMemory


@dataclass(frozen=True)
class HDClassifierConfig:
    """Hyper-parameters of the HD classifier.

    The model size is fully determined by these values — the paper contrasts
    this with the SVM, whose support-vector count "is not determined a
    priori" (section 4.1).
    """

    dim: int = 10_000
    n_channels: int = 4
    n_levels: int = 22
    ngram_size: int = 1
    signal_lo: float = 0.0
    signal_hi: float = 21.0
    seed: int = 0x5EED

    def __post_init__(self) -> None:
        if self.dim <= 0:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if self.n_channels <= 0:
            raise ValueError(
                f"n_channels must be positive, got {self.n_channels}"
            )
        if self.n_levels < 2:
            raise ValueError(f"n_levels must be >= 2, got {self.n_levels}")
        if self.ngram_size < 1:
            raise ValueError(
                f"ngram_size must be >= 1, got {self.ngram_size}"
            )
        if self.signal_hi <= self.signal_lo:
            raise ValueError(
                f"invalid signal range [{self.signal_lo}, {self.signal_hi}]"
            )

    @classmethod
    def emg(cls, dim: int = 10_000, ngram_size: int = 1) -> "HDClassifierConfig":
        """The paper's EMG hand-gesture configuration.

        Four forearm channels, 22 linear CIM levels over the 0–21 mV
        amplitude range, N-gram size 1.
        """
        return cls(dim=dim, n_channels=4, n_levels=22, ngram_size=ngram_size)


def _encoder_over(
    config: HDClassifierConfig,
    item_memory: ItemMemory,
    continuous_memory: ContinuousItemMemory,
) -> WindowEncoder:
    return WindowEncoder(
        SpatialEncoder(
            item_memory, continuous_memory, config.signal_lo, config.signal_hi
        ),
        TemporalEncoder(config.ngram_size),
    )


def seeded_encoder(config: HDClassifierConfig) -> WindowEncoder:
    """The window encoder of a fresh classifier, drawn from its seed.

    One generator seeded with ``config.seed`` draws the IM rows first,
    then the CIM (low endpoint, high endpoint, flip permutation).  Every
    library frontend builds its encoder here, so the draw order is
    written down once.
    """
    rng = np.random.default_rng(config.seed)
    im = ItemMemory.for_channels(config.n_channels, config.dim, rng)
    cim = ContinuousItemMemory(config.n_levels, config.dim, rng)
    return _encoder_over(config, im, cim)


def try_stack_windows(windows) -> np.ndarray | None:
    """Stack a window sequence into one (n, T, channels) float array.

    Returns ``None`` when the windows are ragged or not arrayable (e.g. a
    generator), in which case callers fall back to per-window encoding —
    the batched and scalar paths run the same kernels, so the choice is
    invisible in the bits.
    """
    try:
        stacked = np.asarray(windows, dtype=np.float64)
    except (ValueError, TypeError):
        return None
    return stacked if stacked.ndim == 3 else None


class HDClassifier:
    """HD computing classifier over multi-channel signal windows.

    The classifier is constructed with fixed seeds (IM, CIM) and trained by
    majority-bundling window queries per class into AM prototypes.  Windows
    are (timestamps, channels) arrays of preprocessed signal envelopes,
    passed either as one stacked ``(n, T, channels)`` array or as any
    sequence of windows; ragged or generator input is encoded one window
    at a time, through the same kernels and therefore to the same bits.

    The trained model is the label tuple plus one packed uint64
    prototype row per class (:attr:`prototype_words`).
    """

    def __init__(self, config: HDClassifierConfig):
        self._config = config
        self._encoder = seeded_encoder(config)
        self._labels: List[Hashable] = []
        self._proto_words: np.ndarray | None = None
        self._am: AssociativeMemory | None = None

    @classmethod
    def from_state(
        cls,
        config: HDClassifierConfig,
        item_memory: ItemMemory,
        continuous_memory: ContinuousItemMemory,
        labels: Sequence[Hashable],
        prototype_words: np.ndarray,
    ) -> "HDClassifier":
        """Rebuild a fitted classifier from stored model state.

        The model-store load path (:mod:`repro.hdc.serialize`): the seed
        memories and AM prototypes are adopted bit-for-bit — no RNG draw,
        no retraining, and no copy of an already-uint64 prototype matrix
        (a memory-mapped store stays mapped) — so a served model predicts
        exactly like the instance that was saved.
        """
        labels = list(labels)
        protos = np.ascontiguousarray(prototype_words, dtype=np.uint64)
        if protos.ndim != 2 or protos.shape != (
            len(labels),
            engine.words_for_dim(config.dim),
        ):
            raise ValueError(
                f"prototype matrix {protos.shape} does not match "
                f"{len(labels)} classes at dimension {config.dim}"
            )
        if not bitpack.pad_bits_are_zero(
            protos, config.dim, bitpack.WORD_BITS64
        ):
            # Dirty pads would silently inflate every packed Hamming
            # distance in AM search; reject like from_words64 does.
            raise ValueError(
                "prototype pad bits above the dimension must be zero"
            )
        self = cls.__new__(cls)
        self._config = config
        self._encoder = _encoder_over(config, item_memory, continuous_memory)
        self._labels = labels
        self._proto_words = protos
        self._am = None
        return self

    @property
    def config(self) -> HDClassifierConfig:
        """The classifier's hyper-parameters."""
        return self._config

    @property
    def encoder(self) -> WindowEncoder:
        """The window encoder (exposed for ISS cross-validation)."""
        return self._encoder

    @property
    def is_fitted(self) -> bool:
        """Whether the classifier holds trained prototypes."""
        return self._proto_words is not None

    @property
    def labels(self) -> tuple:
        """Class labels in first-seen training order (the AM row order)."""
        return tuple(self._labels)

    @property
    def prototype_words(self) -> np.ndarray:
        """The packed (n_classes, n_words) uint64 prototype matrix."""
        if self._proto_words is None:
            raise RuntimeError("classifier has not been fitted")
        return self._proto_words

    @property
    def associative_memory(self) -> AssociativeMemory:
        """The trained AM as prototype objects over :attr:`prototype_words`.

        For per-label access and fault injection; built on first use and
        reset by :meth:`fit`.  Raises if the classifier is not fitted.
        """
        if self._am is None:
            dim = self._config.dim
            self._am = AssociativeMemory.from_prototypes(
                {
                    label: BinaryHypervector.from_words64(row, dim)
                    for label, row in zip(self._labels, self.prototype_words)
                }
            )
        return self._am

    def am_matrix(self) -> np.ndarray:
        """The AM in the paper's (n_classes, n_words) uint32 layout.

        Row order matches :attr:`labels`; this is the matrix the ISS
        kernels stream from simulated L2 memory.
        """
        return bitpack.u64_to_u32(self.prototype_words, self._config.dim)

    # -- encoding ---------------------------------------------------------

    def _queries(self, windows: Sequence[np.ndarray]) -> np.ndarray:
        """Packed (n, n_words) queries, batched when the windows stack."""
        stacked = try_stack_windows(windows)
        if stacked is not None:
            return self._encoder.encode_batch(stacked).words
        rows = [self._encoder.encode(w).words64 for w in windows]
        return np.array(rows, dtype=np.uint64).reshape(
            len(rows), engine.words_for_dim(self._config.dim)
        )

    def encode_windows_packed(
        self, windows: np.ndarray
    ) -> engine.HypervectorArray:
        """Encode (n_windows, T, n_channels) windows into packed queries."""
        return self._encoder.encode_batch(windows)

    # -- train / predict ----------------------------------------------------

    def fit(
        self,
        windows: Sequence[np.ndarray],
        labels: Sequence[Hashable],
    ) -> "HDClassifier":
        """Learn one prototype per class from training windows.

        Every window is encoded into a packed query; per class, the
        queries are majority-bundled into the prototype with the paper's
        XOR-of-the-first-two tiebreaker.  Classes keep first-seen order.
        """
        labels = list(labels)
        if len(windows) != len(labels):
            raise ValueError(
                f"got {len(windows)} windows but {len(labels)} labels"
            )
        if not labels:
            raise ValueError("cannot fit on an empty training set")
        queries = self._queries(windows)
        order = list(dict.fromkeys(labels))
        index = {label: i for i, label in enumerate(order)}
        rows = np.array([index[label] for label in labels])
        self._proto_words = np.stack(
            [
                engine.majority_default_tie(
                    queries[rows == i], self._config.dim
                )
                for i in range(len(order))
            ]
        )
        self._labels = order
        self._am = None
        return self

    def distances(self, windows: Sequence[np.ndarray]) -> np.ndarray:
        """Hamming distances (n_windows, n_classes) of window queries.

        Packed AM search: XOR + popcount over uint64 words — no dense
        component-matrix matmul is ever materialized.
        """
        protos = self.prototype_words
        return engine.hamming_matrix(self._queries(windows), protos)

    def predict(self, windows: Sequence[np.ndarray]) -> list:
        """Labels of the minimum-distance prototypes (first wins ties)."""
        protos = self.prototype_words
        indices, _ = engine.am_search(self._queries(windows), protos)
        return [self._labels[i] for i in indices]

    def predict_window(self, window: np.ndarray) -> Hashable:
        """Classify a single (timestamps, channels) window."""
        return self.predict([window])[0]

    def score(
        self,
        windows: Sequence[np.ndarray],
        labels: Sequence[Hashable],
    ) -> float:
        """Mean accuracy over a labelled window set."""
        labels = list(labels)
        if len(windows) != len(labels):
            raise ValueError(
                f"got {len(windows)} windows but {len(labels)} labels"
            )
        if not labels:
            raise ValueError("cannot score an empty set")
        predictions = self.predict(windows)
        hits = sum(p == t for p, t in zip(predictions, labels))
        return hits / len(labels)

    def model_memory_bytes(self) -> int:
        """Total packed model footprint: CIM + IM + AM matrices.

        Matches the paper's ~50 kB estimate for the EMG task at 10,000-D
        (CIM 22×313, IM 4×313, AM 5×313 words of 4 bytes, plus buffers
        accounted separately in :mod:`repro.kernels.layout`).
        """
        cfg = self._config
        rows = cfg.n_levels + cfg.n_channels + len(self._labels)
        return rows * bitpack.words_for_dim(cfg.dim) * 4
