"""Core HD computing library: the paper's algorithmic contribution.

Public surface:

* :mod:`~repro.hdc.bitpack` — packed word layouts of binary hypervectors:
  the paper's 32-components-per-word uint32 ABI plus its uint64 widening.
* :mod:`~repro.hdc.engine` — the unified batched engine:
  :class:`~repro.hdc.engine.HypervectorArray` and the packed kernels
  (bind / rotate / bit-plane majority / Hamming search) every layer runs on.
* :class:`~repro.hdc.hypervector.BinaryHypervector` — the value type
  (a one-row view of the engine representation).
* :mod:`~repro.hdc.ops` — the MAP operations (bind / bundle / permute)
  and Hamming distance.
* :class:`~repro.hdc.item_memory.ItemMemory` /
  :class:`~repro.hdc.item_memory.ContinuousItemMemory` — symbol and level
  seed memories.
* :class:`~repro.hdc.encoder.SpatialEncoder` /
  :class:`~repro.hdc.encoder.TemporalEncoder` /
  :class:`~repro.hdc.encoder.WindowEncoder` — the processing chain.
* :class:`~repro.hdc.associative_memory.AssociativeMemory` — prototype
  storage and nearest-prototype search.
* :class:`~repro.hdc.classifier.HDClassifier` — the one trainable
  frontend: fit/predict over a packed prototype matrix, served by
  :mod:`repro.stream`, persisted by :mod:`~repro.hdc.serialize` and
  loaded onto the ISS by :mod:`repro.kernels.chain`.
  ``BatchHDClassifier`` is a second name for the same class.
* :class:`~repro.hdc.online.OnlineHDClassifier` — continuous AM updates.
* :mod:`~repro.hdc.reference` — the unpacked golden model used for
  bit-exact validation (the paper's MATLAB reference).
* :mod:`~repro.hdc.serialize` — the versioned model store: bit-exact
  save/load of trained models so serving (:mod:`repro.stream`) never
  retrains.
"""

from .associative_memory import (
    AssociativeMemory,
    PrototypeAccumulator,
    bulk_distances,
)
from .classifier import HDClassifier, HDClassifierConfig
from .encoder import SpatialEncoder, TemporalEncoder, WindowEncoder
from .engine import HypervectorArray
from .hypervector import BinaryHypervector
from .item_memory import ContinuousItemMemory, ItemMemory, quantize_samples
from .online import AdaptConfig, OnlineHDClassifier, SessionDelta
from .robustness import (
    DegradationCurve,
    DegradationPoint,
    degradation_curve,
    faulty_memory,
    flip_bits,
    stuck_at,
)
from .ops import bind, bundle, bundle_counts, hamming, permute, similarity
from .serialize import (
    MODEL_MAGIC,
    MODEL_VERSION,
    CutoverError,
    ModelFormatError,
    ModelStore,
    load_model,
    load_model_mmap,
    model_info,
    save_model,
)

BatchHDClassifier = HDClassifier  # the batched classifier's former name

__all__ = [
    "AdaptConfig",
    "AssociativeMemory",
    "BatchHDClassifier",
    "BinaryHypervector",
    "ContinuousItemMemory",
    "CutoverError",
    "DegradationCurve",
    "DegradationPoint",
    "HDClassifier",
    "HDClassifierConfig",
    "HypervectorArray",
    "ItemMemory",
    "MODEL_MAGIC",
    "MODEL_VERSION",
    "ModelFormatError",
    "ModelStore",
    "OnlineHDClassifier",
    "PrototypeAccumulator",
    "SessionDelta",
    "SpatialEncoder",
    "TemporalEncoder",
    "WindowEncoder",
    "bind",
    "degradation_curve",
    "faulty_memory",
    "flip_bits",
    "bulk_distances",
    "bundle",
    "bundle_counts",
    "hamming",
    "load_model",
    "load_model_mmap",
    "model_info",
    "permute",
    "quantize_samples",
    "save_model",
    "similarity",
    "stuck_at",
]
