"""The ISS runtime both fast engines share: one dispatch loop, one vectorizer.

Two engines execute block-compiled programs:
:class:`repro.pulp.fastpath.FastCore` runs one core over the cluster's
memory, and the window-laned lockstep engine
(:class:`repro.pulp.lockstep._LaneCore`) runs one instruction trace
over N per-window memory images.  They differ only in how many lanes of
data they carry, so everything they execute lives here, once:

* :class:`DispatchCore` — the block-dispatch loop: branch-plan gating
  and trip solving for vectorizable backward loops, block sequencing
  and the instruction-cap guard, the terminator dispatch table
  (branches, ``j``/``jal``/``jr``, ``lp.setup`` + hardware-loop stack,
  ``barrier``, ``halt``, the DMA pair) with its cycle charges, and the
  hardware-loop back-edge epilogue;
* :class:`_VectorRun` — the run-time half of the loop vectorizer: one
  batched NumPy pass over a loop plan's trips × lanes, with deferred
  stores, closed-form reductions, and closed-form stall totals;
* :class:`LanedMemory` — the ``(lanes, bytes)`` memory that pass runs
  over.  The lockstep engine stages N private copies of the cluster
  image; ``FastCore`` wraps the cluster's own
  :class:`~repro.pulp.memory.MemorySystem` as a zero-copy one-lane view,
  so its vector passes write the cluster's bytes directly and advance
  the cluster's own stall accumulator.

The scalar engine is therefore the one-lane case of the laned one.  What
stays per engine is a small set of hooks:

* ``_uniform_reg`` — a register as a trip-solver operand (the laned
  engine must prove lane uniformity);
* ``_fetch_block`` / ``_exec_straight`` — straight-line blocks (closures
  over int registers vs segment closures over lane values);
* ``_branch_next`` — branch resolution (the laned engine predicates
  short divergent forward branches);
* ``_fault_*`` / ``_cap_handoff`` — the scalar engine raises
  :class:`~repro.pulp.core.ExecutionError` exactly like the oracle (and
  hands off to the interpreter at the instruction cap), the laned
  engine raises :class:`LockstepBail` so the caller falls back to
  per-window scalar runs.

One difference is data, not code: a memory refusal inside a vector pass
is tagged with the scalar engine's :data:`RUNTIME_BAIL_REASONS` (which
the static certifier predicts reason for reason) on the one-lane view,
and ``laned-<reason>`` otherwise — one mapping,
:data:`_SCALAR_MEMORY_BAILS`.

The opcode tables, reason vocabularies, telemetry counters, and the
affine trip solver live here too, so the engines and the compile-time
loop-plan analysis in :mod:`repro.pulp.fastpath` share one definition.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..hdc.bitpack import _popcount_array
from .core import _OPCODE_BY_NAME, STOP_BARRIER, STOP_HALT, _signed
from .isa import ArchProfile
from .memory import L1_BASE, L2_BASE, MemorySystem


_MASK32 = 0xFFFFFFFF

#: Vectorized loops longer than this fall back to the block path; far
#: above any kernel trip count, it bounds lane-array allocations.
MAX_VECTOR_TRIPS = 1 << 20

# Opcode integers, resolved once from the oracle's name table so the
# engines can never disagree about numbering.
_OP = dict(_OPCODE_BY_NAME)

_OP_ADD = _OP["add"]; _OP_SUB = _OP["sub"]; _OP_AND = _OP["and"]
_OP_OR = _OP["or"]; _OP_XOR = _OP["xor"]; _OP_SLL = _OP["sll"]
_OP_SRL = _OP["srl"]; _OP_SRA = _OP["sra"]; _OP_SLT = _OP["slt"]
_OP_SLTU = _OP["sltu"]; _OP_ADDI = _OP["addi"]; _OP_ANDI = _OP["andi"]
_OP_ORI = _OP["ori"]; _OP_XORI = _OP["xori"]; _OP_SLLI = _OP["slli"]
_OP_SRLI = _OP["srli"]; _OP_SRAI = _OP["srai"]; _OP_SLTI = _OP["slti"]
_OP_SLTIU = _OP["sltiu"]; _OP_LI = _OP["li"]; _OP_MV = _OP["mv"]
_OP_NOP = _OP["nop"]; _OP_MUL = _OP["mul"]; _OP_MULH = _OP["mulh"]
_OP_LW = _OP["lw"]; _OP_LBU = _OP["lbu"]; _OP_LHU = _OP["lhu"]
_OP_SW = _OP["sw"]; _OP_SB = _OP["sb"]; _OP_SH = _OP["sh"]
_OP_BEQ = _OP["beq"]; _OP_BNE = _OP["bne"]; _OP_BLT = _OP["blt"]
_OP_BGE = _OP["bge"]; _OP_BLTU = _OP["bltu"]; _OP_BGEU = _OP["bgeu"]
_OP_J = _OP["j"]; _OP_JAL = _OP["jal"]; _OP_JR = _OP["jr"]
_OP_EXTRACTU = _OP["p.extractu"]; _OP_INSERT = _OP["p.insert"]
_OP_CNT = _OP["p.cnt"]; _OP_UBFX = _OP["ubfx"]; _OP_BFI = _OP["bfi"]
_OP_LW_POST = _OP["p.lw!"]; _OP_SW_POST = _OP["p.sw!"]
_OP_LPSETUP = _OP["lp.setup"]; _OP_BARRIER = _OP["barrier"]
_OP_HALT = _OP["halt"]; _OP_DMA_COPY = _OP["dma.copy"]
_OP_DMA_WAIT = _OP["dma.wait"]

_BRANCH_OPS = frozenset(
    (_OP_BEQ, _OP_BNE, _OP_BLT, _OP_BGE, _OP_BLTU, _OP_BGEU)
)
_ALU3_OPS = frozenset(
    (_OP_ADD, _OP_SUB, _OP_AND, _OP_OR, _OP_XOR, _OP_SLL, _OP_SRL,
     _OP_SRA, _OP_SLT, _OP_SLTU, _OP_MUL, _OP_MULH)
)
_ALUI_OPS = frozenset(
    (_OP_ADDI, _OP_ANDI, _OP_ORI, _OP_XORI, _OP_SLLI, _OP_SRLI,
     _OP_SRAI, _OP_SLTI, _OP_SLTIU)
)
_LOAD_OPS = frozenset((_OP_LW, _OP_LBU, _OP_LHU, _OP_LW_POST))
_STORE_OPS = frozenset((_OP_SW, _OP_SB, _OP_SH, _OP_SW_POST))
_MEM_WIDTH = {
    _OP_LW: 4, _OP_SW: 4, _OP_LW_POST: 4, _OP_SW_POST: 4,
    _OP_LHU: 2, _OP_SH: 2, _OP_LBU: 1, _OP_SB: 1,
}
_REDUCIBLE_OPS = frozenset((_OP_ADD, _OP_OR, _OP_XOR, _OP_AND))


def _reads_writes(ins) -> Tuple[tuple, tuple]:
    """(read regs, written regs) of one decoded instruction tuple."""
    op, rd, ra, rb = ins[0], ins[1], ins[2], ins[3]
    if op in _ALU3_OPS:
        return (ra, rb), (rd,)
    if op in _ALUI_OPS or op in (_OP_MV, _OP_CNT, _OP_EXTRACTU, _OP_UBFX):
        return (ra,), (rd,)
    if op == _OP_LI:
        return (), (rd,)
    if op == _OP_NOP:
        return (), ()
    if op in (_OP_LW, _OP_LBU, _OP_LHU):
        return (ra,), (rd,)
    if op == _OP_LW_POST:
        return (ra,), (rd, ra)
    if op in (_OP_SW, _OP_SB, _OP_SH):
        return (ra, rd), ()
    if op == _OP_SW_POST:
        return (ra, rd), (ra,)
    if op in (_OP_INSERT, _OP_BFI):
        return (ra, rd), (rd,)
    if op in _BRANCH_OPS:
        return (ra, rb), ()
    if op == _OP_J:
        return (), ()
    if op == _OP_JAL:
        return (), (rd if rd else 1,)
    if op == _OP_JR:
        return (ra,), ()
    if op == _OP_LPSETUP:
        return (ra,), ()
    if op == _OP_DMA_COPY:
        return (ra, rb, rd), ()
    return (), ()  # barrier, halt, dma.wait


def _base_cost(op: int, profile: ArchProfile) -> int:
    """Constant cycle cost of a non-control instruction."""
    if op in _LOAD_OPS:
        return profile.load_cycles
    if op in _STORE_OPS:
        return profile.store_cycles
    if op in (_OP_MUL, _OP_MULH):
        return profile.mul_cycles
    return 1


# ---------------------------------------------------------------------------
# Reject/bail reason vocabulary.
#
# Every reason string the engines can emit lives here as a named
# constant, grouped into the frozen tables below.  The static
# analyzer (:mod:`repro.pulp.analyze`) consumes these tables to predict
# which reasons a program can trigger; keeping them as data (rather
# than inline literals scattered through the bail sites) is what makes
# that prediction checkable — a renamed or newly added reason that the
# analyzer does not know about fails the differential harness instead
# of silently drifting.
# ---------------------------------------------------------------------------

#: Compile-time rejects (no plan is built; counted in
#: ``compile_rejects`` telemetry).
REASON_IRREGULAR_STRUCTURE = "irregular-structure"
REASON_CARRIED_REGISTER = "carried-register"
REASON_REDUCTION_IN_CONDITION = "reduction-in-condition"
REASON_LOOP_DEPTH = "loop-depth"

#: Runtime bails (a built plan declines one engagement; counted in
#: ``bails`` / ``plan_bails`` telemetry).
REASON_TRIP_COUNT_RANGE = "trip-count-range"
REASON_TRIP_UNSOLVABLE = "trip-unsolvable"
REASON_INSTRUCTION_CAP = "instruction-cap"
REASON_RUNAWAY_INNER_LOOP = "runaway-inner-loop"
REASON_DIVERGENT_BRANCH = "divergent-branch"
REASON_DIVERGENT_TRIP_COUNT = "divergent-trip-count"
REASON_STORE_OVERLAP = "store-overlap"
REASON_LOAD_STORE_OVERLAP = "load-store-overlap"
REASON_GATHER_SPAN = "gather-span"
REASON_REGION_SPAN = "region-span"
REASON_UNALIGNED_ACCESS = "unaligned-access"
REASON_DUPLICATE_STORE_LANES = "duplicate-store-lanes"

#: Reasons a loop can be rejected when its plan is built (the
#: ``compile_rejects`` telemetry key space).
COMPILE_REJECT_REASONS = frozenset({
    REASON_IRREGULAR_STRUCTURE,
    REASON_CARRIED_REGISTER,
    REASON_REDUCTION_IN_CONDITION,
    REASON_LOOP_DEPTH,
})

#: Reasons a built plan can decline a single engagement at runtime (the
#: ``bails`` telemetry key space).  Laned runs may additionally surface
#: any :data:`LANED_BAIL_REASONS` entry.
RUNTIME_BAIL_REASONS = frozenset({
    REASON_TRIP_COUNT_RANGE,
    REASON_TRIP_UNSOLVABLE,
    REASON_INSTRUCTION_CAP,
    REASON_RUNAWAY_INNER_LOOP,
    REASON_DIVERGENT_BRANCH,
    REASON_DIVERGENT_TRIP_COUNT,
    REASON_STORE_OVERLAP,
    REASON_LOAD_STORE_OVERLAP,
    REASON_GATHER_SPAN,
    REASON_REGION_SPAN,
    REASON_UNALIGNED_ACCESS,
    REASON_DUPLICATE_STORE_LANES,
})

#: Reasons the laned lockstep engine abandons a whole run
#: (:class:`LockstepBail`, counted in the lockstep telemetry).
LS_ADDRESS_RANGE = "address-range"
LS_MISALIGNED = "misaligned"
LS_DIVERGENT_STORE_ADDRESS = "divergent-store-address"
LS_DIVERGENT_JUMP = "divergent-jump"
LS_DIVERGENT_TRIP_COUNT = "divergent-trip-count"
LS_DIVERGENT_BRANCH = "divergent-branch"
LS_DIVERGENT_DMA = "divergent-dma"
LS_PC_OVERRUN = "pc-overrun"
LS_LOOP_NESTING = "loop-nesting"
LS_DMA_ERROR = "dma-error"
LS_UNKNOWN_TERMINATOR = "unknown-terminator"
LS_INSTRUCTION_CAP = "instruction-cap"
LS_MID_BLOCK_ENTRY = "mid-block-entry"
LS_STOP_DISAGREEMENT = "stop-disagreement"
LS_PREDICATED_MEMORY = "predicated-memory"
LS_BLOCK_ADDRESS_SHAPE = "block-address-shape"
LS_UNSUPPORTED = "unsupported"

#: Every reason :class:`LockstepBail` can carry.
LOCKSTEP_BAIL_REASONS = frozenset({
    LS_ADDRESS_RANGE,
    LS_MISALIGNED,
    LS_DIVERGENT_STORE_ADDRESS,
    LS_DIVERGENT_JUMP,
    LS_DIVERGENT_TRIP_COUNT,
    LS_DIVERGENT_BRANCH,
    LS_DIVERGENT_DMA,
    LS_PC_OVERRUN,
    LS_LOOP_NESTING,
    LS_DMA_ERROR,
    LS_UNKNOWN_TERMINATOR,
    LS_INSTRUCTION_CAP,
    LS_MID_BLOCK_ENTRY,
    LS_STOP_DISAGREEMENT,
    LS_PREDICATED_MEMORY,
    LS_BLOCK_ADDRESS_SHAPE,
    LS_UNSUPPORTED,
})

#: A laned vector pass converts a memory refusal (a ``LockstepBail``)
#: into a runtime bail tagged ``laned-<reason>``; it can additionally
#: emit the lane-array-specific tag below, which has no LockstepBail
#: counterpart site.
LANED_BAIL_PREFIX = "laned-"
LS_LANED_STORE_ADDRESSES = "store-addresses"

#: The ``bails`` telemetry key space of the laned vector path.
LANED_BAIL_REASONS = frozenset(
    LANED_BAIL_PREFIX + reason
    for reason in LOCKSTEP_BAIL_REASONS | {LS_LANED_STORE_ADDRESSES}
)


class LockstepBail(Exception):
    """The lane model cannot reproduce this run; use the scalar path.

    Raised for divergent control flow, lane-varying store addresses,
    instruction-cap proximity, faulting accesses, and anything else the
    laned engine does not model — the caller's sequential fallback then
    reproduces the exact scalar behaviour (including exact errors).
    ``reason`` is always drawn from :data:`LOCKSTEP_BAIL_REASONS`.
    """

    def __init__(self, reason: str = LS_UNSUPPORTED):
        super().__init__(reason)
        self.reason = reason


#: How a memory refusal inside a vector pass becomes a scalar-engine
#: bail tag, keyed by (trip-varying load?, LockstepBail reason): a
#: refused gather is a ``gather-span`` whatever the cause, any other
#: access names the failing check.  Laned runs tag the same refusal
#: ``laned-<reason>`` instead (:meth:`_VectorRun._refused`).
_SCALAR_MEMORY_BAILS = {
    (True, LS_ADDRESS_RANGE): REASON_GATHER_SPAN,
    (True, LS_MISALIGNED): REASON_GATHER_SPAN,
    (False, LS_ADDRESS_RANGE): REASON_REGION_SPAN,
    (False, LS_MISALIGNED): REASON_UNALIGNED_ACCESS,
}


class _Bail(Exception):
    """Internal: this loop cannot be vectorized (for this run).

    ``reason`` is a short stable tag recorded by the telemetry counters
    (see :func:`repro.pulp.fastpath.fastpath_telemetry`); the default
    covers the compile-time structure bails where finer detail buys
    nothing.  Every value is drawn from :data:`COMPILE_REJECT_REASONS`
    or :data:`RUNTIME_BAIL_REASONS`.
    """

    __slots__ = ("reason",)

    def __init__(self, reason: str = REASON_IRREGULAR_STRUCTURE):
        super().__init__(reason)
        self.reason = reason


# ---------------------------------------------------------------------------
# Fast-path telemetry counters (shared by both engines; the snapshot
# API lives in repro.pulp.fastpath).
# ---------------------------------------------------------------------------

_TELEMETRY = {
    # (plan kind, plan head pc) -> successful vector engagements
    "engaged": Counter(),
    # (plan kind, plan head pc) -> total trips executed vectorized
    "trips": Counter(),
    # bail reason -> count (runtime bails + trip-solver failures)
    "bails": Counter(),
    # (plan kind, plan head pc, reason) -> count
    "plan_bails": Counter(),
    # reason -> loops rejected at compile time (no plan built)
    "compile_rejects": Counter(),
}


def _record_bail(plan, reason: str) -> None:
    _TELEMETRY["bails"][reason] += 1
    _TELEMETRY["plan_bails"][(plan.kind, plan.head, reason)] += 1


def _solve_branch_trips(op, a0, step, b, signed_cmp):
    """Trips of a do-while self-loop with an affine condition register.

    ``a0`` is the register value at loop entry, ``step`` its net signed
    change per iteration; the condition is checked after each iteration
    with value ``a0 + t*step``.  Returns the verified trip count, or
    ``None`` when unsolvable (wraps, diverges, or never exits).
    """

    def value(t):
        return (a0 + t * step) & _MASK32

    def cond(t):
        av = value(t)
        if op == _OP_BEQ:
            return av == b
        if op == _OP_BNE:
            return av != b
        if op == _OP_BLTU:
            return av < b
        if op == _OP_BGEU:
            return av >= b
        sa = _signed(av)
        sb = _signed(b)
        if op == _OP_BLT:
            return sa < sb
        return sa >= sb  # _OP_BGE

    candidates = [1]
    if step:
        if signed_cmp:
            sa0 = _signed(a0)
            sb = _signed(b)
            if op == _OP_BLT and step > 0:
                candidates.append(max(1, -((sa0 - sb) // step)))
            elif op == _OP_BGE and step < 0:
                candidates.append(max(1, (sa0 - sb) // (-step) + 1))
        else:
            if op == _OP_BLTU and step > 0:
                candidates.append(max(1, -((a0 - b) // step)))
            elif op == _OP_BGEU and step < 0:
                candidates.append(max(1, (a0 - b) // (-step) + 1))
            elif op == _OP_BNE:
                delta = b - a0
                if delta % step == 0 and delta // step >= 1:
                    candidates.append(delta // step)
    for trips in sorted(set(candidates), reverse=True):
        if trips < 1 or trips > MAX_VECTOR_TRIPS:
            continue
        # No 32-bit wrap across the iteration range keeps the affine
        # sequence monotonic, so endpoint checks pin the whole range.
        unwrapped_lo = min(a0, a0 + trips * step)
        unwrapped_hi = max(a0, a0 + trips * step)
        if signed_cmp:
            sa0 = _signed(a0)
            lo = min(sa0, sa0 + trips * step)
            hi = max(sa0, sa0 + trips * step)
            if lo < -(1 << 31) or hi >= (1 << 31):
                continue
        elif unwrapped_lo < 0 or unwrapped_hi > _MASK32:
            continue
        if cond(trips):
            continue
        if trips > 1 and not cond(trips - 1):
            continue
        return trips
    return None


# ---------------------------------------------------------------------------
# The laned memory the vector pass runs over.
# ---------------------------------------------------------------------------

_M64 = np.uint64(_MASK32)


def _uniform_int(value) -> Optional[int]:
    """Collapse a lane value to an int, or ``None`` when it diverges."""
    if isinstance(value, np.ndarray):
        first = value.flat[0]
        if (value == first).all():
            return int(first)
        return None
    return int(value)


class LaneImage:
    """One lane's materialized (L1, L2) memory snapshot.

    Each image is a prefix of its region: restoring it writes exactly
    those bytes from ``L1_BASE`` / ``L2_BASE`` and leaves the rest of
    the scalar memory as it was.
    """

    __slots__ = ("l1", "l2")

    def __init__(self, l1: bytes, l2: bytes):
        self.l1 = l1
        self.l2 = l2

    def restore_into(self, memory: MemorySystem) -> None:
        """Write this lane's image into a scalar memory system."""
        memory.write_bytes(L1_BASE, self.l1)
        memory.write_bytes(L2_BASE, self.l2)


class LanedMemory:
    """N per-lane images of the two-level memory, batch addressable.

    Functional accesses operate on ``(n_lanes, bytes)`` arrays; timing
    questions (region classification, the closed-form stall model) are
    answered once because every lane's access trace is identical, and
    the stall accumulator is a :class:`MemorySystem`'s own, so the
    fixed-point conflict sequence can never drift from the oracle's.

    ``LanedMemory(memory, n)`` stages ``n`` private copies of
    ``memory``'s image with a private accumulator (the lockstep
    engine).  ``footprint=(l1_bytes, l2_bytes)`` stages only that
    prefix of each region — the bytes a program can touch — instead of
    the whole memory: rows are that wide, and any access past the
    prefix raises ``LockstepBail(LS_ADDRESS_RANGE)`` exactly like an
    address outside the memory, so the caller falls back to scalar
    runs.  ``LanedMemory(memory)`` is a zero-copy, full-size one-lane
    view of ``memory`` itself: its rows are ``np.frombuffer``
    over ``memory``'s bytearrays and its stalls advance ``memory``'s
    accumulator, so a :class:`~repro.pulp.fastpath.FastCore`'s vector
    passes and its scalar accesses continue one conflict sequence.
    """

    def __init__(
        self,
        memory: MemorySystem,
        n_lanes: Optional[int] = None,
        footprint: Optional[Tuple[int, int]] = None,
    ):
        config = memory.config
        self.config = config
        l1_bytes, l2_bytes = config.l1_bytes, config.l2_bytes
        #: True for the zero-copy one-lane view of a scalar core's memory
        self.is_view = n_lanes is None
        if footprint is not None:
            l1_bytes, l2_bytes = footprint
            if not (
                0 <= l1_bytes <= config.l1_bytes
                and 0 <= l2_bytes <= config.l2_bytes
            ) or (l1_bytes | l2_bytes) & 3:
                raise ValueError(
                    f"footprint {footprint} must be word multiples within "
                    f"({config.l1_bytes}, {config.l2_bytes})"
                )
        l1 = np.frombuffer(memory._l1, dtype=np.uint8, count=l1_bytes)
        l2 = np.frombuffer(memory._l2, dtype=np.uint8, count=l2_bytes)
        if self.is_view:
            self.n_lanes = 1
            self._stalls = memory
            l1, l2 = l1[None, :], l2[None, :]
        else:
            self.n_lanes = n_lanes
            l1 = np.tile(l1, (n_lanes, 1))
            l2 = np.tile(l2, (n_lanes, 1))
            self._stalls = MemorySystem(config)
        self._l1 = l1
        self._l2 = l2
        self._l1_end = L1_BASE + l1_bytes
        self._l2_end = L2_BASE + l2_bytes
        self._views: Dict[Tuple[bool, int], np.ndarray] = {}
        # Lane-divergence page map (256-B pages): lanes start
        # byte-identical (tiled), and only per-lane writes can make them
        # differ.  Loads from never-diverged pages read lane 0's bytes
        # directly — no all-lane gather, no uniformity compare.
        self._dirty = {
            True: np.zeros((l1_bytes >> 8) + 1, dtype=bool),
            False: np.zeros((l2_bytes >> 8) + 1, dtype=bool),
        }

    def mark_divergent(self, is_l1: bool, lo_off: int, hi_off: int) -> None:
        """Record that lanes may now differ in [lo_off, hi_off] bytes."""
        self._dirty[is_l1][lo_off >> 8 : (hi_off >> 8) + 1] = True

    def lanes_identical(self, is_l1: bool, lo_off: int, hi_off: int) -> bool:
        """True when every lane provably holds the same bytes there."""
        return not self._dirty[is_l1][
            lo_off >> 8 : (hi_off >> 8) + 1
        ].any()

    # -- region / timing ---------------------------------------------------

    def locate(self, lo: int, hi: int) -> Tuple[bool, int]:
        """(is_l1, region_base) for [lo, hi]; bail when out of range."""
        if L1_BASE <= lo and hi < self._l1_end:
            return True, L1_BASE
        if L2_BASE <= lo and hi < self._l2_end:
            return False, L2_BASE
        raise LockstepBail(LS_ADDRESS_RANGE)

    def set_team_size(self, n_cores: int) -> None:
        """Configure the expected L1 bank-conflict penalty for a team."""
        self._stalls.set_team_size(n_cores)

    def bulk_stalls(self, n_l1: int, n_l2: int) -> int:
        """Closed-form stall total, advancing the shared accumulator."""
        return self._stalls.bulk_stalls(n_l1, n_l2)

    # -- functional access -------------------------------------------------

    def _view(self, is_l1: bool, width: int) -> np.ndarray:
        view = self._views.get((is_l1, width))
        if view is None:
            buf = self._l1 if is_l1 else self._l2
            view = buf.view({1: "<u1", 2: "<u2", 4: "<u4"}[width])
            self._views[(is_l1, width)] = view
        return view

    def write_lane_bytes(self, lane: int, addr: int, data: bytes) -> None:
        """Seed one lane's image (pre-run staging, untimed)."""
        is_l1, base = self.locate(addr, addr + len(data) - 1)
        buf = self._l1 if is_l1 else self._l2
        offset = addr - base
        buf[lane, offset : offset + len(data)] = np.frombuffer(
            data, dtype=np.uint8
        )
        self.mark_divergent(is_l1, offset, offset + len(data) - 1)

    def load_scalar(self, addr: int, width: int):
        """Load one address in every lane: int when uniform, else (n,)."""
        if width > 1 and addr % width:
            raise LockstepBail(LS_MISALIGNED)
        is_l1, base = self.locate(addr, addr + width - 1)
        offset = addr - base
        view = self._view(is_l1, width)
        if self.lanes_identical(is_l1, offset, offset + width - 1):
            return int(view[0, offset // width]), is_l1
        column = view[:, offset // width]
        first = int(column[0])
        if (column == first).all():
            return first, is_l1
        return column.astype(np.uint64), is_l1

    def store_scalar(self, addr: int, value, width: int) -> bool:
        """Store int-or-(n,) ``value`` at one address in every lane."""
        if width > 1 and addr % width:
            raise LockstepBail(LS_MISALIGNED)
        is_l1, base = self.locate(addr, addr + width - 1)
        view = self._view(is_l1, width)
        mask = (1 << (8 * width)) - 1
        offset = addr - base
        if isinstance(value, np.ndarray):
            view[:, offset // width] = (
                value.astype(np.uint64) & np.uint64(mask)
            ).astype(view.dtype)
            self.mark_divergent(is_l1, offset, offset + width - 1)
        else:
            view[:, offset // width] = int(value) & mask
        return is_l1

    def load_lanes(self, addr: np.ndarray, width: int):
        """Load a per-lane (n,) address vector: one value per lane."""
        lo = int(addr.min())
        hi = int(addr.max()) + width - 1
        if width > 1 and (addr % width).any():
            raise LockstepBail(LS_MISALIGNED)
        is_l1, base = self.locate(lo, hi)
        view = self._view(is_l1, width)
        offsets = (addr.astype(np.int64) - base) // width
        if self.lanes_identical(is_l1, lo - base, hi - base):
            values = view[0, offsets]
        else:
            values = view[np.arange(self.n_lanes), offsets]
        first = int(values[0])
        if (values == first).all():
            return first, is_l1
        return values.astype(np.uint64), is_l1

    def gather_cols(
        self, offsets, width: int, is_l1: bool, lo_off: int, hi_off: int
    ):
        """Gather lane-uniform trip addresses: (T,) offsets (or a column
        slice) → (T, n), or (T, 1) when every lane holds the same bytes.

        ``[lo_off, hi_off]`` is the access's byte range within the
        region; provably lane-identical ranges read lane 0 only.
        """
        view = self._view(is_l1, width)
        if self.lanes_identical(is_l1, lo_off, hi_off):
            return view[0, offsets].astype(np.uint64)[:, None]
        values = view[:, offsets].T.astype(np.uint64)
        if self.n_lanes > 1 and (values == values[:, :1]).all():
            return values[:, :1]
        return values

    def gather_2d(
        self,
        offsets: np.ndarray,
        width: int,
        is_l1: bool,
        lo_off: int,
        hi_off: int,
    ):
        """Gather per-(trip, lane) addresses: (T, n) offsets → (T, n)."""
        view = self._view(is_l1, width)
        if self.lanes_identical(is_l1, lo_off, hi_off):
            return view[0, offsets].astype(np.uint64)
        return view[
            np.arange(self.n_lanes)[None, :], offsets
        ].astype(np.uint64)

    def scatter_cols(
        self, offsets, values, width: int, is_l1: bool,
        lo_off: int, hi_off: int,
    ) -> None:
        """Scatter to lane-uniform trip addresses ((T,) offsets or a
        column slice)."""
        view = self._view(is_l1, width)
        mask = (1 << (8 * width)) - 1
        if isinstance(values, np.ndarray):
            masked = (values.astype(np.uint64) & np.uint64(mask)).astype(
                view.dtype
            )
            if masked.ndim == 2 and masked.shape[1] > 1:
                view[:, offsets] = masked.T
                self.mark_divergent(is_l1, lo_off, hi_off)
            elif masked.ndim == 2:
                view[:, offsets] = masked[:, 0]
            else:  # (n,) per-lane value, every trip column
                view[:, offsets] = masked[:, None]
                self.mark_divergent(is_l1, lo_off, hi_off)
        else:
            view[:, offsets] = int(values) & mask

    def dma_copy(self, src, dst: int, size: int) -> None:
        """Per-lane byte copy (functional half of a DMA transfer)."""
        if size == 0:
            return
        dst_l1, dst_base = self.locate(dst, dst + size - 1)
        dst_buf = self._l1 if dst_l1 else self._l2
        doff = dst - dst_base
        if isinstance(src, np.ndarray):
            lo = int(src.min())
            hi = int(src.max()) + size - 1
            src_l1, src_base = self.locate(lo, hi)
            src_buf = self._l1 if src_l1 else self._l2
            # One gather over every lane's (lane, offset) window; the
            # fancy index copies, so an overlapping src/dst is safe.
            windows = np.lib.stride_tricks.sliding_window_view(
                src_buf, size, axis=1
            )
            dst_buf[:, doff : doff + size] = windows[
                np.arange(self.n_lanes), src.astype(np.int64) - src_base
            ]
            self.mark_divergent(dst_l1, doff, doff + size - 1)
        else:
            src = int(src)
            src_l1, src_base = self.locate(src, src + size - 1)
            src_buf = self._l1 if src_l1 else self._l2
            soff = src - src_base
            block = src_buf[:, soff : soff + size]
            if src_buf is dst_buf:
                block = block.copy()
            dst_buf[:, doff : doff + size] = block
            if not self.lanes_identical(src_l1, soff, soff + size - 1):
                self.mark_divergent(dst_l1, doff, doff + size - 1)

    def read_lane_word(self, lane: int, addr: int) -> int:
        """Untimed aligned 32-bit read from one lane's image."""
        if addr & 3:
            raise LockstepBail(LS_MISALIGNED)
        is_l1, base = self.locate(addr, addr + 3)
        return int(self._view(is_l1, 4)[lane, (addr - base) // 4])

    def lane_image(self, lane: int) -> LaneImage:
        """Materialize one lane's memory as an immutable snapshot."""
        return LaneImage(
            self._l1[lane].tobytes(), self._l2[lane].tobytes()
        )


# ---------------------------------------------------------------------------
# The vector pass: one batched execution of a loop plan.
# ---------------------------------------------------------------------------

#: Memos (here and in repro.pulp.fastpath) are cleared wholesale at
#: this many entries to bound memory when many distinct programs stream
#: through one process.
_MEMO_LIMIT = 4096

#: Memo of compiled symbolic segments keyed by their prepared
#: instruction tuples (segment semantics are profile-independent — the
#: cycle costs live in the execution node, not the closure).
_SEG_MEMO: Dict[tuple, object] = {}


def _compile_seg(instrs):
    """Compile one straight symbolic segment into a generated closure.

    The closure ``f(sym, load, store, T)`` applies the segment's lane
    semantics over the symbolic register file — one generated line per
    instruction, mirroring the oracle's per-op semantics for both
    scalar (python int) and lane-array (uint64 ndarray) operands.
    ``load``/``store`` are the :class:`_VectorRun` memory hooks (which
    defer stores and count stalls); ``T`` the lane count for reduction
    feeds.  Returns ``None`` for a segment with no effect (all nops).
    """
    cached = _SEG_MEMO.get(instrs)
    if cached is not None:
        return cached
    lines: List[str] = []
    for op, rd, ra, rb, imm, immM, imm2, red in instrs:
        a = "0" if ra == 0 else f"sym[{ra}]"
        b = "0" if rb == 0 else f"sym[{rb}]"
        dst = f"sym[{rd}]"
        drop = rd == 0
        if red is not None:
            reg, _rop, src = red
            value = "0" if src == 0 else f"sym[{src}]"
            lines.append(f"    sym[{reg}].feed({value}, T)")
            continue
        if op == _OP_ADD:
            expr = f"({a} + {b}) & M"
        elif op == _OP_ADDI:
            expr = f"({a} + {immM}) & M"
        elif op == _OP_XOR:
            expr = f"{a} ^ {b}"
        elif op == _OP_AND:
            expr = f"{a} & {b}"
        elif op == _OP_OR:
            expr = f"{a} | {b}"
        elif op == _OP_SUB:
            expr = f"({a} - {b}) & M"
        elif op == _OP_SRL:
            expr = f"{a} >> ({b} & 31)"
        elif op == _OP_SLL:
            expr = f"({a} << ({b} & 31)) & M"
        elif op == _OP_SRLI:
            expr = f"{a} >> {imm & 31}"
        elif op == _OP_SLLI:
            expr = f"({a} << {imm & 31}) & M"
        elif op == _OP_ANDI:
            expr = f"{a} & {immM}"
        elif op == _OP_ORI:
            expr = f"{a} | {immM}"
        elif op == _OP_XORI:
            expr = f"{a} ^ {immM}"
        elif op == _OP_SLTU:
            expr = f"_b01({a} < {b})"
        elif op == _OP_SLT:
            expr = f"_b01(_sgn_v({a}) < _sgn_v({b}))"
        elif op == _OP_SLTI:
            expr = f"_b01(_sgn_v({a}) < {imm})"
        elif op == _OP_SLTIU:
            expr = f"_b01({a} < {immM})"
        elif op == _OP_SRA:
            expr = f"_u64((_sgn_v({a}) >> _sh31({b})) & M)"
        elif op == _OP_SRAI:
            expr = f"_u64((_sgn_v({a}) >> {imm & 31}) & M)"
        elif op == _OP_LI:
            expr = f"{immM}"
        elif op == _OP_MV:
            expr = a
        elif op == _OP_NOP:
            continue
        elif op == _OP_MUL:
            expr = f"({a} * {b}) & M"
        elif op == _OP_MULH:
            expr = f"_u64((_sgn_v({a}) * _sgn_v({b}) >> 32) & M)"
        elif op == _OP_CNT:
            expr = f"_pcnt({a})"
        elif op == _OP_EXTRACTU or op == _OP_UBFX:
            expr = f"({a} >> {imm}) & {(1 << imm2) - 1}"
        elif op == _OP_INSERT or op == _OP_BFI:
            mask = ((1 << imm2) - 1) << imm
            expr = (
                f"({dst} & {~mask & _MASK32}) | (({a} << {imm}) & {mask})"
            )
        elif op == _OP_LW or op == _OP_LBU or op == _OP_LHU:
            expr = f"load(({a} + {immM}) & M, {_MEM_WIDTH[op]})"
        elif op == _OP_LW_POST:
            lines.append(f"    _a = {a}")
            # Value first, post-increment second: when rd == ra the
            # increment overwrites the load, as in the oracle.
            if drop:
                lines.append("    load(_a, 4)")
            else:
                lines.append(f"    {dst} = load(_a, 4)")
            if ra:
                lines.append(f"    sym[{ra}] = (_a + {immM}) & M")
            continue
        elif op == _OP_SW or op == _OP_SB or op == _OP_SH:
            rv = "0" if rd == 0 else dst
            lines.append(
                f"    store(({a} + {immM}) & M, {rv}, {_MEM_WIDTH[op]})"
            )
            continue
        elif op == _OP_SW_POST:
            rv = "0" if rd == 0 else dst
            lines.append(f"    _a = {a}")
            lines.append(f"    store(_a, {rv}, 4)")
            if ra:
                lines.append(f"    sym[{ra}] = (_a + {immM}) & M")
            continue
        else:  # pragma: no cover - parse rejects control opcodes
            raise _Bail
        if drop:
            # Loads to r0 still access memory; pure ALU into r0 is dead.
            if op in _LOAD_OPS:
                lines.append(f"    {expr}")
            continue
        lines.append(f"    {dst} = {expr}")
    if not lines:
        return None
    src = "\n".join(["def _seg(sym, load, store, T):"] + lines)
    namespace = {
        "M": _MASK32,
        "_sgn_v": _sgn_v,
        "_u64": _u64,
        "_pcnt": _popcount_v,
        "_b01": _bool01,
        "_sh31": _sh31,
    }
    exec(src, namespace)  # noqa: S102 - compiling our own assembler output
    closure = namespace["_seg"]
    if len(_SEG_MEMO) >= _MEMO_LIMIT:
        _SEG_MEMO.clear()
    _SEG_MEMO[instrs] = closure
    return closure


def _sgn_v(value):
    """Signed view of a 32-bit value (scalar int or uint64 lane array)."""
    if isinstance(value, np.ndarray):
        s = value.astype(np.int64)
        return ((s + 0x8000_0000) & _MASK32) - 0x8000_0000
    return _signed(value)


def _u64(value):
    if isinstance(value, np.ndarray) and value.dtype != np.uint64:
        return value.astype(np.uint64)
    return value


def _popcount_v(value):
    if isinstance(value, np.ndarray):
        # Guarded helper: np.bitwise_count on numpy >= 2.0, byte LUT
        # below (the same fallback the HDC engine uses).
        return _popcount_array(value).astype(np.uint64)
    return bin(value).count("1")


def _bool01(cond):
    """Comparison result as a 0/1 value (scalar or lane array)."""
    if isinstance(cond, np.ndarray):
        return cond.astype(np.uint64)
    return int(cond)


def _sh31(value):
    """Shift amount (& 31) in a dtype valid for shifting signed values.

    NumPy refuses ``int64 >> uint64`` promotion, and a negative python
    scalar cannot shift by a uint64 array — so arithmetic-shift amounts
    are carried as int64.
    """
    if isinstance(value, np.ndarray):
        return (value & 31).astype(np.int64)
    return value & 31


def _seg_noop(sym, load, store, T):
    """Compiled form of an all-nop segment."""


def _cond_v(op, a, b):
    """Branch condition on scalar/lane values; bool or bool array."""
    if op == _OP_BEQ:
        return a == b
    if op == _OP_BNE:
        return a != b
    if op == _OP_BLTU:
        return a < b
    if op == _OP_BGEU:
        return a >= b
    sa, sb = _sgn_v(a), _sgn_v(b)
    if op == _OP_BLT:
        return sa < sb
    return sa >= sb  # _OP_BGE


def _affine_stride(addr: np.ndarray):
    """Positive common stride of an affine address array, else ``None``."""
    if addr.size < 2:
        return None
    step = int(addr[1]) - int(addr[0])
    if step <= 0:
        return None
    deltas = addr[1:] - addr[:-1]
    # Exact for unsigned dtypes too: a descending pair wraps to a huge
    # delta that can never equal the positive 32-bit step.
    if (deltas == deltas.dtype.type(step)).all():
        return step
    return None


def _accesses_disjoint(addr_a, width_a, stride_a, addr_b, width_b, stride_b):
    """Whether two access sets with overlapping bounding intervals are
    provably byte-disjoint.

    The decidable-in-O(1) case is two affine sets on the same stride
    lattice (the kernels' row-strided lane sets): their byte footprints
    repeat with period ``s``, so a phase test on ``(base_a − base_b)
    mod s`` settles disjointness for every pair of elements at once.  A
    scalar access against an affine set uses the same phase test.
    Everything undecided returns False (the caller bails — exactly the
    pre-stride behaviour, so this is only ever *more* permissive).
    ``None`` stands for an address set with no affine representative
    (e.g. the lockstep engine's per-lane gathers): never provably
    disjoint.
    """
    if addr_a is None or addr_b is None:
        return False
    if isinstance(addr_a, np.ndarray):
        if stride_a is None:
            return False
        base_a = int(addr_a[0])
    else:
        base_a, stride_a = int(addr_a), None
    if isinstance(addr_b, np.ndarray):
        if stride_b is None:
            return False
        base_b = int(addr_b[0])
    else:
        base_b, stride_b = int(addr_b), None
    if stride_a is None and stride_b is None:
        return False  # two scalars with overlapping intervals do touch
    if stride_a is not None and stride_b is not None:
        if stride_a != stride_b:
            return False
        stride = stride_a
    else:
        stride = stride_a if stride_a is not None else stride_b
    if width_a > stride or width_b > stride:
        return False
    # Phase of set a relative to set b on the shared lattice: bytes
    # [d, d+width_a) of some period must miss [0, width_b) of the next.
    d = (base_a - base_b) % stride
    return d >= width_b and d + width_a <= stride


def _trip_span(addr: np.ndarray, width: int):
    """``(lo, hi, stride, misaligned)`` of a ``(T,)`` trip address set.

    Affine strides (the overwhelmingly common case) pin the byte bounds
    and the alignment from the endpoints alone.
    """
    stride = _affine_stride(addr)
    if stride is not None:
        lo = int(addr[0])
        hi = int(addr[-1]) + width - 1
        return lo, hi, stride, width > 1 and bool(lo % width or stride % width)
    lo = int(addr.min())
    hi = int(addr.max()) + width - 1
    return lo, hi, None, width > 1 and bool((addr % width).any())


def _columns(addr: np.ndarray, lo: int, base: int, width: int, stride):
    """Element index of each trip address in a region's ``width`` view;
    unit-stride runs become a column slice instead of a fancy index."""
    if stride == width:
        col0 = (lo - base) // width
        return slice(col0, col0 + addr.shape[0])
    return (addr.astype(np.int64) - base) // width


class _Reduction:
    """Write-only per-lane accumulator for a reduction register."""

    __slots__ = ("op", "base", "acc")

    def __init__(self, op: int, base, n_lanes: int):
        self.op = op
        self.base = base
        if op == _OP_AND:
            self.acc = np.full(n_lanes, _MASK32, dtype=np.uint64)
        else:
            self.acc = np.zeros(n_lanes, dtype=np.uint64)

    def feed(self, value, lanes: int) -> None:
        op = self.op
        if isinstance(value, np.ndarray) and value.ndim == 2:
            # Trip-varying feed: reduce over the trip axis per lane.
            if op == _OP_ADD:
                self.acc = (
                    self.acc + value.sum(axis=0, dtype=np.uint64)
                ) & _M64
            elif op == _OP_OR:
                self.acc |= np.bitwise_or.reduce(value, axis=0)
            elif op == _OP_XOR:
                self.acc ^= np.bitwise_xor.reduce(value, axis=0)
            else:
                self.acc &= np.bitwise_and.reduce(value, axis=0)
        else:
            # Trip-invariant feed (int or per-lane (n,)): closed form.
            if op == _OP_ADD:
                self.acc = (self.acc + np.uint64(0) + value * lanes) & _M64
            elif op == _OP_OR:
                self.acc |= np.uint64(0) + value
            elif op == _OP_XOR:
                if lanes & 1:
                    self.acc ^= np.uint64(0) + value
            else:
                self.acc &= np.uint64(0) + value

    def fold(self) -> np.ndarray:
        base = np.uint64(0) + self.base  # int or (n,) → uint64
        if self.op == _OP_ADD:
            return (base + self.acc) & _M64
        if self.op == _OP_OR:
            return base | self.acc
        if self.op == _OP_XOR:
            return base ^ self.acc
        return base & self.acc


class _VectorRun:
    """One batched execution of a loop plan over ``T`` trips × lanes.

    The plan is a :class:`repro.pulp.fastpath.LoopPlan`; the lanes are
    those of the engaging core's :class:`LanedMemory` (``core.lmem``).
    Trip-varying values are carried as ``(T, 1)`` (lane-uniform) or
    ``(T, n)`` arrays, lane-varying loop invariants as ``(n,)``; the
    compiled segment closures and :meth:`eval_prepared` are
    shape-agnostic.  A ``FastCore`` runs its passes over one lane, so
    its registers stay ints and commit collapses them back to ints.

    All architectural effects are *deferred* (stores, register
    write-back, stall accounting), so a :class:`_Bail` raised at any
    point leaves the core and memory untouched and the block path can
    re-execute the loop.
    """

    def __init__(self, core: "DispatchCore", plan, trips: int):
        self.core = core
        self.plan = plan
        self.trips = trips
        self.memory = core.lmem
        self.n_l1 = 0
        self.n_l2 = 0
        self.base_cycles = 0
        self.n_instr = 0
        # (lo, hi, addrs, values, width, stride) deferred stores and
        # (lo, hi, addrs, width, stride) gathered-load footprints.
        self.stores: List[tuple] = []
        self.loads: List[tuple] = []
        # instr_count becomes a lane array after a predicated branch;
        # budget against the worst lane so no lane can cross the cap.
        instr_count = core.instr_count
        if isinstance(instr_count, np.ndarray):
            instr_count = int(instr_count.max())
        self.budget = core.max_instructions - instr_count
        self._taken = 1 + core.profile.branch_taken_penalty
        self._not_taken = 1 + core.profile.branch_not_taken_penalty
        regs = core.regs
        sym: List = list(regs)
        sym[0] = 0
        lanes = np.arange(trips, dtype=np.uint64)[:, None]  # (T, 1)
        for reg, step in plan.inductions.items():
            if reg == 0:
                continue
            base = regs[reg]
            if isinstance(base, np.ndarray):
                base = base[None, :]  # (1, n) → broadcast to (T, n)
            else:
                base = np.uint64(base)
            sym[reg] = (base + lanes * np.uint64(step & _MASK32)) & _M64
        n_lanes = self.memory.n_lanes
        for _pc, (reg, op, _src) in plan.reduction_pcs.items():
            if reg:
                sym[reg] = _Reduction(op, regs[reg], n_lanes)
        self.sym = sym

    # -- helpers -----------------------------------------------------------

    def _check_no_store_overlap(
        self, lo: int, hi: int, addr=None, width: int = 0, stride=None
    ) -> None:
        """A load (or new store) range may not touch a deferred store.

        [lo, hi] is the access set's bounding interval; interval overlap
        alone is not disproof of disjointness, so overlapping intervals
        fall through to the exact (or stride-lattice) test — a
        row-strided lane set interleaves with its neighbour's interval
        while touching entirely different bytes.
        """
        for s_lo, s_hi, s_addr, _, s_width, s_stride in self.stores:
            if lo <= s_hi and s_lo <= hi and not _accesses_disjoint(
                addr, width, stride, s_addr, s_width, s_stride
            ):
                raise _Bail(REASON_STORE_OVERLAP)

    def _check_no_load_overlap(self, lo, hi, addr, width, stride) -> None:
        """A new store range may not touch any already-gathered load.

        This catches the *backward* cross-trip dependence (a load site
        earlier in the body reading what a later store site writes on a
        previous trip): the gather already consumed pre-loop memory for
        every lane, so committing an overlapping store would diverge
        from the oracle.  Bailing here discards the deferred state and
        reruns the loop through the block path.

        One overlap shape stays vectorizable: a per-lane read-modify-
        write, where the store's address array equals the load's
        element for element (same width).  Lanes are duplicate-free, so
        every lane touches only its own address and the within-trip
        load-before-store order means the gather's pre-loop values are
        exactly what the oracle reads.  A *scalar* address reused by
        both sites is loop-carried through memory and must still bail.
        """
        for l_lo, l_hi, l_addr, l_width, l_stride in self.loads:
            if lo <= l_hi and l_lo <= hi:
                if (
                    width == l_width
                    and isinstance(addr, np.ndarray)
                    and isinstance(l_addr, np.ndarray)
                    and np.array_equal(addr, l_addr)
                ):
                    continue
                if _accesses_disjoint(
                    addr, width, stride, l_addr, l_width, l_stride
                ):
                    continue
                raise _Bail(REASON_LOAD_STORE_OVERLAP)

    # -- memory hooks ------------------------------------------------------
    #
    # Checks run in a fixed order — alignment and region before overlap
    # for single addresses, overlap before span for gathers — which
    # decides the one tag an access failing two checks reports.

    def _refused(self, gather: bool, reason: str) -> _Bail:
        """The bail for a :class:`LockstepBail` memory refusal."""
        if self.memory.is_view:
            return _Bail(_SCALAR_MEMORY_BAILS[gather, reason])
        return _Bail(LANED_BAIL_PREFIX + reason)

    def _load(self, addr, width: int):
        lmem: LanedMemory = self.memory
        gather = isinstance(addr, np.ndarray)
        try:
            if not gather:
                addr = int(addr)
                lo, hi = addr, addr + width - 1
                values, is_l1 = lmem.load_scalar(addr, width)
                self._check_no_store_overlap(lo, hi, addr, width, None)
                self.loads.append((lo, hi, addr, width, None))
            elif addr.ndim == 2 and addr.shape[1] == 1:
                # Lane-uniform trip addresses.
                flat = addr[:, 0]
                lo, hi, stride, misaligned = _trip_span(flat, width)
                self._check_no_store_overlap(lo, hi, flat, width, stride)
                if misaligned:
                    raise LockstepBail(LS_MISALIGNED)
                is_l1, base = lmem.locate(lo, hi)
                values = lmem.gather_cols(
                    _columns(flat, lo, base, width, stride),
                    width, is_l1, lo - base, hi - base,
                )
                self.loads.append((lo, hi, flat, width, stride))
            elif addr.ndim == 2:
                # Per-(trip, lane) addresses.
                lo = int(addr.min())
                hi = int(addr.max()) + width - 1
                if width > 1 and (addr % width).any():
                    raise LockstepBail(LS_MISALIGNED)
                self._check_no_store_overlap(lo, hi, None, width, None)
                is_l1, base = lmem.locate(lo, hi)
                values = lmem.gather_2d(
                    (addr.astype(np.int64) - base) // width,
                    width,
                    is_l1,
                    lo - base,
                    hi - base,
                )
                self.loads.append((lo, hi, None, width, None))
            else:
                # Per-lane loop-invariant address (n,).
                lo = int(addr.min())
                hi = int(addr.max()) + width - 1
                self._check_no_store_overlap(lo, hi, None, width, None)
                values, is_l1 = lmem.load_lanes(addr, width)
                self.loads.append((lo, hi, None, width, None))
        except LockstepBail as bail:
            raise self._refused(gather, bail.reason) from None
        if is_l1:
            self.n_l1 += self.trips
        else:
            self.n_l2 += self.trips
        return values

    def _store(self, addr, value, width: int) -> None:
        lmem: LanedMemory = self.memory
        try:
            if isinstance(addr, np.ndarray):
                if addr.ndim != 2 or addr.shape[1] != 1:
                    raise _Bail(LANED_BAIL_PREFIX + LS_LANED_STORE_ADDRESSES)
                addr = addr[:, 0]
                lo, hi, stride, misaligned = _trip_span(addr, width)
                is_l1, _ = lmem.locate(lo, hi)
                if misaligned:
                    raise LockstepBail(LS_MISALIGNED)
                if stride is None and np.unique(addr).size != addr.size:
                    # Duplicate trip addresses: order-dependent.
                    raise _Bail(REASON_DUPLICATE_STORE_LANES)
            else:
                addr = int(addr)
                lo, hi = addr, addr + width - 1
                stride = None
                if width > 1 and addr % width:
                    raise LockstepBail(LS_MISALIGNED)
                is_l1, _ = lmem.locate(lo, hi)
                if isinstance(value, np.ndarray) and value.ndim == 2:
                    value = value[-1]  # last trip wins on one address
                    if value.shape[0] == 1 or (value == value[0]).all():
                        value = int(value[0])
        except LockstepBail as bail:
            raise self._refused(False, bail.reason) from None
        self._check_no_store_overlap(lo, hi, addr, width, stride)
        self._check_no_load_overlap(lo, hi, addr, width, stride)
        self.stores.append((lo, hi, addr, value, width, stride))
        if is_l1:
            self.n_l1 += self.trips
        else:
            self.n_l2 += self.trips

    # -- execution ---------------------------------------------------------

    def run_nodes(self, nodes) -> None:
        T = self.trips
        sym = self.sym
        for node in nodes:
            kind = node[0]
            if kind == "seg":
                closure, count, cost = node[1], node[2], node[3]
                self.n_instr += count * T
                if self.n_instr > self.budget:
                    raise _Bail(REASON_INSTRUCTION_CAP)
                self.base_cycles += cost * T
                if closure is not None:
                    closure(sym, self._load, self._store, T)
                else:
                    node[5] += 1
                    if node[5] >= 2:
                        # Hot segment: compile once, reuse forever (the
                        # node is shared by every core and run).
                        closure = _compile_seg(node[4]) or _seg_noop
                        node[1] = closure
                        closure(sym, self._load, self._store, T)
                    else:
                        evaluate = self.eval_prepared
                        for prepared in node[4]:
                            evaluate(prepared)
            elif kind == "bl":
                _, body, (op, ra, rb) = node
                taken = self._taken
                not_taken = self._not_taken
                passes = 0
                while True:
                    passes += 1
                    if passes > MAX_VECTOR_TRIPS:
                        raise _Bail(REASON_RUNAWAY_INNER_LOOP)  # go scalar
                    self.run_nodes(body)
                    self.n_instr += T
                    if self.n_instr > self.budget:
                        raise _Bail(REASON_INSTRUCTION_CAP)
                    cond = _cond_v(
                        op,
                        sym[ra] if ra else 0,
                        sym[rb] if rb else 0,
                    )
                    if isinstance(cond, np.ndarray):
                        if cond.all():
                            branch_taken = True
                        elif not cond.any():
                            branch_taken = False
                        else:
                            # Lane-divergent control flow.
                            raise _Bail(REASON_DIVERGENT_BRANCH)
                    else:
                        branch_taken = bool(cond)
                    if branch_taken:
                        self.base_cycles += taken * T
                    else:
                        self.base_cycles += not_taken * T
                        break
            else:  # "hw"
                _, body, trip_reg = node
                self.n_instr += T
                self.base_cycles += T  # lp.setup costs 1
                trips_v = sym[trip_reg] if trip_reg else 0
                if isinstance(trips_v, np.ndarray):
                    if not (trips_v == trips_v.flat[0]).all():
                        raise _Bail(REASON_DIVERGENT_TRIP_COUNT)
                    trips_v = trips_v.flat[0]
                inner = int(trips_v)
                # Every pass adds at least T to n_instr, so this
                # pre-guard bounds the unroll work by the instruction cap.
                if inner and self.n_instr + inner * T > self.budget:
                    raise _Bail(REASON_INSTRUCTION_CAP)
                for _ in range(inner):
                    self.run_nodes(body)

    def eval_prepared(self, prepared) -> None:
        """Interpret one prepared instruction over the symbolic state.

        The cold-path twin of :func:`_compile_seg`: segments run through
        this until they prove hot enough to be worth an exec() compile.
        Semantics must match the generated code line for line.
        """
        op, rd, ra, rb, imm, immM, imm2, red = prepared
        sym = self.sym
        a = sym[ra]
        if red is not None:
            reg, _rop, src = red
            sym[reg].feed(sym[src] if src else 0, self.trips)
            return
        M = _MASK32
        if op == _OP_ADD:
            value = (a + sym[rb]) & M
        elif op == _OP_ADDI:
            value = (a + immM) & M
        elif op == _OP_XOR:
            value = a ^ sym[rb]
        elif op == _OP_AND:
            value = a & sym[rb]
        elif op == _OP_OR:
            value = a | sym[rb]
        elif op == _OP_SUB:
            value = (a - sym[rb]) & M
        elif op == _OP_SRL:
            value = a >> (sym[rb] & 31)
        elif op == _OP_SLL:
            value = (a << (sym[rb] & 31)) & M
        elif op == _OP_SRLI:
            value = a >> (imm & 31)
        elif op == _OP_SLLI:
            value = (a << (imm & 31)) & M
        elif op == _OP_ANDI:
            value = a & immM
        elif op == _OP_ORI:
            value = a | immM
        elif op == _OP_XORI:
            value = a ^ immM
        elif op == _OP_SLTU:
            value = _bool01(a < sym[rb])
        elif op == _OP_SLT:
            value = _bool01(_sgn_v(a) < _sgn_v(sym[rb]))
        elif op == _OP_SLTI:
            value = _bool01(_sgn_v(a) < imm)
        elif op == _OP_SLTIU:
            value = _bool01(a < immM)
        elif op == _OP_SRA:
            value = _u64((_sgn_v(a) >> _sh31(sym[rb])) & M)
        elif op == _OP_SRAI:
            value = _u64((_sgn_v(a) >> (imm & 31)) & M)
        elif op == _OP_LI:
            value = immM
        elif op == _OP_MV:
            value = a
        elif op == _OP_NOP:
            return
        elif op == _OP_MUL:
            value = (a * sym[rb]) & M
        elif op == _OP_MULH:
            value = _u64((_sgn_v(a) * _sgn_v(sym[rb]) >> 32) & M)
        elif op == _OP_CNT:
            value = _popcount_v(a)
        elif op == _OP_EXTRACTU or op == _OP_UBFX:
            value = (a >> imm) & ((1 << imm2) - 1)
        elif op == _OP_INSERT or op == _OP_BFI:
            mask = ((1 << imm2) - 1) << imm
            value = (sym[rd] & (~mask & M)) | ((a << imm) & mask)
        elif op == _OP_LW or op == _OP_LBU or op == _OP_LHU:
            value = self._load((a + immM) & M, _MEM_WIDTH[op])
        elif op == _OP_LW_POST:
            value = self._load(a, 4)
            # Value first, post-increment second: when rd == ra the
            # increment overwrites the load, as in the oracle.
            if rd:
                sym[rd] = value
            if ra:
                sym[ra] = (a + immM) & M
            return
        elif op == _OP_SW or op == _OP_SB or op == _OP_SH:
            self._store((a + immM) & M, sym[rd] if rd else 0, _MEM_WIDTH[op])
            return
        elif op == _OP_SW_POST:
            self._store(a, sym[rd] if rd else 0, 4)
            if ra:
                sym[ra] = (a + immM) & M
            return
        else:  # pragma: no cover - parse rejects control opcodes
            raise _Bail
        if rd:
            sym[rd] = value

    def commit(self) -> None:
        """Apply all deferred effects; only called when no bail fired."""
        core = self.core
        lmem: LanedMemory = self.memory
        for lo, hi, addr, value, width, stride in self.stores:
            if isinstance(addr, np.ndarray):
                is_l1, base = lmem.locate(lo, hi)
                lmem.scatter_cols(
                    _columns(addr, lo, base, width, stride),
                    value, width, is_l1, lo - base, hi - base,
                )
            else:
                lmem.store_scalar(addr, value, width)
        regs = core.regs
        # Only body-written registers can have changed in sym; values
        # uniform across lanes (every value, with one lane) collapse
        # back to ints.
        for reg in self.plan.written_regs:
            if not reg:
                continue
            value = self.sym[reg]
            if isinstance(value, _Reduction):
                value = value.fold()
            elif isinstance(value, np.ndarray) and value.ndim == 2:
                value = value[-1]
            if isinstance(value, np.ndarray):
                if value.shape[0] == 1:
                    regs[reg] = int(value[0])
                else:
                    uniform = _uniform_int(value)
                    regs[reg] = (
                        value.astype(np.uint64) if uniform is None
                        else uniform
                    )
            else:
                regs[reg] = value
        core.cycles += self.base_cycles + lmem.bulk_stalls(
            self.n_l1, self.n_l2
        )
        core.instr_count += self.n_instr


# ---------------------------------------------------------------------------
# The one dispatch loop.
# ---------------------------------------------------------------------------


class DispatchCore:
    """Mixin providing the single block-dispatch loop for both engines.

    Subclasses supply the state attributes (``compiled``, ``regs``,
    ``cycles``, ``instr_count``, ``pc``, ``_loop_stack``,
    ``_disabled_plans``, ``max_instructions``, ``dma``, ``profile``,
    and ``lmem``, the :class:`LanedMemory` vector passes run over)
    plus the per-engine hooks documented in the module docstring.
    """

    __slots__ = ()

    # -- vectorized loop engagement ----------------------------------------

    def _try_vector(self, plan, trips: int) -> bool:
        """Vector-execute ``plan``; True on success, False on bail."""
        if trips < 1 or trips > MAX_VECTOR_TRIPS:
            _record_bail(plan, REASON_TRIP_COUNT_RANGE)
            return False
        try:
            run = _VectorRun(self, plan, trips)
            run.run_nodes(plan.exec_nodes)
            if plan.kind == "branch":
                taken = 1 + self.profile.branch_taken_penalty
                not_taken = 1 + self.profile.branch_not_taken_penalty
                run.n_instr += trips
                run.base_cycles += (trips - 1) * taken + not_taken
                if run.n_instr > run.budget:
                    _record_bail(plan, REASON_INSTRUCTION_CAP)
                    return False
        except _Bail as bail:
            _record_bail(plan, bail.reason)
            return False
        run.commit()
        _TELEMETRY["engaged"][(plan.kind, plan.head)] += 1
        _TELEMETRY["trips"][(plan.kind, plan.head)] += trips
        return True

    # -- the dispatch loop -------------------------------------------------

    def dispatch_segment(self) -> str:
        """Execute until barrier or halt; the one loop both engines run."""
        comp = self.compiled
        decoded = comp.decoded
        regs = self.regs
        profile = self.profile
        taken = 1 + profile.branch_taken_penalty
        not_taken = 1 + profile.branch_not_taken_penalty
        jump_cost = profile.jump_cycles
        n_instrs = comp.n_instrs
        loop_stack = self._loop_stack
        disabled = self._disabled_plans
        pc = self.pc

        while True:
            if pc >= n_instrs:
                self._fault_pc_overrun(pc)

            plan = comp.branch_plans.get(pc)
            if (
                plan is not None
                and pc not in disabled
                and len(loop_stack) + plan.hw_depth <= 2
                # An enclosing hardware loop whose end boundary falls
                # inside the region would fire back-edges mid-loop; let
                # the block path reproduce that exactly.
                and not (
                    loop_stack
                    and plan.head <= loop_stack[-1][1] <= plan.branch_pc
                )
            ):
                ins = decoded[plan.branch_pc]
                op, ra, rb = ins[0], ins[2], ins[3]
                trips = None
                ra_step = plan.inductions.get(ra)
                if ra_step is None and (
                    ra == 0 or ra not in plan.written_regs
                ):
                    ra_step = 0
                if ra_step is not None and (
                    rb == 0 or rb not in plan.written_regs
                ):
                    a0 = self._uniform_reg(ra)
                    b0 = self._uniform_reg(rb)
                    if a0 is not None and b0 is not None:
                        trips = _solve_branch_trips(
                            op, a0, ra_step, b0,
                            op in (_OP_BLT, _OP_BGE),
                        )
                if trips is None:
                    _record_bail(plan, REASON_TRIP_UNSOLVABLE)
                elif self._try_vector(plan, trips):
                    last_pc = plan.branch_pc
                    next_pc = plan.exit_pc
                    if loop_stack:
                        top = loop_stack[-1]
                        if next_pc == top[1] and top[0] <= last_pc < top[1]:
                            top[2] -= 1
                            if top[2] > 0:
                                next_pc = top[0]
                            else:
                                loop_stack.pop()
                    regs[0] = 0
                    pc = next_pc
                    continue
                disabled.add(pc)

            block = self._fetch_block(pc)
            needed = block.n_straight + (
                0 if block.terminator is None else 1
            )
            if self._over_cap(needed):
                return self._cap_handoff(pc)
            if block.n_straight:
                self._exec_straight(block)

            tpc = block.terminator
            if tpc is None:
                last_pc = block.end - 1
                next_pc = block.end
            else:
                last_pc = tpc
                next_pc = tpc + 1
                ins = decoded[tpc]
                op, rd, ra, rb = ins[0], ins[1], ins[2], ins[3]
                target = ins[6]
                self.instr_count += 1
                if op in _BRANCH_OPS:
                    next_pc = self._branch_next(
                        op, ra, rb, target, next_pc, taken, not_taken
                    )
                elif op == _OP_J:
                    next_pc = target
                    self.cycles += jump_cost
                elif op == _OP_JAL:
                    regs[rd if rd else 1] = next_pc
                    next_pc = target
                    self.cycles += jump_cost
                elif op == _OP_JR:
                    next_pc = self._jr_target(ra)
                    self.cycles += jump_cost
                elif op == _OP_LPSETUP:
                    self.cycles += 1
                    trips = self._lpsetup_trips(ra)
                    if trips == 0:
                        next_pc = target
                    else:
                        if len(loop_stack) >= 2:
                            self._fault_loop_nesting()
                        hw_plan = comp.hw_plans.get(tpc)
                        if (
                            hw_plan is not None
                            and tpc not in disabled
                            and len(loop_stack) + hw_plan.hw_depth <= 2
                            and self._try_vector(hw_plan, trips)
                        ):
                            # The final trip's own back-edge consumed
                            # the boundary check, so no enclosing-loop
                            # check happens here — exactly as the
                            # oracle.
                            regs[0] = 0
                            pc = hw_plan.exit_pc
                            continue
                        if hw_plan is not None:
                            disabled.add(tpc)
                        loop_stack.append([tpc + 1, target, trips])
                elif op == _OP_BARRIER:
                    self.cycles += 1
                    self.pc = next_pc
                    return STOP_BARRIER
                elif op == _OP_HALT:
                    self.cycles += 1
                    self.pc = tpc
                    return STOP_HALT
                elif op == _OP_DMA_COPY:
                    if self.dma is None:
                        self._fault_no_dma("dma.copy")
                    self.dma.enqueue(
                        src=regs[ra], dst=regs[rb], size=regs[rd],
                        issue_cycle=self.cycles,
                    )
                    self.cycles += profile.dma_setup_cycles
                elif op == _OP_DMA_WAIT:
                    if self.dma is None:
                        self._fault_no_dma("dma.wait")
                    self._dma_wait()
                else:
                    self._fault_unknown_terminator(op)

            if loop_stack:
                top = loop_stack[-1]
                if next_pc == top[1] and top[0] <= last_pc < top[1]:
                    top[2] -= 1
                    if top[2] > 0:
                        next_pc = top[0]
                    else:
                        loop_stack.pop()

            regs[0] = 0
            pc = next_pc
