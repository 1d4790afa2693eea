"""Window-laned lockstep execution: one program, N memory images.

The batched-window driver (:meth:`repro.kernels.chain.HDChainSimulator.
run_window_levels_batch`) re-runs the *same* programs per window; only
the descriptor table — and therefore the data flowing through the
kernels — differs.  The kernels' control flow is counter-driven, so N
windows execute the identical instruction trace in lockstep.  This
module exploits that: it runs each program **once** over N per-window
memory images (:class:`~repro.pulp.dispatch.LanedMemory`), carrying
every register as either a plain int (uniform across windows) or a
length-N lane array.  A vectorized loop then runs as one numpy pass
over ``(trips, windows)`` arrays, which is where the batched driver's
speed-up comes from.

The dispatch loop and the loop vectorizer are **shared with the scalar
engine**: both live once in :mod:`repro.pulp.dispatch`, and
:class:`~repro.pulp.fastpath.FastCore` is their one-lane case.
:class:`_LaneCore` is the N-lane instantiation of
:class:`~repro.pulp.dispatch.DispatchCore`; what this module adds on
top is purely the lane dimension:

* per-engine hooks that collapse lane values to solver operands
  (``_uniform_int``), execute straight blocks over laned memory, and
  turn every unsupported situation into a :class:`LockstepBail`
  instead of an error;
* **predicated execution** of short, pure-ALU forward branches
  (``_predicate_branch``): when a branch outcome diverges between
  windows — the AM argmin epilogue's ``bgeu``/``mv``/``li`` pattern —
  the skipped body runs once over the lane arrays and every written
  register is merged back with a per-lane select, while ``cycles``
  and ``instr_count`` continue as per-lane arrays.  Data-divergent
  compares therefore no longer force a bail-out to N sequential
  runs, which is what lets the whole AM search run laned;
* :class:`LockstepSession`, which stages N lane images once and runs
  several programs back to back over them (encode then AM in the
  chain driver), returning *per-lane* :class:`ClusterRunResult`\\ s.

Exactness contract: per-window architectural results (memory images,
cycles, instruction counts, DMA bytes, barrier structure) are
identical to N sequential runs.  Everything the lane model cannot
reproduce bit-exactly — a divergent branch with an ineligible body, a
divergent hardware-loop trip count, lane-varying store addresses, any
access the memory model rejects — raises :class:`LockstepBail`
*before any caller-visible state is touched* (the engine mutates only
its own image stack), and the caller falls back to the sequential
per-window path.  The differential suite in
``tests/kernels/test_chain_batch.py`` pins the equivalence over
engine × strategy × core-count grids.

Cycle accounting mirrors the scalar engine: base costs are folded per
segment, memory stalls are totalled through the same closed-form
accumulator (:meth:`MemorySystem.bulk_stalls`, one private copy per
session, because every lane's access trace is identical — the
predicated bodies are pure ALU, so lane-divergent paths never touch
it), and DMA timing runs the same busy-until clock with only the
*payload* differing per lane.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .assembler import CORE_ID_REG, N_CORES_REG, Program
from .cluster import ClusterRunResult
from .core import STOP_HALT
from .dispatch import (
    LS_BLOCK_ADDRESS_SHAPE,
    LS_DIVERGENT_BRANCH,
    LS_DIVERGENT_DMA,
    LS_DIVERGENT_JUMP,
    LS_DIVERGENT_STORE_ADDRESS,
    LS_DIVERGENT_TRIP_COUNT,
    LS_DMA_ERROR,
    LS_INSTRUCTION_CAP,
    LS_LOOP_NESTING,
    LS_MID_BLOCK_ENTRY,
    LS_PC_OVERRUN,
    LS_PREDICATED_MEMORY,
    LS_STOP_DISAGREEMENT,
    LS_UNKNOWN_TERMINATOR,
    DispatchCore,
    LaneImage,
    LanedMemory,
    LockstepBail,
    _LOAD_OPS,
    _MASK32,
    _STORE_OPS,
    _base_cost,
    _compile_seg,
    _cond_v,
    _reads_writes,
    _seg_noop,
    _uniform_int,
)
from .fastpath import compile_program


def _lane64(value, n_lanes: int) -> np.ndarray:
    """Broadcast a register value to a (n,) uint64 lane array."""
    if isinstance(value, np.ndarray):
        return value
    return np.full(n_lanes, value, dtype=np.uint64)


def _pred_no_load(addr, width):  # pragma: no cover - guarded by _pred_entry
    raise LockstepBail(LS_PREDICATED_MEMORY)


def _pred_no_store(addr, value, width):  # pragma: no cover - see above
    raise LockstepBail(LS_PREDICATED_MEMORY)


_LOCKSTEP_TELEMETRY = {
    "attempts": 0,
    "runs": 0,
    "lanes": 0,
    # divergent branches executed predicated instead of bailing
    "predicated": 0,
    "bails": Counter(),
}


def lockstep_telemetry() -> dict:
    """Snapshot of the lockstep engine's attempt/bail counters."""
    return {
        "attempts": _LOCKSTEP_TELEMETRY["attempts"],
        "runs": _LOCKSTEP_TELEMETRY["runs"],
        "lanes": _LOCKSTEP_TELEMETRY["lanes"],
        "predicated": _LOCKSTEP_TELEMETRY["predicated"],
        "bails": dict(_LOCKSTEP_TELEMETRY["bails"]),
    }


def reset_lockstep_telemetry() -> None:
    """Zero the lockstep counters (start of a measured run)."""
    _LOCKSTEP_TELEMETRY["attempts"] = 0
    _LOCKSTEP_TELEMETRY["runs"] = 0
    _LOCKSTEP_TELEMETRY["lanes"] = 0
    _LOCKSTEP_TELEMETRY["predicated"] = 0
    _LOCKSTEP_TELEMETRY["bails"].clear()


class _LanedDMA:
    """Busy-until DMA clock shared by all lanes (sizes are uniform)."""

    __slots__ = ("_lmem", "_bytes_per_cycle", "busy_until", "total_bytes")

    def __init__(self, lmem: LanedMemory, bytes_per_cycle: int):
        self._lmem = lmem
        self._bytes_per_cycle = bytes_per_cycle
        self.busy_until = 0
        self.total_bytes = 0

    def enqueue(self, src, dst, size, issue_cycle) -> None:
        dst = _uniform_int(dst)
        size = _uniform_int(size)
        if isinstance(issue_cycle, np.ndarray):
            # Lane-divergent issue cycles (predicated epilogue before a
            # DMA) would need a per-lane busy-until clock; bail instead.
            issue_cycle = _uniform_int(issue_cycle)
            if issue_cycle is None:
                raise LockstepBail(LS_DIVERGENT_DMA)
        if dst is None or size is None:
            raise LockstepBail(LS_DIVERGENT_DMA)
        if size < 0:
            raise LockstepBail(LS_DMA_ERROR)
        self._lmem.dma_copy(src, dst, size)
        start = max(self.busy_until, issue_cycle)
        self.busy_until = start + -(-size // self._bytes_per_cycle)
        self.total_bytes += size


class _LaneCore(DispatchCore):
    """Per-core lockstep state: one trace, N lanes of data.

    The laned instantiation of
    :class:`repro.pulp.dispatch.DispatchCore`: the dispatch loop is
    inherited, and the hooks below supply lane semantics — uniformity
    proofs where the loop needs a scalar (trip counts, jump targets),
    :class:`LockstepBail` on anything the lane model cannot reproduce,
    and predicated execution of short divergent forward branches.
    ``cycles`` and ``instr_count`` start as plain ints and are promoted
    to per-lane ``(n,)`` arrays by the first predicated branch.
    """

    __slots__ = (
        "core_id",
        "profile",
        "compiled",
        "lmem",
        "dma",
        "n_lanes",
        "regs",
        "cycles",
        "instr_count",
        "pc",
        "_loop_stack",
        "max_instructions",
        "_disabled_plans",
        "_block_cache",
        "_pred_cache",
    )

    def __init__(
        self,
        core_id: int,
        profile,
        compiled,
        lmem: LanedMemory,
        dma: Optional[_LanedDMA],
        n_cores: int,
        fork_cycles: int,
        block_cache: dict,
        pred_cache: dict,
        max_instructions: int,
    ):
        self.core_id = core_id
        self.profile = profile
        self.compiled = compiled
        self.lmem = lmem
        self.dma = dma
        self.n_lanes = lmem.n_lanes
        self.regs: List = [0] * 32
        self.regs[CORE_ID_REG] = core_id
        self.regs[N_CORES_REG] = n_cores
        self.cycles = fork_cycles
        self.instr_count = 0
        self.pc = 0
        self._loop_stack: list = []
        self.max_instructions = max_instructions
        self._disabled_plans: set = set()
        self._block_cache = block_cache
        self._pred_cache = pred_cache

    # -- straight-line blocks ---------------------------------------------

    def _block_entry(self, start: int, n_straight: int):
        entry = self._block_cache.get(start)
        if entry is None:
            decoded = self.compiled.decoded
            prepared = []
            cost = 0
            for pc in range(start, start + n_straight):
                ins = decoded[pc]
                op = ins[0]
                prepared.append(
                    (
                        op, ins[1], ins[2], ins[3], ins[4],
                        ins[4] & _MASK32, ins[5], None,
                    )
                )
                cost += _base_cost(op, self.profile)
            closure = _compile_seg(tuple(prepared)) or _seg_noop
            entry = (closure, cost)
            self._block_cache[start] = entry
        return entry

    def _run_block(self, start: int, n_straight: int) -> None:
        closure, cost = self._block_entry(start, n_straight)
        lmem = self.lmem
        counts = [0, 0]  # [l2, l1] accesses

        def load(addr, width):
            if isinstance(addr, np.ndarray):
                if addr.ndim != 1:
                    raise LockstepBail(LS_BLOCK_ADDRESS_SHAPE)
                value, is_l1 = lmem.load_lanes(addr, width)
            else:
                value, is_l1 = lmem.load_scalar(int(addr), width)
            counts[is_l1] += 1
            return value

        def store(addr, value, width):
            uniform = _uniform_int(addr) if isinstance(
                addr, np.ndarray
            ) else int(addr)
            if uniform is None:
                raise LockstepBail(LS_DIVERGENT_STORE_ADDRESS)
            counts[lmem.store_scalar(uniform, value, width)] += 1

        regs = self.regs
        closure(regs, load, store, 1)
        regs[0] = 0
        self.instr_count += n_straight
        self.cycles += cost + lmem.bulk_stalls(counts[1], counts[0])

    # -- dispatch-loop hooks (laned instantiation) -------------------------
    #
    # The loop itself is DispatchCore.dispatch_segment; every hook that
    # needs a lane-uniform scalar proves uniformity (or bails), and
    # every scalar-engine fault becomes a LockstepBail so the caller
    # falls back to exact per-window runs.

    def _fetch_block(self, pc: int):
        block = self.compiled.blocks.get(pc)
        if block is None:
            raise LockstepBail(LS_MID_BLOCK_ENTRY)
        return block

    def _uniform_reg(self, reg: int):
        return _uniform_int(self.regs[reg]) if reg else 0

    def _over_cap(self, needed: int) -> bool:
        instr_count = self.instr_count
        if isinstance(instr_count, np.ndarray):
            instr_count = int(instr_count.max())
        return instr_count + needed > self.max_instructions

    def _cap_handoff(self, pc: int):
        raise LockstepBail(LS_INSTRUCTION_CAP)

    def _exec_straight(self, block) -> None:
        self._run_block(block.start, block.n_straight)

    def _branch_next(
        self, op, ra, rb, target, fallthrough, taken, not_taken
    ):
        regs = self.regs
        cond = _cond_v(
            op, regs[ra] if ra else 0, regs[rb] if rb else 0
        )
        if isinstance(cond, np.ndarray):
            if cond.all():
                hit = True
            elif not cond.any():
                hit = False
            else:
                return self._predicate_branch(
                    cond, target, fallthrough, taken, not_taken
                )
        else:
            hit = bool(cond)
        if hit:
            self.cycles += taken
            return target
        self.cycles += not_taken
        return fallthrough

    def _jr_target(self, ra: int):
        next_pc = _uniform_int(self.regs[ra])
        if next_pc is None:
            raise LockstepBail(LS_DIVERGENT_JUMP)
        return next_pc

    def _lpsetup_trips(self, ra: int) -> int:
        trips = _uniform_int(self.regs[ra]) if ra else 0
        if trips is None:
            raise LockstepBail(LS_DIVERGENT_TRIP_COUNT)
        return trips

    def _dma_wait(self) -> None:
        cycles = self.cycles
        if isinstance(cycles, np.ndarray):
            self.cycles = np.maximum(cycles + 1, self.dma.busy_until)
        else:
            self.cycles = max(cycles + 1, self.dma.busy_until)

    def _fault_pc_overrun(self, pc: int):
        raise LockstepBail(LS_PC_OVERRUN)

    def _fault_loop_nesting(self):
        raise LockstepBail(LS_LOOP_NESTING)

    def _fault_no_dma(self, what: str):
        raise LockstepBail(LS_DMA_ERROR)

    def _fault_unknown_terminator(self, op: int):
        raise LockstepBail(LS_UNKNOWN_TERMINATOR)

    # -- predicated divergent branches -------------------------------------

    def _pred_entry(self, fallthrough: int, target: int):
        """Eligibility of the branch body [fallthrough, target) for
        predicated execution, memoized per branch.

        Eligible means: a short *forward* skip over exactly one
        fall-through block (no terminator, ends at the branch target)
        containing only pure-ALU instructions — no memory accesses, so
        skipping it has no effect on the shared stall accumulator and
        per-lane state reduces to the written registers, ``cycles``,
        and ``instr_count``.  Returns ``(closure, n_body, body_cost,
        written_regs)`` or ``None``.
        """
        entry = self._pred_cache.get(fallthrough, False)
        if entry is not False:
            return entry
        entry = None
        if target > fallthrough:
            block = self.compiled.blocks.get(fallthrough)
            if (
                block is not None
                and block.terminator is None
                and block.end == target
                and block.n_straight == target - fallthrough
            ):
                decoded = self.compiled.decoded
                prepared = []
                cost = 0
                written: List[int] = []
                for pc in range(fallthrough, target):
                    ins = decoded[pc]
                    op = ins[0]
                    if op in _LOAD_OPS or op in _STORE_OPS:
                        prepared = None
                        break
                    prepared.append(
                        (
                            op, ins[1], ins[2], ins[3], ins[4],
                            ins[4] & _MASK32, ins[5], None,
                        )
                    )
                    cost += _base_cost(op, self.profile)
                    for reg in _reads_writes(ins)[1]:
                        if reg and reg not in written:
                            written.append(reg)
                if prepared is not None:
                    closure = _compile_seg(tuple(prepared)) or _seg_noop
                    entry = (
                        closure,
                        target - fallthrough,
                        cost,
                        tuple(written),
                    )
        self._pred_cache[fallthrough] = entry
        return entry

    def _predicate_branch(
        self, cond, target, fallthrough, taken, not_taken
    ):
        """Execute a lane-divergent forward branch with per-lane selects.

        Lanes where ``cond`` holds take the branch and skip the body;
        the others fall through and execute it.  The body runs once
        over the lane arrays, each written register is merged back with
        ``np.where``, and ``cycles`` / ``instr_count`` pick up per-lane
        charges — bit/cycle-exact against per-window scalar runs
        because the body is pure ALU (no memory order, no stalls).
        """
        entry = self._pred_entry(fallthrough, target)
        loop_stack = self._loop_stack
        if entry is None or (loop_stack and target == loop_stack[-1][1]):
            # Ineligible body, or the skip lands on an active hardware
            # loop boundary (back-edge bookkeeping would diverge).
            raise LockstepBail(LS_DIVERGENT_BRANCH)
        closure, n_body, body_cost, written = entry
        instr_count = self.instr_count
        instr_hi = (
            int(instr_count.max())
            if isinstance(instr_count, np.ndarray)
            else instr_count
        )
        if instr_hi + n_body > self.max_instructions:
            raise LockstepBail(LS_INSTRUCTION_CAP)
        regs = self.regs
        n = self.n_lanes
        old = [regs[reg] for reg in written]
        closure(regs, _pred_no_load, _pred_no_store, 1)
        for reg, old_value in zip(written, old):
            merged = np.where(
                cond, _lane64(old_value, n), _lane64(regs[reg], n)
            )
            uniform = _uniform_int(merged)
            regs[reg] = merged if uniform is None else uniform
        regs[0] = 0
        self.cycles = self.cycles + np.where(
            cond, taken, not_taken + body_cost
        )
        self.instr_count = instr_count + np.where(cond, 0, n_body)
        _LOCKSTEP_TELEMETRY["predicated"] += 1
        return target


def _lane_val(value, lane: int) -> int:
    """Collapse a lane-or-uniform cycle/instr value to lane's scalar."""
    if isinstance(value, np.ndarray):
        return int(value[lane])
    return int(value)


class LockstepSession:
    """N staged lane images, ready to run programs in lockstep.

    The chain driver stages each window's descriptor table once and
    then runs *both* programs (encode, then AM search) over the same
    lane images — data written by one program (the encoded query
    vectors) is visible to the next, exactly as on real memory.

    ``lane_writes`` supplies each lane's pre-run staging (address,
    bytes).  The images start from the cluster's *current* memory; the
    cluster itself is never mutated.  ``footprint`` — ``(l1_bytes,
    l2_bytes)`` — stages only that prefix of each region per lane (see
    :class:`~repro.pulp.dispatch.LanedMemory`); a program reaching past
    it bails with ``address-range``.  :meth:`run` returns **per-lane**
    :class:`ClusterRunResult`\\ s (cycles and instruction counts may
    diverge between lanes once a predicated branch runs), or raises
    :class:`LockstepBail` — the caller then falls back to per-window
    scalar runs.
    """

    def __init__(
        self,
        cluster,
        lane_writes: Sequence[Sequence[Tuple[int, bytes]]],
        footprint: Optional[Tuple[int, int]] = None,
    ):
        self.cluster = cluster
        self.n_lanes = len(lane_writes)
        self.lmem = LanedMemory(cluster.memory, self.n_lanes, footprint)
        for lane, writes in enumerate(lane_writes):
            for addr, data in writes:
                self.lmem.write_lane_bytes(lane, addr, data)

    def run(
        self, program: Program, add_runtime_overheads: bool = True
    ) -> List[ClusterRunResult]:
        """Run ``program`` once per lane over the staged images."""
        from .runtime import runtime_costs

        cluster = self.cluster
        if program.profile_name != cluster.profile.name:
            raise ValueError(
                f"program was assembled for {program.profile_name!r}, "
                f"cluster is {cluster.profile.name!r}"
            )
        profile = cluster.profile
        lmem = self.lmem
        _LOCKSTEP_TELEMETRY["attempts"] += 1
        try:
            compiled = compile_program(program, profile)
            # Fresh-run semantics per program, mirroring Cluster.run:
            # conflict accumulator reset + fresh DMA engine.
            lmem.set_team_size(cluster.n_cores)
            dma = _LanedDMA(lmem, profile.dma_bytes_per_cycle)
            costs = (
                runtime_costs(profile, cluster.n_cores)
                if add_runtime_overheads
                else None
            )
            fork = costs.fork if costs else 0
            join = costs.join if costs else 0
            barrier_cost = costs.barrier if costs else 0
            block_cache: dict = {}
            pred_cache: dict = {}
            states = [
                _LaneCore(
                    core_id,
                    profile,
                    compiled,
                    lmem,
                    dma,
                    cluster.n_cores,
                    fork,
                    block_cache,
                    pred_cache,
                    cluster.cores[core_id].max_instructions,
                )
                for core_id in range(cluster.n_cores)
            ]

            n_barriers = 0
            barrier_cycles_total = 0
            while True:
                reasons = [
                    state.dispatch_segment() for state in states
                ]
                if all(reason == STOP_HALT for reason in reasons):
                    break
                if any(reason == STOP_HALT for reason in reasons):
                    raise LockstepBail(LS_STOP_DISAGREEMENT)
                n_barriers += 1
                synced = states[0].cycles
                for state in states[1:]:
                    synced = np.maximum(synced, state.cycles)
                synced = synced + barrier_cost
                barrier_cycles_total += barrier_cost
                for state in states:
                    # Per-state copies: later in-place `+=` on a shared
                    # lane array would corrupt the other cores.
                    state.cycles = (
                        synced.copy()
                        if isinstance(synced, np.ndarray)
                        else int(synced)
                    )

            results = []
            for lane in range(self.n_lanes):
                per_core_cycles = tuple(
                    _lane_val(state.cycles, lane) for state in states
                )
                results.append(
                    ClusterRunResult(
                        program_name=program.name,
                        n_cores=cluster.n_cores,
                        total_cycles=max(per_core_cycles) + join,
                        per_core_cycles=per_core_cycles,
                        per_core_instrs=tuple(
                            _lane_val(state.instr_count, lane)
                            for state in states
                        ),
                        n_barriers=n_barriers,
                        fork_cycles=fork,
                        join_cycles=join,
                        barrier_cycles=barrier_cycles_total,
                        dma_bytes=dma.total_bytes,
                    )
                )
        except LockstepBail as bail:
            _LOCKSTEP_TELEMETRY["bails"][bail.reason] += 1
            raise
        _LOCKSTEP_TELEMETRY["runs"] += 1
        _LOCKSTEP_TELEMETRY["lanes"] += self.n_lanes
        return results

    def read_word(self, lane: int, addr: int) -> int:
        """Read one 32-bit word from a lane's current image."""
        return self.lmem.read_lane_word(lane, addr)

    def lane_image(self, lane: int) -> LaneImage:
        """Snapshot a lane's current memory image."""
        return self.lmem.lane_image(lane)
