"""Compile side of the ISS fast path, and its one-lane engine.

The per-instruction interpreter in :mod:`repro.pulp.core` is the
reference oracle; :class:`FastCore` is the production engine.  It
executes the same pre-decoded programs with identical architectural
results (registers, memory, ``cycles``, ``instr_count``) through two
accelerating layers, both prepared here once per (program, profile):

1. **Block compilation** — the program is split into basic blocks
   (:func:`repro.pulp.assembler.basic_blocks`); each straight-line block
   is compiled once into a single Python closure with its constant cycle
   cost folded in, so the dispatch loop pays per *block* instead of per
   instruction.  Control flow, synchronization, and DMA remain
   interpreted at block boundaries, mirroring the oracle exactly.

2. **Loop vectorization** — the regular SPMD word loops the kernels emit
   (``lp.setup`` bodies and backward-branch self-loops whose memory
   accesses are strided and whose control flow is trip-count-only) are
   recognized at compile time and lowered to :class:`LoopPlan`\\ s.  At
   run time all trips execute as one batched NumPy pass through the one
   vectorizer, :class:`repro.pulp.dispatch._VectorRun`: registers become
   lane arrays over the trip space, loads and stores become gathers and
   scatters, reductions fold in closed form, and cycle/stall totals are
   computed in closed form.  Nested inner loops with lane-invariant
   trip counts are unrolled inside the pass, which is what lets the
   three-level bit-serial majority nests vectorize whole.

Whenever a loop does anything the vector model cannot reproduce
bit-exactly (cross-lane aliasing, lane-divergent control flow, region
straddling, duplicate store addresses, nesting-depth violations, runaway
trip counts), the pass *bails out before any state is mutated* and the
loop runs through the block path instead — so the fast path is total:
every program executes, and executes identically to the oracle.

**The one-lane case.**  The dispatch loop and the vector pass live once,
in :mod:`repro.pulp.dispatch`, and the window-laned lockstep engine
(:mod:`repro.pulp.lockstep`) runs them over N lanes.  :class:`FastCore`
runs them over one: its vector passes work on a zero-copy one-lane
:class:`~repro.pulp.dispatch.LanedMemory` view of the cluster's own
:class:`~repro.pulp.memory.MemorySystem` (stores land in the cluster's
bytes, stalls advance the cluster's accumulator, committed values
collapse back to ints).  Its hook overrides read registers as plain
ints, synthesize sub-blocks for computed jumps into block interiors,
raise :class:`~repro.pulp.core.ExecutionError` on faults, and hand off
to the interpreter at the instruction cap.

Differential parity is enforced by ``tests/pulp/test_fastpath*.py``:
random-program fuzzing plus every kernel × profile × core-count
configuration, comparing registers, memory images, cycles, and
instruction counts between the fast path and the interpreter.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .assembler import Program
from .core import (
    ExecutionError,
    Core,
    _signed,
    predecode,
)
# The opcode tables, reason vocabulary, telemetry counters, the vector
# pass, and the one dispatch loop live in repro.pulp.dispatch (shared
# with the lockstep engine).
from .dispatch import (
    DispatchCore,
    LanedMemory,
    REASON_CARRIED_REGISTER,
    REASON_LOOP_DEPTH,
    REASON_REDUCTION_IN_CONDITION,
    _Bail,
    _BRANCH_OPS,
    _MASK32,
    _MEMO_LIMIT,
    _OP_ADD,
    _OP_ADDI,
    _OP_AND,
    _OP_ANDI,
    _OP_BARRIER,
    _OP_BEQ,
    _OP_BFI,
    _OP_BGEU,
    _OP_BLT,
    _OP_BLTU,
    _OP_BNE,
    _OP_CNT,
    _OP_DMA_COPY,
    _OP_DMA_WAIT,
    _OP_EXTRACTU,
    _OP_HALT,
    _OP_INSERT,
    _OP_J,
    _OP_JAL,
    _OP_JR,
    _OP_LBU,
    _OP_LHU,
    _OP_LI,
    _OP_LPSETUP,
    _OP_LW,
    _OP_LW_POST,
    _OP_MUL,
    _OP_MULH,
    _OP_MV,
    _OP_NOP,
    _OP_OR,
    _OP_ORI,
    _OP_SB,
    _OP_SH,
    _OP_SLL,
    _OP_SLLI,
    _OP_SLT,
    _OP_SLTI,
    _OP_SLTIU,
    _OP_SLTU,
    _OP_SRA,
    _OP_SRAI,
    _OP_SRL,
    _OP_SRLI,
    _OP_SUB,
    _OP_SW,
    _OP_SW_POST,
    _OP_UBFX,
    _OP_XOR,
    _OP_XORI,
    _REDUCIBLE_OPS,
    _TELEMETRY,
    _accesses_disjoint,  # noqa: F401 - re-exported for callers
    _base_cost,
    _reads_writes,
)
from .isa import ArchProfile


# ---------------------------------------------------------------------------
# Block compilation: one Python closure per straight-line block.
# ---------------------------------------------------------------------------


#: Memo of compiled straight-line closures keyed by (profile name,
#: decoded instruction tuples).  Kernel generators rebuild structurally
#: identical programs for every machine configuration, so identical
#: blocks recur often and exec() is by far the dominant compile cost.
#: Cleared wholesale at _MEMO_LIMIT entries, like every engine memo.
_STRAIGHT_MEMO: Dict[tuple, object] = {}


def _compile_straight(decoded, start: int, end: int, profile: ArchProfile):
    """Compile ``decoded[start:end]`` (no control flow) into a closure.

    The closure ``f(regs, mem) -> cycles`` applies all architectural
    effects and returns the segment's cycle cost (constant base cost +
    dynamic memory stalls).  Returns ``None`` for an empty segment.
    """
    if end <= start:
        return None
    memo_key = (profile.name, tuple(decoded[start:end]))
    cached = _STRAIGHT_MEMO.get(memo_key)
    if cached is not None:
        return cached
    lines: List[str] = []
    base = 0
    has_mem = False

    def r(reg: int) -> str:  # read expression
        return "0" if reg == 0 else f"regs[{reg}]"

    for pc in range(start, end):
        ins = decoded[pc]
        op, rd, ra, rb, imm, imm2 = ins[0], ins[1], ins[2], ins[3], ins[4], ins[5]
        base += _base_cost(op, profile)
        dst = f"regs[{rd}]"
        drop = rd == 0  # r0 stays hardwired to zero
        if op == _OP_ADD:
            expr = f"({r(ra)} + {r(rb)}) & M"
        elif op == _OP_SUB:
            expr = f"({r(ra)} - {r(rb)}) & M"
        elif op == _OP_AND:
            expr = f"{r(ra)} & {r(rb)}"
        elif op == _OP_OR:
            expr = f"{r(ra)} | {r(rb)}"
        elif op == _OP_XOR:
            expr = f"{r(ra)} ^ {r(rb)}"
        elif op == _OP_SLL:
            expr = f"({r(ra)} << ({r(rb)} & 31)) & M"
        elif op == _OP_SRL:
            expr = f"{r(ra)} >> ({r(rb)} & 31)"
        elif op == _OP_SRA:
            expr = f"(_sgn({r(ra)}) >> ({r(rb)} & 31)) & M"
        elif op == _OP_SLT:
            expr = f"1 if _sgn({r(ra)}) < _sgn({r(rb)}) else 0"
        elif op == _OP_SLTU:
            expr = f"1 if {r(ra)} < {r(rb)} else 0"
        elif op == _OP_ADDI:
            expr = f"({r(ra)} + {imm}) & M"
        elif op == _OP_ANDI:
            expr = f"{r(ra)} & {imm & _MASK32}"
        elif op == _OP_ORI:
            expr = f"{r(ra)} | {imm & _MASK32}"
        elif op == _OP_XORI:
            expr = f"{r(ra)} ^ {imm & _MASK32}"
        elif op == _OP_SLLI:
            expr = f"({r(ra)} << {imm & 31}) & M"
        elif op == _OP_SRLI:
            expr = f"{r(ra)} >> {imm & 31}"
        elif op == _OP_SRAI:
            expr = f"(_sgn({r(ra)}) >> {imm & 31}) & M"
        elif op == _OP_SLTI:
            expr = f"1 if _sgn({r(ra)}) < {imm} else 0"
        elif op == _OP_SLTIU:
            expr = f"1 if {r(ra)} < {imm & _MASK32} else 0"
        elif op == _OP_LI:
            expr = f"{imm & _MASK32}"
        elif op == _OP_MV:
            expr = r(ra)
        elif op == _OP_NOP:
            continue
        elif op == _OP_MUL:
            expr = f"({r(ra)} * {r(rb)}) & M"
        elif op == _OP_MULH:
            expr = f"((_sgn({r(ra)}) * _sgn({r(rb)})) >> 32) & M"
        elif op == _OP_CNT:
            expr = f'bin({r(ra)}).count("1")'
        elif op in (_OP_EXTRACTU, _OP_UBFX):
            expr = f"({r(ra)} >> {imm}) & {(1 << imm2) - 1}"
        elif op in (_OP_INSERT, _OP_BFI):
            mask = ((1 << imm2) - 1) << imm
            expr = (
                f"({r(rd)} & {~mask & _MASK32}) | "
                f"(({r(ra)} << {imm}) & {mask})"
            )
        elif op in (_OP_LW, _OP_LBU, _OP_LHU):
            fn = {_OP_LW: "load_word", _OP_LBU: "load_byte",
                  _OP_LHU: "load_half"}[op]
            has_mem = True
            lines.append(f"    _v, _s = mem.{fn}(({r(ra)} + {imm}) & M)")
            lines.append("    c += _s")
            if not drop:
                lines.append(f"    {dst} = _v")
            continue
        elif op == _OP_LW_POST:
            has_mem = True
            lines.append(f"    _a = {r(ra)}")
            lines.append("    _v, _s = mem.load_word(_a)")
            lines.append("    c += _s")
            if not drop:
                lines.append(f"    {dst} = _v")
            if ra != 0:
                lines.append(f"    regs[{ra}] = (_a + {imm}) & M")
            continue
        elif op in (_OP_SW, _OP_SB, _OP_SH):
            fn = {_OP_SW: "store_word", _OP_SB: "store_byte",
                  _OP_SH: "store_half"}[op]
            has_mem = True
            lines.append(
                f"    c += mem.{fn}(({r(ra)} + {imm}) & M, {r(rd)})"
            )
            continue
        elif op == _OP_SW_POST:
            has_mem = True
            lines.append(f"    _a = {r(ra)}")
            lines.append(f"    c += mem.store_word(_a, {r(rd)})")
            if ra != 0:
                lines.append(f"    regs[{ra}] = (_a + {imm}) & M")
            continue
        else:  # pragma: no cover - control ops never reach here
            raise ExecutionError(f"control opcode {op} in straight segment")
        if not drop:
            lines.append(f"    {dst} = {expr}")

    header = ["def _blk(regs, mem):"]
    if has_mem:
        header.append("    c = 0")
        lines.append(f"    return c + {base}")
    else:
        lines.append(f"    return {base}")
    src = "\n".join(header + lines)
    namespace = {"M": _MASK32, "_sgn": _signed}
    exec(src, namespace)  # noqa: S102 - compiling our own assembler output
    closure = namespace["_blk"]
    if len(_STRAIGHT_MEMO) >= _MEMO_LIMIT:
        _STRAIGHT_MEMO.clear()
    _STRAIGHT_MEMO[memo_key] = closure
    return closure


_LAZY = object()
"""Sentinel: this block's closure has not been compiled yet."""


@dataclass
class CompiledBlock:
    """One basic block: compiled straight-line prefix + raw terminator."""

    start: int
    end: int
    terminator: Optional[int]
    closure: object  # f(regs, mem) -> cycles, None when empty, or _LAZY
    n_straight: int


# ---------------------------------------------------------------------------
# Fast-path telemetry (debug API).
# ---------------------------------------------------------------------------
#
# Lightweight process-wide counters — a handful of integer increments per
# plan engagement or bail, nothing on the per-instruction path — that make
# kernel-emitter perf regressions visible: a restructured emitter that
# stops vectorizing shows up as a bail reason, not just as a silent
# wall-clock drift.  ``benchmarks/bench_iss_engine.py`` publishes them
# next to the engine speed-up.  The counters themselves live in
# :mod:`repro.pulp.dispatch` (``_TELEMETRY``) so both engines share
# one set; this module provides the snapshot API.


@dataclass(frozen=True)
class FastPathTelemetry:
    """Immutable snapshot of the fast path's engagement counters."""

    engaged: Dict[tuple, int]
    trips: Dict[tuple, int]
    bails: Dict[str, int]
    plan_bails: Dict[tuple, int]
    compile_rejects: Dict[str, int]

    @property
    def total_engagements(self) -> int:
        """Vectorized loop executions across all plans."""
        return sum(self.engaged.values())

    @property
    def total_trips(self) -> int:
        """Loop trips executed through the vector path."""
        return sum(self.trips.values())

    @property
    def total_bails(self) -> int:
        """Vector attempts abandoned to the block path."""
        return sum(self.bails.values())


def fastpath_telemetry() -> FastPathTelemetry:
    """Snapshot the process-wide fast-path counters."""
    return FastPathTelemetry(
        engaged=dict(_TELEMETRY["engaged"]),
        trips=dict(_TELEMETRY["trips"]),
        bails=dict(_TELEMETRY["bails"]),
        plan_bails=dict(_TELEMETRY["plan_bails"]),
        compile_rejects=dict(_TELEMETRY["compile_rejects"]),
    )


def reset_fastpath_telemetry() -> None:
    """Zero all fast-path counters (start of a measured run)."""
    for counter in _TELEMETRY.values():
        counter.clear()


# ---------------------------------------------------------------------------
# Loop structure discovery (compile time).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _InnerHw:
    """A nested hardware loop inside a vectorized region."""

    setup: int
    units: tuple


@dataclass(frozen=True)
class _InnerBranch:
    """A nested backward-branch do-while loop inside a region."""

    units: tuple
    branch: int


def _unit_start(unit) -> int:
    if isinstance(unit, int):
        return unit
    if isinstance(unit, _InnerHw):
        return unit.setup
    return _unit_start(unit.units[0]) if unit.units else unit.branch


def _hw_depth(units) -> int:
    depth = 0
    for unit in units:
        if isinstance(unit, _InnerHw):
            depth = max(depth, 1 + _hw_depth(unit.units))
        elif isinstance(unit, _InnerBranch):
            depth = max(depth, _hw_depth(unit.units))
    return depth


def _parse_region(decoded, lo: int, hi: int) -> tuple:
    """Parse [lo, hi) into a unit tree; raise :class:`_Bail` if the
    region contains control flow beyond nested counted loops."""
    units: List = []
    pending: List[Tuple[int, int, List]] = []  # (setup pc, end pc, units)
    pc = lo
    while pc < hi:
        while pending and pending[-1][1] == pc:
            setup, _, sub = pending.pop()
            target = pending[-1][2] if pending else units
            target.append(_InnerHw(setup=setup, units=tuple(sub)))
        cur = pending[-1][2] if pending else units
        ins = decoded[pc]
        op = ins[0]
        if op == _OP_LPSETUP:
            end = ins[6]
            if not (pc + 1 < end < hi):
                raise _Bail
            pending.append((pc, end, []))
            pc += 1
            continue
        if op in _BRANCH_OPS:
            tgt = ins[6]
            if tgt > pc:
                raise _Bail  # forward (exit) branches unsupported
            if pending and tgt <= pending[-1][0]:
                raise _Bail  # branch crossing a hardware-loop boundary
            sub: List = []
            while cur and _unit_start(cur[-1]) >= tgt:
                sub.append(cur.pop())
            sub.reverse()
            if not sub or _unit_start(sub[0]) != tgt:
                raise _Bail
            cur.append(_InnerBranch(units=tuple(sub), branch=pc))
            pc += 1
            continue
        if op in (_OP_J, _OP_JAL, _OP_JR, _OP_BARRIER, _OP_HALT,
                  _OP_DMA_COPY, _OP_DMA_WAIT):
            raise _Bail
        cur.append(pc)
        pc += 1
    while pending and pending[-1][1] == pc:
        # closes exactly at hi — disallowed (shared boundary with region)
        raise _Bail
    if pending:
        raise _Bail
    return tuple(units)


def _unit_liveness(decoded, units, branch: Optional[int] = None):
    """(exposed reads, all writes) of a unit body treated linearly."""
    exposed: set = set()
    writes: set = set()
    defined: set = set()
    for unit in units:
        if isinstance(unit, int):
            reads, wr = _reads_writes(decoded[unit])
            for reg in reads:
                if reg and reg not in defined:
                    exposed.add(reg)
            for reg in wr:
                if reg:
                    defined.add(reg)
                    writes.add(reg)
        elif isinstance(unit, _InnerBranch):
            sub_exposed, sub_writes = _unit_liveness(
                decoded, unit.units, unit.branch
            )
            exposed |= sub_exposed - defined
            writes |= sub_writes
            defined |= sub_writes  # a do-while body runs at least once
        else:  # _InnerHw: body may run zero times
            ra = decoded[unit.setup][2]
            if ra and ra not in defined:
                exposed.add(ra)
            sub_exposed, sub_writes = _unit_liveness(decoded, unit.units)
            exposed |= sub_exposed - defined
            writes |= sub_writes  # writes happen, but are not guaranteed
    if branch is not None:
        reads, _ = _reads_writes(decoded[branch])
        for reg in reads:
            if reg and reg not in defined:
                exposed.add(reg)
    return exposed, writes


def _collect_write_sites(decoded, units, top: bool, sites: Dict[int, list]):
    for unit in units:
        if isinstance(unit, int):
            _, wr = _reads_writes(decoded[unit])
            for reg in wr:
                if reg:
                    sites.setdefault(reg, []).append((unit, top))
        else:  # _InnerBranch / _InnerHw: nested writes are never "top"
            _collect_write_sites(decoded, unit.units, False, sites)


def _collect_read_counts(decoded, units, counts: Dict[int, list],
                         branch: Optional[int] = None):
    for unit in units:
        if isinstance(unit, int):
            reads, _ = _reads_writes(decoded[unit])
            for reg in reads:
                if reg:
                    counts.setdefault(reg, []).append(unit)
        elif isinstance(unit, _InnerBranch):
            _collect_read_counts(decoded, unit.units, counts, unit.branch)
        else:
            ra = decoded[unit.setup][2]
            if ra:
                counts.setdefault(ra, []).append(unit.setup)
            _collect_read_counts(decoded, unit.units, counts)
    if branch is not None:
        reads, _ = _reads_writes(decoded[branch])
        for reg in reads:
            if reg:
                counts.setdefault(reg, []).append(branch)


@dataclass(frozen=True)
class LoopPlan:
    """A vectorizable loop: structure + carried-register classification."""

    kind: str  # "hw" (lp.setup body) or "branch" (backward self-loop)
    head: int  # engage point: lp.setup pc (hw) / loop head pc (branch)
    units: tuple
    exit_pc: int
    branch_pc: Optional[int]  # the outer backward branch (branch kind)
    inductions: Dict[int, int]  # reg -> net signed step per iteration
    reduction_pcs: Dict[int, Tuple[int, int, int]]  # pc -> (reg, op, src)
    reduction_regs: frozenset
    written_regs: frozenset  # every register written anywhere in the body
    hw_depth: int  # nested hardware-loop levels, incl. the outer hw loop
    exec_nodes: tuple  # prepared execution tree (see _prepare_units)


def _classify_region(decoded, units, branch_pc: Optional[int]):
    """Classify carried registers; raise :class:`_Bail` when a carried
    register is neither induction, reduction, nor privatizable temp."""
    # Exposed reads at the outer level = possibly loop-carried registers.
    exposed, _ = _unit_liveness(decoded, units, branch_pc)
    write_sites: Dict[int, list] = {}
    _collect_write_sites(decoded, units, True, write_sites)
    read_sites: Dict[int, list] = {}
    _collect_read_counts(decoded, units, read_sites, branch_pc)

    inductions: Dict[int, int] = {}
    reduction_pcs: Dict[int, Tuple[int, int, int]] = {}
    for reg in sorted(exposed):
        sites = write_sites.get(reg)
        if not sites:
            continue  # read-only: invariant across trips
        step = 0
        is_induction = True
        for pc, top in sites:
            ins = decoded[pc]
            op, rd, ra, imm = ins[0], ins[1], ins[2], ins[4]
            if not top:
                is_induction = False
                break
            if op == _OP_ADDI and rd == reg and ra == reg:
                step += imm
            elif op in (_OP_LW_POST, _OP_SW_POST) and ra == reg and (
                op == _OP_SW_POST or rd != reg
            ):
                step += imm
            else:
                is_induction = False
                break
        if is_induction:
            inductions[reg] = step
            continue
        # Reduction: a single `op reg, reg, x` with x independent, and no
        # other read of reg anywhere in the body.
        if len(sites) == 1:
            pc, _top = sites[0]
            ins = decoded[pc]
            op, rd, ra, rb = ins[0], ins[1], ins[2], ins[3]
            if (
                op in _REDUCIBLE_OPS
                and rd == reg
                and (ra == reg) != (rb == reg)
                and len(read_sites.get(reg, ())) == 1
                and read_sites[reg][0] == pc
            ):
                src = rb if ra == reg else ra
                reduction_pcs[pc] = (reg, op, src)
                continue
        raise _Bail(REASON_CARRIED_REGISTER)
    # Outer-branch condition registers must be solvable for a trip count.
    if branch_pc is not None:
        ins = decoded[branch_pc]
        ra, rb = ins[2], ins[3]
        red = frozenset(r for r, _, _ in reduction_pcs.values())
        for reg in (ra, rb):
            if reg in red:
                raise _Bail(REASON_REDUCTION_IN_CONDITION)
    return inductions, reduction_pcs, frozenset(write_sites)




def _prepare_units(decoded, units, profile, reduction_pcs):
    """Lower a unit tree into the runtime execution-node form.

    Straight runs of instructions become ``("seg", closure, count,
    cost)`` nodes whose instruction count and base cycle cost are folded
    to constants and whose semantics are compiled by
    :func:`_compile_seg`; nested loops become ``("bl", nodes, (op, ra,
    rb))`` and ``("hw", nodes, trip_reg)`` nodes.
    """
    nodes: List[tuple] = []
    seg: List[tuple] = []
    seg_cost = 0

    def flush():
        nonlocal seg_cost
        if seg:
            # Mutable node: [kind, closure, count, cost, instrs, hits].
            # The closure starts unset and is JIT-compiled by run_nodes
            # once the segment proves hot (second execution) — cold
            # segments are interpreted and never pay the exec() cost.
            nodes.append(["seg", None, len(seg), seg_cost, tuple(seg), 0])
            seg.clear()
            seg_cost = 0

    for unit in units:
        if isinstance(unit, int):
            ins = decoded[unit]
            op = ins[0]
            seg.append(
                (
                    op, ins[1], ins[2], ins[3], ins[4],
                    ins[4] & _MASK32, ins[5],
                    reduction_pcs.get(unit),
                )
            )
            seg_cost += _base_cost(op, profile)
        elif isinstance(unit, _InnerBranch):
            flush()
            ins = decoded[unit.branch]
            nodes.append(
                (
                    "bl",
                    _prepare_units(
                        decoded, unit.units, profile, reduction_pcs
                    ),
                    (ins[0], ins[2], ins[3]),
                )
            )
        else:  # _InnerHw
            flush()
            nodes.append(
                (
                    "hw",
                    _prepare_units(
                        decoded, unit.units, profile, reduction_pcs
                    ),
                    decoded[unit.setup][2],
                )
            )
    flush()
    return tuple(nodes)


#: Memo of loop-plan *bodies* keyed by (profile name, plan kind,
#: pc-normalized region instructions).  The kernel generators rebuild
#: structurally identical loops at different addresses for every machine
#: configuration and program; with branch/loop targets rebased relative
#: to the region head, the expensive analysis (_parse_region /
#: _classify_region / _prepare_units) runs once per distinct loop shape
#: instead of once per program.  Rejections memoize too (as the bail
#: reason string) so hopeless shapes are not re-analyzed; telemetry
#: still counts every compile-time reject per program.
_PLAN_MEMO: Dict[tuple, object] = {}


def _rebased_region(decoded, lo: int, hi: int, branch_pc: Optional[int]):
    """The region's instructions with control targets made head-relative.

    Returns a list usable both as the position-independent memo key and
    as the instruction sequence the plan analysis runs on (indices
    0 .. hi−lo−1, with the outer branch appended at index hi−lo for
    branch-kind plans).
    """
    rebased = []
    for pc in range(lo, hi):
        ins = decoded[pc]
        op = ins[0]
        if op == _OP_LPSETUP or op in _BRANCH_OPS or op in (
            _OP_J, _OP_JAL
        ):
            rebased.append(ins[:6] + (ins[6] - lo,))
        else:
            rebased.append(ins)
    if branch_pc is not None:
        ins = decoded[branch_pc]
        rebased.append(ins[:6] + (ins[6] - lo,))
    return rebased


def _build_plan_body(region, kind, n: int, branch_rel, profile):
    """Analyze one pc-normalized region into the memoizable plan body."""
    units = _parse_region(region, 0, n)
    inductions, reduction_pcs, written = _classify_region(
        region, units, branch_rel
    )
    depth = _hw_depth(units) + (1 if kind == "hw" else 0)
    if depth > 2:
        raise _Bail(REASON_LOOP_DEPTH)  # the core supports two hw-loop levels
    return (
        units,
        inductions,
        reduction_pcs,
        frozenset(r for r, _, _ in reduction_pcs.values()),
        written,
        depth,
        _prepare_units(region, units, profile, reduction_pcs),
    )


def _build_plan(decoded, kind, head, lo, hi, exit_pc, branch_pc, profile):
    region = _rebased_region(decoded, lo, hi, branch_pc)
    key = (profile.name, kind, tuple(region))
    body = _PLAN_MEMO.get(key)
    if body is None:
        branch_rel = None if branch_pc is None else hi - lo
        try:
            body = _build_plan_body(
                region, kind, hi - lo, branch_rel, profile
            )
        except _Bail as bail:
            if len(_PLAN_MEMO) >= _MEMO_LIMIT:
                _PLAN_MEMO.clear()
            _PLAN_MEMO[key] = bail.reason
            raise
        if len(_PLAN_MEMO) >= _MEMO_LIMIT:
            _PLAN_MEMO.clear()
        _PLAN_MEMO[key] = body
    elif isinstance(body, str):
        raise _Bail(body)
    (
        units, inductions, reduction_pcs, reduction_regs, written,
        depth, exec_nodes,
    ) = body
    return LoopPlan(
        kind=kind,
        head=head,
        units=units,
        exit_pc=exit_pc,
        branch_pc=branch_pc,
        inductions=inductions,
        reduction_pcs=reduction_pcs,
        reduction_regs=reduction_regs,
        written_regs=written,
        hw_depth=depth,
        exec_nodes=exec_nodes,
    )


# ---------------------------------------------------------------------------
# Program compilation + the dispatching core.
# ---------------------------------------------------------------------------


@dataclass
class CompiledProgram:
    """Everything the fast path derives from one (program, profile)."""

    profile_name: str
    decoded: list
    n_instrs: int
    blocks: Dict[int, CompiledBlock]
    block_starts: list
    hw_plans: Dict[int, LoopPlan]
    branch_plans: Dict[int, LoopPlan]
    sub_blocks: Dict[int, CompiledBlock] = field(default_factory=dict)


def compile_program(
    program: Program, profile: ArchProfile
) -> CompiledProgram:
    """Compile ``program`` for the fast path (cached on the Program)."""
    cache = getattr(program, "_iss_fastpath", None)
    if cache is None:
        cache = {}
        object.__setattr__(program, "_iss_fastpath", cache)
    compiled = cache.get(profile.name)
    if compiled is not None:
        return compiled

    decoded = predecode(program)
    blocks: Dict[int, CompiledBlock] = {}
    for block in program.basic_blocks():
        body_end = block.body_end
        blocks[block.start] = CompiledBlock(
            start=block.start,
            end=block.end,
            terminator=block.terminator,
            closure=_LAZY,  # compiled on first execution
            n_straight=body_end - block.start,
        )

    hw_plans: Dict[int, LoopPlan] = {}
    branch_plans: Dict[int, LoopPlan] = {}
    for pc, ins in enumerate(decoded):
        op = ins[0]
        if op == _OP_LPSETUP:
            end = ins[6]
            try:
                hw_plans[pc] = _build_plan(
                    decoded, "hw", pc, pc + 1, end, end, None, profile
                )
            except _Bail as bail:
                _TELEMETRY["compile_rejects"][bail.reason] += 1
        elif op in _BRANCH_OPS:
            tgt = ins[6]
            if tgt <= pc:
                try:
                    plan = _build_plan(
                        decoded, "branch", tgt, tgt, pc, pc + 1, pc,
                        profile,
                    )
                except _Bail as bail:
                    _TELEMETRY["compile_rejects"][bail.reason] += 1
                    continue
                if tgt in branch_plans:
                    # Two loops sharing a head: ambiguous, keep neither.
                    branch_plans[tgt] = None
                else:
                    branch_plans[tgt] = plan
    branch_plans = {
        pc: plan for pc, plan in branch_plans.items() if plan is not None
    }

    compiled = CompiledProgram(
        profile_name=profile.name,
        decoded=decoded,
        n_instrs=len(decoded),
        blocks=blocks,
        block_starts=sorted(blocks),
        hw_plans=hw_plans,
        branch_plans=branch_plans,
    )
    cache[profile.name] = compiled
    return compiled


class FastCore(DispatchCore, Core):
    """Drop-in :class:`~repro.pulp.core.Core` running the fast path.

    Architecturally identical to the interpreter (same registers, memory
    effects, cycles, and instruction counts on every successful run);
    only wall-clock behaviour differs.  The dispatch loop and the vector
    pass live in :mod:`repro.pulp.dispatch`; this class is their
    one-lane instantiation — registers are plain ints, vector passes run
    over ``lmem`` (a zero-copy one-lane view of the core's memory),
    faults raise :class:`~repro.pulp.core.ExecutionError` exactly like
    the oracle, and the instruction cap hands off to the interpreter
    for per-instruction granularity.
    """

    __slots__ = ("compiled", "_disabled_plans", "lmem")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.compiled: Optional[CompiledProgram] = None
        self._disabled_plans: set = set()
        self.lmem = LanedMemory(self.memory)

    def load_program(self, decoded: list, compiled=None) -> None:
        super().load_program(decoded)
        self.compiled = compiled
        self._disabled_plans = set()

    # -- helpers -----------------------------------------------------------

    def _block_at(self, pc: int) -> CompiledBlock:
        """Block starting at ``pc``, synthesizing one for mid-block
        entries (reachable only through ``jr``)."""
        comp = self.compiled
        block = comp.blocks.get(pc)
        if block is not None:
            return block
        block = comp.sub_blocks.get(pc)
        if block is not None:
            return block
        index = bisect.bisect_right(comp.block_starts, pc) - 1
        host = comp.blocks[comp.block_starts[index]]
        body_end = max(pc, host.start + host.n_straight)
        block = CompiledBlock(
            start=pc,
            end=host.end,
            terminator=host.terminator,
            closure=_compile_straight(
                comp.decoded, pc, body_end, self.profile
            ),
            n_straight=body_end - pc,
        )
        comp.sub_blocks[pc] = block
        return block

    # -- dispatch-loop hooks (scalar instantiation) ------------------------

    _fetch_block = _block_at

    def _uniform_reg(self, reg: int):
        return self.regs[reg] if reg else 0

    def _over_cap(self, needed: int) -> bool:
        return self.instr_count + needed > self.max_instructions

    def _cap_handoff(self, pc: int) -> str:
        # Per-instruction cap granularity: when finishing this block
        # (straight body + terminator) could cross the instruction
        # cap, hand the rest of the run to the interpreter, which
        # checks the cap before every instruction.  A runaway program
        # therefore raises at exactly the same instruction, with the
        # same registers, memory, cycles, and instruction count as
        # the oracle (pinned by tests/pulp/test_fastpath.py).
        self.pc = pc
        return Core.run(self)

    def _exec_straight(self, block: CompiledBlock) -> None:
        self.instr_count += block.n_straight
        closure = block.closure
        if closure is _LAZY:
            closure = block.closure = _compile_straight(
                self.compiled.decoded, block.start,
                block.start + block.n_straight, self.profile,
            )
        self.cycles += closure(self.regs, self.memory)

    def _branch_next(
        self, op, ra, rb, target, fallthrough, taken, not_taken
    ):
        regs = self.regs
        a = regs[ra]
        b = regs[rb]
        if op == _OP_BEQ:
            hit = a == b
        elif op == _OP_BNE:
            hit = a != b
        elif op == _OP_BLTU:
            hit = a < b
        elif op == _OP_BGEU:
            hit = a >= b
        elif op == _OP_BLT:
            hit = _signed(a) < _signed(b)
        else:
            hit = _signed(a) >= _signed(b)
        if hit:
            self.cycles += taken
            return target
        self.cycles += not_taken
        return fallthrough

    def _jr_target(self, ra: int):
        return self.regs[ra]

    def _lpsetup_trips(self, ra: int) -> int:
        return self.regs[ra]

    def _dma_wait(self) -> None:
        self.cycles = max(self.cycles + 1, self.dma.busy_until)

    def _fault_pc_overrun(self, pc: int):
        self.pc = pc
        raise ExecutionError(
            f"core {self.core_id} ran off the end of the program"
        )

    def _fault_loop_nesting(self):
        raise ExecutionError("hardware loops support two nesting levels")

    def _fault_no_dma(self, what: str):
        raise ExecutionError(
            f"{what} executed with no DMA engine attached"
        )

    def _fault_unknown_terminator(self, op: int):  # pragma: no cover
        raise ExecutionError(f"unimplemented opcode {op}")

    # -- execution ---------------------------------------------------------

    def run(self) -> str:
        if self.compiled is None:
            return super().run()
        if self._decoded is None:
            raise ExecutionError("no program loaded")
        return self.dispatch_segment()
