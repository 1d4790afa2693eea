"""Memory system: L1 TCDM, off-cluster L2, and the address map.

The PULP memory hierarchy of the paper (section 2.2): a multi-banked L1
scratchpad (TCDM) shared by the cluster cores with single-cycle access,
and a larger off-cluster L2 reached through the AXI interconnect with a
noticeably higher latency.  The paper's accelerator keeps hot data (the
spatial and N-gram hypervectors) in L1 and streams the large CIM/IM/AM
matrices from L2 via DMA double buffering.

Addresses follow the real PULP memory map: L1 at ``0x1000_0000``, L2 at
``0x1C00_0000``.  All accesses are little-endian; word accesses must be
4-byte aligned (misalignment raises, as real TCDM would fault).

TCDM bank conflicts cannot be reproduced exactly under the ISS's
barrier-segment execution model (cores run sequentially between barriers,
so cycle-level interleaving is not observable).  Instead each L1 access by
a core in an ``n``-core team pays the *expected* conflict penalty
``(n − 1) / (2 · n_banks)`` cycles, accumulated in fixed-point millicycles
so the model stays deterministic and integer-valued.  DESIGN.md records
this approximation.
"""

from __future__ import annotations

from dataclasses import dataclass

L1_BASE = 0x1000_0000
"""Start of the shared L1 TCDM region."""

L2_BASE = 0x1C00_0000
"""Start of the off-cluster L2 region."""


class MemoryError_(Exception):
    """Raised on out-of-range or misaligned simulated accesses."""


@dataclass(frozen=True)
class MemoryConfig:
    """Region sizes and access costs for one SoC."""

    l1_bytes: int = 48 * 1024
    l2_bytes: int = 64 * 1024
    l1_cycles: int = 1
    l2_extra_cycles: int = 8
    n_banks: int = 8

    def __post_init__(self) -> None:
        if self.l1_bytes <= 0 or self.l2_bytes <= 0:
            raise ValueError("memory sizes must be positive")
        if self.n_banks <= 0:
            raise ValueError(f"need at least one bank, got {self.n_banks}")


class MemorySystem:
    """Byte-addressable two-level memory with latency accounting.

    Loads and stores return the number of *extra* stall cycles beyond the
    instruction's base cost, so the core can add them to its cycle count.
    """

    __slots__ = (
        "config",
        "_l1",
        "_l2",
        "_l1_end",
        "_l2_end",
        "conflict_millicycles",
        "_conflict_acc",
    )

    def __init__(self, config: MemoryConfig):
        self.config = config
        self._l1 = bytearray(config.l1_bytes)
        self._l2 = bytearray(config.l2_bytes)
        self._l1_end = L1_BASE + config.l1_bytes
        self._l2_end = L2_BASE + config.l2_bytes
        #: expected extra millicycles per L1 access from bank contention;
        #: set by the cluster when a parallel team is active
        self.conflict_millicycles = 0
        self._conflict_acc = 0

    # -- raw access (functional, no timing) -------------------------------

    def _locate(self, addr: int, size: int) -> tuple:
        if L1_BASE <= addr and addr + size <= self._l1_end:
            return self._l1, addr - L1_BASE, True
        if L2_BASE <= addr and addr + size <= self._l2_end:
            return self._l2, addr - L2_BASE, False
        raise MemoryError_(
            f"access of {size} bytes at 0x{addr:08x} outside L1 "
            f"[0x{L1_BASE:08x}, 0x{self._l1_end:08x}) and L2 "
            f"[0x{L2_BASE:08x}, 0x{self._l2_end:08x})"
        )

    def read_bytes(self, addr: int, size: int) -> bytes:
        """Untimed byte read (used by DMA and result readback)."""
        buf, offset, _ = self._locate(addr, size)
        return bytes(buf[offset : offset + size])

    def write_bytes(self, addr: int, data: bytes) -> None:
        """Untimed byte write (used by DMA and test fixtures)."""
        buf, offset, _ = self._locate(addr, len(data))
        buf[offset : offset + len(data)] = data

    def read_word(self, addr: int) -> int:
        """Untimed aligned 32-bit read."""
        if addr & 3:
            raise MemoryError_(f"misaligned word read at 0x{addr:08x}")
        buf, offset, _ = self._locate(addr, 4)
        return int.from_bytes(buf[offset : offset + 4], "little")

    def write_word(self, addr: int, value: int) -> None:
        """Untimed aligned 32-bit write."""
        if addr & 3:
            raise MemoryError_(f"misaligned word write at 0x{addr:08x}")
        buf, offset, _ = self._locate(addr, 4)
        buf[offset : offset + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")

    # -- timed access (core-visible) -----------------------------------------

    def _stall_for(self, is_l1: bool) -> int:
        if not is_l1:
            return self.config.l2_extra_cycles
        if self.conflict_millicycles:
            self._conflict_acc += self.conflict_millicycles
            if self._conflict_acc >= 1000:
                self._conflict_acc -= 1000
                return 1
        return 0

    def load_word(self, addr: int) -> tuple:
        """Timed 32-bit load: returns (value, extra_stall_cycles)."""
        if addr & 3:
            raise MemoryError_(f"misaligned word load at 0x{addr:08x}")
        buf, offset, is_l1 = self._locate(addr, 4)
        value = int.from_bytes(buf[offset : offset + 4], "little")
        return value, self._stall_for(is_l1)

    def store_word(self, addr: int, value: int) -> int:
        """Timed 32-bit store: returns extra stall cycles."""
        if addr & 3:
            raise MemoryError_(f"misaligned word store at 0x{addr:08x}")
        buf, offset, is_l1 = self._locate(addr, 4)
        buf[offset : offset + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")
        return self._stall_for(is_l1)

    def load_byte(self, addr: int) -> tuple:
        """Timed unsigned byte load: returns (value, extra_stall_cycles)."""
        buf, offset, is_l1 = self._locate(addr, 1)
        return buf[offset], self._stall_for(is_l1)

    def store_byte(self, addr: int, value: int) -> int:
        """Timed byte store: returns extra stall cycles."""
        buf, offset, is_l1 = self._locate(addr, 1)
        buf[offset] = value & 0xFF
        return self._stall_for(is_l1)

    def load_half(self, addr: int) -> tuple:
        """Timed unsigned 16-bit load: returns (value, extra stalls)."""
        if addr & 1:
            raise MemoryError_(f"misaligned half load at 0x{addr:08x}")
        buf, offset, is_l1 = self._locate(addr, 2)
        value = int.from_bytes(buf[offset : offset + 2], "little")
        return value, self._stall_for(is_l1)

    def store_half(self, addr: int, value: int) -> int:
        """Timed 16-bit store: returns extra stall cycles."""
        if addr & 1:
            raise MemoryError_(f"misaligned half store at 0x{addr:08x}")
        buf, offset, is_l1 = self._locate(addr, 2)
        buf[offset : offset + 2] = (value & 0xFFFF).to_bytes(2, "little")
        return self._stall_for(is_l1)

    # -- closed-form timing (vector passes) -------------------------------

    def bulk_stalls(self, n_l1: int, n_l2: int) -> int:
        """Total stall cycles for a batch of accesses, in closed form.

        Exactly matches ``n_l1`` + ``n_l2`` sequential :meth:`_stall_for`
        calls in any order: L2 stalls are a fixed per-access cost, and
        the L1 conflict model is a base-1000 carry accumulator whose
        total carry count depends only on the number of accesses.  The
        accumulator is advanced so subsequent scalar accesses continue
        the same fixed-point sequence.
        """
        stalls = n_l2 * self.config.l2_extra_cycles
        c = self.conflict_millicycles
        if c and n_l1:
            if c < 1000:
                # acc stays < 1000 between accesses: carries in base 1000.
                total = self._conflict_acc + n_l1 * c
                stalls += total // 1000
                self._conflict_acc = total % 1000
            else:
                # Degenerate heavy-contention configs: every access pays
                # exactly one stall and the accumulator drifts upward,
                # matching the per-access model's single subtraction.
                stalls += n_l1
                self._conflict_acc += n_l1 * (c - 1000)
        return stalls

    def set_team_size(self, n_cores: int) -> None:
        """Configure the expected L1 bank-conflict penalty for a team."""
        if n_cores <= 1:
            self.conflict_millicycles = 0
        else:
            self.conflict_millicycles = round(
                1000 * (n_cores - 1) / (2 * self.config.n_banks)
            )
        self._conflict_acc = 0

    def in_l1(self, addr: int) -> bool:
        """Whether an address falls in the L1 region."""
        return L1_BASE <= addr < self._l1_end

    def in_l2(self, addr: int) -> bool:
        """Whether an address falls in the L2 region."""
        return L2_BASE <= addr < self._l2_end
