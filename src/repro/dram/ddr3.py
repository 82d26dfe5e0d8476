"""DDR3 main-memory timing model (paper Table 4).

One rank of 16 banks per channel, 4 KB pages, DDR3-1333 behind a 667 MHz,
8-byte bus — which at the paper's core clock means a 92-cycle raw access
latency and 16 processor cycles of bus occupancy per 64 B line.  The model
is trace-driven and contention-aware without being cycle-by-cycle:

* each bank tracks its open row; a row hit skips the activate/precharge
  portion of the raw latency;
* a bank serves one request at a time (``bank_free``), so bursts to one
  bank queue up;
* each channel's data bus is occupied for ``bus_cycles`` per transferred
  line, bounding bandwidth;
* writes occupy the same resources but complete asynchronously (write
  buffering), so they consume bandwidth without stalling the requester.

Address mapping: lines interleave across channels, pages interleave across
banks, so sequential streams enjoy row hits while spreading over banks.
Section 5.8's bandwidth study varies ``channels`` between 1, 2 and 4.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..utils import ilog2, require_power_of_two


@dataclass(frozen=True)
class DDR3Config:
    """Timing and geometry parameters, in processor cycles and cache lines."""

    channels: int = 1
    banks_per_channel: int = 16
    #: raw access latency for a row-buffer miss (activate+CAS+transfer)
    raw_latency: int = 92
    #: latency when the open row already holds the line
    row_hit_latency: int = 46
    #: processor cycles the channel bus is busy per 64 B line
    bus_cycles: int = 16
    #: lines per DRAM page (4 KB / 64 B)
    page_lines: int = 64
    #: row-buffer policy: 'open' keeps rows open between accesses (the
    #: default, matching the streaming-friendly controllers of the paper's
    #: era); 'closed' precharges after every access, so every access pays
    #: the full latency but row conflicts never queue behind a precharge
    page_policy: str = "open"

    def validate(self) -> "DDR3Config":
        """Check the configuration; returns self for chaining."""
        if self.page_policy not in ("open", "closed"):
            raise ValueError(f"unknown page_policy {self.page_policy!r}")
        require_power_of_two(self.channels, "channels")
        require_power_of_two(self.banks_per_channel, "banks_per_channel")
        require_power_of_two(self.page_lines, "page_lines")
        if not (0 < self.row_hit_latency <= self.raw_latency):
            raise ValueError("row_hit_latency must be in (0, raw_latency]")
        if self.bus_cycles <= 0:
            raise ValueError("bus_cycles must be positive")
        return self


class DDR3Memory:
    """Bank/bus contention model for one or more DDR3 channels."""

    def __init__(self, config: DDR3Config | None = None):
        self.config = (config or DDR3Config()).validate()
        cfg = self.config
        self._chan_mask = cfg.channels - 1
        self._chan_bits = ilog2(cfg.channels)
        self._bank_mask = cfg.banks_per_channel - 1
        self._bank_bits = ilog2(cfg.banks_per_channel)
        self._page_bits = ilog2(cfg.page_lines)
        # timing fields read on every access, copied out of the frozen config
        self._banks_per_channel = cfg.banks_per_channel
        self._raw_latency = cfg.raw_latency
        self._row_hit_latency = cfg.row_hit_latency
        self._bus_cycles = cfg.bus_cycles
        self._closed_page = cfg.page_policy == "closed"
        nbanks = cfg.channels * cfg.banks_per_channel
        self._bank_free = [0] * nbanks
        self._open_row = [-1] * nbanks
        self._bus_free = [0] * cfg.channels
        # statistics
        self.reads = 0
        self.writes = 0
        self.row_hits = 0
        self.busy_read_cycles = 0  # queueing + service time of demand reads

    # -- address mapping ---------------------------------------------------------
    def _locate(self, line_addr: int):
        """(channel, global bank index, row) of ``line_addr``."""
        channel = line_addr & self._chan_mask
        page = line_addr >> self._chan_bits >> self._page_bits
        bank_local = page & self._bank_mask
        row = page >> self._bank_bits
        return channel, channel * self._banks_per_channel + bank_local, row

    def _bank_access(self, bank: int, row: int, now: int):
        """Reserve the bank; returns (start, access_latency)."""
        free = self._bank_free[bank]
        start = now if now > free else free
        open_row = self._open_row
        if open_row[bank] == row:
            self.row_hits += 1
            access = self._row_hit_latency
        else:
            access = self._raw_latency
        # a closed page is precharged: the next access re-opens it
        open_row[bank] = -1 if self._closed_page else row
        return start, access

    # -- interface -----------------------------------------------------------------
    def read(self, line_addr: int, now: int) -> int:
        """Issue a demand read at ``now``; returns its completion time."""
        self.reads += 1
        channel, bank, row = self._locate(line_addr)
        start, access = self._bank_access(bank, row, now)
        ready = start + access
        # the line occupies the channel data bus for bus_cycles at the end
        bus_start = ready - self._bus_cycles
        bus_free = self._bus_free[channel]
        if bus_start < bus_free:
            bus_start = bus_free
        done = bus_start + self._bus_cycles
        self._bus_free[channel] = done
        # the bank frees once its access completes; bus queueing does not
        # hold the bank (the controller buffers the burst)
        self._bank_free[bank] = ready if ready > bus_start else bus_start
        self.busy_read_cycles += done - now
        return done

    def write(self, line_addr: int, now: int) -> None:
        """Issue a (posted) writeback at ``now``.

        Writes drain from the controller's write buffer with low priority:
        they occupy their bank (contending with reads to the same bank) but
        their data transfer is scheduled into idle bus slots, so they do not
        delay demand reads on the bus — the standard read-priority policy of
        DDR3 controllers.
        """
        self.writes += 1
        _, bank, row = self._locate(line_addr)
        start, access = self._bank_access(bank, row, now)
        self._bank_free[bank] = start + access

    def stats(self) -> dict:
        """Traffic and latency statistics of this memory."""
        total = self.reads + self.writes
        return {
            "reads": self.reads,
            "writes": self.writes,
            "row_hits": self.row_hits,
            "row_hit_rate": self.row_hits / total if total else 0.0,
            "avg_read_latency": self.busy_read_cycles / self.reads if self.reads else 0.0,
        }
