"""Simulated cluster message fabric on the shared sim clock.

The network is a cost model -- one-way latency, finite bandwidth, framing
bytes -- over one :class:`~repro.storage.simdisk.SimResource` per directed
point-to-point link, all on the one :class:`SimClock` the whole cluster
shares, so network transfers and disk I/O interleave on a single timeline.

* :meth:`SimNetwork.send` / :meth:`SimNetwork.rpc` -- foreground messages
  (the link's ``fg``): the caller waits for delivery.
* :meth:`SimNetwork.reserve` -- background transfers (rebalance file
  shipping; the link's ``reserve``): the returned tail is device-time
  *debt* for a :class:`~repro.storage.background.BackgroundJob`, so bulk
  copies overlap foreground traffic the way compactions overlap queries.

The zero network (``NetworkOptions.zero()``) has no latency, infinite
bandwidth and no framing overhead: every transfer takes exactly 0 simulated
seconds and never advances the clock, which is what makes a 1-shard,
1-replica cluster byte-identical to a bare :class:`~repro.db.iamdb.IamDB`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.common.options import ChannelOptions
from repro.storage.simdisk import SimClock, SimResource
from repro.check.effects.registry import effects

#: Default per-link bandwidth: 2 GiB/s full duplex (a 25 GbE-ish fabric,
#: deliberately faster than the SSD profile so the disk stays the bottleneck).
DEFAULT_BANDWIDTH = float(2 * 1024**3)

#: Default one-way latency: 50us (same-datacenter RTT of ~100us).
DEFAULT_LATENCY_S = 50e-6


#: Default framing/header overhead per message.
DEFAULT_FRAME_BYTES = 64


@dataclass(frozen=True)
class NetworkOptions(ChannelOptions):
    """Per-link fabric parameters (every link is identical; ``latency_s`` is
    the one-way propagation latency per message)."""

    latency_s: float = DEFAULT_LATENCY_S
    bandwidth: float = DEFAULT_BANDWIDTH
    frame_bytes: int = DEFAULT_FRAME_BYTES


class Link(SimResource):
    """One directed link: a FIFO server and the bytes it has carried."""

    def __init__(self, clock: SimClock) -> None:
        super().__init__(clock)
        #: Bytes carried, framing included.
        self.nbytes = 0


class SimNetwork:
    """Directed FIFO links between integer node ids, on one shared clock."""

    def __init__(self, clock: SimClock,
                 options: Optional[NetworkOptions] = None) -> None:
        self.clock = clock
        self.options = options if options is not None else NetworkOptions()
        #: One FIFO server per directed link, made at its first message.
        self._links: Dict[Tuple[int, int], Link] = {}
        #: Total messages carried (both foreground and background).
        self.messages = 0
        #: Total bytes carried, framing included.
        self.bytes_sent = 0

    @property
    def link_bytes(self) -> Dict[Tuple[int, int], int]:
        """Bytes carried per directed link, framing included (a copy)."""
        return {key: link.nbytes for key, link in self._links.items()}

    # ------------------------------------------------------------------ model
    def _charge(self, src: int, dst: int, nbytes: int) -> Tuple[Link, float]:
        """The cost model: count one framed message; returns its link and
        its service time (latency + serialization)."""
        options = self.options
        total = nbytes + options.frame_bytes
        service = options.latency_s
        if total > 0:
            service += total / options.bandwidth
        link = self._links.get((src, dst))
        if link is None:
            link = self._links[src, dst] = Link(self.clock)
        link.nbytes += total
        self.messages += 1
        self.bytes_sent += total
        return link, service

    # ------------------------------------------------------------- foreground
    @effects("CLOCK_ADVANCE", "NET_CHARGE", "STATE_MUTATE")
    def send(self, src: int, dst: int, nbytes: int) -> float:
        """Deliver one message synchronously; returns the elapsed sim time
        (queueing behind earlier traffic on the same directed link plus the
        message's own service time)."""
        link, service = self._charge(src, dst, nbytes)
        return link.fg(service)[0]

    @effects("CLOCK_ADVANCE", "NET_CHARGE", "STATE_MUTATE")
    def rpc(self, src: int, dst: int, request_bytes: int,
            response_bytes: int = 0) -> float:
        """A request/response round trip; returns the total elapsed time."""
        elapsed = self.send(src, dst, request_bytes)
        elapsed += self.send(dst, src, response_bytes)
        return elapsed

    # ------------------------------------------------------------- background
    def reserve(self, src: int, dst: int, nbytes: int) -> float:
        """Reserve a background transfer; returns its tail, clock untouched
        (the transfer completes when the pool drains that debt)."""
        link, service = self._charge(src, dst, nbytes)
        return link.reserve(service)

    # ------------------------------------------------------------- inspection
    def snapshot(self) -> Dict[str, object]:
        """Deterministic counter dump for the cluster report."""
        return {
            "messages": self.messages,
            "bytes_sent": self.bytes_sent,
            "link_bytes": {f"{src}->{dst}": nbytes
                           for (src, dst), nbytes
                           in sorted(self.link_bytes.items())},
        }
