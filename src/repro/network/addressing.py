"""IPv4 address-space allocation for the simulated Internet.

Each ISP is assigned one or more /16 prefixes; hosts draw sequential
addresses from their ISP's prefixes.  Using genuine dotted-quad strings
(rather than opaque node ids) matters because the measurement pipeline
reproduces the paper's methodology: peers are identified by IP in packet
traces and only later joined to their AS via the lookup service in
:mod:`repro.network.asn`.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import Dict, Iterator, List

from .isp import ISP, ISPCatalog


@dataclass(frozen=True, order=True)
class Prefix:
    """A CIDR block owned by one AS."""

    network: ipaddress.IPv4Network
    asn: int

    def __contains__(self, address: str) -> bool:
        return ipaddress.IPv4Address(address) in self.network

    def __str__(self) -> str:
        return f"{self.network} (AS{self.asn})"


class AddressExhaustedError(RuntimeError):
    """An ISP ran out of allocatable host addresses."""


class AddressAllocator:
    """Hands out unique IPv4 addresses, partitioned by ISP.

    The allocator derives each ISP's /16 blocks deterministically from its
    ASN so that address assignment is stable across runs and the blocks of
    different ISPs never collide: ISP *i* (in catalog iteration order) owns
    ``10.(16*i)…10.(16*i+blocks-1).x.y``-style blocks carved out of
    ``10.0.0.0/8`` extended into ``100.64.0.0/10``-like space.  We simply
    use successive /16s of the 4-billion address space starting at
    ``1.0.0.0`` which keeps addresses readable.
    """

    BLOCK_SIZE = 1 << 16  # one /16 per block
    FIRST_BLOCK = 1 << 24  # start at 1.0.0.0 to avoid 0.x reserved space

    def __init__(self, catalog: ISPCatalog,
                 blocks_per_isp: int = 4) -> None:
        if blocks_per_isp < 1:
            raise ValueError("blocks_per_isp must be >= 1")
        self.catalog = catalog
        self.blocks_per_isp = blocks_per_isp
        self._prefixes: Dict[int, List[Prefix]] = {}
        self._next_host: Dict[int, int] = {}
        self._allocated: Dict[str, int] = {}
        base_block = 0
        for isp in catalog:
            prefixes = []
            for block_index in range(blocks_per_isp):
                start = (self.FIRST_BLOCK
                         + (base_block + block_index) * self.BLOCK_SIZE)
                network = ipaddress.IPv4Network((start, 16))
                prefixes.append(Prefix(network, isp.asn))
            self._prefixes[isp.asn] = prefixes
            self._next_host[isp.asn] = 1  # skip the .0.0 network address
            base_block += blocks_per_isp

    def prefixes_of(self, isp: ISP) -> List[Prefix]:
        """CIDR blocks owned by ``isp``."""
        return list(self._prefixes[isp.asn])

    def all_prefixes(self) -> Iterator[Prefix]:
        for prefixes in self._prefixes.values():
            yield from prefixes

    def capacity(self, isp: ISP) -> int:
        """Total allocatable host addresses for ``isp``."""
        # minus network address in the first block, which we never assign
        return self.blocks_per_isp * self.BLOCK_SIZE - 1

    def allocate(self, isp: ISP) -> str:
        """Return the next unused address inside ``isp``'s space."""
        offset = self._next_host[isp.asn]
        if offset >= self.blocks_per_isp * self.BLOCK_SIZE:
            raise AddressExhaustedError(
                f"{isp.name} exhausted {self.capacity(isp)} addresses")
        block, host = divmod(offset, self.BLOCK_SIZE)
        prefix = self._prefixes[isp.asn][block]
        address = str(prefix.network.network_address + host)
        self._next_host[isp.asn] = offset + 1
        self._allocated[address] = isp.asn
        return address

    def asn_of(self, address: str) -> int:
        """ASN that was assigned ``address`` (allocation record, not lookup)."""
        try:
            return self._allocated[address]
        except KeyError:
            raise KeyError(f"address {address} was never allocated") from None

    def __contains__(self, address: str) -> bool:
        return address in self._allocated
