"""IPv4 addressing helpers.

The study is entirely IPv4 (CAIDA Ark probes routed /24 IPv4 prefixes).
We build on :mod:`ipaddress` from the standard library and add the handful
of operations the substrates and analyses need: /24 block keys (the paper's
"block-level" granularity unit, §5.2.3), prefix pool arithmetic for the RIR
delegation registry, and deterministic address enumeration.
"""

from __future__ import annotations

import ipaddress
from socket import AF_INET, inet_pton
from typing import Iterator

IPv4Address = ipaddress.IPv4Address
IPv4Network = ipaddress.IPv4Network


class AddressPoolExhaustedError(RuntimeError):
    """Raised when a prefix pool cannot satisfy an allocation request."""


def parse_address(text: str | int | IPv4Address) -> IPv4Address:
    """Parse an IPv4 address from a string, integer, or address object.

    Every malformed input — out-of-range integers, IPv6 text, arbitrary
    strings, wrong types — raises one uniform ``ValueError`` whose message
    starts with ``"not an IPv4 address"``, so callers (the database lookup
    path, the HTTP serving layer) can catch bad input without knowing the
    zoo of :mod:`ipaddress` exception types (``AddressValueError``,
    ``OverflowError``, ``TypeError``).  A ``bool`` is rejected too:
    :mod:`ipaddress` would take ``True`` as the integer 1.
    """
    if isinstance(text, IPv4Address):
        return text
    if type(text) is str:
        # Only text can take the inet_pton fast path; ints and bytes
        # would raise and catch a TypeError there on every call.
        addr = strict_address_int(text)
        if addr is not None:
            return IPv4Address(addr)
    elif isinstance(text, bool):
        raise ValueError(f"not an IPv4 address: {text!r}")
    try:
        return ipaddress.IPv4Address(text)
    except (ValueError, OverflowError, TypeError) as exc:
        raise ValueError(f"not an IPv4 address: {text!r}") from exc


def strict_address_int(text: object) -> int | None:
    """The integer of a strict dotted-quad string, or ``None``.

    ``socket.inet_pton`` parses the common case about ten times faster
    than :mod:`ipaddress` and accepts a subset of what it accepts (four
    decimal octets, no leading zeros, nothing around them), always to the
    same value.  ``None`` means "not in that subset" — not "invalid":
    callers fall back to :func:`parse_address` for integers, address
    objects and the exact rejection message.
    """
    try:
        return int.from_bytes(inet_pton(AF_INET, text), "big")
    except (OSError, ValueError, TypeError):
        return None


def parse_network(text: str | IPv4Network, *, strict: bool = True) -> IPv4Network:
    """Parse an IPv4 network in CIDR notation."""
    if isinstance(text, IPv4Network):
        return text
    return ipaddress.IPv4Network(text, strict=strict)


def block_of(address: str | int | IPv4Address, prefix_len: int = 24) -> IPv4Network:
    """The enclosing ``/prefix_len`` block of an address.

    The paper's case study (§5.2.3) distinguishes records assigned at
    "/24 block or larger" granularity; this is the canonical block key.
    """
    if not 0 <= prefix_len <= 32:
        raise ValueError(f"invalid prefix length: {prefix_len!r}")
    addr = parse_address(address)
    return ipaddress.ip_network((int(addr) >> (32 - prefix_len) << (32 - prefix_len), prefix_len))


def hosts_in(network: str | IPv4Network) -> Iterator[IPv4Address]:
    """Usable host addresses of a network, in ascending order.

    For prefixes of length 31/32 every address is yielded (point-to-point
    router links routinely use /31s, and single interfaces are /32s).
    """
    net = parse_network(network)
    if net.prefixlen >= 31:
        yield from (ipaddress.IPv4Address(int(net.network_address) + i) for i in range(net.num_addresses))
    else:
        yield from net.hosts()


def nth_address(network: str | IPv4Network, index: int) -> IPv4Address:
    """The ``index``-th address of a network (0-based, network address first)."""
    net = parse_network(network)
    if not 0 <= index < net.num_addresses:
        raise IndexError(f"index {index} outside {net}")
    return ipaddress.IPv4Address(int(net.network_address) + index)


class PrefixPool:
    """Sequential allocator carving sub-prefixes out of a parent prefix.

    Used by the RIR delegation registry: each RIR owns a set of top-level
    blocks and hands out allocations to (synthetic) organizations in
    address order, the way early sequential delegations worked.  Allocation
    is deterministic: the same request sequence always yields the same
    prefixes, which keeps scenario builds reproducible.
    """

    def __init__(self, parents: list[IPv4Network] | tuple[IPv4Network, ...]):
        if not parents:
            raise ValueError("a prefix pool needs at least one parent prefix")
        self._parents = tuple(sorted((parse_network(p) for p in parents), key=lambda n: int(n.network_address)))
        for earlier, later in zip(self._parents, self._parents[1:]):
            if earlier.overlaps(later):
                raise ValueError(f"overlapping parent prefixes: {earlier} and {later}")
        # Next free address (as int) within each parent.
        self._cursors = [int(p.network_address) for p in self._parents]

    @property
    def parents(self) -> tuple[IPv4Network, ...]:
        return self._parents

    def allocate(self, prefix_len: int) -> IPv4Network:
        """Carve out the next free aligned ``/prefix_len`` sub-prefix."""
        if not 0 <= prefix_len <= 32:
            raise ValueError(f"invalid prefix length: {prefix_len!r}")
        size = 1 << (32 - prefix_len)
        for i, parent in enumerate(self._parents):
            if prefix_len < parent.prefixlen:
                continue  # request larger than this parent
            cursor = self._cursors[i]
            # Align the cursor up to the allocation size.
            aligned = (cursor + size - 1) // size * size
            end = int(parent.network_address) + parent.num_addresses
            if aligned + size <= end:
                self._cursors[i] = aligned + size
                return ipaddress.ip_network((aligned, prefix_len))
        raise AddressPoolExhaustedError(f"no /{prefix_len} left in pool")

    def remaining_addresses(self) -> int:
        """Total unallocated addresses across all parents (upper bound)."""
        total = 0
        for parent, cursor in zip(self._parents, self._cursors):
            end = int(parent.network_address) + parent.num_addresses
            total += max(0, end - cursor)
        return total
