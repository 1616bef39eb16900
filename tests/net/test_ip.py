"""Tests for IPv4 helpers and the prefix allocator."""

import ipaddress

import pytest
from hypothesis import given, strategies as st

from repro.net import (
    AddressPoolExhaustedError,
    PrefixPool,
    block_of,
    hosts_in,
    nth_address,
    parse_address,
    parse_network,
)
from repro.net.ip import strict_address_int


def _legacy_parse(text):
    """``parse_address`` as it was before the ``inet_pton`` fast path."""
    if isinstance(text, ipaddress.IPv4Address):
        return text
    try:
        return ipaddress.IPv4Address(text)
    except (ValueError, OverflowError, TypeError) as exc:
        raise ValueError(f"not an IPv4 address: {text!r}") from exc


def _outcome(parse, text):
    try:
        return ("ok", parse(text))
    except ValueError as exc:
        return ("error", str(exc))


#: Octet-shaped tokens: in-range and out-of-range numbers, leading zeros,
#: signs, whitespace, hex, non-ASCII digits, NULs, empties.
_OCTETS = st.one_of(
    st.integers(0, 999).map(str),
    st.integers(0, 255).map(lambda n: f"0{n}"),
    st.sampled_from(["", " 1", "1 ", "+1", "-1", "0x1", "\u0663", "1\x00", "1e2"]),
    st.text(alphabet="0123456789.x+- \t\n\u0663\uff11", max_size=5),
)
_ADDRESS_LIKE = st.one_of(
    st.lists(_OCTETS, min_size=1, max_size=6).map(".".join),
    st.text(max_size=20),
)


class TestParsing:
    def test_parse_address_from_string(self):
        assert int(parse_address("10.0.0.1")) == (10 << 24) + 1

    def test_parse_address_from_int(self):
        assert str(parse_address(1)) == "0.0.0.1"

    def test_parse_address_idempotent(self):
        addr = parse_address("1.2.3.4")
        assert parse_address(addr) is addr

    def test_parse_network(self):
        assert parse_network("10.0.0.0/24").num_addresses == 256

    def test_parse_network_strict_rejects_host_bits(self):
        with pytest.raises(ValueError):
            parse_network("10.0.0.1/24")

    def test_parse_network_nonstrict(self):
        assert str(parse_network("10.0.0.1/24", strict=False)) == "10.0.0.0/24"

    @pytest.mark.parametrize(
        "bad",
        [
            "not-an-ip",
            "1.2.3",
            "1.2.3.4.5",
            "256.0.0.1",
            "::1",  # IPv6
            "1.2.3.4/24",  # a network, not an address
            "",
            -1,
            2**32,  # first out-of-range int
            2**80,  # would overflow 32-bit packing
            3.14,
            None,
            b"\x01",
            True,  # a JSON boolean, not the integer 1
            False,
        ],
    )
    def test_parse_address_rejects_garbage_uniformly(self, bad):
        """Every malformed input raises one clear ValueError — never a raw
        ipaddress/OverflowError traceback (the HTTP layer catches this)."""
        with pytest.raises(ValueError, match="not an IPv4 address"):
            parse_address(bad)

    def test_parse_address_error_names_the_input(self):
        with pytest.raises(ValueError, match="'10\\.0\\.0\\.999'"):
            parse_address("10.0.0.999")

    def test_parse_address_rejects_bool_with_the_uniform_message(self):
        with pytest.raises(ValueError) as raised:
            parse_address(True)
        assert str(raised.value) == "not an IPv4 address: True"


class TestStrictFastPath:
    @given(_ADDRESS_LIKE)
    def test_fast_path_accepts_only_what_ipaddress_accepts(self, text):
        addr = strict_address_int(text)
        if addr is not None:
            assert int(ipaddress.IPv4Address(text)) == addr

    @given(st.one_of(_ADDRESS_LIKE, st.integers(-2, 2**33), st.binary(max_size=6)))
    def test_parse_address_matches_the_ipaddress_parser(self, text):
        """Same value on success, same message on every rejection."""
        assert _outcome(parse_address, text) == _outcome(_legacy_parse, text)

    def test_fast_path_covers_plain_dotted_quads(self):
        assert strict_address_int("10.0.0.1") == (10 << 24) + 1
        assert strict_address_int("255.255.255.255") == 2**32 - 1
        for rejected in ("01.2.3.4", "1.2.3", " 1.2.3.4", 16909060, b"\x01\x02\x03\x04"):
            assert strict_address_int(rejected) is None


class TestBlockOf:
    def test_slash24(self):
        assert str(block_of("192.168.5.77")) == "192.168.5.0/24"

    def test_slash16(self):
        assert str(block_of("192.168.5.77", 16)) == "192.168.0.0/16"

    def test_slash32_is_identity(self):
        assert str(block_of("1.2.3.4", 32)) == "1.2.3.4/32"

    def test_invalid_prefix_len(self):
        with pytest.raises(ValueError):
            block_of("1.2.3.4", 33)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 32))
    def test_block_contains_address(self, addr, plen):
        assert parse_address(addr) in block_of(addr, plen)

    @given(st.integers(0, 2**32 - 1))
    def test_same_block_same_key(self, addr):
        base = (addr >> 8) << 8
        assert block_of(base) == block_of(min(base + 255, 2**32 - 1))


class TestHostsIn:
    def test_slash24_excludes_network_and_broadcast(self):
        hosts = list(hosts_in("10.0.0.0/30"))
        assert [str(h) for h in hosts] == ["10.0.0.1", "10.0.0.2"]

    def test_slash31_yields_both(self):
        assert len(list(hosts_in("10.0.0.0/31"))) == 2

    def test_slash32_yields_one(self):
        assert [str(h) for h in hosts_in("10.0.0.5/32")] == ["10.0.0.5"]


class TestNthAddress:
    def test_first_is_network_address(self):
        assert str(nth_address("10.1.0.0/16", 0)) == "10.1.0.0"

    def test_last(self):
        assert str(nth_address("10.1.0.0/24", 255)) == "10.1.0.255"

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            nth_address("10.1.0.0/24", 256)


class TestPrefixPool:
    def test_sequential_allocation(self):
        pool = PrefixPool([parse_network("10.0.0.0/16")])
        assert str(pool.allocate(24)) == "10.0.0.0/24"
        assert str(pool.allocate(24)) == "10.0.1.0/24"

    def test_alignment_after_smaller_allocation(self):
        pool = PrefixPool([parse_network("10.0.0.0/16")])
        pool.allocate(26)  # 10.0.0.0/26
        # The next /24 must skip the partially-used first /24.
        assert str(pool.allocate(24)) == "10.0.1.0/24"

    def test_exhaustion(self):
        pool = PrefixPool([parse_network("10.0.0.0/24")])
        pool.allocate(24)
        with pytest.raises(AddressPoolExhaustedError):
            pool.allocate(24)

    def test_request_larger_than_parent(self):
        pool = PrefixPool([parse_network("10.0.0.0/24")])
        with pytest.raises(AddressPoolExhaustedError):
            pool.allocate(16)

    def test_spills_into_second_parent(self):
        pool = PrefixPool([parse_network("10.0.0.0/24"), parse_network("10.9.0.0/24")])
        pool.allocate(24)
        assert str(pool.allocate(24)) == "10.9.0.0/24"

    def test_overlapping_parents_rejected(self):
        with pytest.raises(ValueError):
            PrefixPool([parse_network("10.0.0.0/8"), parse_network("10.1.0.0/16")])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PrefixPool([])

    def test_remaining_addresses_decreases(self):
        pool = PrefixPool([parse_network("10.0.0.0/20")])
        before = pool.remaining_addresses()
        pool.allocate(24)
        assert pool.remaining_addresses() == before - 256

    @given(st.lists(st.integers(22, 28), min_size=1, max_size=40))
    def test_allocations_never_overlap(self, lengths):
        pool = PrefixPool([parse_network("10.0.0.0/16")])
        allocated: list[ipaddress.IPv4Network] = []
        for plen in lengths:
            try:
                allocated.append(pool.allocate(plen))
            except AddressPoolExhaustedError:
                break
        for i, a in enumerate(allocated):
            for b in allocated[i + 1 :]:
                assert not a.overlaps(b), (a, b)

    @given(st.lists(st.integers(22, 28), min_size=1, max_size=20))
    def test_deterministic(self, lengths):
        def run():
            pool = PrefixPool([parse_network("10.0.0.0/16")])
            out = []
            for plen in lengths:
                try:
                    out.append(str(pool.allocate(plen)))
                except AddressPoolExhaustedError:
                    break
            return out

        assert run() == run()
