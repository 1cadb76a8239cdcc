"""Address algebra tests."""

import math
from collections import Counter
from random import Random

import pytest
from hypothesis import given, strategies as st

from ringnet.address import (
    ADDRESS_BITS,
    CLOCKWISE_ADDRESS,
    COUNTERCLOCKWISE_ADDRESS,
    Direction,
    HALF_MODULUS,
    MODULUS,
    address_to_bytes,
    directed_distance,
    direction_of,
    directional_address,
    format_address,
    parse_address,
    random_class0,
    ring_distance,
)

addresses = st.integers(min_value=0, max_value=MODULUS - 1)


def naive_class(a: int) -> int:
    # An address's class: the trailing '1' characters of its bit string.
    bits = format(a, "0160b")
    return len(bits) - len(bits.rstrip("1"))


def test_class_sizes_partition_the_space():
    # Over a small analogue (10-bit space) enumerate everything.
    counts = Counter()
    for a in range(1 << 10):
        bits = format(a, "010b")
        counts[len(bits) - len(bits.rstrip("1"))] += 1
    assert counts[10] == 1
    for n in range(10):
        assert counts[n] == 2 ** (9 - n)
    assert sum(counts.values()) == 1 << 10


def test_class_frequencies_match_expected_within_3_sigma():
    rng = Random(42)
    n = 100_000
    counts = Counter(naive_class(rng.getrandbits(ADDRESS_BITS)) for _ in range(n))
    assert sum(counts.values()) == n  # every address has exactly one class
    for cls in range(8):
        p = 2.0 ** -(cls + 1)
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(counts[cls] - n * p) <= 3 * sigma, cls


def test_ring_distance_identity():
    assert ring_distance(12345, 12345) == 0


def test_ring_distance_antipode():
    assert ring_distance(0, HALF_MODULUS) == HALF_MODULUS


def test_ring_distance_wraps():
    assert ring_distance(2, MODULUS - 2) == 4


@given(addresses, addresses)
def test_ring_distance_symmetric_and_bounded(a, b):
    d = ring_distance(a, b)
    assert d == ring_distance(b, a)
    assert 0 <= d <= HALF_MODULUS


@given(addresses, addresses, addresses)
def test_ring_distance_triangle_inequality(a, b, c):
    assert ring_distance(a, c) <= ring_distance(a, b) + ring_distance(b, c)


def test_directed_distance_examples():
    cw = Direction.CLOCKWISE
    ccw = Direction.COUNTERCLOCKWISE
    assert directed_distance(0, 4, cw) == 4
    assert directed_distance(0, 4, ccw) == MODULUS - 4
    assert directed_distance(7, 7, cw) == 0
    assert directed_distance(7, 7, ccw) == 0


@given(addresses, addresses)
def test_directed_distances_complement(a, b):
    cw = directed_distance(a, b, Direction.CLOCKWISE)
    back = directed_distance(b, a, Direction.CLOCKWISE)
    if a == b:
        assert cw == back == 0
    else:
        assert (cw + back) % MODULUS == 0
    assert directed_distance(a, b, Direction.COUNTERCLOCKWISE) == back


def test_random_class0_is_even_and_deterministic():
    a = random_class0(Random(99))
    b = random_class0(Random(99))
    assert a == b
    for _ in range(100):
        assert naive_class(random_class0(Random())) == 0


def test_random_class0_uniformity_chi_square():
    # Bit 0 is always zero; the other 159 bits should be fair coins.
    # Critical value chi2.ppf(0.99, df=159) = 203.39975 (scipy 1.15).
    rng = Random(2024)
    n = 10_000
    ones = [0] * ADDRESS_BITS
    for _ in range(n):
        a = random_class0(rng)
        assert a & 1 == 0
        for bit in range(1, ADDRESS_BITS):
            ones[bit] += (a >> bit) & 1
    statistic = sum((ones[bit] - n / 2) ** 2 / (n / 4)
                    for bit in range(1, ADDRESS_BITS))
    assert statistic < 203.39975236506424


def test_directional_addresses_are_distinct_class_124():
    cw = directional_address(Direction.CLOCKWISE)
    ccw = directional_address(Direction.COUNTERCLOCKWISE)
    assert cw != ccw
    assert naive_class(cw) == 124
    assert naive_class(ccw) == 124
    assert cw == CLOCKWISE_ADDRESS
    assert ccw == COUNTERCLOCKWISE_ADDRESS
    assert direction_of(cw) is Direction.CLOCKWISE
    assert direction_of(ccw) is Direction.COUNTERCLOCKWISE
    assert direction_of(2) is None


@given(addresses)
def test_hex_round_trip(a):
    text = format_address(a)
    assert len(text) == 40
    assert text == text.lower()
    assert parse_address(text) == a


@given(addresses)
def test_bytes_round_trip(a):
    raw = address_to_bytes(a)
    assert len(raw) == 20
    assert int.from_bytes(raw, "big") == a


def test_parse_address_rejects_bad_length():
    with pytest.raises(ValueError):
        parse_address("abc")


def test_parse_address_takes_either_case():
    assert parse_address("AbCd" * 10) == int("abcd" * 10, 16)


@pytest.mark.parametrize("text", [
    "-" + "1" * 39,        # a sign: int() would give a negative address
    "0x" + "a" * 38,       # a base prefix
    "1_" + "2" * 38,       # a digit separator
    " " + "a" * 40,        # surrounding white space
    "a" * 40 + "\n",
    "\u0663" * 40,         # Arabic-Indic digits
])
def test_parse_address_takes_only_40_ascii_hex_digits(text):
    with pytest.raises(ValueError, match="40 hex digits"):
        parse_address(text)
