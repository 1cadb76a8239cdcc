"""160-bit ring address arithmetic.

Addresses are plain Python ints in ``[0, 2**160)``.  The space wraps
around, forming a ring whose values increase in the clockwise direction.
Every address belongs to exactly one of 161 classes, given by the run of
consecutive 1-bits at its least significant end; even (class-0) addresses
identify ring nodes, and two fixed class-124 constants name the two ring
directions for hop-limited routing.

All functions here are pure and safe for unrestricted concurrent use.
"""

from __future__ import annotations

import enum
from random import Random

ADDRESS_BITS = 160
ADDRESS_BYTES = 20
MODULUS = 1 << ADDRESS_BITS
HALF_MODULUS = 1 << (ADDRESS_BITS - 1)
_fromhex, _from_bytes = bytes.fromhex, int.from_bytes

DIRECTIONAL_CLASS = 124


class Direction(enum.Enum):
    """The two senses of travel along the ring."""

    CLOCKWISE = "cw"
    COUNTERCLOCKWISE = "ccw"


# Class-124 addresses end in one 0-bit followed by 124 1-bits; the 35 bits
# above bit 124 are free.  Clockwise keeps them all zero, counterclockwise
# sets the lowest free bit.
CLOCKWISE_ADDRESS = (1 << DIRECTIONAL_CLASS) - 1
COUNTERCLOCKWISE_ADDRESS = (1 << (DIRECTIONAL_CLASS + 1)) | CLOCKWISE_ADDRESS

_DIRECTIONAL = {
    Direction.CLOCKWISE: CLOCKWISE_ADDRESS,
    Direction.COUNTERCLOCKWISE: COUNTERCLOCKWISE_ADDRESS,
}
_DIRECTION_OF = {v: k for k, v in _DIRECTIONAL.items()}


def ring_distance(a: int, b: int) -> int:
    """Shorter arc between two addresses; symmetric, at most 2**159."""
    d = (a - b) % MODULUS
    return d if d <= HALF_MODULUS else MODULUS - d


def directed_distance(a: int, b: int, direction: Direction) -> int:
    """Arc length from ``a`` to ``b`` traveling in ``direction``."""
    if direction is Direction.CLOCKWISE:
        return (b - a) % MODULUS
    return (a - b) % MODULUS


def random_class0(rng: Random) -> int:
    """Uniform random even address, reproducible for a seeded ``rng``."""
    return rng.getrandbits(ADDRESS_BITS) & (MODULUS - 2)


def directional_address(direction: Direction) -> int:
    return _DIRECTIONAL[direction]


# Inverse of directional_address, None otherwise; a lookup with no Python frame.
direction_of = _DIRECTION_OF.get


def format_address(a: int) -> str:
    """40 lowercase hex digits, most significant first."""
    return format(a, "040x")


def parse_address(text: str) -> int:
    """Inverse of format_address, in either case.  ``fromhex`` skips
    spaces, but 40 characters that give 20 bytes hold none."""
    try:
        raw = _fromhex(text)
    except ValueError:
        raw = b""
    if len(raw) != ADDRESS_BYTES or len(text) != 2 * ADDRESS_BYTES:
        raise ValueError(f"address must be {2 * ADDRESS_BYTES} hex digits: {text!r}")
    return _from_bytes(raw, "big")


def address_to_bytes(a: int) -> bytes:
    return a.to_bytes(ADDRESS_BYTES, "big")

