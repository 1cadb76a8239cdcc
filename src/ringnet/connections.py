"""Typed connection table kept by every overlay node.

A connection holds the live edge to one peer plus the set of role labels
it currently serves.  A peer has at most one table entry; an entry may
carry both a near and a shortcut role (a sampled shortcut that lands on
an existing ring neighbor is recorded on the same connection rather than
opening a second edge).

Entries, their roles, their transport addresses and the node's shortcut
ownership marks are written only through the table.  Every write of an
entry, a role or a transport address bumps ``version``, which the node's
own version-keyed caches (a connection's ``zipped_version``, the near
repair's neighborhood) read.  What the table derives from its entries is
computed on first read and kept until a write that can change it:

- the near view, built from one clockwise sort of the near connections
  (their closest peers on each side, the keep set and gap estimate taken
  from them, how many lie on the clockwise side, the neighbor listing
  and its encoded bytes; it keeps no arc lengths), is dropped only by a
  write to a near connection: adding or removing one (an ``add`` that
  replaces an entry counts the old roles with the new), NEAR gained or
  lost, and ``add_tas`` on a near peer;
- ``ring``, the structured peers in address order (the sorted ring the
  routing deciders take, which a forwarding node reads without a call),
  is dropped only by a write of a NEAR or SHORTCUT role or entry;
- ``with_role(role)``, which ``near()`` reads, is dropped by writes of
  that role or of an entry holding it, and ``initiated_shortcuts()`` by
  SHORTCUT writes and by ``set_initiated_shortcut``, which bumps no
  version: nothing keyed on the version reads ownership.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .address import HALF_MODULUS, MODULUS, Direction
from . import messages

if TYPE_CHECKING:  # pragma: no cover
    from typing import Any

LEAF = "leaf"
NEAR = "structured.near"
SHORTCUT = "structured.shortcut"
# Near peers a node holds on each side of its address.
NEAR_PER_SIDE = 2

_CT_TO_LABEL = {
    messages.CT_LEAF: LEAF,
    messages.CT_NEAR: NEAR,
    messages.CT_SHORTCUT: SHORTCUT,
}


def label_for(conn_type: int) -> str:
    try:
        return _CT_TO_LABEL[conn_type]
    except KeyError:
        raise ValueError(f"unknown connection type code {conn_type}")


@dataclass(slots=True)
class Connection:
    peer: int
    edge: "Any"
    # Roles, transport addresses and shortcut ownership change only
    # through the table.
    roles: frozenset[str]
    peer_tas: tuple[str, ...] = ()
    established_at: float = 0.0
    last_seen: float = 0.0
    # True on the side that dialed the link handshake; the dialer owns
    # leaf teardown.
    initiated_by_me: bool = False
    # Set on the side that asked for the shortcut; the gap estimate used
    # at sampling time tells the maintainer when the sample has gone stale
    # relative to the current network density.
    initiated_shortcut: bool = False
    sampled_gap: int | None = None
    # Latest neighbor list received from this peer: ((addr, tas), ...).
    last_neighbors: tuple = ()
    # Table version at which last_neighbors was last zipped without a
    # dial, or -1; NodeState._process_status skips a repeat at that version.
    zipped_version: int = -1
    # Token of the node's last status probe to this peer, or 0.
    probe_token: int = 0

    def is_structured(self) -> bool:
        return NEAR in self.roles or SHORTCUT in self.roles


class _NearView:
    """What the table derives from its near connections, all from one
    ``near_sorted()``: peers are distinct and never the owner, so the
    counterclockwise order is the clockwise one reversed, and the
    clockwise side (the antipode included) is a prefix of it.  The
    listing and its bytes are built on first use; nothing is mutated
    afterwards."""

    __slots__ = ("closest", "keep", "gap", "cw_size", "listing", "encoded")

    def __init__(self, table: "ConnectionTable") -> None:
        ordered = table.near_sorted()
        owner, k = table.owner, NEAR_PER_SIDE
        # The NEAR_PER_SIDE closest clockwise, then counterclockwise; on
        # tiny rings one peer may appear in both.
        closest = self.closest = ordered[:k] + ordered[::-1][:k]
        self.keep = frozenset(c.peer for c in closest)
        self.gap: int | None = None
        if closest:
            per_side = min(k, len(ordered))
            spans = ((closest[per_side - 1].peer - owner) % MODULUS
                     + (owner - closest[-1].peer) % MODULUS)
            self.gap = max(1, spans // (2 * per_side))
        self.cw_size = bisect_right(ordered, HALF_MODULUS,
                                    key=lambda c: (c.peer - owner) % MODULUS)
        self.listing: tuple | None = None
        self.encoded: bytes | None = None


class ConnectionTable:
    """All connections of one node, indexed by peer address."""

    __slots__ = ("owner", "by_peer", "version", "ring", "_view", "_by_role", "_mine")

    def __init__(self, owner: int) -> None:
        self.owner = owner
        self.by_peer: dict[int, Connection] = {}
        self.version = 0
        self.ring: tuple[int, ...] | None = None  # None until read after a write
        self._view: _NearView | None = None
        self._by_role: dict[str, list[Connection]] = {}
        self._mine: list[Connection] | None = None

    def get(self, peer: int) -> Connection | None:
        return self.by_peer.get(peer)

    # -- writes ----------------------------------------------------------

    def _changed(self, roles) -> None:
        """Bump the version and drop what a write to an entry holding
        ``roles``, or to one of ``roles``, can change."""
        self.version += 1
        if NEAR in roles:
            self._view = self.ring = None
        elif SHORTCUT in roles:
            self.ring = None
        if SHORTCUT in roles:
            self._mine = None
        for role in roles:
            self._by_role.pop(role, None)

    def add(self, conn: Connection) -> None:
        old = self.by_peer.get(conn.peer)
        self.by_peer[conn.peer] = conn
        self._changed(conn.roles if old is None else conn.roles | old.roles)

    def remove(self, peer: int) -> Connection | None:
        conn = self.by_peer.pop(peer, None)
        if conn is not None:
            self._changed(conn.roles)
        return conn

    def add_role(self, conn: Connection, role: str) -> bool:
        """Give ``conn`` the role; False when it already had it."""
        if role in conn.roles:
            return False
        conn.roles = conn.roles | {role}
        self._changed((role,))
        return True

    def discard_role(self, conn: Connection, role: str) -> None:
        if role in conn.roles:
            conn.roles = conn.roles - {role}
            self._changed((role,))

    def add_tas(self, conn: Connection, tas) -> None:
        """Append the transport addresses ``conn`` does not list yet."""
        merged = list(conn.peer_tas)
        for ta in tas:
            if ta not in merged:
                merged.append(ta)
        if len(merged) != len(conn.peer_tas):
            conn.peer_tas = tuple(merged)
            self.version += 1
            if NEAR in conn.roles:
                self._view = None

    def set_initiated_shortcut(self, conn: Connection, initiated: bool,
                               sampled_gap: int | None = None) -> None:
        """Mark ``conn`` as a shortcut this node asked for, drawn under the
        gap estimate ``sampled_gap``, or clear the mark (see Connection)."""
        conn.initiated_shortcut = initiated
        conn.sampled_gap = sampled_gap
        self._mine = None

    # -- reads -----------------------------------------------------------

    def with_role(self, role: str) -> list[Connection]:
        """Connections holding ``role`` in table order; do not mutate the list."""
        conns = self._by_role.get(role)
        if conns is None:
            conns = self._by_role[role] = [c for c in self.by_peer.values()
                                           if role in c.roles]
        return conns

    def structured_peers(self) -> tuple[int, ...]:
        """Peers holding a near or shortcut role, in address order: the
        sorted ring the ``routing`` deciders take."""
        if self.ring is None:
            self.ring = tuple(sorted(c.peer for c in self.by_peer.values()
                                     if c.is_structured()))
        return self.ring

    def _near_view(self) -> _NearView:
        view = self._view
        if view is None:
            view = self._view = _NearView(self)
        return view

    def near(self) -> list[Connection]:
        """Near-role connections in table order; do not mutate the list."""
        return self.with_role(NEAR)

    def near_sorted(self) -> list[Connection]:
        """Near-role connections ordered by clockwise arc length."""
        owner = self.owner
        return sorted(self.near(), key=lambda c: (c.peer - owner) % MODULUS)

    def near_keep_set(self) -> frozenset[int]:
        """Peers holding a currently-required near slot."""
        return self._near_view().keep

    def neighbor_listing(self) -> tuple[tuple[int, tuple[str, ...]], ...]:
        """What a status message lists: each required near peer once, with
        up to three of its transport addresses."""
        view = self._near_view()
        if view.listing is None:
            seen: dict[int, tuple[str, ...]] = {}
            for c in view.closest:
                if c.peer not in seen:
                    seen[c.peer] = c.peer_tas[:3]
            view.listing = tuple(seen.items())
        return view.listing

    def encoded_listing(self) -> bytes:
        """``messages.encode_neighbors`` of the neighbor listing."""
        view = self._near_view()
        if view.encoded is None:
            view.encoded = messages.encode_neighbors(self.neighbor_listing())
        return view.encoded

    def gap_estimate(self) -> int | None:
        """Mean gap between the owner and its required near peers; None
        until there is a near peer."""
        return self._near_view().gap

    def side_size(self, direction: Direction) -> int:
        """How many near peers lie on the ``direction`` side of the ring:
        clockwise those at most half the ring away clockwise (the antipode
        included), counterclockwise the rest."""
        cw_size = self._near_view().cw_size
        if direction is Direction.CLOCKWISE:
            return cw_size
        return len(self.near()) - cw_size

    def near_bounds(self) -> tuple[int, int]:
        """Clockwise and counterclockwise arc length of the
        ``NEAR_PER_SIDE``-th closest near peer on that side; an address
        strictly closer on its side belongs in the near set.  MODULUS for
        a side with fewer peers, where every address qualifies."""
        k, owner = NEAR_PER_SIDE, self.owner
        view = self._near_view()
        cw_size, ccw_size = view.cw_size, len(self.near()) - view.cw_size
        return ((view.closest[k - 1].peer - owner) % MODULUS if cw_size >= k else MODULUS,
                (owner - view.closest[-1].peer) % MODULUS if ccw_size >= k else MODULUS)

    def initiated_shortcuts(self) -> list[Connection]:
        """Shortcuts this node asked for, in table order; do not mutate
        the list."""
        if self._mine is None:
            self._mine = [c for c in self.by_peer.values()
                          if SHORTCUT in c.roles and c.initiated_shortcut]
        return self._mine
