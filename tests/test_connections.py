"""Connection table: version stamps and the near-set views cached on them."""

from hypothesis import given, strategies as st

from ringnet import messages
from ringnet.address import HALF_MODULUS, MODULUS, Direction, directed_distance
from ringnet.connections import (
    LEAF,
    NEAR,
    NEAR_PER_SIDE,
    SHORTCUT,
    Connection,
    ConnectionTable,
)

addr = st.integers(0, MODULUS - 1)
role_sets = st.sets(st.sampled_from([NEAR, SHORTCUT, LEAF]), min_size=1)


def make_table(owner, peers):
    table = ConnectionTable(owner)
    for i, (peer, roles) in enumerate(peers):
        if peer != owner:
            table.add(Connection(peer, None, frozenset(roles), (f"ring.udp:10.0.0.{i}:7000",)))
    return table


# Reference versions: the near set recomputed from scratch on every call.

def ref_near_sorted(table, direction):
    conns = table.with_role(NEAR)
    conns.sort(key=lambda c: directed_distance(table.owner, c.peer, direction))
    return conns


def ref_candidate(table, a):
    def side_of(x):
        if directed_distance(table.owner, x, Direction.CLOCKWISE) <= HALF_MODULUS:
            return Direction.CLOCKWISE
        return Direction.COUNTERCLOCKWISE
    direction = side_of(a)
    side = [c for c in ref_near_sorted(table, direction) if side_of(c.peer) is direction]
    if len(side) < NEAR_PER_SIDE:
        return True
    worst = directed_distance(table.owner, side[NEAR_PER_SIDE - 1].peer, direction)
    return directed_distance(table.owner, a, direction) < worst


def ref_listing(table):
    seen = {}
    for direction in Direction:
        for c in ref_near_sorted(table, direction)[:NEAR_PER_SIDE]:
            seen.setdefault(c.peer, tuple(c.peer_tas[:3]))
    return tuple(seen.items())


def ref_gap(table):
    spans = count = 0
    for direction in Direction:
        ordered = ref_near_sorted(table, direction)[:NEAR_PER_SIDE]
        if not ordered:
            return None
        spans += directed_distance(table.owner, ordered[-1].peer, direction)
        count += len(ordered)
    return max(1, spans // count)


@given(addr, st.lists(st.tuples(addr, role_sets), max_size=8),
       st.lists(addr, max_size=6))
def test_views_match_recomputed_near_set(owner, peers, listed):
    table = make_table(owner, peers)
    for direction in Direction:
        assert table.near_sorted(direction) == ref_near_sorted(table, direction)
    on_cw = [c for c in table.near()
             if directed_distance(owner, c.peer, Direction.CLOCKWISE) <= HALF_MODULUS]
    assert table.side_size(Direction.CLOCKWISE) == len(on_cw)
    assert table.side_size(Direction.COUNTERCLOCKWISE) == len(table.near()) - len(on_cw)
    assert table.neighbor_listing() == ref_listing(table)
    assert table.encoded_listing() == messages.encode_neighbors(ref_listing(table))
    assert table.gap_estimate() == ref_gap(table)
    assert table.near_keep_set() == {c.peer for d in Direction
                                     for c in ref_near_sorted(table, d)[:NEAR_PER_SIDE]}
    cw_bound, ccw_bound = table.near_bounds()
    for a in listed:
        if a == owner:
            continue
        cw = (a - owner) % MODULUS
        closer = cw < cw_bound if cw <= HALF_MODULUS else MODULUS - cw < ccw_bound
        assert closer == ref_candidate(table, a)


def test_every_write_bumps_the_version_and_refreshes_views():
    table = ConnectionTable(0)
    udp, tcp = "ring.udp:10.0.0.1:7000", "ring.tcp:10.0.0.1:7000"
    conn = Connection(100, None, frozenset({SHORTCUT}), (udp,))

    def bumps(write):
        before = table.version
        write()
        return table.version - before

    assert bumps(lambda: table.add(conn)) == 1
    assert table.neighbor_listing() == ()
    assert bumps(lambda: table.add_role(conn, NEAR)) == 1
    assert table.neighbor_listing() == ((100, (udp,)),)
    assert bumps(lambda: table.add_role(conn, NEAR)) == 0
    assert bumps(lambda: table.add_tas(conn, [udp, tcp])) == 1
    assert table.neighbor_listing() == ((100, (udp, tcp)),)
    assert bumps(lambda: table.add_tas(conn, [tcp])) == 0
    assert bumps(lambda: table.discard_role(conn, NEAR)) == 1
    assert table.neighbor_listing() == ()
    assert bumps(lambda: table.discard_role(conn, NEAR)) == 0
    assert bumps(lambda: table.remove(100)) == 1
    assert bumps(lambda: table.remove(100)) == 0



_pool = st.sampled_from([3, 1 << 80, MODULUS - 1, 12345])
_tas = st.lists(st.sampled_from(["ring.udp:10.0.0.1:7000", "ring.tcp:10.0.0.1:7000",
                                 "ring.udp:10.0.0.2:7000"]), max_size=2)
_writes = st.one_of(
    st.tuples(st.just("add"), _pool, role_sets),
    st.tuples(st.just("remove"), _pool),
    st.tuples(st.just("add_role"), _pool, st.sampled_from([NEAR, SHORTCUT, LEAF])),
    st.tuples(st.just("discard_role"), _pool, st.sampled_from([NEAR, SHORTCUT, LEAF])),
    st.tuples(st.just("add_tas"), _pool, _tas),
)


@given(st.lists(_writes, max_size=30))
def test_structured_peers_follow_every_write(writes):
    table = ConnectionTable(0)
    returned = []
    for op, peer, *arg in writes:
        conn = table.get(peer)
        if op == "add":
            table.add(Connection(peer, None, frozenset(arg[0])))
        elif op == "remove":
            table.remove(peer)
        elif conn is not None:
            getattr(table, op)(conn, arg[0])
        got = table.structured_peers()
        assert got == tuple(sorted(c.peer for c in table.by_peer.values()
                                   if c.is_structured()))
        assert table.structured_peers() is got
        returned.append((got, list(got)))
    # What an earlier call returned stays as it was after later writes.
    for got, then in returned:
        assert isinstance(got, tuple) and list(got) == then
