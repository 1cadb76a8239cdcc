"""Connection table: version stamps and the near-set views cached on them."""

from hypothesis import example, given, strategies as st

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
    return sorted((c for c in table.by_peer.values() if NEAR in c.roles),
                  key=lambda c: directed_distance(table.owner, c.peer, direction))


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


# Offsets from the owner's antipode, the one address both sides could claim.
_around_antipode = st.sampled_from([-1, 0, 1])


@given(addr, st.lists(st.tuples(addr, role_sets), max_size=8),
       st.lists(st.tuples(_around_antipode, role_sets), max_size=3),
       st.lists(addr, max_size=6))
@example(0, [], [(0, {NEAR})], [])
def test_views_match_recomputed_near_set(owner, peers, at_antipode, listed):
    """The views equal the reference functions', also for peers and listed
    addresses at the owner's antipode and one address either side of it."""
    antipode = (owner + HALF_MODULUS) % MODULUS
    peers = peers + [((antipode + d) % MODULUS, roles) for d, roles in at_antipode]
    listed = listed + [(antipode + d) % MODULUS for d in (-1, 0, 1)]
    table = make_table(owner, peers)
    assert table.near_sorted() == ref_near_sorted(table, Direction.CLOCKWISE)
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
    # Ownership is read by nothing keyed on the version.
    assert table.initiated_shortcuts() == []
    assert bumps(lambda: table.set_initiated_shortcut(conn, True, 7)) == 0
    assert table.initiated_shortcuts() == [conn] and conn.sampled_gap == 7
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



_pool = st.sampled_from([3, 1 << 80, MODULUS - 1, 12345, HALF_MODULUS,
                         MODULUS - (1 << 90)])
_roles = st.sampled_from([NEAR, SHORTCUT, LEAF])
_tas = st.lists(st.sampled_from(["ring.udp:10.0.0.1:7000", "ring.tcp:10.0.0.1:7000",
                                 "ring.udp:10.0.0.2:7000"]), max_size=2)
_writes = st.one_of(
    st.tuples(st.just("add"), _pool, role_sets, _tas),
    st.tuples(st.just("remove"), _pool),
    st.tuples(st.just("add_role"), _pool, _roles),
    st.tuples(st.just("discard_role"), _pool, _roles),
    st.tuples(st.just("add_tas"), _pool, _tas),
    st.tuples(st.just("set_initiated_shortcut"), _pool, st.booleans(),
              st.sampled_from([None, 7, 1 << 150])),
)


def cached_reads(table):
    """Every read the table keeps between writes; a list read as the
    identities of its connections."""
    def ids(conns):
        return [id(c) for c in conns]
    return {
        "near": ids(table.near()),
        "neighbor_listing": table.neighbor_listing(),
        "encoded_listing": table.encoded_listing(),
        "near_bounds": table.near_bounds(),
        "side_size": [table.side_size(d) for d in Direction],
        "gap_estimate": table.gap_estimate(),
        "near_keep_set": table.near_keep_set(),
        "structured_peers": table.structured_peers(),
        "with_role": [ids(table.with_role(role)) for role in (LEAF, NEAR, SHORTCUT)],
        "initiated_shortcuts": ids(table.initiated_shortcuts()),
    }


def assert_reads_equal_a_recompute(table):
    """Each cached read equals the read of a new table over the same entries."""
    fresh = ConnectionTable(table.owner)
    fresh.by_peer = dict(table.by_peer)
    assert cached_reads(table) == cached_reads(fresh)


@given(st.lists(_writes, max_size=30))
def test_structured_peers_follow_every_write(writes):
    """After every write, each cached read equals a recompute: the reads
    of a new table over the same entries."""
    table = ConnectionTable(0)
    returned = []
    for op, peer, *args in writes:
        conn = table.get(peer)
        if op == "add":
            table.add(Connection(peer, None, frozenset(args[0]), tuple(args[1])))
        elif op == "remove":
            table.remove(peer)
        elif conn is not None:
            getattr(table, op)(conn, *args)
        got = table.structured_peers()
        assert got == tuple(sorted(c.peer for c in table.by_peer.values()
                                   if c.is_structured()))
        assert table.structured_peers() is got
        assert_reads_equal_a_recompute(table)
        for read in (table.near(), table.with_role(LEAF), table.initiated_shortcuts()):
            returned.append((read, list(read)))
        returned.append((got, list(got)))
    # What an earlier call returned stays as it was after later writes.
    for got, then in returned:
        assert list(got) == then
