"""Integer-indexed route enumeration against the ``NodeId`` walk.

:meth:`Topology.candidate_paths` and ``_distances_to`` run on the
topology's integer view.  The functions below, marked ORACLE, are the
enumeration as it was written over ``NodeId`` vertices (dict-keyed BFS,
recursive walk over the sorted adjacency).  They exist only to pin the
integer version: every family, every host pair, truncation at several
``max_paths`` caps, and :func:`failover_route` under failed links and
switches must give exactly the same paths in exactly the same order.
"""

import random
from types import SimpleNamespace

import pytest

from repro.network.routing import failover_route
from repro.network.topologies import build_topology
from repro.network.topology import MAX_CANDIDATE_PATHS

FAMILY_CASES = (
    ("fitted", 20),
    ("xgft:children=4x3,parents=1x2", 12),
    ("torus:k=3,n=2", 9),
    ("torus:k=4,n=3", 64),
    ("dragonfly:a=2,p=2,h=1", 12),
    ("fattree2:leaf=4,ratio=2", 16),
)

CAPS = (1, 2, 5, MAX_CANDIDATE_PATHS)


def oracle_distances(topo, target):
    """ORACLE: hop distances to ``target`` by BFS over ``NodeId``s."""

    dist = {target: 0}
    frontier = [target]
    while frontier:
        nxt = []
        for node in frontier:
            d = dist[node] + 1
            for nb in topo.adjacency[node]:
                if nb not in dist:
                    dist[nb] = d
                    nxt.append(nb)
        frontier = nxt
    return dist


def oracle_candidate_paths(topo, src_host, dst_host,
                           max_paths=MAX_CANDIDATE_PATHS):
    """ORACLE: minimal paths by recursive walk over ``NodeId``s."""

    src, dst = topo.host(src_host), topo.host(dst_host)
    if src == dst:
        return ((src,),)
    dist = oracle_distances(topo, dst)
    if src not in dist:
        raise ValueError("disconnected")
    found = []
    stack = [src]

    def extend(node):
        if len(found) >= max_paths:
            return
        if node == dst:
            found.append(tuple(stack))
            return
        want = dist[node] - 1
        for nb in topo.adjacency[node]:
            if dist.get(nb) == want:
                stack.append(nb)
                extend(nb)
                stack.pop()
                if len(found) >= max_paths:
                    return

    extend(src)
    return tuple(found)


def _pairs(topo, limit=400):
    n = topo.num_hosts
    pairs = [(s, d) for s in range(n) for d in range(n)]
    if len(pairs) > limit:
        pairs = random.Random(n).sample(pairs, limit)
    return pairs


@pytest.fixture(scope="module", params=FAMILY_CASES, ids=lambda c: c[0])
def topo(request):
    spec, nranks = request.param
    return build_topology(spec, nranks)


def test_distances_match_the_oracle(topo):
    for node in topo.hosts + topo.switches:
        assert topo._distances_to(node) == oracle_distances(topo, node)


def test_candidate_paths_match_the_oracle(topo):
    for src, dst in _pairs(topo):
        want = oracle_candidate_paths(topo, src, dst)
        assert topo.candidate_paths(src, dst) == want, (src, dst)


def test_truncation_matches_the_oracle(topo):
    multi = 0
    for src, dst in _pairs(topo, limit=150):
        if src == dst:
            continue  # a loopback is its one-node path whatever the cap
        full = oracle_candidate_paths(topo, src, dst)
        multi += len(full) > 1
        for cap in CAPS + (0,):
            want = oracle_candidate_paths(topo, src, dst, cap)
            assert want == full[:cap]
            assert topo.candidate_paths(src, dst, cap) == want, (src, dst, cap)
    assert multi, "no pair with routing freedom: truncation went untested"


def test_cache_serves_each_cap_its_own_answer(topo):
    src, dst = 0, topo.num_hosts - 1
    first = topo.candidate_paths(src, dst, 1)
    full = topo.candidate_paths(src, dst)
    assert first == full[:1]
    assert topo.candidate_paths(src, dst) is full
    assert topo.candidate_paths(src, dst, 1) is first


def test_paths_reuse_the_topology_nodes(topo):
    """Returned paths hold the graph's own ``NodeId`` objects."""

    own = {id(node) for node in topo.adjacency}
    for path in topo.candidate_paths(0, topo.num_hosts - 1):
        assert all(id(node) in own for node in path)


def test_failover_route_matches_the_oracle(topo):
    oracle_topo = SimpleNamespace(
        candidate_paths=lambda s, d: oracle_candidate_paths(topo, s, d)
    )
    edges = [(a, b) if a <= b else (b, a) for a, b in topo.edges]
    trunks = [e for e in edges if not (e[0].is_host or e[1].is_host)]
    rng = random.Random(7)
    partitioned = survived = 0
    for trial in range(40):
        failed_links = frozenset(rng.sample(trunks, min(len(trunks), trial % 5)))
        failed_switches = frozenset(
            rng.sample(topo.switches, min(len(topo.switches), trial % 3))
        )
        for src, dst in rng.sample(_pairs(topo), 10):
            for seed in (None, 3):
                kwargs = dict(failed_links=failed_links,
                              failed_switches=failed_switches,
                              seed=seed, salt=trial)
                want = failover_route(oracle_topo, src, dst, **kwargs)
                got = failover_route(topo, src, dst, **kwargs)
                assert got == want, (trial, src, dst, seed)
                if want is None:
                    partitioned += 1
                else:
                    survived += 1
    assert survived
    if topo.family != "torus":
        # the sampled failures cut some pairs off on the sparser families
        assert partitioned
