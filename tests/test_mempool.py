"""PacketPool edge cases: exhaustion, double-release, refcounts, reuse.

The mempool's safety contract (mirroring ``rte_mempool`` + the paper's
refcounted mbufs, §4.1–4.2): exhaustion is an observable pressure
signal, never a crash; a buffer can only return to the slab once; a
buffer shared by parallel NFs returns only when the last holder drops
it; and a reused buffer never leaks the previous tenant's headers,
annotations, or identity.
"""

import pytest

from repro.dataplane import NfvHost
from repro.net import FiveTuple
from repro.net.headers import PROTO_TCP
from repro.net.mempool import DEFAULT_POOL_SIZE, PacketPool
from repro.net.packet import Packet
from repro.nfs import NoOpNf
from repro.sim import MS
from repro.workloads import FlowSpec, PktGen

from tests.conftest import install_chain


@pytest.fixture
def pool() -> PacketPool:
    return PacketPool(capacity=2)


def _flow(i: int = 1) -> FiveTuple:
    return FiveTuple(src_ip=f"10.0.0.{i}", dst_ip="10.0.1.1",
                     protocol=PROTO_TCP, src_port=1000 + i, dst_port=80)


class TestExhaustion:
    def test_fallback_is_counted_not_fatal(self, pool):
        held = [pool.alloc(flow=_flow(i)) for i in range(2)]
        overflow = pool.alloc(flow=_flow(9))
        assert overflow.pool is None  # heap fallback, reclaim ignores it
        assert pool.exhausted == 1
        assert pool.created == 2  # capacity respected: slab never grew
        assert all(p.pool is pool for p in held)

    def test_fallback_packet_is_not_reclaimable(self, pool):
        pool.alloc(flow=_flow(1)), pool.alloc(flow=_flow(2))
        overflow = pool.alloc(flow=_flow(3))
        overflow.release()
        assert pool.reclaim(overflow) is False
        assert pool.free_count == 0

    def test_zero_capacity_disables_pooling(self):
        pool = PacketPool(capacity=0)
        packet = pool.alloc(flow=_flow())
        assert packet.pool is None
        assert pool.exhausted == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            PacketPool(capacity=-1)


class TestDoubleRelease:
    def test_release_below_zero_raises(self, pool):
        packet = pool.alloc(flow=_flow())
        assert packet.release() is True
        with pytest.raises(RuntimeError):
            packet.release()

    def test_free_below_zero_raises(self, pool):
        packet = pool.alloc(flow=_flow())
        assert packet.free() is True
        with pytest.raises(RuntimeError):
            packet.free()

    def test_double_reclaim_inserts_once(self, pool):
        packet = pool.alloc(flow=_flow())
        packet.release()
        assert pool.reclaim(packet) is True
        assert pool.reclaim(packet) is False  # already in the slab
        assert pool.free_count == 1

    def test_reclaim_foreign_packet_refused(self, pool):
        other = PacketPool(capacity=4)
        packet = other.alloc(flow=_flow())
        packet.release()
        assert pool.reclaim(packet) is False
        assert other.reclaim(packet) is True


class TestRefCounting:
    def test_shared_buffer_returns_once(self, pool):
        """A parallel fan-out holds N references; only the last free
        returns the buffer."""
        packet = pool.alloc(flow=_flow())
        packet.add_reference(2)  # three holders total
        assert packet.free() is False
        assert packet.free() is False
        assert pool.free_count == 0  # still referenced: not reclaimable
        assert packet.free() is True
        assert pool.free_count == 1

    def test_reclaim_refuses_referenced_buffer(self, pool):
        packet = pool.alloc(flow=_flow())
        assert pool.reclaim(packet) is False  # ref_count still 1
        packet.release()
        assert pool.reclaim(packet) is True


class TestReuseHygiene:
    def test_no_state_leaks_between_tenants(self, pool):
        first = pool.alloc(flow=_flow(1), size=256, payload="secret")
        first.annotations["sampled"] = True
        _ = first.eth, first.ip, first.l4  # materialize headers
        first.free()

        second = pool.alloc(flow=_flow(2), size=64, payload="")
        assert second is first  # the buffer really was reused
        assert second.payload == ""
        assert second.size == 64
        assert second.flow == _flow(2)
        assert second._annotations is None  # scratch dropped, not leaked
        assert second._eth is None and second._ip is None
        assert second._l4 is None
        # Lazy headers re-derive from the *new* flow.
        assert second.ip.src_ip == "10.0.0.2"

    def test_fresh_packet_id_on_reuse(self, pool):
        first = pool.alloc(flow=_flow())
        first_id = first.packet_id
        first.free()
        second = pool.alloc(flow=_flow())
        assert second.packet_id > first_id

    def test_ref_count_rewound_to_one(self, pool):
        packet = pool.alloc(flow=_flow())
        packet.add_reference(3)
        for _ in range(4):
            packet.free()
        reused = pool.alloc(flow=_flow())
        assert reused is packet
        assert reused.ref_count == 1


class TestStatsMirroring:
    def test_counters_mirror_into_host_stats(self, sim):
        host = NfvHost(sim, name="pooled")
        pool = PacketPool(2, stats=host.stats)
        pool.alloc(flow=_flow(1))
        hit_source = pool.alloc(flow=_flow(2))
        hit_source.free()
        pool.alloc(flow=_flow(3))  # hit
        pool.alloc(flow=_flow(4))  # miss + exhausted (heap fallback)
        stats = host.stats
        assert (stats.pool_hits, stats.pool_misses,
                stats.pool_exhausted) == (pool.hits, pool.misses,
                                          pool.exhausted) == (1, 3, 1)
        summary = stats.summary()
        assert summary["pool_hits"] == 1
        assert summary["pool_misses"] == 3
        assert summary["pool_exhausted"] == 1

    def test_default_pool_capacity(self, sim):
        host = NfvHost(sim, name="default")
        assert host.packet_pool.capacity == DEFAULT_POOL_SIZE


class TestHostReuse:
    def test_fig7_run_reuses_buffers(self, sim):
        """A default Fig. 7-style host recycles its buffers: the
        generator's allocations are served from retired packets, and the
        slab never runs dry."""
        host = NfvHost(sim, name="reuse")
        for service in ("noop0", "noop1"):
            host.add_nf(NoOpNf(service), ring_slots=256)
        install_chain(host, ["noop0", "noop1"])
        gen = PktGen(sim, host, window_ns=MS)
        gen.add_flow(FlowSpec(flow=_flow(), rate_mbps=8_000.0,
                              packet_size=64, stop_ns=2 * MS))
        sim.run(until=3 * MS)
        pool = host.packet_pool
        assert pool.hits > 0
        assert host.stats.pool_exhausted == 0
        assert gen.received > 1000


class TestPlainPackets:
    def test_plain_packet_free_is_noop_recycle(self):
        packet = Packet(flow=_flow())
        assert packet.pool is None
        assert packet.free() is True  # refcount drops; nothing to reclaim
