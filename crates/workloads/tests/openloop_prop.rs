//! Property tests for the open-loop tier: seeded streams are replay-
//! identical, whole runs are deterministic, and the harness actually
//! avoids coordinated omission (a stalled shard must inflate p999).

use blockdev::{DiskKind, SimDisk};
use nvmsim::{shard_devices, NvmConfig, NvmTech, SimClock};
use proptest::prelude::*;
use tinca::{PoolConfig, TincaConfig, TincaPool};
use workloads::openloop::{
    Arrival, ArrivalStream, Arrivals, OpKind, OpenLoopDriver, OpenLoopServer, OpenLoopSpec,
    TincaServer,
};

fn spec(seed: u64, rate: f64) -> OpenLoopSpec {
    OpenLoopSpec {
        users: 100_000,
        arrivals: Arrivals::Poisson {
            rate_ops_per_sec: rate,
        },
        ops: 300,
        read_pct: 30,
        blocks: 256,
        txn_blocks: 2,
        queue_cap: 0,
        seed,
    }
}

fn make_pool(shards: usize) -> (TincaPool, SimClock) {
    let devices = shard_devices(&NvmConfig::new(shards * (2 << 20), NvmTech::Pcm), shards);
    let disk_clock = SimClock::new();
    let disk = SimDisk::new(DiskKind::Ssd, 1 << 16, disk_clock.clone());
    let pool = TincaPool::format(
        devices,
        disk,
        PoolConfig {
            shards,
            cache: TincaConfig {
                ring_bytes: 4096,
                ..TincaConfig::default()
            },
            ..PoolConfig::default()
        },
    );
    (pool, disk_clock)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same seed ⇒ bit-identical arrival stream, for any shard count;
    /// different seeds diverge.
    #[test]
    fn seeded_streams_are_replay_identical(
        seed in 0u64..1_000_000,
        rate_kops in 1u64..10_000,
        shards in 1usize..=8,
    ) {
        let rate = rate_kops as f64 * 1000.0;
        let s = spec(seed, rate);
        let a: Vec<Arrival> = ArrivalStream::new(&s, shards).collect();
        let b: Vec<Arrival> = ArrivalStream::new(&s, shards).collect();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.len(), s.ops as usize);
        // Arrival times are non-decreasing (a stream is a timeline).
        for w in a.windows(2) {
            prop_assert!(w[0].at_ns <= w[1].at_ns);
        }
        let other = spec(seed.wrapping_add(1), rate);
        let c: Vec<Arrival> = ArrivalStream::new(&other, shards).collect();
        prop_assert!(a != c, "different seeds must diverge");
    }
}

/// A whole run — histograms included — replays identically on a fresh
/// pool: the tier is a deterministic discrete-event simulation.
#[test]
fn full_run_is_replay_identical() {
    let run = |rate: f64| {
        let (pool, disk_clock) = make_pool(4);
        let server = TincaServer::new(&pool, disk_clock);
        OpenLoopDriver::new(spec(0xDE7, rate), server).run()
    };
    for rate in [5_000.0, 50_000_000.0] {
        let a = run(rate);
        let b = run(rate);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.horizon_ns, b.horizon_ns);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.queue_wait, b.queue_wait);
        assert_eq!(a.service, b.service);
        assert_eq!(a.shard_latency, b.shard_latency);
    }
}

/// Wraps a server and injects one long stall (a GC pause / device
/// hiccup) into a single op's service on one shard.
struct StallingServer<'a> {
    inner: TincaServer<'a>,
    stall_shard: usize,
    stall_at_op: u64,
    stall_ns: u64,
    served: u64,
}

impl OpenLoopServer for StallingServer<'_> {
    fn shards(&self) -> usize {
        self.inner.shards()
    }
    fn shard_of(&self, op: &OpKind) -> usize {
        self.inner.shard_of(op)
    }
    fn now_ns(&self, s: usize) -> u64 {
        self.inner.now_ns(s)
    }
    fn advance_to(&mut self, s: usize, at_ns: u64) {
        self.inner.advance_to(s, at_ns);
    }
    fn serve(&mut self, op: &OpKind) -> Result<(), String> {
        let s = self.shard_of(op);
        if s == self.stall_shard {
            if self.served == self.stall_at_op {
                // One op stalls; everything queued behind it waits.
                self.inner.advance_to(s, self.now_ns(s) + self.stall_ns);
            }
            self.served += 1;
        }
        self.inner.serve(op)
    }
}

/// The coordinated-omission test: one 50 ms stall early in the run must
/// surface in the *arrival-to-completion* tail, because every arrival
/// behind the stalled op keeps arriving on schedule and queues. A
/// closed-loop harness (which measures only per-op service time and
/// issues the next op after the previous returns) would record one slow
/// op and at most a handful of normal ones — the stall would vanish from
/// its tail.
#[test]
fn stalled_shard_inflates_p999_not_service_bulk() {
    const STALL_NS: u64 = 50_000_000; // 50 ms
    let s = OpenLoopSpec {
        ops: 2_000,
        // ~20k ops/s: ~1000 arrivals land during a 50 ms stall.
        ..spec(0xC0, 20_000.0)
    };

    let (pool, disk_clock) = make_pool(2);
    let baseline = OpenLoopDriver::new(s.clone(), TincaServer::new(&pool, disk_clock)).run();

    let (pool2, disk_clock2) = make_pool(2);
    let stalled = OpenLoopDriver::new(
        s,
        StallingServer {
            inner: TincaServer::new(&pool2, disk_clock2),
            stall_shard: 0,
            stall_at_op: 100,
            stall_ns: STALL_NS,
            served: 0,
        },
    )
    .run();

    // The stall dominates the arrival-to-completion tail...
    let p999 = stalled.p999().unwrap();
    assert!(
        p999 >= STALL_NS / 2,
        "p999={p999} does not reflect the {STALL_NS} ns stall"
    );
    assert!(p999 > 10 * baseline.p999().unwrap());
    // ...and it is queue wait, not service time, that carries it: the
    // bulk of services are untouched (the closed-loop blind spot).
    assert!(stalled.queue_wait.p99().unwrap() >= STALL_NS / 4);
    assert!(stalled.service.p50().unwrap() < STALL_NS / 100);
}
