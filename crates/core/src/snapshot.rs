//! Unified, serializable view of every statistics domain in the stack.
//!
//! The cache ([`CacheStats`]), NVM device ([`NvmStats`]), backing disk
//! ([`DiskStats`]) and pool health ([`Health`]) each keep their own
//! counters; figure harnesses and telemetry exporters want them as one
//! coherent object stamped with the simulated time they were taken at.
//! [`StatsSnapshot`] is that object, with a JSON rendering (via
//! [`telemetry::Json`]; each domain's keys come from its
//! `telemetry::counters!` field list) so benches can emit machine-readable
//! results without a serialization dependency.

use blockdev::DiskStats;
use nvmsim::NvmStats;
use telemetry::Json;

use crate::cache::Health;
use crate::{CacheStats, TincaPool};

/// One coherent sample of every counter domain, stamped with the simulated
/// clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Simulated nanoseconds at sampling time.
    pub sim_ns: u64,
    /// Cache-level counters (pool-wide sum when taken from a pool).
    pub cache: CacheStats,
    /// NVM device counters (summed over shard devices for a pool).
    pub nvm: NvmStats,
    /// Backing-disk counters.
    pub disk: DiskStats,
    /// Fault condition at sampling time.
    pub health: Health,
}

impl StatsSnapshot {
    /// Samples a pool: cache and NVM counters are summed over shards, the
    /// disk is shared (read once), and `sim_ns` is shard 0's clock.
    pub fn collect_pool(pool: &TincaPool) -> StatsSnapshot {
        let nvm = (0..pool.shard_count()).fold(NvmStats::default(), |acc, s| {
            acc.merge(&pool.shard_nvm(s).stats())
        });
        StatsSnapshot {
            sim_ns: pool.shard_nvm(0).clock().now_ns(),
            cache: pool.stats(),
            nvm,
            disk: pool.disk().stats(),
            health: pool.health(),
        }
    }

    /// Per-domain difference `self - earlier` (all counters are monotone).
    /// Health is *not* differenced: the later sample's condition stands.
    pub fn delta(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            sim_ns: self.sim_ns - earlier.sim_ns,
            cache: self.cache.delta(&earlier.cache),
            nvm: self.nvm.delta(&earlier.nvm),
            disk: self.disk.delta(&earlier.disk),
            health: self.health,
        }
    }

    /// JSON value with one object per domain, field names matching the
    /// Rust struct fields.
    pub fn to_json(&self) -> Json {
        let (status, quarantined) = match self.health {
            Health::Healthy => ("healthy", 0u64),
            Health::Degraded { quarantined } => ("degraded", quarantined as u64),
            Health::ReadOnly => ("read_only", 0),
        };
        Json::obj(vec![
            ("sim_ns", self.sim_ns.into()),
            ("cache", self.cache.to_json()),
            ("nvm", self.nvm.to_json()),
            ("disk", self.disk.to_json()),
            (
                "health",
                Json::obj(vec![
                    ("status", status.into()),
                    ("quarantined", quarantined.into()),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PoolConfig;
    use blockdev::{DiskKind, SimDisk};
    use nvmsim::{NvmConfig, NvmDevice, NvmTech, SimClock};

    fn pool() -> TincaPool {
        let clock = SimClock::new();
        let nvm = NvmDevice::new(NvmConfig::new(1 << 20, NvmTech::Pcm), clock.clone());
        let disk = SimDisk::new(DiskKind::Ssd, 1 << 14, clock);
        let mut cfg = PoolConfig::with_shards(1);
        cfg.cache.ring_bytes = 4096;
        TincaPool::format(vec![nvm], disk, cfg)
    }

    fn commit_one(p: &TincaPool, blk: u64, byte: u8) {
        let mut t = p.init_txn();
        t.write(blk, &[byte; blockdev::BLOCK_SIZE]);
        p.commit(t).unwrap();
    }

    #[test]
    fn collect_stamps_clock_and_domains() {
        let p = pool();
        commit_one(&p, 3, 7);
        let s = StatsSnapshot::collect_pool(&p);
        assert_eq!(s.cache.commits, 1);
        assert!(s.nvm.clflush > 0, "commit must flush lines");
        assert_eq!(s.sim_ns, p.shard_nvm(0).clock().now_ns());
        assert_eq!(s.health, Health::Healthy);
    }

    #[test]
    fn delta_isolates_an_interval() {
        let p = pool();
        commit_one(&p, 1, 1);
        let mid = StatsSnapshot::collect_pool(&p);
        commit_one(&p, 2, 2);
        let end = StatsSnapshot::collect_pool(&p);
        let d = end.delta(&mid);
        assert_eq!(d.cache.commits, 1);
        assert!(d.sim_ns > 0);
    }

    #[test]
    fn json_round_trips_field_names() {
        let rendered = StatsSnapshot::collect_pool(&pool()).to_json().render();
        for key in ["sim_ns", "\"cache\"", "\"nvm\"", "\"disk\"", "\"health\""] {
            assert!(rendered.contains(key), "missing {key} in {rendered}");
        }
        assert!(rendered.contains("\"status\":\"healthy\""));
    }
}
