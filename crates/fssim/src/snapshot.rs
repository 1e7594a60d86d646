//! Cache-level counters surfaced through the cache layer (Fig. 12(c)
//! reports write hit rates; figure harnesses read them via
//! [`crate::Backend::cache_snapshot`]).

telemetry::counters! {
    /// Cache counters independent of which cache sits below the file system.
    pub struct CacheSnapshot {
        pub write_hits: u64,
        pub write_misses: u64,
        pub read_hits: u64,
        pub read_misses: u64,
        pub evictions: u64,
        pub writebacks: u64,
    }
}

impl CacheSnapshot {
    pub fn write_hit_rate(&self) -> Option<f64> {
        let t = self.write_hits + self.write_misses;
        (t > 0).then(|| self.write_hits as f64 / t as f64)
    }

    pub fn read_hit_rate(&self) -> Option<f64> {
        let t = self.read_hits + self.read_misses;
        (t > 0).then(|| self.read_hits as f64 / t as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_rates() {
        let s = CacheSnapshot {
            write_hits: 9,
            write_misses: 1,
            ..Default::default()
        };
        assert_eq!(s.write_hit_rate(), Some(0.9));
        assert_eq!(CacheSnapshot::default().write_hit_rate(), None);
        assert_eq!(CacheSnapshot::default().read_hit_rate(), None);
    }
}
