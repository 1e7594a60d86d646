//! Cache-level counters surfaced through the cache layer (Fig. 12(c)
//! reports write hit rates; figure harnesses read them via
//! [`crate::Backend::cache_snapshot`]).

/// Cache counters independent of which cache sits below the file system.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    pub write_hits: u64,
    pub write_misses: u64,
    pub read_hits: u64,
    pub read_misses: u64,
    pub evictions: u64,
    pub writebacks: u64,
}

impl std::ops::Add for CacheSnapshot {
    type Output = CacheSnapshot;

    fn add(self, o: CacheSnapshot) -> CacheSnapshot {
        CacheSnapshot {
            write_hits: self.write_hits + o.write_hits,
            write_misses: self.write_misses + o.write_misses,
            read_hits: self.read_hits + o.read_hits,
            read_misses: self.read_misses + o.read_misses,
            evictions: self.evictions + o.evictions,
            writebacks: self.writebacks + o.writebacks,
        }
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

    pub fn delta(&self, e: &CacheSnapshot) -> CacheSnapshot {
        CacheSnapshot {
            write_hits: self.write_hits - e.write_hits,
            write_misses: self.write_misses - e.write_misses,
            read_hits: self.read_hits - e.read_hits,
            read_misses: self.read_misses - e.read_misses,
            evictions: self.evictions - e.evictions,
            writebacks: self.writebacks - e.writebacks,
        }
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

    #[test]
    fn snapshot_delta() {
        let a = CacheSnapshot {
            evictions: 2,
            ..Default::default()
        };
        let b = CacheSnapshot {
            evictions: 10,
            writebacks: 4,
            ..Default::default()
        };
        let d = b.delta(&a);
        assert_eq!(d.evictions, 8);
        assert_eq!(d.writebacks, 4);
    }
}
