//! Counters for the Classic cache.

telemetry::counters! {
    /// Cumulative counters for one [`crate::ClassicCache`].
    pub struct ClassicStats {
        pub read_hits: u64,
        pub read_misses: u64,
        pub write_hits: u64,
        pub write_misses: u64,
        /// Metadata blocks written to NVM (the synchronous-update overhead).
        pub meta_block_writes: u64,
        /// 16 B records appended to the metadata log (FlashTier/bcache scheme).
        pub meta_log_appends: u64,
        /// Log-full checkpoints of the whole metadata array.
        pub meta_checkpoints: u64,
        pub evictions: u64,
        pub writebacks: u64,
        pub recoveries: u64,
    }
}

impl ClassicStats {
    pub fn write_hit_rate(&self) -> Option<f64> {
        let total = self.write_hits + self.write_misses;
        (total > 0).then(|| self.write_hits as f64 / total as f64)
    }

    pub fn read_hit_rate(&self) -> Option<f64> {
        let total = self.read_hits + self.read_misses;
        (total > 0).then(|| self.read_hits as f64 / total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates() {
        let s = ClassicStats {
            write_hits: 1,
            write_misses: 3,
            ..Default::default()
        };
        assert_eq!(s.write_hit_rate(), Some(0.25));
        assert_eq!(s.read_hit_rate(), None);
    }
}
