//! UBJ counters — including the costs §5.4.4 attributes to the design.

telemetry::counters! {
    /// Cumulative counters for one [`crate::UbjCache`].
    pub struct UbjStats {
        pub commits: u64,
        pub committed_blocks: u64,
        /// Out-of-place updates of frozen blocks: each one is a full-block
        /// `memcpy` **on the write critical path** (§5.4.4 difference #2).
        pub frozen_copies: u64,
        /// Bytes copied by those updates.
        pub frozen_copy_bytes: u64,
        /// Checkpoint passes (each stalls for a whole transaction, §5.4.4 #3).
        pub checkpoints: u64,
        /// Blocks written to disk by checkpoints.
        pub checkpoint_blocks: u64,
        /// Simulated ns spent inside checkpoint stalls.
        pub checkpoint_stall_ns: u64,
        pub read_hits: u64,
        pub read_misses: u64,
        pub write_hits: u64,
        pub write_misses: u64,
        pub evictions: u64,
        pub recoveries: u64,
        pub reverted_blocks: u64,
    }
}

impl UbjStats {
    pub fn write_hit_rate(&self) -> Option<f64> {
        let t = self.write_hits + self.write_misses;
        (t > 0).then(|| self.write_hits as f64 / t as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_hit_rate() {
        let s = UbjStats {
            write_hits: 3,
            write_misses: 1,
            ..Default::default()
        };
        assert_eq!(s.write_hit_rate(), Some(0.75));
        assert_eq!(UbjStats::default().write_hit_rate(), None);
    }
}
