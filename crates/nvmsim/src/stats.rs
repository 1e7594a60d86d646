//! Counters the paper's evaluation reports for the NVM cache device.

telemetry::counters! {
    /// Cumulative counters for one NVM device.
    ///
    /// The evaluation of the paper normalises `clflush` executions against
    /// write operations / file operations / TPC-C transactions (Figs. 7–11),
    /// so `clflush` is counted per instruction, and dirty-line write-backs are
    /// tracked separately as `lines_written`.
    pub struct NvmStats {
        /// `clflush` instructions executed (dirty or clean lines).
        pub clflush: u64,
        /// `sfence` instructions executed.
        pub sfence: u64,
        /// 8- or 16-byte atomic stores executed.
        pub atomic_stores: u64,
        /// Cache lines actually written back to the NVM medium.
        pub lines_written: u64,
        /// Cache lines read from the NVM medium.
        pub lines_read: u64,
        /// Bytes stored through the write path (before any flush).
        pub bytes_stored: u64,
        /// Bytes read through the read path.
        pub bytes_read: u64,
    }
}

impl NvmStats {
    /// Bytes written back to the medium (`lines_written × 64`).
    pub fn bytes_written_back(&self) -> u64 {
        self.lines_written * crate::CACHE_LINE as u64
    }
}

/// Device-wide endurance summary (see [`crate::NvmDevice::wear_summary`]).
///
/// The paper's motivation: "considering the limited write endurance of
/// some NVM technologies, double writes adversely affect the lifetime of
/// NVM cache" (§1). `max_line_writes` bounds the lifetime: the device dies
/// when its hottest line exceeds the medium's endurance (Table 1: PCM
/// 10^6–10^8 cycles).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WearSummary {
    pub total_line_writes: u64,
    pub max_line_writes: u32,
    pub hottest_line_addr: usize,
    pub lines_touched: u64,
    pub lines_total: u64,
}

impl WearSummary {
    /// Mean writes per line over the whole device.
    pub fn mean_line_writes(&self) -> f64 {
        if self.lines_total == 0 {
            return 0.0;
        }
        self.total_line_writes as f64 / self.lines_total as f64
    }

    /// Projected lifetime in device-overwrite units for a medium enduring
    /// `cycles` writes per line: how many times the whole device's worth
    /// of data could be written before the hottest line wears out.
    pub fn lifetime_device_writes(&self, cycles: u64) -> f64 {
        if self.max_line_writes == 0 || self.total_line_writes == 0 {
            return f64::INFINITY;
        }
        // Scale current total traffic by cycles/max: the traffic multiple
        // until the hottest line hits the endurance limit, normalised to
        // device capacity.
        let traffic_multiple = cycles as f64 / self.max_line_writes as f64;
        traffic_multiple * self.total_line_writes as f64 / self.lines_total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writeback_bytes() {
        let s = NvmStats {
            lines_written: 2,
            ..Default::default()
        };
        assert_eq!(s.bytes_written_back(), 128);
    }

    #[test]
    fn wear_summary_math() {
        let w = WearSummary {
            total_line_writes: 1000,
            max_line_writes: 100,
            hottest_line_addr: 64,
            lines_touched: 50,
            lines_total: 100,
        };
        assert_eq!(w.mean_line_writes(), 10.0);
        // 10^6-cycle medium: 10^6/100 traffic multiples × 10 mean writes.
        assert_eq!(w.lifetime_device_writes(1_000_000), 100_000.0);
        assert_eq!(
            WearSummary::default().lifetime_device_writes(10),
            f64::INFINITY
        );
    }
}
