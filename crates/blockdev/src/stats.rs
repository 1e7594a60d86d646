//! Disk I/O counters (the paper reports disk blocks written per operation).

telemetry::counters! {
    /// Cumulative counters for one disk.
    pub struct DiskStats {
        /// Blocks read.
        pub reads: u64,
        /// Blocks written.
        pub writes: u64,
        /// Simulated nanoseconds spent in this device (successful and failed
        /// requests alike — a failed attempt still occupies the device).
        pub busy_ns: u64,
        /// Read requests that failed (no data transferred).
        pub read_errors: u64,
        /// Write requests that failed (no data transferred).
        pub write_errors: u64,
    }
}
