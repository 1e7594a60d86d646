//! NVM technology presets and device configuration.

/// Byte-addressable NVM technology, per Table 1 of the paper and the
/// emulation deltas used by its prototype (§5.1, §5.4.1).
///
/// The paper's prototype uses an NVDIMM (DRAM-speed) and emulates slower
/// technologies by adding write/read delays: PCM +180 ns/+50 ns and
/// STT-RAM +50 ns/+50 ns on top of DRAM's ~60 ns access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NvmTech {
    /// DRAM-backed NVDIMM — DRAM latencies, durable contents.
    Nvdimm,
    /// Spin-transfer torque RAM: DRAM + 50 ns/50 ns (paper §5.4.1).
    SttRam,
    /// Phase-change memory: DRAM + 50 ns read / +180 ns write (paper §5.1).
    /// This is the paper's default NVM medium.
    Pcm,
    /// Resistive RAM: modelled like PCM's slower band (Table 1 lists
    /// 200–300 ns reads and ~140 MB/s writes; the evaluation skips it,
    /// we include it as an extension).
    Reram,
}

impl NvmTech {
    /// Read latency of one 64-byte cache line, in nanoseconds.
    pub fn read_ns(self) -> u64 {
        match self {
            NvmTech::Nvdimm => 60,
            NvmTech::SttRam => 110,
            NvmTech::Pcm => 110,
            NvmTech::Reram => 250,
        }
    }

    /// Write (cache-line write-back) latency of one 64-byte line, in ns.
    pub fn write_ns(self) -> u64 {
        match self {
            NvmTech::Nvdimm => 60,
            NvmTech::SttRam => 110,
            NvmTech::Pcm => 240,
            NvmTech::Reram => 300,
        }
    }

    /// Human-readable name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            NvmTech::Nvdimm => "NVDIMM",
            NvmTech::SttRam => "STT-RAM",
            NvmTech::Pcm => "PCM",
            NvmTech::Reram => "ReRAM",
        }
    }

    /// All technologies, in the order Table 1 lists them.
    pub fn all() -> [NvmTech; 4] {
        [
            NvmTech::Nvdimm,
            NvmTech::SttRam,
            NvmTech::Reram,
            NvmTech::Pcm,
        ]
    }
}

/// Which cache-line write-back instruction the software uses (§2.1 of the
/// paper: `clflushopt` and `clwb` "have been proposed to substitute
/// `clflush` but still bring in overheads").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushInstr {
    /// Serialising flush + invalidate (the paper's platform supports only
    /// this). Subsequent reads of the line pay media latency again.
    Clflush,
    /// Optimised flush + invalidate: weaker ordering, lower overhead.
    Clflushopt,
    /// Write-back without invalidation: the line stays cached, so
    /// subsequent reads stay at cache speed.
    Clwb,
}

impl FlushInstr {
    /// Instruction overhead excluding the media write.
    pub(crate) fn overhead_ns(self) -> u64 {
        match self {
            FlushInstr::Clflush => 40,
            FlushInstr::Clflushopt => 25,
            FlushInstr::Clwb => 20,
        }
    }

    /// Whether the line is evicted from the CPU cache by the flush.
    pub fn invalidates(self) -> bool {
        !matches!(self, FlushInstr::Clwb)
    }

    pub fn name(self) -> &'static str {
        match self {
            FlushInstr::Clflush => "clflush",
            FlushInstr::Clflushopt => "clflushopt",
            FlushInstr::Clwb => "clwb",
        }
    }
}

/// Full configuration for an [`crate::NvmDevice`].
#[derive(Clone, Debug)]
pub struct NvmConfig {
    /// Device capacity in bytes (must be a multiple of the cache line size).
    pub capacity: usize,
    /// Technology latency preset.
    pub tech: NvmTech,
    /// Which flush instruction the software issues.
    pub flush_instr: FlushInstr,
    /// Cost of executing the flush on a dirty line, *excluding* the media
    /// write (instruction + write-combining overhead).
    pub clflush_overhead_ns: u64,
    /// Cost of `clflush` on a clean line (instruction only).
    pub clflush_clean_ns: u64,
    /// Cost of `sfence`.
    pub sfence_ns: u64,
    /// Cost of a regular store, per cache line touched.
    pub store_ns: u64,
    /// Cost of a `LOCK cmpxchg16b`-class atomic store.
    pub atomic_store_ns: u64,
    /// Records a [`crate::TracedOp`] per device event for persist-order
    /// analysis (the `persistcheck` crate). Off by default; recording does
    /// not advance the simulated clock or the persistence-event counter,
    /// so traced and untraced runs behave identically.
    pub trace_events: bool,
}

impl NvmConfig {
    /// Configuration with the paper's default medium (emulated PCM).
    pub fn new(capacity: usize, tech: NvmTech) -> Self {
        assert!(
            capacity.is_multiple_of(crate::CACHE_LINE),
            "capacity must be line-aligned"
        );
        Self {
            capacity,
            tech,
            flush_instr: FlushInstr::Clflush,
            clflush_overhead_ns: FlushInstr::Clflush.overhead_ns(),
            clflush_clean_ns: 20,
            sfence_ns: 20,
            store_ns: 2,
            atomic_store_ns: 15,
            trace_events: false,
        }
    }

    /// Latency charged for flushing one dirty line.
    pub fn flush_dirty_ns(&self) -> u64 {
        self.clflush_overhead_ns + self.tech.write_ns()
    }

    /// Switches the flush instruction, adjusting the overhead costs.
    pub fn with_flush_instr(mut self, instr: FlushInstr) -> Self {
        self.flush_instr = instr;
        self.clflush_overhead_ns = instr.overhead_ns();
        self.clflush_clean_ns = instr.overhead_ns() / 2;
        self
    }

    /// Enables event-trace recording (see [`Self::trace_events`]).
    pub fn with_tracing(mut self) -> Self {
        self.trace_events = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcm_is_slower_to_write_than_nvdimm() {
        assert!(NvmTech::Pcm.write_ns() > NvmTech::Nvdimm.write_ns());
        assert_eq!(NvmTech::Pcm.write_ns() - NvmTech::Nvdimm.write_ns(), 180);
        assert_eq!(NvmTech::Pcm.read_ns() - NvmTech::Nvdimm.read_ns(), 50);
    }

    #[test]
    fn sttram_is_symmetric_delta() {
        assert_eq!(NvmTech::SttRam.write_ns() - NvmTech::Nvdimm.write_ns(), 50);
        assert_eq!(NvmTech::SttRam.read_ns() - NvmTech::Nvdimm.read_ns(), 50);
    }

    #[test]
    fn flush_cost_includes_media_write() {
        let cfg = NvmConfig::new(4096, NvmTech::Pcm);
        assert_eq!(cfg.flush_dirty_ns(), 40 + 240);
    }

    #[test]
    #[should_panic(expected = "line-aligned")]
    fn rejects_unaligned_capacity() {
        let _ = NvmConfig::new(100, NvmTech::Pcm);
    }

    #[test]
    fn names_cover_all() {
        for t in NvmTech::all() {
            assert!(!t.name().is_empty());
        }
    }

    #[test]
    fn flush_instr_ordering() {
        use FlushInstr::*;
        assert!(Clflush.overhead_ns() > Clflushopt.overhead_ns());
        assert!(Clflushopt.overhead_ns() > Clwb.overhead_ns());
        assert!(Clflush.invalidates());
        assert!(Clflushopt.invalidates());
        assert!(!Clwb.invalidates());
    }

    #[test]
    fn with_flush_instr_updates_costs() {
        let cfg = NvmConfig::new(4096, NvmTech::Pcm).with_flush_instr(FlushInstr::Clwb);
        assert_eq!(cfg.clflush_overhead_ns, 20);
        assert_eq!(cfg.flush_instr, FlushInstr::Clwb);
    }
}
