//! Tinca configuration knobs.

/// Per-shard cache configuration of a [`crate::TincaPool`]
/// ([`crate::PoolConfig::cache`]).
#[derive(Clone, Debug)]
pub struct TincaConfig {
    /// Ring buffer size in bytes (paper default 1 MB; scaled runs use less).
    /// One committing transaction must fit: `ring_bytes / 8` block slots.
    pub ring_bytes: usize,
    /// Ablation knob: when `false`, the role switch is disabled and commit
    /// degrades to journal-style double writes (log copy + home copy), to
    /// quantify the paper's central optimisation. Default `true`.
    pub role_switch: bool,
    /// Write-behind destage: a low/high-watermark daemon that writes
    /// dirty LRU blocks back in address-sorted vectored batches on a
    /// background simulated-time lane, so evictions on the allocation
    /// path find clean victims instead of paying a synchronous disk
    /// write. Default `false` (the paper's passive free-block monitor:
    /// writebacks happen one block at a time on the eviction path).
    /// `kvdb::TincaStore` is the one library client that always sets it;
    /// elsewhere only figures, crash plans and the open-loop benchmark
    /// workloads turn it on (through `fssim::stack`'s `destage` option or
    /// their own pool config).
    pub destage: bool,
    /// Commit-path flush coalescing: dedupe `clflush` at cache-line
    /// granularity within one committing transaction — entry and ring-slot
    /// flushes are deferred to one pass over *distinct* lines (four 16 B
    /// entries or eight 8 B slots share a 64 B line) and per-block fences
    /// collapse into one fence before the `Head` move; a commit that fails
    /// before that fence persists its slots on the revoke path before it
    /// re-persists `Head`. The commit point is provably not
    /// reordered: `Tail` persists only after a fence that drains every
    /// staged line. Only takes effect with `role_switch`. Default
    /// `false` (the paper's per-step persist ordering). As with
    /// [`Self::destage`], `kvdb::TincaStore` is the one library client
    /// that always sets it.
    pub coalesce_flushes: bool,
    /// Delta staging: after a commit point the block a write hit replaced
    /// is parked in a small DRAM-tracked reserve (at most 1/16 of the data
    /// blocks, LRU over the entries written) instead of being freed, and
    /// the entry's next write hit rewrites that block in place — read it,
    /// compare per 64 B line, store and flush only the lines that differ.
    /// Which lines are skipped is decided by the block's content alone,
    /// and nothing persistent changes: to recovery a reserved block is a
    /// free block. Contract: enable for stores whose rewrites change few
    /// lines of a block (B-tree pages); a rewrite that changes most lines
    /// pays one 64-line NVM read on top of the full store, and the reserve
    /// is cache capacity given up. Only takes effect with `role_switch`.
    /// Default `false` (the paper stages every block whole). A field and
    /// not a selection the cache makes for itself because the paper-exact
    /// path must not move: observing profitability costs the charged read
    /// and the reserve's capacity (DESIGN.md, "Delta staging", has the
    /// always-on numbers with and without a per-entry back-off).
    pub delta_stage: bool,
}

/// Destage trigger: the daemon fires when the *supply* (free NVM blocks +
/// clean cached blocks, i.e. everything allocatable without disk I/O)
/// drops below this percentage of the data blocks.
const DESTAGE_LOW_WATER_PCT: usize = 25;
/// Destage target: one firing harvests enough dirty LRU victims to lift
/// the supply back to this percentage (bounded by the batch size).
const DESTAGE_HIGH_WATER_PCT: usize = 50;

/// The destage daemon's low/high watermarks in **blocks** for a cache
/// of `data_blocks` data blocks: the daemon fires when the supply
/// (free + clean-cached blocks) drops below `low`, and one firing
/// harvests toward `high`.
///
/// Both thresholds use ceiling division, and `high` is clamped to at
/// least `low + 1`. Truncating (flooring) both instead — as the
/// daemon originally did — collapses tiny caches (`data_blocks < 4`)
/// to `low == high` or `high == 0` targets: a daemon that either
/// re-fires on every commit without making progress (thrash) or
/// computes a zero-block harvest. With `high ≥ low + 1`, a completed
/// harvest always leaves the supply at or above `low`, so the daemon
/// cannot immediately re-fire. The firing condition `supply < low`
/// with a ceiled `low` is exactly equivalent to the exact rational
/// comparison `supply < data_blocks · pct / 100` for integer
/// supplies, so large-cache trigger points are unchanged.
pub(crate) fn destage_watermarks(data_blocks: usize) -> (usize, usize) {
    let low = (data_blocks * DESTAGE_LOW_WATER_PCT).div_ceil(100);
    let high = (data_blocks * DESTAGE_HIGH_WATER_PCT)
        .div_ceil(100)
        .max(low + 1)
        .min(data_blocks.max(low + 1));
    (low, high)
}

impl Default for TincaConfig {
    fn default() -> Self {
        Self {
            ring_bytes: 64 << 10,
            role_switch: true,
            destage: false,
            coalesce_flushes: false,
            delta_stage: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = TincaConfig::default();
        assert!(c.role_switch);
        assert!(!c.destage, "default is the paper's synchronous writeback");
        assert!(!c.coalesce_flushes, "default is per-step persist ordering");
        assert!(!c.delta_stage, "default stages every block whole");
    }

    #[test]
    fn destage_watermarks_are_ordered() {
        for db in 1..=1024usize {
            let (low, high) = destage_watermarks(db);
            assert!(low < high, "data_blocks={db}: low={low} high={high}");
            assert!(high <= db.max(low + 1), "data_blocks={db}: high={high}");
        }
    }

    #[test]
    fn tiny_cache_watermarks_never_collapse() {
        // Regression for the integer-truncation bug: with the default
        // 25/50 split, flooring gave data_blocks = 3 the targets
        // low = 0 (via the exact comparison) and high = ⌊1.5⌋ = 1, and
        // data_blocks = 1 the target high = ⌊0.5⌋ = 0. Every boundary
        // size must produce strictly ordered, progress-making targets.
        for db in 1..=4usize {
            let (low, high) = destage_watermarks(db);
            assert!(low < high, "data_blocks={db}: low={low} high={high}");
            // A completed harvest (supply == high) must sit at or above
            // the firing threshold, or the daemon thrashes.
            assert!(high > low, "data_blocks={db} would thrash");
        }
        // data_blocks = 3: ceil(1.5) = 2, not the truncated 1.
        assert_eq!(destage_watermarks(3), (1, 2));
        // data_blocks = 1: high is forced a block above low.
        assert_eq!(destage_watermarks(1), (1, 2));
    }

    #[test]
    fn ceiled_trigger_matches_exact_rational_comparison() {
        // The firing condition `supply < low_blocks` (ceiled) must be
        // equivalent to the pre-fix exact cross-multiplied comparison
        // `supply * 100 < data_blocks * pct` for every integer supply,
        // so full-scale trigger points are bit-for-bit unchanged.
        for db in 1..=257usize {
            let (low, _) = destage_watermarks(db);
            for supply in 0..=db {
                let exact = supply * 100 < db * DESTAGE_LOW_WATER_PCT;
                assert_eq!(
                    supply < low,
                    exact,
                    "data_blocks={db} supply={supply} low={low}"
                );
            }
        }
    }

    #[test]
    fn large_cache_watermarks_follow_the_percentages() {
        let (low, high) = destage_watermarks(1000);
        assert_eq!((low, high), (250, 500));
        let (low, high) = destage_watermarks(1001);
        // Ceiling, consistently on both thresholds.
        assert_eq!((low, high), (251, 501));
    }
}
