//! Configuration for the Classic (Flashcache-like) cache.

/// How cache metadata is persisted (§1 of the paper surveys all three
/// points in this space: Flashcache synchronously rewrites metadata
/// *blocks*; FlashTier and bcache append to a metadata *log*; Tinca uses
/// fine-grained atomically-written entries).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetadataScheme {
    /// Flashcache: rewrite the whole 4 KB metadata block per update.
    SyncBlock,
    /// FlashTier/bcache: append a 16 B record to a metadata log; when the
    /// log fills, checkpoint the full metadata array and restart it.
    Log,
}

/// Per-set dirty-block threshold in percent (Flashcache's
/// `dirty_thresh_pct` default): when a set exceeds it, the LRU dirty
/// blocks are proactively cleaned to disk. This background cleaning is why
/// journal blocks reach the SSD even while cached — a major source of
/// Classic's disk write amplification (§3, Fig. 7c).
pub(crate) const DIRTY_THRESH_PCT: u32 = 20;

/// Tuning knobs for [`crate::ClassicCache`]. Read misses always populate
/// the cache.
#[derive(Clone, Debug)]
pub struct ClassicConfig {
    /// Set associativity (Flashcache default: 512 blocks per set).
    pub assoc: u32,
    /// Whether cache metadata is synchronously persisted on every write
    /// (Flashcache behaviour). `false` regenerates Fig. 4's "no metadata
    /// update" bars — unsafe, measurement only.
    pub sync_metadata: bool,
    /// Metadata persistence scheme (see [`MetadataScheme`]).
    pub metadata_scheme: MetadataScheme,
    /// Fallow cleaning age (Flashcache's `fallow_delay`, 15 min of wall
    /// time by default): dirty blocks not re-written for this many cache
    /// block-writes are cleaned at the next flush barrier. Hot pages are
    /// re-written well within the window and keep absorbing writes;
    /// journal-region copies go fallow before the log wraps over them and
    /// reach the SSD — the disk write amplification of Fig. 7(c). The
    /// default (256) is the wall-clock default scaled to simulated write
    /// intensity.
    pub fallow_age_writes: u64,
}

impl Default for ClassicConfig {
    fn default() -> Self {
        Self {
            assoc: 512,
            sync_metadata: true,
            metadata_scheme: MetadataScheme::SyncBlock,
            fallow_age_writes: 256,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_flashcache() {
        let c = ClassicConfig::default();
        assert_eq!(c.assoc, 512);
        assert!(c.sync_metadata);
        assert_eq!(c.metadata_scheme, MetadataScheme::SyncBlock);
    }
}
