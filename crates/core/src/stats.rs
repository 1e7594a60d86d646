//! Cache-level counters (hit rates, commits, evictions — Figs. 7–13).

telemetry::counters! {
    /// Cumulative cache counters: one shard's ([`crate::TincaPool::shard_stats`])
    /// or summed over a pool's shards ([`crate::TincaPool::stats`]).
    pub struct CacheStats {
        /// Read requests served from NVM.
        pub read_hits: u64,
        /// Read requests that went to disk.
        pub read_misses: u64,
        /// Committed block writes whose disk block was already cached (Fig. 12c
        /// reports this as the *write hit rate*).
        pub write_hits: u64,
        /// Committed block writes for fresh (uncached) disk blocks.
        pub write_misses: u64,
        /// Ring commits executed: one per transaction on the mutex path (one
        /// per fragment of a spanning transaction), one per retired window on
        /// the multi-writer ring.
        pub commits: u64,
        /// Total blocks across all committed transactions.
        pub committed_blocks: u64,
        /// Running transactions dropped by an explicit `abort()` call.
        pub user_aborts: u64,
        /// Committing transactions that failed mid-protocol and were revoked.
        pub failed_commits: u64,
        /// Multi-writer sequencer rounds that retired more than one window —
        /// one fence + one `Head` store amortised over the round. The ring is
        /// the only writer: always 0 on the mutex path.
        pub group_commits: u64,
        /// Windows retired by those multi-window rounds.
        pub batched_txns: u64,
        /// Staged rewrites coalesced into an already-staged block (JBD2-style
        /// running-transaction merging; equal payloads skip the copy too).
        pub coalesced_writes: u64,
        /// Cache blocks evicted (clean or dirty).
        pub evictions: u64,
        /// Eviction attempts on the allocation path that failed (victim
        /// writeback error → quarantine). Previously swallowed silently.
        pub eviction_errors: u64,
        /// Dirty evictions that wrote a block to disk.
        pub writebacks: u64,
        /// `clflush` operations avoided by commit-path flush coalescing
        /// (entry updates sharing a 64 B line flushed once per line).
        pub coalesced_flushes: u64,
        /// Write hits staged into their entry's shadow block (delta staging):
        /// one 64-line read, then only the differing lines stored and flushed.
        pub delta_stages: u64,
        /// Payload lines those write hits did not store or flush because the
        /// shadow already held them.
        pub delta_lines_skipped: u64,
        /// Vectored destage batches issued on the background lane.
        pub destage_batches: u64,
        /// Dirty blocks written back (and marked clean) by the destage
        /// daemon.
        pub destage_blocks: u64,
        /// Allocations that found no free block and no clean victim while
        /// destage was enabled — the foreground path had to pay a
        /// synchronous dirty writeback because the daemon fell behind.
        pub destage_stalls: u64,
        /// Blocks revoked during recovery or abort.
        pub revoked_blocks: u64,
        /// Recovery passes executed.
        pub recoveries: u64,
        /// Disk I/O attempts repeated after a transient error (each retry of
        /// each request counts once).
        pub io_retries: u64,
        /// Disk requests that ultimately succeeded after ≥ 1 transient error
        /// (the retry loop absorbed the fault).
        pub transient_errors_absorbed: u64,
        /// Disk requests that failed permanently: a non-transient error, or
        /// transient errors exhausting the retry budget.
        pub permanent_io_errors: u64,
        /// Dirty blocks quarantined in NVM after a permanent writeback
        /// failure (cumulative; blocks later flushed successfully still
        /// count).
        pub quarantined_blocks: u64,
        /// Spanning transactions resolved and completed via the two-phase
        /// pool commit (counted once per transaction, on the intent-host
        /// shard).
        pub spanning_commits: u64,
        /// Spanning transactions aborted mid-prepare (a fragment failed; every
        /// prepared fragment was revoked and the intent retired). Counted once
        /// per transaction, on the intent-host shard.
        pub spanning_aborts: u64,
        /// Fragments of spanning transactions this shard completed (its share
        /// of `commits` driven by the two-phase path).
        pub spanning_fragments: u64,
        /// Ring-window blocks revoked at recovery because their spanning
        /// intent never resolved (fragment rolled back).
        pub spanning_rolled_back: u64,
        /// Ring-window blocks preserved at recovery because their spanning
        /// intent had resolved (fragment rolled forward).
        pub spanning_rolled_forward: u64,
        /// Failed CAS attempts on the multi-writer ring-reservation cursor
        /// (lock-free commit path; each retry is one lost race for a window).
        pub reservation_cas_retries: u64,
        /// Multi-writer sequencing attempts that deferred to another thread's
        /// in-flight round (combiner handoff) instead of advancing `Head`.
        pub sequencer_handoffs: u64,
        /// Multi-writer windows rolled *forward* at recovery: published
        /// (`STAGED`) windows inside the durable `[Tail, Head)` prefix whose
        /// interrupted role switches were resumed.
        pub mw_windows_resumed: u64,
        /// Multi-writer windows rolled *back* at recovery: reserved or staged
        /// windows `Head` never advanced past (their log-role entries were
        /// revoked by the entry scan up to the watermark).
        pub mw_windows_rolled_back: u64,
    }
}

impl CacheStats {
    /// All aborted transactions: user aborts plus failed commits.
    pub fn aborts(&self) -> u64 {
        self.user_aborts + self.failed_commits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aborts_sums_both_kinds() {
        let s = CacheStats {
            user_aborts: 2,
            failed_commits: 3,
            ..Default::default()
        };
        assert_eq!(s.aborts(), 5);
    }
}
