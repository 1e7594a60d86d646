//! Cache-level counters (hit rates, commits, evictions — Figs. 7–13).

/// Cumulative cache counters: one shard's ([`crate::TincaPool::shard_stats`])
/// or summed over a pool's shards ([`crate::TincaPool::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
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
    /// revoked by the full entry scan).
    pub mw_windows_rolled_back: u64,
}

impl CacheStats {
    /// All aborted transactions: user aborts plus failed commits.
    pub fn aborts(&self) -> u64 {
        self.user_aborts + self.failed_commits
    }

    /// Per-field difference `self - earlier`.
    pub fn delta(&self, e: &CacheStats) -> CacheStats {
        CacheStats {
            read_hits: self.read_hits - e.read_hits,
            read_misses: self.read_misses - e.read_misses,
            write_hits: self.write_hits - e.write_hits,
            write_misses: self.write_misses - e.write_misses,
            commits: self.commits - e.commits,
            committed_blocks: self.committed_blocks - e.committed_blocks,
            user_aborts: self.user_aborts - e.user_aborts,
            failed_commits: self.failed_commits - e.failed_commits,
            group_commits: self.group_commits - e.group_commits,
            batched_txns: self.batched_txns - e.batched_txns,
            coalesced_writes: self.coalesced_writes - e.coalesced_writes,
            evictions: self.evictions - e.evictions,
            eviction_errors: self.eviction_errors - e.eviction_errors,
            writebacks: self.writebacks - e.writebacks,
            coalesced_flushes: self.coalesced_flushes - e.coalesced_flushes,
            delta_stages: self.delta_stages - e.delta_stages,
            delta_lines_skipped: self.delta_lines_skipped - e.delta_lines_skipped,
            destage_batches: self.destage_batches - e.destage_batches,
            destage_blocks: self.destage_blocks - e.destage_blocks,
            destage_stalls: self.destage_stalls - e.destage_stalls,
            revoked_blocks: self.revoked_blocks - e.revoked_blocks,
            recoveries: self.recoveries - e.recoveries,
            io_retries: self.io_retries - e.io_retries,
            transient_errors_absorbed: self.transient_errors_absorbed - e.transient_errors_absorbed,
            permanent_io_errors: self.permanent_io_errors - e.permanent_io_errors,
            quarantined_blocks: self.quarantined_blocks - e.quarantined_blocks,
            spanning_commits: self.spanning_commits - e.spanning_commits,
            spanning_aborts: self.spanning_aborts - e.spanning_aborts,
            spanning_fragments: self.spanning_fragments - e.spanning_fragments,
            spanning_rolled_back: self.spanning_rolled_back - e.spanning_rolled_back,
            spanning_rolled_forward: self.spanning_rolled_forward - e.spanning_rolled_forward,
            reservation_cas_retries: self.reservation_cas_retries - e.reservation_cas_retries,
            sequencer_handoffs: self.sequencer_handoffs - e.sequencer_handoffs,
            mw_windows_resumed: self.mw_windows_resumed - e.mw_windows_resumed,
            mw_windows_rolled_back: self.mw_windows_rolled_back - e.mw_windows_rolled_back,
        }
    }

    /// Per-field sum `self + other` (merging per-shard counters into one
    /// pool-wide view).
    pub(crate) fn merge(&self, o: &CacheStats) -> CacheStats {
        CacheStats {
            read_hits: self.read_hits + o.read_hits,
            read_misses: self.read_misses + o.read_misses,
            write_hits: self.write_hits + o.write_hits,
            write_misses: self.write_misses + o.write_misses,
            commits: self.commits + o.commits,
            committed_blocks: self.committed_blocks + o.committed_blocks,
            user_aborts: self.user_aborts + o.user_aborts,
            failed_commits: self.failed_commits + o.failed_commits,
            group_commits: self.group_commits + o.group_commits,
            batched_txns: self.batched_txns + o.batched_txns,
            coalesced_writes: self.coalesced_writes + o.coalesced_writes,
            evictions: self.evictions + o.evictions,
            eviction_errors: self.eviction_errors + o.eviction_errors,
            writebacks: self.writebacks + o.writebacks,
            coalesced_flushes: self.coalesced_flushes + o.coalesced_flushes,
            delta_stages: self.delta_stages + o.delta_stages,
            delta_lines_skipped: self.delta_lines_skipped + o.delta_lines_skipped,
            destage_batches: self.destage_batches + o.destage_batches,
            destage_blocks: self.destage_blocks + o.destage_blocks,
            destage_stalls: self.destage_stalls + o.destage_stalls,
            revoked_blocks: self.revoked_blocks + o.revoked_blocks,
            recoveries: self.recoveries + o.recoveries,
            io_retries: self.io_retries + o.io_retries,
            transient_errors_absorbed: self.transient_errors_absorbed + o.transient_errors_absorbed,
            permanent_io_errors: self.permanent_io_errors + o.permanent_io_errors,
            quarantined_blocks: self.quarantined_blocks + o.quarantined_blocks,
            spanning_commits: self.spanning_commits + o.spanning_commits,
            spanning_aborts: self.spanning_aborts + o.spanning_aborts,
            spanning_fragments: self.spanning_fragments + o.spanning_fragments,
            spanning_rolled_back: self.spanning_rolled_back + o.spanning_rolled_back,
            spanning_rolled_forward: self.spanning_rolled_forward + o.spanning_rolled_forward,
            reservation_cas_retries: self.reservation_cas_retries + o.reservation_cas_retries,
            sequencer_handoffs: self.sequencer_handoffs + o.sequencer_handoffs,
            mw_windows_resumed: self.mw_windows_resumed + o.mw_windows_resumed,
            mw_windows_rolled_back: self.mw_windows_rolled_back + o.mw_windows_rolled_back,
        }
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

    #[test]
    fn delta_subtracts() {
        let a = CacheStats {
            commits: 2,
            ..Default::default()
        };
        let b = CacheStats {
            commits: 7,
            evictions: 3,
            failed_commits: 1,
            coalesced_writes: 4,
            io_retries: 6,
            quarantined_blocks: 2,
            eviction_errors: 1,
            coalesced_flushes: 9,
            delta_stages: 3,
            delta_lines_skipped: 170,
            destage_batches: 2,
            destage_blocks: 8,
            destage_stalls: 1,
            reservation_cas_retries: 5,
            sequencer_handoffs: 2,
            mw_windows_resumed: 3,
            mw_windows_rolled_back: 1,
            ..Default::default()
        };
        let d = b.delta(&a);
        assert_eq!(d.commits, 5);
        assert_eq!(d.evictions, 3);
        assert_eq!(d.failed_commits, 1);
        assert_eq!(d.coalesced_writes, 4);
        assert_eq!(d.io_retries, 6);
        assert_eq!(d.quarantined_blocks, 2);
        assert_eq!(d.eviction_errors, 1);
        assert_eq!(d.coalesced_flushes, 9);
        assert_eq!(d.delta_stages, 3);
        assert_eq!(d.delta_lines_skipped, 170);
        assert_eq!(d.destage_batches, 2);
        assert_eq!(d.destage_blocks, 8);
        assert_eq!(d.destage_stalls, 1);
        assert_eq!(d.reservation_cas_retries, 5);
        assert_eq!(d.sequencer_handoffs, 2);
        assert_eq!(d.mw_windows_resumed, 3);
        assert_eq!(d.mw_windows_rolled_back, 1);
    }

    #[test]
    fn merge_adds_per_shard_views() {
        let a = CacheStats {
            commits: 2,
            group_commits: 1,
            batched_txns: 3,
            ..Default::default()
        };
        let b = CacheStats {
            commits: 5,
            user_aborts: 1,
            destage_batches: 4,
            destage_blocks: 16,
            coalesced_flushes: 2,
            eviction_errors: 3,
            reservation_cas_retries: 7,
            sequencer_handoffs: 4,
            ..Default::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.commits, 7);
        assert_eq!(m.group_commits, 1);
        assert_eq!(m.batched_txns, 3);
        assert_eq!(m.user_aborts, 1);
        assert_eq!(m.destage_batches, 4);
        assert_eq!(m.destage_blocks, 16);
        assert_eq!(m.coalesced_flushes, 2);
        assert_eq!(m.eviction_errors, 3);
        assert_eq!(m.reservation_cas_retries, 7);
        assert_eq!(m.sequencer_handoffs, 4);
    }
}
