//! The transactional NVM disk cache (§4).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use blockdev::{BlockDevice, IoError, IoLane, BLOCK_SIZE};
use nvmsim::Nvm;

use crate::config::destage_watermarks;
use crate::entry::{CacheEntry, Role, FRESH};
use crate::freemon::FreeMonitor;
use crate::layout::{
    mw_desc_addr, mw_state_word, slot_value, split_slot, Layout, DATA_BLOCKS_OFF, ENTRY_COUNT_OFF,
    HEAD_OFF, MAGIC, MAGIC_OFF, MW_DEAD_TAG, MW_FREE, MW_RESERVED, RING_CAP_OFF, TAIL_OFF,
};
use crate::lru::LruList;
use crate::pool::ring::{MwMeta, MwWindow};
use crate::shadow::ShadowReserve;
use crate::txn::BlockBuf;
use crate::{CacheStats, TincaConfig, TincaError, Txn};

/// Shared handle to the backing disk below the cache.
pub type DynDisk = Arc<dyn BlockDevice>;

/// Maximum attempts for a disk I/O that fails with a *transient* error.
/// Permanent errors (bad block, out of range) are never retried. Four is
/// enough to absorb the default fault-plan burst length deterministically.
const MAX_IO_ATTEMPTS: u32 = 4;
/// Simulated backoff between transient-error retries: charged to the
/// stack's clock on the foreground path, to the lane deadline on the
/// destage lane.
const RETRY_BACKOFF_NS: u64 = 100_000;
/// Maximum victims per vectored destage batch (also bounds the per-batch
/// payload staging buffer: 64 × 4 KB).
const DESTAGE_BATCH: usize = 64;
/// Delta staging's capacity tax: the shadow reserve holds at most one
/// data block in this many (see [`TincaConfig::delta_stage`]).
const SHADOW_RESERVE_DIV: usize = 16;
/// Cache lines per data block.
const BLOCK_LINES: usize = BLOCK_SIZE / nvmsim::CACHE_LINE;

/// One shard-local fragment of a committing transaction, in either commit
/// mode: the entries it staged in the log role, the versions they
/// replaced and what it pins, from admission until its commit point
/// retires it ([`TincaCache::retire`]) or a failure revokes it. An
/// ordinary mutex-path commit finishes its (untagged) fragment at once; a
/// spanning transaction's pool driver holds one tagged fragment per
/// participant between [`TincaCache::prepare_fragment`] and
/// [`TincaCache::complete_fragment`] / [`TincaCache::abort_fragment`]; a
/// lock-free ring window holds one from its meta phase to its sequencer
/// round ([`TincaCache::mw_stage_meta`], [`TincaCache::mw_sequence`]).
pub(crate) struct Fragment {
    touched: Vec<u32>,
    /// `(entry, previous block version)` of every write hit.
    replaced_prevs: Vec<(u32, u32)>,
    pins: Pins,
    coalesced: u64,
    /// Intent tag in the window's ring slots (`0`: ordinary commit).
    tag: u8,
}

impl Fragment {
    fn new(txn: &Txn, tag: u8) -> Self {
        Fragment {
            touched: Vec::with_capacity(txn.len()),
            replaced_prevs: Vec::new(),
            pins: Pins::default(),
            coalesced: txn.coalesced_writes(),
            tag,
        }
    }
}

/// The blocks and entries one fragment pins (§4.6 rule 2), set in the
/// cache's pin bitmaps until the fragment retires or is revoked. Fragments
/// in flight together never pin the same block or entry (the pool's
/// conflict admission keeps their disk blocks disjoint, and freshly
/// allocated blocks are exclusive), so each releases exactly its own.
#[derive(Default)]
struct Pins {
    blocks: Vec<u32>,
    entries: Vec<u32>,
}

/// Operational condition of a cache (or pool) with respect to its backing
/// disk. Transient disk faults absorbed by the retry loop never change the
/// health; only *permanent* writeback failures do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Health {
    /// No unresolved disk faults.
    Healthy,
    /// Some dirty blocks could not be written back and are quarantined in
    /// NVM (pinned, never evicted, still readable). The cache keeps
    /// serving reads and commits with its remaining capacity.
    Degraded {
        /// Currently quarantined dirty blocks.
        quarantined: usize,
    },
    /// Every NVM block is quarantined and the free pool is empty: no new
    /// block can be admitted, so writes of uncached blocks will fail.
    /// Cached data remains readable.
    ReadOnly,
}

/// The transactional NVM disk cache.
///
/// `TincaCache` is both a write-back block cache and a transaction manager:
/// the file system stages updates in a [`Txn`] (DRAM) and calls
/// [`commit`](Self::commit), which makes all staged blocks durable in NVM
/// atomically — without ever writing a block's payload twice (the paper's
/// *role switch*, §4.3–4.4).
///
/// Persistent state lives entirely in the NVM region ([`Layout`]): the
/// `Head`/`Tail` ring pointers, the ring buffer of in-flight block numbers,
/// the 16-byte cache entries, and the 4 KB data blocks. Everything else
/// (hash index, LRU list, free monitors) is DRAM-only and is rebuilt by
/// [`recover_with_intent`](Self::recover_with_intent) (§4.6).
///
/// Crate-private: [`TincaPool`](crate::TincaPool) is the one public entry
/// point, and a one-shard pool drives exactly this cache.
pub(crate) struct TincaCache {
    nvm: Nvm,
    disk: DynDisk,
    layout: Layout,
    cfg: TincaConfig,
    /// DRAM copies of the persistent Head/Tail sequence numbers.
    head: u64,
    tail: u64,
    /// disk block number → entry index.
    index: HashMap<u64, u32>,
    lru: LruList,
    free_blocks: FreeMonitor,
    free_entries: FreeMonitor,
    /// Previous block versions parked for delta staging: referenced by no
    /// entry, not on the free list, handed to nobody but their owner's
    /// next write hit. Empty unless [`TincaConfig::delta_stage`].
    shadows: ShadowReserve,
    /// NVM blocks pinned by committing fragments (§4.6 rule 2); each
    /// fragment's [`Pins`] lists its own.
    pin_blocks: Vec<bool>,
    /// Entries pinned by committing fragments.
    pin_entries: Vec<bool>,
    /// Entries whose dirty payload could not be written back (permanent
    /// disk fault). Quarantined entries stay pinned-dirty in NVM: never
    /// chosen as eviction victims, still served to reads, re-attempted by
    /// [`flush_all`](Self::flush_all).
    quarantined: HashSet<u32>,
    /// Entry indices whose cached block is modified — the DRAM mirror of
    /// the durable `modified` bits (recounting from NVM would charge read
    /// latency to the foreground clock). Drives the destage watermark
    /// check and lets the clean-victim scan reject dirty candidates
    /// without touching NVM; audited by
    /// [`check_consistency`](Self::check_consistency).
    dirty_idx: HashSet<u32>,
    /// Absolute simulated time at which the background destage lane is
    /// free again. The lane is busy while one vectored writeback batch
    /// is "in flight": its device time extends this deadline instead of
    /// advancing the foreground clock (wall = max, busy = sum — the same
    /// overlap model `workloads::mtfio` uses for shard parallelism).
    destage_lane_free_ns: u64,
    /// Entries pinned by every fragment in flight. Concurrent ring windows
    /// keep log-role entries alive between rounds, and those must not
    /// count as evictable supply at admission. Always zero when a
    /// mutex-path commit is admitted: a mutex shard runs one fragment at
    /// a time.
    pinned_entries: usize,
    stats: CacheStats,
}

impl TincaCache {
    /// Formats the NVM region and creates an empty cache.
    pub(crate) fn format(nvm: Nvm, disk: DynDisk, cfg: TincaConfig) -> Self {
        let layout = Layout::compute(nvm.capacity(), cfg.ring_bytes);
        // Zero the entry array so every entry decodes as invalid.
        let zeros = vec![0u8; 64 << 10];
        let entry_bytes = layout.entry_count as usize * crate::layout::ENTRY_BYTES;
        let mut off = 0;
        while off < entry_bytes {
            let n = zeros.len().min(entry_bytes - off);
            nvm.write(layout.entries_off + off, &zeros[..n]);
            nvm.clflush(layout.entries_off + off, n);
            off += n;
        }
        nvm.sfence();
        // Header fields; magic last so a half-formatted region is invalid.
        nvm.atomic_write_u64(RING_CAP_OFF, layout.ring_cap);
        nvm.atomic_write_u64(ENTRY_COUNT_OFF, layout.entry_count as u64);
        nvm.atomic_write_u64(DATA_BLOCKS_OFF, layout.data_blocks as u64);
        nvm.atomic_write_u64(HEAD_OFF, 0);
        nvm.atomic_write_u64(TAIL_OFF, 0);
        nvm.persist(0, 192);
        nvm.atomic_write_u64(MAGIC_OFF, MAGIC);
        nvm.persist(MAGIC_OFF, 8);
        Self::from_parts(nvm, disk, cfg, layout, 0, 0)
    }

    fn from_parts(
        nvm: Nvm,
        disk: DynDisk,
        cfg: TincaConfig,
        layout: Layout,
        head: u64,
        tail: u64,
    ) -> Self {
        let shadow_cap = if cfg.delta_stage && cfg.role_switch {
            layout.data_blocks as usize / SHADOW_RESERVE_DIV
        } else {
            0
        };
        TincaCache {
            nvm,
            disk,
            cfg,
            head,
            tail,
            index: HashMap::new(),
            lru: LruList::new(layout.entry_count),
            free_blocks: FreeMonitor::new_all_free(layout.data_blocks),
            free_entries: FreeMonitor::new_all_free(layout.entry_count),
            shadows: ShadowReserve::new(layout.entry_count, shadow_cap),
            pin_blocks: vec![false; layout.data_blocks as usize],
            pin_entries: vec![false; layout.entry_count as usize],
            quarantined: HashSet::new(),
            dirty_idx: HashSet::new(),
            destage_lane_free_ns: 0,
            pinned_entries: 0,
            stats: CacheStats::default(),
            layout,
        }
    }

    /// Commits all blocks staged in `txn` atomically (`tinca_commit`, §4.4).
    ///
    /// On success every staged block is durable in NVM and mapped by the
    /// cache; the payload of each block was written exactly **once** (no
    /// journal double write). On error the cache is rolled back to its
    /// pre-transaction state (`tinca_abort` semantics).
    pub(crate) fn commit(&mut self, txn: &Txn) -> Result<(), TincaError> {
        if txn.is_empty() {
            return Ok(());
        }
        let t = telemetry::span(telemetry::phase::COMMIT);
        let out = self
            .stage_fragment(txn, 0)
            .map(|frag| self.finish_fragment(frag));
        // Destage runs after the commit span closes: its writebacks
        // overlap foreground time and must not count as commit latency.
        drop(t);
        if out.is_ok() {
            self.maybe_destage();
        }
        out
    }

    // ------------------------------------------------------------------
    // The fragment lifecycle, one for both commit modes: admit → stage
    // (log-role entries, ring slots) → commit point → retire, or revoke.
    // `commit` runs it end to end; the pool's two-phase spanning commit
    // holds it open between the phases; a lock-free ring window runs its
    // front half in the meta phase and its back half in a sequencer round.
    // ------------------------------------------------------------------

    /// Admission, the same rule in both commit modes (the caller holds the
    /// `commit.admission` span): the transaction must fit the ring, and the
    /// protocol allocates one new NVM block per staged block (two in the
    /// double-write ablation) while the current versions of
    /// staged-and-cached blocks stay pinned as revocation `prev`s. Supply
    /// is the free pool (the shadow reserve included) plus every cached
    /// block that stays evictable mid-protocol — NOT the total block count,
    /// and not the entries in-flight ring windows pin: a commit admitted
    /// against those could run out of victims mid-protocol and take the
    /// revoke path.
    fn admit(&self, txn: &Txn) -> Result<(), TincaError> {
        let n = txn.len();
        if n as u64 > self.layout.ring_cap {
            return Err(TincaError::TxnTooLarge {
                blocks: n,
                ring_cap: self.layout.ring_cap,
            });
        }
        let needed = if self.cfg.role_switch { n } else { 2 * n };
        let overlap = txn
            .blocks()
            .iter()
            .filter(|(b, _)| self.index.contains_key(b))
            .count();
        let evictable = (self.index.len() - overlap).saturating_sub(self.pinned_entries);
        let available = self.free_block_count() + evictable;
        if needed > available {
            return Err(TincaError::CacheExhausted { needed, available });
        }
        Ok(())
    }

    /// Stages `txn` as this shard's mutex-path fragment: admission, then
    /// the commit protocol (COW writes, entry updates, ring slots tagged
    /// `tag`, `Head` move, role switch) up to but **not including the
    /// commit point** — `Tail` does not move, so the ring window `[Tail,
    /// Head)` stays open and recovery can still revoke everything. Pins
    /// stay held. A fragment that fails mid-protocol is revoked here.
    fn stage_fragment(&mut self, txn: &Txn, tag: u8) -> Result<Fragment, TincaError> {
        {
            let _a = telemetry::span(telemetry::phase::COMMIT_ADMISSION);
            self.admit(txn)?;
        }
        debug_assert_eq!(
            self.head, self.tail,
            "previous transaction left the ring open"
        );
        let mut frag = Fragment::new(txn, tag);
        let result = self.commit_blocks(txn, &mut frag).and_then(|()| {
            if self.cfg.role_switch {
                self.complete_role_switch(&frag.touched);
                Ok(())
            } else {
                // Ablation: journal-style completion — copy every
                // committed block to a second NVM block (the
                // "checkpoint" write).
                self.complete_double_write(&mut frag)
            }
        });
        match result {
            Ok(()) => Ok(frag),
            Err(e) => {
                self.revoke_fragment(frag);
                Err(e)
            }
        }
    }

    /// Steps 1–3 + per-block ring recording of the mutex-path protocol.
    ///
    /// With [`TincaConfig::coalesce_flushes`] the per-step persists are
    /// deduplicated at cache-line granularity *within this transaction*:
    /// payloads are flushed without a fence, entry updates (four 16 B
    /// entries per 64 B line) defer their flush to one pass over
    /// distinct lines, and ring slots are flushed with their fence
    /// deferred. A single fence then drains everything before `Head`
    /// moves — so the commit point (`Tail`, persisted by the caller
    /// strictly after the role switch's own fence) still orders after
    /// every staged line.
    /// Crash-safety is unchanged: until the `Head` move persists, `Head
    /// == Tail` and recovery's full entry scan revokes every log-role
    /// entry; after it, the ring window names every staged block.
    /// The fragment's `tag` is the spanning-intent tag recorded in each
    /// ring slot's top byte ([`slot_value`]); ordinary commits carry `0`,
    /// which stores the bare block number — bit-for-bit the untagged
    /// protocol.
    fn commit_blocks(&mut self, txn: &Txn, frag: &mut Fragment) -> Result<(), TincaError> {
        let coalesce = self.coalescing();
        for (disk_blk, data) in txn.blocks() {
            // (1) COW block write: new NVM block, payload, flush, fence.
            // A write hit whose entry holds a shadow rewrites that block
            // instead, storing only the lines that differ.
            let new_blk = {
                let _s = telemetry::span(telemetry::phase::COMMIT_STAGE);
                let shadow = if self.shadows.enabled() {
                    let hit = self.index.get(disk_blk);
                    hit.and_then(|&idx| self.shadows.take(idx))
                } else {
                    None
                };
                match shadow {
                    Some(shadow) => {
                        self.pin_block(shadow, &mut frag.pins);
                        self.stage_delta(shadow, data, coalesce);
                        shadow
                    }
                    None => {
                        let new_blk = self.alloc_block()?;
                        self.pin_block(new_blk, &mut frag.pins);
                        let addr = self.layout.data_addr(new_blk);
                        self.nvm.write(addr, &data[..]);
                        if coalesce {
                            // Flush now, fence once for the whole
                            // transaction.
                            self.nvm.clflush(addr, BLOCK_SIZE);
                        } else {
                            self.nvm.persist(addr, BLOCK_SIZE);
                        }
                        new_blk
                    }
                }
            };
            // (2) Create/update the cache entry with one 16 B atomic store.
            self.log_entry(*disk_blk, new_blk, frag, !coalesce);
            // (3) Record the block number in the ring via an 8 B atomic
            // store, then (4) move Head. In coalesced mode the slot is
            // only flushed (fence deferred) and Head moves once at the
            // end. The slot flush is *not* deferred: a failed commit's
            // revoke path re-persists entries but not ring slots, so
            // slots must already be flushed when it fences.
            let _r = telemetry::span(telemetry::phase::COMMIT_RING);
            let slot = self.layout.ring_slot_addr(self.head);
            self.nvm
                .atomic_write_u64(slot, slot_value(*disk_blk, frag.tag));
            self.head += 1;
            if coalesce {
                self.nvm.clflush(slot, 8);
            } else {
                self.nvm.persist(slot, 8);
                self.nvm.atomic_write_u64(HEAD_OFF, self.head);
                self.nvm.persist(HEAD_OFF, 8);
            }
        }
        if coalesce {
            {
                // Deferred entry flush: one clflush per *distinct* line.
                let _e = telemetry::span(telemetry::phase::COMMIT_ENTRY);
                self.flush_entries(&frag.touched);
            }
            // One fence drains payloads, entries and ring slots, then the
            // single Head move makes the ring window visible to recovery.
            // vs the paper's per-block Head persist: all but one of the
            // Head flushes are elided.
            let _r = telemetry::span(telemetry::phase::COMMIT_RING);
            self.stats.coalesced_flushes += (frag.touched.len() - 1) as u64;
            self.nvm.sfence();
            self.nvm.atomic_write_u64(HEAD_OFF, self.head);
            self.nvm.persist(HEAD_OFF, 8);
        }
        Ok(())
    }

    /// Step (2) of §4.4 in both commit modes: points `disk_blk`'s entry —
    /// its current one on a write hit, a fresh one on a miss — at
    /// `new_blk` in the log role with one 16 B atomic store, persisted now
    /// or (`persist == false`) left to the caller's deferred
    /// [`flush_entries`](Self::flush_entries). The entry and a hit's
    /// previous version join the fragment's pins.
    fn log_entry(&mut self, disk_blk: u64, new_blk: u32, frag: &mut Fragment, persist: bool) {
        let _e = telemetry::span(telemetry::phase::COMMIT_ENTRY);
        // Looked up only now: the allocation of `new_blk` may have evicted
        // this very block, which makes the write a miss.
        let (idx, prev) = match self.index.get(&disk_blk) {
            Some(&idx) => {
                let old = self.read_entry(idx);
                debug_assert!(old.valid && old.disk_blk == disk_blk);
                debug_assert_eq!(old.role, Role::Buffer);
                if !old.modified {
                    self.dirty_idx.insert(idx);
                }
                self.pin_block(old.cur, &mut frag.pins);
                frag.replaced_prevs.push((idx, old.cur));
                // A shadow the entry still holds is two versions behind
                // once a full block is staged (a ring window after a
                // delta-staging mutex commit), so it goes back to the free
                // list. The mutex path took any shadow in step (1).
                self.shadows.release(idx, &mut self.free_blocks);
                self.stats.write_hits += 1;
                (idx, old.cur)
            }
            None => {
                // Audited panic: the layout allocates one entry slot
                // per data block, so a free block implies a free
                // entry; exhaustion here is a layout bug, not a
                // recoverable condition.
                #[allow(clippy::disallowed_methods)]
                let idx = self
                    .free_entries
                    .allocate()
                    .expect("entry pool exhausts strictly after block pool");
                self.index.insert(disk_blk, idx);
                self.lru.push_mru(idx);
                self.dirty_idx.insert(idx);
                self.stats.write_misses += 1;
                (idx, FRESH)
            }
        };
        let e = CacheEntry::new(Role::Log, true, disk_blk, prev, new_blk);
        if persist {
            self.write_entry(idx, e);
        } else {
            self.write_entry_unflushed(idx, e);
        }
        self.pin_entry(idx, &mut frag.pins);
        frag.touched.push(idx);
    }

    /// Flushes the distinct 64 B lines holding `touched`'s entries, no
    /// fence: the deferred entry flush of both commit modes and of the
    /// coalesced role switch.
    fn flush_entries(&mut self, touched: &[u32]) {
        let lines = self.flush_lines(touched.iter().map(|&idx| self.layout.entry_addr(idx)));
        self.stats.coalesced_flushes += (touched.len() - lines) as u64;
    }

    /// One `clflush` per distinct cache line among `addrs`, in address
    /// order, no fence. Returns the number of lines flushed.
    pub(crate) fn flush_lines(&self, addrs: impl IntoIterator<Item = usize>) -> usize {
        let mut lines: Vec<usize> = addrs.into_iter().map(|a| a / nvmsim::CACHE_LINE).collect();
        lines.sort_unstable();
        lines.dedup();
        for &line in &lines {
            self.nvm.clflush(line * nvmsim::CACHE_LINE, 1);
        }
        lines.len()
    }

    /// `Tail := Head` (one 8 B atomic store, persisted): the mutex path's
    /// shard-local commit point, and the ring round's window close.
    fn move_tail(&mut self) {
        let _p = telemetry::span(telemetry::phase::COMMIT_POINT);
        self.tail = self.head;
        self.nvm.atomic_write_u64(TAIL_OFF, self.tail);
        self.nvm.persist(TAIL_OFF, 8);
        self.nvm.note_commit(TAIL_OFF, 8);
    }

    /// The mutex path's commit point and everything after it.
    fn finish_fragment(&mut self, frag: Fragment) {
        let window = (self.tail, self.head);
        self.move_tail();
        if frag.tag != 0 {
            // Retire the window's intent tags (wraparound guard, DESIGN
            // §14). Strictly after the commit point: a crash in between
            // leaves the tags behind `Tail`, where window homogeneity keeps
            // them inert until the slots are reused.
            self.scrub_slot_tags(window.0, window.1);
            self.stats.spanning_fragments += 1;
        }
        self.retire(frag);
    }

    /// Everything after a fragment's commit point, in both commit modes,
    /// DRAM only: previous versions become free (or, with delta staging,
    /// their entry's shadow), committed blocks turn MRU (§4.6 rule 2b),
    /// and the fragment's pins drop.
    fn retire(&mut self, frag: Fragment) {
        for (idx, p) in frag.replaced_prevs {
            self.shadows.park(idx, p, &mut self.free_blocks);
        }
        for &idx in &frag.touched {
            self.lru.touch(idx);
        }
        self.stats.commits += 1;
        self.stats.committed_blocks += frag.touched.len() as u64;
        self.stats.coalesced_writes += frag.coalesced;
        self.unpin(frag.pins);
    }

    /// Revokes every staged entry of a mutex-path fragment (restoring
    /// previous versions) and closes the ring window (runtime `tinca_abort`
    /// of a committing transaction). A tagged fragment's slots — all of
    /// them, or the ones staged before a mid-protocol failure — then lose
    /// their tags, so no tag outlives its window (DESIGN §14).
    fn revoke_fragment(&mut self, frag: Fragment) {
        let window = (self.tail, self.head);
        {
            let _t = telemetry::span(telemetry::phase::COMMIT_REVOKE);
            self.revoke_entries(&frag.touched);
            // Close the ring. `Head` is re-persisted first: in coalesced
            // mode the in-DRAM head may be ahead of the persistent one,
            // and `Tail` must never persist past `Head`.
            self.nvm.atomic_write_u64(HEAD_OFF, self.head);
            self.nvm.persist(HEAD_OFF, 8);
            self.tail = self.head;
            self.nvm.atomic_write_u64(TAIL_OFF, self.tail);
            self.nvm.persist(TAIL_OFF, 8);
            self.nvm.note_commit(TAIL_OFF, 8);
        }
        self.unpin(frag.pins);
        self.stats.failed_commits += 1;
        if frag.tag != 0 {
            self.scrub_slot_tags(window.0, window.1);
        }
    }

    /// Undoes every still-staged entry among `touched` (the revocation of
    /// a failed fragment, in both commit modes).
    fn revoke_entries(&mut self, touched: &[u32]) {
        for &idx in touched {
            let e = self.read_entry(idx);
            if e.valid && !e.is_revoked_marker() {
                self.revoke_entry(idx, e);
            }
        }
    }

    /// First phase of a spanning commit on this shard:
    /// [`stage_fragment`](Self::stage_fragment) with the intent's tag in
    /// every ring slot. The caller must follow up with exactly one of
    /// [`complete_fragment`](Self::complete_fragment) or
    /// [`abort_fragment`](Self::abort_fragment) before any other commit
    /// runs on this shard (the pool holds the shard lock throughout).
    pub(crate) fn prepare_fragment(&mut self, txn: &Txn, tag: u8) -> Result<Fragment, TincaError> {
        debug_assert!(!txn.is_empty());
        debug_assert_ne!(tag, 0, "spanning fragments must carry an intent tag");
        let _t = telemetry::span(telemetry::phase::COMMIT);
        self.stage_fragment(txn, tag)
    }

    /// Second phase of a resolved spanning commit. Only called once the
    /// pool's intent record is durably `RESOLVED` — from then on recovery
    /// rolls this fragment forward, so the `Tail` store merely retires
    /// the revocation window early.
    pub(crate) fn complete_fragment(&mut self, frag: Fragment) {
        let t = telemetry::span(telemetry::phase::COMMIT);
        self.finish_fragment(frag);
        drop(t);
        self.maybe_destage();
    }

    /// Aborts a prepared fragment before the intent resolves, exactly
    /// like a failed ordinary commit, and retires the window's tags.
    pub(crate) fn abort_fragment(&mut self, frag: Fragment) {
        let _t = telemetry::span(telemetry::phase::COMMIT);
        self.revoke_fragment(frag);
    }

    // ------------------------------------------------------------------
    // Multi-writer ring windows (lock-free commit path, pool-driven;
    // DESIGN §16)
    // ------------------------------------------------------------------

    /// Writes a window descriptor (state word + geometry) and flushes its
    /// line — **no fence**: the descriptor only matters to recovery once
    /// `Head` has passed the window, and the sequencer's drain fence runs
    /// strictly before that `Head` store.
    fn mw_write_desc(&mut self, slot: usize, word0: u64, start: u64, len: u64) {
        let addr = mw_desc_addr(slot);
        self.nvm.atomic_write_u64(addr, word0);
        self.nvm.atomic_write_u64(addr + 8, start);
        self.nvm.atomic_write_u64(addr + 16, len);
        // Word 3 is reserved (always 0); it stays in the flushed range.
        self.nvm.atomic_write_u64(addr + 24, 0);
        self.nvm.clflush(addr, 32);
    }

    /// Retires a window descriptor back to [`MW_FREE`]. Flushed without a
    /// fence: a retire store lost to a crash leaves a stale `STAGED`
    /// descriptor whose window ends at or before `Tail`, which recovery
    /// ignores (retired windows never overlap `[Tail, Head)`).
    pub(crate) fn mw_retire_desc(&mut self, slot: usize) {
        self.mw_write_desc(slot, MW_FREE, 0, 0);
    }

    /// Meta phase of a multi-writer window commit, run **under the shard
    /// lock** with the ring window `[start, start+n)` already reserved by
    /// the pool's fetch-add cursor: the shared [`admit`](Self::admit),
    /// block allocation, the shared [`log_entry`](Self::log_entry) step,
    /// ring-slot stores and the `RESERVED` descriptor — all flushed but
    /// **never fenced** (the sequencer's single drain fence covers
    /// everything). Payload writes are *not* performed here; they come
    /// back, with the window's fragment, as `(nvm data address, payload)`
    /// staging jobs the writer runs outside the lock.
    ///
    /// On error the window is sealed as a no-op
    /// ([`mw_fail_window`](Self::mw_fail_window)) but stays reserved: the
    /// caller must still publish and sequence it (as failed) so `Head` can
    /// advance past it.
    pub(crate) fn mw_stage_meta(
        &mut self,
        txn: Txn,
        start: u64,
        desc_slot: usize,
        ordinal: u64,
    ) -> Result<(Fragment, Vec<(usize, BlockBuf)>), TincaError> {
        let _t = telemetry::span(telemetry::phase::COMMIT);
        let n = txn.len();
        debug_assert!(n > 0 && (n as u64) <= self.layout.ring_cap);
        let end = start + n as u64;
        let mut frag = Fragment::new(&txn, 0);
        self.mw_write_desc(
            desc_slot,
            mw_state_word(ordinal, MW_RESERVED),
            start,
            n as u64,
        );
        {
            let _a = telemetry::span(telemetry::phase::COMMIT_ADMISSION);
            if let Err(e) = self.admit(&txn) {
                self.mw_fail_window(frag, start..end);
                return Err(e);
            }
        }
        let mut stage_jobs = Vec::with_capacity(n);
        for (seq, (disk_blk, data)) in (start..).zip(txn.into_blocks()) {
            // (1) COW target block; the payload write itself is deferred to
            // the caller's concurrent staging phase.
            let new_blk = {
                let _s = telemetry::span(telemetry::phase::COMMIT_STAGE);
                match self.alloc_block() {
                    Ok(b) => b,
                    Err(e) => {
                        self.mw_fail_window(frag, seq..end);
                        return Err(e);
                    }
                }
            };
            self.pin_block(new_blk, &mut frag.pins);
            stage_jobs.push((self.layout.data_addr(new_blk), data));
            // (2) Log-role entry, line flush deferred.
            self.log_entry(disk_blk, new_blk, &mut frag, false);
            // (3) Ring slot: 8 B atomic store + line flush, fence deferred.
            let _r = telemetry::span(telemetry::phase::COMMIT_RING);
            let slot = self.layout.ring_slot_addr(seq);
            self.nvm.atomic_write_u64(slot, slot_value(disk_blk, 0));
            self.nvm.clflush(slot, 8);
        }
        // Deferred entry flush: one clflush per *distinct* line, no fence.
        let _e = telemetry::span(telemetry::phase::COMMIT_ENTRY);
        self.flush_entries(&frag.touched);
        Ok((frag, stage_jobs))
    }

    /// Seals a window whose meta phase failed: revokes the fragment's
    /// staged entries, dead-tags the unwritten slots `dead` (a stale slot
    /// value from the ring's previous lap could name another in-flight
    /// window's block and corrupt roll-forward), and drops the fragment's
    /// pins. The ring window itself stays reserved; the caller publishes
    /// it `STAGED` so the sequencer can pass it as a no-op.
    fn mw_fail_window(&mut self, frag: Fragment, dead: std::ops::Range<u64>) {
        {
            let _t = telemetry::span(telemetry::phase::COMMIT_REVOKE);
            self.revoke_entries(&frag.touched);
        }
        let mut slots = Vec::new();
        for seq in dead {
            let addr = self.layout.ring_slot_addr(seq);
            self.nvm.atomic_write_u64(addr, slot_value(0, MW_DEAD_TAG));
            slots.push(addr);
        }
        self.flush_lines(slots);
        self.unpin(frag.pins);
        self.stats.failed_commits += 1;
    }

    /// Sequencer round (DESIGN §16): retires a maximal contiguous prefix
    /// of published windows with **one** fence and **one** `Head` store.
    /// `windows` must start at the current `Head` and be contiguous;
    /// `max_ready_ns` is the latest private-clock completion time among
    /// the windows' concurrent staging phases (overlap model: the round
    /// cannot begin before the slowest writer finished flushing).
    ///
    /// Protocol: advance the clock past the slowest writer, fence once
    /// (draining every writer's flushed payloads, entries, ring slots and
    /// `STAGED` descriptor words — the fence epoch is device-global), then
    /// persist `Head := end`. That `Head` store is the round's **commit
    /// point**: recovery rolls every covered window forward from then on.
    /// The role switch, `Tail := end` and each fragment's
    /// [`retire`](Self::retire) follow, exactly as in the mutex path.
    pub(crate) fn mw_sequence(&mut self, windows: &mut [MwWindow], max_ready_ns: u64) {
        let _t = telemetry::span(telemetry::phase::COMMIT);
        debug_assert!(!windows.is_empty());
        debug_assert_eq!(self.head, self.tail, "round must start at a closed ring");
        debug_assert_eq!(windows[0].start, self.head, "round must start at Head");
        let old_tail = self.tail;
        let mut end = self.head;
        for w in windows.iter() {
            debug_assert_eq!(w.start, end, "round windows must be contiguous");
            end = w.start + w.len;
        }
        self.nvm.clock().advance_to(max_ready_ns);
        {
            // One fence + one Head move for the whole round.
            let _r = telemetry::span(telemetry::phase::COMMIT_RING);
            self.nvm.sfence();
            self.head = end;
            self.nvm.atomic_write_u64(HEAD_OFF, self.head);
            self.nvm.persist(HEAD_OFF, 8);
            self.nvm.note_commit(HEAD_OFF, 8);
        }
        let switched: Vec<u32> = windows
            .iter()
            .flat_map(|w| match &w.meta {
                MwMeta::Staged(frag) => &frag.touched[..],
                _ => &[],
            })
            .copied()
            .collect();
        self.complete_role_switch(&switched);
        self.move_tail();
        // Retired windows' slots may carry dead tags; scrub them so the
        // "no tags at rest" invariant (DESIGN §14) holds on this path too.
        self.scrub_slot_tags(old_tail, end);
        let mut ok_windows = 0u64;
        for w in windows {
            self.mw_retire_desc(w.desc_slot);
            if let MwMeta::Staged(frag) = std::mem::take(&mut w.meta) {
                self.retire(frag);
                ok_windows += 1;
            }
        }
        // "Windows published per Head advance": one group per round that
        // retired more than one real window.
        if ok_windows > 1 {
            self.stats.group_commits += 1;
            self.stats.batched_txns += ok_windows;
        }
        drop(_t);
        self.maybe_destage();
    }

    /// Delta staging's step (1): makes reserved block `shadow` hold `data`
    /// by storing and flushing only the 64 B lines that differ from what
    /// the block holds now, then the same fence the full-block path
    /// issues. The read is charged at media latency. Which lines are
    /// skipped depends on the block's content alone: a skipped line
    /// already equals the payload and is durable, because a reserved
    /// block was a committed `cur` and has not been stored to since.
    fn stage_delta(&mut self, shadow: u32, data: &[u8; BLOCK_SIZE], coalesce: bool) {
        const LINE: usize = nvmsim::CACHE_LINE;
        const WORDS: usize = LINE / 8;
        let addr = self.layout.data_addr(shadow);
        let mut old = [0u8; BLOCK_SIZE];
        self.nvm.read(addr, &mut old);
        // Eight word compares per line, not a `bcmp` call.
        let word = |block: &[u8; BLOCK_SIZE], w| u64::from_ne_bytes(block.as_chunks::<8>().0[w]);
        let differs = |l: usize| {
            (l * WORDS..(l + 1) * WORDS).fold(0, |acc, w| acc | (word(&old, w) ^ word(data, w)))
                != 0
        };
        let mut stored = 0;
        let mut line = 0;
        while line < BLOCK_LINES {
            if !differs(line) {
                line += 1;
                continue;
            }
            let start = line;
            while line < BLOCK_LINES && differs(line) {
                line += 1;
            }
            let (off, len) = (start * LINE, (line - start) * LINE);
            self.nvm.write(addr + off, &data[off..off + len]);
            self.nvm.clflush(addr + off, len);
            stored += line - start;
        }
        if !coalesce {
            self.nvm.sfence();
        }
        let skipped = (BLOCK_LINES - stored) as u64;
        self.stats.delta_stages += 1;
        self.stats.delta_lines_skipped += skipped;
        telemetry::count("core.delta_stages", 1);
        telemetry::count("core.delta_lines_skipped", skipped);
    }

    /// True when commit-path flush coalescing is in force (requires the
    /// role switch: the double-write ablation keeps per-step persists).
    fn coalescing(&self) -> bool {
        self.cfg.coalesce_flushes && self.cfg.role_switch
    }

    /// Step (4) of §4.4: flip every committed block from *log* to *buffer*.
    /// One atomic store + flush per entry, a single fence for the batch.
    /// `prev` fields are retained; they are reclaimed only after `Tail`
    /// moves, so a crash here can still revoke the whole transaction.
    fn complete_role_switch(&mut self, touched: &[u32]) {
        let _t = telemetry::span(telemetry::phase::COMMIT_ROLE_SWITCH);
        // Coalesced: store all role flips first, then flush each
        // *distinct* entry line once. The trailing fence drains these
        // lines (and any remaining staged ones) strictly before the
        // caller persists `Tail`, so the commit point cannot be
        // observed ahead of a role flip.
        let coalesce = self.coalescing();
        for &idx in touched {
            let e = self.read_entry(idx);
            debug_assert_eq!(e.role, Role::Log);
            let addr = self.layout.entry_addr(idx);
            self.nvm
                .atomic_write_u128(addr, e.switched_to_buffer().encode());
            if !coalesce {
                self.nvm.clflush(addr, 16);
            }
        }
        if coalesce {
            self.flush_entries(touched);
        }
        self.nvm.sfence();
    }

    /// Ablation path (`role_switch = false`): emulate journaling's double
    /// write *inside* the cache — every committed block is copied to a
    /// second NVM block ("checkpoint" copy) before the commit point.
    fn complete_double_write(&mut self, frag: &mut Fragment) -> Result<(), TincaError> {
        let _t = telemetry::span(telemetry::phase::COMMIT_DOUBLE_WRITE);
        let mut buf = [0u8; BLOCK_SIZE];
        for &idx in &frag.touched {
            let e = self.read_entry(idx);
            debug_assert_eq!(e.role, Role::Log);
            let chk = self.alloc_block()?;
            self.pin_block(chk, &mut frag.pins);
            self.nvm.read(self.layout.data_addr(e.cur), &mut buf);
            let addr = self.layout.data_addr(chk);
            self.nvm.write(addr, &buf);
            self.nvm.persist(addr, BLOCK_SIZE);
            let log_blk = e.cur;
            let switched = CacheEntry::new(Role::Buffer, true, e.disk_blk, e.prev, chk);
            self.write_entry(idx, switched);
            // The log copy is garbage once the entry points at the
            // checkpoint copy — but keep it allocated (pinned) until the
            // commit point so revocation stays possible; it is released
            // in DRAM below only because the pins drop after `Tail`.
            self.free_blocks.release(log_blk);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Fallible disk I/O: retry, backoff, quarantine
    // ------------------------------------------------------------------

    /// Runs one disk I/O, retrying transient errors up to
    /// [`MAX_IO_ATTEMPTS`] with simulated-clock backoff between attempts.
    fn disk_retry(
        &mut self,
        mut io: impl FnMut(&dyn BlockDevice) -> Result<(), IoError>,
    ) -> Result<(), IoError> {
        let mut attempt = 1;
        loop {
            match io(&*self.disk) {
                Ok(()) => {
                    if attempt > 1 {
                        self.stats.transient_errors_absorbed += 1;
                    }
                    return Ok(());
                }
                Err(e) if e.is_transient() && attempt < MAX_IO_ATTEMPTS => {
                    attempt += 1;
                    self.stats.io_retries += 1;
                    self.nvm.clock().advance(RETRY_BACKOFF_NS);
                    telemetry::charge(telemetry::phase::IO_RETRY_BACKOFF, RETRY_BACKOFF_NS);
                }
                Err(e) => {
                    self.stats.permanent_io_errors += 1;
                    return Err(e);
                }
            }
        }
    }

    /// Marks entry `idx` quarantined: its dirty payload stays pinned in
    /// NVM until a later [`flush_all`](Self::flush_all) succeeds.
    fn quarantine(&mut self, idx: u32) {
        if self.quarantined.insert(idx) {
            self.stats.quarantined_blocks += 1;
        }
    }

    /// The cache's current fault condition; see [`Health`].
    pub(crate) fn health(&self) -> Health {
        let q = self.quarantined.len();
        if q == 0 {
            return Health::Healthy;
        }
        let evictable = self.index.len() - q;
        if self.free_block_count() == 0 && evictable == 0 {
            Health::ReadOnly
        } else {
            Health::Degraded { quarantined: q }
        }
    }

    /// Number of currently quarantined dirty blocks (the live count;
    /// [`CacheStats::quarantined_blocks`](crate::CacheStats) is
    /// cumulative).
    pub(crate) fn quarantined_count(&self) -> usize {
        self.quarantined.len()
    }

    /// Clears the intent tags of the retired ring window `[from, to)`:
    /// each tagged slot is rewritten with the bare block number, the
    /// touched lines flushed, and one fence drains them.
    ///
    /// This guards the 7-bit intent tag against wraparound collision
    /// (DESIGN §14): intent ids grow without bound but tags keep only the
    /// low 7 bits, so after 128 spanning commits a *new* intent's tag
    /// equals a *stale* one's. The window-homogeneity argument already
    /// makes stale tags unreachable — recovery only reads `[Tail, Head)`,
    /// and slots are fenced-durable before `Head` moves, so the window
    /// only ever holds the current fragment's slots — but scrubbing on
    /// retirement makes the stronger structural invariant hold: outside
    /// an open spanning window, **no ring slot carries a tag at all**, so
    /// a colliding tag simply does not exist on the device. Untagged
    /// windows (every single-shard commit) scrub nothing and emit no
    /// events.
    pub(crate) fn scrub_slot_tags(&mut self, from: u64, to: u64) {
        let mut tagged: Vec<usize> = Vec::new();
        for seq in from..to {
            let addr = self.layout.ring_slot_addr(seq);
            let (blk, tag) = split_slot(self.nvm.read_u64(addr));
            if tag != 0 {
                self.nvm.atomic_write_u64(addr, slot_value(blk, 0));
                tagged.push(addr);
            }
        }
        if self.flush_lines(tagged) > 0 {
            self.nvm.sfence();
        }
    }

    /// Undoes one in-flight entry: restores the previous version, or
    /// deletes the entry if the block was fresh. Shared by runtime abort
    /// and crash recovery. Returns the entry it persisted, so recovery's
    /// decoded table follows the device without a reload.
    pub(crate) fn revoke_entry(&mut self, idx: u32, e: CacheEntry) -> CacheEntry {
        debug_assert!(e.valid && !e.is_revoked_marker());
        let persisted = match e.revoked() {
            Some(restored) => {
                // In-flight entries are always modified, and so is the
                // restored entry (`revoked()` marks the previous version
                // dirty): net zero for the dirty count.
                debug_assert!(e.modified && restored.modified);
                self.write_entry(idx, restored);
                if !self.free_blocks.is_free(e.cur) {
                    self.free_blocks.release(e.cur);
                }
                restored
            }
            None => {
                self.write_entry(idx, CacheEntry::INVALID);
                self.index.remove(&e.disk_blk);
                if self.lru.contains(idx) {
                    self.lru.remove(idx);
                }
                self.free_entries.release(idx);
                if !self.free_blocks.is_free(e.cur) {
                    self.free_blocks.release(e.cur);
                }
                // A freed entry slot must not carry a stale quarantine mark
                // into its next life.
                self.quarantined.remove(&idx);
                // A no-op during crash recovery (the set is rebuilt from
                // the surviving entries afterwards); at runtime the entry
                // was tracked.
                self.dirty_idx.remove(&idx);
                CacheEntry::INVALID
            }
        };
        self.stats.revoked_blocks += 1;
        persisted
    }

    /// Reads on-disk block `disk_blk` through the cache (§4.6: Tinca caches
    /// reads as well as writes). Misses retry transient disk errors with
    /// backoff; a permanent fault surfaces as [`TincaError::Io`].
    pub(crate) fn read(&mut self, disk_blk: u64, buf: &mut [u8]) -> Result<(), TincaError> {
        assert_eq!(buf.len(), BLOCK_SIZE);
        let _t = telemetry::span(telemetry::phase::CACHE_READ);
        if let Some(&idx) = self.index.get(&disk_blk) {
            let e = self.read_entry(idx);
            debug_assert!(e.valid && e.disk_blk == disk_blk);
            if e.role == Role::Log {
                // Multi-writer path: the block is staged by an in-flight
                // (uncommitted) window, so serve the pre-transaction
                // snapshot — the previous version if one exists, else the
                // disk copy. Unreachable on the mutex path, where the
                // shard lock covers the whole commit.
                if e.prev != FRESH {
                    self.nvm.read(self.layout.data_addr(e.prev), buf);
                    self.lru.touch(idx);
                    self.stats.read_hits += 1;
                    return Ok(());
                }
                self.disk_retry(|d| d.read_block(disk_blk, buf))?;
                self.stats.read_misses += 1;
                return Ok(());
            }
            self.nvm.read(self.layout.data_addr(e.cur), buf);
            self.lru.touch(idx);
            self.stats.read_hits += 1;
            return Ok(());
        }
        self.disk_retry(|d| d.read_block(disk_blk, buf))?;
        self.stats.read_misses += 1;
        self.fill_clean(disk_blk, buf);
        drop(_t);
        // Miss fills consume free blocks just like commits do; a
        // read-heavy stretch must wake the daemon too or the supply only
        // recovers at commit boundaries.
        self.maybe_destage();
        Ok(())
    }

    /// Inserts a clean copy of `disk_blk` after a read miss. Best-effort:
    /// if no block can be allocated the read is simply not cached.
    fn fill_clean(&mut self, disk_blk: u64, data: &[u8]) {
        let Ok(blk) = self.alloc_block() else { return };
        let addr = self.layout.data_addr(blk);
        self.nvm.write(addr, data);
        self.nvm.persist(addr, BLOCK_SIZE);
        // Audited panic: same layout invariant as commit — one entry slot
        // per data block, so the just-allocated block guarantees a slot.
        #[allow(clippy::disallowed_methods)]
        let idx = self
            .free_entries
            .allocate()
            .expect("entry pool exhausts strictly after block pool");
        let e = CacheEntry::new(Role::Buffer, false, disk_blk, FRESH, blk);
        self.write_entry(idx, e);
        self.index.insert(disk_blk, idx);
        self.lru.push_mru(idx);
    }

    /// Allocates an NVM data block, evicting the LRU unpinned buffer block
    /// if the free pool is empty, and taking from the shadow reserve only
    /// when nothing is evictable. A victim whose dirty writeback fails
    /// permanently is quarantined (not freed) and the search moves to the
    /// next candidate; [`TincaError::NoVictim`] means every remaining
    /// block is pinned or quarantined.
    fn alloc_block(&mut self) -> Result<u32, TincaError> {
        loop {
            if let Some(b) = self.free_blocks.allocate() {
                return Ok(b);
            }
            let victim = if self.cfg.destage {
                // Destage keeps the LRU tail clean, so eviction should be
                // free; a dirty fallback means the daemon fell behind and
                // the foreground path pays a synchronous writeback — the
                // stall the watermarks exist to avoid.
                let clean = self.find_victim(true);
                if clean.is_none() {
                    let dirty = self.find_victim(false);
                    if dirty.is_some() {
                        self.stats.destage_stalls += 1;
                    }
                    dirty
                } else {
                    clean
                }
            } else {
                self.find_victim(false)
            };
            let Some(idx) = victim else {
                // Last resort: give up the coldest shadow.
                return self.shadows.pop_lru().ok_or(TincaError::NoVictim);
            };
            // On writeback failure the victim is quarantined and excluded
            // from the next search pass, so the loop always terminates —
            // the error is counted, not silently swallowed.
            if self.evict(idx).is_err() {
                self.stats.eviction_errors += 1;
            }
        }
    }

    /// LRU-order victim search. Log blocks and blocks pinned as a
    /// committing prev/cur stay (§4.6 rule 2); quarantined entries are
    /// never victims. `clean_only` restricts the search to unmodified
    /// blocks (evictable without disk I/O).
    fn find_victim(&self, clean_only: bool) -> Option<u32> {
        self.lru.iter_lru().find(|&idx| {
            if self.pin_entries[idx as usize] || self.quarantined.contains(&idx) {
                return false;
            }
            // DRAM dirty-set rejection first: a clean-only scan that finds
            // nothing must not charge an NVM entry read per candidate.
            if clean_only && self.dirty_idx.contains(&idx) {
                return false;
            }
            let e = self.read_entry(idx);
            e.valid
                && e.role == Role::Buffer
                && !self.pin_blocks[e.cur as usize]
                && (!clean_only || !e.modified)
        })
    }

    /// Evicts entry `idx`: writes the block back if dirty, then
    /// persistently invalidates the entry *before* its NVM block can be
    /// reused (so a crash never sees an entry naming a reused block). If
    /// the writeback fails permanently, the entry is quarantined instead
    /// — its payload stays safe in NVM.
    fn evict(&mut self, idx: u32) -> Result<(), IoError> {
        let _t = telemetry::span(telemetry::phase::CACHE_EVICT);
        let e = self.read_entry(idx);
        debug_assert!(e.valid && e.role == Role::Buffer);
        if e.modified {
            let _w = telemetry::span(telemetry::phase::CACHE_WRITEBACK);
            let mut buf = [0u8; BLOCK_SIZE];
            self.nvm.read(self.layout.data_addr(e.cur), &mut buf);
            if let Err(err) = self.disk_retry(|d| d.write_block(e.disk_blk, &buf)) {
                self.quarantine(idx);
                return Err(err);
            }
            self.stats.writebacks += 1;
        }
        self.write_entry(idx, CacheEntry::INVALID);
        self.index.remove(&e.disk_blk);
        self.lru.remove(idx);
        self.free_entries.release(idx);
        self.free_blocks.release(e.cur);
        self.shadows.release(idx, &mut self.free_blocks);
        self.dirty_idx.remove(&idx);
        self.stats.evictions += 1;
        Ok(())
    }

    /// Writes back every dirty cached block and marks it clean, in
    /// ascending disk-block order (so the disk sees the same request
    /// stream in every process). Used at orderly shutdown and by
    /// verification harnesses.
    ///
    /// Quarantined blocks are re-attempted (a replaced disk recovers
    /// them). Errors are collected, not short-circuited: every dirty
    /// block gets its flush attempt, then the first error is returned —
    /// with [`Health`] reporting how much is still pinned in NVM.
    pub(crate) fn flush_all(&mut self) -> Result<(), TincaError> {
        if self.head != self.tail {
            return Err(TincaError::CommitInProgress {
                head: self.head,
                tail: self.tail,
            });
        }
        let _t = telemetry::span(telemetry::phase::CACHE_FLUSH_ALL);
        // A full flush is a drain barrier: any destage batch still in
        // flight on the background lane completes (its entries are
        // already clean; the foreground clock catches up to the lane).
        self.drain_destage_lane();
        let mut buf = [0u8; BLOCK_SIZE];
        let mut first_err = Ok(());
        let mut cached: Vec<(u64, u32)> = self.index.iter().map(|(&b, &i)| (b, i)).collect();
        cached.sort_unstable();
        for (_, idx) in cached {
            let e = self.read_entry(idx);
            if e.valid && e.modified {
                let _w = telemetry::span(telemetry::phase::CACHE_WRITEBACK);
                self.nvm.read(self.layout.data_addr(e.cur), &mut buf);
                match self.disk_retry(|d| d.write_block(e.disk_blk, &buf)) {
                    Ok(()) => {
                        self.stats.writebacks += 1;
                        self.write_entry(
                            idx,
                            CacheEntry {
                                modified: false,
                                ..e
                            },
                        );
                        self.quarantined.remove(&idx);
                        self.dirty_idx.remove(&idx);
                    }
                    Err(err) => {
                        self.quarantine(idx);
                        if first_err.is_ok() {
                            first_err = Err(TincaError::Io(err));
                        }
                    }
                }
            }
        }
        first_err
    }

    // ------------------------------------------------------------------
    // Write-behind destage (background lane)
    // ------------------------------------------------------------------

    /// Low/high-watermark write-behind daemon, run after every successful
    /// commit. When the *supply* — free NVM blocks plus clean cached
    /// blocks, i.e. everything [`Self::alloc_block`] can hand out without
    /// disk I/O — drops below the low watermark ([`destage_watermarks`]),
    /// the daemon harvests dirty LRU victims (up to [`DESTAGE_BATCH`], or
    /// fewer if that already restores the high watermark), sorts
    /// them by disk address and issues one vectored
    /// [`BlockDevice::write_blocks`] on the background lane.
    ///
    /// Clock model (mtfio-style wall = max, busy = sum): the batch's
    /// device time is *not* charged to the foreground clock. Instead the
    /// lane's absolute free deadline (`destage_lane_free_ns`) moves
    /// forward, and at most one batch is in flight: the daemon refuses to
    /// fire again until the deadline passes, and
    /// [`Self::drain_destage_lane`] stalls the foreground clock up to the
    /// deadline where ordering demands it (full flush). Disk `busy_ns`
    /// still accumulates, so utilisation reports stay honest.
    ///
    /// Durability is unchanged: destage only writes *committed* blocks
    /// (read from the persistent NVM image — everything outside the
    /// commit window is durable) and marking a block clean is a pure
    /// cache-state transition. A crash mid-destage at worst leaves a
    /// block dirty that was already on disk; recovery re-writes it.
    fn maybe_destage(&mut self) {
        if !self.cfg.destage {
            return;
        }
        let now = self.nvm.clock().now_ns();
        if self.destage_lane_free_ns > now {
            return; // previous batch still occupies the lane
        }
        let data_blocks = self.layout.data_blocks as usize;
        let supply = self.free_block_count() + (self.index.len() - self.dirty_idx.len());
        // Watermarks round with ceiling division and guarantee
        // `high > low` so a completed harvest always clears the trigger
        // (flooring both used to collapse tiny caches to low == high or
        // a zero-block target; see `destage_watermarks`).
        let (low_blocks, high_blocks) = destage_watermarks(data_blocks);
        if supply >= low_blocks {
            return;
        }
        let _t = telemetry::span(telemetry::phase::DESTAGE);
        let need = high_blocks.saturating_sub(supply).clamp(1, DESTAGE_BATCH);
        // Harvest in LRU order: the blocks eviction would want next. The
        // scan uses persistent entry reads so the daemon's bookkeeping
        // does not bill NVM latency to the foreground clock.
        let mut victims: Vec<(u32, CacheEntry)> = Vec::with_capacity(need);
        for idx in self.lru.iter_lru() {
            if victims.len() >= need {
                break;
            }
            if self.pin_entries[idx as usize]
                || self.quarantined.contains(&idx)
                || !self.dirty_idx.contains(&idx)
            {
                continue;
            }
            let e = self.read_entry_persistent(idx);
            if e.valid && e.role == Role::Buffer && e.modified && !self.pin_blocks[e.cur as usize] {
                victims.push((idx, e));
            }
        }
        if victims.is_empty() {
            return;
        }
        // Address-sort: contiguous runs stream on the device after one
        // seek (the point of batching).
        victims.sort_unstable_by_key(|&(_, e)| e.disk_blk);
        let payloads: Vec<Vec<u8>> = victims
            .iter()
            .map(|&(_, e)| {
                let mut buf = vec![0u8; BLOCK_SIZE];
                self.nvm
                    .read_persistent(self.layout.data_addr(e.cur), &mut buf);
                buf
            })
            .collect();
        let reqs: Vec<(u64, &[u8])> = victims
            .iter()
            .zip(&payloads)
            .map(|(&(_, e), p)| (e.disk_blk, &p[..]))
            .collect();
        let report = self.disk.write_blocks(&reqs, IoLane::Background);
        drop(reqs);
        let mut lane_ns = report.device_ns;
        self.stats.destage_batches += 1;
        let failed: HashMap<usize, IoError> = report.errors.into_iter().collect();
        for (pos, &(idx, e)) in victims.iter().enumerate() {
            let res = match failed.get(&pos) {
                None => Ok(()),
                Some(&err) => {
                    let (extra, res) = self.destage_retry(e.disk_blk, &payloads[pos], err);
                    lane_ns += extra;
                    res
                }
            };
            match res {
                Ok(()) => {
                    // Same persistence discipline as the eviction path:
                    // the clean mark is a real entry write on the
                    // foreground clock (metadata cost is not hidden).
                    self.write_entry(
                        idx,
                        CacheEntry {
                            modified: false,
                            ..e
                        },
                    );
                    self.quarantined.remove(&idx);
                    self.dirty_idx.remove(&idx);
                    self.stats.writebacks += 1;
                    self.stats.destage_blocks += 1;
                }
                Err(_) => self.quarantine(idx),
            }
        }
        self.destage_lane_free_ns = now + lane_ns;
        // Busy-lane time, deliberately charged without a clock advance:
        // the phase report shows overlapped device time next to the
        // foreground phases (see DESIGN.md §11).
        telemetry::charge(telemetry::phase::DESTAGE_WRITEBACK, lane_ns);
    }

    /// Background-lane retry loop for one failed destage request. Mirrors
    /// [`Self::disk_retry`]'s budget and counting exactly, but backoff and
    /// device time extend the lane deadline instead of stalling the
    /// foreground clock. Returns the lane time consumed and the outcome.
    fn destage_retry(
        &mut self,
        blk: u64,
        buf: &[u8],
        first: IoError,
    ) -> (u64, Result<(), IoError>) {
        let mut lane_ns = 0u64;
        let mut err = first;
        let mut attempt = 1u32;
        loop {
            if !err.is_transient() || attempt >= MAX_IO_ATTEMPTS {
                self.stats.permanent_io_errors += 1;
                return (lane_ns, Err(err));
            }
            attempt += 1;
            self.stats.io_retries += 1;
            lane_ns += RETRY_BACKOFF_NS;
            let r = self.disk.write_blocks(&[(blk, buf)], IoLane::Background);
            lane_ns += r.device_ns;
            match r.errors.into_iter().next() {
                None => {
                    self.stats.transient_errors_absorbed += 1;
                    return (lane_ns, Ok(()));
                }
                Some((_, e)) => err = e,
            }
        }
    }

    /// Stalls the foreground clock until the background destage lane is
    /// idle. Ordering barrier for operations that must observe all prior
    /// writebacks as complete (full flush, orderly shutdown).
    fn drain_destage_lane(&mut self) {
        let now = self.nvm.clock().now_ns();
        if self.destage_lane_free_ns > now {
            let wait = self.destage_lane_free_ns - now;
            self.nvm.clock().advance(wait);
            telemetry::charge(telemetry::phase::DESTAGE_DRAIN, wait);
        }
    }

    // ------------------------------------------------------------------
    // Accessors & inspection
    // ------------------------------------------------------------------

    /// The cache's NVM space partitioning.
    pub(crate) fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The NVM device below the cache.
    pub(crate) fn nvm(&self) -> &Nvm {
        &self.nvm
    }

    /// The disk below the cache.
    pub(crate) fn disk(&self) -> &DynDisk {
        &self.disk
    }

    /// Cumulative cache counters.
    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of currently cached (valid) blocks.
    pub(crate) fn cached_blocks(&self) -> usize {
        self.index.len()
    }

    /// Number of NVM data blocks no entry references: the free list plus
    /// the shadow reserve (allocation falls back on it, so it is supply).
    pub(crate) fn free_block_count(&self) -> usize {
        self.free_blocks.free_count() + self.shadows.len()
    }

    /// True if `disk_blk` is cached.
    pub(crate) fn contains(&self, disk_blk: u64) -> bool {
        self.index.contains_key(&disk_blk)
    }

    /// Returns the cached payload of `disk_blk`, if present (no LRU touch,
    /// no stats — inspection only).
    pub(crate) fn peek(&self, disk_blk: u64) -> Option<[u8; BLOCK_SIZE]> {
        let &idx = self.index.get(&disk_blk)?;
        let e = self.read_entry(idx);
        let mut buf = [0u8; BLOCK_SIZE];
        self.nvm.read(self.layout.data_addr(e.cur), &mut buf);
        Some(buf)
    }

    pub(crate) fn read_entry(&self, idx: u32) -> CacheEntry {
        CacheEntry::decode(self.nvm.read_u128(self.layout.entry_addr(idx)))
    }

    pub(crate) fn write_entry(&self, idx: u32, e: CacheEntry) {
        let addr = self.layout.entry_addr(idx);
        self.nvm.atomic_write_u128(addr, e.encode());
        self.nvm.persist(addr, 16);
    }

    /// Entry store *without* the per-entry persist. Used only by the
    /// coalesced commit path, which flushes the distinct 64 B entry
    /// lines once per transaction and fences before `Head` moves — see
    /// [`TincaConfig::coalesce_flushes`].
    fn write_entry_unflushed(&self, idx: u32, e: CacheEntry) {
        self.nvm
            .atomic_write_u128(self.layout.entry_addr(idx), e.encode());
    }

    /// Reads entry `idx` from the *persistent* NVM image, charging no
    /// simulated latency. Valid whenever the cache is between commits:
    /// every entry is persisted before the commit point (and recovery
    /// re-persists survivors), so the persistent image equals the
    /// volatile one. The destage daemon scans with this so its harvest
    /// does not bill NVM read time to the foreground clock.
    fn read_entry_persistent(&self, idx: u32) -> CacheEntry {
        let mut b = [0u8; 16];
        self.nvm
            .read_persistent(self.layout.entry_addr(idx), &mut b);
        CacheEntry::decode(u128::from_le_bytes(b))
    }

    // ------------------------------------------------------------------
    // Pinning (§4.6 rule 2)
    // ------------------------------------------------------------------

    fn pin_block(&mut self, b: u32, pins: &mut Pins) {
        if b != FRESH && !self.pin_blocks[b as usize] {
            self.pin_blocks[b as usize] = true;
            pins.blocks.push(b);
        }
    }

    fn pin_entry(&mut self, idx: u32, pins: &mut Pins) {
        if !self.pin_entries[idx as usize] {
            self.pin_entries[idx as usize] = true;
            pins.entries.push(idx);
            self.pinned_entries += 1;
        }
    }

    /// Releases one fragment's pins.
    fn unpin(&mut self, pins: Pins) {
        for b in pins.blocks {
            self.pin_blocks[b as usize] = false;
        }
        self.pinned_entries -= pins.entries.len();
        for i in pins.entries {
            self.pin_entries[i as usize] = false;
        }
    }

    // ------------------------------------------------------------------
    // Recovery plumbing (the algorithm lives in recovery.rs)
    // ------------------------------------------------------------------

    pub(crate) fn recovery_parts(
        nvm: Nvm,
        disk: DynDisk,
        cfg: TincaConfig,
        layout: Layout,
        head: u64,
        tail: u64,
    ) -> Self {
        let mut c = Self::from_parts(nvm, disk, cfg, layout, head, tail);
        c.free_blocks = FreeMonitor::new_all_used(layout.data_blocks);
        c.free_entries = FreeMonitor::new_all_used(layout.entry_count);
        c
    }

    pub(crate) fn dram_mark_dirty(&mut self, idx: u32) {
        self.dirty_idx.insert(idx);
    }

    pub(crate) fn set_head_tail(&mut self, head: u64, tail: u64) {
        self.head = head;
        self.tail = tail;
    }

    pub(crate) fn head_tail(&self) -> (u64, u64) {
        (self.head, self.tail)
    }

    pub(crate) fn dram_insert(&mut self, disk_blk: u64, idx: u32) {
        self.index.insert(disk_blk, idx);
        self.lru.push_mru(idx);
    }

    pub(crate) fn index_get(&self, disk_blk: u64) -> Option<u32> {
        self.index.get(&disk_blk).copied()
    }

    pub(crate) fn free_blocks_mut(&mut self) -> &mut FreeMonitor {
        &mut self.free_blocks
    }

    pub(crate) fn free_entries_mut(&mut self) -> &mut FreeMonitor {
        &mut self.free_entries
    }

    pub(crate) fn stats_mut(&mut self) -> &mut CacheStats {
        &mut self.stats
    }

    /// Exhaustive self-check of the DRAM/NVM invariants; used by tests and
    /// the crash-recovery verifier. Returns a description of the first
    /// violation found.
    pub(crate) fn check_consistency(&self) -> Result<(), String> {
        if self.head != self.tail {
            return Err(format!(
                "ring open outside commit: head={} tail={}",
                self.head, self.tail
            ));
        }
        // Every fragment releases its pins when it retires or is revoked.
        let marked = |bits: &[bool]| bits.iter().filter(|&&b| b).count();
        let (entries, blocks) = (marked(&self.pin_entries), marked(&self.pin_blocks));
        if self.pinned_entries + entries + blocks != 0 {
            return Err(format!(
                "pins held at rest: {} entries counted, {entries} entries, {blocks} blocks",
                self.pinned_entries
            ));
        }
        let mut seen_cur = vec![false; self.layout.data_blocks as usize];
        let mut valid_count = 0usize;
        let mut dirty = 0usize;
        for idx in 0..self.layout.entry_count {
            let e = self.read_entry(idx);
            if !e.valid {
                if !self.free_entries.is_free(idx) {
                    return Err(format!("invalid entry {idx} not in free-entry pool"));
                }
                continue;
            }
            valid_count += 1;
            if e.modified {
                dirty += 1;
            }
            if e.modified != self.dirty_idx.contains(&idx) {
                return Err(format!(
                    "entry {idx} modified={} but dirty set says {}",
                    e.modified,
                    self.dirty_idx.contains(&idx)
                ));
            }
            if e.role == Role::Log {
                return Err(format!("entry {idx} still has log role at rest"));
            }
            if e.cur as usize >= self.layout.data_blocks as usize {
                return Err(format!("entry {idx} cur block {} out of range", e.cur));
            }
            if seen_cur[e.cur as usize] {
                return Err(format!("NVM block {} referenced by two entries", e.cur));
            }
            seen_cur[e.cur as usize] = true;
            if self.free_blocks.is_free(e.cur) {
                return Err(format!(
                    "entry {idx} cur block {} is in the free pool",
                    e.cur
                ));
            }
            match self.index.get(&e.disk_blk) {
                Some(&i) if i == idx => {}
                other => {
                    return Err(format!(
                        "entry {idx} (disk blk {}) not indexed correctly: {other:?}",
                        e.disk_blk
                    ))
                }
            }
            if !self.lru.contains(idx) {
                return Err(format!("valid entry {idx} missing from LRU list"));
            }
        }
        if valid_count != self.index.len() {
            return Err(format!(
                "index size {} != valid entries {valid_count}",
                self.index.len()
            ));
        }
        if valid_count != self.lru.len() {
            return Err(format!(
                "LRU size {} != valid entries {valid_count}",
                self.lru.len()
            ));
        }
        if self.shadows.len() > self.shadows.cap() {
            return Err(format!(
                "shadow reserve holds {} blocks, cap {}",
                self.shadows.len(),
                self.shadows.cap()
            ));
        }
        for (idx, b) in self.shadows.iter() {
            if !self.lru.contains(idx) {
                return Err(format!("reserved block {b} owned by invalid entry {idx}"));
            }
            if b as usize >= seen_cur.len() {
                return Err(format!("entry {idx} reserved block {b} out of range"));
            }
            if seen_cur[b as usize] {
                return Err(format!("reserved block {b} is referenced elsewhere"));
            }
            seen_cur[b as usize] = true;
            if self.free_blocks.is_free(b) {
                return Err(format!("reserved block {b} is in the free pool"));
            }
        }
        let used_blocks = self.layout.data_blocks as usize - self.free_block_count();
        if used_blocks != valid_count {
            return Err(format!(
                "{used_blocks} blocks in use but {valid_count} valid entries"
            ));
        }
        if dirty != self.dirty_idx.len() {
            return Err(format!(
                "dirty set holds {} but {dirty} modified entries",
                self.dirty_idx.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::SpanningIntent;
    use blockdev::{DiskKind, SimDisk};
    use nvmsim::{NvmConfig, NvmDevice, NvmTech, SimClock};

    fn small_cache() -> TincaCache {
        small_cache_with(TincaConfig::default())
    }

    fn small_cache_with(cfg: TincaConfig) -> TincaCache {
        let clock = SimClock::new();
        let nvm = NvmDevice::new(NvmConfig::new(256 << 10, NvmTech::Pcm), clock.clone());
        let disk = SimDisk::new(DiskKind::Ssd, 1 << 16, clock);
        TincaCache::format(
            nvm,
            disk,
            TincaConfig {
                ring_bytes: 4096,
                ..cfg
            },
        )
    }

    /// A delta-staging cache in which block 5 owns a shadow and block 6
    /// does not.
    fn cache_with_one_shadow() -> (TincaCache, u32) {
        let mut c = small_cache_with(TincaConfig {
            delta_stage: true,
            ..TincaConfig::default()
        });
        for v in [1u8, 2] {
            let mut t = Txn::new();
            t.write(5, &[v; BLOCK_SIZE]);
            t.write(6, &[v; BLOCK_SIZE]);
            c.commit(&t).unwrap();
        }
        let idx6 = c.index[&6];
        c.shadows.release(idx6, &mut c.free_blocks);
        c.check_consistency().unwrap();
        assert_eq!(c.shadows.len(), 1);
        let shadow = c.shadows.iter().next().unwrap().1;
        (c, shadow)
    }

    #[test]
    fn check_consistency_rejects_a_reserved_block_on_the_free_list() {
        let (mut c, shadow) = cache_with_one_shadow();
        c.free_blocks.release(shadow);
        let err = c.check_consistency().unwrap_err();
        assert!(err.contains("in the free pool"), "{err}");
    }

    #[test]
    fn check_consistency_rejects_a_reserved_block_an_entry_references() {
        let (mut c, _) = cache_with_one_shadow();
        let idx6 = c.index[&6];
        let cur6 = c.read_entry(idx6).cur;
        // Hand block 6's live `cur` to block 6's entry as its "shadow".
        c.shadows.park(idx6, cur6, &mut c.free_blocks);
        let err = c.check_consistency().unwrap_err();
        assert!(err.contains("referenced elsewhere"), "{err}");
    }

    fn destage_cfg(coalesce_flushes: bool) -> TincaConfig {
        TincaConfig {
            destage: true,
            coalesce_flushes,
            ..TincaConfig::default()
        }
    }

    /// One-block transactions over `span` distinct disk blocks, `n` commits.
    fn write_cycle(c: &mut TincaCache, n: u64, span: u64) {
        for i in 0..n {
            let mut t = Txn::new();
            t.write(i % span, &[(i % 251) as u8; BLOCK_SIZE]);
            c.commit(&t).unwrap();
        }
    }

    #[test]
    fn destage_fires_below_low_watermark_and_keeps_victims_clean() {
        let mut c = small_cache_with(destage_cfg(false));
        let capacity = u64::from(c.layout.data_blocks);
        // Dirty more blocks than the high watermark allows to stay dirty.
        write_cycle(&mut c, capacity - 2, capacity - 2);
        let s = c.stats();
        assert!(s.destage_batches > 0, "daemon never fired: {s:?}");
        assert!(s.destage_blocks > 0);
        assert_eq!(s.destage_stalls, 0, "no eviction happened yet");
        // The supply (free + clean) must be back at or above the low mark
        // (25 % of the data blocks).
        let supply = c.free_block_count() + c.cached_blocks() - c.dirty_idx.len();
        let low = capacity as usize * 25 / 100;
        assert!(supply >= low, "supply {supply} still below low mark {low}");
        c.check_consistency().unwrap();
    }

    #[test]
    fn flush_all_after_destage_leaves_disk_image_complete() {
        let clock = SimClock::new();
        let nvm = NvmDevice::new(NvmConfig::new(256 << 10, NvmTech::Pcm), clock.clone());
        let disk = SimDisk::new(DiskKind::Hdd, 1 << 16, clock);
        let mut c = TincaCache::format(
            nvm,
            disk,
            TincaConfig {
                ring_bytes: 4096,
                ..destage_cfg(false)
            },
        );
        let span = u64::from(c.layout.data_blocks) + 10;
        write_cycle(&mut c, span * 2, span);
        c.flush_all().unwrap();
        assert!(c.dirty_idx.is_empty());
        // Every block readable with its last-committed payload.
        let mut buf = [0u8; BLOCK_SIZE];
        for b in 0..span {
            let last = (0..span * 2).rev().find(|i| i % span == b).unwrap();
            c.read(b, &mut buf).unwrap();
            assert_eq!(buf, [(last % 251) as u8; BLOCK_SIZE], "block {b}");
        }
        c.check_consistency().unwrap();
    }

    #[test]
    fn destage_survives_recovery_and_rebuilds_dirty_count() {
        let mut c = small_cache_with(destage_cfg(true));
        let capacity = u64::from(c.layout.data_blocks);
        write_cycle(&mut c, capacity - 2, capacity - 2);
        let dirty_before = c.dirty_idx.len();
        let (nvm, disk, cfg) = (c.nvm.clone(), c.disk.clone(), c.cfg.clone());
        drop(c);
        let rec = TincaCache::recover_with_intent(nvm, disk, cfg, SpanningIntent::None).unwrap();
        rec.check_consistency().unwrap();
        assert_eq!(rec.dirty_idx.len(), dirty_before);
    }

    /// `flush_all` must refuse to run while a transaction is committing
    /// (`Head != Tail`) — in release builds too, not just under
    /// `debug_assert`. A flush interleaved with the commit protocol could
    /// write a log-role (uncommitted) payload to disk.
    #[test]
    fn flush_all_mid_commit_is_rejected_at_runtime() {
        let mut c = small_cache();
        let mut t = Txn::new();
        t.write(5, &[7u8; BLOCK_SIZE]);
        c.commit(&t).unwrap();
        // Reproduce the mid-protocol window (Head moved, Tail not) that a
        // concurrent flush would observe.
        let (head, tail) = c.head_tail();
        c.set_head_tail(head + 1, tail);
        match c.flush_all() {
            Err(TincaError::CommitInProgress { head: h, tail: t }) => {
                assert_eq!((h, t), (head + 1, tail));
            }
            other => panic!("expected CommitInProgress, got {other:?}"),
        }
        // Restoring the ring makes the same call succeed.
        c.set_head_tail(head, tail);
        c.flush_all().unwrap();
        assert_eq!(c.stats().writebacks, 1);
    }

    /// A disk that records the block number of every write it serves.
    struct WriteLog {
        inner: DynDisk,
        writes: std::sync::Mutex<Vec<u64>>,
    }

    impl BlockDevice for WriteLog {
        fn read_block(&self, blk: u64, buf: &mut [u8]) -> Result<(), IoError> {
            self.inner.read_block(blk, buf)
        }
        fn write_block(&self, blk: u64, buf: &[u8]) -> Result<(), IoError> {
            self.writes.lock().unwrap().push(blk);
            self.inner.write_block(blk, buf)
        }
        fn num_blocks(&self) -> u64 {
            self.inner.num_blocks()
        }
        fn stats(&self) -> blockdev::DiskStats {
            self.inner.stats()
        }
    }

    /// `flush_all` writes dirty blocks back in ascending disk-block order,
    /// whatever order they were committed (and hashed) in.
    #[test]
    fn flush_all_writes_back_in_ascending_disk_block_order() {
        let clock = SimClock::new();
        let nvm = NvmDevice::new(NvmConfig::new(256 << 10, NvmTech::Pcm), clock.clone());
        let log = Arc::new(WriteLog {
            inner: SimDisk::new(DiskKind::Ssd, 1 << 16, clock),
            writes: Default::default(),
        });
        let cfg = TincaConfig {
            ring_bytes: 4096,
            ..TincaConfig::default()
        };
        let mut c = TincaCache::format(nvm, log.clone(), cfg);
        let blocks = [907u64, 3, 512, 44, 9000, 45, 128, 7];
        for &b in &blocks {
            let mut t = Txn::new();
            t.write(b, &[b as u8; BLOCK_SIZE]);
            c.commit(&t).unwrap();
        }
        log.writes.lock().unwrap().clear();
        c.flush_all().unwrap();
        let mut ascending = blocks.to_vec();
        ascending.sort_unstable();
        assert_eq!(*log.writes.lock().unwrap(), ascending);
    }
}
