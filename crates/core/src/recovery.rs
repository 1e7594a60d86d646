//! Crash recovery (§4.5).
//!
//! `Head`/`Tail` and the per-entry role bits drive recovery:
//!
//! * `Head == Tail` — either no transaction was committing, or the crash
//!   hit before the first `Head` move. A scan of all entries finds any
//!   *log-role* block and revokes it.
//! * `Head != Tail` — the crash hit mid-commit. Every block recorded in
//!   the ring window `[Tail, Head)` is revoked — including blocks whose
//!   role was already switched to *buffer* by the crash-interrupted
//!   role-switch pass (the ring is what identifies them; their `prev`
//!   fields are still intact because previous versions are only reclaimed
//!   after `Tail` moves).
//!
//! We additionally always run the full-entry scan: the entry update of the
//! block being committed persists *before* its ring slot, so the last
//! in-flight block can be log-role yet missing from the ring window.
//!
//! Recovery is **idempotent**: revoked entries carry the `prev == cur`
//! marker (see [`crate::CacheEntry::revoked`]), so a crash during recovery
//! followed by a second recovery pass cannot revoke twice.
//!
//! ## Spanning transactions
//!
//! A multi-shard pool passes each shard a [`SpanningIntent`] directive
//! derived from the pool's persistent intent record. Ring slots carry an
//! intent tag in their top byte ([`crate::layout::split_slot`]); when the
//! directive is `Resolved { id }`, window slots tagged with `id` are
//! **rolled forward** (kept — their role switch is already durable,
//! because the resolve store persists strictly after every fragment's
//! fences) instead of revoked. Every other tagged or untagged window slot
//! rolls back exactly as before. Both directions are idempotent: rolling
//! forward only skips revocation and lets the ring close, and a repeated
//! recovery with the same directive reaches the same state.

use std::collections::HashMap;

use blockdev::BLOCK_SIZE;
use nvmsim::Nvm;

use crate::cache::DynDisk;
use crate::entry::Role;
use crate::layout::{
    intent_tag, mw_desc_addr, mw_split_state, split_slot, Layout, DATA_BLOCKS_OFF, ENTRY_COUNT_OFF,
    HEAD_OFF, INTENT_PREPARED, INTENT_RESOLVED, MAGIC, MAGIC_OFF, MW_DEAD_TAG, MW_STAGED,
    MW_WINDOWS, RING_CAP_OFF, TAIL_OFF,
};
use crate::{TincaCache, TincaConfig, TincaError};

/// Directive a recovering shard receives about the pool's spanning-intent
/// record (always [`None`](SpanningIntent::None) for a standalone cache or
/// a single-shard pool — roll every in-flight fragment back).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SpanningIntent {
    /// No spanning transaction was in flight (or its fragments must roll
    /// back because the intent never resolved).
    #[default]
    None,
    /// Intent `id` was published but not resolved: its fragments roll
    /// back. Equivalent to `None` for the ring scan; retained so the pool
    /// can report and retire the record.
    Prepared {
        /// The unresolved intent's sequence id.
        id: u64,
    },
    /// Intent `id` resolved before the crash: every fragment tagged with
    /// it is durable and rolls forward.
    Resolved {
        /// The resolved intent's sequence id.
        id: u64,
    },
}

impl SpanningIntent {
    /// Decodes a persistent intent-state word (`INTENT_STATE_OFF` in the
    /// layout module). Unknown state bytes decode as `Prepared` — the
    /// conservative direction (roll back).
    pub fn decode(word: u64) -> SpanningIntent {
        let id = word >> 8;
        match word & 0xff {
            0 => SpanningIntent::None,
            INTENT_RESOLVED => SpanningIntent::Resolved { id },
            _ => SpanningIntent::Prepared { id },
        }
    }

    /// Encodes back into the persistent state word.
    pub fn encode(self) -> u64 {
        match self {
            SpanningIntent::None => 0,
            SpanningIntent::Prepared { id } => (id << 8) | INTENT_PREPARED,
            SpanningIntent::Resolved { id } => (id << 8) | INTENT_RESOLVED,
        }
    }
}

impl TincaCache {
    /// Opens an existing Tinca NVM region after a crash or clean shutdown:
    /// validates the header, revokes any incomplete transaction, and
    /// rebuilds the DRAM index/LRU/free monitors (§4.5, §4.6).
    pub fn recover(nvm: Nvm, disk: DynDisk, cfg: TincaConfig) -> Result<Self, TincaError> {
        Self::recover_with_intent(nvm, disk, cfg, SpanningIntent::None)
    }

    /// [`recover`](Self::recover) with a pool-supplied spanning-intent
    /// directive; see the module docs.
    pub fn recover_with_intent(
        nvm: Nvm,
        disk: DynDisk,
        cfg: TincaConfig,
        intent: SpanningIntent,
    ) -> Result<Self, TincaError> {
        let magic = nvm.read_u64(MAGIC_OFF);
        if magic != MAGIC {
            return Err(TincaError::BadMagic { found: magic });
        }
        let layout = Layout::compute(nvm.capacity(), cfg.ring_bytes);
        // Geometry must agree field-by-field before any derived address is
        // trusted: recovering with a different ring_bytes or capacity would
        // misaddress every entry and data block.
        let checks = [
            ("ring_cap", nvm.read_u64(RING_CAP_OFF), layout.ring_cap),
            (
                "entry_count",
                nvm.read_u64(ENTRY_COUNT_OFF),
                layout.entry_count as u64,
            ),
            (
                "data_blocks",
                nvm.read_u64(DATA_BLOCKS_OFF),
                layout.data_blocks as u64,
            ),
        ];
        for (field, found, expected) in checks {
            if found != expected {
                return Err(TincaError::GeometryMismatch {
                    field,
                    found,
                    expected,
                });
            }
        }
        let head = nvm.read_u64(HEAD_OFF);
        let tail = nvm.read_u64(TAIL_OFF);
        let mut cache = Self::recovery_parts(nvm, disk, cfg, layout, head, tail);
        cache.run_recovery(intent);
        Ok(cache)
    }

    fn run_recovery(&mut self, intent: SpanningIntent) {
        let _t = telemetry::span(telemetry::phase::RECOVERY);
        let (head, tail) = self.head_tail();
        let layout = *self.layout();

        // Pass 1: full entry scan — map disk blocks to entries, collect
        // log-role leftovers.
        let mut by_disk: HashMap<u64, u32> = HashMap::new();
        let mut log_entries: Vec<u32> = Vec::new();
        for idx in 0..layout.entry_count {
            let e = self.read_entry(idx);
            if e.valid {
                by_disk.insert(e.disk_blk, idx);
                if e.role == Role::Log {
                    log_entries.push(idx);
                }
            }
        }

        // Multi-writer window descriptors (DESIGN §16): scan the table.
        // Retired windows (end at or before `Tail`) are stale retire
        // stores lost to the crash — inert, zeroed below. Published
        // (`STAGED`) windows overlapping `[Tail, Head)` are **durably
        // committed**: `Head` only persists after the
        // sequencer's fence drained every covering window's state word,
        // payloads, entries and ring slots — so their slots roll
        // *forward* (the crash can only have interrupted the role
        // switch). Windows `Head` never passed roll back via the ordinary
        // full-entry scan.
        let mut mw_desc: Vec<(usize, u64, u64, u64)> = Vec::new();
        for slot in 0..MW_WINDOWS {
            let addr = mw_desc_addr(slot);
            let word0 = self.nvm().read_u64(addr);
            if word0 == 0 {
                continue;
            }
            let (_ordinal, state) = mw_split_state(word0);
            let start = self.nvm().read_u64(addr + 8);
            let len = self.nvm().read_u64(addr + 16);
            mw_desc.push((slot, state, start, len));
        }
        // Maximal contiguous STAGED coverage from Tail. Windows are
        // disjoint and Head/Tail only ever store window boundaries, so
        // coverage walks whole windows; the durability invariant above
        // guarantees it reaches Head whenever the window set is nonempty.
        let mut mw_cover = tail;
        if head != tail {
            let mut staged: Vec<(u64, u64)> = mw_desc
                .iter()
                .filter(|&&(_, state, start, len)| {
                    state == MW_STAGED && start >= tail && start < head && start + len > start
                })
                .map(|&(_, _, start, len)| (start, len))
                .collect();
            staged.sort_unstable();
            for (start, len) in staged {
                if start == mw_cover && mw_cover < head {
                    mw_cover = start + len;
                    self.stats_mut().mw_windows_resumed += 1;
                } else {
                    break;
                }
            }
        }
        for &(_, _, start, _) in &mw_desc {
            if start >= head {
                // A reserved/staged window Head never advanced past: its
                // log-role entries fall to the full-entry revoke below.
                self.stats_mut().mw_windows_rolled_back += 1;
            }
        }

        // Pass 2: judge everything the ring window names. Slots covered
        // by the multi-writer STAGED prefix roll forward (resuming the
        // interrupted role switch); slots tagged with a *resolved*
        // spanning intent roll forward (their entries are already durable
        // buffer-role — the resolve store persisted strictly after every
        // fragment's fences); everything else rolls back.
        let forward_tag = match intent {
            SpanningIntent::Resolved { id } => Some(intent_tag(id)),
            _ => None,
        };
        if head != tail {
            for seq in tail..head {
                let raw = self.nvm().read_u64(layout.ring_slot_addr(seq));
                let (disk_blk, tag) = split_slot(raw);
                if tag == MW_DEAD_TAG {
                    // Dead slot of a failed multi-writer window: it never
                    // named a block, and its stale value must not be
                    // judged (the bits left from the ring's previous lap
                    // could collide with a live block).
                    continue;
                }
                if seq < mw_cover && tag == 0 {
                    if let Some(&idx) = by_disk.get(&disk_blk) {
                        let e = self.read_entry(idx);
                        if e.valid && e.role == Role::Log {
                            // Roll forward: complete the role switch the
                            // crash interrupted. Idempotent — a second
                            // recovery finds the entry buffer-role.
                            self.write_entry(idx, e.switched_to_buffer());
                        }
                    }
                    continue;
                }
                if tag != 0 && forward_tag == Some(tag) {
                    self.stats_mut().spanning_rolled_forward += 1;
                    continue;
                }
                let Some(&idx) = by_disk.get(&disk_blk) else {
                    continue;
                };
                let e = self.read_entry(idx);
                if e.valid && !e.is_revoked_marker() {
                    self.revoke_entry(idx, e);
                    if tag != 0 {
                        self.stats_mut().spanning_rolled_back += 1;
                    }
                }
            }
        }

        // Pass 3: revoke in-flight log blocks whose ring slot never
        // persisted.
        for idx in log_entries {
            let e = self.read_entry(idx);
            if e.valid && e.role == Role::Log {
                self.revoke_entry(idx, e);
            }
        }

        // Close the ring: Tail := Head.
        self.set_head_tail(head, head);
        self.nvm().atomic_write_u64(TAIL_OFF, head);
        self.nvm().persist(TAIL_OFF, 8);
        self.nvm().note_commit(TAIL_OFF, 8);

        // Retire the judged window's intent tags (wraparound guard,
        // DESIGN §14): rolled-forward slots keep their data but lose the
        // tag, restoring the invariant that no closed-window slot is
        // tagged. A no-op (no events) when the window held no tags —
        // i.e. on every single-shard recovery.
        self.scrub_slot_tags(tail, head);

        // Retire every multi-writer descriptor — strictly *after* the ring
        // close: a crash in between leaves stale descriptors whose windows
        // end at or before the (now equal) Head/Tail, which a re-run
        // ignores. Zeroing first would instead let a re-run revoke windows
        // this pass already rolled forward.
        if !mw_desc.is_empty() {
            for &(slot, ..) in &mw_desc {
                self.mw_retire_desc(slot);
            }
            self.nvm().sfence();
        }

        // Pass 4: rebuild the DRAM structures from the surviving entries
        // (§4.6: "they can be reconstructed on the startup of system").
        let mut cur_used = vec![false; layout.data_blocks as usize];
        for idx in 0..layout.entry_count {
            let e = self.read_entry(idx);
            if e.valid {
                if e.modified {
                    // The incrementally-maintained dirty set restarts
                    // from the surviving entries (revocation above
                    // already excluded in-flight ones).
                    self.dram_mark_dirty(idx);
                }
                assert!(
                    self.index_get(e.disk_blk).is_none(),
                    "two valid entries map disk block {}",
                    e.disk_blk
                );
                assert!(
                    !cur_used[e.cur as usize],
                    "two valid entries reference NVM block {}",
                    e.cur
                );
                cur_used[e.cur as usize] = true;
                self.dram_insert(e.disk_blk, idx);
            } else if !self.free_entries_mut().is_free(idx) {
                self.free_entries_mut().release(idx);
            }
        }
        for b in 0..layout.data_blocks {
            if !cur_used[b as usize] && !self.free_blocks_mut().is_free(b) {
                self.free_blocks_mut().release(b);
            }
        }
        self.stats_mut().recoveries += 1;
    }

    /// Convenience used by tests and harnesses: the number of 4 KB blocks
    /// the data area holds (capacity knob for workload sizing).
    pub fn data_block_count(&self) -> u32 {
        self.layout().data_blocks
    }

    /// Reads `disk_blk` *without* populating the cache — used by recovery
    /// verifiers to compare post-crash contents against an oracle. No
    /// retry loop: verifiers run with fault injection disabled, so an
    /// error here is a real harness bug and is surfaced as-is.
    pub fn read_nocache(&self, disk_blk: u64, buf: &mut [u8]) -> Result<(), TincaError> {
        assert_eq!(buf.len(), BLOCK_SIZE);
        if let Some(data) = self.peek(disk_blk) {
            buf.copy_from_slice(&data);
            Ok(())
        } else {
            self.disk().read_block(disk_blk, buf).map_err(Into::into)
        }
    }
}
