//! Crash recovery (§4.5).
//!
//! `Head`/`Tail` and the per-entry role bits drive recovery:
//!
//! * `Head == Tail` — either no transaction was committing, or the crash
//!   hit before the first `Head` move. A scan of the entries below the
//!   watermark finds any *log-role* block and revokes it.
//! * `Head != Tail` — the crash hit mid-commit. Every block recorded in
//!   the ring window `[Tail, Head)` is revoked — including blocks whose
//!   role was already switched to *buffer* by the crash-interrupted
//!   role-switch pass (the ring is what identifies them; their `prev`
//!   fields are still intact because previous versions are only reclaimed
//!   after `Tail` moves).
//!
//! Every log-role entry is revoked too, in or out of the window: the entry
//! update of the block being committed persists *before* its ring slot, so
//! the last in-flight block can be log-role yet missing from the ring
//! window.
//!
//! ## One decoded table
//!
//! Recovery loads each metadata line it needs once: line 0 (magic,
//! geometry, the descriptors-armed word and the entry watermark), `Head`,
//! `Tail`, the descriptor table when line 0 says a lock-free ring armed
//! it, the ring window, and the entry table's slots below the watermark,
//! read a page at a time and decoded into one DRAM `Vec<CacheEntry>`.
//! Every slot at or above the watermark is all-zero — format zeroes the
//! table, and a raise persists before the first store to a slot it
//! covers — so those slots are free without a load, and a clean
//! recovery costs `3 + ⌈watermark · 16 / 64⌉` line loads: it follows the
//! slots a shard has used, not the size of its NVM. Every judgment pass
//! and the DRAM rebuild run over that table, and **every recovery store
//! that changes an entry updates the table in the same step** (the
//! roll-forward stores the switched entry it writes, a revoke the entry
//! [`TincaCache::revoke_entry`] persisted), so the table always equals
//! the device and no entry is loaded twice. The stores, flushes and
//! fences are the ones a per-entry reload would issue, in the same order;
//! only the loads differ.
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
use nvmsim::{Nvm, CACHE_LINE};

use crate::cache::{DynDisk, TincaCache};
use crate::entry::{CacheEntry, Role};
use crate::freemon::FreeMonitor;
use crate::layout::{
    intent_tag, mw_split_state, split_slot, Layout, DATA_BLOCKS_OFF, ENTRY_BYTES, ENTRY_COUNT_OFF,
    HEAD_OFF, INTENT_PREPARED, INTENT_RESOLVED, MAGIC, MAGIC_OFF, MW_ARMED_OFF, MW_DEAD_TAG,
    MW_DESC_BYTES, MW_DESC_OFF, MW_STAGED, MW_WINDOWS, RING_CAP_OFF, RING_SLOT_BYTES, TAIL_OFF,
    WATERMARK_OFF,
};
use crate::{TincaConfig, TincaError};

/// The header words recovery reads — magic, ring capacity, entry count,
/// data blocks, descriptors armed, entry watermark — share line 0, so one
/// load reads them all.
const HEADER_WORDS_BYTES: usize = WATERMARK_OFF + 8;
const _: () = assert!(MAGIC_OFF == 0 && HEADER_WORDS_BYTES <= CACHE_LINE);

/// The `N` bytes at `off` of a loaded range, for little-endian decoding.
fn bytes_at<const N: usize>(buf: &[u8], off: usize) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(&buf[off..off + N]);
    out
}

/// Directive a recovering shard receives about the pool's spanning-intent
/// record (always [`None`](SpanningIntent::None) for a standalone cache or
/// a single-shard pool — roll every in-flight fragment back).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) enum SpanningIntent {
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
    pub(crate) fn decode(word: u64) -> SpanningIntent {
        let id = word >> 8;
        match word & 0xff {
            0 => SpanningIntent::None,
            INTENT_RESOLVED => SpanningIntent::Resolved { id },
            _ => SpanningIntent::Prepared { id },
        }
    }

    /// Encodes back into the persistent state word.
    pub(crate) fn encode(self) -> u64 {
        match self {
            SpanningIntent::None => 0,
            SpanningIntent::Prepared { id } => (id << 8) | INTENT_PREPARED,
            SpanningIntent::Resolved { id } => (id << 8) | INTENT_RESOLVED,
        }
    }
}

impl TincaCache {
    /// Opens an existing Tinca NVM region after a crash or clean shutdown:
    /// validates the header, revokes any incomplete transaction — rolling
    /// fragments of the pool-supplied spanning `intent` its way (module
    /// docs) — and rebuilds the DRAM index/LRU/free monitors (§4.5, §4.6).
    /// With `arm`, an unarmed region leaves recovery armed for a lock-free
    /// ring; recovery never disarms one.
    pub(crate) fn recover_with_intent(
        nvm: Nvm,
        disk: DynDisk,
        cfg: TincaConfig,
        intent: SpanningIntent,
        arm: bool,
    ) -> Result<Self, TincaError> {
        let _t = telemetry::span(telemetry::phase::RECOVERY);
        let scan = telemetry::span(telemetry::phase::RECOVERY_SCAN);
        let mut line0 = [0u8; HEADER_WORDS_BYTES];
        nvm.read(MAGIC_OFF, &mut line0);
        let word = |off: usize| u64::from_le_bytes(bytes_at(&line0, off));
        let magic = word(MAGIC_OFF);
        if magic != MAGIC {
            return Err(TincaError::BadMagic { found: magic });
        }
        let layout = Layout::compute(nvm.capacity(), cfg.ring_bytes);
        // Geometry must agree field-by-field before any derived address is
        // trusted: recovering with a different ring_bytes or capacity would
        // misaddress every entry and data block.
        let checks = [
            ("ring_cap", word(RING_CAP_OFF), layout.ring_cap),
            (
                "entry_count",
                word(ENTRY_COUNT_OFF),
                layout.entry_count as u64,
            ),
            (
                "data_blocks",
                word(DATA_BLOCKS_OFF),
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
        // A clear armed word means an all-zero descriptor table (layout
        // module), which judges exactly as no table at all.
        let armed = word(MW_ARMED_OFF) != 0;
        // A watermark past the table can only come from a corrupt header;
        // loading the whole table is the conservative reading.
        let watermark = word(WATERMARK_OFF).min(layout.entry_count.into()) as u32;
        let head = nvm.read_u64(HEAD_OFF);
        let tail = nvm.read_u64(TAIL_OFF);
        let mut cache = Self::recovery_parts(nvm, disk, cfg, layout, head, tail, watermark);
        let descriptors = if armed {
            cache.load_descriptors()
        } else {
            Vec::new()
        };
        let entries = cache.load_entries();
        drop(scan);
        cache.run_recovery(intent, &descriptors, entries, arm && !armed)?;
        Ok(cache)
    }

    /// The in-use multi-writer window descriptors, `(slot, state, start,
    /// len)`, from one load of the whole table.
    fn load_descriptors(&self) -> Vec<(usize, u64, u64, u64)> {
        let mut table = [0u8; MW_WINDOWS * MW_DESC_BYTES];
        self.nvm().read(MW_DESC_OFF, &mut table);
        table
            .chunks_exact(MW_DESC_BYTES)
            .enumerate()
            .filter_map(|(slot, desc)| {
                let word = |off: usize| u64::from_le_bytes(bytes_at(desc, off));
                let word0 = word(0);
                (word0 != 0).then(|| (slot, mw_split_state(word0).1, word(8), word(16)))
            })
            .collect()
    }

    /// The entry slots below the watermark, loaded a page at a time and
    /// decoded once.
    fn load_entries(&self) -> Vec<CacheEntry> {
        let layout = *self.layout();
        let used = self.entry_watermark() as usize;
        let table_bytes = used * ENTRY_BYTES;
        let mut entries = Vec::with_capacity(used);
        let mut page = [0u8; BLOCK_SIZE];
        for off in (0..table_bytes).step_by(BLOCK_SIZE) {
            let chunk = &mut page[..BLOCK_SIZE.min(table_bytes - off)];
            self.nvm().read(layout.entries_off + off, chunk);
            entries.extend(
                chunk
                    .chunks_exact(ENTRY_BYTES)
                    .map(|raw| CacheEntry::decode(u128::from_le_bytes(bytes_at(raw, 0)))),
            );
        }
        entries
    }

    /// The raw ring slots of `[tail, head)`, one load per contiguous run
    /// (two when the window wraps the ring's end). Slot `seq` sits at
    /// index `(seq - tail) % ring_cap`: a window longer than the ring can
    /// only come from a corrupt header, and maps onto the one lap loaded.
    fn load_ring_window(&self, tail: u64, head: u64) -> Vec<u64> {
        let layout = *self.layout();
        let len = head.saturating_sub(tail).min(layout.ring_cap) as usize;
        let to_end = (layout.ring_cap - tail % layout.ring_cap) as usize;
        let mut raw = vec![0u8; len * RING_SLOT_BYTES];
        let (first, wrapped) = raw.split_at_mut(len.min(to_end) * RING_SLOT_BYTES);
        self.nvm().read(layout.ring_slot_addr(tail), first);
        self.nvm().read(layout.ring_off, wrapped);
        raw.chunks_exact(RING_SLOT_BYTES)
            .map(|slot| u64::from_le_bytes(bytes_at(slot, 0)))
            .collect()
    }

    fn run_recovery(
        &mut self,
        intent: SpanningIntent,
        mw_desc: &[(usize, u64, u64, u64)],
        mut entries: Vec<CacheEntry>,
        arm: bool,
    ) -> Result<(), TincaError> {
        let judge = telemetry::span(telemetry::phase::RECOVERY_JUDGE);
        let (head, tail) = self.head_tail();
        let layout = *self.layout();

        // Pass 1: map disk blocks to entries, collect log-role leftovers.
        let mut by_disk: HashMap<u64, u32> = HashMap::new();
        let mut log_entries: Vec<u32> = Vec::new();
        for (idx, e) in (0u32..).zip(&entries) {
            if e.valid {
                by_disk.insert(e.disk_blk, idx);
                if e.role == Role::Log {
                    log_entries.push(idx);
                }
            }
        }

        // Multi-writer window descriptors (DESIGN §8). Retired windows
        // (end at or before `Tail`) are stale retire stores lost to the
        // crash — inert, zeroed below. Published (`STAGED`) windows
        // overlapping `[Tail, Head)` are **durably committed**: `Head`
        // only persists after the sequencer's fence drained every
        // covering window's state word, payloads, entries and ring slots
        // — so their slots roll *forward* (the crash can only have
        // interrupted the role switch). Windows `Head` never passed roll
        // back via the log-role revoke of pass 3.
        //
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
        for &(_, _, start, _) in mw_desc {
            if start >= head {
                // A reserved/staged window Head never advanced past: its
                // log-role entries fall to the revoke of pass 3.
                self.stats_mut().mw_windows_rolled_back += 1;
            }
        }

        // Pass 2: judge everything the ring window names. Slots covered
        // by the multi-writer STAGED prefix roll forward (resuming the
        // interrupted role switch); slots tagged with a *resolved*
        // spanning intent roll forward (their entries are already durable
        // buffer-role — the resolve store persisted strictly after every
        // fragment's fences); everything else rolls back. Every store
        // updates `entries` in the same step, so the table stays equal
        // to the device and no entry is loaded twice.
        let forward_tag = match intent {
            SpanningIntent::Resolved { id } => Some(intent_tag(id)),
            _ => None,
        };
        let window = self.load_ring_window(tail, head);
        for seq in tail..head {
            let raw = window[((seq - tail) % layout.ring_cap) as usize];
            let (disk_blk, tag) = split_slot(raw);
            if tag == MW_DEAD_TAG {
                // Dead slot of a failed multi-writer window: it never
                // named a block, and its stale value must not be judged
                // (the bits left from the ring's previous lap could
                // collide with a live block).
                continue;
            }
            if seq < mw_cover && tag == 0 {
                if let Some(&idx) = by_disk.get(&disk_blk) {
                    let e = entries[idx as usize];
                    if e.valid && e.role == Role::Log {
                        // Roll forward: complete the role switch the
                        // crash interrupted. Idempotent — a second
                        // recovery finds the entry buffer-role.
                        let switched = e.switched_to_buffer();
                        self.write_entry(idx, switched);
                        entries[idx as usize] = switched;
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
            let e = entries[idx as usize];
            if e.valid && !e.is_revoked_marker() {
                entries[idx as usize] = self.revoke_entry(idx, e);
                if tag != 0 {
                    self.stats_mut().spanning_rolled_back += 1;
                }
            }
        }

        // Pass 3: revoke in-flight log blocks whose ring slot never
        // persisted: the entry update of the block being committed
        // persists *before* its ring slot, so the last in-flight block can
        // be log-role yet missing from the ring window.
        for idx in log_entries {
            let e = entries[idx as usize];
            if e.valid && e.role == Role::Log {
                entries[idx as usize] = self.revoke_entry(idx, e);
            }
        }
        drop(judge);

        let close = telemetry::span(telemetry::phase::RECOVERY_CLOSE);
        // Close the ring: Tail := Head.
        self.set_head_tail(head, head);
        self.nvm().atomic_write_u64(TAIL_OFF, head);
        self.nvm().persist(TAIL_OFF, 8);
        self.nvm().note_commit(TAIL_OFF, 8);

        // Retire the judged window's intent tags (wraparound guard,
        // DESIGN §7.2): rolled-forward slots keep their data but lose the
        // tag, restoring the invariant that no closed-window slot is
        // tagged. A no-op (no events) when the window held no tags —
        // i.e. on every single-shard recovery.
        // The judgment stores no ring slot, so the loaded window is
        // still the device's and the scrub reloads nothing.
        self.scrub_slot_tags(tail, window.iter().copied());

        // Retire every multi-writer descriptor — strictly *after* the ring
        // close: a crash in between leaves stale descriptors whose windows
        // end at or before the (now equal) Head/Tail, which a re-run
        // ignores. Zeroing first would instead let a re-run revoke windows
        // this pass already rolled forward.
        if !mw_desc.is_empty() {
            for &(slot, ..) in mw_desc {
                self.mw_retire_desc(slot);
            }
            self.nvm().sfence();
        }
        // Arm the (all-zero) descriptor table for a lock-free ring before
        // its first window can be written.
        if arm {
            self.nvm().atomic_write_u64(MW_ARMED_OFF, 1);
            self.nvm().persist(MW_ARMED_OFF, 8);
        }
        drop(close);

        // Pass 4: rebuild the DRAM structures from the surviving entries
        // (§4.6: "they can be reconstructed on the startup of system").
        // Checked here, after the judgment, because a crash can leave an
        // in-flight entry overlapping a live one until it is revoked.
        let _rebuild = telemetry::span(telemetry::phase::RECOVERY_REBUILD);
        let mut cur_used = vec![false; layout.data_blocks as usize];
        for (idx, e) in (0u32..).zip(&entries) {
            if e.valid {
                if e.modified {
                    // The incrementally-maintained dirty set restarts
                    // from the surviving entries (revocation above
                    // already excluded in-flight ones).
                    self.dram_mark_dirty(idx);
                }
                let corrupt = |fault, block| TincaError::CorruptEntry {
                    entry: idx,
                    fault,
                    block,
                };
                if self.index_get(e.disk_blk).is_some() {
                    return Err(corrupt(
                        "disk block mapped by another valid entry",
                        e.disk_blk,
                    ));
                }
                match cur_used.get_mut(e.cur as usize) {
                    None => return Err(corrupt("NVM block outside the data area", e.cur.into())),
                    Some(true) => {
                        return Err(corrupt(
                            "NVM block referenced by another valid entry",
                            e.cur.into(),
                        ))
                    }
                    Some(used) => *used = true,
                }
                self.dram_insert(e.disk_blk, idx);
            }
        }
        // Free slots go back highest index first, so the monitor hands
        // out the lowest and allocation fills the table's holes before it
        // raises the watermark again. Slots at or above the watermark are
        // free by definition.
        let mut free_entries = FreeMonitor::new_all_used(layout.entry_count);
        for idx in (0..layout.entry_count).rev() {
            if entries.get(idx as usize).is_none_or(|e| !e.valid) {
                free_entries.release(idx);
            }
        }
        self.set_free_entries(free_entries);
        for b in 0..layout.data_blocks {
            if !cur_used[b as usize] && !self.free_blocks_mut().is_free(b) {
                self.free_blocks_mut().release(b);
            }
        }
        self.stats_mut().recoveries += 1;
        Ok(())
    }

    /// Reads `disk_blk` *without* populating the cache — used by recovery
    /// verifiers to compare post-crash contents against an oracle. No
    /// retry loop: verifiers run with fault injection disabled, so an
    /// error here is a real harness bug and is surfaced as-is.
    pub(crate) fn read_nocache(&self, disk_blk: u64, buf: &mut [u8]) -> Result<(), TincaError> {
        assert_eq!(buf.len(), BLOCK_SIZE);
        if let Some(data) = self.peek(disk_blk) {
            buf.copy_from_slice(&data);
            Ok(())
        } else {
            self.disk().read_block(disk_blk, buf).map_err(Into::into)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Txn;
    use blockdev::{DiskKind, SimDisk};
    use nvmsim::{CrashPolicy, NvmConfig, NvmDevice, NvmTech, SimClock};

    fn cfg() -> TincaConfig {
        TincaConfig {
            ring_bytes: 4096,
            ..TincaConfig::default()
        }
    }

    /// Rewrites a valid entry (`victim`) given the other valid one.
    type Corruption = fn(CacheEntry, CacheEntry, &Layout) -> CacheEntry;

    /// Commits blocks 3 and 5, then rewrites the persisted entry of the one
    /// with the higher entry index through `corrupt(victim, other)` and
    /// returns that index with the devices to recover from.
    fn corrupt_table(corrupt: Corruption) -> (Nvm, DynDisk, u32) {
        let clock = SimClock::new();
        let nvm = NvmDevice::new(NvmConfig::new(1 << 20, NvmTech::Pcm), clock.clone());
        let disk: DynDisk = SimDisk::new(DiskKind::Ssd, 1 << 16, clock);
        let mut cache = TincaCache::format(nvm.clone(), disk.clone(), cfg(), false);
        let mut t = Txn::new();
        t.write(3, &[3; BLOCK_SIZE]);
        t.write(5, &[5; BLOCK_SIZE]);
        cache.commit(&t).unwrap();
        let layout = *cache.layout();
        drop(cache);
        let entry = |idx: u32| {
            let mut raw = [0u8; ENTRY_BYTES];
            nvm.read_persistent(layout.entry_addr(idx), &mut raw);
            CacheEntry::decode(u128::from_le_bytes(raw))
        };
        let valid: Vec<u32> = (0..layout.entry_count)
            .filter(|&i| entry(i).valid)
            .collect();
        let [other, victim] = valid[..] else {
            panic!("expected two valid entries, found {valid:?}");
        };
        let addr = layout.entry_addr(victim);
        let bad = corrupt(entry(victim), entry(other), &layout);
        nvm.atomic_write_u128(addr, bad.encode());
        nvm.persist(addr, ENTRY_BYTES);
        nvm.crash(CrashPolicy::LoseVolatile);
        (nvm, disk, victim)
    }

    /// A persisted entry table that no crash can produce — two valid entries
    /// on one disk block, two on one NVM block, or an NVM block past the data
    /// area — fails recovery with `CorruptEntry` naming the entry, instead of
    /// a panic in the DRAM rebuild.
    #[test]
    fn recover_with_corrupt_entry_table_returns_structured_error() {
        let cases: [(&str, Corruption); 3] = [
            ("disk block mapped by another valid entry", |v, o, _| {
                CacheEntry {
                    disk_blk: o.disk_blk,
                    ..v
                }
            }),
            ("NVM block referenced by another valid entry", |v, o, _| {
                CacheEntry { cur: o.cur, ..v }
            }),
            ("NVM block outside the data area", |v, _, l| CacheEntry {
                cur: l.data_blocks,
                ..v
            }),
        ];
        for (want, corrupt) in cases {
            let (nvm, disk, victim) = corrupt_table(corrupt);
            match TincaCache::recover_with_intent(nvm, disk, cfg(), SpanningIntent::None, false) {
                Err(TincaError::CorruptEntry { entry, fault, .. }) => {
                    assert_eq!((entry, fault), (victim, want));
                }
                Err(other) => panic!("{want}: expected CorruptEntry, got {other:?}"),
                Ok(_) => panic!("{want}: recovery over a corrupt table must fail"),
            }
        }
    }
}
