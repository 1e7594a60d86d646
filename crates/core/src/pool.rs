//! `TincaPool` — the Tinca cache's one public entry point: a sharded,
//! thread-safe front-end over the crate-private single-region cache
//! (`cache.rs`).
//!
//! The paper evaluates Tinca under multi-threaded Fio/Filebench/MySQL
//! load; one cache region serialises everything behind `&mut self`.
//! The pool partitions the NVM into `N` independent shards — each shard is
//! a complete cache on its own NVM device region (disjoint
//! [`Layout`](crate::Layout)s, own `Head`/`Tail` ring, own entry table) —
//! and routes disk block `b` to shard `b % N`. Because every commit point
//! is still a single 8-byte `Tail` store *within one shard's region*, the
//! paper's single-commit-point crash argument holds per shard unchanged.
//!
//! ## Two commit modes, one batching mechanism
//!
//! In [`CommitMode::Mutex`] (the default) a single-shard commit is the
//! paper's protocol and nothing else: take the shard's cache lock, run
//! the shard's commit, release. Threads on one shard serialise on that
//! lock; there is no queue, no leader and no merged transaction. This is
//! the paper-exact, per-step-persist *reference* path every paper figure
//! runs on. Batching lives in one place only — the sequencer rounds of
//! [`CommitMode::LockFreeRing`] (DESIGN §8), which retire every published
//! window with one fence and one `Head` store.
//!
//! ## One shard: the paper's cache
//!
//! With `N = 1` the pool *is* the paper's single Tinca cache: the same NVM
//! stores, flushes, fences, simulated time and statistics as the shard's
//! cache driven alone, through format, commit, read and crash recovery
//! alike (the pool never touches the spanning-intent record). That is the
//! stack every paper figure, the file-system stack (`fssim`) and the
//! cluster build, so the pool's lock and routing are all they add — pinned
//! by this module's `single_shard_pool_matches_bare_cache_bit_for_bit`.
//!
//! ## Atomicity scope
//!
//! **Every** transaction commits all-or-nothing across any crash or I/O
//! fault — including transactions whose blocks span shards. A
//! single-shard transaction (always the case for `N = 1`, and for
//! block-aligned workloads like Fio 4 KB requests) takes the unchanged
//! fast path: one shard's ring commit, not a single extra store, flush,
//! or fence.
//!
//! A **spanning** transaction runs a persistent two-phase commit:
//!
//! 1. **Publish.** A one-cache-line *spanning-intent record* (sequence id
//!    plus participant shard bitmap, at the layout module's `INTENT_OFF` on
//!    shard 0's device) is written and fenced *before* any fragment. While
//!    the record reads `PREPARED`, recovery rolls every tagged fragment
//!    back.
//! 2. **Prepare.** Each participant shard stages its fragment with the
//!    full commit protocol — COW payload writes, entry updates, ring
//!    slots tagged with the intent id in their top byte, `Head` move,
//!    role switch — but **its `Tail` does not move**: the shard's ring
//!    window stays open, so the fragment is durable yet still revocable.
//!    A fragment failure aborts: prepared fragments are revoked, later
//!    fragments are never attempted, the intent is retired, and nothing
//!    of the transaction survives recovery.
//! 3. **Resolve.** One 8 B atomic store flips the record to `RESOLVED`
//!    and is fenced: this single store is the transaction's commit point.
//!    Every fragment was fenced-durable before it, so recovery now rolls
//!    all of them *forward*. Each shard's `Tail` then moves (retiring its
//!    revocation window), and the record is retired.
//!
//! Recovery ([`TincaPool::recover`]) reads the record first and hands
//! every shard the same [`SpanningIntent`] directive, so all shards roll
//! the same direction exactly once; the record is cleared only after
//! every shard recovered, which makes a crash *during* recovery repeat
//! the same decision. Spanning commits serialise on one pool-level mutex
//! (the record has a single slot) and lock shard 0 plus the participants
//! in ascending index order, so they cannot deadlock with each other or
//! with single-shard commits.
//!
//! There is one spanning driver. In [`CommitMode::LockFreeRing`] the pool
//! first quiesces every participant's multi-writer pipeline (no window
//! outstanding, admissions held off), runs the driver above unchanged —
//! on a quiesced shard the cache lock is the only writer — then
//! republishes each participant's reservation cursor from its new `Head`
//! and reopens. The quiesce is released on every exit, an unwinding one
//! included.

use std::sync::atomic::Ordering;
use std::sync::{Mutex as StdMutex, MutexGuard as StdGuard, PoisonError};

use blockdev::BLOCK_SIZE;
use nvmsim::Nvm;
use parking_lot::Mutex;

use crate::cache::{DynDisk, Fragment, TincaCache};
use crate::layout::{
    intent_tag, Layout, INTENT_OFF, INTENT_SHARDS_OFF, INTENT_STATE_OFF, MW_WINDOWS,
};
use crate::recovery::SpanningIntent;
use crate::{CacheStats, Health, TincaConfig, TincaError, Txn};
use ring::{lock_mw, CommitMode, MwShard};

pub(crate) mod ring;

/// Configuration for a [`TincaPool`].
#[derive(Clone, Debug)]
pub struct PoolConfig {
    /// Number of shards (NVM sub-regions / independent commit rings).
    pub shards: usize,
    /// How intra-shard commits are serialised; see [`CommitMode`]. The
    /// default (`Mutex`) is bit-for-bit the classic path; `LockFreeRing`
    /// enables the multi-writer pipeline (DESIGN §8) and requires the
    /// role switch.
    pub commit_mode: CommitMode,
    /// Per-shard cache configuration.
    pub cache: TincaConfig,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            shards: 1,
            commit_mode: CommitMode::Mutex,
            cache: TincaConfig::default(),
        }
    }
}

impl PoolConfig {
    /// `n`-shard pool with default cache knobs.
    pub fn with_shards(n: usize) -> Self {
        PoolConfig {
            shards: n,
            ..Default::default()
        }
    }
}

/// Sync-object ids this pool annotates on each shard's NVM trace, namespaced
/// `shard_index * SYNC_STRIDE + kind` so a merged multi-shard trace
/// ([`nvmsim::merge_shard_traces`]) never conflates two shards' locks.
const SYNC_STRIDE: u64 = 16;
/// The shard's cache mutex — serialises commits, reads, flushes, and the
/// inline destage daemon (which runs under this same lock).
const SYNC_CACHE_MUTEX: u64 = 0;
/// The multi-writer window publication: each writer release-publishes its
/// `STAGED` descriptor store, the sequencer acquire-consumes the round's
/// windows before its drain fence.
const SYNC_MW_PUBLISH: u64 = 2;

struct Shard {
    cache: Mutex<TincaCache>,
    /// This shard's NVM partitioning (fixed at format).
    layout: Layout,
    /// This shard's NVM device: sync-event trace annotations, and the
    /// lock-free device accessor.
    nvm: Nvm,
    /// First sync-object id of this shard's namespace.
    sync_base: u64,
    /// Multi-writer pipeline state (used only in `LockFreeRing` mode).
    mw: MwShard,
}

/// Cache-mutex guard that annotates acquisition and release as sync events
/// on the shard's NVM trace (no-ops when tracing is off), so the
/// happens-before engine sees the mutual exclusion the mutex provides.
struct CacheGuard<'a> {
    guard: parking_lot::MutexGuard<'a, TincaCache>,
    nvm: &'a Nvm,
    obj: u64,
}

impl std::ops::Deref for CacheGuard<'_> {
    type Target = TincaCache;
    fn deref(&self) -> &TincaCache {
        &self.guard
    }
}

impl std::ops::DerefMut for CacheGuard<'_> {
    fn deref_mut(&mut self) -> &mut TincaCache {
        &mut self.guard
    }
}

impl Drop for CacheGuard<'_> {
    fn drop(&mut self) {
        // Runs before the mutex guard field drops, so the release
        // annotation lands while the lock is still held.
        self.nvm.note_lock_release(self.obj);
    }
}

impl Shard {
    /// Locks the cache mutex; the acquire annotation is recorded *after*
    /// the lock is held (and the release before it drops), so annotations
    /// appear in the trace in true lock order.
    fn lock_cache(&self) -> CacheGuard<'_> {
        let guard = self.cache.lock();
        let obj = self.sync_base + SYNC_CACHE_MUTEX;
        self.nvm.note_lock_acquire(obj);
        CacheGuard {
            guard,
            nvm: &self.nvm,
            obj,
        }
    }
}

/// Sharded multi-threaded front-end; see the module docs.
pub struct TincaPool {
    shards: Vec<Shard>,
    /// The backing disk every shard shares.
    disk: DynDisk,
    commit_mode: CommitMode,
    /// Serialises spanning commits (the persistent intent record has one
    /// slot) and hands out intent sequence ids. Poison-tolerant: a
    /// simulated crash panic mid-commit must not strand surviving threads.
    spanning: StdMutex<u64>,
}

impl TincaPool {
    /// Formats one cache region per device and assembles the pool.
    /// `devices[i]` becomes shard `i`; all shards share the backing disk
    /// (their disk-block sets are disjoint by routing). A
    /// [`CommitMode::LockFreeRing`] pool arms each region's window
    /// descriptors (DESIGN §8).
    pub fn format(devices: Vec<Nvm>, disk: DynDisk, cfg: PoolConfig) -> Self {
        assert_eq!(
            devices.len(),
            cfg.shards,
            "one NVM device per shard required"
        );
        assert!(cfg.shards >= 1, "pool needs at least one shard");
        Self::check_mode(&cfg);
        let ring = cfg.commit_mode == CommitMode::LockFreeRing;
        let shards = devices
            .into_iter()
            .enumerate()
            .map(|(i, nvm)| {
                Self::shard(
                    i,
                    TincaCache::format(nvm, disk.clone(), cfg.cache.clone(), ring),
                )
            })
            .collect();
        Self::publish(TincaPool {
            shards,
            disk,
            commit_mode: cfg.commit_mode,
            spanning: StdMutex::new(0),
        })
    }

    /// Ends a format or a recovery: each shard's cache mutex is released
    /// on its trace, so the thread that built the regions happens-before
    /// every later holder of the lock (the ring's writers included) — the
    /// edge spawning them provides, which the trace does not otherwise
    /// model.
    fn publish(pool: TincaPool) -> TincaPool {
        for sh in &pool.shards {
            sh.nvm.note_lock_release(sh.sync_base + SYNC_CACHE_MUTEX);
        }
        pool
    }

    /// The lock-free path stages payloads outside the cache lock and
    /// completes commits in sequencer rounds; the double-write ablation
    /// is a mutex-path-only feature.
    fn check_mode(cfg: &PoolConfig) {
        assert!(
            cfg.commit_mode != CommitMode::LockFreeRing || cfg.cache.role_switch,
            "CommitMode::LockFreeRing requires the role switch"
        );
    }

    /// Recovers every shard from its NVM region after a crash or clean
    /// shutdown. The pool decodes the spanning-intent record (shard 0's
    /// device) first and hands each shard's §4.5 recovery the same
    /// roll-forward/roll-back directive, so an interrupted spanning
    /// transaction rolls the same direction on every shard; the record is
    /// retired only once every shard has recovered. A
    /// [`CommitMode::LockFreeRing`] pool arms the window descriptors of a
    /// region formatted for the mutex path (DESIGN §8).
    ///
    /// A pool needs one device per configured shard and at least one
    /// shard; anything else is [`TincaError::GeometryMismatch`] on field
    /// `"shards"` (`found` = devices handed in, `expected` = shards
    /// configured, or 1 when the configuration asks for none).
    pub fn recover(devices: Vec<Nvm>, disk: DynDisk, cfg: PoolConfig) -> Result<Self, TincaError> {
        if devices.len() != cfg.shards || cfg.shards == 0 {
            return Err(TincaError::GeometryMismatch {
                field: "shards",
                found: devices.len() as u64,
                expected: cfg.shards.max(1) as u64,
            });
        }
        Self::check_mode(&cfg);
        let ring = cfg.commit_mode == CommitMode::LockFreeRing;
        // Single-shard pools never write the record; skipping the read
        // keeps `N = 1` recovery bit-for-bit identical to a bare cache.
        let intent = if cfg.shards > 1 {
            let _t = telemetry::span(telemetry::phase::RECOVERY_INTENT);
            SpanningIntent::decode(devices[0].read_u64(INTENT_STATE_OFF))
        } else {
            SpanningIntent::None
        };
        let mut shards = Vec::with_capacity(cfg.shards);
        for (i, nvm) in devices.iter().enumerate() {
            shards.push(Self::shard(
                i,
                TincaCache::recover_with_intent(
                    nvm.clone(),
                    disk.clone(),
                    cfg.cache.clone(),
                    intent,
                    ring,
                )?,
            ));
        }
        if intent != SpanningIntent::None {
            // All shards rolled the directive's way and closed their
            // rings; a crash before this store re-reads the record and
            // repeats the identical (idempotent) decision.
            let _t = telemetry::span(telemetry::phase::RECOVERY_INTENT);
            let host = &devices[0];
            host.atomic_write_u64(INTENT_STATE_OFF, SpanningIntent::None.encode());
            host.atomic_write_u64(INTENT_SHARDS_OFF, 0);
            host.persist(INTENT_OFF, 16);
            host.note_commit(INTENT_OFF, 64);
        }
        Ok(Self::publish(TincaPool {
            shards,
            disk,
            commit_mode: cfg.commit_mode,
            spanning: StdMutex::new(0),
        }))
    }

    fn shard(index: usize, cache: TincaCache) -> Shard {
        let layout = *cache.layout();
        let nvm = cache.nvm().clone();
        let (head, _tail) = cache.head_tail();
        Shard {
            cache: Mutex::new(cache),
            layout,
            nvm,
            sync_base: index as u64 * SYNC_STRIDE,
            mw: MwShard::new(head, layout.ring_cap),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard disk block `disk_blk` routes to.
    pub fn shard_of(&self, disk_blk: u64) -> usize {
        (disk_blk % self.shards.len() as u64) as usize
    }

    /// Starts a running transaction (`tinca_init_txn`, §4.1). Running
    /// transactions are DRAM-only; any number may be open concurrently.
    pub fn init_txn(&self) -> Txn {
        Txn::new()
    }

    /// Aborts a running transaction (`tinca_abort`, §4.1). Running
    /// transactions are DRAM-only, so nothing needs revoking; the staged
    /// blocks are simply dropped and counted in `user_aborts` on shard 0.
    /// (A *committing* transaction that fails mid-way is revoked inside
    /// [`commit`](Self::commit).)
    pub fn abort(&self, txn: Txn) {
        drop(txn);
        self.shards[0].lock_cache().stats_mut().user_aborts += 1;
    }

    /// The single shard all of `txn`'s blocks route to, or `None` when
    /// the transaction spans shards (or stages nothing).
    fn home_shard(&self, txn: &Txn) -> Option<usize> {
        let mut home = None;
        for b in txn.disk_blocks() {
            let s = self.shard_of(b);
            if *home.get_or_insert(s) != s {
                return None;
            }
        }
        home
    }

    /// Splits a spanning transaction into per-shard fragments via
    /// [`shard_of`](Self::shard_of), preserving first-write order and
    /// moving payload buffers.
    fn split_spanning(&self, txn: Txn) -> Vec<Option<Txn>> {
        let mut parts: Vec<Option<Txn>> = (0..self.shards.len()).map(|_| None).collect();
        for (blk, buf) in txn.into_blocks() {
            let s = self.shard_of(blk);
            parts[s].get_or_insert_with(Txn::new).stage_owned(blk, buf);
        }
        parts
    }

    /// Commits `txn` atomically. Single-shard transactions (all blocks
    /// route to one shard — always true for `N = 1`) run one ring commit
    /// on their home shard. Spanning transactions run the two-phase
    /// intent protocol (module docs): all-or-nothing across every shard,
    /// and on error — a fragment rejected mid-sequence — nothing of the
    /// transaction stays durable.
    pub fn commit(&self, txn: Txn) -> Result<(), TincaError> {
        if txn.is_empty() {
            return Ok(());
        }
        if self.commit_mode == CommitMode::LockFreeRing {
            return match self.home_shard(&txn) {
                Some(s) => self.commit_on_shard_mw(s, txn),
                None => self.commit_spanning_mw(txn),
            };
        }
        if self.shards.len() == 1 {
            return self.commit_on_shard(0, txn);
        }
        match self.home_shard(&txn) {
            Some(s) => self.commit_on_shard(s, txn),
            None => self.commit_spanning(txn, &mut self.lock_spanning()),
        }
    }

    /// Takes the pool-level spanning mutex: the next intent sequence id.
    fn lock_spanning(&self) -> StdGuard<'_, u64> {
        self.spanning.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One transition of the spanning-intent record on the host (shard 0)
    /// device: the 8 B state store — preceded by the participant bitmap
    /// when publishing — persisted and annotated as a commit record.
    fn store_intent(host: &Nvm, state: SpanningIntent, publish_shards: Option<u64>) {
        let len = match publish_shards {
            Some(bitmap) => {
                host.atomic_write_u64(INTENT_SHARDS_OFF, bitmap);
                16
            }
            None => 8,
        };
        host.atomic_write_u64(INTENT_STATE_OFF, state.encode());
        host.persist(INTENT_OFF, len);
        host.note_commit(INTENT_OFF, 64);
    }

    /// Two-phase spanning commit (module docs): publish the intent
    /// record, prepare one tagged fragment per participant shard, resolve
    /// with a single 8 B store, then retire every shard's revocation
    /// window. The caller holds the pool-level spanning mutex (`next_id`
    /// is its guarded intent counter) throughout; this takes the cache
    /// locks of shard 0 (the intent host — guarantees the record's commit
    /// annotations are ordered against that device's other commits) and
    /// every participant, acquired in ascending order.
    fn commit_spanning(&self, txn: Txn, next_id: &mut u64) -> Result<(), TincaError> {
        let _t = telemetry::span(telemetry::phase::COMMIT_SPANNING);
        let mut coalesced = txn.coalesced_writes();
        let mut parts = self.split_spanning(txn);
        let intent_id = *next_id;
        *next_id += 1;
        let tag = intent_tag(intent_id);
        // Tag this thread's trace ops with the intent id (provenance for
        // merged-trace analysis; a no-op when tracing is off).
        let _prov = nvmsim::txn_scope(intent_id);
        let mut guards: Vec<(usize, CacheGuard<'_>)> = Vec::new();
        for (s, sh) in self.shards.iter().enumerate() {
            if s == 0 || parts[s].is_some() {
                guards.push((s, sh.lock_cache()));
            }
        }
        let host = &self.shards[0].nvm;
        // Participant bitmap (advisory; shards ≥ 64 saturate onto bit 63).
        let mut bitmap: u64 = 0;
        for (s, p) in parts.iter().enumerate() {
            if p.is_some() {
                bitmap |= 1 << s.min(63);
            }
        }
        if self.commit_mode == CommitMode::LockFreeRing {
            // A preceding pipelined round leaves its descriptor-retire
            // flushes unfenced on shard 0 (the next sequencer drain
            // normally orders them); the intent record below is a commit
            // record on that same device, so fence first.
            host.sfence();
        }
        // Publish: one cache line, one fence. Until the resolve store
        // below, recovery rolls every fragment tagged `tag` back.
        Self::store_intent(
            host,
            SpanningIntent::Prepared { id: intent_id },
            Some(bitmap),
        );

        // Phase 1: prepare fragments in ascending shard order, stopping
        // at the first failure — later fragments are never attempted.
        let mut prepared: Vec<(usize, Fragment)> = Vec::new();
        let mut failure = None;
        for (gi, (s, guard)) in guards.iter_mut().enumerate() {
            let Some(mut part) = parts[*s].take() else {
                continue;
            };
            // The original transaction's coalescing count rides on its
            // first fragment so pool-wide stats still add up.
            part.add_coalesced(std::mem::take(&mut coalesced));
            match guard.prepare_fragment(&part, tag) {
                Ok(frag) => prepared.push((gi, frag)),
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        if let Some(e) = failure {
            // Abort: revoke every prepared fragment, then retire the
            // intent — nothing of the transaction stays durable, and a
            // crash anywhere in here still rolls every fragment back.
            for (gi, frag) in prepared {
                guards[gi].1.abort_fragment(frag);
            }
            Self::store_intent(host, SpanningIntent::None, None);
            guards[0].1.stats_mut().spanning_aborts += 1;
            return Err(e);
        }

        // Resolve: the transaction's commit point. Every fragment was
        // fenced-durable before this store, so from here recovery rolls
        // all of them forward.
        Self::store_intent(host, SpanningIntent::Resolved { id: intent_id }, None);

        // Phase 2: move every participant's Tail (closing its revocation
        // window) and reclaim, then retire the record — all windows are
        // closed, so future recoveries need no directive.
        for (gi, frag) in prepared {
            guards[gi].1.complete_fragment(frag);
        }
        Self::store_intent(host, SpanningIntent::None, None);
        guards[0].1.stats_mut().spanning_commits += 1;
        Ok(())
    }

    /// One ring commit on shard `s` under its cache lock — the paper's
    /// protocol, serialised per shard. A power cut unwinding out of the
    /// commit releases the lock on the way, so later committers on this
    /// shard are never stranded behind it.
    fn commit_on_shard(&self, s: usize, txn: Txn) -> Result<(), TincaError> {
        self.shards[s].lock_cache().commit(&txn)
    }

    /// Reads on-disk block `disk_blk` through its home shard.
    pub fn read(&self, disk_blk: u64, buf: &mut [u8]) -> Result<(), TincaError> {
        assert_eq!(buf.len(), BLOCK_SIZE);
        let s = self.shard_of(disk_blk);
        self.shards[s].lock_cache().read(disk_blk, buf)
    }

    /// Reads without populating any cache (verification).
    pub fn read_nocache(&self, disk_blk: u64, buf: &mut [u8]) -> Result<(), TincaError> {
        let s = self.shard_of(disk_blk);
        self.shards[s].lock_cache().read_nocache(disk_blk, buf)
    }

    /// True if `disk_blk` is cached in its home shard.
    pub fn contains(&self, disk_blk: u64) -> bool {
        let s = self.shard_of(disk_blk);
        self.shards[s].lock_cache().contains(disk_blk)
    }

    /// Cached payload of `disk_blk`, if present (inspection only).
    pub fn peek(&self, disk_blk: u64) -> Option<[u8; BLOCK_SIZE]> {
        let s = self.shard_of(disk_blk);
        self.shards[s].lock_cache().peek(disk_blk)
    }

    /// Writes back every dirty block of every shard (orderly shutdown).
    /// Every shard gets its flush attempt even if an earlier one fails —
    /// and within a shard every dirty block gets its attempt, failures
    /// quarantining the block — then the first error is returned.
    pub fn flush_all(&self) -> Result<(), TincaError> {
        let mut first_err = Ok(());
        for (s, sh) in self.shards.iter().enumerate() {
            if self.commit_mode == CommitMode::LockFreeRing {
                // Retire whatever is retirable first; an unpublished (or
                // mid-sequence) window still in flight makes the flush
                // racy, so report it like an open ring window.
                self.mw_sequence(s);
                let mw = lock_mw(sh);
                if !mw.windows.is_empty() || mw.sequencing {
                    if first_err.is_ok() {
                        first_err = Err(TincaError::CommitInProgress {
                            head: sh.mw.cursor.load(Ordering::Acquire),
                            tail: mw.windows.front().map(|w| w.start).unwrap_or(0),
                        });
                    }
                    continue;
                }
            }
            let res = sh.lock_cache().flush_all();
            if first_err.is_ok() {
                first_err = res;
            }
        }
        first_err
    }

    /// Pool-wide fault condition: `Healthy` when every shard is healthy,
    /// `ReadOnly` when every shard is read-only, otherwise `Degraded` with
    /// the total quarantined count — one shard on a dead disk degrades the
    /// pool but the other shards keep committing.
    pub fn health(&self) -> Health {
        let mut quarantined = 0usize;
        let mut any_fault = false;
        let mut all_read_only = true;
        for sh in &self.shards {
            let cache = sh.lock_cache();
            match cache.health() {
                Health::Healthy => all_read_only = false,
                Health::Degraded { .. } => {
                    any_fault = true;
                    all_read_only = false;
                }
                Health::ReadOnly => any_fault = true,
            }
            quarantined += cache.quarantined_count();
        }
        if !any_fault {
            Health::Healthy
        } else if all_read_only {
            Health::ReadOnly
        } else {
            Health::Degraded { quarantined }
        }
    }

    /// Exhaustive self-check of every shard's DRAM/NVM invariants (tests
    /// and crash verifiers); the first violation found, by shard.
    pub fn check_consistency(&self) -> Result<(), String> {
        for (i, sh) in self.shards.iter().enumerate() {
            sh.cache
                .lock()
                .check_consistency()
                .map_err(|e| format!("shard {i}: {e}"))?;
        }
        Ok(())
    }

    /// Pool-wide counters (sum over shards).
    pub fn stats(&self) -> CacheStats {
        self.shards.iter().fold(CacheStats::default(), |acc, sh| {
            acc.merge(&Self::fold_mw_pending(sh))
        })
    }

    /// One shard's counters.
    pub fn shard_stats(&self, s: usize) -> CacheStats {
        Self::fold_mw_pending(&self.shards[s])
    }

    /// A shard's cache counters plus the multi-writer pipeline's pending
    /// (not-yet-sequenced) retry/handoff counts, so snapshots taken
    /// between sequencer rounds still add up.
    fn fold_mw_pending(sh: &Shard) -> CacheStats {
        let mut st = sh.lock_cache().stats();
        let mw = lock_mw(sh);
        st.reservation_cas_retries += mw.pending_cas_retries;
        st.sequencer_handoffs += mw.pending_handoffs;
        st
    }

    /// Shard `s`'s NVM device (no lock taken).
    pub fn shard_nvm(&self, s: usize) -> &Nvm {
        &self.shards[s].nvm
    }

    /// Shard `s`'s NVM partitioning; `data_blocks` is its block capacity.
    pub fn shard_layout(&self, s: usize) -> Layout {
        self.shards[s].layout
    }

    /// Dirty blocks shard `s` currently holds quarantined after a
    /// permanent writeback failure (the live count;
    /// [`CacheStats::quarantined_blocks`] is cumulative).
    pub fn shard_quarantined(&self, s: usize) -> usize {
        self.shards[s].lock_cache().quarantined_count()
    }

    /// The backing disk every shard shares.
    pub(crate) fn disk(&self) -> &DynDisk {
        &self.disk
    }

    /// How many commits one shard can hold in flight at once: 1 for the
    /// mutex path, the descriptor-table capacity for the lock-free ring.
    /// Service-model tiers (open-loop) use this as the per-shard server
    /// multiplicity.
    pub fn commit_concurrency(&self) -> usize {
        match self.commit_mode {
            CommitMode::Mutex => 1,
            CommitMode::LockFreeRing => MW_WINDOWS,
        }
    }

    /// A handle on shard `s`'s simulated clock (clones share time).
    ///
    /// This is the queue-wait hook of the open-loop tier: an arrival-
    /// driven driver calls [`nvmsim::SimClock::advance_to`] with each
    /// op's arrival instant so idle time between arrivals actually
    /// passes on the shard — background-lane deadlines (destage) expire
    /// during load gaps, and `service start = max(arrival, shard now)`
    /// makes queue wait measurable instead of modelled away. Closed-loop
    /// drivers never advance this clock directly; only the shard's
    /// devices do. Advancing it is only meaningful while the shard is
    /// otherwise quiescent (single-threaded driving).
    pub fn shard_clock(&self, s: usize) -> nvmsim::SimClock {
        self.shards[s].lock_cache().nvm().clock().clone()
    }

    /// NVM metadata byte ranges of shard `s` (header + ring + entry table,
    /// in that shard's device address space) for persist-order analysis.
    /// Read from the fixed layout, without the cache lock.
    pub fn shard_metadata_ranges(&self, s: usize) -> Vec<std::ops::Range<usize>> {
        let metadata = 0..self.shards[s].layout.data_off;
        vec![metadata]
    }

    /// NVM data blocks no entry references, across all shards: block
    /// *supply*, not the free list alone — with
    /// [`TincaConfig::delta_stage`] it includes every shard's shadow
    /// reserve, which allocation falls back on, so `0` means
    /// "nothing left to allocate without evicting", and a nonzero count
    /// does not mean the free list is non-empty.
    pub fn free_block_count(&self) -> usize {
        self.shards
            .iter()
            .map(|sh| sh.lock_cache().free_block_count())
            .sum()
    }

    /// Valid cached blocks across all shards.
    pub fn cached_blocks(&self) -> usize {
        self.shards
            .iter()
            .map(|sh| sh.lock_cache().cached_blocks())
            .sum()
    }
}

impl std::fmt::Debug for TincaPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TincaPool")
            .field("shards", &self.shards.len())
            .field("commit_mode", &self.commit_mode)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockdev::{DiskKind, SimDisk};
    use nvmsim::{shard_devices, NvmConfig, NvmTech, SimClock};

    fn blk(byte: u8) -> [u8; BLOCK_SIZE] {
        [byte; BLOCK_SIZE]
    }

    fn cache_cfg() -> TincaConfig {
        TincaConfig {
            ring_bytes: 4096,
            ..TincaConfig::default()
        }
    }

    /// A device's whole persistent image.
    fn image(nvm: &Nvm) -> Vec<u8> {
        let mut img = vec![0u8; nvm.capacity()];
        nvm.read_persistent(0, &mut img);
        img
    }

    /// With one shard and one thread the pool must be indistinguishable from a
    /// bare `TincaCache`: same persistent image, same NVM counters, same
    /// simulated time, same cache statistics — and so must a torn commit, a
    /// power cut and the recovery after it.
    #[test]
    fn single_shard_pool_matches_bare_cache_bit_for_bit() {
        use nvmsim::{CrashPolicy, CrashTripped, NvmDevice};
        use std::panic::{catch_unwind, AssertUnwindSafe};

        const SEED: u64 = 0x0B17_F0B1;
        let cap = 1 << 20;
        let mk = || {
            let clock = SimClock::new();
            let nvm = NvmDevice::new(NvmConfig::new(cap, NvmTech::Pcm), clock.clone());
            let disk = SimDisk::new(DiskKind::Ssd, 1 << 20, clock.clone());
            (nvm, disk)
        };

        // Reference: bare cache.
        let (nvm_a, disk_a) = mk();
        let mut cache = TincaCache::format(nvm_a.clone(), disk_a.clone(), cache_cfg(), false);
        // Pool under test: one shard on an identical device.
        let (nvm_b, disk_b) = mk();
        let pool_cfg = PoolConfig {
            shards: 1,
            cache: cache_cfg(),
            ..PoolConfig::default()
        };
        let p = TincaPool::format(vec![nvm_b.clone()], disk_b.clone(), pool_cfg.clone());

        // Identical workload on both, including coalescing rewrites and reads.
        let mut buf = [0u8; BLOCK_SIZE];
        for round in 0..20u64 {
            let mut ta = Txn::new();
            let mut tb = p.init_txn();
            for t in [&mut ta, &mut tb] {
                t.write(round % 7, &blk((round % 251) as u8));
                t.write(100 + round, &blk(1));
                t.write(round % 7, &blk((round % 249) as u8)); // coalesce
            }
            cache.commit(&ta).unwrap();
            p.commit(tb).unwrap();
            cache.read(round % 7, &mut buf).unwrap();
            let mut buf2 = [0u8; BLOCK_SIZE];
            p.read(round % 7, &mut buf2).unwrap();
            assert_eq!(buf, buf2);
        }

        let assert_same = |leg: &str, a: CacheStats, b: CacheStats| {
            assert_eq!(a, b, "{leg}: cache statistics must match");
            assert_eq!(
                nvm_a.stats(),
                nvm_b.stats(),
                "{leg}: NVM event counters must match"
            );
            assert_eq!(
                nvm_a.clock().now_ns(),
                nvm_b.clock().now_ns(),
                "{leg}: simulated time must match"
            );
            assert!(
                image(&nvm_a) == image(&nvm_b),
                "{leg}: persistent NVM images must be identical"
            );
        };
        assert_same("workload", cache.stats(), p.stats());
        cache.check_consistency().unwrap();
        p.check_consistency().unwrap();

        // The same torn commit on both — a write hit, a miss and a hit, cut
        // inside the second block's payload flushes — then the same power
        // cut, resolved by the same coins.
        let torn = || {
            let mut t = Txn::new();
            for (b, v) in [(3u64, 0xE1), (500, 0xE2), (5, 0xE3)] {
                t.write(b, &blk(v));
            }
            t
        };
        let cut = |nvm: &Nvm, commit: &mut dyn FnMut()| {
            nvm.set_trip(Some(100));
            let tripped = catch_unwind(AssertUnwindSafe(commit))
                .expect_err("the armed trip fires inside the commit");
            assert!(tripped.is::<CrashTripped>());
            nvm.set_trip(None);
        };
        cut(&nvm_a, &mut || {
            let _ = cache.commit(&torn());
        });
        cut(&nvm_b, &mut || {
            let _ = p.commit(torn());
        });
        drop((cache, p));
        nvm_a.crash(CrashPolicy::Random(SEED));
        nvm_b.crash(CrashPolicy::Random(SEED));

        let cache = TincaCache::recover_with_intent(
            nvm_a.clone(),
            disk_a,
            cache_cfg(),
            SpanningIntent::None,
            false,
        )
        .unwrap();
        let p = TincaPool::recover(vec![nvm_b.clone()], disk_b, pool_cfg).unwrap();
        assert_same("recovery", cache.stats(), p.stats());
        cache.check_consistency().unwrap();
        p.check_consistency().unwrap();
    }

    #[test]
    fn recover_reports_shard_geometry_as_an_error() {
        let disk = || SimDisk::new(DiskKind::Ssd, 1 << 20, SimClock::new());
        let nvm = NvmConfig::new(1 << 20, NvmTech::Pcm);
        let two = shard_devices(&nvm, 2);
        drop(TincaPool::format(
            two.clone(),
            disk(),
            PoolConfig::with_shards(2),
        ));

        let err = TincaPool::recover(two.clone(), disk(), PoolConfig::with_shards(4)).unwrap_err();
        assert_eq!(
            err,
            TincaError::GeometryMismatch {
                field: "shards",
                found: 2,
                expected: 4
            }
        );
        let err = TincaPool::recover(Vec::new(), disk(), PoolConfig::with_shards(0)).unwrap_err();
        assert_eq!(
            err,
            TincaError::GeometryMismatch {
                field: "shards",
                found: 0,
                expected: 1
            }
        );
        // The matching geometry still recovers.
        TincaPool::recover(two, disk(), PoolConfig::with_shards(2)).unwrap();
    }
}
