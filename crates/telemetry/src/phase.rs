//! The phase taxonomy: every named span/charge point in the stack.
//!
//! Names are `&'static str` constants so call sites stay cheap (interning
//! keys on the pointer-free `(parent, name)` pair) and so the taxonomy is
//! greppable in one place. Dots group related phases (`commit.stage`); the
//! tree structure itself comes from span nesting at runtime, not from the
//! names.

/// Whole commit critical path (txn submit → durable commit point).
pub const COMMIT: &str = "commit";
/// Admission control: capacity/quarantine checks before staging.
pub const COMMIT_ADMISSION: &str = "commit.admission";
/// COW block staging: NVM block copy + per-block persist.
pub const COMMIT_STAGE: &str = "commit.stage";
/// 16-byte atomic mapping-entry update.
pub const COMMIT_ENTRY: &str = "commit.entry";
/// 8-byte ring-slot record + persist.
pub const COMMIT_RING: &str = "commit.ring";
/// Log→buffer role switch bookkeeping.
pub const COMMIT_ROLE_SWITCH: &str = "commit.role_switch";
/// Double-write fallback when no role switch is possible.
pub const COMMIT_DOUBLE_WRITE: &str = "commit.double_write";
/// Tail move: the atomic commit point (8B store + persist).
pub const COMMIT_POINT: &str = "commit.point";
/// Revoking staged blocks after a failed commit.
pub const COMMIT_REVOKE: &str = "commit.revoke";
/// A committer parked behind the shard's multi-writer pipeline: waiting
/// for a sequencer round to retire its window, for a busy shard to admit
/// it, or for a spanning commit's quiesce to drain.
pub const COMMIT_GROUP_WAIT: &str = "commit.group.wait";
/// Two-phase spanning commit: intent publish, per-shard fragment
/// prepares, resolve, and window retirement (pool-level; the per-shard
/// fragment work nests `commit` spans underneath).
pub const COMMIT_SPANNING: &str = "commit.spanning";

/// Cache read path (hit or miss+fill).
pub const CACHE_READ: &str = "cache.read";
/// Eviction: choosing and reclaiming a victim block.
pub const CACHE_EVICT: &str = "cache.evict";
/// Dirty-block writeback to the backing disk.
pub const CACHE_WRITEBACK: &str = "cache.writeback";
/// Full-cache flush (drain all dirty blocks).
pub const CACHE_FLUSH_ALL: &str = "cache.flush_all";

/// Background destage pipeline (harvest + vectored writeback). Charged
/// outside the `commit` span: destage I/O overlaps foreground time and
/// only its stalls show up on the critical path.
pub const DESTAGE: &str = "destage";
/// Device time consumed by background vectored writebacks (busy-lane
/// time, not foreground wall time).
pub const DESTAGE_WRITEBACK: &str = "destage.writeback";
/// Foreground stall waiting for the destage lane to drain (explicit
/// drain, or the free pool emptied before the daemon caught up).
pub const DESTAGE_DRAIN: &str = "destage.drain";

/// Crash recovery of one cache (scan, judge, close, rebuild).
pub const RECOVERY: &str = "recovery";
/// Recovery's loads of the persistent metadata: header, window
/// descriptors, and the entry table up to its watermark, decoded once
/// into DRAM.
pub const RECOVERY_SCAN: &str = "recovery.scan";
/// Ring-window judgment: load `[Tail, Head)`, roll forward, revoke.
pub const RECOVERY_JUDGE: &str = "recovery.judge";
/// Closing the ring: `Tail` store, slot-tag scrub, descriptor retire.
pub const RECOVERY_CLOSE: &str = "recovery.close";
/// DRAM index, LRU, dirty set and free monitors rebuilt from the decoded
/// table (no device access).
pub const RECOVERY_REBUILD: &str = "recovery.rebuild";
/// A pool's spanning-intent record: decoded before the shards recover,
/// retired after.
pub const RECOVERY_INTENT: &str = "recovery.intent";
/// Simulated backoff charged between failed-I/O retries.
pub const IO_RETRY_BACKOFF: &str = "io.retry_backoff";

/// NVM store path (cache-line writes into the overlay).
pub const NVM_STORE: &str = "nvm.store";
/// NVM load path.
pub const NVM_READ: &str = "nvm.read";
/// `clflush`/`clwb` of dirty or clean lines.
pub const NVM_FLUSH: &str = "nvm.flush";
/// Perf-smell mark: a `clflush` that hit a clean line (persisted nothing,
/// still paid latency). Count-only leaf under [`NVM_FLUSH`].
pub const NVM_FLUSH_CLEAN: &str = "nvm.flush.clean";
/// Store fence draining the flush epoch.
pub const NVM_FENCE: &str = "nvm.fence";
/// Perf-smell mark: an `sfence` whose flush epoch was empty (ordered
/// nothing). Count-only leaf under [`NVM_FENCE`].
pub const NVM_FENCE_EMPTY: &str = "nvm.fence.empty";
/// 8/16-byte failure-atomic stores.
pub const NVM_ATOMIC_STORE: &str = "nvm.atomic_store";

/// Block-device read (seek + transfer model).
pub const DISK_READ: &str = "disk.read";
/// Block-device write.
pub const DISK_WRITE: &str = "disk.write";
/// Seek/transfer cost charged by a *failed* I/O.
pub const DISK_FAULT: &str = "disk.fault";
/// Injected tail-latency spike.
pub const DISK_SPIKE: &str = "disk.spike";

/// JBD2-style journal commit (descriptor + data + commit record).
pub const JBD2_COMMIT: &str = "jbd2.commit";
/// Journal checkpoint (in-place writeback + head advance).
pub const JBD2_CHECKPOINT: &str = "jbd2.checkpoint";
/// Journal replay during mount.
pub const JBD2_REPLAY: &str = "jbd2.replay";

/// File-system mount: superblock, journal replay, DRAM mirror rebuild.
pub const FS_MOUNT: &str = "fs.mount";
/// Mount's superblock read and validation.
pub const FS_MOUNT_SUPERBLOCK: &str = "fs.mount.superblock";
/// Mirror rebuild: the name-table blocks.
pub const FS_MOUNT_NAMES: &str = "fs.mount.names";
/// Mirror rebuild: the inode-table blocks.
pub const FS_MOUNT_INODES: &str = "fs.mount.inodes";
/// Mirror rebuild: the block-bitmap blocks.
pub const FS_MOUNT_BITMAP: &str = "fs.mount.bitmap";

/// One file-system operation as issued by a workload.
pub const FS_OP: &str = "fs.op";
/// One seed of a crash/fault-fuzz campaign.
pub const CRASH_SEED: &str = "crash.seed";

/// Open-loop arrival-to-completion latency (queue wait + service) of one
/// served op, on the serving shard's simulated clock.
pub const OPENLOOP_LATENCY: &str = "openloop.latency";
/// Open-loop queue wait: arrival instant → service start.
pub const OPENLOOP_QUEUE_WAIT: &str = "openloop.queue_wait";
/// Open-loop service time: service start → completion.
pub const OPENLOOP_SERVICE: &str = "openloop.service";
/// Open-loop admission rejections (bounded queue full) — count-only.
pub const OPENLOOP_SHED: &str = "openloop.shed";
