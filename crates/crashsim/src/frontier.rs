//! Bounded exhaustive crash-state enumeration.
//!
//! The random trip sweep ([`crate::fuzz`], [`crate::poolfuzz`]) samples one
//! crash instant and one write-back resolution per seed. The engine's
//! [`frontier`] driver *enumerates* instead: a probe run records the full
//! event trace of a scripted workload, every fence epoch (the staged lines
//! between two consecutive `sfence`s) is extracted here, and for each
//! epoch every reachable **persist frontier** — every subset of the
//! epoch's staged lines — is materialised with
//! [`nvmsim::NvmDevice::crash_frontier`], recovered, and verified against
//! the oracle. For small scripts this subsumes the random sweep: any crash
//! state `CrashPolicy::Random` can produce at line granularity is one of
//! the enumerated frontiers.
//!
//! Epochs with more than `log2(cap_per_epoch)` staged lines are sampled
//! instead of enumerated (the empty and full frontiers are always
//! included); the report counts those epochs so a capped run is never
//! mistaken for an exhaustive one.
//!
//! Three campaigns are provided here (the multi-writer one lives in
//! [`crate::mwfuzz`]), each a call to [`frontier`]:
//!
//! * [`frontier_fs_campaign`] — the single-threaded FS stack, replaying
//!   the same scripts as [`crate::fuzz`];
//! * [`pool_frontier_campaign`] — a genuinely multi-threaded pool
//!   workload: one OS thread per shard (blocks ≡ thread mod shards keep
//!   every shard single-writer and its event stream deterministic), the
//!   spawn handoff annotated with release/acquire sync events so the
//!   persistrace rules audit each shard's trace and the merged trace
//!   without false positives;
//! * [`spanning_frontier_campaign`] — a single-threaded stream of
//!   transactions that each touch **every** shard, so each commit runs
//!   the pool's two-phase spanning protocol. Epochs are enumerated on
//!   every device in turn, which lands crashes inside the intent publish,
//!   between fragment prepares, around the resolve store, and during
//!   window retirement; recovery must make each transaction
//!   all-or-nothing across all shards at every frontier.

use std::collections::BTreeSet;
use std::panic::resume_unwind;

use fssim::stack::System;
use nvmsim::{CrashTripped, Nvm, TraceEvent, TracedOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tinca::{CommitMode, TincaPool};

use crate::engine::{frontier, small_pool, tripped, BlockOracle, Images, PoolApp, Rig, TxnSpec};
use crate::fuzz::{script, FsApp};

/// Aggregate over a frontier-enumeration campaign.
#[derive(Clone, Debug, Default)]
pub struct FrontierReport {
    /// Per-epoch crash-state budget the campaign ran with.
    pub cap_per_epoch: usize,
    /// Fence epochs found in the workload window of the probe trace.
    pub epochs_total: u64,
    /// Epochs whose frontier set was enumerated exhaustively (2^k ≤ cap).
    pub epochs_exhaustive: u64,
    /// Epochs that exceeded the cap and were deterministically sampled
    /// (empty + full frontiers always included).
    pub epochs_capped: u64,
    /// Epochs before the workload window (stack format/mount) — skipped.
    pub epochs_skipped_setup: u64,
    /// Crash states materialised, recovered, and verified.
    pub states_run: u64,
    pub violations: Vec<String>,
}

impl FrontierReport {
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl std::fmt::Display for FrontierReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} epochs ({} exhaustive, {} capped at {} states), {} crash states, {} violations",
            self.epochs_total,
            self.epochs_exhaustive,
            self.epochs_capped,
            self.cap_per_epoch,
            self.states_run,
            self.violations.len()
        )
    }
}

/// One fence epoch reconstructed from a probe trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct FenceEpoch {
    /// Staged lines, in first-staging order, deduplicated.
    pub staged: Vec<usize>,
    /// Absolute persistence-event ordinal of the epoch's **last staged
    /// clflush**. Tripping there crashes with the whole epoch staged but
    /// not yet fenced (events fire after the instruction takes effect, so
    /// tripping at the `sfence` itself would be one event too late).
    pub trip_event: u64,
}

/// Walks a trace and reconstructs every fence epoch that staged at least
/// one line, mirroring the device's persistence-event counter: each
/// `clflush` *line*, each `sfence`, and each atomic store bumps it; plain
/// stores and sync annotations do not.
pub(crate) fn epochs_from_trace(ops: &[TracedOp]) -> Vec<FenceEpoch> {
    let mut out = Vec::new();
    let mut event = 0u64;
    let mut staged: Vec<usize> = Vec::new();
    let mut last_staged_event = 0u64;
    for op in ops {
        match op.event {
            TraceEvent::Clflush { line, staged: s } => {
                event += 1;
                if s {
                    if !staged.contains(&line) {
                        staged.push(line);
                    }
                    last_staged_event = event;
                }
            }
            TraceEvent::Sfence { .. } => {
                event += 1;
                if !staged.is_empty() {
                    out.push(FenceEpoch {
                        staged: std::mem::take(&mut staged),
                        trip_event: last_staged_event,
                    });
                }
            }
            TraceEvent::AtomicStore { .. } => event += 1,
            TraceEvent::Crash => staged.clear(),
            _ => {}
        }
    }
    out
}

/// The frontiers to run for one epoch: all `2^k` line subsets when that
/// fits the cap, else a deterministic sample (always containing the empty
/// and full frontiers). Returns `(frontiers, capped)`.
pub(crate) fn frontiers(staged: &[usize], cap: usize, seed: u64) -> (Vec<Vec<usize>>, bool) {
    let k = staged.len();
    let cap = cap.max(2);
    if k < usize::BITS as usize - 1 && (1usize << k) <= cap {
        let all = (0..1u64 << k)
            .map(|mask| {
                staged
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> i & 1 == 1)
                    .map(|(_, &l)| l)
                    .collect()
            })
            .collect();
        return (all, false);
    }
    let mut seen: BTreeSet<Vec<usize>> = BTreeSet::new();
    let mut sorted_full: Vec<usize> = staged.to_vec();
    sorted_full.sort_unstable();
    seen.insert(Vec::new());
    seen.insert(sorted_full);
    let mut rng = StdRng::seed_from_u64(seed);
    // Bounded attempts: duplicates are discarded, and an epoch this large
    // always has far more than `cap` distinct subsets.
    for _ in 0..cap * 16 {
        if seen.len() >= cap {
            break;
        }
        let mut s: Vec<usize> = staged.iter().copied().filter(|_| rng.gen()).collect();
        s.sort_unstable();
        seen.insert(s);
    }
    (seen.into_iter().collect(), true)
}

/// Enumerates crash frontiers for one seeded FS script against `system`.
///
/// A probe run traces the complete workload once; every fence epoch in the
/// workload window is then re-run to its last staged `clflush`, crashed at
/// each enumerated frontier, recovered, and verified against the oracle
/// (all-or-nothing visibility plus persist-order cleanliness).
pub fn frontier_fs_campaign(
    system: System,
    seed: u64,
    steps: usize,
    cap_per_epoch: usize,
) -> FrontierReport {
    let plan = script(&mut StdRng::seed_from_u64(seed), steps, 12);
    frontier(
        || Ok(FsApp::new(system, false, &plan)),
        seed,
        cap_per_epoch,
        None,
    )
}

/// Worker trace-thread ids start here, far above any lazily assigned id.
const WORKER_TRACE_BASE: u32 = 1000;
/// Sync-object id for the spawn handoff of shard `s` is `HANDOFF_OBJ + s`.
const HANDOFF_OBJ: u64 = 0x5F00;

/// Per-thread script: thread `t` of `shards` only touches blocks
/// ≡ `t` (mod `shards`), so each shard has exactly one writer and its
/// device event stream is deterministic under any thread interleaving.
fn thread_script(
    rng: &mut StdRng,
    txns: usize,
    blocks: u64,
    shards: u64,
    thread: u64,
) -> Vec<TxnSpec> {
    (0..txns)
        .map(|_| {
            let n = rng.gen_range(1..=2usize);
            let mut spec: TxnSpec = Vec::with_capacity(n);
            while spec.len() < n {
                let b = rng.gen_range(0..blocks / shards) * shards + thread;
                if spec.iter().all(|(x, _)| *x != b) {
                    spec.push((b, rng.gen_range(1..=255u8).into()));
                }
            }
            spec
        })
        .collect()
}

/// Runs one OS thread per plan against the shared pool; thread `i` owns
/// shard `i` and disarms its device when it stops. Returns per-thread
/// `(committed, crashed)`.
fn run_pool_threads(
    pool: &TincaPool,
    devices: &[Nvm],
    plans: &[Vec<TxnSpec>],
    images: Images,
) -> Vec<(usize, bool)> {
    // Annotate the spawn handoff: the spawning thread releases, each
    // worker acquires, giving the race rules the happens-before edge the
    // real `thread::scope` spawn provides.
    for (s, d) in devices.iter().enumerate() {
        d.note_atomic_store_release(HANDOFF_OBJ + s as u64);
    }
    std::thread::scope(|sc| {
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(i, plan)| {
                let device = &devices[i..=i];
                sc.spawn(move || {
                    nvmsim::set_trace_thread(WORKER_TRACE_BASE + i as u32);
                    device[0].note_atomic_load_acquire(HANDOFF_OBJ + i as u64);
                    let mut committed = 0usize;
                    let done = tripped(device, || {
                        for spec in plan {
                            pool.commit(images.txn(pool, spec))
                                .expect("frontier commit");
                            committed += 1;
                        }
                    });
                    (committed, done.is_none())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("frontier worker"))
            .collect()
    })
}

/// Enumerates crash frontiers for a multi-threaded pool workload: one OS
/// thread per shard commits its own transaction stream; each shard's
/// fence epochs are enumerated in turn, the crash landing mid-commit on
/// that shard while the other threads run to completion. Every shard's
/// trace and the merged trace pass the analyzer, concurrency rules
/// (persist-race, unordered-commit, cross-thread-flush-dependency)
/// included.
///
/// With `delta_stage` the pool runs
/// [`TincaConfig::delta_stage`](tinca::TincaConfig::delta_stage), each
/// thread rewrites a narrow block range and the images are sparse, so the
/// enumerated frontiers cut shadow rewrites on every shard.
pub fn pool_frontier_campaign(
    shards: usize,
    seed: u64,
    txns_per_thread: usize,
    cap_per_epoch: usize,
    delta_stage: bool,
) -> FrontierReport {
    // Under delta staging each thread rewrites two blocks, so from a
    // block's third write on its commits rewrite a reserved shadow.
    let blocks = if delta_stage { 2 * shards as u64 } else { 96 };
    let plans: Vec<Vec<TxnSpec>> = (0..shards)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(seed ^ ((t as u64 + 1) << 8));
            thread_script(&mut rng, txns_per_thread, blocks, shards as u64, t as u64)
        })
        .collect();
    let cfg = small_pool(shards, CommitMode::Mutex, delta_stage);
    let drive = |rig: &Rig, pool: &TincaPool, oracle: &mut BlockOracle| {
        let results = run_pool_threads(pool, &rig.devices, &plans, oracle.images());
        let crashed = results.iter().filter(|(_, c)| *c).count();
        if crashed > 1 {
            return Err(format!("{crashed} threads crashed on one trip"));
        }
        for (plan, &(committed, _)) in plans.iter().zip(&results) {
            for spec in &plan[..committed] {
                oracle.begin(spec);
                oracle.commit();
            }
        }
        // The crashed worker's trip, raised again now that every worker
        // has joined.
        if let Some(s) = results.iter().position(|r| r.1) {
            oracle.begin(&plans[s][results[s].0]);
            resume_unwind(Box::new(CrashTripped {
                event: rig.devices[s].events(),
            }));
        }
        Ok(())
    };
    frontier(
        || Ok(PoolApp::fresh(&cfg, blocks, drive)),
        seed,
        cap_per_epoch,
        Some("shard"),
    )
}

/// Spanning script: every transaction writes one block on **each** shard
/// (`base * shards + s`), so every commit exercises the pool's two-phase
/// spanning protocol — intent publish, one prepared fragment per shard,
/// resolve, and window retirement.
fn spanning_script(rng: &mut StdRng, txns: usize, bases: u64, shards: u64) -> Vec<TxnSpec> {
    (0..txns)
        .map(|_| {
            let base = rng.gen_range(0..bases);
            (0..shards)
                .map(|s| (base * shards + s, rng.gen_range(1..=255u8).into()))
                .collect()
        })
        .collect()
}

/// Enumerates crash frontiers for a spanning-transaction workload. The
/// script is single-threaded (the spanning path serialises pool-wide
/// anyway), so every device's event stream is replay-stable; each
/// device's fence epochs are enumerated in turn, the crash landing on
/// that device while the others lose their volatile state.
///
/// With `delta_stage` the pool runs
/// [`TincaConfig::delta_stage`](tinca::TincaConfig::delta_stage), every
/// transaction rewrites the same block per shard and the images are
/// sparse, so from the third transaction on each fragment rewrites a
/// reserved shadow block and the enumerated frontiers are subsets of the
/// few lines it stored, in both halves of the block.
pub fn spanning_frontier_campaign(
    shards: usize,
    seed: u64,
    txns: usize,
    cap_per_epoch: usize,
    delta_stage: bool,
) -> FrontierReport {
    let bases = if delta_stage { 1 } else { 12 };
    let plan = spanning_script(&mut StdRng::seed_from_u64(seed), txns, bases, shards as u64);
    let cfg = small_pool(shards, CommitMode::Mutex, delta_stage);
    let build = || {
        Ok(PoolApp::fresh(
            &cfg,
            bases * shards as u64,
            |_, pool, oracle| {
                oracle.commit_each(pool, &plan);
                Ok(())
            },
        ))
    };
    frontier(build, seed, cap_per_epoch, Some("device"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmsim::{NvmConfig, NvmDevice, NvmTech, SimClock};

    fn traced_device() -> Nvm {
        NvmDevice::new(
            NvmConfig::new(4096, NvmTech::Pcm).with_tracing(),
            SimClock::new(),
        )
    }

    #[test]
    fn epochs_from_trace_finds_staged_sets_and_trip_ordinals() {
        let d = traced_device();
        d.write(0, &[1u8; 64]);
        d.write(128, &[2u8; 64]);
        d.clflush(0, 64); //   event 1 (staged line 0)
        d.clflush(128, 64); // event 2 (staged line 2)
        d.sfence(); //         event 3
        d.clflush(0, 64); //   event 4: clean flush, no staging
        d.sfence(); //         event 5: empty epoch, not reported
        d.write(64, &[3u8; 64]);
        d.clflush(64, 64); //  event 6 (staged line 1)
        d.clflush(0, 64); //   event 7: clean, must not move the trip
        d.sfence(); //         event 8
        let epochs = epochs_from_trace(&d.take_trace());
        assert_eq!(
            epochs,
            vec![
                FenceEpoch {
                    staged: vec![0, 2],
                    trip_event: 2
                },
                FenceEpoch {
                    staged: vec![1],
                    trip_event: 6
                },
            ]
        );
    }

    #[test]
    fn epoch_event_count_matches_device_counter() {
        let d = traced_device();
        d.write(0, &[1u8; 200]); // spans lines 0..=3
        d.clflush(0, 200); // 4 line events
        d.atomic_write_u64(256, 7); // 1 event
        d.sfence(); // 1 event
        assert_eq!(d.events(), 6);
        let epochs = epochs_from_trace(&d.take_trace());
        assert_eq!(epochs.len(), 1);
        assert_eq!(epochs[0].staged, vec![0, 1, 2, 3]);
        // The atomic store only dirties the overlay (it stages nothing),
        // so the last staged clflush remains event 4.
        assert_eq!(epochs[0].trip_event, 4);
    }

    #[test]
    fn frontiers_exhaustive_when_under_cap() {
        let (f, capped) = frontiers(&[3, 7], 8, 1);
        assert!(!capped);
        assert_eq!(f.len(), 4);
        assert!(f.contains(&vec![]));
        assert!(f.contains(&vec![3]));
        assert!(f.contains(&vec![7]));
        assert!(f.contains(&vec![3, 7]));
    }

    #[test]
    fn frontiers_capped_sample_keeps_extremes() {
        let staged: Vec<usize> = (0..20).collect();
        let (f, capped) = frontiers(&staged, 6, 42);
        assert!(capped);
        assert!(f.len() <= 6);
        assert!(f.contains(&vec![]));
        assert!(f.contains(&staged));
        // Deterministic across calls.
        assert_eq!(f, frontiers(&staged, 6, 42).0);
    }

    #[test]
    fn fs_frontier_enumeration_recovers_clean() {
        let report = frontier_fs_campaign(System::Tinca, 11, 8, 4);
        assert!(report.clean(), "{:?}", report.violations);
        assert!(report.epochs_total > 0, "probe found no workload epochs");
        assert!(report.states_run >= 2 * report.epochs_total);
        // The commit record is a single line: some epochs must have been
        // enumerated exhaustively even with a tiny cap.
        assert!(report.epochs_exhaustive > 0, "{report}");
    }

    #[test]
    fn spanning_frontier_enumeration_is_all_or_nothing() {
        let report = spanning_frontier_campaign(2, 9, 2, 4, false);
        assert!(report.clean(), "{:?}", report.violations);
        assert!(report.epochs_total > 0, "probe found no workload epochs");
        // Epochs exist on both devices: the intent record lives on device
        // 0, the second fragment commits on device 1.
        assert!(report.states_run >= 2 * report.epochs_total);
    }

    /// Delta staging under the same enumerator: the third and fourth
    /// transactions rewrite a shadow on each shard, and every frontier of
    /// the lines they stored recovers all-or-nothing.
    #[test]
    fn spanning_frontier_enumeration_covers_delta_staged_fragments() {
        let report = spanning_frontier_campaign(2, 9, 4, 4, true);
        println!("delta spanning frontier: {report}");
        assert!(report.clean(), "{:?}", report.violations);
        assert!(report.states_run >= 2 * report.epochs_total);
    }

    #[test]
    fn pool_frontier_enumeration_recovers_clean_multithreaded() {
        let report = pool_frontier_campaign(2, 5, 2, 4, false);
        assert!(report.clean(), "{:?}", report.violations);
        assert!(report.epochs_total > 0, "probe found no workload epochs");
        // Data-block epochs (64 lines) must have hit the cap, and the
        // report must say so.
        assert!(report.epochs_capped > 0, "{report}");
        // Delta staging on the threaded path: four commits per thread
        // over its two blocks, so the later ones rewrite shadows.
        let report = pool_frontier_campaign(2, 5, 4, 4, true);
        println!("delta threaded frontier: {report}");
        assert!(report.clean(), "{:?}", report.violations);
        assert!(report.states_run >= 2 * report.epochs_total);
    }
}
