//! Bounded exhaustive crash-state enumeration, and the one plan that only
//! it runs.
//!
//! A random sweep samples one crash instant and one write-back resolution
//! per seed. The engine's [`frontier`](crate::engine::frontier) driver
//! *enumerates* instead: a probe run records the full event trace of a
//! scripted workload, every fence epoch (the staged lines between two
//! consecutive `sfence`s) is extracted here, and for each epoch every
//! reachable **persist frontier** — every subset of the epoch's staged
//! lines — is materialised with [`nvmsim::NvmDevice::crash_frontier`],
//! recovered, and verified against the oracle. For small scripts this
//! subsumes the random sweep: any crash state `CrashPolicy::Random` can
//! produce at line granularity is one of the enumerated frontiers.
//!
//! Epochs with more than `log2(cap_per_epoch)` staged lines are sampled
//! instead of enumerated (the empty and full frontiers are always
//! included); the report counts those epochs so a capped run is never
//! mistaken for an exhaustive one.
//!
//! [`ThreadedPlan`] is a genuinely multi-threaded pool workload: one OS
//! thread per shard (blocks ≡ thread mod shards keep every shard
//! single-writer and its event stream deterministic), the spawn handoff
//! annotated with release/acquire sync events so the persistrace rules
//! audit each shard's trace and the merged trace without false positives.

use std::collections::{BTreeSet, HashSet};
use std::panic::resume_unwind;

use nvmsim::{CrashTripped, Nvm, TraceEvent, TracedOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tinca::{CommitMode, TincaPool};

use crate::engine::{
    draw_txn, pool_trip, small_pool, tripped, BlockOracle, Cut, Images, Plan, PoolApp, Rig, Trip,
    TxnSpec, Workload,
};
use crate::FailureMode::PowerPull;
use crate::{Check, Finding};

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
            draw_txn(rng, n, &mut HashSet::new(), |rng| {
                rng.gen_range(0..blocks / shards) * shards + thread
            })
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

/// One thread per shard, each committing its own script; the crashed
/// worker's trip is raised again once every worker has joined.
impl Workload for Vec<Vec<TxnSpec>> {
    fn play(
        &mut self,
        rig: &Rig,
        pool: &TincaPool,
        oracle: &mut BlockOracle,
    ) -> Result<(), Finding> {
        let results = run_pool_threads(pool, &rig.devices, self, oracle.images());
        let crashed = results.iter().filter(|(_, c)| *c).count();
        if crashed > 1 {
            return Err(
                Check::Workload.found(format_args!("{crashed} threads crashed on one trip"))
            );
        }
        for (plan, &(committed, _)) in self.iter().zip(&results) {
            for spec in &plan[..committed] {
                oracle.begin(spec);
                oracle.commit();
            }
        }
        if let Some(s) = results.iter().position(|r| r.1) {
            oracle.begin(&self[s][results[s].0]);
            resume_unwind(Box::new(CrashTripped {
                event: rig.devices[s].events(),
            }));
        }
        Ok(())
    }
}

/// Each shard's fence epochs enumerated in turn, the crash landing
/// mid-commit on that shard while the other threads run to completion.
/// Every shard's trace and the merged trace pass the analyzer,
/// concurrency rules (persist-race, unordered-commit,
/// cross-thread-flush-dependency) included.
///
/// With `delta_stage` the pool runs
/// [`TincaConfig::delta_stage`](tinca::TincaConfig::delta_stage), each
/// thread rewrites a narrow block range and the images are sparse, so the
/// enumerated frontiers cut shadow rewrites on every shard.
#[derive(Clone, Copy, Debug)]
pub struct ThreadedPlan {
    pub shards: usize,
    pub txns_per_thread: usize,
    pub delta_stage: bool,
}

impl Plan for ThreadedPlan {
    type App = PoolApp<Vec<Vec<TxnSpec>>>;
    const NAME: &'static str = "threaded";

    fn build(&self, seed: u64) -> Result<(Self::App, Trip, Cut<'static>), Finding> {
        let (txns, n) = (self.txns_per_thread, self.shards as u64);
        // Under delta staging each thread rewrites two blocks, so from a
        // block's third write on its commits rewrite a reserved shadow.
        let blocks = if self.delta_stage { 2 * n } else { 96 };
        let plans: Vec<Vec<TxnSpec>> = (0..n)
            .map(|t| {
                let mut rng = StdRng::seed_from_u64(seed ^ ((t + 1) << 8));
                thread_script(&mut rng, txns, blocks, n, t)
            })
            .collect();
        let trip = pool_trip(&mut StdRng::seed_from_u64(seed), seed, self.shards);
        let cut = Cut::of(PowerPull, seed ^ 0xD1CE);
        let cfg = small_pool(self.shards, CommitMode::Mutex, self.delta_stage);
        Ok((PoolApp::fresh(&cfg, blocks, plans), trip, cut))
    }
}

#[cfg(test)]
mod tests {
    use nvmsim::{NvmConfig, NvmDevice, NvmTech, SimClock};

    use super::*;

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
}
