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
//! [`ThreadedPlan`] is a multi-writer pool workload: one writer per shard
//! (blocks ≡ writer mod shards keep every shard single-writer), the
//! writers interleaved by a seeded scheduler.

use std::collections::{BTreeSet, HashSet};

use nvmsim::{TraceEvent, TracedOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tinca::CommitMode;
use workloads::sched::{Policy, Sched};

use crate::engine::{draw_txn, pool_trip, small_pool, Cut, Plan, PoolApp, Trip, Writers};
use crate::FailureMode::PowerPull;
use crate::Finding;

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

/// Each shard's fence epochs enumerated in turn, the crash landing
/// mid-commit on that shard while the other writers run to completion.
/// Every shard's trace and the merged trace pass the analyzer,
/// concurrency rules (persist-race, unordered-commit,
/// cross-thread-flush-dependency) included.
///
/// With `delta_stage` the pool runs
/// [`TincaConfig::delta_stage`](tinca::TincaConfig::delta_stage), each
/// writer rewrites a narrow block range and the images are sparse, so the
/// enumerated frontiers cut shadow rewrites on every shard.
#[derive(Clone, Copy, Debug)]
pub struct ThreadedPlan {
    pub shards: usize,
    pub txns_per_thread: usize,
    pub delta_stage: bool,
}

impl Plan for ThreadedPlan {
    type App = PoolApp<Writers>;
    const NAME: &'static str = "threaded";

    fn build(&self, seed: u64) -> Result<(Self::App, Trip, Cut<'static>), Finding> {
        let (txns, n) = (self.txns_per_thread, self.shards as u64);
        // Under delta staging each writer rewrites two blocks, so from a
        // block's third write on its commits rewrite a reserved shadow.
        let blocks = if self.delta_stage { 2 * n } else { 96 };
        // Writer t touches only blocks ≡ t (mod n): one writer per shard,
        // so each shard's event stream is the same under any interleaving.
        let queues = (0..n)
            .map(|t| {
                let rng = &mut StdRng::seed_from_u64(seed ^ ((t + 1) << 8));
                let lane = |rng: &mut StdRng| rng.gen_range(0..blocks / n) * n + t;
                (0..txns)
                    .map(|_| {
                        let k = rng.gen_range(1..=2usize);
                        Some(draw_txn(rng, k, &mut HashSet::new(), lane))
                    })
                    .collect()
            })
            .collect();
        let trip = pool_trip(&mut StdRng::seed_from_u64(seed), seed, self.shards);
        let cut = Cut::of(PowerPull, seed ^ 0xD1CE);
        let cfg = small_pool(self.shards, CommitMode::Mutex, self.delta_stage);
        let work = Writers {
            queues,
            sched: Sched {
                policy: Policy::Seeded(seed),
            },
            survive: true,
        };
        Ok((PoolApp::fresh(&cfg, blocks, work), trip, cut))
    }
}

#[cfg(test)]
mod tests {
    use nvmsim::{Nvm, NvmConfig, NvmDevice, NvmTech, SimClock};

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
