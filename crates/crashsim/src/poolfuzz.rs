//! Crash fuzzing for the sharded [`TincaPool`] front-end.
//!
//! The FS-level fuzzer ([`crate::fuzz`]) exercises one single-threaded
//! stack. This module attacks the pool: a seeded script of block
//! transactions runs against an `N`-shard pool with a crash trip armed on
//! **one** shard's NVM device; when it fires mid-commit, *every* shard is
//! power-cycled (each resolving its un-fenced write-back state
//! adversarially), the pool is recovered shard by shard, and the result is
//! verified:
//!
//! * every shard passes `check_consistency`;
//! * every transaction committed before the crash reads back exactly;
//! * the in-flight transaction is all-or-nothing **across every shard it
//!   touches** — the scripts draw random blocks, so most transactions
//!   span shards and exercise the pool's two-phase spanning commit; a
//!   crash between fragments (or during intent publish/resolve) must
//!   leave the whole transaction either fully visible or fully rolled
//!   back after recovery;
//! * every shard's event trace passes the persist-order analyzer — the
//!   crash on one shard must not leave any other shard's commit stream
//!   unflushed, unfenced, or torn — and so does the **merged**
//!   multi-shard trace (intent publish/resolve/retire annotations
//!   included).
//!
//! `delta_stage` is one more input: with it on the pool runs
//! [`TincaConfig::delta_stage`], the script draws from a narrow block
//! range and its payloads are sparse (`image`), so most writes are
//! rewrites that find a reserved shadow block, skip most of its lines and
//! store a few runs in both halves — and the trip lands mid-way through
//! rewriting one. With it off the script draws from the wide range and
//! the payloads are dense, `[v; BLOCK_SIZE]`.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use blockdev::{Disk, DiskKind, SimDisk, BLOCK_SIZE};
use nvmsim::{
    merge_shard_traces, shard_devices, CrashPolicy, Nvm, NvmConfig, NvmTech, SimClock, CACHE_LINE,
};
use persistcheck::{CheckConfig, Checker};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tinca::{PoolConfig, TincaConfig, TincaPool};

use crate::app::{campaign, run_recoverable, AppOutcome, RecoverableApp};
use crate::quiet_crash_panics;

/// One pool-fuzz iteration's result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PoolFuzzOutcome {
    /// The script completed before the trip fired.
    Completed,
    /// Crash injected; all shards recovered and verified clean.
    CrashedVerified,
    /// Verification failed — a consistency bug.
    Violation(String),
}

impl From<AppOutcome> for PoolFuzzOutcome {
    fn from(o: AppOutcome) -> PoolFuzzOutcome {
        match o {
            AppOutcome::Completed => PoolFuzzOutcome::Completed,
            AppOutcome::CrashedVerified => PoolFuzzOutcome::CrashedVerified,
            AppOutcome::Violation(v) => PoolFuzzOutcome::Violation(v),
        }
    }
}

/// Aggregate over a pool-fuzz campaign.
#[derive(Clone, Debug, Default)]
pub struct PoolFuzzReport {
    pub runs: u64,
    pub completed: u64,
    pub crashes: u64,
    pub violations: Vec<String>,
}

impl PoolFuzzReport {
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// One scripted transaction: disjoint (block, fill) writes.
type TxnSpec = Vec<(u64, u8)>;

fn script(rng: &mut StdRng, txns: usize, blocks: u64) -> Vec<TxnSpec> {
    (0..txns)
        .map(|_| {
            let n = rng.gen_range(1..=4usize);
            let mut spec: TxnSpec = Vec::with_capacity(n);
            while spec.len() < n {
                let b = rng.gen_range(0..blocks);
                if spec.iter().all(|(x, _)| *x != b) {
                    spec.push((b, rng.gen_range(1..=255)));
                }
            }
            spec
        })
        .collect()
}

/// The image of block `b` at fill byte `v` (`None`: never written, the
/// disk's zeroes). Dense images are `[v; BLOCK_SIZE]`. Sparse ones — the
/// delta-staging campaigns' — keep most lines constant per block and
/// nonzero, and carry `v` in two separate three-line runs, one in each
/// half of the block, whose positions move with `v`: a delta-staged
/// rewrite has lines to skip and lines to store in both halves, and every
/// line of every version differs from the fresh device's zeroes, so a
/// torn or never-persisted line anywhere shows in a byte-for-byte check.
pub(crate) fn image(b: u64, v: Option<u8>, sparse: bool) -> [u8; BLOCK_SIZE] {
    let Some(v) = v else {
        return [0; BLOCK_SIZE];
    };
    if !sparse {
        return [v; BLOCK_SIZE];
    }
    let mut p = [0u8; BLOCK_SIZE];
    for (l, line) in p.chunks_exact_mut(CACHE_LINE).enumerate() {
        line.fill((b as u8).wrapping_mul(31).wrapping_add(l as u8) | 1);
    }
    let v_line = usize::from(v);
    for start in [v_line % 24, 32 + v_line % 29] {
        p[start * CACHE_LINE..(start + 3) * CACHE_LINE].fill(v);
    }
    p
}

/// Runs one seeded crash-fuzz iteration against an `N`-shard pool.
pub fn pool_fuzz_one(shards: usize, seed: u64, txns: usize, delta_stage: bool) -> PoolFuzzOutcome {
    run_recoverable(&mut PoolApp::new(shards, seed, txns, delta_stage)).into()
}

/// The pool-level crash application: scripted block transactions against
/// an `N`-shard pool, with a durable block → fill-byte oracle.
struct PoolApp {
    pool: TincaPool,
    devices: Vec<Nvm>,
    disk: Disk,
    pool_cfg: PoolConfig,
    metadata_ranges: Vec<Vec<std::ops::Range<usize>>>,
    plan: Vec<TxnSpec>,
    /// Durable oracle: block → last committed fill byte.
    durable: HashMap<u64, u8>,
    committed: usize,
    shards: usize,
    trip_shard: usize,
    trip: u64,
    seed: u64,
    _seed_span: telemetry::Span,
}

impl PoolApp {
    fn new(shards: usize, seed: u64, txns: usize, delta_stage: bool) -> PoolApp {
        quiet_crash_panics();
        let mut rng = StdRng::seed_from_u64(seed);
        let blocks = if delta_stage { 16u64 } else { 96 };

        let nvm_cfg = NvmConfig::new(shards * (256 << 10), NvmTech::Pcm).with_tracing();
        let devices: Vec<Nvm> = shard_devices(&nvm_cfg, shards);
        let clock = SimClock::new();
        telemetry::swap_clock(&clock);
        let _seed_span = telemetry::span(telemetry::phase::CRASH_SEED);
        let disk = SimDisk::new(DiskKind::Ssd, 1 << 16, clock);
        let pool_cfg = PoolConfig {
            shards,
            cache: TincaConfig {
                ring_bytes: 4096,
                delta_stage,
                ..TincaConfig::default()
            },
            ..PoolConfig::default()
        };
        let pool = TincaPool::format(devices.clone(), disk.clone(), pool_cfg.clone());
        let metadata_ranges: Vec<_> = (0..shards).map(|s| pool.shard_metadata_ranges(s)).collect();

        let plan = script(&mut rng, txns, blocks);
        let trip_shard = (seed % shards as u64) as usize;
        let trip = rng.gen_range(1..4_000u64);
        devices[trip_shard].set_trip(Some(trip));
        PoolApp {
            pool,
            devices,
            disk,
            pool_cfg,
            metadata_ranges,
            plan,
            durable: HashMap::new(),
            committed: 0,
            shards,
            trip_shard,
            trip,
            seed,
            _seed_span,
        }
    }
}

impl RecoverableApp for PoolApp {
    fn run_to_trip(&mut self) -> bool {
        let crashed = {
            let durable = &mut self.durable;
            let committed = &mut self.committed;
            let pool = &self.pool;
            let plan = &self.plan;
            let sparse = self.pool_cfg.cache.delta_stage;
            catch_unwind(AssertUnwindSafe(move || {
                for spec in plan {
                    let mut t = pool.init_txn();
                    for (b, v) in spec {
                        t.write(*b, &image(*b, Some(*v), sparse));
                    }
                    pool.commit(t).expect("fuzz commit");
                    for (b, v) in spec {
                        durable.insert(*b, *v);
                    }
                    *committed += 1;
                }
            }))
            .is_err()
        };
        self.devices[self.trip_shard].set_trip(None);
        crashed
    }

    fn crash_recover(&mut self) -> Result<(), String> {
        // Power failure: every shard resolves its volatile state
        // adversarially.
        for (s, d) in self.devices.iter().enumerate() {
            d.crash(CrashPolicy::Random(self.seed ^ 0xD1CE ^ (s as u64) << 17));
        }
        match TincaPool::recover(
            self.devices.clone(),
            self.disk.clone(),
            self.pool_cfg.clone(),
        ) {
            Ok(p) => {
                self.pool = p;
                Ok(())
            }
            Err(e) => {
                let (seed, trip, trip_shard) = (self.seed, self.trip, self.trip_shard);
                Err(format!(
                    "seed {seed} trip {trip}@shard{trip_shard}: recovery failed: {e}"
                ))
            }
        }
    }

    fn verify(&mut self) -> Result<(), String> {
        verify(
            &self.pool,
            &self.devices,
            &self.metadata_ranges,
            &self.durable,
            &self.plan[self.committed],
            self.shards,
            self.pool_cfg.cache.delta_stage,
        )
        .map_err(|e| {
            let (seed, trip, trip_shard) = (self.seed, self.trip, self.trip_shard);
            format!("seed {seed} trip {trip}@shard{trip_shard}: {e}")
        })
    }
}

fn verify(
    pool: &TincaPool,
    devices: &[Nvm],
    metadata_ranges: &[Vec<std::ops::Range<usize>>],
    durable: &HashMap<u64, u8>,
    in_flight: &TxnSpec,
    shards: usize,
    sparse: bool,
) -> Result<(), String> {
    // 1. Internal invariants of every shard.
    pool.check_consistency()
        .map_err(|e| format!("inconsistent internals: {e}"))?;

    // 2. Persist-order cleanliness of every shard's full event trace
    //    (format + workload + crash + recovery), and of the merged
    //    pool-wide trace — the intent record's publish/resolve/retire
    //    stores on shard 0 must be ordered like any other commit point.
    let traces: Vec<_> = devices.iter().map(|d| d.take_trace()).collect();
    for (s, trace) in traces.iter().enumerate() {
        let mut checker = Checker::new(CheckConfig::with_metadata(metadata_ranges[s].clone()));
        checker.push_all(trace);
        let report = checker.report();
        if !report.is_clean() {
            return Err(format!("shard {s} persist-order violation: {report}"));
        }
    }
    let shard_capacity = devices[0].capacity();
    let merged_ranges: Vec<_> = metadata_ranges
        .iter()
        .enumerate()
        .flat_map(|(s, ranges)| {
            let base = s * shard_capacity;
            ranges.iter().map(move |r| r.start + base..r.end + base)
        })
        .collect();
    let mut checker = Checker::new(CheckConfig::with_metadata(merged_ranges));
    checker.push_all(&merge_shard_traces(traces, shard_capacity));
    let report = checker.report();
    if !report.is_clean() {
        return Err(format!("merged-trace persist-order violation: {report}"));
    }

    // 3. Committed transactions are durable; the in-flight transaction is
    //    all-or-nothing across every shard it touches. Blocks whose
    //    in-flight value equals their last committed value cannot witness
    //    either outcome and are skipped (same disambiguation the FS-level
    //    oracle uses).
    let staged: HashMap<u64, u8> = in_flight.iter().copied().collect();
    let mut buf = [0u8; BLOCK_SIZE];
    for (&b, &v) in durable {
        if staged.contains_key(&b) {
            continue; // judged as part of the in-flight check below
        }
        pool.read(b, &mut buf).expect("poolfuzz runs fault-free");
        if buf != image(b, Some(v), sparse) {
            return Err(format!(
                "durable block {b}: expected fill {v:#x}, read {:#x}",
                buf[0]
            ));
        }
    }
    let mut news: Vec<u64> = Vec::new();
    let mut olds: Vec<u64> = Vec::new();
    for &(b, v) in in_flight {
        let old = durable.get(&b).copied();
        if old == Some(v) {
            continue; // uninformative: both outcomes read alike
        }
        pool.read(b, &mut buf).expect("poolfuzz runs fault-free");
        if buf == image(b, Some(v), sparse) {
            news.push(b);
        } else if buf == image(b, old, sparse) {
            olds.push(b);
        } else {
            return Err(format!("in-flight block {b} is torn: read {:#x}", buf[0]));
        }
    }
    if !news.is_empty() && !olds.is_empty() {
        let spanned: std::collections::HashSet<usize> = in_flight
            .iter()
            .map(|(b, _)| (*b % shards as u64) as usize)
            .collect();
        return Err(format!(
            "in-flight txn over shards {spanned:?} not atomic: \
             blocks {news:?} read new, {olds:?} read old"
        ));
    }
    Ok(())
}

/// Runs a pool-fuzz campaign of `runs` seeds.
pub fn pool_fuzz_campaign(
    shards: usize,
    base_seed: u64,
    runs: u64,
    txns: usize,
    delta_stage: bool,
) -> PoolFuzzReport {
    let r = campaign(runs, false, |i| {
        run_recoverable(&mut PoolApp::new(shards, base_seed + i, txns, delta_stage))
    });
    PoolFuzzReport {
        runs: r.runs,
        completed: r.completed,
        crashes: r.crashes,
        violations: r.violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_are_deterministic() {
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        assert_eq!(script(&mut a, 20, 64), script(&mut b, 20, 64));
    }

    #[test]
    fn sparse_images_change_runs_in_both_halves_and_hold_no_zero_line() {
        assert_eq!(image(7, Some(9), false), [9u8; BLOCK_SIZE]);
        assert_eq!(image(7, None, true), [0u8; BLOCK_SIZE]);
        let (a, b) = (image(7, Some(9), true), image(7, Some(200), true));
        assert!(a.iter().all(|&x| x != 0));
        let changed: Vec<usize> = (0..BLOCK_SIZE / CACHE_LINE)
            .filter(|l| a[l * CACHE_LINE..][..CACHE_LINE] != b[l * CACHE_LINE..][..CACHE_LINE])
            .collect();
        assert_eq!(changed, [8, 9, 10, 11, 41, 42, 43, 58, 59, 60]);
        assert_ne!(image(7, Some(9), true), image(8, Some(9), true));
    }

    #[test]
    fn scripted_txns_have_distinct_blocks() {
        let mut rng = StdRng::seed_from_u64(11);
        for spec in script(&mut rng, 50, 16) {
            let mut blocks: Vec<u64> = spec.iter().map(|(b, _)| *b).collect();
            blocks.sort_unstable();
            blocks.dedup();
            assert_eq!(blocks.len(), spec.len());
        }
    }
}
