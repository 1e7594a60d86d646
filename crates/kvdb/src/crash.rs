//! Crash campaigns for both kvdb durability personalities.
//!
//! Each personality gets a [`RecoverableApp`]: a seeded TPC-C KV plan
//! runs with a crash trip armed on an NVM device, the power is pulled
//! mid-commit, the store recovers (WAL replay for [`WalStore`], ring
//! recovery — spanning two-phase included — for [`TincaStore`]), and the
//! recovered database is verified against a committed-KV oracle:
//!
//! * B-tree structural invariants hold ([`Db::validate`]);
//! * every NVM event trace passes the persist-order analyzer (per shard
//!   *and* merged, for the pool-backed store);
//! * the full contents equal the committed map, or the committed map
//!   plus the in-flight transaction's writes — all-or-nothing at the KV
//!   transaction level, across every page and shard the commit touched.
//!
//! On top of the random trip sweep, both personalities get a bounded
//! exhaustive frontier campaign through
//! [`crashsim::frontier_enumerate`]: a probe run harvests every fence
//! epoch, and each reachable persist frontier is materialised, recovered,
//! and verified.

use std::collections::BTreeMap;
use std::ops::Range;
use std::slice::from_ref;

use crashsim::engine::{audit, tripped, Cut};
use crashsim::{
    campaign, epochs_from_trace, frontier_enumerate, quiet_crash_panics, run_recoverable,
    AppOutcome, CampaignReport, FailureMode, FrontierReport, RecoverableApp,
};
use fssim::stack::{remount, StackConfig};
use nvmsim::Nvm;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::db::Db;
use crate::driver::{apply_txn, KvTpccDriver, KvTxn};
use crate::store::{KvError, PageStore};
use crate::tincastore::{TincaStore, TincaStoreConfig};
use crate::wal::{WalConfig, WalStore};

/// Warehouses in the crash-campaign TPC-C plans (small, so row conflicts
/// and page rewrites are frequent).
const WAREHOUSES: u32 = 2;
/// Shards of the Tinca-personality pool under test.
const SHARDS: usize = 2;

fn plan_txns(seed: u64, txns: usize) -> Vec<KvTxn> {
    let mut driver = KvTpccDriver::new(seed ^ 0x5EED, WAREHOUSES);
    (0..txns).map(|_| driver.next_txn()).collect()
}

/// Applies the plan until the trip armed on one of `devices` fires, then
/// disarms them. Returns `(crashed, workload_bug)` — a `KvError` with no
/// crash is a genuine bug, never folded into crash verification.
fn run_plan<S: PageStore>(
    db: &mut Db<S>,
    devices: &[Nvm],
    plan: &[KvTxn],
    committed: &mut BTreeMap<Vec<u8>, Vec<u8>>,
    committed_count: &mut usize,
) -> (bool, Option<String>) {
    let outcome = tripped(devices, || -> Result<(), KvError> {
        for txn in &plan[*committed_count..] {
            apply_txn(db, txn)?;
            for (k, v) in &txn.writes {
                committed.insert(k.clone(), v.clone());
            }
            *committed_count += 1;
        }
        Ok(())
    });
    match outcome {
        None => (true, None),
        Some(Ok(())) => (false, None),
        Some(Err(e)) => (false, Some(format!("workload error with no crash: {e}"))),
    }
}

/// The shared KV oracle: structural validity plus all-or-nothing
/// contents. `staged` is the in-flight transaction's write set (empty if
/// the workload completed). `Ok(true)` means the in-flight transaction
/// rolled forward, `Ok(false)` that the contents are the committed map.
fn check_kv_state<S: PageStore>(
    db: &mut Db<S>,
    committed: &BTreeMap<Vec<u8>, Vec<u8>>,
    staged: &[(Vec<u8>, Vec<u8>)],
) -> Result<bool, String> {
    db.validate()?;
    let contents: BTreeMap<Vec<u8>, Vec<u8>> = db
        .scan_all()
        .map_err(|e| format!("scan after recovery: {e}"))?
        .into_iter()
        .collect();
    if contents == *committed {
        return Ok(false);
    }
    let mut with_staged = committed.clone();
    for (k, v) in staged {
        with_staged.insert(k.clone(), v.clone());
    }
    if contents == with_staged {
        return Ok(true);
    }
    // Describe the first divergence from the nearer oracle state.
    let diff = |want: &BTreeMap<Vec<u8>, Vec<u8>>| -> String {
        if contents.len() != want.len() {
            return format!("{} keys, expected {}", contents.len(), want.len());
        }
        contents
            .iter()
            .zip(want.iter())
            .find(|(a, b)| a != b)
            .map(|((k, _), _)| format!("first divergent key {k:?}"))
            .unwrap_or_else(|| "divergence not localised".into())
    };
    Err(format!(
        "torn KV state: vs committed: {}; vs committed+staged: {}",
        diff(committed),
        diff(&with_staged)
    ))
}

// ---------------------------------------------------------------------------
// WalMode app
// ---------------------------------------------------------------------------

/// The WAL-personality crash application: TPC-C KV transactions on a
/// [`WalStore`] over the classic Ext4+JBD2 stack, tripped on the single
/// NVM device.
pub struct WalKvApp {
    db: Option<Db<WalStore>>,
    wal_cfg: WalConfig,
    metadata_ranges: Vec<Range<usize>>,
    plan: Vec<KvTxn>,
    committed: BTreeMap<Vec<u8>, Vec<u8>>,
    committed_count: usize,
    rolled_forward: bool,
    trip: u64,
    seed: u64,
    mode: FailureMode,
    fail: Option<String>,
    _seed_span: telemetry::Span,
}

impl WalKvApp {
    /// Builds the stack, formats the store, rolls the plan, arms the
    /// trip `1..trip_max` events past setup.
    pub fn new(
        seed: u64,
        txns: usize,
        trip_max: u64,
        mode: FailureMode,
    ) -> Result<WalKvApp, String> {
        let trip = StdRng::seed_from_u64(seed).gen_range(1..trip_max.max(2));
        WalKvApp::with_trip(seed, txns, Some(trip), mode)
    }

    /// As [`new`](Self::new) with the trip placed by the caller: `trip`
    /// events past setup, or never.
    pub fn with_trip(
        seed: u64,
        txns: usize,
        trip: Option<u64>,
        mode: FailureMode,
    ) -> Result<WalKvApp, String> {
        quiet_crash_panics();
        let wal_cfg = WalConfig {
            checkpoint_bytes: 96 << 10,
            page_capacity: 4096,
            traced: true,
        };
        let store = WalStore::tiny(wal_cfg).map_err(|e| format!("wal setup: {e}"))?;
        telemetry::swap_clock(&store.stack().clock);
        let _seed_span = telemetry::span(telemetry::phase::CRASH_SEED);
        let metadata_ranges = store.stack().fs.backend().metadata_ranges();
        let db = Db::open(store).map_err(|e| format!("db format: {e}"))?;
        let plan = plan_txns(seed, txns);
        db.store().stack().nvm.set_trip(trip);
        Ok(WalKvApp {
            db: Some(db),
            wal_cfg,
            metadata_ranges,
            plan,
            committed: BTreeMap::new(),
            committed_count: 0,
            rolled_forward: false,
            trip: trip.unwrap_or(0),
            seed,
            mode,
            fail: None,
            _seed_span,
        })
    }

    /// The live database: the workload's before the crash, the recovered
    /// one after it.
    pub fn db(&self) -> Option<&Db<WalStore>> {
        self.db.as_ref()
    }

    /// Transactions acknowledged before the trip fired.
    pub fn committed_count(&self) -> usize {
        self.committed_count
    }

    /// Whether [`verify`](RecoverableApp::verify) found the in-flight
    /// transaction rolled forward rather than back.
    pub fn rolled_forward(&self) -> bool {
        self.rolled_forward
    }

    fn tag(&self, e: String) -> String {
        format!("wal seed {} trip {}: {e}", self.seed, self.trip)
    }
}

impl RecoverableApp for WalKvApp {
    fn run_to_trip(&mut self) -> bool {
        let Some(db) = self.db.as_mut() else {
            return false;
        };
        let devices = [db.store().stack().nvm.clone()];
        let (crashed, bug) = run_plan(
            db,
            &devices,
            &self.plan,
            &mut self.committed,
            &mut self.committed_count,
        );
        if let Some(b) = bug {
            // Surface through crash_recover → Violation.
            self.fail = Some(b);
            return true;
        }
        crashed
    }

    fn crash_recover(&mut self) -> Result<(), String> {
        if let Some(f) = self.fail.take() {
            return Err(self.tag(f));
        }
        let Some(db) = self.db.take() else {
            return Err("no live db at crash".into());
        };
        let stack = db.into_store().into_stack();
        let cfg: StackConfig = stack.config.clone();
        let (nvm, disk, clock) = (stack.nvm, stack.disk, stack.clock);
        drop(stack.fs);
        Cut::of(self.mode, self.seed ^ 0xD1CE).apply(from_ref(&nvm));
        let rebooted = remount(&cfg, nvm, disk, clock)
            .map_err(|e| self.tag(format!("remount failed: {e}")))?;
        let store = WalStore::mount(rebooted, self.wal_cfg)
            .map_err(|e| self.tag(format!("WAL recovery failed: {e}")))?;
        let db = Db::open(store).map_err(|e| self.tag(format!("db reopen failed: {e}")))?;
        self.db = Some(db);
        Ok(())
    }

    fn verify(&mut self) -> Result<(), String> {
        let prefix = format!("wal seed {} trip {}", self.seed, self.trip);
        let Some(db) = self.db.as_mut() else {
            return Err("no live db at verify".into());
        };
        // Persist-order cleanliness of the whole trace (format, workload,
        // crash, WAL recovery).
        audit(
            from_ref(&db.store().stack().nvm),
            from_ref(&self.metadata_ranges),
        )
        .map_err(|e| format!("{prefix}: {e}"))?;
        // FS + cache internals under the store.
        {
            let stack = db.store_mut().stack_mut();
            stack
                .fs
                .backend()
                .check()
                .map_err(|e| format!("cache internals: {e}"))
                .and_then(|()| {
                    stack
                        .fs
                        .check_consistency()
                        .map_err(|e| format!("fs internals: {e}"))
                })
                .map_err(|e| format!("{prefix}: {e}"))?;
        }
        let staged = if self.committed_count < self.plan.len() {
            self.plan[self.committed_count].writes.clone()
        } else {
            Vec::new()
        };
        self.rolled_forward =
            check_kv_state(db, &self.committed, &staged).map_err(|e| format!("{prefix}: {e}"))?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// TincaMode app
// ---------------------------------------------------------------------------

/// The Tinca-personality crash application: the same TPC-C KV plan on a
/// [`TincaStore`] pool, tripped on one shard's device; all shards are
/// power-cycled together.
pub struct TincaKvApp {
    db: Option<Db<TincaStore>>,
    metadata_ranges: Vec<Vec<Range<usize>>>,
    plan: Vec<KvTxn>,
    committed: BTreeMap<Vec<u8>, Vec<u8>>,
    committed_count: usize,
    rolled_forward: bool,
    trip_shard: usize,
    trip: u64,
    seed: u64,
    mode: FailureMode,
    fail: Option<String>,
    _seed_span: telemetry::Span,
}

impl TincaKvApp {
    /// Formats a small sharded pool store, rolls the plan, arms the trip
    /// `1..trip_max` events past setup on shard `seed % shards`.
    pub fn new(
        seed: u64,
        txns: usize,
        trip_max: u64,
        mode: FailureMode,
    ) -> Result<TincaKvApp, String> {
        let trip = StdRng::seed_from_u64(seed).gen_range(1..trip_max.max(2));
        TincaKvApp::with_trip(
            seed,
            txns,
            (seed % SHARDS as u64) as usize,
            Some(trip),
            mode,
        )
    }

    /// As [`new`](Self::new) with the trip placed by the caller: `trip`
    /// events past setup on shard `trip_shard`, or never.
    pub fn with_trip(
        seed: u64,
        txns: usize,
        trip_shard: usize,
        trip: Option<u64>,
        mode: FailureMode,
    ) -> Result<TincaKvApp, String> {
        quiet_crash_panics();
        let cfg = TincaStoreConfig {
            shards: SHARDS,
            nvm_bytes_per_shard: 256 << 10,
            disk_blocks: 1 << 16,
            ring_bytes: 4096,
            traced: true,
        };
        let shards = cfg.shards;
        let store = TincaStore::format(cfg);
        telemetry::swap_clock(store.clock());
        let _seed_span = telemetry::span(telemetry::phase::CRASH_SEED);
        let metadata_ranges: Vec<_> = (0..shards)
            .map(|s| store.pool().shard_metadata_ranges(s))
            .collect();
        let db = Db::open(store).map_err(|e| format!("db format: {e}"))?;
        let plan = plan_txns(seed, txns);
        db.store().devices()[trip_shard].set_trip(trip);
        Ok(TincaKvApp {
            db: Some(db),
            metadata_ranges,
            plan,
            committed: BTreeMap::new(),
            committed_count: 0,
            rolled_forward: false,
            trip_shard,
            trip: trip.unwrap_or(0),
            seed,
            mode,
            fail: None,
            _seed_span,
        })
    }

    /// The live database: the workload's before the crash, the recovered
    /// one after it.
    pub fn db(&self) -> Option<&Db<TincaStore>> {
        self.db.as_ref()
    }

    /// Transactions acknowledged before the trip fired.
    pub fn committed_count(&self) -> usize {
        self.committed_count
    }

    /// Whether [`verify`](RecoverableApp::verify) found the in-flight
    /// transaction rolled forward rather than back.
    pub fn rolled_forward(&self) -> bool {
        self.rolled_forward
    }

    fn tag(&self, e: String) -> String {
        format!(
            "tinca seed {} trip {}@shard{}: {e}",
            self.seed, self.trip, self.trip_shard
        )
    }
}

impl RecoverableApp for TincaKvApp {
    fn run_to_trip(&mut self) -> bool {
        let Some(db) = self.db.as_mut() else {
            return false;
        };
        let devices = db.store().devices().to_vec();
        let (crashed, bug) = run_plan(
            db,
            &devices,
            &self.plan,
            &mut self.committed,
            &mut self.committed_count,
        );
        if let Some(b) = bug {
            self.fail = Some(b);
            return true;
        }
        crashed
    }

    fn crash_recover(&mut self) -> Result<(), String> {
        if let Some(f) = self.fail.take() {
            return Err(self.tag(f));
        }
        let Some(db) = self.db.take() else {
            return Err("no live db at crash".into());
        };
        let (devices, disk, clock, cfg) = db.into_store().into_parts();
        Cut::of(self.mode, self.seed ^ 0xD1CE).apply(&devices);
        let store = TincaStore::recover(devices, disk, clock, cfg)
            .map_err(|e| self.tag(format!("pool recovery failed: {e}")))?;
        let db = Db::open(store).map_err(|e| self.tag(format!("db reopen failed: {e}")))?;
        self.db = Some(db);
        Ok(())
    }

    fn verify(&mut self) -> Result<(), String> {
        let prefix = format!(
            "tinca seed {} trip {}@shard{}",
            self.seed, self.trip, self.trip_shard
        );
        let Some(db) = self.db.as_mut() else {
            return Err("no live db at verify".into());
        };
        db.store()
            .pool()
            .check_consistency()
            .map_err(|e| format!("{prefix}: inconsistent internals: {e}"))?;

        // Per-shard and merged persist-order cleanliness (the merged view
        // audits the spanning intent publish/resolve/retire stores too).
        audit(db.store().devices(), &self.metadata_ranges).map_err(|e| format!("{prefix}: {e}"))?;

        let staged = if self.committed_count < self.plan.len() {
            self.plan[self.committed_count].writes.clone()
        } else {
            Vec::new()
        };
        self.rolled_forward =
            check_kv_state(db, &self.committed, &staged).map_err(|e| format!("{prefix}: {e}"))?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Campaigns
// ---------------------------------------------------------------------------

fn app_or_violation<A: RecoverableApp>(app: Result<A, String>) -> AppOutcome {
    match app {
        Ok(mut a) => run_recoverable(&mut a),
        Err(e) => AppOutcome::Violation(e),
    }
}

/// Random trip sweep over the WAL personality.
pub fn wal_kv_fuzz_campaign(
    base_seed: u64,
    runs: u64,
    txns: usize,
    trip_max: u64,
    mode: FailureMode,
) -> CampaignReport {
    campaign(runs, false, |i, _| {
        app_or_violation(WalKvApp::new(base_seed + i, txns, trip_max, mode))
    })
}

/// Random trip sweep over the Tinca personality.
pub fn tinca_kv_fuzz_campaign(
    base_seed: u64,
    runs: u64,
    txns: usize,
    trip_max: u64,
    mode: FailureMode,
) -> CampaignReport {
    campaign(runs, false, |i, _| {
        app_or_violation(TincaKvApp::new(base_seed + i, txns, trip_max, mode))
    })
}

// ---------------------------------------------------------------------------
// Frontier enumeration
// ---------------------------------------------------------------------------

/// Bounded exhaustive frontier enumeration for the WAL personality: a
/// probe run harvests the single device's fence epochs; every reachable
/// persist frontier of every workload epoch is materialised, the stack
/// remounted, the WAL replayed, and the KV oracle checked.
pub fn wal_kv_frontier_campaign(seed: u64, txns: usize, cap_per_epoch: usize) -> FrontierReport {
    quiet_crash_panics();
    let mut report = FrontierReport {
        cap_per_epoch: cap_per_epoch.max(2),
        ..FrontierReport::default()
    };
    let wal_cfg = WalConfig {
        checkpoint_bytes: 96 << 10,
        page_capacity: 4096,
        traced: true,
    };
    let plan = plan_txns(seed, txns);

    // Probe: full run, no trip.
    let (epochs, start) = {
        let store = match WalStore::tiny(wal_cfg) {
            Ok(s) => s,
            Err(e) => {
                report.violations.push(format!("probe setup: {e}"));
                return report;
            }
        };
        telemetry::swap_clock(&store.stack().clock);
        let mut db = match Db::open(store) {
            Ok(d) => d,
            Err(e) => {
                report.violations.push(format!("probe format: {e}"));
                return report;
            }
        };
        let start = db.store().stack().nvm.events();
        for txn in &plan {
            if let Err(e) = apply_txn(&mut db, txn) {
                report.violations.push(format!("probe run failed: {e}"));
                return report;
            }
        }
        (
            epochs_from_trace(&db.store().stack().nvm.take_trace()),
            start,
        )
    };

    frontier_enumerate(
        seed,
        cap_per_epoch,
        &[epochs],
        &[start],
        None,
        |_, rel_trip, keep| run_wal_state(&plan, wal_cfg, rel_trip, keep),
    )
}

fn run_wal_state(
    plan: &[KvTxn],
    wal_cfg: WalConfig,
    rel_trip: u64,
    keep: &[usize],
) -> Result<(), String> {
    let store = WalStore::tiny(wal_cfg).map_err(|e| format!("setup: {e}"))?;
    telemetry::swap_clock(&store.stack().clock);
    let metadata_ranges = store.stack().fs.backend().metadata_ranges();
    let mut db = Db::open(store).map_err(|e| format!("format: {e}"))?;
    let mut committed = BTreeMap::new();
    let mut committed_count = 0usize;
    let devices = [db.store().stack().nvm.clone()];
    devices[0].set_trip(Some(rel_trip));
    let (crashed, bug) = run_plan(
        &mut db,
        &devices,
        plan,
        &mut committed,
        &mut committed_count,
    );
    if let Some(b) = bug {
        return Err(b);
    }
    if !crashed {
        return Err("trip did not fire on replay (workload not deterministic?)".into());
    }
    let stack = db.into_store().into_stack();
    let cfg = stack.config.clone();
    let (nvm, disk, clock) = (stack.nvm, stack.disk, stack.clock);
    drop(stack.fs);
    Cut::Frontier { dev: 0, keep }.apply(from_ref(&nvm));
    let rebooted = remount(&cfg, nvm, disk, clock).map_err(|e| format!("remount failed: {e}"))?;
    let store =
        WalStore::mount(rebooted, wal_cfg).map_err(|e| format!("WAL recovery failed: {e}"))?;
    let mut db = Db::open(store).map_err(|e| format!("db reopen failed: {e}"))?;

    audit(
        from_ref(&db.store().stack().nvm),
        from_ref(&metadata_ranges),
    )?;
    let staged = if committed_count < plan.len() {
        plan[committed_count].writes.clone()
    } else {
        Vec::new()
    };
    check_kv_state(&mut db, &committed, &staged).map(|_| ())
}

/// Frontier enumeration for the Tinca personality: epochs are harvested
/// and enumerated on **every** shard device in turn — the commit-ring
/// writes, the spanning intent record on shard 0, and the second
/// fragment's ring on shard 1 all get their frontiers crashed.
pub fn tinca_kv_frontier_campaign(seed: u64, txns: usize, cap_per_epoch: usize) -> FrontierReport {
    quiet_crash_panics();
    let mut report = FrontierReport {
        cap_per_epoch: cap_per_epoch.max(2),
        ..FrontierReport::default()
    };
    let cfg = TincaStoreConfig {
        shards: SHARDS,
        nvm_bytes_per_shard: 256 << 10,
        disk_blocks: 1 << 16,
        ring_bytes: 4096,
        traced: true,
    };
    let plan = plan_txns(seed, txns);

    // Probe: full run, no trip, harvest every device's epochs.
    let (epochs_per_dev, starts) = {
        let store = TincaStore::format(cfg.clone());
        telemetry::swap_clock(store.clock());
        let mut db = match Db::open(store) {
            Ok(d) => d,
            Err(e) => {
                report.violations.push(format!("probe format: {e}"));
                return report;
            }
        };
        let starts: Vec<u64> = db.store().devices().iter().map(|d| d.events()).collect();
        for txn in &plan {
            if let Err(e) = apply_txn(&mut db, txn) {
                report.violations.push(format!("probe run failed: {e}"));
                return report;
            }
        }
        let epochs: Vec<_> = db
            .store()
            .devices()
            .iter()
            .map(|d| epochs_from_trace(&d.take_trace()))
            .collect();
        (epochs, starts)
    };

    frontier_enumerate(
        seed,
        cap_per_epoch,
        &epochs_per_dev,
        &starts,
        Some("shard"),
        |s, rel_trip, keep| run_tinca_state(&cfg, &plan, s, rel_trip, keep),
    )
}

fn run_tinca_state(
    cfg: &TincaStoreConfig,
    plan: &[KvTxn],
    trip_shard: usize,
    rel_trip: u64,
    keep: &[usize],
) -> Result<(), String> {
    let store = TincaStore::format(cfg.clone());
    telemetry::swap_clock(store.clock());
    let metadata_ranges: Vec<_> = (0..cfg.shards)
        .map(|s| store.pool().shard_metadata_ranges(s))
        .collect();
    let mut db = Db::open(store).map_err(|e| format!("format: {e}"))?;
    let mut committed = BTreeMap::new();
    let mut committed_count = 0usize;
    let devices = db.store().devices().to_vec();
    devices[trip_shard].set_trip(Some(rel_trip));
    let (crashed, bug) = run_plan(
        &mut db,
        &devices,
        plan,
        &mut committed,
        &mut committed_count,
    );
    if let Some(b) = bug {
        return Err(b);
    }
    if !crashed {
        return Err("trip did not fire on replay (stream not deterministic?)".into());
    }
    let (devices, disk, clock, cfg) = db.into_store().into_parts();
    Cut::Frontier {
        dev: trip_shard,
        keep,
    }
    .apply(&devices);
    let store = TincaStore::recover(devices, disk, clock, cfg)
        .map_err(|e| format!("pool recovery failed: {e}"))?;
    let mut db = Db::open(store).map_err(|e| format!("db reopen failed: {e}"))?;

    db.store()
        .pool()
        .check_consistency()
        .map_err(|e| format!("inconsistent internals: {e}"))?;
    audit(db.store().devices(), &metadata_ranges)?;
    let staged = if committed_count < plan.len() {
        plan[committed_count].writes.clone()
    } else {
        Vec::new()
    };
    check_kv_state(&mut db, &committed, &staged).map(|_| ())
}
