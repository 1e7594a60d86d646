//! Crash campaigns for both kvdb durability personalities.
//!
//! Each personality runs as one [`KvApp`], a [`Crashable`] on crashsim's
//! engine: a seeded TPC-C KV plan runs with a crash trip armed on an NVM
//! device, the power is pulled mid-commit, the store recovers (WAL replay
//! for [`WalStore`], ring recovery — spanning two-phase included — for
//! [`TincaStore`]), and the recovered database is verified against a
//! committed-KV oracle:
//!
//! * the store's internals hold, and B-tree structural invariants hold
//!   ([`Db::validate`]);
//! * every NVM event trace passes the persist-order analyzer (per shard
//!   *and* merged, for the pool-backed store);
//! * the full contents equal the committed map, or the committed map
//!   plus the in-flight transaction's writes — all-or-nothing at the KV
//!   transaction level, across every page and shard the commit touched.
//!
//! The random trip sweeps run on the engine's [`run_one`]; both
//! personalities also get a bounded exhaustive frontier campaign through
//! its [`frontier`]: a probe run harvests every fence epoch, and each
//! reachable persist frontier is materialised, recovered, and verified.
//! What differs between the personalities is one [`Personality`].

use std::collections::BTreeMap;
use std::ops::Range;
use std::slice::from_ref;

use crashsim::engine::{audit, frontier, run_one, Crashable, Cut, Trip};
use crashsim::{campaign, AppOutcome, CampaignReport, FailureMode, FrontierReport};
use fssim::stack::remount;
use nvmsim::Nvm;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::db::Db;
use crate::driver::{apply_txn, KvTpccDriver, KvTxn};
use crate::store::PageStore;
use crate::tincastore::{TincaStore, TincaStoreConfig};
use crate::wal::{WalConfig, WalStore};

/// Warehouses in the crash-campaign TPC-C plans (small, so row conflicts
/// and page rewrites are frequent).
const WAREHOUSES: u32 = 2;

/// The WAL personality's store under test.
const WAL_CFG: WalConfig = WalConfig {
    checkpoint_bytes: 96 << 10,
    page_capacity: 4096,
    traced: true,
};

/// What the crash campaigns need of a durability personality.
pub trait Personality: PageStore + Sized {
    /// Names the personality in violations.
    const NAME: &'static str;
    /// A freshly formatted, traced store of the campaigns' size, its clock
    /// the telemetry clock.
    fn fresh() -> Result<Self, String>;
    /// The store's traced NVM devices, in shard order.
    fn devices(&self) -> &[Nvm];
    /// Each device's metadata ranges, for the persist-order audit.
    fn metadata_ranges(&self) -> Vec<Vec<Range<usize>>>;
    /// Fails the power per `cut` and recovers the store from what its
    /// devices hold.
    fn crash_recover(self, cut: Cut<'_>) -> Result<Self, String>;
    /// The store's internal invariants.
    fn check(&mut self) -> Result<(), String>;
}

/// The classic ARIES-lite WAL over the Ext4+JBD2 stack, on one NVM device.
impl Personality for WalStore {
    const NAME: &'static str = "wal";

    fn fresh() -> Result<WalStore, String> {
        let store = WalStore::tiny(WAL_CFG).map_err(|e| format!("wal setup: {e}"))?;
        telemetry::swap_clock(&store.stack().clock);
        Ok(store)
    }

    fn devices(&self) -> &[Nvm] {
        from_ref(&self.stack().nvm)
    }

    fn metadata_ranges(&self) -> Vec<Vec<Range<usize>>> {
        vec![self.stack().fs.backend().metadata_ranges()]
    }

    fn crash_recover(self, cut: Cut<'_>) -> Result<WalStore, String> {
        let stack = self.into_stack();
        let (cfg, nvm, disk, clock) = (stack.config.clone(), stack.nvm, stack.disk, stack.clock);
        drop(stack.fs);
        cut.apply(from_ref(&nvm));
        let rebooted =
            remount(&cfg, nvm, disk, clock).map_err(|e| format!("remount failed: {e}"))?;
        WalStore::mount(rebooted, WAL_CFG).map_err(|e| format!("WAL recovery failed: {e}"))
    }

    fn check(&mut self) -> Result<(), String> {
        let fs = &mut self.stack_mut().fs;
        fs.backend()
            .check()
            .map_err(|e| format!("cache internals: {e}"))?;
        fs.check_consistency()
            .map_err(|e| format!("fs internals: {e}"))
    }
}

/// No WAL: a two-shard Tinca pool, every commit one pool transaction.
impl Personality for TincaStore {
    const NAME: &'static str = "tinca";

    fn fresh() -> Result<TincaStore, String> {
        let store = TincaStore::format(TincaStoreConfig {
            shards: 2,
            nvm_bytes_per_shard: 256 << 10,
            disk_blocks: 1 << 16,
            ring_bytes: 4096,
            traced: true,
        });
        telemetry::swap_clock(store.clock());
        Ok(store)
    }

    fn devices(&self) -> &[Nvm] {
        TincaStore::devices(self)
    }

    fn metadata_ranges(&self) -> Vec<Vec<Range<usize>>> {
        (0..self.devices().len())
            .map(|s| self.pool().shard_metadata_ranges(s))
            .collect()
    }

    fn crash_recover(self, cut: Cut<'_>) -> Result<TincaStore, String> {
        let (devices, disk, clock, cfg) = self.into_parts();
        cut.apply(&devices);
        TincaStore::recover(devices, disk, clock, cfg)
            .map_err(|e| format!("pool recovery failed: {e}"))
    }

    fn check(&mut self) -> Result<(), String> {
        self.pool()
            .check_consistency()
            .map_err(|e| format!("inconsistent internals: {e}"))
    }
}

/// A kvdb crash application: one seeded TPC-C KV plan on a fresh `S`,
/// and the committed-KV oracle.
pub struct KvApp<S: Personality> {
    db: Option<Db<S>>,
    devices: Vec<Nvm>,
    metadata: Vec<Vec<Range<usize>>>,
    plan: Vec<KvTxn>,
    committed: BTreeMap<Vec<u8>, Vec<u8>>,
    committed_count: usize,
    rolled_forward: bool,
}

/// The WAL personality's crash application.
pub type WalKvApp = KvApp<WalStore>;
/// The Tinca personality's crash application.
pub type TincaKvApp = KvApp<TincaStore>;

impl<S: Personality> KvApp<S> {
    /// Formats the store and rolls the first `txns` transactions of
    /// `seed`'s plan.
    pub fn new(seed: u64, txns: usize) -> Result<KvApp<S>, String> {
        let store = S::fresh()?;
        let (devices, metadata) = (store.devices().to_vec(), store.metadata_ranges());
        let db = Db::open(store).map_err(|e| format!("db format: {e}"))?;
        let mut driver = KvTpccDriver::new(seed ^ 0x5EED, WAREHOUSES);
        Ok(KvApp {
            db: Some(db),
            devices,
            metadata,
            plan: (0..txns).map(|_| driver.next_txn()).collect(),
            committed: BTreeMap::new(),
            committed_count: 0,
            rolled_forward: false,
        })
    }

    /// The live database: the workload's before the crash, the recovered
    /// one after it.
    pub fn db(&self) -> Option<&Db<S>> {
        self.db.as_ref()
    }

    /// Transactions acknowledged before the trip fired.
    pub fn committed_count(&self) -> usize {
        self.committed_count
    }

    /// Whether [`verify`](Crashable::verify) found the in-flight
    /// transaction rolled forward rather than back.
    pub fn rolled_forward(&self) -> bool {
        self.rolled_forward
    }
}

impl<S: Personality> Crashable for KvApp<S> {
    fn devices(&self) -> &[Nvm] {
        &self.devices
    }

    fn drive(&mut self) -> Result<(), String> {
        let db = self.db.as_mut().ok_or("no live db")?;
        for txn in &self.plan {
            apply_txn(db, txn).map_err(|e| format!("workload error with no crash: {e}"))?;
            self.committed.extend(txn.writes.iter().cloned());
            self.committed_count += 1;
        }
        Ok(())
    }

    fn recover(&mut self, cut: Cut<'_>) -> Result<(), String> {
        let db = self.db.take().ok_or("no live db at crash")?;
        let store = db.into_store().crash_recover(cut)?;
        self.db = Some(Db::open(store).map_err(|e| format!("db reopen failed: {e}"))?);
        Ok(())
    }

    fn verify(&mut self) -> Result<(), String> {
        let db = self.db.as_mut().ok_or("no live db")?;
        db.store_mut().check()?;
        // Per-shard and merged persist-order cleanliness of the whole
        // trace: format, workload, crash, recovery.
        audit(&self.devices, &self.metadata)?;
        let staged = self
            .plan
            .get(self.committed_count)
            .map_or(&[][..], |txn| &txn.writes);
        self.rolled_forward = check_kv_state(db, &self.committed, staged)?;
        Ok(())
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

/// Random trip sweep over personality `S`: seed `s` trips shard
/// `s mod shards` at an event drawn from `1..trip_max`.
fn kv_fuzz<S: Personality>(
    base_seed: u64,
    runs: u64,
    txns: usize,
    trip_max: u64,
    mode: FailureMode,
) -> CampaignReport {
    campaign(runs, false, |i, _| {
        let seed = base_seed + i;
        let at = StdRng::seed_from_u64(seed).gen_range(1..trip_max.max(2));
        let mut app = match KvApp::<S>::new(seed, txns) {
            Ok(app) => app,
            Err(e) => return AppOutcome::Violation(e),
        };
        let trip = Trip {
            dev: (seed % app.devices.len() as u64) as usize,
            at,
        };
        run_one(&mut app, trip, Cut::of(mode, seed ^ 0xD1CE))
            .tagged(format_args!("{} seed {seed} {trip}", S::NAME))
    })
}

/// Random trip sweep over the WAL personality.
pub fn wal_kv_fuzz_campaign(
    base_seed: u64,
    runs: u64,
    txns: usize,
    trip_max: u64,
    mode: FailureMode,
) -> CampaignReport {
    kv_fuzz::<WalStore>(base_seed, runs, txns, trip_max, mode)
}

/// Random trip sweep over the Tinca personality.
pub fn tinca_kv_fuzz_campaign(
    base_seed: u64,
    runs: u64,
    txns: usize,
    trip_max: u64,
    mode: FailureMode,
) -> CampaignReport {
    kv_fuzz::<TincaStore>(base_seed, runs, txns, trip_max, mode)
}

/// Bounded exhaustive frontier enumeration for the WAL personality: every
/// reachable persist frontier of every workload epoch of the single
/// device is materialised, the stack remounted, the WAL replayed, and the
/// KV oracle checked.
pub fn wal_kv_frontier_campaign(seed: u64, txns: usize, cap_per_epoch: usize) -> FrontierReport {
    frontier(|| WalKvApp::new(seed, txns), seed, cap_per_epoch, None)
}

/// Frontier enumeration for the Tinca personality: epochs are harvested
/// and enumerated on **every** shard device in turn — the commit-ring
/// writes, the spanning intent record on shard 0, and the second
/// fragment's ring on shard 1 all get their frontiers crashed.
pub fn tinca_kv_frontier_campaign(seed: u64, txns: usize, cap_per_epoch: usize) -> FrontierReport {
    frontier(
        || TincaKvApp::new(seed, txns),
        seed,
        cap_per_epoch,
        Some("shard"),
    )
}
