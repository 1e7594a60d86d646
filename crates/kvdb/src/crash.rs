//! Crash campaigns for both kvdb durability personalities.
//!
//! Each personality runs as one [`KvApp`], a [`Crashable`] on crashsim's
//! engine: a seeded TPC-C KV plan runs with a crash trip armed on an NVM
//! device, the power is pulled mid-commit, the store recovers (WAL replay
//! for [`WalStore`], ring recovery — spanning two-phase included — for
//! [`TincaStore`]), and the recovered database is verified: the store's
//! internals, the persist-order analyzer over every NVM event trace (per
//! shard *and* merged, for the pool-backed store), then [`judge`]: the
//! B-tree's invariants, and the engine's [`Oracle`] over every record —
//! the acknowledged transactions, and the one in flight all or nothing
//! across every page and shard its commit touched.
//!
//! A campaign is one [`KvPlan`], run by the engine's [`sweep`] (random
//! trips) or [`frontier`] (a probe run harvests every fence epoch, and each
//! reachable persist frontier is materialised, recovered, and verified).
//! What differs between the personalities is one [`Personality`];
//! [`CAMPAIGNS`] names the instances the pins, CI and figures run.

use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::ops::Range;
use std::slice::from_ref;

use crashsim::engine::{audit, frontier, sweep, Crashable, Cut, Oracle, Plan, Trip};
use crashsim::{internals, remount, Campaign, Check, FailureMode, Finding};
use nvmsim::Nvm;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use FailureMode::{PowerPull, ProcessKill};

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
    /// Names the personality's campaigns in violations.
    const NAME: &'static str;
    /// A freshly formatted, traced store of the campaigns' size, its clock
    /// the telemetry clock.
    fn fresh() -> Result<Self, Finding>;
    /// The store's traced NVM devices, in shard order.
    fn devices(&self) -> &[Nvm];
    /// Each device's metadata ranges, for the persist-order audit.
    fn metadata_ranges(&self) -> Vec<Vec<Range<usize>>>;
    /// Fails the power per `cut` and recovers the store from what its
    /// devices hold.
    fn crash_recover(self, cut: Cut<'_>) -> Result<Self, Finding>;
    /// The store's internal invariants.
    fn check(&mut self) -> Result<(), Finding>;
    /// Whether a further recovery of a recovered store leaves its images
    /// byte-identical and stores nothing but its commit records (the
    /// crash engine's fixpoint check, `Crashable::stable_recovery`).
    const FIXPOINT: bool = true;
}

/// The classic ARIES-lite WAL over the Ext4+JBD2 stack, on one NVM device.
impl Personality for WalStore {
    const NAME: &'static str = "kv-wal";
    /// Recovery checkpoints the WAL through `fsync`, which JBD2 journals
    /// but does not checkpoint, so the next mount replays recovery's own
    /// journal transactions through the Classic cache, which changes its
    /// image.
    const FIXPOINT: bool = false;

    fn fresh() -> Result<WalStore, Finding> {
        let store = WalStore::tiny(WAL_CFG).map_err(|e| Check::Workload.found(e))?;
        telemetry::swap_clock(&store.stack().clock);
        Ok(store)
    }

    fn devices(&self) -> &[Nvm] {
        from_ref(&self.stack().nvm)
    }

    fn metadata_ranges(&self) -> Vec<Vec<Range<usize>>> {
        vec![self.stack().fs.backend().metadata_ranges()]
    }

    fn crash_recover(self, cut: Cut<'_>) -> Result<WalStore, Finding> {
        WalStore::mount(remount(self.into_stack(), cut)?, WAL_CFG)
            .map_err(|e| Check::Recovery.found(format_args!("WAL replay: {e}")))
    }

    fn check(&mut self) -> Result<(), Finding> {
        internals(&mut self.stack_mut().fs)
    }
}

/// No WAL: a two-shard Tinca pool, every commit one pool transaction.
impl Personality for TincaStore {
    const NAME: &'static str = "kv-tinca";

    fn fresh() -> Result<TincaStore, Finding> {
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

    fn crash_recover(self, cut: Cut<'_>) -> Result<TincaStore, Finding> {
        let (devices, disk, clock, cfg) = self.into_parts();
        cut.apply(&devices);
        TincaStore::recover(devices, disk, clock, cfg).map_err(|e| Check::Recovery.found(e))
    }

    fn check(&mut self) -> Result<(), Finding> {
        self.pool()
            .check_consistency()
            .map_err(|e| Check::Internals.found(e))
    }
}

/// A kvdb crash application: one seeded TPC-C KV plan on a fresh `S`,
/// and the oracle over its records.
pub struct KvApp<S: Personality> {
    db: Option<Db<S>>,
    devices: Vec<Nvm>,
    metadata: Vec<Vec<Range<usize>>>,
    plan: Vec<KvTxn>,
    oracle: Oracle<Vec<u8>, Vec<u8>>,
}

impl<S: Personality> KvApp<S> {
    /// Formats the store and rolls the first `txns` transactions of
    /// `seed`'s plan.
    pub fn new(seed: u64, txns: usize) -> Result<KvApp<S>, Finding> {
        let store = S::fresh()?;
        let (devices, metadata) = (store.devices().to_vec(), store.metadata_ranges());
        let db =
            Db::open(store).map_err(|e| Check::Workload.found(format_args!("db format: {e}")))?;
        let mut driver = KvTpccDriver::new(seed ^ 0x5EED, WAREHOUSES);
        Ok(KvApp {
            db: Some(db),
            devices,
            metadata,
            plan: (0..txns).map(|_| driver.next_txn()).collect(),
            oracle: Oracle::default(),
        })
    }

    /// The live database: the workload's before the crash, the recovered
    /// one after it.
    pub fn db(&self) -> Option<&Db<S>> {
        self.db.as_ref()
    }

    /// What the drive told the oracle: the records of the transactions
    /// acknowledged before the trip fired, and the one in flight.
    pub fn oracle(&self) -> &Oracle<Vec<u8>, Vec<u8>> {
        &self.oracle
    }
}

impl<S: Personality> Crashable for KvApp<S> {
    fn devices(&self) -> &[Nvm] {
        &self.devices
    }

    fn drive(&mut self) -> Result<(), Finding> {
        let Some(db) = self.db.as_mut() else {
            return Err(Check::Workload.found("no live db"));
        };
        for txn in &self.plan {
            self.oracle.begin(txn.writes.iter().cloned());
            apply_txn(db, txn).map_err(|e| Check::Workload.found(e))?;
            self.oracle.commit();
        }
        Ok(())
    }

    fn recover(&mut self, cut: Cut<'_>) -> Result<(), Finding> {
        let Some(db) = self.db.take() else {
            return Err(Check::Recovery.found("no live db at the crash"));
        };
        let store = db.into_store().crash_recover(cut)?;
        let db =
            Db::open(store).map_err(|e| Check::Recovery.found(format_args!("db reopen: {e}")))?;
        self.db = Some(db);
        Ok(())
    }

    fn verify(&mut self) -> Result<Vec<bool>, Finding> {
        let Some(db) = self.db.as_mut() else {
            return Err(Check::Recovery.found("no recovered db"));
        };
        db.store_mut().check()?;
        // Per-shard and merged persist-order cleanliness of the whole
        // trace: format, workload, crash, recovery.
        audit(&self.devices, &self.metadata).verdict()?;
        judge(db, &self.oracle)
    }

    fn stable_recovery(&self) -> bool {
        S::FIXPOINT
    }
}

/// kvdb's verdict on a database: its B-tree's structural invariants
/// ([`Check::Internals`]), then `oracle` over every record it holds.
pub fn judge<S: PageStore>(
    db: &mut Db<S>,
    oracle: &Oracle<Vec<u8>, Vec<u8>>,
) -> Result<Vec<bool>, Finding> {
    db.validate().map_err(|e| Check::Internals.found(e))?;
    let records: BTreeMap<Vec<u8>, Vec<u8>> = db
        .scan_all()
        .map_err(|e| Check::Oracle.found(format_args!("scan: {e}")))?
        .into_iter()
        .collect();
    oracle.judge(
        records.keys().cloned(),
        |k, want| Ok(records.get(k) == want),
    )
}

/// A TPC-C KV campaign over personality `S`: `txns` transactions per
/// seeded plan; seed `s` trips shard `s mod shards` at an event drawn from
/// `1..trip_max` and fails per `mode`.
#[derive(Debug)]
pub struct KvPlan<S> {
    pub txns: usize,
    pub trip_max: u64,
    pub mode: FailureMode,
    store: PhantomData<fn() -> S>,
}

impl<S> KvPlan<S> {
    pub const fn new(txns: usize, trip_max: u64, mode: FailureMode) -> KvPlan<S> {
        KvPlan {
            txns,
            trip_max,
            mode,
            store: PhantomData,
        }
    }
}

impl<S: Personality> Plan for KvPlan<S> {
    type App = KvApp<S>;
    const NAME: &'static str = S::NAME;

    fn build(&self, seed: u64) -> Result<(KvApp<S>, Trip, Cut<'static>), Finding> {
        let at = StdRng::seed_from_u64(seed).gen_range(1..self.trip_max.max(2));
        let app = KvApp::<S>::new(seed, self.txns)?;
        let trip = Trip {
            dev: (seed % app.devices.len() as u64) as usize,
            at,
        };
        Ok((app, trip, Cut::of(self.mode, seed ^ 0xD1CE)))
    }
}

/// Transactions per seeded plan of the pinned campaigns.
pub const TXNS: usize = 15;
/// Trip ranges sized from measured event rates (~1430 events/txn for the
/// WAL stack; a 15-transaction run on `TincaStore`'s pool emits 398
/// events per shard after the format in the median and 888 at most over
/// the 200-seed sweep's plans), so trips land
/// mid-workload for most seeds while some seeds run to completion. A
/// change that moves a stack's event count moves its range with it, or
/// fewer seeds crash.
const WAL_TRIP_MAX: u64 = 20_000;
const TINCA_TRIP_MAX: u64 = 1_000;

/// Every kvdb campaign instance a pin, CI or a figure runs, with the seed
/// sizes whose exact tallies the workspace's `tests/pinned_campaigns.rs`
/// asserts. The frontier entries enumerate shorter plans: every reachable persist
/// frontier of every workload epoch — on **every** shard device in turn
/// for the Tinca personality, so the commit-ring writes, the spanning
/// intent record on shard 0 and the second fragment's ring on shard 1 all
/// get their frontiers crashed.
#[rustfmt::skip]
pub const CAMPAIGNS: &[Campaign] = &[
    Campaign { name: "kv-wal-pull",       run: |s| sweep(&KvPlan::<WalStore>::new(TXNS, WAL_TRIP_MAX, PowerPull), s),       base: 0x11A0, tier1: 6, ci: 200 },
    Campaign { name: "kv-wal-kill",       run: |s| sweep(&KvPlan::<WalStore>::new(TXNS, WAL_TRIP_MAX, ProcessKill), s),     base: 0x11B0, tier1: 4, ci: 200 },
    Campaign { name: "kv-tinca-pull",     run: |s| sweep(&KvPlan::<TincaStore>::new(TXNS, TINCA_TRIP_MAX, PowerPull), s),   base: 0x22A0, tier1: 12, ci: 200 },
    Campaign { name: "kv-tinca-kill",     run: |s| sweep(&KvPlan::<TincaStore>::new(TXNS, TINCA_TRIP_MAX, ProcessKill), s), base: 0x22B0, tier1: 8, ci: 200 },
    Campaign { name: "kv-wal-frontier",   run: |s| frontier(&KvPlan::<WalStore>::new(1, 0, PowerPull), s, 2),               base: 0x33A0, tier1: 1, ci: 4 },
    Campaign { name: "kv-tinca-frontier", run: |s| frontier(&KvPlan::<TincaStore>::new(2, 0, PowerPull), s, 4),             base: 0x44A0, tier1: 1, ci: 4 },
];
