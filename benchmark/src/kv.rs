//! `kv_tpcc`: one closed-loop client driving `kvdb::Db` over a `TincaStore`
//! (default config: 2 shards × 2 MB) with the product's TPC-C record stream.
//! The only workload where the B-tree, its page cache and the pool's
//! two-phase spanning commit carry the cost.
//!
//! The simulated time of a transaction is the sum of the deltas of every
//! clock of the store (both shards' NVM clocks and the disk clock): what one
//! serial client waits for.

use std::collections::BTreeMap;
use std::time::Instant;

use blockdev::BlockDevice;
use kvdb::{apply_txn, Db, KvTpccDriver, KvTxn, TincaStore, TincaStoreConfig};
use nvmsim::{CrashPolicy, NvmStats};

use crate::decor::ProbedStore;
use crate::metrics::{Metrics, Outcome};
use crate::run::{
    cache_metrics, device_metrics, finish_traced, latency_metrics, Ctx, Mode, Rep, Trace, Verify,
    Workload,
};
use crate::spans;
use crate::traced::NvmAudit;
use crate::util::ratio;

const WAREHOUSES: u32 = 4;
/// Transactions between two drains of the NVM trace in the traced run.
const DRAIN_EVERY: usize = 256;

pub struct KvTpcc;

/// One pass: format, warm up, run `n` measured transactions.
struct Pass {
    setup_s: f64,
    host_ns: u64,
    /// Simulated ns of the measured phase (sum of per-txn latencies).
    sim_ns: u64,
    read_latency: Vec<u64>,
    write_latency: Vec<u64>,
    failed: u64,
    user_bytes: u64,
    nvm: NvmStats,
    disk: blockdev::DiskStats,
    cache: tinca::CacheStats,
    store: crate::decor::StoreProbe,
    trace: Trace,
    verify: Option<Verify>,
}

fn nvm_stats(store: &TincaStore) -> NvmStats {
    store
        .devices()
        .iter()
        .fold(NvmStats::default(), |acc, d| acc.merge(&d.stats()))
}

fn warmup(ctx: &Ctx) -> usize {
    ctx.size(5_000, 50) as usize
}

impl KvTpcc {
    fn measured(ctx: &Ctx) -> usize {
        ctx.size(45_000, 200) as usize
    }

    fn pass(ctx: &Ctx, n: usize, mode: &Mode) -> Pass {
        let t_setup = Instant::now();
        let warm = warmup(ctx);
        let cfg = TincaStoreConfig {
            traced: mode.traced,
            ..TincaStoreConfig::default()
        };
        let store = ProbedStore::new(TincaStore::format(cfg), mode.timed);
        let mut db = Db::open(store).expect("open a freshly formatted store");
        let mut driver = KvTpccDriver::new(ctx.seed, WAREHOUSES);
        let txns: Vec<KvTxn> = (0..warm + n).map(|_| driver.next_txn()).collect();
        let mut failed = 0u64;
        for (i, txn) in txns[..warm].iter().enumerate() {
            if mode.traced && i % DRAIN_EVERY == 0 {
                NvmAudit::discard(db.store().inner.devices());
            }
            failed += u64::from(apply_txn(&mut db, txn).is_err());
        }
        let mut audit = mode.traced.then(|| {
            NvmAudit::discard(db.store().inner.devices());
            NvmAudit::new(db.store().inner.devices())
        });
        let nvm0 = nvm_stats(&db.store().inner);
        let disk0 = db.store().inner.disk().stats();
        let cache0 = db.store().inner.pool().stats();
        let store0 = db.store().probe;
        let setup_s = t_setup.elapsed().as_secs_f64();

        let mut read_latency = Vec::with_capacity(n / 8);
        let mut write_latency = Vec::with_capacity(n);
        let mut run = |db: &mut Db<ProbedStore>| {
            let mut host_ns = 0u64;
            for (i, txn) in txns[warm..].iter().enumerate() {
                if i % DRAIN_EVERY == 0 {
                    if let Some(audit) = &mut audit {
                        audit.drain(db.store().inner.devices());
                    }
                }
                let t = Instant::now();
                let sim0 = db.store().sim_now();
                let ok = {
                    let _op = spans::enter("workloads", "op");
                    let _call = spans::enter("kvdb", "apply_txn");
                    apply_txn(db, txn).is_ok()
                };
                let sim = db.store().sim_now() - sim0;
                host_ns += t.elapsed().as_nanos() as u64;
                if !ok {
                    failed += 1;
                } else if txn.writes.is_empty() {
                    read_latency.push(sim);
                } else {
                    write_latency.push(sim);
                }
            }
            host_ns
        };
        let (host_ns, telemetry, trace) = if mode.traced {
            spans::start(db.store().clocks.clone());
            // Shard 0 homes the meta page, so its clock moves on every
            // commit; the product's phase tree reads that one clock.
            let clock = db.store().clocks[0].clone();
            let (host_ns, report) =
                telemetry::record(&clock, telemetry::Config::default(), || run(&mut db));
            (host_ns, Some(report), spans::finish())
        } else {
            (run(&mut db), None, Vec::new())
        };
        if let Some(audit) = &mut audit {
            audit.drain(db.store().inner.devices());
        }

        let inner = &db.store().inner;
        let mut p = Pass {
            setup_s,
            host_ns,
            sim_ns: read_latency.iter().chain(&write_latency).sum(),
            read_latency,
            write_latency,
            failed,
            user_bytes: txns[warm..]
                .iter()
                .flat_map(|t| &t.writes)
                .map(|(k, v)| (k.len() + v.len()) as u64)
                .sum(),
            nvm: nvm_stats(inner).delta(&nvm0),
            disk: inner.disk().stats().delta(&disk0),
            cache: inner.pool().stats().delta(&cache0),
            store: db.store().probe.since(&store0),
            trace: Trace {
                spans: trace,
                telemetry,
                audit,
            },
            verify: None,
        };
        if mode.verify {
            p.verify = Some(crash_and_verify(db, ctx.seed, &txns));
        }
        p
    }

    fn sim_of(p: &Pass) -> Metrics {
        let mut m = Metrics::default();
        let txns = (p.read_latency.len() + p.write_latency.len()) as f64;
        device_metrics(
            &mut m,
            &p.nvm,
            &p.disk,
            p.write_latency.len() as u64,
            p.user_bytes,
        );
        latency_metrics(&mut m, p.read_latency.clone(), p.write_latency.clone());
        m.set("sim_ops_per_s", ratio(txns * 1e9, p.sim_ns as f64));
        m
    }
}

/// Crashes both shards with the cache dirty, recovers the store, reopens
/// the database, validates the tree and reads every committed key back.
fn crash_and_verify(db: Db<ProbedStore>, seed: u64, txns: &[KvTxn]) -> Verify {
    let mut model: BTreeMap<&[u8], &[u8]> = BTreeMap::new();
    for (k, v) in txns.iter().flat_map(|t| &t.writes) {
        model.insert(k, v);
    }
    let store = db.into_store();
    for d in store.inner.devices() {
        d.crash(CrashPolicy::Random(seed));
    }
    let clocks = store.clocks.clone();
    let sim_now = || clocks.iter().map(nvmsim::SimClock::now_ns).sum::<u64>();
    let (devices, disk, clock, cfg) = store.inner.into_parts();
    let sim0 = sim_now();
    let t = Instant::now();
    let reopened = TincaStore::recover(devices, disk, clock, cfg)
        .ok()
        .and_then(|s| Db::open(ProbedStore::new(s, false)).ok());
    let recover_host_ns = t.elapsed().as_nanos() as u64;
    let recover_sim_ns = sim_now() - sim0;
    let Some(mut db) = reopened else {
        return Verify {
            lost: model.len() as u64,
            ..Verify::default()
        };
    };
    let pool = db.store().inner.pool();
    let revoked_blocks = pool.stats().revoked_blocks;
    let consistent = pool.check_consistency().is_ok() && db.validate().is_ok();
    let lost = model
        .iter()
        .filter(|(k, v)| !matches!(db.get(k), Ok(Some(got)) if got == **v))
        .count() as u64;
    Verify {
        recover_sim_ns,
        recover_host_ns,
        revoked_blocks,
        lost,
        consistent,
    }
}

impl Workload for KvTpcc {
    fn name(&self) -> &'static str {
        "kv_tpcc"
    }

    fn load_fingerprint(&self, seed: u64, ops: u64) -> u64 {
        crate::load::tpcc(seed, WAREHOUSES, ops)
    }

    fn predictions(&self, m: &Metrics) -> Vec<(&'static str, bool)> {
        vec![(
            "kvdb.spanning_commit_share>0.5",
            m.get("kvdb.spanning_commit_share") > 0.5,
        )]
    }

    fn rep(&self, ctx: &Ctx, verify: bool) -> Rep {
        let n = Self::measured(ctx);
        let p = Self::pass(
            ctx,
            n,
            &Mode {
                timed: false,
                traced: false,
                verify,
            },
        );
        Rep {
            setup_s: p.setup_s,
            host_wall_s: p.host_ns as f64 / 1e9,
            sim: Self::sim_of(&p),
            attempted: n as u64,
            failed: p.failed,
            verify: p.verify,
        }
    }

    fn traced(&self, ctx: &Ctx) -> Outcome {
        let mut out = Outcome::default();
        let n = Self::measured(ctx);
        let mode = |traced, verify| Mode {
            timed: true,
            traced,
            verify,
        };
        let p = Self::pass(ctx, n, &mode(false, true));
        let verify = p.verify.unwrap_or_default();
        let txns = (n as u64 - p.failed) as f64;
        let commits = p.store.commits as f64;
        let m = &mut out.metrics;
        m.0.extend(Self::sim_of(&p).0);
        m.set(
            "kvdb.pages_per_commit",
            ratio(p.store.pages as f64, commits),
        );
        m.set("kvdb.page_reads_per_txn", ratio(p.store.reads as f64, txns));
        m.set(
            "kvdb.spanning_commit_share",
            ratio(p.cache.spanning_commits as f64, commits),
        );
        m.set(
            "kvdb.store_commit_sim_ns_per_txn",
            ratio(p.store.commit_sim_ns as f64, txns),
        );
        m.set(
            "kvdb.self_host_ns_per_txn",
            ratio(p.host_ns.saturating_sub(p.store.host_ns) as f64, txns),
        );
        m.set(
            "core.commit_sim_ns_per_txn",
            ratio(p.store.commit_sim_ns as f64, commits),
        );
        m.set(
            "core.commit_host_ns_per_txn",
            ratio(p.store.host_ns as f64, commits),
        );
        cache_metrics(m, &p.cache, p.nvm.clflush, n as u64);
        m.set("core.recover_host_ms", verify.recover_host_ns as f64 / 1e6);
        m.set(
            "core.revoked_blocks_on_recover",
            verify.revoked_blocks as f64,
        );
        m.set(
            "blockdev.fg_busy_share",
            ratio(p.disk.busy_ns as f64, p.sim_ns as f64),
        );

        let small = ctx.size(n as u64 / 10, 60) as usize;
        let plain = Self::pass(ctx, small, &mode(false, false));
        let traced = Self::pass(ctx, small, &mode(true, false));
        let clean = finish_traced(
            &mut out,
            "kv_tpcc",
            (plain.host_ns, plain.sim_ns),
            (traced.host_ns, traced.sim_ns),
            traced.trace,
            traced.store.commits,
            small as u64,
        );

        out.attempted = n as u64;
        out.failed = p.failed + verify.lost;
        out.correct = verify.consistent && out.failed == 0 && clean;
        out
    }
}
