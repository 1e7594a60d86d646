//! `fs_fio_tinca` and `fs_fio_classic`: the paper's Fig. 7 point — 4 KB
//! random R/W 3/7 with `fsync` every 64 writes over one pre-allocated file,
//! 2.5 × the NVM cache — through `fssim` in the paper configuration
//! (`StackConfig::scaled_local`, destage off). One closed-loop client; both
//! systems run the same ops, which come from the benchmark's own generator.
//!
//! An `fsync` belongs to the write that triggers it, so the write tail is
//! the commit.

use std::time::Instant;

use blockdev::{BlockDevice, BLOCK_SIZE};
use fssim::stack::{build, remount, Stack, StackConfig, System};
use fssim::{CacheSnapshot, FsStats, JournalStats};
use nvmsim::{CrashPolicy, NvmConfig, NvmStats};
use workloads::openloop::write_payload;

use crate::metrics::{Metrics, Outcome};
use crate::run::{
    device_metrics, finish_traced, latency_metrics, Ctx, Mode, Rep, Trace, Verify, Workload,
};
use crate::spans;
use crate::traced::NvmAudit;
use crate::util::{percentile, ratio, sorted, SplitMix64};

const READ_PCT: u64 = 30;
const FSYNC_EVERY: u64 = 64;
const FILE_NAME: &str = "fio.dat";
/// Byte every block holds after layout, before its first measured write.
const LAYOUT_FILL: u8 = 0x66;
/// Blocks per layout write, and ops between two drains of the NVM trace.
const CHUNK: usize = 256;

pub struct Fio {
    pub name: &'static str,
    pub system: System,
}

pub const TINCA: Fio = Fio {
    name: "fs_fio_tinca",
    system: System::Tinca,
};

pub const CLASSIC: Fio = Fio {
    name: "fs_fio_classic",
    system: System::Classic,
};

#[derive(Clone, Copy)]
pub struct Op {
    pub write: bool,
    pub block: u64,
}

fn nvm_bytes(ctx: &Ctx) -> usize {
    ctx.size(32 << 20, 2 << 20) as usize
}

fn file_blocks(ctx: &Ctx) -> u64 {
    nvm_bytes(ctx) as u64 * 5 / 2 / BLOCK_SIZE as u64
}

/// The frozen fio load: same seed, same ops, on both systems.
fn generate(seed: u64, blocks: u64, n: usize) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed ^ 0xF10_F10);
    (0..n)
        .map(|_| Op {
            block: rng.below(blocks),
            write: rng.below(100) >= READ_PCT,
        })
        .collect()
}

struct Pass {
    setup_s: f64,
    host_ns: u64,
    op_host_ns: u64,
    sim_ns: u64,
    read_latency: Vec<u64>,
    write_latency: Vec<u64>,
    fsync_latency: Vec<u64>,
    failed: u64,
    nvm: NvmStats,
    disk: blockdev::DiskStats,
    fs: FsStats,
    journal: JournalStats,
    cache: CacheSnapshot,
    trace: Trace,
    verify: Option<Verify>,
}

fn journal_delta(now: Option<JournalStats>, then: Option<JournalStats>) -> JournalStats {
    let (now, then) = (now.unwrap_or_default(), then.unwrap_or_default());
    JournalStats {
        log_blocks: now.log_blocks - then.log_blocks,
        checkpoint_blocks: now.checkpoint_blocks - then.checkpoint_blocks,
        ..JournalStats::default()
    }
}

impl Fio {
    fn measured(ctx: &Ctx) -> usize {
        ctx.size(60_000, 300) as usize
    }

    fn config(&self, ctx: &Ctx, traced: bool) -> StackConfig {
        let mut cfg = StackConfig::scaled_local(self.system);
        cfg.nvm_bytes = nvm_bytes(ctx);
        if traced {
            cfg.nvm_override = Some(NvmConfig::new(cfg.nvm_bytes, cfg.nvm_tech).with_tracing());
        }
        cfg
    }

    fn pass(&self, ctx: &Ctx, n: usize, mode: &Mode) -> Pass {
        let t_setup = Instant::now();
        let cfg = self.config(ctx, mode.traced);
        let mut stack = build(&cfg).expect("build the stack");
        let blocks = file_blocks(ctx);
        let ops = generate(ctx.seed, blocks, n);
        let file = stack.fs.create(FILE_NAME).expect("create the fio file");
        let chunk = vec![LAYOUT_FILL; CHUNK * BLOCK_SIZE];
        let mut failed = 0u64;
        for first in (0..blocks).step_by(CHUNK) {
            let len = (blocks - first).min(CHUNK as u64) as usize * BLOCK_SIZE;
            let at = first * BLOCK_SIZE as u64;
            failed += u64::from(stack.fs.write(file, at, &chunk[..len]).is_err());
            if mode.traced {
                NvmAudit::discard(std::slice::from_ref(&stack.nvm));
            }
        }
        failed += u64::from(stack.fs.fsync().is_err());
        let mut audit = mode.traced.then(|| {
            NvmAudit::discard(std::slice::from_ref(&stack.nvm));
            NvmAudit::new(std::slice::from_ref(&stack.nvm))
        });
        let nvm0 = stack.nvm.stats();
        let disk0 = stack.disk.stats();
        let fs0 = stack.fs.stats();
        let journal0 = stack.fs.journal_stats();
        let cache0 = stack.fs.backend().cache_snapshot();
        // Sequence of the last write to each block; 0 = still the layout.
        let mut model = vec![0u64; blocks as usize];
        let setup_s = t_setup.elapsed().as_secs_f64();

        let mut read_latency = Vec::with_capacity(n / 3 + n / 50);
        let mut write_latency = Vec::with_capacity(n * 3 / 4);
        let mut fsync_latency = Vec::with_capacity(n / FSYNC_EVERY as usize + 1);
        let mut op_host_ns = 0u64;
        let mut run = |stack: &mut Stack| {
            let started = Instant::now();
            let sim_start = stack.clock.now_ns();
            let mut buf = [0u8; BLOCK_SIZE];
            let mut writes = 0u64;
            // Auditing the trace is not part of the run it audits.
            let mut audit_ns = 0u64;
            let mut fsync = |stack: &mut Stack| {
                let _s = spans::enter("fssim", "fs.fsync");
                let sim0 = stack.clock.now_ns();
                let ok = stack.fs.fsync().is_ok();
                fsync_latency.push(stack.clock.now_ns() - sim0);
                ok
            };
            for (i, op) in ops.iter().enumerate() {
                if i % CHUNK == 0 {
                    if let Some(audit) = &mut audit {
                        let t = Instant::now();
                        audit.drain(std::slice::from_ref(&stack.nvm));
                        audit_ns += t.elapsed().as_nanos() as u64;
                    }
                }
                let t = mode.timed.then(Instant::now);
                let sim0 = stack.clock.now_ns();
                let at = op.block * BLOCK_SIZE as u64;
                let _op = spans::enter("workloads", "op");
                let ok = if op.write {
                    writes += 1;
                    let payload = write_payload(op.block, writes);
                    let wrote = {
                        let _s = spans::enter("fssim", "fs.write");
                        stack.fs.write(file, at, &payload).is_ok()
                    };
                    model[op.block as usize] = writes;
                    wrote && (!writes.is_multiple_of(FSYNC_EVERY) || fsync(stack))
                } else {
                    let _s = spans::enter("fssim", "fs.read");
                    stack.fs.read(file, at, &mut buf).is_ok()
                };
                drop(_op);
                let sim = stack.clock.now_ns() - sim0;
                if let Some(t) = t {
                    op_host_ns += t.elapsed().as_nanos() as u64;
                }
                if !ok {
                    failed += 1;
                } else if op.write {
                    write_latency.push(sim);
                } else {
                    read_latency.push(sim);
                }
            }
            // Every write of the phase is acknowledged only now.
            {
                let _op = spans::enter("workloads", "op");
                failed += u64::from(!fsync(stack));
            }
            (
                started.elapsed().as_nanos() as u64 - audit_ns,
                stack.clock.now_ns() - sim_start,
            )
        };
        let ((host_ns, sim_ns), telemetry, trace) = if mode.traced {
            spans::start(vec![stack.clock.clone()]);
            let clock = stack.clock.clone();
            let (r, report) =
                telemetry::record(&clock, telemetry::Config::default(), || run(&mut stack));
            (r, Some(report), spans::finish())
        } else {
            (run(&mut stack), None, Vec::new())
        };
        if let Some(audit) = &mut audit {
            audit.drain(std::slice::from_ref(&stack.nvm));
        }

        let mut p = Pass {
            setup_s,
            host_ns,
            op_host_ns,
            sim_ns,
            read_latency,
            write_latency,
            fsync_latency,
            failed,
            nvm: stack.nvm.stats().delta(&nvm0),
            disk: stack.disk.stats().delta(&disk0),
            fs: stack.fs.stats().delta(&fs0),
            journal: journal_delta(stack.fs.journal_stats(), journal0),
            cache: stack.fs.backend().cache_snapshot().delta(&cache0),
            trace: Trace {
                spans: trace,
                telemetry,
                audit,
            },
            verify: None,
        };
        if mode.verify {
            p.verify = Some(crash_and_verify(stack, ctx.seed, &model));
        }
        p
    }

    fn sim_of(p: &Pass) -> Metrics {
        let mut m = Metrics::default();
        let ops = (p.read_latency.len() + p.write_latency.len()) as f64;
        let writes = p.write_latency.len() as u64;
        device_metrics(&mut m, &p.nvm, &p.disk, writes, writes * BLOCK_SIZE as u64);
        latency_metrics(&mut m, p.read_latency.clone(), p.write_latency.clone());
        m.set("sim_ops_per_s", ratio(ops * 1e9, p.sim_ns as f64));
        m.set(
            "sim_write_ops_per_s",
            ratio(writes as f64 * 1e9, p.sim_ns as f64),
        );
        m
    }
}

/// Crashes the NVM with the cache dirty, remounts (cache recovery, then
/// journal replay where there is a journal) and reads the whole file back.
fn crash_and_verify(stack: Stack, seed: u64, model: &[u64]) -> Verify {
    let Stack {
        fs,
        nvm,
        disk,
        clock,
        config,
    } = stack;
    drop(fs);
    nvm.crash(CrashPolicy::Random(seed));
    let sim0 = clock.now_ns();
    let t = Instant::now();
    let remounted = remount(&config, nvm, disk, clock.clone());
    let recover_host_ns = t.elapsed().as_nanos() as u64;
    let recover_sim_ns = clock.now_ns() - sim0;
    let lost_all = Verify {
        lost: model.len() as u64,
        ..Verify::default()
    };
    let Ok(mut stack) = remounted else {
        return lost_all;
    };
    let Ok(file) = stack.fs.open(FILE_NAME) else {
        return lost_all;
    };
    let consistent = stack.fs.check_consistency().is_ok() && stack.fs.backend().check().is_ok();
    let mut buf = [0u8; BLOCK_SIZE];
    let mut lost = 0u64;
    for (block, &seq) in model.iter().enumerate() {
        let at = (block * BLOCK_SIZE) as u64;
        let read = stack.fs.read(file, at, &mut buf).is_ok();
        let intact = if seq == 0 {
            buf.iter().all(|&b| b == LAYOUT_FILL)
        } else {
            buf == write_payload(block as u64, seq)
        };
        lost += u64::from(!(read && intact));
    }
    Verify {
        recover_sim_ns,
        recover_host_ns,
        revoked_blocks: 0,
        lost,
        consistent,
    }
}

impl Workload for Fio {
    fn name(&self) -> &'static str {
        self.name
    }

    fn load_fingerprint(&self, seed: u64, ops: u64) -> u64 {
        let blocks = file_blocks(&Ctx::full(seed));
        crate::load::fio_ops(&generate(seed, blocks, ops as usize))
    }

    fn predictions(&self, m: &Metrics) -> Vec<(&'static str, bool)> {
        let log = m.get("fssim.jbd2_log_blocks_per_op");
        let checkpoint = m.get("fssim.jbd2_checkpoint_blocks_per_op");
        if self.system == System::Classic {
            vec![("fssim.jbd2_*>0", log > 0.0 && checkpoint > 0.0)]
        } else {
            vec![("fssim.jbd2_*==0", log == 0.0 && checkpoint == 0.0)]
        }
    }

    fn rep(&self, ctx: &Ctx, verify: bool) -> Rep {
        let n = Self::measured(ctx);
        let p = self.pass(
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
        let p = self.pass(ctx, n, &mode(false, true));
        let verify = p.verify.unwrap_or_default();
        let ops = n as f64;
        let m = &mut out.metrics;
        m.0.extend(Self::sim_of(&p).0);
        m.set("fssim.op_sim_ns_per_op", ratio(p.sim_ns as f64, ops));
        m.set(
            "fssim.fsync_sim_p99_ns",
            percentile(&sorted(p.fsync_latency.clone()), 0.99) as f64,
        );
        m.set("fssim.op_host_ns_per_op", ratio(p.op_host_ns as f64, ops));
        m.set(
            "fssim.commits_per_kop",
            ratio(p.fs.commits as f64 * 1e3, ops),
        );
        m.set(
            "fssim.blocks_per_commit",
            ratio(p.fs.committed_blocks as f64, p.fs.commits as f64),
        );
        m.set(
            "fssim.jbd2_log_blocks_per_op",
            ratio(p.journal.log_blocks as f64, ops),
        );
        m.set(
            "fssim.jbd2_checkpoint_blocks_per_op",
            ratio(p.journal.checkpoint_blocks as f64, ops),
        );
        let c = &p.cache;
        let write_hit_share = ratio(c.write_hits as f64, (c.write_hits + c.write_misses) as f64);
        let writebacks_per_kop = ratio(c.writebacks as f64 * 1e3, ops);
        if self.system == System::Classic {
            m.set("classic.write_hit_share", write_hit_share);
            m.set("classic.writebacks_per_kop", writebacks_per_kop);
        } else {
            m.set("core.write_hit_share", write_hit_share);
            m.set("core.writebacks_per_kop", writebacks_per_kop);
            m.set(
                "core.read_hit_share",
                ratio(c.read_hits as f64, (c.read_hits + c.read_misses) as f64),
            );
            m.set(
                "core.evictions_per_kop",
                ratio(c.evictions as f64 * 1e3, ops),
            );
            m.set("core.recover_host_ms", verify.recover_host_ns as f64 / 1e6);
        }
        // Destage is off: every disk request is on the critical path.
        m.set(
            "blockdev.fg_busy_share",
            ratio(p.disk.busy_ns as f64, p.sim_ns as f64),
        );

        let small = ctx.size(n as u64 / 10, 100) as usize;
        let plain = self.pass(ctx, small, &mode(false, false));
        let traced = self.pass(ctx, small, &mode(true, false));
        let clean = finish_traced(
            &mut out,
            self.name,
            (plain.host_ns, plain.sim_ns),
            (traced.host_ns, traced.sim_ns),
            traced.trace,
            traced.fs.commits,
            small as u64,
        );

        out.attempted = n as u64;
        out.failed = p.failed + verify.lost;
        out.correct = verify.consistent && out.failed == 0 && clean;
        out
    }
}
