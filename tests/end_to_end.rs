//! Workspace-level end-to-end tests: whole stacks, both systems, the
//! paper's headline comparisons, at test-sized scale.

use tinca_repro::blockdev::BLOCK_SIZE;
use tinca_repro::fssim::stack::{build, remount, StackConfig, System};
use tinca_repro::nvmsim::CrashPolicy;
use tinca_repro::workloads::fio::{Fio, FioSpec};
use tinca_repro::workloads::measure;

fn fio_spec(read_pct: u32, nvm_bytes: usize) -> FioSpec {
    FioSpec::paper(read_pct, nvm_bytes, 2_000, 0xE2E)
}

/// The paper's headline: same workload, same consistency, Tinca beats the
/// journaling stack because it writes each block once and its metadata
/// updates are 16 B, not 4 KB.
#[test]
fn tinca_beats_classic_on_write_heavy_fio() {
    let mut results = Vec::new();
    for sys in [System::Classic, System::Tinca] {
        let cfg = StackConfig {
            nvm_bytes: 8 << 20,
            ..StackConfig::scaled_local(sys)
        };
        let mut stack = build(&cfg).unwrap();
        let mut fio = Fio::new(fio_spec(30, cfg.nvm_bytes));
        fio.setup(&mut stack);
        let r = fio.run(&mut stack);
        results.push((r.ops_per_sec(), r.clflush_per_op(), r.disk_writes_per_op()));
    }
    let (classic, tinca) = (results[0], results[1]);
    assert!(
        tinca.0 > 1.5 * classic.0,
        "Tinca IOPS {} should beat Classic {} by >1.5x",
        tinca.0,
        classic.0
    );
    assert!(
        tinca.1 < 0.4 * classic.1,
        "Tinca clflush/op {} should be <40% of Classic {}",
        tinca.1,
        classic.1
    );
    assert!(
        tinca.2 < 0.7 * classic.2,
        "Tinca disk writes/op {} should be <70% of Classic {}",
        tinca.2,
        classic.2
    );
}

/// Both systems provide the same data-consistency guarantee: a power cut
/// between operations loses nothing that was fsynced.
#[test]
fn both_systems_keep_fsynced_data_across_crash() {
    for sys in [System::Tinca, System::Classic] {
        let cfg = StackConfig::tiny(sys);
        let mut stack = build(&cfg).unwrap();
        let f = stack.fs.create("precious.dat").unwrap();
        let data: Vec<u8> = (0..30_000u32).map(|i| (i % 251) as u8).collect();
        stack.fs.write(f, 0, &data).unwrap();
        stack.fs.fsync().unwrap();
        let (nvm, disk, clock) = (stack.nvm.clone(), stack.disk.clone(), stack.clock.clone());
        drop(stack.fs);
        nvm.crash(CrashPolicy::Random(99));
        let mut re = remount(&cfg, nvm, disk, clock).unwrap();
        let f = re.fs.open("precious.dat").unwrap();
        let mut back = vec![0u8; data.len()];
        re.fs.read(f, 0, &mut back).unwrap();
        assert_eq!(back, data, "{} lost fsynced data", sys.name());
        re.fs.backend().check().unwrap();
    }
}

/// Running the same deterministic workload twice gives identical device
/// counters — the whole stack is reproducible.
#[test]
fn whole_stack_is_deterministic() {
    let run = || {
        let cfg = StackConfig {
            nvm_bytes: 4 << 20,
            ..StackConfig::tiny(System::Tinca)
        };
        let mut stack = build(&cfg).unwrap();
        let mut fio = Fio::new(fio_spec(50, cfg.nvm_bytes));
        fio.setup(&mut stack);
        let m = measure(&stack, "det");
        let _ = fio.run(&mut stack);
        let r = m.finish(&stack, 1);
        (
            r.nvm.clflush,
            r.nvm.sfence,
            r.disk.writes,
            r.disk.reads,
            r.sim_ns,
        )
    };
    assert_eq!(run(), run());
}

/// The ablation stack (role switch off) behaves like a journaling cache:
/// correct, but with ~2x the NVM payload writes.
#[test]
fn role_switch_ablation_quantifies_double_writes() {
    let mut lines = Vec::new();
    for sys in [System::Tinca, System::TincaNoRoleSwitch] {
        let cfg = StackConfig::tiny(sys);
        let mut stack = build(&cfg).unwrap();
        let f = stack.fs.create("abl").unwrap();
        let nvm0 = stack.nvm.stats();
        stack.fs.write(f, 0, &vec![7u8; 64 * BLOCK_SIZE]).unwrap();
        stack.fs.fsync().unwrap();
        let d = stack.nvm.stats().delta(&nvm0);
        lines.push(d.lines_written);
        // Data must be intact either way.
        let mut buf = vec![0u8; 64 * BLOCK_SIZE];
        stack.fs.read(f, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 7), "{}", sys.name());
    }
    let ratio = lines[1] as f64 / lines[0] as f64;
    assert!(
        (1.6..2.4).contains(&ratio),
        "double-write ablation should roughly double NVM writes: {ratio}"
    );
}

/// Write-hit rate comparison under skewed OLTP: Tinca uses its cache
/// space more efficiently because no journal copies compete for it.
#[test]
fn tinca_cache_space_efficiency_under_oltp() {
    use tinca_repro::workloads::tpcc::{Tpcc, TpccSpec};
    let mut hits = Vec::new();
    for sys in [System::Classic, System::Tinca] {
        let cfg = StackConfig {
            nvm_bytes: 8 << 20,
            ..StackConfig::scaled_local(sys)
        };
        let mut stack = build(&cfg).unwrap();
        let mut tpcc = Tpcc::new(TpccSpec {
            warehouses: 8,
            warehouse_bytes: cfg.nvm_bytes as u64 * 4 / 8,
            users: 8,
            txns: 400,
            seed: 0xE2E2,
        });
        tpcc.setup(&mut stack);
        let before = stack.fs.backend().cache_snapshot();
        let _ = tpcc.run(&mut stack);
        let snap = stack.fs.backend().cache_snapshot().delta(&before);
        hits.push(snap.write_hit_rate().unwrap());
    }
    assert!(
        hits[1] >= hits[0] - 0.02,
        "Tinca write hit rate {} should not trail Classic {}",
        hits[1],
        hits[0]
    );
}
