//! Frozen load. The fio ops come from the benchmark's own generator; the
//! open-loop arrivals and the TPC-C transactions come from the product
//! (`ArrivalStream`, `KvTpccDriver`), so their op sequence is fingerprinted
//! and the fingerprint of a fixed reference seed is recorded here. A change
//! that alters the load the benchmark runs makes every run fail until a
//! `benchmark` issue re-records the fingerprints.

use kvdb::KvTpccDriver;
use workloads::openloop::{ArrivalStream, OpKind, OpenLoopSpec};

use crate::fio;
use crate::run::Workload;
use crate::util::Fingerprint;

/// Seed and length of the recorded reference prefix of every stream.
pub const REFERENCE_SEED: u64 = 1;
const REFERENCE_OPS: u64 = 2_000;

/// Fingerprints of the first `REFERENCE_OPS` ops at `REFERENCE_SEED`,
/// recorded at the commit that defined the benchmark.
const RECORDED: [(&str, u64); 5] = [
    ("ol_write_hot", 0xbcda_154d_5baf_cc90),
    ("ol_mixed_cold", 0xeef1_4907_434a_a953),
    ("kv_tpcc", 0x560b_c523_d1f5_7247),
    ("fs_fio_tinca", 0x6851_97bc_ad4c_6c6e),
    ("fs_fio_classic", 0x6851_97bc_ad4c_6c6e),
];

pub fn arrivals(spec: &OpenLoopSpec, shards: usize) -> u64 {
    let mut f = Fingerprint::new();
    for a in ArrivalStream::new(spec, shards) {
        f.word(a.at_ns);
        f.word(a.user);
        match a.kind {
            OpKind::Read { blk } => {
                f.word(0);
                f.word(blk);
            }
            OpKind::Write { blks, seq } => {
                f.word(1);
                f.word(seq);
                for b in blks {
                    f.word(b);
                }
            }
        }
    }
    f.finish()
}

pub fn tpcc(seed: u64, warehouses: u32, txns: u64) -> u64 {
    let mut driver = KvTpccDriver::new(seed, warehouses);
    let mut f = Fingerprint::new();
    for _ in 0..txns {
        let t = driver.next_txn();
        f.word(t.keys.reads.len() as u64);
        for k in &t.keys.reads {
            f.bytes(&k.encode());
        }
        f.word(t.writes.len() as u64);
        for (k, v) in &t.writes {
            f.bytes(k);
            f.bytes(v);
        }
    }
    f.finish()
}

pub fn fio_ops(ops: &[fio::Op]) -> u64 {
    let mut f = Fingerprint::new();
    for op in ops {
        f.word(u64::from(op.write));
        f.word(op.block);
    }
    f.finish()
}

/// Compares the reference prefix of the workload's load with the recording.
pub fn check_frozen(w: &dyn Workload) -> Result<u64, String> {
    let name = w.name();
    let now = w.load_fingerprint(REFERENCE_SEED, REFERENCE_OPS);
    let recorded = RECORDED
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, f)| *f)
        .ok_or_else(|| format!("no recorded load fingerprint for {name}"))?;
    if now == recorded {
        Ok(now)
    } else {
        Err(format!(
            "the load of {name} changed: fingerprint {now:#018x}, recorded {recorded:#018x}"
        ))
    }
}
