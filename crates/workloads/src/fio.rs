//! Fio-like micro-benchmark: random 4 KB reads/writes at a configured
//! ratio over one pre-allocated file (§5.2.1, Table 2 row 1).

use blockdev::BLOCK_SIZE;
use fssim::stack::Stack;
use fssim::FileId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{measure, RunReport};

/// Fio parameters.
#[derive(Clone, Debug)]
pub struct FioSpec {
    /// Read percentage of the mix (30, 50, 70 — the paper's 3/7, 5/5, 7/3).
    pub read_pct: u32,
    /// File size in bytes (the paper: 20 GB against an 8 GB cache — keep
    /// the 2.5 : 1 dataset-to-cache ratio when scaling).
    pub file_bytes: u64,
    /// Request size (paper: 4 KB).
    pub req_bytes: usize,
    /// Measured operations.
    pub ops: u64,
    /// fsync interval in write ops (0 = rely on transaction batching only).
    pub fsync_every: u64,
    pub seed: u64,
}

impl FioSpec {
    /// The paper's job: 4 KB requests, an fsync every 64 writes, on a
    /// file 2.5× the NVM cache (the paper's 20 GB file over 8 GB).
    pub fn paper(read_pct: u32, cache_bytes: usize, ops: u64, seed: u64) -> FioSpec {
        FioSpec {
            read_pct,
            file_bytes: cache_bytes as u64 * 5 / 2,
            req_bytes: 4 << 10,
            ops,
            fsync_every: 64,
            seed,
        }
    }
}

/// A Fio run bound to a file in some stack.
pub struct Fio {
    spec: FioSpec,
    rng: StdRng,
    file: Option<FileId>,
    write_ops: u64,
    read_ops: u64,
}

impl Fio {
    pub fn new(spec: FioSpec) -> Fio {
        let rng = StdRng::seed_from_u64(spec.seed);
        Fio {
            spec,
            rng,
            file: None,
            write_ops: 0,
            read_ops: 0,
        }
    }

    /// Pre-allocates the target file (the paper lets Fio lay out its file
    /// before the measured phase) and warms the cache.
    pub fn setup(&mut self, stack: &mut Stack) {
        let f = stack.fs.create("fio.dat").expect("create fio file");
        let chunk = vec![0x66u8; 256 * BLOCK_SIZE];
        let mut off = 0u64;
        while off < self.spec.file_bytes {
            let n = chunk.len().min((self.spec.file_bytes - off) as usize);
            stack.fs.write(f, off, &chunk[..n]).expect("prealloc");
            off += n as u64;
        }
        stack.fs.fsync().expect("fsync");
        self.file = Some(f);
    }

    /// Runs the measured phase and returns the report. `ops` in the report
    /// counts **write** operations (Fig. 7(a) reports write IOPS and
    /// normalises 7(b)/(c) per write op).
    pub fn run(&mut self, stack: &mut Stack) -> RunReport {
        let f = self.file.expect("setup() first");
        let m = measure(stack, &format!("fio r{}%", self.spec.read_pct));
        let max_req = self.spec.file_bytes / self.spec.req_bytes as u64;
        let mut buf = vec![0u8; self.spec.req_bytes];
        let wbuf = vec![0x77u8; self.spec.req_bytes];
        for op in 0..self.spec.ops {
            let off = self.rng.gen_range(0..max_req) * self.spec.req_bytes as u64;
            if self.rng.gen_range(0..100) < self.spec.read_pct {
                stack.fs.read(f, off, &mut buf).expect("read");
                self.read_ops += 1;
            } else {
                stack.fs.write(f, off, &wbuf).expect("write");
                self.write_ops += 1;
                if self.spec.fsync_every > 0 && self.write_ops.is_multiple_of(self.spec.fsync_every)
                {
                    stack.fs.fsync().expect("fsync");
                }
            }
            let _ = op;
        }
        stack.fs.fsync().expect("final fsync");
        m.finish(stack, self.write_ops.max(1))
    }

    pub fn write_ops(&self) -> u64 {
        self.write_ops
    }

    pub fn read_ops(&self) -> u64 {
        self.read_ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fssim::stack::{build, StackConfig, System};

    fn spec(read_pct: u32) -> FioSpec {
        FioSpec {
            read_pct,
            file_bytes: 2 << 20,
            req_bytes: 4096,
            ops: 500,
            fsync_every: 32,
            seed: 42,
        }
    }

    #[test]
    fn runs_and_reports() {
        let mut stack = build(&StackConfig::tiny(System::Tinca)).unwrap();
        let mut fio = Fio::new(spec(50));
        fio.setup(&mut stack);
        let r = fio.run(&mut stack);
        assert!(r.ops > 0);
        assert!(r.sim_ns > 0);
        assert!(r.nvm.clflush > 0);
        let total = fio.write_ops() + fio.read_ops();
        assert_eq!(total, 500);
        // Ratio roughly honoured.
        let read_frac = fio.read_ops() as f64 / total as f64;
        assert!((0.4..0.6).contains(&read_frac), "read fraction {read_frac}");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut stack = build(&StackConfig::tiny(System::Tinca)).unwrap();
            let mut fio = Fio::new(spec(30));
            fio.setup(&mut stack);
            let r = fio.run(&mut stack);
            (r.nvm.clflush, r.disk.writes, r.sim_ns)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn pure_write_mix_has_no_reads() {
        let mut stack = build(&StackConfig::tiny(System::Tinca)).unwrap();
        let mut fio = Fio::new(spec(0));
        fio.setup(&mut stack);
        let _ = fio.run(&mut stack);
        assert_eq!(fio.read_ops(), 0);
        assert_eq!(fio.write_ops(), 500);
    }

    #[test]
    fn paper_spec_keeps_dataset_cache_ratio() {
        let s = FioSpec::paper(30, 8 << 20, 1000, 1);
        assert_eq!(s.file_bytes, 20 << 20);
        assert_eq!(s.req_bytes, 4096);
    }
}
