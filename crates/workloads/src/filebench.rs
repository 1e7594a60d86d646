//! Filebench-like macro-benchmark (§5.3.2, Table 2): the fileserver,
//! webproxy, and varmail personalities with the paper's R/W ratios and
//! 16 KB request sizes.

use blockdev::BLOCK_SIZE;
use fssim::stack::Stack;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::rand_util::Zipf;
use crate::report::{measure, RunReport};

/// The three personalities the paper runs (Table 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Personality {
    /// "File server operating on a large number of files" — R/W 1/2.
    Fileserver,
    /// "Web proxy server in the Internet" — R/W 5/1, Zipf popularity.
    Webproxy,
    /// "Email server" — R/W 1/1, fsync after every delivery.
    Varmail,
}

impl Personality {
    pub fn name(self) -> &'static str {
        match self {
            Personality::Fileserver => "fileserver",
            Personality::Webproxy => "webproxy",
            Personality::Varmail => "varmail",
        }
    }

    /// (read weight, write weight) per Table 2.
    fn rw_ratio(self) -> (u32, u32) {
        match self {
            Personality::Fileserver => (1, 2),
            Personality::Webproxy => (5, 1),
            Personality::Varmail => (1, 1),
        }
    }

    /// Whether every write is followed by fsync (mail delivery semantics).
    fn fsync_per_write(self) -> bool {
        matches!(self, Personality::Varmail)
    }
}

/// Filebench parameters.
#[derive(Clone, Debug)]
pub struct FilebenchSpec {
    pub personality: Personality,
    /// Files in the pre-created pool.
    pub nfiles: usize,
    /// Mean file size in bytes (requests stay within this).
    pub file_bytes: u64,
    /// I/O request size (paper: 16 KB).
    pub io_bytes: usize,
    /// Measured file operations.
    pub ops: u64,
    pub seed: u64,
}

impl FilebenchSpec {
    /// Scaled paper configuration: the dataset keeps the paper's
    /// dataset-to-cache ratio for the given total size.
    pub fn scaled(personality: Personality, dataset_bytes: u64, ops: u64) -> FilebenchSpec {
        let nfiles = 2048;
        FilebenchSpec {
            personality,
            nfiles,
            file_bytes: dataset_bytes / nfiles as u64,
            io_bytes: 16 << 10,
            ops,
            seed: 0xF11E + personality as u64,
        }
    }
}

/// A Filebench run bound to a file pool in some stack.
pub struct Filebench {
    spec: FilebenchSpec,
    rng: StdRng,
    zipf: Zipf,
    ops_done: u64,
    reads: u64,
    writes: u64,
    appends: u64,
    creates: u64,
    deletes: u64,
}

impl Filebench {
    pub fn new(spec: FilebenchSpec) -> Filebench {
        let rng = StdRng::seed_from_u64(spec.seed);
        let zipf = Zipf::new(spec.nfiles, 0.9);
        Filebench {
            spec,
            rng,
            zipf,
            ops_done: 0,
            reads: 0,
            writes: 0,
            appends: 0,
            creates: 0,
            deletes: 0,
        }
    }

    fn file_name(i: usize) -> String {
        format!("fbpool-{i:05}")
    }

    /// Pre-creates the file pool at its mean size, fsyncing periodically
    /// so the load phase never outgrows one transaction.
    pub fn setup(&mut self, stack: &mut Stack) {
        let chunk = vec![0x33u8; 64 * BLOCK_SIZE];
        for i in 0..self.spec.nfiles {
            let f = stack
                .fs
                .create(&Self::file_name(i))
                .expect("create pool file");
            let mut off = 0u64;
            while off < self.spec.file_bytes {
                let n = chunk.len().min((self.spec.file_bytes - off) as usize);
                stack.fs.write(f, off, &chunk[..n]).expect("fill");
                off += n as u64;
            }
            if i % 16 == 15 {
                stack.fs.fsync().expect("fsync");
            }
        }
        stack.fs.fsync().expect("fsync");
    }

    /// Runs the measured phase; `ops` in the report counts file operations
    /// (Fig. 11 reports OPs/s).
    pub fn run(&mut self, stack: &mut Stack) -> RunReport {
        let m = measure(stack, self.spec.personality.name());
        let (rw_r, rw_w) = self.spec.personality.rw_ratio();
        let mut buf = vec![0u8; self.spec.io_bytes];
        let wbuf = vec![0x44u8; self.spec.io_bytes];
        let max_off = self
            .spec
            .file_bytes
            .saturating_sub(self.spec.io_bytes as u64)
            .max(1);
        for _ in 0..self.spec.ops {
            let i = self.zipf.sample(&mut self.rng);
            let name = Self::file_name(i);
            // 4% of ops churn the pool (delete + recreate), as filebench's
            // create/delete flowlets do — except for the read-mostly proxy.
            if self.spec.personality != Personality::Webproxy && self.rng.gen_range(0..100) < 4 {
                if stack.fs.exists(&name).expect("lookup") {
                    stack.fs.delete(&name).expect("delete");
                    self.deletes += 1;
                } else {
                    stack.fs.create(&name).expect("recreate");
                    self.creates += 1;
                }
                self.ops_done += 1;
                continue;
            }
            if !stack.fs.exists(&name).expect("lookup") {
                stack.fs.create(&name).expect("recreate");
                self.creates += 1;
                self.ops_done += 1;
                continue;
            }
            let f = stack.fs.open(&name).expect("open");
            let off = self.rng.gen_range(0..max_off) / BLOCK_SIZE as u64 * BLOCK_SIZE as u64;
            if self.rng.gen_range(0..rw_r + rw_w) < rw_r {
                stack.fs.read(f, off, &mut buf).expect("read");
                self.reads += 1;
            } else {
                // Mail delivery and log-style file servers append; other
                // writes go in place. Appended files are capped at 4× the
                // mean size (the churn flowlets recycle them).
                let do_append = self.rng.gen_range(0..100) < 25
                    && stack.fs.file_size(f).expect("file size") < self.spec.file_bytes * 4;
                if do_append {
                    stack.fs.append(f, &wbuf).expect("append");
                    self.appends += 1;
                } else {
                    stack.fs.write(f, off, &wbuf).expect("write");
                }
                self.writes += 1;
                if self.spec.personality.fsync_per_write() {
                    stack.fs.fsync().expect("fsync");
                }
            }
            self.ops_done += 1;
        }
        stack.fs.fsync().expect("final fsync");
        m.finish(stack, self.ops_done)
    }

    pub fn counts(&self) -> (u64, u64, u64, u64) {
        (self.reads, self.writes, self.creates, self.deletes)
    }

    /// Appending writes among [`Self::counts`]'s writes.
    pub fn appends(&self) -> u64 {
        self.appends
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fssim::stack::{build, StackConfig, System};

    fn spec(p: Personality) -> FilebenchSpec {
        FilebenchSpec {
            personality: p,
            nfiles: 32,
            file_bytes: 64 << 10,
            io_bytes: 16 << 10,
            ops: 300,
            seed: 7,
        }
    }

    #[test]
    fn fileserver_is_write_heavy() {
        let mut stack = build(&StackConfig::tiny(System::Tinca)).unwrap();
        let mut fb = Filebench::new(spec(Personality::Fileserver));
        fb.setup(&mut stack);
        let r = fb.run(&mut stack);
        let (reads, writes, _, _) = fb.counts();
        assert!(
            writes > reads,
            "fileserver is 1/2 R/W: r={reads} w={writes}"
        );
        assert_eq!(r.ops, 300);
    }

    #[test]
    fn webproxy_is_read_heavy_and_stable_pool() {
        let mut stack = build(&StackConfig::tiny(System::Tinca)).unwrap();
        let mut fb = Filebench::new(spec(Personality::Webproxy));
        fb.setup(&mut stack);
        let _ = fb.run(&mut stack);
        let (reads, writes, creates, deletes) = fb.counts();
        assert!(reads > 3 * writes, "webproxy is 5/1: r={reads} w={writes}");
        assert_eq!(creates + deletes, 0, "webproxy does not churn the pool");
    }

    #[test]
    fn varmail_fsyncs_every_write() {
        let mut stack = build(&StackConfig::tiny(System::Tinca)).unwrap();
        let mut fb = Filebench::new(spec(Personality::Varmail));
        fb.setup(&mut stack);
        let r = fb.run(&mut stack);
        let (_, writes, _, _) = fb.counts();
        assert!(r.fs.fsyncs >= writes, "each delivery must fsync");
        assert!(fb.appends() > 0, "mail delivery appends");
    }

    #[test]
    fn appended_files_stay_bounded() {
        let mut stack = build(&StackConfig::tiny(System::Tinca)).unwrap();
        let mut s = spec(Personality::Fileserver);
        s.ops = 1500;
        let mut fb = Filebench::new(s.clone());
        fb.setup(&mut stack);
        let _ = fb.run(&mut stack);
        for i in 0..s.nfiles {
            if stack.fs.exists(&format!("fbpool-{i:05}")).unwrap() {
                let f = stack.fs.open(&format!("fbpool-{i:05}")).unwrap();
                assert!(
                    stack.fs.file_size(f).unwrap() <= s.file_bytes * 4 + s.io_bytes as u64,
                    "file {i} grew unboundedly"
                );
            }
        }
    }

    #[test]
    fn deterministic() {
        let run = || {
            let mut stack = build(&StackConfig::tiny(System::Classic)).unwrap();
            let mut fb = Filebench::new(spec(Personality::Fileserver));
            fb.setup(&mut stack);
            let r = fb.run(&mut stack);
            (r.nvm.clflush, r.disk.writes)
        };
        assert_eq!(run(), run());
    }
}
