//! A crash-consistent key-value store built on the Tinca-backed file
//! system — the kind of application the paper's intro motivates: it gets
//! transactional durability *from the cache layer*, with no journal and
//! no double writes.
//!
//! The store keeps fixed-size records in one file; every `put` batch is
//! one file-system transaction, so a power cut can never expose a
//! half-applied batch.
//!
//! ```text
//! cargo run --release --example kvstore
//! ```

use std::collections::HashMap;

use tinca_repro::crashsim::quiet_crash_panics;
use tinca_repro::fssim::stack::{build, remount, Stack, StackConfig, System};
use tinca_repro::fssim::FileId;
use tinca_repro::nvmsim::CrashPolicy;

const RECORD: usize = 256;
const SLOTS: u64 = 4096;

/// A tiny hash-addressed KV store over one FsSim file.
struct KvStore {
    file: FileId,
}

impl KvStore {
    fn open(stack: &mut Stack) -> KvStore {
        let file = match stack.fs.open("kv.db") {
            Ok(file) => file,
            Err(_) => stack.fs.create("kv.db").unwrap(),
        };
        KvStore { file }
    }

    fn slot(key: &str) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in key.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h % SLOTS
    }

    /// Applies a batch of puts and makes them durable atomically.
    fn put_batch(&self, stack: &mut Stack, kvs: &[(&str, &str)]) {
        for (k, v) in kvs {
            assert!(k.len() <= 64 && v.len() <= 180, "record overflow");
            let mut rec = [0u8; RECORD];
            rec[0] = k.len() as u8;
            rec[1..1 + k.len()].copy_from_slice(k.as_bytes());
            rec[65] = v.len() as u8;
            rec[66..66 + v.len()].copy_from_slice(v.as_bytes());
            stack
                .fs
                .write(self.file, Self::slot(k) * RECORD as u64, &rec)
                .expect("write record");
        }
        // One commit = one Tinca transaction: all-or-nothing durability.
        stack.fs.fsync().expect("fsync");
    }

    fn get(&self, stack: &mut Stack, key: &str) -> Option<String> {
        let mut rec = [0u8; RECORD];
        let n = stack
            .fs
            .read(self.file, Self::slot(key) * RECORD as u64, &mut rec)
            .ok()?;
        if n < RECORD || rec[0] == 0 {
            return None;
        }
        let klen = rec[0] as usize;
        if &rec[1..1 + klen] != key.as_bytes() {
            return None; // different key hashed here
        }
        let vlen = rec[65] as usize;
        Some(String::from_utf8_lossy(&rec[66..66 + vlen]).into_owned())
    }
}

fn main() {
    quiet_crash_panics();
    let cfg = StackConfig::tiny(System::Tinca);
    let mut stack = build(&cfg).expect("stack");
    let kv = KvStore::open(&mut stack);

    // Committed state the crash must never damage.
    let mut expected: HashMap<&str, &str> = HashMap::new();
    kv.put_batch(&mut stack, &[("alice", "engineer"), ("bob", "analyst")]);
    expected.insert("alice", "engineer");
    expected.insert("bob", "analyst");
    println!("committed batch 1: alice, bob");

    // A batch that crashes mid-commit: arm a power cut a few hundred
    // persistence events ahead, inside the commit.
    stack.nvm.set_trip(Some(150));
    let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        kv.put_batch(&mut stack, &[("alice", "manager"), ("carol", "director")]);
    }))
    .is_err();
    stack.nvm.set_trip(None);
    println!(
        "batch 2 {}",
        if crashed {
            "interrupted by power cut"
        } else {
            "completed"
        }
    );

    // Reboot: crash the device, recover the cache, remount the FS.
    let (nvm, disk, clock) = (stack.nvm.clone(), stack.disk.clone(), stack.clock.clone());
    drop(stack.fs);
    nvm.crash(CrashPolicy::Random(7));
    let mut stack = remount(&cfg, nvm, disk, clock).expect("remount");
    let kv = KvStore::open(&mut stack);

    let alice = kv.get(&mut stack, "alice").expect("alice must exist");
    let carol = kv.get(&mut stack, "carol");
    println!("after recovery: alice={alice:?} carol={carol:?}");
    // Atomicity: either the whole second batch landed, or none of it.
    match (alice.as_str(), &carol) {
        ("engineer", None) => println!("=> batch 2 fully rolled back (old state)"),
        ("manager", Some(c)) if c == "director" => println!("=> batch 2 fully committed"),
        other => panic!("torn batch visible after crash: {other:?}"),
    }
    assert_eq!(kv.get(&mut stack, "bob").as_deref(), Some("analyst"));
    println!("kvstore OK: transactions are all-or-nothing across power cuts");
}
