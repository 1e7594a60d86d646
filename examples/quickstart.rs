//! Quickstart: build a Tinca stack, commit transactions, survive a crash.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use tinca_repro::blockdev::{DiskKind, SimDisk, BLOCK_SIZE};
use tinca_repro::nvmsim::{CrashPolicy, NvmConfig, NvmDevice, NvmTech, SimClock};
use tinca_repro::tinca::{PoolConfig, TincaPool};

fn main() {
    // A simulated PCM device and SSD share one simulated clock.
    let clock = SimClock::new();
    let nvm = NvmDevice::new(NvmConfig::new(16 << 20, NvmTech::Pcm), clock.clone());
    let disk = SimDisk::new(DiskKind::Ssd, 1 << 18, clock.clone());

    // Format the transactional NVM cache on top of them: a one-shard pool
    // is the paper's single Tinca cache.
    let cache = TincaPool::format(vec![nvm.clone()], disk.clone(), PoolConfig::default());

    // Commit a multi-block transaction atomically — each payload is
    // written to NVM exactly once (role switch, no journal double write).
    let mut txn = cache.init_txn();
    txn.write(1000, &[0xAA; BLOCK_SIZE]);
    txn.write(2000, &[0xBB; BLOCK_SIZE]);
    txn.write(3000, &[0xCC; BLOCK_SIZE]);
    cache.commit(txn).expect("commit");
    println!(
        "committed 3 blocks in {} ns of simulated time",
        clock.now_ns()
    );

    let s = nvm.stats();
    println!(
        "NVM cost: {} clflush, {} sfence, {} lines written",
        s.clflush, s.sfence, s.lines_written
    );

    // Read back through the cache.
    let mut buf = [0u8; BLOCK_SIZE];
    cache.read(2000, &mut buf).unwrap();
    assert_eq!(buf[0], 0xBB);
    println!("block 2000 reads back 0x{:02X}", buf[0]);

    // Power failure! DRAM state is gone; un-fenced NVM lines resolve
    // adversarially; the disk never saw the data (write-back cache).
    drop(cache);
    nvm.crash(CrashPolicy::Random(42));

    // Recovery rebuilds the DRAM index from the persistent cache entries
    // and revokes any incomplete transaction (there is none here).
    let recovered =
        TincaPool::recover(vec![nvm], disk, PoolConfig::default()).expect("recover after crash");
    recovered
        .check_consistency()
        .expect("consistent after crash");

    let mut buf = [0u8; BLOCK_SIZE];
    recovered.read_nocache(1000, &mut buf).unwrap();
    assert_eq!(buf[0], 0xAA, "committed data survives the crash");
    println!(
        "after crash + recovery: block 1000 = 0x{:02X}, {} blocks cached, stats: {:?}",
        buf[0],
        recovered.cached_blocks(),
        recovered.stats()
    );
    println!("quickstart OK");
}
