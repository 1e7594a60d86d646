// Integration tests are exempt from the crate's unwrap/expect ban.
#![allow(clippy::disallowed_methods, clippy::disallowed_macros)]

//! Property-based tests for the multi-writer lock-free commit path
//! (DESIGN §8), driven through the steppable reserve/stage/publish/
//! sequence API — deterministic single-thread interleavings, no OS
//! threads.
//!
//! Two properties anchor the protocol:
//!
//! * **Contiguous durable prefix** — whatever subset of windows is
//!   published, in whatever order, and wherever a crash lands (before
//!   sequencing, mid-sequence, or after), the set of windows whose
//!   contents survive recovery is a contiguous prefix of the ring
//!   (reservation) order, each window all-or-nothing.
//! * **Exactly-once resume/roll-back** — recovery judges every
//!   in-flight window exactly once: a second crash-and-recover finds no
//!   window left to judge and changes nothing.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use blockdev::{Disk, DiskKind, SimDisk, BLOCK_SIZE};
use nvmsim::{shard_devices, CrashPolicy, CrashTripped, Nvm, NvmConfig, NvmTech, SimClock};
use proptest::prelude::*;
use tinca::{CommitMode, MwAdmission, MwTicket, PoolConfig, TincaConfig, TincaPool};

fn blk(byte: u8) -> [u8; BLOCK_SIZE] {
    [byte; BLOCK_SIZE]
}

fn mw_cfg() -> PoolConfig {
    PoolConfig {
        shards: 1,
        commit_mode: CommitMode::LockFreeRing,
        cache: TincaConfig {
            ring_bytes: 4096,
            ..TincaConfig::default()
        },
    }
}

/// One window of the generated round: disjoint block ranges, a distinct
/// fill value per window so reads identify the version.
#[derive(Clone, Debug)]
struct WindowSpec {
    blocks: Vec<u64>,
    fill: u8,
}

fn window_specs(lens: &[usize]) -> Vec<WindowSpec> {
    let mut next = 0u64;
    lens.iter()
        .enumerate()
        .map(|(i, &len)| {
            let blocks: Vec<u64> = (next..next + len as u64).collect();
            next += len as u64;
            WindowSpec {
                blocks,
                fill: 100 + i as u8,
            }
        })
        .collect()
}

/// Applies a permutation given as ranking keys (stable by index).
fn permute<T>(items: Vec<T>, keys: &[u64]) -> Vec<T> {
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by_key(|&i| (keys.get(i).copied().unwrap_or(0), i));
    let mut slots: Vec<Option<T>> = items.into_iter().map(Some).collect();
    order
        .into_iter()
        .map(|i| slots[i].take().expect("permutation visits once"))
        .collect()
}

fn quiet_crash_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<CrashTripped>().is_none() {
                default(info);
            }
        }));
    });
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    /// Crash-free interleavings: rounds of possibly-conflicting
    /// transactions admitted through the steppable API, published in a
    /// permuted order and drained. The pool must read back exactly like
    /// a flat map applied in admission (ring) order — publication order
    /// must not leak into visible state.
    #[test]
    fn mw_interleavings_match_model(
        rounds in proptest::collection::vec(
            (
                proptest::collection::vec(
                    proptest::collection::vec((0..48u64, 1..=250u8), 1..4),
                    1..5,
                ),
                proptest::collection::vec(any::<u64>(), 5),
            ),
            1..8,
        ),
    ) {
        let p = TincaPool::format(
            shard_devices(&NvmConfig::new(1 << 20, NvmTech::Pcm), 1),
            SimDisk::new(DiskKind::Ssd, 1 << 20, SimClock::new()),
            mw_cfg(),
        );
        let mut model: HashMap<u64, u8> = HashMap::new();

        for (txns, pub_keys) in rounds {
            let mut pending: Vec<MwTicket> = Vec::new();
            for writes in txns {
                let mut txn = p.init_txn();
                for (b, v) in &writes {
                    txn.write(*b, &blk(*v));
                }
                loop {
                    match p.mw_try_begin(txn).unwrap() {
                        MwAdmission::Admitted(mut t) => {
                            p.mw_stage(&mut t);
                            pending.push(t);
                            // Ring order == admission order, so the model
                            // applies the writes now.
                            for (b, v) in writes {
                                model.insert(b, v);
                            }
                            break;
                        }
                        MwAdmission::Busy(t) => {
                            // Conflict with an in-flight window: publish
                            // and drain everything pending, then retry.
                            txn = t;
                            for w in std::mem::take(&mut pending) {
                                p.mw_publish(w);
                            }
                            while p.mw_sequence(0) > 0 {}
                        }
                    }
                }
            }
            // Publish the round in an arbitrary order; the sequencer may
            // only ever retire ring-order prefixes.
            for w in permute(pending, &pub_keys) {
                p.mw_publish(w);
            }
            while p.mw_sequence(0) > 0 {}
        }

        p.check_consistency().unwrap();
        let mut buf = [0u8; BLOCK_SIZE];
        for (&b, &v) in &model {
            p.read(b, &mut buf).unwrap();
            prop_assert_eq!(buf, blk(v), "block {} diverged from model", b);
        }
        p.flush_all().unwrap();
    }

    /// Crashing interleavings: stage every window, publish an arbitrary
    /// subset in an arbitrary order, optionally sequence (with a trip
    /// armed at a random persistence event), then cut power and resolve
    /// the un-fenced write-back state adversarially. After recovery the
    /// durable windows must form a contiguous ring-order prefix of the
    /// published ones, each all-or-nothing; a further crash-and-recover
    /// must judge nothing (exactly-once) and change nothing.
    ///
    /// With `recovery_trip` set, a second power cut lands inside the first
    /// recovery — among its roll-forward role switches, the `Tail` close,
    /// the tag scrub or the descriptor retire — and the recovery after it
    /// must reach the classification an uninterrupted recovery of the
    /// same image reaches, resuming no window more than once in total.
    #[test]
    fn mw_crash_recovers_contiguous_prefix_exactly_once(
        lens in proptest::collection::vec(1..=3usize, 1..=6),
        stage_keys in proptest::collection::vec(any::<u64>(), 6),
        publish_mask in proptest::collection::vec(any::<bool>(), 6),
        pub_keys in proptest::collection::vec(any::<u64>(), 6),
        sequence in proptest::option::of(proptest::option::of(1..48u64)),
        crash_seed in proptest::option::of(any::<u64>()),
        recovery_trip in proptest::option::of(1..64u64),
    ) {
        quiet_crash_panics();
        let round = Round { lens, stage_keys, publish_mask, pub_keys, sequence, crash_seed };
        let cut = round.cut();
        let (devices, disk, windows) = (&cut.devices, &cut.disk, &cut.windows);

        // What an uninterrupted recovery of the same image classifies.
        let reference = recovery_trip.map(|_| {
            let uncut = round.cut();
            let r = TincaPool::recover(uncut.devices, uncut.disk, mw_cfg()).unwrap();
            classify(&r, &uncut.windows)
        });
        // Resumes counted over every recovery that returned.
        let mut resumed = 0u64;
        if let Some(trip) = recovery_trip {
            devices[0].set_trip(Some(trip));
            let first = catch_unwind(AssertUnwindSafe(|| {
                TincaPool::recover(devices.clone(), disk.clone(), mw_cfg())
            }));
            devices[0].set_trip(None);
            match first {
                // The trip lay past the recovery's last event.
                Ok(r) => resumed += r.unwrap().shard_stats(0).mw_windows_resumed,
                Err(p) => assert!(p.is::<CrashTripped>(), "recovery panicked"),
            }
            devices[0].crash(CrashPolicy::Random(crash_seed.unwrap_or(trip)));
        }

        let r = TincaPool::recover(devices.clone(), disk.clone(), mw_cfg()).unwrap();
        r.check_consistency().unwrap();
        let durable = classify(&r, windows);
        if let Some(reference) = reference {
            prop_assert_eq!(
                &durable, &reference,
                "a cut inside recovery changed its outcome"
            );
        }
        let p_len = durable.iter().take_while(|&&d| d).count();
        prop_assert!(
            durable.iter().skip(p_len).all(|&d| !d),
            "durable windows not a contiguous ring prefix: {:?}",
            durable
        );
        prop_assert!(
            p_len <= cut.max_prefix,
            "unpublished window became durable: {} > {}",
            p_len,
            cut.max_prefix
        );
        if round.sequence.is_some() && !cut.tripped {
            // Sequencing completed before the cut: Head and Tail were
            // fenced durable, so the crash cannot shrink the prefix.
            prop_assert_eq!(
                p_len, cut.max_prefix,
                "fully sequenced prefix lost to the crash"
            );
        }
        let mut buf = [0u8; BLOCK_SIZE];
        for &b in &BYSTANDERS {
            r.read_nocache(b, &mut buf).unwrap();
            prop_assert_eq!(buf, blk(9), "bystander block {} damaged", b);
        }
        resumed += r.shard_stats(0).mw_windows_resumed;
        prop_assert!(
            resumed as usize <= p_len,
            "resumed {} windows but only {} are durable",
            resumed,
            p_len
        );

        // Exactly-once: recovery already resumed or rolled back every
        // in-flight window, so a further crash-and-recover judges nothing
        // and the visible state is unchanged.
        drop(r);
        devices[0].crash(CrashPolicy::LoseVolatile);
        let r2 = TincaPool::recover(devices.clone(), disk.clone(), mw_cfg()).unwrap();
        r2.check_consistency().unwrap();
        let st2 = r2.shard_stats(0);
        prop_assert_eq!(st2.mw_windows_resumed, 0, "window resumed twice");
        prop_assert_eq!(st2.mw_windows_rolled_back, 0, "window rolled back twice");
        let durable2 = classify(&r2, windows);
        prop_assert_eq!(durable, durable2, "second recovery changed state");
    }
}

/// Blocks outside every window; each crash image holds them at 9.
const BYSTANDERS: [u64; 2] = [60, 61];

/// The generated inputs of one crashing round.
struct Round {
    lens: Vec<usize>,
    stage_keys: Vec<u64>,
    publish_mask: Vec<bool>,
    pub_keys: Vec<u64>,
    sequence: Option<Option<u64>>,
    crash_seed: Option<u64>,
}

/// A round's power-cut image, ready to recover.
struct Cut {
    devices: Vec<Nvm>,
    disk: Disk,
    windows: Vec<WindowSpec>,
    /// The longest published ring-order prefix — the most that can ever
    /// become durable.
    max_prefix: usize,
    /// Whether the sequencing trip fired.
    tripped: bool,
}

impl Round {
    /// Replays the round on fresh devices up to and including the power
    /// cut. Deterministic: two calls build identical images.
    fn cut(&self) -> Cut {
        let devices = shard_devices(&NvmConfig::new(1 << 20, NvmTech::Pcm), 1);
        let disk = SimDisk::new(DiskKind::Ssd, 1 << 20, SimClock::new());
        let p = TincaPool::format(devices.clone(), disk.clone(), mw_cfg());
        let windows = window_specs(&self.lens);
        let k = windows.len();

        // Base state: every window block plus the bystanders hold 9.
        let mut base = p.init_txn();
        for w in &windows {
            for &b in &w.blocks {
                base.write(b, &blk(9));
            }
        }
        for &b in &BYSTANDERS {
            base.write(b, &blk(9));
        }
        p.commit(base).unwrap();

        // Reserve all windows in order; stage in a permuted order.
        let mut tickets: Vec<(usize, MwTicket)> = Vec::new();
        for w in &windows {
            let mut txn = p.init_txn();
            for &b in &w.blocks {
                txn.write(b, &blk(w.fill));
            }
            let MwAdmission::Admitted(t) = p.mw_try_begin(txn).unwrap() else {
                panic!("disjoint windows must admit");
            };
            tickets.push((tickets.len(), t));
        }
        for (_, t) in permute(tickets.iter_mut().collect(), &self.stage_keys) {
            p.mw_stage(t);
        }

        // Publish the masked subset in a permuted order.
        let published: Vec<bool> = (0..k).map(|i| self.publish_mask[i]).collect();
        let to_publish: Vec<(usize, MwTicket)> =
            tickets.into_iter().filter(|(i, _)| published[*i]).collect();
        for (_, t) in permute(to_publish, &self.pub_keys) {
            p.mw_publish(t);
        }
        let max_prefix = published.iter().take_while(|&&p| p).count();

        // Optionally sequence, possibly tripping a crash mid-way.
        let mut tripped = false;
        if let Some(trip) = self.sequence {
            if let Some(at) = trip {
                devices[0].set_trip(Some(at));
            }
            loop {
                match catch_unwind(AssertUnwindSafe(|| p.mw_sequence(0))) {
                    Ok(0) => break,
                    Ok(_) => continue,
                    Err(_) => {
                        tripped = true;
                        break;
                    }
                }
            }
            devices[0].set_trip(None);
        }

        // Power cut: resolve un-fenced write-backs adversarially.
        drop(p);
        match self.crash_seed {
            Some(s) => devices[0].crash(CrashPolicy::Random(s)),
            None => devices[0].crash(CrashPolicy::LoseVolatile),
        }
        Cut {
            devices,
            disk,
            windows,
            max_prefix,
            tripped,
        }
    }
}

/// Classifies each window after a recovery: all-new (`true`), all-old
/// (`false`), or torn (a panic).
fn classify(pool: &TincaPool, windows: &[WindowSpec]) -> Vec<bool> {
    let mut buf = [0u8; BLOCK_SIZE];
    windows
        .iter()
        .map(|w| {
            let mut news = 0;
            for &b in &w.blocks {
                pool.read_nocache(b, &mut buf).unwrap();
                assert!(
                    buf.iter().all(|&x| x == buf[0]),
                    "torn payload in block {b}"
                );
                match buf[0] {
                    v if v == w.fill => news += 1,
                    9 => {}
                    v => panic!("block {b} holds foreign value {v}"),
                }
            }
            assert!(
                news == 0 || news == w.blocks.len(),
                "window torn: {news}/{} blocks new",
                w.blocks.len()
            );
            news > 0
        })
        .collect()
}
