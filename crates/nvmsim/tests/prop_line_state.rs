//! Differential property test of the device's line state (dense line index
//! over a slab, per-call charging, whole-line write-back) against the
//! `HashMap`-overlay reference model in `refmodel`: random scripts drive
//! both, and after every step every observable must agree — bytes, the
//! persistent image, counters, the simulated clock, the event counter,
//! per-line wear, and the trace stream.

mod refmodel;

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

use nvmsim::{
    divert_charges, CrashPolicy, CrashTripped, FlushInstr, Nvm, NvmConfig, NvmDevice, NvmTech,
    SimClock, CACHE_LINE,
};
use proptest::prelude::*;
use refmodel::RefDevice;

/// Room for an 8 200-byte store at any offset, small enough to compare
/// whole images after every step.
const CAP: usize = 32 << 10;
const MAX_WRITE: usize = 8200;

#[derive(Clone, Debug)]
enum Op {
    Write {
        addr: usize,
        len: usize,
        salt: u8,
    },
    Read {
        addr: usize,
        len: usize,
    },
    Atomic8 {
        word: usize,
        val: u64,
    },
    Atomic16 {
        pair: usize,
        val: u128,
    },
    Flush {
        addr: usize,
        len: usize,
    },
    Fence,
    SetTrip {
        after: Option<u64>,
    },
    Crash {
        policy: u8,
        seed: u64,
    },
    /// Keeps staged line `l` iff bit `l % 64` of `keep` is set.
    CrashFrontier {
        keep: u64,
    },
    NoteCommit {
        addr: usize,
    },
    TakeTrace,
    /// Opens (or, if one is open, closes) a `divert_charges` scope.
    ToggleDivert,
}

fn ops() -> impl Strategy<Value = Op> {
    // Extents are drawn as (start, length-selector) and clamped into range,
    // which keeps short and line-crossing accesses common.
    let extent = |max_len: usize| {
        (0..CAP, 0..3u8, 1..=max_len).prop_map(move |(addr, class, len)| {
            let len = match class {
                0 => len % 24 + 1,
                1 => len % 700 + 1,
                _ => len,
            };
            let len = len.min(CAP - addr);
            (addr, len)
        })
    };
    prop_oneof![
        8 => (extent(MAX_WRITE), any::<u8>())
            .prop_map(|((addr, len), salt)| Op::Write { addr, len, salt }),
        // Aligned whole lines, which the device stores without first reading
        // the line in.
        3 => (0..CAP / CACHE_LINE, 1..=4usize, any::<u8>()).prop_map(|(line, n, salt)| {
            let addr = line * CACHE_LINE;
            Op::Write { addr, len: (n * CACHE_LINE).min(CAP - addr), salt }
        }),
        3 => extent(MAX_WRITE).prop_map(|(addr, len)| Op::Read { addr, len }),
        3 => (0..CAP / 8, any::<u64>()).prop_map(|(word, val)| Op::Atomic8 { word, val }),
        3 => (0..CAP / 16, any::<u128>()).prop_map(|(pair, val)| Op::Atomic16 { pair, val }),
        8 => extent(MAX_WRITE).prop_map(|(addr, len)| Op::Flush { addr, len }),
        5 => Just(Op::Fence),
        2 => proptest::option::of(1..40u64).prop_map(|after| Op::SetTrip { after }),
        2 => (0..3u8, any::<u64>()).prop_map(|(policy, seed)| Op::Crash { policy, seed }),
        1 => any::<u64>().prop_map(|keep| Op::CrashFrontier { keep }),
        1 => (0..CAP - 8).prop_map(|addr| Op::NoteCommit { addr }),
        1 => Just(Op::TakeTrace),
        1 => Just(Op::ToggleDivert),
    ]
}

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
        .collect()
}

/// Runs a device call that may throw an armed trip; returns the event it
/// fired at, like the model's return value.
fn tripped(f: impl FnOnce()) -> Option<u64> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(()) => None,
        Err(payload) => Some(
            payload
                .downcast_ref::<CrashTripped>()
                .expect("only an armed trip may unwind out of the device")
                .event,
        ),
    }
}

/// Keeps the expected trip panics out of the test output.
fn silence_trip_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !info.payload().is::<CrashTripped>() {
                default(info);
            }
        }));
    });
}

fn assert_same(dev: &Nvm, model: &mut RefDevice, step: &str) -> Result<(), TestCaseError> {
    let (mut a, mut b) = (vec![0u8; CAP], vec![0u8; CAP]);
    dev.read_persistent(0, &mut a);
    model.read_persistent(0, &mut b);
    prop_assert!(a == b, "persistent image differs after {step}");
    // A full-range load: which lines are cached decides what it costs, so
    // the clock comparison below also pins overlay residency.
    dev.read(0, &mut a);
    model.read(0, &mut b);
    prop_assert!(a == b, "volatile view differs after {step}");
    prop_assert_eq!(dev.stats(), model.stats(), "stats after {}", step);
    prop_assert_eq!(
        dev.clock().now_ns(),
        model.clock().now_ns(),
        "device clock after {}",
        step
    );
    prop_assert_eq!(dev.events(), model.events(), "events after {}", step);
    for line in 0..CAP / CACHE_LINE {
        let addr = line * CACHE_LINE;
        prop_assert_eq!(
            dev.wear_of(addr),
            model.wear_of(addr),
            "wear of line {} after {}",
            line,
            step
        );
    }
    prop_assert_eq!(
        dev.trace_snapshot(),
        model.trace_snapshot(),
        "trace after {}",
        step
    );
    Ok(())
}

/// Applies `op` (anything but [`Op::ToggleDivert`], which needs the
/// caller's scope) to both sides; returns the event each one tripped at.
fn step(
    dev: &Nvm,
    model: &mut RefDevice,
    op: &Op,
) -> Result<(Option<u64>, Option<u64>), TestCaseError> {
    let fired = match *op {
        Op::Write { addr, len, salt } => {
            let data = pattern(len, salt);
            dev.write(addr, &data);
            model.write(addr, &data);
            (None, None)
        }
        Op::Read { addr, len } => {
            let (mut a, mut b) = (vec![0u8; len], vec![0u8; len]);
            dev.read(addr, &mut a);
            model.read(addr, &mut b);
            prop_assert_eq!(a, b, "read {}+{}", addr, len);
            (None, None)
        }
        Op::Atomic8 { word, val } => (
            tripped(|| dev.atomic_write_u64(word * 8, val)),
            model.atomic_write_u64(word * 8, val),
        ),
        Op::Atomic16 { pair, val } => (
            tripped(|| dev.atomic_write_u128(pair * 16, val)),
            model.atomic_write_u128(pair * 16, val),
        ),
        Op::Flush { addr, len } => (tripped(|| dev.clflush(addr, len)), model.clflush(addr, len)),
        Op::Fence => (tripped(|| dev.sfence()), model.sfence()),
        Op::SetTrip { after } => {
            dev.set_trip(after);
            model.set_trip(after);
            (None, None)
        }
        Op::Crash { policy, seed } => {
            let policy = match policy {
                0 => CrashPolicy::LoseVolatile,
                1 => CrashPolicy::PersistAll,
                _ => CrashPolicy::Random(seed),
            };
            dev.crash(policy);
            model.crash(policy);
            (None, None)
        }
        Op::CrashFrontier { keep } => {
            let keep: HashSet<usize> = model
                .staged_lines()
                .into_iter()
                .filter(|l| keep >> (l % 64) & 1 == 1)
                .collect();
            dev.crash_frontier(&keep);
            model.crash_frontier(&keep);
            (None, None)
        }
        Op::NoteCommit { addr } => {
            dev.note_commit(addr, 8);
            model.note_commit(addr, 8);
            (None, None)
        }
        Op::TakeTrace => {
            prop_assert_eq!(dev.take_trace(), model.take_trace());
            (None, None)
        }
        Op::ToggleDivert => unreachable!("the script loop owns the diversion scope"),
    };
    Ok(fired)
}

/// Drives a fresh device and a fresh reference through `script`; after
/// every step the two agree on every observable, and on the event an
/// armed trip fired at. A fired trip is then disarmed, so the rest of the
/// script is not one trip per event.
fn check_script(script: &[Op], cfg: NvmConfig) -> Result<(), TestCaseError> {
    silence_trip_panics();
    let dev = NvmDevice::new(cfg.clone(), SimClock::new());
    let mut model = RefDevice::new(cfg, SimClock::new());
    // The open diversion scope and the clock it charges, if any.
    let mut scope = None;
    for (i, op) in script.iter().enumerate() {
        let fired = if let Op::ToggleDivert = op {
            if scope.take().is_none() {
                let (real, shadow) = (SimClock::new(), SimClock::new());
                model.diverted = Some(shadow.clone());
                scope = Some((divert_charges(real.clone()), real, shadow));
            } else {
                model.diverted = None;
            }
            (None, None)
        } else {
            step(&dev, &mut model, op)?
        };
        prop_assert_eq!(fired.0, fired.1, "trip at step {} {:?}", i, op);
        if fired.0.is_some() {
            dev.set_trip(None);
            model.set_trip(None);
        }
        assert_same(&dev, &mut model, &format!("step {i} {op:?}"))?;
        if let Some((_, real, shadow)) = &scope {
            prop_assert_eq!(
                real.now_ns(),
                shadow.now_ns(),
                "diverted clock at step {}",
                i
            );
        }
    }
    Ok(())
}

/// A device configuration: traced or not, `clflush` or `clwb`.
fn config(traced: bool, clwb: bool) -> NvmConfig {
    let mut cfg = NvmConfig::new(CAP, NvmTech::Pcm);
    cfg.trace_events = traced;
    if clwb {
        cfg = cfg.with_flush_instr(FlushInstr::Clwb);
    }
    cfg
}

fn script() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(ops(), 1..70)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn line_state_matches_the_hashmap_reference(
        script in script(),
        traced in any::<bool>(),
        clwb in any::<bool>(),
    ) {
        check_script(&script, config(traced, clwb))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2000, ..ProptestConfig::default() })]

    /// The same property over 2 000 scripts; run it in release builds
    /// with `--include-ignored`.
    #[test]
    #[ignore]
    fn line_state_matches_the_hashmap_reference_2000(
        script in script(),
        traced in any::<bool>(),
        clwb in any::<bool>(),
    ) {
        check_script(&script, config(traced, clwb))?;
    }
}

/// Runs a directed script under every configuration, traced and untraced
/// (the device's two `clflush` loops), with `clflush` and with `clwb`.
fn check_directed(script: &[Op]) {
    for traced in [false, true] {
        for clwb in [false, true] {
            if let Err(e) = check_script(script, config(traced, clwb)) {
                panic!("traced={traced} clwb={clwb}: {e}");
            }
        }
    }
}

/// Aligned whole-line stores onto a line in each overlay state — never
/// touched, dirty in the overlay, flushed but not yet fenced — then a
/// flush, a fence, a store over a written-back line and a power cut: the
/// device agrees with the reference after every step.
#[test]
fn whole_line_writes_match_the_reference_in_every_line_state() {
    const L: usize = CACHE_LINE;
    let write = |addr, len, salt| Op::Write { addr, len, salt };
    check_directed(&[
        // Line 4 dirty in the overlay; line 8 flushed, not fenced.
        write(4 * L + 3, 10, 1),
        write(8 * L + 40, 20, 2),
        Op::Flush {
            addr: 8 * L,
            len: L,
        },
        write(0, 2 * L, 3),
        write(4 * L, L, 4),
        write(8 * L, L, 5),
        write(3 * L, 7 * L, 6),
        Op::Flush {
            addr: 0,
            len: 12 * L,
        },
        Op::Fence,
        write(8 * L, L, 8),
        write(12 * L, L, 7),
        // Every dirty overlay line persists: a stale copy would show.
        Op::Crash { policy: 1, seed: 0 },
    ]);
}

/// One aligned store across five lines, one in each state — never
/// touched, dirty, flushed but not fenced, holding a 16-byte atomic pair,
/// and clean in the overlay (`clwb` keeps fenced lines cached) — then a
/// flush, a torn power cut, and the same store over the survivors.
#[test]
fn one_multi_line_store_spans_every_line_state() {
    const L: usize = CACHE_LINE;
    let write = |addr, len, salt| Op::Write { addr, len, salt };
    let span = write(20 * L, 5 * L, 9);
    check_directed(&[
        write(24 * L, L, 1),
        Op::Flush {
            addr: 24 * L,
            len: L,
        },
        Op::Fence,
        write(21 * L + 8, 16, 2),
        write(22 * L, 24, 3),
        Op::Flush {
            addr: 22 * L,
            len: L,
        },
        Op::Atomic16 {
            pair: 23 * L / 16 + 1,
            val: 7,
        },
        span.clone(),
        Op::Flush {
            addr: 20 * L,
            len: 5 * L,
        },
        Op::Crash {
            policy: 2,
            seed: 11,
        },
        span,
        Op::Fence,
    ]);
}

/// The trip boundary of `clflush`: a flush over `m` lines (one clean, the
/// rest dirty) with a trip armed `k` events ahead trips at its last line
/// when `k == m`, and not at all when `k == m + 1` (the next event, a
/// fence, trips instead). Untraced, only the second takes the loop that
/// counts a range's events at once; the device must trip at the
/// reference's event either way, with the same clock, counters, wear and
/// image.
#[test]
fn a_trip_at_the_last_flushed_line_or_one_past_it_fires_where_the_reference_does() {
    const L: usize = CACHE_LINE;
    for m in [1usize, 2, 6] {
        for k in [m as u64, m as u64 + 1] {
            let flush = Op::Flush {
                addr: 2 * L,
                len: m * L,
            };
            check_directed(&[
                // Line 2 stays clean; lines 3.. are dirty.
                Op::Write {
                    addr: 3 * L,
                    len: (m - 1) * L,
                    salt: 4,
                },
                Op::SetTrip { after: Some(k) },
                flush.clone(),
                Op::Fence,
                Op::Write {
                    addr: 2 * L + 8,
                    len: m * L - 8,
                    salt: 5,
                },
                flush,
                Op::Crash { policy: 0, seed: 0 },
            ]);
        }
    }
}

/// Copy-on-write: a store of every kind — whole-line, partial, 8-byte and
/// 16-byte atomic — onto a line that a flush staged (the middle line of a
/// three-line run) before its fence, sometimes flushed again, then a fence,
/// a crash under each policy, or a crash frontier. The epoch must write
/// back what was flushed, and loads must see the newer store.
#[test]
fn a_store_to_a_staged_line_leaves_the_flushed_bytes_to_the_epoch() {
    const L: usize = CACHE_LINE;
    let restores = [
        Op::Write {
            addr: 5 * L,
            len: L,
            salt: 7,
        },
        Op::Write {
            addr: 5 * L + 12,
            len: 20,
            salt: 8,
        },
        Op::Atomic8 {
            word: 5 * L / 8 + 3,
            val: 0x1122_3344_5566_7788,
        },
        Op::Atomic16 {
            pair: 5 * L / 16 + 2,
            val: u128::MAX - 5,
        },
    ];
    let ends = [
        Op::Fence,
        Op::Crash { policy: 0, seed: 0 },
        Op::Crash { policy: 1, seed: 0 },
        Op::Crash {
            policy: 2,
            seed: 21,
        },
        Op::CrashFrontier { keep: u64::MAX },
        Op::CrashFrontier { keep: 1 << 5 },
        Op::CrashFrontier {
            keep: (1 << 4) | (1 << 6),
        },
    ];
    let run = Op::Flush {
        addr: 4 * L,
        len: 3 * L,
    };
    for restore in &restores {
        for end in &ends {
            for reflush in [false, true] {
                let mut script = vec![
                    Op::Write {
                        addr: 4 * L,
                        len: 3 * L,
                        salt: 1,
                    },
                    run.clone(),
                    restore.clone(),
                    Op::Read {
                        addr: 4 * L,
                        len: 3 * L,
                    },
                ];
                if reflush {
                    // The line is staged twice in one epoch; then a third
                    // store copies it again.
                    script.extend([run.clone(), restore.clone()]);
                }
                script.extend([
                    end.clone(),
                    Op::Read {
                        addr: 4 * L,
                        len: 3 * L,
                    },
                    Op::Write {
                        addr: 5 * L,
                        len: 8,
                        salt: 9,
                    },
                    run.clone(),
                    Op::Fence,
                ]);
                check_directed(&script);
            }
        }
    }
}

/// A flush range whose lines cannot stage as one run: a line cached dirty
/// before the rest (its slot is elsewhere), partly dirty first and last
/// lines, a line holding a 16-byte atomic pair, lines stored out of order
/// or with another line's store between them. Each range is flushed whole,
/// then fenced or cut with a torn crash.
#[test]
fn a_flush_range_with_a_broken_run_stages_every_line() {
    const L: usize = CACHE_LINE;
    let write = |addr, len, salt| Op::Write { addr, len, salt };
    let flush = |addr, len| Op::Flush { addr, len };
    for end in [Op::Fence, Op::Crash { policy: 2, seed: 3 }] {
        check_directed(&[
            // Line 12 is cached dirty before lines 10..15 are stored.
            write(12 * L, L, 1),
            write(10 * L, 5 * L, 2),
            flush(10 * L, 5 * L),
            // Lines 20 and 24 partly dirty, 21 to 23 whole, in consecutive
            // slots.
            write(20 * L + 8, 5 * L - 16, 3),
            flush(20 * L, 5 * L),
            // A 16-byte atomic pair inside a whole-dirty run.
            write(30 * L, 4 * L, 4),
            Op::Atomic16 {
                pair: 32 * L / 16 + 1,
                val: 99,
            },
            flush(30 * L, 4 * L),
            // Lines stored in reverse order, and a gap in the slots.
            write(41 * L, L, 5),
            write(40 * L, L, 6),
            write(50 * L, 2 * L, 7),
            write(60 * L, L, 8),
            write(52 * L, L, 9),
            flush(40 * L, 2 * L),
            flush(50 * L, 3 * L),
            // A range partly cached: lines 70 and 71 fresh, 72 staged.
            write(72 * L, L, 10),
            flush(72 * L, L),
            write(70 * L, 2 * L, 11),
            flush(70 * L, 3 * L),
            end.clone(),
        ]);
    }
}

/// A torn crash and a crash frontier over an epoch of multi-line runs (an
/// eight-line block and a two-line one), a partly dirty line between them,
/// and dirty lines never flushed: the coins fall line by line in staging
/// order, then over the dirty lines in ascending order, as in the
/// reference.
#[test]
fn a_crash_inside_a_multi_line_run_persists_line_by_line() {
    const L: usize = CACHE_LINE;
    let epoch = [
        Op::Write {
            addr: 16 * L,
            len: 8 * L,
            salt: 1,
        },
        Op::Flush {
            addr: 16 * L,
            len: 8 * L,
        },
        Op::Write {
            addr: 3 * L + 40,
            len: 8,
            salt: 2,
        },
        Op::Flush {
            addr: 3 * L,
            len: 1,
        },
        Op::Write {
            addr: 30 * L,
            len: 2 * L,
            salt: 3,
        },
        Op::Flush {
            addr: 30 * L,
            len: 2 * L,
        },
        // Dirty, never flushed, stored in descending line order.
        Op::Write {
            addr: 9 * L,
            len: 20,
            salt: 4,
        },
        Op::Write {
            addr: 2 * L,
            len: L,
            salt: 5,
        },
    ];
    for seed in 0..8 {
        let mut script = epoch.to_vec();
        script.push(Op::Crash { policy: 2, seed });
        check_directed(&script);
    }
    for keep in [0, u64::MAX, 0x00F0_0000, 0xC000_0000_0051_0008] {
        let mut script = epoch.to_vec();
        script.push(Op::CrashFrontier { keep });
        check_directed(&script);
    }
}

/// The ways a script can end an epoch that holds whole-line runs: a
/// fence, a torn crash under a few seeds, and crash frontiers that keep
/// every staged line, none, or every other one.
fn epoch_ends() -> Vec<Op> {
    let mut ends = vec![Op::Fence, Op::Crash { policy: 0, seed: 0 }];
    ends.extend((0..3).map(|seed| Op::Crash { policy: 2, seed }));
    ends.extend([u64::MAX, 0, 0x5555_5555_5555_5555].map(|keep| Op::CrashFrontier { keep }));
    ends
}

/// A store of every kind into a six-line run one aligned store appended,
/// before the run's flush: a partial store, an 8-byte and a 16-byte
/// atomic into its middle, a whole-line re-store of its first and of a
/// middle line, and a copy-on-write into the part a flush of a sub-range
/// staged. Then the appended range is flushed whole and the epoch ends
/// every way, and the range is stored and flushed again: the device
/// agrees with the reference (per-line wear included) after every step.
#[test]
fn a_store_into_an_appended_run_before_its_flush_breaks_the_run() {
    const L: usize = CACHE_LINE;
    let run = Op::Flush {
        addr: 4 * L,
        len: 6 * L,
    };
    let breakers: [&[Op]; 6] = [
        &[Op::Write {
            addr: 6 * L + 12,
            len: 20,
            salt: 2,
        }],
        &[Op::Atomic8 {
            word: 7 * L / 8 + 5,
            val: 0x0102_0304_0506_0708,
        }],
        &[Op::Atomic16 {
            pair: 6 * L / 16 + 1,
            val: u128::MAX - 9,
        }],
        &[Op::Write {
            addr: 4 * L,
            len: L,
            salt: 3,
        }],
        &[Op::Write {
            addr: 8 * L,
            len: L,
            salt: 4,
        }],
        &[
            Op::Flush {
                addr: 5 * L,
                len: 2 * L,
            },
            Op::Write {
                addr: 6 * L + 8,
                len: 8,
                salt: 5,
            },
        ],
    ];
    for breaker in breakers {
        for end in epoch_ends() {
            let mut script = vec![Op::Write {
                addr: 4 * L,
                len: 6 * L,
                salt: 1,
            }];
            script.extend_from_slice(breaker);
            script.extend([
                run.clone(),
                end,
                Op::Write {
                    addr: 4 * L,
                    len: 6 * L,
                    salt: 6,
                },
                run.clone(),
                Op::Fence,
            ]);
            check_directed(&script);
        }
    }
}

/// Flushes that do not match an appended run: a sub-range at its start,
/// middle and end, ranges that overlap it from either side, two appended
/// runs in consecutive lines and slots flushed as one range, the rest of
/// a run after part of it was flushed, and a trip armed inside a run's
/// flush. Each epoch then ends every way.
#[test]
fn flushing_part_of_an_appended_run_or_across_one_matches_the_reference() {
    const L: usize = CACHE_LINE;
    let write = |addr, len, salt| Op::Write { addr, len, salt };
    let flush = |addr, len| Op::Flush { addr, len };
    let cases: [&[Op]; 8] = [
        &[
            write(8 * L, 6 * L, 1),
            flush(8 * L, 2 * L),
            flush(8 * L, 6 * L),
        ],
        &[
            write(8 * L, 6 * L, 1),
            flush(10 * L, 2 * L),
            flush(8 * L, 6 * L),
        ],
        &[
            write(8 * L, 6 * L, 1),
            flush(12 * L, 2 * L),
            flush(8 * L, 6 * L),
        ],
        &[write(8 * L, 6 * L, 1), flush(7 * L, 4 * L)],
        &[
            write(8 * L, 6 * L, 1),
            write(7 * L, 8, 2),
            flush(7 * L, 7 * L),
        ],
        &[
            write(8 * L, 6 * L, 1),
            flush(11 * L, 5 * L),
            flush(8 * L, 3 * L),
        ],
        &[
            write(8 * L, 3 * L, 1),
            write(11 * L, 3 * L, 2),
            flush(8 * L, 6 * L),
        ],
        &[
            write(8 * L, 6 * L, 1),
            Op::SetTrip { after: Some(3) },
            flush(8 * L, 6 * L),
            flush(8 * L, 6 * L),
        ],
    ];
    for case in cases {
        for end in epoch_ends() {
            let mut script = case.to_vec();
            script.extend([end, write(8 * L, 6 * L, 3), flush(8 * L, 6 * L), Op::Fence]);
            check_directed(&script);
        }
    }
}

/// Crashes inside epochs whose runs a flush matched to their appends: a
/// 4 KB block and a three-line run, the block's lines re-stored after
/// staging (their copy-on-write slots dirty, never flushed), under a torn
/// crash at several seeds and crash frontiers that keep lines inside the
/// block's run: the coins and the kept set fall line by line.
#[test]
fn a_crash_inside_a_run_staged_from_its_append_persists_line_by_line() {
    const L: usize = CACHE_LINE;
    let epoch = [
        Op::Write {
            addr: 64 * L,
            len: 64 * L,
            salt: 1,
        },
        Op::Flush {
            addr: 64 * L,
            len: 64 * L,
        },
        Op::Write {
            addr: 200 * L,
            len: 3 * L,
            salt: 2,
        },
        Op::Flush {
            addr: 200 * L,
            len: 3 * L,
        },
        Op::Write {
            addr: 70 * L + 16,
            len: 2 * L,
            salt: 3,
        },
    ];
    for seed in 0..6 {
        let mut script = epoch.to_vec();
        script.push(Op::Crash { policy: 2, seed });
        check_directed(&script);
    }
    for keep in [0, u64::MAX, 0x0000_00F0_0000_00C1, 0x8000_0000_0000_0100] {
        let mut script = epoch.to_vec();
        script.push(Op::CrashFrontier { keep });
        check_directed(&script);
    }
}

/// An append record does not outlive the overlay it named: a six-line
/// run is stored and never flushed, a crash (or a fence that compacts
/// the overlay around it) drops or moves its slots, then a partial store
/// and a shorter append fill the same lines again in fresh slots and the
/// old range is flushed and torn by a crash. The flush must read the
/// slots as they are now.
#[test]
fn an_append_record_does_not_outlive_a_crash_or_a_compaction() {
    const L: usize = CACHE_LINE;
    let write = |addr, len, salt| Op::Write { addr, len, salt };
    let flush = |addr, len| Op::Flush { addr, len };
    for cut in [
        vec![Op::Crash { policy: 0, seed: 0 }],
        vec![Op::Crash { policy: 1, seed: 0 }],
        vec![Op::CrashFrontier { keep: u64::MAX }],
        vec![write(2 * L, L, 4), flush(2 * L, L), Op::Fence],
    ] {
        for seed in 0..4 {
            let mut script = vec![write(8 * L, 6 * L, 1)];
            script.extend(cut.iter().cloned());
            script.extend([
                write(8 * L + 8, 16, 2),
                write(9 * L, 5 * L, 3),
                flush(8 * L, 6 * L),
                Op::Crash { policy: 2, seed },
            ]);
            check_directed(&script);
        }
    }
}
