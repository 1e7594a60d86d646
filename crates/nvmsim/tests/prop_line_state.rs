//! Differential property test of the device's line state (dense line index
//! over a slab, per-call charging, whole-line write-back) against the
//! `HashMap`-overlay reference model in `refmodel`: random scripts drive
//! both, and after every step every observable must agree — bytes, the
//! persistent image, counters, the simulated clock, the event counter,
//! per-line wear, poison, and the trace stream.

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
    Poison {
        addr: usize,
    },
    ClearPoison {
        addr: usize,
    },
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
        2 => (0..CAP).prop_map(|addr| Op::Poison { addr }),
        1 => (0..CAP).prop_map(|addr| Op::ClearPoison { addr }),
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
    prop_assert_eq!(dev.poisoned_lines(), model.poisoned_lines());
    for (addr, len) in [(0, CAP), (CAP / 2, CAP / 2), (CAP / 4, 4096), (100, 64)] {
        prop_assert_eq!(dev.check_poison(addr, len), model.check_poison(addr, len));
    }
    prop_assert_eq!(
        dev.trace_snapshot(),
        model.trace_snapshot(),
        "trace after {}",
        step
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn line_state_matches_the_hashmap_reference(
        script in proptest::collection::vec(ops(), 1..70),
        traced in any::<bool>(),
        clwb in any::<bool>(),
    ) {
        silence_trip_panics();
        let mut cfg = NvmConfig::new(CAP, NvmTech::Pcm);
        cfg.trace_events = traced;
        if clwb {
            cfg = cfg.with_flush_instr(FlushInstr::Clwb);
        }
        let dev = NvmDevice::new(cfg.clone(), SimClock::new());
        let mut model = RefDevice::new(cfg, SimClock::new());
        // The open diversion scope and the clock it charges, if any.
        let mut scope = None;

        for (i, op) in script.iter().enumerate() {
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
                Op::Flush { addr, len } => {
                    (tripped(|| dev.clflush(addr, len)), model.clflush(addr, len))
                }
                Op::Fence => (tripped(|| dev.sfence()), model.sfence()),
                Op::Poison { addr } => {
                    dev.poison(addr);
                    model.poison(addr);
                    (None, None)
                }
                Op::ClearPoison { addr } => {
                    dev.clear_poison(addr);
                    model.clear_poison(addr);
                    (None, None)
                }
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
                Op::ToggleDivert => {
                    if scope.take().is_none() {
                        let (real, shadow) = (SimClock::new(), SimClock::new());
                        model.diverted = Some(shadow.clone());
                        scope = Some((divert_charges(real.clone()), real, shadow));
                    } else {
                        model.diverted = None;
                    }
                    (None, None)
                }
            };
            prop_assert_eq!(fired.0, fired.1, "trip at step {} {:?}", i, op);
            if fired.0.is_some() {
                // A fired trip stays armed; disarm so the rest of the
                // script is not one trip per event.
                dev.set_trip(None);
                model.set_trip(None);
            }
            assert_same(&dev, &mut model, &format!("step {i} {op:?}"))?;
            if let Some((_, real, shadow)) = &scope {
                prop_assert_eq!(real.now_ns(), shadow.now_ns(), "diverted clock at step {}", i);
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
    let script = [
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
    ];
    for traced in [false, true] {
        let mut cfg = NvmConfig::new(CAP, NvmTech::Pcm);
        cfg.trace_events = traced;
        let dev = NvmDevice::new(cfg.clone(), SimClock::new());
        let mut model = RefDevice::new(cfg, SimClock::new());
        for (i, op) in script.iter().enumerate() {
            match *op {
                Op::Write { addr, len, salt } => {
                    dev.write(addr, &pattern(len, salt));
                    model.write(addr, &pattern(len, salt));
                }
                Op::Flush { addr, len } => {
                    dev.clflush(addr, len);
                    model.clflush(addr, len);
                }
                Op::Fence => {
                    dev.sfence();
                    model.sfence();
                }
                _ => {
                    dev.crash(CrashPolicy::PersistAll);
                    model.crash(CrashPolicy::PersistAll);
                }
            }
            assert_same(&dev, &mut model, &format!("step {i} {op:?}")).unwrap();
        }
    }
}
