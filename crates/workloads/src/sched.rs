//! One seeded step scheduler for every multi-writer run.
//!
//! A writer is a step machine over the pool's own steps, and [`Sched`]
//! picks which writer steps next. A read, a mutex-pool commit and a
//! spanning commit are one step each (a spanning commit waits until no
//! window is outstanding: the pool quiesces its shards). A ring-pool
//! commit is five: **reserve** (blocked while the pool answers `Busy`),
//! **register** (until then its ring range is a hole the sequencer must
//! not pass), **stage**, **publish** and **sequence** (blocked until its
//! own window has retired). Each step runs under its writer's
//! [`nvmsim::set_trace_thread`] id, so the race rules see one thread per
//! writer; a run whose unfinished writers are all blocked panics.
//!
//! * [`Policy::Rounds`]: each writer takes one operation and steps it, in
//!   writer order, up to its publish (a reservation refused for capacity
//!   first retires what the round staged); round `r`'s windows then
//!   publish in writer order rotated left by `r` mod their count, and
//!   sequence in that order.
//! * [`Policy::Seeded`]: a seeded random pick among the writers that can
//!   step, reaching the holes, out-of-order publications and capacity
//!   retries real threads would, replayably.

use blockdev::BLOCK_SIZE;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tinca::{MwAdmission, MwReservation, MwTicket, TincaPool, Txn};

/// Writer `w` steps as trace thread `TRACE_BASE + w`.
const TRACE_BASE: u32 = 2000;
const DEADLOCK: &str = "scheduler deadlock: every unfinished writer is blocked";

/// How [`Sched`] picks the next writer to step (module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    Rounds,
    Seeded(u64),
}

/// Runs a [`Script`]'s writers on one pool.
#[derive(Clone, Copy, Debug)]
pub struct Sched {
    pub policy: Policy,
}

/// One operation of a writer.
pub enum Op {
    Read(u64),
    /// A transaction; on a ring pool it must touch one shard.
    Commit(Txn),
    /// A transaction that touches several shards.
    Spanning(Txn),
    /// Nothing, this round.
    Idle,
}

/// Where the writers' operations come from, and what hears of them.
pub trait Script {
    /// Writer `w`'s next operation, or `None` once it has none left.
    fn next(&mut self, w: usize, pool: &TincaPool) -> Option<Op>;
    /// Writer `w`'s transaction is about to reach the devices: it holds
    /// its reservation, or its one-step commit starts.
    fn begin(&mut self, _w: usize) {}
    /// Writer `w`'s operation took effect. Windows that one step retires
    /// are reported in reservation order, which on each shard is ring
    /// order.
    fn done(&mut self, _w: usize) {}
}

/// Where a writer stands.
enum At {
    Idle,
    Done,
    /// Blocked at its first step: a refused reservation, or a spanning
    /// commit waiting out the windows.
    Waiting(Op),
    Register(MwReservation),
    Stage(MwTicket),
    Publish(MwTicket),
    /// Published on a shard, as its window ordinal.
    Sequence(usize, u64),
}

impl Sched {
    /// Runs `writers` writers until each is out of operations.
    pub fn run(&self, pool: &TincaPool, writers: usize, script: &mut impl Script) {
        let trace = nvmsim::trace_thread();
        let mut run = Run {
            pool,
            script,
            at: (0..writers).map(|_| At::Idle).collect(),
            windows: Vec::new(),
        };
        match self.policy {
            Policy::Rounds => run.rounds(),
            Policy::Seeded(seed) => run.seeded(seed),
        }
        nvmsim::set_trace_thread(trace);
    }
}

struct Run<'a, S> {
    pool: &'a TincaPool,
    script: &'a mut S,
    at: Vec<At>,
    /// The writers holding a window, in reservation order.
    windows: Vec<usize>,
}

impl<S: Script> Run<'_, S> {
    fn seeded(&mut self, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        // The writers that made no progress since anyone last did.
        let mut blocked = vec![false; self.at.len()];
        loop {
            let ready: Vec<usize> = (0..self.at.len())
                .filter(|&w| !blocked[w] && !matches!(self.at[w], At::Done))
                .collect();
            if ready.is_empty() {
                assert!(!blocked.contains(&true), "{DEADLOCK}");
                return;
            }
            let w = ready[rng.gen_range(0..ready.len())];
            if self.step(w) {
                blocked.fill(false);
            } else {
                blocked[w] = true;
            }
        }
    }

    fn rounds(&mut self) {
        for round in 0.. {
            if self.at.iter().all(|a| matches!(a, At::Done)) {
                return;
            }
            let mut staged = Vec::new();
            for w in 0..self.at.len() {
                loop {
                    let progress = self.step(w);
                    match self.at[w] {
                        At::Publish(_) => break staged.push(w),
                        At::Idle | At::Done => break,
                        // A reservation refused for capacity.
                        _ if !progress => {
                            assert!(!staged.is_empty(), "{DEADLOCK}");
                            self.flush(&mut staged, round);
                        }
                        _ => {}
                    }
                }
            }
            self.flush(&mut staged, round);
        }
    }

    /// Publishes the `staged` windows rotated by `round`, and sequences
    /// them in that order.
    fn flush(&mut self, staged: &mut Vec<usize>, round: usize) {
        let rot = round % staged.len().max(1);
        staged.rotate_left(rot);
        for &w in staged.iter() {
            self.step(w);
        }
        for w in staged.drain(..) {
            while matches!(self.at[w], At::Sequence(..)) {
                assert!(self.step(w), "{DEADLOCK}");
            }
        }
    }

    /// One step of writer `w`, under its trace id; whether it made
    /// progress.
    fn step(&mut self, w: usize) -> bool {
        nvmsim::set_trace_thread(TRACE_BASE + w as u32);
        let pool = self.pool;
        let (at, progress) = match std::mem::replace(&mut self.at[w], At::Done) {
            At::Done => (At::Done, true),
            At::Idle => match self.script.next(w, pool) {
                None => (At::Done, true),
                Some(op) => self.start(w, op),
            },
            At::Waiting(op) => self.start(w, op),
            At::Register(r) => (At::Stage(pool.mw_register(r).expect("register")), true),
            At::Stage(mut ticket) => {
                pool.mw_stage(&mut ticket);
                (At::Publish(ticket), true)
            }
            At::Publish(ticket) => {
                let (shard, ordinal) = (ticket.shard(), ticket.ordinal());
                pool.mw_publish(ticket);
                (At::Sequence(shard, ordinal), true)
            }
            At::Sequence(shard, ordinal) => {
                let retired = pool.mw_sequence(shard);
                self.at[w] = At::Sequence(shard, ordinal);
                self.retire();
                return retired > 0;
            }
        };
        self.at[w] = at;
        progress
    }

    /// The first step of an operation.
    fn start(&mut self, w: usize, op: Op) -> (At, bool) {
        let pool = self.pool;
        match op {
            Op::Idle => (At::Idle, true),
            Op::Read(b) => {
                pool.read(b, &mut [0; BLOCK_SIZE]).expect("read");
                self.script.done(w);
                (At::Idle, true)
            }
            Op::Commit(txn) if pool.commit_concurrency() > 1 => {
                match pool.mw_reserve(txn).expect("reserve") {
                    MwAdmission::Admitted(r) => {
                        self.windows.push(w);
                        self.script.begin(w);
                        (At::Register(r), true)
                    }
                    MwAdmission::Busy(txn) => (At::Waiting(Op::Commit(txn)), false),
                }
            }
            Op::Spanning(txn) if !self.windows.is_empty() => {
                (At::Waiting(Op::Spanning(txn)), false)
            }
            Op::Commit(txn) | Op::Spanning(txn) => {
                self.script.begin(w);
                pool.commit(txn).expect("commit");
                self.script.done(w);
                (At::Idle, true)
            }
        }
    }

    /// Finishes every writer whose window has retired, in reservation
    /// order.
    fn retire(&mut self) {
        let (pool, at) = (self.pool, &self.at);
        let (retired, open): (Vec<usize>, _) = self.windows.iter().partition(
            |&&v| matches!(at[v], At::Sequence(shard, ordinal) if pool.mw_retired(shard, ordinal)),
        );
        self.windows = open;
        for v in retired {
            self.at[v] = At::Idle;
            self.script.done(v);
        }
    }
}
