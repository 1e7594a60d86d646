//! The per-thread recorder behind the [`crate::span`]/[`crate::charge`]
//! facade: a phase tree keyed by `(parent, name)`, metric registries, and
//! an optional bounded event buffer.

use std::collections::{BTreeMap, HashMap};

use crate::clock::SimClock;
use crate::hist::Histogram;
use crate::report::{PhaseNode, TelemetryReport};

/// Recorder configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Record individual span events (needed for JSONL event streams and
    /// chrome://tracing output). Phase totals are always recorded.
    pub record_events: bool,
    /// Cap on buffered events; spans beyond it bump `dropped_events`
    /// instead of growing the buffer without bound.
    pub max_events: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            record_events: false,
            max_events: 200_000,
        }
    }
}

impl Config {
    /// Config with event recording on (bounded by the default cap).
    pub fn with_events() -> Self {
        Config {
            record_events: true,
            ..Config::default()
        }
    }
}

/// One completed span occurrence (only kept when `record_events` is set).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Phase name (from the [`crate::phase`] taxonomy).
    pub name: &'static str,
    /// Simulated time at span entry.
    pub start_ns: u64,
    /// Simulated time at span exit.
    pub end_ns: u64,
    /// Nesting depth at entry (root-level spans are 0).
    pub depth: u32,
}

/// A phase-tree node: one `name` as observed under one parent.
struct Node {
    name: &'static str,
    parent: u32,
    total_ns: u64,
    count: u64,
}

/// An open span on the stack.
struct Frame {
    node: u32,
    start_ns: u64,
}

/// Accumulates spans, charges, and metrics for one thread.
pub(crate) struct Recorder {
    clock: SimClock,
    cfg: Config,
    start_ns: u64,
    nodes: Vec<Node>,
    lookup: HashMap<(u32, &'static str), u32>,
    stack: Vec<Frame>,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, i64>,
    hists: BTreeMap<&'static str, Histogram>,
    events: Vec<Event>,
    dropped_events: u64,
}

impl Recorder {
    pub(crate) fn new(clock: SimClock, cfg: Config) -> Self {
        let start_ns = clock.now_ns();
        Recorder {
            clock,
            cfg,
            start_ns,
            // Node 0 is the synthetic root covering the whole recording.
            nodes: vec![Node {
                name: "",
                parent: 0,
                total_ns: 0,
                count: 0,
            }],
            lookup: HashMap::new(),
            stack: Vec::new(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            hists: BTreeMap::new(),
            events: Vec::new(),
            dropped_events: 0,
        }
    }

    /// Node index for `name` under `parent`, creating it on first sight.
    fn intern(&mut self, parent: u32, name: &'static str) -> u32 {
        if let Some(&idx) = self.lookup.get(&(parent, name)) {
            return idx;
        }
        let idx = self.nodes.len() as u32;
        self.nodes.push(Node {
            name,
            parent,
            total_ns: 0,
            count: 0,
        });
        self.lookup.insert((parent, name), idx);
        idx
    }

    fn current(&self) -> u32 {
        self.stack.last().map_or(0, |f| f.node)
    }

    /// Opens a span named `name` under the current span.
    pub(crate) fn enter(&mut self, name: &'static str) {
        let parent = self.current();
        let node = self.intern(parent, name);
        let start_ns = self.clock.now_ns();
        self.stack.push(Frame { node, start_ns });
    }

    /// Closes the innermost open span, attributing elapsed simulated ns.
    pub(crate) fn exit(&mut self) {
        let Some(frame) = self.stack.pop() else {
            return;
        };
        let end_ns = self.clock.now_ns();
        let ns = end_ns.saturating_sub(frame.start_ns);
        let node = &mut self.nodes[frame.node as usize];
        node.total_ns += ns;
        node.count += 1;
        let name = node.name;
        self.hists.entry(name).or_default().record(ns);
        if self.cfg.record_events {
            if self.events.len() < self.cfg.max_events {
                self.events.push(Event {
                    name,
                    start_ns: frame.start_ns,
                    end_ns,
                    depth: self.stack.len() as u32,
                });
            } else {
                self.dropped_events += 1;
            }
        }
    }

    /// Attributes `ns` already-charged simulated nanoseconds to a leaf
    /// phase `cat` under the current span, without opening a span (for
    /// device charge points that advance the clock in one shot).
    pub(crate) fn charge(&mut self, cat: &'static str, ns: u64) {
        let parent = self.current();
        let node = self.intern(parent, cat);
        let n = &mut self.nodes[node as usize];
        n.total_ns += ns;
        n.count += 1;
        self.hists.entry(cat).or_default().record(ns);
    }

    /// Adds `n` to the counter `name`.
    pub(crate) fn count(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Bumps the occurrence count of leaf phase `name` under the current
    /// span without attributing any simulated time (and without touching
    /// the latency histograms). Used for per-phase event tallies — e.g.
    /// flush/fence perf smells — where *where in the tree* the event
    /// happened is the datum, not how long it took.
    pub(crate) fn mark(&mut self, name: &'static str, n: u64) {
        let parent = self.current();
        let node = self.intern(parent, name);
        self.nodes[node as usize].count += n;
    }

    /// Sets the gauge `name` to `v`.
    pub(crate) fn gauge(&mut self, name: &'static str, v: i64) {
        self.gauges.insert(name, v);
    }

    /// Records `v` into the histogram `name`.
    pub(crate) fn observe(&mut self, name: &'static str, v: u64) {
        self.hists.entry(name).or_default().record(v);
    }

    /// Rebinds the recorder to a different simulated clock (crash
    /// campaigns build a fresh stack — and clock — per seed). Open spans
    /// would straddle two timelines, so the span stack must be empty.
    pub(crate) fn swap_clock(&mut self, clock: &SimClock) {
        debug_assert!(
            self.stack.is_empty(),
            "swap_clock with open spans would attribute time across clocks"
        );
        self.clock = clock.clone();
        self.start_ns = self.start_ns.min(clock.now_ns());
    }

    /// Closes out the recording and builds the report. Any spans still
    /// open (e.g. a panic unwound past their guards without dropping them)
    /// are attributed up to "now".
    pub(crate) fn finish(mut self) -> TelemetryReport {
        while !self.stack.is_empty() {
            self.exit();
        }
        let end_ns = self.clock.now_ns();
        self.nodes[0].total_ns = end_ns.saturating_sub(self.start_ns);

        // Materialise paths and child lists (nodes[] is parent-before-child
        // by construction: a child is interned while its parent is open).
        let mut phases: Vec<PhaseNode> = Vec::with_capacity(self.nodes.len());
        for (i, n) in self.nodes.iter().enumerate() {
            let path = if i == 0 {
                String::new()
            } else if n.parent == 0 {
                n.name.to_string()
            } else {
                format!("{}/{}", phases[n.parent as usize].path, n.name)
            };
            phases.push(PhaseNode {
                name: n.name.to_string(),
                path,
                parent: (i != 0).then_some(n.parent as usize),
                children: Vec::new(),
                total_ns: n.total_ns,
                count: n.count,
            });
        }
        for i in 1..phases.len() {
            let p = phases[i].parent.unwrap_or(0);
            phases[p].children.push(i);
        }

        TelemetryReport {
            phases,
            counters: self
                .counters
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            gauges: self
                .gauges
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            hists: self
                .hists
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            events: self.events,
            dropped_events: self.dropped_events,
            total_ns: end_ns.saturating_sub(self.start_ns),
        }
    }
}
