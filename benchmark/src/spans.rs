//! Benchmark-side spans for the traced run.
//!
//! A span is recorded around every call the benchmark makes into a layer:
//! op → `Db` / `FsSim` / `TincaPool` call → `PageStore` / `BlockDevice`
//! decorator call. Each carries both clocks. The simulated clock of a span
//! is the **sum** of the stack's simulated clocks (every shard's NVM clock
//! plus the disk clock): the time a single serial client spends blocked, and
//! monotone, so a child's interval always nests inside its parent's.
//!
//! Spans stay in memory and are written out when the run ends. With no log
//! installed, [`enter`] costs one thread-local read.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use nvmsim::SimClock;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// 0 for a root (op) span.
    pub parent: u64,
    /// Id of the root span this one belongs to.
    pub op_id: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub host_start_ns: u64,
    pub host_end_ns: u64,
    pub sim_start_ns: u64,
    pub sim_end_ns: u64,
}

struct Log {
    clocks: Vec<SimClock>,
    origin: Instant,
    spans: Vec<Span>,
    /// Indices into `spans` of the open spans, outermost first.
    open: Vec<usize>,
}

impl Log {
    fn sim_now(&self) -> u64 {
        self.clocks.iter().map(SimClock::now_ns).sum()
    }

    fn host_now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

thread_local! {
    static LOG: RefCell<Option<Log>> = const { RefCell::new(None) };
}

/// Starts recording on this thread; `clocks` are all simulated clocks of
/// the stack under test.
pub fn start(clocks: Vec<SimClock>) {
    LOG.with(|l| {
        *l.borrow_mut() = Some(Log {
            clocks,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        });
    });
}

/// Stops recording and returns the spans, in the order they were opened.
pub fn finish() -> Vec<Span> {
    LOG.with(|l| l.borrow_mut().take())
        .map_or_else(Vec::new, |l| l.spans)
}

/// Closes its span when dropped.
#[must_use = "a span lasts until its guard is dropped"]
pub struct Guard(bool);

pub fn enter(layer: &'static str, name: &'static str) -> Guard {
    LOG.with(|l| {
        let mut l = l.borrow_mut();
        let Some(log) = l.as_mut() else {
            return Guard(false);
        };
        let id = log.spans.len() as u64 + 1;
        let (parent, op_id) = log.open.last().map_or((0, id), |&i| {
            let p = &log.spans[i];
            (p.id, p.op_id)
        });
        let (sim, host) = (log.sim_now(), log.host_now());
        log.open.push(log.spans.len());
        log.spans.push(Span {
            id,
            parent,
            op_id,
            layer,
            name,
            host_start_ns: host,
            host_end_ns: host,
            sim_start_ns: sim,
            sim_end_ns: sim,
        });
        Guard(true)
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.0 {
            return;
        }
        LOG.with(|l| {
            let mut l = l.borrow_mut();
            let Some(log) = l.as_mut() else { return };
            // Sample the simulated clock first so that the host interval
            // of a span covers the reads of its own clocks.
            let sim = log.sim_now();
            let host = log.host_now();
            if let Some(i) = log.open.pop() {
                log.spans[i].sim_end_ns = sim;
                log.spans[i].host_end_ns = host;
            }
        });
    }
}

/// Per-layer self times of a finished trace.
#[derive(Debug, Default)]
pub struct Summary {
    pub ops: u64,
    /// layer → (host self ns, sim self ns).
    pub self_ns: BTreeMap<&'static str, (u64, u64)>,
    pub op_host_ns: u64,
    pub op_sim_ns: u64,
}

/// Checks that the tree is well-formed — every non-root span nests inside
/// its parent in both clocks, and the per-layer self times add up to the op
/// spans — and returns the per-layer self times.
pub fn summarize(spans: &[Span]) -> Result<Summary, String> {
    let mut child_host = vec![0u64; spans.len() + 1];
    let mut child_sim = vec![0u64; spans.len() + 1];
    let mut sum = Summary::default();
    for s in spans {
        if s.host_end_ns < s.host_start_ns || s.sim_end_ns < s.sim_start_ns {
            return Err(format!("span {} ends before it starts", s.id));
        }
        if s.parent == 0 {
            sum.ops += 1;
            sum.op_host_ns += s.host_end_ns - s.host_start_ns;
            sum.op_sim_ns += s.sim_end_ns - s.sim_start_ns;
            continue;
        }
        let p = spans
            .get(s.parent as usize - 1)
            .filter(|p| p.id == s.parent && p.id < s.id)
            .ok_or_else(|| format!("span {} has no earlier parent {}", s.id, s.parent))?;
        let nested = p.host_start_ns <= s.host_start_ns
            && s.host_end_ns <= p.host_end_ns
            && p.sim_start_ns <= s.sim_start_ns
            && s.sim_end_ns <= p.sim_end_ns
            && p.op_id == s.op_id;
        if !nested {
            return Err(format!("span {} does not nest inside {}", s.id, p.id));
        }
        child_host[s.parent as usize] += s.host_end_ns - s.host_start_ns;
        child_sim[s.parent as usize] += s.sim_end_ns - s.sim_start_ns;
    }
    let (mut host_total, mut sim_total) = (0u64, 0u64);
    for s in spans {
        let host = (s.host_end_ns - s.host_start_ns)
            .checked_sub(child_host[s.id as usize])
            .ok_or_else(|| format!("children of span {} outlast it on the host clock", s.id))?;
        let sim = (s.sim_end_ns - s.sim_start_ns)
            .checked_sub(child_sim[s.id as usize])
            .ok_or_else(|| format!("children of span {} outlast it on the sim clock", s.id))?;
        let e = sum.self_ns.entry(s.layer).or_default();
        e.0 += host;
        e.1 += sim;
        host_total += host;
        sim_total += sim;
    }
    if host_total != sum.op_host_ns || sim_total != sum.op_sim_ns {
        return Err("per-layer self times do not add up to the op spans".into());
    }
    Ok(sum)
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"op_id\":{},\"layer\":\"{}\",\"name\":\"{}\",\
             \"host_start_ns\":{},\"host_end_ns\":{},\"sim_start_ns\":{},\"sim_end_ns\":{}}}",
            s.id,
            s.parent,
            s.op_id,
            s.layer,
            s.name,
            s.host_start_ns,
            s.host_end_ns,
            s.sim_start_ns,
            s.sim_end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_summarize_and_off_is_inert() {
        assert!(!enter("core", "noop").0);
        let clock = SimClock::new();
        start(vec![clock.clone()]);
        {
            let _op = enter("workloads", "op");
            clock.advance(5);
            {
                let _c = enter("core", "commit");
                clock.advance(10);
                let _d = enter("blockdev", "write_blocks");
                clock.advance(7);
            }
            clock.advance(1);
        }
        let spans = finish();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent, 2);
        assert_eq!(spans[2].op_id, 1);
        let s = summarize(&spans).unwrap();
        assert_eq!(s.ops, 1);
        assert_eq!(s.op_sim_ns, 23);
        assert_eq!(s.self_ns["workloads"].1, 6);
        assert_eq!(s.self_ns["core"].1, 10);
        assert_eq!(s.self_ns["blockdev"].1, 7);
    }

    #[test]
    fn escaping_child_is_rejected() {
        let mk = |id, parent, s, e| Span {
            id,
            parent,
            op_id: 1,
            layer: "x",
            name: "y",
            host_start_ns: s,
            host_end_ns: e,
            sim_start_ns: s,
            sim_end_ns: e,
        };
        assert!(summarize(&[mk(1, 0, 0, 10), mk(2, 1, 5, 12)]).is_err());
        assert!(summarize(&[mk(1, 0, 0, 10), mk(2, 1, 5, 9)]).is_ok());
    }
}
