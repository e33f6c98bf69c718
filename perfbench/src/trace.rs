//! Measurement from outside the library: sampled op clocks for the
//! end-to-end run, and in-memory spans around the calls into each layer for
//! the traced run.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::stats::LatencyHist;

/// One op in this many is wall-clocked by an [`OpClock`].
pub const OP_SAMPLE: u32 = 128;

/// Counts every op and times one in [`OP_SAMPLE`].
#[derive(Debug)]
pub struct OpClock {
    countdown: u32,
    /// Ops issued through this clock.
    pub ops: u64,
    /// Latencies of the sampled ops.
    pub latency: LatencyHist,
}

impl Default for OpClock {
    fn default() -> Self {
        OpClock {
            countdown: OP_SAMPLE,
            ops: 0,
            latency: LatencyHist::default(),
        }
    }
}

impl OpClock {
    /// Runs one op, timing it if it is the sampled one.
    #[inline]
    pub fn op<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.ops += 1;
        self.countdown -= 1;
        if self.countdown > 0 {
            return f();
        }
        self.countdown = OP_SAMPLE;
        let start = Instant::now();
        let out = f();
        self.latency.record(start.elapsed().as_nanos() as u64);
        out
    }
}

/// One recorded span. `parent == 0` marks a root.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the run (ids start at 1).
    pub id: u64,
    /// Id of the enclosing span, or 0.
    pub parent: u64,
    /// The call or unit of work.
    pub name: String,
    /// The layer the call goes into.
    pub layer: &'static str,
    /// Start, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, in ns since the tracer's epoch.
    pub end_ns: u64,
    /// Repetition the span belongs to.
    pub rep: u32,
    /// Work units the span covers (ops, instances, calls).
    pub n: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span: its id is known so children can name it as parent.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    /// The span's id.
    pub id: u64,
    start_ns: u64,
}

/// Records spans in memory; one per thread, sharing an epoch and id source.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    ids: Arc<AtomicU64>,
    /// Repetition stamped onto new spans.
    pub rep: u32,
    /// The span a workload's top-level spans nest under (its rep).
    pub root: u64,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            ids: Arc::new(AtomicU64::new(1)),
            rep: 0,
            root: 0,
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// A tracer for another thread: same epoch, same id source, no spans.
    pub fn fork(&self) -> Tracer {
        Tracer {
            epoch: self.epoch,
            ids: Arc::clone(&self.ids),
            rep: self.rep,
            root: self.root,
            spans: Vec::new(),
        }
    }

    /// Takes over the spans a forked tracer recorded.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Opens a span now.
    pub fn open(&self) -> Open {
        Open {
            id: self.ids.fetch_add(1, Ordering::Relaxed),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
        }
    }

    /// Closes `open` now and records it.
    pub fn close(
        &mut self,
        open: Open,
        parent: u64,
        name: impl Into<String>,
        layer: &'static str,
        n: u64,
    ) {
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id: open.id,
            parent,
            name: name.into(),
            layer,
            start_ns: open.start_ns,
            end_ns,
            rep: self.rep,
            n,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s.id, s.dur() - covered)
        })
        .collect()
}

/// Mean duration (ns) of the spans `keep` selects; `None` if there are none.
pub fn mean_dur(spans: &[Span], keep: impl Fn(&Span) -> bool) -> Option<f64> {
    let (sum, count) = spans
        .iter()
        .filter(|s| keep(s))
        .fold((0u64, 0u64), |(sum, c), s| (sum + s.dur(), c + 1));
    (count > 0).then(|| sum as f64 / count as f64)
}

/// Total duration over total work units (ns per unit) of the spans `keep`
/// selects; `None` if they cover no work.
pub fn dur_per_unit(spans: &[Span], keep: impl Fn(&Span) -> bool) -> Option<f64> {
    let (dur, n) = spans
        .iter()
        .filter(|s| keep(s))
        .fold((0u64, 0u64), |(d, n), s| (d + s.dur(), n + s.n));
    (n > 0).then(|| dur as f64 / n as f64)
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders `spans` as JSON lines, one span per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 128);
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"rep\":{},\"n\":{}}}",
            s.id,
            s.parent,
            escape(&s.name),
            s.layer,
            s.start_ns,
            s.end_ns,
            s.rep,
            s.n
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s".into(),
            layer: "bench",
            start_ns,
            end_ns,
            rep: 0,
            n: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children (worker threads) cover 10..40 of 0..100.
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 40),
            span(4, 2, 12, 14),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 70);
        assert_eq!(st[&2], 18);
        assert_eq!(st[&3], 20);
        assert_eq!(st[&4], 2);
    }

    #[test]
    fn op_clock_samples_one_in_op_sample() {
        let mut c = OpClock::default();
        for i in 0..(OP_SAMPLE as u64 * 3) {
            assert_eq!(c.op(|| i), i);
        }
        assert_eq!(c.ops, OP_SAMPLE as u64 * 3);
        assert!(c.latency.percentile_band(0.5) < 1e6);
    }

    #[test]
    fn jsonl_escapes_names() {
        let mut s = span(1, 0, 0, 5);
        s.name = "a\"b\\c".into();
        assert_eq!(
            to_jsonl(&[s]),
            "{\"id\":1,\"parent\":0,\"name\":\"a\\\"b\\\\c\",\"layer\":\"bench\",\"start_ns\":0,\"end_ns\":5,\"rep\":0,\"n\":1}\n"
        );
    }
}
