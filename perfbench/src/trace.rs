//! In-memory spans recorded by the benchmark around its calls into each
//! layer of the program.
//!
//! A span has a name, a start and an end, the span that caused it, and
//! the id of the request it belongs to. Spans stay in memory while the traced run executes and
//! are written out once it is over; a layer's *self time* is its span's
//! duration minus the part of that interval its child spans cover.
//!
//! Spans and latency samples are read from the CPU's time-stamp counter
//! where there is one, which costs less per read than `Instant::now`
//! (~40 ns on the reference host); that matters for spans around layers
//! of 10-100 ns. [`Clock`] converts ticks to nanoseconds by calibrating against
//! `Instant` over the whole measured interval.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Read the tick counter. The fences keep the read in program order:
/// without them the CPU may read the counter before earlier loads have
/// completed, and a timed binary search would read a fraction of its
/// real latency.
#[cfg(target_arch = "x86_64")]
#[inline]
pub fn ticks() -> u64 {
    use core::arch::x86_64::{_mm_lfence, _rdtsc};
    // SAFETY: LFENCE and RDTSC exist on every x86-64 CPU; they have no
    // memory effects and no preconditions.
    unsafe {
        _mm_lfence();
        let t = _rdtsc();
        _mm_lfence();
        t
    }
}

/// Read the tick counter: nanoseconds since the first call where no
/// time-stamp counter is available.
#[cfg(not(target_arch = "x86_64"))]
#[inline]
pub fn ticks() -> u64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Converts tick counts to nanoseconds, calibrated against `Instant`
/// from its creation to each conversion.
pub struct Clock {
    at: Instant,
    ticks: u64,
}

impl Clock {
    pub fn start() -> Self {
        Self {
            at: Instant::now(),
            ticks: ticks(),
        }
    }

    /// Nanoseconds per tick over the interval since [`Clock::start`].
    pub fn ns_per_tick(&self) -> f64 {
        let ns = self.at.elapsed().as_nanos() as f64;
        let t = ticks().saturating_sub(self.ticks).max(1) as f64;
        ns / t
    }
}

/// Parent id of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span; `start` and `end` are in ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub req: u32,
    pub parent: u32,
    pub start: u64,
    pub end: u64,
}

/// Time spent under one span name across a traced run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of span self times.
    pub self_ns: u64,
}

impl Totals {
    /// Mean self time per span, in nanoseconds.
    pub fn mean_self_ns(&self) -> f64 {
        per(self.self_ns, self.count)
    }

    /// Mean duration per span, in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        per(self.total_ns, self.count)
    }
}

fn per(sum: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64
    }
}

/// Span recorder for one thread.
pub struct Tracer {
    clock: Clock,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn with_capacity(spans: usize) -> Self {
        Self {
            clock: Clock::start(),
            spans: Vec::with_capacity(spans),
        }
    }

    /// Open a span and return its id; close it with [`Tracer::close`].
    #[inline]
    pub fn open(&mut self, name: &'static str, req: u32, parent: u32) -> u32 {
        let id = self.spans.len() as u32;
        let start = ticks();
        self.spans.push(Span {
            name,
            req,
            parent,
            start,
            end: start,
        });
        id
    }

    #[inline]
    pub fn close(&mut self, id: u32) {
        let end = ticks();
        self.spans[id as usize].end = end;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals of duration and self time, in nanoseconds.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        totals(&self.spans, self.clock.ns_per_tick())
    }

    /// Write every span as one tab-separated line:
    /// `id req parent name start end` (parent `-` for a root), times in
    /// ticks, after a header line giving nanoseconds per tick.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "# ns_per_tick={}", self.clock.ns_per_tick())?;
        writeln!(w, "id\treq\tparent\tname\tstart\tend")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{id}\t{}\t{parent}\t{}\t{}\t{}",
                s.req, s.name, s.start, s.end
            )?;
        }
        w.flush()
    }
}

/// Per-name totals of `spans`, converted at `ns_per_tick`.
fn totals(spans: &[Span], ns_per_tick: f64) -> BTreeMap<&'static str, Totals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, &own) in spans.iter().zip(&selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end - s.start;
        t.self_ns += own;
    }
    for t in out.values_mut() {
        t.total_ns = (t.total_ns as f64 * ns_per_tick) as u64;
        t.self_ns = (t.self_ns as f64 * ns_per_tick) as u64;
    }
    out
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it.
///
/// Children must appear after their parent and in start order, which
/// holds for spans opened on one thread.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    // End of the covered prefix of each parent's interval so far.
    let mut reach: Vec<u64> = spans.iter().map(|s| s.start).collect();
    for s in spans {
        if s.parent == ROOT {
            continue;
        }
        let p = s.parent as usize;
        let (ps, pe) = (spans[p].start, spans[p].end);
        let lo = s.start.max(ps).max(reach[p]);
        let hi = s.end.min(pe);
        if hi > lo {
            covered[p] += hi - lo;
            reach[p] = hi;
        }
    }
    spans
        .iter()
        .zip(&covered)
        .map(|(s, &c)| (s.end - s.start).saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start: u64, end: u64) -> Span {
        Span {
            name,
            req: 0,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children_on_a_nested_tree() {
        // lookup [0,100)
        //   route [10,20)
        //   shard [30,90)
        //     predict [35,50)
        //     predict [45,60)   overlaps its sibling: union is [35,60)
        //     search  [80,120)  runs past its parent: clipped to [80,90)
        let spans = [
            span("lookup", ROOT, 0, 100),
            span("route", 0, 10, 20),
            span("shard", 0, 30, 90),
            span("predict", 2, 35, 50),
            span("predict", 2, 45, 60),
            span("search", 2, 80, 120),
        ];
        assert_eq!(self_times(&spans), vec![30, 10, 25, 15, 15, 40]);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = [
            span("lookup", ROOT, 0, 10),
            span("route", 0, 2, 5),
            span("lookup", ROOT, 20, 26),
            span("route", 2, 21, 22),
        ];
        let totals = totals(&spans, 1.0);
        assert_eq!(
            totals["lookup"],
            Totals {
                count: 2,
                total_ns: 16,
                self_ns: 12
            }
        );
        assert_eq!(totals["route"].mean_self_ns(), 2.0);
        assert_eq!(super::totals(&spans, 2.0)["lookup"].self_ns, 24);
    }

    #[test]
    fn recorded_spans_nest() {
        let mut t = Tracer::with_capacity(2);
        let outer = t.open("outer", 7, ROOT);
        let inner = t.open("inner", 7, outer);
        t.close(inner);
        t.close(outer);
        let s = t.spans();
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
        assert_eq!((s[1].parent, s[1].req), (0, 7));
    }
}
