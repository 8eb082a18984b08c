//! Benchmark-side spans: the benchmark times its own calls into each layer's
//! public functions and records them here. Nothing inside the program is
//! instrumented.
//!
//! A span has a name, a start, an end, a parent and a lane (the thread it ran
//! on). Spans live in memory and are written out when the run ends.
//!
//! Some layers can only be timed as a sum of many disjoint intervals: the
//! mutation hooks fire thousands of times inside one run, and compile time is
//! only exposed as the cumulative `VmState::compile_wall_nanos` counter. Such a
//! span is an *aggregate*: `count` intervals whose durations sum to
//! `end - start`, placed at the first interval's start. Because the summed
//! intervals are disjoint sub-intervals of the parent, durations still nest,
//! and a span's self time (its duration minus its children's) is exact.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the benchmark's epoch (the first call).
pub fn now_ns() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().duration_since(epoch).as_nanos() as u64
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub lane: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Number of intervals summed into this span (1 for a plain span).
    pub count: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans recorded on one thread; ids are indices into `spans`.
#[derive(Debug, Default)]
pub struct Lane {
    pub lane: u32,
    pub spans: Vec<Span>,
}

impl Lane {
    pub fn new(lane: u32) -> Self {
        Lane {
            lane,
            spans: Vec::new(),
        }
    }

    /// Opens a span now; close it with [`Lane::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let t = now_ns();
        self.push(name, parent, t, t, 1)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = now_ns();
    }

    /// Times `f` as a span and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Records a span whose interval is already known.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
        count: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            lane: self.lane,
            start_ns,
            end_ns,
            count,
        });
        self.spans.len() - 1
    }

    /// Moves `other`'s spans into this lane, re-parenting its roots under
    /// `parent` and keeping `other`'s lane number.
    pub fn adopt(&mut self, other: Lane, parent: Option<usize>) {
        let base = self.spans.len();
        for mut s in other.spans {
            s.parent = match s.parent {
                Some(p) => Some(p + base),
                None => parent,
            };
            self.spans.push(s);
        }
    }
}

/// Self nanoseconds and summed interval count, per span name.
pub type SelfTimes = BTreeMap<&'static str, (u64, u64)>;

/// Self time per span name, after checking that every span's children fit
/// inside it. Returns the per-name totals and the summed root durations; the
/// self times add up to the root total exactly.
pub fn self_times(spans: &[Span]) -> Result<(SelfTimes, u64), String> {
    let mut child_sum = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_sum[p] += s.dur();
            let ps = &spans[p];
            if s.start_ns < ps.start_ns || s.end_ns > ps.end_ns {
                return Err(format!(
                    "span {} lies outside its parent {}",
                    s.name, ps.name
                ));
            }
        }
    }
    let mut by_name = SelfTimes::new();
    let mut roots = 0u64;
    let mut total_self = 0u64;
    for (i, s) in spans.iter().enumerate() {
        let own = s
            .dur()
            .checked_sub(child_sum[i])
            .ok_or_else(|| format!("children of span {} outlast it", s.name))?;
        let e = by_name.entry(s.name).or_default();
        e.0 += own;
        e.1 += s.count;
        total_self += own;
        if s.parent.is_none() {
            roots += s.dur();
        }
    }
    if total_self != roots {
        return Err(format!(
            "self times sum to {total_self} ns, roots to {roots} ns"
        ));
    }
    Ok((by_name, roots))
}

/// Renders the spans as JSON lines: one header object, then one object per
/// span (`id`, `parent`, `name`, `lane`, `start_ns`, `end_ns`, `count`).
pub fn to_jsonl(header: &str, spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + header.len() + 1);
    out.push_str(header);
    out.push('\n');
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"lane\":{},\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
            s.name, s.lane, s.start_ns, s.end_ns, s.count
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_root_wall() {
        let mut lane = Lane::new(0);
        let root = lane.push("root", None, 0, 100, 1);
        let run = lane.push("run", Some(root), 10, 90, 1);
        lane.push("hook", Some(run), 20, 50, 3);
        let (by_name, roots) = self_times(&lane.spans).unwrap();
        assert_eq!(roots, 100);
        assert_eq!(by_name["root"], (20, 1));
        assert_eq!(by_name["run"], (50, 1));
        assert_eq!(by_name["hook"], (30, 3));
    }

    #[test]
    fn overfull_parent_is_rejected() {
        let mut lane = Lane::new(0);
        let root = lane.push("root", None, 0, 10, 1);
        lane.push("a", Some(root), 0, 8, 1);
        lane.push("b", Some(root), 2, 10, 1);
        assert!(self_times(&lane.spans).is_err());
    }

    #[test]
    fn adopt_reparents_roots() {
        let mut main = Lane::new(0);
        let top = main.push("top", None, 0, 100, 1);
        let mut w = Lane::new(1);
        let job = w.push("job", None, 5, 50, 1);
        w.push("inner", Some(job), 6, 7, 1);
        main.adopt(w, Some(top));
        assert_eq!(main.spans[1].parent, Some(top));
        assert_eq!(main.spans[2].parent, Some(1));
        assert_eq!(main.spans[2].lane, 1);
    }
}
