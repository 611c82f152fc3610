//! Outside-in span recorder: the benchmark opens a span around each
//! call it makes into a layer's public functions, keeps every span in
//! memory, and writes them as one file when the run ends. Nothing here
//! reaches inside the simulator; a disabled recorder takes no clock
//! readings at all, which is what the untraced (end-to-end) runs use.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `[start, end)` in nanoseconds since the recorder's
/// origin, the enclosing span, and a key (job id for placements, call
/// index elsewhere).
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `matchmakers.place`.
    pub name: &'static str,
    /// Job id or call index.
    pub key: u64,
    /// Start, ns since the recorder origin.
    pub start_ns: u64,
    /// End, ns since the recorder origin.
    pub end_ns: u64,
    /// Index of the span this one ran inside.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Token returned by [`Recorder::open`]; `None` when disabled.
#[must_use]
pub struct Open(Option<usize>);

/// In-memory span store with a parent stack (single-threaded).
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    /// A recorder that records when `enabled`, and is inert otherwise.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, key: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            key,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes the span `open` returned; spans close innermost first.
    pub fn close(&mut self, open: Open) {
        if let Some(id) = open.0 {
            assert_eq!(
                self.stack.pop(),
                Some(id),
                "spans must close innermost first"
            );
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a leaf span.
    pub fn time<R>(&mut self, name: &'static str, key: u64, f: impl FnOnce() -> R) -> R {
        let open = self.open(name, key);
        let r = f();
        self.close(open);
        r
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    fn self_ns(&self) -> Vec<u64> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                self_ns[p] -= s.dur_ns();
            }
        }
        self_ns
    }

    /// Per-name totals: summed self time and every call's duration.
    pub fn by_name(&self) -> BTreeMap<&'static str, NameStats> {
        let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let e = out.entry(s.name).or_default();
            e.self_ns += self_ns;
            e.durations_ns.push(s.dur_ns());
        }
        out
    }

    /// Summed self time of the spans nested (at any depth) inside spans
    /// named `root`, excluding the root spans' own self time.
    pub fn self_ns_under(&self, root: &str) -> u64 {
        let under = |mut i: usize| {
            while let Some(p) = self.spans[i].parent {
                if self.spans[p].name == root {
                    return true;
                }
                i = p;
            }
            false
        };
        self.self_ns()
            .into_iter()
            .enumerate()
            .filter(|&(i, _)| under(i))
            .map(|(_, ns)| ns)
            .sum()
    }

    /// Appends one tab-separated line per span, prefixed by `unit`, in
    /// the column order of [`TSV_HEADER`].
    pub fn render_tsv(&self, unit: usize, out: &mut String) {
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{unit}\t{i}\t{parent}\t{}\t{}\t{}\t{}",
                sp.name, sp.key, sp.start_ns, sp.end_ns
            );
        }
    }
}

/// Column names of the span file.
pub const TSV_HEADER: &str = "unit\tid\tparent\tname\tkey\tstart_ns\tend_ns\n";

/// Totals for one span name.
#[derive(Debug, Default, Clone)]
pub struct NameStats {
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Duration of every call, ns, in call order.
    pub durations_ns: Vec<u64>,
}

impl NameStats {
    /// Summed self time in seconds.
    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 * 1e-9
    }

    /// Nearest-rank percentile of the call durations, in microseconds.
    pub fn percentile_us(&self, q: f64) -> f64 {
        let mut v = self.durations_ns.clone();
        v.sort_unstable();
        percentile(&v, q) as f64 * 1e-3
    }
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut r = Recorder::new(true);
        let outer = r.open("outer", 0);
        r.time("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.close(outer);
        let by = r.by_name();
        let inner = by["inner"].self_ns;
        let outer_dur = r.spans()[0].dur_ns();
        assert_eq!(by["outer"].self_ns, outer_dur - inner);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert_eq!(r.self_ns_under("outer"), inner);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        let o = r.open("x", 0);
        r.close(o);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile::<u64>(&[], 0.5), 0);
    }
}
