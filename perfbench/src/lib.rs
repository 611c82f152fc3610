//! The repository benchmark. Four workloads run through the
//! simulator's public entry points on one thread; an untraced run
//! reports the end-to-end metrics, a traced run the per-layer ones.
//! See `README.md` beside this crate for why each workload exists and
//! which metric each layer should move.

#![forbid(unsafe_code)]

pub mod churn;
pub mod faults;
pub mod grid;
pub mod report;
pub mod trace;

use std::collections::BTreeMap;
use std::time::Instant;
use trace::{Recorder, TSV_HEADER};

/// One set-up plus one measured phase, with its output checks.
#[derive(Debug, Default)]
pub struct Unit {
    /// Wall seconds before the measured phase.
    pub setup_s: f64,
    /// Wall seconds of the measured phase.
    pub run_s: f64,
    /// VmHWM right after the measured phase, before the output checks,
    /// in MB.
    pub peak_rss_mb: f64,
    /// Work done in the measured phase: jobs (grid-*), delivered
    /// datagrams (churn-adaptive) or schedules (fault-scenarios).
    pub work: u64,
    /// Checked items: jobs, churn runs or schedules.
    pub attempted: u64,
    /// Checked items that failed a check.
    pub failed: u64,
    /// Why each failure failed.
    pub failures: Vec<String>,
    /// Trajectory digest.
    pub digest: u64,
    /// Deterministic work counts and simulated outcomes by metric name.
    pub counts: Vec<(String, f64)>,
    /// Human-readable summary lines.
    pub lines: Vec<String>,
}

impl Unit {
    /// A unit with its two timings and nothing else yet.
    pub fn new(setup_s: f64, run_s: f64) -> Self {
        Unit {
            setup_s,
            run_s,
            ..Unit::default()
        }
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// can-het on a 10 000-node grid: construction and placement.
    Grid10k,
    /// The paper's default cell under all three schedulers.
    GridPaper,
    /// 2 048-node adaptive-heartbeat CAN under high churn.
    ChurnAdaptive,
    /// The scenario library under every heartbeat scheme.
    FaultScenarios,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Grid10k,
        Workload::GridPaper,
        Workload::ChurnAdaptive,
        Workload::FaultScenarios,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Grid10k => "grid-10k",
            Workload::GridPaper => "grid-paper",
            Workload::ChurnAdaptive => "churn-adaptive",
            Workload::FaultScenarios => "fault-scenarios",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs one unit with inputs generated from `seed` (churn-adaptive
    /// runs one fixed scenario, see [`churn::SEED`]); `deep` adds the
    /// from-scratch invariant checks (a run's first unit).
    pub fn unit(self, seed: u64, deep: bool, rec: &mut Recorder) -> Unit {
        match self {
            Workload::Grid10k => grid::unit(&grid::case_10k(seed), deep, rec),
            Workload::GridPaper => grid::unit(&grid::case_paper(seed), deep, rec),
            Workload::ChurnAdaptive => churn::unit(&churn::config(), deep, rec),
            Workload::FaultScenarios => faults::unit(seed, rec),
        }
    }
}

/// Digests recorded at the commit that defined the benchmark, one
/// `<workload> <seed or *> <hex digest>` per line. A run at a listed
/// seed whose trajectory differs counts as failed.
const RECORDED: &str = include_str!("../digests.txt");

/// The recorded digest of `workload` at `seed`, if any.
pub fn recorded_digest(workload: Workload, seed: u64) -> Option<u64> {
    RECORDED.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let (w, s, d) = (f.next()?, f.next()?, f.next()?);
        (w == workload.name() && (s == "*" || s.parse() == Ok(seed)))
            .then(|| u64::from_str_radix(d, 16).expect("recorded digests are hex"))
    })
}

/// Everything one benchmark invocation measured.
pub struct Run {
    /// Untraced units, in order.
    pub plain: Vec<Unit>,
    /// Traced units with their recorders (empty unless tracing).
    pub traced: Vec<(Unit, Recorder)>,
    /// Failed checks across all units, including determinism and the
    /// recorded digest.
    pub failures: Vec<String>,
    /// Items checked.
    pub attempted: u64,
    /// Items that failed.
    pub failed: u64,
    /// The first unit's VmHWM, read after its set-up and measured phase
    /// and before its output checks, in MB. The first unit's rather
    /// than the last's because the high-water mark of later units
    /// depends on heap reuse, so it would move with how many units fit
    /// into the run; before the checks because the deep checks build a
    /// second adjacency that the program itself never holds.
    pub peak_rss_mb: f64,
}

/// Runs units of `workload` until `seconds` have passed (at least one
/// unit, or one untraced/traced pair when tracing), checking each.
pub fn measure(workload: Workload, seed: u64, seconds: f64, tracing: bool) -> Run {
    let start = Instant::now();
    let mut run = Run {
        plain: Vec::new(),
        traced: Vec::new(),
        failures: Vec::new(),
        attempted: 0,
        failed: 0,
        peak_rss_mb: 0.0,
    };
    // The first unit's from-scratch invariant checks are not
    // measurement, so they do not use up `seconds`.
    let mut deep_s = 0.0;
    let mut i = 0usize;
    loop {
        // Alternate which side of a pair runs first, so neither always
        // inherits the other's warm caches.
        let order: &[bool] = match (tracing, i % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for &traced in order {
            let mut rec = Recorder::new(traced);
            let deep = run.plain.is_empty() && run.traced.is_empty();
            let t = Instant::now();
            let unit = workload.unit(seed, deep, &mut rec);
            if deep {
                deep_s = t.elapsed().as_secs_f64() - unit.setup_s - unit.run_s;
                run.peak_rss_mb = unit.peak_rss_mb;
            }
            if traced {
                run.traced.push((unit, rec));
            } else {
                run.plain.push(unit);
            }
        }
        i += 1;
        if start.elapsed().as_secs_f64() - deep_s >= seconds {
            break;
        }
    }

    let recorded = recorded_digest(workload, seed);
    let first = run.plain[0].digest;
    let units = run.plain.iter().chain(run.traced.iter().map(|(u, _)| u));
    for (k, u) in units.enumerate() {
        run.attempted += u.attempted;
        let mut failed = u.failed;
        run.failures
            .extend(u.failures.iter().map(|f| format!("unit {k}: {f}")));
        if u.digest != first {
            run.failures.push(format!(
                "unit {k}: digest {:016x} differs from unit 0's {first:016x} on the same inputs",
                u.digest
            ));
            failed = u.attempted;
        } else if recorded.is_some_and(|r| r != u.digest) {
            run.failures.push(format!(
                "unit {k}: digest {:016x} differs from the recorded {:016x}",
                u.digest,
                recorded.unwrap_or_default()
            ));
            failed = u.attempted;
        }
        run.failed += failed;
    }
    run
}

/// Median of `v` (mean of the middle pair when even).
pub fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set (VmHWM) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Threads the host offers.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The end-to-end metrics of the untraced units.
pub fn end_to_end(run: &Run) -> Vec<(&'static str, f64)> {
    let plain = &run.plain;
    vec![
        ("setup_s", median(plain.iter().map(|u| u.setup_s).collect())),
        ("run_s", median(plain.iter().map(|u| u.run_s).collect())),
        (
            "units_per_s",
            median(plain.iter().map(|u| u.work as f64 / u.run_s).collect()),
        ),
        ("peak_rss_mb", run.peak_rss_mb),
    ]
}

/// The traced unit with the median measured-phase time.
pub fn median_traced(run: &Run) -> &(Unit, Recorder) {
    let mut order: Vec<usize> = (0..run.traced.len()).collect();
    order.sort_by(|&a, &b| run.traced[a].0.run_s.total_cmp(&run.traced[b].0.run_s));
    &run.traced[order[(order.len() - 1) / 2]]
}

/// The per-layer metrics, taken from the median traced unit so that
/// its layer times add up, plus the tracing overhead (traced minus
/// untraced median `run_s`).
pub fn per_layer(run: &Run) -> Vec<(&'static str, f64)> {
    let (unit, rec) = median_traced(run);
    let by = rec.by_name();
    let stat = |span: &str| by.get(span).cloned().unwrap_or_default();
    let self_s = |span: &str| stat(span).self_s();
    let calls = |span: &str| stat(span).durations_ns.len() as f64;
    let counts: BTreeMap<&str, f64> = unit.counts.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let untraced = median(run.plain.iter().map(|u| u.run_s).collect());
    report::LAYER_METRICS
        .iter()
        .map(|&(name, _)| {
            let v = match name {
                "workload.gen_s" => self_s("workload.gen"),
                "grid.build_s" => self_s("grid.build"),
                "aggregate.new_s" => self_s("aggregate.new"),
                "aggregate.refresh_s" => self_s("aggregate.refresh"),
                "aggregate.refresh_calls" => calls("aggregate.refresh"),
                "aggregate.refresh_p50_us" => stat("aggregate.refresh").percentile_us(0.5),
                "aggregate.refresh_p90_us" => stat("aggregate.refresh").percentile_us(0.9),
                "matchmakers.place_s" => self_s("matchmakers.place"),
                "matchmakers.place_calls" => calls("matchmakers.place"),
                "matchmakers.place_p50_us" => stat("matchmakers.place").percentile_us(0.5),
                "matchmakers.place_p99_us" => stat("matchmakers.place").percentile_us(0.99),
                "grid_sim.self_s" => self_s("grid_sim.run"),
                "protocol.join_s" => self_s("protocol.join"),
                "protocol.join_calls" => calls("protocol.join"),
                "protocol.join_p50_us" => stat("protocol.join").percentile_us(0.5),
                "protocol.join_p99_us" => stat("protocol.join").percentile_us(0.99),
                "protocol.leave_s" => self_s("protocol.leave"),
                "protocol.leave_calls" => calls("protocol.leave"),
                "protocol.advance_s" => self_s("protocol.advance"),
                "protocol.broken_links_s" => self_s("protocol.broken_links"),
                "dst.compile_s" => self_s("dst.compile"),
                "dst.case_s" => self_s("dst.case"),
                "dst.can_phase_s" => self_s("dst.can_phase"),
                "dst.sched_phase_s" => self_s("dst.case_probe") - self_s("dst.can_phase"),
                "bench.traced_run_s" => unit.run_s,
                "bench.run_untimed_s" => self_s("bench.run"),
                "bench.tracing_overhead_s" => unit.run_s - untraced,
                "bench.host_threads" => host_threads() as f64,
                "bench.spans" => rec.spans().len() as f64,
                other => counts.get(other).copied().unwrap_or(0.0),
            };
            (name, v)
        })
        .collect()
}

/// Every traced unit's spans as one tab-separated text.
pub fn spans_tsv(run: &Run) -> String {
    let mut out = String::from(TSV_HEADER);
    for (k, (_, rec)) in run.traced.iter().enumerate() {
        rec.render_tsv(k, &mut out);
    }
    out
}
