//! The static-grid workloads (`grid-10k`, `grid-paper`): generated
//! population and job trace → `StaticGrid::build` → `run_trace`
//! through a [`Probe`] matchmaker that counts (and, when traced,
//! times) every call the event loop makes into the matchmaker.

use crate::trace::{percentile, Recorder};
use crate::Unit;
use pgrid::prelude::*;
use pgrid::sched::{run_trace, Placement};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Seed of the simulated platform: the node population and the
/// grid's virtual coordinates. It stays fixed while `--seed` varies the
/// job trace and the event loop's draws, because the platform alone
/// moves mean routing hops at n = 10 000 between 12 and 44 (one grid
/// per seed), which would bury any change in the code under
/// platform-to-platform spread. 2011 is the paper cell's own seed, so
/// grid-10k reproduces the ROADMAP baseline grid (mean degree 108).
pub const PLATFORM_SEED: u64 = 2011;

/// A grid workload: scenario (its `seed` drives the job trace and the
/// event loop) and the schedulers run per unit.
pub struct Case {
    /// The scenario.
    pub sc: LoadBalanceScenario,
    /// Schedulers, each run over the same trace on its own grid.
    pub choices: &'static [SchedulerChoice],
}

/// grid-10k: can-het on 10 000 nodes with the arrival rate scaled by
/// n/1000, so per-node offered load matches the paper's 3 s
/// inter-arrival at 1 000 nodes (the ROADMAP baseline row).
pub fn case_10k(seed: u64) -> Case {
    let mut sc = default_scenario().with_seed(seed);
    let factor = 10_000.0 / sc.nodes as f64;
    sc.nodes = 10_000;
    sc.job_gen.mean_interarrival /= factor;
    Case {
        sc,
        choices: &[SchedulerChoice::CanHet],
    }
}

/// grid-paper: the paper's default cell (1 000 nodes, 20 000 jobs,
/// 3 s inter-arrival) under can-het, can-hom and central.
pub fn case_paper(seed: u64) -> Case {
    Case {
        sc: default_scenario().with_seed(seed),
        choices: &SchedulerChoice::ALL,
    }
}

/// Generated inputs: the `(arrival, job)` trace and the population.
/// With `sc.seed == PLATFORM_SEED` this is exactly what
/// `run_load_balance` generates.
pub fn generate(sc: &LoadBalanceScenario) -> (Vec<(f64, JobSpec)>, Vec<NodeSpec>) {
    let population = generate_nodes(&sc.node_gen, sc.nodes, PLATFORM_SEED);
    let mut stream = sc.job_stream(population);
    let jobs = stream.take_jobs(sc.jobs);
    let population = stream
        .into_population()
        .expect("stream built with population");
    (jobs, population)
}

/// The matchmaker `run_load_balance` would construct for `choice`.
pub fn matchmaker(
    sc: &LoadBalanceScenario,
    grid: &StaticGrid,
    choice: SchedulerChoice,
) -> Box<dyn Matchmaker> {
    let params = PushParams {
        stopping_factor: sc.stopping_factor,
        ..PushParams::default()
    };
    match choice {
        SchedulerChoice::CanHet => Box::new(PushingMatchmaker::heterogeneous(grid, params)),
        SchedulerChoice::CanHom => Box::new(PushingMatchmaker::homogeneous(grid, params)),
        SchedulerChoice::Central => Box::new(CentralMatchmaker),
    }
}

/// Work counts one scheduler run makes through the matchmaker.
#[derive(Debug, Default)]
pub struct Counts {
    /// Placements per job id.
    pub places: HashMap<JobId, u32>,
    /// Routing hops of every placement, in call order.
    pub hops: Vec<u32>,
    /// Push steps summed over placements.
    pub pushes: u64,
    /// Placements decided by the global fallback scan.
    pub fallbacks: u64,
    /// `refresh` calls.
    pub refreshes: u64,
}

/// Wraps a matchmaker: counts placements per job, hops, pushes and
/// refreshes, and opens a span around each `place`/`refresh` when the
/// recorder is enabled. It forwards every call unchanged, so the
/// trajectory is the wrapped matchmaker's (pinned by the
/// equivalence test in `tests/`).
pub struct Probe<'a> {
    inner: &'a mut dyn Matchmaker,
    rec: &'a mut Recorder,
    /// Whether `refresh` reaches an `AiTable`; central's refresh is the
    /// trait's no-op, so it gets no `aggregate.refresh` span.
    aggregate: bool,
    /// What the run has done so far.
    pub counts: Counts,
}

impl<'a> Probe<'a> {
    /// Wraps the matchmaker of `choice`, recording into `rec`.
    pub fn new(
        inner: &'a mut dyn Matchmaker,
        choice: SchedulerChoice,
        rec: &'a mut Recorder,
    ) -> Self {
        Probe {
            inner,
            rec,
            aggregate: choice != SchedulerChoice::Central,
            counts: Counts::default(),
        }
    }
}

impl Matchmaker for Probe<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn place(&mut self, grid: &StaticGrid, job: &JobSpec, rng: &mut SimRng) -> Placement {
        let open = self.rec.open("matchmakers.place", u64::from(job.id.0));
        let p = self.inner.place(grid, job, rng);
        self.rec.close(open);
        let c = &mut self.counts;
        *c.places.entry(job.id).or_default() += 1;
        c.hops.push(p.route_hops as u32);
        c.pushes += p.pushes as u64;
        c.fallbacks += u64::from(p.fallback);
        p
    }

    fn refresh(&mut self, grid: &StaticGrid, now: f64) {
        if self.aggregate {
            let open = self.rec.open("aggregate.refresh", self.counts.refreshes);
            self.inner.refresh(grid, now);
            self.rec.close(open);
        } else {
            self.inner.refresh(grid, now);
        }
        self.counts.refreshes += 1;
    }

    fn set_pressure_bound(&mut self, bound: Option<usize>) {
        self.inner.set_pressure_bound(bound);
    }
}

/// Folds the trajectory (wait times, placed nodes, events) into `d`.
pub fn fold_result(r: &SimResult, d: &mut Fnv) {
    d.write_usize(r.wait_times.len());
    for &w in &r.wait_times {
        d.write_f64(w);
    }
    for n in &r.placed_nodes {
        d.write_u64(u64::from(n.0));
    }
    d.write_u64(r.events_fired);
}

/// Output checks for one scheduler run; returns the failed checks.
/// `deep` adds `StaticGrid::check_invariants`, which recomputes the
/// adjacency from scratch (about 11 s at n = 10 000 on a 2-thread
/// host), so it runs on a run's first unit only; later units must
/// reproduce that unit's digest.
fn check(
    r: &SimResult,
    c: &Counts,
    jobs: &[(f64, JobSpec)],
    grid: &StaticGrid,
    deep: bool,
) -> Vec<String> {
    let mut bad = Vec::new();
    let n = jobs.len();
    if r.wait_times.len() != n || r.placed_nodes.len() != n {
        bad.push(format!("{} of {n} jobs reported", r.wait_times.len()));
    }
    if !r.wait_times.iter().all(|w| w.is_finite() && *w >= 0.0) {
        bad.push("a wait time is not finite and >= 0".into());
    }
    if r.lost_jobs != 0 {
        bad.push(format!("{} jobs lost", r.lost_jobs));
    }
    if r.placed_nodes.iter().any(|p| p.idx() >= grid.len()) {
        bad.push("a job was placed on a node outside the grid".into());
    }
    if c.places.len() != n || jobs.iter().any(|(_, j)| c.places.get(&j.id) != Some(&1)) {
        bad.push("a job was not placed exactly once".into());
    }
    // Each job arrives once and finishes once; every refresh after the
    // initial one is an event. Any other count means a job finished
    // twice or not at all.
    let expected = 2 * n as u64 + c.refreshes.saturating_sub(1);
    if r.events_fired != expected {
        bad.push(format!(
            "{} events fired, expected {expected}",
            r.events_fired
        ));
    }
    if deep {
        if let Err(e) = catch_unwind(AssertUnwindSafe(|| grid.check_invariants())) {
            bad.push(format!("grid invariants: {}", panic_text(&e)));
        }
    }
    bad
}

pub(crate) fn panic_text(e: &Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| e.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

/// One unit: generate, build one grid and matchmaker per scheduler
/// (set-up), run every scheduler over the same trace (measured), then
/// check the outputs.
pub fn unit(case: &Case, deep: bool, rec: &mut Recorder) -> Unit {
    let Case { sc, choices } = case;
    let t0 = Instant::now();
    let setup = rec.open("bench.setup", 0);
    let (jobs, population) = rec.time("workload.gen", 0, || generate(sc));
    let mut arms: Vec<(StaticGrid, Box<dyn Matchmaker>)> = Vec::new();
    for (i, &choice) in choices.iter().enumerate() {
        let layout = DimensionLayout::with_dims(sc.dims);
        let pop = population.clone();
        let grid = rec.time("grid.build", i as u64, || {
            StaticGrid::build(layout, pop, PLATFORM_SEED)
        });
        let mm = rec.time("aggregate.new", i as u64, || matchmaker(sc, &grid, choice));
        arms.push((grid, mm));
    }
    drop(population);
    rec.close(setup);
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let run = rec.open("bench.run", 0);
    let mut outcomes = Vec::new();
    for (i, ((grid, mm), &choice)) in arms.iter_mut().zip(choices.iter()).enumerate() {
        let open = rec.open("grid_sim.run", i as u64);
        let mut probe = Probe::new(mm.as_mut(), choice, rec);
        let r = run_trace(
            grid,
            &mut probe,
            &jobs,
            sc.ai_refresh_period,
            sc.seed,
            choice,
        );
        let counts = probe.counts;
        rec.close(open);
        outcomes.push((r, counts));
    }
    rec.close(run);
    let run_s = t1.elapsed().as_secs_f64();

    let mut unit = Unit::new(setup_s, run_s);
    unit.peak_rss_mb = crate::peak_rss_mb();
    let mut digest = Fnv::new();
    let mut waits: Vec<f64> = Vec::new();
    let mut all_hops: Vec<u32> = Vec::new();
    let (mut pushes_sum, mut fallback_sum, mut events) = (0u64, 0u64, 0u64);
    let mut degree = 0.0;
    for ((grid, _), (r, c)) in arms.iter().zip(outcomes) {
        let label = r.scheduler.label();
        let bad = check(&r, &c, &jobs, grid, deep);
        unit.attempted += jobs.len() as u64;
        if !bad.is_empty() {
            unit.failed += jobs.len() as u64;
            unit.failures
                .extend(bad.into_iter().map(|b| format!("{label}: {b}")));
        }
        fold_result(&r, &mut digest);
        unit.work += r.wait_times.len() as u64;
        waits.extend_from_slice(&r.wait_times);
        all_hops.extend_from_slice(&c.hops);
        pushes_sum += c.pushes;
        fallback_sum += c.fallbacks;
        events += r.events_fired;
        degree += grid.mean_degree();
        let per_job = |x: f64| x / c.hops.len().max(1) as f64;
        unit.lines.push(format!(
            "{label:<8} mean wait {:>9.2} s  hops/job {:>6.2}  pushes/job {:>5.2}  events {}",
            r.mean_wait(),
            per_job(c.hops.iter().map(|&h| f64::from(h)).sum()),
            per_job(c.pushes as f64),
            r.events_fired
        ));
    }
    unit.digest = digest.finish();
    let placements = all_hops.len().max(1) as f64;
    waits.sort_by(f64::total_cmp);
    all_hops.sort_unstable();
    let mean_hops = all_hops.iter().map(|&h| f64::from(h)).sum::<f64>() / placements;
    let mean_wait = waits.iter().sum::<f64>() / waits.len().max(1) as f64;
    unit.counts = [
        ("grid.mean_degree", degree / arms.len() as f64),
        ("matchmakers.pushes_per_job", pushes_sum as f64 / placements),
        (
            "matchmakers.fallback_ratio",
            fallback_sum as f64 / placements,
        ),
        ("routing.hops_per_job", mean_hops),
        ("routing.hops_p99", f64::from(percentile(&all_hops, 0.99))),
        ("grid_sim.events", events as f64),
        ("sim_wait_mean_s", mean_wait),
        ("sim_wait_p99_s", percentile(&waits, 0.99)),
    ]
    .map(|(k, v)| (k.to_string(), v))
    .to_vec();
    unit
}
