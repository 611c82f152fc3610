//! The `fault-scenarios` workload: every scenario-library entry ×
//! {vanilla, compact, adaptive} × a few schedule seeds, each run
//! through `run_case` with every DST oracle armed.

use crate::trace::Recorder;
use crate::Unit;
use pgrid::prelude::*;
use pgrid::simcore::rng::sub_seed;
use std::time::Instant;

/// Schedule-seed triples per unit; each seed gives 27 schedules.
pub const TRIPLES_PER_UNIT: u64 = 2;

/// Scenario populations, as in the full-scale scenario suite.
pub const NODES: usize = 48;

/// The unit's schedule seeds. `run_case` picks the sched phase's
/// scheduler as `seed % 3`, and the three differ in cost, so seeds come
/// in triples covering each residue once: every unit runs the same
/// scheduler mix whatever `seed` is.
pub fn schedule_seeds(seed: u64) -> Vec<u64> {
    (0..TRIPLES_PER_UNIT)
        .flat_map(|j| {
            let base = sub_seed(seed, j) / 3 * 3;
            (0..3).map(move |r| base + r)
        })
        .collect()
}

/// Compiles the unit's schedules (the workload's set-up).
pub fn compile(seed: u64) -> Vec<FaultSchedule> {
    let seeds = schedule_seeds(seed);
    let mut out = Vec::new();
    for spec in scenarios::REGISTRY {
        for scheme in HeartbeatScheme::ALL {
            for &s in &seeds {
                let mut s = spec.compile_for(&scheme.label().to_ascii_lowercase(), s);
                s.nodes = NODES;
                out.push(s);
            }
        }
    }
    out
}

/// One unit: compile (set-up), `run_case` every schedule (measured),
/// check each report. When tracing, each schedule then runs again,
/// outside the measured phase, through `run_case` and right after it
/// through `can::dst::run_schedule` alone (its CAN phase), which splits
/// `run_case` into its two stacks.
pub fn unit(seed: u64, rec: &mut Recorder) -> Unit {
    let t0 = Instant::now();
    let setup = rec.open("bench.setup", 0);
    let schedules = rec.time("dst.compile", 0, || compile(seed));
    rec.close(setup);
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let run = rec.open("bench.run", 0);
    let mut reports = Vec::with_capacity(schedules.len());
    for (i, s) in schedules.iter().enumerate() {
        reports.push(rec.time("dst.case", i as u64, || run_case(s)));
    }
    rec.close(run);
    let run_s = t1.elapsed().as_secs_f64();

    let mut unit = Unit::new(setup_s, run_s);
    unit.peak_rss_mb = crate::peak_rss_mb();
    let mut digest = Fnv::new();
    let (mut broken_peak, mut admitted, mut shed, mut pushes) = (0usize, 0u64, 0u64, 0u64);
    for (s, r) in schedules.iter().zip(&reports) {
        digest.write_u64(r.digest);
        unit.attempted += 1;
        if !r.violations.is_empty() {
            unit.failed += 1;
            unit.failures.push(format!(
                "seed {} scheme {}: {}",
                s.seed,
                s.scheme,
                r.violations.join("; ")
            ));
        }
        broken_peak = broken_peak.max(r.broken_peak);
        if let Some(o) = &r.overload {
            admitted += o.admitted;
            shed += o.shed_total();
            pushes += o.push_attempts;
        }
    }
    unit.work = reports.len() as u64;
    unit.digest = digest.finish();
    let mut counts = vec![
        ("dst.broken_peak", broken_peak as f64),
        ("overload.admitted", admitted as f64),
        ("overload.shed", shed as f64),
        ("overload.push_attempts", pushes as f64),
    ];

    if rec.enabled() {
        let probe = rec.open("bench.probe", 0);
        let (mut takeovers, mut dropped, mut partition, mut frozen) = (0usize, 0u64, 0u64, 0u64);
        for (i, s) in schedules.iter().enumerate() {
            // Timed back to back, so the difference (the sched phase)
            // is not swamped by host drift since the measured phase.
            rec.time("dst.case_probe", i as u64, || run_case(s));
            let r = rec.time("dst.can_phase", i as u64, || {
                pgrid::can::dst::run_schedule(s)
            });
            takeovers += r.takeovers;
            dropped += r.dropped_messages;
            partition += r.partition_drops;
            frozen += r.frozen_drops;
        }
        rec.close(probe);
        counts.extend([
            ("dst.takeovers", takeovers as f64),
            ("fault.dropped_msgs", dropped as f64),
            ("fault.partition_drops", partition as f64),
            ("fault.frozen_drops", frozen as f64),
        ]);
    }
    unit.lines.push(format!(
        "{} schedules  peak broken links {broken_peak}  overload admitted {admitted} shed {shed}",
        reports.len()
    ));
    unit.counts = counts
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    unit
}
