//! Harness equivalence: the benchmark's outside-in loops reproduce the
//! simulator's own entry points bit for bit, traced or not, so tracing
//! cannot perturb a trajectory.

use pgrid::prelude::*;
use pgrid_perfbench::grid::{self, Case};
use pgrid_perfbench::trace::Recorder;
use pgrid_perfbench::{churn, recorded_digest, report, Workload};

#[test]
fn grid_unit_matches_run_load_balance_for_every_scheduler() {
    let mut sc = default_scenario().scaled_down(10);
    sc.jobs = 1000;
    let mut expected = Fnv::new();
    for choice in SchedulerChoice::ALL {
        grid::fold_result(&run_load_balance(&sc, choice), &mut expected);
    }
    assert_eq!(sc.seed, grid::PLATFORM_SEED);
    let case = Case {
        sc,
        choices: &SchedulerChoice::ALL,
    };
    for traced in [false, true] {
        let mut rec = Recorder::new(traced);
        let unit = grid::unit(&case, true, &mut rec);
        assert_eq!(unit.failures, Vec::<String>::new());
        assert_eq!(unit.digest, expected.finish(), "traced = {traced}");
        assert_eq!(rec.spans().is_empty(), !traced);
    }
}

#[test]
fn churn_loop_matches_run_churn_for_every_scheme() {
    for scheme in HeartbeatScheme::ALL {
        let mut cfg = ChurnConfig::new(11, scheme, 96).high_churn();
        cfg.stage2_duration = 600.0;
        cfg.sample_interval = 60.0;
        let expected = run_churn(&cfg, uniform_coords(cfg.dims));
        for traced in [false, true] {
            let o = churn::run(&cfg, &mut Recorder::new(traced));
            assert_eq!(
                o.state_digest, expected.state_digest,
                "{scheme:?} traced = {traced}"
            );
            assert_eq!(churn::steady(&o.broken), expected.steady_broken_links());
        }
    }
}

/// The recorded digests are the library's own trajectories: the paper
/// cell's at its seed (where the platform seed coincides) and the churn
/// workload's, which `run_churn` reproduces at full size.
#[test]
fn recorded_digests_are_the_library_entry_points() {
    let sc = default_scenario();
    assert_eq!(sc.seed, grid::PLATFORM_SEED);
    let mut expected = Fnv::new();
    for choice in SchedulerChoice::ALL {
        grid::fold_result(&run_load_balance(&sc, choice), &mut expected);
    }
    assert_eq!(
        recorded_digest(Workload::GridPaper, sc.seed),
        Some(expected.finish())
    );

    let cfg = churn::config();
    let report = run_churn(&cfg, uniform_coords(cfg.dims));
    assert_eq!(
        recorded_digest(Workload::ChurnAdaptive, 1),
        Some(report.state_digest)
    );
}

#[test]
fn benchmark_json_declares_the_reported_metrics() {
    let json = include_str!("../../BENCHMARK.json");
    let declared = json.matches("\"name\":").count();
    let workloads = Workload::ALL.len();
    assert_eq!(
        declared,
        workloads + report::END_TO_END.len() + report::LAYER_METRICS.len()
    );
    for w in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
    }
    for (name, unit) in report::END_TO_END
        .iter()
        .chain(report::LAYER_METRICS.iter())
    {
        assert!(
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} ({unit}) is not declared"
        );
    }
}
