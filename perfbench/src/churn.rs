//! The `churn-adaptive` workload: `run_churn`'s two-stage join/leave
//! loop, driven from outside through `CanSim`'s public methods so each
//! call can be timed. Stage 1 (sequential joins and settle) is set-up;
//! stage 2 (churn and sampling) is measured.

use crate::grid::panic_text;
use crate::trace::Recorder;
use crate::Unit;
use pgrid::can::MsgKind;
use pgrid::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The one scenario seed this workload runs, whatever `--seed` is.
/// Stage 2's cost is a few slow take-over rounds (100–450 ms each,
/// against about 10 ms for a typical `advance_to` step) whose number
/// and size depend on both the overlay and the event stream: across
/// seeds a 900 s window holds 1 to 20 of them and its wall time ranges
/// 1.1–3.9 s, and even with the event stream fixed the overlay alone
/// moves it 1.9–3.0 s. A seed-varied run would need on the order of a
/// hundred windows to hold its median within the benchmark's bounds,
/// so the workload pins the scenario and its trajectory digest is
/// checked on every run.
pub const SEED: u64 = 2011;

/// 2 048 nodes, 11 dimensions, adaptive heartbeats, high churn (event
/// gap = period / 6), with the compressed bootstrap of the
/// `fig7/n4096` perf cell and a 15-minute churn window (90 events),
/// so the measured stage is about twice as long as the bootstrap.
pub fn config() -> ChurnConfig {
    let mut cfg = ChurnConfig::new(11, HeartbeatScheme::Adaptive, 2048).high_churn();
    cfg.seed = SEED;
    cfg.bootstrap_spacing = 0.25;
    cfg.stage2_duration = 900.0;
    cfg.sample_interval = 60.0;
    cfg
}

/// Every message kind, with its metric name.
pub const KINDS: [(MsgKind, &str); 8] = [
    (MsgKind::Heartbeat, "heartbeat"),
    (MsgKind::FullUpdateRequest, "full_update_request"),
    (MsgKind::FullUpdateResponse, "full_update_response"),
    (MsgKind::Join, "join"),
    (MsgKind::Handoff, "handoff"),
    (MsgKind::Repair, "repair"),
    (MsgKind::Probe, "probe"),
    (MsgKind::Replica, "replica"),
];

/// What one churn experiment produced.
pub struct Outcome {
    /// The finished simulator.
    pub sim: CanSim,
    /// `CanSim::state_digest` at the end of stage 2.
    pub state_digest: u64,
    /// Broken-link samples over stage 2.
    pub broken: Vec<usize>,
    /// Datagrams delivered during stage 2.
    pub stage2_msgs: u64,
    /// Wall seconds of stage 1 (set-up).
    pub setup_s: f64,
    /// Wall seconds of stage 2.
    pub run_s: f64,
}

/// Runs `cfg` exactly as `run_churn` does, with a span around every
/// `CanSim` call.
pub fn run(cfg: &ChurnConfig, rec: &mut Recorder) -> Outcome {
    let t0 = Instant::now();
    let setup = rec.open("bench.setup", 0);
    let mut proto = ProtocolConfig::new(cfg.dims, cfg.scheme);
    proto.heartbeat_period = cfg.heartbeat_period;
    proto.fail_timeout = cfg.fail_timeout;
    proto.message_loss = cfg.message_loss;
    proto.detector = cfg.detector;
    proto.loss_seed = pgrid::simcore::rng::sub_seed(cfg.seed, 0x7055);
    let mut sim = CanSim::new(proto).expect("valid protocol config");
    let mut rng = SimRng::sub_stream(cfg.seed, 0xC0DE);
    let mut coord_gen = uniform_coords(cfg.dims);
    let (mut joins, mut leaves, mut advances) = (0u64, 0u64, 0u64);
    let mut advance = |sim: &mut CanSim, rec: &mut Recorder, t: f64| {
        rec.time("protocol.advance", advances, || sim.advance_to(t));
        advances += 1;
    };

    let mut joined = 0;
    while joined < cfg.initial_nodes {
        let c = coord_gen(&mut rng);
        if rec.time("protocol.join", joins, || sim.join(c)).is_ok() {
            joined += 1;
        }
        joins += 1;
        let t = sim.now() + cfg.bootstrap_spacing;
        advance(&mut sim, rec, t);
    }
    let t = sim.now() + cfg.settle_time;
    advance(&mut sim, rec, t);
    sim.reset_accounting();
    rec.close(setup);
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let run = rec.open("bench.run", 0);
    let delivered_before = sim.delivered_messages();
    let stage2_start = sim.now();
    let end = stage2_start + cfg.stage2_duration;
    let mut next_sample = stage2_start;
    let mut broken = Vec::new();
    let min_nodes = (cfg.initial_nodes / 2).max(2);
    let mut next_event = stage2_start + cfg.event_gap;
    while next_event <= end || next_sample <= end {
        if next_sample <= next_event && next_sample <= end {
            advance(&mut sim, rec, next_sample);
            broken.push(rec.time("protocol.broken_links", 0, || sim.broken_links()));
            next_sample += cfg.sample_interval;
            continue;
        }
        if next_event > end {
            break;
        }
        advance(&mut sim, rec, next_event);
        let join = sim.len() <= min_nodes || rng.chance(0.5);
        if join {
            let c = coord_gen(&mut rng);
            let _ = rec.time("protocol.join", joins, || sim.join(c));
            joins += 1;
        } else {
            let members = sim.members();
            let victim = members[rng.below(members.len())];
            let graceful = rng.chance(cfg.graceful_fraction);
            rec.time("protocol.leave", leaves, || sim.leave(victim, graceful));
            leaves += 1;
        }
        next_event += cfg.event_gap;
    }
    advance(&mut sim, rec, end);
    let stage2_msgs = sim.delivered_messages() - delivered_before;
    rec.close(run);
    let run_s = t1.elapsed().as_secs_f64();

    let state_digest = sim.state_digest();
    Outcome {
        sim,
        state_digest,
        broken,
        stage2_msgs,
        setup_s,
        run_s,
    }
}

/// Mean broken links over the last half of the samples
/// (`ChurnReport::steady_broken_links`).
pub fn steady(broken: &[usize]) -> f64 {
    let tail = &broken[broken.len() / 2..];
    tail.iter().sum::<usize>() as f64 / tail.len().max(1) as f64
}

/// One unit: the whole experiment, then (when `deep`) the invariant
/// check, which recomputes the adjacency from scratch.
pub fn unit(cfg: &ChurnConfig, deep: bool, rec: &mut Recorder) -> Unit {
    let mut o = run(cfg, rec);
    let mut unit = Unit::new(o.setup_s, o.run_s);
    unit.peak_rss_mb = crate::peak_rss_mb();
    unit.work = o.stage2_msgs;
    unit.digest = o.state_digest;
    unit.attempted = 1;
    if deep {
        if let Err(e) = catch_unwind(AssertUnwindSafe(|| o.sim.check_invariants())) {
            unit.failed = 1;
            unit.failures
                .push(format!("CanSim invariants: {}", panic_text(&e)));
        }
    }
    let sim = &mut o.sim;
    let final_nodes = sim.len();
    let mut counts = vec![
        ("protocol.delivered_msgs".to_string(), o.stage2_msgs as f64),
        (
            "protocol.full_update_rounds".into(),
            sim.full_update_rounds() as f64,
        ),
        ("protocol.repairs".into(), sim.repairs() as f64),
        ("sim_broken_links".into(), steady(&o.broken)),
    ];
    let acct = sim.accounting();
    counts.push((
        "sim_hb_msgs_per_node_min".into(),
        acct.heartbeat_msgs_per_node_min(),
    ));
    counts.push((
        "sim_hb_kb_per_node_min".into(),
        acct.heartbeat_kb_per_node_min(),
    ));
    for (kind, name) in KINDS {
        let c = acct.counter(kind);
        counts.push((format!("wire.{name}.msgs"), c.messages as f64));
        counts.push((format!("wire.{name}.bytes"), c.bytes as f64));
    }
    unit.lines.push(format!(
        "final nodes {final_nodes}  steady broken links {:.1}  hb msgs/node/min {:.2}  \
         stage-2 datagrams {}",
        steady(&o.broken),
        acct.heartbeat_msgs_per_node_min(),
        o.stage2_msgs
    ));
    unit.counts = counts;
    unit
}
