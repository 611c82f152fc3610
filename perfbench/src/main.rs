//! `pgrid-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs units of one workload for `--seconds` and prints, as the last
//! stdout line, `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A traced run also writes every span to
//! `perfbench/out/<workload>-seed<n>.spans.tsv`.

use pgrid_perfbench::{
    end_to_end, host_threads, measure, median_traced, per_layer, recorded_digest, report,
    spans_tsv, Run, Workload,
};
use std::process::ExitCode;

const USAGE: &str =
    "usage: pgrid-perfbench --workload <grid-10k|grid-paper|churn-adaptive|fault-scenarios> \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    println!(
        "workload {}  seed {}  seconds {}  trace {}  host_threads {}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host_threads()
    );
    let run = measure(w, args.seed, args.seconds, args.trace);
    print_units(&run);
    let metrics = if args.trace {
        if let Err(e) = write_spans(w, args.seed, &run) {
            eprintln!("cannot write the span file: {e}");
            return ExitCode::FAILURE;
        }
        print_layer_summary(w, &run);
        per_layer(&run)
    } else {
        end_to_end(&run)
    };
    for (name, value) in &metrics {
        println!("  {name:<32} {value:>16.6} {}", report::unit_of(name));
    }
    let digest = run.plain[0].digest;
    let recorded = match recorded_digest(w, args.seed) {
        Some(r) if r == digest => "matches the recorded digest",
        Some(_) => "DIFFERS from the recorded digest",
        None => "no digest recorded for this seed",
    };
    println!("digest {digest:016x} ({recorded})");
    println!(
        "checked {} items, {} failed (fail_ratio {})",
        run.attempted,
        run.failed,
        run.failed as f64 / run.attempted.max(1) as f64
    );
    for f in run.failures.iter().take(20) {
        println!("FAILED {f}");
    }
    let correct = run.failures.is_empty() && run.failed == 0;
    println!(
        "{}",
        report::result_line(correct, run.attempted, run.failed, &metrics)
    );
    ExitCode::SUCCESS
}

fn print_units(run: &Run) {
    let traced = run.traced.iter().map(|(u, _)| (u, "traced"));
    for (k, (u, kind)) in run
        .plain
        .iter()
        .map(|u| (u, "plain"))
        .chain(traced)
        .enumerate()
    {
        println!(
            "unit {k} ({kind}): setup {:.4} s  run {:.4} s  work {}",
            u.setup_s, u.run_s, u.work
        );
        if k == 0 {
            for line in &u.lines {
                println!("  {line}");
            }
        }
    }
}

/// The accounting check of the traced unit, and for grid-10k the
/// ROADMAP's baseline row.
fn print_layer_summary(w: Workload, run: &Run) {
    let (unit, rec) = median_traced(run);
    let in_run = rec.self_ns_under("bench.run") as f64 * 1e-9;
    let by = rec.by_name();
    let self_s = |n: &str| by.get(n).map_or(0.0, |s| s.self_s());
    println!(
        "traced run {:.4} s = layer self time {in_run:.4} s + untimed remainder {:.4} s",
        unit.run_s,
        self_s("bench.run")
    );
    if w == Workload::Grid10k {
        let m: std::collections::BTreeMap<&str, f64> = per_layer(run).into_iter().collect();
        let place = m["matchmakers.place_s"];
        let calls = m["matchmakers.place_calls"].max(1.0);
        println!(
            "| n | total | CAN build | AiTable refresh | placement | mean hops | mean degree |"
        );
        println!("|---|---|---|---|---|---|---|");
        println!(
            "| 10 000 ({}k jobs) | {:.2} s | {:.2} s | {:.2} s | {place:.2} s ({:.0} µs/job) | {:.1} | {:.0} |",
            calls as u64 / 1000,
            unit.setup_s + unit.run_s,
            m["grid.build_s"],
            m["aggregate.refresh_s"],
            place / calls * 1e6,
            m["routing.hops_per_job"],
            m["grid.mean_degree"]
        );
    }
}

fn write_spans(w: Workload, seed: u64, run: &Run) -> std::io::Result<()> {
    let dir = std::path::Path::new("perfbench/out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}-seed{seed}.spans.tsv", w.name()));
    std::fs::write(&path, spans_tsv(run))?;
    println!("spans written to {}", path.display());
    Ok(())
}
