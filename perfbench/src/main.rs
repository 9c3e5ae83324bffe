//! `perfbench` — runs one benchmark workload against the workspace crates
//! and prints its metrics.
//!
//! ```text
//! perfbench --workload simulate|tournament|serve|offline --seed N
//!           --seconds S --trace 0|1 [--tiny] [--corrupt-pin]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics (all but `peak_rss_mb`,
//! which `run.py` measures from outside the process); `--trace 1` wraps
//! the same calls in timers and prints the per-layer metrics. `--tiny`
//! shrinks every input so a run takes well under a second (the smoke
//! tests use it); `--corrupt-pin` perturbs one pinned expected value so
//! the correctness gate must fail. The last line of standard output is
//! the result object; every line above it starts with `#`.

mod offline;
mod serve;
mod simulate;
mod stats;
mod timing;
mod tournament;

use stats::{host_probe, Report};
use std::process::ExitCode;

/// Options shared by every workload.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
    pub corrupt_pin: bool,
}

/// The end-to-end metrics every untraced run prints (`peak_rss_mb` is
/// added by `run.py`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("requests_per_s", "1/s"),
    ("solve_s", "s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
];

/// The per-layer metrics every traced run prints. A layer a workload
/// does not run reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.gen_s", "s"),
    ("core.sim.build_s", "s"),
    ("core.sim.dense_lru.requests_per_s", "1/s"),
    ("core.sim.dense_partition.requests_per_s", "1/s"),
    ("core.sim.sparse.requests_per_s", "1/s"),
    ("core.sim.capacity_mark.requests_per_s", "1/s"),
    ("core.sim.step_ns.p50", "ns"),
    ("core.sim.step_ns.p99", "ns"),
    ("core.sim.steps", "count"),
    ("core.sim.requests_per_step", "ratio"),
    ("core.sim.faults", "count"),
    ("core.sim.hits", "count"),
    ("policies.choose_cell_ns.p50", "ns"),
    ("policies.choose_cell_ns.p99", "ns"),
    ("policies.on_hit_ns.p50", "ns"),
    ("policies.shrink_victims_ns.p99", "ns"),
    ("policies.calls", "count"),
    ("batch.dense_build_s", "s"),
    ("batch.cell_us.p50", "us"),
    ("batch.cell_us.p99", "us"),
    ("batch.dense_cells", "count"),
    ("batch.fallback_cells", "count"),
    ("exec.overhead_s", "s"),
    ("oracle.crosscheck_s", "s"),
    ("analysis.report_s", "s"),
    ("serve.offer_ns.p50", "ns"),
    ("serve.offer_ns.p99", "ns"),
    ("serve.generator_late_us.p99", "us"),
    ("serve.run_s", "s"),
    ("serve.served", "count"),
    ("serve.saturated_requests_per_s", "1/s"),
    ("core.online.push_ns.p50", "ns"),
    ("core.online.advance_ns.p50", "ns"),
    ("core.online.advance_ns.p99", "ns"),
    ("core.online.requests_per_advance", "ratio"),
    ("core.online.engine_s", "s"),
    ("core.online.faulting_requests_per_s", "1/s"),
    ("offline.ftf.solve_s", "s"),
    ("offline.ftf.states", "count"),
    ("offline.ftf.expansions", "count"),
    ("offline.ftf.peak_arena_mb", "MB"),
    ("offline.ftf.states_per_s", "1/s"),
    ("offline.pif.solve_s", "s"),
    ("offline.pif.states", "count"),
    ("offline.pif.expansions", "count"),
    ("offline.pif.peak_arena_mb", "MB"),
    ("offline.pif.expansions_per_s", "1/s"),
    ("host.probe_ns", "ns"),
    ("trace.overhead_frac", "ratio"),
];

const USAGE: &str = "usage: perfbench --workload simulate|tournament|serve|offline \
                     --seed N --seconds S --trace 0|1 [--tiny] [--corrupt-pin]";

fn parse_args() -> Result<(String, Ctx), String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut ctx = Ctx {
        seed: 0,
        seconds: 10.0,
        trace: false,
        tiny: false,
        corrupt_pin: false,
    };
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                ctx.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be a non-negative integer")?
            }
            "--seconds" => {
                ctx.seconds = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds must be a number")?
            }
            "--trace" => {
                ctx.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            "--tiny" => ctx.tiny = true,
            "--corrupt-pin" => ctx.corrupt_pin = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, ctx))
}

/// Threads a workload runs, the main thread included.
fn threads(workload: &str) -> usize {
    match workload {
        "serve" => 2, // one producer, one driver
        _ => 1,
    }
}

fn main() -> ExitCode {
    let (workload, ctx) = match parse_args() {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Every pool-backed call (batch grid, DP expansion) runs inline on
    // the calling thread: threads add noise on a small host.
    mcp_exec::set_jobs(Some(1));
    let probe_before = host_probe();
    let mut report: Report = match workload.as_str() {
        "simulate" => simulate::run(&ctx),
        "tournament" => tournament::run(&ctx),
        "serve" => serve::run(&ctx),
        "offline" => offline::run(&ctx),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let probe_after = host_probe();
    let wanted = if ctx.trace { PER_LAYER } else { END_TO_END };
    if ctx.trace {
        report.metric("host.probe_ns", (probe_before + probe_after) / 2.0, "ns");
        let mut idle = Vec::new();
        for &(name, unit) in wanted {
            if !report.metrics.iter().any(|m| m.name == name) {
                report.metric(name, 0.0, unit);
                idle.push(name);
            }
        }
        if !idle.is_empty() {
            report.note(format!(
                "not run by {workload} (read 0): {}",
                idle.join(", ")
            ));
        }
    }
    println!(
        "# record: workload={workload} seed={} seconds={} trace={} tiny={} threads={} \
         probe_before_ns={probe_before:.0} probe_after_ns={probe_after:.0}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        ctx.tiny,
        threads(&workload),
    );
    for note in &report.notes {
        println!("# {note}");
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
