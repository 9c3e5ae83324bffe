//! The `simulate` workload: the event engine plus the policies, on one
//! thread, over four parts sized to take roughly equal host time.
//!
//! * `dense_lru` — private Zipf universes far larger than L2, `lru`.
//! * `dense_partition` — a prefix of the same input, `partition`
//!   (the static-partition victim scan).
//! * `sparse` — staggered thrash at p=512, τ=512: event queue and
//!   idle-gap jumps, not page lookups.
//! * `capacity_mark` — shared Zipf under a sawtooth K(t), `mark`: the
//!   shrink-eviction path.
//!
//! Gate: every part's total faults and makespan equal pinned values
//! computed once after the timed phase by an independent engine: the
//! naive reference simulator (`mcp_oracle`) for `dense_partition` and
//! `capacity_mark`, and the scan-based tick engine for `dense_lru` and
//! `sparse`, where the reference would need about 13 s and 14 s per run.

use crate::stats::{
    repeat_for, times, typical_per_unit, NsSamples, Report, Samples, Setup, TYPICAL,
};
use crate::timing::TimedStrategy;
use crate::Ctx;
use mcp_core::{
    simulate, simulate_tick_with_capacity, simulate_with_capacity, CapacitySchedule, SimConfig,
    Simulator, Workload,
};
use mcp_exec::derive_seed;
use mcp_policies::build_family;
use std::time::Instant;

struct Part {
    name: &'static str,
    family: &'static str,
    workload: Workload,
    cfg: SimConfig,
    capacity: CapacitySchedule,
    /// Pin with the naive reference (else with the tick engine).
    pin_with_reference: bool,
}

impl Part {
    fn requests(&self) -> usize {
        self.workload.total_len()
    }

    fn strategy(&self) -> Box<dyn mcp_core::CacheStrategy> {
        build_family(self.family, &self.workload, self.cfg, 0).expect("registered family")
    }
}

/// `(total faults, makespan)` of one part run; `None` if the engine
/// returned an error.
type Outcome = Option<(u64, u64)>;

/// One untraced pass: each part's seconds and outcome.
type Pass = (Vec<f64>, Vec<Outcome>);

/// Requests per core of each part.
struct Sizes {
    lru: usize,
    partition: usize,
    sparse: usize,
    mark: usize,
}

const FULL: Sizes = Sizes {
    lru: 62_500,
    partition: 3_500,
    sparse: 1_000,
    mark: 11_000,
};

const TINY: Sizes = Sizes {
    lru: 2_000,
    partition: 500,
    sparse: 40,
    mark: 500,
};

/// A sawtooth K(t): capacity steps down by a quarter of `k0` every
/// `period` timesteps, three times, then snaps back to `k0`.
fn sawtooth(k0: usize, period: u64, horizon: u64) -> CapacitySchedule {
    let levels = [k0 * 3 / 4, k0 / 2, k0 / 4, k0];
    let steps = (1..=horizon / period)
        .map(|i| (i * period, levels[(i as usize - 1) % levels.len()]))
        .collect();
    CapacitySchedule::new(k0, steps).expect("sawtooth times increase and stay positive")
}

fn build(ctx: &Ctx) -> Vec<Part> {
    let s = if ctx.tiny { &TINY } else { &FULL };
    let seed = |i| derive_seed(ctx.seed, i);
    let lru = mcp_workloads::zipf(8, s.lru, 65_536, 0.9, seed(0));
    let partition = lru.prefix(s.partition);
    let sparse = mcp_workloads::staggered_thrash(512, s.sparse, 8, 64, seed(2));
    let mark = mcp_workloads::zipf_shared(4, s.mark, 512, 0.9, seed(3));
    let mark_tau = 4;
    let horizon = s.mark as u64 * (mark_tau + 1);
    vec![
        Part {
            name: "dense_lru",
            pin_with_reference: false,
            family: "lru",
            workload: lru,
            cfg: SimConfig::new(1024, 4),
            capacity: CapacitySchedule::fixed(1024),
        },
        Part {
            name: "dense_partition",
            pin_with_reference: true,
            family: "partition",
            workload: partition,
            cfg: SimConfig::new(1024, 4),
            capacity: CapacitySchedule::fixed(1024),
        },
        Part {
            name: "sparse",
            pin_with_reference: false,
            family: "lru",
            workload: sparse,
            cfg: SimConfig::new(1024, 512),
            capacity: CapacitySchedule::fixed(1024),
        },
        Part {
            name: "capacity_mark",
            pin_with_reference: true,
            family: "mark",
            workload: mark,
            cfg: SimConfig::new(128, mark_tau),
            capacity: sawtooth(128, 1_500, horizon),
        },
    ]
}

/// One untraced run of a part through the public entry points.
fn run_part(part: &Part) -> Outcome {
    let result = if part.capacity.is_fixed() {
        simulate(&part.workload, part.cfg, part.strategy())
    } else {
        simulate_with_capacity(
            &part.workload,
            part.cfg,
            part.capacity.clone(),
            part.strategy(),
        )
    };
    result.ok().map(|r| (r.total_faults(), r.makespan))
}

/// What one traced run of a part observed.
#[derive(Default)]
struct Traced {
    build_s: f64,
    steps: u64,
    served: u64,
    faults: u64,
    hits: u64,
}

/// One traced run of a part: the simulator is stepped by hand so every
/// step is timed, and the strategy sits inside the policy timer.
fn run_part_traced(
    part: &Part,
    step_ns: &mut NsSamples,
    policy: &mut TimedStrategy<Box<dyn mcp_core::CacheStrategy>>,
) -> (Outcome, Traced) {
    let mut t = Traced::default();
    let t0 = Instant::now();
    let Ok(mut sim) = Simulator::with_capacity(
        &part.workload,
        part.cfg,
        part.capacity.clone(),
        &mut *policy,
    ) else {
        return (None, t);
    };
    t.build_s = t0.elapsed().as_secs_f64();
    loop {
        let s0 = Instant::now();
        match sim.step() {
            Ok(Some(report)) => {
                step_ns.record(s0.elapsed());
                t.steps += 1;
                t.served += report.served.len() as u64;
            }
            Ok(None) => break,
            Err(_) => return (None, t),
        }
    }
    let Ok(result) = sim.run() else {
        return (None, t);
    };
    t.faults = result.total_faults();
    t.hits = result.total_hits();
    (Some((t.faults, result.makespan)), t)
}

/// The pinned `(faults, makespan)` of every part.
fn pin(parts: &[Part], corrupt: bool) -> Vec<Outcome> {
    let mut pins: Vec<Outcome> = parts
        .iter()
        .map(|part| {
            let (w, cfg, capacity) = (&part.workload, part.cfg, part.capacity.clone());
            let result = if part.pin_with_reference {
                mcp_oracle::reference_simulate_with_capacity(w, cfg, capacity, part.strategy())
            } else {
                simulate_tick_with_capacity(w, cfg, capacity, part.strategy())
            };
            result.ok().map(|r| (r.total_faults(), r.makespan))
        })
        .collect();
    if corrupt {
        if let Some(Some((faults, _))) = pins.first_mut() {
            *faults += 1;
        }
    }
    pins
}

fn gate(report: &mut Report, parts: &[Part], pins: &[Outcome], passes: &[Vec<Outcome>]) {
    for (i, part) in parts.iter().enumerate() {
        let failed = passes
            .iter()
            .filter(|pass| pass[i].is_none() || pass[i] != pins[i])
            .count();
        report.gate(
            &format!("{} faults/makespan vs reference", part.name),
            passes.len() as u64,
            failed as u64,
        );
    }
}

/// Each part's time at [`TYPICAL`] over the passes. A part takes about
/// a tenth of a second, so it is timed some fifty times in a 25-s run.
fn typical_parts(passes: &[(f64, Pass)]) -> Vec<f64> {
    typical_per_unit(passes, passes[0].1 .0.len(), |(parts_s, _), i| parts_s[i])
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let (mut setup, parts) = Setup::new(|| build(ctx));
    let requests: usize = parts.iter().map(Part::requests).sum();
    for part in &parts {
        report.note(format!(
            "part {}: family={} p={} requests={} K={} tau={} capacity={}",
            part.name,
            part.family,
            part.workload.num_cores(),
            part.requests(),
            part.cfg.cache_size,
            part.cfg.tau,
            part.capacity
        ));
    }
    let untraced_pass = || -> Pass {
        parts
            .iter()
            .map(|part| {
                let t0 = Instant::now();
                let out = run_part(part);
                (t0.elapsed().as_secs_f64(), out)
            })
            .unzip()
    };
    if !ctx.trace {
        let reps = repeat_for(ctx.seconds, 4, untraced_pass, || setup.resample());
        for (s, (parts_s, _)) in &reps {
            report.note(format!("repetition: {s:.4} s, parts {parts_s:.4?}"));
        }
        let part_s = typical_parts(&reps);
        let solve_s: f64 = part_s.iter().sum();
        let per_call = Samples::from(part_s);
        report.note(format!(
            "measured: each part at the 90th percentile of its {} runs",
            reps.len()
        ));
        report.metric("setup_s", setup.typical(), "s");
        report.metric("requests_per_s", requests as f64 / solve_s, "1/s");
        report.metric("solve_s", solve_s, "s");
        report.quantile_metric("latency_p50_us", &per_call, 0.5, 1e6, "us");
        report.quantile_metric("latency_p99_us", &per_call, 0.99, 1e6, "us");
        let pins = pin(&parts, ctx.corrupt_pin);
        let passes: Vec<Vec<Outcome>> = reps.into_iter().map(|(_, (_, o))| o).collect();
        gate(&mut report, &parts, &pins, &passes);
        return report;
    }

    // Traced run: untraced and traced passes alternate, so the tracing
    // overhead is measured under the same host conditions.
    let mut step_ns = NsSamples::default();
    let mut policy_busy = 0.0;
    let (mut choose, mut on_hit, mut shrink) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut build_s = Samples::default();
    let mut calls = 0;
    let mut last: Vec<Traced> = Vec::new();
    let start = Instant::now();
    while traced.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds {
        let t0 = Instant::now();
        let pass = untraced_pass();
        untraced.push((t0.elapsed().as_secs_f64(), pass));

        let t0 = Instant::now();
        let mut outcomes = Vec::new();
        let mut observed = Vec::new();
        let mut policies = Vec::new();
        // Hot-path samples come from the first traced pass only (millions
        // per pass); shrink victims are rare, so they are kept from every
        // pass.
        let mut pass_step_ns = NsSamples::default();
        for part in &parts {
            let mut policy = TimedStrategy::new(part.strategy());
            let (out, t) = run_part_traced(part, &mut pass_step_ns, &mut policy);
            outcomes.push(out);
            observed.push(t);
            policies.push(policy);
        }
        traced.push((t0.elapsed().as_secs_f64(), outcomes));
        build_s.push(observed.iter().map(|t| t.build_s).sum());
        calls = policies.iter().map(|p| p.calls()).sum();
        if traced.len() == 1 {
            step_ns = pass_step_ns;
            for p in &policies {
                choose.extend(&p.choose_cell.to_samples());
                on_hit.extend(&p.on_hit.to_samples());
                policy_busy += p.busy_s();
            }
        }
        for p in &policies {
            shrink.extend(&p.shrink_victims.to_samples());
        }
        last = observed;
    }
    let pins = pin(&parts, ctx.corrupt_pin);
    let passes: Vec<Vec<Outcome>> = untraced
        .iter()
        .map(|(_, (_, o))| o.clone())
        .chain(traced.iter().map(|(_, o)| o.clone()))
        .collect();
    gate(&mut report, &parts, &pins, &passes);

    let steps: u64 = last.iter().map(|t| t.steps).sum();
    let served: u64 = last.iter().map(|t| t.served).sum();
    let part_s = typical_parts(&untraced);
    report.metric("workloads.gen_s", setup.typical(), "s");
    report.metric("core.sim.build_s", build_s.median(), "s");
    for (i, part) in parts.iter().enumerate() {
        report.metric(
            format!("core.sim.{}.requests_per_s", part.name),
            part.requests() as f64 / part_s[i],
            "1/s",
        );
        report.note(format!(
            "part {}: steps={} requests_per_step={:.3}",
            part.name,
            last[i].steps,
            last[i].served as f64 / last[i].steps.max(1) as f64
        ));
    }
    let steps_samples = step_ns.to_samples();
    report.quantile_metric("core.sim.step_ns.p50", &steps_samples, 0.5, 1.0, "ns");
    report.quantile_metric("core.sim.step_ns.p99", &steps_samples, 0.99, 1.0, "ns");
    report.metric("core.sim.steps", steps as f64, "count");
    report.metric(
        "core.sim.requests_per_step",
        served as f64 / steps.max(1) as f64,
        "ratio",
    );
    report.metric(
        "core.sim.faults",
        last.iter().map(|t| t.faults).sum::<u64>() as f64,
        "count",
    );
    report.metric(
        "core.sim.hits",
        last.iter().map(|t| t.hits).sum::<u64>() as f64,
        "count",
    );
    report.quantile_metric("policies.choose_cell_ns.p50", &choose, 0.5, 1.0, "ns");
    report.quantile_metric("policies.choose_cell_ns.p99", &choose, 0.99, 1.0, "ns");
    report.quantile_metric("policies.on_hit_ns.p50", &on_hit, 0.5, 1.0, "ns");
    report.quantile_metric("policies.shrink_victims_ns.p99", &shrink, 0.99, 1.0, "ns");
    report.metric("policies.calls", calls as f64, "count");
    let untraced_s = times(&untraced).quantile(TYPICAL);
    let traced_s = times(&traced).quantile(TYPICAL);
    report.metric("trace.overhead_frac", traced_s / untraced_s - 1.0, "ratio");
    report.note(format!(
        "self time in one traced pass: core.sim {:.4} s, policies {:.4} s",
        step_ns.total_s() - policy_busy,
        policy_busy
    ));
    report.note(format!(
        "tracing overhead: untraced pass {:.4} s ({:.0} req/s), traced pass {:.4} s ({:.0} req/s)",
        untraced_s,
        requests as f64 / untraced_s,
        traced_s,
        requests as f64 / traced_s
    ));
    report
}
