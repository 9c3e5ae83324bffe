//! The `offline` workload: Algorithm 1 (FTF) and Algorithm 2 (PIF) at
//! one worker over a seeded set of Zipf instances (p=3, universe 8 per
//! core, K=4, τ=2). It bypasses the simulator: interning, dedup and
//! Pareto maintenance in `mcp-offline` are measured nowhere else.
//!
//! Gate: each instance's FTF minimum and PIF verdict equal the pinned
//! values, computed after the timed phase on a second code path — FTF
//! without branch-and-bound pruning and both DPs on the spilled (unpacked)
//! state representation — and the FTF minimum is achieved by replaying
//! its reconstructed schedule on the event engine.

use crate::stats::{typical_per_unit, Report, Samples, Setup};
use crate::Ctx;
use mcp_core::{simulate, Budget, SimConfig, Time, Workload};
use mcp_exec::derive_seed;
use mcp_offline::{
    ftf_dp_governed_with_stats, pif_decide_with_stats, DpInstance, DpStats, FtfOptions, FtfOutcome,
    PifOptions,
};
use mcp_policies::Replay;
use std::time::Instant;

const CORES: usize = 3;
const UNIVERSE: u32 = 8;
const CFG: SimConfig = SimConfig::new(4, 2);

/// Instance-set shape: `count` instances of `len` requests per core,
/// PIF asked at `checkpoint` with every core bounded by `bound`.
struct Shape {
    count: u64,
    len: usize,
    checkpoint: Time,
    bound: u64,
}

const FULL: Shape = Shape {
    count: 1024,
    len: 15,
    checkpoint: 25,
    bound: 7,
};

const TINY: Shape = Shape {
    count: 4,
    len: 12,
    checkpoint: 20,
    bound: 6,
};

fn shape(ctx: &Ctx) -> &'static Shape {
    if ctx.tiny {
        &TINY
    } else {
        &FULL
    }
}

fn build(ctx: &Ctx) -> Vec<Workload> {
    let s = shape(ctx);
    (0..s.count)
        .map(|i| mcp_workloads::zipf(CORES, s.len, UNIVERSE, 0.9, derive_seed(ctx.seed, i)))
        .collect()
}

fn ftf_options() -> FtfOptions {
    FtfOptions {
        jobs: 1,
        ..FtfOptions::default()
    }
}

fn pif_options() -> PifOptions {
    PifOptions {
        jobs: 1,
        ..PifOptions::default()
    }
}

/// One instance's answers; `None` where the DP returned an error.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Answer {
    min_faults: Option<u64>,
    pif: Option<bool>,
}

/// One instance solved, with each DP's stats and host time.
struct Solved {
    answer: Answer,
    ftf: Option<DpStats>,
    pif: Option<DpStats>,
    ftf_s: f64,
    pif_s: f64,
}

fn solve(w: &Workload, s: &Shape) -> Solved {
    let t0 = Instant::now();
    let ftf = ftf_dp_governed_with_stats(w, CFG, ftf_options(), &Budget::unlimited(), None);
    let ftf_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let bounds = vec![s.bound; CORES];
    let pif = pif_decide_with_stats(w, CFG, s.checkpoint, &bounds, pif_options());
    let pif_s = t1.elapsed().as_secs_f64();
    let (min_faults, ftf) = match ftf {
        Ok((FtfOutcome::Complete(r), stats)) => (Some(r.min_faults), Some(stats)),
        _ => (None, None),
    };
    let (verdict, pif) = match pif {
        Ok((v, stats)) => (Some(v), Some(stats)),
        Err(_) => (None, None),
    };
    Solved {
        answer: Answer {
            min_faults,
            pif: verdict,
        },
        ftf,
        pif,
        ftf_s,
        pif_s,
    }
}

/// The pinned answer of one instance, from the second code path, with
/// the FTF minimum certified by replaying its witness schedule.
fn pin(w: &Workload, s: &Shape) -> Answer {
    let unpruned = FtfOptions {
        prune: false,
        force_spill: true,
        ..ftf_options()
    };
    let min_faults = match ftf_dp_governed_with_stats(w, CFG, unpruned, &Budget::unlimited(), None)
    {
        Ok((FtfOutcome::Complete(r), _)) => Some(r.min_faults),
        _ => None,
    };
    let witness = FtfOptions {
        reconstruct: true,
        ..ftf_options()
    };
    let replayed = match ftf_dp_governed_with_stats(w, CFG, witness, &Budget::unlimited(), None) {
        Ok((FtfOutcome::Complete(r), _)) => r
            .schedule
            .and_then(|sched| simulate(w, CFG, Replay::new(sched.decisions)).ok())
            .map(|run| run.total_faults()),
        _ => None,
    };
    let spilled = PifOptions {
        force_spill: true,
        ..pif_options()
    };
    let pif = pif_decide_with_stats(w, CFG, s.checkpoint, &[s.bound; CORES], spilled)
        .ok()
        .map(|(v, _)| v);
    Answer {
        min_faults: min_faults.filter(|_| replayed == min_faults),
        pif,
    }
}

/// Each instance's time at [`TYPICAL`](crate::stats::TYPICAL) over the
/// repetitions.
fn typical_per_instance(reps: &[(f64, Vec<Solved>)], time: fn(&Solved) -> f64) -> Vec<f64> {
    typical_per_unit(reps, reps[0].1.len(), |solved, i| time(&solved[i]))
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let s = shape(ctx);
    let (mut setup, instances) = Setup::new(|| {
        let instances = build(ctx);
        for w in &instances {
            std::hint::black_box(DpInstance::build(w, &CFG).ok());
        }
        instances
    });
    let requests: usize = instances.iter().map(Workload::total_len).sum();
    report.note(format!(
        "instances: {} x (p={CORES}, {} req/core, universe {UNIVERSE}/core, K={} tau={}); \
         PIF at t={} with bounds {}",
        s.count, s.len, CFG.cache_size, CFG.tau, s.checkpoint, s.bound
    ));
    let solve_set = || -> Vec<Solved> { instances.iter().map(|w| solve(w, s)).collect() };

    // A traced run alternates untraced and traced repetitions; the traced
    // one keeps the DP's own stats and the per-DP timers.
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let start = Instant::now();
    while untraced.len() < 4 || start.elapsed().as_secs_f64() < ctx.seconds {
        let t0 = Instant::now();
        let solved = solve_set();
        untraced.push((t0.elapsed().as_secs_f64(), solved));
        if ctx.trace {
            let t0 = Instant::now();
            let solved = solve_set();
            traced.push((t0.elapsed().as_secs_f64(), solved));
        }
        setup.resample();
    }

    let mut pins: Vec<Answer> = instances.iter().map(|w| pin(w, s)).collect();
    if ctx.corrupt_pin {
        if let Some(Some(m)) = pins.first_mut().map(|a| a.min_faults.as_mut()) {
            *m += 1;
        }
    }
    let feasible = pins.iter().filter(|a| a.pif == Some(true)).count();
    report.note(format!(
        "pinned: PIF feasible on {feasible} of {} instances",
        pins.len()
    ));
    for (_, rep) in untraced.iter().chain(&traced) {
        let bad = rep
            .iter()
            .zip(&pins)
            .filter(|(got, want)| {
                got.answer.min_faults.is_none() || got.answer.pif.is_none() || got.answer != **want
            })
            .count();
        report.gate(
            "instances vs pinned FTF minimum and PIF verdict",
            rep.len() as u64,
            bad as u64,
        );
    }

    if !ctx.trace {
        for (t, _) in &untraced {
            report.note(format!("repetition: {t:.4} s"));
        }
        let per_instance_s = typical_per_instance(&untraced, |o| o.ftf_s + o.pif_s);
        let solve_s: f64 = per_instance_s.iter().sum();
        let per_instance_us =
            Samples::from(per_instance_s.iter().map(|s| s * 1e6).collect::<Vec<_>>());
        report.note(format!(
            "measured: each instance at the 90th percentile of its {} solves",
            untraced.len()
        ));
        report.metric("setup_s", setup.typical(), "s");
        report.metric("requests_per_s", requests as f64 / solve_s, "1/s");
        report.metric("solve_s", solve_s, "s");
        report.quantile_metric("latency_p50_us", &per_instance_us, 0.5, 1.0, "us");
        report.quantile_metric("latency_p99_us", &per_instance_us, 0.99, 1.0, "us");
        return report;
    }

    let ftf_s: f64 = typical_per_instance(&traced, |o| o.ftf_s).iter().sum();
    let pif_s: f64 = typical_per_instance(&traced, |o| o.pif_s).iter().sum();
    let last = &traced[0].1;
    let stats = |of: fn(&Solved) -> Option<&DpStats>| last.iter().filter_map(of);
    let sum = |of: fn(&Solved) -> Option<&DpStats>, f: fn(&DpStats) -> usize| -> f64 {
        stats(of).map(f).sum::<usize>() as f64
    };
    let peak_mb = |of: fn(&Solved) -> Option<&DpStats>| -> f64 {
        stats(of).map(|st| st.peak_arena_bytes).max().unwrap_or(0) as f64 / (1 << 20) as f64
    };
    let ftf_of: fn(&Solved) -> Option<&DpStats> = |o| o.ftf.as_ref();
    let pif_of: fn(&Solved) -> Option<&DpStats> = |o| o.pif.as_ref();
    let ftf_states = sum(ftf_of, |st| st.states);
    let pif_expansions = sum(pif_of, |st| st.expansions);
    report.metric("workloads.gen_s", setup.typical(), "s");
    report.metric("offline.ftf.solve_s", ftf_s, "s");
    report.metric("offline.ftf.states", ftf_states, "count");
    report.metric(
        "offline.ftf.expansions",
        sum(ftf_of, |st| st.expansions),
        "count",
    );
    report.metric("offline.ftf.peak_arena_mb", peak_mb(ftf_of), "MB");
    report.metric("offline.ftf.states_per_s", ftf_states / ftf_s, "1/s");
    report.metric("offline.pif.solve_s", pif_s, "s");
    report.metric("offline.pif.states", sum(pif_of, |st| st.states), "count");
    report.metric("offline.pif.expansions", pif_expansions, "count");
    report.metric("offline.pif.peak_arena_mb", peak_mb(pif_of), "MB");
    report.metric(
        "offline.pif.expansions_per_s",
        pif_expansions / pif_s,
        "1/s",
    );
    let both = |o: &Solved| o.ftf_s + o.pif_s;
    let untraced_s: f64 = typical_per_instance(&untraced, both).iter().sum();
    let traced_s: f64 = typical_per_instance(&traced, both).iter().sum();
    report.metric("trace.overhead_frac", traced_s / untraced_s - 1.0, "ratio");
    report.note(format!(
        "self time per repetition: offline.ftf {ftf_s:.4} s, offline.pif {pif_s:.4} s"
    ));
    report.note(format!(
        "tracing overhead: untraced set {untraced_s:.4} s, traced set {traced_s:.4} s"
    ));
    report
}
