//! The `serve` workload: an in-process `Server` (dFCFS, default depth and
//! batch, shared LRU, p=4, K=64, τ=4) fed by one producer thread that
//! offers a seeded round-robin stream open-loop at a fixed 250k req/s —
//! roughly a tenth of saturation, where latency repeats run to run.
//!
//! Gate per repetition: `offered == admitted + dropped`, no drops and no
//! late rejections, and the served result equals `mcp_core::simulate` on
//! the admitted log. Throughput and run time are set by the offered
//! rate; latency is each repetition's p50 and p99 at the 90th percentile
//! over the repetitions.

use crate::stats::{NsSamples, Report, Samples, Setup, TYPICAL};
use crate::Ctx;
use mcp_core::online::OnlineSimulator;
use mcp_core::{simulate, SimConfig, SimResult, Workload};
use mcp_policies::shared_lru;
use mcp_serve::{BoxedStrategy, QueueSet, ServeConfig, ServeReport, Server};
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

const CORES: usize = 4;
const SIM: SimConfig = SimConfig::new(64, 4);
const UNIVERSE: u32 = 48;
/// Offered rate of the open loop, requests per second.
const RATE: f64 = 250_000.0;
/// The producer's wake-up period: far longer than the driver's idle spin
/// window, so every burst finds the driver in the same (sleeping) state.
const TICK: Duration = Duration::from_millis(1);

fn stream_seconds(ctx: &Ctx) -> f64 {
    if ctx.tiny {
        0.05
    } else {
        3.0
    }
}

/// The seeded stream: each core draws Zipf(0.9) pages from one shared
/// universe smaller than K (so after warm-up the stream is served from
/// cache), and request `i` goes to core `i % CORES`.
fn build_stream(ctx: &Ctx) -> Vec<u32> {
    let per_core = (RATE * stream_seconds(ctx)) as usize / CORES;
    let w = mcp_workloads::zipf_shared(CORES, per_core, UNIVERSE, 0.9, ctx.seed);
    (0..per_core * CORES)
        .map(|i| w.sequence(i % CORES)[i / CORES].0)
        .collect()
}

/// A stream over a universe four times K, replayed through the online
/// engine in traced runs: the served stream is all hits after warm-up,
/// so this replay is where the engine's fault and eviction path is
/// measured.
fn build_faulting(ctx: &Ctx) -> Workload {
    let per_core = (RATE * stream_seconds(ctx)) as usize / CORES;
    let universe = 4 * SIM.cache_size as u32;
    mcp_workloads::zipf_shared(CORES, per_core, universe, 0.9, ctx.seed)
}

fn server() -> Server<BoxedStrategy> {
    let strategy: BoxedStrategy = Box::new(shared_lru());
    Server::new(ServeConfig::new(CORES, SIM), strategy).expect("valid serve configuration")
}

/// Producer-side observations of one repetition (traced runs only).
#[derive(Default)]
struct Producer {
    offer_ns: NsSamples,
    late_us: Vec<f64>,
}

/// Offer `pages` open-loop at `RATE`: the producer wakes every `TICK`
/// and offers every request due by then, so the driver sees one burst
/// per tick whatever the host's sleep granularity. An offer waits while
/// its ring is full instead of dropping, so a host stall shows up as
/// generator lateness (measured from each request's due time), not as
/// failed requests.
fn produce(client: &QueueSet, pages: &[u32], trace: bool) -> Producer {
    let mut seen = Producer::default();
    let stop = AtomicBool::new(false);
    let due = |i: usize| Duration::from_nanos((i as f64 * 1e9 / RATE) as u64);
    let start = Instant::now();
    let mut i = 0;
    while i < pages.len() {
        let now = start.elapsed();
        while i < pages.len() && due(i) <= now {
            let core = (i % CORES) as u32;
            if trace {
                let t0 = Instant::now();
                seen.late_us
                    .push(start.elapsed().saturating_sub(due(i)).as_secs_f64() * 1e6);
                client.offer_blocking(core, pages[i], &stop);
                seen.offer_ns.record(t0.elapsed());
            } else {
                client.offer_blocking(core, pages[i], &stop);
            }
            i += 1;
        }
        let ticks = now.as_nanos() / TICK.as_nanos() + 1;
        let next = Duration::from_nanos((ticks * TICK.as_nanos()) as u64);
        std::thread::sleep(next.saturating_sub(start.elapsed()));
    }
    client.close(None);
    seen
}

/// Offer `pages` closed-loop: each offer blocks until its ring has room.
fn produce_saturated(client: &QueueSet, pages: &[u32]) {
    let stop = AtomicBool::new(false);
    for (i, &page) in pages.iter().enumerate() {
        client.offer_blocking((i % CORES) as u32, page, &stop);
    }
    client.close(None);
}

/// One server run with the producer on its own thread and the driver on
/// this one.
fn run_stream(produce_with: impl FnOnce(&QueueSet) -> Producer + Send) -> (ServeReport, Producer) {
    let server = server();
    let client = server.client();
    std::thread::scope(|s| {
        let producer = s.spawn(move || produce_with(&client));
        let report = server.run(|_| {}).expect("serve run");
        let seen = producer.join().expect("producer thread panicked");
        (report, seen)
    })
}

/// Gate one repetition; returns `(attempted, failed)`. The pinned value
/// is the result of replaying the admitted log offline.
fn check(report: &ServeReport, offered: u64, corrupt: bool) -> (u64, u64) {
    let t = &report.totals;
    let mut failed = t.dropped + report.rejected_late;
    let mut pinned = simulate(&report.log, SIM, shared_lru()).ok();
    if corrupt {
        if let Some(r) = pinned.as_mut() {
            r.faults[0] += 1;
        }
    }
    if t.offered != offered
        || t.offered != t.admitted + t.dropped
        || pinned.as_ref() != Some(&report.result)
    {
        failed = offered;
    }
    (offered, failed.min(offered))
}

/// The admitted log replayed through `OnlineSimulator` in the driver's
/// drain-batch size, with every `push` and `advance` timed.
struct Replay {
    push_ns: NsSamples,
    advance_ns: NsSamples,
    served_per_advance: Samples,
    engine_s: f64,
    result: Option<SimResult>,
}

fn replay_online(log: &Workload) -> Replay {
    let batch = ServeConfig::new(CORES, SIM).batch;
    let mut r = Replay {
        push_ns: NsSamples::default(),
        advance_ns: NsSamples::default(),
        served_per_advance: Samples::default(),
        engine_s: 0.0,
        result: None,
    };
    let Ok(mut engine) = OnlineSimulator::new(CORES, SIM, shared_lru()) else {
        return r;
    };
    let advance = |engine: &mut OnlineSimulator<_>, r: &mut Replay| {
        let t0 = Instant::now();
        let served = engine.advance();
        r.advance_ns.record(t0.elapsed());
        r.served_per_advance.push(served.unwrap_or(0) as f64);
    };
    let longest = (0..CORES).map(|c| log.len(c)).max().unwrap_or(0);
    let mut pushed = 0;
    for j in 0..longest {
        for core in 0..CORES {
            let Some(&page) = log.sequence(core).get(j) else {
                continue;
            };
            let t0 = Instant::now();
            if engine.push(core, page).is_err() {
                return r;
            }
            r.push_ns.record(t0.elapsed());
            pushed += 1;
            if pushed % batch == 0 {
                advance(&mut engine, &mut r);
            }
        }
    }
    engine.close_all();
    while !engine.finished() {
        advance(&mut engine, &mut r);
    }
    r.engine_s = r.push_ns.total_s() + r.advance_ns.total_s();
    r.result = Some(engine.finish().0);
    r
}

/// p50 and p99 at [`TYPICAL`] over the repetitions: the processing
/// share of latency is CPU-bound, so it follows the host's speed.
fn typical_latency(latency: &[(f64, f64)]) -> (f64, f64) {
    let at = |f: fn(&(f64, f64)) -> f64| {
        Samples::from(latency.iter().map(f).collect::<Vec<_>>()).quantile(TYPICAL)
    };
    (at(|r| r.0), at(|r| r.1))
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let (mut setup, pages) = Setup::new(|| {
        let pages = build_stream(ctx);
        drop(std::hint::black_box(server()));
        pages
    });
    let offered = pages.len() as u64;
    report.note(format!(
        "stream: {offered} requests over {CORES} cores at {RATE} req/s open loop, \
         universe {UNIVERSE}, K={} tau={}, shared LRU, dFCFS",
        SIM.cache_size, SIM.tau
    ));
    let mut elapsed = Samples::default();
    let mut rates = Samples::default();
    // (p50, p99) of each repetition, in microseconds.
    let mut latency: Vec<(f64, f64)> = Vec::new();
    let mut traced_latency: Vec<(f64, f64)> = Vec::new();
    let mut offer_ns = NsSamples::default();
    let mut late_us = Samples::default();
    let mut traced_run_s = Samples::default();
    let mut engine_s = Samples::default();
    let mut push_ns = NsSamples::default();
    let mut advance_ns = NsSamples::default();
    let mut per_advance = Samples::default();
    let mut served = 0u64;
    let faulting = ctx.trace.then(|| build_faulting(ctx));
    let mut faulting_s = Samples::default();
    let mut faulting_faults = 0;
    let start = Instant::now();
    loop {
        let (rep, _) = run_stream(|client| produce(client, &pages, false));
        let (a, f) = check(&rep, offered, ctx.corrupt_pin);
        report.gate("served stream (drops, late, replay parity)", a, f);
        elapsed.push(rep.elapsed.as_secs_f64());
        rates.push(rep.served as f64 / rep.elapsed.as_secs_f64());
        let (p50, _, p99) = rep.final_snapshot.latency_ns;
        latency.push((p50 * 1e-3, p99 * 1e-3));
        report.note(format!(
            "repetition: p50={:.1} us p99={:.1} us over {} served requests, run {:.4} s",
            p50 * 1e-3,
            p99 * 1e-3,
            rep.served,
            rep.elapsed.as_secs_f64()
        ));

        if ctx.trace {
            let (rep, seen) = run_stream(|client| produce(client, &pages, true));
            let (a, f) = check(&rep, offered, ctx.corrupt_pin);
            report.gate("traced served stream", a, f);
            let (p50, _, p99) = rep.final_snapshot.latency_ns;
            traced_latency.push((p50 * 1e-3, p99 * 1e-3));
            traced_run_s.push(rep.elapsed.as_secs_f64());
            offer_ns.append(seen.offer_ns);
            late_us.extend(&Samples::from(seen.late_us));
            served = rep.served;
            let replay = replay_online(&rep.log);
            report.gate(
                "online replay of the admitted log",
                1,
                u64::from(replay.result.as_ref() != Some(&rep.result)),
            );
            engine_s.push(replay.engine_s);
            push_ns.append(replay.push_ns);
            advance_ns.append(replay.advance_ns);
            per_advance.extend(&replay.served_per_advance);
            if let Some(w) = &faulting {
                let replay = replay_online(w);
                let offline = simulate(w, SIM, shared_lru()).ok();
                report.gate(
                    "online replay of a faulting stream",
                    1,
                    u64::from(replay.result.is_none() || replay.result != offline),
                );
                faulting_s.push(replay.engine_s);
                faulting_faults = offline.map_or(0, |r| r.total_faults());
            }
        }
        setup.resample();
        let enough = if ctx.trace { 1 } else { 3 };
        if elapsed.len() >= enough && start.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }
    if !ctx.trace {
        report.metric("setup_s", setup.typical(), "s");
        report.metric("requests_per_s", rates.median(), "1/s");
        report.metric("solve_s", elapsed.median(), "s");
        let (p50, p99) = typical_latency(&latency);
        report.metric("latency_p50_us", p50, "us");
        report.metric("latency_p99_us", p99, "us");
        report.note(format!(
            "latency: 90th percentile over {} repetitions",
            latency.len()
        ));
        return report;
    }

    // Closed-loop saturation, traced runs only: the producer blocks on
    // full rings instead of following a schedule.
    let (sat, _) = run_stream(|client| {
        produce_saturated(client, &pages);
        Producer::default()
    });
    let (a, f) = check(&sat, offered, ctx.corrupt_pin);
    report.gate("saturated stream", a, f);
    let offers = offer_ns.to_samples();
    report.metric("workloads.gen_s", setup.typical(), "s");
    report.quantile_metric("serve.offer_ns.p50", &offers, 0.5, 1.0, "ns");
    report.quantile_metric("serve.offer_ns.p99", &offers, 0.99, 1.0, "ns");
    report.quantile_metric("serve.generator_late_us.p99", &late_us, 0.99, 1.0, "us");
    report.metric("serve.run_s", traced_run_s.median(), "s");
    report.metric("serve.served", served as f64, "count");
    report.metric(
        "serve.saturated_requests_per_s",
        sat.served as f64 / sat.elapsed.as_secs_f64(),
        "1/s",
    );
    let pushes = push_ns.to_samples();
    let advances = advance_ns.to_samples();
    report.quantile_metric("core.online.push_ns.p50", &pushes, 0.5, 1.0, "ns");
    report.quantile_metric("core.online.advance_ns.p50", &advances, 0.5, 1.0, "ns");
    report.quantile_metric("core.online.advance_ns.p99", &advances, 0.99, 1.0, "ns");
    report.metric(
        "core.online.requests_per_advance",
        per_advance.sum() / per_advance.len().max(1) as f64,
        "ratio",
    );
    report.metric("core.online.engine_s", engine_s.median(), "s");
    if let Some(w) = &faulting {
        report.metric(
            "core.online.faulting_requests_per_s",
            w.total_len() as f64 / faulting_s.median(),
            "1/s",
        );
        report.note(format!(
            "faulting stream: {} requests, {faulting_faults} faults, universe {}",
            w.total_len(),
            4 * SIM.cache_size
        ));
    }
    report.metric(
        "trace.overhead_frac",
        typical_latency(&traced_latency).0 / typical_latency(&latency).0 - 1.0,
        "ratio",
    );
    report.note(format!(
        "self time per repetition: producer offers {:.4} s, rings + driver {:.4} s, \
         online engine {:.4} s",
        offers.sum() * 1e-9 / traced_run_s.len() as f64,
        traced_run_s.median() - engine_s.median(),
        engine_s.median()
    ));
    report.note(format!(
        "tracing overhead: untraced p50 {:.1} us p99 {:.1} us, traced p50 {:.1} us p99 {:.1} us",
        typical_latency(&latency).0,
        typical_latency(&latency).1,
        typical_latency(&traced_latency).0,
        typical_latency(&traced_latency).1
    ));
    report
}
