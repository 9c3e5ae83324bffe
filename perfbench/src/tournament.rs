//! The `tournament` workload: the batch grid at one worker, as
//! `mcp tournament` runs it — six dense families × five workload kinds
//! × 3 seeds × K{8,16} × τ{0,4}, p=4 — followed by the sampled
//! cross-check against the per-run simulator and the regret report.
//! The grid is run as one `run_cells_quarantined` call per input
//! workload (24 cells each), so a repetition holds fifteen short timed
//! calls rather than one long one.
//!
//! Gate: every cell's fault count equals the per-run reference
//! (`run_cell_reference`, computed once after the timed phase), every
//! sampled cross-check agrees, and the report's digest equals the digest
//! of the report built from the reference fault table.

use crate::stats::{
    fnv64, repeat_for, times, typical_per_unit, NsSamples, Report, Samples, Setup, TYPICAL,
};
use crate::Ctx;
use mcp_analysis::{grid2, grid3, tournament_report, TournamentOutcome};
use mcp_batch::{
    dense_run, run_cell_reference, run_cells_quarantined, CellSpec, DensePolicy, DenseWorkload,
    Scratch, WorkloadKind, WorkloadSpec,
};
use mcp_core::Workload;
use mcp_exec::derive_seed;
use std::cell::RefCell;
use std::time::Instant;

const FAMILIES: &[&str] = &["lru", "fifo", "clock", "lfu", "mru", "fwf"];
const KINDS: &[WorkloadKind] = &[
    WorkloadKind::Uniform,
    WorkloadKind::Zipf,
    WorkloadKind::ZipfShared,
    WorkloadKind::Phased,
    WorkloadKind::Drift,
];
const KS: &[u64] = &[8, 16];
const TAUS: &[u64] = &[0, 4];
const SEEDS: u64 = 3;
const CORES: usize = 4;
const UNIVERSE: u32 = 64;
/// Cross-check sample size, as in `mcp tournament`.
const CROSSCHECK_SAMPLES: usize = 16;
/// Attempts per cell, as in `mcp tournament`.
const CELL_ATTEMPTS: u32 = 4;

struct Grid {
    specs: Vec<WorkloadSpec>,
    workloads: Vec<Workload>,
    groups: Vec<(usize, u64, u64)>,
    cells: Vec<CellSpec>,
    /// `cells` split by input workload, each re-indexed to workload 0:
    /// the cells of one `run_cells_quarantined` call. The grid is
    /// workload-major, so concatenating the calls' results gives the
    /// results in `cells` order.
    calls: Vec<Vec<CellSpec>>,
}

impl Grid {
    fn requests(&self) -> usize {
        self.cells
            .iter()
            .map(|c| self.workloads[c.workload].total_len())
            .sum()
    }

    /// The report's input: per-cell fault counts arranged group × family
    /// (cells are family-fastest, so each group is one chunk).
    fn outcome(&self, per_cell: &[Option<u64>]) -> TournamentOutcome {
        TournamentOutcome {
            strategies: FAMILIES.iter().map(|f| f.to_string()).collect(),
            groups: self
                .groups
                .iter()
                .map(|&(wi, k, tau)| format!("{} K={k} tau={tau}", self.specs[wi].label()))
                .collect(),
            faults: per_cell.chunks(FAMILIES.len()).map(<[_]>::to_vec).collect(),
        }
    }
}

/// The grid's inputs, built as `mcp tournament` builds them.
fn build(ctx: &Ctx) -> Grid {
    let len = if ctx.tiny { 200 } else { 5_000 };
    let master = ctx.seed;
    let specs: Vec<WorkloadSpec> = grid2(KINDS, &(0..SEEDS).collect::<Vec<_>>())
        .into_iter()
        .map(|(kind, seed)| WorkloadSpec {
            kind,
            cores: CORES,
            len,
            universe: UNIVERSE,
            seed: master.wrapping_add(seed),
        })
        .collect();
    let workloads: Vec<Workload> = specs.iter().map(WorkloadSpec::materialize).collect();
    let widx: Vec<usize> = (0..specs.len()).collect();
    let groups = grid3(&widx, KS, TAUS);
    let cells: Vec<CellSpec> = groups
        .iter()
        .flat_map(|&(wi, k, tau)| {
            FAMILIES.iter().map(move |family| CellSpec {
                workload: wi,
                family: family.to_string(),
                cache_size: k as usize,
                tau,
                seed: 0,
                capacity: None,
            })
        })
        .enumerate()
        .map(|(i, cell)| CellSpec {
            seed: derive_seed(master, i as u64),
            ..cell
        })
        .collect();
    let calls = (0..specs.len())
        .map(|wi| {
            cells
                .iter()
                .filter(|c| c.workload == wi)
                .map(|c| CellSpec {
                    workload: 0,
                    ..c.clone()
                })
                .collect()
        })
        .collect();
    Grid {
        specs,
        workloads,
        groups,
        cells,
        calls,
    }
}

/// What one timed repetition produced.
struct Rep {
    faults: Vec<Option<u64>>,
    crosscheck_failed: usize,
    digest: u64,
    /// Seconds of each grid call, one per input workload.
    call_s: Vec<f64>,
    grid_s: f64,
    crosscheck_s: f64,
    report_s: f64,
}

impl Rep {
    /// Seconds of each timed unit: the grid calls, the cross-check and
    /// the report.
    fn unit_s(&self, unit: usize) -> f64 {
        match unit.checked_sub(self.call_s.len()) {
            None => self.call_s[unit],
            Some(0) => self.crosscheck_s,
            Some(_) => self.report_s,
        }
    }
}

/// Grid, cross-check and report, the way `mcp tournament` runs them.
fn run_once(grid: &Grid, master: u64) -> Rep {
    let mut results = Vec::with_capacity(grid.cells.len());
    let mut call_s = Vec::with_capacity(grid.calls.len());
    for (wi, cells) in grid.calls.iter().enumerate() {
        let t0 = Instant::now();
        let workload = std::slice::from_ref(&grid.workloads[wi]);
        results.extend(run_cells_quarantined(workload, cells, CELL_ATTEMPTS));
        call_s.push(t0.elapsed().as_secs_f64());
    }
    let grid_s = call_s.iter().sum();
    let faults: Vec<Option<u64>> = results
        .iter()
        .map(|r| match r {
            Ok(Ok(sim)) => Some(sim.total_faults()),
            _ => None,
        })
        .collect();

    let t1 = Instant::now();
    let mut crosscheck_failed = 0;
    for i in 0..CROSSCHECK_SAMPLES.min(grid.cells.len()) {
        let idx = (derive_seed(master, 0xC5EC + i as u64) % grid.cells.len() as u64) as usize;
        let Ok(batch) = &results[idx] else {
            crosscheck_failed += 1;
            continue;
        };
        if &run_cell_reference(&grid.workloads, &grid.cells[idx]) != batch {
            crosscheck_failed += 1;
        }
    }
    let crosscheck_s = t1.elapsed().as_secs_f64();

    let t2 = Instant::now();
    let report = tournament_report(&grid.outcome(&faults));
    let digest = fnv64(report.to_json().as_bytes());
    let report_s = t2.elapsed().as_secs_f64();
    Rep {
        faults,
        crosscheck_failed,
        digest,
        call_s,
        grid_s,
        crosscheck_s,
        report_s,
    }
}

/// The engine the batch runner sends a cell to.
enum Route {
    Dense(DensePolicy),
    Event,
    Rejected,
}

/// The batch runner's routing, by the conditions its per-cell runner
/// checks in order: workload index, family name, applicability, dynamic
/// capacity (event engine), then dense policy and config validation.
/// `mcp_batch` does not report the path it took, so the traced counts
/// mirror these conditions rather than observe the runner.
fn route(grid: &Grid, cell: &CellSpec) -> Route {
    let Some(w) = grid.workloads.get(cell.workload) else {
        return Route::Rejected;
    };
    let family = cell.family.as_str();
    if !mcp_policies::FAMILIES.contains(&family) || !mcp_policies::family_applicable(family, w) {
        return Route::Rejected;
    }
    if cell.dynamic_capacity().is_some() {
        return Route::Event;
    }
    match DensePolicy::parse(family) {
        Some(policy) if cell.config().validate(w).is_ok() => Route::Dense(policy),
        Some(_) => Route::Rejected,
        None => Route::Event,
    }
}

/// What one traced grid measured.
struct TracedGrid {
    /// The dense re-keying the batch runner does inside every grid call.
    dense_build_s: f64,
    cells_s: f64,
    dense_cells: usize,
    event_cells: usize,
}

/// The traced variant of the grid: the dense tables rebuilt as the batch
/// runner rebuilds them per call, then every cell timed on its own
/// through the engine the runner routes it to.
fn run_cells_timed(grid: &Grid, cell_ns: &mut NsSamples) -> TracedGrid {
    let t0 = Instant::now();
    let dense: Vec<DenseWorkload> = grid.workloads.iter().map(DenseWorkload::build).collect();
    let dense_build_s = t0.elapsed().as_secs_f64();
    let mut scratch = Scratch::new();
    let (mut dense_cells, mut event_cells) = (0, 0);
    let mut one = NsSamples::default();
    for cell in &grid.cells {
        let t0 = Instant::now();
        match route(grid, cell) {
            Route::Dense(policy) => {
                std::hint::black_box(dense_run(
                    &dense[cell.workload],
                    cell.config(),
                    policy,
                    &mut scratch,
                ));
                dense_cells += 1;
            }
            Route::Event => {
                std::hint::black_box(run_cell_reference(&grid.workloads, cell).ok());
                event_cells += 1;
            }
            Route::Rejected => {}
        }
        one.record(t0.elapsed());
    }
    let cells_s = one.total_s();
    cell_ns.append(one);
    TracedGrid {
        dense_build_s,
        cells_s,
        dense_cells,
        event_cells,
    }
}

/// The reference fault table and its report digest.
fn pin(grid: &Grid, corrupt: bool) -> (Vec<Option<u64>>, u64) {
    let mut faults: Vec<Option<u64>> = grid
        .cells
        .iter()
        .map(|cell| {
            run_cell_reference(&grid.workloads, cell)
                .ok()
                .map(|r| r.total_faults())
        })
        .collect();
    if corrupt {
        if let Some(Some(f)) = faults.first_mut() {
            *f += 1;
        }
    }
    let digest = fnv64(
        tournament_report(&grid.outcome(&faults))
            .to_json()
            .as_bytes(),
    );
    (faults, digest)
}

fn gate(report: &mut Report, grid: &Grid, reps: &[&Rep], corrupt: bool) {
    let (pinned, digest) = pin(grid, corrupt);
    for rep in reps {
        let bad_cells = rep
            .faults
            .iter()
            .zip(&pinned)
            .filter(|(got, want)| got.is_none() || got != want)
            .count();
        report.gate(
            "cells vs per-run reference",
            grid.cells.len() as u64,
            bad_cells as u64,
        );
        report.gate(
            "sampled cross-check",
            CROSSCHECK_SAMPLES.min(grid.cells.len()) as u64,
            rep.crosscheck_failed as u64,
        );
        report.gate("regret report digest", 1, u64::from(rep.digest != digest));
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    // Set-up split into its two layers: input generation and the dense
    // re-keying of every workload.
    let layer_s = RefCell::new((Samples::default(), Samples::default()));
    let (mut setup, (grid, _dense)) = Setup::new(|| {
        let t0 = Instant::now();
        let grid = build(ctx);
        let t1 = Instant::now();
        let dense: Vec<DenseWorkload> = grid.workloads.iter().map(DenseWorkload::build).collect();
        let mut layers = layer_s.borrow_mut();
        layers.0.push((t1 - t0).as_secs_f64());
        layers.1.push(t1.elapsed().as_secs_f64());
        (grid, dense)
    });
    let requests = grid.requests();
    report.note(format!(
        "grid: {} cells ({} groups x {} families), {} simulated requests per repetition",
        grid.cells.len(),
        grid.groups.len(),
        FAMILIES.len(),
        requests
    ));
    if !ctx.trace {
        let reps = repeat_for(
            ctx.seconds,
            4,
            || run_once(&grid, ctx.seed),
            || setup.resample(),
        );
        for (s, rep) in &reps {
            report.note(format!(
                "repetition: {s:.4} s (grid calls {:.4?}, cross-check {:.4} s, report {:.4} s)",
                rep.call_s, rep.crosscheck_s, rep.report_s
            ));
        }
        let calls = grid.calls.len();
        let unit_s = typical_per_unit(&reps, calls + 2, |rep, unit| rep.unit_s(unit));
        let solve_s: f64 = unit_s.iter().sum();
        let per_call = Samples::from(unit_s[..calls].to_vec());
        report.note(format!(
            "measured: each grid call, the cross-check and the report at the 90th \
             percentile of its {} runs",
            reps.len()
        ));
        report.metric("setup_s", setup.typical(), "s");
        report.metric("requests_per_s", requests as f64 / solve_s, "1/s");
        report.metric("solve_s", solve_s, "s");
        report.quantile_metric("latency_p50_us", &per_call, 0.5, 1e6, "us");
        report.quantile_metric("latency_p99_us", &per_call, 0.99, 1e6, "us");
        let reps: Vec<&Rep> = reps.iter().map(|(_, r)| r).collect();
        gate(&mut report, &grid, &reps, ctx.corrupt_pin);
        return report;
    }

    // Traced run: an untraced repetition alternates with a cell-by-cell
    // timed grid. The exec overhead is the untraced grid's wall time
    // minus the traced grid's dense build and summed per-cell times.
    let mut cell_ns = NsSamples::default();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let start = Instant::now();
    while traced.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds {
        let t0 = Instant::now();
        let rep = run_once(&grid, ctx.seed);
        untraced.push((t0.elapsed().as_secs_f64(), rep));
        let one = run_cells_timed(&grid, &mut cell_ns);
        traced.push((one.dense_build_s + one.cells_s, one));
    }
    let refs: Vec<&Rep> = untraced.iter().map(|(_, r)| r).collect();
    gate(&mut report, &grid, &refs, ctx.corrupt_pin);
    let typical = |values: Vec<f64>| Samples::from(values).quantile(TYPICAL);
    let grid_s = typical(untraced.iter().map(|(_, r)| r.grid_s).collect());
    let crosscheck_s = typical(untraced.iter().map(|(_, r)| r.crosscheck_s).collect());
    let report_s = typical(untraced.iter().map(|(_, r)| r.report_s).collect());
    let build_s = typical(traced.iter().map(|(_, t)| t.dense_build_s).collect());
    let cells_s = typical(traced.iter().map(|(_, t)| t.cells_s).collect());
    let traced_grid_s = times(&traced).quantile(TYPICAL);
    let last = &traced[traced.len() - 1].1;
    let cells = cell_ns.to_samples();
    let layers = layer_s.borrow();
    report.metric("workloads.gen_s", layers.0.quantile(TYPICAL), "s");
    report.metric("batch.dense_build_s", layers.1.quantile(TYPICAL), "s");
    report.quantile_metric("batch.cell_us.p50", &cells, 0.5, 1e-3, "us");
    report.quantile_metric("batch.cell_us.p99", &cells, 0.99, 1e-3, "us");
    report.metric("batch.dense_cells", last.dense_cells as f64, "count");
    report.metric("batch.fallback_cells", last.event_cells as f64, "count");
    report.metric("exec.overhead_s", grid_s - traced_grid_s, "s");
    report.metric("oracle.crosscheck_s", crosscheck_s, "s");
    report.metric("analysis.report_s", report_s, "s");
    report.note(format!(
        "self time per repetition: batch dense build in the grid {build_s:.4} s, \
         batch cells {cells_s:.4} s, exec {:.4} s, oracle cross-check {crosscheck_s:.4} s, \
         analysis report {report_s:.4} s",
        grid_s - traced_grid_s
    ));
    // The traced grid replaces the pool with a plain loop, so its
    // overhead is judged against the untraced grid alone.
    report.metric("trace.overhead_frac", traced_grid_s / grid_s - 1.0, "ratio");
    report.note(format!(
        "tracing overhead: untraced grid {grid_s:.4} s ({:.0} req/s), \
         traced grid {traced_grid_s:.4} s ({:.0} req/s)",
        requests as f64 / grid_s,
        requests as f64 / traced_grid_s
    ));
    report
}
