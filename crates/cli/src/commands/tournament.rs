//! `mcp tournament` — enumerate a declarative strategy × workload × K × τ
//! grid, run every cell on the `mcp-batch` engine, and report regret and
//! pairwise-dominance tables.
//!
//! ```text
//! mcp tournament [--families lru,clock,…] [--workloads zipf-shared,drift,…]
//!                [--k 8,16] [--tau 0,4] [--cores 4] [--n 2000]
//!                [--capacity K0[,K@T]…] [--seeds 3] [--seed S] [--universe 64]
//!                [--jobs N] [--json] [--no-crosscheck] [--deadline DUR]
//! ```
//!
//! A *group* is one `(workload instance, K, τ)` combination; every family
//! competes on every group, and `(group × family)` is a cell. Unless
//! `--no-crosscheck` is given, a seeded sample of cells is re-run on a
//! fresh per-run `Simulator` and compared bit-for-bit against the batch
//! results; any mismatch is a hard error (exit 1). Output is identical at
//! every `--jobs` level.

use super::{budget_from, capacity_from, CliError};
use crate::args::{ArgError, Args};
use crate::commands::fuzz::parse_seed;
use mcp_analysis::{grid2, grid3, tournament_report, TournamentOutcome};
use mcp_batch::{
    run_cell_reference, run_cells_quarantined, BatchError, CellSpec, WorkloadKind, WorkloadSpec,
};
use mcp_core::Budget;
use mcp_exec::derive_seed;
use mcp_oracle::FAMILIES;

/// Families raced when `--families` is not given: the six dense-engine
/// eviction families (any registry family may be requested explicitly).
const DEFAULT_FAMILIES: &str = "lru,fifo,clock,lfu,mru,fwf";
/// Workload kinds raced when `--workloads` is not given.
const DEFAULT_WORKLOADS: &str = "uniform,zipf,zipf-shared,phased,drift";
/// Cross-check sample size (capped at the cell count).
const CROSSCHECK_SAMPLES: usize = 16;
/// Per-cell attempt budget: strictly above the default fault plan's
/// `max_consecutive`, so injected faults always clear and only cells
/// that fail deterministically are quarantined.
const CELL_ATTEMPTS: u32 = 4;

fn comma_list(args: &Args, key: &str, default: &str) -> Vec<String> {
    args.get(key)
        .unwrap_or(default)
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect()
}

fn check_deadline(budget: &Budget, stage: &str) -> Result<(), CliError> {
    budget
        .check(0, 0)
        .map_err(|trip| CliError::Partial(format!("tournament stopped during {stage}: {trip}")))
}

/// The options `mcp tournament` accepts besides `--jobs` and `--help`.
pub const OPTIONS: &str =
    "families workloads k tau cores n universe seeds seed capacity json no-crosscheck deadline";

/// Run `mcp tournament`.
pub fn run(args: &Args) -> Result<String, CliError> {
    let budget = budget_from(args)?;
    let families = comma_list(args, "families", DEFAULT_FAMILIES);
    for name in &families {
        if !FAMILIES.contains(&name.as_str()) {
            return Err(CliError::Other(format!(
                "unknown strategy family {name:?}; known: {}",
                FAMILIES.join(", ")
            )));
        }
    }
    let kinds: Vec<WorkloadKind> = comma_list(args, "workloads", DEFAULT_WORKLOADS)
        .iter()
        .map(|name| {
            WorkloadKind::parse(name).ok_or_else(|| {
                CliError::Other(format!(
                    "unknown workload kind {name:?}; known: {}",
                    WorkloadKind::ALL
                        .iter()
                        .map(|k| k.name())
                        .collect::<Vec<_>>()
                        .join(", ")
                ))
            })
        })
        .collect::<Result<_, _>>()?;
    let ks = args.parse_list("k")?.unwrap_or_else(|| vec![8, 16]);
    let taus = args.parse_list("tau")?.unwrap_or_else(|| vec![0, 4]);
    let cores: usize = args.parse_or("cores", 4usize)?;
    let n: usize = args.parse_or("n", 2_000usize)?;
    let universe: u32 = args.parse_or("universe", 64u32)?;
    let seeds: u64 = args.parse_or("seeds", 3u64)?;
    let master = match args.get("seed") {
        None => 0,
        Some(text) => parse_seed(text).ok_or_else(|| {
            CliError::Args(ArgError::BadValue {
                key: "seed".to_string(),
                value: text.to_string(),
                expected: "a decimal or 0x-prefixed hex integer",
            })
        })?,
    };
    if families.is_empty() || kinds.is_empty() || ks.is_empty() || taus.is_empty() || seeds == 0 {
        return Err(CliError::Other(
            "empty tournament: need at least one family, workload, K, tau and seed".into(),
        ));
    }
    // A dynamic K(t) schedule anchors to one cache size, so it constrains
    // the K axis to a single value (checked inside capacity_from).
    let capacity = if args.get("capacity").is_some() && ks.len() != 1 {
        return Err(CliError::Other(
            "--capacity requires a single --k value (the schedule's initial capacity)".into(),
        ));
    } else {
        capacity_from(args, ks[0] as usize)?
    };

    // Workload instances: kind-major, then seed. The generator seed mixes
    // the master seed so `--seed` reshuffles every instance.
    let specs: Vec<WorkloadSpec> = grid2(&kinds, &(0..seeds).collect::<Vec<_>>())
        .into_iter()
        .map(|(kind, seed)| WorkloadSpec {
            kind,
            cores,
            len: n,
            universe,
            seed: master.wrapping_add(seed),
        })
        .collect();
    let workloads: Vec<_> = mcp_exec::Pool::global().par_map(&specs, |_, spec| spec.materialize());
    check_deadline(&budget, "workload generation")?;

    // Groups are (workload instance, K, τ); cells are group × family, the
    // family axis fastest so each group's cells are contiguous.
    let widx: Vec<usize> = (0..specs.len()).collect();
    let groups = grid3(&widx, &ks, &taus);
    let cells: Vec<CellSpec> = groups
        .iter()
        .flat_map(|&(wi, k, tau)| {
            let capacity = &capacity;
            families.iter().map(move |family| CellSpec {
                workload: wi,
                family: family.clone(),
                cache_size: k as usize,
                tau,
                seed: 0, // replaced below: randomized families get a derived seed
                capacity: capacity.clone(),
            })
        })
        .enumerate()
        .map(|(i, cell)| CellSpec {
            seed: derive_seed(master, i as u64),
            ..cell
        })
        .collect();

    let results = run_cells_quarantined(&workloads, &cells, CELL_ATTEMPTS);
    check_deadline(&budget, "the batch grid")?;

    // Recovery policy (DESIGN §13): a cell that panics on every attempt
    // is quarantined (shown as n/a, listed in a note) while the rest of
    // the grid completes; batch errors other than Inapplicable are still
    // hard failures.
    let mut quarantined: Vec<String> = Vec::new();
    let mut faults = Vec::with_capacity(groups.len());
    for (gi, _) in groups.iter().enumerate() {
        let mut row = Vec::with_capacity(families.len());
        for fi in 0..families.len() {
            let cell = gi * families.len() + fi;
            row.push(match &results[cell] {
                Ok(Ok(r)) => Some(r.total_faults()),
                Ok(Err(BatchError::Inapplicable(_))) => None,
                Ok(Err(e)) => {
                    return Err(CliError::Other(format!(
                        "cell {} ({} on {}): {e}",
                        cell,
                        cells[cell].family,
                        specs[cells[cell].workload].label()
                    )))
                }
                Err(q) => {
                    quarantined.push(format!(
                        "cell {} ({} on {}): {q}",
                        cell,
                        cells[cell].family,
                        specs[cells[cell].workload].label()
                    ));
                    None
                }
            });
        }
        faults.push(row);
    }

    // Seeded sampling cross-check: re-run a sample of cells on a fresh
    // per-run Simulator and require bit-identical results.
    let mut crosschecked = 0usize;
    if !args.flag("no-crosscheck") {
        for i in 0..CROSSCHECK_SAMPLES.min(cells.len()) {
            check_deadline(&budget, "the cross-check")?;
            let idx = (derive_seed(master, 0xC5EC + i as u64) % cells.len() as u64) as usize;
            let Ok(batch) = &results[idx] else {
                continue; // quarantined cells have nothing to compare
            };
            let reference = run_cell_reference(&workloads, &cells[idx]);
            if &reference != batch {
                return Err(CliError::Other(format!(
                    "batch/per-run divergence at cell {} ({} on {} K={} tau={}): \
                     batch {:?} vs per-run {:?}",
                    idx,
                    cells[idx].family,
                    specs[cells[idx].workload].label(),
                    cells[idx].cache_size,
                    cells[idx].tau,
                    batch.as_ref().map(|r| r.total_faults()),
                    reference.as_ref().map(|r| r.total_faults()),
                )));
            }
            crosschecked += 1;
        }
    }

    let outcome = TournamentOutcome {
        strategies: families,
        groups: groups
            .iter()
            .map(|&(wi, k, tau)| format!("{} K={k} tau={tau}", specs[wi].label()))
            .collect(),
        faults,
    };
    let mut report = tournament_report(&outcome);
    report.notes.push(format!(
        "{} cells ({} groups x {} strategies); cross-check: {}",
        cells.len(),
        outcome.groups.len(),
        outcome.strategies.len(),
        if args.flag("no-crosscheck") {
            "skipped (--no-crosscheck)".to_string()
        } else {
            format!("{crosschecked} sampled cells bit-identical to the per-run simulator")
        }
    ));
    if let Some(schedule) = &capacity {
        report
            .notes
            .push(format!("dynamic capacity K(t) = {schedule}"));
    }
    if !quarantined.is_empty() {
        report.notes.push(format!(
            "{} cells quarantined after repeated failures: {}",
            quarantined.len(),
            quarantined.join("; ")
        ));
    }
    if args.flag("json") {
        Ok(report.to_json())
    } else {
        Ok(report.to_markdown())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tournament(line: &str) -> Result<String, CliError> {
        run(&Args::parse(line.split_whitespace().map(String::from)).unwrap())
    }

    const TINY: &str = "tournament --families lru,fifo --workloads uniform,zipf-shared \
                        --k 4 --tau 0,2 --cores 2 --n 60 --seeds 2 --universe 16";

    #[test]
    fn a_tiny_grid_reports_every_group() {
        let out = tournament(TINY).unwrap();
        // 2 kinds x 2 seeds x 1 K x 2 tau = 8 groups, 16 cells.
        assert!(out.contains("16 cells (8 groups x 2 strategies)"), "{out}");
        assert!(out.contains("pairwise dominance"), "{out}");
        assert!(out.contains("uniform/s0 K=4 tau=0"), "{out}");
    }

    #[test]
    fn json_output_is_deterministic_across_jobs_levels() {
        let line = format!("{TINY} --json");
        let reference = tournament(&line).unwrap();
        assert!(reference.starts_with('{'), "{reference}");
        for jobs in [1usize, 2, 4] {
            mcp_exec::set_jobs(Some(jobs));
            assert_eq!(mcp_exec::resolved_jobs(), jobs);
            assert_eq!(tournament(&line).unwrap(), reference, "jobs={jobs}");
        }
        mcp_exec::set_jobs(None);
    }

    #[test]
    fn no_crosscheck_skips_sampling_but_keeps_results() {
        let out = tournament(&format!("{TINY} --no-crosscheck")).unwrap();
        assert!(out.contains("skipped (--no-crosscheck)"), "{out}");
    }

    #[test]
    fn inapplicable_families_show_as_na() {
        // sacrifice needs disjoint cores; zipf-shared overlaps.
        let out = tournament(
            "tournament --families lru,sacrifice --workloads zipf-shared \
             --k 4 --tau 0 --cores 2 --n 40 --seeds 1 --universe 16",
        )
        .unwrap();
        assert!(out.contains("n/a"), "{out}");
    }

    #[test]
    fn bad_inputs_are_rejected() {
        assert!(tournament("tournament --families nope").is_err());
        assert!(tournament("tournament --workloads nope").is_err());
        assert!(tournament("tournament --seeds 0").is_err());
        assert!(tournament("tournament --seed nope").is_err());
    }
}
