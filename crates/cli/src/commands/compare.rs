//! `mcp compare` — run the whole strategy matrix on a trace.
//!
//! ```text
//! mcp compare --trace w.json --k 32 --tau 4 [--strategies lru,fifo,mimic]
//!             [--capacity K0[,K@T]…]
//! ```
//!
//! With `--capacity`, every strategy races under the same dynamic
//! capacity schedule `K(t)` (initial capacity must equal `--k`).

use super::{build_strategy, capacity_from, load_instance, CliError};
use crate::args::Args;
use mcp_analysis::fairness;
use mcp_analysis::report::Table;

const DEFAULT_MATRIX: &[&str] = &[
    "lru",
    "fifo",
    "clock",
    "lfu",
    "lru2",
    "mark",
    "fwf",
    "partition",
    "partition-opt",
    "mimic",
    "fitf",
];

/// The options `mcp compare` accepts besides `--jobs` and `--help`.
pub const OPTIONS: &str = "trace k tau capacity strategies";

/// Run `mcp compare`.
pub fn run(args: &Args) -> Result<String, CliError> {
    let (workload, cfg) = load_instance(args)?;
    let capacity = capacity_from(args, cfg.cache_size)?;
    let specs: Vec<String> = match args.get("strategies") {
        Some(list) => list.split(',').map(|s| s.trim().to_string()).collect(),
        None => DEFAULT_MATRIX.iter().map(|s| s.to_string()).collect(),
    };
    let mut table = Table::new(
        format!(
            "p = {}, n = {}, K = {}, tau = {}{}",
            workload.num_cores(),
            workload.total_len(),
            cfg.cache_size,
            cfg.tau,
            match &capacity {
                Some(schedule) => format!(", K(t) = {schedule}"),
                None => String::new(),
            }
        ),
        &[
            "strategy",
            "faults",
            "fault rate",
            "makespan",
            "Jain(slowdown)",
        ],
    );
    // Strategies are independent: run the matrix on the pool. Errors
    // surface in spec order, as they would sequentially.
    let outcomes = mcp_exec::Pool::global().par_map(&specs, |_, spec| {
        let mut strategy = build_strategy(spec, &workload, cfg)?;
        mcp_core::CacheStrategy::begin(&mut strategy, &workload, &cfg);
        let name = strategy.name();
        let result = match &capacity {
            Some(schedule) => {
                mcp_core::simulate_with_capacity(&workload, cfg, schedule.clone(), strategy)
            }
            None => mcp_core::simulate(&workload, cfg, strategy),
        }
        .map_err(|e| CliError::Other(format!("{spec}: {e}")))?;
        let s = fairness::summarize(&result);
        Ok::<_, CliError>((
            result.total_faults(),
            vec![
                name,
                result.total_faults().to_string(),
                format!(
                    "{:.1}%",
                    100.0 * result.total_faults() as f64 / workload.total_len().max(1) as f64
                ),
                result.makespan.to_string(),
                format!("{:.3}", s.jain_slowdown),
            ],
        ))
    });
    let mut rows: Vec<(u64, Vec<String>)> = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        rows.push(outcome?);
    }
    rows.sort_by_key(|(faults, _)| *faults);
    for (_, row) in rows {
        table.row(row);
    }
    Ok(table.to_text())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;
    use mcp_core::Workload;

    #[test]
    fn compares_default_matrix_sorted_by_faults() {
        let path = std::env::temp_dir()
            .join(format!("mcp_cli_cmp_{}.json", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let w = Workload::from_u32([vec![1, 2, 3, 1, 2, 3, 1, 2], vec![9, 8, 9, 8, 9, 8, 9, 8]])
            .unwrap();
        mcp_workloads::save_json(&w, std::path::Path::new(&path)).unwrap();
        let a = Args::parse(
            format!("compare --trace {path} --k 4 --tau 1")
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        let out = run(&a).unwrap();
        for name in ["S_LRU", "S_FIFO", "dP[LRU-mimic]_LRU", "S_FITF"] {
            assert!(out.contains(name), "missing {name} in:\n{out}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn capacity_schedule_shows_in_the_header() {
        let path = std::env::temp_dir()
            .join(format!("mcp_cli_cmp3_{}.json", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let w = Workload::from_u32([vec![1, 2, 1, 2, 1, 2], vec![8, 9, 8, 9, 8, 9]]).unwrap();
        mcp_workloads::save_json(&w, std::path::Path::new(&path)).unwrap();
        let a = Args::parse(
            format!("compare --trace {path} --k 4 --strategies lru,fifo --capacity 4,2@3")
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        let out = run(&a).unwrap();
        assert!(out.contains("K(t) = 4,2@3"), "{out}");
        assert!(out.contains("S_LRU") && out.contains("S_FIFO"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn custom_strategy_list() {
        let path = std::env::temp_dir()
            .join(format!("mcp_cli_cmp2_{}.json", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let w = Workload::from_u32([vec![1, 2, 1, 2]]).unwrap();
        mcp_workloads::save_json(&w, std::path::Path::new(&path)).unwrap();
        let a = Args::parse(
            format!("compare --trace {path} --k 2 --strategies lru,mru")
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        let out = run(&a).unwrap();
        assert!(out.contains("S_LRU") && out.contains("S_MRU"));
        assert!(!out.contains("S_FIFO"));
        std::fs::remove_file(&path).ok();
    }
}
