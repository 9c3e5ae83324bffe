//! `mcp stats` — characterize a workload trace: per-core reuse behaviour
//! and working-set curves, the quantities that predict cache behaviour.
//!
//! ```text
//! mcp stats --trace w.json
//! ```

use super::{load_trace, CliError};
use crate::args::Args;
use mcp_analysis::report::Table;
use mcp_workloads::stats::profile;

/// The options `mcp stats` accepts besides `--jobs` and `--help`.
pub const OPTIONS: &str = "trace";

/// Run `mcp stats`.
pub fn run(args: &Args) -> Result<String, CliError> {
    let workload = load_trace(args.require("trace")?)?;
    let profiles = profile(&workload);
    let mut table = Table::new(
        format!(
            "workload profile: p = {}, n = {}, universe = {}, disjoint = {}",
            workload.num_cores(),
            workload.total_len(),
            workload.universe_size(),
            workload.is_disjoint()
        ),
        &[
            "core",
            "requests",
            "distinct",
            "reuse %",
            "median reuse dist",
            "WS(8)",
            "WS(64)",
            "WS(512)",
        ],
    );
    for (core, p) in profiles.iter().enumerate() {
        table.row(vec![
            core.to_string(),
            p.requests.to_string(),
            p.distinct.to_string(),
            format!("{:.1}%", 100.0 * p.reuse_fraction),
            p.median_reuse
                .map(|d| d.to_string())
                .unwrap_or_else(|| "-".into()),
            format!("{:.1}", p.working_set[0]),
            format!("{:.1}", p.working_set[1]),
            format!("{:.1}", p.working_set[2]),
        ]);
    }
    Ok(table.to_text())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;
    use mcp_core::Workload;

    #[test]
    fn profiles_a_trace() {
        let path = std::env::temp_dir()
            .join(format!("mcp_cli_stats_{}.json", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let w = Workload::from_u32([vec![1, 2, 1, 2, 1, 2], vec![9, 8, 7, 6, 5, 4]]).unwrap();
        mcp_workloads::save_json(&w, std::path::Path::new(&path)).unwrap();
        let a = Args::parse(
            format!("stats --trace {path}")
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        let out = run(&a).unwrap();
        assert!(out.contains("disjoint = true"));
        assert!(out.contains("66.7%"), "loop core reuses 4/6:\n{out}");
        assert!(out.contains(" -"), "scan core has no reuse:\n{out}");
        std::fs::remove_file(&path).ok();
    }
}
