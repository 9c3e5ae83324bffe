//! `mcp curves` — per-core LRU and OPT miss curves.
//!
//! ```text
//! mcp curves --trace w.json --max-k 16 [--core N]
//! ```

use super::{load_trace, CliError};
use crate::args::Args;
use mcp_analysis::report::Table;
use mcp_offline::{lru_curve, opt_curve};

/// The options `mcp curves` accepts besides `--jobs` and `--help`.
pub const OPTIONS: &str = "trace max-k core";

/// Run `mcp curves`.
pub fn run(args: &Args) -> Result<String, CliError> {
    let workload = load_trace(args.require("trace")?)?;
    let max_k: usize = args.parse_or("max-k", 8usize)?;
    let only: Option<usize> = match args.get("core") {
        None => None,
        Some(v) => Some(
            v.parse()
                .map_err(|_| CliError::Other(format!("bad --core {v:?}")))?,
        ),
    };
    let mut columns = vec!["core".to_string(), "policy".to_string()];
    columns.extend((1..=max_k).map(|k| format!("k={k}")));
    let col_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut table = Table::new("per-core miss curves (fault counts)", &col_refs);
    let cores: Vec<usize> = (0..workload.num_cores())
        .filter(|&core| only.map(|c| c == core).unwrap_or(true))
        .collect();
    let curves = mcp_exec::Pool::global().par_map(&cores, |_, &core| {
        let seq = workload.sequence(core);
        (lru_curve(seq, max_k), opt_curve(seq, max_k))
    });
    for (&core, (lru, opt)) in cores.iter().zip(&curves) {
        let mut lru_row = vec![core.to_string(), "LRU".to_string()];
        lru_row.extend(lru.iter().map(|f| f.to_string()));
        table.row(lru_row);
        let mut opt_row = vec![String::new(), "OPT".to_string()];
        opt_row.extend(opt.iter().map(|f| f.to_string()));
        table.row(opt_row);
    }
    Ok(table.to_text())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;
    use mcp_core::Workload;

    #[test]
    fn prints_both_curves() {
        let path = std::env::temp_dir()
            .join(format!("mcp_cli_curves_{}.json", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let w = Workload::from_u32([vec![1, 2, 3, 1, 2, 3], vec![9, 9, 9]]).unwrap();
        mcp_workloads::save_json(&w, std::path::Path::new(&path)).unwrap();
        let a = Args::parse(
            format!("curves --trace {path} --max-k 4")
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        let out = run(&a).unwrap();
        assert!(out.contains("LRU") && out.contains("OPT") && out.contains("k=4"));
        // Core filter.
        let a = Args::parse(
            format!("curves --trace {path} --max-k 2 --core 1")
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        let out = run(&a).unwrap();
        assert!(
            !out.contains("\n  0"),
            "core 0 must be filtered out:\n{out}"
        );
        std::fs::remove_file(&path).ok();
    }
}
