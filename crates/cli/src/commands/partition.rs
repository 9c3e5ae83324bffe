//! `mcp partition` — compute the optimal static cache partition for a
//! disjoint workload from per-core miss curves.
//!
//! ```text
//! mcp partition --trace w.json --k 32 [--policy lru|opt] [--tau T]
//! ```

use super::{load_trace, CliError};
use crate::args::Args;
use mcp_offline::{optimal_static_partition, PartPolicy};

/// The options `mcp partition` accepts besides `--jobs` and `--help`.
pub const OPTIONS: &str = "trace k policy";

/// Run `mcp partition`.
pub fn run(args: &Args) -> Result<String, CliError> {
    let workload = load_trace(args.require("trace")?)?;
    let k: usize = args.parse_required("k")?;
    if k < workload.num_cores() {
        return Err(CliError::Other(format!(
            "K = {k} is smaller than p = {} (every core needs a cell)",
            workload.num_cores()
        )));
    }
    let policy = match args.get("policy").unwrap_or("lru") {
        "lru" => PartPolicy::Lru,
        "opt" => PartPolicy::Opt,
        other => {
            return Err(CliError::Other(format!(
                "unknown --policy {other:?}; lru or opt"
            )))
        }
    };
    if !workload.is_disjoint() {
        return Err(CliError::Other(
            "the workload shares pages between cores; static-partition planning assumes \
             disjoint per-core working sets"
                .into(),
        ));
    }
    let best = optimal_static_partition(&workload, k, policy);
    let mut out = format!(
        "optimal static partition for per-part {}: {}\n",
        match policy {
            PartPolicy::Lru => "LRU",
            PartPolicy::Opt => "OPT",
        },
        best.partition
    );
    out.push_str(&format!("predicted total faults: {}\n", best.faults));
    for (core, f) in best.per_core.iter().enumerate() {
        out.push_str(&format!(
            "  core {core}: {} cells, {f} faults / {} requests\n",
            best.partition.size(core),
            workload.len(core)
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;
    use mcp_core::Workload;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn plans_and_validates() {
        let path = std::env::temp_dir()
            .join(format!("mcp_cli_part_{}.json", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let c0: Vec<u32> = (0..40).map(|i| i % 4).collect();
        let c1: Vec<u32> = vec![100; 40];
        let w = Workload::from_u32([c0, c1]).unwrap();
        mcp_workloads::save_json(&w, std::path::Path::new(&path)).unwrap();
        let out = run(&parse(&format!(
            "partition --trace {path} --k 5 --policy opt"
        )))
        .unwrap();
        assert!(out.contains("[4,1]"), "{out}");
        assert!(out.contains("predicted total faults: 5"));
        // Errors: bad policy, K too small.
        assert!(run(&parse(&format!(
            "partition --trace {path} --k 5 --policy x"
        )))
        .is_err());
        assert!(run(&parse(&format!("partition --trace {path} --k 1"))).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_shared_pages() {
        let path = std::env::temp_dir()
            .join(format!("mcp_cli_part2_{}.json", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let w = Workload::from_u32([vec![1, 2], vec![2, 3]]).unwrap();
        mcp_workloads::save_json(&w, std::path::Path::new(&path)).unwrap();
        let err = run(&parse(&format!("partition --trace {path} --k 4"))).unwrap_err();
        assert!(err.to_string().contains("disjoint"));
        std::fs::remove_file(&path).ok();
    }
}
