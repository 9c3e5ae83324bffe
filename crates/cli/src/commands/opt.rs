//! `mcp opt` — exact offline optimum via Algorithm 1 (small instances).
//!
//! ```text
//! mcp opt --trace w.json --k 3 --tau 1 [--schedule] [--max-states N]
//!         [--deadline DUR] [--checkpoint FILE] [--stats] [--json]
//! ```
//!
//! With `--deadline`, a run that exceeds the budget exits 3 after
//! printing the anytime bracket `[lower_bound, incumbent]`; with
//! `--checkpoint FILE` the truncated frontier is also saved there, and
//! re-running the same command resumes from the snapshot (the file is
//! removed on completion). `--stats` prints DP engine statistics
//! (states, expansions, peak arena bytes, dedup-table load factor,
//! states/sec) to stderr; `--json` makes that line machine-readable.

use super::{budget_from, emit_stats, load_instance, CliError};
use crate::args::Args;
use mcp_core::Budget;
use mcp_offline::{ftf_dp_governed_with_stats, FtfCheckpoint, FtfOptions, FtfOutcome, FtfResult};

/// The options `mcp opt` accepts besides `--jobs` and `--help`.
pub const OPTIONS: &str = "trace k tau schedule max-states stats json deadline checkpoint";

/// Run `mcp opt`.
pub fn run(args: &Args) -> Result<String, CliError> {
    let (workload, cfg) = load_instance(args)?;
    let reconstruct = args.flag("schedule");
    let max_states: usize = args.parse_or("max-states", 4_000_000usize)?;
    let want_stats = args.flag("stats") || args.flag("json");
    let options = FtfOptions {
        reconstruct,
        max_states,
        ..Default::default()
    };
    let too_large = |e: mcp_offline::DpError| {
        CliError::Other(format!(
            "{e} (the DP is exponential in K and p; shrink the instance)"
        ))
    };

    let checkpoint_path = args.get("checkpoint").map(std::path::PathBuf::from);
    let governed = args.get("deadline").is_some() || checkpoint_path.is_some();
    let budget = if governed {
        budget_from(args)?.with_max_states(max_states)
    } else {
        // Same shape as the plain ftf_dp wrapper: only the state cap.
        Budget::unlimited().with_max_states(max_states)
    };
    // Recovery policy: a corrupt or stale resume file warns and starts
    // fresh instead of erroring out (DESIGN §13).
    let resume: Option<FtfCheckpoint> = match &checkpoint_path {
        Some(p) => {
            let expected =
                mcp_offline::ftf_fingerprint(&workload, cfg, &options).map_err(too_large)?;
            super::load_resume(p, expected, FtfCheckpoint::load, |ck| ck.fingerprint)?
        }
        None => None,
    };
    let resumed = resume.is_some();
    let t0 = std::time::Instant::now();
    let (outcome, stats) =
        ftf_dp_governed_with_stats(&workload, cfg, options, &budget, resume.as_ref())
            .map_err(too_large)?;
    if want_stats {
        emit_stats("ftf", &stats, t0.elapsed(), args.flag("json"));
    }
    let result: FtfResult = match outcome {
        FtfOutcome::Complete(r) => {
            if let Some(p) = &checkpoint_path {
                if resumed {
                    std::fs::remove_file(p).ok();
                }
            }
            r
        }
        FtfOutcome::Truncated(t) if governed => {
            let mut msg = format!(
                "opt truncated ({:?}) after {} states; anytime bracket: \
                 {} <= optimum <= {}",
                t.reason, t.states, t.lower_bound, t.incumbent
            );
            match &checkpoint_path {
                Some(p) => {
                    t.checkpoint
                        .save(p)
                        .map_err(|e| CliError::Other(format!("saving checkpoint: {e}")))?;
                    msg.push_str(&format!(
                        "; checkpoint saved to {} (re-run the same command to resume)",
                        p.display()
                    ));
                }
                None => msg.push_str("; pass --checkpoint FILE to make the run resumable"),
            }
            return Err(CliError::Partial(msg));
        }
        FtfOutcome::Truncated(t) => {
            // Ungoverned run over the state cap: same error as ftf_dp.
            return Err(too_large(mcp_offline::DpError::TooLarge {
                states: t.states,
                cap: max_states,
                incumbent: Some(t.incumbent),
            }));
        }
    };

    let mut out = format!(
        "exact minimum total faults: {} ({} DP states)\n",
        result.min_faults, result.states
    );
    if let Some(schedule) = result.schedule {
        out.push_str(&format!(
            "\noptimal schedule ({} placements):\n",
            schedule.decisions.len()
        ));
        let mut decisions: Vec<_> = schedule.decisions.into_iter().collect();
        decisions.sort_by_key(|((core, idx), _)| (*core, *idx));
        for ((core, idx), decision) in decisions {
            out.push_str(&format!("  core {core} request #{idx}: {decision:?}\n"));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;
    use mcp_core::Workload;

    #[test]
    fn computes_the_dp_optimum() {
        let path = std::env::temp_dir()
            .join(format!("mcp_cli_opt_{}.json", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let w = Workload::from_u32([vec![1, 2, 1, 2], vec![9, 8, 9, 8]]).unwrap();
        mcp_workloads::save_json(&w, std::path::Path::new(&path)).unwrap();
        let a = Args::parse(
            format!("opt --trace {path} --k 3 --tau 1 --schedule")
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        let out = run(&a).unwrap();
        assert!(out.contains("exact minimum total faults"));
        assert!(out.contains("core 0 request #0"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stats_flags_do_not_disturb_the_result() {
        let path = std::env::temp_dir()
            .join(format!("mcp_cli_opt3_{}.json", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let w = Workload::from_u32([vec![1, 2, 1, 2], vec![9, 8, 9, 8]]).unwrap();
        mcp_workloads::save_json(&w, std::path::Path::new(&path)).unwrap();
        let plain = run(&Args::parse(
            format!("opt --trace {path} --k 3 --tau 1")
                .split_whitespace()
                .map(String::from),
        )
        .unwrap())
        .unwrap();
        for extra in ["--stats", "--stats --json"] {
            let out = run(&Args::parse(
                format!("opt --trace {path} --k 3 --tau 1 {extra}")
                    .split_whitespace()
                    .map(String::from),
            )
            .unwrap())
            .unwrap();
            assert_eq!(out, plain, "{extra} changed stdout");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn state_cap_reports_kindly() {
        let path = std::env::temp_dir()
            .join(format!("mcp_cli_opt2_{}.json", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let big: Vec<u32> = (0..16).map(|i| i % 8).collect();
        let w = Workload::from_u32([big.clone(), big.iter().map(|v| v + 100).collect()]).unwrap();
        mcp_workloads::save_json(&w, std::path::Path::new(&path)).unwrap();
        let a = Args::parse(
            format!("opt --trace {path} --k 6 --tau 2 --max-states 100")
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        let err = run(&a).unwrap_err().to_string();
        assert!(err.contains("shrink the instance"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
