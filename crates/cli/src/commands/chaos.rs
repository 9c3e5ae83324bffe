//! `mcp chaos` — the crash-recovery torture harness (DESIGN §13).
//!
//! ```text
//! mcp chaos [--instances 8] [--seed S] [--bits 64]
//!           [--plan SEED[:W,R,T[,C[,STALL_MS]]]] [--jobs N]
//! ```
//!
//! For every seeded instance: truncate a real FTF and PIF checkpoint at
//! every byte prefix, flip sampled bits, resume the genuine snapshots at
//! jobs 1/2/4, simulate write-crashes against the atomic save path, and
//! drive a full save → load → resume chain under a bounded fault plan.
//! Every stage must end in the bit-identical reference result or a typed
//! error; any panic, torn file, or silent divergence is a violation
//! (exit 1, each one listed).

use super::CliError;
use crate::args::{ArgError, Args};
use crate::commands::fuzz::parse_seed;
use mcp_chaos::FaultPlan;
use mcp_oracle::{run_torture, ChaosOptions};
use std::fmt::Write as _;

/// The options `mcp chaos` accepts besides `--jobs` and `--help`.
pub const OPTIONS: &str = "instances bits seed plan";

/// Run `mcp chaos`.
pub fn run(args: &Args) -> Result<String, CliError> {
    let instances: usize = args.parse_or("instances", 8usize)?;
    let bit_flips: usize = args.parse_or("bits", 64usize)?;
    let seed = match args.get("seed") {
        None => 0,
        Some(text) => parse_seed(text).ok_or_else(|| {
            CliError::Args(ArgError::BadValue {
                key: "seed".to_string(),
                value: text.to_string(),
                expected: "a decimal or 0x-prefixed hex integer",
            })
        })?,
    };
    let plan = match args.get("plan") {
        None => FaultPlan::seeded(seed),
        Some(spec) => FaultPlan::parse(spec).map_err(|_| {
            CliError::Args(ArgError::BadValue {
                key: "plan".to_string(),
                value: spec.to_string(),
                expected: "SEED[:W,R,T[,C[,STALL_MS]]] with per-mille rates",
            })
        })?,
    };
    let options = ChaosOptions {
        instances,
        seed,
        bit_flips,
        plan,
        scratch_dir: std::env::temp_dir().join(format!("mcp-chaos-{}", std::process::id())),
        ..ChaosOptions::default()
    };
    let report = run_torture(&options);
    std::fs::remove_dir_all(&options.scratch_dir).ok();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "chaos: {} instances, seed {:#x}, plan {:?}",
        report.instances, seed, plan
    );
    let _ = writeln!(out, "  prefix parses:        {}", report.prefix_parses);
    let _ = writeln!(out, "  bit-flip parses:      {}", report.bit_flip_parses);
    let _ = writeln!(out, "  resume checks:        {}", report.resume_checks);
    let _ = writeln!(out, "  crash simulations:    {}", report.crash_sims);
    let _ = writeln!(out, "  faulted chains:       {}", report.faulted_chains);
    if report.clean() {
        let _ = writeln!(out, "  violations:           0");
        Ok(out)
    } else {
        let _ = writeln!(out, "  violations:           {}", report.violations.len());
        for v in &report.violations {
            let _ = writeln!(out, "    {v}");
        }
        Err(CliError::Other(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chaos(line: &str) -> Result<String, CliError> {
        run(&Args::parse(line.split_whitespace().map(String::from)).unwrap())
    }

    #[test]
    fn a_tiny_torture_run_is_clean() {
        let out = chaos("chaos --instances 1 --bits 8 --seed 0xC4").unwrap();
        assert!(out.contains("violations:           0"), "{out}");
        assert!(out.contains("crash simulations:    1"), "{out}");
    }

    #[test]
    fn bad_seeds_and_plans_are_rejected() {
        assert!(chaos("chaos --seed nope").is_err());
        assert!(chaos("chaos --plan 0:only-two,5").is_err());
    }
}
