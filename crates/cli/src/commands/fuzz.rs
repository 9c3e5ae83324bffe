//! `mcp fuzz` — the seeded differential fuzz harness: the event engine
//! vs. the scan-based tick engine (result + step-trace equality) vs. the
//! naive reference over every strategy family, plus metamorphic
//! invariants and exhaustive-oracle cross-checks of the offline DPs.
//!
//! ```text
//! mcp fuzz --instances 256 [--seed 0xC5_2011_12] [--jobs 4]
//!          [--corpus tests/corpus] [--families lru,clock,mimic]
//!          [--profile mixed|large-tau|batch|capacity]
//! ```
//!
//! Output is deterministic for a given seed at every `--jobs` level.
//! A divergence is shrunk to a minimal instance, written as a replayable
//! fixture under the corpus directory, and reported with the family name;
//! the process then exits non-zero.

use super::CliError;
use crate::args::{ArgError, Args};
use mcp_oracle::{run_fuzz, FuzzOptions, FuzzProfile, FAMILIES};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Parse a seed that may be decimal or `0x`-prefixed hex, with `_`
/// separators allowed in either (e.g. `0xC5_2011_12`).
pub fn parse_seed(text: &str) -> Option<u64> {
    let cleaned: String = text.chars().filter(|&c| c != '_').collect();
    if let Some(hex) = cleaned
        .strip_prefix("0x")
        .or_else(|| cleaned.strip_prefix("0X"))
    {
        u64::from_str_radix(hex, 16).ok()
    } else {
        cleaned.parse().ok()
    }
}

/// The options `mcp fuzz` accepts besides `--jobs` and `--help`.
pub const OPTIONS: &str = "instances seed corpus families profile chaos chaos-seed";

/// Run `mcp fuzz`.
pub fn run(args: &Args) -> Result<String, CliError> {
    let instances: usize = args.parse_or("instances", 64usize)?;
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
    let corpus_dir = PathBuf::from(args.get("corpus").unwrap_or("tests/corpus"));
    let families: Vec<String> = match args.get("families") {
        Some(list) => {
            let named: Vec<String> = list.split(',').map(|s| s.trim().to_string()).collect();
            for name in &named {
                if !FAMILIES.contains(&name.as_str()) {
                    return Err(CliError::Other(format!(
                        "unknown strategy family {name:?}; known: {}",
                        FAMILIES.join(", ")
                    )));
                }
            }
            named
        }
        None => FAMILIES.iter().map(|s| s.to_string()).collect(),
    };

    let profile = match args.get("profile") {
        None => FuzzProfile::Mixed,
        Some(text) => FuzzProfile::parse(text).ok_or_else(|| {
            CliError::Args(ArgError::BadValue {
                key: "profile".to_string(),
                value: text.to_string(),
                expected: "mixed, large-tau, batch or capacity",
            })
        })?,
    };

    let chaos = args.flag("chaos");
    let options = FuzzOptions {
        instances,
        seed,
        corpus_dir,
        families,
        profile,
        chaos,
    };
    // --chaos: arm a bounded fault plan for the run (unless the caller
    // already armed one via MCP_CHAOS) and give every instance a retry
    // budget that clears injected faults; real divergences still fail
    // every attempt and are reported as quarantined.
    let _guard = if chaos && !mcp_chaos::armed() {
        let chaos_seed = match args.get("chaos-seed") {
            None => seed,
            Some(text) => parse_seed(text).ok_or_else(|| {
                CliError::Args(ArgError::BadValue {
                    key: "chaos-seed".to_string(),
                    value: text.to_string(),
                    expected: "a decimal or 0x-prefixed hex integer",
                })
            })?,
        };
        Some(mcp_chaos::arm_scoped(mcp_chaos::FaultPlan::seeded(
            chaos_seed,
        )))
    } else {
        None
    };
    let report = run_fuzz(&options);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "fuzz: {} instances, seed {:#x}, {} families{}",
        instances,
        seed,
        options.families.len(),
        if chaos { " [chaos]" } else { "" }
    );
    let _ = writeln!(
        out,
        "  engine comparisons:   {} ({} instances clean)",
        report.comparisons, report.passed
    );
    let _ = writeln!(out, "  metamorphic checks:   {}", report.metamorphic_checks);
    let _ = writeln!(out, "  dp oracle checks:     {}", report.dp_checks);

    if report.clean() {
        let _ = writeln!(out, "  divergences:          0");
        Ok(out)
    } else {
        let _ = writeln!(out, "  divergences:          {}", report.divergences.len());
        for d in &report.divergences {
            let _ = writeln!(out, "{}", d.message);
        }
        Err(CliError::Other(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_parse_in_both_bases() {
        assert_eq!(parse_seed("0"), Some(0));
        assert_eq!(parse_seed("1_000"), Some(1000));
        assert_eq!(parse_seed("0xff"), Some(255));
        assert_eq!(parse_seed("0xC5_2011_12"), Some(0xC520_1112));
        assert_eq!(parse_seed("0XC5201112"), Some(0xC520_1112));
        assert_eq!(parse_seed("nope"), None);
        assert_eq!(parse_seed("0x"), None);
    }

    #[test]
    fn a_tiny_clean_run_reports_zero_divergences() {
        let dir = std::env::temp_dir().join("mcp-cli-fuzz-test");
        let args = Args::parse(
            [
                "fuzz",
                "--instances",
                "2",
                "--seed",
                "3",
                "--corpus",
                dir.to_str().unwrap(),
            ]
            .map(String::from),
        )
        .unwrap();
        let out = run(&args).unwrap();
        assert!(out.contains("divergences:          0"), "{out}");
    }

    #[test]
    fn capacity_profile_runs_clean() {
        let dir = std::env::temp_dir().join("mcp-cli-fuzz-cap-test");
        let args = Args::parse(
            [
                "fuzz",
                "--instances",
                "2",
                "--seed",
                "7",
                "--profile",
                "capacity",
                "--corpus",
                dir.to_str().unwrap(),
            ]
            .map(String::from),
        )
        .unwrap();
        let out = run(&args).unwrap();
        assert!(out.contains("divergences:          0"), "{out}");
    }

    #[test]
    fn unknown_family_is_rejected() {
        let args = Args::parse(["fuzz", "--families", "lru,nope"].map(String::from)).unwrap();
        assert!(run(&args).is_err());
    }
}
