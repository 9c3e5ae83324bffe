//! # mcp-cli — the `mcp` command-line tool
//!
//! Generate, simulate, compare, and exactly solve multicore paging
//! instances from the shell:
//!
//! ```text
//! mcp gen zipf --cores 4 --n 2000 --universe 128 --out w.json
//! mcp simulate --trace w.json --k 32 --tau 4 --strategy lru --fairness
//! mcp compare  --trace w.json --k 32 --tau 4
//! mcp curves   --trace w.json --max-k 16
//! mcp partition --trace w.json --k 32 --policy opt
//! mcp opt --trace small.json --k 3 --tau 1 --schedule
//! mcp pif --trace small.json --k 3 --tau 1 --at 20 --bounds 4,5
//! ```
//!
//! The library half exposes [`dispatch`] plus the testable pieces
//! ([`args`], [`commands`]).

#![warn(missing_docs)]

pub mod args;
pub mod commands;

use args::Args;
use commands::CliError;

/// Usage text.
pub const USAGE: &str = "\
mcp — multicore paging toolkit (López-Ortiz & Salinger, SPAA'11)

usage: mcp <command> [options]

commands:
  gen <kind>   generate a workload (uniform|zipf|phased|cycles|graph|mixed)
                 --cores N --n N --seed S --out FILE [--text];
                 uniform/zipf: [--universe U] [--alpha A];
                 phased: [--set S] [--phase L]; cycles: [--k K];
                 graph: [--shape cycle|path|tree|grid] [--size S]
                 [--stay P] [--rows R] [--cols C]
  simulate     run one strategy        --trace F --k K [--tau T]
                 [--strategy lru|fifo|clock|lfu|mru|fwf|lru2|rand|mark|
                  mark-rand|fitf|mimic|partition[:sizes]|partition-opt|
                  sacrifice[:core]] [--fairness] [--at T]
                 [--capacity K0[,K@T]…]
  compare      run a strategy matrix   --trace F --k K [--tau T]
                 [--strategies a,b,c] [--capacity K0[,K@T]…]
  stats        workload profile        --trace F
  curves       per-core miss curves    --trace F [--max-k K] [--core N]
  partition    optimal static split    --trace F --k K [--policy lru|opt]
  opt          exact min faults (DP)   --trace F --k K [--tau T] [--schedule]
                 [--max-states N] [--stats] [--json]
                 [--deadline DUR] [--checkpoint FILE]
  pif          fairness feasibility    --trace F --k K --at T --bounds a,b,…
                 [--tau T] [--schedule] [--transitions full|honest]
                 [--max-expansions N] [--stats] [--json]
                 [--deadline DUR] [--checkpoint FILE]
  fuzz         differential fuzz: event vs. tick vs. naive reference,
                 plus an online (serve) leg for online-safe families
                 [--instances N] [--seed S] [--corpus DIR] [--families a,b,…]
                 [--profile mixed|large-tau|batch|capacity]
                 [--chaos] [--chaos-seed S];
                 divergences shrink to fixtures under DIR and exit 1;
                 --chaos arms a seeded fault plan (injected panics and
                 stalls) and retries each instance past injected faults —
                 only real divergences survive as quarantined failures
  chaos        crash-recovery torture: every byte-prefix truncation and
                 sampled bit flips of real checkpoints must fail typed,
                 resume at jobs 1/2/4 must match the reference
                 bit-for-bit, simulated write-crashes must never tear the
                 target, and a faulted save/load/resume chain must
                 recover [--instances N] [--seed S] [--bits N]
                 [--plan SEED[:W,R,T[,C[,STALL_MS]]]]; violations exit 1
  serve        streaming online service: per-core bounded queues
                 (cFCFS/dFCFS), live strategy, JSON metric snapshots on
                 stdout --cores P --k K [--tau T] [--strategy NAME]
                 [--discipline cfcfs|dfcfs] [--depth N] [--batch N]
                 [--snapshot-ms MS] [--replay-log FILE] [--quiet]
                 [--capacity K0[,K@T]…] and one input mode:
                 --seed S [--n N] [--universe U]
                 (deterministic self-driving stream; the replay log pipes
                 into `mcp simulate -` and reproduces the same faults) or
                 --listen unix:PATH|tcp:HOST:PORT (socket clients; SIGINT
                 drains, snapshots, writes the log, exits 0). Offline
                 strategies (fitf, mimic, partition-opt, sacrifice) are
                 rejected — their begin reads the future
  blast        load-generating client for serve
                 --connect unix:PATH|tcp:HOST:PORT [--cores P] [--n N]
                 [--seed S] [--universe U] [--batch B] [--no-close]
  tournament   strategy tournament on the batch engine: regret and
                 pairwise-dominance tables over a families × workloads
                 × K × τ grid
                 [--families a,b,…] [--workloads uniform|zipf|zipf-shared|
                  phased|drift|shared-hotset|staggered|bursty,…]
                 [--k 8,16] [--tau 0,4] [--cores N] [--n N] [--seeds N]
                 [--seed S] [--universe N] [--capacity K0[,K@T]…] [--json]
                 [--no-crosscheck] [--deadline DUR]; a seeded sample of
                 cells is re-run on the per-run simulator and must match
                 bit-for-bit

global options:
  --jobs N     worker threads for compare, curves and the exact solvers
               (default: MCP_JOBS or all hardware threads; results are
               identical for every N)
  --help       print this text

Each command accepts only its own options and the global ones; an
unknown or repeated option is an argument error (exit 2).

resource governance (opt, pif):
  --deadline DUR    stop at a wall-clock budget (30s, 500ms, 2m); a
                    truncated opt prints its anytime bracket
                    [lower_bound, incumbent] and exits 3
  --checkpoint FILE save the DP frontier on truncation (also on Ctrl-C)
                    and resume from FILE when re-run; removed on completion

Traces are JSON (.json) or the compact text format (anything else);
`--trace -` reads the text format from stdin.
The exact solvers (opt, pif) are exponential in K and p: keep instances small.
exit codes: 0 ok · 1 error · 2 bad arguments or malformed trace · 3 partial
";

type Run = fn(&Args) -> Result<String, CliError>;

/// Every command: its name, its implementation, and the options it
/// declares.
const COMMANDS: &[(&str, Run, &str)] = {
    use commands::*;
    &[
        ("gen", gen::run, gen::OPTIONS),
        ("simulate", simulate::run, simulate::OPTIONS),
        ("stats", stats::run, stats::OPTIONS),
        ("compare", compare::run, compare::OPTIONS),
        ("curves", curves::run, curves::OPTIONS),
        ("partition", partition::run, partition::OPTIONS),
        ("opt", opt::run, opt::OPTIONS),
        ("pif", pif::run, pif::OPTIONS),
        ("fuzz", fuzz::run, fuzz::OPTIONS),
        ("chaos", chaos::run, chaos::OPTIONS),
        ("tournament", tournament::run, tournament::OPTIONS),
        ("serve", serve::run, serve::OPTIONS),
        ("blast", blast::run, blast::OPTIONS),
    ]
};

/// Dispatch a parsed command line to its implementation, after checking
/// every option against the command's declared options.
pub fn dispatch(args: &Args) -> Result<String, CliError> {
    let jobs: usize = args.parse_or("jobs", 0usize)?;
    if jobs > 0 {
        mcp_exec::set_jobs(Some(jobs));
    }
    let Some(name) = args.command.as_deref().filter(|&c| c != "help") else {
        return Ok(USAGE.to_string());
    };
    let Some(&(_, run, options)) = COMMANDS.iter().find(|(n, _, _)| *n == name) else {
        return Err(CliError::Other(format!(
            "unknown command {name:?}; try `mcp help`"
        )));
    };
    args.check_options(options)?;
    run(args)
}

#[cfg(test)]
mod tests {
    use super::*;
    use args::ArgError;

    #[test]
    fn help_and_unknown_commands() {
        let none = Args::parse(std::iter::empty::<String>()).unwrap();
        assert!(dispatch(&none).unwrap().contains("usage: mcp"));
        let help = Args::parse(["help".to_string()]).unwrap();
        assert!(dispatch(&help).unwrap().contains("commands:"));
        let bad = Args::parse(["frobnicate".to_string()]).unwrap();
        assert!(dispatch(&bad).is_err());
    }

    #[test]
    fn usage_documents_every_declared_option() {
        for &(_, _, options) in COMMANDS {
            for option in options.split_whitespace() {
                assert!(USAGE.contains(&format!("--{option}")), "--{option}");
            }
        }
    }

    #[test]
    fn undeclared_options_are_argument_errors() {
        let args =
            Args::parse(["stats", "--trace", "w.json", "--k", "4"].map(String::from)).unwrap();
        let err = dispatch(&args).unwrap_err();
        assert!(
            matches!(err, CliError::Args(ArgError::Unknown { .. })),
            "{err}"
        );
        assert_eq!(err.exit_code(), 2);
    }
}
