//! `mcp gen <kind>` — generate a workload trace.
//!
//! ```text
//! mcp gen uniform --cores 4 --n 1000 --universe 64 --seed 1 --out w.json
//! mcp gen zipf    --cores 2 --n 500 --universe 128 --alpha 0.9 --out w.json
//! mcp gen phased  --cores 2 --n 800 --set 12 --phase 100 --out w.json
//! mcp gen cycles  --cores 2 --n 400 --k 4 --out w.json        # Lemma 4
//! mcp gen graph   --cores 2 --n 600 --shape grid --rows 8 --cols 8 --stay 0.3 --out w.json
//! mcp gen mixed   --n 1000 --out w.json                        # 4 personalities
//! ```
//!
//! `--text` writes the compact line format instead of JSON.

use super::CliError;
use crate::args::Args;
use mcp_core::Workload;
use mcp_workloads::{
    graph_walks, lemma4_cyclic, multiprogrammed, phased, uniform, zipf, AccessGraph, CorePattern,
};
use std::path::Path;

/// The options `mcp gen` accepts besides `--jobs` and `--help`.
pub const OPTIONS: &str =
    "cores n seed universe alpha set phase k shape size stay rows cols out text";

/// Run `mcp gen`.
pub fn run(args: &Args) -> Result<String, CliError> {
    let kind = args.positional.first().map(String::as_str).ok_or_else(|| {
        CliError::Other("gen needs a kind: uniform|zipf|phased|cycles|graph|mixed".into())
    })?;
    let cores: usize = args.parse_or("cores", 2usize)?;
    let n: usize = args.parse_or("n", 1000usize)?;
    let seed: u64 = args.parse_or("seed", 42u64)?;

    let workload: Workload = match kind {
        "uniform" => {
            let universe: u32 = args.parse_or("universe", 64u32)?;
            uniform(cores, n, universe, seed)
        }
        "zipf" => {
            let universe: u32 = args.parse_or("universe", 128u32)?;
            let alpha: f64 = args.parse_or("alpha", 0.9f64)?;
            zipf(cores, n, universe, alpha, seed)
        }
        "phased" => {
            let set: u32 = args.parse_or("set", 12u32)?;
            let phase: usize = args.parse_or("phase", 100usize)?;
            phased(cores, n, set, phase, seed)
        }
        "cycles" => {
            let k: usize = args.parse_or("k", cores * cores)?;
            if !k.is_multiple_of(cores) {
                return Err(CliError::Other(format!(
                    "--k {k} must be divisible by --cores {cores}"
                )));
            }
            lemma4_cyclic(cores, k, n)
        }
        "graph" => {
            let shape = args.get("shape").unwrap_or("cycle");
            let size: u32 = args.parse_or("size", 16u32)?;
            let stay: f64 = args.parse_or("stay", 0.3f64)?;
            let graph = match shape {
                "cycle" => AccessGraph::cycle(size),
                "path" => AccessGraph::path(size),
                "tree" => AccessGraph::binary_tree(size),
                "grid" => {
                    let rows: u32 = args.parse_or("rows", 8u32)?;
                    let cols: u32 = args.parse_or("cols", 8u32)?;
                    AccessGraph::grid(rows, cols)
                }
                other => return Err(CliError::Other(format!("unknown graph shape {other:?}"))),
            };
            let graphs: Vec<AccessGraph> = (0..cores).map(|_| graph.clone()).collect();
            graph_walks(&graphs, n, stay, seed)
        }
        "mixed" => multiprogrammed(
            &[
                CorePattern::Scan {
                    universe: (n / 4) as u32,
                },
                CorePattern::Loop { len: 6 },
                CorePattern::Zipf {
                    universe: 64,
                    alpha: 1.0,
                },
                CorePattern::Phased {
                    set_size: 12,
                    phase_len: n / 10 + 1,
                    shift: 8,
                },
            ],
            n,
            seed,
        ),
        other => {
            return Err(CliError::Other(format!(
                "unknown kind {other:?}; try uniform|zipf|phased|cycles|graph|mixed"
            )))
        }
    };

    let out = args.require("out")?;
    if args.flag("text") {
        let mut buf = Vec::new();
        mcp_workloads::write_text(&workload, &mut buf)?;
        std::fs::write(out, buf)?;
    } else {
        mcp_workloads::save_json(&workload, Path::new(out))?;
    }
    Ok(format!(
        "wrote {kind} workload: p = {}, n = {} requests, {} distinct pages -> {out}\n",
        workload.num_cores(),
        workload.total_len(),
        workload.universe_size(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("mcp_cli_gen_{}_{name}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn generates_and_roundtrips_every_kind() {
        for (kind, extra) in [
            ("uniform", ""),
            ("zipf", "--alpha 1.1"),
            ("phased", "--set 6 --phase 20"),
            ("cycles", "--k 4"),
            ("graph", "--shape tree --size 15"),
            ("mixed", ""),
        ] {
            let out = tmp(&format!("{kind}.json"));
            let a = parse(&format!("gen {kind} --cores 2 --n 60 {extra} --out {out}"));
            let msg = run(&a).unwrap();
            assert!(msg.contains(kind), "{msg}");
            let w = super::super::load_trace(&out).unwrap();
            assert_eq!(w.total_len(), if kind == "mixed" { 240 } else { 120 });
            std::fs::remove_file(&out).ok();
        }
    }

    #[test]
    fn text_output_roundtrips() {
        let out = tmp("t.trace");
        let a = parse(&format!("gen uniform --cores 2 --n 30 --out {out} --text"));
        run(&a).unwrap();
        let w = super::super::load_trace(&out).unwrap();
        assert_eq!(w.total_len(), 60);
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn rejects_unknown_kind_and_bad_divisibility() {
        assert!(run(&parse("gen nope --out /tmp/x.json")).is_err());
        assert!(run(&parse("gen cycles --cores 3 --k 4 --out /tmp/x.json")).is_err());
        assert!(run(&parse("gen")).is_err());
    }
}
