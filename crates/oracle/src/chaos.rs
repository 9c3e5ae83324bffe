//! The crash-recovery torture harness behind `mcp chaos` (DESIGN §13).
//!
//! For a batch of seeded instances this drives every recovery surface of
//! the checkpoint layer through deterministic abuse and checks one
//! contract everywhere: a damaged or faulted resume path must yield
//! either the bit-identical reference result or a typed error — never a
//! panic and never a silently divergent answer.
//!
//! Per instance (all derived from one master seed, so a run is
//! reproducible bit-for-bit):
//!
//! 1. **Prefix torture** — every strict byte prefix of a real FTF and
//!    PIF checkpoint must fail to parse with a typed
//!    [`CheckpointError`].
//! 2. **Bit-flip torture** — sampled single-bit flips must either fail
//!    typed, or (if the checksum somehow still passes) resume to the
//!    exact reference result.
//! 3. **Resume equality** — resuming the genuine checkpoint at every
//!    requested `--jobs` level must reproduce the reference result.
//! 4. **Crash simulation** — under a [`FaultPlan::write_crash`] plan
//!    (every write attempt fails, forever) a save must return an error
//!    while the previous target file survives byte-identical, with no
//!    temp-file litter.
//! 5. **Faulted chain** — under the bounded fault plan, a full
//!    save → load → resume chain at every `--jobs` level must end in the
//!    reference result, with corrupt loads degrading to a fresh start.

use crate::fuzz::FUZZ_CHAOS_ATTEMPTS;
use mcp_chaos::{arm_scoped, FaultPlan};
use mcp_core::{Budget, SimConfig, Workload};
use mcp_exec::derive_seed;
use mcp_offline::{
    ftf_dp_governed, lru_faults, pif_decide_governed, CheckpointError, FtfCheckpoint, FtfOptions,
    FtfOutcome, PifCheckpoint, PifOptions, PifOutcome,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// Configuration of one torture run.
#[derive(Clone, Debug)]
pub struct ChaosOptions {
    /// Number of seeded instances to torture.
    pub instances: usize,
    /// Master seed; everything (instances, flip positions, per-instance
    /// fault plans) derives from it.
    pub seed: u64,
    /// Sampled single-bit flips per checkpoint.
    pub bit_flips: usize,
    /// The bounded fault plan armed for the faulted-chain stage. Its
    /// `max_consecutive` must stay below the IO layer's retry budget
    /// ([`mcp_chaos::io::MAX_IO_ATTEMPTS`]) for saves to be guaranteed;
    /// [`run_torture`] clamps it there.
    pub plan: FaultPlan,
    /// Worker counts the resume and faulted-chain stages are repeated at.
    pub jobs: Vec<usize>,
    /// Where the crash-simulation files are written.
    pub scratch_dir: PathBuf,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            instances: 8,
            seed: 0,
            bit_flips: 64,
            plan: FaultPlan::seeded(0),
            jobs: vec![1, 2, 4],
            scratch_dir: std::env::temp_dir().join("mcp-chaos"),
        }
    }
}

/// Aggregated outcome of [`run_torture`].
#[derive(Clone, Debug, Default)]
pub struct ChaosReport {
    /// Instances tortured.
    pub instances: usize,
    /// Strict byte prefixes parsed (all must fail typed).
    pub prefix_parses: u64,
    /// Single-bit flips parsed.
    pub bit_flip_parses: u64,
    /// Genuine-checkpoint resume runs compared against the reference.
    pub resume_checks: u64,
    /// Simulated crashes of the atomic save path.
    pub crash_sims: u64,
    /// Faulted save → load → resume chains completed.
    pub faulted_chains: u64,
    /// Every contract violation, in deterministic order. Empty ⇔ clean.
    pub violations: Vec<String>,
}

impl ChaosReport {
    /// `true` iff no stage violated the recovery contract.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// One tortured instance: a workload/config pair whose governed FTF run
/// truncates under a tiny state cap, plus the PIF horizon and bounds.
struct Torture {
    w: Workload,
    cfg: SimConfig,
    pif_at: u64,
    bounds: Vec<u64>,
}

/// Probe derived seeds until the governed FTF run actually truncates
/// (the generator randomizes instance size, so not every seed does).
fn torture_instance(seed: u64) -> Torture {
    for probe in 0..256 {
        let w = mcp_workloads::random_disjoint(derive_seed(seed, probe), 2, 8, 4);
        let cfg = SimConfig::new(3, 1);
        let budget = Budget::unlimited().with_max_states(2);
        if matches!(
            ftf_dp_governed(&w, cfg, FtfOptions::default(), &budget, None),
            Ok(FtfOutcome::Truncated(_))
        ) {
            let bounds: Vec<u64> = (0..w.num_cores())
                .map(|i| lru_faults(w.sequence(i), (cfg.cache_size / w.num_cores()).max(1)))
                .collect();
            return Torture {
                w,
                cfg,
                pif_at: 6,
                bounds,
            };
        }
    }
    unreachable!("no derived seed produced a truncating instance");
}

fn ftf_complete(t: &Torture, jobs: usize, resume: Option<&FtfCheckpoint>) -> (u64, usize) {
    let options = FtfOptions {
        jobs,
        ..FtfOptions::default()
    };
    match ftf_dp_governed(&t.w, t.cfg, options, &Budget::unlimited(), resume)
        .expect("tiny instance")
    {
        FtfOutcome::Complete(r) => (r.min_faults, r.states),
        FtfOutcome::Truncated(_) => unreachable!("unlimited budget cannot truncate"),
    }
}

fn ftf_truncated(t: &Torture, jobs: usize) -> FtfCheckpoint {
    let options = FtfOptions {
        jobs,
        ..FtfOptions::default()
    };
    let budget = Budget::unlimited().with_max_states(2);
    match ftf_dp_governed(&t.w, t.cfg, options, &budget, None).expect("tiny instance") {
        FtfOutcome::Truncated(tr) => tr.checkpoint,
        FtfOutcome::Complete(_) => unreachable!("torture_instance() guarantees truncation"),
    }
}

fn pif_decide(t: &Torture, jobs: usize, resume: Option<&PifCheckpoint>) -> Option<bool> {
    let opts = PifOptions {
        jobs,
        ..PifOptions::default()
    };
    match pif_decide_governed(
        &t.w,
        t.cfg,
        t.pif_at,
        &t.bounds,
        opts,
        &Budget::unlimited(),
        resume,
    )
    .expect("tiny instance")
    {
        PifOutcome::Decided(feasible) => Some(feasible),
        PifOutcome::Truncated(_) => None,
    }
}

fn pif_truncated(t: &Torture) -> Option<PifCheckpoint> {
    let budget = Budget::unlimited().with_max_states(2);
    match pif_decide_governed(
        &t.w,
        t.cfg,
        t.pif_at,
        &t.bounds,
        PifOptions::default(),
        &budget,
        None,
    )
    .expect("tiny instance")
    {
        PifOutcome::Truncated(tr) => Some(tr.checkpoint),
        PifOutcome::Decided(_) => None,
    }
}

/// Parse arbitrary bytes under `catch_unwind`; a panic is itself a
/// violation, reported by the caller.
fn parse<T>(
    bytes: &[u8],
    from_bytes: impl Fn(&[u8]) -> Result<T, CheckpointError>,
) -> Result<Result<T, CheckpointError>, String> {
    catch_unwind(AssertUnwindSafe(|| from_bytes(bytes))).map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".to_string())
    })
}

/// Run the torture harness. Instances run sequentially on the calling
/// thread, which each stage arms with its own fault plan (the solver's
/// pool workers inherit it); the parallelism under test is inside each
/// solver call via its `jobs` option.
pub fn run_torture(options: &ChaosOptions) -> ChaosReport {
    let mut report = ChaosReport {
        instances: options.instances,
        ..ChaosReport::default()
    };
    let mut plan = options.plan;
    plan.max_consecutive = plan.max_consecutive.min(mcp_chaos::io::MAX_IO_ATTEMPTS - 1);
    std::fs::create_dir_all(&options.scratch_dir).ok();
    // Divergences inside solver retries are expected panics; keep the
    // default hook from spraying stderr (and differing across jobs).
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for i in 0..options.instances {
        let seed = derive_seed(options.seed, i as u64);
        let t = torture_instance(seed);
        torture_one(i, seed, &t, options, plan, &mut report);
    }
    std::panic::set_hook(hook);
    report
}

fn torture_one(
    i: usize,
    seed: u64,
    t: &Torture,
    options: &ChaosOptions,
    plan: FaultPlan,
    report: &mut ChaosReport,
) {
    let violation = |report: &mut ChaosReport, stage: &str, detail: String| {
        report
            .violations
            .push(format!("instance {i} [{stage}]: {detail}"));
    };
    let reference = ftf_complete(t, 1, None);
    let pif_reference = pif_decide(t, 1, None);
    let ftf_ck = ftf_truncated(t, 1);
    let ftf_bytes = ftf_ck.to_bytes();
    let pif_ck = pif_truncated(t);
    let pif_bytes = pif_ck.as_ref().map(|ck| ck.to_bytes());

    // Stage 1: every strict byte prefix must fail typed.
    for len in 0..ftf_bytes.len() {
        report.prefix_parses += 1;
        match parse(&ftf_bytes[..len], FtfCheckpoint::from_bytes) {
            Err(panic) => violation(
                report,
                "prefix",
                format!("ftf prefix {len}: panic: {panic}"),
            ),
            Ok(Ok(_)) => violation(report, "prefix", format!("ftf prefix {len}: parsed")),
            Ok(Err(_)) => {}
        }
    }
    if let Some(bytes) = &pif_bytes {
        for len in 0..bytes.len() {
            report.prefix_parses += 1;
            match parse(&bytes[..len], PifCheckpoint::from_bytes) {
                Err(panic) => violation(
                    report,
                    "prefix",
                    format!("pif prefix {len}: panic: {panic}"),
                ),
                Ok(Ok(_)) => violation(report, "prefix", format!("pif prefix {len}: parsed")),
                Ok(Err(_)) => {}
            }
        }
    }

    // Stage 2: sampled single-bit flips — typed error, or (checksum
    // collision) a resume that still reaches the reference result.
    for flip in 0..options.bit_flips {
        report.bit_flip_parses += 1;
        let pos = (derive_seed(seed, 0xB17 + flip as u64) % (ftf_bytes.len() as u64 * 8)) as usize;
        let mut mutated = ftf_bytes.clone();
        mutated[pos / 8] ^= 1 << (pos % 8);
        match parse(&mutated, FtfCheckpoint::from_bytes) {
            Err(panic) => violation(report, "bit-flip", format!("bit {pos}: panic: {panic}")),
            Ok(Err(_)) => {}
            Ok(Ok(ck)) => {
                let resumed = ftf_complete(t, 1, Some(&ck));
                if resumed != reference {
                    violation(
                        report,
                        "bit-flip",
                        format!(
                            "bit {pos}: parsed and silently diverged \
                             ({resumed:?} vs reference {reference:?})"
                        ),
                    );
                }
            }
        }
    }

    // Stage 3: resuming the genuine checkpoints at every jobs level
    // reproduces the reference bit-for-bit.
    for &jobs in &options.jobs {
        report.resume_checks += 1;
        let resumed = ftf_complete(t, jobs, Some(&ftf_ck));
        if resumed != reference {
            violation(
                report,
                "resume",
                format!("ftf jobs={jobs}: {resumed:?} vs reference {reference:?}"),
            );
        }
        if let Some(ck) = &pif_ck {
            let resumed = pif_decide(t, jobs, Some(ck));
            if resumed != pif_reference {
                violation(
                    report,
                    "resume",
                    format!("pif jobs={jobs}: {resumed:?} vs reference {pif_reference:?}"),
                );
            }
        }
    }

    // Stage 4: a simulated crash on every write attempt must error out
    // while the previous target survives byte-identical, tmp-free.
    report.crash_sims += 1;
    let path = options.scratch_dir.join(format!("crash-{i}.mcpk"));
    if let Err(e) = ftf_ck.save(&path) {
        violation(report, "crash-sim", format!("unarmed save failed: {e}"));
    } else {
        let before = std::fs::read(&path).unwrap_or_default();
        {
            let _guard = arm_scoped(FaultPlan::write_crash(derive_seed(seed, 0xC4A5)));
            if ftf_ck.save(&path).is_ok() {
                violation(
                    report,
                    "crash-sim",
                    "save succeeded under write_crash".into(),
                );
            }
        }
        let after = std::fs::read(&path).unwrap_or_default();
        if after != before {
            violation(
                report,
                "crash-sim",
                "target file was torn by a crashed save".into(),
            );
        }
        if mcp_chaos::io::temp_sibling(&path).exists() {
            violation(report, "crash-sim", "temp sibling left behind".into());
        }
        std::fs::remove_file(&path).ok();
    }

    // Stage 5: the full faulted chain — truncate, save, load, resume —
    // under the bounded plan, at every jobs level.
    let mut chain_plan = plan;
    chain_plan.seed = derive_seed(plan.seed, i as u64);
    let path = options.scratch_dir.join(format!("chain-{i}.mcpk"));
    let _guard = arm_scoped(chain_plan);
    for &jobs in &options.jobs {
        report.faulted_chains += 1;
        let ck = ftf_truncated(t, jobs);
        let resume = match ck.save(&path) {
            Err(e) => {
                violation(
                    report,
                    "faulted-chain",
                    format!("jobs={jobs}: bounded-plan save failed: {e}"),
                );
                None
            }
            Ok(()) => match FtfCheckpoint::load(&path) {
                Ok(loaded) => {
                    if loaded != ck {
                        violation(
                            report,
                            "faulted-chain",
                            format!("jobs={jobs}: load silently diverged from the saved snapshot"),
                        );
                    }
                    Some(loaded)
                }
                // Injected read corruption: the checksum catches it and
                // the recovery policy restarts from scratch.
                Err(CheckpointError::Corrupt(_)) => None,
                Err(e) => {
                    violation(
                        report,
                        "faulted-chain",
                        format!("jobs={jobs}: unexpected load error class: {e}"),
                    );
                    None
                }
            },
        };
        // The solver itself runs under the armed plan too: its internal
        // retry budget must clear injected task faults.
        let finished = retry_complete(t, jobs, resume.as_ref());
        if finished != reference {
            violation(
                report,
                "faulted-chain",
                format!("jobs={jobs}: {finished:?} vs reference {reference:?}"),
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

/// Complete an FTF run under an armed plan, retrying whole-run injected
/// panics (the solver's own parallel sections do not retry internally).
fn retry_complete(t: &Torture, jobs: usize, resume: Option<&FtfCheckpoint>) -> (u64, usize) {
    for _ in 0..FUZZ_CHAOS_ATTEMPTS {
        match catch_unwind(AssertUnwindSafe(|| ftf_complete(t, jobs, resume))) {
            Ok(result) => return result,
            Err(_) => continue,
        }
    }
    // Surface a deterministic sentinel the caller reports as a violation.
    (u64::MAX, usize::MAX)
}
