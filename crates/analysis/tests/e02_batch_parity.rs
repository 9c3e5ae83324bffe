//! Satellite gate: E02 ported to the batch engine must produce a JSON
//! report byte-equal to the per-run path, at every worker count.

use mcp_analysis::experiments::e02_lemma1_upper::{E02Engine, E02};
use mcp_analysis::Scale;

#[test]
fn batch_and_per_run_reports_are_byte_equal_at_every_jobs_level() {
    let reference = E02::run_with(Scale::Quick, E02Engine::PerRun).to_json();
    for jobs in [1usize, 2, 4] {
        mcp_exec::set_jobs(Some(jobs));
        assert_eq!(mcp_exec::resolved_jobs(), jobs);
        let per_run = E02::run_with(Scale::Quick, E02Engine::PerRun).to_json();
        let batch = E02::run_with(Scale::Quick, E02Engine::Batch).to_json();
        assert_eq!(per_run, reference, "per-run path drifted at jobs={jobs}");
        assert_eq!(batch, reference, "batch path differs at jobs={jobs}");
    }
    mcp_exec::set_jobs(None);
}
