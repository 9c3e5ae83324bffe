//! Differential proof of the batch engine: every cell's `SimResult` —
//! fault counts, hit counts, fault times, makespan — must be bit-identical
//! to a fresh per-run `Simulator` on the same instance, for every family,
//! on disjoint and shared (fetch-colliding) workloads, at every worker
//! count.

use mcp_batch::{run_cell_reference, run_cells, CellSpec};
use mcp_core::Workload;
use mcp_workloads::{
    bursty, drifting_phases, phased, shared_hotset, staggered_thrash, uniform, zipf, zipf_shared,
};
use proptest::prelude::*;

const DENSE: &[&str] = &["lru", "fifo", "clock", "lfu", "mru", "fwf"];

/// A workload mix that exercises hits, capacity evictions, shared-fetch
/// misses, pinning collisions, and finished-core staggering.
fn workload_table() -> Vec<Workload> {
    vec![
        uniform(3, 60, 12, 1),
        zipf(2, 80, 16, 0.9, 2),
        phased(3, 90, 6, 11, 3),
        zipf_shared(3, 80, 10, 0.9, 4),
        drifting_phases(2, 70, 64, 8, 9, 5),
        shared_hotset(3, 60, 8, 4, 0.5, 6),
        staggered_thrash(4, 50, 8, 3, 7),
        bursty(2, 60, 4, 6, 8),
        // Deliberate total collision: both cores request the same pages in
        // lockstep, so with τ > 0 every other request is a shared-fetch
        // miss on a mid-flight cell.
        Workload::from_u32([vec![1, 2, 3, 1, 2, 3], vec![1, 2, 3, 1, 2, 3]]).unwrap(),
        // One finished-immediately core (empty sequence) next to a live one.
        Workload::from_u32([vec![], vec![5, 6, 5, 7, 5, 6]]).unwrap(),
    ]
}

fn grid(workloads: &[Workload]) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for (wi, w) in workloads.iter().enumerate() {
        let p = w.num_cores();
        for family in DENSE {
            for k in [p.max(2), p + 3, 2 * p + 5] {
                for tau in [0u64, 1, 3, 16] {
                    cells.push(CellSpec {
                        workload: wi,
                        family: family.to_string(),
                        cache_size: k,
                        tau,
                        seed: 0xBA7C4 ^ wi as u64,
                        capacity: None,
                    });
                }
            }
        }
    }
    cells
}

#[test]
fn dense_families_match_per_run_simulator_exactly() {
    let workloads = workload_table();
    let cells = grid(&workloads);
    let batch = run_cells(&workloads, &cells);
    assert!(batch.len() == cells.len());
    for (cell, got) in cells.iter().zip(&batch) {
        let want = run_cell_reference(&workloads, cell);
        assert_eq!(
            got, &want,
            "batch vs per-run mismatch: family={} workload={} K={} tau={}",
            cell.family, cell.workload, cell.cache_size, cell.tau
        );
    }
}

#[test]
fn fallback_families_match_per_run_simulator() {
    // Non-dense families take the generic path; spot-check that the
    // plumbing (registry, seeds, applicability) is faithful, including an
    // inapplicable pair and an unknown family.
    let workloads = workload_table();
    let mut cells = Vec::new();
    for family in [
        "lru2",
        "rand",
        "mark",
        "mark-rand",
        "partition",
        "sacrifice",
    ] {
        for wi in [0usize, 3] {
            let p = workloads[wi].num_cores();
            cells.push(CellSpec {
                workload: wi,
                family: family.to_string(),
                cache_size: p + 2,
                tau: 2,
                seed: 99,
                capacity: None,
            });
        }
    }
    cells.push(CellSpec {
        workload: 0,
        family: "no-such-family".into(),
        cache_size: 4,
        tau: 0,
        seed: 0,
        capacity: None,
    });
    let batch = run_cells(&workloads, &cells);
    for (cell, got) in cells.iter().zip(&batch) {
        let want = run_cell_reference(&workloads, cell);
        assert_eq!(
            got, &want,
            "family={} workload={}",
            cell.family, cell.workload
        );
    }
    // The shared-universe workload (index 3) rejects `sacrifice`, and the
    // unknown family errors — as typed errors, not panics.
    assert!(batch.iter().filter(|r| r.is_err()).count() == 2);
}

#[test]
fn results_are_bit_identical_at_every_jobs_level() {
    let workloads = workload_table();
    let cells = grid(&workloads);
    let mut baseline = None;
    for jobs in [1usize, 2, 4] {
        mcp_exec::set_jobs(Some(jobs));
        assert_eq!(mcp_exec::resolved_jobs(), jobs);
        let got = run_cells(&workloads, &cells);
        match &baseline {
            None => baseline = Some(got),
            Some(want) => assert_eq!(&got, want, "jobs={jobs} diverged from jobs=1"),
        }
    }
    mcp_exec::set_jobs(None);
}

#[test]
fn scratch_reuse_across_batches_is_invisible() {
    // Run the same grid twice through the same process (same thread-local
    // arenas, epochs advanced) and a permuted variant in between: reused
    // arenas must not leak state between cells or batches.
    let workloads = workload_table();
    let cells = grid(&workloads);
    mcp_exec::set_jobs(Some(1)); // everything through one worker's arenas
    let first = run_cells(&workloads, &cells);
    let mut reversed = cells.clone();
    reversed.reverse();
    let _ = run_cells(&workloads, &reversed);
    let second = run_cells(&workloads, &cells);
    mcp_exec::set_jobs(None);
    assert_eq!(first, second);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random (possibly overlapping) workloads, random K ≥ p and τ: all
    /// six dense families agree with the per-run simulator.
    #[test]
    fn dense_engine_matches_on_random_instances(
        seqs in prop::collection::vec(prop::collection::vec(0u32..12, 0..40), 1..4),
        extra_k in 0usize..6,
        tau in 0u64..8,
    ) {
        let w = Workload::from_u32(seqs).unwrap();
        let p = w.num_cores();
        let workloads = [w];
        for family in DENSE {
            let cell = CellSpec {
                workload: 0,
                family: family.to_string(),
                cache_size: p + extra_k,
                tau,
                seed: 7,
                capacity: None,
            };
            let got = run_cells(&workloads, std::slice::from_ref(&cell));
            let want = run_cell_reference(&workloads, &cell);
            prop_assert_eq!(&got[0], &want, "family={}", family);
        }
    }
}
