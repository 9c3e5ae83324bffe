//! # mcp-exec — the deterministic parallel execution layer
//!
//! Every compute surface in this workspace — the `repro` experiment
//! fleet, per-experiment parameter sweeps, the offline DP layer
//! expansions, the CLI strategy matrix — is embarrassingly parallel, and
//! all of it must stay **bit-identical** across thread counts so that
//! reproduction outputs and `engine_fingerprint` checksums never depend
//! on the machine. This crate provides that contract:
//!
//! * [`Pool::par_map`] fans a slice out over scoped worker threads with
//!   **chunked work-stealing** (workers claim index ranges from a shared
//!   atomic cursor) and returns results **in input order**, whatever the
//!   interleaving was.
//! * [`Pool::par_try_map`] is the fault-contained variant: a panicking
//!   task becomes a per-item [`TaskPanic`] error in its slot while the
//!   rest of the batch completes — one bad experiment cannot abort a
//!   sweep.
//! * [`derive_seed`] gives task `i` of a master-seeded batch its own
//!   statistically independent seed as a pure function of
//!   `(master, index)`, so randomized tasks produce the same stream no
//!   matter which worker runs them.
//! * The pool size resolves from, in priority order: an explicit
//!   [`Pool::new`], the calling thread's [`set_jobs`] (the `--jobs` flag
//!   of the binaries), the `MCP_JOBS` environment variable, and finally
//!   [`std::thread::available_parallelism`].
//!
//! Ambient configuration — the [`set_jobs`] override and the
//! `mcp_chaos` fault plan — belongs to the thread that sets it, and
//! pool workers inherit their caller's. Concurrent callers (tests
//! running side by side) never see each other's settings.
//!
//! Nesting rule: a `par_map` issued from *inside* a pool worker runs
//! sequentially on that worker (depth-1 parallelism). The top-level
//! fan-out already owns every core; nested fan-outs would only
//! oversubscribe the machine, and the sequential fallback is
//! result-identical by construction.

#![warn(missing_docs)]

use std::any::Any;
use std::cell::Cell;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// A task that panicked inside a [`Pool::par_try_map`] batch: the panic
/// was contained to its item instead of aborting the whole fan-out.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskPanic {
    /// Input index of the task that panicked.
    pub index: usize,
    /// The panic payload rendered as text (`&str`/`String` payloads are
    /// carried verbatim).
    pub message: String,
}

impl fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for TaskPanic {}

/// A task that kept panicking through every retry round of
/// [`Pool::par_try_map_retry`] and was quarantined: its slot carries the
/// last panic while the rest of the batch completed normally.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Quarantined {
    /// Input index of the quarantined task.
    pub index: usize,
    /// How many attempts it was given (all panicked).
    pub attempts: u32,
    /// The panic from the final attempt.
    pub last: TaskPanic,
}

impl fmt::Display for Quarantined {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "task {} quarantined after {} attempts: {}",
            self.index, self.attempts, self.last.message
        )
    }
}

impl std::error::Error for Quarantined {}

/// Render a caught panic payload as text.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

thread_local! {
    /// Whether the current thread is a pool worker (depth-1 guard).
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
    /// This thread's jobs override, set by [`set_jobs`]; pool workers
    /// inherit their caller's.
    static JOBS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Set the calling thread's worker count used by [`Pool::global`] (the
/// `--jobs N` flag, set on `main`). Pool workers inherit it; other
/// threads do not see it. `None` clears the override back to the
/// `MCP_JOBS`-or-hardware default.
pub fn set_jobs(jobs: Option<usize>) {
    JOBS.with(|j| j.set(jobs));
}

/// Resolve the effective worker count: [`set_jobs`] override, then the
/// `MCP_JOBS` environment variable, then the hardware parallelism.
/// Always at least 1.
pub fn resolved_jobs() -> usize {
    if let Some(explicit) = JOBS.with(Cell::get) {
        return explicit.max(1);
    }
    if let Ok(v) = std::env::var("MCP_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Derive the seed for task `index` of a batch with the given master
/// seed: `splitmix64(master ⊕ golden·(index+1))`. A pure function, so a
/// task's random stream is fixed by its *position*, not by the worker or
/// the order in which it ran.
pub fn derive_seed(master: u64, index: u64) -> u64 {
    let mut z = master ^ (index.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A worker pool of a fixed size. Creating a `Pool` is free — threads
/// are scoped to each [`Pool::par_map`] call, so a `Pool` is just the
/// parallelism decision, not a resource.
#[derive(Clone, Copy, Debug)]
pub struct Pool {
    jobs: usize,
}

impl Pool {
    /// A pool of exactly `jobs` workers (clamped to at least 1).
    pub fn new(jobs: usize) -> Self {
        Pool { jobs: jobs.max(1) }
    }

    /// The pool configured for this thread (see [`resolved_jobs`]).
    pub fn global() -> Self {
        Pool::new(resolved_jobs())
    }

    /// The worker count this pool was built with.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Map `f` over `items` in parallel, returning results in input
    /// order. `f` receives `(index, &item)`. Bit-identical to the
    /// sequential `items.iter().enumerate().map(..)` for every pool
    /// size; panics in `f` propagate to the caller.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.par_map_emit(items, f, |_, _| {})
    }

    /// Like [`Pool::par_map`], with a streaming sink: `emit(index, &result)`
    /// is called on the **caller's thread, in input order**, as each
    /// ordered prefix of results completes. This is how `repro` prints
    /// finished experiment reports in ID order while later experiments
    /// are still running.
    pub fn par_map_emit<T, R, F, E>(&self, items: &[T], f: F, mut emit: E) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
        E: FnMut(usize, &R),
    {
        let n = items.len();
        let workers = self.jobs.min(n);
        let nested = IN_WORKER.with(Cell::get);
        if workers <= 1 || nested {
            // Sequential reference semantics (also the nested fallback).
            let mut out = Vec::with_capacity(n);
            for (i, item) in items.iter().enumerate() {
                let r = f(i, item);
                emit(i, &r);
                out.push(r);
            }
            return out;
        }

        // Chunked work-stealing: workers claim `chunk`-sized index
        // ranges from a shared cursor. The chunk size splits the input
        // into ~4 claims per worker so late stragglers rebalance, while
        // keeping cursor traffic negligible.
        let cursor = AtomicUsize::new(0);
        let chunk = (n / (workers * 4)).max(1);
        let (tx, rx) = mpsc::channel::<(usize, R)>();

        let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        // Workers run under the caller's ambient configuration.
        let plan = mcp_chaos::current_plan();
        let jobs = JOBS.with(Cell::get);
        let panic = std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let cursor = &cursor;
                let f = &f;
                scope.spawn(move || {
                    IN_WORKER.with(|w| w.set(true));
                    JOBS.with(|j| j.set(jobs));
                    let _chaos = plan.map(mcp_chaos::arm_scoped);
                    // On panic the sender drops, the receive loop below
                    // comes up short, and join propagates the payload.
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        let end = (start + chunk).min(n);
                        for (i, item) in items[start..end].iter().enumerate() {
                            let i = start + i;
                            if tx.send((i, f(i, item))).is_err() {
                                return;
                            }
                        }
                    }
                });
            }
            drop(tx);

            // Receive out-of-order completions; emit the ordered prefix.
            let mut next_emit = 0usize;
            let mut received = 0usize;
            while received < n {
                match rx.recv() {
                    Ok((i, r)) => {
                        slots[i] = Some(r);
                        received += 1;
                        while next_emit < n {
                            match &slots[next_emit] {
                                Some(r) => {
                                    // A panicking `emit` must not abort via
                                    // double-panic while workers unwind.
                                    if let Err(p) =
                                        catch_unwind(AssertUnwindSafe(|| emit(next_emit, r)))
                                    {
                                        drop(rx);
                                        return Some(p);
                                    }
                                    next_emit += 1;
                                }
                                None => break,
                            }
                        }
                    }
                    // Every sender dropped with results missing: a
                    // worker panicked. Joining (at scope exit) resumes
                    // that panic; no payload of our own to carry.
                    Err(mpsc::RecvError) => return None,
                }
            }
            None
        });
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|r| r.expect("all results received"))
            .collect()
    }

    /// Fault-contained [`Pool::par_map`]: each task runs under
    /// `catch_unwind`, so a panicking task becomes `Err(TaskPanic)` in
    /// its own slot while every other task still completes and returns
    /// in input order. Use this when one bad item must not abort the
    /// batch (e.g. the `repro` experiment fleet).
    pub fn par_try_map<T, R, F>(&self, items: &[T], f: F) -> Vec<Result<R, TaskPanic>>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.par_try_map_emit(items, f, |_, _| {})
    }

    /// [`Pool::par_try_map`] with the ordered streaming sink of
    /// [`Pool::par_map_emit`]: `emit` observes each slot — `Ok` result
    /// or contained panic — on the caller's thread, in input order.
    ///
    /// The default panic hook still runs for contained panics (so the
    /// message also appears on stderr); install a quieter hook if that
    /// is unwanted.
    pub fn par_try_map_emit<T, R, F, E>(
        &self,
        items: &[T],
        f: F,
        emit: E,
    ) -> Vec<Result<R, TaskPanic>>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
        E: FnMut(usize, &Result<R, TaskPanic>),
    {
        self.par_map_emit(
            items,
            |i, item| {
                catch_unwind(AssertUnwindSafe(|| f(i, item))).map_err(|payload| TaskPanic {
                    index: i,
                    message: panic_message(payload.as_ref()),
                })
            },
            emit,
        )
    }

    /// [`Pool::par_try_map`] with bounded retry and quarantine: a
    /// panicking task is re-run (in input order, after the batch) up to
    /// `max_attempts` times total; a task that panics on every attempt is
    /// quarantined — `Err(Quarantined)` in its own slot — while the rest
    /// of the batch completes.
    ///
    /// Every attempt first probes the [`mcp_chaos`] task injection site
    /// `(site, index, attempt)`, so an armed fault plan can inject panics
    /// and stalls here. Decisions are keyed on those logical coordinates
    /// (never threads or time) and injected faults clear after the plan's
    /// `max_consecutive` attempts, so as long as `max_attempts` exceeds
    /// that bound the result is identical at every worker count, faults
    /// or not — only a genuinely deterministic failure is quarantined.
    pub fn par_try_map_retry<T, R, F>(
        &self,
        site: &str,
        max_attempts: u32,
        items: &[T],
        f: F,
    ) -> Vec<Result<R, Quarantined>>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.par_try_map_retry_emit(site, max_attempts, items, f, |_, _| {})
    }

    /// [`Pool::par_try_map_retry`] with an ordered streaming sink.
    ///
    /// `emit` observes every slot exactly once, in input order, on the
    /// caller's thread. While the first round is running, final `Ok`
    /// slots stream as they complete; emission stalls at the first
    /// failed slot (its fate is unknown until the retry rounds resolve
    /// it) and the tail is flushed once every slot is final.
    pub fn par_try_map_retry_emit<T, R, F, E>(
        &self,
        site: &str,
        max_attempts: u32,
        items: &[T],
        f: F,
        mut emit: E,
    ) -> Vec<Result<R, Quarantined>>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
        E: FnMut(usize, Result<&R, &Quarantined>),
    {
        let max_attempts = max_attempts.max(1);
        let n = items.len();
        let mut slots: Vec<Option<Result<R, Quarantined>>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        let mut emitted = 0usize;
        let mut stalled = false;
        let round0 = self.par_try_map_emit(
            items,
            |i, item| {
                mcp_chaos::task_point(site, i as u64, 0);
                f(i, item)
            },
            |i, slot| match slot {
                Ok(r) if !stalled => {
                    emit(i, Ok(r));
                    emitted = i + 1;
                }
                _ => stalled = true,
            },
        );
        let mut pending: Vec<usize> = Vec::new();
        for (i, slot) in round0.into_iter().enumerate() {
            match slot {
                Ok(r) => slots[i] = Some(Ok(r)),
                Err(p) if max_attempts == 1 => {
                    slots[i] = Some(Err(Quarantined {
                        index: i,
                        attempts: 1,
                        last: p,
                    }))
                }
                Err(_) => pending.push(i),
            }
        }
        for attempt in 1..max_attempts {
            if pending.is_empty() {
                break;
            }
            let round = self.par_try_map(&pending, |_, &orig| {
                mcp_chaos::task_point(site, orig as u64, attempt);
                f(orig, &items[orig])
            });
            let mut still = Vec::new();
            for (slot, &orig) in round.into_iter().zip(&pending) {
                match slot {
                    Ok(r) => slots[orig] = Some(Ok(r)),
                    Err(p) if attempt + 1 == max_attempts => {
                        slots[orig] = Some(Err(Quarantined {
                            index: orig,
                            attempts: max_attempts,
                            last: TaskPanic {
                                index: orig,
                                message: p.message,
                            },
                        }))
                    }
                    Err(_) => still.push(orig),
                }
            }
            pending = still;
        }
        let out: Vec<Result<R, Quarantined>> = slots
            .into_iter()
            .map(|s| s.expect("every slot resolved"))
            .collect();
        for (i, slot) in out.iter().enumerate().skip(emitted) {
            emit(i, slot.as_ref());
        }
        out
    }

    /// Map a seeded batch: task `i` runs `f(derive_seed(master, i), i,
    /// &items[i])`. The standard shape for randomized sweeps — the
    /// random stream of each task depends only on `(master, i)`.
    pub fn par_map_seeded<T, R, F>(&self, master: u64, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(u64, usize, &T) -> R + Sync,
    {
        self.par_map(items, |i, item| f(derive_seed(master, i as u64), i, item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        for jobs in 1..=8 {
            let items: Vec<usize> = (0..97).collect();
            let got = Pool::new(jobs).par_map(&items, |i, &x| {
                assert_eq!(i, x);
                x * 3 + 1
            });
            let want: Vec<usize> = items.iter().map(|&x| x * 3 + 1).collect();
            assert_eq!(got, want, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let pool = Pool::new(4);
        assert_eq!(pool.par_map(&[] as &[u32], |_, &x| x), Vec::<u32>::new());
        assert_eq!(pool.par_map(&[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn uneven_chunks_cover_every_index() {
        // n deliberately not divisible by workers * 4.
        let items: Vec<usize> = (0..101).collect();
        let got = Pool::new(3).par_map(&items, |_, &x| x);
        assert_eq!(got, items);
    }

    #[test]
    fn emit_runs_in_input_order_on_caller_thread() {
        let caller = std::thread::current().id();
        let items: Vec<usize> = (0..64).collect();
        let mut emitted = Vec::new();
        Pool::new(4).par_map_emit(
            &items,
            |_, &x| x,
            |i, &r| {
                assert_eq!(std::thread::current().id(), caller);
                assert_eq!(i, r);
                emitted.push(i);
            },
        );
        assert_eq!(emitted, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn nested_par_map_degrades_to_sequential() {
        let outer: Vec<usize> = (0..8).collect();
        let got = Pool::new(4).par_map(&outer, |_, &x| {
            // Inside a worker: must still be correct (and sequential).
            let inner: Vec<usize> = (0..5).collect();
            Pool::new(4)
                .par_map(&inner, |_, &y| x * 10 + y)
                .iter()
                .sum::<usize>()
        });
        let want: Vec<usize> = outer.iter().map(|&x| 5 * x * 10 + 10).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<usize> = (0..32).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            Pool::new(4).par_map(&items, |_, &x| {
                if x == 13 {
                    panic!("task 13 failed");
                }
                x
            })
        }));
        assert!(result.is_err());
    }

    #[test]
    fn par_try_map_contains_panics_at_every_pool_size() {
        let items: Vec<usize> = (0..33).collect();
        let poison = [0usize, 7, 13, 14, 32]; // ends, middle, adjacent pair
        for jobs in 1..=8 {
            let got = Pool::new(jobs).par_try_map(&items, |_, &x| {
                if poison.contains(&x) {
                    panic!("boom {x}");
                }
                x * 2
            });
            assert_eq!(got.len(), items.len(), "jobs={jobs}: no slot lost");
            for (i, slot) in got.iter().enumerate() {
                if poison.contains(&i) {
                    let err = slot.as_ref().unwrap_err();
                    assert_eq!(err.index, i, "jobs={jobs}");
                    assert_eq!(err.message, format!("boom {i}"), "jobs={jobs}");
                } else {
                    assert_eq!(slot.as_ref().unwrap(), &(i * 2), "jobs={jobs}");
                }
            }
        }
    }

    #[test]
    fn par_try_map_emit_streams_failures_in_order() {
        let items: Vec<usize> = (0..24).collect();
        let mut seen = Vec::new();
        let got = Pool::new(4).par_try_map_emit(
            &items,
            |_, &x| {
                if x == 5 {
                    panic!("five");
                }
                x
            },
            |i, slot| seen.push((i, slot.is_ok())),
        );
        assert_eq!(seen.len(), 24);
        assert!(seen.iter().enumerate().all(|(i, &(j, _))| i == j));
        assert!(!seen[5].1 && seen[4].1 && seen[6].1);
        assert_eq!(got[5].as_ref().unwrap_err().message, "five");
    }

    #[test]
    fn par_try_map_all_tasks_panicking_still_returns() {
        let items: Vec<usize> = (0..9).collect();
        for jobs in [1usize, 3, 8] {
            let got = Pool::new(jobs).par_try_map(&items, |_, &x| -> usize { panic!("p{x}") });
            assert!(got.iter().all(|r| r.is_err()), "jobs={jobs}");
        }
    }

    #[test]
    fn non_string_panic_payload_is_described() {
        let got = Pool::new(2).par_try_map(&[1u32], |_, _| -> u32 {
            std::panic::panic_any(42i32);
        });
        assert_eq!(
            got[0].as_ref().unwrap_err().message,
            "<non-string panic payload>"
        );
    }

    #[test]
    fn derive_seed_is_pure_and_spreads() {
        assert_eq!(derive_seed(42, 7), derive_seed(42, 7));
        let seeds: std::collections::HashSet<u64> = (0..1000).map(|i| derive_seed(42, i)).collect();
        assert_eq!(seeds.len(), 1000, "seed collisions within one batch");
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    }

    #[test]
    fn par_map_seeded_matches_sequential_derivation() {
        let items: Vec<u32> = (0..40).collect();
        for jobs in [1usize, 3, 8] {
            let got =
                Pool::new(jobs).par_map_seeded(99, &items, |seed, i, &x| (seed, i as u32 + x));
            for (i, &(seed, v)) in got.iter().enumerate() {
                assert_eq!(seed, derive_seed(99, i as u64));
                assert_eq!(v, 2 * i as u32);
            }
        }
    }

    #[test]
    fn workers_draw_exactly_the_callers_task_faults() {
        let plan = mcp_chaos::FaultPlan {
            task_per_mille: 500,
            ..mcp_chaos::FaultPlan::seeded(0xC0DE)
        };
        let items: Vec<u64> = (0..64).collect();
        let draw = |jobs: usize| {
            Pool::new(jobs).par_map(&items, |_, &i| mcp_chaos::task_fault("test.inherit", i, 0))
        };
        let _guard = mcp_chaos::arm_scoped(plan);
        let want = draw(1);
        assert!(
            want.iter().any(Option::is_some),
            "the plan must fire somewhere"
        );
        for jobs in [2, 4] {
            assert_eq!(draw(jobs), want, "jobs={jobs}");
        }
        std::thread::scope(|s| {
            let unarmed = s.spawn(|| draw(4)).join().unwrap();
            assert!(unarmed.iter().all(Option::is_none), "{unarmed:?}");
        });
    }

    #[test]
    fn set_jobs_is_scoped_to_the_calling_thread() {
        let before = resolved_jobs();
        let elsewhere = std::thread::spawn(resolved_jobs).join().unwrap();
        set_jobs(Some(before + 7));
        assert_eq!(resolved_jobs(), before + 7);
        assert_eq!(std::thread::spawn(resolved_jobs).join().unwrap(), elsewhere);
        let in_workers = Pool::new(2).par_map(&[0u8; 4], |_, _| resolved_jobs());
        assert_eq!(
            in_workers,
            vec![before + 7; 4],
            "workers inherit the override"
        );
        set_jobs(None);
        assert_eq!(resolved_jobs(), before);
    }

    #[test]
    fn jobs_resolution_clamps_to_one() {
        assert_eq!(Pool::new(0).jobs(), 1);
        assert!(resolved_jobs() >= 1);
    }
}
