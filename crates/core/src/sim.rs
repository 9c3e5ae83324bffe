//! The discrete-event simulation engine.
//!
//! Semantics (Section 3 of the paper, pinned down):
//!
//! * Time is discrete; core `j`'s first request issues at `t = 1`.
//! * All cores whose next request is due at `t` are served at `t`, in
//!   increasing core order (the fixed logical order); a request served
//!   later within the timestep observes the cache effects of earlier ones.
//! * A **hit** completes at `t`; the core's next request issues at `t + 1`.
//! * A **miss** evicts a victim immediately, reserves the cell for the
//!   fetch (unusable and unevictable until done), completes at `t + τ`,
//!   and the core's next request issues at `t + τ + 1`. Thus a miss delays
//!   all remaining requests of that core by the additive term `τ`.
//! * A request for a page that is mid-fetch for *another* core (possible
//!   only for non-disjoint workloads) counts as a fault for the requesting
//!   core and delays it by `τ`, but allocates no second cell.
//! * All pages requested in a parallel step are read in parallel, so none
//!   of them may be evicted during that step (they are *pinned*). This
//!   mirrors the `R(x) ⊆ C'` constraint of the paper's Algorithms 1 and 2
//!   and makes DP optima exactly achievable by the engine. Pins are placed
//!   before the strategy's voluntary evictions run, so a voluntary
//!   eviction of a currently requested page is rejected too.
//! * Strategies cannot delay or reorder requests.
//! * The engine fast-forwards over timesteps at which no request is due,
//!   except those a strategy declares via
//!   [`crate::CacheStrategy::next_voluntary_time`]: the paper's model
//!   permits voluntary evictions at any timestep, including ones where
//!   every core is mid-fetch.
//!
//! # The event engine
//!
//! [`Simulator`] realizes these semantics as a discrete-event scheduler
//! rather than a per-step core scan (DESIGN §11). Wake-ups live in
//! min-queues keyed by `(next_time, component_id)`:
//!
//! * **request-issue events** — exactly one live entry per core with an
//!   unserved request, keyed by the core's clock (the time its next
//!   request issues);
//! * **fetch-completion events** — drained at the start of each served
//!   step so every fetch due by `t` reads as `Present` before pins,
//!   voluntary evictions, and service (exactly the old lazy
//!   `promote_due`). A fetch completes exactly when its core's next
//!   request issues, so when that request is already in the log the
//!   completion rides the core's own issue wake-up (`pending_promote`);
//!   only fetches started by a core's last logged request get their own
//!   heap entry;
//! * **strategy-declared voluntary times** — consulted from
//!   [`crate::CacheStrategy::next_voluntary_time`] before each step (the
//!   declaration may move after every step, so it is re-read rather than
//!   queued; the boundary contract is documented on the trait method).
//!
//! Popping `(time, core)` pairs from a min-heap yields, for a given
//! timestep, exactly the due cores in increasing core order — the model's
//! fixed logical order — so within-step semantics (promote due fetches,
//! then pins, then voluntary evictions, then service in core order with
//! shared-fetch-miss charging) are preserved *by construction*, and the
//! engine is bit-identical to the scan-based [`crate::TickSimulator`] and
//! the oracle crate's naive tick-by-tick reference. Cost is
//! `O(events · log p)` instead of `O(steps · p)` — on sparse or large-τ
//! workloads, where most timesteps are idle and served steps touch one
//! core, that is the difference between `O(n·p)` and `O(n·log p)` total.
//!
//! [`Simulator`] and [`crate::online::OnlineSimulator`] share this one
//! step loop (a crate-private core stepping over a borrowed request log
//! under a commit horizon), so offline and served runs cannot drift.

use crate::cache::{Cache, CacheError, Lookup};
use crate::capacity::CapacitySchedule;
use crate::strategy::CacheStrategy;
use crate::types::{ModelError, PageId, SimConfig, Time, Workload};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Pack a `(time, component_id)` wake-up into one `u128` heap key:
/// time in the high 96 bits, id in the low 32. Integer order on the
/// packed key is exactly lexicographic `(time, id)` order, so a min-heap
/// of packed keys pops wake-ups time-ascending and, within a timestep,
/// id-ascending — while comparisons and sift moves touch a single
/// scalar instead of a two-field tuple.
#[inline]
fn pack(time: Time, id: u32) -> u128 {
    ((time as u128) << 32) | id as u128
}

/// The `time` half of a packed wake-up key.
#[inline]
fn key_time(key: u128) -> Time {
    (key >> 32) as Time
}

/// The `component_id` half of a packed wake-up key.
#[inline]
fn key_id(key: u128) -> u32 {
    key as u32
}

/// Errors surfaced by a simulation run.
#[derive(Clone, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum SimError {
    /// The workload/config combination is malformed.
    Model(ModelError),
    /// The strategy performed an illegal cache manipulation.
    Cache(CacheError),
    /// The strategy asked to voluntarily evict a cell that is not `Present`.
    BadVoluntaryEviction { cell: usize },
    /// The strategy's [`CacheStrategy::shrink_victims`] named a cell that
    /// is not `Present` (capacity-schedule runs only).
    BadShrinkEviction { cell: usize },
}

impl From<ModelError> for SimError {
    fn from(e: ModelError) -> Self {
        SimError::Model(e)
    }
}

impl From<CacheError> for SimError {
    fn from(e: CacheError) -> Self {
        SimError::Cache(e)
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Model(e) => write!(f, "model error: {e}"),
            SimError::Cache(e) => write!(f, "cache error: {e}"),
            SimError::BadVoluntaryEviction { cell } => {
                write!(f, "voluntary eviction of non-present cell {cell}")
            }
            SimError::BadShrinkEviction { cell } => {
                write!(f, "capacity-shrink eviction of non-present cell {cell}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// How a single request was served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum Outcome {
    /// Resident page: served from cache.
    Hit,
    /// Absent page: fetch started into `cell`, possibly after evicting
    /// `evicted` from it.
    Fault {
        cell: usize,
        evicted: Option<PageId>,
    },
    /// Page was mid-fetch for another core: fault, but no cell consumed.
    SharedFetchMiss,
}

/// One served request, for step-wise inspection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Served {
    /// Core that issued the request.
    pub core: usize,
    /// Index of the request within the core's sequence (0-based).
    pub index: usize,
    /// The requested page.
    pub page: PageId,
    /// How it was served.
    pub outcome: Outcome,
}

/// Everything that happened in one simulated timestep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepReport {
    /// The timestep.
    pub time: Time,
    /// Voluntary evictions applied at the start of the step: `(cell, page)`.
    pub voluntary: Vec<(usize, PageId)>,
    /// Requests served this step, in logical (core) order.
    pub served: Vec<Served>,
}

/// Aggregate result of a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimResult {
    /// Per-core fault counts.
    pub faults: Vec<u64>,
    /// Per-core hit counts.
    pub hits: Vec<u64>,
    /// Completion time of the last request (0 for an empty workload).
    pub makespan: Time,
    /// Issue times of each core's faults, ascending.
    pub fault_times: Vec<Vec<Time>>,
    /// The configuration the run used.
    pub config: SimConfig,
}

impl SimResult {
    /// Total faults across all cores (the FTF objective).
    pub fn total_faults(&self) -> u64 {
        self.faults.iter().sum()
    }

    /// Total hits across all cores.
    pub fn total_hits(&self) -> u64 {
        self.hits.iter().sum()
    }

    /// Number of faults core `core` had incurred by time `t` (inclusive of
    /// faults issued at `t`) — the quantity PARTIAL-INDIVIDUAL-FAULTS bounds.
    pub fn faults_at(&self, core: usize, t: Time) -> u64 {
        self.fault_times[core].partition_point(|&ft| ft <= t) as u64
    }

    /// The whole fault vector at time `t`.
    pub fn fault_vector_at(&self, t: Time) -> Vec<u64> {
        (0..self.fault_times.len())
            .map(|c| self.faults_at(c, t))
            .collect()
    }
}

/// The event engine minus the request log: it steps over a borrowed
/// `&[Vec<PageId>]` log under a commit horizon — `Time::MAX` for
/// [`Simulator`], the safe-horizon rule for
/// [`crate::online::OnlineSimulator`], whose log grows at the tail
/// between steps.
pub(crate) struct Engine<S: CacheStrategy> {
    cfg: SimConfig,
    /// The capacity schedule `K(t)` ([`CapacitySchedule::fixed`] for
    /// constant-K runs — then `cap_idx` never advances and every
    /// capacity branch is a no-op, so the fixed path is the pre-capacity
    /// engine verbatim). Capacity-change times are first-class events:
    /// [`Engine::next_event_time_with`] mins the next change into the
    /// step time, so idle-gap skipping stays exact and shrink evictions
    /// land exactly at the change time.
    capacity: CapacitySchedule,
    /// Cursor into `capacity.changes()`: changes before it are applied.
    cap_idx: usize,
    strategy: S,
    pub(crate) cache: Cache,
    pub(crate) pos: Vec<usize>,
    pub(crate) ready: Vec<Time>,
    /// Request-issue wake-ups, keyed [`pack`]`(issue_time, core)`.
    /// Invariant: exactly one live entry per core with an unserved
    /// request — an entry is popped only when its core is served at that
    /// time, and serving pushes the core's next wake-up (if its next
    /// request is in the log; otherwise [`Engine::arm`] pushes it when
    /// the request arrives) — so no entry is ever stale.
    issue: BinaryHeap<Reverse<u128>>,
    /// Cores whose next request issues at exactly `last_time + 1` — the
    /// dense fast path. A hit (and any fault when `τ = 0`) re-arms for
    /// the immediately following timestep, so in dense regimes every
    /// wake-up would be pushed and re-popped with the same key; instead
    /// such cores are appended here (in serve order, hence ascending core
    /// order) and merged with the heap's due entries at the next step.
    /// Invariant: non-empty only until the next served step, which (see
    /// [`Engine::next_event_time_with`]) is then exactly
    /// `last_time + 1` and drains it entirely.
    issue_next: Vec<u32>,
    /// Fetch-completion wake-ups, keyed [`pack`]`(ready_at, cell)` — one
    /// per in-flight fetch started by a core's last *logged* request (all
    /// others ride the core's own issue wake-up, see
    /// [`Engine::pending_promote`]). A fetching cell cannot be
    /// evicted, and a cell is re-fetched only after its previous
    /// completion was drained (residency precedes eviction), so no entry
    /// is ever stale here either.
    completions: BinaryHeap<Reverse<u128>>,
    /// `pending_promote[core]` is the cell whose fetch — started by a
    /// request of this core whose successor is already in the log —
    /// completes exactly when the core's next request issues (`u32::MAX`
    /// when none). Such a completion needs no heap entry: the core is in
    /// the due set of the first served step at or past its ready time
    /// (that is what its issue wake-up means), which is precisely the
    /// step where the heap drain would have promoted the cell, so
    /// promoting when the core enters the due set — still ahead of pins,
    /// voluntary evictions, and service — is observably identical. A
    /// fetch started by a core's last logged request (no wake-up yet)
    /// goes through the [`Engine::completions`] heap, which promotes it
    /// at the same step whether or not a successor arrives later.
    pending_promote: Vec<u32>,
    pub(crate) faults: Vec<u64>,
    pub(crate) hits: Vec<u64>,
    pub(crate) fault_times: Vec<Vec<Time>>,
    pub(crate) makespan: Time,
    last_time: Time,
    // Persistent per-step buffers so the hot path allocates nothing per
    // timestep; `served_buf` is filled only by traced steps.
    voluntary_buf: Vec<(usize, PageId)>,
    served_buf: Vec<Served>,
    due_buf: Vec<u32>,
    /// Cores that served their last logged request in the last step:
    /// finished offline; starved or finished online.
    pub(crate) ran_dry: Vec<u32>,
}

impl<S: CacheStrategy> Engine<S> {
    /// Validate `cfg` and `capacity` against `workload` (see
    /// [`Simulator::with_capacity`]), call the strategy's
    /// [`CacheStrategy::begin`] on it, and arm every non-empty core.
    pub(crate) fn new(
        workload: &Workload,
        cfg: SimConfig,
        capacity: CapacitySchedule,
        mut strategy: S,
    ) -> Result<Self, SimError> {
        cfg.validate(workload)?;
        if capacity.initial_k() != cfg.cache_size {
            return Err(ModelError::CapacityMismatch {
                config_k: cfg.cache_size,
                initial_k: capacity.initial_k(),
            }
            .into());
        }
        if capacity.min_k() < workload.num_cores() {
            return Err(ModelError::CapacityBelowCores {
                min_k: capacity.min_k(),
                cores: workload.num_cores(),
            }
            .into());
        }
        strategy.begin(workload, &cfg);
        let p = workload.num_cores();
        let mut cache = Cache::new(capacity.max_k(), p);
        cache.set_limit(cfg.cache_size);
        let mut engine = Engine {
            cfg,
            capacity,
            cap_idx: 0,
            strategy,
            cache,
            pos: vec![0; p],
            ready: vec![1; p],
            issue: BinaryHeap::with_capacity(p),
            issue_next: Vec::with_capacity(p),
            completions: BinaryHeap::with_capacity(p),
            pending_promote: vec![u32::MAX; p],
            faults: vec![0; p],
            hits: vec![0; p],
            fault_times: vec![Vec::new(); p],
            makespan: 0,
            last_time: 0,
            voluntary_buf: Vec::new(),
            served_buf: Vec::with_capacity(p),
            due_buf: Vec::with_capacity(p),
            ran_dry: Vec::with_capacity(p),
        };
        for core in 0..p {
            if workload.len(core) > 0 {
                engine.arm(core);
            }
        }
        Ok(engine)
    }

    /// Queue `core`'s issue wake-up at its ready time, when its next
    /// request enters the log after every earlier one was served. That
    /// time is past every served step: `t = 1` at the start, and online
    /// the commit horizon held every step below it.
    pub(crate) fn arm(&mut self, core: usize) {
        debug_assert!(self.ready[core] > self.last_time);
        self.issue
            .push(Reverse(pack(self.ready[core], core as u32)));
    }

    /// The next timestep to serve: the earliest queued request-issue
    /// wake-up, unless the strategy declares an earlier non-stale
    /// voluntary time. `heap_min` is the already-peeked issue-heap top
    /// (an `O(1)` peek — no core scan), passed in so [`Engine::step`]
    /// reads the heap top once per step and reuses it for due-event
    /// collection.
    ///
    /// This implements the boundary contract documented on
    /// [`CacheStrategy::next_voluntary_time`]: stale declarations (at or
    /// before the last served timestep) are ignored so each step strictly
    /// advances time; a declaration coinciding with `next_request` folds
    /// into that step; and once the issue queue is empty (every logged
    /// request served) any declaration is dropped and the run ends.
    fn next_event_time_with(&self, heap_min: Option<u128>) -> Option<Time> {
        // A deferred core is due at `last_time + 1`, which no queued heap
        // entry beats (every entry's time is strictly past the last served
        // step), so the deferred list short-circuits the peek.
        let next_request = if self.issue_next.is_empty() {
            key_time(heap_min?)
        } else {
            self.last_time + 1
        };
        let mut t = next_request;
        if let Some(vt) = self.strategy.next_voluntary_time() {
            if vt > self.last_time && vt < t {
                t = vt;
            }
        }
        // A capacity change is a first-class event: serve a (possibly
        // quiet) step at the change time so shrink evictions land exactly
        // there. The `heap_min?` above already dropped post-final changes:
        // once every logged request is served the run ends.
        if let Some((ct, _)) = self.capacity.next_change_after(self.last_time) {
            if ct < t {
                t = ct;
            }
        }
        Some(t)
    }

    /// Serve the next timestep of `log` into the persistent buffers,
    /// returning the time served. Returns `None`, changing nothing, when
    /// every logged request is served or when the next timestep is not
    /// before `horizon` (the commit horizon: `Time::MAX` offline, the
    /// safe-horizon rule online, where ties block). `TRACE` records the
    /// served requests for a [`StepReport`]; runs that only need the
    /// result skip it. Always inlined, so each caller's loop compiles
    /// as its own hot path.
    #[inline(always)]
    pub(crate) fn step<const TRACE: bool>(
        &mut self,
        log: &[Vec<PageId>],
        horizon: Time,
    ) -> Result<Option<Time>, SimError> {
        let heap_min = self.issue.peek().map(|&Reverse(key)| key);
        let Some(t) = self.next_event_time_with(heap_min) else {
            return Ok(None);
        };
        if t >= horizon {
            return Ok(None);
        }
        self.last_time = t;
        // Fetch completions are first-class events: drain every completion
        // due by `t` so the strategy and the serve loop observe those
        // pages as `Present` — exactly what the lazy `promote_due(t)` scan
        // produced, but in O(completions due · log K).
        while let Some(&Reverse(key)) = self.completions.peek() {
            if key_time(key) > t {
                break;
            }
            self.completions.pop();
            self.cache.promote_cell(key_id(key) as usize, t);
        }
        self.voluntary_buf.clear();
        self.served_buf.clear();
        self.ran_dry.clear();

        // Collect this step's request-issue events. Every queued heap
        // entry has time ≥ t (ready times are always pushed strictly in
        // the future and t is the queue minimum or earlier), so popping
        // while time = t yields exactly the due heap cores in increasing
        // core order. Deferred cores (`issue_next`) are all due too — a
        // non-empty deferred list forces t = last step + 1 — and are
        // already core-ascending (they were appended in serve order), so
        // a two-way merge restores the model's fixed logical order. A
        // core is never in both (one live wake-up per unfinished core).
        self.due_buf.clear();
        if !matches!(heap_min, Some(key) if key_time(key) <= t) {
            // Nothing due in the heap: the due set is the deferred list
            // verbatim, so take it wholesale (due_buf was just cleared,
            // so the swap leaves issue_next empty, as draining requires).
            std::mem::swap(&mut self.due_buf, &mut self.issue_next);
        } else {
            let mut deferred = 0;
            while let Some(&Reverse(key)) = self.issue.peek() {
                if key_time(key) > t {
                    break;
                }
                let core = key_id(key);
                while deferred < self.issue_next.len() && self.issue_next[deferred] < core {
                    self.due_buf.push(self.issue_next[deferred]);
                    deferred += 1;
                }
                self.issue.pop();
                self.due_buf.push(core);
            }
            self.due_buf.extend_from_slice(&self.issue_next[deferred..]);
            self.issue_next.clear();
        }

        // Pin every page requested this parallel step *before* the strategy
        // gets to evict voluntarily: parallel reads require `R(x) ⊆ C'`
        // (Algorithms 1 and 2), so evicting a page that is requested at `t`
        // must fail even when the eviction is voluntary.
        // Detach the due list so the loops below can iterate it while
        // borrowing `self` mutably (restored before returning).
        let due = std::mem::take(&mut self.due_buf);
        for &core in &due {
            let core = core as usize;
            // Entering the due set consumes the core's own completed
            // fetch, if one was riding its wake-up (see
            // [`Engine::pending_promote`]); promotion order across
            // cells is immaterial and pinning does not read cell states,
            // so interleaving with the pin loop is unobservable.
            let pending = self.pending_promote[core];
            if pending != u32::MAX {
                self.cache.promote_cell(pending as usize, t);
                self.pending_promote[core] = u32::MAX;
            }
            self.cache.pin_page(log[core][self.pos[core]]);
        }

        // Capacity changes due at `t` apply after pinning (the pages
        // requested this step stay in the configuration, `R(x) ⊆ C'`) and
        // before the strategy's own voluntary evictions; shrink evictions
        // are traced like voluntary ones.
        apply_capacity_step(
            t,
            &self.capacity,
            &mut self.cap_idx,
            &mut self.cache,
            &mut self.strategy,
            &mut self.voluntary_buf,
        )?;

        for cell in self.strategy.voluntary_evictions(t, &self.cache) {
            if !matches!(self.cache.cell(cell), crate::cache::CellState::Present(_)) {
                return Err(SimError::BadVoluntaryEviction { cell });
            }
            let page = self.cache.evict(cell)?;
            self.strategy.on_evict(page, cell);
            self.voluntary_buf.push((cell, page));
        }

        // Serve in due (= increasing core) order. Re-arming for `t + 1` —
        // every hit, and every fault when τ = 0 — is the overwhelmingly
        // common case on dense workloads, so it is not pushed per core:
        // if EVERY due core re-armed for `t + 1`, the next deferred list
        // is the due list verbatim (same cores, same order) and is
        // installed by one swap after the loop; only heap-bound re-arms
        // (ready later than `t + 1`) are pushed inline, and the mixed /
        // exhausted cases rebuild the deferred list by filtering `due`.
        let mut all_deferred = true;
        for &core in &due {
            let core = core as usize;
            let seq = &log[core];
            let index = self.pos[core];
            let page = seq[index];
            let outcome = match self.cache.lookup(page) {
                Lookup::Present { .. } => {
                    self.hits[core] += 1;
                    self.strategy.on_hit(core, page, t, &self.cache);
                    self.ready[core] = t + 1;
                    self.makespan = self.makespan.max(t);
                    Outcome::Hit
                }
                Lookup::Fetching { .. } => {
                    // In flight for another core (same core cannot be
                    // mid-fetch while issuing). Fault, no new cell.
                    self.faults[core] += 1;
                    self.fault_times[core].push(t);
                    self.strategy
                        .on_shared_fetch_miss(core, page, t, &self.cache);
                    self.ready[core] = t + self.cfg.tau + 1;
                    self.makespan = self.makespan.max(t + self.cfg.tau);
                    Outcome::SharedFetchMiss
                }
                Lookup::Absent => {
                    self.faults[core] += 1;
                    self.fault_times[core].push(t);
                    let cell = self.strategy.choose_cell(core, page, t, &self.cache);
                    let evicted = match self.cache.cell(cell) {
                        crate::cache::CellState::Present(_) => {
                            let victim = self.cache.evict(cell)?;
                            self.strategy.on_evict(victim, cell);
                            Some(victim)
                        }
                        crate::cache::CellState::Empty => None,
                        crate::cache::CellState::Fetching { .. } => {
                            return Err(SimError::Cache(CacheError::EvictFetching { cell }));
                        }
                    };
                    self.cache
                        .start_fetch(cell, page, core, t + self.cfg.tau + 1)?;
                    if index + 1 < seq.len() {
                        // The completion coincides with this core's next
                        // wake-up: let it ride that event instead of
                        // paying for a heap entry.
                        self.pending_promote[core] = cell as u32;
                    } else {
                        self.completions
                            .push(Reverse(pack(t + self.cfg.tau + 1, cell as u32)));
                    }
                    self.strategy.on_fault(core, page, t, cell, &self.cache);
                    self.ready[core] = t + self.cfg.tau + 1;
                    self.makespan = self.makespan.max(t + self.cfg.tau);
                    Outcome::Fault { cell, evicted }
                }
            };
            self.pos[core] += 1;
            if self.pos[core] < seq.len() {
                // Re-arm the core's clock: its next request issues at the
                // just-computed ready time (t + 1 on a hit, t + τ + 1 on
                // either kind of fault), always strictly after t. The
                // t + 1 case defers to `issue_next` (installed after the
                // loop): it is served at the very next step, so a heap
                // push/re-pop with the same key would be pure churn.
                if self.ready[core] != t + 1 {
                    all_deferred = false;
                    self.issue
                        .push(Reverse(pack(self.ready[core], core as u32)));
                }
            } else {
                all_deferred = false;
                self.ran_dry.push(core as u32);
            }
            if TRACE {
                self.served_buf.push(Served {
                    core,
                    index,
                    page,
                    outcome,
                });
            }
        }
        if all_deferred {
            // `issue_next` was drained during due collection, so the swap
            // leaves `due_buf` empty for the next step.
            self.due_buf = std::mem::replace(&mut self.issue_next, due);
        } else {
            for &core in &due {
                let c = core as usize;
                if self.pos[c] < log[c].len() && self.ready[c] == t + 1 {
                    self.issue_next.push(core);
                }
            }
            self.due_buf = due;
        }
        self.cache.clear_pins();
        Ok(Some(t))
    }

    /// The aggregate result so far.
    pub(crate) fn into_result(self) -> SimResult {
        SimResult {
            faults: self.faults,
            hits: self.hits,
            makespan: self.makespan,
            fault_times: self.fault_times,
            config: self.cfg,
        }
    }
}

/// A stepping simulator: drive it with [`Simulator::step`] or run it to
/// completion with [`Simulator::run`] / the [`simulate`] convenience.
///
/// This is the event-driven engine (see the module docs) over a fixed
/// workload: per-core clocks live in a min-queue of `(next_time, core)`
/// wake-ups, fetch completions are first-class events, and idle time is
/// skipped outright. Every step commits (horizon `Time::MAX`).
pub struct Simulator<'w, S: CacheStrategy> {
    workload: &'w Workload,
    engine: Engine<S>,
}

impl<'w, S: CacheStrategy> Simulator<'w, S> {
    /// Create a simulator; calls the strategy's [`CacheStrategy::begin`].
    pub fn new(workload: &'w Workload, cfg: SimConfig, strategy: S) -> Result<Self, SimError> {
        Simulator::with_capacity(
            workload,
            cfg,
            CapacitySchedule::fixed(cfg.cache_size),
            strategy,
        )
    }

    /// Create a simulator whose cache capacity follows `capacity`. The
    /// schedule's initial capacity must equal `cfg.cache_size` and its
    /// minimum must stay at or above the core count; the cache is
    /// allocated at the schedule's maximum and its limit moved at each
    /// change. [`CapacitySchedule::fixed`]`(cfg.cache_size)` reproduces
    /// [`Simulator::new`] exactly.
    pub fn with_capacity(
        workload: &'w Workload,
        cfg: SimConfig,
        capacity: CapacitySchedule,
        strategy: S,
    ) -> Result<Self, SimError> {
        Ok(Simulator {
            workload,
            engine: Engine::new(workload, cfg, capacity, strategy)?,
        })
    }

    /// The shared cache, for inspection between steps.
    pub fn cache(&self) -> &Cache {
        &self.engine.cache
    }

    /// Next request index of each core.
    pub fn positions(&self) -> &[usize] {
        &self.engine.pos
    }

    /// Time at which each core's next request issues.
    pub fn ready_times(&self) -> &[Time] {
        &self.engine.ready
    }

    /// `true` once every sequence has been fully served.
    pub fn finished(&self) -> bool {
        self.engine
            .pos
            .iter()
            .zip(self.workload.sequences())
            .all(|(&pos, seq)| pos >= seq.len())
    }

    /// Serve one timestep (the next time at which any request is due).
    /// Returns `Ok(None)` when every sequence is finished.
    pub fn step(&mut self) -> Result<Option<StepReport>, SimError> {
        match self
            .engine
            .step::<true>(self.workload.sequences(), Time::MAX)?
        {
            None => Ok(None),
            Some(t) => Ok(Some(StepReport {
                time: t,
                voluntary: std::mem::take(&mut self.engine.voluntary_buf),
                served: std::mem::take(&mut self.engine.served_buf),
            })),
        }
    }

    /// Run to completion and return the aggregate result, without
    /// recording a per-step trace.
    pub fn run(mut self) -> Result<SimResult, SimError> {
        let log = self.workload.sequences();
        while self.engine.step::<false>(log, Time::MAX)?.is_some() {}
        Ok(self.engine.into_result())
    }

    /// Run to completion, additionally collecting every [`StepReport`]
    /// (one per non-empty timestep) — the full event trace.
    pub fn run_with_trace(mut self) -> Result<(SimResult, Vec<StepReport>), SimError> {
        let mut trace = Vec::new();
        while let Some(report) = self.step()? {
            trace.push(report);
        }
        Ok((self.engine.into_result(), trace))
    }
}

/// Apply every capacity change due at `t` and evict down to the limit —
/// the per-step capacity transition shared verbatim by the event engine
/// (offline and online) and the tick engine (the oracle crate's naive
/// reference re-implements it independently, as it does every rule).
///
/// Ordering within the step: the limit moves and
/// [`CacheStrategy::on_capacity_change`] fires for each change due by
/// `t` (in schedule order), then shrink evictions bring occupancy back
/// to the limit, strategy-chosen first
/// ([`CacheStrategy::shrink_victims`]) with a lowest-index-evictable
/// fallback covering any shortfall. Pinned and in-flight cells cannot be
/// evicted; if they alone exceed the limit, the remaining debt carries
/// into subsequent steps (this function also settles such debt on steps
/// with no change of their own). Shrink evictions are appended to
/// `voluntary_buf`, so they are charged and traced exactly like
/// voluntary evictions.
///
/// Under [`CapacitySchedule::fixed`] both loops are dead: the fixed path
/// costs two comparisons per step and changes no behavior.
pub(crate) fn apply_capacity_step<S: CacheStrategy>(
    t: Time,
    capacity: &CapacitySchedule,
    cap_idx: &mut usize,
    cache: &mut Cache,
    strategy: &mut S,
    voluntary_buf: &mut Vec<(usize, PageId)>,
) -> Result<(), SimError> {
    let changes = capacity.changes();
    while *cap_idx < changes.len() && changes[*cap_idx].0 <= t {
        let (_, k) = changes[*cap_idx];
        *cap_idx += 1;
        cache.set_limit(k);
        strategy.on_capacity_change(t, k, cache);
    }
    while cache.over_limit() > 0 {
        let need = cache.over_limit();
        let victims = strategy.shrink_victims(need, t, cache);
        let mut progress = false;
        for cell in victims.into_iter().take(need) {
            if cache.over_limit() == 0 {
                break;
            }
            if !matches!(cache.cell(cell), crate::cache::CellState::Present(_)) {
                return Err(SimError::BadShrinkEviction { cell });
            }
            let page = cache.evict(cell)?;
            strategy.on_evict(page, cell);
            voluntary_buf.push((cell, page));
            progress = true;
        }
        if !progress {
            // The strategy under-delivered: cover the shortfall with the
            // lowest-index evictable cell, or carry the debt if nothing
            // is evictable (every occupied cell pinned or mid-fetch).
            let Some(cell) = cache.evictable_cells().map(|(i, _, _)| i).next() else {
                break;
            };
            let page = cache.evict(cell)?;
            strategy.on_evict(page, cell);
            voluntary_buf.push((cell, page));
        }
    }
    Ok(())
}

/// Run `strategy` on `workload` under `cfg` and return the result.
pub fn simulate<S: CacheStrategy>(
    workload: &Workload,
    cfg: SimConfig,
    strategy: S,
) -> Result<SimResult, SimError> {
    Simulator::new(workload, cfg, strategy)?.run()
}

/// Run `strategy` on `workload` under `cfg` with cache capacity following
/// `capacity` (see [`CapacitySchedule`]).
pub fn simulate_with_capacity<S: CacheStrategy>(
    workload: &Workload,
    cfg: SimConfig,
    capacity: CapacitySchedule,
    strategy: S,
) -> Result<SimResult, SimError> {
    Simulator::with_capacity(workload, cfg, capacity, strategy)?.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Evicts the lowest-indexed present cell; uses empty cells first.
    struct FirstFit;
    impl CacheStrategy for FirstFit {
        fn name(&self) -> String {
            "FirstFit".into()
        }
        fn choose_cell(&mut self, _c: usize, _p: PageId, _t: Time, cache: &Cache) -> usize {
            cache
                .empty_cell()
                .or_else(|| cache.evictable_cells().map(|(i, _, _)| i).next())
                .expect("a victim always exists when K >= p")
        }
    }

    fn w(seqs: &[&[u32]]) -> Workload {
        Workload::from_u32(seqs.iter().map(|s| s.to_vec())).unwrap()
    }

    #[test]
    fn single_core_timing_with_tau() {
        // [a, b] with K=2, tau=3: a faults at 1 (done 4), b at 5 (done 8).
        let wl = w(&[&[1, 2]]);
        let r = simulate(&wl, SimConfig::new(2, 3), FirstFit).unwrap();
        assert_eq!(r.faults, vec![2]);
        assert_eq!(r.hits, vec![0]);
        assert_eq!(r.fault_times[0], vec![1, 5]);
        assert_eq!(r.makespan, 8);
    }

    #[test]
    fn refetch_becomes_hit_exactly_when_ready() {
        // [a, a] with K=1, tau=3: fault at 1, page ready at 5; second
        // request issues at 5 and hits.
        let wl = w(&[&[1, 1]]);
        let r = simulate(&wl, SimConfig::new(1, 3), FirstFit).unwrap();
        assert_eq!(r.faults, vec![1]);
        assert_eq!(r.hits, vec![1]);
        assert_eq!(r.makespan, 5);
    }

    #[test]
    fn tau_zero_means_unit_time_faults() {
        let wl = w(&[&[1, 2, 1, 2]]);
        let r = simulate(&wl, SimConfig::new(2, 0), FirstFit).unwrap();
        assert_eq!(r.total_faults(), 2);
        assert_eq!(r.total_hits(), 2);
        assert_eq!(r.makespan, 4);
    }

    #[test]
    fn fault_delays_accumulate() {
        // Three distinct pages, K=3, tau=2: faults at t = 1, 4, 7.
        let wl = w(&[&[1, 2, 3]]);
        let r = simulate(&wl, SimConfig::new(3, 2), FirstFit).unwrap();
        assert_eq!(r.fault_times[0], vec![1, 4, 7]);
        assert_eq!(r.makespan, 9);
    }

    #[test]
    fn logical_order_within_timestep() {
        // Both cores request page 1 at t=1 (non-disjoint). Core 0 faults
        // and starts the fetch; core 1 sees the in-flight fetch and takes a
        // shared-fetch miss without consuming a second cell.
        let wl = w(&[&[1], &[1]]);
        let mut sim = Simulator::new(&wl, SimConfig::new(2, 4), FirstFit).unwrap();
        let report = sim.step().unwrap().unwrap();
        assert_eq!(report.served.len(), 2);
        assert!(matches!(report.served[0].outcome, Outcome::Fault { .. }));
        assert_eq!(report.served[1].outcome, Outcome::SharedFetchMiss);
        assert_eq!(sim.cache().occupied(), 1);
        let r = sim.run().unwrap();
        assert_eq!(r.faults, vec![1, 1]);
    }

    #[test]
    fn later_core_hits_page_fetched_long_before() {
        // Core 0 brings page 1 in at t=1 (ready at 3, tau=2). Core 1 first
        // requests its own page (fault, delayed to t=4), then page 1 at
        // t=4, by which time it is resident: a hit.
        let wl = w(&[&[1], &[2, 1]]);
        let r = simulate(&wl, SimConfig::new(3, 2), FirstFit).unwrap();
        assert_eq!(r.faults, vec![1, 1]);
        assert_eq!(r.hits, vec![0, 1]);
    }

    #[test]
    fn parallel_service_no_cross_core_delay() {
        // Disjoint single-page loops: each core faults once then hits.
        // Faults on one core must not delay the other.
        let wl = w(&[&[1, 1, 1], &[2, 2, 2]]);
        let r = simulate(&wl, SimConfig::new(2, 5), FirstFit).unwrap();
        assert_eq!(r.faults, vec![1, 1]);
        assert_eq!(r.hits, vec![2, 2]);
        // Fault at 1, hits at 7 and 8 on both cores.
        assert_eq!(r.makespan, 8);
    }

    #[test]
    fn faults_at_checkpoints() {
        let wl = w(&[&[1, 2, 3]]);
        let r = simulate(&wl, SimConfig::new(3, 2), FirstFit).unwrap();
        // Fault issue times: 1, 4, 7.
        assert_eq!(r.faults_at(0, 0), 0);
        assert_eq!(r.faults_at(0, 1), 1);
        assert_eq!(r.faults_at(0, 3), 1);
        assert_eq!(r.faults_at(0, 4), 2);
        assert_eq!(r.faults_at(0, 100), 3);
        assert_eq!(r.fault_vector_at(4), vec![2]);
    }

    #[test]
    fn empty_workload_is_trivial() {
        let wl = w(&[&[], &[]]);
        let r = simulate(&wl, SimConfig::new(2, 3), FirstFit).unwrap();
        assert_eq!(r.total_faults(), 0);
        assert_eq!(r.makespan, 0);
    }

    /// Voluntarily evicts page 1 at `at`, wherever it is resident (a
    /// dishonest strategy used to probe voluntary-eviction semantics).
    struct ForcingEvict {
        at: Time,
    }
    impl CacheStrategy for ForcingEvict {
        fn name(&self) -> String {
            "ForcingEvict".into()
        }
        fn choose_cell(&mut self, _c: usize, _p: PageId, _t: Time, cache: &Cache) -> usize {
            cache
                .empty_cell()
                .or_else(|| cache.evictable_cells().map(|(i, _, _)| i).next())
                .unwrap()
        }
        fn voluntary_evictions(&mut self, time: Time, cache: &Cache) -> Vec<usize> {
            if time == self.at {
                cache
                    .present_cells()
                    .filter(|(_, p, _)| *p == PageId(1))
                    .map(|(i, _, _)| i)
                    .collect()
            } else {
                Vec::new()
            }
        }
    }

    #[test]
    fn voluntary_evictions_apply_before_service() {
        // [1, 2, 1] K=3 tau=0: honest would fault twice; evicting page 1
        // at t=2 (while page 2 is being served) forces a third fault at t=3.
        let wl = w(&[&[1, 2, 1]]);
        let r = simulate(&wl, SimConfig::new(3, 0), ForcingEvict { at: 2 }).unwrap();
        assert_eq!(r.total_faults(), 3);
    }

    #[test]
    fn same_step_voluntary_eviction_of_requested_page_is_rejected() {
        // Page 1 is requested again at t=3; a voluntary eviction of it in
        // that very step would violate R(x) ⊆ C', so the engine pins due
        // pages first and surfaces the attempt as EvictPinned.
        let wl = w(&[&[1, 2, 1]]);
        let err = simulate(&wl, SimConfig::new(3, 0), ForcingEvict { at: 3 }).unwrap_err();
        assert_eq!(err, SimError::Cache(CacheError::EvictPinned { cell: 0 }));
    }

    #[test]
    fn invalid_voluntary_eviction_is_an_error() {
        struct Bad;
        impl CacheStrategy for Bad {
            fn name(&self) -> String {
                "Bad".into()
            }
            fn choose_cell(&mut self, _c: usize, _p: PageId, _t: Time, cache: &Cache) -> usize {
                cache.empty_cell().unwrap()
            }
            fn voluntary_evictions(&mut self, _t: Time, _c: &Cache) -> Vec<usize> {
                vec![0] // cell 0 is empty at t=1
            }
        }
        let wl = w(&[&[1]]);
        assert_eq!(
            simulate(&wl, SimConfig::new(1, 0), Bad).unwrap_err(),
            SimError::BadVoluntaryEviction { cell: 0 }
        );
    }

    #[test]
    fn choosing_a_fetching_cell_is_an_error() {
        struct Bad;
        impl CacheStrategy for Bad {
            fn name(&self) -> String {
                "Bad".into()
            }
            fn choose_cell(&mut self, _c: usize, _p: PageId, _t: Time, _cache: &Cache) -> usize {
                0 // always cell 0, even when it is mid-fetch
            }
        }
        // Two cores fault simultaneously; core 1's placement targets the
        // cell core 0 is fetching into.
        let wl = w(&[&[1], &[2]]);
        let err = simulate(&wl, SimConfig::new(2, 3), Bad).unwrap_err();
        assert_eq!(err, SimError::Cache(CacheError::EvictFetching { cell: 0 }));
    }

    #[test]
    fn trace_matches_aggregate_result() {
        let wl = w(&[&[1, 2, 1, 2], &[7, 7, 8, 8]]);
        let cfg = SimConfig::new(3, 2);
        let sim = Simulator::new(&wl, cfg, FirstFit).unwrap();
        let (result, trace) = sim.run_with_trace().unwrap();
        let baseline = simulate(&wl, cfg, FirstFit).unwrap();
        assert_eq!(result, baseline);
        // Every served request appears exactly once in the trace.
        let served: usize = trace.iter().map(|s| s.served.len()).sum();
        assert_eq!(served, wl.total_len());
        // Trace times strictly increase and faults in the trace agree.
        assert!(trace.windows(2).all(|w| w[0].time < w[1].time));
        let traced_faults = trace
            .iter()
            .flat_map(|s| &s.served)
            .filter(|s| !matches!(s.outcome, Outcome::Hit))
            .count() as u64;
        assert_eq!(traced_faults, result.total_faults());
    }

    #[test]
    fn makespan_counts_trailing_fetch() {
        // Last request is a miss at t=1 with tau=4: completes at 5.
        let wl = w(&[&[1]]);
        let r = simulate(&wl, SimConfig::new(1, 4), FirstFit).unwrap();
        assert_eq!(r.makespan, 5);
    }

    #[test]
    fn capacity_drop_evicts_before_serving() {
        // [1, 2, 3, 1] with K=3, tau=0 and a drop to K=2 at t=4: pages
        // 1..3 are resident after t=3; the shrink at t=4 evicts the
        // lowest-index evictable cell not pinned by the t=4 request.
        // Page 1 is requested (and pinned) at t=4, so the shrink evicts
        // page 2 (cell 1) and page 1 still hits.
        let wl = w(&[&[1, 2, 3, 1]]);
        let cap: CapacitySchedule = "3,2@4".parse().unwrap();
        let (r, trace) = Simulator::with_capacity(&wl, SimConfig::new(3, 0), cap, FirstFit)
            .unwrap()
            .run_with_trace()
            .unwrap();
        assert_eq!(r.total_faults(), 3);
        assert_eq!(r.total_hits(), 1);
        let step4 = trace.iter().find(|s| s.time == 4).unwrap();
        assert_eq!(step4.voluntary, vec![(1, PageId(2))]);
        assert!(matches!(step4.served[0].outcome, Outcome::Hit));
    }

    #[test]
    fn capacity_drop_at_quiet_time_is_observable() {
        // [1, 2, 1] with tau=2, K=3 dropping to 1 at t=5. The core is
        // mid-fetch over 4..7 (page 2), so t=5 is a quiet timestep the
        // engine would normally skip — but the capacity change forces a
        // served step there, and the shrink evicts the resident page 1
        // (page 2 is mid-fetch, unevictable). The third request then
        // misses where a skipped shrink would have hit.
        let wl = w(&[&[1, 2, 1]]);
        let cap: CapacitySchedule = "3,1@5".parse().unwrap();
        let (r, trace) = Simulator::with_capacity(&wl, SimConfig::new(3, 2), cap, FirstFit)
            .unwrap()
            .run_with_trace()
            .unwrap();
        let step5 = trace.iter().find(|s| s.time == 5).unwrap();
        assert!(step5.served.is_empty());
        assert_eq!(step5.voluntary, vec![(0, PageId(1))]);
        assert_eq!(r.total_faults(), 3);
        assert_eq!(r.total_hits(), 0);
    }

    #[test]
    fn capacity_growth_reopens_cells() {
        // K=2 shrunk... rather grown: [1,2,3,1] K=2 grows to 3 at t=3.
        // Fixed K=2 would evict page 1 on page 3's fault; with growth the
        // empty third cell absorbs page 3 and page 1 still hits.
        let wl = w(&[&[1, 2, 3, 1]]);
        let cap: CapacitySchedule = "2,3@3".parse().unwrap();
        let r = simulate_with_capacity(&wl, SimConfig::new(2, 0), cap, FirstFit).unwrap();
        assert_eq!(r.total_faults(), 3);
        assert_eq!(r.total_hits(), 1);
        let fixed = simulate(&wl, SimConfig::new(2, 0), FirstFit).unwrap();
        assert_eq!(fixed.total_faults(), 4);
    }

    #[test]
    fn fixed_capacity_schedule_is_bit_identical() {
        let wl = w(&[&[1, 2, 1, 2, 3, 1], &[7, 7, 8, 8, 7, 9]]);
        let cfg = SimConfig::new(3, 2);
        let (plain, plain_trace) = Simulator::new(&wl, cfg, FirstFit)
            .unwrap()
            .run_with_trace()
            .unwrap();
        let (fixed, fixed_trace) =
            Simulator::with_capacity(&wl, cfg, CapacitySchedule::fixed(3), FirstFit)
                .unwrap()
                .run_with_trace()
                .unwrap();
        assert_eq!(plain, fixed);
        assert_eq!(plain_trace, fixed_trace);
    }

    #[test]
    fn capacity_validation_errors() {
        let wl = w(&[&[1], &[2]]);
        let cfg = SimConfig::new(4, 0);
        let err = Simulator::with_capacity(&wl, cfg, "4,1@5".parse().unwrap(), FirstFit)
            .err()
            .unwrap();
        assert_eq!(
            err,
            SimError::Model(ModelError::CapacityBelowCores { min_k: 1, cores: 2 })
        );
        let err = Simulator::with_capacity(&wl, cfg, CapacitySchedule::fixed(5), FirstFit)
            .err()
            .unwrap();
        assert_eq!(
            err,
            SimError::Model(ModelError::CapacityMismatch {
                config_k: 4,
                initial_k: 5
            })
        );
    }

    #[test]
    fn post_final_capacity_changes_are_dropped() {
        let wl = w(&[&[1, 2]]);
        let cfg = SimConfig::new(2, 0);
        let cap: CapacitySchedule = "2,3@100".parse().unwrap();
        let (r, trace) = Simulator::with_capacity(&wl, cfg, cap, FirstFit)
            .unwrap()
            .run_with_trace()
            .unwrap();
        let (pr, pt) = Simulator::new(&wl, cfg, FirstFit)
            .unwrap()
            .run_with_trace()
            .unwrap();
        assert_eq!(r, pr);
        assert_eq!(trace, pt);
    }
}
