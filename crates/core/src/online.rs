//! Incremental (online) simulation: the engine behind `mcp serve`.
//!
//! [`OnlineSimulator`] is the event engine ([`crate::sim::Simulator`]'s
//! core) over a *growable* request log: requests arrive one at a time via
//! [`OnlineSimulator::push`] and the engine commits timesteps as soon as —
//! and only when — they can no longer be affected by future arrivals.
//!
//! ## The safe-horizon commit rule
//!
//! In the paper's model a core's issue times depend only on its own
//! hit/fault history: after a hit at `t` the core's next request issues at
//! `t + 1`, after a fault at `t + τ + 1`. Cores couple *only* through the
//! shared cache state, which depends on the interleaving by model time.
//! Call a core **starved** when it is still open (not
//! [`OnlineSimulator::close`]d) but every admitted request of it has been
//! served. A timestep at model time `t` is safe to commit iff every
//! starved core `j` has `ready_j > t`: a request pushed to `j` later would
//! issue at `ready_j`, strictly after `t`, so it cannot participate in —
//! or reorder — the step being committed. (Ties block: within a timestep
//! cores are served in increasing core order, so a late arrival with
//! `ready_j == t` would have been served in that very step.) The engine
//! receives this rule as its commit horizon, the minimum `ready_j` over
//! starved cores; a capacity-change step commits under the same horizon.
//!
//! A starved core has no issue wake-up, exactly like a finished core
//! offline. A push re-arms it at `ready_j`, which the horizon kept
//! strictly after every committed step.
//!
//! Under this rule the committed trace is, at every moment, a prefix of
//! the offline run on whatever the final admitted log turns out to be.
//! After [`OnlineSimulator::close_all`] and a draining
//! [`OnlineSimulator::advance`], the fault counts, fault times and
//! makespan are **bit-identical** to [`crate::sim::simulate`] on the
//! recorded log — this is the serve layer's replay contract, and the
//! tests below pin it.
//!
//! A silent open core therefore throttles the horizon: nothing commits
//! until it receives work or closes. This is inherent to the model, not
//! an implementation artifact; the serve layer surfaces it as backlog.
//!
//! Strategies whose [`CacheStrategy::begin`] reads the full request
//! sequences (offline strategies: FITF, per-part Belady, the LRU-mimic
//! and sacrifice constructions) cannot run online — `begin` here sees
//! `p` empty sequences. The online-safe families (shared LRU/FIFO/CLOCK/
//! LFU/MRU/FWF/LRU-2/random/marking and uniform static partitions) ignore
//! the sequences in `begin`, which the serve replay tests and the fuzz
//! harness's online leg verify empirically per strategy.

use crate::capacity::CapacitySchedule;
use crate::sim::{Engine, SimError, SimResult};
use crate::strategy::CacheStrategy;
use crate::types::{PageId, SimConfig, Time, Workload};
use std::fmt;

/// Errors from feeding an [`OnlineSimulator`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OnlineError {
    /// The core index is out of range.
    UnknownCore {
        /// The offending core index.
        core: usize,
        /// Number of cores the engine was built with.
        cores: usize,
    },
    /// The core was already closed; its sequence is final.
    CoreClosed {
        /// The offending core index.
        core: usize,
    },
}

impl fmt::Display for OnlineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OnlineError::UnknownCore { core, cores } => {
                write!(f, "core {core} out of range (p = {cores})")
            }
            OnlineError::CoreClosed { core } => {
                write!(f, "core {core} is closed; cannot admit more requests")
            }
        }
    }
}

impl std::error::Error for OnlineError {}

/// The incremental engine: the event engine over a log that grows via
/// [`OnlineSimulator::push`], committing under the safe-horizon rule
/// (module docs).
pub struct OnlineSimulator<S: CacheStrategy> {
    engine: Engine<S>,
    /// The admitted log, per core — grows at the tail only.
    seqs: Vec<Vec<PageId>>,
    closed: Vec<bool>,
}

impl<S: CacheStrategy> OnlineSimulator<S> {
    /// Create an engine for `num_cores` open cores. Calls the strategy's
    /// [`CacheStrategy::begin`] with `num_cores` empty sequences (see the
    /// module docs for which strategies that excludes).
    pub fn new(num_cores: usize, cfg: SimConfig, strategy: S) -> Result<Self, SimError> {
        OnlineSimulator::with_capacity(
            num_cores,
            cfg,
            CapacitySchedule::fixed(cfg.cache_size),
            strategy,
        )
    }

    /// [`OnlineSimulator::new`] with cache capacity following `capacity`
    /// (`mcp serve --capacity`). Same validation as
    /// [`crate::sim::Simulator::with_capacity`]; the replay contract
    /// extends verbatim: the finished result is bit-identical to
    /// [`crate::sim::simulate_with_capacity`] on the admitted log.
    pub fn with_capacity(
        num_cores: usize,
        cfg: SimConfig,
        capacity: CapacitySchedule,
        strategy: S,
    ) -> Result<Self, SimError> {
        let empty = Workload::new(vec![Vec::new(); num_cores])?;
        Ok(OnlineSimulator {
            engine: Engine::new(&empty, cfg, capacity, strategy)?,
            seqs: vec![Vec::new(); num_cores],
            closed: vec![false; num_cores],
        })
    }

    /// Admit one request at the tail of `core`'s sequence.
    #[inline]
    pub fn push(&mut self, core: usize, page: PageId) -> Result<(), OnlineError> {
        if core >= self.seqs.len() {
            return Err(OnlineError::UnknownCore {
                core,
                cores: self.seqs.len(),
            });
        }
        if self.closed[core] {
            return Err(OnlineError::CoreClosed { core });
        }
        if self.engine.pos[core] == self.seqs[core].len() {
            self.engine.arm(core);
        }
        self.seqs[core].push(page);
        Ok(())
    }

    /// Declare `core`'s sequence final: no more pushes, and the horizon
    /// stops waiting on it. Idempotent.
    pub fn close(&mut self, core: usize) -> Result<(), OnlineError> {
        if core >= self.seqs.len() {
            return Err(OnlineError::UnknownCore {
                core,
                cores: self.seqs.len(),
            });
        }
        self.closed[core] = true;
        Ok(())
    }

    /// Close every core (end of stream).
    pub fn close_all(&mut self) {
        self.closed.fill(true);
    }

    /// Whether `core` is closed.
    pub fn is_closed(&self, core: usize) -> bool {
        self.closed[core]
    }

    /// Requests served so far, per core.
    pub fn positions(&self) -> &[usize] {
        &self.engine.pos
    }

    /// Time at which each core's next request issues.
    pub fn ready_times(&self) -> &[Time] {
        &self.engine.ready
    }

    /// Faults so far, per core.
    pub fn faults(&self) -> &[u64] {
        &self.engine.faults
    }

    /// Hits so far, per core.
    pub fn hits(&self) -> &[u64] {
        &self.engine.hits
    }

    /// Completion time of the last request served so far.
    pub fn makespan(&self) -> Time {
        self.engine.makespan
    }

    /// Admitted-but-unserved requests, total.
    pub fn backlog(&self) -> usize {
        self.seqs
            .iter()
            .zip(&self.engine.pos)
            .map(|(s, &p)| s.len() - p)
            .sum()
    }

    /// Requests admitted so far, total.
    pub fn admitted(&self) -> usize {
        self.seqs.iter().map(Vec::len).sum()
    }

    /// `true` once every core is closed and every admitted request served.
    pub fn finished(&self) -> bool {
        self.closed.iter().all(|&c| c) && self.backlog() == 0
    }

    /// Whether `core` is starved: open, with every admitted request served.
    fn starved(&self, core: usize) -> bool {
        !self.closed[core] && self.engine.pos[core] == self.seqs[core].len()
    }

    /// Commit every step the safe horizon allows. Returns the number of
    /// requests served; stopping with admitted backlog left (or with open
    /// starved cores) means more input — or closes — are needed before
    /// model time can progress.
    pub fn advance(&mut self) -> Result<usize, SimError> {
        let mut horizon = (0..self.seqs.len())
            .filter(|&j| self.starved(j))
            .map(|j| self.engine.ready[j])
            .min()
            .unwrap_or(Time::MAX);
        let backlog = self.backlog();
        while self.engine.step::<false>(&self.seqs, horizon)?.is_some() {
            for &core in &self.engine.ran_dry {
                if !self.closed[core as usize] {
                    horizon = horizon.min(self.engine.ready[core as usize]);
                }
            }
        }
        Ok(backlog - self.backlog())
    }

    /// A copy of the admitted log as a [`Workload`] — the replay trace.
    pub fn admitted_log(&self) -> Workload {
        Workload::new(self.seqs.clone()).expect("p >= 1 by construction")
    }

    /// Consume the engine, returning the aggregate result and the admitted
    /// log. The result equals [`crate::sim::simulate`] on that log when
    /// the engine is [`OnlineSimulator::finished`]; callers wanting the
    /// replay contract should `close_all` + `advance` first.
    pub fn finish(self) -> (SimResult, Workload) {
        let log = Workload::new(self.seqs).expect("p >= 1 by construction");
        (self.engine.into_result(), log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Cache;
    use crate::sim::simulate;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Evict the lowest-indexed evictable cell.
    struct FirstFit;
    impl CacheStrategy for FirstFit {
        fn name(&self) -> String {
            "FirstFit".into()
        }
        fn choose_cell(&mut self, _c: usize, _p: PageId, _t: Time, cache: &Cache) -> usize {
            cache
                .empty_cell()
                .or_else(|| cache.evictable_cells().map(|(i, _, _)| i).next())
                .expect("victim exists when K >= p")
        }
    }

    /// Global-LRU over stamps, implemented locally so mcp-core's tests
    /// need no policies crate.
    #[derive(Default)]
    struct MiniLru {
        stamps: std::collections::HashMap<PageId, u64>,
        clock: u64,
    }
    impl MiniLru {
        fn touch(&mut self, page: PageId) {
            self.clock += 1;
            self.stamps.insert(page, self.clock);
        }
    }
    impl CacheStrategy for MiniLru {
        fn name(&self) -> String {
            "MiniLru".into()
        }
        fn on_hit(&mut self, _c: usize, page: PageId, _t: Time, _cache: &Cache) {
            self.touch(page);
        }
        fn on_fault(&mut self, _c: usize, page: PageId, _t: Time, _cell: usize, _cache: &Cache) {
            self.touch(page);
        }
        fn on_shared_fetch_miss(&mut self, _c: usize, page: PageId, _t: Time, _cache: &Cache) {
            self.touch(page);
        }
        fn on_evict(&mut self, page: PageId, _cell: usize) {
            self.stamps.remove(&page);
        }
        fn choose_cell(&mut self, _c: usize, _p: PageId, _t: Time, cache: &Cache) -> usize {
            if let Some(cell) = cache.empty_cell() {
                return cell;
            }
            let (cell, _, _) = cache
                .evictable_cells()
                .min_by_key(|(cell, p, _)| (self.stamps.get(p).copied().unwrap_or(0), *cell))
                .expect("cache full implies a victim");
            cell
        }
    }

    /// Flush-when-full with a declared voluntary flush time, to exercise
    /// the voluntary-eviction path online.
    struct Flusher {
        at: Time,
    }
    impl CacheStrategy for Flusher {
        fn name(&self) -> String {
            "Flusher".into()
        }
        fn choose_cell(&mut self, _c: usize, _p: PageId, _t: Time, cache: &Cache) -> usize {
            cache
                .empty_cell()
                .or_else(|| cache.evictable_cells().map(|(i, _, _)| i).next())
                .expect("victim exists")
        }
        fn next_voluntary_time(&self) -> Option<Time> {
            Some(self.at)
        }
        fn voluntary_evictions(&mut self, t: Time, cache: &Cache) -> Vec<usize> {
            if t == self.at {
                cache.evictable_cells().map(|(i, _, _)| i).collect()
            } else {
                Vec::new()
            }
        }
    }

    fn w(seqs: &[&[u32]]) -> Workload {
        Workload::from_u32(seqs.iter().map(|s| s.to_vec())).unwrap()
    }

    fn splitmix64(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Service callbacks as `(t, core, kind)`: `h`it, `f`ault, `s`hared
    /// fetch miss.
    type Calls = Rc<RefCell<Vec<(Time, usize, char)>>>;

    /// [`FirstFit`] that records every service callback, so a test can
    /// compare the online service order with the offline one.
    struct Recorder {
        calls: Calls,
    }
    impl Recorder {
        fn new(calls: &Calls) -> Self {
            Recorder {
                calls: Rc::clone(calls),
            }
        }
    }
    impl CacheStrategy for Recorder {
        fn name(&self) -> String {
            "Recorder".into()
        }
        fn on_hit(&mut self, core: usize, _p: PageId, t: Time, _cache: &Cache) {
            self.calls.borrow_mut().push((t, core, 'h'));
        }
        fn on_fault(&mut self, core: usize, _p: PageId, t: Time, _cell: usize, _cache: &Cache) {
            self.calls.borrow_mut().push((t, core, 'f'));
        }
        fn on_shared_fetch_miss(&mut self, core: usize, _p: PageId, t: Time, _cache: &Cache) {
            self.calls.borrow_mut().push((t, core, 's'));
        }
        fn choose_cell(&mut self, c: usize, p: PageId, t: Time, cache: &Cache) -> usize {
            FirstFit.choose_cell(c, p, t, cache)
        }
    }

    /// The offline [`Recorder`] run: its result and callback sequence.
    fn recorded_offline(workload: &Workload, cfg: SimConfig) -> (SimResult, Calls) {
        let calls = Calls::default();
        let result = simulate(workload, cfg, Recorder::new(&calls)).unwrap();
        (result, calls)
    }

    /// Feed `workload` into an online engine under a seeded interleaving
    /// of pushes, closes and advances, then assert the finished result is
    /// bit-identical to the offline run.
    fn check_online<S: CacheStrategy>(
        workload: &Workload,
        cfg: SimConfig,
        offline: S,
        online: S,
        seed: u64,
    ) {
        let expect = simulate(workload, cfg, offline).unwrap();
        let mut eng = OnlineSimulator::new(workload.num_cores(), cfg, online).unwrap();
        let mut cursor = vec![0usize; workload.num_cores()];
        let mut rng = seed;
        loop {
            let open: Vec<usize> = (0..workload.num_cores())
                .filter(|&j| cursor[j] < workload.len(j))
                .collect();
            if open.is_empty() {
                break;
            }
            rng = splitmix64(rng);
            let j = open[(rng % open.len() as u64) as usize];
            // Push a random-length burst from core j, then sometimes advance.
            rng = splitmix64(rng);
            let burst = 1 + (rng % 3) as usize;
            for _ in 0..burst {
                if cursor[j] < workload.len(j) {
                    eng.push(j, workload.sequence(j)[cursor[j]]).unwrap();
                    cursor[j] += 1;
                }
            }
            rng = splitmix64(rng);
            if rng.is_multiple_of(2) {
                eng.advance().unwrap();
            }
        }
        eng.close_all();
        eng.advance().unwrap();
        assert!(eng.finished());
        let (got, log) = eng.finish();
        assert_eq!(&log, workload, "admitted log must equal the input");
        assert_eq!(got, expect, "online result diverged (seed {seed})");
    }

    #[test]
    fn matches_offline_firstfit_and_lru() {
        let cases = [
            (w(&[&[1, 2, 1, 2], &[7, 7, 8, 8]]), 3, 2),
            (w(&[&[1], &[1]]), 2, 4),
            (w(&[&[1, 2, 3, 1, 2, 3], &[7, 8, 7, 8]]), 4, 0),
            (
                w(&[&[1, 2, 3, 4, 1, 2, 3, 4], &[5, 6, 5, 6], &[9, 9, 9]]),
                5,
                3,
            ),
            (w(&[&[], &[]]), 2, 3),
        ];
        for (wl, k, tau) in cases {
            let cfg = SimConfig::new(k, tau);
            for seed in 0..8 {
                check_online(&wl, cfg, FirstFit, FirstFit, seed);
                check_online(
                    &wl,
                    cfg,
                    MiniLru::default(),
                    MiniLru::default(),
                    seed ^ 0xABCD,
                );
            }
        }
    }

    #[test]
    fn matches_offline_with_voluntary_evictions() {
        let wl = w(&[&[1, 2, 3, 1, 2, 3], &[7, 8, 7, 8]]);
        let cfg = SimConfig::new(4, 2);
        for at in [2, 5, 9] {
            for seed in 0..4 {
                check_online(&wl, cfg, Flusher { at }, Flusher { at }, seed);
            }
        }
    }

    #[test]
    fn randomized_interleavings_large() {
        // A bigger seeded instance: 3 cores, overlapping pages so the
        // shared-fetch-miss path fires under tau > 0.
        let mut seqs: Vec<Vec<u32>> = vec![Vec::new(); 3];
        let mut rng = 0xfeed_beefu64;
        for seq in &mut seqs {
            for _ in 0..120 {
                rng = splitmix64(rng);
                seq.push((rng % 12) as u32);
            }
        }
        let wl = Workload::from_u32(seqs).unwrap();
        let cfg = SimConfig::new(6, 3);
        for seed in 0..6 {
            check_online(&wl, cfg, MiniLru::default(), MiniLru::default(), seed);
        }
    }

    #[test]
    fn horizon_blocks_on_silent_open_core() {
        let mut eng = OnlineSimulator::new(2, SimConfig::new(2, 1), FirstFit).unwrap();
        eng.push(0, PageId(1)).unwrap();
        eng.push(0, PageId(2)).unwrap();
        // Core 1 is open and starved with ready = 1 <= any candidate t:
        // nothing may commit yet.
        assert_eq!(eng.advance().unwrap(), 0);
        assert_eq!(eng.backlog(), 2);
        // Closing core 1 releases the horizon.
        eng.close(1).unwrap();
        assert_eq!(eng.advance().unwrap(), 2);
        assert_eq!(eng.backlog(), 0);
        assert!(!eng.finished(), "core 0 still open");
        eng.close_all();
        assert!(eng.finished());
    }

    #[test]
    fn partial_commits_are_prefixes() {
        // Serving as input arrives must never overcommit: after each
        // advance the served prefix agrees with the final offline run.
        let wl = w(&[&[1, 2, 3, 1, 2, 3], &[7, 8, 9, 7, 8, 9]]);
        let cfg = SimConfig::new(4, 2);
        let expect = simulate(&wl, cfg, MiniLru::default()).unwrap();
        let mut eng = OnlineSimulator::new(2, cfg, MiniLru::default()).unwrap();
        for i in 0..6 {
            eng.push(0, wl.sequence(0)[i]).unwrap();
            eng.push(1, wl.sequence(1)[i]).unwrap();
            eng.advance().unwrap();
            for core in 0..2 {
                let n = eng.engine.fault_times[core].len();
                assert_eq!(
                    eng.engine.fault_times[core],
                    expect.fault_times[core][..n],
                    "fault-time prefix diverged at i={i} core={core}"
                );
            }
        }
        eng.close_all();
        eng.advance().unwrap();
        let (got, _) = eng.finish();
        assert_eq!(got, expect);

        // A push to a starved core whose ready time is the last committed
        // step + 1, while the other cores wait in the deferred list: the
        // re-armed core must merge into that step in core order.
        let wl = w(&[&[1, 3, 2, 4], &[5, 3, 6], &[7, 3, 8, 9]]);
        let cfg = SimConfig::new(6, 0);
        let (expect, calls) = recorded_offline(&wl, cfg);
        let online_calls = Rc::default();
        let mut eng = OnlineSimulator::new(3, cfg, Recorder::new(&online_calls)).unwrap();
        for j in [0, 2] {
            for &page in wl.sequence(j) {
                eng.push(j, page).unwrap();
            }
        }
        eng.push(1, wl.sequence(1)[0]).unwrap();
        // t = 1 commits; core 1 then starves with ready = 2, which blocks
        // t = 2 while cores 0 and 2 (τ = 0) sit deferred for t = 2.
        assert_eq!(eng.advance().unwrap(), 3);
        assert_eq!(eng.ready_times(), &[2, 2, 2]);
        assert_eq!(eng.backlog(), 6);
        for &page in &wl.sequence(1)[1..] {
            eng.push(1, page).unwrap();
        }
        eng.close_all();
        eng.advance().unwrap();
        let (got, _) = eng.finish();
        assert_eq!(got, expect);
        // At t = 2 all three cores request page 3: core 0 faults, cores 1
        // and 2 take shared-fetch misses, in that order.
        assert!(calls.borrow().contains(&(2, 1, 's')));
        assert_eq!(*online_calls.borrow(), *calls.borrow());

        // A push after a fault on the core's last admitted request: that
        // fetch's completion went through the completions heap and must
        // still promote the page before the new request issues.
        let wl = w(&[&[1, 1, 2, 1], &[2, 3, 2]]);
        let cfg = SimConfig::new(3, 3);
        let (expect, calls) = recorded_offline(&wl, cfg);
        let online_calls = Rc::default();
        let mut eng = OnlineSimulator::new(2, cfg, Recorder::new(&online_calls)).unwrap();
        for &page in wl.sequence(1) {
            eng.push(1, page).unwrap();
        }
        eng.close(1).unwrap();
        for i in 0..wl.len(0) {
            eng.push(0, wl.sequence(0)[i]).unwrap();
            eng.advance().unwrap();
            // Each advance serves core 0's only admitted request, so its
            // faults all start on the last admitted request.
            assert_eq!(eng.positions()[0], i + 1);
            for core in 0..2 {
                let n = eng.faults()[core] as usize;
                assert_eq!(
                    eng.engine.fault_times[core],
                    expect.fault_times[core][..n],
                    "fault-time prefix diverged at i={i} core={core}"
                );
            }
        }
        eng.close_all();
        eng.advance().unwrap();
        let (got, _) = eng.finish();
        assert_eq!(got, expect);
        // Core 0's second request (page 1, faulted at t = 1) hits at 5.
        assert!(calls.borrow().contains(&(5, 0, 'h')));
        assert_eq!(*online_calls.borrow(), *calls.borrow());

        // A pending capacity change while every open core is starved: the
        // change step must wait for the horizon like a request step.
        let wl = w(&[&[1, 2, 1], &[3, 4]]);
        let cfg = SimConfig::new(4, 0);
        let cap: CapacitySchedule = "4,2@3".parse().unwrap();
        let expect = crate::sim::simulate_with_capacity(&wl, cfg, cap.clone(), FirstFit).unwrap();
        let mut eng = OnlineSimulator::with_capacity(2, cfg, cap, FirstFit).unwrap();
        for j in 0..2 {
            for &page in &wl.sequence(j)[..2] {
                eng.push(j, page).unwrap();
            }
        }
        assert_eq!(eng.advance().unwrap(), 4);
        // Both cores starved at ready = 3: the drop at t = 3 is pending.
        assert_eq!(eng.ready_times(), &[3, 3]);
        assert_eq!(eng.engine.cache.occupied(), 4);
        eng.push(0, wl.sequence(0)[2]).unwrap();
        assert_eq!(eng.advance().unwrap(), 0, "core 1 still blocks t = 3");
        assert_eq!(eng.engine.cache.occupied(), 4);
        eng.close_all();
        assert_eq!(eng.advance().unwrap(), 1);
        assert!(eng.engine.cache.occupied() <= 2);
        let (got, _) = eng.finish();
        assert_eq!(got, expect);
    }

    #[test]
    fn push_and_close_are_guarded() {
        let mut eng = OnlineSimulator::new(2, SimConfig::new(2, 0), FirstFit).unwrap();
        assert!(matches!(
            eng.push(5, PageId(1)),
            Err(OnlineError::UnknownCore { core: 5, cores: 2 })
        ));
        eng.close(0).unwrap();
        assert!(matches!(
            eng.push(0, PageId(1)),
            Err(OnlineError::CoreClosed { core: 0 })
        ));
        assert!(eng.close(9).is_err());
        // Errors render.
        assert!(OnlineError::CoreClosed { core: 0 }
            .to_string()
            .contains("closed"));
        assert!(OnlineError::UnknownCore { core: 5, cores: 2 }
            .to_string()
            .contains("out of range"));
    }

    #[test]
    fn capacity_replay_matches_offline() {
        // The replay contract under a capacity schedule: pushing the
        // workload through in seeded interleavings and finishing must be
        // bit-identical to the offline capacity run on the same log.
        let wl = w(&[&[1, 2, 3, 1, 2, 3, 1, 2], &[7, 8, 9, 7, 8, 9, 7, 8]]);
        let cfg = SimConfig::new(5, 2);
        for spec in ["5,3@4", "5,2@3,5@9", "5,4@2,3@6,2@11"] {
            let cap: CapacitySchedule = spec.parse().unwrap();
            let expect =
                crate::sim::simulate_with_capacity(&wl, cfg, cap.clone(), MiniLru::default())
                    .unwrap();
            for seed in 0..6u64 {
                let mut eng = OnlineSimulator::with_capacity(
                    wl.num_cores(),
                    cfg,
                    cap.clone(),
                    MiniLru::default(),
                )
                .unwrap();
                let mut cursor = vec![0usize; wl.num_cores()];
                let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) + 1;
                loop {
                    let open: Vec<usize> = (0..wl.num_cores())
                        .filter(|&j| cursor[j] < wl.len(j))
                        .collect();
                    if open.is_empty() {
                        break;
                    }
                    rng = splitmix64(rng);
                    let j = open[(rng % open.len() as u64) as usize];
                    eng.push(j, wl.sequence(j)[cursor[j]]).unwrap();
                    cursor[j] += 1;
                    rng = splitmix64(rng);
                    if rng.is_multiple_of(2) {
                        eng.advance().unwrap();
                    }
                }
                eng.close_all();
                eng.advance().unwrap();
                assert!(eng.finished());
                let (got, log) = eng.finish();
                assert_eq!(&log, &wl);
                assert_eq!(
                    got, expect,
                    "capacity online diverged (cap {spec} seed {seed})"
                );
            }
        }
    }

    #[test]
    fn capacity_change_respects_horizon() {
        // A pending capacity drop must not commit while a starved open
        // core could still receive a request issuing at or before it.
        let cap: CapacitySchedule = "3,2@2".parse().unwrap();
        let mut eng =
            OnlineSimulator::with_capacity(2, SimConfig::new(3, 0), cap, FirstFit).unwrap();
        eng.push(0, PageId(1)).unwrap();
        eng.push(0, PageId(2)).unwrap();
        eng.push(0, PageId(3)).unwrap();
        // Core 1 open and starved: nothing commits, including the t=2 drop.
        assert_eq!(eng.advance().unwrap(), 0);
        eng.close(1).unwrap();
        assert_eq!(eng.advance().unwrap(), 3);
        // After the drop to 2, only two cells may be occupied.
        assert!(eng.engine.cache.occupied() <= 2);
    }

    #[test]
    fn empty_run_finishes_clean() {
        let mut eng = OnlineSimulator::new(3, SimConfig::new(3, 2), FirstFit).unwrap();
        eng.close_all();
        assert_eq!(eng.advance().unwrap(), 0);
        assert!(eng.finished());
        let (r, log) = eng.finish();
        assert_eq!(r.total_faults(), 0);
        assert_eq!(r.makespan, 0);
        assert!(log.is_empty());
    }
}
