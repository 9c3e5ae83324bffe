//! The traced run's policy timer: a [`CacheStrategy`] that delegates
//! every callback to an inner strategy and times the three decision
//! callbacks the policy layer spends its time in. Its own clock reads
//! are part of the tracing overhead the traced run reports.

use crate::stats::NsSamples;
use mcp_core::{Cache, CacheStrategy, PageId, SimConfig, Time, Workload};
use std::time::Instant;

pub struct TimedStrategy<S> {
    inner: S,
    pub choose_cell: NsSamples,
    pub on_hit: NsSamples,
    pub shrink_victims: NsSamples,
}

impl<S: CacheStrategy> TimedStrategy<S> {
    pub fn new(inner: S) -> Self {
        TimedStrategy {
            inner,
            choose_cell: NsSamples::default(),
            on_hit: NsSamples::default(),
            shrink_victims: NsSamples::default(),
        }
    }

    /// Timed callbacks so far.
    pub fn calls(&self) -> usize {
        self.choose_cell.len() + self.on_hit.len() + self.shrink_victims.len()
    }

    /// Seconds spent inside the timed callbacks.
    pub fn busy_s(&self) -> f64 {
        self.choose_cell.total_s() + self.on_hit.total_s() + self.shrink_victims.total_s()
    }
}

impl<S: CacheStrategy> CacheStrategy for TimedStrategy<S> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn begin(&mut self, workload: &Workload, cfg: &SimConfig) {
        self.inner.begin(workload, cfg)
    }
    fn on_hit(&mut self, core: usize, page: PageId, time: Time, cache: &Cache) {
        let t0 = Instant::now();
        self.inner.on_hit(core, page, time, cache);
        self.on_hit.record(t0.elapsed());
    }
    fn choose_cell(&mut self, core: usize, page: PageId, time: Time, cache: &Cache) -> usize {
        let t0 = Instant::now();
        let cell = self.inner.choose_cell(core, page, time, cache);
        self.choose_cell.record(t0.elapsed());
        cell
    }
    fn on_fault(&mut self, core: usize, page: PageId, time: Time, cell: usize, cache: &Cache) {
        self.inner.on_fault(core, page, time, cell, cache)
    }
    fn on_evict(&mut self, page: PageId, cell: usize) {
        self.inner.on_evict(page, cell)
    }
    fn on_shared_fetch_miss(&mut self, core: usize, page: PageId, time: Time, cache: &Cache) {
        self.inner.on_shared_fetch_miss(core, page, time, cache)
    }
    fn voluntary_evictions(&mut self, time: Time, cache: &Cache) -> Vec<usize> {
        self.inner.voluntary_evictions(time, cache)
    }
    fn on_capacity_change(&mut self, time: Time, new_k: usize, cache: &Cache) {
        self.inner.on_capacity_change(time, new_k, cache)
    }
    fn shrink_victims(&mut self, need: usize, time: Time, cache: &Cache) -> Vec<usize> {
        let t0 = Instant::now();
        let victims = self.inner.shrink_victims(need, time, cache);
        self.shrink_victims.record(t0.elapsed());
        victims
    }
    fn next_voluntary_time(&self) -> Option<Time> {
        self.inner.next_voluntary_time()
    }
}
