//! Queue disciplines and admission accounting.
//!
//! A [`QueueSet`] is the admission boundary between transport threads
//! and the driver: **cFCFS** funnels every request through one shared
//! ring, **dFCFS** keeps one ring per core keyed by the request's
//! issuing core (the two disciplines of the `carvalhof/sim` exemplar,
//! mapped onto the paper's per-core sequences). Admission is strictly
//! accounted: every [`QueueSet::offer`] either *admits* into a ring or
//! *drops* (ring full, or unroutable core), and
//! `offered == admitted + dropped` holds exactly at all times — the
//! backpressure contract the serve tests pin.

use crate::ring::{Msg, Ring};
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// How requests map onto the engine's cores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Discipline {
    /// One shared FCFS queue; the driver assigns each popped request to
    /// the open engine core with the fewest requests assigned so far
    /// (ties to the lowest core id). The assignment depends only on the
    /// admission order, never on drain batching or timing, so seeded
    /// runs replay bit-identically.
    Cfcfs,
    /// One queue per core; a request is routed by its own `core` field.
    Dfcfs,
}

impl Discipline {
    /// The canonical lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            Discipline::Cfcfs => "cfcfs",
            Discipline::Dfcfs => "dfcfs",
        }
    }
}

impl fmt::Display for Discipline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Discipline {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "cfcfs" => Ok(Discipline::Cfcfs),
            "dfcfs" => Ok(Discipline::Dfcfs),
            other => Err(format!("unknown discipline {other:?}; try cfcfs or dfcfs")),
        }
    }
}

struct Shared {
    discipline: Discipline,
    cores: usize,
    rings: Vec<Ring>,
    // `offered` is not stored: it is `admitted + dropped` by definition,
    // so a snapshot taken mid-offer still conserves exactly.
    admitted: AtomicU64,
    dropped: AtomicU64,
    /// Drops attributed per ring (queue-full only; unroutable cores have
    /// no ring).
    ring_dropped: Vec<AtomicU64>,
    /// Producer-side close hints: set the moment a close is *enqueued*,
    /// so later offers for that core drop at the gate instead of dying
    /// inside the engine.
    closed: Vec<AtomicBool>,
    all_closed: AtomicBool,
}

/// Cloneable producer handle: transport threads and in-process clients
/// offer requests and closes through this.
#[derive(Clone)]
pub struct QueueSet {
    inner: Arc<Shared>,
}

/// The unique consumer token — popping is single-consumer by
/// construction because `Consumer` is not `Clone`.
pub struct Consumer {
    inner: Arc<Shared>,
    /// Round-robin pointer for dFCFS draining.
    next_ring: usize,
}

/// A point-in-time copy of the admission counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueueTotals {
    /// Requests presented to [`QueueSet::offer`].
    pub offered: u64,
    /// Requests that entered a ring.
    pub admitted: u64,
    /// Requests refused (full ring or unroutable core).
    pub dropped: u64,
    /// Queue-full drops per ring.
    pub ring_dropped: Vec<u64>,
}

impl QueueSet {
    /// Build the queue set and its unique consumer. `depth` is the
    /// per-ring capacity (rounded up to a power of two).
    pub fn new(discipline: Discipline, cores: usize, depth: usize) -> (QueueSet, Consumer) {
        let nrings = match discipline {
            Discipline::Cfcfs => 1,
            Discipline::Dfcfs => cores,
        };
        let inner = Arc::new(Shared {
            discipline,
            cores,
            rings: (0..nrings).map(|_| Ring::new(depth)).collect(),
            admitted: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            ring_dropped: (0..nrings).map(|_| AtomicU64::new(0)).collect(),
            closed: (0..cores).map(|_| AtomicBool::new(false)).collect(),
            all_closed: AtomicBool::new(false),
        });
        (
            QueueSet {
                inner: Arc::clone(&inner),
            },
            Consumer {
                inner,
                next_ring: 0,
            },
        )
    }

    /// The discipline in force.
    pub fn discipline(&self) -> Discipline {
        self.inner.discipline
    }

    /// Number of engine cores.
    pub fn cores(&self) -> usize {
        self.inner.cores
    }

    fn ring_of(&self, core: u32) -> Option<usize> {
        match self.inner.discipline {
            Discipline::Cfcfs => Some(0),
            Discipline::Dfcfs => {
                if (core as usize) < self.inner.cores {
                    Some(core as usize)
                } else {
                    None
                }
            }
        }
    }

    /// Offer one request. Returns `true` when admitted, `false` when
    /// dropped (full queue, unroutable core, or core already closed).
    pub fn offer(&self, core: u32, page: u32) -> bool {
        let s = &*self.inner;
        let Some(ring) = self.ring_of(core) else {
            s.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        };
        let gate_closed = s.all_closed.load(Ordering::Acquire)
            || (s.discipline == Discipline::Dfcfs
                && s.closed[core as usize].load(Ordering::Acquire));
        if gate_closed {
            s.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        match s.rings[ring].try_push(Msg::Req { core, page }) {
            Ok(()) => {
                s.admitted.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(_) => {
                s.dropped.fetch_add(1, Ordering::Relaxed);
                s.ring_dropped[ring].fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Offer, spinning until admitted — the lossless path for seeded
    /// deterministic producers. Gives up (returning `false`) once `stop`
    /// reads `true` or the stream is closed.
    pub fn offer_blocking(&self, core: u32, page: u32, stop: &AtomicBool) -> bool {
        let s = &*self.inner;
        let Some(ring) = self.ring_of(core) else {
            s.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        };
        loop {
            if stop.load(Ordering::Acquire)
                || s.all_closed.load(Ordering::Acquire)
                || (s.discipline == Discipline::Dfcfs
                    && s.closed[core as usize].load(Ordering::Acquire))
            {
                s.dropped.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            if s.rings[ring].try_push(Msg::Req { core, page }).is_ok() {
                s.admitted.fetch_add(1, Ordering::Relaxed);
                return true;
            }
            std::hint::spin_loop();
        }
    }

    /// Enqueue a close for `core` (`None` = every core). Closes travel
    /// through the rings so they cannot overtake queued requests — under
    /// dFCFS a close-all therefore lands one marker in *every* ring, so
    /// no ring's queued requests can be orphaned behind another ring's
    /// close. The producer-side gates flip immediately so later offers
    /// drop. Spins until each marker is admitted (close is never lost).
    pub fn close(&self, core: Option<u32>) {
        let s = &*self.inner;
        match core {
            None => {
                s.all_closed.store(true, Ordering::Release);
                for gate in &s.closed {
                    gate.store(true, Ordering::Release);
                }
                match s.discipline {
                    Discipline::Cfcfs => self.push_marker(0, Msg::Close { core: u32::MAX }),
                    Discipline::Dfcfs => {
                        for ring in 0..s.rings.len() {
                            self.push_marker(ring, Msg::Close { core: ring as u32 });
                        }
                    }
                }
            }
            Some(c) => {
                let Some(ring) = self.ring_of(c) else {
                    return; // unroutable close: nothing to end
                };
                if s.discipline == Discipline::Dfcfs {
                    s.closed[c as usize].store(true, Ordering::Release);
                } else {
                    // cFCFS has one logical input stream: any close
                    // ends it (documented in DESIGN §14).
                    s.all_closed.store(true, Ordering::Release);
                }
                self.push_marker(ring, Msg::Close { core: c });
            }
        }
    }

    /// Spin a marker into `ring` (markers must never be dropped).
    fn push_marker(&self, ring: usize, marker: Msg) {
        let mut msg = marker;
        while let Err(back) = self.inner.rings[ring].try_push(msg) {
            msg = back;
            std::thread::yield_now();
        }
    }

    /// Flip every producer-side close gate *without* enqueuing markers —
    /// the driver's shutdown path. The driver closes the engine directly
    /// and must not push into rings only it drains (a full ring would
    /// deadlock it against itself); producers racing this gate have their
    /// offers dropped and accounted as usual.
    pub fn gate_close_all(&self) {
        let s = &*self.inner;
        s.all_closed.store(true, Ordering::Release);
        for gate in &s.closed {
            gate.store(true, Ordering::Release);
        }
    }

    /// Current counter values.
    pub fn totals(&self) -> QueueTotals {
        let s = &*self.inner;
        let admitted = s.admitted.load(Ordering::Relaxed);
        let dropped = s.dropped.load(Ordering::Relaxed);
        QueueTotals {
            offered: admitted + dropped,
            admitted,
            dropped,
            ring_dropped: s
                .ring_dropped
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

impl Consumer {
    /// Drain up to `max` messages, round-robin across rings (a batched
    /// dequeue: one wake-up serves a whole batch). Returns the number
    /// delivered to `sink`.
    pub fn drain(&mut self, max: usize, mut sink: impl FnMut(Msg)) -> usize {
        let s = &*self.inner;
        let nrings = s.rings.len();
        let mut delivered = 0;
        let mut idle_rings = 0;
        while delivered < max && idle_rings < nrings {
            match s.rings[self.next_ring % nrings].pop() {
                Some(msg) => {
                    idle_rings = 0;
                    delivered += 1;
                    sink(msg);
                }
                None => {
                    idle_rings += 1;
                    self.next_ring = (self.next_ring + 1) % nrings;
                }
            }
        }
        delivered
    }

    /// `true` when every ring is currently empty.
    pub fn is_empty(&self) -> bool {
        self.inner.rings.iter().all(Ring::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discipline_parsing() {
        assert_eq!("cfcfs".parse::<Discipline>().unwrap(), Discipline::Cfcfs);
        assert_eq!("dfcfs".parse::<Discipline>().unwrap(), Discipline::Dfcfs);
        assert!("fcfs".parse::<Discipline>().is_err());
        assert_eq!(Discipline::Cfcfs.to_string(), "cfcfs");
    }

    #[test]
    fn accounting_is_exact_under_overflow() {
        let (q, mut c) = QueueSet::new(Discipline::Dfcfs, 2, 4);
        let mut admitted = 0;
        for i in 0..50u32 {
            if q.offer(i % 2, i) {
                admitted += 1;
            }
        }
        let t = q.totals();
        assert_eq!(t.offered, 50);
        assert_eq!(t.admitted, admitted);
        assert_eq!(t.offered, t.admitted + t.dropped, "exact conservation");
        assert!(t.dropped > 0, "depth 4 must overflow");
        assert_eq!(t.ring_dropped.iter().sum::<u64>(), t.dropped);
        // Draining frees space for more admissions.
        let mut n = 0;
        c.drain(usize::MAX, |_| n += 1);
        assert_eq!(n as u64, t.admitted);
        assert!(q.offer(0, 1));
    }

    #[test]
    fn snapshots_conserve_exactly_while_a_producer_offers() {
        let (q, _c) = QueueSet::new(Discipline::Dfcfs, 2, 64);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..200_000u32 {
                    q.offer(i % 3, i); // core 2 is unroutable
                }
                done.store(true, Ordering::Release);
            });
            while !done.load(Ordering::Acquire) {
                let t = q.totals();
                assert_eq!(t.offered, t.admitted + t.dropped, "{t:?}");
            }
        });
    }

    #[test]
    fn unroutable_cores_drop() {
        let (q, _c) = QueueSet::new(Discipline::Dfcfs, 2, 8);
        assert!(!q.offer(7, 1));
        let t = q.totals();
        assert_eq!((t.offered, t.admitted, t.dropped), (1, 0, 1));
        // cFCFS routes any core id through the shared ring.
        let (q, _c) = QueueSet::new(Discipline::Cfcfs, 2, 8);
        assert!(q.offer(7, 1));
    }

    #[test]
    fn close_gates_later_offers() {
        let (q, mut c) = QueueSet::new(Discipline::Dfcfs, 2, 8);
        assert!(q.offer(0, 1));
        q.close(Some(0));
        assert!(!q.offer(0, 2), "offers after close drop at the gate");
        assert!(q.offer(1, 3), "other cores unaffected");
        let mut msgs = Vec::new();
        c.drain(usize::MAX, |m| msgs.push(m));
        assert_eq!(
            msgs,
            vec![
                Msg::Req { core: 0, page: 1 },
                Msg::Close { core: 0 },
                Msg::Req { core: 1, page: 3 },
            ]
        );
        let t = q.totals();
        assert_eq!(t.offered, 3);
        assert_eq!(t.admitted + t.dropped, 3);
    }

    #[test]
    fn close_all_ends_the_cfcfs_stream() {
        let (q, mut c) = QueueSet::new(Discipline::Cfcfs, 4, 8);
        assert!(q.offer(3, 9));
        q.close(Some(1)); // any close ends the cFCFS stream
        assert!(!q.offer(0, 1));
        let mut msgs = Vec::new();
        c.drain(usize::MAX, |m| msgs.push(m));
        assert_eq!(msgs.len(), 2);
        assert_eq!(msgs[1], Msg::Close { core: 1 });
    }

    #[test]
    fn drain_batches_round_robin() {
        let (q, mut c) = QueueSet::new(Discipline::Dfcfs, 3, 16);
        for core in 0..3u32 {
            for i in 0..4u32 {
                assert!(q.offer(core, core * 10 + i));
            }
        }
        let mut got = Vec::new();
        assert_eq!(c.drain(5, |m| got.push(m)), 5);
        assert_eq!(got.len(), 5);
        let mut rest = Vec::new();
        c.drain(usize::MAX, |m| rest.push(m));
        assert_eq!(got.len() + rest.len(), 12);
        assert!(c.is_empty());
    }
}
