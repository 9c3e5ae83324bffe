//! Algorithm 2 of the paper: deciding PARTIAL-INDIVIDUAL-FAULTS.
//!
//! Given a checkpoint time `t` and per-sequence fault bounds `b`, decide
//! whether the workload can be served so that each sequence `R_i` has
//! faulted at most `b_i` times by time `t` (faults are counted at their
//! issue timestep).
//!
//! Implemented as a layered breadth-first search: one DP transition is one
//! parallel timestep, so layer `s` holds every cache-configuration /
//! position state reachable at time `s`, each carrying a Pareto set of
//! per-sequence fault vectors. Vectors exceeding the bounds are pruned
//! immediately (fault counts are monotone, so early pruning is sound).
//!
//! States within a layer never feed each other (one transition is one
//! timestep), so each layer expands in parallel on the [`mcp_exec`] pool;
//! the expansions merge back sequentially in canonical [`StateKey`] order,
//! making every Pareto set — and hence the decision, witness and expansion
//! counts — identical for every worker count.

use crate::checkpoint::{instance_fingerprint, PifCheckpoint};
use crate::ftf_dp::{schedule_from_chain, FtfSchedule};
use crate::intern::{FxHashMap, StateArena, StateId};
use crate::state::{
    for_each_successor_config, for_each_successor_config_with, pool_for, step_effect,
    step_effect_into, with_scratch, DpError, DpInstance, DpStats, StateKey, StepScratch,
};
use mcp_core::{Budget, SimConfig, Time, TripReason, Workload};

/// Options for the PIF decision procedure.
#[derive(Clone, Copy, Debug)]
pub struct PifOptions {
    /// Explore the full transition relation (including voluntary
    /// evictions). The default is `true` for exactness — unlike FTF
    /// (Theorem 4), the paper states no honesty WLOG for the *fairness*
    /// objective, so the decision procedure conservatively explores all
    /// schedules. Set to `false` for a faster honest-only search.
    pub full_transitions: bool,
    /// Abort with [`DpError::TooLarge`] beyond this many state-vector
    /// expansions.
    pub max_expansions: usize,
    /// Worker threads for layer expansion (0 = the calling thread's
    /// setting, see [`mcp_exec::resolved_jobs`]). Any value yields the same result.
    pub jobs: usize,
    /// Force the state arena onto its spilled (unpacked) representation
    /// even when the instance fits the inline `u128` packing. Testing
    /// hook: both representations are observationally identical, and the
    /// cross-representation tests prove it. Not part of the checkpoint
    /// fingerprint — snapshots are interchangeable across this flag.
    #[doc(hidden)]
    pub force_spill: bool,
}

impl Default for PifOptions {
    fn default() -> Self {
        PifOptions {
            full_transitions: true,
            max_expansions: 20_000_000,
            jobs: 0,
            force_spill: false,
        }
    }
}

type FaultVec = Box<[u16]>;

fn dominates(a: &[u16], b: &[u16]) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y)
}

/// Insert `v` into the Pareto set `set` (minimal vectors kept).
fn pareto_insert(set: &mut Vec<FaultVec>, v: FaultVec) {
    if set.iter().any(|u| dominates(u, &v)) {
        return;
    }
    set.retain(|u| !dominates(&v, u));
    set.push(v);
}

/// Decide PARTIAL-INDIVIDUAL-FAULTS: can `workload` be served with cache
/// size/`τ` from `cfg` such that at time `checkpoint` each sequence `i`
/// has faulted at most `bounds[i]` times?
///
/// ```
/// use mcp_core::{SimConfig, Workload};
/// use mcp_offline::{pif_decide, PifOptions};
///
/// let w = Workload::from_u32([vec![1, 2, 1, 2], vec![7, 7, 7, 7]]).unwrap();
/// let cfg = SimConfig::new(3, 1);
/// // Everything fits: one cold miss each (2 and 1) is achievable...
/// assert!(pif_decide(&w, cfg, 20, &[2, 1], PifOptions::default()).unwrap());
/// // ...but zero faults never is.
/// assert!(!pif_decide(&w, cfg, 20, &[0, 0], PifOptions::default()).unwrap());
/// ```
pub fn pif_decide(
    workload: &Workload,
    cfg: SimConfig,
    checkpoint: Time,
    bounds: &[u64],
    options: PifOptions,
) -> Result<bool, DpError> {
    pif_decide_with_stats(workload, cfg, checkpoint, bounds, options).map(|(ans, _)| ans)
}

/// [`pif_decide`] plus engine statistics (peak live states, vector
/// expansions, peak arena footprint) for instrumentation.
pub fn pif_decide_with_stats(
    workload: &Workload,
    cfg: SimConfig,
    checkpoint: Time,
    bounds: &[u64],
    options: PifOptions,
) -> Result<(bool, DpStats), DpError> {
    let budget = Budget::unlimited().with_max_states(options.max_expansions);
    match pif_decide_governed_with_stats(workload, cfg, checkpoint, bounds, options, &budget, None)?
    {
        (PifOutcome::Decided(ans), stats) => Ok((ans, stats)),
        (PifOutcome::Truncated(t), _) => Err(DpError::TooLarge {
            states: t.expansions,
            cap: options.max_expansions,
            incumbent: None,
        }),
    }
}

/// Outcome of a budget-governed PIF decision run.
#[derive(Clone, Debug)]
#[allow(clippy::large_enum_variant)] // Truncated is the rare exit path
pub enum PifOutcome {
    /// The procedure decided feasibility exactly.
    Decided(bool),
    /// The budget tripped at a layer (timestep) boundary; feasibility is
    /// still open, and `checkpoint` resumes the run exactly where it
    /// stopped.
    Truncated(PifTruncated),
}

/// A truncated PIF run. Unlike FTF there is no numeric bracket — the
/// partial answer is "still feasible through time `t_done`": no pruning
/// has refuted the bounds yet, and infeasibility, had it occurred, would
/// already have been reported.
#[derive(Clone, Debug)]
pub struct PifTruncated {
    /// Why the budget tripped.
    pub reason: TripReason,
    /// Timesteps fully served before the trip.
    pub t_done: Time,
    /// Live states in the last completed layer.
    pub live_states: usize,
    /// Cumulative state-vector expansions.
    pub expansions: usize,
    /// Snapshot that resumes this run bit-for-bit (see
    /// [`crate::checkpoint`]).
    pub checkpoint: PifCheckpoint,
}

/// Fingerprint option bits for PIF snapshots: everything beyond the
/// instance that shapes the layer sequence — transition relation,
/// horizon, and the fault bounds themselves (they prune vectors).
fn pif_option_bits(options: &PifOptions, checkpoint: Time, bounds_u16: &[u16]) -> u64 {
    let mut h: u64 = 2 | u64::from(options.full_transitions);
    h = h.wrapping_mul(0x100_0000_01b3) ^ checkpoint;
    for &b in bounds_u16 {
        h = h.wrapping_mul(0x100_0000_01b3) ^ u64::from(b);
    }
    h
}

/// The resume fingerprint a snapshot must carry to be compatible with
/// this `(workload, config, horizon, bounds, options)` tuple — the PIF
/// analogue of [`crate::ftf_dp::ftf_fingerprint`].
pub fn pif_fingerprint(
    workload: &Workload,
    cfg: SimConfig,
    checkpoint: Time,
    bounds: &[u64],
    options: &PifOptions,
) -> Result<u64, DpError> {
    let inst = DpInstance::build(workload, &cfg)?;
    let bounds_u16: Vec<u16> = bounds
        .iter()
        .map(|&b| b.min(u16::MAX as u64) as u16)
        .collect();
    Ok(instance_fingerprint(
        &inst,
        pif_option_bits(options, checkpoint, &bounds_u16),
    ))
}

/// Budget-governed, resumable PIF decision (Algorithm 2, anytime form).
///
/// The budget is checked between timestep layers (its `states` axis
/// counts vector *expansions*, matching `PifOptions::max_expansions`);
/// within a layer the run is identical to [`pif_decide`], so a governed
/// run that completes returns the exact decision, and resuming a
/// truncated run — at any worker count — reproduces it bit-for-bit.
///
/// `options.max_expansions` is ignored here; cap via
/// [`Budget::with_max_states`]. `resume` must come from the same
/// workload, config, options, horizon, and bounds
/// (fingerprint-validated; mismatch is a [`DpError::Model`]).
#[allow(clippy::too_many_arguments)] // mirrors pif_decide + governance
pub fn pif_decide_governed(
    workload: &Workload,
    cfg: SimConfig,
    checkpoint: Time,
    bounds: &[u64],
    options: PifOptions,
    budget: &Budget,
    resume: Option<&PifCheckpoint>,
) -> Result<PifOutcome, DpError> {
    pif_decide_governed_with_stats(workload, cfg, checkpoint, bounds, options, budget, resume)
        .map(|(outcome, _)| outcome)
}

/// [`pif_decide_governed`] plus engine statistics. `stats.states` is the
/// peak number of live states in any layer; `stats.expansions` counts
/// fault-vector advances (the budget's `states` axis).
#[allow(clippy::too_many_arguments)] // mirrors pif_decide + governance
pub fn pif_decide_governed_with_stats(
    workload: &Workload,
    cfg: SimConfig,
    checkpoint: Time,
    bounds: &[u64],
    options: PifOptions,
    budget: &Budget,
    resume: Option<&PifCheckpoint>,
) -> Result<(PifOutcome, DpStats), DpError> {
    assert_eq!(bounds.len(), workload.num_cores(), "one bound per sequence");
    let inst = DpInstance::build(workload, &cfg)?;
    let mut stats = DpStats::default();
    if checkpoint == 0 {
        return Ok((PifOutcome::Decided(true), stats)); // no request has issued yet
    }
    let bounds_u16: Vec<u16> = bounds
        .iter()
        .map(|&b| b.min(u16::MAX as u64) as u16)
        .collect();
    let fingerprint =
        instance_fingerprint(&inst, pif_option_bits(&options, checkpoint, &bounds_u16));

    let p = inst.num_cores();
    let max_pos = (0..p).map(|i| inst.end_pos(i)).max().unwrap_or(1);
    let end_sum: u64 = (0..p).map(|i| inst.end_pos(i)).sum();
    // Two arenas alternate: the live layer and the one being built.
    // `clear` keeps the allocations, so the steady state is
    // allocation-free aside from the fault vectors themselves.
    let mut arena = StateArena::new(p, max_pos, options.force_spill);
    let mut next_arena = StateArena::new(p, max_pos, options.force_spill);
    // Pareto set of fault vectors per interned state, indexed by StateId.
    let mut pareto: Vec<Vec<FaultVec>> = Vec::new();
    let mut next_pareto: Vec<Vec<FaultVec>> = Vec::new();
    let mut ids: Vec<StateId> = Vec::new();

    let mut expansions = 0usize;
    let mut t_done: Time = 0;
    match resume {
        None => {
            let zero: FaultVec = vec![0u16; p].into_boxed_slice();
            let (id, is_new) = arena.intern(0, &inst.start_positions());
            debug_assert!(is_new && id == 0);
            pareto.push(vec![zero]);
        }
        Some(ck) => {
            if ck.fingerprint != fingerprint {
                return Err(DpError::Model(format!(
                    "checkpoint fingerprint mismatch: instance is {fingerprint:#018x}, \
                     snapshot was taken for {:#018x} (different workload, config, \
                     options, horizon, or bounds)",
                    ck.fingerprint
                )));
            }
            for (key, vectors) in &ck.layer {
                let (id, is_new) = arena.intern_key(key);
                if is_new {
                    debug_assert_eq!(id as usize, pareto.len());
                    pareto.push(vectors.clone());
                } else {
                    // Duplicate key in a (checksummed) snapshot: keep the
                    // last, matching the old map-insert semantics.
                    pareto[id as usize] = vectors.clone();
                }
            }
            expansions = ck.expansions as usize;
            t_done = ck.t_done;
        }
    }

    for t in (t_done + 1)..=checkpoint {
        track_layer(&mut stats, &arena);
        if budget.is_limited() {
            let vectors: usize = pareto.iter().map(|v| v.len()).sum();
            let approx_mem = arena.len() * (24 + 8 * p) + vectors * (2 * p + 32);
            if let Err(reason) = budget.check(expansions, approx_mem) {
                // Materialized canonical keys in canonical order: the
                // snapshot bytes are identical to what the unpacked
                // engine wrote.
                ids.clear();
                ids.extend(0..arena.len() as StateId);
                arena.sort_ids(&mut ids);
                let snapshot: Vec<(StateKey, Vec<FaultVec>)> = ids
                    .iter()
                    .map(|&id| (arena.key(id), pareto[id as usize].clone()))
                    .collect();
                stats.expansions = expansions;
                return Ok((
                    PifOutcome::Truncated(PifTruncated {
                        reason,
                        t_done: t - 1,
                        live_states: snapshot.len(),
                        expansions,
                        checkpoint: PifCheckpoint {
                            fingerprint,
                            t_done: t - 1,
                            expansions: expansions as u64,
                            layer: snapshot,
                        },
                    }),
                    stats,
                ));
            }
        }
        // Canonical order: Pareto-set contents (and their order) come out
        // identical for every worker count.
        ids.clear();
        ids.extend(0..arena.len() as StateId);
        arena.sort_ids(&mut ids);
        // Positions never exceed their end positions, so a position sum
        // of `end_sum` is exactly "all finished": no further requests,
        // hence no further faults — every surviving vector already
        // satisfies the bounds.
        if ids.iter().any(|&id| arena.pos_sum(id) == end_sum) {
            stats.expansions = expansions;
            return Ok((PifOutcome::Decided(true), stats));
        }
        // One layer is one timestep: states within it never feed each
        // other, so the expansion fans out over the pool. Workers read
        // the arena immutably and ship back packed keys; only the
        // sequential merge interns.
        let pool = pool_for(options.jobs, ids.len());
        if pool.jobs() <= 1 {
            // Sequential fast path: expand and merge each state inline in
            // the same canonical order the parallel path merges in — no
            // per-state successor buffer, no per-layer result vector.
            next_arena.clear();
            next_pareto.clear();
            with_scratch(|sc| {
                for &id in &ids {
                    let StepScratch {
                        pos,
                        next,
                        faulted,
                        free,
                        chosen,
                    } = sc;
                    let cfg_bits = arena.cfg(id);
                    arena.positions_into(id, pos);
                    let (rx, _) = step_effect_into(&inst, cfg_bits, pos, next, faulted);
                    let vectors = &pareto[id as usize];
                    let mut advanced: Vec<FaultVec> = Vec::with_capacity(vectors.len());
                    'vecs: for v in vectors {
                        let mut nv = v.clone();
                        for i in 0..p {
                            if faulted[i] {
                                nv[i] += 1;
                                if nv[i] > bounds_u16[i] {
                                    continue 'vecs;
                                }
                            }
                        }
                        advanced.push(nv);
                    }
                    if advanced.is_empty() {
                        continue;
                    }
                    let pp = arena.pack(next);
                    for_each_successor_config_with(
                        &inst,
                        cfg_bits,
                        rx,
                        !options.full_transitions,
                        free,
                        chosen,
                        |next_cfg| {
                            let (nid, is_new) = next_arena.intern_packed(next_cfg, &pp);
                            if is_new {
                                debug_assert_eq!(nid as usize, next_pareto.len());
                                next_pareto.push(Vec::new());
                            }
                            let entry = &mut next_pareto[nid as usize];
                            for v in &advanced {
                                pareto_insert(entry, v.clone());
                            }
                            expansions += advanced.len();
                        },
                    );
                }
            });
            if next_arena.is_empty() {
                stats.expansions = expansions;
                return Ok((PifOutcome::Decided(false), stats));
            }
            std::mem::swap(&mut arena, &mut next_arena);
            std::mem::swap(&mut pareto, &mut next_pareto);
            continue;
        }
        let expanded = pool.par_map(&ids, |_, &id| {
            with_scratch(|sc| {
                let StepScratch {
                    pos,
                    next,
                    faulted,
                    free,
                    chosen,
                } = sc;
                let cfg_bits = arena.cfg(id);
                arena.positions_into(id, pos);
                let (rx, _) = step_effect_into(&inst, cfg_bits, pos, next, faulted);
                // Advance each surviving vector.
                let vectors = &pareto[id as usize];
                let mut advanced: Vec<FaultVec> = Vec::with_capacity(vectors.len());
                'vecs: for v in vectors {
                    let mut nv = v.clone();
                    for i in 0..p {
                        if faulted[i] {
                            nv[i] += 1;
                            if nv[i] > bounds_u16[i] {
                                continue 'vecs;
                            }
                        }
                    }
                    advanced.push(nv);
                }
                if advanced.is_empty() {
                    return None;
                }
                let pp = arena.pack(next);
                let mut cfgs = Vec::new();
                for_each_successor_config_with(
                    &inst,
                    cfg_bits,
                    rx,
                    !options.full_transitions,
                    free,
                    chosen,
                    |next_cfg| cfgs.push(next_cfg),
                );
                Some((advanced, pp, cfgs))
            })
        });
        // Merge sequentially, in the same canonical order: the insertion
        // sequence into each Pareto set — and hence its stored order —
        // is identical for every worker count.
        next_arena.clear();
        next_pareto.clear();
        for (advanced, pp, cfgs) in expanded.into_iter().flatten() {
            for next_cfg in cfgs {
                let (nid, is_new) = next_arena.intern_packed(next_cfg, &pp);
                if is_new {
                    debug_assert_eq!(nid as usize, next_pareto.len());
                    next_pareto.push(Vec::new());
                }
                let entry = &mut next_pareto[nid as usize];
                for v in &advanced {
                    pareto_insert(entry, v.clone());
                }
                expansions += advanced.len();
            }
        }
        if next_arena.is_empty() {
            stats.expansions = expansions;
            return Ok((PifOutcome::Decided(false), stats));
        }
        std::mem::swap(&mut arena, &mut next_arena);
        std::mem::swap(&mut pareto, &mut next_pareto);
    }
    // Survived the serving at t = checkpoint with every bound respected.
    track_layer(&mut stats, &arena);
    stats.expansions = expansions;
    Ok((PifOutcome::Decided(true), stats))
}

/// Fold the current layer into the peak-tracking [`DpStats`] fields.
fn track_layer(stats: &mut DpStats, arena: &StateArena) {
    if arena.len() > stats.states {
        stats.states = arena.len();
        stats.dedup_load_factor = arena.load_factor();
    }
    stats.peak_arena_bytes = stats.peak_arena_bytes.max(arena.approx_bytes());
}

/// A Pareto entry carrying provenance: parent = (state id at the
/// previous layer, index into its entry list). Ids are global — states
/// never repeat across layers (every unfinished sequence advances each
/// timestep, so position sums strictly increase), so one arena interns
/// the whole search.
type WitnessEntry = (FaultVec, Option<(StateId, usize)>);

fn pareto_insert_with_parent(set: &mut Vec<WitnessEntry>, entry: WitnessEntry) {
    if set.iter().any(|(u, _)| dominates(u, &entry.0)) {
        return;
    }
    set.retain(|(u, _)| !dominates(&entry.0, u));
    set.push(entry);
}

/// Like [`pif_decide`], but a "yes" comes with a **witness**: a complete,
/// replayable eviction schedule whose fault vector at `checkpoint`
/// respects every bound. Returns `Ok(None)` when infeasible.
///
/// The witness prefix realizes the feasible fault vector; past the
/// checkpoint the schedule is completed with arbitrary legal (lazy)
/// evictions so the whole workload replays on the engine.
pub fn pif_witness(
    workload: &Workload,
    cfg: SimConfig,
    checkpoint: Time,
    bounds: &[u64],
    options: PifOptions,
) -> Result<Option<FtfSchedule>, DpError> {
    assert_eq!(bounds.len(), workload.num_cores(), "one bound per sequence");
    let inst = DpInstance::build(workload, &cfg)?;
    let start: StateKey = (0u64, inst.start_positions());
    if checkpoint == 0 {
        // Trivially feasible: any legal schedule works.
        let chain = complete_chain(&inst, start);
        return Ok(Some(schedule_from_chain(&inst, &chain)));
    }
    let bounds_u16: Vec<u16> = bounds
        .iter()
        .map(|&b| b.min(u16::MAX as u64) as u16)
        .collect();
    let zero: FaultVec = vec![0u16; inst.num_cores()].into_boxed_slice();

    let p = inst.num_cores();
    let max_pos = (0..p).map(|i| inst.end_pos(i)).max().unwrap_or(1);
    let end_sum: u64 = (0..p).map(|i| inst.end_pos(i)).sum();
    // One arena interns every layer (ids never collide across layers, see
    // [`WitnessEntry`]); layers[t] maps each state id reachable at time t
    // to its Pareto set of (fault vector, parent) pairs.
    let mut arena = StateArena::new(p, max_pos, options.force_spill);
    let mut layers: Vec<FxHashMap<StateId, Vec<WitnessEntry>>> = Vec::new();
    let start_id = arena.intern_key(&start).0;
    let mut first: FxHashMap<StateId, Vec<WitnessEntry>> = FxHashMap::default();
    first.insert(start_id, vec![(zero, None)]);
    layers.push(first);

    let mut expansions = 0usize;
    let mut terminal: Option<(usize, StateId)> = None; // (layer, state)
    let mut ids: Vec<StateId> = Vec::new();
    'outer: for t in 1..=checkpoint {
        let current = &layers[t as usize - 1];
        ids.clear();
        ids.extend(current.keys().copied());
        arena.sort_ids(&mut ids);
        // The canonically smallest finished state, so the witness endpoint
        // does not depend on hash order.
        if let Some(&id) = ids.iter().find(|&&id| arena.pos_sum(id) == end_sum) {
            terminal = Some((t as usize - 1, id));
            break 'outer;
        }
        let expanded = pool_for(options.jobs, ids.len()).par_map(&ids, |_, &id| {
            with_scratch(|sc| {
                let StepScratch {
                    pos,
                    next,
                    faulted,
                    free,
                    chosen,
                } = sc;
                let cfg_bits = arena.cfg(id);
                arena.positions_into(id, pos);
                let (rx, _) = step_effect_into(&inst, cfg_bits, pos, next, faulted);
                let entries = &current[&id];
                let mut advanced: Vec<WitnessEntry> = Vec::new();
                'vecs: for (idx, (v, _)) in entries.iter().enumerate() {
                    let mut nv = v.clone();
                    for i in 0..p {
                        if faulted[i] {
                            nv[i] += 1;
                            if nv[i] > bounds_u16[i] {
                                continue 'vecs;
                            }
                        }
                    }
                    advanced.push((nv, Some((id, idx))));
                }
                if advanced.is_empty() {
                    return None;
                }
                let pp = arena.pack(next);
                let mut cfgs = Vec::new();
                for_each_successor_config_with(
                    &inst,
                    cfg_bits,
                    rx,
                    !options.full_transitions,
                    free,
                    chosen,
                    |next_cfg| cfgs.push(next_cfg),
                );
                Some((advanced, pp, cfgs))
            })
        });
        let mut next: FxHashMap<StateId, Vec<WitnessEntry>> = FxHashMap::default();
        for (advanced, pp, cfgs) in expanded.into_iter().flatten() {
            for next_cfg in cfgs {
                let nid = arena.intern_packed(next_cfg, &pp).0;
                let entry = next.entry(nid).or_default();
                for e in &advanced {
                    pareto_insert_with_parent(entry, e.clone());
                }
                expansions += advanced.len();
            }
            if expansions > options.max_expansions {
                return Err(DpError::TooLarge {
                    states: expansions,
                    cap: options.max_expansions,
                    incumbent: None,
                });
            }
        }
        if next.is_empty() {
            return Ok(None);
        }
        layers.push(next);
    }

    // Pick the witness endpoint: an all-finished state found early, or the
    // canonically smallest surviving state in the final layer.
    let (end_layer, end_id) = match terminal {
        Some(x) => x,
        None => {
            let last = layers.len() - 1;
            let id = layers[last]
                .keys()
                .copied()
                .min_by(|&a, &b| arena.cmp_ids(a, b))
                .expect("nonempty layer");
            (last, id)
        }
    };
    // Walk parents back to layer 0, materializing canonical keys.
    let mut chain: Vec<StateKey> = vec![arena.key(end_id)];
    let mut cursor: Option<(StateId, usize)> = layers[end_layer][&end_id]
        .first()
        .and_then(|(_, parent)| *parent);
    let mut layer_idx = end_layer;
    while let Some((id, idx)) = cursor {
        layer_idx -= 1;
        cursor = layers[layer_idx][&id][idx].1;
        chain.push(arena.key(id));
    }
    chain.reverse();
    // Extend past the checkpoint with arbitrary legal (lazy) transitions
    // so the witness replays end-to-end.
    let tail = complete_chain(&inst, chain.last().expect("nonempty chain").clone());
    chain.extend(tail.into_iter().skip(1));
    Ok(Some(schedule_from_chain(&inst, &chain)))
}

/// Drive a state to completion with the first lazy successor each step.
fn complete_chain(inst: &DpInstance, from: StateKey) -> Vec<StateKey> {
    let mut chain = vec![from];
    loop {
        let state = chain.last().expect("nonempty");
        if inst.all_finished(&state.1) {
            return chain;
        }
        let effect = step_effect(inst, state.0, &state.1);
        let mut chosen: Option<u64> = None;
        for_each_successor_config(inst, state.0, &effect, true, |cfg| {
            if chosen.is_none() {
                chosen = Some(cfg);
            }
        });
        let next_cfg = chosen.expect("every state has a lazy successor");
        chain.push((next_cfg, effect.next_positions.clone()));
    }
}

/// MAX-PIF (Theorem 3's optimization version): the maximum number of
/// sequences whose fault counts at `checkpoint` can be kept within their
/// bounds. Exact, by subset enumeration over [`pif_decide`] — exponential
/// in `p`, usable only for small instances.
pub fn max_pif(
    workload: &Workload,
    cfg: SimConfig,
    checkpoint: Time,
    bounds: &[u64],
    options: PifOptions,
) -> Result<usize, DpError> {
    let p = workload.num_cores();
    assert_eq!(bounds.len(), p);
    for size in (1..=p).rev() {
        // Enumerate subsets of exactly `size` sequences to protect.
        let mut subset: Vec<usize> = (0..size).collect();
        loop {
            let mut relaxed = vec![u64::MAX; p];
            for &i in &subset {
                relaxed[i] = bounds[i];
            }
            if pif_decide(workload, cfg, checkpoint, &relaxed, options)? {
                return Ok(size);
            }
            // Advance to the next lexicographic combination.
            let mut i = size as isize - 1;
            while i >= 0 && subset[i as usize] == i as usize + p - size {
                i -= 1;
            }
            if i < 0 {
                break;
            }
            let i = i as usize;
            subset[i] += 1;
            for j in i + 1..size {
                subset[j] = subset[j - 1] + 1;
            }
        }
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ftf_dp::ftf_min_faults;
    use mcp_core::simulate;
    use mcp_policies::shared_lru;

    fn wl(seqs: &[&[u32]]) -> Workload {
        Workload::from_u32(seqs.iter().map(|s| s.to_vec())).unwrap()
    }

    #[test]
    fn pareto_insert_keeps_minimal() {
        let mut set: Vec<FaultVec> = Vec::new();
        pareto_insert(&mut set, vec![2, 3].into_boxed_slice());
        pareto_insert(&mut set, vec![3, 2].into_boxed_slice());
        assert_eq!(set.len(), 2);
        pareto_insert(&mut set, vec![2, 2].into_boxed_slice()); // dominates both
        assert_eq!(set.len(), 1);
        pareto_insert(&mut set, vec![4, 4].into_boxed_slice()); // dominated
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn trivially_feasible_with_generous_bounds() {
        let w = wl(&[&[1, 2, 1], &[7, 8, 7]]);
        let cfg = SimConfig::new(2, 1);
        let ok = pif_decide(&w, cfg, 1000, &[100, 100], PifOptions::default()).unwrap();
        assert!(ok);
    }

    #[test]
    fn infeasible_with_zero_bounds() {
        // Cold misses are unavoidable: zero faults by any positive time
        // at which a request has issued is impossible.
        let w = wl(&[&[1], &[7]]);
        let cfg = SimConfig::new(2, 0);
        assert!(!pif_decide(&w, cfg, 1, &[0, 0], PifOptions::default()).unwrap());
        // But before any request issues (t=0) it is trivially fine.
        assert!(pif_decide(&w, cfg, 0, &[0, 0], PifOptions::default()).unwrap());
    }

    #[test]
    fn any_concrete_run_is_a_feasible_witness() {
        // The fault vector of an actual S_LRU run at its makespan must be
        // accepted by the decision procedure.
        let w = wl(&[&[1, 2, 3, 1, 2], &[7, 8, 7, 8, 7]]);
        let cfg = SimConfig::new(3, 1);
        let run = simulate(&w, cfg, shared_lru()).unwrap();
        let t = run.makespan;
        let b = run.fault_vector_at(t);
        assert!(pif_decide(&w, cfg, t, &b, PifOptions::default()).unwrap());
    }

    #[test]
    fn total_bound_consistent_with_ftf() {
        // If Σ b_i < FTF optimum and the checkpoint is beyond everyone's
        // completion, PIF must be infeasible.
        let w = wl(&[&[1, 2, 1, 2], &[7, 8, 7, 8]]);
        let cfg = SimConfig::new(2, 1);
        let opt = ftf_min_faults(&w, cfg).unwrap();
        assert!(opt >= 4);
        // Give each sequence just under half the optimum; far horizon.
        let b = vec![(opt / 2).saturating_sub(1); 2];
        let horizon = 200;
        assert!(!pif_decide(&w, cfg, horizon, &b, PifOptions::default()).unwrap());
    }

    #[test]
    fn early_checkpoint_is_easier_than_late() {
        let w = wl(&[&[1, 2, 3, 1, 2, 3], &[7, 8, 9, 7, 8, 9]]);
        let cfg = SimConfig::new(3, 1);
        let b = vec![3, 3];
        let early = pif_decide(&w, cfg, 3, &b, PifOptions::default()).unwrap();
        assert!(early, "few requests issued by t=3");
        // Monotonicity: any infeasible early checkpoint stays infeasible
        // later with the same bounds.
        for t in 1..20 {
            let now = pif_decide(&w, cfg, t, &b, PifOptions::default()).unwrap();
            let later = pif_decide(&w, cfg, t + 1, &b, PifOptions::default()).unwrap();
            assert!(now || !later, "feasibility must be antitone in t (t={t})");
        }
    }

    #[test]
    fn max_pif_counts_satisfiable_sequences() {
        // Three cores, K=3, each repeats a single page: all can be within
        // 1 fault; with impossible bounds for one core, 2 remain.
        let w = wl(&[&[1, 1, 1], &[2, 2, 2], &[3, 3, 3]]);
        let cfg = SimConfig::new(3, 0);
        let all = max_pif(&w, cfg, 10, &[1, 1, 1], PifOptions::default()).unwrap();
        assert_eq!(all, 3);
        let two = max_pif(&w, cfg, 10, &[0, 1, 1], PifOptions::default()).unwrap();
        assert_eq!(two, 2);
        let one = max_pif(&w, cfg, 10, &[0, 0, 1], PifOptions::default()).unwrap();
        assert_eq!(one, 1);
        let zero = max_pif(&w, cfg, 10, &[0, 0, 0], PifOptions::default()).unwrap();
        assert_eq!(zero, 0);
    }

    #[test]
    fn witness_agrees_with_decide_and_replays() {
        use mcp_policies::Replay;
        let w = wl(&[&[1, 2, 3, 1, 2], &[7, 8, 7, 8, 7]]);
        let cfg = SimConfig::new(3, 1);
        for t in [3u64, 8, 14, 20] {
            for b in [[2u64, 2], [3, 1], [5, 5], [0, 0]] {
                let decide = pif_decide(&w, cfg, t, &b, PifOptions::default()).unwrap();
                let witness = pif_witness(&w, cfg, t, &b, PifOptions::default()).unwrap();
                assert_eq!(decide, witness.is_some(), "t={t} b={b:?}");
                if let Some(schedule) = witness {
                    let replay = Replay::new(schedule.decisions).with_voluntary(schedule.voluntary);
                    let run = mcp_core::simulate(&w, cfg, replay).unwrap();
                    let at = run.fault_vector_at(t);
                    for (i, (&f, &bound)) in at.iter().zip(&b).enumerate() {
                        assert!(
                            f <= bound,
                            "witness violates bound {i}: {f} > {bound} (t={t}, b={b:?})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn witness_at_time_zero_is_any_schedule() {
        use mcp_policies::Replay;
        let w = wl(&[&[1, 2], &[7, 8]]);
        let cfg = SimConfig::new(2, 1);
        let schedule = pif_witness(&w, cfg, 0, &[0, 0], PifOptions::default())
            .unwrap()
            .unwrap();
        let run = mcp_core::simulate(
            &w,
            cfg,
            Replay::new(schedule.decisions).with_voluntary(schedule.voluntary),
        )
        .unwrap();
        assert_eq!(run.total_faults() + run.total_hits(), 4);
    }

    #[test]
    fn governed_truncates_and_resumes_to_same_decision() {
        use std::time::Duration;
        let w = wl(&[&[1, 2, 3, 1, 2], &[7, 8, 7, 8, 7]]);
        let cfg = SimConfig::new(3, 1);
        let opts = PifOptions::default();
        for b in [[2u64, 2], [0, 0], [5, 5]] {
            let t = 8;
            let full = pif_decide(&w, cfg, t, &b, opts).unwrap();
            let budget = Budget::unlimited().with_deadline(Duration::ZERO);
            let PifOutcome::Truncated(tr) =
                pif_decide_governed(&w, cfg, t, &b, opts, &budget, None).unwrap()
            else {
                panic!("zero deadline must truncate")
            };
            assert_eq!(tr.reason, TripReason::Deadline);
            assert_eq!(tr.t_done, 0);
            let resumed = pif_decide_governed(
                &w,
                cfg,
                t,
                &b,
                opts,
                &Budget::unlimited(),
                Some(&tr.checkpoint),
            )
            .unwrap();
            let PifOutcome::Decided(ans) = resumed else {
                panic!("unlimited resume must decide")
            };
            assert_eq!(ans, full, "resume diverged for b={b:?}");
        }
    }

    #[test]
    fn governed_rejects_foreign_checkpoint() {
        use std::time::Duration;
        let w = wl(&[&[1, 2, 1], &[7, 8, 7]]);
        let cfg = SimConfig::new(2, 1);
        let opts = PifOptions::default();
        let budget = Budget::unlimited().with_deadline(Duration::ZERO);
        let PifOutcome::Truncated(tr) =
            pif_decide_governed(&w, cfg, 6, &[3, 3], opts, &budget, None).unwrap()
        else {
            panic!("zero deadline must truncate")
        };
        // Same workload, different bounds: the layer pruning differs, so
        // the snapshot must be refused.
        let err = pif_decide_governed(
            &w,
            cfg,
            6,
            &[2, 2],
            opts,
            &Budget::unlimited(),
            Some(&tr.checkpoint),
        )
        .unwrap_err();
        assert!(matches!(err, DpError::Model(_)));
    }

    #[test]
    fn honest_only_never_claims_more_than_full() {
        let w = wl(&[&[1, 2, 1, 2], &[7, 8, 7, 8]]);
        let cfg = SimConfig::new(2, 1);
        for t in [2u64, 5, 9, 14] {
            for b in [[2u64, 2], [3, 1], [1, 3]] {
                let full = pif_decide(&w, cfg, t, &b, PifOptions::default()).unwrap();
                let honest = pif_decide(
                    &w,
                    cfg,
                    t,
                    &b,
                    PifOptions {
                        full_transitions: false,
                        ..Default::default()
                    },
                )
                .unwrap();
                assert!(
                    full || !honest,
                    "honest feasible implies full feasible (t={t})"
                );
            }
        }
    }
}
