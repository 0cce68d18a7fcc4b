//! Place pass: assigns every DFG node a (tile, time) on the time-extended
//! fabric.
//!
//! Two placement engines share this module:
//!
//! * **Greedy** ([`try_place`] / [`place_rest`]) — the historical randomized
//!   priority-order placer that interleaves placement with legacy
//!   (tile, slot) routing-capacity checks. It remains the only engine for
//!   paper-scale fabrics (≤ [`super::ANNEAL_TILE_THRESHOLD`] tiles), so every
//!   mapping the repo has ever golden-tested stays bit-identical, and it is
//!   the re-entry point for incremental repair ([`try_place_pinned`]: the
//!   Place pass with pinned placements).
//! * **Annealed** ([`try_place_annealed`]) — cgra_pnr-style simulated
//!   annealing over tile assignments for large fabrics, where greedy
//!   scatter congests the mesh. The SA cost function combines estimated
//!   route length (hops over every edge) with a channel-congestion estimate
//!   (canonical-path pass-through pressure per tile); times are then derived
//!   by modulo list scheduling on the fixed tiles, and the placement is only
//!   accepted if the [`super::route`] pass proves it congestion-free under
//!   the per-link channel model.
//!
//! Both engines draw all randomness from the cell's own [`TestRng`] stream,
//! so the portfolio search stays bit-identical at any thread count.

use super::route::link_index;
use super::{Placement, ResourceMask, ROUTE_CAP};
use crate::arch::CgraSpec;
use picachu_ir::dfg::{Dfg, NodeId};
use picachu_ir::opcode::Opcode;
use picachu_testkit::TestRng;

pub(crate) struct State<'a> {
    spec: &'a CgraSpec,
    mask: &'a ResourceMask,
    ii: u32,
    /// compute occupancy: (tile, slot) -> taken
    pub(crate) compute: Vec<bool>,
    /// routing occupancy counts: (tile, slot)
    routing: Vec<u32>,
}

impl<'a> State<'a> {
    pub(crate) fn new(spec: &'a CgraSpec, mask: &'a ResourceMask, ii: u32) -> State<'a> {
        State {
            spec,
            mask,
            ii,
            compute: vec![false; spec.len() * ii as usize],
            routing: vec![0; spec.len() * ii as usize],
        }
    }

    pub(crate) fn idx(&self, tile: usize, time: u32) -> usize {
        tile * self.ii as usize + (time % self.ii) as usize
    }

    /// Checks that the operand leaving `from` at `depart` can be routed to
    /// `to` (arriving at `depart + hops`): the pair must be connected on the
    /// alive fabric and every intermediate tile must have routing capacity.
    fn route_free(&self, from: usize, to: usize, depart: u32) -> bool {
        let Some(mut path) = self.mask.path(self.spec, from, to) else {
            return false;
        };
        let mut time = depart;
        path.all(|tile| {
            time += 1;
            self.routing[self.idx(tile, time)] < ROUTE_CAP
        })
    }

    fn route_commit(&mut self, from: usize, to: usize, depart: u32) {
        let Some(path) = self.mask.path(self.spec, from, to) else {
            return; // unreachable: route_free succeeded before every commit
        };
        let mut time = depart;
        for tile in path {
            time += 1;
            let i = self.idx(tile, time);
            self.routing[i] += 1;
        }
    }
}

/// Scheduling priority per node: the ASAP level, except that φ-class nodes
/// are deferred to just before their earliest same-iteration consumer.
///
/// A φ has no same-iteration inputs, so its ASAP level is 0 — but in modulo
/// scheduling the φ of a reduction must execute just before its update (which
/// may sit behind a long chain, e.g. the exp pipeline feeding a softmax sum).
/// Scheduling the φ at time 0 would force `II ≥ chain length` through the
/// recurrence constraint; deferring it keeps RecMII achievable.
pub(crate) fn priorities(dfg: &Dfg) -> Vec<u32> {
    let levels = dfg.asap_levels();
    let mut prio = levels.clone();
    for node in dfg.nodes() {
        if !matches!(node.op, Opcode::Phi | Opcode::FusedPhiAdd | Opcode::FusedPhiAddAdd) {
            continue;
        }
        // earliest same-iteration consumer
        let mut min_consumer: Option<u32> = None;
        for c in dfg.nodes() {
            if c.inputs.iter().any(|e| e.distance == 0 && e.from == node.id) {
                let l = levels[c.id.0];
                min_consumer = Some(min_consumer.map_or(l, |m: u32| m.min(l)));
            }
        }
        if let Some(l) = min_consumer {
            prio[node.id.0] = l.saturating_sub(node.op.latency());
        }
    }
    prio
}

pub(crate) fn is_phi_class(op: Opcode) -> bool {
    matches!(op, Opcode::Phi | Opcode::FusedPhiAdd | Opcode::FusedPhiAddAdd)
}

/// What every step of one placement attempt reads and never changes. The
/// priorities, the costly part, come precomputed from the search grid; the
/// rest is derived once per attempt, not per node, candidate or move.
pub(crate) struct Prep<'a> {
    /// Scheduling priority per node (see [`priorities`]).
    levels: &'a [u32],
    /// Same-iteration consumers per producer, in node-id order.
    consumers_of: Vec<Vec<usize>>,
    /// Carried consumers per producer: `(consumer, distance)`.
    carried_out: Vec<Vec<(usize, u32)>>,
    /// Alive tiles able to execute each distinct opcode of the DFG,
    /// ascending; node `v` reads set `tile_set_of[v]`.
    tile_sets: Vec<Vec<usize>>,
    tile_set_of: Vec<usize>,
}

impl<'a> Prep<'a> {
    /// `levels` must be [`priorities`]`(dfg)`.
    pub(crate) fn new(
        dfg: &Dfg,
        spec: &CgraSpec,
        mask: &ResourceMask,
        levels: &'a [u32],
    ) -> Prep<'a> {
        let n = dfg.len();
        let mut consumers_of: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut carried_out: Vec<Vec<(usize, u32)>> = vec![Vec::new(); n];
        for node in dfg.nodes() {
            for e in &node.inputs {
                if e.distance == 0 {
                    consumers_of[e.from.0].push(node.id.0);
                } else {
                    carried_out[e.from.0].push((node.id.0, e.distance));
                }
            }
        }
        let mut ops: Vec<Opcode> = Vec::new();
        let mut tile_sets: Vec<Vec<usize>> = Vec::new();
        let mut tile_set_of = Vec::with_capacity(n);
        for node in dfg.nodes() {
            let set = ops.iter().position(|&op| op == node.op).unwrap_or_else(|| {
                ops.push(node.op);
                tile_sets.push(
                    (0..spec.len())
                        .filter(|&t| mask.tile_alive(t) && spec.tile_supports(t, node.op))
                        .collect(),
                );
                ops.len() - 1
            });
            tile_set_of.push(set);
        }
        Prep { levels, consumers_of, carried_out, tile_sets, tile_set_of }
    }

    /// Alive tiles able to execute node `v`, ascending.
    fn capable(&self, v: usize) -> &[usize] {
        &self.tile_sets[self.tile_set_of[v]]
    }

    /// The attempt's node order: deferred level ascending; within a level,
    /// φ nodes go last so the *other* inputs of their consumers are already
    /// placed when the φ's dynamic start time is computed; a seeded jitter
    /// breaks the remaining ties (one draw per node, in node order).
    fn order(&self, dfg: &Dfg, rng: &mut TestRng) -> Vec<usize> {
        let n = dfg.len();
        let mut order: Vec<usize> = (0..n).collect();
        let jitter: Vec<u32> = (0..n).map(|_| rng.gen_range(0..1000)).collect();
        order.sort_by_key(|&i| (self.levels[i], is_phi_class(dfg.nodes()[i].op), jitter[i]));
        order
    }

    /// Earliest start of a source node `v` (φ, const, invariant load): its
    /// priority level, raised to align with the actual times of its
    /// consumers' other, already-placed inputs, so the φ of a reduction
    /// sits right where its update will fire, not at time 0.
    fn dynamic_floor(&self, dfg: &Dfg, v: usize, placed: &[Option<Placement>]) -> u32 {
        let lat = dfg.nodes()[v].op.latency();
        let mut floor = self.levels[v];
        for &c in &self.consumers_of[v] {
            for e in &dfg.nodes()[c].inputs {
                if e.distance == 0 && e.from.0 != v {
                    if let Some(p) = placed[e.from.0] {
                        let rdy = p.time + dfg.nodes()[e.from.0].op.latency();
                        floor = floor.max(rdy.saturating_sub(lat));
                    }
                }
            }
        }
        floor
    }
}

pub(crate) fn try_place(
    dfg: &Dfg,
    spec: &CgraSpec,
    mask: &ResourceMask,
    prep: &Prep,
    ii: u32,
    rng: &mut TestRng,
) -> Option<Vec<Placement>> {
    let st = State::new(spec, mask, ii);
    let placed: Vec<Option<Placement>> = vec![None; dfg.len()];
    place_rest(dfg, spec, mask, prep, ii, rng, st, placed, false)
}

/// Validates a set of pinned placements against `mask` and builds the
/// occupancy [`State`] they imply: compute slots of every pinned node, plus
/// the (possibly detoured) routes of every distance-0 edge between two
/// pinned nodes. Carried edges between pinned nodes are checked against the
/// recurrence deadline with the masked hop count.
///
/// On the first violation, returns `Err(consumer_node_id)` — the node the
/// incremental repair must un-pin and re-place. Checks run in node-id order
/// with inputs in declaration order, so the identified node is
/// deterministic.
pub(crate) fn pin_state<'a>(
    dfg: &Dfg,
    spec: &'a CgraSpec,
    mask: &'a ResourceMask,
    ii: u32,
    pinned: &[Option<Placement>],
) -> Result<State<'a>, usize> {
    let mut st = State::new(spec, mask, ii);
    for node in dfg.nodes() {
        let Some(pv) = pinned[node.id.0] else { continue };
        if !mask.tile_alive(pv.tile) || !spec.tile_supports(pv.tile, node.op) {
            return Err(node.id.0);
        }
        let slot = st.idx(pv.tile, pv.time);
        if st.compute[slot] {
            return Err(node.id.0);
        }
        st.compute[slot] = true;
    }
    for node in dfg.nodes() {
        let Some(pv) = pinned[node.id.0] else { continue };
        // check every operand route against the pre-commit state, then
        // commit them together — the same per-consumer batching the search
        // uses, so any search-accepted placement re-validates here
        let mut routes: Vec<(usize, usize, u32)> = Vec::new();
        for e in &node.inputs {
            let Some(pu) = pinned[e.from.0] else { continue };
            let lat = dfg.nodes()[e.from.0].op.latency();
            let Some(h) = mask.hops(spec, pu.tile, pv.tile) else {
                return Err(node.id.0);
            };
            if e.distance == 0 {
                // operand must arrive exactly at the consumer's issue time
                let Some(depart) = pv.time.checked_sub(h) else {
                    return Err(node.id.0);
                };
                if depart < pu.time + lat || !st.route_free(pu.tile, pv.tile, depart) {
                    return Err(node.id.0);
                }
                routes.push((pu.tile, pv.tile, depart));
            } else if pu.time + lat + h > pv.time + e.distance * ii {
                return Err(node.id.0);
            }
        }
        for (from, to, depart) in routes {
            st.route_commit(from, to, depart);
        }
    }
    Ok(st)
}

/// The placement engine shared by the from-scratch search and incremental
/// repair: places every node without a placement, in priority order, into
/// the pre-populated `st`/`placed`.
///
/// `repair` enables two extra candidate filters that only arise when some
/// nodes are already placed *ahead* of the priority order (pinned by
/// [`super::repair_mapping`]): a node being placed must route its operand to
/// every already-placed distance-0 consumer on time, and must satisfy
/// carried-edge deadlines from already-placed producers. Both are vacuous on
/// the from-scratch path, but they stay gated behind `repair` so the healthy
/// search remains bit-identical to its historical behavior (healthy
/// mappings are anchored by golden tests and the fault oracle).
#[allow(clippy::too_many_arguments)]
pub(crate) fn place_rest(
    dfg: &Dfg,
    spec: &CgraSpec,
    mask: &ResourceMask,
    prep: &Prep,
    ii: u32,
    rng: &mut TestRng,
    mut st: State<'_>,
    mut placed: Vec<Option<Placement>>,
    repair: bool,
) -> Option<Vec<Placement>> {
    let order = prep.order(dfg, rng);
    let Prep { consumers_of, carried_out, .. } = prep;
    // per-node and per-tile buffers, reused across the whole attempt
    let mut preds: Vec<(usize, u32)> = Vec::new();
    let mut pred_hops: Vec<u32> = Vec::new();
    let mut tiles: Vec<usize> = Vec::with_capacity(spec.len());
    for &v in &order {
        if placed[v].is_some() {
            continue; // pinned by the repair path
        }
        let node = &dfg.nodes()[v];
        // earliest start from same-iteration predecessors (per-tile addend
        // for hops is applied per candidate below). The priority order is
        // topological over distance-0 edges, so predecessors are placed; if
        // that invariant ever breaks, the attempt fails instead of panicking.
        preds.clear();
        for e in node.inputs.iter().filter(|e| e.distance == 0) {
            let p = placed[e.from.0]?;
            preds.push((p.tile, p.time + dfg.nodes()[e.from.0].op.latency()));
        }

        // dynamic start for source nodes (φ, const, invariant loads)
        let dynamic_floor =
            if preds.is_empty() { prep.dynamic_floor(dfg, v, &placed) } else { 0 };

        tiles.clear();
        tiles.extend_from_slice(prep.capable(v));
        rng.shuffle(&mut tiles);

        let mut placed_here = false;
        'tile: for &tile in &tiles {
            // hop distance from every placed predecessor; a predecessor
            // disconnected from this tile on the alive fabric rules the
            // tile out entirely.
            pred_hops.clear();
            for &(pt, _) in &preds {
                match mask.hops(spec, pt, tile) {
                    Some(h) => pred_hops.push(h),
                    None => continue 'tile,
                }
            }
            let earliest = preds
                .iter()
                .zip(&pred_hops)
                .map(|(&(_, rdy), &h)| rdy + h)
                .max()
                .unwrap_or(dynamic_floor);
            for dt in 0..ii {
                let t = earliest + dt;
                if st.compute[st.idx(tile, t)] {
                    continue;
                }
                // routing from each predecessor
                let routes_ok = preds.iter().zip(&pred_hops).all(|(&(pt, rdy), &h)| {
                    // operand departs when ready; slack waits at source reg
                    let depart = t - h; // arrive exactly at t
                    depart >= rdy && st.route_free(pt, tile, depart)
                });
                if !routes_ok {
                    continue;
                }
                // carried-consumer deadlines (consumers already placed)
                let deadlines_ok = carried_out[v].iter().all(|&(c, d)| {
                    match placed[c] {
                        Some(pc) => match mask.hops(spec, tile, pc.tile) {
                            Some(h) => t + node.op.latency() + h <= pc.time + d * ii,
                            None => false,
                        },
                        None => true,
                    }
                });
                if !deadlines_ok {
                    continue;
                }
                if repair {
                    // pinned distance-0 consumers: the operand must leave
                    // this candidate slot in time to arrive exactly at the
                    // consumer's (fixed) issue time, over a free route
                    let pinned_consumers_ok = consumers_of[v].iter().all(|&c| {
                        let Some(pc) = placed[c] else { return true };
                        let Some(h) = mask.hops(spec, tile, pc.tile) else { return false };
                        match pc.time.checked_sub(h) {
                            Some(depart) => {
                                depart >= t + node.op.latency()
                                    && st.route_free(tile, pc.tile, depart)
                            }
                            None => false,
                        }
                    });
                    if !pinned_consumers_ok {
                        continue;
                    }
                    // carried inputs from already-placed producers (the
                    // from-scratch path defers these to final verification;
                    // filtering here lets repair try other slots instead of
                    // failing the whole attempt)
                    let carried_in_ok =
                        node.inputs.iter().filter(|e| e.distance > 0).all(|e| {
                            let Some(pu) = placed[e.from.0] else { return true };
                            match mask.hops(spec, pu.tile, tile) {
                                Some(h) => {
                                    pu.time + dfg.nodes()[e.from.0].op.latency() + h
                                        <= t + e.distance * ii
                                }
                                None => false,
                            }
                        });
                    if !carried_in_ok {
                        continue;
                    }
                }
                // commit
                let i = st.idx(tile, t);
                st.compute[i] = true;
                for (&(pt, _), &h) in preds.iter().zip(&pred_hops) {
                    let depart = t - h;
                    st.route_commit(pt, tile, depart);
                }
                if repair {
                    for &c in &consumers_of[v] {
                        if let Some(pc) = placed[c] {
                            if let Some(h) = mask.hops(spec, tile, pc.tile) {
                                st.route_commit(tile, pc.tile, pc.time - h);
                            }
                        }
                    }
                }
                placed[v] = Some(Placement { node: NodeId(v), tile, time: t });
                placed_here = true;
                break 'tile;
            }
        }
        if !placed_here {
            if std::env::var_os("PICACHU_MAP_DEBUG").is_some() {
                eprintln!(
                    "  [map-debug] II={ii}: no slot for {} ({}), prio={}",
                    node.id, node.op, prep.levels[v]
                );
            }
            return None;
        }
    }

    // final recurrence verification (covers consumer-placed-after-producer)
    verify_recurrences(dfg, spec, mask, ii, &placed)?;
    placed.into_iter().collect()
}

/// Final recurrence check shared by both placement engines: every carried
/// edge must meet its deadline under the masked (shortest-path) hop count.
fn verify_recurrences(
    dfg: &Dfg,
    spec: &CgraSpec,
    mask: &ResourceMask,
    ii: u32,
    placed: &[Option<Placement>],
) -> Option<()> {
    for node in dfg.nodes() {
        for e in &node.inputs {
            if e.distance > 0 {
                let pu = placed[e.from.0]?;
                let pv = placed[node.id.0]?;
                let lat = dfg.nodes()[e.from.0].op.latency();
                let hops = mask.hops(spec, pu.tile, pv.tile)?;
                if pu.time + lat + hops > pv.time + e.distance * ii {
                    if std::env::var_os("PICACHU_MAP_DEBUG").is_some() {
                        eprintln!(
                            "  [map-debug] II={ii}: recurrence {} -> {} violated (tu={} tv={})",
                            e.from, node.id, pu.time, pv.time
                        );
                    }
                    return None;
                }
            }
        }
    }
    Some(())
}

/// Completes a partial placement: builds the occupancy state the pinned
/// nodes imply (failing on the node `pin_state` identifies) and places the
/// rest with the repair-mode candidate filters enabled.
pub(crate) fn try_place_pinned(
    dfg: &Dfg,
    spec: &CgraSpec,
    mask: &ResourceMask,
    prep: &Prep,
    ii: u32,
    rng: &mut TestRng,
    pinned: &[Option<Placement>],
) -> Option<Vec<Placement>> {
    let st = pin_state(dfg, spec, mask, ii, pinned).ok()?;
    place_rest(dfg, spec, mask, prep, ii, rng, st, pinned.to_vec(), true)
}

// ---------------------------------------------------------------------------
// annealed placement (large fabrics)

/// Hop cost of an unreachable tile pair in the SA cost function: large
/// enough that any reachable assignment dominates, small enough that sums
/// never overflow.
const UNREACHABLE_COST: u64 = 1 << 20;
/// Weight of the channel-congestion estimate relative to wirelength.
const CONGESTION_WEIGHT: u64 = 4;
/// Upper bound on SA moves per attempt — keeps one portfolio cell cheap and
/// its runtime deterministic-ish; the portfolio's randomized restarts supply
/// the diversity a longer anneal would.
const MOVE_CAP: usize = 8_000;

/// One Place→Route evaluation of the annealed pipeline: SA tile assignment,
/// modulo list scheduling on the fixed tiles, then the congestion router as
/// the acceptance gate. Returns the placements only when the [`super::route`]
/// pass proves the mapping fits the per-link channel capacities (with
/// register folding applied) — the portfolio then owns retries at other
/// seeds and IIs.
pub(crate) fn try_place_annealed(
    dfg: &Dfg,
    spec: &CgraSpec,
    mask: &ResourceMask,
    prep: &Prep,
    ii: u32,
    rng: &mut TestRng,
) -> Option<Vec<Placement>> {
    let tiles = anneal_tiles(dfg, spec, mask, prep, ii, rng)?;
    let placements = schedule_on_tiles(dfg, spec, mask, prep, ii, rng, &tiles)?;
    let routes = super::route::route_mapping(dfg, spec, mask, ii, &placements)?;
    routes.congestion_free().then_some(placements)
}

/// The edge list the SA cost function scores: `(producer, consumer, d0)`.
fn cost_edges(dfg: &Dfg) -> Vec<(usize, usize, bool)> {
    let mut edges = Vec::new();
    for node in dfg.nodes() {
        for e in &node.inputs {
            edges.push((e.from.0, node.id.0, e.distance == 0));
        }
    }
    edges
}

fn hop_cost(h: Option<u32>) -> u64 {
    h.map_or(UNREACHABLE_COST, u64::from)
}

/// Simulated-annealing tile assignment (cgra_pnr-style placement).
///
/// * **State**: one capable alive tile per node, at most `II` nodes per tile
///   (one per compute slot).
/// * **Initial state**: the greedy priority order of the historical placer
///   (deferred ASAP levels, φ-last, seeded jitter), each node taking the
///   capable tile minimizing wirelength to its already-assigned neighbours —
///   the "current greedy order" as the anneal's starting point.
/// * **Cost**: Σ estimated route length (masked shortest-path hops of every
///   edge) + [`CONGESTION_WEIGHT`] · Σ per-tile pass-through pressure beyond
///   the tile's `ROUTE_CAP · II` routing slots (estimated from the canonical
///   path of every distance-0 edge).
/// * **Moves**: re-place a uniformly random node on a uniformly random
///   capable tile with a free compute slot.
/// * **Acceptance**: downhill always; uphill with probability `T / (T + Δ)`
///   — a rational schedule (no `exp`, so no libm variance across platforms),
///   monotone in both temperature and Δ like the Metropolis rule.
/// * **Cooling**: geometric, `T ← 7T/10` every `max(32, 4n)` moves, from
///   `T₀ = initial cost / 4`, capped at [`MOVE_CAP`] total moves.
fn anneal_tiles(
    dfg: &Dfg,
    spec: &CgraSpec,
    mask: &ResourceMask,
    prep: &Prep,
    ii: u32,
    rng: &mut TestRng,
) -> Option<Vec<usize>> {
    let n = dfg.len();
    if prep.tile_sets.iter().any(Vec::is_empty) {
        return None;
    }
    let cap_per_tile = ii as usize;
    let edges = cost_edges(dfg);
    let mut incident: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (ei, &(u, v, _)) in edges.iter().enumerate() {
        incident[u].push(ei);
        if v != u {
            incident[v].push(ei);
        }
    }

    // initial state: greedy wirelength in the historical priority order
    let order = prep.order(dfg, rng);
    let mut tiles: Vec<usize> = vec![usize::MAX; n];
    let mut count = vec![0usize; spec.len()];
    for &v in &order {
        let mut best: Option<(u64, usize)> = None;
        for &t in prep.capable(v) {
            if count[t] >= cap_per_tile {
                continue;
            }
            let mut c = 0u64;
            for &ei in &incident[v] {
                let (a, b, _) = edges[ei];
                let o = if a == v { b } else { a };
                if o != v && tiles[o] != usize::MAX {
                    let (from, to) = if a == v { (t, tiles[o]) } else { (tiles[o], t) };
                    c += hop_cost(mask.hops(spec, from, to));
                }
            }
            if best.is_none_or(|(bc, bt)| (c, t) < (bc, bt)) {
                best = Some((c, t));
            }
        }
        let (_, t) = best?;
        tiles[v] = t;
        count[t] += 1;
    }

    // congestion estimate: pass-through pressure per tile from the canonical
    // path of every distance-0 edge, vs ROUTE_CAP routing slots per (tile,
    // slot) = ROUTE_CAP · II per tile
    let mut cong = Congestion {
        occ: vec![0u64; spec.len()],
        tile_cap: u64::from(ROUTE_CAP) * u64::from(ii),
        journal: Vec::new(),
    };
    let mut wire = 0u64;
    for &(u, v, d0) in &edges {
        wire += hop_cost(mask.hops(spec, tiles[u], tiles[v]));
        if d0 {
            if let Some(path) = mask.path(spec, tiles[u], tiles[v]) {
                for t in path {
                    cong.occ[t] += 1;
                }
            }
        }
    }
    let congestion: u64 = cong.occ.iter().map(|&o| o.saturating_sub(cong.tile_cap)).sum();

    let mut temp = (wire + CONGESTION_WEIGHT * congestion) / 4;
    let moves_per_temp = (4 * n).max(32);
    let mut moves = 0usize;
    while temp > 0 && moves < MOVE_CAP {
        for _ in 0..moves_per_temp {
            moves += 1;
            let v = rng.gen_range(0..n as u64) as usize;
            let capable = prep.capable(v);
            let cand = capable[rng.gen_range(0..capable.len() as u64) as usize];
            let old = tiles[v];
            if cand == old || count[cand] >= cap_per_tile {
                continue;
            }
            // remove v's incident contributions, move, re-add; track Δ
            cong.journal.clear();
            let mut delta: i64 = 0;
            delta -= contribution(&edges, &incident[v], &tiles, spec, mask, &mut cong, false);
            let removed = cong.journal.len();
            tiles[v] = cand;
            delta += contribution(&edges, &incident[v], &tiles, spec, mask, &mut cong, true);
            let accept = delta <= 0 || {
                let d = delta as u64;
                rng.gen_range(0..temp + d) < temp
            };
            if accept {
                count[old] -= 1;
                count[cand] += 1;
            } else {
                cong.undo(removed);
                tiles[v] = old;
            }
            if moves >= MOVE_CAP {
                break;
            }
        }
        temp = temp * 7 / 10;
    }
    Some(tiles)
}

/// The SA congestion estimate: per-tile pass-through occupancy of the
/// canonical paths, plus a journal of the tiles the current move touched so
/// a rejected move is undone without walking its paths again.
struct Congestion {
    occ: Vec<u64>,
    /// `ROUTE_CAP · II` routing slots per tile.
    tile_cap: u64,
    /// Tiles whose occupancy the current move changed: first every
    /// decrement of the removal pass, then every increment of the re-add.
    journal: Vec<usize>,
}

impl Congestion {
    /// Restores the occupancy from before the current move, whose removal
    /// pass made the first `removed` journal entries.
    fn undo(&mut self, removed: usize) {
        let (dec, inc) = self.journal.split_at(removed);
        for &t in dec {
            self.occ[t] += 1;
        }
        for &t in inc {
            self.occ[t] -= 1;
        }
    }
}

/// Adds (`add = true`) or removes the cost contribution of every edge
/// incident to a node under the current `tiles` assignment, updating and
/// journaling the per-tile pass-through occupancy, and returns the signed
/// cost (wirelength + weighted congestion) of those edges.
fn contribution(
    edges: &[(usize, usize, bool)],
    incident: &[usize],
    tiles: &[usize],
    spec: &CgraSpec,
    mask: &ResourceMask,
    cong: &mut Congestion,
    add: bool,
) -> i64 {
    let mut cost = 0i64;
    for &ei in incident {
        let (u, w, d0) = edges[ei];
        cost += hop_cost(mask.hops(spec, tiles[u], tiles[w])) as i64;
        if d0 {
            if let Some(path) = mask.path(spec, tiles[u], tiles[w]) {
                for t in path {
                    cong.journal.push(t);
                    if add {
                        cong.occ[t] += 1;
                        if cong.occ[t] > cong.tile_cap {
                            cost += CONGESTION_WEIGHT as i64;
                        }
                    } else {
                        if cong.occ[t] > cong.tile_cap {
                            cost += CONGESTION_WEIGHT as i64;
                        }
                        cong.occ[t] -= 1;
                    }
                }
            }
        }
    }
    cost
}

/// Modulo list scheduling on a fixed tile assignment: the greedy placer's
/// priority order and timing rules with the tile choice already made by the
/// anneal.
///
/// The scheduler is *channel-aware*: when picking a slot it charges every
/// distance-0 input edge's canonical path against the Route pass's
/// per-(directed link, slot) [`super::route::CHANNEL_CAP`] and skips slots
/// that would oversubscribe a channel. This matters because issue times fix
/// the routing slots — an operand arrives *exactly* at its consumer's issue
/// cycle, so the router can spread congestion across paths but not across
/// slots; a slot-blind schedule on a tightly-packed annealed placement
/// concentrates adjacent-tile traffic into unfixable (link, slot)
/// collisions. The check is conservative (no folding credit) and the
/// [`super::route`] pass stays the final gate.
fn schedule_on_tiles(
    dfg: &Dfg,
    spec: &CgraSpec,
    mask: &ResourceMask,
    prep: &Prep,
    ii: u32,
    rng: &mut TestRng,
    tiles: &[usize],
) -> Option<Vec<Placement>> {
    let n = dfg.len();
    let order = prep.order(dfg, rng);
    let carried_out = &prep.carried_out;

    let mut compute = vec![false; spec.len() * ii as usize];
    let slot_of = |tile: usize, t: u32| tile * ii as usize + (t % ii) as usize;
    // canonical-path channel occupancy, indexed `link_index · II + slot`;
    // only ever compared with CHANNEL_CAP, so a saturating byte is exact
    let mut channels = vec![0u8; spec.len() * 4 * ii as usize];
    // per node: the canonical path of every d0 input as `links[start..end]`
    // (the directed links it crosses, producer first) plus its hop count
    let mut links: Vec<usize> = Vec::new();
    let mut in_paths: Vec<(usize, usize, u32)> = Vec::new();
    let mut preds_rdy: Vec<u32> = Vec::new();
    let mut placed: Vec<Option<Placement>> = vec![None; n];
    for &v in &order {
        let node = &dfg.nodes()[v];
        let tile = tiles[v];
        preds_rdy.clear();
        links.clear();
        in_paths.clear();
        for e in node.inputs.iter().filter(|e| e.distance == 0) {
            let p = placed[e.from.0]?;
            let h = mask.hops(spec, p.tile, tile)?;
            preds_rdy.push(p.time + dfg.nodes()[e.from.0].op.latency() + h);
            if h > 0 {
                let start = links.len();
                let mut prev = p.tile;
                for t in mask.path(spec, p.tile, tile)?.chain([tile]) {
                    links.push(link_index(spec, prev, t));
                    prev = t;
                }
                in_paths.push((start, links.len(), h));
            }
        }
        let earliest = if preds_rdy.is_empty() {
            // source nodes align with their consumers' other inputs, as in
            // the greedy placer
            prep.dynamic_floor(dfg, v, &placed)
        } else {
            preds_rdy.iter().copied().max().unwrap_or(0)
        };
        let mut done = false;
        for dt in 0..ii {
            let t = earliest + dt;
            if compute[slot_of(tile, t)] {
                continue;
            }
            let deadlines_ok = carried_out[v].iter().all(|&(c, d)| match placed[c] {
                Some(pc) => match mask.hops(spec, tile, pc.tile) {
                    Some(h) => t + node.op.latency() + h <= pc.time + d * ii,
                    None => false,
                },
                None => true,
            });
            if !deadlines_ok {
                continue;
            }
            // charge each input's canonical path: operands arrive exactly at
            // t, so hop j of an h-hop path occupies its link at slot
            // (t − h + j) mod ii — full if the router could not legally
            // absorb another operand there
            let channel = |link: usize, h: u32, j: usize| {
                link * ii as usize + ((t - h + j as u32) % ii) as usize
            };
            let channels_ok = in_paths.iter().all(|&(start, end, h)| {
                links[start..end]
                    .iter()
                    .enumerate()
                    .all(|(j, &link)| {
                        u32::from(channels[channel(link, h, j)]) < super::route::CHANNEL_CAP
                    })
            });
            if !channels_ok {
                continue;
            }
            for &(start, end, h) in &in_paths {
                for (j, &link) in links[start..end].iter().enumerate() {
                    let c = &mut channels[channel(link, h, j)];
                    *c = c.saturating_add(1);
                }
            }
            compute[slot_of(tile, t)] = true;
            placed[v] = Some(Placement { node: NodeId(v), tile, time: t });
            done = true;
            break;
        }
        if !done {
            return None;
        }
    }
    verify_recurrences(dfg, spec, mask, ii, &placed)?;
    placed.into_iter().collect()
}
