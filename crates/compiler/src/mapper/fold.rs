//! Fold pass: register folding of single-fanout pass-through hops
//! (cgra_pnr's register-folding optimization).
//!
//! When a routed operand passes *through* an intermediate tile whose compute
//! slot is idle at that cycle, the value can be latched into the tile's PE
//! register and re-driven from the PE's dedicated output port instead of a
//! switchbox bypass channel. The folded hop therefore consumes **no channel
//! capacity** on its outgoing link — folding is what relieves congestion on
//! the hot center links of a large mesh between rip-up rounds.
//!
//! Folding is only legal when:
//!
//! * the producing value has a **single** same-iteration fanout (a register
//!   latch would corrupt multicast timing to the other consumers);
//! * the intermediate tile's compute slot at the forwarding cycle is free
//!   (the PE is not issuing its own operation through the same port);
//! * no other folded hop already claims that (tile, slot) output port —
//!   one register re-emit per PE per cycle.

use super::Placement;
use crate::arch::CgraSpec;

/// Folding state for one routing pass: compute-slot occupancy from the
/// placements (immutable across rip-up rounds) plus the per-round output-port
/// claims.
pub(crate) struct Folder {
    ii: u32,
    /// (tile, slot) hosts a compute operation — PE output port is busy.
    compute_busy: Vec<bool>,
    /// (tile, slot) output ports claimed by folded hops this round.
    ports: Vec<bool>,
}

impl Folder {
    pub(crate) fn new(spec: &CgraSpec, ii: u32, placements: &[Placement]) -> Folder {
        let mut compute_busy = vec![false; spec.len() * ii as usize];
        for p in placements {
            compute_busy[p.tile * ii as usize + (p.time % ii) as usize] = true;
        }
        let ports = vec![false; compute_busy.len()];
        Folder { ii, compute_busy, ports }
    }

    /// Clears the per-round port claims (rip-up re-routes everything).
    pub(crate) fn reset_ports(&mut self) {
        self.ports.fill(false);
    }

    /// Decides, hop by hop, which hops of one routed path fold. `tiles` is
    /// the full tile sequence producer→consumer; hop `j` departs `tiles[j]`
    /// at cycle `depart + j`. Only hops out of *intermediate* tiles
    /// (`1 ≤ j < hops`) are candidates — the first hop is driven by the
    /// producer's own output. Returns the per-hop fold flags and records the
    /// port claims.
    pub(crate) fn fold_path(
        &mut self,
        producer_fanout: u32,
        depart: u32,
        tiles: &[usize],
    ) -> Vec<bool> {
        let hops = tiles.len().saturating_sub(1);
        let mut folded = vec![false; hops];
        if producer_fanout != 1 {
            return folded;
        }
        for (j, flag) in folded.iter_mut().enumerate().skip(1) {
            let tile = tiles[j];
            let slot = (depart + j as u32) % self.ii;
            let idx = tile * self.ii as usize + slot as usize;
            if !self.compute_busy[idx] && !self.ports[idx] {
                self.ports[idx] = true;
                *flag = true;
            }
        }
        folded
    }
}
