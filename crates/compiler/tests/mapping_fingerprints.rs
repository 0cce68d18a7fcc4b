//! Frozen mapping fingerprints.
//!
//! The mapper's hot loops (greedy Place, simulated annealing, modulo
//! scheduling, congestion routing) are tuned for speed under one rule: no
//! RNG draw, tie-break or mapping may change. These tests pin that rule.
//! Each hashes the `(ii, schedule_len, placements)` of a fixed set of
//! mappings and compares the hash with a constant recorded before the hot
//! loops were last rewritten:
//!
//! * the greedy engine on the full kernel library at 4×4 and 8×8;
//! * the annealed engine on the uf1 and uf2 loops of relu, silu, swiglu
//!   and rmsnorm at 16×16, plus the routes the Route pass gives them;
//! * one degraded-fabric `map_dfg_with` and one `repair_mapping`.
//!
//! A mismatch means some mapping moved. If that is intended, regenerate
//! every committed artifact the mapper feeds and update the constant.

use picachu_compiler::arch::CgraSpec;
use picachu_compiler::mapper::{
    map_dfg, map_dfg_with, repair_mapping, route_mapping, MapError, Mapping, ResourceMask,
};
use picachu_compiler::transform::{fuse_patterns, unroll};
use picachu_ir::kernels::{
    kernel_library, relu_kernel, rmsnorm_kernel, silu_kernel, softmax_kernel, swiglu_kernel,
};

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn mapping(&mut self, m: &Result<Mapping, MapError>) {
        match m {
            Ok(m) => {
                self.u64(u64::from(m.ii));
                self.u64(u64::from(m.schedule_len));
                self.u64(m.placements.len() as u64);
                for p in &m.placements {
                    self.u64(p.node.0 as u64);
                    self.u64(p.tile as u64);
                    self.u64(u64::from(p.time));
                }
            }
            Err(_) => self.u64(u64::MAX),
        }
    }
}

fn greedy_library_fingerprint(size: usize) -> u64 {
    let spec = CgraSpec::picachu(size, size);
    let mut h = Fnv::new();
    for k in kernel_library(4) {
        for l in &k.loops {
            h.mapping(&map_dfg(&fuse_patterns(&l.dfg), &spec, 7));
        }
    }
    h.0
}

#[test]
fn greedy_library_mappings_are_frozen_at_4x4() {
    assert_eq!(greedy_library_fingerprint(4), 0x9fe7_c47c_e21a_8f46);
}

#[test]
fn greedy_library_mappings_are_frozen_at_8x8() {
    assert_eq!(greedy_library_fingerprint(8), 0xa230_89e5_9eb6_3718);
}

#[test]
fn annealed_mappings_and_routes_are_frozen_at_16x16() {
    let spec = CgraSpec::picachu(16, 16);
    let mask = ResourceMask::full(&spec);
    let (mut maps, mut routes) = (Fnv::new(), Fnv::new());
    for k in [relu_kernel(), silu_kernel(4), swiglu_kernel(4), rmsnorm_kernel()] {
        for l in &k.loops {
            for uf in [1, 2] {
                let dfg = fuse_patterns(&unroll(&l.dfg, uf));
                let m = map_dfg(&dfg, &spec, 7);
                maps.mapping(&m);
                let Ok(m) = m else { continue };
                let rs = route_mapping(&dfg, &spec, &mask, m.ii, &m.placements)
                    .expect("an accepted mapping routes");
                routes.u64(rs.overused_channel_slots);
                for e in &rs.edges {
                    routes.u64(u64::from(e.depart));
                    for (&t, &f) in e.tiles.iter().zip(e.folded.iter().chain([&false])) {
                        routes.u64(t as u64);
                        routes.u64(u64::from(f));
                    }
                }
            }
        }
    }
    assert_eq!((maps.0, routes.0), (0x501b_8110_65f7_5e78, 0x8a7c_c77e_0176_dc4c));
}

#[test]
fn degraded_map_and_repair_are_frozen() {
    let spec = CgraSpec::picachu(4, 4);
    let k = softmax_kernel(4);
    let mut h = Fnv::new();
    // a from-scratch map around a dead tile and a dead link
    let mask = ResourceMask::degraded(&spec, [5], [(9, 10)]);
    h.mapping(&map_dfg_with(&fuse_patterns(&k.loops[1].dfg), &spec, 42, &mask, None));
    // the II=1 repair that needs critical-path widening
    let fused = fuse_patterns(&k.loops[2].dfg);
    let base = map_dfg(&fused, &spec, 7).expect("healthy map");
    let mask = ResourceMask::degraded(&spec, [14], []);
    let repaired = repair_mapping(&fused, &spec, 7, &mask, &base).ok_or(MapError::EmptyDfg);
    h.mapping(&repaired);
    assert_eq!(h.0, 0x7568_9ad2_248c_405f);
}
