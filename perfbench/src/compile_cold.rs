//! `compile`: a cold compile of the Table 1 kernel library on two tiers of
//! fabrics.
//!
//! Each pass clears the compile cache, builds fresh engines for every
//! fabric and the kernel library of every op (timed as set-up) and
//! prewarms the engines one op at a time: the paper tier (4×4 FP16, 4×4
//! INT16, 8×8 FP16, all nine ops) takes the greedy mapper path, the large
//! tier (16×16 FP16, a fixed op subset) the annealed placement and rip-up
//! routing path. Each (fabric, op) prewarm is a timed unit. A tier's named
//! time is the sum over its units of each one's fastest sample, and the
//! pass time is the sum of the two. The seed permutes the order ops are
//! submitted in, anew each pass; an op's cache entries are its own, so a
//! unit does the same work in any order, and mappings must not depend on
//! it. The traced run replays every (loop × unroll) candidate serially
//! through the compiler's public passes after the prewarm.

use crate::trace::{unit_id, Tracer};
use crate::util::{derive, fastest, timed, Digest};
use crate::{Corrupt, Opts, Report};
use picachu::compile_cache;
use picachu::compiler::mapper::{map_dfg_with, pnr_report, route_mapping, Mapping, ResourceMask};
use picachu::engine::{kernel_for, EngineConfig, PicachuEngine};
use picachu::nonlinear::NonlinearOp;
use picachu::num::DataFormat;
use picachu_testkit::TestRng;
use std::time::Instant;

/// One fabric configuration of a tier.
struct Fabric {
    size: usize,
    format: DataFormat,
    map_span: &'static str,
}

struct Tier {
    fabrics: Vec<Fabric>,
    ops: Vec<NonlinearOp>,
    /// The named end-to-end metrics: cold pass time and II sum.
    time_metric: &'static str,
    ii_metric: &'static str,
    prewarm_span: &'static str,
    candidates: &'static str,
    rejected: &'static str,
    useful: &'static str,
    kept: &'static str,
    route_span: &'static str,
    report_span: &'static str,
    unattributed: &'static str,
}

/// The large tier compiles a subset: the full library at 16×16 takes
/// 12.7–14.2 s per pass on a 2-core host (softmax alone 7.4 s), while
/// these four ops (one element-wise op per activation family plus a
/// reduction kernel) take about 2.2 s and still run every stage of the
/// annealed pipeline.
const LARGE_OPS: [NonlinearOp; 4] = [
    NonlinearOp::Relu,
    NonlinearOp::Silu,
    NonlinearOp::Swiglu,
    NonlinearOp::RmsNorm,
];

/// The paper tier and the large tier.
fn tiers(tiny: bool) -> [Tier; 2] {
    let fab = |size, format, map_span| Fabric {
        size,
        format,
        map_span,
    };
    let paper = Tier {
        fabrics: if tiny {
            vec![fab(4, DataFormat::Fp16, "compiler.mapper.map_s.4x4")]
        } else {
            vec![
                fab(4, DataFormat::Fp16, "compiler.mapper.map_s.4x4"),
                fab(4, DataFormat::Int16, "compiler.mapper.map_s.4x4"),
                fab(8, DataFormat::Fp16, "compiler.mapper.map_s.8x8"),
            ]
        },
        ops: if tiny {
            vec![NonlinearOp::Relu, NonlinearOp::Softmax]
        } else {
            NonlinearOp::ALL.to_vec()
        },
        time_metric: "compile.paper_s",
        ii_metric: "compile.paper_ii_sum",
        prewarm_span: "core.compile.prewarm_s.paper",
        candidates: "compiler.mapper.candidates.paper",
        rejected: "compiler.mapper.rejected.paper",
        useful: "compiler.mapper.useful_ratio.paper",
        kept: "compiler.mapper.kept.paper",
        route_span: "compiler.mapper.route_s.paper",
        report_span: "compiler.mapper.report_s.paper",
        unattributed: "core.compile.unattributed_s.paper",
    };
    let large = Tier {
        fabrics: vec![fab(16, DataFormat::Fp16, "compiler.mapper.map_s.16x16")],
        ops: if tiny {
            vec![NonlinearOp::Relu]
        } else {
            LARGE_OPS.to_vec()
        },
        time_metric: "compile.large_s",
        ii_metric: "compile.large_ii_sum",
        prewarm_span: "core.compile.prewarm_s.large",
        candidates: "compiler.mapper.candidates.large",
        rejected: "compiler.mapper.rejected.large",
        useful: "compiler.mapper.useful_ratio.large",
        kept: "compiler.mapper.kept.large",
        route_span: "compiler.mapper.route_s.large",
        report_span: "compiler.mapper.report_s.large",
        unattributed: "core.compile.unattributed_s.large",
    };
    [paper, large]
}

fn config(f: &Fabric) -> EngineConfig {
    EngineConfig {
        cgra_rows: f.size,
        cgra_cols: f.size,
        format: f.format,
        ..EngineConfig::default()
    }
}

/// Set-up samples per pass. One set-up takes microseconds, too short to
/// time alone on a shared host, so each sample times a block of
/// `SETUP_BLOCK` set-ups and reports the time per set-up.
const SETUP_SAMPLES: usize = 5;
const SETUP_BLOCK: usize = 200;

/// One timed unit: the prewarm of `op` on fabric `fabric` of tier `tier`.
struct Unit {
    tier: usize,
    fabric: usize,
    op: NonlinearOp,
    samples: Vec<f64>,
}

pub fn run(opts: &Opts, tr: &mut Tracer) -> Report {
    let tiers = tiers(opts.tiny);
    let mut rng = TestRng::seed_from_u64(derive(opts.seed, 1));
    let mut rep = Report::default();
    let mut ii_sums: Vec<[u64; 2]> = Vec::new();
    let mut digests: Vec<u64> = Vec::new();
    let mut replay_mismatch = 0u64;
    // host seconds of each tier's replay
    let mut replayed = [0.0f64; 2];
    let mut chan_util: Vec<f64> = Vec::new();
    let build = |t: &Tier| -> Vec<PicachuEngine> {
        t.fabrics
            .iter()
            .map(|f| PicachuEngine::new(config(f)))
            .collect()
    };
    // set-up: the engines of every tier and the kernel library they will
    // lower
    let setup = || {
        let engines: Vec<Vec<PicachuEngine>> = tiers.iter().map(build).collect();
        let terms = engines[0][0].config.taylor_terms;
        let kernels: Vec<_> = tiers
            .iter()
            .flat_map(|t| t.ops.iter().map(|&op| kernel_for(op, terms)))
            .collect();
        (engines, kernels)
    };
    // the timed units, and the indices of each fabric's units
    let mut units: Vec<Unit> = Vec::new();
    let mut fabric_units: Vec<Vec<usize>> = Vec::new();
    for (ti, t) in tiers.iter().enumerate() {
        for fi in 0..t.fabrics.len() {
            fabric_units.push((units.len()..units.len() + t.ops.len()).collect());
            units.extend(t.ops.iter().map(|&op| Unit {
                tier: ti,
                fabric: fi,
                op,
                samples: Vec::new(),
            }));
        }
    }
    let start = Instant::now();
    let mut pass = 0usize;
    while pass < 2 || start.elapsed().as_secs_f64() < opts.seconds {
        compile_cache::clear();
        for _ in 0..SETUP_SAMPLES {
            let ((), s) = timed(|| {
                for _ in 0..SETUP_BLOCK {
                    std::hint::black_box(setup());
                }
            });
            rep.setup_s.push(s / SETUP_BLOCK as f64);
        }
        let mut engines: Vec<Vec<PicachuEngine>> = tiers.iter().map(build).collect();

        // inputs: the op submission order of every fabric
        for order in &mut fabric_units {
            rng.shuffle(order);
        }
        // a failed prewarm is counted by the probe below
        let mut pass_s = 0.0;
        for &k in fabric_units.iter().flatten() {
            let u = &mut units[k];
            let engine = &mut engines[u.tier][u.fabric];
            let unit = unit_id(&[u.op as u64, u.tier as u64, u.fabric as u64]);
            let (_prewarmed, secs) = timed(|| {
                tr.span(tiers[u.tier].prewarm_span, unit, |_| {
                    engine.prewarm(&[u.op])
                })
            });
            u.samples.push(secs);
            pass_s += secs;
        }
        rep.pass_s.push(pass_s);

        let mut digest = Digest::new();
        let mut ii_sum = [0u64; 2];
        // a failed prewarm reports only its first error, so every op is
        // probed (a cache hit when it mapped) to count each failure once
        for (ti, tier) in tiers.iter().enumerate() {
            for (fi, (engine, fabric)) in engines[ti].iter_mut().zip(&tier.fabrics).enumerate() {
                for &op in &tier.ops {
                    rep.attempted += 1;
                    let loops = match engine.try_compile_op(op) {
                        Ok(l) => l,
                        Err(_) => {
                            rep.failed += 1;
                            continue;
                        }
                    };
                    digest.str(&format!(
                        "{}x{}/{:?}/{op:?}",
                        fabric.size, fabric.size, fabric.format
                    ));
                    for l in loops.iter() {
                        ii_sum[ti] += u64::from(l.mapping.ii);
                        digest_loop(&mut digest, &l.label, &l.mapping, l.uf, l.vf);
                    }
                    if tr.on() {
                        let unit = unit_id(&[op as u64, ti as u64, fi as u64]);
                        let (bad, secs) = timed(|| {
                            replay_op(tr, tier, fabric, engine, op, &loops, unit, &mut chan_util)
                        });
                        replay_mismatch += bad;
                        replayed[ti] += secs;
                    }
                }
            }
        }
        ii_sums.push(ii_sum);
        let (hits, misses) = compile_cache::stats();
        tr.count("core.compile_cache.hits", hits as f64);
        tr.count("core.compile_cache.misses", misses as f64);

        let mut d = digest.finish();
        if opts.corrupt == Some(Corrupt::Digest) && pass == 1 {
            d ^= 1;
        }
        digests.push(d);
        pass += 1;
    }
    rep.passes = pass;
    rep.digest = digests[0];

    rep.check("every kernel maps on every fabric", rep.failed == 0);
    rep.check(
        "II sums repeat across passes",
        ii_sums.iter().all(|&x| x == ii_sums[0]),
    );
    rep.check(
        "sim digest repeats across passes",
        digests.iter().all(|&d| d == digests[0]),
    );
    if tr.on() {
        rep.check(
            "replayed mappings equal the compiled ones",
            replay_mismatch == 0,
        );
    }

    rep.setup = fastest(&rep.setup_s);
    let tier_s = [0, 1].map(|ti| {
        units
            .iter()
            .filter(|u| u.tier == ti)
            .map(|u| fastest(&u.samples))
            .sum::<f64>()
    });
    rep.pass = tier_s.iter().sum();
    for (ti, tier) in tiers.iter().enumerate() {
        rep.named.push((tier.time_metric, tier_s[ti]));
        rep.named.push((tier.ii_metric, ii_sums[0][ti] as f64));
        rep.info.push(format!(
            "{}: {} fabrics x {} ops = {} kernels per pass",
            tier.time_metric,
            tier.fabrics.len(),
            tier.ops.len(),
            tier.fabrics.len() * tier.ops.len(),
        ));
    }
    rep.info.push(format!(
        "kernels compiled {}, failed to map {}",
        rep.attempted, rep.failed
    ));

    if tr.on() {
        let mut prewarm_all = 0.0;
        for (tier, replayed) in tiers.iter().zip(replayed) {
            let prewarm = tr.total_s(tier.prewarm_span);
            tr.set(tier.unattributed, (prewarm - replayed) / pass as f64);
            let cands = tr.counter(tier.candidates);
            let mapped = cands - tr.counter(tier.rejected);
            let kept = tr.counter(tier.kept);
            tr.set(tier.useful, if mapped > 0.0 { kept / mapped } else { 0.0 });
            prewarm_all += prewarm;
        }
        if !chan_util.is_empty() {
            tr.set(
                "compiler.mapper.chan_util.16x16",
                chan_util.iter().sum::<f64>() / chan_util.len() as f64,
            );
        }
        tr.set(
            "trace.coverage",
            if prewarm_all > 0.0 {
                replayed.iter().sum::<f64>() / prewarm_all
            } else {
                0.0
            },
        );
    }
    rep
}

fn digest_loop(d: &mut Digest, label: &str, m: &Mapping, uf: usize, vf: usize) {
    d.str(label);
    d.u64(u64::from(m.ii));
    d.u64(u64::from(m.schedule_len));
    d.u64(uf as u64);
    d.u64(vf as u64);
    for p in &m.placements {
        d.u64(p.tile as u64);
        d.u64(u64::from(p.time));
    }
}

/// Replays the compile of `op` on `fabric` serially through the public
/// passes: lowering and mapping of every (loop × unroll) candidate, then
/// routing and the P&R report of the kept candidate. Returns the number of
/// loops whose replayed choice differs from the engine's compiled loop.
#[allow(clippy::too_many_arguments)]
fn replay_op(
    tr: &mut Tracer,
    tier: &Tier,
    fabric: &Fabric,
    engine: &PicachuEngine,
    op: NonlinearOp,
    compiled: &[picachu::CompiledLoop],
    unit: u64,
    chan_util: &mut Vec<f64>,
) -> u64 {
    let cfg = config(fabric);
    let spec = engine.spec();
    let full = ResourceMask::full(spec);
    let vf = cfg.format.vector_factor();
    let mut mismatches = 0;
    for (i, _) in kernel_for(op, cfg.taylor_terms).loops.iter().enumerate() {
        let mut best: Option<(Mapping, usize, picachu::ir::dfg::Dfg)> = None;
        for &uf in &cfg.unroll_candidates {
            let dfg = tr.span("compiler.transform.lower_s", unit, |_| {
                engine.lowered_dfg(op, i, uf, vf)
            });
            tr.count("compiler.transform.dfg_nodes", dfg.len() as f64);
            let mapped = tr.span(fabric.map_span, unit, |_| {
                map_dfg_with(&dfg, spec, engine.loop_seed(i), &full, None)
            });
            tr.count(tier.candidates, 1.0);
            match mapped {
                Ok(m) => {
                    let per_elem = f64::from(m.ii) / (uf * vf) as f64;
                    let better = best
                        .as_ref()
                        .is_none_or(|(b, buf, _)| per_elem < f64::from(b.ii) / (buf * vf) as f64);
                    if better {
                        best = Some((m, uf, dfg));
                    }
                }
                Err(_) => tr.count(tier.rejected, 1.0),
            }
        }
        let Some((m, uf, dfg)) = best else {
            mismatches += 1;
            continue;
        };
        tr.count(tier.kept, 1.0);
        if compiled.get(i).is_none_or(|c| c.mapping != m || c.uf != uf) {
            mismatches += 1;
        }
        tr.span(tier.route_span, unit, |_| {
            route_mapping(&dfg, spec, &full, m.ii, &m.placements)
        });
        let report = tr.span(tier.report_span, unit, |_| {
            pnr_report(&dfg, spec, &full, &m)
        });
        match report {
            Some(r) if fabric.size == 16 => chan_util.push(r.channel_utilization),
            Some(_) => {}
            None => mismatches += 1,
        }
    }
    mismatches
}
