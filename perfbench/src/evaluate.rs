//! `evaluate`: warm evaluation. Set-up leaves the compile cache warm, so
//! the mapper does no work in a pass, which runs three phases, each timed
//! on its own:
//!
//! - traces: an FP16 and an INT16 engine, warmed in set-up, build, execute
//!   and price prefill and batched-decode traces of the five evaluation
//!   models at seeded lengths (`execute_model` is
//!   `execute_trace(&model_trace(..))`; the two calls are made apart so the
//!   traced run can time them apart).
//! - verify: the oracle's differential sweep, run cold in set-up, runs warm
//!   (IR interpreter and `CgraSimulator` against the analytical
//!   accounting).
//! - accuracy: the `Scheme` per-op kernels in FP16 and INT16 over seeded
//!   samples of the Table 5 activation distributions, drawn with their f64
//!   references in set-up.
//!
//! The pass time is the sum over phases of each phase's fastest sample, and
//! each phase's named rate comes from its own fastest sample. The phases
//! share one workload, and so one run, because the host's slow states last
//! long enough that a short run per phase did not give steady times.

use crate::trace::{unit_id, Tracer};
use crate::util::{derive, fastest, timed, Digest};
use crate::{Corrupt, Opts, Report};
use picachu::cgra::{CgraConfig, CgraSimulator};
use picachu::compile_cache;
use picachu::engine::{kernel_for, EngineConfig, PicachuEngine};
use picachu::ir::{interpret, Opcode};
use picachu::llm::trace::{batched_decode_trace, model_trace};
use picachu::llm::{ModelConfig, TraceOp};
use picachu::nonlinear::accuracy::{Distribution, Scheme};
use picachu::nonlinear::kernels::{activation, norm, softmax};
use picachu::nonlinear::NonlinearOp;
use picachu::num::{DataFormat, Fp16, QuantParams};
use picachu_oracle::report::{CaseCtx, OracleReport};
use picachu_oracle::{numerics, run_sweep, timing, SweepConfig};
use picachu_testkit::TestRng;
use std::time::Instant;

/// Traces per (engine, model, phase) and pass.
const TRACES_PER_PHASE: usize = 64;
/// Scheme-kernel channels per op and pass, and their length (Table 5 uses
/// 4096-element channels).
const CHANNELS: usize = 12;
const CHANNEL_LEN: usize = 4096;
/// Set-up samples per run of each part (engine warm-up, cold sweep, input
/// draw); a cold sweep takes seconds.
const SETUP_REPS: usize = 2;

/// Per-element error bound of a `Scheme` kernel output `got_i` against the
/// f64 reference `ref_i` evaluated on the same rounded inputs (FP16
/// round-trip, or the kernel's INT16 input quantization), as the oracle
/// does: `|got_i - ref_i| <= tolerance(op, format) + REL * m_i + q_i`.
/// `m_i` is `|ref_i|`, or `max(|ref_i|, |x_i|)` for the element-wise
/// activations, whose INT16 kernels read a fixed-domain table and so err in
/// proportion to the input. `q_i` is the output quantum: half an FP16 ulp
/// of `ref_i`, or `INT16_STEPS` INT16 output steps. On seeds 1–10 the worst
/// error is 0.33 of the bound in FP16 and 0.63 in INT16 (GELU), so the
/// bound has 1.5× headroom; a 100% error on a typical softmax entry
/// (about 1/4096) exceeds it in both formats.
const FP16_REL: f64 = 1.0 / 1024.0;
const INT16_REL: f64 = 1.0 / 128.0;
const INT16_STEPS: f64 = 4.0;

struct Kernel {
    op: NonlinearOp,
    span: &'static str,
    dist: Distribution,
}

const KERNELS: [Kernel; 5] = [
    Kernel {
        op: NonlinearOp::Softmax,
        span: "nonlinear.softmax_s",
        dist: Distribution::AttentionLogits,
    },
    Kernel {
        op: NonlinearOp::Gelu,
        span: "nonlinear.gelu_s",
        dist: Distribution::BertLike,
    },
    Kernel {
        op: NonlinearOp::Silu,
        span: "nonlinear.silu_s",
        dist: Distribution::LlamaWide,
    },
    Kernel {
        op: NonlinearOp::LayerNorm,
        span: "nonlinear.layernorm_s",
        dist: Distribution::LlamaWide,
    },
    Kernel {
        op: NonlinearOp::RmsNorm,
        span: "nonlinear.rmsnorm_s",
        dist: Distribution::LlamaWide,
    },
];

const SCHEMES: [(Scheme, DataFormat); 2] = [
    (Scheme::PicachuFp16, DataFormat::Fp16),
    (Scheme::PicachuInt16, DataFormat::Int16),
];

fn apply(scheme: Scheme, op: NonlinearOp, x: &[f32]) -> Vec<f32> {
    match op {
        NonlinearOp::Softmax => scheme.softmax(x),
        NonlinearOp::Gelu => scheme.gelu(x),
        NonlinearOp::Silu => scheme.silu(x),
        NonlinearOp::LayerNorm => scheme.layernorm(x),
        _ => scheme.rmsnorm(x),
    }
}

fn reference(op: NonlinearOp, xd: &[f64]) -> Vec<f64> {
    match op {
        NonlinearOp::Softmax => softmax::softmax_ref(xd),
        NonlinearOp::Gelu => xd.iter().map(|&v| activation::gelu_tanh_ref(v)).collect(),
        NonlinearOp::Silu => xd.iter().map(|&v| activation::silu_ref(v)).collect(),
        NonlinearOp::LayerNorm => norm::layernorm_ref(xd),
        _ => norm::rmsnorm_ref(xd),
    }
}

/// One trace of phase (a): prefill at `len`, or a decode step of `batch`
/// sequences at context `len`.
#[derive(Clone, Copy)]
struct Shape {
    decode: bool,
    len: usize,
    batch: usize,
}

fn engine_config(format: DataFormat) -> EngineConfig {
    EngineConfig {
        format,
        ..EngineConfig::default()
    }
}

/// The reference of one `Scheme` kernel channel and its error bound.
struct Reference {
    out: Vec<f64>,
    /// `m_i` of the bound (see `FP16_REL`).
    magnitude: Vec<f64>,
    /// The INT16 output step; 0 in FP16.
    step: f64,
}

impl Reference {
    fn new(op: NonlinearOp, format: DataFormat, x: &[f32]) -> Reference {
        let params = QuantParams::calibrate(x, 16);
        let rounded: Vec<f64> = x
            .iter()
            .map(|&v| match format {
                DataFormat::Fp16 => f64::from(Fp16::round_trip(v)),
                _ => params.dequantize(params.quantize(f64::from(v))),
            })
            .collect();
        let out = reference(op, &rounded);
        let elementwise = matches!(op, NonlinearOp::Gelu | NonlinearOp::Silu);
        let magnitude = out
            .iter()
            .zip(&rounded)
            .map(|(r, x)| {
                if elementwise {
                    r.abs().max(x.abs())
                } else {
                    r.abs()
                }
            })
            .collect();
        let step = match (format, op) {
            (DataFormat::Fp16, _) => 0.0,
            (_, NonlinearOp::Softmax) => 1.0 / 32768.0,
            (_, NonlinearOp::LayerNorm | NonlinearOp::RmsNorm) => {
                QuantParams::from_max_abs(8.0, 16).scale
            }
            _ => params.scale,
        };
        Reference {
            out,
            magnitude,
            step,
        }
    }

    /// The largest ratio of error to bound over the channel: above 1 (or
    /// NaN, or infinite on a length mismatch) fails the check.
    fn worst_ratio(&self, op: NonlinearOp, format: DataFormat, got: &[f32]) -> f64 {
        if got.len() != self.out.len() {
            return f64::INFINITY;
        }
        let tol = numerics::tolerance(op, format);
        got.iter()
            .zip(&self.out)
            .zip(&self.magnitude)
            .map(|((&g, &r), &m)| {
                let bound = match format {
                    DataFormat::Fp16 => tol + FP16_REL * m + half_ulp_fp16(r),
                    _ => tol + INT16_REL * m + INT16_STEPS * self.step,
                };
                (f64::from(g) - r).abs() / bound
            })
            .fold(0.0, |w, e| if e > w || e.is_nan() { e } else { w })
    }
}

/// Half an FP16 ulp at `r` (half the subnormal step below the normal
/// range).
fn half_ulp_fp16(r: f64) -> f64 {
    let a = r.abs();
    if a < 2f64.powi(-14) {
        2f64.powi(-25)
    } else {
        2f64.powi(a.log2().floor() as i32 - 11)
    }
}

/// The pass's sim digest, flipped on the second pass when the self-test
/// asks for a corrupted output.
fn finish(opts: &Opts, digest: Digest, pass: usize) -> u64 {
    let d = digest.finish();
    if opts.corrupt == Some(Corrupt::Digest) && pass == 1 {
        d ^ 1
    } else {
        d
    }
}

/// The seeded inputs of one run: the trace shapes of every model and the
/// `Scheme` kernel channels of every kernel.
struct Inputs {
    models: Vec<ModelConfig>,
    shapes: Vec<Vec<Shape>>,
    channels: usize,
    channel_len: usize,
}

fn inputs(opts: &Opts) -> Inputs {
    let mut rng = TestRng::seed_from_u64(derive(opts.seed, 2));
    let models: Vec<ModelConfig> = if opts.tiny {
        vec![ModelConfig::gpt2_xl()]
    } else {
        ModelConfig::evaluation_set()
    };
    let per_phase = if opts.tiny { 2 } else { TRACES_PER_PHASE };
    let shapes = models
        .iter()
        .map(|_| {
            let mut v = Vec::new();
            for _ in 0..per_phase {
                v.push(Shape {
                    decode: false,
                    len: rng.gen_range(32..=2048),
                    batch: 1,
                });
            }
            for _ in 0..per_phase {
                let batch = 1usize << rng.gen_range(0..=3u32);
                v.push(Shape {
                    decode: true,
                    len: rng.gen_range(64..=4096),
                    batch,
                });
            }
            v
        })
        .collect();
    let (channels, channel_len) = if opts.tiny {
        (1, 256)
    } else {
        (CHANNELS, CHANNEL_LEN)
    };
    Inputs {
        models,
        shapes,
        channels,
        channel_len,
    }
}

/// The `Scheme` kernel inputs of every (kernel, channel) and the reference
/// of every (kernel, scheme, channel).
type Drawn = (Vec<Vec<Vec<f32>>>, Vec<Vec<Vec<Reference>>>);

fn draw(opts: &Opts, inp: &Inputs) -> Drawn {
    let inputs: Vec<Vec<Vec<f32>>> = KERNELS
        .iter()
        .enumerate()
        .map(|(k, kern)| {
            (0..inp.channels)
                .map(|c| {
                    kern.dist.sample(
                        inp.channel_len,
                        derive(opts.seed, 100 + (k * inp.channels + c) as u64),
                    )
                })
                .collect()
        })
        .collect();
    let refs = KERNELS
        .iter()
        .zip(&inputs)
        .map(|(kern, xs)| {
            SCHEMES
                .iter()
                .map(|&(_, f)| xs.iter().map(|x| Reference::new(kern.op, f, x)).collect())
                .collect()
        })
        .collect();
    (inputs, refs)
}

/// The timed parts of a set-up and of a pass, in order.
const SETUP_PARTS: [&str; 3] = ["engine warm-up", "cold sweep", "input draw"];
const PHASES: [&str; 3] = ["traces", "verify", "accuracy"];

pub fn run(opts: &Opts, tr: &mut Tracer) -> Report {
    let mut rep = Report::default();
    let inp = inputs(opts);
    let sweep = if opts.tiny {
        SweepConfig::smoke()
    } else {
        SweepConfig::full()
    };

    // set-up, several times: (a) a cold warm-up of both engines, (b) the
    // sweep's first, cold run, (c) the kernel inputs and their references.
    // The last sweep leaves its kernels in the cache; the engines keep
    // theirs.
    let reps = if opts.tiny { 1 } else { SETUP_REPS };
    let mut setup_parts: [Vec<f64>; 3] = Default::default();
    let mut engines: Vec<PicachuEngine> = Vec::new();
    for _ in 0..reps {
        compile_cache::clear();
        let (built, secs) = timed(|| {
            SCHEMES
                .iter()
                .map(|&(_, f)| {
                    let mut e = PicachuEngine::new(engine_config(f));
                    e.prewarm(&NonlinearOp::ALL)
                        .map(|()| e)
                        .map_err(|e| e.to_string())
                })
                .collect::<Result<Vec<_>, _>>()
        });
        setup_parts[0].push(secs);
        match built {
            Ok(e) => engines = e,
            Err(e) => {
                rep.info.push(format!("engine warm-up failed: {e}"));
                rep.check("engines warm up", false);
                return rep;
            }
        }
    }
    let mut cold_green = true;
    for _ in 0..reps {
        compile_cache::clear();
        let (cold, secs) = timed(|| run_sweep(&sweep));
        setup_parts[1].push(secs);
        cold_green &= cold.is_green();
    }
    rep.check("cold sweep is green", cold_green);
    let mut drawn = None;
    for _ in 0..reps {
        let (d, secs) = timed(|| draw(opts, &inp));
        setup_parts[2].push(secs);
        drawn = Some(d);
    }
    let Some((kernel_inputs, refs)) = drawn else {
        return rep;
    };
    rep.setup_s = (0..reps)
        .map(|i| setup_parts.iter().map(|p| p[i]).sum())
        .collect();
    rep.setup = setup_parts.iter().map(|p| fastest(p)).sum();
    let (hits0, misses0) = compile_cache::stats();

    let traces: usize = inp.shapes.iter().map(Vec::len).sum::<usize>() * engines.len();
    let mut phase_s: [Vec<f64>; 3] = Default::default();
    let mut digests = Vec::new();
    let mut bad_traces = 0u64;
    let mut cases = 0usize;
    let mut warm_green = true;
    let mut worst = 0.0f64;
    let mut bad_channels = 0u64;
    let mut channels = 0usize;
    let mut elems = 0usize;
    let start = Instant::now();
    let mut pass = 0usize;
    while pass < 2 || start.elapsed().as_secs_f64() < opts.seconds {
        let mut digest = Digest::new();

        // (a) traces
        let ((), secs) = timed(|| {
            tr.span("evaluate.traces", 0, |tr| {
                for (ei, engine) in engines.iter_mut().enumerate() {
                    for (mi, model) in inp.models.iter().enumerate() {
                        for s in &inp.shapes[mi] {
                            let unit =
                                unit_id(&[ei as u64, mi as u64, s.len as u64, u64::from(s.decode)]);
                            let trace = tr.span("llm.trace.build_s", unit, |_| {
                                if s.decode {
                                    batched_decode_trace(model, s.len, s.batch)
                                } else {
                                    model_trace(model, s.len)
                                }
                            });
                            let b = tr.span("core.dispatch.execute_trace_s", unit, |_| {
                                engine.execute_trace(&trace)
                            });
                            let e =
                                tr.span("core.account.energy_s", unit, |_| engine.energy_nj(&b));
                            if tr.on() {
                                tr.span("evaluate.replay", unit, |tr| {
                                    replay_trace(tr, engine, &trace, unit)
                                });
                            }
                            for v in [b.gemm, b.nonlinear, b.data_movement, b.overhead, e] {
                                digest.f64(v);
                            }
                            if !(b.total() > 0.0 && e.is_finite() && e > 0.0) {
                                bad_traces += 1;
                            }
                        }
                    }
                }
            })
        });
        phase_s[0].push(secs);

        // (b) the warm sweep
        let (report, secs) = timed(|| {
            tr.span("evaluate.verify", 0, |tr| {
                if tr.on() {
                    sweep_traced(&sweep, tr)
                } else {
                    run_sweep(&sweep)
                }
            })
        });
        phase_s[1].push(secs);
        cases = report.cases;
        rep.attempted += report.cases as u64;
        rep.failed += report.discrepancies.len() as u64;
        if !report.is_green() {
            warm_green = false;
            rep.info.push(format!(
                "pass {pass}: oracle discrepancies: {}",
                report.discrepancies.len()
            ));
        }
        digest_oracle(&mut digest, &report);

        // (c) the Scheme kernels
        let (outputs, secs) = timed(|| {
            tr.span("evaluate.accuracy", 0, |tr| {
                let mut outs: Vec<Vec<f32>> =
                    Vec::with_capacity(KERNELS.len() * SCHEMES.len() * inp.channels);
                for (k, kern) in KERNELS.iter().enumerate() {
                    for (si, &(scheme, _)) in SCHEMES.iter().enumerate() {
                        for (c, x) in kernel_inputs[k].iter().enumerate() {
                            let unit = unit_id(&[k as u64, si as u64, c as u64]);
                            outs.push(tr.span(kern.span, unit, |_| apply(scheme, kern.op, x)));
                        }
                    }
                }
                outs
            })
        });
        phase_s[2].push(secs);
        // checks (untimed)
        let mut outs = outputs.iter();
        for (k, kern) in KERNELS.iter().enumerate() {
            for (si, &(_, format)) in SCHEMES.iter().enumerate() {
                for r in &refs[k][si] {
                    let Some(got) = outs.next() else { continue };
                    let ratio = r.worst_ratio(kern.op, format, got);
                    worst = if ratio.is_nan() {
                        f64::INFINITY
                    } else {
                        worst.max(ratio)
                    };
                    if ratio.is_nan() || ratio > 1.0 {
                        bad_channels += 1;
                    }
                    for &g in got {
                        digest.u64(u64::from(g.to_bits()));
                    }
                }
            }
        }
        channels = outputs.len();
        elems = outputs.iter().map(Vec::len).sum();
        rep.attempted += (traces + channels) as u64;

        rep.pass_s.push(phase_s.iter().map(|p| p[pass]).sum());
        digests.push(finish(opts, digest, pass));
        pass += 1;
    }
    rep.failed += bad_traces + bad_channels;
    rep.passes = pass;
    rep.digest = digests[0];
    rep.check(
        "sim digest repeats across passes",
        digests.iter().all(|&d| d == digests[0]),
    );
    let (hits, misses) = compile_cache::stats();
    tr.count("core.compile_cache.hits", (hits - hits0) as f64);
    tr.count("core.compile_cache.misses", (misses - misses0) as f64);
    rep.check(
        "every trace prices to positive finite time and energy",
        bad_traces == 0,
    );
    rep.check("warm sweep is green on every pass", warm_green);
    rep.check(
        "every Scheme kernel element within its error bound",
        bad_channels == 0,
    );
    rep.check("no compile misses after set-up", misses == misses0);

    let fast = phase_s.each_ref().map(|p| fastest(p));
    rep.pass = fast.iter().sum();
    rep.named
        .push(("eval.traces_per_s", traces as f64 / fast[0]));
    rep.named
        .push(("verify.cases_per_s", cases as f64 / fast[1]));
    rep.named
        .push(("accuracy.melem_per_s", elems as f64 / fast[2] / 1e6));
    let parts = |names: [&str; 3], v: [f64; 3]| {
        let total: f64 = v.iter().sum();
        names
            .iter()
            .zip(v)
            .map(|(n, s)| format!("{n} {s} s ({:.2})", s / total))
            .collect::<Vec<_>>()
            .join(", ")
    };
    rep.info.push(format!(
        "set-up parts, fastest sample (share): {}",
        parts(SETUP_PARTS, setup_parts.each_ref().map(|p| fastest(p)))
    ));
    rep.info.push(format!(
        "pass phases, fastest sample (share): {}",
        parts(PHASES, fast)
    ));
    rep.info.push(format!(
        "per pass {traces} traces, {cases} oracle cases, {channels} kernel channels of \
         {elems} elements; worst kernel error / bound {worst:.4}"
    ));
    if tr.on() {
        let iters = tr.counter("cgra.sim.iterations");
        if iters > 0.0 {
            tr.set(
                "cgra.sim.host_ns_per_iteration",
                tr.total_s("cgra.sim.run_s") * 1e9 / iters,
            );
        }
        // replays re-run work the direct calls already did: they are
        // layer detail, not part of the pass
        let mut direct = tr.total_of(&[
            "llm.trace.build_s",
            "core.dispatch.execute_trace_s",
            "core.account.energy_s",
            "oracle.timing.case_s",
            "oracle.numerics.case_s",
        ]);
        direct += tr.total_of(&KERNELS.map(|k| k.span));
        let pass_s = tr.total_of(&["evaluate.traces", "evaluate.verify", "evaluate.accuracy"])
            - tr.total_s("evaluate.replay");
        tr.set("trace.coverage", direct / pass_s.max(1e-12));
    }
    rep
}

/// Replays the layers `execute_trace` drives for one trace: the systolic
/// array's GEMM cycles and the compiled kernels' raw compute cycles.
fn replay_trace(tr: &mut Tracer, engine: &mut PicachuEngine, trace: &[TraceOp], unit: u64) {
    tr.count("core.dispatch.trace_ops", trace.len() as f64);
    tr.span("systolic.gemm_cycles_s", unit, |_| {
        let sa = engine.systolic();
        trace
            .iter()
            .map(|t| match *t {
                TraceOp::Gemm { m, k, n, count } => sa.gemm_cycles(m, k, n) * count as u64,
                TraceOp::Nonlinear { .. } => 0,
            })
            .sum::<u64>()
    });
    tr.span("core.engine.nonlinear_cycles_s", unit, |_| {
        trace
            .iter()
            .map(|t| match *t {
                TraceOp::Nonlinear { op, rows, channel } => {
                    engine.nonlinear_compute_cycles(op, rows, channel)
                }
                TraceOp::Gemm { .. } => 0,
            })
            .sum::<u64>()
    });
}

fn digest_oracle(d: &mut Digest, r: &OracleReport) {
    d.u64(r.cases as u64);
    d.u64(r.checks);
    d.u64(r.discrepancies.len() as u64);
    for n in &r.numerics {
        d.str(&format!("{:?}/{:?}", n.op, n.format));
        d.f64(n.max_abs);
        d.u64(n.max_ulp);
    }
}

/// `run_sweep` with a span around every case, plus replays of the
/// simulator and interpreter calls the cases make. Same cases, engines
/// and seeds as `run_sweep`, so the report (and the digest) is the same.
fn sweep_traced(cfg: &SweepConfig, tr: &mut Tracer) -> OracleReport {
    let mut report = OracleReport::default();
    let mut index = 0usize;
    for tier in &cfg.tiers {
        for &format in &tier.formats {
            let mut engine = PicachuEngine::new(EngineConfig {
                cgra_rows: tier.geometry.0,
                cgra_cols: tier.geometry.1,
                format,
                taylor_terms: cfg.taylor_terms,
                unroll_candidates: tier.unroll_candidates.clone(),
                seed: cfg.seed,
                ..EngineConfig::default()
            });
            let mut engine_checked = false;
            for &op in &cfg.ops {
                for &(rows, channel) in &cfg.shapes {
                    let ctx = CaseCtx {
                        index,
                        op,
                        rows,
                        channel,
                        format,
                        cgra: tier.geometry,
                        seed: cfg.seed,
                    };
                    index += 1;
                    let unit = unit_id(&[ctx.index as u64]);
                    tr.span("oracle.timing.case_s", unit, |_| {
                        if !engine_checked {
                            timing::check_energy(&mut report, ctx, &engine);
                            engine_checked = true;
                        }
                        timing::check_case(&mut report, ctx, &mut engine);
                    });
                    report.cases += 1;
                    tr.span("evaluate.replay", unit, |tr| {
                        replay_sim(tr, &mut engine, op, (rows * channel) as u64, unit)
                    });
                }
            }
        }
    }
    for &format in &cfg.numerics_formats {
        for &op in &cfg.ops {
            let ctx = CaseCtx {
                index,
                op,
                rows: 1,
                channel: numerics::NUMERICS_N,
                format,
                cgra: (0, 0),
                seed: cfg.seed,
            };
            index += 1;
            let unit = unit_id(&[ctx.index as u64]);
            tr.span("oracle.numerics.case_s", unit, |_| {
                numerics::check_case(&mut report, ctx, cfg.taylor_terms)
            });
            report.cases += 1;
            tr.span("evaluate.replay", unit, |tr| {
                replay_interp(tr, op, cfg.taylor_terms, unit)
            });
        }
    }
    report
}

/// Replays the simulator runs of one timing case: every compiled loop is
/// lowered to a fabric configuration and simulated at the iteration counts
/// the timing oracle probes.
fn replay_sim(tr: &mut Tracer, engine: &mut PicachuEngine, op: NonlinearOp, elems: u64, unit: u64) {
    let loops = engine.compile_op(op).to_vec();
    for (idx, l) in loops.iter().enumerate() {
        let dfg = engine.lowered_dfg(op, idx, l.uf, l.vf);
        let spec = engine.spec();
        let config = tr.span("cgra.config.from_mapping_s", unit, |_| {
            CgraConfig::from_mapping(&dfg, &l.mapping, spec)
        });
        let sim = CgraSimulator::new(spec, &dfg, &config);
        let iters = elems.div_ceil(l.elements_per_ii() as u64).max(1);
        for k in [0, 1, 2, iters, 100_000] {
            tr.span("cgra.sim.run_s", unit, |_| sim.run(k));
            tr.count("cgra.sim.iterations", k as f64);
        }
    }
}

/// Replays the interpreter over every loop body of `op`'s kernel.
fn replay_interp(tr: &mut Tracer, op: NonlinearOp, terms: usize, unit: u64) {
    let n = numerics::NUMERICS_N;
    let x: Vec<f32> = (0..n).map(|i| (i as f32 / n as f32) * 8.0 - 4.0).collect();
    let params = [1.0f32; 8];
    for l in kernel_for(op, terms).loops {
        let loads = l
            .dfg
            .nodes()
            .iter()
            .filter(|nd| nd.op == Opcode::Load)
            .count();
        let streams: Vec<&[f32]> = vec![&x; loads];
        let _ = tr.span("ir.interp.interpret_s", unit, |_| {
            interpret(&l.dfg, n, &streams, &params)
        });
        tr.count("ir.interp.elements", n as f64);
    }
}
