//! `serve_chaos`: the chaos soak configuration (bursty two-priority
//! tenants, a 4-shard heterogeneous pool, crashes, degradations and compile
//! outages with retry, preemption and shedding), open-loop on a simulated
//! arrival schedule drawn from the workload seed.
//!
//! Each pass clears the compile cache, builds every pool shard with
//! `Shard::new` (timed as set-up) and then runs `serve::run` (timed as the
//! loop; its own shard builds hit the warm cache). The cache is never
//! cleared between the two: serving must not depend on process history, so
//! every pass of a configuration must produce the same `ServeReport`.

use crate::trace::{unit_id, Tracer};
use crate::util::{derive, fastest, timed, Digest};
use crate::{Corrupt, Opts, Report};
use picachu::compile_cache;
use picachu::faults::FaultPlan;
use picachu::llm::trace::{batched_decode_trace, model_trace};
use picachu::llm::ModelConfig;
use picachu::nonlinear::NonlinearOp;
use picachu::{FallbackLevel, PicachuEngine};
use picachu_serve::{
    arrival_trace, bucket_log2, chaos_schedule, run, summarize, ArrivalPattern, ChaosAction,
    ChaosConfig, RetryPolicy, ServeConfig, ServeReport, Shard, ShardSpec, Tenant,
};
use std::collections::BTreeSet;
use std::time::Instant;

/// Requests per pass: about a million events.
const REQUESTS: usize = 200_000;
/// Arrival and chaos configurations per run, drawn from the workload seed
/// and cycled pass by pass. The host time of an event depends on the
/// schedule a seed draws (queue depths, where the crashes land): with one
/// configuration per run, run medians over seeds 1–10 ranged from 0.75 to
/// 1.29 s per million events, the costliest seed being the same in two
/// sets of runs. Cycling several makes a run depend less on one draw: the
/// pass time is the mean over configurations of each one's fastest pass.
const CONFIGS: usize = 4;
const MEAN_GAP_NS: f64 = 130_000.0;

fn tiny(name: &'static str, layers: usize) -> ModelConfig {
    ModelConfig {
        name,
        layers,
        d_model: 64,
        n_heads: 4,
        d_ff: 128,
        ..ModelConfig::gpt2()
    }
}

fn tenants() -> Vec<Tenant> {
    vec![
        Tenant {
            name: "interactive",
            model: tiny("soak-interactive", 2),
            weight: 2,
            prompt: 32,
            decode: (4, 12),
            slo_ns: 1 << 21,
            priority: 0,
        },
        Tenant {
            name: "bulk",
            model: tiny("soak-bulk", 6),
            weight: 1,
            prompt: 48,
            decode: (8, 24),
            slo_ns: 1 << 26,
            priority: 1,
        },
    ]
}

fn pool() -> Vec<ShardSpec> {
    vec![
        ShardSpec::picachu(),
        ShardSpec::Gemmini,
        ShardSpec::Gpu,
        ShardSpec::Cpu,
    ]
}

fn shard_span(spec: &ShardSpec) -> &'static str {
    match spec {
        ShardSpec::Picachu(_) => "serve.pool.shard_new_s.picachu",
        ShardSpec::Gemmini => "serve.pool.shard_new_s.gemmini",
        ShardSpec::Gpu => "serve.pool.shard_new_s.gpu",
        _ => "serve.pool.shard_new_s.cpu",
    }
}

/// The soak configuration over `n` requests, with arrival and chaos seeds
/// drawn from the workload seed.
fn chaos_config(seed: u64, n: usize) -> ChaosConfig {
    let horizon_est = (n as f64 * MEAN_GAP_NS) as u64;
    ChaosConfig {
        crashes: 8,
        degradations: 8,
        compile_outages: 4,
        mean_outage_ns: (horizon_est / 24).max(1),
        ..ChaosConfig::new(derive(seed, 4), horizon_est)
    }
}

fn serve_config(seed: u64, n: usize, chaos: &ChaosConfig) -> ServeConfig {
    let pool = pool();
    ServeConfig {
        seed: derive(seed, 3),
        n_requests: n,
        max_batch: 8,
        max_in_flight: 512,
        chaos: chaos_schedule(chaos, pool.len()),
        retry: RetryPolicy::new(3, 250_000),
        preempt: true,
        shed_deadline_factor: Some(4.0),
        ..ServeConfig::new(
            tenants(),
            ArrivalPattern::Bursty {
                mean_gap_ns: MEAN_GAP_NS,
                mean_burst: 6,
            },
            pool,
        )
    }
}

fn tenant_ops(tenants: &[Tenant]) -> Vec<NonlinearOp> {
    let mut ops: BTreeSet<NonlinearOp> = BTreeSet::new();
    for t in tenants {
        ops.extend(t.model.nonlinear_ops());
    }
    ops.into_iter().collect()
}

fn digest_report(d: &mut Digest, r: &ServeReport) {
    let s = summarize(r);
    let a = &r.audit;
    for v in [
        r.events,
        r.horizon_ns,
        a.generated,
        a.admitted,
        a.completed,
        a.rejected_at_admission,
        a.rejected_after_admission,
        a.shed,
        a.abandoned,
        a.retries,
        a.preemptions,
        a.killed_batches,
        a.tokens_committed,
        a.tokens_reported,
        a.stranded,
        s.p50_latency_ns,
        s.p99_latency_ns,
        s.p50_ttft_ns,
        s.p99_ttft_ns,
        s.retries_of_completed,
    ] {
        d.u64(v);
    }
    for v in [
        s.slo_attainment,
        s.throughput_tokens_per_s,
        s.goodput_tokens_per_s,
    ] {
        d.f64(v);
    }
    for sh in &r.shards {
        d.str(&sh.backend);
        for v in [
            sh.batches,
            sh.steps,
            sh.busy_ns,
            sh.killed_batches,
            sh.preempted_batches,
            sh.wasted_ns,
        ] {
            d.u64(v);
        }
        d.f64(sh.final_capacity_factor);
        for (k, c) in &sh.cost_table {
            d.u64(
                ((k.tenant as u64) << 40)
                    | (u64::from(k.prefill) << 32)
                    | (u64::from(k.bucket) << 16)
                    | u64::from(k.batch),
            );
            d.u64(*c);
        }
    }
}

/// The fastest sample of each configuration (pass `p` runs configuration
/// `p % CONFIGS`).
fn per_config_fastest(samples: &[f64]) -> Vec<f64> {
    (0..CONFIGS)
        .map(|k| {
            let own: Vec<f64> = samples.iter().skip(k).step_by(CONFIGS).copied().collect();
            fastest(&own)
        })
        .collect()
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

pub fn run_workload(opts: &Opts, tr: &mut Tracer) -> Report {
    let n = if opts.tiny { 2_000 } else { REQUESTS };
    let tenants = tenants();
    let specs = pool();
    let configs: Vec<(ChaosConfig, ServeConfig)> = (0..CONFIGS)
        .map(|k| {
            let seed = derive(opts.seed, 10 + k as u64);
            let chaos = chaos_config(seed, n);
            let cfg = serve_config(seed, n, &chaos);
            (chaos, cfg)
        })
        .collect();
    let mut rep = Report::default();
    let mut firsts: Vec<ServeReport> = Vec::new();
    let mut digests = Vec::new();
    let mut audits_ok = true;
    let mut reports_equal = true;
    let start = Instant::now();
    let mut pass = 0usize;
    while pass < 2 * CONFIGS || start.elapsed().as_secs_f64() < opts.seconds {
        let (chaos, cfg) = &configs[pass % CONFIGS];
        let unit = unit_id(&[pass as u64]);
        if tr.on() {
            // the run's inputs, replayed: arrivals and the chaos schedule
            tr.span("serve.arrivals.trace_s", unit, |_| {
                arrival_trace(cfg.pattern, &cfg.tenants, cfg.n_requests, cfg.seed)
            });
            tr.span("serve.chaos.schedule_s", unit, |_| {
                chaos_schedule(chaos, specs.len())
            });
        }
        compile_cache::clear();
        let (mut shards, setup) = timed(|| {
            specs
                .iter()
                .enumerate()
                .map(|(id, spec)| {
                    tr.span(shard_span(spec), unit, |_| {
                        Shard::new(id, spec.clone(), &tenants, cfg.max_batch)
                    })
                })
                .collect::<Vec<Shard>>()
        });
        rep.setup_s.push(setup);
        if tr.on() {
            replay_estimates(tr, &specs, &tenants, cfg.max_batch, unit);
        }
        let (mut report, loop_s) = timed(|| tr.span("serve.sched.run_s", unit, |_| run(cfg)));
        let (hits, misses) = compile_cache::stats();
        // the trace length varies with the seed (about ±6% events), so a
        // pass is timed per million events
        rep.pass_s.push(loop_s * 1e6 / report.events.max(1) as f64);
        if tr.on() {
            tr.count("core.compile_cache.hits", hits as f64);
            tr.count("core.compile_cache.misses", misses as f64);
            for (id, spec) in specs.iter().enumerate() {
                tr.span("serve.pool.shard_new_warm_s", unit, |_| {
                    Shard::new(id, spec.clone(), &tenants, cfg.max_batch)
                });
            }
        }
        let summary = tr.span("serve.metrics.summarize_s", unit, |_| summarize(&report));
        if tr.on() {
            replay_faults(tr, &mut shards, cfg, unit);
        }

        if opts.corrupt == Some(Corrupt::Audit) && pass == 1 {
            report.audit.stranded += 1;
        }
        if let Err(e) = report.audit.check() {
            audits_ok = false;
            rep.info.push(format!("pass {pass}: audit failed: {e}"));
        }
        let a = &report.audit;
        rep.attempted += a.generated;
        rep.failed += a.stranded;
        let mut d = Digest::new();
        digest_report(&mut d, &report);
        let mut d = d.finish();
        if opts.corrupt == Some(Corrupt::Digest) && pass == 1 {
            d ^= 1;
        }
        digests.push(d);
        match firsts.get(pass % CONFIGS) {
            // the named sim metrics and layer counts are the first
            // configuration's
            None if pass == 0 => {
                let killed: u64 = report.shards.iter().map(|s| s.killed_batches).sum();
                let busy: u64 = report.shards.iter().map(|s| s.busy_ns).sum();
                let wasted: u64 = report.shards.iter().map(|s| s.wasted_ns).sum();
                let batches: u64 = report.shards.iter().map(|s| s.batches).sum();
                let span_ns = report.horizon_ns.max(1) as f64 * report.shards.len().max(1) as f64;
                rep.named
                    .push(("serve.sim_p99_ttft_ms", summary.p99_ttft_ns as f64 * 1e-6));
                rep.named
                    .push(("serve.sim_slo_attainment", summary.slo_attainment));
                rep.named
                    .push(("serve.sim_goodput_tok_per_s", summary.goodput_tokens_per_s));
                rep.info.push(format!(
                    "requests generated {}, completed {}, rejected {}, shed {}, abandoned {}, stranded {}",
                    a.generated, a.completed, summary.rejected, a.shed, a.abandoned, a.stranded
                ));
                rep.info.push(format!(
                    "events per pass {}, chaos events {}",
                    report.events,
                    cfg.chaos.len()
                ));
                tr.set("serve.sched.events", report.events as f64);
                tr.set("serve.sched.batches", batches as f64);
                tr.set("serve.sched.preemptions", a.preemptions as f64);
                tr.set("serve.sched.retries", a.retries as f64);
                tr.set("serve.sched.killed_batches", killed as f64);
                tr.set("serve.sched.shed", a.shed as f64);
                tr.set("serve.sched.abandoned", a.abandoned as f64);
                tr.set("serve.sched.busy_share", busy as f64 / span_ns);
                tr.set(
                    "serve.sched.wasted_share",
                    wasted as f64 / (busy + wasted).max(1) as f64,
                );
                tr.set(
                    "serve.sched.retry_amplification",
                    summary.retries_of_completed as f64 / summary.completed.max(1) as f64,
                );
                firsts.push(report);
            }
            None => firsts.push(report),
            Some(f) => {
                if *f != report {
                    reports_equal = false;
                    rep.info.push(format!(
                        "pass {pass}: ServeReport differs from pass {}: serving depends on process \
                         history (the compile-cache defect in ROADMAP item 0)",
                        pass % CONFIGS
                    ));
                }
            }
        }
        pass += 1;
    }
    rep.passes = pass;
    let mut all = Digest::new();
    for &d in &digests[..CONFIGS] {
        all.u64(d);
    }
    rep.digest = all.finish();
    rep.check("Audit::check passes on every pass", audits_ok);
    rep.check("ServeReport repeats across passes", reports_equal);
    rep.check(
        "sim digest repeats across passes",
        digests
            .iter()
            .enumerate()
            .all(|(p, &d)| d == digests[p % CONFIGS]),
    );
    rep.check("no request stranded", rep.failed == 0);
    let per_config = per_config_fastest(&rep.pass_s);
    rep.setup = mean(&per_config_fastest(&rep.setup_s));
    rep.pass = mean(&per_config);
    rep.info.push(format!(
        "fastest pass of each configuration, s per 1M events: {per_config:?}"
    ));
    rep.named.insert(0, ("serve.events_per_s", 1e6 / rep.pass));

    if tr.on() {
        let per = pass as f64;
        let run_s = tr.total_s("serve.sched.run_s");
        let fault = tr.total_s("serve.pool.apply_fault_s");
        let warm = tr.total_s("serve.pool.shard_new_warm_s");
        tr.set("serve.sched.loop_self_s", (run_s - fault - warm) / per);
        let shard_spans = [
            "serve.pool.shard_new_s.picachu",
            "serve.pool.shard_new_s.gemmini",
            "serve.pool.shard_new_s.gpu",
            "serve.pool.shard_new_s.cpu",
        ];
        let setup = tr.total_of(&shard_spans);
        let covered = setup + tr.total_s("serve.arrivals.trace_s") + fault + warm;
        tr.set("trace.coverage", covered / (setup + run_s).max(1e-12));
    }
    rep
}

/// Replays the cost-table pricing `Shard::new` performs: one warm-up
/// execution per tenant, then `estimate_trace` over every bucketed prefill
/// and batched-decode shape.
fn replay_estimates(
    tr: &mut Tracer,
    specs: &[ShardSpec],
    tenants: &[Tenant],
    max_batch: usize,
    unit: u64,
) {
    let max_batch_pow2 = max_batch.max(1).next_power_of_two();
    for spec in specs {
        let mut backend = spec.build_warmed(tenants);
        for t in tenants {
            backend.execute_trace(&batched_decode_trace(&t.model, t.prompt.max(1), 1));
            let pb = bucket_log2(t.prompt);
            let prefill = model_trace(&t.model, 1usize << pb);
            tr.span("core.dispatch.estimate_trace_s", unit, |_| {
                backend.estimate_trace(&prefill)
            });
            tr.count("core.dispatch.estimates", 1.0);
            for bucket in bucket_log2(t.prompt)..=bucket_log2(t.prompt + t.decode.1) {
                let mut batch = 1usize;
                while batch <= max_batch_pow2 {
                    let trace = batched_decode_trace(&t.model, 1usize << bucket, batch);
                    tr.span("core.dispatch.estimate_trace_s", unit, |_| {
                        backend.estimate_trace(&trace)
                    });
                    tr.count("core.dispatch.estimates", 1.0);
                    batch *= 2;
                }
            }
        }
    }
}

/// Replays the chaos schedule's shard state changes on the set-up shards,
/// from a cache holding only the healthy kernels (the state inside `run`).
/// On a PICACHU shard each `Degrade` first walks the degradation ladder for
/// every tenant kernel as child spans, so the `apply_fault` call itself
/// then reads those compiles from the cache.
fn replay_faults(tr: &mut Tracer, shards: &mut [Shard], cfg: &ServeConfig, unit: u64) {
    let ops = tenant_ops(&cfg.tenants);
    compile_cache::clear();
    for spec in &cfg.pool {
        if let ShardSpec::Picachu(c) = spec {
            let _ = PicachuEngine::new(c.clone()).prewarm(&ops);
        }
    }
    for ev in &cfg.chaos {
        let Some(shard) = shards.get_mut(ev.shard) else {
            continue;
        };
        let plan = match &ev.action {
            ChaosAction::Degrade(plan) => plan.clone(),
            ChaosAction::Recover => FaultPlan::none(),
            ChaosAction::Crash | ChaosAction::CompileOutage { .. } => continue,
        };
        tr.span("serve.pool.apply_fault_s", unit, |tr| {
            if let (ShardSpec::Picachu(c), false) = (&shard.spec, plan.is_empty()) {
                let mut engine = PicachuEngine::new(c.clone());
                for &op in &ops {
                    let r = tr.span("core.compile.degraded_s", unit, |_| {
                        engine.compile_op_degraded(op, &plan)
                    });
                    let rung = match &r {
                        Ok(d) => match d.fallback {
                            FallbackLevel::Incremental => "core.compile.rung.incremental",
                            FallbackLevel::Remapped => "core.compile.rung.remapped",
                            FallbackLevel::Cached => "core.compile.rung.cached",
                            FallbackLevel::Universal => "core.compile.rung.universal",
                        },
                        Err(_) => "core.compile.rung.rejected",
                    };
                    tr.count(rung, 1.0);
                    if r.is_err() {
                        break;
                    }
                }
            }
            shard.apply_fault(&plan, &cfg.tenants);
        });
        tr.count("serve.pool.apply_fault_calls", 1.0);
    }
}
