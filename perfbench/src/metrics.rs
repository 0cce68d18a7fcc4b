//! The declared workloads and metrics. `BENCHMARK.json` is
//! `benchmark_json()` byte for byte; the self-test checks that the two
//! agree and that every run emits every declared metric.

use std::fmt::Write as _;

/// The command that runs one workload, from the checkout root.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--quiet",
    "--release",
    "--offline",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];
/// Seconds one run measures.
pub const RUN_SECONDS: u32 = 34;

/// A workload and why it is in the benchmark.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

#[rustfmt::skip]
pub const WORKLOADS: &[Workload] = &[
    Workload { name: "compile", why: "cold compile of the nine Table 1 kernels on 4x4 FP16/INT16 and 8x8 FP16 (greedy mapper) and of four at 16x16 (annealed P&R); pass_s is compile.paper_s plus compile.large_s" },
    Workload { name: "evaluate", why: "warm trace dispatch and pricing of five models, oracle sweep and Scheme FP16/INT16 kernels: the mapper only hits the cache; pass_s is the three phases' sum" },
    Workload { name: "serve_chaos", why: "million-event chaos soak of the serving simulator: the event loop dominates and faults walk the degraded-compile ladder; pass_s is per 1M events" },
];

/// An end-to-end metric, reported by every workload from its untraced run.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub bound: f64,
}

#[rustfmt::skip]
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "setup_s", unit: "s", bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", bound: 0.2 },
    EndToEnd { name: "pass_s", unit: "s", bound: 0.25 },
];

/// A per-layer metric of the traced run, with the end-to-end metric it
/// should move (on the workload that exercises the layer).
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

const fn l(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

#[rustfmt::skip]
pub const LAYERS: &[Layer] = &[
    // compile_cold
    l("compiler.transform.lower_s", "s", "lower", "compile.paper_s"),
    l("compiler.transform.dfg_nodes", "count", "lower", "compile.paper_s"),
    l("compiler.mapper.map_s.4x4", "s", "lower", "compile.paper_s"),
    l("compiler.mapper.map_s.8x8", "s", "lower", "compile.paper_s"),
    l("compiler.mapper.map_s.16x16", "s", "lower", "compile.large_s"),
    l("compiler.mapper.candidates.paper", "count", "lower", "compile.paper_s"),
    l("compiler.mapper.candidates.large", "count", "lower", "compile.large_s"),
    l("compiler.mapper.rejected.paper", "count", "lower", "compile.paper_s"),
    l("compiler.mapper.rejected.large", "count", "lower", "compile.large_s"),
    l("compiler.mapper.useful_ratio.paper", "ratio", "higher", "compile.paper_s"),
    l("compiler.mapper.useful_ratio.large", "ratio", "higher", "compile.large_s"),
    l("compiler.mapper.route_s.paper", "s", "lower", "compile.paper_s"),
    l("compiler.mapper.route_s.large", "s", "lower", "compile.large_s"),
    l("compiler.mapper.report_s.paper", "s", "lower", "compile.paper_s"),
    l("compiler.mapper.report_s.large", "s", "lower", "compile.large_s"),
    l("compiler.mapper.chan_util.16x16", "ratio", "lower", "compile.large_ii_sum"),
    l("core.compile.prewarm_s.paper", "s", "lower", "compile.paper_s"),
    l("core.compile.prewarm_s.large", "s", "lower", "compile.large_s"),
    l("core.compile.unattributed_s.paper", "s", "lower", "compile.paper_s"),
    l("core.compile.unattributed_s.large", "s", "lower", "compile.large_s"),
    // every workload
    l("core.compile_cache.hits", "count", "higher", "setup_s"),
    l("core.compile_cache.misses", "count", "lower", "setup_s"),
    l("trace.coverage", "ratio", "higher", "pass_s"),
    // evaluate
    l("llm.trace.build_s", "s", "lower", "eval.traces_per_s"),
    l("core.dispatch.execute_trace_s", "s", "lower", "eval.traces_per_s"),
    l("core.dispatch.trace_ops", "count", "lower", "eval.traces_per_s"),
    l("systolic.gemm_cycles_s", "s", "lower", "eval.traces_per_s"),
    l("core.engine.nonlinear_cycles_s", "s", "lower", "eval.traces_per_s"),
    l("core.account.energy_s", "s", "lower", "eval.traces_per_s"),
    l("oracle.timing.case_s", "s", "lower", "verify.cases_per_s"),
    l("oracle.numerics.case_s", "s", "lower", "verify.cases_per_s"),
    l("ir.interp.interpret_s", "s", "lower", "verify.cases_per_s"),
    l("ir.interp.elements", "count", "lower", "verify.cases_per_s"),
    l("cgra.config.from_mapping_s", "s", "lower", "verify.cases_per_s"),
    l("cgra.sim.run_s", "s", "lower", "verify.cases_per_s"),
    l("cgra.sim.iterations", "count", "lower", "verify.cases_per_s"),
    l("cgra.sim.host_ns_per_iteration", "ns", "lower", "verify.cases_per_s"),
    l("nonlinear.softmax_s", "s", "lower", "accuracy.melem_per_s"),
    l("nonlinear.gelu_s", "s", "lower", "accuracy.melem_per_s"),
    l("nonlinear.silu_s", "s", "lower", "accuracy.melem_per_s"),
    l("nonlinear.layernorm_s", "s", "lower", "accuracy.melem_per_s"),
    l("nonlinear.rmsnorm_s", "s", "lower", "accuracy.melem_per_s"),
    // serve_chaos
    l("serve.pool.shard_new_s.picachu", "s", "lower", "setup_s"),
    l("serve.pool.shard_new_s.gemmini", "s", "lower", "setup_s"),
    l("serve.pool.shard_new_s.gpu", "s", "lower", "setup_s"),
    l("serve.pool.shard_new_s.cpu", "s", "lower", "setup_s"),
    l("serve.pool.shard_new_warm_s", "s", "lower", "serve.events_per_s"),
    l("core.dispatch.estimate_trace_s", "s", "lower", "setup_s"),
    l("core.dispatch.estimates", "count", "lower", "setup_s"),
    l("serve.arrivals.trace_s", "s", "lower", "serve.events_per_s"),
    l("serve.chaos.schedule_s", "s", "lower", "serve.events_per_s"),
    l("serve.metrics.summarize_s", "s", "lower", "serve.events_per_s"),
    l("serve.pool.apply_fault_s", "s", "lower", "serve.events_per_s"),
    l("serve.pool.apply_fault_calls", "count", "lower", "serve.events_per_s"),
    l("core.compile.degraded_s", "s", "lower", "serve.events_per_s"),
    l("core.compile.rung.incremental", "count", "higher", "serve.events_per_s"),
    l("core.compile.rung.remapped", "count", "lower", "serve.events_per_s"),
    l("core.compile.rung.cached", "count", "lower", "serve.events_per_s"),
    l("core.compile.rung.universal", "count", "lower", "serve.events_per_s"),
    l("core.compile.rung.rejected", "count", "lower", "serve.events_per_s"),
    l("serve.sched.run_s", "s", "lower", "serve.events_per_s"),
    l("serve.sched.loop_self_s", "s", "lower", "serve.events_per_s"),
    l("serve.sched.events", "count", "lower", "serve.events_per_s"),
    l("serve.sched.batches", "count", "lower", "serve.sim_p99_ttft_ms"),
    l("serve.sched.preemptions", "count", "lower", "serve.sim_p99_ttft_ms"),
    l("serve.sched.retries", "count", "lower", "serve.sim_slo_attainment"),
    l("serve.sched.killed_batches", "count", "lower", "serve.sim_slo_attainment"),
    l("serve.sched.shed", "count", "lower", "serve.sim_slo_attainment"),
    l("serve.sched.abandoned", "count", "lower", "serve.sim_slo_attainment"),
    l("serve.sched.busy_share", "ratio", "higher", "serve.sim_goodput_tok_per_s"),
    l("serve.sched.wasted_share", "ratio", "lower", "serve.sim_slo_attainment"),
    l("serve.sched.retry_amplification", "ratio", "lower", "serve.sim_p99_ttft_ms"),
];

/// The named end-to-end metrics, printed by every run of their
/// workload (`serve_chaos`'s gated `pass_s` is the time behind its first
/// named metric; in `compile` and `evaluate` it is the sum of the times
/// behind the timed ones):
/// (name, unit, workload).
pub const NAMED: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "all"),
    ("peak_rss_mb", "MB", "all"),
    ("compile.paper_s", "s", "compile"),
    ("compile.large_s", "s", "compile"),
    ("compile.paper_ii_sum", "cycles", "compile"),
    ("compile.large_ii_sum", "cycles", "compile"),
    ("eval.traces_per_s", "1/s", "evaluate"),
    ("verify.cases_per_s", "1/s", "evaluate"),
    ("accuracy.melem_per_s", "Melem/s", "evaluate"),
    ("serve.events_per_s", "1/s", "serve_chaos"),
    ("serve.sim_p99_ttft_ms", "ms", "serve_chaos"),
    ("serve.sim_slo_attainment", "ratio", "serve_chaos"),
    ("serve.sim_goodput_tok_per_s", "tok/s", "serve_chaos"),
];

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let command: Vec<String> = COMMAND.iter().map(|c| format!("\"{c}\"")).collect();
    let mut o = String::from("{\n");
    let _ = writeln!(o, "  \"command\": [{}],", command.join(", "));
    o.push_str("  \"paths\": [\"perfbench\"],\n");
    let _ = writeln!(o, "  \"run_seconds\": {RUN_SECONDS},");
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let _ = writeln!(o, "  \"workloads\": {},", list(workloads));
    let e2e = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"lower\", \"bound\": {}}}",
                m.name, m.unit, m.bound
            )
        })
        .collect();
    let _ = writeln!(o, "  \"end_to_end\": {},", list(e2e));
    let layers = LAYERS
        .iter()
        .map(|l| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                l.name, l.unit, l.better
            )
        })
        .collect();
    let _ = writeln!(o, "  \"per_layer\": {}", list(layers));
    o.push_str("}\n");
    o
}

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Whether `unit` is a valid unit: at most 16 of letters, digits, `_`,
/// `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}
