//! Frozen serving fingerprints.
//!
//! The serving event loop (arrival merge, batch formation, urgency index,
//! cost lookups) is tuned for speed under one rule: no event, batch,
//! placement or record may change. These tests pin that rule. Each hashes
//! the full [`ServeReport`] of one fixed configuration — every request
//! record, every shard report with its cost table, the audit, the horizon,
//! the event count and the batch log — and compares the hash with a
//! constant recorded before the loop was last rewritten:
//!
//! * one priority class, plain FIFO batching, Poisson arrivals;
//! * two priority classes with preemption, bursty arrivals;
//! * legacy drain-semantics faults together with a chaos schedule (crash,
//!   degrade, recover, compile outage), diurnal arrivals;
//! * load shedding under a tight admission cap, bursty arrivals.
//!
//! Each configuration also asserts that the mechanism it exists for
//! actually fires, so a fingerprint cannot pin a run that skips its path.
//! A mismatch means some scheduling decision moved. If that is intended,
//! regenerate `results/BENCH_serve.json` and `results/BENCH_soak.json` and
//! update the constant.

use picachu::faults::FaultPlan;
use picachu_llm::ModelConfig;
use picachu_serve::{
    chaos_schedule, run, ArrivalPattern, ChaosConfig, FaultEvent, Outcome, RejectReason,
    RetryPolicy, ServeConfig, ServeReport, ShardSpec, Tenant,
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

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.u64(u64::from(b));
        }
    }

    fn report(&mut self, r: &ServeReport) {
        self.u64(r.records.len() as u64);
        for rec in &r.records {
            for v in [rec.id, rec.tenant as u64, rec.arrival_ns, rec.slo_ns] {
                self.u64(v);
            }
            match &rec.outcome {
                Outcome::Completed { ttft_ns, finish_ns, tokens, shards, retries } => {
                    for v in [0, *ttft_ns, *finish_ns, *tokens as u64, u64::from(*retries)] {
                        self.u64(v);
                    }
                    self.u64(shards.len() as u64);
                    for &s in shards {
                        self.u64(s as u64);
                    }
                }
                Outcome::Rejected { at_ns, reason, after_admission } => {
                    let reason = match reason {
                        RejectReason::QueueFull => 0,
                        RejectReason::NoCapacity => 1,
                        RejectReason::Shed => 2,
                    };
                    for v in [1, *at_ns, reason, u64::from(*after_admission)] {
                        self.u64(v);
                    }
                }
                Outcome::Abandoned { at_ns, attempts } => {
                    for v in [2, *at_ns, u64::from(*attempts)] {
                        self.u64(v);
                    }
                }
            }
        }
        self.u64(r.shards.len() as u64);
        for s in &r.shards {
            self.u64(s.shard as u64);
            self.str(&s.backend);
            for v in [s.batches, s.steps, s.busy_ns, s.killed_batches, s.preempted_batches] {
                self.u64(v);
            }
            self.u64(s.wasted_ns);
            self.u64(s.final_capacity_factor.to_bits());
            self.u64(s.cost_table.len() as u64);
            for (k, c) in &s.cost_table {
                for v in [k.tenant as u64, u64::from(k.prefill), u64::from(k.bucket)] {
                    self.u64(v);
                }
                self.u64(u64::from(k.batch));
                self.u64(*c);
            }
        }
        let a = &r.audit;
        for v in [
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
            a.work_conservation_violations,
            a.batch_legality_violations,
            a.double_terminal_violations,
            a.stranded,
        ] {
            self.u64(v);
        }
        self.u64(r.horizon_ns);
        self.u64(r.events);
        self.u64(r.batch_log.len() as u64);
        for b in &r.batch_log {
            for v in [b.shard as u64, b.tenant as u64, u64::from(b.prefill), u64::from(b.bucket)] {
                self.u64(v);
            }
            self.u64(b.members.len() as u64);
            for &m in &b.members {
                self.u64(m);
            }
            self.u64(b.start_ns);
            self.u64(b.cost_ns);
        }
    }
}

fn fingerprint(cfg: &ServeConfig) -> (u64, ServeReport) {
    let report = run(cfg);
    report.audit.check().expect("scheduler audit");
    assert_eq!(report.records.len(), cfg.n_requests);
    let mut h = Fnv::new();
    h.report(&report);
    (h.0, report)
}

fn tiny(name: &'static str, layers: usize, d_model: usize) -> ModelConfig {
    ModelConfig { name, layers, d_model, n_heads: 4, d_ff: 2 * d_model, ..ModelConfig::gpt2() }
}

fn tenant(name: &'static str, layers: usize, prompt: usize, slo_ns: u64, priority: u8) -> Tenant {
    Tenant {
        name,
        model: tiny(name, layers, 64),
        weight: 1,
        prompt,
        decode: (2, 10),
        slo_ns,
        priority,
    }
}

#[test]
fn fifo_one_class_report_is_frozen() {
    let cfg = ServeConfig {
        seed: 11,
        n_requests: 400,
        max_batch: 4,
        log_batches: true,
        ..ServeConfig::new(
            vec![tenant("fp-chat", 2, 24, 1 << 24, 0), tenant("fp-code", 1, 40, 1 << 25, 0)],
            ArrivalPattern::Poisson { mean_gap_ns: 12_000.0 },
            vec![ShardSpec::Gemmini, ShardSpec::Gpu, ShardSpec::Cpu],
        )
    };
    let (h, r) = fingerprint(&cfg);
    assert!(r.batch_log.iter().any(|b| !b.prefill && b.members.len() > 1), "no batching");
    assert_eq!(h, 0x977d_ba81_588f_d0e2);
}

#[test]
fn two_priorities_with_preemption_report_is_frozen() {
    let cfg = ServeConfig {
        seed: 12,
        n_requests: 400,
        max_batch: 8,
        preempt: true,
        log_batches: true,
        ..ServeConfig::new(
            vec![tenant("fp-vip", 1, 16, 1 << 17, 0), tenant("fp-bulk", 4, 48, 1 << 26, 1)],
            ArrivalPattern::Bursty { mean_gap_ns: 60_000.0, mean_burst: 6 },
            vec![ShardSpec::Gemmini, ShardSpec::Cpu],
        )
    };
    let (h, r) = fingerprint(&cfg);
    assert!(r.audit.preemptions > 0, "no preemption fired");
    assert_eq!(h, 0x0d45_83fe_2dab_181e);
}

#[test]
fn legacy_faults_with_chaos_report_is_frozen() {
    let pool = vec![ShardSpec::Gemmini, ShardSpec::Tandem, ShardSpec::Gpu, ShardSpec::Cpu];
    let n = 400;
    let horizon = n as u64 * 50_000;
    let chaos = ChaosConfig {
        crashes: 3,
        degradations: 2,
        compile_outages: 2,
        mean_outage_ns: horizon / 16,
        ..ChaosConfig::new(13, horizon)
    };
    let cfg = ServeConfig {
        seed: 13,
        n_requests: n,
        max_batch: 8,
        max_in_flight: 256,
        faults: vec![
            FaultEvent { at_ns: horizon / 5, shard: 1, plan: FaultPlan::dead_tile(3) },
            FaultEvent { at_ns: horizon / 2, shard: 1, plan: FaultPlan::none() },
        ],
        chaos: chaos_schedule(&chaos, pool.len()),
        retry: RetryPolicy::new(2, 200_000),
        preempt: true,
        log_batches: true,
        ..ServeConfig::new(
            vec![tenant("fp-int", 2, 32, 1 << 22, 0), tenant("fp-batch", 3, 48, 1 << 26, 1)],
            ArrivalPattern::Diurnal { mean_gap_ns: 50_000.0, period_ns: 5e6 },
            pool,
        )
    };
    let (h, r) = fingerprint(&cfg);
    assert!(r.audit.killed_batches > 0, "no crash hit a running batch");
    assert!(r.audit.retries > 0, "no retry was issued");
    assert_eq!(h, 0x3629_031f_1c21_c211);
}

#[test]
fn shedding_under_tight_admission_report_is_frozen() {
    let cfg = ServeConfig {
        seed: 14,
        n_requests: 400,
        max_batch: 4,
        max_in_flight: 12,
        shed_deadline_factor: Some(1.5),
        log_batches: true,
        ..ServeConfig::new(
            vec![tenant("fp-a", 2, 32, 1 << 16, 0), tenant("fp-b", 2, 32, 1 << 22, 1)],
            ArrivalPattern::Bursty { mean_gap_ns: 20_000.0, mean_burst: 8 },
            vec![ShardSpec::Gemmini, ShardSpec::Gpu],
        )
    };
    let (h, r) = fingerprint(&cfg);
    assert!(r.audit.shed > 0, "nothing was shed");
    let queue_full = r
        .records
        .iter()
        .filter(|x| matches!(x.outcome, Outcome::Rejected { reason: RejectReason::QueueFull, .. }))
        .count();
    assert!(queue_full > 0, "the admission cap never bit");
    assert_eq!(h, 0xe027_1d52_aff4_b83e);
}
