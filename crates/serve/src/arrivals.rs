//! Seeded arrival traces: who asks for tokens, and when.
//!
//! A serving trace is a pure function of `(pattern, tenants, n_requests,
//! seed)` — every draw comes from one [`TestRng`] stream, so the same
//! config replays the same workload bit for bit (the scheduler's replay
//! invariant starts here). Three load shapes cover the regimes a serving
//! stack must survive: memoryless steady state (Poisson), ON/OFF bursts
//! (the tail-latency stressor), and slow day/night modulation (diurnal).

use picachu_llm::ModelConfig;
use picachu_testkit::TestRng;

/// One tenant of the multi-tenant pool: a model plus its traffic shape and
/// latency contract. Tenants are identified by index into
/// [`ServeConfig::tenants`](crate::ServeConfig).
#[derive(Debug, Clone, PartialEq)]
pub struct Tenant {
    /// Tenant name for reports/JSON rows.
    pub name: &'static str,
    /// The model this tenant serves.
    pub model: ModelConfig,
    /// Relative share of arrivals (weights are normalized over tenants).
    pub weight: u32,
    /// Prompt length in tokens (prefill work per request).
    pub prompt: usize,
    /// Inclusive range of decode tokens generated after the first.
    pub decode: (usize, usize),
    /// Completion deadline relative to arrival, in ns.
    pub slo_ns: u64,
    /// Priority class: 0 is the most urgent, larger numbers yield first.
    /// Equal-priority tenants schedule FIFO exactly as before priorities
    /// existed; the class only matters to preemption and batch selection
    /// (DESIGN.md §12).
    pub priority: u8,
}

/// One serving request, stamped at generation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Stable id (generation order).
    pub id: u64,
    /// Index into the tenant list.
    pub tenant: usize,
    /// Arrival time in ns.
    pub arrival_ns: u64,
    /// Prompt tokens to prefill.
    pub prompt: usize,
    /// Tokens to decode after the first (0 = prefill-only).
    pub decode: usize,
    /// Completion deadline relative to arrival, in ns.
    pub slo_ns: u64,
}

/// The load shape of a serving trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalPattern {
    /// Memoryless arrivals: exponential gaps with the given mean.
    Poisson {
        /// Mean inter-arrival gap in ns.
        mean_gap_ns: f64,
    },
    /// ON/OFF arrivals: geometric bursts of near back-to-back requests
    /// (gap = mean/8) separated by long idle gaps (4× mean), preserving
    /// the same long-run mean rate as `Poisson` with equal `mean_gap_ns`.
    Bursty {
        /// Long-run mean inter-arrival gap in ns.
        mean_gap_ns: f64,
        /// Mean burst length in requests (geometric, ≥ 1).
        mean_burst: usize,
    },
    /// Day/night load: a Poisson process whose rate swings sinusoidally
    /// between 25% and 175% of the mean over one period.
    Diurnal {
        /// Mean inter-arrival gap in ns (at the average rate).
        mean_gap_ns: f64,
        /// Modulation period in ns.
        period_ns: f64,
    },
}

impl ArrivalPattern {
    /// Short label for bench rows.
    pub fn label(&self) -> &'static str {
        match self {
            ArrivalPattern::Poisson { .. } => "poisson",
            ArrivalPattern::Bursty { .. } => "bursty",
            ArrivalPattern::Diurnal { .. } => "diurnal",
        }
    }
}

/// Exponential gap with mean `mean` (inverse-CDF of a uniform draw).
fn exp_gap(rng: &mut TestRng, mean: f64) -> f64 {
    // 1 - u in (0, 1]: avoids ln(0)
    -mean * (1.0 - rng.next_f64()).ln()
}

/// Generates `n` requests under `pattern`, drawing tenant, decode length
/// and inter-arrival gaps from one seeded stream. Arrival times are
/// non-decreasing; ids are assigned in arrival order.
///
/// # Panics
/// Panics when `tenants` is empty or every weight is zero — a serving
/// config without tenants is a harness bug, not a runtime condition.
pub fn arrival_trace(
    pattern: ArrivalPattern,
    tenants: &[Tenant],
    n: usize,
    seed: u64,
) -> Vec<Request> {
    assert!(!tenants.is_empty(), "arrival_trace: no tenants");
    let total_weight: u64 = tenants.iter().map(|t| u64::from(t.weight)).sum();
    assert!(total_weight > 0, "arrival_trace: all tenant weights zero");

    let mut rng = TestRng::seed_from_u64(seed ^ 0x5E2F_AA11_D00D_F00D);
    let mut t_ns = 0.0f64;
    let mut burst_left = 0usize;
    let mut out = Vec::with_capacity(n);
    for id in 0..n as u64 {
        let gap = match pattern {
            ArrivalPattern::Poisson { mean_gap_ns } => exp_gap(&mut rng, mean_gap_ns),
            ArrivalPattern::Bursty { mean_gap_ns, mean_burst } => {
                if burst_left == 0 {
                    // idle gap, then a fresh geometric burst
                    let burst = mean_burst.max(1);
                    burst_left = 1;
                    while burst_left < 64 * burst && !rng.gen_bool(1.0 / burst as f64) {
                        burst_left += 1;
                    }
                    exp_gap(&mut rng, 4.0 * mean_gap_ns)
                } else {
                    exp_gap(&mut rng, mean_gap_ns / 8.0)
                }
            }
            ArrivalPattern::Diurnal { mean_gap_ns, period_ns } => {
                let phase = (t_ns / period_ns.max(1.0)) * std::f64::consts::TAU;
                let rate_scale = 1.0 + 0.75 * phase.sin();
                exp_gap(&mut rng, mean_gap_ns / rate_scale)
            }
        };
        if let ArrivalPattern::Bursty { .. } = pattern {
            burst_left = burst_left.saturating_sub(1);
        }
        t_ns += gap;

        // weighted tenant draw
        let mut pick = rng.gen_range(0..total_weight);
        let mut tenant = 0usize;
        for (i, t) in tenants.iter().enumerate() {
            let w = u64::from(t.weight);
            if pick < w {
                tenant = i;
                break;
            }
            pick -= w;
        }
        let spec = &tenants[tenant];
        let decode = if spec.decode.1 > spec.decode.0 {
            rng.gen_range(spec.decode.0..=spec.decode.1)
        } else {
            spec.decode.0
        };
        out.push(Request {
            id,
            tenant,
            arrival_ns: t_ns as u64,
            prompt: spec.prompt,
            decode,
            slo_ns: spec.slo_ns,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tenants() -> Vec<Tenant> {
        vec![
            Tenant {
                name: "chat",
                model: ModelConfig::gpt2(),
                weight: 3,
                prompt: 128,
                decode: (8, 32),
                slo_ns: 1_000_000_000,
                priority: 0,
            },
            Tenant {
                name: "code",
                model: ModelConfig::llama2_7b(),
                weight: 1,
                prompt: 256,
                decode: (16, 16),
                slo_ns: 2_000_000_000,
                priority: 1,
            },
        ]
    }

    #[test]
    fn traces_replay_bit_identically() {
        for pattern in [
            ArrivalPattern::Poisson { mean_gap_ns: 1e6 },
            ArrivalPattern::Bursty { mean_gap_ns: 1e6, mean_burst: 8 },
            ArrivalPattern::Diurnal { mean_gap_ns: 1e6, period_ns: 1e9 },
        ] {
            let a = arrival_trace(pattern, &tenants(), 500, 42);
            let b = arrival_trace(pattern, &tenants(), 500, 42);
            assert_eq!(a, b, "{}", pattern.label());
            let c = arrival_trace(pattern, &tenants(), 500, 43);
            assert_ne!(a, c, "different seed must move {}", pattern.label());
        }
    }

    /// The scheduler merges the trace into its event order with a cursor,
    /// so every pattern must return requests in `(arrival_ns, id)` order
    /// with ids `0..n`.
    #[test]
    fn arrivals_sorted_and_well_formed() {
        let ts = tenants();
        for pattern in [
            ArrivalPattern::Poisson { mean_gap_ns: 1e6 },
            ArrivalPattern::Bursty { mean_gap_ns: 1e6, mean_burst: 4 },
            ArrivalPattern::Diurnal { mean_gap_ns: 1e6, period_ns: 5e7 },
        ] {
            let reqs = arrival_trace(pattern, &ts, 300, 7);
            assert_eq!(reqs.len(), 300);
            assert_eq!(reqs[0].id, 0, "{}", pattern.label());
            for w in reqs.windows(2) {
                assert!(w[0].arrival_ns <= w[1].arrival_ns, "{}", pattern.label());
                assert_eq!(w[1].id, w[0].id + 1, "{}", pattern.label());
            }
            for r in &reqs {
                let t = &ts[r.tenant];
                assert!(r.decode >= t.decode.0 && r.decode <= t.decode.1);
                assert_eq!(r.prompt, t.prompt);
            }
        }
    }

    #[test]
    fn tenant_weights_respected() {
        let reqs =
            arrival_trace(ArrivalPattern::Poisson { mean_gap_ns: 1e6 }, &tenants(), 2000, 11);
        let heavy = reqs.iter().filter(|r| r.tenant == 0).count();
        // weight 3:1 → about 75%
        assert!((1300..1800).contains(&heavy), "{heavy}");
    }

    #[test]
    fn long_run_rates_roughly_agree_across_patterns() {
        // all three patterns share mean_gap_ns as the long-run mean
        let ts = tenants();
        let horizon = |p| {
            let r = arrival_trace(p, &ts, 4000, 3);
            r.last().map_or(0, |x| x.arrival_ns) as f64
        };
        let pois = horizon(ArrivalPattern::Poisson { mean_gap_ns: 1e6 });
        let burst = horizon(ArrivalPattern::Bursty { mean_gap_ns: 1e6, mean_burst: 16 });
        let diur = horizon(ArrivalPattern::Diurnal { mean_gap_ns: 1e6, period_ns: 5e8 });
        for (name, h) in [("bursty", burst), ("diurnal", diur)] {
            let ratio = h / pois;
            assert!((0.4..2.5).contains(&ratio), "{name}: ratio {ratio}");
        }
    }
}
