//! The accelerator pool: heterogeneous shards behind the unified
//! [`Accelerator`] contract, with measured step-cost tables and
//! fault-driven capacity factors.
//!
//! A shard is one device instance (PICACHU engine, Gemmini-class,
//! A100 roofline, …). At construction every shard *measures* its healthy
//! step costs once — one `execute_trace` per tenant model to warm kernel
//! caches, then the [`Accelerator::estimate_trace`] capacity hint (exact
//! when warm, by the backend-parity contract) fills a table over bucketed
//! (tenant, context, batch) shapes. The table is a pure function of
//! `(spec, tenants, max_batch)`: it never changes when faults arrive, which
//! is what lets the degraded-capacity tests assert healthy shards'
//! measurements stay bit-identical to their fault-free runs.
//!
//! Faults scale, they don't re-measure: applying a [`FaultPlan`] derives a
//! *capacity factor* — for PICACHU shards from the real degradation ladder
//! (worst `ii_inflation` over the tenants' kernels; a ladder rejection
//! takes the shard out of service), for the analytical baselines from the
//! alive-tile fraction of a nominal 16-unit device. Effective step cost is
//! `healthy cost × factor`.

use crate::arrivals::Tenant;
use picachu::engine::{EngineConfig, PicachuEngine};
use picachu_backend::Accelerator;
use picachu_baselines::{CpuModel, GemminiModel, GpuModel, HomogeneousCgraModel, TandemModel};
use picachu_faults::FaultPlan;
use picachu_llm::trace::{batched_decode_trace, model_trace};
use picachu_nonlinear::NonlinearOp;
use std::collections::BTreeSet;

/// What device a shard is.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardSpec {
    /// A PICACHU engine with its own [`EngineConfig`].
    Picachu(EngineConfig),
    /// Gemmini-class accelerator (dedicated nonlinear units + scalar core).
    Gemmini,
    /// A100 roofline model.
    Gpu,
    /// Host-CPU offload baseline.
    Cpu,
    /// Tandem-class vector processor.
    Tandem,
    /// Conventional homogeneous CGRA.
    CgraBase,
}

impl ShardSpec {
    /// A default-config PICACHU shard.
    pub fn picachu() -> ShardSpec {
        ShardSpec::Picachu(EngineConfig::default())
    }

    /// A PICACHU shard configured from a searched design point — the
    /// deployment path of the co-design search: `picachu::dse::search`
    /// produces a Pareto frontier, and any member becomes a servable shard
    /// via its knobs.
    pub fn from_design(point: &picachu::dse::DesignPoint) -> ShardSpec {
        ShardSpec::Picachu(point.knobs.engine_config())
    }

    /// Instantiates the device behind the unified contract.
    pub fn build(&self) -> Box<dyn Accelerator> {
        match self {
            ShardSpec::Picachu(cfg) => Box::new(PicachuEngine::new(cfg.clone())),
            ShardSpec::Gemmini => Box::new(GemminiModel::hosted()),
            ShardSpec::Gpu => Box::new(GpuModel::default()),
            ShardSpec::Cpu => Box::new(CpuModel::hosted()),
            ShardSpec::Tandem => Box::new(TandemModel::hosted()),
            ShardSpec::CgraBase => Box::new(HomogeneousCgraModel::hosted()),
        }
    }

    /// Instantiates the device and, for PICACHU shards, pre-warms the union
    /// of the tenants' nonlinear kernels through one grouped compile batch
    /// before the first trace runs. Compilation is deterministic in the
    /// engine config, so warming changes *when* the mapper runs — a single
    /// flat parallel pass instead of op-by-op on the first trace of each
    /// tenant — never *what* it produces; cost tables are bit-identical
    /// either way.
    pub fn build_warmed(&self, tenants: &[Tenant]) -> Box<dyn Accelerator> {
        match self {
            ShardSpec::Picachu(cfg) => {
                let mut engine = PicachuEngine::new(cfg.clone());
                let mut ops: BTreeSet<NonlinearOp> = BTreeSet::new();
                for t in tenants {
                    ops.extend(t.model.nonlinear_ops());
                }
                let ops: Vec<NonlinearOp> = ops.into_iter().collect();
                if let Err(e) = engine.prewarm(&ops) {
                    // a healthy-fabric compile failure would surface as the
                    // same panic on the first execute_trace; warn and let
                    // the measuring pass report it
                    eprintln!("picachu-serve: shard prewarm failed: {e}");
                }
                Box::new(engine)
            }
            _ => self.build(),
        }
    }
}

/// log2 of the power-of-two bucket covering `x` (shape-compatibility
/// classes for batching and cost lookup).
pub fn bucket_log2(x: usize) -> u32 {
    x.max(1).next_power_of_two().trailing_zeros()
}

/// One entry of a shard's measured healthy cost table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CostKey {
    /// Tenant index.
    pub tenant: usize,
    /// `true` for a prefill step (bucket covers the prompt), `false` for a
    /// batched decode step (bucket covers the KV-cache context).
    pub prefill: bool,
    /// log2 of the shape bucket.
    pub bucket: u32,
    /// Batch size (always 1 for prefill).
    pub batch: u32,
}

/// A shard's measured healthy costs as a dense table: one slot per
/// `(tenant, phase, bucket, log2 batch)`, decode before prefill, so slot
/// order is [`CostKey`] order. Every probed cost is at least 1, which
/// frees 0 to mean "not probed".
struct CostTable {
    tenants: usize,
    buckets: usize,
    batches: usize,
    costs: Vec<u64>,
}

impl CostTable {
    /// An empty table for `tenants` with buckets below `buckets` and batch
    /// sizes up to `max_batch_pow2`.
    fn new(tenants: usize, buckets: usize, max_batch_pow2: u32) -> CostTable {
        let batches = max_batch_pow2.trailing_zeros() as usize + 1;
        CostTable {
            tenants,
            buckets,
            batches,
            costs: vec![0; tenants * 2 * buckets * batches],
        }
    }

    fn slot(&self, key: &CostKey) -> Option<usize> {
        let (bucket, lb) = (key.bucket as usize, key.batch.trailing_zeros() as usize);
        if key.tenant >= self.tenants || bucket >= self.buckets || lb >= self.batches {
            return None;
        }
        let row = key.tenant * 2 + usize::from(key.prefill);
        Some((row * self.buckets + bucket) * self.batches + lb)
    }

    fn insert(&mut self, key: CostKey, cost: u64) {
        if let Some(i) = self.slot(&key) {
            self.costs[i] = cost;
        }
    }

    fn get(&self, key: &CostKey) -> Option<u64> {
        self.slot(key).map(|i| self.costs[i]).filter(|&c| c != 0)
    }

    /// The widest probed decode bucket of `(tenant, batch)` and its cost.
    fn widest_decode(&self, tenant: usize, batch: u32) -> Option<(u32, u64)> {
        (0..self.buckets as u32).rev().find_map(|bucket| {
            self.get(&CostKey { tenant, prefill: false, bucket, batch }).map(|c| (bucket, c))
        })
    }

    /// The probed entries in key order.
    fn entries(&self) -> Vec<(CostKey, u64)> {
        let per_row = self.buckets * self.batches;
        self.costs
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != 0)
            .map(|(i, &c)| {
                let row = i / per_row;
                let key = CostKey {
                    tenant: row / 2,
                    prefill: row % 2 == 1,
                    bucket: ((i % per_row) / self.batches) as u32,
                    batch: 1 << (i % self.batches),
                };
                (key, c)
            })
            .collect()
    }
}

/// Per-shard outcome of a serving run — the report the degraded-capacity
/// tests compare across runs.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// Shard id.
    pub shard: usize,
    /// Device name.
    pub backend: String,
    /// Batches executed.
    pub batches: u64,
    /// Sequence-steps executed (sum of batch sizes).
    pub steps: u64,
    /// Total busy time in ns.
    pub busy_ns: u64,
    /// The measured healthy step costs, sorted by key — a pure function of
    /// `(spec, tenants, max_batch)`, so bit-identical across runs whatever
    /// faults hit the rest of the pool.
    pub cost_table: Vec<(CostKey, u64)>,
    /// Capacity factor at end of run (1 = healthy, ∞ = out of service).
    pub final_capacity_factor: f64,
    /// In-flight batches killed by chaos crashes on this shard.
    pub killed_batches: u64,
    /// Decode batches preempted mid-step for a higher-priority prefill.
    pub preempted_batches: u64,
    /// Busy time charged to batches that never completed (killed or
    /// preempted) — the price of chaos, excluded from useful `busy_ns`.
    pub wasted_ns: u64,
}

/// One device of the pool, with its measured costs and live fault state.
pub struct Shard {
    /// Shard id (index into the pool).
    pub id: usize,
    /// The device spec this shard was built from.
    pub spec: ShardSpec,
    /// Device name (stable, from the backend).
    pub backend_name: String,
    /// The fault plan currently applied (empty = healthy).
    pub fault: FaultPlan,
    /// Step-cost multiplier: 1.0 healthy, >1 degraded, ∞ out of service.
    pub capacity_factor: f64,
    costs: CostTable,
    max_batch_pow2: u32,
}

impl Shard {
    /// Builds the shard and eagerly measures its healthy cost table over
    /// every bucketed shape the tenants can present: prompt buckets for
    /// prefill, context buckets from prompt to prompt+max decode, batch
    /// sizes at powers of two up to `max_batch`.
    pub fn new(id: usize, spec: ShardSpec, tenants: &[Tenant], max_batch: usize) -> Shard {
        let mut backend = spec.build_warmed(tenants);
        let max_batch_pow2 = max_batch.max(1).next_power_of_two() as u32;
        let buckets = tenants
            .iter()
            .map(|t| bucket_log2(t.prompt + t.decode.1) as usize + 1)
            .max()
            .unwrap_or(0);
        let mut costs = CostTable::new(tenants.len(), buckets, max_batch_pow2);
        for (ti, t) in tenants.iter().enumerate() {
            // one real execution per tenant model warms kernel caches, so
            // every estimate below is exact by the parity contract
            backend.execute_trace(&batched_decode_trace(&t.model, t.prompt.max(1), 1));
            let pb = bucket_log2(t.prompt);
            let key = CostKey { tenant: ti, prefill: true, bucket: pb, batch: 1 };
            let est = backend.estimate_trace(&model_trace(&t.model, 1usize << pb));
            costs.insert(key, (est.ceil() as u64).max(1));
            let lo = bucket_log2(t.prompt);
            let hi = bucket_log2(t.prompt + t.decode.1);
            for bucket in lo..=hi {
                let mut batch = 1u32;
                while batch <= max_batch_pow2 {
                    let trace =
                        batched_decode_trace(&t.model, 1usize << bucket, batch as usize);
                    let est = backend.estimate_trace(&trace);
                    costs.insert(
                        CostKey { tenant: ti, prefill: false, bucket, batch },
                        (est.ceil() as u64).max(1),
                    );
                    batch *= 2;
                }
            }
        }
        Shard {
            id,
            backend_name: backend.name().to_string(),
            spec,
            fault: FaultPlan::none(),
            capacity_factor: 1.0,
            costs,
            max_batch_pow2,
        }
    }

    /// Whether the shard can accept work.
    pub fn in_service(&self) -> bool {
        self.capacity_factor.is_finite()
    }

    /// Takes the shard out of service immediately — the chaos `Crash`
    /// action. Unlike [`Shard::apply_fault`] with a total-outage plan this
    /// never consults the compiler (a crashed shard answers nothing); the
    /// fault plan is left untouched so a later `Recover` restores exactly
    /// the pre-crash degradation state via `apply_fault`.
    pub fn force_out_of_service(&mut self) {
        self.capacity_factor = f64::INFINITY;
    }

    /// Healthy (unscaled) cost of a batched decode step: `batch` sequences
    /// of `tenant`, each holding `context` cached tokens. Batch and context
    /// quantize up to their power-of-two buckets (conservative).
    pub fn healthy_decode_cost(&self, tenant: usize, context: usize, batch: usize) -> u64 {
        let key = CostKey {
            tenant,
            prefill: false,
            bucket: bucket_log2(context),
            batch: (batch.max(1).next_power_of_two() as u32).min(self.max_batch_pow2),
        };
        self.costs.get(&key).unwrap_or_else(|| {
            // context outgrew the probed range (decode beyond the declared
            // max): charge the largest probed bucket of this tenant,
            // scaled by the bucket ratio — still deterministic
            match self.costs.widest_decode(tenant, key.batch) {
                Some((b, c)) => c.saturating_mul(1 << (key.bucket.saturating_sub(b))),
                None => 1,
            }
        })
    }

    /// Healthy cost of a prefill step for `tenant`.
    pub fn healthy_prefill_cost(&self, tenant: usize, prompt: usize) -> u64 {
        let key =
            CostKey { tenant, prefill: true, bucket: bucket_log2(prompt), batch: 1 };
        self.costs.get(&key).unwrap_or(1)
    }

    /// Effective (fault-scaled) step cost in ns.
    ///
    /// # Panics
    /// Panics if the shard is out of service — the scheduler never issues
    /// work to a shard whose capacity factor is infinite.
    pub fn scaled(&self, healthy: u64) -> u64 {
        assert!(self.in_service(), "scaled() on an out-of-service shard");
        ((healthy as f64) * self.capacity_factor).ceil() as u64
    }

    /// Applies `plan`, deriving the shard's new capacity factor.
    ///
    /// PICACHU shards walk the real degradation ladder: every nonlinear
    /// kernel the tenants' models use is recompiled under the plan, the
    /// worst `ii_inflation` becomes the factor, and a ladder rejection
    /// (no rung maps) takes the shard out of service. The analytical
    /// baselines have no compiler to consult, so the plan's dead tiles are
    /// read as dead compute units out of a nominal 16: factor =
    /// 16 / alive (∞ when none survive).
    pub fn apply_fault(&mut self, plan: &FaultPlan, tenants: &[Tenant]) {
        self.capacity_factor = if plan.is_empty() {
            1.0
        } else {
            match &self.spec {
                ShardSpec::Picachu(cfg) => {
                    let mut ops: BTreeSet<NonlinearOp> = BTreeSet::new();
                    for t in tenants {
                        ops.extend(t.model.nonlinear_ops());
                    }
                    let mut engine = PicachuEngine::new(cfg.clone());
                    let mut factor = 1.0f64;
                    for op in ops {
                        match engine.compile_op_degraded(op, plan) {
                            Ok(d) => factor = factor.max(d.ii_inflation.max(1.0)),
                            Err(_) => {
                                factor = f64::INFINITY;
                                break;
                            }
                        }
                    }
                    factor
                }
                _ => {
                    const NOMINAL_UNITS: usize = 16;
                    let dead =
                        plan.dead_tiles.iter().filter(|&&t| t < NOMINAL_UNITS).count();
                    if dead >= NOMINAL_UNITS {
                        f64::INFINITY
                    } else {
                        NOMINAL_UNITS as f64 / (NOMINAL_UNITS - dead) as f64
                    }
                }
            }
        };
        self.fault = plan.clone();
    }

    /// Snapshot of the measured healthy cost table, sorted by key.
    pub fn cost_table(&self) -> Vec<(CostKey, u64)> {
        self.costs.entries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picachu_llm::ModelConfig;

    fn tiny_tenant() -> Tenant {
        Tenant {
            name: "tiny",
            model: ModelConfig {
                name: "tiny-2l",
                layers: 2,
                d_model: 64,
                n_heads: 4,
                d_ff: 128,
                ..ModelConfig::gpt2()
            },
            weight: 1,
            prompt: 32,
            decode: (4, 8),
            slo_ns: 1_000_000_000,
            priority: 0,
        }
    }

    #[test]
    fn forced_outage_preserves_fault_state_for_recovery() {
        let ts = vec![tiny_tenant()];
        let mut s = Shard::new(0, ShardSpec::Gemmini, &ts, 2);
        s.apply_fault(&FaultPlan::dead_tile(3), &ts);
        let degraded = s.capacity_factor;
        s.force_out_of_service();
        assert!(!s.in_service());
        assert_eq!(s.fault, FaultPlan::dead_tile(3), "crash must not erase the plan");
        // recovery re-applies the standing plan, landing back on the
        // degraded (not healthy, not dead) factor
        let plan = s.fault.clone();
        s.apply_fault(&plan, &ts);
        assert_eq!(s.capacity_factor, degraded);
    }

    #[test]
    fn cost_tables_deterministic_and_batch_monotone() {
        let ts = vec![tiny_tenant()];
        let a = Shard::new(0, ShardSpec::Gemmini, &ts, 8);
        let b = Shard::new(0, ShardSpec::Gemmini, &ts, 8);
        assert_eq!(a.cost_table(), b.cost_table());
        assert!(!a.cost_table().is_empty());
        // a bigger batch can only cost more in total...
        let c1 = a.healthy_decode_cost(0, 32, 1);
        let c8 = a.healthy_decode_cost(0, 32, 8);
        assert!(c8 >= c1, "{c8} vs {c1}");
        // ...but less per sequence (the point of batching) on the
        // launch-bound GPU
        let g = Shard::new(1, ShardSpec::Gpu, &ts, 8);
        let g1 = g.healthy_decode_cost(0, 32, 1);
        let g8 = g.healthy_decode_cost(0, 32, 8);
        assert!(g8 < 8 * g1, "batching must amortize launches: {g8} vs 8x{g1}");
    }

    #[test]
    fn fault_scales_picachu_capacity_via_the_ladder() {
        let ts = vec![tiny_tenant()];
        let mut s = Shard::new(0, ShardSpec::picachu(), &ts, 4);
        assert_eq!(s.capacity_factor, 1.0);
        s.apply_fault(&FaultPlan::dead_tile(5), &ts);
        assert!(s.in_service());
        assert!(s.capacity_factor >= 1.0);
        // killing the whole fabric rejects on every rung → out of service
        let mut all_dead = FaultPlan::none();
        for t in 0..16 {
            all_dead = all_dead.with_dead_tile(t);
        }
        s.apply_fault(&all_dead, &ts);
        assert!(!s.in_service());
        // healthy costs never moved
        let fresh = Shard::new(0, ShardSpec::picachu(), &ts, 4);
        assert_eq!(s.cost_table(), fresh.cost_table());
        // and recovery restores full capacity
        s.apply_fault(&FaultPlan::none(), &ts);
        assert_eq!(s.capacity_factor, 1.0);
    }

    #[test]
    fn analytical_shards_lose_alive_fraction() {
        let ts = vec![tiny_tenant()];
        let mut s = Shard::new(0, ShardSpec::Cpu, &ts, 2);
        s.apply_fault(&FaultPlan::dead_tile(0).with_dead_tile(1), &ts);
        assert!((s.capacity_factor - 16.0 / 14.0).abs() < 1e-12);
        let mut plan = FaultPlan::none();
        for t in 0..16 {
            plan = plan.with_dead_tile(t);
        }
        s.apply_fault(&plan, &ts);
        assert!(!s.in_service());
    }

    /// The dense table must answer every lookup exactly as a sorted map of
    /// its own entries would, including the widest-bucket fallback past the
    /// probed contexts and unknown tenants.
    #[test]
    fn dense_table_agrees_with_a_map_of_its_entries() {
        let mut other = tiny_tenant();
        other.prompt = 7;
        other.decode = (1, 40);
        let ts = vec![tiny_tenant(), other];
        let s = Shard::new(0, ShardSpec::Gemmini, &ts, 6);
        let table = s.cost_table();
        assert!(table.windows(2).all(|w| w[0].0 < w[1].0), "entries sorted and unique");
        let map: std::collections::BTreeMap<CostKey, u64> = table.iter().copied().collect();
        for tenant in 0..3 {
            for context in (0..16).map(|b| 1usize << b).chain([3, 33, 47, 100]) {
                for batch in 0..10usize {
                    let key = CostKey {
                        tenant,
                        prefill: false,
                        bucket: bucket_log2(context),
                        batch: (batch.max(1).next_power_of_two() as u32).min(s.max_batch_pow2),
                    };
                    let want = map.get(&key).copied().unwrap_or_else(|| {
                        map.iter()
                            .filter(|(k, _)| k.tenant == tenant && !k.prefill && k.batch == key.batch)
                            .max_by_key(|(k, _)| k.bucket)
                            .map_or(1, |(k, &c)| c.saturating_mul(1 << key.bucket.saturating_sub(k.bucket)))
                    });
                    assert_eq!(s.healthy_decode_cost(tenant, context, batch), want);
                }
                let key = CostKey { tenant, prefill: true, bucket: bucket_log2(context), batch: 1 };
                let want = map.get(&key).copied().unwrap_or(1);
                assert_eq!(s.healthy_prefill_cost(tenant, context), want);
            }
        }
    }

    #[test]
    fn context_beyond_probed_range_stays_deterministic() {
        let ts = vec![tiny_tenant()];
        let s = Shard::new(0, ShardSpec::Tandem, &ts, 2);
        let far = s.healthy_decode_cost(0, 1 << 14, 1);
        assert!(far >= s.healthy_decode_cost(0, 64, 1));
        assert_eq!(far, s.healthy_decode_cost(0, 1 << 14, 1));
    }
}
