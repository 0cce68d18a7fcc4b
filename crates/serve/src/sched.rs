//! The deterministic discrete-event serving scheduler.
//!
//! One event loop advances simulated time over five event classes —
//! fault/chaos injections, compile-outage expiries, batch completions,
//! retry re-dispatches, request arrivals (processed in that order at equal
//! timestamps, then by a stable tie id) — and after *every* event pumps the
//! pool to a work-conserving fixpoint: each startable shard begins a batch
//! from its own queue if idle, then idle shards with empty queues steal the
//! oldest waiting sequence from the most-backlogged shard. The
//! post-condition (no startable shard idle while any compatible work waits
//! anywhere) is audited on every event, not assumed.
//!
//! Arrivals never enter the event heap. The arrival trace is already in
//! `(arrival_ns, id)` order, so the loop walks it with a cursor and takes,
//! each step, the smaller of the cursor's arrival and the heap top under
//! the one `(time, class, tie, payload)` key — the exact order a single
//! heap holding both would pop. The heap holds only completions (one per
//! shard at most), retries, resumes and faults, so its size follows the
//! pool and the fault schedule, not the trace length.
//!
//! Scheduling policy, in one paragraph: admission control caps
//! admitted-but-incomplete requests at `max_in_flight` (typed `QueueFull`
//! rejection past it; `NoCapacity` when no shard is in service; `Shed` when
//! the best achievable backlog-estimated latency exceeds
//! `shed_deadline_factor × slo`). Placement charges each in-service shard
//! its estimated backlog plus the request's estimated remaining work — both
//! priced from the shard's *measured* cost table times its fault capacity
//! factor — and picks the minimum, lowest shard id on ties. Batches form
//! from a shard's queue around the most urgent waiting sequence (lowest
//! priority class, FIFO within a class — identical to plain FIFO when every
//! tenant shares one class): all members share one compatibility key
//! `(tenant, phase, shape bucket)`; prefill runs at batch 1, decode packs
//! up to `max_batch`. Completions re-enqueue unfinished sequences at the
//! tail (continuous batching).
//!
//! Failure semantics come in two flavors. The legacy [`FaultEvent`] list
//! keeps PR 6's *drain* semantics — the plan re-prices the shard, queued
//! work re-places, the in-flight batch finishes even on a now-dead shard —
//! bit-identical to before chaos existed. [`ChaosEvent`]s are the violent
//! path (DESIGN.md §12): a `Crash` kills the in-flight batch *mid-step*
//! (none of its tokens commit — replay idempotence is the accounting rule,
//! not an aspiration) and every member enters the bounded-backoff retry
//! ladder ([`RetryPolicy`]); exhausting the budget yields a typed
//! [`Outcome::Abandoned`]. A `CompileOutage` lets running work finish but
//! blocks new batches until the window expires. The extended audit proves
//! conservation under all of it: every admitted request reaches exactly one
//! terminal state, and `tokens_committed == tokens_reported` — a token is
//! counted exactly when its batch completes, never when a batch dies.
//!
//! When `preempt` is on, a running low-priority *decode* batch is preempted
//! (its members return to the queue head; the partial step never commits)
//! as soon as a strictly-higher-priority prefill would otherwise miss a
//! TTFT bound of `slo / 4`. Urgency is resolved through an *exact*
//! per-shard index — a `BTreeMap` counting queued sequences per
//! `(priority class, phase)` bucket, maintained at every queue mutation —
//! so a TTFT-threatened prefill is found no matter how deep it sits in the
//! queue (the old implementation scanned only the first 64 positions and
//! went blind past them).
//!
//! A batch forms in place: the scan starts at the most urgent sequence
//! (everything ahead of it is another priority class, so cannot share its
//! key), stops at the cap-th match, and the members leave in one
//! order-keeping pass — the same members and the same residual queue as
//! rotating the whole queue through the key test, without touching the
//! entries past the last member.
//!
//! Everything is a pure function of the [`ServeConfig`] (including its
//! seed): no wall clock, no ambient randomness, no hash-order iteration on
//! any decision path. That is the bit-exact replay invariant, and the
//! thread-determinism regression holds because the only parallelism in
//! reach — kernel compilation inside a PICACHU shard — is itself
//! bit-deterministic in the thread count.

use crate::arrivals::{arrival_trace, ArrivalPattern, Request, Tenant};
use crate::chaos::{ChaosAction, ChaosEvent};
use crate::pool::{bucket_log2, Shard, ShardReport, ShardSpec};
use picachu_faults::{FaultPlan, RetryPolicy};
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::collections::BinaryHeap;
use std::collections::VecDeque;

/// A fault injection scheduled into the serving trace, with PR 6 *drain*
/// semantics: the in-flight batch completes even if the plan takes the
/// shard out of service. For crash-style mid-batch failure use
/// [`ServeConfig::chaos`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// When the plan lands, in ns.
    pub at_ns: u64,
    /// Which shard it hits.
    pub shard: usize,
    /// The plan (empty plan = repair to full health).
    pub plan: FaultPlan,
}


/// Fraction of a request's SLO budgeted for time-to-first-token by the
/// preemption rule: a queued prefill whose wait would push TTFT past
/// `slo / 4` may preempt a strictly-lower-priority decode batch.
pub const PREEMPT_TTFT_DIVISOR: u64 = 4;

/// Full configuration of one serving run — the replay seed of everything.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Seed for the arrival trace.
    pub seed: u64,
    /// The tenants sharing the pool.
    pub tenants: Vec<Tenant>,
    /// Load shape.
    pub pattern: ArrivalPattern,
    /// Requests to generate.
    pub n_requests: usize,
    /// The accelerator pool.
    pub pool: Vec<ShardSpec>,
    /// Max sequences per decode batch.
    pub max_batch: usize,
    /// Admission cap: max admitted-but-incomplete requests.
    pub max_in_flight: usize,
    /// Mid-trace fault injections (drain semantics).
    pub faults: Vec<FaultEvent>,
    /// Mid-trace chaos injections (crash/recover/outage semantics); build
    /// with [`chaos_schedule`](crate::chaos_schedule) or by hand.
    pub chaos: Vec<ChaosEvent>,
    /// Retry budget and backoff for requests whose shard crashed under
    /// them. Shares the audited [`RetryPolicy`] implementation with the
    /// DMA channel's hardware retry ladder.
    pub retry: RetryPolicy,
    /// Allow high-priority prefills to preempt lower-priority decode
    /// batches (off = strict FIFO-within-priority, no preemption).
    pub preempt: bool,
    /// Load shedding: reject at admission (typed [`RejectReason::Shed`])
    /// when the best shard's backlog-estimated completion exceeds
    /// `factor × slo_ns`. `None` disables shedding.
    pub shed_deadline_factor: Option<f64>,
    /// Record every batch in [`ServeReport::batch_log`] (tests; costs
    /// memory on long traces).
    pub log_batches: bool,
}

impl ServeConfig {
    /// A minimal config over `pool` with sane defaults (tests/smoke):
    /// no chaos, no preemption, no shedding, a 3-retry / 0.5 ms-base
    /// backoff ladder.
    pub fn new(tenants: Vec<Tenant>, pattern: ArrivalPattern, pool: Vec<ShardSpec>) -> ServeConfig {
        ServeConfig {
            seed: 0x5E2F,
            tenants,
            pattern,
            n_requests: 100,
            pool,
            max_batch: 8,
            max_in_flight: 1024,
            faults: Vec::new(),
            chaos: Vec::new(),
            retry: RetryPolicy::new(3, 500_000),
            preempt: false,
            shed_deadline_factor: None,
            log_batches: false,
        }
    }
}

/// Why a request was turned away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Admission control: the pool already holds `max_in_flight` admitted
    /// incomplete requests.
    QueueFull,
    /// No shard is in service (at arrival, or after losing the shard that
    /// held the sequence with no healthy shard to re-place onto).
    NoCapacity,
    /// Load shedding: even the best shard's backlog-estimated completion
    /// would exceed the deadline bound, so admitting the request would
    /// only add a guaranteed SLO miss to the backlog.
    Shed,
}

/// Terminal state of a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The request finished all its tokens.
    Completed {
        /// Time to first token: prefill completion, in ns since arrival.
        ttft_ns: u64,
        /// Completion time in absolute ns.
        finish_ns: u64,
        /// Tokens produced (1 prefill token + decode tokens).
        tokens: usize,
        /// Distinct shards that served it, in first-touch order.
        shards: Vec<usize>,
        /// Crash-retry re-dispatches this request survived (0 = clean run).
        retries: u32,
    },
    /// The request was rejected.
    Rejected {
        /// When, in absolute ns.
        at_ns: u64,
        /// Why.
        reason: RejectReason,
        /// Whether it had been admitted first (lost to a pool-wide outage).
        after_admission: bool,
    },
    /// The request exhausted its crash-retry budget and was dropped.
    Abandoned {
        /// When the budget ran out, in absolute ns.
        at_ns: u64,
        /// Retry attempts issued before giving up (= the full budget).
        attempts: u32,
    },
}

/// Per-request completion record — the unit of the determinism and
/// conservation contracts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestRecord {
    /// Request id (generation order).
    pub id: u64,
    /// Tenant index.
    pub tenant: usize,
    /// Arrival time in ns.
    pub arrival_ns: u64,
    /// Completion deadline relative to arrival.
    pub slo_ns: u64,
    /// How it ended.
    pub outcome: Outcome,
}

/// One executed batch (recorded when [`ServeConfig::log_batches`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRecord {
    /// Shard that ran it.
    pub shard: usize,
    /// Tenant of every member.
    pub tenant: usize,
    /// Prefill or decode.
    pub prefill: bool,
    /// log2 shape bucket of every member.
    pub bucket: u32,
    /// Member request ids.
    pub members: Vec<u64>,
    /// Issue time in ns.
    pub start_ns: u64,
    /// Step cost in ns (capacity-scaled).
    pub cost_ns: u64,
}

/// Machine-checked counters for the scheduler invariants (PR 6's four plus
/// conservation-under-failure).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Audit {
    /// Requests generated by the arrival trace.
    pub generated: u64,
    /// Requests admitted past admission control.
    pub admitted: u64,
    /// Admitted requests that completed.
    pub completed: u64,
    /// Requests rejected at admission (includes shed).
    pub rejected_at_admission: u64,
    /// Admitted requests rejected later (pool-wide outage).
    pub rejected_after_admission: u64,
    /// Requests rejected by load shedding (subset of
    /// `rejected_at_admission`).
    pub shed: u64,
    /// Admitted requests dropped after exhausting the retry budget.
    pub abandoned: u64,
    /// Retry re-dispatches scheduled (crash recovery).
    pub retries: u64,
    /// Decode batches preempted for a higher-priority prefill.
    pub preemptions: u64,
    /// In-flight batches killed by chaos crashes.
    pub killed_batches: u64,
    /// Tokens committed by completed batch steps: one per member at
    /// prefill completion, one per member per decode step. Killed and
    /// preempted batches commit nothing — that is replay idempotence.
    pub tokens_committed: u64,
    /// Tokens the per-request terminal states account for (prefill token
    /// if TTFT was ever set, plus decode tokens produced). Must equal
    /// `tokens_committed`: the conservation-under-failure invariant.
    pub tokens_reported: u64,
    /// Times a startable shard sat idle while compatible work waited
    /// (work-conservation invariant; must stay 0).
    pub work_conservation_violations: u64,
    /// Batches whose members mixed tenants/phases/buckets (batching
    /// legality; must stay 0).
    pub batch_legality_violations: u64,
    /// Requests driven to a terminal state twice (conservation; must stay 0).
    pub double_terminal_violations: u64,
    /// Requests left non-terminal when the event queue drained (must stay 0).
    pub stranded: u64,
}

impl Audit {
    /// Checks the conservation arithmetic and the violation counters,
    /// returning the first broken invariant as text.
    ///
    /// # Errors
    /// A human-readable description of the violated invariant.
    pub fn check(&self) -> Result<(), String> {
        if self.generated != self.admitted + self.rejected_at_admission {
            return Err(format!(
                "conservation: generated {} != admitted {} + rejected-at-admission {}",
                self.generated, self.admitted, self.rejected_at_admission
            ));
        }
        if self.admitted != self.completed + self.rejected_after_admission + self.abandoned {
            return Err(format!(
                "conservation: admitted {} != completed {} + rejected-after {} + abandoned {}",
                self.admitted, self.completed, self.rejected_after_admission, self.abandoned
            ));
        }
        if self.shed > self.rejected_at_admission {
            return Err(format!(
                "shed {} exceeds rejected-at-admission {}",
                self.shed, self.rejected_at_admission
            ));
        }
        if self.tokens_committed != self.tokens_reported {
            return Err(format!(
                "failure conservation: {} tokens committed by batches but {} reported \
                 by terminal states (lost or double-counted work)",
                self.tokens_committed, self.tokens_reported
            ));
        }
        if self.stranded != 0 {
            return Err(format!("{} requests stranded non-terminal", self.stranded));
        }
        if self.double_terminal_violations != 0 {
            return Err(format!(
                "{} requests reached a terminal state twice",
                self.double_terminal_violations
            ));
        }
        if self.work_conservation_violations != 0 {
            return Err(format!(
                "{} work-conservation violations (idle shard with waiting work)",
                self.work_conservation_violations
            ));
        }
        if self.batch_legality_violations != 0 {
            return Err(format!(
                "{} illegal batches (mixed tenant/phase/bucket)",
                self.batch_legality_violations
            ));
        }
        Ok(())
    }
}

/// Everything one serving run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Per-request records, indexed by request id.
    pub records: Vec<RequestRecord>,
    /// Per-shard reports.
    pub shards: Vec<ShardReport>,
    /// Invariant counters.
    pub audit: Audit,
    /// Time of the last event, in ns.
    pub horizon_ns: u64,
    /// Events processed by the loop (arrivals, completions, faults,
    /// retries, resumes) — the soak harness's scale measure.
    pub events: u64,
    /// Batch log (empty unless [`ServeConfig::log_batches`]).
    pub batch_log: Vec<BatchRecord>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SeqPhase {
    Prefill,
    Decode,
}

/// Scheduler-side state of one admitted request.
struct SeqState {
    req: Request,
    phase: SeqPhase,
    /// KV-cache length (tokens) once decoding.
    context: usize,
    /// Decode tokens produced so far.
    produced: usize,
    /// Current shard assignment.
    shard: usize,
    /// Shards that ever ran a step of this request, first-touch order.
    shards_touched: Vec<usize>,
    /// Estimated remaining work charged to the current shard's backlog.
    charged_ns: u64,
    /// Crash-retry re-dispatches issued so far.
    attempts: u32,
    ttft_ns: Option<u64>,
    outcome: Option<Outcome>,
}

impl SeqState {
    fn bucket(&self) -> u32 {
        match self.phase {
            SeqPhase::Prefill => bucket_log2(self.req.prompt),
            SeqPhase::Decode => bucket_log2(self.context),
        }
    }
}

/// Event classes in processing order at equal timestamps. Faults strike
/// before anything else sees the instant; resumes beat completions so a
/// shard unblocked at t can be audited as startable at t; completions beat
/// retries and arrivals so freed capacity is visible to them; retries beat
/// arrivals so recovered work keeps its seniority.
const CLASS_FAULT: u8 = 0;
const CLASS_RESUME: u8 = 1;
const CLASS_COMPLETION: u8 = 2;
const CLASS_RETRY: u8 = 3;
const CLASS_ARRIVAL: u8 = 4;

/// An event: `(time, class, tie, payload)` — fully ordered, so the
/// processing sequence is a pure function of the trace and the pushes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Ev {
    t: u64,
    class: u8,
    tie: u64,
    payload: u64,
}

struct InFlight {
    /// Unique id; a completion event whose payload doesn't match the
    /// occupant is stale (its batch was killed or preempted) and ignored —
    /// the only way to "cancel" an event already in the heap.
    batch_id: u64,
    members: Vec<usize>,
    cost_ns: u64,
    start_ns: u64,
    done_at: u64,
    tenant: usize,
    prefill: bool,
}

struct ShardState {
    shard: Shard,
    queue: VecDeque<usize>,
    /// Exact urgency index over `queue`: `(priority class, is_prefill)` →
    /// number of queued sequences in that bucket. Zero-count entries are
    /// removed, so the first key *is* the most urgent bucket present. Every
    /// queue mutation goes through the `enqueue_*`/`dequeue_*` helpers or
    /// `form_batch`, which keep this in sync; a sequence's bucket is stable
    /// while it waits (phase only flips between batches, never in the
    /// queue).
    urgency: BTreeMap<(u8, bool), usize>,
    busy: Option<InFlight>,
    est_backlog_ns: u64,
    /// Compile-outage gate: no new batch starts before this instant.
    blocked_until: u64,
    batches: u64,
    steps: u64,
    busy_ns: u64,
    killed_batches: u64,
    preempted_batches: u64,
    wasted_ns: u64,
}

impl ShardState {
    fn new(shard: Shard) -> ShardState {
        ShardState {
            shard,
            queue: VecDeque::new(),
            urgency: BTreeMap::new(),
            busy: None,
            est_backlog_ns: 0,
            blocked_until: 0,
            batches: 0,
            steps: 0,
            busy_ns: 0,
            killed_batches: 0,
            preempted_batches: 0,
            wasted_ns: 0,
        }
    }
}

/// How a FAULT-class event resolves: index into the legacy `faults` list
/// or into the `chaos` list.
enum FaultSrc {
    Legacy(usize),
    Chaos(usize),
}

struct Sim<'a> {
    cfg: &'a ServeConfig,
    shards: Vec<ShardState>,
    seqs: Vec<SeqState>,
    /// Completions, retries, resumes and faults. Arrivals never enter it:
    /// `run` merges them in from the sorted trace.
    events: BinaryHeap<Reverse<Ev>>,
    audit: Audit,
    batch_log: Vec<BatchRecord>,
    in_flight_requests: u64,
    next_batch_id: u64,
    horizon_ns: u64,
    /// Per-request records by id: arrival-time rejections are written here
    /// as they happen, admitted requests when the loop drains.
    records: Vec<Option<RequestRecord>>,
}

/// Runs one serving trace to completion. Pure in `cfg`.
pub fn run(cfg: &ServeConfig) -> ServeReport {
    let requests = arrival_trace(cfg.pattern, &cfg.tenants, cfg.n_requests, cfg.seed);
    // the arrival cursor below relies on this order
    debug_assert!(
        requests
            .iter()
            .enumerate()
            .all(|(i, r)| r.id == i as u64
                && (i == 0 || requests[i - 1].arrival_ns <= r.arrival_ns)),
        "arrival_trace must return requests in (arrival_ns, id) order"
    );
    let shards: Vec<ShardState> = cfg
        .pool
        .iter()
        .enumerate()
        .map(|(id, spec)| {
            ShardState::new(Shard::new(id, spec.clone(), &cfg.tenants, cfg.max_batch))
        })
        .collect();

    let mut sim = Sim {
        cfg,
        shards,
        seqs: Vec::new(),
        events: BinaryHeap::new(),
        audit: Audit { generated: requests.len() as u64, ..Audit::default() },
        batch_log: Vec::new(),
        in_flight_requests: 0,
        next_batch_id: 0,
        horizon_ns: 0,
        records: vec![None; requests.len()],
    };

    // legacy faults take tie ids [0, faults.len()); chaos follows, so a
    // legacy-only config replays the exact pre-chaos event sequence
    for (i, f) in cfg.faults.iter().enumerate() {
        sim.events.push(Reverse(Ev {
            t: f.at_ns,
            class: CLASS_FAULT,
            tie: i as u64,
            payload: i as u64,
        }));
    }
    for (i, c) in cfg.chaos.iter().enumerate() {
        let tie = (cfg.faults.len() + i) as u64;
        sim.events.push(Reverse(Ev { t: c.at_ns, class: CLASS_FAULT, tie, payload: tie }));
    }

    // two sorted streams of one key: the arrival trace (already in
    // (arrival_ns, id) order, the order its heap events would pop in) and
    // the heap. Taking the smaller head each step replays exactly the
    // sequence a single heap holding both would pop.
    let mut next_arrival = 0usize;
    let mut events_processed: u64 = 0;
    loop {
        let arrival = requests.get(next_arrival).map(|r| Ev {
            t: r.arrival_ns,
            class: CLASS_ARRIVAL,
            tie: r.id,
            payload: next_arrival as u64,
        });
        let ev = match arrival {
            Some(a) if sim.events.peek().is_none_or(|Reverse(h)| a < *h) => {
                next_arrival += 1;
                a
            }
            _ => match sim.events.pop() {
                Some(Reverse(h)) => h,
                None => break,
            },
        };
        events_processed += 1;
        sim.horizon_ns = sim.horizon_ns.max(ev.t);
        match ev.class {
            CLASS_FAULT => {
                let src = if (ev.payload as usize) < cfg.faults.len() {
                    FaultSrc::Legacy(ev.payload as usize)
                } else {
                    FaultSrc::Chaos(ev.payload as usize - cfg.faults.len())
                };
                sim.on_fault(ev.t, &src);
            }
            CLASS_RESUME => {} // the gate is time-based; pumping suffices
            CLASS_COMPLETION => sim.on_completion(ev.t, ev.tie as usize, ev.payload),
            CLASS_RETRY => sim.on_retry(ev.t, ev.payload as usize),
            CLASS_ARRIVAL => sim.on_arrival(ev.t, &requests[ev.payload as usize]),
            _ => unreachable!("unknown event class"),
        }
        sim.pump(ev.t);
    }

    // conservation: everything admitted must have reached exactly one
    // terminal state by drain time, and the tokens its terminal state
    // reports must be exactly the tokens its batches committed
    for s in &sim.seqs {
        sim.audit.tokens_reported +=
            s.produced as u64 + u64::from(s.ttft_ns.is_some());
        match &s.outcome {
            Some(o) => {
                sim.records[s.req.id as usize] = Some(RequestRecord {
                    id: s.req.id,
                    tenant: s.req.tenant,
                    arrival_ns: s.req.arrival_ns,
                    slo_ns: s.req.slo_ns,
                    outcome: o.clone(),
                });
            }
            None => sim.audit.stranded += 1,
        }
    }
    let records: Vec<RequestRecord> = sim.records.into_iter().flatten().collect();

    let shards = sim
        .shards
        .iter()
        .map(|s| ShardReport {
            shard: s.shard.id,
            backend: s.shard.backend_name.clone(),
            batches: s.batches,
            steps: s.steps,
            busy_ns: s.busy_ns,
            cost_table: s.shard.cost_table(),
            final_capacity_factor: s.shard.capacity_factor,
            killed_batches: s.killed_batches,
            preempted_batches: s.preempted_batches,
            wasted_ns: s.wasted_ns,
        })
        .collect();

    ServeReport {
        records,
        shards,
        audit: sim.audit,
        horizon_ns: sim.horizon_ns,
        events: events_processed,
        batch_log: sim.batch_log,
    }
}

impl Sim<'_> {
    /// Estimated remaining work of `seq` on shard `sid`, capacity-scaled:
    /// pending prefill plus remaining tokens at the amortized max-batch
    /// decode rate.
    fn estimate_remaining(&self, seq: &SeqState, sid: usize) -> u64 {
        let sh = &self.shards[sid].shard;
        let t = seq.req.tenant;
        let mut ns = 0u64;
        if seq.phase == SeqPhase::Prefill {
            ns += sh.healthy_prefill_cost(t, seq.req.prompt);
        }
        let remaining = seq.req.decode.saturating_sub(seq.produced) as u64;
        if remaining > 0 {
            let ctx = if seq.phase == SeqPhase::Prefill { seq.req.prompt } else { seq.context };
            let b = self.cfg.max_batch.max(1);
            let step = sh.healthy_decode_cost(t, ctx, b);
            ns += (step / b as u64).max(1).saturating_mul(remaining);
        }
        sh.scaled(ns.max(1))
    }

    /// Best in-service shard for `seq` with its estimated-completion score
    /// (backlog + this request's remaining work); ties go to the lowest
    /// shard id. `None` when the whole pool is out of service.
    fn place_scored(&self, seq: &SeqState) -> Option<(u64, usize)> {
        let mut best: Option<(u64, usize)> = None;
        for (sid, s) in self.shards.iter().enumerate() {
            if !s.shard.in_service() {
                continue;
            }
            let score = s.est_backlog_ns.saturating_add(self.estimate_remaining(seq, sid));
            if best.is_none_or(|(b, _)| score < b) {
                best = Some((score, sid));
            }
        }
        best
    }

    /// [`Sim::place_scored`] without the score.
    fn place(&self, seq: &SeqState) -> Option<usize> {
        self.place_scored(seq).map(|(_, sid)| sid)
    }

    /// Assigns `seq_idx` to `sid`, charging the backlog estimate.
    fn assign(&mut self, seq_idx: usize, sid: usize) {
        let est = self.estimate_remaining(&self.seqs[seq_idx], sid);
        let seq = &mut self.seqs[seq_idx];
        seq.shard = sid;
        seq.charged_ns = est;
        let s = &mut self.shards[sid];
        s.est_backlog_ns = s.est_backlog_ns.saturating_add(est);
        self.enqueue_back(sid, seq_idx);
    }

    /// Removes `seq_idx`'s backlog charge from its current shard.
    fn discharge(&mut self, seq_idx: usize) {
        let (sid, charged) = {
            let seq = &self.seqs[seq_idx];
            (seq.shard, seq.charged_ns)
        };
        let s = &mut self.shards[sid];
        s.est_backlog_ns = s.est_backlog_ns.saturating_sub(charged);
        self.seqs[seq_idx].charged_ns = 0;
    }

    fn terminal(&mut self, seq_idx: usize, outcome: Outcome) {
        let seq = &mut self.seqs[seq_idx];
        if seq.outcome.is_some() {
            self.audit.double_terminal_violations += 1;
            return;
        }
        match &outcome {
            Outcome::Completed { .. } => self.audit.completed += 1,
            Outcome::Rejected { .. } => self.audit.rejected_after_admission += 1,
            Outcome::Abandoned { .. } => self.audit.abandoned += 1,
        }
        seq.outcome = Some(outcome);
        self.in_flight_requests -= 1;
    }

    /// Re-dispatches a sequence that lost its shard: schedules a retry
    /// after the policy's backoff, or abandons it once the budget is gone.
    /// The sequence keeps all committed progress (`produced`, `ttft_ns`) —
    /// a retry replays only the step that died.
    fn retry_or_abandon(&mut self, seq_idx: usize, now: u64) {
        if self.seqs[seq_idx].outcome.is_some() {
            return;
        }
        let attempts = self.seqs[seq_idx].attempts;
        if self.cfg.retry.exhausted(attempts) {
            self.terminal(seq_idx, Outcome::Abandoned { at_ns: now, attempts });
            return;
        }
        self.seqs[seq_idx].attempts = attempts + 1;
        self.audit.retries += 1;
        self.events.push(Reverse(Ev {
            t: now.saturating_add(self.cfg.retry.backoff(attempts)),
            class: CLASS_RETRY,
            tie: seq_idx as u64,
            payload: seq_idx as u64,
        }));
    }

    fn on_retry(&mut self, now: u64, seq_idx: usize) {
        if self.seqs[seq_idx].outcome.is_some() {
            return;
        }
        match self.place(&self.seqs[seq_idx]) {
            Some(sid) => self.assign(seq_idx, sid),
            // pool still fully down: burn another attempt and back off more
            None => self.retry_or_abandon(seq_idx, now),
        }
    }

    fn on_arrival(&mut self, now: u64, req: &Request) {
        if self.in_flight_requests >= self.cfg.max_in_flight as u64 {
            self.reject_at_arrival(now, req, RejectReason::QueueFull);
            return;
        }
        if !self.shards.iter().any(|s| s.shard.in_service()) {
            self.reject_at_arrival(now, req, RejectReason::NoCapacity);
            return;
        }
        let seq = SeqState {
            req: *req,
            phase: SeqPhase::Prefill,
            context: 0,
            produced: 0,
            shard: usize::MAX,
            shards_touched: Vec::new(),
            charged_ns: 0,
            attempts: 0,
            ttft_ns: None,
            outcome: None,
        };
        // load shedding: if even the best placement blows the deadline
        // bound, admitting only manufactures a guaranteed SLO miss
        let placed = self.place_scored(&seq);
        if let (Some(factor), Some((score, _))) = (self.cfg.shed_deadline_factor, placed) {
            let bound = (req.slo_ns as f64 * factor.max(0.0)) as u64;
            if score > bound {
                self.audit.shed += 1;
                self.reject_at_arrival(now, req, RejectReason::Shed);
                return;
            }
        }
        self.audit.admitted += 1;
        self.in_flight_requests += 1;
        let seq_idx = self.seqs.len();
        self.seqs.push(seq);
        // admission passed and some shard is in service, so place() holds
        if let Some((_, sid)) = placed {
            self.assign(seq_idx, sid);
        }
    }

    fn on_completion(&mut self, now: u64, sid: usize, batch_id: u64) {
        let fl = match self.shards[sid].busy.take() {
            Some(fl) if fl.batch_id == batch_id => fl,
            Some(fl) => {
                // stale completion: the batch this event announced was
                // killed or preempted and someone else runs now
                self.shards[sid].busy = Some(fl);
                return;
            }
            None => return,
        };
        {
            let s = &mut self.shards[sid];
            s.busy_ns += fl.cost_ns;
            s.batches += 1;
            s.steps += fl.members.len() as u64;
        }
        let in_service = self.shards[sid].shard.in_service();
        for &seq_idx in &fl.members {
            self.audit.tokens_committed += 1;
            let done = {
                let seq = &mut self.seqs[seq_idx];
                if !seq.shards_touched.contains(&sid) {
                    seq.shards_touched.push(sid);
                }
                match seq.phase {
                    SeqPhase::Prefill => {
                        seq.phase = SeqPhase::Decode;
                        seq.context = seq.req.prompt;
                        seq.ttft_ns = Some(now.saturating_sub(seq.req.arrival_ns));
                        seq.req.decode == 0
                    }
                    SeqPhase::Decode => {
                        seq.produced += 1;
                        seq.context += 1;
                        seq.produced >= seq.req.decode
                    }
                }
            };
            if done {
                let seq = &self.seqs[seq_idx];
                let outcome = Outcome::Completed {
                    ttft_ns: seq.ttft_ns.unwrap_or(0),
                    finish_ns: now,
                    tokens: 1 + seq.req.decode,
                    shards: seq.shards_touched.clone(),
                    retries: seq.attempts,
                };
                self.discharge(seq_idx);
                self.terminal(seq_idx, outcome);
            } else if in_service {
                // continuous batching: back to this shard's queue tail
                self.enqueue_back(sid, seq_idx);
            } else {
                // the shard died under this batch: re-place or reject
                self.discharge(seq_idx);
                match self.place(&self.seqs[seq_idx]) {
                    Some(new_sid) => self.assign(seq_idx, new_sid),
                    None => self.terminal(
                        seq_idx,
                        Outcome::Rejected {
                            at_ns: now,
                            reason: RejectReason::NoCapacity,
                            after_admission: true,
                        },
                    ),
                }
            }
        }
    }

    fn on_fault(&mut self, now: u64, src: &FaultSrc) {
        // self.cfg outlives &mut self: reborrow it so the event data stays
        // readable across the mutating handlers
        let cfg = self.cfg;
        match src {
            FaultSrc::Legacy(i) => {
                let f = &cfg.faults[*i];
                if f.shard >= self.shards.len() {
                    return;
                }
                self.degrade(now, f.shard, &f.plan, false);
            }
            FaultSrc::Chaos(i) => {
                let c = &cfg.chaos[*i];
                if c.shard >= self.shards.len() {
                    return;
                }
                match &c.action {
                    ChaosAction::Crash => self.crash(now, c.shard),
                    ChaosAction::Degrade(plan) => self.degrade(now, c.shard, plan, true),
                    ChaosAction::Recover => self.recover(c.shard),
                    ChaosAction::CompileOutage { for_ns } => {
                        self.compile_outage(now, c.shard, *for_ns);
                    }
                }
            }
        }
    }

    /// Applies `plan` to `sid` with drain semantics: the in-flight batch
    /// finishes, queued work re-places. On a now-dead pool, displaced work
    /// goes to the retry ladder for chaos events (`retryable`) and to the
    /// PR 6 typed rejection for legacy fault events — the legacy path must
    /// replay bit-identically to before retries existed.
    fn degrade(&mut self, now: u64, sid: usize, plan: &FaultPlan, retryable: bool) {
        self.shards[sid].shard.apply_fault(plan, &self.cfg.tenants);
        let displaced = self.drain_queue(sid);
        for seq_idx in displaced {
            self.discharge(seq_idx);
            match self.place(&self.seqs[seq_idx]) {
                Some(new_sid) => self.assign(seq_idx, new_sid),
                None if retryable => self.retry_or_abandon(seq_idx, now),
                None => self.terminal(
                    seq_idx,
                    Outcome::Rejected {
                        at_ns: now,
                        reason: RejectReason::NoCapacity,
                        after_admission: true,
                    },
                ),
            }
        }
    }

    /// Kills `sid` outright: capacity goes infinite, the in-flight batch
    /// dies with *nothing* committed (its completion event goes stale via
    /// the batch id), and every member — running or queued — re-places on
    /// the survivors or enters the retry ladder.
    fn crash(&mut self, now: u64, sid: usize) {
        self.shards[sid].shard.force_out_of_service();
        if let Some(fl) = self.shards[sid].busy.take() {
            self.audit.killed_batches += 1;
            self.shards[sid].killed_batches += 1;
            self.shards[sid].wasted_ns += now.saturating_sub(fl.start_ns);
            for &seq_idx in &fl.members {
                self.discharge(seq_idx);
                self.retry_or_abandon(seq_idx, now);
            }
        }
        let displaced = self.drain_queue(sid);
        for seq_idx in displaced {
            self.discharge(seq_idx);
            match self.place(&self.seqs[seq_idx]) {
                Some(new_sid) => self.assign(seq_idx, new_sid),
                None => self.retry_or_abandon(seq_idx, now),
            }
        }
    }

    /// Chaos recovery: clears faults and outage gates — full health.
    fn recover(&mut self, sid: usize) {
        self.shards[sid].shard.apply_fault(&FaultPlan::none(), &self.cfg.tenants);
        self.shards[sid].blocked_until = 0;
    }

    /// Transient compile failure: running work finishes, nothing new
    /// starts until the window expires (a RESUME event re-pumps then).
    fn compile_outage(&mut self, now: u64, sid: usize, for_ns: u64) {
        let until = now.saturating_add(for_ns);
        let s = &mut self.shards[sid];
        s.blocked_until = s.blocked_until.max(until);
        let until = s.blocked_until;
        self.events.push(Reverse(Ev {
            t: until,
            class: CLASS_RESUME,
            tie: sid as u64,
            payload: sid as u64,
        }));
    }

    /// Whether `sid` may begin a new batch at `now`.
    fn startable(&self, sid: usize, now: u64) -> bool {
        let s = &self.shards[sid];
        s.shard.in_service() && s.busy.is_none() && now >= s.blocked_until
    }

    /// Urgency-index bucket of a sequence: priority class first (BTreeMap
    /// order makes the smallest key the most urgent), phase second.
    fn urgency_key(&self, seq_idx: usize) -> (u8, bool) {
        let seq = &self.seqs[seq_idx];
        (self.cfg.tenants[seq.req.tenant].priority, seq.phase == SeqPhase::Prefill)
    }

    /// Enqueues `seq_idx` at the tail of `sid`'s queue, charging the index.
    fn enqueue_back(&mut self, sid: usize, seq_idx: usize) {
        let key = self.urgency_key(seq_idx);
        let s = &mut self.shards[sid];
        s.queue.push_back(seq_idx);
        *s.urgency.entry(key).or_insert(0) += 1;
    }

    /// Enqueues `seq_idx` at the head of `sid`'s queue, charging the index.
    fn enqueue_front(&mut self, sid: usize, seq_idx: usize) {
        let key = self.urgency_key(seq_idx);
        let s = &mut self.shards[sid];
        s.queue.push_front(seq_idx);
        *s.urgency.entry(key).or_insert(0) += 1;
    }

    /// Removes `n` index charges from bucket `key` (zero-count buckets
    /// drop out so the first remaining key is always the most urgent one
    /// present).
    fn uncharge_urgency(&mut self, sid: usize, key: (u8, bool), n: usize) {
        let urgency = &mut self.shards[sid].urgency;
        if let Some(c) = urgency.get_mut(&key) {
            *c -= n;
            if *c == 0 {
                urgency.remove(&key);
            }
        }
    }

    /// Pops the head of `sid`'s queue, discharging the index.
    fn dequeue_front(&mut self, sid: usize) -> Option<usize> {
        let seq_idx = self.shards[sid].queue.pop_front()?;
        self.uncharge_urgency(sid, self.urgency_key(seq_idx), 1);
        Some(seq_idx)
    }

    /// Removes the sequence at queue position `pos`, discharging the index.
    fn dequeue_at(&mut self, sid: usize, pos: usize) -> Option<usize> {
        let seq_idx = self.shards[sid].queue.remove(pos)?;
        self.uncharge_urgency(sid, self.urgency_key(seq_idx), 1);
        Some(seq_idx)
    }

    /// Empties `sid`'s queue (fault displacement), resetting the index.
    fn drain_queue(&mut self, sid: usize) -> Vec<usize> {
        let s = &mut self.shards[sid];
        s.urgency.clear();
        s.queue.drain(..).collect()
    }

    /// Queue position of the most urgent waiting sequence on `sid`: lowest
    /// priority class wins, FIFO within a class. The class comes from the
    /// exact urgency index (first key = most urgent bucket present, at any
    /// queue depth); the position is the class's first — most senior —
    /// occupant. With every tenant in one class this is always position 0 —
    /// plain FIFO, bit-identical to PR 6.
    fn urgent_front(&self, sid: usize) -> Option<usize> {
        let s = &self.shards[sid];
        let &(p, _) = s.urgency.keys().next()?;
        s.queue
            .iter()
            .position(|&qi| self.cfg.tenants[self.seqs[qi].req.tenant].priority == p)
    }

    /// Takes the next batch out of `sid`'s queue: the most urgent waiting
    /// sequence and, behind it in queue order, up to the cap of further
    /// sequences sharing its `(tenant, phase, bucket)` key. Returns the key
    /// and the members in queue order; the rest of the queue keeps its
    /// order. `None` on an empty queue.
    ///
    /// Every sequence ahead of the urgent front belongs to another priority
    /// class, so none can share the key: the scan starts at the front and
    /// stops at the cap-th match, and the members leave in one pass over
    /// the span from the front to the last of them. All members share one
    /// urgency bucket, charged off once.
    fn form_batch(&mut self, sid: usize) -> Option<(usize, SeqPhase, u32, Vec<usize>)> {
        let pos = self.urgent_front(sid)?;
        let (tenant, phase, bucket) = {
            let front = &self.seqs[self.shards[sid].queue[pos]];
            (front.req.tenant, front.phase, front.bucket())
        };
        let cap = if phase == SeqPhase::Prefill { 1 } else { self.cfg.max_batch.max(1) };
        let seqs = &self.seqs;
        let matches = |i: usize| {
            let s = &seqs[i];
            s.req.tenant == tenant && s.phase == phase && s.bucket() == bucket
        };
        let queue = &mut self.shards[sid].queue;
        let mut members = Vec::with_capacity(cap);
        let mut last = pos;
        for (p, &i) in queue.iter().enumerate().skip(pos) {
            if matches(i) {
                members.push(i);
                last = p;
                if members.len() == cap {
                    break;
                }
            }
        }
        // within [pos, last] the matches are exactly the members: slide
        // the others back over them, order kept, then drop the vacated span
        let mut w = last + 1;
        for r in (pos..=last).rev() {
            let i = queue[r];
            if !matches(i) {
                w -= 1;
                queue[w] = i;
            }
        }
        queue.drain(pos..w);
        self.uncharge_urgency(sid, self.urgency_key(members[0]), members.len());
        Some((tenant, phase, bucket, members))
    }

    /// Starts a batch on `sid` keyed by its most urgent waiting sequence.
    fn start_batch(&mut self, sid: usize, now: u64) {
        let Some((tenant, phase, bucket, members)) = self.form_batch(sid) else { return };

        // batching legality audit: every member shares the key
        for &i in &members {
            let s = &self.seqs[i];
            if s.req.tenant != tenant || s.phase != phase || s.bucket() != bucket {
                self.audit.batch_legality_violations += 1;
            }
        }

        let healthy = match phase {
            SeqPhase::Prefill => {
                self.shards[sid].shard.healthy_prefill_cost(tenant, 1usize << bucket)
            }
            SeqPhase::Decode => self.shards[sid].shard.healthy_decode_cost(
                tenant,
                1usize << bucket,
                members.len(),
            ),
        };
        let cost = self.shards[sid].shard.scaled(healthy);
        let done_at = now.saturating_add(cost);
        if self.cfg.log_batches {
            self.batch_log.push(BatchRecord {
                shard: sid,
                tenant,
                prefill: phase == SeqPhase::Prefill,
                bucket,
                members: members.iter().map(|&i| self.seqs[i].req.id).collect(),
                start_ns: now,
                cost_ns: cost,
            });
        }
        let batch_id = self.next_batch_id;
        self.next_batch_id += 1;
        self.shards[sid].busy = Some(InFlight {
            batch_id,
            members,
            cost_ns: cost,
            start_ns: now,
            done_at,
            tenant,
            prefill: phase == SeqPhase::Prefill,
        });
        self.events.push(Reverse(Ev {
            t: done_at,
            class: CLASS_COMPLETION,
            tie: sid as u64,
            payload: batch_id,
        }));
    }

    /// Preempts low-priority decode batches whose continued run would make
    /// a strictly-higher-priority queued prefill miss its TTFT bound
    /// (`slo / PREEMPT_TTFT_DIVISOR`). Preemption only fires when it is
    /// *useful*: starting the prefill now must still meet the bound — a
    /// prefill whose bound is already unreachable must not keep shooting
    /// down every batch behind it (that livelocks the shard). The killed
    /// step commits nothing; the preemptor jumps to the queue head so it
    /// actually starts next, with the preempted members right behind it.
    fn preempt_for_priority(&mut self, now: u64) {
        for sid in 0..self.shards.len() {
            if !self.shards[sid].shard.in_service() || now < self.shards[sid].blocked_until {
                continue;
            }
            let (batch_prio, done_at) = match &self.shards[sid].busy {
                Some(fl) if !fl.prefill => {
                    (self.cfg.tenants[fl.tenant].priority, fl.done_at)
                }
                _ => continue,
            };
            // exact: the first prefill bucket in the urgency index is the
            // most urgent queued prefill, no matter how deep it sits
            let best_prio = self.shards[sid]
                .urgency
                .keys()
                .find(|&&(_, prefill)| prefill)
                .map(|&(p, _)| p);
            let Some(p) = best_prio.filter(|&p| p < batch_prio) else { continue };
            let Some(pos) = self.shards[sid].queue.iter().position(|&qi| {
                let s = &self.seqs[qi];
                s.phase == SeqPhase::Prefill
                    && self.cfg.tenants[s.req.tenant].priority == p
            }) else {
                continue;
            };
            let (tenant, prompt, arrival, slo) = {
                let s = &self.seqs[self.shards[sid].queue[pos]];
                (s.req.tenant, s.req.prompt, s.req.arrival_ns, s.req.slo_ns)
            };
            let cost = {
                let sh = &self.shards[sid].shard;
                sh.scaled(sh.healthy_prefill_cost(tenant, prompt))
            };
            let deadline = arrival.saturating_add(slo / PREEMPT_TTFT_DIVISOR);
            if done_at.saturating_add(cost) <= deadline {
                continue; // waiting out the decode batch still meets TTFT
            }
            if now.saturating_add(cost) > deadline {
                // the bound is already unsalvageable: killing the decode
                // batch would waste its partial step without saving the
                // prefill, and an ever-doomed prefill must not shoot down
                // every batch behind it forever
                continue;
            }
            let Some(fl) = self.shards[sid].busy.take() else { continue };
            self.audit.preemptions += 1;
            self.shards[sid].preempted_batches += 1;
            self.shards[sid].wasted_ns += now.saturating_sub(fl.start_ns);
            // the preempting prefill jumps to the queue head so preemption
            // actually starts it next: left in place, a more senior
            // sequence of its class (or of a more urgent one) would take
            // the freed shard and the kill would have bought nothing
            let preemptor = self.dequeue_at(sid, pos);
            // preempted members return to the head in original order, so
            // they stay senior to everything behind them; the preemptor
            // goes in front of even them
            for &m in fl.members.iter().rev() {
                self.enqueue_front(sid, m);
            }
            if let Some(qi) = preemptor {
                self.enqueue_front(sid, qi);
            }
        }
    }

    /// Drives the pool to the work-conserving fixpoint, then audits it.
    fn pump(&mut self, now: u64) {
        // 0. priority preemption frees shards before anything starts
        if self.cfg.preempt {
            self.preempt_for_priority(now);
        }
        // 1. every idle startable shard starts from its own queue
        for sid in 0..self.shards.len() {
            if self.startable(sid, now) && !self.shards[sid].queue.is_empty() {
                self.start_batch(sid, now);
            }
        }
        // 2. idle startable shards with empty queues steal the oldest
        //    waiting sequence from the most-backlogged queue, to fixpoint
        loop {
            let thief = (0..self.shards.len())
                .find(|&sid| self.startable(sid, now) && self.shards[sid].queue.is_empty());
            let thief = match thief {
                Some(t) => t,
                None => break,
            };
            let donor = (0..self.shards.len())
                .filter(|&sid| sid != thief && !self.shards[sid].queue.is_empty())
                .max_by_key(|&sid| (self.shards[sid].queue.len(), Reverse(sid)));
            let donor = match donor {
                Some(d) => d,
                None => break,
            };
            let seq_idx = match self.dequeue_front(donor) {
                Some(i) => i,
                None => break,
            };
            self.discharge(seq_idx);
            let est = self.estimate_remaining(&self.seqs[seq_idx], thief);
            self.seqs[seq_idx].shard = thief;
            self.seqs[seq_idx].charged_ns = est;
            self.shards[thief].est_backlog_ns =
                self.shards[thief].est_backlog_ns.saturating_add(est);
            self.enqueue_back(thief, seq_idx);
            self.start_batch(thief, now);
        }
        // 3. audit: no startable shard may now be idle while work waits
        let waiting: usize = self.shards.iter().map(|s| s.queue.len()).sum();
        if waiting > 0 {
            for sid in 0..self.shards.len() {
                if self.startable(sid, now) {
                    self.audit.work_conservation_violations += 1;
                }
            }
        }
    }

    fn reject_at_arrival(&mut self, now: u64, req: &Request, reason: RejectReason) {
        self.audit.rejected_at_admission += 1;
        self.records[req.id as usize] = Some(RequestRecord {
            id: req.id,
            tenant: req.tenant,
            arrival_ns: req.arrival_ns,
            slo_ns: req.slo_ns,
            outcome: Outcome::Rejected { at_ns: now, reason, after_admission: false },
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ShardSpec;
    use picachu_llm::ModelConfig;
    use picachu_testkit::prop::Gen;
    use picachu_testkit::{prop_assert_eq, prop_check};

    fn tiny_tenant(name: &'static str, priority: u8, slo_ns: u64) -> Tenant {
        Tenant {
            name,
            model: ModelConfig { name, layers: 1, d_model: 32, n_heads: 4, d_ff: 64, ..ModelConfig::gpt2() },
            weight: 1,
            prompt: 16,
            decode: (1, 2),
            slo_ns,
            priority,
        }
    }

    /// A simulator over `shards` with nothing queued, running or pending.
    fn test_sim(cfg: &ServeConfig, shards: Vec<Shard>) -> Sim<'_> {
        Sim {
            cfg,
            shards: shards.into_iter().map(ShardState::new).collect(),
            seqs: Vec::new(),
            events: BinaryHeap::new(),
            audit: Audit::default(),
            batch_log: Vec::new(),
            in_flight_requests: 0,
            next_batch_id: 1,
            horizon_ns: 0,
            records: Vec::new(),
        }
    }

    /// The urgency index rebuilt from scratch over `sid`'s queue.
    fn recount(sim: &Sim<'_>, sid: usize) -> BTreeMap<(u8, bool), usize> {
        let mut index = BTreeMap::new();
        for &i in &sim.shards[sid].queue {
            *index.entry(sim.urgency_key(i)).or_insert(0) += 1;
        }
        index
    }

    fn seq(tenant: usize, phase: SeqPhase, prompt: usize, slo_ns: u64) -> SeqState {
        SeqState {
            req: Request { id: 0, tenant, arrival_ns: 0, prompt, decode: 2, slo_ns },
            phase,
            context: prompt,
            produced: 0,
            shard: 0,
            shards_touched: Vec::new(),
            charged_ns: 0,
            attempts: 0,
            ttft_ns: None,
            outcome: None,
        }
    }

    /// The regression the exact urgency index exists for: under the old
    /// bounded 64-entry scan, a TTFT-threatened high-priority prefill
    /// parked *behind* 100 bulk decodes was invisible to both
    /// `urgent_front` and the preemption pass. The index must find it at
    /// any depth and preempt the running low-priority decode batch.
    #[test]
    fn ttft_threatened_prefill_beyond_position_64_still_preempts() {
        const BULK: usize = 0;
        const VIP: usize = 1;
        let cfg = ServeConfig {
            preempt: true,
            ..ServeConfig::new(
                vec![tiny_tenant("bulk", 1, u64::MAX), tiny_tenant("vip", 0, 0)],
                ArrivalPattern::Poisson { mean_gap_ns: 1e6 },
                vec![ShardSpec::Gemmini],
            )
        };
        let shard = Shard::new(0, ShardSpec::Gemmini, &cfg.tenants, cfg.max_batch);
        // pick the vip SLO so its TTFT bound (slo/4) is threatened by the
        // running batch but still reachable by preempting right now
        let prefill_cost = shard.scaled(shard.healthy_prefill_cost(VIP, 16));
        let vip_slo = 8 * prefill_cost;
        let mut sim = test_sim(&cfg, vec![shard]);

        // a low-priority decode batch occupies the shard until far future
        for _ in 0..2 {
            sim.seqs.push(seq(BULK, SeqPhase::Decode, 16, u64::MAX));
        }
        sim.shards[0].busy = Some(InFlight {
            batch_id: 0,
            members: vec![0, 1],
            cost_ns: u64::MAX / 4,
            start_ns: 0,
            done_at: u64::MAX / 4,
            tenant: BULK,
            prefill: false,
        });

        // 100 bulk decodes queue ahead of the one vip prefill
        for _ in 0..100 {
            let i = sim.seqs.len();
            sim.seqs.push(seq(BULK, SeqPhase::Decode, 16, u64::MAX));
            sim.enqueue_back(0, i);
        }
        let vip_idx = sim.seqs.len();
        sim.seqs.push(seq(VIP, SeqPhase::Prefill, 16, vip_slo));
        sim.enqueue_back(0, vip_idx);
        assert_eq!(
            sim.urgent_front(0),
            Some(100),
            "the exact index must surface the prefill at depth 100"
        );

        sim.preempt_for_priority(0);
        assert_eq!(sim.audit.preemptions, 1, "the decode batch must be preempted");
        assert!(sim.shards[0].busy.is_none(), "preemption frees the shard");
        assert_eq!(sim.shards[0].queue.len(), 103, "vip + 2 preempted + 100 bulk");
        assert_eq!(sim.shards[0].queue[0], vip_idx, "the preemptor jumps to the head");
        assert_eq!((sim.shards[0].queue[1], sim.shards[0].queue[2]), (0, 1));
        // the urgency index survived the churn: sum matches the queue and
        // the vip prefill actually starts next
        assert_eq!(sim.shards[0].urgency, recount(&sim, 0));
        sim.start_batch(0, 0);
        let fl = sim.shards[0].busy.as_ref().expect("prefill batch starts");
        assert!(fl.prefill);
        assert_eq!(fl.tenant, VIP);
        assert_eq!(fl.members, vec![vip_idx]);
    }

    /// A prefill whose TTFT bound is already unreachable must not preempt
    /// (killing the batch would waste its partial step for nothing) — the
    /// exact index must not have changed the livelock guard.
    #[test]
    fn doomed_prefill_does_not_preempt_even_when_indexed() {
        const BULK: usize = 0;
        const VIP: usize = 1;
        let cfg = ServeConfig {
            preempt: true,
            ..ServeConfig::new(
                vec![tiny_tenant("bulk", 1, u64::MAX), tiny_tenant("vip", 0, 0)],
                ArrivalPattern::Poisson { mean_gap_ns: 1e6 },
                vec![ShardSpec::Gemmini],
            )
        };
        let shard = Shard::new(0, ShardSpec::Gemmini, &cfg.tenants, cfg.max_batch);
        let mut sim = test_sim(&cfg, vec![shard]);
        sim.seqs.push(seq(BULK, SeqPhase::Decode, 16, u64::MAX));
        sim.shards[0].busy = Some(InFlight {
            batch_id: 0,
            members: vec![0],
            cost_ns: u64::MAX / 4,
            start_ns: 0,
            done_at: u64::MAX / 4,
            tenant: BULK,
            prefill: false,
        });
        // slo 0 → TTFT deadline 0: already missed at now=0, cost > 0
        sim.seqs.push(seq(VIP, SeqPhase::Prefill, 16, 0));
        sim.enqueue_back(0, 1);
        sim.preempt_for_priority(0);
        assert_eq!(sim.audit.preemptions, 0, "a doomed prefill must not shoot the batch");
        assert!(sim.shards[0].busy.is_some());
    }

    /// Batch formation as it ran before the in-place scan, kept as the
    /// reference `form_batch` must agree with: rotate through every queued
    /// sequence once; matches of the urgent front's key leave (up to the
    /// cap), the rest re-append in order.
    fn form_batch_by_rotation(
        sim: &mut Sim<'_>,
        sid: usize,
    ) -> Option<(usize, SeqPhase, u32, Vec<usize>)> {
        let (tenant, phase, bucket) = {
            let pos = sim.urgent_front(sid)?;
            let front = &sim.seqs[sim.shards[sid].queue[pos]];
            (front.req.tenant, front.phase, front.bucket())
        };
        let cap = if phase == SeqPhase::Prefill { 1 } else { sim.cfg.max_batch.max(1) };
        let mut members = Vec::new();
        for _ in 0..sim.shards[sid].queue.len() {
            let Some(i) = sim.dequeue_front(sid) else { break };
            let s = &sim.seqs[i];
            if members.len() < cap
                && s.req.tenant == tenant
                && s.phase == phase
                && s.bucket() == bucket
            {
                members.push(i);
            } else {
                sim.enqueue_back(sid, i);
            }
        }
        Some((tenant, phase, bucket, members))
    }

    /// Over seeded random queues — mixed tenants, priority classes, phases
    /// and buckets, with head insertions as preemption makes them, removals
    /// at any position and completed members re-entering at the tail — the
    /// in-place `form_batch` picks the same members as the rotation and
    /// leaves the same queue, and the urgency index always equals a recount
    /// of the queue.
    #[test]
    fn in_place_batch_formation_matches_the_rotation_reference() {
        const NAMES: [&str; 3] = ["fa", "fb", "fc"];
        prop_check!(40, 0xBA7C_4001, |g: &mut Gen| {
            let tenants: Vec<Tenant> = (0..g.draw(1..=3usize))
                .map(|t| tiny_tenant(NAMES[t], g.draw(0..3u32) as u8, u64::MAX))
                .collect();
            let cfg = ServeConfig {
                max_batch: g.draw(1..9usize),
                ..ServeConfig::new(
                    tenants,
                    ArrivalPattern::Poisson { mean_gap_ns: 1e6 },
                    vec![ShardSpec::Gemmini],
                )
            };
            let shard = Shard::new(0, ShardSpec::Gemmini, &cfg.tenants, cfg.max_batch);
            let mut sim = test_sim(&cfg, vec![shard]);
            let mut idle: Vec<usize> = Vec::new();
            for i in 0..g.draw(1..40usize) {
                let tenant = g.draw(0..cfg.tenants.len());
                let phase = if g.draw(0..2u32) == 0 { SeqPhase::Prefill } else { SeqPhase::Decode };
                let prompt = [8, 12, 16, 24, 32][g.draw(0..5usize)];
                sim.seqs.push(seq(tenant, phase, prompt, u64::MAX));
                idle.push(i);
            }
            for _ in 0..g.draw(1..80usize) {
                match g.draw(0..6u32) {
                    0 | 1 if !idle.is_empty() => {
                        let i = idle.swap_remove(g.draw(0..idle.len()));
                        sim.enqueue_back(0, i);
                    }
                    2 if !idle.is_empty() => {
                        let i = idle.swap_remove(g.draw(0..idle.len()));
                        sim.enqueue_front(0, i);
                    }
                    3 if !sim.shards[0].queue.is_empty() => {
                        let pos = g.draw(0..sim.shards[0].queue.len());
                        idle.extend(sim.dequeue_at(0, pos));
                    }
                    _ => {
                        let before = (sim.shards[0].queue.clone(), sim.shards[0].urgency.clone());
                        let want = form_batch_by_rotation(&mut sim, 0);
                        let want_left =
                            (sim.shards[0].queue.clone(), sim.shards[0].urgency.clone());
                        (sim.shards[0].queue, sim.shards[0].urgency) = before;
                        let got = sim.form_batch(0);
                        prop_assert_eq!(got, want);
                        prop_assert_eq!(
                            (sim.shards[0].queue.clone(), sim.shards[0].urgency.clone()),
                            want_left
                        );
                        // the step completes: prefills turn to decode, a
                        // decode's context may cross into the next bucket
                        for m in got.map(|(_, _, _, members)| members).unwrap_or_default() {
                            let s = &mut sim.seqs[m];
                            if s.phase == SeqPhase::Prefill {
                                s.phase = SeqPhase::Decode;
                            } else {
                                s.context += g.draw(0..9usize);
                            }
                            idle.push(m);
                        }
                    }
                }
                prop_assert_eq!(sim.shards[0].urgency, recount(&sim, 0));
            }
            Ok(())
        });
    }
}
