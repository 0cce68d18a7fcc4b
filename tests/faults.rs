//! Engine-level fault scenarios: the degradation ladder, faulted trace
//! execution, DMA stall accounting, mapper deadlines, and worker-panic
//! isolation — exercised end-to-end through the public `picachu` API.
//!
//! The exhaustive per-fault oracle identities live in `picachu-oracle`
//! (`PICACHU_FAULT_SMOKE=1 cargo test -p picachu-oracle --test faults`);
//! this suite covers the integration seams those sweeps assume.

use picachu::engine::{EngineConfig, FallbackLevel, PicachuEngine};
use picachu::faults::{DmaFaultModel, FaultPlan};
use picachu::PicachuError;
use picachu_llm::trace::TraceOp;
use picachu_nonlinear::NonlinearOp;
use picachu_runtime::{try_parallel_find_first, try_parallel_map};

#[test]
fn every_paper_kernel_survives_a_dead_pe_and_a_dead_link() {
    // One central dead PE and one central dead link, every paper kernel:
    // the degradation ladder must stay on the engine's own fabric (never
    // reject) and the faulted trace must execute with finite,
    // positive-where-expected costs. With repair enabled the ladder first
    // repairs the healthy mapping at its own II; with it disabled every
    // single fault must re-map.
    for incremental_repair in [true, false] {
        for plan in [FaultPlan::dead_tile(5), FaultPlan::dead_link(5, 6)] {
            let mut e =
                PicachuEngine::new(EngineConfig { incremental_repair, ..EngineConfig::default() });
            for op in NonlinearOp::ALL {
                let d = e
                    .compile_op_degraded(op, &plan)
                    .unwrap_or_else(|err| panic!("{op:?} under {plan}: {err}"));
                match d.fallback {
                    FallbackLevel::Incremental if incremental_repair => assert_eq!(
                        d.ii_inflation, 1.0,
                        "{op:?} under {plan}: a repair keeps the healthy II"
                    ),
                    FallbackLevel::Remapped => {}
                    other => panic!(
                        "{op:?} under {plan} (repair {incremental_repair}): a single fault \
                         must repair or re-map, got {other}"
                    ),
                }
                assert!(d.ii_inflation >= 1.0 || d.ii_inflation > 0.0);
                let b = e
                    .try_execute_trace_faulted(
                        &[TraceOp::Nonlinear { op, rows: 32, channel: 64 }],
                        &plan,
                    )
                    .unwrap_or_else(|err| panic!("{op:?} trace under {plan}: {err}"));
                assert!(b.nonlinear.is_finite() && b.nonlinear > 0.0, "{op:?}");
            }
        }
    }
}

#[test]
fn faulted_execution_is_deterministic() {
    let plan = FaultPlan::seeded(0xFA17_0001, 4, 4);
    let trace = [
        TraceOp::Gemm { m: 64, k: 64, n: 64, count: 1 },
        TraceOp::Nonlinear { op: NonlinearOp::Softmax, rows: 64, channel: 64 },
        TraceOp::Nonlinear { op: NonlinearOp::Gelu, rows: 64, channel: 256 },
    ];
    let run = || {
        let mut e = PicachuEngine::new(EngineConfig::default());
        e.try_execute_trace_faulted(&trace, &plan).expect("seeded plan executes")
    };
    let (a, b) = (run(), run());
    assert_eq!(a.gemm.to_bits(), b.gemm.to_bits());
    assert_eq!(a.nonlinear.to_bits(), b.nonlinear.to_bits());
    assert_eq!(a.data_movement.to_bits(), b.data_movement.to_bits());
    assert_eq!(a.overhead.to_bits(), b.overhead.to_bits());
}

#[test]
fn dma_stall_density_monotonically_inflates_overhead() {
    // More stall probability can only add retry/backoff cycles to the
    // dedicated fault-service `overhead` phase (the healthy data-movement
    // term never moves); the deterministic per-(transfer, attempt) draw
    // makes this exactly monotone, not just statistically so.
    let trace = [TraceOp::Nonlinear { op: NonlinearOp::LayerNorm, rows: 64, channel: 4096 }];
    let run = |ppm: u32| {
        let plan = FaultPlan::none()
            .with_dma(DmaFaultModel { stall_ppm: ppm, stall_cycles: 400, seed: 0xD3AD });
        let mut e =
            PicachuEngine::new(EngineConfig { buffer_kb: 1, ..EngineConfig::default() });
        e.try_execute_trace_faulted(&trace, &plan).expect("stalls retry, not fail")
    };
    let clean = run(0);
    let mild = run(5_000);
    let harsh = run(50_000);
    assert!(
        clean.overhead <= mild.overhead && mild.overhead <= harsh.overhead,
        "{} / {} / {}",
        clean.overhead,
        mild.overhead,
        harsh.overhead
    );
    assert!(
        harsh.overhead > clean.overhead,
        "5 % stall density over many Case-2 chunks must cost something"
    );
    assert_eq!(
        clean.data_movement, harsh.data_movement,
        "stall service must never inflate the healthy data-movement term"
    );
}

#[test]
fn hopeless_dma_channel_is_a_typed_rejection() {
    // stall_ppm = 1e6 stalls every attempt of every transfer: the retry
    // ladder exhausts and the engine returns PicachuError::Dma, not a hang
    // or a panic.
    let plan = FaultPlan::none()
        .with_dma(DmaFaultModel { stall_ppm: 1_000_000, stall_cycles: 10, seed: 1 });
    let mut e = PicachuEngine::new(EngineConfig { buffer_kb: 1, ..EngineConfig::default() });
    let err = e
        .try_execute_trace_faulted(
            &[TraceOp::Nonlinear { op: NonlinearOp::LayerNorm, rows: 8, channel: 4096 }],
            &plan,
        )
        .expect_err("a channel that always stalls must exhaust its retries");
    assert!(matches!(err, PicachuError::Dma(_)), "got {err}");
}

#[test]
fn zero_deadline_on_a_cold_engine_rejects_typed() {
    // A 0 ms budget with nothing cached times out on every rung (own spec,
    // then the universal fallback fabric) and surfaces the mapper's typed
    // error — the process must never abort on a pathological deadline.
    let plan = FaultPlan::dead_tile(3);
    let mut e = PicachuEngine::new(EngineConfig {
        compile_deadline_ms: Some(0),
        seed: 0xC01D_DEAD, // unique seed => cold process cache
        ..EngineConfig::default()
    });
    match e.compile_op_degraded(NonlinearOp::Silu, &plan) {
        Err(PicachuError::Compile { op, .. }) => assert_eq!(op, NonlinearOp::Silu),
        Ok(d) => panic!("0 ms deadline on a cold cache compiled via {}", d.fallback),
        Err(other) => panic!("wrong error class: {other}"),
    }
}

#[test]
fn worker_panics_are_isolated_and_typed() {
    let err = try_parallel_map(&[1usize, 2, 3, 4], |_, &x| {
        if x == 3 {
            panic!("injected worker fault");
        }
        x * 10
    })
    .expect_err("the panicking worker must surface as WorkerPanic");
    assert!(err.to_string().contains("injected worker fault"), "{err}");

    // the non-panicking path keeps input order bit-identically
    let ok = try_parallel_map(&[3usize, 1, 2], |_, &x| x * 2).expect("no faults");
    assert_eq!(ok, vec![6, 2, 4]);

    let err = try_parallel_find_first(4, |i| {
        if i == 1 {
            panic!("scout {i} died");
        }
        None::<usize>
    })
    .expect_err("panicking scout must not be swallowed as 'not found'");
    assert!(err.to_string().contains("scout"), "{err}");
}
