//! Microbenchmarks over the hot paths of every layer of the stack: the
//! nonlinear algorithms themselves (software throughput), the compiler's
//! fusion + modulo mapper, the CGRA cycle simulator, the systolic/GEMM
//! model, the tiny-LM forward pass and the end-to-end engine.
//!
//! Runs on the in-tree `picachu-testkit` bench harness (no criterion, fully
//! offline). Each benchmark emits one JSON line on stdout, so trajectories
//! accumulate with `cargo bench -p picachu-bench > BENCH_<date>.json`;
//! `cargo bench -p picachu-bench -- --smoke` runs everything once as a CI
//! smoke gate.

use picachu::compile_cache;
use picachu::engine::{EngineConfig, PicachuEngine};
use picachu_cgra::{CgraConfig, CgraSimulator};
use picachu_compiler::arch::CgraSpec;
use picachu_compiler::mapper::map_dfg;
use picachu_compiler::transform::{fuse_patterns, unroll, vectorize};
use picachu_ir::kernels::{gelu_kernel, softmax_kernel};
use picachu_llm::tinylm::{TinyLm, TinyLmConfig, TinyVariant};
use picachu_llm::ModelConfig;
use picachu_nonlinear::accuracy::Scheme;
use picachu_nonlinear::baselines::{gemmlowp, ibert};
use picachu_nonlinear::kernels::{activation, norm, softmax};
use picachu_nonlinear::ApproxConfig;
use picachu_systolic::SystolicArray;
use picachu_testkit::{black_box, Bench};

fn logits(n: usize) -> Vec<f32> {
    (0..n).map(|i| ((i as f32) * 0.137).sin() * 8.0).collect()
}

fn bench_nonlinear_ops(c: &Bench) {
    let mut g = c.group("nonlinear-ops-4096elem");
    let x = logits(4096);
    let cfg = ApproxConfig::default();
    g.bench("softmax_fp32", || {
        black_box(softmax::softmax_fp(black_box(&x), &cfg));
    });
    g.bench("softmax_int16", || {
        black_box(softmax::softmax_int(black_box(&x), 16, &cfg));
    });
    g.bench("softmax_ibert_int8", || {
        black_box(ibert::i_softmax(black_box(&x)));
    });
    g.bench("softmax_gemmlowp", || {
        black_box(gemmlowp::softmax(black_box(&x)));
    });
    g.bench("layernorm_fp32", || {
        black_box(norm::layernorm_fp(black_box(&x), &cfg));
    });
    g.bench("rmsnorm_int16", || {
        black_box(norm::rmsnorm_int(black_box(&x), 16, &cfg));
    });
    g.bench("gelu_fp32", || {
        black_box(x.iter().map(|&v| activation::gelu_fp(v, &cfg)).sum::<f32>());
    });
    let lut = activation::phi_lut(512);
    g.bench("gelu_lut", || {
        black_box(x.iter().map(|&v| activation::gelu_lut(v, &lut)).sum::<f32>());
    });
    g.finish();
}

fn bench_compiler(c: &Bench) {
    let mut g = c.group("compiler");
    let k = softmax_kernel(4);
    let dfg = &k.loops[1].dfg;
    g.bench("fuse_softmax2", || {
        black_box(fuse_patterns(black_box(dfg)));
    });
    g.bench("unroll4_softmax2", || {
        black_box(unroll(black_box(dfg), 4));
    });
    let fused_for_vec = fuse_patterns(dfg);
    g.bench("vectorize4_softmax2", || {
        black_box(vectorize(black_box(&fused_for_vec), 4));
    });
    let spec = CgraSpec::picachu(4, 4);
    let fused = fuse_patterns(dfg);
    g.bench("map_softmax2", || {
        black_box(map_dfg(black_box(&fused), &spec, 7).expect("maps"));
    });
    let big = fuse_patterns(&unroll(&gelu_kernel(4).loops[0].dfg, 4));
    g.bench("map_gelu_uf4", || {
        black_box(map_dfg(black_box(&big), &spec, 7).expect("maps"));
    });
    g.finish();
}

fn bench_simulator(c: &Bench) {
    let mut g = c.group("cgra-simulator");
    let spec = CgraSpec::picachu(4, 4);
    let k = softmax_kernel(4);
    let fused = fuse_patterns(&k.loops[1].dfg);
    let m = map_dfg(&fused, &spec, 7).expect("maps");
    let cfg = CgraConfig::from_mapping(&fused, &m, &spec);
    for iters in [1_000u64, 100_000] {
        g.bench(&format!("softmax2/{iters}"), || {
            black_box(CgraSimulator::new(&spec, &fused, &cfg).run(iters));
        });
    }
    g.finish();
}

fn bench_interpreter(c: &Bench) {
    let mut g = c.group("interpreter");
    let k = softmax_kernel(8);
    let x: Vec<f32> = (0..1024).map(|i| ((i as f32) * 0.173).sin() * 7.0).collect();
    g.bench("softmax_loop2_1024", || {
        black_box(
            picachu_ir::interp::interpret(black_box(&k.loops[1].dfg), 1024, &[&x], &[3.0])
                .expect("interprets"),
        );
    });
    let fused = fuse_patterns(&k.loops[1].dfg);
    g.bench("softmax_loop2_fused_1024", || {
        black_box(
            picachu_ir::interp::interpret(black_box(&fused), 1024, &[&x], &[3.0])
                .expect("interprets"),
        );
    });
    g.finish();
}

fn bench_substrate(c: &Bench) {
    let mut g = c.group("substrate");
    let arr = SystolicArray::new(32, 32);
    g.bench("gemm_cycles_model", || {
        black_box(arr.gemm_cycles(black_box(1024), black_box(4096), black_box(11008)));
    });
    let a: Vec<f32> = (0..64 * 64).map(|i| (i % 13) as f32 - 6.0).collect();
    let bb: Vec<f32> = (0..64 * 64).map(|i| (i % 7) as f32 - 3.0).collect();
    g.bench("gemm_functional_64", || {
        black_box(SystolicArray::gemm_f32(black_box(&a), black_box(&bb), 64, 64, 64));
    });
    g.finish();
}

fn bench_tinylm(c: &Bench) {
    let mut g = c.group("tinylm");
    g.sample_size(20);
    let m = TinyLm::new(TinyLmConfig::with_variant(TinyVariant::LlamaLike), 42);
    let toks: Vec<u16> = (0..24).map(|i| (i * 7 % 64) as u16).collect();
    g.bench("forward_exact", || {
        black_box(m.forward(black_box(&toks), Scheme::Fp16Reference));
    });
    g.bench("forward_int16", || {
        black_box(m.forward(black_box(&toks), Scheme::PicachuInt16));
    });
    g.finish();
}

fn bench_engine(c: &Bench) {
    let mut g = c.group("engine");
    g.sample_size(10);
    // cold: every call clears the process compile cache first, so it times
    // the mapper on the whole kernel library; warm: every call after the
    // harness's warm-up hits the cache, so it times the lookups alone
    g.bench("compile_all_ops_cold", || {
        compile_cache::clear();
        let mut e = PicachuEngine::new(EngineConfig::default());
        for op in picachu_nonlinear::NonlinearOp::ALL {
            e.compile_op(black_box(op));
        }
    });
    g.bench("compile_all_ops_warm", || {
        let mut e = PicachuEngine::new(EngineConfig::default());
        for op in picachu_nonlinear::NonlinearOp::ALL {
            e.compile_op(black_box(op));
        }
    });
    let mut e = PicachuEngine::new(EngineConfig::default());
    e.execute_model(&ModelConfig::gpt2(), 256); // warm the kernel cache
    g.bench("execute_gpt2_seq256", || {
        black_box(e.execute_model(black_box(&ModelConfig::gpt2()), 256));
    });
    g.finish();
}

fn main() {
    let harness = Bench::from_args();
    bench_nonlinear_ops(&harness);
    bench_compiler(&harness);
    bench_simulator(&harness);
    bench_interpreter(&harness);
    bench_substrate(&harness);
    bench_tinylm(&harness);
    bench_engine(&harness);
}
