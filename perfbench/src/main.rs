//! The repository benchmark: cold compile, warm evaluation and chaos
//! serving of the PICACHU reproduction, timed end to end and per layer.
//!
//! ```text
//! perfbench --workload <name> --seed N --seconds S --trace 0|1
//! perfbench --workload all --seed N --seconds S   # every workload, untraced and traced
//! perfbench --workload selftest                   # tiny-size self-test
//! perfbench --workload benchmark_json > BENCHMARK.json
//! ```
//!
//! A workload run prints provenance, its correctness checks, the named
//! end-to-end metrics, the sim digest and (traced) every per-layer metric,
//! then one JSON result line; it exits non-zero when a check fails. See
//! `perfbench/README.md` for the workloads and metrics.

mod compile_cold;
mod evaluate;
mod metrics;
mod serve_chaos;
mod trace;
mod util;

use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use metrics::{END_TO_END, LAYERS, NAMED, WORKLOADS};
use trace::Tracer;

/// Threads the compiler's worker pool uses unless `PICACHU_THREADS` says
/// otherwise (never more than the host has). One, because with more the
/// compile service's speculative parallel search does timing-dependent
/// work: on a 2-core host at 2 threads, large-tier compile passes of one run
/// spread from 2.0 to 3.0 s, against ±3% at one thread.
const DEFAULT_THREADS: usize = 1;

/// A deliberately corrupted output, for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corrupt {
    /// Flip a bit of the second pass's sim digest.
    Digest,
    /// Mark a request stranded in the second serving pass's audit.
    Audit,
}

pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub tiny: bool,
    pub corrupt: Option<Corrupt>,
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<(String, bool)>,
    /// Every set-up and pass sample, for the quantiles on the `info` lines.
    pub setup_s: Vec<f64>,
    pub pass_s: Vec<f64>,
    /// The reported set-up and pass time: for each timed unit of a set-up
    /// or a pass its fastest sample (`util::fastest`), summed over units.
    pub setup: f64,
    pub pass: f64,
    /// The named end-to-end metrics of this workload (see `metrics::NAMED`).
    pub named: Vec<(&'static str, f64)>,
    pub info: Vec<String>,
    pub digest: u64,
    pub passes: usize,
}

impl Report {
    pub fn check(&mut self, name: &str, ok: bool) {
        self.checks.push((name.to_string(), ok));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    corrupt: Option<Corrupt>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        corrupt: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = val()? == "1",
            "--tiny" => a.tiny = true,
            "--corrupt" => {
                a.corrupt = Some(match val()?.as_str() {
                    "digest" => Corrupt::Digest,
                    "audit" => Corrupt::Audit,
                    other => return Err(format!("unknown corruption {other:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match args.workload.as_str() {
        "all" => run_all(&args),
        "selftest" => selftest(),
        "benchmark_json" => {
            print!("{}", metrics::benchmark_json());
            ExitCode::SUCCESS
        }
        w if WORKLOADS.iter().any(|x| x.name == w) => run_one(&args),
        other => {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!("perfbench: unknown workload {other:?} (expected one of {names:?}, all, selftest, benchmark_json)");
            ExitCode::from(2)
        }
    }
}

/// Pins the worker pool to `PICACHU_THREADS` (default 1), never above the
/// host's parallelism. Returns `(nproc, threads)`.
fn pin_threads() -> (usize, usize) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let asked = std::env::var("PICACHU_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_THREADS);
    let threads = asked.clamp(1, nproc);
    picachu::runtime::set_thread_override(Some(threads));
    (nproc, threads)
}

/// The checkout's git revision, or `unknown` when the working directory is
/// not a git checkout. Git is not allowed to search above the working
/// directory, so a checkout nested in another repository reads as unknown.
fn git_rev() -> String {
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.to_path_buf()))
        .unwrap_or_default();
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn run_one(args: &Args) -> ExitCode {
    let (nproc, threads) = pin_threads();
    // cold compiles must stay cold (no on-disk mapping store), and the
    // oracle sweep must run every case, not a single replayed one
    picachu::set_mapstore_dir(None);
    std::env::remove_var("PICACHU_ORACLE_REPLAY");
    let opts = Opts {
        seed: args.seed,
        seconds: args.seconds,
        tiny: args.tiny,
        corrupt: args.corrupt,
    };
    let mut tr = Tracer::new(args.trace);
    let rep = match args.workload.as_str() {
        "compile" => compile_cold::run(&opts, &mut tr),
        "evaluate" => evaluate::run(&opts, &mut tr),
        _ => serve_chaos::run_workload(&opts, &mut tr),
    };
    let peak_rss = util::peak_rss_mb();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "provenance workload={} seed={} passes={} trace={} tiny={} nproc={nproc} picachu_threads={threads} \
         git_rev={} rustc=\"{}\"",
        args.workload,
        args.seed,
        rep.passes,
        u8::from(args.trace),
        args.tiny,
        git_rev(),
        env!("PERFBENCH_RUSTC"),
    );
    for (name, ok) in &rep.checks {
        let _ = writeln!(out, "check {} {name}", if *ok { "ok" } else { "FAIL" });
    }
    for line in &rep.info {
        let _ = writeln!(out, "info {line}");
    }
    let (setup, pass) = (rep.setup, rep.pass);
    let _ = writeln!(out, "metric setup_s {setup} s");
    let _ = writeln!(out, "metric peak_rss_mb {peak_rss} MB");
    let _ = writeln!(out, "metric pass_s {pass} s");
    for (name, value) in &rep.named {
        let unit = NAMED.iter().find(|n| n.0 == *name).map_or("?", |n| n.1);
        let _ = writeln!(out, "metric {name} {value} {unit}");
    }
    for (what, v) in [("setup_s", &rep.setup_s), ("pass_s", &rep.pass_s)] {
        let q: Vec<String> = [0.0, 0.1, 0.25, 0.5, 0.75]
            .iter()
            .map(|&p| util::quantile(v, p).to_string())
            .collect();
        let _ = writeln!(
            out,
            "info {what}: {} samples, min p10 q1 median q3 {}",
            v.len(),
            q.join(" ")
        );
    }
    let _ = writeln!(out, "digest {} {:016x}", args.workload, rep.digest);

    let mut metrics = Vec::new();
    if args.trace {
        for l in LAYERS {
            let v = tr.layer_value(l.name, rep.passes).unwrap_or(0.0);
            let _ = writeln!(out, "layer {} {v} {} moves={}", l.name, l.unit, l.moves);
            metrics.push((l.name, v, l.unit));
        }
        for (name, s) in tr.self_times(rep.passes) {
            let _ = writeln!(out, "self {name} {s} s");
        }
    } else {
        for m in END_TO_END {
            let v = match m.name {
                "setup_s" => setup,
                "peak_rss_mb" => peak_rss,
                _ => pass,
            };
            metrics.push((m.name, v, m.unit));
        }
    }
    let finite = metrics.iter().all(|m| m.1.is_finite());
    if !finite {
        let _ = writeln!(out, "check FAIL every reported metric is finite");
    }
    let correct = finite && rep.checks.iter().all(|c| c.1);
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    let _ = writeln!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.attempted.max(1),
        rep.failed,
        body.join(", ")
    );
    print!("{out}");
    write_record(args, &out, args.trace.then(|| tr.dump()));
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} correctness check(s) failed",
            rep.checks.iter().filter(|c| !c.1).count()
        );
        ExitCode::FAILURE
    }
}

/// A JSON number; a non-finite value (which already failed the run)
/// prints as 0 to keep the line parseable.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Writes the run's report (and the traced run's spans) beside the
/// benchmark binary, inside the build directory, when the run ends.
fn write_record(args: &Args, out: &str, spans: Option<String>) {
    let Some(dir) = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("perfbench-records")))
    else {
        return;
    };
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let _ = std::fs::write(dir.join(format!("{stem}.txt")), out);
    if let Some(s) = spans {
        let _ = std::fs::write(dir.join(format!("{stem}.spans.tsv")), s);
    }
}

/// One child workload run, waited for.
struct Child {
    ok: bool,
    stdout: String,
}

fn spawn(workload: &str, extra: &[&str], threads: Option<usize>) -> Child {
    let Ok(exe) = std::env::current_exe() else {
        return Child {
            ok: false,
            stdout: String::new(),
        };
    };
    let mut cmd = Command::new(exe);
    cmd.arg("--workload").arg(workload).args(extra);
    if let Some(t) = threads {
        cmd.env("PICACHU_THREADS", t.to_string());
    }
    match cmd.output() {
        Ok(o) => Child {
            ok: o.status.success(),
            stdout: String::from_utf8_lossy(&o.stdout).into_owned(),
        },
        Err(_) => Child {
            ok: false,
            stdout: String::new(),
        },
    }
}

/// `(name, value, unit)` of every line starting with `kind`.
fn lines_of<'a>(stdout: &'a str, kind: &str) -> Vec<(&'a str, f64, &'a str)> {
    stdout
        .lines()
        .filter_map(|l| {
            let mut p = l.split(' ');
            (p.next()? == kind).then_some(())?;
            let (name, value, unit) = (p.next()?, p.next()?.parse().ok()?, p.next()?);
            Some((name, value, unit))
        })
        .collect()
}

fn digest_of(stdout: &str) -> Option<&str> {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("digest "))
        .and_then(|r| r.split(' ').nth(1))
}

/// Every workload in its own process, untraced then traced: prints the
/// untraced runs' end-to-end metrics, the tracing overhead (traced minus
/// untraced value) and the share of end-to-end time the layer spans cover.
fn run_all(args: &Args) -> ExitCode {
    let seed = args.seed.to_string();
    let secs = args.seconds.to_string();
    let mut ok = true;
    for w in WORKLOADS.iter().map(|w| w.name) {
        let base = ["--seed", seed.as_str(), "--seconds", secs.as_str()];
        let plain = spawn(w, &[&base[..], &["--trace", "0"]].concat(), None);
        let traced = spawn(w, &[&base[..], &["--trace", "1"]].concat(), None);
        ok &= plain.ok && traced.ok;
        println!(
            "== {w}: untraced run {}",
            if plain.ok { "ok" } else { "FAILED" }
        );
        for line in plain.stdout.lines().filter(|l| !l.starts_with('{')) {
            println!("{w} {line}");
        }
        let traced_metrics = lines_of(&traced.stdout, "metric");
        for (name, v, unit) in lines_of(&plain.stdout, "metric") {
            if let Some(t) = traced_metrics.iter().find(|m| m.0 == name) {
                println!("{w} overhead {name} {} {unit}", t.1 - v);
            }
        }
        let coverage = lines_of(&traced.stdout, "layer")
            .into_iter()
            .find(|l| l.0 == "trace.coverage");
        println!(
            "{w} coverage {} (traced run {})",
            coverage.map_or(f64::NAN, |c| c.1),
            if traced.ok { "ok" } else { "FAILED" }
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `BENCHMARK.json` is exactly what `metrics::benchmark_json` renders,
/// and every declared name and unit is valid.
fn check_declarations() -> Result<(), String> {
    let here = std::path::Path::new("BENCHMARK.json");
    let beside = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(here)
        .or_else(|_| std::fs::read_to_string(&beside))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    if text != metrics::benchmark_json() {
        return Err("differs from metrics::benchmark_json()".into());
    }
    let names = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(LAYERS.iter().map(|l| l.name));
    let units = END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(LAYERS.iter().map(|l| l.unit));
    if let Some(bad) = names.clone().find(|n| !metrics::valid_name(n)) {
        return Err(format!("invalid name {bad:?}"));
    }
    if let Some(bad) = units.clone().find(|u| !metrics::valid_unit(u)) {
        return Err(format!("invalid unit {bad:?}"));
    }
    let mut sorted: Vec<&str> = names.collect();
    sorted.sort_unstable();
    if sorted.windows(2).any(|w| w[0] == w[1]) {
        return Err("a name is declared twice".into());
    }
    Ok(())
}

/// Checks one workload run: a correct result line with the exact keys,
/// and every declared metric emitted once with its unit, on both the text
/// line and the result line.
fn check_result(stdout: &str, traced: bool) -> Result<(), String> {
    let last = stdout.lines().last().ok_or("no output")?;
    if !last.starts_with("{\"correct\": true, \"attempted\": ")
        || !last.contains(", \"failed\": 0, \"metrics\": {")
    {
        return Err(format!("result line {last:?}"));
    }
    let (kind, declared): (&str, Vec<(&str, &str)>) = if traced {
        ("layer", LAYERS.iter().map(|l| (l.name, l.unit)).collect())
    } else {
        (
            "metric",
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect(),
        )
    };
    let emitted = lines_of(stdout, kind);
    for (name, unit) in &declared {
        let line = emitted
            .iter()
            .find(|e| e.0 == *name)
            .ok_or(format!("no {kind} line for {name}"))?;
        if line.2 != *unit || (!traced && line.1 <= 0.0) {
            return Err(format!("{name}: {} {}", line.1, line.2));
        }
        let entry = format!("\"{name}\": {{\"value\": ");
        let with_unit = last.find(&entry).and_then(|at| {
            let rest = &last[at..];
            rest.find('}')
                .map(|end| rest[..end].ends_with(&format!(", \"unit\": \"{unit}\"")))
        });
        if last.matches(&entry).count() != 1 || with_unit != Some(true) {
            return Err(format!("{name} not once with its unit on the result line"));
        }
    }
    if last.matches("\"value\": ").count() != declared.len() {
        return Err("the result line has undeclared metrics".into());
    }
    Ok(())
}

/// Tiny-size self-test: declarations match, every workload emits every
/// declared metric, the sim digest is equal at 1 and 2 threads, and a
/// corrupted output makes the run fail.
fn selftest() -> ExitCode {
    let mut failures = Vec::new();
    let mut expect = |what: String, r: Result<(), String>| match r {
        Ok(()) => println!("selftest ok   {what}"),
        Err(e) => {
            println!("selftest FAIL {what}: {e}");
            failures.push(what);
        }
    };
    expect(
        "BENCHMARK.json is what metrics::benchmark_json() renders".into(),
        check_declarations(),
    );
    let tiny = ["--seed", "7", "--seconds", "0", "--tiny"];
    for w in WORKLOADS.iter().map(|w| w.name) {
        let one = spawn(w, &[&tiny[..], &["--trace", "0"]].concat(), Some(1));
        let two = spawn(w, &[&tiny[..], &["--trace", "0"]].concat(), Some(2));
        let traced = spawn(w, &[&tiny[..], &["--trace", "1"]].concat(), Some(2));
        for (label, c, t) in [
            ("1 thread", &one, false),
            ("2 threads", &two, false),
            ("traced", &traced, true),
        ] {
            let r = if c.ok {
                check_result(&c.stdout, t)
            } else {
                Err("run failed".into())
            };
            expect(format!("{w} {label}: every declared metric emitted"), r);
        }
        let (d1, d2) = (digest_of(&one.stdout), digest_of(&two.stdout));
        expect(
            format!("{w}: sim digest equal at 1 and 2 threads"),
            if d1.is_some() && d1 == d2 {
                Ok(())
            } else {
                Err(format!("{d1:?} vs {d2:?}"))
            },
        );
        let dt = digest_of(&traced.stdout);
        expect(
            format!("{w}: sim digest equal traced and untraced"),
            if d2.is_some() && d2 == dt {
                Ok(())
            } else {
                Err(format!("{d2:?} vs {dt:?}"))
            },
        );
        let corrupt: &[&str] = if w == "serve_chaos" {
            &["digest", "audit"]
        } else {
            &["digest"]
        };
        for c in corrupt {
            let bad = spawn(
                w,
                &[&tiny[..], &["--trace", "0", "--corrupt", c]].concat(),
                Some(2),
            );
            let flagged = bad
                .stdout
                .lines()
                .last()
                .is_some_and(|l| l.starts_with("{\"correct\": false, "));
            expect(
                format!("{w}: corrupted {c} fails the run"),
                if !bad.ok && flagged {
                    Ok(())
                } else {
                    Err("run passed".into())
                },
            );
        }
    }
    if failures.is_empty() {
        println!("selftest passed");
        ExitCode::SUCCESS
    } else {
        println!("selftest failed: {} check(s)", failures.len());
        ExitCode::FAILURE
    }
}
