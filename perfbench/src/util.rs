//! Small shared helpers: order statistics, the sim digest, host memory,
//! seed derivation and the timer.

use std::time::Instant;

/// The `q` quantile of `v` by linear interpolation between order
/// statistics; 0 when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The fastest of `v`: the benchmark's estimate of a timed unit's host
/// time; NaN when empty, which fails the run's finiteness check.
///
/// On a shared 2-vCPU VM the host's speed moves between states up to 1.9x
/// apart, each lasting seconds to minutes, in user time alone (no page
/// faults, system time or steal), and compiler-like code slows far more
/// than a plain arithmetic loop. A run's median then says as much about
/// the state the host was in as about the program. The work of a unit is
/// fixed, so no sample can be faster than the program allows: the fastest
/// sample cancels the slow states a run passes through, though not one
/// that outlasts the run (see `perfbench/README.md`, "Steadiness").
pub fn fastest(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// Runs `f`, returning its result and the host seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// FNV-1a over the canonical bytes of simulated statistics. Floats are
/// hashed by bit pattern, so any change in a simulated value moves the
/// digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Derives an independent sub-seed of the workload seed for one input
/// stream (SplitMix64 finalizer over `seed ^ salt`).
pub fn derive(seed: u64, salt: u64) -> u64 {
    picachu_testkit::splitmix64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Host memory high-water mark of this process in MB (`VmHWM`), or 0 when
/// the platform does not expose it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
