//! The CPU-speed probe and the gate built on it.
//!
//! Measured on the VM class this benchmark runs on (a "Xeon @ 2.10GHz"
//! guest): under sustained load the clock sits at its nominal speed most
//! of the time and is boosted, in steps of ~3 % up to ~27 %, for
//! stretches of 0.1 s to several seconds, with a share that drifts
//! between a tenth and a half of the time. Every CPU-bound sample of
//! every layer scales with it exactly (8-byte put+fence over loopback:
//! 25.4 us at nominal, 24.0 us one step up, 19.9 us at full boost; a shm
//! put: 116 / 108 / 90 ns), so a run's median lands on whichever speed
//! held the majority and no bound can referee that. The probe is a fixed
//! amount of dependent integer work that reads the current speed (73 us
//! at nominal here, 57 us at full boost); samples are kept only when the
//! probes on both sides of their chunk read the nominal speed, the one
//! state of the box that repeats.

use std::time::Instant;

const PROBE_STEPS: u64 = 60_000;

/// Microseconds a fixed amount of dependent integer work takes now: the
/// best of three short passes, so one interrupt cannot fake a slow clock.
pub fn cpu_probe_us() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        let mut x = 1u64;
        for i in 0..PROBE_STEPS {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        best = best.min(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    best
}

/// Brings samples to the nominal clock, from the probes around them.
#[derive(Clone, Copy, Debug)]
pub struct Gate {
    /// The nominal-speed probe reading of this run (0: gate open).
    pub base_us: f64,
    /// Rescale samples taken at a boosted clock instead of dropping them.
    scale: bool,
}

impl Gate {
    /// Readings this far below the detected level are a boosted clock.
    /// Wide enough to take in the first boost step (~2.7 % down): a run
    /// disturbed enough that scattered slow readings form a cluster one
    /// step above the true nominal level must still keep the nominal
    /// samples, at the price of mixing the first step in (under 3 %).
    const FAST: f64 = 0.96;
    /// Readings this far above it were disturbed; do not trust the chunk.
    const SLOW: f64 = 1.03;
    /// Half-width of the cluster a level is recognised by.
    const CLUSTER: f64 = 0.012;
    /// How far the readings either side of a rescaled chunk may differ
    /// (two boost steps): their mean then misses the chunk's true clock
    /// by under 3 %, either way.
    const DRIFT: f64 = 0.06;

    /// Find the nominal level among a run's probes: the slowest reading
    /// that a tenth of all probes agree with to within ~1 %. Boosted
    /// readings are faster; disturbed ones (an interrupt inside all
    /// three passes) are slower but scattered, so they form no cluster.
    ///
    /// `scale` says what becomes of samples taken at another level. Where
    /// all time is CPU time (no injected latency) a sample scales with the
    /// clock exactly, so it is multiplied by `nominal probe / its probe`:
    /// dropping it instead starves workloads that run boosted most of the
    /// time (the shm plane's data ops kept an eighth of their samples).
    /// Where injected wall-clock latency dominates, scaling would be
    /// wrong and such samples are dropped.
    pub fn from_probes(probes: &[f64], scale: bool) -> Gate {
        let mut p: Vec<f64> = probes.iter().copied().filter(|&x| x > 0.0).collect();
        p.sort_by(|a, b| b.partial_cmp(a).expect("probe readings are never NaN"));
        let quorum = (p.len() / 10).max(3);
        let agree = |v: f64| p.iter().filter(|&&x| (x - v).abs() <= Self::CLUSTER * v).count();
        let base_us = p.iter().copied().find(|&v| agree(v) >= quorum).unwrap_or(0.0);
        Gate { base_us, scale }
    }

    /// Whether a probe reading is the nominal clock.
    pub fn is_base(&self, probe_us: f64) -> bool {
        self.base_us == 0.0 || (probe_us >= Self::FAST * self.base_us && probe_us <= Self::SLOW * self.base_us)
    }

    /// The factor that brings a value measured between probe readings
    /// `before` and `after` to the nominal clock; `None` when it cannot
    /// be used (the clock changed level under it, a reading was
    /// disturbed, or it was boosted and this gate does not rescale).
    pub fn factor(&self, before: f64, after: f64) -> Option<f64> {
        if self.is_base(before) && self.is_base(after) {
            return Some(1.0);
        }
        let (lo, hi) = (before.min(after), before.max(after));
        let steady = lo > 0.0 && hi - lo <= Self::DRIFT * hi && hi <= Self::SLOW * self.base_us;
        (self.scale && steady).then(|| self.base_us / ((lo + hi) / 2.0))
    }

    /// The usable samples, at the nominal clock. `probes[c]` and
    /// `probes[c + 1]` bracket chunk `c`, which ends at sample index
    /// `chunk_ends[c]`.
    pub fn keep(&self, samples: &[f64], probes: &[f64], chunk_ends: &[u32]) -> Vec<f64> {
        let mut kept = Vec::with_capacity(samples.len());
        let mut start = 0usize;
        for (c, &end) in chunk_ends.iter().enumerate() {
            let end = (end as usize).min(samples.len());
            if let Some(f) = probes.get(c + 1).and_then(|&after| self.factor(probes[c], after)) {
                kept.extend(samples[start.min(end)..end].iter().map(|s| s * f));
            }
            start = end;
        }
        kept
    }
}
