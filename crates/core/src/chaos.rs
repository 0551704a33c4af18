//! Seeded fail-stop soak: kill one node at a seeded point of a seeded
//! operation stream, and check that every survivor gets a typed error.
//!
//! Everything here is driven by a single `u64` seed through a
//! self-contained xorshift64* generator, so a failing soak reproduces
//! byte-for-byte: the same seed always yields the same [`FaultPlan`]
//! (see [`chaos_plan`]) and the same per-rank operation stream (see
//! [`chaos_workload`]). `cargo run --bin chaos -- --seed N` replays a
//! failure exactly.
//!
//! The workload keeps a *shadow model* — a local mirror of every value
//! it has put — and cross-checks remote memory against it each round.
//! Until the kill, a divergence is a bug; after it, every rank must stop
//! with [`ArmciError::PeerLost`] or [`ArmciError::Timeout`].

use std::fmt;

use armci_netfab::{FaultAction, FaultPlan, FaultSpec};
use armci_transport::ProcId;

use crate::armci::{Armci, LockId};
use crate::errors::ArmciError;
use crate::gptr::GlobalAddr;

/// Deterministic xorshift64* generator — the only randomness source in
/// the chaos harness, vendored in ~10 lines so the fault schedule never
/// depends on an external RNG crate's version-to-version stream changes.
#[derive(Clone, Debug)]
pub struct ChaosRng(u64);

impl ChaosRng {
    /// Seed the generator. A zero seed is remapped to a fixed odd
    /// constant (xorshift state must be nonzero).
    pub fn new(seed: u64) -> Self {
        ChaosRng(if seed == 0 { 0x9e37_79b9_7f4a_7c15 } else { seed })
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform-ish value in `0..bound` (`bound` must be nonzero).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// Frames every rank other than 0 sends node 0 per workload round, at
/// least: the lock swap, the counter get and put, the fence and the
/// release.
const FRAMES_TO_NODE0_PER_ROUND: u64 = 4;

/// Frames the workload's prelude (`malloc` and the first barrier) may
/// send node 0; a kill scheduled past them lands inside the rounds.
const PRELUDE_FRAMES: u64 = 8;

/// The fail-stop plan for an `nodes`-node run of `rounds` workload
/// rounds: one seeded victim (never node 0, which hosts the lock and the
/// counter) is killed just before a seeded frame on its link to node 0.
/// The frame lies past the workload's prelude and before its last round,
/// so the kill always lands inside the operation stream.
pub fn chaos_plan(seed: u64, nodes: u32, rounds: u32) -> FaultPlan {
    assert!(nodes >= 2, "chaos needs at least two nodes");
    assert!(rounds >= 4, "chaos needs at least four rounds to place the kill");
    let mut rng = ChaosRng::new(seed);
    let victim = 1 + rng.below(u64::from(nodes) - 1) as u32;
    let span = FRAMES_TO_NODE0_PER_ROUND * u64::from(rounds) / 2;
    let after_frames = PRELUDE_FRAMES + rng.below(span);
    FaultPlan::new().with(FaultSpec { node: victim, peer: 0, after_frames, action: FaultAction::KillNode })
}

/// Why a chaos rank stopped: an ARMCI operation surfaced an error (the
/// expected end of every rank once a node is killed) or the shadow model
/// caught remote memory diverging from what was written (always a bug).
#[derive(Debug)]
pub enum ChaosError {
    /// An ARMCI `try_*` operation failed.
    Op(ArmciError),
    /// A shadow-model or tally invariant was violated.
    Invariant(String),
}

impl ChaosError {
    /// Whether this is how a rank may end after a node kill: a typed
    /// peer loss or an expired deadline.
    pub fn is_fail_stop(&self) -> bool {
        matches!(self, ChaosError::Op(ArmciError::PeerLost { .. } | ArmciError::Timeout { .. }))
    }
}

impl From<ArmciError> for ChaosError {
    fn from(e: ArmciError) -> Self {
        ChaosError::Op(e)
    }
}

impl fmt::Display for ChaosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosError::Op(e) => write!(f, "armci operation failed: {e}"),
            ChaosError::Invariant(s) => write!(f, "invariant violated: {s}"),
        }
    }
}

impl std::error::Error for ChaosError {}

/// The self-checking mixed workload: `rounds` lockstep rounds of
/// put + fence + read-back to a seeded target (verified against the
/// local shadow copy), a lock-protected non-atomic counter increment at
/// rank 0, a notified put around the ring and its wait, and a barrier.
/// Returns the final counter, `nprocs × rounds` in a run nobody killed.
///
/// Layout: every rank registers one segment of `nprocs + 1` u64 slots —
/// slot `w` on rank `t` is written only by rank `w` (so concurrent
/// writers never collide), and slot `nprocs` on rank 0 is the shared
/// counter, guarded by lock `(owner: 0, idx: 0)`.
pub fn chaos_workload(a: &mut Armci, seed: u64, rounds: u32) -> Result<u64, ChaosError> {
    let nprocs = a.nprocs();
    let me = a.me().0 as usize;
    let seg = a.malloc(8 * (nprocs + 1));
    let lock = LockId { owner: ProcId(0), idx: 0 };
    let ctr_addr = GlobalAddr::new(ProcId(0), seg, 8 * nprocs);
    let right = ProcId(((me + 1) % nprocs) as u32);
    a.try_barrier()?;

    // Per-rank stream: decorrelate ranks, keep determinism per (seed, me).
    let mut rng = ChaosRng::new(seed ^ (me as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    for round in 0..rounds {
        // Put a fresh value into our slot on a seeded target, flush, and
        // read it back against the shadow copy.
        let t = rng.below(nprocs as u64) as usize;
        let val = rng.next_u64();
        let dst = GlobalAddr::new(ProcId(t as u32), seg, 8 * me);
        a.try_put(dst, &val.to_le_bytes())?;
        a.try_fence(ProcId(t as u32))?;
        let mut buf = [0u8; 8];
        a.try_get(dst, &mut buf)?;
        let got = u64::from_le_bytes(buf);
        if got != val {
            return Err(ChaosError::Invariant(format!(
                "round {round}: rank {me} read {got:#x} from its slot on rank {t}, shadow says {val:#x}"
            )));
        }

        // Deliberately non-atomic increment under the lock: torn updates
        // would show up in the final tally.
        a.try_lock(lock)?;
        let mut cbuf = [0u8; 8];
        a.try_get(ctr_addr, &mut cbuf)?;
        let c = u64::from_le_bytes(cbuf);
        a.try_put(ctr_addr, &(c + 1).to_le_bytes())?;
        a.try_fence(ProcId(0))?;
        a.try_unlock(lock)?;

        // One notified put to the right neighbour, one wait for the left.
        a.try_put_notify(GlobalAddr::new(right, seg, 8 * me), &val.to_le_bytes(), 0)?;
        a.try_wait_notify(0, u64::from(round) + 1)?;

        a.try_barrier()?;
    }

    let mut cbuf = [0u8; 8];
    a.try_get(ctr_addr, &mut cbuf)?;
    let ctr = u64::from_le_bytes(cbuf);
    let want = nprocs as u64 * u64::from(rounds);
    if ctr != want {
        return Err(ChaosError::Invariant(format!(
            "final counter {ctr} != {want} ({nprocs} ranks x {rounds} rounds): lost or torn increment"
        )));
    }
    Ok(ctr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_nondegenerate() {
        let mut a = ChaosRng::new(42);
        let mut b = ChaosRng::new(42);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert!(xs.windows(2).any(|w| w[0] != w[1]));
        // Zero seed must not wedge the generator at zero.
        let mut z = ChaosRng::new(0);
        assert_ne!(z.next_u64(), 0);
    }

    #[test]
    fn plan_is_one_seeded_kill_inside_the_rounds() {
        let rounds = 24;
        assert_eq!(chaos_plan(0xfeed, 4, rounds), chaos_plan(0xfeed, 4, rounds));
        for seed in 0..64 {
            let plan = chaos_plan(seed, 4, rounds);
            let [kill] = plan.entries[..] else { panic!("seed {seed}: want exactly one fault, got {plan:?}") };
            assert_eq!(kill.action, FaultAction::KillNode);
            assert!((1..4).contains(&kill.node) && kill.peer == 0, "seed {seed}: {kill:?}");
            assert!(kill.after_frames >= PRELUDE_FRAMES, "seed {seed}: kill inside the prelude");
            assert!(
                kill.after_frames < FRAMES_TO_NODE0_PER_ROUND * u64::from(rounds),
                "seed {seed}: kill past the rounds"
            );
        }
    }
}
