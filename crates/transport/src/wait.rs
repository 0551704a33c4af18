//! Blocking-wait helpers tuned for heavy thread oversubscription.
//!
//! The emulator routinely runs 16–32 simulated processes plus server
//! threads on machines with far fewer cores, so *every* wait in the stack
//! must release the CPU: a pure `spin_loop()` poll would serialize the
//! whole cluster behind the scheduler tick. The helpers here spin briefly
//! (to catch the common fast path), then yield, then sleep for long waits.

use std::time::{Duration, Instant};

/// How many iterations to busy-spin before starting to yield.
const SPIN_ITERS: u32 = 64;
/// Sleep (rather than yield) when more than this much time remains.
const SLEEP_SLACK: Duration = Duration::from_micros(200);

/// Block until `deadline`, sleeping for the bulk of the wait and yielding
/// for the final stretch so the wake-up is reasonably precise without
/// burning a core.
pub fn wait_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let remaining = deadline - now;
        if remaining > SLEEP_SLACK {
            std::thread::sleep(remaining - SLEEP_SLACK);
        } else {
            std::thread::yield_now();
        }
    }
}

/// Spin-then-yield until `cond` returns true or `deadline` passes.
///
/// Returns `true` if the condition was observed, `false` on timeout. This
/// is the waiting discipline for the polling loops the paper's algorithms
/// prescribe (ticket-lock `counter` polls, MCS `locked` flag polls, the
/// `op_done` wait in `ARMCI_Barrier`). On a real cluster those are pure
/// spins on cache-resident locations; here we must yield so that the
/// thread actually holding the resource can run. Callers alternate short
/// bounded spins with peer-liveness checks so a dead peer turns a
/// forever-spin into an error.
#[inline]
pub fn spin_until_deadline(mut cond: impl FnMut() -> bool, deadline: Instant) -> bool {
    let mut iters = 0u32;
    loop {
        if cond() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        if iters < SPIN_ITERS {
            std::hint::spin_loop();
            iters += 1;
        } else {
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_until_past_deadline_returns_immediately() {
        let t0 = Instant::now();
        wait_until(t0); // already passed
        assert!(t0.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn wait_until_waits_at_least_the_duration() {
        let d = Duration::from_millis(5);
        let t0 = Instant::now();
        wait_until(t0 + d);
        assert!(t0.elapsed() >= d);
    }

    #[test]
    fn spin_until_deadline_times_out_and_succeeds() {
        let t0 = Instant::now();
        assert!(!spin_until_deadline(|| false, t0 + Duration::from_millis(3)));
        assert!(t0.elapsed() >= Duration::from_millis(3));
        // A condition that is already true wins even with a past deadline.
        assert!(spin_until_deadline(|| true, t0));
    }
}
