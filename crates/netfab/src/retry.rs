//! One retry policy for every transient-failure loop.
//!
//! Rendezvous dials, node-process spawns and shm segment mapping all used
//! to carry their own ad-hoc attempts/backoff constants. [`RetryPolicy`]
//! unifies them: bounded attempts, exponential backoff from `base` capped
//! at `cap`.

use std::time::Duration;

/// A bounded exponential-backoff retry policy (see module docs).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RetryPolicy {
    /// Maximum attempts, including the first (`>= 1`).
    pub attempts: u32,
    /// Backoff before the second attempt; doubles per attempt.
    pub base: Duration,
    /// Ceiling the doubling saturates at.
    pub cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // Matches the historical rendezvous dial loop: 8 attempts,
        // 10 ms first backoff, capped well under any boot deadline.
        RetryPolicy { attempts: 8, base: Duration::from_millis(10), cap: Duration::from_millis(640) }
    }
}

impl RetryPolicy {
    /// The pause before attempt `attempt + 1` (so `delay(0)` follows the
    /// first failure).
    pub fn delay(&self, attempt: u32) -> Duration {
        let exp = attempt.min(20); // 2^20 × base saturates any sane cap
        self.base.saturating_mul(1u32 << exp).min(self.cap)
    }

    /// Run `op` up to [`RetryPolicy::attempts`] times, sleeping the
    /// policy's backoff between failures. The attempt index (0-based) is
    /// passed in; the final error is returned when every attempt fails.
    pub fn run<T, E>(&self, mut op: impl FnMut(u32) -> Result<T, E>) -> Result<T, E> {
        let attempts = self.attempts.max(1);
        let mut attempt = 0;
        loop {
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) => {
                    attempt += 1;
                    if attempt >= attempts {
                        return Err(e);
                    }
                    std::thread::sleep(self.delay(attempt - 1));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy { attempts: 10, base: Duration::from_millis(10), cap: Duration::from_millis(55) };
        assert_eq!(p.delay(0), Duration::from_millis(10));
        assert_eq!(p.delay(1), Duration::from_millis(20));
        assert_eq!(p.delay(2), Duration::from_millis(40));
        assert_eq!(p.delay(3), Duration::from_millis(55));
        assert_eq!(p.delay(60), Duration::from_millis(55), "huge attempt index must not overflow");
    }

    #[test]
    fn run_retries_up_to_attempts() {
        let p = RetryPolicy { attempts: 3, base: Duration::ZERO, cap: Duration::ZERO };
        let mut calls = 0;
        let r: Result<(), &str> = p.run(|_| {
            calls += 1;
            Err("nope")
        });
        assert_eq!((r, calls), (Err("nope"), 3));
        let mut calls = 0;
        let r: Result<u32, &str> = p.run(|a| {
            if a == 1 {
                Ok(7)
            } else {
                calls += 1;
                Err("again")
            }
        });
        assert_eq!((r, calls), (Ok(7), 1));
    }
}
