//! One-CPU pinning by hand-rolled `sched_setaffinity` FFI (the repo takes
//! `mmap` and `poll` the same way; no libc crate is available offline).
//!
//! Every wait in the stack under test spins-then-yields or parks, so on
//! one CPU an operation's latency is the instructions, syscalls and
//! context switches on its critical path. Unpinned on this class of VM
//! the same binary is bimodal (threads sharing a core vs paying an idle
//! vCPU wake-up per hop), which no bound can referee.

#[cfg(target_os = "linux")]
mod sys {
    /// `cpu_set_t` as the kernel sees it: 1024 bits.
    pub const WORDS: usize = 16;

    extern "C" {
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    }
}

/// CPUs the calling thread may run on, ascending.
#[cfg(target_os = "linux")]
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; sys::WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte
    // length passed; pid 0 names the calling thread.
    let rc = unsafe { sys::sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..sys::WORDS * 64).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1).collect()
}

/// Restrict the calling thread (and every thread or process it later
/// starts) to `cpu`. Returns whether the kernel accepted the mask.
#[cfg(target_os = "linux")]
pub fn pin_to(cpu: usize) -> bool {
    let mut mask = [0u64; sys::WORDS];
    if cpu >= sys::WORDS * 64 {
        return false;
    }
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the byte length passed;
    // pid 0 names the calling thread.
    unsafe { sys::sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn allowed_cpus() -> Vec<usize> {
    Vec::new()
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to(_cpu: usize) -> bool {
    false
}

/// Pin to the highest-numbered allowed CPU (CPU 0 tends to take the
/// interrupts) and report `(pinned cpu, spare cpu for the one cross-core
/// calibration)`. Must run before any thread is spawned.
pub fn pin_process() -> (Option<usize>, Option<usize>) {
    let cpus = allowed_cpus();
    let Some(&cpu) = cpus.last() else { return (None, None) };
    let spare = cpus.iter().rev().nth(1).copied();
    (pin_to(cpu).then_some(cpu), spare)
}
