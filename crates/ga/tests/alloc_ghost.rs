//! Allocation budget for the planned ghost exchange.
//!
//! A planned `GhostArray` step gathers its boundary rows into a buffer
//! sized when the plan is built, posts them straight from it and copies
//! the ghost ring and the interior into the local buffer in place, so the
//! ghost layer itself allocates nothing per step. Neither does the notify
//! path underneath: `Armci` reuses one buffer for the notify engine's
//! actions on issue and on wait. What remains is the channels' amortized
//! blocks (one per 31 messages queued). A `Vec` per gathered row, or
//! routing the interior through the plan, costs more than 250
//! allocations per step on this 128-row block; one `Vec` per notified
//! put or wait costs more than one.
//!
//! This file is its own binary so the counting `#[global_allocator]`
//! observes only this scenario.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use armci_core::{run_cluster, ArmciCfg};
use armci_ga::{GhostArray, GlobalArray};
use armci_transport::LatencyModel;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const WARMUP: u64 = 200;
const MEASURED: u64 = 1000;
/// Per step, process-wide (the peer's step overlaps rank 0's): the
/// channels' amortized blocks only. Measured: 0.064–0.074 on a 2-vCPU
/// box, idle or loaded.
const BUDGET_PER_STEP: f64 = 0.15;

/// 1000 planned updates of a 256x64 array on 2 nodes x 1 (128x64 blocks,
/// ghost width 1, zero latency), counting process-wide allocations inside
/// rank 0's `try_update_with_plan` only.
#[test]
fn planned_ghost_step_stays_within_allocation_budget() {
    let deltas = run_cluster(ArmciCfg::flat(2, LatencyModel::zero()), |a| {
        let ga = GlobalArray::create(a, 256, 64);
        let own = ga.owned_patch(a.rank());
        ga.put(a, own, &vec![a.rank() as f64; own.len()]);
        let mut g = GhostArray::new(a, ga, 1);
        let mut plan = g.plan_update(a, 0);
        for _ in 0..WARMUP {
            g.try_update_with_plan(a, &mut plan).expect("warmup step");
        }
        let mut in_step = 0;
        for _ in 0..MEASURED {
            let before = ALLOCS.load(Ordering::SeqCst);
            g.try_update_with_plan(a, &mut plan).expect("measured step");
            if a.rank() == 0 {
                in_step += ALLOCS.load(Ordering::SeqCst) - before;
            }
        }
        a.barrier();
        in_step
    });
    let delta = deltas[0];
    eprintln!("{MEASURED} planned ghost steps: {delta} allocations inside rank 0's steps, process-wide");
    assert!(
        delta as f64 <= MEASURED as f64 * BUDGET_PER_STEP,
        "allocation budget exceeded: {delta} allocations in {MEASURED} steps (budget: {BUDGET_PER_STEP} each)"
    );
}
