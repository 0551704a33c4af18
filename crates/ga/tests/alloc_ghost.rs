//! Allocation budgets for the planned ghost exchange and for
//! `GlobalArray` patch puts and gets.
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
//! A patch put or get moves each byte once: straight from the caller's
//! rows into the owner's segment or the request frame, and from the
//! segment or the reply straight into the caller's rows. So a put to an
//! owner on the same node allocates nothing, a piece that rides the wire
//! costs at most the one pooled-encode allocation `alloc_budget` allows a
//! message, and a get allocates only the `Vec` it returns. Staging each
//! piece in a packed `Vec<f64>` and a `Vec<u8>`, as GA once did, costs two
//! more per piece, plus one for the list of pieces.
//!
//! This file is its own binary so the counting `#[global_allocator]`
//! observes only these scenarios; the tests serialize on [`WINDOW`] so
//! neither allocates during the other's measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use armci_core::{run_cluster, ArmciCfg};
use armci_ga::{GhostArray, GlobalArray, Patch};
use armci_transport::{LatencyModel, ProcId};

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

/// Held by a test for its whole cluster run (see module docs).
static WINDOW: Mutex<()> = Mutex::new(());

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
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
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

/// Process-wide allocations across `MEASURED` calls of `op`, after
/// `WARMUP` unmeasured ones.
fn allocs_in(mut op: impl FnMut()) -> u64 {
    for _ in 0..WARMUP {
        op();
    }
    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..MEASURED {
        op();
    }
    ALLOCS.load(Ordering::SeqCst) - before
}

/// Steady-state patch puts and gets of a 64x64 array on 2 nodes x 2
/// procs (32x32 blocks; ranks 0 and 1 share node 0, ranks 2 and 3 node 1),
/// counting process-wide allocations inside rank 0's calls while the other
/// ranks wait in a barrier.
#[test]
fn ga_patch_put_and_get_stage_nothing() {
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = ArmciCfg { nodes: 2, procs_per_node: 2, latency: LatencyModel::zero(), ..Default::default() };
    let counts = run_cluster(cfg, |a| {
        let ga = GlobalArray::create(a, 64, 64);
        let mut counts = None;
        if a.rank() == 0 {
            let same_node = Patch::new(8, 24, 40, 56); // inside rank 1's block
            let remote = Patch::new(40, 56, 24, 40); // ranks 2 and 3: two wire pieces
            let spanning = Patch::new(24, 40, 24, 40); // all four owners: two direct, two wire
            let data = vec![1.5; 256];
            counts = Some([
                allocs_in(|| ga.put(a, same_node, &data)),
                allocs_in(|| {
                    ga.put(a, remote, &data);
                    a.fence(ProcId(2));
                }),
                allocs_in(|| assert_eq!(ga.get(a, same_node).len(), 256)),
                allocs_in(|| assert_eq!(ga.get(a, spanning).len(), 256)),
            ]);
        }
        a.barrier();
        counts
    });
    let [put_direct, put_wire, get_direct, get_spanning] = counts[0].expect("rank 0 measured");
    eprintln!(
        "{MEASURED} patch ops, allocations process-wide: same-node put {put_direct}, two-owner wire put + \
         fence {put_wire}, same-node get {get_direct}, four-owner get {get_spanning}"
    );
    assert_eq!(put_direct, 0, "a same-node put allocated");
    assert!(put_wire <= 2 * MEASURED, "{put_wire} allocations for {MEASURED} two-piece wire puts (budget: 1 a piece)");
    assert!(get_direct <= MEASURED, "{get_direct} allocations for {MEASURED} same-node gets (budget: the Vec)");
    assert!(
        get_spanning <= 3 * MEASURED,
        "{get_spanning} allocations for {MEASURED} four-owner gets (budget: the Vec + 1 a wire piece)"
    );
}
