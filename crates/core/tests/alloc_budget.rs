//! Allocation-budget regression test for the zero-copy wire path.
//!
//! Before the pooled-encode/borrowed-decode work, one remote `put_u64`
//! cost three heap allocations: the encode `Vec` on the client, an owned
//! payload `Vec` on the server, and the ack body. All three are gone —
//! the request encodes into an inline `Body` (or a pooled buffer), the
//! server decodes a borrowed `ReqView` and applies it straight into the
//! segment, and the ack is inline. What
//! remains is the amortized block allocation inside the transport
//! channel (one block per ~32 sends), so the budget below — **one**
//! allocation per put, down from three-plus — still leaves an order of
//! magnitude of headroom while catching any reintroduced per-message
//! `Vec`.
//!
//! The second and third scenarios budget the barriers the same way. The
//! hierarchical group barrier: everything that scales with the group —
//! the domain table, the member list, the `op_from` offsets — is built
//! once at group formation, so a barrier allocates only its engine's
//! fixed handful of small buffers and one body per leader message. The
//! flat world barrier: its engine's buffers and one body per message,
//! with no send log unless the run is traced.
//!
//! The fourth budgets `fence` alone: a node has one service agent, so a
//! fence is one confirmation round-trip with nothing to collect, and the
//! only allocation left on its path is the channel's amortized block.
//!
//! This file is its own binary so the counting `#[global_allocator]`
//! observes only these scenarios; each measures inside a window in which
//! the other ranks of its own cluster run the same operation or wait, and
//! the tests serialize on [`WINDOW`] so none allocates during another's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use armci_core::runtime::run_cluster;
use armci_core::{ArmciCfg, GlobalAddr};
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

const WARMUP: usize = 2000;
const MEASURED: usize = 1000;

/// Held by a test for its whole cluster run (see module docs).
static WINDOW: Mutex<()> = Mutex::new(());

/// A steady stream of remote `put_u64` + one fence must average at most
/// one heap allocation per put *process-wide* (client, server and ack
/// path combined).
#[test]
fn remote_put_stays_within_allocation_budget() {
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = ArmciCfg::flat(2, LatencyModel::zero());
    let deltas = run_cluster(cfg, |a| {
        let seg = a.malloc(1 << 12);
        let peer = ProcId(((a.rank() + 1) % a.nprocs()) as u32);
        a.barrier();
        // Warm every lazy path: encode pool slots, channel blocks, thread
        // parkers, the server's reply pool, segment page faults.
        for i in 0..WARMUP {
            a.put_u64(GlobalAddr::new(peer, seg, 8 * (i % 64)), i as u64);
        }
        a.fence(peer);
        a.barrier();
        let delta = if a.rank() == 0 {
            let before = ALLOCS.load(Ordering::SeqCst);
            for i in 0..MEASURED {
                a.put_u64(GlobalAddr::new(peer, seg, 8 * (i % 64)), i as u64);
            }
            a.fence(peer);
            Some(ALLOCS.load(Ordering::SeqCst) - before)
        } else {
            None
        };
        a.barrier();
        delta
    });
    let delta = deltas[0].expect("rank 0 measured");
    eprintln!("{MEASURED} remote put_u64 + fence: {delta} allocations process-wide");
    assert!(
        delta <= MEASURED as u64,
        "allocation budget exceeded: {delta} allocations for {MEASURED} puts (budget: 1 per put)"
    );
}

/// 1000 remote `put_u64` + `fence` cycles on 2 nodes x 1, counting
/// process-wide allocations inside the `fence` calls only, must average at
/// most 0.25 allocations per fence: the request and its confirmation ride
/// inline bodies, and the channels' one block per ~32 sends is the whole
/// allowance. Collecting the agents to confirm in a `Vec`, as the fence
/// used to, costs at least one per fence.
#[test]
fn fence_stays_within_allocation_budget() {
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    const FENCES: u64 = 1000;
    let cfg = ArmciCfg::flat(2, LatencyModel::zero());
    let deltas = run_cluster(cfg, |a| {
        let seg = a.malloc(1 << 12);
        let peer = ProcId(((a.rank() + 1) % a.nprocs()) as u32);
        a.barrier();
        let mut in_fence = 0;
        if a.rank() == 0 {
            for i in 0..WARMUP {
                a.put_u64(GlobalAddr::new(peer, seg, 8 * (i % 64)), i as u64);
                a.fence(peer);
            }
            for i in 0..FENCES {
                a.put_u64(GlobalAddr::new(peer, seg, 8 * (i as usize % 64)), i);
                let before = ALLOCS.load(Ordering::SeqCst);
                a.fence(peer);
                in_fence += ALLOCS.load(Ordering::SeqCst) - before;
            }
        }
        a.barrier();
        in_fence
    });
    let delta = deltas[0];
    eprintln!("{FENCES} put_u64 + fence: {delta} allocations inside fence, process-wide");
    assert!(
        delta * 4 <= FENCES,
        "allocation budget exceeded: {delta} allocations in {FENCES} fences (budget: 0.25 each)"
    );
}

/// A hierarchical `barrier_group` on 2 nodes x 2 ppn, alternating dirty
/// epochs (one counted put per rank outstanding: both leader passes and
/// the delegated completion wait) with clean ones, must average at most
/// 44 allocations per barrier *process-wide* — all four ranks' engines,
/// the leaders' four (dirty) or two (clean) messages and every other
/// put together; measured: 33.4. Cloning the domain table per call, as
/// the driver used to, alone adds three per rank — twelve here, past the
/// budget — and grows with the group.
#[test]
fn hier_group_barrier_stays_within_allocation_budget() {
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    const BARRIERS: u64 = 400;
    const BUDGET_PER_BARRIER: u64 = 44;
    let cfg = ArmciCfg { nodes: 2, procs_per_node: 2, latency: LatencyModel::zero(), ..Default::default() };
    let deltas = run_cluster(cfg, |a| {
        let n = a.nprocs();
        let seg = a.malloc(8 * n);
        let g = a.group(&(0..n).collect::<Vec<_>>());
        assert!(g.is_hierarchical());
        let across = GlobalAddr::new(ProcId(((a.rank() + 2) % n) as u32), seg, 8 * a.rank());
        let epochs = |a: &mut armci_core::Armci, count: u64| {
            for i in 0..count {
                if i % 2 == 0 {
                    a.put_u64(across, i);
                }
                a.barrier_group(&g);
            }
        };
        epochs(a, 200);
        a.barrier();
        let before = ALLOCS.load(Ordering::SeqCst);
        epochs(a, BARRIERS);
        // Every rank is past its last barrier once this one completes.
        a.barrier();
        ALLOCS.load(Ordering::SeqCst) - before
    });
    let delta = deltas[0];
    eprintln!("{BARRIERS} hier barrier_group on 2x2: {delta} allocations process-wide");
    assert!(
        delta <= BARRIERS * BUDGET_PER_BARRIER,
        "allocation budget exceeded: {delta} allocations for {BARRIERS} barriers (budget: {BUDGET_PER_BARRIER} each)"
    );
}

/// The flat world `barrier` on 4 nodes x 1, alternating dirty epochs (one
/// counted put per rank outstanding) with clean ones, must average at
/// most 76 allocations per barrier *process-wide* — all four ranks'
/// engines, their `2·log2(4)` messages each and every other put
/// together; measured: 72.8. A send log kept by the engine in an
/// untraced run, as it used to be, alone read 76.8.
#[test]
fn flat_world_barrier_stays_within_allocation_budget() {
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    const BARRIERS: u64 = 400;
    const BUDGET_PER_BARRIER: u64 = 76;
    let cfg = ArmciCfg::flat(4, LatencyModel::zero());
    let deltas = run_cluster(cfg, |a| {
        let n = a.nprocs();
        let seg = a.malloc(8 * n);
        let next = GlobalAddr::new(ProcId(((a.rank() + 1) % n) as u32), seg, 8 * a.rank());
        let epochs = |a: &mut armci_core::Armci, count: u64| {
            for i in 0..count {
                if i % 2 == 0 {
                    a.put_u64(next, i);
                }
                a.barrier();
            }
        };
        epochs(a, 200);
        let before = ALLOCS.load(Ordering::SeqCst);
        epochs(a, BARRIERS);
        // Every rank is past its last measured barrier once this one
        // completes.
        a.barrier();
        ALLOCS.load(Ordering::SeqCst) - before
    });
    let delta = deltas[0];
    eprintln!("{BARRIERS} flat world barrier on 4x1: {delta} allocations process-wide");
    assert!(
        delta <= BARRIERS * BUDGET_PER_BARRIER,
        "allocation budget exceeded: {delta} allocations for {BARRIERS} barriers (budget: {BUDGET_PER_BARRIER} each)"
    );
}
