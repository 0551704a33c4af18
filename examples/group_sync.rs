//! Processor groups: overlapping row/column communicators on a process
//! grid, group-scoped synchronization, and the topology-hierarchical
//! barrier.
//!
//! An emulated 4-node x 2-process cluster is viewed as a 2x4 process
//! grid. Every process belongs to two overlapping groups — its row and
//! its column — and synchronizes each independently: puts to row peers
//! are completed by a *row* barrier (the column, and the rest of the
//! machine, is never touched), then a column-group allreduce combines
//! per-column results. Each group barrier synchronizes co-located members through shared-memory counters and
//! sends only `log2(domains)` inter-node messages per leader and pass
//! (two passes when puts were outstanding, one when not).
//!
//! Run with:
//! ```text
//! cargo run --example group_sync
//! ```

use armci_repro::prelude::*;

const ROWS: usize = 2;
const COLS: usize = 4;

fn main() {
    // 4 dual-process nodes; groups exploit the node locality. Traced, so
    // each handle keeps the send log read below.
    let cfg = ArmciCfg {
        nodes: 4,
        procs_per_node: 2,
        latency: LatencyModel::myrinet_like(),
        trace: true,
        ..Default::default()
    };
    run_cluster(cfg, |armci| {
        let me = armci.rank();
        let (row, col) = (me / COLS, me % COLS);
        let seg = armci.malloc(8 * COLS);
        armci.barrier();

        // --- Row group: put to every row peer, sync the row only -----
        let row_members: Vec<usize> = (0..COLS).map(|c| row * COLS + c).collect();
        let rg = armci.group(&row_members);
        for &peer in &row_members {
            armci.put_u64(GlobalAddr::new(ProcId(peer as u32), seg, 8 * col), 10 * row as u64 + col as u64);
        }
        // Completes row-directed puts + barriers the row: the other row
        // proceeds independently.
        armci.take_send_log();
        armci.barrier_group(&rg);
        let mine = armci.local_segment(seg);
        let row_sum: u64 = (0..COLS).map(|c| mine.read_u64(8 * c)).sum();

        // The hierarchical trace: row members on the same node checked in
        // through a shared counter; only per-node leaders exchanged.
        let xchg = armci
            .take_send_log()
            .iter()
            .filter(|r| matches!(r.msg, armci_proto::SentMsg::Hier(armci_proto::HierMsg::Xchg(_))))
            .count();

        // --- Column group (overlaps every row group) ------------------
        let col_members: Vec<usize> = (0..ROWS).map(|r| r * COLS + col).collect();
        let cg = armci.group(&col_members);
        let mut v = [row_sum];
        cg.msg().allreduce_sum_u64(armci, &mut v);
        // Row r's sum is sum_c(10r + c) = 10r*COLS + 0+..+(COLS-1).
        let expect: u64 = (0..ROWS as u64).map(|r| 10 * r * COLS as u64 + (COLS * (COLS - 1) / 2) as u64).sum();
        assert_eq!(v[0], expect, "column totals must agree across the grid");

        println!("rank {me} (row {row}, col {col}): row_sum={row_sum} col_total={} xchg_msgs={xchg}", v[0]);
        armci.barrier();
    });
}
