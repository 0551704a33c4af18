//! Property-based tests: every collective against a straightforward
//! sequential reference, over random process counts, roots, vector sizes,
//! contents and subset-group member lists.

use armci_msglib::{Comm, Group, P2p};
use armci_transport::{Cluster, LatencyModel};
use proptest::prelude::*;

fn cluster(n: usize) -> Cluster {
    Cluster::builder().nodes(n as u32).procs_per_node(1).latency(LatencyModel::zero()).build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn allreduce_matches_reference(n in 1usize..10, veclen in 1usize..9, seed in any::<u64>()) {
        // Deterministic pseudo-random inputs per rank derived from seed.
        let inputs: Vec<Vec<u64>> = (0..n)
            .map(|r| (0..veclen).map(|i| seed.wrapping_mul(r as u64 + 1).wrapping_add(i as u64 * 77)).collect())
            .collect();
        let expect: Vec<u64> = (0..veclen)
            .map(|i| inputs.iter().map(|v| v[i]).fold(0u64, u64::wrapping_add))
            .collect();
        let inputs2 = inputs.clone();
        let out = cluster(n).run_spmd(move |mb| {
            let mut c = Comm::new(mb);
            let mut v = inputs2[c.rank()].clone();
            Group::world(n).allreduce_sum_u64(&mut c, &mut v);
            v
        });
        for v in out {
            prop_assert_eq!(&v, &expect);
        }
    }

    #[test]
    fn bcast_and_allgather_random_payloads(n in 1usize..9, root in 0usize..9, len in 0usize..40, seed in any::<u64>()) {
        let root = root % n;
        let payload: Vec<u8> = (0..len).map(|i| (seed as usize).wrapping_add(i * 13) as u8).collect();
        let payload2 = payload.clone();
        let out = cluster(n).run_spmd(move |mb| {
            let mut c = Comm::new(mb);
            let data = if c.rank() == root { payload2.clone() } else { Vec::new() };
            let b = Group::world(n).bcast(&mut c, root, data);
            let mine = vec![c.rank() as u8];
            let all = Group::world(n).allgather(&mut c, mine);
            Group::world(n).barrier_binary_exchange(&mut c);
            (b, all)
        });
        for (b, all) in out {
            prop_assert_eq!(&b, &payload);
            for (r, block) in all.iter().enumerate() {
                prop_assert_eq!(block, &vec![r as u8]);
            }
        }
    }

    #[test]
    fn subset_group_collectives_match_reference(n in 1usize..9, pick in any::<u64>(), order in any::<u64>(), seed in any::<u64>()) {
        // A random nonempty member list in random order: the bits of
        // `pick` choose members, `order` shuffles them.
        let mut members: Vec<usize> = (0..n).filter(|&r| pick >> r & 1 == 1).collect();
        if members.is_empty() {
            members.push((pick as usize) % n);
        }
        let mut o = order;
        for i in (1..members.len()).rev() {
            members.swap(i, (o % (i as u64 + 1)) as usize);
            o = o.rotate_left(7) ^ 0x9E37_79B9_7F4A_7C15;
        }
        let value = move |w: usize| seed.wrapping_mul(w as u64 + 3);
        let m2 = members.clone();
        let out = cluster(n).run_spmd(move |mb| {
            let mut c = Comm::new(mb);
            let me = c.rank();
            let g = Group::from_ranks(&m2);
            if !g.contains(me) {
                return None; // non-members stay idle
            }
            let mut v = [value(me), 1];
            g.allreduce_sum_u64(&mut c, &mut v);
            let all = g.allgather(&mut c, me.to_le_bytes().to_vec());
            g.barrier_binary_exchange(&mut c);
            Some((v, all))
        });
        let sum = members.iter().map(|&w| value(w)).fold(0u64, u64::wrapping_add);
        let gathered: Vec<Vec<u8>> = members.iter().map(|w| w.to_le_bytes().to_vec()).collect();
        for (w, got) in out.into_iter().enumerate() {
            if members.contains(&w) {
                let (v, all) = got.expect("members return results");
                prop_assert_eq!(v, [sum, members.len() as u64], "rank {}", w);
                // Indexed by group rank, i.e. position in the member list.
                prop_assert_eq!(&all, &gathered, "rank {}", w);
            } else {
                prop_assert!(got.is_none());
            }
        }
    }
}
