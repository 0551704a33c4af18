//! Cluster construction: wiring mailboxes (one per process and one per
//! node server), the memory registry and the topology together, and a
//! convenience SPMD runner.

use std::sync::Arc;

use crate::fabric::{endpoint_count, endpoint_index, FabricInner, Mailbox};
use crate::ids::{NodeId, ProcId, Topology};
use crate::latency::LatencyModel;
use crate::memory::MemoryRegistry;
use crate::message::Endpoint;

/// Builder for a [`Cluster`].
///
/// ```
/// use armci_transport::{Cluster, LatencyModel};
/// let cluster = Cluster::builder()
///     .nodes(4)
///     .procs_per_node(2)
///     .latency(LatencyModel::zero())
///     .build();
/// assert_eq!(cluster.topology().nprocs(), 8);
/// ```
pub struct ClusterBuilder {
    nodes: u32,
    procs_per_node: u32,
    latency: LatencyModel,
    seed: u64,
    trace: bool,
}

impl ClusterBuilder {
    /// Number of SMP nodes (default 1).
    pub fn nodes(mut self, n: u32) -> Self {
        self.nodes = n;
        self
    }

    /// User processes per node (default 1).
    pub fn procs_per_node(mut self, p: u32) -> Self {
        self.procs_per_node = p;
        self
    }

    /// Network latency model (default [`LatencyModel::myrinet_like`]).
    pub fn latency(mut self, l: LatencyModel) -> Self {
        self.latency = l;
        self
    }

    /// Seed for the deterministic jitter streams (default 1).
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Record every message send into a [`crate::trace::Trace`]
    /// retrievable via [`Cluster::trace`] (default off; tracing costs one
    /// mutexed push per send).
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Wire up the cluster: one mailbox per process and per node server,
    /// plus a fresh memory registry.
    pub fn build(self) -> Cluster {
        let topology = Topology::new(self.nodes, self.procs_per_node);
        let n_endpoints = endpoint_count(&topology);
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..n_endpoints).map(|_| crossbeam_channel::unbounded()).unzip();
        let trace = self.trace.then(|| Arc::new(crate::trace::Trace::new(n_endpoints)));
        let inner = Arc::new(FabricInner {
            topology: topology.clone(),
            latency: self.latency,
            txs,
            seed: self.seed,
            trace: trace.clone(),
        });
        // Dense endpoint order (see `endpoint_index`): processes, then servers.
        let endpoints = topology.all_procs().map(Endpoint::Proc).chain(topology.all_nodes().map(Endpoint::Server));
        let mailboxes = endpoints.zip(rxs).map(|(ep, rx)| Some(Mailbox::new(ep, inner.clone(), rx))).collect();

        let registry = Arc::new(MemoryRegistry::new(topology.nprocs()));
        Cluster { topology, registry, mailboxes, trace }
    }
}

/// A fully wired emulated cluster. Hand out each endpoint's [`Mailbox`]
/// exactly once (they are single-owner, like a NIC port), share the
/// [`MemoryRegistry`] freely.
pub struct Cluster {
    topology: Topology,
    registry: Arc<MemoryRegistry>,
    /// Indexed by [`endpoint_index`].
    mailboxes: Vec<Option<Mailbox>>,
    trace: Option<Arc<crate::trace::Trace>>,
}

impl Cluster {
    /// Start building a cluster.
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder { nodes: 1, procs_per_node: 1, latency: LatencyModel::myrinet_like(), seed: 1, trace: false }
    }

    /// The message trace, if tracing was enabled at build time.
    pub fn trace(&self) -> Option<Arc<crate::trace::Trace>> {
        self.trace.clone()
    }

    /// The cluster topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The shared memory registry.
    pub fn registry(&self) -> Arc<MemoryRegistry> {
        self.registry.clone()
    }

    fn take(&mut self, ep: Endpoint) -> Mailbox {
        self.mailboxes[endpoint_index(&self.topology, ep)]
            .take()
            .unwrap_or_else(|| panic!("mailbox of {ep:?} already taken"))
    }

    /// Take ownership of process `p`'s mailbox.
    ///
    /// # Panics
    /// Panics if taken twice.
    pub fn take_proc(&mut self, p: ProcId) -> Mailbox {
        self.take(Endpoint::Proc(p))
    }

    /// Take ownership of node `n`'s server mailbox.
    ///
    /// # Panics
    /// Panics if taken twice.
    pub fn take_server(&mut self, n: NodeId) -> Mailbox {
        self.take(Endpoint::Server(n))
    }

    /// Run an SPMD function on every *process* endpoint (no servers), each
    /// on its own thread, and collect the return values by rank.
    ///
    /// This is the entry point for layers that only need message passing
    /// (e.g. the msglib collectives and their tests); `armci-core`
    /// provides a richer runner that also spawns server threads.
    pub fn run_spmd<T, F>(mut self, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(Mailbox) -> T + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let handles: Vec<_> = self
            .topology
            .all_procs()
            .map(|p| {
                let mb = self.take_proc(p);
                let f = f.clone();
                std::thread::Builder::new()
                    .name(format!("proc-{}", p.0))
                    .spawn(move || f(mb))
                    .expect("spawn process thread")
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("process thread panicked")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Tag;

    #[test]
    fn builder_wires_all_endpoints() {
        let mut c = Cluster::builder().nodes(2).procs_per_node(2).latency(LatencyModel::zero()).build();
        for p in c.topology().all_procs().collect::<Vec<_>>() {
            let _ = c.take_proc(p);
        }
        for n in c.topology().all_nodes().collect::<Vec<_>>() {
            let _ = c.take_server(n);
        }
    }

    #[test]
    #[should_panic]
    fn double_take_panics() {
        let mut c = Cluster::builder().build();
        let _ = c.take_proc(ProcId(0));
        let _ = c.take_proc(ProcId(0));
    }

    #[test]
    fn spmd_ring_pass() {
        // Each proc sends its rank to the next and returns what it got.
        let c = Cluster::builder().nodes(4).procs_per_node(1).latency(LatencyModel::zero()).build();
        let results = c.run_spmd(|mut mb| {
            let me = mb.me().proc().unwrap();
            let n = mb.topology().nprocs() as u32;
            let next = ProcId((me.0 + 1) % n);
            mb.send(Endpoint::Proc(next), Tag(Tag::INTERNAL_BASE), vec![me.0 as u8]);
            let m = mb.recv().unwrap();
            m.body[0]
        });
        assert_eq!(results, vec![3, 0, 1, 2]);
    }

    #[test]
    fn proc_to_server_messaging() {
        let mut c = Cluster::builder().nodes(2).procs_per_node(1).latency(LatencyModel::zero()).build();
        let mut p0 = c.take_proc(ProcId(0));
        let mut s1 = c.take_server(NodeId(1));
        let server = std::thread::spawn(move || {
            let m = s1.recv().unwrap();
            let src = m.src;
            s1.send(src, Tag(Tag::INTERNAL_BASE + 1), vec![m.body[0] + 1]);
        });
        p0.send(Endpoint::Server(NodeId(1)), Tag(Tag::INTERNAL_BASE), vec![41]);
        let reply = p0.recv().unwrap();
        assert_eq!(reply.body, vec![42]);
        assert_eq!(reply.src, Endpoint::Server(NodeId(1)));
        server.join().unwrap();
    }

    #[test]
    fn registry_shared_across_cluster() {
        let c = Cluster::builder().nodes(1).procs_per_node(2).build();
        let r1 = c.registry();
        let r2 = c.registry();
        let (id, seg) = r1.register(ProcId(0), 64);
        seg.write_u64(0, 7);
        assert_eq!(r2.lookup(ProcId(0), id).read_u64(0), 7);
    }
}
