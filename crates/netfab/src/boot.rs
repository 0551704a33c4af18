//! Bootstrap rendezvous: building the full TCP mesh between node
//! processes before any ARMCI traffic flows.
//!
//! Roles:
//!
//! * a **coordinator** (the launcher process, or a thread in node 0's
//!   process for self-spawned runs) owns a listener at a known address,
//!   collects one registration per node — `(node id, that node's own
//!   listener address)` — and broadcasts the completed address table to
//!   everyone;
//! * every **node** binds its own ephemeral listener, registers with the
//!   coordinator, receives the table, then completes the mesh: node `j`
//!   dials every node `i < j` (a hello frame identifies the dialer) and
//!   accepts a connection from every node `k > j`.
//!
//! Dials happen before accepts everywhere, which cannot deadlock: a TCP
//! connect succeeds against a bound listener's backlog without the owner
//! having reached `accept` yet. The coordinator address is the only
//! out-of-band input (an argument or the `ARMCI_NETFAB_RENDEZVOUS`
//! environment variable); everything else is exchanged in-band.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use armci_transport::{NodeId, Topology};

use crate::retry::RetryPolicy;

/// Bootstrap retry/backoff and deadline policy.
///
/// The defaults are generous enough that a healthy cluster never notices
/// them: the [`RetryPolicy`] default (8 dial attempts, exponential
/// backoff from 10 ms) and a 30 s overall deadline covering
/// registration, table exchange, mesh dials and accepts. A missing or
/// dead peer therefore surfaces as a `TimedOut`/`ConnectionRefused`
/// error instead of an infinite hang.
#[derive(Clone, Debug)]
pub struct BootOpts {
    /// Per-dial retry policy (coordinator registration and mesh hellos).
    pub dial: RetryPolicy,
    /// Overall deadline for the whole bootstrap of this node.
    pub deadline: Duration,
    /// Scripted `(peer, remaining_failures)` dial faults: the first
    /// `remaining_failures` attempts to dial `peer` fail artificially
    /// (consuming attempts and backoff like real failures). Populated
    /// from a `FaultPlan` by `NodeFabric::bootstrap`.
    pub dial_faults: Vec<(u32, u32)>,
}

impl Default for BootOpts {
    fn default() -> Self {
        BootOpts { dial: RetryPolicy::default(), deadline: Duration::from_secs(30), dial_faults: Vec::new() }
    }
}

/// Dial `addr` under the policy's retry/backoff, bounded by `deadline`.
/// `fail_budget` artificially fails that many leading attempts (scripted
/// dial faults).
fn connect_retry(addr: &str, opts: &BootOpts, deadline: Instant, fail_budget: &mut u32) -> io::Result<TcpStream> {
    let mut last_err = None;
    for attempt in 0..opts.dial.attempts.max(1) {
        if attempt > 0 {
            let pause = opts.dial.delay(attempt - 1);
            if Instant::now() + pause > deadline {
                break;
            }
            std::thread::sleep(pause);
        }
        if *fail_budget > 0 {
            *fail_budget -= 1;
            last_err = Some(io::Error::new(io::ErrorKind::ConnectionRefused, "scripted dial fault"));
            continue;
        }
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.unwrap_or_else(|| io::Error::new(io::ErrorKind::TimedOut, format!("dial {addr}: out of time"))))
}

/// Accept one connection, polling a non-blocking listener until
/// `deadline`. The accepted stream is returned in blocking mode.
fn accept_deadline(listener: &TcpListener, deadline: Instant, what: &str) -> io::Result<TcpStream> {
    listener.set_nonblocking(true)?;
    let stream = loop {
        match listener.accept() {
            Ok((s, _)) => break s,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(io::ErrorKind::TimedOut, format!("timed out accepting {what}")));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return Err(e),
        }
    };
    listener.set_nonblocking(false)?;
    stream.set_nonblocking(false)?;
    Ok(stream)
}

/// Bound a stream's reads by the time remaining until `deadline`, so a
/// peer that connects but never completes its handshake cannot hang us.
fn limit_reads(s: &TcpStream, deadline: Instant) -> io::Result<()> {
    let remaining = deadline.saturating_duration_since(Instant::now());
    if remaining.is_zero() {
        return Err(io::Error::new(io::ErrorKind::TimedOut, "bootstrap deadline expired"));
    }
    s.set_read_timeout(Some(remaining))
}

/// Registration magic word (node → coordinator).
const MAGIC_REG: u32 = 0x4152_4d01;
/// Mesh hello magic word (dialing node → accepting node).
const MAGIC_HELLO: u32 = 0x4152_4d02;

/// One fully connected node: a stream per peer node (`None` at our own
/// index), each carrying framed traffic in both directions.
#[derive(Debug)]
pub struct Mesh {
    /// This node's id.
    pub node: NodeId,
    /// `streams[i]` connects to node `i`; `None` for `i == node.idx()`.
    pub streams: Vec<Option<TcpStream>>,
}

fn write_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn write_str(w: &mut impl Write, s: &str) -> io::Result<()> {
    let bytes = s.as_bytes();
    write_u32(w, bytes.len() as u32)?;
    w.write_all(bytes)
}

fn read_str(r: &mut impl Read) -> io::Result<String> {
    let len = read_u32(r)? as usize;
    if len > 4096 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "oversized rendezvous string"));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 rendezvous string"))
}

fn expect_magic(r: &mut impl Read, want: u32, what: &str) -> io::Result<()> {
    let got = read_u32(r)?;
    if got != want {
        return Err(io::Error::new(io::ErrorKind::InvalidData, format!("bad {what} magic {got:#x}")));
    }
    Ok(())
}

/// Run the coordinator: accept one registration per node on `listener`,
/// then send every node the full `node id → listener address` table.
///
/// Returns once the table has been delivered; the mesh itself forms
/// directly between the nodes afterwards.
pub fn coordinate(listener: &TcpListener, nnodes: usize) -> io::Result<()> {
    coordinate_deadline(listener, nnodes, Instant::now() + BootOpts::default().deadline)
}

/// [`coordinate`] bounded by an absolute deadline: a node that never
/// registers (crashed before boot, unreachable) surfaces as a `TimedOut`
/// error instead of an accept that blocks forever.
pub fn coordinate_deadline(listener: &TcpListener, nnodes: usize, deadline: Instant) -> io::Result<()> {
    let mut regs: Vec<Option<(TcpStream, String)>> = (0..nnodes).map(|_| None).collect();
    let mut seen = 0;
    while seen < nnodes {
        let mut s = accept_deadline(listener, deadline, "node registration")?;
        limit_reads(&s, deadline)?;
        expect_magic(&mut s, MAGIC_REG, "registration")?;
        let node = read_u32(&mut s)? as usize;
        let addr = read_str(&mut s)?;
        if node >= nnodes {
            return Err(io::Error::new(io::ErrorKind::InvalidData, format!("registration from unknown node {node}")));
        }
        if regs[node].replace((s, addr)).is_some() {
            return Err(io::Error::new(io::ErrorKind::InvalidData, format!("node {node} registered twice")));
        }
        seen += 1;
    }
    let table: Vec<String> = regs.iter().flatten().map(|(_, a)| a.clone()).collect();
    if table.len() != nnodes {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "registration table incomplete"));
    }
    for (s, _) in regs.iter_mut().flatten() {
        for addr in &table {
            write_str(s, addr)?;
        }
        s.flush()?;
    }
    Ok(())
}

/// Join the mesh as `node`: register with the coordinator at
/// `rendezvous`, learn every peer's listener address, dial the lower
/// nodes, accept the higher ones.
pub fn join_mesh(rendezvous: &str, topo: &Topology, node: NodeId) -> io::Result<Mesh> {
    join_mesh_opts(rendezvous, topo, node, &BootOpts::default())
}

/// [`join_mesh`] with explicit retry/backoff, deadline, and scripted dial
/// faults (see [`BootOpts`]). Every dial retries with backoff, every
/// accept and handshake read is bounded by the boot deadline.
pub fn join_mesh_opts(rendezvous: &str, topo: &Topology, node: NodeId, opts: &BootOpts) -> io::Result<Mesh> {
    let nnodes = topo.nnodes();
    let mut streams: Vec<Option<TcpStream>> = (0..nnodes).map(|_| None).collect();
    if nnodes == 1 {
        return Ok(Mesh { node, streams });
    }
    let deadline = Instant::now() + opts.deadline;

    // Bind our own listener first so its address can be registered.
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let my_addr = listener.local_addr()?.to_string();

    let mut no_faults = 0u32;
    let mut coord = connect_retry(rendezvous, opts, deadline, &mut no_faults)?;
    limit_reads(&coord, deadline)?;
    write_u32(&mut coord, MAGIC_REG)?;
    write_u32(&mut coord, node.0)?;
    write_str(&mut coord, &my_addr)?;
    coord.flush()?;
    let table: Vec<String> = (0..nnodes).map(|_| read_str(&mut coord)).collect::<io::Result<_>>()?;
    drop(coord);

    // Dial every lower node (connect succeeds against their backlog even
    // before they reach accept)...
    for (i, addr) in table.iter().enumerate().take(node.idx()) {
        let mut budget =
            opts.dial_faults.iter().find(|(peer, _)| *peer as usize == i).map(|(_, times)| *times).unwrap_or(0);
        let mut s = connect_retry(addr.as_str(), opts, deadline, &mut budget)?;
        s.set_nodelay(true)?;
        write_u32(&mut s, MAGIC_HELLO)?;
        write_u32(&mut s, node.0)?;
        s.flush()?;
        streams[i] = Some(s);
    }
    // ...then accept every higher one, identified by its hello.
    for _ in node.idx() + 1..nnodes {
        let mut s = accept_deadline(&listener, deadline, "mesh hello")?;
        s.set_nodelay(true)?;
        limit_reads(&s, deadline)?;
        expect_magic(&mut s, MAGIC_HELLO, "hello")?;
        let peer = read_u32(&mut s)? as usize;
        if peer <= node.idx() || peer >= nnodes {
            return Err(io::Error::new(io::ErrorKind::InvalidData, format!("unexpected hello from node {peer}")));
        }
        // Drop the boot-deadline read timeout: the stream lives for the
        // whole run.
        s.set_read_timeout(None)?;
        if streams[peer].replace(s).is_some() {
            return Err(io::Error::new(io::ErrorKind::InvalidData, format!("node {peer} connected twice")));
        }
    }
    Ok(Mesh { node, streams })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_node_mesh_forms_and_carries_bytes() {
        let topo = Topology::new(3, 1);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let coord = std::thread::spawn(move || coordinate(&listener, 3).unwrap());
        let joiners: Vec<_> = (0..3u32)
            .map(|i| {
                let addr = addr.clone();
                let topo = topo.clone();
                std::thread::spawn(move || join_mesh(&addr, &topo, NodeId(i)).unwrap())
            })
            .collect();
        let mut meshes: Vec<Mesh> = joiners.into_iter().map(|h| h.join().unwrap()).collect();
        coord.join().unwrap();

        for (i, m) in meshes.iter().enumerate() {
            assert_eq!(m.node, NodeId(i as u32));
            for (j, s) in m.streams.iter().enumerate() {
                assert_eq!(s.is_some(), i != j, "stream {i}->{j}");
            }
        }
        // Every pair's streams are cross-connected: a byte written by i to
        // j arrives on j's stream for i.
        for i in 0..3 {
            for j in 0..3 {
                if i == j {
                    continue;
                }
                let payload = [(10 * i + j) as u8];
                meshes[i].streams[j].as_mut().unwrap().write_all(&payload).unwrap();
                let mut got = [0u8; 1];
                meshes[j].streams[i].as_mut().unwrap().read_exact(&mut got).unwrap();
                assert_eq!(got, payload);
            }
        }
    }

    #[test]
    fn single_node_needs_no_network() {
        let topo = Topology::new(1, 4);
        let m = join_mesh("unused:0", &topo, NodeId(0)).unwrap();
        assert!(m.streams.iter().all(Option::is_none));
    }

    #[test]
    fn scripted_dial_faults_are_absorbed_by_retry() {
        let topo = Topology::new(2, 1);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let coord = std::thread::spawn(move || coordinate(&listener, 2).unwrap());
        let t0 = {
            let (addr, topo) = (addr.clone(), topo.clone());
            std::thread::spawn(move || join_mesh(&addr, &topo, NodeId(0)).unwrap())
        };
        // Node 1 dials node 0 with its first two attempts scripted to
        // fail; the retry/backoff path must still form the mesh.
        let opts = BootOpts {
            dial: RetryPolicy { base: Duration::from_millis(1), ..RetryPolicy::default() },
            dial_faults: vec![(0, 2)],
            ..BootOpts::default()
        };
        let m1 = join_mesh_opts(&addr, &topo, NodeId(1), &opts).unwrap();
        assert!(m1.streams[0].is_some());
        let m0 = t0.join().unwrap();
        assert!(m0.streams[1].is_some());
        coord.join().unwrap();
    }

    #[test]
    fn dial_fails_when_fault_budget_exceeds_attempts() {
        let topo = Topology::new(2, 1);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // Coordinator and node 0 run normally; node 1's dial to node 0 is
        // scripted to fail more times than it is allowed to retry.
        let coord = std::thread::spawn(move || coordinate(&listener, 2));
        let t0 = {
            let (addr, topo) = (addr.clone(), topo.clone());
            let opts = BootOpts { deadline: Duration::from_millis(500), ..BootOpts::default() };
            std::thread::spawn(move || join_mesh_opts(&addr, &topo, NodeId(0), &opts))
        };
        let opts = BootOpts {
            dial: RetryPolicy { attempts: 2, base: Duration::from_millis(1), ..RetryPolicy::default() },
            deadline: Duration::from_secs(2),
            dial_faults: vec![(0, 100)],
        };
        let err = join_mesh_opts(&addr, &topo, NodeId(1), &opts).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
        // Node 0 is now stuck waiting for node 1's hello until its own
        // boot deadline; it must error out, not hang (and the coordinator
        // already delivered its table, so it exits cleanly).
        assert!(t0.join().unwrap().is_err());
        coord.join().unwrap().unwrap();
    }

    #[test]
    fn coordinator_times_out_when_a_node_never_registers() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let t0 = Instant::now();
        let err = coordinate_deadline(&listener, 1, t0 + Duration::from_millis(80)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(t0.elapsed() >= Duration::from_millis(80));
        assert!(t0.elapsed() < Duration::from_secs(5), "deadline must be honoured promptly");
    }
}
