//! Length-prefixed wire framing.
//!
//! Every transmission on the TCP stream connecting two nodes is one
//! frame, an 18-byte header followed by its body:
//!
//! ```text
//! offset  size  field
//!      0     1  dst kind   (0 = Proc, 1 = Server; any other value is malformed)
//!      1     4  dst id     (rank or node number, little-endian)
//!      5     1  src kind
//!      6     4  src id
//!     10     4  tag
//!     14     4  body length
//!     18   len  body bytes
//! ```
//!
//! The destination endpoint is part of the header because one socket
//! carries traffic for *all* endpoints of the destination node (its
//! processes and its server): the receiving node's event loop demuxes
//! frames by this field, into a process's inbox or into the node's
//! service agent.
//! Received bodies land in [`BodyPool`] buffers, so the zero-copy apply
//! path downstream (borrowed decode, direct-to-segment writes) works
//! unchanged on the network path.

use std::io::{self, Read, Write};

use armci_transport::{Body, BodyPool, Endpoint, NodeId, ProcId, Tag, Topology};

/// Bytes of the fixed frame header.
pub const HEADER_LEN: usize = 18;

const KIND_PROC: u8 = 0;
const KIND_SERVER: u8 = 1;

fn encode_endpoint(ep: Endpoint) -> (u8, u32) {
    match ep {
        Endpoint::Proc(p) => (KIND_PROC, p.0),
        Endpoint::Server(n) => (KIND_SERVER, n.0),
    }
}

fn decode_endpoint(kind: u8, id: u32, topo: &Topology) -> io::Result<Endpoint> {
    let ep = match kind {
        KIND_PROC if (id as usize) < topo.nprocs() => Endpoint::Proc(ProcId(id)),
        KIND_SERVER if (id as usize) < topo.nnodes() => Endpoint::Server(NodeId(id)),
        _ => {
            return Err(io::Error::new(io::ErrorKind::InvalidData, format!("bad wire endpoint: kind {kind}, id {id}")))
        }
    };
    Ok(ep)
}

/// A decoded incoming frame.
#[derive(Debug)]
pub struct Frame {
    /// The endpoint on this node the frame is addressed to.
    pub dst: Endpoint,
    /// The sending endpoint on the peer node.
    pub src: Endpoint,
    /// Protocol tag.
    pub tag: Tag,
    /// Payload, in a pooled (or inline) buffer.
    pub body: Body,
}

/// A decoded frame header: addressing, tag, and the announced body length
/// (validated against [`Body::MAX_LEN`] and the topology).
#[derive(Debug, Clone, Copy)]
pub struct FrameHeader {
    /// The endpoint on this node the frame is addressed to.
    pub dst: Endpoint,
    /// The sending endpoint on the peer node.
    pub src: Endpoint,
    /// Protocol tag.
    pub tag: Tag,
    /// Announced body length in bytes.
    pub len: u32,
}

/// Decode a complete frame header from its fixed-size wire image. Shared
/// by the blocking reference reader ([`read_frame`]) and the event
/// loop's incremental decoder.
pub fn parse_header(hdr: &[u8; HEADER_LEN], topo: &Topology) -> io::Result<FrameHeader> {
    let dst = decode_endpoint(hdr[0], u32::from_le_bytes(hdr[1..5].try_into().unwrap()), topo)?;
    let src = decode_endpoint(hdr[5], u32::from_le_bytes(hdr[6..10].try_into().unwrap()), topo)?;
    let tag = Tag(u32::from_le_bytes(hdr[10..14].try_into().unwrap()));
    let len = u32::from_le_bytes(hdr[14..18].try_into().unwrap());
    // A corrupt or misaligned header is reported as an error instead of
    // an absurd allocation.
    if len as usize > Body::MAX_LEN {
        return Err(io::Error::new(io::ErrorKind::InvalidData, format!("frame body of {len} bytes")));
    }
    Ok(FrameHeader { dst, src, tag, len })
}

/// Serialize one frame into `w` (no flush — the caller batches).
pub fn write_frame(w: &mut impl Write, dst: Endpoint, src: Endpoint, tag: Tag, body: &[u8]) -> io::Result<()> {
    write_header(w, dst, src, tag, body.len())?;
    w.write_all(body)
}

/// Serialize only a frame's header, announcing a body of `len` bytes the
/// caller transmits itself (the vectored bulk path never copies it).
pub fn write_header(w: &mut impl Write, dst: Endpoint, src: Endpoint, tag: Tag, len: usize) -> io::Result<()> {
    let mut hdr = [0u8; HEADER_LEN];
    let (dk, di) = encode_endpoint(dst);
    let (sk, si) = encode_endpoint(src);
    hdr[0] = dk;
    hdr[1..5].copy_from_slice(&di.to_le_bytes());
    hdr[5] = sk;
    hdr[6..10].copy_from_slice(&si.to_le_bytes());
    hdr[10..14].copy_from_slice(&tag.0.to_le_bytes());
    hdr[14..18].copy_from_slice(&(len as u32).to_le_bytes());
    w.write_all(&hdr)
}

/// Read one frame from `r`, landing the body in a buffer from `pool`.
///
/// Returns `Ok(None)` on a clean EOF at a frame boundary (the peer shut
/// down its write side after flushing everything — normal teardown). EOF
/// mid-frame is an error.
pub fn read_frame(r: &mut impl Read, topo: &Topology, pool: &mut BodyPool) -> io::Result<Option<Frame>> {
    let mut hdr = [0u8; HEADER_LEN];
    // Distinguish clean EOF (0 bytes of a new frame) from truncation.
    let mut got = 0;
    while got < HEADER_LEN {
        let n = r.read(&mut hdr[got..])?;
        if n == 0 {
            if got == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed mid-frame"));
        }
        got += n;
    }
    let FrameHeader { dst, src, tag, len } = parse_header(&hdr, topo)?;
    let mut read_err = Ok(());
    let body = pool.with_buf(|buf| {
        buf.resize(len as usize, 0);
        read_err = r.read_exact(buf);
    });
    read_err?;
    Ok(Some(Frame { dst, src, tag, body }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let topo = Topology::new(2, 2);
        let mut buf = Vec::new();
        write_frame(&mut buf, Endpoint::Server(NodeId(1)), Endpoint::Proc(ProcId(0)), Tag(0x0001_0000), &[1, 2, 3])
            .unwrap();
        write_frame(&mut buf, Endpoint::Proc(ProcId(3)), Endpoint::Server(NodeId(0)), Tag(7), &[]).unwrap();
        let mut pool = BodyPool::new(2);
        let mut r = &buf[..];
        let f1 = read_frame(&mut r, &topo, &mut pool).unwrap().unwrap();
        assert_eq!(f1.dst, Endpoint::Server(NodeId(1)));
        assert_eq!(f1.src, Endpoint::Proc(ProcId(0)));
        assert_eq!(f1.tag, Tag(0x0001_0000));
        assert_eq!(&*f1.body, &[1, 2, 3]);
        let f2 = read_frame(&mut r, &topo, &mut pool).unwrap().unwrap();
        assert_eq!(f2.dst, Endpoint::Proc(ProcId(3)));
        assert_eq!(f2.body.len(), 0);
        // Clean EOF at the boundary.
        assert!(read_frame(&mut r, &topo, &mut pool).unwrap().is_none());
    }

    #[test]
    fn large_body_lands_in_pool_buffer() {
        let topo = Topology::new(1, 1);
        let payload: Vec<u8> = (0..200u8).collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, Endpoint::Proc(ProcId(0)), Endpoint::Server(NodeId(0)), Tag(1), &payload).unwrap();
        let mut pool = BodyPool::new(2);
        let f = read_frame(&mut &buf[..], &topo, &mut pool).unwrap().unwrap();
        assert_eq!(&*f.body, &payload[..]);
    }

    #[test]
    fn truncation_is_an_error() {
        let topo = Topology::new(1, 1);
        let mut buf = Vec::new();
        write_frame(&mut buf, Endpoint::Proc(ProcId(0)), Endpoint::Server(NodeId(0)), Tag(1), &[9; 40]).unwrap();
        let mut pool = BodyPool::new(2);
        // Cut inside the header and inside the body.
        for cut in [HEADER_LEN / 2, HEADER_LEN + 10] {
            let err = read_frame(&mut &buf[..cut], &topo, &mut pool).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        }
    }

    #[test]
    fn every_mid_frame_cut_is_truncation_and_only_boundaries_are_clean_eof() {
        // Exhaustive clean-EOF vs truncation distinction: a stream cut at
        // *any* byte inside a frame must decode as UnexpectedEof, while a
        // cut exactly at a frame boundary is a clean end-of-stream.
        let topo = Topology::new(1, 1);
        let mut buf = Vec::new();
        write_frame(&mut buf, Endpoint::Proc(ProcId(0)), Endpoint::Server(NodeId(0)), Tag(7), &[3; 11]).unwrap();
        let first = buf.len();
        write_frame(&mut buf, Endpoint::Server(NodeId(0)), Endpoint::Proc(ProcId(0)), Tag(8), &[]).unwrap();
        let mut pool = BodyPool::new(2);
        for cut in 0..=buf.len() {
            let mut r = &buf[..cut];
            // Drain whole frames that fit before the cut.
            let whole_frames = usize::from(cut >= first) + usize::from(cut == buf.len());
            for _ in 0..whole_frames {
                assert!(read_frame(&mut r, &topo, &mut pool).unwrap().is_some(), "cut {cut}");
            }
            if cut == 0 || cut == first || cut == buf.len() {
                assert!(read_frame(&mut r, &topo, &mut pool).unwrap().is_none(), "cut {cut}: boundary is clean EOF");
            } else {
                let err = read_frame(&mut r, &topo, &mut pool).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut {cut}: mid-frame EOF is truncation");
            }
        }
    }

    #[test]
    fn bad_endpoint_rejected() {
        let topo = Topology::new(1, 1);
        let mut buf = Vec::new();
        // dst rank 5 does not exist in a 1x1 topology.
        write_frame(&mut buf, Endpoint::Proc(ProcId(5)), Endpoint::Server(NodeId(0)), Tag(1), &[]).unwrap();
        let mut pool = BodyPool::new(2);
        assert!(read_frame(&mut &buf[..], &topo, &mut pool).is_err());
    }

    #[test]
    fn unknown_endpoint_kind_is_invalid_data() {
        // Kind 2 (and up) names no endpoint: a hand-built header carrying
        // it in either the dst or the src slot is malformed input.
        let topo = Topology::new(2, 1);
        let mut good = Vec::new();
        write_frame(&mut good, Endpoint::Server(NodeId(1)), Endpoint::Proc(ProcId(0)), Tag(1), &[]).unwrap();
        for kind_at in [0, 5] {
            let mut hdr: [u8; HEADER_LEN] = good[..HEADER_LEN].try_into().unwrap();
            hdr[kind_at] = 2;
            assert_eq!(parse_header(&hdr, &topo).unwrap_err().kind(), io::ErrorKind::InvalidData, "kind at {kind_at}");
            let mut pool = BodyPool::new(2);
            let err = read_frame(&mut &hdr[..], &topo, &mut pool).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "kind at {kind_at}");
        }
    }
}
