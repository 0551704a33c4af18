//! The frame read/decode/ingest path of the event loop.
//!
//! The loop reads incrementally from nonblocking sockets
//! ([`FrameDecoder`]), parking mid-field on `WouldBlock` and resuming on
//! the next readable event. Decoding goes through the
//! [`wire::parse_preamble`] / [`wire::parse_header`] primitives and every
//! decoded transmission feeds [`session_step`] for the session-layer
//! bookkeeping (ack accounting, replay dedup by sequence number, desync
//! detection).
//!
//! With recovery on, outgoing frames are encoded once by [`encode_frame`]
//! into an `Arc<Vec<u8>>` — the exact representation the session replay
//! ring stores — so a frame is serialized exactly once no matter how many
//! times a reconnect replays it. With recovery off the event loop's submit
//! path encodes straight into its output buffer instead.

use std::io::{self, Read};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use armci_transport::{endpoint_index, Body, BodyPool, Endpoint, Msg, Tag, Topology};
use crossbeam_channel::Sender;

use crate::session::Session;
use crate::wire::{self, FrameHeader, HEADER_LEN, PREAMBLE_LEN};

/// A nonblocking socket that remembers when it ran dry, for use under a
/// `BufReader`. A read that returns fewer bytes than it asked for emptied
/// the receive queue, so the next one is guaranteed `EAGAIN`: instead of
/// issuing it, `read` reports `WouldBlock` itself until the owner clears
/// `dry` on the next readable event (level-triggered `poll` reports
/// anything that arrived in between).
pub(crate) struct DryReader<R> {
    pub inner: R,
    pub dry: bool,
}

impl<R: Read> Read for DryReader<R> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if self.dry {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let n = self.inner.read(out)?;
        self.dry = n < out.len();
        Ok(n)
    }
}

/// Progress of one [`FrameDecoder::poll_step`] call.
pub(crate) enum Progress {
    /// A complete transmission (preamble + optional data frame).
    Item(wire::Preamble, Option<wire::Frame>),
    /// The socket ran dry (`WouldBlock`, or a short read through a
    /// [`DryReader`]); call again on the next readable event.
    NeedMore,
    /// Clean EOF exactly at a transmission boundary.
    CleanEof,
}

/// Where the decoder stands inside the current transmission.
enum State {
    Preamble { got: usize },
    Header { preamble: wire::Preamble, got: usize },
    Body { preamble: wire::Preamble, hdr: FrameHeader, got: usize },
}

/// Outcome of topping up one fixed-size field.
enum Fill {
    Done,
    NeedMore,
    Eof,
}

/// An incremental, restartable decoder of the session wire format, for
/// nonblocking streams. State survives across `WouldBlock`, so a frame
/// split over many readable events decodes exactly once.
///
/// Completed bodies land in [`BodyPool`] buffers (inline for small
/// payloads), keeping the zero-copy apply path downstream; the cost over
/// a blocking `read_exact` into the pool buffer is one copy out of the
/// decoder's reusable body scratch for payloads above the inline cap,
/// since a pool buffer cannot be held open across loop iterations.
pub(crate) struct FrameDecoder {
    state: State,
    /// Scratch for the fixed-size preamble/header fields.
    fixed: [u8; HEADER_LEN],
    /// Reused body accumulation buffer (capacity persists across frames).
    body: Vec<u8>,
}

impl FrameDecoder {
    pub fn new() -> FrameDecoder {
        FrameDecoder { state: State::Preamble { got: 0 }, fixed: [0; HEADER_LEN], body: Vec::new() }
    }

    /// Discard any partial state (a replacement stream restarts at a
    /// transmission boundary).
    pub fn reset(&mut self) {
        self.state = State::Preamble { got: 0 };
        self.body.clear();
    }

    /// Top up `self.fixed[..want]` from `r`. `got == 0` distinguishes a
    /// clean boundary EOF from truncation.
    fn fill_fixed(r: &mut impl Read, buf: &mut [u8], got: &mut usize, want: usize) -> io::Result<Fill> {
        while *got < want {
            match r.read(&mut buf[*got..want]) {
                Ok(0) => return Ok(Fill::Eof),
                Ok(n) => *got += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(Fill::NeedMore),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(Fill::Done)
    }

    /// Drive the decoder forward as far as the socket allows. Call in a
    /// loop until it reports [`Progress::NeedMore`] (or EOF/error).
    pub fn poll_step(&mut self, r: &mut impl Read, topo: &Topology, pool: &mut BodyPool) -> io::Result<Progress> {
        loop {
            match &mut self.state {
                State::Preamble { got } => {
                    let at_boundary = *got == 0;
                    match Self::fill_fixed(r, &mut self.fixed, got, PREAMBLE_LEN)? {
                        Fill::NeedMore => return Ok(Progress::NeedMore),
                        Fill::Eof if at_boundary && *got == 0 => return Ok(Progress::CleanEof),
                        Fill::Eof => {
                            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed mid-preamble"))
                        }
                        Fill::Done => {}
                    }
                    let mut pre = [0u8; PREAMBLE_LEN];
                    pre.copy_from_slice(&self.fixed[..PREAMBLE_LEN]);
                    let preamble = wire::parse_preamble(&pre)?;
                    match preamble {
                        wire::Preamble::Ack { .. } => {
                            self.state = State::Preamble { got: 0 };
                            return Ok(Progress::Item(preamble, None));
                        }
                        wire::Preamble::Data { .. } => self.state = State::Header { preamble, got: 0 },
                    }
                }
                State::Header { preamble, got } => {
                    match Self::fill_fixed(r, &mut self.fixed, got, HEADER_LEN)? {
                        Fill::NeedMore => return Ok(Progress::NeedMore),
                        Fill::Eof => {
                            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed mid-frame"))
                        }
                        Fill::Done => {}
                    }
                    let hdr = wire::parse_header(&self.fixed, topo)?;
                    let preamble = *preamble;
                    self.body.clear();
                    self.state = State::Body { preamble, hdr, got: 0 };
                }
                State::Body { preamble, hdr, got } => {
                    let want = hdr.len as usize;
                    if self.body.len() < want {
                        self.body.resize(want, 0);
                    }
                    match Self::fill_fixed(r, &mut self.body, got, want)? {
                        Fill::NeedMore => return Ok(Progress::NeedMore),
                        Fill::Eof => {
                            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed mid-frame"))
                        }
                        Fill::Done => {}
                    }
                    let body = if want == 0 {
                        Body::empty()
                    } else {
                        let bytes = &self.body[..want];
                        pool.with_buf(|buf| buf.extend_from_slice(bytes))
                    };
                    let frame = wire::Frame { dst: hdr.dst, src: hdr.src, tag: hdr.tag, body };
                    let preamble = *preamble;
                    self.state = State::Preamble { got: 0 };
                    return Ok(Progress::Item(preamble, Some(frame)));
                }
            }
        }
    }
}

/// What the session layer decided about one received transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SessionStep {
    /// Fresh in-order data: deliver the frame.
    Deliver,
    /// Bare ack, or a replayed duplicate: consume, deliver nothing.
    Skip,
    /// Sequence gap — the stream is desynchronized; treat as a
    /// connection fault.
    Desync,
}

/// The session-layer bookkeeping every received transmission goes
/// through: record peer liveness and acks, deduplicate replays by
/// sequence, detect desync, advance the delivery cursor.
pub(crate) fn session_step(sess: &Session, recovery: bool, p: wire::Preamble) -> SessionStep {
    match p {
        wire::Preamble::Ack { ack } => {
            if recovery {
                sess.note_heard(ack);
            }
            SessionStep::Skip
        }
        wire::Preamble::Data { seq, ack } => {
            if recovery {
                sess.note_heard(ack);
                let cur = sess.recv_cursor.load(Ordering::Acquire);
                if seq <= cur {
                    // Replayed duplicate: body consumed off the stream,
                    // dropped before delivery.
                    return SessionStep::Skip;
                }
                if seq != cur + 1 {
                    // Should be impossible over TCP; treat as a
                    // connection fault.
                    return SessionStep::Desync;
                }
                sess.recv_cursor.store(seq, Ordering::Release);
            }
            SessionStep::Deliver
        }
    }
}

/// Demux one decoded frame into its destination endpoint's inbox.
pub(crate) fn deliver(topo: &Topology, local_txs: &[Option<Sender<Msg>>], f: wire::Frame) {
    if let Some(tx) = &local_txs[endpoint_index(topo, f.dst)] {
        let _ = tx.send(Msg { src: f.src, tag: f.tag, body: f.body });
    }
}

/// Encode one outgoing frame (header + body, no preamble — the preamble
/// is rewritten per transmission so replays carry fresh acks) in the
/// shareable form the replay ring stores. `None` only if encoding into a
/// `Vec` failed, which cannot happen in practice.
pub(crate) fn encode_frame(dst: Endpoint, src: Endpoint, tag: Tag, body: &[u8]) -> Option<Arc<Vec<u8>>> {
    let mut buf = Vec::with_capacity(HEADER_LEN + body.len());
    wire::write_frame(&mut buf, dst, src, tag, body).ok()?;
    Some(Arc::new(buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use armci_transport::{NodeId, ProcId};
    use std::io::Write;

    /// The blocking reference reader the incremental decoder is compared
    /// against: one session preamble plus the data frame it announced (absent
    /// for bare-ack transmissions). `Ok(None)` is clean EOF at a transmission
    /// boundary.
    fn read_transmission(
        r: &mut impl Read,
        topo: &Topology,
        pool: &mut BodyPool,
    ) -> io::Result<Option<(wire::Preamble, Option<wire::Frame>)>> {
        let Some(p) = wire::read_preamble(r)? else {
            return Ok(None);
        };
        match p {
            wire::Preamble::Ack { .. } => Ok(Some((p, None))),
            wire::Preamble::Data { .. } => match wire::read_frame(r, topo, pool)? {
                Some(f) => Ok(Some((p, Some(f)))),
                None => Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed after data preamble")),
            },
        }
    }

    /// Feeds an inner byte stream in `chunk`-sized slices, interposing a
    /// `WouldBlock` after every chunk — a worst-case nonblocking socket.
    struct Chunked<'a> {
        data: &'a [u8],
        pos: usize,
        chunk: usize,
        ready: bool,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if !self.ready {
                self.ready = true;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "dry"));
            }
            self.ready = false;
            let n = self.chunk.min(self.data.len() - self.pos).min(buf.len());
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn sample_stream() -> (Topology, Vec<u8>) {
        let topo = Topology::new(2, 1);
        let mut buf = Vec::new();
        wire::write_preamble(&mut buf, wire::Preamble::Data { seq: 1, ack: 0 }).unwrap();
        wire::write_frame(&mut buf, Endpoint::Proc(ProcId(0)), Endpoint::Proc(ProcId(1)), Tag(7), &[1, 2, 3]).unwrap();
        wire::write_preamble(&mut buf, wire::Preamble::Ack { ack: 1 }).unwrap();
        wire::write_preamble(&mut buf, wire::Preamble::Data { seq: 2, ack: 0 }).unwrap();
        let big: Vec<u8> = (0..200u8).collect();
        wire::write_frame(&mut buf, Endpoint::Server(NodeId(0)), Endpoint::Server(NodeId(1)), Tag(9), &big).unwrap();
        (topo, buf)
    }

    #[test]
    fn incremental_decode_matches_blocking_reader_byte_by_byte() {
        let (topo, buf) = sample_stream();
        for chunk in [1usize, 2, 7, 64] {
            let mut dec = FrameDecoder::new();
            let mut pool = BodyPool::new(4);
            let mut r = Chunked { data: &buf, pos: 0, chunk, ready: false };
            let mut items = Vec::new();
            loop {
                match dec.poll_step(&mut r, &topo, &mut pool).unwrap() {
                    Progress::Item(p, f) => items.push((p, f)),
                    Progress::NeedMore => {
                        if r.pos == buf.len() {
                            break; // source exhausted; Chunked never EOFs
                        }
                    }
                    Progress::CleanEof => unreachable!(),
                }
            }
            // Blocking reference decode of the same stream.
            let mut rr = &buf[..];
            let mut rpool = BodyPool::new(4);
            let mut expect = Vec::new();
            while let Some(item) = read_transmission(&mut rr, &topo, &mut rpool).unwrap() {
                expect.push(item);
            }
            assert_eq!(items.len(), expect.len(), "chunk {chunk}");
            for ((p1, f1), (p2, f2)) in items.iter().zip(&expect) {
                assert_eq!(p1, p2);
                match (f1, f2) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        assert_eq!((a.dst, a.src, a.tag), (b.dst, b.src, b.tag));
                        assert_eq!(&a.body[..], &b.body[..]);
                    }
                    _ => panic!("frame presence diverged"),
                }
            }
        }
    }

    #[test]
    fn dry_reader_skips_the_read_that_would_only_return_eagain() {
        /// Hands out `data` in one short read, then `WouldBlock`s,
        /// counting raw reads.
        struct Sock<'a> {
            data: &'a [u8],
            reads: usize,
        }
        impl Read for Sock<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.reads += 1;
                if self.data.is_empty() {
                    return Err(io::ErrorKind::WouldBlock.into());
                }
                let n = self.data.len().min(buf.len());
                buf[..n].copy_from_slice(&self.data[..n]);
                self.data = &self.data[n..];
                Ok(n)
            }
        }
        let (topo, buf) = sample_stream();
        let mut r = io::BufReader::new(DryReader { inner: Sock { data: &buf, reads: 0 }, dry: false });
        let mut dec = FrameDecoder::new();
        let mut pool = BodyPool::new(4);
        let mut items = 0;
        while let Progress::Item(..) = dec.poll_step(&mut r, &topo, &mut pool).unwrap() {
            items += 1;
        }
        assert_eq!(items, 3);
        assert_eq!(r.get_ref().inner.reads, 1, "the short read proved the socket dry: no EAGAIN probe");
        // Still dry until the next readable event re-arms it.
        assert!(matches!(dec.poll_step(&mut r, &topo, &mut pool).unwrap(), Progress::NeedMore));
        assert_eq!(r.get_ref().inner.reads, 1);
        r.get_mut().dry = false;
        assert!(matches!(dec.poll_step(&mut r, &topo, &mut pool).unwrap(), Progress::NeedMore));
        assert_eq!(r.get_ref().inner.reads, 2);
    }

    #[test]
    fn clean_eof_only_at_boundaries_truncation_everywhere_else() {
        let (topo, buf) = sample_stream();
        // Transmission boundaries within the sample stream.
        let b1 = PREAMBLE_LEN + HEADER_LEN + 3;
        let b2 = b1 + PREAMBLE_LEN;
        let boundaries = [0, b1, b2, buf.len()];
        for cut in 0..=buf.len() {
            let mut dec = FrameDecoder::new();
            let mut pool = BodyPool::new(4);
            let mut r = &buf[..cut];
            let res = loop {
                match dec.poll_step(&mut r, &topo, &mut pool) {
                    Ok(Progress::Item(..)) => continue,
                    Ok(Progress::NeedMore) => unreachable!("slice reader never WouldBlocks"),
                    Ok(Progress::CleanEof) => break Ok(()),
                    Err(e) => break Err(e),
                }
            };
            if boundaries.contains(&cut) {
                assert!(res.is_ok(), "cut {cut} is a boundary: clean EOF expected");
            } else {
                assert_eq!(res.unwrap_err().kind(), io::ErrorKind::UnexpectedEof, "cut {cut}");
            }
        }
    }

    #[test]
    fn reset_discards_partial_state() {
        let (topo, buf) = sample_stream();
        let mut dec = FrameDecoder::new();
        let mut pool = BodyPool::new(4);
        // Feed half a transmission, then reset (reconnect) and decode a
        // whole fresh stream: no leakage from the partial frame.
        let mut r = &buf[..PREAMBLE_LEN + 5];
        loop {
            match dec.poll_step(&mut r, &topo, &mut pool) {
                Ok(Progress::Item(..)) => {}
                Ok(Progress::CleanEof) | Err(_) => break,
                Ok(Progress::NeedMore) => break,
            }
        }
        dec.reset();
        let mut r2 = &buf[..];
        let mut n = 0;
        loop {
            match dec.poll_step(&mut r2, &topo, &mut pool).unwrap() {
                Progress::Item(..) => n += 1,
                Progress::CleanEof => break,
                Progress::NeedMore => unreachable!(),
            }
        }
        assert_eq!(n, 3);
    }

    #[test]
    fn session_step_dedups_and_detects_desync() {
        let sess = Session::new(None);
        // In-order data advances the cursor and delivers.
        assert_eq!(session_step(&sess, true, wire::Preamble::Data { seq: 1, ack: 0 }), SessionStep::Deliver);
        assert_eq!(session_step(&sess, true, wire::Preamble::Data { seq: 2, ack: 0 }), SessionStep::Deliver);
        // A replayed duplicate is skipped.
        assert_eq!(session_step(&sess, true, wire::Preamble::Data { seq: 2, ack: 0 }), SessionStep::Skip);
        // A gap is a desync.
        assert_eq!(session_step(&sess, true, wire::Preamble::Data { seq: 5, ack: 0 }), SessionStep::Desync);
        // Bare acks are skipped but note liveness/acks.
        assert_eq!(session_step(&sess, true, wire::Preamble::Ack { ack: 0 }), SessionStep::Skip);
        // Without recovery everything data is delivered verbatim.
        let plain = Session::new(None);
        assert_eq!(session_step(&plain, false, wire::Preamble::Data { seq: 9, ack: 0 }), SessionStep::Deliver);
    }

    #[test]
    fn encode_frame_roundtrips_through_the_decoder() {
        let topo = Topology::new(2, 1);
        let enc = encode_frame(Endpoint::Proc(ProcId(1)), Endpoint::Proc(ProcId(0)), Tag(3), &[9; 80]).unwrap();
        let mut stream = Vec::new();
        wire::write_preamble(&mut stream, wire::Preamble::Data { seq: 1, ack: 0 }).unwrap();
        stream.write_all(&enc).unwrap();
        let mut pool = BodyPool::new(2);
        let item = read_transmission(&mut &stream[..], &topo, &mut pool).unwrap().unwrap();
        let f = item.1.unwrap();
        assert_eq!(f.dst, Endpoint::Proc(ProcId(1)));
        assert_eq!(f.tag, Tag(3));
        assert_eq!(&f.body[..], &[9; 80]);
    }
}
