//! The frame read/decode/ingest path of the event loop.
//!
//! The loop reads incrementally from nonblocking sockets
//! ([`FrameDecoder`]), parking mid-field on `WouldBlock` and resuming on
//! the next readable event. Decoding goes through the same
//! [`wire::parse_header`] primitive as the blocking reader; the loop then
//! hands every decoded frame to its endpoint.

use std::io::{self, Read};

use armci_transport::{Body, BodyPool, Topology};

use crate::wire::{self, FrameHeader, HEADER_LEN};

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
    /// A complete frame.
    Item(wire::Frame),
    /// The socket ran dry (`WouldBlock`, or a short read through a
    /// [`DryReader`]); call again on the next readable event.
    NeedMore,
    /// Clean EOF exactly at a frame boundary.
    CleanEof,
}

/// Where the decoder stands inside the current frame.
enum State {
    Header { got: usize },
    Body { hdr: FrameHeader, got: usize },
}

/// Outcome of topping up one fixed-size field.
enum Fill {
    Done,
    NeedMore,
    Eof,
}

/// An incremental, restartable decoder of the wire format, for
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
    /// Scratch for the fixed-size header.
    fixed: [u8; HEADER_LEN],
    /// Reused body accumulation buffer (capacity persists across frames).
    body: Vec<u8>,
}

impl FrameDecoder {
    pub fn new() -> FrameDecoder {
        FrameDecoder { state: State::Header { got: 0 }, fixed: [0; HEADER_LEN], body: Vec::new() }
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
                State::Header { got } => {
                    let at_boundary = *got == 0;
                    match Self::fill_fixed(r, &mut self.fixed, got, HEADER_LEN)? {
                        Fill::NeedMore => return Ok(Progress::NeedMore),
                        Fill::Eof if at_boundary && *got == 0 => return Ok(Progress::CleanEof),
                        Fill::Eof => {
                            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed mid-frame"))
                        }
                        Fill::Done => {}
                    }
                    let hdr = wire::parse_header(&self.fixed, topo)?;
                    self.body.clear();
                    self.state = State::Body { hdr, got: 0 };
                }
                State::Body { hdr, got } => {
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
                    self.state = State::Header { got: 0 };
                    return Ok(Progress::Item(frame));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use armci_transport::{Endpoint, NodeId, ProcId, Tag};

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
        wire::write_frame(&mut buf, Endpoint::Proc(ProcId(0)), Endpoint::Proc(ProcId(1)), Tag(7), &[1, 2, 3]).unwrap();
        wire::write_frame(&mut buf, Endpoint::Proc(ProcId(1)), Endpoint::Server(NodeId(0)), Tag(8), &[]).unwrap();
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
                    Progress::Item(f) => items.push(f),
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
            while let Some(f) = wire::read_frame(&mut rr, &topo, &mut rpool).unwrap() {
                expect.push(f);
            }
            assert_eq!(items.len(), expect.len(), "chunk {chunk}");
            for (a, b) in items.iter().zip(&expect) {
                assert_eq!((a.dst, a.src, a.tag), (b.dst, b.src, b.tag));
                assert_eq!(&a.body[..], &b.body[..]);
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
        // Frame boundaries within the sample stream.
        let b1 = HEADER_LEN + 3;
        let b2 = b1 + HEADER_LEN;
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
}
