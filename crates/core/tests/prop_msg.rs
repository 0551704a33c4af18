//! Property-based tests of the ARMCI wire codec: arbitrary requests must
//! round-trip bit-exactly (a malformed frame would corrupt remote memory,
//! the worst possible failure mode for a one-sided library), no prefix of
//! a frame may decode, and the bytes of one frame per opcode and per rmw
//! code are pinned.

use armci_core::msg::{DecodeError, Req, ReqView, Request, RmwOp};
use armci_core::Strided2D;
use armci_transport::{ProcId, SegId};
use proptest::prelude::*;

fn arb_rmw() -> impl Strategy<Value = RmwOp> {
    prop_oneof![
        any::<u64>().prop_map(RmwOp::FetchAddU64),
        any::<i64>().prop_map(RmwOp::FetchAddI64),
        any::<u64>().prop_map(RmwOp::SwapU64),
        (any::<u64>(), any::<u64>()).prop_map(|(expect, new)| RmwOp::CasU64 { expect, new }),
    ]
}

fn arb_desc() -> impl Strategy<Value = Strided2D> {
    (0usize..1 << 20, 0usize..64, 0usize..256, 0usize..512).prop_map(|(offset, rows, row_bytes, stride)| Strided2D {
        offset,
        rows,
        row_bytes,
        stride,
    })
}

fn arb_req() -> impl Strategy<Value = Req> {
    let proc = (0u32..1024).prop_map(ProcId);
    let seg = (0u32..16).prop_map(SegId);
    let data = proptest::collection::vec(any::<u8>(), 0..200);
    prop_oneof![
        (proc.clone(), seg.clone(), any::<u32>(), data.clone()).prop_map(|(dst, seg, offset, data)| Req::Put {
            dst,
            seg,
            offset: offset as u64,
            data
        }),
        (proc.clone(), seg.clone(), arb_desc(), data.clone())
            .prop_map(|(dst, seg, desc, data)| { Req::PutStrided { dst, seg, desc, data } }),
        (proc.clone(), seg.clone(), any::<u32>(), any::<u64>()).prop_map(|(dst, seg, offset, val)| Req::PutU64 {
            dst,
            seg,
            offset: offset as u64,
            val
        }),
        (proc.clone(), seg.clone(), any::<u32>(), any::<f64>(), proptest::collection::vec(any::<f64>(), 0..20))
            .prop_map(|(dst, seg, offset, scale, vals)| Req::AccF64 { dst, seg, offset: offset as u64, scale, vals }),
        (proc.clone(), seg.clone(), any::<u32>(), any::<u32>()).prop_map(|(dst, seg, offset, len)| Req::Get {
            dst,
            seg,
            offset: offset as u64,
            len
        }),
        (proc.clone(), seg.clone(), arb_desc()).prop_map(|(dst, seg, desc)| Req::GetStrided { dst, seg, desc }),
        (proc.clone(), seg.clone(), any::<u32>(), arb_rmw()).prop_map(|(dst, seg, offset, op)| Req::Rmw {
            dst,
            seg,
            offset: offset as u64,
            op
        }),
        (proc.clone(), seg.clone(), proptest::collection::vec((any::<u32>().prop_map(|o| o as u64), 0u32..64), 0..16))
            .prop_map(|(dst, seg, runs)| {
                let total: usize = runs.iter().map(|&(_, l)| l as usize).sum();
                Req::PutVector { dst, seg, runs, data: vec![0xCD; total] }
            }),
        (proc.clone(), seg.clone(), proptest::collection::vec((any::<u32>().prop_map(|o| o as u64), 0u32..64), 0..16))
            .prop_map(|(dst, seg, runs)| Req::GetVector { dst, seg, runs }),
        (
            proc.clone(),
            seg.clone(),
            0u32..16,
            proptest::collection::vec((any::<u32>().prop_map(|o| o as u64), 0u32..64), 0..16)
        )
            .prop_map(|(dst, seg, slot, runs)| {
                let total: usize = runs.iter().map(|&(_, l)| l as usize).sum();
                Req::PutNotify { dst, seg, slot, runs, data: vec![0xAB; total] }
            }),
        Just(Req::FenceReq),
        (proc.clone(), 0u32..8).prop_map(|(owner, idx)| Req::LockReq { owner, idx }),
        (proc, 0u32..8).prop_map(|(owner, idx)| Req::UnlockReq { owner, idx }),
        Just(Req::Shutdown),
    ]
}

/// The fields a frame decoded to, as an owned request. Tests compare its
/// encoding, not the fields: bytes tell NaN payloads and -0.0 apart.
fn fields(v: ReqView<'_>) -> Req {
    match v {
        Request::Put { dst, seg, offset, data } => Request::Put { dst, seg, offset, data: data.to_vec() },
        Request::PutStrided { dst, seg, desc, data } => Request::PutStrided { dst, seg, desc, data: data.to_vec() },
        Request::PutU64 { dst, seg, offset, val } => Request::PutU64 { dst, seg, offset, val },
        Request::AccF64 { dst, seg, offset, scale, vals } => {
            Request::AccF64 { dst, seg, offset, scale, vals: vals.iter().collect() }
        }
        Request::Get { dst, seg, offset, len } => Request::Get { dst, seg, offset, len },
        Request::GetStrided { dst, seg, desc } => Request::GetStrided { dst, seg, desc },
        Request::Rmw { dst, seg, offset, op } => Request::Rmw { dst, seg, offset, op },
        Request::PutVector { dst, seg, runs, data } => {
            Request::PutVector { dst, seg, runs: runs.iter().collect(), data: data.to_vec() }
        }
        Request::GetVector { dst, seg, runs } => Request::GetVector { dst, seg, runs: runs.iter().collect() },
        Request::PutNotify { dst, seg, slot, runs, data } => {
            Request::PutNotify { dst, seg, slot, runs: runs.iter().collect(), data: data.to_vec() }
        }
        Request::FenceReq => Request::FenceReq,
        Request::LockReq { owner, idx } => Request::LockReq { owner, idx },
        Request::UnlockReq { owner, idx } => Request::UnlockReq { owner, idx },
        Request::Shutdown => Request::Shutdown,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn decode_recovers_the_encoded_fields(req in arb_req()) {
        let frame = req.encode();
        prop_assert_eq!(ReqView::decode(&frame).map(|v| fields(v).encode()), Ok(frame));
    }

    #[test]
    fn every_strict_prefix_of_a_frame_is_an_error(req in arb_req()) {
        // Frames are self-delimiting: a body cut anywhere short is
        // truncated, never a different valid request.
        let frame = req.encode();
        for cut in 0..frame.len() {
            prop_assert!(ReqView::decode(&frame[..cut]).is_err(), "prefix of {} bytes of {:?} decoded", cut, req);
        }
    }

    #[test]
    fn encode_into_reused_buffer_matches_fresh_encode(req in arb_req()) {
        // Pooled buffers arrive with stale capacity; framing into one must
        // produce exactly the bytes of a fresh `encode()`.
        let fresh = req.encode();
        let mut pooled = vec![0xAA; 64];
        pooled.clear();
        req.encode_into(&mut pooled);
        prop_assert_eq!(pooled, fresh);
    }
}

fn hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

/// One frame per opcode and one per rmw code, pinned byte for byte, so a
/// codec change that alters the wire format fails here rather than
/// between two builds that disagree.
#[test]
fn golden_frames_are_byte_identical() {
    let mut golden: Vec<(Req, &str)> = vec![
        (
            Req::Put { dst: ProcId(1), seg: SegId(2), offset: 0x0102_0304_0506_0708, data: vec![0xAA, 0xBB, 0xCC] },
            "010100000002000000080706050403020103000000aabbcc",
        ),
        (
            Req::PutStrided {
                dst: ProcId(3),
                seg: SegId(1),
                desc: Strided2D { offset: 8, rows: 2, row_bytes: 4, stride: 16 },
                data: vec![1, 2, 3, 4, 5, 6, 7, 8],
            },
            "0203000000010000000800000000000000020000000000000004000000000000001000000000000000080000000102030405060708",
        ),
        (
            Req::PutU64 { dst: ProcId(1), seg: SegId(0), offset: 24, val: 0xDEAD_BEEF_0123_4567 },
            "030100000000000000180000000000000067452301efbeadde",
        ),
        (
            Req::AccF64 { dst: ProcId(0), seg: SegId(1), offset: 16, scale: -1.5, vals: vec![1.0, 2.5] },
            "0400000000010000001000000000000000000000000000f8bf02000000000000000000f03f0000000000000440",
        ),
        (
            // IEEE-754 bits travel untouched: NaN, -0.0, a subnormal, -inf.
            Req::AccF64 {
                dst: ProcId(2),
                seg: SegId(1),
                offset: 8,
                scale: f64::NAN,
                vals: vec![-0.0, f64::from_bits(1), f64::NEG_INFINITY],
            },
            "0402000000010000000800000000000000000000000000f87f0300000000000000000000800100000000000000000000000000f0ff",
        ),
        (Req::Get { dst: ProcId(4), seg: SegId(0), offset: 8, len: 256 }, "050400000000000000080000000000000000010000"),
        (
            Req::GetStrided {
                dst: ProcId(4),
                seg: SegId(2),
                desc: Strided2D { offset: 0, rows: 3, row_bytes: 8, stride: 24 },
            },
            "0604000000020000000000000000000000030000000000000008000000000000001800000000000000",
        ),
        (
            Req::PutVector { dst: ProcId(2), seg: SegId(1), runs: vec![(0, 2), (100, 1)], data: vec![9, 8, 7] },
            "0d02000000010000000200000000000000000000000200000064000000000000000100000003000000090807",
        ),
        (
            Req::GetVector { dst: ProcId(2), seg: SegId(1), runs: vec![(8, 16)] },
            "0e020000000100000001000000080000000000000010000000",
        ),
        (
            Req::PutNotify { dst: ProcId(3), seg: SegId(2), slot: 5, runs: vec![(16, 2)], data: vec![6, 5] },
            "0f03000000020000000500000001000000100000000000000002000000020000000605",
        ),
        (Req::FenceReq, "08"),
        (Req::LockReq { owner: ProcId(5), idx: 2 }, "090500000002000000"),
        (Req::UnlockReq { owner: ProcId(5), idx: 3 }, "0a0500000003000000"),
        (Req::Shutdown, "0b"),
    ];
    for (op, frame) in [
        (RmwOp::FetchAddU64(7), "0701000000000000001000000000000000010700000000000000"),
        (RmwOp::FetchAddI64(-7), "070100000000000000100000000000000002f9ffffffffffffff"),
        (RmwOp::SwapU64(42), "0701000000000000001000000000000000032a00000000000000"),
        (RmwOp::CasU64 { expect: 1, new: 2 }, "07010000000000000010000000000000000401000000000000000200000000000000"),
    ] {
        golden.push((Req::Rmw { dst: ProcId(1), seg: SegId(0), offset: 16, op }, frame));
    }
    for (req, frame) in golden {
        let bytes = req.encode();
        assert_eq!(hex(&bytes), frame, "{req:?}");
        assert_eq!(ReqView::decode(&bytes).map(|v| fields(v).encode()), Ok(bytes), "{req:?}");
    }
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digit pair")).collect()
}

/// Opcode 12 and rmw codes 5 and 6 carried the paired-long put, swap and
/// compare&swap. The codes stay reserved, so the frames those operations
/// once produced are malformed input now.
#[test]
fn paired_long_frames_are_malformed() {
    for (frame, code) in [
        ("0c020000000300000020000000000000000700000000000000ffffffffffffffff", 12),
        ("07010000000000000010000000000000000503000000000000000400000000000000", 5),
        ("0701000000000000001000000000000000060100000000000000020000000000000003000000000000000400000000000000", 6),
    ] {
        assert_eq!(ReqView::decode(&unhex(frame)), Err(DecodeError::BadTag(code)), "{frame}");
    }
}
