//! Protocol totality properties: every frame round-trips bit-exactly, and
//! every corrupted input — truncated, garbage-prefixed, or pure noise —
//! maps to a typed [`DecodeError`], never a panic; a byte stream comes back
//! out of [`FrameBuf`] as runs of whole frames however it was chopped, and
//! a worker handed arbitrary bytes as a message answers each whole frame at
//! most once.

use std::sync::Arc;
use std::time::Duration;

use proptest::collection::vec;
use proptest::prelude::*;
use tm_server::protocol::{ErrorCode, FrameBuf, Request, RequestFrame, Response, ResponseFrame};
use tm_server::server::{start, ServerConfig};

/// Plain write requests — the only ops allowed inside an idempotency
/// envelope.
fn write_strategy() -> impl Strategy<Value = Request> {
    prop_oneof![
        (any::<u64>(), any::<u64>()).prop_map(|(key, value)| Request::Put { key, value }),
        (any::<u64>(), any::<u64>()).prop_map(|(key, delta)| Request::Add { key, delta }),
        (vec(any::<u64>(), 0..24), any::<u64>())
            .prop_map(|(keys, delta)| Request::MultiAdd { keys, delta }),
    ]
}

fn request_strategy() -> impl Strategy<Value = Request> {
    prop_oneof![
        Just(Request::Ping),
        any::<u64>().prop_map(|key| Request::Get { key }),
        write_strategy(),
        vec(any::<u64>(), 0..24).prop_map(|keys| Request::MultiGet { keys }),
        Just(Request::Close),
        (any::<u64>(), write_strategy()).prop_map(|(token, op)| Request::Idempotent {
            token,
            op: Box::new(op)
        }),
    ]
}

fn response_strategy() -> impl Strategy<Value = Response> {
    prop_oneof![
        Just(Response::Pong),
        any::<u64>().prop_map(Response::Value),
        vec(any::<u64>(), 0..24).prop_map(Response::Values),
        Just(Response::Written),
        any::<u64>().prop_map(Response::Added),
        (0u32..1 << 20).prop_map(|applied| Response::MultiAdded { applied }),
        Just(Response::Busy),
        Just(Response::Closed),
        Just(Response::Error(ErrorCode::Malformed)),
        Just(Response::Error(ErrorCode::Unsupported)),
        Just(Response::Error(ErrorCode::ShuttingDown)),
        Just(Response::Error(ErrorCode::Expired)),
        Just(Response::Error(ErrorCode::ShardRestarted)),
    ]
}

/// The frames `bytes` holds if it is exactly a run of one or more whole
/// frames (the length prefixes, walked independently of the crate's own
/// walk), `None` otherwise.
fn whole_frames(mut bytes: &[u8]) -> Option<usize> {
    let mut frames = 0;
    while let Some(prefix) = bytes.first_chunk::<4>() {
        let end = 4 + u32::from_le_bytes(*prefix) as usize;
        bytes = bytes.get(end..)?;
        frames += 1;
    }
    (frames > 0 && bytes.is_empty()).then_some(frames)
}

/// A piece of an inbound message: a well-formed frame, or noise.
fn piece_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        3 => (0u64..1 << 32, request_strategy())
            .prop_map(|(id, request)| RequestFrame { id, request }.encode()),
        1 => vec(any::<u8>(), 0..24),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every request variant round-trips bit-exactly with any id.
    #[test]
    fn request_round_trip(id in any::<u64>(), request in request_strategy()) {
        let frame = RequestFrame { id, request };
        let decoded = RequestFrame::decode(&frame.encode()).unwrap();
        prop_assert_eq!(decoded, frame);
    }

    /// Every response variant round-trips bit-exactly with any id.
    #[test]
    fn response_round_trip(id in any::<u64>(), response in response_strategy()) {
        let frame = ResponseFrame { id, response };
        let decoded = ResponseFrame::decode(&frame.encode()).unwrap();
        prop_assert_eq!(decoded, frame);
    }

    /// Every strict prefix of a valid frame decodes to a typed error —
    /// never a panic, never a bogus success.
    #[test]
    fn truncation_yields_typed_error(
        id in any::<u64>(),
        request in request_strategy(),
        cut_seed in any::<u64>(),
    ) {
        let bytes = RequestFrame { id, request }.encode();
        let cut = (cut_seed % bytes.len() as u64) as usize;
        prop_assert!(RequestFrame::decode(&bytes[..cut]).is_err(), "cut {cut}");
    }

    /// Prepending garbage shifts the framing; decoding must stay total
    /// (no panic) whatever it returns, and re-encoding any accidental
    /// success must reproduce the decoded value (the codec stays
    /// self-consistent even on adversarial input).
    #[test]
    fn garbage_prefix_never_panics(
        prefix in vec(any::<u8>(), 1..16),
        id in any::<u64>(),
        request in request_strategy(),
    ) {
        let mut bytes = prefix;
        bytes.extend(RequestFrame { id, request }.encode());
        if let Ok(frame) = RequestFrame::decode(&bytes) {
            prop_assert_eq!(RequestFrame::decode(&frame.encode()).unwrap(), frame);
        }
    }

    /// Pure noise decodes to a typed error or an internally consistent
    /// frame — both directions, without panicking.
    #[test]
    fn random_bytes_never_panic(bytes in vec(any::<u8>(), 0..64)) {
        if let Ok(frame) = RequestFrame::decode(&bytes) {
            prop_assert_eq!(&frame.encode(), &bytes);
        }
        if let Ok(frame) = ResponseFrame::decode(&bytes) {
            prop_assert_eq!(&frame.encode(), &bytes);
        }
    }

    /// A stream of frames chopped at arbitrary byte boundaries reassembles
    /// into exactly the original frames, in order, whichever way each piece
    /// is fed in, and `pending_bytes` counts exactly the bytes fed and not
    /// yet popped.
    #[test]
    fn stream_reassembly_is_exact(
        frames in vec((any::<u64>(), request_strategy()), 1..8),
        chop_seed in any::<u64>(),
    ) {
        let encoded: Vec<Vec<u8>> = frames
            .iter()
            .map(|(id, request)| RequestFrame { id: *id, request: request.clone() }.encode())
            .collect();
        let stream: Vec<u8> = encoded.iter().flatten().copied().collect();

        // Deterministic pseudo-random chop points from the seed.
        let mut fb = FrameBuf::new();
        let mut out = Vec::new();
        let mut pos = 0usize;
        let mut popped = 0usize;
        let mut state = chop_seed | 1;
        while pos < stream.len() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let step = 1 + (state >> 33) as usize % 11;
            let end = (pos + step).min(stream.len());
            if state & (1 << 20) == 0 {
                fb.extend(&stream[pos..end]);
                pos = end;
            } else {
                // A reader that has only this piece to give: a short read.
                let mut piece = &stream[pos..end];
                let n = fb.read_from(&mut piece).unwrap();
                prop_assert!(n > 0 && piece.len() == end - pos - n);
                pos += n;
            }
            prop_assert_eq!(fb.pending_bytes(), pos - popped);
            while let Some(frame) = fb.next_frame().unwrap() {
                popped += frame.len();
                prop_assert_eq!(fb.pending_bytes(), pos - popped);
                out.push(frame);
            }
        }
        prop_assert_eq!(out, encoded);
        prop_assert_eq!(fb.pending_bytes(), 0);
    }

    /// However a stream of frames is chopped into reads, popping runs of
    /// whole frames after each read gives the stream back: the runs
    /// concatenate to the original bytes and each ends on a frame boundary.
    #[test]
    fn whole_frame_runs_concatenate_to_the_stream(
        frames in vec((any::<u64>(), request_strategy()), 1..12),
        chop_seed in any::<u64>(),
    ) {
        let stream: Vec<u8> = frames
            .iter()
            .flat_map(|(id, request)| RequestFrame { id: *id, request: request.clone() }.encode())
            .collect();
        let mut fb = FrameBuf::new();
        let mut out = Vec::new();
        let mut pos = 0usize;
        let mut state = chop_seed | 1;
        while pos < stream.len() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let step = 1 + (state >> 33) as usize % 97;
            let end = (pos + step).min(stream.len());
            fb.extend(&stream[pos..end]);
            pos = end;
            let run = fb.pop_frames().unwrap();
            prop_assert!(run.is_empty() || whole_frames(run).is_some(), "a cut frame in {run:?}");
            out.extend_from_slice(run);
            prop_assert_eq!(fb.pending_bytes(), pos - out.len());
            prop_assert!(fb.pop_frames().unwrap().is_empty(), "one pop takes every whole frame");
        }
        prop_assert_eq!(out, stream);
    }

    /// Whatever bytes reach a worker as one message, it does not panic, and
    /// it answers at most once per whole frame the message holds — once at
    /// most for a message that is not a run of whole frames.
    #[test]
    fn arbitrary_message_is_answered_at_most_once_per_whole_frame(
        pieces in vec(piece_strategy(), 0..8),
    ) {
        const SENTINEL: u64 = u64::MAX - 1;
        let engine = tm_stm::StmBuilder::new().heap_words(64).table_entries(256).build_tagless();
        let mut config = ServerConfig::new(64);
        config.shards = 1;
        let server = start(Arc::new(engine), config);
        let mut conn = server.connect();

        let message: Vec<u8> = pieces.concat();
        let frames = whole_frames(&message).unwrap_or(1);
        conn.send_raw(message);
        conn.send_raw(RequestFrame { id: SENTINEL, request: Request::Ping }.encode());
        // The sentinel's answer, or the hang-up of a session the message
        // closed, ends the wait; neither is a timeout.
        let mut answers = 0;
        while let Some(frame) = conn.recv_timeout(Duration::from_secs(5)) {
            if frame.id == SENTINEL {
                break;
            }
            answers += 1;
        }
        prop_assert!(answers <= frames, "{answers} answers to {frames} frames");
        prop_assert_eq!(server.shutdown().shard_restarts, 0);
    }
}
