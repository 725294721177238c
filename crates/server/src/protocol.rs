//! The wire protocol: versioned, length-prefixed binary frames.
//!
//! Every frame — request or response — has the same envelope:
//!
//! ```text
//! [len: u32 LE] [version: u8] [id: u64 LE] [tag: u8] [payload ...]
//! ```
//!
//! `len` counts everything after itself (version through payload), so a
//! stream reader needs only four bytes to know how much to buffer. `id` is
//! a client-chosen correlation number: sessions pipeline requests, the
//! server answers in order, and the id lets a client match responses to
//! requests without assuming anything about interleaving with *other*
//! sessions. The encoding is hand-rolled (no serde): every variant
//! round-trips bit-exactly, and every malformed input maps to a typed
//! [`DecodeError`] — never a panic — which the protocol proptests enforce.
//!
//! Versioning: [`PROTOCOL_VERSION`] is checked on decode and rejected with
//! [`DecodeError::BadVersion`], so a future v2 server can dispatch per
//! frame rather than per connection.

/// Current protocol version, first byte after the length prefix.
pub const PROTOCOL_VERSION: u8 = 1;

/// Hard upper bound on `len` (1 MiB). Anything larger is rejected before
/// buffering, so a hostile or corrupt length prefix cannot make the server
/// allocate unboundedly.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Hard upper bound on the key count of `MultiGet`/`MultiAdd`/`Values`.
/// Checked *before* the `Vec` allocation, so a corrupt count field cannot
/// request gigabytes.
pub const MAX_KEYS_PER_REQUEST: usize = 4096;

/// Envelope bytes before the payload: length prefix, version, id, tag.
const HEADER_BYTES: usize = 4 + 1 + 8 + 1;

/// A client-to-server operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`] immediately.
    Ping,
    /// Read one key on the wait-free read path.
    Get {
        /// Key to read.
        key: u64,
    },
    /// Overwrite one key.
    Put {
        /// Key to write.
        key: u64,
        /// Value stored verbatim.
        value: u64,
    },
    /// Read-modify-write add (wrapping); answers with the new value.
    Add {
        /// Key to bump.
        key: u64,
        /// Amount added.
        delta: u64,
    },
    /// Read several keys in **one consistent snapshot** (one read-only
    /// transaction, so the values are mutually consistent).
    MultiGet {
        /// Keys to read, in answer order.
        keys: Vec<u64>,
    },
    /// Add `delta` to every key in **one transaction** (all-or-nothing).
    MultiAdd {
        /// Keys to bump.
        keys: Vec<u64>,
        /// Amount added to each.
        delta: u64,
    },
    /// Overwrite several keys in **one transaction** (all-or-nothing). On
    /// a sharded engine the pairs may land on different shards; the
    /// engine's ordered cross-shard commit keeps the writes atomic, so a
    /// concurrent [`Request::MultiGet`] sees either all of them or none.
    MultiPut {
        /// `(key, value)` pairs, written in order (a repeated key keeps
        /// its last value).
        pairs: Vec<(u64, u64)>,
    },
    /// Graceful goodbye: the server completes the session's earlier writes,
    /// answers [`Response::Closed`], and forgets the session.
    Close,
    /// A write tagged with a per-session idempotency token so it can be
    /// retried safely: the server remembers the token in a bounded
    /// [dedup window](crate::session::DedupWindow) and a resend of an
    /// already-applied token replays the original answer instead of
    /// applying the write again. Only write operations may be wrapped —
    /// decoding rejects anything else with [`DecodeError::BadInner`].
    Idempotent {
        /// Per-session token; clients issue them monotonically so the
        /// server can bound the window with an eviction floor.
        token: u64,
        /// The wrapped write (`Put`/`Add`/`MultiAdd`).
        op: Box<Request>,
    },
}

/// A server-to-client answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Get`].
    Value(
        /// The word read.
        u64,
    ),
    /// Answer to [`Request::MultiGet`], in request key order.
    Values(
        /// The words read, one consistent snapshot.
        Vec<u64>,
    ),
    /// Answer to [`Request::Put`].
    Written,
    /// Answer to [`Request::Add`]: the post-add value.
    Added(
        /// The new value.
        u64,
    ),
    /// Answer to [`Request::MultiAdd`].
    MultiAdded {
        /// Number of keys bumped (the request's key count).
        applied: u32,
    },
    /// Answer to [`Request::MultiPut`].
    MultiWritten {
        /// Number of pairs written (the request's pair count).
        applied: u32,
    },
    /// Load shed: admission control refused the write. The operation was
    /// **not** applied; the client may retry later.
    Busy,
    /// Answer to [`Request::Close`].
    Closed,
    /// The request could not be served; see the code.
    Error(
        /// Why.
        ErrorCode,
    ),
}

/// Why a request was answered with [`Response::Error`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame decoded as no known request.
    Malformed,
    /// The operation is recognized but not available.
    Unsupported,
    /// The server is draining; no new work is accepted.
    ShuttingDown,
    /// The idempotency token fell below the session's dedup-window floor
    /// before the request arrived. The write was **not** applied by this
    /// request, but the client can no longer distinguish "never applied"
    /// from "applied long ago" — it must treat the operation's outcome as
    /// unknown rather than retry.
    Expired,
    /// A worker thread panicked while this write was pending; the write
    /// **vanished without applying** (its group never committed). Safe to
    /// retry — with an idempotency token the retry applies exactly once.
    ShardRestarted,
}

/// Typed decode failure. Total: any byte string maps to a frame or to one
/// of these — decoding never panics and never allocates proportionally to
/// untrusted length fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ends before the declared frame does.
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    FrameTooLarge,
    /// The version byte is not [`PROTOCOL_VERSION`].
    BadVersion(
        /// The version seen.
        u8,
    ),
    /// The tag byte names no variant (in this direction).
    BadTag(
        /// The tag seen.
        u8,
    ),
    /// A key count exceeds [`MAX_KEYS_PER_REQUEST`].
    CountTooLarge,
    /// The payload continues past the variant's last field.
    TrailingBytes,
    /// The operation wrapped by an idempotent frame is not a plain write
    /// (reads need no idempotency; nesting is meaningless).
    BadInner(
        /// The inner tag seen.
        u8,
    ),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "frame truncated"),
            DecodeError::FrameTooLarge => write!(f, "frame exceeds {MAX_FRAME_BYTES} bytes"),
            DecodeError::BadVersion(v) => {
                write!(f, "protocol version {v} (want {PROTOCOL_VERSION})")
            }
            DecodeError::BadTag(t) => write!(f, "unknown frame tag {t}"),
            DecodeError::CountTooLarge => write!(f, "key count exceeds {MAX_KEYS_PER_REQUEST}"),
            DecodeError::TrailingBytes => write!(f, "bytes after last field"),
            DecodeError::BadInner(t) => {
                write!(f, "idempotent frame wraps non-write tag {t}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// A request with its correlation id — the unit a client sends.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestFrame {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The operation.
    pub request: Request,
}

/// A response with the correlation id of the request it answers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResponseFrame {
    /// Correlation id copied from the request (0 when the request's id was
    /// undecodable).
    pub id: u64,
    /// The answer.
    pub response: Response,
}

// ---- primitive writers/readers ------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Cursor over a payload; every read is bounds-checked into
/// [`DecodeError::Truncated`].
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self.buf.get(self.pos).ok_or(DecodeError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        let end = self.pos.checked_add(4).ok_or(DecodeError::Truncated)?;
        let bytes = self.buf.get(self.pos..end).ok_or(DecodeError::Truncated)?;
        self.pos = end;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4-byte slice")))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        let end = self.pos.checked_add(8).ok_or(DecodeError::Truncated)?;
        let bytes = self.buf.get(self.pos..end).ok_or(DecodeError::Truncated)?;
        self.pos = end;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8-byte slice")))
    }

    /// A `u32` count followed by that many `u64`s, with the count vetted
    /// against [`MAX_KEYS_PER_REQUEST`] *and* the remaining payload before
    /// allocating.
    fn u64_list(&mut self) -> Result<Vec<u64>, DecodeError> {
        let count = self.u32()? as usize;
        if count > MAX_KEYS_PER_REQUEST {
            return Err(DecodeError::CountTooLarge);
        }
        if self.buf.len().saturating_sub(self.pos) < count * 8 {
            return Err(DecodeError::Truncated);
        }
        (0..count).map(|_| self.u64()).collect()
    }

    /// A `u32` count followed by that many `(u64, u64)` pairs, vetted the
    /// same way as [`Reader::u64_list`].
    fn pair_list(&mut self) -> Result<Vec<(u64, u64)>, DecodeError> {
        let count = self.u32()? as usize;
        if count > MAX_KEYS_PER_REQUEST {
            return Err(DecodeError::CountTooLarge);
        }
        if self.buf.len().saturating_sub(self.pos) < count * 16 {
            return Err(DecodeError::Truncated);
        }
        (0..count).map(|_| Ok((self.u64()?, self.u64()?))).collect()
    }

    fn finish(&self) -> Result<(), DecodeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes)
        }
    }
}

/// Encode the shared envelope into a fresh buffer.
fn encode_frame(id: u64, tag: u8, payload: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + 16);
    encode_frame_into(&mut out, id, tag, payload);
    out
}

/// Append one frame (shared envelope, then `payload`) to `out`, with the
/// length prefix back-patched.
fn encode_frame_into(out: &mut Vec<u8>, id: u64, tag: u8, payload: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    put_u32(out, 0); // patched below
    out.push(PROTOCOL_VERSION);
    put_u64(out, id);
    out.push(tag);
    payload(out);
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

/// Decode the shared envelope of a complete frame; returns `(id, tag,
/// payload)`.
fn decode_frame(bytes: &[u8]) -> Result<(u64, u8, &[u8]), DecodeError> {
    let mut r = Reader::new(bytes);
    let len = r.u32()? as usize;
    if len > MAX_FRAME_BYTES {
        return Err(DecodeError::FrameTooLarge);
    }
    if bytes.len() < 4 + len {
        return Err(DecodeError::Truncated);
    }
    if bytes.len() > 4 + len {
        return Err(DecodeError::TrailingBytes);
    }
    let version = r.u8()?;
    if version != PROTOCOL_VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let id = r.u64()?;
    let tag = r.u8()?;
    Ok((id, tag, &bytes[r.pos..]))
}

/// Bytes of the complete frame at the front of `bytes`, length prefix
/// included; `Ok(None)` when `bytes` ends before the frame does. The prefix
/// is checked against [`MAX_FRAME_BYTES`] before anything else is read.
pub(crate) fn frame_len(bytes: &[u8]) -> Result<Option<usize>, DecodeError> {
    let Some(prefix) = bytes.first_chunk::<4>() else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(*prefix) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(DecodeError::FrameTooLarge);
    }
    Ok((bytes.len() >= 4 + len).then_some(4 + len))
}

/// How many frames `bytes` holds, if it is exactly a run of one or more
/// whole frames with nothing left over — what a worker requires of an
/// inbound message before it walks it frame by frame.
pub(crate) fn count_frames(mut bytes: &[u8]) -> Option<usize> {
    let mut frames = 0;
    while let Ok(Some(len)) = frame_len(bytes) {
        frames += 1;
        bytes = &bytes[len..];
        if bytes.is_empty() {
            return Some(frames);
        }
    }
    None
}

/// Best-effort correlation id of a frame whose payload may be garbage —
/// what the server echoes in a `Malformed` error so the client can still
/// match it. `None` when even the envelope is unreadable.
pub fn peek_id(bytes: &[u8]) -> Option<u64> {
    if bytes.len() < 13 || bytes[4] != PROTOCOL_VERSION {
        return None;
    }
    Some(u64::from_le_bytes(bytes[5..13].try_into().ok()?))
}

/// Serialize one request's payload (everything after the tag byte).
/// `Idempotent` nests its inner op's tag + payload after the token, with no
/// second envelope.
fn put_request_payload(out: &mut Vec<u8>, req: &Request) {
    match req {
        Request::Ping | Request::Close => {}
        Request::Get { key } => put_u64(out, *key),
        Request::Put { key, value } => {
            put_u64(out, *key);
            put_u64(out, *value);
        }
        Request::Add { key, delta } => {
            put_u64(out, *key);
            put_u64(out, *delta);
        }
        Request::MultiGet { keys } => {
            put_u32(out, keys.len() as u32);
            keys.iter().for_each(|k| put_u64(out, *k));
        }
        Request::MultiAdd { keys, delta } => {
            put_u32(out, keys.len() as u32);
            keys.iter().for_each(|k| put_u64(out, *k));
            put_u64(out, *delta);
        }
        Request::MultiPut { pairs } => {
            put_u32(out, pairs.len() as u32);
            pairs.iter().for_each(|(k, v)| {
                put_u64(out, *k);
                put_u64(out, *v);
            });
        }
        Request::Idempotent { token, op } => {
            put_u64(out, *token);
            out.push(op.tag());
            put_request_payload(out, op);
        }
    }
}

/// Serialize one response's payload (everything after the tag byte).
fn put_response_payload(out: &mut Vec<u8>, resp: &Response) {
    match resp {
        Response::Pong | Response::Written | Response::Busy | Response::Closed => {}
        Response::Value(v) | Response::Added(v) => put_u64(out, *v),
        Response::Values(vs) => {
            put_u32(out, vs.len() as u32);
            vs.iter().for_each(|v| put_u64(out, *v));
        }
        Response::MultiAdded { applied } | Response::MultiWritten { applied } => {
            put_u32(out, *applied)
        }
        Response::Error(code) => out.push(code.code()),
    }
}

/// Parse one request's payload given its tag.
fn read_request_payload(tag: u8, r: &mut Reader<'_>) -> Result<Request, DecodeError> {
    Ok(match tag {
        0 => Request::Ping,
        1 => Request::Get { key: r.u64()? },
        2 => Request::Put {
            key: r.u64()?,
            value: r.u64()?,
        },
        3 => Request::Add {
            key: r.u64()?,
            delta: r.u64()?,
        },
        4 => Request::MultiGet {
            keys: r.u64_list()?,
        },
        5 => Request::MultiAdd {
            keys: r.u64_list()?,
            delta: r.u64()?,
        },
        6 => Request::Close,
        7 => {
            let token = r.u64()?;
            let inner_tag = r.u8()?;
            // Only plain writes may be wrapped: reads need no idempotency
            // and nested wrappers are meaningless.
            if !matches!(inner_tag, 2 | 3 | 5 | 8) {
                return Err(DecodeError::BadInner(inner_tag));
            }
            let op = read_request_payload(inner_tag, r)?;
            Request::Idempotent {
                token,
                op: Box::new(op),
            }
        }
        8 => Request::MultiPut {
            pairs: r.pair_list()?,
        },
        t => return Err(DecodeError::BadTag(t)),
    })
}

impl RequestFrame {
    /// Serialize to a complete frame (length prefix included).
    pub fn encode(&self) -> Vec<u8> {
        encode_frame(self.id, self.request.tag(), |out| {
            put_request_payload(out, &self.request)
        })
    }

    /// Append the complete frame to `out` (a connection's outbound buffer).
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        encode_frame_into(out, self.id, self.request.tag(), |out| {
            put_request_payload(out, &self.request)
        })
    }

    /// Parse a complete frame. The buffer must hold exactly one frame
    /// (stream readers use [`FrameBuf`] to slice those out first).
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let (id, tag, payload) = decode_frame(bytes)?;
        let mut r = Reader::new(payload);
        let request = read_request_payload(tag, &mut r)?;
        r.finish()?;
        Ok(Self { id, request })
    }
}

impl Request {
    fn tag(&self) -> u8 {
        match self {
            Request::Ping => 0,
            Request::Get { .. } => 1,
            Request::Put { .. } => 2,
            Request::Add { .. } => 3,
            Request::MultiGet { .. } => 4,
            Request::MultiAdd { .. } => 5,
            Request::Close => 6,
            Request::Idempotent { .. } => 7,
            Request::MultiPut { .. } => 8,
        }
    }

    /// Wrap a write with an idempotency token. Panics if `op` is not a
    /// plain write (the wire format rejects such frames on decode anyway).
    pub fn idempotent(token: u64, op: Request) -> Request {
        assert!(
            matches!(
                op,
                Request::Put { .. }
                    | Request::Add { .. }
                    | Request::MultiAdd { .. }
                    | Request::MultiPut { .. }
            ),
            "only plain writes can carry an idempotency token"
        );
        Request::Idempotent {
            token,
            op: Box::new(op),
        }
    }

    /// The idempotency token, if this request carries one.
    pub fn token(&self) -> Option<u64> {
        match self {
            Request::Idempotent { token, .. } => Some(*token),
            _ => None,
        }
    }

    /// The operation itself, unwrapped from any idempotency envelope.
    pub fn op(&self) -> &Request {
        match self {
            Request::Idempotent { op, .. } => op,
            other => other,
        }
    }

    /// Whether this operation mutates the store (and therefore passes
    /// through admission control and the group-commit batcher).
    pub fn is_write(&self) -> bool {
        matches!(
            self.op(),
            Request::Put { .. }
                | Request::Add { .. }
                | Request::MultiAdd { .. }
                | Request::MultiPut { .. }
        )
    }

    /// Admission cost: the number of heap words the operation touches.
    pub fn cost(&self) -> u64 {
        match self {
            Request::Ping | Request::Close => 0,
            Request::Get { .. } | Request::Put { .. } | Request::Add { .. } => 1,
            Request::MultiGet { keys } => keys.len() as u64,
            Request::MultiAdd { keys, .. } => keys.len() as u64,
            Request::MultiPut { pairs } => pairs.len() as u64,
            Request::Idempotent { op, .. } => op.cost(),
        }
    }
}

impl ResponseFrame {
    /// Serialize to a complete frame (length prefix included).
    pub fn encode(&self) -> Vec<u8> {
        encode_frame(self.id, self.response.tag(), |out| {
            put_response_payload(out, &self.response)
        })
    }

    /// Append the complete frame to `out` (a session's outbox).
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        encode_frame_into(out, self.id, self.response.tag(), |out| {
            put_response_payload(out, &self.response)
        })
    }

    /// Parse a complete frame (see [`RequestFrame::decode`]).
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let (id, tag, payload) = decode_frame(bytes)?;
        let mut r = Reader::new(payload);
        let response = match tag {
            0 => Response::Pong,
            1 => Response::Value(r.u64()?),
            2 => Response::Values(r.u64_list()?),
            3 => Response::Written,
            4 => Response::Added(r.u64()?),
            5 => Response::MultiAdded { applied: r.u32()? },
            6 => Response::Busy,
            7 => Response::Closed,
            8 => Response::Error(ErrorCode::decode(r.u8()?)?),
            9 => Response::MultiWritten { applied: r.u32()? },
            t => return Err(DecodeError::BadTag(t)),
        };
        r.finish()?;
        Ok(Self { id, response })
    }
}

impl Response {
    fn tag(&self) -> u8 {
        match self {
            Response::Pong => 0,
            Response::Value(_) => 1,
            Response::Values(_) => 2,
            Response::Written => 3,
            Response::Added(_) => 4,
            Response::MultiAdded { .. } => 5,
            Response::Busy => 6,
            Response::Closed => 7,
            Response::Error(_) => 8,
            Response::MultiWritten { .. } => 9,
        }
    }
}

impl ErrorCode {
    fn code(self) -> u8 {
        match self {
            ErrorCode::Malformed => 0,
            ErrorCode::Unsupported => 1,
            ErrorCode::ShuttingDown => 2,
            ErrorCode::Expired => 3,
            ErrorCode::ShardRestarted => 4,
        }
    }

    fn decode(b: u8) -> Result<Self, DecodeError> {
        match b {
            0 => Ok(ErrorCode::Malformed),
            1 => Ok(ErrorCode::Unsupported),
            2 => Ok(ErrorCode::ShuttingDown),
            3 => Ok(ErrorCode::Expired),
            4 => Ok(ErrorCode::ShardRestarted),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

/// Smallest spare room [`FrameBuf::read_from`] offers a read. Small, so an
/// idle or one-request-at-a-time connection holds half a KiB, not a 16 KiB
/// bounce buffer; a connection that streams grows out of it by doubling.
const MIN_READ_BYTES: usize = 512;

/// Spare room beyond which [`FrameBuf::read_from`] stops doubling: reads
/// this large are already one syscall per thousands of frames.
const MAX_READ_BYTES: usize = 64 * 1024;

/// Incremental frame extraction from a byte stream (the TCP read path).
///
/// Refill with [`FrameBuf::read_from`] (straight from the socket) or
/// [`FrameBuf::extend`] (bytes already in hand); pop complete frames out
/// one at a time with [`FrameBuf::pop_frame`] until it returns `Ok(None)`,
/// or all at once with [`FrameBuf::pop_frames`]. Popping only advances a
/// cursor and lends the bytes out in place; consumed bytes are reclaimed
/// once per refill. An
/// oversized length prefix surfaces as [`DecodeError::FrameTooLarge`]
/// *before* the frame's bytes are buffered, so a hostile peer cannot
/// balloon the buffer: between refills it holds at most one partial frame.
#[derive(Debug, Default)]
pub struct FrameBuf {
    /// `buf[head..tail]` is received and not yet popped; `buf[tail..]` is
    /// initialised spare room for the next read.
    buf: Vec<u8>,
    head: usize,
    tail: usize,
}

impl FrameBuf {
    /// Empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Move the unconsumed bytes to the front (nothing to move when every
    /// frame of the last refill was popped, the common case).
    fn compact(&mut self) {
        if self.head > 0 {
            self.buf.copy_within(self.head..self.tail, 0);
            self.tail -= self.head;
            self.head = 0;
        }
    }

    /// Append raw bytes read from the peer.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.truncate(self.tail);
        self.buf.extend_from_slice(bytes);
        self.tail = self.buf.len();
    }

    /// Refill with one `read` from `src`, straight into the buffer's spare
    /// room. Returns what `read` returned: `Ok(0)` is end of stream.
    ///
    /// The spare room starts at half a KiB and doubles whenever a read
    /// filled it (more was probably waiting), so the buffer grows to what
    /// the connection's bursts need and no further.
    pub fn read_from(&mut self, src: &mut impl std::io::Read) -> std::io::Result<usize> {
        // `tail` only moves on a refill, so this says the last one left no
        // room (or that there has been none yet).
        let filled = self.tail == self.buf.len();
        self.compact();
        if filled && self.buf.len() - self.tail < MAX_READ_BYTES {
            let grown = (self.buf.len() * 2).max(MIN_READ_BYTES);
            self.buf.resize(grown, 0);
        }
        let n = src.read(&mut self.buf[self.tail..])?;
        self.tail += n;
        Ok(n)
    }

    /// Pop the next complete frame, borrowed from the buffer (valid until
    /// the next refill); `Ok(None)` when more bytes are needed. After
    /// `Err(FrameTooLarge)` the stream is unrecoverable (framing is lost)
    /// and the connection should be dropped.
    pub fn pop_frame(&mut self) -> Result<Option<&[u8]>, DecodeError> {
        let pending = &self.buf[self.head..self.tail];
        let Some(total) = frame_len(pending)? else {
            return Ok(None);
        };
        self.head += total;
        Ok(Some(&pending[..total]))
    }

    /// [`FrameBuf::pop_frame`], copied out.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, DecodeError> {
        Ok(self.pop_frame()?.map(<[u8]>::to_vec))
    }

    /// Pop every complete frame buffered, as one borrowed run of whole
    /// frames; empty when the first frame is still incomplete. A run cut
    /// short by an oversized length prefix is returned first, so the frames
    /// ahead of a lost framing are still served: the error is the next
    /// call's.
    pub fn pop_frames(&mut self) -> Result<&[u8], DecodeError> {
        let start = self.head;
        let ended = loop {
            match self.pop_frame() {
                Ok(Some(_)) => {}
                Ok(None) => break Ok(()),
                Err(lost) => break Err(lost),
            }
        };
        match ended {
            Err(lost) if self.head == start => Err(lost),
            _ => Ok(&self.buf[start..self.head]),
        }
    }

    /// Received bytes not yet popped as frames (diagnostics).
    pub fn pending_bytes(&self) -> usize {
        self.tail - self.head
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let frames = [
            RequestFrame {
                id: 0,
                request: Request::Ping,
            },
            RequestFrame {
                id: 7,
                request: Request::Get { key: 42 },
            },
            RequestFrame {
                id: u64::MAX,
                request: Request::Put { key: 1, value: 2 },
            },
            RequestFrame {
                id: 9,
                request: Request::Add {
                    key: 3,
                    delta: u64::MAX,
                },
            },
            RequestFrame {
                id: 1,
                request: Request::MultiGet { keys: vec![] },
            },
            RequestFrame {
                id: 2,
                request: Request::MultiAdd {
                    keys: vec![5, 5, 9],
                    delta: 1,
                },
            },
            RequestFrame {
                id: 3,
                request: Request::Close,
            },
            RequestFrame {
                id: 10,
                request: Request::MultiPut {
                    pairs: vec![(1, 100), (2, 200), (1, 300)],
                },
            },
            RequestFrame {
                id: 11,
                request: Request::idempotent(7, Request::MultiPut { pairs: vec![] }),
            },
            RequestFrame {
                id: 4,
                request: Request::idempotent(99, Request::Add { key: 3, delta: 1 }),
            },
            RequestFrame {
                id: 5,
                request: Request::idempotent(
                    u64::MAX,
                    Request::MultiAdd {
                        keys: vec![1, 2, 3],
                        delta: 7,
                    },
                ),
            },
            RequestFrame {
                id: 6,
                request: Request::idempotent(0, Request::Put { key: 9, value: 1 }),
            },
        ];
        for f in frames {
            let bytes = f.encode();
            assert_eq!(RequestFrame::decode(&bytes).unwrap(), f, "{f:?}");
        }
    }

    #[test]
    fn response_round_trips() {
        let frames = [
            ResponseFrame {
                id: 0,
                response: Response::Pong,
            },
            ResponseFrame {
                id: 1,
                response: Response::Value(77),
            },
            ResponseFrame {
                id: 2,
                response: Response::Values(vec![1, 2, 3]),
            },
            ResponseFrame {
                id: 3,
                response: Response::Written,
            },
            ResponseFrame {
                id: 4,
                response: Response::Added(5),
            },
            ResponseFrame {
                id: 5,
                response: Response::MultiAdded { applied: 12 },
            },
            ResponseFrame {
                id: 10,
                response: Response::MultiWritten { applied: 3 },
            },
            ResponseFrame {
                id: 6,
                response: Response::Busy,
            },
            ResponseFrame {
                id: 7,
                response: Response::Closed,
            },
            ResponseFrame {
                id: 8,
                response: Response::Error(ErrorCode::ShuttingDown),
            },
        ];
        for f in frames {
            let bytes = f.encode();
            assert_eq!(ResponseFrame::decode(&bytes).unwrap(), f, "{f:?}");
        }
    }

    #[test]
    fn typed_errors_not_panics() {
        // Truncation at every prefix length of a valid frame.
        let full = RequestFrame {
            id: 5,
            request: Request::MultiAdd {
                keys: vec![1, 2],
                delta: 3,
            },
        }
        .encode();
        for cut in 0..full.len() {
            assert!(RequestFrame::decode(&full[..cut]).is_err(), "cut {cut}");
        }
        // Bad version.
        let mut bad = full.clone();
        bad[4] = 99;
        assert_eq!(RequestFrame::decode(&bad), Err(DecodeError::BadVersion(99)));
        // Bad tag.
        let mut bad = full.clone();
        bad[13] = 200;
        assert_eq!(RequestFrame::decode(&bad), Err(DecodeError::BadTag(200)));
        // Oversized declared length.
        let mut huge = full.clone();
        huge[..4].copy_from_slice(&(MAX_FRAME_BYTES as u32 + 1).to_le_bytes());
        assert_eq!(RequestFrame::decode(&huge), Err(DecodeError::FrameTooLarge));
        // Hostile count: claims 2^32-ish keys with no bytes behind it. Must
        // refuse before allocating.
        let hostile = encode_frame(1, 4, |out| put_u32(out, u32::MAX));
        assert_eq!(
            RequestFrame::decode(&hostile),
            Err(DecodeError::CountTooLarge)
        );
        // Same for a hostile MultiPut pair count.
        let hostile = encode_frame(1, 8, |out| put_u32(out, u32::MAX));
        assert_eq!(
            RequestFrame::decode(&hostile),
            Err(DecodeError::CountTooLarge)
        );
        // Trailing garbage after a complete variant.
        let padded = encode_frame(1, 0, |out| out.push(0xEE));
        assert_eq!(
            RequestFrame::decode(&padded),
            Err(DecodeError::TrailingBytes)
        );
    }

    #[test]
    fn idempotent_wrapper_semantics() {
        let req = Request::idempotent(42, Request::Add { key: 5, delta: 1 });
        assert!(req.is_write());
        assert_eq!(req.token(), Some(42));
        assert_eq!(req.cost(), 1);
        assert_eq!(req.op(), &Request::Add { key: 5, delta: 1 });
        assert_eq!(Request::Ping.token(), None);

        // An idempotent frame wrapping a read is rejected on decode with
        // the dedicated error, not BadTag.
        let bad = encode_frame(1, 7, |out| {
            put_u64(out, 3); // token
            out.push(1); // Get
            put_u64(out, 0);
        });
        assert_eq!(RequestFrame::decode(&bad), Err(DecodeError::BadInner(1)));

        // Nested wrappers are rejected the same way.
        let nested = encode_frame(1, 7, |out| {
            put_u64(out, 3);
            out.push(7);
            put_u64(out, 4);
            out.push(3);
            put_u64(out, 0);
            put_u64(out, 1);
        });
        assert_eq!(RequestFrame::decode(&nested), Err(DecodeError::BadInner(7)));

        // New error codes round-trip.
        for code in [ErrorCode::Expired, ErrorCode::ShardRestarted] {
            let f = ResponseFrame {
                id: 1,
                response: Response::Error(code),
            };
            assert_eq!(ResponseFrame::decode(&f.encode()).unwrap(), f);
        }
    }

    #[test]
    #[should_panic(expected = "only plain writes")]
    fn idempotent_rejects_reads_at_construction() {
        let _ = Request::idempotent(1, Request::Get { key: 0 });
    }

    #[test]
    fn frame_buf_reassembles_split_stream() {
        let a = RequestFrame {
            id: 1,
            request: Request::Get { key: 9 },
        }
        .encode();
        let b = RequestFrame {
            id: 2,
            request: Request::Ping,
        }
        .encode();
        let stream: Vec<u8> = a.iter().chain(b.iter()).copied().collect();

        // Feed one byte at a time; exactly two frames must pop out, intact.
        let mut fb = FrameBuf::new();
        let mut out = Vec::new();
        for &byte in &stream {
            fb.extend(&[byte]);
            while let Some(frame) = fb.next_frame().unwrap() {
                out.push(frame);
            }
        }
        assert_eq!(out, vec![a, b]);
        assert_eq!(fb.pending_bytes(), 0);
    }

    #[test]
    fn frame_buf_rejects_oversize_before_buffering() {
        let mut fb = FrameBuf::new();
        fb.extend(&(u32::MAX).to_le_bytes());
        assert_eq!(fb.next_frame(), Err(DecodeError::FrameTooLarge));
    }

    #[test]
    fn frame_buf_rejects_oversize_after_a_consumed_prefix() {
        // The cursor, not the start of the buffer, is where the next
        // length prefix is read.
        let good = RequestFrame {
            id: 1,
            request: Request::Ping,
        }
        .encode();
        let mut stream = good.clone();
        stream.extend_from_slice(&(MAX_FRAME_BYTES as u32 + 1).to_le_bytes());
        let mut fb = FrameBuf::new();
        fb.extend(&stream);
        assert_eq!(fb.next_frame(), Ok(Some(good)));
        assert_eq!(fb.pending_bytes(), 4);
        assert_eq!(fb.next_frame(), Err(DecodeError::FrameTooLarge));
    }

    #[test]
    fn frame_buf_pops_a_long_run_from_one_refill() {
        // 10 000 frames delivered at once: each pop advances the cursor
        // (no per-frame shifting of the rest), and the tail that is left
        // over survives the next refill's compaction.
        let n = 10_000u64;
        let frame = |id| {
            RequestFrame {
                id,
                request: Request::Get { key: id },
            }
            .encode()
        };
        let mut stream: Vec<u8> = (0..n).flat_map(frame).collect();
        let last = frame(n);
        let (head, tail) = last.split_at(5);
        stream.extend_from_slice(head);

        let mut fb = FrameBuf::new();
        fb.extend(&stream);
        for id in 0..n {
            assert_eq!(fb.next_frame().unwrap(), Some(frame(id)), "frame {id}");
        }
        assert_eq!(fb.next_frame(), Ok(None));
        assert_eq!(fb.pending_bytes(), head.len());
        fb.extend(tail);
        assert_eq!(fb.next_frame(), Ok(Some(last)));
        assert_eq!(fb.pending_bytes(), 0);
    }

    #[test]
    fn frame_buf_read_from_grows_to_the_burst_and_reports_eof() {
        let frame = RequestFrame {
            id: 3,
            request: Request::Get { key: 4 },
        }
        .encode();
        let burst = frame.repeat(500);
        let mut fb = FrameBuf::new();
        let mut src = &burst[..];
        let (mut reads, mut frames) = (0, 0);
        loop {
            match fb.read_from(&mut src).unwrap() {
                0 => break,
                _ => reads += 1,
            }
            while let Some(popped) = fb.next_frame().unwrap() {
                assert_eq!(popped, frame);
                frames += 1;
            }
        }
        assert_eq!(frames, 500);
        assert_eq!(fb.pending_bytes(), 0);
        // 11 000 bytes: spare room doubling from 512 takes them in five
        // reads (512 + 1k + 2k + 4k + the rest), not twenty-two.
        assert_eq!(reads, 5);
    }

    #[test]
    fn peek_id_recovers_correlation() {
        let f = RequestFrame {
            id: 0xDEAD,
            request: Request::Ping,
        }
        .encode();
        assert_eq!(peek_id(&f), Some(0xDEAD));
        assert_eq!(peek_id(&f[..6]), None);
    }

    #[test]
    fn cost_and_write_classification() {
        assert!(!Request::Ping.is_write());
        assert!(!Request::Get { key: 0 }.is_write());
        assert!(Request::Put { key: 0, value: 0 }.is_write());
        assert!(Request::MultiAdd {
            keys: vec![1, 2, 3],
            delta: 1
        }
        .is_write());
        assert_eq!(
            Request::MultiAdd {
                keys: vec![1, 2, 3],
                delta: 1
            }
            .cost(),
            3
        );
        assert_eq!(Request::Close.cost(), 0);
    }
}
