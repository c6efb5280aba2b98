//! Length-prefixed TCP wire protocol (std-only).
//!
//! The environment is offline, so the protocol is deliberately boring: every
//! frame is a little-endian `u32` length followed by the payload and a
//! CRC-32 (IEEE) of the payload — the length counts payload plus the 4
//! checksum bytes. The checksum closes the silent-corruption hole the chaos
//! suite used to document: a flipped pixel or logit byte parses as a
//! different-but-valid frame to a structural parser, but never survives the
//! CRC check.
//!
//! ```text
//! frame      := len:u32 payload:[u8; len-4] crc32(payload):u32
//! request    := 0x03 ver:u8(=3) model:u16 deadline_ms:u32
//!               id:u64 c:u16 h:u16 w:u16 pixels:[f32; c*h*w]
//! response   := 0x02 id:u64 status:u8(0=ok) argmax:u16 n:u32 logits:[f64; n]
//!             | 0x02 id:u64 status:u8(err code) len:u32 message:[u8; len]
//! ping       := 0x04 nonce:u64
//! pong       := 0x05 nonce:u64
//! admin      := 0x06 op:u8(1=load 2=unload 3=drain 4=status) body
//!   load     := model:u16 len:u16 path:[u8; len]
//!   unload   := model:u16
//!   drain    := (empty)
//!   status   := (empty)
//! admin resp := 0x07 ok:u8 draining:u8 generation:u64
//!               n:u16 models:[u16; n] len:u16 message:[u8; len]
//! ```
//!
//! There is exactly one request layout. `model` addresses one of several
//! engines hosted behind a single listener, and `deadline_ms` is an optional
//! latency budget (`0` means "no deadline") that pairs with the typed,
//! retriable error statuses ([`ErrorCode::Overloaded`],
//! [`ErrorCode::DeadlineExceeded`], [`ErrorCode::ShuttingDown`]). The
//! version byte is checked before anything else in the payload is trusted:
//! any other version or request tag is a clean `InvalidData` naming it,
//! never a misparse. A ping frame is the health probe: answered directly by
//! a server's connection reader, it proves the accept loop and connection
//! threads are alive — a TCP connect only proves the kernel's listen
//! backlog is.
//!
//! The admin frames make a replica's model registry mutable at runtime
//! ([`AdminOp::LoadModel`] / [`AdminOp::UnloadModel`]), let a replica be
//! drained ahead of a restart ([`AdminOp::Drain`]), and report the registry
//! ([`AdminOp::Status`]) — every admin response carries the full model set
//! plus a monotonically increasing registry generation, so a router learns
//! fleet membership from any admin exchange (it piggybacks a status on each
//! health probe). Admin frames are **authenticated by locality**: a server
//! only honours mutating ops from loopback peers; `status` is read-only and
//! allowed remotely. The paired [`ErrorCode::ModelUnavailable`] status is
//! the typed, retriable "this replica does not host that model" refusal
//! heterogeneous replica sets produce.
//!
//! All integers and floats are little-endian. Frames are capped at 16 MiB.
//!
//! Every reader here exists in two shapes: the blocking `read_*` functions
//! (one `Read` call sequence per frame — fine for tests, benches, and the
//! health prober) and the resumable [`FrameDecoder`] + `decode_*` pair the
//! event-loop I/O front uses, which accepts bytes in whatever pieces the
//! kernel hands a nonblocking socket and yields byte-identical parses.

use crate::crc32;
use std::io::{self, Read, Write};

/// Maximum accepted frame payload (16 MiB), excluding the checksum trailer.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Bytes of CRC-32 trailer counted by a frame's length prefix.
pub const FRAME_CRC_BYTES: usize = 4;

/// The request-frame version written by [`write_request_v3`] and the only
/// one [`read_request`] accepts.
pub const PROTOCOL_VERSION: u8 = 3;

const TAG_RESPONSE: u8 = 2;
const TAG_REQUEST: u8 = 3;
const TAG_PING: u8 = 4;
const TAG_PONG: u8 = 5;
const TAG_ADMIN: u8 = 6;
const TAG_ADMIN_RESPONSE: u8 = 7;

const ADMIN_OP_LOAD: u8 = 1;
const ADMIN_OP_UNLOAD: u8 = 2;
const ADMIN_OP_DRAIN: u8 = 3;
const ADMIN_OP_STATUS: u8 = 4;

/// Cap on a load-model path length (fits comfortably in the u16 length
/// field; a longer path is a malformed frame, not a real filesystem).
const MAX_ADMIN_PATH_BYTES: usize = 4096;

/// A fleet-administration operation.
///
/// Carried in a `0x06` frame on the same connection inference requests use
/// and handled directly on the server's event loop. Mutating ops (`load` /
/// `unload` / `drain`) are authenticated by locality — honoured only from
/// loopback peers; [`AdminOp::Status`] is read-only and answered for anyone
/// (the router's health probes depend on it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdminOp {
    /// Load a plan-store file into registry slot `model` (creating or
    /// replacing the slot) and bump the registry generation.
    LoadModel {
        /// Registry slot to (re)populate.
        model: u16,
        /// Server-local path of the plan-store file to deserialize.
        path: String,
    },
    /// Empty registry slot `model` and bump the registry generation.
    UnloadModel {
        /// Registry slot to empty.
        model: u16,
    },
    /// Stop admitting new inference requests (in-flight work still answers);
    /// the step before a graceful restart.
    Drain,
    /// Report the registry: hosted model set, generation, drain state.
    Status,
}

impl AdminOp {
    /// Whether this op changes server state (and therefore requires a
    /// loopback peer).
    pub fn mutates(&self) -> bool {
        !matches!(self, AdminOp::Status)
    }
}

/// A server's answer to any [`AdminOp`].
///
/// Every admin response — not just `status` — carries the full registry
/// snapshot, so one exchange is enough for an operator or a router to learn
/// a replica's membership state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdminResponse {
    /// Whether the op succeeded (`status` always succeeds).
    pub ok: bool,
    /// Whether the replica is draining (refusing new inference admissions).
    pub draining: bool,
    /// Registry generation; bumps on every successful load/unload/drain.
    pub generation: u64,
    /// Model ids currently hosted, ascending.
    pub models: Vec<u16>,
    /// Failure description when `ok` is false, empty otherwise.
    pub message: String,
}

/// An inference request: a request id chosen by the client plus the image.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Model the request addresses.
    pub model: u16,
    /// Remaining end-to-end latency budget in milliseconds; `0` means "no
    /// deadline". A server drops a request
    /// whose budget expired before compute and answers
    /// [`ErrorCode::DeadlineExceeded`]; a router decrements the budget
    /// across hops and never retries past it.
    pub deadline_ms: u32,
    /// Image shape `(channels, height, width)`.
    pub shape: [usize; 3],
    /// Row-major pixel data, `shape` elements.
    pub pixels: Vec<f32>,
}

/// Typed failure classification carried in a response's status byte.
///
/// The retriable codes are the overload-protection contract: a router (or a
/// client) may re-send a request refused with [`ErrorCode::Overloaded`],
/// [`ErrorCode::ShuttingDown`], or [`ErrorCode::ModelUnavailable`] to
/// another replica, while an [`ErrorCode::App`] error (bad shape) is bad on
/// every replica and a [`ErrorCode::DeadlineExceeded`] refusal has no budget
/// left to retry with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Application-level failure; retrying elsewhere cannot help.
    App,
    /// The replica shed the request at admission (queue depth cap) —
    /// retriable on a less-loaded replica or later.
    Overloaded,
    /// The request's `deadline_ms` budget expired before compute.
    DeadlineExceeded,
    /// The replica is draining for shutdown — retriable on another replica.
    ShuttingDown,
    /// The replica does not host the requested model — retriable on a
    /// replica that does (heterogeneous replica sets make this a routine
    /// routing signal, not an application error).
    ModelUnavailable,
}

impl ErrorCode {
    /// The wire status byte of this code (`0` is reserved for `Ok`).
    fn status(self) -> u8 {
        match self {
            ErrorCode::App => 1,
            ErrorCode::Overloaded => 2,
            ErrorCode::DeadlineExceeded => 3,
            ErrorCode::ShuttingDown => 4,
            ErrorCode::ModelUnavailable => 5,
        }
    }

    fn from_status(status: u8) -> Option<Self> {
        match status {
            1 => Some(ErrorCode::App),
            2 => Some(ErrorCode::Overloaded),
            3 => Some(ErrorCode::DeadlineExceeded),
            4 => Some(ErrorCode::ShuttingDown),
            5 => Some(ErrorCode::ModelUnavailable),
            _ => None,
        }
    }

    /// Whether a request refused with this code may be answered successfully
    /// somewhere else (or later) — i.e. the failure describes the serving
    /// plane's state, not the request itself.
    pub fn is_retriable(self) -> bool {
        !matches!(self, ErrorCode::App)
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ErrorCode::App => "APP_ERROR",
            ErrorCode::Overloaded => "OVERLOADED",
            ErrorCode::DeadlineExceeded => "DEADLINE_EXCEEDED",
            ErrorCode::ShuttingDown => "SHUTTING_DOWN",
            ErrorCode::ModelUnavailable => "MODEL_UNAVAILABLE",
        })
    }
}

/// An inference response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Successful inference.
    Ok {
        /// Echoed request id.
        id: u64,
        /// Predicted class.
        argmax: u16,
        /// Decoded logits.
        logits: Vec<f64>,
    },
    /// Server-side failure for this request.
    Err {
        /// Echoed request id.
        id: u64,
        /// Typed failure classification (drives retry decisions).
        code: ErrorCode,
        /// Human-readable failure description.
        message: String,
    },
}

impl Response {
    /// The echoed request id.
    pub fn id(&self) -> u64 {
        match self {
            Response::Ok { id, .. } | Response::Err { id, .. } => *id,
        }
    }

    /// Builds an application-level (non-retriable) error response.
    pub fn app_err(id: u64, message: impl Into<String>) -> Self {
        Response::Err {
            id,
            code: ErrorCode::App,
            message: message.into(),
        }
    }

    /// The error code, if this is an error response.
    pub fn error_code(&self) -> Option<ErrorCode> {
        match self {
            Response::Ok { .. } => None,
            Response::Err { code, .. } => Some(*code),
        }
    }
}

/// One frame a server's connection reader can receive: an inference request
/// or a health-probe ping (answered at connection level, bypassing the
/// compute queue — the probe checks liveness, not capacity).
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// An inference request.
    Request(Request),
    /// A health probe; the peer expects a pong echoing the nonce.
    Ping {
        /// Probe correlation nonce, echoed in the pong.
        nonce: u64,
    },
    /// A fleet-administration op; the peer expects an [`AdminResponse`].
    Admin(AdminOp),
}

fn invalid(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// Overflow-checked element count of a request shape.
///
/// This is the single validation point for `shape → pixel count`: both wire
/// directions and the in-process serving path ([`crate::server`], router
/// forwarding, benches) go through it, so a shape whose product wraps
/// `usize` can never masquerade as a small pixel count — `65535³` overflows
/// 32-bit `usize` and, unchecked, would wrap silently in release builds.
pub fn checked_shape_product(shape: [usize; 3]) -> Option<usize> {
    shape[0].checked_mul(shape[1])?.checked_mul(shape[2])
}

/// Length-prefix bytes in front of every frame's payload.
const FRAME_LENGTH_BYTES: usize = 4;

/// Starts a frame whose payload begins with `tag`, reserving the length
/// prefix that [`write_frame`] fills in.
fn start_frame(tag: u8, payload_capacity: usize) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_LENGTH_BYTES + payload_capacity + FRAME_CRC_BYTES);
    frame.extend_from_slice(&[0; FRAME_LENGTH_BYTES]);
    frame.push(tag);
    frame
}

/// Completes a frame begun by [`start_frame`] — length prefix in front,
/// CRC-32 trailer behind — and sends it in a single write. Separate writes
/// for length, payload and trailer would let Nagle's algorithm hold the
/// later ones back until the peer's delayed ACK on a socket without
/// `TCP_NODELAY`.
fn write_frame(writer: &mut impl Write, mut frame: Vec<u8>) -> io::Result<()> {
    let payload_len = frame.len() - FRAME_LENGTH_BYTES;
    if payload_len > MAX_FRAME_BYTES {
        return Err(invalid(format!("frame of {payload_len} bytes too large")));
    }
    let checksum = crc32::checksum(&frame[FRAME_LENGTH_BYTES..]);
    let length = (payload_len + FRAME_CRC_BYTES) as u32;
    frame[..FRAME_LENGTH_BYTES].copy_from_slice(&length.to_le_bytes());
    frame.extend_from_slice(&checksum.to_le_bytes());
    writer.write_all(&frame)?;
    writer.flush()
}

/// Validates a frame's declared length (payload plus checksum trailer).
fn check_frame_length(length: usize) -> io::Result<()> {
    if length < FRAME_CRC_BYTES {
        return Err(invalid(format!(
            "frame of {length} bytes is too short for its checksum"
        )));
    }
    if length > MAX_FRAME_BYTES + FRAME_CRC_BYTES {
        return Err(invalid(format!("frame of {length} bytes exceeds the cap")));
    }
    Ok(())
}

/// Splits a raw `payload ++ crc32` buffer, verifies the checksum, and
/// returns the payload length.
fn checked_payload_len(buffer: &[u8]) -> io::Result<usize> {
    let split = buffer.len() - FRAME_CRC_BYTES;
    let declared = u32::from_le_bytes(buffer[split..].try_into().expect("4 trailer bytes"));
    let actual = crc32::checksum(&buffer[..split]);
    if declared != actual {
        return Err(invalid(format!(
            "frame checksum mismatch: declared {declared:#010x}, computed {actual:#010x}"
        )));
    }
    Ok(split)
}

/// Reads one frame payload (checksum verified and stripped); `Ok(None)` on a
/// clean EOF at a frame boundary.
fn read_frame(reader: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    match reader.read_exact(&mut header) {
        Ok(()) => {}
        Err(error) if error.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(error) => return Err(error),
    }
    let length = u32::from_le_bytes(header) as usize;
    check_frame_length(length)?;
    let mut payload = vec![0u8; length];
    reader.read_exact(&mut payload)?;
    let split = checked_payload_len(&payload)?;
    payload.truncate(split);
    Ok(Some(payload))
}

/// Resumable frame reader for nonblocking sockets.
///
/// The event-loop I/O front cannot block in `read_exact` until a frame
/// completes; it owns hundreds of sockets and gets bytes in whatever pieces
/// the kernel delivers. A `FrameDecoder` accepts those pieces via
/// [`feed`](FrameDecoder::feed), accumulates exactly one frame, verifies its
/// checksum, and exposes the payload via [`frame`](FrameDecoder::frame) —
/// parse it with [`decode_message`] / [`decode_response`] and call
/// [`take_frame`](FrameDecoder::take_frame) to move on to the next frame.
///
/// The accumulation buffer is reused across frames (capacity only grows to
/// the largest frame seen), so steady-state decoding performs no per-frame
/// allocation — asserted by the resumable-proto test suite.
#[derive(Debug)]
pub struct FrameDecoder {
    /// Length-prefix accumulator.
    header: [u8; 4],
    /// Bytes of `header` filled so far (meaningful while `need` is `None`).
    header_filled: usize,
    /// Declared frame length (payload + checksum) once the header is
    /// complete.
    need: Option<usize>,
    /// Frame accumulation buffer, reused across frames.
    buffer: Vec<u8>,
    /// Whether `buffer` holds a complete, checksum-verified payload.
    complete: bool,
}

impl FrameDecoder {
    /// A decoder positioned at a frame boundary.
    pub fn new() -> Self {
        Self {
            header: [0; 4],
            header_filled: 0,
            need: None,
            buffer: Vec::new(),
            complete: false,
        }
    }

    /// Consumes bytes from `input` until a frame completes or `input` runs
    /// out, returning how many bytes were consumed. Once a frame is
    /// complete, `feed` consumes nothing further until
    /// [`take_frame`](FrameDecoder::take_frame) resets the decoder — unread
    /// bytes stay in the caller's buffer, preserving pipelining.
    ///
    /// # Errors
    ///
    /// `InvalidData` for an out-of-range declared length or a checksum
    /// mismatch. The decoder is poisoned after an error (resynchronizing
    /// into a byte stream is not possible once framing is lost); callers
    /// drop the connection, exactly as the blocking readers' callers do.
    pub fn feed(&mut self, input: &[u8]) -> io::Result<usize> {
        let mut consumed = 0;
        while !self.complete && consumed < input.len() {
            match self.need {
                None => {
                    let take = (4 - self.header_filled).min(input.len() - consumed);
                    self.header[self.header_filled..self.header_filled + take]
                        .copy_from_slice(&input[consumed..consumed + take]);
                    self.header_filled += take;
                    consumed += take;
                    if self.header_filled == 4 {
                        let length = u32::from_le_bytes(self.header) as usize;
                        check_frame_length(length)?;
                        self.need = Some(length);
                        self.buffer.clear();
                        // `reserve_exact` keeps capacity pinned to the
                        // largest frame seen instead of doubling past it.
                        self.buffer.reserve_exact(length);
                    }
                }
                Some(need) => {
                    let take = (need - self.buffer.len()).min(input.len() - consumed);
                    self.buffer
                        .extend_from_slice(&input[consumed..consumed + take]);
                    consumed += take;
                    if self.buffer.len() == need {
                        let split = checked_payload_len(&self.buffer)?;
                        self.buffer.truncate(split);
                        self.complete = true;
                    }
                }
            }
        }
        Ok(consumed)
    }

    /// The completed frame's payload (checksum stripped), if one is ready.
    pub fn frame(&self) -> Option<&[u8]> {
        self.complete.then_some(self.buffer.as_slice())
    }

    /// Resets to the next frame boundary, keeping the buffer's capacity.
    pub fn take_frame(&mut self) {
        self.complete = false;
        self.header_filled = 0;
        self.need = None;
        self.buffer.clear();
    }

    /// Whether the decoder sits mid-frame: some bytes of the next frame have
    /// arrived but the frame is not complete. The idle reaper uses this to
    /// distinguish a silent-but-framed connection (reapable after the idle
    /// timeout) from one stalled mid-frame (same treatment, different trace
    /// classification).
    pub fn mid_frame(&self) -> bool {
        !self.complete && (self.header_filled > 0 || self.need.is_some())
    }

    /// Current capacity of the reused accumulation buffer (test hook for the
    /// no-reallocation-churn assertion).
    pub fn buffer_capacity(&self) -> usize {
        self.buffer.capacity()
    }
}

impl Default for FrameDecoder {
    fn default() -> Self {
        Self::new()
    }
}

/// Serializes and sends a request frame addressing `model` with no deadline:
/// shorthand for [`write_request_v3`] with `deadline_ms = 0`, emitting the
/// same layout.
///
/// # Errors
///
/// Propagates I/O failures; rejects shape/pixel mismatches.
pub fn write_request_v2(
    writer: &mut impl Write,
    id: u64,
    model: u16,
    shape: [usize; 3],
    pixels: &[f32],
) -> io::Result<()> {
    write_request_v3(writer, id, model, 0, shape, pixels)
}

/// Serializes and sends a request frame addressing `model` with a
/// `deadline_ms` latency budget (`0` = no deadline).
///
/// # Errors
///
/// Propagates I/O failures; rejects shape/pixel mismatches.
pub fn write_request_v3(
    writer: &mut impl Write,
    id: u64,
    model: u16,
    deadline_ms: u32,
    shape: [usize; 3],
    pixels: &[f32],
) -> io::Result<()> {
    let expected = checked_shape_product(shape)
        .ok_or_else(|| invalid(format!("shape {shape:?} overflows the element count")))?;
    if pixels.len() != expected || shape.iter().any(|&d| d > usize::from(u16::MAX)) {
        return Err(invalid(format!(
            "shape {shape:?} does not describe {} pixels",
            pixels.len()
        )));
    }
    if expected == 0 {
        return Err(invalid(format!(
            "shape {shape:?} describes a zero-length stream"
        )));
    }
    let mut frame = start_frame(TAG_REQUEST, 8 + 8 + 6 + pixels.len() * 4);
    frame.push(PROTOCOL_VERSION);
    frame.extend_from_slice(&model.to_le_bytes());
    frame.extend_from_slice(&deadline_ms.to_le_bytes());
    frame.extend_from_slice(&id.to_le_bytes());
    for dim in shape {
        frame.extend_from_slice(&(dim as u16).to_le_bytes());
    }
    for pixel in pixels {
        frame.extend_from_slice(&pixel.to_le_bytes());
    }
    write_frame(writer, frame)
}

/// Serializes and sends a parsed request — its model and its deadline (by
/// then typically already decremented by the forwarding hop).
///
/// # Errors
///
/// Propagates I/O failures; rejects shape/pixel mismatches.
pub fn forward_request(writer: &mut impl Write, request: &Request) -> io::Result<()> {
    write_request_v3(
        writer,
        request.id,
        request.model,
        request.deadline_ms,
        request.shape,
        &request.pixels,
    )
}

/// Sends a health-probe ping carrying `nonce`.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_ping(writer: &mut impl Write, nonce: u64) -> io::Result<()> {
    let mut frame = start_frame(TAG_PING, 9);
    frame.extend_from_slice(&nonce.to_le_bytes());
    write_frame(writer, frame)
}

/// Sends the pong answering a health-probe ping.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_pong(writer: &mut impl Write, nonce: u64) -> io::Result<()> {
    let mut frame = start_frame(TAG_PONG, 9);
    frame.extend_from_slice(&nonce.to_le_bytes());
    write_frame(writer, frame)
}

/// Reads one pong frame and returns its nonce; `Ok(None)` on clean EOF.
///
/// # Errors
///
/// Propagates I/O failures; returns `InvalidData` for anything that is not
/// a pong frame.
pub fn read_pong(reader: &mut impl Read) -> io::Result<Option<u64>> {
    let Some(payload) = read_frame(reader)? else {
        return Ok(None);
    };
    Ok(Some(decode_pong(&payload)?))
}

/// Parses a pong frame payload (as yielded by a [`FrameDecoder`]) and
/// returns its nonce.
///
/// # Errors
///
/// Returns `InvalidData` for anything that is not a pong frame.
pub fn decode_pong(payload: &[u8]) -> io::Result<u64> {
    let mut cursor = Cursor::new(payload);
    if cursor.u8()? != TAG_PONG {
        return Err(invalid("expected a pong frame"));
    }
    let nonce = cursor.u64()?;
    cursor.finish()?;
    Ok(nonce)
}

/// Serializes and sends an admin frame.
///
/// # Errors
///
/// Propagates I/O failures; rejects a load path longer than the cap.
pub fn write_admin(writer: &mut impl Write, op: &AdminOp) -> io::Result<()> {
    let mut frame = start_frame(TAG_ADMIN, 8);
    match op {
        AdminOp::LoadModel { model, path } => {
            if path.len() > MAX_ADMIN_PATH_BYTES {
                return Err(invalid(format!(
                    "{}-byte plan path exceeds the cap",
                    path.len()
                )));
            }
            frame.push(ADMIN_OP_LOAD);
            frame.extend_from_slice(&model.to_le_bytes());
            frame.extend_from_slice(&(path.len() as u16).to_le_bytes());
            frame.extend_from_slice(path.as_bytes());
        }
        AdminOp::UnloadModel { model } => {
            frame.push(ADMIN_OP_UNLOAD);
            frame.extend_from_slice(&model.to_le_bytes());
        }
        AdminOp::Drain => frame.push(ADMIN_OP_DRAIN),
        AdminOp::Status => frame.push(ADMIN_OP_STATUS),
    }
    write_frame(writer, frame)
}

/// Parses an admin frame payload (as yielded by a [`FrameDecoder`]); the
/// shared parser behind [`decode_message`]'s admin arm.
///
/// # Errors
///
/// Returns `InvalidData` for malformed frames.
pub fn decode_admin(payload: &[u8]) -> io::Result<AdminOp> {
    let mut cursor = Cursor::new(payload);
    if cursor.u8()? != TAG_ADMIN {
        return Err(invalid("expected an admin frame"));
    }
    let op = decode_admin_body(&mut cursor)?;
    cursor.finish()?;
    Ok(op)
}

fn decode_admin_body(cursor: &mut Cursor<'_>) -> io::Result<AdminOp> {
    match cursor.u8()? {
        ADMIN_OP_LOAD => {
            let model = cursor.u16()?;
            let length = cursor.u16()? as usize;
            if length > MAX_ADMIN_PATH_BYTES {
                return Err(invalid("plan path length exceeds the cap"));
            }
            let bytes = cursor.bytes(length)?;
            let path =
                String::from_utf8(bytes.to_vec()).map_err(|_| invalid("plan path is not UTF-8"))?;
            Ok(AdminOp::LoadModel { model, path })
        }
        ADMIN_OP_UNLOAD => Ok(AdminOp::UnloadModel {
            model: cursor.u16()?,
        }),
        ADMIN_OP_DRAIN => Ok(AdminOp::Drain),
        ADMIN_OP_STATUS => Ok(AdminOp::Status),
        other => Err(invalid(format!("unknown admin op {other}"))),
    }
}

/// Serializes and sends the answer to an admin frame.
///
/// # Errors
///
/// Propagates I/O failures; rejects a message longer than its `u16` length
/// field can declare.
pub fn write_admin_response(writer: &mut impl Write, response: &AdminResponse) -> io::Result<()> {
    if response.message.len() > usize::from(u16::MAX) {
        return Err(invalid(format!(
            "{}-byte admin message exceeds the u16 length cap",
            response.message.len()
        )));
    }
    let mut frame = start_frame(
        TAG_ADMIN_RESPONSE,
        16 + 2 * response.models.len() + response.message.len(),
    );
    frame.push(u8::from(response.ok));
    frame.push(u8::from(response.draining));
    frame.extend_from_slice(&response.generation.to_le_bytes());
    frame.extend_from_slice(&(response.models.len() as u16).to_le_bytes());
    for model in &response.models {
        frame.extend_from_slice(&model.to_le_bytes());
    }
    frame.extend_from_slice(&(response.message.len() as u16).to_le_bytes());
    frame.extend_from_slice(response.message.as_bytes());
    write_frame(writer, frame)
}

/// Reads one admin response; `Ok(None)` on clean EOF.
///
/// # Errors
///
/// Propagates I/O failures; returns `InvalidData` for malformed frames.
pub fn read_admin_response(reader: &mut impl Read) -> io::Result<Option<AdminResponse>> {
    let Some(payload) = read_frame(reader)? else {
        return Ok(None);
    };
    Ok(Some(decode_admin_response(&payload)?))
}

/// Parses an admin-response frame payload (as yielded by a
/// [`FrameDecoder`]).
///
/// # Errors
///
/// Returns `InvalidData` for malformed frames.
pub fn decode_admin_response(payload: &[u8]) -> io::Result<AdminResponse> {
    let mut cursor = Cursor::new(payload);
    if cursor.u8()? != TAG_ADMIN_RESPONSE {
        return Err(invalid("expected an admin response frame"));
    }
    let ok = decode_bool(cursor.u8()?)?;
    let draining = decode_bool(cursor.u8()?)?;
    let generation = cursor.u64()?;
    let count = cursor.u16()? as usize;
    // The count is bounded by its u16 field, but still cross-check it
    // against the bytes actually present before allocating.
    if count * 2 > cursor.remaining() {
        return Err(invalid(format!(
            "admin response declares {count} models but the frame is shorter"
        )));
    }
    let mut models = Vec::with_capacity(count);
    for _ in 0..count {
        models.push(cursor.u16()?);
    }
    let length = cursor.u16()? as usize;
    let bytes = cursor.bytes(length)?;
    let message =
        String::from_utf8(bytes.to_vec()).map_err(|_| invalid("admin message is not UTF-8"))?;
    cursor.finish()?;
    Ok(AdminResponse {
        ok,
        draining,
        generation,
        models,
        message,
    })
}

fn decode_bool(byte: u8) -> io::Result<bool> {
    match byte {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(invalid(format!("flag byte {other} is not a boolean"))),
    }
}

/// Parses the rest of a request frame (`model deadline_ms id shape pixels`)
/// once its tag and version have been checked.
fn decode_request_body(cursor: &mut Cursor<'_>) -> io::Result<Request> {
    let model = cursor.u16()?;
    let deadline_ms = cursor.u32()?;
    let id = cursor.u64()?;
    let shape = [
        cursor.u16()? as usize,
        cursor.u16()? as usize,
        cursor.u16()? as usize,
    ];
    // Checked product: 65535³ fits a u64 but a hostile peer must not be able
    // to rely on any platform's `usize` arithmetic wrapping.
    let count = checked_shape_product(shape)
        .ok_or_else(|| invalid(format!("shape {shape:?} overflows the element count")))?;
    if count == 0 {
        return Err(invalid(format!(
            "shape {shape:?} declares a zero-length stream"
        )));
    }
    // Bound the allocation by what the (already size-capped) frame actually
    // carries before trusting the declared shape: a 19-byte frame claiming a
    // 65535³-pixel image must not drive a petabyte `Vec` reservation.
    if count != cursor.remaining() / 4 {
        return Err(invalid(format!(
            "shape {shape:?} declares {count} pixels but the frame carries {}",
            cursor.remaining() / 4
        )));
    }
    let mut pixels = Vec::with_capacity(count);
    for _ in 0..count {
        pixels.push(f32::from_le_bytes(cursor.array::<4>()?));
    }
    cursor.finish()?;
    Ok(Request {
        id,
        model,
        deadline_ms,
        shape,
        pixels,
    })
}

/// Reads one message — a request, a health-probe ping, or an admin frame;
/// `Ok(None)` on clean EOF.
///
/// A request declaring any version but [`PROTOCOL_VERSION`], or a frame
/// with any other tag, is `InvalidData` naming it — the tag and version
/// bytes are checked before anything else in the payload is trusted.
///
/// # Errors
///
/// Propagates I/O failures; returns `InvalidData` for malformed frames.
pub fn read_message(reader: &mut impl Read) -> io::Result<Option<Message>> {
    let Some(payload) = read_frame(reader)? else {
        return Ok(None);
    };
    Ok(Some(decode_message(&payload)?))
}

/// Parses a request-side frame payload (as yielded by a [`FrameDecoder`]):
/// a request, a health-probe ping, or an admin frame. Tag and version
/// checks match [`read_message`] exactly — the two share this parser.
///
/// # Errors
///
/// Returns `InvalidData` for malformed frames.
pub fn decode_message(payload: &[u8]) -> io::Result<Message> {
    let mut cursor = Cursor::new(payload);
    match cursor.u8()? {
        TAG_REQUEST => {
            let version = cursor.u8()?;
            if version != PROTOCOL_VERSION {
                return Err(invalid(format!(
                    "unsupported protocol version {version} (this reader speaks \
                     {PROTOCOL_VERSION})"
                )));
            }
            Ok(Message::Request(decode_request_body(&mut cursor)?))
        }
        TAG_PING => {
            let nonce = cursor.u64()?;
            cursor.finish()?;
            Ok(Message::Ping { nonce })
        }
        TAG_ADMIN => {
            let op = decode_admin_body(&mut cursor)?;
            cursor.finish()?;
            Ok(Message::Admin(op))
        }
        tag => Err(invalid(format!(
            "expected a request frame, got frame tag {tag:#04x}"
        ))),
    }
}

/// Reads one request; `Ok(None)` on clean EOF.
///
/// A ping frame is `InvalidData` to this reader — callers that also answer
/// health probes use [`read_message`].
///
/// # Errors
///
/// Propagates I/O failures; returns `InvalidData` for malformed frames.
pub fn read_request(reader: &mut impl Read) -> io::Result<Option<Request>> {
    match read_message(reader)? {
        None => Ok(None),
        Some(Message::Request(request)) => Ok(Some(request)),
        Some(Message::Ping { .. }) => Err(invalid("expected a request frame, got a ping")),
        Some(Message::Admin(_)) => Err(invalid("expected a request frame, got an admin frame")),
    }
}

/// Serializes and sends a response frame.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_response(writer: &mut impl Write, response: &Response) -> io::Result<()> {
    let mut frame = start_frame(TAG_RESPONSE, 0);
    frame.extend_from_slice(&response.id().to_le_bytes());
    match response {
        Response::Ok { argmax, logits, .. } => {
            // Reject before the `as u32` length cast can truncate: a logit
            // count past the frame cap would otherwise serialize a frame
            // whose declared count disagrees with its contents.
            if logits.len() > MAX_FRAME_BYTES / 8 {
                return Err(invalid(format!(
                    "{} logits exceed the frame cap",
                    logits.len()
                )));
            }
            frame.push(0);
            frame.extend_from_slice(&argmax.to_le_bytes());
            frame.extend_from_slice(&(logits.len() as u32).to_le_bytes());
            for logit in logits {
                frame.extend_from_slice(&logit.to_le_bytes());
            }
        }
        Response::Err { code, message, .. } => {
            if message.len() > MAX_FRAME_BYTES {
                return Err(invalid(format!(
                    "{}-byte error message exceeds the frame cap",
                    message.len()
                )));
            }
            frame.push(code.status());
            frame.extend_from_slice(&(message.len() as u32).to_le_bytes());
            frame.extend_from_slice(message.as_bytes());
        }
    }
    write_frame(writer, frame)
}

/// Reads one response; `Ok(None)` on clean EOF.
///
/// # Errors
///
/// Propagates I/O failures; returns `InvalidData` for malformed frames.
pub fn read_response(reader: &mut impl Read) -> io::Result<Option<Response>> {
    let Some(payload) = read_frame(reader)? else {
        return Ok(None);
    };
    Ok(Some(decode_response(&payload)?))
}

/// Parses a response frame payload (as yielded by a [`FrameDecoder`]).
///
/// # Errors
///
/// Returns `InvalidData` for malformed frames.
pub fn decode_response(payload: &[u8]) -> io::Result<Response> {
    let mut cursor = Cursor::new(payload);
    if cursor.u8()? != TAG_RESPONSE {
        return Err(invalid("expected a response frame"));
    }
    let id = cursor.u64()?;
    let response = match cursor.u8()? {
        0 => {
            let argmax = cursor.u16()?;
            let count = cursor.u32()? as usize;
            if count > MAX_FRAME_BYTES / 8 {
                return Err(invalid("logit count exceeds the frame cap"));
            }
            let mut logits = Vec::with_capacity(count);
            for _ in 0..count {
                logits.push(f64::from_le_bytes(cursor.array::<8>()?));
            }
            Response::Ok { id, argmax, logits }
        }
        status => {
            let Some(code) = ErrorCode::from_status(status) else {
                return Err(invalid(format!("unknown response status {status}")));
            };
            let length = cursor.u32()? as usize;
            let bytes = cursor.bytes(length)?;
            let message = String::from_utf8(bytes.to_vec())
                .map_err(|_| invalid("error message is not UTF-8"))?;
            Response::Err { id, code, message }
        }
    };
    cursor.finish()?;
    Ok(response)
}

/// Minimal slice cursor (keeps the parsers allocation-light and bounded).
struct Cursor<'a> {
    data: &'a [u8],
    offset: usize,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self { data, offset: 0 }
    }

    fn bytes(&mut self, count: usize) -> io::Result<&'a [u8]> {
        let end = self
            .offset
            .checked_add(count)
            .filter(|&end| end <= self.data.len())
            .ok_or_else(|| invalid("truncated frame"))?;
        let slice = &self.data[self.offset..end];
        self.offset = end;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        Ok(self.bytes(N)?.try_into().expect("exact length"))
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.array::<1>()?[0])
    }

    fn u16(&mut self) -> io::Result<u16> {
        Ok(u16::from_le_bytes(self.array::<2>()?))
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.array::<4>()?))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.array::<8>()?))
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.offset
    }

    fn finish(&self) -> io::Result<()> {
        if self.offset == self.data.len() {
            Ok(())
        } else {
            Err(invalid("trailing bytes in frame"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip() {
        let mut wire = Vec::new();
        let pixels: Vec<f32> = (0..12).map(|i| i as f32 / 12.0).collect();
        write_request_v3(&mut wire, 42, 0, 0, [1, 3, 4], &pixels).unwrap();
        let parsed = read_request(&mut wire.as_slice()).unwrap().unwrap();
        assert_eq!(parsed.id, 42);
        assert_eq!(parsed.model, 0);
        assert_eq!(parsed.deadline_ms, 0);
        assert_eq!(parsed.shape, [1, 3, 4]);
        assert_eq!(parsed.pixels, pixels);
        // EOF after the frame.
        let mut reader = wire.as_slice();
        let _ = read_request(&mut reader).unwrap();
        assert!(read_request(&mut reader).unwrap().is_none());
    }

    #[test]
    fn v2_request_round_trips_with_model_id() {
        let pixels: Vec<f32> = (0..6).map(|i| i as f32 / 6.0).collect();
        for model in [0u16, 1, 7, u16::MAX] {
            let mut wire = Vec::new();
            write_request_v2(&mut wire, 42, model, [1, 2, 3], &pixels).unwrap();
            // The deadline-free shorthand emits the one request layout.
            let mut v3 = Vec::new();
            write_request_v3(&mut v3, 42, model, 0, [1, 2, 3], &pixels).unwrap();
            assert_eq!(wire, v3);
            let parsed = read_request(&mut wire.as_slice()).unwrap().unwrap();
            assert_eq!(parsed.id, 42);
            assert_eq!(parsed.model, model);
            assert_eq!(parsed.deadline_ms, 0);
            assert_eq!(parsed.shape, [1, 2, 3]);
            assert_eq!(parsed.pixels, pixels);
        }
        // The shorthand applies the same shape validation.
        let mut wire = Vec::new();
        assert!(write_request_v2(&mut wire, 1, 3, [0, 2, 3], &[]).is_err());
        assert!(write_request_v2(&mut wire, 1, 3, [1, 2, 3], &[0.0; 5]).is_err());
        assert!(wire.is_empty());
    }

    #[test]
    fn unknown_protocol_version_is_rejected() {
        // Every layout but tag 0x03 / version 3 must fail before any of its
        // payload is trusted: the retired v1 tag, the retired version 2 and
        // a version from the future. The header bytes are patched at the
        // payload level and the frame re-checksummed, so each failure below
        // is the tag or version check, not corruption detection.
        let mut wire = Vec::new();
        write_request_v3(&mut wire, 5, 2, 0, [1, 1, 1], &[0.25]).unwrap();
        // Payload sits between the 4-byte length prefix and the 4-byte
        // checksum trailer: [tag, version, ...].
        let payload = wire[4..wire.len() - FRAME_CRC_BYTES].to_vec();
        for (byte, value, named) in [
            (0, 0x01, "tag 0x01"),
            (1, 2, "version 2"),
            (1, PROTOCOL_VERSION + 1, "version 4"),
        ] {
            let mut patched = payload.clone();
            patched[byte] = value;
            let error = read_request(&mut frame(&patched).as_slice()).unwrap_err();
            assert_eq!(error.kind(), io::ErrorKind::InvalidData, "{named}");
            assert!(error.to_string().contains(named), "{named}: {error}");
        }
    }

    #[test]
    fn forward_request_preserves_wire_version_by_model_and_deadline() {
        // Forwarding writes the one request layout, byte-identical to a
        // direct write, and the model and deadline survive the hop.
        let pixels = [0.5f32, 0.25];
        for (model, deadline_ms) in [(0u16, 0u32), (3, 0), (0, 250)] {
            let request = Request {
                id: 11,
                model,
                deadline_ms,
                shape: [1, 1, 2],
                pixels: pixels.to_vec(),
            };
            let mut forwarded = Vec::new();
            forward_request(&mut forwarded, &request).unwrap();
            let mut direct = Vec::new();
            write_request_v3(&mut direct, 11, model, deadline_ms, [1, 1, 2], &pixels).unwrap();
            assert_eq!(forwarded, direct);
            assert_eq!(
                read_request(&mut forwarded.as_slice()).unwrap().unwrap(),
                request
            );
        }
    }

    #[test]
    fn v3_request_round_trips_deadline_and_model() {
        let pixels: Vec<f32> = (0..4).map(|i| i as f32 / 4.0).collect();
        for (model, deadline_ms) in [(0u16, 0u32), (1, 1), (7, 5_000), (u16::MAX, u32::MAX)] {
            let mut wire = Vec::new();
            write_request_v3(&mut wire, 21, model, deadline_ms, [1, 2, 2], &pixels).unwrap();
            let parsed = read_request(&mut wire.as_slice()).unwrap().unwrap();
            assert_eq!(parsed.id, 21);
            assert_eq!(parsed.model, model);
            assert_eq!(parsed.deadline_ms, deadline_ms);
            assert_eq!(parsed.pixels, pixels);
        }
    }

    /// A `Write` that records how many `write` calls each frame took.
    #[derive(Default)]
    struct CountingWriter {
        wire: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.wire.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Runs one frame writer and asserts the frame left in a single
    /// `write` that still carries a whole, checksummed frame.
    fn assert_one_write(name: &str, write: impl FnOnce(&mut CountingWriter) -> io::Result<()>) {
        let mut writer = CountingWriter::default();
        write(&mut writer).unwrap();
        assert_eq!(writer.writes, 1, "{name}: one write per frame");
        let mut decoder = FrameDecoder::new();
        assert_eq!(decoder.feed(&writer.wire).unwrap(), writer.wire.len());
        assert!(decoder.frame().is_some(), "{name}: incomplete frame");
    }

    #[test]
    fn every_frame_leaves_in_one_write() {
        // Length, payload and CRC written separately are the
        // write-write-read pattern that stalls on a delayed ACK when the
        // socket runs with Nagle on.
        assert_one_write("request", |w| {
            write_request_v3(w, 1, 0, 0, [1, 2, 2], &[0.5; 4])
        });
        let request = Request {
            id: 5,
            model: 2,
            deadline_ms: 250,
            shape: [1, 2, 2],
            pixels: vec![0.25; 4],
        };
        assert_one_write("forwarded request", |w| forward_request(w, &request));
        let ok = Response::Ok {
            id: 1,
            argmax: 3,
            logits: vec![0.1, 0.9],
        };
        assert_one_write("ok response", |w| write_response(w, &ok));
        let err = Response::Err {
            id: 1,
            code: ErrorCode::Overloaded,
            message: "queue full".into(),
        };
        assert_one_write("error response", |w| write_response(w, &err));
        assert_one_write("ping", |w| write_ping(w, 7));
        assert_one_write("pong", |w| write_pong(w, 7));
        let load = AdminOp::LoadModel {
            model: 1,
            path: "model-1.scp".into(),
        };
        assert_one_write("admin load", |w| write_admin(w, &load));
        assert_one_write("admin status", |w| write_admin(w, &AdminOp::Status));
        let status = AdminResponse {
            ok: true,
            draining: false,
            generation: 4,
            models: vec![0, 1],
            message: "loaded".into(),
        };
        assert_one_write("admin response", |w| write_admin_response(w, &status));
    }

    #[test]
    fn ping_pong_round_trips_and_stays_separate_from_requests() {
        let mut wire = Vec::new();
        write_ping(&mut wire, 0xDEAD_BEEF).unwrap();
        match read_message(&mut wire.as_slice()).unwrap().unwrap() {
            Message::Ping { nonce } => assert_eq!(nonce, 0xDEAD_BEEF),
            other => panic!("expected a ping, got {other:?}"),
        }
        // The request-only reader refuses pings instead of misparsing them.
        let error = read_request(&mut wire.as_slice()).unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
        assert!(error.to_string().contains("ping"), "{error}");
        // Pong side.
        let mut wire = Vec::new();
        write_pong(&mut wire, 99).unwrap();
        let mut reader = wire.as_slice();
        assert_eq!(read_pong(&mut reader).unwrap(), Some(99));
        assert_eq!(read_pong(&mut reader).unwrap(), None);
        // A pong is not a valid message on the request side.
        assert!(read_message(&mut wire.as_slice()).is_err());
    }

    #[test]
    fn admin_ops_round_trip_through_the_message_reader() {
        let ops = [
            AdminOp::LoadModel {
                model: 3,
                path: "/var/lib/sc/model-3.scp".into(),
            },
            AdminOp::UnloadModel { model: 1 },
            AdminOp::Drain,
            AdminOp::Status,
        ];
        for op in &ops {
            let mut wire = Vec::new();
            write_admin(&mut wire, op).unwrap();
            match read_message(&mut wire.as_slice()).unwrap().unwrap() {
                Message::Admin(parsed) => assert_eq!(&parsed, op),
                other => panic!("expected an admin frame, got {other:?}"),
            }
            assert_eq!(
                decode_admin(&wire[4..wire.len() - FRAME_CRC_BYTES]).unwrap(),
                *op
            );
            // The request-only reader refuses admin frames with a typed
            // error instead of misparsing them.
            let error = read_request(&mut wire.as_slice()).unwrap_err();
            assert_eq!(error.kind(), io::ErrorKind::InvalidData);
        }
        assert!(AdminOp::Drain.mutates());
        assert!(AdminOp::UnloadModel { model: 0 }.mutates());
        assert!(!AdminOp::Status.mutates());
        // An unknown op byte is a clean typed error.
        let payload = [TAG_ADMIN, 9];
        let error = read_message(&mut frame(&payload).as_slice()).unwrap_err();
        assert!(error.to_string().contains("admin op"), "{error}");
        // An oversized load path is refused on the writer side.
        let mut wire = Vec::new();
        let error = write_admin(
            &mut wire,
            &AdminOp::LoadModel {
                model: 0,
                path: "p".repeat(MAX_ADMIN_PATH_BYTES + 1),
            },
        )
        .unwrap_err();
        assert!(error.to_string().contains("cap"), "{error}");
        assert!(wire.is_empty());
    }

    #[test]
    fn admin_responses_round_trip_and_reject_corruption() {
        let responses = [
            AdminResponse {
                ok: true,
                draining: false,
                generation: 0,
                models: vec![],
                message: String::new(),
            },
            AdminResponse {
                ok: false,
                draining: true,
                generation: u64::MAX,
                models: vec![0, 2, 65535],
                message: "plan store: checksum mismatch".into(),
            },
        ];
        for response in &responses {
            let mut wire = Vec::new();
            write_admin_response(&mut wire, response).unwrap();
            let parsed = read_admin_response(&mut wire.as_slice()).unwrap().unwrap();
            assert_eq!(&parsed, response);
        }
        // Clean EOF.
        assert!(read_admin_response(&mut [].as_slice()).unwrap().is_none());
        // A declared model count larger than the frame is rejected before
        // allocation, and a non-boolean flag byte is typed.
        let mut payload = vec![TAG_ADMIN_RESPONSE, 1, 0];
        payload.extend_from_slice(&7u64.to_le_bytes());
        payload.extend_from_slice(&u16::MAX.to_le_bytes());
        let error = read_admin_response(&mut frame(&payload).as_slice()).unwrap_err();
        assert!(error.to_string().contains("models"), "{error}");
        let mut payload = vec![TAG_ADMIN_RESPONSE, 2, 0];
        payload.extend_from_slice(&7u64.to_le_bytes());
        payload.extend_from_slice(&0u16.to_le_bytes());
        payload.extend_from_slice(&0u16.to_le_bytes());
        let error = read_admin_response(&mut frame(&payload).as_slice()).unwrap_err();
        assert!(error.to_string().contains("boolean"), "{error}");
        // Single-bit corruption of an admin exchange is always detected by
        // the readers that accept those frames.
        let mut op_wire = Vec::new();
        write_admin(&mut op_wire, &AdminOp::Status).unwrap();
        let mut resp_wire = Vec::new();
        write_admin_response(&mut resp_wire, &responses[1]).unwrap();
        for (label, wire, check) in [
            ("admin op", &op_wire, true),
            ("admin response", &resp_wire, false),
        ] {
            for offset in 0..wire.len() {
                for bit in 0..8 {
                    let mut corrupt = wire.clone();
                    corrupt[offset] ^= 1 << bit;
                    let detected = if check {
                        read_message(&mut corrupt.as_slice()).is_err()
                    } else {
                        read_admin_response(&mut corrupt.as_slice()).is_err()
                    };
                    assert!(detected, "{label} byte {offset} bit {bit} not detected");
                }
            }
        }
    }

    #[test]
    fn error_codes_round_trip_and_classify_retriability() {
        for code in [
            ErrorCode::App,
            ErrorCode::Overloaded,
            ErrorCode::DeadlineExceeded,
            ErrorCode::ShuttingDown,
            ErrorCode::ModelUnavailable,
        ] {
            let response = Response::Err {
                id: 6,
                code,
                message: format!("{code}"),
            };
            let mut wire = Vec::new();
            write_response(&mut wire, &response).unwrap();
            let parsed = read_response(&mut wire.as_slice()).unwrap().unwrap();
            assert_eq!(parsed, response);
            assert_eq!(parsed.error_code(), Some(code));
        }
        assert!(!ErrorCode::App.is_retriable());
        assert!(ErrorCode::Overloaded.is_retriable());
        assert!(ErrorCode::DeadlineExceeded.is_retriable());
        assert!(ErrorCode::ShuttingDown.is_retriable());
        assert!(ErrorCode::ModelUnavailable.is_retriable());
        assert_eq!(
            Response::Ok {
                id: 1,
                argmax: 0,
                logits: vec![]
            }
            .error_code(),
            None
        );
        // Status bytes from the future are a clean error.
        let mut payload = vec![TAG_RESPONSE];
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.push(9); // unknown status
        let error = read_response(&mut frame(&payload).as_slice()).unwrap_err();
        assert!(error.to_string().contains("status"), "{error}");
    }

    #[test]
    fn checked_shape_product_guards_overflow() {
        assert_eq!(checked_shape_product([2, 3, 4]), Some(24));
        assert_eq!(checked_shape_product([0, 3, 4]), Some(0));
        assert_eq!(checked_shape_product([usize::MAX, 2, 1]), None);
        assert_eq!(checked_shape_product([1 << 40, 1 << 40, 2]), None);
    }

    #[test]
    fn response_round_trips_ok_and_err() {
        let ok = Response::Ok {
            id: 7,
            argmax: 3,
            logits: vec![0.25, -0.5, 0.125],
        };
        let err = Response::app_err(8, "bad shape");
        let mut wire = Vec::new();
        write_response(&mut wire, &ok).unwrap();
        write_response(&mut wire, &err).unwrap();
        let mut reader = wire.as_slice();
        assert_eq!(read_response(&mut reader).unwrap().unwrap(), ok);
        assert_eq!(read_response(&mut reader).unwrap().unwrap(), err);
        assert!(read_response(&mut reader).unwrap().is_none());
        assert_eq!(ok.id(), 7);
    }

    #[test]
    fn huge_declared_shape_is_rejected_without_allocating() {
        // A tiny frame claiming a 65535^3-pixel image must be rejected by
        // the payload-size cross-check, not by an allocation attempt.
        let mut payload = request_header();
        payload.extend_from_slice(&1u64.to_le_bytes());
        for _ in 0..3 {
            payload.extend_from_slice(&u16::MAX.to_le_bytes());
        }
        let error = read_request(&mut frame(&payload).as_slice()).unwrap_err();
        assert!(error.to_string().contains("declares"), "{error}");
    }

    /// The request payload up to the body: tag, version, model 0 and no
    /// deadline.
    fn request_header() -> Vec<u8> {
        let mut payload = vec![TAG_REQUEST, PROTOCOL_VERSION];
        payload.extend_from_slice(&0u16.to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload
    }

    /// Wraps a raw payload in a length-prefixed, checksummed frame.
    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut wire = ((payload.len() + FRAME_CRC_BYTES) as u32)
            .to_le_bytes()
            .to_vec();
        wire.extend_from_slice(payload);
        wire.extend_from_slice(&crc32::checksum(payload).to_le_bytes());
        wire
    }

    #[test]
    fn zero_length_streams_are_rejected_on_both_sides() {
        // Writer side: a zero dimension means zero pixels — refuse to send.
        let mut wire = Vec::new();
        let error = write_request_v3(&mut wire, 1, 0, 0, [0, 4, 4], &[]).unwrap_err();
        assert!(error.to_string().contains("zero-length"), "{error}");
        // Reader side: a hand-crafted zero-shape frame is rejected before
        // the empty pixel vector could flow into the engine.
        let mut payload = request_header();
        payload.extend_from_slice(&3u64.to_le_bytes());
        for dim in [0u16, 4, 4] {
            payload.extend_from_slice(&dim.to_le_bytes());
        }
        let error = read_request(&mut frame(&payload).as_slice()).unwrap_err();
        assert!(error.to_string().contains("zero-length"), "{error}");
    }

    #[test]
    fn truncated_request_payload_is_invalid_data() {
        // A request whose frame header promises more pixels than the frame
        // carries must fail the declared/carried cross-check, not read
        // out of bounds or under-fill the pixel vector.
        let mut payload = request_header();
        payload.extend_from_slice(&9u64.to_le_bytes());
        for dim in [1u16, 2, 2] {
            payload.extend_from_slice(&dim.to_le_bytes());
        }
        // 4 pixels declared, only 2 serialized.
        for pixel in [0.5f32, 0.25] {
            payload.extend_from_slice(&pixel.to_le_bytes());
        }
        let error = read_request(&mut frame(&payload).as_slice()).unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
        assert!(error.to_string().contains("declares"), "{error}");
    }

    #[test]
    fn huge_declared_response_length_is_rejected() {
        // An Ok response declaring u32::MAX logits in a tiny frame must be
        // stopped by the logit-count cap, not a 32-GiB allocation.
        let mut payload = vec![TAG_RESPONSE];
        payload.extend_from_slice(&5u64.to_le_bytes());
        payload.push(0); // status ok
        payload.extend_from_slice(&1u16.to_le_bytes()); // argmax
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // logit count
        let error = read_response(&mut frame(&payload).as_slice()).unwrap_err();
        assert!(error.to_string().contains("cap"), "{error}");
        // Same for an error message whose declared length exceeds the frame.
        let mut payload = vec![TAG_RESPONSE];
        payload.extend_from_slice(&6u64.to_le_bytes());
        payload.push(1); // status err
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // message length
        let error = read_response(&mut frame(&payload).as_slice()).unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_writer_lengths_fail_before_the_cast_truncates() {
        // The u32 length casts on the writer side are guarded: a response
        // larger than the frame cap errors out instead of truncating its
        // declared length.
        let too_many_logits = Response::Ok {
            id: 1,
            argmax: 0,
            logits: vec![0.0; MAX_FRAME_BYTES / 8 + 1],
        };
        let mut wire = Vec::new();
        let error = write_response(&mut wire, &too_many_logits).unwrap_err();
        assert!(error.to_string().contains("cap"), "{error}");
        assert!(wire.is_empty(), "nothing may hit the wire on error");
        // An admin message longer than its u16 length field is refused too,
        // instead of serializing a frame its own decoder rejects.
        let mut response = AdminResponse {
            ok: false,
            draining: false,
            generation: 1,
            models: vec![0],
            message: "m".repeat(usize::from(u16::MAX) + 1),
        };
        let error = write_admin_response(&mut wire, &response).unwrap_err();
        assert!(error.to_string().contains("cap"), "{error}");
        assert!(wire.is_empty(), "nothing may hit the wire on error");
        // The longest message the field can declare still round-trips.
        response.message.pop();
        write_admin_response(&mut wire, &response).unwrap();
        assert_eq!(
            read_admin_response(&mut wire.as_slice()).unwrap().unwrap(),
            response
        );
    }

    #[test]
    fn malformed_frames_are_rejected() {
        // Shape mismatch on the writer side.
        let mut wire = Vec::new();
        assert!(write_request_v3(&mut wire, 1, 0, 0, [1, 2, 2], &[0.0; 3]).is_err());
        // Oversized frame header.
        let huge = (MAX_FRAME_BYTES as u32 + 1).to_le_bytes();
        assert!(read_request(&mut huge.as_slice()).is_err());
        // Truncated payload.
        let mut ok_wire = Vec::new();
        write_request_v3(&mut ok_wire, 1, 0, 0, [1, 1, 1], &[0.5]).unwrap();
        let truncated = &ok_wire[..ok_wire.len() - 2];
        assert!(read_request(&mut &truncated[..]).is_err());
        // Request parsed as response.
        assert!(read_response(&mut ok_wire.as_slice()).is_err());
    }

    /// One valid frame of each kind, used as fuzz seeds below.
    fn fuzz_seed_frames() -> Vec<(&'static str, Vec<u8>)> {
        let pixels = [0.5f32, -0.25, 0.125, 1.0];
        let mut request = Vec::new();
        write_request_v3(&mut request, 5, 1, 750, [1, 2, 2], &pixels).unwrap();
        let mut ok = Vec::new();
        write_response(
            &mut ok,
            &Response::Ok {
                id: 6,
                argmax: 2,
                logits: vec![0.5, -1.0, 0.25],
            },
        )
        .unwrap();
        let mut err = Vec::new();
        write_response(
            &mut err,
            &Response::Err {
                id: 7,
                code: ErrorCode::Overloaded,
                message: "queue full".into(),
            },
        )
        .unwrap();
        let mut admin = Vec::new();
        write_admin(
            &mut admin,
            &AdminOp::LoadModel {
                model: 2,
                path: "/tmp/model.scp".into(),
            },
        )
        .unwrap();
        let mut admin_resp = Vec::new();
        write_admin_response(
            &mut admin_resp,
            &AdminResponse {
                ok: true,
                draining: false,
                generation: 3,
                models: vec![0, 1, 2],
                message: String::new(),
            },
        )
        .unwrap();
        vec![
            ("request", request),
            ("ok response", ok),
            ("err response", err),
            ("admin load", admin),
            ("admin response", admin_resp),
        ]
    }

    /// Feeds `wire` to every frame reader; each must return promptly with
    /// `Ok` or a typed error — a panic fails the test, a hang would trip the
    /// harness timeout. Pure in-memory readers cannot block, so termination
    /// of this call *is* the no-hang assertion.
    fn assert_clean_parse(label: &str, wire: &[u8]) {
        for (side, result) in [
            ("read_request", read_request(&mut &wire[..]).map(|_| ())),
            ("read_message", read_message(&mut &wire[..]).map(|_| ())),
            ("read_response", read_response(&mut &wire[..]).map(|_| ())),
            ("read_pong", read_pong(&mut &wire[..]).map(|_| ())),
            (
                "read_admin_response",
                read_admin_response(&mut &wire[..]).map(|_| ()),
            ),
        ] {
            if let Err(error) = result {
                assert!(
                    !matches!(error.kind(), io::ErrorKind::OutOfMemory),
                    "{label}/{side}: allocation blow-up: {error}"
                );
            }
        }
    }

    #[test]
    fn truncation_at_every_byte_is_a_clean_typed_error() {
        // Every prefix of a valid frame must parse as clean EOF (when the
        // cut lands exactly on a frame boundary, i.e. length 0 here) or a
        // typed error — never a panic, wild allocation, or misparse.
        for (label, wire) in fuzz_seed_frames() {
            for cut in 0..wire.len() {
                assert_clean_parse(&format!("{label} cut at {cut}"), &wire[..cut]);
            }
            // Zero-byte input is clean EOF on all readers.
            assert!(read_request(&mut &wire[..0]).unwrap().is_none());
            assert!(read_response(&mut &wire[..0]).unwrap().is_none());
        }
    }

    #[test]
    fn single_byte_corruption_is_always_detected() {
        // Deterministic fuzz: flip every bit position of every byte of each
        // seed frame (8x coverage of single-byte corruption per offset) and
        // require every reader to return a typed error — never a panic,
        // hang, allocation blow-up, or silent misparse. CRC-32 detects all
        // single-bit errors over the payload + trailer; a flipped length
        // prefix misaligns the checksum window, which these vectors also
        // fail. Before the checksum trailer existed this test could only
        // assert safety, not detection (a flipped pixel byte parsed as a
        // different-but-valid frame).
        for (label, wire) in fuzz_seed_frames() {
            for offset in 0..wire.len() {
                for bit in 0..8 {
                    let mut corrupt = wire.clone();
                    corrupt[offset] ^= 1 << bit;
                    let context = format!("{label} byte {offset} bit {bit}");
                    assert_clean_parse(&context, &corrupt);
                    for (side, outcome) in [
                        ("read_request", read_request(&mut &corrupt[..]).map(|_| ())),
                        (
                            "read_response",
                            read_response(&mut &corrupt[..]).map(|_| ()),
                        ),
                        ("read_pong", read_pong(&mut &corrupt[..]).map(|_| ())),
                    ] {
                        assert!(
                            outcome.is_err(),
                            "{context}/{side}: corruption not detected"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn checksum_mismatch_is_a_typed_error() {
        let mut wire = Vec::new();
        write_request_v3(&mut wire, 8, 0, 0, [1, 1, 2], &[0.5, 0.25]).unwrap();
        // Flip a pixel byte: structurally the frame still parses, so only
        // the checksum can catch this.
        let pixel_offset = wire.len() - FRAME_CRC_BYTES - 3;
        wire[pixel_offset] ^= 0x40;
        let error = read_request(&mut wire.as_slice()).unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
        assert!(error.to_string().contains("checksum"), "{error}");
    }
}
