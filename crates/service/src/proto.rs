//! The service wire protocol: length-prefixed frames carrying versioned
//! request/response payloads.
//!
//! Every frame is `[len: u32 BE][payload: len bytes]`. Payloads start
//! with a version byte ([`PROTOCOL_VERSION`]); requests follow with an
//! opcode byte, responses with a status byte. The full layouts live in
//! `docs/wire_protocol.md`; the route-ID bytes inside an encode
//! response are produced by [`kar::wire`] — byte-for-byte the same
//! serialization the simulator's packet path uses.
//!
//! Decoding is strict and total: every decoder consumes the whole
//! payload and rejects trailing bytes, so a request/response pair has
//! exactly one byte representation per ([`WireMode`]) choice.

use kar::{Protection, WireMode};
use std::fmt;
use std::io::{self, Read, Write};

/// Version byte leading every payload.
pub const PROTOCOL_VERSION: u8 = 1;

/// Hard ceiling on a frame payload. Generous: the largest legitimate
/// payload is an encode response carrying a route header, and
/// [`kar::wire::MAX_FIELD_BITS`] bounds those to ~8 KiB.
pub const MAX_FRAME_LEN: usize = 64 * 1024;

/// Request opcodes.
pub mod opcode {
    /// Encode a route and return its wire header.
    pub const ENCODE: u8 = 0x01;
    /// Report a link transition to the controller.
    pub const INVALIDATE: u8 = 0x02;
    /// Fetch daemon counters.
    pub const STATS: u8 = 0x03;
}

/// Response status codes (`0` is success; everything else is an error
/// whose body is a UTF-8 message).
pub mod status {
    /// Success.
    pub const OK: u8 = 0;
    /// The request payload did not parse (unknown opcode, bad
    /// protection tag, trailing bytes, …).
    pub const BAD_REQUEST: u8 = 1;
    /// The endpoints are disconnected ([`kar::KarError::NoPath`]).
    pub const NO_PATH: u8 = 2;
    /// Route encoding failed for another reason (header overflow,
    /// RNS error, …).
    pub const ENCODE_FAILED: u8 = 3;
    /// The daemon cannot serve the request: a worker panicked while
    /// holding the planner, so `encode` and `invalidate` are refused
    /// rather than run on a half-updated planner (`stats` still answers).
    pub const INTERNAL: u8 = 4;
}

/// A decoded request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `encode(src, dst, protection)` → the route's wire header,
    /// serialized in `mode`.
    Encode {
        /// Ingress edge, as a raw `NodeId` index.
        src: u32,
        /// Destination edge, as a raw `NodeId` index.
        dst: u32,
        /// Protection to fold into the route ID.
        protection: Protection,
        /// Framing of the returned header.
        mode: WireMode,
    },
    /// Report a link transition (`up = false` is a failure).
    Invalidate {
        /// Raw `LinkId` index.
        link: u32,
        /// `true` for repair, `false` for failure.
        up: bool,
    },
    /// Fetch the daemon's counters.
    Stats,
}

/// Daemon counters returned by [`Request::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Frames served (all opcodes, including failed ones).
    pub requests: u64,
    /// Successful encodes.
    pub encode_ok: u64,
    /// Failed encodes (an error status was returned).
    pub encode_err: u64,
    /// Link transitions applied.
    pub invalidations: u64,
    /// Connections closed for staying silent past the idle deadline.
    pub idle_timeouts: u64,
    /// Hits in the shared [`kar::EncodingCache`].
    pub cache_hits: u64,
    /// Misses in the shared [`kar::EncodingCache`].
    pub cache_misses: u64,
    /// Nanoseconds since the daemon started.
    pub uptime_ns: u64,
}

/// A decoded response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Encode succeeded; the body is the `kar::wire` serialization of
    /// the route header.
    Header(Vec<u8>),
    /// Invalidate succeeded (the transition is applied — a subsequent
    /// encode on any connection sees it).
    Ok,
    /// Stats snapshot.
    Stats(ServiceStats),
    /// Any failure; `code` is one of [`status`]'s non-zero values.
    Error {
        /// The [`status`] code.
        code: u8,
        /// Human-readable cause.
        message: String,
    },
}

/// Why a payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// Payload shorter than its layout.
    Truncated,
    /// Bytes past the end of the layout.
    TrailingBytes,
    /// Unsupported version byte.
    BadVersion(u8),
    /// Unknown opcode.
    BadOpcode(u8),
    /// Unknown status byte combination.
    BadStatus(u8),
    /// Unknown protection tag.
    BadProtection(u8),
    /// Unknown [`WireMode`] discriminant.
    BadMode(u8),
    /// An invalidate's `up` byte was neither `0` nor `1`.
    BadFlag(u8),
    /// An error message was not UTF-8.
    BadMessage,
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "truncated payload"),
            ProtoError::TrailingBytes => write!(f, "trailing bytes after payload"),
            ProtoError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            ProtoError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            ProtoError::BadStatus(s) => write!(f, "unknown status {s:#04x}"),
            ProtoError::BadProtection(t) => write!(f, "unknown protection tag {t:#04x}"),
            ProtoError::BadMode(m) => write!(f, "unknown wire mode {m:#04x}"),
            ProtoError::BadFlag(b) => write!(f, "flag byte {b:#04x} is neither 0 nor 1"),
            ProtoError::BadMessage => write!(f, "error message is not UTF-8"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Writes one frame: `[len: u32 BE][payload]`.
///
/// # Errors
///
/// Propagates I/O errors; rejects payloads above [`MAX_FRAME_LEN`] with
/// [`io::ErrorKind::InvalidInput`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame exceeds MAX_FRAME_LEN",
        ));
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)
}

/// Whether `buf` starts with one whole frame — what the daemon asks of
/// its read buffer before deciding to flush: a request that is already
/// here is answered in the same burst.
pub fn holds_frame(buf: &[u8]) -> bool {
    buf.split_first_chunk::<4>()
        .is_some_and(|(len, rest)| rest.len() >= u32::from_be_bytes(*len) as usize)
}

/// Reads one frame, returning `None` on a clean EOF at a frame
/// boundary.
///
/// # Errors
///
/// As [`read_frame_into`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut payload = Vec::new();
    Ok(read_frame_into(r, &mut payload)?.then_some(payload))
}

/// Reads one frame's payload into `payload` (replacing its contents,
/// reusing its allocation), returning `false` on a clean EOF at a frame
/// boundary.
///
/// # Errors
///
/// Propagates I/O errors; an EOF mid-frame is
/// [`io::ErrorKind::UnexpectedEof`], an oversized length prefix is
/// [`io::ErrorKind::InvalidData`] (rejected before any allocation, so a
/// call never holds more than [`MAX_FRAME_LEN`] bytes).
pub fn read_frame_into(r: &mut impl Read, payload: &mut Vec<u8>) -> io::Result<bool> {
    let mut len = [0u8; 4];
    // Distinguish "peer closed between frames" from "died mid-frame".
    let mut filled = 0;
    while filled < 4 {
        let n = r.read(&mut len[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(false);
            }
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        filled += n;
    }
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame length exceeds MAX_FRAME_LEN",
        ));
    }
    payload.clear();
    payload.resize(len, 0);
    r.read_exact(payload)?;
    Ok(true)
}

/// Strict little parsing cursor over a payload.
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn u8(&mut self) -> Result<u8, ProtoError> {
        let (&b, rest) = self.0.split_first().ok_or(ProtoError::Truncated)?;
        self.0 = rest;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        let (head, rest) = self
            .0
            .split_first_chunk::<4>()
            .ok_or(ProtoError::Truncated)?;
        self.0 = rest;
        Ok(u32::from_be_bytes(*head))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        let (head, rest) = self
            .0
            .split_first_chunk::<8>()
            .ok_or(ProtoError::Truncated)?;
        self.0 = rest;
        Ok(u64::from_be_bytes(*head))
    }

    fn rest(self) -> &'a [u8] {
        self.0
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(ProtoError::TrailingBytes)
        }
    }
}

/// Protection tags used inside encode requests.
mod protection_tag {
    pub const NONE: u8 = 0;
    pub const AUTO_FULL: u8 = 1;
    pub const AUTO_BUDGET: u8 = 2;
}

fn put_protection(out: &mut Vec<u8>, p: &Protection) -> Result<(), ProtoError> {
    match p {
        Protection::None => out.push(protection_tag::NONE),
        Protection::AutoFull => out.push(protection_tag::AUTO_FULL),
        Protection::AutoBudget { max_bits } => {
            out.push(protection_tag::AUTO_BUDGET);
            out.extend_from_slice(&max_bits.to_be_bytes());
        }
        // Explicit segments carry NodeIds only meaningful in-process;
        // the socket API does not transport them.
        Protection::Segments(_) => return Err(ProtoError::BadProtection(0xff)),
    }
    Ok(())
}

fn get_protection(c: &mut Cursor<'_>) -> Result<Protection, ProtoError> {
    Ok(match c.u8()? {
        protection_tag::NONE => Protection::None,
        protection_tag::AUTO_FULL => Protection::AutoFull,
        protection_tag::AUTO_BUDGET => Protection::AutoBudget { max_bits: c.u32()? },
        other => return Err(ProtoError::BadProtection(other)),
    })
}

/// Serializes a request payload.
///
/// # Errors
///
/// [`ProtoError::BadProtection`] for [`Protection::Segments`], which is
/// not representable on the wire.
pub fn encode_request(req: &Request) -> Result<Vec<u8>, ProtoError> {
    let mut out = vec![PROTOCOL_VERSION];
    match req {
        Request::Encode {
            src,
            dst,
            protection,
            mode,
        } => {
            out.push(opcode::ENCODE);
            out.extend_from_slice(&src.to_be_bytes());
            out.extend_from_slice(&dst.to_be_bytes());
            put_protection(&mut out, protection)?;
            out.push(mode.as_byte());
        }
        Request::Invalidate { link, up } => {
            out.push(opcode::INVALIDATE);
            out.extend_from_slice(&link.to_be_bytes());
            out.push(u8::from(*up));
        }
        Request::Stats => out.push(opcode::STATS),
    }
    Ok(out)
}

/// Parses a request payload (strict: trailing bytes are an error).
///
/// # Errors
///
/// [`ProtoError`] on any malformation.
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtoError> {
    let mut c = Cursor(payload);
    match c.u8()? {
        PROTOCOL_VERSION => {}
        v => return Err(ProtoError::BadVersion(v)),
    }
    let req = match c.u8()? {
        opcode::ENCODE => {
            let src = c.u32()?;
            let dst = c.u32()?;
            let protection = get_protection(&mut c)?;
            let mode_byte = c.u8()?;
            let mode = WireMode::from_byte(mode_byte).ok_or(ProtoError::BadMode(mode_byte))?;
            Request::Encode {
                src,
                dst,
                protection,
                mode,
            }
        }
        opcode::INVALIDATE => Request::Invalidate {
            link: c.u32()?,
            up: match c.u8()? {
                0 => false,
                1 => true,
                other => return Err(ProtoError::BadFlag(other)),
            },
        },
        opcode::STATS => Request::Stats,
        other => return Err(ProtoError::BadOpcode(other)),
    };
    c.finish()?;
    Ok(req)
}

/// Response discriminants following the status byte. Success bodies are
/// distinguished by a kind byte so `Ok`/`Header`/`Stats` round-trip
/// unambiguously.
mod response_kind {
    pub const OK: u8 = 0;
    pub const HEADER: u8 = 1;
    pub const STATS: u8 = 2;
}

/// How every encode-success payload starts; the `kar::wire` bytes of
/// the header follow. The daemon's hit path writes this and then the
/// stored header straight into its response buffer, never building a
/// [`Response::Header`].
pub const HEADER_RESPONSE_PREFIX: [u8; 3] = [PROTOCOL_VERSION, status::OK, response_kind::HEADER];

/// Serializes a response payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    encode_response_into(resp, &mut out);
    out
}

/// Appends a response payload to `out`.
pub fn encode_response_into(resp: &Response, out: &mut Vec<u8>) {
    match resp {
        Response::Ok => out.extend_from_slice(&[PROTOCOL_VERSION, status::OK, response_kind::OK]),
        Response::Header(bytes) => {
            out.extend_from_slice(&HEADER_RESPONSE_PREFIX);
            out.extend_from_slice(bytes);
        }
        Response::Stats(s) => {
            out.extend_from_slice(&[PROTOCOL_VERSION, status::OK, response_kind::STATS]);
            for v in [
                s.requests,
                s.encode_ok,
                s.encode_err,
                s.invalidations,
                s.idle_timeouts,
                s.cache_hits,
                s.cache_misses,
                s.uptime_ns,
            ] {
                out.extend_from_slice(&v.to_be_bytes());
            }
        }
        Response::Error { code, message } => {
            out.extend_from_slice(&[PROTOCOL_VERSION, *code]);
            out.extend_from_slice(message.as_bytes());
        }
    }
}

/// Parses a response payload.
///
/// # Errors
///
/// [`ProtoError`] on any malformation.
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtoError> {
    let mut c = Cursor(payload);
    match c.u8()? {
        PROTOCOL_VERSION => {}
        v => return Err(ProtoError::BadVersion(v)),
    }
    match c.u8()? {
        status::OK => match c.u8()? {
            response_kind::OK => {
                c.finish()?;
                Ok(Response::Ok)
            }
            response_kind::HEADER => Ok(Response::Header(c.rest().to_vec())),
            response_kind::STATS => {
                let s = ServiceStats {
                    requests: c.u64()?,
                    encode_ok: c.u64()?,
                    encode_err: c.u64()?,
                    invalidations: c.u64()?,
                    idle_timeouts: c.u64()?,
                    cache_hits: c.u64()?,
                    cache_misses: c.u64()?,
                    uptime_ns: c.u64()?,
                };
                c.finish()?;
                Ok(Response::Stats(s))
            }
            other => Err(ProtoError::BadStatus(other)),
        },
        code => {
            let message = std::str::from_utf8(c.rest())
                .map_err(|_| ProtoError::BadMessage)?
                .to_owned();
            Ok(Response::Error { code, message })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        for req in [
            Request::Encode {
                src: 0,
                dst: 14,
                protection: Protection::None,
                mode: WireMode::Fixed,
            },
            Request::Encode {
                src: 3,
                dst: 9,
                protection: Protection::AutoBudget { max_bits: 64 },
                mode: WireMode::Varint,
            },
            Request::Invalidate { link: 7, up: false },
            Request::Invalidate { link: 7, up: true },
            Request::Stats,
        ] {
            let bytes = encode_request(&req).unwrap();
            assert_eq!(decode_request(&bytes).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let stats = ServiceStats {
            requests: 10,
            encode_ok: 6,
            encode_err: 1,
            invalidations: 2,
            idle_timeouts: 1,
            cache_hits: 5,
            cache_misses: 1,
            uptime_ns: 123_456,
        };
        for resp in [
            Response::Ok,
            Response::Header(vec![0, 0, 15, 0x0a, 0xbc]),
            Response::Stats(stats),
            Response::Error {
                code: status::NO_PATH,
                message: "no path from n0 to n9".into(),
            },
        ] {
            let bytes = encode_response(&resp);
            assert_eq!(decode_response(&bytes).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn decoders_are_strict() {
        // Trailing byte after a well-formed request.
        let mut bytes = encode_request(&Request::Stats).unwrap();
        bytes.push(0);
        assert_eq!(decode_request(&bytes), Err(ProtoError::TrailingBytes));
        // Unknown version / opcode / mode / protection.
        assert_eq!(decode_request(&[9, 3]), Err(ProtoError::BadVersion(9)));
        assert_eq!(decode_request(&[1, 9]), Err(ProtoError::BadOpcode(9)));
        assert_eq!(
            decode_request(&[1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 9]),
            Err(ProtoError::BadMode(9))
        );
        assert_eq!(
            decode_request(&[1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 9, 0]),
            Err(ProtoError::BadProtection(9))
        );
        // One request, one spelling: `up` is 0 or 1.
        assert_eq!(
            decode_request(&[1, 2, 0, 0, 0, 7, 2]),
            Err(ProtoError::BadFlag(2))
        );
        // Truncated stats response.
        assert_eq!(decode_response(&[1, 0, 2, 0]), Err(ProtoError::Truncated));
        // Segments cannot cross the wire.
        let req = Request::Encode {
            src: 0,
            dst: 1,
            protection: Protection::Segments(Vec::new()),
            mode: WireMode::Fixed,
        };
        assert!(matches!(
            encode_request(&req),
            Err(ProtoError::BadProtection(_))
        ));
    }

    #[test]
    fn frames_round_trip_and_reject_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abc").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"abc"[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
        // EOF mid-frame is an error, not a silent None.
        let mut partial = &[0u8, 0, 0, 9, 1, 2][..];
        assert_eq!(
            read_frame(&mut partial).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        // Oversized length prefix is rejected before allocating.
        let mut huge = &[0xffu8, 0xff, 0xff, 0xff][..];
        assert_eq!(
            read_frame(&mut huge).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        assert!(write_frame(&mut Vec::new(), &vec![0; MAX_FRAME_LEN + 1]).is_err());
    }

    #[test]
    fn read_frame_is_the_into_buffer_form() {
        let mut two = Vec::new();
        write_frame(&mut two, b"abc").unwrap();
        write_frame(&mut two, &[7; 300]).unwrap();
        let oversize = (MAX_FRAME_LEN as u32 + 1).to_be_bytes();
        let inputs: [&[u8]; 7] = [
            &two,
            &two[..two.len() - 1],
            &two[..9],
            &two[..2],
            &[],
            &oversize,
            &[0, 0, 0, 0],
        ];
        for input in inputs {
            let (mut a, mut b) = (input, input);
            // One reused buffer, dirty from the frame before.
            let mut payload = vec![0xee; 17];
            loop {
                let whole = read_frame(&mut a).map_err(|e| e.kind());
                let into = read_frame_into(&mut b, &mut payload).map_err(|e| e.kind());
                assert_eq!(whole.clone().map(|f| f.is_some()), into, "{input:?}");
                assert_eq!(a, b, "both consumed the same bytes");
                match whole {
                    Ok(Some(frame)) => assert_eq!(frame, payload),
                    Ok(None) | Err(_) => break,
                }
            }
        }
    }

    #[test]
    fn holds_frame_sees_whole_frames_only() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abcde").unwrap();
        for cut in 0..buf.len() {
            assert!(!holds_frame(&buf[..cut]), "cut at {cut}");
        }
        assert!(holds_frame(&buf));
        buf.extend_from_slice(&[0, 0]);
        assert!(holds_frame(&buf), "what follows the frame does not matter");
        assert!(holds_frame(&[0, 0, 0, 0]), "an empty payload is a frame");
        assert!(!holds_frame(&[0xff; 64]));
    }
}
