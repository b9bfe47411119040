//! A blocking client for the daemon's wire protocol (used by the
//! loopback tests).

use crate::proto::{self, Request, Response, ServiceStats};
use kar::{Protection, RouteHeader, WireMode};
use std::fmt;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The response payload did not parse.
    Proto(proto::ProtoError),
    /// The daemon answered with an error status.
    Service {
        /// One of [`proto::status`]'s non-zero codes.
        code: u8,
        /// The daemon's message.
        message: String,
    },
    /// The daemon answered with the wrong response kind for the
    /// request (e.g. `Ok` to an encode).
    UnexpectedResponse,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Service { code, message } => {
                write!(f, "service error {code}: {message}")
            }
            ClientError::UnexpectedResponse => write!(f, "unexpected response kind"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<proto::ProtoError> for ClientError {
    fn from(e: proto::ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

/// One framed connection to a daemon.
pub struct ServiceClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl ServiceClient {
    /// Connects (with `TCP_NODELAY` — the protocol is request/response).
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(addr: SocketAddr) -> io::Result<ServiceClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(ServiceClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    fn round_trip(&mut self, req: &Request) -> Result<Response, ClientError> {
        let payload = proto::encode_request(req)?;
        proto::write_frame(&mut self.writer, &payload)?;
        self.writer.flush()?;
        let payload = proto::read_frame(&mut self.reader)?
            .ok_or_else(|| ClientError::Io(io::ErrorKind::UnexpectedEof.into()))?;
        let resp = proto::decode_response(&payload)?;
        if let Response::Error { code, message } = resp {
            return Err(ClientError::Service { code, message });
        }
        Ok(resp)
    }

    /// Encodes a route, returning the raw header bytes exactly as the
    /// daemon framed them in `mode`.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport, protocol or service failures.
    pub fn encode_raw(
        &mut self,
        src: u32,
        dst: u32,
        protection: &Protection,
        mode: WireMode,
    ) -> Result<Vec<u8>, ClientError> {
        match self.round_trip(&Request::Encode {
            src,
            dst,
            protection: protection.clone(),
            mode,
        })? {
            Response::Header(bytes) => Ok(bytes),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Encodes a route and parses the returned header.
    ///
    /// # Errors
    ///
    /// As [`ServiceClient::encode_raw`]; a header that fails
    /// [`RouteHeader::from_wire`] or leaves trailing bytes is a
    /// [`ClientError::Proto`]-grade corruption reported as
    /// [`ClientError::UnexpectedResponse`].
    pub fn encode(
        &mut self,
        src: u32,
        dst: u32,
        protection: &Protection,
        mode: WireMode,
    ) -> Result<RouteHeader, ClientError> {
        let bytes = self.encode_raw(src, dst, protection, mode)?;
        match RouteHeader::from_wire(&bytes) {
            Ok((header, consumed)) if consumed == bytes.len() => Ok(header),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Reports a link transition; returns once the controller applied
    /// it (later encodes on any connection see the new state).
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport, protocol or service failures.
    pub fn invalidate(&mut self, link: u32, up: bool) -> Result<(), ClientError> {
        match self.round_trip(&Request::Invalidate { link, up })? {
            Response::Ok => Ok(()),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Fetches the daemon's counters.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport, protocol or service failures.
    pub fn stats(&mut self) -> Result<ServiceStats, ClientError> {
        match self.round_trip(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }
}
