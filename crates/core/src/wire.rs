//! The canonical on-the-wire route-ID serialization (paper §2.3).
//!
//! A route ID is carried in a packet-header field; Eq. 9 gives the
//! width a *fixed* field must have for a given switch-ID set. Before
//! this module existed the repo had three private spellings of "route
//! ID to bytes" waiting to happen (simulator tag stamping, service
//! payloads, test fixtures). Now there is exactly one:
//!
//! * [`RouteHeader`] — the §2.3 fixed-width field: packs a route ID
//!   into exactly the bits its basis needs (rounded up to whole bytes
//!   on the wire, as a real shim header would be), refuses IDs that do
//!   not fit — the paper's "if the route and all the designed
//!   [protection paths] do not fit the Route ID field length, the
//!   source routed path cannot be fully protected" — and unpacks on
//!   egress.
//! * [`WireMode`] — the two self-delimiting framings of a header:
//!   [`WireMode::Fixed`] carries the declared field width (hardware
//!   shim-header shaped), [`WireMode::Varint`] carries a
//!   length-prefixed minimal encoding (control-plane shaped, for
//!   payloads where route IDs of many sizes share a stream).
//! * [`RouteHeader::to_wire`] / [`RouteHeader::from_wire`] — the one
//!   byte layout shared by the simulator's packet path, the
//!   `kar-service` daemon and its clients. The
//!   loopback test in `crates/service` asserts the daemon's bytes are
//!   identical to the in-process ones for every route it checks.
//!
//! # Wire layouts
//!
//! ```text
//! Fixed:  [0x00][bits: u16 BE][field: ceil(bits/8) bytes, BE]
//! Varint: [0x01][len: uvarint][magnitude: len bytes, BE, minimal]
//! ```
//!
//! `uvarint` is LEB128: little-endian 7-bit groups, high bit set on
//! every byte except the last. Decoding is strict: unused high bits of
//! a fixed field must be zero, a varint magnitude must not carry
//! leading zero bytes (zero itself is `len = 0`), and over-long LEB128
//! encodings are rejected — for any byte string at most one
//! `(header, consumed)` parse exists.

use crate::error::KarError;
use crate::route::EncodedRoute;
use kar_rns::BigUint;
use std::fmt;

/// Widest fixed field [`RouteHeader::from_wire`] accepts (the width
/// rides in a `u16`). `BENCH_scale.json`'s deepest committed sweep
/// needs 2309 bits; 65535 leaves room for every topology the campaign
/// generator can express.
pub const MAX_FIELD_BITS: u32 = u16::MAX as u32;

/// How a [`RouteHeader`] is framed on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireMode {
    /// The §2.3 shim header: declared field width plus the padded
    /// big-endian field. What the dataplane carries.
    Fixed,
    /// Length-prefixed minimal magnitude. What control-plane payloads
    /// carry when many differently-sized route IDs share a stream.
    Varint,
}

impl WireMode {
    /// The discriminant byte leading a serialized header.
    pub fn as_byte(self) -> u8 {
        match self {
            WireMode::Fixed => 0,
            WireMode::Varint => 1,
        }
    }

    /// Parses a discriminant byte.
    pub fn from_byte(b: u8) -> Option<WireMode> {
        match b {
            0 => Some(WireMode::Fixed),
            1 => Some(WireMode::Varint),
            _ => None,
        }
    }
}

impl fmt::Display for WireMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireMode::Fixed => write!(f, "fixed"),
            WireMode::Varint => write!(f, "varint"),
        }
    }
}

/// Why a byte string failed to parse as a serialized route header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the layout did.
    Truncated {
        /// Bytes the layout needed from the failing position on.
        needed: usize,
        /// Bytes actually available there.
        have: usize,
    },
    /// Unknown mode discriminant byte.
    BadMode(u8),
    /// A fixed field declared more than [`MAX_FIELD_BITS`] bits (or
    /// zero bits — a field narrower than one bit cannot carry an ID).
    BadFieldWidth {
        /// The declared width.
        bits: u32,
    },
    /// The carried value does not fit the declared field: unused high
    /// bits of a fixed field were set.
    Overflow {
        /// Bits the carried value needs.
        needed_bits: u32,
        /// Bits the field declares.
        field_bits: u32,
    },
    /// A non-minimal encoding: leading zero magnitude byte, or an
    /// over-long LEB128 length.
    NonCanonical,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, have } => {
                write!(
                    f,
                    "truncated frame: needed {needed} more byte(s), have {have}"
                )
            }
            WireError::BadMode(b) => write!(f, "unknown wire mode {b:#04x}"),
            WireError::BadFieldWidth { bits } => {
                write!(f, "bad field width: {bits} bits")
            }
            WireError::Overflow {
                needed_bits,
                field_bits,
            } => write!(
                f,
                "value needs {needed_bits} bits but the field declares {field_bits}"
            ),
            WireError::NonCanonical => write!(f, "non-canonical encoding"),
        }
    }
}

impl std::error::Error for WireError {}

/// Appends `v` as LEB128 (7 bits per byte, continuation high bit).
pub fn write_uvarint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one LEB128 value, returning `(value, bytes consumed)`.
/// Strict: over-long encodings (a redundant trailing `0x00` group or
/// more than 10 bytes) and truncated buffers are rejected.
pub fn read_uvarint(buf: &[u8]) -> Result<(u64, usize), WireError> {
    let mut value: u64 = 0;
    for (i, &byte) in buf.iter().enumerate() {
        if i == 10 {
            return Err(WireError::NonCanonical);
        }
        let group = (byte & 0x7f) as u64;
        // The 10th byte may only carry the top bit of a u64.
        if i == 9 && group > 1 {
            return Err(WireError::NonCanonical);
        }
        value |= group << (7 * i as u32);
        if byte & 0x80 == 0 {
            // Minimality: a continuation followed by an all-zero final
            // group re-encodes a shorter value.
            if i > 0 && group == 0 {
                return Err(WireError::NonCanonical);
            }
            return Ok((value, i + 1));
        }
    }
    Err(WireError::Truncated { needed: 1, have: 0 })
}

/// A fixed-width route-ID header field.
///
/// # Examples
///
/// ```
/// use kar::RouteHeader;
/// use kar_rns::BigUint;
///
/// // The paper's protected example R = 660 needs an 11-bit field.
/// let header = RouteHeader::pack(&BigUint::from(660u64), 11)?;
/// assert_eq!(header.wire_bytes(), 2);
/// assert_eq!(header.unpack().to_u64(), Some(660));
/// # Ok::<(), kar::KarError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteHeader {
    /// Field width in bits.
    bits: u32,
    /// Big-endian field contents (`ceil(bits / 8)` bytes).
    bytes: Vec<u8>,
}

impl RouteHeader {
    /// Packs `route_id` into a `bits`-wide field.
    ///
    /// # Errors
    ///
    /// [`KarError::HeaderOverflow`] when the route ID needs more than
    /// `bits` bits — the §2.3 overflow case that forces partial
    /// protection.
    pub fn pack(route_id: &BigUint, bits: u32) -> Result<RouteHeader, KarError> {
        if route_id.bits() > bits {
            return Err(KarError::HeaderOverflow {
                needed_bits: route_id.bits(),
                field_bits: bits,
            });
        }
        let width = bits.div_ceil(8) as usize;
        let raw = route_id.to_bytes_be();
        let mut bytes = vec![0u8; width];
        bytes[width - raw.len()..].copy_from_slice(&raw);
        Ok(RouteHeader { bits, bytes })
    }

    /// Packs an encoded route into the *exact* field its basis needs
    /// (Eq. 9).
    ///
    /// # Errors
    ///
    /// Never fails for a well-formed [`EncodedRoute`] (its ID is below
    /// the basis product by construction); the `Result` keeps the API
    /// uniform with [`RouteHeader::pack`].
    pub fn for_route(route: &EncodedRoute) -> Result<RouteHeader, KarError> {
        Self::pack(&route.route_id, route.bit_length().max(1))
    }

    /// Field width in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Wire size in bytes of the bare field (whole bytes, like a real
    /// shim header; framing bytes of [`RouteHeader::to_wire`] not
    /// included).
    pub fn wire_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The raw big-endian field.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Unpacks the route ID (egress side).
    pub fn unpack(&self) -> BigUint {
        BigUint::from_bytes_be(&self.bytes)
    }

    /// Serializes self-delimitingly in the given mode (see the module
    /// docs for the layouts). `Fixed` preserves the declared field
    /// width; `Varint` carries only the value — decoding it yields a
    /// header exactly as wide as the value needs.
    pub fn to_wire(&self, mode: WireMode) -> Vec<u8> {
        let mut out = Vec::with_capacity(3 + self.bytes.len());
        self.to_wire_into(mode, &mut out);
        out
    }

    /// Appends the [`RouteHeader::to_wire`] bytes to `out`, allocating
    /// nothing when `out` has the room (the `kar-service` hit path
    /// reuses one buffer per connection).
    pub fn to_wire_into(&self, mode: WireMode, out: &mut Vec<u8>) {
        out.push(mode.as_byte());
        match mode {
            WireMode::Fixed => {
                out.extend_from_slice(&(self.bits as u16).to_be_bytes());
                out.extend_from_slice(&self.bytes);
            }
            WireMode::Varint => {
                // The minimal magnitude is the field without its leading
                // zero bytes (none at all for zero).
                let zeros = self.bytes.iter().take_while(|&&b| b == 0).count();
                let magnitude = &self.bytes[zeros..];
                write_uvarint(out, magnitude.len() as u64);
                out.extend_from_slice(magnitude);
            }
        }
    }

    /// Parses one serialized header from the front of `buf`, returning
    /// it with the number of bytes consumed. Strict (see module docs):
    /// every byte string has at most one parse.
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncation, unknown mode, bad field width,
    /// value/field overflow, or a non-canonical encoding.
    pub fn from_wire(buf: &[u8]) -> Result<(RouteHeader, usize), WireError> {
        let &mode = buf
            .first()
            .ok_or(WireError::Truncated { needed: 1, have: 0 })?;
        match WireMode::from_byte(mode).ok_or(WireError::BadMode(mode))? {
            WireMode::Fixed => {
                let width = buf.get(1..3).ok_or(WireError::Truncated {
                    needed: 2,
                    have: buf.len() - 1,
                })?;
                let bits = u16::from_be_bytes([width[0], width[1]]) as u32;
                if bits == 0 {
                    return Err(WireError::BadFieldWidth { bits });
                }
                let len = bits.div_ceil(8) as usize;
                let field = buf.get(3..3 + len).ok_or(WireError::Truncated {
                    needed: len,
                    have: buf.len() - 3,
                })?;
                let value = BigUint::from_bytes_be(field);
                if value.bits() > bits {
                    return Err(WireError::Overflow {
                        needed_bits: value.bits(),
                        field_bits: bits,
                    });
                }
                Ok((
                    RouteHeader {
                        bits,
                        bytes: field.to_vec(),
                    },
                    3 + len,
                ))
            }
            WireMode::Varint => {
                let (len, consumed) = read_uvarint(&buf[1..])?;
                let len = usize::try_from(len).map_err(|_| WireError::NonCanonical)?;
                let start = 1 + consumed;
                let magnitude = buf.get(start..start + len).ok_or(WireError::Truncated {
                    needed: len,
                    have: buf.len() - start,
                })?;
                if magnitude.first() == Some(&0) {
                    return Err(WireError::NonCanonical);
                }
                let value = BigUint::from_bytes_be(magnitude);
                let header = RouteHeader::pack(&value, value.bits().max(1))
                    .expect("a value always fits its own bit count");
                Ok((header, start + len))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::RouteSpec;
    use kar_topology::topo15;

    #[test]
    fn packs_the_papers_examples() {
        // R = 44 over {4,7,11}: 9-bit field (M-1 = 307) → 2 wire bytes.
        let h = RouteHeader::pack(&BigUint::from(44u64), 9).unwrap();
        assert_eq!(h.bits(), 9);
        assert_eq!(h.wire_bytes(), 2);
        assert_eq!(h.as_bytes(), &[0x00, 0x2c]);
        assert_eq!(h.unpack().to_u64(), Some(44));
        // R = 660 over {4,7,11,5}: 11-bit field.
        let h = RouteHeader::pack(&BigUint::from(660u64), 11).unwrap();
        assert_eq!(h.unpack().to_u64(), Some(660));
    }

    #[test]
    fn rejects_overflow_with_the_dedicated_variant() {
        // 660 needs 10 bits; a 9-bit field cannot hold it.
        let err = RouteHeader::pack(&BigUint::from(660u64), 9).unwrap_err();
        assert_eq!(
            err,
            KarError::HeaderOverflow {
                needed_bits: 10,
                field_bits: 9
            }
        );
        assert!(err.to_string().contains("10 bits"), "{err}");
    }

    #[test]
    fn round_trips_table1_routes() {
        let topo = topo15::build();
        let primary = topo15::primary_route(&topo);
        let mut pairs = topo15::protection_pairs(&topo, &topo15::PARTIAL_PROTECTION);
        pairs.extend(topo15::protection_pairs(
            &topo,
            &topo15::FULL_EXTRA_PROTECTION,
        ));
        for (segments, expect_bits, expect_bytes) in [(Vec::new(), 15, 2), (pairs.clone(), 43, 6)] {
            let route =
                EncodedRoute::encode(&topo, &RouteSpec::protected(primary.clone(), segments))
                    .unwrap();
            let h = RouteHeader::for_route(&route).unwrap();
            assert_eq!(h.bits(), expect_bits);
            assert_eq!(h.wire_bytes(), expect_bytes);
            assert_eq!(h.unpack(), route.route_id);
        }
    }

    #[test]
    fn zero_route_id_packs() {
        let h = RouteHeader::pack(&BigUint::zero(), 1).unwrap();
        assert_eq!(h.wire_bytes(), 1);
        assert!(h.unpack().is_zero());
    }

    #[test]
    fn uvarint_round_trips_and_is_strict() {
        for v in [0u64, 1, 127, 128, 300, 16383, 16384, u64::MAX] {
            let mut buf = Vec::new();
            write_uvarint(&mut buf, v);
            assert_eq!(read_uvarint(&buf).unwrap(), (v, buf.len()), "v={v}");
            // Self-delimiting: trailing junk is not consumed.
            buf.push(0xaa);
            assert_eq!(read_uvarint(&buf).unwrap(), (v, buf.len() - 1));
        }
        // Truncated continuation.
        assert!(matches!(
            read_uvarint(&[0x80]),
            Err(WireError::Truncated { .. })
        ));
        // Over-long: 128 spelled with a redundant zero group.
        assert_eq!(
            read_uvarint(&[0x80, 0x80, 0x00]),
            Err(WireError::NonCanonical)
        );
        // 11-byte encodings cannot be u64s.
        assert_eq!(read_uvarint(&[0xff; 11]), Err(WireError::NonCanonical));
    }

    #[test]
    fn fixed_wire_round_trips_the_full_header() {
        let h = RouteHeader::pack(&BigUint::from(660u64), 43).unwrap();
        let wire = h.to_wire(WireMode::Fixed);
        assert_eq!(wire[0], 0);
        assert_eq!(wire.len(), 3 + h.wire_bytes());
        let (back, consumed) = RouteHeader::from_wire(&wire).unwrap();
        assert_eq!(consumed, wire.len());
        assert_eq!(back, h, "fixed mode preserves the declared width");
    }

    #[test]
    fn varint_wire_round_trips_the_value() {
        for v in [0u64, 1, 44, 660, u64::MAX] {
            let value = BigUint::from(v);
            let h = RouteHeader::pack(&value, value.bits().max(1) + 5).unwrap();
            let wire = h.to_wire(WireMode::Varint);
            let (back, consumed) = RouteHeader::from_wire(&wire).unwrap();
            assert_eq!(consumed, wire.len());
            assert_eq!(back.unpack(), value);
            assert_eq!(back.bits(), value.bits().max(1), "varint forgets padding");
        }
    }

    #[test]
    fn from_wire_rejects_malformed_frames() {
        assert!(matches!(
            RouteHeader::from_wire(&[]),
            Err(WireError::Truncated { .. })
        ));
        assert_eq!(RouteHeader::from_wire(&[9]), Err(WireError::BadMode(9)));
        // Fixed: declared width 0.
        assert_eq!(
            RouteHeader::from_wire(&[0, 0, 0]),
            Err(WireError::BadFieldWidth { bits: 0 })
        );
        // Fixed: field truncated (9 bits needs 2 bytes).
        assert!(matches!(
            RouteHeader::from_wire(&[0, 0, 9, 0x2c]),
            Err(WireError::Truncated { .. })
        ));
        // Fixed: unused high bits set (9-bit field carrying 0x3ff).
        assert_eq!(
            RouteHeader::from_wire(&[0, 0, 9, 0x03, 0xff]),
            Err(WireError::Overflow {
                needed_bits: 10,
                field_bits: 9
            })
        );
        // Varint: leading zero magnitude byte.
        assert_eq!(
            RouteHeader::from_wire(&[1, 2, 0x00, 0x2c]),
            Err(WireError::NonCanonical)
        );
        // Varint: magnitude truncated.
        assert!(matches!(
            RouteHeader::from_wire(&[1, 3, 0x2c]),
            Err(WireError::Truncated { .. })
        ));
    }
}
