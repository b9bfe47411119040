//! Property tests for the `kar::wire` serialization — the single
//! route-ID framing shared by the simulator's packet path, the
//! `kar-service` daemon and the load driver:
//!
//! * every route of the paper's topologies round-trips through both
//!   wire modes byte-exactly and value-exactly;
//! * arbitrary byte soup never panics the decoder, and every accepted
//!   parse re-encodes to exactly the bytes it consumed (canonicality);
//! * truncating a valid frame anywhere always yields `Truncated` or
//!   another clean error, never a bogus success of the full value;
//! * `to_wire_into` appends exactly the bytes `to_wire` produced when
//!   its varint arm still went through a `BigUint`.

use kar::{EncodeRequest, KarNetwork, Protection, RouteHeader, WireError, WireMode};
use kar_topology::{rnp28, topo15, Topology};
use proptest::prelude::*;

/// Every ordered edge pair's route header on `topo`, in both
/// protection extremes (plain shortest path and fully protected).
fn all_headers(topo: &Topology) -> Vec<RouteHeader> {
    let mut net = KarNetwork::new(topo, kar::DeflectionTechnique::Nip);
    let mut out = Vec::new();
    let edges = topo.edge_nodes();
    for &src in &edges {
        for &dst in &edges {
            if src == dst {
                continue;
            }
            for protection in [Protection::None, Protection::AutoFull] {
                let outcome = net
                    .encode(&EncodeRequest::new(src, dst).with_protection(protection))
                    .expect("paper topologies are connected");
                out.push(outcome.header);
            }
        }
    }
    out
}

#[test]
fn every_paper_route_round_trips_in_both_modes() {
    for topo in [topo15::build(), rnp28::build()] {
        for header in all_headers(&topo) {
            for mode in [WireMode::Fixed, WireMode::Varint] {
                let frame = header.to_wire(mode);
                let (parsed, consumed) = RouteHeader::from_wire(&frame)
                    .unwrap_or_else(|e| panic!("{mode}: {e} on {} bits", header.bits()));
                assert_eq!(consumed, frame.len(), "{mode}: whole frame consumed");
                assert_eq!(parsed.unpack(), header.unpack(), "{mode}: value survives");
                assert_eq!(
                    parsed.to_wire(mode),
                    frame,
                    "{mode}: re-encoding is byte-identical"
                );
            }
        }
    }
}

#[test]
fn truncating_a_valid_frame_never_yields_a_full_parse() {
    let topo = topo15::build();
    for header in all_headers(&topo).into_iter().take(8) {
        for mode in [WireMode::Fixed, WireMode::Varint] {
            let frame = header.to_wire(mode);
            for cut in 0..frame.len() {
                match RouteHeader::from_wire(&frame[..cut]) {
                    Err(WireError::Truncated { .. }) => {}
                    Err(other) => panic!("{mode} cut at {cut}: unexpected error {other}"),
                    Ok((parsed, consumed)) => {
                        // A shorter *valid* prefix may parse (e.g. a
                        // varint length that fits in fewer bytes than
                        // the cut) — but never by consuming bytes past
                        // the cut, and never as the full frame's value
                        // unless the cut kept all of it.
                        assert!(consumed <= cut);
                        assert_ne!(
                            (consumed, parsed.unpack()),
                            (frame.len(), header.unpack()),
                            "{mode}: truncation reproduced the full parse"
                        );
                    }
                }
            }
        }
    }
}

/// `RouteHeader::to_wire` as it was before it became a wrapper over
/// `to_wire_into`: the varint magnitude by way of `unpack()`.
fn to_wire_via_biguint(header: &RouteHeader, mode: WireMode) -> Vec<u8> {
    let mut out = vec![mode.as_byte()];
    match mode {
        WireMode::Fixed => {
            out.extend_from_slice(&(header.bits() as u16).to_be_bytes());
            out.extend_from_slice(header.as_bytes());
        }
        WireMode::Varint => {
            let raw = header.unpack().to_bytes_be();
            let magnitude: &[u8] = if raw == [0] { &[] } else { &raw };
            kar::wire::write_uvarint(&mut out, magnitude.len() as u64);
            out.extend_from_slice(magnitude);
        }
    }
    out
}

/// Both forms against the reference, the into-buffer one appending
/// after bytes already there.
fn assert_wire_forms_agree(header: &RouteHeader) {
    for mode in [WireMode::Fixed, WireMode::Varint] {
        let want = to_wire_via_biguint(header, mode);
        assert_eq!(header.to_wire(mode), want, "{mode}, {} bits", header.bits());
        let mut out = vec![0xaa, 0xbb];
        header.to_wire_into(mode, &mut out);
        assert_eq!(out[..2], [0xaa, 0xbb], "{mode}: appends, never overwrites");
        assert_eq!(out[2..], want, "{mode}, {} bits", header.bits());
    }
}

#[test]
fn to_wire_into_matches_the_biguint_form_at_the_extremes() {
    use kar_rns::BigUint;
    // All-zero fields (the varint magnitude is empty), one byte to 3 KiB.
    for bits in [1, 8, 9, 24 * 1024] {
        assert_wire_forms_agree(&RouteHeader::pack(&BigUint::zero(), bits).unwrap());
    }
    // A full 3 KiB field, and the same value behind leading zero bytes.
    let value = BigUint::from_bytes_be(&[0xa5; 3 * 1024]);
    assert_wire_forms_agree(&RouteHeader::pack(&value, value.bits()).unwrap());
    assert_wire_forms_agree(&RouteHeader::pack(&value, value.bits() + 1000).unwrap());
    for topo in [topo15::build(), rnp28::build()] {
        all_headers(&topo).iter().for_each(assert_wire_forms_agree);
    }
}

proptest! {
    /// `to_wire_into` ≡ the old `to_wire` for arbitrary (bits, value)
    /// headers, padded fields included.
    #[test]
    fn to_wire_into_matches_the_biguint_form(
        bits in 1u32..512,
        raw in proptest::collection::vec(any::<u8>(), 1..64)
    ) {
        let value = kar_rns::BigUint::from_bytes_be(&raw);
        if let Ok(header) = RouteHeader::pack(&value, bits) {
            assert_wire_forms_agree(&header);
        }
    }

    /// Decoding arbitrary bytes never panics, and an accepted parse is
    /// canonical: re-serializing the parsed header in the frame's own
    /// mode reproduces exactly the consumed prefix.
    #[test]
    fn garbage_bytes_never_panic_and_accepted_parses_are_canonical(
        bytes in proptest::collection::vec(any::<u8>(), 0..64)
    ) {
        match RouteHeader::from_wire(&bytes) {
            Err(_) => {}
            Ok((header, consumed)) => {
                prop_assert!(consumed <= bytes.len());
                let mode = WireMode::from_byte(bytes[0]).expect("accepted frame has a mode");
                let reencoded = header.to_wire(mode);
                prop_assert_eq!(reencoded.as_slice(), &bytes[..consumed]);
            }
        }
    }

    /// Arbitrary (bits, value-bytes) headers round-trip through both
    /// modes whenever the value fits the declared field.
    #[test]
    fn random_headers_round_trip(
        bits in 1u32..512,
        raw in proptest::collection::vec(any::<u8>(), 1..64)
    ) {
        let value = kar_rns::BigUint::from_bytes_be(&raw);
        let header = match RouteHeader::pack(&value, bits) {
            Ok(h) => h,
            // Value wider than the field: the typed overflow error.
            Err(e) => {
                let s = e.to_string();
                prop_assert!(s.contains("bits"), "unexpected error {s}");
                return Ok(());
            }
        };
        for mode in [WireMode::Fixed, WireMode::Varint] {
            let frame = header.to_wire(mode);
            let (parsed, consumed) = RouteHeader::from_wire(&frame).expect("round trip");
            prop_assert_eq!(consumed, frame.len());
            prop_assert_eq!(parsed.unpack(), value.clone());
        }
    }
}
