//! Property tests for `kar_service::proto`, the counterpart of
//! `crates/core/tests/wire_properties.rs` one layer up: whatever bytes a
//! peer sends,
//!
//! * `decode_request` / `decode_response` return an error or a value
//!   that re-encodes to exactly those bytes (one message, one spelling)
//!   — for byte soup and for every truncation and every one-byte
//!   mutation of valid messages;
//! * `read_frame` never panics, never holds more than `MAX_FRAME_LEN`
//!   bytes, and a frame it accepts re-frames to the bytes it consumed.

use kar::{Protection, WireMode};
use kar_service::proto::{
    decode_request, decode_response, encode_request, encode_response, read_frame, read_frame_into,
    status, write_frame,
};
use kar_service::{Request, Response, ServiceStats, MAX_FRAME_LEN};
use proptest::prelude::*;

fn assert_request_is_canonical(bytes: &[u8]) {
    if let Ok(request) = decode_request(bytes) {
        let again = encode_request(&request).expect("a decoded request is transportable");
        assert_eq!(again, bytes, "{request:?}");
    }
}

fn assert_response_is_canonical(bytes: &[u8]) {
    if let Ok(response) = decode_response(bytes) {
        assert_eq!(encode_response(&response), bytes, "{response:?}");
    }
}

/// `check` on every truncation of `valid` and on every one-byte
/// mutation of it (each position, a few replacement bytes).
fn for_each_neighbour(valid: &[u8], salt: u8, check: fn(&[u8])) {
    for cut in 0..=valid.len() {
        check(&valid[..cut]);
    }
    let mut mutated = valid.to_vec();
    for at in 0..valid.len() {
        for replacement in [0, 1, 2, 3, 0x7f, 0x80, 0xff, valid[at] ^ salt] {
            mutated[at] = replacement;
            check(&mutated);
        }
        mutated[at] = valid[at];
    }
}

fn requests() -> impl Strategy<Value = Request> {
    let protection = prop_oneof![
        Just(Protection::None),
        Just(Protection::AutoFull),
        any::<u32>().prop_map(|max_bits| Protection::AutoBudget { max_bits }),
    ];
    let mode = prop_oneof![Just(WireMode::Fixed), Just(WireMode::Varint)];
    prop_oneof![
        (any::<u32>(), any::<u32>(), protection, mode).prop_map(|(src, dst, protection, mode)| {
            Request::Encode {
                src,
                dst,
                protection,
                mode,
            }
        }),
        (any::<u32>(), any::<bool>()).prop_map(|(link, up)| Request::Invalidate { link, up }),
        Just(Request::Stats),
    ]
}

fn responses() -> impl Strategy<Value = Response> {
    let stats = proptest::collection::vec(any::<u64>(), 8..9).prop_map(|v| ServiceStats {
        requests: v[0],
        encode_ok: v[1],
        encode_err: v[2],
        invalidations: v[3],
        idle_timeouts: v[4],
        cache_hits: v[5],
        cache_misses: v[6],
        uptime_ns: v[7],
    });
    let message = proptest::collection::vec(0x20u8..0x7f, 0..40)
        .prop_map(|ascii| String::from_utf8(ascii).expect("printable ASCII"));
    prop_oneof![
        Just(Response::Ok),
        proptest::collection::vec(any::<u8>(), 0..48).prop_map(Response::Header),
        stats.prop_map(Response::Stats),
        (status::BAD_REQUEST..=status::INTERNAL, message)
            .prop_map(|(code, message)| Response::Error { code, message }),
    ]
}

proptest! {
    #[test]
    fn byte_soup_decodes_to_an_error_or_to_itself(
        bytes in proptest::collection::vec(any::<u8>(), 0..80),
        version_and_op in 0usize..4
    ) {
        assert_request_is_canonical(&bytes);
        assert_response_is_canonical(&bytes);
        // Soup behind a plausible start gets past the first two checks.
        let mut plausible = vec![1, version_and_op as u8];
        plausible.extend_from_slice(&bytes);
        assert_request_is_canonical(&plausible);
        assert_response_is_canonical(&plausible);
    }

    #[test]
    fn neighbours_of_valid_requests_are_errors_or_canonical(
        request in requests(),
        salt in 1u8..=255
    ) {
        let bytes = encode_request(&request).expect("no Segments generated");
        prop_assert_eq!(decode_request(&bytes), Ok(request));
        for_each_neighbour(&bytes, salt, assert_request_is_canonical);
        // A request is never mistaken for a response that is not itself.
        for_each_neighbour(&bytes, salt, assert_response_is_canonical);
    }

    #[test]
    fn neighbours_of_valid_responses_are_errors_or_canonical(
        response in responses(),
        salt in 1u8..=255
    ) {
        let bytes = encode_response(&response);
        prop_assert_eq!(decode_response(&bytes), Ok(response));
        for_each_neighbour(&bytes, salt, assert_response_is_canonical);
        for_each_neighbour(&bytes, salt, assert_request_is_canonical);
    }

    #[test]
    fn read_frame_is_total_and_bounded(
        len in prop_oneof![0u32..64, 0u32..(2 * MAX_FRAME_LEN as u32), any::<u32>()],
        body in proptest::collection::vec(any::<u8>(), 0..96)
    ) {
        let mut stream = len.to_be_bytes().to_vec();
        stream.extend_from_slice(&body);
        for cut in [stream.len(), stream.len().min(5), stream.len().min(3)] {
            let mut input = &stream[..cut];
            let mut payload = Vec::new();
            match read_frame_into(&mut input, &mut payload) {
                Ok(true) => {
                    prop_assert_eq!(payload.len(), len as usize);
                    let mut again = Vec::new();
                    write_frame(&mut again, &payload).expect("it fit once");
                    prop_assert_eq!(&again[..], &stream[..cut - input.len()]);
                }
                Ok(false) => prop_assert_eq!(cut, 0),
                Err(_) => {}
            }
            // Whatever the prefix claimed, the buffer never outgrew a
            // legal frame.
            prop_assert!(payload.capacity() <= MAX_FRAME_LEN);
            let whole = read_frame(&mut &stream[..cut]);
            prop_assert!(whole.ok().flatten().is_none_or(|p| p.len() <= MAX_FRAME_LEN));
        }
    }
}
