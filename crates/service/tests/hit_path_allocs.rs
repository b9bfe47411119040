//! DESIGN.md invariant 15, second half: serving an installed pair
//! allocates nothing — not in `read_frame_into`, the planner lookup,
//! `to_wire_into`, the response buffer or the socket buffer.
//!
//! The test reads the counting `#[global_allocator]`'s process-wide
//! counter (daemon threads, this client, the test harness), so the file
//! holds this one test and its client loop works from bytes and buffers
//! prepared before the count starts.

use kar::{EncodeRequest, Protection, WireMode};
use kar_service::proto::{self, Request, HEADER_RESPONSE_PREFIX};
use kar_service::{expected_header, Daemon, ServiceConfig};
use kar_topology::rnp28;
use std::io::{Read, Write};
use std::net::TcpStream;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::process_allocations;

/// A window of pipelined requests and the response bytes (frames and
/// all) it must produce.
struct Window {
    requests: Vec<u8>,
    responses: Vec<u8>,
}

/// Writes the window in one go and compares what comes back, through
/// `scratch` alone.
fn exchange(stream: &mut TcpStream, window: &Window, scratch: &mut [u8]) {
    stream.write_all(&window.requests).expect("write");
    let got = &mut scratch[..window.responses.len()];
    stream.read_exact(got).expect("read");
    assert!(got == &window.responses[..], "a response differs");
}

#[test]
fn ten_thousand_warm_encodes_allocate_nothing() {
    const WINDOW: usize = 25;
    let topo = rnp28::build();
    let edges = topo.edge_nodes();
    let recovery = ServiceConfig::new(topo.clone()).recovery;
    let mut windows = Vec::new();
    let mut pairs = edges
        .iter()
        .flat_map(|&s| edges.iter().map(move |&d| (s, d)))
        .filter(|(s, d)| s != d)
        .cycle();
    // 16 windows of 25 = 400 requests a pass, both wire modes in each.
    for _ in 0..16 {
        let mut window = Window {
            requests: Vec::new(),
            responses: Vec::new(),
        };
        for (i, (src, dst)) in (0..WINDOW).zip(&mut pairs) {
            let mode = [WireMode::Fixed, WireMode::Varint][i % 2];
            let request = Request::Encode {
                src: src.0 as u32,
                dst: dst.0 as u32,
                protection: Protection::None,
                mode,
            };
            let payload = proto::encode_request(&request).expect("transportable");
            proto::write_frame(&mut window.requests, &payload).expect("in-memory write");
            let header =
                expected_header(&topo, &EncodeRequest::new(src, dst), recovery.clone(), &[])
                    .expect("rnp28 is connected");
            let mut payload = HEADER_RESPONSE_PREFIX.to_vec();
            header.to_wire_into(mode, &mut payload);
            proto::write_frame(&mut window.responses, &payload).expect("in-memory write");
        }
        windows.push(window);
    }
    let mut scratch = vec![0u8; windows.iter().map(|w| w.responses.len()).max().unwrap()];

    let daemon = Daemon::spawn(ServiceConfig::new(topo)).expect("spawn");
    let mut stream = TcpStream::connect(daemon.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    // Two passes of warm-up: the first installs every pair, the second
    // lets every per-connection buffer reach its final size.
    for window in windows.iter().chain(&windows) {
        exchange(&mut stream, window, &mut scratch);
    }

    let (allocated, ()) = process_allocations(|| {
        for window in windows.iter().cycle().take(10_000 / WINDOW) {
            exchange(&mut stream, window, &mut scratch);
        }
        // Depth 1 too: one request, one flush, still nothing to allocate.
        for frame in windows[0]
            .requests
            .chunks(windows[0].requests.len() / WINDOW)
        {
            stream.write_all(frame).expect("write");
            let mut len = [0u8; 4];
            stream.read_exact(&mut len).expect("read");
            let len = u32::from_be_bytes(len) as usize;
            stream.read_exact(&mut scratch[..len]).expect("read");
        }
    });
    assert!(
        allocated < 100,
        "10 000 warm encodes raised the allocation count by {allocated}"
    );
    drop(stream);
    daemon.shutdown();
}
