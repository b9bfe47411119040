//! Loopback integration: the daemon's encode responses must carry
//! byte-for-byte the header an in-process controller produces — the
//! sim/service byte-identity contract of the wire redesign.

use kar::recovery::RecoveryConfig;
use kar::{EncodeRequest, Protection, RouteHeader, WireMode};
use kar_service::{expected_header, Daemon, Response, ServiceClient, ServiceConfig};
use kar_simnet::SimTime;
use kar_topology::{rnp28, topo15, NodeId, Topology};

fn service_recovery() -> RecoveryConfig {
    RecoveryConfig {
        notification_delay: SimTime::ZERO,
        protection: Protection::None,
    }
}

/// Every ordered pair of distinct edge nodes of `topo`.
fn edge_pairs(topo: &Topology) -> Vec<(NodeId, NodeId)> {
    let edges = topo.edge_nodes();
    edges
        .iter()
        .flat_map(|&s| edges.iter().map(move |&d| (s, d)))
        .filter(|(s, d)| s != d)
        .collect()
}

/// Every ordered edge pair of `topo`, encoded over the socket in both
/// wire modes, must equal the in-process header bytes.
fn assert_all_pairs_byte_identical(topo: Topology) {
    let pairs = edge_pairs(&topo);
    let reference = topo.clone();
    let daemon = Daemon::spawn(ServiceConfig::new(topo)).expect("spawn");
    let mut client = ServiceClient::connect(daemon.addr()).expect("connect");
    for &(src, dst) in &pairs {
        let req = EncodeRequest::new(src, dst);
        let expected = expected_header(&reference, &req, service_recovery(), &[]).expect("encode");
        for mode in [WireMode::Fixed, WireMode::Varint] {
            let raw = client
                .encode_raw(src.0 as u32, dst.0 as u32, &Protection::None, mode)
                .expect("service encode");
            assert_eq!(
                raw,
                expected.to_wire(mode),
                "{src} -> {dst} ({mode}): service bytes must equal in-process bytes"
            );
            // And they parse back to the same header value.
            let (parsed, consumed) = RouteHeader::from_wire(&raw).expect("parse");
            assert_eq!(consumed, raw.len());
            assert_eq!(parsed.unpack(), expected.unpack());
        }
    }
    drop(client);
    daemon.shutdown();
}

#[test]
fn every_topo15_route_is_byte_identical_over_the_socket() {
    assert_all_pairs_byte_identical(topo15::build());
}

#[test]
fn every_rnp28_route_is_byte_identical_over_the_socket() {
    assert_all_pairs_byte_identical(rnp28::build());
}

/// What the single-connection tests above cannot see: several
/// connections served at once by different workers over one planner,
/// each still getting exactly the in-process bytes.
#[test]
fn concurrent_connections_get_byte_identical_headers() {
    const CONNECTIONS: usize = 4;
    const CALLS: usize = 2_500;
    let topo = topo15::build();
    let work: Vec<(u32, u32, WireMode, Vec<u8>)> = edge_pairs(&topo)
        .into_iter()
        .flat_map(|(src, dst)| {
            let req = EncodeRequest::new(src, dst);
            let header = expected_header(&topo, &req, service_recovery(), &[]).expect("encode");
            [WireMode::Fixed, WireMode::Varint]
                .map(|mode| (src.0 as u32, dst.0 as u32, mode, header.to_wire(mode)))
        })
        .collect();
    let daemon = Daemon::spawn(ServiceConfig::new(topo)).expect("spawn");
    let addr = daemon.addr();
    std::thread::scope(|scope| {
        for t in 0..CONNECTIONS {
            let work = &work;
            scope.spawn(move || {
                let mut client = ServiceClient::connect(addr).expect("connect");
                // Staggered offsets: the connections do not march through
                // the pairs in lockstep.
                let offset = t * work.len() / CONNECTIONS;
                for i in 0..CALLS {
                    let (src, dst, mode, expected) = &work[(offset + i) % work.len()];
                    let raw = client
                        .encode_raw(*src, *dst, &Protection::None, *mode)
                        .expect("service encode");
                    assert_eq!(&raw, expected, "connection {t}, call {i}: {src} -> {dst}");
                }
            });
        }
    });
    let mut client = ServiceClient::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.requests, (CONNECTIONS * CALLS) as u64 + 1);
    assert_eq!(stats.encode_err, 0);
    drop(client);
    daemon.shutdown();
}

#[test]
fn protected_encode_matches_in_process_bytes() {
    let topo = topo15::build();
    let reference = topo.clone();
    let daemon = Daemon::spawn(ServiceConfig::new(topo)).expect("spawn");
    let mut client = ServiceClient::connect(daemon.addr()).expect("connect");
    let (as1, as3) = (reference.expect("AS1"), reference.expect("AS3"));
    let req = EncodeRequest::new(as1, as3).with_protection(Protection::AutoFull);
    let expected = expected_header(&reference, &req, service_recovery(), &[]).unwrap();
    let raw = client
        .encode_raw(
            as1.0 as u32,
            as3.0 as u32,
            &Protection::AutoFull,
            WireMode::Fixed,
        )
        .unwrap();
    assert_eq!(raw, expected.to_wire(WireMode::Fixed));
    // The paper's fully protected AS1 -> AS3 route needs a 43-bit field.
    let (header, _) = RouteHeader::from_wire(&raw).unwrap();
    assert_eq!(header.bits(), 43);
    drop(client);
    daemon.shutdown();
}

#[test]
fn invalidate_switches_encodes_to_the_detour_and_back() {
    let topo = topo15::build();
    let reference = topo.clone();
    let failed = reference.expect_link("SW7", "SW13");
    let daemon = Daemon::spawn(ServiceConfig::new(topo)).expect("spawn");
    let mut client = ServiceClient::connect(daemon.addr()).expect("connect");
    let (as1, as3) = (reference.expect("AS1"), reference.expect("AS3"));
    let req = EncodeRequest::new(as1, as3);

    let original = client
        .encode(
            as1.0 as u32,
            as3.0 as u32,
            &Protection::None,
            WireMode::Fixed,
        )
        .unwrap();

    // Fail SW7-SW13: the next encode (same connection or a new one)
    // must serve the detour — the invalidate ack is the barrier.
    client.invalidate(failed.0 as u32, false).unwrap();
    let mut second = ServiceClient::connect(daemon.addr()).expect("connect");
    let detour = second
        .encode(
            as1.0 as u32,
            as3.0 as u32,
            &Protection::None,
            WireMode::Fixed,
        )
        .unwrap();
    assert_ne!(detour.unpack(), original.unpack());
    let expected =
        expected_header(&reference, &req, service_recovery(), &[(failed, false)]).unwrap();
    assert_eq!(detour.as_bytes(), expected.as_bytes());

    // Repair: the original route comes back.
    second.invalidate(failed.0 as u32, true).unwrap();
    let restored = client
        .encode(
            as1.0 as u32,
            as3.0 as u32,
            &Protection::None,
            WireMode::Fixed,
        )
        .unwrap();
    assert_eq!(restored.unpack(), original.unpack());

    let stats = client.stats().unwrap();
    assert_eq!(stats.invalidations, 2);
    assert_eq!(stats.encode_ok, 3);
    assert!(stats.requests >= 6);
    drop((client, second));
    daemon.shutdown();
}

#[test]
fn silent_connections_are_reaped_and_cannot_starve_the_pool() {
    use std::io::Write;
    use std::net::TcpStream;
    use std::time::Duration;

    // One worker makes starvation deterministic: a pinned worker means
    // nobody else is ever served.
    let mut config = ServiceConfig::new(topo15::build());
    config.workers = 1;
    config.idle_timeout = Duration::from_millis(100);
    let daemon = Daemon::spawn(config).expect("spawn");

    // A slowloris peer: connects first, claims the only worker, and
    // never writes a byte. Held open across the whole test — only the
    // idle deadline can free the worker.
    let silent = TcpStream::connect(daemon.addr()).expect("connect silent");

    // A second peer sending a partial frame then stalling exercises the
    // mid-frame case once the worker gets to it.
    let mut stalled = TcpStream::connect(daemon.addr()).expect("connect stalled");
    stalled.write_all(&[0, 0]).expect("partial length prefix");

    // A real client queued behind both. With no idle deadline this
    // stats call would block forever; with one it is served as soon as
    // the reaper frees the worker.
    let mut client = ServiceClient::connect(daemon.addr()).expect("connect");
    let stats = client.stats().expect("stats served past the silent peers");
    assert_eq!(
        stats.idle_timeouts, 2,
        "both the silent and the mid-frame connection were reaped"
    );
    assert_eq!(stats.requests, 1, "only the real client's frame counted");

    drop((silent, stalled, client));
    daemon.shutdown();
}

#[test]
fn malformed_and_unroutable_requests_get_error_statuses() {
    use kar_service::proto::status;
    let topo = topo15::build();
    let nodes = topo.node_count() as u32;
    let daemon = Daemon::spawn(ServiceConfig::new(topo)).expect("spawn");
    let mut client = ServiceClient::connect(daemon.addr()).expect("connect");
    // Out-of-range node index.
    let err = client
        .encode_raw(nodes + 1, 0, &Protection::None, WireMode::Fixed)
        .unwrap_err();
    match err {
        kar_service::ClientError::Service { code, .. } => assert_eq!(code, status::BAD_REQUEST),
        other => panic!("expected service error, got {other}"),
    }
    // The connection survives the error and still serves requests.
    let stats = client.stats().unwrap();
    assert_eq!(stats.encode_err, 1);
    drop(client);
    daemon.shutdown();
}

/// Raw-socket clients for the pipelining tests: frames are encoded up
/// front and written as bytes, so the test decides what shares a `write`.
mod pipelined {
    use super::*;
    use kar_service::proto::{self, Request};
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    pub fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        proto::write_frame(&mut out, payload).expect("in-memory write");
        out
    }

    pub fn request(req: &Request) -> Vec<u8> {
        frame(&proto::encode_request(req).expect("transportable"))
    }

    pub fn connect(daemon: &Daemon) -> TcpStream {
        let stream = TcpStream::connect(daemon.addr()).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        // A held-back response fails the test instead of hanging it.
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        stream
    }

    /// One response payload, with a `stats` body's `uptime_ns` (its last
    /// eight bytes, the one field two daemons cannot agree on) zeroed.
    pub fn response(stream: &mut TcpStream) -> Vec<u8> {
        let mut payload = proto::read_frame(stream)
            .expect("read")
            .expect("the daemon keeps the connection open");
        if let Ok(Response::Stats(_)) = proto::decode_response(&payload) {
            let at = payload.len() - 8;
            payload[at..].fill(0);
        }
        payload
    }

    /// 256 frames: encodes over every rnp28 pair in both modes, with a
    /// `stats`, a malformed frame, an unroutable encode and a down/up
    /// invalidate of the links under the first route mixed in.
    fn mixed_burst(topo: &Topology) -> Vec<Vec<u8>> {
        let pairs = edge_pairs(topo);
        let route = kar_topology::paths::bfs_shortest_path(topo, pairs[0].0, pairs[0].1).unwrap();
        let links = kar_topology::paths::links_along(topo, &route).unwrap();
        (0..256)
            .map(|i| match i % 16 {
                3 => request(&Request::Stats),
                6 => frame(&[proto::PROTOCOL_VERSION, 0x7f, i as u8]),
                9 => request(&Request::Encode {
                    src: 1_000_000,
                    dst: 0,
                    protection: Protection::None,
                    mode: WireMode::Fixed,
                }),
                // Down at 12, 44, 76, …; up again 16 frames later, so
                // encodes are served under both fault states.
                12 => request(&Request::Invalidate {
                    link: links[1 + (i / 32) % (links.len() - 2)].0 as u32,
                    up: (i / 16) % 2 == 1,
                }),
                _ => {
                    let (src, dst) = pairs[(i * 7) % pairs.len()];
                    request(&Request::Encode {
                        src: src.0 as u32,
                        dst: dst.0 as u32,
                        protection: [Protection::None, Protection::AutoFull][(i / 5) % 2].clone(),
                        mode: [WireMode::Fixed, WireMode::Varint][i % 2],
                    })
                }
            })
            .collect()
    }

    #[test]
    fn a_burst_gets_the_answers_of_the_same_requests_sent_one_by_one() {
        let topo = rnp28::build();
        let frames = mixed_burst(&topo);
        let bursty = Daemon::spawn(ServiceConfig::new(topo.clone())).expect("spawn");
        let stepped = Daemon::spawn(ServiceConfig::new(topo)).expect("spawn");

        let mut burst = connect(&bursty);
        burst.write_all(&frames.concat()).expect("one write");
        let mut step = connect(&stepped);
        let mut kinds = [0usize; 4];
        for (i, frame) in frames.iter().enumerate() {
            step.write_all(frame).expect("write");
            let want = response(&mut step);
            assert_eq!(response(&mut burst), want, "response {i}");
            match proto::decode_response(&want).expect("decodes") {
                Response::Header(_) => kinds[0] += 1,
                Response::Ok => kinds[1] += 1,
                Response::Stats(stats) => {
                    kinds[2] += 1;
                    assert_eq!(stats.requests, i as u64 + 1, "served in order");
                }
                Response::Error { .. } => kinds[3] += 1,
            }
        }
        assert_eq!(
            kinds,
            [192, 16, 16, 32],
            "every kind of answer was compared"
        );
        drop((burst, step));
        bursty.shutdown();
        stepped.shutdown();
    }

    #[test]
    fn no_response_is_held_hostage_by_half_a_frame() {
        let topo = topo15::build();
        let (as1, as3) = (topo.expect("AS1").0 as u32, topo.expect("AS3").0 as u32);
        let mut config = ServiceConfig::new(topo);
        config.idle_timeout = Duration::from_secs(5);
        let daemon = Daemon::spawn(config).expect("spawn");
        let mut stream = connect(&daemon);
        let encode = request(&Request::Encode {
            src: as1,
            dst: as3,
            protection: Protection::None,
            mode: WireMode::Fixed,
        });
        let stats = request(&Request::Stats);

        // One whole frame and the first 7 bytes of the next, in one
        // write; the rest only after the first answer arrived.
        let mut first = encode.clone();
        first.extend_from_slice(&encode[..7]);
        let sent = Instant::now();
        stream.write_all(&first).expect("write");
        let answer = response(&mut stream);
        assert!(
            sent.elapsed() < Duration::from_secs(2),
            "the first answer waited for the idle deadline"
        );
        stream.write_all(&encode[7..]).expect("write");
        assert_eq!(response(&mut stream), answer, "same request, same answer");

        // Five bytes past a whole frame: not even a length prefix's
        // worth of payload.
        let mut first = stats.clone();
        first.extend_from_slice(&encode[..5]);
        stream.write_all(&first).expect("write");
        let counted = proto::decode_response(&response(&mut stream)).expect("decodes");
        assert!(matches!(counted, Response::Stats(s) if s.requests == 3));
        stream.write_all(&encode[5..]).expect("write");
        assert_eq!(response(&mut stream), answer);
        drop(stream);
        daemon.shutdown();
    }

    #[test]
    fn a_frame_straddling_the_read_buffer_boundary_is_served_in_order() {
        let topo = rnp28::build();
        let edges = topo.edge_nodes();
        let daemon = Daemon::spawn(ServiceConfig::new(topo.clone())).expect("spawn");
        let mut stream = connect(&daemon);
        // 16-byte encode frames would tile the daemon's 8 KiB read
        // buffer exactly; a 6-byte `stats` frame first shifts every
        // later frame across a refill boundary somewhere. 3 × 8 KiB of
        // requests in one write, read back only afterwards.
        let mut burst = request(&Request::Stats);
        let mut expected = Vec::new();
        for i in 0..1536 {
            let (src, dst) = (edges[i % edges.len()], edges[(i + 1) % edges.len()]);
            let mode = [WireMode::Fixed, WireMode::Varint][(i / edges.len()) % 2];
            burst.extend_from_slice(&request(&Request::Encode {
                src: src.0 as u32,
                dst: dst.0 as u32,
                protection: Protection::None,
                mode,
            }));
            let header = expected_header(
                &topo,
                &EncodeRequest::new(src, dst),
                service_recovery(),
                &[],
            )
            .expect("connected");
            expected.push(header.to_wire(mode));
        }
        assert!(burst.len() > 3 * 8192 && !burst.len().is_multiple_of(8192));
        // Write from a second thread: the daemon answers while it reads,
        // and a client that only writes would fill both socket buffers.
        let writer = std::thread::spawn({
            let mut stream = stream.try_clone().expect("clone");
            move || stream.write_all(&burst).expect("write")
        });
        assert!(matches!(
            proto::decode_response(&response(&mut stream)),
            Ok(Response::Stats(s)) if s.requests == 1
        ));
        for (i, want) in expected.iter().enumerate() {
            assert_eq!(
                proto::decode_response(&response(&mut stream)),
                Ok(Response::Header(want.clone())),
                "response {i}"
            );
        }
        writer.join().expect("writer");
        // Nothing else arrives: exactly one response per request.
        stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .expect("read timeout");
        assert!(
            stream.read(&mut [0]).is_err(),
            "a response nobody asked for"
        );
        drop(stream);
        daemon.shutdown();
    }
}
