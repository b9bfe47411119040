//! A TCP-Reno-style transport model.
//!
//! The paper measures KAR's failure reaction through **iperf TCP
//! throughput**: deflection keeps packets alive but reorders them, and
//! reordering triggers spurious duplicate-ACK fast retransmits that
//! halve the congestion window — the mechanism behind every throughput
//! number in Figs. 4, 5, 7 and 8. This module implements exactly the
//! pieces of Reno/NewReno that produce that behaviour:
//!
//! * slow start and congestion avoidance,
//! * triple-duplicate-ACK fast retransmit and NewReno-style recovery
//!   with partial-ACK retransmission,
//! * RTO with RFC 6298 SRTT/RTTVAR estimation, exponential backoff and
//!   Karn's rule (no RTT samples from retransmitted segments),
//! * a cumulative-ACK receiver with out-of-order buffering that emits an
//!   immediate duplicate ACK per out-of-order segment.
//!
//! Simplifications (documented, irrelevant to the reproduced effects):
//! no delayed ACKs, no SACK, a fixed large receive window, bulk data
//! (the sender always has segments to send, like `iperf -t`).

use crate::meter::SharedMeter;
use kar_simnet::{App, FlowId, HostCtx, Packet, PacketKind, SimTime};
use kar_topology::NodeId;
use std::collections::BTreeMap;

/// Congestion-control algorithm for the sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CongestionControl {
    /// Classic Reno/NewReno: additive increase of one MSS per RTT.
    #[default]
    Reno,
    /// CUBIC (RFC 8312) — the Linux default since 2.6.19: window grows
    /// as a cubic of time since the last reduction, probing the old
    /// maximum quickly and plateauing around it.
    Cubic,
}

/// Transport parameters.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Maximum segment size (payload bytes per data packet).
    pub mss: u32,
    /// Header overhead added to every packet on the wire (IP + TCP + the
    /// KAR route-ID shim).
    pub header_bytes: u32,
    /// Initial congestion window, in segments.
    pub init_cwnd_segs: u32,
    /// Initial slow-start threshold, in bytes.
    pub init_ssthresh: u64,
    /// Receive window advertised by the peer, in bytes.
    pub rwnd: u64,
    /// Lower bound on the retransmission timeout.
    pub min_rto: SimTime,
    /// Upper bound on the retransmission timeout.
    pub max_rto: SimTime,
    /// Base duplicate-ACK threshold for fast retransmit.
    pub dupack_threshold: u32,
    /// Model Linux's SACK-based adaptive `tcp_reordering`: the receiver
    /// reports its observed reordering displacement and the sender raises
    /// its duplicate-ACK threshold to match (capped at
    /// [`TcpConfig::max_reordering`]). Without this, the persistent
    /// reordering that deflection creates makes NewReno collapse far
    /// below the throughputs the paper measured on real Linux stacks.
    pub adaptive_reordering: bool,
    /// Cap on the adaptive threshold, like Linux's reordering cap.
    pub max_reordering: u32,
    /// Congestion-control algorithm.
    pub congestion: CongestionControl,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1448,
            header_bytes: 52,
            init_cwnd_segs: 3,
            init_ssthresh: 1 << 30,
            rwnd: 4 << 20,
            min_rto: SimTime::from_millis(200),
            max_rto: SimTime::from_secs(60),
            dupack_threshold: 3,
            adaptive_reordering: true,
            max_reordering: 300,
            congestion: CongestionControl::Reno,
        }
    }
}

/// Bulk-transfer Reno sender (the `iperf` client side).
///
/// Install it as an [`App`] on the source edge; pair it with a
/// [`RenoReceiver`] on the destination edge.
pub struct RenoSender {
    dst: NodeId,
    flow: FlowId,
    cfg: TcpConfig,
    /// Oldest unacknowledged byte.
    snd_una: u64,
    /// Next byte to send.
    snd_nxt: u64,
    /// Congestion window in bytes (fractional growth in avoidance).
    cwnd: f64,
    ssthresh: f64,
    dup_acks: u32,
    /// NewReno recovery: `Some(recover)` while in fast recovery.
    recovery: Option<u64>,
    srtt: Option<f64>,
    rttvar: f64,
    rto: SimTime,
    backoff: u32,
    /// Segment being timed for RTT (Karn's rule): `(seq, sent_at)`.
    timed: Option<(u64, SimTime)>,
    /// Timer generation; stale timer ids are ignored.
    timer_gen: u64,
    /// Sender-side estimate of the path's reordering extent (segments).
    reorder_est: u32,
    /// Counters for assertions and experiment output.
    stats: SenderStats,
    /// Pre-reduction state for DSACK undo: `(cwnd, ssthresh, expiry)` —
    /// a DSACK arriving after the expiry refers to some older duplicate
    /// and must not restore the window.
    undo: Option<(f64, f64, SimTime)>,
    /// Set when a DSACK arrived during the current recovery episode:
    /// the episode is reordering, not loss, so hole retransmission on
    /// partial ACKs is suppressed (the SACK scoreboard equivalent).
    recovery_dsack: bool,
    /// CUBIC: window (segments) before the last reduction.
    cubic_wmax: f64,
    /// CUBIC: start of the current growth epoch.
    cubic_epoch: Option<SimTime>,
}

/// Observable sender counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SenderStats {
    /// Segments transmitted (including retransmissions).
    pub segments_sent: u64,
    /// Fast retransmits triggered by triple duplicate ACKs.
    pub fast_retransmits: u64,
    /// Retransmission timeouts fired.
    pub timeouts: u64,
    /// Spurious reductions undone after a DSACK-style signal.
    pub undos: u64,
    /// Highest cumulatively acknowledged byte.
    pub acked_bytes: u64,
}

impl RenoSender {
    /// Creates a bulk sender toward `dst` with flow id `flow`.
    pub fn new(dst: NodeId, flow: FlowId, cfg: TcpConfig) -> Self {
        RenoSender {
            dst,
            flow,
            snd_una: 0,
            snd_nxt: 0,
            cwnd: (cfg.init_cwnd_segs * cfg.mss) as f64,
            ssthresh: cfg.init_ssthresh as f64,
            dup_acks: 0,
            recovery: None,
            srtt: None,
            rttvar: 0.0,
            rto: SimTime::from_secs(1),
            backoff: 0,
            timed: None,
            timer_gen: 0,
            reorder_est: 0,
            cfg,
            stats: SenderStats::default(),
            undo: None,
            recovery_dsack: false,
            cubic_wmax: 0.0,
            cubic_epoch: None,
        }
    }

    /// Sender counters (read after the run).
    pub fn stats(&self) -> SenderStats {
        self.stats
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u64 {
        self.cwnd as u64
    }

    /// The duplicate-ACK threshold currently in force: the configured
    /// base, raised to the observed reordering extent when adaptive
    /// reordering is on. The extent is estimated sender-side, as Linux
    /// does with SACK: a hole that fills *without* a retransmission
    /// after `d` duplicate ACKs proves a reordering extent of `d`, and a
    /// DSACK-proven spurious fast retransmit escalates the estimate.
    pub fn dupack_threshold(&self) -> u32 {
        if self.cfg.adaptive_reordering {
            self.cfg
                .dupack_threshold
                .max(self.reorder_est + 1)
                .min(self.cfg.max_reordering)
        } else {
            self.cfg.dupack_threshold
        }
    }

    fn flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    fn window(&self) -> u64 {
        (self.cwnd as u64).min(self.cfg.rwnd)
    }

    fn wire_size(&self) -> u32 {
        self.cfg.mss + self.cfg.header_bytes
    }

    fn send_segment(&mut self, ctx: &mut HostCtx<'_>, seq: u64, retransmit: bool) {
        ctx.send(self.dst, self.flow, seq, PacketKind::Data, self.wire_size());
        self.stats.segments_sent += 1;
        if !retransmit && self.timed.is_none() {
            self.timed = Some((seq, ctx.now));
        }
        if retransmit {
            // Karn: a retransmitted sequence number must not be timed.
            if matches!(self.timed, Some((s, _)) if s == seq) {
                self.timed = None;
            }
        }
    }

    fn send_available(&mut self, ctx: &mut HostCtx<'_>) {
        while self.flight() + self.cfg.mss as u64 <= self.window() {
            let seq = self.snd_nxt;
            self.snd_nxt += self.cfg.mss as u64;
            self.send_segment(ctx, seq, false);
        }
    }

    fn arm_rto(&mut self, ctx: &mut HostCtx<'_>) {
        self.timer_gen += 1;
        let shifted =
            SimTime((self.rto.as_nanos() << self.backoff.min(16)).min(self.cfg.max_rto.as_nanos()));
        ctx.set_timer(shifted, self.timer_gen);
    }

    fn update_rtt(&mut self, sample_s: f64) {
        match self.srtt {
            None => {
                self.srtt = Some(sample_s);
                self.rttvar = sample_s / 2.0;
            }
            Some(srtt) => {
                const ALPHA: f64 = 1.0 / 8.0;
                const BETA: f64 = 1.0 / 4.0;
                self.rttvar = (1.0 - BETA) * self.rttvar + BETA * (srtt - sample_s).abs();
                self.srtt = Some((1.0 - ALPHA) * srtt + ALPHA * sample_s);
            }
        }
        let rto_s = self.srtt.unwrap() + (4.0 * self.rttvar).max(0.000_1);
        let rto = SimTime((rto_s * 1e9) as u64);
        self.rto = rto.max(self.cfg.min_rto).min(self.cfg.max_rto);
    }

    /// Congestion-avoidance growth per newly-acked full ACK.
    fn grow_avoidance(&mut self, now: SimTime) {
        let mss = self.cfg.mss as f64;
        match self.cfg.congestion {
            CongestionControl::Reno => {
                self.cwnd += mss * mss / self.cwnd;
            }
            CongestionControl::Cubic => {
                // RFC 8312 with C = 0.4, in segment units.
                const C: f64 = 0.4;
                const BETA: f64 = 0.7;
                let epoch = *self.cubic_epoch.get_or_insert(now);
                if self.cubic_wmax <= 0.0 {
                    self.cubic_wmax = self.cwnd / mss;
                }
                let t = now.since(epoch).as_nanos() as f64 / 1e9;
                let k = (self.cubic_wmax * (1.0 - BETA) / C).cbrt();
                let target_segs = C * (t - k).powi(3) + self.cubic_wmax;
                let target = target_segs * mss;
                if target > self.cwnd {
                    // Approach the cubic target ACK by ACK.
                    self.cwnd += ((target - self.cwnd) / (self.cwnd / mss)).min(mss);
                } else {
                    // TCP-friendly floor: at least Reno's growth.
                    self.cwnd += 0.3 * mss * mss / self.cwnd;
                }
            }
        }
    }

    /// Records a genuine congestion reduction for CUBIC's epoch state.
    fn note_reduction(&mut self, now: SimTime) {
        if self.cfg.congestion == CongestionControl::Cubic {
            self.cubic_wmax = self.cwnd / self.cfg.mss as f64;
            self.cubic_epoch = Some(now);
        }
    }

    fn on_ack(&mut self, ctx: &mut HostCtx<'_>, ack: u64) {
        if ack > self.snd_una {
            // New data acknowledged.
            if let Some((seq, sent_at)) = self.timed {
                if ack > seq {
                    let sample = ctx.now.since(sent_at).as_nanos() as f64 / 1e9;
                    self.update_rtt(sample);
                    self.timed = None;
                }
            }
            self.backoff = 0;
            if self.dup_acks > 0 && self.recovery.is_none() {
                // The hole filled by itself after `dup_acks` duplicate
                // ACKs and no retransmission: pure reordering of that
                // extent (Linux's tcp_update_reordering equivalent).
                self.reorder_est = self.reorder_est.max(self.dup_acks + 1);
            }
            let newly_acked = ack - self.snd_una;
            self.snd_una = ack;
            // After an RTO the sender rewinds snd_nxt (go-back-N); an ACK
            // for data from before the rewind can overtake it.
            self.snd_nxt = self.snd_nxt.max(ack);
            self.stats.acked_bytes = ack;
            match self.recovery {
                Some(recover) if ack < recover => {
                    // NewReno partial ACK. With a DSACK already proving
                    // this episode spurious, the "holes" are reordering
                    // in flight — retransmitting them would only breed
                    // more duplicates, so skip (what a SACK scoreboard
                    // would conclude).
                    if !self.recovery_dsack {
                        self.send_segment(ctx, ack, true);
                        self.cwnd = (self.cwnd - newly_acked as f64).max(self.cfg.mss as f64);
                    }
                }
                Some(_) => {
                    // Full ACK: leave recovery.
                    self.recovery = None;
                    self.dup_acks = 0;
                    self.recovery_dsack = false;
                    self.cwnd = self.ssthresh;
                }
                None => {
                    self.dup_acks = 0;
                    let mss = self.cfg.mss as f64;
                    if self.cwnd < self.ssthresh {
                        self.cwnd += mss; // slow start
                    } else {
                        self.grow_avoidance(ctx.now); // Reno or CUBIC
                    }
                }
            }
            self.arm_rto(ctx);
            self.send_available(ctx);
        } else if ack == self.snd_una && self.flight() > 0 {
            // Duplicate ACK.
            self.dup_acks += 1;
            let mss = self.cfg.mss as f64;
            match self.recovery {
                Some(_) => {
                    // Window inflation keeps the pipe full in recovery.
                    self.cwnd += mss;
                    self.send_available(ctx);
                }
                None if self.dup_acks == self.dupack_threshold() => {
                    self.stats.fast_retransmits += 1;
                    // Remember the pre-reduction state: if the receiver
                    // reports within roughly one RTO that the
                    // retransmission was a duplicate (DSACK), the
                    // reduction was spurious and is undone.
                    self.undo = Some((self.cwnd, self.ssthresh, ctx.now + self.rto));
                    self.note_reduction(ctx.now);
                    self.ssthresh = (self.flight() as f64 / 2.0).max(2.0 * mss);
                    self.cwnd = self.ssthresh + 3.0 * mss;
                    self.recovery = Some(self.snd_nxt);
                    self.send_segment(ctx, self.snd_una, true);
                }
                None => {}
            }
        }
    }
}

impl App for RenoSender {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        self.send_available(ctx);
        self.arm_rto(ctx);
    }

    fn on_packet(&mut self, ctx: &mut HostCtx<'_>, pkt: &Packet) {
        if pkt.flow != self.flow {
            return;
        }
        if let PacketKind::Ack { ack, dsack, .. } = pkt.kind {
            if dsack {
                if self.recovery.is_some() {
                    self.recovery_dsack = true;
                }
                // The receiver saw a duplicate segment: our last fast
                // retransmit was spurious (the original was merely
                // reordered). Undo the reduction, as Linux's DSACK undo
                // does — but only while the undo state is fresh.
                if let Some((cwnd, ssthresh, expiry)) = self.undo.take() {
                    if ctx.now <= expiry {
                        self.cwnd = self.cwnd.max(cwnd);
                        self.ssthresh = self.ssthresh.max(ssthresh);
                        self.recovery = None;
                        self.dup_acks = 0;
                        self.recovery_dsack = false;
                        self.stats.undos += 1;
                        // The proven-spurious retransmit means the real
                        // reordering extent exceeds the threshold that
                        // fired — escalate (bounded by the flight, the
                        // largest extent that can matter) to adapt in
                        // O(log) steps.
                        let flight_segs = (self.flight() / self.cfg.mss as u64) as u32;
                        self.reorder_est = (self.dupack_threshold() * 2)
                            .max(flight_segs)
                            .min(self.cfg.max_reordering);
                    }
                }
            }
            self.on_ack(ctx, ack);
        }
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_>, id: u64) {
        if id != self.timer_gen {
            return; // stale timer
        }
        if self.flight() == 0 {
            // Nothing outstanding; keep the timer parked.
            self.arm_rto(ctx);
            return;
        }
        // Retransmission timeout: multiplicative backoff, go-back-N.
        self.stats.timeouts += 1;
        self.undo = None;
        self.note_reduction(ctx.now);
        self.reorder_est /= 2;
        self.ssthresh = (self.flight() as f64 / 2.0).max(2.0 * self.cfg.mss as f64);
        self.cwnd = self.cfg.mss as f64;
        self.recovery = None;
        self.dup_acks = 0;
        self.recovery_dsack = false;
        self.backoff += 1;
        self.snd_nxt = self.snd_una + self.cfg.mss as u64;
        self.timed = None;
        self.send_segment(ctx, self.snd_una, true);
        self.arm_rto(ctx);
    }
}

/// Cumulative-ACK receiver with out-of-order buffering (the `iperf`
/// server side). Reports in-order goodput to a [`SharedMeter`].
pub struct RenoReceiver {
    src: NodeId,
    flow: FlowId,
    mss: u32,
    ack_wire_bytes: u32,
    rcv_nxt: u64,
    /// Buffered out-of-order segments: `seq → payload length`.
    ooo: BTreeMap<u64, u32>,
    meter: Option<SharedMeter>,
    /// Running max of observed reordering displacement (segments).
    max_displacement: u16,
    /// Pending DSACK signal: a duplicate segment arrived.
    dsack_pending: bool,
    /// In-order segments since the last out-of-order event (for decay).
    in_order_streak: u32,
    stats: ReceiverStats,
}

/// Observable receiver counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReceiverStats {
    /// Data segments received (including duplicates).
    pub segments_received: u64,
    /// Segments that arrived out of order (buffered or duplicate).
    pub out_of_order: u64,
    /// ACKs emitted.
    pub acks_sent: u64,
    /// In-order bytes delivered to the application.
    pub goodput_bytes: u64,
}

impl RenoReceiver {
    /// Creates a receiver for flow `flow`, ACKing back to `src`.
    pub fn new(src: NodeId, flow: FlowId, cfg: TcpConfig, meter: Option<SharedMeter>) -> Self {
        RenoReceiver {
            src,
            flow,
            mss: cfg.mss,
            ack_wire_bytes: cfg.header_bytes + 12,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            meter,
            max_displacement: 0,
            dsack_pending: false,
            in_order_streak: 0,
            stats: ReceiverStats::default(),
        }
    }

    /// Receiver counters (read after the run).
    pub fn stats(&self) -> ReceiverStats {
        self.stats
    }

    /// The reordering displacement currently advertised to the sender.
    pub fn reported_reorder(&self) -> u16 {
        self.max_displacement
    }

    fn advance(&mut self, now: SimTime) {
        let before = self.rcv_nxt;
        let mut drained: u16 = 0;
        while let Some((&seq, &len)) = self.ooo.first_key_value() {
            if seq > self.rcv_nxt {
                break;
            }
            self.ooo.pop_first();
            drained = drained.saturating_add(1);
            let end = seq + len as u64;
            if end > self.rcv_nxt {
                self.rcv_nxt = end;
            }
        }
        // The hole filler was displaced by every segment it released:
        // the RFC 4737-style reordering extent, which Linux's SACK
        // machinery would observe as its `tcp_reordering` metric.
        self.max_displacement = self.max_displacement.max(drained);
        let delta = self.rcv_nxt - before;
        if delta > 0 {
            self.stats.goodput_bytes += delta;
            if let Some(m) = &self.meter {
                m.borrow_mut().record(now, delta);
            }
        }
    }
}

impl App for RenoReceiver {
    fn on_start(&mut self, _ctx: &mut HostCtx<'_>) {}

    fn on_packet(&mut self, ctx: &mut HostCtx<'_>, pkt: &Packet) {
        if pkt.flow != self.flow || !matches!(pkt.kind, PacketKind::Data) {
            return;
        }
        self.stats.segments_received += 1;
        let len = self.mss; // bulk flows use full-MSS segments
        if pkt.seq == self.rcv_nxt {
            self.rcv_nxt += len as u64;
            self.stats.goodput_bytes += len as u64;
            if let Some(m) = &self.meter {
                m.borrow_mut().record(ctx.now, len as u64);
            }
            if self.ooo.is_empty() {
                // Pure in-order progress: decay the reordering metric
                // after a long clean streak (Linux decays its metric on
                // timeouts and idle periods).
                self.in_order_streak += 1;
                if self.in_order_streak >= 2_000 {
                    self.max_displacement /= 2;
                    self.in_order_streak = 0;
                }
            } else {
                self.in_order_streak = 0;
            }
            self.advance(ctx.now);
        } else if pkt.seq > self.rcv_nxt {
            self.stats.out_of_order += 1;
            self.in_order_streak = 0;
            self.ooo.insert(pkt.seq, len);
        } else {
            // Duplicate of already-delivered data: both the original and
            // a (spurious) retransmission arrived. Report it like a
            // DSACK block.
            self.stats.out_of_order += 1;
            self.dsack_pending = true;
        }
        // Immediate cumulative ACK (duplicate when out of order).
        ctx.send(
            self.src,
            self.flow,
            0,
            PacketKind::Ack {
                ack: self.rcv_nxt,
                reorder: self.max_displacement,
                dsack: std::mem::take(&mut self.dsack_pending),
            },
            self.ack_wire_bytes,
        );
        self.stats.acks_sent += 1;
    }

    fn on_timer(&mut self, _ctx: &mut HostCtx<'_>, _id: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use kar_rns::{crt_encode, RnsBasis};
    use kar_simnet::{ModuloForwarder, Sim, SimConfig, SimTime, StaticRoutes};
    use kar_topology::{paths, LinkParams, Topology, TopologyBuilder};

    /// S — C3 — C5 — D line with symmetric static routes.
    fn line(rate_mbps: u64) -> (Topology, StaticRoutes) {
        let mut b = TopologyBuilder::new();
        let s = b.edge("S");
        let c3 = b.core("C3", 3);
        let c5 = b.core("C5", 5);
        let d = b.edge("D");
        let p = LinkParams::new(rate_mbps, 100);
        b.link(s, c3, p);
        b.link(c3, c5, p);
        b.link(c5, d, p);
        let topo = b.build().unwrap();
        let mut routes = StaticRoutes::new();
        for (src, dst) in [("S", "D"), ("D", "S")] {
            let path = paths::bfs_shortest_path(&topo, topo.expect(src), topo.expect(dst)).unwrap();
            let pairs = paths::switch_port_pairs(&topo, &path).unwrap();
            let basis = RnsBasis::new(pairs.iter().map(|&(id, _)| id).collect()).unwrap();
            let ports: Vec<u64> = pairs.iter().map(|&(_, p)| p).collect();
            let r = crt_encode(&basis, &ports).unwrap();
            routes.insert(topo.expect(src), topo.expect(dst), r, 0);
        }
        (topo, routes)
    }

    fn run_bulk(rate_mbps: u64, secs: u64, fail_window: Option<(u64, u64)>) -> (f64, Vec<f64>) {
        let (topo, routes) = line(rate_mbps);
        let mut sim = Sim::new(
            &topo,
            Box::new(ModuloForwarder::new()),
            Box::new(routes),
            SimConfig::default(),
        );
        let s = topo.expect("S");
        let d = topo.expect("D");
        let meter = crate::meter::shared_meter(SimTime::from_secs(1));
        let cfg = TcpConfig::default();
        sim.add_app(s, Box::new(RenoSender::new(d, FlowId(1), cfg)));
        sim.add_app(
            d,
            Box::new(RenoReceiver::new(s, FlowId(1), cfg, Some(meter.clone()))),
        );
        if let Some((down, up)) = fail_window {
            let l = topo.expect_link("C3", "C5");
            sim.schedule_link_down(SimTime::from_secs(down), l);
            sim.schedule_link_up(SimTime::from_secs(up), l);
        }
        sim.run_until(SimTime::from_secs(secs));
        let m = meter.borrow();
        (
            m.mean_mbps(SimTime::ZERO, SimTime::from_secs(secs)),
            m.series_mbps(SimTime::from_secs(secs)),
        )
    }

    #[test]
    fn bulk_flow_saturates_the_line() {
        let (mean, series) = run_bulk(50, 10, None);
        // Goodput should reach ≳85% of the 50 Mbit/s line rate
        // (header overhead ≈ 3.5%, slow start in the first second).
        assert!(mean > 42.0, "mean {mean} Mbps too low");
        assert!(series[9] > 44.0, "steady-state {series:?}");
        // Never exceeds the physical rate.
        assert!(series.iter().all(|&s| s <= 50.0 + 1e-6), "{series:?}");
    }

    #[test]
    fn blackout_stalls_then_recovers() {
        let (_, series) = run_bulk(50, 14, Some((4, 8)));
        // Throughput collapses during the outage …
        assert!(series[5] < 1.0, "during outage: {series:?}");
        assert!(series[6] < 1.0, "during outage: {series:?}");
        // … and recovers after repair (allow a couple of RTO backoffs).
        let post: f64 = series[10..14].iter().sum::<f64>() / 4.0;
        assert!(post > 30.0, "after repair: {series:?}");
    }

    #[test]
    fn slow_start_doubles_cwnd() {
        let mut sender = RenoSender::new(NodeId(1), FlowId(0), TcpConfig::default());
        let mss = TcpConfig::default().mss as u64;
        let mut actions = Vec::new();
        let mut ctx = HostCtx::new(NodeId(0), SimTime::ZERO, &mut actions);
        sender.on_start(&mut ctx);
        let initial = sender.cwnd();
        assert_eq!(initial, 3 * mss);
        // ACK the three initial segments one by one: cwnd += mss each.
        for i in 1..=3 {
            sender.on_ack(&mut ctx, i * mss);
        }
        assert_eq!(sender.cwnd(), 6 * mss);
    }

    #[test]
    fn triple_dup_ack_triggers_fast_retransmit() {
        let mut sender = RenoSender::new(NodeId(1), FlowId(0), TcpConfig::default());
        let cfg = TcpConfig::default();
        let mut actions = Vec::new();
        let mut ctx = HostCtx::new(NodeId(0), SimTime::ZERO, &mut actions);
        sender.on_start(&mut ctx);
        // Grow the window a bit so there is flight to halve.
        for i in 1..=3u64 {
            sender.on_ack(&mut ctx, i * cfg.mss as u64);
        }
        let before = sender.stats().fast_retransmits;
        let una = 3 * cfg.mss as u64;
        for _ in 0..3 {
            sender.on_ack(&mut ctx, una);
        }
        assert_eq!(sender.stats().fast_retransmits, before + 1);
        // In recovery now; further dup ACKs inflate, not re-trigger.
        sender.on_ack(&mut ctx, una);
        assert_eq!(sender.stats().fast_retransmits, before + 1);
    }

    #[test]
    fn receiver_buffers_and_dupacks() {
        let cfg = TcpConfig::default();
        let mss = cfg.mss as u64;
        let mut rx = RenoReceiver::new(NodeId(0), FlowId(1), cfg, None);
        let mut actions = Vec::new();
        let mut ctx = HostCtx::new(NodeId(1), SimTime::ZERO, &mut actions);
        let data = |seq: u64| Packet {
            id: 0,
            flow: FlowId(1),
            seq,
            kind: PacketKind::Data,
            size_bytes: cfg.mss + cfg.header_bytes,
            src: NodeId(0),
            dst: NodeId(1),
            route: None,
            ttl: 8,
            hops: 0,
            deflections: 0,
            created: SimTime::ZERO,
        };
        rx.on_packet(&mut ctx, &data(0));
        rx.on_packet(&mut ctx, &data(2 * mss)); // hole at mss
        rx.on_packet(&mut ctx, &data(3 * mss));
        assert_eq!(rx.stats().out_of_order, 2);
        assert_eq!(rx.rcv_nxt, mss);
        rx.on_packet(&mut ctx, &data(mss)); // fill the hole
        assert_eq!(rx.rcv_nxt, 4 * mss);
        assert_eq!(rx.stats().goodput_bytes, 4 * mss);
        assert_eq!(rx.stats().acks_sent, 4);
        // The two middle ACKs were duplicates of ack=mss.
        let acks: Vec<u64> = actions
            .iter()
            .filter_map(|a| match a {
                kar_simnet::AppAction::Send {
                    kind: PacketKind::Ack { ack, .. },
                    ..
                } => Some(*ack),
                _ => None,
            })
            .collect();
        assert_eq!(acks, vec![mss, mss, mss, 4 * mss]);
    }

    #[test]
    fn natural_hole_fill_raises_dupack_threshold() {
        // Three dup ACKs then a cumulative ACK *without* a retransmit
        // having fired (threshold raised first) must raise the
        // reordering estimate — the sender-side tcp_update_reordering.
        let cfg = TcpConfig::default();
        let mss = cfg.mss as u64;
        let mut tx = RenoSender::new(NodeId(1), FlowId(0), cfg);
        let mut actions = Vec::new();
        let mut ctx = HostCtx::new(NodeId(0), SimTime::ZERO, &mut actions);
        tx.on_start(&mut ctx);
        for i in 1..=3u64 {
            tx.on_ack(&mut ctx, i * mss);
        }
        assert_eq!(tx.dupack_threshold(), 3);
        // Two dup ACKs (below threshold), then the hole fills naturally.
        tx.on_ack(&mut ctx, 3 * mss);
        tx.on_ack(&mut ctx, 3 * mss);
        tx.on_ack(&mut ctx, 5 * mss);
        assert_eq!(tx.stats().fast_retransmits, 0);
        assert!(tx.dupack_threshold() > 3, "threshold adapts upward");
    }

    #[test]
    fn dsack_undo_restores_cwnd() {
        let cfg = TcpConfig::default();
        let mss = cfg.mss as u64;
        let mut tx = RenoSender::new(NodeId(1), FlowId(0), cfg);
        let mut actions = Vec::new();
        let mut ctx = HostCtx::new(NodeId(0), SimTime::ZERO, &mut actions);
        tx.on_start(&mut ctx);
        for i in 1..=6u64 {
            tx.on_ack(&mut ctx, i * mss);
        }
        let before = tx.cwnd();
        // Trigger a (spurious) fast retransmit with three dup ACKs.
        for _ in 0..3 {
            tx.on_ack(&mut ctx, 6 * mss);
        }
        assert_eq!(tx.stats().fast_retransmits, 1);
        assert!(tx.cwnd() < before, "reduction applied");
        // The DSACK arrives: receiver saw the duplicate.
        let dsack_pkt = Packet {
            id: 0,
            flow: FlowId(0),
            seq: 0,
            kind: PacketKind::Ack {
                ack: 6 * mss,
                reorder: 0,
                dsack: true,
            },
            size_bytes: 64,
            src: NodeId(1),
            dst: NodeId(0),
            route: None,
            ttl: 8,
            hops: 0,
            deflections: 0,
            created: SimTime::ZERO,
        };
        tx.on_packet(&mut ctx, &dsack_pkt);
        assert_eq!(tx.stats().undos, 1);
        assert!(
            tx.cwnd() >= before,
            "reduction undone: {} vs {before}",
            tx.cwnd()
        );
        assert!(tx.dupack_threshold() > 3, "undo escalates the estimate");
    }

    #[test]
    fn stale_dsack_does_not_undo() {
        let cfg = TcpConfig::default();
        let mss = cfg.mss as u64;
        let mut tx = RenoSender::new(NodeId(1), FlowId(0), cfg);
        let mut actions = Vec::new();
        let mut ctx = HostCtx::new(NodeId(0), SimTime::ZERO, &mut actions);
        tx.on_start(&mut ctx);
        for i in 1..=6u64 {
            tx.on_ack(&mut ctx, i * mss);
        }
        for _ in 0..3 {
            tx.on_ack(&mut ctx, 6 * mss);
        }
        assert_eq!(tx.stats().fast_retransmits, 1);
        // The DSACK arrives *after* the undo window expired.
        let mut late = Vec::new();
        let mut late_ctx = HostCtx::new(NodeId(0), SimTime::from_secs(120), &mut late);
        let dsack_pkt = Packet {
            id: 0,
            flow: FlowId(0),
            seq: 0,
            kind: PacketKind::Ack {
                ack: 6 * mss,
                reorder: 0,
                dsack: true,
            },
            size_bytes: 64,
            src: NodeId(1),
            dst: NodeId(0),
            route: None,
            ttl: 8,
            hops: 0,
            deflections: 0,
            created: SimTime::ZERO,
        };
        tx.on_packet(&mut late_ctx, &dsack_pkt);
        assert_eq!(tx.stats().undos, 0, "expired undo must not fire");
    }

    #[test]
    fn fixed_threshold_when_adaptation_disabled() {
        let cfg = TcpConfig {
            adaptive_reordering: false,
            ..TcpConfig::default()
        };
        let mss = cfg.mss as u64;
        let mut tx = RenoSender::new(NodeId(1), FlowId(0), cfg);
        let mut actions = Vec::new();
        let mut ctx = HostCtx::new(NodeId(0), SimTime::ZERO, &mut actions);
        tx.on_start(&mut ctx);
        for i in 1..=3u64 {
            tx.on_ack(&mut ctx, i * mss);
        }
        tx.on_ack(&mut ctx, 3 * mss);
        tx.on_ack(&mut ctx, 3 * mss);
        tx.on_ack(&mut ctx, 5 * mss);
        assert_eq!(tx.dupack_threshold(), 3, "classic Reno threshold");
    }

    #[test]
    fn receiver_reports_dsack_once() {
        let cfg = TcpConfig::default();
        let mss = cfg.mss as u64;
        let mut rx = RenoReceiver::new(NodeId(0), FlowId(1), cfg, None);
        let mut actions = Vec::new();
        let mut ctx = HostCtx::new(NodeId(1), SimTime::ZERO, &mut actions);
        let data = |seq: u64| Packet {
            id: 0,
            flow: FlowId(1),
            seq,
            kind: PacketKind::Data,
            size_bytes: cfg.mss + cfg.header_bytes,
            src: NodeId(0),
            dst: NodeId(1),
            route: None,
            ttl: 8,
            hops: 0,
            deflections: 0,
            created: SimTime::ZERO,
        };
        rx.on_packet(&mut ctx, &data(0));
        rx.on_packet(&mut ctx, &data(0)); // duplicate → DSACK
        rx.on_packet(&mut ctx, &data(mss));
        let dsacks: Vec<bool> = actions
            .iter()
            .filter_map(|a| match a {
                kar_simnet::AppAction::Send {
                    kind: PacketKind::Ack { dsack, .. },
                    ..
                } => Some(*dsack),
                _ => None,
            })
            .collect();
        assert_eq!(dsacks, vec![false, true, false], "one-shot DSACK flag");
    }

    #[test]
    fn receiver_displacement_metric_tracks_drains() {
        let cfg = TcpConfig::default();
        let mss = cfg.mss as u64;
        let mut rx = RenoReceiver::new(NodeId(0), FlowId(1), cfg, None);
        let mut actions = Vec::new();
        let mut ctx = HostCtx::new(NodeId(1), SimTime::ZERO, &mut actions);
        let data = |seq: u64| Packet {
            id: 0,
            flow: FlowId(1),
            seq,
            kind: PacketKind::Data,
            size_bytes: cfg.mss + cfg.header_bytes,
            src: NodeId(0),
            dst: NodeId(1),
            route: None,
            ttl: 8,
            hops: 0,
            deflections: 0,
            created: SimTime::ZERO,
        };
        // Segments 1..=4 arrive before segment 0: displacement 4.
        for seq in 1..=4u64 {
            rx.on_packet(&mut ctx, &data(seq * mss));
        }
        assert_eq!(rx.reported_reorder(), 0);
        rx.on_packet(&mut ctx, &data(0));
        assert_eq!(rx.reported_reorder(), 4);
    }

    #[test]
    fn cubic_outgrows_reno_after_a_deep_epoch() {
        // After a reduction, CUBIC races back toward W_max while Reno
        // adds one MSS per RTT.
        let mss = TcpConfig::default().mss as f64;
        let grow = |cc: CongestionControl| -> f64 {
            let cfg = TcpConfig {
                congestion: cc,
                init_ssthresh: 1, // force avoidance immediately
                ..TcpConfig::default()
            };
            let mut tx = RenoSender::new(NodeId(1), FlowId(0), cfg);
            tx.cwnd = 50.0 * mss;
            tx.ssthresh = 50.0 * mss;
            // Simulate a reduction from 100 segments at t = 0.
            tx.cubic_wmax = 100.0;
            tx.cubic_epoch = Some(SimTime::ZERO);
            // 2000 ACKs spread over two seconds.
            for i in 0..2000u64 {
                tx.grow_avoidance(SimTime::from_millis(i));
            }
            tx.cwnd / mss
        };
        let cubic = grow(CongestionControl::Cubic);
        let reno = grow(CongestionControl::Reno);
        assert!(
            cubic > reno * 1.1,
            "cubic {cubic:.1} segs should outgrow reno {reno:.1} segs"
        );
        // CUBIC plateaus near W_max rather than blowing past it instantly.
        assert!(cubic > 90.0 && cubic < 160.0, "cubic {cubic:.1}");
    }

    #[test]
    fn cubic_end_to_end_saturates() {
        use kar_rns::{crt_encode, RnsBasis};
        use kar_simnet::{ModuloForwarder, Sim, SimConfig, StaticRoutes};
        use kar_topology::{paths, LinkParams, TopologyBuilder};
        let mut b = TopologyBuilder::new();
        let s = b.edge("S");
        let c = b.core("C", 5);
        let d = b.edge("D");
        let p = LinkParams::new(50, 100);
        b.link(s, c, p);
        b.link(c, d, p);
        let topo = b.build().unwrap();
        let mut routes = StaticRoutes::new();
        for (a, z) in [("S", "D"), ("D", "S")] {
            let path = paths::bfs_shortest_path(&topo, topo.expect(a), topo.expect(z)).unwrap();
            let pairs = paths::switch_port_pairs(&topo, &path).unwrap();
            let basis = RnsBasis::new(pairs.iter().map(|&(id, _)| id).collect()).unwrap();
            let r =
                crt_encode(&basis, &pairs.iter().map(|&(_, pt)| pt).collect::<Vec<_>>()).unwrap();
            routes.insert(topo.expect(a), topo.expect(z), r, 0);
        }
        let mut sim = Sim::new(
            &topo,
            Box::new(ModuloForwarder::new()),
            Box::new(routes),
            SimConfig::default(),
        );
        let cfg = TcpConfig {
            congestion: CongestionControl::Cubic,
            ..TcpConfig::default()
        };
        let meter = crate::meter::shared_meter(SimTime::from_secs(1));
        sim.add_app(
            topo.expect("S"),
            Box::new(RenoSender::new(topo.expect("D"), FlowId(1), cfg)),
        );
        sim.add_app(
            topo.expect("D"),
            Box::new(RenoReceiver::new(
                topo.expect("S"),
                FlowId(1),
                cfg,
                Some(meter.clone()),
            )),
        );
        sim.run_until(SimTime::from_secs(6));
        let mean = meter
            .borrow()
            .mean_mbps(SimTime::from_secs(1), SimTime::from_secs(6));
        assert!(mean > 42.0, "CUBIC saturates the 50 Mbit/s line: {mean}");
    }

    #[test]
    fn rto_backoff_caps() {
        let mut sender = RenoSender::new(NodeId(1), FlowId(0), TcpConfig::default());
        let mut actions = Vec::new();
        let mut ctx = HostCtx::new(NodeId(0), SimTime::ZERO, &mut actions);
        sender.on_start(&mut ctx);
        for _ in 0..40 {
            let gen = sender.timer_gen;
            sender.on_timer(&mut ctx, gen);
        }
        assert_eq!(sender.stats().timeouts, 40);
        // All timers were scheduled at most max_rto in the future.
        let max = TcpConfig::default().max_rto;
        for a in &actions {
            if let kar_simnet::AppAction::Timer { at, .. } = a {
                assert!(*at <= max + SimTime::ZERO || at.as_nanos() <= max.as_nanos());
            }
        }
    }

    #[test]
    fn stale_timers_are_ignored() {
        let mut sender = RenoSender::new(NodeId(1), FlowId(0), TcpConfig::default());
        let mut actions = Vec::new();
        let mut ctx = HostCtx::new(NodeId(0), SimTime::ZERO, &mut actions);
        sender.on_start(&mut ctx);
        sender.on_timer(&mut ctx, 0); // generation 0 is stale (gen is 1)
        assert_eq!(sender.stats().timeouts, 0);
    }
}
