//! The bidirectional GPU ↔ controller coordination link.
//!
//! Apparate "runs a separate controller per model replica on a CPU, with GPUs
//! streaming per-ramp/batch profiling information in a non-blocking fashion"
//! (§3). The uplink carries, per request and per active ramp, a top-predicted
//! result and an error score (~1 KB per batch); the downlink carries threshold
//! updates and, when the ramp set changes, ~10 KB of ramp definitions (§4.5).
//! §4.5 measures the coordination delay at ~0.5 ms per message, 0.4 ms of
//! which is fixed PCIe latency.
//!
//! The simulation reproduces those costs so the overhead experiment can report
//! them. A [`ProfileRecord`] carries each request's semantics and release in
//! place of its observation row: a row is a pure function of the semantics
//! and the ramp set, which the record names by epoch. The link still charges
//! 8 bytes per (request, ramp) observation, 10 bytes per release and a
//! 64-byte header. Each direction is one [`FeedbackLink`], generic over the
//! [`WirePayload`] it carries and owned by the controller loop that sends
//! and polls it: [`ProfileRecord`]s flow GPU → controller and
//! [`ThresholdUpdate`]s controller → GPU. Delivery is charged against the
//! [`LinkCost`] model and takes effect only once the simulated transfer has
//! completed, so a poll at time *t* never hands out a message still on the
//! wire at *t*.

use crate::engine::RampPlacement;
use crate::semantics::SampleSemantics;
use apparate_sim::{SimDuration, SimTime};
use apparate_telemetry::{EventKind, LinkDirection, Telemetry};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Anything that can be shipped across the link: it only needs to know its
/// approximate serialised size so the transfer latency can be charged.
pub trait WirePayload {
    /// Approximate wire size of this message in bytes.
    fn wire_bytes(&self) -> u64;
}

/// One batch worth of profiling data streamed from the GPU to the controller.
///
/// A real GPU ships every active ramp's top prediction and error score for
/// every request (§4.5). In the simulation a ramp's observation is a pure
/// function of the request's [`SampleSemantics`] and the ramp set, so a
/// record carries each request's semantics instead of its row, and the
/// controller rebuilds a row, under the ramp set `ramp_epoch` names, only
/// when a tune reads it. The link is still charged for the rows (see
/// [`ProfileRecord::wire_bytes`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProfileRecord {
    /// Number of active ramps the batch ran: the length of each request's
    /// row.
    pub num_ramps: usize,
    /// Each request's semantics, in batch order (parallel to `releases`).
    pub samples: Vec<SampleSemantics>,
    /// Per-request release metadata, in batch order. One packed vector
    /// rather than parallel id/exit/correct vectors, so a record holds two
    /// buffers however large the batch.
    pub releases: Vec<RequestRelease>,
    /// Configuration epoch the GPU was running when it produced this record
    /// (incremented by every applied [`ThresholdUpdate`]). Lets the controller
    /// discard records whose ramp indices predate a ramp-set change.
    pub config_epoch: u64,
    /// Epoch of the last ramp-set update the GPU applied before producing
    /// this record (0 for the initial ramp set): the ramp set every row of
    /// the record is observed under.
    pub ramp_epoch: u64,
}

/// Release metadata for one request in a profiled batch.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RequestRelease {
    /// Request identifier.
    pub id: u64,
    /// Ramp index the result exited at (`None` = ran to the head).
    pub exit: Option<usize>,
    /// Whether the released result matched the original model.
    pub correct: bool,
}

impl WirePayload for ProfileRecord {
    /// Approximate wire size: the paper quotes ~1 KB for a top-predicted
    /// result plus error score per batch; we charge 8 bytes per
    /// (request, ramp) observation, 10 bytes of per-request release metadata
    /// (id + exit + agreement) and a small header.
    fn wire_bytes(&self) -> u64 {
        let requests = self.releases.len() as u64;
        64 + requests * self.num_ramps as u64 * 8 + requests * 10
    }
}

/// Approximate serialised size of one ramp definition (§4.5: threshold
/// updates that change the ramp set ship ~10 KB of ramp definitions).
pub const RAMP_DEFINITION_BYTES: u64 = 10 * 1024;

/// A controller → GPU configuration update: new per-ramp thresholds and,
/// when the ramp set changed, the replacement ramp definitions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThresholdUpdate {
    /// Configuration epoch this update establishes on the GPU.
    pub config_epoch: u64,
    /// New per-ramp exit thresholds (one per active ramp, in ramp order).
    pub thresholds: Vec<f64>,
    /// Replacement ramp set, when the adjustment algorithm changed it. `None`
    /// means thresholds-only: the active ramps are unchanged.
    pub ramps: Option<Vec<RampPlacement>>,
}

impl WirePayload for ThresholdUpdate {
    /// Thresholds are a small vector of floats; ramp definitions (weights of
    /// the ramp layers) dominate whenever they are included.
    fn wire_bytes(&self) -> u64 {
        let ramp_bytes = match &self.ramps {
            Some(ramps) => ramps.len().max(1) as u64 * RAMP_DEFINITION_BYTES,
            None => 0,
        };
        64 + self.thresholds.len() as u64 * 8 + ramp_bytes
    }
}

/// Cost model of the CPU↔GPU link.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LinkCost {
    /// Fixed per-message latency (PCIe round trip), µs.
    pub fixed_us: f64,
    /// Additional latency per KiB transferred, µs.
    pub per_kib_us: f64,
}

impl Default for LinkCost {
    fn default() -> Self {
        // §4.5: 0.5 ms per communication, 0.4 ms of which is fixed PCIe latency.
        LinkCost {
            fixed_us: 400.0,
            per_kib_us: 25.0,
        }
    }
}

impl LinkCost {
    /// A zero-latency link (for isolating the algorithmic behaviour from the
    /// coordination delay in tests).
    pub const FREE: LinkCost = LinkCost {
        fixed_us: 0.0,
        per_kib_us: 0.0,
    };

    /// Latency of transferring `bytes` in one message.
    pub fn transfer_latency(&self, bytes: u64) -> SimDuration {
        let kib = bytes as f64 / 1024.0;
        SimDuration::from_micros_f64(self.fixed_us + self.per_kib_us * kib)
    }
}

/// Statistics about one direction of the feedback link.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct LinkStats {
    /// Messages sent.
    pub messages: u64,
    /// Total bytes sent.
    pub bytes: u64,
    /// Total simulated transfer latency.
    pub total_latency: SimDuration,
}

impl LinkStats {
    /// Mean per-message latency.
    pub fn mean_latency(&self) -> SimDuration {
        if self.messages == 0 {
            SimDuration::ZERO
        } else {
            self.total_latency / self.messages
        }
    }
}

/// Both directions of a GPU ↔ controller link, for the §4.5 overhead table.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct OverheadReport {
    /// GPU → controller profiling stream.
    pub uplink: LinkStats,
    /// Controller → GPU threshold/ramp updates.
    pub downlink: LinkStats,
}

impl OverheadReport {
    /// Messages across both directions.
    pub fn total_messages(&self) -> u64 {
        self.uplink.messages + self.downlink.messages
    }

    /// Bytes across both directions.
    pub fn total_bytes(&self) -> u64 {
        self.uplink.bytes + self.downlink.bytes
    }

    /// Total coordination latency across both directions.
    pub fn total_latency(&self) -> SimDuration {
        self.uplink.total_latency + self.downlink.total_latency
    }

    /// Mean per-message latency across both directions.
    pub fn mean_latency(&self) -> SimDuration {
        let messages = self.total_messages();
        if messages == 0 {
            SimDuration::ZERO
        } else {
            self.total_latency() / messages
        }
    }
}

/// One direction of the GPU ↔ controller link, owned by the loop that sends
/// and polls it. A sent message waits on the wire, in a queue sorted by
/// `(deliver_at, seq)`, until a poll at or after its delivery time.
#[derive(Debug)]
pub struct FeedbackLink<T> {
    cost: LinkCost,
    stats: LinkStats,
    /// Messages on the wire: delivery time, 1-based send sequence number and
    /// payload, sorted by `(deliver_at, seq)`.
    wire: VecDeque<(SimTime, u64, T)>,
    telemetry: Telemetry,
    direction: LinkDirection,
}

impl<T: WirePayload> FeedbackLink<T> {
    /// An empty link direction charging `cost` per message.
    pub fn new(cost: LinkCost) -> FeedbackLink<T> {
        FeedbackLink {
            cost,
            stats: LinkStats::default(),
            wire: VecDeque::new(),
            telemetry: Telemetry::disabled(),
            direction: LinkDirection::Up,
        }
    }

    /// Attach a telemetry handle: every subsequent `send` records a
    /// `link-message` event and bumps the per-direction message/byte
    /// counters.
    pub fn set_telemetry(&mut self, telemetry: Telemetry, direction: LinkDirection) {
        self.telemetry = telemetry;
        self.direction = direction;
    }

    /// Stream one message at simulated time `sent_at`. Returns the time at
    /// which a poll will hand it out (send time + transfer latency).
    /// Sending never blocks the simulated producer.
    pub fn send(&mut self, payload: T, sent_at: SimTime) -> SimTime {
        let wire_bytes = payload.wire_bytes();
        let latency = self.cost.transfer_latency(wire_bytes);
        let deliver_at = sent_at + latency;
        self.stats.messages += 1;
        self.stats.bytes += wire_bytes;
        self.stats.total_latency += latency;
        let seq = self.stats.messages;
        if self.telemetry.is_enabled() {
            let direction = self.direction;
            self.telemetry.emit(sent_at, || EventKind::LinkMessage {
                direction,
                bytes: wire_bytes,
                latency_us: latency.as_micros(),
            });
            let (messages, bytes) = match direction {
                LinkDirection::Up => ("link_up_messages", "link_up_bytes"),
                LinkDirection::Down => ("link_down_messages", "link_down_bytes"),
            };
            self.telemetry.counter(messages, 1);
            self.telemetry.counter(bytes, wire_bytes);
        }
        // Almost always the back: sends come in time order and rarely find
        // more than one message still on the wire.
        let slot = self
            .wire
            .partition_point(|&(at, s, _)| (at, s) < (deliver_at, seq));
        self.wire.insert(slot, (deliver_at, seq, payload));
        deliver_at
    }

    /// Append every message *delivered* by `now` (transfer latency already
    /// accounted for) to `into`, in `(deliver_at, seq)` order: a message
    /// sent later but (being smaller) landing earlier comes first, and
    /// simultaneous deliveries keep their send order. Messages still in
    /// flight stay on the wire, and what `into` already held stays ahead of
    /// the new messages. The caller owns the buffer, so a poll allocates
    /// only when the buffer must grow, and every delivered message is in
    /// the buffer once the poll returns, however the caller then consumes
    /// it.
    pub fn poll(&mut self, now: SimTime, into: &mut Vec<T>) {
        let ready = self.wire.partition_point(|&(at, _, _)| at <= now);
        into.extend(self.wire.drain(..ready).map(|(_, _, payload)| payload));
    }

    /// Number of messages still on the wire.
    pub fn in_flight(&self) -> usize {
        self.wire.len()
    }

    /// This direction's statistics so far.
    pub fn stats(&self) -> LinkStats {
        self.stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(batch: u32) -> ProfileRecord {
        ProfileRecord {
            num_ramps: 2,
            samples: (0..batch as u64)
                .map(|id| SampleSemantics::new(id, 0.2))
                .collect(),
            releases: (0..batch as u64)
                .map(|id| RequestRelease {
                    id,
                    exit: None,
                    correct: true,
                })
                .collect(),
            config_epoch: 0,
            ramp_epoch: 0,
        }
    }

    /// Every message `link` delivers by `now`, polled into a fresh buffer.
    fn delivered<T: WirePayload>(link: &mut FeedbackLink<T>, now: SimTime) -> Vec<T> {
        let mut into = Vec::new();
        link.poll(now, &mut into);
        into
    }

    #[test]
    fn link_cost_matches_paper_scale() {
        let cost = LinkCost::default();
        let latency = cost.transfer_latency(1024);
        // ~0.4 ms fixed + ~25 µs per KiB ≈ 0.425 ms, within the paper's ~0.5 ms.
        assert!(latency.as_millis_f64() > 0.35 && latency.as_millis_f64() < 0.6);
    }

    #[test]
    fn records_deliver_after_transfer_latency() {
        let mut link = FeedbackLink::new(LinkCost::default());
        let deliver_at = link.send(record(4), SimTime::from_millis(10));
        assert!(deliver_at > SimTime::from_millis(10));
        // Not yet delivered at completion time.
        assert!(delivered(&mut link, SimTime::from_millis(10)).is_empty());
        assert_eq!(link.in_flight(), 1);
        // Delivered once the link latency has elapsed.
        let got = delivered(&mut link, deliver_at);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].releases.len(), 4);
        assert_eq!(link.in_flight(), 0);
    }

    #[test]
    fn stats_accumulate() {
        let mut link = FeedbackLink::new(LinkCost::default());
        for i in 0..5 {
            link.send(record(2), SimTime::from_millis(i));
        }
        let stats = link.stats();
        assert_eq!(stats.messages, 5);
        assert!(stats.bytes > 0);
        assert!(stats.mean_latency() > SimDuration::ZERO);
    }

    #[test]
    fn traced_sends_reconcile_with_link_stats() {
        use apparate_telemetry::{Telemetry, TelemetryConfig};
        let mut link = FeedbackLink::new(LinkCost::default());
        let telemetry = Telemetry::recording(TelemetryConfig::default());
        link.set_telemetry(telemetry.clone(), LinkDirection::Up);
        for i in 0..5 {
            link.send(record(2), SimTime::from_millis(i));
        }
        let stats = link.stats();
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.count_kind("link-message") as u64, stats.messages);
        assert_eq!(snap.counter_total("link_up_messages"), stats.messages);
        assert_eq!(snap.counter_total("link_up_bytes"), stats.bytes);
        assert_eq!(snap.counter_total("link_down_messages"), 0);
    }

    #[test]
    fn wire_bytes_are_small() {
        // The paper stresses profiling data is ~1 KB per batch; a batch of 16
        // requests over 4 ramps must stay in that ballpark. A record carries
        // each request's semantics but is charged for its observation rows.
        let rec = |requests: u64, num_ramps: usize| ProfileRecord {
            num_ramps,
            samples: (0..requests)
                .map(|i| SampleSemantics::new(i, 0.1))
                .collect(),
            releases: (0..requests)
                .map(|id| RequestRelease {
                    id,
                    exit: None,
                    correct: true,
                })
                .collect(),
            config_epoch: 0,
            ramp_epoch: 0,
        };
        let paper_scale = rec(16, 4).wire_bytes();
        assert!(paper_scale < 2048, "wire bytes {paper_scale}");
        for (requests, ramps) in [(1, 0), (8, 6), (16, 4)] {
            assert_eq!(
                rec(requests, ramps).wire_bytes(),
                64 + 8 * requests * ramps as u64 + 10 * requests,
                "{requests} requests over {ramps} ramps"
            );
        }
    }

    #[test]
    fn threshold_updates_are_charged_on_the_downlink() {
        let mut link = FeedbackLink::<ThresholdUpdate>::new(LinkCost::default());
        // Thresholds-only update: small.
        let small = ThresholdUpdate {
            config_epoch: 1,
            thresholds: vec![0.2; 6],
            ramps: None,
        };
        assert!(small.wire_bytes() < 256);
        // A ramp-set change ships ~10 KB of ramp definitions per ramp.
        let big = ThresholdUpdate {
            ramps: Some(vec![
                RampPlacement {
                    site: apparate_model::LayerId(3),
                    cost: apparate_model::LayerLatency {
                        fixed_us: 30.0,
                        per_item_us: 10.0,
                        batch_alpha: 0.7,
                    },
                    capacity: 0.95,
                };
                2
            ]),
            ..small.clone()
        };
        assert!(big.wire_bytes() >= 2 * RAMP_DEFINITION_BYTES);
        link.send(small, SimTime::from_millis(5));
        link.send(big, SimTime::from_millis(5));
        let stats = link.stats();
        assert_eq!(stats.messages, 2);
        assert!(stats.bytes > 2 * RAMP_DEFINITION_BYTES);
        // The big update takes visibly longer than the fixed PCIe latency.
        assert!(stats.total_latency.as_millis_f64() > 2.0 * 0.4);
    }

    #[test]
    fn delivery_order_is_deterministic_on_deliver_time_then_send_order() {
        // A large record sent first can land *after* a small one sent later;
        // delivery order must follow landing times, not completion times.
        let mut link = FeedbackLink::new(LinkCost {
            fixed_us: 0.0,
            per_kib_us: 1_000.0,
        });
        let big_at = link.send(record(64), SimTime::from_millis(10)); // slow transfer
        let small_at = link.send(record(1), SimTime::from_millis(11)); // lands almost at once
        assert!(small_at < big_at, "the later-sent record lands first");
        let got = delivered(&mut link, big_at);
        assert_eq!(got.len(), 2);
        assert_eq!(
            got[0].releases.len(),
            1,
            "the earlier-landing record is delivered first"
        );
        assert_eq!(got[1].releases.len(), 64);
    }

    #[test]
    fn later_sent_but_earlier_completed_records_do_not_jump_pending_ones() {
        // A record already waiting on the wire when a poll finds nothing
        // delivered must not be handed out behind a record that was sent
        // later but lands at the same time.
        let mut link = FeedbackLink::new(LinkCost {
            fixed_us: 1_000.0,
            per_kib_us: 0.0,
        });
        link.send(record(2), SimTime::from_millis(20)); // lands at 21 ms
        assert!(delivered(&mut link, SimTime::from_millis(5)).is_empty());
        assert_eq!(link.in_flight(), 1);
        // Now send a second record that lands at the same time.
        link.send(record(3), SimTime::from_millis(20)); // also lands at 21 ms
        let got = delivered(&mut link, SimTime::from_millis(30));
        assert_eq!(got.len(), 2);
        // Identical deliver_at: send order (= sequence) breaks the tie, so the
        // waiting record is delivered first.
        assert_eq!(got[0].releases.len(), 2);
        assert_eq!(got[1].releases.len(), 3);
    }

    #[test]
    fn simultaneous_deliveries_keep_send_order_across_polls() {
        let mut link = FeedbackLink::new(LinkCost::FREE);
        for i in 0..4 {
            link.send(record(i + 1), SimTime::from_millis(7));
        }
        let got = delivered(&mut link, SimTime::from_millis(7));
        let sizes: Vec<usize> = got.iter().map(|r| r.releases.len()).collect();
        assert_eq!(sizes, vec![1, 2, 3, 4]);
    }

    /// A message of a chosen wire size, named by its send index.
    struct Message {
        index: usize,
        bytes: u64,
    }

    impl WirePayload for Message {
        fn wire_bytes(&self) -> u64 {
            self.bytes
        }
    }

    /// Poll `link` at `now` into a buffer that already holds `held`
    /// messages and check the result against the reference: the held
    /// messages, in order, then `wire` (each message still on the wire as
    /// `(deliver_at, send index)`) sorted, up to `now`. Returns whether the
    /// poll handed out a later send first.
    fn poll_matches_reference(
        link: &mut FeedbackLink<Message>,
        wire: &mut Vec<(SimTime, usize)>,
        now: SimTime,
        held: usize,
        label: &str,
    ) -> bool {
        wire.sort_unstable();
        let ready = wire.iter().take_while(|(at, _)| *at <= now).count();
        // Held messages carry indices no send uses.
        let mut want: Vec<usize> = (0..held).map(|k| usize::MAX - k).collect();
        let mut into: Vec<Message> = want
            .iter()
            .map(|&index| Message { index, bytes: 0 })
            .collect();
        want.extend(wire.drain(..ready).map(|(_, index)| index));
        link.poll(now, &mut into);
        let got: Vec<usize> = into.iter().map(|m| m.index).collect();
        assert_eq!(got, want, "{label}: poll at {now:?} behind {held} held");
        let got = &got[held..];
        assert_eq!(
            link.in_flight(),
            wire.len(),
            "{label}: after the poll at {now:?}"
        );
        got.windows(2).any(|w| w[0] > w[1])
    }

    #[test]
    fn polls_match_a_sorted_reference_under_seeded_traffic() {
        use apparate_sim::DeterministicRng;
        // Transfer time dominated by size: a 64 KiB message takes 64 ms, a
        // 1 B message 10 µs, so later sends often land first.
        let size_dominated = LinkCost {
            fixed_us: 10.0,
            per_kib_us: 1_000.0,
        };
        let mut reordered = 0;
        for (c, cost) in [LinkCost::FREE, LinkCost::default(), size_dominated]
            .into_iter()
            .enumerate()
        {
            for seed in 0..16u64 {
                let label = format!("cost {c}, seed {seed}");
                let mut rng = DeterministicRng::new(seed).stream(&[c as u64]);
                let mut link = FeedbackLink::new(cost);
                let mut wire = Vec::new();
                let mut sent_at = SimTime::ZERO;
                for index in 0..400 {
                    // Non-decreasing send times, a third of them tied.
                    if !rng.chance(1.0 / 3.0) {
                        sent_at += SimDuration::from_micros(rng.below(2_000));
                    }
                    // 1 B – 64 KiB, log-uniform in the power of two.
                    let power = rng.below(17);
                    let bytes = 1 + rng.below(1 << power);
                    let deliver_at = link.send(Message { index, bytes }, sent_at);
                    assert_eq!(deliver_at, sent_at + cost.transfer_latency(bytes));
                    wire.push((deliver_at, index));
                    if rng.chance(0.4) {
                        let now = sent_at + SimDuration::from_micros(rng.below(5_000));
                        let held = index % 3;
                        reordered += usize::from(poll_matches_reference(
                            &mut link, &mut wire, now, held, &label,
                        ));
                    }
                }
                poll_matches_reference(&mut link, &mut wire, SimTime::from_secs(3_600), 2, &label);
                assert_eq!(link.in_flight(), 0, "{label}");
            }
        }
        assert!(reordered > 0, "some poll must hand out a later send first");
    }
}
