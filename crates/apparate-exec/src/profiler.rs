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
//! 64-byte header. It uses a real channel so the controller code is
//! structured the same way it would be against a real GPU stream
//! (producer/consumer, non-blocking for serving). Both directions are modelled with the same machinery: a
//! [`FeedbackSender`]/[`FeedbackReceiver`] pair generic over the
//! [`WirePayload`] it carries, with [`ProfileRecord`] flowing GPU → controller
//! and [`ThresholdUpdate`] flowing controller → GPU. Delivery is charged
//! against the [`LinkCost`] model and takes effect only once the simulated
//! transfer has completed, so consumers polling at time *t* can never act on
//! messages still on the wire at *t*.

use crate::engine::RampPlacement;
use crate::semantics::SampleSemantics;
use apparate_sim::{SimDuration, SimTime};
use apparate_telemetry::{EventKind, LinkDirection, Telemetry};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

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
    /// When the batch finished on the GPU.
    pub completed_at: SimTime,
    /// Batch size.
    pub batch_size: u32,
    /// Number of active ramps the batch ran: the length of each request's
    /// row.
    pub num_ramps: usize,
    /// Each request's semantics, in batch order (parallel to `releases`).
    pub samples: Vec<SampleSemantics>,
    /// Per-request release metadata, in batch order. One packed vector
    /// rather than parallel id/exit/correct vectors, so a record costs two
    /// allocations however large the batch.
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
    /// When the controller issued the update.
    pub issued_at: SimTime,
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

/// Shared statistics about one direction of the feedback link.
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

/// An in-flight message: when it lands, its send sequence number (for
/// deterministic delivery order), and the payload.
type InFlight<T> = (SimTime, u64, T);

/// The producer half of one link direction.
#[derive(Debug)]
pub struct FeedbackSender<T> {
    tx: Sender<InFlight<T>>,
    cost: LinkCost,
    stats: Arc<Mutex<LinkStats>>,
    telemetry: Telemetry,
    direction: LinkDirection,
}

// Manual impl: the channel `Sender` (a shared queue handle in the offline
// crossbeam stand-in) is Clone for any `T`, but deriving would also bound
// `T: Clone`, which senders don't need.
impl<T> Clone for FeedbackSender<T> {
    fn clone(&self) -> Self {
        FeedbackSender {
            tx: self.tx.clone(),
            cost: self.cost,
            stats: Arc::clone(&self.stats),
            telemetry: self.telemetry.clone(),
            direction: self.direction,
        }
    }
}

/// The consumer half of one link direction.
#[derive(Debug)]
pub struct FeedbackReceiver<T> {
    rx: Receiver<InFlight<T>>,
    stats: Arc<Mutex<LinkStats>>,
    /// Messages received from the channel but whose simulated delivery time
    /// has not yet been reached.
    pending: Vec<InFlight<T>>,
}

/// Create one direction of a feedback link with the given cost model.
pub fn feedback_link<T: WirePayload>(cost: LinkCost) -> (FeedbackSender<T>, FeedbackReceiver<T>) {
    let (tx, rx) = unbounded();
    let stats = Arc::new(Mutex::new(LinkStats::default()));
    (
        FeedbackSender {
            tx,
            cost,
            stats: Arc::clone(&stats),
            telemetry: Telemetry::disabled(),
            direction: LinkDirection::Up,
        },
        FeedbackReceiver {
            rx,
            stats,
            pending: Vec::new(),
        },
    )
}

impl<T: WirePayload> FeedbackSender<T> {
    /// Stream one message at simulated time `sent_at`. Returns the time at
    /// which the receiver will have it (send time + transfer latency).
    /// Sending never blocks the simulated producer.
    pub fn send(&self, payload: T, sent_at: SimTime) -> SimTime {
        let wire_bytes = payload.wire_bytes();
        let latency = self.cost.transfer_latency(wire_bytes);
        let deliver_at = sent_at + latency;
        let seq = {
            let mut stats = self.stats.lock();
            stats.messages += 1;
            stats.bytes += wire_bytes;
            stats.total_latency += latency;
            stats.messages
        };
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
        // The receiver may have been dropped (e.g. controller shut down); the
        // producer must not care.
        let _ = self.tx.send((deliver_at, seq, payload));
        deliver_at
    }

    /// The cost model this sender charges.
    pub fn cost(&self) -> LinkCost {
        self.cost
    }

    /// Attach a telemetry handle: every subsequent `send` (from this sender
    /// and clones made *after* this call) records a `link-message` event and
    /// bumps the per-direction message/byte counters. Call before handing
    /// out clones so the whole stream is traced.
    pub fn set_telemetry(&mut self, telemetry: Telemetry, direction: LinkDirection) {
        self.telemetry = telemetry;
        self.direction = direction;
    }

    /// Snapshot of this direction's statistics.
    pub fn stats(&self) -> LinkStats {
        self.stats.lock().clone()
    }
}

impl<T> FeedbackReceiver<T> {
    /// Drain every message that has been *delivered* by `now` (transfer
    /// latency already accounted for). Messages still "in flight" stay queued.
    ///
    /// Delivery order is deterministic: ready messages are returned sorted by
    /// `(deliver_at, send sequence)`, so a message that was sent later but
    /// (being smaller) landed earlier is delivered first, and simultaneous
    /// deliveries keep their send order regardless of how the channel
    /// interleaved with earlier `poll` calls.
    pub fn poll(&mut self, now: SimTime) -> Vec<T> {
        while let Ok(item) = self.rx.try_recv() {
            // crossbeam channels have no peek, so not-yet-delivered messages
            // are conceptually still on the wire and kept locally.
            self.pending.push(item);
        }
        // Partition in place: ready messages move to the tail of `pending`
        // (internal order is irrelevant — delivery order is imposed by the
        // sort below), so the only allocation per poll is the returned batch.
        let mut split = self.pending.len();
        let mut i = 0;
        while i < split {
            if self.pending[i].0 <= now {
                split -= 1;
                self.pending.swap(i, split);
            } else {
                i += 1;
            }
        }
        let ready = &mut self.pending[split..];
        ready.sort_by_key(|(deliver_at, seq, _)| (*deliver_at, *seq));
        // Runtime counterpart of the static ordering rules (apparate-lint
        // W001): everything handed out is actually delivered by `now`, and
        // the batch is strictly ordered by `(deliver_at, seq)` — sequence
        // numbers are unique per link, so ties in `deliver_at` cannot erase
        // send order.
        debug_assert!(
            ready.iter().all(|(deliver_at, _, _)| *deliver_at <= now),
            "feedback delivery handed out a message still on the wire at {now:?}"
        );
        debug_assert!(
            ready
                .windows(2)
                .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)),
            "feedback delivery is not strictly ordered by (deliver_at, seq)"
        );
        self.pending
            .drain(split..)
            .map(|(_, _, payload)| payload)
            .collect()
    }

    /// Number of messages waiting on the wire (received from the channel but
    /// not yet delivered).
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Snapshot of this direction's statistics.
    pub fn stats(&self) -> LinkStats {
        self.stats.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(at_ms: u64, batch: u32) -> ProfileRecord {
        ProfileRecord {
            completed_at: SimTime::from_millis(at_ms),
            batch_size: batch,
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

    #[test]
    fn link_cost_matches_paper_scale() {
        let cost = LinkCost::default();
        let latency = cost.transfer_latency(1024);
        // ~0.4 ms fixed + ~25 µs per KiB ≈ 0.425 ms, within the paper's ~0.5 ms.
        assert!(latency.as_millis_f64() > 0.35 && latency.as_millis_f64() < 0.6);
    }

    #[test]
    fn records_deliver_after_transfer_latency() {
        let (tx, mut rx) = feedback_link(LinkCost::default());
        let rec = record(10, 4);
        let deliver_at = tx.send(rec.clone(), rec.completed_at);
        assert!(deliver_at > SimTime::from_millis(10));
        // Not yet delivered at completion time.
        assert!(rx.poll(SimTime::from_millis(10)).is_empty());
        assert_eq!(rx.in_flight(), 1);
        // Delivered once the link latency has elapsed.
        let got = rx.poll(deliver_at);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].batch_size, 4);
        assert_eq!(rx.in_flight(), 0);
    }

    #[test]
    fn stats_accumulate() {
        let (tx, rx) = feedback_link(LinkCost::default());
        for i in 0..5 {
            let rec = record(i, 2);
            tx.send(rec.clone(), rec.completed_at);
        }
        let stats = rx.stats();
        assert_eq!(stats.messages, 5);
        assert!(stats.bytes > 0);
        assert!(stats.mean_latency() > SimDuration::ZERO);
    }

    #[test]
    fn traced_sends_reconcile_with_link_stats() {
        use apparate_telemetry::{Telemetry, TelemetryConfig};
        let (mut tx, rx) = feedback_link(LinkCost::default());
        let telemetry = Telemetry::recording(TelemetryConfig::default());
        tx.set_telemetry(telemetry.clone(), LinkDirection::Up);
        for i in 0..5 {
            let rec = record(i, 2);
            tx.send(rec.clone(), rec.completed_at);
        }
        let stats = rx.stats();
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
            completed_at: SimTime::ZERO,
            batch_size: requests as u32,
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
        let (tx, rx) = feedback_link::<ThresholdUpdate>(LinkCost::default());
        // Thresholds-only update: small.
        let small = ThresholdUpdate {
            issued_at: SimTime::from_millis(5),
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
        tx.send(small, SimTime::from_millis(5));
        tx.send(big, SimTime::from_millis(5));
        let stats = rx.stats();
        assert_eq!(stats.messages, 2);
        assert!(stats.bytes > 2 * RAMP_DEFINITION_BYTES);
        // The big update takes visibly longer than the fixed PCIe latency.
        assert!(stats.total_latency.as_millis_f64() > 2.0 * 0.4);
    }

    #[test]
    fn delivery_order_is_deterministic_on_deliver_time_then_send_order() {
        // A large record sent first can land *after* a small one sent later;
        // delivery order must follow landing times, not completion times.
        let (tx, mut rx) = feedback_link(LinkCost {
            fixed_us: 0.0,
            per_kib_us: 1_000.0,
        });
        let big = record(10, 64); // sent at 10 ms, slow transfer
        let small = record(11, 1); // sent at 11 ms, lands almost immediately
        let big_at = tx.send(big, SimTime::from_millis(10));
        let small_at = tx.send(small, SimTime::from_millis(11));
        assert!(small_at < big_at, "the later-sent record lands first");
        let got = rx.poll(big_at);
        assert_eq!(got.len(), 2);
        assert_eq!(
            got[0].batch_size, 1,
            "the earlier-landing record is delivered first"
        );
        assert_eq!(got[1].batch_size, 64);
    }

    #[test]
    fn later_sent_but_earlier_completed_records_do_not_jump_pending_ones() {
        // Regression for the rx-before-pending drain bug: a record already
        // waiting in `pending` must not be delivered behind a record that was
        // sent later but carries an earlier completion stamp.
        let (tx, mut rx) = feedback_link(LinkCost {
            fixed_us: 1_000.0,
            per_kib_us: 0.0,
        });
        tx.send(record(20, 2), SimTime::from_millis(20)); // lands at 21 ms
                                                          // Poll early so the first record moves into the receiver's local
                                                          // pending buffer while still undelivered.
        assert!(rx.poll(SimTime::from_millis(5)).is_empty());
        assert_eq!(rx.in_flight(), 1);
        // Now send a record with an *earlier* completion time that lands later.
        tx.send(record(10, 3), SimTime::from_millis(20)); // also lands at 21 ms
        let got = rx.poll(SimTime::from_millis(30));
        assert_eq!(got.len(), 2);
        // Identical deliver_at: send order (= sequence) breaks the tie, so the
        // pending record is delivered first even though it completed later.
        assert_eq!(got[0].batch_size, 2);
        assert_eq!(got[1].batch_size, 3);
    }

    #[test]
    fn simultaneous_deliveries_keep_send_order_across_polls() {
        let (tx, mut rx) = feedback_link(LinkCost::FREE);
        for i in 0..4 {
            tx.send(record(7, i + 1), SimTime::from_millis(7));
        }
        let got = rx.poll(SimTime::from_millis(7));
        let sizes: Vec<u32> = got.iter().map(|r| r.batch_size).collect();
        assert_eq!(sizes, vec![1, 2, 3, 4]);
    }
}
