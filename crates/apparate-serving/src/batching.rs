//! Batching policies.
//!
//! These reproduce the queue-management strategies discussed in §2.1:
//!
//! * [`BatchingPolicy::TfServe`] — TensorFlow-Serving style knobs
//!   (`max_batch_size`, `batch_timeout_micros`): launch a full batch when
//!   enough requests are queued, otherwise wait until the oldest request has
//!   waited `batch_timeout` and launch whatever is there.
//! * [`BatchingPolicy::Clockwork`] — SLO-aware, work-conserving: whenever the
//!   GPU is free and requests are queued, launch the largest batch whose
//!   estimated completion still meets the earliest deadline in the batch
//!   (falling back to batch 1 when even that would violate).
//! * [`BatchingPolicy::Immediate`] — batch size 1, schedule as soon as the GPU
//!   is free; the latency lower bound shown as grey lines in Figure 2.

use crate::request::Request;
use apparate_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// What the policy wants the platform to do right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchDecision {
    /// Launch a batch of the given size (drawn from the head of the queue).
    Launch(u32),
    /// Do nothing until the given time (or until the next arrival/GPU-free
    /// event, whichever comes first).
    WaitUntil(SimTime),
    /// Nothing to do (empty queue).
    Idle,
}

/// A batching policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BatchingPolicy {
    /// TensorFlow-Serving style `max_batch_size` / `batch_timeout` knobs.
    TfServe {
        /// Maximum batch size.
        max_batch_size: u32,
        /// How long the oldest queued request may wait before a partial batch
        /// is launched anyway.
        batch_timeout: SimDuration,
    },
    /// Clockwork-style SLO-aware work-conserving batching.
    Clockwork {
        /// Maximum batch size.
        max_batch_size: u32,
    },
    /// Always batch size 1, as soon as the GPU is free.
    Immediate,
}

impl BatchingPolicy {
    /// Decide what to do given the queued requests (oldest first), the current
    /// time, and an estimator of batch execution time.
    ///
    /// The platform only calls this when the GPU is idle.
    pub fn decide(
        &self,
        queue: &[Request],
        now: SimTime,
        exec_time: &dyn Fn(u32) -> SimDuration,
    ) -> BatchDecision {
        if queue.is_empty() {
            return BatchDecision::Idle;
        }
        match *self {
            BatchingPolicy::Immediate => BatchDecision::Launch(1),
            BatchingPolicy::TfServe {
                max_batch_size,
                batch_timeout,
            } => {
                let queued = queue.len() as u32;
                if queued >= max_batch_size {
                    return BatchDecision::Launch(max_batch_size);
                }
                let oldest = queue[0].arrival;
                let launch_at = oldest + batch_timeout;
                if now >= launch_at {
                    BatchDecision::Launch(queued)
                } else {
                    BatchDecision::WaitUntil(launch_at)
                }
            }
            BatchingPolicy::Clockwork { max_batch_size } => {
                let queued = queue.len() as u32;
                let cap = queued.min(max_batch_size);
                // Find the largest batch whose completion meets the earliest
                // deadline among its members. Requests are oldest-first, so the
                // earliest deadline in a prefix is (usually) the head's; it is
                // kept as a running minimum over the members added so far.
                let mut best = 1u32;
                let mut earliest_deadline: Option<SimTime> = None;
                for (b, request) in (1..=cap).zip(queue) {
                    let completion = now + exec_time(b);
                    if let Some(deadline) = request.deadline() {
                        earliest_deadline =
                            Some(earliest_deadline.map_or(deadline, |e| e.min(deadline)));
                    }
                    match earliest_deadline {
                        Some(deadline) if completion > deadline => break,
                        _ => best = b,
                    }
                }
                BatchDecision::Launch(best)
            }
        }
    }

    /// The policy's hard cap on batch size.
    pub fn max_batch_size(&self) -> u32 {
        match *self {
            BatchingPolicy::TfServe { max_batch_size, .. } => max_batch_size,
            BatchingPolicy::Clockwork { max_batch_size } => max_batch_size,
            BatchingPolicy::Immediate => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apparate_exec::SampleSemantics;

    fn requests(arrivals_ms: &[u64], slo_ms: Option<u64>) -> Vec<Request> {
        arrivals_ms
            .iter()
            .enumerate()
            .map(|(i, &ms)| {
                Request::classification(
                    i as u64,
                    SimTime::from_millis(ms),
                    SampleSemantics::new(i as u64, 0.5),
                    slo_ms.map(SimDuration::from_millis),
                )
            })
            .collect()
    }

    fn linear_exec(per_item_ms: u64) -> impl Fn(u32) -> SimDuration {
        move |b| SimDuration::from_millis(per_item_ms * b as u64)
    }

    #[test]
    fn immediate_always_launches_one() {
        let q = requests(&[0, 1, 2], None);
        let d = BatchingPolicy::Immediate.decide(&q, SimTime::from_millis(5), &linear_exec(1));
        assert_eq!(d, BatchDecision::Launch(1));
        assert_eq!(BatchingPolicy::Immediate.max_batch_size(), 1);
    }

    #[test]
    fn empty_queue_is_idle() {
        for policy in [
            BatchingPolicy::Immediate,
            BatchingPolicy::TfServe {
                max_batch_size: 8,
                batch_timeout: SimDuration::from_millis(10),
            },
            BatchingPolicy::Clockwork { max_batch_size: 8 },
        ] {
            assert_eq!(
                policy.decide(&[], SimTime::ZERO, &linear_exec(1)),
                BatchDecision::Idle
            );
        }
    }

    #[test]
    fn tfserve_launches_full_batch_when_enough_queued() {
        let policy = BatchingPolicy::TfServe {
            max_batch_size: 4,
            batch_timeout: SimDuration::from_millis(50),
        };
        let q = requests(&[0, 1, 2, 3, 4, 5], None);
        assert_eq!(
            policy.decide(&q, SimTime::from_millis(6), &linear_exec(1)),
            BatchDecision::Launch(4)
        );
    }

    #[test]
    fn tfserve_waits_for_timeout_then_launches_partial() {
        let policy = BatchingPolicy::TfServe {
            max_batch_size: 8,
            batch_timeout: SimDuration::from_millis(20),
        };
        let q = requests(&[10, 12], None);
        // Before the timeout: wait until oldest arrival + timeout = 30 ms.
        assert_eq!(
            policy.decide(&q, SimTime::from_millis(15), &linear_exec(1)),
            BatchDecision::WaitUntil(SimTime::from_millis(30))
        );
        // After the timeout: launch the partial batch.
        assert_eq!(
            policy.decide(&q, SimTime::from_millis(31), &linear_exec(1)),
            BatchDecision::Launch(2)
        );
    }

    #[test]
    fn clockwork_picks_largest_slo_safe_batch() {
        let policy = BatchingPolicy::Clockwork { max_batch_size: 16 };
        // 8 requests arrived at t=0 with 40 ms SLO; exec time is 5 ms per item.
        let q = requests(&[0; 8], Some(40));
        // At t=10, deadline is t=40, so the largest b with 10 + 5b <= 40 is 6.
        let d = policy.decide(&q, SimTime::from_millis(10), &linear_exec(5));
        assert_eq!(d, BatchDecision::Launch(6));
    }

    #[test]
    fn clockwork_is_work_conserving_even_when_slo_hopeless() {
        let policy = BatchingPolicy::Clockwork { max_batch_size: 8 };
        let q = requests(&[0, 0], Some(5));
        // Even batch 1 violates the 5 ms SLO at t=20; launch 1 anyway.
        let d = policy.decide(&q, SimTime::from_millis(20), &linear_exec(10));
        assert_eq!(d, BatchDecision::Launch(1));
    }

    #[test]
    fn clockwork_caps_the_batch_at_a_tighter_deadline_behind_the_head() {
        use std::cell::Cell;
        let policy = BatchingPolicy::Clockwork { max_batch_size: 8 };
        let request = |i: u64, slo_ms: Option<u64>| {
            Request::classification(
                i,
                SimTime::from_millis(i),
                SampleSemantics::new(i, 0.5),
                slo_ms.map(SimDuration::from_millis),
            )
        };
        // At t=5 with 5 ms per item, batch b completes at 5 + 5b. The head's
        // deadline is 100 ms, but request 2's is 2 + 20 = 22 ms, so batch 3
        // (20 ms) is the largest that meets it; SLO-less requests, wherever
        // they sit, must not lift that cap.
        let queues = [
            vec![
                request(0, Some(100)),
                request(1, Some(100)),
                request(2, Some(20)),
                request(3, Some(100)),
                request(4, Some(100)),
            ],
            vec![
                request(0, None),
                request(1, Some(100)),
                request(2, Some(20)),
                request(3, None),
                request(4, None),
            ],
            vec![
                request(0, Some(100)),
                request(1, None),
                request(2, Some(20)),
                request(3, None),
                request(4, Some(100)),
            ],
        ];
        for queue in &queues {
            let calls = Cell::new(0u32);
            let counted = |b: u32| {
                calls.set(calls.get() + 1);
                SimDuration::from_millis(5 * b as u64)
            };
            let d = policy.decide(queue, SimTime::from_millis(5), &counted);
            assert_eq!(d, BatchDecision::Launch(3), "{queue:?}");
            // One estimate per batch size tried: 1..=3 fit, 4 is refused.
            assert_eq!(calls.get(), 4, "{queue:?}");
        }
    }

    #[test]
    fn clockwork_without_slos_launches_max() {
        let policy = BatchingPolicy::Clockwork { max_batch_size: 4 };
        let q = requests(&[0, 1, 2, 3, 4, 5, 6, 7], None);
        assert_eq!(
            policy.decide(&q, SimTime::from_millis(8), &linear_exec(3)),
            BatchDecision::Launch(4)
        );
    }
}
