//! Requests and per-request serving records.

use apparate_exec::SampleSemantics;
use apparate_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// An inference request submitted to the serving platform.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Request {
    /// Unique id (monotone in submission order).
    pub id: u64,
    /// Arrival time at the platform's queue.
    pub arrival: SimTime,
    /// Semantic description used by the ramp-semantics model.
    pub semantics: SampleSemantics,
    /// Response-time SLO, if the application specified one.
    pub slo: Option<SimDuration>,
    /// For generative requests: number of output tokens to produce. Zero for
    /// classification requests.
    pub output_tokens: u32,
}

impl Request {
    /// A classification request.
    pub fn classification(
        id: u64,
        arrival: SimTime,
        semantics: SampleSemantics,
        slo: Option<SimDuration>,
    ) -> Request {
        Request {
            id,
            arrival,
            semantics,
            slo,
            output_tokens: 0,
        }
    }

    /// A generative request producing `output_tokens` tokens.
    pub fn generative(
        id: u64,
        arrival: SimTime,
        semantics: SampleSemantics,
        output_tokens: u32,
    ) -> Request {
        Request {
            id,
            arrival,
            semantics,
            slo: None,
            output_tokens,
        }
    }

    /// The absolute SLO deadline, if any.
    pub fn deadline(&self) -> Option<SimTime> {
        self.slo.map(|slo| self.arrival + slo)
    }

    /// The decode time a front end projects for this request when it
    /// dispatches whole sequences: its output length (at least one token)
    /// times the per-token estimate.
    pub fn projected_decode(&self, per_token: SimDuration) -> SimDuration {
        SimDuration::from_micros_f64(
            per_token.as_micros() as f64 * self.output_tokens.max(1) as f64,
        )
    }
}

/// What happened to one request, as recorded by the serving simulator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestRecord {
    /// Request id.
    pub id: u64,
    /// Arrival time.
    pub arrival: SimTime,
    /// When the batch containing the request started executing.
    pub batch_start: SimTime,
    /// Size of that batch.
    pub batch_size: u32,
    /// When the *result* was released to the application (early exit or full model).
    pub released: SimTime,
    /// When the input finished its full pass through the model (>= `released`).
    pub completed: SimTime,
    /// Index of the ramp the result exited at, if any.
    pub exit_ramp: Option<usize>,
    /// Whether the released result matches the original model's output.
    pub correct: bool,
    /// Whether the response violated its SLO.
    pub slo_violated: bool,
}

impl RequestRecord {
    /// Response latency: queueing plus serving until the result was released.
    pub fn latency(&self) -> SimDuration {
        self.released - self.arrival
    }

    /// Time spent waiting in the queue.
    pub fn queue_delay(&self) -> SimDuration {
        self.batch_start - self.arrival
    }

    /// Serving time: from batch start until the result was released.
    pub fn serving_time(&self) -> SimDuration {
        self.released - self.batch_start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> RequestRecord {
        RequestRecord {
            id: 1,
            arrival: SimTime::from_millis(10),
            batch_start: SimTime::from_millis(14),
            batch_size: 4,
            released: SimTime::from_millis(20),
            completed: SimTime::from_millis(26),
            exit_ramp: Some(2),
            correct: true,
            slo_violated: false,
        }
    }

    #[test]
    fn latency_decomposition() {
        let r = record();
        assert_eq!(r.latency(), SimDuration::from_millis(10));
        assert_eq!(r.queue_delay(), SimDuration::from_millis(4));
        assert_eq!(r.serving_time(), SimDuration::from_millis(6));
    }

    #[test]
    fn deadline_only_with_slo() {
        let sem = SampleSemantics::new(0, 0.5);
        let r = Request::classification(
            0,
            SimTime::from_millis(5),
            sem,
            Some(SimDuration::from_millis(30)),
        );
        assert_eq!(r.deadline(), Some(SimTime::from_millis(35)));
        let r2 = Request::generative(1, SimTime::ZERO, sem, 64);
        assert_eq!(r2.deadline(), None);
        assert_eq!(r2.output_tokens, 64);
    }
}
