//! I/O trace capture and replay.
//!
//! The paper's methodology is trace-driven: I/O traces are collected from
//! the big-data workloads and injected into the simulator. [`IoTrace`]
//! provides the same workflow for this library — record a request stream
//! once (from a generator, a production log, or another simulation) and
//! replay it deterministically against any [`StorageDevice`].

use crate::io::{IoCompletion, IoError, IoOp, IoRequest};
use crate::StorageDevice;
use nvhsm_cache::AccessClass;
use nvhsm_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// One trace entry (a flattened [`IoRequest`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Arrival time in nanoseconds since trace start.
    pub arrival_ns: u64,
    /// Issuing stream.
    pub stream: u32,
    /// First block.
    pub block: u64,
    /// Size in 4 KiB blocks.
    pub size_blocks: u32,
    /// True for writes.
    pub is_write: bool,
    /// True for migration-class requests.
    pub is_migrated: bool,
}

impl TraceRecord {
    /// Converts back into a request, shifting arrivals by `base`.
    pub fn to_request(self, base: SimTime) -> IoRequest {
        IoRequest {
            stream: self.stream,
            block: self.block,
            size_blocks: self.size_blocks,
            op: if self.is_write {
                IoOp::Write
            } else {
                IoOp::Read
            },
            arrival: base + SimDuration::from_ns(self.arrival_ns),
            class: if self.is_migrated {
                AccessClass::Migrated
            } else {
                AccessClass::Normal
            },
        }
    }

    /// Captures a request relative to `base`.
    pub fn from_request(req: &IoRequest, base: SimTime) -> Self {
        TraceRecord {
            arrival_ns: req.arrival.saturating_since(base).as_ns(),
            stream: req.stream,
            block: req.block,
            size_blocks: req.size_blocks,
            is_write: req.op == IoOp::Write,
            is_migrated: req.class == AccessClass::Migrated,
        }
    }
}

/// A recorded I/O trace.
///
/// # Examples
///
/// ```
/// use nvhsm_device::trace::IoTrace;
/// use nvhsm_device::{IoOp, IoRequest, SsdConfig, SsdDevice};
/// use nvhsm_sim::SimTime;
///
/// let mut trace = IoTrace::new();
/// trace.push(&IoRequest::normal(0, 7, 1, IoOp::Read, SimTime::from_us(5)));
/// let mut dev = SsdDevice::new(SsdConfig::small_test());
/// let completions = trace.replay(&mut dev, SimTime::ZERO);
/// assert_eq!(completions.len(), 1);
/// assert!(completions[0].is_ok());
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct IoTrace {
    records: Vec<TraceRecord>,
}

impl IoTrace {
    /// An empty trace (t = 0 base).
    pub fn new() -> Self {
        IoTrace::default()
    }

    /// Appends a request (arrivals are stored relative to t = 0).
    pub fn push(&mut self, req: &IoRequest) {
        self.records
            .push(TraceRecord::from_request(req, SimTime::ZERO));
    }

    /// The raw records.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Replays the trace against `dev`, shifting arrivals by `base`;
    /// returns each request's outcome in trace order (an `Err` where an
    /// installed fault hook failed it).
    pub fn replay(
        &self,
        dev: &mut dyn StorageDevice,
        base: SimTime,
    ) -> Vec<Result<IoCompletion, IoError>> {
        self.records
            .iter()
            .map(|r| dev.try_submit(&r.to_request(base)))
            .collect()
    }

    /// Serializes to JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying serialization error.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Deserializes from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying parse error.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

impl FromIterator<TraceRecord> for IoTrace {
    fn from_iter<I: IntoIterator<Item = TraceRecord>>(iter: I) -> Self {
        IoTrace {
            records: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SsdConfig, SsdDevice};

    fn sample_trace() -> IoTrace {
        let mut t = IoTrace::new();
        for i in 0..50u64 {
            let op = if i % 3 == 0 { IoOp::Write } else { IoOp::Read };
            t.push(&IoRequest::normal(
                1,
                i * 7 % 1000,
                1 + (i % 4) as u32,
                op,
                SimTime::from_us(i * 100),
            ));
        }
        t
    }

    #[test]
    fn record_request_round_trip() {
        let req = IoRequest::migrated(3, 42, 8, IoOp::Write, SimTime::from_us(9));
        let rec = TraceRecord::from_request(&req, SimTime::ZERO);
        let back = rec.to_request(SimTime::ZERO);
        assert_eq!(back, req);
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let trace = sample_trace();
        let json = trace.to_json().unwrap();
        let back = IoTrace::from_json(&json).unwrap();
        assert_eq!(back.records(), trace.records());
    }

    #[test]
    fn replay_is_deterministic() {
        let trace = sample_trace();
        let run = || {
            let mut dev = SsdDevice::new(SsdConfig::small_test());
            dev.prefill(0..1000);
            trace.replay(&mut dev, SimTime::ZERO)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
    }

    #[test]
    fn replay_base_shifts_arrivals() {
        let trace = sample_trace();
        let mut dev = SsdDevice::new(SsdConfig::small_test());
        dev.prefill(0..1000);
        let shifted = trace.replay(&mut dev, SimTime::from_secs(1));
        let first = shifted[0].expect("no fault hook installed");
        assert!(first.done >= SimTime::from_secs(1));
    }
}
