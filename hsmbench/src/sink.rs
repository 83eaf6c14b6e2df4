//! The benchmark-owned trace sink: counts events by kind, stamps each one
//! with host time, and pairs `IoSubmit`→`IoComplete` per device into the
//! device layer's host-time spans.
//!
//! A device emits `IoSubmit` when its fault gate admits a request and
//! `IoComplete` when service finishes, both inside one `try_submit` call,
//! and no device call nests inside another. The host time between the two
//! stamps is therefore the device model's own span (plus the cost of
//! building and recording the completion event). A rejected request emits
//! `IoFault` instead of `IoSubmit` and opens no span.

use nvdimm_hsm::obs::{TraceEvent, TraceSink};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Device tiers by their trace labels, in the order of [`TimingSink::spans`]
/// and of the `device.*` metrics.
pub const DEVICES: [&str; 3] = ["NVDIMM", "SSD", "HDD"];

/// Host-time spans of one device tier.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeviceSpans {
    /// Paired submit→complete spans.
    pub count: u64,
    /// Their summed host time.
    pub total: Duration,
}

/// Event counts and device spans of one traced run.
#[derive(Debug, Default)]
pub struct TimingSink {
    counts: BTreeMap<&'static str, u64>,
    open: [Option<Instant>; 3],
    spans: [DeviceSpans; 3],
    /// Submits overwritten before completing, plus completes with no open
    /// submit. Zero when every device call pairs up.
    unpaired: u64,
    imbalance_triggers: u64,
    imbalance_vetoes: u64,
    events: u64,
}

impl TimingSink {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `event` as if it arrived at host time `now`.
    pub fn record_at(&mut self, event: &TraceEvent, now: Instant) {
        self.events += 1;
        *self.counts.entry(event.kind()).or_default() += 1;
        match event {
            TraceEvent::IoSubmit { dev, .. } => {
                if let Some(i) = device_index(dev) {
                    if self.open[i].replace(now).is_some() {
                        self.unpaired += 1;
                    }
                }
            }
            TraceEvent::IoComplete { dev, .. } => {
                if let Some(i) = device_index(dev) {
                    match self.open[i].take() {
                        Some(start) => {
                            self.spans[i].count += 1;
                            self.spans[i].total += now.saturating_duration_since(start);
                        }
                        None => self.unpaired += 1,
                    }
                }
            }
            TraceEvent::ImbalanceTrigger {
                triggered, vetoed, ..
            } => {
                self.imbalance_triggers += *triggered as u64;
                self.imbalance_vetoes += *vetoed as u64;
            }
            _ => {}
        }
    }

    /// Events of `kind` (a [`TraceEvent::kind`] label) seen so far.
    pub fn count(&self, kind: &str) -> u64 {
        self.counts.get(kind).copied().unwrap_or(0)
    }

    /// All events seen so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Spans of device tier `i` (index into [`DEVICES`]).
    pub fn spans(&self, i: usize) -> DeviceSpans {
        self.spans[i]
    }

    /// Host time covered by device spans across all tiers.
    pub fn device_time(&self) -> Duration {
        self.spans.iter().map(|s| s.total).sum()
    }

    /// Unpaired submit/complete events (plus spans still open).
    pub fn unpaired(&self) -> u64 {
        self.unpaired + self.open.iter().flatten().count() as u64
    }

    /// `ImbalanceTrigger` events whose threshold fired.
    pub fn imbalance_triggers(&self) -> u64 {
        self.imbalance_triggers
    }

    /// `ImbalanceTrigger` events a cost-benefit veto cancelled.
    pub fn imbalance_vetoes(&self) -> u64 {
        self.imbalance_vetoes
    }
}

impl TraceSink for TimingSink {
    fn record(&mut self, event: &TraceEvent) {
        self.record_at(event, Instant::now());
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn device_index(label: &str) -> Option<usize> {
    DEVICES.iter().position(|&d| d == label)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submit(dev: &str) -> TraceEvent {
        TraceEvent::IoSubmit {
            t: 0,
            dev: dev.into(),
            stream: 0,
            block: 0,
            len: 1,
            op: "R".into(),
        }
    }

    fn complete(dev: &str) -> TraceEvent {
        TraceEvent::IoComplete {
            t: 0,
            dev: dev.into(),
            stream: 0,
            latency_ns: 1,
        }
    }

    #[test]
    fn pairs_submit_with_complete_per_device() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut s = TimingSink::new();
        s.record_at(&submit("SSD"), at(0));
        s.record_at(&complete("SSD"), at(5));
        s.record_at(&submit("NVDIMM"), at(10));
        s.record_at(&complete("NVDIMM"), at(12));
        s.record_at(&submit("SSD"), at(20));
        s.record_at(&complete("SSD"), at(27));
        let ssd = s.spans(1);
        assert_eq!((ssd.count, ssd.total), (2, Duration::from_micros(12)));
        let nv = s.spans(0);
        assert_eq!((nv.count, nv.total), (1, Duration::from_micros(2)));
        assert_eq!(s.spans(2), DeviceSpans::default());
        assert_eq!(s.device_time(), Duration::from_micros(14));
        assert_eq!(s.unpaired(), 0);
        assert_eq!((s.count("IoSubmit"), s.count("IoComplete")), (3, 3));
        assert_eq!(s.events(), 6);
    }

    #[test]
    fn a_complete_closes_only_its_own_device() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut s = TimingSink::new();
        // Interleaved tiers (a cache fill on one device while another
        // device's span is open) must not cross-pair.
        s.record_at(&submit("HDD"), at(0));
        s.record_at(&submit("NVDIMM"), at(1));
        s.record_at(&complete("NVDIMM"), at(3));
        s.record_at(&complete("HDD"), at(9));
        assert_eq!(s.spans(0).total, Duration::from_micros(2));
        assert_eq!(s.spans(2).total, Duration::from_micros(9));
        assert_eq!(s.unpaired(), 0);
    }

    #[test]
    fn unpaired_events_are_counted_not_spanned() {
        let t0 = Instant::now();
        let mut s = TimingSink::new();
        s.record_at(&complete("SSD"), t0);
        s.record_at(&submit("SSD"), t0);
        s.record_at(&submit("SSD"), t0);
        // One orphan complete, one overwritten submit, one still open.
        assert_eq!(s.unpaired(), 3);
        assert_eq!(s.spans(1).count, 0);
        // Faults open no span.
        let mut s = TimingSink::new();
        s.record_at(
            &TraceEvent::IoFault {
                t: 0,
                dev: "SSD".into(),
                kind: nvdimm_hsm::obs::FaultKind::Transient,
            },
            t0,
        );
        assert_eq!((s.unpaired(), s.count("IoFault")), (0, 1));
    }

    #[test]
    fn counts_imbalance_decisions() {
        let mut s = TimingSink::new();
        for (triggered, vetoed) in [(true, false), (true, true), (false, false)] {
            s.record_at(
                &TraceEvent::ImbalanceTrigger {
                    t: 0,
                    epoch: 0,
                    imbalance: 0.0,
                    triggered,
                    vetoed,
                },
                Instant::now(),
            );
        }
        assert_eq!((s.imbalance_triggers(), s.imbalance_vetoes()), (2, 1));
        assert_eq!(s.count("ImbalanceTrigger"), 3);
    }
}
