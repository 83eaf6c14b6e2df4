//! The PCIe SSD device model.
//!
//! Same NAND backend as the NVDIMM (Table 4: 512 GB, identical chip
//! timing) behind a PCIe 2.0 ×8 link (4096 MB/s). The controller runs a
//! sequential read-ahead window, so sequential reads are served from the
//! controller buffer while random reads pay the NAND visit — which,
//! together with chip-queueing collisions, produces the non-linear
//! latency-vs-randomness curve of Fig. 5 (b).

use crate::fault_gate::FaultGate;
use crate::io::{DeviceKind, IoCompletion, IoError, IoOp, IoRequest};
use crate::stats::DeviceStats;
use crate::StorageDevice;
use nvhsm_fault::DeviceFaultHook;
use nvhsm_flash::{FlashConfig, FlashDevice};
use nvhsm_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// SSD configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SsdConfig {
    /// NAND backend.
    pub flash: FlashConfig,
    /// PCIe link bandwidth in bytes/second.
    pub link_bandwidth: u64,
    /// Fixed controller + link round-trip overhead.
    pub controller_overhead: SimDuration,
    /// Blocks prefetched ahead on a detected sequential stream.
    pub readahead_blocks: u64,
    /// Write-buffer admission cost (writes are buffered and programmed in
    /// the background, cf. Table 1's ~15 µs SSD writes).
    pub write_buffer_latency: SimDuration,
}

impl SsdConfig {
    /// The paper's 512 GB PCIe 2.0 ×8 device. The controller overhead is
    /// calibrated so read latency lands in Table 1's ~400 µs ballpark
    /// (~2.7× the NVDIMM's ~150 µs): the PCIe/NVMe command path, FTL and
    /// host stack cost far more than the NVDIMM's load/store-adjacent DDR
    /// interface.
    pub fn table4() -> Self {
        SsdConfig {
            flash: FlashConfig::ssd_512g(),
            link_bandwidth: 4_096_000_000,
            controller_overhead: SimDuration::from_us(350),
            readahead_blocks: 32,
            write_buffer_latency: SimDuration::from_us(12),
        }
    }

    /// A 2 GiB scaled variant for tests.
    pub fn small_test() -> Self {
        SsdConfig {
            flash: FlashConfig::with_capacity_gib(2),
            ..Self::table4()
        }
    }
}

/// The PCIe SSD device.
///
/// # Examples
///
/// ```
/// use nvhsm_device::{IoOp, IoRequest, SsdConfig, SsdDevice, StorageDevice};
/// use nvhsm_sim::SimTime;
///
/// let mut dev = SsdDevice::new(SsdConfig::small_test());
/// let c = dev.try_submit(&IoRequest::normal(0, 0, 8, IoOp::Write, SimTime::ZERO)).expect("no fault hook installed");
/// assert!(c.latency.as_us_f64() < 100.0);
/// ```
#[derive(Debug)]
pub struct SsdDevice {
    cfg: SsdConfig,
    flash: FlashDevice,
    /// Per-stream read-ahead windows `(lo, hi)` in LRU order (most recent
    /// last, at most [`MAX_WINDOWS`] each): blocks within a window are
    /// considered prefetched. Multiple windows let interleaved sequential
    /// runs coexist with random probes, like real SSD stream detectors.
    windows: HashMap<u32, Vec<(u64, u64)>>,
    stats: DeviceStats,
    readahead_hits: u64,
    fault: FaultGate,
}

/// Maximum concurrent read-ahead windows tracked per stream.
const MAX_WINDOWS: usize = 4;

impl SsdDevice {
    /// Builds the device.
    ///
    /// # Panics
    ///
    /// Panics if the flash configuration is invalid.
    pub fn new(cfg: SsdConfig) -> Self {
        let flash = FlashDevice::new(cfg.flash.clone());
        SsdDevice {
            cfg,
            flash,
            windows: HashMap::new(),
            stats: DeviceStats::new(),
            readahead_hits: 0,
            fault: FaultGate::default(),
        }
    }

    /// Read-ahead hits served from the controller buffer.
    pub fn readahead_hits(&self) -> u64 {
        self.readahead_hits
    }

    /// The NAND backend.
    pub fn flash(&self) -> &FlashDevice {
        &self.flash
    }

    fn link_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_ns_f64(bytes as f64 * 1e9 / self.cfg.link_bandwidth as f64)
    }

    fn serve_read(&mut self, req: &IoRequest) -> SimTime {
        let now = req.arrival;
        let end = req.block + req.size_blocks as u64;
        let readahead = self.cfg.readahead_blocks;
        let windows = self.windows.entry(req.stream).or_default();
        let matched = windows
            .iter()
            .position(|&(lo, hi)| req.block >= lo && req.block <= hi);
        let in_window = matched.is_some_and(|i| end <= windows[i].1);

        match matched {
            Some(i) => {
                // Sequential progress: slide the window forward and mark it
                // most recently used.
                windows.remove(i);
                windows.push((end, end + readahead));
            }
            None => {
                // Random jump: arm a fresh window, evicting the coldest.
                if windows.len() >= MAX_WINDOWS {
                    windows.remove(0);
                }
                windows.push((end, end + readahead));
            }
        }

        let nand_done = if in_window {
            self.readahead_hits += 1;
            now
        } else {
            let mut done = now;
            for i in 0..req.size_blocks as u64 {
                done = done.max(self.flash.read(req.block + i, now));
            }
            done
        };
        nand_done + self.link_time(req.bytes()) + self.cfg.controller_overhead
    }

    fn serve_write(&mut self, req: &IoRequest) -> SimTime {
        let now = req.arrival;
        // Buffered write: admission cost to the host, NAND programs run in
        // the background.
        for i in 0..req.size_blocks as u64 {
            self.flash.write(req.block + i, now);
        }
        now + self.link_time(req.bytes()) + self.cfg.write_buffer_latency
    }
}

impl StorageDevice for SsdDevice {
    fn kind(&self) -> DeviceKind {
        DeviceKind::Ssd
    }

    fn try_submit(&mut self, req: &IoRequest) -> Result<IoCompletion, IoError> {
        // Failing windows reject before serve_* runs: read-ahead windows,
        // the FTL and the write buffer stay untouched.
        let disposition = self.fault.admit(DeviceKind::Ssd, req)?;
        let done = match req.op {
            IoOp::Read => self.serve_read(req),
            IoOp::Write => self.serve_write(req),
        };
        let completion = self.fault.finish(DeviceKind::Ssd, disposition, req, done);
        self.stats.record(req, completion.latency);
        Ok(completion)
    }

    fn install_fault_hook(&mut self, hook: Option<DeviceFaultHook>) {
        self.fault.install(hook);
    }

    fn install_trace_sink(&mut self, sink: Option<nvhsm_obs::SharedSink>) {
        self.fault.install_trace(sink);
    }

    fn logical_blocks(&self) -> u64 {
        self.flash.ftl().logical_pages()
    }

    fn free_space_ratio(&self) -> f64 {
        self.flash.free_space_ratio()
    }

    fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut DeviceStats {
        &mut self.stats
    }

    fn discard_block(&mut self, block: u64) {
        self.flash.trim(block);
    }

    fn prefill(&mut self, blocks: std::ops::Range<u64>) {
        for b in blocks {
            self.flash.prefill(b);
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn drained_at(&self) -> SimTime {
        self.flash.drained_at()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvhsm_sim::SimRng;

    fn dev() -> SsdDevice {
        SsdDevice::new(SsdConfig::small_test())
    }

    #[test]
    fn sequential_reads_hit_readahead() {
        let mut d = dev();
        let mut t = SimTime::ZERO;
        // Prime the stream.
        let c = d
            .try_submit(&IoRequest::normal(0, 0, 1, IoOp::Read, t))
            .expect("no fault hook installed");
        t = c.done;
        let mut fast = 0;
        for b in 1..20u64 {
            let c = d
                .try_submit(&IoRequest::normal(0, b, 1, IoOp::Read, t))
                .expect("no fault hook installed");
            // Read-ahead hit: controller path only, no NAND (~50 µs) visit.
            if c.latency.as_us_f64() < 380.0 {
                fast += 1;
            }
            t = c.done;
        }
        assert!(fast >= 18, "only {fast} readahead hits");
        assert!(d.readahead_hits() >= 18);
    }

    #[test]
    fn random_reads_pay_nand_latency() {
        let mut d = dev();
        d.prefill(0..300_000);
        let mut rng = SimRng::new(3);
        let mut t = SimTime::ZERO;
        let mut total = 0.0;
        let n = 50;
        for _ in 0..n {
            let b = rng.below(100_000) * 3;
            let c = d
                .try_submit(&IoRequest::normal(0, b, 1, IoOp::Read, t))
                .expect("no fault hook installed");
            total += c.latency.as_us_f64();
            t = c.done;
        }
        let mean = total / n as f64;
        assert!(mean > 70.0, "random read mean {mean} too fast");
    }

    #[test]
    fn latency_vs_randomness_is_superlinear() {
        // Fig. 5 (b): sweep read randomness at a fixed (high) arrival rate
        // and check convexity: the cost of going 50%→100% random exceeds
        // the cost of 0%→50%, because random reads both miss the read-ahead
        // AND pile up on colliding chips. Random probes and the sequential
        // run come from different streams, as in a mixed workload.
        let mut means = Vec::new();
        for rand_frac in [0.0f64, 0.5, 1.0] {
            let mut d = dev();
            d.prefill(0..300_000);
            let mut rng = SimRng::new(7);
            let mut t = SimTime::ZERO;
            let mut seq_cursor = 0u64;
            let mut sum = 0.0;
            let n = 1000;
            for _ in 0..n {
                let c = if rng.chance(rand_frac) {
                    let block = rng.below(200_000);
                    d.try_submit(&IoRequest::normal(1, block, 1, IoOp::Read, t))
                        .expect("no fault hook installed")
                } else {
                    seq_cursor += 1;
                    d.try_submit(&IoRequest::normal(0, seq_cursor, 1, IoOp::Read, t))
                        .expect("no fault hook installed")
                };
                sum += c.latency.as_us_f64();
                t += SimDuration::from_us(2); // fixed offered rate
            }
            means.push(sum / n as f64);
        }
        let first_half = means[1] - means[0];
        let second_half = means[2] - means[1];
        assert!(
            second_half > first_half * 1.1,
            "latency not convex in randomness: {means:?}"
        );
    }

    #[test]
    fn writes_are_buffered_fast() {
        let mut d = dev();
        let c = d
            .try_submit(&IoRequest::normal(0, 0, 1, IoOp::Write, SimTime::ZERO))
            .expect("no fault hook installed");
        assert!(c.latency.as_us_f64() < 30.0, "{}", c.latency);
    }

    #[test]
    fn transient_window_fails_then_stall_defers() {
        use nvhsm_fault::{DeviceFaultHook, DeviceFaultSchedule, FaultKind, FaultWindow};

        let mut d = dev();
        let schedule = DeviceFaultSchedule::from_windows(vec![
            FaultWindow {
                from: SimTime::ZERO,
                until: SimTime::from_ms(1),
                kind: FaultKind::Transient { fail_prob: 1.0 },
            },
            FaultWindow {
                from: SimTime::from_ms(2),
                until: SimTime::from_ms(3),
                kind: FaultKind::Stall,
            },
        ]);
        d.install_fault_hook(Some(DeviceFaultHook::new(schedule, SimRng::new(4))));

        let err = d
            .try_submit(&IoRequest::normal(0, 0, 1, IoOp::Write, SimTime::ZERO))
            .unwrap_err();
        assert!(err.is_retryable());
        // A stalled write completes no earlier than the window end.
        let c = d
            .try_submit(&IoRequest::normal(
                0,
                0,
                1,
                IoOp::Write,
                SimTime::from_ms(2),
            ))
            .unwrap();
        assert_eq!(c.done, SimTime::from_ms(3));
    }
}
