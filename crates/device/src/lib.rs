//! Storage device models for the heterogeneous hierarchy: NVDIMM, PCIe SSD
//! and SATA HDD.
//!
//! Each device implements [`StorageDevice`]: it serves block I/O requests
//! with realistic timing and records the per-epoch workload characteristics
//! (read/write mix, randomness, request size, outstanding I/Os, measured
//! latency) that the performance model of `nvhsm-model` consumes.
//!
//! Device peculiarities reproduced from the paper:
//!
//! * [`NvdimmDevice`] — flash behind the DDR interface. Host transfers
//!   cross the shared memory bus, so ambient DRAM traffic (set per epoch
//!   via [`StorageDevice::set_ambient_bus_utilization`]) adds contention
//!   delay — the effect at the heart of the paper. Carries an LRFU buffer
//!   cache (400 MB default) with optional §5.3.2 bypassing, and an ordered
//!   persistent-write lane with optional §5.3.1 migration scheduling.
//! * [`SsdDevice`] — same NAND behind a PCIe link, with a sequential
//!   read-ahead window; random reads go to NAND, which is why its latency
//!   rises non-linearly with read randomness (Fig. 5 (b)).
//! * [`HddDevice`] — single-actuator mechanical model: seek + rotational
//!   latency for random accesses, streaming for sequential ones, hence the
//!   linear latency-vs-randomness curve of Fig. 5 (c).
//!
//! # Examples
//!
//! ```
//! use nvhsm_device::{DeviceKind, IoOp, IoRequest, NvdimmConfig, NvdimmDevice, StorageDevice};
//! use nvhsm_cache::AccessClass;
//! use nvhsm_sim::SimTime;
//!
//! let mut dev = NvdimmDevice::new(NvdimmConfig::small_test());
//! let req = IoRequest {
//!     stream: 0,
//!     block: 10,
//!     size_blocks: 1,
//!     op: IoOp::Write,
//!     arrival: SimTime::ZERO,
//!     class: AccessClass::Normal,
//! };
//! let done = dev.try_submit(&req).expect("no fault hook installed");
//! assert!(done.done > SimTime::ZERO);
//! assert_eq!(dev.kind(), DeviceKind::Nvdimm);
//! ```

mod fault_gate;
pub mod hdd;
pub mod io;
pub mod nvdimm;
pub mod ssd;
pub mod stats;
pub mod trace;

pub use hdd::{HddConfig, HddDevice};
pub use io::{DeviceKind, IoCompletion, IoError, IoOp, IoRequest};
pub use nvdimm::{MigrationTuning, NvdimmConfig, NvdimmDevice};
pub use ssd::{SsdConfig, SsdDevice};
pub use stats::{DeviceStats, EpochStats};
pub use trace::{IoTrace, TraceRecord};

use nvhsm_fault::DeviceFaultHook;
use nvhsm_sim::SimTime;
use std::any::Any;

/// A block storage device in the heterogeneous hierarchy.
///
/// Devices are driven activity-scan style: requests must be submitted in
/// non-decreasing arrival order, and each submission immediately returns
/// the completion time (internal queueing — chips, head, links, the memory
/// bus — is modelled with busy-until horizons).
///
/// `Send` is a supertrait so whole simulations (which own
/// `Box<dyn StorageDevice>` per datastore) can move onto worker threads
/// of the scenario-parallel driver.
pub trait StorageDevice: Send {
    /// Which tier this device belongs to.
    fn kind(&self) -> DeviceKind;

    /// Serves one request under the installed fault hook, if any; the
    /// device's only service path.
    ///
    /// With no hook installed (or in a healthy window) the request is
    /// served fault-free and always succeeds. Latency-spike windows
    /// stretch the completion, stall windows defer it to the window end,
    /// and transient/offline windows fail the request with an [`IoError`]
    /// without advancing device state (the request never reached the
    /// medium).
    fn try_submit(&mut self, req: &IoRequest) -> Result<IoCompletion, IoError>;

    /// Installs (or clears) the fault hook consulted by
    /// [`StorageDevice::try_submit`]. Default is a no-op for devices
    /// without fault support.
    fn install_fault_hook(&mut self, _hook: Option<DeviceFaultHook>) {}

    /// Attaches (or clears) a trace sink. With a sink attached,
    /// [`StorageDevice::try_submit`] reports `IoSubmit` / `IoComplete` for
    /// admitted requests and `IoFault` for fault-gate rejections. Default
    /// is a no-op for devices without tracing support; with no sink
    /// attached the service path is unchanged.
    fn install_trace_sink(&mut self, _sink: Option<nvhsm_obs::SharedSink>) {}

    /// Logical capacity in 4 KiB blocks.
    fn logical_blocks(&self) -> u64;

    /// Fraction of logical space free of live data (drives flash GC
    /// pressure; 1.0 for devices without GC).
    fn free_space_ratio(&self) -> f64;

    /// Per-epoch workload statistics.
    fn stats(&self) -> &DeviceStats;

    /// Mutable access to the statistics (epoch rollover).
    fn stats_mut(&mut self) -> &mut DeviceStats;

    /// Informs the device of ambient memory-channel utilization from DRAM
    /// traffic. Only meaningful for NVDIMMs; default is a no-op.
    fn set_ambient_bus_utilization(&mut self, _utilization: f64) {}

    /// Discards any data cached for `block` (used when the block's VMDK
    /// migrates away). Default is a no-op.
    fn discard_block(&mut self, _block: u64) {}

    /// Installs pre-existing content for a block range without charging
    /// simulation time (laying down a VMDK image before a run). Default is
    /// a no-op for devices without mapping state.
    fn prefill(&mut self, _blocks: std::ops::Range<u64>) {}

    /// Earliest instant all internal components are idle.
    fn drained_at(&self) -> SimTime;

    /// Downcast support: the concrete device behind the trait object
    /// (e.g. to inspect an NVDIMM's buffer cache).
    fn as_any(&self) -> &dyn Any;
}
