//! Discrete-event simulation kernel shared by every simulator in the
//! `nvdimm-hsm` workspace.
//!
//! This crate provides the four primitives that the DRAM, flash, cache and
//! storage-management simulators are built on:
//!
//! * [`SimTime`] / [`SimDuration`] — an integer-nanosecond time base with
//!   saturating arithmetic, so every component in the stack agrees on what
//!   "now" means.
//! * [`EventQueue`] — a deterministic time-ordered calendar queue (FIFO
//!   among events that share a timestamp), with batch drain of everything
//!   due at a wake-up, property-tested against a binary-heap reference
//!   implementation.
//! * [`SimRng`] — a small, seedable, `SplitMix64`-based random number
//!   generator plus the distribution helpers the workload generators need
//!   (exponential inter-arrivals, Zipfian skew, Bernoulli mixes).
//! * [`stats`] — streaming statistics (Welford mean/variance, log-scale
//!   latency histograms with percentile queries, windowed time series).
//! * [`parallel`] — deterministic scenario-parallel execution: fans
//!   independent scenario closures across cores and returns results in
//!   stable input order, so merged outputs are byte-identical to serial
//!   runs (worker count via `--jobs`/`NVHSM_JOBS`).
//!
//! # Examples
//!
//! ```
//! use nvhsm_sim::{EventQueue, SimTime, SimDuration};
//!
//! let mut q = EventQueue::new();
//! q.push(SimTime::ZERO + SimDuration::from_us(3), "late");
//! q.push(SimTime::ZERO + SimDuration::from_us(1), "early");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "early");
//! assert_eq!(t, SimTime::from_ns(1_000));
//! ```

pub mod event;
pub mod parallel;
pub mod rng;
pub mod stats;
pub mod time;

pub use event::EventQueue;
pub use rng::SimRng;
pub use stats::{Histogram, OnlineStats, TimeSeries};
pub use time::{SimDuration, SimTime};
