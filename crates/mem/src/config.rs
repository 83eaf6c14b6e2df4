//! DRAM and memory-channel configuration.
//!
//! Defaults reproduce Table 4 of the paper: DDR3-1600 chips, 4 memory
//! channels, 4 ranks of 8 banks each, 13.75 ns activate→read/write,
//! 18.75 ns read/write→precharge, 13.75 ns precharge, 64 ms refresh period
//! and 110 ns refresh per row.

use nvhsm_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Configuration of the DRAM system and its shared memory channels.
///
/// # Examples
///
/// ```
/// use nvhsm_mem::DramConfig;
/// let cfg = DramConfig::ddr3_1600();
/// assert_eq!(cfg.channels, 4);
/// // DDR3-1600 on a 64-bit channel moves a 64 B burst in 5 ns (12.8 GB/s).
/// assert_eq!(cfg.burst_time().as_ns(), 5);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DramConfig {
    /// Number of independent memory channels.
    pub channels: usize,
    /// Ranks per channel.
    pub ranks: usize,
    /// Banks per rank.
    pub banks: usize,
    /// Row size in bytes (row-buffer granularity).
    pub row_bytes: u64,
    /// Cache-line / burst size in bytes transferred per DRAM request.
    pub line_bytes: u64,
    /// Channel bandwidth in bytes per second (data bus).
    pub bandwidth_bytes_per_sec: u64,
    /// tRCD: activate command to read/write command.
    pub act_to_rw: SimDuration,
    /// tRAS component: read/write command to precharge command.
    pub rw_to_pre: SimDuration,
    /// tRP: precharge duration.
    pub pre: SimDuration,
    /// Refresh period for the whole device (tREFW, 64 ms for DDR3).
    pub refresh_period: SimDuration,
    /// Time to refresh one row (per-row refresh slot).
    pub refresh_row_time: SimDuration,
    /// Rows refreshed per refresh interval burst (8192 rows per 64 ms for
    /// DDR3, i.e. one refresh command every tREFI = 7.8125 µs).
    pub refresh_rows: u64,
}

impl DramConfig {
    /// The paper's Table 4 configuration.
    pub fn ddr3_1600() -> Self {
        DramConfig {
            channels: 4,
            ranks: 4,
            banks: 8,
            row_bytes: 8 * 1024,
            line_bytes: 64,
            // DDR3-1600: 1600 MT/s * 8 B = 12.8 GB/s per channel.
            bandwidth_bytes_per_sec: 12_800_000_000,
            act_to_rw: SimDuration::from_ns_f64(13.75),
            rw_to_pre: SimDuration::from_ns_f64(18.75),
            pre: SimDuration::from_ns_f64(13.75),
            refresh_period: SimDuration::from_ms(64),
            refresh_row_time: SimDuration::from_ns(110),
            refresh_rows: 8192,
        }
    }

    /// A single-channel configuration, convenient for focused contention
    /// tests where cross-channel striping would blur the picture.
    pub fn single_channel() -> Self {
        DramConfig {
            channels: 1,
            ..Self::ddr3_1600()
        }
    }

    /// Time the data bus is occupied by one `line_bytes` burst.
    pub fn burst_time(&self) -> SimDuration {
        SimDuration::from_ns_f64(self.line_bytes as f64 * 1e9 / self.bandwidth_bytes_per_sec as f64)
    }

    /// Interval between two refresh commands (tREFI): the refresh period
    /// divided over the rows needing refresh.
    pub fn refresh_interval(&self) -> SimDuration {
        SimDuration::from_ns(self.refresh_period.as_ns() / self.refresh_rows)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.channels == 0 || self.ranks == 0 || self.banks == 0 {
            return Err("channels, ranks and banks must all be non-zero".into());
        }
        if !self.row_bytes.is_power_of_two() || !self.line_bytes.is_power_of_two() {
            return Err("row_bytes and line_bytes must be powers of two".into());
        }
        if self.line_bytes > self.row_bytes {
            return Err("line_bytes cannot exceed row_bytes".into());
        }
        if self.bandwidth_bytes_per_sec == 0 {
            return Err("bandwidth must be non-zero".into());
        }
        if self.refresh_rows == 0 {
            return Err("refresh_rows must be non-zero".into());
        }
        Ok(())
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::ddr3_1600()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_defaults() {
        let cfg = DramConfig::ddr3_1600();
        assert_eq!(cfg.channels, 4);
        assert_eq!(cfg.ranks, 4);
        assert_eq!(cfg.banks, 8);
        assert_eq!(cfg.act_to_rw.as_ns(), 14); // 13.75 rounded
        assert_eq!(cfg.rw_to_pre.as_ns(), 19); // 18.75 rounded
        assert_eq!(cfg.refresh_period, SimDuration::from_ms(64));
        assert_eq!(cfg.refresh_row_time.as_ns(), 110);
        cfg.validate().unwrap();
    }

    #[test]
    fn burst_time_matches_bandwidth() {
        let cfg = DramConfig::ddr3_1600();
        assert_eq!(cfg.burst_time().as_ns(), 5);
    }

    #[test]
    fn refresh_interval_is_trefi() {
        let cfg = DramConfig::ddr3_1600();
        // 64 ms / 8192 = 7.8125 us.
        assert_eq!(cfg.refresh_interval().as_ns(), 7_812);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut cfg = DramConfig::ddr3_1600();
        cfg.channels = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = DramConfig::ddr3_1600();
        cfg.row_bytes = 3000;
        assert!(cfg.validate().is_err());

        let mut cfg = DramConfig::ddr3_1600();
        cfg.line_bytes = cfg.row_bytes * 2;
        assert!(cfg.validate().is_err());

        let mut cfg = DramConfig::ddr3_1600();
        cfg.bandwidth_bytes_per_sec = 0;
        assert!(cfg.validate().is_err());
    }
}
