//! Storage cost-model parameters.

use serde::{Deserialize, Serialize};

/// Bytes per MiB.
pub const MIB: u64 = 1024 * 1024;

/// Parameters of the Lustre-like storage model.
///
/// All times are seconds, all sizes bytes, all bandwidths bytes/second.
/// The defaults ([`StorageConfig::cori_like`]) are calibrated so the IOR
/// experiments of paper §4.1 land in the right regimes (who is slow, by
/// roughly what factor) — absolute MiB/s are not meant to match Cori.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StorageConfig {
    /// Number of OSTs the target file is striped over
    /// (`LUSTRE_STRIPE_WIDTH`). Cori default: 1.
    pub stripe_width: u32,
    /// Stripe size in bytes (`LUSTRE_STRIPE_SIZE`, also the file alignment).
    /// Cori default: 1 MiB.
    pub stripe_size: u64,
    /// Sustained write bandwidth of one OST.
    pub ost_write_bw: f64,
    /// Sustained read bandwidth of one OST.
    pub ost_read_bw: f64,
    /// Server-side base service time per write RPC.
    pub write_rpc_base: f64,
    /// Server-side base service time per read RPC.
    pub read_rpc_base: f64,
    /// Extra server time for a synchronous (fsync'd) write RPC — the commit
    /// to stable storage.
    pub sync_write_extra: f64,
    /// Extra server time when an RPC is not aligned to the stripe/file
    /// alignment (read-modify-write at the OST).
    pub unaligned_extra: f64,
    /// Client-side syscall overhead per POSIX call that reaches the page
    /// cache (cache-hit read, buffered write).
    pub client_syscall: f64,
    /// Extra client time when the user buffer is not memory-aligned.
    pub mem_unaligned_extra: f64,
    /// Client-side cost of one `lseek`.
    pub seek_cost: f64,
    /// Metadata-server service time per `open`.
    pub open_cost: f64,
    /// Metadata-server service time per `stat`.
    pub stat_cost: f64,
    /// Client + server cost of one `fsync` beyond the sync-write extras.
    pub fsync_cost: f64,
    /// Readahead window: consecutive reads are served from the client cache
    /// and the server only sees `bytes / readahead_bytes` RPCs.
    pub readahead_bytes: u64,
    /// Write-back buffer: buffered (non-fsync) writes reach the server in
    /// chunks of this size.
    pub writeback_bytes: u64,
    /// Maximum per-client bandwidth to the storage network.
    pub client_max_bw: f64,
    /// Log-normal noise sigma applied to the final job time (system noise /
    /// interference). 0 disables noise.
    pub noise_sigma: f64,
}

impl StorageConfig {
    /// Default configuration modelled on Cori's Lustre defaults
    /// (1 OST, 1 MiB stripe) with rates that put the paper's six IOR
    /// patterns in the right relative regimes.
    pub fn cori_like() -> Self {
        Self {
            stripe_width: 1,
            stripe_size: MIB,
            ost_write_bw: 800.0 * MIB as f64,
            ost_read_bw: 1600.0 * MIB as f64,
            write_rpc_base: 150e-6,
            read_rpc_base: 15e-6,
            sync_write_extra: 350e-6,
            unaligned_extra: 10e-6,
            client_syscall: 2e-6,
            mem_unaligned_extra: 1e-6,
            seek_cost: 500e-6,
            open_cost: 0.3e-3,
            stat_cost: 0.3e-3,
            fsync_cost: 100e-6,
            readahead_bytes: MIB,
            writeback_bytes: MIB,
            client_max_bw: 2800.0 * MIB as f64,
            noise_sigma: 0.03,
        }
    }

    /// Same as [`Self::cori_like`] but with zero noise — used by tests and
    /// by experiments that need exact reproducibility of a single run.
    pub fn cori_like_quiet() -> Self {
        Self {
            noise_sigma: 0.0,
            ..Self::cori_like()
        }
    }

    /// Override the stripe settings (the OpenPMD tuning knob).
    pub fn with_stripe(mut self, width: u32, size: u64) -> Self {
        assert!(width >= 1, "stripe width must be at least 1");
        assert!(size > 0, "stripe size must be positive");
        self.stripe_width = width;
        self.stripe_size = size;
        self
    }
}

impl Default for StorageConfig {
    fn default() -> Self {
        Self::cori_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cori_defaults_match_paper_setup() {
        let c = StorageConfig::cori_like();
        assert_eq!(c.stripe_width, 1);
        assert_eq!(c.stripe_size, MIB);
    }

    #[test]
    fn with_stripe_overrides() {
        let c = StorageConfig::cori_like().with_stripe(4, 4 * MIB);
        assert_eq!(c.stripe_width, 4);
        assert_eq!(c.stripe_size, 4 * MIB);
    }

    #[test]
    #[should_panic(expected = "stripe width")]
    fn zero_stripe_width_rejected() {
        let _ = StorageConfig::cori_like().with_stripe(0, MIB);
    }

    #[test]
    fn quiet_variant_has_no_noise() {
        assert_eq!(StorageConfig::cori_like_quiet().noise_sigma, 0.0);
    }
}
