//! File-system performance profiles.
//!
//! The paper's two platforms differ almost entirely in their shared file
//! systems: the ORNL Altix ("Ram") ran XFS with high aggregate bandwidth,
//! while the NCSU blade cluster shared an NFS server that collapses under
//! concurrent clients. These profiles parameterize the contention model in
//! [`crate::fs::SimFs`].

/// The access-strategy class an I/O-plane request was serviced under.
///
/// The I/O plane (`mpiio`) attributes every logical request it services
/// to one of these classes so benches can break file-system traffic
/// down by strategy (see [`crate::fs::SimFs::class_tally`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoClass {
    /// One file-system operation per view region.
    Independent,
    /// Data-sieved: regions coalesced across small holes.
    Sieved,
    /// Two-phase collective: aggregator ranks issue the transfers.
    TwoPhase,
}

impl IoClass {
    /// Every class, in a fixed order (for iteration/reporting).
    pub const ALL: [IoClass; 3] = [IoClass::Independent, IoClass::Sieved, IoClass::TwoPhase];

    /// A stable lowercase label (used in bench JSON).
    pub fn label(self) -> &'static str {
        match self {
            IoClass::Independent => "independent",
            IoClass::Sieved => "sieve",
            IoClass::TwoPhase => "two-phase",
        }
    }

    /// The `tracelog` registry keys this class tallies under:
    /// `(io.<class>.requests, io.<class>.bytes)`.
    pub fn counter_keys(self) -> (&'static str, &'static str) {
        match self {
            IoClass::Independent => ("io.independent.requests", "io.independent.bytes"),
            IoClass::Sieved => ("io.sieve.requests", "io.sieve.bytes"),
            IoClass::TwoPhase => ("io.two-phase.requests", "io.two-phase.bytes"),
        }
    }
}

/// Logical traffic attributed to one [`IoClass`]: how many view regions
/// were posted through that strategy and how many bytes they covered.
/// (Physical operation counts live in [`crate::fs::FsCounters`]; the
/// gap between the two is exactly what aggregation buys.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassTally {
    /// Logical noncontiguous regions posted.
    pub requests: u64,
    /// Bytes those regions covered.
    pub bytes: u64,
}

/// Performance parameters of a (simulated) file system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FsProfile {
    /// Maximum transfer bandwidth one client stream can get (bytes/s).
    pub per_client_bw: f64,
    /// Total bandwidth shared by all concurrent streams (bytes/s).
    pub aggregate_bw: f64,
    /// Fixed latency charged per operation (metadata or data), seconds.
    pub op_latency: f64,
}

impl FsProfile {
    /// XFS on the SGI Altix: striped, high aggregate throughput; many
    /// clients can stream concurrently before saturating.
    pub fn altix_xfs() -> FsProfile {
        FsProfile {
            per_client_bw: 400.0e6,
            aggregate_bw: 3.2e9,
            op_latency: 300e-6,
        }
    }

    /// NFS on the NCSU blade cluster: a single server; per-client speed is
    /// modest and the aggregate cap is barely above it, so concurrent
    /// clients mostly serialize.
    pub fn blade_nfs() -> FsProfile {
        FsProfile {
            per_client_bw: 60.0e6,
            aggregate_bw: 90.0e6,
            op_latency: 2.0e-3,
        }
    }

    /// A node-local IDE/SCSI disk of the era (the blades' 40 GB disks).
    pub fn local_disk() -> FsProfile {
        FsProfile {
            per_client_bw: 50.0e6,
            aggregate_bw: 50.0e6,
            op_latency: 1.0e-3,
        }
    }

    /// An S3/Ceph-class parallel object store: any one client stream is
    /// modest, but the striped backend aggregates to tens of GB/s, so
    /// hundreds of clients can read concurrently without serializing.
    /// Each request pays HTTP-scale overhead rather than a syscall.
    pub fn object_store() -> FsProfile {
        FsProfile {
            per_client_bw: 250.0e6,
            aggregate_bw: 25.0e9,
            op_latency: 8.0e-3,
        }
    }

    /// A shared file system mounted across sites: streaming bandwidth is
    /// tolerable once established, but every operation pays a WAN round
    /// trip of tens of milliseconds.
    pub fn wan_shared() -> FsProfile {
        FsProfile {
            per_client_bw: 80.0e6,
            aggregate_bw: 400.0e6,
            op_latency: 45.0e-3,
        }
    }

    /// A node-local burst-buffer staging volume (NVMe/memory class):
    /// microsecond operations and a stream rate an order of magnitude
    /// above any shared profile here. One stream does not saturate the
    /// device — the aggregate headroom is what per-aggregator file
    /// striping converts into absorb bandwidth (`crate::stripe`).
    pub fn burst_buffer() -> FsProfile {
        FsProfile {
            per_client_bw: 1.5e9,
            aggregate_bw: 6.0e9,
            op_latency: 20e-6,
        }
    }

    /// Effective per-stream bandwidth when `n` streams are active.
    pub fn stream_bw(&self, n: usize) -> f64 {
        debug_assert!(n > 0);
        self.per_client_bw.min(self.aggregate_bw / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xfs_scales_with_clients_nfs_does_not() {
        let xfs = FsProfile::altix_xfs();
        let nfs = FsProfile::blade_nfs();
        // With 8 clients XFS still gives each its full stream rate.
        assert_eq!(xfs.stream_bw(8), xfs.per_client_bw);
        // NFS is already aggregate-bound at 2 clients.
        assert!(nfs.stream_bw(2) < nfs.per_client_bw);
        assert!((nfs.stream_bw(30) - 3.0e6).abs() < 1.0);
    }
}
