//! Simulated platform descriptions and the per-run cluster environment.

use mpisim::NetProfile;
use parafs::{FsProfile, SimFs};
use simcluster::Sim;

/// Everything that distinguishes one of the paper's machines from the
/// other: interconnect, shared file system, and node-local disks.
#[derive(Debug, Clone)]
pub struct Platform {
    /// Display name.
    pub name: String,
    /// Interconnect model.
    pub net: NetProfile,
    /// Shared file-system profile.
    pub shared_fs: FsProfile,
    /// Node-local disk profile; `None` means no user-accessible local
    /// storage (the Altix case — fragment "copies" go to shared scratch).
    pub local_disk: Option<FsProfile>,
    /// Per-node burst-buffer staging volume profile (the `--burst-buffer`
    /// tier). Every platform carries one — the tier is a post-paper
    /// extension, like the `objectstore`/`multisite` profiles — but no
    /// time is charged to it unless a run enables staging.
    pub staging: FsProfile,
    /// Collective-I/O aggregator count.
    pub aggregators: usize,
    /// CPU cores available to one rank's node — the ceiling on intra-rank
    /// compute slots (`--threads`).
    pub cores_per_node: usize,
}

impl Platform {
    /// The ORNL SGI Altix "Ram": NUMAlink + XFS, no user local disks.
    pub fn altix() -> Platform {
        Platform {
            name: "ORNL SGI Altix (Ram)".to_string(),
            net: NetProfile::altix_numalink(),
            shared_fs: FsProfile::altix_xfs(),
            local_disk: None,
            staging: FsProfile::burst_buffer(),
            aggregators: 8,
            // The 256-way Itanium2 SMP: at the paper's 16-way runs each
            // rank can fan out across 16 CPUs of the shared machine.
            cores_per_node: 16,
        }
    }

    /// The NCSU IBM blade cluster: gigabit Ethernet + NFS + local disks.
    pub fn blade_cluster() -> Platform {
        Platform {
            name: "NCSU IBM Blade Cluster".to_string(),
            net: NetProfile::blade_gigabit(),
            shared_fs: FsProfile::blade_nfs(),
            local_disk: Some(FsProfile::local_disk()),
            staging: FsProfile::burst_buffer(),
            aggregators: 4,
            // HS20 blades: dual-socket single-core Xeons with
            // HyperThreading — four schedulable hardware threads.
            cores_per_node: 4,
        }
    }

    /// A modern cloud cluster backed by a parallel object store: 10 GbE
    /// fabric and an S3/Ceph-class store whose aggregate bandwidth is
    /// effectively unbounded at BLAST scales but whose per-request
    /// overhead is HTTP-scale — the regime where collective I/O trades
    /// request count against redistribution traffic. Parameters are
    /// stated in DESIGN.md §14 with their provenance.
    pub fn objectstore() -> Platform {
        Platform {
            name: "Object-Store Cloud Cluster".to_string(),
            net: NetProfile::datacenter_10g(),
            shared_fs: FsProfile::object_store(),
            local_disk: Some(FsProfile::local_disk()),
            staging: FsProfile::burst_buffer(),
            aggregators: 8,
            cores_per_node: 32,
        }
    }

    /// Two sites joined by a WAN: messages and shared-fs operations pay
    /// tens of milliseconds, so once-only fragment copies to local disk
    /// dominate any strategy that re-reads shared storage. Parameters
    /// are stated in DESIGN.md §14 with their provenance.
    pub fn multisite() -> Platform {
        Platform {
            name: "Multi-Site WAN Cluster".to_string(),
            net: NetProfile::wan_crosssite(),
            shared_fs: FsProfile::wan_shared(),
            local_disk: Some(FsProfile::local_disk()),
            staging: FsProfile::burst_buffer(),
            aggregators: 2,
            cores_per_node: 8,
        }
    }

    /// A modern many-core commodity node: blade-class network and NFS
    /// but 64 cores per node, for exploring intra-rank slot scaling well
    /// past the 2005 hardware.
    pub fn manycore() -> Platform {
        Platform {
            name: "Many-core Commodity Cluster".to_string(),
            net: NetProfile::blade_gigabit(),
            shared_fs: FsProfile::blade_nfs(),
            local_disk: Some(FsProfile::local_disk()),
            staging: FsProfile::burst_buffer(),
            aggregators: 4,
            cores_per_node: 64,
        }
    }
}

/// The instantiated file systems of one simulated run.
#[derive(Clone)]
pub struct ClusterEnv {
    /// The shared (parallel or NFS) file system.
    pub shared: SimFs,
    /// One private disk per rank (empty when the platform has none).
    pub locals: Vec<SimFs>,
    /// One burst-buffer staging volume per rank ([`Platform::staging`]).
    /// Always instantiated — a `SimFs` is a handle, and an unused volume
    /// charges no time — so `--burst-buffer` is purely a runtime choice.
    pub stagings: Vec<SimFs>,
}

impl ClusterEnv {
    /// Build the environment for a simulation.
    pub fn new(sim: &Sim, platform: &Platform) -> ClusterEnv {
        let shared = SimFs::new(sim.handle(), "shared", platform.shared_fs);
        let locals = match platform.local_disk {
            Some(profile) => (0..sim.nranks())
                .map(|r| SimFs::new(sim.handle(), &format!("local{r}"), profile))
                .collect(),
            None => Vec::new(),
        };
        let stagings = (0..sim.nranks())
            .map(|r| SimFs::new(sim.handle(), &format!("stage{r}"), platform.staging))
            .collect();
        ClusterEnv {
            shared,
            locals,
            stagings,
        }
    }

    /// The file system and path prefix rank `r` should use for private
    /// copies: its local disk, or a rank-scoped scratch directory on the
    /// shared file system when no local disk exists (the paper's Altix
    /// behaviour).
    pub fn private_store(&self, rank: usize) -> (&SimFs, String) {
        match self.locals.get(rank) {
            Some(fs) => (fs, String::new()),
            None => (&self.shared, format!("scratch/rank{rank}/")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn altix_has_no_local_disks() {
        let sim = Sim::new(4);
        let env = ClusterEnv::new(&sim, &Platform::altix());
        assert!(env.locals.is_empty());
        let (_, prefix) = env.private_store(2);
        assert_eq!(prefix, "scratch/rank2/");
    }

    #[test]
    fn blade_has_one_disk_per_rank() {
        let sim = Sim::new(4);
        let env = ClusterEnv::new(&sim, &Platform::blade_cluster());
        assert_eq!(env.locals.len(), 4);
        let (fs, prefix) = env.private_store(1);
        assert_eq!(fs.name(), "local1");
        assert!(prefix.is_empty());
    }

    #[test]
    fn cores_per_node_are_historically_honest() {
        assert_eq!(Platform::altix().cores_per_node, 16);
        assert_eq!(Platform::blade_cluster().cores_per_node, 4);
        assert!(Platform::manycore().cores_per_node >= 32);
    }

    #[test]
    fn scale_sweep_platforms_stress_opposite_regimes() {
        let store = Platform::objectstore();
        let wan = Platform::multisite();
        // The object store saturates only at hundreds of concurrent
        // clients; NFS serializes at a handful.
        let nfs = FsProfile::blade_nfs();
        assert!(store.shared_fs.aggregate_bw / store.shared_fs.per_client_bw >= 64.0);
        assert!(nfs.aggregate_bw / nfs.per_client_bw < 2.0);
        // Its per-request cost is HTTP-scale, worse than any local fs.
        assert!(store.shared_fs.op_latency > FsProfile::altix_xfs().op_latency);
        // The WAN pays milliseconds where the blades pay microseconds.
        assert!(wan.net.latency > 100.0 * Platform::blade_cluster().net.latency);
        assert!(wan.shared_fs.op_latency > 10.0 * nfs.op_latency);
        // Both offer local disks, so fragment copies can amortize.
        assert!(store.local_disk.is_some() && wan.local_disk.is_some());
    }

    #[test]
    fn platform_profiles_differ_as_in_the_paper() {
        let altix = Platform::altix();
        let blade = Platform::blade_cluster();
        assert!(altix.shared_fs.aggregate_bw > 10.0 * blade.shared_fs.aggregate_bw);
        assert!(altix.net.latency < blade.net.latency);
    }
}
