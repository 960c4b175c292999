//! The four workloads and the clusters they run on.

use smarth_client::DfsClient;
use smarth_cluster::MiniCluster;
use smarth_core::config::{ClusterSpec, DfsConfig, HostRole, InstanceType};
use smarth_core::error::{DfsError, DfsResult};
use smarth_core::obs::Obs;
use smarth_core::units::Bandwidth;
use smarth_datanode::DataNode;
use smarth_fabric::{Fabric, FabricConfig};
use smarth_namenode::{NameNode, NameNodeState};
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WriteShaped,
    WriteUnshaped,
    SmallFiles,
    ReadMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::WriteShaped,
        Workload::WriteUnshaped,
        Workload::SmallFiles,
        Workload::ReadMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WriteShaped => "write_shaped",
            Workload::WriteUnshaped => "write_unshaped",
            Workload::SmallFiles => "small_files",
            Workload::ReadMix => "read_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop clients, each on its own client host.
    pub fn clients(self) -> usize {
        match self {
            Workload::WriteShaped | Workload::WriteUnshaped => 1,
            Workload::SmallFiles | Workload::ReadMix => 2,
        }
    }

    pub fn regime(self) -> Regime {
        let shaped_dn = Bandwidth::mbps(100.0);
        let large = InstanceType::Large.network_bandwidth();
        let config = DfsConfig::test_scale();
        let (shaped, dn_throttle, client_nic, disk) = match self {
            Workload::WriteShaped | Workload::ReadMix => {
                (true, Some(shaped_dn), large, config.disk_bandwidth)
            }
            Workload::SmallFiles => (true, None, large, config.disk_bandwidth),
            Workload::WriteUnshaped => {
                (false, None, Bandwidth::unlimited(), Bandwidth::unlimited())
            }
        };
        Regime {
            shaped,
            dn_throttle,
            client_nic,
            disk,
            link_latency: Duration::from_micros(300),
            datanodes: 9,
            config,
        }
    }
}

/// The cluster settings a workload runs under, printed with every run
/// so a result always names its regime.
#[derive(Debug, Clone)]
pub struct Regime {
    pub shaped: bool,
    /// Datanode NIC throttle; `None` leaves the instance NIC (shaped) or
    /// no limit at all (unshaped), like the client NIC.
    pub dn_throttle: Option<Bandwidth>,
    pub client_nic: Bandwidth,
    pub disk: Bandwidth,
    pub link_latency: Duration,
    pub datanodes: usize,
    pub config: DfsConfig,
}

impl Regime {
    pub fn describe(&self) -> String {
        format!(
            "regime={} datanodes={} datanode_nic={} client_nic={} disk={} link_latency_us={} \
             block={} packet={} replication={} mode=smarth",
            if self.shaped { "shaped" } else { "unshaped" },
            self.datanodes,
            self.dn_throttle.unwrap_or(self.client_nic),
            self.client_nic,
            self.disk,
            self.link_latency.as_micros(),
            self.config.block_size,
            self.config.packet_size,
            self.config.replication,
        )
    }

    /// `homogeneous(Large)`: namenode, client and 9 datanodes on two
    /// racks, plus `client0`, `client1` for the two-client workloads.
    fn spec(&self) -> ClusterSpec {
        let mut spec = ClusterSpec::homogeneous(InstanceType::Large)
            .with_extra_clients(2, InstanceType::Large);
        spec.link_latency =
            smarth_core::SimDuration::from_micros(self.link_latency.as_micros() as u64);
        for h in &mut spec.hosts {
            if h.role == HostRole::DataNode {
                h.nic_throttle = self.dn_throttle;
            }
        }
        spec
    }

    /// Starts the cluster. Shaped regimes use [`MiniCluster`]; it always
    /// shapes NICs to the instance type, so the unshaped one is assembled
    /// from the public fabric, namenode and datanode constructors.
    pub fn start(&self, seed: u64, obs: Obs) -> DfsResult<Cluster> {
        let spec = self.spec();
        if self.shaped {
            return Ok(Cluster::Mini(MiniCluster::start_with_obs(
                &spec,
                self.config.clone(),
                seed,
                obs,
            )?));
        }
        let mut config = self.config.clone();
        config.disk_bandwidth = self.disk;
        let fabric = Fabric::new(FabricConfig {
            latency: self.link_latency,
            socket_buffer: config.socket_buffer.as_u64() as usize,
            chunk_size: 8 * 1024,
        });
        for h in &spec.hosts {
            fabric.add_host(&h.name, &h.rack, Bandwidth::unlimited());
        }
        let namenode = NameNode::start_with_obs(
            &fabric,
            &spec.namenode_host().name,
            config.clone(),
            seed,
            obs.clone(),
        )?;
        let mut datanodes = Vec::new();
        for h in spec.datanodes() {
            datanodes.push(DataNode::start_with_obs(
                &fabric,
                &h.name,
                &h.rack,
                &namenode.datanode_addr(),
                config.clone(),
                obs.clone(),
            )?);
        }
        Ok(Cluster::Assembled(Assembled {
            fabric,
            namenode,
            datanodes,
            config,
            seed,
            obs,
        }))
    }
}

pub struct Assembled {
    fabric: Fabric,
    namenode: NameNode,
    datanodes: Vec<DataNode>,
    config: DfsConfig,
    seed: u64,
    obs: Obs,
}

pub enum Cluster {
    Mini(MiniCluster),
    Assembled(Assembled),
}

impl Cluster {
    /// A client on one of the spec's client hosts (`client0`, `client1`).
    pub fn client(&self, index: usize) -> DfsResult<DfsClient> {
        let host = format!("client{index}");
        match self {
            Cluster::Mini(m) => {
                let rack = m
                    .fabric()
                    .host_rack(&host)
                    .ok_or_else(|| DfsError::internal(format!("no host {host}")))?;
                m.client_on(&host, &rack)
            }
            Cluster::Assembled(a) => {
                let rack = a
                    .fabric
                    .host_rack(&host)
                    .ok_or_else(|| DfsError::internal(format!("no host {host}")))?;
                DfsClient::connect_with_obs(
                    &a.fabric,
                    &host,
                    &rack,
                    &a.namenode.client_addr(),
                    a.config.clone(),
                    a.seed ^ 0x9E37_79B9_7F4A_7C15,
                    a.obs.clone(),
                )
            }
        }
    }

    pub fn namenode_state(&self) -> &Arc<NameNodeState> {
        match self {
            Cluster::Mini(m) => m.namenode_state(),
            Cluster::Assembled(a) => a.namenode.state(),
        }
    }

    /// Bytes held by every datanode's block store.
    pub fn stored_bytes(&self) -> u64 {
        match self {
            Cluster::Mini(m) => m
                .datanode_hosts()
                .iter()
                .filter_map(|h| m.datanode(h))
                .map(|d| d.store().used_bytes())
                .sum(),
            Cluster::Assembled(a) => a.datanodes.iter().map(|d| d.store().used_bytes()).sum(),
        }
    }

    pub fn shutdown(self) {
        match self {
            Cluster::Mini(m) => m.shutdown(),
            // The order `MiniCluster::shutdown` uses: breaking the fabric
            // unblocks every node thread, then each is joined.
            Cluster::Assembled(a) => {
                a.fabric.shutdown();
                a.namenode.shutdown();
                for dn in a.datanodes {
                    dn.shutdown();
                }
            }
        }
    }
}
