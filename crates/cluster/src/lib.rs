//! # cluster — HDFS- and GlusterFS-like replicated storage (Fig. 9)
//!
//! The paper's cluster tests run four storage nodes over 10 GbE, each node
//! being a full local stack (file system + NVM cache + SSD), integrated as
//! the local storage manager of HDFS (TeraGen, Fig. 10) and GlusterFS
//! (Filebench, Fig. 11).
//!
//! Here every node is a plain value owning a complete simulated stack with
//! its own simulated clock, and the client calls it directly; a 10 GbE
//! latency/bandwidth model charges network time to the receiving node's
//! clock. Cluster execution time is the maximum simulated time across
//! nodes — replicas work in parallel, exactly like a replication pipeline.

//! ```
//! use cluster::HdfsCluster;
//! use fssim::stack::{StackConfig, System};
//!
//! let cfg = StackConfig::tiny(System::Tinca);
//! let mut cluster = HdfsCluster::new(4, 2, &cfg, 1 << 20);
//! cluster.run_teragen(2 << 20, 16 << 10);
//! let report = cluster.finish();
//! assert_eq!(report.client_bytes, 2 << 20);
//! assert!(report.exec_seconds() > 0.0);
//! ```

pub mod gluster;
pub mod hdfs;
pub mod net;
mod node;
pub mod report;

pub use gluster::{GlusterCluster, GlusterFilebench};
pub use hdfs::HdfsCluster;
pub use net::NetModel;
pub use node::NodeReport;
pub use report::ClusterReport;
