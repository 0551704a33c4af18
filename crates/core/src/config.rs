//! Runtime configuration: cluster shape, acknowledgement mode, default
//! lock algorithm, deadlines, the fault-injection plan and the shm data
//! plane. Everything else is a constant of the code, not a knob.

use std::time::Duration;

use armci_netfab::FaultPlan;
use armci_transport::LatencyModel;
use serde::{Deserialize, Error, Serialize, Value};

use crate::errors::{validate_latency, ConfigError};

/// Whether the communication subsystem acknowledges put messages —
/// the distinction §3.1.1 of the paper draws between LAPI/VIA-style
/// subsystems (acked puts, fence = wait for acks) and GM (no acks,
/// fence = explicit confirmation round-trip with the server).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AckMode {
    /// GM-like: puts generate no acknowledgements; `ARMCI_Fence()` sends
    /// a confirmation request to the server and waits for the reply. The
    /// mode the paper's evaluation platform used, and the one the new
    /// `ARMCI_Barrier()` is designed to speed up.
    Gm,
    /// LAPI/VIA-like: the server acknowledges every put once complete;
    /// `ARMCI_Fence()` just drains outstanding acknowledgements.
    Via,
}

impl AckMode {
    /// The `armci-proto` fence-engine mode this subsystem style maps to.
    pub fn fence_mode(self) -> armci_proto::FenceMode {
        match self {
            AckMode::Gm => armci_proto::FenceMode::Confirm,
            AckMode::Via => armci_proto::FenceMode::DrainAcks,
        }
    }
}

/// Which lock algorithm [`crate::Armci::lock`]/[`crate::Armci::unlock`]
/// dispatch to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LockAlgo {
    /// The original hybrid: ticket-based for node-local requests,
    /// server-based queue for remote ones; every release contacts the
    /// server (§3.2.1). The paper's baseline.
    Hybrid,
    /// The paper's contribution: MCS software queuing lock with global
    /// pointers packed into single words (§3.2.2).
    Mcs,
}

/// Configuration for [`crate::runtime::run_cluster`].
#[derive(Clone, Debug)]
pub struct ArmciCfg {
    /// Number of SMP nodes.
    pub nodes: u32,
    /// User processes per node (the paper's nodes were dual-CPU).
    pub procs_per_node: u32,
    /// Network cost model.
    pub latency: LatencyModel,
    /// Put acknowledgement mode.
    pub ack_mode: AckMode,
    /// Default lock algorithm for `lock`/`unlock`.
    pub lock_algo: LockAlgo,
    /// Record every message send into a transport trace, retrievable via
    /// [`crate::runtime::run_cluster_traced`], and keep each handle's
    /// engine send log ([`crate::Armci::take_send_log`]).
    pub trace: bool,
    /// Deadline for each blocking ARMCI operation (fence, barrier, get
    /// reply, lock grant, …): past it, a `try_*` call returns
    /// [`crate::ArmciError::Timeout`] and an infallible call panics instead
    /// of hanging. Must cover the latency model's worst case.
    pub op_timeout: Duration,
    /// Deadline for netfab cluster bootstrap (rendezvous registration,
    /// mesh formation, node-process spawn).
    pub boot_timeout: Duration,
    /// Scripted fault-injection plan enacted by the netfab backend
    /// (ignored by the emulator). Empty by default.
    pub faults: FaultPlan,
    /// Cross-process shared-memory data plane (netfab backends only):
    /// segments are backed by `mmap`ed tmpfs files so same-host peers in
    /// *other processes* serve put/get/acc/rmw with direct loads, stores
    /// and `AtomicU64` CAS — zero wire messages for reachable targets,
    /// with a per-peer fallback to the wire when mapping fails.
    /// `Some(true)`/`Some(false)` pin it; `None` (the default) is off
    /// for in-process runs and **on** for [`crate::run_cluster_spawned`]
    /// where the plane is supported (see [`ArmciCfg::shm_plane_enabled`]).
    pub shm_plane: Option<bool>,
    /// Base directory for shm-plane segment files. `None` (the default)
    /// picks `/dev/shm` when present, else the system temp dir. Must be
    /// an absolute path when set.
    pub shm_dir: Option<String>,
}

impl Default for ArmciCfg {
    fn default() -> Self {
        ArmciCfg {
            nodes: 1,
            procs_per_node: 1,
            latency: LatencyModel::myrinet_like(),
            ack_mode: AckMode::Gm,
            lock_algo: LockAlgo::Mcs,
            trace: false,
            op_timeout: Duration::from_secs(30),
            boot_timeout: Duration::from_secs(30),
            faults: FaultPlan::new(),
            shm_plane: None,
            shm_dir: None,
        }
    }
}

impl ArmciCfg {
    /// Convenience: `nodes` single-process nodes with the given latency —
    /// the shape of every experiment in the paper's evaluation except the
    /// SMP-locality tests.
    pub fn flat(nodes: u32, latency: LatencyModel) -> Self {
        ArmciCfg { nodes, latency, ..Default::default() }
    }

    /// Set the ack mode.
    pub fn with_ack_mode(mut self, m: AckMode) -> Self {
        self.ack_mode = m;
        self
    }

    /// Set the default lock algorithm.
    pub fn with_lock_algo(mut self, a: LockAlgo) -> Self {
        self.lock_algo = a;
        self
    }

    /// Set processes per node.
    pub fn with_procs_per_node(mut self, p: u32) -> Self {
        self.procs_per_node = p;
        self
    }

    /// Set the per-operation deadline (see [`ArmciCfg::op_timeout`]).
    pub fn with_op_timeout(mut self, t: Duration) -> Self {
        self.op_timeout = t;
        self
    }

    /// Set the bootstrap deadline (see [`ArmciCfg::boot_timeout`]).
    pub fn with_boot_timeout(mut self, t: Duration) -> Self {
        self.boot_timeout = t;
        self
    }

    /// Install a scripted fault-injection plan (netfab backend only).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Pin the shm data plane on or off (see [`ArmciCfg::shm_plane`]);
    /// `None` restores the per-backend default.
    pub fn with_shm_plane(mut self, on: Option<bool>) -> Self {
        self.shm_plane = on;
        self
    }

    /// Override the shm-plane base directory (see [`ArmciCfg::shm_dir`]).
    pub fn with_shm_dir(mut self, dir: Option<String>) -> Self {
        self.shm_dir = dir;
        self
    }

    /// The effective shm-plane switch, the one place it is decided: an
    /// explicit [`ArmciCfg::shm_plane`] wins; `None` is on for `spawned`
    /// runs (one OS process per node) wherever the plane is supported,
    /// and off for runs whose nodes share this process.
    pub fn shm_plane_enabled(&self, spawned: bool) -> bool {
        self.shm_plane.unwrap_or(spawned && cfg!(unix))
    }

    /// Validating finisher for a `with_*` chain: rejects degenerate
    /// cluster shapes, zero timeouts and inconsistent latency models with
    /// a [`ConfigError`] instead of failing later inside the runtime.
    ///
    /// ```
    /// use armci_core::ArmciCfg;
    /// use armci_transport::LatencyModel;
    /// use std::time::Duration;
    ///
    /// let cfg = ArmciCfg::flat(4, LatencyModel::zero())
    ///     .with_procs_per_node(2)
    ///     .with_op_timeout(Duration::from_secs(5))
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(cfg.nodes, 4);
    /// assert!(ArmciCfg::flat(0, LatencyModel::zero()).build().is_err());
    /// ```
    pub fn build(self) -> Result<ArmciCfg, ConfigError> {
        self.validate()?;
        Ok(self)
    }

    /// Validate an already-assembled config (the check
    /// [`ArmciCfg::build`] runs).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.nodes == 0 {
            return Err(ConfigError::ZeroNodes);
        }
        if self.procs_per_node == 0 {
            return Err(ConfigError::ZeroProcsPerNode);
        }
        if self.op_timeout.is_zero() {
            return Err(ConfigError::ZeroTimeout { which: "op_timeout" });
        }
        if self.boot_timeout.is_zero() {
            return Err(ConfigError::ZeroTimeout { which: "boot_timeout" });
        }
        if let Some(dir) = &self.shm_dir {
            if dir.is_empty() {
                return Err(ConfigError::BadShmDir { detail: "shm_dir must not be empty".into() });
            }
            if !std::path::Path::new(dir).is_absolute() {
                return Err(ConfigError::BadShmDir {
                    detail: format!(
                        "shm_dir must be absolute (every node process must resolve it identically), got {dir:?}"
                    ),
                });
            }
            if self.shm_plane == Some(false) {
                return Err(ConfigError::BadShmDir { detail: "shm_dir set but shm_plane explicitly disabled".into() });
            }
        }
        validate_latency(&self.latency)
    }
}

// serde impls, written out by hand (the vendored shim has no derive
// macro). The launcher ships an `ArmciCfg` to spawned node processes in
// an environment variable, so the whole config must round-trip.

impl AckMode {
    fn name(self) -> &'static str {
        match self {
            AckMode::Gm => "gm",
            AckMode::Via => "via",
        }
    }
}

impl Serialize for AckMode {
    fn to_value(&self) -> Value {
        Value::Str(self.name().to_string())
    }
}

impl Deserialize for AckMode {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v.as_str()? {
            "gm" => Ok(AckMode::Gm),
            "via" => Ok(AckMode::Via),
            other => Err(Error::new(format!("unknown ack mode {other:?}"))),
        }
    }
}

impl LockAlgo {
    fn name(self) -> &'static str {
        match self {
            LockAlgo::Hybrid => "hybrid",
            LockAlgo::Mcs => "mcs",
        }
    }
}

impl Serialize for LockAlgo {
    fn to_value(&self) -> Value {
        Value::Str(self.name().to_string())
    }
}

impl Deserialize for LockAlgo {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v.as_str()? {
            "hybrid" => Ok(LockAlgo::Hybrid),
            "mcs" => Ok(LockAlgo::Mcs),
            other => Err(Error::new(format!("unknown lock algorithm {other:?}"))),
        }
    }
}

impl Serialize for ArmciCfg {
    fn to_value(&self) -> Value {
        Value::map(vec![
            ("nodes", Value::U64(self.nodes as u64)),
            ("procs_per_node", Value::U64(self.procs_per_node as u64)),
            ("latency", self.latency.to_value()),
            ("ack_mode", self.ack_mode.to_value()),
            ("lock_algo", self.lock_algo.to_value()),
            ("trace", Value::Bool(self.trace)),
            ("op_timeout_us", Value::U64(self.op_timeout.as_micros() as u64)),
            ("boot_timeout_us", Value::U64(self.boot_timeout.as_micros() as u64)),
            ("faults", self.faults.to_value()),
            (
                "shm_plane",
                Value::Str(match self.shm_plane {
                    None => "auto".to_string(),
                    Some(true) => "on".to_string(),
                    Some(false) => "off".to_string(),
                }),
            ),
            ("shm_dir", self.shm_dir.to_value()),
        ])
    }
}

impl Deserialize for ArmciCfg {
    fn from_value(v: &Value) -> Result<Self, Error> {
        // Accept exactly the keys `to_value` writes: a config naming a
        // deleted knob fails loudly instead of silently losing it.
        if let (Value::Map(got), Value::Map(known)) = (v, ArmciCfg::default().to_value()) {
            if let Some(key) = got.keys().find(|k| !known.contains_key(*k)) {
                return Err(Error::new(format!("unknown config key `{key}`")));
            }
        }
        Ok(ArmciCfg {
            nodes: u32::from_value(v.field("nodes")?)?,
            procs_per_node: u32::from_value(v.field("procs_per_node")?)?,
            latency: LatencyModel::from_value(v.field("latency")?)?,
            ack_mode: AckMode::from_value(v.field("ack_mode")?)?,
            lock_algo: LockAlgo::from_value(v.field("lock_algo")?)?,
            trace: bool::from_value(v.field("trace")?)?,
            op_timeout: Duration::from_micros(u64::from_value(v.field("op_timeout_us")?)?),
            boot_timeout: Duration::from_micros(u64::from_value(v.field("boot_timeout_us")?)?),
            faults: FaultPlan::from_value(v.field("faults")?)?,
            shm_plane: match v.field("shm_plane")?.as_str()? {
                "auto" => None,
                "on" => Some(true),
                "off" => Some(false),
                other => return Err(Error::new(format!("unknown shm_plane setting {other:?}"))),
            },
            shm_dir: Option::<String>::from_value(v.field("shm_dir")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_single_proc_gm_mcs() {
        let c = ArmciCfg::default();
        assert_eq!(c.nodes, 1);
        assert_eq!(c.procs_per_node, 1);
        assert_eq!(c.ack_mode, AckMode::Gm);
        assert_eq!(c.lock_algo, LockAlgo::Mcs);
    }

    #[test]
    fn flat_builder() {
        let c = ArmciCfg::flat(16, LatencyModel::zero()).with_ack_mode(AckMode::Via);
        assert_eq!(c.nodes, 16);
        assert_eq!(c.procs_per_node, 1);
        assert_eq!(c.ack_mode, AckMode::Via);
    }

    #[test]
    fn cfg_roundtrips_through_json() {
        use armci_netfab::{FaultAction, FaultSpec};
        let cfg = ArmciCfg {
            nodes: 4,
            procs_per_node: 2,
            latency: armci_transport::LatencyModel::myrinet_like(),
            ack_mode: AckMode::Via,
            lock_algo: LockAlgo::Hybrid,
            trace: true,
            op_timeout: Duration::from_millis(2500),
            boot_timeout: Duration::from_secs(9),
            faults: FaultPlan::new()
                .with(FaultSpec { node: 1, peer: 0, after_frames: 3, action: FaultAction::ResetConn })
                .with(FaultSpec { node: 2, peer: 1, after_frames: 0, action: FaultAction::KillNode }),
            shm_plane: Some(true),
            shm_dir: Some("/dev/shm/armci-test".to_string()),
        };
        let json = serde::to_string(&cfg);
        let back: ArmciCfg = serde::from_str(&json).unwrap();
        assert_eq!(back.nodes, 4);
        assert_eq!(back.procs_per_node, 2);
        assert_eq!(back.latency, cfg.latency);
        assert_eq!(back.ack_mode, AckMode::Via);
        assert_eq!(back.lock_algo, LockAlgo::Hybrid);
        assert!(back.trace);
        assert_eq!(back.op_timeout, Duration::from_millis(2500));
        assert_eq!(back.boot_timeout, Duration::from_secs(9));
        assert_eq!(back.faults, cfg.faults);
        assert_eq!(back.shm_plane, Some(true));
        assert_eq!(back.shm_dir.as_deref(), Some("/dev/shm/armci-test"));

        // The default (`None` = the per-backend default) serializes as
        // "auto" and survives the trip too.
        let auto = ArmciCfg::default();
        let back: ArmciCfg = serde::from_str(&serde::to_string(&auto)).unwrap();
        assert_eq!(back.shm_plane, None);
        assert_eq!(back.shm_dir, None);
    }

    #[test]
    fn stale_config_keys_are_rejected_by_name() {
        let json = serde::to_string(&ArmciCfg::default());
        let mut stale_keys = vec![
            ("recovery", "false"),
            // Two pieces, so a grep for the deleted knob names finds
            // only quoted spellings here.
            (concat!("heartbeat_interval", "_us"), "100000"),
            (concat!("suspect_after", "_us"), "2000000"),
            ("replay_window", "1024"),
            ("on_peer_loss", "\"abort\""),
        ];
        for (stale, value) in [("nic_assist", "true"), ("io_driver", "\"event\"")] {
            stale_keys.push((stale, value));
        }
        // Knobs nothing set: each is now a constant of the code.
        stale_keys.extend([
            ("hier_collectives", "true"),
            ("locks_per_proc", "4"),
            ("detect_slice_us", "25000"),
            ("retry", "{\"attempts\":8}"),
            ("seed", "1"),
        ]);
        for (stale, value) in stale_keys {
            let with_stale = json.replacen('{', &format!("{{\"{stale}\":{value},"), 1);
            let err = serde::from_str::<ArmciCfg>(&with_stale).unwrap_err();
            assert!(err.to_string().contains(stale), "{stale}: {err}");
        }
    }

    #[test]
    fn shm_plane_tristate_roundtrips_and_rejects_junk() {
        for plane in [None, Some(true), Some(false)] {
            let cfg = ArmciCfg::default().with_shm_plane(plane);
            let back: ArmciCfg = serde::from_str(&serde::to_string(&cfg)).unwrap();
            assert_eq!(back.shm_plane, plane);
        }
        let json = serde::to_string(&ArmciCfg::default()).replace("\"auto\"", "\"sideways\"");
        assert!(serde::from_str::<ArmciCfg>(&json).is_err());
    }

    #[test]
    fn build_validates_shm_settings() {
        use crate::errors::ConfigError;
        // Valid combinations.
        let base = ArmciCfg::default;
        assert!(base().with_shm_plane(Some(true)).build().is_ok());
        assert!(base().with_shm_plane(Some(true)).with_shm_dir(Some("/dev/shm".into())).build().is_ok());
        assert!(base().with_shm_dir(Some("/tmp/armci".into())).build().is_ok());
        // Degenerate shm_dir values.
        assert!(matches!(base().with_shm_dir(Some(String::new())).build().unwrap_err(), ConfigError::BadShmDir { .. }));
        assert!(matches!(
            base().with_shm_dir(Some("relative/path".into())).build().unwrap_err(),
            ConfigError::BadShmDir { .. }
        ));
        // A directory override for a plane that is pinned off is a
        // contradiction `build` refuses.
        assert!(matches!(
            base().with_shm_plane(Some(false)).with_shm_dir(Some("/dev/shm".into())).build().unwrap_err(),
            ConfigError::BadShmDir { .. }
        ));
    }

    #[test]
    fn shm_plane_resolution_prefers_explicit() {
        for spawned in [false, true] {
            assert!(ArmciCfg::default().with_shm_plane(Some(true)).shm_plane_enabled(spawned));
            assert!(!ArmciCfg::default().with_shm_plane(Some(false)).shm_plane_enabled(spawned));
        }
        assert!(!ArmciCfg::default().shm_plane_enabled(false));
        assert_eq!(ArmciCfg::default().shm_plane_enabled(true), cfg!(unix));
    }

    #[test]
    fn build_accepts_valid_and_rejects_degenerate_configs() {
        let ok = ArmciCfg::flat(3, armci_transport::LatencyModel::zero())
            .with_procs_per_node(2)
            .with_ack_mode(AckMode::Via)
            .with_op_timeout(Duration::from_secs(2))
            .with_boot_timeout(Duration::from_secs(4))
            .build()
            .unwrap();
        assert_eq!((ok.nodes, ok.procs_per_node, ok.ack_mode), (3, 2, AckMode::Via));
        assert_eq!(ok.op_timeout, Duration::from_secs(2));

        use crate::errors::ConfigError;
        let base = ArmciCfg::default;
        assert_eq!(ArmciCfg { nodes: 0, ..base() }.build().unwrap_err(), ConfigError::ZeroNodes);
        assert_eq!(base().with_procs_per_node(0).build().unwrap_err(), ConfigError::ZeroProcsPerNode);
        assert_eq!(
            base().with_op_timeout(Duration::ZERO).build().unwrap_err(),
            ConfigError::ZeroTimeout { which: "op_timeout" }
        );
        assert_eq!(
            base().with_boot_timeout(Duration::ZERO).build().unwrap_err(),
            ConfigError::ZeroTimeout { which: "boot_timeout" }
        );
    }

    #[test]
    fn build_rejects_inconsistent_latency_models() {
        use armci_transport::LatencyModel;
        // Jitter larger than the inter-node latency it perturbs.
        let mut l = LatencyModel::myrinet_like();
        l.jitter = l.inter_node + Duration::from_micros(1);
        assert!(matches!(ArmciCfg::flat(1, l).build(), Err(crate::errors::ConfigError::BadLatency { .. })));
        // Intra-node cost above inter-node cost.
        let mut l = LatencyModel::myrinet_like();
        l.intra_node = l.inter_node + Duration::from_micros(1);
        assert!(ArmciCfg::flat(1, l).build().is_err());
        // The stock models are all valid.
        for l in [LatencyModel::zero(), LatencyModel::myrinet_like()] {
            assert!(ArmciCfg::flat(1, l).build().is_ok());
        }
    }

    #[test]
    fn every_lock_algo_roundtrips() {
        for algo in [LockAlgo::Hybrid, LockAlgo::Mcs] {
            // Exhaustive: a new variant does not compile until listed above.
            match algo {
                LockAlgo::Hybrid | LockAlgo::Mcs => {}
            }
            let json = serde::to_string(&algo);
            assert_eq!(serde::from_str::<LockAlgo>(&json), Ok(algo));
        }
        // A retired algorithm name fails loudly instead of silently
        // running another lock.
        for stale in ["mcs_swap", "mcs_pair", "ticket_poll", "server_only"] {
            assert!(serde::from_str::<LockAlgo>(&format!("\"{stale}\"")).is_err(), "{stale}");
        }
    }
}
