//! Multi-device machine topology: N simulated devices behind
//! NVLink-class links.
//!
//! A [`Topology`] is the multi-device generalization of one
//! [`MachineConfig`]: a number of identical devices (each with its own
//! SMs, L2, and HBM) plus a list of [`Link`]s, each an unordered device
//! pair with a shared bidirectional bandwidth and a fixed latency. The
//! concurrent contention model
//! ([`crate::ConcurrentEngine::with_topology`]) treats every link as one
//! more fluid resource class: compute kernels contend only for their own
//! device's SM/HBM/L2, while transfers on the same link split its
//! bytes-per-cycle proportionally to demand.
//!
//! [`Topology::nvlink`] builds the configuration the runtime's sharded
//! placement uses: `n` identical devices, fully connected (every pair
//! has a dedicated point-to-point link, the NVSwitch abstraction). The
//! H100's NVLink 4 bandwidth (900 GB/s aggregate per device pair) is
//! derived per machine name like [`crate::CostConstants::for_machine`];
//! unknown machines fall back to a fixed fraction of their HBM
//! bandwidth so the model stays honest for the test GPU too.

use crate::machine::MachineConfig;

/// Fraction of a device's HBM bandwidth an NVLink-class link sustains,
/// used for machines without a datasheet entry. The H100 ratio:
/// 900 GB/s NVLink 4 over 3.35 TB/s HBM3 ≈ 0.27; we round down to keep
/// the test machine's links clearly slower than its memory system.
const NVLINK_HBM_FRACTION: f64 = 0.25;

/// Cycles from transfer launch until the first byte crosses an
/// NVLink-class link (port arbitration + serialization start), expressed
/// as a multiple of the machine's kernel-launch overhead so it scales
/// with each machine's latency regime.
const NVLINK_LATENCY_LAUNCH_FACTOR: f64 = 0.5;

/// One inter-device link: an unordered device pair sharing a fixed
/// bandwidth. Transfers in both directions draw on the same capacity
/// (the fluid model's proportional split).
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    /// Lower device id of the pair.
    pub a: usize,
    /// Higher device id of the pair.
    pub b: usize,
    /// Shared link bandwidth in bytes per cycle.
    pub bytes_per_cycle: f64,
    /// Cycles from transfer launch until the first byte moves.
    pub latency: f64,
}

impl Link {
    /// Solo cycles to move `bytes` across this link: launch overhead on
    /// the issuing device, link latency, then serialization at full
    /// bandwidth.
    #[must_use]
    pub fn transfer_cycles(&self, bytes: f64, machine: &MachineConfig) -> f64 {
        machine.kernel_launch_cycles + self.latency + bytes / self.bytes_per_cycle
    }
}

/// N identical simulated devices and the links between them.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// The machine every device is.
    pub machine: MachineConfig,
    /// Number of devices.
    pub devices: usize,
    /// Inter-device links (unordered pairs, at most one per pair).
    pub links: Vec<Link>,
}

impl Topology {
    /// The degenerate one-device topology: no links.
    #[must_use]
    pub fn single(machine: MachineConfig) -> Self {
        Topology {
            machine,
            devices: 1,
            links: Vec::new(),
        }
    }

    /// `n` copies of `machine` behind all-pairs NVLink-class links (the
    /// NVSwitch abstraction: every device pair gets the full
    /// point-to-point bandwidth). `n` is clamped to at least 1; `n == 1`
    /// is exactly [`Topology::single`].
    #[must_use]
    pub fn nvlink(machine: &MachineConfig, n: usize) -> Self {
        let n = n.max(1);
        let bytes_per_cycle = nvlink_bytes_per_cycle(machine);
        let latency = machine.kernel_launch_cycles * NVLINK_LATENCY_LAUNCH_FACTOR;
        let mut links = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                links.push(Link {
                    a,
                    b,
                    bytes_per_cycle,
                    latency,
                });
            }
        }
        Topology {
            machine: machine.clone(),
            devices: n,
            links,
        }
    }

    /// Number of devices.
    #[must_use]
    pub fn device_count(&self) -> usize {
        self.devices
    }

    /// The machine every device is: kernels are profiled and transfers
    /// priced against this one configuration whatever device they run
    /// on.
    #[must_use]
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// Index of the link joining devices `a` and `b` (order-insensitive),
    /// or `None` when the pair is not connected (or `a == b` — a local
    /// move needs no link).
    #[must_use]
    pub fn link_between(&self, a: usize, b: usize) -> Option<usize> {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        self.links.iter().position(|l| l.a == lo && l.b == hi)
    }

    /// Structural validity: at least one device, link endpoints in range
    /// and distinct, at most one link per pair, positive bandwidths and
    /// finite non-negative latencies. Returns a description of the first
    /// violation — the runtime wraps it in its typed error.
    ///
    /// # Errors
    ///
    /// A human-readable description of the violation.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.devices;
        if n == 0 {
            return Err("topology has no devices".to_string());
        }
        for (i, l) in self.links.iter().enumerate() {
            if l.a >= n || l.b >= n {
                return Err(format!(
                    "link {i} joins devices {}-{} but the topology has {n} devices",
                    l.a, l.b
                ));
            }
            if l.a == l.b {
                return Err(format!("link {i} joins device {} to itself", l.a));
            }
            if l.a > l.b {
                return Err(format!(
                    "link {i} endpoints {}-{} are not in canonical (low, high) order",
                    l.a, l.b
                ));
            }
            if !l.bytes_per_cycle.is_finite() || l.bytes_per_cycle <= 0.0 {
                return Err(format!(
                    "link {i} bandwidth {} bytes/cycle is not a positive finite number",
                    l.bytes_per_cycle
                ));
            }
            if !l.latency.is_finite() || l.latency < 0.0 {
                return Err(format!(
                    "link {i} latency {} is not a finite non-negative cycle count",
                    l.latency
                ));
            }
            if self.links[..i]
                .iter()
                .any(|prev| prev.a == l.a && prev.b == l.b)
            {
                return Err(format!(
                    "devices {}-{} are joined by more than one link",
                    l.a, l.b
                ));
            }
        }
        Ok(())
    }
}

/// NVLink-class bandwidth for `machine` in bytes per cycle, matched by
/// name like [`crate::CostConstants::for_machine`].
#[must_use]
pub(crate) fn nvlink_bytes_per_cycle(machine: &MachineConfig) -> f64 {
    match machine.name {
        // NVLink 4: 900 GB/s aggregate per device at the 1.755 GHz core
        // clock ≈ 513 bytes/cycle.
        "H100-SXM5" => 900.0e9 / (machine.clock_ghz * 1e9),
        _ => machine.hbm_bytes_per_cycle * NVLINK_HBM_FRACTION,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_has_no_links_and_one_device() {
        let t = Topology::single(MachineConfig::test_gpu());
        assert_eq!(t.device_count(), 1);
        assert!(t.links.is_empty());
        assert!(t.validate().is_ok());
        assert_eq!(t, Topology::nvlink(&MachineConfig::test_gpu(), 1));
    }

    #[test]
    fn nvlink_is_all_pairs() {
        let t = Topology::nvlink(&MachineConfig::test_gpu(), 4);
        assert_eq!(t.device_count(), 4);
        assert_eq!(t.links.len(), 6, "C(4,2) point-to-point links");
        assert!(t.validate().is_ok());
        for a in 0..4 {
            assert_eq!(t.link_between(a, a), None, "no self links");
            for b in 0..4 {
                if a != b {
                    let idx = t.link_between(a, b).expect("pair connected");
                    assert_eq!(t.link_between(b, a), Some(idx), "order-insensitive");
                }
            }
        }
    }

    #[test]
    fn h100_link_bandwidth_matches_nvlink4() {
        let bw = nvlink_bytes_per_cycle(&MachineConfig::h100_sxm5());
        // 900 GB/s at 1.755 GHz.
        assert!((bw - 512.82).abs() < 0.1, "{bw}");
        let test_bw = nvlink_bytes_per_cycle(&MachineConfig::test_gpu());
        assert!(
            test_bw < MachineConfig::test_gpu().hbm_bytes_per_cycle,
            "links must be slower than local HBM"
        );
    }

    #[test]
    fn transfer_cycles_cover_launch_latency_and_serialization() {
        let machine = MachineConfig::test_gpu();
        let t = Topology::nvlink(&machine, 2);
        let link = &t.links[0];
        let cycles = link.transfer_cycles(16_384.0, &machine);
        let serialization = 16_384.0 / link.bytes_per_cycle;
        assert!(
            (cycles - (machine.kernel_launch_cycles + link.latency + serialization)).abs() < 1e-9
        );
    }

    #[test]
    fn validate_rejects_malformed_topologies() {
        let m = MachineConfig::test_gpu();
        let empty = Topology {
            machine: m.clone(),
            devices: 0,
            links: vec![],
        };
        assert!(empty.validate().unwrap_err().contains("no devices"));

        let mut t = Topology::nvlink(&m, 2);
        t.links[0].b = 5;
        assert!(t.validate().unwrap_err().contains("2 devices"));

        let mut t = Topology::nvlink(&m, 2);
        t.links[0].bytes_per_cycle = 0.0;
        assert!(t.validate().unwrap_err().contains("bandwidth"));

        let mut t = Topology::nvlink(&m, 2);
        t.links.push(t.links[0].clone());
        assert!(t.validate().unwrap_err().contains("more than one link"));

        let mut t = Topology::nvlink(&m, 2);
        t.links[0].a = 1;
        t.links[0].b = 0;
        assert!(t.validate().unwrap_err().contains("canonical"));
    }
}
