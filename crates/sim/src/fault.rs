//! Seeded, deterministic fault injection for the concurrent engine.
//!
//! A [`FaultPlan`] is a pure description of what goes wrong during a
//! simulated multi-device run — which device dies and when, and which
//! launch on which device fails transiently. Attach one to a
//! [`crate::ConcurrentEngine::with_fault_plan`] and faulted launches
//! surface as typed [`crate::LaunchOutcome`]s instead of silent
//! successes; the runtime layers retry and re-sharding policies on top.
//!
//! Everything here is deterministic: a plan is a plain value, the seeded
//! constructor ([`FaultPlan::seeded`]) derives its faults from a
//! splitmix64 stream, and the engine consumes the plan without any
//! host-side entropy. The same plan against the same launch sequence
//! always produces the same fault timeline — which is what makes retry
//! bitwise-safe and replay debugging possible.

/// One injectable fault.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Device `device` fails permanently at cycle `at`: every launch
    /// in flight on it at that cycle is killed with
    /// [`crate::LaunchOutcome::DeviceLost`], and later launches on it
    /// fail immediately. The device's *memory* stays drainable (the
    /// fail-stop model covers compute, not HBM), so a recovery layer
    /// can still move stranded buffers off over the links.
    DeviceLoss {
        /// The device that dies.
        device: usize,
        /// The cycle it dies at.
        at: f64,
    },
    /// The `launch`-th compute launch (0-based, counted per device) on
    /// `device` fails once with [`crate::LaunchOutcome::TransientFault`]
    /// after consuming its full duration — a crashed kernel whose
    /// re-execution (a later launch index) succeeds.
    Transient {
        /// The device the faulty launch runs on.
        device: usize,
        /// The per-device launch index that faults.
        launch: u64,
    },
}

/// A deterministic schedule of injectable faults (see the module docs).
///
/// Build one fluently:
///
/// ```
/// use cypress_sim::FaultPlan;
/// let plan = FaultPlan::new()
///     .with_transient(0, 1)          // second launch on device 0 fails once
///     .with_device_loss(1, 5_000.0); // device 1 dies at cycle 5000
/// assert_eq!(plan.faults().len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan: attaching it changes nothing, bit for bit.
    #[must_use]
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Add a permanent device loss (see [`Fault::DeviceLoss`]).
    #[must_use]
    pub fn with_device_loss(mut self, device: usize, at: f64) -> Self {
        self.faults.push(Fault::DeviceLoss {
            device,
            at: at.max(0.0),
        });
        self
    }

    /// Add a one-shot transient kernel fault (see [`Fault::Transient`]).
    #[must_use]
    pub fn with_transient(mut self, device: usize, launch: u64) -> Self {
        self.faults.push(Fault::Transient { device, launch });
        self
    }

    /// A seeded random plan of `count` transient faults spread over
    /// `devices` devices at small launch indices (0..8) — the shape the
    /// property suites sweep. Deterministic: same seed, same plan.
    #[must_use]
    pub fn seeded(seed: u64, devices: usize, count: usize) -> Self {
        let devices = devices.max(1);
        let mut state = seed;
        let mut plan = FaultPlan::new();
        for _ in 0..count {
            let a = splitmix64(&mut state);
            let b = splitmix64(&mut state);
            plan = plan.with_transient((a % devices as u64) as usize, b % 8);
        }
        plan
    }

    /// The scheduled faults, in insertion order.
    #[must_use]
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// `true` when the plan schedules nothing — the engine then behaves
    /// bit-identically to one without a plan.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The cycle `device` permanently fails at, if the plan kills it
    /// (the earliest such cycle when several entries target it).
    #[must_use]
    pub(crate) fn device_loss_at(&self, device: usize) -> Option<f64> {
        self.faults
            .iter()
            .filter_map(|f| match f {
                Fault::DeviceLoss { device: d, at } if *d == device => Some(*at),
                _ => None,
            })
            .min_by(f64::total_cmp)
    }

    /// `true` when the plan's `launch`-th compute launch on `device`
    /// is scheduled to fault transiently.
    #[must_use]
    pub(crate) fn transient_hits(&self, device: usize, launch: u64) -> bool {
        self.faults.iter().any(|f| {
            matches!(f, Fault::Transient { device: d, launch: l } if *d == device && *l == launch)
        })
    }

    /// The next cycle strictly after `now` at which a device dies. The
    /// engine clips its fluid windows there so a loss fires at its exact
    /// cycle.
    #[must_use]
    pub(crate) fn next_boundary(&self, now: f64) -> Option<f64> {
        self.faults
            .iter()
            .filter_map(|f| match f {
                Fault::DeviceLoss { at, .. } if *at > now => Some(*at),
                _ => None,
            })
            .min_by(f64::total_cmp)
    }
}

/// One step of the splitmix64 stream — the deterministic entropy source
/// behind [`FaultPlan::seeded`] (the sim crate carries no `rand`).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert_eq!(plan.device_loss_at(0), None);
        assert_eq!(plan.next_boundary(0.0), None);

        // A non-empty plan changes the machine only where a device dies;
        // the earliest of two losses of one device is the one that fires.
        let plan = FaultPlan::new()
            .with_transient(0, 0)
            .with_device_loss(2, 300.0)
            .with_device_loss(2, 200.0);
        assert_eq!(plan.device_loss_at(2), Some(200.0));
        assert_eq!(plan.device_loss_at(0), None);
        assert_eq!(plan.next_boundary(0.0), Some(200.0));
        assert_eq!(plan.next_boundary(200.0), Some(300.0));
        assert_eq!(plan.next_boundary(300.0), None);
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultPlan::seeded(7, 4, 3);
        let b = FaultPlan::seeded(7, 4, 3);
        assert_eq!(a, b);
        assert_eq!(a.faults().len(), 3);
        assert_ne!(a, FaultPlan::seeded(8, 4, 3), "different seeds differ");
        for f in a.faults() {
            match f {
                Fault::Transient { device, launch } => {
                    assert!(*device < 4 && *launch < 8);
                }
                other => panic!("seeded plans are transient-only, got {other:?}"),
            }
        }
    }

    #[test]
    fn transient_hits_match_exact_indices() {
        let plan = FaultPlan::new().with_transient(1, 2);
        assert!(plan.transient_hits(1, 2));
        assert!(!plan.transient_hits(1, 3));
        assert!(!plan.transient_hits(0, 2));
    }
}
