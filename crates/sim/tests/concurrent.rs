//! Tests of multi-kernel concurrent timing: a single kernel reproduces
//! its solo numbers exactly, small kernels overlap, full-device kernels
//! degrade to the serial sum, and the `max(solo) <= makespan <=
//! sum(solo)` invariants hold for generated batches.

use cypress_sim::{
    ConcurrentEngine, EngineStep, Expr, Instr, Kernel, KernelBuilder, KernelProfile, MachineConfig,
    RoleKind, Simulator, Slice, TimingReport, Topology,
};
use cypress_tensor::DType;
use proptest::prelude::*;

/// A DMA-driven kernel with `grid` CTAs, each streaming `trips` tiles of
/// `rows x 64` through shared memory. Grid size controls how many SMs it
/// occupies; trips controls how long it runs.
fn stream_kernel(name: &str, grid: usize, trips: i64, rows: usize) -> Kernel {
    let mut b = KernelBuilder::new(name, [grid, 1, 1]);
    let a = b.param("A", rows * trips as usize, 64, DType::F16);
    let sa = b.smem("sA", rows, 64, DType::F16, 2);
    let bar = b.mbar(1);
    let v = b.fresh_var();
    b.role(
        RoleKind::Dma,
        vec![Instr::Loop {
            var: v,
            count: Expr::lit(trips),
            body: vec![
                Instr::TmaLoad {
                    src: Slice::param(a)
                        .at(Expr::var(v) * rows as i64, 0)
                        .extent(rows, 64),
                    dst: Slice::smem(sa).stage(Expr::var(v) % 2).extent(rows, 64),
                    bar,
                },
                Instr::MbarWait { bar },
            ],
        }],
    );
    b.build()
}

/// One kernel's interval within a batch, beside its solo report.
struct Slot {
    start: f64,
    end: f64,
    solo: TimingReport,
}

/// A batch launched at cycle 0 on one device — what the runtime does for
/// a graph of independent nodes: time each kernel solo, distill the
/// reports into profiles, launch them all, step until the engine drains.
struct Batch {
    kernels: Vec<Slot>,
    makespan: f64,
}

impl Batch {
    fn run(sim: &Simulator, kernels: &[Kernel]) -> Batch {
        let machine = sim.machine();
        let mut engine = ConcurrentEngine::with_topology(&Topology::single(machine.clone()));
        let mut slots: Vec<Slot> = kernels
            .iter()
            .enumerate()
            .map(|(id, k)| {
                let solo = sim.run_timing(k).unwrap();
                engine.launch_on(id, 0, &KernelProfile::from_report(&solo, machine));
                Slot {
                    start: f64::NAN,
                    end: f64::NAN,
                    solo,
                }
            })
            .collect();
        while let Some(step) = engine.step() {
            let EngineStep::Retired { completion: c, .. } = step else {
                panic!("no fault plan, no evictions: {step:?}");
            };
            (slots[c.id].start, slots[c.id].end) = (c.start, c.end);
        }
        Batch {
            kernels: slots,
            makespan: engine.now(),
        }
    }

    /// What the batch would cost launched back-to-back.
    fn serial_sum(&self) -> f64 {
        self.kernels.iter().map(|k| k.solo.cycles).sum()
    }

    fn longest(&self) -> f64 {
        self.kernels
            .iter()
            .map(|k| k.solo.cycles)
            .fold(0.0f64, f64::max)
    }
}

#[test]
fn single_kernel_reproduces_solo_timing_exactly() {
    let sim = Simulator::new(MachineConfig::test_gpu());
    let k = stream_kernel("solo", 2, 6, 32);
    let solo = sim.run_timing(&k).unwrap();
    let batch = Batch::run(&sim, std::slice::from_ref(&k));
    assert_eq!(batch.makespan, solo.cycles, "one kernel, no contention");
    assert_eq!(batch.kernels.len(), 1);
    assert_eq!(batch.kernels[0].start, 0.0);
    assert_eq!(batch.kernels[0].end, solo.cycles);
}

#[test]
fn empty_batch_is_trivial() {
    let sim = Simulator::new(MachineConfig::test_gpu());
    let batch = Batch::run(&sim, &[]);
    assert_eq!(batch.makespan, 0.0);
    assert!(batch.kernels.is_empty());
}

#[test]
fn small_kernels_overlap_on_a_big_machine() {
    // Four 1-CTA kernels on a 4-SM machine: each occupies one SM, so the
    // batch overlaps and beats the serial sum.
    let sim = Simulator::new(MachineConfig::test_gpu());
    let kernels: Vec<Kernel> = (0..4)
        .map(|i| stream_kernel(&format!("k{i}"), 1, 8, 32))
        .collect();
    let batch = Batch::run(&sim, &kernels);
    let serial = batch.serial_sum();
    assert!(
        batch.makespan < serial,
        "batch {} should beat serial {}",
        batch.makespan,
        serial
    );
    assert!(batch.makespan >= batch.longest() - 1e-9);
    let speedup = serial / batch.makespan;
    assert!(speedup > 1.5, "{speedup}");
}

#[test]
fn full_device_kernels_degrade_to_the_serial_sum() {
    // Kernels with more CTAs than SMs occupy the whole device; running
    // two of them concurrently buys nothing.
    let sim = Simulator::new(MachineConfig::test_gpu());
    let kernels: Vec<Kernel> = (0..2)
        .map(|i| stream_kernel(&format!("big{i}"), 8, 6, 32))
        .collect();
    let batch = Batch::run(&sim, &kernels);
    let serial = batch.serial_sum();
    assert!(
        (batch.makespan - serial).abs() <= 1e-9 * serial,
        "two full-device kernels serialize: {} vs {serial}",
        batch.makespan
    );
}

proptest! {
    /// For any batch: `max(solo) <= makespan <= sum(solo)`, and the
    /// model is a pure function of its inputs.
    #[test]
    fn batch_invariants_hold(count in 1usize..5, grid in 1usize..6, trips in 1i64..8) {
        let sim = Simulator::new(MachineConfig::test_gpu());
        let kernels: Vec<Kernel> = (0..count)
            .map(|i| stream_kernel(&format!("p{i}"), grid, trips + i as i64, 32))
            .collect();
        let a = Batch::run(&sim, &kernels);
        let b = Batch::run(&sim, &kernels);
        prop_assert_eq!(a.makespan, b.makespan, "concurrent timing is deterministic");
        let (serial, longest) = (a.serial_sum(), a.longest());
        prop_assert!(a.makespan >= longest - 1e-9 * longest, "{} < longest {}", a.makespan, longest);
        prop_assert!(a.makespan <= serial + 1e-9 * serial, "{} > serial {}", a.makespan, serial);
        for (i, slot) in a.kernels.iter().enumerate() {
            prop_assert!(slot.end - slot.start >= slot.solo.cycles - 1e-9,
                "kernel {i} ran faster concurrently than solo");
        }
    }
}

#[test]
fn zero_cycle_profiles_retire_immediately_and_in_order() {
    let machine = MachineConfig::test_gpu();
    let zero = KernelProfile {
        name: "instant".into(),
        cycles: 0.0,
        sm_demand: 1.0,
        hbm_demand: 0.0,
        l2_demand: 0.0,
    };
    let slow = KernelProfile {
        name: "slow".into(),
        cycles: 1000.0,
        sm_demand: 1.0,
        hbm_demand: 0.0,
        l2_demand: 0.0,
    };
    let mut e = ConcurrentEngine::with_topology(&Topology::single(machine));
    e.launch_on(0, 0, &slow);
    e.launch_on(1, 0, &zero);
    e.launch_on(2, 0, &zero);
    let mut last_end = f64::NEG_INFINITY;
    let mut ids = Vec::new();
    while let Some(step) = e.step() {
        let EngineStep::Retired {
            completion: done, ..
        } = step
        else {
            panic!("no fault plan, no evictions: {step:?}");
        };
        assert!(done.end.is_finite(), "no NaN from zero-cycle work");
        assert!(
            done.end >= last_end,
            "completions must be time-ordered: {} after {last_end}",
            done.end
        );
        assert!(done.end >= done.start);
        last_end = done.end;
        ids.push(done.id);
    }
    // The zero-cycle kernels retire first (at time 0, lowest id first),
    // then the real one.
    assert_eq!(ids, vec![1, 2, 0]);
    assert_eq!(last_end, 1000.0);
}

#[test]
fn zero_cycle_report_distills_to_a_safe_profile() {
    let machine = MachineConfig::test_gpu();
    let report = TimingReport {
        kernel: "empty".into(),
        cycles: 0.0,
        seconds: 0.0,
        tc_flops: 0.0,
        simt_flops: 0.0,
        achieved_tflops: 0.0,
        tc_utilization: 0.0,
        tma_utilization: 0.0,
        simt_utilization: 0.0,
        ctas: 0,
        simulated_ctas: 0,
        active_sms: 0,
        ctas_per_sm: 0,
        load_bytes: 0.0,
        store_bytes: 0.0,
        l2_hit: 0.0,
        events: 0,
    };
    let p = KernelProfile::from_report(&report, &machine);
    assert!(p.sm_demand >= 1.0, "clamped so rates never divide by zero");
    assert!(p.hbm_demand.is_finite() && p.l2_demand.is_finite());
    assert_eq!(p.cycles, 0.0);
}
