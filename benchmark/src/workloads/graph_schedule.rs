//! `graph_schedule` — runtime scheduling does the work: sharding, the
//! concurrent stream scheduler, fault recovery, report assembly.
//!
//! Set-up builds random DAGs of 24–48 nodes over the five paper
//! kernels at 512 and 1024 (where one kernel fills a fraction of the
//! device, so what is scheduled beside what matters) and warms one
//! session. Op = a warm `Session::launch_timing` under one point of
//! the policy product
//!
//! streams {1 (serial), 4, 8} × devices {1, 2, 4} × fusion {off, auto}
//! × faults {none, two transients, loss of the last device at half the
//! clean makespan — multi-device only},
//!
//! with transients and losses recovered under `FaultPolicy::Retry`.
//! The DAG shapes are part of the workload's definition (fixed
//! structural seeds); the run's seed orders the ops.
//!
//! `sim_cycles` is the sum of the launches' makespans.

use super::{seeded_order, Checks, OpResult, Workload};
use crate::adapter::{
    self, Family, Faults, Graph, Input, KernelSpec, Launchable, NodeSpec, Policy, Runtime,
    Schedule, Sim,
};
use rand::Rng as _;

/// `(structural seed, problem size)` of each DAG.
const DAGS: [(u64, usize); 2] = [(0xD2, 512), (0xD3, 1024)];
const STREAMS: [usize; 3] = [1, 4, 8];
const DEVICES: [usize; 3] = [1, 2, 4];
const TRANSIENTS: u64 = 2;

fn families(size: usize) -> [KernelSpec; 5] {
    [
        KernelSpec::new(Family::Gemm, &[size, size, size]),
        KernelSpec::new(Family::Batched, &[1, size, size, size]),
        KernelSpec::new(Family::Dual, &[size, size, size]),
        KernelSpec::new(Family::GemmReduction, &[size, size, size]),
        KernelSpec::new(Family::Fa2, &[1, size, 128]),
    ]
}

/// A random DAG: every input slot takes the primary output of an
/// earlier node of the same shape with probability 0.6, else an
/// external tensor. Half the GEMMs instead take an unconsumed earlier
/// GEMM as their `A` operand and keep it to themselves — the
/// producer→consumer chain `FusionPolicy::Auto` rewrites, which purely
/// random wiring almost never leaves intact.
pub fn random_dag(structure: u64, size: usize) -> Result<Vec<NodeSpec>, String> {
    let mut rng = adapter::rng(structure);
    let kinds = families(size);
    let mut shapes = Vec::new();
    for spec in &kinds {
        shapes.push(adapter::build_default(spec)?.arg_shapes());
    }
    let n = rng.gen_range(24..49usize);
    let mut nodes: Vec<NodeSpec> = Vec::with_capacity(n);
    let mut kind_of: Vec<usize> = Vec::with_capacity(n);
    let mut consumers = vec![0usize; n];
    // Producers whose output belongs to one chained consumer.
    let mut taken = vec![false; n];
    for i in 0..n {
        let kind = rng.gen_range(0..kinds.len());
        let family = kinds[kind].family;
        let outputs = super::outputs_of(&kinds[kind]);
        let mut inputs = Vec::new();
        for (p, shape) in shapes[kind].iter().enumerate() {
            if p < outputs {
                inputs.push(Input::Zeros);
                continue;
            }
            let chainable: Vec<usize> = (0..i)
                .filter(|&j| {
                    family == Family::Gemm
                        && p == 1
                        && kinds[kind_of[j]].family == Family::Gemm
                        && consumers[j] == 0
                })
                .collect();
            if !chainable.is_empty() && rng.gen_range(0..100u32) < 50 {
                let node = chainable[rng.gen_range(0..chainable.len())];
                taken[node] = true;
                consumers[node] += 1;
                inputs.push(Input::Node { node, param: 0 });
                continue;
            }
            // Attention tensors stay external: the sharder's transfer
            // kernel cannot tile their 128 columns, so an attention edge
            // that crosses devices fails to compile.
            let producers: Vec<usize> = (0..i)
                .filter(|&j| family != Family::Fa2 && !taken[j] && shapes[kind_of[j]][0] == *shape)
                .collect();
            if !producers.is_empty() && rng.gen_range(0..100u32) < 60 {
                let node = producers[rng.gen_range(0..producers.len())];
                consumers[node] += 1;
                inputs.push(Input::Node { node, param: 0 });
            } else {
                inputs.push(Input::External(format!("x{i}_{p}")));
            }
        }
        nodes.push(NodeSpec {
            name: format!("n{i}"),
            kernel: kinds[kind].clone(),
            inputs,
            retain: false,
        });
        kind_of.push(kind);
    }
    Ok(nodes)
}

/// A DAG with the solo kernels its replay needs.
pub struct Dag {
    pub size: usize,
    pub graph: Graph,
    /// The distinct kernels of the DAG.
    pub kernels: Vec<Launchable>,
    /// Per node, its index into `kernels`.
    pub kernel_of: Vec<usize>,
}

impl Dag {
    pub fn prepare(structure: u64, size: usize, rt: &mut Runtime) -> Result<Dag, String> {
        let nodes = random_dag(structure, size)?;
        let graph = adapter::build_graph(&nodes)?;
        let kinds = families(size);
        let mut kernels = Vec::new();
        for spec in &kinds {
            kernels.push(rt.compile(&adapter::build_default(spec)?)?);
        }
        let kernel_of = nodes
            .iter()
            .map(|n| {
                kinds
                    .iter()
                    .position(|k| *k == n.kernel)
                    .expect("every node is one of the five families")
            })
            .collect();
        Ok(Dag {
            size,
            graph,
            kernels,
            kernel_of,
        })
    }

    /// What `launch_timing` does for this DAG, through the bare
    /// simulator: one solo timing run per distinct kernel, then the
    /// contention engine over every node's profile.
    pub fn replay(&self, sim: &Sim, devices: usize, transients: u64) -> Result<(), String> {
        let solo = self
            .kernels
            .iter()
            .map(|k| adapter::time(sim, k))
            .collect::<Result<Vec<_>, _>>()?;
        let profiles: Vec<_> = self.kernel_of.iter().map(|&k| solo[k].clone()).collect();
        adapter::drive_concurrent(&profiles, devices, transients);
        Ok(())
    }
}

struct Op {
    dag: usize,
    policy: Policy,
}

pub struct GraphSchedule {
    rt: Runtime,
    sim: Sim,
    dags: Vec<Dag>,
    ops: Vec<Op>,
}

fn clean(streams: usize, devices: usize, fusion: bool) -> Policy {
    Policy {
        parallelism: 1,
        streams,
        devices,
        fusion,
        faults: Faults::None,
    }
}

impl GraphSchedule {
    pub fn setup(seed: u64, quick: bool) -> Result<Self, String> {
        let mut rt = Runtime::new(&Policy::plain(1));
        let mut dags = Vec::new();
        let mut ops = Vec::new();
        for (d, (structure, size)) in DAGS.into_iter().enumerate() {
            let dag = Dag::prepare(structure, size, &mut rt)?;
            for streams in STREAMS {
                for devices in DEVICES {
                    for fusion in [false, true] {
                        // The clean launch warms the session for this
                        // policy and fixes the cycle the device dies at.
                        let policy = clean(streams, devices, fusion);
                        rt.configure(&policy);
                        let makespan = rt.launch_timing(&dag.graph)?.makespan;
                        let mut faults = vec![Faults::None, Faults::Transients(TRANSIENTS)];
                        if devices > 1 {
                            faults.push(Faults::DeviceLoss { at: makespan * 0.5 });
                        }
                        for faults in faults {
                            ops.push(Op {
                                dag: d,
                                policy: Policy { faults, ..policy },
                            });
                        }
                    }
                }
            }
            dags.push(dag);
        }
        Ok(GraphSchedule {
            rt,
            sim: adapter::simulator(),
            dags,
            ops: seeded_order(ops, seed, quick),
        })
    }

    fn launch(&mut self, dag: usize, policy: &Policy) -> Result<Schedule, String> {
        self.rt.configure(policy);
        self.rt.launch_timing(&self.dags[dag].graph)
    }
}

impl Workload for GraphSchedule {
    fn ops(&self) -> usize {
        self.ops.len()
    }

    fn op_label(&self, i: usize) -> String {
        let Op { dag, policy } = &self.ops[i];
        format!(
            "dag{}x{} streams {} devices {} fusion {} {:?}",
            dag, self.dags[*dag].size, policy.streams, policy.devices, policy.fusion, policy.faults
        )
    }

    fn run_op(&mut self, i: usize) -> Result<OpResult, String> {
        let Op { dag, policy } = self.ops[i];
        let schedule = self.launch(dag, &policy)?;
        Ok(OpResult {
            sim_cycles: schedule.makespan,
            digest: schedule.digest,
        })
    }

    fn replay_op(&mut self, i: usize) -> Result<(), String> {
        let Op { dag, policy } = &self.ops[i];
        let transients = match policy.faults {
            Faults::Transients(n) => n,
            _ => 0,
        };
        self.dags[*dag].replay(&self.sim, policy.devices, transients)?;
        if policy.faults != Faults::None {
            // A recovered launch schedules twice: once faulted, once
            // clean to price the recovery.
            self.dags[*dag].replay(&self.sim, policy.devices, 0)?;
        }
        Ok(())
    }

    /// Fault-free schedules sit between their critical path and their
    /// serial sum; an empty fault plan under `Retry` changes nothing;
    /// every faulted launch recovers, retrying each transient once.
    fn check(&mut self) -> Checks {
        let mut checks = Checks::default();
        for i in 0..self.ops.len() {
            let Op { dag, policy } = self.ops[i];
            let what = self.op_label(i);
            let Some(s) = checks.step(&what, self.launch(dag, &policy)) else {
                continue;
            };
            match policy.faults {
                Faults::None => {
                    let slack = 1e-9 * s.serial_sum;
                    checks.expect(
                        s.critical_path <= s.makespan + slack && s.makespan <= s.serial_sum + slack,
                        || {
                            format!(
                                "{what}: critical path {} <= makespan {} <= serial sum {} broken",
                                s.critical_path, s.makespan, s.serial_sum
                            )
                        },
                    );
                    let armed = Policy {
                        faults: Faults::Transients(0),
                        ..policy
                    };
                    let unfired = checks.step(&what, self.launch(dag, &armed));
                    checks.expect(
                        unfired.is_some_and(|u| u.digest == s.digest && u.retries == 0),
                        || format!("{what}: an empty fault plan changed the schedule"),
                    );
                }
                Faults::Transients(n) => checks.expect(
                    s.faults == n && s.retries == n && s.overhead_cycles >= 0.0,
                    || {
                        format!(
                            "{what}: {n} transients gave {} faults, {} retries, {} overhead cycles",
                            s.faults, s.retries, s.overhead_cycles
                        )
                    },
                ),
                // Recovering (the launch above returned) is all a loss
                // must do: one that lands on an idle device has no
                // casualties, and re-planning onto fewer devices can
                // even finish sooner than the clean run, because
                // cross-device transfers disappear.
                Faults::DeviceLoss { .. } => {}
            }
        }
        checks
    }
}
