//! Discrete-event execution engine.
//!
//! The engine executes a [`Kernel`] in one of two modes, set by whether
//! it is handed parameter tensors:
//!
//! - **Functional**: every CTA of the grid runs and data really moves, so
//!   results can be checked against host oracles. Used by tests and
//!   examples at small problem sizes. The CTAs run one at a time, in
//!   grid order: the next launches when one retires, and a retired CTA's
//!   shared-memory and fragment buffers go to the next CTA to start,
//!   which re-zeroes them, once none of its copies or WGMMAs is still in
//!   flight (a role may end with a TMA store pending). So a run holds
//!   one or two CTAs' buffers, and its tensors depend on the order of
//!   CTAs only where two CTAs touch one global element and one of them
//!   writes it: a race.
//! - **Timing**: only the busiest SM's share of CTAs is simulated and data
//!   is not touched; the discrete-event schedule (TMA queues, Tensor Core
//!   occupancy, mbarrier phases, bandwidth contention) produces the launch
//!   makespan. Used by the benchmark harness at paper-scale sizes. Slice
//!   origins are evaluated only where lowering could not prove them in
//!   bounds (see `Operands::proven`): the rest can neither fail nor matter
//!   when no data moves. The L2 hit rate a run charges global loads, the
//!   report's byte and FLOP totals and the per-CTA work of
//!   [`timing_floor`] are the [`Program`]'s, summed by the walk that
//!   lowered it: the engine reads no instruction of the [`Kernel`].
//!
//! Hardware units are modelled as *fluid FIFO queues*: a reservation of
//! `amount` work on a queue with rate `r` completes no earlier than the
//! queue's virtual time plus `amount / r`. The completion time of an
//! operation touching several queues is the maximum over its reservations,
//! so whichever resource is the bottleneck determines progress — exactly
//! the property that distinguishes a well-pipelined kernel from one with
//! exposed latency.
//!
//! # Event queue
//!
//! Pending events are totally ordered by `(time, seq)`: `time` under
//! [`f64::total_cmp`], then `seq`, a counter stamped when the event is
//! scheduled — so no two events compare equal, and the pop sequence is a
//! function of the scheduled set alone, not of how the set is stored.
//! `EventQueue` stores it as a deque sorted earliest first, with a
//! one-element *slot* in front. The commonest event is an executor's own
//! `Resume` after an issue cost, and it is usually the earliest thing
//! pending the moment it is scheduled; `retire_after` therefore *defers*
//! it — stamps its `seq` and parks it in the slot — instead of inserting
//! it. `pop` returns the slot's event unless the deque's front orders
//! before it, so ties (a barrier waiter woken for the same time with a
//! lower `seq`) resolve exactly as one heap would resolve them. Both
//! modes use the one queue; a slot-served event is counted in
//! `event_count` like any other, which is why [`TimingReport::events`]
//! does not see the slot.
//!
//! The queue is short: at a pop, a timing run of the paper's kernels
//! (`sim_timing`'s Fig. 13/14 set) has 6.1 events pending on average and
//! at most 129, the slot and the event popped included, the functional
//! launches of `graph_functional` 3.8 and at most 9, and a
//! functional grid of 1 024 CTAs (a test-GPU GEMM 2048² x 128) 2.9 and at
//! most 6: one CTA's roles and transfers. At those depths a binary search
//! and a short move beat a heap's sifts, and most inserts need neither:
//! on GEMM 8192³ and FlashAttention-3 at 16384, 58 % of the events
//! pushed order before every pending one (a woken waiter, a resume
//! displaced from the slot) and 18 % after all of them (a late
//! completion), and those go on an end of the deque. A queue of
//! thousands would pay for the rest with a move of up to half of it.
//! Elements move by value, so an `Event` is kept to 40
//! bytes: executor, CTA and mbarrier indices are `u32` (narrowed once,
//! where they are minted, with a typed error instead of a truncation),
//! and the operands a functional run applies when a copy or MMA retires
//! live in a `Box` beside the element, allocated only when data moves. So
//! are a SIMT operation's, in an executor's pending `Work`: a timing
//! run's events own no heap memory, and its instructions are issued
//! without building operands (see `Engine::operands`).
//!
//! # Bounded runs
//!
//! A timing run may carry a cutoff (`Simulator::run_timing_bounded`; an
//! unbounded run is the same loop with a cutoff of `+∞`, and pays one
//! compare per event for it). It stops at the first of two points, each
//! proving the run's `cycles` above the cutoff:
//!
//! - **An event past the cutoff.** `now` never decreases and its final
//!   value is `cycles`, so `now > cutoff` bounds `cycles` by `now`.
//! - **A CTA launch.** When a CTA is launched at `now`, the `R` CTAs
//!   not launched before it (it included) start at
//!   `now + cta_launch_cycles` or later, and each reserves at least `F`
//!   cycles of work on one unit, `F` being one CTA's busiest-unit term
//!   of `timing_floor`. A unit is a FIFO: a reservation made at or
//!   after a time `T` starts no earlier than `T` and after every earlier
//!   reservation ends, so the unit's last reservation ends no earlier
//!   than `T` plus the service of everything reserved after `T`, and
//!   every reservation's end is an event time. Hence
//!   `cycles >= now + cta_launch_cycles + R·F`, whatever the occupancy.
//!   `FLOOR_SLACK` is taken off the whole bound for the rounding of the
//!   unit clocks.
//!
//! A run that ends at or before the cutoff meets neither point and is
//! the unbounded run bit for bit.
#![deny(clippy::too_many_lines)]

use crate::apply::{Apply, At, FuncData, MmaOperands, RSlice, Scratch};
use crate::bytecode::{self, BcInstr, BcOp, BcSlice, Operands, Program, SimtCost, MAX_OPERANDS};
use crate::error::SimError;
use crate::expr::{Env, EvalError};
use crate::instr::SimtOp;
use crate::kernel::{Kernel, RoleKind};
use crate::machine::MachineConfig;
use crate::mem::{FragDecl, MemRef, SmemDecl};
use crate::report::{ApplyBytes, TimingReport};
use crate::FunctionalRun;
use cypress_tensor::Tensor;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Mutex, MutexGuard, PoisonError};

const EVENT_LIMIT: u64 = 400_000_000;

/// A fluid FIFO resource.
#[derive(Debug, Clone)]
struct Fluid {
    rate: f64,
    virt: f64,
    busy: f64,
}

impl Fluid {
    fn new(rate: f64) -> Self {
        Fluid {
            rate,
            virt: 0.0,
            busy: 0.0,
        }
    }

    /// Reserve `amount` units starting no earlier than `now`; returns the
    /// completion time.
    fn reserve(&mut self, now: f64, amount: f64) -> f64 {
        let service = amount / self.rate;
        let start = self.virt.max(now);
        self.virt = start + service;
        self.busy += service;
        self.virt
    }
}

#[derive(Debug, Clone)]
struct LoopCtx {
    var: usize,
    iter: i64,
    trips: i64,
    body: usize,
}

/// A CTA barrier an executor can wait at: a named barrier by its
/// kernel-given id, or the CTA-wide one `Syncthreads` waits at, which no
/// id reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Barrier {
    Named(usize),
    Cta,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Blocked {
    Mbar(usize),
    Wgmma(usize),
    Stores,
    Barrier(Barrier),
}

/// Deferred effect applied when an executor's in-flight instruction retires.
enum Work<'k> {
    /// Just advance the program counter.
    Advance,
    /// Consume one phase token of an mbarrier, then advance.
    ConsumeMbar(usize),
    /// Apply a resolved SIMT operation (functional mode), then advance.
    Simt(Box<SimtWork<'k>>),
}

/// A SIMT operation and its resolved operands: its sources, then its
/// destination.
struct SimtWork<'k> {
    op: &'k SimtOp,
    operands: Resolved,
}

/// An instruction's operand slices, resolved in operand order (see
/// `bytecode::Operands`).
#[derive(Clone, Copy)]
struct Resolved {
    slices: [RSlice; MAX_OPERANDS],
    len: usize,
}

impl Resolved {
    /// A copy's source and destination.
    fn copy(self) -> Box<(RSlice, RSlice)> {
        let [src, dst, _] = self.slices;
        Box::new((src, dst))
    }

    /// A SIMT operation's sources and destination.
    fn simt(&self) -> (&[RSlice], &RSlice) {
        let (dst, srcs) = self.slices[..self.len]
            .split_last()
            .expect("a SIMT operation has a destination");
        (srcs, dst)
    }
}

/// What fills the unused entries of a [`Resolved`].
const NO_SLICE: RSlice = RSlice {
    mem: MemRef::Frag(0),
    stage: 0,
    row0: 0,
    col0: 0,
    rows: 0,
    cols: 0,
};

struct Exec<'k> {
    /// This executor's index in `Engine::execs` as events carry it,
    /// narrowed once when `start_cta` mints it.
    id: u32,
    cta: usize,
    role: usize,
    pc: usize,
    env: Env,
    loops: Vec<LoopCtx>,
    bar_tokens: Vec<u64>,
    outstanding_wgmma: usize,
    outstanding_stores: usize,
    blocked: Option<Blocked>,
    pending: Option<Work<'k>>,
    done: bool,
}

impl<'k> Exec<'k> {
    /// Unblock this executor: it resumes at `at`, retiring `work`.
    fn satisfy(&mut self, queue: &mut EventQueue, work: Work<'k>, at: f64) {
        self.blocked = None;
        self.pending = Some(work);
        queue.push(at, EventKind::Resume(self.id));
    }
}

#[derive(Debug, Default)]
struct MbarState {
    arrived: usize,
    phases: u64,
    waiters: Vec<usize>,
}

#[derive(Debug, Default)]
struct NamedState {
    arrived: usize,
    waiters: Vec<usize>,
}

struct CtaState {
    mbars: Vec<MbarState>,
    /// The named barriers the CTA's roles have met, by id.
    named: Vec<(usize, NamedState)>,
    /// The CTA-wide barrier ([`Barrier::Cta`]).
    cta_wide: NamedState,
    roles_done: usize,
    /// Copies and WGMMAs issued and not yet retired: a functional run
    /// applies each when it retires, to this CTA's buffers.
    in_flight: usize,
}

#[derive(Debug)]
enum EventKind {
    StartCta(u32),
    Resume(u32),
    TmaDone {
        exec: u32,
        bar: Option<u32>,
        /// `(src, dst)` to copy at completion; `None` in timing mode.
        copy: Option<Box<(RSlice, RSlice)>>,
        is_store: bool,
    },
    WgmmaDone {
        exec: u32,
        /// `None` in timing mode.
        mma: Option<Box<MmaOperands>>,
    },
}

struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
}

// The queue moves elements by value on every insert (see the module
// header), and the engine fetches an instruction and takes an executor's
// pending work once per event.
const _: () = assert!(std::mem::size_of::<Event>() <= 40);
const _: () = assert!(std::mem::size_of::<Option<Work<'static>>>() <= 16);

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
    }
}

/// The pending events: a sorted queue with a one-element slot in front
/// of it (see the module header). Pops in `(time, seq)` order.
#[derive(Default)]
struct EventQueue {
    /// Scheduled events, earliest first.
    sorted: VecDeque<Event>,
    /// A deferred event, not (yet) in `sorted`.
    slot: Option<Event>,
    seq: u64,
}

impl EventQueue {
    fn stamp(&mut self, time: f64, kind: EventKind) -> Event {
        self.seq += 1;
        Event {
            time,
            seq: self.seq,
            kind,
        }
    }

    /// Schedule an event through the sorted queue.
    fn push(&mut self, time: f64, kind: EventKind) {
        let ev = self.stamp(time, kind);
        self.insert(ev);
    }

    /// Schedule an event that is likely the next to pop: it waits in the
    /// slot, and an event already waiting there moves to the queue.
    fn defer(&mut self, time: f64, kind: EventKind) {
        let ev = self.stamp(time, kind);
        if let Some(earlier) = self.slot.replace(ev) {
            self.insert(earlier);
        }
    }

    /// Put `ev` after every event that orders before it. Most events
    /// order before every pending one (a woken waiter, an executor's
    /// resume displaced from the slot) or after all of them (a late
    /// completion): those go on an end without a search.
    fn insert(&mut self, ev: Event) {
        match (self.sorted.front(), self.sorted.back()) {
            (Some(first), _) if ev < *first => self.sorted.push_front(ev),
            (_, Some(last)) if *last > ev => {
                let at = self.sorted.partition_point(|e| *e < ev);
                self.sorted.insert(at, ev);
            }
            _ => self.sorted.push_back(ev),
        }
    }

    /// Remove the earliest event.
    fn pop(&mut self) -> Option<Event> {
        match (&self.slot, self.sorted.front()) {
            (Some(slot), Some(front)) if front < slot => self.sorted.pop_front(),
            (Some(_), _) => self.slot.take(),
            (None, _) => self.sorted.pop_front(),
        }
    }
}

/// Element count of a shared region (every stage), `None` on overflow.
fn smem_len(d: &SmemDecl) -> Option<usize> {
    d.rows.checked_mul(d.cols)?.checked_mul(d.stages)
}

/// Element count of a fragment, `None` on overflow.
fn frag_len(f: &FragDecl) -> Option<usize> {
    f.rows.checked_mul(f.cols)
}

/// Per-CTA shared-memory and fragment buffers, keyed by length. A CTA
/// re-zeroes one an earlier CTA retired, or an earlier run parked,
/// instead of page-faulting a fresh one; the zero fill is part of the
/// functional model (a read before any write sees 0), so a reused buffer
/// starts exactly as a fresh one does.
#[derive(Default)]
pub(crate) struct Buffers(HashMap<usize, Vec<Vec<f32>>>);

impl Buffers {
    /// Keep `buf` for a later [`Buffers::zeroed`] of its length.
    pub(crate) fn give(&mut self, buf: Vec<f32>) {
        self.0.entry(buf.len()).or_default().push(buf);
    }

    /// A zeroed buffer of `n` elements, reusing a spare one if any.
    pub(crate) fn zeroed(&mut self, n: usize) -> Vec<f32> {
        match self.0.get_mut(&n).and_then(Vec::pop) {
            Some(mut buf) => {
                buf.fill(0.0);
                buf
            }
            None => vec![0.0; n],
        }
    }

    /// Total elements held (the size two sets compare by).
    fn elements(&self) -> usize {
        self.0.iter().map(|(n, bufs)| n * bufs.len()).sum()
    }
}

/// What a simulator keeps between functional runs: at most one run's
/// spare buffers, and which kernels have run.
#[derive(Default)]
pub(crate) struct Workspace {
    /// Bytecode shape hashes of the kernels that ran functionally here.
    /// Only a kernel seen before parks its buffers: a kernel that runs
    /// once would leave them resident through whatever the caller does
    /// next (a compile, a host oracle) for no run to reuse.
    seen: HashSet<u64>,
    parked: Buffers,
}

impl Workspace {
    /// Park `own` as one run's set, replacing what is parked unless
    /// that is larger.
    fn park(workspace: &Mutex<Workspace>, own: Buffers) {
        let mut ws = lock(workspace);
        if own.elements() >= ws.parked.elements() {
            ws.parked = own;
        }
    }
}

/// Lock a workspace; a poisoned lock still guards whole buffers.
fn lock(m: &Mutex<Workspace>) -> MutexGuard<'_, Workspace> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) struct Engine<'k> {
    kernel: &'k Kernel,
    machine: &'k MachineConfig,
    /// The kernel's bytecode: the one instruction stream the engine
    /// executes.
    program: &'k Program,
    /// Scratch registers of the bytecode index machine. Preludes run to
    /// completion inside one resolve, so a single buffer serves every
    /// executor.
    idx_regs: Vec<i64>,
    queue: EventQueue,
    now: f64,
    event_count: u64,
    /// The run stops at the first event past this time (see "Bounded
    /// runs" in the module header): the cutoff, or `-∞` once a CTA
    /// launch has proven `proven` above it.
    stop_after: f64,
    /// The largest lower bound on the run's cycles a CTA launch proved
    /// above the cutoff (`0.0` until one does).
    proven: f64,
    /// One CTA's busiest-unit proven work, in cycles: the per-CTA term
    /// of [`timing_floor`] (`0.0` in functional mode, and for a kernel
    /// whose trip counts read the block index).
    cta_floor: f64,
    // Per-SM units.
    tma_unit: Fluid,
    cp_unit: Fluid,
    tc_unit: Fluid,
    simt_unit: Fluid,
    sfu_unit: Fluid,
    smem_unit: Fluid,
    // Device-wide shares.
    l2: Fluid,
    hbm: Fluid,
    l2_hit: f64,
    ctas: Vec<CtaState>,
    execs: Vec<Exec<'k>>,
    next_cta: u32,
    n_sim: u32,
    window: usize,
    running: usize,
    finished: usize,
    active_sms: usize,
    ctas_per_sm: usize,
    data: Option<FuncData>,
    /// Buffers this functional run re-zeroes instead of allocating: the
    /// set parked before it (see [`Engine::recycle_through`]) and those
    /// of the CTAs it has retired.
    spare: Buffers,
    /// Where this run parks `spare` when it finishes (`None` for a
    /// timing run and for a kernel's first functional run on its
    /// simulator).
    parked: Option<&'k Mutex<Workspace>>,
    /// Reusable staging buffers of the fast functional data path.
    scratch: Scratch,
    /// Per-dtype bytes touched by functional applies (always zero in
    /// timing mode, where no data moves).
    apply_bytes: ApplyBytes,
    /// Route functional applies through the retained scalar reference
    /// interpreter (see [`apply::scalar`]) instead of the fast
    /// resolved-view path: the bitwise oracle of the tests.
    #[cfg(feature = "scalar-oracle")]
    scalar: bool,
}

impl<'k> Engine<'k> {
    pub(crate) fn new(
        kernel: &'k Kernel,
        machine: &'k MachineConfig,
        params: Option<Vec<Tensor>>,
        program: &'k Program,
    ) -> Result<Self, SimError> {
        // Lowering checked the structure; what is left is whether the
        // machine can host a CTA, and that `program` is `kernel`'s.
        kernel.validate(machine)?;
        if program.shape_hash != bytecode::kernel_shape_hash(kernel) {
            return Err(SimError::Internal {
                what: format!(
                    "bytecode program was lowered from a different kernel than `{}`",
                    kernel.name
                ),
            });
        }
        if let Some(p) = &params {
            if p.len() != kernel.params.len() {
                return Err(SimError::ParamCountMismatch {
                    expected: kernel.params.len(),
                    actual: p.len(),
                });
            }
            for (i, (t, d)) in p.iter().zip(kernel.params.iter()).enumerate() {
                let expected = d
                    .rows
                    .checked_mul(d.cols)
                    .ok_or_else(|| SimError::Internal {
                        what: format!("parameter `{}` element count overflows usize", d.name),
                    })?;
                if t.num_elements() != expected {
                    return Err(SimError::ParamShapeMismatch {
                        index: i,
                        expected,
                        actual: t.num_elements(),
                    });
                }
            }
        }

        let num_ctas = program.ctas;
        let active_sms = num_ctas.min(machine.sms).max(1);
        let ctas_per_sm = occupancy(kernel, machine);
        // A functional run moves data through all CTAs one at a time; a
        // timing run simulates the busiest SM's share of them.
        let (n_sim, window, floor) = match params {
            Some(_) => (num_ctas, 1, None),
            None => (
                num_ctas.div_ceil(active_sms),
                ctas_per_sm,
                floor_work(machine, program, active_sms),
            ),
        };
        let n_sim = bytecode::index32(n_sim, "simulated CTA count")?;

        let cta_floor = floor.map_or(0.0, |work| {
            work.into_iter()
                .map(|(work, rate)| work / rate)
                .fold(0.0, f64::max)
        });
        let share = active_sms as f64;
        let data = params.map(|params| FuncData {
            params,
            smem: Vec::new(),
            frags: Vec::new(),
        });

        Ok(Engine {
            kernel,
            machine,
            program,
            idx_regs: vec![0i64; program.num_regs],
            queue: EventQueue::default(),
            now: machine.kernel_launch_cycles,
            event_count: 0,
            stop_after: f64::INFINITY,
            proven: 0.0,
            cta_floor,
            tma_unit: Fluid::new(machine.tma_bytes_per_cycle_per_sm),
            cp_unit: Fluid::new(machine.cp_async_bytes_per_cycle_per_sm),
            tc_unit: Fluid::new(machine.tc_flops_per_cycle_per_sm),
            simt_unit: Fluid::new(machine.simt_flops_per_cycle_per_sm),
            sfu_unit: Fluid::new(machine.sfu_ops_per_cycle_per_sm),
            smem_unit: Fluid::new(machine.smem_bytes_per_cycle_per_sm),
            l2: Fluid::new(machine.l2_bytes_per_cycle / share),
            hbm: Fluid::new(machine.hbm_bytes_per_cycle / share),
            l2_hit: program.l2_hit,
            ctas: Vec::new(),
            execs: Vec::new(),
            next_cta: 0,
            n_sim,
            window,
            running: 0,
            finished: 0,
            active_sms,
            ctas_per_sm,
            data,
            spare: Buffers::default(),
            parked: None,
            scratch: Scratch::default(),
            apply_bytes: ApplyBytes::default(),
            #[cfg(feature = "scalar-oracle")]
            scalar: false,
        })
    }

    /// Route all functional applies through the scalar reference
    /// interpreter (the pre-optimization data path).
    #[cfg(feature = "scalar-oracle")]
    pub(crate) fn set_scalar(&mut self) {
        self.scalar = true;
    }

    /// Recycle this functional run's per-CTA buffers through
    /// `workspace`: take the set parked there, drop every buffer no
    /// declaration of this kernel can use before anything is allocated,
    /// and, if this kernel ran here before, park the run's spare set when
    /// it finishes (if it is at least as large as what is parked then).
    /// A timing run moves no data and leaves `workspace` alone.
    pub(crate) fn recycle_through(&mut self, workspace: &'k Mutex<Workspace>) {
        if self.data.is_none() {
            return;
        }
        let kernel = self.kernel;
        let (repeat, mut spare) = {
            let mut ws = lock(workspace);
            let repeat = !ws.seen.insert(self.program.shape_hash);
            (repeat, std::mem::take(&mut ws.parked))
        };
        spare.0.retain(|&n, _| {
            kernel.smem.iter().any(|d| smem_len(d) == Some(n))
                || kernel.frags.iter().any(|f| frag_len(f) == Some(n))
        });
        self.spare = spare;
        self.parked = repeat.then_some(workspace);
    }

    fn launch_next_cta(&mut self, at: f64) {
        let idx = self.next_cta;
        self.next_cta += 1;
        self.running += 1;
        let start = at + self.machine.cta_launch_cycles;
        // This CTA and every later one start at `start` or after (see
        // "Bounded runs" in the module header).
        let unlaunched = f64::from(self.n_sim - idx);
        let bound = (start + unlaunched * self.cta_floor) * (1.0 - FLOOR_SLACK);
        if bound > self.stop_after {
            self.proven = self.proven.max(bound);
            self.stop_after = f64::NEG_INFINITY;
        }
        self.queue.push(start, EventKind::StartCta(idx));
    }

    fn block_of(&self, linear: usize) -> [i64; 3] {
        let [gx, gy, _] = self.kernel.grid;
        [
            (linear % gx) as i64,
            ((linear / gx) % gy) as i64,
            (linear / (gx * gy)) as i64,
        ]
    }

    fn start_cta(&mut self, linear: usize) -> Result<(), SimError> {
        let block = self.block_of(linear);
        let cta_idx = self.ctas.len();
        self.ctas.push(CtaState {
            mbars: self
                .kernel
                .mbars
                .iter()
                .map(|_| MbarState::default())
                .collect(),
            named: Vec::new(),
            cta_wide: NamedState::default(),
            roles_done: 0,
            in_flight: 0,
        });
        if self.data.is_some() {
            let kernel = self.kernel;
            let spare = &mut self.spare;
            let smem = kernel
                .smem
                .iter()
                .map(|d| {
                    let n = smem_len(d).ok_or_else(|| SimError::Internal {
                        what: format!("shared region `{}` element count overflows usize", d.name),
                    })?;
                    Ok(spare.zeroed(n))
                })
                .collect::<Result<Vec<_>, SimError>>()?;
            let frags = kernel
                .roles
                .iter()
                .map(|r| match r.kind {
                    RoleKind::Dma => Ok(Vec::new()),
                    RoleKind::Compute(_) => kernel
                        .frags
                        .iter()
                        .map(|f| {
                            let n = frag_len(f).ok_or_else(|| SimError::Internal {
                                what: format!(
                                    "fragment `{}` element count overflows usize",
                                    f.name
                                ),
                            })?;
                            Ok(spare.zeroed(n))
                        })
                        .collect::<Result<Vec<_>, SimError>>(),
                })
                .collect::<Result<Vec<_>, SimError>>()?;
            if let Some(data) = &mut self.data {
                data.smem.push(smem);
                data.frags.push(frags);
            }
        }
        for role in 0..self.kernel.roles.len() {
            let id = bytecode::index32(self.execs.len(), "executor index")?;
            self.execs.push(Exec {
                id,
                cta: cta_idx,
                role,
                pc: 0,
                env: Env::for_block(block),
                loops: Vec::new(),
                bar_tokens: vec![0; self.kernel.mbars.len()],
                outstanding_wgmma: 0,
                outstanding_stores: 0,
                blocked: None,
                pending: None,
                done: false,
            });
            self.queue.push(self.now, EventKind::Resume(id));
        }
        Ok(())
    }

    /// Run a timing run to completion, or stop once it is proven to end
    /// past `cutoff` and return `Err(bound)`, where `cutoff < bound <=`
    /// the cycles the whole run reports (see "Bounded runs" in the
    /// module header). A run that ends at or before `cutoff` is bit for
    /// bit the whole run.
    pub(crate) fn run(mut self, cutoff: f64) -> Result<Result<TimingReport, f64>, SimError> {
        Ok(self.simulate(cutoff)?.map(|()| self.report()))
    }

    /// Run a functional run to completion: its tensors, event count and
    /// apply bytes. It builds no report.
    pub(crate) fn run_functional(mut self) -> Result<FunctionalRun, SimError> {
        self.run_to_end()?;
        let data = self.data.ok_or_else(|| SimError::Internal {
            what: "a functional run holds no parameter tensors".into(),
        })?;
        // Every CTA retired with nothing in flight, so every per-CTA
        // buffer is in `spare` now.
        if let Some(parked) = self.parked {
            Workspace::park(parked, self.spare);
        }
        Ok(FunctionalRun {
            params: data.params,
            events: self.event_count,
            apply_bytes: self.apply_bytes,
        })
    }

    /// Run to completion: [`Engine::simulate`] without a cutoff.
    pub(crate) fn run_to_end(&mut self) -> Result<(), SimError> {
        self.simulate(f64::INFINITY)?
            .map_err(|bound| SimError::Internal {
                what: format!("a run without a cutoff stopped at a bound of {bound} cycles"),
            })
    }

    /// Process events until none is pending, or until the run is proven
    /// to end past `cutoff` (`Err(bound)`, see [`Engine::run`]).
    fn simulate(&mut self, cutoff: f64) -> Result<Result<(), f64>, SimError> {
        self.stop_after = cutoff;
        let first = self.window.min(self.n_sim as usize);
        for _ in 0..first {
            self.launch_next_cta(self.now);
        }
        while let Some(ev) = self.queue.pop() {
            self.event_count += 1;
            if self.event_count > EVENT_LIMIT {
                return Err(SimError::EventLimit);
            }
            debug_assert!(ev.time >= self.now - 1e-9);
            self.now = self.now.max(ev.time);
            if self.now > self.stop_after {
                return Ok(Err(self.proven.max(self.now)));
            }
            match ev.kind {
                EventKind::StartCta(linear) => self.start_cta(linear as usize)?,
                EventKind::Resume(exec) => self.resume(exec as usize)?,
                EventKind::TmaDone {
                    exec,
                    bar,
                    copy,
                    is_store,
                } => {
                    let exec = exec as usize;
                    if let Some(copy) = copy {
                        let (src, dst) = &*copy;
                        self.apply(exec, Apply::Copy { src, dst })?;
                    }
                    let cta = self.execs[exec].cta;
                    if let Some(bar) = bar {
                        self.mbar_arrive(cta, bar as usize);
                    }
                    if is_store {
                        self.execs[exec].outstanding_stores -= 1;
                        if self.execs[exec].blocked == Some(Blocked::Stores)
                            && self.execs[exec].outstanding_stores == 0
                        {
                            self.execs[exec].satisfy(&mut self.queue, Work::Advance, self.now);
                        }
                    }
                    self.landed(cta);
                }
                EventKind::WgmmaDone { exec, mma } => {
                    let exec = exec as usize;
                    if let Some(mma) = mma {
                        self.apply(exec, Apply::Wgmma(&mma))?;
                    }
                    self.execs[exec].outstanding_wgmma -= 1;
                    if let Some(Blocked::Wgmma(pending)) = self.execs[exec].blocked {
                        if self.execs[exec].outstanding_wgmma <= pending {
                            self.execs[exec].satisfy(&mut self.queue, Work::Advance, self.now);
                        }
                    }
                    self.landed(self.execs[exec].cta);
                }
            }
        }
        if self.finished < self.n_sim as usize {
            return Err(SimError::Deadlock {
                blocked: self.describe_blocked(),
            });
        }
        Ok(Ok(()))
    }

    /// The report of a finished timing run.
    pub(crate) fn report(&self) -> TimingReport {
        let makespan = self.now;
        let totals = self.program.totals;
        let n = self.program.ctas as f64;
        let seconds = self.machine.cycles_to_seconds(makespan);
        let tc_flops = totals.tc_flops * n;
        let simt_flops = totals.simt_flops * n;
        TimingReport {
            kernel: self.kernel.name.clone(),
            cycles: makespan,
            seconds,
            tc_flops,
            simt_flops,
            achieved_tflops: (tc_flops + simt_flops) / seconds / 1e12,
            tc_utilization: (self.tc_unit.busy / makespan).min(1.0),
            tma_utilization: ((self.tma_unit.busy + self.cp_unit.busy) / makespan).min(1.0),
            simt_utilization: (self.simt_unit.busy / makespan).min(1.0),
            ctas: self.program.ctas,
            simulated_ctas: self.n_sim as usize,
            active_sms: self.active_sms,
            ctas_per_sm: self.ctas_per_sm,
            load_bytes: totals.load_bytes() * n,
            store_bytes: totals.store_bytes * n,
            l2_hit: self.l2_hit,
            events: self.event_count,
        }
    }

    /// A copy or WGMMA of `cta` retired (and, in a functional run, was
    /// applied).
    fn landed(&mut self, cta: usize) {
        self.ctas[cta].in_flight -= 1;
        self.release_if_idle(cta);
    }

    /// Once `cta` has retired and nothing it issued is in flight, nothing
    /// reads or writes its shared memory or fragments again: a
    /// functional run hands them to `spare`, where the next CTA to start
    /// re-zeroes them.
    fn release_if_idle(&mut self, cta: usize) {
        let state = &self.ctas[cta];
        if state.in_flight > 0 || state.roles_done < self.kernel.roles.len() {
            return;
        }
        if let Some(data) = &mut self.data {
            let smem = std::mem::take(&mut data.smem[cta]);
            let frags = std::mem::take(&mut data.frags[cta]);
            for buf in smem.into_iter().chain(frags.into_iter().flatten()) {
                self.spare.give(buf);
            }
        }
    }

    fn describe_blocked(&self) -> Vec<String> {
        self.execs
            .iter()
            .filter(|e| !e.done)
            .map(|e| {
                let role = self.kernel.roles[e.role].kind;
                let why = match e.blocked {
                    Some(Blocked::Mbar(b)) => format!("waiting mbar {b}"),
                    Some(Blocked::Wgmma(p)) => format!("waiting wgmma<= {p}"),
                    Some(Blocked::Stores) => "waiting tma stores".into(),
                    Some(Blocked::Barrier(Barrier::Named(id))) => {
                        format!("waiting named barrier {id}")
                    }
                    Some(Blocked::Barrier(Barrier::Cta)) => "waiting syncthreads".into(),
                    None => "runnable (engine bug)".into(),
                };
                format!("cta{}/{} pc={} {}", e.cta, role, e.pc, why)
            })
            .collect()
    }

    fn mbar_arrive(&mut self, cta: usize, bar: usize) {
        let expected = self.kernel.mbars[bar].expected;
        let st = &mut self.ctas[cta].mbars[bar];
        st.arrived += 1;
        if st.arrived >= expected {
            st.arrived = 0;
            st.phases += 1;
            let wake = self.now + self.machine.barrier_cycles;
            // Drained, not taken: the list keeps its capacity for the
            // next phase's waiters.
            for w in st.waiters.drain(..) {
                self.execs[w].satisfy(&mut self.queue, Work::ConsumeMbar(bar), wake);
            }
        }
    }

    /// Resume an executor: retire any pending work, then step through
    /// control flow and execute until the next timed/blocking point.
    fn resume(&mut self, exec_id: usize) -> Result<(), SimError> {
        if let Some(work) = self.execs[exec_id].pending.take() {
            match work {
                Work::Advance => {}
                Work::ConsumeMbar(bar) => {
                    self.execs[exec_id].bar_tokens[bar] += 1;
                }
                Work::Simt(work) => {
                    let (op, (srcs, dst)) = (work.op, work.operands.simt());
                    self.apply(exec_id, Apply::Simt { op, srcs, dst })?;
                }
            }
            self.execs[exec_id].pc += 1;
        }
        // Copy the `'k` reference out of `self`, so matching on an
        // instruction does not hold a borrow of the engine.
        let program = self.program;
        loop {
            let e = &self.execs[exec_id];
            if e.done {
                return Ok(());
            }
            match &program.roles[e.role][e.pc] {
                // Retire the role, and when it was the CTA's last, the CTA,
                // launching the next one in line.
                BcInstr::End => {
                    let cta = e.cta;
                    self.execs[exec_id].done = true;
                    self.ctas[cta].roles_done += 1;
                    if self.ctas[cta].roles_done == self.kernel.roles.len() {
                        self.finished += 1;
                        self.running -= 1;
                        self.release_if_idle(cta);
                        if self.next_cta < self.n_sim && self.running < self.window {
                            self.launch_next_cta(self.now);
                        }
                    }
                    return Ok(());
                }
                BcInstr::Jump(t) => {
                    self.execs[exec_id].pc = *t;
                }
                BcInstr::Branch { cond, else_target } => {
                    let taken =
                        bytecode::eval_cond(&mut self.idx_regs, &self.execs[exec_id].env, cond)
                            .map_err(|e| self.eval_err(exec_id, e))?;
                    let e = &mut self.execs[exec_id];
                    e.pc = if taken { e.pc + 1 } else { *else_target };
                }
                BcInstr::LoopStart { var, count, end } => {
                    let trips =
                        bytecode::eval_sval(&mut self.idx_regs, &self.execs[exec_id].env, count)
                            .map_err(|e| self.eval_err(exec_id, e))?;
                    // A loop of no trips is skipped entirely.
                    let e = &mut self.execs[exec_id];
                    if trips <= 0 {
                        e.pc = *end;
                    } else {
                        let (var, body) = (*var, e.pc + 1);
                        e.loops.push(LoopCtx {
                            var,
                            iter: 0,
                            trips,
                            body,
                        });
                        e.env.bind(var, 0);
                        e.pc = body;
                    }
                }
                // Start the next iteration or leave the loop.
                BcInstr::LoopEnd => {
                    let e = &mut self.execs[exec_id];
                    let ctx = e.loops.last_mut().ok_or_else(|| SimError::Internal {
                        what: "loop stack underflow at a loop back-edge".into(),
                    })?;
                    ctx.iter += 1;
                    if ctx.iter < ctx.trips {
                        let (var, iter, body) = (ctx.var, ctx.iter, ctx.body);
                        e.env.bind(var, iter);
                        e.pc = body;
                    } else {
                        let var = ctx.var;
                        e.loops.pop();
                        e.env.unbind(var);
                        e.pc += 1;
                    }
                }
                BcInstr::Op(op) => {
                    if self.execute(exec_id, op)? {
                        return Ok(());
                    }
                    // Instruction completed inline; pc already advanced.
                }
            }
        }
    }

    fn eval_err(&self, exec_id: usize, source: EvalError) -> SimError {
        let e = &self.execs[exec_id];
        SimError::Eval {
            source,
            context: format!(
                "cta{}/{} pc={}",
                e.cta, self.kernel.roles[e.role].kind, e.pc
            ),
        }
    }

    /// Execute one bytecode operation. Returns `true` if the executor
    /// yielded (scheduled a resume or blocked); `false` if it completed
    /// inline. Byte counts, flop counts, and SIMT costs come pre-computed
    /// from the [`Program`]; whether the run moves data decides only
    /// whether operands are built (see [`Engine::operands`]).
    fn execute(&mut self, exec_id: usize, op: &'k BcOp) -> Result<bool, SimError> {
        match op {
            BcOp::TmaLoad {
                operands,
                bar,
                bytes,
            } => {
                let copy = self.operands(exec_id, *operands)?.map(Resolved::copy);
                self.issue_load(exec_id, copy, *bar, *bytes, false);
                Ok(true)
            }
            BcOp::CpAsyncLoad {
                operands,
                bar,
                bytes,
            } => {
                let copy = self.operands(exec_id, *operands)?.map(Resolved::copy);
                self.issue_load(exec_id, copy, *bar, *bytes, true);
                Ok(true)
            }
            BcOp::TmaStore { operands, bytes } => {
                let copy = self.operands(exec_id, *operands)?.map(Resolved::copy);
                self.issue_tma_store(exec_id, copy, *bytes);
                Ok(true)
            }
            BcOp::TmaStoreWait => self.step_tma_store_wait(exec_id),
            BcOp::MbarArrive { bar } => self.step_mbar_arrive(exec_id, *bar),
            BcOp::MbarWait { bar } => self.step_mbar_wait(exec_id, *bar),
            BcOp::Wgmma {
                operands,
                accumulate,
                transpose_b,
                flops,
                smem_bytes,
            } => {
                let mma = self.operands(exec_id, *operands)?.map(|r| {
                    let [a, b, acc] = r.slices;
                    Box::new(MmaOperands {
                        a,
                        b,
                        acc,
                        accumulate: *accumulate,
                        transpose_b: *transpose_b,
                    })
                });
                self.issue_wgmma(exec_id, mma, *flops, *smem_bytes);
                Ok(true)
            }
            BcOp::WgmmaWait { pending } => self.step_wgmma_wait(exec_id, *pending),
            BcOp::Simt { op, operands, cost } => {
                let work = self
                    .operands(exec_id, *operands)?
                    .map_or(Work::Advance, |operands| {
                        Work::Simt(Box::new(SimtWork { op, operands }))
                    });
                let dur = self.simt_reserve(cost);
                self.retire_after(exec_id, dur, work);
                Ok(true)
            }
            &BcOp::NamedBarrier { id, parties } => {
                self.barrier(exec_id, Barrier::Named(id), parties)
            }
            BcOp::Syncthreads => {
                let parties = self.kernel.roles.len();
                self.barrier(exec_id, Barrier::Cta, parties)
            }
        }
    }

    fn barrier(
        &mut self,
        exec_id: usize,
        barrier: Barrier,
        parties: usize,
    ) -> Result<bool, SimError> {
        let cta = &mut self.ctas[self.execs[exec_id].cta];
        let st = match barrier {
            Barrier::Cta => &mut cta.cta_wide,
            Barrier::Named(id) => {
                let pos = match cta.named.iter().position(|(nid, _)| *nid == id) {
                    Some(p) => p,
                    None => {
                        cta.named.push((id, NamedState::default()));
                        cta.named.len() - 1
                    }
                };
                &mut cta.named[pos].1
            }
        };
        st.arrived += 1;
        if st.arrived >= parties {
            st.arrived = 0;
            let wake = self.now + self.machine.barrier_cycles;
            for w in st.waiters.drain(..) {
                self.execs[w].satisfy(&mut self.queue, Work::Advance, wake);
            }
            self.yield_for(exec_id, self.machine.barrier_cycles);
        } else {
            st.waiters.push(exec_id);
            self.execs[exec_id].blocked = Some(Blocked::Barrier(barrier));
        }
        Ok(true)
    }

    /// Schedule a plain advance after `cycles` of issue cost.
    fn yield_for(&mut self, exec_id: usize, cycles: f64) {
        self.retire_after(exec_id, cycles, Work::Advance);
    }

    /// Schedule the executor's own resume `cycles` from now, retiring
    /// `work` — usually the next event to pop, so it is deferred to the
    /// queue's slot.
    fn retire_after(&mut self, exec_id: usize, cycles: f64, work: Work<'k>) {
        let e = &mut self.execs[exec_id];
        e.pending = Some(work);
        self.queue.defer(self.now + cycles, EventKind::Resume(e.id));
    }

    /// `TmaLoad` / `CpAsyncLoad`: reserve the copy unit, L2 and HBM for
    /// the transfer, arrive `bar` on completion, and yield for the issue
    /// cost. A `cp.async` load's addresses are generated by SIMT threads,
    /// so its issue occupies the issuing role in proportion to the
    /// transfer size. `copy` is what a functional run applies when the
    /// transfer completes.
    fn issue_load(
        &mut self,
        exec_id: usize,
        copy: Option<Box<(RSlice, RSlice)>>,
        bar: u32,
        bytes: f64,
        cp_async: bool,
    ) {
        let m = self.machine;
        let (issue, t0, unit) = if cp_async {
            let issue = m.simt_issue_cycles + bytes / 512.0;
            (issue, self.now + issue, &mut self.cp_unit)
        } else {
            (
                m.tma_issue_cycles,
                self.now + m.tma_latency,
                &mut self.tma_unit,
            )
        };
        let a = unit.reserve(t0, bytes);
        let b = self.l2.reserve(t0, bytes);
        let c = self.hbm.reserve(t0, bytes * (1.0 - self.l2_hit));
        let done = a.max(b).max(c);
        self.ctas[self.execs[exec_id].cta].in_flight += 1;
        self.queue.push(
            done,
            EventKind::TmaDone {
                exec: self.execs[exec_id].id,
                bar: Some(bar),
                copy,
                is_store: false,
            },
        );
        self.yield_for(exec_id, issue);
    }

    /// `TmaStore`: stores write through L2 to HBM at full size.
    fn issue_tma_store(&mut self, exec_id: usize, copy: Option<Box<(RSlice, RSlice)>>, bytes: f64) {
        let m = self.machine;
        let t0 = self.now + m.tma_latency;
        let a = self.tma_unit.reserve(t0, bytes);
        let b = self.l2.reserve(t0, bytes);
        let c = self.hbm.reserve(t0, bytes);
        let done = a.max(b).max(c);
        self.execs[exec_id].outstanding_stores += 1;
        self.ctas[self.execs[exec_id].cta].in_flight += 1;
        self.queue.push(
            done,
            EventKind::TmaDone {
                exec: self.execs[exec_id].id,
                bar: None,
                copy,
                is_store: true,
            },
        );
        self.yield_for(exec_id, m.tma_issue_cycles);
    }

    /// `Wgmma`: reserve the Tensor Core for `flops` and the
    /// shared-memory port for the operands that stream from smem. `mma`
    /// is what a functional run applies when it retires.
    fn issue_wgmma(
        &mut self,
        exec_id: usize,
        mma: Option<Box<MmaOperands>>,
        flops: f64,
        smem_bytes: f64,
    ) {
        let m = self.machine;
        let t0 = self.now + m.wgmma_latency;
        let mut done = self.tc_unit.reserve(t0, flops);
        done = done.max(self.smem_unit.reserve(t0, smem_bytes));
        let e = &mut self.execs[exec_id];
        e.outstanding_wgmma += 1;
        self.ctas[e.cta].in_flight += 1;
        self.queue
            .push(done, EventKind::WgmmaDone { exec: e.id, mma });
        self.yield_for(exec_id, m.wgmma_issue_cycles);
    }

    /// Reserve the units a SIMT operation touches and return its
    /// duration.
    fn simt_reserve(&mut self, cost: &SimtCost) -> f64 {
        let m = self.machine;
        let t0 = self.now + m.simt_issue_cycles;
        let mut done = self.simt_unit.reserve(t0, cost.elems);
        if cost.sfu {
            done = done.max(self.sfu_unit.reserve(t0, cost.elems));
        }
        if cost.smem_bytes > 0.0 {
            done = done.max(self.smem_unit.reserve(t0, cost.smem_bytes));
        }
        if cost.gl_read + cost.gl_write > 0.0 {
            done = done.max(self.l2.reserve(t0, cost.gl_read + cost.gl_write));
            done = done.max(
                self.hbm
                    .reserve(t0, cost.gl_read * (1.0 - self.l2_hit) + cost.gl_write),
            );
        }
        done - self.now
    }

    /// `TmaStoreWait`: completes inline when no stores are outstanding.
    fn step_tma_store_wait(&mut self, exec_id: usize) -> Result<bool, SimError> {
        if self.execs[exec_id].outstanding_stores == 0 {
            self.execs[exec_id].pc += 1;
            Ok(false)
        } else {
            self.execs[exec_id].blocked = Some(Blocked::Stores);
            Ok(true)
        }
    }

    /// `MbarArrive`: signal the barrier, then yield the small issue cost.
    fn step_mbar_arrive(&mut self, exec_id: usize, bar: usize) -> Result<bool, SimError> {
        let cta = self.execs[exec_id].cta;
        self.mbar_arrive(cta, bar);
        self.yield_for(exec_id, 2.0);
        Ok(true)
    }

    /// `MbarWait`: consumes a ready phase inline, else parks the
    /// executor on the barrier's waiter list.
    fn step_mbar_wait(&mut self, exec_id: usize, bar: usize) -> Result<bool, SimError> {
        let cta = self.execs[exec_id].cta;
        if self.ctas[cta].mbars[bar].phases > self.execs[exec_id].bar_tokens[bar] {
            self.execs[exec_id].bar_tokens[bar] += 1;
            self.execs[exec_id].pc += 1;
            Ok(false)
        } else {
            self.ctas[cta].mbars[bar].waiters.push(exec_id);
            self.execs[exec_id].blocked = Some(Blocked::Mbar(bar));
            Ok(true)
        }
    }

    /// `WgmmaWait`: completes inline once outstanding MMAs have drained
    /// to the allowed depth.
    fn step_wgmma_wait(&mut self, exec_id: usize, pending: usize) -> Result<bool, SimError> {
        if self.execs[exec_id].outstanding_wgmma <= pending {
            self.execs[exec_id].pc += 1;
            Ok(false)
        } else {
            self.execs[exec_id].blocked = Some(Blocked::Wgmma(pending));
            Ok(true)
        }
    }

    /// The slices of an instruction's `operands`, resolved in operand
    /// order, when the run moves data (`None` when it does not). A timing
    /// run builds nothing of an instruction lowering proved in bounds
    /// ([`Operands::proven`]): it could not fail and would be dropped. Of
    /// any other instruction it resolves, and so evaluates and
    /// bounds-checks, every slice, failing exactly where a functional run
    /// fails.
    fn operands(
        &mut self,
        exec_id: usize,
        operands: Operands,
    ) -> Result<Option<Resolved>, SimError> {
        let moves = self.data.is_some();
        if operands.proven && !moves {
            return Ok(None);
        }
        let mut out = Resolved {
            slices: [NO_SLICE; MAX_OPERANDS],
            len: 0,
        };
        let program = self.program;
        for s in program.slices(operands) {
            out.slices[out.len] = match self.resolve(exec_id, s) {
                // A timing run would have skipped this resolve.
                Err(e) if operands.proven => {
                    return Err(SimError::Internal {
                        what: format!(
                            "bytecode lowering proved a {}x{} slice of {:?} in bounds, so a \
                             timing run skips resolving it, but the proof was wrong: {e}",
                            s.rows, s.cols, s.mem
                        ),
                    })
                }
                r => r?,
            };
            out.len += 1;
        }
        Ok(moves.then_some(out))
    }

    /// Resolve a lowered slice. One that lowering already resolved (see
    /// [`BcSlice::fixed`]) is returned as is; otherwise run the index
    /// prelude, read the origin scalars, and bounds-check against the
    /// extents baked in at lowering time.
    fn resolve(&mut self, exec_id: usize, s: &BcSlice) -> Result<RSlice, SimError> {
        if let Some(r) = s.fixed {
            return Ok(r);
        }
        let env = &self.execs[exec_id].env;
        let origin = bytecode::run_pre(&mut self.idx_regs, env, &s.pre).and_then(|()| {
            Ok((
                bytecode::read_scalar(&self.idx_regs, env, s.stage)?,
                bytecode::read_scalar(&self.idx_regs, env, s.row0)?,
                bytecode::read_scalar(&self.idx_regs, env, s.col0)?,
            ))
        });
        origin
            .map_err(|e| self.eval_err(exec_id, e))
            .and_then(|(stage, row0, col0)| s.at(stage, row0, col0))
    }

    /// Apply a retired copy, WGMMA or SIMT operation of `exec_id` to its
    /// CTA's data, and count the bytes it touches per element type. The
    /// work is [`Apply::run`]'s, each resolved slice a flat-buffer view
    /// and the operation bulk work over contiguous rows; under `scalar`
    /// (the `scalar-oracle` feature) the retained per-element reference
    /// interpreter runs instead, to bitwise-identical tensors. A timing
    /// run moves no data, so it applies and counts nothing.
    fn apply(&mut self, exec_id: usize, apply: Apply<'_>) -> Result<(), SimError> {
        let Some(data) = self.data.as_mut() else {
            return Ok(());
        };
        let e = &self.execs[exec_id];
        let at = At {
            kernel: self.kernel,
            cta: e.cta,
            role: e.role,
        };
        for s in apply.slices() {
            let dtype = at.dtype(s.mem);
            let bytes = (s.rows * s.cols * dtype.size_bytes()) as u64;
            self.apply_bytes.add(dtype, bytes);
        }
        #[cfg(feature = "scalar-oracle")]
        if self.scalar {
            return crate::apply::scalar::run(at, data, apply);
        }
        apply.run(at, data, &mut self.scratch)
    }
}

/// Relative slack under [`timing_floor`]'s unit time and a bounded run's
/// CTA-launch bound. The engine rounds
/// each reservation's service time and its sum into the unit's clock, two
/// roundings of at most 2⁻⁵³ of the makespan each, and a run makes fewer
/// reservations than its `EVENT_LIMIT` events, so a unit's clock trails
/// the exact sum of its work by less than `2 · EVENT_LIMIT · 2⁻⁵³`
/// ≈ 9e-8 of the makespan.
const FLOOR_SLACK: f64 = 1e-6;

/// A lower bound on the `cycles` a timing run of `program` reports, from
/// the engine's own inputs, all of them the program's. No unit starts
/// before the kernel launch and the first CTA's launch, and the busiest
/// SM runs `ceil(ctas / active_sms)` CTAs, each doing at least
/// [`floor_work`] on each unit. The bound is the launch plus the slowest
/// unit. A kernel whose trip counts read the block index gets the launch
/// alone.
pub(crate) fn timing_floor(machine: &MachineConfig, program: &Program) -> f64 {
    let launch = machine.kernel_launch_cycles + machine.cta_launch_cycles;
    let active_sms = program.ctas.min(machine.sms).max(1);
    let Some(work) = floor_work(machine, program, active_sms) else {
        return launch;
    };
    let ctas = program.ctas.div_ceil(active_sms) as f64;
    let busiest = work
        .into_iter()
        .map(|(work, rate)| ctas * work / rate)
        .fold(0.0, f64::max);
    launch + busiest * (1.0 - FLOOR_SLACK)
}

/// Each unit's `(work, rate)` for one CTA on an SM of `active_sms`, from
/// the program's floor totals (`None` when it has none): its Tensor Core
/// FLOPs, TMA bytes (loads and stores) and `cp.async` bytes over that
/// unit's rate, and its HBM bytes (loads past the program's L2 hit rate,
/// and stores) over the SM's share of HBM bandwidth. Every CTA reserves
/// at least `work` on each unit.
fn floor_work(
    machine: &MachineConfig,
    program: &Program,
    active_sms: usize,
) -> Option<[(f64, f64); 4]> {
    let t = program.floor?;
    let hbm_bytes = t.load_bytes() * (1.0 - program.l2_hit) + t.store_bytes;
    Some([
        (t.tc_flops, machine.tc_flops_per_cycle_per_sm),
        (
            t.tma_load_bytes + t.store_bytes,
            machine.tma_bytes_per_cycle_per_sm,
        ),
        (t.cp_async_bytes, machine.cp_async_bytes_per_cycle_per_sm),
        (hbm_bytes, machine.hbm_bytes_per_cycle / active_sms as f64),
    ])
}

fn occupancy(kernel: &Kernel, machine: &MachineConfig) -> usize {
    let smem = kernel.smem_bytes();
    let smem_limit = machine
        .smem_per_sm
        .checked_div(smem)
        .unwrap_or(machine.max_ctas_per_sm);
    let threads = kernel.warps_per_cta() * 32;
    let regs = kernel.regs_per_thread() * threads;
    let reg_limit = machine
        .regs_per_sm
        .checked_div(regs)
        .unwrap_or(machine.max_ctas_per_sm);
    let warp_limit = machine.max_warps_per_sm / kernel.warps_per_cta().max(1);
    machine
        .max_ctas_per_sm
        .min(smem_limit)
        .min(reg_limit)
        .min(warp_limit)
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Expr, Instr, KernelBuilder, Simulator, Slice};
    use cypress_tensor::DType;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Two CTAs, each filling its fragment with `value` and storing it
    /// through an 8x8 shared region to its rows of `out`: leaves
    /// non-zero values in every per-CTA buffer it uses.
    fn dirtying_kernel(value: f32) -> Kernel {
        let mut b = KernelBuilder::new("dirty", [2, 1, 1]);
        let out = b.param("out", 16, 8, DType::F32);
        let s = b.smem("s", 8, 8, DType::F16, 1);
        let f = b.frag("f", 8, 8);
        let rows = Expr::block_x() * 8;
        b.role(
            RoleKind::Compute(0),
            vec![
                Instr::Simt(SimtOp::Fill {
                    dst: Slice::frag(f).extent(8, 8),
                    value,
                }),
                Instr::Simt(SimtOp::Copy {
                    src: Slice::frag(f).extent(8, 8),
                    dst: Slice::smem(s).extent(8, 8),
                }),
                Instr::Simt(SimtOp::Copy {
                    src: Slice::smem(s).extent(8, 8),
                    dst: Slice::param(out).at(rows, 0).extent(8, 8),
                }),
            ],
        );
        b.build()
    }

    /// Two CTAs that store a shared region and a fragment — the same
    /// element counts as [`dirtying_kernel`]'s, other shapes — before
    /// anything writes them: the model says both read 0.
    fn reading_kernel() -> Kernel {
        let mut b = KernelBuilder::new("read-before-write", [2, 1, 1]);
        let from_smem = b.param("from_smem", 8, 16, DType::F32);
        let from_frag = b.param("from_frag", 32, 4, DType::F32);
        let s = b.smem("s", 4, 16, DType::F16, 1);
        let f = b.frag("f", 16, 4);
        b.role(
            RoleKind::Compute(0),
            vec![
                Instr::Simt(SimtOp::Copy {
                    src: Slice::smem(s).extent(4, 16),
                    dst: Slice::param(from_smem)
                        .at(Expr::block_x() * 4, 0)
                        .extent(4, 16),
                }),
                Instr::Simt(SimtOp::Copy {
                    src: Slice::frag(f).extent(16, 4),
                    dst: Slice::param(from_frag)
                        .at(Expr::block_x() * 16, 0)
                        .extent(16, 4),
                }),
            ],
        );
        b.build()
    }

    fn bits(params: &[Tensor]) -> Vec<Vec<u32>> {
        params
            .iter()
            .map(|t| t.data().iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    #[test]
    fn recycled_buffers_read_as_fresh_zeroed_ones() {
        let reader = reading_kernel();
        let inputs = || {
            vec![
                Tensor::full(DType::F32, &[8, 16], 1.0),
                Tensor::full(DType::F32, &[32, 4], 1.0),
            ]
        };
        let fresh = Simulator::new(MachineConfig::test_gpu())
            .run_functional(&reader, inputs())
            .unwrap();
        assert!(fresh
            .params
            .iter()
            .all(|t| t.data().iter().all(|&x| x == 0.0)));

        // The second run of the dirtying kernel parks its buffers: one
        // CTA's set, which its second CTA re-zeroed and dirtied again.
        let sim = Simulator::new(MachineConfig::test_gpu());
        let dirtying = dirtying_kernel(7.5);
        for _ in 0..2 {
            let dirty = sim
                .run_functional(&dirtying, vec![Tensor::zeros(DType::F32, &[16, 8])])
                .unwrap();
            assert!(dirty.params[0].data().iter().all(|&x| x == 7.5));
        }
        let ws = lock(&sim.workspace);
        assert_eq!(ws.parked.0[&64].len(), 2, "one CTA's buffers parked");
        assert!(ws.parked.0[&64].iter().flatten().all(|&x| x == 7.5));
        drop(ws);
        let reused = sim.run_functional(&reader, inputs()).unwrap();
        assert_eq!(bits(&reused.params), bits(&fresh.params));
        assert_eq!(reused.events, fresh.events);
    }

    #[test]
    fn only_a_repeated_kernel_parks_and_a_run_drops_what_it_cannot_use() {
        let sim = Simulator::new(MachineConfig::test_gpu());
        let dirty = dirtying_kernel(1.0);
        let run_dirty = || {
            sim.run_functional(&dirty, vec![Tensor::zeros(DType::F32, &[16, 8])])
                .unwrap();
        };
        run_dirty();
        assert_eq!(lock(&sim.workspace).parked.elements(), 0, "first run");
        run_dirty();
        assert_eq!(lock(&sim.workspace).parked.elements(), 2 * 64);
        let mut b = KernelBuilder::new("other-lengths", [1, 1, 1]);
        let out = b.param("out", 4, 4, DType::F32);
        let f = b.frag("f", 4, 4);
        b.role(
            RoleKind::Compute(0),
            vec![Instr::Simt(SimtOp::Copy {
                src: Slice::frag(f).extent(4, 4),
                dst: Slice::param(out).extent(4, 4),
            })],
        );
        let other = b.build();
        let program = crate::bytecode::lower(&other).unwrap();
        let mut engine = Engine::new(
            &other,
            &sim.machine,
            Some(vec![Tensor::zeros(DType::F32, &[4, 4])]),
            &program,
        )
        .unwrap();
        engine.recycle_through(&sim.workspace);
        assert!(
            engine.spare.0.is_empty(),
            "no 64-element buffer fits `other`"
        );
        assert_eq!(
            lock(&sim.workspace).parked.elements(),
            0,
            "the run took the parked set"
        );

        // Timing runs leave the parked set alone.
        run_dirty();
        sim.run_timing(&other).unwrap();
        assert_eq!(lock(&sim.workspace).parked.elements(), 2 * 64);
    }

    #[test]
    fn fluid_serializes() {
        let mut f = Fluid::new(2.0);
        let t1 = f.reserve(0.0, 4.0); // completes at 2
        let t2 = f.reserve(0.0, 4.0); // queued behind: completes at 4
        assert_eq!(t1, 2.0);
        assert_eq!(t2, 4.0);
        let t3 = f.reserve(10.0, 2.0); // idle gap, starts at 10
        assert_eq!(t3, 11.0);
        assert_eq!(f.busy, 5.0);
    }

    #[test]
    fn event_ordering_by_time_then_seq() {
        let a = Event {
            time: 1.0,
            seq: 2,
            kind: EventKind::Resume(0),
        };
        let b = Event {
            time: 1.0,
            seq: 1,
            kind: EventKind::Resume(1),
        };
        let c = Event {
            time: 0.5,
            seq: 9,
            kind: EventKind::Resume(2),
        };
        let mut heap = BinaryHeap::new();
        heap.push(Reverse(a));
        heap.push(Reverse(b));
        heap.push(Reverse(c));
        let order: Vec<u64> = std::iter::from_fn(|| heap.pop().map(|Reverse(e)| e.seq)).collect();
        assert_eq!(order, vec![9, 1, 2]);
    }

    /// The slot + heap against one plain heap that receives the same
    /// events with the same stamps.
    #[derive(Default)]
    struct Pair {
        queue: EventQueue,
        plain: BinaryHeap<Reverse<Event>>,
        seq: u64,
    }

    impl Pair {
        fn schedule(&mut self, time: f64, defer: bool) {
            self.seq += 1;
            self.plain.push(Reverse(Event {
                time,
                seq: self.seq,
                kind: EventKind::Resume(0),
            }));
            if defer {
                self.queue.defer(time, EventKind::Resume(0));
            } else {
                self.queue.push(time, EventKind::Resume(0));
            }
        }

        /// Pop both and return the common `(time bits, seq)`.
        fn pop(&mut self) -> Option<(u64, u64)> {
            let key = |e: Event| (e.time.to_bits(), e.seq);
            let got = self.queue.pop().map(key);
            let want = self.plain.pop().map(|Reverse(e)| key(e));
            assert_eq!(got, want, "after {} scheduled events", self.seq);
            got
        }
    }

    #[test]
    fn slot_and_heap_pop_in_plain_heap_order() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        // The cases the slot must get right, spelled out: a deferred
        // event that ties in time with an earlier (lower-`seq`) heap
        // event pops second, and a slot replaced while occupied loses
        // nothing.
        let mut p = Pair::default();
        p.schedule(2.0, false);
        p.schedule(2.0, true);
        p.schedule(1.0, true);
        p.schedule(3.0, true);
        let order: Vec<_> = std::iter::from_fn(|| p.pop()).map(|(_, seq)| seq).collect();
        assert_eq!(order, vec![3, 1, 2, 4]);

        // Random interleavings; times come from a few half-cycle steps
        // ahead of the last pop, so equal times are the norm, and pops
        // are as frequent as schedules, so the queue stays as short as
        // the engine's (and is often just the slot, or empty).
        let mut rng = StdRng::seed_from_u64(15);
        let mut p = Pair::default();
        let mut now = 0.0;
        for _ in 0..50_000 {
            let time = now + 0.5 * f64::from(rng.gen_range(0..4u32));
            match rng.gen_range(0..8u32) {
                0 | 1 => p.schedule(time, false),
                2 | 3 => p.schedule(time, true),
                _ => {
                    if let Some((bits, _)) = p.pop() {
                        now = f64::from_bits(bits);
                    }
                }
            }
        }
        while p.pop().is_some() {}
        assert!(p.queue.slot.is_none() && p.queue.sorted.is_empty());

        // Deep: thousands pending, with bursts of same-time pushes. Schedules outnumber pops, so the queue grows, and
        // times spread wider, so most inserts land mid-queue.
        let mut p = Pair::default();
        let mut now = 0.0;
        let mut deepest = 0;
        for _ in 0..8 {
            let burst = now + 1.0;
            for _ in 0..1_024 {
                p.schedule(burst, false);
            }
            for _ in 0..4_000 {
                let time = now + 0.5 * f64::from(rng.gen_range(0..64u32));
                match rng.gen_range(0..8u32) {
                    0..=2 => p.schedule(time, false),
                    3 => p.schedule(time, true),
                    4 | 5 => {
                        if let Some((bits, _)) = p.pop() {
                            now = f64::from_bits(bits);
                        }
                    }
                    _ => p.schedule(now, false),
                }
                deepest = deepest.max(p.queue.sorted.len());
            }
        }
        assert!(deepest > 5_000, "the queue reached {deepest} events");
        while p.pop().is_some() {}
        assert!(p.queue.slot.is_none() && p.queue.sorted.is_empty());
    }

    /// `Syncthreads` waits at a barrier of its own: no named-barrier id,
    /// `usize::MAX` included, reaches it. `wg0` waits at `Syncthreads`
    /// first; `wg1` stages a tile, passes a one-party named barrier with
    /// that id, and then meets `wg0`. Were the two one barrier, `wg1`'s
    /// named barrier would release `wg0` and its `Syncthreads` would wait
    /// alone: a deadlock.
    #[test]
    fn no_named_barrier_id_reaches_syncthreads() {
        let mut b = KernelBuilder::new("barriers", [1, 1, 1]);
        let out = b.param("out", 8, 8, DType::F32);
        let s = b.smem("s", 8, 8, DType::F32, 1);
        let f = b.frag("f", 8, 8);
        let tile = |mem: Slice| mem.extent(8, 8);
        b.role(
            RoleKind::Compute(0),
            vec![
                Instr::Syncthreads,
                Instr::Simt(SimtOp::Copy {
                    src: tile(Slice::smem(s)),
                    dst: tile(Slice::param(out)),
                }),
            ],
        );
        b.role(
            RoleKind::Compute(1),
            vec![
                Instr::Simt(SimtOp::Fill {
                    dst: tile(Slice::frag(f)),
                    value: 2.0,
                }),
                Instr::Simt(SimtOp::Copy {
                    src: tile(Slice::frag(f)),
                    dst: tile(Slice::smem(s)),
                }),
                Instr::NamedBarrier {
                    id: usize::MAX,
                    parties: 1,
                },
                Instr::Syncthreads,
            ],
        );
        let kernel = b.build();
        let sim = Simulator::new(MachineConfig::test_gpu());
        let timing = sim.run_timing(&kernel).expect("timing run");
        let run = sim
            .run_functional(&kernel, vec![Tensor::zeros(DType::F32, &[8, 8])])
            .expect("functional run");
        assert!(run.params[0].data().iter().all(|&x| x == 2.0));
        assert_eq!(timing.events, run.events);
    }
}
