//! A program's memoized identity is sound: it is structural (rebuilds
//! hit the cache), target-free (one program under two sessions with
//! different machines gets different fingerprints),
//! the persisted halves keep their recorded values, and memoizing it
//! changes nothing a launch reports — a warm launch still performs one
//! kernel-cache lookup per node and records the same event stream.

use cypress_core::compile::{CompilerOptions, CypressCompiler};
use cypress_core::kernels::gemm;
use cypress_runtime::telemetry::TraceLog;
use cypress_runtime::tuner::{computation_fingerprint, machine_fingerprint};
use cypress_runtime::{
    Binding, FusionPolicy, PlacementPolicy, Program, SchedulePolicy, Session, TaskGraph,
};
use cypress_sim::MachineConfig;
use std::sync::Arc;

fn gemm_program(m: usize, n: usize, k: usize) -> Program {
    Program::from_parts(
        gemm::build(m, n, k, &MachineConfig::test_gpu()).unwrap(),
        "gemm",
    )
}

/// What `CypressCompiler::fingerprint` computes from the parts.
fn fingerprint_of_parts(machine: &MachineConfig, program: &Program) -> u64 {
    CypressCompiler::new(CompilerOptions {
        machine: machine.clone(),
        ..Default::default()
    })
    .fingerprint(
        &program.registry,
        &program.mapping,
        &program.entry,
        &program.args,
    )
}

/// One program, hashed once, compiled through sessions that differ in
/// machine: the memo holds nothing target-dependent, so every session
/// derives its own fingerprint and none hits another's kernel.
#[test]
fn one_program_under_different_targets_gets_different_fingerprints() {
    // A mapping built for the small machine also fits the large one.
    let program = gemm_program(128, 128, 64);
    let mut seen = Vec::new();
    for machine in [MachineConfig::test_gpu(), MachineConfig::h100_sxm5()] {
        let mut session = Session::new(machine.clone());
        let compiled = session.compile(&program).unwrap();
        assert_eq!(
            compiled.fingerprint,
            fingerprint_of_parts(&machine, &program)
        );
        assert!(
            !seen.contains(&compiled.fingerprint),
            "two targets share fingerprint {:#x}",
            compiled.fingerprint
        );
        seen.push(compiled.fingerprint);
        // Each session missed once: the program's memo carried no hit
        // over from the session before.
        let stats = session.metrics().cache;
        assert_eq!((stats.hits, stats.misses), (0, 1));
        // A clone and a rebuild hit what the original compiled.
        for same in [program.clone(), gemm_program(128, 128, 64)] {
            assert!(Arc::ptr_eq(&compiled, &session.compile(&same).unwrap()));
        }
        assert_eq!(session.metrics().cache.misses, 1);
    }
}

/// `TuningTable` files saved by earlier builds are keyed by these two
/// hashes; the constants were recorded before programs memoized them.
#[test]
fn persisted_fingerprints_keep_their_recorded_values() {
    let program = gemm_program(128, 128, 64);
    assert_eq!(computation_fingerprint(&program), 0xbb4e_cfc8_11e2_8011);
    assert_eq!(
        computation_fingerprint(&program.clone()),
        0xbb4e_cfc8_11e2_8011
    );
    assert_eq!(
        machine_fingerprint(&MachineConfig::test_gpu()),
        0x1e96_30c2_67f7_9944
    );
    assert_eq!(
        machine_fingerprint(&MachineConfig::h100_sxm5()),
        0x762f_744f_9b15_cfc8
    );
}

/// 32 GEMMs over three shapes: every fourth node starts a new chain,
/// the others consume their predecessor — each node a program of its
/// own, as a serving loop would build them.
fn graph_of_32() -> TaskGraph {
    let mut graph = TaskGraph::new();
    let mut prev = None;
    for i in 0..32usize {
        let d = [64, 128, 192][(i / 4) % 3];
        let a = match prev {
            Some(p) if i % 4 != 0 => Binding::output(p, 0),
            _ => Binding::external(&format!("A{i}")),
        };
        let id = graph
            .add_node(
                &format!("n{i}"),
                gemm_program(d, d, d),
                vec![Binding::Zeros, a, Binding::external(&format!("B{i}"))],
            )
            .unwrap();
        prev = Some(id);
    }
    graph
}

fn session(fusion: FusionPolicy, devices: usize, streams: usize) -> Session {
    Session::new(MachineConfig::test_gpu())
        .with_fusion_policy(fusion)
        .with_placement_policy(PlacementPolicy::Sharded { devices })
        .with_policy(SchedulePolicy::Concurrent { streams })
}

/// The events of one more `launch_timing` of `graph` on `session`, and
/// the session with the recorder attached.
fn events_of_next_launch(session: Session, graph: &TaskGraph) -> (Session, String) {
    let log = TraceLog::new();
    let mut session = session.with_recorder(log.clone());
    session.launch_timing(graph).unwrap();
    (session, format!("{:#?}", log.events()))
}

/// The identity memo removes hashing, not lookups: a warm launch of a
/// 32-node graph is exactly 32 cache hits, and what the recorder sees
/// does not depend on whether the programs were hashed long ago or by
/// the launch before.
#[test]
fn warm_launches_still_look_every_node_up() {
    let graph = graph_of_32();
    let mut warm = session(FusionPolicy::Off, 1, 1);
    warm.launch_timing(&graph).unwrap();
    assert_eq!(warm.metrics().cache.misses, 3, "one kernel per shape");
    for _ in 0..3 {
        let before = warm.metrics().cache;
        warm.launch_timing(&graph).unwrap();
        let after = warm.metrics().cache;
        assert_eq!(
            (after.hits - before.hits, after.misses - before.misses),
            (32, 0)
        );
    }

    // Under every rewrite too: a session that launched many times and a
    // fresh session's second launch of a from-scratch rebuild of the
    // graph record the same stream, fingerprints included.
    for (fusion, devices, streams) in [
        (FusionPolicy::Off, 1, 1),
        (FusionPolicy::Auto, 1, 4),
        (FusionPolicy::Off, 4, 2),
        (FusionPolicy::Auto, 2, 1),
    ] {
        let mut warm = session(fusion, devices, streams);
        for _ in 0..3 {
            warm.launch_timing(&graph).unwrap();
        }
        let rebuilt = graph_of_32();
        let mut cold = session(fusion, devices, streams);
        cold.launch_timing(&rebuilt).unwrap();

        let lookups = |s: &Session| (s.metrics().cache.hits, s.metrics().cache.misses);
        let (warm_before, cold_before) = (lookups(&warm), lookups(&cold));
        let what = format!("fusion {fusion:?}, {devices} devices, {streams} streams");
        let (warm, warm_events) = events_of_next_launch(warm, &graph);
        let (cold, cold_events) = events_of_next_launch(cold, &rebuilt);
        assert_eq!(warm_events, cold_events, "{what}");
        // The same lookups, too, and all of them hits: the gate memoizes
        // a fused kernel this machine's compiler rejects like one it
        // timed, so the rejection costs one miss per session.
        let delta = |(h, m): (u64, u64), s: &Session| (lookups(s).0 - h, lookups(s).1 - m);
        assert_eq!(
            delta(warm_before, &warm),
            delta(cold_before, &cold),
            "{what}"
        );
        assert_eq!(delta(warm_before, &warm).1, 0, "{what}");
    }
}

/// From its second launch on, a warm `Auto` launch of a graph whose
/// fusion candidates include kernels the compiler rejects looks up
/// exactly its launched nodes, every one a hit — the rejected kernels
/// are not compiled again.
#[test]
fn rejected_fused_kernels_are_compiled_once_per_session() {
    let graph = graph_of_32();
    let mut auto = session(FusionPolicy::Auto, 1, 1);
    auto.launch_timing(&graph).unwrap();
    for _ in 0..3 {
        let before = auto.metrics().cache;
        let launched = auto.launch_timing(&graph).unwrap().nodes.len() as u64;
        let after = auto.metrics().cache;
        assert_eq!(
            (after.hits - before.hits, after.misses - before.misses),
            (launched, 0)
        );
    }
}
