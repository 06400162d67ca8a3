//! Stable fingerprints of compiler inputs, for compiled-kernel caching
//! and persisted tuning results.
//!
//! A compile is identified by two independent halves:
//!
//! - the **source** — entry task name, entry argument shapes, task
//!   registry, mapping specification — hashed by [`source_identity`];
//! - the **target** — the machine — hashed by [`target_fingerprint`].
//!
//! Both streams still carry the records of two settings the compiler no
//! longer has — a per-mapping shared-memory limit (`smem_limit None`) and
//! the copy-elimination pattern order (`spill_first=true`) — as the
//! constant texts they always hashed to, so no fingerprint moved when the
//! settings went.
//!
//! [`fingerprint`]` = `[`combine`]`(source, target)` identifies everything
//! that determines the output of
//! [`crate::compile::CypressCompiler::compile`]: two invocations with
//! equal fingerprints produce the same [`cypress_sim::Kernel`], so a
//! runtime (see the `cypress-runtime` crate) can skip the Fig. 6 pass
//! pipeline entirely on a fingerprint match. The split exists so each
//! half is hashed once by whoever owns it — a program its source, a
//! session its target — and a cache lookup combines two `u64`s. Neither
//! half knows the other: a source hash is valid under every machine.
//!
//! # Which values are frozen
//!
//! [`SourceIdentity::computation`] (the source minus its mapping) and
//! [`machine_fingerprint`] key the runtime's *persisted* `TuningTable`:
//! their values must never change, and tests pin them to recorded
//! constants. Their record streams start with `cypress-computation-v1`
//! / `cypress-machine-v1`. [`SourceIdentity::source`],
//! [`target_fingerprint`] and [`fingerprint`] key only the in-process
//! kernel cache and are free to change between builds; the source
//! stream carries the version tag `cypress-fingerprint-v2` (v1 hashed
//! source and target into one accumulator) — bump it when the record
//! layout changes.
//!
//! The hash is FNV-1a ([`Fnv64`], defined in `cypress-sim`) over a
//! canonical rendering of the inputs, streamed record by record into the
//! accumulator. Maps are visited in sorted key order, so the value is
//! independent of `HashMap` iteration order (which differs between
//! processes and instances). The computation hash is a prefix of the
//! source stream, so both come out of one walk of the registry — the
//! part that dominates the cost. FNV-1a has no finalizer, so the
//! computation hash is also the stream's state at that point:
//! [`resume_source`] continues from it with another mapping. An
//! autotune sweep (`cypress-runtime`'s `Session::sweep`) walks one
//! registry per group of schedule siblings and resumes the source
//! stream once per sibling; [`source_identity`] itself is that walk and
//! that resume, so the two cannot drift apart.

use crate::front::mapping::MappingSpec;
use crate::front::task::TaskRegistry;
use crate::passes::depan::EntryArg;
use cypress_sim::MachineConfig;

pub use cypress_sim::Fnv64;

/// The target-free identity of a `(registry, mapping, entry, args)`
/// source, from one walk of its parts (see [`source_identity`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceIdentity {
    /// Hash of the entry name, entry argument shapes and task registry —
    /// the source minus its mapping, so every candidate mapping of one
    /// computation shares it. Persisted in tuning tables: frozen.
    pub computation: u64,
    /// Hash of the whole source, mapping included; [`combine`] it with a
    /// [`target_fingerprint`] to get the compile [`fingerprint`].
    pub source: u64,
}

/// Hash a compile's source. Independent of any machine or compiler
/// option, so the result can be memoized with the source it describes.
/// It is [`SourceIdentity::computation`] and then, from it,
/// [`resume_source`] — the one rendering of a mapping's records.
#[must_use]
pub fn source_identity(
    registry: &TaskRegistry,
    mapping: &MappingSpec,
    entry: &str,
    entry_args: &[EntryArg],
) -> SourceIdentity {
    let mut h = Fnv64::new();
    h.write_str("cypress-computation-v1");
    h.write_str(entry);
    for arg in entry_args {
        h.write_args(format_args!(
            "arg {} {}x{} {:?}",
            arg.name, arg.rows, arg.cols, arg.dtype
        ));
    }

    // Registry: variants sorted by name. A variant's Debug rendering is
    // canonical (Vec- and enum-shaped all the way down).
    let mut variants: Vec<_> = registry.iter().collect();
    variants.sort_by(|a, b| a.name.cmp(&b.name));
    for v in variants {
        h.write_args(format_args!("{v:?}"));
    }
    let computation = h.finish();
    SourceIdentity {
        computation,
        source: resume_source(computation, mapping),
    }
}

/// The [`SourceIdentity::source`] of `mapping` over the computation
/// whose hash is `computation`, without walking the registry again:
/// the source stream resumed where the computation hash ended (FNV-1a
/// has no finalizer, so `computation` is the stream's state). An
/// autotune sweep hashes one registry per group of schedule siblings
/// and each sibling's mapping from here.
#[must_use]
pub fn resume_source(computation: u64, mapping: &MappingSpec) -> u64 {
    // Mapping: instances sorted by name, tunables sorted by key (the one
    // map-shaped field inside `TaskMapping`).
    let mut h = Fnv64::resume(computation);
    h.write_str("cypress-fingerprint-v2");
    let mut instances: Vec<_> = mapping.iter().collect();
    instances.sort_by(|a, b| a.instance.cmp(&b.instance));
    for m in instances {
        h.write_args(format_args!(
            "inst {} variant {} proc {:?} mems {:?} calls {:?} ws {} pipe {} entry {}",
            m.instance,
            m.variant,
            m.proc,
            m.mems,
            m.calls,
            m.warpspecialize,
            m.pipeline,
            m.entrypoint
        ));
        let mut tunables: Vec<_> = m.tunables.iter().collect();
        tunables.sort();
        for (k, val) in tunables {
            h.write_args(format_args!("tun {k}={val}"));
        }
    }
    h.write_str("smem_limit None");
    h.finish()
}

/// The machine's record stream: its `Debug` rendering covers every
/// public field and contains no maps, so it is canonical.
fn machine_hasher(machine: &MachineConfig) -> Fnv64 {
    let mut h = Fnv64::new();
    h.write_str("cypress-machine-v1");
    h.write_args(format_args!("{machine:?}"));
    h
}

/// Fingerprint of a machine configuration. Persisted in tuning tables:
/// frozen.
#[must_use]
pub fn machine_fingerprint(machine: &MachineConfig) -> u64 {
    machine_hasher(machine).finish()
}

/// Hash a compile's target: the machine (`dump_ir` only adds
/// diagnostics).
#[must_use]
pub fn target_fingerprint(machine: &MachineConfig) -> u64 {
    let mut h = machine_hasher(machine);
    h.write_str("spill_first=true");
    h.finish()
}

/// The compile fingerprint of a source hash under a target hash.
#[must_use]
pub fn combine(source: u64, target: u64) -> u64 {
    let mut h = Fnv64::new();
    h.write(&source.to_le_bytes());
    h.write(&target.to_le_bytes());
    h.finish()
}

/// Fingerprint of a full compiler invocation.
///
/// Covers `(registry, mapping, entry, entry_args, machine)` — the
/// complete input of [`crate::compile::CypressCompiler::compile`] as far
/// as the produced kernel is concerned.
#[must_use]
pub fn fingerprint(
    registry: &TaskRegistry,
    mapping: &MappingSpec,
    entry: &str,
    entry_args: &[EntryArg],
    machine: &MachineConfig,
) -> u64 {
    combine(
        source_identity(registry, mapping, entry, entry_args).source,
        target_fingerprint(machine),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::gemm;

    #[test]
    fn equal_inputs_equal_fingerprints() {
        let machine = MachineConfig::test_gpu();
        let (r1, m1, a1) = gemm::build(128, 128, 64, &machine).unwrap();
        let (r2, m2, a2) = gemm::build(128, 128, 64, &machine).unwrap();
        // Separately-built registries/mappings hash identically even though
        // their HashMaps have different iteration orders.
        assert_eq!(
            fingerprint(&r1, &m1, "gemm", &a1, &machine),
            fingerprint(&r2, &m2, "gemm", &a2, &machine),
        );
    }

    #[test]
    fn different_inputs_differ() {
        let machine = MachineConfig::test_gpu();
        let (r, m, a) = gemm::build(128, 128, 64, &machine).unwrap();
        let base = fingerprint(&r, &m, "gemm", &a, &machine);
        let (r2, m2, a2) = gemm::build(128, 128, 128, &machine).unwrap();
        assert_ne!(base, fingerprint(&r2, &m2, "gemm", &a2, &machine));
        assert_ne!(
            base,
            fingerprint(&r, &m, "gemm", &a, &MachineConfig::h100_sxm5())
        );
        assert_ne!(base, fingerprint(&r, &m, "other", &a, &machine));
    }

    #[test]
    fn fingerprint_is_source_combined_with_target() {
        let machine = MachineConfig::test_gpu();
        let (r, m, a) = gemm::build(128, 128, 64, &machine).unwrap();
        let id = source_identity(&r, &m, "gemm", &a);
        for target in [&machine, &MachineConfig::h100_sxm5()] {
            assert_eq!(
                fingerprint(&r, &m, "gemm", &a, target),
                combine(id.source, target_fingerprint(target)),
            );
        }
        // The computation half ignores the mapping; the source does not.
        let mut instances: Vec<_> = m.iter().cloned().collect();
        instances[0].pipeline += 1;
        let deeper = MappingSpec::new(instances).unwrap();
        let other = source_identity(&r, &deeper, "gemm", &a);
        assert_eq!(id.computation, other.computation);
        assert_ne!(id.source, other.source);
    }

    #[test]
    fn persisted_fingerprints_keep_their_recorded_values() {
        // Tuning tables saved by earlier builds are keyed by these two
        // hashes; the constants were recorded before the source/target
        // split and must survive every refactor of this module.
        let machine = MachineConfig::test_gpu();
        let (r, m, a) = gemm::build(128, 128, 64, &machine).unwrap();
        assert_eq!(
            source_identity(&r, &m, "gemm", &a).computation,
            0xbb4e_cfc8_11e2_8011
        );
        assert_eq!(machine_fingerprint(&machine), 0x1e96_30c2_67f7_9944);
        assert_eq!(
            machine_fingerprint(&MachineConfig::h100_sxm5()),
            0x762f_744f_9b15_cfc8
        );
        // The whole compile fingerprint keys only the in-process kernel
        // cache, but it is pinned too: removing a compiler option must not
        // move it.
        for (target, recorded) in [
            (machine, 0xee81_0f87_ce39_1c42),
            (MachineConfig::h100_sxm5(), 0xb0eb_3729_490d_504d),
        ] {
            let compiler = crate::CypressCompiler::new(crate::CompilerOptions {
                machine: target,
                ..Default::default()
            });
            assert_eq!(compiler.fingerprint(&r, &m, "gemm", &a), recorded);
        }
    }

    #[test]
    fn fused_kernels_fingerprint_stably_and_distinctly() {
        // Fused kernels need no fingerprint combinator: a fused program
        // is an ordinary `(registry, mapping, entry, args)` tuple, so
        // the existing fingerprint is stable across rebuilds and
        // distinct from the primitive kernels the fusion replaced —
        // exactly what the runtime's kernel cache keys on.
        use crate::kernels::{chain, reduction};
        let machine = MachineConfig::test_gpu();
        let (rc1, mc1, ac1) = chain::build(64, 64, 64, 64, &machine).unwrap();
        let (rc2, mc2, ac2) = chain::build(64, 64, 64, 64, &machine).unwrap();
        let fused = fingerprint(&rc1, &mc1, "chain", &ac1, &machine);
        assert_eq!(
            fused,
            fingerprint(&rc2, &mc2, "chain", &ac2, &machine),
            "rebuilt fused programs hit the same cache entry"
        );
        let (rg, mg, ag) = gemm::build(64, 64, 64, &machine).unwrap();
        assert_ne!(fused, fingerprint(&rg, &mg, "gemm", &ag, &machine));
        let (rr, mr, ar) = reduction::build(64, 64, &machine).unwrap();
        assert_ne!(fused, fingerprint(&rr, &mr, "reduce", &ar, &machine));
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let mut a = Fnv64::new();
        a.write_str("x");
        a.write_str("y");
        let mut b = Fnv64::new();
        b.write_str("y");
        b.write_str("x");
        assert_ne!(a.finish(), b.finish());
    }
}
