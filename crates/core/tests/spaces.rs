//! What every kernel family's [`MappingSpace`] *says* about a point —
//! beside `kernels_golden.rs`, which pins what it builds there.
//!
//! `tests/golden/spaces.digests` pins, for every family of
//! `golden/shared.rs::families()` on the H100 and on the unit-test
//! machine,
//!
//! - `estimate` at every `candidates` point of both pinned shapes: the
//!   bits of the predicted cycles, or `none` (the guided tuner ranks by
//!   these, so a moved bit is a moved `tune_sweep`), and
//! - `validate`'s verdict on the default mapping at the fitting shape
//!   and at misfitting ones — each extent off by one (indivisible
//!   tiles), the last extent times 64 and the H100 default on the small
//!   machine (shared memory over budget, with the byte count), an extent
//!   dropped or added (wrong rank), all-zero extents — and on a mapping
//!   of the other kind.
//!
//! A rewrite of how a space is *written* must leave every line
//! untouched. After an intentional change to a footprint or to the cost
//! model, regenerate with
//!
//! ```sh
//! cargo test --release -p cypress-core --test spaces -- --ignored regenerate
//! ```
//!
//! Beside the digests sits the footprint ⇔ kernel contract: the bytes a
//! footprint predicts are the bytes the compiled kernel stages, so
//! `candidates` drops exactly the points the compiler would reject.
//!
//! The last part is the hostile-mapping table: a `MappingConfig` can
//! come from a file (`MappingConfig::decode` ← a persisted tuning
//! table), so no field value may panic `validate`, `estimate` or
//! `build`, in either build profile.

use cypress_core::kernels::attention::AttentionConfig;
use cypress_core::kernels::gemm::GemmConfig;
use cypress_core::{CompileError, CompilerOptions, CypressCompiler, MappingConfig, Shape};
use cypress_sim::MachineConfig;
use std::fmt::Write as _;

#[path = "golden/shared.rs"]
mod shared;
use shared::{assert_matches_golden, families};

const GOLDEN: &str = include_str!("golden/spaces.digests");

/// `Ok`, or the error's variant name (with the byte counts of an
/// over-budget footprint: they are the footprint formula).
fn verdict(result: Result<(), CompileError>) -> String {
    match result {
        Ok(()) => "Ok".into(),
        Err(CompileError::OutOfSharedMemory { required, limit }) => {
            format!("OutOfSharedMemory(required={required},limit={limit})")
        }
        Err(e) => {
            let debug = format!("{e:?}");
            let end = debug.find(['(', ' ', '{']).unwrap_or(debug.len());
            debug[..end].to_string()
        }
    }
}

/// `shape` with extent `i` replaced by `f(extent)`.
fn with_dim(shape: &Shape, i: usize, f: impl Fn(usize) -> usize) -> Shape {
    let mut dims = shape.dims().to_vec();
    dims[i] = f(dims[i]);
    Shape(dims)
}

fn digests() -> String {
    let (h100, small) = (MachineConfig::h100_sxm5(), MachineConfig::test_gpu());
    let mut out = String::new();
    for (family, space, shapes) in families() {
        for (label, machine) in [("h100", &h100), ("test", &small)] {
            for shape in &shapes {
                for cfg in space.candidates(machine, shape) {
                    let cycles = space.estimate(machine, shape, &cfg);
                    let cycles =
                        cycles.map_or("none".into(), |e| format!("{:016x}", e.cycles.to_bits()));
                    let _ = writeln!(
                        out,
                        "{family} {label} {shape} {} estimate={cycles}",
                        cfg.encode()
                    );
                }
            }
            let fit = &shapes[0];
            let default = space.default_for(machine);
            let rank = fit.dims().len();
            let mut cases = vec![("fit".to_string(), fit.clone())];
            for i in 0..rank {
                cases.push((format!("dim{i}+1"), with_dim(fit, i, |d| d + 1)));
            }
            cases.push(("last*64".into(), with_dim(fit, rank - 1, |d| d * 64)));
            cases.push(("rank-1".into(), Shape::of(&fit.dims()[..rank - 1])));
            cases.push(("rank+1".into(), Shape([fit.dims(), &[64]].concat())));
            cases.push(("zeros".into(), Shape(vec![0; rank])));
            for (case, shape) in cases {
                let _ = writeln!(
                    out,
                    "{family} {label} validate {case} {shape} -> {}",
                    verdict(space.validate(machine, &shape, &default))
                );
            }
            let other = match default {
                MappingConfig::Gemm(_) => MappingConfig::Attention(AttentionConfig::fa2_h100()),
                MappingConfig::Attention(_) => MappingConfig::Gemm(GemmConfig::h100()),
            };
            let _ = writeln!(
                out,
                "{family} {label} validate other-kind {fit} -> {}",
                verdict(space.validate(machine, fit, &other))
            );
        }
        let big = space.default_for(&h100);
        let _ = writeln!(
            out,
            "{family} validate h100-default-on-test {} -> {}",
            shapes[0],
            verdict(space.validate(&small, &shapes[0], &big))
        );
    }
    out
}

#[test]
fn spaces_match_golden_digests() {
    assert_matches_golden(
        GOLDEN,
        &digests(),
        "the mapping spaces no longer reproduce tests/golden/spaces.digests",
    );
}

/// Rewrites the golden file from the current implementation (see the
/// module header for when that is legitimate).
#[test]
#[ignore = "regenerates tests/golden/spaces.digests"]
fn regenerate() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/spaces.digests");
    std::fs::write(path, digests()).expect("write golden file");
}

/// The footprint ⇔ kernel contract: a space's `validate` predicts the
/// shared memory the compiler's emitted kernel stages, whose own
/// validation is the budget check. Every candidate of every family at
/// both pinned shapes, on both machines, compiles; and for every family
/// but the chain (whose footprint is an estimate) the footprint is the
/// compiled byte count exactly — `validate` accepts the point on a
/// machine with just the kernel's `smem_bytes` and rejects it one byte
/// lower.
#[test]
fn every_candidate_compiles_to_the_shared_memory_its_footprint_predicts() {
    for (family, space, shapes) in families() {
        for machine in [MachineConfig::h100_sxm5(), MachineConfig::test_gpu()] {
            let compiler = CypressCompiler::new(CompilerOptions {
                machine: machine.clone(),
                ..Default::default()
            });
            for shape in &shapes {
                for cfg in space.candidates(&machine, shape) {
                    let what = format!("{family} {} {shape} {}", machine.name, cfg.encode());
                    let (reg, mapping, args) = space.build(shape, &cfg).unwrap();
                    let compiled = compiler
                        .compile(&reg, &mapping, space.entry(), &args)
                        .unwrap_or_else(|e| panic!("{what}: {e}"));
                    if family == "chain" {
                        continue;
                    }
                    let with_smem = |smem_per_sm| MachineConfig {
                        smem_per_sm,
                        ..machine.clone()
                    };
                    let exact = with_smem(compiled.smem_bytes);
                    assert_eq!(space.validate(&exact, shape, &cfg), Ok(()), "{what}");
                    let short = with_smem(compiled.smem_bytes - 1);
                    assert!(
                        matches!(
                            space.validate(&short, shape, &cfg),
                            Err(CompileError::OutOfSharedMemory { required, .. })
                                if required == compiled.smem_bytes
                        ),
                        "{what}: the footprint is not the kernel's {} bytes",
                        compiled.smem_bytes
                    );
                }
            }
        }
    }
}

/// `cfg` with the field its token spells `field=` set to `value`, the
/// way a tuning-table file would carry it; `None` when this kind of
/// mapping has no such field.
fn with_field(cfg: MappingConfig, field: &str, value: usize) -> Option<MappingConfig> {
    let token = cfg.encode();
    let (kind, fields) = token.split_once(':')?;
    let key = format!("{field}=");
    let old = fields.split(',').find(|f| f.starts_with(&key))?;
    let forged = fields.replacen(old, &format!("{key}{value}"), 1);
    MappingConfig::decode(&format!("{kind}:{forged}"))
}

/// The fields a family's kernels do not read, so no value of them can
/// misfit: the all-reduce has no K loop (`W` is never bound and the
/// pipeline depth only has to be a depth, >= 1), and the row reduction
/// has no output columns to tile.
fn unread(family: &str, field: &str, value: usize) -> bool {
    match family {
        "comm_all_reduce" => field == "w" || (field == "pipe" && value != 0),
        "reduction" => field == "v",
        _ => false,
    }
}

/// Every field of the honest default at a shape it fits, replaced in
/// turn by 0, 2^40 and `usize::MAX`: `validate` answers with a typed
/// error, `estimate` with `None` or a price and `build` with a program
/// or a typed error — never a panic (the dev profile's overflow check)
/// and never `Ok` off a wrapped product (the release profile). Then
/// every extent of both pinned shapes, replaced
/// in turn by 2^40 and 2^62: `validate`, `candidates`, `estimate` and
/// `build` (at the default and at the first candidate) all return.
#[test]
fn hostile_mapping_values_are_typed_errors() {
    let machine = MachineConfig::h100_sxm5();
    for (family, space, shapes) in families() {
        let default = space.default_for(&machine);
        for fit in &shapes {
            for i in 0..fit.dims().len() {
                for value in [1 << 40, 1 << 62] {
                    let shape = with_dim(fit, i, |_| value);
                    let _ = space.validate(&machine, &shape, &default);
                    let _ = space.estimate(&machine, &shape, &default);
                    let _ = space.build(&shape, &default);
                    if let Some(first) = space.candidates(&machine, &shape).first() {
                        let _ = space.build(&shape, first);
                    }
                }
            }
        }
        // The larger pinned shape the default fits (a four-way fold of
        // the H100's 128 x 256 tile stages past its shared memory).
        let shape = shapes
            .iter()
            .rev()
            .find(|s| space.validate(&machine, s, &default).is_ok())
            .unwrap_or_else(|| panic!("{family}: the default fits neither pinned shape"));
        for field in ["pipe", "u", "v", "w", "wgs", "br", "bc"] {
            for value in [0, 1 << 40, usize::MAX] {
                let Some(cfg) = with_field(default, field, value) else {
                    continue;
                };
                let verdict = space.validate(&machine, shape, &cfg);
                let price = space.estimate(&machine, shape, &cfg);
                let built = space.build(shape, &cfg);
                let what = format!("{family} {shape} {}", cfg.encode());
                if unread(family, field, value) {
                    assert_eq!(verdict, Ok(()), "{what}");
                    assert!(built.is_ok(), "{what}");
                    continue;
                }
                assert!(verdict.is_err(), "{what}: validated");
                if value == usize::MAX {
                    assert!(price.is_none(), "{what}: priced at {price:?}");
                }
            }
        }
    }
}
