//! Simulator-driven mapping autotuning.
//!
//! The compiler separates a kernel's logical description from its
//! mapping; [`cypress_core::MappingSpace`] makes the mapping side
//! enumerable. This module adds the missing loop: compile every
//! candidate mapping through the session's kernel cache, time it with
//! the simulator, and remember the winner — the search-based mapping
//! selection systems like Hidet use in place of fixed heuristics.
//!
//! Results live in a [`TuningTable`] keyed by [`TuningKey`] — the
//! *computation* fingerprint (task registry + entry + argument shapes,
//! mapping excluded), the problem shape, and the machine fingerprint —
//! so one tuned entry serves every mapping of the same computation on
//! the same machine. Tables serialize to a canonical text format
//! ([`TuningTable::to_text`] / [`TuningTable::from_text`], plus
//! [`TuningTable::save`] / [`TuningTable::load`]) so tuning survives
//! across sessions and processes; the offline build has no `serde`, so
//! the round-trip is hand-rolled and locked by tests.
#![deny(clippy::too_many_lines)]

use crate::error::RuntimeError;
use crate::program::Program;
pub use cypress_core::fingerprint::machine_fingerprint;
use cypress_core::{MappingConfig, Shape, COST_MODEL_VERSION};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::path::Path;

/// Counters of how a [`TuningTable`] has been used (mirrors
/// [`crate::CacheStats`] / [`crate::PoolStats`]). Counters are *not*
/// part of the serialized table and never affect equality — two tables
/// with the same entries are equal however they were exercised.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TunerStats {
    /// Winner lookups in the table.
    pub lookups: u64,
    /// Lookups that found a tuned entry.
    pub hits: u64,
    /// Autotune sweeps that actually ran (cache misses of the table).
    pub sweeps: u64,
    /// Candidates compiled and timed across all sweeps: every timing run
    /// a sweep started, whether it ran whole or was cut.
    pub candidates_timed: u64,
    /// Of [`TunerStats::candidates_timed`], the runs that stopped once
    /// they were proven slower than the sweep's seed (see
    /// `Session::autotune`).
    pub cut: u64,
    /// Candidates compiled but never timed across all sweeps: their
    /// timing floor (a proven lower bound on their cycles) was above the
    /// sweep's seed's cycles, or equal to them and later in enumeration
    /// order, so they could not win (see `Session::autotune`). Every
    /// compiled candidate is exactly one of whole, cut or bounded.
    pub bounded: u64,
    /// Candidates ranked by the analytical cost model across all guided
    /// sweeps (see [`cypress_core::kernels::cost`]).
    pub ranked: u64,
    /// Candidates the cost model pruned — ranked but never compiled or
    /// timed because they fell outside the sweep's top-k budget.
    pub pruned: u64,
    /// Sweeps seeded from a neighboring shape's winner (see
    /// `TuningTable::nearest_neighbor`).
    pub transferred: u64,
}

/// What a [`TuningTable`] entry is keyed by: the computation (not its
/// mapping), the problem shape, and the machine.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TuningKey {
    /// Fingerprint of the task registry, entry name, and entry argument
    /// shapes — everything but the mapping (see
    /// [`computation_fingerprint`]).
    pub computation: u64,
    /// The problem shape the winner was tuned at.
    pub shape: Vec<usize>,
    /// Fingerprint of the [`cypress_sim::MachineConfig`] (see
    /// [`machine_fingerprint`]).
    pub machine: u64,
}

/// The outcome of autotuning one computation.
#[derive(Debug, Clone, PartialEq)]
pub struct TunedMapping {
    /// The kernel entry name the winner was tuned for (`"gemm"`,
    /// `"fa"`, ...). Keys fingerprint the whole computation — argument
    /// shapes included — so this is what lets
    /// `TuningTable::nearest_neighbor` relate entries tuned at
    /// *different* shapes of the same kernel.
    pub entry: String,
    /// The winning mapping point.
    pub config: MappingConfig,
    /// Simulated solo cycles of the hand-tuned default mapping.
    pub default_cycles: f64,
    /// Simulated solo cycles of the winner (always `<= default_cycles`:
    /// the default is one of the candidates).
    pub tuned_cycles: f64,
    /// The cost model's predicted cycles for the winner, `0.0` when the
    /// winner was unpriceable (see `model_version`).
    pub predicted_cycles: f64,
    /// Candidates evaluated.
    pub candidates: usize,
    /// [`COST_MODEL_VERSION`] of the model that produced
    /// `predicted_cycles`, or `0` when the winner was not priced.
    pub model_version: u32,
}

impl TunedMapping {
    /// `default_cycles / tuned_cycles` — 1.0 means the hand-tuned
    /// mapping was already optimal in the space.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.tuned_cycles > 0.0 {
            self.default_cycles / self.tuned_cycles
        } else {
            1.0
        }
    }
}

/// Persistent store of autotuning winners.
///
/// Entries are held in a `BTreeMap` so iteration — and therefore the
/// serialized text — is canonical: two tables with equal entries render
/// byte-identically.
#[derive(Debug, Clone, Default)]
pub struct TuningTable {
    entries: BTreeMap<TuningKey, TunedMapping>,
    /// Usage counters (interior mutability so read-only lookups count).
    stats: Cell<TunerStats>,
}

impl PartialEq for TuningTable {
    /// Equality compares *entries only*: usage counters are
    /// observability, not content (a loaded table equals the saved one).
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

/// Which candidates an autotune sweep considers (see
/// `Session::autotune` in this crate). The exhaustive budget considers
/// every candidate; a top-k budget ranks candidates with the analytical
/// cost model first and considers only the best-predicted `k`. Either
/// way the sweep then times a seed — the hand-tuned default when it is
/// considered, else the best-predicted candidate — skips every
/// candidate whose timing floor is above the seed's cycles (or equal to
/// them and later in enumeration order), and stops each other run once
/// it is proven slower than the seed, so it simulates only what could
/// win.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TunerBudget {
    /// Compile every candidate and time each one its floor does not
    /// rule out.
    #[default]
    Exhaustive,
    /// Rank all candidates analytically, then compile only the `k`
    /// best-predicted (plus a transferred neighbor winner, when one
    /// exists) and time each of them its floor does not rule out.
    /// `TopK(0)` times only the transferred winner — or the single
    /// best-predicted candidate when no neighbor is known.
    ///
    /// `TopK(k)` with `k >= candidates.len()` is bit-identical to
    /// [`TunerBudget::Exhaustive`]: same winner, same kernel-cache
    /// traffic, same skipped candidates, same telemetry.
    TopK(usize),
}

/// Header line of the serialized format; bump on layout changes.
/// `v1` lacked the entry name, predicted cycles, and model version;
/// v1 files are rejected with a typed header error.
const HEADER: &str = "cypress-tuning-v2";

impl TuningTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        TuningTable::default()
    }

    /// Number of tuned computations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing has been tuned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The tuned winner for `key`, if present. Counts one lookup (and a
    /// hit when found) in [`TuningTable::stats`].
    #[must_use]
    pub(crate) fn get(&self, key: &TuningKey) -> Option<&TunedMapping> {
        let found = self.entries.get(key);
        let mut stats = self.stats.get();
        stats.lookups += 1;
        stats.hits += u64::from(found.is_some());
        self.stats.set(stats);
        found
    }

    /// Usage counters accumulated by this table.
    #[must_use]
    pub fn stats(&self) -> TunerStats {
        self.stats.get()
    }

    /// Count one completed sweep that timed `candidates_timed`
    /// candidates, `cut` of them stopped early, and ruled `bounded` more
    /// out by their floors.
    pub(crate) fn note_sweep(&self, candidates_timed: u64, cut: u64, bounded: u64) {
        let mut stats = self.stats.get();
        stats.sweeps += 1;
        stats.candidates_timed += candidates_timed;
        stats.cut += cut;
        stats.bounded += bounded;
        self.stats.set(stats);
    }

    /// Count one analytical ranking pass: `ranked` candidates priced,
    /// `pruned` of them dropped before timing, plus whether the sweep
    /// was seeded from a neighboring shape's winner.
    pub(crate) fn note_ranking(&self, ranked: u64, pruned: u64, transferred: bool) {
        let mut stats = self.stats.get();
        stats.ranked += ranked;
        stats.pruned += pruned;
        stats.transferred += u64::from(transferred);
        self.stats.set(stats);
    }

    /// Record (or replace) the winner for `key`.
    pub fn insert(&mut self, key: TuningKey, tuned: TunedMapping) {
        self.entries.insert(key, tuned);
    }

    /// The tuned entry for the same kernel and machine at the *nearest
    /// neighboring shape* — how an untuned shape borrows a tuned one's
    /// winner as a transfer seed.
    ///
    /// Candidates must match `entry` and `machine`, have a shape of the
    /// same rank, and not be `shape` itself. Distance between shapes
    /// `a` and `b` is `Σᵢ (max(aᵢ,bᵢ) / min(aᵢ,bᵢ) − 1)` — a relative
    /// measure, so 512→1024 is as near as 2048→4096 and zero only for
    /// identical shapes. It is computed with plain `f64` division (no
    /// transcendentals), so the choice is bit-stable across platforms;
    /// ties keep the first entry in canonical [`TuningKey`] order.
    #[must_use]
    pub(crate) fn nearest_neighbor(
        &self,
        entry: &str,
        machine: u64,
        shape: &[usize],
    ) -> Option<(&TuningKey, &TunedMapping)> {
        let distance = |other: &[usize]| -> f64 {
            other
                .iter()
                .zip(shape)
                .map(|(&a, &b)| {
                    let (lo, hi) = (a.min(b).max(1) as f64, a.max(b) as f64);
                    hi / lo - 1.0
                })
                .sum()
        };
        let mut best: Option<(&TuningKey, &TunedMapping, f64)> = None;
        for (key, tuned) in &self.entries {
            if key.machine != machine
                || tuned.entry != entry
                || key.shape.len() != shape.len()
                || key.shape == shape
            {
                continue;
            }
            let d = distance(&key.shape);
            // Strict `<`: ties keep the earliest (canonical-order) key.
            if best.is_none_or(|(_, _, b)| d < b) {
                best = Some((key, tuned, d));
            }
        }
        best.map(|(k, t, _)| (k, t))
    }

    /// Iterate entries in canonical (key) order.
    pub fn iter(&self) -> impl Iterator<Item = (&TuningKey, &TunedMapping)> {
        self.entries.iter()
    }

    /// Merge another table in; `other`'s entries win on key collisions.
    pub(crate) fn merge(&mut self, other: TuningTable) {
        self.entries.extend(other.entries);
    }

    /// Serialize to the canonical text format: a header line, then one
    /// entry per line —
    /// `<computation:016x> <machine:016x> <shape d0xd1x...> <entry> <config> <default_cycles> <tuned_cycles> <predicted_cycles> <candidates> <model_version>`.
    /// `f64` cycles print in Rust's shortest round-trip form, so
    /// [`TuningTable::from_text`] reproduces them bit for bit.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::from(HEADER);
        out.push('\n');
        for (key, tuned) in &self.entries {
            let shape = Shape(key.shape.clone());
            out.push_str(&format!(
                "{:016x} {:016x} {shape} {} {} {} {} {} {} {}\n",
                key.computation,
                key.machine,
                tuned.entry,
                tuned.config.encode(),
                tuned.default_cycles,
                tuned.tuned_cycles,
                tuned.predicted_cycles,
                tuned.candidates,
                tuned.model_version,
            ));
        }
        out
    }

    /// Parse the format produced by [`TuningTable::to_text`].
    ///
    /// Parsing is strict: every line after the header must be a
    /// well-formed 10-field entry with a key not seen before. A table
    /// that parses is therefore exactly the table that was saved — no
    /// entry can be silently shadowed by a duplicate line, and no
    /// half-corrupted line can be silently dropped.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::BadTuningTable`] on a wrong header
    /// (including the retired `cypress-tuning-v1`), a malformed or
    /// blank entry line, a cycle count that is not a finite,
    /// non-negative number, a duplicate key, or an entry whose
    /// `model_version` is newer than this build's
    /// [`COST_MODEL_VERSION`] — predictions from a future model must
    /// not be silently reinterpreted. Every entry error names its line
    /// number.
    pub fn from_text(text: &str) -> Result<Self, RuntimeError> {
        let bad = |reason: String| RuntimeError::BadTuningTable { reason };
        let mut lines = text.lines();
        match lines.next() {
            Some(HEADER) => {}
            other => return Err(bad(format!("expected header `{HEADER}`, found {other:?}"))),
        }
        let mut table = TuningTable::new();
        for (i, line) in lines.enumerate() {
            if line.trim().is_empty() {
                // A canonical table has no blank lines; one here means
                // the file was truncated or hand-edited.
                return Err(bad(format!(
                    "line {}: blank line (a saved table has one entry per line)",
                    i + 2
                )));
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [comp, machine, shape, entry, config, default_cycles, tuned_cycles, predicted_cycles, candidates, model_version] =
                fields.as_slice()
            else {
                return Err(bad(format!(
                    "line {}: expected 10 fields, found {}",
                    i + 2,
                    fields.len()
                )));
            };
            let parse_hex = |s: &str, what: &str| {
                u64::from_str_radix(s, 16)
                    .map_err(|e| bad(format!("line {}: bad {what} `{s}`: {e}", i + 2)))
            };
            let shape: Vec<usize> = shape
                .split('x')
                .map(|d| {
                    d.parse()
                        .map_err(|e| bad(format!("line {}: bad shape dim `{d}`: {e}", i + 2)))
                })
                .collect::<Result<_, _>>()?;
            let config = MappingConfig::decode(config)
                .ok_or_else(|| bad(format!("line {}: bad mapping config `{config}`", i + 2)))?;
            // Cycle counts are finite and non-negative: `f64::from_str`
            // also reads `NaN`, `inf` and `-5`, which would turn into a
            // meaningless `TunedMapping::speedup`.
            let parse_cycles = |s: &str, what: &str| match s.parse::<f64>() {
                Ok(x) if x.is_finite() && x >= 0.0 => Ok(x),
                Ok(_) => Err(bad(format!(
                    "line {}: bad {what} `{s}`: not a finite, non-negative cycle count",
                    i + 2
                ))),
                Err(e) => Err(bad(format!("line {}: bad {what} `{s}`: {e}", i + 2))),
            };
            let key = TuningKey {
                computation: parse_hex(comp, "computation fingerprint")?,
                shape,
                machine: parse_hex(machine, "machine fingerprint")?,
            };
            if table.entries.contains_key(&key) {
                // Last-write-wins would silently discard an entry the
                // writer thought it persisted.
                return Err(bad(format!(
                    "line {}: duplicate entry for computation {:016x} machine {:016x} shape {}",
                    i + 2,
                    key.computation,
                    key.machine,
                    Shape(key.shape.clone()),
                )));
            }
            let model_version: u32 = model_version
                .parse()
                .map_err(|e| bad(format!("line {}: bad model version: {e}", i + 2)))?;
            if model_version > COST_MODEL_VERSION {
                return Err(bad(format!(
                    "line {}: cost-model version {model_version} is newer than this \
                     build's {COST_MODEL_VERSION}; re-tune or upgrade",
                    i + 2
                )));
            }
            table.insert(
                key,
                TunedMapping {
                    entry: (*entry).to_string(),
                    config,
                    default_cycles: parse_cycles(default_cycles, "default cycles")?,
                    tuned_cycles: parse_cycles(tuned_cycles, "tuned cycles")?,
                    predicted_cycles: parse_cycles(predicted_cycles, "predicted cycles")?,
                    candidates: candidates
                        .parse()
                        .map_err(|e| bad(format!("line {}: bad candidate count: {e}", i + 2)))?,
                    model_version,
                },
            );
        }
        Ok(table)
    }

    /// Write the canonical text to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_text())
    }

    /// Read a table previously written with [`TuningTable::save`].
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::BadTuningTable`] for unreadable files or
    /// malformed contents.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, RuntimeError> {
        let text =
            std::fs::read_to_string(path.as_ref()).map_err(|e| RuntimeError::BadTuningTable {
                reason: format!("cannot read {}: {e}", path.as_ref().display()),
            })?;
        TuningTable::from_text(&text)
    }
}

/// Fingerprint of a program's *computation*: the task registry (sorted
/// by variant name), the entry task, and the entry argument shapes —
/// deliberately excluding the mapping, so every candidate mapping of one
/// computation shares a tuning-table key. It is the
/// [`cypress_core::fingerprint::SourceIdentity::computation`] half of
/// the identity the program memoizes, so asking again costs nothing.
#[must_use]
pub fn computation_fingerprint(program: &Program) -> u64 {
    program.identity().computation
}

/// The table key for `program` on the machine whose
/// [`machine_fingerprint`] is `machine` (the shape comes from the
/// program's [`crate::SpaceBinding`]).
#[must_use]
pub(crate) fn key_for(program: &Program, shape: &Shape, machine: u64) -> TuningKey {
    TuningKey {
        computation: computation_fingerprint(program),
        shape: shape.0.clone(),
        machine,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypress_core::kernels::gemm::GemmConfig;
    use cypress_sim::MachineConfig;

    fn sample_table() -> TuningTable {
        let mut t = TuningTable::new();
        t.insert(
            TuningKey {
                computation: 0xDEAD_BEEF,
                shape: vec![4096, 4096, 4096],
                machine: 0x1234,
            },
            TunedMapping {
                entry: "gemm".into(),
                config: MappingConfig::Gemm(GemmConfig::h100()),
                default_cycles: 123456.75,
                tuned_cycles: 98765.0625,
                predicted_cycles: 101010.5,
                candidates: 36,
                model_version: COST_MODEL_VERSION,
            },
        );
        t.insert(
            TuningKey {
                computation: 1,
                shape: vec![2, 64, 64, 64],
                machine: 0x1234,
            },
            TunedMapping {
                entry: "bgemm".into(),
                config: MappingConfig::Gemm(GemmConfig::test()),
                default_cycles: 10.0,
                tuned_cycles: 10.0,
                predicted_cycles: 0.0,
                candidates: 12,
                model_version: 0,
            },
        );
        t
    }

    #[test]
    fn text_round_trip_is_exact() {
        let table = sample_table();
        let text = table.to_text();
        let back = TuningTable::from_text(&text).unwrap();
        assert_eq!(back, table);
        // Canonical: serializing again is byte-identical.
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn malformed_tables_are_typed_errors() {
        assert!(TuningTable::from_text("not-a-table").is_err());
        let mut text = sample_table().to_text();
        text.push_str("zz not enough fields\n");
        assert!(TuningTable::from_text(&text).is_err());
        let truncated = sample_table().to_text().replace("gemm:", "mystery:");
        assert!(TuningTable::from_text(&truncated).is_err());
        // `f64::from_str` reads these, but none is a cycle count: in
        // every cycle field each is rejected, naming its line and field.
        let text = sample_table().to_text();
        for (field, what) in [
            (5, "default cycles"),
            (6, "tuned cycles"),
            (7, "predicted cycles"),
        ] {
            for value in ["NaN", "inf", "-inf", "-5"] {
                let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
                let mut fields: Vec<&str> = lines[1].split(' ').collect();
                fields[field] = value;
                lines[1] = fields.join(" ");
                let err = TuningTable::from_text(&lines.join("\n")).unwrap_err();
                assert!(
                    err.to_string()
                        .contains(&format!("line 2: bad {what} `{value}`")),
                    "{what} = {value}: {err}"
                );
            }
        }
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let table = sample_table();
        let text = table.to_text();
        // Re-append the first entry line verbatim: the old parser let
        // the later line win silently; now it is a typed error.
        let dup = text.lines().nth(1).unwrap().to_string();
        let corrupted = format!("{text}{dup}\n");
        let err = TuningTable::from_text(&corrupted).unwrap_err();
        assert!(
            err.to_string().contains("duplicate entry"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn blank_and_garbage_lines_are_rejected() {
        let base = sample_table().to_text();
        for junk in ["\n", "   \n", "\t\n", "# a comment\n", "trailing garbage\n"] {
            let corrupted = format!("{base}{junk}");
            assert!(
                TuningTable::from_text(&corrupted).is_err(),
                "appending {junk:?} must be a parse error"
            );
        }
        // A canonical table (with its single trailing newline) still
        // parses: strictness must not break the round-trip.
        assert!(TuningTable::from_text(&base).is_ok());
    }

    proptest::proptest! {
        /// Save/load fuzz: random tables — random fingerprints, shapes,
        /// bit-pattern f64 cycles, mixed GEMM/attention configs —
        /// round-trip exactly, and common corruptions (duplicated
        /// entry, truncated last line, appended garbage) are typed
        /// errors, never silent data loss.
        #[test]
        fn fuzzed_save_load_round_trip(seed in 0u64..1_000_000) {
            use cypress_core::kernels::attention::AttentionConfig;
            use rand::rngs::StdRng;
            use rand::{Rng, RngCore, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let finite = |rng: &mut StdRng| loop {
                let x = f64::from_bits(rng.next_u64()).abs();
                if x.is_finite() {
                    return x;
                }
            };
            let mut table = TuningTable::new();
            for _ in 0..rng.gen_range(0usize..6) {
                let dims = rng.gen_range(1usize..5);
                let config = if rng.gen_bool(0.5) {
                    MappingConfig::Gemm(GemmConfig {
                        u: rng.gen_range(1usize..512),
                        v: rng.gen_range(1usize..512),
                        w: rng.gen_range(1usize..256),
                        wgs: rng.gen_range(1usize..4),
                        pipeline: rng.gen_range(1usize..8),
                        warpspecialize: rng.gen_bool(0.5),
                    })
                } else {
                    MappingConfig::Attention(AttentionConfig {
                        br: rng.gen_range(1usize..256),
                        bc: rng.gen_range(1usize..256),
                        wgs: rng.gen_range(1usize..4),
                        pipeline: rng.gen_range(1usize..8),
                    })
                };
                let entries = ["gemm", "bgemm", "dual", "gr", "fa"];
                let model_version = rng.gen_range(0u32..COST_MODEL_VERSION + 1);
                table.insert(
                    TuningKey {
                        computation: rng.next_u64(),
                        shape: (0..dims).map(|_| rng.gen_range(1usize..5000)).collect(),
                        machine: rng.next_u64(),
                    },
                    TunedMapping {
                        entry: entries[rng.gen_range(0usize..entries.len())].into(),
                        config,
                        default_cycles: finite(&mut rng),
                        tuned_cycles: finite(&mut rng),
                        predicted_cycles: if model_version == 0 {
                            0.0
                        } else {
                            finite(&mut rng)
                        },
                        candidates: rng.gen_range(1usize..100),
                        model_version,
                    },
                );
            }

            let text = table.to_text();
            let back = TuningTable::from_text(&text).unwrap();
            proptest::prop_assert_eq!(&back, &table, "parse must reproduce the table");
            proptest::prop_assert_eq!(back.to_text(), text.clone(), "re-serialization is canonical");

            proptest::prop_assert!(
                TuningTable::from_text(&format!("{text}junk line\n")).is_err(),
                "appended garbage must not be skipped"
            );
            if !table.is_empty() {
                let dup = text.lines().nth(1).unwrap();
                proptest::prop_assert!(
                    TuningTable::from_text(&format!("{text}{dup}\n")).is_err(),
                    "a duplicated entry must not silently win"
                );
                let cut = text.trim_end().rsplit_once(' ').unwrap().0;
                proptest::prop_assert!(
                    TuningTable::from_text(&format!("{cut}\n")).is_err(),
                    "a truncated last line must not be skipped"
                );
            }
        }
    }

    #[test]
    fn speedup_reads_the_cycle_ratio() {
        let tuned = TunedMapping {
            entry: "gemm".into(),
            config: MappingConfig::Gemm(GemmConfig::test()),
            default_cycles: 200.0,
            tuned_cycles: 100.0,
            predicted_cycles: 90.0,
            candidates: 4,
            model_version: COST_MODEL_VERSION,
        };
        assert!((tuned.speedup() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn newer_model_versions_are_line_numbered_errors() {
        let mut text = sample_table().to_text();
        // Bump the last field (model version) of the final entry past
        // this build's version.
        let future = COST_MODEL_VERSION + 1;
        let cut = text.trim_end().rsplit_once(' ').unwrap().0;
        text = format!("{cut} {future}\n");
        let err = TuningTable::from_text(&text).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("line 3") && msg.contains(&format!("version {future}")),
            "unexpected error: {msg}"
        );
        // Version 0 (no prediction) and the current version both load.
        assert!(TuningTable::from_text(&sample_table().to_text()).is_ok());
    }

    #[test]
    fn v1_tables_are_rejected_by_header() {
        let v1 = "cypress-tuning-v1\n\
                  000000000000002a 0000000000000007 64x64x64 gemm:64:64:32:1:1:0 10 9 12\n";
        let err = TuningTable::from_text(v1).unwrap_err();
        assert!(
            err.to_string().contains("cypress-tuning-v2"),
            "header error must name the expected version: {err}"
        );
    }

    #[test]
    fn nearest_neighbor_prefers_relative_distance() {
        let mut t = TuningTable::new();
        let tuned = |entry: &str, cycles: f64| TunedMapping {
            entry: entry.into(),
            config: MappingConfig::Gemm(GemmConfig::test()),
            default_cycles: cycles,
            tuned_cycles: cycles,
            predicted_cycles: 0.0,
            candidates: 1,
            model_version: 0,
        };
        let key = |shape: &[usize], machine: u64| TuningKey {
            computation: shape.iter().sum::<usize>() as u64,
            shape: shape.to_vec(),
            machine,
        };
        t.insert(key(&[512, 512, 512], 7), tuned("gemm", 1.0));
        t.insert(key(&[4096, 4096, 4096], 7), tuned("gemm", 2.0));
        t.insert(key(&[1024, 1024, 1024], 9), tuned("gemm", 3.0));
        t.insert(key(&[2048, 2048, 2048], 7), tuned("dual", 4.0));
        t.insert(key(&[8, 2048, 128], 7), tuned("fa", 5.0));

        // Relative distance: 2048^3 is nearer to 4096^3 than to 512^3.
        let (k, m) = t.nearest_neighbor("gemm", 7, &[2048, 2048, 2048]).unwrap();
        assert_eq!(k.shape, vec![4096, 4096, 4096]);
        assert_eq!(m.entry, "gemm");
        // The exact shape never matches itself; other entries/machines
        // and other ranks are invisible.
        let (k, _) = t.nearest_neighbor("gemm", 7, &[512, 512, 512]).unwrap();
        assert_eq!(k.shape, vec![4096, 4096, 4096]);
        assert!(t.nearest_neighbor("gemm", 8, &[512, 512, 512]).is_none());
        assert!(t.nearest_neighbor("gr", 7, &[512, 512, 512]).is_none());
        assert!(t.nearest_neighbor("gemm", 7, &[512, 512]).is_none());
        let (k, _) = t.nearest_neighbor("fa", 7, &[8, 4096, 128]).unwrap();
        assert_eq!(k.shape, vec![8, 2048, 128]);
    }

    #[test]
    fn stats_count_lookups_and_sweeps() {
        let table = sample_table();
        let miss = TuningKey {
            computation: 42,
            shape: vec![1],
            machine: 0,
        };
        assert!(table.get(&miss).is_none());
        let hit = TuningKey {
            computation: 1,
            shape: vec![2, 64, 64, 64],
            machine: 0x1234,
        };
        assert!(table.get(&hit).is_some());
        table.note_sweep(7, 2, 3);
        let s = table.stats();
        assert_eq!(
            (
                s.lookups,
                s.hits,
                s.sweeps,
                s.candidates_timed,
                s.cut,
                s.bounded
            ),
            (2, 1, 1, 7, 2, 3)
        );
        // Counters never affect equality or the serialized text.
        assert_eq!(table, sample_table());
        assert_eq!(table.to_text(), sample_table().to_text());
    }

    #[test]
    fn machine_fingerprints_distinguish_machines() {
        assert_ne!(
            machine_fingerprint(&MachineConfig::test_gpu()),
            machine_fingerprint(&MachineConfig::h100_sxm5())
        );
    }
}
