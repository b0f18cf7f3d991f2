//! # toposem-bench
//!
//! Shared fixtures and workload builders for the benchmark harness. Every
//! table and figure of the paper has (a) a Criterion bench under
//! `benches/` named after its experiment id (see DESIGN.md §4), and (b) a
//! textual regenerator in the `figures` binary.

pub mod regression;

use toposem_core::{employee_schema, Intension, Schema, TypeId};
use toposem_design::{random_database, random_schema, ExtensionParams, SchemaParams};
use toposem_extension::{ContainmentPolicy, Database, DomainCatalog, Value};

/// Whether the bench suite runs in *short mode* (`TOPOSEM_BENCH_SHORT`
/// set to anything but `0`): smaller workloads and shorter measurement
/// windows, sized for CI smoke jobs that execute every bench on every PR
/// rather than for stable numbers. Headline ratio assertions still run —
/// the workloads are chosen so the claims hold at the reduced size.
pub fn short_mode() -> bool {
    std::env::var("TOPOSEM_BENCH_SHORT").is_ok_and(|v| v.trim() != "0" && !v.trim().is_empty())
}

/// `full` normally, `short` under [`short_mode`].
pub fn sized<T>(full: T, short: T) -> T {
    if short_mode() {
        short
    } else {
        full
    }
}

/// One measured workload in the machine-readable bench report.
#[derive(Clone, Debug)]
pub struct BenchSample {
    /// Workload label, e.g. `planned_point_select`.
    pub name: String,
    /// Iterations behind the reported per-iteration time.
    pub iters: u64,
    /// Wall time per iteration, in nanoseconds.
    pub ns_per_iter: f64,
}

impl BenchSample {
    /// A sample from a median-of-`iters` wall-clock measurement in
    /// seconds per iteration (the shape the benches' `time()` helpers
    /// produce).
    pub fn from_secs(name: &str, iters: u64, secs_per_iter: f64) -> Self {
        BenchSample {
            name: name.to_owned(),
            iters,
            ns_per_iter: secs_per_iter * 1e9,
        }
    }
}

pub(crate) fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Serialises `samples` as `BENCH_<bench>.json` into the directory named
/// by `TOPOSEM_BENCH_JSON_DIR`, so CI can collect machine-readable
/// timings next to Criterion's human-oriented output. A no-op when the
/// variable is unset (local runs stay clean). The report records whether
/// short mode was on, so a regression seen in the numbers can be tied
/// to its input size.
pub fn emit_bench_json(bench: &str, samples: &[BenchSample]) {
    use std::fmt::Write;
    let Ok(dir) = std::env::var("TOPOSEM_BENCH_JSON_DIR") else {
        return;
    };
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"{}\",", json_escape(bench));
    let _ = writeln!(out, "  \"short_mode\": {},", short_mode());
    let _ = writeln!(out, "  \"samples\": [");
    for (i, s) in samples.iter().enumerate() {
        let comma = if i + 1 < samples.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"iters\": {}, \"ns_per_iter\": {:.1}}}{comma}",
            json_escape(&s.name),
            s.iters,
            s.ns_per_iter,
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    let path = std::path::Path::new(&dir).join(format!("BENCH_{bench}.json"));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, out)) {
        eprintln!("warning: failed to write {}: {e}", path.display());
    }
}

/// The employee database loaded with the canonical rows used across the
/// experiment suite (2 managers, 2 plain employees, 2 departments, and
/// the matching worksfor facts).
pub fn employee_db(policy: ContainmentPolicy) -> Database {
    let mut db = Database::new(
        Intension::analyse(employee_schema()),
        DomainCatalog::employee_defaults(),
        policy,
    );
    let s = db.schema().clone();
    for (n, a, d, b) in [
        ("ann", 40, "sales", 100_000),
        ("bob", 50, "research", 80_000),
    ] {
        db.insert_fields(
            s.type_id("manager").unwrap(),
            &[
                ("name", Value::str(n)),
                ("age", Value::Int(a)),
                ("depname", Value::str(d)),
                ("budget", Value::Int(b)),
            ],
        )
        .unwrap();
    }
    for (n, a, d) in [("carol", 25, "sales"), ("dave", 35, "research")] {
        db.insert_fields(
            s.type_id("employee").unwrap(),
            &[
                ("name", Value::str(n)),
                ("age", Value::Int(a)),
                ("depname", Value::str(d)),
            ],
        )
        .unwrap();
    }
    for (d, l) in [("sales", "amsterdam"), ("research", "utrecht")] {
        db.insert_fields(
            s.type_id("department").unwrap(),
            &[("depname", Value::str(d)), ("location", Value::str(l))],
        )
        .unwrap();
    }
    for (n, a, d, l) in [
        ("ann", 40, "sales", "amsterdam"),
        ("carol", 25, "sales", "amsterdam"),
        ("bob", 50, "research", "utrecht"),
    ] {
        db.insert_fields(
            s.type_id("worksfor").unwrap(),
            &[
                ("name", Value::str(n)),
                ("age", Value::Int(a)),
                ("depname", Value::str(d)),
                ("location", Value::str(l)),
            ],
        )
        .unwrap();
    }
    db
}

/// The sweep of schema sizes used by the intension-level experiments
/// (F2, F3, R1, R2, R3).
pub const SCHEMA_SWEEP: [usize; 4] = [8, 32, 128, 512];

/// The sweep of relation cardinalities used by the extension-level
/// experiments (R4, R5, F4, R8).
pub const TUPLE_SWEEP: [usize; 4] = [10, 100, 1_000, 10_000];

/// A synthesised schema with roughly `n_types` entity types and a dense
/// ISA hierarchy, deterministic per size.
pub fn sweep_schema(n_types: usize) -> Schema {
    random_schema(&SchemaParams {
        n_attrs: (n_types * 2).clamp(8, 4096),
        n_types,
        isa_bias: 0.6,
        max_width: 8,
        seed: 0xC5_8711, // the report number
    })
}

/// A synthesised database over `schema` with `tuples_per_type` rows per
/// entity type, deterministic per size.
pub fn sweep_db(schema: &Schema, tuples_per_type: usize) -> Database {
    random_database(
        schema,
        &ExtensionParams {
            tuples_per_type,
            value_range: (tuples_per_type as i64 / 4).max(4),
            policy: ContainmentPolicy::Eager,
            seed: 0xC5_8711,
        },
    )
}

/// Type names resolved for display.
pub fn names(schema: &Schema, ids: &[TypeId]) -> Vec<String> {
    ids.iter()
        .map(|&e| schema.type_name(e).to_owned())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_loads_and_validates() {
        let db = employee_db(ContainmentPolicy::Eager);
        assert!(db.verify_containment().is_empty());
        let s = db.schema();
        assert_eq!(db.extension(s.type_id("person").unwrap()).len(), 4);
        assert_eq!(db.extension(s.type_id("worksfor").unwrap()).len(), 3);
    }

    #[test]
    fn bench_json_round_trips() {
        let dir = std::env::temp_dir().join(format!("toposem-bench-json-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Serialisation is exercised directly (env vars are process-wide,
        // so the test avoids setting TOPOSEM_BENCH_JSON_DIR and instead
        // checks the emitted shape through the public API contract).
        std::env::set_var("TOPOSEM_BENCH_JSON_DIR", &dir);
        emit_bench_json(
            "unit",
            &[
                BenchSample::from_secs("planned_point", 30, 12.3456e-6),
                BenchSample::from_secs("naive_point", 30, 4.5e-3),
            ],
        );
        std::env::remove_var("TOPOSEM_BENCH_JSON_DIR");
        let text = std::fs::read_to_string(dir.join("BENCH_unit.json")).unwrap();
        assert!(text.contains("\"bench\": \"unit\""));
        assert!(
            text.contains("\"name\": \"planned_point\", \"iters\": 30, \"ns_per_iter\": 12345.6")
        );
        assert!(text.contains("\"ns_per_iter\": 4500000.0"));
        assert!(text.contains("\"short_mode\": "));
        assert!(!text.contains("\"threads\""));
        assert!(!text.contains("\"morsel_size\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_schema_sizes_scale() {
        let small = sweep_schema(8);
        let large = sweep_schema(32);
        assert!(large.type_count() > small.type_count());
    }
}
