//! `BENCHMARK.json` and the harness must name the same things: the
//! driver refuses a run whose metrics differ from the declared ones.

use toposem_benchmark::run::{END_TO_END, PER_LAYER};
use toposem_benchmark::workload::Kind;

#[test]
fn benchmark_json_declares_what_the_harness_prints() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let section = |from: &str, to: &str| {
        let start = text.find(from).unwrap_or_else(|| panic!("no {from}"));
        let end = text[start..].find(to).map_or(text.len(), |i| start + i);
        &text[start..end]
    };
    let workloads = section("\"workloads\"", "\"end_to_end\"");
    let end_to_end = section("\"end_to_end\"", "\"per_layer\"");
    let per_layer = section("\"per_layer\"", "\u{0}");
    let names = |s: &str| s.matches("\"name\":").count();

    assert_eq!(names(workloads), Kind::ALL.len());
    for kind in Kind::ALL {
        assert!(workloads.contains(&format!("\"name\": \"{}\"", kind.name())));
    }
    assert_eq!(names(end_to_end), END_TO_END.len());
    for (name, unit) in END_TO_END {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(end_to_end.contains(&entry), "end_to_end lacks {entry}");
    }
    assert_eq!(names(per_layer), PER_LAYER.len());
    for (name, unit) in PER_LAYER {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(per_layer.contains(&entry), "per_layer lacks {entry}");
    }
}
