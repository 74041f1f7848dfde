use comet_obs::json::{self, JsonValue};
use comet_perf::catalog::{valid_name, Metric, END_TO_END, PER_LAYER};
use comet_perf::workload::Workload;
use std::collections::BTreeSet;

fn benchmark() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(doc: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    match doc.get(key) {
        Some(JsonValue::Arr(items)) => items,
        other => panic!("{key} is not a list: {other:?}"),
    }
}

fn field<'a>(item: &'a JsonValue, key: &str) -> &'a str {
    item.get(key).and_then(JsonValue::as_str).unwrap_or_else(|| panic!("{item} has no {key}"))
}

fn assert_matches(entries: &[JsonValue], catalog: &[Metric]) {
    assert_eq!(entries.len(), catalog.len(), "metric count");
    for (entry, metric) in entries.iter().zip(catalog) {
        assert_eq!(field(entry, "name"), metric.name);
        assert_eq!(field(entry, "unit"), metric.unit, "{}", metric.name);
        assert_eq!(field(entry, "better"), metric.better.name(), "{}", metric.name);
        assert_eq!(entry.get("bound").and_then(JsonValue::as_f64), metric.bound, "{}", metric.name);
    }
}

#[test]
fn names_follow_the_charset() {
    let names: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|m| m.name)
        .chain(Workload::ALL.iter().map(|w| w.name()))
        .collect();
    for name in &names {
        assert!(valid_name(name), "{name}");
    }
    let unique: BTreeSet<&str> = names.iter().copied().collect();
    assert_eq!(unique.len(), names.len(), "names are used once");
    assert!(!valid_name(""));
    assert!(!valid_name("_leading"));
    assert!(!valid_name("has space"));
    assert!(!valid_name("slash/ed"));
    assert!(!valid_name(&"x".repeat(65)));
    assert!(valid_name(&"x".repeat(64)));
}

#[test]
fn benchmark_json_lists_exactly_the_catalogue() {
    let doc = benchmark();
    assert_matches(list(&doc, "end_to_end"), &END_TO_END);
    assert_matches(list(&doc, "per_layer"), &PER_LAYER);
    let workloads: Vec<&str> = list(&doc, "workloads").iter().map(|w| field(w, "name")).collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    let setup_bound = END_TO_END.iter().find(|m| m.name == "setup_s").and_then(|m| m.bound);
    for metric in &END_TO_END {
        assert!(metric.bound <= setup_bound, "setup_s has the largest bound");
        assert!(metric.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", metric.name);
    }
}
