//! `BENCHMARK.json` is the one place metric names, units, directions and
//! bounds are written down. It is compiled in, so the binary cannot drift
//! from the file the driver reads.

use netsession_obs::json::{parse, JsonValue};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median the metric may worsen by; `None` for
    /// per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Spec {
    pub fn load() -> Spec {
        let doc = parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<JsonValue> {
            doc.get(key)
                .and_then(JsonValue::as_arr)
                .unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` must be an array"))
                .to_vec()
        };
        let text = |v: &JsonValue, key: &str| -> String {
            v.get(key)
                .and_then(JsonValue::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json: missing string `{key}`"))
                .to_string()
        };
        let metrics = |key: &str| -> Vec<Metric> {
            list(key)
                .iter()
                .map(|m| Metric {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    higher_is_better: text(m, "better") == "higher",
                    bound: m.get("bound").and_then(JsonValue::as_f64),
                })
                .collect()
        };
        Spec {
            workloads: list("workloads").iter().map(|w| text(w, "name")).collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }
}
