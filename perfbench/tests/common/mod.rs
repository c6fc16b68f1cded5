//! Reads the metric declarations from `BENCHMARK.json` (no JSON crate:
//! the file's layout is fixed by the benchmark contract).

/// `(name, unit)` of every metric in one section of the `BENCHMARK.json`
/// at `path`.
pub fn declared(path: &str, section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\": \"")).expect("key present") + key.len() + 5;
        entry[at..at + entry[at..].find('"').expect("value closes")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}
