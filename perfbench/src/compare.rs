//! Compares two record files metric by metric. Records from different host
//! shapes are never compared silently: every metric is reported unresolved,
//! with the reason. Two records of the same workload and seed must also
//! hold the same result bytes, whatever the host.

use std::fmt::Write as _;
use std::path::Path;

use gatest_telemetry::json::{parse_json, Json};

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_json(text.trim()).map_err(|e| format!("{}: {e}", path.display()))
}

fn host(doc: &Json) -> (u64, String) {
    let h = doc.get("host");
    (
        h.and_then(|h| h.get("nproc"))
            .and_then(Json::as_u64)
            .unwrap_or(0),
        h.and_then(|h| h.get("cpu_model"))
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string(),
    )
}

fn metrics(doc: &Json) -> Vec<(String, String, f64)> {
    ["end_to_end", "per_layer"]
        .iter()
        .filter_map(|k| doc.get(k).and_then(Json::as_array))
        .flatten()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("unit")?.as_str()?.to_string(),
                m.get("value")?.as_f64()?,
            ))
        })
        .collect()
}

fn info<'a>(doc: &'a Json, key: &str) -> Option<&'a str> {
    doc.get("info")?.get(key)?.as_str()
}

/// Whether two records' result bytes agree: `None` unless both are of the
/// same workload and seed and carry result hashes.
fn results_identical(a: &Json, b: &Json) -> Option<bool> {
    let same_input = ["workload", "seed"]
        .iter()
        .all(|k| info(a, k).is_some() && info(a, k) == info(b, k));
    let (ha, hb) = (info(a, "result_fnv1a")?, info(b, "result_fnv1a")?);
    same_input.then_some(ha == hb)
}

/// One line per metric of `a`: its value in both records and the change,
/// or `unresolved` with the reason.
pub fn compare_files(a: &Path, b: &Path) -> Result<String, String> {
    let (da, db) = (load(a)?, load(b)?);
    let (ha, hb) = (host(&da), host(&db));
    let unresolved = (ha != hb).then(|| {
        format!(
            "unresolved: host shape differs ({} CPUs, {} vs {} CPUs, {})",
            ha.0, ha.1, hb.0, hb.1
        )
    });
    let mb = metrics(&db);
    let mut out = String::new();
    for (name, unit, va) in metrics(&da) {
        let vb = mb.iter().find(|(n, _, _)| *n == name).map(|m| m.2);
        let verdict = match (&unresolved, vb) {
            (Some(reason), _) => reason.clone(),
            (None, None) => "unresolved: missing from the second record".into(),
            (None, Some(vb)) if va != 0.0 => format!("{:+.2}%", (vb - va) / va.abs() * 100.0),
            (None, Some(_)) => "unresolved: zero base".into(),
        };
        let vb = vb.map_or("-".to_string(), |v| format!("{v:.6}"));
        let _ = writeln!(out, "{name:<34} {unit:<6} {va:>16.6} {vb:>16} {verdict}");
    }
    match results_identical(&da, &db) {
        Some(true) => out.push_str("result bytes: identical\n"),
        Some(false) => {
            return Err(format!(
                "{out}result bytes: DIFFER for the same workload and seed"
            ))
        }
        None => out.push_str("result bytes: not compared (different workload or seed)\n"),
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, seed: &str, hash: &str) -> Json {
        parse_json(&format!(
            "{{\"info\":{{\"workload\":\"{workload}\",\"seed\":\"{seed}\",\"result_fnv1a\":\"{hash}\"}}}}"
        ))
        .expect("test record parses")
    }

    #[test]
    fn result_hashes_are_compared_only_for_the_same_input() {
        let a = record("atpg_s298", "1", "1:00ab");
        assert_eq!(
            results_identical(&a, &record("atpg_s298", "1", "1:00ab")),
            Some(true)
        );
        assert_eq!(
            results_identical(&a, &record("atpg_s298", "1", "1:00ac")),
            Some(false)
        );
        assert_eq!(
            results_identical(&a, &record("atpg_s298", "2", "2:00ac")),
            None
        );
        assert_eq!(
            results_identical(&a, &record("serve_open", "1", "00ab")),
            None
        );
    }
}
