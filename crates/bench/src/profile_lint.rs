//! Schema lint for `scale.profile.json` sidecars
//! (`netsession-shard-profile/1`), shared by `scale --lint-profile` and
//! the corrupted-sidecar tests.
//!
//! The lint is deliberately strict about the deterministic section's
//! shape: a missing or zero `shards` field is a **failure**, not a
//! vacuous pass. (An earlier version defaulted `shards` to 0 and then
//! accepted any sidecar whose `per_shard` array was empty — a corrupted
//! artifact would sail through the gate.)

use netsession_obs::json;

/// Validate a `scale.profile.json` sidecar: schema tag, a complete
/// deterministic section with at least one shard, and a volatile section
/// that stays in its lane.
pub fn lint_profile(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    lint_profile_text(&text).map_err(|e| format!("{path}: {e}"))
}

/// [`lint_profile`] over already-read JSON text (path-free messages).
pub fn lint_profile_text(text: &str) -> Result<(), String> {
    let v = json::parse(text).map_err(|e| e.to_string())?;
    match v.get("schema").and_then(|s| s.as_str()) {
        Some("netsession-shard-profile/1") => {}
        other => return Err(format!("bad schema tag {other:?}")),
    }
    let det = v
        .get("deterministic")
        .ok_or_else(|| "missing deterministic section".to_string())?;
    // Structural checks on the deterministic section, mirroring
    // `ImbalanceStats::parse_json`.
    for key in [
        "shards",
        "windows",
        "events",
        "critical_path_events",
        "speedup_ceiling",
        "split_busiest_ceiling",
        "skew",
    ] {
        if det.get(key).and_then(|x| x.as_f64()).is_none() {
            return Err(format!("deterministic.{key} missing"));
        }
    }
    // `shards` must be a positive integer: zero (or a non-integer) would
    // make the per_shard length check below vacuously true against an
    // empty array.
    let shards = match det.get("shards").and_then(|x| x.as_u64()) {
        Some(s) if s > 0 => s as usize,
        Some(0) => {
            return Err("deterministic.shards is 0: a profile without shards is corrupt".into())
        }
        _ => return Err("deterministic.shards missing or not a positive integer".into()),
    };
    match det.get("per_shard").and_then(|x| x.as_arr()) {
        Some(arr) if arr.len() == shards => {
            for (k, sh) in arr.iter().enumerate() {
                for key in ["shard", "regions", "peers", "events", "share_pct"] {
                    if sh.get(key).is_none() {
                        return Err(format!("per_shard[{k}].{key} missing"));
                    }
                }
            }
        }
        Some(arr) => {
            return Err(format!(
                "per_shard has {} entries, deterministic.shards says {shards}",
                arr.len()
            ))
        }
        None => return Err("per_shard missing or not an array".into()),
    }
    let vol = v
        .get("volatile")
        .ok_or_else(|| "missing volatile section".to_string())?;
    for key in [
        "mode",
        "cpus",
        "wall_critical_path_ms",
        "wall_speedup_ceiling",
    ] {
        if vol.get(key).is_none() {
            return Err(format!("volatile.{key} missing"));
        }
    }
    // `threads` (the runner's pool size) joined in issue 13; sidecars
    // written before it stay lintable. With fewer threads than shards,
    // `wait_ms` includes time queued behind the thread's other shards.
    if let Some(t) = vol.get("threads") {
        let sequential = vol.get("mode").and_then(|m| m.as_str()) == Some("sequential");
        match t.as_u64() {
            Some(t) if t == 0 || t as usize > shards => {
                return Err(format!("volatile.threads is {t}, outside 1..={shards}"))
            }
            Some(t) if sequential && t != 1 => {
                return Err(format!("volatile.threads is {t} in sequential mode"))
            }
            Some(_) => {}
            None => return Err("volatile.threads is not an integer".into()),
        }
    }
    // The separation rule, checked from the artifact side: nothing
    // wall-clock may appear inside the deterministic object.
    for leaked in [
        "threads",
        "busy_ms",
        "wait_ms",
        "merge_ms",
        "wall_s",
        "wall_critical_path_ms",
        "wall_speedup_ceiling",
    ] {
        if det.get(leaked).is_some() {
            return Err(format!(
                "volatile field {leaked} leaked into deterministic section"
            ));
        }
    }
    Ok(())
}
