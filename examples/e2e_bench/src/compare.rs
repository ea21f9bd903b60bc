//! `compare A.json B.json`: apply the end-to-end bounds row by row.
//!
//! A and B are sets written by `run --repeat K --out`. For every workload
//! and end-to-end metric the row gives both medians, the ratio with its
//! base, both spreads, and a verdict:
//!
//! * `regressed`  — B's median is worse than A's by more than the bound;
//! * `unresolved` — either set's interquartile spread exceeds the bound, so
//!   the sets cannot tell a change of that size from noise (unless every B
//!   run reads better than every A run);
//! * `improved` / `unchanged` otherwise.

use crate::metrics::END_TO_END;
use crate::stats::{median, spread};
use crate::workloads::NAMES;
use protocol::json::Json;
use std::collections::BTreeMap;

type Samples = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &str) -> Result<Samples, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = protocol::json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or(format!("{path}: no \"runs\" array"))?;
    let mut samples = Samples::new();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("{path}: run without a workload"))?;
        let result = run
            .get("result")
            .ok_or(format!("{path}: run without a result"))?;
        if result.get("correct").and_then(Json::as_bool) != Some(true) {
            return Err(format!("{path}: a {workload} run failed its output checks"));
        }
        let Some(Json::Obj(metrics)) = result.get("metrics") else {
            return Err(format!("{path}: a {workload} run has no metrics"));
        };
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_num)
                .ok_or(format!("{path}: {workload}.{name} has no value"))?;
            samples
                .entry((workload.clone(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(samples)
}

/// The verdict for one row; every end-to-end metric is lower-is-better.
pub fn verdict(a: &[f64], b: &[f64], bound: f64) -> &'static str {
    let (ma, mb) = (median(a), median(b));
    let b_always_better = b.iter().all(|x| a.iter().all(|y| x < y));
    if (spread(a) > bound || spread(b) > bound) && !b_always_better {
        "unresolved"
    } else if mb > ma * (1.0 + bound) {
        "regressed"
    } else if mb < ma * (1.0 - bound) {
        "improved"
    } else {
        "unchanged"
    }
}

pub fn compare_files(a_path: &str, b_path: &str) -> Result<bool, String> {
    let a = load(a_path)?;
    let b = load(b_path)?;
    println!("base A = {a_path}, B = {b_path}; ratio = B median / A median");
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>8} {:>9} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "A spread", "B spread", "bound"
    );
    let mut ok = true;
    for workload in NAMES {
        for m in &END_TO_END {
            let key = (workload.to_string(), m.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                println!("{workload:<16} {:<16} missing from one set", m.name);
                ok = false;
                continue;
            };
            let v = verdict(va, vb, m.bound);
            ok &= v != "regressed" && v != "unresolved";
            let (ma, mb) = (median(va), median(vb));
            println!(
                "{workload:<16} {:<16} {ma:>14.6} {mb:>14.6} {:>8.4} {:>8.2}% {:>8.2}% {:>6.0}%  {v}",
                m.name,
                if ma != 0.0 { mb / ma } else { 0.0 },
                spread(va) * 100.0,
                spread(vb) * 100.0,
                m.bound * 100.0,
            );
        }
    }
    println!(
        "{}",
        if ok {
            "no row regressed, none unresolved"
        } else {
            "at least one row regressed or is unresolved"
        }
    );
    Ok(ok)
}
