//! Bench-regression tracking: diffing a run's `BENCH_*.json` reports
//! against the checked-in `BENCH_BASELINE.json`.
//!
//! Two kinds of guard, with deliberately different teeth:
//!
//! - **Absolute samples** (`ns_per_iter` per workload) are
//!   machine-dependent, so exceeding the baseline by more than the
//!   allowed factor only *warns* — unless the baseline marks the
//!   sample `"assert": true`, in which case it fails the diff (and CI).
//! - **Ratios** (one workload over another from the same run) cancel
//!   the machine out — profiled/unprofiled overhead, corrected/static
//!   speedup — so a ratio above its baselined `max` always fails.
//!
//! A workload present in the baseline but absent from the run warns
//! loudly instead of silently shrinking coverage. The renderer prints
//! a trajectory table (baseline → current, ratio, status) so a CI log
//! shows drift at a glance, not just the verdict.
//!
//! The baseline can also be *refreshed* from a run
//! ([`Baseline::refreshed`] + [`Baseline::render`], driven by
//! `bench_diff --write-baseline`): measured times are replaced, while
//! the hand-maintained structure — note, assert flags, regression
//! allowances, ratio definitions — is preserved verbatim.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde::json::{get_field, parse_json, Json};

/// Regression factor applied to absolute samples when the baseline
/// entry does not set its own `max_regression`.
pub const DEFAULT_MAX_REGRESSION: f64 = 1.5;

/// One baselined workload time.
#[derive(Clone, Debug)]
pub struct BaselineSample {
    /// Workload label, matching `BenchSample::name`.
    pub name: String,
    /// Baselined wall time per iteration, nanoseconds.
    pub ns_per_iter: f64,
    /// When true, exceeding the allowance fails the diff instead of
    /// warning. Reserve for workloads whose absolute time is stable
    /// enough to gate CI on.
    pub assert: bool,
    /// Allowed `current / baseline` factor before the sample trips.
    pub max_regression: f64,
}

/// One baselined intra-run ratio (machine-independent, always
/// asserted).
#[derive(Clone, Debug)]
pub struct BaselineRatio {
    /// Human label for the report, e.g. `o1_profiling_overhead`.
    pub name: String,
    /// Numerator workload label.
    pub num: String,
    /// Denominator workload label.
    pub den: String,
    /// Maximum allowed `num / den`.
    pub max: f64,
}

/// Baseline for one bench binary.
#[derive(Clone, Debug, Default)]
pub struct BaselineBench {
    /// Bench name, matching `emit_bench_json`'s `bench` field.
    pub bench: String,
    /// Absolute per-workload times.
    pub samples: Vec<BaselineSample>,
    /// Intra-run ratios.
    pub ratios: Vec<BaselineRatio>,
}

/// The parsed `BENCH_BASELINE.json`.
#[derive(Clone, Debug, Default)]
pub struct Baseline {
    /// Format version (currently 1).
    pub version: u64,
    /// Free-form maintenance note, preserved across refreshes.
    pub note: String,
    /// Per-bench baselines.
    pub benches: Vec<BaselineBench>,
}

fn as_f64(v: &Json) -> Option<f64> {
    match v {
        Json::Int(i) => Some(*i as f64),
        Json::UInt(u) => Some(*u as f64),
        Json::Float(f) => Some(*f),
        _ => None,
    }
}

fn as_str(v: &Json) -> Option<&str> {
    match v {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

fn str_field(obj: &[(String, Json)], name: &str, ctx: &str) -> Result<String, String> {
    get_field(obj, name)
        .and_then(as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("{ctx}: missing string field `{name}`"))
}

fn f64_field(obj: &[(String, Json)], name: &str, ctx: &str) -> Result<f64, String> {
    get_field(obj, name)
        .and_then(as_f64)
        .ok_or_else(|| format!("{ctx}: missing numeric field `{name}`"))
}

impl Baseline {
    /// Parses the baseline file. Unknown fields are ignored (the file
    /// is hand-maintained; forward-compatibility beats strictness).
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let root = parse_json(text).map_err(|e| format!("baseline: {}", e.0))?;
        let obj = root.as_object().ok_or("baseline: root must be an object")?;
        let version = get_field(obj, "version")
            .and_then(as_f64)
            .ok_or("baseline: missing `version`")? as u64;
        let note = get_field(obj, "note")
            .and_then(as_str)
            .unwrap_or("")
            .to_owned();
        let mut benches = Vec::new();
        let list = get_field(obj, "benches")
            .and_then(Json::as_array)
            .ok_or("baseline: missing `benches` array")?;
        for b in list {
            let bo = b.as_object().ok_or("baseline: bench must be an object")?;
            let bench = str_field(bo, "bench", "baseline bench")?;
            let ctx = |what: &str| format!("baseline {bench}: {what}");
            let mut samples = Vec::new();
            if let Some(ss) = get_field(bo, "samples").and_then(Json::as_array) {
                for s in ss {
                    let so = s.as_object().ok_or_else(|| ctx("sample not an object"))?;
                    samples.push(BaselineSample {
                        name: str_field(so, "name", &bench)?,
                        ns_per_iter: f64_field(so, "ns_per_iter", &bench)?,
                        assert: matches!(get_field(so, "assert"), Some(Json::Bool(true))),
                        max_regression: get_field(so, "max_regression")
                            .and_then(as_f64)
                            .unwrap_or(DEFAULT_MAX_REGRESSION),
                    });
                }
            }
            let mut ratios = Vec::new();
            if let Some(rs) = get_field(bo, "ratios").and_then(Json::as_array) {
                for r in rs {
                    let ro = r.as_object().ok_or_else(|| ctx("ratio not an object"))?;
                    ratios.push(BaselineRatio {
                        name: str_field(ro, "name", &bench)?,
                        num: str_field(ro, "num", &bench)?,
                        den: str_field(ro, "den", &bench)?,
                        max: f64_field(ro, "max", &bench)?,
                    });
                }
            }
            benches.push(BaselineBench {
                bench,
                samples,
                ratios,
            });
        }
        Ok(Baseline {
            version,
            note,
            benches,
        })
    }

    /// A copy of this baseline with every sample's `ns_per_iter`
    /// replaced by the current run's measurement. Workloads the run did
    /// not produce keep their old value and are returned so the caller
    /// can warn about stale coverage; ratio definitions (being bounds,
    /// not measurements) pass through untouched.
    pub fn refreshed(
        &self,
        current: &BTreeMap<String, BTreeMap<String, f64>>,
    ) -> (Baseline, Vec<String>) {
        let mut out = self.clone();
        let mut stale = Vec::new();
        for b in &mut out.benches {
            let run = current.get(&b.bench);
            for s in &mut b.samples {
                match run.and_then(|r| r.get(&s.name)) {
                    Some(&ns) => s.ns_per_iter = ns,
                    None => stale.push(format!("{}/{}", b.bench, s.name)),
                }
            }
        }
        (out, stale)
    }

    /// Re-emits the baseline in the checked-in file's layout (one line
    /// per sample and ratio), so a `--write-baseline` refresh reviews
    /// as a minimal diff. `assert` and `max_regression` are written
    /// only where they deviate from the defaults, mirroring how the
    /// parser reads them.
    pub fn render(&self) -> String {
        let num = |v: f64| {
            if v == v.trunc() && v.abs() < 1e15 {
                format!("{v:.1}")
            } else {
                format!("{v}")
            }
        };
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"version\": {},", self.version);
        let _ = writeln!(out, "  \"note\": \"{}\",", crate::json_escape(&self.note));
        let _ = writeln!(out, "  \"benches\": [");
        for (bi, b) in self.benches.iter().enumerate() {
            let _ = writeln!(out, "    {{");
            let _ = writeln!(
                out,
                "      \"bench\": \"{}\",",
                crate::json_escape(&b.bench)
            );
            let _ = write!(out, "      \"samples\": [");
            for (si, s) in b.samples.iter().enumerate() {
                let comma = if si + 1 < b.samples.len() { "," } else { "" };
                let mut extra = String::new();
                if s.assert {
                    extra.push_str(", \"assert\": true");
                }
                if (s.max_regression - DEFAULT_MAX_REGRESSION).abs() > f64::EPSILON {
                    let _ = write!(extra, ", \"max_regression\": {}", num(s.max_regression));
                }
                let _ = write!(
                    out,
                    "\n        {{\"name\": \"{}\", \"ns_per_iter\": {}{extra}}}{comma}",
                    crate::json_escape(&s.name),
                    num(s.ns_per_iter),
                );
            }
            let _ = writeln!(
                out,
                "\n      ]{}",
                if b.ratios.is_empty() { "" } else { "," }
            );
            if !b.ratios.is_empty() {
                let _ = write!(out, "      \"ratios\": [");
                for (ri, r) in b.ratios.iter().enumerate() {
                    let comma = if ri + 1 < b.ratios.len() { "," } else { "" };
                    let _ = write!(
                        out,
                        "\n        {{\"name\": \"{}\", \"num\": \"{}\", \"den\": \"{}\", \"max\": {}}}{comma}",
                        crate::json_escape(&r.name),
                        crate::json_escape(&r.num),
                        crate::json_escape(&r.den),
                        num(r.max),
                    );
                }
                let _ = writeln!(out, "\n      ]");
            }
            let _ = writeln!(
                out,
                "    }}{}",
                if bi + 1 < self.benches.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }
}

/// Parses one `BENCH_<name>.json` report emitted by `emit_bench_json`
/// into `(bench, workload → ns_per_iter)`.
pub fn parse_report(text: &str) -> Result<(String, BTreeMap<String, f64>), String> {
    let root = parse_json(text).map_err(|e| format!("report: {}", e.0))?;
    let obj = root.as_object().ok_or("report: root must be an object")?;
    let bench = str_field(obj, "bench", "report")?;
    let mut samples = BTreeMap::new();
    let list = get_field(obj, "samples")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("report {bench}: missing `samples` array"))?;
    for s in list {
        let so = s
            .as_object()
            .ok_or_else(|| format!("report {bench}: sample not an object"))?;
        samples.insert(
            str_field(so, "name", &bench)?,
            f64_field(so, "ns_per_iter", &bench)?,
        );
    }
    Ok((bench, samples))
}

/// Verdict for one checked line of the diff.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Status {
    /// Within the allowance.
    Ok,
    /// Faster than baseline by more than the allowance — worth
    /// refreshing the baseline, but never an error.
    Improved,
    /// Regressed past the allowance on an unasserted sample, or the
    /// workload went missing from the run.
    Warn,
    /// Regressed past the allowance on an asserted sample or ratio.
    Fail,
}

/// One line of the trajectory table.
#[derive(Clone, Debug)]
pub struct Row {
    /// `bench/workload` (or `bench/ratio-name`).
    pub label: String,
    /// Baselined value (ns for samples, unitless for ratios).
    pub baseline: f64,
    /// Observed value this run, when present.
    pub current: Option<f64>,
    /// `current / baseline` for samples, `observed / max` for ratios.
    pub ratio: Option<f64>,
    /// Verdict.
    pub status: Status,
    /// One-line explanation for non-Ok rows.
    pub note: String,
}

/// The full diff outcome.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Every checked line, baseline order.
    pub rows: Vec<Row>,
    /// Count of `Status::Warn` rows.
    pub warnings: usize,
    /// Count of `Status::Fail` rows.
    pub failures: usize,
}

impl Report {
    /// Whether CI should pass.
    pub fn passed(&self) -> bool {
        self.failures == 0
    }

    /// The trajectory table plus the verdict line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<44} {:>12} {:>12} {:>8}  status",
            "workload", "baseline", "current", "ratio"
        );
        for r in &self.rows {
            let fmt_v = |v: f64| {
                if v >= 1e6 {
                    format!("{:.2}ms", v / 1e6)
                } else if v >= 1e3 {
                    format!("{:.2}µs", v / 1e3)
                } else {
                    format!("{v:.2}")
                }
            };
            let current = r.current.map_or("—".to_owned(), fmt_v);
            let ratio = r.ratio.map_or("—".to_owned(), |x| format!("{x:.3}×"));
            let status = match r.status {
                Status::Ok => "ok",
                Status::Improved => "improved",
                Status::Warn => "WARN",
                Status::Fail => "FAIL",
            };
            let _ = writeln!(
                out,
                "{:<44} {:>12} {:>12} {:>8}  {}{}{}",
                r.label,
                fmt_v(r.baseline),
                current,
                ratio,
                status,
                if r.note.is_empty() { "" } else { " — " },
                r.note
            );
        }
        let _ = writeln!(
            out,
            "bench-diff: {} checked, {} warnings, {} failures → {}",
            self.rows.len(),
            self.warnings,
            self.failures,
            if self.passed() { "PASS" } else { "FAIL" }
        );
        out
    }
}

/// Diffs a run's reports (`bench → workload → ns_per_iter`) against
/// the baseline.
pub fn diff(baseline: &Baseline, current: &BTreeMap<String, BTreeMap<String, f64>>) -> Report {
    let mut report = Report::default();
    let mut push = |row: Row| {
        match row.status {
            Status::Warn => report.warnings += 1,
            Status::Fail => report.failures += 1,
            _ => {}
        }
        report.rows.push(row);
    };
    for b in &baseline.benches {
        let run = current.get(&b.bench);
        for s in &b.samples {
            let label = format!("{}/{}", b.bench, s.name);
            let Some(cur) = run.and_then(|r| r.get(&s.name)).copied() else {
                push(Row {
                    label,
                    baseline: s.ns_per_iter,
                    current: None,
                    ratio: None,
                    status: Status::Warn,
                    note: "workload missing from this run".into(),
                });
                continue;
            };
            let ratio = cur / s.ns_per_iter.max(f64::MIN_POSITIVE);
            let (status, note) = if ratio > s.max_regression {
                if s.assert {
                    (
                        Status::Fail,
                        format!("asserted sample regressed >{:.2}×", s.max_regression),
                    )
                } else {
                    (
                        Status::Warn,
                        format!(
                            "regressed >{:.2}× (machine-dependent, not asserted)",
                            s.max_regression
                        ),
                    )
                }
            } else if ratio < 1.0 / s.max_regression {
                (Status::Improved, "consider refreshing the baseline".into())
            } else {
                (Status::Ok, String::new())
            };
            push(Row {
                label,
                baseline: s.ns_per_iter,
                current: Some(cur),
                ratio: Some(ratio),
                status,
                note,
            });
        }
        for r in &b.ratios {
            let label = format!("{}/{}", b.bench, r.name);
            let (num, den) = match run {
                Some(rn) => (rn.get(&r.num).copied(), rn.get(&r.den).copied()),
                None => (None, None),
            };
            let (Some(num), Some(den)) = (num, den) else {
                push(Row {
                    label,
                    baseline: r.max,
                    current: None,
                    ratio: None,
                    status: Status::Warn,
                    note: format!("{} or {} missing from this run", r.num, r.den),
                });
                continue;
            };
            let observed = num / den.max(f64::MIN_POSITIVE);
            let over = observed > r.max;
            push(Row {
                label,
                baseline: r.max,
                current: Some(observed),
                ratio: Some(observed / r.max),
                status: if over { Status::Fail } else { Status::Ok },
                note: if over {
                    format!(
                        "{}/{} = {observed:.3} exceeds max {:.3}",
                        r.num, r.den, r.max
                    )
                } else {
                    String::new()
                },
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{
      "version": 1,
      "note": "hand-maintained",
      "benches": [
        {
          "bench": "q1_planner",
          "samples": [
            {"name": "planned_point_select", "ns_per_iter": 1000.0},
            {"name": "gated_workload", "ns_per_iter": 2000.0, "assert": true, "max_regression": 1.5}
          ],
          "ratios": [
            {"name": "overhead", "num": "profiled", "den": "unprofiled", "max": 1.2}
          ]
        }
      ]
    }"#;

    fn run(entries: &[(&str, f64)]) -> BTreeMap<String, BTreeMap<String, f64>> {
        let mut m = BTreeMap::new();
        m.insert(
            "q1_planner".to_owned(),
            entries.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect(),
        );
        m
    }

    #[test]
    fn baseline_round_trips() {
        let b = Baseline::parse(BASELINE).unwrap();
        assert_eq!(b.version, 1);
        assert_eq!(b.benches.len(), 1);
        let q1 = &b.benches[0];
        assert_eq!(q1.samples.len(), 2);
        assert!(!q1.samples[0].assert);
        assert_eq!(q1.samples[0].max_regression, DEFAULT_MAX_REGRESSION);
        assert!(q1.samples[1].assert);
        assert_eq!(q1.ratios.len(), 1);
        assert_eq!(q1.ratios[0].max, 1.2);
    }

    #[test]
    fn report_round_trips() {
        let text = r#"{
          "bench": "o1_obs_overhead",
          "short_mode": true,
          "samples": [
            {"name": "unprofiled_q1_workload", "iters": 10, "ns_per_iter": 200000.0},
            {"name": "profiled_q1_workload", "iters": 10, "ns_per_iter": 8000.0}
          ]
        }"#;
        let (bench, samples) = parse_report(text).unwrap();
        assert_eq!(bench, "o1_obs_overhead");
        assert_eq!(samples["unprofiled_q1_workload"], 200_000.0);
        assert_eq!(samples["profiled_q1_workload"], 8_000.0);
    }

    #[test]
    fn within_allowance_passes() {
        let b = Baseline::parse(BASELINE).unwrap();
        let r = diff(
            &b,
            &run(&[
                ("planned_point_select", 1_200.0),
                ("gated_workload", 2_400.0),
                ("profiled", 110.0),
                ("unprofiled", 100.0),
            ]),
        );
        assert!(r.passed(), "{}", r.render());
        assert_eq!(r.warnings, 0);
    }

    #[test]
    fn synthetic_regression_on_asserted_sample_fails() {
        let b = Baseline::parse(BASELINE).unwrap();
        // Inject a 2× regression on the asserted workload.
        let r = diff(
            &b,
            &run(&[
                ("planned_point_select", 1_000.0),
                ("gated_workload", 4_000.0),
                ("profiled", 100.0),
                ("unprofiled", 100.0),
            ]),
        );
        assert!(!r.passed(), "2× on an asserted sample must fail");
        assert_eq!(r.failures, 1);
        assert!(r.render().contains("FAIL"));
    }

    #[test]
    fn regression_on_unasserted_sample_only_warns() {
        let b = Baseline::parse(BASELINE).unwrap();
        let r = diff(
            &b,
            &run(&[
                ("planned_point_select", 5_000.0),
                ("gated_workload", 2_000.0),
                ("profiled", 100.0),
                ("unprofiled", 100.0),
            ]),
        );
        assert!(r.passed(), "machine-dependent samples must not gate CI");
        assert_eq!(r.warnings, 1);
        assert!(r.render().contains("WARN"));
    }

    #[test]
    fn ratio_breach_always_fails() {
        let b = Baseline::parse(BASELINE).unwrap();
        let r = diff(
            &b,
            &run(&[
                ("planned_point_select", 1_000.0),
                ("gated_workload", 2_000.0),
                ("profiled", 150.0),
                ("unprofiled", 100.0),
            ]),
        );
        assert!(!r.passed(), "1.5 overhead against max 1.2 must fail");
        assert_eq!(r.failures, 1);
    }

    #[test]
    fn missing_workload_warns_loudly() {
        let b = Baseline::parse(BASELINE).unwrap();
        let r = diff(&b, &run(&[("planned_point_select", 1_000.0)]));
        assert!(r.passed(), "missing coverage warns, never silently fails");
        // gated_workload missing + ratio operands missing.
        assert_eq!(r.warnings, 2);
        assert!(r.render().contains("missing"));
    }

    #[test]
    fn refresh_round_trips_and_preserves_structure() {
        let b = Baseline::parse(BASELINE).unwrap();
        let (fresh, stale) = b.refreshed(&run(&[
            ("planned_point_select", 1_234.5),
            ("profiled", 110.0),
        ]));
        // The unmeasured workload keeps its old value and is reported.
        assert_eq!(stale, vec!["q1_planner/gated_workload".to_owned()]);
        let reparsed = Baseline::parse(&fresh.render()).unwrap();
        assert_eq!(reparsed.note, "hand-maintained");
        let q1 = &reparsed.benches[0];
        assert_eq!(q1.samples[0].ns_per_iter, 1_234.5);
        assert_eq!(q1.samples[1].ns_per_iter, 2_000.0);
        assert!(q1.samples[1].assert, "assert flag must survive a refresh");
        assert_eq!(q1.samples[1].max_regression, 1.5);
        assert_eq!(q1.ratios.len(), 1);
        assert_eq!(q1.ratios[0].max, 1.2);
        // A refresh of a refresh is byte-stable.
        assert_eq!(reparsed.render(), fresh.render());
    }

    #[test]
    fn improvement_is_flagged_for_baseline_refresh() {
        let b = Baseline::parse(BASELINE).unwrap();
        let r = diff(
            &b,
            &run(&[
                ("planned_point_select", 100.0),
                ("gated_workload", 2_000.0),
                ("profiled", 100.0),
                ("unprofiled", 100.0),
            ]),
        );
        assert!(r.passed());
        assert!(r.rows.iter().any(|row| row.status == Status::Improved));
    }
}
