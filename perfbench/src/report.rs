//! Turns a [`Record`] into the named metrics.

use crate::drive::{Kind, Pass, Record};
use crate::jobs::{Counters, JobOutcome, Modeled};
use crate::spans::{self_times, Span};
use crate::stats::{geomean, iqr, median, quantile, tail};
use dchm_bench::{Measurement, RunStats};
use std::collections::BTreeMap;

/// The catalog's program names, in the paper's Table 1 order.
pub const PROGRAMS: [&str; 7] = [
    "SalaryDB",
    "SimLogic",
    "CSVToXML",
    "Java2XHTML",
    "Weka",
    "SPECjbb2000",
    "SPECjbb2005",
];

/// `(name, value, unit)` in emission order.
pub type Metrics = Vec<(String, f64, &'static str)>;

fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

fn ms(ns: u64) -> f64 {
    ns as f64 * 1e-6
}

/// Divides, reading 0/0 as 0 (a layer that did no work).
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

impl Record {
    fn untraced(&self) -> impl Iterator<Item = &Pass> {
        self.passes.iter().filter(|p| !p.traced)
    }

    fn traced(&self) -> impl Iterator<Item = &Pass> {
        self.passes.iter().filter(|p| p.traced)
    }

    /// Every job the run attempted.
    fn all_jobs(&self) -> impl Iterator<Item = &JobOutcome> {
        self.passes
            .iter()
            .chain(&self.baseline_passes)
            .flat_map(|p| &p.jobs)
            .chain(&self.extra_jobs)
    }

    pub fn attempted(&self) -> u64 {
        self.all_jobs().count() as u64
    }

    pub fn failed(&self) -> u64 {
        self.all_jobs().filter(|j| j.error.is_some()).count() as u64
    }

    /// Job errors (deduplicated) followed by the run's own check failures.
    pub fn problems(&self) -> Vec<String> {
        let mut out: Vec<String> = self.all_jobs().filter_map(|j| j.error.clone()).collect();
        out.dedup();
        out.extend(self.errors.iter().cloned());
        out
    }

    /// Summed `Workload` run wall of one side of a pass, scaled to one run
    /// per distinct program.
    fn side_secs(&self, p: &Pass, mutated: bool) -> Option<f64> {
        let runs: Vec<u64> = p
            .jobs
            .iter()
            .filter(|j| j.mutated == mutated)
            .map(|j| j.run_ns)
            .collect();
        (!runs.is_empty())
            .then(|| secs(runs.iter().sum()) * self.subjects.len() as f64 / runs.len() as f64)
    }

    /// Passes holding the mutation-off runs.
    fn baseline_source(&self) -> Vec<&Pass> {
        match self.opts.kind {
            Kind::Fig9 => self.untraced().collect(),
            Kind::Cold | Kind::Warm => self.baseline_passes.iter().collect(),
        }
    }

    /// Sum over the distinct programs of each one's median `Workload` run
    /// wall on one side. A per-program median keeps one slow run of one
    /// program from moving the figure.
    fn side_run_s(&self, passes: &[&Pass], mutated: bool) -> f64 {
        let mut runs: Vec<Vec<f64>> = vec![Vec::new(); self.subjects.len()];
        for j in passes
            .iter()
            .flat_map(|p| &p.jobs)
            .filter(|j| j.mutated == mutated)
        {
            runs[j.subject].push(secs(j.run_ns));
        }
        runs.iter().map(|v| median(v)).sum()
    }

    fn baseline_run_s(&self) -> f64 {
        self.side_run_s(&self.baseline_source(), false)
    }

    fn mutated_run_s(&self) -> f64 {
        self.side_run_s(&self.untraced().collect::<Vec<_>>(), true)
    }

    /// Jobs counted as tenants: every job of the untraced timed passes.
    fn tenant_jobs(&self) -> impl Iterator<Item = &JobOutcome> {
        self.untraced().flat_map(|p| &p.jobs)
    }

    fn service_ms(&self) -> Vec<f64> {
        self.tenant_jobs().map(|j| ms(j.service_ns)).collect()
    }

    /// Median over passes of jobs completed per second of pass wall.
    fn tenants_per_s(&self) -> f64 {
        median(
            &self
                .untraced()
                .map(|p| p.jobs.len() as f64 / secs(p.wall_ns))
                .collect::<Vec<_>>(),
        )
    }

    /// The Fig. 9 measurement of each subject with both sides' modeled
    /// results.
    fn modeled(&self) -> Vec<Measurement> {
        self.modeled
            .iter()
            .zip(&self.subjects)
            .filter_map(|(sides, s)| {
                let [Some(b), Some(m)] = sides else {
                    return None;
                };
                let stats = |m: &Modeled| RunStats {
                    total_cycles: m.total_cycles,
                    ..Default::default()
                };
                Some(Measurement {
                    name: s.name(),
                    base: stats(b),
                    mutated: stats(m),
                    base_warehouses: b.warehouses.clone(),
                    mutated_warehouses: m.warehouses.clone(),
                })
            })
            .collect()
    }

    /// Per catalog program: median modeled speedup over its subjects.
    fn modeled_by_program(&self) -> BTreeMap<&'static str, f64> {
        let mut by: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for m in self.modeled() {
            by.entry(m.name).or_default().push(m.speedup());
        }
        by.into_iter().map(|(k, v)| (k, median(&v))).collect()
    }

    /// Per catalog program: host-wall speedups `base / mutated - 1`, one per
    /// mutated run. Fig. 9 pairs the two runs of the same round; tenants
    /// divide the subject's median solo baseline run by each tenant run.
    fn wall_by_program(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut by: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        match self.opts.kind {
            Kind::Fig9 => {
                for p in self.untraced() {
                    for (si, s) in self.subjects.iter().enumerate() {
                        let run = |m: bool| {
                            p.jobs
                                .iter()
                                .find(|j| j.subject == si && j.mutated == m)
                                .map(|j| j.run_ns)
                        };
                        if let (Some(b), Some(m)) = (run(false), run(true)) {
                            by.entry(s.name())
                                .or_default()
                                .push(b as f64 / m as f64 - 1.0);
                        }
                    }
                }
            }
            Kind::Cold | Kind::Warm => {
                let mut base: Vec<Vec<f64>> = vec![Vec::new(); self.subjects.len()];
                for j in self.baseline_passes.iter().flat_map(|p| &p.jobs) {
                    base[j.subject].push(j.run_ns as f64);
                }
                let base: Vec<f64> = base.iter().map(|v| median(v)).collect();
                for j in self.tenant_jobs() {
                    by.entry(self.subjects[j.subject].name())
                        .or_default()
                        .push(base[j.subject] / j.run_ns as f64 - 1.0);
                }
            }
        }
        by
    }

    /// The end-to-end metrics (untraced passes).
    pub fn end_to_end(&self) -> Metrics {
        let service = self.service_ms();
        let (_, tail_ms) = tail(&service);
        let modeled: Vec<f64> = self
            .modeled_by_program()
            .values()
            .map(|s| 1.0 + s)
            .collect();
        vec![
            ("setup_s".into(), median(&self.setup_s), "s"),
            (
                "offline_s".into(),
                self.offline_walls.iter().map(|v| median(v)).sum(),
                "s",
            ),
            ("baseline_run_s".into(), self.baseline_run_s(), "s"),
            ("mutated_run_s".into(), self.mutated_run_s(), "s"),
            ("modeled_speedup".into(), geomean(&modeled), "x"),
            ("tenants_per_s".into(), self.tenants_per_s(), "1/s"),
            ("tenant_p50_ms".into(), median(&service), "ms"),
            ("tenant_tail_ms".into(), tail_ms, "ms"),
            ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
        ]
    }

    /// The per-layer metrics (traced run). Run-phase values are per traced
    /// pass; offline and replay values are per run.
    pub fn per_layer(&self, problems: &mut Vec<String>) -> Metrics {
        let spans = self.spans();
        let selfs = match self_times(&spans) {
            Ok((by_name, _)) => by_name,
            Err(e) => {
                problems.push(format!("span tree: {e}"));
                BTreeMap::new()
            }
        };
        let self_ns = |name: &str| selfs.get(name).map_or(0, |v| v.0);
        let calls = |name: &str| selfs.get(name).map_or(0, |v| v.1);
        let t = self.traced().count().max(1) as f64;
        let per = |x: f64| x / t;
        let mut c = Counters::default();
        for j in self.traced().flat_map(|p| &p.jobs) {
            if let Some(jc) = &j.counters {
                c += **jc;
            }
        }
        let hooks = [
            "engine.on_instance_store",
            "engine.on_static_store",
            "engine.on_ctor_exit",
            "engine.on_recompiled",
        ];
        let hook_self: u64 = hooks.iter().map(|h| self_ns(h)).sum();
        let hook_calls: u64 = hooks.iter().map(|h| calls(h)).sum();
        let interp = self_ns("vm.run");
        let builds: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "workloads.build")
            .map(|s| ms(s.dur()))
            .collect();
        let hot_states: usize = self
            .subjects
            .iter()
            .flat_map(|s| &s.prepared.plan.classes)
            .map(|c| c.hot_states.len())
            .sum();
        let untraced: Vec<&Pass> = self.untraced().collect();
        let busy: Vec<f64> = untraced
            .iter()
            .map(|p| {
                let service: u64 = p.jobs.iter().map(|j| j.service_ns).sum();
                service as f64 / (p.workers as f64 * p.wall_ns as f64)
            })
            .collect();
        let drain: Vec<f64> = untraced
            .iter()
            .map(|p| {
                let mut last: BTreeMap<usize, u64> = BTreeMap::new();
                for j in &p.jobs {
                    let e = last.entry(j.shard).or_default();
                    *e = (*e).max(j.end_ns);
                }
                let lo = last.values().min().copied().unwrap_or(0);
                let hi = last.values().max().copied().unwrap_or(0);
                ms(hi - lo)
            })
            .collect();
        let shared_inserts: u64 = self.traced().map(|p| p.shared_inserts).sum();
        let shared_evictions: u64 = self.traced().map(|p| p.shared_evictions).sum();
        let overhead: Vec<f64> = self
            .passes
            .chunks(2)
            .filter(|pair| pair.len() == 2)
            .map(|pair| {
                let (tr, un) = if pair[0].traced {
                    (&pair[0], &pair[1])
                } else {
                    (&pair[1], &pair[0])
                };
                tr.wall_ns as f64 / un.wall_ns as f64 - 1.0
            })
            .collect();
        let service = self.service_ms();
        let (tail_pct, _) = tail(&service);
        let attempted = self.attempted() as f64;

        let ic_lookups = (c.ic_hits + c.ic_misses) as f64;
        let local_lookups = (c.local_hits + c.local_misses) as f64;
        let shared_lookups = (c.shared_hits + c.shared_misses) as f64;
        let mut m: Metrics = vec![
            ("workloads.build_ms".into(), median(&builds), "ms"),
            (
                "profile.hot_methods_s".into(),
                secs(self_ns("profile.hot_methods")),
                "s",
            ),
            (
                "profile.field_values_s".into(),
                secs(self_ns("profile.field_values")),
                "s",
            ),
            (
                "analysis.state_fields_ms".into(),
                ms(self_ns("analysis.state_fields")),
                "ms",
            ),
            (
                "analysis.build_plan_ms".into(),
                ms(self_ns("analysis.build_plan")),
                "ms",
            ),
            ("olc.analyze_ms".into(), ms(self_ns("olc.analyze")), "ms"),
            ("analysis.hot_states".into(), hot_states as f64, "count"),
            (
                "engine.install_ms".into(),
                per(ms(self_ns("engine.install"))),
                "ms",
            ),
            ("engine.hook_calls".into(), per(hook_calls as f64), "count"),
            ("engine.hook_self_ms".into(), per(ms(hook_self)), "ms"),
            ("engine.tib_flips".into(), per(c.tib_flips as f64), "count"),
            ("vm.new_ms".into(), per(ms(self_ns("vm.new"))), "ms"),
            (
                "vm.attach_shared_ms".into(),
                per(ms(self_ns("vm.attach_shared"))),
                "ms",
            ),
            ("interp.self_s".into(), per(secs(interp)), "s"),
            ("interp.ops".into(), per(c.ops as f64), "count"),
            (
                "interp.ns_per_op".into(),
                ratio(interp as f64, c.ops as f64),
                "ns/op",
            ),
            (
                "interp.ic_hit_rate".into(),
                ratio(c.ic_hits as f64, ic_lookups),
                "frac",
            ),
            ("interp.ic_lookups".into(), per(ic_lookups), "count"),
            ("interp.ic_misses".into(), per(c.ic_misses as f64), "count"),
            ("compile.wall_ms".into(), per(ms(c.compile_wall_ns)), "ms"),
            (
                "compile.requests".into(),
                per(c.compile_requests as f64),
                "count",
            ),
            (
                "compile.special_count".into(),
                per(c.special_compiles as f64),
                "count",
            ),
            ("compile.code_bytes".into(), per(c.code_bytes as f64), "B"),
            (
                "compile.replay_opt0_ms".into(),
                ms(self_ns("compile.replay_opt0")),
                "ms",
            ),
            (
                "compile.replay_opt1_ms".into(),
                ms(self_ns("compile.replay_opt1")),
                "ms",
            ),
            (
                "compile.replay_opt2_ms".into(),
                ms(self_ns("compile.replay_opt2")),
                "ms",
            ),
            (
                "compile.replay_special_ms".into(),
                ms(self_ns("compile.replay_special")),
                "ms",
            ),
            ("ir.lift_ms".into(), ms(self_ns("ir.lift")), "ms"),
            (
                "codecache.local_hit_rate".into(),
                ratio(c.local_hits as f64, local_lookups),
                "frac",
            ),
            (
                "codecache.local_lookups".into(),
                per(local_lookups),
                "count",
            ),
            (
                "shared.hit_rate".into(),
                ratio(c.shared_hits as f64, shared_lookups),
                "frac",
            ),
            ("shared.lookups".into(), per(shared_lookups), "count"),
            ("shared.inserts".into(), per(shared_inserts as f64), "count"),
            (
                "shared.evictions".into(),
                per(shared_evictions as f64),
                "count",
            ),
            ("fleet.busy_frac".into(), median(&busy), "frac"),
            ("fleet.drain_ms".into(), median(&drain), "ms"),
            ("heap.gc_count".into(), per(c.gc_count as f64), "count"),
            (
                "heap.bytes_allocated".into(),
                per(c.bytes_allocated as f64),
                "B",
            ),
        ];
        let modeled = self.modeled_by_program();
        let wall = self.wall_by_program();
        let wall_ratios: Vec<f64> = wall.values().map(|v| 1.0 + median(v)).collect();
        m.push(("fig9.wall_speedup".into(), geomean(&wall_ratios), "x"));
        for p in PROGRAMS {
            let w = wall.get(p).map(Vec::as_slice).unwrap_or(&[]);
            m.push((format!("fig9.{p}.wall_speedup"), median(w), "frac"));
            m.push((format!("fig9.{p}.wall_speedup_iqr"), iqr(w), "frac"));
            m.push((
                format!("fig9.{p}.modeled_speedup"),
                modeled.get(p).copied().unwrap_or(f64::NAN),
                "frac",
            ));
        }
        m.push(("trace.overhead_frac".into(), median(&overhead), "frac"));
        m.push((
            "run.failed_frac".into(),
            ratio(self.failed() as f64, attempted),
            "frac",
        ));
        m.push(("tenant.tail_pct".into(), tail_pct, "pct"));
        m.push(("tenant.samples".into(), service.len() as f64, "count"));
        m
    }

    /// Per-pass values behind the run-wall medians, for the readable output.
    pub fn pass_lines(&self) -> Vec<String> {
        let fmt = |v: Vec<f64>| {
            v.iter()
                .map(|x| format!("{x:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        let base = self
            .baseline_source()
            .iter()
            .filter_map(|p| self.side_secs(p, false))
            .collect();
        let service = self.service_ms();
        let pct = [50.0, 90.0, 99.0, 99.5, 99.9, 100.0]
            .map(|p| format!("p{p}={:.3}", quantile(&service, p / 100.0)))
            .join(" ");
        vec![
            format!("job service time (ms, n={}): {pct}", service.len()),
            format!("baseline runs summed per pass (s): {}", fmt(base)),
            format!(
                "mutated runs summed per pass (s): {}",
                fmt(self
                    .untraced()
                    .filter_map(|p| self.side_secs(p, true))
                    .collect())
            ),
        ]
    }

    /// All spans of the run with parent ids rebased into one list.
    pub fn spans(&self) -> Vec<Span> {
        rebase(&self.main.spans, &self.pass_spans)
    }
}

fn rebase(main: &[Span], lanes: &[crate::spans::Lane]) -> Vec<Span> {
    let mut out = main.to_vec();
    for l in lanes {
        let base = out.len();
        out.extend(l.spans.iter().cloned().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::{run, Options};
    use dchm_workloads::{catalog, Scale};

    /// At seed 0 the per-program modeled speedups are exactly the ones
    /// `repro fig9` prints (same pipeline, same configuration, same formula).
    #[test]
    fn seed_zero_modeled_speedups_equal_the_reproduction() {
        let rec = run(Options {
            kind: Kind::Fig9,
            seed: 0,
            seconds: 0.01,
            traced: false,
            smoke: true,
        });
        let problems = rec.problems();
        let ours = rec.modeled_by_program();
        assert!(problems.is_empty(), "{problems:?}");
        for w in catalog(Scale::Small) {
            let repro = dchm_bench::measure(&w, false).speedup();
            assert_eq!(ours[w.name], repro, "{}", w.name);
        }
    }

    #[test]
    fn traced_run_accounts_for_its_wall() {
        let rec = run(Options {
            kind: Kind::Warm,
            seed: 2,
            seconds: 0.01,
            traced: true,
            smoke: true,
        });
        let mut problems = rec.problems();
        let metrics = rec.per_layer(&mut problems);
        assert!(problems.is_empty(), "{problems:?}");
        let (by_name, roots) = self_times(&rec.spans()).expect("a well-nested span tree");
        assert_eq!(by_name.values().map(|v| v.0).sum::<u64>(), roots);
        let get = |n: &str| metrics.iter().find(|m| m.0 == n).expect(n).1;
        assert!(get("interp.self_s") > 0.0);
        assert!(get("compile.replay_opt2_ms") > 0.0);
        assert!(get("vm.attach_shared_ms") > 0.0);
    }
}
