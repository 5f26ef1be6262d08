//! `perfbench`: the simulator's benchmark, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path crates/bench/src/bin/perfbench/Cargo.toml -- [--workload NAME] [--seed S] [--seconds N] [--out PATH] [--check]
//! cargo run --release --manifest-path crates/bench/src/bin/perfbench/Cargo.toml -- --trace 1 [--workload NAME] [--spans PATH]
//! cargo run --release --manifest-path crates/bench/src/bin/perfbench/Cargo.toml -- --compare A.json --against B.json
//! ```
//!
//! The end-to-end run (`--trace 0`, the default) is a closed loop with one
//! client: a process per workload runs passes back to back on the serial
//! executor, an untimed audited first pass and then timed passes for
//! `--seconds` (at least five). Without `--workload` it runs every
//! workload, each in a process of its own. `--trace 1` is the separate
//! traced run: one traced pass per workload plus the per-layer kernels.
//! `--trace` here only selects the run (0 or 1); it never switches on
//! program telemetry. See `README.md` beside this file for the workloads,
//! the metrics and how to compare two runs.

mod compare;
mod host;
mod layers;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;

use snicbench_bench::cli::Cli;
use snicbench_core::conformance;
use snicbench_core::json::Json;

use host::{timed, Meter, Stopwatch};
use layers::LAYER_METRICS;
use spans::{self_ns, Tracer};
use stats::{median, Summary};
use workloads::{prime, run_pass, Pass, Probe, Size, Workload};

/// The end-to-end metrics, in report order, with their units. The times
/// are seconds at the reference host speed (see [`host::slowness`]), hence
/// the `ref_` prefix; `setup_s` keeps the name `BENCHMARK.json`'s format
/// fixes for the set-up time.
pub const E2E: [(&str, &str); 4] = [
    ("ref_wall_s", "s"),
    ("ref_sim_req_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Timed passes per run, at least, however short `--seconds` is.
const MIN_PASSES: usize = 5;
/// Seconds of set-ups per run.
const SETUP_S: f64 = 1.0;
/// Untraced passes (after a warm-up pass) the traced pass is compared against.
const UNTRACED_PASSES: usize = 2;
/// Prefix of the per-workload detail line a run prints before its result.
const DETAIL: &str = "perfbench-detail ";

fn fail(message: &str) -> ! {
    eprintln!("perfbench: {message}");
    std::process::exit(2);
}

fn main() {
    let args = Cli::new(
        "perfbench",
        "The simulator's benchmark: four workloads end to end (wall time per pass and\n\
         simulated requests per second, both at the reference host speed, set-up\n\
         time, peak memory) with their outputs checked, or with --trace 1 a traced\n\
         run that times each layer in isolation. --trace takes 0 (the default) or 1\n\
         here, not a PATH, and never enables telemetry.",
    )
    .workload_axis(
        "run one workload: fig4-search, fleet-64, diurnal-day, fleet-chaos (default: all)",
    )
    .seed_axis()
    .opt(
        "--seconds",
        "N",
        "timed seconds per workload run, at least 5 passes (default 15)",
    )
    .opt(
        "--spans",
        "PATH",
        "write the traced run's spans as a Chrome trace to PATH",
    )
    .flag("--check", "exit 1 when any output check failed")
    .opt(
        "--out",
        "PATH",
        "write the run's result set (for --compare) to PATH",
    )
    .opt("--compare", "A.json", "compare result set A.json ...")
    .opt(
        "--against",
        "B.json",
        "... against result set B.json, per BENCHMARK.json's bounds",
    )
    .parse();

    if args.json.is_some() {
        fail("perfbench writes no RunReport; use --out PATH for its result set");
    }
    let traced = match args.trace.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => fail(&format!("--trace takes 0 or 1, not '{v}'")),
    };
    if let Some(a) = args.opt("--compare") {
        let b = args
            .opt("--against")
            .unwrap_or_else(|| fail("--compare A.json needs --against B.json"));
        std::process::exit(compare::run(a, b));
    }
    let catalog: Vec<(&str, Workload)> = Workload::ALL.iter().map(|&w| (w.name(), w)).collect();
    let chosen: Vec<Workload> = match args.opt("--workload") {
        Some(_) => vec![args.choice_or("--workload", "", &catalog)],
        None => Workload::ALL.to_vec(),
    };
    if args.list {
        list();
        return;
    }
    let seed: u64 = args.value_or("--seed", 0);
    let seconds: f64 = args.value_or("--seconds", 15.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        fail("--seconds must be positive");
    }

    let (attempted, failed) = if traced {
        layers_run(&chosen, seed, args.opt("--spans"))
    } else if let [w] = chosen[..] {
        let r = e2e_run(w, seed, seconds);
        r.print();
        println!("{DETAIL}{}", r.detail().to_compact());
        let metrics = r
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit, m.summary.median));
        println!("{}", result_line(r.attempted, r.failed, metrics));
        (r.attempted, r.failed)
    } else {
        all_run(seed, seconds, args.opt("--out"))
    };
    if args.has("--check") && (failed > 0 || attempted == 0) {
        std::process::exit(1);
    }
}

/// The contract line every run ends with.
fn result_line(
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (String, &'static str, f64)>,
) -> Json {
    Json::obj([
        ("correct", Json::Bool(failed == 0 && attempted > 0)),
        ("attempted", Json::U64(attempted)),
        ("failed", Json::U64(failed)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .map(|(name, unit, v)| {
                        (
                            name,
                            Json::obj([("value", Json::Num(v)), ("unit", Json::str(unit))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

fn list() {
    println!("perfbench workloads (one process each, serial executor):");
    for w in Workload::ALL {
        println!("  {:<12} {}", w.name(), w.why());
    }
    println!("\nend-to-end metrics (--trace 0; times at the reference host speed):");
    for (name, unit) in E2E {
        println!("  {name:<17} {unit}");
    }
    println!("\nper-layer metrics (--trace 1):");
    for l in LAYER_METRICS {
        println!(
            "  {:<46} {:<6} moves {} on {}",
            l.name, l.unit, l.moves, l.on
        );
    }
}

// ---------------------------------------------------------------------------
// End to end
// ---------------------------------------------------------------------------

/// One workload's end-to-end run.
struct E2eRun {
    workload: Workload,
    seed: u64,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    digest: u64,
    metrics: Vec<Metric>,
    /// Pass and set-up times as measured, before scaling to the reference
    /// speed.
    raw_walls: Vec<f64>,
    raw_setups: Vec<f64>,
    /// The meter's host slowness readings.
    slowness: Vec<f64>,
}

/// One end-to-end metric of a run: its samples and their summary, whose
/// median is the value reported.
struct Metric {
    name: &'static str,
    unit: &'static str,
    summary: Summary,
    samples: Vec<f64>,
}

fn e2e_run(w: Workload, seed: u64, seconds: f64) -> E2eRun {
    let mut failures = Vec::new();
    // Set-ups back to back for SETUP_S under a meter of their own; a
    // sample is the mean set-up time of one metered segment. The set-up
    // phase is one op.
    let mut setup_meter = Meter::start();
    let clock = Stopwatch::start();
    while clock.elapsed_s() < SETUP_S {
        if let Err(e) = setup_meter.unit(|| prime(w, seed)) {
            failures.push(e);
        }
    }
    let setup_segments = setup_meter.end_pass();
    let setup: Vec<f64> = setup_segments
        .iter()
        .map(|s| s.scaled_s / f64::from(s.units))
        .collect();
    let raw_setups = setup_segments
        .iter()
        .map(|s| s.measured_s / f64::from(s.units))
        .collect();
    failures.dedup();
    let mut attempted = 1;
    let mut failed = u64::from(!failures.is_empty());
    let mut record = |p: &Pass| {
        attempted += p.ops();
        failed += p.failed();
        failures.extend(p.failures.iter().cloned());
    };
    // The untimed first pass runs with the conservation audit armed.
    conformance::set_audit(true);
    let first = run_pass(w, seed, Size::Full, Probe::Off);
    conformance::set_audit(false);
    record(&first);
    // The timed passes, at the reference host speed unit by unit. Every
    // metric reports the median of its samples.
    let mut meter = Meter::start();
    let mut raw_walls = Vec::new();
    let mut walls = Vec::new();
    let mut requests = 0;
    let clock = Stopwatch::start();
    while walls.len() < MIN_PASSES || clock.elapsed_s() < seconds {
        let mut p = run_pass(w, seed, Size::Full, Probe::Meter(&mut meter));
        let segments = meter.end_pass();
        let raw: f64 = segments.iter().map(|s| s.measured_s).sum();
        let scaled: f64 = segments.iter().map(|s| s.scaled_s).sum();
        if p.digest != first.digest {
            p.fail_all(format!(
                "pass {}: sim_digest {:#018x} != first pass {:#018x}",
                walls.len() + 1,
                p.digest,
                first.digest
            ));
        }
        record(&p);
        raw_walls.push(raw);
        walls.push(scaled);
        requests = p.requests;
        eprintln!(
            "# {}: pass {} {raw:.3} s, {scaled:.3} s at reference speed",
            w.name(),
            walls.len()
        );
    }
    let rates: Vec<f64> = walls.iter().map(|s| requests as f64 / s).collect();
    let rss = host::peak_rss_mb().unwrap_or(f64::NAN);
    let metrics = E2E
        .iter()
        .zip([walls, rates, setup, vec![rss]])
        .map(|(&(name, unit), samples)| Metric {
            name,
            unit,
            summary: Summary::of(&samples),
            samples,
        })
        .collect();
    E2eRun {
        workload: w,
        seed,
        attempted,
        failed,
        failures,
        digest: first.digest,
        metrics,
        raw_walls,
        raw_setups,
        slowness: [setup_meter.readings, meter.readings].concat(),
    }
}

impl E2eRun {
    fn print(&self) {
        println!(
            "perfbench {}: seed {}, {} timed passes, host_parallelism {}",
            self.workload.name(),
            self.seed,
            self.metrics[0].samples.len(),
            host::parallelism()
        );
        for m in &self.metrics {
            let s = m.summary;
            println!(
                "  {:<17} {:>16.6} {:<4} (median; q1 {:.6}, q3 {:.6}, n {})",
                m.name, s.median, m.unit, s.q1, s.q3, s.n
            );
        }
        println!(
            "  wall_s            {:>16.6} s    (median pass time as measured; setup {:.6} s; host slowness {:.3})",
            median(&self.raw_walls),
            median(&self.raw_setups),
            median(&self.slowness)
        );
        println!("  sim_digest        {:#018x}", self.digest);
        println!("  fail_rate         {}/{}", self.failed, self.attempted);
        for f in &self.failures {
            println!("  FAILED: {f}");
        }
    }

    /// The result-set entry for this workload.
    fn detail(&self) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            let s = m.summary;
            (
                m.name,
                Json::obj([
                    ("unit", Json::str(m.unit)),
                    ("value", Json::Num(s.median)),
                    ("q1", Json::Num(s.q1)),
                    ("q3", Json::Num(s.q3)),
                    ("n", Json::U64(s.n as u64)),
                    ("samples", samples(&m.samples)),
                ]),
            )
        });
        Json::obj([
            ("workload", Json::str(self.workload.name())),
            ("seed", Json::U64(self.seed)),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            (
                "failures",
                Json::arr(self.failures.iter().map(|f| Json::str(f.clone()))),
            ),
            ("sim_digest", Json::str(format!("{:#018x}", self.digest))),
            ("metrics", Json::obj(metrics)),
            ("wall_s", samples(&self.raw_walls)),
            ("setup_wall_s", samples(&self.raw_setups)),
            ("host_slowness", samples(&self.slowness)),
        ])
    }
}

fn samples(xs: &[f64]) -> Json {
    Json::arr(xs.iter().map(|&x| Json::Num(x)))
}

/// Every workload, each in a process of its own; prints one row per
/// workload and optionally writes the result set.
fn all_run(seed: u64, seconds: f64, out: Option<&str>) -> (u64, u64) {
    let mut details = Vec::new();
    for w in Workload::ALL {
        let argv: Vec<String> = [
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let stdout = host::rerun_self(&argv).unwrap_or_else(|e| fail(&e));
        let detail = stdout
            .lines()
            .find_map(|l| l.strip_prefix(DETAIL))
            .and_then(|l| Json::parse(l).ok())
            .unwrap_or_else(|| fail(&format!("{}: no result detail in its output", w.name())));
        details.push(detail);
    }
    let num = |d: &Json, key: &str| d.get(key).and_then(Json::as_u64).unwrap_or(0);
    let value_of = |d: &Json, metric: &str| {
        d.get("metrics")
            .and_then(|m| m.get(metric))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN)
    };
    let mut header = format!("{:<13}", "workload");
    for (name, unit) in E2E {
        header.push_str(&format!(" {:>24}", format!("{name} ({unit})")));
    }
    println!("{header} {:>9} sim_digest", "fail");
    let mut metrics = Vec::new();
    for d in &details {
        let name = d.get("workload").and_then(Json::as_str).unwrap_or("?");
        let mut row = format!("{name:<13}");
        for (metric, unit) in E2E {
            let v = value_of(d, metric);
            row.push_str(&format!(" {v:>24.6}"));
            metrics.push((format!("{name}.{metric}"), unit, v));
        }
        let digest = d.get("sim_digest").and_then(Json::as_str).unwrap_or("?");
        println!(
            "{row} {:>9} {digest}",
            format!("{}/{}", num(d, "failed"), num(d, "attempted"))
        );
    }
    let attempted = details.iter().map(|d| num(d, "attempted")).sum();
    let failed = details.iter().map(|d| num(d, "failed")).sum();
    if let Some(path) = out {
        let set = Json::obj([
            ("schema", Json::str("perfbench.set.v1")),
            ("seed", Json::U64(seed)),
            ("seconds", Json::Num(seconds)),
            ("host_parallelism", Json::U64(host::parallelism() as u64)),
            ("workloads", Json::Arr(details)),
        ]);
        write_file(path, &set);
    }
    println!("{}", result_line(attempted, failed, metrics.into_iter()));
    (attempted, failed)
}

fn write_file(path: &str, doc: &Json) {
    let path = std::path::Path::new(path);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| fail(&format!("creating {}: {e}", dir.display())));
    }
    std::fs::write(path, doc.to_pretty())
        .unwrap_or_else(|e| fail(&format!("writing {}: {e}", path.display())));
    eprintln!("# perfbench: wrote {}", path.display());
}

// ---------------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------------

/// One workload's traced pass against its untraced passes.
struct TracedWorkload {
    workload: Workload,
    untraced_s: f64,
    traced_s: f64,
    pass: Pass,
}

fn layers_run(chosen: &[Workload], seed: u64, spans_path: Option<&str>) -> (u64, u64) {
    let mut tracer = Tracer::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut traced = Vec::new();
    for (i, &w) in chosen.iter().enumerate() {
        let t = tracer.span(w.name(), i as u64, |t| {
            // A warm-up pass first, so no timed pass pays the cold start.
            let reference = t.span("pass.warmup", 0, |_| {
                let p = run_pass(w, seed, Size::Full, Probe::Off);
                let n = p.requests;
                (p, n)
            });
            let walls: Vec<f64> = (1..=UNTRACED_PASSES)
                .map(|k| {
                    t.span("pass.untraced", k as u64, |_| {
                        let (p, s) = timed(|| run_pass(w, seed, Size::Full, Probe::Off));
                        (s, p.requests)
                    })
                })
                .collect();
            let (mut pass, s) = t.span("pass", UNTRACED_PASSES as u64 + 1, |t| {
                let (p, s) = timed(|| run_pass(w, seed, Size::Full, Probe::Trace(t)));
                let n = p.requests;
                ((p, s), n)
            });
            if pass.digest != reference.digest {
                pass.fail_all(format!(
                    "{}: traced pass diverged from the untraced passes",
                    w.name()
                ));
            }
            for p in [&reference, &pass] {
                attempted += p.ops();
                failed += p.failed();
                for f in &p.failures {
                    println!("  FAILED: {f}");
                }
            }
            let n = pass.requests;
            (
                TracedWorkload {
                    workload: w,
                    untraced_s: median(&walls),
                    traced_s: s,
                    pass,
                },
                n,
            )
        });
        traced.push(t);
    }
    let before = host::slowness();
    let mut values = layers::run_kernels(seed, &mut tracer);
    let after = host::slowness();
    let overheads: Vec<f64> = traced.iter().map(|t| t.traced_s / t.untraced_s).collect();
    values.insert("trace.overhead_ratio", median(&overheads));

    println!(
        "perfbench traced run: seed {seed}, host_parallelism {}, host slowness {before:.3} \
         before the kernels and {after:.3} after (kernel times are raw)",
        host::parallelism()
    );
    println!(
        "\n{:<46} {:>14} {:<6} moves -> on",
        "per-layer metric", "value", "unit"
    );
    for l in LAYER_METRICS {
        println!(
            "{:<46} {:>14.4} {:<6} {} -> {} (unchanged on: {})",
            l.name, values[l.name], l.unit, l.moves, l.on, l.unchanged_on
        );
    }
    for t in &traced {
        print_budget(t, &values);
    }
    print_span_summary(&tracer);
    if let Some(path) = spans_path {
        write_file(path, &tracer.chrome_trace());
    }
    let units: BTreeMap<&str, &str> = LAYER_METRICS.iter().map(|l| (l.name, l.unit)).collect();
    let metrics = LAYER_METRICS
        .iter()
        .map(|l| (l.name.to_string(), units[l.name], values[l.name]));
    println!("{}", result_line(attempted, failed, metrics));
    (attempted, failed)
}

/// The layer budget of one workload's pass: each layer's kernel cost per
/// op times the ops a pass makes of it, and what is left over.
fn print_budget(t: &TracedWorkload, v: &BTreeMap<&'static str, f64>) {
    let a = t.pass.arrivals;
    // The baseline run, the entry probe, the bisection probes and the
    // final measurement; the fallback floor probe rarely runs.
    let runs_per_search = f64::from(workloads::fig4_budget(0, Size::Full).iterations) + 3.0;
    let searches = workloads::fig4_units(Size::Full).len() as f64;
    let rows: Vec<(&str, f64, f64)> = match t.workload {
        Workload::Fig4Search => vec![
            (
                "net.traffic.ratedriven_ns_per_arrival",
                v["net.traffic.ratedriven_ns_per_arrival"],
                a,
            ),
            ("sim.dist.dyn_ns_per_draw", v["sim.dist.dyn_ns_per_draw"], a),
            ("sim.station.ns_per_job", v["sim.station.ns_per_job"], a),
            (
                "metrics.histogram.ns_per_record",
                v["metrics.histogram.ns_per_record"],
                a,
            ),
            (
                "core.runner.setup_us",
                v["core.runner.setup_us"] * 1e3,
                searches * runs_per_search,
            ),
            (
                "power.measure_us_per_point",
                v["power.measure_us_per_point"] * 1e3,
                searches,
            ),
        ],
        Workload::Fleet64 | Workload::FleetChaos => vec![
            (
                "net.traffic.poisson_ns_per_arrival",
                v["net.traffic.poisson_ns_per_arrival"],
                a,
            ),
            (
                "core.loadbalancer.ring.ns_per_route",
                v["core.loadbalancer.ring.ns_per_route"],
                a,
            ),
            ("sim.dist.ns_per_draw", v["sim.dist.ns_per_draw"], a),
            ("sim.station.ns_per_job", v["sim.station.ns_per_job"], a),
            (
                "metrics.histogram.ns_per_record",
                v["metrics.histogram.ns_per_record"],
                a,
            ),
        ],
        Workload::DiurnalDay => vec![
            (
                "net.traffic.tenantmix_ns_per_arrival",
                v["net.traffic.tenantmix_ns_per_arrival"],
                a,
            ),
            // Half the cells admit through the AIMD window.
            (
                "core.admission.ns_per_op",
                v["core.admission.ns_per_op"],
                a / 2.0,
            ),
            ("sim.station.ns_per_job", v["sim.station.ns_per_job"], a),
            // Each completion records an hour and a shard histogram.
            (
                "metrics.histogram.ns_per_record",
                v["metrics.histogram.ns_per_record"],
                2.0 * a,
            ),
        ],
    };
    let pass_ns = t.untraced_s * 1e9;
    println!(
        "\n{} layer budget: untraced pass {:.3} s, traced {:.3} s (tracing overhead {:.4}x), {:.0} arrivals",
        t.workload.name(),
        t.untraced_s,
        t.traced_s,
        t.traced_s / t.untraced_s,
        a
    );
    let mut accounted = 0.0;
    for (name, ns_per_op, ops) in rows {
        let ns = ns_per_op * ops;
        accounted += ns;
        println!(
            "  {name:<40} {ns_per_op:>12.1} ns x {ops:>12.0} = {:>9.1} ms {:>6.1}%",
            ns / 1e6,
            100.0 * ns / pass_ns
        );
    }
    println!(
        "  {:<40} {:>46.1} ms {:>6.1}%",
        "glue (unaccounted)",
        (pass_ns - accounted) / 1e6,
        100.0 * (pass_ns - accounted) / pass_ns
    );
}

/// Total and self time per span name.
fn print_span_summary(tracer: &Tracer) {
    let spans = tracer.spans();
    let mut by_name: BTreeMap<&str, (u64, u64, u64, u64)> = BTreeMap::new();
    for (id, s) in spans.iter().enumerate() {
        let e = by_name.entry(s.name.as_str()).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += self_ns(spans, id);
        e.3 += s.ops;
    }
    println!(
        "\n{:<44} {:>6} {:>12} {:>12} {:>14}",
        "span", "count", "total ms", "self ms", "ops"
    );
    for (name, (count, total, own, ops)) in by_name {
        println!(
            "{name:<44} {count:>6} {:>12.1} {:>12.1} {ops:>14}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
}
