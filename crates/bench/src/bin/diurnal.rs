//! Diurnal multi-tenant sweep: SLO and TCO under a production day.
//!
//! Every other tool offers a flat rate; this one runs the
//! [`snicbench_core::diurnal`] experiment — six Zipf-share tenants with
//! per-tenant diurnal curves over a compressed 24 h clock, heavy-tailed
//! payload mixes, and seeded flow churn — against three serving
//! platforms (host-only, the SNIC two-rung pair, a 4-shard/2-SNIC
//! fleet), each under the paper's static open-loop client *and* the AIMD
//! admission window. The headline per cell is the SLO-violation
//! fraction: what part of the simulated day burned the latency/loss
//! budget.
//!
//! ```text
//! cargo run --release -p snicbench-bench --bin diurnal [-- --quick | --list] [--workload NAME] [--gbps G] [--seed S] [--chaos PLAN] [--jobs N] [--json PATH] [--trace PATH]
//! ```
//!
//! Output is one row per (platform, admission) cell, an adaptive-vs-
//! static verdict per platform, and the SNIC-vs-host TCO break-even per
//! admission mode. The JSON report is RunReport v4 (per-shard roll-ups
//! in each run's `shards` array) plus the 24 hourly buckets per cell.
//! Deterministic at any `--jobs` width: each cell is one single-threaded
//! simulation seeded by its coordinates.
//!
//! `--chaos PLAN` fences node-down windows into the day: arrivals to a
//! down shard are booked as drops and fed to the AIMD limiter as
//! overload, so the adaptive cells show admission riding through the
//! fault while the static cells burn SLO hours.

use snicbench_bench::cli::Cli;
use snicbench_core::admission::AdmissionMode;
use snicbench_core::benchmark::{CorpusKind, CryptoAlgo, Workload};
use snicbench_core::diurnal::{
    simulate_in, tco_compare, DiurnalConfig, DiurnalPlatform, DiurnalReport,
};
use snicbench_core::json::Json;
use snicbench_core::report::TextTable;
use snicbench_functions::rem::RemRuleset;
use snicbench_sim::fault::ChaosSpec;
use snicbench_sim::SimDuration;

/// The workloads with both host and accelerator calibrations, by CLI
/// name (the sweep needs the SNIC rung on two of its three platforms).
fn catalog() -> Vec<(&'static str, Workload)> {
    vec![
        ("rem", Workload::RemMtu(RemRuleset::FileExecutable)),
        ("crypto", Workload::Crypto(CryptoAlgo::Sha1)),
        ("compression", Workload::Compression(CorpusKind::Text)),
    ]
}

/// One cell of the sweep.
#[derive(Debug, Clone, Copy)]
struct Cell {
    platform: DiurnalPlatform,
    admission: AdmissionMode,
}

impl Cell {
    fn label(&self) -> String {
        format!("diurnal/{}/{}", self.platform.code(), self.admission.code())
    }
}

/// The full matrix: three platforms × two admission modes.
fn cells() -> Vec<Cell> {
    let platforms = [
        DiurnalPlatform::Host,
        DiurnalPlatform::Snic,
        DiurnalPlatform::Fleet,
    ];
    let modes = [AdmissionMode::Static, AdmissionMode::Adaptive];
    let mut out = Vec::new();
    for &platform in &platforms {
        for &admission in &modes {
            out.push(Cell {
                platform,
                admission,
            });
        }
    }
    out
}

fn config_for(
    cell: Cell,
    workload: Workload,
    gbps: Option<f64>,
    seed: Option<u64>,
    chaos: Option<ChaosSpec>,
    quick: bool,
) -> DiurnalConfig {
    let mut cfg = DiurnalConfig::new(workload, cell.platform, cell.admission);
    if quick {
        cfg.day = SimDuration::from_millis(16);
    }
    if let Some(g) = gbps {
        cfg.per_shard_gbps = g;
    }
    if let Some(s) = seed {
        cfg.seed = s;
    }
    cfg.chaos = chaos;
    // Seed by cell coordinates so results never depend on sweep order.
    let p = match cell.platform {
        DiurnalPlatform::Host => 1u64,
        DiurnalPlatform::Snic => 2,
        DiurnalPlatform::Fleet => 3,
    };
    let a = match cell.admission {
        AdmissionMode::Static => 1u64,
        AdmissionMode::Adaptive => 2,
    };
    cfg.seed ^= (p << 8) | a;
    cfg
}

fn results_json(rows: &[(Cell, DiurnalReport)], tco: &Json) -> Json {
    let cells = Json::arr(rows.iter().map(|(cell, r)| {
        let limiter = match &r.limiter {
            None => Json::Null,
            Some(l) => Json::obj([
                ("final_limit", Json::U64(l.final_limit as u64)),
                ("peak_limit", Json::U64(l.peak_limit as u64)),
                ("cuts", Json::U64(l.cuts)),
            ]),
        };
        let hours = Json::arr(r.hours.iter().map(|h| {
            Json::obj([
                ("hour", Json::U64(u64::from(h.hour))),
                ("offered", Json::U64(h.offered)),
                ("admitted", Json::U64(h.admitted)),
                ("rejected", Json::U64(h.rejected)),
                ("completed", Json::U64(h.completed)),
                ("dropped", Json::U64(h.dropped)),
                ("offered_gbps", Json::Num(h.offered_gbps)),
                ("achieved_gbps", Json::Num(h.achieved_gbps)),
                ("p99_us", Json::Num(h.p99_us)),
                ("loss_rate", Json::Num(h.loss_rate)),
                ("slo_met", Json::Bool(h.slo_met)),
            ])
        }));
        let tenants = Json::arr(r.tenants.iter().map(|t| {
            Json::obj([
                ("tenant", Json::U64(u64::from(t.tenant))),
                ("share", Json::Num(t.share)),
                ("offered", Json::U64(t.offered)),
                ("admitted", Json::U64(t.admitted)),
                ("rejected", Json::U64(t.rejected)),
                ("completed", Json::U64(t.completed)),
                ("dropped", Json::U64(t.dropped)),
                ("flows_opened", Json::U64(t.churn.opened)),
                ("flows_closed", Json::U64(t.churn.closed)),
                ("flows_live", Json::U64(t.churn.live)),
            ])
        }));
        Json::obj([
            ("label", Json::str(cell.label())),
            ("platform", Json::str(cell.platform.code())),
            ("admission", Json::str(cell.admission.code())),
            ("violation_fraction", Json::Num(r.violation_fraction)),
            ("peak_hour", Json::U64(u64::from(r.peak_hour))),
            ("peak_p99_us", Json::Num(r.peak_p99_us)),
            ("peak_loss", Json::Num(r.peak_loss)),
            ("offered_gbps", Json::Num(r.offered_gbps)),
            ("achieved_gbps", Json::Num(r.achieved_gbps)),
            ("p99_us", Json::Num(r.p99_us)),
            ("loss_rate", Json::Num(r.loss_rate)),
            ("rejected_share", Json::Num(r.rejected_share)),
            ("limiter", limiter),
            ("hours", hours),
            ("tenants", tenants),
        ])
    }));
    Json::obj([("cells", cells), ("tco", tco.clone())])
}

fn main() {
    let args = Cli::new(
        "diurnal",
        "Multi-tenant diurnal day across host/SNIC/fleet platforms under\n\
         static vs AIMD admission: hourly SLO scoring and the TCO break-even.",
    )
    .workload_axis("workload to serve: rem (default), crypto, compression")
    .gbps_axis("mean offered load per shard, Gb/s (default 55)")
    .seed_axis()
    .chaos_axis()
    .parse();

    let workload = args.choice_or("--workload", "rem", &catalog());
    let gbps: Option<f64> = args.value_of("--gbps");
    let seed: Option<u64> = args.value_of("--seed");
    let matrix = cells();
    let quick = args.quick;
    let chaos = args.chaos(matrix.iter().map(|&c| {
        let shards = config_for(c, workload, gbps, seed, None, quick).shards();
        (c.label(), shards)
    }));

    if args.list {
        println!("Diurnal sweep — {workload}, 6 Zipf tenants over a compressed 24 h day:");
        let mut t = TextTable::new(vec!["cell", "platform", "admission", "shards"]);
        for c in &matrix {
            let shards = match c.platform {
                DiurnalPlatform::Host => "1 (host pool only)",
                DiurnalPlatform::Snic => "1 (accel + host rungs)",
                DiurnalPlatform::Fleet => "4 (2 with SNICs, ring + spill)",
            };
            t.row(vec![
                c.label(),
                c.platform.code().to_string(),
                c.admission.code().to_string(),
                shards.to_string(),
            ]);
        }
        println!("{t}");
        println!("Each cell: one simulated day, 24 hourly SLO checks (p99 <= 400us,");
        println!("loss <= 1%), per-tenant admission conservation audited.");
        return;
    }

    let executor = args.executor();
    let ctx = args.context();
    eprintln!(
        "# running {} diurnal cells of {workload} (jobs={})...",
        matrix.len(),
        executor.jobs()
    );
    let rows: Vec<(Cell, DiurnalReport)> = executor.map(matrix, |cell| {
        let cfg = config_for(cell, workload, gbps, seed, chaos, quick);
        let report = simulate_in(&cfg, &ctx.scope(cell.label()));
        (cell, report)
    });

    println!("Diurnal — {workload}: 24 h multi-tenant day, static vs AIMD admission");
    println!("(SLO per simulated hour: p99 <= 400us, server loss <= 1%)");
    if let Some(spec) = chaos {
        println!("(chaos {spec}: node-down windows blackhole their shard and feed AIMD)");
    }
    println!();
    let mut t = TextTable::new(vec![
        "cell",
        "offered",
        "achieved",
        "rejected",
        "loss",
        "p99(us)",
        "peak p99",
        "SLO viol.",
        "window",
    ]);
    for (cell, r) in &rows {
        let window = match &r.limiter {
            None => "-".to_string(),
            Some(l) => format!("{} (peak {})", l.final_limit, l.peak_limit),
        };
        t.row(vec![
            cell.label(),
            format!("{:.0}G", r.offered_gbps),
            format!("{:.0}G", r.achieved_gbps),
            format!("{:.1}%", r.rejected_share * 100.0),
            format!("{:.2}%", r.loss_rate * 100.0),
            format!("{:.1}", r.p99_us),
            format!("{:.1}", r.peak_p99_us),
            format!("{}/24h", (r.violation_fraction * 24.0).round() as u32),
            window,
        ]);
    }
    println!("{t}");

    if chaos.is_some() {
        for (cell, r) in &rows {
            let down: u64 = r.shards.iter().map(|s| s.down_windows).sum();
            let dropped: u64 = r.shards.iter().map(|s| s.dropped).sum();
            println!(
                "{}: {down} node-down window(s), {dropped} packets dropped shard-side.",
                cell.label()
            );
        }
        println!();
    }

    let find = |platform: DiurnalPlatform, admission: AdmissionMode| {
        rows.iter()
            .find(|(c, _)| c.platform == platform && c.admission == admission)
            .map(|(_, r)| r)
    };

    for platform in [
        DiurnalPlatform::Host,
        DiurnalPlatform::Snic,
        DiurnalPlatform::Fleet,
    ] {
        if let (Some(s), Some(a)) = (
            find(platform, AdmissionMode::Static),
            find(platform, AdmissionMode::Adaptive),
        ) {
            let saved = (s.violation_fraction - a.violation_fraction) * 24.0;
            println!(
                "{}: AIMD admission saves {:.0} SLO hours/day ({:.0}% -> {:.0}% violating), shedding {:.1}% of offered load at the client.",
                platform.code(),
                saved,
                s.violation_fraction * 100.0,
                a.violation_fraction * 100.0,
                a.rejected_share * 100.0
            );
        }
    }

    println!("\nTCO — SNIC pair vs host-only under the same day (paper REM-row powers):");
    let mut tt = TextTable::new(vec![
        "admission",
        "snic shard",
        "host shard",
        "cap ratio",
        "break-even",
        "TCO",
    ]);
    let mut tco_rows = Vec::new();
    for admission in [AdmissionMode::Static, AdmissionMode::Adaptive] {
        let (Some(snic), Some(host)) = (
            find(DiurnalPlatform::Snic, admission),
            find(DiurnalPlatform::Host, admission),
        ) else {
            continue;
        };
        let Some(tco) = tco_compare(snic, host) else {
            continue;
        };
        tt.row(vec![
            admission.code().to_string(),
            format!("{:.1}G", tco.snic_shard_gbps),
            format!("{:.1}G", tco.host_shard_gbps),
            format!("{:.2}x", tco.capacity_ratio),
            format!("{:.2}x", tco.break_even_ratio),
            format!(
                "{}{:.1}%",
                if tco.savings >= 0.0 { "+" } else { "" },
                tco.savings * 100.0
            ),
        ]);
        tco_rows.push(Json::obj([
            ("admission", Json::str(admission.code())),
            ("snic_shard_gbps", Json::Num(tco.snic_shard_gbps)),
            ("host_shard_gbps", Json::Num(tco.host_shard_gbps)),
            ("capacity_ratio", Json::Num(tco.capacity_ratio)),
            ("break_even_ratio", Json::Num(tco.break_even_ratio)),
            ("pays_off", Json::Bool(tco.pays_off)),
            ("savings", Json::Num(tco.savings)),
        ]));
    }
    println!("{tt}");

    args.write_outputs("diurnal", results_json(&rows, &Json::Arr(tco_rows)), &ctx);
}
