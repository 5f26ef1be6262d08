//! Fleet-scale SLO/TCO sweep: N servers × M SmartNICs behind flow-hash
//! sharding.
//!
//! The paper evaluates one server and one BlueField-2; the deployment
//! question is fleet-shaped: *how many of a rack's servers should carry a
//! SmartNIC, and at what load does that composition pay?* This tool runs
//! the consistent-hash fleet simulation
//! ([`snicbench_core::loadbalancer::fleet`]) over a small matrix of rack
//! compositions and per-server loads, and scores each cell twice: per
//! shard against the fleet SLO, and SNIC shards vs host-only shards
//! against the 5-year TCO break-even ratio.
//!
//! ```text
//! cargo run --release -p snicbench-bench --bin fleet [-- --quick | --list] [--servers N] [--snics M] [--gbps G] [--chaos PLAN] [--jobs N] [--json PATH] [--trace PATH]
//! ```
//!
//! Output is one row per (SNIC count, per-server load) cell. The JSON
//! report is RunReport v4: each cell's run carries a `shards` array with
//! the per-shard roll-ups (including the degraded-fleet counters, zero on
//! a healthy run). Deterministic at any `--jobs` width: each cell is one
//! single-threaded simulation seeded by its coordinates, and the executor
//! only parallelizes across cells.
//!
//! `--chaos PLAN` injects node faults (`'mixed'` or
//! `crashN+snicN+blackoutN`, each window a third of the run) and runs
//! every cell four ways — `#healthy`, `#chaos-base` (faults, no
//! mitigation), `#chaos-rebal` (+health-checked ring rebalancing), and
//! `#chaos-hedge` (+hedged requests) — reporting each variant's
//! SLO-violation and TCO deltas against the healthy run.

use snicbench_bench::cli::Cli;
use snicbench_core::benchmark::Workload;
use snicbench_core::json::Json;
use snicbench_core::loadbalancer::fleet::{simulate_in, ChaosConfig, FleetConfig, FleetReport};
use snicbench_core::report::TextTable;
use snicbench_core::telemetry::RunContext;
use snicbench_functions::rem::RemRuleset;
use snicbench_hw::server::RackSpec;
use snicbench_sim::fault::ChaosSpec;
use snicbench_sim::SimDuration;

/// One cell of the sweep.
#[derive(Debug, Clone, Copy)]
struct Cell {
    servers: u32,
    snics: u32,
    gbps: f64,
}

impl Cell {
    fn label(&self) -> String {
        format!("fleet/m{:02}/g{:03}", self.snics, self.gbps as u32)
    }
}

/// One degraded-fleet variant of a cell under `--chaos`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    /// No faults: the baseline every delta is measured against.
    Healthy,
    /// Faults with no mitigation: a down shard blackholes its arc.
    ChaosBase,
    /// Faults + health-checked ring rebalancing.
    ChaosRebal,
    /// Faults + rebalancing + hedged requests.
    ChaosHedge,
}

impl Variant {
    const ALL: [Variant; 4] = [
        Variant::Healthy,
        Variant::ChaosBase,
        Variant::ChaosRebal,
        Variant::ChaosHedge,
    ];

    fn code(self) -> &'static str {
        match self {
            Variant::Healthy => "healthy",
            Variant::ChaosBase => "chaos-base",
            Variant::ChaosRebal => "chaos-rebal",
            Variant::ChaosHedge => "chaos-hedge",
        }
    }

    /// Arms the fault plan and mitigations on `cfg`. The seed is left
    /// untouched so every variant degrades the *same* healthy run.
    fn apply(self, cfg: &mut FleetConfig, spec: ChaosSpec) {
        if self == Variant::Healthy {
            return;
        }
        let mut chaos = ChaosConfig::new(spec);
        chaos.rebalance = self != Variant::ChaosBase;
        chaos.hedging = self == Variant::ChaosHedge;
        cfg.chaos = Some(chaos);
    }
}

/// The sweep matrix: every SNIC count × per-server load, with any axis
/// pinned by its CLI flag.
fn cells(servers: u32, snics: Option<u32>, gbps: Option<f64>, quick: bool) -> Vec<Cell> {
    let snic_axis: Vec<u32> = match snics {
        Some(m) => vec![m],
        None if quick => vec![8, 32],
        None => vec![8, 16, 32],
    };
    let gbps_axis: Vec<f64> = match gbps {
        Some(g) => vec![g],
        None if quick => vec![30.0, 45.0],
        None => vec![30.0, 45.0, 60.0],
    };
    let mut out = Vec::new();
    for &m in &snic_axis {
        for &g in &gbps_axis {
            out.push(Cell {
                servers,
                snics: m,
                gbps: g,
            });
        }
    }
    out
}

fn config_for(cell: Cell, quick: bool) -> FleetConfig {
    let mut cfg = FleetConfig::new(
        Workload::RemMtu(RemRuleset::FileExecutable),
        RackSpec::new(cell.servers, cell.snics),
        cell.gbps,
    );
    if quick {
        cfg.duration = SimDuration::from_millis(3);
        cfg.warmup = SimDuration::from_millis(1);
    }
    // Seed by cell coordinates so results never depend on sweep order.
    cfg.seed ^= (u64::from(cell.snics) << 32) | cell.gbps as u64;
    cfg
}

fn tco_json(r: &FleetReport) -> Json {
    match &r.tco {
        None => Json::Null,
        Some(t) => Json::obj([
            ("snic_shard_gbps", Json::Num(t.snic_shard_gbps)),
            ("host_shard_gbps", Json::Num(t.host_shard_gbps)),
            ("capacity_ratio", Json::Num(t.capacity_ratio)),
            ("break_even_ratio", Json::Num(t.break_even_ratio)),
            ("pays_off", Json::Bool(t.pays_off)),
            ("savings", Json::Num(t.savings)),
            ("nic_servers", Json::U64(u64::from(t.nic_servers))),
        ]),
    }
}

fn results_json(rows: &[(Cell, FleetReport)]) -> Json {
    Json::arr(rows.iter().map(|(cell, r)| {
        let tco = tco_json(r);
        Json::obj([
            ("label", Json::str(cell.label())),
            ("servers", Json::U64(u64::from(cell.servers))),
            ("snics", Json::U64(u64::from(cell.snics))),
            ("per_server_gbps", Json::Num(cell.gbps)),
            ("offered_gbps", Json::Num(r.cluster.offered_gbps)),
            ("achieved_gbps", Json::Num(r.cluster.achieved_gbps)),
            ("loss_rate", Json::Num(r.cluster.loss_rate)),
            ("p99_us", Json::Num(r.cluster.p99_us)),
            ("snic_share", Json::Num(r.cluster.snic_share)),
            ("spills", Json::U64(r.cluster.spills)),
            (
                "shards_meeting_slo",
                Json::U64(u64::from(r.cluster.shards_meeting_slo)),
            ),
            ("tco", tco),
        ])
    }))
}

/// The baseline run every chaos delta is measured against: the same
/// cell's `#healthy` variant.
fn healthy_of<'a>(rows: &'a [(Cell, Variant, FleetReport)], cell: &Cell) -> &'a FleetReport {
    rows.iter()
        .find(|(c, v, _)| c.snics == cell.snics && c.gbps == cell.gbps && *v == Variant::Healthy)
        .map(|(_, _, r)| r)
        .expect("every chaos cell runs a #healthy variant")
}

fn chaos_results_json(rows: &[(Cell, Variant, FleetReport)]) -> Json {
    Json::arr(rows.iter().map(|(cell, variant, r)| {
        let healthy = healthy_of(rows, cell);
        let deltas = if *variant == Variant::Healthy {
            Json::Null
        } else {
            let d_tco = match (&healthy.tco, &r.tco) {
                (Some(h), Some(c)) => Json::Num(c.savings - h.savings),
                _ => Json::Null,
            };
            Json::obj([
                (
                    "d_loss_rate",
                    Json::Num(r.cluster.loss_rate - healthy.cluster.loss_rate),
                ),
                ("d_p99_us", Json::Num(r.cluster.p99_us - healthy.cluster.p99_us)),
                (
                    "d_achieved_gbps",
                    Json::Num(r.cluster.achieved_gbps - healthy.cluster.achieved_gbps),
                ),
                ("d_tco_savings", d_tco),
            ])
        };
        Json::obj([
            (
                "label",
                Json::str(format!("{}#{}", cell.label(), variant.code())),
            ),
            ("variant", Json::str(variant.code())),
            ("servers", Json::U64(u64::from(cell.servers))),
            ("snics", Json::U64(u64::from(cell.snics))),
            ("per_server_gbps", Json::Num(cell.gbps)),
            ("offered_gbps", Json::Num(r.cluster.offered_gbps)),
            ("achieved_gbps", Json::Num(r.cluster.achieved_gbps)),
            ("loss_rate", Json::Num(r.cluster.loss_rate)),
            ("p99_us", Json::Num(r.cluster.p99_us)),
            ("down_windows", Json::U64(r.cluster.down_windows)),
            ("remapped", Json::U64(r.cluster.remapped)),
            ("remapped_in_flight", Json::U64(r.cluster.remapped_in_flight)),
            ("hedged", Json::U64(r.cluster.hedged)),
            ("hedge_wins", Json::U64(r.cluster.hedge_wins)),
            (
                "shards_meeting_slo",
                Json::U64(u64::from(r.cluster.shards_meeting_slo)),
            ),
            ("deltas", deltas),
            ("tco", tco_json(r)),
        ])
    }))
}

fn print_chaos(
    args: &snicbench_bench::cli::Args,
    spec: ChaosSpec,
    servers: u32,
    rows: &[(Cell, Variant, FleetReport)],
    ctx: &RunContext,
) {
    println!("Fleet chaos — {spec} on {servers} servers: degraded SLO/TCO vs healthy");
    println!("(fault windows cover a third of the run; base = no mitigation,");
    println!("rebal = +health-checked ring rebalancing, hedge = +hedged requests)\n");
    let mut t = TextTable::new(vec![
        "cell",
        "variant",
        "loss",
        "d-loss",
        "p99(us)",
        "d-p99",
        "remapped",
        "hedged(won)",
        "down-win",
        "TCO d",
    ]);
    for (cell, variant, r) in rows {
        let healthy = healthy_of(rows, cell);
        let (d_loss, d_p99, d_tco) = if *variant == Variant::Healthy {
            ("-".to_string(), "-".to_string(), "-".to_string())
        } else {
            (
                format!(
                    "{:+.2}pp",
                    (r.cluster.loss_rate - healthy.cluster.loss_rate) * 100.0
                ),
                format!("{:+.1}", r.cluster.p99_us - healthy.cluster.p99_us),
                match (&healthy.tco, &r.tco) {
                    (Some(h), Some(c)) => format!("{:+.1}pp", (c.savings - h.savings) * 100.0),
                    _ => "-".to_string(),
                },
            )
        };
        t.row(vec![
            cell.label(),
            variant.code().to_string(),
            format!("{:.2}%", r.cluster.loss_rate * 100.0),
            d_loss,
            format!("{:.1}", r.cluster.p99_us),
            d_p99,
            r.cluster.remapped.to_string(),
            format!("{}({})", r.cluster.hedged, r.cluster.hedge_wins),
            r.cluster.down_windows.to_string(),
            d_tco,
        ]);
    }
    println!("{t}");

    let cells: Vec<&Cell> = rows
        .iter()
        .filter(|(_, v, _)| *v == Variant::Healthy)
        .map(|(c, _, _)| c)
        .collect();
    let variant_of = |cell: &Cell, want: Variant| {
        rows.iter()
            .find(|(c, v, _)| c.snics == cell.snics && c.gbps == cell.gbps && *v == want)
            .map(|(_, _, r)| r)
    };
    let mut rebal_wins = 0;
    let mut hedge_wins = 0;
    for cell in &cells {
        if let (Some(base), Some(rebal)) = (
            variant_of(cell, Variant::ChaosBase),
            variant_of(cell, Variant::ChaosRebal),
        ) {
            if rebal.cluster.loss_rate < base.cluster.loss_rate {
                rebal_wins += 1;
            }
            if let Some(hedge) = variant_of(cell, Variant::ChaosHedge) {
                if hedge.cluster.p99_us < rebal.cluster.p99_us {
                    hedge_wins += 1;
                }
            }
        }
    }
    println!(
        "Degradation verdict: rebalancing cuts the SLO-violation fraction in \
         {rebal_wins}/{} cells; hedging cuts p99 vs rebalancing alone in {hedge_wins}/{} cells.",
        cells.len(),
        cells.len()
    );

    args.write_outputs("fleet", chaos_results_json(rows), ctx);
}

fn main() {
    let args = Cli::new(
        "fleet",
        "N-server x M-SNIC fleet sweep behind consistent-hash sharding:\n\
         per-shard SLO roll-ups and the SNIC's TCO break-even per cell.",
    )
    .servers_axis("rack size (default 64)")
    .snics_axis("pin the SNIC-count axis to one value")
    .gbps_axis("pin the per-server-load axis to one value, Gb/s")
    .chaos_axis()
    .parse();

    let servers: u32 = args.value_or("--servers", 64);
    let snics: Option<u32> = args.value_of("--snics");
    let gbps: Option<f64> = args.value_of("--gbps");
    if let Some(m) = snics {
        if m > servers {
            eprintln!("fleet: --snics {m} exceeds --servers {servers}");
            std::process::exit(2);
        }
    }
    let matrix = cells(servers, snics, gbps, args.quick);
    let chaos = args.chaos(matrix.iter().map(|c| (c.label(), c.servers)));

    if args.list {
        println!("Fleet sweep — {servers} servers, REM (MTU) workload:");
        let mut t = TextTable::new(vec!["cell", "snics", "per-server", "aggregate"]);
        for c in &matrix {
            t.row(vec![
                c.label(),
                c.snics.to_string(),
                format!("{:.0}G", c.gbps),
                format!("{:.0}G", c.gbps * c.servers as f64),
            ]);
        }
        println!("{t}");
        println!("Each cell: flow-hash ring over all shards, accel/host rung per SNIC");
        println!("shard, one-hop spill between shards, per-shard SLO + fleet TCO.");
        if let Some(spec) = chaos {
            println!(
                "Chaos armed ({spec}): each cell also runs {} degraded variants.",
                Variant::ALL.len() - 1
            );
        }
        return;
    }

    let executor = args.executor();
    let ctx = args.context();
    let variants: &[Variant] = match chaos {
        None => &[Variant::Healthy],
        Some(_) => &Variant::ALL,
    };
    let work: Vec<(Cell, Variant)> = matrix
        .iter()
        .flat_map(|&c| variants.iter().map(move |&v| (c, v)))
        .collect();
    eprintln!(
        "# sweeping {} fleet cells on {servers} servers (jobs={})...",
        work.len(),
        executor.jobs()
    );
    let quick = args.quick;
    let rows: Vec<(Cell, Variant, FleetReport)> = executor.map(work, |(cell, variant)| {
        let mut cfg = config_for(cell, quick);
        if let Some(spec) = chaos {
            variant.apply(&mut cfg, spec);
        }
        let label = match chaos {
            None => cell.label(),
            Some(_) => format!("{}#{}", cell.label(), variant.code()),
        };
        let report = simulate_in(&cfg, &ctx.scope(label));
        (cell, variant, report)
    });

    if let Some(spec) = chaos {
        print_chaos(&args, spec, servers, &rows, &ctx);
        return;
    }
    let rows: Vec<(Cell, FleetReport)> = rows.into_iter().map(|(c, _, r)| (c, r)).collect();

    println!("Fleet — REM (MTU) on {servers} servers: SLO and TCO per composition");
    println!("(SLO per shard: p99 <= 400us, loss <= 1%; TCO: paper REM-row powers)\n");
    let mut t = TextTable::new(vec![
        "cell",
        "offered",
        "achieved",
        "loss",
        "p99(us)",
        "snic share",
        "spills",
        "SLO shards",
        "cap ratio",
        "break-even",
        "TCO",
    ]);
    for (cell, r) in &rows {
        let (ratio, be, verdict) = match &r.tco {
            None => ("-".to_string(), "-".to_string(), "-".to_string()),
            Some(tco) => (
                format!("{:.2}x", tco.capacity_ratio),
                format!("{:.2}x", tco.break_even_ratio),
                format!(
                    "{}{:.1}%",
                    if tco.savings >= 0.0 { "+" } else { "" },
                    tco.savings * 100.0
                ),
            ),
        };
        t.row(vec![
            cell.label(),
            format!("{:.0}G", r.cluster.offered_gbps),
            format!("{:.0}G", r.cluster.achieved_gbps),
            format!("{:.2}%", r.cluster.loss_rate * 100.0),
            format!("{:.1}", r.cluster.p99_us),
            format!("{:.0}%", r.cluster.snic_share * 100.0),
            r.cluster.spills.to_string(),
            format!("{}/{}", r.cluster.shards_meeting_slo, cell.servers),
            ratio,
            be,
            verdict,
        ]);
    }
    println!("{t}");

    let paying = rows
        .iter()
        .filter(|(_, r)| r.tco.as_ref().is_some_and(|t| t.pays_off))
        .count();
    println!(
        "TCO verdict: the SNIC composition clears break-even in {paying}/{} cells.",
        rows.len()
    );

    args.write_outputs("fleet", results_json(&rows), &ctx);
}
