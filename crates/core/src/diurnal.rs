//! The 24 h production-traffic simulation (the `diurnal` binary's engine).
//!
//! Every other experiment in the repo offers a constant rate; production
//! load does not. This module drives a multi-tenant
//! [`TenantMix`](snicbench_net::traffic::TenantMix) — Zipf tenant shares,
//! per-tenant diurnal curves over a compressed 24 h clock, heavy-tailed
//! payload mixes, seeded flow churn — at one of three serving platforms
//! (host-only, the SNIC two-rung pair, or a small sharded fleet), under
//! either the paper's static open-loop client or the AIMD admission
//! window of [`crate::admission`].
//!
//! Results come back bucketed into the day's 24 simulated hours, scored
//! hour-by-hour against the SLO; the headline figure is the
//! *SLO-violation fraction* — what part of the day the platform burned
//! its latency/loss budget — which is where adaptive admission earns its
//! keep: at the diurnal peak a static client buries the server queues
//! (drops and tail blow-ups the SLO counts), while the AIMD window turns
//! that overload into client-side rejections the SLO does not.
//!
//! Accounting is audited: per tenant, `offered == admitted + rejected`
//! and, after the drain, `admitted == completed + dropped`; churn books
//! must balance. The run is single-simulator and event-ordered, so a
//! cell is byte-identical at any `--jobs` width.

use std::cell::RefCell;
use std::rc::Rc;

use snicbench_hw::cpu::Arch;
use snicbench_hw::server::Testbed;
use snicbench_hw::ExecutionPlatform;
use snicbench_metrics::LatencyHistogram;
use snicbench_net::stack::StackModel;
use snicbench_net::traffic::{ChurnBooks, TenantMix};
use snicbench_sim::dist::{Distribution, LogNormal};
use snicbench_sim::fault::{self, ChaosSpec};
use snicbench_sim::queue::FifoStats;
use snicbench_sim::rng::Rng;
use snicbench_sim::station::{Admission, Completion, CompletionHandler, StationHandle};
use snicbench_sim::{SimDuration, SimTime, Simulator};

use crate::admission::{AdmissionMode, AimdLimiter, AimdSettings, Outcome};
use crate::benchmark::Workload;
use crate::calibration::{self, ServiceModel};
use crate::loadbalancer::fleet::{NIC_SERVER_POWER_W, SNIC_SERVER_POWER_W};
use crate::loadbalancer::ring::{HashRing, DEFAULT_VNODES};
use crate::loadbalancer::MONITOR_TAX_NS;
use crate::runner::{LatencyStats, RunMetrics};
use crate::slo::Slo;
use crate::tco::{self, TcoInputs, TcoScenario};
use crate::telemetry::{RunScope, RunTelemetry, ShardRollup};

/// Simulated hours in the compressed day.
pub const HOURS: u32 = 24;

/// The serving platform under the diurnal mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiurnalPlatform {
    /// One host-only shard: the host CPU pool serves everything.
    Host,
    /// One SNIC shard: the paper's two-rung pair (accelerator while its
    /// backlog is short, host pool otherwise).
    Snic,
    /// A small consistent-hash fleet with SNICs on a subset of shards and
    /// one-hop spill between them.
    Fleet,
}

impl DiurnalPlatform {
    /// Short machine-readable code (`host` / `snic` / `fleet`).
    pub fn code(self) -> &'static str {
        match self {
            DiurnalPlatform::Host => "host",
            DiurnalPlatform::Snic => "snic",
            DiurnalPlatform::Fleet => "fleet",
        }
    }

    /// The `(shards, snic shards)` layout this platform serves with.
    fn layout(self, config: &DiurnalConfig) -> (u32, u32) {
        match self {
            DiurnalPlatform::Host => (1, 0),
            DiurnalPlatform::Snic => (1, 1),
            DiurnalPlatform::Fleet => (config.fleet_shards, config.fleet_snics),
        }
    }
}

/// Configuration of a diurnal simulation (one cell of the `diurnal`
/// binary: a platform × admission-mode pair).
#[derive(Debug, Clone)]
pub struct DiurnalConfig {
    /// The workload (needs host + accelerator calibrations, e.g. REM).
    pub workload: Workload,
    /// The serving platform.
    pub platform: DiurnalPlatform,
    /// The client admission policy.
    pub admission: AdmissionMode,
    /// Tenant count of the mix.
    pub tenants: u32,
    /// Zipf skew of tenant shares, in `[0, 1)`.
    pub theta: f64,
    /// Mean offered load per shard, Gb/s (the diurnal curve swings around
    /// this; aggregate mean = shards × this).
    pub per_shard_gbps: f64,
    /// The compressed 24 h clock: one simulated day, also the run length.
    pub day: SimDuration,
    /// RNG seed.
    pub seed: u64,
    /// The SLO each simulated hour is scored against.
    pub slo: Slo,
    /// AIMD tuning for the adaptive client (ignored under
    /// [`AdmissionMode::Static`]).
    pub aimd: AimdSettings,
    /// SNIC-rung backlog threshold (same meaning as the fleet's).
    pub accel_backlog: usize,
    /// Host-pool load at which a fleet shard spills one ring hop.
    pub spill_threshold: usize,
    /// Virtual nodes per shard on the consistent-hash ring.
    pub vnodes: u32,
    /// Shard count of the [`DiurnalPlatform::Fleet`] layout.
    pub fleet_shards: u32,
    /// SNIC-equipped shards of the fleet layout.
    pub fleet_snics: u32,
    /// Node-fault injection: shards inside a fault window drop at
    /// submission (booked drops, so every ledger still balances), which
    /// is exactly the overload signal the AIMD client cuts on. `None`
    /// (the default) is byte-identical to a build without chaos.
    pub chaos: Option<ChaosSpec>,
}

impl DiurnalConfig {
    /// Defaults: 6 tenants at Zipf 0.9, 55 G mean per shard, a 48 ms
    /// day, p99 ≤ 400 µs / loss ≤ 1% per hour, the standard AIMD tuning
    /// against that SLO, and a 4-shard/2-SNIC fleet layout.
    pub fn new(workload: Workload, platform: DiurnalPlatform, admission: AdmissionMode) -> Self {
        let slo = Slo {
            p99_us: 400.0,
            min_gbps: 0.0,
            max_loss: 0.01,
        };
        DiurnalConfig {
            workload,
            platform,
            admission,
            tenants: 6,
            theta: 0.9,
            per_shard_gbps: 55.0,
            day: SimDuration::from_millis(48),
            seed: 0xD1A7,
            aimd: AimdSettings::standard(slo.p99_us),
            slo,
            accel_backlog: 64,
            spill_threshold: 256,
            vnodes: DEFAULT_VNODES,
            fleet_shards: 4,
            fleet_snics: 2,
            chaos: None,
        }
    }

    /// The number of shards the platform serves from: one for host and
    /// SNIC, [`DiurnalConfig::fleet_shards`] for the fleet.
    pub fn shards(&self) -> u32 {
        self.platform.layout(self).0
    }
}

/// One simulated hour's roll-up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HourBucket {
    /// Hour of the simulated day, `0..24`.
    pub hour: u32,
    /// Packets the tenants generated this hour.
    pub offered: u64,
    /// Wire bytes the tenants generated this hour.
    pub offered_bytes: u64,
    /// Packets past the client's admission gate.
    pub admitted: u64,
    /// Packets the adaptive client rejected (zero under static).
    pub rejected: u64,
    /// Admitted packets that completed service.
    pub completed: u64,
    /// Admitted packets dropped at a server queue.
    pub dropped: u64,
    /// Goodput of the hour, Gb/s.
    pub achieved_gbps: f64,
    /// Offered byte rate of the hour, Gb/s.
    pub offered_gbps: f64,
    /// p99 round trip of the hour's completions, µs.
    pub p99_us: f64,
    /// Server-side loss this hour (`dropped / admitted`; client
    /// rejections are *not* SLO loss — the client backed off cleanly).
    pub loss_rate: f64,
    /// Whether the hour's operating point met the SLO.
    pub slo_met: bool,
}

/// One tenant's audited ledger over the day.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantBooks {
    /// Tenant index (0 = most popular).
    pub tenant: u32,
    /// The tenant's Zipf share of the aggregate mean load.
    pub share: f64,
    /// Packets the tenant generated.
    pub offered: u64,
    /// Packets past the admission gate.
    pub admitted: u64,
    /// Packets rejected at the client.
    pub rejected: u64,
    /// Admitted packets that completed.
    pub completed: u64,
    /// Admitted packets dropped at a server queue.
    pub dropped: u64,
    /// The tenant's flow-churn ledger.
    pub churn: ChurnBooks,
}

/// Final state of the adaptive client's window (absent under static).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LimiterSummary {
    /// The window when the day ended.
    pub final_limit: usize,
    /// The largest window of the day.
    pub peak_limit: usize,
    /// Multiplicative cuts taken over the day.
    pub cuts: u64,
}

/// Results of one diurnal simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct DiurnalReport {
    /// The 24 hourly roll-ups.
    pub hours: Vec<HourBucket>,
    /// Per-tenant audited ledgers.
    pub tenants: Vec<TenantBooks>,
    /// Per-shard roll-ups over the whole day (RunReport v4 `shards`).
    pub shards: Vec<ShardRollup>,
    /// Fraction of the 24 hours that violated the SLO — the headline.
    pub violation_fraction: f64,
    /// The busiest hour (most offered packets).
    pub peak_hour: u32,
    /// p99 at the peak hour, µs.
    pub peak_p99_us: f64,
    /// Server-side loss at the peak hour.
    pub peak_loss: f64,
    /// Mean offered byte rate over the day, Gb/s.
    pub offered_gbps: f64,
    /// Goodput over the day, Gb/s.
    pub achieved_gbps: f64,
    /// Whole-day p99, µs.
    pub p99_us: f64,
    /// Whole-day server-side loss (`dropped / admitted`).
    pub loss_rate: f64,
    /// Fraction of offered packets the client rejected.
    pub rejected_share: f64,
    /// The admission mode this report measured.
    pub admission: AdmissionMode,
    /// The adaptive window's day-end state (`None` under static).
    pub limiter: Option<LimiterSummary>,
}

/// The SNIC-vs-host TCO verdict for a platform pair measured under the
/// same day and admission mode.
#[derive(Debug, Clone, PartialEq)]
pub struct DiurnalTco {
    /// Per-shard goodput of the SNIC-equipped platform, Gb/s.
    pub snic_shard_gbps: f64,
    /// Per-shard goodput of the host-only platform, Gb/s.
    pub host_shard_gbps: f64,
    /// Measured capacity ratio (SNIC ÷ host).
    pub capacity_ratio: f64,
    /// The 5-year cost-crossover ratio.
    pub break_even_ratio: f64,
    /// True when the measured ratio clears break-even.
    pub pays_off: bool,
    /// Fleet TCO savings at the measured capacities.
    pub savings: f64,
}

/// Scores a SNIC-equipped day against a host-only day under the 5-year
/// TCO model (paper REM-row power draws). `None` when either platform
/// measured zero goodput.
pub fn tco_compare(snic: &DiurnalReport, host: &DiurnalReport) -> Option<DiurnalTco> {
    let snic_shard_gbps = snic.achieved_gbps / snic.shards.len() as f64;
    let host_shard_gbps = host.achieved_gbps / host.shards.len() as f64;
    if snic_shard_gbps <= 0.0 || host_shard_gbps <= 0.0 {
        return None;
    }
    let inputs = TcoInputs::paper_default();
    let break_even_ratio =
        tco::break_even_capacity_ratio(&inputs, SNIC_SERVER_POWER_W, NIC_SERVER_POWER_W);
    let row = tco::analyze(
        &TcoScenario {
            name: "diurnal".into(),
            snic_capacity: snic_shard_gbps,
            nic_capacity: host_shard_gbps,
            snic_power_w: SNIC_SERVER_POWER_W,
            nic_power_w: NIC_SERVER_POWER_W,
        },
        &inputs,
    );
    let capacity_ratio = snic_shard_gbps / host_shard_gbps;
    Some(DiurnalTco {
        snic_shard_gbps,
        host_shard_gbps,
        capacity_ratio,
        break_even_ratio,
        pays_off: capacity_ratio > break_even_ratio,
        savings: row.savings(),
    })
}

/// Completion-token layout: everything the completion side needs rides
/// in token `a` (shard, hour, tenant, rung, wire size), token `b` is the
/// arrival nanos — no allocation on the hot path.
const TOKEN_SHARD_MASK: u64 = 0xF;
const TOKEN_HOUR_SHIFT: u32 = 4;
const TOKEN_HOUR_MASK: u64 = 0x1F;
const TOKEN_TENANT_SHIFT: u32 = 9;
const TOKEN_TENANT_MASK: u64 = 0xFF;
const TOKEN_SNIC_BIT: u64 = 1 << 17;
const TOKEN_SIZE_SHIFT: u32 = 18;
const TOKEN_SIZE_MASK: u64 = 0x3FFF;

/// Flat per-hour counters updated on the hot path.
#[derive(Debug, Clone, Copy, Default)]
struct HourCounter {
    offered: u64,
    offered_bytes: u64,
    admitted: u64,
    rejected: u64,
    completed: u64,
    completed_bytes: u64,
    dropped: u64,
}

/// Flat per-tenant counters updated on the hot path.
#[derive(Debug, Clone, Copy, Default)]
struct TenantCounter {
    offered: u64,
    admitted: u64,
    rejected: u64,
    completed: u64,
    dropped: u64,
}

/// Flat per-shard counters (fleet semantics: `sent` counts admissions
/// reaching the shard, so books balance after the drain).
#[derive(Debug, Clone, Copy, Default)]
struct ShardCounters {
    sent: u64,
    completed: u64,
    dropped: u64,
    snic_completed: u64,
    spill_in: u64,
    spill_out: u64,
}

/// Mutable tallies shared between the packet sink and the completion
/// handler (single-threaded within one simulation).
struct Tallies {
    hours: Vec<HourCounter>,
    hour_hists: Vec<LatencyHistogram>,
    tenants: Vec<TenantCounter>,
    shards: Vec<ShardCounters>,
    shard_hists: Vec<LatencyHistogram>,
}

/// One shard's serving stations (fleet shape).
struct ShardStations {
    host: StationHandle,
    accel: Option<StationHandle>,
}

/// The shared completion callback: unpacks the token, reconstructs the
/// round trip (fixed path + per-size serialization), feeds the hour,
/// shard, and tenant ledgers, and returns the AIMD slot.
struct DiurnalHandler {
    tallies: Rc<RefCell<Tallies>>,
    limiter: Option<Rc<RefCell<AimdLimiter>>>,
    host_fixed: SimDuration,
    accel_fixed: SimDuration,
}

impl CompletionHandler for DiurnalHandler {
    fn on_complete(&self, _sim: &mut Simulator, done: Completion, a: u64, b: u64) {
        let shard = (a & TOKEN_SHARD_MASK) as usize;
        let hour = ((a >> TOKEN_HOUR_SHIFT) & TOKEN_HOUR_MASK) as usize;
        let tenant = ((a >> TOKEN_TENANT_SHIFT) & TOKEN_TENANT_MASK) as usize;
        let on_snic = a & TOKEN_SNIC_BIT != 0;
        let size = (a >> TOKEN_SIZE_SHIFT) & TOKEN_SIZE_MASK;
        let base = if on_snic {
            self.accel_fixed
        } else {
            self.host_fixed
        };
        let serialization = SimDuration::from_secs_f64(2.0 * size as f64 * 8.0 / 100e9);
        let rtt = done.finished.duration_since(SimTime::from_nanos(b)) + base + serialization;
        let mut t = self.tallies.borrow_mut();
        let h = &mut t.hours[hour];
        h.completed += 1;
        h.completed_bytes += size;
        t.hour_hists[hour].record(rtt.as_nanos());
        let s = &mut t.shards[shard];
        s.completed += 1;
        if on_snic {
            s.snic_completed += 1;
        }
        t.shard_hists[shard].record(rtt.as_nanos());
        t.tenants[tenant].completed += 1;
        drop(t);
        if let Some(limiter) = &self.limiter {
            let mut l = limiter.borrow_mut();
            let outcome = l.classify(rtt, false);
            l.release(outcome);
        }
    }
}

/// Runs the diurnal simulation without telemetry collection.
///
/// # Panics
///
/// Panics under the same conditions as [`simulate_in`].
pub fn simulate(config: &DiurnalConfig) -> DiurnalReport {
    simulate_in(config, &RunScope::disabled())
}

/// Runs one simulated day, collecting telemetry into `scope` when
/// enabled (standard RunReport v3 run + per-shard roll-ups).
///
/// # Panics
///
/// Panics if the workload lacks a host or accelerator calibration, the
/// day or offered load is non-positive, or the layout exceeds the token
/// packing (more than 16 shards or 256 tenants).
pub fn simulate_in(config: &DiurnalConfig, scope: &RunScope) -> DiurnalReport {
    assert!(!config.day.is_zero(), "the day must be non-empty");
    assert!(config.per_shard_gbps > 0.0, "offered load must be positive");
    let (shard_count, snic_count) = config.platform.layout(config);
    assert!(
        (1..=16).contains(&shard_count) && snic_count <= shard_count,
        "layout must fit the token packing: 1..=16 shards, snics <= shards"
    );
    assert!(
        (1..=256).contains(&config.tenants),
        "token packing carries at most 256 tenants"
    );

    let w = config.workload;
    let bytes = w.request_bytes();
    let host_cal =
        calibration::lookup(w, ExecutionPlatform::HostCpu).expect("host calibration required");
    let accel_cal = calibration::lookup(w, ExecutionPlatform::SnicAccelerator)
        .expect("accelerator calibration required");
    let ServiceModel::Cpu(host_cpu) = host_cal.service else {
        panic!("host side must be CPU-served");
    };
    let ServiceModel::Accelerator {
        op_ns, staging_us, ..
    } = accel_cal.service
    else {
        panic!("SNIC side must be accelerator-served");
    };
    let stack = StackModel::for_stack(w.stack());
    let testbed = Testbed::new();

    // Service distributions are calibrated at the workload's reference
    // request size; the tenant mixes offer heavy-tailed sizes, so each
    // sampled demand is scaled linearly by wire size (per-byte work).
    let host_mean_ns = stack.cpu_time(Arch::X86_64, bytes).as_secs_f64() * 1e9 + host_cpu.app_ns;
    let host_dist = LogNormal::with_mean_cv(host_mean_ns, host_cpu.cv.max(0.01));
    let accel_dist = LogNormal::with_mean_cv(op_ns + MONITOR_TAX_NS, 0.05);

    // Fixed path latencies *without* serialization: the serialization
    // round trip depends on the packet's wire size, so the completion
    // handler adds it per packet.
    let host_fixed = testbed.round_trip_fixed_latency(ExecutionPlatform::HostCpu)
        + stack.added_latency(Arch::X86_64);
    let accel_fixed = testbed.round_trip_fixed_latency(ExecutionPlatform::SnicCpu)
        + stack.added_latency(Arch::Aarch64)
        + SimDuration::from_secs_f64(staging_us * 1e-6);

    // Size the mix to the target mean byte rate: tenant shapes derive
    // from the seed alone, so the byte rate is linear in the packet rate
    // and one reference build calibrates the scale.
    let target_gbps = config.per_shard_gbps * f64::from(shard_count);
    let reference = TenantMix::new(config.tenants, config.theta, 1e6, config.day, config.seed);
    let total_pps = 1e6 * target_gbps / reference.mean_gbps();
    let mix = TenantMix::new(
        config.tenants,
        config.theta,
        total_pps,
        config.day,
        config.seed,
    );

    let mut sim = Simulator::new();
    sim.set_trace(scope.sink(config.day));

    let tallies = Rc::new(RefCell::new(Tallies {
        hours: vec![HourCounter::default(); HOURS as usize],
        hour_hists: (0..HOURS).map(|_| LatencyHistogram::new()).collect(),
        tenants: vec![TenantCounter::default(); config.tenants as usize],
        shards: vec![ShardCounters::default(); shard_count as usize],
        shard_hists: (0..shard_count).map(|_| LatencyHistogram::new()).collect(),
    }));
    let limiter = match config.admission {
        AdmissionMode::Static => None,
        AdmissionMode::Adaptive => Some(Rc::new(RefCell::new(AimdLimiter::new(config.aimd)))),
    };
    let handler: Rc<dyn CompletionHandler> = Rc::new(DiurnalHandler {
        tallies: tallies.clone(),
        limiter: limiter.clone(),
        host_fixed,
        accel_fixed,
    });
    let stations: Rc<Vec<ShardStations>> = Rc::new(
        (0..shard_count)
            .map(|shard| {
                let host =
                    StationHandle::new(format!("d{shard:02}.host"), host_cpu.cores, Some(2048));
                host.set_completion_handler(handler.clone());
                let accel = (shard < snic_count).then(|| {
                    let a = StationHandle::new(format!("d{shard:02}.accel"), 1, Some(1024));
                    a.set_completion_handler(handler.clone());
                    a
                });
                ShardStations { host, accel }
            })
            .collect(),
    );
    let ring = Rc::new(HashRing::new(0..shard_count, config.vnodes));
    let rng = Rc::new(RefCell::new(Rng::new(config.seed ^ 0xD1A7)));

    // Chaos: shards inside a node-fault window refuse service (booked
    // drops). `None` injects nothing — the healthy path is untouched.
    let chaos_state = config.chaos.map(|spec| {
        let plan = fault::chaos_plan(config.seed, spec, shard_count, config.day);
        fault::inject(&mut sim, &plan)
    });

    let stop = SimTime::ZERO + config.day;
    let day_nanos = config.day.as_nanos();
    let size_unit = bytes as f64;

    let handles = {
        let stations = stations.clone();
        let ring = ring.clone();
        let tallies = tallies.clone();
        let limiter = limiter.clone();
        let rng = rng.clone();
        let chaos = chaos_state.clone();
        let accel_backlog = config.accel_backlog;
        let spill_threshold = config.spill_threshold;
        mix.launch(&mut sim, SimTime::ZERO, stop, move |sim, tenant, packet| {
            let hour = ((packet.created.as_nanos() * u64::from(HOURS) / day_nanos)
                .min(u64::from(HOURS) - 1)) as usize;
            {
                let mut t = tallies.borrow_mut();
                let h = &mut t.hours[hour];
                h.offered += 1;
                h.offered_bytes += packet.size_bytes;
                t.tenants[tenant as usize].offered += 1;
            }
            // The client-side gate: the adaptive window rejects what it
            // cannot hold; the static client offers everything.
            if let Some(limiter) = &limiter {
                if !limiter.borrow_mut().try_acquire() {
                    let mut t = tallies.borrow_mut();
                    t.hours[hour].rejected += 1;
                    t.tenants[tenant as usize].rejected += 1;
                    return;
                }
            }
            let key = packet.flow_hash();
            let home = ring.route(key) as usize;
            // Fleet semantics: an overloaded home shard spills one ring
            // hop, only onto a strictly lighter shard.
            let mut shard = home;
            if shard_count > 1 {
                let home_load = stations[home].host.load();
                if home_load >= spill_threshold {
                    if let Some(next) = ring.route_excluding(key, home as u32) {
                        if stations[next as usize].host.load() < home_load {
                            shard = next as usize;
                        }
                    }
                }
            }
            if let Some(state) = &chaos {
                if state.borrow().node_down(shard as u32) {
                    // The shard is inside a fault window: the request was
                    // admitted, reached a dead node, and died there. The
                    // drop is booked (ledgers still balance) and — unlike
                    // a silent blackhole — it is exactly the overload
                    // signal the AIMD window cuts on.
                    let mut t = tallies.borrow_mut();
                    t.hours[hour].admitted += 1;
                    t.tenants[tenant as usize].admitted += 1;
                    t.hours[hour].dropped += 1;
                    t.tenants[tenant as usize].dropped += 1;
                    t.shards[shard].sent += 1;
                    t.shards[shard].dropped += 1;
                    drop(t);
                    if let Some(limiter) = &limiter {
                        limiter.borrow_mut().release(Outcome::Overload);
                    }
                    return;
                }
            }
            {
                let mut t = tallies.borrow_mut();
                t.hours[hour].admitted += 1;
                t.tenants[tenant as usize].admitted += 1;
                t.shards[shard].sent += 1;
                if shard != home {
                    t.shards[home].spill_out += 1;
                    t.shards[shard].spill_in += 1;
                }
            }
            let st = &stations[shard];
            let to_snic = st
                .accel
                .as_ref()
                .is_some_and(|a| a.queue_len() < accel_backlog);
            let (station, dist): (&StationHandle, &LogNormal) = match (to_snic, &st.accel) {
                (true, Some(a)) => (a, &accel_dist),
                _ => (&st.host, &host_dist),
            };
            let scale = packet.size_bytes as f64 / size_unit;
            let demand = {
                let mut r = rng.borrow_mut();
                SimDuration::from_secs_f64((dist.sample(&mut r) * scale).max(1.0) * 1e-9)
            };
            let token = shard as u64
                | (hour as u64) << TOKEN_HOUR_SHIFT
                | u64::from(tenant) << TOKEN_TENANT_SHIFT
                | if to_snic { TOKEN_SNIC_BIT } else { 0 }
                | (packet.size_bytes & TOKEN_SIZE_MASK) << TOKEN_SIZE_SHIFT;
            let admission = station.submit_tagged(sim, demand, token, packet.created.as_nanos());
            if admission == Admission::Dropped {
                let mut t = tallies.borrow_mut();
                t.hours[hour].dropped += 1;
                t.tenants[tenant as usize].dropped += 1;
                t.shards[shard].dropped += 1;
                drop(t);
                if let Some(limiter) = &limiter {
                    limiter.borrow_mut().release(Outcome::Overload);
                }
            }
        })
    };
    sim.run();
    let now = sim.now();

    // Roll up. Rates divide by the emission window (the hour, or the
    // day), never the drained clock.
    let t = tallies.borrow();
    let mut violations = Vec::new();
    let hour_secs = config.day.as_secs_f64() / f64::from(HOURS);
    let hours: Vec<HourBucket> = (0..HOURS as usize)
        .map(|i| {
            let c = t.hours[i];
            debug_assert_eq!(
                c.offered,
                c.admitted + c.rejected,
                "hour {i} admission books must balance"
            );
            let p99_us = t.hour_hists[i].p99() as f64 / 1e3;
            let achieved_gbps = c.completed_bytes as f64 * 8.0 / hour_secs / 1e9;
            let loss_rate = if c.admitted > 0 {
                c.dropped as f64 / c.admitted as f64
            } else {
                0.0
            };
            HourBucket {
                hour: i as u32,
                offered: c.offered,
                offered_bytes: c.offered_bytes,
                admitted: c.admitted,
                rejected: c.rejected,
                completed: c.completed,
                dropped: c.dropped,
                achieved_gbps,
                offered_gbps: c.offered_bytes as f64 * 8.0 / hour_secs / 1e9,
                p99_us,
                loss_rate,
                slo_met: config
                    .slo
                    .check_point(p99_us, achieved_gbps, loss_rate)
                    .met(),
            }
        })
        .collect();

    // The audited per-tenant ledgers: generation == admission gate
    // outcomes, and after the drain every admission completed or
    // dropped; churn books must balance.
    let tenants: Vec<TenantBooks> = mix
        .tenants
        .iter()
        .zip(&handles)
        .map(|(tenant, handle)| {
            let c = t.tenants[tenant.id as usize];
            let generated = handle.stats.borrow().sent;
            let churn = handle.churn.borrow().books();
            if c.offered != generated {
                violations.push(format!(
                    "tenant {}: sink saw {} of {generated} generated packets",
                    tenant.id, c.offered
                ));
            }
            if c.offered != c.admitted + c.rejected {
                violations.push(format!(
                    "tenant {}: offered {} != admitted {} + rejected {}",
                    tenant.id, c.offered, c.admitted, c.rejected
                ));
            }
            if c.admitted != c.completed + c.dropped {
                violations.push(format!(
                    "tenant {}: admitted {} != completed {} + dropped {} after drain",
                    tenant.id, c.admitted, c.completed, c.dropped
                ));
            }
            if !churn.balanced() {
                violations.push(format!("tenant {}: churn books unbalanced", tenant.id));
            }
            debug_assert!(
                violations.is_empty(),
                "conservation audit failed: {violations:?}"
            );
            TenantBooks {
                tenant: tenant.id,
                share: tenant.share,
                offered: c.offered,
                admitted: c.admitted,
                rejected: c.rejected,
                completed: c.completed,
                dropped: c.dropped,
                churn,
            }
        })
        .collect();

    let day_secs = config.day.as_secs_f64();
    let shards: Vec<ShardRollup> = (0..shard_count as usize)
        .map(|i| {
            let c = t.shards[i];
            debug_assert_eq!(
                c.sent,
                c.completed + c.dropped,
                "shard {i} books must balance after the drain"
            );
            let st = &stations[i];
            if !st.host.conservation_holds() {
                violations.push(format!("shard {i} host station violates conservation"));
            }
            let host_stats = st.host.finalize_stats(now);
            let accel_util = st
                .accel
                .as_ref()
                .map_or(0.0, |a| a.finalize_stats(now).utilization(1, now));
            // Per-shard goodput approximates bytes by the mix's mean wire
            // size: shard byte counters are not tracked on the hot path.
            let mean_bytes = mix.mean_gbps() * 1e9 / 8.0 / mix.mean_rate();
            let achieved_gbps = c.completed as f64 * mean_bytes * 8.0 / day_secs / 1e9;
            let p99_us = t.shard_hists[i].p99() as f64 / 1e3;
            let loss = if c.sent > 0 {
                c.dropped as f64 / c.sent as f64
            } else {
                0.0
            };
            ShardRollup {
                shard: i as u32,
                has_snic: (i as u32) < snic_count,
                sent: c.sent,
                completed: c.completed,
                dropped: c.dropped,
                snic_completed: c.snic_completed,
                spill_in: c.spill_in,
                spill_out: c.spill_out,
                achieved_gbps,
                p99_us,
                host_util: host_stats.utilization(host_cpu.cores, now),
                accel_util,
                slo_met: config.slo.check_point(p99_us, achieved_gbps, loss).met(),
                down_windows: chaos_state
                    .as_ref()
                    .map_or(0, |s| s.borrow().down_windows(i as u32)),
                remapped: 0,
                remapped_in_flight: 0,
                hedged: 0,
                hedge_wins: 0,
            }
        })
        .collect();

    let offered: u64 = hours.iter().map(|h| h.offered).sum();
    let admitted: u64 = hours.iter().map(|h| h.admitted).sum();
    let rejected: u64 = hours.iter().map(|h| h.rejected).sum();
    let completed: u64 = hours.iter().map(|h| h.completed).sum();
    let dropped: u64 = hours.iter().map(|h| h.dropped).sum();
    let completed_bytes: u64 = t.hours.iter().map(|h| h.completed_bytes).sum();
    let offered_bytes: u64 = hours.iter().map(|h| h.offered_bytes).sum();
    let mut day_hist = LatencyHistogram::new();
    for h in &t.hour_hists {
        day_hist.merge(h);
    }
    let violating = hours.iter().filter(|h| !h.slo_met).count();
    let peak_hour = hours
        .iter()
        .max_by_key(|h| h.offered)
        .map_or(0, |h| h.hour);
    let peak = &hours[peak_hour as usize];

    let report = DiurnalReport {
        violation_fraction: violating as f64 / f64::from(HOURS),
        peak_hour,
        peak_p99_us: peak.p99_us,
        peak_loss: peak.loss_rate,
        offered_gbps: offered_bytes as f64 * 8.0 / day_secs / 1e9,
        achieved_gbps: completed_bytes as f64 * 8.0 / day_secs / 1e9,
        p99_us: day_hist.p99() as f64 / 1e3,
        loss_rate: if admitted > 0 {
            dropped as f64 / admitted as f64
        } else {
            0.0
        },
        rejected_share: if offered > 0 {
            rejected as f64 / offered as f64
        } else {
            0.0
        },
        admission: config.admission,
        limiter: limiter.as_ref().map(|l| {
            let l = l.borrow();
            LimiterSummary {
                final_limit: l.limit(),
                peak_limit: l.peak_limit(),
                cuts: l.cuts(),
            }
        }),
        hours,
        tenants,
        shards: shards.clone(),
    };

    if scope.enabled() {
        sim.trace().finish(now);
        if let Some(data) = sim.trace().take() {
            let host_util = mean(shards.iter().map(|s| s.host_util));
            let snic_util = mean(shards.iter().filter(|s| s.has_snic).map(|s| s.accel_util));
            let metrics = RunMetrics {
                offered_ops: total_pps,
                sent: admitted,
                completed,
                dropped,
                achieved_ops: completed as f64 / day_secs,
                achieved_gbps: report.achieved_gbps,
                latency: LatencyStats {
                    mean_us: day_hist.mean() / 1e3,
                    p50_us: day_hist.percentile(50.0) as f64 / 1e3,
                    p99_us: report.p99_us,
                    max_us: day_hist.max() as f64 / 1e3,
                },
                service_util: host_util,
                host_cpu_util: host_util,
                snic_util,
                faults: crate::resilience::FaultTally {
                    queue_rejections: dropped,
                    exhausted: dropped,
                    ..Default::default()
                },
            };
            let mut fifo = FifoStats::default();
            for st in stations.iter() {
                for s in std::iter::once(&st.host).chain(st.accel.as_ref()) {
                    let f = s.fifo_stats();
                    fifo.offered += f.offered;
                    fifo.accepted += f.accepted;
                    fifo.dropped += f.dropped;
                    fifo.dequeued += f.dequeued;
                    fifo.max_depth = fifo.max_depth.max(f.max_depth);
                }
            }
            let mut telemetry = RunTelemetry::from_trace(
                scope.label(),
                w.name(),
                format!(
                    "diurnal-{}-{}",
                    config.platform.code(),
                    config.admission.code()
                ),
                config.seed,
                metrics,
                fifo,
                data,
                now,
                violations,
            );
            telemetry.shards = shards;
            scope.submit(telemetry);
        }
    }

    report
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0u32);
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / f64::from(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snicbench_functions::rem::RemRuleset;

    fn rem() -> Workload {
        Workload::RemMtu(RemRuleset::FileExecutable)
    }

    fn small(platform: DiurnalPlatform, admission: AdmissionMode) -> DiurnalConfig {
        let mut cfg = DiurnalConfig::new(rem(), platform, admission);
        cfg.day = SimDuration::from_millis(8);
        cfg
    }

    #[test]
    fn admission_books_balance_per_tenant_and_hour() {
        for admission in [AdmissionMode::Static, AdmissionMode::Adaptive] {
            let report = simulate(&small(DiurnalPlatform::Host, admission));
            for b in &report.tenants {
                assert_eq!(
                    b.offered,
                    b.admitted + b.rejected,
                    "tenant {} admission gate must conserve",
                    b.tenant
                );
                assert_eq!(
                    b.admitted,
                    b.completed + b.dropped,
                    "tenant {} service books must balance",
                    b.tenant
                );
                assert!(b.churn.balanced());
                assert!(b.offered > 0, "every tenant offers load");
            }
            for h in &report.hours {
                assert_eq!(h.offered, h.admitted + h.rejected, "hour {}", h.hour);
                assert_eq!(h.admitted, h.completed + h.dropped, "hour {}", h.hour);
            }
            assert_eq!(report.hours.len(), HOURS as usize);
        }
    }

    #[test]
    fn static_client_rejects_nothing() {
        let report = simulate(&small(DiurnalPlatform::Host, AdmissionMode::Static));
        assert_eq!(report.rejected_share, 0.0);
        assert!(report.limiter.is_none());
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = small(DiurnalPlatform::Fleet, AdmissionMode::Adaptive);
        let a = simulate(&cfg);
        let b = simulate(&cfg);
        assert_eq!(a, b, "same config + seed must reproduce exactly");
    }

    #[test]
    fn tenant_shares_are_zipf_ordered() {
        let report = simulate(&small(DiurnalPlatform::Host, AdmissionMode::Static));
        for pair in report.tenants.windows(2) {
            assert!(
                pair[0].offered > pair[1].offered / 2,
                "tenant popularity should fall gently with rank"
            );
            assert!(pair[0].share >= pair[1].share);
        }
        let first = &report.tenants[0];
        let last = report.tenants.last().expect("tenants exist");
        assert!(
            first.offered > last.offered,
            "the head tenant must out-offer the tail"
        );
    }

    #[test]
    fn traffic_is_diurnal() {
        let report = simulate(&small(DiurnalPlatform::Host, AdmissionMode::Static));
        let peak = &report.hours[report.peak_hour as usize];
        let trough = report
            .hours
            .iter()
            .min_by_key(|h| h.offered)
            .expect("24 hours");
        assert!(
            peak.offered as f64 > 1.5 * trough.offered as f64,
            "the day must swing: peak {} vs trough {}",
            peak.offered,
            trough.offered
        );
        // Default phase: the day starts at the trough, peaks mid-day.
        assert!((6..18).contains(&report.peak_hour), "{}", report.peak_hour);
    }

    #[test]
    fn adaptive_admission_beats_static_at_the_peak() {
        let static_run = simulate(&small(DiurnalPlatform::Host, AdmissionMode::Static));
        let adaptive_run = simulate(&small(DiurnalPlatform::Host, AdmissionMode::Adaptive));
        assert!(
            static_run.violation_fraction > 0.0,
            "the static client must burn SLO hours at the diurnal peak"
        );
        assert!(
            adaptive_run.violation_fraction < static_run.violation_fraction,
            "AIMD must shed the peak: adaptive {} vs static {}",
            adaptive_run.violation_fraction,
            static_run.violation_fraction
        );
        assert!(
            adaptive_run.rejected_share > 0.0,
            "the window must actually reject at the peak"
        );
        let l = adaptive_run.limiter.expect("adaptive runs summarize");
        assert!(l.cuts > 0, "overload must cut the window");
    }

    #[test]
    fn snic_platform_offloads_to_the_accelerator() {
        let report = simulate(&small(DiurnalPlatform::Snic, AdmissionMode::Static));
        assert_eq!(report.shards.len(), 1);
        let shard = &report.shards[0];
        assert!(shard.has_snic);
        assert!(shard.snic_completed > 0, "the accelerator rung must serve");
        assert!(shard.accel_util > 0.0);
    }

    #[test]
    fn fleet_platform_shards_and_spills_books() {
        let report = simulate(&small(DiurnalPlatform::Fleet, AdmissionMode::Static));
        assert_eq!(report.shards.len(), 4);
        for s in &report.shards {
            assert_eq!(s.sent, s.completed + s.dropped, "shard {}", s.shard);
            assert!(s.sent > 0, "flow hashing must reach shard {}", s.shard);
            assert_eq!(s.has_snic, s.shard < 2);
        }
        let out: u64 = report.shards.iter().map(|s| s.spill_out).sum();
        let inn: u64 = report.shards.iter().map(|s| s.spill_in).sum();
        assert_eq!(out, inn);
    }

    #[test]
    fn tco_compare_scores_snic_against_host() {
        let host = simulate(&small(DiurnalPlatform::Host, AdmissionMode::Static));
        let snic = simulate(&small(DiurnalPlatform::Snic, AdmissionMode::Static));
        let tco = tco_compare(&snic, &host).expect("both days measured goodput");
        assert!(tco.capacity_ratio > 0.0);
        assert!(
            (1.0..1.1).contains(&tco.break_even_ratio),
            "{}",
            tco.break_even_ratio
        );
        assert_eq!(tco.pays_off, tco.capacity_ratio > tco.break_even_ratio);
    }

    #[test]
    fn telemetry_scope_collects_the_run() {
        let ctx = crate::telemetry::RunContext::collecting();
        let cfg = small(DiurnalPlatform::Snic, AdmissionMode::Adaptive);
        let report = simulate_in(&cfg, &ctx.scope("diurnal/test"));
        let runs = ctx.drain();
        assert_eq!(runs.len(), 1);
        let run = &runs[0];
        assert_eq!(run.label, "diurnal/test");
        assert_eq!(run.platform, "diurnal-snic-adaptive");
        assert_eq!(run.shards, report.shards);
        assert!(run.violations.is_empty(), "{:?}", run.violations);
    }

    #[test]
    #[should_panic(expected = "day must be non-empty")]
    fn empty_day_panics() {
        let mut cfg = small(DiurnalPlatform::Host, AdmissionMode::Static);
        cfg.day = SimDuration::ZERO;
        let _ = simulate(&cfg);
    }
}
