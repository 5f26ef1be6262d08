//! Per-layer kernels. Each calls one layer's public functions in
//! isolation, with inputs taken from the workload it serves (its rates,
//! flow counts, shard counts and calibrated service means), under a span
//! of its own, and reports the median of its reps. A `glue` metric is a
//! whole-simulation cost per request minus the layer kernels it is made
//! of: the cost no layer accounts for.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::{Rc, Weak};

use snicbench_core::admission::{AdmissionMode, AimdLimiter, AimdSettings};
use snicbench_core::benchmark;
use snicbench_core::calibration::{self, ServiceModel};
use snicbench_core::diurnal::{self, DiurnalPlatform};
use snicbench_core::executor::Executor;
use snicbench_core::experiment::{measure_power, OperatingPoint, Scenario};
use snicbench_core::loadbalancer::fleet;
use snicbench_core::loadbalancer::ring::{HashRing, DEFAULT_VNODES};
use snicbench_core::runner;
use snicbench_core::telemetry::RunContext;
use snicbench_hw::cpu::Arch;
use snicbench_hw::ExecutionPlatform;
use snicbench_metrics::LatencyHistogram;
use snicbench_net::packet::PacketFactory;
use snicbench_net::stack::StackModel;
use snicbench_net::traffic::{ArrivalKind, Poisson, RateDriven, TenantMix, TrafficSpec};
use snicbench_sim::dist::{Distribution, Exponential, LogNormal};
use snicbench_sim::engine::{EventHandler, EventToken, Simulator};
use snicbench_sim::event::EventId;
use snicbench_sim::rng::{DrawStream, Rng};
use snicbench_sim::station::{Completion, CompletionHandler, StationHandle};
use snicbench_sim::{SimDuration, SimTime};

use crate::host::{self, timed};
use crate::spans::Tracer;
use crate::stats::{median, tail_percentile};
use crate::workloads::{self, chaos_cells, fig4_budget, fleet_config, sized_run, Size, Variant};

/// One per-layer metric: what it measures and which end-to-end metric it
/// should move on which workloads (written down before measuring).
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    /// The end-to-end metric a change to this layer should move.
    pub moves: &'static str,
    /// Where it should move.
    pub on: &'static str,
    /// Where it is predicted not to move.
    pub unchanged_on: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
    on: &'static str,
    unchanged_on: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        moves,
        on,
        unchanged_on,
    }
}

/// Every per-layer metric, in report order.
#[rustfmt::skip]
pub const LAYER_METRICS: &[LayerMetric] = &[
    m("sim.event.ns_per_event", "ns", "ref_sim_req_per_s, ref_wall_s", "all", "-"),
    m("sim.station.ns_per_job", "ns", "ref_sim_req_per_s", "fleet-64, diurnal-day", "-"),
    m("sim.dist.ns_per_draw", "ns", "ref_wall_s", "fig4-search, fleet-64", "-"),
    m("sim.dist.dyn_ns_per_draw", "ns", "ref_wall_s", "fig4-search", "fleet-64"),
    m("net.traffic.poisson_ns_per_arrival", "ns", "ref_sim_req_per_s", "fleet-64", "fig4-search, diurnal-day"),
    m("net.traffic.ratedriven_ns_per_arrival", "ns", "ref_wall_s", "fig4-search", "fleet-64, diurnal-day"),
    m("net.traffic.tenantmix_ns_per_arrival", "ns", "ref_sim_req_per_s", "diurnal-day", "fleet-64, fig4-search"),
    m("metrics.histogram.ns_per_record", "ns", "ref_sim_req_per_s", "fleet-64, diurnal-day", "fig4-search"),
    m("metrics.histogram.merge_us", "us", "ref_sim_req_per_s", "fleet-64, diurnal-day", "fig4-search"),
    m("core.runner.ns_per_req", "ns", "ref_wall_s", "fig4-search", "fleet-64, diurnal-day, fleet-chaos"),
    m("core.runner.setup_us", "us", "ref_wall_s", "fig4-search", "fleet-64, diurnal-day, fleet-chaos"),
    m("core.runner.glue_ns_per_req", "ns", "ref_wall_s", "fig4-search", "fleet-64, diurnal-day, fleet-chaos"),
    m("core.experiment.search_ms_p50", "ms", "ref_wall_s", "fig4-search", "all others"),
    m("core.experiment.search_ms_p90", "ms", "ref_wall_s", "fig4-search", "all others"),
    m("core.experiment.runs_multiplier", "ratio", "ref_wall_s", "fig4-search", "all others"),
    m("core.executor.speedup", "ratio", "ref_wall_s at --jobs N (not gated)", "fig4-search", "-"),
    m("core.executor.idle_share", "ratio", "ref_wall_s at --jobs N (not gated)", "fig4-search", "-"),
    m("core.loadbalancer.ring.ns_per_route", "ns", "ref_sim_req_per_s", "fleet-64", "fig4-search"),
    m("core.loadbalancer.ring.ns_per_route_excluding", "ns", "ref_wall_s", "fleet-chaos", "fig4-search"),
    m("core.loadbalancer.fleet.ns_per_req", "ns", "ref_sim_req_per_s", "fleet-64", "fig4-search"),
    m("core.loadbalancer.fleet.glue_ns_per_req", "ns", "ref_sim_req_per_s", "fleet-64", "fig4-search"),
    m("core.loadbalancer.fleet.spill_share", "ratio", "ref_wall_s", "fleet-chaos", "fleet-64 (no spills at 45/60 Gb/s), fig4-search"),
    m("core.loadbalancer.fleet.hedge_win_ratio", "ratio", "ref_wall_s", "fleet-chaos", "fig4-search"),
    m("core.resilience.rebal_cost_ratio", "ratio", "ref_wall_s", "fleet-chaos", "fleet-64"),
    m("core.resilience.hedge_cost_ratio", "ratio", "ref_wall_s", "fleet-chaos", "fleet-64"),
    m("core.admission.ns_per_op", "ns", "ref_sim_req_per_s", "diurnal-day", "fleet-64, fig4-search"),
    m("core.admission.rejected_share", "ratio", "ref_sim_req_per_s", "diurnal-day", "fleet-64, fig4-search"),
    m("core.diurnal.ns_per_req", "ns", "ref_sim_req_per_s", "diurnal-day", "fleet-64"),
    m("core.diurnal.glue_ns_per_req", "ns", "ref_sim_req_per_s", "diurnal-day", "fleet-64"),
    m("core.telemetry.overhead_ratio", "ratio", "none: e2e runs have telemetry off", "-", "all"),
    m("power.measure_us_per_point", "us", "ref_wall_s", "fig4-search", "all others"),
    m("trace.overhead_ratio", "ratio", "none: the traced pass over the untraced median", "-", "all"),
];

/// Reps per kernel; the fig4 searches and the chaos variants, which take
/// seconds each, run fewer.
const REPS: usize = 5;
const HEAVY_REPS: usize = 3;

/// Inputs the kernels share, derived from the workloads' configs.
struct Inputs {
    seed: u64,
    /// Fleet wire size, bytes.
    bytes: u64,
    /// Aggregate arrival rate of a fleet-64 cell at 45 Gb/s per server.
    fleet_pps: f64,
    /// The fleet host rung's calibrated service law and its mean, ns.
    host_dist: LogNormal,
    host_mean_ns: f64,
    /// Cores of a fleet host pool.
    host_cores: usize,
}

impl Inputs {
    fn new(seed: u64) -> Inputs {
        let cfg = fleet_config(workloads::FLEET_GBPS[0], seed, Size::Full);
        let w = cfg.workload;
        let bytes = w.request_bytes();
        let cal =
            calibration::lookup(w, ExecutionPlatform::HostCpu).expect("REM is host-calibrated");
        let ServiceModel::Cpu(cpu) = cal.service else {
            panic!("the fleet host rung is CPU-served");
        };
        let stack = StackModel::for_stack(w.stack());
        let host_mean_ns = stack.cpu_time(Arch::X86_64, bytes).as_secs_f64() * 1e9 + cpu.app_ns;
        Inputs {
            seed,
            bytes,
            fleet_pps: cfg.per_server_gbps * f64::from(cfg.rack.servers) * 1e9 / 8.0 / bytes as f64,
            host_dist: LogNormal::with_mean_cv(host_mean_ns, cpu.cv.max(0.01)),
            host_mean_ns,
            host_cores: cpu.cores,
        }
    }
}

/// Runs every kernel; returns each per-layer metric by name, except
/// `trace.overhead_ratio`, which the traced workload passes supply.
pub fn run_kernels(seed: u64, tracer: &mut Tracer) -> BTreeMap<&'static str, f64> {
    let inputs = Inputs::new(seed);
    let mut out = BTreeMap::new();
    let mut put = |name: &'static str, v: f64| {
        out.insert(name, v);
    };

    put(
        "sim.event.ns_per_event",
        kernel(tracer, "sim.event", REPS, || churn(seed)),
    );
    let poisson = kernel(tracer, "net.traffic.poisson", REPS, || poisson(&inputs));
    put("net.traffic.poisson_ns_per_arrival", poisson);
    let ratedriven = kernel(tracer, "net.traffic.ratedriven", REPS, || ratedriven(seed));
    put("net.traffic.ratedriven_ns_per_arrival", ratedriven);
    let tenantmix = kernel(tracer, "net.traffic.tenantmix", REPS, || tenantmix(seed));
    put("net.traffic.tenantmix_ns_per_arrival", tenantmix);
    let dist = kernel(tracer, "sim.dist", REPS, || draws(&inputs, false));
    put("sim.dist.ns_per_draw", dist);
    let dyn_dist = kernel(tracer, "sim.dist.dyn", REPS, || draws(&inputs, true));
    put("sim.dist.dyn_ns_per_draw", dyn_dist);
    let station = kernel(tracer, "sim.station", REPS, || station(&inputs)) - poisson;
    put("sim.station.ns_per_job", station);
    let record = kernel(tracer, "metrics.histogram.record", REPS, || record(seed));
    put("metrics.histogram.ns_per_record", record);
    put(
        "metrics.histogram.merge_us",
        kernel(tracer, "metrics.histogram.merge", REPS, || merge(seed)),
    );
    let route = kernel(tracer, "core.loadbalancer.ring", REPS, || {
        routes(&inputs, false)
    });
    put("core.loadbalancer.ring.ns_per_route", route);
    put(
        "core.loadbalancer.ring.ns_per_route_excluding",
        kernel(tracer, "core.loadbalancer.ring.excluding", REPS, || {
            routes(&inputs, true)
        }),
    );

    let runner_ns = kernel(tracer, "core.runner", REPS, || runner_run(seed, false));
    put("core.runner.ns_per_req", runner_ns);
    put(
        "core.runner.setup_us",
        kernel(tracer, "core.runner.setup", REPS, || runner_setup(seed)),
    );
    put(
        "core.runner.glue_ns_per_req",
        runner_ns - (ratedriven + dyn_dist + station + record),
    );
    let traced = kernel(tracer, "core.telemetry", REPS, || runner_run(seed, true));
    put("core.telemetry.overhead_ratio", traced / runner_ns);

    let search = tracer.span("layer.core.experiment", 0, |t| {
        let s = searches(seed, t);
        let ops = s.ms.len() as u64;
        (s, ops)
    });
    put("core.experiment.search_ms_p50", median(&search.ms));
    put(
        "core.experiment.search_ms_p90",
        tail_percentile(&search.ms, 90.0).unwrap_or(f64::NAN),
    );
    put(
        "core.experiment.runs_multiplier",
        median(&search.multipliers),
    );
    let (speedup, idle) = tracer.span("layer.core.executor", 0, |_| {
        (executor(seed, search.serial_s), 1)
    });
    put("core.executor.speedup", speedup);
    put("core.executor.idle_share", idle);
    put(
        "power.measure_us_per_point",
        kernel(tracer, "power", REPS, || power(&search.point, seed)),
    );

    let fleet_ns = kernel(tracer, "core.loadbalancer.fleet", REPS, || fleet_run(seed));
    put("core.loadbalancer.fleet.ns_per_req", fleet_ns);
    put(
        "core.loadbalancer.fleet.glue_ns_per_req",
        fleet_ns - (poisson + route + dist + station + record),
    );
    let chaos = tracer.span("layer.core.resilience", 0, |_| {
        (chaos_costs(seed), 4 * HEAVY_REPS as u64)
    });
    put("core.resilience.rebal_cost_ratio", chaos.rebal);
    put("core.resilience.hedge_cost_ratio", chaos.hedge);
    put(
        "core.loadbalancer.fleet.hedge_win_ratio",
        chaos.hedge_win_ratio,
    );
    put("core.loadbalancer.fleet.spill_share", chaos.spill_share);

    let admission = kernel(tracer, "core.admission", REPS, || admission(seed));
    put("core.admission.ns_per_op", admission);
    let (diurnal_ns, rejected) = tracer.span("layer.core.diurnal", 0, |_| {
        (diurnal_run(seed), REPS as u64)
    });
    put("core.diurnal.ns_per_req", diurnal_ns);
    put("core.admission.rejected_share", rejected);
    put(
        "core.diurnal.glue_ns_per_req",
        diurnal_ns - (tenantmix + admission + station + 2.0 * record),
    );
    out
}

/// Runs `rep` `reps` times under one span named `layer.<name>`; each rep
/// returns `(value, ops)`. Reports the median value.
fn kernel(
    tracer: &mut Tracer,
    name: &str,
    reps: usize,
    mut rep: impl FnMut() -> (f64, u64),
) -> f64 {
    tracer.span(&format!("layer.{name}"), 0, |_| {
        let runs: Vec<(f64, u64)> = (0..reps).map(|_| rep()).collect();
        let values: Vec<f64> = runs.iter().map(|r| r.0).collect();
        (median(&values), runs.iter().map(|r| r.1).sum())
    })
}

/// ns per op of a timed region.
fn per_op(seconds: f64, ops: u64) -> (f64, u64) {
    (seconds * 1e9 / ops.max(1) as f64, ops)
}

// ---------------------------------------------------------------------------
// sim.event: M/M/8 churn with a per-job timer cancel (as bench_engine)
// ---------------------------------------------------------------------------

struct TimeoutSink;

impl EventHandler for TimeoutSink {
    fn on_event(&self, _sim: &mut Simulator, _token: EventToken) {}
}

struct ChurnSource {
    me: RefCell<Weak<ChurnSource>>,
    station: StationHandle,
    service: Exponential,
    gap: Exponential,
    rng: RefCell<DrawStream>,
    timeout_sink: Rc<TimeoutSink>,
    left: Cell<u64>,
}

impl EventHandler for ChurnSource {
    fn on_event(&self, sim: &mut Simulator, _token: EventToken) {
        if self.left.get() == 0 {
            return;
        }
        self.left.set(self.left.get() - 1);
        let (demand, gap) = {
            let mut rng = self.rng.borrow_mut();
            (
                SimDuration::from_nanos(self.service.sample_stream(&mut rng).round() as u64),
                SimDuration::from_nanos(self.gap.sample_stream(&mut rng).round() as u64)
                    .max(SimDuration::from_nanos(1)),
            )
        };
        let timer = sim.schedule_event_in(
            SimDuration::from_micros(500),
            self.timeout_sink.clone(),
            EventToken::ZERO,
        );
        self.station.submit_tagged(sim, demand, timer.to_bits(), 0);
        let me = self
            .me
            .borrow()
            .upgrade()
            .expect("the churn source outlives the run");
        sim.schedule_event_in(gap, me, EventToken::ZERO);
    }
}

impl CompletionHandler for ChurnSource {
    fn on_complete(&self, sim: &mut Simulator, _done: Completion, a: u64, _b: u64) {
        sim.cancel(EventId::from_bits(a));
    }
}

fn churn(seed: u64) -> (f64, u64) {
    let mut sim = Simulator::new();
    let station = StationHandle::new("churn", 8, Some(64));
    let source = Rc::new(ChurnSource {
        me: RefCell::new(Weak::new()),
        station: station.clone(),
        service: Exponential::with_mean(6_400.0),
        gap: Exponential::with_mean(900.0),
        rng: RefCell::new(DrawStream::new(Rng::new(seed ^ 0xC0FFEE))),
        timeout_sink: Rc::new(TimeoutSink),
        left: Cell::new(200_000),
    });
    *source.me.borrow_mut() = Rc::downgrade(&source);
    station.set_completion_handler(source.clone());
    sim.schedule_event_in(SimDuration::ZERO, source, EventToken::ZERO);
    let (_, s) = timed(|| sim.run());
    per_op(s, sim.events_executed())
}

// ---------------------------------------------------------------------------
// net.traffic: the three arrival processes the workloads use
// ---------------------------------------------------------------------------

/// Emits about `arrivals` packets of `spec` into a no-op sink; ns each.
fn generate(spec: TrafficSpec) -> (f64, u64) {
    let mut sim = Simulator::new();
    let stats = spec.launch(&mut sim, |_, p| {
        black_box(p);
    });
    let (_, s) = timed(|| sim.run());
    let sent = stats.borrow().sent;
    per_op(s, sent)
}

fn window_for(arrivals: f64, pps: f64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs_f64(arrivals / pps)
}

/// fleet-64's generator: Poisson over 2 Mi flows at the cell's rate.
fn poisson(i: &Inputs) -> (f64, u64) {
    generate(
        TrafficSpec::new(Poisson::at_pps(i.fleet_pps))
            .fixed_size(i.bytes)
            .flows(1 << 21)
            .seed(i.seed)
            .window(SimTime::ZERO, window_for(200_000.0, i.fleet_pps)),
    )
}

/// The first fig4 search unit: Redis on the host at 80% of capacity.
fn fig4_probe_unit() -> (benchmark::Workload, ExecutionPlatform, f64) {
    let w = benchmark::Workload::figure4_set()[0];
    let p = ExecutionPlatform::HostCpu;
    let cap = calibration::analytic_capacity_ops(w, p).expect("fig4 units are calibrated");
    (w, p, 0.8 * cap)
}

/// The runner's generator: a line-rate-capped rate function, Poisson gaps.
fn ratedriven(seed: u64) -> (f64, u64) {
    let (w, _, rate) = fig4_probe_unit();
    let line = 100e9 / 8.0 / w.request_bytes() as f64;
    generate(
        TrafficSpec::new(RateDriven::new(ArrivalKind::Poisson, move |_| {
            rate.min(line)
        }))
        .fixed_size(w.request_bytes())
        .flows(64)
        .seed(seed)
        .window(SimTime::ZERO, window_for(200_000.0, rate)),
    )
}

/// The diurnal host cell's mix: 6 Zipf tenants at 55 Gb/s mean.
fn tenantmix(seed: u64) -> (f64, u64) {
    let cfg = workloads::diurnal_config(
        DiurnalPlatform::Host,
        AdmissionMode::Static,
        seed,
        Size::Full,
    );
    let day = SimDuration::from_millis(12);
    let reference = TenantMix::new(cfg.tenants, cfg.theta, 1e6, day, cfg.seed);
    let pps = 1e6 * cfg.per_shard_gbps / reference.mean_gbps();
    let mix = TenantMix::new(cfg.tenants, cfg.theta, pps, day, cfg.seed);
    let mut sim = Simulator::new();
    let handles = mix.launch(&mut sim, SimTime::ZERO, SimTime::ZERO + day, |_, t, p| {
        black_box((t, p));
    });
    let (_, s) = timed(|| sim.run());
    per_op(s, handles.iter().map(|h| h.stats.borrow().sent).sum())
}

// ---------------------------------------------------------------------------
// sim.dist, sim.station, metrics.histogram, core.loadbalancer.ring
// ---------------------------------------------------------------------------

/// The fleet host rung's LogNormal, drawn concretely or through
/// `Box<dyn Distribution>` as the runner's rungs draw.
fn draws(i: &Inputs, boxed: bool) -> (f64, u64) {
    const N: u64 = 1_000_000;
    let mut stream = DrawStream::new(Rng::new(i.seed));
    let dyn_dist: Box<dyn Distribution> = Box::new(i.host_dist);
    let (acc, s) = if boxed {
        let d = black_box(&dyn_dist);
        timed(|| (0..N).map(|_| d.sample_stream(&mut stream)).sum::<f64>())
    } else {
        let d = black_box(&i.host_dist);
        timed(|| (0..N).map(|_| d.sample_stream(&mut stream)).sum::<f64>())
    };
    black_box(acc);
    per_op(s, N)
}

struct NoopCompletion;

impl CompletionHandler for NoopCompletion {
    fn on_complete(&self, _sim: &mut Simulator, _done: Completion, _a: u64, _b: u64) {}
}

/// Poisson arrivals submitted to a fleet host pool at 80% load with the
/// calibrated mean demand; ns per job including the generator.
fn station(i: &Inputs) -> (f64, u64) {
    let demand = SimDuration::from_secs_f64(i.host_mean_ns * 1e-9);
    let pps = 0.8 * i.host_cores as f64 / demand.as_secs_f64();
    let station = StationHandle::new("kernel.host", i.host_cores, Some(2048));
    station.set_completion_handler(Rc::new(NoopCompletion));
    let mut sim = Simulator::new();
    let stats = TrafficSpec::new(Poisson::at_pps(pps))
        .fixed_size(i.bytes)
        .seed(i.seed)
        .window(SimTime::ZERO, window_for(200_000.0, pps))
        .launch(&mut sim, move |sim, p| {
            station.submit_tagged(sim, demand, p.flow_id, p.created.as_nanos());
        });
    let (_, s) = timed(|| sim.run());
    let sent = stats.borrow().sent;
    per_op(s, sent)
}

/// Round trips spread like the fleet's, in ns.
fn rtts(seed: u64, n: usize) -> Vec<u64> {
    let d = LogNormal::with_mean_cv(60_000.0, 0.8);
    let mut rng = Rng::new(seed ^ 0x4157);
    (0..n).map(|_| d.sample(&mut rng).max(1.0) as u64).collect()
}

fn record(seed: u64) -> (f64, u64) {
    let values = rtts(seed, 1_000_000);
    let mut h = LatencyHistogram::new();
    let (_, s) = timed(|| {
        for &v in &values {
            h.record(v);
        }
    });
    black_box(h.count());
    per_op(s, values.len() as u64)
}

/// Merging 64 shard histograms into one, as the fleet roll-up does; µs.
fn merge(seed: u64) -> (f64, u64) {
    let values = rtts(seed, 10_000);
    let shards: Vec<LatencyHistogram> = (0..64)
        .map(|k| {
            let mut h = LatencyHistogram::new();
            for &v in &values {
                h.record(v + k);
            }
            h
        })
        .collect();
    let (merged, s) = timed(|| {
        let mut all = LatencyHistogram::new();
        for h in &shards {
            all.merge(h);
        }
        all
    });
    black_box(merged.count());
    (s * 1e6, 64)
}

/// Routes the fleet's flow keys over a 64-shard ring, optionally around
/// 4 down shards (the chaos cell's crash count).
fn routes(i: &Inputs, excluding: bool) -> (f64, u64) {
    let ring = HashRing::new(0..64, DEFAULT_VNODES);
    let mut factory = PacketFactory::new(i.seed, 1 << 21);
    let keys: Vec<u64> = (0..1_000_000)
        .map(|_| factory.create(i.bytes, SimTime::ZERO).flow_hash())
        .collect();
    let down = [5u32, 21, 38, 60];
    let (acc, s) = timed(|| {
        keys.iter()
            .map(|&k| {
                if excluding {
                    ring.route_excluding_any(k, &down).map_or(0, u64::from)
                } else {
                    u64::from(ring.route(k))
                }
            })
            .sum::<u64>()
    });
    black_box(acc);
    per_op(s, keys.len() as u64)
}

// ---------------------------------------------------------------------------
// core.runner and core.telemetry
// ---------------------------------------------------------------------------

/// One fig4 probe-sized runner run with no warm-up (every request
/// counted); with `collecting`, under a telemetry scope.
fn runner_run(seed: u64, collecting: bool) -> (f64, u64) {
    let (w, p, rate) = fig4_probe_unit();
    let mut cfg = sized_run(w, p, rate, 100_000.0, seed);
    cfg.warmup = SimDuration::ZERO;
    let (m, s) = if collecting {
        let ctx = RunContext::collecting();
        timed(|| runner::run_in(&cfg, &ctx.scope("kernel")))
    } else {
        timed(|| runner::run(&cfg))
    };
    per_op(s, m.sent)
}

/// A run whose window holds no request: the runner's fixed set-up, µs.
fn runner_setup(seed: u64) -> (f64, u64) {
    let (w, p, rate) = fig4_probe_unit();
    let mut cfg = sized_run(w, p, rate, 1.0, seed);
    cfg.duration = SimDuration::ZERO;
    cfg.warmup = SimDuration::ZERO;
    let reps = 200u32;
    let (_, s) = timed(|| {
        for _ in 0..reps {
            black_box(runner::run(&cfg));
        }
    });
    (s * 1e6 / f64::from(reps), reps.into())
}

// ---------------------------------------------------------------------------
// core.experiment, core.executor, power
// ---------------------------------------------------------------------------

struct Searches {
    /// Wall ms of every search (58 units x reps).
    ms: Vec<f64>,
    /// Per unit: search wall over one measurement run at the found rate.
    multipliers: Vec<f64>,
    /// Seconds of the first rep's searches, back to back.
    serial_s: f64,
    /// An operating point to measure power at.
    point: OperatingPoint,
}

fn searches(seed: u64, tracer: &mut Tracer) -> Searches {
    let budget = fig4_budget(seed, Size::Full);
    let units = workloads::fig4_units(Size::Full);
    let mut ms = Vec::new();
    let mut multipliers = Vec::new();
    let mut serial_s = 0.0;
    let mut point = None;
    for rep in 0..HEAVY_REPS {
        for (i, &(w, p)) in units.iter().enumerate() {
            let (op, s) = tracer.span("search", i as u64, |_| {
                let (op, s) = timed(|| {
                    Scenario::operating_point(w, p)
                        .budget(budget)
                        .run(&RunContext::disabled())
                });
                let sent = op.metrics.sent;
                ((op, s), sent)
            });
            ms.push(s * 1e3);
            if rep > 0 {
                continue;
            }
            serial_s += s;
            let rate = op.metrics.offered_ops;
            if rate > 0.0 {
                let cfg = sized_run(w, p, rate, budget.measure_ops, budget.seed);
                let (_, one) = timed(|| runner::run(&cfg));
                multipliers.push(s / one);
            }
            point.get_or_insert(op);
        }
    }
    Searches {
        ms,
        multipliers,
        serial_s,
        point: point.expect("fig4 has search units"),
    }
}

/// The fig4 searches on `min(host cores, 2)` workers against their serial
/// time: `(speedup, idle share of the workers)`, where a worker is busy
/// while one of its searches runs.
fn executor(seed: u64, serial_s: f64) -> (f64, f64) {
    let jobs = host::parallelism().min(2);
    let budget = fig4_budget(seed, Size::Full);
    let (busy, wall) = timed(|| {
        Executor::new(jobs).map(workloads::fig4_units(Size::Full), |(w, p)| {
            timed(|| {
                Scenario::operating_point(w, p)
                    .budget(budget)
                    .run(&RunContext::disabled())
            })
            .1
        })
    });
    let busy: f64 = busy.iter().sum();
    (serial_s / wall, 1.0 - busy / (jobs as f64 * wall))
}

fn power(point: &OperatingPoint, seed: u64) -> (f64, u64) {
    let reps = 20;
    let (_, s) = timed(|| {
        for k in 0..reps {
            black_box(measure_power(point, SimDuration::from_secs(60), seed ^ k));
        }
    });
    (s * 1e6 / reps as f64, reps)
}

// ---------------------------------------------------------------------------
// core.loadbalancer.fleet, core.resilience, core.admission, core.diurnal
// ---------------------------------------------------------------------------

/// A 3 ms fleet-64 cell at 45 Gb/s with no warm-up: ns per request.
fn fleet_run(seed: u64) -> (f64, u64) {
    let mut cfg = fleet_config(workloads::FLEET_GBPS[0], seed, Size::Full);
    cfg.duration = SimDuration::from_millis(3);
    cfg.warmup = SimDuration::ZERO;
    let (r, s) = timed(|| fleet::simulate(&cfg));
    per_op(s, r.cluster.sent)
}

struct ChaosCosts {
    rebal: f64,
    hedge: f64,
    hedge_win_ratio: f64,
    /// Spilled share of the rebal variant's requests. The fleet-64 cells
    /// never spill at 45 and 60 Gb/s; the chaos cell's re-homed load does.
    spill_share: f64,
}

/// The chaos cell's variants timed against the healthy run.
fn chaos_costs(seed: u64) -> ChaosCosts {
    let mut walls: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut hedge_win_ratio = 0.0;
    let mut spill_share = 0.0;
    for _ in 0..HEAVY_REPS {
        for (name, cfg) in chaos_cells(seed, Size::Full) {
            let (r, s) = timed(|| fleet::simulate(&cfg));
            walls.entry(name).or_default().push(s);
            let c = r.cluster;
            if name == Variant::Hedge.name() {
                hedge_win_ratio = c.hedge_wins as f64 / c.hedged.max(1) as f64;
            }
            if name == Variant::Rebal.name() {
                spill_share = c.spills as f64 / c.sent.max(1) as f64;
            }
        }
    }
    let med = |v: Variant| median(&walls[v.name()]);
    ChaosCosts {
        rebal: med(Variant::Rebal) / med(Variant::Healthy),
        hedge: med(Variant::Hedge) / med(Variant::Healthy),
        hedge_win_ratio,
        spill_share,
    }
}

/// try_acquire + classify + release over round trips around the AIMD
/// threshold.
fn admission(seed: u64) -> (f64, u64) {
    let rtts: Vec<SimDuration> = rtts(seed, 1_000_000)
        .into_iter()
        .map(|ns| SimDuration::from_nanos(ns * 3))
        .collect();
    let mut limiter = AimdLimiter::new(AimdSettings::standard(400.0));
    let (_, s) = timed(|| {
        for &rtt in &rtts {
            if limiter.try_acquire() {
                let outcome = limiter.classify(rtt, false);
                limiter.release(outcome);
            }
        }
    });
    black_box(limiter.limit());
    per_op(s, rtts.len() as u64)
}

/// The diurnal host/adaptive cell over a 12 ms day: `(ns per offered
/// request, client rejected share)`, medians of the reps.
fn diurnal_run(seed: u64) -> (f64, f64) {
    let mut cfg = workloads::diurnal_config(
        DiurnalPlatform::Host,
        AdmissionMode::Adaptive,
        seed,
        Size::Full,
    );
    cfg.day = SimDuration::from_millis(12);
    let mut ns = Vec::new();
    let mut rejected = Vec::new();
    for _ in 0..REPS {
        let (r, s) = timed(|| diurnal::simulate(&cfg));
        let offered: u64 = r.hours.iter().map(|h| h.offered).sum();
        ns.push(per_op(s, offered).0);
        rejected.push(r.rejected_share);
    }
    (median(&ns), median(&rejected))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = LAYER_METRICS.iter().map(|l| l.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), LAYER_METRICS.len());
        for l in LAYER_METRICS {
            assert!(l.name.len() <= 64 && l.unit.len() <= 16, "{}", l.name);
        }
    }
}
