//! Deterministic, seeded fault injection scheduled on simulated time.
//!
//! The paper's SLO analysis assumes a healthy testbed, but production
//! deployments see accelerator stalls, Arm cores dropping out, PCIe
//! bandwidth collapses, link flaps, loss bursts, and power-sensor gaps.
//! This module makes those injectable *without* giving up the workspace's
//! determinism contract: a [`FaultPlan`] is a plain-data list of timed
//! fault windows generated from a seeded [`Rng`](crate::rng::Rng), and
//! [`inject`] schedules the windows on the simulation clock so the same
//! seed produces the same fault timeline byte-for-bit at any `--jobs`
//! count.
//!
//! The plan itself carries no behavior — components consult the shared
//! [`FaultState`] (what is degraded *right now*, by how much) on their own
//! hot paths, and the begin/end transitions surface through the trace
//! pipeline as [`TraceKind::FaultBegin`] / [`TraceKind::FaultEnd`]
//! records, so a Chrome trace shows exactly when the run degraded.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::engine::{Event, Simulator};
use crate::rng::Rng;
use crate::time::{SimDuration, SimTime};
use crate::trace::{StationId, TraceKind};

/// The failure modes the injector knows how to schedule.
///
/// Each class maps to a published BlueField-2 failure report: accelerator
/// stalls and offload-path failures (Liu et al.), Arm cores falling out of
/// the scheduling set, PCIe bandwidth degradation under contention (Sun et
/// al.), link flaps and loss bursts on the 100 GbE path, and the IPMI/BMC
/// sensor dropouts every power study fights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultClass {
    /// The accelerator engine keeps serving but slower (clock throttle,
    /// internal retry storms).
    AcceleratorStall,
    /// The accelerator engine stops serving entirely.
    AcceleratorFailure,
    /// Some SNIC Arm cores leave the scheduling set.
    ArmCoreOffline,
    /// The PCIe link renegotiates to a fraction of its bandwidth.
    PcieDegraded,
    /// The network link goes down entirely (carrier loss).
    LinkFlap,
    /// A burst window in which packets are lost with elevated probability.
    PacketLossBurst,
    /// The power sensor stops reporting samples.
    SensorDropout,
    /// A whole server node crashes: its host pool (and accelerator, if
    /// any) serve nothing until the node recovers.
    ServerCrash,
    /// One shard's SmartNIC dies while its host pool keeps serving: the
    /// accelerator rung disappears for the window.
    SnicCrash,
    /// A shard becomes unreachable (ToR port down, management-plane
    /// fence): its stations are fine but no traffic can reach them.
    ShardBlackout,
}

impl FaultClass {
    /// Every class, in a stable order (used by docs and reports).
    pub const ALL: [FaultClass; 10] = [
        FaultClass::AcceleratorStall,
        FaultClass::AcceleratorFailure,
        FaultClass::ArmCoreOffline,
        FaultClass::PcieDegraded,
        FaultClass::LinkFlap,
        FaultClass::PacketLossBurst,
        FaultClass::SensorDropout,
        FaultClass::ServerCrash,
        FaultClass::SnicCrash,
        FaultClass::ShardBlackout,
    ];

    /// The station-scoped classes — the original seven that degrade one
    /// server+SNIC pair from the inside. [`FaultPlan::generate`] draws
    /// from exactly this set (in this order), so adding node-level
    /// classes never perturbs an existing plan's RNG streams.
    pub const STATION: [FaultClass; 7] = [
        FaultClass::AcceleratorStall,
        FaultClass::AcceleratorFailure,
        FaultClass::ArmCoreOffline,
        FaultClass::PcieDegraded,
        FaultClass::LinkFlap,
        FaultClass::PacketLossBurst,
        FaultClass::SensorDropout,
    ];

    /// The node-scoped classes: whole rungs of a fleet shard die at once.
    /// Scheduled only through [`chaos_plan`], never by
    /// [`FaultPlan::generate`].
    pub const NODE: [FaultClass; 3] = [
        FaultClass::ServerCrash,
        FaultClass::SnicCrash,
        FaultClass::ShardBlackout,
    ];

    /// A stable short name for traces and reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultClass::AcceleratorStall => "accel-stall",
            FaultClass::AcceleratorFailure => "accel-failure",
            FaultClass::ArmCoreOffline => "arm-core-offline",
            FaultClass::PcieDegraded => "pcie-degraded",
            FaultClass::LinkFlap => "link-flap",
            FaultClass::PacketLossBurst => "loss-burst",
            FaultClass::SensorDropout => "sensor-dropout",
            FaultClass::ServerCrash => "server-crash",
            FaultClass::SnicCrash => "snic-crash",
            FaultClass::ShardBlackout => "shard-blackout",
        }
    }
}

/// One fault with its magnitude parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Accelerator service times multiply by `slowdown` (> 1).
    AcceleratorStall {
        /// Service-time multiplier while the stall is active.
        slowdown: f64,
    },
    /// The accelerator serves nothing; requests must fail over.
    AcceleratorFailure,
    /// `cores` Arm cores leave the scheduling set.
    ArmCoreOffline {
        /// How many of the 8 A72 cores are offline.
        cores: u32,
    },
    /// PCIe effective bandwidth multiplies by `bandwidth_factor` (< 1).
    PcieDegraded {
        /// Remaining fraction of nominal PCIe bandwidth.
        bandwidth_factor: f64,
    },
    /// The link is down; every packet in the window is lost.
    LinkFlap,
    /// Packets are lost with probability `loss` inside the window.
    PacketLossBurst {
        /// Per-packet loss probability during the burst.
        loss: f64,
    },
    /// Power samples are suppressed inside the window.
    SensorDropout,
    /// Fleet shard `shard`'s whole server node is down.
    ServerCrash {
        /// The crashed shard.
        shard: u32,
    },
    /// Fleet shard `shard`'s SmartNIC is down (host pool keeps serving).
    SnicCrash {
        /// The shard whose SNIC died.
        shard: u32,
    },
    /// Fleet shard `shard` is unreachable.
    ShardBlackout {
        /// The fenced shard.
        shard: u32,
    },
}

impl FaultKind {
    /// The class this kind belongs to.
    pub fn class(&self) -> FaultClass {
        match self {
            FaultKind::AcceleratorStall { .. } => FaultClass::AcceleratorStall,
            FaultKind::AcceleratorFailure => FaultClass::AcceleratorFailure,
            FaultKind::ArmCoreOffline { .. } => FaultClass::ArmCoreOffline,
            FaultKind::PcieDegraded { .. } => FaultClass::PcieDegraded,
            FaultKind::LinkFlap => FaultClass::LinkFlap,
            FaultKind::PacketLossBurst { .. } => FaultClass::PacketLossBurst,
            FaultKind::SensorDropout => FaultClass::SensorDropout,
            FaultKind::ServerCrash { .. } => FaultClass::ServerCrash,
            FaultKind::SnicCrash { .. } => FaultClass::SnicCrash,
            FaultKind::ShardBlackout { .. } => FaultClass::ShardBlackout,
        }
    }

    /// The fleet shard a node-scoped fault targets (`None` for the
    /// station-scoped classes).
    pub fn shard(&self) -> Option<u32> {
        match self {
            FaultKind::ServerCrash { shard }
            | FaultKind::SnicCrash { shard }
            | FaultKind::ShardBlackout { shard } => Some(*shard),
            _ => None,
        }
    }
}

/// One scheduled fault window: `[start, start + duration)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// What degrades.
    pub kind: FaultKind,
    /// When the window opens, on the simulation clock.
    pub start: SimTime,
    /// How long the window stays open.
    pub duration: SimDuration,
}

impl FaultEvent {
    /// When the window closes.
    pub fn end(&self) -> SimTime {
        self.start + self.duration
    }
}

/// A deterministic schedule of fault windows.
///
/// Plain data (`Send + Clone`), so a plan generated once can cross the
/// experiment executor's thread boundary and be replayed in any worker —
/// the schedule is fixed *before* the simulation starts, which is what
/// keeps faulted runs byte-identical at any job count.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// The scheduled windows, in generation order.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: a run with it behaves exactly like a run built
    /// before this module existed.
    pub fn none() -> Self {
        FaultPlan { events: Vec::new() }
    }

    /// True when no fault is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Generates a plan from a seed: for each fault class, roughly
    /// `intensity` windows are placed over `[0, horizon)`, each confined
    /// to its own slot so windows of one class never overlap.
    ///
    /// `intensity` is the expected window count per class (fractional
    /// counts resolve by a seeded coin flip); `0.0` yields the empty plan.
    /// Magnitudes (stall slowdown, offline cores, bandwidth fraction,
    /// burst loss) are drawn from per-class forks of the root [`Rng`], so
    /// two plans with the same `(seed, intensity, horizon)` are identical
    /// and any change to one class's draw count leaves the others' streams
    /// untouched.
    pub fn generate(seed: u64, intensity: f64, horizon: SimDuration) -> Self {
        let mut events = Vec::new();
        if intensity <= 0.0 || horizon == SimDuration::ZERO {
            return FaultPlan { events };
        }
        let root = Rng::new(seed);
        for (stream, class) in FaultClass::STATION.iter().enumerate() {
            let mut rng = root.fork(stream as u64 + 1);
            let whole = intensity.floor();
            let count = whole + if rng.chance(intensity - whole) { 1.0 } else { 0.0 };
            let count = count.min(64.0) as u64;
            if count == 0 {
                continue;
            }
            let slot_ns = horizon.as_nanos() / count.max(1);
            if slot_ns == 0 {
                continue;
            }
            for slot in 0..count {
                let slot_start = slot * slot_ns;
                // Start in the first half of the slot, last at most 40% of
                // it: windows of one class can never touch.
                let start_ns = slot_start + rng.below(slot_ns / 2 + 1);
                let dur_ns = (slot_ns / 10 + rng.below(slot_ns * 3 / 10 + 1)).max(1);
                let kind = match class {
                    FaultClass::AcceleratorStall => FaultKind::AcceleratorStall {
                        slowdown: rng.range_f64(2.0, 8.0),
                    },
                    FaultClass::AcceleratorFailure => FaultKind::AcceleratorFailure,
                    FaultClass::ArmCoreOffline => FaultKind::ArmCoreOffline {
                        cores: 1 + rng.below(6) as u32,
                    },
                    FaultClass::PcieDegraded => FaultKind::PcieDegraded {
                        bandwidth_factor: rng.range_f64(0.25, 0.75),
                    },
                    FaultClass::LinkFlap => FaultKind::LinkFlap,
                    FaultClass::PacketLossBurst => FaultKind::PacketLossBurst {
                        loss: rng.range_f64(0.05, 0.5),
                    },
                    FaultClass::SensorDropout => FaultKind::SensorDropout,
                    _ => unreachable!("STATION holds no node-scoped class"),
                };
                events.push(FaultEvent {
                    kind,
                    start: SimTime::from_nanos(start_ns),
                    duration: SimDuration::from_nanos(dur_ns),
                });
            }
        }
        FaultPlan { events }
    }

    /// The windows of one class, as `(start, end)` pairs in start order.
    pub fn windows(&self, class: FaultClass) -> Vec<(SimTime, SimTime)> {
        let mut w: Vec<(SimTime, SimTime)> = self
            .events
            .iter()
            .filter(|e| e.kind.class() == class)
            .map(|e| (e.start, e.end()))
            .collect();
        w.sort();
        w
    }

    /// Fraction of `horizon` covered by sensor-dropout windows — the
    /// dropout probability to hand the power-sensor simulators.
    pub fn sensor_dropout_fraction(&self, horizon: SimDuration) -> f64 {
        let total_ns = horizon.as_nanos();
        if total_ns == 0 {
            return 0.0;
        }
        let covered: u64 = self
            .events
            .iter()
            .filter(|e| e.kind.class() == FaultClass::SensorDropout)
            .map(|e| e.duration.as_nanos().min(total_ns))
            .sum();
        (covered.min(total_ns) as f64) / (total_ns as f64)
    }
}

/// How many node-level failures a chaos run schedules, per class. Parsed
/// from the `--chaos <plan>` CLI spec (see [`ChaosSpec::parse`]) and
/// expanded into timed windows by [`chaos_plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosSpec {
    /// Whole server nodes that crash (host pool + accelerator both die).
    pub server_crashes: u32,
    /// SmartNICs that die while their host pool keeps serving.
    pub snic_crashes: u32,
    /// Shards fenced off the network (stations healthy, unreachable).
    pub blackouts: u32,
}

impl ChaosSpec {
    /// The canned `mixed` plan: two server crashes, one SNIC crash, one
    /// blackout.
    pub fn mixed() -> Self {
        ChaosSpec {
            server_crashes: 2,
            snic_crashes: 1,
            blackouts: 1,
        }
    }

    /// Parses a CLI chaos spec: `+`-separated terms of `crashN`, `snicN`,
    /// and `blackoutN` (e.g. `crash4`, `crash2+snic1`), or the literal
    /// `mixed`. Returns `None` on anything else or an all-zero spec.
    pub fn parse(s: &str) -> Option<Self> {
        if s == "mixed" {
            return Some(Self::mixed());
        }
        let mut spec = ChaosSpec::default();
        for term in s.split('+') {
            let (field, digits): (&mut u32, &str) = if let Some(n) = term.strip_prefix("crash") {
                (&mut spec.server_crashes, n)
            } else if let Some(n) = term.strip_prefix("snic") {
                (&mut spec.snic_crashes, n)
            } else if let Some(n) = term.strip_prefix("blackout") {
                (&mut spec.blackouts, n)
            } else {
                return None;
            };
            *field = digits.parse().ok()?;
        }
        if spec.total() == 0 {
            None
        } else {
            Some(spec)
        }
    }

    /// Total node failures the spec schedules.
    pub fn total(&self) -> u32 {
        self.server_crashes + self.snic_crashes + self.blackouts
    }

    /// The fewest shards a fleet needs to host the spec: each class draws
    /// distinct victims, so its count may not exceed the shard count.
    pub fn shards_needed(&self) -> u32 {
        self.server_crashes
            .max(self.snic_crashes)
            .max(self.blackouts)
    }
}

impl std::fmt::Display for ChaosSpec {
    /// Renders the spec in the `--chaos` grammar it parses from, zero
    /// terms omitted (an all-zero spec renders as `crash0`).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.total() == 0 {
            return write!(f, "crash0");
        }
        let mut sep = "";
        for (name, n) in [
            ("crash", self.server_crashes),
            ("snic", self.snic_crashes),
            ("blackout", self.blackouts),
        ] {
            if n > 0 {
                write!(f, "{sep}{name}{n}")?;
                sep = "+";
            }
        }
        Ok(())
    }
}

/// Expands a [`ChaosSpec`] into a seeded [`FaultPlan`] of node-level
/// windows over a fleet of `shards` shards.
///
/// Per class, `count` *distinct* victim shards are drawn from a seeded
/// per-class fork (streams disjoint from [`FaultPlan::generate`]'s, so a
/// chaos plan can be concatenated with a station plan without perturbing
/// either). Each victim goes down for one window of a third of `horizon`,
/// with a seeded staggered start placed so the node both dies and
/// *recovers* well inside the run — the recovery window is part of the
/// schedule, not an afterthought.
///
/// # Panics
///
/// Panics if any class's count exceeds `shards`.
pub fn chaos_plan(seed: u64, spec: ChaosSpec, shards: u32, horizon: SimDuration) -> FaultPlan {
    let mut events = Vec::new();
    if horizon == SimDuration::ZERO {
        return FaultPlan { events };
    }
    type NodeFault = fn(u32) -> FaultKind;
    let root = Rng::new(seed ^ 0x000C_4A05);
    let classes: [(u32, NodeFault); 3] = [
        (spec.server_crashes, |shard| FaultKind::ServerCrash { shard }),
        (spec.snic_crashes, |shard| FaultKind::SnicCrash { shard }),
        (spec.blackouts, |shard| FaultKind::ShardBlackout { shard }),
    ];
    let down_ns = (horizon.as_nanos() / 3).max(1);
    for (stream, (count, kind)) in classes.iter().enumerate() {
        if *count == 0 {
            continue;
        }
        assert!(
            *count <= shards,
            "chaos spec kills {count} shards of a {shards}-shard fleet"
        );
        let mut rng = root.fork(stream as u64 + 101);
        // Partial Fisher-Yates: the first `count` slots are a uniform
        // draw of distinct victims.
        let mut victims: Vec<u32> = (0..shards).collect();
        for i in 0..*count as usize {
            let j = i + rng.below((shards as u64) - i as u64) as usize;
            victims.swap(i, j);
        }
        for &shard in &victims[..*count as usize] {
            // Stagger starts over the middle of the run: the window opens
            // no earlier than 1/8 in and closes by 7/8, so every node is
            // up at the start and recovered before the drain.
            let start_ns = horizon.as_nanos() / 8 + rng.below(horizon.as_nanos() * 5 / 12 + 1);
            events.push(FaultEvent {
                kind: kind(shard),
                start: SimTime::from_nanos(start_ns),
                duration: SimDuration::from_nanos(down_ns),
            });
        }
    }
    FaultPlan { events }
}

/// What is degraded *right now*, consulted by components on their hot
/// paths. Interior counts tolerate overlapping windows of one class
/// (the effect clears when the last window closes).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultState {
    stall_active: u32,
    stall_slowdown: f64,
    accel_down: u32,
    arm_offline_active: u32,
    arm_cores_offline: u32,
    pcie_active: u32,
    pcie_factor: f64,
    link_down_active: u32,
    loss_active: u32,
    loss_burst: f64,
    sensor_active: u32,
    /// Active window counts per shard, by node-fault flavour. `BTreeMap`
    /// keeps iteration deterministic; absent key means healthy.
    server_crash: BTreeMap<u32, u32>,
    snic_crash: BTreeMap<u32, u32>,
    blackout: BTreeMap<u32, u32>,
    /// Node-fault windows *opened* per shard over the run (never
    /// decremented — the per-shard `down_windows` roll-up).
    down_windows: BTreeMap<u32, u64>,
    begun: u64,
    ended: u64,
}

impl FaultState {
    /// The healthy state: every multiplier is the identity.
    pub fn healthy() -> Self {
        FaultState {
            stall_active: 0,
            stall_slowdown: 1.0,
            accel_down: 0,
            arm_offline_active: 0,
            arm_cores_offline: 0,
            pcie_active: 0,
            pcie_factor: 1.0,
            link_down_active: 0,
            loss_active: 0,
            loss_burst: 0.0,
            sensor_active: 0,
            server_crash: BTreeMap::new(),
            snic_crash: BTreeMap::new(),
            blackout: BTreeMap::new(),
            down_windows: BTreeMap::new(),
            begun: 0,
            ended: 0,
        }
    }

    /// Accelerator service-time multiplier (1.0 when healthy).
    pub fn accelerator_slowdown(&self) -> f64 {
        if self.stall_active > 0 {
            self.stall_slowdown
        } else {
            1.0
        }
    }

    /// True while the accelerator serves nothing.
    pub fn accelerator_down(&self) -> bool {
        self.accel_down > 0
    }

    /// Arm cores currently out of the scheduling set.
    pub fn arm_cores_offline(&self) -> u32 {
        if self.arm_offline_active > 0 {
            self.arm_cores_offline
        } else {
            0
        }
    }

    /// Remaining fraction of nominal PCIe bandwidth (1.0 when healthy).
    pub fn pcie_bandwidth_factor(&self) -> f64 {
        if self.pcie_active > 0 {
            self.pcie_factor
        } else {
            1.0
        }
    }

    /// True while the link is down.
    pub fn link_down(&self) -> bool {
        self.link_down_active > 0
    }

    /// Per-packet loss probability of the active burst (0.0 when healthy).
    pub fn loss_burst(&self) -> f64 {
        if self.loss_active > 0 {
            self.loss_burst
        } else {
            0.0
        }
    }

    /// True while power samples are suppressed.
    pub fn sensor_dropout(&self) -> bool {
        self.sensor_active > 0
    }

    /// True while shard `shard`'s server node is crashed.
    pub fn server_down(&self, shard: u32) -> bool {
        self.server_crash.get(&shard).copied().unwrap_or(0) > 0
    }

    /// True while shard `shard`'s SmartNIC is down.
    pub fn snic_down(&self, shard: u32) -> bool {
        self.snic_crash.get(&shard).copied().unwrap_or(0) > 0
    }

    /// True while shard `shard` is fenced off the network.
    pub fn blackout(&self, shard: u32) -> bool {
        self.blackout.get(&shard).copied().unwrap_or(0) > 0
    }

    /// True while shard `shard` cannot serve traffic at all — crashed or
    /// unreachable (a dead SNIC alone leaves the host rung serving).
    pub fn node_down(&self, shard: u32) -> bool {
        self.server_down(shard) || self.blackout(shard)
    }

    /// Node-fault windows opened against shard `shard` over the run.
    pub fn down_windows(&self, shard: u32) -> u64 {
        self.down_windows.get(&shard).copied().unwrap_or(0)
    }

    /// Fault windows opened so far.
    pub fn begun(&self) -> u64 {
        self.begun
    }

    /// Fault windows closed so far.
    pub fn ended(&self) -> u64 {
        self.ended
    }

    /// True while any window is open.
    pub fn any_active(&self) -> bool {
        self.begun > self.ended
    }

    /// Opens a window: applies `kind`'s effect.
    pub fn apply(&mut self, kind: FaultKind) {
        self.begun += 1;
        match kind {
            FaultKind::AcceleratorStall { slowdown } => {
                self.stall_active += 1;
                self.stall_slowdown = slowdown;
            }
            FaultKind::AcceleratorFailure => self.accel_down += 1,
            FaultKind::ArmCoreOffline { cores } => {
                self.arm_offline_active += 1;
                self.arm_cores_offline = cores;
            }
            FaultKind::PcieDegraded { bandwidth_factor } => {
                self.pcie_active += 1;
                self.pcie_factor = bandwidth_factor;
            }
            FaultKind::LinkFlap => self.link_down_active += 1,
            FaultKind::PacketLossBurst { loss } => {
                self.loss_active += 1;
                self.loss_burst = loss;
            }
            FaultKind::SensorDropout => self.sensor_active += 1,
            FaultKind::ServerCrash { shard } => {
                *self.server_crash.entry(shard).or_default() += 1;
                *self.down_windows.entry(shard).or_default() += 1;
            }
            FaultKind::SnicCrash { shard } => {
                *self.snic_crash.entry(shard).or_default() += 1;
                *self.down_windows.entry(shard).or_default() += 1;
            }
            FaultKind::ShardBlackout { shard } => {
                *self.blackout.entry(shard).or_default() += 1;
                *self.down_windows.entry(shard).or_default() += 1;
            }
        }
    }

    /// Closes a window: clears `kind`'s effect once its last overlapping
    /// window closes.
    pub fn clear(&mut self, kind: FaultKind) {
        self.ended += 1;
        match kind {
            FaultKind::AcceleratorStall { .. } => {
                self.stall_active = self.stall_active.saturating_sub(1)
            }
            FaultKind::AcceleratorFailure => self.accel_down = self.accel_down.saturating_sub(1),
            FaultKind::ArmCoreOffline { .. } => {
                self.arm_offline_active = self.arm_offline_active.saturating_sub(1)
            }
            FaultKind::PcieDegraded { .. } => self.pcie_active = self.pcie_active.saturating_sub(1),
            FaultKind::LinkFlap => self.link_down_active = self.link_down_active.saturating_sub(1),
            FaultKind::PacketLossBurst { .. } => {
                self.loss_active = self.loss_active.saturating_sub(1)
            }
            FaultKind::SensorDropout => self.sensor_active = self.sensor_active.saturating_sub(1),
            FaultKind::ServerCrash { shard } => {
                Self::clear_shard(&mut self.server_crash, shard);
            }
            FaultKind::SnicCrash { shard } => {
                Self::clear_shard(&mut self.snic_crash, shard);
            }
            FaultKind::ShardBlackout { shard } => {
                Self::clear_shard(&mut self.blackout, shard);
            }
        }
    }

    /// Decrements one shard's active-window count, dropping the entry at
    /// zero so a recovered state compares equal to a never-faulted one.
    fn clear_shard(map: &mut BTreeMap<u32, u32>, shard: u32) {
        if let Some(n) = map.get_mut(&shard) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                map.remove(&shard);
            }
        }
    }
}

/// A [`FaultState`] shared between the injector's scheduled transitions
/// and the components consulting it.
pub type SharedFaultState = Rc<RefCell<FaultState>>;

/// Schedules every window of `plan` on the simulator and returns the
/// shared state the transitions mutate.
///
/// An empty plan schedules nothing and registers nothing with the trace
/// sink, so the healthy path is byte-identical to a build without fault
/// support. A non-empty plan registers a `fault-injector` trace track and
/// emits [`TraceKind::FaultBegin`] / [`TraceKind::FaultEnd`] at each
/// transition.
pub fn inject(sim: &mut Simulator, plan: &FaultPlan) -> SharedFaultState {
    let state = Rc::new(RefCell::new(FaultState::healthy()));
    if plan.is_empty() {
        return state;
    }
    let track = sim.trace().register("fault-injector", 1);
    for ev in &plan.events {
        let kind = ev.kind;
        sim.schedule_raw(
            ev.start,
            Event::Fault {
                state: state.clone(),
                kind,
                track,
                begin: true,
            },
        );
        sim.schedule_raw(
            ev.end(),
            Event::Fault {
                state: state.clone(),
                kind,
                track,
                begin: false,
            },
        );
    }
    state
}

/// Fires one edge of a fault window: applies or clears the effect on the
/// shared state and emits the matching trace record.
///
/// This is the engine's jump-table target for [`Event::Fault`].
pub(crate) fn fire_edge(
    sim: &mut Simulator,
    state: &SharedFaultState,
    kind: FaultKind,
    track: StationId,
    begin: bool,
) {
    if begin {
        state.borrow_mut().apply(kind);
        sim.trace().record(
            sim.now(),
            track,
            TraceKind::FaultBegin {
                fault: kind.class(),
            },
        );
    } else {
        state.borrow_mut().clear(kind);
        sim.trace()
            .record(sim.now(), track, TraceKind::FaultEnd { fault: kind.class() });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceSink;

    fn horizon() -> SimDuration {
        SimDuration::from_millis(100)
    }

    #[test]
    fn same_seed_same_plan() {
        let a = FaultPlan::generate(42, 1.5, horizon());
        let b = FaultPlan::generate(42, 1.5, horizon());
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn different_seed_different_plan() {
        let a = FaultPlan::generate(42, 2.0, horizon());
        let b = FaultPlan::generate(43, 2.0, horizon());
        assert_ne!(a, b);
    }

    #[test]
    fn zero_intensity_is_empty() {
        assert!(FaultPlan::generate(7, 0.0, horizon()).is_empty());
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn windows_of_one_class_never_overlap() {
        let plan = FaultPlan::generate(9, 4.0, horizon());
        for class in FaultClass::ALL {
            let w = plan.windows(class);
            for pair in w.windows(2) {
                assert!(pair[0].1 <= pair[1].0, "{class:?}: {pair:?}");
            }
        }
    }

    #[test]
    fn windows_stay_inside_the_horizon_start() {
        let plan = FaultPlan::generate(3, 2.0, horizon());
        for ev in &plan.events {
            assert!(ev.start < SimTime::ZERO + horizon());
            assert!(ev.duration > SimDuration::ZERO);
        }
    }

    #[test]
    fn injection_toggles_state_on_schedule() {
        let plan = FaultPlan {
            events: vec![
                FaultEvent {
                    kind: FaultKind::AcceleratorStall { slowdown: 3.0 },
                    start: SimTime::from_nanos(100),
                    duration: SimDuration::from_nanos(50),
                },
                FaultEvent {
                    kind: FaultKind::LinkFlap,
                    start: SimTime::from_nanos(120),
                    duration: SimDuration::from_nanos(10),
                },
            ],
        };
        let mut sim = Simulator::new();
        let state = inject(&mut sim, &plan);
        assert_eq!(state.borrow().accelerator_slowdown(), 1.0);
        sim.run_until(SimTime::from_nanos(110));
        assert_eq!(state.borrow().accelerator_slowdown(), 3.0);
        assert!(!state.borrow().link_down());
        sim.run_until(SimTime::from_nanos(125));
        assert!(state.borrow().link_down());
        sim.run();
        let s = state.borrow();
        assert_eq!(s.accelerator_slowdown(), 1.0);
        assert!(!s.link_down());
        assert_eq!(s.begun(), 2);
        assert_eq!(s.ended(), 2);
        assert!(!s.any_active());
    }

    #[test]
    fn injection_emits_trace_records() {
        let plan = FaultPlan {
            events: vec![FaultEvent {
                kind: FaultKind::PacketLossBurst { loss: 0.2 },
                start: SimTime::from_nanos(10),
                duration: SimDuration::from_nanos(20),
            }],
        };
        let mut sim = Simulator::new();
        sim.set_trace(TraceSink::bounded(64, SimDuration::from_micros(1)));
        let _state = inject(&mut sim, &plan);
        sim.run();
        let data = sim.trace().take().expect("ring sink yields data");
        assert_eq!(data.tracks[0].name, "fault-injector");
        assert_eq!(data.tracks[0].counts.fault_begins, 1);
        assert_eq!(data.tracks[0].counts.fault_ends, 1);
    }

    #[test]
    fn overlapping_windows_clear_only_at_the_last_end() {
        let mut s = FaultState::healthy();
        s.apply(FaultKind::LinkFlap);
        s.apply(FaultKind::LinkFlap);
        s.clear(FaultKind::LinkFlap);
        assert!(s.link_down());
        s.clear(FaultKind::LinkFlap);
        assert!(!s.link_down());
    }

    #[test]
    fn station_plans_ignore_node_classes() {
        // The generator draws from STATION only: growing ALL with the
        // node classes must leave existing plans byte-identical and
        // node-free.
        let plan = FaultPlan::generate(42, 4.0, horizon());
        for class in FaultClass::NODE {
            assert!(plan.windows(class).is_empty(), "{class:?} leaked");
        }
        assert_eq!(FaultClass::STATION.len() + FaultClass::NODE.len(), FaultClass::ALL.len());
    }

    #[test]
    fn chaos_spec_parses_terms_and_mixed() {
        assert_eq!(
            ChaosSpec::parse("crash4"),
            Some(ChaosSpec {
                server_crashes: 4,
                snic_crashes: 0,
                blackouts: 0
            })
        );
        assert_eq!(
            ChaosSpec::parse("crash2+snic1+blackout3"),
            Some(ChaosSpec {
                server_crashes: 2,
                snic_crashes: 1,
                blackouts: 3
            })
        );
        assert_eq!(ChaosSpec::parse("mixed"), Some(ChaosSpec::mixed()));
        assert_eq!(ChaosSpec::parse("crash0"), None, "an empty spec is an error");
        assert_eq!(ChaosSpec::parse("meteor7"), None);
        assert_eq!(ChaosSpec::parse("crashx"), None);
    }

    #[test]
    fn chaos_plan_is_seeded_and_victims_are_distinct() {
        let spec = ChaosSpec {
            server_crashes: 4,
            snic_crashes: 2,
            blackouts: 1,
        };
        let a = chaos_plan(7, spec, 64, horizon());
        let b = chaos_plan(7, spec, 64, horizon());
        assert_eq!(a, b, "same seed must reproduce the plan");
        assert_ne!(a, chaos_plan(8, spec, 64, horizon()));
        assert_eq!(a.events.len(), 7);
        let mut crashed: Vec<u32> = a
            .events
            .iter()
            .filter(|e| e.kind.class() == FaultClass::ServerCrash)
            .map(|e| e.kind.shard().expect("node faults carry a shard"))
            .collect();
        crashed.sort_unstable();
        crashed.dedup();
        assert_eq!(crashed.len(), 4, "server-crash victims must be distinct");
        // Every window covers a third of the run and recovers inside it.
        let h = horizon().as_nanos();
        for ev in &a.events {
            assert_eq!(ev.duration.as_nanos(), h / 3);
            assert!(ev.start.as_nanos() >= h / 8);
            assert!(ev.end().as_nanos() <= h * 7 / 8);
        }
    }

    #[test]
    fn node_faults_toggle_per_shard_state() {
        let mut s = FaultState::healthy();
        assert!(!s.node_down(3));
        s.apply(FaultKind::ServerCrash { shard: 3 });
        s.apply(FaultKind::SnicCrash { shard: 5 });
        s.apply(FaultKind::ShardBlackout { shard: 7 });
        assert!(s.server_down(3) && s.node_down(3));
        assert!(s.snic_down(5) && !s.node_down(5), "a dead SNIC leaves the host serving");
        assert!(s.blackout(7) && s.node_down(7));
        assert!(!s.node_down(4));
        s.clear(FaultKind::ServerCrash { shard: 3 });
        s.clear(FaultKind::SnicCrash { shard: 5 });
        s.clear(FaultKind::ShardBlackout { shard: 7 });
        assert!(!s.node_down(3) && !s.snic_down(5) && !s.node_down(7));
        assert_eq!(s.down_windows(3), 1, "down windows tally survives recovery");
        assert_eq!(s.down_windows(5), 1);
        assert_eq!(s.down_windows(4), 0);
        // A recovered state equals a never-faulted one except the ledgers.
        assert_eq!(s.begun(), 3);
        assert_eq!(s.ended(), 3);
    }

    #[test]
    fn sensor_dropout_fraction_sums_windows() {
        let plan = FaultPlan {
            events: vec![FaultEvent {
                kind: FaultKind::SensorDropout,
                start: SimTime::from_nanos(0),
                duration: SimDuration::from_millis(25),
            }],
        };
        let f = plan.sensor_dropout_fraction(horizon());
        assert!((f - 0.25).abs() < 1e-9, "{f}");
        assert_eq!(FaultPlan::none().sensor_dropout_fraction(horizon()), 0.0);
    }
}
