//! Property-based tests for the simulation substrate: ordering,
//! conservation, and distribution invariants that every experiment built
//! on top silently relies on.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;

use snicbench_sim::dist::{Distribution, Empirical, Exponential, LogNormal, Pareto};
use snicbench_sim::event::EventQueue;
use snicbench_sim::queue::BoundedFifo;
use snicbench_sim::rng::Rng;
use snicbench_sim::station::StationHandle;
use snicbench_sim::{SimDuration, SimTime, Simulator};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Events always pop in non-decreasing time order, with insertion
    /// order breaking ties, for any schedule.
    #[test]
    fn event_queue_total_order(times in proptest::collection::vec(0u64..1000, 0..200)) {
        let mut q = EventQueue::new();
        for (seq, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), seq);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, seq)) = q.pop() {
            if let Some((lt, lseq)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(seq > lseq, "ties must pop in insertion order");
                }
            }
            last = Some((t, seq));
        }
    }

    /// The simulator executes every scheduled event exactly once and the
    /// clock never runs backwards.
    #[test]
    fn simulator_conserves_events(delays in proptest::collection::vec(0u64..10_000, 1..100)) {
        let mut sim = Simulator::new();
        let executed = Rc::new(RefCell::new(Vec::new()));
        for &d in &delays {
            let log = executed.clone();
            sim.schedule_in(SimDuration::from_nanos(d), move |sim| {
                log.borrow_mut().push(sim.now());
            });
        }
        sim.run();
        let log = executed.borrow();
        prop_assert_eq!(log.len(), delays.len());
        prop_assert!(log.windows(2).all(|w| w[0] <= w[1]), "clock went backwards");
        prop_assert_eq!(sim.events_executed(), delays.len() as u64);
    }

    /// Station conservation: arrivals = completions + drops + still-queued
    /// + in-service, and with an unbounded queue nothing is ever dropped.
    #[test]
    fn station_conserves_jobs(
        demands in proptest::collection::vec(1u64..5_000, 1..150),
        servers in 1usize..6,
        cap in proptest::option::of(1usize..8)) {
        let mut sim = Simulator::new();
        let station = StationHandle::new("s", servers, cap);
        for (i, &d) in demands.iter().enumerate() {
            let st = station.clone();
            sim.schedule_at(SimTime::from_nanos(i as u64 * 100), move |sim| {
                st.submit(sim, SimDuration::from_nanos(d), |_, _| {});
            });
        }
        sim.run();
        let stats = station.stats();
        prop_assert_eq!(stats.arrivals, demands.len() as u64);
        prop_assert_eq!(stats.completions + stats.dropped, demands.len() as u64);
        if cap.is_none() {
            prop_assert_eq!(stats.dropped, 0);
        }
        prop_assert_eq!(station.busy(), 0);
        prop_assert_eq!(station.queue_len(), 0);
    }

    /// Completion timestamps respect causality: arrived <= started <=
    /// finished, and service lasts exactly the demanded time.
    #[test]
    fn station_completions_are_causal(demands in proptest::collection::vec(1u64..2_000, 1..60)) {
        let mut sim = Simulator::new();
        let station = StationHandle::new("s", 2, None);
        let violations = Rc::new(RefCell::new(0u32));
        for (i, &d) in demands.iter().enumerate() {
            let st = station.clone();
            let v = violations.clone();
            sim.schedule_at(SimTime::from_nanos(i as u64 * 50), move |sim| {
                st.submit(sim, SimDuration::from_nanos(d), move |_, c| {
                    let service = c.finished.duration_since(c.started);
                    if c.started < c.arrived || service != SimDuration::from_nanos(d) {
                        *v.borrow_mut() += 1;
                    }
                });
            });
        }
        sim.run();
        prop_assert_eq!(*violations.borrow(), 0);
    }

    /// Bounded FIFOs never exceed capacity and account every item.
    #[test]
    fn fifo_accounting(ops in proptest::collection::vec(any::<bool>(), 0..300), cap in 1usize..16) {
        let mut q = BoundedFifo::with_capacity(cap);
        let mut pushed = 0u64;
        let mut popped = 0u64;
        for op in ops {
            if op {
                q.enqueue(pushed);
                pushed += 1;
            } else if q.dequeue().is_some() {
                popped += 1;
            }
            prop_assert!(q.len() <= cap);
        }
        let stats = q.stats();
        prop_assert_eq!(stats.offered, pushed);
        prop_assert_eq!(stats.accepted, popped + q.len() as u64);
        prop_assert_eq!(stats.accepted + stats.dropped, stats.offered);
    }

    /// Every distribution produces finite, non-negative samples, and those
    /// with finite means converge toward them.
    #[test]
    fn distributions_are_well_behaved(seed in any::<u64>(), mean in 0.1f64..1000.0) {
        let dists: Vec<Box<dyn Distribution>> = vec![
            Box::new(Exponential::with_mean(mean)),
            Box::new(LogNormal::with_mean_cv(mean, 0.5)),
            Box::new(Pareto::new(mean, 2.5)),
            Box::new(Empirical::new(&[(mean, 1.0), (mean * 2.0, 1.0)])),
        ];
        let mut rng = Rng::new(seed);
        for d in &dists {
            let mut sum = 0.0;
            for _ in 0..2000 {
                let x = d.sample(&mut rng);
                prop_assert!(x.is_finite() && x >= 0.0, "bad sample {x}");
                sum += x;
            }
            if let Some(m) = d.mean() {
                let sample_mean = sum / 2000.0;
                prop_assert!((sample_mean - m).abs() / m < 0.35,
                    "mean {m} vs sample {sample_mean}");
            }
        }
    }

    /// Forked RNG streams are reproducible and order-independent.
    #[test]
    fn rng_forks_commute(seed in any::<u64>(), a in any::<u64>(), b in any::<u64>()) {
        prop_assume!(a != b);
        let parent = Rng::new(seed);
        let mut fork_a_first = parent.fork(a);
        let _ = parent.fork(b);
        let mut fork_a_second = parent.fork(a);
        for _ in 0..16 {
            prop_assert_eq!(fork_a_first.next_u64(), fork_a_second.next_u64());
        }
    }

    /// `below(n)` is always `< n` for any seed and bound.
    #[test]
    fn rng_below_in_range(seed in any::<u64>(), bound in 1u64..u64::MAX) {
        let mut rng = Rng::new(seed);
        for _ in 0..64 {
            prop_assert!(rng.below(bound) < bound);
        }
    }

    /// The calendar queue agrees with a reference ordered-set model under
    /// arbitrary interleavings of push, pop, and cancel — including
    /// cancels of already-fired and already-cancelled ids, same-instant
    /// pushes (which must pop in insertion order), pushes just ahead of
    /// the last popped instant (the engine's own pattern, which lands in
    /// the active bucket), and pushes far beyond the wheel horizon (which
    /// overflow to the far heap and must be promoted back as the wheel
    /// rotates).
    #[test]
    fn event_queue_matches_reference_model(
        ops in proptest::collection::vec(
            (0u8..11, 0u64..3_000_000, any::<u64>()),
            0..300,
        )
    ) {
        use std::collections::BTreeSet;
        use snicbench_sim::event::EventId;

        let mut q = EventQueue::new();
        // The model: the live set ordered by (time, seq). `issued` keeps
        // every id ever returned so cancels can target fired/cancelled
        // events as easily as live ones.
        let mut model: BTreeSet<(SimTime, u64)> = BTreeSet::new();
        let mut issued: Vec<(EventId, SimTime, u64)> = Vec::new();
        let mut next_payload = 0u64;
        // The last popped instant: the engine's clock.
        let mut now = SimTime::ZERO;

        for (kind, raw_time, sel) in ops {
            match kind {
                // Push. kind 4 collapses times onto a tiny set of instants
                // to force same-instant FIFO ties; kind 10 schedules just
                // ahead of the clock as the engine does, a quarter of them
                // zero-delay follow-ons tied at `now`; other kinds span
                // well past the wheel horizon (~1 ms) to exercise far-heap
                // overflow and promotion.
                0..=4 | 10 => {
                    let t = match kind {
                        4 => SimTime::from_nanos(raw_time % 64),
                        10 if sel % 4 == 0 => now,
                        10 => SimTime::from_nanos(now.as_nanos() + raw_time % 2048),
                        _ => SimTime::from_nanos(raw_time),
                    };
                    let payload = next_payload;
                    next_payload += 1;
                    let id = q.push(t, payload);
                    model.insert((t, payload));
                    issued.push((id, t, payload));
                }
                // Pop: must yield the model's minimum (time, seq).
                5..=7 => {
                    let expect = model.pop_first();
                    let got = q.pop();
                    prop_assert_eq!(got, expect);
                    if let Some((t, _)) = got {
                        now = t;
                    }
                }
                // Cancel a previously issued id (live, fired, or already
                // cancelled): the return value must agree with whether the
                // model still holds it, and a dead id must change nothing.
                _ => {
                    if issued.is_empty() {
                        continue;
                    }
                    let (id, t, payload) = issued[(sel % issued.len() as u64) as usize];
                    let expect = model.remove(&(t, payload));
                    prop_assert_eq!(q.cancel(id), expect);
                }
            }
            prop_assert_eq!(q.len(), model.len());
        }

        // Drain: the full remaining order must match the model exactly.
        while let Some(expect) = model.pop_first() {
            prop_assert_eq!(q.pop(), Some(expect));
        }
        prop_assert_eq!(q.pop(), None);
        prop_assert!(q.is_empty());
    }
}
