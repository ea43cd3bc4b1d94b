//! Communication refinement onto arbitrated buses: zero-latency structural
//! equivalence with the abstract cross-PE rendezvous, timed transfer costs,
//! interrupt-driven delivery, and monotone contention as the bus narrows.

use std::collections::HashMap;
use std::time::Duration;

use model_refine::{
    run_architecture, run_architecture_with_comm, Action, Behavior, BusBinding, BusMap,
    ChannelKind, PeSpec, RunConfig, RunModelError, SystemSpec, ValidateSpecError,
};
use rtos_model::{Priority, SchedAlg, TimeSlice};
use sldl_sim::bus::{Arbitration, BusConfig};
use sldl_sim::RecordKind;

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

/// Producer on pe0 streams `msgs` messages to a consumer on pe1.
fn stream_spec(msgs: u64) -> SystemSpec {
    let mut spec = SystemSpec::new();
    let link = spec.add_channel("link", ChannelKind::Rendezvous);

    let mut actions = Vec::new();
    for _ in 0..msgs {
        actions.push(Action::compute("work", us(50)));
        actions.push(Action::Send(link));
    }
    let mut prio0 = HashMap::new();
    prio0.insert("producer".into(), Priority(1));
    spec.add_pe(PeSpec {
        name: "pe0".into(),
        root: Behavior::leaf("producer", actions),
        priorities: prio0,
    });

    let mut actions = Vec::new();
    for _ in 0..msgs {
        actions.push(Action::Recv(link));
        actions.push(Action::compute("use", us(20)));
    }
    let mut prio1 = HashMap::new();
    prio1.insert("consumer".into(), Priority(1));
    spec.add_pe(PeSpec {
        name: "pe1".into(),
        root: Behavior::leaf("consumer", actions),
        priorities: prio1,
    });
    spec
}

fn map_with(cfg: BusConfig) -> BusMap {
    map_assigning("link", cfg)
}

fn map_assigning(channel: &str, cfg: BusConfig) -> BusMap {
    let mut map = BusMap::default();
    let bus = map.add_bus(cfg);
    map.assign(
        channel,
        BusBinding {
            bus,
            bytes_per_msg: 64,
            priority: 1,
        },
    );
    map
}

/// An ideal (zero-cost) bus must reproduce the abstract model *exactly*:
/// same end time, same trace records byte for byte. Only the bus statistics
/// reveal that messages were counted.
#[test]
fn zero_latency_bus_is_structurally_identical() {
    let spec = stream_spec(4);
    let abstract_run = run_architecture(
        &spec,
        SchedAlg::PriorityPreemptive,
        TimeSlice::WholeDelay,
        &RunConfig::default(),
    )
    .unwrap();
    let refined = run_architecture_with_comm(
        &spec,
        SchedAlg::PriorityPreemptive,
        TimeSlice::WholeDelay,
        &RunConfig::default(),
        &map_with(BusConfig::ideal("b0")),
    )
    .unwrap();

    assert_eq!(refined.end_time(), abstract_run.end_time());
    assert_eq!(refined.records, abstract_run.records);
    assert_eq!(
        refined.channel_fairness, abstract_run.channel_fairness,
        "match-phase fairness must be untouched by an ideal bus"
    );

    let stats = &refined.bus_stats[0];
    assert_eq!(stats.transactions, 4);
    assert_eq!(stats.bytes, 4 * 64);
    assert_eq!(stats.busy, Duration::ZERO);
    assert_eq!(stats.contended, 0);
    assert!(abstract_run.bus_stats.is_empty());
}

/// A timed bus charges each transfer through the sender's RTOS and lands
/// the delivery as an interrupt on the receiver: end time grows by the bus
/// time, and the trace shows the transaction protocol.
#[test]
fn timed_bus_charges_transfers_and_raises_rx_interrupts() {
    let spec = stream_spec(3);
    let ideal = run_architecture_with_comm(
        &spec,
        SchedAlg::PriorityPreemptive,
        TimeSlice::WholeDelay,
        &RunConfig::default(),
        &map_with(BusConfig::ideal("b0")),
    )
    .unwrap();
    // 64 bytes / 8 wide = 8 beats x 2us + 1us setup = 17us per message.
    let cfg = BusConfig::new("b0", us(2), 8, us(1), Arbitration::FixedPriority);
    assert_eq!(cfg.transfer_time(64), us(17));
    let map = map_with(cfg);
    let timed = run_architecture_with_comm(
        &spec,
        SchedAlg::PriorityPreemptive,
        TimeSlice::WholeDelay,
        &RunConfig::default(),
        &map,
    )
    .unwrap();

    assert_eq!(timed.end_time(), ideal.end_time() + us(3 * 17));

    let stats = &timed.bus_stats[0];
    assert_eq!(stats.transactions, 3);
    assert_eq!(stats.bytes, 3 * 64);
    assert_eq!(stats.busy, us(3 * 17));
    assert_eq!(stats.contended, 0, "single master never contends");
    assert_eq!(stats.grants.len(), 1);
    assert_eq!(stats.grants[0].master, "pe0:link");
    assert_eq!(stats.grants[0].grants, 3);

    // Protocol visible in the trace: req/grant markers on the bus track,
    // transfer spans, and the receive interrupt on pe1.
    let mut reqs = 0;
    let mut xfers = 0;
    let mut irqs = 0;
    let trace = &timed.records;
    for r in &trace.records {
        match r.kind {
            RecordKind::Marker { track, label } => match trace.track(track) {
                "bus:b0" if trace.label(label) == "req:pe0:link" => reqs += 1,
                "pe1:irq" => {
                    assert_eq!(trace.label(label), "rx:link");
                    irqs += 1;
                }
                _ => {}
            },
            RecordKind::SpanBegin { track, label } if trace.track(track) == "bus:b0" => {
                assert_eq!(trace.label(label), "xfer:pe0:link:64");
                xfers += 1;
            }
            _ => {}
        }
    }
    assert_eq!(reqs, 3);
    assert_eq!(xfers, 3);
    assert_eq!(irqs, 3);

    // The remote notify + interrupt_return path shows up in pe1's metrics.
    let pe1 = &timed.pe_metrics[1];
    assert_eq!(pe1.pe, "pe1");
    assert!(pe1.metrics.isr_notifies >= 3);
    assert!(pe1.metrics.interrupt_returns >= 3);
}

/// Two channels from two PEs onto one bus: the narrower the bus, the longer
/// it stays busy and the longer losers wait — contention is monotone in the
/// inverse width.
#[test]
fn contention_is_monotone_as_the_bus_narrows() {
    let mut spec = SystemSpec::new();
    let a = spec.add_channel("a", ChannelKind::Rendezvous);
    let b = spec.add_channel("b", ChannelKind::Rendezvous);

    for (pe, ch) in [("pe0", a), ("pe1", b)] {
        let mut actions = Vec::new();
        for _ in 0..4 {
            actions.push(Action::compute("work", us(10)));
            actions.push(Action::Send(ch));
        }
        let mut prio = HashMap::new();
        prio.insert(format!("tx_{pe}"), Priority(1));
        spec.add_pe(PeSpec {
            name: pe.into(),
            root: Behavior::leaf(format!("tx_{pe}"), actions),
            priorities: prio,
        });
    }
    // Two receiver tasks so both channels can have a pending receiver at
    // once — the senders then genuinely compete for the bus.
    let mut prio = HashMap::new();
    prio.insert("rx_a".into(), Priority(1));
    prio.insert("rx_b".into(), Priority(2));
    spec.add_pe(PeSpec {
        name: "pe2".into(),
        root: Behavior::Par(vec![
            Behavior::leaf("rx_a", vec![Action::Recv(a); 4]),
            Behavior::leaf("rx_b", vec![Action::Recv(b); 4]),
        ]),
        priorities: prio,
    });

    let mut prev_busy = Duration::ZERO;
    let mut prev_wait = Duration::ZERO;
    let mut prev_end = sldl_sim::SimTime::ZERO;
    for width in [64, 16, 4, 1] {
        let mut map = BusMap::default();
        let bus = map.add_bus(BusConfig::new(
            "shared",
            us(1),
            width,
            us(2),
            Arbitration::RoundRobin,
        ));
        map.assign(
            "a",
            BusBinding {
                bus,
                bytes_per_msg: 32,
                priority: 1,
            },
        );
        map.assign(
            "b",
            BusBinding {
                bus,
                bytes_per_msg: 32,
                priority: 2,
            },
        );
        let run = run_architecture_with_comm(
            &spec,
            SchedAlg::PriorityPreemptive,
            TimeSlice::WholeDelay,
            &RunConfig::default(),
            &map,
        )
        .unwrap();
        assert!(run.report.blocked.is_empty(), "{:?}", run.report.blocked);
        let stats = &run.bus_stats[0];
        assert_eq!(stats.transactions, 8);
        assert!(
            stats.busy >= prev_busy,
            "width {width}: busy {:?} < {:?}",
            stats.busy,
            prev_busy
        );
        assert!(
            stats.max_wait >= prev_wait,
            "width {width}: max_wait {:?} < {:?}",
            stats.max_wait,
            prev_wait
        );
        assert!(run.end_time() >= prev_end);
        prev_busy = stats.busy;
        prev_wait = stats.max_wait;
        prev_end = run.end_time();
    }
    assert!(prev_busy > Duration::ZERO);
    assert!(
        prev_wait > Duration::ZERO,
        "narrow bus must show contention"
    );
}

/// A bus assignment that lowers nothing is rejected before the run: a
/// misspelled channel, a rendezvous inside one PE and a semaphore would
/// otherwise stay abstract and leave their bus at 0 transactions.
#[test]
fn assignments_that_lower_nothing_are_rejected() {
    let mut spec = SystemSpec::new();
    let link = spec.add_channel("link", ChannelKind::Rendezvous);
    let local = spec.add_channel("local", ChannelKind::Rendezvous);
    let sem = spec.add_channel("sem", ChannelKind::Semaphore { initial: 1 });
    spec.add_pe(PeSpec {
        name: "pe0".into(),
        root: Behavior::leaf("producer", vec![Action::Send(link)]),
        priorities: HashMap::new(),
    });
    spec.add_pe(PeSpec {
        name: "pe1".into(),
        root: Behavior::Par(vec![
            Behavior::leaf(
                "consumer",
                vec![
                    Action::Recv(link),
                    Action::Acquire(sem),
                    Action::Send(local),
                ],
            ),
            Behavior::leaf("helper", vec![Action::Recv(local)]),
        ]),
        priorities: HashMap::new(),
    });
    let run = |channel: &str| {
        run_architecture_with_comm(
            &spec,
            SchedAlg::PriorityPreemptive,
            TimeSlice::WholeDelay,
            &RunConfig::default(),
            &map_assigning(channel, BusConfig::ideal("b0")),
        )
    };

    assert_eq!(run("link").unwrap().bus_stats[0].transactions, 1);
    for channel in ["lnik", "local", "sem"] {
        match run(channel) {
            Err(RunModelError::Invalid(ValidateSpecError::UnloweredBusAssignment {
                channel: named,
            })) => assert_eq!(named, channel),
            other => panic!("`{channel}`: expected a rejected map, got {other:?}"),
        }
    }
}
