//! Kernel-level stall/deadlock detection: the wait-for graph declared via
//! [`SldlSync::declare_wait`] is checked for cycles when all activity is
//! exhausted; blocked processes without a declared cycle end the run
//! normally.

use std::time::Duration;

use sldl_sim::{Child, RunError, SimTime, Simulation};

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

#[test]
fn blocked_server_without_edges_ends_normally() {
    // The classic idiom keeps working: a server waiting forever on an
    // event (no declared edges) ends the run cleanly.
    let mut sim = Simulation::new();
    let e = sim.event_new();
    sim.spawn(Child::new("server", move |ctx| async move {
        ctx.wait(e).await;
    }));
    let report = sim.run().unwrap();
    assert_eq!(report.blocked, vec!["server".to_string()]);
}

#[test]
fn declared_cycle_fails_with_deadlock() {
    let mut sim = Simulation::new();
    let ea = sim.event_new();
    let eb = sim.event_new();
    let sync = sim.sync_layer();
    // a blocks on m1 (held by b); b blocks on m0 (held by a).
    let sa = sync.clone();
    sim.spawn(Child::new("a", move |ctx| async move {
        ctx.waitfor(us(5)).await;
        sa.declare_wait("a", "m1", "b");
        ctx.wait(ea).await;
    }));
    let sb = sync.clone();
    sim.spawn(Child::new("b", move |ctx| async move {
        ctx.waitfor(us(5)).await;
        sb.declare_wait("b", "m0", "a");
        ctx.wait(eb).await;
    }));
    match sim.run() {
        Err(RunError::Deadlock { at, cycle, blocked }) => {
            assert_eq!(at, SimTime::from_micros(5));
            assert_eq!(cycle.len(), 2);
            // The cycle closes: each edge's holder is the next waiter.
            for (i, edge) in cycle.iter().enumerate() {
                let next = &cycle[(i + 1) % cycle.len()];
                assert_eq!(edge.holder, next.waiter);
            }
            let waiters: Vec<&str> = cycle.iter().map(|e| e.waiter.as_str()).collect();
            assert!(waiters.contains(&"a") && waiters.contains(&"b"));
            assert_eq!(blocked, vec!["a".to_string(), "b".to_string()]);
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn cleared_edge_defuses_detection() {
    let mut sim = Simulation::new();
    let ea = sim.event_new();
    let eb = sim.event_new();
    let sync = sim.sync_layer();
    let sa = sync.clone();
    sim.spawn(Child::new("a", move |ctx| async move {
        sa.declare_wait("a", "m1", "b");
        sa.clear_wait("a"); // acquired after all
        ctx.wait(ea).await;
    }));
    let sb = sync.clone();
    sim.spawn(Child::new("b", move |ctx| async move {
        sb.declare_wait("b", "m0", "a");
        sb.clear_wait("b");
        ctx.wait(eb).await;
    }));
    let report = sim.run().unwrap();
    assert_eq!(report.blocked.len(), 2);
}

#[test]
fn deadlock_display_names_the_cycle() {
    let mut sim = Simulation::new();
    let e = sim.event_new();
    let sync = sim.sync_layer();
    sim.spawn(Child::new("t", move |ctx| async move {
        sync.declare_wait("t", "lock", "t");
        ctx.wait(e).await;
    }));
    let err = sim.run().unwrap_err();
    let s = err.to_string();
    assert!(s.contains("deadlock at"), "{s}");
    assert!(s.contains("`t` waits for `lock` held by `t`"), "{s}");
}
