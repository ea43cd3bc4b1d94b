//! The dynamic-scheduling refinement: executes a [`SystemSpec`] as an
//! *architecture model* (paper Fig. 3(b)).
//!
//! This is the automated counterpart of the paper's manual refinement steps
//! (§4.2) — the paper notes "we have developed a tool that performs the
//! refinement of unscheduled specification models into RTOS-based
//! architecture models automatically"; this module is that tool:
//!
//! * one [`Rtos`] instance is created per PE and every `par` branch becomes
//!   a task (`task_create` / `task_activate` / `task_terminate`, with
//!   `par_start`/`par_end` around the fork — Fig. 6);
//! * `Compute` delays become `time_wait` calls (Fig. 5);
//! * channels are re-layered onto RTOS events (Fig. 7), with cross-PE
//!   rendezvous mapped to [`CrossRendezvous`];
//! * interrupt sources become ISR processes that release a semaphore and
//!   call `interrupt_return` (Fig. 3(b)).

use std::collections::HashMap;
use std::rc::Rc;

use rtos_model::{Priority, Rtos, SchedAlg, TaskId, TaskParams, TimeSlice};
use sldl_sim::{Child, Handshake, ProcCtx, Semaphore, Simulation, TraceConfig};

use crate::comm::{BusChannel, BusMap, SharedBus};
use crate::cross::CrossRendezvous;
use crate::run::{ChannelFairness, ModelRun, PeMetrics, RunConfig, RunModelError};
use crate::spec::{Action, Behavior, ChannelKind, SystemSpec, ValidateSpecError};

enum ArchChan {
    Rendezvous(Handshake<Rtos>),
    Cross(CrossRendezvous),
    Bus(BusChannel<()>),
    Sem(Semaphore<Rtos>),
}

impl ArchChan {
    async fn send(&self, ctx: &ProcCtx) {
        match self {
            ArchChan::Rendezvous(h) => h.send(ctx).await,
            ArchChan::Cross(c) => c.send(ctx).await,
            ArchChan::Bus(b) => b.send(ctx, ()).await,
            ArchChan::Sem(_) => panic!("send on semaphore channel"),
        }
    }

    async fn recv(&self, ctx: &ProcCtx) {
        match self {
            ArchChan::Rendezvous(h) => h.recv(ctx).await,
            ArchChan::Cross(c) => c.recv(ctx).await,
            ArchChan::Bus(b) => b.recv(ctx).await,
            ArchChan::Sem(_) => panic!("recv on semaphore channel"),
        }
    }

    fn sem(&self) -> &Semaphore<Rtos> {
        match self {
            ArchChan::Sem(s) => s,
            _ => panic!("semaphore operation on rendezvous channel"),
        }
    }
}

/// Per-channel usage sites discovered in the spec.
#[derive(Default, Clone)]
struct ChanUse {
    sender_pes: Vec<usize>,
    receiver_pes: Vec<usize>,
    acquirer_pes: Vec<usize>,
}

struct Env {
    os: Rtos,
    chans: Rc<Vec<ArchChan>>,
    priorities: HashMap<String, Priority>,
}

/// Executes `spec` as an RTOS-based architecture model under scheduling
/// algorithm `alg`, modeling preemption at granularity `slice`.
///
/// # Errors
///
/// Returns [`RunModelError::Invalid`] if the spec fails validation and
/// [`RunModelError::Sim`] if a process panics during simulation.
///
/// # Panics
///
/// Panics if a rendezvous channel has senders (or receivers) on more than
/// one PE, or a semaphore has acquirers on more than one PE — such specs
/// need an explicit communication architecture first.
pub fn run_architecture(
    spec: &SystemSpec,
    alg: SchedAlg,
    slice: TimeSlice,
    cfg: &RunConfig,
) -> Result<ModelRun, RunModelError> {
    run_architecture_inner(spec, alg, slice, std::time::Duration::ZERO, cfg, None)
}

/// [`run_architecture`] with an explicit communication architecture:
/// every cross-PE rendezvous assigned in `map` is lowered onto a timed,
/// arbitrated bus transaction ([`BusChannel`]); unassigned channels keep
/// the abstract [`CrossRendezvous`]. With [`BusMap::ideal`] — or with
/// every assigned bus configured zero-cost — the run is structurally
/// identical to [`run_architecture`].
///
/// # Errors
///
/// Returns [`RunModelError::Invalid`] if the spec fails validation or
/// `map` assigns a channel that is not a rendezvous between two PEs
/// ([`ValidateSpecError::UnloweredBusAssignment`]), and
/// [`RunModelError::Sim`] if a process panics during simulation.
pub fn run_architecture_with_comm(
    spec: &SystemSpec,
    alg: SchedAlg,
    slice: TimeSlice,
    cfg: &RunConfig,
    map: &BusMap,
) -> Result<ModelRun, RunModelError> {
    run_architecture_inner(spec, alg, slice, std::time::Duration::ZERO, cfg, Some(map))
}

/// [`run_architecture`] with a modeled kernel cost per context switch
/// (used by the exploration driver).
pub(crate) fn run_architecture_configured(
    spec: &SystemSpec,
    alg: SchedAlg,
    slice: TimeSlice,
    switch_cost: std::time::Duration,
) -> Result<ModelRun, RunModelError> {
    run_architecture_inner(spec, alg, slice, switch_cost, &RunConfig::default(), None)
}

fn run_architecture_inner(
    spec: &SystemSpec,
    alg: SchedAlg,
    slice: TimeSlice,
    switch_cost: std::time::Duration,
    cfg: &RunConfig,
    map: Option<&BusMap>,
) -> Result<ModelRun, RunModelError> {
    spec.validate()?;
    // Discover which PEs use each channel to place its refined instance.
    let mut uses = vec![ChanUse::default(); spec.channels.len()];
    for (pe_idx, pe) in spec.pes.iter().enumerate() {
        collect_uses(&pe.root, pe_idx, &mut uses);
    }
    if let Some(map) = map {
        check_bus_map(spec, &uses, map)?;
    }

    let mut sim = Simulation::builder().trace(TraceConfig::default()).build();
    let trace = sim.trace_handle().expect("trace configured");
    let layer = sim.sync_layer();

    // One RTOS instance per PE.
    let oses: Vec<Rtos> = spec
        .pes
        .iter()
        .map(|pe| {
            let os = Rtos::new(pe.name.clone(), layer.clone());
            os.start(alg);
            os.set_time_slice(slice);
            os.set_context_switch_cost(switch_cost);
            os
        })
        .collect();

    // Instantiate the communication architecture's buses (if any).
    let buses: Vec<SharedBus> = map
        .map(|m| m.buses().iter().cloned().map(SharedBus::new).collect())
        .unwrap_or_default();

    let chans: Rc<Vec<ArchChan>> = Rc::new(
        spec.channels
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let u = &uses[i];
                match c.kind {
                    ChannelKind::Rendezvous => {
                        let s = unique_pe(&u.sender_pes, &c.name, "senders");
                        let r = unique_pe(&u.receiver_pes, &c.name, "receivers");
                        match (s, r) {
                            (Some(s), Some(r)) if s != r => {
                                match map.and_then(|m| m.binding(&c.name)) {
                                    Some(b) => ArchChan::Bus(BusChannel::new(
                                        &c.name,
                                        oses[s].clone(),
                                        oses[r].clone(),
                                        &buses[b.bus],
                                        b.bytes_per_msg,
                                        b.priority,
                                    )),
                                    None => ArchChan::Cross(CrossRendezvous::new(
                                        oses[s].clone(),
                                        oses[r].clone(),
                                        &c.name,
                                    )),
                                }
                            }
                            (sr, _) => {
                                let pe = sr.unwrap_or(0);
                                ArchChan::Rendezvous(Handshake::new(oses[pe].clone()))
                            }
                        }
                    }
                    ChannelKind::Semaphore { initial } => {
                        let pe = unique_pe(&u.acquirer_pes, &c.name, "acquirers").unwrap_or(0);
                        ArchChan::Sem(Semaphore::new(initial, oses[pe].clone()))
                    }
                }
            })
            .collect(),
    );

    // One main task per PE running the root behavior.
    for (pe_idx, pe) in spec.pes.iter().enumerate() {
        let env = Rc::new(Env {
            os: oses[pe_idx].clone(),
            chans: Rc::clone(&chans),
            priorities: pe.priorities.clone(),
        });
        let root = pe.root.clone();
        let main_name = format!("{}_main", pe.name);
        sim.spawn(Child::new(main_name.clone(), move |ctx| async move {
            // A periodic root becomes the PE's periodic main task.
            let task_name = match &root {
                Behavior::Periodic { name, .. } => name.clone(),
                _ => main_name.clone(),
            };
            let prio = priority_of(&env.priorities, &task_name);
            let me = env
                .os
                .task_create(&task_params_for(&root, &task_name, prio));
            env.os.task_activate(&ctx, me).await;
            if exec(&root, &ctx, &env, &task_name).await {
                env.os.task_terminate(&ctx);
            }
        }));
    }

    // Interrupt sources → ISR processes.
    for irq in &spec.interrupts {
        let chans = Rc::clone(&chans);
        let os = oses[irq.pe].clone();
        let (trace, track) = (trace.clone(), trace.intern_track(&irq.name));
        let label = trace.intern_label("interrupt");
        let mut times = irq.fire_times.clone();
        times.sort();
        let target = irq.target;
        sim.spawn(Child::new(
            format!("isr_{}", irq.name),
            move |ctx| async move {
                for t in times {
                    let now = ctx.now();
                    if t > now {
                        ctx.waitfor(t - now).await;
                    }
                    trace.marker(ctx.now(), track, label);
                    chans[target.0].sem().release(&ctx).await;
                    os.interrupt_return(&ctx);
                }
            },
        ));
    }

    let report = match cfg.run_until {
        Some(t) => sim.run_until(t)?,
        None => sim.run()?,
    };
    let end = report.end_time;
    // Cross-channel fairness counters, in channel order.
    let channel_fairness: Vec<ChannelFairness> = spec
        .channels
        .iter()
        .enumerate()
        .filter_map(|(i, c)| {
            let fairness = match &chans[i] {
                ArchChan::Cross(x) => x.fairness(),
                ArchChan::Bus(b) => b.fairness(),
                _ => return None,
            };
            Some(ChannelFairness {
                channel: c.name.clone(),
                grants_to_senders: fairness.grants_to_senders,
                grants_to_receivers: fairness.grants_to_receivers,
            })
        })
        .collect();
    Ok(ModelRun {
        report,
        records: trace.take(),
        pe_metrics: spec
            .pes
            .iter()
            .zip(&oses)
            .map(|(pe, os)| PeMetrics {
                pe: pe.name.clone(),
                metrics: os.metrics_at(end),
            })
            .collect(),
        bus_stats: buses.iter().map(SharedBus::stats).collect(),
        channel_fairness,
    })
}

fn collect_uses(b: &Behavior, pe: usize, uses: &mut [ChanUse]) {
    match b {
        Behavior::Leaf { actions, .. } | Behavior::Periodic { actions, .. } => {
            for a in actions {
                match a {
                    Action::Send(c) => uses[c.0].sender_pes.push(pe),
                    Action::Recv(c) => uses[c.0].receiver_pes.push(pe),
                    Action::Acquire(c) => uses[c.0].acquirer_pes.push(pe),
                    // Releases may come from any PE or ISR context; computes
                    // touch no channel.
                    Action::Release(_) | Action::Compute { .. } => {}
                }
            }
        }
        Behavior::Seq(children) | Behavior::Par(children) => {
            for c in children {
                collect_uses(c, pe, uses);
            }
        }
    }
}

/// Rejects a bus assignment that lowers nothing: its channel must be a
/// rendezvous whose senders and receivers sit on two different PEs.
fn check_bus_map(
    spec: &SystemSpec,
    uses: &[ChanUse],
    map: &BusMap,
) -> Result<(), ValidateSpecError> {
    for channel in map.assigned_channels() {
        let lowered = spec.channels.iter().zip(uses).any(|(c, u)| {
            c.name == channel
                && c.kind == ChannelKind::Rendezvous
                && matches!(
                    (
                        unique_pe(&u.sender_pes, channel, "senders"),
                        unique_pe(&u.receiver_pes, channel, "receivers"),
                    ),
                    (Some(s), Some(r)) if s != r
                )
        });
        if !lowered {
            return Err(ValidateSpecError::UnloweredBusAssignment {
                channel: channel.to_string(),
            });
        }
    }
    Ok(())
}

/// All users of one role must sit on a single PE; returns it.
fn unique_pe(pes: &[usize], chan: &str, role: &str) -> Option<usize> {
    let mut it = pes.iter().copied();
    let first = it.next()?;
    assert!(
        it.all(|p| p == first),
        "channel `{chan}` has {role} on multiple PEs; refine the communication architecture first"
    );
    Some(first)
}

fn priority_of(map: &HashMap<String, Priority>, name: &str) -> Priority {
    map.get(name).copied().unwrap_or(Priority::LOWEST)
}

/// Task parameters for a behavior placed at task position: periodic
/// behaviors become periodic RTOS tasks with their per-cycle compute as the
/// WCET annotation.
fn task_params_for(b: &Behavior, name: &str, prio: Priority) -> TaskParams {
    match b {
        Behavior::Periodic { period, cycles, .. } => {
            let mut p = TaskParams::periodic(name, *period);
            let per_cycle = if *cycles == 0 {
                std::time::Duration::ZERO
            } else {
                b.total_compute() / *cycles
            };
            p.priority(prio).wcet(per_cycle);
            p
        }
        _ => TaskParams::aperiodic(name, prio),
    }
}

/// Walks the behavior tree in task context. `path` provides unique names
/// for composite par branches. Returns `false` when the calling task was
/// killed by its deadline-miss policy (the caller must not touch the RTOS
/// for this task again, in particular not `task_terminate`).
async fn exec(b: &Behavior, ctx: &ProcCtx, env: &Rc<Env>, path: &str) -> bool {
    match b {
        Behavior::Leaf { actions, .. } => {
            run_actions(actions, ctx, env).await;
            true
        }
        Behavior::Periodic {
            cycles, actions, ..
        } => {
            // The enclosing task was created periodic (validated placement):
            // run the body and end the cycle, letting the RTOS release the
            // task again at the next period (Fig. 4 `task_endcycle`). A
            // `Stop` outcome means the task's deadline-miss policy killed
            // it — unwind without touching the RTOS again.
            for _ in 0..*cycles {
                run_actions(actions, ctx, env).await;
                if env.os.task_endcycle(ctx).await == rtos_model::CycleOutcome::Stop {
                    return false;
                }
            }
            true
        }
        Behavior::Seq(children) => {
            for (i, c) in children.iter().enumerate() {
                // Boxed: the future of a recursive async fn needs a fixed size.
                if !Box::pin(exec(c, ctx, env, &format!("{path}.{i}"))).await {
                    return false;
                }
            }
            true
        }
        Behavior::Par(children) => {
            // Fig. 6: create child tasks, suspend the parent in the RTOS,
            // fork at the SLDL level, then resume the parent.
            let named: Vec<(String, TaskId, Behavior)> = children
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let name = match c {
                        Behavior::Leaf { name, .. } | Behavior::Periodic { name, .. } => {
                            name.clone()
                        }
                        _ => format!("{path}.par{i}"),
                    };
                    let prio = priority_of(&env.priorities, &name);
                    let tid = env.os.task_create(&task_params_for(c, &name, prio));
                    (name, tid, c.clone())
                })
                .collect();
            env.os.par_start(ctx);
            let kids = named
                .into_iter()
                .map(|(name, tid, c)| {
                    let env = Rc::clone(env);
                    let child_path = name.clone();
                    Child::new(name, move |ctx| async move {
                        env.os.task_activate(&ctx, tid).await;
                        if exec(&c, &ctx, &env, &child_path).await {
                            env.os.task_terminate(&ctx);
                        }
                    })
                })
                .collect();
            ctx.par(kids).await;
            env.os.par_end(ctx).await;
            true
        }
    }
}

async fn run_actions(actions: &[Action], ctx: &ProcCtx, env: &Rc<Env>) {
    for a in actions {
        match a {
            Action::Compute { label, duration } => {
                env.os.time_wait_as(ctx, *duration, label).await;
            }
            Action::Send(c) => env.chans[c.0].send(ctx).await,
            Action::Recv(c) => env.chans[c.0].recv(ctx).await,
            Action::Acquire(c) => env.chans[c.0].sem().acquire(ctx).await,
            Action::Release(c) => env.chans[c.0].sem().release(ctx).await,
        }
    }
}
