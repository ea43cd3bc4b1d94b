//! Executor for the *unscheduled model*: behaviors run truly in parallel on
//! the raw SLDL kernel (paper Fig. 3(a) / Fig. 8(a)).

use std::rc::Rc;

use sldl_sim::{
    Child, Handshake, ProcCtx, RecordKind, Semaphore, Simulation, SldlSync, TraceConfig,
};

use crate::run::{ModelRun, RunConfig, RunModelError};
use crate::spec::{Action, Behavior, ChannelKind, SystemSpec};

enum SpecChan {
    Rendezvous(Handshake<SldlSync>),
    Sem(Semaphore<SldlSync>),
}

impl SpecChan {
    fn rendezvous(&self) -> &Handshake<SldlSync> {
        match self {
            SpecChan::Rendezvous(h) => h,
            SpecChan::Sem(_) => panic!("rendezvous operation on semaphore channel"),
        }
    }

    fn sem(&self) -> &Semaphore<SldlSync> {
        match self {
            SpecChan::Sem(s) => s,
            SpecChan::Rendezvous(_) => panic!("semaphore operation on rendezvous channel"),
        }
    }
}

/// Executes `spec` as an unscheduled model: every `par` branch is a truly
/// concurrent SLDL process, channels use raw SLDL events, and interrupt
/// sources release their semaphores directly.
///
/// # Errors
///
/// Returns [`RunModelError::Invalid`] if the spec fails validation and
/// [`RunModelError::Sim`] if a process panics during simulation.
pub fn run_unscheduled(spec: &SystemSpec, cfg: &RunConfig) -> Result<ModelRun, RunModelError> {
    spec.validate()?;
    let mut sim = Simulation::builder().trace(TraceConfig::default()).build();
    let trace = sim.trace_handle().expect("trace configured");
    let layer = sim.sync_layer();

    let chans: Rc<Vec<SpecChan>> = Rc::new(
        spec.channels
            .iter()
            .map(|c| match c.kind {
                ChannelKind::Rendezvous => SpecChan::Rendezvous(Handshake::new(layer.clone())),
                ChannelKind::Semaphore { initial } => {
                    SpecChan::Sem(Semaphore::new(initial, layer.clone()))
                }
            })
            .collect(),
    );

    for pe in &spec.pes {
        let root = pe.root.clone();
        let chans = Rc::clone(&chans);
        sim.spawn(Child::new(
            format!("{}_main", pe.name),
            move |ctx| async move {
                exec(&root, &ctx, &chans).await;
            },
        ));
    }

    for irq in &spec.interrupts {
        let chans = Rc::clone(&chans);
        let name = irq.name.clone();
        let mut times = irq.fire_times.clone();
        times.sort();
        let target = irq.target;
        sim.spawn(Child::new(format!("isr_{name}"), move |ctx| async move {
            for t in times {
                let now = ctx.now();
                if t > now {
                    ctx.waitfor(t - now).await;
                }
                ctx.record(RecordKind::Marker {
                    track: name.clone(),
                    label: "interrupt".into(),
                });
                chans[target.0].sem().release(&ctx).await;
            }
        }));
    }

    let report = match cfg.run_until {
        Some(t) => sim.run_until(t)?,
        None => sim.run()?,
    };
    Ok(ModelRun {
        report,
        records: trace.snapshot(),
        pe_metrics: Vec::new(),
        bus_stats: Vec::new(),
        channel_fairness: Vec::new(),
    })
}

async fn exec(b: &Behavior, ctx: &ProcCtx, chans: &Rc<Vec<SpecChan>>) {
    match b {
        Behavior::Leaf { name, actions } => run_actions(name, actions, ctx, chans).await,
        Behavior::Periodic {
            name,
            period,
            cycles,
            actions,
        } => {
            let start = ctx.now();
            for k in 0..*cycles {
                run_actions(name, actions, ctx, chans).await;
                // Wait out the rest of the period (skipped if overrun).
                let next = start + *period * (k + 1);
                let now = ctx.now();
                if next > now {
                    ctx.waitfor(next - now).await;
                }
            }
        }
        Behavior::Seq(children) => {
            for c in children {
                // Boxed: the future of a recursive async fn needs a fixed size.
                Box::pin(exec(c, ctx, chans)).await;
            }
        }
        Behavior::Par(children) => {
            let kids = children
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let c = c.clone();
                    let chans = Rc::clone(chans);
                    Child::new(format!("{}_{i}", c.task_name()), move |ctx| async move {
                        exec(&c, &ctx, &chans).await;
                    })
                })
                .collect();
            ctx.par(kids).await;
        }
    }
}

async fn run_actions(name: &str, actions: &[Action], ctx: &ProcCtx, chans: &Rc<Vec<SpecChan>>) {
    for a in actions {
        match a {
            Action::Compute { label, duration } => {
                ctx.record(RecordKind::SpanBegin {
                    track: name.to_string(),
                    label: label.clone(),
                });
                ctx.waitfor(*duration).await;
                ctx.record(RecordKind::SpanEnd {
                    track: name.to_string(),
                });
            }
            Action::Send(c) => chans[c.0].rendezvous().send(ctx).await,
            Action::Recv(c) => chans[c.0].rendezvous().recv(ctx).await,
            Action::Acquire(c) => chans[c.0].sem().acquire(ctx).await,
            Action::Release(c) => chans[c.0].sem().release(ctx).await,
        }
    }
}
