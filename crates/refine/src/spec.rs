//! The specification-model DSL.
//!
//! A [`SystemSpec`] captures an application the way the paper's
//! *specification model* does (Fig. 2(a)): a serial–parallel composition of
//! behaviors per processing element, communicating through channels, with
//! delays standing in for computation. The same spec is executed two ways:
//!
//! * [`run_unscheduled`](crate::run_unscheduled) — behaviors run truly in
//!   parallel on the SLDL kernel (the *unscheduled model*, Fig. 3(a)); and
//! * [`run_architecture`](crate::run_architecture) — the automated
//!   dynamic-scheduling refinement (paper §4.2): behaviors become RTOS
//!   tasks, channels are re-layered onto RTOS events, and interrupt
//!   handlers signal semaphores (the *architecture model*, Fig. 3(b)).

use std::collections::{HashMap, HashSet};
use std::time::Duration;

use rtos_model::Priority;
use sldl_sim::SimTime;

/// Index of a channel in a [`SystemSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChanId(pub(crate) usize);

/// One step of a leaf behavior.
#[derive(Debug, Clone)]
pub enum Action {
    /// Consume CPU for `duration`; `label` names the delay annotation
    /// (the `d1..d8` of the paper's Fig. 8).
    Compute {
        /// Delay-annotation name shown in traces.
        label: String,
        /// Modeled execution time.
        duration: Duration,
    },
    /// Rendezvous-send on a channel (blocks until the receiver arrives).
    Send(ChanId),
    /// Rendezvous-receive on a channel (blocks until the sender arrives).
    Recv(ChanId),
    /// Acquire one permit of a semaphore channel — the bus-driver side of
    /// the paper's Fig. 3 interrupt interface.
    Acquire(ChanId),
    /// Release one permit of a semaphore channel.
    Release(ChanId),
}

impl Action {
    /// Convenience constructor for [`Action::Compute`].
    pub fn compute(label: impl Into<String>, duration: Duration) -> Self {
        Action::Compute {
            label: label.into(),
            duration,
        }
    }
}

/// A serial–parallel behavior composition.
#[derive(Debug, Clone)]
pub enum Behavior {
    /// A leaf behavior: a named sequence of actions.
    Leaf {
        /// Behavior name (becomes the task name after refinement).
        name: String,
        /// The behavior body.
        actions: Vec<Action>,
    },
    /// A periodic leaf behavior: the body repeats every `period` for
    /// `cycles` iterations. The refinement maps it to a periodic RTOS task
    /// calling `task_endcycle` after each iteration (the paper's periodic
    /// hard-real-time task model).
    Periodic {
        /// Behavior name (becomes the task name after refinement).
        name: String,
        /// Release period (also the implicit deadline).
        period: Duration,
        /// Number of cycles to run (keeps the simulation finite).
        cycles: u32,
        /// The per-cycle body.
        actions: Vec<Action>,
    },
    /// Sequential composition.
    Seq(Vec<Behavior>),
    /// Parallel composition (the SLDL `par`; becomes task fork/join).
    Par(Vec<Behavior>),
}

impl Behavior {
    /// Creates a leaf behavior.
    pub fn leaf(name: impl Into<String>, actions: Vec<Action>) -> Self {
        Behavior::Leaf {
            name: name.into(),
            actions,
        }
    }

    /// Creates a periodic leaf behavior.
    pub fn periodic(
        name: impl Into<String>,
        period: Duration,
        cycles: u32,
        actions: Vec<Action>,
    ) -> Self {
        Behavior::Periodic {
            name: name.into(),
            period,
            cycles,
            actions,
        }
    }

    /// The name used for this subtree when it becomes a task: the leaf
    /// name, or a synthesized name for composite branches.
    #[must_use]
    pub fn task_name(&self) -> String {
        match self {
            Behavior::Leaf { name, .. } | Behavior::Periodic { name, .. } => name.clone(),
            Behavior::Seq(_) => "seq".to_string(),
            Behavior::Par(_) => "par".to_string(),
        }
    }

    fn visit_leaves<'a>(&'a self, f: &mut impl FnMut(&'a str, &'a [Action])) {
        match self {
            Behavior::Leaf { name, actions } | Behavior::Periodic { name, actions, .. } => {
                f(name, actions)
            }
            Behavior::Seq(children) | Behavior::Par(children) => {
                for c in children {
                    c.visit_leaves(f);
                }
            }
        }
    }

    /// Total modeled computation time in this subtree (periodic bodies
    /// counted once per cycle).
    #[must_use]
    pub fn total_compute(&self) -> Duration {
        match self {
            Behavior::Leaf { actions, .. } => per_cycle_compute(actions),
            Behavior::Periodic {
                actions, cycles, ..
            } => per_cycle_compute(actions) * *cycles,
            Behavior::Seq(children) | Behavior::Par(children) => {
                children.iter().map(Behavior::total_compute).sum()
            }
        }
    }
}

fn per_cycle_compute(actions: &[Action]) -> Duration {
    actions
        .iter()
        .map(|a| match a {
            Action::Compute { duration, .. } => *duration,
            _ => Duration::ZERO,
        })
        .sum()
}

/// Kind of a specification channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelKind {
    /// Double-handshake rendezvous (both parties block until matched) —
    /// the `c1`/`c2` channels of the paper's Fig. 3.
    Rendezvous,
    /// Counting semaphore with the given initial permits — the `sem` of
    /// the paper's bus interface.
    Semaphore {
        /// Permits available at time zero.
        initial: u64,
    },
}

/// A named channel declaration.
#[derive(Debug, Clone)]
pub struct ChannelSpec {
    /// Channel name (for traces and debugging).
    pub name: String,
    /// Channel kind.
    pub kind: ChannelKind,
}

/// An external interrupt source: at each fire time, the PE's interrupt
/// service routine runs and releases one permit of the target semaphore —
/// exactly the `ISR → sem → bus driver` structure of the paper's Fig. 3.
#[derive(Debug, Clone)]
pub struct InterruptSpec {
    /// Interrupt name (trace marker track).
    pub name: String,
    /// PE whose RTOS receives `interrupt_return` (index into
    /// [`SystemSpec::pes`]).
    pub pe: usize,
    /// Semaphore channel the ISR releases.
    pub target: ChanId,
    /// Absolute fire times.
    pub fire_times: Vec<SimTime>,
}

/// One processing element: a root behavior plus task priorities assigned
/// during refinement.
#[derive(Debug, Clone)]
pub struct PeSpec {
    /// PE name (the RTOS instance name after refinement).
    pub name: String,
    /// Root behavior executed by the PE's main task.
    pub root: Behavior,
    /// Task priorities assigned by the refinement (leaf/branch task name →
    /// priority). Unlisted tasks get [`Priority::LOWEST`].
    pub priorities: HashMap<String, Priority>,
}

/// A complete system specification.
#[derive(Debug, Clone, Default)]
pub struct SystemSpec {
    /// Processing elements.
    pub pes: Vec<PeSpec>,
    /// Channels (shared across PEs; cross-PE rendezvous is refined into a
    /// bus-style channel automatically).
    pub channels: Vec<ChannelSpec>,
    /// External interrupt sources.
    pub interrupts: Vec<InterruptSpec>,
}

impl SystemSpec {
    /// Creates an empty spec.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a channel, returning its id.
    pub fn add_channel(&mut self, name: impl Into<String>, kind: ChannelKind) -> ChanId {
        let id = ChanId(self.channels.len());
        self.channels.push(ChannelSpec {
            name: name.into(),
            kind,
        });
        id
    }

    /// Adds a processing element, returning its index.
    pub fn add_pe(&mut self, pe: PeSpec) -> usize {
        self.pes.push(pe);
        self.pes.len() - 1
    }

    /// Adds an external interrupt source.
    pub fn add_interrupt(&mut self, irq: InterruptSpec) {
        self.interrupts.push(irq);
    }

    /// Checks structural consistency of the spec.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidateSpecError`] describing the first problem found:
    /// duplicate task names, dangling channel/PE references, acquiring a
    /// rendezvous, or an interrupt targeting a non-semaphore.
    pub fn validate(&self) -> Result<(), ValidateSpecError> {
        let mut names = HashSet::new();
        for pe in &self.pes {
            check_periodic_placement(&pe.root, true)?;
            let mut err = None;
            pe.root.visit_leaves(&mut |name, actions| {
                if err.is_some() {
                    return;
                }
                if !names.insert(name.to_string()) {
                    err = Some(ValidateSpecError::DuplicateLeaf(name.to_string()));
                    return;
                }
                for a in actions {
                    let (chan, need_sem) = match a {
                        Action::Send(c) | Action::Recv(c) => (*c, false),
                        Action::Acquire(c) | Action::Release(c) => (*c, true),
                        Action::Compute { .. } => continue,
                    };
                    match self.channels.get(chan.0) {
                        None => {
                            err = Some(ValidateSpecError::UnknownChannel(chan.0));
                            return;
                        }
                        Some(spec) => {
                            let is_sem = matches!(spec.kind, ChannelKind::Semaphore { .. });
                            if is_sem != need_sem {
                                err = Some(ValidateSpecError::KindMismatch {
                                    channel: spec.name.clone(),
                                });
                                return;
                            }
                        }
                    }
                }
            });
            if let Some(e) = err {
                return Err(e);
            }
        }
        for irq in &self.interrupts {
            if irq.pe >= self.pes.len() {
                return Err(ValidateSpecError::UnknownPe(irq.pe));
            }
            match self.channels.get(irq.target.0) {
                Some(spec) if matches!(spec.kind, ChannelKind::Semaphore { .. }) => {}
                Some(spec) => {
                    return Err(ValidateSpecError::KindMismatch {
                        channel: spec.name.clone(),
                    })
                }
                None => return Err(ValidateSpecError::UnknownChannel(irq.target.0)),
            }
        }
        Ok(())
    }

    /// Total modeled computation time across all PEs.
    #[must_use]
    pub fn total_compute(&self) -> Duration {
        self.pes.iter().map(|pe| pe.root.total_compute()).sum()
    }
}

/// Periodic behaviors become their own tasks, so they may only appear as
/// the PE root or as a direct branch of a `Par` (never inside a `Seq` or a
/// plain leaf position within another task's control flow).
fn check_periodic_placement(b: &Behavior, task_position: bool) -> Result<(), ValidateSpecError> {
    match b {
        Behavior::Leaf { .. } => Ok(()),
        Behavior::Periodic { name, .. } => {
            if task_position {
                Ok(())
            } else {
                Err(ValidateSpecError::PeriodicNotATask(name.clone()))
            }
        }
        Behavior::Seq(children) => {
            for c in children {
                check_periodic_placement(c, false)?;
            }
            Ok(())
        }
        Behavior::Par(children) => {
            for c in children {
                check_periodic_placement(c, true)?;
            }
            Ok(())
        }
    }
}

/// Error from [`SystemSpec::validate`], or from the bus-map check of
/// [`run_architecture_with_comm`](crate::run_architecture_with_comm).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ValidateSpecError {
    /// Two leaves share a name (task names must be unique system-wide).
    DuplicateLeaf(String),
    /// An action references a channel that was never declared.
    UnknownChannel(usize),
    /// An interrupt references a PE that does not exist.
    UnknownPe(usize),
    /// Semaphore operation on a rendezvous channel or vice versa.
    KindMismatch {
        /// The offending channel's name.
        channel: String,
    },
    /// A periodic behavior is nested where it cannot become its own task.
    PeriodicNotATask(String),
    /// A [`BusMap`](crate::BusMap) assigns a channel that is not a
    /// rendezvous between two PEs, so the assignment would lower nothing.
    UnloweredBusAssignment {
        /// The assigned channel's name.
        channel: String,
    },
}

impl core::fmt::Display for ValidateSpecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ValidateSpecError::DuplicateLeaf(n) => write!(f, "duplicate leaf behavior `{n}`"),
            ValidateSpecError::UnknownChannel(i) => write!(f, "unknown channel index {i}"),
            ValidateSpecError::UnknownPe(i) => write!(f, "unknown PE index {i}"),
            ValidateSpecError::KindMismatch { channel } => {
                write!(f, "operation does not match kind of channel `{channel}`")
            }
            ValidateSpecError::PeriodicNotATask(name) => {
                write!(
                    f,
                    "periodic behavior `{name}` must be a PE root or a par branch"
                )
            }
            ValidateSpecError::UnloweredBusAssignment { channel } => write!(
                f,
                "bus assignment `{channel}` names no rendezvous between two PEs"
            ),
        }
    }
}

impl std::error::Error for ValidateSpecError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> Duration {
        Duration::from_micros(n)
    }

    #[test]
    fn leaf_builder_and_compute_total() {
        let b = Behavior::Seq(vec![
            Behavior::leaf("a", vec![Action::compute("d1", us(10))]),
            Behavior::Par(vec![
                Behavior::leaf("b", vec![Action::compute("d2", us(20))]),
                Behavior::leaf("c", vec![Action::compute("d3", us(30))]),
            ]),
        ]);
        assert_eq!(b.total_compute(), us(60));
        assert_eq!(b.task_name(), "seq");
    }

    #[test]
    fn validate_accepts_well_formed_spec() {
        let mut spec = SystemSpec::new();
        let c = spec.add_channel("c1", ChannelKind::Rendezvous);
        let s = spec.add_channel("sem", ChannelKind::Semaphore { initial: 0 });
        spec.add_pe(PeSpec {
            name: "pe0".into(),
            root: Behavior::Par(vec![
                Behavior::leaf("tx", vec![Action::Send(c), Action::Release(s)]),
                Behavior::leaf("rx", vec![Action::Recv(c), Action::Acquire(s)]),
            ]),
            priorities: HashMap::new(),
        });
        spec.add_interrupt(InterruptSpec {
            name: "irq".into(),
            pe: 0,
            target: s,
            fire_times: vec![SimTime::from_micros(5)],
        });
        assert_eq!(spec.validate(), Ok(()));
        assert_eq!(spec.total_compute(), Duration::ZERO);
    }

    #[test]
    fn validate_rejects_duplicate_leaves() {
        let mut spec = SystemSpec::new();
        spec.add_pe(PeSpec {
            name: "pe0".into(),
            root: Behavior::Par(vec![
                Behavior::leaf("same", vec![]),
                Behavior::leaf("same", vec![]),
            ]),
            priorities: HashMap::new(),
        });
        assert_eq!(
            spec.validate(),
            Err(ValidateSpecError::DuplicateLeaf("same".into()))
        );
    }

    #[test]
    fn validate_rejects_kind_mismatch() {
        let mut spec = SystemSpec::new();
        let c = spec.add_channel("c1", ChannelKind::Rendezvous);
        spec.add_pe(PeSpec {
            name: "pe0".into(),
            root: Behavior::leaf("t", vec![Action::Acquire(c)]),
            priorities: HashMap::new(),
        });
        assert_eq!(
            spec.validate(),
            Err(ValidateSpecError::KindMismatch {
                channel: "c1".into()
            })
        );
    }

    #[test]
    fn validate_rejects_dangling_references() {
        let mut spec = SystemSpec::new();
        spec.add_pe(PeSpec {
            name: "pe0".into(),
            root: Behavior::leaf("t", vec![Action::Send(ChanId(7))]),
            priorities: HashMap::new(),
        });
        assert_eq!(spec.validate(), Err(ValidateSpecError::UnknownChannel(7)));

        let mut spec2 = SystemSpec::new();
        let s = spec2.add_channel("sem", ChannelKind::Semaphore { initial: 0 });
        spec2.add_interrupt(InterruptSpec {
            name: "irq".into(),
            pe: 3,
            target: s,
            fire_times: vec![],
        });
        assert_eq!(spec2.validate(), Err(ValidateSpecError::UnknownPe(3)));
    }
}
