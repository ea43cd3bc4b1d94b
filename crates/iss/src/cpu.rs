//! The instruction-set interpreter.
//!
//! Executes a [`Program`] with cycle accounting, two interrupt sources
//! (timer and frame device), and memory-mapped I/O ports through which the
//! guest kernel reports scheduling events to the host (context switches,
//! frame completions) — the host side of the Table 1 measurements.

use std::collections::VecDeque;

use crate::asm::Program;
use crate::isa::{ports, AluOp, Cond, Instr, NUM_REGS};

/// Data-memory size in words (below the MMIO window).
pub const DATA_WORDS: usize = ports::MMIO_BASE as usize;

/// Why [`Machine::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitReason {
    /// The guest executed `halt`.
    Halted,
    /// The cycle budget was exhausted.
    CycleLimit,
}

/// A host-visible event produced through an MMIO port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostEvent {
    /// The kernel dispatched a task (write to [`ports::CSWITCH`]).
    ContextSwitch {
        /// Cycle of the dispatch.
        cycle: u64,
        /// Guest task id.
        task: i32,
    },
    /// The application completed a work item (write to
    /// [`ports::FRAME_DONE`]).
    FrameDone {
        /// Cycle of completion.
        cycle: u64,
        /// Frame sequence number.
        seq: i32,
    },
    /// Debug value (write to [`ports::DEBUG`]).
    Debug {
        /// Cycle of the write.
        cycle: u64,
        /// Value written.
        value: i32,
    },
}

/// Interrupt lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Irq {
    Timer = 0,
    Frame = 1,
}

/// Machine state: registers, memories, devices, cycle counter.
#[derive(Debug, PartialEq)]
pub struct Machine {
    text: Vec<Instr>,
    data: Vec<i32>,
    regs: [i32; NUM_REGS],
    pc: u32,
    /// Cycle counter (the 60 MHz clock).
    cycles: u64,
    interrupts_enabled: bool,
    /// Saved pc at interrupt/trap entry; `rti` returns here.
    epc: u32,
    cause: i32,
    ivec_timer: u32,
    ivec_frame: u32,
    ivec_trap: u32,
    pending: [bool; 2],
    // Devices.
    timer_period: u64,
    timer_next: Option<u64>,
    frame_period: u64,
    frame_remaining: u32,
    frame_next: Option<u64>,
    /// Cycle at which each frame IRQ fired (host-side arrival schedule).
    frame_arrivals: Vec<u64>,
    events: VecDeque<HostEvent>,
    halted: bool,
    /// Total instructions retired.
    pub instructions: u64,
}

impl Machine {
    /// Loads a program into a fresh machine.
    ///
    /// # Panics
    ///
    /// Panics if the program's data image exceeds the data memory.
    #[must_use]
    pub fn new(program: &Program) -> Self {
        assert!(
            program.data.len() <= DATA_WORDS,
            "data image too large: {} words",
            program.data.len()
        );
        let mut data = vec![0i32; DATA_WORDS];
        data[..program.data.len()].copy_from_slice(&program.data);
        Machine {
            text: program.text.clone(),
            data,
            regs: [0; NUM_REGS],
            pc: 0,
            cycles: 0,
            interrupts_enabled: false,
            epc: 0,
            cause: 0,
            ivec_timer: 0,
            ivec_frame: 0,
            ivec_trap: 0,
            pending: [false; 2],
            timer_period: 0,
            timer_next: None,
            frame_period: 0,
            frame_remaining: 0,
            frame_next: None,
            frame_arrivals: Vec::new(),
            events: VecDeque::new(),
            halted: false,
            instructions: 0,
        }
    }

    /// Current cycle count.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Whether the machine has executed `halt`.
    #[must_use]
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Reads a data-memory word (host-side inspection).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of the data memory.
    #[must_use]
    pub fn peek(&self, addr: u32) -> i32 {
        self.data[addr as usize]
    }

    /// Writes a data-memory word (host-side setup).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of the data memory.
    pub fn poke(&mut self, addr: u32, value: i32) {
        self.data[addr as usize] = value;
    }

    /// Drains the host events produced so far.
    pub fn drain_events(&mut self) -> Vec<HostEvent> {
        self.events.drain(..).collect()
    }

    /// Cycle times at which the frame device raised its interrupt.
    #[must_use]
    pub fn frame_arrivals(&self) -> &[u64] {
        &self.frame_arrivals
    }

    /// Runs until `halt`, or until the cycle counter reaches `max_cycles`:
    /// an absolute count, not a budget for this call. The limit is checked
    /// between instructions, so the last one may overshoot it.
    ///
    /// Exactly equivalent to calling [`step`](Self::step) until then, but
    /// the devices are polled once per device event, not before every
    /// instruction. Until the next device fire time a poll would find
    /// nothing due, and no interrupt can be taken: the poll has just
    /// dispatched any pending one that was enabled. So instructions run
    /// back to back up to that *horizon* (capped at `max_cycles`), or until
    /// one that can change interrupt or device state sends the loop back
    /// to the poll. Each instruction still retires at its own cycle, so
    /// guest reads of [`ports::CYCLES`] and host event stamps are
    /// unchanged.
    pub fn run(&mut self, max_cycles: u64) -> ExitReason {
        while !self.halted {
            if self.cycles >= max_cycles {
                return ExitReason::CycleLimit;
            }
            self.poll_interrupts();
            let horizon = self
                .next_device_cycle()
                .map_or(max_cycles, |t| t.min(max_cycles));
            while !self.execute() && self.cycles < horizon {}
        }
        ExitReason::Halted
    }

    /// Executes one instruction (plus any due interrupt dispatch).
    pub fn step(&mut self) {
        if !self.halted {
            self.poll_interrupts();
            self.execute();
        }
    }

    /// Polls the devices, then enters the handler of a pending interrupt
    /// if interrupts are enabled.
    fn poll_interrupts(&mut self) {
        self.poll_devices();
        if self.interrupts_enabled {
            if let Some(irq) = self.take_pending() {
                self.enter_handler(irq);
            }
        }
    }

    /// Executes the instruction at `pc`: the whole ISA's semantics.
    /// Returns whether the devices must be polled before the next one:
    /// the instruction halted, changed interrupt state (`sti`, `rti`,
    /// `trap`), idled to a device event (`wait`), or wrote an MMIO port.
    // Forced inline: a call per instruction measurably slows `run`.
    #[inline(always)]
    fn execute(&mut self) -> bool {
        let Some(&instr) = self.text.get(self.pc as usize) else {
            // Falling off the text segment halts the machine.
            self.halted = true;
            return true;
        };
        self.instructions += 1;
        let mut next_pc = self.pc + 1;
        let mut mmio_store = false;
        match instr {
            Instr::Movi { rd, imm } => self.set(rd.0, imm),
            Instr::Alu { op, rd, rs, rt } => {
                let a = self.regs[rs.0 as usize];
                let b = self.regs[rt.0 as usize];
                let v = match op {
                    AluOp::Add => a.wrapping_add(b),
                    AluOp::Sub => a.wrapping_sub(b),
                    AluOp::Mul => a.wrapping_mul(b),
                    AluOp::And => a & b,
                    AluOp::Or => a | b,
                    AluOp::Xor => a ^ b,
                    AluOp::Shl => a.wrapping_shl(b as u32 & 31),
                    AluOp::Shr => a.wrapping_shr(b as u32 & 31),
                };
                self.set(rd.0, v);
            }
            Instr::Addi { rd, rs, imm } => {
                let v = self.regs[rs.0 as usize].wrapping_add(imm);
                self.set(rd.0, v);
            }
            Instr::Mac { rd, rs, rt } => {
                let v = self.regs[rd.0 as usize]
                    .wrapping_add(self.regs[rs.0 as usize].wrapping_mul(self.regs[rt.0 as usize]));
                self.set(rd.0, v);
            }
            Instr::Ld { rd, rs, offset } => {
                let addr = self.regs[rs.0 as usize].wrapping_add(offset);
                let v = self.load(addr);
                self.set(rd.0, v);
            }
            Instr::St { rs, rd, offset } => {
                let addr = self.regs[rd.0 as usize].wrapping_add(offset);
                let v = self.regs[rs.0 as usize];
                mmio_store = self.store(addr, v);
            }
            Instr::Branch {
                cond,
                rs,
                rt,
                target,
            } => {
                let a = self.regs[rs.0 as usize];
                let b = self.regs[rt.0 as usize];
                let taken = match cond {
                    Cond::Eq => a == b,
                    Cond::Ne => a != b,
                    Cond::Lt => a < b,
                    Cond::Ge => a >= b,
                };
                if taken {
                    next_pc = target;
                }
            }
            Instr::Jmp { target } => next_pc = target,
            Instr::Jal { target } => {
                self.set(crate::isa::LR.0, next_pc as i32);
                next_pc = target;
            }
            Instr::Jr { rs } => next_pc = self.regs[rs.0 as usize] as u32,
            Instr::Trap { cause } => {
                self.cause = cause as i32;
                self.epc = next_pc;
                self.interrupts_enabled = false;
                next_pc = self.ivec_trap;
            }
            Instr::Rti => {
                next_pc = self.epc;
                self.interrupts_enabled = true;
            }
            Instr::Cli => self.interrupts_enabled = false,
            Instr::Sti => self.interrupts_enabled = true,
            Instr::Wait => {
                // Idle until the next device event (or halt if none).
                match self.next_device_cycle() {
                    Some(next) if next > self.cycles => self.cycles = next,
                    Some(_) => self.cycles += 1,
                    None => {
                        self.halted = true;
                        return true;
                    }
                }
                // Stay on the `wait`: the pending interrupt is taken at the
                // next step. A plain `rti` re-enters the wait (idle loops
                // want exactly that); a kernel dispatching another task
                // overwrites EPC instead.
                next_pc = self.pc;
            }
            Instr::Nop => {}
            Instr::Halt => {
                self.halted = true;
                return true;
            }
        }
        self.pc = next_pc;
        // Zero for `wait`, which has already idled.
        self.cycles += instr.cycles();
        mmio_store
            || matches!(
                instr,
                Instr::Sti | Instr::Rti | Instr::Trap { .. } | Instr::Wait
            )
    }

    fn set(&mut self, rd: u8, value: i32) {
        if rd != 0 {
            self.regs[rd as usize] = value;
        }
    }

    fn load(&mut self, addr: i32) -> i32 {
        let addr = addr as u32;
        if addr >= ports::MMIO_BASE {
            return self.mmio_read(addr);
        }
        self.data[addr as usize]
    }

    /// Returns whether the store went to an MMIO port.
    fn store(&mut self, addr: i32, value: i32) -> bool {
        let addr = addr as u32;
        if addr >= ports::MMIO_BASE {
            self.mmio_write(addr, value);
            return true;
        }
        self.data[addr as usize] = value;
        false
    }

    fn mmio_read(&mut self, addr: u32) -> i32 {
        match addr {
            ports::EPC => self.epc as i32,
            ports::CAUSE => self.cause,
            ports::CYCLES => (self.cycles & 0x7FFF_FFFF) as i32,
            _ => 0,
        }
    }

    fn mmio_write(&mut self, addr: u32, value: i32) {
        match addr {
            ports::TIMER_PERIOD => {
                self.timer_period = value.max(0) as u64;
                self.timer_next = if self.timer_period > 0 {
                    Some(self.cycles + self.timer_period)
                } else {
                    None
                };
            }
            ports::FRAME_PERIOD => self.frame_period = value.max(0) as u64,
            ports::FRAME_COUNT => {
                self.frame_remaining = value.max(0) as u32;
                self.frame_next = if self.frame_remaining > 0 {
                    // First frame arrives one period after arming.
                    Some(self.cycles + self.frame_period.max(1))
                } else {
                    None
                };
            }
            ports::CSWITCH => self.events.push_back(HostEvent::ContextSwitch {
                cycle: self.cycles,
                task: value,
            }),
            ports::FRAME_DONE => self.events.push_back(HostEvent::FrameDone {
                cycle: self.cycles,
                seq: value,
            }),
            ports::DEBUG => self.events.push_back(HostEvent::Debug {
                cycle: self.cycles,
                value,
            }),
            ports::IVEC_TIMER => self.ivec_timer = value as u32,
            ports::IVEC_FRAME => self.ivec_frame = value as u32,
            ports::IVEC_TRAP => self.ivec_trap = value as u32,
            ports::EPC => self.epc = value as u32,
            _ => {}
        }
    }

    /// Raises pending bits for devices whose fire time has passed.
    fn poll_devices(&mut self) {
        if let Some(t) = self.timer_next {
            if self.cycles >= t {
                self.pending[Irq::Timer as usize] = true;
                self.timer_next = Some(t + self.timer_period.max(1));
            }
        }
        if let Some(t) = self.frame_next {
            if self.cycles >= t {
                self.pending[Irq::Frame as usize] = true;
                self.frame_arrivals.push(t);
                self.frame_remaining -= 1;
                self.frame_next = if self.frame_remaining > 0 {
                    Some(t + self.frame_period.max(1))
                } else {
                    None
                };
            }
        }
    }

    fn next_device_cycle(&self) -> Option<u64> {
        [self.timer_next, self.frame_next]
            .into_iter()
            .flatten()
            .min()
    }

    fn take_pending(&mut self) -> Option<Irq> {
        if self.pending[Irq::Timer as usize] {
            self.pending[Irq::Timer as usize] = false;
            Some(Irq::Timer)
        } else if self.pending[Irq::Frame as usize] {
            self.pending[Irq::Frame as usize] = false;
            Some(Irq::Frame)
        } else {
            None
        }
    }

    fn enter_handler(&mut self, irq: Irq) {
        self.epc = self.pc;
        self.cause = -(1 + irq as i32);
        self.interrupts_enabled = false;
        self.pc = match irq {
            Irq::Timer => self.ivec_timer,
            Irq::Frame => self.ivec_frame,
        };
        // Interrupt entry overhead.
        self.cycles += 8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn run_source(src: &str) -> Machine {
        let prog = assemble(src).expect("assembles");
        let mut m = Machine::new(&prog);
        assert_eq!(m.run(10_000_000), ExitReason::Halted);
        m
    }

    #[test]
    fn arithmetic_and_store() {
        let m = run_source(
            r"
                movi r1, 6
                movi r2, 7
                mul  r3, r1, r2
                st   r3, result
                halt
            result: .word 0
            ",
        );
        assert_eq!(m.peek(0), 42);
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let m = run_source(
            r"
                movi r0, 99
                st   r0, out
                halt
            out: .word 7
            ",
        );
        assert_eq!(m.peek(0), 0);
    }

    #[test]
    fn loop_counts_cycles() {
        // 100 iterations of {addi(1) + bne(2)} = 300 cycles + movi(1).
        let m = run_source(
            r"
                movi r1, 100
            loop:
                addi r1, r1, -1
                bne  r1, r0, loop
                halt
            ",
        );
        assert_eq!(m.cycles(), 1 + 100 * 3);
    }

    #[test]
    fn call_and_return() {
        let m = run_source(
            r"
                movi r14, 0x100
                jal  double
                st   r1, out
                halt
            double:
                movi r1, 21
                add  r1, r1, r1
                jr   r15
            out: .word 0
            ",
        );
        assert_eq!(m.peek(0), 42);
    }

    #[test]
    fn mac_accumulates() {
        let m = run_source(
            r"
                movi r1, 0
                movi r2, 3
                movi r3, 4
                mac  r1, r2, r3
                mac  r1, r2, r3
                st   r1, out
                halt
            out: .word 0
            ",
        );
        assert_eq!(m.peek(0), 24);
    }

    #[test]
    fn trap_enters_handler_and_rti_returns() {
        let m = run_source(
            r"
                movi r1, handler
                st   r1, r0, 0xFF08    ; IVEC_TRAP
                trap 5
                st   r2, out
                halt
            handler:
                ld   r2, r0, 0xFF0A    ; CAUSE
                rti
            out: .word 0
            ",
        );
        assert_eq!(m.peek(0), 5);
    }

    #[test]
    fn timer_interrupt_fires_and_preempts_wait() {
        let m = run_source(
            r"
                movi r1, handler
                st   r1, r0, 0xFF06    ; IVEC_TIMER
                movi r1, 1000
                st   r1, r0, 0xFF00    ; TIMER_PERIOD
                sti
            idle:
                wait
                jmp idle
            handler:
                ld   r2, counter
                addi r2, r2, 1
                st   r2, counter
                movi r3, 3
                beq  r2, r3, done
                rti
            done:
                halt
            counter: .word 0
            ",
        );
        assert_eq!(m.peek(0), 3);
        // Three timer periods plus handler overheads.
        assert!(m.cycles() >= 3000, "cycles {}", m.cycles());
        assert!(m.cycles() < 3300, "cycles {}", m.cycles());
    }

    #[test]
    fn frame_device_delivers_count_and_records_arrivals() {
        let m = run_source(
            r"
                movi r1, handler
                st   r1, r0, 0xFF07    ; IVEC_FRAME
                movi r1, 500
                st   r1, r0, 0xFF01    ; FRAME_PERIOD
                movi r1, 4
                st   r1, r0, 0xFF02    ; FRAME_COUNT (arms)
                sti
            idle:
                wait
                jmp idle
            handler:
                ld   r2, n
                addi r2, r2, 1
                st   r2, n
                movi r3, 4
                beq  r2, r3, done
                rti
            done:
                halt
            n: .word 0
            ",
        );
        assert_eq!(m.peek(0), 4);
        assert_eq!(m.frame_arrivals().len(), 4);
        assert_eq!(m.frame_arrivals()[0] + 1500, m.frame_arrivals()[3]);
    }

    #[test]
    fn host_events_reported_in_order() {
        let prog = assemble(
            r"
            movi r1, 7
            st   r1, r0, 0xFF03    ; CSWITCH
            movi r1, 3
            st   r1, r0, 0xFF04    ; FRAME_DONE
            halt
            ",
        )
        .unwrap();
        let mut m = Machine::new(&prog);
        m.run(1000);
        let events = m.drain_events();
        assert!(matches!(
            events[0],
            HostEvent::ContextSwitch { task: 7, .. }
        ));
        assert!(matches!(events[1], HostEvent::FrameDone { seq: 3, .. }));
    }

    #[test]
    fn cycle_limit_exit() {
        let prog = assemble("loop: jmp loop\n").unwrap();
        let mut m = Machine::new(&prog);
        assert_eq!(m.run(100), ExitReason::CycleLimit);
        assert!(!m.is_halted());
    }

    #[test]
    fn wait_with_no_devices_halts() {
        let m = run_source("wait\n");
        assert!(m.is_halted());
    }

    #[test]
    fn poke_and_peek_round_trip() {
        let prog = assemble("halt\n").unwrap();
        let mut m = Machine::new(&prog);
        m.poke(100, -5);
        assert_eq!(m.peek(100), -5);
    }
}
