//! Lock-step equivalence of the three ways to drive a [`Machine`]: one
//! `run` to a cycle limit, a bare `step` loop to the same limit, and `run`
//! in many small slices. `run` polls the devices only at device events,
//! `step` polls before every instruction, and the slices re-enter `run`
//! at arbitrary cycles; all three must leave identical whole-machine
//! state (registers, memory, devices, pending IRQs, host events, counts).
//!
//! Inputs: the RTK vocoder image, the same image with the kernel tick on
//! (both interrupt sources live), and seeded random programs that mix
//! loops, `cli`/`sti` windows over a pending IRQ, `trap`/`rti`, `wait`,
//! MMIO stores re-arming the devices mid-run, and `CYCLES` reads. A
//! failure prints the seed that reproduces it.

use dsp_iss::rtk::{kernel_asm, KernelConfig};
use dsp_iss::vocoder_app::{app_asm, kernel_config, ImplConfig};
use dsp_iss::{assemble, ExitReason, Machine, Program};
use sldl_sim::SmallRng;

/// Cycles per slice of the sliced run: prime, so slice ends drift
/// across the device periods instead of lining up with them.
const SLICE: u64 = 997;

/// Drives `prog` to the absolute cycle `limit` three ways, asserts the
/// three final states are identical, and returns the `run` machine.
fn lockstep(prog: &Program, limit: u64, what: &str) -> Machine {
    let mut whole = Machine::new(prog);
    let exit = whole.run(limit);
    assert_eq!(exit == ExitReason::Halted, whole.is_halted(), "{what}");

    let mut stepped = Machine::new(prog);
    while !stepped.is_halted() && stepped.cycles() < limit {
        stepped.step();
    }

    let mut sliced = Machine::new(prog);
    while !sliced.is_halted() && sliced.cycles() < limit {
        sliced.run((sliced.cycles() + SLICE).min(limit));
    }

    for (name, other) in [("step loop", &stepped), ("sliced run", &sliced)] {
        // `assert_eq!` would print 64 K data words; name the summary.
        assert!(
            whole == *other,
            "{what}: {name} diverges from run: cycles {} vs {}, instructions {} vs {}, halted {} vs {}",
            other.cycles(),
            whole.cycles(),
            other.instructions,
            whole.instructions,
            other.is_halted(),
            whole.is_halted(),
        );
    }
    whole
}

fn vocoder_image(frames: u32, tick: Option<u64>) -> (Program, u64) {
    let cfg = ImplConfig {
        frames,
        ..ImplConfig::default()
    };
    let kernel = kernel_asm(&KernelConfig {
        tick_period_cycles: tick,
        ..kernel_config(&cfg)
    });
    let prog = assemble(&format!("{kernel}\n{}", app_asm(&cfg))).expect("image assembles");
    // The same budget `run_impl_model` gives: frames + 25 % slack.
    let limit = (u64::from(frames) + 2) * cfg.frame_period_cycles * 5 / 4;
    (prog, limit)
}

#[test]
fn rtk_vocoder_image_runs_identically_three_ways() {
    let (prog, limit) = vocoder_image(3, None);
    let m = lockstep(&prog, limit, "vocoder, 3 frames");
    assert!(m.is_halted(), "the vocoder image halts within its budget");
    assert_eq!(m.frame_arrivals().len(), 3);
}

#[test]
fn rtk_image_with_the_tick_on_runs_identically_three_ways() {
    let (prog, limit) = vocoder_image(3, Some(2_000));
    let m = lockstep(&prog, limit, "vocoder, 3 frames, 2000-cycle tick");
    assert!(m.is_halted(), "the ticking image halts within its budget");
    assert_eq!(m.frame_arrivals().len(), 3);
}

/// Source of the interrupt and trap handlers every random program shares.
/// They use only `r12`/`r13` (plus the `r11` checksum), count what they
/// handle in memory, and step EPC past a `wait` the program flagged so
/// it carries on after the interrupt that ended the wait.
const HANDLERS: &str = r"
isr_timer:
    ld   r12, ticks
    addi r12, r12, 1
    st   r12, ticks
    ld   r13, r0, 0xFF0B       ; CYCLES
    add  r11, r11, r13
    jmp  isr_exit
isr_frame:
    ld   r12, frames
    addi r12, r12, 1
    st   r12, frames
    jmp  isr_exit
isr_trap:
    ld   r12, r0, 0xFF0A       ; CAUSE
    ld   r13, traps
    add  r13, r13, r12
    st   r13, traps
isr_exit:
    ld   r12, waiting
    beq  r12, r0, isr_ret
    st   r0, waiting
    ld   r12, r0, 0xFF09       ; EPC
    addi r12, r12, 1
    st   r12, r0, 0xFF09       ; EPC
isr_ret:
    rti
ticks:   .word 0
frames:  .word 0
traps:   .word 0
waiting: .word 0
mem:     .space 8
";

const ALU: [&str; 6] = ["add", "sub", "mul", "xor", "and", "shr"];

/// A few random ALU and memory operations on `r1..r9`.
fn alu_ops(rng: &mut SmallRng, out: &mut String) {
    for _ in 0..1 + rng.gen_range_u64(4) {
        let (rd, rs, rt) = (
            1 + rng.gen_range_u64(9),
            1 + rng.gen_range_u64(9),
            1 + rng.gen_range_u64(9),
        );
        let line = match rng.gen_range_u64(4) {
            0 => format!("addi r{rd}, r{rs}, {}", rng.gen_range_u64(200)),
            1 => format!("st   r{rs}, r0, mem+{}", rng.gen_range_u64(8)),
            2 => format!("ld   r{rd}, r0, mem+{}", rng.gen_range_u64(8)),
            _ => format!(
                "{} r{rd}, r{rs}, r{rt}",
                ALU[rng.gen_range_usize(ALU.len())]
            ),
        };
        out.push_str(&format!("    {line}\n"));
    }
}

/// A random program: arm the vectors and both devices, enable
/// interrupts, then run 10–40 random blocks and halt.
fn random_program(rng: &mut SmallRng) -> String {
    let mut s = format!(
        "    movi r1, isr_timer
    st   r1, r0, 0xFF06        ; IVEC_TIMER
    movi r1, isr_frame
    st   r1, r0, 0xFF07        ; IVEC_FRAME
    movi r1, isr_trap
    st   r1, r0, 0xFF08        ; IVEC_TRAP
    movi r1, {}
    st   r1, r0, 0xFF01        ; FRAME_PERIOD
    movi r1, {}
    st   r1, r0, 0xFF02        ; FRAME_COUNT (arms)
    movi r1, {}
    st   r1, r0, 0xFF00        ; TIMER_PERIOD
    sti
",
        100 + rng.gen_range_u64(5_000),
        rng.gen_range_u64(6),
        40 + rng.gen_range_u64(3_000),
    );
    for i in 0..10 + rng.gen_range_u64(31) {
        match rng.gen_range_u64(8) {
            0 | 1 => {
                s.push_str(&format!("    movi r10, {}\nloop{i}:\n", 1 + rng.gen_range_u64(300)));
                alu_ops(rng, &mut s);
                s.push_str(&format!("    addi r10, r10, -1\n    bne  r10, r0, loop{i}\n"));
            }
            // Masked long enough for an IRQ to go pending (often several
            // timer periods: the timer then catches up one period per poll).
            2 => s.push_str(&format!(
                "    cli\n    movi r10, {}\nmasked{i}:\n    addi r10, r10, -1\n    bne  r10, r0, masked{i}\n    sti\n",
                1 + rng.gen_range_u64(1_000)
            )),
            3 => s.push_str(&format!("    trap {}\n", 1 + rng.gen_range_u64(15))),
            4 => s.push_str("    movi r1, 1\n    st   r1, waiting\n    wait\n"),
            5 => {
                let (port, value) = match rng.gen_range_u64(3) {
                    // Period 0 disables the timer.
                    0 => ("0xFF00", rng.gen_range_u64(4) * (40 + rng.gen_range_u64(2_000))),
                    1 => ("0xFF01", 100 + rng.gen_range_u64(5_000)),
                    _ => ("0xFF02", rng.gen_range_u64(6)),
                };
                s.push_str(&format!("    movi r1, {value}\n    st   r1, r0, {port}\n"));
            }
            6 => {
                let r = 1 + rng.gen_range_u64(9);
                s.push_str(&format!(
                    "    ld   r{r}, r0, 0xFF0B       ; CYCLES\n    st   r{r}, r0, mem+{}\n    st   r{r}, r0, 0xFF05       ; DEBUG\n",
                    rng.gen_range_u64(8)
                ));
            }
            _ => alu_ops(rng, &mut s),
        }
    }
    s.push_str("    halt\n");
    s.push_str(HANDLERS);
    s
}

#[test]
fn random_programs_run_identically_three_ways() {
    let (mut halted, mut limited) = (0, 0);
    let mut handled = [0i32; 3];
    for seed in 0..96u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let src = random_program(&mut rng);
        let prog = assemble(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
        let limit = 5_000 + rng.gen_range_u64(150_000);
        let m = lockstep(&prog, limit, &format!("random program, seed {seed}"));
        if m.is_halted() {
            halted += 1;
        } else {
            limited += 1;
        }
        for (n, sym) in handled.iter_mut().zip(["ticks", "frames", "traps"]) {
            *n += m.peek(u32::try_from(prog.symbol(sym)).expect("data address"));
        }
    }
    // The inputs reach both exits and every handler.
    assert!(
        halted > 0 && limited > 0,
        "halted {halted}, limited {limited}"
    );
    assert!(
        handled.iter().all(|&n| n > 0),
        "ticks/frames/traps {handled:?}"
    );
}
