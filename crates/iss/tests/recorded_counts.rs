//! The implementation model's deterministic counts at the benchmark's
//! `vocoder_iss` size (16 frames). Any change to the ISA's cycle costs,
//! the RTK kernel, the vocoder guest program or the interpreter's
//! interrupt timing moves at least one of them.

use dsp_iss::vocoder_app::{run_impl_model, ImplConfig};

#[test]
fn sixteen_frame_run_matches_the_record() {
    let run = run_impl_model(&ImplConfig {
        frames: 16,
        ..ImplConfig::default()
    });
    assert_eq!(run.instructions, 7_496_334);
    assert_eq!(run.cycles, 19_903_059);
    assert_eq!(run.context_switches, 129);
    assert_eq!(run.mean_transcode_delay().as_nanos(), 11_701_933);
}
