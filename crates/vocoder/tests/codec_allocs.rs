//! Allocation gates for the LPC codec and the models that run it.
//!
//! Encoding and decoding a frame allocates only what the public types
//! return: the two vectors of the [`vocoder::EncodedFrame`] and the
//! decoded [`Frame`]'s samples. Every intermediate (autocorrelation,
//! predictor, residual, filter state) lives on the stack or in the codec.
//! A whole model run allocates an exact, pinned number of times: the
//! source frame travels to the decoder inside the encoded payload instead
//! of being copied for the SNR.
//!
//! A counting global allocator measures the gate on the test's own
//! thread, so tests running in parallel do not disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rtos_model::{SchedAlg, TimeSlice};
use sldl_sim::SimTime;
use vocoder::{
    simulate_architecture, simulate_split, simulate_unscheduled, Decoder, Encoder, Frame,
    SpeechSource, SplitConfig, VocoderConfig,
};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the allocations of the calling thread.
struct Counting;

fn count() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a const-
// initialized thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `reflection_q`, `residual_q` and the decoded samples.
const ALLOCS_PER_FRAME: u64 = 3;

#[test]
fn transcoding_allocates_only_what_it_returns() {
    const FRAMES: u64 = 50;
    let mut src = SpeechSource::new(0xC0DEC);
    let mut frames: Vec<Frame> = (0..FRAMES).map(|_| src.next_frame(SimTime::ZERO)).collect();
    // A silence frame takes Levinson–Durbin's zero-energy branch.
    frames.push(Frame {
        seq: FRAMES,
        arrived: SimTime::ZERO,
        samples: vec![0.0; vocoder::FRAME_SAMPLES],
    });
    let mut outputs = Vec::with_capacity(frames.len());

    let before = ALLOCS.with(Cell::get);
    let (mut enc, mut dec) = (Encoder::new(), Decoder::new());
    for frame in &frames {
        let coded = enc.encode(frame);
        outputs.push(dec.decode(&coded));
    }
    let allocs = ALLOCS.with(Cell::get) - before;

    let n = frames.len() as u64;
    assert_eq!(outputs.len() as u64, n);
    assert_eq!(
        allocs,
        ALLOCS_PER_FRAME * n,
        "{n} frames made {allocs} allocations, {:.1} per frame; \
         transcoding should allocate only the {ALLOCS_PER_FRAME} vectors it returns",
        allocs as f64 / n as f64
    );
}

/// Allocations `run` makes on this thread. The simulation executor is
/// single-threaded, so a whole model run is counted.
fn allocs_of(run: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    run();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn model_runs_allocate_a_pinned_count() {
    let cfg = VocoderConfig {
        frames: 163,
        ..VocoderConfig::default()
    };
    let (alg, slice) = (SchedAlg::PriorityPreemptive, TimeSlice::WholeDelay);
    let arch = allocs_of(|| {
        simulate_architecture(&cfg, alg, slice).unwrap();
    });
    let unscheduled = allocs_of(|| {
        simulate_unscheduled(&cfg).unwrap();
    });
    let split = allocs_of(|| {
        simulate_split(&cfg, &SplitConfig::default(), alg, slice).unwrap();
    });
    assert_eq!((arch, unscheduled, split), (899, 856, 989));
}
