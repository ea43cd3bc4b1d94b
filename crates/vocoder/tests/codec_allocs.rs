//! Allocation gate for the LPC codec.
//!
//! Encoding and decoding a frame allocates only what the public types
//! return: the two vectors of the [`vocoder::EncodedFrame`] and the
//! decoded [`Frame`]'s samples. Every intermediate (autocorrelation,
//! predictor, residual, filter state) lives on the stack or in the codec.
//!
//! A counting global allocator measures the gate on the test's own
//! thread, so tests running in parallel do not disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sldl_sim::SimTime;
use vocoder::{Decoder, Encoder, Frame, SpeechSource};

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
