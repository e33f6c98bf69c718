//! Allocation attribution of the one instrumented op, with tracing on.
//!
//! This binary installs the counting allocator and traces every op
//! (`TraceMode::Full`). On a freshly spawned thread, the first
//! `OpRecorder::measure` opens the thread's first op span, which registers
//! the thread's span ring, and that registration allocates. `measure`
//! closes its alloc guard before it opens the span, so the op's attribution
//! holds exactly what its body allocated, while the thread's ledger over
//! the call also holds the registration.

use std::cell::Cell;

use cs_heap::{thread_account, HeapAccount};
use cs_profile::{ClockSampler, OpKind, OpRecorder};
use cs_trace::TraceMode;

#[global_allocator]
static ALLOC: cs_heap::CountingAlloc = cs_heap::CountingAlloc;

/// One `measure` call whose body allocates a `Vec` of `len` words. Returns
/// the body's own ledger delta and the thread's delta over the whole call.
fn measured_push(rec: &mut OpRecorder, clocked: bool, len: usize) -> (HeapAccount, HeapAccount) {
    let body_delta = Cell::new(HeapAccount::default());
    let before = thread_account();
    let kept = rec.measure(7, OpKind::Populate, clocked, || {
        let start = thread_account();
        let words: Vec<u64> = Vec::with_capacity(len);
        body_delta.set(thread_account().delta_since(&start));
        (words, len)
    });
    let call_delta = thread_account().delta_since(&before);
    drop(kept);
    (body_delta.get(), call_delta)
}

/// On a fresh thread: the first call registers the span ring inside the
/// call and still attributes only its body; a second call accumulates.
fn first_call_on_a_fresh_thread(clocked: bool) {
    cs_heap::pin_thread();
    let mut rec = OpRecorder::new(ClockSampler::new(1, 0));
    let rings = cs_trace::registered_threads();

    let (body, call) = measured_push(&mut rec, clocked, 64);
    assert_eq!(
        cs_trace::registered_threads(),
        rings + 1,
        "the first op span registered this thread's ring"
    );
    assert_eq!((body.alloc_count, body.alloc_bytes), (1, 512));
    assert!(
        call.alloc_count > body.alloc_count && call.alloc_bytes > body.alloc_bytes,
        "the registration allocated inside the call: {call:?} against {body:?}"
    );
    let first = rec.drain();
    assert_eq!(
        (first.alloc_count(), first.alloc_bytes()),
        (body.alloc_count, body.alloc_bytes),
        "clocked {clocked}: the op attributes exactly its body"
    );

    // The ring exists now: a second call allocates only its body, and its
    // attribution accumulates onto a third.
    let (second, call) = measured_push(&mut rec, clocked, 16);
    assert_eq!(
        call, second,
        "a registered thread's call allocates only its body"
    );
    let (third, _) = measured_push(&mut rec, clocked, 32);
    let both = rec.finish();
    assert_eq!(both.count(OpKind::Populate), 2);
    assert_eq!(
        (both.alloc_count(), both.alloc_bytes()),
        (2, second.alloc_bytes + third.alloc_bytes)
    );
    if !clocked {
        assert_eq!(both.elapsed_nanos(), 0, "an unclocked op reads no clock");
    }
}

#[test]
fn measure_attributes_its_body_alone_while_the_first_span_registers() {
    cs_trace::set_mode(TraceMode::Full);
    for clocked in [true, false] {
        std::thread::spawn(move || first_call_on_a_fresh_thread(clocked))
            .join()
            .expect("the measuring thread's checks hold");
    }
    cs_trace::set_mode(TraceMode::Off);
}
