use armci_perf::span::{durations, self_times, Span, Tracer, NO_PARENT};

fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
    Span { name, start, end, parent, op: 0 }
}

#[test]
fn self_time_is_duration_minus_children() {
    let spans = [
        span("op", 0, 100, NO_PARENT),
        span("put", 10, 30, 0),
        span("fence", 30, 90, 0),
        span("reply", 40, 80, 2),
        span("op", 200, 250, NO_PARENT),
    ];
    // op: 100 - (20 + 60); fence: 60 - 40; leaves keep their duration.
    assert_eq!(self_times(&spans), vec![20, 20, 20, 40, 50]);
}

#[test]
fn durations_filter_by_parent_name() {
    let spans = [
        span("ga_sync", 0, 50, NO_PARENT),
        span("sync", 5, 45, 0),
        span("ga_sync_baseline", 60, 160, NO_PARENT),
        span("sync", 70, 150, 2),
    ];
    assert_eq!(durations(&spans, Some("ga_sync"), "sync"), vec![40.0]);
    assert_eq!(durations(&spans, Some("ga_sync_baseline"), "sync"), vec![80.0]);
    assert_eq!(durations(&spans, None, "ga_sync"), vec![50.0]);
}

#[test]
fn tracer_nests_and_samples() {
    let mut t = Tracer::new(true, 16);
    // Unarmed: nothing is recorded, the closure still runs.
    assert_eq!(t.span("skipped", 0, || 7), 7);
    assert!(t.spans().is_empty());
    t.arm(true);
    let op = t.begin("op", 3);
    t.span("child", 3, || ());
    t.arm(false); // disarming mid-op must not orphan the open span
    t.span("late_child", 3, || ());
    t.end(op);
    let s = t.spans();
    assert_eq!(s.len(), 2);
    assert_eq!((s[0].name, s[0].parent, s[0].op), ("op", NO_PARENT, 3));
    assert_eq!((s[1].name, s[1].parent), ("child", 0));
    assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
}

#[test]
fn disabled_tracer_never_arms_and_full_buffer_drops() {
    let mut off = Tracer::new(false, 16);
    off.arm(true);
    off.span("x", 0, || ());
    assert!(off.spans().is_empty());
    let mut tiny = Tracer::new(true, 1);
    tiny.arm(true);
    tiny.span("a", 0, || ());
    tiny.span("b", 1, || ());
    assert_eq!((tiny.spans().len(), tiny.dropped), (1, 1));
}
