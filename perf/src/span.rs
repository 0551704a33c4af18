//! Spans recorded by the benchmark around its calls into each layer's
//! public API: name, start, end, the span that caused it, and the op id
//! the spans of one operation share. Kept in a preallocated buffer and
//! written out when the run ends; spans *inside* the library are a later
//! change.

use std::time::Instant;

/// Index of a span's parent, or none.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Static name of the call or phase wrapped.
    pub name: &'static str,
    /// Start, ns since epoch.
    pub start: u64,
    /// End, ns since epoch.
    pub end: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Operation id shared by all spans of one operation.
    pub op: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Per-rank span recorder. Disabled tracers cost one branch per call, so
/// the untraced run shares the phase code with the traced one. An enabled
/// tracer records only while *armed*: the loop drivers arm it for a
/// sample of the ops (tracing every 100 ns op would measure the tracer).
pub struct Tracer {
    enabled: bool,
    armed: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    cap: usize,
    /// Spans not recorded because the buffer was full.
    pub dropped: u64,
}

impl Tracer {
    /// A tracer holding at most `cap` spans (allocated now, never grown).
    pub fn new(enabled: bool, cap: usize) -> Tracer {
        let cap = if enabled { cap } else { 0 };
        Tracer {
            enabled,
            armed: false,
            epoch: Instant::now(),
            spans: Vec::with_capacity(cap),
            open: Vec::with_capacity(8),
            cap,
            dropped: 0,
        }
    }

    /// Record spans from now on (`on`) or skip them; no-op when disabled.
    #[inline]
    pub fn arm(&mut self, on: bool) {
        self.armed = on && self.enabled;
    }

    /// Run `f` inside a span named `name` belonging to operation `op`;
    /// the span's parent is whichever span is open on this tracer.
    #[inline]
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        if !self.armed {
            return f();
        }
        let id = self.begin(name, op);
        let out = f();
        self.end(id);
        out
    }

    /// Open a span by hand (for bodies that need `&mut` access to the
    /// tracer's owner); pair with [`Tracer::end`].
    #[inline]
    pub fn begin(&mut self, name: &'static str, op: u64) -> Option<u32> {
        if !self.armed {
            return None;
        }
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return None;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let id = self.spans.len() as u32;
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, start: now, end: now, parent, op });
        self.open.push(id);
        Some(id)
    }

    /// Close a span opened with [`Tracer::begin`].
    #[inline]
    pub fn end(&mut self, id: Option<u32>) {
        if let Some(id) = id {
            self.spans[id as usize].end = self.epoch.elapsed().as_nanos() as u64;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans must close innermost first");
        }
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Take the recorded spans out.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.dur());
        }
    }
    own
}

/// Durations (ns) of every span called `name` whose parent is called
/// `parent` (`None`: top-level spans).
pub fn durations(spans: &[Span], parent: Option<&str>, name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .filter(|s| match parent {
            None => s.parent == NO_PARENT,
            Some(p) => s.parent != NO_PARENT && spans[s.parent as usize].name == p,
        })
        .map(|s| s.dur() as f64)
        .collect()
}
