//! Spans recorded from outside the program.
//!
//! The program's internals are untraced, so every span here wraps a call
//! into a public function: the benchmark's own `Vfs` calls, a timing
//! [`FilterDriver`] around the session's filter fork, and a timing
//! [`ShadowSink`] around the session's shadow store. Spans live in a
//! preallocated `Vec` on the thread that drives the workload and are
//! written out as JSON lines when the run ends. Per-layer totals are kept
//! as the spans close, so they cover every span even after the `Vec` is
//! full.

use std::cell::RefCell;
use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

use cryptodrop_vfs::{
    FileId, FilterDriver, FsOp, FsView, OpContext, OpOutcome, PreImage, ProcessId, ShadowSink,
    VPath, Verdict, Vfs,
};

/// Operation classes the filter spans are split by.
pub const OP_CLASSES: [&str; 7] = [
    "open", "read", "write", "close", "rename", "delete", "other",
];

/// Span layer ids: indices into [`LAYERS`].
pub mod layer {
    /// One actor run or one open → close cycle: the root of a request.
    pub const REQUEST: u8 = 0;
    /// `Vfs::open` issued by the benchmark itself.
    pub const VFS_OPEN: u8 = 1;
    /// `Vfs::read_to_end` issued by the benchmark itself.
    pub const VFS_READ: u8 = 2;
    /// `Vfs::write` issued by the benchmark itself.
    pub const VFS_WRITE: u8 = 3;
    /// `Vfs::close` issued by the benchmark itself.
    pub const VFS_CLOSE: u8 = 4;
    /// First of the seven `filter.pre.<class>` layers.
    pub const FILTER_PRE: u8 = 5;
    /// First of the seven `filter.post.<class>` layers.
    pub const FILTER_POST: u8 = 12;
    /// `ShadowSink::capture`.
    pub const SHADOW_CAPTURE: u8 = 19;
    /// `ShadowSink::{note_created, note_rename, capture_failed}`.
    pub const SHADOW_NOTE: u8 = 20;
    /// `Session::restore`.
    pub const RESTORE: u8 = 21;
    /// `Session::drain` of the pipeline backlog.
    pub const DRAIN: u8 = 22;
}

/// Span names, indexed by layer id.
pub const LAYERS: [&str; 23] = [
    "request",
    "vfs.open",
    "vfs.read",
    "vfs.write",
    "vfs.close",
    "filter.pre.open",
    "filter.pre.read",
    "filter.pre.write",
    "filter.pre.close",
    "filter.pre.rename",
    "filter.pre.delete",
    "filter.pre.other",
    "filter.post.open",
    "filter.post.read",
    "filter.post.write",
    "filter.post.close",
    "filter.post.rename",
    "filter.post.delete",
    "filter.post.other",
    "shadow.capture",
    "shadow.note",
    "recovery.restore",
    "pipeline.drain",
];

/// Parent value of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One closed span. Times are nanoseconds since the tracer was installed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index into [`LAYERS`].
    pub layer: u8,
    /// The actor run or open → close cycle the span belongs to.
    pub request: u32,
    /// Index of the enclosing span in [`Tracer::spans`], or [`NO_PARENT`].
    pub parent: u32,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

/// Totals of one layer over every span the tracer saw.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Spans closed.
    pub calls: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus the time covered by child spans.
    pub self_ns: u64,
}

struct Open {
    /// Position in `spans`, or `NO_PARENT` when the span was not kept.
    index: u32,
    layer: u8,
    start_ns: u64,
    child_ns: u64,
}

/// The span store of one driving thread.
pub struct Tracer {
    epoch: Instant,
    request: u32,
    spans: Vec<Span>,
    capacity: usize,
    dropped: u64,
    stack: Vec<Open>,
    totals: [LayerTotals; LAYERS.len()],
    capture_bytes: u64,
}

impl Tracer {
    fn new(capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            request: 0,
            spans: Vec::with_capacity(capacity),
            capacity,
            dropped: 0,
            stack: Vec::with_capacity(16),
            totals: [LayerTotals::default(); LAYERS.len()],
            capture_bytes: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, layer: u8) {
        let parent = self.stack.last().map_or(NO_PARENT, |o| o.index);
        let parent_kept = self.stack.is_empty() || parent != NO_PARENT;
        // A child is kept only when its parent was, so the stored tree
        // never holds an orphan once the preallocated store fills up.
        let index = if parent_kept && self.spans.len() < self.capacity {
            self.spans.push(Span {
                layer,
                request: self.request,
                parent,
                start_ns: 0,
                end_ns: 0,
            });
            (self.spans.len() - 1) as u32
        } else {
            self.dropped += 1;
            NO_PARENT
        };
        let start_ns = self.now_ns();
        if index != NO_PARENT {
            self.spans[index as usize].start_ns = start_ns;
        }
        self.stack.push(Open {
            index,
            layer,
            start_ns,
            child_ns: 0,
        });
    }

    fn close(&mut self) {
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("every close pairs with an open");
        let duration = end_ns - open.start_ns;
        let t = &mut self.totals[open.layer as usize];
        t.calls += 1;
        t.total_ns += duration;
        t.self_ns += duration.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += duration;
        }
        if open.index != NO_PARENT {
            self.spans[open.index as usize].end_ns = end_ns;
        }
    }

    /// The spans kept, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans not kept because the store was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Per-layer totals over every span, kept or not.
    pub fn totals(&self, layer: u8) -> LayerTotals {
        self.totals[layer as usize]
    }

    /// Summed self time of every layer: the time the spans cover.
    pub fn attributed_ns(&self) -> u64 {
        self.totals.iter().map(|t| t.self_ns).sum()
    }

    /// Pre-image bytes handed to the shadow sink.
    pub fn capture_bytes(&self) -> u64 {
        self.capture_bytes
    }

    /// Writes the kept spans as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                LAYERS[s.layer as usize], s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts recording spans on this thread, keeping at most `capacity`.
pub fn install(capacity: usize) {
    TRACER.with(|t| *t.borrow_mut() = Some(Tracer::new(capacity)));
}

/// Stops recording on this thread and returns what was recorded.
pub fn uninstall() -> Option<Tracer> {
    TRACER.with(|t| t.borrow_mut().take())
}

/// Runs `f` with span recording paused on this thread.
pub fn paused<R>(f: impl FnOnce() -> R) -> R {
    let saved = uninstall();
    let out = f();
    TRACER.with(|t| *t.borrow_mut() = saved);
    out
}

/// Tags the spans that follow with request id `id`.
pub fn set_request(id: u32) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            t.request = id;
        }
    });
}

/// Runs `f` inside a span of `layer` when this thread is tracing, and
/// just runs it otherwise.
#[inline]
pub fn span<R>(layer: u8, f: impl FnOnce() -> R) -> R {
    let traced = TRACER.with(|t| match t.borrow_mut().as_mut() {
        Some(t) => {
            t.open(layer);
            true
        }
        None => false,
    });
    let out = f();
    if traced {
        TRACER.with(|t| {
            if let Some(t) = t.borrow_mut().as_mut() {
                t.close();
            }
        });
    }
    out
}

fn add_capture_bytes(n: usize) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            t.capture_bytes += n as u64;
        }
    });
}

fn op_class(op: &FsOp<'_>) -> u8 {
    match op {
        FsOp::Open { .. } => 0,
        FsOp::Read { .. } => 1,
        FsOp::Write { .. } | FsOp::Truncate { .. } => 2,
        FsOp::Close { .. } => 3,
        FsOp::Rename { .. } => 4,
        FsOp::Delete { .. } => 5,
        FsOp::ReadDir { .. } | FsOp::SetAttr { .. } => 6,
    }
}

/// Times the `pre_op`/`post_op` calls of the filter it wraps.
struct TimedFilter(Box<dyn FilterDriver>);

impl FilterDriver for TimedFilter {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn pre_op(&mut self, ctx: &OpContext<'_>, fs: &FsView<'_>) -> Verdict {
        let inner = &mut self.0;
        span(layer::FILTER_PRE + op_class(&ctx.op), || {
            inner.pre_op(ctx, fs)
        })
    }

    fn post_op(
        &mut self,
        ctx: &OpContext<'_>,
        outcome: &OpOutcome<'_>,
        fs: &FsView<'_>,
    ) -> Verdict {
        let inner = &mut self.0;
        span(layer::FILTER_POST + op_class(&ctx.op), || {
            inner.post_op(ctx, outcome, fs)
        })
    }
}

/// Times the calls into the shadow sink it wraps and forwards them
/// unchanged.
struct TimedSink(Arc<dyn ShadowSink>);

impl ShadowSink for TimedSink {
    fn capture(&self, pre: &PreImage<'_>) {
        add_capture_bytes(pre.data.len());
        span(layer::SHADOW_CAPTURE, || self.0.capture(pre));
    }

    fn note_created(&self, pid: ProcessId, family_root: ProcessId, file: FileId, path: &VPath) {
        span(layer::SHADOW_NOTE, || {
            self.0.note_created(pid, family_root, file, path)
        });
    }

    fn capture_failed(&self, pid: ProcessId, family_root: ProcessId, file: FileId, path: &VPath) {
        span(layer::SHADOW_NOTE, || {
            self.0.capture_failed(pid, family_root, file, path)
        });
    }

    fn note_rename(
        &self,
        pid: ProcessId,
        family_root: ProcessId,
        file: FileId,
        from: &VPath,
        to: &VPath,
    ) {
        span(layer::SHADOW_NOTE, || {
            self.0.note_rename(pid, family_root, file, from, to)
        });
    }
}

/// Wraps every filter registered on `fs`, and its shadow sink, in the
/// timing wrappers above. Call after `Session::attach`.
pub fn instrument(fs: &mut Vfs) {
    for filter in fs.take_filters() {
        fs.register_filter(Box::new(TimedFilter(filter)));
    }
    if let Some(sink) = fs.take_shadow_sink() {
        fs.set_shadow_sink(Arc::new(TimedSink(sink)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_ids_match_names() {
        assert_eq!(LAYERS[layer::FILTER_PRE as usize], "filter.pre.open");
        assert_eq!(
            LAYERS[(layer::FILTER_POST - 1) as usize],
            "filter.pre.other"
        );
        assert_eq!(LAYERS[layer::FILTER_POST as usize], "filter.post.open");
        assert_eq!(LAYERS[layer::SHADOW_CAPTURE as usize], "shadow.capture");
        assert_eq!(LAYERS[layer::DRAIN as usize], "pipeline.drain");
    }

    #[test]
    fn self_time_excludes_children_and_full_store_keeps_no_orphans() {
        install(2);
        set_request(7);
        span(layer::REQUEST, || {
            span(layer::VFS_OPEN, || span(layer::FILTER_PRE, || ()));
        });
        let t = uninstall().expect("installed");
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.spans()[1].parent, 0);
        assert!(t
            .spans()
            .iter()
            .all(|s| s.request == 7 && s.start_ns <= s.end_ns));
        let req = t.totals(layer::REQUEST);
        let open = t.totals(layer::VFS_OPEN);
        assert_eq!(req.total_ns - req.self_ns, open.total_ns);
        assert_eq!(t.totals(layer::FILTER_PRE).calls, 1);
    }
}
