//! Structured tracing spans: RAII guards, nested scopes, monotonic
//! timing, per-span key/value fields.
//!
//! [`span`] returns a [`Span`] guard. While observability is off
//! ([`crate::enabled`] is `false` at creation) the guard is inert — no
//! allocation, no clock read, no lock. While on, the guard notes its
//! parent (the innermost open span *of the same thread*), stamps a
//! monotonic start offset, and on drop records a [`SpanRecord`] into the
//! global collector. Worker threads (e.g. `lcg-parallel` fan-outs) start
//! their own root spans; records carry a per-thread ordinal so exporters
//! can still group them.
//!
//! Timing uses one process-wide [`Instant`] epoch, so every offset is
//! monotonic and mutually comparable. Span ids are allocated from a global
//! counter and are monotone in start order, which is what lets
//! [`forest`] rebuild the tree without timestamps ever colliding.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// A recorded key/value annotation on a span.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer (counts, sizes).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (rates, scores — rendered `null` if non-finite).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Free-form text (labels, modes).
    Str(String),
}

/// One finished span, as stored in the collector.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// `/`-separated scope name, e.g. `"equilibria/check"`.
    pub name: &'static str,
    /// Globally unique, monotone in start order.
    pub id: u64,
    /// Innermost open span on the same thread at creation, if any.
    pub parent: Option<u64>,
    /// Per-process thread ordinal (0 = first thread that ever opened a
    /// span, usually the main thread).
    pub thread: u64,
    /// Nanoseconds from the process epoch to span creation.
    pub start_ns: u64,
    /// Wall time between creation and drop, in nanoseconds.
    pub duration_ns: u64,
    /// Key/value annotations, in insertion order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

/// The live half of an enabled [`Span`] guard.
#[derive(Debug)]
struct ActiveSpan {
    name: &'static str,
    id: u64,
    parent: Option<u64>,
    thread: u64,
    start_ns: u64,
    started: Instant,
    fields: Vec<(&'static str, FieldValue)>,
}

/// RAII tracing guard; see the module docs. Dropping records the span.
#[derive(Debug)]
pub struct Span(Option<ActiveSpan>);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn collector() -> &'static Mutex<Vec<SpanRecord>> {
    static COLLECTOR: OnceLock<Mutex<Vec<SpanRecord>>> = OnceLock::new();
    COLLECTOR.get_or_init(|| Mutex::new(Vec::new()))
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Innermost-last stack of open span ids on this thread.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD_ORDINAL: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Opens a span named `name`. Inert (and free) while observability is
/// off; RAII-recorded into the global collector while on.
pub fn span(name: &'static str) -> Span {
    if !crate::enabled() {
        return Span(None);
    }
    let started = Instant::now();
    let start_ns = started.duration_since(epoch()).as_nanos() as u64;
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied();
        open.push(id);
        parent
    });
    let thread = THREAD_ORDINAL.with(|t| *t);
    Span(Some(ActiveSpan {
        name,
        id,
        parent,
        thread,
        start_ns,
        started,
        fields: Vec::new(),
    }))
}

impl Span {
    /// `true` when this guard is live (observability was on at creation).
    pub fn is_recording(&self) -> bool {
        self.0.is_some()
    }

    fn push_field(&mut self, key: &'static str, value: FieldValue) {
        if let Some(active) = &mut self.0 {
            active.fields.push((key, value));
        }
    }

    /// Annotates the span with an unsigned integer.
    pub fn field_u64(&mut self, key: &'static str, value: u64) {
        self.push_field(key, FieldValue::U64(value));
    }

    /// Annotates the span with a signed integer.
    pub fn field_i64(&mut self, key: &'static str, value: i64) {
        self.push_field(key, FieldValue::I64(value));
    }

    /// Annotates the span with a float.
    pub fn field_f64(&mut self, key: &'static str, value: f64) {
        self.push_field(key, FieldValue::F64(value));
    }

    /// Annotates the span with a boolean.
    pub fn field_bool(&mut self, key: &'static str, value: bool) {
        self.push_field(key, FieldValue::Bool(value));
    }

    /// Annotates the span with a string (only allocates when recording).
    pub fn field_str(&mut self, key: &'static str, value: &str) {
        if self.0.is_some() {
            self.push_field(key, FieldValue::Str(value.to_string()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.0.take() else { return };
        let duration_ns = active.started.elapsed().as_nanos() as u64;
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            // This guard's id is the innermost entry unless guards were
            // dropped out of order (possible with mem::forget games);
            // remove by value so the stack never corrupts.
            if let Some(pos) = open.iter().rposition(|&id| id == active.id) {
                open.remove(pos);
            }
        });
        let record = SpanRecord {
            name: active.name,
            id: active.id,
            parent: active.parent,
            thread: active.thread,
            start_ns: active.start_ns,
            duration_ns,
            fields: active.fields,
        };
        collector().lock().expect("span collector").push(record);
    }
}

/// Removes and returns every finished span recorded so far, in completion
/// order.
pub fn drain() -> Vec<SpanRecord> {
    std::mem::take(&mut *collector().lock().expect("span collector"))
}

/// One node of the reconstructed span tree.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// The finished span.
    pub record: SpanRecord,
    /// Child spans, in start order.
    pub children: Vec<SpanNode>,
}

/// Rebuilds the span forest from drained records: children attach to
/// their recorded parent (open spans at drain time — still unfinished —
/// leave their children as roots), siblings sort by start order.
pub fn forest(records: Vec<SpanRecord>) -> Vec<SpanNode> {
    let mut nodes: Vec<Option<SpanNode>> = records
        .into_iter()
        .map(|record| {
            Some(SpanNode {
                record,
                children: Vec::new(),
            })
        })
        .collect();
    // Sort positions by id so children are visited after... ids are
    // monotone in *start* order, but completion order (the vec order) has
    // children first. Attach bottom-up: repeatedly move nodes whose parent
    // is present.
    let index_of: std::collections::HashMap<u64, usize> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_ref().expect("fresh node").record.id, i))
        .collect();
    // Children complete before parents, so a forward scan moves each
    // child into a parent that is still `Some`.
    for i in 0..nodes.len() {
        let parent_idx = nodes[i]
            .as_ref()
            .and_then(|n| n.record.parent)
            .and_then(|p| index_of.get(&p).copied());
        if let Some(pi) = parent_idx {
            if pi != i {
                let child = nodes[i].take().expect("unmoved child");
                if let Some(parent) = nodes[pi].as_mut() {
                    parent.children.push(child);
                } else {
                    nodes[i] = Some(child); // parent already moved: keep as root
                }
            }
        }
    }
    let mut roots: Vec<SpanNode> = nodes.into_iter().flatten().collect();
    sort_by_start(&mut roots);
    roots
}

fn sort_by_start(nodes: &mut [SpanNode]) {
    nodes.sort_by_key(|n| n.record.id);
    for n in nodes.iter_mut() {
        sort_by_start(&mut n.children);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_are_inert() {
        let _lock = crate::test_lock();
        crate::set_enabled(false);
        drain();
        let mut s = span("test/inert");
        assert!(!s.is_recording());
        s.field_u64("k", 1);
        drop(s);
        assert!(drain().is_empty());
    }

    #[test]
    fn nested_spans_rebuild_as_a_tree() {
        let _lock = crate::test_lock();
        crate::set_enabled(true);
        drain();
        {
            let mut outer = span("test/outer");
            outer.field_u64("n", 2);
            {
                let _a = span("test/a");
            }
            {
                let mut b = span("test/b");
                b.field_str("tag", "second");
                let _c = span("test/c");
            }
        }
        let records = drain();
        crate::set_enabled(false);
        assert_eq!(records.len(), 4);
        let roots = forest(records);
        assert_eq!(roots.len(), 1);
        let outer = &roots[0];
        assert_eq!(outer.record.name, "test/outer");
        assert_eq!(outer.record.fields, vec![("n", FieldValue::U64(2))]);
        let names: Vec<_> = outer.children.iter().map(|c| c.record.name).collect();
        assert_eq!(names, vec!["test/a", "test/b"]);
        assert_eq!(outer.children[1].children[0].record.name, "test/c");
        for child in &outer.children {
            assert!(child.record.start_ns >= outer.record.start_ns);
            assert!(child.record.duration_ns <= outer.record.duration_ns);
        }
    }

    #[test]
    fn cross_thread_spans_become_separate_roots() {
        let _lock = crate::test_lock();
        crate::set_enabled(true);
        drain();
        {
            let _outer = span("test/main");
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _w = span("test/worker");
                });
            });
        }
        let roots = forest(drain());
        crate::set_enabled(false);
        assert_eq!(roots.len(), 2, "worker span is its own root");
        let threads: std::collections::HashSet<u64> =
            roots.iter().map(|r| r.record.thread).collect();
        assert_eq!(threads.len(), 2);
    }
}
