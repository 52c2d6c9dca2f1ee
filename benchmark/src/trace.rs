//! In-memory spans recorded by the benchmark's own code around the calls it
//! makes into the stack (spans inside the program are a later change).
//!
//! A span is `{name, start_ns, end_ns, parent, iter}`; one root span per
//! iteration, children around every call into `upmem_sdk`/`vpim`, and one
//! `replay` root whose children are the staged per-layer calls. A span's
//! self time is its duration minus the part of it its children cover.
//! Spans are kept in memory and written once, at exit, in Chrome
//! trace-event format.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub iter: u32,
    /// Recording thread, numbered in order of first appearance.
    pub tid: u32,
}

/// An open span: close it with [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Open {
    /// The span's id, for use as the parent of spans opened elsewhere
    /// (another thread). `None` while tracing is off.
    pub fn id(self) -> Option<usize> {
        self.0
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    state: Mutex<(Vec<Span>, Vec<std::thread::ThreadId>)>,
}

impl Tracer {
    /// A tracer that records nothing until [`enable`](Self::enable)d.
    pub fn new() -> Self {
        Tracer {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            state: Mutex::new((Vec::new(), Vec::new())),
        }
    }

    /// Turns recording on or off. The flag publishes no other data, so
    /// relaxed ordering is enough.
    pub fn enable(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span. One relaxed load when tracing is off.
    pub fn begin(&self, name: &'static str, parent: Option<usize>, iter: u32) -> Open {
        if !self.enabled.load(Ordering::Relaxed) {
            return Open(None);
        }
        let me = std::thread::current().id();
        let mut st = self
            .state
            .lock()
            .expect("tracer lock poisoned by a panicking recorder");
        let tid = match st.1.iter().position(|t| *t == me) {
            Some(i) => i,
            None => {
                st.1.push(me);
                st.1.len() - 1
            }
        } as u32;
        let id = st.0.len();
        let start_ns = self.now_ns();
        st.0.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            iter,
            tid,
        });
        Open(Some(id))
    }

    pub fn end(&self, open: Open) {
        if let Some(id) = open.0 {
            let end_ns = self.now_ns();
            self.state
                .lock()
                .expect("tracer lock poisoned by a panicking recorder")
                .0[id]
                .end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        iter: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.begin(name, parent, iter);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.state
            .lock()
            .expect("tracer lock poisoned by a panicking recorder")
            .0
            .clone()
    }
}

/// Self time of every span: duration minus the length of the union of its
/// children's intervals, clipped to the span (children recorded on other
/// threads may overlap each other or outlive the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Median self time and call count per span name.
pub fn median_self_by_name(spans: &[Span]) -> BTreeMap<&'static str, (f64, usize)> {
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        by_name.entry(s.name).or_default().push(self_ns as f64);
    }
    by_name
        .into_iter()
        .map(|(k, v)| (k, (crate::stats::median(&v), v.len())))
        .collect()
}

/// Chrome trace-event document (`chrome://tracing`, Perfetto): one complete
/// (`"ph":"X"`) event per span, microsecond timestamps, the parent id and
/// iteration in `args`.
pub fn chrome_trace(spans: &[Span]) -> Json {
    let selfs = self_times(spans);
    let events = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(f64::from(s.tid))),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("iter", Json::Num(f64::from(s.iter))),
                        ("self_ns", Json::Num(selfs[id] as f64)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("displayTimeUnit", Json::str("ns")),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            iter: 0,
            tid: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100; child 10..40 with its own grandchild 20..30; child 50..70.
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 20, 30, Some(1)),
            span("b", 50, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn overlapping_and_escaping_children_are_unioned_and_clipped() {
        // Two worker-thread children overlap (10..60 and 40..80), a third
        // starts inside the parent but ends after it (90..130), and a
        // fourth lies wholly outside (200..210).
        let spans = [
            span("root", 0, 100, None),
            span("w", 10, 60, Some(0)),
            span("w", 40, 80, Some(0)),
            span("w", 90, 130, Some(0)),
            span("w", 200, 210, Some(0)),
        ];
        // Covered: 10..80 (70) + 90..100 (10) = 80.
        assert_eq!(self_times(&spans)[0], 20);
        let by_name = median_self_by_name(&spans);
        assert_eq!(by_name["w"].1, 4);
        assert_eq!(by_name["root"], (20.0, 1));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        let open = t.begin("x", None, 0);
        assert_eq!(open.id(), None);
        t.end(open);
        assert_eq!(t.scope("y", None, 0, || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_links_parents_and_numbers_threads() {
        let t = Tracer::new();
        t.enable(true);
        let root = t.begin("root", None, 3);
        std::thread::scope(|s| {
            s.spawn(|| t.scope("child", root.id(), 3, || ()));
        });
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[0].tid, spans[1].tid), (0, 1));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let doc = chrome_trace(&spans);
        assert_eq!(doc.get("traceEvents").unwrap().as_arr().len(), 2);
    }
}
