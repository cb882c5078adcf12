//! The benchmark's own spans: each wraps one public layer call the
//! benchmark makes. Spans stay in memory and are written out at the end.

use std::sync::Mutex;
use xct_telemetry::{Clock, Json};

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call name, e.g. `geometry.build`.
    pub name: String,
    /// Start, nanoseconds on the tracer's clock.
    pub start_ns: u64,
    /// End, nanoseconds on the tracer's clock.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one traced run.
    pub run_id: u64,
}

impl Span {
    /// Wall duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans from one thread. Interior mutability lets a
/// `&self` callee (a `LinearOperator`) record into it.
pub struct Tracer<'c> {
    clock: &'c dyn Clock,
    run_id: u64,
    state: Mutex<State>,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle to an open span; pass it back to [`Tracer::end`].
#[derive(Debug)]
#[must_use = "an open span must be ended"]
pub struct Open(usize);

impl<'c> Tracer<'c> {
    /// An empty trace for run `run_id`.
    pub fn new(clock: &'c dyn Clock, run_id: u64) -> Self {
        Tracer {
            clock,
            run_id,
            state: Mutex::new(State::default()),
        }
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        // A poisoned lock only means a panic elsewhere already aborted the
        // traced call; the spans recorded so far are still well formed.
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&self, name: &str) -> Open {
        let start_ns = self.clock.now_ns();
        let mut st = self.state();
        let parent = st.open.last().copied();
        let id = st.spans.len();
        st.spans.push(Span {
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns,
            parent,
            run_id: self.run_id,
        });
        st.open.push(id);
        Open(id)
    }

    /// Closes `span` (and any span left open inside it); returns its
    /// duration in seconds.
    pub fn end(&self, span: Open) -> f64 {
        let now = self.clock.now_ns();
        let mut st = self.state();
        while let Some(top) = st.open.pop() {
            st.spans[top].end_ns = now;
            if top == span.0 {
                break;
            }
        }
        st.spans[span.0].duration_ns() as f64 * 1e-9
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let span = self.begin(name);
        let out = f();
        self.end(span);
        out
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.state().spans.clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its direct children cover (children's intervals are merged, so
/// overlapping children are not double-counted).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
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
            let mut reach = 0u64;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Sum of self time per span name, in order of first appearance.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = Vec::new();
    for (s, t) in spans.iter().zip(self_times_ns(spans)) {
        match out.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, acc)) => *acc += t,
            None => out.push((s.name.clone(), t)),
        }
    }
    out
}

/// Self time per span name over the spans strictly inside span `root`,
/// as shares of `root`'s duration.
pub fn subtree_shares(spans: &[Span], root: usize) -> Vec<(String, f64)> {
    let inside = |mut i: usize| {
        while let Some(p) = spans[i].parent {
            if p == root {
                return true;
            }
            i = p;
        }
        false
    };
    let total = spans.get(root).map_or(0, Span::duration_ns).max(1) as f64;
    let mut out: Vec<(String, f64)> = Vec::new();
    for (i, t) in self_times_ns(spans).into_iter().enumerate() {
        if !inside(i) {
            continue;
        }
        let share = t as f64 / total;
        match out.iter_mut().find(|(n, _)| *n == spans[i].name) {
            Some((_, acc)) => *acc += share,
            None => out.push((spans[i].name.clone(), share)),
        }
    }
    out
}

/// The spans as JSON: one object per span with its self time.
pub fn spans_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .zip(self_times_ns(spans))
            .enumerate()
            .map(|(i, (s, self_ns))| {
                Json::object(vec![
                    ("id", Json::from(i)),
                    ("name", Json::from(s.name.as_str())),
                    ("start_ns", Json::from(s.start_ns)),
                    ("end_ns", Json::from(s.end_ns)),
                    ("parent", s.parent.map_or(Json::Null, Json::from)),
                    ("run_id", Json::from(s.run_id)),
                    ("self_ns", Json::from(self_ns)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use xct_telemetry::ManualClock;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_owned(),
            start_ns,
            end_ns,
            parent,
            run_id: 7,
        }
    }

    #[test]
    fn self_time_on_a_hand_built_tree() {
        // root [0,100) ── a [10,40) ── a1 [15,25)
        //              └─ b [50,90) ── b1 [50,60), b2 [55,70) (overlap)
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
            span("b1", 50, 60, Some(3)),
            span("b2", 55, 70, Some(3)),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs, vec![30, 20, 10, 20, 10, 15]);
        // With non-overlapping siblings the self times sum to the root.
        let disjoint = &spans[..4];
        assert_eq!(self_times_ns(disjoint).iter().sum::<u64>(), 100);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name[0], ("root".to_owned(), 30));
        // Inside `b` (duration 40): b1 self 10, b2 self 15.
        let shares = subtree_shares(&spans, 3);
        assert_eq!(
            shares,
            vec![("b1".to_owned(), 0.25), ("b2".to_owned(), 0.375)]
        );
    }

    #[test]
    fn tracer_nests_spans_and_self_times_sum_to_the_root() {
        let clock = ManualClock::new();
        let tracer = Tracer::new(&clock, 3);
        let root = tracer.begin("root");
        clock.advance(5);
        tracer.time("child", || clock.advance(10));
        let outer = tracer.begin("outer");
        clock.advance(2);
        let _inner = tracer.begin("inner");
        clock.advance(4);
        // Ending `outer` closes the inner span left open inside it.
        tracer.end(outer);
        clock.advance(1);
        tracer.end(root);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[3].end_ns, spans[2].end_ns);
        assert!(spans.iter().all(|s| s.run_id == 3));
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs, vec![6, 10, 2, 4]);
        assert_eq!(selfs.iter().sum::<u64>(), spans[0].duration_ns());
    }
}
