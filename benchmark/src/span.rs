//! In-memory spans recorded by the benchmark around calls into the
//! program; written out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval. `parent` indexes the span that was open when
/// this one began; `op` is the timed operation both belong to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Handle returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// Span recorder of one caller thread. A disabled tracer records nothing
/// and costs one branch per call.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Tracer {
            origin,
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.push(name, op, start_ns)
    }

    pub fn end(&mut self, open: Open) {
        if let Open(Some(id)) = open {
            let end_ns = self.origin.elapsed().as_nanos() as u64;
            self.close(id, end_ns);
        }
    }

    fn push(&mut self, name: &'static str, op: u64, start_ns: u64) -> Open {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        Open(Some(id))
    }

    fn close(&mut self, id: usize, end_ns: u64) {
        self.spans[id].end_ns = end_ns;
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Summed duration in nanoseconds of every span called `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover. One thread's spans nest or follow each other, so
    /// children never overlap.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end_ns - s.start_ns;
            }
        }
        own
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let shift = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + shift);
            s
        }));
    }

    /// The spans as a JSON array, one object per span, with its self time.
    pub fn to_json(&self) -> String {
        let own = self.self_times_ns();
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{parent}}}",
                s.name, s.op, s.start_ns, s.end_ns, own[i]
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer fed explicit times, so self time is checked on known data.
    fn scripted(script: &[(&'static str, u64, u64, usize)]) -> Tracer {
        // (name, start, end, depth): replayed in start order.
        let mut t = Tracer::new(Instant::now(), true);
        let mut open: Vec<(Open, u64, usize)> = Vec::new();
        for &(name, start, end, depth) in script {
            while open.last().is_some_and(|&(_, _, d)| d >= depth) {
                let (o, e, _) = open.pop().unwrap();
                let Open(Some(id)) = o else { unreachable!() };
                t.close(id, e);
            }
            open.push((t.push(name, 0, start), end, depth));
        }
        while let Some((o, e, _)) = open.pop() {
            let Open(Some(id)) = o else { unreachable!() };
            t.close(id, e);
        }
        t
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let t = scripted(&[
            ("head", 0, 100, 0),
            ("prune", 10, 40, 1),
            ("vmm", 15, 25, 2),
            ("fetch", 40, 60, 1), // adjacent to prune
            ("head", 100, 130, 0),
        ]);
        let own = t.self_times_ns();
        assert_eq!(own, vec![50, 20, 10, 20, 30]);
        assert_eq!(t.spans()[2].parent, Some(1));
        assert_eq!(t.spans()[3].parent, Some(0));
        assert_eq!(t.spans()[4].parent, None);
        assert_eq!(t.total_ns("head"), 130.0);
        assert_eq!(t.durations("prune"), vec![30.0]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        let o = t.begin("x", 1);
        t.end(o);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let mut a = scripted(&[("a", 0, 10, 0)]);
        let b = scripted(&[("b", 0, 10, 0), ("c", 2, 4, 1)]);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.self_times_ns(), vec![10, 8, 2]);
        assert!(a
            .to_json()
            .contains(r#""name":"c","op":0,"start_ns":2,"end_ns":4,"self_ns":2,"parent":1"#));
    }
}
