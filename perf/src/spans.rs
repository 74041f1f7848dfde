//! Spans the benchmark records around its own calls into each layer.
//! They are kept in memory and written out once, when the run ends.

use comet_obs::json::JsonObject;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of the span in recording order.
    pub id: u32,
    /// The span whose interval contains this one.
    pub parent: Option<u32>,
    /// The session the call belongs to.
    pub session: u32,
    /// Layer-qualified name, e.g. `ml.fit.knn`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread; spans of other threads merge in
/// through [`Tracer::absorb`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    session: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), session: 0 }
    }
}

impl Tracer {
    /// A tracer for another thread, sharing `origin`'s clock, whose spans
    /// [`Tracer::absorb`] later merges back.
    pub fn starting_at(origin: Instant, session: u32) -> Tracer {
        Tracer { origin, spans: Vec::new(), open: Vec::new(), session }
    }

    /// The instant span times count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// The session spans are attributed to.
    pub fn session(&self) -> u32 {
        self.session
    }

    /// Attribute the spans recorded from now on to `session`.
    pub fn set_session(&mut self, session: u32) {
        self.session = session;
    }

    /// Merge the spans another thread recorded; its root spans become
    /// children of the span open here. Such children overlap each other in
    /// time, so the open span's self time clamps to zero.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.open.last().copied();
        for span in other.spans {
            self.spans.push(Span {
                id: span.id + offset,
                parent: span.parent.map(|p| p + offset).or(parent),
                ..span
            });
        }
    }

    /// Run `f` inside a span named `name`; spans `f` opens become its
    /// children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            session: self.session,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
        out
    }

    /// Summed duration of all spans named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self.spans.iter().filter(|s| s.name == name).map(Span::duration_ns).sum();
        ns as f64 / 1e9
    }

    /// Summed duration of all spans whose name starts with `prefix`.
    pub fn total_prefix_s(&self, prefix: &str) -> f64 {
        let ns: u64 =
            self.spans.iter().filter(|s| s.name.starts_with(prefix)).map(Span::duration_ns).sum();
        ns as f64 / 1e9
    }

    /// Self time per span name, in seconds: each span's duration minus the
    /// time its children cover. Children recorded on the span's own thread
    /// never overlap, so their durations add up.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            *out.entry(span.name).or_insert(0.0) +=
                span.duration_ns().saturating_sub(children) as f64 / 1e9;
        }
        out
    }

    /// One JSON object per span and line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            let mut obj = JsonObject::new();
            obj.field_u64("id", span.id.into());
            match span.parent {
                Some(parent) => obj.field_u64("parent", parent.into()),
                None => obj.field_raw("parent", "null"),
            };
            obj.field_u64("session", span.session.into())
                .field_str("name", span.name)
                .field_u64("start_ns", span.start_ns)
                .field_u64("end_ns", span.end_ns);
            out.push_str(&obj.finish());
            out.push('\n');
        }
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}
