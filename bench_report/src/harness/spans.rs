//! In-memory spans the harness records around its calls into each layer
//! (the traced pass only). Spans inside the program under test are a
//! later issue; these come from the benchmark's own code.

use super::json::Json;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.what`, e.g. `runtime.run`.
    pub name: &'static str,
    /// Start, relative to the tracer's origin.
    pub start: Duration,
    /// End, relative to the tracer's origin.
    pub end: Duration,
    /// Index of the enclosing span, `None` at top level.
    pub parent: Option<usize>,
    /// Which traced iteration the span belongs to (0 = set-up).
    pub run_id: u32,
}

impl Span {
    /// The span's length.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Collects spans; nothing is written until the benchmark ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run_id: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run_id: 0,
        }
    }

    /// Starts the next traced iteration; spans recorded from here carry
    /// its id.
    pub fn next_run(&mut self) -> u32 {
        self.run_id += 1;
        self.run_id
    }

    /// Runs `f` inside a span named `name`, nested under whatever span is
    /// open.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let index = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            run_id: self.run_id,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end = self.origin.elapsed();
        result
    }

    /// Splits the innermost open span's time so far into a child named
    /// `name` covering `[its start, its start + len]` — how a duration
    /// the program reports itself (`report.elapsed`) becomes a span
    /// without a clock inside the program. Returns the instant the child
    /// ends, relative to the origin.
    pub fn child_from_start(&mut self, name: &'static str, len: Duration) -> Duration {
        let parent = *self.open.last().expect("a span is open");
        let start = self.spans[parent].start;
        let end = (start + len).min(self.origin.elapsed());
        self.spans.push(Span {
            name,
            start,
            end,
            parent: Some(parent),
            run_id: self.run_id,
        });
        end
    }

    /// A child of the innermost open span from `start` until now.
    pub fn child_until_now(&mut self, name: &'static str, start: Duration) {
        let parent = *self.open.last().expect("a span is open");
        self.spans.push(Span {
            name,
            start,
            end: self.origin.elapsed(),
            parent: Some(parent),
            run_id: self.run_id,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's self time: its duration minus what its direct children
    /// cover.
    pub fn self_time(&self, index: usize) -> Duration {
        let children: Duration = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(Span::duration)
            .sum();
        self.spans[index].duration().saturating_sub(children)
    }

    /// Total duration of the spans named `name` in iteration `run_id`.
    pub fn total(&self, name: &str, run_id: u32) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.run_id == run_id)
            .map(Span::duration)
            .sum()
    }

    /// Total duration of iteration `run_id`'s top-level spans — what must
    /// add up to that iteration's outside wall.
    pub fn top_level_total(&self, run_id: u32) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.run_id == run_id)
            .map(Span::duration)
            .sum()
    }

    /// The spans as a JSON array (written once, at exit).
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    Json::obj([
                        ("name", Json::Str(s.name.to_owned())),
                        ("start_us", Json::Num(s.start.as_secs_f64() * 1e6)),
                        ("end_us", Json::Num(s.end.as_secs_f64() * 1e6)),
                        ("self_us", Json::Num(self.self_time(i).as_secs_f64() * 1e6)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("run_id", Json::Num(f64::from(s.run_id))),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        t.next_run();
        t.span("outer", |t| {
            std::thread::sleep(Duration::from_millis(2));
            let mid = t.child_from_start("outer.first", Duration::from_millis(1));
            t.child_until_now("outer.rest", mid);
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        // The two children tile the parent up to the moment the second
        // was closed, so the parent's self time is what little followed.
        assert!(t.self_time(0) < Duration::from_millis(1));
        assert_eq!(t.top_level_total(1), spans[0].duration());
        assert_eq!(t.top_level_total(0), Duration::ZERO);
    }
}
