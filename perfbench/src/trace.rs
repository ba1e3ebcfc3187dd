//! In-memory spans around the benchmark's calls into the simulator,
//! written at exit as a Chrome/Perfetto `trace_event` document.

use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    /// Host microseconds since the tracer was created.
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Which simulation run (one build → finish → verify) the span belongs to.
    pub run: u32,
    /// Simulated cycles a `sim.window` span advanced; 0 for other spans.
    pub cycles: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Spans begun but not yet ended, innermost last.
    open: Vec<usize>,
    run: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    /// Start attributing new spans to the next run id.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    pub fn begin(&mut self, name: &'static str) {
        let start_us = self.now_us();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent,
            run: self.run,
            cycles: 0,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Open a `sim.window` span at simulated cycle `now`; the start cycle
    /// is parked in `cycles` until [`Tracer::end_window`].
    pub fn begin_window(&mut self, now: u64) {
        self.begin("sim.window");
        self.spans.last_mut().expect("just pushed").cycles = now;
    }

    pub fn end_window(&mut self, now: u64) {
        let i = *self
            .open
            .last()
            .expect("end_window() without begin_window()");
        self.spans[i].cycles = now - self.spans[i].cycles;
        self.end();
    }

    /// Host milliseconds per `per` simulated cycles, one value per window
    /// span that advanced the clock.
    pub fn window_ms(&self, per: u64) -> impl Iterator<Item = f64> + '_ {
        self.spans
            .iter()
            .filter(|s| s.name == "sim.window" && s.cycles > 0)
            .map(move |s| (s.end_us - s.start_us) / 1e3 * per as f64 / s.cycles as f64)
    }

    /// End the innermost open span; returns its duration in seconds.
    pub fn end(&mut self) -> f64 {
        let i = self.open.pop().expect("end() without a matching begin()");
        let span = &mut self.spans[i];
        span.end_us = self.origin.elapsed().as_secs_f64() * 1e6;
        (span.end_us - span.start_us) / 1e6
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations<'a>(&'a self, name: &'a str) -> impl Iterator<Item = f64> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name)
            .map(|s| (s.end_us - s.start_us) / 1e6)
    }

    /// Encode every span as a complete ("X") event. Runs map to Chrome
    /// threads, so each run gets its own row on the timeline.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"run\":{},\"cycles\":{}}}}}",
                s.name,
                s.run,
                s.start_us,
                s.end_us - s.start_us,
                s.run,
                s.cycles
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_json_records_nesting_runs_and_windows() {
        let mut t = Tracer::new();
        t.next_run();
        t.begin("run");
        t.begin_window(0);
        t.end_window(2048);
        t.end();
        let v = glocks_stats::json::parse(&t.to_chrome_json()).expect("valid JSON");
        let events = v
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .expect("events");
        assert_eq!(events.len(), 2);
        let args = |i: usize| events[i].get("args").expect("args");
        assert_eq!(
            events[1].get("name").and_then(|n| n.as_str()),
            Some("sim.window")
        );
        assert_eq!(args(1).get("parent").and_then(|p| p.as_u64()), Some(0));
        assert_eq!(args(1).get("run").and_then(|p| p.as_u64()), Some(1));
        assert_eq!(args(1).get("cycles").and_then(|p| p.as_u64()), Some(2048));
        assert_eq!(t.window_ms(1024).count(), 1);
    }
}
