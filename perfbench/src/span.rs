//! Benchmark-side spans: one per call into a layer, parented to the step
//! (a drift batch or a KGE triple) that issued it. Spans live in memory
//! and are written out as Chrome trace-event JSON when the run ends.

use std::fmt::Write as _;

/// One timed interval. Times are nanoseconds since the run's anchor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `worker.pull_many`.
    pub name: &'static str,
    /// The step every span of one step shares (worker index in the top
    /// 16 bits, the worker's step counter below).
    pub step: u64,
    /// This span's id, unique within its step (the step span is 0).
    pub id: u32,
    /// The id of the span that caused this one, `None` for the step.
    pub parent: Option<u32>,
    pub start: u64,
    pub end: u64,
    /// Worker index, the Chrome-trace thread lane.
    pub tid: u32,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Self time of every span in `spans` (same order): its duration minus the
/// part of its interval that its child spans cover. Children are matched
/// by `(step, parent)`; overlapping children are counted once, and a child
/// reaching outside its parent only covers the part inside it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    spans
        .iter()
        .map(|p| {
            let mut kids: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.step == p.step && c.parent == Some(p.id))
                .map(|c| (c.start.max(p.start), c.end.min(p.end)))
                .filter(|(s, e)| s < e)
                .collect();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = p.start;
            for (s, e) in kids {
                let s = s.max(reach);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            p.dur() - covered
        })
        .collect()
}

/// Chrome trace-event JSON ("X" complete events, microsecond times) for
/// Perfetto or `chrome://tracing`.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map(|p| p as i64).unwrap_or(-1);
        let _ = write!(
            out,
            "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\
             \"tid\":{},\"args\":{{\"step\":{},\"id\":{},\"parent\":{}}}}}",
            if i == 0 { "" } else { ",\n" },
            s.name,
            s.name.split('.').next().unwrap_or(s.name),
            s.start as f64 / 1e3,
            s.dur() as f64 / 1e3,
            s.tid,
            s.step,
            s.id,
            parent,
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span { name: "t.x", step: 7, id, parent, start, end, tid: 0 }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = [
            span(0, None, 0, 100),
            // Two overlapping children cover 10..40 (30), a third 60..70.
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 40),
            span(3, Some(0), 60, 70),
            // A grandchild is covered by its parent, not the step.
            span(4, Some(3), 62, 68),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 20, 4, 6]);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = [span(0, None, 50, 100), span(1, Some(0), 0, 60), span(2, Some(0), 90, 200)];
        assert_eq!(self_times(&spans)[0], 30);
        // A child fully covering its parent leaves no self time.
        let spans = [span(0, None, 10, 20), span(1, Some(0), 0, 30)];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn self_time_only_counts_children_of_the_same_step() {
        let mut other = span(1, Some(0), 10, 90);
        other.step = 8;
        let spans = [span(0, None, 0, 100), other];
        assert_eq!(self_times(&spans)[0], 100);
    }

    #[test]
    fn chrome_trace_is_valid_shape() {
        let t = chrome_trace(&[span(0, None, 1000, 3500), span(1, Some(0), 1500, 2000)]);
        assert!(t.starts_with("{\"traceEvents\":["));
        assert!(t.contains("\"ts\":1.000,\"dur\":2.500"));
        assert!(t.contains("\"parent\":-1"));
        assert!(t.contains("\"parent\":0"));
        assert!(t.trim_end().ends_with("]}"));
    }
}
