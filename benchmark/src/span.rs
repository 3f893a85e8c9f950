//! Spans recorded from the benchmark's own code, around its calls into
//! each layer: `{id, parent, name, start_us, end_us, count}`, kept in
//! memory and written out once at exit. Spans inside the program are a
//! later change.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
    /// Work items the span covered (operations, calls, bytes: the name
    /// says which).
    pub count: u64,
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Spans {
    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span. `f` returns its result and the span's work count.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> (R, u64)) -> R {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_owned(),
            start_us,
            end_us: start_us,
            count: 0,
        });
        self.open.push(id);
        let (result, count) = f(self);
        self.open.pop();
        let end_us = self.now_us();
        let span = &mut self.spans[id];
        span.end_us = end_us;
        span.count = count;
        result
    }

    /// [`Spans::scope`] for work that can fail: the span is recorded
    /// either way, with a count of 0 when `f` returned an error.
    pub fn try_scope<R, E>(
        &mut self,
        name: &str,
        f: impl FnOnce(&mut Spans) -> Result<(R, u64), E>,
    ) -> Result<R, E> {
        self.scope(name, |spans| match f(spans) {
            Ok((result, count)) => (Ok(result), count),
            Err(e) => (Err(e), 0),
        })
    }

    /// A span's duration minus the part its direct children cover,
    /// summed by name. Children of one parent never overlap here (one
    /// thread opens and closes them in order).
    pub fn self_time_us(&self) -> BTreeMap<String, u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_us - s.start_us;
            }
        }
        let mut by_name = BTreeMap::new();
        for s in &self.spans {
            *by_name.entry(s.name.clone()).or_insert(0) +=
                (s.end_us - s.start_us).saturating_sub(covered[s.id]);
        }
        by_name
    }

    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("id", Json::Num(s.id as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("name", Json::str(&s.name)),
                    ("start_us", Json::Num(s.start_us as f64)),
                    ("end_us", Json::Num(s.end_us as f64)),
                    ("count", Json::Num(s.count as f64)),
                ])
            })
            .collect();
        let self_time = self
            .self_time_us()
            .into_iter()
            .map(|(name, us)| (name, Json::Num(us as f64)))
            .collect();
        Json::obj(vec![
            ("spans", Json::Arr(spans)),
            ("self_time_us", Json::Obj(self_time)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_and_self_time_excludes_them() {
        let mut spans = Spans::default();
        spans.scope("outer", |s| {
            s.scope("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5));
                ((), 3)
            });
            ((), 1)
        });
        assert_eq!(spans.spans.len(), 2);
        assert_eq!(spans.spans[1].parent, Some(0));
        assert_eq!(spans.spans[1].count, 3);
        let inner = spans.spans[1].end_us - spans.spans[1].start_us;
        let outer = spans.spans[0].end_us - spans.spans[0].start_us;
        assert!(inner >= 5000 && outer >= inner);
        let st = spans.self_time_us();
        assert_eq!(st["inner"], inner);
        assert_eq!(st["outer"], outer - inner);
        assert!(Json::parse(&spans.to_json().to_string()).is_ok());
    }
}
