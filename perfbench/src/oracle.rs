//! Answer checking, run outside every timed region.

/// Tally of checked operations and wrong answers.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub examples: Vec<String>,
}

impl Tally {
    /// Record one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.examples.len() < 5 {
                self.examples.push(what());
            }
        }
    }

    /// Check buffered `lower_bound` answers against the sorted array.
    pub fn lower_bounds(&mut self, what: &str, keys: &[u64], queries: &[u64], answers: &[usize]) {
        assert_eq!(queries.len(), answers.len(), "one answer per query");
        for (&q, &got) in queries.iter().zip(answers) {
            let want = keys.partition_point(|&k| k < q);
            self.check(got == want, || {
                format!("{what}: lower_bound({q}) = {got}, oracle {want}")
            });
        }
    }

    /// Check that a registry count equals the benchmark's own tally.
    pub fn count(&mut self, what: &str, registry: u64, tally: u64) {
        self.check(registry == tally, || {
            format!("{what}: registry {registry} != benchmark tally {tally}")
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correct_answers_pass() {
        let keys = [2u64, 4, 4, 9];
        let queries = [0u64, 2, 3, 4, 9, 10];
        let mut t = Tally::default();
        t.lower_bounds("ok", &keys, &queries, &[0, 0, 1, 1, 3, 4]);
        assert_eq!((t.attempted, t.failed), (6, 0));
    }

    #[test]
    fn an_injected_wrong_answer_is_caught() {
        let keys: Vec<u64> = (0..1000u64).map(|i| i * 3).collect();
        let queries: Vec<u64> = (0..500u64).map(|i| i * 5).collect();
        let mut answers: Vec<usize> = queries
            .iter()
            .map(|&q| keys.partition_point(|&k| k < q))
            .collect();
        answers[123] += 1;
        let mut t = Tally::default();
        t.lower_bounds("injected", &keys, &queries, &answers);
        assert_eq!((t.attempted, t.failed), (500, 1));
        assert!(
            t.examples[0].contains("lower_bound(615)"),
            "{:?}",
            t.examples
        );
    }

    #[test]
    fn a_duplicate_run_must_resolve_to_its_first_key() {
        let keys = [1u64, 5, 5, 5, 8];
        let mut t = Tally::default();
        t.lower_bounds("dups", &keys, &[5], &[2]);
        assert_eq!(t.failed, 1);
    }

    #[test]
    fn count_mismatches_fail() {
        let mut t = Tally::default();
        t.count("wal.appends", 10, 10);
        t.count("recover.replayed", 9, 10);
        assert_eq!((t.attempted, t.failed), (2, 1));
    }
}
