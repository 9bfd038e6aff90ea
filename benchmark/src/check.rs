//! Operation accounting: every batch step, query and verification check is
//! one attempted operation; a check that does not hold is a failed one.

/// Attempted/failed counts of one run, plus the failures' descriptions.
#[derive(Debug, Default)]
pub struct Checks {
    workload: &'static str,
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Checks {
    /// An empty tally for `workload`.
    pub fn new(workload: &'static str) -> Self {
        Self {
            workload,
            ..Self::default()
        }
    }

    /// Counts `n` operations that completed (batch steps, queries). An
    /// operation that errors aborts the run instead, so it is never counted.
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    /// One verification check: `ok`, or a failure described by `detail`
    /// (the values that were compared).
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.messages.push(format!(
                "workload {}: check '{name}' failed: {}",
                self.workload,
                detail()
            ));
        }
    }

    /// Operations attempted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Checks that failed.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// One line per failed check, naming workload, check and values.
    pub fn messages(&self) -> &[String] {
        &self.messages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tallies_operations_and_names_failures() {
        let mut c = Checks::new("train_resident");
        c.ops(27);
        c.check("loss finite", true, || {
            unreachable!("not evaluated when ok")
        });
        c.check("loss decreases", false, || "first 0.5 last 0.7".to_string());
        assert_eq!((c.attempted(), c.failed()), (29, 1));
        assert_eq!(
            c.messages(),
            ["workload train_resident: check 'loss decreases' failed: first 0.5 last 0.7"]
        );
    }
}
