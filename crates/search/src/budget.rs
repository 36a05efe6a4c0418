//! Budgets and stop rules for adaptive campaigns, with typed errors.
//!
//! A [`Budget`] bounds what a search campaign may spend: a hard cap on
//! simulated measurements, an optional cap on simulated collection cost,
//! and an optional plateau rule that stops a campaign whose best observed
//! improvement has stopped moving.  [`StopReason`] records which rule
//! fired — it is part of the rendered plan, so two same-seed campaigns
//! must stop for bit-identical reasons.

use acic::AcicError;

/// Why a search campaign stopped proposing batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The measurement budget is exhausted.
    Budget,
    /// The simulated-cost ceiling was reached.
    Cost,
    /// The best observed improvement has not moved for
    /// [`Budget::plateau_rounds`] consecutive rounds.
    Plateau,
    /// Every grid point has been proposed (the search degenerated into the
    /// exhaustive campaign it was meant to avoid — possible only when the
    /// budget exceeds the grid).
    Exhausted,
}

impl StopReason {
    /// Stable one-word code used in the rendered plan.
    pub fn code(&self) -> &'static str {
        match self {
            StopReason::Budget => "budget",
            StopReason::Cost => "cost",
            StopReason::Plateau => "plateau",
            StopReason::Exhausted => "exhausted",
        }
    }
}

/// Errors of the search layer itself (campaign-level failures from the
/// trainer pass through as [`SearchError::Collect`]).
#[derive(Debug, Clone, PartialEq)]
pub enum SearchError {
    /// The budget is not satisfiable (zero measurements, zero batch,
    /// non-positive cost ceiling, ...).
    InvalidBudget(String),
    /// The campaign grid is empty — there is nothing to plan over.
    EmptyGrid,
    /// A planner proposed an index outside the grid (planner bug; surfaced
    /// as a typed error instead of a panic so the CLI can report it).
    BadProposal { round: usize, index: usize, grid: usize },
    /// The underlying collection failed.
    Collect(AcicError),
}

impl std::fmt::Display for SearchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchError::InvalidBudget(why) => write!(f, "invalid search budget: {why}"),
            SearchError::EmptyGrid => write!(f, "search grid is empty"),
            SearchError::BadProposal { round, index, grid } => write!(
                f,
                "planner proposed index {index} outside the {grid}-point grid in round {round}"
            ),
            SearchError::Collect(e) => write!(f, "collection failed during search: {e}"),
        }
    }
}

impl std::error::Error for SearchError {}

impl From<AcicError> for SearchError {
    fn from(e: AcicError) -> Self {
        SearchError::Collect(e)
    }
}

/// What an adaptive campaign may spend before it must stop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Budget {
    /// Hard cap on *simulated* measurements (store hits are free: answered
    /// points do not consume budget).
    pub max_measurements: usize,
    /// Measurements proposed per round (the planner refits between
    /// rounds, so smaller batches adapt faster but refit more).
    pub batch: usize,
    /// Optional ceiling on cumulative simulated collection cost, USD.
    pub max_cost_usd: Option<f64>,
    /// Stop after this many consecutive rounds without the best observed
    /// improvement moving by more than [`Budget::PLATEAU_EPSILON`]
    /// (relative).  `None` disables plateau detection.
    pub plateau_rounds: Option<usize>,
}

impl Budget {
    /// Relative improvement below which a round counts as flat.
    pub const PLATEAU_EPSILON: f64 = 1e-9;

    /// A budget of `max_measurements` with the default batch of 8, no cost
    /// ceiling, and no plateau rule.
    pub fn measurements(max_measurements: usize) -> Self {
        Self { max_measurements, batch: 8, max_cost_usd: None, plateau_rounds: None }
    }

    /// Builder: measurements proposed per round.
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Builder: simulated-cost ceiling.
    pub fn with_max_cost(mut self, usd: f64) -> Self {
        self.max_cost_usd = Some(usd);
        self
    }

    /// Builder: plateau rule.
    pub fn with_plateau(mut self, rounds: usize) -> Self {
        self.plateau_rounds = Some(rounds);
        self
    }

    /// Reject unsatisfiable budgets with a typed error.
    pub fn validate(&self) -> Result<(), SearchError> {
        if self.max_measurements == 0 {
            return Err(SearchError::InvalidBudget("max_measurements must be >= 1".into()));
        }
        if self.batch == 0 {
            return Err(SearchError::InvalidBudget("batch must be >= 1".into()));
        }
        if let Some(c) = self.max_cost_usd {
            if c.is_nan() || c <= 0.0 {
                return Err(SearchError::InvalidBudget(format!(
                    "max_cost_usd must be positive (got {c})"
                )));
            }
        }
        if self.plateau_rounds == Some(0) {
            return Err(SearchError::InvalidBudget("plateau_rounds must be >= 1".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_degenerate_budgets() {
        assert!(Budget::measurements(10).validate().is_ok());
        let zero = Budget::measurements(0);
        assert!(matches!(zero.validate(), Err(SearchError::InvalidBudget(_))));
        let batchless = Budget::measurements(10).with_batch(0);
        assert!(matches!(batchless.validate(), Err(SearchError::InvalidBudget(_))));
        let free = Budget::measurements(10).with_max_cost(0.0);
        assert!(matches!(free.validate(), Err(SearchError::InvalidBudget(_))));
        let nan = Budget::measurements(10).with_max_cost(f64::NAN);
        assert!(matches!(nan.validate(), Err(SearchError::InvalidBudget(_))));
        let flat = Budget::measurements(10).with_plateau(0);
        assert!(matches!(flat.validate(), Err(SearchError::InvalidBudget(_))));
    }

    #[test]
    fn stop_reasons_have_stable_codes() {
        assert_eq!(StopReason::Budget.code(), "budget");
        assert_eq!(StopReason::Plateau.code(), "plateau");
        assert_eq!(StopReason::Cost.code(), "cost");
        assert_eq!(StopReason::Exhausted.code(), "exhausted");
    }

    #[test]
    fn errors_display_their_context() {
        let e = SearchError::BadProposal { round: 3, index: 99, grid: 50 };
        let s = e.to_string();
        assert!(s.contains("99") && s.contains("50") && s.contains("round 3"), "{s}");
        assert!(SearchError::EmptyGrid.to_string().contains("empty"));
    }
}
