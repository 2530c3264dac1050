//! Privacy parameters and sequential composition.

/// Errors produced by budget operations.
#[derive(Debug, Clone, PartialEq)]
pub enum BudgetError {
    /// ε must be finite and strictly positive.
    InvalidEpsilon {
        /// The rejected value.
        value: f64,
    },
    /// A spend would exceed the remaining budget.
    Exhausted {
        /// Amount requested.
        requested: f64,
        /// Amount remaining.
        remaining: f64,
    },
    /// δ must lie in `[0, 1)` (δ = 0 is pure ε-DP).
    InvalidDelta {
        /// The rejected value.
        value: f64,
    },
    /// A spend's δ would exceed the account's remaining δ allowance.
    DeltaExhausted {
        /// δ requested.
        requested: f64,
        /// δ remaining.
        remaining: f64,
    },
}

impl core::fmt::Display for BudgetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BudgetError::InvalidEpsilon { value } => write!(f, "invalid epsilon {value}"),
            BudgetError::Exhausted {
                requested,
                remaining,
            } => write!(
                f,
                "privacy budget exhausted: requested {requested}, remaining {remaining}"
            ),
            BudgetError::InvalidDelta { value } => write!(f, "invalid delta {value}"),
            BudgetError::DeltaExhausted {
                requested,
                remaining,
            } => write!(
                f,
                "delta allowance exhausted: requested {requested}, remaining {remaining}"
            ),
        }
    }
}

impl std::error::Error for BudgetError {}

/// A validated privacy parameter `ε > 0`.
///
/// Smaller ε means more privacy and more noise; the paper evaluates
/// `ε ∈ {1.0, 0.1, 0.01}`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Epsilon(f64);

impl Epsilon {
    /// Validates and wraps an ε value.
    pub fn new(value: f64) -> Result<Self, BudgetError> {
        if !value.is_finite() || value <= 0.0 {
            return Err(BudgetError::InvalidEpsilon { value });
        }
        Ok(Self(value))
    }

    /// The raw value.
    #[inline]
    pub fn value(&self) -> f64 {
        self.0
    }

    /// Splits the budget into `parts` equal shares (sequential composition in
    /// reverse: running each share-protocol once composes back to `self`).
    pub fn split(&self, parts: usize) -> Vec<Epsilon> {
        assert!(parts > 0, "cannot split into zero parts");
        vec![Epsilon(self.0 / parts as f64); parts]
    }
}

impl core::fmt::Display for Epsilon {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "ε={}", self.0)
    }
}

/// A mutable privacy-budget account implementing sequential composition.
///
/// The paper (Sec. 2.1): "the protocol that computes an εᵢ-differentially
/// private response to the i-th sequence is (Σᵢεᵢ)-differentially private."
/// The account enforces that total.
#[derive(Debug, Clone)]
pub struct PrivacyBudget {
    total: f64,
    spent: f64,
    ledger: Vec<(String, f64)>,
}

impl PrivacyBudget {
    /// Opens an account with the given total ε.
    pub fn new(total: Epsilon) -> Self {
        Self {
            total: total.value(),
            spent: 0.0,
            ledger: Vec::new(),
        }
    }

    /// Attempts to spend `amount` for a release labelled `purpose`.
    pub fn spend(
        &mut self,
        purpose: impl Into<String>,
        amount: Epsilon,
    ) -> Result<Epsilon, BudgetError> {
        let a = amount.value();
        // Tolerate float dust from equal splits summing to the total.
        if self.spent + a > self.total * (1.0 + 1e-12) {
            return Err(BudgetError::Exhausted {
                requested: a,
                remaining: self.remaining(),
            });
        }
        self.spent += a;
        self.ledger.push((purpose.into(), a));
        Ok(amount)
    }

    /// Budget not yet spent.
    pub fn remaining(&self) -> f64 {
        (self.total - self.spent).max(0.0)
    }

    /// Total spent so far — by sequential composition, the privacy level of
    /// everything released against this account.
    pub fn spent(&self) -> f64 {
        self.spent
    }

    /// The release ledger: `(purpose, ε)` pairs in spend order.
    pub fn ledger(&self) -> &[(String, f64)] {
        &self.ledger
    }
}

/// One named spend in a [`PrivacyAccountant`]'s ledger — self-describing,
/// unlike the positional `(String, f64)` pairs of [`PrivacyBudget`].
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    /// The caller-chosen spend label (e.g. `release-3`).
    pub label: String,
    /// The ε debited by this spend.
    pub epsilon: f64,
    /// The δ debited by this spend — `0.0` for pure ε-DP releases, positive
    /// for (ε,δ) entries.
    pub delta: f64,
    /// The release epoch the spend funded (0 for out-of-band spends that
    /// are not tied to a snapshot epoch).
    pub release_epoch: u64,
}

/// A privacy accountant: sequential composition over named (ε, δ) spends.
///
/// The successor to [`PrivacyBudget`] and the account type the serving
/// layer keeps per tenant. Composition is the paper's (Sec. 2.1): a sum of
/// εᵢ-DP responses is (Σεᵢ)-DP, and likewise for δ under basic sequential
/// composition — the accountant tracks both sums against separate
/// allowances. δ defaults to an allowance of 0, which makes every
/// positive-δ spend fail: pure-ε accounts cannot silently weaken to
/// approximate DP, a caller must opt in with [`Self::with_delta`].
#[derive(Debug, Clone)]
pub struct PrivacyAccountant {
    total: f64,
    total_delta: f64,
    spent: f64,
    spent_delta: f64,
    ledger: Vec<LedgerEntry>,
}

impl PrivacyAccountant {
    /// Opens a pure-ε account with the given total ε (δ allowance 0).
    pub fn new(total: Epsilon) -> Self {
        Self {
            total: total.value(),
            total_delta: 0.0,
            spent: 0.0,
            spent_delta: 0.0,
            ledger: Vec::new(),
        }
    }

    /// Grants a total δ allowance for (ε,δ) spends. `delta` must lie in
    /// `[0, 1)`.
    pub fn with_delta(mut self, delta: f64) -> Result<Self, BudgetError> {
        if !delta.is_finite() || !(0.0..1.0).contains(&delta) {
            return Err(BudgetError::InvalidDelta { value: delta });
        }
        self.total_delta = delta;
        Ok(self)
    }

    /// Spends pure ε for a release labelled `label` at epoch 0 — the
    /// shorthand for out-of-band spends. Failed spends do not mutate the
    /// account.
    pub fn spend(
        &mut self,
        label: impl Into<String>,
        amount: Epsilon,
    ) -> Result<Epsilon, BudgetError> {
        self.spend_at(label, amount, 0.0, 0)
    }

    /// Spends (ε, δ) for a release labelled `label` funding
    /// `release_epoch`. Checks both allowances *before* mutating: a failed
    /// spend leaves the account untouched.
    pub fn spend_at(
        &mut self,
        label: impl Into<String>,
        amount: Epsilon,
        delta: f64,
        release_epoch: u64,
    ) -> Result<Epsilon, BudgetError> {
        if !delta.is_finite() || !(0.0..1.0).contains(&delta) {
            return Err(BudgetError::InvalidDelta { value: delta });
        }
        let a = amount.value();
        // Tolerate float dust from equal splits summing to the total.
        if self.spent + a > self.total * (1.0 + 1e-12) {
            return Err(BudgetError::Exhausted {
                requested: a,
                remaining: self.remaining(),
            });
        }
        if self.spent_delta + delta > self.total_delta * (1.0 + 1e-12) {
            return Err(BudgetError::DeltaExhausted {
                requested: delta,
                remaining: self.remaining_delta(),
            });
        }
        self.spent += a;
        self.spent_delta += delta;
        self.ledger.push(LedgerEntry {
            label: label.into(),
            epsilon: a,
            delta,
            release_epoch,
        });
        Ok(amount)
    }

    /// ε not yet spent.
    pub fn remaining(&self) -> f64 {
        (self.total - self.spent).max(0.0)
    }

    /// δ allowance not yet spent.
    pub fn remaining_delta(&self) -> f64 {
        (self.total_delta - self.spent_delta).max(0.0)
    }

    /// Total ε spent so far — by sequential composition, the ε level of
    /// everything released against this account.
    pub fn spent(&self) -> f64 {
        self.spent
    }

    /// Total δ spent so far.
    pub fn spent_delta(&self) -> f64 {
        self.spent_delta
    }

    /// The release ledger in spend order.
    pub fn ledger(&self) -> &[LedgerEntry] {
        &self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_validation() {
        assert!(Epsilon::new(0.1).is_ok());
        assert!(Epsilon::new(0.0).is_err());
        assert!(Epsilon::new(-1.0).is_err());
        assert!(Epsilon::new(f64::INFINITY).is_err());
        assert!(Epsilon::new(f64::NAN).is_err());
    }

    #[test]
    fn split_shares_sum_to_whole() {
        let e = Epsilon::new(1.0).unwrap();
        let parts = e.split(4);
        assert_eq!(parts.len(), 4);
        let total: f64 = parts.iter().map(|p| p.value()).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn budget_accounts_for_spending() {
        let mut b = PrivacyBudget::new(Epsilon::new(1.0).unwrap());
        b.spend("hist-1", Epsilon::new(0.4).unwrap()).unwrap();
        b.spend("hist-2", Epsilon::new(0.6).unwrap()).unwrap();
        assert!(b.remaining() < 1e-12);
        assert_eq!(b.ledger().len(), 2);
        assert!((b.spent() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overspend_is_rejected() {
        let mut b = PrivacyBudget::new(Epsilon::new(0.5).unwrap());
        b.spend("a", Epsilon::new(0.3).unwrap()).unwrap();
        let err = b.spend("b", Epsilon::new(0.3).unwrap()).unwrap_err();
        assert!(matches!(err, BudgetError::Exhausted { .. }));
        // Failed spends do not mutate the account.
        assert!((b.spent() - 0.3).abs() < 1e-12);
        assert_eq!(b.ledger().len(), 1);
    }

    #[test]
    fn equal_split_spends_exactly_exhaust() {
        let total = Epsilon::new(1.0).unwrap();
        let mut b = PrivacyBudget::new(total);
        for (i, part) in total.split(3).into_iter().enumerate() {
            b.spend(format!("part-{i}"), part).unwrap();
        }
        assert!(b.remaining() < 1e-9);
    }

    #[test]
    fn accountant_tracks_named_epsilon_delta_spends() {
        let mut a = PrivacyAccountant::new(Epsilon::new(1.0).unwrap())
            .with_delta(1e-6)
            .unwrap();
        a.spend_at("release-0", Epsilon::new(0.4).unwrap(), 0.0, 1)
            .unwrap();
        a.spend_at("stability", Epsilon::new(0.3).unwrap(), 4e-7, 0)
            .unwrap();
        assert!((a.spent() - 0.7).abs() < 1e-12);
        assert!((a.spent_delta() - 4e-7).abs() < 1e-18);
        assert!((a.remaining() - 0.3).abs() < 1e-12);
        assert!((a.remaining_delta() - 6e-7).abs() < 1e-18);
        assert_eq!(
            a.ledger(),
            &[
                LedgerEntry {
                    label: "release-0".into(),
                    epsilon: 0.4,
                    delta: 0.0,
                    release_epoch: 1,
                },
                LedgerEntry {
                    label: "stability".into(),
                    epsilon: 0.3,
                    delta: 4e-7,
                    release_epoch: 0,
                },
            ]
        );
    }

    #[test]
    fn accountant_failed_spends_leave_the_account_untouched() {
        let mut a = PrivacyAccountant::new(Epsilon::new(0.5).unwrap());
        a.spend("a", Epsilon::new(0.3).unwrap()).unwrap();
        let err = a.spend("b", Epsilon::new(0.3).unwrap()).unwrap_err();
        assert!(matches!(err, BudgetError::Exhausted { .. }));
        // A pure-ε account rejects any positive δ — and the ε side of the
        // rejected spend must not have been debited.
        let err = a
            .spend_at("c", Epsilon::new(0.1).unwrap(), 1e-9, 2)
            .unwrap_err();
        assert!(matches!(err, BudgetError::DeltaExhausted { .. }), "{err}");
        assert!((a.spent() - 0.3).abs() < 1e-12);
        assert_eq!(a.spent_delta(), 0.0);
        assert_eq!(a.ledger().len(), 1);
    }

    #[test]
    fn accountant_rejects_invalid_delta() {
        assert!(matches!(
            PrivacyAccountant::new(Epsilon::new(1.0).unwrap()).with_delta(1.0),
            Err(BudgetError::InvalidDelta { .. })
        ));
        let mut a = PrivacyAccountant::new(Epsilon::new(1.0).unwrap());
        assert!(matches!(
            a.spend_at("bad", Epsilon::new(0.1).unwrap(), -0.1, 0),
            Err(BudgetError::InvalidDelta { .. })
        ));
    }
}
