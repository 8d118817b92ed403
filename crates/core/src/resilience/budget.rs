//! The token-bucket retry budget.
//!
//! Exponential backoff alone spaces retries out but never bounds their
//! *number*: a long outage still generates one retry per victim per
//! backoff step, and a thundering herd of requeued jobs re-fails in
//! lockstep. A retry *budget* bounds the total: every retry withdraws
//! one token, every successful operation deposits a fraction of one,
//! and a dry bucket denies the retry outright. The sustained retry
//! rate is thereby capped at `deposit_per_success × success rate` —
//! proportional to how healthy the system actually is.

/// A token-bucket retry budget: withdraw 1 per retry, deposit
/// `deposit_per_success` per success, balance capped at the initial
/// allowance.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryBudget {
    balance: f64,
    cap: f64,
    deposit_per_success: f64,
    withdrawn: u64,
}

impl RetryBudget {
    /// A budget starting (and capped) at `initial` tokens, refilled by
    /// `deposit_per_success` tokens per recorded success.
    pub fn new(initial: f64, deposit_per_success: f64) -> RetryBudget {
        assert!(
            initial.is_finite() && initial >= 0.0,
            "initial budget must be finite and nonnegative"
        );
        assert!(
            deposit_per_success.is_finite() && deposit_per_success >= 0.0,
            "deposit must be finite and nonnegative"
        );
        RetryBudget {
            balance: initial,
            cap: initial,
            deposit_per_success,
            withdrawn: 0,
        }
    }

    /// Tries to withdraw one token for a retry. `false` means the
    /// budget is dry and the retry must be denied.
    pub fn try_withdraw(&mut self) -> bool {
        if self.balance >= 1.0 {
            self.balance -= 1.0;
            self.withdrawn += 1;
            true
        } else {
            false
        }
    }

    /// Deposits `deposit_per_success` tokens (saturating at the cap).
    pub fn record_success(&mut self) {
        self.balance = (self.balance + self.deposit_per_success).min(self.cap);
    }

    /// Total withdrawals (approved retries) over the budget's lifetime.
    pub fn withdrawn(&self) -> u64 {
        self.withdrawn
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dry_budget_denies_and_successes_refill() {
        let mut b = RetryBudget::new(2.0, 0.5);
        assert!(b.try_withdraw());
        assert!(b.try_withdraw());
        assert!(!b.try_withdraw(), "two tokens, two retries, then dry");
        b.record_success();
        assert!(!b.try_withdraw(), "0.5 tokens is still under 1");
        b.record_success();
        assert!(b.try_withdraw(), "two successes funded one retry");
        assert_eq!(b.withdrawn(), 3);
    }

    #[test]
    fn deposits_saturate_at_the_cap() {
        let mut b = RetryBudget::new(1.0, 10.0);
        b.record_success();
        b.record_success();
        assert_eq!(b.balance, 1.0, "balance never exceeds the cap");
        assert!(b.try_withdraw());
        assert!(!b.try_withdraw());
    }

    #[test]
    fn zero_budget_is_no_retry() {
        let mut b = RetryBudget::new(0.0, 0.0);
        assert!(!b.try_withdraw());
        b.record_success();
        assert!(!b.try_withdraw());
    }

    proptest! {
        /// The budget invariant the issue names: withdrawals never
        /// exceed deposits plus the initial balance, and the balance
        /// stays within [0, cap], under any interleaving of successes
        /// and withdrawal attempts.
        #[test]
        fn withdrawals_never_exceed_deposits_plus_initial(
            initial in 0.0f64..16.0,
            deposit in 0.0f64..4.0,
            ops in proptest::collection::vec(0u8..2, 0..128),
        ) {
            let mut b = RetryBudget::new(initial, deposit);
            let mut deposited = 0.0;
            for op in ops {
                if op == 0 {
                    let _ = b.try_withdraw();
                } else {
                    b.record_success();
                    deposited += deposit;
                }
                prop_assert!(b.balance >= 0.0);
                prop_assert!(b.balance <= b.cap + 1e-9);
                prop_assert!(
                    b.withdrawn() as f64 <= initial + deposited + 1e-9,
                    "withdrew {} with only {} initial + {} deposited",
                    b.withdrawn(), initial, deposited
                );
            }
        }
    }
}
