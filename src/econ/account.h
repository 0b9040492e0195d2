#pragma once

#include "src/persist/codec.h"
#include "src/util/money.h"
#include "src/util/status.h"

namespace cloudcache {

/// The cloud's bank account (Section IV-A).
///
/// "The cloud has an account where the user payments for the query
/// services they receive are deposited. Also, money from this account are
/// used in order to invest on new inventory. The overall credit amount in
/// this account is denoted as CR."
///
/// Three flows are distinguished so the books can be audited:
///  * revenue      — user payments (execution price + amortized shares +
///                   maintenance repayments + profit margin), deposited;
///  * expenditure  — metered infrastructure bills, charged (may push CR
///                   negative: a scheme whose decision prices ignore a
///                   resource, like the network-only baseline, under-
///                   collects and runs a deficit);
///  * investment   — build cost of new structures, withdrawn; refuses to
///                   overdraw because an altruistic cloud never gambles
///                   credit it does not have (policy iii).
///
/// Invariant: credit() == initial + revenue - expenditure - investment.
/// The account holds only these flows, never a transcript of past credit:
/// its state, and its share of every snapshot, stays the same size however
/// long the run. The run's credit timeline is SimMetrics::credit_over_time.
class CloudAccount {
 public:
  explicit CloudAccount(Money initial_credit)
      : initial_(initial_credit), credit_(initial_credit) {}

  /// Current credit CR.
  Money credit() const { return credit_; }

  /// Deposits a user payment.
  void DepositRevenue(Money amount);

  /// Charges a metered infrastructure bill.
  void ChargeExpenditure(Money amount);

  /// Withdraws the build cost of an investment; fails with
  /// ResourceExhausted if it would overdraw the account.
  Status WithdrawInvestment(Money amount);

  Money initial_credit() const { return initial_; }
  Money total_revenue() const { return revenue_; }
  Money total_expenditure() const { return expenditure_; }
  Money total_investment() const { return investment_; }

  /// Checkpoint support: the credit and every flow counter.
  void SaveState(persist::Encoder* enc) const;
  Status RestoreState(persist::Decoder* dec);

 private:
  Money initial_;
  Money credit_;
  Money revenue_;
  Money expenditure_;
  Money investment_;
};

}  // namespace cloudcache
