#include "src/econ/account.h"

#include "src/util/logging.h"

namespace cloudcache {

void CloudAccount::DepositRevenue(Money amount) {
  CLOUDCACHE_CHECK_GE(amount.micros(), 0);
  credit_ += amount;
  revenue_ += amount;
}

void CloudAccount::ChargeExpenditure(Money amount) {
  CLOUDCACHE_CHECK_GE(amount.micros(), 0);
  credit_ -= amount;
  expenditure_ += amount;
}

Status CloudAccount::WithdrawInvestment(Money amount) {
  CLOUDCACHE_CHECK_GE(amount.micros(), 0);
  if (amount > credit_) {
    return Status::ResourceExhausted(
        "investment " + amount.ToString() + " exceeds credit " +
        credit_.ToString());
  }
  credit_ -= amount;
  investment_ += amount;
  return Status::OK();
}

void CloudAccount::SaveState(persist::Encoder* enc) const {
  enc->PutMoney(initial_);
  enc->PutMoney(credit_);
  enc->PutMoney(revenue_);
  enc->PutMoney(expenditure_);
  enc->PutMoney(investment_);
}

Status CloudAccount::RestoreState(persist::Decoder* dec) {
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadMoney(&initial_));
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadMoney(&credit_));
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadMoney(&revenue_));
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadMoney(&expenditure_));
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadMoney(&investment_));
  if (credit_ != initial_ + revenue_ - expenditure_ - investment_) {
    return Status::InvalidArgument(
        "snapshot account books do not balance (credit != initial + revenue "
        "- expenditure - investment)");
  }
  return Status::OK();
}

}  // namespace cloudcache
