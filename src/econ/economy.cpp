#include "src/econ/economy.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/econ/fairness.h"
#include "src/obs/stage_profile.h"
#include "src/obs/trace.h"
#include "src/plan/skyline.h"
#include "src/util/logging.h"

namespace cloudcache {

const char* BudgetCaseToString(BudgetCase c) {
  switch (c) {
    case BudgetCase::kCaseA:
      return "A";
    case BudgetCase::kCaseB:
      return "B";
    case BudgetCase::kCaseC:
      return "C";
  }
  return "?";
}

const char* PlanSelectionToString(PlanSelection s) {
  switch (s) {
    case PlanSelection::kMinProfit:
      return "min-profit";
    case PlanSelection::kCheapest:
      return "cheapest";
    case PlanSelection::kFastest:
      return "fastest";
  }
  return "?";
}

EconomyEngine::EconomyEngine(const Catalog* catalog,
                             StructureRegistry* registry,
                             const CostModel* decision_model,
                             EnumeratorOptions enumerator_options,
                             EconomyOptions options)
    : catalog_(catalog),
      registry_(registry),
      model_(decision_model),
      options_(options),
      enumerator_(decision_model, registry, std::move(enumerator_options)),
      cache_(registry),
      pool_(options.candidate_pool_capacity),
      maintenance_(decision_model,
                   {options.maintenance_failure_fraction,
                    options.tenant_weighted_eviction}),
      account_(options.initial_credit),
      admission_(options.admission),
      amortizer_(options.amortization_horizon) {
  CLOUDCACHE_CHECK_GT(options_.regret_fraction_a, 0.0);
  CLOUDCACHE_CHECK_LT(options_.regret_fraction_a, 1.0);
  CLOUDCACHE_CHECK_GE(options_.eviction_breadth_slack, 0.0);
}

void EconomyEngine::SetIndexCandidates(
    const std::vector<StructureKey>& candidates) {
  enumerator_.SetIndexCandidates(candidates);
}

void EconomyEngine::SetTenantCount(size_t n) {
  tenant_regret_.assign(n, RegretLedger());
  active_tenant_regret_ = nullptr;
  suppress_regret_ = false;
  // Both policies need a population to arbitrate between: with fewer
  // than two tenants they stay fully inert, so a forced-event-path
  // single-tenant run (admission flag or not) remains bit-identical to
  // the classic path — a lone tenant must never throttle itself.
  admission_.SetTenantCount(n > 1 ? n : 0);
  // Tenant-aware pool aging only means something once at least two
  // ledgers exist; otherwise (or with the policy off) the pool stays
  // strict LRU — the pre-tenancy letter of Section IV-B.
  if (options_.tenant_weighted_eviction && n > 1) {
    pool_.SetVictimScorer(
        [this](StructureId id) { return BackingBreadth(id); },
        options_.eviction_aging_window);
  } else {
    pool_.SetVictimScorer(nullptr, 1);
  }
}

const RegretLedger& EconomyEngine::tenant_regret(size_t t) const {
  CLOUDCACHE_CHECK_LT(t, tenant_regret_.size());
  return tenant_regret_[t];
}

Money EconomyEngine::TenantRegretTotal(size_t t) const {
  if (t >= tenant_regret_.size()) return Money();
  return tenant_regret_[t].Total();
}

void EconomyEngine::ClearRegretEverywhere(StructureId id) {
  regret_.Clear(id);
  for (RegretLedger& ledger : tenant_regret_) ledger.Clear(id);
}

double EconomyEngine::BackingBreadth(StructureId id) const {
  if (tenant_regret_.size() < 2) return 0.0;
  breadth_scratch_.clear();
  for (const RegretLedger& ledger : tenant_regret_) {
    breadth_scratch_.push_back(ledger.Get(id).ToDollars());
  }
  return NormalizedBreadth(breadth_scratch_);
}

void EconomyEngine::ForfeitTenantRegret(uint32_t tenant) {
  // Subtracting the tenant's exact entries keeps the remaining tenant
  // ledgers a partition of the global one; per-entry subtraction
  // commutes, so the map's iteration order never reaches the metrics.
  RegretLedger& ledger = tenant_regret_[tenant];
  ledger.ForEachNonZero([this](StructureId id, Money amount) {
    regret_.Subtract(id, amount);
  });
  ledger = RegretLedger();
}

void EconomyEngine::ActivatePending(SimTime now) {
  for (size_t i = 0; i < pending_.size();) {
    if (pending_[i].ready_at <= now) {
      const StructureId id = pending_[i].id;
      CLOUDCACHE_CHECK(cache_.Add(id, now).ok());
      pending_flag_[id] = false;
      pending_[i] = pending_.back();
      pending_.pop_back();
    } else {
      ++i;
    }
  }
}

Money EconomyEngine::BuildCostNow(StructureId id) const {
  return model_->BuildCost(registry_->key(id), cache_.column_residency());
}

Money EconomyEngine::MemoBuildCostNow(StructureId id) const {
  // Stamp = epoch + 1 so 0 means "never computed"; any residency mutation
  // bumps the epoch and invalidates every entry at once.
  const uint64_t stamp = cache_.epoch() + 1;
  if (id >= build_cost_stamp_.size()) {
    build_cost_stamp_.resize(registry_->size(), 0);
    build_cost_value_.resize(registry_->size(), Money());
  }
  if (build_cost_stamp_[id] != stamp) {
    build_cost_stamp_[id] = stamp;
    build_cost_value_[id] = BuildCostNow(id);
  }
  return build_cost_value_[id];
}

void EconomyEngine::PriceCarriedCharges(PlanSet* set, SimTime now) const {
  // Per-structure charges repeat heavily across the plan set: a column
  // appears in the scan plan, every non-covering index plan, and all of
  // their node variants. Each is computed at most once per call:
  //  * a resident structure's charge reads the amortizer and maintenance
  //    ledgers, which move between queries — memoized under a per-call
  //    tick;
  //  * a hypothetical structure's advertised build share depends only on
  //    column residency, which moves exactly with CacheState::epoch —
  //    memoized under the epoch (+1 so 0 means "never computed") and
  //    reused across queries, skipping the whole Eq. 10-14 build-cost
  //    walk (including the synthetic sort query of Eq. 14).
  // Money is exact int64, so summing memoized per-structure values in
  // plan order is bit-identical to the original per-plan recomputation.
  const uint64_t tick = ++charge_tick_;
  const uint64_t epoch_stamp = cache_.epoch() + 1;
  const size_t universe = registry_->size();
  if (charge_stamp_.size() < universe) {
    charge_stamp_.resize(universe, 0);
    charge_value_.resize(universe, Money());
    hypo_epoch_stamp_.resize(universe, 0);
    hypo_share_.resize(universe, Money());
  }
  for (QueryPlan& plan : set->plans) {
    Money carried;
    for (StructureId id : plan.structures) {
      if (charge_stamp_[id] != tick) {
        charge_stamp_[id] = tick;
        if (cache_.IsResident(id)) {
          // Eq. 5-7 share plus the rent owed since the last payer
          // (footnote 3), capped per use.
          charge_value_[id] =
              amortizer_.PendingShare(id) +
              maintenance_.OwedCapped(
                  id, now, options_.maintenance_recovery_cap_seconds);
        } else {
          // Hypothetical structure: advertise the share its build cost
          // would contribute to this plan's price if it existed.
          if (hypo_epoch_stamp_[id] != epoch_stamp) {
            hypo_epoch_stamp_[id] = epoch_stamp;
            hypo_share_[id] = EvenShare(MemoBuildCostNow(id),
                                        options_.amortization_horizon, 0);
          }
          charge_value_[id] = hypo_share_[id];
        }
      }
      carried += charge_value_[id];
    }
    plan.carried_charges = carried;
  }
}

bool EconomyEngine::Affordable(const QueryPlan& plan,
                               const BudgetFunction& budget) const {
  const double t = plan.TimeSeconds();
  if (t > budget.t_max()) return false;
  return budget.At(t) >= plan.Price();
}

size_t EconomyEngine::SelectPlan(const std::vector<QueryPlan>& plans,
                                 const std::vector<size_t>& candidates,
                                 const BudgetFunction& budget) const {
  CLOUDCACHE_CHECK(!candidates.empty());
  auto better = [&](size_t a, size_t b) {
    const QueryPlan& pa = plans[a];
    const QueryPlan& pb = plans[b];
    switch (options_.selection) {
      case PlanSelection::kMinProfit: {
        const Money gain_a = budget.At(pa.TimeSeconds()) - pa.Price();
        const Money gain_b = budget.At(pb.TimeSeconds()) - pb.Price();
        if (gain_a != gain_b) return gain_a < gain_b;
        break;
      }
      case PlanSelection::kCheapest:
        if (pa.Price() != pb.Price()) return pa.Price() < pb.Price();
        break;
      case PlanSelection::kFastest:
        if (pa.TimeSeconds() != pb.TimeSeconds()) {
          return pa.TimeSeconds() < pb.TimeSeconds();
        }
        break;
    }
    if (pa.TimeSeconds() != pb.TimeSeconds()) {
      return pa.TimeSeconds() < pb.TimeSeconds();
    }
    if (pa.Price() != pb.Price()) return pa.Price() < pb.Price();
    return a < b;
  };
  size_t best = candidates.front();
  for (size_t i = 1; i < candidates.size(); ++i) {
    if (better(candidates[i], best)) best = candidates[i];
  }
  return best;
}

void EconomyEngine::AccumulateRegret(const std::vector<QueryPlan>& plans,
                                     const std::vector<size_t>& skyline,
                                     size_t chosen_index,
                                     BudgetCase budget_case,
                                     const BudgetFunction& budget,
                                     SimTime /*now*/) {
  // Reference price: the executed plan's, or — when nothing was served —
  // the cheapest executable plan the user was quoted.
  Money reference;
  bool have_reference = false;
  if (chosen_index != std::numeric_limits<size_t>::max()) {
    reference = plans[chosen_index].Price();
    have_reference = true;
  } else {
    for (size_t j : skyline) {
      const QueryPlan& plan = plans[j];
      if (!plan.IsExisting()) continue;
      if (!have_reference || plan.Price() < reference) {
        reference = plan.Price();
        have_reference = true;
      }
    }
  }
  if (!have_reference) return;

  for (size_t j : skyline) {
    if (j == chosen_index) continue;
    const QueryPlan& plan = plans[j];
    if (plan.IsExisting()) continue;  // Regret targets PQpos only.
    Money amount;
    switch (budget_case) {
      case BudgetCase::kCaseA:
        // Eq. 1: missed chance to serve more cheaply.
        if (plan.Price() <= reference) amount = reference - plan.Price();
        break;
      case BudgetCase::kCaseB:
      case BudgetCase::kCaseC:
        // Eq. 2: missed profit, for the plans at least as expensive as the
        // chosen one (case C restricts to the affordable subset).
        if (budget_case == BudgetCase::kCaseC &&
            !Affordable(plan, budget)) {
          break;
        }
        if (plan.Price() >= reference) {
          amount = Money::Max(Money(),
                              budget.At(plan.TimeSeconds()) - plan.Price());
        }
        break;
    }
    // A throttled tenant's contribution is scaled down (to zero by
    // default) before any booking, so both ledgers and the admission
    // counters see the same reduced amount.
    if (suppress_regret_) {
      amount = amount * options_.admission.throttled_regret_scale;
    }
    if (!amount.IsZero()) {
      regret_.Distribute(plan.structures, amount);
      // The same EvenShare split lands in the serving tenant's ledger, so
      // tenant ledgers always partition the global one exactly.
      if (active_tenant_regret_ != nullptr) {
        active_tenant_regret_->Distribute(plan.structures, amount);
        admission_.RecordRegret(active_tenant_, amount);
      }
    }
  }
}

void EconomyEngine::SettleExecution(const Query&, const QueryPlan& plan,
                                    Money payment, SimTime now,
                                    QueryOutcome* outcome) {
  for (StructureId id : plan.structures) {
    CLOUDCACHE_CHECK(cache_.IsResident(id));
    cache_.Touch(id, now);
    outcome->maintenance_collected += maintenance_.Pay(
        id, now, options_.maintenance_recovery_cap_seconds);
    outcome->amortization_collected += amortizer_.ChargeShare(id);
  }
  account_.DepositRevenue(payment);
  outcome->payment = payment;
  outcome->profit = payment - plan.Price();
  CLOUDCACHE_CHECK_GE(outcome->profit.micros(), 0);
  outcome->served = true;
  outcome->chosen = plan;
}

void EconomyEngine::MaybeInvest(SimTime now, QueryOutcome* outcome) {
  const Money credit = account_.credit();
  if (!credit.IsPositive()) return;

  // Fast path: Eq. 3 fires only when some eligible structure's standing
  // regret clears round(regret / (a * CR)) >= 1 — and, for a conservative
  // provider, only when the credit also covers that structure's build
  // cost. One flat ledger scan decides that before paying for the sorted
  // descending view below. Skipping the full pass when nothing qualifies
  // is bit-identical: with no investment the credit — and with it every
  // per-entry check — never changes across the loop, so every iteration
  // would just `continue` with no side effects. The affordability check
  // mirrors the loop's conservative guard exactly (same epoch, so the
  // memoized build cost is the same bits); without it, one standing
  // high-regret-but-unaffordable candidate would force the full sorted
  // pass on every query.
  const Money scaled_credit = credit * options_.regret_fraction_a;
  const bool any_candidate =
      regret_.AnyNonZero([&](StructureId id, Money regret_value) {
        if (cache_.IsResident(id)) return false;
        if (id < pending_flag_.size() && pending_flag_[id]) return false;
        const StructureKey& key = registry_->key(id);
        if (key.type == StructureType::kCpuNode) {
          if (key.ordinal >= options_.max_extra_nodes) return false;
          if (key.ordinal > cache_.extra_cpu_nodes()) return false;
        }
        if (std::llround(regret_value.Ratio(scaled_credit)) < 1) {
          return false;
        }
        if (options_.conservative_provider &&
            credit < MemoBuildCostNow(id)) {
          return false;
        }
        return true;
      });
  if (!any_candidate) return;

  for (const auto& [id, regret_value] : regret_.NonZeroDescending()) {
    if (cache_.IsResident(id)) continue;
    if (id < pending_flag_.size() && pending_flag_[id]) continue;

    const StructureKey& key = registry_->key(id);
    if (key.type == StructureType::kCpuNode) {
      if (key.ordinal >= options_.max_extra_nodes) continue;
      // Boot nodes in ordinal order so multi-node plans become executable.
      if (key.ordinal > cache_.extra_cpu_nodes()) continue;
    }

    // Eq. 3: InvestIn(S) = round(regret_S / (a * CR)) >= 1.
    const Money current_credit = account_.credit();
    if (!current_credit.IsPositive()) break;
    const double invest_in =
        regret_value.Ratio(current_credit * options_.regret_fraction_a);
    if (std::llround(invest_in) < 1) continue;

    const Money build_cost = MemoBuildCostNow(id);
    if (options_.conservative_provider && current_credit < build_cost) {
      continue;  // Never gamble credit the cloud does not have.
    }
    if (!account_.WithdrawInvestment(build_cost).ok()) continue;

    // Building an index also ships its absent key columns into the cache
    // (their BuildT is inside Eq. 14), so they materialize alongside it.
    std::vector<StructureId> built = {id};
    if (key.type == StructureType::kIndex) {
      for (ColumnId col : key.columns) {
        if (!cache_.ColumnResident(col)) {
          const StructureId col_id =
              registry_->Intern(ColumnKey(*catalog_, col));
          if (!cache_.IsResident(col_id) &&
              !(col_id < pending_flag_.size() && pending_flag_[col_id])) {
            built.push_back(col_id);
          }
        }
      }
    }

    const double ready_at =
        options_.model_build_latency
            ? now + model_->BuildSeconds(key, cache_.column_residency())
            : now;
    // Tenant-aware eviction: a structure whose triggering regret spread
    // broadly over tenants earns failure-threshold slack; companion
    // columns ride the index's backing. Computed before the ledgers
    // forget the regret below.
    const double failure_scale =
        options_.tenant_weighted_eviction
            ? 1.0 + options_.eviction_breadth_slack * BackingBreadth(id)
            : 1.0;
    for (StructureId built_id : built) {
      const Money recorded_cost =
          built_id == id ? build_cost : Money();  // Columns ride the index.
      if (options_.model_build_latency) {
        if (built_id >= pending_flag_.size()) {
          pending_flag_.resize(built_id + 1, false);
        }
        pending_flag_[built_id] = true;
        pending_.push_back(PendingBuild{ready_at, built_id});
      } else {
        CLOUDCACHE_CHECK(cache_.Add(built_id, now).ok());
      }
      maintenance_.Register(built_id, registry_->key(built_id),
                            ready_at, recorded_cost, failure_scale);
      // This regret is the kind admission can monetize: it turned into a
      // structure. Book each tenant's share before it is forgotten (a
      // later maintenance failure hands the shares back).
      if (admission_.enabled()) {
        for (size_t t = 0; t < tenant_regret_.size(); ++t) {
          admission_.RecordMonetized(static_cast<uint32_t>(t), built_id,
                                     tenant_regret_[t].Get(built_id));
        }
      }
      ClearRegretEverywhere(built_id);
      pool_.Erase(built_id);
    }
    amortizer_.RegisterBuild(id, build_cost);
    outcome->investments.push_back(id);
    if (tracer_ != nullptr) {
      tracer_->Event("invest", trace_query_, now, trace_tenant_, trace_node_)
          .U64("structure", id)
          .Str("key", registry_->key(id).ToString(*catalog_))
          .F64("build_cost_dollars", build_cost.ToDollars())
          .F64("ready_at", ready_at)
          .U64("companions", built.size() - 1);
    }
  }
}

void EconomyEngine::EvictFailedStructures(SimTime now,
                                          QueryOutcome* outcome) {
  // This runs up to three times per query. No clock can fail before the
  // ledger's earliest deadline, so quiet calls stop at one comparison.
  // Past it, only the clocks whose own deadline has passed can have
  // failed; they are judged by the exact predicate below in ascending id
  // order — the order a walk over every resident would visit them — so
  // the decisions are the same as judging every resident.
  if (now < maintenance_.NextDue()) return;
  maintenance_.CollectDue(now, &due_scratch_);
  for (StructureId id : due_scratch_) {
    if (!cache_.IsResident(id)) continue;
    const Money owed = maintenance_.Owed(id, now);
    if (owed.IsZero()) continue;
    Money build_cost = maintenance_.BuildCostOf(id);
    if (build_cost.IsZero()) {
      // Column shipped as part of an index build: judge it by what it
      // would cost to rebuild on its own.
      build_cost = MemoBuildCostNow(id);
    }
    Money threshold = build_cost * options_.maintenance_failure_fraction;
    // Tenant-aware slack stamped at build time; scales other than 1.0
    // exist only when the policy is on, so the classic path skips the
    // lookup and keeps the pre-policy threshold bit-identical.
    if (options_.tenant_weighted_eviction) {
      const double scale = maintenance_.FailureScale(id);
      if (scale != 1.0) threshold = threshold * scale;
    }
    if (owed > threshold) {
      CLOUDCACHE_CHECK(cache_.Remove(id).ok());
      maintenance_.Unregister(id, now);
      amortizer_.Cancel(id);
      // A failed build wasted the regret that backed it: admission hands
      // the backers' monetized shares back to unmonetized.
      admission_.OnStructureFailed(id);
      if (options_.clear_regret_on_failure) ClearRegretEverywhere(id);
      if (outcome != nullptr) {
        outcome->evictions.push_back(id);
      } else {
        tick_evictions_.push_back(id);
      }
      if (tracer_ != nullptr) {
        tracer_
            ->Event("evict", trace_query_, now, trace_tenant_, trace_node_)
            .U64("structure", id)
            .Str("key", registry_->key(id).ToString(*catalog_))
            .Str("reason", "maintenance")
            .F64("owed_dollars", owed.ToDollars())
            .F64("threshold_dollars", threshold.ToDollars());
      }
    }
  }
  maintenance_.RefreshNextDue();
}

void EconomyEngine::OnTick(SimTime now) {
  obs::ScopedStageTimer timer(obs::Stage::kFailureScan);
  ActivatePending(now);
  EvictFailedStructures(now, nullptr);
}

Status EconomyEngine::ForceBuild(const StructureKey& key, SimTime now) {
  const StructureId id = registry_->Intern(key);
  if (cache_.IsResident(id)) {
    return Status::AlreadyExists(key.ToString(*catalog_));
  }
  const Money build_cost = BuildCostNow(id);
  CLOUDCACHE_RETURN_IF_ERROR(account_.WithdrawInvestment(build_cost));
  std::vector<StructureId> built = {id};
  if (key.type == StructureType::kIndex) {
    for (ColumnId col : key.columns) {
      if (!cache_.ColumnResident(col)) {
        built.push_back(registry_->Intern(ColumnKey(*catalog_, col)));
      }
    }
  }
  for (StructureId built_id : built) {
    if (cache_.IsResident(built_id)) continue;
    CLOUDCACHE_RETURN_IF_ERROR(cache_.Add(built_id, now));
    maintenance_.Register(built_id, registry_->key(built_id), now,
                          built_id == id ? build_cost : Money());
  }
  amortizer_.RegisterBuild(id, build_cost);
  ClearRegretEverywhere(id);
  pool_.Erase(id);
  return Status::OK();
}

QueryOutcome EconomyEngine::OnQuery(const Query& query,
                                    const BudgetFunction& budget,
                                    SimTime now) {
  QueryOutcome outcome;
  trace_query_ = query.id;
  trace_tenant_ = query.tenant_id;
  if (tenant_regret_.empty()) {
    active_tenant_regret_ = nullptr;
    suppress_regret_ = false;
  } else {
    // With attribution on, silently dropping an out-of-range tenant's
    // regret would break the ledgers-partition-the-global invariant.
    CLOUDCACHE_CHECK_LT(query.tenant_id, tenant_regret_.size());
    active_tenant_ = query.tenant_id;
    active_tenant_regret_ = &tenant_regret_[query.tenant_id];
    // Admission: re-evaluate the serving tenant's throttle state. The
    // moment a tenant trips the throttle its standing regret is forfeited
    // from the shared ledger, so Eq. 3 stops investing on its behalf;
    // while throttled, this query's regret goes unbooked (the query
    // itself is served and billed exactly as before).
    bool newly_throttled = false;
    const bool was_throttled = query.tenant_id < admission_.tenant_count() &&
                               admission_.throttled(query.tenant_id);
    suppress_regret_ =
        admission_.Throttled(query.tenant_id, &newly_throttled);
    if (newly_throttled && options_.admission.forfeit_standing_regret) {
      ForfeitTenantRegret(query.tenant_id);
    }
    outcome.throttled = suppress_regret_;
    if (tracer_ != nullptr) {
      if (newly_throttled) {
        tracer_->Event("throttle", trace_query_, now, trace_tenant_,
                       trace_node_);
      } else if (was_throttled && !suppress_regret_) {
        tracer_->Event("readmit", trace_query_, now, trace_tenant_,
                       trace_node_);
      }
    }
  }
  outcome.evictions = std::move(tick_evictions_);
  tick_evictions_.clear();
  {
    obs::ScopedStageTimer timer(obs::Stage::kFailureScan);
    ActivatePending(now);
    EvictFailedStructures(now, &outcome);
  }

  // The whole decision pipeline below runs on reused buffers (the
  // enumerator's shared per-template plan set plus the economy's index
  // scratches) so the steady state allocates nothing per query. On a
  // plan-cache hit EnumerateShared re-prices the cached plans in place,
  // the skyline yields survivor INDICES into that shared set, and every
  // downstream step reads plans through those indices — no plan is
  // copied on the decision path (only the chosen one, into the outcome).
  PlanSet* enumerated;
  {
    obs::ScopedStageTimer timer(obs::Stage::kEnumerate);
    enumerated = enumerator_.EnumerateShared(query, cache_);
  }
  {
    obs::ScopedStageTimer timer(obs::Stage::kPrice);
    PriceCarriedCharges(enumerated, now);
  }
  {
    obs::ScopedStageTimer timer(obs::Stage::kSkyline);
    SkylineIndicesInto(*enumerated, &skyline_indices_, &skyline_scratch_);
  }
  // Everything below — affordability, selection, settlement, regret, and
  // investment — is the settle stage; the timer runs to return.
  obs::ScopedStageTimer settle_timer(obs::Stage::kSettle);
  const std::vector<QueryPlan>& plans = enumerated->plans;
  const std::vector<size_t>& skyline = skyline_indices_;
  outcome.num_plans = static_cast<uint32_t>(skyline.size());

  // One pass over the survivors does three jobs (each preserving skyline
  // order, so every downstream tie-break is unchanged):
  //  * keep the candidate pool's LRU clock fresh for every hypothetical
  //    structure that appeared in a plan — candidates that fall off the
  //    cold end forfeit their regret (Section IV-B);
  //  * partition into executable (PQexist) indices;
  //  * classify affordability once per plan (budget.At is a virtual call
  //    — evaluating it a second time for the executable subset would be
  //    pure waste).
  existing_scratch_.clear();
  affordable_existing_scratch_.clear();
  size_t affordable_count = 0;
  for (size_t idx : skyline) {
    const QueryPlan& plan = plans[idx];
    for (StructureId id : plan.missing) {
      for (StructureId evicted : pool_.Touch(id, now)) {
        ClearRegretEverywhere(evicted);
      }
    }
    const bool affordable = Affordable(plan, budget);
    affordable_count += affordable;
    if (plan.IsExisting()) {
      existing_scratch_.push_back(idx);
      if (affordable) affordable_existing_scratch_.push_back(idx);
    }
  }
  const std::vector<size_t>& existing = existing_scratch_;
  outcome.num_existing = static_cast<uint32_t>(existing.size());
  CLOUDCACHE_CHECK(!existing.empty());  // The backend plan always exists.

  // Classify the relationship between B_Q and B_PQ (Fig. 2). Case A is
  // the paper's "Q cannot be served according to the user's defined
  // budget": no *executable* plan is affordable (a hypothetical plan that
  // would be affordable if built cannot serve the query today, and its
  // missed cheapness is exactly what Eq. 1's regret records).
  const std::vector<size_t>& affordable_existing =
      affordable_existing_scratch_;
  if (affordable_existing.empty()) {
    outcome.budget_case = BudgetCase::kCaseA;
  } else if (affordable_count == skyline.size()) {
    outcome.budget_case = BudgetCase::kCaseB;
  } else {
    outcome.budget_case = BudgetCase::kCaseC;
  }

  size_t chosen = std::numeric_limits<size_t>::max();
  if (!affordable_existing.empty()) {
    // Cases B and C: pick per the policy and collect B_Q(t_i).
    chosen = SelectPlan(plans, affordable_existing, budget);
    const Money payment = budget.At(plans[chosen].TimeSeconds());
    SettleExecution(query, plans[chosen], payment, now, &outcome);
  } else if (options_.user_accepts_above_budget) {
    // Case A (or C with no affordable executable plan): the user is shown
    // the menu and — per the paper's experimental setup — accepts the
    // cheapest executable offer at its quoted price. No profit.
    size_t cheapest = existing.front();
    for (size_t idx : existing) {
      if (plans[idx].Price() < plans[cheapest].Price()) {
        cheapest = idx;
      }
    }
    chosen = cheapest;
    SettleExecution(query, plans[chosen], plans[chosen].Price(),
                    now, &outcome);
  }

  if (outcome.served && active_tenant_regret_ != nullptr) {
    admission_.RecordRevenue(active_tenant_, outcome.payment);
  }
  AccumulateRegret(plans, skyline, chosen, outcome.budget_case, budget, now);
  MaybeInvest(now, &outcome);
  return outcome;
}

void EconomyEngine::SaveState(persist::Encoder* enc) const {
  cache_.SaveState(enc);
  pool_.SaveState(enc);
  maintenance_.SaveState(enc);
  account_.SaveState(enc);
  regret_.SaveState(enc);
  enc->PutU64(tenant_regret_.size());
  for (const RegretLedger& ledger : tenant_regret_) ledger.SaveState(enc);
  admission_.SaveState(enc);
  amortizer_.SaveState(enc);
  enc->PutU64(pending_.size());
  for (const PendingBuild& build : pending_) {
    enc->PutDouble(build.ready_at);
    enc->PutU32(build.id);
  }
  enc->PutU64(tick_evictions_.size());
  for (StructureId id : tick_evictions_) enc->PutU32(id);
}

Status EconomyEngine::RestoreState(persist::Decoder* dec) {
  CLOUDCACHE_RETURN_IF_ERROR(cache_.RestoreState(dec));
  CLOUDCACHE_RETURN_IF_ERROR(pool_.RestoreState(dec));
  CLOUDCACHE_RETURN_IF_ERROR(maintenance_.RestoreState(dec, *registry_));
  CLOUDCACHE_RETURN_IF_ERROR(account_.RestoreState(dec));
  CLOUDCACHE_RETURN_IF_ERROR(regret_.RestoreState(dec));
  uint64_t tenant_count = 0;
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadLength(&tenant_count));
  if (tenant_count != tenant_regret_.size()) {
    return Status::FailedPrecondition(
        "snapshot has " + std::to_string(tenant_count) +
        " tenant regret ledgers but this run provisioned " +
        std::to_string(tenant_regret_.size()));
  }
  Money tenant_total;
  for (RegretLedger& ledger : tenant_regret_) {
    CLOUDCACHE_RETURN_IF_ERROR(ledger.RestoreState(dec));
    tenant_total += ledger.Total();
  }
  // The tenant ledgers partition the global ledger whenever attribution is
  // on (engine invariant 2); a snapshot that violates it was not written
  // by this engine.
  if (!tenant_regret_.empty() && tenant_total != regret_.Total()) {
    return Status::InvalidArgument(
        "snapshot tenant regret ledgers do not partition the global ledger");
  }
  CLOUDCACHE_RETURN_IF_ERROR(admission_.RestoreState(dec));
  CLOUDCACHE_RETURN_IF_ERROR(amortizer_.RestoreState(dec));

  pending_.clear();
  pending_flag_.assign(registry_->size(), false);
  uint64_t pending_count = 0;
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadLength(&pending_count));
  for (uint64_t i = 0; i < pending_count; ++i) {
    PendingBuild build;
    CLOUDCACHE_RETURN_IF_ERROR(dec->ReadDouble(&build.ready_at));
    CLOUDCACHE_RETURN_IF_ERROR(dec->ReadU32(&build.id));
    if (build.id >= registry_->size()) {
      return Status::InvalidArgument(
          "snapshot pending build names unknown structure id " +
          std::to_string(build.id));
    }
    if (pending_flag_[build.id]) {
      return Status::InvalidArgument(
          "snapshot pending build repeats structure id " +
          std::to_string(build.id));
    }
    pending_flag_[build.id] = true;
    pending_.push_back(build);
  }
  tick_evictions_.clear();
  uint64_t eviction_count = 0;
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadLength(&eviction_count));
  for (uint64_t i = 0; i < eviction_count; ++i) {
    StructureId id = 0;
    CLOUDCACHE_RETURN_IF_ERROR(dec->ReadU32(&id));
    if (id >= registry_->size()) {
      return Status::InvalidArgument(
          "snapshot tick eviction names unknown structure id " +
          std::to_string(id));
    }
    tick_evictions_.push_back(id);
  }

  // Drop every pricing memo. Their stamp discipline (epoch + 1 / a per-call
  // tick, 0 meaning "never computed") makes an empty memo bit-identical to
  // a warm one — the next lookup recomputes from the restored state.
  charge_tick_ = 0;
  charge_stamp_.clear();
  charge_value_.clear();
  hypo_epoch_stamp_.clear();
  hypo_share_.clear();
  build_cost_stamp_.clear();
  build_cost_value_.clear();
  active_tenant_regret_ = nullptr;
  active_tenant_ = 0;
  suppress_regret_ = false;
  return Status::OK();
}

}  // namespace cloudcache
