#include "src/baseline/scheme.h"

#include <algorithm>

#include "src/baseline/bypass_yield.h"
#include "src/persist/util_io.h"
#include "src/util/logging.h"

namespace cloudcache {

std::unique_ptr<BudgetFunction> BudgetModel::Make(Money reference_price,
                                                  double reference_seconds,
                                                  Rng& rng) const {
  const double jitter =
      rng.NextUniform(-options_.jitter, options_.jitter);
  const double multiplier =
      std::max(0.0, options_.price_multiplier + jitter);
  const Money amount = reference_price * multiplier;
  const double t_max =
      std::max(1e-6, reference_seconds * options_.tmax_multiplier);
  switch (options_.shape) {
    case BudgetModelOptions::Shape::kStep:
      return std::make_unique<StepBudget>(amount, t_max);
    case BudgetModelOptions::Shape::kLinear:
      return std::make_unique<LinearBudget>(amount, t_max);
    case BudgetModelOptions::Shape::kConvex:
      return std::make_unique<ConvexBudget>(amount, t_max);
    case BudgetModelOptions::Shape::kConcave:
      return std::make_unique<ConcaveBudget>(amount, t_max);
  }
  return std::make_unique<StepBudget>(amount, t_max);
}

const BudgetFunction& BudgetModel::MakeInto(Money reference_price,
                                            double reference_seconds,
                                            Rng& rng,
                                            BudgetScratch* scratch) const {
  const double jitter =
      rng.NextUniform(-options_.jitter, options_.jitter);
  const double multiplier =
      std::max(0.0, options_.price_multiplier + jitter);
  const Money amount = reference_price * multiplier;
  const double t_max =
      std::max(1e-6, reference_seconds * options_.tmax_multiplier);
  if (scratch->fn == nullptr || scratch->shape != options_.shape) {
    scratch->shape = options_.shape;
    switch (options_.shape) {
      case BudgetModelOptions::Shape::kStep:
        scratch->fn = std::make_unique<StepBudget>(amount, t_max);
        break;
      case BudgetModelOptions::Shape::kLinear:
        scratch->fn = std::make_unique<LinearBudget>(amount, t_max);
        break;
      case BudgetModelOptions::Shape::kConvex:
        scratch->fn = std::make_unique<ConvexBudget>(amount, t_max);
        break;
      case BudgetModelOptions::Shape::kConcave:
        scratch->fn = std::make_unique<ConcaveBudget>(amount, t_max);
        break;
    }
    return *scratch->fn;
  }
  switch (scratch->shape) {
    case BudgetModelOptions::Shape::kStep:
      static_cast<StepBudget*>(scratch->fn.get())->Reset(amount, t_max);
      break;
    case BudgetModelOptions::Shape::kLinear:
      static_cast<LinearBudget*>(scratch->fn.get())->Reset(amount, t_max);
      break;
    case BudgetModelOptions::Shape::kConvex:
      static_cast<ConvexBudget*>(scratch->fn.get())->Reset(amount, t_max);
      break;
    case BudgetModelOptions::Shape::kConcave:
      static_cast<ConcaveBudget*>(scratch->fn.get())->Reset(amount, t_max);
      break;
  }
  return *scratch->fn;
}

const char* SchemeKindToString(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kBypassYield:
      return "bypass";
    case SchemeKind::kEconCol:
      return "econ-col";
    case SchemeKind::kEconCheap:
      return "econ-cheap";
    case SchemeKind::kEconFast:
      return "econ-fast";
  }
  return "?";
}

EconScheme::Config EconScheme::EconColConfig() {
  Config config;
  config.name = "econ-col";
  config.enumerator.allow_indexes = false;
  config.enumerator.allow_parallel = false;
  config.enumerator.node_options = {1};
  config.economy.selection = PlanSelection::kCheapest;
  return config;
}

EconScheme::Config EconScheme::EconCheapConfig() {
  Config config;
  config.name = "econ-cheap";
  config.economy.selection = PlanSelection::kCheapest;
  return config;
}

EconScheme::Config EconScheme::EconFastConfig() {
  Config config;
  config.name = "econ-fast";
  config.economy.selection = PlanSelection::kFastest;
  return config;
}

EconScheme::EconScheme(const Catalog* catalog,
                       const PriceList* decision_prices,
                       const std::vector<StructureKey>& index_candidates,
                       Config config)
    : config_(std::move(config)),
      registry_(catalog),
      model_(catalog, decision_prices),
      budget_model_(config_.budget),
      rng_(config_.seed) {
  engine_ = std::make_unique<EconomyEngine>(
      catalog, &registry_, &model_, config_.enumerator, config_.economy);
  if (config_.enumerator.allow_indexes) {
    engine_->SetIndexCandidates(index_candidates);
  }
  if (config_.tenants >= 1) {
    tenant_rngs_.reserve(config_.tenants);
    for (uint32_t t = 0; t < config_.tenants; ++t) {
      tenant_rngs_.emplace_back(t == 0 ? config_.seed
                                       : MixSeed(config_.seed, t));
    }
    engine_->SetTenantCount(config_.tenants);
  }
  if (!config_.tenant_budgets.empty()) {
    // Budget-shape overrides need tenant identities to attach to.
    CLOUDCACHE_CHECK_GE(config_.tenants, 1u);
    std::vector<BudgetModelOptions> shapes(config_.tenants, config_.budget);
    for (const TenantBudgetShape& shape : config_.tenant_budgets) {
      CLOUDCACHE_CHECK_LT(shape.tenant, config_.tenants);
      shapes[shape.tenant].price_multiplier *= shape.price_scale;
      shapes[shape.tenant].tmax_multiplier *= shape.tmax_scale;
    }
    tenant_budget_models_.reserve(config_.tenants);
    for (uint32_t t = 0; t < config_.tenants; ++t) {
      tenant_budget_models_.emplace_back(shapes[t]);
    }
  }
}

ServedQuery EconScheme::OnQuery(const Query& query, SimTime now) {
  // Quote the back-end plan; the synthetic user anchors her budget to it.
  PlanSpec backend;
  backend.access = PlanSpec::Access::kBackend;
  const ExecutionEstimate backend_est =
      model_.EstimateExecution(query, backend);
  // Once tenants are provisioned, a query from an unprovisioned tenant is
  // a wiring bug; serving it from another tenant's jitter stream would
  // silently break the per-tenant purity the config documents.
  if (!tenant_rngs_.empty()) {
    CLOUDCACHE_CHECK_LT(query.tenant_id, tenant_rngs_.size());
  }
  Rng& budget_rng =
      tenant_rngs_.empty() ? rng_ : tenant_rngs_[query.tenant_id];
  const BudgetModel& budget_model =
      tenant_budget_models_.empty() ? budget_model_
                                    : tenant_budget_models_[query.tenant_id];
  const BudgetFunction& budget = budget_model.MakeInto(
      backend_est.cost, backend_est.time_seconds, budget_rng,
      &budget_scratch_);

  // Snapshot residency before the engine invests, so the reported build
  // usage reflects what actually had to be transferred. The snapshot
  // buffer is reused across queries (assignment recycles its storage).
  residency_scratch_ = engine_->cache().column_residency();

  const QueryOutcome outcome = engine_->OnQuery(query, budget, now);

  ServedQuery out;
  out.served = outcome.served;
  if (outcome.served) {
    out.spec = outcome.chosen.spec;
    out.execution = outcome.chosen.execution;
    out.payment = outcome.payment;
    out.profit = outcome.profit;
  }
  out.budget_case = outcome.budget_case;
  out.has_budget_case = true;
  out.throttled = outcome.throttled;
  out.investments = static_cast<uint32_t>(outcome.investments.size());
  out.evictions = static_cast<uint32_t>(outcome.evictions.size());
  std::vector<bool>& residency = residency_scratch_;
  for (StructureId id : outcome.investments) {
    const StructureKey& key = registry_.key(id);
    out.build_usage += model_.EstimateBuildUsage(key, residency);
    // Columns shipped by this build are present for subsequent builds.
    if (key.type == StructureType::kColumn) {
      residency[key.columns.front()] = true;
    } else if (key.type == StructureType::kIndex) {
      for (ColumnId col : key.columns) residency[col] = true;
    }
  }
  return out;
}

void EconScheme::ChargeExpenditure(Money amount, SimTime now) {
  engine_->OnTick(now);
  // The metered bill lands on the cloud account: the economy's revenue
  // must actually cover it for CR to grow.
  engine_->mutable_account().ChargeExpenditure(amount);
}

void EconScheme::SaveState(persist::Encoder* enc) const {
  registry_.SaveState(enc);
  engine_->SaveState(enc);
  persist::SaveRng(rng_, enc);
  enc->PutU64(tenant_rngs_.size());
  for (const Rng& rng : tenant_rngs_) persist::SaveRng(rng, enc);
}

Status EconScheme::RestoreState(persist::Decoder* dec) {
  // Registry first: the engine's ledgers validate structure ids against
  // it, and interning order is part of the run's state.
  CLOUDCACHE_RETURN_IF_ERROR(registry_.RestoreState(dec));
  CLOUDCACHE_RETURN_IF_ERROR(engine_->RestoreState(dec));
  CLOUDCACHE_RETURN_IF_ERROR(persist::RestoreRng(dec, &rng_));
  uint64_t rng_count = 0;
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadLength(&rng_count));
  if (rng_count != tenant_rngs_.size()) {
    return Status::FailedPrecondition(
        "snapshot has " + std::to_string(rng_count) +
        " tenant budget streams but this run provisioned " +
        std::to_string(tenant_rngs_.size()));
  }
  for (Rng& rng : tenant_rngs_) {
    CLOUDCACHE_RETURN_IF_ERROR(persist::RestoreRng(dec, &rng));
  }
  return Status::OK();
}

std::unique_ptr<Scheme> MakeScheme(SchemeKind kind, const Catalog* catalog,
                                   const PriceList* decision_prices,
                                   const std::vector<StructureKey>& indexes,
                                   uint64_t seed) {
  switch (kind) {
    case SchemeKind::kBypassYield: {
      BypassYieldScheme::Options options;
      return std::make_unique<BypassYieldScheme>(catalog, options);
    }
    case SchemeKind::kEconCol: {
      EconScheme::Config config = EconScheme::EconColConfig();
      config.seed = seed;
      return std::make_unique<EconScheme>(catalog, decision_prices, indexes,
                                          std::move(config));
    }
    case SchemeKind::kEconCheap: {
      EconScheme::Config config = EconScheme::EconCheapConfig();
      config.seed = seed;
      return std::make_unique<EconScheme>(catalog, decision_prices, indexes,
                                          std::move(config));
    }
    case SchemeKind::kEconFast: {
      EconScheme::Config config = EconScheme::EconFastConfig();
      config.seed = seed;
      return std::make_unique<EconScheme>(catalog, decision_prices, indexes,
                                          std::move(config));
    }
  }
  return nullptr;
}

}  // namespace cloudcache
