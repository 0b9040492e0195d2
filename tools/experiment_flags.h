#pragma once

// Shared experiment flag surface for the command-line binaries
// (cloudcache_sim, cloudcached, loadgen). The server verifies the
// client's HashExperimentConfig at Hello time, so all three must build
// bit-identical ExperimentConfigs from the same flags — the names, the
// defaults, and the config wiring live here exactly once.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

#include "src/catalog/sdss.h"
#include "src/catalog/tpch.h"
#include "src/sim/experiment.h"
#include "src/util/money.h"
#include "src/util/status.h"
#include "src/util/units.h"

namespace cloudcache {
namespace tools {

/// The experiment-defining flags (everything that feeds the config hash,
/// plus the econ-hook knobs that tune the scheme identically everywhere).
struct ExperimentFlags {
  std::string scheme = "econ-cheap";
  std::string catalog = "tpch";
  double scale_tb = 2.5;
  uint64_t queries = 50'000;
  double interarrival = 10.0;
  std::string arrival = "fixed";
  double skew = 1.0;
  double repeat = 0.3;
  uint64_t seed = 17;
  double regret_a = 0.02;
  int64_t horizon = 50'000;
  double initial_credit = 200.0;
  bool build_latency = false;
  bool plan_cache = true;
  uint32_t tenants = 1;      // Concurrent query streams.
  double tenant_skew = 0.0;  // Zipf skew of per-tenant traffic shares.
  bool fair_eviction = false;  // Tenant-aware eviction weighting.
  bool admission = false;      // Per-tenant admission control.
  double admission_ratio = 2.0;  // Unmonetized-regret / revenue throttle.
  std::vector<TenantBudgetShape> tenant_budgets;  // --tenant-budget=t:p[:t].
  uint32_t nodes = 1;            // Cluster cache nodes.
  bool elastic = false;          // Economic scale-out/in.
  double node_rent_multiplier = 1.0;  // Rented-node rent scale.
  uint32_t max_nodes = 4;        // Elasticity ceiling.
  // Whether single-run-only flags were given (cloudcache_sim warns under
  // --sweep).
  bool scheme_set = false;
  bool interarrival_set = false;
};

/// --name=value match helper shared by every binary's parse loop.
inline bool FlagValue(const char* arg, const char* name,
                      std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

enum class FlagParse {
  kConsumed,  // The argument was an experiment flag and was applied.
  kNotMine,   // Not an experiment flag; the caller handles it.
  kError,     // An experiment flag with a malformed value (already
              // reported to stderr).
};

/// Parses all of `text` as a number of type T. Empty input, leading
/// whitespace or '+', trailing characters, a sign on an unsigned type,
/// and out-of-range or non-finite values are rejected (false, *out
/// untouched) — never truncated, wrapped, or thrown.
template <typename T>
bool ParseNumber(const std::string& text, T* out) {
  const char* const end = text.data() + text.size();
  T value{};
  const std::from_chars_result parsed =
      std::from_chars(text.data(), end, value);
  if (text.empty() || parsed.ec != std::errc() || parsed.ptr != end) {
    return false;
  }
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return false;
  }
  *out = value;
  return true;
}

/// `<name>=<number>` through ParseNumber: kNotMine when `arg` is another
/// flag, kError (reported to stderr) when the value does not parse.
template <typename T>
FlagParse NumericFlag(const char* arg, const char* name, T* out) {
  std::string value;
  if (!FlagValue(arg, name, &value)) return FlagParse::kNotMine;
  if (ParseNumber(value, out)) return FlagParse::kConsumed;
  std::fprintf(stderr, "%s wants a number, got '%s'\n", name,
               value.c_str());
  return FlagParse::kError;
}

/// The first verdict that is not kNotMine (each flag name matches at most
/// one entry), so a parse loop can try a list of NumericFlag calls at once.
inline FlagParse FirstMatch(std::initializer_list<FlagParse> verdicts) {
  for (FlagParse verdict : verdicts) {
    if (verdict != FlagParse::kNotMine) return verdict;
  }
  return FlagParse::kNotMine;
}

/// Tries one argv entry against the shared experiment flags.
inline FlagParse ParseExperimentFlag(const char* arg,
                                     ExperimentFlags* flags) {
  if (std::strncmp(arg, "--interarrival=", 15) == 0) {
    flags->interarrival_set = true;
  }
  const FlagParse numeric = FirstMatch({
      NumericFlag(arg, "--scale-tb", &flags->scale_tb),
      NumericFlag(arg, "--queries", &flags->queries),
      NumericFlag(arg, "--interarrival", &flags->interarrival),
      NumericFlag(arg, "--skew", &flags->skew),
      NumericFlag(arg, "--repeat", &flags->repeat),
      NumericFlag(arg, "--seed", &flags->seed),
      NumericFlag(arg, "--regret-a", &flags->regret_a),
      NumericFlag(arg, "--horizon", &flags->horizon),
      NumericFlag(arg, "--credit", &flags->initial_credit),
      NumericFlag(arg, "--tenants", &flags->tenants),
      NumericFlag(arg, "--tenant-skew", &flags->tenant_skew),
      NumericFlag(arg, "--admission-ratio", &flags->admission_ratio),
      NumericFlag(arg, "--nodes", &flags->nodes),
      NumericFlag(arg, "--node-rent-multiplier",
                  &flags->node_rent_multiplier),
      NumericFlag(arg, "--max-nodes", &flags->max_nodes),
  });
  if (numeric != FlagParse::kNotMine) return numeric;

  std::string v;
  if (FlagValue(arg, "--scheme", &v)) {
    flags->scheme = v;
    flags->scheme_set = true;
  } else if (FlagValue(arg, "--catalog", &v)) {
    flags->catalog = v;
  } else if (FlagValue(arg, "--arrival", &v)) {
    flags->arrival = v;
  } else if (std::strcmp(arg, "--build-latency") == 0) {
    flags->build_latency = true;
  } else if (std::strcmp(arg, "--no-plan-cache") == 0) {
    flags->plan_cache = false;
  } else if (std::strcmp(arg, "--fair-eviction") == 0) {
    flags->fair_eviction = true;
  } else if (std::strcmp(arg, "--admission") == 0) {
    flags->admission = true;
  } else if (FlagValue(arg, "--tenant-budget", &v)) {
    // T:P[:M] — tenant index, price-multiplier scale, optional tmax
    // scale. Every field is validated: a stray non-numeric tenant must
    // not silently squeeze tenant 0.
    TenantBudgetShape shape;
    const size_t first = v.find(':');
    const size_t second =
        first == std::string::npos ? first : v.find(':', first + 1);
    const bool parsed =
        first != std::string::npos &&
        ParseNumber(v.substr(0, first), &shape.tenant) &&
        ParseNumber(v.substr(first + 1, second == std::string::npos
                                             ? std::string::npos
                                             : second - first - 1),
                    &shape.price_scale) &&
        (second == std::string::npos ||
         ParseNumber(v.substr(second + 1), &shape.tmax_scale));
    if (!parsed) {
      std::fprintf(stderr,
                   "--tenant-budget wants <tenant>:<price>[:<tmax>] "
                   "(numeric fields)\n");
      return FlagParse::kError;
    }
    flags->tenant_budgets.push_back(shape);
  } else if (FlagValue(arg, "--elastic", &v)) {
    if (v == "on") {
      flags->elastic = true;
    } else if (v == "off") {
      flags->elastic = false;
    } else {
      std::fprintf(stderr, "--elastic wants on|off\n");
      return FlagParse::kError;
    }
  } else {
    return FlagParse::kNotMine;
  }
  return FlagParse::kConsumed;
}

/// Usage fragment for the shared flags (callers append their own).
inline const char* ExperimentFlagsUsage() {
  return
      "  --scheme=bypass|econ-col|econ-cheap|econ-fast   (econ-cheap)\n"
      "  --catalog=tpch|sdss                             (tpch)\n"
      "  --scale-tb=X          TPC-H backend size        (2.5)\n"
      "  --queries=N                                     (50000)\n"
      "  --interarrival=SECS                             (10)\n"
      "  --arrival=fixed|poisson                         (fixed)\n"
      "  --skew=X              template popularity skew  (1.0)\n"
      "  --repeat=P            burst probability         (0.3)\n"
      "  --seed=N                                        (17)\n"
      "  --regret-a=X          a of Eq. 3                (0.02)\n"
      "  --horizon=N           n of Eq. 7                (50000)\n"
      "  --credit=DOLLARS      seed credit               (200)\n"
      "  --build-latency       model structure build latency\n"
      "  --no-plan-cache       disable the plan-skeleton cache (A/B perf)\n"
      "  --tenants=N           concurrent query streams sharing the cache\n"
      "                        (1; >1 merges streams event-driven)\n"
      "  --tenant-skew=X       Zipf skew of per-tenant traffic shares (0)\n"
      "  --fair-eviction       weigh eviction by tenant regret attribution\n"
      "  --admission           throttle tenants with unmonetizable regret\n"
      "  --admission-ratio=X   unmonetized-regret/revenue throttle point (2)\n"
      "  --tenant-budget=T:P[:M]  scale tenant T's budget price multiplier\n"
      "                        by P (and t_max by M); repeatable\n"
      "  --nodes=N             cluster cache nodes (1 = classic single node)\n"
      "  --elastic=on|off      economic node scale-out/in (off)\n"
      "  --node-rent-multiplier=X  rented-node rent vs reservation rate (1)\n"
      "  --max-nodes=N         elasticity ceiling (4)\n";
}

/// Cross-flag validation of the shared surface, as Status so every
/// rejection carries an actionable message.
inline Status ValidateExperimentFlags(const ExperimentFlags& flags) {
  if (flags.tenants == 0) {
    return Status::InvalidArgument("--tenants must be >= 1");
  }
  if (flags.admission_ratio <= 0) {
    return Status::InvalidArgument("--admission-ratio must be > 0");
  }
  for (const TenantBudgetShape& shape : flags.tenant_budgets) {
    if (shape.tenant >= flags.tenants) {
      return Status::InvalidArgument(
          "--tenant-budget tenant " + std::to_string(shape.tenant) +
          " out of range (tenants=" + std::to_string(flags.tenants) + ")");
    }
    // The negated comparison rejects NaN too (NaN > 0 is false).
    if (!(shape.price_scale > 0) || !std::isfinite(shape.price_scale) ||
        !(shape.tmax_scale > 0) || !std::isfinite(shape.tmax_scale)) {
      return Status::InvalidArgument(
          "--tenant-budget scales must be finite and > 0");
    }
  }
  if (flags.nodes == 0) {
    return Status::InvalidArgument("--nodes must be >= 1");
  }
  if (flags.node_rent_multiplier <= 0) {
    return Status::InvalidArgument("--node-rent-multiplier must be > 0");
  }
  return Status::OK();
}

/// Builds the catalog + template set the flags name.
inline Status MakeExperimentCatalog(const ExperimentFlags& flags,
                                    Catalog* catalog,
                                    std::vector<QueryTemplate>* templates) {
  if (flags.catalog == "tpch") {
    *catalog = MakeTpchCatalog(TpchScaleForBytes(static_cast<uint64_t>(
        flags.scale_tb * static_cast<double>(kTB))));
    *templates = MakeTpchTemplates();
    return Status::OK();
  }
  if (flags.catalog == "sdss") {
    *catalog = MakeSdssCatalog();
    *templates = MakeSdssTemplates();
    return Status::OK();
  }
  return Status::InvalidArgument("unknown catalog '" + flags.catalog + "'");
}

/// Builds the one ExperimentConfig every binary shares: workload,
/// tenancy, cluster, scheme kind, and the econ-tuning hook. Checkpoint
/// fields are left at their defaults — they are excluded from the config
/// hash, and each binary wires its own persistence.
inline Result<ExperimentConfig> MakeExperimentFlagsConfig(
    const ExperimentFlags& flags) {
  ExperimentConfig config;
  config.workload.interarrival_seconds = flags.interarrival;
  config.workload.popularity_skew = flags.skew;
  config.workload.repeat_probability = flags.repeat;
  config.workload.seed = flags.seed;
  config.workload.arrival = flags.arrival == "poisson"
                                ? WorkloadOptions::Arrival::kPoisson
                                : WorkloadOptions::Arrival::kFixed;
  config.sim.num_queries = flags.queries;
  config.tenancy.tenants = flags.tenants;
  config.tenancy.traffic_skew = flags.tenant_skew;
  config.tenancy.fair_eviction = flags.fair_eviction;
  config.tenancy.admission = flags.admission;
  if ((flags.fair_eviction || flags.admission) && flags.tenants < 2) {
    std::fprintf(stderr,
                 "note: --fair-eviction/--admission read tenant regret "
                 "attribution; with --tenants=1 they have no effect\n");
  }
  if (!flags.tenant_budgets.empty() && flags.tenants < 2) {
    std::fprintf(stderr,
                 "note: --tenant-budget applies on the multi-tenant path; "
                 "with --tenants=1 it has no effect\n");
  }
  config.tenancy.tenant_budgets = flags.tenant_budgets;
  config.cluster.nodes = flags.nodes;
  config.cluster.elastic = flags.elastic;
  config.cluster.node_rent_multiplier = flags.node_rent_multiplier;
  config.cluster.elasticity.max_nodes =
      std::max(flags.max_nodes, flags.nodes);
  // One amortization horizon prices structure builds and node rent alike.
  config.cluster.elasticity.amortization_horizon = flags.horizon;

  if (flags.scheme == "bypass") {
    config.scheme = SchemeKind::kBypassYield;
  } else if (flags.scheme == "econ-col") {
    config.scheme = SchemeKind::kEconCol;
  } else if (flags.scheme == "econ-cheap") {
    config.scheme = SchemeKind::kEconCheap;
  } else if (flags.scheme == "econ-fast") {
    config.scheme = SchemeKind::kEconFast;
  } else {
    return Status::InvalidArgument("unknown scheme '" + flags.scheme + "'");
  }

  // Hooks are not hashed, so by-value captures keep the config
  // self-contained while every binary applies the identical tuning.
  const double regret_a = flags.regret_a;
  const int64_t horizon = flags.horizon;
  const double initial_credit = flags.initial_credit;
  const bool build_latency = flags.build_latency;
  const double admission_ratio = flags.admission_ratio;
  const bool plan_cache = flags.plan_cache;
  config.customize_econ = [regret_a, horizon, initial_credit, build_latency,
                           admission_ratio,
                           plan_cache](EconScheme::Config& econ) {
    econ.economy.regret_fraction_a = regret_a;
    econ.economy.amortization_horizon = horizon;
    econ.economy.initial_credit = Money::FromDollars(initial_credit);
    econ.economy.model_build_latency = build_latency;
    econ.economy.admission.throttle_ratio = admission_ratio;
    econ.economy.admission.readmit_ratio = admission_ratio / 2;
    econ.enumerator.enable_plan_cache = plan_cache;
  };
  return config;
}

}  // namespace tools
}  // namespace cloudcache
