#include "src/sim/grids.h"

#include <cstdarg>
#include <cstdio>
#include <functional>
#include <utility>

#include "src/sim/report.h"
#include "src/util/logging.h"
#include "src/util/money.h"
#include "src/util/table_writer.h"

namespace cloudcache {

namespace {

// --- The shared metric columns. --------------------------------------------

struct GridColumn {
  const char* name;
  std::string (*value)(const SimMetrics&);
};

Money MaxTenantRegret(const SimMetrics& m) {
  Money max;
  for (const TenantMetrics& tenant : m.tenants) {
    max = Money::Max(max, tenant.final_regret);
  }
  return max;
}

// Several tables name one metric differently (investments / invest /
// loads, evictions / evict); each name is an entry, so every table keeps
// its header.
const GridColumn kColumns[] = {
    {"scheme", [](const SimMetrics& m) { return m.scheme_name; }},
    {"mean_resp_s",
     [](const SimMetrics& m) { return FormatDouble(m.MeanResponse(), 3); }},
    {"op_cost_$",
     [](const SimMetrics& m) {
       return FormatDouble(m.operating_cost.Total(), 2);
     }},
    {"net_$",
     [](const SimMetrics& m) {
       return FormatDouble(m.operating_cost.network_dollars, 2);
     }},
    {"disk_$",
     [](const SimMetrics& m) {
       return FormatDouble(m.operating_cost.disk_dollars, 2);
     }},
    {"hit_rate",
     [](const SimMetrics& m) { return FormatDouble(m.CacheHitRate(), 3); }},
    {"investments",
     [](const SimMetrics& m) { return std::to_string(m.investments); }},
    {"invest",
     [](const SimMetrics& m) { return std::to_string(m.investments); }},
    {"loads",
     [](const SimMetrics& m) { return std::to_string(m.investments); }},
    {"evictions",
     [](const SimMetrics& m) { return std::to_string(m.evictions); }},
    {"evict",
     [](const SimMetrics& m) { return std::to_string(m.evictions); }},
    {"revenue_$",
     [](const SimMetrics& m) {
       return FormatDouble(m.revenue.ToDollars(), 2);
     }},
    {"profit_$",
     [](const SimMetrics& m) {
       return FormatDouble(m.profit.ToDollars(), 2);
     }},
    {"credit_$",
     [](const SimMetrics& m) {
       return FormatDouble(m.final_credit.ToDollars(), 2);
     }},
    {"case_A", [](const SimMetrics& m) { return std::to_string(m.case_a); }},
    {"case_B", [](const SimMetrics& m) { return std::to_string(m.case_b); }},
    {"case_C", [](const SimMetrics& m) { return std::to_string(m.case_c); }},
    {"throttled_q",
     [](const SimMetrics& m) { return std::to_string(m.throttled); }},
    {"jain_resp",
     [](const SimMetrics& m) {
       return FormatDouble(m.fairness.response_jain, 3);
     }},
    {"maxmin_resp",
     [](const SimMetrics& m) {
       return FormatDouble(m.fairness.response_max_min, 3);
     }},
    {"jain_billed",
     [](const SimMetrics& m) {
       return FormatDouble(m.fairness.billed_jain, 3);
     }},
    {"max_tenant_regret_$",
     [](const SimMetrics& m) {
       return FormatDouble(MaxTenantRegret(m).ToDollars(), 2);
     }},
};

const GridColumn& FindColumn(const std::string& name) {
  for (const GridColumn& column : kColumns) {
    if (name == column.name) return column;
  }
  CLOUDCACHE_CHECK(false) << "unknown grid column " << name;
  return kColumns[0];
}

// --- Rendering. -------------------------------------------------------------

void Appendf(std::string* out, const char* format, ...) {
  char buffer[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  *out += buffer;
}

/// "k1=v1 k2=v2" -> {{k1, v1}, {k2, v2}}; an empty label has no pairs.
std::vector<std::pair<std::string, std::string>> LabelPairs(
    const std::string& label) {
  std::vector<std::pair<std::string, std::string>> pairs;
  size_t start = 0;
  while (start < label.size()) {
    size_t end = label.find(' ', start);
    if (end == std::string::npos) end = label.size();
    const std::string pair = label.substr(start, end - start);
    const size_t eq = pair.find('=');
    CLOUDCACHE_CHECK(eq != std::string::npos)
        << "grid variant label wants key=value pairs: " << label;
    pairs.emplace_back(pair.substr(0, eq), pair.substr(eq + 1));
    start = end + 1;
  }
  return pairs;
}

std::string RenderRows(const GridPanel& panel,
                       const std::vector<SweepVariant>& variants,
                       const std::vector<SweepResult>& results) {
  std::vector<std::string> headers;
  for (const auto& [key, value] : LabelPairs(variants.front().label)) {
    headers.push_back(key);
  }
  std::vector<const GridColumn*> columns;
  for (const std::string& name : panel.columns) {
    columns.push_back(&FindColumn(name));
    headers.push_back(name);
  }
  TableWriter table(std::move(headers));
  for (const SweepResult& result : results) {
    std::vector<std::string> cells;
    for (auto& [key, value] :
         LabelPairs(variants[result.cell.variant_index].label)) {
      cells.push_back(std::move(value));
    }
    for (const GridColumn* column : columns) {
      cells.push_back(column->value(result.metrics));
    }
    CLOUDCACHE_CHECK(table.AddRow(std::move(cells)).ok());
  }
  return table.ToAscii();
}

/// rows[i][j] = metrics of scheme j at inter-arrival i, from the results
/// of a single-variant grid (grid order is interval-major, scheme-minor).
std::vector<std::vector<SimMetrics>> RowsByInterarrival(
    const std::vector<SweepResult>& results, size_t num_interarrivals) {
  std::vector<std::vector<SimMetrics>> rows(num_interarrivals);
  for (const SweepResult& result : results) {
    CLOUDCACHE_CHECK(result.cell.interarrival_index < num_interarrivals);
    rows[result.cell.interarrival_index].push_back(result.metrics);
  }
  return rows;
}

/// A paper figure: the inter-arrival x scheme table, then one detail line
/// per cell under a heading per interval.
std::string RenderFigure(
    const TableWriter& table, const char* heading,
    const std::vector<double>& interarrivals,
    const std::vector<std::vector<SimMetrics>>& rows,
    void (*detail)(std::string* out, const SimMetrics& m)) {
  std::string out = table.ToAscii();
  out += "\n";
  out += heading;
  out += "\n";
  for (size_t i = 0; i < interarrivals.size(); ++i) {
    Appendf(&out, "-- interarrival %.0fs --\n", interarrivals[i]);
    for (const SimMetrics& m : rows[i]) detail(&out, m);
  }
  return out;
}

std::string OperatingCostFigure(const std::vector<double>& interarrivals,
                                const std::vector<SweepResult>& results) {
  const auto rows = RowsByInterarrival(results, interarrivals.size());
  return RenderFigure(
      MakeOperatingCostTable(interarrivals, rows),
      "Resource breakdown at each interval:", interarrivals, rows,
      [](std::string* out, const SimMetrics& m) {
        Appendf(out,
                "  %-10s total $%9.2f  (cpu $%8.2f net $%8.2f disk $%8.2f "
                "io $%8.2f)  hit-rate %.2f\n",
                m.scheme_name.c_str(), m.operating_cost.Total(),
                m.operating_cost.cpu_dollars,
                m.operating_cost.network_dollars,
                m.operating_cost.disk_dollars, m.operating_cost.io_dollars,
                m.CacheHitRate());
      });
}

std::string ResponseTimeFigure(const std::vector<double>& interarrivals,
                               const std::vector<SweepResult>& results) {
  const auto rows = RowsByInterarrival(results, interarrivals.size());
  return RenderFigure(
      MakeResponseTimeTable(interarrivals, rows),
      "Latency detail (p50 / p95 / p99) at each interval:", interarrivals,
      rows, [](std::string* out, const SimMetrics& m) {
        Appendf(out,
                "  %-10s mean %7.3fs  p50 %7.3fs  p95 %7.3fs  p99 %7.3fs  "
                "cache-hits %llu invest %llu evict %llu\n",
                m.scheme_name.c_str(), m.MeanResponse(),
                m.response_hist.Quantile(0.5),
                m.response_hist.Quantile(0.95),
                m.response_hist.Quantile(0.99),
                static_cast<unsigned long long>(m.served_in_cache),
                static_cast<unsigned long long>(m.investments),
                static_cast<unsigned long long>(m.evictions));
      });
}

// --- Variant helpers. -------------------------------------------------------

/// Runs `tune` after whatever the hook already does, so a variant adjusts
/// one knob on top of the base tuning (CLI flags included) instead of
/// replacing it.
template <typename Config, typename Tune>
void Chain(std::function<void(Config&)>* hook, Tune tune) {
  *hook = [base = std::move(*hook), tune](Config& config) {
    if (base) base(config);
    tune(config);
  };
}

/// One variant per value: `label(value)` names it (`key=value` pairs) and
/// `apply(value, config)` is its mutation.
template <typename Value, typename Apply>
std::vector<SweepVariant> Variants(const std::vector<Value>& values,
                                   std::string (*label)(const Value&),
                                   Apply apply) {
  std::vector<SweepVariant> variants;
  for (const Value& value : values) {
    variants.push_back({label(value), [value, apply](ExperimentConfig& c) {
                          apply(value, c);
                        }});
  }
  return variants;
}

}  // namespace

std::vector<Grid> MakeGrids() {
  const GridPanel fig4 = {
      "Figure 4 — operating cost (dollars) by inter-arrival time", {},
      OperatingCostFigure};
  const GridPanel fig5 = {
      "Figure 5 — average response time (seconds) by inter-arrival time",
      {}, ResponseTimeFigure};
  const std::vector<double> at_10s = {10.0};
  const std::vector<SchemeKind> econ_cheap = {SchemeKind::kEconCheap};
  const std::vector<SchemeKind> bypass_and_cheap = {SchemeKind::kBypassYield,
                                                    SchemeKind::kEconCheap};
  std::vector<Grid> grids;

  // Figures 4 and 5 (Section VII-B): bypass / econ-col / econ-cheap /
  // econ-fast at inter-query intervals of 1, 10, 30 and 60 seconds, on a
  // 2.5 TB TPC-H back-end over a 25 Mbps WAN at 2009 EC2 prices.
  //
  // Fig. 4, operating cost. Absolute dollars depend on the run length;
  // the paper's claims are about the shape: all schemes stay viable,
  // costs rise with the interval as disk rent accumulates, econ-col
  // undercuts bypass, econ-cheap undercuts both at short intervals, and
  // econ-fast pays extra for nodes.
  //
  // Fig. 5, mean response time. Bypass ~ econ-col (both serve from cached
  // columns only); econ-cheap roughly halves econ-col by probing indexes;
  // econ-fast shaves ~10% more via parallel CPU nodes; the index schemes
  // degrade as the interval grows and structures are evicted before they
  // repay their rent.
  grids.push_back({kDefaultGrid, PaperSchemes(), PaperInterarrivals(),
                   {SweepVariant{}}, {fig4, fig5}});
  grids.push_back({"fig4", PaperSchemes(), PaperInterarrivals(),
                   {SweepVariant{}}, {fig4}});
  grids.push_back({"fig5", PaperSchemes(), PaperInterarrivals(),
                   {SweepVariant{}}, {fig5}});

  // Ablation A1: the regret fraction `a` of Eq. 3,
  // InvestIn(S) = round(regret_S / (a * CR)). Small `a` makes the cloud
  // invest on a hair trigger (many builds, fast adaptation, more sunk cost
  // when the workload drifts); large `a` makes it inert. The paper fixes a
  // single a; this sweep shows the cost/latency trade-off around the
  // calibrated default at the moderate 10 s interval.
  grids.push_back(
      {"regret-threshold", econ_cheap, at_10s,
       Variants<double>(
           {0.005, 0.01, 0.02, 0.05, 0.1, 0.3, 0.6},
           [](const double& a) { return "a=" + FormatDouble(a, 3); },
           [](double a, ExperimentConfig& config) {
             Chain(&config.customize_econ, [a](EconScheme::Config& econ) {
               econ.economy.regret_fraction_a = a;
             });
           }),
       {{"Ablation A1 — regret fraction a (Eq. 3), econ-cheap @ 10s",
         {"mean_resp_s", "op_cost_$", "investments", "evictions",
          "hit_rate", "credit_$"}}}});

  // Ablation A2: the amortization horizon `n` of Eq. 7,
  // f_S(n, Build_S(S)) = Build_S(S) / n. "Selecting n is a challenging
  // problem in itself … We intend to study this problem in our future
  // research" (Section IV-D) — this sweep is that study at simulation
  // scale. Short horizons price hypothetical structures (and freshly
  // built ones) far above the back-end quote, so regret never accrues and
  // nothing is built; long horizons make cache plans cheap but recover the
  // build spend slowly, leaving the account exposed when the workload
  // drifts.
  grids.push_back(
      {"amortization", econ_cheap, at_10s,
       Variants<int64_t>(
           {100, 1'000, 10'000, 50'000, 200'000, 1'000'000},
           [](const int64_t& n) { return "n=" + std::to_string(n); },
           [](int64_t n, ExperimentConfig& config) {
             Chain(&config.customize_econ, [n](EconScheme::Config& econ) {
               econ.economy.amortization_horizon = n;
             });
           }),
       {{"Ablation A2 — amortization horizon n (Eq. 7), econ-cheap @ 10s",
         {"mean_resp_s", "op_cost_$", "investments", "hit_rate",
          "revenue_$", "credit_$"}}}});

  // Ablation A3: WAN throughput between cache and back-end. The paper
  // fixes t = 25 Mbps (the maximum SDSS inter-node throughput [24]).
  // Faster links shrink both the latency and the dollar advantage of
  // caching: transfers cost the same per byte but finish sooner and tie
  // up less fn-CPU, so back-end execution keeps up with the cache and the
  // economy rationally builds less. The sweep locates that crossover.
  grids.push_back(
      {"network", bypass_and_cheap, at_10s,
       Variants<double>(
           {5, 25, 100, 400, 1000},
           [](const double& mbps) {
             return "wan_mbps=" + FormatDouble(mbps, 0);
           },
           [](double mbps, ExperimentConfig& config) {
             config.decision_prices.wan_mbps = mbps;
             config.sim.metered_prices.wan_mbps = mbps;
           }),
       {{"Ablation A3 — WAN throughput sweep @ 10s interval",
         {"scheme", "mean_resp_s", "op_cost_$", "net_$", "hit_rate",
          "investments"}}}});

  // Ablation A4: the bypass-yield cache budget. The paper adopts "the
  // ideal cache size for net-only, which is 30% of the total database
  // size [14]". This sweep validates that adoption in our reproduction:
  // below the hot set the cache thrashes (loads that displace each other
  // before paying off); above it, extra space only adds disk rent without
  // further hits.
  grids.push_back(
      {"cache-size", {SchemeKind::kBypassYield}, at_10s,
       Variants<double>(
           {0.05, 0.10, 0.20, 0.30, 0.40, 0.50},
           [](const double& fraction) {
             return "cache_fraction=" + FormatDouble(fraction, 2);
           },
           [](double fraction, ExperimentConfig& config) {
             Chain(&config.customize_bypass,
                   [fraction](BypassYieldScheme::Options& bypass) {
                     bypass.cache_fraction = fraction;
                     // Eagerized loader (break-even at 1/4 accrual): the
                     // capacity effect the sweep studies binds within the
                     // run length instead of after the paper's million
                     // queries. The *relative* shape across fractions is
                     // what validates the 30% claim.
                     bypass.yield_threshold = 0.25;
                   });
           }),
       {{"Ablation A4 — bypass-yield cache budget (fraction of database) "
         "@ 10s interval",
         {"mean_resp_s", "op_cost_$", "net_$", "disk_$", "hit_rate",
          "loads", "evictions"}}}});

  // Ablation A5: workload locality — the viability conditions of
  // Section VI. "The workload running on the databases should be amenable
  // to caching: First, queries have data access locality … second,
  // queries have temporal locality." Both axes move together: the
  // popularity skew of the template mixture (data locality: how
  // concentrated interest is) and the repeat probability (temporal
  // locality: burstiness). A flat, memoryless workload should strip the
  // economy of its advantage.
  struct Locality {
    double skew;
    double repeat;
  };
  grids.push_back(
      {"locality", bypass_and_cheap, at_10s,
       Variants<Locality>(
           {{0.0, 0.0}, {0.5, 0.1}, {1.0, 0.3}, {1.5, 0.5}, {2.0, 0.7}},
           [](const Locality& point) {
             return "popularity_skew=" + FormatDouble(point.skew, 1) +
                    " repeat_prob=" + FormatDouble(point.repeat, 1);
           },
           [](const Locality& point, ExperimentConfig& config) {
             config.workload.popularity_skew = point.skew;
             config.workload.repeat_probability = point.repeat;
           }),
       {{"Ablation A5 — workload locality sweep @ 10s interval",
         {"scheme", "mean_resp_s", "op_cost_$", "hit_rate",
          "investments"}}}});

  // Ablation A6: user budget-function shape (Fig. 1). The paper's
  // experiments fix a step function; the model allows any non-increasing
  // shape. Shapes that discount slow service steeply (convex) push more
  // interactions into case A (nothing affordable), starve the cloud of
  // profit, and shift regret toward cost-saving structures; deadline-style
  // concave budgets behave like steps until the cliff.
  struct Shape {
    BudgetModelOptions::Shape shape;
    const char* name;
  };
  grids.push_back(
      {"budget-shape", econ_cheap, at_10s,
       Variants<Shape>(
           {{BudgetModelOptions::Shape::kStep, "step"},
            {BudgetModelOptions::Shape::kLinear, "linear"},
            {BudgetModelOptions::Shape::kConvex, "convex"},
            {BudgetModelOptions::Shape::kConcave, "concave"}},
           [](const Shape& shape) {
             return std::string("shape=") + shape.name;
           },
           [](const Shape& point, ExperimentConfig& config) {
             Chain(&config.customize_econ,
                   [shape = point.shape](EconScheme::Config& econ) {
                     econ.budget.shape = shape;
                   });
           }),
       {{"Ablation A6 — user budget shape (Fig. 1), econ-cheap @ 10s",
         {"mean_resp_s", "op_cost_$", "profit_$", "case_A", "case_B",
          "case_C", "investments"}}}});

  // Multi-tenant contention: tenant count x traffic skew for the economy
  // schemes (bypass rides along as the no-economy baseline). N independent
  // query streams — each with its own template mix, arrival rate, and
  // budget jitter stream — merge through the event-driven simulator into
  // one shared cache, while the aggregate offered load stays pinned at the
  // single-stream rate. What the grid shows is therefore pure cross-tenant
  // contention: how much the shared economy's operating cost, response
  // time, and per-tenant fairness move as one stream fragments into many
  // competing ones.
  //
  // Fairness columns: Jain's index and max-min share over per-tenant mean
  // response times, Jain's index over per-tenant billed dollars, and the
  // largest regret the economy still holds for any one tenant at run end
  // (unserved demand the shared cache never priced in).
  struct Tenancy {
    uint32_t tenants;
    double skew;
  };
  grids.push_back(
      {"multi-tenant",
       {SchemeKind::kBypassYield, SchemeKind::kEconCheap,
        SchemeKind::kEconFast},
       at_10s,
       Variants<Tenancy>(
           {{1, 0.0}, {2, 0.0}, {4, 0.0}, {4, 1.0}, {8, 0.0}, {8, 1.0}},
           [](const Tenancy& point) {
             return "tenants=" + std::to_string(point.tenants) +
                    " skew=" + FormatDouble(point.skew, 1);
           },
           [](const Tenancy& point, ExperimentConfig& config) {
             config.tenancy.tenants = point.tenants;
             config.tenancy.traffic_skew = point.skew;
           }),
       {{"Multi-tenant contention (shared cache, load held constant)",
         {"scheme", "op_cost_$", "mean_resp_s", "hit_rate", "jain_resp",
          "maxmin_resp", "jain_billed", "max_tenant_regret_$"}}}});

  // Fairness policies: holds the workload at the most skewed contention
  // point (4 tenants, Zipf skew 1) and toggles the tenant-economics
  // policies — tenant-weighted eviction, admission control, and both — so
  // the cost of fairness is measured against the flags-off economy on the
  // identical query stream. This grid runs the calibrated tenant-locality
  // regime (high template-popularity skew, scarce working capital, the
  // admission point of tests/sim/tenant_policy_test.cpp) because at the
  // paper's own operating point the economy monetizes every tenant and
  // the policies correctly never fire — an all-identical table. The knobs
  // are deliberately frozen copies of that test's scenario; the base
  // tuning supplies the rest of it (regret_fraction_a 0.02, no build
  // latency). The grid still differs from the pinned test in queries and
  // database size: the test owns the guarantee, this grid only
  // demonstrates the regime and may drift from a recalibrated test.
  struct Policy {
    const char* name;
    bool fair_eviction;
    bool admission;
  };
  grids.push_back(
      {"tenant-policy",
       {SchemeKind::kEconCheap, SchemeKind::kEconFast},
       at_10s,
       Variants<Policy>(
           {{"off", false, false},
            {"fair-evict", true, false},
            {"admission", false, true},
            {"both", true, true}},
           [](const Policy& policy) {
             return std::string("policy=") + policy.name;
           },
           [](const Policy& policy, ExperimentConfig& config) {
             config.tenancy.tenants = 4;
             config.tenancy.traffic_skew = 1.0;
             config.tenancy.fair_eviction = policy.fair_eviction;
             config.tenancy.admission = policy.admission;
             config.workload.popularity_skew = 3.0;
             Chain(&config.customize_econ, [](EconScheme::Config& econ) {
               econ.economy.initial_credit = Money::FromDollars(30);
               econ.economy.admission.throttle_ratio = 0.75;
               econ.economy.admission.readmit_ratio = 0.375;
               econ.economy.admission.min_regret = Money::FromDollars(2);
             });
           }),
       {{"Fairness policies (4 tenants, skew 1.0; same stream, flags "
         "toggled)",
         {"scheme", "op_cost_$", "profit_$", "mean_resp_s", "jain_resp",
          "jain_billed", "throttled_q", "invest", "evict"}}}});
  return grids;
}

std::string RunGrid(const Catalog& catalog,
                    const std::vector<QueryTemplate>& templates,
                    const Grid& grid, const ExperimentConfig& base,
                    unsigned n_threads) {
  SweepSpec spec;
  spec.schemes = grid.schemes;
  spec.interarrivals = grid.interarrivals;
  spec.variants = grid.variants;
  spec.base = base;
  // One fprintf per finished cell: atomic across sweep workers.
  const std::vector<SweepResult> results = RunSweep(
      catalog, templates, spec, n_threads,
      [](const SweepCell& cell, const SimMetrics&) {
        std::fprintf(stderr, "  [done] %s\n", cell.label.c_str());
      });

  std::string out;
  for (const GridPanel& panel : grid.panels) {
    if (!out.empty()) out += "\n";
    out += panel.title;
    out += "\n";
    out += panel.figure != nullptr
               ? panel.figure(grid.interarrivals, results)
               : RenderRows(panel, grid.variants, results);
  }
  return out;
}

}  // namespace cloudcache
