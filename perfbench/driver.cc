// perfbench driver: runs one named autoview workload in this process,
// times the calls it makes into each layer, checks the outputs, and
// prints one JSON result line.
//
//   perfbench_driver --workload <learned-job|wk1-full|online-churn>
//                    --seed <n> --seconds <s> --trace <0|1> [--out_dir d]
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics taken from the spans
// recorded around every layer call (see perfbench/README.md).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench/loadgen.h"
#include "checks.h"
#include "core/advisor.h"
#include "core/autoview.h"
#include "core/streaming_problem.h"
#include "costmodel/fallback.h"
#include "costmodel/traditional.h"
#include "costmodel/wide_deep.h"
#include "engine/executor.h"
#include "engine/rewriter.h"
#include "engine/view_store.h"
#include "ilp/problem_index.h"
#include "plan/builder.h"
#include "select/iterview.h"
#include "select/rlview.h"
#include "subquery/clusterer.h"
#include "trace.h"
#include "util/metrics.h"
#include "util/parse.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

using namespace autoview;
using SteadyClock = std::chrono::steady_clock;

const SteadyClock::time_point kProcessStart = SteadyClock::now();

double SecondsSince(SteadyClock::time_point from) {
  return std::chrono::duration<double>(SteadyClock::now() - from).count();
}

double Micros(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// ---------------------------------------------------------------------------
// Sizes of each workload. Every run does whole rounds of the same work.
// ---------------------------------------------------------------------------

constexpr size_t kLearnedJobBaseQueries = 113;  // doubled by twins: 226
constexpr size_t kLearnedJobEpochs = 5;
constexpr size_t kLearnedJobRlEpisodes = 10;
constexpr int kLearnedJobClients = 2;

// Batch advisors run this many times per run; advise_s is the median.
constexpr size_t kAdvisePasses = 3;

constexpr int kWk1Clients = 2;
constexpr size_t kWk1RequestsPerClient = 8000;
constexpr size_t kWk1SelectIterations = 60;

constexpr int kChurnSchedules = 4;
constexpr size_t kChurnRequests = 800;
// The schedule's first quarter is warm-up: its active set is ingested
// and served, with six re-selections. Measured requests start where the
// active set first churns. A shorter warm-up made setup_s depend on how
// many distinct queries the seed put into it.
constexpr size_t kChurnWarmup = kChurnRequests / 4;
constexpr size_t kChurnEpoch = 32;
constexpr size_t kChurnWindow = 128;
constexpr size_t kChurnSelectIterations = 40;
constexpr uint64_t kChurnBudgetBytes = 96 * 1024;

// ---------------------------------------------------------------------------
// Result collection
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  ///< failed correctness checks

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Check(const Status& status, const std::string& what) {
    if (!status.ok() && errors.size() < 20) {
      errors.push_back(what + ": " + status.ToString());
    }
  }
};

double Pct(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  return Percentile(values, p);
}

double PctNs(const std::vector<int64_t>& ns, double p, double scale) {
  std::vector<double> values;
  values.reserve(ns.size());
  for (int64_t v : ns) values.push_back(scale * static_cast<double>(v));
  return Pct(std::move(values), p);
}

/// p-th percentile of each window of `window` consecutive samples (the
/// last window absorbs the remainder), then the median over windows: a
/// tail percentile that one short stall of the host cannot move. With
/// fewer than `window` samples it is the plain percentile.
double WindowedPct(const std::vector<double>& values, double p,
                   size_t window) {
  const size_t windows = values.size() / window;
  if (windows < 2) return Pct(values, p);
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    const auto begin = values.begin() + static_cast<ptrdiff_t>(w * window);
    const auto end = w + 1 == windows
                         ? values.end()
                         : begin + static_cast<ptrdiff_t>(window);
    per_window.push_back(Pct(std::vector<double>(begin, end), p));
  }
  return Pct(std::move(per_window), 50);
}

/// Requests per p99 window: at least ten samples beyond the p99.
constexpr size_t kTailWindow = 1000;

/// One served request (parse -> rewrite -> execute).
struct Served {
  size_t query = 0;
  bool traced = false;  ///< served in a traced round
  double latency_ms = 0.0;
  double fee = 0.0;         ///< Pricing::QueryCost of the served plan
  double work_units = 0.0;  ///< CostReport::cpu_units of the served plan
  size_t substitutions = 0;
  bool cache_hit = false;
};

/// Base-plan reference of one distinct query, from the answer check.
struct BaseRef {
  double fee = 0.0;
  double work_units = 0.0;
};

/// Serves one request through the program's serving path. `pins` keeps
/// the substituted views alive for the caller (the online answer check
/// executes the same plan again before releasing them).
bool ServeOne(const Catalog& catalog, const std::string& sql,
              const Rewriter& rewriter, const Executor& executor,
              MaterializedViewStore* store, const Pricing& pricing,
              Tracer* tracer, size_t lane, int64_t request, Served* out,
              PlanNodePtr* served_plan = nullptr,
              ViewSetSnapshot* pins = nullptr) {
  ScopedSpan span(tracer, lane, "serve.request", request);
  const auto start = SteadyClock::now();
  Result<PlanNodePtr> plan = [&] {
    ScopedSpan s(tracer, lane, "plan.BuildFromSql", request);
    PlanBuilder builder(&catalog);
    return builder.BuildFromSql(sql);
  }();
  if (!plan.ok()) return false;
  Result<ServingRewrite> serving = [&] {
    ScopedSpan s(tracer, lane, "rewrite.RewriteServing", request);
    return rewriter.RewriteServing(plan.value(), store);
  }();
  if (!serving.ok()) return false;
  Result<CostReport> cost = [&] {
    ScopedSpan s(tracer, lane, "execute.ExecuteForCost", request);
    return executor.ExecuteForCost(*serving.value().plan);
  }();
  if (!cost.ok()) return false;
  const auto done = SteadyClock::now();
  out->latency_ms = 1e-3 * Micros(start, done);
  out->fee = pricing.QueryCost(cost.value());
  out->work_units = cost.value().cpu_units;
  out->substitutions = serving.value().num_substitutions;
  out->cache_hit = serving.value().cache_hit;
  if (served_plan != nullptr) *served_plan = serving.value().plan;
  if (pins != nullptr) *pins = std::move(serving.value().pins);
  return true;
}

/// Executes `sql` as written and through the store, compares the two
/// answers, and returns the base plan's fee and work.
Result<BaseRef> CheckQuery(const Catalog& catalog, const std::string& sql,
                           const Executor& executor,
                           const PlanNodePtr& rewritten, const Pricing& pricing,
                           Outcome* outcome, size_t query) {
  PlanBuilder builder(&catalog);
  AV_ASSIGN_OR_RETURN(PlanNodePtr base, builder.BuildFromSql(sql));
  AV_ASSIGN_OR_RETURN(ExecResult base_result, executor.Execute(*base));
  AV_ASSIGN_OR_RETURN(ExecResult served_result, executor.Execute(*rewritten));
  outcome->Check(CheckAnswer(base_result.table, served_result.table),
                 "query " + std::to_string(query));
  return BaseRef{pricing.QueryCost(base_result.cost),
                 base_result.cost.cpu_units};
}

/// Serving statistics shared by all workloads.
struct ServingSummary {
  std::vector<Served> served;  ///< every request, all rounds
  std::vector<double> round_qps;  ///< untraced rounds' throughput
  size_t rounds = 0;
  size_t round_requests = 0;  ///< requests per round
};

/// The per-layer serving metrics plus the end-to-end serving metrics;
/// `base` maps each query to its base-plan reference.
void ReportServing(const ServingSummary& s,
                   const std::map<size_t, BaseRef>& base, const Tracer& tracer,
                   Outcome* outcome, double qps) {
  std::vector<double> untraced_ms, traced_ms;
  double fee = 0.0, base_fee = 0.0, work = 0.0, base_work = 0.0;
  size_t hits = 0, substitutions = 0;
  for (size_t n = 0; n < s.served.size(); ++n) {
    const Served& r = s.served[n];
    (r.traced ? traced_ms : untraced_ms).push_back(r.latency_ms);
    const auto it = base.find(r.query);
    if (it == base.end()) continue;
    fee += r.fee;
    base_fee += it->second.fee;
    if (n < s.round_requests) {
      work += r.work_units;
      base_work += it->second.work_units;
    }
    hits += r.cache_hit ? 1 : 0;
    substitutions += r.substitutions;
  }
  const double n = static_cast<double>(std::max<size_t>(1, s.served.size()));
  if (!tracer.enabled()) {
    outcome->Add("serve_qps", qps, "req/s");
    outcome->Add("serve_p50_ms", Pct(untraced_ms, 50), "ms");
    // A round shorter than a window replays the whole log. Windows of
    // whole rounds then hold every query equally often, so which of the
    // few heaviest queries the p99 lands on does not depend on where a
    // window cuts a round (or on the seeded order within it).
    const size_t round = std::max<size_t>(1, s.round_requests);
    const size_t window = round < kTailWindow
                              ? (kTailWindow + round - 1) / round * round
                              : kTailWindow;
    outcome->Add("serve_p99_ms", WindowedPct(untraced_ms, 99, window), "ms");
    outcome->Add("cost_saved_pct",
                 base_fee > 0 ? 100.0 * (1.0 - fee / base_fee) : 0.0, "%");
    return;
  }
  outcome->Add("plan.parse_p50_us",
               PctNs(tracer.DurationsNs("plan.BuildFromSql"), 50, 1e-3), "us");
  outcome->Add("plan.parse_p99_us",
               PctNs(tracer.DurationsNs("plan.BuildFromSql"), 99, 1e-3), "us");
  outcome->Add("rewrite.p50_us",
               PctNs(tracer.DurationsNs("rewrite.RewriteServing"), 50, 1e-3),
               "us");
  outcome->Add("rewrite.p99_us",
               PctNs(tracer.DurationsNs("rewrite.RewriteServing"), 99, 1e-3),
               "us");
  outcome->Add("rewrite.cache_hit_pct", 100.0 * static_cast<double>(hits) / n,
               "%");
  outcome->Add("rewrite.substitutions_per_request",
               static_cast<double>(substitutions) / n, "count");
  outcome->Add("execute.p50_us",
               PctNs(tracer.DurationsNs("execute.ExecuteForCost"), 50, 1e-3),
               "us");
  outcome->Add("execute.p99_us",
               PctNs(tracer.DurationsNs("execute.ExecuteForCost"), 99, 1e-3),
               "us");
  outcome->Add("execute.work_units", work, "count");
  outcome->Add("execute.base_work_units", base_work, "count");
  const double traced_p50 = Pct(traced_ms, 50);
  const double untraced_p50 = Pct(untraced_ms, 50);
  outcome->Add("trace.serve_overhead_pct",
               untraced_p50 > 0 ? 100.0 * (traced_p50 / untraced_p50 - 1.0)
                                : 0.0,
               "%");
}

/// One request list per client.
using Schedule = std::vector<std::vector<size_t>>;

/// Batch serving: closed-loop clients, each running its own request
/// list, in whole rounds until `seconds` have passed (at least
/// `min_rounds`). `round_schedule(r)` gives round r's lists; every round
/// gives each client as many requests. With `cold_cache` the rewrite
/// cache is cleared before each round, so every round sees the same hit
/// pattern.
/// A traced run serves at least four rounds, traced in the pattern
/// untraced, traced, traced, untraced, so drift over the run cancels out
/// of the tracing overhead (traced vs untraced median latency).
ServingSummary ServeRounds(const GeneratedWorkload& workload,
                           const std::function<Schedule(size_t)>& round_schedule,
                           MaterializedViewStore* store, const Pricing& pricing,
                           Tracer* tracer, double seconds, bool cold_cache,
                           Outcome* outcome) {
  const Catalog& catalog = workload.db->catalog();
  Rewriter rewriter(&catalog);
  Executor executor(workload.db.get());
  Tracer off(false, 0);
  ServingSummary summary;
  std::vector<int64_t> first_request;  ///< client c's first id in a round
  Schedule schedule = round_schedule(0);
  for (const auto& list : schedule) {
    first_request.push_back(static_cast<int64_t>(summary.round_requests));
    summary.round_requests += list.size();
  }
  const size_t min_rounds = tracer->enabled() ? 4 : 1;
  const auto serve_start = SteadyClock::now();
  ThreadPool& pool = DefaultPool();
  while (summary.rounds < min_rounds || SecondsSince(serve_start) < seconds) {
    if (summary.rounds > 0) schedule = round_schedule(summary.rounds);
    if (cold_cache) store->rewrite_cache().Clear();
    const bool traced = tracer->enabled() && (summary.rounds % 4 == 1 ||
                                              summary.rounds % 4 == 2);
    Tracer* round_tracer = traced ? tracer : &off;
    std::vector<std::vector<Served>> per_client(schedule.size());
    std::vector<size_t> errors(schedule.size(), 0);
    const auto round_start = SteadyClock::now();
    pool.ParallelFor(0, schedule.size(), [&](size_t c) {
      per_client[c].reserve(schedule[c].size());
      int64_t request =
          static_cast<int64_t>(summary.rounds * summary.round_requests) +
          first_request[c];
      for (size_t qi : schedule[c]) {
        Served r;
        r.query = qi;
        r.traced = traced;
        if (ServeOne(catalog, workload.sql[qi], rewriter, executor, store,
                     pricing, round_tracer, 1 + c, request++, &r)) {
          per_client[c].push_back(r);
        } else {
          ++errors[c];
        }
      }
    });
    if (!traced) {
      const double wall = SecondsSince(round_start);
      summary.round_qps.push_back(
          static_cast<double>(summary.round_requests) / wall);
    }
    // Round-major, client-minor order keeps round 0 first.
    for (size_t c = 0; c < schedule.size(); ++c) {
      summary.served.insert(summary.served.end(), per_client[c].begin(),
                            per_client[c].end());
      outcome->attempted += schedule[c].size();
      outcome->failed += errors[c];
    }
    ++summary.rounds;
  }
  return summary;
}

/// Answer check of every distinct query in `summary`, outside the timed
/// rounds: base answer vs the answer of the plan the store serves.
std::map<size_t, BaseRef> CheckServedAnswers(const GeneratedWorkload& workload,
                                             const ServingSummary& summary,
                                             MaterializedViewStore* store,
                                             const Pricing& pricing,
                                             Outcome* outcome) {
  std::set<size_t> distinct;
  for (const Served& r : summary.served) distinct.insert(r.query);
  const std::vector<size_t> queries(distinct.begin(), distinct.end());
  std::vector<BaseRef> refs(queries.size());
  std::vector<Outcome> partial(queries.size());
  const Catalog& catalog = workload.db->catalog();
  Rewriter rewriter(&catalog);
  Executor executor(workload.db.get());
  DefaultPool().ParallelFor(
      0, queries.size(),
      [&](size_t n) {
        const size_t qi = queries[n];
        PlanBuilder builder(&catalog);
        Result<PlanNodePtr> plan = builder.BuildFromSql(workload.sql[qi]);
        if (!plan.ok()) {
          partial[n].Check(plan.status(), "parse");
          return;
        }
        Result<ServingRewrite> serving =
            rewriter.RewriteServing(plan.value(), store);
        if (!serving.ok()) {
          partial[n].Check(serving.status(), "rewrite");
          return;
        }
        Result<BaseRef> ref =
            CheckQuery(catalog, workload.sql[qi], executor,
                       serving.value().plan, pricing, &partial[n], qi);
        if (!ref.ok()) {
          partial[n].Check(ref.status(), "execute");
          return;
        }
        refs[n] = ref.value();
      },
      16);
  std::map<size_t, BaseRef> base;
  for (size_t n = 0; n < queries.size(); ++n) {
    for (const std::string& e : partial[n].errors) outcome->errors.push_back(e);
    base[queries[n]] = refs[n];
  }
  return base;
}

/// Materializes the chosen views into `store`, each scored with its
/// solver utility. A budget rejection is not an error (its queries are
/// served from base tables).
Status MaterializeSolution(const std::vector<PlanNodePtr>& plans,
                           const std::vector<bool>& z,
                           const std::vector<double>& utility,
                           const Executor& executor,
                           MaterializedViewStore* store) {
  for (size_t j = 0; j < z.size(); ++j) {
    if (!z[j]) continue;
    MaterializeOptions mopts;
    mopts.utility = utility[j];
    Result<const MaterializedView*> view =
        store->Materialize(plans[j], executor, mopts);
    if (!view.ok() && view.status().code() != StatusCode::kResourceExhausted) {
      return view.status();
    }
  }
  return Status::OK();
}

size_t CountTrue(const std::vector<bool>& z) {
  return static_cast<size_t>(std::count(z.begin(), z.end(), true));
}

/// Per-layer metrics a workload does not exercise are reported as 0 so
/// every traced run carries the same metric names.
void AddAbsent(Outcome* outcome, const std::vector<std::string>& names) {
  static const std::map<std::string, std::string> kUnits = {
      {"subquery.cluster_s", "s"},
      {"ilp.problem_build_s", "s"},
      {"ilp.csr_bytes", "bytes"},
      {"advisor.ingest_p50_us", "us"},
      {"advisor.ingest_p99_us", "us"},
      {"advisor.reselect_p50_ms", "ms"},
      {"advisor.reselections", "count"},
      {"advisor.swaps", "count"},
      {"advisor.views_materialized", "count"},
      {"advisor.materialize_rejected", "count"},
      {"advisor.churn_events", "count"},
      {"costmodel.ground_truth_s", "s"},
      {"costmodel.train_s", "s"},
      {"costmodel.estimate_s", "s"},
      {"costmodel.train_samples", "count"},
      {"costmodel.mape_pct", "%"},
      {"select.iterview_s", "s"},
      {"select.rlview_s", "s"},
      {"store.materialize_s", "s"},
  };
  for (const std::string& name : names) {
    outcome->Add(name, 0.0, kUnits.at(name));
  }
}

/// Peak RSS so far. Batch workloads read it right after serving, before
/// their answer checks and repeated advisor passes, so it is the peak of
/// one advisor plus serving.
double PeakRssMb() {
  return static_cast<double>(PeakRssBytes()) / (1024.0 * 1024.0);
}

/// Median duration (s) of the spans called `name`: batch advisor stages
/// run once per pass.
double MedianSpanSeconds(const Tracer& tracer, const std::string& name) {
  return PctNs(tracer.DurationsNs(name), 50, 1e-9);
}

/// The log, in a seeded order, dealt round-robin to `clients`.
Schedule ReplaySchedule(uint64_t seed, size_t queries, int clients) {
  std::vector<size_t> order(queries);
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(seed);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<size_t>(rng.UniformInt(
                                0, static_cast<int64_t>(i) - 1))]);
  }
  Schedule schedule(static_cast<size_t>(clients));
  for (size_t i = 0; i < order.size(); ++i) {
    schedule[i % static_cast<size_t>(clients)].push_back(order[i]);
  }
  return schedule;
}

// ---------------------------------------------------------------------------
// learned-job: exact ground truth, Wide-Deep training, EstimateProblem,
// RLView (Table V W&R), then the log replayed through the chosen views.
// ---------------------------------------------------------------------------

/// One pass of the learned advisor, from the raw log to views in a
/// store, plus what the checks read afterwards.
struct LearnedAdvisor {
  std::unique_ptr<AutoViewSystem> system;
  std::unique_ptr<TraditionalEstimator> optimizer;
  std::unique_ptr<WideDeepEstimator> wide_deep;
  std::unique_ptr<FallbackEstimator> guarded;
  MvsProblem problem;
  MvsSolution solution;
  double advise_s = 0.0;
};

/// Runs one advisor pass into `store`. With `execute_solution`, Table
/// V's own end-to-end report of the solution runs between selection and
/// materialization, outside advise_s: it evaluates the views, it does
/// not choose them (and it installs and drops views of its own).
Status RunLearnedPass(const GeneratedWorkload& workload, Tracer* tracer,
                      MaterializedViewStore* store, bool execute_solution,
                      LearnedAdvisor* out) {
  auto start = SteadyClock::now();
  const Catalog* catalog = &workload.db->catalog();
  AutoViewOptions options;
  options.exact_benefits = true;
  out->system = std::make_unique<AutoViewSystem>(workload.db.get(), options);
  AutoViewSystem& system = *out->system;
  {
    ScopedSpan s(tracer, 0, "core.LoadWorkload");
    AV_RETURN_NOT_OK(system.LoadWorkload(workload.sql));
  }
  {
    ScopedSpan s(tracer, 0, "core.BuildGroundTruth");
    AV_RETURN_NOT_OK(system.BuildGroundTruth());
  }
  out->optimizer =
      std::make_unique<TraditionalEstimator>(catalog, system.pricing());
  WideDeepOptions wd_options = WideDeepOptions::Full();
  wd_options.epochs = kLearnedJobEpochs;
  out->wide_deep = std::make_unique<WideDeepEstimator>(catalog, wd_options);
  out->guarded = std::make_unique<FallbackEstimator>(out->wide_deep.get(),
                                                     out->optimizer.get());
  {
    ScopedSpan s(tracer, 0, "costmodel.WideDeepEstimator.Train");
    AV_RETURN_NOT_OK(out->guarded->Train(system.cost_dataset()));
  }
  {
    ScopedSpan s(tracer, 0, "core.EstimateProblem");
    AV_ASSIGN_OR_RETURN(out->problem, system.EstimateProblem(*out->guarded));
  }
  {
    ScopedSpan s(tracer, 0, "select.RLViewSelector.Select");
    RLViewSelector::Options rl_options;
    rl_options.init_iterations = 10;
    rl_options.episodes = kLearnedJobRlEpisodes;
    rl_options.seed = 11;
    RLViewSelector rlview(rl_options);
    AV_ASSIGN_OR_RETURN(out->solution, rlview.Select(out->problem));
  }
  out->advise_s = SecondsSince(start);
  if (execute_solution) {
    ScopedSpan s(tracer, 0, "core.ExecuteSolution");
    AV_ASSIGN_OR_RETURN(EndToEndReport report,
                        system.ExecuteSolution(out->solution));
    if (report.num_views != CountTrue(out->solution.z)) {
      return Status::Internal(
          "ExecuteSolution materialized " + std::to_string(report.num_views) +
          " views, the selection chose " +
          std::to_string(CountTrue(out->solution.z)));
    }
  }
  start = SteadyClock::now();
  {
    ScopedSpan s(tracer, 0, "store.Materialize");
    std::vector<PlanNodePtr> plans;
    std::vector<double> utility;
    for (size_t j = 0; j < out->problem.num_views(); ++j) {
      plans.push_back(system.candidates()[j].plan);
      utility.push_back(out->problem.MaxBenefit(j) - out->problem.overhead[j]);
    }
    Executor executor(workload.db.get());
    AV_RETURN_NOT_OK(MaterializeSolution(plans, out->solution.z, utility,
                                         executor, store));
  }
  out->advise_s += SecondsSince(start);
  return Status::OK();
}

Outcome RunLearnedJob(uint64_t seed, double seconds, Tracer* tracer) {
  Outcome outcome;
  GeneratedWorkload workload = [&] {
    ScopedSpan s(tracer, 0, "workload.GenerateJobWorkload");
    JobWorkloadSpec spec;
    spec.base_queries = kLearnedJobBaseQueries;
    return GenerateJobWorkload(spec);
  }();
  const double generate_s = SecondsSince(kProcessStart);

  LearnedAdvisor advisor;
  auto store = std::make_unique<MaterializedViewStore>(workload.db.get(),
                                                       ViewStoreOptions());
  outcome.Check(RunLearnedPass(workload, tracer, store.get(), true, &advisor),
                "advisor pass 1");
  if (!outcome.errors.empty()) return outcome;
  const Pricing pricing = advisor.system->pricing();
  const double setup_s = SecondsSince(kProcessStart);
  // Every round replays the log in a fresh order from the seed's stream.
  // A single order, repeated, fixed for the whole run which queries ran
  // side by side and back to back: serve_p99_ms then differed by about
  // 20% between two seeds, run after run.
  ServingSummary serving = ServeRounds(
      workload,
      [&](size_t round) {
        return ReplaySchedule(Rng::StreamSeed(seed, round),
                              workload.sql.size(), kLearnedJobClients);
      },
      store.get(), pricing, tracer, seconds, false, &outcome);
  // Median over rounds: a short stall of the host moves one round only.
  const double qps = Pct(serving.round_qps, 50);
  // Read before the checks, which execute every served query twice.
  const double rss_mb = PeakRssMb();

  // Checks, outside every timed section.
  const std::map<size_t, BaseRef> base = CheckServedAnswers(
      workload, serving, store.get(), pricing, &outcome);
  const MvsProblem& problem = advisor.problem;
  outcome.Check(
      CheckSolution(CompactMvsProblem::FromDense(problem), advisor.solution),
      "RLView solution");
  const std::vector<CostSample>& dataset = advisor.system->cost_dataset();
  const std::vector<double> estimates =
      advisor.guarded->EstimateBatch(dataset);
  outcome.Check(CheckEstimates(estimates, advisor.guarded->fallback_calls()),
                "Wide-Deep estimates");
  std::vector<double> cells = problem.overhead;
  for (const std::vector<double>& row : problem.benefit) {
    cells.insert(cells.end(), row.begin(), row.end());
  }
  outcome.Check(CheckEstimates(cells, 0), "estimated problem");
  std::vector<double> targets;
  for (const CostSample& sample : dataset) targets.push_back(sample.target);
  const size_t candidates = advisor.system->analysis().candidates.size();
  const size_t store_views = store->size();
  const uint64_t store_bytes = store->bytes_used();
  // A destroyed store leaves its backing tables registered in the
  // database; drop them so the next pass can reuse the __mv_ names.
  outcome.Check(store->Clear(), "Clear");
  store.reset();

  // Passes 2.. repeat the advisor for a median; each must choose the
  // same views as the first.
  std::vector<double> advise = {advisor.advise_s};
  for (size_t pass = 1; pass < kAdvisePasses; ++pass) {
    LearnedAdvisor again;
    MaterializedViewStore pass_store(workload.db.get(), ViewStoreOptions());
    outcome.Check(RunLearnedPass(workload, tracer, &pass_store, false, &again),
                  "advisor pass " + std::to_string(pass + 1));
    outcome.Check(pass_store.Clear(), "Clear");
    if (again.solution.z != advisor.solution.z) {
      outcome.Check(Status::Internal("selection differs from pass 1"),
                    "advisor pass " + std::to_string(pass + 1));
    }
    advise.push_back(again.advise_s);
  }

  if (!tracer->enabled()) {
    outcome.Add("setup_s", setup_s, "s");
    outcome.Add("advise_s", Pct(advise, 50), "s");
    outcome.Add("peak_rss_mb", rss_mb, "MB");
    ReportServing(serving, base, *tracer, &outcome, qps);
    return outcome;
  }
  outcome.Add("workload.generate_s", generate_s, "s");
  ReportServing(serving, base, *tracer, &outcome, qps);
  outcome.Add("subquery.cluster_s",
              MedianSpanSeconds(*tracer, "core.LoadWorkload"), "s");
  outcome.Add("subquery.candidates", static_cast<double>(candidates), "count");
  outcome.Add("costmodel.ground_truth_s",
              MedianSpanSeconds(*tracer, "core.BuildGroundTruth"), "s");
  outcome.Add("costmodel.train_s",
              MedianSpanSeconds(*tracer, "costmodel.WideDeepEstimator.Train"),
              "s");
  outcome.Add("costmodel.estimate_s",
              MedianSpanSeconds(*tracer, "core.EstimateProblem"), "s");
  outcome.Add("costmodel.train_samples", static_cast<double>(dataset.size()),
              "count");
  outcome.Add("costmodel.mape_pct", MapePct(estimates, targets), "%");
  outcome.Add("select.rlview_s",
              MedianSpanSeconds(*tracer, "select.RLViewSelector.Select"), "s");
  outcome.Add("select.utility", advisor.solution.utility, "USD");
  outcome.Add("select.views",
              static_cast<double>(CountTrue(advisor.solution.z)), "count");
  outcome.Add("store.materialize_s",
              MedianSpanSeconds(*tracer, "store.Materialize"), "s");
  outcome.Add("store.views", static_cast<double>(store_views), "count");
  outcome.Add("store.bytes", static_cast<double>(store_bytes), "bytes");
  outcome.Add("store.evictions", 0.0, "count");
  AddAbsent(&outcome,
            {"ilp.problem_build_s", "ilp.csr_bytes", "advisor.ingest_p50_us",
             "advisor.ingest_p99_us", "advisor.reselect_p50_ms",
             "advisor.reselections", "advisor.swaps",
             "advisor.views_materialized", "advisor.materialize_rejected",
             "advisor.churn_events", "select.iterview_s"});
  return outcome;
}

// ---------------------------------------------------------------------------
// wk1-full: the streaming advisor at Table I WK1 scale, then closed-loop
// serving of a uniform request mix with a cold rewrite cache.
// ---------------------------------------------------------------------------

/// One pass of the streaming advisor, from the raw log to views in a
/// store.
struct StreamingAdvisor {
  StreamingProblem problem;
  MvsSolution solution;
  size_t candidates = 0;
  double advise_s = 0.0;
};

Status RunWk1Pass(const GeneratedWorkload& workload, Tracer* tracer,
                  MaterializedViewStore* store, StreamingAdvisor* out) {
  const auto start = SteadyClock::now();
  const Catalog& catalog = workload.db->catalog();
  const auto query_fn = [&](size_t qi) -> PlanNodePtr {
    PlanBuilder builder(&catalog);
    Result<PlanNodePtr> plan = builder.BuildFromSql(workload.sql[qi]);
    return plan.ok() ? std::move(plan).value() : nullptr;
  };
  WorkloadAnalysis analysis = [&] {
    ScopedSpan s(tracer, 0, "subquery.AnalyzeStreaming");
    SubqueryClusterer clusterer;
    return clusterer.AnalyzeStreaming(workload.sql.size(), query_fn);
  }();
  out->candidates = analysis.candidates.size();
  {
    ScopedSpan s(tracer, 0, "ilp.BuildStreamingProblem");
    AV_ASSIGN_OR_RETURN(out->problem,
                        BuildStreamingProblem(catalog, analysis, query_fn,
                                              StreamingProblemOptions()));
  }
  analysis = WorkloadAnalysis();  // nothing downstream reads it
  const MvsProblemIndex index(out->problem.compact);
  {
    ScopedSpan s(tracer, 0, "select.IterViewSelector.SelectIndexed");
    IterViewSelector::Options select_options;
    select_options.iterations = kWk1SelectIterations;
    IterViewSelector selector(select_options);
    AV_ASSIGN_OR_RETURN(out->solution, selector.SelectIndexed(index));
  }
  if (out->solution.timed_out) return Status::Internal("IterView timed out");
  {
    ScopedSpan s(tracer, 0, "store.Materialize");
    std::vector<double> utility(index.num_views());
    for (size_t j = 0; j < utility.size(); ++j) {
      utility[j] = index.ViewUtility(j);
    }
    Executor executor(workload.db.get());
    AV_RETURN_NOT_OK(MaterializeSolution(out->problem.candidate_plans,
                                         out->solution.z, utility, executor,
                                         store));
  }
  out->advise_s = SecondsSince(start);
  return Status::OK();
}

Outcome RunWk1Full(uint64_t seed, double seconds, Tracer* tracer) {
  Outcome outcome;
  GeneratedWorkload workload = [&] {
    ScopedSpan s(tracer, 0, "workload.GenerateCloudWorkload");
    return GenerateCloudWorkload(Wk1FullSpec());
  }();
  const double generate_s = SecondsSince(kProcessStart);

  auto advisor = std::make_unique<StreamingAdvisor>();
  auto store = std::make_unique<MaterializedViewStore>(workload.db.get(),
                                                       ViewStoreOptions());
  outcome.Check(RunWk1Pass(workload, tracer, store.get(), advisor.get()),
                "advisor pass 1");
  if (!outcome.errors.empty()) return outcome;
  const Pricing pricing = StreamingProblemOptions().pricing;
  const Schedule schedule = BuildSchedule(
      seed, kWk1Clients, kWk1RequestsPerClient, workload.sql.size());
  const double setup_s = SecondsSince(kProcessStart);
  ServingSummary serving = ServeRounds(
      workload, [&](size_t) { return schedule; }, store.get(), pricing,
      tracer, seconds, true, &outcome);
  // Median over rounds: a short stall of the host moves one round only.
  const double qps = Pct(serving.round_qps, 50);
  // Read before the checks, which execute every served query twice.
  const double rss_mb = PeakRssMb();

  const std::map<size_t, BaseRef> base = CheckServedAnswers(
      workload, serving, store.get(), pricing, &outcome);
  outcome.Check(CheckSolution(advisor->problem.compact, advisor->solution),
                "IterView solution");
  const std::vector<bool> chosen = advisor->solution.z;
  const double utility = advisor->solution.utility;
  const size_t candidates = advisor->candidates;
  const double csr_bytes =
      static_cast<double>(advisor->problem.compact.rows.byte_size());
  const size_t store_views = store->size();
  const uint64_t store_bytes = store->bytes_used();
  std::vector<double> advise = {advisor->advise_s};
  // A destroyed store leaves its backing tables registered in the
  // database; drop them so the next pass can reuse the __mv_ names.
  outcome.Check(store->Clear(), "Clear");
  store.reset();
  advisor.reset();

  // Passes 2.. repeat the advisor for a median; each must choose the
  // same views as the first.
  for (size_t pass = 1; pass < kAdvisePasses; ++pass) {
    StreamingAdvisor again;
    MaterializedViewStore pass_store(workload.db.get(), ViewStoreOptions());
    outcome.Check(RunWk1Pass(workload, tracer, &pass_store, &again),
                  "advisor pass " + std::to_string(pass + 1));
    outcome.Check(pass_store.Clear(), "Clear");
    if (again.solution.z != chosen) {
      outcome.Check(Status::Internal("selection differs from pass 1"),
                    "advisor pass " + std::to_string(pass + 1));
    }
    advise.push_back(again.advise_s);
  }

  if (!tracer->enabled()) {
    outcome.Add("setup_s", setup_s, "s");
    outcome.Add("advise_s", Pct(advise, 50), "s");
    outcome.Add("peak_rss_mb", rss_mb, "MB");
    ReportServing(serving, base, *tracer, &outcome, qps);
    return outcome;
  }
  outcome.Add("workload.generate_s", generate_s, "s");
  ReportServing(serving, base, *tracer, &outcome, qps);
  outcome.Add("subquery.cluster_s",
              MedianSpanSeconds(*tracer, "subquery.AnalyzeStreaming"), "s");
  outcome.Add("subquery.candidates", static_cast<double>(candidates), "count");
  outcome.Add("ilp.problem_build_s",
              MedianSpanSeconds(*tracer, "ilp.BuildStreamingProblem"), "s");
  outcome.Add("ilp.csr_bytes", csr_bytes, "bytes");
  outcome.Add(
      "select.iterview_s",
      MedianSpanSeconds(*tracer, "select.IterViewSelector.SelectIndexed"),
      "s");
  outcome.Add("select.utility", utility, "USD");
  outcome.Add("select.views", static_cast<double>(CountTrue(chosen)),
              "count");
  outcome.Add("store.materialize_s",
              MedianSpanSeconds(*tracer, "store.Materialize"), "s");
  outcome.Add("store.views", static_cast<double>(store_views), "count");
  outcome.Add("store.bytes", static_cast<double>(store_bytes), "bytes");
  outcome.Add("store.evictions", 0.0, "count");
  AddAbsent(&outcome,
            {"advisor.ingest_p50_us", "advisor.ingest_p99_us",
             "advisor.reselect_p50_ms", "advisor.reselections",
             "advisor.swaps", "advisor.views_materialized",
             "advisor.materialize_rejected", "advisor.churn_events",
             "costmodel.ground_truth_s", "costmodel.train_s",
             "costmodel.estimate_s", "costmodel.train_samples",
             "costmodel.mape_pct", "select.rlview_s"});
  return outcome;
}

// ---------------------------------------------------------------------------
// online-churn: one thread ingests every request of a churn schedule in
// order into a fresh OnlineAdvisor over a budgeted store, then serves
// it. A round runs kChurnSchedules such schedules, each with a fresh
// advisor and store; every round repeats the same schedules.
// ---------------------------------------------------------------------------

/// What one schedule's advisor did, summed over a round.
struct ChurnCounts {
  double advise_s = 0.0;  ///< time inside IngestSql after the warm-up
  double serve_s = 0.0;   ///< parse + rewrite + execute time, measured part
  size_t served = 0;      ///< measured requests
  uint64_t reselections = 0, swaps = 0, views_materialized = 0;
  uint64_t materialize_rejected = 0, churn_events = 0, evictions = 0;
  size_t candidates = 0, selected = 0, store_views = 0;
  uint64_t store_bytes = 0;
  double utility = 0.0;

  void Add(const ChurnCounts& o) {
    advise_s += o.advise_s;
    serve_s += o.serve_s;
    served += o.served;
    reselections += o.reselections;
    swaps += o.swaps;
    views_materialized += o.views_materialized;
    materialize_rejected += o.materialize_rejected;
    churn_events += o.churn_events;
    evictions += o.evictions;
    candidates += o.candidates;
    selected += o.selected;
    store_views += o.store_views;
    store_bytes += o.store_bytes;
    utility += o.utility;
  }
};

/// Ingests and serves `schedule` through a fresh advisor and store.
/// `base` collects the answer check of each query's first occurrence
/// when `check` is set. Request n gets the id `first_request` + n. A
/// non-null `setup_s` receives the time from process start to the first
/// measured request, less the time the warm-up's answer checks took.
ChurnCounts RunChurnSchedule(const GeneratedWorkload& workload,
                             const std::vector<size_t>& schedule, bool check,
                             Tracer* t, bool traced,
                             std::map<size_t, BaseRef>* base,
                             ServingSummary* serving, Outcome* outcome,
                             int64_t first_request, double* setup_s) {
  const Catalog& catalog = workload.db->catalog();
  ViewStoreOptions store_options;
  store_options.budget_bytes = kChurnBudgetBytes;
  MaterializedViewStore store(workload.db.get(), store_options);
  OnlineAdvisorOptions advisor_options;
  advisor_options.trigger = ReselectTrigger::kQueryEpoch;
  advisor_options.epoch_queries = kChurnEpoch;
  advisor_options.window_queries = kChurnWindow;
  advisor_options.select_iterations = kChurnSelectIterations;
  advisor_options.reselect_budget_ms = 60e3;
  OnlineAdvisor advisor(workload.db.get(), &store, advisor_options);
  Rewriter rewriter(&catalog);
  Executor executor(workload.db.get());
  const uint64_t evictions_before = GlobalViewStore().Read().evictions;
  ChurnCounts counts;
  double check_s = 0.0;  ///< time in CheckQuery so far
  for (size_t n = 0; n < schedule.size(); ++n) {
    const size_t qi = schedule[n];
    const int64_t request = first_request + static_cast<int64_t>(n);
    const bool measured = n >= kChurnWarmup;
    if (n == kChurnWarmup && setup_s != nullptr) {
      *setup_s = SecondsSince(kProcessStart) - check_s;
    }
    const uint64_t reselections = advisor.stats().reselections;
    const auto ingest_start = SteadyClock::now();
    Result<uint64_t> ingested = [&] {
      ScopedSpan s(t, 0, "advisor.IngestSql", request);
      return advisor.IngestSql(workload.sql[qi]);
    }();
    if (measured) counts.advise_s += SecondsSince(ingest_start);
    ++outcome->attempted;
    if (!ingested.ok()) ++outcome->failed;
    const OnlineAdvisorStats stats = advisor.stats();
    if (stats.reselections != reselections) {
      // The span just closed re-selected and swapped.
      t->MarkLast(0, "advisor.IngestSql+reselect");
      if (stats.last_reselect_timed_out) {
        outcome->Check(Status::Internal("re-selection timed out"),
                       "reselect after request " + std::to_string(n));
      }
    }
    outcome->Check(CheckStoreBudget(store.bytes_used(), kChurnBudgetBytes),
                   "after ingest " + std::to_string(n));
    Served r;
    r.query = qi;
    r.traced = traced;
    PlanNodePtr served_plan;
    ViewSetSnapshot pins;
    if (measured) ++outcome->attempted;
    if (!ServeOne(catalog, workload.sql[qi], rewriter, executor, &store,
                  advisor_options.pricing, t, 0, request, &r,
                  &served_plan, &pins)) {
      if (measured) ++outcome->failed;
      continue;
    }
    if (check && base->find(qi) == base->end()) {
      const auto check_start = SteadyClock::now();
      Result<BaseRef> ref =
          CheckQuery(catalog, workload.sql[qi], executor, served_plan,
                     advisor_options.pricing, outcome, qi);
      check_s += SecondsSince(check_start);
      outcome->Check(ref.status(), "execute");
      if (ref.ok()) (*base)[qi] = ref.value();
    }
    if (!measured) continue;
    counts.serve_s += 1e-3 * r.latency_ms;
    ++counts.served;
    serving->served.push_back(r);
  }
  store.WaitIdle();
  const OnlineAdvisorStats stats = advisor.stats();
  counts.reselections = stats.reselections;
  counts.swaps = stats.swaps_committed;
  counts.views_materialized = stats.views_materialized;
  counts.materialize_rejected = stats.materialize_rejected;
  counts.churn_events = stats.churn_events;
  counts.candidates = stats.candidate_views;
  counts.utility = stats.incumbent_utility;
  counts.selected = advisor.SelectedKeys().size();
  counts.evictions = GlobalViewStore().Read().evictions - evictions_before;
  counts.store_views = store.size();
  counts.store_bytes = store.bytes_used();
  return counts;
}

Outcome RunOnlineChurn(uint64_t seed, double seconds, Tracer* tracer) {
  Outcome outcome;
  GeneratedWorkload workload = [&] {
    ScopedSpan s(tracer, 0, "workload.GenerateCloudWorkload");
    return GenerateCloudWorkload(Wk1Spec());
  }();
  const double generate_s = SecondsSince(kProcessStart);
  const std::vector<std::vector<size_t>> schedules =
      BuildSchedule(seed, kChurnSchedules, kChurnRequests,
                    workload.sql.size(), "churn");

  Tracer off(false, 0);
  ServingSummary serving;
  serving.round_requests = kChurnSchedules * (kChurnRequests - kChurnWarmup);
  std::map<size_t, BaseRef> base;
  double setup_s = 0.0;
  std::vector<double> advise_rounds;  ///< per-schedule IngestSql seconds
  ChurnCounts first_round;
  double untraced_served = 0.0, untraced_serve_s = 0.0;
  const auto rounds_start = SteadyClock::now();
  // A traced run makes two rounds and traces schedules 0, 2 of the first
  // and 1, 3 of the second: every schedule runs once each way.
  const size_t min_rounds = tracer->enabled() ? 2 : 1;
  while (serving.rounds < min_rounds || SecondsSince(rounds_start) < seconds) {
    ChurnCounts round;
    for (size_t k = 0; k < schedules.size(); ++k) {
      const bool first = serving.rounds == 0 && k == 0;
      const bool traced = tracer->enabled() && (serving.rounds + k) % 2 == 0;
      const ChurnCounts counts = RunChurnSchedule(
          workload, schedules[k], serving.rounds == 0,
          traced ? tracer : &off, traced, &base, &serving, &outcome,
          static_cast<int64_t>((serving.rounds * schedules.size() + k) *
                               kChurnRequests),
          first ? &setup_s : nullptr);
      if (!traced) {
        untraced_serve_s += counts.serve_s;
        untraced_served += static_cast<double>(counts.served);
      }
      round.Add(counts);
    }
    advise_rounds.push_back(round.advise_s / kChurnSchedules);
    if (serving.rounds == 0) first_round = round;
    ++serving.rounds;
  }
  // Serving runs on the ingest thread, so its rate is requests per
  // second spent serving them.
  const double qps = untraced_served / std::max(1e-9, untraced_serve_s);

  if (!tracer->enabled()) {
    outcome.Add("setup_s", setup_s, "s");
    outcome.Add("advise_s", Pct(advise_rounds, 50), "s");
    outcome.Add("peak_rss_mb", PeakRssMb(), "MB");
    ReportServing(serving, base, *tracer, &outcome, qps);
    return outcome;
  }
  // Counts below are summed over the kChurnSchedules advisors of round 0.
  const ChurnCounts& c = first_round;
  outcome.Add("workload.generate_s", generate_s, "s");
  ReportServing(serving, base, *tracer, &outcome, qps);
  outcome.Add("subquery.candidates", static_cast<double>(c.candidates),
              "count");
  outcome.Add("advisor.ingest_p50_us",
              PctNs(tracer->DurationsNs("advisor.IngestSql"), 50, 1e-3), "us");
  outcome.Add("advisor.ingest_p99_us",
              PctNs(tracer->DurationsNs("advisor.IngestSql"), 99, 1e-3), "us");
  outcome.Add(
      "advisor.reselect_p50_ms",
      PctNs(tracer->DurationsNs("advisor.IngestSql+reselect"), 50, 1e-6),
      "ms");
  outcome.Add("advisor.reselections", static_cast<double>(c.reselections),
              "count");
  outcome.Add("advisor.swaps", static_cast<double>(c.swaps), "count");
  outcome.Add("advisor.views_materialized",
              static_cast<double>(c.views_materialized), "count");
  outcome.Add("advisor.materialize_rejected",
              static_cast<double>(c.materialize_rejected), "count");
  outcome.Add("advisor.churn_events", static_cast<double>(c.churn_events),
              "count");
  outcome.Add("select.utility", c.utility, "USD");
  outcome.Add("select.views", static_cast<double>(c.selected), "count");
  outcome.Add("store.views", static_cast<double>(c.store_views), "count");
  outcome.Add("store.bytes", static_cast<double>(c.store_bytes), "bytes");
  outcome.Add("store.evictions", static_cast<double>(c.evictions), "count");
  AddAbsent(&outcome,
            {"subquery.cluster_s", "ilp.problem_build_s", "ilp.csr_bytes",
             "costmodel.ground_truth_s", "costmodel.train_s",
             "costmodel.estimate_s", "costmodel.train_samples",
             "costmodel.mape_pct", "select.iterview_s", "select.rlview_s",
             "store.materialize_s"});
  return outcome;
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 5.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Status::InvalidArgument("missing value for " + flag);
    }
    const std::string value = argv[++i];
    uint64_t u = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      AV_RETURN_NOT_OK(ParseUint64(value, &args.seed));
    } else if (flag == "--seconds") {
      AV_RETURN_NOT_OK(ParseDouble(value, &args.seconds));
    } else if (flag == "--trace") {
      AV_RETURN_NOT_OK(ParseUint64(value, &u));
      args.trace = u != 0;
    } else if (flag == "--out_dir") {
      args.out_dir = value;
    } else {
      return Status::InvalidArgument("unknown flag " + flag);
    }
  }
  if (args.workload != "learned-job" && args.workload != "wk1-full" &&
      args.workload != "online-churn") {
    return Status::InvalidArgument("unknown workload '" + args.workload + "'");
  }
  return args;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Main(int argc, char** argv) {
  Result<Args> parsed = ParseArgs(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "perfbench_driver: %s\n",
                 parsed.status().ToString().c_str());
    return 2;
  }
  const Args& args = parsed.value();
  // Lane 0 is the main thread; lanes 1.. are serving clients.
  Tracer tracer(args.trace, 1 + std::max(kLearnedJobClients, kWk1Clients));
  Outcome outcome;
  if (args.workload == "learned-job") {
    outcome = RunLearnedJob(args.seed, args.seconds, &tracer);
  } else if (args.workload == "wk1-full") {
    outcome = RunWk1Full(args.seed, args.seconds, &tracer);
  } else {
    outcome = RunOnlineChurn(args.seed, args.seconds, &tracer);
  }
  if (args.trace) {
    outcome.Add("trace.spans", static_cast<double>(tracer.num_spans()),
                "count");
    const std::string path = args.out_dir + "/trace_" + args.workload +
                             "_seed" + std::to_string(args.seed) + ".tsv";
    if (!tracer.WriteTsv(path)) {
      std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                   path.c_str());
    }
  }
  std::sort(outcome.metrics.begin(), outcome.metrics.end(),
            [](const Metric& a, const Metric& b) { return a.name < b.name; });

  const char* threads_env = std::getenv("AUTOVIEW_THREADS");
  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("env: AUTOVIEW_THREADS=%s pool_threads=%zu build=%s "
              "compiler=%s\n",
              threads_env != nullptr ? threads_env : "(unset)",
              DefaultPool().size(), PERFBENCH_BUILD_TYPE, __VERSION__);
  for (const Metric& m : outcome.metrics) {
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
  for (const std::string& e : outcome.errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  const bool correct = outcome.errors.empty();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
