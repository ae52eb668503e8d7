// End-to-end coloring benchmark: full MW coloring runs on the SINR and
// graph-collision media plus a 4-thread trial sweep, driven only through the
// library's public API (geometry::uniform_deployment, graph::UnitDiskGraph,
// core::MwInstance, common::SweepEngine). Every run uses the library
// defaults — practical profile, default resolve kind, one resolve and one
// slot thread, online Theorem-1 check — so a change of default shows up end
// to end.
//
//   e2e --workload sinr|graph|sweep --seed N --seconds S --trace 0|1
//       [--smoke 1] [--git-sha SHA]
//
// --trace 0 times the workload untraced and prints the end-to-end metrics.
// --trace 1 runs the workload once untraced and once with layer probes
// attached from outside the program (simulator observers at the slot
// boundaries, plus a replay of each slot's transmissions on a second
// interference model to time InterferenceModel::resolve) and prints the
// per-layer metrics. Every colored instance is checked; the last stdout line
// is one JSON object {correct, attempted, failed, metrics}. The exit code is
// 0 only when every check passed.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/alloc_counter.h"
#include "common/check.h"
#include "common/cli.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/sweep.h"
#include "core/mw_protocol.h"
#include "core/report.h"
#include "geometry/deployment.h"
#include "graph/unit_disk_graph.h"

namespace {

using namespace sinrcolor;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// One workload is a batch of `instances` independent colorings run through
// a SweepEngine with `threads` workers. Instance i is a uniform deployment
// of n nodes (average degree 12, R_T = 1) drawn from common::trial_seed(seed,
// i), redrawn until its maximum degree is `max_degree`: the run length is
// O(Δ log n) and one dense spot sets Δ for every node, so fixing Δ (at its
// most frequent value for n) fixes a workload's size the way n does, and
// the seed varies the geometry and the protocol's coin flips. 0 = any Δ.
struct Workload {
  const char* name;
  bool graph_model;
  std::size_t n;
  std::size_t max_degree;
  std::size_t instances;
  std::size_t threads;
};

constexpr Workload kWorkloads[] = {
    {"sinr", false, 500, 21, 7, 1},
    {"graph", true, 1000, 22, 9, 1},
    {"sweep", false, 400, 21, 32, 4},
};

// Smoke mode keeps each workload's medium and thread count but colors a
// handful of tiny instances of any Δ, so every code path runs in well under
// a second.
constexpr std::size_t kSmokeN = 60;
constexpr std::size_t kSmokeInstances = 4;

constexpr double kAvgDegree = 12.0;
constexpr double kRadius = 1.0;
constexpr std::uint64_t kMaxDraws = 10000;
// Set-up is ms-scale; it is timed this many times and reported as medians.
constexpr std::size_t kSetupReps = 31;

core::MwRunConfig run_config(const Workload& w, std::uint64_t seed) {
  core::MwRunConfig cfg;
  cfg.seed = seed;
  cfg.graph_model = w.graph_model;
  return cfg;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string instance_label(std::size_t i, std::uint64_t seed) {
  return "instance " + std::to_string(i) + " seed " + std::to_string(seed);
}

// ---------------------------------------------------------------- set-up --

struct SetupTimes {
  double deploy_s = 0.0;
  double graph_s = 0.0;
  double instance_s = 0.0;
  double total() const { return deploy_s + graph_s + instance_s; }
};

// One colorable instance: the graph outlives the MwInstance that refers to it.
struct Instance {
  explicit Instance(graph::UnitDiskGraph g) : graph(std::move(g)) {}
  graph::UnitDiskGraph graph;
  std::optional<core::MwInstance> mw;
};

geometry::Deployment deploy(const Workload& w, std::uint64_t seed) {
  const double side =
      std::sqrt(static_cast<double>(w.n) * M_PI * kRadius * kRadius /
                kAvgDegree);
  common::Rng rng(seed);
  return geometry::uniform_deployment(w.n, side, rng);
}

// The seeds of the batch's instances: for each, the first draw whose graph
// has the workload's maximum degree. Input generation, so never timed.
std::vector<std::uint64_t> instance_seeds(const Workload& w,
                                          std::uint64_t seed) {
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < w.instances; ++i) {
    const std::uint64_t base = common::trial_seed(seed, i);
    for (std::uint64_t draw = 0;; ++draw) {
      SINRCOLOR_CHECK_MSG(draw < kMaxDraws,
                          "no deployment with the workload's Δ");
      const std::uint64_t s = common::derive_seed(base, draw);
      const graph::UnitDiskGraph g(deploy(w, s), kRadius);
      if (w.max_degree == 0 || g.max_degree() == w.max_degree) {
        seeds.push_back(s);
        break;
      }
    }
  }
  return seeds;
}

std::unique_ptr<Instance> set_up(const Workload& w, std::uint64_t seed,
                                 SetupTimes& times) {
  const auto t0 = Clock::now();
  geometry::Deployment deployment = deploy(w, seed);
  const auto t1 = Clock::now();
  auto inst = std::make_unique<Instance>(
      graph::UnitDiskGraph(std::move(deployment), kRadius));
  const auto t2 = Clock::now();
  inst->mw.emplace(inst->graph, run_config(w, seed));
  const auto t3 = Clock::now();
  times.deploy_s = seconds_between(t0, t1);
  times.graph_s = seconds_between(t1, t2);
  times.instance_s = seconds_between(t2, t3);
  return inst;
}

// Set-up of every instance of the batch, serially, kSetupReps times.
struct SetupSamples {
  common::Samples deploy_s, graph_s, instance_s, total_s;
  std::size_t edges = 0;       ///< summed over the batch's graphs
  std::size_t max_degree = 0;  ///< largest over the batch's graphs
};

SetupSamples time_setup(const Workload& w,
                        const std::vector<std::uint64_t>& seeds) {
  SetupSamples samples;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    SetupTimes sum;
    samples.edges = 0;
    for (const std::uint64_t seed : seeds) {
      SetupTimes times;
      const auto inst = set_up(w, seed, times);
      sum.deploy_s += times.deploy_s;
      sum.graph_s += times.graph_s;
      sum.instance_s += times.instance_s;
      samples.edges += inst->graph.edge_count();
      samples.max_degree =
          std::max(samples.max_degree, inst->graph.max_degree());
    }
    samples.deploy_s.add(sum.deploy_s);
    samples.graph_s.add(sum.graph_s);
    samples.instance_s.add(sum.instance_s);
    samples.total_s.add(sum.total());
  }
  return samples;
}

// ---------------------------------------------------------- layer probe --

struct LayerStats {
  double tx_decide_s = 0.0;  ///< end of slot s−1 → transmissions of s fixed
  double post_tx_s = 0.0;    ///< transmissions fixed → end of slot s
  double replay_s = 0.0;     ///< probe's own time, excluded from both spans
  double resolve_s = 0.0;    ///< replayed InterferenceModel::resolve time
  std::uint64_t resolve_calls = 0;
  std::uint64_t replay_tx = 0;
  std::uint64_t replay_decodes = 0;
  std::vector<double> resolve_us;  ///< per resolve call
  std::vector<double> slot_us;     ///< per slot, replay excluded
};

// Times a run's slot phases from outside the program: the simulator's slot
// observer fires once the slot's transmissions are fixed (after the
// instance's own Theorem-1 observer) and its end observer after every
// end_slot. Each slot's transmissions are replayed on a second model from
// core::make_interference_model so InterferenceModel::resolve can be timed;
// the replay never touches the run's state. Buffers are reserved up front
// (`expected_slots` from the untraced run) so the probe keeps the slot loop
// allocation-free.
class LayerProbe {
 public:
  LayerProbe(core::MwInstance& mw, const graph::UnitDiskGraph& g,
             const core::MwRunConfig& cfg, radio::Slot expected_slots)
      : sim_(mw.simulator()),
        model_(core::make_interference_model(g, cfg)),
        listening_(g.size(), false),
        deliveries_(g.size()) {
    const auto slots =
        static_cast<std::size_t>(std::max<radio::Slot>(expected_slots, 1));
    stats_.resolve_us.reserve(slots);
    stats_.slot_us.reserve(slots);
    tx_.reserve(g.size());
    sim_.add_observer([this](radio::Slot slot,
                             std::span<const radio::TxRecord> tx) {
      on_slot(slot, tx);
    });
    sim_.add_end_observer([this](radio::Slot) { on_end(); });
  }
  LayerProbe(const LayerProbe&) = delete;
  LayerProbe& operator=(const LayerProbe&) = delete;

  /// Marks the start of slot 0's tx-decide span; call right before run().
  void start() { last_end_ = Clock::now(); }

  LayerStats take() { return std::move(stats_); }

 private:
  void on_slot(radio::Slot slot, std::span<const radio::TxRecord> tx) {
    const auto fixed = Clock::now();
    tx_decide_ = seconds_between(last_end_, fixed);
    stats_.tx_decide_s += tx_decide_;
    if (!tx.empty()) {
      tx_.assign(tx.begin(), tx.end());
      for (std::size_t v = 0; v < listening_.size(); ++v) {
        listening_[v] = sim_.node_awake(static_cast<graph::NodeId>(v));
      }
      for (const radio::TxRecord& t : tx_) listening_[t.sender] = false;
      std::fill(deliveries_.begin(), deliveries_.end(), std::nullopt);
      const auto r0 = Clock::now();
      model_->resolve(slot, tx_, listening_, deliveries_);
      const auto r1 = Clock::now();
      const double resolve = seconds_between(r0, r1);
      stats_.resolve_s += resolve;
      stats_.resolve_us.push_back(resolve * 1e6);
      ++stats_.resolve_calls;
      stats_.replay_tx += tx_.size();
      for (const auto& d : deliveries_) stats_.replay_decodes += d.has_value();
    }
    post_start_ = Clock::now();
    stats_.replay_s += seconds_between(fixed, post_start_);
  }

  void on_end() {
    const auto end = Clock::now();
    const double post = seconds_between(post_start_, end);
    stats_.post_tx_s += post;
    stats_.slot_us.push_back((tx_decide_ + post) * 1e6);
    last_end_ = end;
  }

  radio::Simulator& sim_;
  std::unique_ptr<radio::InterferenceModel> model_;
  std::vector<radio::TxRecord> tx_;
  std::vector<bool> listening_;
  std::vector<std::optional<radio::Message>> deliveries_;
  Clock::time_point last_end_;
  Clock::time_point post_start_;
  double tx_decide_ = 0.0;
  LayerStats stats_;
};

// ----------------------------------------------------------------- batch --

struct TrialOut {
  core::MwRunResult result;
  LayerStats layers;
};

struct Batch {
  std::vector<TrialOut> trials;
  common::SweepTiming timing;
  double wall_s = 0.0;
};

// Colors every instance of the workload once. `expected_slots` (traced runs
// only) holds the untraced run's slot counts, which size the probes' buffers.
Batch run_batch(const Workload& w, const std::vector<std::uint64_t>& seeds,
                common::SweepEngine& engine,
                const std::vector<radio::Slot>* expected_slots) {
  const bool traced = expected_slots != nullptr;
  Batch batch;
  const auto t0 = Clock::now();
  batch.trials = engine.run(
      seeds.size(), /*base_seed=*/0,
      [&](const common::TrialContext& ctx) {
        TrialOut out;
        SetupTimes times;
        const std::uint64_t seed = seeds[ctx.index];
        const auto inst = set_up(w, seed, times);
        std::optional<LayerProbe> probe;
        if (traced) {
          probe.emplace(*inst->mw, inst->graph, run_config(w, seed),
                        (*expected_slots)[ctx.index]);
          probe->start();
        }
        out.result = inst->mw->run();
        if (probe) out.layers = probe->take();
        return out;
      },
      &batch.timing);
  batch.wall_s = seconds_between(t0, Clock::now());
  return batch;
}

// --------------------------------------------------------------- checks --

struct Checker {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  // Counts one colored instance; `problems` lists what failed, if anything.
  void count(const std::string& what,
             const std::vector<std::string>& problems) {
    ++attempted;
    if (problems.empty()) return;
    ++failed;
    std::printf("CHECK FAILED %s:", what.c_str());
    for (const auto& p : problems) std::printf(" %s;", p.c_str());
    std::printf("\n");
  }
};

std::vector<std::string> check_result(const core::MwRunResult& r) {
  std::vector<std::string> problems;
  if (!r.coloring_valid) problems.emplace_back("coloring invalid");
  if (!r.metrics.all_decided) problems.emplace_back("not all nodes decided");
  if (r.independence_violations != 0) {
    problems.push_back("Theorem-1 violations " +
                       std::to_string(r.independence_violations));
  }
  if (common::alloc_counting_enabled() &&
      !r.metrics.steady_state_alloc_free()) {
    problems.push_back("steady-state slot allocations (last at slot " +
                       std::to_string(r.metrics.last_alloc_slot) + ")");
  }
  return problems;
}

// -------------------------------------------------------------- output --

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::uint64_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    unsigned long long kb = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %llu", &kb) == 1) return kb * 1024;
  }
  return 0;
}

void print_result(const Checker& checks, const std::vector<Metric>& metrics) {
  common::JsonWriter json;
  json.begin_object();
  json.field("correct", checks.failed == 0);
  json.field("attempted", checks.attempted);
  json.field("failed", checks.failed);
  json.key("metrics");
  json.begin_object();
  for (const Metric& m : metrics) {
    json.key(m.name);
    json.begin_object();
    json.field("value", std::isfinite(m.value) ? m.value : 0.0);
    json.field("unit", m.unit);
    json.end_object();
  }
  json.end_object();
  json.end_object();
  std::printf("%s\n", json.str().c_str());
}

void print_provenance(const std::string& git_sha) {
  common::JsonWriter json;
  json.begin_object();
  json.field("git_sha", git_sha);
  json.field("build_type", PERFBENCH_BUILD_TYPE);
  json.field("native", PERFBENCH_NATIVE);
  json.field("count_allocs", common::alloc_counting_enabled());
  json.field("sanitize", PERFBENCH_SANITIZE);
  json.field("compiler", PERFBENCH_COMPILER);
  json.field("nproc",
             static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  json.end_object();
  std::printf("provenance %s\n", json.str().c_str());
}

bool measures_release_program() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  const std::string sanitize = PERFBENCH_SANITIZE;
  const bool optimized =
      type == "Release" || type == "RelWithDebInfo" || type == "MinSizeRel";
  return optimized && sanitize == "OFF";
}

// Per-layer totals of a traced batch: per-trial stats summed, samples pooled.
struct LayerTotals {
  LayerStats sums;  ///< sample vectors left empty
  common::Samples resolve_us;
  common::Samples slot_us;
};

LayerTotals merge(const std::vector<TrialOut>& trials) {
  LayerTotals all;
  for (const TrialOut& t : trials) {
    const LayerStats& s = t.layers;
    all.sums.tx_decide_s += s.tx_decide_s;
    all.sums.post_tx_s += s.post_tx_s;
    all.sums.replay_s += s.replay_s;
    all.sums.resolve_s += s.resolve_s;
    all.sums.resolve_calls += s.resolve_calls;
    all.sums.replay_tx += s.replay_tx;
    all.sums.replay_decodes += s.replay_decodes;
    for (const double us : s.resolve_us) all.resolve_us.add(us);
    for (const double us : s.slot_us) all.slot_us.add(us);
  }
  return all;
}

}  // namespace

int main(int argc, char** argv) {
  const common::Cli cli(argc, argv);
  const std::string name = cli.get("workload", "sinr");
  const std::uint64_t seed = cli.get_seed("seed", 1);
  const auto seconds =
      static_cast<double>(cli.get_int_at_least("seconds", 10, 1));
  const std::int64_t trace = cli.get_int("trace", 0);
  const bool smoke = cli.get_bool("smoke", false);
  const std::string git_sha = cli.get("git-sha", "unknown");
  cli.reject_unknown();

  print_provenance(git_sha);
  if (!measures_release_program()) {
    std::fprintf(stderr,
                 "refusing to benchmark a %s build (sanitizer %s): it "
                 "measures a different program\n",
                 PERFBENCH_BUILD_TYPE, PERFBENCH_SANITIZE);
    return 2;
  }
  if (trace != 0 && trace != 1) {
    std::fprintf(stderr, "--trace must be 0 or 1\n");
    return 2;
  }
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (name == w.name) found = &w;
  }
  if (found == nullptr) {
    std::fprintf(stderr, "unknown --workload %s (sinr|graph|sweep)\n",
                 name.c_str());
    return 2;
  }
  Workload w = *found;
  if (smoke) {
    w.n = kSmokeN;
    w.max_degree = 0;
    w.instances = std::min(w.instances, kSmokeInstances);
  }
  const std::vector<std::uint64_t> seeds = instance_seeds(w, seed);
  std::printf("workload %s: n=%zu instances=%zu threads=%zu seed=%llu%s\n",
              w.name, w.n, w.instances, w.threads,
              static_cast<unsigned long long>(seed), smoke ? " (smoke)" : "");

  common::SweepEngine engine(w.threads);
  Checker checks;
  std::vector<Metric> metrics;

  // The untraced batch, repeated while another one still fits in --seconds.
  // Repeats color the same instances and must reproduce their reports.
  std::vector<Batch> batches;
  std::vector<std::string> reports;
  std::uint64_t peak_rss = 0;  // after one batch, so repeats cannot move it
  const auto start = Clock::now();
  for (;;) {
    batches.push_back(run_batch(w, seeds, engine, nullptr));
    if (batches.size() == 1) peak_rss = peak_rss_bytes();
    const Batch& b = batches.back();
    for (std::size_t i = 0; i < b.trials.size(); ++i) {
      const core::MwRunResult& r = b.trials[i].result;
      std::vector<std::string> problems = check_result(r);
      std::string report = core::to_json(r);
      if (batches.size() == 1) {
        reports.push_back(std::move(report));
      } else if (report != reports[i]) {
        problems.emplace_back("repeat run's report differs");
      }
      checks.count(instance_label(i, seeds[i]), problems);
      if (batches.size() == 1) {
        std::printf("%s: max_degree=%zu slots=%lld colors=%zu run_s=%.3f\n",
                    instance_label(i, seeds[i]).c_str(), r.params.max_degree,
                    static_cast<long long>(r.metrics.slots_executed),
                    r.palette,
                    static_cast<double>(b.timing.trial_us[i]) / 1e6);
      }
    }
    std::printf("batch %zu: %.3f s (trials", batches.size(), b.wall_s);
    for (const std::uint64_t us : b.timing.trial_us) {
      std::printf(" %.3f", static_cast<double>(us) / 1e6);
    }
    std::printf(")\n");
    if (trace != 0 ||
        seconds_between(start, Clock::now()) + b.wall_s > seconds) {
      break;
    }
  }

  // Set-up is timed after the batches, on a warmed-up core.
  const SetupSamples setup = time_setup(w, seeds);

  const Batch& first = batches.front();
  std::uint64_t slots = 0;
  double palette = 0.0, bytes_per_node = 0.0;
  std::vector<radio::Slot> expected_slots;
  for (const TrialOut& t : first.trials) {
    slots += static_cast<std::uint64_t>(t.result.metrics.slots_executed);
    palette += static_cast<double>(t.result.palette);
    bytes_per_node += t.result.metrics.bytes_per_node();
    expected_slots.push_back(t.result.metrics.slots_executed);
  }
  const auto count = static_cast<double>(first.trials.size());
  common::Samples color_s, slots_per_s;
  for (const Batch& b : batches) {
    color_s.add(b.wall_s);
    slots_per_s.add(static_cast<double>(slots) / b.wall_s);
  }

  if (trace == 0) {
    metrics = {
        {"color_s", color_s.median(), "s"},
        {"slots_per_s", slots_per_s.median(), "1/s"},
        {"setup_s", setup.total_s.median(), "s"},
        {"slots_to_color", static_cast<double>(slots), "slots"},
        {"colors_used", palette / count, "colors"},
        {"bytes_per_node", bytes_per_node / count, "B"},
        {"peak_rss_mb", static_cast<double>(peak_rss) / 1e6, "MB"},
    };
  } else {
    const Batch traced = run_batch(w, seeds, engine, &expected_slots);
    std::printf("traced batch: %.3f s\n", traced.wall_s);
    std::uint64_t transmissions = 0, deliveries = 0, slot_allocs = 0;
    for (std::size_t i = 0; i < traced.trials.size(); ++i) {
      const TrialOut& t = traced.trials[i];
      std::vector<std::string> problems = check_result(t.result);
      if (core::to_json(t.result) != reports[i]) {
        problems.emplace_back("traced report differs from untraced");
      }
      if (t.layers.replay_decodes != t.result.metrics.total_deliveries) {
        problems.push_back("replay decoded " +
                           std::to_string(t.layers.replay_decodes) +
                           ", run delivered " +
                           std::to_string(t.result.metrics.total_deliveries));
      }
      checks.count("traced " + instance_label(i, seeds[i]), problems);
      transmissions += t.result.metrics.total_transmissions;
      deliveries += t.result.metrics.total_deliveries;
      slot_allocs += t.result.metrics.slot_heap_allocs;
    }
    const LayerTotals layers = merge(traced.trials);

    common::Samples trial_s;
    for (const std::uint64_t us : first.timing.trial_us) {
      trial_s.add(static_cast<double>(us) / 1e6);
    }
    const double untraced_trials_s =
        static_cast<double>(first.timing.sum_us()) / 1e6;
    const double traced_trials_s =
        static_cast<double>(traced.timing.sum_us()) / 1e6;
    metrics = {
        {"geometry.deploy_s", setup.deploy_s.median(), "s"},
        {"graph.build_s", setup.graph_s.median(), "s"},
        {"graph.edges", static_cast<double>(setup.edges), "count"},
        {"graph.max_degree", static_cast<double>(setup.max_degree), "count"},
        {"core.instance_s", setup.instance_s.median(), "s"},
        {"radio.tx_decide_s", layers.sums.tx_decide_s, "s"},
        {"radio.post_tx_s", layers.sums.post_tx_s, "s"},
        {"radio.resolve_s", layers.sums.resolve_s, "s"},
        {"radio.resolve_calls",
         static_cast<double>(layers.sums.resolve_calls), "count"},
        {"radio.resolve_us.p50", layers.resolve_us.quantile(0.50), "us"},
        {"radio.resolve_us.p99", layers.resolve_us.quantile(0.99), "us"},
        {"radio.tx_per_call",
         ratio(static_cast<double>(layers.sums.replay_tx),
               static_cast<double>(layers.sums.resolve_calls)),
         "tx"},
        {"radio.transmissions", static_cast<double>(transmissions), "count"},
        {"radio.deliveries", static_cast<double>(deliveries), "count"},
        {"radio.deliveries_per_tx",
         ratio(static_cast<double>(deliveries),
               static_cast<double>(transmissions)),
         "ratio"},
        {"radio.slot_allocs", static_cast<double>(slot_allocs), "count"},
        {"radio.slot_us.p50", layers.slot_us.quantile(0.50), "us"},
        {"radio.slot_us.p99", layers.slot_us.quantile(0.99), "us"},
        {"common.trial_s.p50", trial_s.quantile(0.50), "s"},
        {"common.trial_s.p95", trial_s.quantile(0.95), "s"},
        {"common.sweep_efficiency",
         ratio(untraced_trials_s,
               static_cast<double>(w.threads) * first.wall_s),
         "ratio"},
        {"trace.overhead",
         ratio(traced_trials_s - layers.sums.replay_s, untraced_trials_s) - 1.0,
         "ratio"},
    };
  }

  for (const Metric& m : metrics) {
    std::printf("  %-26s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  print_result(checks, metrics);
  return checks.failed == 0 ? 0 : 1;
}
