// Reproduces the paper's evaluation (Tables I-IV, Figs. 2 and 4-9, the
// cost landscape, the ablations) and checks each paper comparison as one
// row of a claim table over K seeds. Seed k runs every scenario once with
// engine seed 0x5EED + k and HBO seed base + 7919 k (base 1234 unless a
// figure fixes its own), so k = 0 is each figure's default run; that pass
// prints the tables. A row is `exact` (holds on every seed: Table I),
// `claim` (a per-seed predicate that must win on >= 75% of the seeds, ties
// losing) or `deviation` (a comparison this reproduction does not meet,
// reported but never gated; "closed" once it would pass). A paper point
// value is met within +-15%; an order is a strict inequality.
//
//   paper_claims [--smoke] [--json PATH]
//
// --smoke runs 16 seeds, not 64. Rows, with a bootstrap 95% CI of each
// statistic's mean, go to stdout and, stamped, to PATH (default
// PAPER_CLAIMS.json). Exits 1 if an exact or claim row fails.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <limits>
#include <tuple>

#include "bench_util.hpp"
#include "hbosim/ai/profiler.hpp"
#include "hbosim/ai/registry.hpp"
#include "hbosim/app/script.hpp"
#include "hbosim/baselines/alln.hpp"
#include "hbosim/baselines/bnt.hpp"
#include "hbosim/baselines/sml.hpp"
#include "hbosim/baselines/smq.hpp"
#include "hbosim/common/mathx.hpp"
#include "hbosim/common/rng.hpp"
#include "hbosim/common/stats.hpp"
#include "hbosim/common/table.hpp"
#include "hbosim/core/activation.hpp"
#include "hbosim/core/controller.hpp"
#include "hbosim/core/cost.hpp"
#include "hbosim/core/lookup_table.hpp"
#include "hbosim/core/triangle_distribution.hpp"
#include "hbosim/scenario/scenarios.hpp"
#include "hbosim/soc/devices_builtin.hpp"
#include "hbosim/study/raters.hpp"

using namespace hbosim;
using benchutil::cat;
using scenario::ObjectSet;
using scenario::TaskSet;
using soc::Delegate;

namespace {

constexpr int kSeeds = 64;
constexpr int kSmokeSeeds = 16;
constexpr std::uint64_t kHboSeedStride = 7919;
constexpr double kBand = 0.15;         ///< Relative band of a point value.
constexpr double kMuchLess = 0.25;     ///< "a << b" means a < kMuchLess b.
constexpr double kPassFraction = 0.75; ///< Share of seeds a claim must win.

struct Seed {
  int k = 0;
  bool print = false;  ///< Print the figures' tables (the k = 0 pass).
  std::uint64_t engine(std::uint64_t base = 0x5EEDu) const { return base + k; }
  std::uint64_t hbo(std::uint64_t base = 1234) const {
    return base + kHboSeedStride * static_cast<std::uint64_t>(k);
  }
};

/// One seed's measurements: everything a claim row reads.
struct Obs {
  double table1_err_ms = 0;  ///< Max |profiled - calibrated|, both phones.
  std::vector<std::vector<double>> fig2b;  ///< [segment][instance] ms.
  // Fig. 4 / Table III: SC1-CF1, SC2-CF1, SC1-CF2, SC2-CF2.
  std::array<double, 4> ratio{}, best_cost{}, converged_at{};
  // Fig. 5 / Table IV: HBO, SMQ, SML, BNT, AllN.
  std::array<double, 5> mean_ms{}, quality{};
  // Fig. 6: the selected best iteration, per-task % latency gains over SMQ.
  core::IterationRecord best;
  double gain_best = 0, gain_worst = 0;
  // Fig. 7 panels: stdev of the final / first best cost over six runs;
  // Fig. 8: activations and end reward, event policy then periodic.
  std::array<double, 2> spread_final{}, spread_initial{};
  double event_acts = 0, periodic_acts = 0, event_end = 0, periodic_end = 0;
  // Fig. 9, close and far: MOS, triangle ratios; max MOS gain %.
  std::array<double, 2> hbo_mos{}, sml_mos{}, hbo_ratio{}, sml_ratio{};
  double mos_gain = 0;
  // Cost landscape on kLandscapeX, and the static allocation at x = 0.2.
  std::vector<double> landscape;
  double static_cost = 0;
  bool distributor_ordered = false;
};

const std::vector<double> kLandscapeX = {0.2, 0.3, 0.4, 0.5, 0.6,
                                         0.7, 0.8, 0.9, 1.0};

std::string scenario_name(ObjectSet o, TaskSet t) {
  return cat({scenario::object_set_name(o), "-", scenario::task_set_name(t)});
}

std::unique_ptr<app::MarApp> sc1_cf1(const Seed& s) {
  return scenario::make_app(soc::pixel7(), ObjectSet::SC1, TaskSet::CF1,
                            s.engine());
}

core::HboConfig hbo_config(const Seed& s) {
  core::HboConfig cfg;  // paper defaults (w = 2.5, 5 + 15 iterations)
  cfg.seed = s.hbo();
  return cfg;
}

// --- Table I --------------------------------------------------------------

double table1(const Seed& s) {
  if (s.print)
    benchutil::banner("Table I", "isolation response time (ms), measured");
  std::vector<std::string> models;
  for (const auto& info : ai::model_registry()) models.push_back(info.name);

  double worst = 0.0;
  for (const soc::DeviceProfile& device : {soc::galaxy_s22(), soc::pixel7()}) {
    const ai::ProfileTable profiles = ai::profile_models(device, models);
    TextTable table(std::vector<std::string>{
        "AI Model", "Task", "GPU", "NNAPI", "CPU", "paper GPU/NNAPI/CPU"});
    for (const std::string& model : models) {
      std::vector<std::string> row = {
          model, ai::task_type_abbrev(ai::find_model(model).type)};
      std::string paper;
      for (Delegate d : {Delegate::Gpu, Delegate::Nnapi, Delegate::Cpu}) {
        const auto& v =
            profiles.get(model).isolation_ms[static_cast<std::size_t>(d)];
        const bool supported = device.supports(model, d);
        if (v.has_value() != supported)
          worst = std::numeric_limits<double>::infinity();
        else if (v)
          worst = std::max(worst, std::abs(*v - device.isolation_ms(model, d)));
        row.push_back(v ? TextTable::num(*v, 1) : "NA");
        if (d != Delegate::Gpu) paper += "/";
        paper += supported ? TextTable::num(device.isolation_ms(model, d), 1)
                           : "NA";
      }
      row.push_back(paper);
      table.add_row(row);
    }
    if (s.print) {
      benchutil::section(device.name());
      table.print(std::cout);
    }
  }
  return worst;
}

// --- Fig. 2 ---------------------------------------------------------------

/// Mean latency of every task over each [t_i, t_{i+1}) segment (0 when the
/// task has no sample there); printed as the figure's segment table.
std::vector<std::vector<double>> segments(
    const des::TraceRecorder& trace, const std::vector<std::string>& labels,
    const std::vector<double>& edges, bool print) {
  std::vector<std::string> header = {"segment"};
  for (const auto& l : labels) header.push_back(cat({l, " (ms)"}));
  TextTable table(header);
  std::vector<std::vector<double>> means;
  for (std::size_t i = 0; i + 1 < edges.size(); ++i) {
    std::vector<std::string> row = {
        cat({"[", TextTable::num(edges[i], 0), ",",
             TextTable::num(edges[i + 1], 0), ")s"})};
    means.emplace_back();
    for (const auto& l : labels) {
      const double v = trace.has_series(l)
                           ? trace.window_mean(l, edges[i], edges[i + 1])
                           : 0.0;
      means.back().push_back(v);
      row.push_back(v > 0.0 ? TextTable::num(v, 1) : "-");
    }
    table.add_row(row);
  }
  if (print) {
    table.print(std::cout);
    std::cout << "markers:" << std::setprecision(3);
    for (const auto& [t, label] : trace.markers())
      std::cout << "  " << label << "@" << t << "s";
    std::cout << std::setprecision(6) << "\n";
  }
  return means;
}

/// Virtual objects placed at scripted times: (t, mesh, distance m).
using Placement = std::tuple<double, const char*, double>;

void place(app::ScriptRunner& script, std::initializer_list<Placement> list) {
  for (const auto& [t, mesh, distance] : list)
    script.add_object_at(t, scenario::mesh_asset(mesh), distance);
}

app::MarAppConfig app_config(const Seed& s) {
  app::MarAppConfig cfg;
  cfg.engine.seed = s.engine();
  return cfg;
}

/// Runs one scripted Fig. 2 panel on the Galaxy S22 until `edges.back()`
/// and returns its segment means; `setup` adds the tasks and the script.
std::vector<std::vector<double>> fig2_panel(
    const char* title, const Seed& s, bool print,
    const std::vector<double>& edges,
    const std::function<void(app::MarApp&, app::ScriptRunner&)>& setup) {
  if (print) benchutil::section(title);
  app::MarApp app(soc::galaxy_s22(), app_config(s));
  des::TraceRecorder trace;
  app::ScriptRunner script(app, trace);
  setup(app, script);
  script.run_until(edges.back());
  return segments(trace, app.task_labels(), edges, print);
}

/// Fig. 2a: deconv-munet instances moved onto the GPU, then objects.
void fig2a(const Seed& s) {
  fig2_panel("Fig. 2a: deconv-munet instances, CPU vs GPU", s, true,
             {0, 20, 40, 60, 90, 120, 150},
             [](app::MarApp& app, app::ScriptRunner& script) {
               TaskId id = 0;  // deconv_1..3 move onto the GPU one by one
               for (int i = 1; i <= 3; ++i) {
                 id = app.add_task("deconv-munet",
                                   cat({"deconv_", std::to_string(i)}),
                                   Delegate::Cpu);
                 script.reallocate_at(20 * i, id, Delegate::Gpu, i);
               }
               place(script, {{90, "bike", 1.5}, {91, "plane", 2.2},
                              {92, "splane", 2.0}, {93, "statue", 1.6},
                              {94, "plane", 1.8}, {95, "bike", 2.1}});
               script.reallocate_at(120, id, Delegate::Cpu, 3);
             });
}

/// Fig. 2b: five deeplabv3 instances crowd the NNAPI delegate, are
/// relieved by CPU relocation, then hit by virtual objects. Returns the
/// segment means the Fig. 2 claims read.
std::vector<std::vector<double>> fig2b(const Seed& s) {
  std::vector<TaskId> ids(5);
  return fig2_panel(
      "Fig. 2b: 5x deeplabv3, CPU vs NNAPI, then objects", s, s.print,
      {0, 25, 40, 55, 75, 95, 120, 140, 150, 180, 200, 225, 255},
      [&ids](app::MarApp& app, app::ScriptRunner& script) {
        // Instance 1 starts alone on the CPU (the paper's C1); the rest
        // join on the NNAPI delegate between t=40 and t=95.
        ids[0] = app.add_task("deeplabv3", "deeplabv3_1", Delegate::Cpu);
        script.reallocate_at(25, ids[0], Delegate::Nnapi, 1);
        const double joins[] = {40, 55, 75, 95};
        for (int i = 2; i <= 5; ++i)
          script.at(joins[i - 2], cat({"N", std::to_string(i)}),
                    [&ids, i](app::MarApp& a) {
                      ids[i - 1] = a.add_task(
                          "deeplabv3", cat({"deeplabv3_", std::to_string(i)}),
                          Delegate::Nnapi);
                    });
        const auto move = [&](double t, const char* label, int i, Delegate d) {
          script.at(t, label, [&ids, i, d](app::MarApp& a) {
            a.engine().set_delegate(ids[i], d);
          });
        };
        move(120, "C5", 4, Delegate::Cpu);    // relieve the delegate ...
        move(140, "N5", 4, Delegate::Nnapi);  // ... and back before objects
        place(script, {{150, "plane", 2.0}, {151, "bike", 1.6},
                       {152, "plane", 1.9}, {180, "plane", 2.4},
                       {181, "splane", 1.8}, {182, "Cocacola", 1.4},
                       {183, "plane", 1.7}, {184, "statue", 1.5}});
        move(200, "C5", 4, Delegate::Cpu);  // now helps everyone ...
        move(225, "C4", 3, Delegate::Cpu);  // ... a second one overloads CPU
      });
}

/// Fig. 2c: a mixed taskset on GPU/NNAPI under render load.
void fig2c(const Seed& s) {
  fig2_panel(
      "Fig. 2c: mixed taskset (segmentation+classification)", s, true,
      {0, 40, 80, 120, 160}, [](app::MarApp& app, app::ScriptRunner& script) {
        app.add_task("mobilenet-v1", "mobilenetv1_1", Delegate::Nnapi);
        const TaskId inc = app.add_task("inception-v1-q", "inception_1",
                                        Delegate::Nnapi);
        const TaskId dec = app.add_task("deconv-munet", "deconv_1",
                                        Delegate::Gpu);
        app.add_task("deeplabv3", "deeplabv3_1", Delegate::Nnapi);
        place(script, {{40, "plane", 2.0}, {41, "bike", 1.8},
                       {42, "Cocacola", 1.2}, {43, "statue", 1.5},
                       {44, "plane", 1.7}, {45, "splane", 2.2}});
        script.reallocate_at(80, dec, Delegate::Nnapi, 1);
        script.reallocate_at(120, inc, Delegate::Gpu, 1);
      });
}

// --- Fig. 4 + Tables II/III -------------------------------------------------

/// Tables III and IV: each column's delegate for every task of the first
/// column ("-" where it has no such task), then its triangle ratio.
void print_allocations(const char* corner,
                       const std::vector<baselines::BaselineOutcome>& cols,
                       const std::vector<std::vector<std::string>>& labels) {
  std::vector<std::string> header = {corner};
  for (const auto& c : cols) header.push_back(c.name);
  TextTable table(header);
  for (const std::string& label : labels[0]) {
    std::vector<std::string> row = {label};
    for (std::size_t c = 0; c < cols.size(); ++c) {
      const auto it = std::find(labels[c].begin(), labels[c].end(), label);
      row.push_back(it == labels[c].end()
                        ? "-"
                        : soc::delegate_name(
                              cols[c].allocation[it - labels[c].begin()]));
    }
    table.add_row(row);
  }
  std::vector<std::string> ratio_row = {"Triangle Count Ratio"};
  for (const auto& c : cols)
    ratio_row.push_back(TextTable::num(c.triangle_ratio, 2));
  table.add_row(ratio_row);
  table.print(std::cout);
}

struct Activation {
  std::string name;
  std::unique_ptr<app::MarApp> app;
  core::ActivationResult result;
};

Activation activate(ObjectSet o, TaskSet t, const Seed& s) {
  Activation a{scenario_name(o, t),
               scenario::make_app(soc::pixel7(), o, t, s.engine()), {}};
  core::HboController hbo(*a.app, hbo_config(s));
  a.result = hbo.run_activation();
  return a;
}

/// First iteration (1-based) within 5% (plus 0.02 absolute slack) of the
/// final best cost: the strict minimum often improves marginally late on
/// the noisy cost surface.
double converged_at(const core::ActivationResult& r) {
  const auto curve = r.best_cost_curve();
  const double tol = 0.05 * std::abs(curve.back()) + 0.02;
  for (std::size_t i = 0; i < curve.size(); ++i)
    if (curve[i] <= curve.back() + tol) return static_cast<double>(i + 1);
  return static_cast<double>(curve.size());
}

/// Fig. 4 across the four scenarios; `shared` is this seed's SC1-CF1 run.
void fig4(const Activation& shared, const Seed& s, Obs& o) {
  const Activation others[] = {activate(ObjectSet::SC2, TaskSet::CF1, s),
                               activate(ObjectSet::SC1, TaskSet::CF2, s),
                               activate(ObjectSet::SC2, TaskSet::CF2, s)};
  const Activation* runs[] = {&shared, &others[0], &others[1], &others[2]};
  for (std::size_t i = 0; i < 4; ++i) {
    const core::ActivationResult& r = runs[i]->result;
    o.ratio[i] = r.best().triangle_ratio;
    o.best_cost[i] = r.best().cost;
    o.converged_at[i] = converged_at(r);
  }
  if (!s.print) return;

  benchutil::banner("Fig. 4 + Table III", "HBO across SC1/SC2 x CF1/CF2");
  benchutil::section("Table II: example scenarios (inputs)");
  TextTable objs(std::vector<std::string>{"Object set", "Mesh", "Distance (m)",
                                          "Max triangles"});
  for (auto set : {ObjectSet::SC1, ObjectSet::SC2})
    for (const auto& p : scenario::object_placements(set))
      objs.add_row({scenario::object_set_name(set), p.asset->name(),
                    TextTable::num(p.distance_m, 1),
                    std::to_string(p.asset->max_triangles())});
  objs.print(std::cout);
  TextTable tasks(std::vector<std::string>{"Taskset", "Model", "Label"});
  for (auto set : {TaskSet::CF1, TaskSet::CF2})
    for (const auto& t : scenario::task_specs(set))
      tasks.add_row({scenario::task_set_name(set), t.model, t.label});
  tasks.print(std::cout);
  benchutil::section("Table III: AI allocation and triangle ratio");
  std::vector<baselines::BaselineOutcome> cols;
  std::vector<std::vector<std::string>> labels;  // CF2's are CF1's subset
  for (const Activation* run : runs) {
    cols.push_back({run->name, run->result.best().allocation,
                    run->result.best().triangle_ratio, {}, {}});
    labels.push_back(run->app->task_labels());
  }
  print_allocations("AI Model/Scenario", cols, labels);

  benchutil::section("Fig. 4c: best cost vs iteration (running minimum)");
  std::vector<std::vector<double>> curves;
  for (const Activation* run : runs)
    curves.push_back(run->result.best_cost_curve());
  std::vector<std::string> header = {"iter"};
  for (const Activation* run : runs) header.push_back(run->name);
  TextTable conv(header);
  for (std::size_t i = 0; i < curves[0].size(); ++i) {
    std::vector<std::string> row = {std::to_string(i + 1)};
    for (const auto& curve : curves) row.push_back(TextTable::num(curve[i], 3));
    conv.add_row(row);
  }
  conv.print(std::cout);
}

// --- Fig. 5 + Table IV, Fig. 6 ----------------------------------------------

/// HBO (this seed's SC1-CF1 run) against SMQ, SML, BNT and AllN, each on a
/// fresh identical app; then Fig. 6's view of the same activation.
void fig5_fig6(const Activation& hbo, const Seed& s, Obs& o) {
  const core::IterationRecord& best = hbo.result.best();
  std::vector<baselines::BaselineOutcome> rows = {
      {"HBO", best.allocation, best.triangle_ratio, best.object_ratios,
       hbo.app->run_period(4.0)},
      baselines::run_smq(*sc1_cf1(s), best.object_ratios, best.triangle_ratio)};
  baselines::SmlConfig sml;
  sml.target_latency_ratio = rows[0].metrics.latency_ratio;
  rows.push_back(baselines::run_sml(*sc1_cf1(s), sml));
  rows.push_back(baselines::run_bnt(*sc1_cf1(s), hbo_config(s)));
  rows.push_back(baselines::run_alln(*sc1_cf1(s)));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    o.mean_ms[i] = rows[i].metrics.mean_task_latency_ms();
    o.quality[i] = rows[i].metrics.average_quality;
  }

  // Fig. 6d: per-task latency of HBO's best configuration vs SMQ at same x.
  TextTable d(std::vector<std::string>{"task", "HBO (ms)", "SMQ (ms)",
                                       "SMQ/HBO", "improvement"});
  o.gain_worst = 1e9;
  for (const auto& [label, hbo_ms] : rows[0].metrics.task_latency_ms) {
    const double smq_ms = rows[1].metrics.task_latency_ms.at(label);
    const double gain = 100.0 * (smq_ms - hbo_ms) / hbo_ms;
    o.gain_best = std::max(o.gain_best, gain);
    o.gain_worst = std::min(o.gain_worst, gain);
    d.add_row({label, TextTable::num(hbo_ms, 1), TextTable::num(smq_ms, 1),
               cat({TextTable::num(smq_ms / hbo_ms, 2), "x"}),
               cat({TextTable::num(gain, 1), "%"})});
  }
  o.best = best;
  if (!s.print) return;

  benchutil::banner("Fig. 5 + Table IV", "HBO vs SMQ/SML/BNT/AllN, SC1-CF1");
  benchutil::section("Table IV: AI allocation and triangle ratio comparison");
  print_allocations("AI Model/Experiment", rows,
                    {rows.size(), hbo.app->task_labels()});

  benchutil::section("Fig. 5b/5c: quality vs ratio, latency ratio");
  TextTable fig(std::vector<std::string>{
      "Strategy", "Triangle ratio x", "Avg quality Q", "Avg latency eps",
      "Mean task latency (ms)", "Mean latency vs HBO"});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const app::PeriodMetrics& m = rows[i].metrics;
    fig.add_row({rows[i].name, TextTable::num(rows[i].triangle_ratio, 2),
                 TextTable::num(m.average_quality, 3),
                 TextTable::num(m.latency_ratio, 2),
                 TextTable::num(o.mean_ms[i], 1),
                 cat({TextTable::num(o.mean_ms[i] / o.mean_ms[0], 2), "x"})});
  }
  fig.print(std::cout);

  benchutil::banner("Fig. 6", "detailed HBO analysis on SC1-CF1 (Pixel 7)");
  benchutil::section("Fig. 6a-c: per-iteration series");
  const auto distances = hbo.result.consecutive_distances();
  const auto best_curve = hbo.result.best_cost_curve();
  TextTable series(std::vector<std::string>{
      "iter", "phase", "dist(z_t,z_t-1)", "cost", "best cost", "quality Q",
      "latency eps", "ratio x"});
  for (std::size_t i = 0; i < hbo.result.history.size(); ++i) {
    const core::IterationRecord& r = hbo.result.history[i];
    series.add_row({std::to_string(i + 1), r.random_init ? "init" : "BO",
                    i == 0 ? "-" : TextTable::num(distances[i - 1], 3),
                    TextTable::num(r.cost, 3), TextTable::num(best_curve[i], 3),
                    TextTable::num(r.quality, 3),
                    TextTable::num(r.latency_ratio, 3),
                    TextTable::num(r.triangle_ratio, 2)});
  }
  series.print(std::cout);
  benchutil::section("Fig. 6d: per-task latency (ms), HBO vs SMQ at same x");
  d.print(std::cout);
}

// --- Fig. 7 -----------------------------------------------------------------

/// Six independent activations of one scenario; returns the stdev of their
/// final and of their first best costs.
std::pair<double, double> fig7_panel(ObjectSet objects, TaskSet tasks,
                                     const Seed& s) {
  constexpr int kRuns = 6;
  std::vector<core::ActivationResult> results;
  for (int run = 0; run < kRuns; ++run) {
    auto app = scenario::make_app(soc::pixel7(), objects, tasks,
                                  s.engine(0x5EEDu + run));
    core::HboConfig cfg;
    cfg.seed = s.hbo(1000 + 77 * run);  // a different BO start per run
    core::HboController hbo(*app, cfg);
    results.push_back(hbo.run_activation());
  }
  std::vector<double> first, final_;
  for (const auto& r : results) {
    first.push_back(r.best_cost_curve().front());
    final_.push_back(r.best_cost_curve().back());
  }
  if (s.print) {
    benchutil::section(cat({"Fig. 7 panel: ", scenario_name(objects, tasks),
                            " (6 runs)"}));
    std::vector<std::string> header = {"iter"};
    for (int run = 0; run < kRuns; ++run)
      header.push_back(cat({"run", std::to_string(run + 1)}));
    TextTable table(header);
    for (std::size_t i = 0; i < results[0].history.size(); ++i) {
      std::vector<std::string> row = {std::to_string(i + 1)};
      for (const auto& r : results)
        row.push_back(TextTable::num(r.best_cost_curve()[i], 3));
      table.add_row(row);
    }
    table.print(std::cout);
    TextTable fin(std::vector<std::string>{"run", "final best cost",
                                           "usage c", "ratio x"});
    for (int run = 0; run < kRuns; ++run) {
      const core::IterationRecord& b = results[run].best();
      std::string usage;
      for (double u : b.usage)
        usage += cat({usage.empty() ? "[" : ", ", TextTable::num(u, 2)});
      fin.add_row({std::to_string(run + 1), TextTable::num(b.cost, 3),
                   cat({usage, "]"}), TextTable::num(b.triangle_ratio, 2)});
    }
    fin.print(std::cout);
  }
  return {stdev(final_), stdev(first)};
}

// --- Fig. 8 -----------------------------------------------------------------

constexpr double kFig8End = 420.0;

struct MonitoredRun {
  std::vector<std::pair<double, double>> rewards;  // (t, B)
  std::vector<double> activations;                 // activation start times
};

/// One monitored session over the scripted timeline: ten placements (the
/// tenth is the paper's heavy object) and a distance change at t = 320 s.
/// `event_policy` selects Fig. 8a (event thresholds) vs 8b (periodic).
MonitoredRun fig8_session(bool event_policy, const Seed& s) {
  auto app = std::make_unique<app::MarApp>(soc::pixel7(), app_config(s));
  for (const auto& t : scenario::task_specs(TaskSet::CF1))
    app->add_task(t.model, t.label);
  const Placement placements[] = {
      {1, "cabin", 1.4},     {25, "andy", 1.1},     {55, "hammer", 1.8},
      {85, "Cocacola", 1.5}, {115, "apricot", 1.2}, {145, "ATV", 2.0},
      {175, "plane", 2.2},   {205, "bike", 1.8},    {230, "plane", 1.9},
      {255, "statue", 1.5}};
  for (const auto& [at, mesh, distance] : placements)
    app->sim().schedule_at(at, [a = app.get(), mesh, distance] {
      a->add_object(scenario::mesh_asset(mesh), distance);
    });
  app->sim().schedule_at(320.0,
                         [a = app.get()] { a->set_user_distance_scale(1.8); });
  app->start();

  const core::HboConfig cfg = hbo_config(s);
  core::HboController hbo(*app, cfg);
  core::EventActivationPolicy event(cfg.up_fraction, cfg.down_fraction);
  core::PeriodicActivationPolicy periodic(10);  // every ~20 s monitored
  MonitoredRun out;
  // A 2 s window's noise is comparable to the 5% threshold, so the policy
  // sees an EWMA-smoothed reward.
  Ewma smoothed(0.35);
  while (app->sim().now() < kFig8End) {
    const double reward = app->run_period(cfg.monitor_period_s).reward(cfg.w);
    smoothed.add(reward);
    out.rewards.emplace_back(app->sim().now(), reward);
    if (app->scene().empty()) continue;  // the policy arms at first placement
    if (!(event_policy ? event.should_activate(smoothed.value())
                       : periodic.should_activate()))
      continue;
    out.activations.push_back(app->sim().now());
    hbo.run_activation();
    // The post-activation reward becomes the new reference (Section IV-E):
    // one settle period, then the mean of three clean periods.
    app->run_period(cfg.monitor_period_s);
    double reference = 0.0;
    for (int i = 0; i < 3; ++i) {
      const double r = app->run_period(cfg.monitor_period_s).reward(cfg.w);
      reference += r / 3.0;
      out.rewards.emplace_back(app->sim().now(), r);
    }
    event.set_reference(reference);
    smoothed = Ewma(0.35);
    smoothed.add(reference);
  }
  return out;
}

/// Mean reward over the session's last 20 simulated seconds.
double end_reward(const MonitoredRun& run) {
  std::vector<double> tail;
  for (const auto& [t, r] : run.rewards)
    if (t > kFig8End - 20.0) tail.push_back(r);
  return mean(tail);
}

void fig8(const Seed& s, Obs& o) {
  const MonitoredRun event = fig8_session(true, s);
  const MonitoredRun periodic = fig8_session(false, s);
  o.event_acts = static_cast<double>(event.activations.size());
  o.periodic_acts = static_cast<double>(periodic.activations.size());
  o.event_end = end_reward(event);
  o.periodic_end = end_reward(periodic);
  if (!s.print) return;
  benchutil::banner("Fig. 8", "event-based vs periodic HBO activation");
  for (const auto& [name, run] :
       {std::pair{"Fig. 8a: event-based activation policy", &event},
        std::pair{"Fig. 8b: periodic activation policy", &periodic}}) {
    benchutil::section(name);
    std::cout << "activations (" << run->activations.size() << "):";
    for (double t : run->activations)
      std::cout << "  t=" << TextTable::num(t, 0);
    std::cout << "\nreward timeline (every ~10th sample):\n";
    TextTable table(std::vector<std::string>{"t (s)", "reward B"});
    for (std::size_t i = 0; i < run->rewards.size(); i += 10)
      table.add_row({TextTable::num(run->rewards[i].first, 0),
                     TextTable::num(run->rewards[i].second, 3)});
    table.print(std::cout);
  }
}

// --- Fig. 9 -----------------------------------------------------------------

/// The user study: HBO and SML (at HBO's latency) on the mixed object set,
/// close and far, scored by the synthetic seven-rater panel (DESIGN.md).
void fig9(const Seed& s, Obs& o) {
  study::RaterPanelConfig panel_cfg;
  panel_cfg.seed = s.engine(panel_cfg.seed);
  study::RaterPanel panel(panel_cfg);
  TextTable table(std::vector<std::string>{
      "condition", "distance", "ratio x", "est. quality Q", "eps",
      "MOS (1-5)", "MOS stdev"});
  const auto row = [&](const char* name, const char* distance, double ratio,
                       const app::PeriodMetrics& m) {
    const study::StudyResult mos = panel.evaluate(m.average_quality);
    table.add_row({name, distance, TextTable::num(ratio, 2),
                   TextTable::num(m.average_quality, 3),
                   TextTable::num(m.latency_ratio, 2),
                   TextTable::num(mos.mean, 1), TextTable::num(mos.stdev, 2)});
    return mos.mean;
  };
  const std::pair<const char*, double> distances[] = {{"close", 1.0},
                                                      {"far", 2.2}};
  for (std::size_t i = 0; i < 2; ++i) {
    const auto make = [&] {
      auto app = scenario::make_app(soc::pixel7(), ObjectSet::UserStudyMix,
                                    TaskSet::CF1, s.engine());
      app->set_user_distance_scale(distances[i].second);
      return app;
    };
    auto hbo_app = make();
    core::HboController hbo(*hbo_app, hbo_config(s));
    const double hbo_ratio = hbo.run_activation().best().triangle_ratio;
    const app::PeriodMetrics hbo_m = hbo_app->run_period(4.0);
    o.hbo_mos[i] = row("HBO", distances[i].first, hbo_ratio, hbo_m);
    baselines::SmlConfig sml_cfg;
    sml_cfg.target_latency_ratio = hbo_m.latency_ratio;
    const baselines::BaselineOutcome sml = baselines::run_sml(*make(), sml_cfg);
    o.sml_mos[i] = row("SML", distances[i].first, sml.triangle_ratio,
                       sml.metrics);
    o.mos_gain = std::max(o.mos_gain,
                          100.0 * (o.hbo_mos[i] - o.sml_mos[i]) / o.sml_mos[i]);
    o.hbo_ratio[i] = hbo_ratio;
    o.sml_ratio[i] = sml.triangle_ratio;
  }
  if (!s.print) return;
  benchutil::banner("Fig. 9", "user study: perceived quality, HBO vs SML");
  table.print(std::cout);
}

// --- Cost landscape and ablations ------------------------------------------

/// SC1-CF1 measured at a fixed allocation and total triangle ratio x.
app::PeriodMetrics measure_at(const std::vector<Delegate>& alloc, double x,
                              const Seed& s) {
  auto a = sc1_cf1(s);
  a->start();
  a->apply_allocation(alloc);
  a->apply_object_ratios(
      core::distribute_waterfill(core::HboController::object_states(*a), x));
  a->run_period(2.0);  // settle
  return a->run_period(8.0);
}

double cost_of(const app::PeriodMetrics& m) {
  return -(m.average_quality - 2.5 * m.latency_ratio);
}

/// The deterministic cost surface HBO optimizes over (not a paper
/// artefact): the ground truth its Fig. 4-7 choices are judged against.
void landscape(const Seed& s, Obs& o) {
  const Delegate C = Delegate::Cpu, G = Delegate::Gpu, N = Delegate::Nnapi;
  // Task order: mnist, mobnetD1, mmdata1, mmdata2, mobnetC1, efflite1.
  const std::vector<Delegate> hbo_alloc = {C, N, C, C, N, N};   // Table IV HBO
  const std::vector<Delegate> stat_alloc = {G, N, G, G, N, N};  // SMQ/SML
  TextTable t(std::vector<std::string>{"x", "Q", "eps", "mean ms",
                                       "cost (w=2.5)"});
  app::PeriodMetrics full;
  for (double x : kLandscapeX) {
    const app::PeriodMetrics m = measure_at(hbo_alloc, x, s);
    o.landscape.push_back(cost_of(m));
    t.add_row({TextTable::num(x, 1), TextTable::num(m.average_quality, 3),
               TextTable::num(m.latency_ratio, 3),
               TextTable::num(m.mean_task_latency_ms(), 1),
               TextTable::num(o.landscape.back(), 3)});
    full = m;  // ends at x = 1
  }
  const app::PeriodMetrics sml = measure_at(stat_alloc, 0.2, s);
  o.static_cost = cost_of(sml);
  if (!s.print) return;

  benchutil::banner("Cost landscape", "HBO's cost surface on SC1-CF1");
  benchutil::section("HBO allocation across the ratio axis");
  t.print(std::cout);
  benchutil::section("Baseline operating points");
  TextTable b(std::vector<std::string>{"config", "x", "Q", "eps", "mean ms"});
  const auto row = [&](const char* name, double x,
                       const app::PeriodMetrics& m) {
    b.add_row({name, TextTable::num(x, 2),
               TextTable::num(m.average_quality, 3),
               TextTable::num(m.latency_ratio, 3),
               TextTable::num(m.mean_task_latency_ms(), 1)});
  };
  row("static (SMQ) @0.72", 0.72, measure_at(stat_alloc, 0.72, s));
  row("static (SML) @0.20", 0.20, sml);
  row("HBO alloc   @1.00", 1.0, full);
  row("AllN        @1.00", 1.0, measure_at({N, N, N, N, N, N}, 1.0, s));
  b.print(std::cout);
}

/// Ablation 3 (every seed): uniform vs the paper's sensitivity heuristic vs
/// exact water-filling at equal triangle budgets.
bool distributor_ablation(const Seed& s) {
  const auto objects = core::HboController::object_states(*sc1_cf1(s));
  TextTable table(std::vector<std::string>{
      "budget x", "uniform Q", "sensitivity Q (paper)", "water-fill Q"});
  bool ordered = true;
  for (double x : {0.3, 0.5, 0.72, 0.9}) {
    const double uniform = core::assignment_quality(
        objects, std::vector<double>(objects.size(), x));
    const double sens = core::assignment_quality(
        objects, core::distribute_sensitivity(objects, x));
    const double water = core::assignment_quality(
        objects, core::distribute_waterfill(objects, x));
    ordered = ordered && uniform < sens && sens < water;
    table.add_row({TextTable::num(x, 2), TextTable::num(uniform, 3),
                   TextTable::num(sens, 3), TextTable::num(water, 3)});
  }
  if (s.print) {
    benchutil::section(
        "Ablation 3: triangle distributor quality at equal budgets");
    table.print(std::cout);
  }
  return ordered;
}

/// Ablations 1, 2 and 4, printed on the k = 0 pass only (no claim reads
/// them). `fresh` is the seed's default SC1-CF1 activation.
void print_ablations(const core::ActivationResult& fresh, const Seed& s,
                     Obs& o) {
  benchutil::banner("Ablations", "design choices called out by the paper");
  // Best costs of three activations per variant, at fixed BO seeds.
  const auto best_costs = [&](const std::function<void(core::HboConfig&)>& set,
                              std::uint64_t base, std::uint64_t stride) {
    std::vector<double> costs;
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      core::HboConfig cfg;
      set(cfg);
      cfg.seed = s.hbo(base + stride * seed);
      auto app = sc1_cf1(s);
      core::HboController hbo(*app, cfg);
      costs.push_back(hbo.run_activation().best().cost);
    }
    return costs;
  };
  benchutil::section("Ablation 1: acquisition function (3 seeds each)");
  TextTable acq(std::vector<std::string>{"acquisition", "mean best cost",
                                         "best", "worst"});
  for (auto kind : {bo::AcquisitionKind::ExpectedImprovement,
                    bo::AcquisitionKind::ProbabilityOfImprovement,
                    bo::AcquisitionKind::LowerConfidenceBound}) {
    const auto c = best_costs(
        [kind](core::HboConfig& cfg) { cfg.bo.acquisition = kind; }, 100, 31);
    acq.add_row({bo::acquisition_name(kind),
                 TextTable::num((c[0] + c[1] + c[2]) / 3, 3),
                 TextTable::num(std::min({c[0], c[1], c[2]}), 3),
                 TextTable::num(std::max({c[0], c[1], c[2]}), 3)});
  }
  acq.print(std::cout);

  benchutil::section("Ablation 2: GP kernel (3 seeds each)");
  TextTable kern(std::vector<std::string>{"kernel", "mean best cost"});
  for (auto kind : {bo::KernelKind::Matern52, bo::KernelKind::Matern32,
                    bo::KernelKind::Rbf}) {
    const auto c = best_costs(
        [kind](core::HboConfig& cfg) { cfg.bo.kernel = kind; }, 500, 13);
    kern.add_row({bo::kernel_kind_name(kind),
                  TextTable::num((c[0] + c[1] + c[2]) / 3, 3)});
  }
  kern.print(std::cout);

  o.distributor_ordered = distributor_ablation(s);

  benchutil::section("Ablation 4: Section VI lookup-table warm start");
  const core::HboConfig cfg = hbo_config(s);
  core::SolutionLookupTable table;
  table.store(core::SolutionLookupTable::make_key(*sc1_cf1(s)),
              core::StoredSolution{fresh.best().z, fresh.best().cost});
  // Revisit of the same environment: apply the remembered solution.
  auto revisit = scenario::make_app(soc::pixel7(), ObjectSet::SC1,
                                    TaskSet::CF1, s.engine(0xFACEu));
  revisit->start();
  core::HboController warm(*revisit, cfg);
  double warm_cost = 0.0;
  if (const auto hit =
          table.find(core::SolutionLookupTable::make_key(*revisit))) {
    warm.apply_configuration(hit->z);
    revisit->run_period(2.0);  // settle
    warm_cost = core::cost_of(revisit->run_period(4.0), core::CostTerms{cfg.w});
  }
  TextTable t(std::vector<std::string>{"path", "control periods spent",
                                       "resulting cost"});
  t.add_row({"fresh activation",
             std::to_string(cfg.n_initial + cfg.n_iterations),
             TextTable::num(fresh.best().cost, 3)});
  t.add_row({"lookup-table warm start", "1", TextTable::num(warm_cost, 3)});
  t.print(std::cout);
}

/// Every scenario of one seed, in the paper's order.
Obs measure(const Seed& s) {
  Obs o;
  o.table1_err_ms = table1(s);
  if (s.print) {
    benchutil::banner("Fig. 2", "taskset + triangles vs AI latency (S22)");
    fig2a(s);
  }
  o.fig2b = fig2b(s);
  if (s.print) fig2c(s);
  const Activation shared = activate(ObjectSet::SC1, TaskSet::CF1, s);
  fig4(shared, s, o);
  fig5_fig6(shared, s, o);
  if (s.print)
    benchutil::banner("Fig. 7", "convergence robustness across 6 runs");
  for (std::size_t p = 0; p < 2; ++p)
    std::tie(o.spread_final[p], o.spread_initial[p]) =
        fig7_panel(p ? ObjectSet::SC2 : ObjectSet::SC1, TaskSet::CF2, s);
  fig8(s, o);
  fig9(s, o);
  landscape(s, o);
  if (s.print)
    print_ablations(shared.result, s, o);
  else
    o.distributor_ordered = distributor_ablation(s);
  return o;
}

// --- The claim table --------------------------------------------------------

enum class Kind { Exact, Claim, Deviation };
const char* const kKindName[] = {"exact", "claim", "deviation"};

using Stat = std::vector<double>;

/// A row reports a statistic per seed; it wins a seed when `holds` accepts
/// that seed's statistic.
struct Row {
  const char* id;
  const char* figure;
  Kind kind;
  const char* paper;
  const char* statistic;  ///< What `stat` reports, one name per component.
  std::function<Stat(const Obs&)> stat;
  std::function<bool(const Stat&)> holds;
};

/// A measurement reproduces a paper point value within the relative band.
bool near(double measured, double paper) {
  return std::abs(measured - paper) <= kBand * std::abs(paper);
}

/// Paper point values, each reproduced within kBand.
Row point(const char* id, const char* figure, Kind kind, const char* paper,
          const char* statistic, Stat values,
          std::function<Stat(const Obs&)> stat) {
  return {id, figure, kind, paper, statistic, std::move(stat),
          [values](const Stat& x) {
            for (std::size_t i = 0; i < x.size(); ++i)
              if (!near(x[i], values[i])) return false;
            return true;
          }};
}

/// An order: the statistic's first component is strictly below its second.
Row less(const char* id, const char* figure, Kind kind, const char* paper,
         const char* statistic, std::function<Stat(const Obs&)> stat) {
  return {id, figure, kind, paper, statistic, std::move(stat),
          [](const Stat& x) { return x[0] < x[1]; }};
}

/// A Fig. 2b step: from segment `from` to `to`, the latency of every
/// listed instance (0-based) falls (sign -1) or rises (sign +1).
struct Step { int from, to; std::vector<int> instances; int sign; };

/// A Fig. 2b clause. Per step it reports the listed instances' change that
/// comes closest to breaking it: the smallest rise, or the largest fall.
Row fig2b_row(const char* id, Kind kind, const char* paper,
              const char* statistic, std::vector<Step> steps) {
  std::vector<int> signs;
  for (const Step& st : steps) signs.push_back(st.sign);
  return {id, "Fig. 2b", kind, paper, statistic,
          [steps](const Obs& o) {
            Stat x;
            for (const Step& st : steps) {
              double margin = 1e300;
              for (int i : st.instances)
                margin = std::min(margin, st.sign * (o.fig2b[st.to][i] -
                                                     o.fig2b[st.from][i]));
              x.push_back(st.sign * margin);
            }
            return x;
          },
          [signs](const Stat& x) {
            for (std::size_t j = 0; j < x.size(); ++j)
              if (!(signs[j] * x[j] > 0)) return false;
            return true;
          }};
}

double landscape_min_x(const Obs& o) {
  const auto it = std::min_element(o.landscape.begin(), o.landscape.end());
  return kLandscapeX[static_cast<std::size_t>(it - o.landscape.begin())];
}

/// Mean task latency of Fig. 5 strategy i over HBO's.
double over_hbo(const Obs& o, int i) { return o.mean_ms[i] / o.mean_ms[0]; }

std::vector<Row> claim_rows() {
  constexpr Kind E = Kind::Exact, C = Kind::Claim, D = Kind::Deviation;
  // Fig. 2b segments: C1 alone, N1, +N2..+N5, C5, N5, 3 objects, 8
  // objects, C5, C4. Instance i (0-based) is on NNAPI from segment i + 1.
  enum { kC1, kN1, kN2, kN3, kN4, kN5, kC5, kBack, kObj3, kObj8, kC5b, kC4 };
  return {
      {"table1.isolation", "Table I", E, "Table I values",
       "max abs(profiled - calibrated) ms",
       [](const Obs& o) { return Stat{o.table1_err_ms}; },
       [](const Stat& x) { return x[0] <= 0.05; }},
      fig2b_row("fig2b.nnapi_beats_cpu", C, "N1 < C1",
                "deeplabv3_1 ms change, C1 to N1", {{kC1, kN1, {0}, -1}}),
      fig2b_row("fig2b.crowding", C,
                "each added NNAPI instance raises every latency",
                "smallest ms rise of a resident as N2 / N3 / N4 / N5 join",
                {{kN1, kN2, {0}, 1}, {kN2, kN3, {0, 1}, 1},
                 {kN3, kN4, {0, 1, 2}, 1}, {kN4, kN5, {0, 1, 2, 3}, 1}}),
      fig2b_row("fig2b.c5_helps_only_5", D,
                "C5 at t=120 helps instance 5 only",
                "ms change at t=120: instance 5 / smallest of the others",
                {{kN5, kC5, {4}, -1}, {kN5, kC5, {0, 1, 2, 3}, 1}}),
      fig2b_row("fig2b.objects_inflate_all", C,
                "objects at t=150+ inflate all NNAPI latencies",
                "smallest ms rise, [140,150) to [180,200)",
                {{kBack, kObj8, {0, 1, 2, 3, 4}, 1}}),
      fig2b_row("fig2b.c5_helps_all", D, "C5 at t=200 helps every task",
                "largest ms change at t=200",
                {{kObj8, kC5b, {0, 1, 2, 3, 4}, -1}}),
      fig2b_row("fig2b.c4_splits", C,
                "C4 at t=225 helps NNAPI residents, hurts CPU residents",
                "ms change at t=225: largest of NNAPI residents / CPU one",
                {{kC5b, kC4, {0, 1, 2}, -1}, {kC5b, kC4, {4}, 1}}),
      point("table3.ratio.SC1-CF1", "Table III", D, "0.72", "triangle ratio",
            {0.72}, [](const Obs& o) { return Stat{o.ratio[0]}; }),
      point("table3.ratio.SC2-CF1", "Table III", D, "1.00", "triangle ratio",
            {1.0}, [](const Obs& o) { return Stat{o.ratio[1]}; }),
      point("table3.ratio.SC1-CF2", "Table III", D, "0.85", "triangle ratio",
            {0.85}, [](const Obs& o) { return Stat{o.ratio[2]}; }),
      point("table3.ratio.SC2-CF2", "Table III", D, "0.94", "triangle ratio",
            {0.94}, [](const Obs& o) { return Stat{o.ratio[3]}; }),
      {"fig4.convergence", "Fig. 4c", D, "best 7 / avg 13 of 20",
       "best / mean iteration within 5% of final, 4 scenarios",
       [](const Obs& o) {
         const auto& at = o.converged_at;
         return Stat{*std::min_element(at.begin(), at.end()), mean(at)};
       },
       [](const Stat& x) { return x[0] <= 7 && x[1] <= 13; }},
      less("fig4.lowest_best_cost", "Fig. 4c", D, "SC2-CF2",
           "best cost SC2-CF2 / lowest other", [](const Obs& o) {
             const auto& c = o.best_cost;
             return Stat{c[3], std::min({c[0], c[1], c[2]})};
           }),
      {"fig5.smq_latency", "Fig. 5c", C, "~1.5x (HBO < SMQ)",
       "SMQ / HBO mean latency",
       [](const Obs& o) { return Stat{over_hbo(o, 1)}; },
       [](const Stat& x) { return x[0] > 1.0; }},
      {"fig5.sml_quality", "Fig. 5b", C, "+14.5% (HBO > SML)",
       "HBO quality over SML %",
       [](const Obs& o) {
         return Stat{100.0 * (o.quality[0] - o.quality[2]) / o.quality[2]};
       },
       [](const Stat& x) { return x[0] > 0.0; }},
      less("fig5.bnt_smq_order", "Fig. 5c", D, "SMQ ~1.5x < BNT ~2.2x",
           "SMQ / BNT mean latency over HBO's",
           [](const Obs& o) { return Stat{over_hbo(o, 1), over_hbo(o, 3)}; }),
      less("fig5.alln_worst", "Fig. 5c", C, "AllN slowest",
           "next-slowest / AllN mean latency over HBO's", [](const Obs& o) {
             return Stat{std::max({over_hbo(o, 1), over_hbo(o, 2),
                                   over_hbo(o, 3), 1.0}),
                         over_hbo(o, 4)};
           }),
      point("fig5.alln_latency", "Fig. 5c", D, "~3.5x",
            "AllN / HBO mean latency", {3.5},
            [](const Obs& o) { return Stat{over_hbo(o, 4)}; }),
      point("fig5.quality_sacrifice", "Fig. 5b", D, "~13%",
            "HBO quality below AllN %", {13.0}, [](const Obs& o) {
              return Stat{100.0 * (o.quality[4] - o.quality[0]) / o.quality[4]};
            }),
      point("fig6.best_iteration", "Fig. 6b", D, "7th of 20",
            "iteration of the selected best", {7.0},
            [](const Obs& o) { return Stat{o.best.index + 1.0}; }),
      point("fig6.best_quality", "Fig. 6c", C, "0.87", "quality Q at best",
            {0.87}, [](const Obs& o) { return Stat{o.best.quality}; }),
      point("fig6.best_latency", "Fig. 6c", D, "0.69", "latency eps at best",
            {0.69}, [](const Obs& o) { return Stat{o.best.latency_ratio}; }),
      point("fig6.task_gain_best", "Fig. 6d", D, "103% (mobnetC1)",
            "best per-task latency gain over SMQ %", {103.0},
            [](const Obs& o) { return Stat{o.gain_best}; }),
      point("fig6.task_gain_worst", "Fig. 6d", D, "23.8% (mobnetD1)",
            "worst per-task latency gain over SMQ %", {23.8},
            [](const Obs& o) { return Stat{o.gain_worst}; }),
      less("fig7.spread.SC1-CF2", "Fig. 7a", C, "final << initial",
           "final / (0.25 x first) best-cost stdev, 6 runs", [](const Obs& o) {
             return Stat{o.spread_final[0], kMuchLess * o.spread_initial[0]};
           }),
      less("fig7.spread.SC2-CF2", "Fig. 7b", C, "final << initial",
           "final / (0.25 x first) best-cost stdev, 6 runs", [](const Obs& o) {
             return Stat{o.spread_final[1], kMuchLess * o.spread_initial[1]};
           }),
      point("fig8.event_activations", "Fig. 8a", D,
            "4 (first object, 9th, 10th heavy, distance)", "activations", {4.0},
            [](const Obs& o) { return Stat{o.event_acts}; }),
      point("fig8.periodic_activations", "Fig. 8b", C, "7", "activations",
            {7.0}, [](const Obs& o) { return Stat{o.periodic_acts}; }),
      less("fig8.event_fewer", "Fig. 8", C, "event < periodic",
           "event / periodic activations",
           [](const Obs& o) { return Stat{o.event_acts, o.periodic_acts}; }),
      {"fig8.end_reward", "Fig. 8", D, "comparable end reward",
       "event / periodic mean reward, last 20 s",
       [](const Obs& o) { return Stat{o.event_end, o.periodic_end}; },
       [](const Stat& x) { return near(x[0], x[1]); }},
      point("fig9.hbo_mos", "Fig. 9", C, "4.9 / 5.0", "HBO MOS close / far",
            {4.9, 5.0},
            [](const Obs& o) { return Stat{o.hbo_mos[0], o.hbo_mos[1]}; }),
      point("fig9.sml_mos", "Fig. 9", D, "3.0 / 3.6", "SML MOS close / far",
            {3.0, 3.6},
            [](const Obs& o) { return Stat{o.sml_mos[0], o.sml_mos[1]}; }),
      point("fig9.mos_gain", "Fig. 9", D, "38.7%",
            "max HBO MOS gain over SML %", {38.7},
            [](const Obs& o) { return Stat{o.mos_gain}; }),
      point("fig9.ratios", "Fig. 9", D, "0.52 vs 0.2",
            "HBO / SML triangle ratio, close", {0.52, 0.2},
            [](const Obs& o) { return Stat{o.hbo_ratio[0], o.sml_ratio[0]}; }),
      {"landscape.min_in_band", "landscape", C, "x in [0.5, 0.85]",
       "x of the lowest cost",
       [](const Obs& o) { return Stat{landscape_min_x(o)}; },
       [](const Stat& x) { return x[0] >= 0.5 && x[0] <= 0.85; }},
      less("landscape.hbo_beats_static", "landscape", C,
           "HBO allocation < static at equal x",
           "cost at x = 0.2, HBO / static",
           [](const Obs& o) { return Stat{o.landscape[0], o.static_cost}; }),
      less("landscape.x1_most_expensive", "landscape", D,
           "x = 1 costs the most",
           "highest cost below x = 1 / cost at x = 1", [](const Obs& o) {
             const auto& c = o.landscape;
             return Stat{*std::max_element(c.begin(), c.end() - 1), c.back()};
           }),
      {"ablation.distributor_order", "ablation", C,
       "uniform < sensitivity < water-fill", "1 if ordered at every budget",
       [](const Obs& o) { return Stat{o.distributor_ordered ? 1.0 : 0.0}; },
       [](const Stat& x) { return x[0] == 1.0; }},
  };
}

std::string fmt(double v, const char* spec = "%.4g") {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, spec, v);
  return buf;
}

/// One statistic over the seeds: its seed-0 value, mean, and percentile
/// bootstrap 95% CI of the mean (a fixed resampling stream, so reruns agree
/// bit for bit).
struct Summary { double seed0, mean, lo, hi; };

Summary summarize(const std::vector<double>& xs) {
  Rng rng(0xB0075u);
  std::vector<double> means(2000);
  for (double& m : means) {
    double sum = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i)
      sum += xs[rng.uniform_index(xs.size())];
    m = sum / static_cast<double>(xs.size());
  }
  return {xs[0], mean(xs), percentile(means, 2.5), percentile(means, 97.5)};
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::Cli cli{
      "paper_claims",
      "usage: paper_claims [--smoke] [--json PATH]\n"
      "  Checks the paper's claims over 64 seeds (16 with --smoke), writes\n"
      "  them to PATH (default PAPER_CLAIMS.json), exits 1 on a failure.\n",
      "PAPER_CLAIMS.json"};
  const benchutil::Args args = benchutil::parse_args(cli, argc, argv);
  const int seeds = args.smoke ? kSmokeSeeds : kSeeds;

  std::vector<Obs> obs;
  for (int k = 0; k < seeds; ++k) obs.push_back(measure(Seed{k, k == 0}));

  benchutil::banner("Paper claims",
                    cat({std::to_string(seeds), " seeds; a claim passes on >= ",
                         fmt(100 * kPassFraction), "% of them, ties losing"}));
  TextTable table(std::vector<std::string>{
      "id", "kind", "paper", "statistic", "seed 0", "mean [95% CI]", "wins",
      "status"});
  std::string json = cat(
      {"{\n  \"stamp\": ", benchutil::stamp_json(), ",\n  \"seeds\": ",
       std::to_string(seeds), ",\n  \"band\": ", fmt(kBand),
       ",\n  \"much_less\": ", fmt(kMuchLess), ",\n  \"pass_fraction\": ",
       fmt(kPassFraction), ",\n  \"rows\": ["});
  int failed = 0;
  for (const Row& row : claim_rows()) {
    int wins = 0;
    std::vector<std::vector<double>> samples;
    for (const Obs& o : obs) {
      const Stat x = row.stat(o);
      wins += row.holds(x) ? 1 : 0;
      samples.resize(x.size());
      for (std::size_t i = 0; i < x.size(); ++i) samples[i].push_back(x[i]);
    }
    const bool pass = row.kind == Kind::Exact ? wins == seeds
                                              : wins >= kPassFraction * seeds;
    if (row.kind != Kind::Deviation && !pass) ++failed;
    const char* status = row.kind == Kind::Deviation
                             ? (pass ? "closed" : "open")
                             : (pass ? "pass" : "FAIL");
    std::string seed0, ci, seed0_json, mean_json, ci_json;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const Summary m = summarize(samples[i]);
      const char* sep = i ? " / " : "";
      const char* comma = i ? ", " : "";
      seed0 += cat({sep, fmt(m.seed0)});
      ci += cat({sep, fmt(m.mean), " [", fmt(m.lo), ", ", fmt(m.hi), "]"});
      seed0_json += cat({comma, fmt(m.seed0, "%.6g")});
      mean_json += cat({comma, fmt(m.mean, "%.6g")});
      ci_json +=
          cat({comma, "[", fmt(m.lo, "%.6g"), ", ", fmt(m.hi, "%.6g"), "]"});
    }
    const char* kind = kKindName[static_cast<int>(row.kind)];
    table.add_row({row.id, kind, row.paper, row.statistic, seed0, ci,
                   cat({std::to_string(wins), "/", std::to_string(seeds)}),
                   status});
    json += cat({json.back() == '[' ? "" : ",",
                 "\n    {\"id\": \"", row.id, "\", \"figure\": \"", row.figure,
                 "\", \"kind\": \"", kind, "\", \"paper\": \"",
                 row.paper, "\", \"statistic\": \"", row.statistic,
                 "\", \"seed0\": [", seed0_json, "], \"mean\": [", mean_json,
                 "], \"ci95\": [", ci_json, "], \"wins\": ",
                 std::to_string(wins), ", \"win_fraction\": ",
                 fmt(static_cast<double>(wins) / seeds, "%.6g"),
                 ", \"status\": \"", status, "\"}"});
  }
  json += "\n  ]\n}\n";
  table.print(std::cout);

  std::ofstream out(args.json_path);
  out << json;
  if (!out) {
    std::cerr << "paper_claims: cannot write " << args.json_path << "\n";
    return 2;
  }
  std::cout << "\nwrote " << args.json_path << "\n";
  if (failed) std::cout << failed << " exact/claim row(s) FAIL\n";
  return failed ? 1 : 0;
}
