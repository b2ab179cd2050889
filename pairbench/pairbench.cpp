// Paired end-to-end benchmark: parse → partition → simulate jobs, each
// timed against the sequential reference on the same host.
//
// A run is a closed loop of *pairs*.  A pair is one sequential reference
// job (parse_bench_string → framework::run_sequential) and one parallel
// job (parse_bench_string → framework::run_parallel), back to back, with
// the order alternating from pair to pair.  Host CPU speed drifts in
// phases of several seconds; a ratio taken inside one pair cancels them.
// Every pair is verified with logicsim::check_equivalence, outside the
// timed jobs.
//
// Host speed also drifts over minutes, longer than a run, and that moves
// every absolute time.  Between its two jobs each pair therefore times a
// fixed reference task (code of this file, not of the simulator) on one
// thread and on kNodes threads at once, and the reported times are
// rescaled to a host on which they take their nominal times.  Single-
// threaded work (the sequential job; parse, partition and elaboration in
// the parallel job) is rescaled by the one-thread reference, the kernel's
// kNodes node threads by the kNodes-thread one, which also feels
// contention for cores.
//
// Inputs: the circuit is the workload's fixed stand-in netlist, serialized
// to .bench text once per set-up; the benchmark seed expands into a cycle
// of input seeds (stimulus stream + partitioner seed), one per pair, so a
// run's medians cover many inputs rather than one.
//
//   pairbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <file>] [--reduced]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same jobs
// through each module's own public function with spans around every call,
// writes the spans to --spans at exit and prints the per-layer metrics.
// --reduced shrinks circuit, horizon and input cycle for a quick self-test.
//
// Output: one stderr line per pair (times, GVT rounds, messages); on
// stdout a table (metric, value, unit, direction, samples), a
// "counters {...}" line with the counters each input seed fixes and, as
// the last line of stdout, one JSON object with the keys correct,
// attempted, failed and metrics.  Exit code 0 when every job verified;
// 1 on a failed job; 2 when a seed-fixed counter changed between pairs of
// one input; 64 on bad arguments.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "circuit/bench_io.hpp"
#include "circuit/generator.hpp"
#include "framework/driver.hpp"
#include "framework/registry.hpp"
#include "logicsim/equivalence.hpp"
#include "logicsim/netlist_lps.hpp"
#include "logicsim/sequential.hpp"
#include "partition/metrics.hpp"
#include "warped/kernel.hpp"

namespace {

using namespace pls;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- workloads ------------------------------------------------------------

struct Workload {
  const char* name;
  const char* circuit;      ///< iscas_spec stand-in name
  const char* partitioner;  ///< registry strategy name
  warped::SimTime horizon;
  std::uint32_t lanes;
};

// lanes64-s9234 is runnable by hand but not part of BENCHMARK.json: its
// kernel time is bimodal across input seeds (NOTES.md).
constexpr Workload kWorkloads[] = {
    {"partition-s15850", "s15850", "MultilevelHG", 2000, 1},
    {"kernel-s15850", "s15850", "Cluster", 20000, 1},
    {"lanes64-s9234", "s9234", "Multilevel", 8000, 64},
};

constexpr std::uint32_t kNodes = 3;
constexpr warped::SimTime kStimPeriod = 50;

/// Generator seed of the circuit stand-ins: the repository's canonical
/// netlists (circuit::make_iscas_like's default), fixed like a real ISCAS'89
/// file.  A seed-dependent netlist changed the simulated work up to 2x
/// between seeds.
constexpr std::uint64_t kCircuitSeed = 2000;

/// Input seeds per run: pair i uses input i mod kInputs.
constexpr std::uint32_t kInputs = 16;
constexpr std::uint32_t kReducedInputs = 2;

/// Median times of the one-thread and the kNodes-thread reference on the
/// 4-core host the bounds were set on; reported times are rescaled to a
/// host where the references take this long.
constexpr double kReferenceNominalS = 0.060;
constexpr double kReferenceParNominalS = 0.063;

/// Input seed j of benchmark seed `seed`; input 0 is the seed itself.
std::uint64_t input_seed(std::uint64_t seed, std::uint32_t j) {
  return seed + j * 0x9E3779B97F4A7C15ULL;  // wraps; any value is valid
}

/// The circuit for a workload, as .bench text; --reduced shrinks it to a
/// tenth of its published size.
std::string make_bench_text(const Workload& w, bool reduced) {
  circuit::GeneratorSpec spec = circuit::iscas_spec(w.circuit, kCircuitSeed);
  if (reduced) {
    spec.num_comb_gates /= 10;
    spec.num_dffs /= 10;
    spec.num_outputs = std::min(spec.num_outputs, spec.num_comb_gates / 4);
  }
  return circuit::write_bench_string(circuit::generate(spec));
}

/// Real costs (no modeled busy-spin), the examples' stimulus period and
/// DriverConfig defaults otherwise.
framework::DriverConfig driver_config(const Workload& w, std::uint64_t seed,
                                      bool reduced) {
  framework::DriverConfig cfg;
  cfg.num_nodes = kNodes;
  cfg.partitioner = w.partitioner;
  cfg.seed = seed;
  cfg.end_time = reduced ? w.horizon / 10 : w.horizon;
  cfg.lanes = w.lanes;
  cfg.event_cost_ns = 0;
  cfg.send_overhead_ns = 0;
  cfg.latency_ns = 0;
  cfg.model.stim_period = kStimPeriod;
  return cfg;
}

// ---- host reference ---------------------------------------------------------

volatile std::uint64_t g_reference_sink = 0;

/// Sort 2^19 xorshift keys: the reference task.
void reference_task() {
  std::vector<std::uint64_t> keys(std::size_t{1} << 19);
  std::uint64_t x = 0x2545F4914F6CDD1DULL;
  for (std::uint64_t& k : keys) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    k = x;
  }
  std::sort(keys.begin(), keys.end());
  g_reference_sink = keys[keys.size() / 2];
}

/// Wall time of `threads` copies of the reference task run at once: a
/// yardstick for the host's current speed, owned by the benchmark so no
/// change to the simulator can move it.
double time_reference(std::uint32_t threads) {
  const auto t0 = Clock::now();
  std::vector<std::jthread> others;
  for (std::uint32_t i = 1; i < threads; ++i) {
    others.emplace_back(reference_task);
  }
  reference_task();
  others.clear();  // joins
  return seconds_since(t0);
}

// ---- statistics -----------------------------------------------------------

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// ---- spans ----------------------------------------------------------------

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index into the span list; -1 = root
  int pair = 0;     ///< spans of one pair share this id
};

/// In-memory span recorder: single-threaded, nested by a stack.  Spans end
/// on scope exit, so an exception inside a layer still closes them.
class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  /// Run `fn` inside a span; returns its result.
  template <class Fn>
  auto span(const char* name, int pair, Fn&& fn) {
    const Scope scope(*this, name, pair);
    return fn();
  }

  /// Run `fn` inside a span; returns the span's duration in seconds.
  template <class Fn>
  double timed(const char* name, int pair, Fn&& fn) {
    std::size_t id = 0;
    {
      const Scope scope(*this, name, pair);
      id = scope.id;
      fn();
    }
    return static_cast<double>(spans_[id].end_ns - spans_[id].start_ns) *
           1e-9;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus the time its (strictly
  /// sequential) children cover.
  std::vector<double> self_seconds() const {
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_ns - spans_[i].start_ns;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[s.parent] -= s.end_ns - s.start_ns;
    }
    std::vector<double> out(self.size());
    for (std::size_t i = 0; i < self.size(); ++i) {
      out[i] = static_cast<double>(self[i]) * 1e-9;
    }
    return out;
  }

  void write_json(const std::string& path) const {
    std::ofstream os(path);
    os << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << "  {\"id\": " << i << ", \"name\": \"" << s.name
         << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
         << ", \"parent\": " << s.parent << ", \"pair\": " << s.pair << "}"
         << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]\n";
    if (!os) std::cerr << "pairbench: cannot write spans to " << path << "\n";
  }

 private:
  struct Scope {
    Scope(Tracer& t, const char* name, int pair) : tracer(t) {
      const int parent = t.stack_.empty() ? -1 : t.stack_.back();
      id = t.spans_.size();
      t.spans_.push_back({name, t.now_ns(), 0, parent, pair});
      t.stack_.push_back(static_cast<int>(id));
    }
    ~Scope() {
      tracer.spans_[id].end_ns = tracer.now_ns();
      tracer.stack_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    Tracer& tracer;
    std::size_t id = 0;
  };

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// ---- jobs -----------------------------------------------------------------

/// The counters an input seed fixes exactly; identical in every pair that
/// runs that input.
struct Counters {
  std::uint64_t events_committed = 0;
  std::uint64_t seq_events = 0;
  std::uint64_t lambda1 = 0;
  std::uint64_t edge_cut = 0;

  bool operator==(const Counters&) const = default;
};

/// One pair's observations (kernel statistics reduced to node totals, so
/// memory does not grow with the number of pairs).
struct PairResult {
  std::uint32_t input = 0;
  bool seq_ok = false;
  bool par_ok = false;
  std::string failure;  ///< first problem seen, empty when verified
  double seq_s = 0.0;
  double job_s = 0.0;
  double ref_s = 0.0;      ///< one-thread host reference, between the jobs
  double ref_par_s = 0.0;  ///< kNodes-thread host reference, likewise
  double kernel_s = 0.0;  ///< warped::Kernel construction + run
  Counters counters;
  double imbalance = 0.0;
  warped::NodeStats totals;
  std::uint64_t gvt_cycles = 0;
};

/// Verify the pair and keep what the report needs.  A parallel job fails
/// when its run stalled, ran out of memory or disagrees with the reference.
void verify(PairResult& r, const warped::RunStats& run,
            const logicsim::SeqStats& seq) {
  r.counters.events_committed = run.totals.events_committed;
  r.counters.seq_events = seq.events_processed;
  r.totals = run.totals;
  r.gvt_cycles = run.gvt_cycles;
  if (run.stalled) {
    r.failure = "parallel run stalled";
  } else if (run.out_of_memory) {
    r.failure = "parallel run out of memory";
  } else {
    const logicsim::EquivalenceReport rep =
        logicsim::check_equivalence(run, seq);
    if (!rep.ok()) r.failure = "not equivalent: " + rep.describe();
  }
  r.par_ok = r.failure.empty();
}

/// Run the two jobs of a pair in the given order, timing the host reference
/// between them.  Each job reports its own exception into r.failure;
/// returns false when either job threw.
template <class Seq, class Par>
bool run_jobs(PairResult& r, bool seq_first, Seq&& seq_job, Par&& par_job) {
  bool par_threw = false;
  auto seq = [&] {
    try {
      seq_job();
      r.seq_ok = true;
    } catch (const std::exception& e) {
      r.failure = std::string("sequential job threw: ") + e.what();
    }
  };
  auto par = [&] {
    try {
      par_job();
    } catch (const std::exception& e) {
      par_threw = true;
      if (r.failure.empty()) {
        r.failure = std::string("parallel job threw: ") + e.what();
      }
    }
  };
  if (seq_first) {
    seq();
  } else {
    par();
  }
  r.ref_s = time_reference(1);
  r.ref_par_s = time_reference(kNodes);
  if (seq_first) {
    par();
  } else {
    seq();
  }
  return r.seq_ok && !par_threw;
}

/// Untraced pair through the framework driver: the end-to-end jobs.
PairResult untraced_pair(const std::string& text,
                         const framework::DriverConfig& cfg, bool seq_first) {
  PairResult r;
  logicsim::SeqStats seq;
  framework::DriverResult par;
  const bool ran = run_jobs(
      r, seq_first,
      [&] {
        const auto t0 = Clock::now();
        const circuit::Circuit c = circuit::parse_bench_string(text);
        seq = framework::run_sequential(c, cfg);
        r.seq_s = seconds_since(t0);
      },
      [&] {
        const auto t0 = Clock::now();
        const circuit::Circuit c = circuit::parse_bench_string(text);
        par = framework::run_parallel(c, cfg);
        r.job_s = seconds_since(t0);
      });
  if (!ran) return r;
  r.counters.lambda1 = par.comm_volume;
  r.counters.edge_cut = par.edge_cut;
  r.imbalance = par.imbalance;
  r.kernel_s = par.run.wall_seconds;
  verify(r, par.run, seq);
  return r;
}

/// Traced pair: the same two jobs, but each module is reached through its
/// own public function, configured exactly as framework::run_parallel and
/// framework::run_sequential configure it, with a span around every call.
PairResult traced_pair(const std::string& text,
                       const framework::DriverConfig& cfg, Tracer& tr,
                       int pair, bool seq_first) {
  PairResult r;
  logicsim::ModelOptions model_opt = cfg.model;
  model_opt.stim_seed = cfg.seed;
  model_opt.lanes = cfg.lanes;

  logicsim::SeqStats seq;
  warped::RunStats run;
  const bool ran = run_jobs(
      r, seq_first,
      [&] {
        r.seq_s = tr.timed("seq_job", pair, [&] {
          const circuit::Circuit c = tr.span("circuit.parse", pair, [&] {
            return circuit::parse_bench_string(text);
          });
          const logicsim::SimModel model =
              tr.span("logicsim.build_model", pair,
                      [&] { return logicsim::build_model(c, model_opt); });
          seq = tr.span("logicsim.seq_sim", pair, [&] {
            return logicsim::simulate_sequential(
                model.behaviours(), cfg.end_time, cfg.event_cost_ns);
          });
        });
      },
      [&] {
        r.job_s = tr.timed("job", pair, [&] {
          const circuit::Circuit c = tr.span("circuit.parse", pair, [&] {
            return circuit::parse_bench_string(text);
          });
          const partition::Partition p = tr.span("partition.run", pair, [&] {
            return framework::make_partitioner(cfg.partitioner,
                                               cfg.multilevel)
                ->run(c, cfg.num_nodes, cfg.seed);
          });
          tr.span("partition.metrics", pair, [&] {
            p.validate(c.size());
            r.counters.edge_cut = partition::edge_cut(c, p);
            r.counters.lambda1 = partition::comm_volume(c, p);
            r.imbalance = partition::imbalance(c, p);
            return partition::concurrency(c, p);
          });
          const logicsim::SimModel model =
              tr.span("logicsim.build_model", pair,
                      [&] { return logicsim::build_model(c, model_opt); });
          r.kernel_s = tr.timed("warped.run", pair, [&] {
            warped::KernelConfig kc;
            kc.num_nodes = cfg.num_nodes;
            kc.end_time = cfg.end_time;
            kc.event_cost_ns = cfg.event_cost_ns;
            kc.network.send_overhead_ns = cfg.send_overhead_ns;
            kc.network.latency_ns = cfg.latency_ns;
            kc.coalesce.enabled = cfg.coalesce;
            kc.coalesce.max_batch_msgs = cfg.coalesce_max_batch;
            kc.gvt_interval_us = cfg.gvt_interval_us;
            kc.state_period = cfg.state_period;
            kc.throttle = cfg.throttle;
            kc.optimism_window = cfg.optimism_window;
            kc.max_batches_per_poll = cfg.max_batches_per_poll;
            kc.max_live_entries_per_node = cfg.max_live_entries_per_node;
            kc.watchdog_timeout_ms = cfg.watchdog_timeout_ms;
            warped::Kernel kernel(model.behaviours(), p.assign, kc);
            run = kernel.run();
          });
        });
      });
  if (!ran) return r;
  tr.span("logicsim.verify", pair, [&] {
    verify(r, run, seq);
    return 0;
  });
  return r;
}

// ---- reporting ------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string better;  ///< "lower" / "higher"
  std::size_t samples;
};

std::string number(double v) {
  char buf[64];
  const auto end = std::to_chars(buf, buf + sizeof buf, v).ptr;
  return std::string(buf, end);
}

void print_report(const std::vector<Metric>& metrics, bool correct,
                  std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<std::optional<Counters>>& counters,
                  const framework::DriverConfig& cfg0) {
  std::printf("%-36s %18s %-6s %-7s %s\n", "metric", "value", "unit",
              "better", "samples");
  for (const Metric& m : metrics) {
    std::printf("%-36s %18.6f %-6s %-7s %zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.better.c_str(), m.samples);
  }
  // The seed-fixed counters of every input, for run.py's cross-run check.
  std::string line = "counters {";
  for (std::size_t j = 0; j < counters.size(); ++j) {
    if (!counters[j]) continue;
    const Counters& c = *counters[j];
    line += (line.back() == '{' ? "\"" : ", \"") +
            std::to_string(input_seed(cfg0.seed, j)) +
            "\": {\"warped.events_committed\": " +
            std::to_string(c.events_committed) +
            ", \"logicsim.seq_events\": " + std::to_string(c.seq_events) +
            ", \"partition.lambda1\": " + std::to_string(c.lambda1) +
            ", \"partition.edge_cut\": " + std::to_string(c.edge_cut) + "}";
  }
  std::printf("%s}\n", line.c_str());

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool reduced = false;
  std::string spans_path;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "pairbench: " << why
            << "\nusage: pairbench --workload <name> --seed <n> --seconds "
               "<s> --trace <0|1> [--spans <file>] [--reduced]\n"
               "workloads:";
  for (const Workload& w : kWorkloads) std::cerr << " " << w.name;
  std::cerr << "\n";
  std::exit(64);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--reduced") {
      a.reduced = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string val = argv[++i];
    try {
      if (flag == "--workload") {
        for (const Workload& w : kWorkloads) {
          if (val == w.name) a.workload = &w;
        }
        if (a.workload == nullptr) usage("unknown workload '" + val + "'");
      } else if (flag == "--seed") {
        if (val.empty() || val[0] == '-') usage("--seed must be >= 0");
        a.seed = std::stoull(val);
        have_seed = true;
      } else if (flag == "--seconds") {
        a.seconds = std::stod(val);
      } else if (flag == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        a.trace = val == "1";
      } else if (flag == "--spans") {
        a.spans_path = val;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + val);
    }
  }
  if (a.workload == nullptr) usage("--workload is required");
  if (!have_seed) usage("--seed is required");
  if (!(a.seconds > 0.0 && a.seconds <= 120.0)) {
    usage("--seconds must be in (0, 120]");
  }
  return a;
}

/// Stops the run at the first counter that differs from the input's first
/// pair.
void check_counters(const Counters& first, const Counters& now, int pair) {
  if (first == now) return;
  auto report = [&](const char* name, std::uint64_t a, std::uint64_t b) {
    if (a != b) {
      std::cerr << "pairbench: counter " << name << " changed at pair "
                << pair << ": " << a << " -> " << b << "\n";
    }
  };
  report("warped.events_committed", first.events_committed,
         now.events_committed);
  report("logicsim.seq_events", first.seq_events, now.seq_events);
  report("partition.lambda1", first.lambda1, now.lambda1);
  report("partition.edge_cut", first.edge_cut, now.edge_cut);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
  const Args args = parse_args(argc, argv);
  const Workload& w = *args.workload;
  const std::uint32_t inputs = args.reduced ? kReducedInputs : kInputs;
  std::vector<framework::DriverConfig> cfgs;
  for (std::uint32_t j = 0; j < inputs; ++j) {
    cfgs.push_back(driver_config(w, input_seed(args.seed, j), args.reduced));
  }

  // Set-up: circuit generation, .bench serialization and one warm-up pair,
  // repeated so set-up time is a median; the first pass counts from
  // process start.  Each pass is rescaled by a reference timed after it.
  const int setups = args.reduced ? 1 : 3;
  std::vector<double> setup_s;
  std::vector<double> setup_wall_s;
  std::string text;
  for (int i = 0; i < setups; ++i) {
    const auto t0 = i == 0 ? process_start : Clock::now();
    text = make_bench_text(w, args.reduced);
    const PairResult warm = untraced_pair(text, cfgs[0], i % 2 == 0);
    if (!warm.failure.empty()) {
      std::cerr << "pairbench: warm-up pair failed: " << warm.failure << "\n";
      return 1;
    }
    // The warm-up pair timed references inside the pass; take them out.
    setup_wall_s.push_back(seconds_since(t0) - warm.ref_s - warm.ref_par_s);
    setup_s.push_back(setup_wall_s.back() * kReferenceNominalS /
                      time_reference(1));
  }

  // Timed loop: whole pairs until --seconds elapsed, and at least one pair
  // per input; a failed job stays in the denominator.  The order flips
  // every pair and every cycle, so each input runs in both orders.
  Tracer tracer(process_start);
  std::vector<PairResult> pairs;
  std::vector<double> untraced_job_s;  // trace mode: overhead reference
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::optional<Counters>> first(inputs);
  const auto loop_start = Clock::now();
  for (int pair = 0; pair < static_cast<int>(inputs) ||
                     seconds_since(loop_start) < args.seconds;
       ++pair) {
    const std::uint32_t input = static_cast<std::uint32_t>(pair) % inputs;
    const framework::DriverConfig& cfg = cfgs[input];
    const bool seq_first =
        (pair + pair / static_cast<int>(inputs)) % 2 == 0;
    PairResult r;
    if (args.trace) {
      // An untraced parallel job alongside, order alternating, measures
      // the tracing overhead within the same host phase.
      auto untraced = [&] {
        const PairResult u = untraced_pair(text, cfg, true);
        attempted += 2;
        failed += (u.seq_ok ? 0 : 1) + (u.par_ok ? 0 : 1);
        if (u.failure.empty()) untraced_job_s.push_back(u.job_s);
      };
      if (seq_first) untraced();
      r = traced_pair(text, cfg, tracer, pair, seq_first);
      if (!seq_first) untraced();
    } else {
      r = untraced_pair(text, cfg, seq_first);
    }
    r.input = input;
    attempted += 2;
    failed += (r.seq_ok ? 0 : 1) + (r.par_ok ? 0 : 1);
    std::fprintf(stderr,
                 "pair %d input %u %s seq_s %.6f job_s %.6f ref_s %.6f "
                 "ref_par_s %.6f kernel_s %.6f gvt_cycles %llu msgs %llu\n",
                 pair, input, seq_first ? "seq-first" : "par-first", r.seq_s,
                 r.job_s, r.ref_s, r.ref_par_s, r.kernel_s,
                 static_cast<unsigned long long>(r.gvt_cycles),
                 static_cast<unsigned long long>(
                     r.totals.inter_node_messages));
    if (!r.failure.empty()) {
      std::cerr << "pairbench: pair " << pair << " failed: " << r.failure
                << "\n";
    } else if (!first[input]) {
      first[input] = r.counters;
    } else {
      check_counters(*first[input], r.counters, pair);
    }
    pairs.push_back(std::move(r));
  }

  // Medians over verified pairs only; failures count in `failed`.
  std::vector<const PairResult*> ok;
  for (const PairResult& r : pairs) {
    if (r.failure.empty()) ok.push_back(&r);
  }
  const bool correct = failed == 0 && !ok.empty();
  auto over_ok = [&](auto fn) {
    std::vector<double> v;
    for (const PairResult* r : ok) v.push_back(fn(*r));
    return v;
  };
  const std::size_t n = ok.size();
  const double verified_frac =
      static_cast<double>(attempted - failed) / static_cast<double>(attempted);

  // Wall times, and the same rescaled by the pair's host reference.
  const auto job_wall = over_ok([](const PairResult& r) { return r.job_s; });
  const auto seq_wall = over_ok([](const PairResult& r) { return r.seq_s; });
  const auto ref_wall = over_ok([](const PairResult& r) { return r.ref_s; });
  const auto ref_par_wall =
      over_ok([](const PairResult& r) { return r.ref_par_s; });
  const auto job_norm = over_ok([](const PairResult& r) {
    return (r.job_s - r.kernel_s) * kReferenceNominalS / r.ref_s +
           r.kernel_s * kReferenceParNominalS / r.ref_par_s;
  });
  const auto seq_norm = over_ok([](const PairResult& r) {
    return r.seq_s * kReferenceNominalS / r.ref_s;
  });
  std::fprintf(stderr,
               "wall medians: job_s %.6f seq_s %.6f setup_s %.6f; host "
               "reference %.6f s on 1 thread (nominal %.3f s), %.6f s on %u "
               "(nominal %.3f s)\n",
               median(job_wall), median(seq_wall), median(setup_wall_s),
               median(ref_wall), kReferenceNominalS, median(ref_par_wall),
               kNodes, kReferenceParNominalS);

  std::vector<Metric> metrics;
  if (!args.trace) {
    const auto ratio =
        over_ok([](const PairResult& r) { return r.seq_s / r.job_s; });
    metrics = {
        {"job_s", median(job_norm), "s", "lower", n},
        {"seq_s", median(seq_norm), "s", "lower", n},
        {"speedup", median(ratio), "x", "higher", n},
        {"setup_s", median(setup_s), "s", "lower", setup_s.size()},
        {"peak_rss_mb", peak_rss_mb(), "MB", "lower", 1},
        {"verified_frac", verified_frac, "ratio", "higher",
         static_cast<std::size_t>(attempted)},
    };
  } else {
    // Per-layer self times: the median over pairs of each layer's summed
    // self time within the pair (parse and build_model run in both jobs).
    const std::vector<double> self = tracer.self_seconds();
    std::map<std::string, std::map<int, double>> by_layer;
    for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
      const Span& s = tracer.spans()[i];
      by_layer[s.name][s.pair] += self[i];
    }
    auto layer = [&](const std::string& name) {
      std::vector<double> v;
      for (const auto& [pair, secs] : by_layer[name]) v.push_back(secs);
      return v;
    };
    auto count = [&](auto field) {
      return median(over_ok([&](const PairResult& r) {
        return static_cast<double>(field(r.totals));
      }));
    };
    // Exact counters: the mean over inputs of each input's fixed value.
    auto exact = [&](std::uint64_t Counters::*field) {
      double sum = 0.0;
      std::size_t k = 0;
      for (const auto& c : first) {
        if (!c) continue;
        sum += static_cast<double>((*c).*field);
        ++k;
      }
      return k ? sum / static_cast<double>(k) : 0.0;
    };
    auto ratio = [](std::uint64_t a, std::uint64_t b) {
      return static_cast<double>(a) /
             static_cast<double>(std::max<std::uint64_t>(b, 1));
    };
    const auto kernel =
        over_ok([](const PairResult& r) { return r.kernel_s; });
    const auto messages = over_ok([](const PairResult& r) {
      return static_cast<double>(r.totals.inter_node_messages);
    });
    const double overhead = median(job_wall) - median(untraced_job_s);
    metrics = {
        {"circuit.parse_s", median(layer("circuit.parse")), "s", "lower", n},
        {"partition.run_s", median(layer("partition.run")), "s", "lower", n},
        {"partition.metrics_s", median(layer("partition.metrics")), "s",
         "lower", n},
        {"partition.lambda1", exact(&Counters::lambda1), "count", "lower",
         inputs},
        {"partition.edge_cut", exact(&Counters::edge_cut), "count", "lower",
         inputs},
        {"partition.imbalance",
         median(over_ok([](const PairResult& r) { return r.imbalance; })),
         "ratio", "lower", n},
        {"logicsim.build_model_s", median(layer("logicsim.build_model")), "s",
         "lower", n},
        {"logicsim.seq_sim_s", median(layer("logicsim.seq_sim")), "s",
         "lower", n},
        {"logicsim.seq_events", exact(&Counters::seq_events), "count",
         "lower", inputs},
        {"logicsim.verify_s", median(layer("logicsim.verify")), "s", "lower",
         n},
        {"warped.run_s", median(kernel), "s", "lower", n},
        {"warped.run_s_p75", quantile(kernel, 0.75), "s", "lower", n},
        {"warped.ns_per_committed_event",
         median(over_ok([&](const PairResult& r) {
           return r.kernel_s * 1e9 /
                  static_cast<double>(
                      std::max<std::uint64_t>(r.totals.events_committed, 1));
         })),
         "ns", "lower", n},
        {"warped.events_committed", exact(&Counters::events_committed),
         "count", "lower", inputs},
        {"warped.events_processed",
         count([](const warped::NodeStats& t) { return t.events_processed; }),
         "count", "lower", n},
        {"warped.efficiency", median(over_ok([&](const PairResult& r) {
           return ratio(r.totals.events_committed, r.totals.events_processed);
         })),
         "ratio", "higher", n},
        {"warped.rollbacks",
         count([](const warped::NodeStats& t) { return t.total_rollbacks(); }),
         "count", "lower", n},
        {"warped.events_rolled_back",
         count(
             [](const warped::NodeStats& t) { return t.events_rolled_back; }),
         "count", "lower", n},
        {"warped.anti_messages",
         count(
             [](const warped::NodeStats& t) { return t.anti_messages_sent; }),
         "count", "lower", n},
        {"warped.inter_node_messages", median(messages), "count", "lower", n},
        {"warped.inter_node_messages_p75", quantile(messages, 0.75), "count",
         "lower", n},
        {"warped.msgs_per_batch", median(over_ok([&](const PairResult& r) {
           return ratio(r.totals.batch_msgs_sent, r.totals.batches_sent);
         })),
         "ratio", "higher", n},
        {"warped.gvt_cycles", median(over_ok([](const PairResult& r) {
           return static_cast<double>(r.gvt_cycles);
         })),
         "count", "lower", n},
        {"warped.idle_sleeps",
         count([](const warped::NodeStats& t) { return t.idle_sleeps; }),
         "count", "lower", n},
        {"warped.peak_live_entries",
         count([](const warped::NodeStats& t) { return t.peak_live_entries; }),
         "count", "lower", n},
        {"mem.pool_slab_bytes",
         count([](const warped::NodeStats& t) { return t.pool_slab_bytes; }),
         "bytes", "lower", n},
        {"mem.pool_heap_fallbacks",
         count(
             [](const warped::NodeStats& t) { return t.pool_heap_fallbacks; }),
         "count", "lower", n},
        {"host.ref_s", median(ref_wall), "s", "lower", n},
        {"host.ref_par_s", median(ref_par_wall), "s", "lower", n},
        {"host.job_wall_s", median(job_wall), "s", "lower", n},
        {"host.seq_wall_s", median(seq_wall), "s", "lower", n},
        {"trace.overhead_s", overhead, "s", "lower", untraced_job_s.size()},
    };

    std::cerr << "self time per layer (median over pairs, s):\n";
    for (const auto& [name, per_pair] : by_layer) {
      std::vector<double> v;
      for (const auto& [pair, secs] : per_pair) v.push_back(secs);
      std::fprintf(stderr, "  %-24s %12.6f  (n=%zu)\n", name.c_str(),
                   median(v), v.size());
    }
    std::fprintf(stderr,
                 "tracing overhead: traced job_s %.6f - untraced job_s %.6f "
                 "= %.6f s\n",
                 median(job_wall), median(untraced_job_s), overhead);
    if (!args.spans_path.empty()) tracer.write_json(args.spans_path);
  }

  print_report(metrics, correct, attempted, failed, first, cfgs[0]);
  return correct ? 0 : 1;
}
