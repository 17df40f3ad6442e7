// qec_perfbench: the repository's end-to-end + per-layer benchmark.
//
//   qec_perfbench run --snapshot=FILE --workload=NAME --seed=N
//                     --seconds=S --trace=0|1
//
// `run` loads the snapshot and starts QecServer behind the TCP front end
// (timed as set-up, several times), drives one workload over loopback,
// checks every response, and prints each metric with its unit and sample
// count. The last stdout line is one JSON object: end-to-end metrics with
// --trace=0, per-layer metrics (from a traced in-process replay) with
// --trace=1. See README.md.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "obs/json.h"
#include "perfbench.h"
#include "server/net/net_server.h"
#include "server/protocol.h"
#include "server/server.h"
#include "storage/snapshot.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
namespace json = qec::obs::json;

/// Set-up runs per benchmark run; setup_s is their median.
constexpr int kSetupRuns = 7;

/// throughput_rps is the median rate over this many equal slices of the
/// measured window, so that a burst of host steal time in one slice does
/// not move it.
constexpr size_t kThroughputSlices = 10;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Peak resident set of this process (VmHWM), in MB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// The production serving stack over one loaded snapshot. Members are
/// declared in dependency order, so destruction stops the front end first.
struct Stack {
  qec::storage::Snapshot snapshot;
  std::unique_ptr<qec::server::QecServer> server;
  std::unique_ptr<qec::server::net::NetServer> net;
};

struct SetupTimes {
  std::vector<double> total_s, read_ms, load_ms;
};

/// Snapshot read + load (as `qec_cli serve --snapshot` does) + server ready
/// to accept.
qec::Status StartStack(const std::string& path,
                       const qec::server::ServerOptions& options, Stack* stack,
                       SetupTimes* times) {
  const Clock::time_point start = Clock::now();
  double read_ms = 0.0, load_ms = 0.0;
  {
    auto blob = qec::storage::ReadSnapshotBlob(path);
    if (!blob.ok()) return blob.status();
    read_ms = SecondsSince(start) * 1e3;
    const Clock::time_point load_start = Clock::now();
    auto reader = qec::storage::SnapshotReader::Open(*blob);
    if (!reader.ok()) return reader.status();
    auto snapshot = reader->Load();
    if (!snapshot.ok()) return snapshot.status();
    stack->snapshot = std::move(*snapshot);
    load_ms = SecondsSince(load_start) * 1e3;
  }
  stack->server = std::make_unique<qec::server::QecServer>(
      *stack->snapshot.index, options);
  stack->net = std::make_unique<qec::server::net::NetServer>(
      stack->server.get(), qec::server::net::NetServerOptions{});
  qec::Status started = stack->net->Start();
  if (!started.ok()) return started;
  times->total_s.push_back(SecondsSince(start));
  times->read_ms.push_back(read_ms);
  times->load_ms.push_back(load_ms);
  return qec::Status::Ok();
}

void StopStack(Stack* stack) {
  stack->net.reset();
  stack->server.reset();
  stack->snapshot.index.reset();
  stack->snapshot.corpus.reset();
}

/// One metric of the result line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Prints "name value unit detail" for people.
void Print(const std::string& name, double value, const std::string& unit,
           const std::string& detail) {
  std::printf("  %-32s %14.6f %-6s %s\n", name.c_str(), value, unit.c_str(),
              detail.c_str());
}

/// Prints a metric and collects it for the result line.
void Report(std::vector<Metric>* metrics, const std::string& name,
            double value, const std::string& unit, const std::string& detail) {
  Print(name, value, unit, detail);
  metrics->push_back({name, value, unit});
}

std::string N(size_t n) { return "n=" + std::to_string(n); }

/// Responses per second in each of kThroughputSlices equal slices of
/// [start, end): in a slice, (responses - 1) over the time from its first
/// response to its last. `received` are the response times.
std::vector<double> SliceRates(const std::vector<double>& received,
                               double start, double end) {
  const double width = (end - start) / kThroughputSlices;
  std::vector<std::vector<double>> slices(kThroughputSlices);
  for (double t : received) {
    if (t < start || t >= end) continue;
    slices[std::min(kThroughputSlices - 1,
                    static_cast<size_t>((t - start) / width))]
        .push_back(t);
  }
  std::vector<double> rates;
  for (std::vector<double>& slice : slices) {
    if (slice.size() < 2) continue;
    const auto [first, last] = std::minmax_element(slice.begin(), slice.end());
    if (*last > *first) {
      rates.push_back(static_cast<double>(slice.size() - 1) /
                      (*last - *first));
    }
  }
  return rates;
}

/// A median and p95 pair, both over `values`.
void ReportDist(std::vector<Metric>* metrics, const std::string& name,
                const std::vector<double>& values, const std::string& unit) {
  Report(metrics, name + ".p50", Quantile(values, 0.5), unit, N(values.size()));
  Report(metrics, name + ".p95", Quantile(values, 0.95), unit,
         N(values.size()));
}

const json::Value* Path(const json::Value& v, const char* a,
                        const char* b = nullptr) {
  const json::Value* x = v.Find(a);
  return x != nullptr && b != nullptr ? x->Find(b) : x;
}

double Num(const json::Value& v, const char* a, const char* b = nullptr) {
  const json::Value* x = Path(v, a, b);
  return x != nullptr && x->is_number() ? x->number : std::nan("");
}

/// One in-window request after its response was parsed and checked.
struct Served {
  const Sample* sample = nullptr;
  const Query* query = nullptr;
  std::string line;
  bool ok = false;
  bool cached = false;
  double set_score = 0.0;
  double total_ms = 0.0, queue_ms = 0.0, cache_ms = 0.0, expansion_ms = 0.0;
};

/// Output check of one ok response; returns a description of the first
/// violation, or "" when the response is well formed.
std::string CheckResponse(const json::Value& v, const Query& query) {
  const json::Value* queries = v.Find("queries");
  if (queries == nullptr || !queries->is_array()) return "no queries array";
  const double clusters = Num(v, "clusters");
  if (!(clusters >= 1) ||
      static_cast<size_t>(clusters) != queries->array.size()) {
    return "expected one expanded query per cluster";
  }
  if (Num(v, "results_used") !=
      static_cast<double>(query.expected_results_used)) {
    return "results_used " + json::NumberToString(Num(v, "results_used")) +
           ", expected " + std::to_string(query.expected_results_used);
  }
  for (const json::Value& q : queries->array) {
    const json::Value* keywords = q.Find("keywords");
    if (keywords == nullptr || !keywords->is_array() ||
        keywords->array.size() < query.terms.size()) {
      return "expanded query shorter than the user query";
    }
    for (size_t i = 0; i < query.terms.size(); ++i) {
      if (keywords->array[i].string != query.terms[i]) {
        return "expanded query does not begin with the user's terms";
      }
    }
  }
  if (std::isnan(Num(v, "set_score"))) return "no set_score";
  return "";
}

struct Args {
  std::string snapshot, workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  // The server exactly as `qec_cli serve` builds it: default options (one
  // worker per core, 1024-entry expansion cache, set-algebra memo on).
  const qec::server::ServerOptions server_options;

  SetupTimes setup;
  Stack stack;
  for (int i = 0; i < kSetupRuns; ++i) {
    StopStack(&stack);
    const qec::Status started =
        StartStack(args.snapshot, server_options, &stack, &setup);
    if (!started.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   started.ToString().c_str());
      return 1;
    }
  }

  const std::vector<Query> stream =
      MakeStream(*spec, *stack.snapshot.index, args.seed);
  const DriveResult drive = Drive(stack.net->port(), *spec, stream,
                                  args.seconds, *stack.server);
  if (!drive.error.empty()) {
    std::fprintf(stderr, "client failed: %s\n", drive.error.c_str());
    StopStack(&stack);
    return 1;
  }

  // Parse and check every in-window response.
  std::vector<std::string> problems;
  std::vector<Served> served;
  size_t attempted = 0, failed = 0;
  std::map<std::string, size_t> failure_kinds;
  for (const Sample& s : drive.samples) {
    if (!s.in_window) continue;
    ++attempted;
    Served r;
    r.sample = &s;
    r.query = &stream[s.request];
    r.line = RequestLine(*spec, *r.query);
    auto parsed = json::Parse(s.response);
    const json::Value* status = parsed.ok() ? parsed->Find("status") : nullptr;
    if (s.received < 0 || status == nullptr || status->string != "ok") {
      ++failed;
      const json::Value* code = parsed.ok() ? parsed->Find("code") : nullptr;
      const std::string kind = code != nullptr ? code->string : "unparsable";
      ++failure_kinds[kind];
      problems.push_back("response not ok (" + kind + "): " + r.line);
      served.push_back(std::move(r));
      continue;
    }
    const std::string problem = CheckResponse(*parsed, *r.query);
    if (!problem.empty()) problems.push_back(problem + ": " + r.line);
    r.ok = true;
    const json::Value* cached = parsed->Find("cached");
    r.cached = cached != nullptr && cached->boolean;
    r.set_score = Num(*parsed, "set_score");
    r.total_ms = Num(*parsed, "total_ms");
    r.queue_ms = Num(*parsed, "stages_ms", "queue_wait");
    r.cache_ms = Num(*parsed, "stages_ms", "cache_lookup");
    r.expansion_ms = Num(*parsed, "stages_ms", "expansion");
    served.push_back(std::move(r));
  }

  // A seeded sample of served responses must equal an in-process
  // recomputation with the server's effective options, byte for byte.
  {
    std::vector<const Served*> ok;
    for (const Served& r : served) {
      if (r.ok) ok.push_back(&r);
    }
    qec::Rng rng(args.seed ^ 0x5eed5a3b1eULL);
    for (size_t i : rng.SampleWithoutReplacement(
             ok.size(), std::min(spec->recompute_samples, ok.size()))) {
      const Served& r = *ok[i];
      auto outcome = qec::core::QueryExpander(
                         *stack.snapshot.index,
                         EffectiveOptions(server_options, r.line))
                         .ExpandText(r.query->text);
      if (!outcome.ok() || qec::server::RenderOutcomeTail(*outcome) !=
                               OutcomeTail(r.sample->response)) {
        problems.push_back("recomputed expansion differs: " + r.line);
      }
    }
  }

  std::vector<double> latency_ms, set_scores, queue_ms, cache_ms, net_ms,
      received;
  size_t ok_count = 0, cached_count = 0;
  std::set<std::string> distinct, scored;
  for (const Served& r : served) {
    distinct.insert(r.line);
    if (!r.ok) continue;
    const Sample& s = *r.sample;
    ++ok_count;
    cached_count += r.cached ? 1 : 0;
    latency_ms.push_back((s.received - s.sent) * 1e3);
    // Each distinct request once, should the stream have wrapped: a repeat
    // returns the same cached bytes.
    if (scored.insert(r.line).second) set_scores.push_back(r.set_score);
    queue_ms.push_back(r.queue_ms);
    cache_ms.push_back(r.cache_ms);
    net_ms.push_back((s.received - s.sent) * 1e3 - r.total_ms);
    received.push_back(s.received);
  }
  const std::vector<double> rates =
      SliceRates(received, drive.window_start, drive.window_end);

  std::printf("workload %s: closed loop, %zu connection(s) with one request "
              "in flight each, %zu request thread(s), seed %llu, %.0f s "
              "measured after %.0f s warm-up\n",
              spec->name.c_str(), spec->connections,
              spec->request_threads == 0 ? size_t{1} : spec->request_threads,
              static_cast<unsigned long long>(args.seed), args.seconds,
              spec->warmup_seconds);
  std::printf("  server: %zu workers, expansion cache %zu entries; "
              "queries: %zu distinct of %zu available%s\n",
              stack.server->num_workers(),
              server_options.expansion_cache_capacity, distinct.size(),
              stream.size(),
              drive.wrapped ? " (stream wrapped: queries repeat)" : "");
  std::printf("  failed_frac %.6f ratio (%zu of %zu attempted)",
              attempted == 0 ? 0.0
                             : static_cast<double>(failed) /
                                   static_cast<double>(attempted),
              failed, attempted);
  for (const auto& [kind, count] : failure_kinds) {
    std::printf(" %s=%zu", kind.c_str(), count);
  }
  std::printf("\n");

  // The latency tail is printed on every run but gated on none: on a
  // shared VM it follows hypervisor steal time (README.md, "Noise").
  const size_t n = latency_ms.size();
  const double p95 = Quantile(latency_ms, 0.95);
  const double p99 = Quantile(latency_ms, 0.99);
  const std::string p95_detail =
      N(n) + ", " + std::to_string(n / 20) + " beyond";
  const std::string p99_detail =
      N(n) + ", " + std::to_string(n / 100) + " beyond";

  std::vector<Metric> metrics;
  if (!args.trace) {
    Report(&metrics, "latency_p50_ms", Quantile(latency_ms, 0.50), "ms", N(n));
    Print("latency_p95_ms", p95, "ms", p95_detail);
    Print("latency_p99_ms", p99, "ms", p99_detail);
    Report(&metrics, "throughput_rps", Quantile(rates, 0.5), "1/s",
           "median of " + N(rates.size()) + " slices, " + N(ok_count) +
               " responses");
    Report(&metrics, "set_score_mean", Mean(set_scores), "score",
           N(set_scores.size()));
    Report(&metrics, "setup_s", Quantile(setup.total_s, 0.5), "s",
           "median of " + N(setup.total_s.size()));
    Report(&metrics, "peak_rss_mb", PeakRssMb(), "MB", "VmHWM");
  } else {
    const qec::server::ServerStats& b = drive.stats_before;
    const qec::server::ServerStats& a = drive.stats_after;
    const double hits = static_cast<double>(a.expansion_cache.hits -
                                            b.expansion_cache.hits);
    const double lookups =
        hits + static_cast<double>(a.expansion_cache.misses -
                                   b.expansion_cache.misses);
    // Replay the measured requests that ran the pipeline (cache misses).
    std::vector<ReplayRequest> misses;
    for (const Served& r : served) {
      if (!r.ok || r.cached || misses.size() >= spec->replay_cap) continue;
      misses.push_back({r.line, r.sample->response, r.expansion_ms});
    }
    // The replay runs alone: stop the front end and the worker pool, keep
    // the loaded index.
    stack.net->Shutdown();
    stack.server->Shutdown();
    const ReplayResult replay =
        Replay(*stack.snapshot.index, server_options, misses, args.seconds / 2);
    for (const std::string& m : replay.mismatches) problems.push_back(m);

    auto column = [&](double LayerTrace::*field,
                      const std::string& algo = "") {
      std::vector<double> out;
      for (const LayerTrace& t : replay.traces) {
        if (algo.empty() || t.algo == algo) out.push_back(t.*field);
      }
      return out;
    };
    auto count = [&](const std::string& name, double LayerTrace::*field,
                     const std::string& algo = "") {
      const std::vector<double> v = column(field, algo);
      Report(&metrics, name, Mean(v), "count", "mean per request, " +
                                                  N(v.size()));
    };
    std::printf("  traced replay: %zu of %zu measured cache misses\n",
                replay.traces.size(), misses.size());
    Report(&metrics, "storage.read_ms", Quantile(setup.read_ms, 0.5), "ms",
           "median of " + N(setup.read_ms.size()) + " set-ups");
    Report(&metrics, "storage.load_ms", Quantile(setup.load_ms, 0.5), "ms",
           "median of " + N(setup.load_ms.size()) + " set-ups");
    ReportDist(&metrics, "text.analyze_us", column(&LayerTrace::analyze_us),
               "us");
    ReportDist(&metrics, "index.search_ms", column(&LayerTrace::search_ms),
               "ms");
    count("index.postings_scanned", &LayerTrace::postings_scanned);
    ReportDist(&metrics, "universe.build_ms", column(&LayerTrace::universe_ms),
               "ms");
    count("universe.results", &LayerTrace::results);
    ReportDist(&metrics, "cluster.vectorize_ms",
               column(&LayerTrace::vectorize_ms), "ms");
    ReportDist(&metrics, "cluster.kmeans_ms", column(&LayerTrace::kmeans_ms),
               "ms");
    ReportDist(&metrics, "cluster.silhouette_ms",
               column(&LayerTrace::silhouette_ms), "ms");
    count("cluster.k_tried", &LayerTrace::k_tried);
    count("cluster.k_chosen", &LayerTrace::k_chosen);
    count("cluster.kmeans_iterations", &LayerTrace::kmeans_iterations);
    count("cluster.silhouette_pairs", &LayerTrace::silhouette_pairs);
    ReportDist(&metrics, "candidates.select_ms",
               column(&LayerTrace::candidates_ms), "ms");
    count("candidates.count", &LayerTrace::candidates);
    ReportDist(&metrics, "expand.iskr_ms",
               column(&LayerTrace::expand_self_ms, "ISKR"), "ms");
    ReportDist(&metrics, "expand.pebc_ms",
               column(&LayerTrace::expand_self_ms, "PEBC"), "ms");
    ReportDist(&metrics, "expand.fmeasure_ms",
               column(&LayerTrace::expand_self_ms, "F-measure"), "ms");
    count("expand.value_recomputations", &LayerTrace::value_recomputations);
    count("expand.iskr_steps", &LayerTrace::iskr_steps, "ISKR");
    count("expand.pebc_samples", &LayerTrace::pebc_samples, "PEBC");
    ReportDist(&metrics, "serialize.us", column(&LayerTrace::serialize_us),
               "us");
    ReportDist(&metrics, "server.queue_wait_ms", queue_ms, "ms");
    ReportDist(&metrics, "server.cache_lookup_ms", cache_ms, "ms");
    std::vector<double> miss_expansion;
    for (const Served& r : served) {
      if (r.ok && !r.cached) miss_expansion.push_back(r.expansion_ms);
    }
    ReportDist(&metrics, "server.expansion_ms", miss_expansion, "ms");
    // Every request is distinct, so this should read 0: it is printed as a
    // check of the workload, not reported as a metric.
    Print("server.cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0,
          "ratio",
           json::NumberToString(hits) + " hits of " +
               json::NumberToString(lookups) + " lookups (STATS); " +
               std::to_string(cached_count) + " of " +
               std::to_string(ok_count) + " responses cached");
    ReportDist(&metrics, "net.overhead_ms", net_ms, "ms");
    Report(&metrics, "e2e.latency_p95_ms", p95, "ms", p95_detail);
    Report(&metrics, "e2e.latency_p99_ms", p99, "ms", p99_detail);

    // Tracing overhead: the traced layer sum against the same request run
    // untraced through ExpandText, per request.
    std::vector<double> overhead, vs_served;
    size_t outside = 0;
    constexpr double kTolerance = 0.25;
    for (const LayerTrace& t : replay.traces) {
      overhead.push_back(t.layer_sum_ms / t.untraced_ms - 1.0);
      vs_served.push_back(t.layer_sum_ms / t.served_expansion_ms);
      if (std::fabs(overhead.back()) > kTolerance) ++outside;
    }
    const double overhead_frac = Quantile(overhead, 0.5);
    Report(&metrics, "trace.overhead_frac", overhead_frac, "ratio",
           "median of (layer sum / untraced ExpandText - 1), " +
               N(overhead.size()));
    Report(&metrics, "trace.served_ratio", Quantile(vs_served, 0.5), "ratio",
           "median of layer sum / served expansion stage, " +
               N(vs_served.size()));
    Report(&metrics, "trace.outside_tolerance", static_cast<double>(outside),
           "count",
           "replayed requests whose layer sum is off the untraced time by "
           "more than 25%");
    if (outside > 0) {
      std::printf("  WARN %zu of %zu replayed requests disagree with their "
                  "untraced time by more than 25%%\n",
                  outside, replay.traces.size());
    }
    if (replay.traces.empty()) {
      problems.push_back("traced replay ran no request");
    }
  }
  StopStack(&stack);

  constexpr size_t kProblemsShown = 20;
  for (size_t i = 0; i < problems.size() && i < kProblemsShown; ++i) {
    std::printf("  CHECK FAILED %s\n", problems[i].c_str());
  }
  if (problems.size() > kProblemsShown) {
    std::printf("  CHECK FAILED ... %zu more\n",
                problems.size() - kProblemsShown);
  }
  const bool correct = problems.empty() && attempted > 0;
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i > 0 ? ", " : "") + json::Quote(metrics[i].name) +
           ": {\"value\": " + json::NumberToString(metrics[i].value) +
           ", \"unit\": " + json::Quote(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

bool Flag(const std::string& arg, const char* name, std::string* value) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: qec_perfbench run --snapshot=FILE --workload=NAME "
               "--seed=N --seconds=S --trace=0|1\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2 || std::strcmp(argv[1], "run") != 0) return Usage();
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (Flag(arg, "snapshot", &v)) {
      args.snapshot = v;
    } else if (Flag(arg, "workload", &v)) {
      args.workload = v;
    } else if (Flag(arg, "seed", &v)) {
      args.seed = std::stoull(v);
    } else if (Flag(arg, "seconds", &v)) {
      args.seconds = std::stod(v);
    } else if (Flag(arg, "trace", &v)) {
      args.trace = v == "1";
    } else {
      return Usage();
    }
  }
  if (args.snapshot.empty() || args.workload.empty() || args.seconds <= 0) {
    return Usage();
  }
  return Run(args);
}
