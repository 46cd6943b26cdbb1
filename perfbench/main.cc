// zeroone end-to-end benchmark (perfbench/README.md).
//
//   zeroone_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     --out DIR [--short] [--corrupt CHECK]
//
// Builds the workload's inputs from the seed, warms up with one round, then
// runs whole rounds until S seconds have passed, checking every output. The
// last stdout line is one JSON object: correct, attempted, failed, and the
// end-to-end metrics (--trace 0) or the per-layer metrics of the traced run
// (--trace 1, which also writes DIR/trace-<workload>-<seed>.json).
// --short runs one measured round at tiny sizes; --corrupt makes one check
// see a corrupted output, for the self-test that proves each check can fail
// on its own: drop_answer.library, drop_answer.served (one answer tuple
// dropped), flip_mu.prop4, flip_mu.theorem1, flip_mu.served (one µ
// flipped), ack_count.served (the acked-mutation count off by one).

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "perfbench.h"

namespace perfbench {
namespace {


struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool short_mode = false;
  std::string corrupt;
  std::string out_dir;
};

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--short") {
      options->short_mode = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || options->seconds <= 0) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (flag == "--corrupt") {
      options->corrupt = value;
    } else if (flag == "--out") {
      options->out_dir = value;
    } else {
      return false;
    }
  }
  return !options->workload.empty() && !options->out_dir.empty();
}

// The three workloads differ only in sizes: each runs every part in every
// round, and its sizes decide which part does most of the work.
bool WorkloadScale(const std::string& name, bool short_mode, Scale* s) {
  // Small library and served parts, shared by the workloads whose work is
  // elsewhere.
  Scale small;
  small.domain = 400;
  small.rows = 1600;
  small.null_labels = 30;
  small.null_share = 0.02;
  small.join_rows = 200;
  small.join_domain = 100;
  small.layers = 8;
  small.layer_width = 12;
  small.width = 1;
  small.library_repeats = 4;
  small.insert_repeats = 8;
  small.exact_nulls = 3;
  small.best_nulls = 2;
  small.session_rows = 40;
  small.client_requests = 200;
  *s = small;
  if (name == "naive_scale") {
    s->domain = 4000;
    s->rows = 16000;
    s->null_labels = 300;
    s->join_rows = 900;
    s->join_domain = 300;
    s->layers = 16;
    s->layer_width = 50;
    s->width = 2;
    s->library_repeats = 1;
    s->insert_repeats = 16;
  } else if (name == "exact_measure") {
    s->exact_nulls = 4;
    s->best_nulls = 3;
  } else if (name == "serve_sessions") {
    s->session_rows = 60;
    s->client_requests = 1000;
  } else {
    return false;
  }
  if (short_mode) {
    s->domain = 60;
    s->rows = 120;
    s->null_labels = 6;
    s->null_share = 0.05;
    s->join_rows = 40;
    s->join_domain = 20;
    s->layers = 4;
    s->layer_width = 5;
    s->exact_nulls = 2;
    s->best_nulls = 2;
    s->session_rows = 10;
    s->client_requests = 20;
  }
  return true;
}

void PrintResult(const Context& ctx, const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              ctx.correct() ? "true" : "false",
              static_cast<unsigned long long>(ctx.attempted()),
              static_cast<unsigned long long>(ctx.failed()));
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// Every latency sample of the run, by class, and the rounds' busy seconds:
// the raw material for comparing two commits run by run.
bool WriteSamples(const std::string& path, const Context& ctx,
                  const std::vector<double>& round_busy_s) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  auto write = [&](const char* name, const std::vector<double>& values,
                   bool last) {
    std::fprintf(out, "  \"%s\": [", name);
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::fprintf(out, "%s%.6g", i ? ", " : "", values[i]);
    }
    std::fprintf(out, "]%s\n", last ? "" : ",");
  };
  std::fprintf(out, "{\n");
  for (const char* cls :
       {"fo_select.shape0", "fo_select.shape1", "fo_select.shape2", "fo_join",
        "datalog", "insert", "cond_mu", "certain", "best", "hit", "miss",
        "eval", "write", "mu", "reload", "served_all"}) {
    write(cls, ctx.Samples(cls), false);
  }
  write("round_busy_s", round_busy_s, true);
  std::fprintf(out, "}\n");
  return std::fclose(out) == 0;
}

int Run(const Options& options) {
  Clock::time_point process_start = Clock::now();
  Scale scale;
  if (!WorkloadScale(options.workload, options.short_mode, &scale)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  std::error_code error;
  std::filesystem::create_directories(options.out_dir, error);
  std::string tag = options.workload + "-" + std::to_string(options.seed);
  std::string wal_dir = options.out_dir + "/wal-" + tag + "-" +
                        std::to_string(static_cast<long>(getpid()));

  Tracer tracer(options.trace);
  Context ctx(&tracer, options.corrupt);
  std::vector<std::unique_ptr<Part>> parts;
  parts.push_back(MakeLibraryPart(scale, options.seed));
  parts.push_back(MakeExactPart(scale, options.seed));
  parts.push_back(MakeServePart(scale, options.seed, wal_dir));
  for (auto& part : parts) {
    if (!part->Setup(ctx)) {
      std::fprintf(stderr, "perfbench: set-up failed\n");
      return 1;
    }
  }
  // Warm-up: one untimed round, checked like the others, so caches fill and
  // lazy set-up finishes before timing.
  {
    Tracer off(false);
    Context warm(&off, options.corrupt);
    for (auto& part : parts) part->Round(warm);
    if (!warm.correct() || warm.failed() != 0) {
      std::fprintf(stderr, "perfbench: warm-up round failed its checks\n");
      ctx.CheckFailed("warm-up round");
    }
  }
  double setup_s = MsSince(process_start) / 1000;

  // Whole rounds until the time is up. A round's busy time leaves out the
  // benchmark's own checks and traced-only probes.
  std::vector<double> round_busy_s;
  Clock::time_point start = Clock::now();
  do {
    Clock::time_point round_start = Clock::now();
    double overhead_before = ctx.overhead_ms();
    for (auto& part : parts) part->Round(ctx);
    round_busy_s.push_back(
        (MsSince(round_start) - (ctx.overhead_ms() - overhead_before)) / 1000);
  } while (!options.short_mode && MsSince(start) < options.seconds * 1000);
  double elapsed_ms = MsSince(start);
  std::size_t rounds = round_busy_s.size();
  for (auto& part : parts) part->Finish(ctx);

  std::size_t ops_per_round = 0;
  for (auto& part : parts) ops_per_round += part->OpsPerRound();
  if (ctx.attempted() != ops_per_round * rounds) {
    ctx.CheckFailed("attempted " + std::to_string(ctx.attempted()) +
                    " ops, rounds hold " +
                    std::to_string(ops_per_round * rounds));
  }
  double ops_per_s = static_cast<double>(ops_per_round) /
                     Percentile(round_busy_s, kQuantile);

  Metrics metrics;
  if (options.trace) {
    double r = static_cast<double>(rounds);
    ReportLibraryLayers(ctx, r, &metrics);
    ReportExactLayers(ctx, r, &metrics);
    ReportServeLayers(ctx, r, &metrics);
    metrics["traced.ops_per_s"] = {ops_per_s, "1/s"};
    std::string trace_path = options.out_dir + "/trace-" + tag + ".json";
    if (!tracer.WriteChromeTrace(trace_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "perfbench: %zu spans written to %s\n",
                 tracer.span_count(), trace_path.c_str());
  } else {
    metrics["setup_s"] = {setup_s, "s"};
    metrics["ops_per_s"] = {ops_per_s, "1/s"};
    // The selective shapes differ in cost by up to 8x, so a quantile over
    // the class would time only the cheapest; the metric is the geometric
    // mean of each shape's own quantile.
    double log_sum = 0;
    for (int shape = 0; shape < 3; ++shape) {
      log_sum += std::log(Percentile(
          ctx.Samples("fo_select.shape" + std::to_string(shape)), kQuantile));
    }
    metrics["fo_select_p10_ms"] = {std::exp(log_sum / 3), "ms"};
    const char* classes[][2] = {
        {"fo_join", "fo_join_p10_ms"}, {"datalog", "datalog_p10_ms"},
        {"insert", "insert_p10_ms"},   {"cond_mu", "cond_mu_p10_ms"},
        {"certain", "certain_p10_ms"}, {"best", "best_p10_ms"},
        {"hit", "hit_p10_ms"},         {"eval", "eval_p10_ms"},
        {"write", "write_p10_ms"}};
    for (const auto& [cls, name] : classes) {
      metrics[name] = {Percentile(ctx.Samples(cls), kQuantile), "ms"};
    }
    // The tail of every served request, taken round by round (a round's
    // requests run in a few to a few hundred milliseconds) and reported as
    // the median over rounds: a host stall that holds a whole round moves
    // that round only, where over the whole run it filled the last
    // percent by itself.
    std::vector<double> served = ctx.Samples("served_all");
    std::size_t per_round = served.size() / rounds;
    std::vector<double> round_p99;
    for (std::size_t r = 0; r < rounds; ++r) {
      round_p99.push_back(Percentile(
          std::vector<double>(served.begin() + r * per_round,
                              served.begin() + (r + 1) * per_round),
          0.99));
    }
    metrics["p99_ms"] = {Percentile(round_p99, 0.5), "ms"};
    std::fprintf(stderr,
                 "perfbench: p99_ms over %zu rounds of %zu served requests "
                 "(%zu samples)\n",
                 rounds, per_round, served.size());
    std::string samples_path = options.out_dir + "/samples-" + tag + ".json";
    if (!WriteSamples(samples_path, ctx, round_busy_s)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", samples_path.c_str());
      return 1;
    }
  }
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu rounds in %.1f s, setup %.2f s, "
               "%.1f ops/s\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed), rounds,
               elapsed_ms / 1000, setup_s, ops_per_s);
  for (const auto& [name, metric] : metrics) {
    if (!std::isfinite(metric.value)) {
      std::fprintf(stderr, "perfbench: metric %s has no samples\n",
                   name.c_str());
      return 1;
    }
  }
  PrintResult(ctx, metrics);
  return ctx.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: zeroone_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --out DIR [--short] "
                 "[--corrupt CHECK]\n");
    return 2;
  }
  return perfbench::Run(options);
}
