// Shared pieces of the zeroone end-to-end benchmark (perfbench/README.md):
// the seeded generator, the per-run context that collects timings and check
// failures, the span tracer of the traced run, and the three parts every
// workload runs in each round (library naive evaluation, exact measures,
// served sessions).
#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// splitmix64: portable, so one seed gives the same inputs on every platform
// (std:: distributions are implementation-defined).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::size_t Below(std::size_t n) { return Next() % n; }
  bool Chance(double p) {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53 < p;
  }

 private:
  std::uint64_t state_;
};

// Spans of the traced run: one per call into a library module, recorded
// from the benchmark's side of the call. Each span names its parent (the
// enclosing span on the same thread) and the operation it belongs to, and
// the whole set is written as Chrome trace_events JSON at the end.
class Tracer {
 public:
  struct Span {
    const char* name = nullptr;
    double start_us = 0;
    double dur_us = 0;
    std::uint32_t tid = 0;
    std::uint64_t op = 0;
    std::int64_t parent = -1;  // Index of the enclosing span, or -1.
  };

  // RAII span; a no-op when tracing is off. `name` must be a literal.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int64_t index_ = -1;
    std::int64_t saved_parent_ = -1;
    Clock::time_point start_;
  };

  explicit Tracer(bool enabled);
  bool enabled() const { return enabled_; }
  // Starts a new operation on the calling thread: later spans of this
  // thread carry its id until the next BeginOp.
  void BeginOp();
  // Writes every recorded span; returns false if the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;
  std::size_t span_count() const;

 private:
  static constexpr std::size_t kMaxSpans = 1 << 20;
  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t next_op_ = 0;
};

// Everything one run accumulates: latency samples by class or layer, counter
// sums for per-layer ratios, attempted/failed operations, and check
// failures. Sample and counter methods are thread-safe (the served part
// records from its client threads).
class Context {
 public:
  Context(Tracer* tracer, std::string corrupt)
      : tracer_(tracer), corrupt_(std::move(corrupt)) {}

  Tracer* tracer() { return tracer_; }
  bool traced() const { return tracer_->enabled(); }
  // The check that a self-test asks to see fail ("" in real runs).
  const std::string& corrupt() const { return corrupt_; }

  void AddSample(const std::string& name, double value);
  void AddCount(const std::string& name, double value);
  std::vector<double> Samples(const std::string& name) const;
  double Count(const std::string& name) const;

  void Attempt(std::uint64_t n = 1);
  void Failed(const std::string& what);
  // Records an output that disagrees with the benchmark's own computation.
  void CheckFailed(const std::string& what);
  std::uint64_t attempted() const;
  std::uint64_t failed() const;
  bool correct() const;

  // Time the library-side checks and traced-only layer probes took: kept out
  // of ops_per_s, which measures the program.
  void AddOverheadMs(double ms);
  double overhead_ms() const;

 private:
  Tracer* tracer_;
  std::string corrupt_;
  mutable std::mutex mutex_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> counts_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> check_failures_;
  double overhead_ms_ = 0;
};

// Times `body` as one call into a library layer: a span in the traced run,
// and the elapsed milliseconds as the return value.
template <typename Body>
double TimeCall(Context& ctx, const char* span, Body&& body) {
  Tracer::Scope scope(ctx.tracer(), span);
  Clock::time_point start = Clock::now();
  body();
  return MsSince(start);
}

// Moves the calling thread onto `width` CPUs of the process's allowed set,
// the next ones in turn, for the scope's lifetime; a morsel team started
// inside inherits them. On a shared host each vCPU is slowed by its own
// neighbours for stretches of seconds (a memory-bound loop ran about 2x slower
// on one vCPU than on another at the same time), and a thread left alone stays on
// one vCPU for most of a run. Turning through the CPUs spreads every class's
// samples over all of them, so a run is not held by the vCPU it started on.
// Each turn takes the next CPUs from a pseudo-random (unseeded) sequence.
// A no-op when fewer than `width` CPUs are allowed.
class CpuTurn {
 public:
  explicit CpuTurn(std::size_t width);
  ~CpuTurn();
  CpuTurn(const CpuTurn&) = delete;
  CpuTurn& operator=(const CpuTurn&) = delete;

 private:
  bool pinned_ = false;
};

// Growth of obs counters across one region of the benchmark.
class CounterDelta {
 public:
  CounterDelta() = default;
  double operator()(const char* name) const {
    return static_cast<double>(snapshot_.Delta(name));
  }

 private:
  zeroone::obs::ScopedSnapshot snapshot_;
};

// Every timing is reported at this quantile of its samples: on a shared
// machine, neighbours slow whole stretches of seconds by up to 2x, and a
// median flips between the two speeds from run to run (README.md).
constexpr double kQuantile = 0.10;

// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> values, double q);

// Sizes of one workload. Every workload runs all three parts in every round
// so that every end-to-end metric is measured on every workload; the sizes
// decide which part does most of the work.
struct Scale {
  // Library naive evaluation.
  std::size_t domain = 0;       // Constants in R, S, U.
  std::size_t rows = 0;         // Rows of R (S is built from R).
  std::size_t null_labels = 0;  // Distinct nulls in R and S.
  double null_share = 0;        // Share of R cells holding a null.
  std::size_t join_rows = 0;    // Rows of A and of B (the two-hop join).
  std::size_t join_domain = 0;
  std::size_t layers = 0;       // Layered graph E for the closure.
  std::size_t layer_width = 0;
  std::size_t width = 1;        // Pinned morsel-team width.
  // Library rounds per round: the small library part repeats so that its
  // quantiles rest on as many samples as the focus part's.
  std::size_t library_repeats = 1;
  // Timed insert batches per library round, each into a fresh copy of R.
  std::size_t insert_repeats = 1;
  // Exact measures.
  std::size_t exact_nulls = 0;  // Nulls per exact instance (m).
  std::size_t best_nulls = 0;   // Nulls of the best-answer instance.
  // Served sessions.
  std::size_t session_rows = 0;     // Rows of R and of S per session.
  std::size_t client_requests = 0;  // Requests per client per round.
};

// One part of a round. Setup builds the inputs from the seed (and checks
// the paths that are checked once); Round runs a fixed set of operations,
// each timed and checked; Finish runs the after-run checks.
class Part {
 public:
  virtual ~Part() = default;
  virtual bool Setup(Context& ctx) = 0;
  virtual void Round(Context& ctx) = 0;
  virtual void Finish(Context& ctx) { (void)ctx; }
  // Ops a round attempts (fixed, so failed/attempted repeats exactly).
  virtual std::size_t OpsPerRound() const = 0;
};

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

std::unique_ptr<Part> MakeLibraryPart(const Scale& scale, std::uint64_t seed);
std::unique_ptr<Part> MakeExactPart(const Scale& scale, std::uint64_t seed);
std::unique_ptr<Part> MakeServePart(const Scale& scale, std::uint64_t seed,
                                    const std::string& work_dir);

// Per-layer metrics each part contributes to the traced run's report.
void ReportLibraryLayers(const Context& ctx, double rounds, Metrics* out);
void ReportExactLayers(const Context& ctx, double rounds, Metrics* out);
void ReportServeLayers(const Context& ctx, double rounds, Metrics* out);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
