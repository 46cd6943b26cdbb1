#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "perfbench.h"

namespace perfbench {
namespace {

thread_local std::int64_t tls_parent = -1;
thread_local std::uint64_t tls_op = 0;

// The CPUs the process may run on, read once at the first turn.
struct AllowedCpus {
  cpu_set_t mask;
  std::vector<int> cpus;
  AllowedCpus() {
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &mask)) cpus.push_back(c);
    }
  }
};

const AllowedCpus& Allowed() {
  static const AllowedCpus allowed;
  return allowed;
}

std::atomic<std::size_t> next_turn{0};

std::uint32_t ThreadId() {
  static std::atomic<std::uint32_t> next{1};
  thread_local std::uint32_t id = next.fetch_add(1);
  return id;
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

void Tracer::BeginOp() {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  tls_op = ++next_op_;
}

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (!tracer_->enabled_) return;
  start_ = Clock::now();
  {
    std::lock_guard<std::mutex> lock(tracer_->mutex_);
    if (tracer_->spans_.size() < kMaxSpans) {
      index_ = static_cast<std::int64_t>(tracer_->spans_.size());
      Span span;
      span.name = name;
      span.tid = ThreadId();
      span.op = tls_op;
      span.parent = tls_parent;
      tracer_->spans_.push_back(span);
    }
  }
  saved_parent_ = tls_parent;
  if (index_ >= 0) tls_parent = index_;
}

Tracer::Scope::~Scope() {
  if (!tracer_->enabled_) return;
  tls_parent = saved_parent_;
  if (index_ < 0) return;
  Clock::time_point end = Clock::now();
  std::lock_guard<std::mutex> lock(tracer_->mutex_);
  Span& span = tracer_->spans_[static_cast<std::size_t>(index_)];
  span.start_us =
      std::chrono::duration<double, std::micro>(start_ - tracer_->epoch_)
          .count();
  span.dur_us = std::chrono::duration<double, std::micro>(end - start_)
                    .count();
}

CpuTurn::CpuTurn(std::size_t width) {
  const std::vector<int>& cpus = Allowed().cpus;
  if (width == 0 || cpus.size() < width) return;
  // A hashed turn number, not the turn number itself: a round holds the
  // same operations every time, and a plain count would put each operation
  // on the same CPU in every round when its length divides by the CPUs.
  std::size_t first = Rng(next_turn.fetch_add(1)).Next() % cpus.size();
  cpu_set_t turn;
  CPU_ZERO(&turn);
  for (std::size_t i = 0; i < width; ++i) {
    CPU_SET(cpus[(first + i) % cpus.size()], &turn);
  }
  pinned_ = sched_setaffinity(0, sizeof(turn), &turn) == 0;
}

CpuTurn::~CpuTurn() {
  if (pinned_) sched_setaffinity(0, sizeof(cpu_set_t), &Allowed().mask);
}

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  char buffer[96];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\": ";
    zeroone::obs::AppendJsonString(out, span.name);
    std::snprintf(buffer, sizeof(buffer),
                  ", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": %u, ",
                  span.tid);
    out << buffer;
    std::snprintf(buffer, sizeof(buffer), "\"ts\": %.3f, \"dur\": %.3f, ",
                  span.start_us, span.dur_us);
    out << buffer << "\"args\": {\"span\": " << i << ", \"op\": " << span.op
        << ", \"parent\": " << span.parent;
    if (span.parent >= 0) {
      out << ", \"parent_name\": ";
      zeroone::obs::AppendJsonString(
          out, spans_[static_cast<std::size_t>(span.parent)].name);
    }
    out << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void Context::AddSample(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  samples_[name].push_back(value);
}

void Context::AddCount(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  counts_[name] += value;
}

std::vector<double> Context::Samples(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = samples_.find(name);
  return it == samples_.end() ? std::vector<double>{} : it->second;
}

double Context::Count(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counts_.find(name);
  return it == counts_.end() ? 0.0 : it->second;
}

void Context::Attempt(std::uint64_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  attempted_ += n;
}

void Context::Failed(const std::string& what) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++failed_;
  if (failed_ <= 5) std::fprintf(stderr, "perfbench: failed op: %s\n", what.c_str());
}

void Context::CheckFailed(const std::string& what) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (check_failures_.size() < 5) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
  check_failures_.push_back(what);
}

std::uint64_t Context::attempted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return attempted_;
}

std::uint64_t Context::failed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failed_;
}

bool Context::correct() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return check_failures_.empty();
}

void Context::AddOverheadMs(double ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  overhead_ms_ += ms;
}

double Context::overhead_ms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return overhead_ms_;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  if (rank == 0) rank = 1;
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

}  // namespace perfbench
