// Served sessions: an in-process svc::Server on loopback (2 executor
// workers, 1 event thread, serial queries, WAL on with async acks) and two
// closed-loop client connections from this process. Each client owns its
// sessions, so which reads hit the result cache is fixed by the seed, and
// keeps a shadow copy of every session to check each reply:
//   - every reply is OK;
//   - a `naive` payload equals the anti-join computed here on the shadow;
//   - `mu <tuple>` is 1 exactly when that anti-join holds the tuple;
//   - `db` acknowledges the statement's one tuple;
//   - the svc.wal.appends growth equals the mutations the clients saw acked;
//   - after the run, a restarted server on the same directory holds each
//     session's shadow tuple count.

#include <algorithm>
#include <filesystem>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "data/database.h"
#include "data/relation.h"
#include "par/pool.h"
#include "perfbench.h"
#include "query/eval.h"
#include "query/parser.h"
#include "svc/client.h"
#include "svc/server.h"

namespace perfbench {
namespace {

using zeroone::Database;
using zeroone::Relation;
using zeroone::Tuple;
using zeroone::Value;
using zeroone::svc::BlockingClient;
using zeroone::svc::Request;
using zeroone::svc::Response;
using zeroone::svc::WireStatus;

constexpr std::size_t kClients = 2;
constexpr std::size_t kSessionsPerClient = 2;
constexpr std::size_t kSessionConstants = 30;
constexpr std::size_t kSessionNulls = 6;
const char* const kSessionQuery = "Q(x, y) := R(x, y) & !S(x, y)";

enum class Kind { kNaive, kNoCacheNaive, kMu, kInsert };

std::string WireValue(Value v) {
  return v.is_null() ? "_" + v.name() : v.name();
}

std::string WireTuple(const Tuple& t) {
  std::string out = "(";
  for (std::size_t i = 0; i < t.arity(); ++i) {
    out += (i ? ", " : "") + WireValue(t[i]);
  }
  return out + ")";
}

std::string WireRelation(const std::string& name,
                         const std::vector<Tuple>& rows) {
  std::string out = name + "(2) = { ";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out += (i ? ", " : "") + WireTuple(rows[i]);
  }
  return out + " }";
}

std::vector<std::string> PayloadLines(const std::string& payload) {
  std::vector<std::string> lines;
  std::istringstream in(payload);
  std::string line;
  while (std::getline(in, line)) {
    std::size_t start = line.find_first_not_of(' ');
    if (start == std::string::npos) continue;
    line = line.substr(start);
    if (line != "(none)") lines.push_back(line);
  }
  return lines;
}

struct Session {
  std::string name;
  std::vector<Tuple> base_r;
  std::vector<Tuple> base_s;
  std::string base_text;
  Database shadow;
  bool naive_cached = false;
  std::set<std::string> mu_cached;
};

class Client {
 public:
  Client(std::size_t index, std::uint64_t seed, std::size_t rows,
         std::size_t requests)
      : rng_(seed) {
    for (std::size_t i = 0; i < kSessionConstants; ++i) {
      domain_.push_back(Value::Constant("s" + std::to_string(i)));
    }
    for (std::size_t i = 0; i < kSessionNulls; ++i) {
      domain_.push_back(
          Value::Null("c" + std::to_string(index) + "n" + std::to_string(i)));
    }
    for (std::size_t s = 0; s < kSessionsPerClient; ++s) {
      Session session;
      session.name = "c" + std::to_string(index) + "s" + std::to_string(s);
      std::set<Tuple> r;
      while (r.size() < rows) r.insert(RandomTuple());
      session.base_r.assign(r.begin(), r.end());
      std::set<Tuple> s_rows;
      for (const Tuple& t : session.base_r) {
        if (rng_.Chance(0.4)) s_rows.insert(t);
      }
      while (s_rows.size() < rows) s_rows.insert(RandomTuple());
      session.base_s.assign(s_rows.begin(), s_rows.end());
      session.base_text = WireRelation("R", session.base_r) + " " +
                          WireRelation("S", session.base_s);
      sessions_.push_back(std::move(session));
    }
    // A round holds a fixed multiset of request kinds (shuffled per round):
    // 40% cacheable naive, 25% @nocache naive, 20% mu, 15% inserts.
    std::size_t no_cache = requests * 25 / 100;
    std::size_t mu = requests * 20 / 100;
    std::size_t inserts = requests * 15 / 100;
    kinds_.assign(requests - no_cache - mu - inserts, Kind::kNaive);
    kinds_.insert(kinds_.end(), no_cache, Kind::kNoCacheNaive);
    kinds_.insert(kinds_.end(), mu, Kind::kMu);
    kinds_.insert(kinds_.end(), inserts, Kind::kInsert);
  }

  zeroone::Status Connect(int port) { return conn_.Connect("127.0.0.1", port); }

  static std::size_t RequestsPerRound(std::size_t requests) {
    return requests + 3 * kSessionsPerClient;
  }

  std::uint64_t acked_mutations() const { return acked_mutations_; }
  std::uint64_t predicted_hits() const { return predicted_hits_; }
  // Time this client spent on its own checks, shadow upkeep and traced-only
  // probes: it delays this connection's next request, not the server.
  double overhead_ms() const { return overhead_ms_; }

  // One round: reload every session to its base content (reset, db,
  // query), then the shuffled request mix.
  void Round(Context& ctx) {
    for (Session& s : sessions_) {
      Clock::time_point reload_start = Clock::now();
      s.shadow = Database();
      s.shadow.AddRelation("R", 2).InsertBatch(s.base_r);
      s.shadow.AddRelation("S", 2).InsertBatch(s.base_s);
      overhead_ms_ += MsSince(reload_start);
      s.naive_cached = false;
      s.mu_cached.clear();
      Send(ctx, s, "reset", "", false, "reload");
      Send(ctx, s, "db", s.base_text, false, "reload");
      Send(ctx, s, "query", kSessionQuery, false, "reload");
    }
    for (std::size_t i = kinds_.size(); i > 1; --i) {
      std::swap(kinds_[i - 1], kinds_[rng_.Below(i)]);
    }
    for (Kind kind : kinds_) {
      Session& s = sessions_[rng_.Below(sessions_.size())];
      switch (kind) {
        case Kind::kNaive: Naive(ctx, s, /*no_cache=*/false); break;
        case Kind::kNoCacheNaive: Naive(ctx, s, /*no_cache=*/true); break;
        case Kind::kMu: Mu(ctx, s); break;
        case Kind::kInsert: Insert(ctx, s); break;
      }
    }
    if (ctx.traced()) {
      for (int i = 0; i < 2; ++i) {
        ctx.tracer()->BeginOp();
        Tracer::Scope op(ctx.tracer(), "probe.ping");
        Request request;
        request.command = "ping";
        Clock::time_point start = Clock::now();
        zeroone::StatusOr<Response> reply = conn_.Call(request);
        double ms = MsSince(start);
        overhead_ms_ += ms;
        ctx.AddSample("svc.ping_ms", ms);
        if (!reply.ok() || reply->status != WireStatus::kOk) {
          ctx.CheckFailed("ping failed");
        }
      }
    }
  }

  // The restarted server must hold the shadow's tuple count per session.
  void CheckRestored(Context& ctx, BlockingClient& conn) const {
    for (const Session& s : sessions_) {
      Request request;
      request.session = s.name;
      request.command = "show";
      zeroone::StatusOr<Response> reply = conn.Call(request);
      if (!reply.ok() || reply->status != WireStatus::kOk) {
        ctx.CheckFailed("restart: show " + s.name + " failed");
        continue;
      }
      std::size_t tuples = static_cast<std::size_t>(
          std::count(reply->payload.begin(), reply->payload.end(), '('));
      std::size_t expected = s.shadow.TupleCount();
      if (tuples != expected) {
        ctx.CheckFailed("restart: session " + s.name + " holds " +
                        std::to_string(tuples) + " tuples, shadow has " +
                        std::to_string(expected));
      }
    }
  }

 private:
  Tuple RandomTuple() {
    return {domain_[rng_.Below(domain_.size())],
            domain_[rng_.Below(domain_.size())]};
  }

  std::vector<Tuple> Oracle(const Session& s) const {
    std::vector<Tuple> out;
    const Relation& s_rel = s.shadow.relation("S");
    for (Relation::Row row : s.shadow.relation("R")) {
      if (!s_rel.Contains(row.data())) out.push_back(row.ToTuple());
    }
    return out;
  }

  // Sends one request and records its round trip under `cls` (and under
  // "served_all" for the tail). Returns the reply when it is OK.
  std::optional<Response> Send(Context& ctx, const Session& s,
                               const std::string& command,
                               const std::string& args, bool no_cache,
                               const char* cls) {
    Request request;
    request.session = s.name;
    request.command = command;
    request.args = args;
    request.no_cache = no_cache;
    ctx.tracer()->BeginOp();
    Tracer::Scope op(ctx.tracer(), "op.served");
    ctx.Attempt();
    zeroone::StatusOr<Response> reply = Response{};
    double ms = TimeCall(ctx, "svc.BlockingClient::Call",
                         [&] { reply = conn_.Call(request); });
    ctx.AddSample(cls, ms);
    ctx.AddSample("served_all", ms);
    if (!reply.ok()) {
      ctx.Failed(command + ": " + reply.status().message());
      return std::nullopt;
    }
    if (reply->status != WireStatus::kOk) {
      ctx.Failed(command + " on " + s.name + ": " +
                 std::string(zeroone::svc::WireStatusName(reply->status)) +
                 " " + reply->payload);
      return std::nullopt;
    }
    if (zeroone::svc::IsMutationCommand(command)) ++acked_mutations_;
    return std::move(reply).value();
  }

  void Naive(Context& ctx, Session& s, bool no_cache) {
    const char* cls = no_cache ? "eval" : (s.naive_cached ? "hit" : "miss");
    if (!no_cache && s.naive_cached) ++predicted_hits_;
    std::optional<Response> reply = Send(ctx, s, "naive", "", no_cache, cls);
    if (!no_cache) s.naive_cached = true;
    if (!reply) return;
    Clock::time_point check_start = Clock::now();
    std::vector<std::string> got = PayloadLines(reply->payload);
    if (ctx.corrupt() == "drop_answer.served" && !got.empty()) got.pop_back();
    std::vector<Tuple> oracle = Oracle(s);
    if (no_cache && ctx.traced()) {
      Tracer::Scope probe(ctx.tracer(), "query.NaiveEvaluate");
      zeroone::StatusOr<zeroone::Query> q = zeroone::ParseQuery(kSessionQuery);
      Clock::time_point eval_start = Clock::now();
      std::vector<Tuple> lib = zeroone::NaiveEvaluate(*q, s.shadow);
      ctx.AddSample("svc.lib_eval_ms", MsSince(eval_start));
    }
    std::vector<std::string> expected;
    for (const Tuple& t : oracle) expected.push_back(t.ToString());
    std::sort(got.begin(), got.end());
    std::sort(expected.begin(), expected.end());
    if (std::adjacent_find(got.begin(), got.end()) != got.end()) {
      ctx.CheckFailed("naive on " + s.name + ": duplicate answers");
    } else if (got != expected || expected.empty()) {
      ctx.CheckFailed("naive on " + s.name + ": " + std::to_string(got.size()) +
                      " answers, shadow oracle has " +
                      std::to_string(expected.size()));
    }
    overhead_ms_ += MsSince(check_start);
  }

  void Mu(Context& ctx, Session& s) {
    Clock::time_point pick_start = Clock::now();
    std::vector<Tuple> oracle = Oracle(s);
    // Half the probes are answers, half are random pairs over the domain.
    Tuple tuple = rng_.Chance(0.5) && !oracle.empty()
                      ? oracle[rng_.Below(oracle.size())]
                      : RandomTuple();
    std::string args = WireTuple(tuple);
    bool hit = !s.mu_cached.insert(args).second;
    if (hit) ++predicted_hits_;
    overhead_ms_ += MsSince(pick_start);
    std::optional<Response> reply = Send(ctx, s, "mu", args, false, "mu");
    if (!reply) return;
    Clock::time_point check_start = Clock::now();
    bool member = std::find(oracle.begin(), oracle.end(), tuple) != oracle.end();
    std::string expected = member ? "mu = 1" : "mu = 0";
    std::string got = reply->payload;
    if (ctx.corrupt() == "flip_mu.served") got = member ? "mu = 0" : "mu = 1";
    if (got != expected) {
      ctx.CheckFailed("mu " + args + " on " + s.name + ": '" + got +
                      "', shadow oracle says '" + expected + "'");
    }
    overhead_ms_ += MsSince(check_start);
  }

  void Insert(Context& ctx, Session& s) {
    const char* rel = rng_.Chance(0.5) ? "R" : "S";
    Tuple tuple = RandomTuple();
    std::optional<Response> reply =
        Send(ctx, s, "db", WireRelation(rel, {tuple}), false, "write");
    s.naive_cached = false;
    s.mu_cached.clear();
    if (!reply) return;
    Clock::time_point check_start = Clock::now();
    s.shadow.mutable_relation(rel).Insert(tuple);
    // `db` reports the size of the statement, whether or not it was new.
    const std::string expected = "added 1 tuples";
    if (reply->payload != expected) {
      ctx.CheckFailed("db insert on " + s.name + ": '" + reply->payload +
                      "', expected '" + expected + "'");
    }
    overhead_ms_ += MsSince(check_start);
  }

  Rng rng_;
  std::vector<Value> domain_;
  std::vector<Session> sessions_;
  std::vector<Kind> kinds_;
  BlockingClient conn_;
  std::uint64_t acked_mutations_ = 0;
  std::uint64_t predicted_hits_ = 0;
  double overhead_ms_ = 0;
};

class ServePart : public Part {
 public:
  ServePart(const Scale& scale, std::uint64_t seed, std::string work_dir)
      : scale_(scale), seed_(seed), dir_(std::move(work_dir)) {
    options_.threads = 2;
    options_.event_threads = 1;
    options_.par_threads = 1;
    options_.snapshot_dir = dir_;
    options_.wal = true;
    options_.ack_mode = zeroone::svc::AckMode::kAsync;
    options_.bind_retry_ms = 0;
  }

  ~ServePart() override {
    if (server_ != nullptr) server_->Shutdown();
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }

  bool Setup(Context& ctx) override {
    (void)ctx;
    std::error_code error;
    std::filesystem::remove_all(dir_, error);
    if (!std::filesystem::create_directories(dir_, error)) return false;
    server_ = std::make_unique<zeroone::svc::Server>(options_);
    if (!server_->Start().ok()) return false;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients_.push_back(std::make_unique<Client>(
          c, seed_ * 31 + c, scale_.session_rows, scale_.client_requests));
      if (!clients_.back()->Connect(server_->port()).ok()) return false;
    }
    return true;
  }

  std::size_t OpsPerRound() const override {
    return kClients * Client::RequestsPerRound(scale_.client_requests);
  }

  void Round(Context& ctx) override {
    zeroone::par::SetParThreads(1);
    std::uint64_t acked_before = AckedMutations();
    std::uint64_t hits_before = PredictedHits();
    CounterDelta counters;
    std::vector<double> overhead_before;
    for (const auto& client : clients_) {
      overhead_before.push_back(client->overhead_ms());
    }
    std::vector<std::thread> threads;
    for (const auto& client : clients_) {
      threads.emplace_back([&ctx, raw = client.get()] { raw->Round(ctx); });
    }
    for (std::thread& t : threads) t.join();
    // A client's checks and probes delay its own connection only; the
    // larger client share is what the round's wall time carries.
    double overhead_ms = 0;
    for (std::size_t c = 0; c < clients_.size(); ++c) {
      overhead_ms = std::max(
          overhead_ms, clients_[c]->overhead_ms() - overhead_before[c]);
    }
    ctx.AddOverheadMs(overhead_ms);

    double acked = static_cast<double>(AckedMutations() - acked_before);
    if (ctx.corrupt() == "ack_count.served") acked += 1;
    double appends = counters("svc.wal.appends");
    if (appends != acked) {
      ctx.CheckFailed("svc.wal.appends grew by " + std::to_string(appends) +
                      " but clients saw " + std::to_string(acked) +
                      " mutations acked");
    }
    double hits = counters("svc.cache.hit");
    if (hits != static_cast<double>(PredictedHits() - hits_before)) {
      ctx.CheckFailed("svc.cache.hit grew by " + std::to_string(hits) +
                      ", clients predicted " +
                      std::to_string(PredictedHits() - hits_before));
    }
    if (ctx.traced()) {
      ctx.AddCount("svc.cache_hits", hits);
      ctx.AddCount("svc.cache_lookups", hits + counters("svc.cache.miss"));
      ctx.AddCount("svc.cache_invalidations", counters("svc.cache.invalidation"));
      ctx.AddCount("svc.wal_appends", appends);
      ctx.AddCount("plan.cache_hits", counters("plan.cache_hit"));
      ctx.AddCount("plan.cache_lookups",
                   counters("plan.cache_hit") + counters("plan.cache_miss"));
    }
  }

  void Finish(Context& ctx) override {
    server_->Shutdown();
    server_.reset();
    zeroone::svc::Server restarted(options_);
    if (!restarted.Start().ok()) {
      ctx.CheckFailed("restart: server did not start on the WAL directory");
      return;
    }
    BlockingClient conn;
    if (!conn.Connect("127.0.0.1", restarted.port()).ok()) {
      ctx.CheckFailed("restart: cannot connect");
    } else {
      for (const auto& client : clients_) client->CheckRestored(ctx, conn);
    }
    conn.Close();
    restarted.Shutdown();
  }

 private:
  std::uint64_t AckedMutations() const {
    std::uint64_t total = 0;
    for (const auto& client : clients_) total += client->acked_mutations();
    return total;
  }
  std::uint64_t PredictedHits() const {
    std::uint64_t total = 0;
    for (const auto& client : clients_) total += client->predicted_hits();
    return total;
  }

  Scale scale_;
  std::uint64_t seed_;
  std::string dir_;
  zeroone::svc::ServerOptions options_;
  std::unique_ptr<zeroone::svc::Server> server_;
  std::vector<std::unique_ptr<Client>> clients_;
};

}  // namespace

std::unique_ptr<Part> MakeServePart(const Scale& scale, std::uint64_t seed,
                                    const std::string& work_dir) {
  return std::make_unique<ServePart>(scale, seed, work_dir);
}

void ReportServeLayers(const Context& ctx, double rounds, Metrics* out) {
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  (*out)["svc.ping_ms"] = {Percentile(ctx.Samples("svc.ping_ms"), kQuantile), "ms"};
  (*out)["svc.cache_hit_ratio"] = {
      ratio(ctx.Count("svc.cache_hits"), ctx.Count("svc.cache_lookups")),
      "ratio"};
  (*out)["svc.cache_invalidations"] = {
      ratio(ctx.Count("svc.cache_invalidations"), rounds), "count"};
  (*out)["svc.lib_eval_ms"] = {Percentile(ctx.Samples("svc.lib_eval_ms"), kQuantile), "ms"};
  (*out)["svc.wal_appends"] = {ratio(ctx.Count("svc.wal_appends"), rounds),
                               "count"};
  (*out)["plan.cache_hit_ratio"] = {
      ratio(ctx.Count("plan.cache_hits"), ctx.Count("plan.cache_lookups")),
      "ratio"};
}

}  // namespace perfbench
